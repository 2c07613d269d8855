//! Disjoint-set forest with path halving and union by size.

/// Union-find over `0..n`.
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    sets: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            sets: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets.
    pub fn set_count(&self) -> usize {
        self.sets
    }

    /// Append a fresh singleton element, returning its id (used by the
    /// incremental pipeline as records stream in).
    pub fn push(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        self.size.push(1);
        self.sets += 1;
        id
    }

    /// Representative of `x`'s set (path halving).
    pub fn find(&mut self, x: u32) -> u32 {
        let mut x = x;
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns true when they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
        self.sets -= 1;
        true
    }

    /// Are `a` and `b` in the same set?
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of the set containing `x`.
    pub fn set_size(&mut self, x: u32) -> u32 {
        let r = self.find(x);
        self.size[r as usize]
    }

    /// Materialize all sets as vectors of members, in order of their
    /// smallest member.
    pub fn groups(&mut self) -> Vec<Vec<u32>> {
        let n = self.len();
        let mut by_root: std::collections::HashMap<u32, Vec<u32>> =
            std::collections::HashMap::new();
        for x in 0..n as u32 {
            by_root.entry(self.find(x)).or_default().push(x);
        }
        let mut out: Vec<Vec<u32>> = by_root.into_values().collect();
        out.sort_by_key(|g| g[0]);
        out
    }

    /// The raw parent vector, for persistence. Together with
    /// [`from_vec`](Self::from_vec) this round-trips the partition: sizes
    /// and the set count are derivable from the parent pointers, so the
    /// parent vector alone is a complete snapshot of the structure.
    pub fn to_vec(&self) -> Vec<u32> {
        self.parent.clone()
    }

    /// Rebuild a union-find from a parent vector produced by
    /// [`to_vec`](Self::to_vec) (or any valid parent forest).
    ///
    /// Validates that every pointer is in range and that the pointer graph
    /// is a forest (every chain reaches a self-parent root); returns a
    /// description of the first violation otherwise. Set sizes and the set
    /// count are recomputed from the partition, which agrees exactly with
    /// the original structure: union by size only ever reads the size of
    /// roots, and a root's recorded size is its component size.
    pub fn from_vec(parent: Vec<u32>) -> Result<Self, String> {
        let n = parent.len();
        for (i, &p) in parent.iter().enumerate() {
            if p as usize >= n {
                return Err(format!("parent[{i}] = {p} out of range for {n} elements"));
            }
        }
        // Root of every element, memoized; `0` = unvisited, `1` = on the
        // current chain (a repeat means a cycle), `2` = resolved.
        let mut state = vec![0u8; n];
        let mut root = vec![0u32; n];
        let mut chain = Vec::new();
        for start in 0..n as u32 {
            if state[start as usize] == 2 {
                continue;
            }
            chain.clear();
            let mut x = start;
            loop {
                match state[x as usize] {
                    2 => break, // known root below
                    1 => return Err(format!("parent pointers cycle through {x}")),
                    _ => {}
                }
                state[x as usize] = 1;
                chain.push(x);
                let p = parent[x as usize];
                if p == x {
                    break;
                }
                x = p;
            }
            let r = if state[x as usize] == 2 {
                root[x as usize]
            } else {
                x
            };
            for &c in &chain {
                state[c as usize] = 2;
                root[c as usize] = r;
            }
        }
        let mut size = vec![0u32; n];
        let mut sets = 0;
        for x in 0..n {
            if root[x] as usize == x {
                sets += 1;
            }
            size[root[x] as usize] += 1;
        }
        // Non-root entries keep size 1, matching what `new` + `union`
        // leave behind only at roots; non-root sizes are never read.
        for s in size.iter_mut() {
            if *s == 0 {
                *s = 1;
            }
        }
        Ok(UnionFind { parent, size, sets })
    }

    /// Canonical parent vector: `parent[i]` is the **minimum member** of
    /// `i`'s set. The result is a valid one-level forest (each minimum
    /// member is its own parent) describing exactly the same partition as
    /// the live structure, but independent of union order and path
    /// compression history — two structures describing the same partition
    /// always canonicalize to identical vectors, which makes persisted
    /// snapshots comparable byte-for-byte.
    pub fn canonical_parent(&mut self) -> Vec<u32> {
        let n = self.len();
        // min[root] = smallest member seen for that root; iterating
        // ascending makes the first occurrence the minimum.
        let mut min_of_root = vec![u32::MAX; n];
        let mut out = Vec::with_capacity(n);
        for x in 0..n as u32 {
            let r = self.find(x) as usize;
            if min_of_root[r] == u32::MAX {
                min_of_root[r] = x;
            }
            out.push(min_of_root[r]);
        }
        out
    }

    /// Per-element dense group labels (`0..set_count`), assigned in order
    /// of each set's first appearance.
    pub fn labels(&mut self) -> Vec<u32> {
        let n = self.len();
        let mut map = std::collections::HashMap::new();
        let mut next = 0u32;
        let mut out = Vec::with_capacity(n);
        for x in 0..n as u32 {
            let r = self.find(x);
            let l = *map.entry(r).or_insert_with(|| {
                let v = next;
                next += 1;
                v
            });
            out.push(l);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_and_find() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.set_count(), 5);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(2, 3));
        assert!(uf.same(0, 1));
        assert!(!uf.same(0, 2));
        assert_eq!(uf.set_count(), 3);
        assert_eq!(uf.set_size(0), 2);
        assert_eq!(uf.set_size(4), 1);
    }

    #[test]
    fn transitive() {
        let mut uf = UnionFind::new(4);
        uf.union(0, 1);
        uf.union(1, 2);
        assert!(uf.same(0, 2));
        assert_eq!(uf.set_size(2), 3);
    }

    #[test]
    fn groups_and_labels() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 4);
        uf.union(1, 2);
        let gs = uf.groups();
        assert_eq!(gs, vec![vec![0, 4], vec![1, 2], vec![3]]);
        assert_eq!(uf.labels(), vec![0, 1, 1, 2, 0]);
    }

    #[test]
    fn empty() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert!(uf.groups().is_empty());
    }

    #[test]
    fn vec_round_trip_preserves_partition() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 3);
        uf.union(3, 5);
        uf.union(1, 2);
        let mut back = UnionFind::from_vec(uf.to_vec()).unwrap();
        assert_eq!(back.set_count(), uf.set_count());
        assert_eq!(back.groups(), uf.groups());
        assert_eq!(back.set_size(5), 3);
        // The restored structure keeps working: push + union behave.
        let id = back.push();
        back.union(id, 4);
        assert!(back.same(4, id));
    }

    #[test]
    fn canonical_parent_is_union_order_independent() {
        let mut a = UnionFind::new(6);
        a.union(0, 3);
        a.union(3, 5);
        a.union(1, 2);
        let mut b = UnionFind::new(6);
        b.union(5, 3);
        b.union(2, 1);
        b.union(3, 0);
        // Same partition, different union orders -> identical canonical
        // vectors, and the vector is a valid forest restoring the same
        // partition.
        let ca = a.canonical_parent();
        assert_eq!(ca, b.canonical_parent());
        assert_eq!(ca, vec![0, 1, 1, 0, 4, 0]);
        let mut back = UnionFind::from_vec(ca).unwrap();
        assert_eq!(back.groups(), a.groups());
    }

    #[test]
    fn from_vec_rejects_garbage() {
        assert!(UnionFind::from_vec(vec![7]).is_err(), "out of range");
        assert!(UnionFind::from_vec(vec![1, 0]).is_err(), "2-cycle");
        assert!(UnionFind::from_vec(vec![0, 2, 1]).is_err(), "deep cycle");
        assert!(UnionFind::from_vec(vec![]).unwrap().is_empty());
        // A chain 2 -> 1 -> 0 is a valid (uncompressed) forest.
        let uf = UnionFind::from_vec(vec![0, 0, 1]).unwrap();
        assert_eq!(uf.set_count(), 1);
    }
}
