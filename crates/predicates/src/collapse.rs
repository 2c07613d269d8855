//! Collapse step (paper §4.1): transitive closure of sufficient-predicate
//! pairs via union-find over blocking-key blocks.
//!
//! Correctness relies on the paper's §4.1 argument: every pair inside a
//! collapsed group is a true duplicate (sufficiency + transitivity of the
//! duplicate-of relation), so any member can represent the group for
//! further predicate evaluation.

use topk_graph::UnionFind;
use topk_records::TokenizedRecord;
use topk_text::Parallelism;

use crate::blocking::BlockIndex;
use crate::traits::SufficientPredicate;

/// A group of collapsed units (indices into the caller's unit array).
#[derive(Debug, Clone)]
pub struct CollapsedGroup {
    /// Unit indices belonging to the group.
    pub members: Vec<u32>,
    /// The member chosen to represent the group (the heaviest member;
    /// §4.1 proves any choice is correct, a heavy member is just a
    /// reasonable centroid proxy).
    pub rep: u32,
    /// Total weight of the group.
    pub weight: f64,
}

/// Compute the transitive closure of `s` over `reps` and return the
/// groups in decreasing weight order.
///
/// `reps[i]` is the representative record of unit `i` and `weights[i]`
/// its accumulated weight (1.0 per raw record on the first level; group
/// weights on later levels).
pub fn collapse(
    reps: &[&TokenizedRecord],
    weights: &[f64],
    s: &dyn SufficientPredicate,
) -> Vec<CollapsedGroup> {
    collapse_par(reps, weights, s, Parallelism::sequential())
}

/// [`collapse`] with an explicit thread budget.
///
/// Blocking-key generation fans out per record; candidate *pair* search
/// fans out per shard of blocks, each worker testing `S.matches` inside
/// its own blocks (with a shard-local union-find to skip pairs already
/// connected within the shard); all matched pairs then feed a **single
/// sequential union-find reducer**. Union-find components are invariant
/// to union order and the groups are sorted by `(weight desc, rep)` at
/// the end, so the result is identical to the sequential path for every
/// thread count.
pub fn collapse_par(
    reps: &[&TokenizedRecord],
    weights: &[f64],
    s: &dyn SufficientPredicate,
    par: Parallelism,
) -> Vec<CollapsedGroup> {
    assert_eq!(reps.len(), weights.len());
    let mut sp = topk_obs::Span::enter("collapse");
    sp.record("groups_in", reps.len());
    sp.record("threads", par.get());
    let n = reps.len();
    let mut uf = UnionFind::new(n);
    let blocks = BlockIndex::build_par(reps, s, par);
    // Predicate evaluations actually performed (whole-block exact merges
    // count one per union); the work the canopy/blocking step avoided is
    // exactly what the paper's §4.1 speedups come from.
    let mut pairs_compared: u64 = 0;
    if par.is_sequential() {
        for block in blocks.multi_member_blocks() {
            if s.exact_on_key() {
                // Whole block is one group by contract.
                for &other in &block[1..] {
                    uf.union(block[0], other);
                    pairs_compared += 1;
                }
            } else {
                for (i, &a) in block.iter().enumerate() {
                    for &b in &block[i + 1..] {
                        if !uf.same(a, b) {
                            pairs_compared += 1;
                            if s.matches(reps[a as usize], reps[b as usize]) {
                                uf.union(a, b);
                            }
                        }
                    }
                }
            }
        }
    } else {
        let block_list: Vec<&[u32]> = blocks.multi_member_blocks().collect();
        let pair_shards: Vec<(Vec<(u32, u32)>, u64)> = par.map_chunks(block_list.len(), |range| {
            let mut local = UnionFind::new(n);
            let mut pairs = Vec::new();
            let mut compared: u64 = 0;
            for block in &block_list[range] {
                if s.exact_on_key() {
                    for &other in &block[1..] {
                        pairs.push((block[0], other));
                        compared += 1;
                    }
                } else {
                    for (i, &a) in block.iter().enumerate() {
                        for &b in &block[i + 1..] {
                            if !local.same(a, b) {
                                compared += 1;
                                if s.matches(reps[a as usize], reps[b as usize]) {
                                    local.union(a, b);
                                    pairs.push((a, b));
                                }
                            }
                        }
                    }
                }
            }
            (pairs, compared)
        });
        for (shard, compared) in pair_shards {
            pairs_compared += compared;
            for (a, b) in shard {
                uf.union(a, b);
            }
        }
    }
    sp.record("pairs_compared", pairs_compared);
    let mut groups: Vec<CollapsedGroup> = uf
        .groups()
        .into_iter()
        .map(|members| {
            let weight: f64 = members.iter().map(|&m| weights[m as usize]).sum();
            let rep = *members
                .iter()
                .max_by(|&&a, &&b| weights[a as usize].total_cmp(&weights[b as usize]))
                .expect("groups are non-empty");
            CollapsedGroup {
                members,
                rep,
                weight,
            }
        })
        .collect();
    groups.sort_by(|a, b| b.weight.total_cmp(&a.weight).then(a.rep.cmp(&b.rep)));
    sp.record("groups_out", groups.len());
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic::ExactFieldsMatch;
    use topk_records::FieldId;

    fn rec(name: &str) -> TokenizedRecord {
        TokenizedRecord::from_fields(&[name.to_string()], 1.0)
    }

    #[test]
    fn collapses_exact_duplicates() {
        let rs = [rec("a"), rec("b"), rec("a"), rec("a"), rec("b")];
        let refs: Vec<&TokenizedRecord> = rs.iter().collect();
        let weights = vec![1.0; 5];
        let s = ExactFieldsMatch::new("exact", vec![FieldId(0)]);
        let groups = collapse(&refs, &weights, &s);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].weight, 3.0);
        assert_eq!(groups[0].members, vec![0, 2, 3]);
        assert_eq!(groups[1].weight, 2.0);
    }

    #[test]
    fn transitive_closure_via_threshold_predicate() {
        // A predicate where a~b and b~c but not a~c directly: closure must
        // still put all three together.
        struct ShareWord;
        impl SufficientPredicate for ShareWord {
            fn name(&self) -> &str {
                "share-word"
            }
            fn blocking_keys(&self, r: &TokenizedRecord) -> Vec<u64> {
                r.field(FieldId(0)).words().as_slice().to_vec()
            }
            fn matches(&self, a: &TokenizedRecord, b: &TokenizedRecord) -> bool {
                a.field(FieldId(0))
                    .words()
                    .intersection_size(b.field(FieldId(0)).words())
                    >= 1
            }
        }
        let rs = [rec("x y"), rec("y z"), rec("z w"), rec("unrelated")];
        let refs: Vec<&TokenizedRecord> = rs.iter().collect();
        let groups = collapse(&refs, &[1.0; 4], &ShareWord);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].members, vec![0, 1, 2]);
    }

    #[test]
    fn heaviest_member_is_rep() {
        let rs = [rec("q"), rec("q")];
        let refs: Vec<&TokenizedRecord> = rs.iter().collect();
        let s = ExactFieldsMatch::new("exact", vec![FieldId(0)]);
        let groups = collapse(&refs, &[1.0, 5.0], &s);
        assert_eq!(groups[0].rep, 1);
        assert_eq!(groups[0].weight, 6.0);
    }

    #[test]
    fn no_matches_means_singletons_in_weight_order() {
        let rs = [rec("a"), rec("b"), rec("c")];
        let refs: Vec<&TokenizedRecord> = rs.iter().collect();
        let s = ExactFieldsMatch::new("exact", vec![FieldId(0)]);
        let groups = collapse(&refs, &[1.0, 9.0, 4.0], &s);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].rep, 1);
        assert_eq!(groups[1].rep, 2);
        assert_eq!(groups[2].rep, 0);
    }
}
