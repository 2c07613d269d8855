//! Incremental TopK maintenance over an evolving record stream.
//!
//! The paper's motivation is data that is "constantly evolving, or
//! otherwise too vast or open-ended to be amenable to offline
//! deduplication" — a news feed, a patent stream. Rebuilding the whole
//! pipeline on every refresh wastes the most expensive step: the
//! first-level collapse over raw records. [`IncrementalDedup`] maintains
//! that collapse online (each arriving record is merged into the
//! transitive closure through the sufficient predicate's blocking keys),
//! so a TopK refresh only runs the bound/prune/deeper-level machinery
//! over the much smaller collapsed-group set.
//!
//! Caveat: predicates whose parameters depend on corpus statistics (the
//! citation stack's IDF-based S1) drift as data arrives; collapse
//! decisions are made with the statistics in force at insertion time and
//! are not revisited. This mirrors any online system and only ever makes
//! the collapse *more conservative* early on (IDF thresholds start out
//! loose on small corpora in the other direction — callers who care
//! should warm up on an initial batch, as `examples/news_feed_tracking`
//! effectively does).

use std::{cmp::Ordering, collections::BTreeSet};

use topk_graph::UnionFind;
use topk_predicates::{PredicateStack, SufficientPredicate};
use topk_records::TokenizedRecord;
use topk_text::Parallelism;

use crate::pipeline::{cpn_bound_and_prune, run_levels, FinalGroup, REFINE_ITERATIONS};

/// Online first-level collapse plus on-demand TopK evaluation.
///
/// ```
/// use topk_core::IncrementalDedup;
/// use topk_predicates::student_predicates;
/// use topk_records::tokenize_dataset;
///
/// let feed = topk_datagen::generate_students(&topk_datagen::StudentConfig {
///     n_students: 20, n_records: 80, ..Default::default()
/// });
/// let toks = tokenize_dataset(&feed);
/// let stack = student_predicates(feed.schema());
/// let mut inc = IncrementalDedup::new();
/// for t in &toks {
///     inc.insert(t.clone(), stack.levels[0].0.as_ref());
/// }
/// let top = inc.query(&stack, 3);
/// assert!(!top.is_empty());
/// ```
#[derive(Default)]
pub struct IncrementalDedup {
    toks: Vec<TokenizedRecord>,
    sets: Sets,
    blocks: std::collections::HashMap<u64, Vec<u32>>,
    generation: u64,
    materialisations: u64,
}

/// What a reader of the collapse needs of one group, without its member
/// list. Ordered heaviest first, ties by ascending `rep` — the order of
/// [`IncrementalDedup::groups`]; `size` takes no part in the comparison.
#[derive(Debug, Clone, Copy)]
pub struct GroupSummary {
    /// Sum of the members' weights, folded in ascending record id.
    pub weight: f64,
    /// Number of member records.
    pub size: u32,
    /// The heaviest member (highest id among equals).
    pub rep: u32,
}

impl Ord for GroupSummary {
    fn cmp(&self, other: &Self) -> Ordering {
        let heavier_first = other.weight.total_cmp(&self.weight);
        heavier_first.then(self.rep.cmp(&other.rep))
    }
}

impl PartialOrd for GroupSummary {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for GroupSummary {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for GroupSummary {}

/// The union-find, the aggregates of each root maintained where the
/// union happens, and the roots in rank order.
#[derive(Default)]
struct Sets {
    uf: UnionFind,
    /// Valid at roots: the group's weight and representative.
    weight: Vec<f64>,
    rep: Vec<u32>,
    /// Intrusive ring through each group's members, spliced at union.
    next: Vec<u32>,
    /// Every root's summary as of the last [`Sets::sync`].
    index: BTreeSet<GroupSummary>,
    /// Since the last sync: index entries that no longer describe a
    /// root, the roots to (re-)enter, and one member of each group whose
    /// weight a union of interleaved ids left to be re-summed.
    stale: Vec<GroupSummary>,
    dirty: Vec<u32>,
    resum: Vec<u32>,
}

impl Sets {
    /// The last maximum under (weight, id), as `max_by` over ascending
    /// members picks it.
    fn heavier(toks: &[TokenizedRecord], a: u32, b: u32) -> u32 {
        let w = |x: u32| toks[x as usize].weight();
        std::cmp::max_by(a, b, |&x, &y| w(x).total_cmp(&w(y)).then(x.cmp(&y)))
    }

    fn summary(&mut self, root: u32) -> GroupSummary {
        GroupSummary {
            weight: self.weight[root as usize],
            size: self.uf.set_size(root),
            rep: self.rep[root as usize],
        }
    }

    /// Append the newest record, the last of `toks`, as a singleton.
    fn push(&mut self, toks: &[TokenizedRecord]) -> u32 {
        let id = self.uf.push();
        // The one-element fold, so a singleton's bits equal `groups()`'s.
        let w = std::iter::once(toks[id as usize].weight()).sum();
        self.weight.push(w);
        self.rep.push(id);
        self.next.push(id);
        self.dirty.push(id);
        id
    }

    /// Merge the group of `other` and its aggregates into the group of
    /// the newest record.
    fn union(&mut self, other: u32, toks: &[TokenizedRecord]) {
        let newest = toks.len() as u32 - 1;
        let (ra, rb) = (self.uf.find(newest), self.uf.find(other));
        if ra == rb {
            return;
        }
        let (sa, sb) = (self.summary(ra), self.summary(rb));
        // The newest record's group took shape in this insert; only the
        // other can be in the index.
        self.stale.push(sb);
        self.uf.union(ra, rb);
        let root = self.uf.find(ra);
        // The newest record, still on its own, continues the other
        // group's ascending fold exactly; once it has company the ids
        // interleave, and the merged group is re-summed at the next sync.
        if sa.size == 1 {
            self.weight[root as usize] = sb.weight + toks[newest as usize].weight();
        } else {
            self.resum.push(root);
        }
        self.rep[root as usize] = Self::heavier(toks, sa.rep, sb.rep);
        self.next.swap(ra as usize, rb as usize);
        self.dirty.push(root);
    }

    /// Bring the index up to date with every union since the last call:
    /// O(d log n) for d touched roots, plus one pass over each group a
    /// bridge record merged.
    fn sync(&mut self, toks: &[TokenizedRecord]) {
        let mut roots: Vec<u32> = self.resum.drain(..).map(|m| self.uf.find(m)).collect();
        roots.sort_unstable();
        roots.dedup();
        for r in roots {
            let mut members = vec![r];
            let mut m = self.next[r as usize];
            while m != r {
                members.push(m);
                m = self.next[m as usize];
            }
            members.sort_unstable();
            self.weight[r as usize] = members.iter().map(|&m| toks[m as usize].weight()).sum();
        }
        for s in std::mem::take(&mut self.stale) {
            self.index.remove(&s);
        }
        for r in std::mem::take(&mut self.dirty) {
            if self.uf.find(r) == r {
                let s = self.summary(r);
                self.index.insert(s);
            }
        }
    }
}

/// Plain-data snapshot of an [`IncrementalDedup`] — everything needed to
/// rebuild the collapsed state without replaying the stream (i.e. without
/// re-running any predicate match). Records are stored as their
/// normalized field texts plus weight; tokenization is deterministic, so
/// re-tokenizing on restore reproduces the original
/// [`TokenizedRecord`]s exactly.
#[derive(Debug, Clone)]
pub struct IncrementalState {
    /// Per record: normalized field texts and weight, in insertion order.
    pub records: Vec<(Vec<String>, f64)>,
    /// Union-find parent vector (see `topk_graph::UnionFind::to_vec`).
    pub parent: Vec<u32>,
    /// Blocking index as sorted `(key, member ids)` pairs, preserving the
    /// insert-time blocking keys (which may reflect corpus statistics
    /// that have since drifted — persisting them keeps restore exact).
    pub blocks: Vec<(u64, Vec<u32>)>,
    /// Ingest generation counter at snapshot time.
    pub generation: u64,
}

impl IncrementalDedup {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records inserted.
    pub fn len(&self) -> usize {
        self.toks.len()
    }

    /// True when no records were inserted.
    pub fn is_empty(&self) -> bool {
        self.toks.is_empty()
    }

    /// Number of collapsed groups so far.
    pub fn group_count(&self) -> usize {
        self.sets.uf.set_count()
    }

    /// Monotonically increasing ingest counter: bumped once per
    /// [`insert`](Self::insert), never reset. Cheap enough to poll per
    /// query — the service layer keys its query cache on it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Export the collapsed state for persistence (see
    /// [`IncrementalState`]).
    pub fn export_state(&self) -> IncrementalState {
        let mut blocks: Vec<(u64, Vec<u32>)> =
            self.blocks.iter().map(|(&k, v)| (k, v.clone())).collect();
        blocks.sort_unstable_by_key(|&(k, _)| k);
        IncrementalState {
            records: self
                .toks
                .iter()
                .map(|t| {
                    let fields = (0..t.arity())
                        .map(|f| t.field(topk_records::FieldId(f)).text.clone())
                        .collect();
                    (fields, t.weight())
                })
                .collect(),
            parent: self.sets.uf.to_vec(),
            blocks,
            generation: self.generation,
        }
    }

    /// Rebuild from an exported state. Re-tokenizes the stored field
    /// texts (deterministic) but re-runs **no** predicate work — the
    /// union-find and blocking index are restored as persisted. Returns
    /// an error when the state is internally inconsistent.
    pub fn from_state(state: IncrementalState) -> Result<Self, String> {
        let toks: Vec<TokenizedRecord> = state
            .records
            .iter()
            .map(|(fields, w)| TokenizedRecord::from_fields(fields, *w))
            .collect();
        Self::from_records(toks, state.parent, state.blocks, state.generation)
    }

    /// [`from_state`](Self::from_state) for a caller that has already
    /// tokenised the state's records, its own way: they are taken as
    /// they are, one per union-find entry, in insertion order.
    pub fn from_records(
        toks: Vec<TokenizedRecord>,
        parent: Vec<u32>,
        blocks: Vec<(u64, Vec<u32>)>,
        generation: u64,
    ) -> Result<Self, String> {
        let n = toks.len();
        if parent.len() != n {
            return Err(format!(
                "state has {n} records but {} union-find entries",
                parent.len()
            ));
        }
        let uf = UnionFind::from_vec(parent)?;
        let mut by_key = std::collections::HashMap::with_capacity(blocks.len());
        for (key, members) in blocks {
            if let Some(&bad) = members.iter().find(|&&m| m as usize >= n) {
                return Err(format!("block {key:#x} references record {bad} >= {n}"));
            }
            if by_key.insert(key, members).is_some() {
                return Err(format!("duplicate block key {key:#x}"));
            }
        }
        if generation < n as u64 {
            return Err(format!("generation {generation} below record count {n}"));
        }
        // Aggregates in one ascending pass — the fold and the `max_by`
        // of `groups()` — then every root into the index.
        let mut sets = Sets {
            uf,
            weight: vec![std::iter::empty::<f64>().sum(); n],
            rep: (0..n as u32).collect(),
            next: (0..n as u32).collect(),
            dirty: (0..n as u32).collect(),
            ..Sets::default()
        };
        for x in 0..n as u32 {
            let r = sets.uf.find(x) as usize;
            sets.weight[r] += toks[x as usize].weight();
            sets.rep[r] = Sets::heavier(&toks, sets.rep[r], x);
            sets.next.swap(x as usize, r);
        }
        sets.sync(&toks);
        Ok(IncrementalDedup {
            toks,
            sets,
            blocks: by_key,
            generation,
            materialisations: 0,
        })
    }

    /// Insert one record, merging it into the transitive closure of `s`.
    /// Returns the record's local id (its index into
    /// [`records`](Self::records)).
    ///
    /// Equivalent to batch collapse: the arriving record is tested
    /// against every same-block record (with same-set skips), exactly the
    /// pairs batch collapse would test.
    pub fn insert(&mut self, record: TokenizedRecord, s: &dyn SufficientPredicate) -> u32 {
        self.generation += 1;
        let keys = s.blocking_keys(&record);
        self.toks.push(record);
        let (toks, sets) = (&self.toks[..], &mut self.sets);
        let id = sets.push(toks);
        let record = &toks[id as usize];
        for &key in &keys {
            let block = self.blocks.entry(key).or_default();
            if s.exact_on_key() {
                if let Some(&other) = block.first() {
                    sets.union(other, toks);
                }
            } else {
                for &other in block.iter() {
                    if !sets.uf.same(id, other) && s.matches(record, &toks[other as usize]) {
                        sets.union(other, toks);
                    }
                }
            }
            block.push(id);
        }
        id
    }

    /// Apply the inserts made since the last call to the ordered index
    /// that [`ranked`](Self::ranked) reads: O(d log n) after d inserts.
    pub fn sync_index(&mut self) {
        self.sets.sync(&self.toks);
    }

    /// The collapsed groups in the order of [`groups`](Self::groups),
    /// read from the maintained index — the k-prefix costs O(k). Panics
    /// when records were inserted since the last `sync_index`.
    pub fn ranked(&self) -> impl Iterator<Item = &GroupSummary> {
        assert!(self.sets.dirty.is_empty(), "ranked() before sync_index()");
        self.sets.index.iter()
    }

    /// How many times [`groups`](Self::groups) has rebuilt every group
    /// from scratch — the cost [`ranked`](Self::ranked) exists to avoid.
    pub fn materialisations(&self) -> u64 {
        self.materialisations
    }

    /// Materialize the current collapsed groups (decreasing weight),
    /// from the union-find and the records alone: the reference the
    /// maintained aggregates are tested against.
    pub fn groups(&mut self) -> Vec<FinalGroup> {
        self.materialisations += 1;
        let mut out: Vec<FinalGroup> = self
            .sets
            .uf
            .groups()
            .into_iter()
            .map(|members| {
                let weight: f64 = members
                    .iter()
                    .map(|&m| self.toks[m as usize].weight())
                    .sum();
                let rep = *members
                    .iter()
                    .max_by(|&&a, &&b| {
                        self.toks[a as usize]
                            .weight()
                            .total_cmp(&self.toks[b as usize].weight())
                    })
                    .expect("groups are non-empty");
                FinalGroup {
                    members,
                    rep,
                    weight,
                }
            })
            .collect();
        out.sort_by(|a, b| b.weight.total_cmp(&a.weight).then(a.rep.cmp(&b.rep)));
        out
    }

    /// Run the rest of Algorithm 2 (bound + prune at level 1, then the
    /// deeper levels in full) over the maintained collapse and return the
    /// surviving groups, heaviest first.
    ///
    /// `stack.levels[0].0` must be the same sufficient predicate used for
    /// [`insert`](Self::insert).
    pub fn query(&mut self, stack: &PredicateStack, k: usize) -> Vec<FinalGroup> {
        assert!(k >= 1, "K must be at least 1");
        let par = Parallelism::sequential();
        let collapsed = self.groups();
        run_levels(
            &self.toks,
            Some(collapsed),
            &stack.levels,
            par,
            Some(k),
            cpn_bound_and_prune(k, REFINE_ITERATIONS, par),
        )
        .0
        .groups
    }

    /// Access the inserted records (for mapping groups back to data).
    pub fn records(&self) -> &[TokenizedRecord] {
        &self.toks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_datagen::{generate_students, StudentConfig};
    use topk_predicates::student_predicates;
    use topk_records::tokenize_dataset;

    use crate::pipeline::{PipelineConfig, PrunedDedup, PruningMode};

    fn setup() -> (Vec<TokenizedRecord>, PredicateStack) {
        let d = generate_students(&StudentConfig {
            n_students: 60,
            n_records: 300,
            ..Default::default()
        });
        let stack = student_predicates(d.schema());
        (tokenize_dataset(&d), stack)
    }

    #[test]
    fn incremental_collapse_matches_batch() {
        let (toks, stack) = setup();
        let s = stack.levels[0].0.as_ref();
        let mut inc = IncrementalDedup::new();
        for t in &toks {
            inc.insert(t.clone(), s);
        }
        assert_eq!(inc.len(), toks.len());
        // Batch collapse of the same data.
        let refs: Vec<&TokenizedRecord> = toks.iter().collect();
        let weights: Vec<f64> = toks.iter().map(|t| t.weight()).collect();
        let batch = topk_predicates::collapse(&refs, &weights, s);
        assert_eq!(inc.group_count(), batch.len());
        // Same group compositions.
        let norm = |mut gs: Vec<Vec<u32>>| {
            for g in &mut gs {
                g.sort_unstable();
            }
            gs.sort();
            gs
        };
        let inc_sets = norm(inc.groups().into_iter().map(|g| g.members).collect());
        let batch_sets = norm(batch.into_iter().map(|g| g.members).collect());
        assert_eq!(inc_sets, batch_sets);
    }

    #[test]
    fn incremental_query_tracks_batch_pipeline() {
        let (toks, stack) = setup();
        let s = stack.levels[0].0.as_ref();
        let mut inc = IncrementalDedup::new();
        for t in &toks {
            inc.insert(t.clone(), s);
        }
        let k = 3;
        let inc_result = inc.query(&stack, k);
        let batch = PrunedDedup::new(
            &toks,
            &stack,
            PipelineConfig {
                k,
                mode: PruningMode::Full,
                ..Default::default()
            },
        )
        .run();
        // Same top-group weights (both certify at least the heavy head).
        assert!(!inc_result.is_empty());
        let top_inc = inc_result[0].weight;
        let top_batch = batch.groups[0].weight;
        assert!(
            (top_inc - top_batch).abs() < 1e-6,
            "incremental {top_inc} vs batch {top_batch}"
        );
    }

    #[test]
    fn generation_counts_inserts() {
        let (toks, stack) = setup();
        let s = stack.levels[0].0.as_ref();
        let mut inc = IncrementalDedup::new();
        assert_eq!(inc.generation(), 0);
        for (i, t) in toks.iter().take(10).enumerate() {
            inc.insert(t.clone(), s);
            assert_eq!(inc.generation(), i as u64 + 1);
        }
    }

    #[test]
    fn state_round_trip_preserves_queries() {
        let (toks, stack) = setup();
        let s = stack.levels[0].0.as_ref();
        let mut inc = IncrementalDedup::new();
        for t in &toks {
            inc.insert(t.clone(), s);
        }
        let state = inc.export_state();
        let mut back = IncrementalDedup::from_state(state).expect("valid state");
        assert_eq!(back.len(), inc.len());
        assert_eq!(back.generation(), inc.generation());
        assert_eq!(back.group_count(), inc.group_count());
        // Queries answer identically on the restored state...
        let a = inc.query(&stack, 3);
        let b = back.query(&stack, 3);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.weight.to_bits(), y.weight.to_bits());
            assert_eq!(x.rep, y.rep);
            assert_eq!(x.members, y.members);
        }
        // ...and further inserts keep both in lockstep (blocks survived).
        for t in toks.iter().take(20) {
            inc.insert(t.clone(), s);
            back.insert(t.clone(), s);
        }
        assert_eq!(back.group_count(), inc.group_count());
    }

    #[test]
    fn from_state_rejects_inconsistency() {
        let mut good = IncrementalDedup::new();
        good.insert(TokenizedRecord::from_fields(&["a b".into()], 1.0), &NoBlock);
        let mut s = good.export_state();
        s.parent = vec![0, 0];
        assert!(
            IncrementalDedup::from_state(s).is_err(),
            "parent len mismatch"
        );
        let mut s = good.export_state();
        s.blocks = vec![(1, vec![9])];
        assert!(
            IncrementalDedup::from_state(s).is_err(),
            "block id out of range"
        );
        let mut s = good.export_state();
        s.generation = 0;
        assert!(
            IncrementalDedup::from_state(s).is_err(),
            "generation regressed"
        );
    }

    /// A sufficient predicate with no blocking keys (never merges).
    struct NoBlock;
    impl topk_predicates::SufficientPredicate for NoBlock {
        fn name(&self) -> &str {
            "no-block"
        }
        fn blocking_keys(&self, _: &TokenizedRecord) -> Vec<u64> {
            Vec::new()
        }
        fn matches(&self, _: &TokenizedRecord, _: &TokenizedRecord) -> bool {
            false
        }
    }

    #[test]
    fn bridge_record_resums_in_ascending_id_order() {
        // The sum depends on the order of addition in the last bit;
        // record 3 bridges {0, 2} (first field) and {1} (second field).
        let s = topk_predicates::OrSufficient::new(
            topk_predicates::ExactFieldsMatch::new("first", vec![topk_records::FieldId(0)]),
            topk_predicates::ExactFieldsMatch::new("second", vec![topk_records::FieldId(1)]),
        );
        let mut inc = IncrementalDedup::new();
        for (a, b, w) in [
            ("a", "x", 0.1),
            ("b", "y", 0.2),
            ("a", "z", 0.3),
            ("a", "y", 0.4),
        ] {
            inc.insert(TokenizedRecord::from_fields(&[a.into(), b.into()], w), &s);
        }
        inc.sync_index();
        let got: Vec<GroupSummary> = inc.ranked().copied().collect();
        let want = inc.groups();
        assert_eq!((got.len(), want.len()), (1, 1));
        assert_eq!(
            got[0].weight.to_bits(),
            (0.1f64 + 0.2 + 0.3 + 0.4).to_bits()
        );
        assert_eq!(got[0].weight.to_bits(), want[0].weight.to_bits());
        assert_eq!((got[0].rep, got[0].size), (3, 4));
    }

    #[test]
    #[should_panic(expected = "before sync_index")]
    fn ranked_refuses_to_read_a_stale_index() {
        let mut inc = IncrementalDedup::new();
        inc.insert(TokenizedRecord::from_fields(&["a".into()], 1.0), &NoBlock);
        let _ = inc.ranked().count();
    }

    #[test]
    fn grows_over_batches() {
        let (toks, stack) = setup();
        let s = stack.levels[0].0.as_ref();
        let mut inc = IncrementalDedup::new();
        assert!(inc.is_empty());
        for t in toks.iter().take(100) {
            inc.insert(t.clone(), s);
        }
        let g1 = inc.query(&stack, 2).len();
        for t in toks.iter().skip(100) {
            inc.insert(t.clone(), s);
        }
        let g2 = inc.query(&stack, 2).len();
        assert!(g1 >= 1 && g2 >= 1);
        assert_eq!(inc.records().len(), toks.len());
    }
}
