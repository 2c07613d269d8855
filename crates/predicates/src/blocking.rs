//! Blocking index over sufficient-predicate keys, and the necessary-
//! predicate canopy.

use std::collections::HashMap;

use topk_records::TokenizedRecord;
use topk_text::tokenize::TokenSet;
use topk_text::{InvertedIndex, Parallelism};

use crate::traits::{NecessaryPredicate, SufficientPredicate};

/// Hash-blocked layout of items under a sufficient predicate's keys.
#[derive(Debug, Default)]
pub struct BlockIndex {
    blocks: HashMap<u64, Vec<u32>>,
}

impl BlockIndex {
    /// Build blocks for `reps` under `s`.
    pub fn build(reps: &[&TokenizedRecord], s: &dyn SufficientPredicate) -> Self {
        Self::build_par(reps, s, Parallelism::sequential())
    }

    /// [`BlockIndex::build`] with an explicit thread budget: per-record
    /// blocking-key generation (the expensive part — key derivation
    /// hashes and normalizes field text) fans out over scoped threads;
    /// the hash-map insertion runs sequentially in record order, so each
    /// block's member list is identical to the sequential build.
    pub fn build_par(
        reps: &[&TokenizedRecord],
        s: &dyn SufficientPredicate,
        par: Parallelism,
    ) -> Self {
        let keys: Vec<Vec<u64>> = par.map_slice(reps, |r| s.blocking_keys(r));
        let mut blocks: HashMap<u64, Vec<u32>> = HashMap::new();
        for (i, ks) in keys.iter().enumerate() {
            for &k in ks {
                blocks.entry(k).or_default().push(i as u32);
            }
        }
        BlockIndex { blocks }
    }

    /// Iterate blocks with more than one member (singleton blocks cannot
    /// produce pairs).
    pub fn multi_member_blocks(&self) -> impl Iterator<Item = &[u32]> {
        self.blocks
            .values()
            .filter(|b| b.len() > 1)
            .map(Vec::as_slice)
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
}

/// The canopy of a necessary predicate over a fixed set of
/// representatives: every representative's candidate tokens,
/// materialised once, in an inverted index. Retrieval is one counted
/// probe filtered by [`NecessaryPredicate::admits`]; verification is
/// `N.matches`. The batch pipeline's prune, rank bounds, sparse scoring
/// and full dedup all find their `N`-pairs here.
pub struct NecessaryIndex<'a> {
    reps: &'a [&'a TokenizedRecord],
    pred: &'a dyn NecessaryPredicate,
    token_sets: Vec<TokenSet>,
    index: InvertedIndex,
}

impl<'a> NecessaryIndex<'a> {
    /// Index every representative's candidate tokens.
    pub fn build(reps: &'a [&'a TokenizedRecord], pred: &'a dyn NecessaryPredicate) -> Self {
        Self::build_par(reps, pred, Parallelism::sequential())
    }

    /// [`NecessaryIndex::build`] with an explicit thread budget: token
    /// extraction fans out, insertion runs sequentially in index order.
    pub fn build_par(
        reps: &'a [&'a TokenizedRecord],
        pred: &'a dyn NecessaryPredicate,
        par: Parallelism,
    ) -> Self {
        let token_sets = par.map_slice(reps, |r| pred.candidate_tokens(r));
        let mut index = InvertedIndex::new();
        for (i, ts) in token_sets.iter().enumerate() {
            index.insert(i as u32, ts);
        }
        NecessaryIndex {
            reps,
            pred,
            token_sets,
            index,
        }
    }

    /// Admitted candidates of `i`, unverified: every `j ≠ i` whose shared
    /// candidate-token count `N.admits`, in ascending order. A superset
    /// of [`neighbors`](Self::neighbors) by the `admits` contract.
    pub fn candidates(&self, i: u32) -> Vec<u32> {
        let ts = &self.token_sets[i as usize];
        self.index
            .candidates_with_counts(ts, Some(i))
            .into_iter()
            .filter(|&(j, common)| {
                self.pred
                    .admits(common, ts.len(), self.token_sets[j as usize].len())
            })
            .map(|(j, _)| j)
            .collect()
    }

    /// All items `j ≠ i` with `N(reps[i], reps[j]) = true` (verified), in
    /// ascending order.
    pub fn neighbors(&self, i: u32) -> Vec<u32> {
        let mut out = self.candidates(i);
        out.retain(|&j| self.matches(i, j));
        out
    }

    /// Verify `N` on a specific pair.
    pub fn matches(&self, i: u32, j: u32) -> bool {
        self.pred
            .matches(self.reps[i as usize], self.reps[j as usize])
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.reps.len()
    }

    /// True when no items are indexed.
    pub fn is_empty(&self) -> bool {
        self.reps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic::{ExactFieldsMatch, QgramFractionNecessary, WordOverlapNecessary};
    use topk_records::FieldId;

    fn rec(name: &str) -> TokenizedRecord {
        TokenizedRecord::from_fields(&[name.to_string()], 1.0)
    }

    #[test]
    fn block_index_groups_equal_fields() {
        let rs = [rec("a b"), rec("a b"), rec("c")];
        let refs: Vec<&TokenizedRecord> = rs.iter().collect();
        let s = ExactFieldsMatch::new("exact", vec![FieldId(0)]);
        let bi = BlockIndex::build(&refs, &s);
        let multi: Vec<&[u32]> = bi.multi_member_blocks().collect();
        assert_eq!(multi.len(), 1);
        assert_eq!(multi[0], &[0, 1]);
        assert_eq!(bi.block_count(), 2);
    }

    #[test]
    fn necessary_index_finds_neighbors() {
        let rs = [rec("x y z w"), rec("x y z q"), rec("p q r s")];
        let refs: Vec<&TokenizedRecord> = rs.iter().collect();
        let n = WordOverlapNecessary::new("n", vec![FieldId(0)], 3, None);
        let ni = NecessaryIndex::build(&refs, &n);
        assert_eq!(ni.neighbors(0), vec![1]);
        assert_eq!(ni.neighbors(2), Vec::<u32>::new());
        assert!(ni.matches(0, 1));
        assert!(!ni.matches(0, 2));
        assert_eq!(ni.len(), 3);
    }

    /// Sharing a gram is not enough to be a candidate: the canopy offers
    /// exactly the pairs `admits` accepts on their counts, which still
    /// covers every verified neighbour.
    #[test]
    fn candidates_are_the_admitted_pairs() {
        let rs = [
            rec("sunita sarawagi"),
            rec("sunita sarawagy"),
            rec("sunil saraf"),
            rec("vinay deshpande"),
        ];
        let refs: Vec<&TokenizedRecord> = rs.iter().collect();
        let n = QgramFractionNecessary::new("n", FieldId(0), 0.6, false);
        let ni = NecessaryIndex::build(&refs, &n);
        let grams: Vec<_> = refs.iter().map(|r| n.candidate_tokens(r)).collect();
        for i in 0..refs.len() {
            let admitted: Vec<u32> = (0..refs.len())
                .filter(|&j| j != i)
                .filter(|&j| {
                    let common = grams[i].intersection_size(&grams[j]);
                    common > 0 && n.admits(common, grams[i].len(), grams[j].len())
                })
                .map(|j| j as u32)
                .collect();
            assert_eq!(ni.candidates(i as u32), admitted, "item {i}");
            let neighbors = ni.neighbors(i as u32);
            assert!(neighbors.iter().all(|j| admitted.contains(j)));
        }
        assert_eq!(ni.candidates(0), vec![1]);
        assert_eq!(ni.neighbors(0), vec![1]);
        // "sunil saraf" shares grams with both sunitas and is admitted by
        // neither.
        assert!(grams[2].intersection_size(&grams[0]) > 0);
        assert!(grams[2].intersection_size(&grams[1]) > 0);
        assert!(ni.candidates(2).is_empty());
    }
}
