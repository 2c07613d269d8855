//! Inverted index for candidate (canopy) retrieval.
//!
//! The necessary-predicate join (§4.3) and the canopy baseline (§3) never
//! enumerate the full Cartesian product: each record posts its blocking
//! tokens here, and candidate mates are the union of posting lists,
//! optionally filtered by a minimum number of shared tokens.
//!
//! Retrieval is one *counted probe*
//! ([`InvertedIndex::candidates_with_counts`]): walk the posting lists of
//! the query's tokens bumping one counter per id, then read the touched
//! ids back in ascending order. Nothing the size of the concatenated
//! postings is ever sorted. The counters are thread-local scratch, zeroed
//! again as they are read, so concurrent probes of one shared index never
//! touch each other's state and a probe costs its postings, not the
//! index's size.

use std::cell::RefCell;
use std::collections::HashMap;

use crate::hash::Token;
use crate::tokenize::TokenSet;

thread_local! {
    /// Counters of the probe running on this thread, indexed by id; all
    /// zero between probes.
    static COUNTS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Inverted index from token to the ids of items containing it.
///
/// Ids are caller-assigned `u32`s (record or group indices), expected to
/// be dense: a probe keeps one counter per id up to the largest inserted.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    postings: HashMap<Token, Vec<u32>>,
    items: usize,
    /// One past the largest id inserted.
    id_bound: usize,
}

impl InvertedIndex {
    /// Create an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index `id` under every token of `ts`, once per id. Any insertion
    /// order works; probes return ascending ids regardless.
    pub fn insert(&mut self, id: u32, ts: &TokenSet) {
        for &t in ts.as_slice() {
            self.postings.entry(t).or_default().push(id);
        }
        self.items += 1;
        self.id_bound = self.id_bound.max(id as usize + 1);
    }

    /// Number of items inserted.
    pub fn len(&self) -> usize {
        self.items
    }

    /// True when nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Posting list for one token.
    pub fn postings(&self, t: Token) -> &[u32] {
        self.postings.get(&t).map_or(&[], |v| v.as_slice())
    }

    /// All distinct ids sharing at least `min_common` tokens with `ts`,
    /// excluding `self_id` if provided. Candidates are returned sorted.
    pub fn candidates(&self, ts: &TokenSet, min_common: usize, self_id: Option<u32>) -> Vec<u32> {
        self.candidates_with_counts(ts, self_id)
            .into_iter()
            .filter(|&(_, shared)| shared >= min_common)
            .map(|(id, _)| id)
            .collect()
    }

    /// The counted probe: every id sharing at least one token with `ts`,
    /// in ascending order, with the number of tokens shared, excluding
    /// `self_id` if provided.
    pub fn candidates_with_counts(&self, ts: &TokenSet, self_id: Option<u32>) -> Vec<(u32, usize)> {
        COUNTS.with_borrow_mut(|counts| {
            if counts.len() < self.id_bound {
                counts.resize(self.id_bound, 0);
            }
            let mut touched: Vec<u32> = Vec::new();
            for &t in ts.as_slice() {
                for &id in self.postings(t) {
                    let c = &mut counts[id as usize];
                    if *c == 0 {
                        touched.push(id);
                    }
                    *c += 1;
                }
            }
            touched.sort_unstable();
            touched
                .into_iter()
                .filter_map(|id| {
                    let shared = std::mem::take(&mut counts[id as usize]) as usize;
                    (Some(id) != self_id).then_some((id, shared))
                })
                .collect()
        })
    }

    /// Number of distinct tokens indexed.
    pub fn vocab_size(&self) -> usize {
        self.postings.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::word_set;

    fn index() -> InvertedIndex {
        let mut ix = InvertedIndex::new();
        ix.insert(0, &word_set("alpha beta gamma"));
        ix.insert(1, &word_set("beta gamma delta"));
        ix.insert(2, &word_set("epsilon zeta"));
        ix
    }

    #[test]
    fn finds_overlapping_items() {
        let ix = index();
        let q = word_set("beta gamma");
        assert_eq!(ix.candidates(&q, 1, None), vec![0, 1]);
        assert_eq!(ix.candidates(&q, 2, None), vec![0, 1]);
        assert!(ix.candidates(&word_set("nothing"), 1, None).is_empty());
    }

    #[test]
    fn min_common_filters() {
        let ix = index();
        let q = word_set("alpha delta");
        // item 0 shares alpha, item 1 shares delta — 1 token each.
        assert_eq!(ix.candidates(&q, 1, None), vec![0, 1]);
        assert!(ix.candidates(&q, 2, None).is_empty());
    }

    #[test]
    fn excludes_self() {
        let ix = index();
        let q = word_set("alpha beta gamma");
        assert_eq!(ix.candidates(&q, 1, Some(0)), vec![1]);
    }

    #[test]
    fn counts_are_correct() {
        let ix = index();
        let q = word_set("beta gamma delta");
        let cc = ix.candidates_with_counts(&q, None);
        assert_eq!(cc, vec![(0, 2), (1, 3)]);
    }

    #[test]
    fn sizes() {
        let ix = index();
        assert_eq!(ix.len(), 3);
        assert!(!ix.is_empty());
        assert_eq!(ix.vocab_size(), 6);
        assert_eq!(ix.postings(crate::hash::hash_str("beta")), &[0, 1]);
    }

    /// The sort-based merge the counted probe replaced, as the oracle.
    fn merge_with_counts(
        ix: &InvertedIndex,
        ts: &TokenSet,
        self_id: Option<u32>,
    ) -> Vec<(u32, usize)> {
        let mut hits: Vec<u32> = Vec::new();
        for &t in ts.as_slice() {
            hits.extend_from_slice(ix.postings(t));
        }
        hits.sort_unstable();
        let mut out = Vec::new();
        let mut i = 0;
        while i < hits.len() {
            let id = hits[i];
            let mut j = i + 1;
            while j < hits.len() && hits[j] == id {
                j += 1;
            }
            if Some(id) != self_id {
                out.push((id, j - i));
            }
            i = j;
        }
        out
    }

    #[test]
    fn counted_probe_equals_the_sorted_merge_on_generated_postings() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for round in 0..20 {
            let items = 1 + next(60) as u32;
            let vocab = 2 + next(25);
            let sets: Vec<TokenSet> = (0..items)
                .map(|_| TokenSet::from_tokens((0..next(8)).map(|_| next(vocab)).collect()))
                .collect();
            // Every other round inserts the ids back to front.
            let mut order: Vec<u32> = (0..items).collect();
            if round % 2 == 1 {
                order.reverse();
            }
            let mut ix = InvertedIndex::new();
            for &id in &order {
                ix.insert(id, &sets[id as usize]);
            }
            for (id, ts) in sets.iter().enumerate() {
                for self_id in [None, Some(id as u32)] {
                    let counted = ix.candidates_with_counts(ts, self_id);
                    assert_eq!(counted, merge_with_counts(&ix, ts, self_id));
                    assert!(counted.windows(2).all(|w| w[0].0 < w[1].0));
                    assert!(counted.iter().all(|&(j, _)| Some(j) != self_id));
                    for min_common in 1..=3 {
                        let want: Vec<u32> = counted
                            .iter()
                            .filter(|c| c.1 >= min_common)
                            .map(|c| c.0)
                            .collect();
                        assert_eq!(ix.candidates(ts, min_common, self_id), want);
                    }
                }
            }
        }
    }
}
