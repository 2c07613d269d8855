//! McCallum-Nigam-Ungar canopy clustering (paper §3's "cheap canopy
//! predicate" reference).
//!
//! Canopies are *overlapping* groups built with a cheap distance so that
//! every true duplicate pair co-occurs in at least one canopy; the
//! expensive predicate then only runs within canopies. The classic
//! algorithm repeatedly picks an unprocessed center, forms a canopy from
//! everything within the loose threshold `t1`, and removes from the
//! candidate pool everything within the tight threshold `t2 ≥ t1` (in
//! similarity terms: `t2` is the *higher* similarity).
//!
//! This module implements the similarity-flavored variant over shared
//! tokens retrieved through an inverted index — the cheap distance the
//! paper's citations use (TF-IDF/overlap rather than edit distance).

use topk_records::TokenizedRecord;
use topk_text::tokenize::TokenSet;
use topk_text::InvertedIndex;

/// Canopy configuration.
#[derive(Debug, Clone, Copy)]
pub struct CanopyConfig {
    /// Loose similarity threshold: items with similarity ≥ `t1` to the
    /// center join the canopy.
    pub t1: f64,
    /// Tight similarity threshold (≥ `t1`): items with similarity ≥ `t2`
    /// to the center are removed from the center pool.
    pub t2: f64,
}

impl Default for CanopyConfig {
    fn default() -> Self {
        CanopyConfig { t1: 0.3, t2: 0.7 }
    }
}

/// The canopies over a set of items, plus membership lists.
#[derive(Debug, Clone)]
pub struct Canopies {
    /// Each canopy as a sorted list of item indices (first = center).
    pub canopies: Vec<Vec<u32>>,
    n: usize,
}

/// Jaccard similarity of two token sets (the cheap canopy distance).
fn sim(a: &TokenSet, b: &TokenSet) -> f64 {
    topk_text::sim::jaccard(a, b)
}

/// Build canopies over items described by token sets extracted with
/// `tokens_of` (typically a field's words or 3-grams).
pub fn build_canopies(
    items: &[&TokenizedRecord],
    tokens_of: impl Fn(&TokenizedRecord) -> TokenSet,
    cfg: CanopyConfig,
) -> Canopies {
    assert!(
        cfg.t2 >= cfg.t1 && cfg.t1 >= 0.0 && cfg.t2 <= 1.0,
        "need 0 <= t1 <= t2 <= 1"
    );
    let n = items.len();
    let token_sets: Vec<TokenSet> = items.iter().map(|r| tokens_of(r)).collect();
    let mut index = InvertedIndex::new();
    for (i, ts) in token_sets.iter().enumerate() {
        index.insert(i as u32, ts);
    }
    let mut in_pool = vec![true; n];
    let mut covered = vec![false; n];
    let mut canopies = Vec::new();
    for center in 0..n {
        if !in_pool[center] {
            continue;
        }
        in_pool[center] = false;
        let mut members = vec![center as u32];
        for cand in index.candidates(&token_sets[center], 1, Some(center as u32)) {
            let c = cand as usize;
            // Already permanently assigned elsewhere and covered: may
            // still join this canopy (canopies overlap), but only pool
            // membership decides future centers.
            let s = sim(&token_sets[center], &token_sets[c]);
            if s >= cfg.t1 {
                members.push(cand);
                covered[c] = true;
                if s >= cfg.t2 {
                    in_pool[c] = false;
                }
            }
        }
        covered[center] = true;
        members.sort_unstable();
        canopies.push(members);
    }
    // Items sharing no token with anything become singleton canopies via
    // the center loop above, so everything is covered.
    debug_assert!(covered.iter().all(|&c| c));
    Canopies { canopies, n }
}

impl Canopies {
    /// Number of canopies.
    pub fn len(&self) -> usize {
        self.canopies.len()
    }

    /// True when no canopies exist (no items).
    pub fn is_empty(&self) -> bool {
        self.canopies.is_empty()
    }

    /// All unordered candidate pairs co-occurring in some canopy
    /// (deduplicated, sorted).
    pub fn candidate_pairs(&self) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        for c in &self.canopies {
            for (i, &a) in c.iter().enumerate() {
                for &b in &c[i + 1..] {
                    pairs.push((a.min(b), a.max(b)));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Fraction of all `n(n-1)/2` pairs that survive as candidates — the
    /// canopy's selectivity (lower is cheaper for the expensive
    /// predicate).
    pub fn pair_selectivity(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let total = self.n * (self.n - 1) / 2;
        self.candidate_pairs().len() as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_records::FieldId;

    fn rec(name: &str) -> TokenizedRecord {
        TokenizedRecord::from_fields(&[name.to_string()], 1.0)
    }

    fn words(r: &TokenizedRecord) -> TokenSet {
        r.field(FieldId(0)).words().clone()
    }

    #[test]
    fn similar_items_share_a_canopy() {
        let rs = [
            rec("sunita sarawagi bombay"),
            rec("sunita sarawagi iit"),
            rec("totally unrelated words"),
        ];
        let refs: Vec<&TokenizedRecord> = rs.iter().collect();
        let canopies = build_canopies(&refs, words, CanopyConfig::default());
        let pairs = canopies.candidate_pairs();
        assert!(pairs.contains(&(0, 1)));
        assert!(!pairs.contains(&(0, 2)));
        assert!(!pairs.contains(&(1, 2)));
    }

    #[test]
    fn every_item_appears() {
        let rs = [rec("a b"), rec("b c"), rec("x"), rec("y z")];
        let refs: Vec<&TokenizedRecord> = rs.iter().collect();
        let canopies = build_canopies(&refs, words, CanopyConfig { t1: 0.2, t2: 0.9 });
        let mut seen = std::collections::HashSet::new();
        for c in &canopies.canopies {
            seen.extend(c.iter().copied());
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn tight_threshold_removes_near_duplicates_from_pool() {
        // Identical items: the first becomes a center, the rest fall
        // inside t2 and never spawn their own canopies.
        let rs = [
            rec("same words here"),
            rec("same words here"),
            rec("same words here"),
        ];
        let refs: Vec<&TokenizedRecord> = rs.iter().collect();
        let canopies = build_canopies(&refs, words, CanopyConfig { t1: 0.3, t2: 0.8 });
        assert_eq!(canopies.len(), 1);
        assert_eq!(canopies.canopies[0], vec![0, 1, 2]);
    }

    #[test]
    fn selectivity_is_small_on_disjoint_data() {
        let rs: Vec<TokenizedRecord> = (0..20)
            .map(|i| rec(&format!("unique{i} token{i}")))
            .collect();
        let refs: Vec<&TokenizedRecord> = rs.iter().collect();
        let canopies = build_canopies(&refs, words, CanopyConfig::default());
        assert_eq!(canopies.pair_selectivity(), 0.0);
        assert_eq!(canopies.len(), 20);
    }

    #[test]
    #[should_panic(expected = "t1 <= t2")]
    fn bad_thresholds_panic() {
        let rs = [rec("a")];
        let refs: Vec<&TokenizedRecord> = rs.iter().collect();
        build_canopies(&refs, words, CanopyConfig { t1: 0.9, t2: 0.1 });
    }
}
