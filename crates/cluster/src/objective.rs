//! The decomposable correlation-clustering objective (paper §5.1, Eq. 1-2).

use topk_records::{Partition, TokenizedRecord};
use topk_text::Parallelism;

use crate::scorer::PairScorer;

/// Dense symmetric matrix of signed pair scores over `n` items.
#[derive(Debug, Clone)]
pub struct PairScores {
    n: usize,
    scores: Vec<f64>,
}

impl PairScores {
    /// Build from a scorer over item representatives (unit weights).
    pub fn from_scorer(items: &[&TokenizedRecord], scorer: &dyn PairScorer) -> Self {
        Self::from_scorer_weighted(items, &vec![1.0; items.len()], scorer)
    }

    /// Build from a scorer over *collapsed-group* representatives: the
    /// pair score is scaled by `w_i * w_j`, approximating the aggregate
    /// score over all member pairs on each side (paper §4.1: scores
    /// between collapsed groups "reflect the aggregate score over the
    /// members on each side").
    ///
    /// Scoring the `n(n-1)/2` pairs is the most expensive part of the
    /// final step (learned scorers compute a dozen string similarities
    /// per pair), so rows are scored in parallel across all cores.
    pub fn from_scorer_weighted(
        items: &[&TokenizedRecord],
        weights: &[f64],
        scorer: &dyn PairScorer,
    ) -> Self {
        Self::from_scorer_weighted_par(items, weights, scorer, Parallelism::auto())
    }

    /// [`PairScores::from_scorer_weighted`] with an explicit thread
    /// budget. Each worker computes the `j > i` upper triangle of a
    /// disjoint set of rows; rows are reassembled in index order and the
    /// symmetric mirror filled afterwards, so the matrix is bit-identical
    /// to the sequential result for every thread count.
    pub fn from_scorer_weighted_par(
        items: &[&TokenizedRecord],
        weights: &[f64],
        scorer: &dyn PairScorer,
        par: Parallelism,
    ) -> Self {
        assert_eq!(items.len(), weights.len());
        let n = items.len();
        let rows = par.map_indices(n, |i| {
            ((i + 1)..n)
                .map(|j| scorer.score(items[i], items[j]) * weights[i] * weights[j])
                .collect::<Vec<f64>>()
        });
        let mut scores = vec![0.0; n * n];
        for (i, row) in rows.into_iter().enumerate() {
            for (off, s) in row.into_iter().enumerate() {
                let j = i + 1 + off;
                scores[i * n + j] = s;
                scores[j * n + i] = s;
            }
        }
        PairScores { n, scores }
    }

    /// Build from an explicit upper-triangular list `(i, j, score)`.
    pub fn from_pairs(n: usize, pairs: &[(usize, usize, f64)]) -> Self {
        let mut scores = vec![0.0; n * n];
        for &(i, j, s) in pairs {
            assert!(i != j && i < n && j < n, "bad pair ({i},{j})");
            scores[i * n + j] = s;
            scores[j * n + i] = s;
        }
        PairScores { n, scores }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when there are no items.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The score of pair `(i, j)`; 0 on the diagonal.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.scores[i * self.n + j]
    }

    /// Reorder items so that new item `k` is old item `order[k]`.
    pub fn permute(&self, order: &[u32]) -> PairScores {
        assert_eq!(order.len(), self.n);
        let n = self.n;
        let mut scores = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                scores[i * n + j] = self.get(order[i] as usize, order[j] as usize);
            }
        }
        PairScores { n, scores }
    }

    /// Restrict to a subset of items (in the given order).
    pub fn restrict(&self, items: &[u32]) -> PairScores {
        let n = items.len();
        let mut scores = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                scores[i * n + j] = self.get(items[i] as usize, items[j] as usize);
            }
        }
        PairScores { n, scores }
    }

    /// Per-item sum of negative scores to all other items
    /// (`negsum[t] = Σ_{t'≠t, P<0} P(t,t')`). Used by the segment-score
    /// precomputation.
    pub fn negative_sums(&self) -> Vec<f64> {
        (0..self.n)
            .map(|i| {
                (0..self.n)
                    .map(|j| self.get(i, j))
                    .filter(|&s| s < 0.0)
                    .sum()
            })
            .collect()
    }

    /// Sum of positive scores over all unordered pairs.
    pub fn total_positive(&self) -> f64 {
        let mut t = 0.0;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                let s = self.get(i, j);
                if s > 0.0 {
                    t += s;
                }
            }
        }
        t
    }
}

/// Eq. 2 / Eq. 1 group term: `Σ_{t∈c} (Σ_{t'∈c, P>0} P(t,t') −
/// Σ_{t'∉c, P<0} P(t,t'))`. Within-group positive pairs count twice
/// (ordered), exactly as Eq. 1 writes them.
pub fn group_score(members: &[usize], ps: &PairScores) -> f64 {
    let in_group: std::collections::HashSet<usize> = members.iter().copied().collect();
    let mut total = 0.0;
    for &t in members {
        for t2 in 0..ps.len() {
            if t2 == t {
                continue;
            }
            let s = ps.get(t, t2);
            if in_group.contains(&t2) {
                if s > 0.0 {
                    total += s;
                }
            } else if s < 0.0 {
                total -= s;
            }
        }
    }
    total
}

/// Eq. 1: the correlation-clustering score of a full partition — the sum
/// of [`group_score`] over its groups.
pub fn correlation_score(p: &Partition, ps: &PairScores) -> f64 {
    assert_eq!(p.len(), ps.len());
    let mut total = 0.0;
    for i in 0..ps.len() {
        for j in 0..ps.len() {
            if i == j {
                continue;
            }
            let s = ps.get(i, j);
            if p.same_group(i, j) {
                if s > 0.0 {
                    total += s;
                }
            } else if s < 0.0 {
                total -= s;
            }
        }
    }
    total
}

/// The equivalent compact objective `Σ_{same-group pairs} P(i,j)`
/// (unordered). Maximizing this maximizes Eq. 1: the two differ by the
/// constant `−Σ_{P<0} P` and a factor 2.
pub fn within_sum(p: &Partition, ps: &PairScores) -> f64 {
    let mut total = 0.0;
    for i in 0..ps.len() {
        for j in (i + 1)..ps.len() {
            if p.same_group(i, j) {
                total += ps.get(i, j);
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps3() -> PairScores {
        // 0-1 strong duplicate, 0-2 and 1-2 non-duplicates.
        PairScores::from_pairs(3, &[(0, 1, 2.0), (0, 2, -1.0), (1, 2, -0.5)])
    }

    #[test]
    fn correct_grouping_scores_highest() {
        let ps = ps3();
        let good = Partition::from_labels(vec![0, 0, 1]);
        let all_apart = Partition::from_labels(vec![0, 1, 2]);
        let all_together = Partition::from_labels(vec![0, 0, 0]);
        let sg = correlation_score(&good, &ps);
        assert!(sg > correlation_score(&all_apart, &ps));
        assert!(sg > correlation_score(&all_together, &ps));
        // Eq 1 arithmetic: within pos ordered = 2*2.0; crossing negatives
        // (0,2) and (1,2) each counted twice -> +2*1.5 = 3.0. Total 7.0.
        assert!((sg - 7.0).abs() < 1e-12);
    }

    #[test]
    fn decomposes_into_group_scores() {
        let ps = ps3();
        let p = Partition::from_labels(vec![0, 0, 1]);
        let total: f64 = p.groups().iter().map(|g| group_score(g, &ps)).sum();
        assert!((total - correlation_score(&p, &ps)).abs() < 1e-12);
    }

    #[test]
    fn within_sum_is_affine_equivalent() {
        let ps = ps3();
        // Cscore = 2*within_sum + 2*|total negative| for every partition.
        let neg_total: f64 = -1.5;
        for labels in [
            vec![0, 0, 0],
            vec![0, 0, 1],
            vec![0, 1, 1],
            vec![0, 1, 0],
            vec![0, 1, 2],
        ] {
            let p = Partition::from_labels(labels);
            let c = correlation_score(&p, &ps);
            let w = within_sum(&p, &ps);
            assert!(
                (c - (2.0 * w - 2.0 * neg_total)).abs() < 1e-9,
                "c={c} w={w}"
            );
        }
    }

    #[test]
    fn permute_and_restrict() {
        let ps = ps3();
        let perm = ps.permute(&[2, 0, 1]);
        assert_eq!(perm.get(1, 2), ps.get(0, 1));
        assert_eq!(perm.get(0, 1), ps.get(2, 0));
        let sub = ps.restrict(&[0, 2]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.get(0, 1), -1.0);
    }

    #[test]
    fn negative_sums() {
        let ps = ps3();
        let ns = ps.negative_sums();
        assert_eq!(ns, vec![-1.0, -0.5, -1.5]);
        assert_eq!(ps.total_positive(), 2.0);
    }

    #[test]
    fn weighted_scores_scale() {
        let a = TokenizedRecord::from_fields(&["x".into()], 2.0);
        let b = TokenizedRecord::from_fields(&["x".into()], 3.0);
        let scorer = |_: &TokenizedRecord, _: &TokenizedRecord| 1.0;
        let ps = PairScores::from_scorer_weighted(&[&a, &b], &[2.0, 3.0], &scorer);
        assert_eq!(ps.get(0, 1), 6.0);
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use topk_records::TokenizedRecord;

    /// The parallel path (n ≥ 64) must produce exactly the same matrix as
    /// the sequential path, for every thread count.
    #[test]
    fn explicit_thread_counts_match_sequential() {
        let recs: Vec<TokenizedRecord> = (0..100)
            .map(|i| TokenizedRecord::from_fields(&[format!("rec{} y{}", i % 9, i)], 1.0))
            .collect();
        let items: Vec<&TokenizedRecord> = recs.iter().collect();
        let weights: Vec<f64> = (0..100).map(|i| 0.5 + (i % 5) as f64).collect();
        let scorer = |a: &TokenizedRecord, b: &TokenizedRecord| {
            topk_text::sim::jaccard(
                a.field(topk_records::FieldId(0)).words(),
                b.field(topk_records::FieldId(0)).words(),
            ) - 0.25
        };
        let seq = PairScores::from_scorer_weighted_par(
            &items,
            &weights,
            &scorer,
            Parallelism::sequential(),
        );
        for t in [2usize, 4, 8] {
            let par = PairScores::from_scorer_weighted_par(
                &items,
                &weights,
                &scorer,
                Parallelism::threads(t),
            );
            for i in 0..items.len() {
                for j in 0..items.len() {
                    assert_eq!(
                        seq.get(i, j).to_bits(),
                        par.get(i, j).to_bits(),
                        "threads={t} mismatch at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_scoring_matches_sequential() {
        let recs: Vec<TokenizedRecord> = (0..80)
            .map(|i| TokenizedRecord::from_fields(&[format!("name{} x{}", i % 7, i)], 1.0))
            .collect();
        let items: Vec<&TokenizedRecord> = recs.iter().collect();
        let weights: Vec<f64> = (0..80).map(|i| 1.0 + (i % 3) as f64).collect();
        let scorer = |a: &TokenizedRecord, b: &TokenizedRecord| {
            topk_text::sim::jaccard(
                a.field(topk_records::FieldId(0)).words(),
                b.field(topk_records::FieldId(0)).words(),
            ) - 0.3
        };
        let par = PairScores::from_scorer_weighted(&items, &weights, &scorer);
        // Sequential reference computed by hand.
        let n = items.len();
        for i in 0..n {
            for j in 0..n {
                let expect = if i == j {
                    0.0
                } else {
                    scorer(items[i], items[j]) * weights[i] * weights[j]
                };
                assert!(
                    (par.get(i, j) - expect).abs() < 1e-12,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }
}
