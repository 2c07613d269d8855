//! Sparse pair scores and component-wise TopK assembly.
//!
//! The dense [`PairScores`] matrix is the right tool after heavy pruning
//! (a few thousand groups), but a weakly-pruned run (large K, or the
//! Canopy-only ablations) can leave tens of thousands of groups — a
//! dense matrix would need gigabytes while almost all pairs fail the
//! necessary predicate and carry the same default negative score.
//!
//! [`SparseScores`] stores only the explicitly scored (canopy) pairs
//! plus a default rate for everything else. Because any two items that
//! never share a positive score end up in different groups of *every*
//! reasonable grouping, the positive-score graph's connected components
//! can be solved independently ([`segment_topk_sparse`]): each component
//! is densified, embedded and segmented on its own, and the global R
//! best groupings are assembled from the per-component answer lists.
//!
//! Scores returned by the sparse path omit the grouping-independent
//! cross-component negative mass, i.e. they differ from the dense Eq. 1
//! score by a constant. Rankings and score *differences* are identical
//! (verified by tests).

use std::collections::HashMap;

use crate::embed::greedy_embedding;
use crate::objective::PairScores;
use crate::segment::{segment_topk, SegmentConfig};
use crate::topr::TopR;

/// Sparse symmetric pair scores with a default rate for absent pairs.
#[derive(Debug, Clone)]
pub struct SparseScores {
    n: usize,
    entries: HashMap<(u32, u32), f64>,
    default_rate: f64,
    weights: Vec<f64>,
}

impl SparseScores {
    /// Create with per-item weights and a non-positive default rate;
    /// absent pairs score `default_rate * w_i * w_j`.
    pub fn new(weights: Vec<f64>, default_rate: f64) -> Self {
        assert!(
            default_rate <= 0.0,
            "default for non-canopy pairs must be non-positive"
        );
        SparseScores {
            n: weights.len(),
            entries: HashMap::new(),
            default_rate,
            weights,
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when there are no items.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of explicitly stored pairs.
    pub fn stored_pairs(&self) -> usize {
        self.entries.len()
    }

    /// Set the score of a pair.
    pub fn insert(&mut self, i: usize, j: usize, score: f64) {
        assert!(i != j && i < self.n && j < self.n, "bad pair ({i},{j})");
        let key = (i.min(j) as u32, i.max(j) as u32);
        self.entries.insert(key, score);
    }

    /// Score of a pair (stored or default).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        let key = (i.min(j) as u32, i.max(j) as u32);
        self.entries
            .get(&key)
            .copied()
            .unwrap_or(self.default_rate * self.weights[i] * self.weights[j])
    }

    /// Connected components of the positive-score graph, largest first.
    pub fn positive_components(&self) -> Vec<Vec<u32>> {
        let mut g = topk_graph::Graph::new(self.n);
        for (&(i, j), &s) in &self.entries {
            if s > 0.0 {
                g.add_edge(i, j);
            }
        }
        let mut comps = g.components();
        comps.sort_by_key(|c| std::cmp::Reverse(c.len()));
        comps
    }

    /// Densify the scores restricted to `items` (cross-pairs inside the
    /// subset use stored or default scores).
    pub fn densify(&self, items: &[u32]) -> PairScores {
        let m = items.len();
        let mut pairs = Vec::with_capacity(m * (m.saturating_sub(1)) / 2);
        for a in 0..m {
            for b in (a + 1)..m {
                pairs.push((a, b, self.get(items[a] as usize, items[b] as usize)));
            }
        }
        PairScores::from_pairs(m, &pairs)
    }
}

/// One assembled sparse answer: grouping score (up to a constant shared
/// by all answers) and clusters of item indices.
#[derive(Debug, Clone)]
pub struct SparseAnswer {
    /// Relative score (differences between answers match Eq. 1).
    pub score: f64,
    /// Clusters over the original item indices.
    pub clusters: Vec<Vec<u32>>,
}

/// Component-wise R-best groupings over sparse scores.
///
/// `dense_limit` caps the size of a component that will be densified and
/// solved by embedding + segmentation; larger components (which indicate
/// a far-too-loose scorer) fall back to a single all-together grouping
/// and are reported via the answer itself rather than silently truncated.
pub fn segment_topk_sparse(
    ss: &SparseScores,
    cfg: &SegmentConfig,
    alpha: f64,
    dense_limit: usize,
) -> Vec<SparseAnswer> {
    let r = cfg.r.max(1);
    let mut sp = topk_obs::Span::enter("topr_dp.sparse");
    sp.record("items", ss.len());
    sp.record("k", cfg.k);
    sp.record("r", r);
    // Global answers: iterative product-merge of per-component TopR lists.
    let mut global: TopR<Vec<Vec<u32>>> = TopR::new(r);
    global.push(0.0, Vec::new());
    for comp in ss.positive_components() {
        let candidates: Vec<(f64, Vec<Vec<u32>>)> = if comp.len() == 1 {
            vec![(0.0, vec![vec![comp[0]]])]
        } else if comp.len() > dense_limit {
            // Oversized component: keep it as one cluster (transitive
            // closure of its positive edges), scored within-component.
            let dense = ss.densify(&comp);
            let members: Vec<usize> = (0..comp.len()).collect();
            let score = crate::objective::group_score(&members, &dense);
            vec![(score, vec![comp.clone()])]
        } else {
            let dense = ss.densify(&comp);
            let order = greedy_embedding(&dense, alpha);
            let permuted = dense.permute(&order);
            let local_cfg = SegmentConfig {
                k: cfg.k.min(comp.len()),
                r,
                max_segment_len: cfg.max_segment_len,
            };
            segment_topk(&permuted, &local_cfg)
                .into_iter()
                .map(|a| {
                    let clusters: Vec<Vec<u32>> = a
                        .segments
                        .iter()
                        .map(|&(s, e)| (s..e).map(|pos| comp[order[pos] as usize]).collect())
                        .collect();
                    (a.score, clusters)
                })
                .collect()
        };
        // Product-merge this component's candidates into the global list.
        let mut next: TopR<Vec<Vec<u32>>> = TopR::new(r);
        for (gs, gclusters) in global.entries() {
            for (cs, cclusters) in &candidates {
                let mut combined = gclusters.clone();
                combined.extend(cclusters.iter().cloned());
                next.push(gs + cs, combined);
            }
        }
        global = next;
    }
    global
        .into_entries()
        .into_iter()
        .map(|(score, clusters)| SparseAnswer { score, clusters })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::correlation_score;
    use topk_records::Partition;

    fn block_sparse() -> SparseScores {
        // Two components: {0,1,2} strongly positive, {3,4} positive;
        // everything else default-negative.
        let mut ss = SparseScores::new(vec![1.0; 5], -0.5);
        ss.insert(0, 1, 2.0);
        ss.insert(1, 2, 2.0);
        ss.insert(0, 2, 2.0);
        ss.insert(3, 4, 1.5);
        ss
    }

    fn to_partition(clusters: &[Vec<u32>], n: usize) -> Partition {
        let groups: Vec<Vec<usize>> = clusters
            .iter()
            .map(|c| c.iter().map(|&i| i as usize).collect())
            .collect();
        Partition::from_groups(n, &groups)
    }

    #[test]
    fn get_uses_default_for_absent_pairs() {
        let ss = block_sparse();
        assert_eq!(ss.get(0, 1), 2.0);
        assert_eq!(ss.get(0, 3), -0.5);
        assert_eq!(ss.get(2, 2), 0.0);
        assert_eq!(ss.stored_pairs(), 4);
        assert_eq!(ss.len(), 5);
    }

    #[test]
    fn components_found() {
        let ss = block_sparse();
        let comps = ss.positive_components();
        assert_eq!(comps[0], vec![0, 1, 2]);
        assert_eq!(comps[1], vec![3, 4]);
    }

    #[test]
    fn sparse_top1_matches_dense_argmax() {
        let ss = block_sparse();
        let answers = segment_topk_sparse(&ss, &SegmentConfig::exact(2, 3), 0.6, 64);
        assert!(!answers.is_empty());
        let top = to_partition(&answers[0].clusters, 5);
        assert!(top.same_group(0, 2));
        assert!(top.same_group(3, 4));
        assert!(!top.same_group(0, 3));

        // Score differences match the dense Eq. 1 differences.
        let mut dense_pairs = Vec::new();
        for i in 0..5usize {
            for j in (i + 1)..5 {
                dense_pairs.push((i, j, ss.get(i, j)));
            }
        }
        let dense = PairScores::from_pairs(5, &dense_pairs);
        if answers.len() >= 2 {
            let d_sparse = answers[0].score - answers[1].score;
            let p0 = to_partition(&answers[0].clusters, 5);
            let p1 = to_partition(&answers[1].clusters, 5);
            let d_dense = correlation_score(&p0, &dense) - correlation_score(&p1, &dense);
            assert!(
                (d_sparse - d_dense).abs() < 1e-9,
                "sparse delta {d_sparse} vs dense delta {d_dense}"
            );
        }
    }

    #[test]
    fn oversized_component_falls_back_to_closure() {
        let mut ss = SparseScores::new(vec![1.0; 6], -0.1);
        for i in 0..5usize {
            ss.insert(i, i + 1, 1.0);
        }
        // dense_limit 3 < component size 6
        let answers = segment_topk_sparse(&ss, &SegmentConfig::exact(1, 1), 0.6, 3);
        let p = to_partition(&answers[0].clusters, 6);
        assert_eq!(p.group_count(), 1, "chain kept as one closure cluster");
    }

    #[test]
    fn r_best_across_components_are_sorted_and_distinct() {
        let ss = block_sparse();
        let answers = segment_topk_sparse(&ss, &SegmentConfig::exact(2, 4), 0.6, 64);
        for w in answers.windows(2) {
            assert!(w[0].score >= w[1].score - 1e-12);
        }
        let mut seen = std::collections::HashSet::new();
        for a in &answers {
            let mut sig: Vec<Vec<u32>> = a.clusters.clone();
            for c in &mut sig {
                c.sort_unstable();
            }
            sig.sort();
            assert!(seen.insert(sig), "duplicate sparse answer");
        }
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn positive_default_rejected() {
        SparseScores::new(vec![1.0], 0.5);
    }
}
