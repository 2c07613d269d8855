//! The segmentation dynamic program behind the R highest-scoring TopK
//! answers (paper §5.3.2).
//!
//! Records are first arranged on a line (see [`crate::embed`]); a
//! grouping is then a segmentation of that line, scored by the
//! decomposable objective of Eq. 1/2. [`segment_topk`] returns the R
//! best segmentations whose segments all fit the length cap `ℓmax`, best
//! first, each exactly once.
//!
//! # One pass
//!
//! The paper states the recurrence per small-segment cap `ℓ`:
//! `AnsR(k, i, ℓ)` ranks the segmentations of the first `i` positions
//! with at most `k` segments longer than `ℓ`, and the answer is
//! `maxR_ℓ AnsR(K, n, ℓ)`. The score of a segmentation does not depend on
//! which of its segments are designated, so every `AnsR(K, n, ℓ)` ranks a
//! *subset* of what `ℓ = ℓmax` ranks with no constraint at all, with the
//! same left-to-right score sums. The sweep over `ℓ` and the `k`
//! dimension can therefore only re-find what the `ℓ = ℓmax` table holds,
//! and the function runs that table alone: one row `best[i]`, the R best
//! segmentations of the first `i` positions. Cost: `O(n·ℓmax²)` for the
//! segment-score table, then `O(R·n·ℓmax)` offers to the R-best lists.
//! The test module keeps the full sweep as the oracle.
//!
//! R distinct *segmentations* are not R distinct *answers*: two of them
//! can agree on their K heaviest segments and differ only in how the tail
//! is split. Callers that want R answers ask for spare segmentations and
//! deduplicate by top-K composition (`topk_core`'s `dedup_answers` asks
//! for 3R).
//!
//! # Ties
//!
//! Segmentations with *exactly* equal scores keep the order in which the
//! table offers them: at each cell the shorter last segment first, then
//! the rank of the prefix it extends (applied recursively, since that
//! rank was settled the same way). Real pair scores are `P · w_i · w_j`
//! with a continuous `P` and do not tie.

use topk_records::Partition;

use crate::objective::PairScores;
use crate::topr::TopR;

/// Configuration for [`segment_topk`].
#[derive(Debug, Clone)]
pub struct SegmentConfig {
    /// `K`: how many groups the caller will designate in each returned
    /// segmentation ([`SegmentAnswer::topk_segments`]). The ranking of
    /// segmentations does not depend on it (see the module docs); it is
    /// recorded on the `topr_dp` span.
    pub k: usize,
    /// `R`: how many distinct high-scoring segmentations to return.
    pub r: usize,
    /// Hard cap on any segment's length. The paper's "not considering
    /// any cluster including too many dissimilar points" knob; also
    /// bounds the DP's cost. Clamped to `n`.
    pub max_segment_len: usize,
}

impl SegmentConfig {
    /// Exact configuration: unbounded segment length.
    pub fn exact(k: usize, r: usize) -> Self {
        SegmentConfig {
            k,
            r,
            max_segment_len: usize::MAX,
        }
    }
}

/// One answer: a full segmentation with its score.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentAnswer {
    /// Eq. 1 score of the grouping.
    pub score: f64,
    /// Segments as half-open `[start, end)` position ranges covering
    /// `0..n` in order.
    pub segments: Vec<(usize, usize)>,
}

impl SegmentAnswer {
    /// The grouping as a partition over positions.
    pub fn partition(&self) -> Partition {
        let n = self.segments.last().map_or(0, |s| s.1);
        let mut labels = vec![0u32; n];
        for (g, &(a, b)) in self.segments.iter().enumerate() {
            for l in labels.iter_mut().take(b).skip(a) {
                *l = g as u32;
            }
        }
        Partition::from_labels(labels)
    }

    /// Indices of the K heaviest segments (ties broken toward earlier
    /// segments), given per-position weights.
    pub fn topk_segments(&self, weights: &[f64], k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.segments.len()).collect();
        let weight = |&(a, b): &(usize, usize)| weights[a..b].iter().sum::<f64>();
        idx.sort_by(|&x, &y| {
            weight(&self.segments[y])
                .total_cmp(&weight(&self.segments[x]))
                .then(x.cmp(&y))
        });
        idx.truncate(k);
        idx
    }
}

/// Precomputed segment scores: `score(end, len)` = Eq. 1 group term of the
/// segment of `len` positions ending at position `end - 1` (1-based end).
struct SegmentScores {
    max_len: usize,
    /// `table[(end - 1) * max_len + (len - 1)]`
    table: Vec<f64>,
}

impl SegmentScores {
    fn new(ps: &PairScores, max_len: usize) -> Self {
        let n = ps.len();
        let negsum = ps.negative_sums();
        // prefix sums of negsum for O(1) range sums
        let mut negsum_prefix = vec![0.0; n + 1];
        for i in 0..n {
            negsum_prefix[i + 1] = negsum_prefix[i] + negsum[i];
        }
        let mut table = vec![0.0; n * max_len];
        for end in 1..=n {
            let e = end - 1; // last item of the segment
            let mut posw = 0.0;
            let mut negw = 0.0;
            let max_l = max_len.min(end);
            for len in 1..=max_l {
                let s = end - len; // first item
                if len > 1 {
                    // extend: add pairs (s, t) for t in s+1..=e
                    for t in (s + 1)..=e {
                        let v = ps.get(s, t);
                        if v > 0.0 {
                            posw += v;
                        } else {
                            negw += v;
                        }
                    }
                }
                let negsum_range = negsum_prefix[end] - negsum_prefix[s];
                // Eq. 1 term: 2·pos_within − (Σ negsum − 2·neg_within)
                table[e * max_len + (len - 1)] = 2.0 * posw - (negsum_range - 2.0 * negw);
            }
        }
        SegmentScores { max_len, table }
    }

    #[inline]
    fn get(&self, end: usize, len: usize) -> f64 {
        self.table[(end - 1) * self.max_len + (len - 1)]
    }
}

/// Backpointer for one DP entry.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Back {
    prev_i: u32,
    prev_rank: u16,
}

/// Run the segmentation DP and return the R highest-scoring distinct
/// segmentations under the length cap (decreasing score; exact ties in
/// the order the module docs give). Input scores must already be in
/// embedding order (see [`PairScores::permute`]).
pub fn segment_topk(ps: &PairScores, cfg: &SegmentConfig) -> Vec<SegmentAnswer> {
    let n = ps.len();
    let mut sp = topk_obs::Span::enter("topr_dp");
    sp.record("items", n);
    sp.record("k", cfg.k);
    sp.record("r", cfg.r);
    if n == 0 {
        return vec![SegmentAnswer {
            score: 0.0,
            segments: Vec::new(),
        }];
    }
    let lmax = cfg.max_segment_len.clamp(1, n);
    let r = cfg.r.max(1);
    let scores = SegmentScores::new(ps, lmax);

    // best[i]: the R best segmentations of the first i positions. Each
    // segmentation reaches a cell along exactly one chain of
    // backpointers, so no cell holds one twice.
    let mut best: Vec<TopR<Back>> = Vec::with_capacity(n + 1);
    let mut origin = TopR::new(r);
    origin.push(
        0.0,
        Back {
            prev_i: u32::MAX,
            prev_rank: 0,
        },
    );
    best.push(origin);
    for i in 1..=n {
        let mut cell = TopR::new(r);
        for j in 1..=lmax.min(i) {
            let seg = scores.get(i, j);
            for (rank, (s, _)) in best[i - j].entries().iter().enumerate() {
                cell.push(
                    s + seg,
                    Back {
                        prev_i: (i - j) as u32,
                        prev_rank: rank as u16,
                    },
                );
            }
        }
        best.push(cell);
    }
    best[n]
        .entries()
        .iter()
        .enumerate()
        .map(|(rank, &(score, _))| SegmentAnswer {
            score,
            segments: reconstruct(&best, n, rank),
        })
        .collect()
}

fn reconstruct(best: &[TopR<Back>], i: usize, rank: usize) -> Vec<(usize, usize)> {
    let mut segments = Vec::new();
    let (mut i, mut rank) = (i, rank);
    while i > 0 {
        let (_, back) = best[i].entries()[rank];
        let prev_i = back.prev_i as usize;
        segments.push((prev_i, i));
        rank = back.prev_rank as usize;
        i = prev_i;
    }
    segments.reverse();
    segments
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{correlation_score, group_score};

    fn seg_score(ps: &PairScores, segments: &[(usize, usize)]) -> f64 {
        segments
            .iter()
            .map(|&(a, b)| group_score(&(a..b).collect::<Vec<_>>(), ps))
            .sum()
    }

    /// All segmentations of 0..n.
    fn all_segmentations(n: usize) -> Vec<Vec<(usize, usize)>> {
        let mut out = Vec::new();
        let mut current = Vec::new();
        fn rec(
            start: usize,
            n: usize,
            current: &mut Vec<(usize, usize)>,
            out: &mut Vec<Vec<(usize, usize)>>,
        ) {
            if start == n {
                out.push(current.clone());
                return;
            }
            for end in (start + 1)..=n {
                current.push((start, end));
                rec(end, n, current, out);
                current.pop();
            }
        }
        rec(0, n, &mut current, &mut out);
        out
    }

    fn two_clusters() -> PairScores {
        let mut pairs = Vec::new();
        for &(a, b) in &[(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)] {
            pairs.push((a, b, 1.0));
        }
        for i in 0..3 {
            for j in 3..6 {
                pairs.push((i, j, -1.0));
            }
        }
        PairScores::from_pairs(6, &pairs)
    }

    #[test]
    fn finds_optimal_two_cluster_split() {
        let ps = two_clusters();
        let answers = segment_topk(&ps, &SegmentConfig::exact(2, 1));
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].segments, vec![(0, 3), (3, 6)]);
        let p = answers[0].partition();
        assert!((answers[0].score - correlation_score(&p, &ps)).abs() < 1e-9);
    }

    #[test]
    fn top1_matches_brute_force() {
        // Pseudo-random instance; DP top-1 must equal the best over all
        // segmentations.
        let mut state = 99u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 2000) as f64 / 1000.0 - 1.0
        };
        for n in 2..=8usize {
            let mut pairs = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    pairs.push((i, j, next()));
                }
            }
            let ps = PairScores::from_pairs(n, &pairs);
            let answers = segment_topk(&ps, &SegmentConfig::exact(3.min(n), 1));
            let best_brute = all_segmentations(n)
                .iter()
                .map(|s| seg_score(&ps, s))
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(
                (answers[0].score - best_brute).abs() < 1e-9,
                "n={n}: DP {} vs brute {best_brute}",
                answers[0].score
            );
        }
    }

    #[test]
    fn top_r_are_the_r_best_distinct_segmentations() {
        let ps = two_clusters();
        let r = 4;
        let answers = segment_topk(&ps, &SegmentConfig::exact(2, r));
        assert!(answers.len() >= 2);
        // scores decreasing and segmentations distinct
        for w in answers.windows(2) {
            assert!(w[0].score >= w[1].score - 1e-12);
            assert_ne!(w[0].segments, w[1].segments);
        }
        // each reported score equals its segmentation's true score
        for a in &answers {
            assert!((a.score - seg_score(&ps, &a.segments)).abs() < 1e-9);
        }
        // compare against brute force top-r distinct scores
        let mut brute: Vec<f64> = all_segmentations(6)
            .iter()
            .map(|s| seg_score(&ps, s))
            .collect();
        brute.sort_by(|a, b| b.total_cmp(a));
        for (i, a) in answers.iter().enumerate() {
            assert!(
                (a.score - brute[i]).abs() < 1e-9,
                "rank {i}: {} vs {}",
                a.score,
                brute[i]
            );
        }
    }

    #[test]
    fn segment_length_cap_respected() {
        let ps = two_clusters();
        let cfg = SegmentConfig {
            k: 2,
            r: 2,
            max_segment_len: 2,
        };
        for a in segment_topk(&ps, &cfg) {
            assert!(a.segments.iter().all(|&(s, e)| e - s <= 2));
        }
    }

    #[test]
    fn topk_segments_by_weight() {
        let a = SegmentAnswer {
            score: 0.0,
            segments: vec![(0, 2), (2, 3), (3, 6)],
        };
        let weights = vec![1.0, 1.0, 10.0, 1.0, 1.0, 1.0];
        assert_eq!(a.topk_segments(&weights, 2), vec![1, 2]);
        let p = a.partition();
        assert_eq!(p.group_count(), 3);
        assert!(p.same_group(3, 5));
    }

    #[test]
    fn empty_input() {
        let ps = PairScores::from_pairs(0, &[]);
        let answers = segment_topk(&ps, &SegmentConfig::exact(1, 2));
        assert_eq!(answers.len(), 1);
        assert!(answers[0].segments.is_empty());
    }

    #[test]
    fn k_zero_still_segments_with_small_groups() {
        // With k=0 every segment must have length ≤ ℓ; for ℓ=n this is
        // unrestricted, so the optimum is still reachable.
        let ps = two_clusters();
        let answers = segment_topk(&ps, &SegmentConfig::exact(0, 1));
        assert_eq!(answers[0].segments, vec![(0, 3), (3, 6)]);
    }

    /// R larger than the number of distinct segmentations is fine.
    #[test]
    fn r_larger_than_space() {
        let ps = PairScores::from_pairs(2, &[(0, 1, 1.0)]);
        let answers = segment_topk(&ps, &SegmentConfig::exact(1, 50));
        // only two segmentations exist: [0,2] and [0,1),[1,2)
        assert_eq!(answers.len(), 2);
    }

    /// The parent's `segment_topk`, kept as the oracle: one table per
    /// small-segment cap ℓ = 1..=ℓmax over budgets 0..=K of segments
    /// longer than ℓ, harvested at `(K, n)` in ℓ-ascending order into one
    /// R-best list, whole segmentations deduplicated by boundary vector.
    fn segment_topk_full_sweep(ps: &PairScores, cfg: &SegmentConfig) -> Vec<SegmentAnswer> {
        #[derive(Debug, Clone, Copy, PartialEq)]
        struct Back {
            prev_i: u32,
            prev_k: u16,
            prev_rank: u16,
        }
        fn reconstruct(
            table: &[Vec<TopR<Back>>],
            k: usize,
            i: usize,
            rank: usize,
        ) -> Vec<(usize, usize)> {
            let mut segments = Vec::new();
            let (mut k, mut i, mut rank) = (k, i, rank);
            while i > 0 {
                let (_, back) = table[k][i].entries()[rank];
                let prev_i = back.prev_i as usize;
                segments.push((prev_i, i));
                k = back.prev_k as usize;
                rank = back.prev_rank as usize;
                i = prev_i;
            }
            segments.reverse();
            segments
        }

        let n = ps.len();
        if n == 0 {
            return vec![SegmentAnswer {
                score: 0.0,
                segments: Vec::new(),
            }];
        }
        let lmax = cfg.max_segment_len.clamp(1, n);
        let r = cfg.r.max(1);
        let k_budget = cfg.k;
        let scores = SegmentScores::new(ps, lmax);

        // Collect candidate answers across ℓ runs, deduplicating identical
        // segmentations by their boundary vectors.
        let mut global: TopR<Vec<(usize, usize)>> = TopR::new(r);
        let mut seen: std::collections::HashSet<Vec<usize>> = std::collections::HashSet::new();

        for ell in 1..=lmax {
            // table[k][i]: TopR of (score, Back).
            let mut table: Vec<Vec<TopR<Back>>> = vec![vec![TopR::new(r); n + 1]; k_budget + 1];
            for k_tab in table.iter_mut() {
                k_tab[0].push(
                    0.0,
                    Back {
                        prev_i: u32::MAX,
                        prev_k: 0,
                        prev_rank: 0,
                    },
                );
            }
            for k in 0..=k_budget {
                for i in 1..=n {
                    let mut cell = TopR::new(r);
                    // small segments: length 1..=min(ℓ, i)
                    for j in 1..=ell.min(i).min(lmax) {
                        let seg = scores.get(i, j);
                        for (rank, (s, _)) in table[k][i - j].entries().iter().enumerate() {
                            cell.push(
                                s + seg,
                                Back {
                                    prev_i: (i - j) as u32,
                                    prev_k: k as u16,
                                    prev_rank: rank as u16,
                                },
                            );
                        }
                    }
                    // big segments: length ℓ+1..=min(i, lmax), consuming one
                    // designated-slot from the budget
                    if k > 0 {
                        for j in (ell + 1)..=i.min(lmax) {
                            let seg = scores.get(i, j);
                            for (rank, (s, _)) in table[k - 1][i - j].entries().iter().enumerate() {
                                cell.push(
                                    s + seg,
                                    Back {
                                        prev_i: (i - j) as u32,
                                        prev_k: (k - 1) as u16,
                                        prev_rank: rank as u16,
                                    },
                                );
                            }
                        }
                    }
                    table[k][i] = cell;
                }
            }
            // Harvest answers at (K, n).
            for (rank, &(score, _)) in table[k_budget][n].entries().iter().enumerate() {
                let segments = reconstruct(&table, k_budget, n, rank);
                let boundaries: Vec<usize> = segments.iter().map(|s| s.1).collect();
                if seen.insert(boundaries) {
                    global.push(score, segments);
                }
            }
        }

        global
            .into_entries()
            .into_iter()
            .map(|(score, segments)| SegmentAnswer { score, segments })
            .collect()
    }

    /// xorshift64*: one generator for both grids below.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
    }

    fn instance(n: usize, mut score: impl FnMut() -> f64) -> PairScores {
        let mut pairs = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                pairs.push((i, j, score()));
            }
        }
        PairScores::from_pairs(n, &pairs)
    }

    /// Every `(k, r, max_segment_len)` of the grid on one instance.
    fn grid(n: usize) -> impl Iterator<Item = SegmentConfig> {
        let caps = [usize::MAX, n, (n / 2).max(1), 3, 1];
        [0usize, 1, 2, 5].into_iter().flat_map(move |k| {
            [1usize, 3, 9].into_iter().flat_map(move |r| {
                caps.into_iter().map(move |max_segment_len| SegmentConfig {
                    k,
                    r,
                    max_segment_len,
                })
            })
        })
    }

    /// On continuous scores nothing ties, so the one-pass DP must return
    /// what the full sweep returns: as many answers, the same score bits,
    /// the same segments, in the same order. 14 sizes x 6 seeds x 60
    /// configurations = 5 040 instances.
    #[test]
    fn one_pass_equals_the_full_sweep_on_continuous_scores() {
        let mut cases = 0;
        for n in 1..=14usize {
            for seed in 1..=6u64 {
                let mut rng = Rng(seed * 0x9e37_79b9 + n as u64);
                let ps = instance(n, || (rng.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0);
                for cfg in grid(n) {
                    let got = segment_topk(&ps, &cfg);
                    let want = segment_topk_full_sweep(&ps, &cfg);
                    assert_eq!(got.len(), want.len(), "n={n} seed={seed} {cfg:?}");
                    for (rank, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            g.score.to_bits(),
                            w.score.to_bits(),
                            "n={n} seed={seed} {cfg:?} rank {rank}"
                        );
                        assert_eq!(g.segments, w.segments, "n={n} seed={seed} {cfg:?}");
                    }
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 5040);
    }

    /// Scores drawn from {-1, 0, 1} tie constantly. The score vectors
    /// still agree bit for bit; which member of a class of exactly tied
    /// segmentations is reported may differ (the sweep's order is "first
    /// harvested over ℓ ascending", which only a sweep can reproduce), so
    /// each reported segmentation is checked against its own score, and
    /// the answers against each other for distinctness.
    #[test]
    fn tied_scores_keep_the_score_vector() {
        for n in 1..=12usize {
            for seed in 1..=9u64 {
                let mut rng = Rng(seed * 0x51_7cc1 + n as u64);
                let ps = instance(n, || (rng.next() % 3) as f64 - 1.0);
                for cfg in grid(n) {
                    let got = segment_topk(&ps, &cfg);
                    let want = segment_topk_full_sweep(&ps, &cfg);
                    let bits = |a: &[SegmentAnswer]| -> Vec<u64> {
                        a.iter().map(|x| x.score.to_bits()).collect()
                    };
                    assert_eq!(bits(&got), bits(&want), "n={n} seed={seed} {cfg:?}");
                    for (i, a) in got.iter().enumerate() {
                        assert_eq!(a.score, seg_score(&ps, &a.segments));
                        assert!(got[..i].iter().all(|b| b.segments != a.segments));
                    }
                }
            }
        }
    }

    /// The tie rule of the module docs, on the instance where everything
    /// ties: shorter last segment first, then the rank of the prefix.
    #[test]
    fn exact_ties_come_out_in_push_order() {
        let ps = PairScores::from_pairs(3, &[]);
        let all = segment_topk(&ps, &SegmentConfig::exact(1, 4));
        let segments: Vec<_> = all.iter().map(|a| a.segments.clone()).collect();
        assert_eq!(
            segments,
            vec![
                vec![(0, 1), (1, 2), (2, 3)],
                vec![(0, 2), (2, 3)],
                vec![(0, 1), (1, 3)],
                vec![(0, 3)],
            ]
        );
        // A smaller R keeps a prefix of that order.
        let two = segment_topk(&ps, &SegmentConfig::exact(1, 2));
        assert_eq!(two.len(), 2);
        assert_eq!(two[0].segments, segments[0]);
        assert_eq!(two[1].segments, segments[1]);
    }
}
