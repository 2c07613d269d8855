//! Query types: TopK count (§5), TopK rank (§7.1), thresholded rank
//! (§7.2).

use std::borrow::Borrow;
use std::time::{Duration, Instant};

use topk_cluster::{
    greedy_embedding, segment_topk, segment_topk_sparse, PairScorer, PairScores, SegmentConfig,
    SparseScores,
};
use topk_predicates::{NecessaryIndex, NecessaryPredicate, PredicateStack};
use topk_records::TokenizedRecord;
use topk_text::Parallelism;

use crate::bounds::prune_groups;
use crate::pipeline::{
    run_levels, FinalGroup, LevelPrune, PipelineConfig, PrunedDedup, PruningMode, REFINE_ITERATIONS,
};
use crate::stats::PipelineStats;

/// One group in a TopK answer.
#[derive(Debug, Clone)]
pub struct AnswerGroup {
    /// Record indices of all mentions in the group.
    pub records: Vec<u32>,
    /// Aggregated weight (count, marks, asset worth, ...).
    pub weight: f64,
    /// A representative record index.
    pub rep: u32,
}

/// One of the R returned answers: the K largest groups of one
/// high-scoring grouping.
#[derive(Debug, Clone)]
pub struct TopKAnswer {
    /// Score of the underlying grouping (Eq. 1).
    pub score: f64,
    /// The K largest groups, by decreasing weight.
    pub groups: Vec<AnswerGroup>,
}

/// Result of a [`TopKQuery`].
#[derive(Debug, Clone)]
pub struct TopKResult {
    /// Up to R answers, best first.
    pub answers: Vec<TopKAnswer>,
    /// Pipeline statistics (Figures 2-4 numbers).
    pub stats: PipelineStats,
}

/// Cap on segment length in the final DP (see
/// [`SegmentConfig::max_segment_len`]).
const MAX_SEGMENT_LEN: usize = 256;
/// Score (scaled by group weights) of a pair failing the last necessary
/// predicate — Algorithm 2 line 9 applies `P` only to canopy-surviving
/// pairs; the rest are certain non-duplicates.
const NON_CANOPY_SCORE: f64 = -1.0;
/// Safety cap on the number of groups entering the final clustering; the
/// heaviest are kept.
const MAX_FINAL_ITEMS: usize = 50_000;

/// The TopK count query: the K largest duplicate groups, with the R
/// highest-scoring groupings returned to expose resolution ambiguity.
#[derive(Debug, Clone)]
pub struct TopKQuery {
    /// Number of groups to return per answer.
    pub k: usize,
    /// Number of alternative answers.
    pub r: usize,
    /// Greedy-embedding decay α (Eq. 3).
    pub alpha: f64,
    /// Thread budget for the pipeline and the final scoring pass;
    /// results are identical for every setting.
    pub parallelism: Parallelism,
    /// Above this many surviving groups the final step switches from the
    /// dense n x n score matrix to the sparse component-wise path
    /// (canopy pairs only + per-component segmentation; see
    /// `topk_cluster::sparse`).
    sparse_threshold: usize,
}

impl TopKQuery {
    /// A query with the paper's defaults.
    pub fn new(k: usize, r: usize) -> Self {
        TopKQuery {
            k,
            r,
            alpha: 0.6,
            parallelism: Parallelism::auto(),
            sparse_threshold: 2_000,
        }
    }

    /// Run the query.
    pub fn run(
        &self,
        toks: &[TokenizedRecord],
        stack: &PredicateStack,
        scorer: &dyn PairScorer,
    ) -> TopKResult {
        let out = PrunedDedup::new(
            toks,
            stack,
            PipelineConfig {
                k: self.k,
                refine_iterations: REFINE_ITERATIONS,
                mode: PruningMode::Full,
                parallelism: self.parallelism,
            },
        )
        .run();
        let mut groups = out.groups;
        groups.truncate(MAX_FINAL_ITEMS);
        let answers = final_answers(self, toks, stack, scorer, &groups);
        TopKResult {
            answers,
            stats: out.stats,
        }
    }
}

/// Final clustering over pruned groups: score canopy pairs with `P`,
/// embed, segment, and convert the R best segmentations into answers.
fn final_answers(
    q: &TopKQuery,
    toks: &[TokenizedRecord],
    stack: &PredicateStack,
    scorer: &dyn PairScorer,
    groups: &[FinalGroup],
) -> Vec<TopKAnswer> {
    let (k, r) = (q.k, q.r);
    let n = groups.len();
    if n == 0 {
        return vec![TopKAnswer {
            score: 0.0,
            groups: Vec::new(),
        }];
    }
    let reps: Vec<&TokenizedRecord> = groups.iter().map(|g| &toks[g.rep as usize]).collect();
    let weights: Vec<f64> = groups.iter().map(|g| g.weight).collect();
    // Algorithm 2 line 9: apply P only on pairs passing the last N.
    let last_n = stack.levels.last().map(|(_, n_pred)| n_pred.as_ref());
    // Two distinct groupings can designate the same K largest groups
    // (they differ only in how the tail is split); such answers are the
    // same TopK result, so request spare groupings and deduplicate by
    // group composition below.
    let cfg = SegmentConfig {
        k,
        r: r.saturating_mul(3).max(r),
        max_segment_len: MAX_SEGMENT_LEN,
    };

    // Large surviving sets take the sparse component-wise path: score
    // only canopy pairs, default everything else to the non-canopy rate.
    if n > q.sparse_threshold {
        let ss = canopy_scores(
            &reps,
            &weights,
            last_n,
            scorer,
            NON_CANOPY_SCORE,
            q.parallelism,
        );
        let candidates: Vec<(f64, Vec<Vec<usize>>)> = segment_topk_sparse(&ss, &cfg, q.alpha, 2048)
            .into_iter()
            .map(|a| {
                let clusters = a
                    .clusters
                    .into_iter()
                    .map(|c| c.into_iter().map(|u| u as usize).collect())
                    .collect();
                (a.score, clusters)
            })
            .collect();
        return dedup_answers(candidates, groups, &weights, k, r);
    }

    // Dense path: score each row's upper triangle in parallel; rows are
    // reassembled in index order, so the pair list (and hence the score
    // matrix) matches the sequential double loop exactly.
    let rows = q.parallelism.map_indices(n, |i| {
        ((i + 1)..n)
            .map(|j| {
                let canopy = last_n.map_or(true, |p| p.matches(reps[i], reps[j]));
                let s = if canopy {
                    scorer.score(reps[i], reps[j])
                } else {
                    NON_CANOPY_SCORE
                };
                (i, j, s * weights[i] * weights[j])
            })
            .collect::<Vec<(usize, usize, f64)>>()
    });
    let pairs: Vec<(usize, usize, f64)> = rows.into_iter().flatten().collect();
    let ps = PairScores::from_pairs(n, &pairs);
    // Linear embedding + segmentation DP (§5.3), whose grouping space
    // contains the hierarchy frontiers of §5.2.
    let order = greedy_embedding(&ps, q.alpha);
    let permuted = ps.permute(&order);
    let candidates: Vec<(f64, Vec<Vec<usize>>)> = segment_topk(&permuted, &cfg)
        .into_iter()
        .map(|a| {
            let clusters = a
                .segments
                .iter()
                .map(|&(s, e)| (s..e).map(|pos| order[pos] as usize).collect())
                .collect();
            (a.score, clusters)
        })
        .collect();
    dedup_answers(candidates, groups, &weights, k, r)
}

/// Algorithm 2 line 9 for a group set too large for a dense matrix: `P`
/// on the pairs passing the last necessary predicate, retrieved through
/// its candidate index, and every other pair left at `non_canopy_score`
/// (forced negative). Without a necessary predicate every pair is a
/// canopy pair.
///
/// Rows are scored in parallel (read-only probes) and inserted
/// sequentially in row order, so the matrix is built identically for
/// every thread count.
pub(crate) fn canopy_scores(
    reps: &[&TokenizedRecord],
    weights: &[f64],
    last_n: Option<&dyn NecessaryPredicate>,
    scorer: &dyn PairScorer,
    non_canopy_score: f64,
    par: Parallelism,
) -> SparseScores {
    let n = reps.len();
    let canopy = last_n.map(|n_pred| (NecessaryIndex::build_par(reps, n_pred, par), n_pred));
    let scored = par.map_indices(n, |i| {
        let score = |j: usize| (j, scorer.score(reps[i], reps[j]) * weights[i] * weights[j]);
        match &canopy {
            Some((index, n_pred)) => index
                .candidates(i as u32)
                .into_iter()
                .map(|j| j as usize)
                .filter(|&j| j > i && n_pred.matches(reps[i], reps[j]))
                .map(score)
                .collect::<Vec<(usize, f64)>>(),
            None => ((i + 1)..n).map(score).collect(),
        }
    });
    let mut ss = SparseScores::new(weights.to_vec(), non_canopy_score.min(-1e-9));
    for (i, row) in scored.into_iter().enumerate() {
        for (j, s) in row {
            ss.insert(i, j, s);
        }
    }
    ss
}

/// Build answers from candidate groupings, deduplicating by the
/// composition of the K reported groups, best score first.
fn dedup_answers(
    candidates: Vec<(f64, Vec<Vec<usize>>)>,
    groups: &[FinalGroup],
    weights: &[f64],
    k: usize,
    r: usize,
) -> Vec<TopKAnswer> {
    let mut seen = std::collections::HashSet::new();
    let mut answers: Vec<TopKAnswer> = candidates
        .into_iter()
        .map(|(score, clusters)| build_answer(score, clusters, groups, weights, k))
        .filter(|ans| {
            let mut sig: Vec<Vec<u32>> = ans
                .groups
                .iter()
                .map(|g| {
                    let mut rec = g.records.clone();
                    rec.sort_unstable();
                    rec
                })
                .collect();
            sig.sort();
            seen.insert(sig)
        })
        .collect();
    answers.truncate(r);
    answers
}

/// Turn one grouping over pipeline units into a [`TopKAnswer`]: pick the
/// K heaviest clusters and materialize their record sets.
fn build_answer(
    score: f64,
    clusters: Vec<Vec<usize>>,
    groups: &[FinalGroup],
    weights: &[f64],
    k: usize,
) -> TopKAnswer {
    let mut idx: Vec<usize> = (0..clusters.len()).collect();
    let cluster_weight = |c: &[usize]| -> f64 { c.iter().map(|&u| weights[u]).sum() };
    idx.sort_by(|&x, &y| {
        cluster_weight(&clusters[y])
            .total_cmp(&cluster_weight(&clusters[x]))
            .then(x.cmp(&y))
    });
    idx.truncate(k);
    let mut out_groups: Vec<AnswerGroup> = idx
        .into_iter()
        .map(|ci| {
            let mut records = Vec::new();
            let mut weight = 0.0;
            let mut rep = None;
            let mut rep_weight = f64::NEG_INFINITY;
            for &u in &clusters[ci] {
                let g = &groups[u];
                records.extend_from_slice(&g.members);
                weight += g.weight;
                if g.weight > rep_weight {
                    rep_weight = g.weight;
                    rep = Some(g.rep);
                }
            }
            AnswerGroup {
                records,
                weight,
                rep: rep.expect("clusters are non-empty"),
            }
        })
        .collect();
    out_groups.sort_by(|x, y| y.weight.total_cmp(&x.weight));
    TopKAnswer {
        score,
        groups: out_groups,
    }
}

// ---------------------------------------------------------------------------
// TopK rank query (§7.1)
// ---------------------------------------------------------------------------

/// One entry of a rank answer.
#[derive(Debug, Clone)]
pub struct RankEntry {
    /// Record indices of the group's known members.
    pub records: Vec<u32>,
    /// Certain (lower-bound) weight of the group.
    pub weight: f64,
    /// Upper bound on the weight of any final group containing it.
    pub upper_bound: f64,
    /// Representative record.
    pub rep: u32,
}

/// Result of a rank query.
#[derive(Debug, Clone)]
pub struct RankResult {
    /// Entries in rank order.
    pub entries: Vec<RankEntry>,
    /// True when the ranking is certified: every entry's weight dominates
    /// the upper bound of all later entries and of everything pruned.
    pub certified: bool,
    /// Pipeline statistics.
    pub stats: PipelineStats,
}

/// §7.1: ranked order of the K largest groups, identified by
/// representatives — no need for exact member sets, which allows extra
/// pruning of *resolved* groups.
#[derive(Debug, Clone)]
pub struct TopKRankQuery {
    /// Number of ranked groups wanted.
    pub k: usize,
    /// Thread budget for the pipeline stages.
    pub parallelism: Parallelism,
}

impl TopKRankQuery {
    /// A rank query for the K largest groups.
    pub fn new(k: usize) -> Self {
        TopKRankQuery {
            k,
            parallelism: Parallelism::auto(),
        }
    }

    /// Run the query over records held owned or by reference (the
    /// service passes its shards' records in place).
    pub fn run<R: Borrow<TokenizedRecord>>(
        &self,
        toks: &[R],
        stack: &PredicateStack,
    ) -> RankResult {
        let out = PrunedDedup::new(
            toks,
            stack,
            PipelineConfig {
                k: self.k,
                refine_iterations: REFINE_ITERATIONS,
                mode: PruningMode::Full,
                parallelism: self.parallelism,
            },
        )
        .run();
        let groups = out.groups;
        let n = groups.len();
        let reps: Vec<&TokenizedRecord> = groups
            .iter()
            .map(|g| toks[g.rep as usize].borrow())
            .collect();
        let weights: Vec<f64> = groups.iter().map(|g| g.weight).collect();
        let last_n = match stack.levels.last() {
            Some((_, n_pred)) => n_pred.as_ref(),
            None => {
                return RankResult {
                    entries: Vec::new(),
                    certified: false,
                    stats: out.stats,
                }
            }
        };
        let pr = prune_groups(
            &reps,
            &weights,
            last_n,
            out.last_lower_bound,
            REFINE_ITERATIONS,
        );
        let kept = resolved_group_pruning(
            &weights,
            &pr.upper_bounds,
            &pr.adjacency,
            out.last_lower_bound,
        );
        let mut order: Vec<u32> = kept;
        order.sort_by(|&a, &b| weights[b as usize].total_cmp(&weights[a as usize]));
        let entries: Vec<RankEntry> = order
            .iter()
            .take(self.k)
            .map(|&i| RankEntry {
                records: groups[i as usize].members.clone(),
                weight: weights[i as usize],
                upper_bound: pr.upper_bounds[i as usize],
                rep: groups[i as usize].rep,
            })
            .collect();
        // Certification: each entry's certain weight must dominate every
        // later entry's upper bound, and everything outside the answer
        // must have upper bound ≤ the K-th entry's weight.
        let mut certified = entries.len() == self.k && n >= self.k;
        if certified {
            for i in 0..entries.len() {
                for e in entries.iter().skip(i + 1) {
                    if entries[i].weight < e.upper_bound {
                        certified = false;
                    }
                }
            }
            let kth = entries.last().map_or(0.0, |e| e.weight);
            for &i in order.iter().skip(self.k) {
                if pr.upper_bounds[i as usize] > kth {
                    certified = false;
                }
            }
        }
        RankResult {
            entries,
            certified,
            stats: out.stats,
        }
    }
}

/// §7.1 resolved-group pruning.
///
/// A group is *resolved* when it has no ranking conflict with any
/// non-neighbor (`weight_j ≥ u_g` or `u_j ≤ weight_g`) and none of its
/// neighbors can build a group of weight ≥ M without it
/// (`u_g − weight_j < M`). Groups connected only to resolved groups and
/// with `u < M`... more precisely, the paper prunes any group that is
/// disconnected from every unresolved group with `u ≥ M` once resolved
/// groups are removed.
fn resolved_group_pruning(
    weights: &[f64],
    upper: &[f64],
    adjacency: &[Vec<u32>],
    m_bound: f64,
) -> Vec<u32> {
    let n = weights.len();
    let is_neighbor: Vec<std::collections::HashSet<u32>> = adjacency
        .iter()
        .map(|a| a.iter().copied().collect())
        .collect();
    let mut resolved = vec![false; n];
    for j in 0..n {
        let mut ok = true;
        for g in 0..n {
            if g == j {
                continue;
            }
            if is_neighbor[j].contains(&(g as u32)) {
                // neighbor: cannot enable a ≥M group without j
                if upper[g] - weights[j] >= m_bound {
                    ok = false;
                    break;
                }
            } else {
                // non-neighbor: no ranking conflict allowed
                if !(weights[j] >= upper[g] || upper[j] <= weights[g]) {
                    ok = false;
                    break;
                }
            }
        }
        resolved[j] = ok;
    }
    // Keep resolved groups and any group connected (ignoring resolved
    // groups) to an unresolved group with u ≥ M; also keep every
    // unresolved group with u ≥ M itself.
    (0..n as u32)
        .filter(|&g| {
            let gi = g as usize;
            if resolved[gi] {
                return true;
            }
            if upper[gi] >= m_bound {
                return true;
            }
            adjacency[gi]
                .iter()
                .any(|&h| !resolved[h as usize] && upper[h as usize] >= m_bound)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Thresholded rank query (§7.2)
// ---------------------------------------------------------------------------

/// §7.2: all groups of weight ≥ `threshold`, ranked — `M` is set to the
/// user's threshold instead of being estimated.
#[derive(Debug, Clone)]
pub struct ThresholdedRankQuery {
    /// The weight threshold `T`.
    pub threshold: f64,
    /// Thread budget for the collapse stages.
    pub parallelism: Parallelism,
}

impl ThresholdedRankQuery {
    /// A thresholded query.
    pub fn new(threshold: f64) -> Self {
        ThresholdedRankQuery {
            threshold,
            parallelism: Parallelism::auto(),
        }
    }

    /// Run the query: Algorithm 2 with `M = T` at every level and the
    /// exact prune, whose upper bounds the entries report.
    pub fn run(&self, toks: &[TokenizedRecord], stack: &PredicateStack) -> RankResult {
        let t = self.threshold;
        let (out, upper_bounds) = run_levels(
            toks,
            None,
            &stack.levels,
            self.parallelism,
            None,
            |reps, weights, n_pred| {
                let t_prune = Instant::now();
                let pr = prune_groups(reps, weights, n_pred, t, REFINE_ITERATIONS);
                LevelPrune {
                    m: 0,
                    lower_bound: t,
                    bound_time: Duration::ZERO,
                    prune_time: t_prune.elapsed(),
                    kept: pr
                        .kept
                        .iter()
                        .map(|&i| (i, pr.upper_bounds[i as usize]))
                        .collect(),
                }
            },
        );
        let ranked = || out.groups.iter().zip(&upper_bounds);
        let entries: Vec<RankEntry> = ranked()
            .filter(|(g, _)| g.weight >= t)
            .map(|(g, &upper_bound)| RankEntry {
                records: g.members.clone(),
                weight: g.weight,
                upper_bound,
                rep: g.rep,
            })
            .collect();
        // §7.2 termination test: every certain group dominates the bounds
        // of everything else.
        let kth = entries.last().map_or(t, |e| e.weight);
        let certified = ranked()
            .filter(|(g, _)| g.weight < t)
            .all(|(_, &u)| u <= kth.max(t));
        RankResult {
            entries,
            certified,
            stats: out.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_datagen::{generate_students, StudentConfig};
    use topk_predicates::student_predicates;
    use topk_records::{tokenize_dataset, FieldId};

    fn setup() -> (topk_records::Dataset, Vec<TokenizedRecord>, PredicateStack) {
        let d = generate_students(&StudentConfig {
            n_students: 50,
            n_records: 250,
            ..Default::default()
        });
        let toks = tokenize_dataset(&d);
        let stack = student_predicates(d.schema());
        (d, toks, stack)
    }

    /// A cheap deterministic scorer for tests: positive when names share
    /// most 3-grams and clean fields agree.
    fn test_scorer(a: &TokenizedRecord, b: &TokenizedRecord) -> f64 {
        let name_sim = topk_text::sim::overlap_coefficient(
            a.field(FieldId(0)).qgrams3(),
            b.field(FieldId(0)).qgrams3(),
        );
        let clean = a.field(FieldId(2)).text == b.field(FieldId(2)).text
            && a.field(FieldId(3)).text == b.field(FieldId(3)).text;
        if clean {
            name_sim - 0.45
        } else {
            -1.0
        }
    }

    #[test]
    fn topk_query_returns_k_groups() {
        let (_d, toks, stack) = setup();
        let q = TopKQuery::new(3, 2);
        let res = q.run(&toks, &stack, &test_scorer);
        assert!(!res.answers.is_empty());
        assert!(res.answers.len() <= 2);
        let best = &res.answers[0];
        assert_eq!(best.groups.len(), 3);
        for w in best.groups.windows(2) {
            assert!(w[0].weight >= w[1].weight);
        }
        // scores decrease across answers
        for w in res.answers.windows(2) {
            assert!(w[0].score >= w[1].score - 1e-9);
        }
        assert!(res.stats.final_group_count() < toks.len());
    }

    #[test]
    fn topk_answer_weights_match_members() {
        let (d, toks, stack) = setup();
        let q = TopKQuery::new(2, 1);
        let res = q.run(&toks, &stack, &test_scorer);
        let weights = d.weights();
        for g in &res.answers[0].groups {
            let sum: f64 = g.records.iter().map(|&r| weights[r as usize]).sum();
            assert!((sum - g.weight).abs() < 1e-6);
        }
    }

    #[test]
    fn rank_query_orders_by_weight() {
        let (_d, toks, stack) = setup();
        let res = TopKRankQuery::new(3).run(&toks, &stack);
        assert!(res.entries.len() <= 3);
        for w in res.entries.windows(2) {
            assert!(w[0].weight >= w[1].weight);
        }
        for e in &res.entries {
            assert!(e.upper_bound >= e.weight - 1e-9);
        }
    }

    #[test]
    fn thresholded_query_filters() {
        let (_d, toks, stack) = setup();
        let res = ThresholdedRankQuery::new(150.0).run(&toks, &stack);
        for e in &res.entries {
            assert!(e.weight >= 150.0);
        }
        for w in res.entries.windows(2) {
            assert!(w[0].weight >= w[1].weight);
        }
        // a sky-high threshold yields nothing
        let none = ThresholdedRankQuery::new(1e12).run(&toks, &stack);
        assert!(none.entries.is_empty());
    }

    #[test]
    fn rank_and_count_queries_agree_on_heavy_entities() {
        let (_d, toks, stack) = setup();
        let count = TopKQuery::new(3, 1).run(&toks, &stack, &test_scorer);
        let rank = TopKRankQuery::new(3).run(&toks, &stack);
        // The heaviest count-answer group should contain the records of
        // the top rank entry (rank entries are pre-final-clustering units,
        // so containment rather than equality).
        let top_count = &count.answers[0].groups[0];
        let top_rank = &rank.entries[0];
        let set: std::collections::HashSet<u32> = top_count.records.iter().copied().collect();
        let contained = top_rank.records.iter().filter(|r| set.contains(r)).count();
        assert!(
            contained * 2 >= top_rank.records.len(),
            "top rank entry mostly inside top count group"
        );
    }
}

#[cfg(test)]
mod thresh_tests {
    use super::*;
    use topk_predicates::student_predicates;
    use topk_records::tokenize_dataset;

    #[test]
    fn thresholded_certification_flags() {
        let d = topk_datagen::generate_students(&topk_datagen::StudentConfig {
            n_students: 40,
            n_records: 200,
            ..Default::default()
        });
        let toks = tokenize_dataset(&d);
        let stack = student_predicates(d.schema());
        // A low threshold keeps many groups; entries must all clear it
        // and be sorted regardless of certification.
        let res = ThresholdedRankQuery::new(60.0).run(&toks, &stack);
        for e in &res.entries {
            assert!(e.weight >= 60.0);
        }
        for w in res.entries.windows(2) {
            assert!(w[0].weight >= w[1].weight);
        }
        // Tiny threshold: everything qualifies; stats recorded per level.
        let res2 = ThresholdedRankQuery::new(0.1).run(&toks, &stack);
        assert!(res2.entries.len() >= res.entries.len());
        assert_eq!(res2.stats.iterations.len(), stack.len());
    }
}

#[cfg(test)]
mod sparse_path_tests {
    use super::*;
    use topk_predicates::student_predicates;
    use topk_records::{tokenize_dataset, FieldId};

    fn scorer(a: &TokenizedRecord, b: &TokenizedRecord) -> f64 {
        let name_sim = topk_text::sim::overlap_coefficient(
            a.field(FieldId(0)).qgrams3(),
            b.field(FieldId(0)).qgrams3(),
        );
        let clean = a.field(FieldId(2)).text == b.field(FieldId(2)).text
            && a.field(FieldId(3)).text == b.field(FieldId(3)).text;
        if clean {
            name_sim - 0.45
        } else {
            -1.0
        }
    }

    /// Forcing the sparse path (threshold 1) must produce the same top
    /// answer as the dense path on a moderate dataset.
    #[test]
    fn sparse_and_dense_paths_agree() {
        let d = topk_datagen::generate_students(&topk_datagen::StudentConfig {
            n_students: 60,
            n_records: 300,
            ..Default::default()
        });
        let toks = tokenize_dataset(&d);
        let stack = student_predicates(d.schema());
        let dense = TopKQuery::new(3, 1).run(&toks, &stack, &scorer);
        let mut q = TopKQuery::new(3, 1);
        q.sparse_threshold = 1; // force sparse
        let sparse = q.run(&toks, &stack, &scorer);
        let dw: Vec<f64> = dense.answers[0].groups.iter().map(|g| g.weight).collect();
        let sw: Vec<f64> = sparse.answers[0].groups.iter().map(|g| g.weight).collect();
        for (a, b) in dw.iter().zip(sw.iter()) {
            assert!((a - b).abs() < 1e-6, "dense {dw:?} vs sparse {sw:?}");
        }
    }
}
