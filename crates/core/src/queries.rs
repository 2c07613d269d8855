//! Query types: TopK count (§5), TopK rank (§7.1), thresholded rank
//! (§7.2).

use topk_cluster::{
    agglomerate, frontier_topr, greedy_embedding, segment_topk, segment_topk_sparse, Linkage,
    PairScorer, PairScores, SegmentConfig, SparseScores,
};
use topk_predicates::{collapse_par, NecessaryIndex, PredicateStack};
use topk_records::TokenizedRecord;
use topk_text::Parallelism;

use crate::bounds::prune_groups;
use crate::pipeline::{FinalGroup, PipelineConfig, PrunedDedup, PruningMode};
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

/// Which §5 machinery produces the R answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnswerMethod {
    /// Linear embedding + segmentation DP (§5.3) — the paper's primary
    /// method; its grouping space strictly contains the frontier space.
    #[default]
    Segmentation,
    /// Hierarchical grouping: average-link dendrogram + frontier
    /// enumeration (§5.2). Provided for comparison and for callers that
    /// already maintain a hierarchy.
    HierarchyFrontier,
}

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
    /// Cap on segment length in the DP (see
    /// [`SegmentConfig::max_segment_len`]).
    pub max_segment_len: usize,
    /// Score assigned (scaled by group weights) to pairs failing the last
    /// necessary predicate — Algorithm 2 line 9 applies `P` only to
    /// canopy-surviving pairs; the rest are certain non-duplicates.
    pub non_canopy_score: f64,
    /// Safety cap on the number of groups entering the final clustering;
    /// the heaviest groups are kept.
    pub max_final_items: usize,
    /// Above this many surviving groups the final step switches from the
    /// dense n x n score matrix to the sparse component-wise path
    /// (canopy pairs only + per-component segmentation; see
    /// `topk_cluster::sparse`).
    pub sparse_threshold: usize,
    /// Pruning configuration.
    pub refine_iterations: usize,
    /// Optimization mode (Figure 6 ablations).
    pub mode: PruningMode,
    /// Which §5 machinery produces the answers.
    pub method: AnswerMethod,
    /// Thread budget for the pipeline and the final scoring pass;
    /// results are identical for every setting.
    pub parallelism: Parallelism,
}

impl TopKQuery {
    /// A query with the paper's defaults.
    pub fn new(k: usize, r: usize) -> Self {
        TopKQuery {
            k,
            r,
            alpha: 0.6,
            max_segment_len: 256,
            non_canopy_score: -1.0,
            max_final_items: 50_000,
            sparse_threshold: 2_000,
            refine_iterations: 2,
            mode: PruningMode::Full,
            method: AnswerMethod::Segmentation,
            parallelism: Parallelism::auto(),
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
                refine_iterations: self.refine_iterations,
                mode: self.mode,
                parallelism: self.parallelism,
            },
        )
        .run();
        let mut groups = out.groups;
        groups.truncate(self.max_final_items);
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
    let (alpha, max_segment_len) = (q.alpha, q.max_segment_len);
    let (non_canopy_score, method) = (q.non_canopy_score, q.method);
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
    let spare_r = r.saturating_mul(3).max(r);

    // Large surviving sets take the sparse component-wise path: score
    // only canopy pairs (retrieved through the necessary predicate's
    // candidate index), default everything else to the non-canopy rate.
    if n > q.sparse_threshold && method == AnswerMethod::Segmentation {
        let mut ss = SparseScores::new(weights.clone(), non_canopy_score.min(-1e-9));
        if let Some(n_pred) = last_n {
            let canopy = NecessaryIndex::build_par(&reps, n_pred, q.parallelism);
            // Score canopy pairs in parallel (row-sharded, read-only
            // probes), then insert sequentially in row order so the
            // sparse matrix is built identically for every thread count.
            let scored = q.parallelism.map_indices(n, |i| {
                canopy
                    .candidates(i as u32)
                    .into_iter()
                    .map(|j| j as usize)
                    .filter(|&j| j > i && n_pred.matches(reps[i], reps[j]))
                    .map(|j| (j, scorer.score(reps[i], reps[j]) * weights[i] * weights[j]))
                    .collect::<Vec<(usize, f64)>>()
            });
            for (i, row) in scored.into_iter().enumerate() {
                for (j, s) in row {
                    ss.insert(i, j, s);
                }
            }
        }
        let cfg = SegmentConfig {
            k,
            r: spare_r,
            max_segment_len,
        };
        let sparse_answers = segment_topk_sparse(&ss, &cfg, alpha, 2048);
        let candidates: Vec<(f64, Vec<Vec<usize>>)> = sparse_answers
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
                    non_canopy_score
                };
                (i, j, s * weights[i] * weights[j])
            })
            .collect::<Vec<(usize, usize, f64)>>()
    });
    let pairs: Vec<(usize, usize, f64)> = rows.into_iter().flatten().collect();
    let ps = PairScores::from_pairs(n, &pairs);
    // Candidate groupings: (score, clusters of unit indices).
    let candidates: Vec<(f64, Vec<Vec<usize>>)> = match method {
        AnswerMethod::Segmentation => {
            let order = greedy_embedding(&ps, alpha);
            let permuted = ps.permute(&order);
            let cfg = SegmentConfig {
                k,
                r: spare_r,
                max_segment_len,
            };
            segment_topk(&permuted, &cfg)
                .into_iter()
                .map(|a| {
                    let clusters = a
                        .segments
                        .iter()
                        .map(|&(s, e)| (s..e).map(|pos| order[pos] as usize).collect())
                        .collect();
                    (a.score, clusters)
                })
                .collect()
        }
        AnswerMethod::HierarchyFrontier => {
            let dendrogram = agglomerate(&ps, Linkage::Average);
            frontier_topr(&dendrogram, &ps, spare_r)
                .into_iter()
                .map(|(score, partition)| (score, partition.groups()))
                .collect()
        }
    };
    dedup_answers(candidates, groups, &weights, k, r)
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
    /// Upper-bound refinement passes.
    pub refine_iterations: usize,
    /// Thread budget for the pipeline stages.
    pub parallelism: Parallelism,
}

impl TopKRankQuery {
    /// A rank query for the K largest groups.
    pub fn new(k: usize) -> Self {
        TopKRankQuery {
            k,
            refine_iterations: 2,
            parallelism: Parallelism::auto(),
        }
    }

    /// Run the query.
    pub fn run(&self, toks: &[TokenizedRecord], stack: &PredicateStack) -> RankResult {
        let out = PrunedDedup::new(
            toks,
            stack,
            PipelineConfig {
                k: self.k,
                refine_iterations: self.refine_iterations,
                mode: PruningMode::Full,
                parallelism: self.parallelism,
            },
        )
        .run();
        let groups = out.groups;
        let n = groups.len();
        let reps: Vec<&TokenizedRecord> = groups.iter().map(|g| &toks[g.rep as usize]).collect();
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
            self.refine_iterations,
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
    /// Upper-bound refinement passes.
    pub refine_iterations: usize,
    /// Thread budget for the collapse stages.
    pub parallelism: Parallelism,
}

impl ThresholdedRankQuery {
    /// A thresholded query.
    pub fn new(threshold: f64) -> Self {
        ThresholdedRankQuery {
            threshold,
            refine_iterations: 2,
            parallelism: Parallelism::auto(),
        }
    }

    /// Run the query: Algorithm 2 with `M = T` at every level.
    pub fn run(&self, toks: &[TokenizedRecord], stack: &PredicateStack) -> RankResult {
        let start = std::time::Instant::now();
        let d = toks.len();
        let mut stats = PipelineStats {
            original_records: d,
            threads: self.parallelism.get(),
            ..Default::default()
        };
        let mut units: Vec<FinalGroup> = (0..d as u32)
            .map(|i| FinalGroup {
                members: vec![i],
                rep: i,
                weight: toks[i as usize].weight(),
            })
            .collect();
        let mut last_bounds: Option<crate::bounds::PruneResult> = None;
        for (level, (s_pred, n_pred)) in stack.levels.iter().enumerate() {
            let t0 = std::time::Instant::now();
            let reps: Vec<&TokenizedRecord> = units.iter().map(|u| &toks[u.rep as usize]).collect();
            let weights: Vec<f64> = units.iter().map(|u| u.weight).collect();
            let collapsed = collapse_par(&reps, &weights, s_pred.as_ref(), self.parallelism);
            let next_units: Vec<FinalGroup> = collapsed
                .iter()
                .map(|g| {
                    let mut members = Vec::new();
                    for &u in &g.members {
                        members.extend_from_slice(&units[u as usize].members);
                    }
                    FinalGroup {
                        members,
                        rep: units[g.rep as usize].rep,
                        weight: g.weight,
                    }
                })
                .collect();
            let collapse_time = t0.elapsed();
            let n_after_collapse = next_units.len();
            let t2 = std::time::Instant::now();
            let reps: Vec<&TokenizedRecord> =
                next_units.iter().map(|u| &toks[u.rep as usize]).collect();
            let weights: Vec<f64> = next_units.iter().map(|u| u.weight).collect();
            let pr = prune_groups(
                &reps,
                &weights,
                n_pred.as_ref(),
                self.threshold,
                self.refine_iterations,
            );
            let prune_time = t2.elapsed();
            let kept: Vec<FinalGroup> = pr
                .kept
                .iter()
                .map(|&i| next_units[i as usize].clone())
                .collect();
            let pruned_bounds: Vec<f64> = pr
                .kept
                .iter()
                .map(|&i| pr.upper_bounds[i as usize])
                .collect();
            let adjacency_kept = reindex_adjacency(&pr.kept, &pr.adjacency);
            stats.iterations.push(crate::stats::IterationStats {
                level,
                n_after_collapse,
                pct_after_collapse: pct(n_after_collapse, d),
                m: 0,
                lower_bound: self.threshold,
                n_after_prune: kept.len(),
                pct_after_prune: pct(kept.len(), d),
                collapse_time,
                bound_time: std::time::Duration::ZERO,
                prune_time,
            });
            last_bounds = Some(crate::bounds::PruneResult {
                kept: (0..kept.len() as u32).collect(),
                upper_bounds: pruned_bounds,
                adjacency: adjacency_kept,
            });
            units = kept;
        }
        stats.total_time = start.elapsed();

        let mut order: Vec<usize> = (0..units.len()).collect();
        order.sort_by(|&a, &b| units[b].weight.total_cmp(&units[a].weight));
        let entries: Vec<RankEntry> = order
            .iter()
            .filter(|&&i| units[i].weight >= self.threshold)
            .map(|&i| RankEntry {
                records: units[i].members.clone(),
                weight: units[i].weight,
                upper_bound: last_bounds
                    .as_ref()
                    .map_or(units[i].weight, |b| b.upper_bounds[i]),
                rep: units[i].rep,
            })
            .collect();
        // §7.2 termination test: every certain group dominates the bounds
        // of everything else.
        let kth = entries.last().map(|e| e.weight).unwrap_or(self.threshold);
        let certified = entries.iter().all(|e| e.weight >= self.threshold)
            && order
                .iter()
                .filter(|&&i| units[i].weight < self.threshold)
                .all(|&i| {
                    last_bounds
                        .as_ref()
                        .map_or(true, |b| b.upper_bounds[i] <= kth.max(self.threshold))
                });
        RankResult {
            entries,
            certified,
            stats,
        }
    }
}

fn reindex_adjacency(kept: &[u32], adjacency: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let mut new_id = std::collections::HashMap::new();
    for (new, &old) in kept.iter().enumerate() {
        new_id.insert(old, new as u32);
    }
    kept.iter()
        .map(|&old| {
            adjacency[old as usize]
                .iter()
                .filter_map(|o| new_id.get(o).copied())
                .collect()
        })
        .collect()
}

fn pct(n: usize, d: usize) -> f64 {
    if d == 0 {
        0.0
    } else {
        100.0 * n as f64 / d as f64
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
mod method_tests {
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

    #[test]
    fn frontier_method_agrees_with_segmentation_on_top_groups() {
        let d = topk_datagen::generate_students(&topk_datagen::StudentConfig {
            n_students: 60,
            n_records: 300,
            ..Default::default()
        });
        let toks = tokenize_dataset(&d);
        let stack = student_predicates(d.schema());
        let seg = TopKQuery::new(3, 1).run(&toks, &stack, &scorer);
        let mut q = TopKQuery::new(3, 1);
        q.method = AnswerMethod::HierarchyFrontier;
        let frontier = q.run(&toks, &stack, &scorer);
        assert_eq!(frontier.answers[0].groups.len(), 3);
        // §5.3: segmentation's grouping space contains the frontier space,
        // so its best answer scores at least as high.
        assert!(
            seg.answers[0].score >= frontier.answers[0].score - 1e-6,
            "seg {} < frontier {}",
            seg.answers[0].score,
            frontier.answers[0].score
        );
        // On this clean workload both should find the same top group.
        let w_seg = seg.answers[0].groups[0].weight;
        let w_fr = frontier.answers[0].groups[0].weight;
        assert!((w_seg - w_fr).abs() < 1e-6, "{w_seg} vs {w_fr}");
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
