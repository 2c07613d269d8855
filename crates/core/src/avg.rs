//! TopK *average* query — an instance of the future work the paper's
//! conclusion asks for ("extending the ideas in this paper to more
//! aggregation and ranking queries on data with noisy duplicates").
//!
//! Returns the K groups with the highest average record weight among
//! groups with at least `min_support` mentions (a support floor is what
//! makes the query meaningful: without it a single lucky record wins).
//!
//! The pruning logic differs from the count query because averages are
//! not monotone under merging. Two facts make safe pruning possible:
//!
//! * the **mediant inequality**: `avg(A ∪ B) ≤ max(avg(A), avg(B))`, so
//!   an upper bound on the average of any answer group containing `c_i`
//!   is the maximum average among `c_i` and its `N`-neighbors;
//! * supports only grow under merging, so a group already holding
//!   `min_support` mentions keeps qualifying.
//!
//! The certified floor `M_avg` comes from the same CPN machinery as the
//! count query, applied to groups ordered by average: if the first `m`
//! *qualified* groups must contain `K` distinct entities, every one of
//! the K answers has average at least... not quite — merging can *raise*
//! an answer's average above its seed group's. What stays true is the
//! other direction: each of those `K` distinct entities yields an answer
//! group whose average is at least the seed's average *minus* whatever
//! lighter mentions are merged in. We therefore certify the floor
//! conservatively with each group's *minimum achievable* average over
//! its closed neighborhood (merging everything N allows), which
//! symmetric to the upper bound is `min(avg(c_i), min_j avg(c_j))` by
//! the mediant inequality's lower half.

use topk_predicates::{NecessaryIndex, NecessaryPredicate, PredicateStack};
use topk_records::TokenizedRecord;

use crate::pipeline::{FinalGroup, PipelineConfig, PrunedDedup, PruningMode};
use crate::stats::PipelineStats;
use topk_graph::{cpn_lower_bound, Graph};
use topk_text::InvertedIndex;

/// One entry of a TopK-average answer.
#[derive(Debug, Clone)]
pub struct AvgEntry {
    /// Record indices of the group's known members.
    pub records: Vec<u32>,
    /// Certain average of the group as collapsed.
    pub average: f64,
    /// Upper bound on the average of any answer group containing it.
    pub upper_bound: f64,
    /// Known support (mention count).
    pub support: usize,
    /// Representative record index.
    pub rep: u32,
}

/// Result of [`TopKAvgQuery`].
#[derive(Debug, Clone)]
pub struct AvgResult {
    /// Entries in decreasing certain-average order.
    pub entries: Vec<AvgEntry>,
    /// Certified conservative floor on the K-th answer average
    /// (0 when not certifiable).
    pub floor: f64,
    /// Pipeline statistics of the collapse stage.
    pub stats: PipelineStats,
}

/// The K highest-average groups with a minimum support.
#[derive(Debug, Clone)]
pub struct TopKAvgQuery {
    /// Number of groups wanted.
    pub k: usize,
    /// Minimum mentions per qualifying group.
    pub min_support: usize,
}

impl TopKAvgQuery {
    /// A TopK average query.
    pub fn new(k: usize, min_support: usize) -> Self {
        assert!(k >= 1 && min_support >= 1);
        TopKAvgQuery { k, min_support }
    }

    /// Run the query.
    pub fn run(&self, toks: &[TokenizedRecord], stack: &PredicateStack) -> AvgResult {
        // Collapse with every sufficient level (no count-based pruning —
        // that machinery certifies weight floors, not average floors).
        let out = PrunedDedup::new(
            toks,
            stack,
            PipelineConfig {
                k: self.k,
                mode: PruningMode::CanopyCollapse,
                ..Default::default()
            },
        )
        .run();
        let groups = out.groups;
        let n = groups.len();
        let avg = |g: &FinalGroup| g.weight / g.members.len() as f64;
        let averages: Vec<f64> = groups.iter().map(avg).collect();
        let supports: Vec<usize> = groups.iter().map(|g| g.members.len()).collect();

        let n_pred = match stack.levels.last() {
            Some((_, p)) => p.as_ref(),
            None => {
                return AvgResult {
                    entries: Vec::new(),
                    floor: 0.0,
                    stats: out.stats,
                }
            }
        };

        // Neighbor lists through the canopy index (needed for both the
        // upper bounds and the floor).
        let reps: Vec<&TokenizedRecord> = groups.iter().map(|g| &toks[g.rep as usize]).collect();
        let adjacency = neighbor_lists(&reps, n_pred);

        // Upper bound per group: max average over the closed neighborhood
        // (mediant inequality).
        let upper: Vec<f64> = (0..n)
            .map(|i| {
                adjacency[i]
                    .iter()
                    .map(|&j| averages[j as usize])
                    .fold(averages[i], f64::max)
            })
            .collect();
        // Conservative floor per group: min average over the closed
        // neighborhood (everything N allows could get merged in).
        let lower: Vec<f64> = (0..n)
            .map(|i| {
                adjacency[i]
                    .iter()
                    .map(|&j| averages[j as usize])
                    .fold(averages[i], f64::min)
            })
            .collect();

        // Certified floor: order qualified groups by their conservative
        // floor and find the smallest prefix with CPN ≥ K.
        let mut qualified: Vec<u32> = (0..n as u32)
            .filter(|&i| supports[i as usize] >= self.min_support)
            .collect();
        qualified.sort_by(|&a, &b| lower[b as usize].total_cmp(&lower[a as usize]));
        let floor = certify_floor(&qualified, &lower, &reps, n_pred, self.k);

        // Prune: anything whose upper bound is below the floor, or that
        // cannot reach min_support even by merging its whole
        // neighborhood.
        let mut kept: Vec<u32> = (0..n as u32)
            .filter(|&i| {
                let iu = i as usize;
                let max_support: usize = supports[iu]
                    + adjacency[iu]
                        .iter()
                        .map(|&j| supports[j as usize])
                        .sum::<usize>();
                upper[iu] > floor && max_support >= self.min_support
            })
            .collect();
        kept.sort_by(|&a, &b| averages[b as usize].total_cmp(&averages[a as usize]));
        let entries: Vec<AvgEntry> = kept
            .iter()
            .filter(|&&i| supports[i as usize] >= self.min_support)
            .take(self.k)
            .map(|&i| AvgEntry {
                records: groups[i as usize].members.clone(),
                average: averages[i as usize],
                upper_bound: upper[i as usize],
                support: supports[i as usize],
                rep: groups[i as usize].rep,
            })
            .collect();
        AvgResult {
            entries,
            floor,
            stats: out.stats,
        }
    }
}

/// Verified `N`-neighbor lists over reps.
fn neighbor_lists(reps: &[&TokenizedRecord], pred: &dyn NecessaryPredicate) -> Vec<Vec<u32>> {
    let canopy = NecessaryIndex::build(reps, pred);
    (0..reps.len() as u32)
        .map(|i| canopy.neighbors(i))
        .collect()
}

/// Smallest certified floor: build the `N`-graph over the first `m`
/// qualified groups (ordered by conservative floor) until the CPN lower
/// bound reaches `k`; the `m`-th group's floor is then a certified lower
/// bound on the K-th answer's average.
fn certify_floor(
    qualified: &[u32],
    lower: &[f64],
    reps: &[&TokenizedRecord],
    pred: &dyn NecessaryPredicate,
    k: usize,
) -> f64 {
    let mut graph = Graph::new(0);
    let mut index = InvertedIndex::new();
    let mut bound = 0usize;
    for (pos, &gi) in qualified.iter().enumerate() {
        let tokens = pred.candidate_tokens(reps[gi as usize]);
        let candidates = index.candidates(&tokens, pred.min_common_tokens(), None);
        let v = graph.add_vertex();
        let mut connected = false;
        for c in candidates {
            if pred.matches(reps[gi as usize], reps[qualified[c as usize] as usize]) {
                graph.add_edge(v, c);
                connected = true;
            }
        }
        index.insert(pos as u32, &tokens);
        if connected {
            bound = cpn_lower_bound(&graph).max(bound);
        } else {
            bound += 1;
        }
        if bound >= k {
            return lower[gi as usize];
        }
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_predicates::student_predicates;
    use topk_records::tokenize_dataset;

    fn setup() -> (topk_records::Dataset, Vec<TokenizedRecord>, PredicateStack) {
        let d = topk_datagen::generate_students(&topk_datagen::StudentConfig {
            n_students: 60,
            n_records: 400,
            ..Default::default()
        });
        let toks = tokenize_dataset(&d);
        let stack = student_predicates(d.schema());
        (d, toks, stack)
    }

    #[test]
    fn entries_respect_support_and_order() {
        let (_d, toks, stack) = setup();
        let res = TopKAvgQuery::new(5, 3).run(&toks, &stack);
        assert!(!res.entries.is_empty());
        for e in &res.entries {
            assert!(e.support >= 3);
            assert!(e.upper_bound >= e.average - 1e-9);
            let sum_avg = e.average * e.support as f64;
            assert!(sum_avg.is_finite());
        }
        for w in res.entries.windows(2) {
            assert!(w[0].average >= w[1].average - 1e-9);
        }
    }

    #[test]
    fn averages_match_member_weights() {
        let (d, toks, stack) = setup();
        let weights = d.weights();
        let res = TopKAvgQuery::new(3, 2).run(&toks, &stack);
        for e in &res.entries {
            let s: f64 = e.records.iter().map(|&r| weights[r as usize]).sum();
            let avg = s / e.records.len() as f64;
            assert!((avg - e.average).abs() < 1e-6);
        }
    }

    #[test]
    fn top_entry_is_a_high_scoring_student() {
        // The best students average in the 80-100 band; the query's top
        // entry must land there.
        let (_d, toks, stack) = setup();
        let res = TopKAvgQuery::new(1, 3).run(&toks, &stack);
        assert!(
            res.entries[0].average > 60.0,
            "top average {:.1} suspiciously low",
            res.entries[0].average
        );
    }

    #[test]
    fn min_support_filters_small_groups() {
        let (_d, toks, stack) = setup();
        let strict = TopKAvgQuery::new(5, 6).run(&toks, &stack);
        for e in &strict.entries {
            assert!(e.support >= 6);
        }
    }
}
