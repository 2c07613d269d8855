//! The PrunedDedup pipeline — Algorithm 2 of the paper.

use std::borrow::Borrow;
use std::time::{Duration, Instant};

use topk_predicates::{collapse_par, NecessaryPredicate, PredicateStack, SufficientPredicate};
use topk_records::TokenizedRecord;
use topk_text::Parallelism;

use crate::bounds::{estimate_lower_bound, prune_groups_fast_par};
use crate::stats::{IterationStats, PipelineStats};

/// Which optimizations to apply — the four configurations compared in the
/// paper's Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PruningMode {
    /// No canopy, no collapse, no pruning: the final step scores the full
    /// Cartesian product ("None" in Figure 6).
    NoOptimization,
    /// Necessary predicates used as canopies in the final join, but no
    /// collapsing or pruning ("Canopy").
    CanopyOnly,
    /// Canopies plus sufficient-predicate collapsing, no K-specific
    /// pruning ("Canopy+Collapse").
    CanopyCollapse,
    /// Full Algorithm 2 ("Canopy+Collapse+Prune").
    #[default]
    Full,
}

/// Configuration for [`PrunedDedup`].
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// `K` of the TopK query.
    pub k: usize,
    /// Upper-bound refinement passes in the prune step (§4.3; the paper
    /// found two passes ≈ 2× extra pruning, more passes negligible).
    pub refine_iterations: usize,
    /// Optimization level (Figure 6 ablations).
    pub mode: PruningMode,
    /// Thread budget for the collapse and prune hot paths. Results are
    /// identical for every setting (see `docs/PARALLELISM.md`); this only
    /// trades wall-clock for cores.
    pub parallelism: Parallelism,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            k: 10,
            refine_iterations: REFINE_ITERATIONS,
            mode: PruningMode::Full,
            parallelism: Parallelism::auto(),
        }
    }
}

/// A group of records surviving the pipeline.
#[derive(Debug, Clone)]
pub struct FinalGroup {
    /// Record indices (into the tokenized input) in the group.
    pub members: Vec<u32>,
    /// Record index representing the group.
    pub rep: u32,
    /// Total weight.
    pub weight: f64,
}

/// Output of [`PrunedDedup::run`].
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// Surviving groups in decreasing weight order.
    pub groups: Vec<FinalGroup>,
    /// The `M` bound from the last executed iteration (0 when pruning was
    /// disabled).
    pub last_lower_bound: f64,
    /// Per-iteration statistics.
    pub stats: PipelineStats,
}

/// Upper-bound refinement passes every query runs the prune with (§4.3:
/// two passes captured almost all the benefit in the paper's experiments).
pub(crate) const REFINE_ITERATIONS: usize = 2;

/// Algorithm 2: iterated collapse → lower bound → prune.
///
/// `R` is how the caller holds its records — owned (`&[TokenizedRecord]`)
/// or by reference (`&[&TokenizedRecord]`); the pipeline only reads them.
pub struct PrunedDedup<'a, R = TokenizedRecord> {
    toks: &'a [R],
    stack: &'a PredicateStack,
    cfg: PipelineConfig,
}

impl<'a, R: Borrow<TokenizedRecord>> PrunedDedup<'a, R> {
    /// Set up the pipeline over tokenized records and a predicate stack.
    pub fn new(toks: &'a [R], stack: &'a PredicateStack, cfg: PipelineConfig) -> Self {
        assert!(cfg.k >= 1, "K must be at least 1");
        PrunedDedup { toks, stack, cfg }
    }

    /// Run the pipeline.
    pub fn run(&self) -> PipelineOutcome {
        let cfg = &self.cfg;
        let par = cfg.parallelism;
        let mut root_sp = topk_obs::Span::enter("pipeline.run");
        root_sp.record("records", self.toks.len());
        root_sp.record("k", cfg.k);
        root_sp.record("threads", par.get());
        if root_sp.is_recording() {
            root_sp.record("mode", format!("{:?}", cfg.mode));
        }
        // Figure 6's ablations: without collapse no level runs, without
        // prune every level keeps all of its groups.
        let levels: &[Level] = match cfg.mode {
            PruningMode::NoOptimization | PruningMode::CanopyOnly => &[],
            PruningMode::CanopyCollapse | PruningMode::Full => &self.stack.levels,
        };
        let mut cpn = cpn_bound_and_prune(cfg.k, cfg.refine_iterations, par);
        let (out, _) = run_levels(
            self.toks,
            None,
            levels,
            par,
            Some(cfg.k),
            |reps, weights, n_pred| match cfg.mode {
                PruningMode::Full => cpn(reps, weights, n_pred),
                _ => LevelPrune::keep_all(reps.len()),
            },
        );
        root_sp.record("groups_out", out.groups.len());
        root_sp.record("iterations", out.stats.iterations.len());
        out
    }
}

/// What one level's bound-and-prune step decided about the level's
/// collapsed groups — the part of Algorithm 2 that varies by query.
pub(crate) struct LevelPrune {
    /// Prefix length the bound was certified at (0 when `M` is given).
    pub m: usize,
    /// The `M` the level pruned against.
    pub lower_bound: f64,
    pub bound_time: Duration,
    pub prune_time: Duration,
    /// Survivors in input order: (index into the level's groups, upper
    /// bound on the weight of any answer group containing it — infinite
    /// where the step does not report one).
    pub kept: Vec<(u32, f64)>,
}

impl LevelPrune {
    /// No pruning: every one of the level's `n` groups survives.
    fn keep_all(n: usize) -> Self {
        LevelPrune {
            m: 0,
            lower_bound: 0.0,
            bound_time: Duration::ZERO,
            prune_time: Duration::ZERO,
            kept: (0..n as u32).map(|i| (i, f64::INFINITY)).collect(),
        }
    }
}

/// The TopK step (§4.2 + §4.3): estimate `M` by the CPN bound, then the
/// fast prune against it.
pub(crate) fn cpn_bound_and_prune(
    k: usize,
    refine_iterations: usize,
    par: Parallelism,
) -> impl FnMut(&[&TokenizedRecord], &[f64], &dyn NecessaryPredicate) -> LevelPrune {
    move |reps, weights, n_pred| {
        let t_bound = Instant::now();
        let lb = estimate_lower_bound(reps, weights, n_pred, k);
        let bound_time = t_bound.elapsed();
        let t_prune = Instant::now();
        let kept = prune_groups_fast_par(
            reps,
            weights,
            n_pred,
            lb.lower_bound,
            refine_iterations,
            par,
        );
        LevelPrune {
            m: lb.m,
            lower_bound: lb.lower_bound,
            bound_time,
            prune_time: t_prune.elapsed(),
            kept: kept.into_iter().map(|i| (i, f64::INFINITY)).collect(),
        }
    }
}

/// Each group's representative record and weight — what the predicates
/// and the bounds read of a group.
fn reps_and_weights<'r, R: Borrow<TokenizedRecord>>(
    recs: &'r [R],
    units: &[FinalGroup],
) -> (Vec<&'r TokenizedRecord>, Vec<f64>) {
    let reps = units.iter().map(|u| recs[u.rep as usize].borrow());
    (reps.collect(), units.iter().map(|u| u.weight).collect())
}

/// One `(S, N)` level of a [`PredicateStack`].
type Level = (Box<dyn SufficientPredicate>, Box<dyn NecessaryPredicate>);

/// Algorithm 2's level loop, the one copy every query runs: per
/// predicate level, collapse the current groups' representatives with
/// the sufficient predicate, merge their member lists, and let
/// `bound_and_prune` decide which collapsed groups go on.
///
/// The groups start as one per record, or as `collapsed` when the caller
/// already holds the first level's collapse (heaviest first, as
/// [`collapse_par`] returns them). With `stop_at = Some(k)` the loop ends
/// once at most `k` groups remain (Algorithm 2 line 7).
///
/// Returns the outcome and, per surviving group, the upper bound the last
/// level's step reported (the group's own weight when no level ran).
pub(crate) fn run_levels<R: Borrow<TokenizedRecord>>(
    recs: &[R],
    collapsed: Option<Vec<FinalGroup>>,
    levels: &[Level],
    par: Parallelism,
    stop_at: Option<usize>,
    mut bound_and_prune: impl FnMut(&[&TokenizedRecord], &[f64], &dyn NecessaryPredicate) -> LevelPrune,
) -> (PipelineOutcome, Vec<f64>) {
    let start = Instant::now();
    let d = recs.len();
    let pct = |n: usize| {
        if d == 0 {
            0.0
        } else {
            100.0 * n as f64 / d as f64
        }
    };
    let mut stats = PipelineStats {
        original_records: d,
        threads: par.get(),
        ..Default::default()
    };
    let first_is_collapsed = collapsed.is_some();
    let mut units = collapsed.unwrap_or_else(|| {
        (0..d as u32)
            .map(|i| FinalGroup {
                members: vec![i],
                rep: i,
                weight: recs[i as usize].borrow().weight(),
            })
            .collect()
    });
    let mut upper_bounds: Vec<f64> = units.iter().map(|u| u.weight).collect();
    let mut last_lower_bound = 0.0;

    for (level, (s_pred, n_pred)) in levels.iter().enumerate() {
        let t_collapse = Instant::now();
        if level > 0 || !first_is_collapsed {
            let (reps, weights) = reps_and_weights(recs, &units);
            units = collapse_par(&reps, &weights, s_pred.as_ref(), par)
                .into_iter()
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
        }
        let collapse_time = t_collapse.elapsed();
        let n_after_collapse = units.len();

        let (reps, weights) = reps_and_weights(recs, &units);
        let pruned = bound_and_prune(&reps, &weights, n_pred.as_ref());
        let mut slots: Vec<Option<FinalGroup>> = units.into_iter().map(Some).collect();
        units = pruned
            .kept
            .iter()
            .map(|&(i, _)| slots[i as usize].take().expect("kept ids are distinct"))
            .collect();
        upper_bounds = pruned.kept.iter().map(|&(_, u)| u).collect();
        last_lower_bound = pruned.lower_bound;
        let n_after_prune = units.len();
        topk_obs::debug!(
            "level {level}: collapse -> {n_after_collapse} groups in {collapse_time:?}, \
             M={:.3} (m={}) in {:?}, prune -> {n_after_prune} groups in {:?}",
            pruned.lower_bound,
            pruned.m,
            pruned.bound_time,
            pruned.prune_time
        );
        stats.iterations.push(IterationStats {
            level,
            n_after_collapse,
            pct_after_collapse: pct(n_after_collapse),
            m: pruned.m,
            lower_bound: pruned.lower_bound,
            n_after_prune,
            pct_after_prune: pct(n_after_prune),
            collapse_time,
            bound_time: pruned.bound_time,
            prune_time: pruned.prune_time,
        });
        if stop_at.is_some_and(|k| units.len() <= k) {
            break; // Algorithm 2 line 7: exact answer already found
        }
    }

    let mut ranked: Vec<(FinalGroup, f64)> = units.into_iter().zip(upper_bounds).collect();
    ranked.sort_by(|(a, _), (b, _)| b.weight.total_cmp(&a.weight).then(a.rep.cmp(&b.rep)));
    let (groups, upper_bounds) = ranked.into_iter().unzip();
    stats.total_time = start.elapsed();
    let outcome = PipelineOutcome {
        groups,
        last_lower_bound,
        stats,
    };
    (outcome, upper_bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_datagen::{generate_students, StudentConfig};
    use topk_predicates::student_predicates;
    use topk_records::tokenize_dataset;

    fn setup() -> (Vec<TokenizedRecord>, PredicateStack) {
        let d = generate_students(&StudentConfig {
            n_students: 60,
            n_records: 300,
            ..Default::default()
        });
        let toks = tokenize_dataset(&d);
        let stack = student_predicates(d.schema());
        (toks, stack)
    }

    #[test]
    fn full_pipeline_shrinks_data() {
        let (toks, stack) = setup();
        let out = PrunedDedup::new(
            &toks,
            &stack,
            PipelineConfig {
                k: 3,
                ..Default::default()
            },
        )
        .run();
        assert!(out.groups.len() < toks.len());
        assert!(out.groups.len() >= 3);
        assert_eq!(out.stats.original_records, 300);
        assert!(!out.stats.iterations.is_empty());
        assert!(out.last_lower_bound > 0.0);
        // groups sorted by decreasing weight
        for w in out.groups.windows(2) {
            assert!(w[0].weight >= w[1].weight);
        }
        // members partition a subset of the records (no duplicates)
        let mut all: Vec<u32> = out.groups.iter().flat_map(|g| g.members.clone()).collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before);
    }

    #[test]
    fn collapse_only_keeps_everything() {
        let (toks, stack) = setup();
        let out = PrunedDedup::new(
            &toks,
            &stack,
            PipelineConfig {
                k: 3,
                mode: PruningMode::CanopyCollapse,
                ..Default::default()
            },
        )
        .run();
        // no pruning: total membership covers all records
        let total: usize = out.groups.iter().map(|g| g.members.len()).sum();
        assert_eq!(total, toks.len());
    }

    #[test]
    fn no_optimization_returns_singletons() {
        let (toks, stack) = setup();
        let out = PrunedDedup::new(
            &toks,
            &stack,
            PipelineConfig {
                k: 3,
                mode: PruningMode::NoOptimization,
                ..Default::default()
            },
        )
        .run();
        assert_eq!(out.groups.len(), toks.len());
        assert!(out.stats.iterations.is_empty());
    }

    #[test]
    fn pruned_set_contains_true_heavy_entities() {
        // The records of the K heaviest true entities must survive the
        // pipeline inside some group: collapse only merges true duplicates
        // (S is sound on this generator) and pruning only removes groups
        // whose upper bound is below the certified lower bound.
        let d = generate_students(&StudentConfig {
            n_students: 40,
            n_records: 250,
            ..Default::default()
        });
        let toks = tokenize_dataset(&d);
        let stack = student_predicates(d.schema());
        let k = 3;
        let out = PrunedDedup::new(
            &toks,
            &stack,
            PipelineConfig {
                k,
                ..Default::default()
            },
        )
        .run();
        let truth = d.truth().unwrap();
        let weights = d.weights();
        // True entity weights, decreasing.
        let mut entity_weight: std::collections::HashMap<u32, f64> = Default::default();
        for (i, &l) in truth.labels().iter().enumerate() {
            *entity_weight.entry(l).or_insert(0.0) += weights[i];
        }
        let mut ew: Vec<(u32, f64)> = entity_weight.into_iter().collect();
        ew.sort_by(|a, b| b.1.total_cmp(&a.1));
        let surviving: std::collections::HashSet<u32> = out
            .groups
            .iter()
            .flat_map(|g| g.members.iter().copied())
            .collect();
        for &(entity, _) in ew.iter().take(k) {
            let entity_records: Vec<u32> = truth
                .labels()
                .iter()
                .enumerate()
                .filter(|(_, &l)| l == entity)
                .map(|(i, _)| i as u32)
                .collect();
            let kept = entity_records
                .iter()
                .filter(|r| surviving.contains(r))
                .count();
            // The bulk of each top entity must survive (some individual
            // mentions may sit in small split-off groups below M).
            assert!(
                kept * 2 >= entity_records.len(),
                "top entity {entity} lost too many records: {kept}/{}",
                entity_records.len()
            );
        }
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use topk_predicates::student_predicates;
    use topk_records::{tokenize_dataset, Dataset, Record, Schema};

    fn student_schema() -> Schema {
        Schema::new(vec!["name", "birthdate", "class", "school", "paper"])
    }

    fn student(name: &str, marks: f64) -> Record {
        Record::with_weight(
            vec![
                name.into(),
                "19990101".into(),
                "c1".into(),
                "sch1".into(),
                "p1".into(),
            ],
            marks,
        )
    }

    #[test]
    fn single_record_dataset() {
        let d = Dataset::new(student_schema(), vec![student("solo kid", 90.0)]);
        let toks = tokenize_dataset(&d);
        let stack = student_predicates(d.schema());
        let out = PrunedDedup::new(&toks, &stack, PipelineConfig::default()).run();
        assert_eq!(out.groups.len(), 1);
        assert_eq!(out.groups[0].weight, 90.0);
    }

    #[test]
    fn all_identical_records_collapse_to_one() {
        let d = Dataset::new(
            student_schema(),
            (0..20).map(|_| student("same kid", 5.0)).collect(),
        );
        let toks = tokenize_dataset(&d);
        let stack = student_predicates(d.schema());
        let out = PrunedDedup::new(
            &toks,
            &stack,
            PipelineConfig {
                k: 1,
                ..Default::default()
            },
        )
        .run();
        assert_eq!(out.groups.len(), 1, "exact duplicates must fully collapse");
        assert_eq!(out.groups[0].weight, 100.0);
        assert_eq!(out.groups[0].members.len(), 20);
    }

    #[test]
    fn k_larger_than_entity_count() {
        let d = Dataset::new(
            student_schema(),
            vec![student("kid a", 1.0), student("kid b", 2.0)],
        );
        let toks = tokenize_dataset(&d);
        let stack = student_predicates(d.schema());
        let out = PrunedDedup::new(
            &toks,
            &stack,
            PipelineConfig {
                k: 50,
                ..Default::default()
            },
        )
        .run();
        // Cannot certify 50 distinct groups: nothing may be pruned.
        assert_eq!(out.groups.len(), 2);
        assert_eq!(out.last_lower_bound, 0.0);
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::new(student_schema(), vec![]);
        let toks = tokenize_dataset(&d);
        let stack = student_predicates(d.schema());
        let out = PrunedDedup::new(&toks, &stack, PipelineConfig::default()).run();
        assert!(out.groups.is_empty());
        assert_eq!(out.stats.original_records, 0);
    }
}
