//! Whole-dataset deduplication — the conventional batch operation the
//! paper's TopK pipeline is an alternative to (§3's three-step recipe:
//! canopy filter, pairwise scoring, clustering).
//!
//! Provided for completeness and as the baseline the TopK machinery is
//! measured against: collapse obvious duplicates with the sufficient
//! predicates, generate candidate pairs through the last necessary
//! predicate's canopy, score them with `P`, and cluster each positive
//! component (exactly where feasible, greedily above the exact solver's
//! limits).

use topk_cluster::{exact_correlation_clustering, PairScorer, PairScores};
use topk_predicates::PredicateStack;
use topk_records::{Partition, TokenizedRecord};

use crate::pipeline::{PipelineConfig, PrunedDedup, PruningMode};
use crate::queries::canopy_scores;

/// Result of [`deduplicate`].
#[derive(Debug, Clone)]
pub struct DedupResult {
    /// Entity partition over the input records.
    pub partition: Partition,
    /// True when every clustered component was solved provably optimally.
    pub exact: bool,
}

/// Deduplicate a whole dataset (no K-pruning).
///
/// Canopy pairs are scored with `scorer`; every non-canopy pair defaults
/// to `non_canopy_score` (must be negative). Components of the positive
/// graph are clustered independently with the exact correlation
/// clustering solver, falling back to greedy + local search (and
/// reporting `exact = false`) on oversized components.
pub fn deduplicate(
    toks: &[TokenizedRecord],
    stack: &PredicateStack,
    scorer: &dyn PairScorer,
    non_canopy_score: f64,
) -> DedupResult {
    let n_records = toks.len();
    if n_records == 0 {
        return DedupResult {
            partition: Partition::from_labels(Vec::new()),
            exact: true,
        };
    }
    // Collapse with all sufficient levels, no pruning.
    let cfg = PipelineConfig {
        k: 1,
        mode: PruningMode::CanopyCollapse,
        ..Default::default()
    };
    let par = cfg.parallelism;
    let groups = PrunedDedup::new(toks, stack, cfg).run().groups;
    let n = groups.len();
    let reps: Vec<&TokenizedRecord> = groups.iter().map(|g| &toks[g.rep as usize]).collect();
    let weights: Vec<f64> = groups.iter().map(|g| g.weight).collect();

    // Score canopy pairs sparsely.
    let last_n = stack.levels.last().map(|(_, n_pred)| n_pred.as_ref());
    let ss = canopy_scores(&reps, &weights, last_n, scorer, non_canopy_score, par);

    // Cluster each positive component exactly (where feasible).
    let mut group_labels = vec![0u32; n];
    let mut next_label = 0u32;
    let mut all_exact = true;
    for comp in ss.positive_components() {
        if comp.len() == 1 {
            group_labels[comp[0] as usize] = next_label;
            next_label += 1;
            continue;
        }
        let dense: PairScores = ss.densify(&comp);
        let res = exact_correlation_clustering(&dense);
        all_exact &= res.exact;
        let base = next_label;
        let mut max_local = 0;
        for (k, &item) in comp.iter().enumerate() {
            let l = res.partition.label(k);
            group_labels[item as usize] = base + l;
            max_local = max_local.max(l);
        }
        next_label = base + max_local + 1;
    }

    // Expand group labels back to records.
    let mut labels = vec![0u32; n_records];
    for (gi, g) in groups.iter().enumerate() {
        for &m in &g.members {
            labels[m as usize] = group_labels[gi];
        }
    }
    DedupResult {
        partition: Partition::from_labels(labels),
        exact: all_exact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_predicates::student_predicates;
    use topk_records::{pairwise_f1, tokenize_dataset, FieldId};

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
    fn recovers_ground_truth_on_students() {
        let d = topk_datagen::generate_students(&topk_datagen::StudentConfig {
            n_students: 50,
            n_records: 250,
            ..Default::default()
        });
        let toks = tokenize_dataset(&d);
        let stack = student_predicates(d.schema());
        let res = deduplicate(&toks, &stack, &scorer, -1.0);
        assert_eq!(res.partition.len(), toks.len());
        let f1 = pairwise_f1(&res.partition, d.truth().unwrap()).f1;
        assert!(f1 > 0.9, "dedup F1 vs truth: {f1:.3}");
    }

    #[test]
    fn empty_input() {
        let d = topk_datagen::generate_students(&topk_datagen::StudentConfig {
            n_students: 5,
            n_records: 20,
            ..Default::default()
        });
        let stack = student_predicates(d.schema());
        let res = deduplicate(&[], &stack, &scorer, -1.0);
        assert!(res.partition.is_empty());
        assert!(res.exact);
    }

    #[test]
    fn consistent_with_topk_query_top_group() {
        let d = topk_datagen::generate_students(&topk_datagen::StudentConfig {
            n_students: 40,
            n_records: 200,
            ..Default::default()
        });
        let toks = tokenize_dataset(&d);
        let stack = student_predicates(d.schema());
        let dedup = deduplicate(&toks, &stack, &scorer, -1.0);
        let topk = crate::TopKQuery::new(1, 1).run(&toks, &stack, &scorer);
        // The top group's weight from the TopK query should match the
        // heaviest entity weight in the full dedup.
        let weights = d.weights();
        let dedup_top = dedup
            .partition
            .groups()
            .iter()
            .map(|g| g.iter().map(|&i| weights[i]).sum::<f64>())
            .fold(0.0f64, f64::max);
        let topk_top = topk.answers[0].groups[0].weight;
        assert!(
            (dedup_top - topk_top).abs() < 1e-6,
            "dedup {dedup_top} vs topk {topk_top}"
        );
    }
}
