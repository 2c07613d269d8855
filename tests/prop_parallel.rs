//! Differential property tests: the parallel pipeline must be
//! *bit-identical* to the sequential one at every thread count.
//!
//! This is the contract documented in `docs/PARALLELISM.md` — every
//! parallel stage shards work into contiguous chunks and reduces in
//! input order, so floating-point accumulation order never changes.
//! These tests exercise the whole PrunedDedup pipeline plus the final
//! TopK answers over generated datasets and compare against the
//! `threads = 1` run with exact (`to_bits`) weight equality.

use proptest::prelude::*;

use topk_core::bounds::prune_groups_fast_par;
use topk_core::{
    prune_groups_fast, Parallelism, PipelineConfig, PipelineOutcome, PrunedDedup, RankResult,
    ThresholdedRankQuery, TopKQuery, TopKRankQuery,
};
use topk_datagen::{generate_addresses, generate_citations, AddressConfig, CitationConfig};
use topk_records::{tokenize_dataset, FieldId, TokenizedRecord};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn scorer(a: &TokenizedRecord, b: &TokenizedRecord) -> f64 {
    topk_text::sim::overlap_coefficient(
        a.field(FieldId(0)).qgrams3(),
        b.field(FieldId(0)).qgrams3(),
    ) - 0.5
}

/// Assert two pipeline outcomes are identical: same groups (members,
/// reps), bit-identical weights, and the same `M` bound.
fn assert_outcomes_identical(
    seq: &PipelineOutcome,
    par: &PipelineOutcome,
    threads: usize,
) -> Result<(), String> {
    prop_assert_eq!(
        seq.groups.len(),
        par.groups.len(),
        "group count diverged at {} threads",
        threads
    );
    for (gs, gp) in seq.groups.iter().zip(&par.groups) {
        prop_assert_eq!(gs.rep, gp.rep, "group rep diverged at {} threads", threads);
        prop_assert_eq!(
            &gs.members,
            &gp.members,
            "group members diverged at {} threads",
            threads
        );
        prop_assert_eq!(
            gs.weight.to_bits(),
            gp.weight.to_bits(),
            "group weight not bit-identical at {} threads",
            threads
        );
    }
    prop_assert_eq!(
        seq.last_lower_bound.to_bits(),
        par.last_lower_bound.to_bits(),
        "M bound not bit-identical at {} threads",
        threads
    );
    Ok(())
}

/// Assert two rank answers are identical: same entries in the same
/// order (members, reps, bit-identical weights and upper bounds) and the
/// same certification.
fn assert_ranks_identical(
    seq: &RankResult,
    par: &RankResult,
    threads: usize,
) -> Result<(), String> {
    prop_assert_eq!(
        seq.entries.len(),
        par.entries.len(),
        "entry count diverged at {} threads",
        threads
    );
    for (es, ep) in seq.entries.iter().zip(&par.entries) {
        prop_assert_eq!(es.rep, ep.rep, "entry rep diverged at {} threads", threads);
        prop_assert_eq!(&es.records, &ep.records);
        prop_assert_eq!(es.weight.to_bits(), ep.weight.to_bits());
        prop_assert_eq!(
            es.upper_bound.to_bits(),
            ep.upper_bound.to_bits(),
            "upper bound not bit-identical at {} threads",
            threads
        );
    }
    prop_assert_eq!(seq.certified, par.certified);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// PrunedDedup over citation data: groups, weights, and M must match
    /// the sequential run exactly for threads ∈ {1, 2, 4}.
    #[test]
    fn pipeline_outcome_matches_sequential(seed in 0u64..300, k in 1usize..8) {
        let data = generate_citations(&CitationConfig {
            n_authors: 40,
            n_citations: 180,
            seed,
            ..Default::default()
        });
        let toks = tokenize_dataset(&data);
        let stack = topk_predicates::citation_predicates(data.schema(), &toks);

        let run = |threads: usize| {
            PrunedDedup::new(&toks, &stack, PipelineConfig {
                k,
                parallelism: Parallelism::threads(threads),
                ..Default::default()
            })
            .run()
        };
        let seq = run(1);
        for threads in THREAD_COUNTS {
            assert_outcomes_identical(&seq, &run(threads), threads)?;
        }
    }

    /// The full TopK count query (pipeline + scoring + segmentation DP)
    /// over address data must return identical answers at every thread
    /// count: same scores, same groups, bit-identical weights.
    #[test]
    fn topk_answers_match_sequential(seed in 0u64..300) {
        let data = generate_addresses(&AddressConfig {
            n_entities: 30,
            n_records: 120,
            seed,
            ..Default::default()
        });
        let toks = tokenize_dataset(&data);
        let stack = topk_predicates::address_predicates(data.schema());

        let run = |threads: usize| {
            let mut q = TopKQuery::new(3, 2);
            q.parallelism = Parallelism::threads(threads);
            q.run(&toks, &stack, &scorer)
        };
        let seq = run(1);
        for threads in THREAD_COUNTS {
            let par = run(threads);
            prop_assert_eq!(seq.answers.len(), par.answers.len());
            for (sa, pa) in seq.answers.iter().zip(&par.answers) {
                prop_assert_eq!(
                    sa.score.to_bits(),
                    pa.score.to_bits(),
                    "answer score diverged at {} threads",
                    threads
                );
                prop_assert_eq!(sa.groups.len(), pa.groups.len());
                for (gs, gp) in sa.groups.iter().zip(&pa.groups) {
                    prop_assert_eq!(gs.rep, gp.rep);
                    prop_assert_eq!(&gs.records, &gp.records);
                    prop_assert_eq!(gs.weight.to_bits(), gp.weight.to_bits());
                }
            }
            prop_assert_eq!(
                seq.stats.final_group_count(),
                par.stats.final_group_count()
            );
        }
    }

    /// The rank (§7.1) and thresholded (§7.2) queries run the same level
    /// loop as the count query — `thresh` with its own prune step — so
    /// their entries, bounds and `certified` flag must not depend on the
    /// thread count either.
    #[test]
    fn rank_and_thresh_match_sequential(seed in 0u64..300, k in 1usize..8, t in 2u32..12) {
        let data = generate_citations(&CitationConfig {
            n_authors: 40,
            n_citations: 180,
            seed,
            ..Default::default()
        });
        let toks = tokenize_dataset(&data);
        let stack = topk_predicates::citation_predicates(data.schema(), &toks);

        let rank = |threads: usize| {
            let mut q = TopKRankQuery::new(k);
            q.parallelism = Parallelism::threads(threads);
            q.run(&toks, &stack)
        };
        let thresh = |threads: usize| {
            let mut q = ThresholdedRankQuery::new(f64::from(t));
            q.parallelism = Parallelism::threads(threads);
            q.run(&toks, &stack)
        };
        let (seq_rank, seq_thresh) = (rank(1), thresh(1));
        for threads in THREAD_COUNTS {
            assert_ranks_identical(&seq_rank, &rank(threads), threads)?;
            assert_ranks_identical(&seq_thresh, &thresh(threads), threads)?;
        }
    }

    /// The counted canopy probe keeps its counters in per-thread scratch:
    /// probing one shared index from 1, 2 or 4 workers must return the
    /// same admitted candidates, in the same (ascending) order, and the
    /// prune built on them the same kept set. Records stand in for
    /// groups so that the fan-out is well above the sequential cutoff.
    #[test]
    fn canopy_probe_and_prune_match_sequential(seed in 0u64..300, m_bound in 2u32..6) {
        let data = generate_citations(&CitationConfig {
            n_authors: 50,
            n_citations: 260,
            seed,
            ..Default::default()
        });
        let toks = tokenize_dataset(&data);
        let stack = topk_predicates::citation_predicates(data.schema(), &toks);
        let n_pred = stack.levels[0].1.as_ref();
        let reps: Vec<&TokenizedRecord> = toks.iter().collect();
        let weights = vec![1.0; reps.len()];
        let n = reps.len();

        let seq_canopy = topk_predicates::NecessaryIndex::build(&reps, n_pred);
        let seq_lists: Vec<Vec<u32>> = (0..n as u32).map(|i| seq_canopy.candidates(i)).collect();
        prop_assert!(seq_lists.iter().any(|l| !l.is_empty()));
        let m_bound = f64::from(m_bound);
        let seq_kept = prune_groups_fast(&reps, &weights, n_pred, m_bound, 2);
        for threads in THREAD_COUNTS {
            let par = Parallelism::threads(threads);
            let canopy = topk_predicates::NecessaryIndex::build_par(&reps, n_pred, par);
            let lists = par.map_indices(n, |i| canopy.candidates(i as u32));
            prop_assert_eq!(&seq_lists, &lists, "candidates diverged at {} threads", threads);
            let kept = prune_groups_fast_par(&reps, &weights, n_pred, m_bound, 2, par);
            prop_assert_eq!(&seq_kept, &kept, "kept set diverged at {} threads", threads);
        }
    }
}
