#![warn(missing_docs)]

//! `topk-core` — the paper's primary contribution: efficient TopK count
//! queries over imprecise duplicates (Sarawagi, Deshpande & Kasliwal,
//! EDBT 2009).
//!
//! The entry point is [`TopKQuery`], which runs the **PrunedDedup**
//! pipeline (Algorithm 2):
//!
//! 1. *Collapse* obvious duplicates with sufficient predicates (§4.1);
//! 2. *Estimate* a lower bound `M` on the size of the K-th largest group
//!    via the clique-partition-number bound on the necessary-predicate
//!    graph (§4.2);
//! 3. *Prune* every group whose refined upper bound falls below `M`
//!    (§4.3);
//! 4. Repeat for each level of predicates, then run the final pairwise
//!    scorer and return the **R highest-scoring TopK answers** through the
//!    linear-embedding segmentation DP (§5).
//!
//! Rank-only and thresholded variants (§7) are in [`queries`].
//!
//! Steps 1-3 are one loop, written once in [`pipeline`]: it owns the
//! collapse, the member merge, the per-level statistics and the final
//! sort, and takes the level's *bound-and-prune* step from its caller.
//! [`PrunedDedup`] (and through it [`TopKQuery`] and [`TopKRankQuery`])
//! and [`IncrementalDedup::query`] pass the CPN estimate with the fast
//! prune; [`ThresholdedRankQuery`] passes `M = T` with the exact prune.
//! The loop reads records through `Borrow<TokenizedRecord>`, so a caller
//! holding them elsewhere (the service's shards) hands in references.
//!
//! # Module map
//!
//! | Module | Paper section |
//! |---|---|
//! | [`pipeline`] | Algorithm 2 (the level loop, PrunedDedup), Figure 6 ablation modes |
//! | [`bounds`] | §4.2 lower bound `M` (CPN), §4.3 iterative upper bounds |
//! | [`queries`] | §5 count query, §7.1 rank, §7.2 thresholded |
//! | [`stats`] | per-iteration `n, m, M, n′` of Figures 2-4 |
//! | [`incremental`] | evolving-feed collapse maintenance (extension) |
//! | [`dedup`] | conventional §3 batch dedup baseline |
//! | [`avg`] | TopK-average query (conclusion's "more aggregates") |
//!
//! The collapse/bound/prune hot paths fan out over a [`Parallelism`]
//! thread budget ([`PipelineConfig::parallelism`]) with bit-identical
//! results at every thread count; see `docs/PARALLELISM.md`.
//!
//! # Example
//!
//! ```
//! use topk_core::TopKQuery;
//! use topk_predicates::student_predicates;
//! use topk_records::{tokenize_dataset, FieldId, TokenizedRecord};
//!
//! // A noisy dataset with ground truth, from the generators.
//! let data = topk_datagen::generate_students(&topk_datagen::StudentConfig {
//!     n_students: 30,
//!     n_records: 150,
//!     ..Default::default()
//! });
//! let toks = tokenize_dataset(&data);
//! let stack = student_predicates(data.schema());
//!
//! // Any `PairScorer` works; closures are fine.
//! let scorer = |a: &TokenizedRecord, b: &TokenizedRecord| {
//!     topk_text::sim::overlap_coefficient(
//!         a.field(FieldId(0)).qgrams3(),
//!         b.field(FieldId(0)).qgrams3(),
//!     ) - 0.5
//! };
//!
//! let result = TopKQuery::new(3, 2).run(&toks, &stack, &scorer);
//! assert_eq!(result.answers[0].groups.len(), 3);
//! assert!(result.stats.final_group_count() < toks.len());
//! ```

// Compile the README's code blocks (the quickstart) as doctests so the
// front-page example can never rot.
#[doc = include_str!("../../../README.md")]
#[cfg(doctest)]
struct ReadmeDoctests;

pub mod avg;
pub mod bounds;
pub mod dedup;
pub mod incremental;
pub mod pipeline;
pub mod queries;
pub mod stats;

pub use avg::{AvgEntry, AvgResult, TopKAvgQuery};
pub use bounds::{
    estimate_lower_bound, estimate_lower_bound_weak, prune_groups, prune_groups_fast,
    LowerBoundResult, PruneResult,
};
pub use dedup::{deduplicate, DedupResult};
pub use incremental::{GroupSummary, IncrementalDedup, IncrementalState};
pub use pipeline::{FinalGroup, PipelineConfig, PipelineOutcome, PrunedDedup, PruningMode};
pub use queries::{
    AnswerGroup, RankEntry, RankResult, ThresholdedRankQuery, TopKAnswer, TopKQuery, TopKRankQuery,
    TopKResult,
};
pub use stats::{IterationStats, PipelineStats};
pub use topk_text::Parallelism;
