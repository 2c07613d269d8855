//! Shared helpers for the experiment binaries
//! (paper §6 — every table and figure has a regenerating binary under
//! `src/bin/`).
//!
//! * [`datasets`] — the default generated workloads standing in for the
//!   paper's proprietary data (§6.1): Citations / Students / Addresses
//!   at configurable scale, plus the four small labeled accuracy
//!   datasets of Table 1.
//! * [`scorers`] — trains the paper's learned pairwise classifier `P`
//!   (§5.1, logistic regression over string-similarity features) on
//!   generator ground truth.
//! * [`table`] — aligned-column text tables for the experiment output,
//!   in the layout of the paper's Figures 2-4.
//!
//! * [`faults`] — fault injection for the server (slow-loris, truncated
//!   frames, garbage bytes, connection floods, simulated `kill -9` with
//!   journal recovery); drives `exp_chaos` and
//!   `tests/serve_faults.rs` (fault matrix: docs/ROBUSTNESS.md).
//! * [`timing_smoke`] — traced Full-mode smoke run validating the
//!   Chrome trace output end to end (used by `exp_timing --smoke
//!   --trace-out` and the tier-1 test flow).
//! * [`approx_smoke`] — exact-vs-approximate top-k differential (the
//!   sampled estimator of `crates/approx`); drives `exp_approx` and its
//!   tier-1 smoke test.
//!
//! Binaries: `exp_pruning` (Figures 2-4), `exp_timing` (Figure 6 and
//! the thread-scaling table — see `docs/PARALLELISM.md`), `exp_accuracy`
//! (Table 1, Figure 7), `exp_blocking`, `exp_scaling`, `exp_quality`,
//! `exp_approx`, `exp_chaos` (extensions). See `EXPERIMENTS.md` for
//! measured-vs-paper numbers; speed claims come from `benchmark/`
//! (`bash benchmark/run.sh`), not from this crate.

#![warn(missing_docs)]

pub mod approx_smoke;
pub mod datasets;
pub mod faults;
pub mod scorers;
pub mod table;
pub mod timing_smoke;

pub use datasets::{accuracy_suite, default_addresses, default_citations, default_students};
pub use scorers::{train_scorer, LearnedScorer};
pub use table::Table;
