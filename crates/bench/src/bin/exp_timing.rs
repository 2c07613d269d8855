//! Experiment: running-time comparison — regenerates the paper's
//! Figure 6 (time vs K for None / Canopy / Canopy+Collapse /
//! Canopy+Collapse+Prune on a citation subset).
//!
//! ```sh
//! cargo run -p topk-bench --release --bin exp_timing -- [subset_size] [--with-none] \
//!     [--threads 1,2,4,8] [--trace-out trace.json] [--smoke]
//! ```
//!
//! All four configurations share the same final step (score candidate
//! pairs with the learned P, transitively close positive pairs, take the
//! K largest groups), so the comparison isolates the candidate-generation
//! and pruning work, as in the paper. The Cartesian "None" configuration
//! is quadratic; by default it runs on a 3,000-record sample and reports
//! a quadratic extrapolation (the paper itself had to cut Figure 6 down
//! to 45k records because "the Canopy method took too long").
//!
//! `--threads` takes a comma-separated list of worker-thread counts
//! (0 = auto-detect) and appends a per-stage thread-scaling table —
//! tokenize / collapse / bound / prune / score wall-clock at K=10 for
//! each count. Results are bit-identical across counts, so the table
//! measures pure scheduling overhead and speedup.
//!
//! `--trace-out trace.json` writes a Chrome `trace_event` file of every
//! pipeline span (open in Perfetto; see `docs/OBSERVABILITY.md`).
//! `--smoke` skips the Figure 6 sweep and instead runs the ≤5 s traced
//! validation pass (`topk_bench::timing_smoke`), exiting non-zero if
//! the trace is empty, malformed, or missing a pipeline stage —
//! `--trace-out` then names the validated file (default
//! `/tmp/topk_timing_smoke.json`).

use std::time::Instant;

use topk_bench::{train_scorer, LearnedScorer, Table};
use topk_cluster::PairScorer;
use topk_core::{Parallelism, PipelineConfig, PrunedDedup, PruningMode};
use topk_graph::UnionFind;
use topk_predicates::{citation_predicates, PredicateStack};
use topk_records::{tokenize_dataset, tokenize_dataset_par, Dataset, TokenizedRecord};

const KS: [usize; 5] = [1, 10, 100, 500, 1000];

/// Final step shared by all configurations: score canopy pairs among the
/// surviving groups, transitively close positives, return the K heaviest
/// cluster weights.
fn finish(
    toks: &[TokenizedRecord],
    groups: &[topk_core::FinalGroup],
    stack: &PredicateStack,
    scorer: &LearnedScorer,
    k: usize,
    use_canopy: bool,
) -> Vec<f64> {
    let n = groups.len();
    let reps: Vec<&TokenizedRecord> = groups.iter().map(|g| &toks[g.rep as usize]).collect();
    let mut uf = UnionFind::new(n);
    if use_canopy {
        let (_, n_pred) = stack.levels.last().expect("stack has levels");
        let mut index = topk_text::InvertedIndex::new();
        let token_sets: Vec<_> = reps.iter().map(|r| n_pred.candidate_tokens(r)).collect();
        for (i, ts) in token_sets.iter().enumerate() {
            index.insert(i as u32, ts);
        }
        for i in 0..n {
            for j in index.candidates(&token_sets[i], n_pred.min_common_tokens(), Some(i as u32)) {
                let j = j as usize;
                if j > i && n_pred.matches(reps[i], reps[j]) && scorer.score(reps[i], reps[j]) > 0.0
                {
                    uf.union(i as u32, j as u32);
                }
            }
        }
    } else {
        for i in 0..n {
            for j in (i + 1)..n {
                if scorer.score(reps[i], reps[j]) > 0.0 {
                    uf.union(i as u32, j as u32);
                }
            }
        }
    }
    let mut weights: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
    for (i, g) in groups.iter().enumerate() {
        *weights.entry(uf.find(i as u32)).or_insert(0.0) += g.weight;
    }
    let mut ws: Vec<f64> = weights.into_values().collect();
    ws.sort_by(|a, b| b.total_cmp(a));
    ws.truncate(k);
    ws
}

fn timed(
    toks: &[TokenizedRecord],
    stack: &PredicateStack,
    scorer: &LearnedScorer,
    k: usize,
    mode: PruningMode,
    par: Parallelism,
) -> f64 {
    let t0 = Instant::now();
    let out = PrunedDedup::new(
        toks,
        stack,
        PipelineConfig {
            k,
            mode,
            parallelism: par,
            ..Default::default()
        },
    )
    .run();
    let use_canopy = mode != PruningMode::NoOptimization;
    let _top = finish(toks, &out.groups, stack, scorer, k, use_canopy);
    t0.elapsed().as_secs_f64()
}

/// Per-stage wall-clock of one full-pipeline run (K=10) at a given
/// thread count, for the thread-scaling table.
struct StageTimes {
    tokenize: f64,
    collapse: f64,
    bound: f64,
    prune: f64,
    score: f64,
    total: f64,
}

fn staged(
    data: &Dataset,
    stack: &PredicateStack,
    scorer: &LearnedScorer,
    par: Parallelism,
) -> StageTimes {
    let t0 = Instant::now();
    let toks = tokenize_dataset_par(data, par);
    let tokenize = t0.elapsed().as_secs_f64();
    let out = PrunedDedup::new(
        &toks,
        stack,
        PipelineConfig {
            k: 10,
            mode: PruningMode::Full,
            parallelism: par,
            ..Default::default()
        },
    )
    .run();
    let sum = |f: fn(&topk_core::IterationStats) -> std::time::Duration| -> f64 {
        out.stats
            .iterations
            .iter()
            .map(|it| f(it).as_secs_f64())
            .sum()
    };
    let t1 = Instant::now();
    let _top = finish(&toks, &out.groups, stack, scorer, 10, true);
    StageTimes {
        tokenize,
        collapse: sum(|it| it.collapse_time),
        bound: sum(|it| it.bound_time),
        prune: sum(|it| it.prune_time),
        score: t1.elapsed().as_secs_f64(),
        total: t0.elapsed().as_secs_f64(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let with_none = args.iter().any(|a| a == "--with-none");
    let smoke = args.iter().any(|a| a == "--smoke");
    let thread_list: Vec<usize> = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.split(',')
                .map(|s| s.trim().parse().expect("--threads takes e.g. 1,2,4,8"))
                .collect()
        })
        .unwrap_or_default();
    let trace_out: Option<std::path::PathBuf> =
        args.iter().position(|a| a == "--trace-out").map(|i| {
            args.get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .expect("--trace-out needs a path")
                .into()
        });
    let flags_with_value = ["--threads", "--trace-out"];
    let subset: usize = args
        .iter()
        .enumerate()
        .find(|(i, a)| {
            !a.starts_with("--") && (*i == 0 || !flags_with_value.contains(&args[i - 1].as_str()))
        })
        .and_then(|(_, a)| a.parse().ok())
        .unwrap_or(20_000);

    if smoke {
        let out = trace_out.unwrap_or_else(|| std::env::temp_dir().join("topk_timing_smoke.json"));
        match topk_bench::timing_smoke::run_timing_smoke(&out) {
            Ok(()) => {
                println!("smoke OK: valid stage-complete trace at {}", out.display())
            }
            Err(e) => {
                topk_obs::error!("smoke FAILED: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if trace_out.is_some() {
        topk_obs::span::set_enabled(true);
        topk_obs::span::take_spans();
    }
    // Figure 6 runs at the first requested thread count (auto when
    // --threads is absent).
    let par = Parallelism::threads(thread_list.first().copied().unwrap_or(0));

    let data = topk_bench::default_citations(false).head(subset);
    println!(
        "Figure 6 reproduction on {} citation records (paper used a 45k subset)",
        data.len()
    );
    let toks = tokenize_dataset(&data);
    let stack = citation_predicates(data.schema(), &toks);
    let scorer = train_scorer(&data, &toks, 11);

    let mut table = Table::new(vec![
        "K",
        "Canopy (s)",
        "Canopy+Collapse (s)",
        "Canopy+Collapse+Prune (s)",
    ]);
    for k in KS {
        let canopy = timed(&toks, &stack, &scorer, k, PruningMode::CanopyOnly, par);
        let collapse = timed(&toks, &stack, &scorer, k, PruningMode::CanopyCollapse, par);
        let full = timed(&toks, &stack, &scorer, k, PruningMode::Full, par);
        table.row(vec![
            k.to_string(),
            format!("{canopy:.2}"),
            format!("{collapse:.2}"),
            format!("{full:.2}"),
        ]);
        println!(
            "K={k}: canopy {canopy:.2}s, +collapse {collapse:.2}s, +prune {full:.2}s \
             (speedup over canopy: {:.1}x)",
            canopy / full.max(1e-9)
        );
    }
    println!("\n{table}");

    if with_none {
        // The Cartesian baseline, measured on a small sample and
        // extrapolated quadratically (its cost is pair-dominated).
        let sample = data.head(3_000);
        let toks_s = tokenize_dataset(&sample);
        let stack_s = citation_predicates(sample.schema(), &toks_s);
        let t = timed(
            &toks_s,
            &stack_s,
            &scorer,
            10,
            PruningMode::NoOptimization,
            par,
        );
        let scale = (data.len() as f64 / sample.len() as f64).powi(2);
        println!(
            "\n'None' (full Cartesian product): {t:.2}s on {} records, \
             ~{:.0}s extrapolated to {} records",
            sample.len(),
            t * scale,
            data.len()
        );
    }

    if thread_list.len() > 1 {
        println!(
            "\nThread scaling (full pipeline, K=10, {} records; \
             {} core(s) detected):",
            data.len(),
            Parallelism::auto().get()
        );
        let mut scaling = Table::new(vec![
            "threads",
            "tokenize (s)",
            "collapse (s)",
            "bound (s)",
            "prune (s)",
            "score (s)",
            "total (s)",
            "speedup",
        ]);
        let mut base_total = None;
        for &t in &thread_list {
            let p = Parallelism::threads(t);
            let st = staged(&data, &stack, &scorer, p);
            let base = *base_total.get_or_insert(st.total);
            scaling.row(vec![
                format!("{}{}", p.get(), if t == 0 { " (auto)" } else { "" }),
                format!("{:.3}", st.tokenize),
                format!("{:.3}", st.collapse),
                format!("{:.3}", st.bound),
                format!("{:.3}", st.prune),
                format!("{:.3}", st.score),
                format!("{:.3}", st.total),
                format!("{:.2}x", base / st.total.max(1e-9)),
            ]);
        }
        println!("{scaling}");
    }

    if let Some(out) = &trace_out {
        topk_obs::span::set_enabled(false);
        let spans = topk_obs::span::take_spans();
        match std::fs::write(out, topk_obs::chrome_trace(&spans)) {
            Ok(()) => println!("wrote {} spans to {}", spans.len(), out.display()),
            Err(e) => {
                topk_obs::error!("cannot write trace to {}: {e}", out.display());
                std::process::exit(1);
            }
        }
    }
}
