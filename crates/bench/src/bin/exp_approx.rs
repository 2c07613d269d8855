//! Experiment: approximate top-k (bottom-m sampling + confidence
//! intervals + exact escalation, `crates/approx`) against the exact
//! incremental collapse, sweeping the relative-error target ε.
//!
//! ```sh
//! cargo run -p topk-bench --release --bin exp_approx -- \
//!     [n_records] [--k K] [--smoke]
//! ```
//!
//! Generates a heavily skewed student corpus (Zipf exponent 1.1, so the
//! head groups every top-k query cares about are densely sampled), runs
//! the exact collapse once as the baseline, then for each ε runs the
//! full approximate path the CLI and engine use: build the bottom-m
//! sketch, collapse only the sample, compute per-group confidence
//! intervals, escalate the partitions whose interval overlaps the
//! K-boundary, and merge. Reports wall-clock speedup, whether the
//! approximate top-k matches the exact one rank for rank, mean relative
//! error of the surviving estimates, and the escalation count.
//!
//! `--smoke` runs a ≤2 s configuration and exits non-zero if the
//! approximate top-k disagrees with the exact one.

use std::time::Instant;

use topk_approx::{approx_topk, sample_size};
use topk_bench::approx_smoke::{exact_topk, mean_rel_err, topk_matches};
use topk_bench::Table;
use topk_records::tokenize_dataset;

fn main() {
    let mut smoke = false;
    let mut k = 10usize;
    let mut n_records = 100_000usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--k" => {
                k = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--k needs a number")
            }
            other => n_records = other.parse().expect("n_records must be a number"),
        }
    }
    if smoke {
        n_records = 4_000;
    }
    let data = topk_datagen::generate_students(&topk_datagen::StudentConfig {
        n_students: (n_records / 5).max(50),
        n_records,
        zipf_exponent: 1.1,
        ..Default::default()
    });
    let toks = tokenize_dataset(&data);
    let field = data.schema().field_id("name").expect("student name field");
    let stack = topk_service::generic_stack(&toks, field, 30, 0.6);
    let s_pred = stack.levels[0].0.as_ref();
    println!(
        "approx top-k on {} skewed student records (K={k}, Zipf 1.1)",
        toks.len()
    );

    let t0 = Instant::now();
    let exact = exact_topk(&toks, s_pred, k);
    let exact_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "exact collapse: {exact_ms:.0} ms, {} top groups",
        exact.len()
    );

    let sweep: &[f64] = if smoke {
        &[0.1]
    } else {
        &[0.02, 0.05, 0.1, 0.2]
    };
    let mut table = Table::new(vec![
        "epsilon",
        "sample m",
        "exact (ms)",
        "approx (ms)",
        "speedup",
        "escalated",
        "topk match",
        "mean rel err",
    ]);
    let mut all_matched = true;
    for &eps in sweep {
        let t0 = Instant::now();
        let ans = approx_topk(&toks, field, s_pred, k, eps);
        let approx_ms = t0.elapsed().as_secs_f64() * 1e3;
        let matched = topk_matches(&exact, &ans.top, &toks, field);
        let err = mean_rel_err(&exact, &ans.top);
        table.row(vec![
            format!("{eps}"),
            sample_size(eps).to_string(),
            format!("{exact_ms:.0}"),
            format!("{approx_ms:.0}"),
            format!("{:.1}x", exact_ms / approx_ms),
            ans.escalated_partitions.len().to_string(),
            matched.to_string(),
            format!("{err:.4}"),
        ]);
        all_matched &= matched;
    }
    println!("\n{table}");

    if smoke {
        if !all_matched {
            topk_obs::error!("smoke FAILED: approximate top-{k} disagrees with exact");
            std::process::exit(1);
        }
        println!("smoke OK: approximate top-{k} matches exact with escalation on");
    }
}
