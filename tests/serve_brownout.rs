//! Differential test for brownout degradation (docs/ROBUSTNESS.md,
//! *Overload control*).
//!
//! Asserts the contract that makes brownout safe to ship: a degraded
//! answer is not a novel answer. When memory pressure forces an exact
//! `topk`/`topr` down to the approximate tier, the response must be
//! **byte-identical** to what an explicit `approx` query at the same ε
//! returns — modulo the appended `"degraded":true` marker — and that
//! must hold at every shard count (1, 2, 3, 8), because the byte-level
//! shard invariance is the repo's core invariant and brownout rides the
//! same cache key as explicit approx.
//!
//! Also pins the hysteresis: after pressure clears, the engine keeps
//! degrading for `EXIT_STREAK - 1` more evaluations before exact
//! answers resume, and the resumed exact answer matches an unpressured
//! reference byte for byte.

use std::sync::atomic::Ordering;

use topk_service::overload::{EPSILON_LIGHT, EXIT_STREAK};
use topk_service::server::dispatch;
use topk_service::{Engine, EngineConfig, Metrics};

mod support;
use support::{engine_config, ingest_chunked, student_rows, watchdog, Rows};

fn rows() -> Rows {
    student_rows(40, 200, 0.9, 0xB20)
}

fn engine(shards: usize, budget: u64, rows: &[(Vec<String>, f64)]) -> Engine {
    let e = Engine::new(EngineConfig {
        memory_budget_bytes: budget,
        ..engine_config(shards)
    })
    .expect("engine");
    ingest_chunked(&e, rows);
    e
}

/// The resident-byte estimate of this corpus, probed on an unlimited
/// engine. `record_bytes` is deliberately deterministic across shard
/// layouts, so one probe prices every shard count.
fn resident_bytes(rows: &[(Vec<String>, f64)]) -> u64 {
    engine(1, 0, rows).overload().total_bytes()
}

/// A budget the corpus *fits* (every ingest admitted) but *pressures*:
/// resident lands between the 80% high watermark and 100%.
fn pressuring_budget(resident: u64) -> u64 {
    resident + resident / 8
}

#[test]
fn degraded_answers_are_byte_identical_to_explicit_approx_at_every_shard_count() {
    let done = watchdog(90);
    let rows = rows();
    let budget = pressuring_budget(resident_bytes(&rows));
    // Reference: an unpressured single-shard engine answering the same
    // queries with *explicit* approx at the brownout ε.
    let reference = engine(1, 0, &rows);
    let approx_line = format!(r#"{{"cmd":"topk","k":5,"approx":{EPSILON_LIGHT}}}"#);
    let (want, _) = dispatch(&approx_line, &reference);
    let approx_topr = format!(r#"{{"cmd":"topr","k":5,"approx":{EPSILON_LIGHT}}}"#);
    let (want_topr, _) = dispatch(&approx_topr, &reference);
    assert!(
        !want.contains(r#""degraded""#),
        "explicit approx must not be marked degraded: {want}"
    );

    for shards in [1usize, 2, 3, 8] {
        let pressured = engine(shards, budget, &rows);
        assert!(
            pressured.overload().memory_pressured(),
            "shards={shards}: corpus must land past the high watermark \
             (resident {} of budget {budget})",
            pressured.overload().total_bytes()
        );
        let (got, _) = dispatch(r#"{"cmd":"topk","k":5}"#, &pressured);
        assert!(
            got.contains(r#""degraded":true"#),
            "shards={shards}: pressured exact query must degrade: {got}"
        );
        assert_eq!(
            got.replacen(r#","degraded":true"#, "", 1),
            want,
            "shards={shards}: degraded topk must be byte-identical to explicit approx"
        );
        let (got_topr, _) = dispatch(r#"{"cmd":"topr","k":5}"#, &pressured);
        assert_eq!(
            got_topr.replacen(r#","degraded":true"#, "", 1),
            want_topr,
            "shards={shards}: degraded topr must be byte-identical to explicit approx"
        );
        assert!(
            Metrics::get(&pressured.metrics.degraded_queries) >= 2,
            "shards={shards}: degraded queries must be counted"
        );
        assert!(
            Metrics::get(&pressured.metrics.brownout_entries) >= 1,
            "shards={shards}: the brownout entry edge must be counted"
        );
    }
    done.store(true, Ordering::SeqCst);
}

#[test]
fn exact_answers_resume_after_pressure_clears_with_hysteresis() {
    let done = watchdog(90);
    let rows = rows();
    let budget = pressuring_budget(resident_bytes(&rows));
    let reference = engine(1, 0, &rows);
    let (want_exact, _) = dispatch(r#"{"cmd":"topk","k":5}"#, &reference);

    for shards in [1usize, 2, 8] {
        let e = engine(shards, budget, &rows);
        let (first, _) = dispatch(r#"{"cmd":"topk","k":5}"#, &e);
        assert!(first.contains(r#""degraded":true"#), "{first}");

        // Pressure clears (the restore/install accounting path): the
        // engine must hold the degraded tier for EXIT_STREAK - 1 more
        // evaluations before flipping back, so a flapping signal cannot
        // thrash the cache between tiers.
        e.overload().reset(&vec![0; shards]);
        for i in 1..EXIT_STREAK {
            let (held, _) = dispatch(r#"{"cmd":"topk","k":5}"#, &e);
            assert!(
                held.contains(r#""degraded":true"#),
                "shards={shards}: calm evaluation {i} of {EXIT_STREAK} must still degrade: {held}"
            );
        }
        let (resumed, _) = dispatch(r#"{"cmd":"topk","k":5}"#, &e);
        assert!(
            !resumed.contains(r#""degraded""#),
            "shards={shards}: exact answers must resume after the calm streak: {resumed}"
        );
        assert_eq!(
            resumed, want_exact,
            "shards={shards}: the resumed exact answer must match an unpressured reference"
        );
        assert!(
            Metrics::get(&e.metrics.brownout_exits) >= 1,
            "shards={shards}: the brownout exit edge must be counted"
        );
    }
    done.store(true, Ordering::SeqCst);
}
