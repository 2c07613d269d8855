//! Tracing smoke check: run one small `PruningMode::Full` count query
//! with span collection on, write the Chrome trace, and validate it.
//!
//! Shared by the `exp_timing --smoke --trace-out p` flag and the tier-1
//! test below, so `cargo test -q` fails when the trace pipeline emits
//! an empty or structurally invalid file, or when any §4–5 stage stops
//! appearing in it (span names are the contract of
//! `docs/OBSERVABILITY.md`).

use std::path::Path;

use topk_core::{Parallelism, TopKQuery};
use topk_predicates::citation_predicates;
use topk_records::tokenize_dataset;
use topk_service::Json;

/// Span names the trace of a Full-mode count query must contain —
/// every pipeline stage of Algorithm 2 plus the §5.3 answer machinery
/// (the dense path: embedding + segmentation DP).
const REQUIRED_SPANS: [&str; 8] = [
    "pipeline.run",
    "tokenize",
    "collapse",
    "lower_bound",
    "prune",
    "prune.refine",
    "embed",
    "topr_dp",
];

/// Paper-meaningful span fields the trace must carry (§4.2 lower bound,
/// §4.3 refinement passes).
const REQUIRED_FIELDS: [&str; 4] = [
    "m_lower_bound",
    "groups_pruned",
    "refine_pass",
    "pairs_compared",
];

/// Run a small traced Full-mode query, write the Chrome trace to
/// `trace_out`, then re-read and validate it. Errors describe exactly
/// what is missing or malformed.
pub fn run_timing_smoke(trace_out: &Path) -> Result<(), String> {
    topk_obs::span::set_enabled(true);
    // Discard anything an earlier in-process run left buffered.
    topk_obs::span::take_spans();

    let data = crate::default_citations(false).head(400);
    let toks = tokenize_dataset(&data);
    let stack = citation_predicates(data.schema(), &toks);
    let scorer = crate::train_scorer(&data, &toks, 11);
    let mut q = TopKQuery::new(5, 2);
    q.parallelism = Parallelism::threads(2);
    let res = q.run(&toks, &stack, &scorer);

    topk_obs::span::set_enabled(false);
    let spans = topk_obs::span::take_spans();
    if spans.is_empty() {
        return Err("tracing produced no spans".into());
    }
    std::fs::write(trace_out, topk_obs::chrome_trace(&spans))
        .map_err(|e| format!("cannot write {}: {e}", trace_out.display()))?;

    if res.answers.is_empty() {
        return Err("smoke query returned no answers".into());
    }
    validate_trace_file(trace_out)
}

/// Validate a Chrome trace file written by [`run_timing_smoke`]: JSON
/// parses, `traceEvents` is a non-empty array of complete events with
/// nonzero durations, and the required span names and fields appear.
pub fn validate_trace_file(path: &Path) -> Result<(), String> {
    let raw = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let v = topk_service::json::parse(&raw).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("trace missing `traceEvents` array")?;
    if events.is_empty() {
        return Err("trace has zero events".into());
    }
    for (i, ev) in events.iter().enumerate() {
        for key in ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"] {
            if ev.get(key).is_none() {
                return Err(format!("event {i} missing `{key}`"));
            }
        }
        let dur = ev.get("dur").and_then(Json::as_f64).unwrap_or(0.0);
        if dur <= 0.0 {
            return Err(format!("event {i} has non-positive duration {dur}"));
        }
    }
    let has_span = |name: &str| {
        events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some(name))
    };
    for name in REQUIRED_SPANS {
        if !has_span(name) {
            return Err(format!("trace missing required span `{name}`"));
        }
    }
    let has_field = |field: &str| {
        events
            .iter()
            .any(|e| e.get("args").and_then(|a| a.get(field)).is_some())
    };
    for field in REQUIRED_FIELDS {
        if !has_field(field) {
            return Err(format!("trace missing required field `{field}`"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tier-1: the end-to-end tracing path must produce a valid,
    /// stage-complete Chrome trace (the same check `exp_timing --smoke
    /// --trace-out` runs).
    #[test]
    fn traced_smoke_run_writes_valid_chrome_trace() {
        let dir = std::env::temp_dir().join("topk_bench_trace");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("timing_smoke.json");
        let _ = std::fs::remove_file(&out);
        run_timing_smoke(&out).expect("traced smoke run validates");
        // Corrupted files must be rejected, not silently accepted.
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{\"traceEvents\":[]}").unwrap();
        assert!(validate_trace_file(&bad).is_err());
        std::fs::write(&bad, "not json").unwrap();
        assert!(validate_trace_file(&bad).is_err());
    }
}
