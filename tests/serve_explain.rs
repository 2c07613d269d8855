//! Byte-stability tests for EXPLAIN profiles (`docs/OBSERVABILITY.md`,
//! *EXPLAIN & profiles*).
//!
//! Everything deterministic in a profile — the shard scan/skip/empty
//! counts, the cache verdict, the approximate tier's
//! escalated-partition list — must render byte-identically for
//! identical corpus + query:
//!
//! 1. **Run over run** at every shard count from 1 to 8 (two
//!    independently built engines produce the same profile bytes).
//! 2. **Across shard counts** for the approximate tier: partition keys
//!    are shard-count-invariant because the per-shard bottom-m sketches
//!    merge to exactly the global sample, so the whole `approx` member
//!    (including `escalated_partitions`) is byte-identical at 1–8
//!    shards.
//! 3. The shard counts always reconcile: `scanned + skipped + empty ==
//!    total`, with `total` equal to the configured shard count.
//!
//! Plus the explain-off contract: a request without `"explain":true`
//! returns exactly the bytes it returned before the introspection layer
//! existed — an explained response is the plain response with one
//! `profile` member spliced in, and a stamped trace id changes nothing.

use topk_service::json::Json;
use topk_service::server::dispatch;
use topk_service::Engine;

mod support;
use support::{engine, student_rows, Rows};

fn rows(seed: u64) -> Rows {
    student_rows(60, 300, 0.9, seed)
}

/// Dispatch one request line and return the parsed response, asserting
/// it succeeded.
fn ok_response(line: &str, e: &Engine) -> Json {
    let (resp, stop) = dispatch(line, e);
    assert!(!stop, "{line} must not stop the connection");
    let v = topk_service::json::parse(&resp).expect("response parses");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    v
}

/// Dispatch an explained query and return its `profile` member.
fn profile(line: &str, e: &Engine) -> Json {
    ok_response(line, e)
        .get("profile")
        .cloned()
        .expect("explained response carries a profile")
}

/// The deterministic subset of a rendered profile: every member except
/// the wall-time ones (`stages`, `total_micros`).
fn deterministic(profile: &Json) -> String {
    [
        "query",
        "k",
        "generation",
        "cache",
        "shards",
        "groups",
        "approx",
    ]
    .iter()
    .filter_map(|key| profile.get(key).map(|v| format!("{key}:{v}")))
    .collect::<Vec<_>>()
    .join(",")
}

/// `scanned + skipped + empty == total == configured shard count`.
fn assert_shards_reconcile(profile: &Json, shards: usize) {
    let s = profile.get("shards").expect("miss profile carries shards");
    let field = |name: &str| {
        s.get(name)
            .and_then(Json::as_usize)
            .unwrap_or_else(|| panic!("shards.{name} missing: {s}"))
    };
    assert_eq!(field("total"), shards, "{s}");
    assert_eq!(
        field("scanned") + field("skipped") + field("empty"),
        field("total"),
        "shard counts must reconcile: {s}"
    );
}

#[test]
fn exact_profiles_byte_stable_run_over_run_at_every_shard_count() {
    let rows = rows(0x5EED);
    for shards in [1usize, 2, 3, 4, 8] {
        let (a, b) = (engine(shards, &rows), engine(shards, &rows));
        for line in [
            r#"{"cmd":"topk","k":5,"explain":true}"#,
            r#"{"cmd":"topr","k":5,"explain":true}"#,
        ] {
            let (pa, pb) = (profile(line, &a), profile(line, &b));
            assert_eq!(
                deterministic(&pa),
                deterministic(&pb),
                "profile differs between identical runs at {shards} shard(s)"
            );
            assert_eq!(
                pa.get("cache").and_then(Json::as_str),
                Some("miss"),
                "first query on a fresh engine: {pa}"
            );
            assert_shards_reconcile(&pa, shards);
        }
        // The repeat of an identical query is a cache hit, and a hit
        // profile carries no shard detail (nothing was scanned).
        let hit = profile(r#"{"cmd":"topk","k":5,"explain":true}"#, &a);
        assert_eq!(
            hit.get("cache").and_then(Json::as_str),
            Some("hit"),
            "{hit}"
        );
        assert!(hit.get("shards").is_none(), "{hit}");
    }
}

#[test]
fn approx_profiles_escalation_invariant_across_shard_counts() {
    let rows = rows(0x5EED);
    let mut saw_escalation = false;
    for eps in ["0.05", "0.3"] {
        let line = format!(r#"{{"cmd":"topk","k":5,"approx":{eps},"explain":true}}"#);
        let single = profile(&line, &engine(1, &rows));
        let want = single
            .get("approx")
            .unwrap_or_else(|| panic!("approx member missing: {single}"))
            .to_string();
        assert!(want.contains("\"escalated_partitions\":"), "{want}");
        assert!(want.contains("\"certified\":"), "{want}");
        saw_escalation |= !want.contains("\"escalated_partitions\":[]");
        for shards in [2usize, 3, 4, 8] {
            let p = profile(&line, &engine(shards, &rows));
            assert_eq!(
                p.get("approx").map(Json::to_string),
                Some(want.clone()),
                "approx tier (sample + escalated partitions) must be \
                 byte-identical at {shards} shard(s), eps={eps}"
            );
            assert_shards_reconcile(&p, shards);
        }
    }
    // The sweep must exercise the interesting case, not just empty
    // escalation lists.
    assert!(saw_escalation, "no epsilon escalated any partition");
}

#[test]
fn explain_off_bytes_are_unchanged_and_profiles_drain_fifo() {
    let rows = rows(0x0DD5);
    let e = engine(4, &rows);
    let (plain, _) = dispatch(r#"{"cmd":"topk","k":3}"#, &e);
    assert!(!plain.contains("\"profile\""), "{plain}");
    // A stamped trace id changes nothing about the response bytes.
    let (traced, _) = dispatch(r#"{"cmd":"topk","k":3,"trace":"t-1"}"#, &e);
    assert_eq!(plain, traced);
    // The explained response is the plain response with one `profile`
    // member spliced before the closing brace — the paper-visible
    // answer bytes (groups, weights, ranks) are untouched.
    let (explained, _) = dispatch(r#"{"cmd":"topk","k":3,"explain":true}"#, &e);
    assert!(
        explained.starts_with(&plain[..plain.len() - 1]),
        "explained response must extend the plain bytes:\n{plain}\n{explained}"
    );
    assert!(explained.contains(",\"profile\":{"), "{explained}");

    // Both explained queries above landed in the ring; `profiles`
    // drains them oldest-first, then reports empty.
    let (_, _) = dispatch(r#"{"cmd":"topr","k":2,"explain":true}"#, &e);
    let drained = ok_response(r#"{"cmd":"profiles"}"#, &e)
        .get("profiles")
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .expect("profiles array");
    assert_eq!(drained.len(), 2, "{drained:?}");
    assert_eq!(
        drained[0].get("query").and_then(Json::as_str),
        Some("topk"),
        "oldest first"
    );
    assert_eq!(drained[1].get("query").and_then(Json::as_str), Some("topr"));
    let again = ok_response(r#"{"cmd":"profiles"}"#, &e);
    assert_eq!(
        again
            .get("profiles")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(0),
        "drain empties the ring: {again}"
    );
}
