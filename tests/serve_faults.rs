//! Fault-injection suite for the resident server (fault matrix:
//! docs/ROBUSTNESS.md).
//!
//! Every scenario injects a fault on the wire against a real loopback
//! [`TestServer`] and then asserts the two robustness invariants:
//! (1) availability — a well-behaved client gets correct answers during
//! and after the fault; (2) durability — after a simulated `kill -9`,
//! journal replay reproduces the surviving ingests byte-identically.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use topk_bench::faults::{
    chaos_deadline_storm, chaos_journal_replay, chaos_memory_pressure, chaos_retry, chaos_shed,
    disconnect_mid_response, flood, send_line_raw, send_truncated, slow_loris, tight_config,
    TestServer,
};
use topk_service::{JournalSet, Metrics, ServerConfig};

mod support;
use support::watchdog;

#[test]
fn slow_loris_writer_is_deadlined_and_server_stays_up() {
    watchdog(90);
    let ts = TestServer::spawn(tight_config(), None).unwrap();
    // 20 bytes x 50 ms ≈ 1 s of dribbling against a 400 ms read
    // deadline: the server must answer with the timeout envelope (or
    // cut us off) rather than buffer forever.
    let result = slow_loris(&ts.addr, r#"{"cmd":"ping"}"#, Duration::from_millis(50));
    match result {
        Ok(resp) => assert!(resp.contains(r#""code":"timeout""#), "{resp}"),
        Err(e) => assert!(e.contains("closed") || e.contains("read"), "{e}"),
    }
    assert!(
        Metrics::get(&ts.engine.metrics.server_timeouts) >= 1,
        "timeout counter must record the loris"
    );
    // Availability: a fast client is unaffected.
    ts.client().unwrap().ping().unwrap();
    ts.shutdown().unwrap();
}

#[test]
fn truncated_frames_and_garbage_do_not_take_the_server_down() {
    watchdog(90);
    let ts = TestServer::spawn(tight_config(), None).unwrap();
    // Truncated frame: half a JSON object, then a hard close.
    send_truncated(&ts.addr, br#"{"cmd":"ingest","batch":[{"fi"#).unwrap();
    // Garbage bytes with a newline get the structured bad_json envelope.
    let resp = send_line_raw(&ts.addr, &[0xde, 0xad, 0xbe, 0xef, b'{', b'~']).unwrap();
    assert!(resp.contains(r#""code":"bad_json""#), "{resp}");
    // Binary garbage without a newline, then close.
    send_truncated(&ts.addr, &[0u8; 512]).unwrap();
    // The server still answers correct queries afterwards.
    let mut c = ts.client().unwrap();
    c.ingest_batch(&[(vec!["ada lovelace".into()], 1.0)])
        .unwrap();
    let top = c.topk(1).unwrap();
    assert!(top.to_string().contains(r#""rank":1"#), "{top:?}");
    ts.shutdown().unwrap();
}

#[test]
fn a_field_that_is_not_utf8_is_refused_not_rewritten() {
    use std::io::{BufRead, BufReader, Write};
    watchdog(90);
    let ts = TestServer::spawn(tight_config(), None).unwrap();
    let mut c = ts.client().unwrap();
    c.ingest_batch(&[(vec!["ada lovelace".into()], 1.0)])
        .unwrap();
    let stream = std::net::TcpStream::connect(&ts.addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut exchange = |request: &[u8]| {
        (&stream).write_all(request).unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response
    };
    // "café society" in Latin-1: 0xE9 is not UTF-8. Replacing it with
    // U+FFFD would ack, journal and serve back a record nobody sent.
    let resp = exchange(b"{\"cmd\":\"ingest\",\"fields\":[\"caf\xe9 society\"]}\n");
    assert!(resp.contains(r#""code":"bad_json""#), "{resp}");
    let records = |stats: topk_service::Json| stats.get("records").unwrap().as_usize();
    assert_eq!(records(c.stats().unwrap()), Some(1), "nothing was ingested");
    // The connection survives, and the same text in UTF-8 goes in.
    let resp = exchange("{\"cmd\":\"ingest\",\"fields\":[\"caf\u{e9} society\"]}\n".as_bytes());
    assert!(resp.contains(r#""ok":true"#), "{resp}");
    assert_eq!(records(c.stats().unwrap()), Some(2));
    let top = c.topk(5).unwrap().to_string();
    assert!(top.contains("caf\u{e9} society"), "{top}");
    assert!(!top.contains('\u{fffd}'), "{top}");
    ts.shutdown().unwrap();
}

/// One request line of nothing but `[` (or `{"a":`) used to recurse the
/// parser once per bracket on the connection thread until its stack
/// overflowed, which aborts the process: no envelope, no server, the next
/// `connect` refused. 20 000 brackets are far under any request cap.
#[test]
fn deep_nesting_gets_an_envelope_instead_of_a_stack_overflow() {
    use std::io::{BufRead, BufReader, Write};
    use topk_service::json::MAX_DEPTH;
    watchdog(90);
    let config = ServerConfig {
        max_request_bytes: 1 << 20,
        ..tight_config()
    };
    let ts = TestServer::spawn(config, None).unwrap();
    let stream = std::net::TcpStream::connect(&ts.addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut exchange = |request: &str| {
        (&stream).write_all(request.as_bytes()).unwrap();
        (&stream).write_all(b"\n").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response
    };
    for open in ["[", r#"{"a":"#] {
        let resp = exchange(&open.repeat(20_000));
        assert!(resp.contains(r#""code":"bad_json""#), "{resp}");
        // The same connection serves the next request.
        let resp = exchange(r#"{"cmd":"ping"}"#);
        assert!(resp.contains(r#""ok":true"#), "{resp}");
    }
    // The request object is one level; an (ignored) member nested down to
    // exactly the bound still parses, one level more does not.
    let ping_with = |depth: usize| {
        format!(
            r#"{{"cmd":"ping","pad":{}0{}}}"#,
            "[".repeat(depth),
            "]".repeat(depth)
        )
    };
    let resp = exchange(&ping_with(MAX_DEPTH - 1));
    assert!(resp.contains(r#""ok":true"#), "{resp}");
    let resp = exchange(&ping_with(MAX_DEPTH));
    assert!(resp.contains(r#""code":"bad_json""#), "{resp}");
    // And other clients never noticed.
    ts.client().unwrap().ping().unwrap();
    ts.shutdown().unwrap();
}

#[test]
fn mid_response_disconnect_is_survivable() {
    watchdog(90);
    let ts = TestServer::spawn(tight_config(), None).unwrap();
    let mut c = ts.client().unwrap();
    c.ingest_batch(&[
        (vec!["grace hopper".into()], 1.0),
        (vec!["grace  hopper".into()], 1.0),
    ])
    .unwrap();
    // Ask for a real (multi-byte) response, read 1 byte, slam shut.
    disconnect_mid_response(&ts.addr, r#"{"cmd":"topk","k":1}"#, 1).unwrap();
    disconnect_mid_response(&ts.addr, r#"{"cmd":"stats"}"#, 1).unwrap();
    // The engine and other connections are unaffected.
    let top = c.topk(1).unwrap();
    assert_eq!(
        top.get("groups")
            .and_then(topk_service::Json::as_arr)
            .map(|g| g.len()),
        Some(1)
    );
    ts.shutdown().unwrap();
}

#[test]
fn connection_flood_is_shed_with_structured_errors() {
    watchdog(90);
    let ts = TestServer::spawn(
        ServerConfig {
            max_connections: 2,
            ..tight_config()
        },
        None,
    )
    .unwrap();
    let outcome = flood(&ts.addr, 2, 6).unwrap();
    assert!(
        outcome.shed >= 1,
        "cap 2 + 2 hogs must shed extras: {outcome:?}"
    );
    assert_eq!(
        outcome.failed, 0,
        "no connection may fail without an envelope: {outcome:?}"
    );
    assert!(
        Metrics::get(&ts.engine.metrics.server_shed) >= outcome.shed as u64,
        "server_shed_total must count every shed connection"
    );
    // Availability after the flood.
    ts.client().unwrap().ping().unwrap();
    ts.shutdown().unwrap();
}

#[test]
fn half_open_connection_hits_the_idle_timeout() {
    watchdog(90);
    let ts = TestServer::spawn(
        ServerConfig {
            idle_timeout: Duration::from_millis(300),
            ..tight_config()
        },
        None,
    )
    .unwrap();
    // Connect, send nothing. The server must end the connection with
    // the timeout envelope instead of pinning a thread forever.
    let t0 = Instant::now();
    let resp = send_line_raw(&ts.addr, b"");
    // An empty line is skipped, so the connection then idles into the
    // 300 ms deadline; either we see the envelope or a clean close.
    match resp {
        Ok(r) => assert!(r.contains(r#""code":"timeout""#), "{r}"),
        Err(e) => assert!(e.contains("closed"), "{e}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "idle reap must be prompt, took {:?}",
        t0.elapsed()
    );
    assert!(Metrics::get(&ts.engine.metrics.server_timeouts) >= 1);
    ts.client().unwrap().ping().unwrap();
    ts.shutdown().unwrap();
}

#[test]
fn oversized_requests_get_an_envelope_and_the_connection_survives() {
    watchdog(90);
    let ts = TestServer::spawn(tight_config(), None).unwrap(); // 4 KiB cap
    let mut big = Vec::with_capacity(8192);
    big.extend_from_slice(br#"{"cmd":"ingest","batch":["#);
    while big.len() < 8000 {
        big.extend_from_slice(br#"{"fields":["padding padding padding"]},"#);
    }
    big.extend_from_slice(br#"{"fields":["end"]}]}"#);
    let resp = send_line_raw(&ts.addr, &big).unwrap();
    assert!(resp.contains(r#""code":"too_large""#), "{resp}");
    assert!(Metrics::get(&ts.engine.metrics.server_oversized) >= 1);
    // Nothing of the oversized batch was applied.
    let stats = ts.client().unwrap().stats().unwrap();
    assert_eq!(
        stats.get("records").and_then(topk_service::Json::as_usize),
        Some(0),
        "{stats}"
    );
    ts.shutdown().unwrap();
}

#[test]
fn journal_write_failure_refuses_the_ingest_and_leaves_state_unchanged() {
    watchdog(90);
    let dir = std::env::temp_dir().join(format!("topk_journal_fail_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let jpath = dir.join("fail.wal");
    let _ = std::fs::remove_file(&jpath);
    let ts = TestServer::spawn(tight_config(), Some(&jpath)).unwrap();
    let mut c = ts.client().unwrap();
    c.ingest_batch(&[(vec!["ada lovelace".into()], 1.0)])
        .unwrap();
    let before_topk = ts.engine.query_topk(3).unwrap().to_string();

    // Disk goes bad: every append fails. The ingest must come back as
    // a structured `err:"journal"`, not a dropped connection, and the
    // engine must not apply what it could not make durable.
    ts.engine.journal_set().unwrap().set_fail_appends(true);
    let err = c
        .ingest_batch(&[(vec!["grace hopper".into()], 1.0)])
        .unwrap_err();
    assert!(err.contains("journal"), "{err}");
    assert_eq!(
        Metrics::get(&ts.engine.metrics.journal_errors),
        1,
        "topk_journal_errors_total must count the refusal"
    );
    let stats = c.stats().unwrap();
    assert_eq!(
        stats.get("records").and_then(topk_service::Json::as_usize),
        Some(1),
        "refused ingest must not change the record count: {stats}"
    );
    assert_eq!(
        ts.engine.query_topk(3).unwrap().to_string(),
        before_topk,
        "refused ingest must not change query answers"
    );

    // The disk recovers: ingests flow again and replay sees only the
    // durable entries.
    ts.engine.journal_set().unwrap().set_fail_appends(false);
    c.ingest_batch(&[(vec!["grace hopper".into()], 1.0)])
        .unwrap();
    drop(c);
    ts.shutdown().unwrap();
    let (_, recovery) = JournalSet::open(&jpath, 1).unwrap();
    assert_eq!(
        recovery.rows.len(),
        2,
        "only the two acked rows are durable"
    );
    let _ = std::fs::remove_file(&jpath);
}

#[test]
fn retry_rides_through_overload() {
    watchdog(90);
    let before = topk_obs::Registry::global()
        .counter("topk_client_retries_total")
        .load(Ordering::Relaxed);
    let outcome = chaos_retry().unwrap();
    assert_eq!(outcome.name, "retry");
    let after = topk_obs::Registry::global()
        .counter("topk_client_retries_total")
        .load(Ordering::Relaxed);
    assert!(
        after > before,
        "retry scenario must actually retry: {outcome:?}"
    );
}

#[test]
fn shed_scenario_reports_bounded_overload() {
    watchdog(90);
    let outcome = chaos_shed().unwrap();
    assert_eq!(outcome.name, "shed");
    assert!(outcome.detail.contains("overloaded"), "{outcome:?}");
}

#[test]
fn kill_dash_nine_recovers_byte_identical_state_from_the_journal() {
    watchdog(90);
    let outcome = chaos_journal_replay().unwrap();
    assert_eq!(outcome.name, "journal-replay");
    assert!(outcome.detail.contains("byte-identical"), "{outcome:?}");
}

#[test]
fn over_budget_ingest_is_refused_and_the_gauge_holds_the_line() {
    watchdog(90);
    let outcome = chaos_memory_pressure().unwrap();
    assert_eq!(outcome.name, "memory-pressure");
    assert!(outcome.detail.contains("memory_pressure"), "{outcome:?}");
}

#[test]
fn expired_deadlines_abort_at_admission_without_collateral_damage() {
    watchdog(90);
    let outcome = chaos_deadline_storm().unwrap();
    assert_eq!(outcome.name, "deadline-storm");
    assert!(outcome.detail.contains("deadline_exceeded"), "{outcome:?}");
}
