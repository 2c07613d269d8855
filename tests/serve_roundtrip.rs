//! Loopback integration test for the `topk-service` server.
//!
//! Spins a real [`Server`] on an ephemeral port (`127.0.0.1:0`), streams
//! a generated student dataset through a real [`Client`] in several
//! batches, and asserts the big claims made in `docs/SERVICE.md`:
//!
//! 1. **Batch identity** — once the stream is fully ingested, `topk` and
//!    `topr` response lines are *byte-identical* to the batch pipeline
//!    (`PrunedDedup` / `TopKRankQuery`) run over the same records and
//!    rendered through the same JSON serializer. The group computation
//!    is genuinely independent on the two sides: served answers come
//!    from `IncrementalDedup`'s maintained collapse, batch answers from
//!    Algorithm 2 from scratch.
//! 2. **Snapshot fidelity** — snapshot → restore into a *fresh* server
//!    reproduces those answer lines exactly.
//! 3. **Cache behaviour** — a repeated query is a cache hit, and
//!    ingestion invalidates the cache (hit counters visible in `stats`).
//!
//! A watchdog thread hard-kills the process if the test wedges (a hung
//! accept loop would otherwise block `cargo test` forever).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use topk_core::{Parallelism, PipelineConfig, PrunedDedup, TopKRankQuery};
use topk_records::{FieldId, TokenizedRecord};
use topk_service::json::{obj as obj_json, Json};
use topk_service::protocol::ok_response;
use topk_service::{generic_stack, Client, Engine, EngineConfig, Server, ServerConfig};

mod support;
use support::{student_rows, watchdog, Rows};

/// The generated corpus as raw ingest rows (field texts + weight), in
/// dataset order (the generator's default skew and seed).
fn sample_rows() -> Rows {
    student_rows(40, 200, 0.5, 0x57D1)
}

/// Tokenize rows exactly like `Engine::ingest` does (normalize, then
/// tokenize once).
fn tokenize_rows(rows: &[(Vec<String>, f64)]) -> Vec<TokenizedRecord> {
    rows.iter()
        .map(|(fields, weight)| {
            let normalized: Vec<String> = fields
                .iter()
                .map(|f| topk_text::normalize::normalize(f))
                .collect();
            TokenizedRecord::from_fields(&normalized, *weight)
        })
        .collect()
}

/// Render groups the way `Engine::query_topk` renders them.
fn render_topk(groups: &[topk_core::FinalGroup], toks: &[TokenizedRecord], k: usize) -> String {
    let field = FieldId(0);
    let items: Vec<Json> = groups
        .iter()
        .take(k)
        .enumerate()
        .map(|(rank, g)| {
            obj_json(vec![
                ("rank", Json::Num((rank + 1) as f64)),
                ("weight", Json::Num(g.weight)),
                ("size", Json::Num(g.members.len() as f64)),
                ("rep_id", Json::Num(g.rep as f64)),
                (
                    "rep",
                    Json::Str(toks[g.rep as usize].field(field).text.clone()),
                ),
            ])
        })
        .collect();
    ok_response(obj_json(vec![("groups", Json::Arr(items))]))
}

/// Compute the batch-pipeline `topk` answer line for `rows`.
fn batch_topk_line(toks: &[TokenizedRecord], k: usize) -> String {
    let stack = generic_stack(toks, FieldId(0), 30, 0.6);
    let out = PrunedDedup::new(
        toks,
        &stack,
        PipelineConfig {
            k,
            refine_iterations: 2,
            mode: Default::default(),
            parallelism: Parallelism::sequential(),
        },
    )
    .run();
    render_topk(&out.groups, toks, k)
}

/// Compute the batch-pipeline `topr` answer line for `rows`.
fn batch_topr_line(toks: &[TokenizedRecord], k: usize) -> String {
    let stack = generic_stack(toks, FieldId(0), 30, 0.6);
    let mut q = TopKRankQuery::new(k);
    q.parallelism = Parallelism::sequential();
    let res = q.run(toks, &stack);
    let field = FieldId(0);
    let entries: Vec<Json> = res
        .entries
        .iter()
        .enumerate()
        .map(|(rank, e)| {
            obj_json(vec![
                ("rank", Json::Num((rank + 1) as f64)),
                ("weight", Json::Num(e.weight)),
                ("upper_bound", Json::Num(e.upper_bound)),
                ("size", Json::Num(e.records.len() as f64)),
                ("rep_id", Json::Num(e.rep as f64)),
                (
                    "rep",
                    Json::Str(toks[e.rep as usize].field(field).text.clone()),
                ),
            ])
        })
        .collect();
    ok_response(obj_json(vec![
        ("entries", Json::Arr(entries)),
        ("certified", Json::Bool(res.certified)),
    ]))
}

fn spawn_server() -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<Result<(), String>>,
) {
    spawn_server_with(ServerConfig::default())
}

fn spawn_server_with(
    config: ServerConfig,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<Result<(), String>>,
) {
    let engine = Arc::new(
        Engine::new(EngineConfig {
            parallelism: Parallelism::sequential(),
            ..Default::default()
        })
        .expect("engine"),
    );
    let mut server = Server::bind("127.0.0.1:0", engine).expect("bind ephemeral port");
    server.config = config;
    server.spawn()
}

fn counter(stats: &Json, name: &str) -> u64 {
    stats
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(Json::as_usize)
        .unwrap_or_else(|| panic!("stats missing metrics.{name}: {stats}")) as u64
}

#[test]
fn served_answers_match_batch_and_survive_snapshot() {
    let done = watchdog(90);
    let rows = sample_rows();
    let toks = tokenize_rows(&rows);
    let k = 5;
    let expected_topk = batch_topk_line(&toks, k);
    let expected_topr = batch_topr_line(&toks, k);

    let (addr, handle) = spawn_server();
    let mut c = Client::connect(&addr.to_string()).expect("connect");
    c.ping().expect("ping");

    // Stream the corpus in uneven batches; no query until it's all in.
    let mut sent = 0u64;
    for chunk in rows.chunks(37) {
        sent = c.ingest_batch(chunk).expect("ingest");
    }
    assert_eq!(sent, rows.len() as u64, "generation counts every record");

    // 1. Byte-identical to the batch pipeline.
    let served_topk = c
        .request_raw(&format!(r#"{{"cmd":"topk","k":{k}}}"#))
        .expect("topk");
    assert_eq!(served_topk, expected_topk, "served topk != batch topk");
    let served_topr = c
        .request_raw(&format!(r#"{{"cmd":"topr","k":{k}}}"#))
        .expect("topr");
    assert_eq!(served_topr, expected_topr, "served topr != batch topr");

    // 3a. The repeat query is answered from the cache, byte-identically.
    let stats = c.stats().expect("stats");
    // A standalone server is the primary of epoch 1 — `stats` and
    // `health` both pin the pair so a failed-over client can always
    // tell what it is talking to (docs/ROBUSTNESS.md).
    assert_eq!(stats.get("role").and_then(Json::as_str), Some("primary"));
    assert_eq!(stats.get("epoch").and_then(Json::as_usize), Some(1));
    let health = c.health().expect("health");
    assert_eq!(health.get("role").and_then(Json::as_str), Some("primary"));
    assert_eq!(health.get("epoch").and_then(Json::as_usize), Some(1));
    let hits_before = counter(&stats, "cache_hits");
    let repeat = c
        .request_raw(&format!(r#"{{"cmd":"topk","k":{k}}}"#))
        .expect("repeat topk");
    assert_eq!(repeat, expected_topk);
    let stats = c.stats().expect("stats");
    assert_eq!(counter(&stats, "cache_hits"), hits_before + 1);

    // 3b. Ingestion invalidates: the same query misses afterwards.
    let misses_before = counter(&stats, "cache_misses");
    c.ingest_batch(&[(vec!["zz unseen person".into(); rows[0].0.len()], 1.0)])
        .expect("ingest one more");
    c.topk(k).expect("topk after ingest");
    let stats = c.stats().expect("stats");
    assert_eq!(counter(&stats, "cache_misses"), misses_before + 1);

    // 2. Snapshot, restore into a fresh server, answers are identical.
    let dir = std::env::temp_dir().join("topk_serve_roundtrip");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let snap = dir.join("state.snap");
    c.snapshot(snap.to_str().unwrap()).expect("snapshot");
    let expected_after_ingest = c
        .request_raw(&format!(r#"{{"cmd":"topk","k":{k}}}"#))
        .expect("topk post-snapshot");
    c.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");

    let (addr2, handle2) = spawn_server();
    let mut c2 = Client::connect(&addr2.to_string()).expect("connect 2");
    c2.restore(snap.to_str().unwrap()).expect("restore");
    let restored_topk = c2
        .request_raw(&format!(r#"{{"cmd":"topk","k":{k}}}"#))
        .expect("restored topk");
    assert_eq!(
        restored_topk, expected_after_ingest,
        "restored server answers differently"
    );
    let restored_topr = c2
        .request_raw(&format!(r#"{{"cmd":"topr","k":{k}}}"#))
        .expect("restored topr");
    assert!(restored_topr.starts_with(r#"{"ok":true,"entries":"#));
    c2.shutdown().expect("shutdown 2");
    handle2
        .join()
        .expect("server thread 2")
        .expect("server run 2");

    done.store(true, Ordering::SeqCst);
}

#[test]
fn protocol_errors_do_not_kill_the_connection() {
    let done = watchdog(90);
    let (addr, handle) = spawn_server();
    let mut c = Client::connect(&addr.to_string()).expect("connect");
    // A garbage line gets the error envelope, and the connection lives on.
    let raw = c.request_raw("this is not json").expect("raw");
    assert!(raw.contains(r#""ok":false"#), "{raw}");
    assert!(raw.contains(r#""code":"bad_json""#), "{raw}");
    let err = c.request(r#"{"cmd":"ingest"}"#).expect_err("bad ingest");
    assert!(err.starts_with("bad_request"), "{err}");
    // Invalid approx epsilons get the same uniform bad_request envelope:
    // wrong type, out of range, and the degenerate endpoints.
    for bad in [
        r#"{"cmd":"topk","k":2,"approx":"tight"}"#,
        r#"{"cmd":"topk","k":2,"approx":1.5}"#,
        r#"{"cmd":"topr","k":2,"approx":0}"#,
        r#"{"cmd":"topr","k":2,"approx":-0.1}"#,
    ] {
        let raw = c.request_raw(bad).expect("raw bad approx");
        assert!(raw.contains(r#""ok":false"#), "{bad} -> {raw}");
        assert!(raw.contains(r#""code":"bad_request""#), "{bad} -> {raw}");
    }
    // A valid epsilon on the same connection answers in the approx shape.
    c.ingest_batch(&[(vec!["approx probe".into()], 1.0)])
        .expect("ingest probe");
    let body = c.query(false, 1, Some(0.5), false).expect("approx topk");
    assert_eq!(
        body.get("epsilon").and_then(Json::as_f64),
        Some(0.5),
        "{body}"
    );
    assert!(body.get("groups").is_some(), "{body}");
    // Still usable afterwards.
    c.ingest_batch(&[(vec!["still alive".into()], 1.0)])
        .expect("ingest");
    c.topk(1).expect("topk");
    c.shutdown().expect("shutdown");
    handle.join().expect("join").expect("run");
    done.store(true, Ordering::SeqCst);
}

/// Protocol edge cases against a server with tight robustness limits:
/// unknown commands, blank lines, oversized requests, and a half-open
/// connection that never completes a request. Each gets the documented
/// structured treatment — never a wedged server.
#[test]
fn protocol_edges_get_structured_treatment() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    let done = watchdog(90);
    let (addr, handle) = spawn_server_with(ServerConfig {
        read_timeout: Duration::from_millis(800),
        write_timeout: Duration::from_millis(800),
        idle_timeout: Duration::from_millis(400),
        max_request_bytes: 1024,
        ..Default::default()
    });
    let addr = addr.to_string();

    // Unknown command: bad_request envelope naming the command.
    let mut c = Client::connect(&addr).expect("connect");
    let raw = c.request_raw(r#"{"cmd":"frobnicate"}"#).expect("raw");
    assert!(raw.contains(r#""code":"bad_request""#), "{raw}");
    assert!(raw.contains("unknown cmd"), "{raw}");

    // Malformed JSON: bad_json envelope (same connection still alive).
    let raw = c.request_raw(r#"{"cmd": "#).expect("raw");
    assert!(raw.contains(r#""code":"bad_json""#), "{raw}");

    // Blank lines are skipped, not answered: the first response on the
    // wire after an empty line belongs to the next real request.
    let stream = TcpStream::connect(&addr).expect("raw connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut w = stream.try_clone().unwrap();
    w.write_all(b"\n{\"cmd\":\"ping\"}\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains(r#""ok":true"#),
        "blank line was answered: {line}"
    );
    drop((reader, w, stream));

    // Oversized request: structured `too_large` envelope, and the
    // engine never saw the batch.
    let big = format!(r#"{{"cmd":"ingest","fields":["{}"]}}"#, "x".repeat(4096));
    let raw = c.request_raw(&big).expect("oversized raw");
    assert!(raw.contains(r#""code":"too_large""#), "{raw}");
    let stats = c.stats().expect("stats");
    let records = stats.get("records").and_then(Json::as_usize);
    assert_eq!(records, Some(0), "oversized ingest was applied: {stats}");

    // Half-open peer: connect, never send a complete request. The idle
    // deadline must end the connection (timeout envelope and/or close)
    // instead of pinning a handler thread forever.
    let mut idle = TcpStream::connect(&addr).expect("idle connect");
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = std::time::Instant::now();
    let mut buf = Vec::new();
    idle.read_to_end(&mut buf).expect("read until close");
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(8),
        "half-open connection lived {elapsed:?}"
    );
    let text = String::from_utf8_lossy(&buf);
    if !text.is_empty() {
        assert!(text.contains(r#""code":"timeout""#), "{text}");
    }

    // Our own connection also sat idle past the deadline during the
    // half-open wait; the idempotent ping reconnects transparently,
    // then the fresh connection carries the shutdown.
    c.ping().expect("ping after idle");
    c.shutdown().expect("shutdown");
    handle.join().expect("join").expect("run");
    done.store(true, Ordering::SeqCst);
}

/// Span collection is process-global state toggled over the wire; this
/// pins that flipping it on/off and draining buffered spans — from
/// separate connections, concurrently with live queries — never
/// corrupts the protocol, panics a handler, or wedges the server.
/// Every in-flight query still gets its well-formed answer, and the
/// server stays fully coherent afterwards.
#[test]
fn concurrent_trace_toggles_and_drains_do_not_corrupt_the_protocol() {
    let done = watchdog(90);
    let (addr, handle) = spawn_server();
    let mut c = Client::connect(&addr.to_string()).expect("connect");
    c.ingest_batch(&sample_rows()[..50]).expect("ingest");

    const ROUNDS: usize = 40;
    let addr = addr.to_string();
    std::thread::scope(|s| {
        // Query workers: exact answers must keep flowing throughout.
        for w in 0..2 {
            let addr = &addr;
            s.spawn(move || {
                let mut c = Client::connect(addr).expect("worker connect");
                for i in 0..ROUNDS {
                    let body = if (w + i) % 2 == 0 {
                        c.topk(3).expect("topk under trace churn")
                    } else {
                        c.topr(3).expect("topr under trace churn")
                    };
                    assert!(
                        body.get("groups").or_else(|| body.get("entries")).is_some(),
                        "{body}"
                    );
                }
            });
        }
        // Toggler: flips collection on and off as fast as it can.
        let toggler_addr = &addr;
        s.spawn(move || {
            let mut c = Client::connect(toggler_addr).expect("toggler connect");
            for i in 0..ROUNDS {
                let resp = c
                    .request_raw(&format!(r#"{{"cmd":"trace","enabled":{}}}"#, i % 2 == 0))
                    .expect("toggle");
                assert!(resp.contains(r#""ok":true"#), "{resp}");
            }
        });
        // Drainer: destructive inline reads racing both of the above.
        let drainer_addr = &addr;
        s.spawn(move || {
            let mut c = Client::connect(drainer_addr).expect("drainer connect");
            for _ in 0..ROUNDS {
                let v = c.trace_drain_inline(None).expect("inline drain");
                assert!(
                    v.get("spans").and_then(Json::as_arr).is_some(),
                    "drain response lost its spans array: {v}"
                );
            }
        });
    });

    // Afterwards: collection off, one final drain answers cleanly, and
    // the engine still serves queries on the original connection.
    let final_drain = c
        .request_raw(r#"{"cmd":"trace","enabled":false,"inline":true}"#)
        .expect("final drain");
    assert!(final_drain.contains(r#""ok":true"#), "{final_drain}");
    c.topk(3).expect("topk after trace churn");
    c.shutdown().expect("shutdown");
    handle.join().expect("join").expect("run");
    done.store(true, Ordering::SeqCst);
}
