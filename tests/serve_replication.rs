//! Differential suite for primary/replica replication (fault matrix:
//! docs/ROBUSTNESS.md).
//!
//! The replication contract under test: every answer a replica serves
//! is **byte-identical** to the primary's at any shard count, the acked
//! prefix survives the primary's death and a promotion, writes bounce
//! off replicas with `err:"not_primary"` until `promote`, torn frames
//! force a clean reconnect instead of corruption, and the lag is
//! visible through `stats`/`replstatus`/Prometheus.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use topk_bench::faults::{
    chaos_failover, chaos_replication, tight_config, wait_replica_records, TestServer,
};
use topk_service::{Engine, Json, Metrics};
use topk_text::hash::fnv1a;

mod support;
use support::{answers, citation_rows, engine_config, watchdog};

#[test]
fn replica_answers_are_byte_identical_at_every_shard_count() {
    watchdog(120);
    let rows = citation_rows(40, 240, 11);
    // Citation rows are long; keep the batch sizes under a roomier cap
    // than the fault-suite default.
    let roomy = || topk_service::ServerConfig {
        max_request_bytes: 1 << 20,
        ..tight_config()
    };
    let primary = TestServer::spawn_with(roomy(), engine_config(4), None).unwrap();
    let mut pc = primary.client().unwrap();
    // Half the stream lands before any replica exists, so the snapshot
    // bootstrap carries real state...
    for chunk in rows[..120].chunks(37) {
        pc.ingest_batch(chunk).unwrap();
    }
    let replicas: Vec<TestServer> = [1usize, 2, 3, 5, 8]
        .iter()
        .map(|&shards| {
            TestServer::spawn_replica_with(roomy(), engine_config(shards), &primary.addr).unwrap()
        })
        .collect();
    // ...and the other half arrives while they tail live.
    for chunk in rows[120..].chunks(37) {
        pc.ingest_batch(chunk).unwrap();
    }
    drop(pc);
    let ks = [1, 3, 10, 1000]; // 1000 > total groups: the k-overshoot edge
    let want = answers(&primary.engine, &ks);
    for (replica, shards) in replicas.iter().zip([1usize, 2, 3, 5, 8]) {
        wait_replica_records(replica, rows.len(), Duration::from_secs(30)).unwrap();
        assert_eq!(
            answers(&replica.engine, &ks),
            want,
            "{shards}-shard replica diverged from the 4-shard primary"
        );
    }
    for replica in replicas {
        replica.shutdown().unwrap();
    }
    primary.shutdown().unwrap();
}

#[test]
fn replica_refuses_writes_until_promoted() {
    watchdog(90);
    let primary = TestServer::spawn(tight_config(), None).unwrap();
    let mut pc = primary.client().unwrap();
    pc.ingest_batch(&[
        (vec!["maria santos".into()], 1.0),
        (vec!["maria  santos".into()], 2.0),
    ])
    .unwrap();
    drop(pc);
    let replica = TestServer::spawn_replica(tight_config(), &primary.addr).unwrap();
    wait_replica_records(&replica, 2, Duration::from_secs(15)).unwrap();

    let mut rc = replica.client().unwrap();
    // Reads are served; writes are refused with the structured code.
    rc.topk(1).unwrap();
    let err = rc
        .ingest_batch(&[(vec!["john doe".into()], 1.0)])
        .unwrap_err();
    assert!(err.contains("not_primary"), "{err}");
    let err = rc.restore("/nonexistent/snapshot.bin").unwrap_err();
    assert!(err.contains("not_primary"), "{err}");
    let stats = rc.stats().unwrap();
    assert_eq!(stats.get("role").and_then(Json::as_str), Some("replica"));
    assert_eq!(stats.get("epoch").and_then(Json::as_usize), Some(1));

    // Promotion flips the role, bumps the epoch, and is idempotent.
    let promoted = rc.promote().unwrap();
    assert_eq!(promoted.get("role").and_then(Json::as_str), Some("primary"));
    assert_eq!(promoted.get("epoch").and_then(Json::as_usize), Some(2));
    assert_eq!(promoted.get("promoted").and_then(Json::as_bool), Some(true));
    let again = rc.promote().unwrap();
    assert_eq!(again.get("epoch").and_then(Json::as_usize), Some(2));
    assert_eq!(again.get("promoted").and_then(Json::as_bool), Some(false));
    rc.ingest_batch(&[(vec!["john doe".into()], 1.0)]).unwrap();
    let stats = rc.stats().unwrap();
    assert_eq!(stats.get("role").and_then(Json::as_str), Some("primary"));
    assert_eq!(stats.get("records").and_then(Json::as_usize), Some(3));
    drop(rc);
    primary.shutdown().unwrap();
    replica.shutdown().unwrap();
}

#[test]
fn primary_death_mid_ingest_preserves_the_acked_prefix_through_promotion() {
    watchdog(120);
    let primary = TestServer::spawn(tight_config(), None).unwrap();
    let replica = TestServer::spawn_replica(tight_config(), &primary.addr).unwrap();

    // A deterministic row per batch, so the replica's applied entry
    // count alone reconstructs its exact state.
    let row = |i: usize| {
        (
            vec![format!("author {:02} name", i % 9)],
            (i % 3) as f64 + 1.0,
        )
    };
    // Hammer single-row ingests from a side thread until the primary
    // dies underneath it mid-stream.
    let acked = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let writer = {
        let acked = Arc::clone(&acked);
        let mut c = primary.client().unwrap();
        std::thread::spawn(move || {
            for i in 0.. {
                if c.ingest_batch(&[row(i)]).is_err() {
                    break;
                }
                acked.fetch_add(1, Ordering::SeqCst);
            }
        })
    };
    while acked.load(Ordering::SeqCst) < 20 {
        std::thread::sleep(Duration::from_millis(5));
    }
    primary.shutdown().unwrap();
    writer.join().unwrap();
    let acked = acked.load(Ordering::SeqCst);

    // Every acked batch must reach the replica (publish-before-ack plus
    // the sealed-drain on shutdown guarantee the prefix); an extra
    // entry whose ack was lost in the close may legitimately follow.
    wait_replica_records(&replica, acked, Duration::from_secs(15)).unwrap();
    let settled = |e: &Engine| {
        let mut last = e.stats_json().get("records").and_then(Json::as_usize);
        loop {
            std::thread::sleep(Duration::from_millis(100));
            let now = e.stats_json().get("records").and_then(Json::as_usize);
            if now == last {
                return now.unwrap_or(0);
            }
            last = now;
        }
    };
    let applied = settled(&replica.engine);
    assert!(
        applied >= acked,
        "replica lost acked batches: {applied} < {acked}"
    );

    let (promoted_now, epoch) = replica.engine.promote();
    assert!(promoted_now);
    assert_eq!(epoch, 2);
    let mut rc = replica.client().unwrap();
    rc.ingest_batch(&[(vec!["fresh write".into()], 1.0)])
        .unwrap();

    // Reference: the same prefix ingested directly, no replication.
    let reference = Engine::new(engine_config(1)).unwrap();
    for i in 0..applied {
        reference.ingest(vec![row(i)]).unwrap();
    }
    reference
        .ingest(vec![(vec!["fresh write".into()], 1.0)])
        .unwrap();
    let ks = [1, 5, 1000];
    assert_eq!(
        answers(&replica.engine, &ks),
        answers(&reference, &ks),
        "promoted replica diverged from the acked prefix"
    );
    drop(rc);
    replica.shutdown().unwrap();
}

/// Serialize one replication frame, optionally corrupting the checksum.
fn frame(kind: u8, seq: u64, payload: &[u8], corrupt: bool) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.push(kind);
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&0u64.to_le_bytes()); // ts_ms
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    let crc = fnv1a(&buf) ^ if corrupt { 0xdead } else { 0 };
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

#[test]
fn torn_replication_frame_forces_reconnect_not_corruption() {
    watchdog(90);
    // A fake primary: session 1 serves a valid snapshot bootstrap and
    // then a corrupt frame; session 2 (the reconnect) serves a clean
    // tail. The replica must end byte-identical to the source engine
    // with exactly one recorded reconnect — never a corrupt apply.
    let source = Engine::new(engine_config(1)).unwrap();
    source
        .ingest(vec![
            (vec!["grace hopper".into()], 1.0),
            (vec!["grace  hopper".into()], 2.0),
        ])
        .unwrap();
    let (snapshot, cursor) = source.snapshot_bytes().unwrap();

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let done = Arc::new(AtomicBool::new(false));
    let fake_primary = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            // Session 1: handshake -> snapshot header -> bytes -> torn frame.
            let (mut s, _) = listener.accept().unwrap();
            let mut line = String::new();
            BufReader::new(s.try_clone().unwrap())
                .read_line(&mut line)
                .unwrap();
            assert!(line.contains(r#""cmd":"replicate""#), "{line}");
            assert!(
                !line.contains(r#""from""#),
                "fresh replica must not send a cursor: {line}"
            );
            let header = format!(
                "{{\"ok\":true,\"mode\":\"snapshot\",\"epoch\":1,\"seq\":{cursor},\"head\":{cursor},\"snapshot_bytes\":{}}}\n",
                snapshot.len()
            );
            s.write_all(header.as_bytes()).unwrap();
            s.write_all(&snapshot).unwrap();
            s.write_all(&frame(0, cursor, b"not a real entry", true))
                .unwrap();
            let _ = s.flush();
            // Leave the socket open: the replica must abandon it on the
            // checksum mismatch, not hang waiting for a close.

            // Session 2: the reconnect carries the intact cursor; serve
            // a clean tail with a heartbeat until the test is done.
            let (mut s2, _) = listener.accept().unwrap();
            let mut line = String::new();
            BufReader::new(s2.try_clone().unwrap())
                .read_line(&mut line)
                .unwrap();
            assert!(
                line.contains(&format!(r#""from":{cursor}"#)),
                "reconnect must keep its cursor: {line}"
            );
            let header =
                format!("{{\"ok\":true,\"mode\":\"tail\",\"epoch\":1,\"seq\":{cursor},\"head\":{cursor}}}\n");
            s2.write_all(header.as_bytes()).unwrap();
            while !done.load(Ordering::SeqCst) {
                s2.write_all(&frame(1, cursor, &[], false)).unwrap();
                let _ = s2.flush();
                std::thread::sleep(Duration::from_millis(50));
            }
        })
    };

    let replica = TestServer::spawn_replica(tight_config(), &addr).unwrap();
    wait_replica_records(&replica, 2, Duration::from_secs(20)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while Metrics::get(&replica.engine.metrics.replica_reconnects) < 1 {
        assert!(Instant::now() < deadline, "reconnect was never recorded");
        std::thread::sleep(Duration::from_millis(20));
    }
    let ks = [1, 5];
    assert_eq!(
        answers(&replica.engine, &ks),
        answers(&source, &ks),
        "replica state corrupted by the torn frame"
    );
    assert!(Metrics::get(&replica.engine.metrics.replica_bootstraps) >= 1);
    done.store(true, Ordering::SeqCst);
    fake_primary.join().unwrap();
    replica.shutdown().unwrap();
}

#[test]
fn replica_lag_is_visible_in_stats_replstatus_and_prometheus() {
    watchdog(90);
    let primary = TestServer::spawn(tight_config(), None).unwrap();
    let mut pc = primary.client().unwrap();
    pc.ingest_batch(&[
        (vec!["ada lovelace".into()], 1.0),
        (vec!["ada  lovelace".into()], 1.0),
    ])
    .unwrap();
    let replica = TestServer::spawn_replica(tight_config(), &primary.addr).unwrap();
    wait_replica_records(&replica, 2, Duration::from_secs(15)).unwrap();

    let mut rc = replica.client().unwrap();
    let stats = rc.stats().unwrap();
    let rep = stats
        .get("replica")
        .expect("replica member in replica stats");
    assert_eq!(rep.get("connected").and_then(Json::as_bool), Some(true));
    assert_eq!(
        rep.get("source").and_then(Json::as_str),
        Some(primary.addr.as_str())
    );
    assert_eq!(rep.get("lag_entries").and_then(Json::as_usize), Some(0));
    assert!(rep.get("lag_ms").and_then(Json::as_usize).is_some());

    let rs = rc.replstatus().unwrap();
    assert_eq!(rs.get("role").and_then(Json::as_str), Some("replica"));
    assert_eq!(rs.get("epoch").and_then(Json::as_usize), Some(1));
    assert!(rs.get("replica").is_some());

    let health = rc.health().unwrap();
    assert_eq!(health.get("role").and_then(Json::as_str), Some("replica"));

    let prom = rc.metrics_text().unwrap();
    assert!(prom.contains("topk_epoch 1"), "{prom}");
    assert!(prom.contains("topk_replica_connected 1"), "{prom}");
    assert!(prom.contains("topk_replica_lag_entries 0"), "{prom}");
    assert!(prom.contains("topk_replica_bootstraps_total 1"), "{prom}");

    // The primary counts its side of the stream.
    let mut pm = String::new();
    pm.push_str(&pc.metrics_text().unwrap());
    assert!(pm.contains("topk_repl_streams_total 1"), "{pm}");
    drop(pc);
    drop(rc);
    primary.shutdown().unwrap();
    replica.shutdown().unwrap();
}

#[test]
fn replication_chaos_scenario_holds_its_invariants() {
    watchdog(120);
    let outcome = chaos_replication().unwrap();
    assert_eq!(outcome.name, "replication");
    assert!(outcome.detail.contains("byte-identical"), "{outcome:?}");
}

#[test]
fn client_failover_completes_the_query_stream() {
    watchdog(120);
    let outcome = chaos_failover().unwrap();
    assert_eq!(outcome.name, "failover");
    assert!(outcome.detail.contains("byte-identical"), "{outcome:?}");
}
