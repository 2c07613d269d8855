//! Differential tests for the sharded engine: every observable answer a
//! sharded [`Engine`] produces must be **byte-identical** to a
//! single-shard engine over the same stream — after plain ingest, after
//! interleaved ingest/query flushes, after journal replay, and after
//! snapshot/restore (including restoring across *different* shard
//! counts, since snapshot files are shard-count-agnostic).
//!
//! These are the proofs `docs/ARCHITECTURE.md` leans on when it claims
//! `--shards N` is a pure performance knob.

use topk_core::Parallelism;
use topk_service::{Engine, EngineConfig, JournalSet, Metrics};

mod support;
use support::{answers, citation_rows};

fn engine_with(shards: usize, parallelism: Parallelism) -> Engine {
    Engine::new(EngineConfig {
        parallelism,
        shards,
        ..Default::default()
    })
    .expect("engine")
}

#[test]
fn sharded_answers_are_byte_identical_to_single_engine() {
    let rows = citation_rows(60, 400, 7);
    let ks = [1, 3, 10, 1000]; // 1000 > total groups: the k-overshoot edge
    let single = engine_with(1, Parallelism::sequential());
    for chunk in rows.chunks(61) {
        single.ingest(chunk.to_vec()).unwrap();
        single.query_topk(5).unwrap(); // interleaved flushes
    }
    let want = answers(&single, &ks);
    for shards in [2, 3, 4, 8] {
        // Parallel flush/merge on the sharded side must not change a byte.
        let sharded = engine_with(shards, Parallelism::auto());
        for chunk in rows.chunks(61) {
            sharded.ingest(chunk.to_vec()).unwrap();
            sharded.query_topk(5).unwrap();
        }
        assert_eq!(
            answers(&sharded, &ks),
            want,
            "{shards}-shard answers differ from single-engine"
        );
        assert_eq!(sharded.generation(), single.generation());
    }
}

#[test]
fn empty_and_single_shard_corner_cases() {
    // Empty engine: empty answers at every shard count, no panic.
    for shards in [1, 4, 8] {
        let e = engine_with(shards, Parallelism::sequential());
        assert_eq!(e.query_topk(3).unwrap().to_string(), r#"{"groups":[]}"#);
        assert_eq!(
            e.query_topr(3).unwrap().to_string(),
            r#"{"entries":[],"certified":false}"#
        );
    }
    // Variants of one author all share the blocking partition, so they
    // all land on one shard — the others stay empty and the merge must
    // cope with k exceeding every per-shard group list.
    let single = engine_with(1, Parallelism::sequential());
    let sharded = engine_with(8, Parallelism::sequential());
    let rows: Vec<(Vec<String>, f64)> = [
        "grace hopper",
        "g hopper",
        "grace  hopper",
        "grace b hopper",
    ]
    .iter()
    .map(|s| (vec![s.to_string()], 1.0))
    .collect();
    single.ingest(rows.clone()).unwrap();
    sharded.ingest(rows).unwrap();
    assert_eq!(
        answers(&sharded, &[1, 2, 50]),
        answers(&single, &[1, 2, 50])
    );
}

#[test]
fn skewed_corpus_skips_whole_shards() {
    // Many distinct groups spread over many shards, one clearly heavy:
    // with k=1 the merge visits the heavy shard first and must skip
    // every other non-empty shard outright.
    let e = engine_with(8, Parallelism::sequential());
    let mut rows = Vec::new();
    for i in 0..40 {
        rows.push((vec![format!("author{i:02} lastword{i:02}")], 1.0));
    }
    for _ in 0..10 {
        rows.push((vec!["famous person".to_string()], 1.0));
    }
    e.ingest(rows).unwrap();
    let body = e.query_topk(1).unwrap().to_string();
    assert!(body.contains("\"rep\":\"famous person\""), "{body}");
    assert!(
        Metrics::get(&e.metrics.shard_skips) > 0,
        "k=1 over a skewed corpus should skip shards"
    );
}

#[test]
fn journal_replay_reproduces_sharded_and_single_identically() {
    let dir = std::env::temp_dir().join("topk_serve_shards_journal");
    std::fs::create_dir_all(&dir).unwrap();
    let rows = citation_rows(60, 200, 11);
    let mut lines = Vec::new();
    for shards in [1, 4] {
        let jpath = dir.join(format!("wal_{shards}"));
        // Scrub any prior run's segments.
        let (j0, _) = JournalSet::open(&jpath, shards).unwrap();
        j0.truncate_all().unwrap();
        drop(j0);
        let (journal, recovery) = JournalSet::open(&jpath, shards).unwrap();
        assert!(recovery.rows.is_empty());
        let mut e = engine_with(shards, Parallelism::sequential());
        e.attach_journal(journal);
        for chunk in rows.chunks(33) {
            e.ingest(chunk.to_vec()).unwrap();
        }
        // "kill -9": drop the engine without snapshotting, then recover
        // from the segment files alone.
        drop(e);
        let (journal, recovery) = JournalSet::open(&jpath, shards).unwrap();
        assert_eq!(recovery.rows.len(), rows.len());
        let mut revived = engine_with(shards, Parallelism::sequential());
        revived.attach_journal(journal);
        revived.replay_rows(recovery).unwrap();
        assert_eq!(revived.generation(), rows.len() as u64);
        // Post-replay ingests must keep working (rid counter resumed).
        revived
            .ingest(vec![(
                vec!["post crash person".into(); rows[0].0.len()],
                2.0,
            )])
            .unwrap();
        lines.push(answers(&revived, &[1, 5, 100]));
    }
    assert_eq!(
        lines[0], lines[1],
        "journal replay diverges between 1 and 4 shards"
    );
}

#[test]
fn snapshots_are_byte_identical_and_restore_across_shard_counts() {
    let dir = std::env::temp_dir().join("topk_serve_shards_snapshot");
    std::fs::create_dir_all(&dir).unwrap();
    let rows = citation_rows(60, 250, 13);
    let ks = [1, 5, 100];

    // Build the same corpus at 1 and 4 shards; snapshot both.
    let single = engine_with(1, Parallelism::sequential());
    let sharded = engine_with(4, Parallelism::auto());
    for chunk in rows.chunks(47) {
        single.ingest(chunk.to_vec()).unwrap();
        single.query_topk(3).unwrap();
        sharded.ingest(chunk.to_vec()).unwrap();
        sharded.query_topk(3).unwrap();
    }
    let p1 = dir.join("one.snap");
    let p4 = dir.join("four.snap");
    single.snapshot(&p1).unwrap();
    sharded.snapshot(&p4).unwrap();
    assert_eq!(
        std::fs::read(&p1).unwrap(),
        std::fs::read(&p4).unwrap(),
        "snapshot files differ between shard counts"
    );

    // Cross-restore: the 4-shard snapshot into fresh 1-, 2- and
    // 8-shard engines; answers — and answers after further ingest —
    // stay byte-identical to the source engine's.
    let want = answers(&single, &ks);
    for shards in [1, 2, 8] {
        let e = engine_with(shards, Parallelism::sequential());
        let generation = e.restore(&p4).unwrap();
        assert_eq!(generation, rows.len() as u64);
        assert_eq!(
            answers(&e, &ks),
            want,
            "restore into {shards} shards diverges"
        );
        let late = (vec!["late arrival".to_string(); rows[0].0.len()], 1.5);
        e.ingest(vec![late.clone()]).unwrap();
        let single2 = engine_with(1, Parallelism::sequential());
        single2.restore(&p1).unwrap();
        single2.ingest(vec![late]).unwrap();
        assert_eq!(
            answers(&e, &ks),
            answers(&single2, &ks),
            "post-restore ingest diverges at {shards} shards"
        );
    }
}
