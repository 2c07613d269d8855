//! Helpers shared by the `serve_*` integration suites (`mod support;`
//! from each): the hang watchdog, generated corpora as ingest rows, a
//! sequential engine at a given shard count, and the concatenated
//! answer blob the byte-identity tests compare. Each suite uses a
//! subset, hence the blanket `dead_code` allowance.
#![allow(dead_code)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use topk_core::Parallelism;
use topk_service::{Engine, EngineConfig};

/// Raw ingest rows: field texts + weight.
pub type Rows = Vec<(Vec<String>, f64)>;

/// Abort the whole test process with status 124 if the returned flag is
/// still unset after `secs` — server tests hold TCP connections, so a
/// regression hangs rather than fails, and would otherwise stall
/// `cargo test` until its global timeout. Suites that never set the
/// flag get a hard ceiling on the process instead.
pub fn watchdog(secs: u64) -> Arc<AtomicBool> {
    let done = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&done);
    std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_secs(secs));
        if !flag.load(Ordering::SeqCst) {
            eprintln!("serve suite watchdog fired after {secs}s, aborting");
            std::process::exit(124);
        }
    });
    done
}

fn rows_of(d: &topk_records::Dataset) -> Rows {
    d.records()
        .iter()
        .map(|r| (r.fields().to_vec(), r.weight()))
        .collect()
}

/// A generated student corpus as ingest rows, in dataset order.
pub fn student_rows(n_students: usize, n_records: usize, zipf_exponent: f64, seed: u64) -> Rows {
    rows_of(&topk_datagen::generate_students(
        &topk_datagen::StudentConfig {
            n_students,
            n_records,
            zipf_exponent,
            seed,
            ..Default::default()
        },
    ))
}

/// A generated citation corpus as ingest rows, in dataset order.
pub fn citation_rows(n_authors: usize, n_citations: usize, seed: u64) -> Rows {
    rows_of(&topk_datagen::generate_citations(
        &topk_datagen::CitationConfig {
            n_authors,
            n_citations,
            seed,
            ..Default::default()
        },
    ))
}

/// Sequential (deterministic) engine configuration at `shards`.
pub fn engine_config(shards: usize) -> EngineConfig {
    EngineConfig {
        parallelism: Parallelism::sequential(),
        shards,
        ..Default::default()
    }
}

/// Ingest `rows` in 64-row batches.
pub fn ingest_chunked(e: &Engine, rows: &[(Vec<String>, f64)]) {
    for chunk in rows.chunks(64) {
        e.ingest(chunk.to_vec()).expect("ingest");
    }
}

/// A sequential engine at `shards` holding `rows`.
pub fn engine(shards: usize, rows: &[(Vec<String>, f64)]) -> Engine {
    let e = Engine::new(engine_config(shards)).expect("engine");
    ingest_chunked(&e, rows);
    e
}

/// Every query shape the differential suites compare, concatenated
/// into one comparable blob.
pub fn answers(e: &Engine, ks: &[usize]) -> String {
    let mut out = String::new();
    for &k in ks {
        out.push_str(&e.query_topk(k).expect("topk").to_string());
        out.push('\n');
        out.push_str(&e.query_topr(k).expect("topr").to_string());
        out.push('\n');
    }
    out
}
