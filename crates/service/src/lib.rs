//! `topk-service`: a long-lived dedup-aware top-k query server.
//!
//! The batch pipeline answers one query per process: load, tokenize,
//! collapse, prune, exit. This crate keeps the collapsed state resident
//! instead. A [`Server`] owns one [`Engine`] — N per-shard
//! [`IncrementalDedup`](topk_core::IncrementalDedup) collapses, routed
//! by blocking partition ([`shard`]), behind a reader-writer core lock —
//! and speaks a line-oriented JSON protocol over TCP (one JSON object
//! per line in each direction; see `docs/SERVICE.md` for schemas).
//! Clients stream records in and ask TopK/TopR questions between
//! ingests without ever re-reading or re-tokenizing the corpus.
//!
//! Three properties the design leans on:
//!
//! - **Batch-identical answers.** Ingested records are tokenized
//!   immediately but collapsed lazily at query time under the corpus
//!   statistics current at that moment, so a stream that is fully
//!   ingested before its first query produces byte-identical responses
//!   to the batch pipeline over the same data ([`engine`] explains the
//!   drift caveat for interleaved ingest/query workloads).
//! - **O(1) repeat queries.** Query results are cached keyed on
//!   (query parameters, ingest generation); any ingestion invalidates
//!   the cache, so a quiet stream serves repeats from memory.
//! - **Cheap restarts.** [`snapshot`] persists the collapsed state
//!   (union-find, blocking index, records, generation) to a versioned,
//!   checksummed binary file; restore skips all predicate work.
//!
//! Everything is `std`-only — no async runtime, no serde — matching the
//! workspace's offline-build constraint.

#![warn(missing_docs)]
// A long-lived server must not panic on malformed internal state: every
// fallible path surfaces an error envelope instead. Tests opt back in
// per-module.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod client;
mod codec;
pub mod corpus;
pub mod engine;
pub mod introspection;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod overload;
pub mod protocol;
pub mod replication;
pub mod server;
pub mod shard;
pub mod snapshot;

pub use client::{Client, ClientConfig};
pub use corpus::{
    generic_stack, load_corpus, load_dataset, stack_from_stats, Corpus, CorpusOptions,
};
pub use engine::{Engine, EngineConfig};
pub use introspection::{ApproxProfile, ProfileRing, QueryProfile, ShardProfile, SlowQueryLog};
pub use journal::{Journal, JournalSet, Row, SetRecovery};
pub use json::Json;
pub use metrics::Metrics;
pub use overload::OverloadControl;
pub use protocol::{parse_request, parse_request_meta, ProtoError, Request, RequestMeta};
pub use replication::{spawn_tailer, ReplicaStatus, Role};
pub use server::{Server, ServerConfig};
pub use shard::ShardRouter;
