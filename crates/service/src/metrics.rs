//! Service metrics: atomic counters plus log-scale latency histograms.
//!
//! The histogram implementation moved to `topk-obs` (re-exported here
//! for existing callers); this module keeps the service-specific
//! [`Metrics`] bundle. Every counter and histogram is **also registered
//! in a per-engine [`topk_obs::Registry`]** under Prometheus-style
//! names, so the same atomics back the `stats` JSON response, the
//! shutdown log line, and the `metrics` protocol command's Prometheus
//! text. Everything stays lock-free on the hot ingest/query paths
//! (relaxed `AtomicU64`); registries are per-engine, not global, so two
//! engines in one process (e.g. concurrent tests) never share counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use topk_obs::LatencyHistogram;
use topk_obs::Registry;

/// Latency-summary JSON for the stats response:
/// `{count, p50_us, p95_us, p99_us}`.
pub fn histogram_summary(h: &LatencyHistogram) -> crate::json::Json {
    crate::json::obj(vec![
        ("count", crate::json::Json::Num(h.count() as f64)),
        (
            "p50_us",
            crate::json::Json::Num(h.percentile_micros(50.0) as f64),
        ),
        (
            "p95_us",
            crate::json::Json::Num(h.percentile_micros(95.0) as f64),
        ),
        (
            "p99_us",
            crate::json::Json::Num(h.percentile_micros(99.0) as f64),
        ),
    ])
}

/// All counters and histograms of one server instance.
///
/// Fields are `Arc`s shared with the engine's [`Registry`] (deref
/// coercion keeps `Metrics::incr(&m.cache_hits)` call sites unchanged);
/// [`Metrics::registry`] renders them as Prometheus text.
#[derive(Debug)]
pub struct Metrics {
    /// Records ingested (individual records, not requests).
    pub ingested_records: Arc<AtomicU64>,
    /// `ingest` requests served.
    pub ingest_requests: Arc<AtomicU64>,
    /// `topk`/`topr` queries served (hits + misses).
    pub queries: Arc<AtomicU64>,
    /// Queries answered from the cache.
    pub cache_hits: Arc<AtomicU64>,
    /// Queries that ran the pipeline.
    pub cache_misses: Arc<AtomicU64>,
    /// Snapshots written.
    pub snapshots: Arc<AtomicU64>,
    /// Snapshots restored.
    pub restores: Arc<AtomicU64>,
    /// Requests rejected with an error envelope.
    pub errors: Arc<AtomicU64>,
    /// Connections accepted.
    pub connections: Arc<AtomicU64>,
    /// Connections refused with `err:"overloaded"` because the
    /// concurrent-connection cap was reached.
    pub server_shed: Arc<AtomicU64>,
    /// Connections closed by a read/idle deadline.
    pub server_timeouts: Arc<AtomicU64>,
    /// Requests rejected with `err:"too_large"` (max-request-size guard).
    pub server_oversized: Arc<AtomicU64>,
    /// Request handlers that panicked (isolated; answered with
    /// `err:"internal"` where the connection was still writable).
    pub server_panics: Arc<AtomicU64>,
    /// Times a poisoned engine lock was recovered after a handler panic.
    pub lock_recoveries: Arc<AtomicU64>,
    /// Ingest entries appended to the write-ahead journal.
    pub journal_appends: Arc<AtomicU64>,
    /// Records re-applied from the journal at startup.
    pub journal_replayed_records: Arc<AtomicU64>,
    /// Journal truncations (successful snapshots/restores).
    pub journal_truncations: Arc<AtomicU64>,
    /// Whole shards skipped during a cross-shard TopK merge because
    /// their best group's weight could not enter the top-k frontier.
    pub shard_skips: Arc<AtomicU64>,
    /// Approximate (`approx` epsilon set) TopK/TopR queries served.
    pub approx_queries: Arc<AtomicU64>,
    /// Blocking partitions escalated to the exact pipeline because
    /// their confidence interval overlapped the K-boundary.
    pub approx_escalations: Arc<AtomicU64>,
    /// Query-time flushes that actually collapsed pending records.
    pub flushes: Arc<AtomicU64>,
    /// Queries served with `"explain":true` (profile assembled).
    pub explained_queries: Arc<AtomicU64>,
    /// Requests slower than the slow-query-log threshold.
    pub slow_queries: Arc<AtomicU64>,
    /// Journal appends that failed (disk full, I/O error); the ingest
    /// was refused with `err:"journal"` and the engine state unchanged.
    pub journal_errors: Arc<AtomicU64>,
    /// Replication frames applied by this replica.
    pub replica_frames: Arc<AtomicU64>,
    /// Snapshot bootstraps completed by this replica.
    pub replica_bootstraps: Arc<AtomicU64>,
    /// Times the replica tailer reconnected to the primary.
    pub replica_reconnects: Arc<AtomicU64>,
    /// `replicate` streams served by this server (it acted as primary).
    pub repl_streams: Arc<AtomicU64>,
    /// Queries aborted at a stage boundary because the request's
    /// `deadline_ms` budget had expired.
    pub deadline_exceeded: Arc<AtomicU64>,
    /// Ingests refused with `err:"memory_pressure"` at the memory budget.
    pub memory_pressure: Arc<AtomicU64>,
    /// Times the engine entered brownout (degrade-to-approx) mode.
    pub brownout_entries: Arc<AtomicU64>,
    /// Times the engine left brownout mode after hysteresis cleared.
    pub brownout_exits: Arc<AtomicU64>,
    /// Exact queries answered from the approx tier (`degraded:true`)
    /// while the engine was in brownout.
    pub degraded_queries: Arc<AtomicU64>,
    /// Queries shed by cost-based admission control during brownout.
    pub admission_sheds: Arc<AtomicU64>,
    /// Per-record ingest latency.
    pub ingest_latency: Arc<LatencyHistogram>,
    /// Per-query latency (cache hits included — that is the point).
    pub query_latency: Arc<LatencyHistogram>,
    registry: Registry,
}

impl Metrics {
    /// Fresh zeroed metrics backed by a fresh registry.
    pub fn new() -> Self {
        let registry = Registry::new();
        Metrics {
            ingested_records: registry.counter("topk_ingested_records_total"),
            ingest_requests: registry.counter("topk_ingest_requests_total"),
            queries: registry.counter("topk_queries_total"),
            cache_hits: registry.counter("topk_cache_hits_total"),
            cache_misses: registry.counter("topk_cache_misses_total"),
            snapshots: registry.counter("topk_snapshots_total"),
            restores: registry.counter("topk_restores_total"),
            errors: registry.counter("topk_errors_total"),
            connections: registry.counter("topk_connections_total"),
            server_shed: registry.counter("topk_server_shed_total"),
            server_timeouts: registry.counter("topk_server_timeouts_total"),
            server_oversized: registry.counter("topk_server_oversized_total"),
            server_panics: registry.counter("topk_server_panics_total"),
            lock_recoveries: registry.counter("topk_lock_recoveries_total"),
            journal_appends: registry.counter("topk_journal_appends_total"),
            journal_replayed_records: registry.counter("topk_journal_replayed_records_total"),
            journal_truncations: registry.counter("topk_journal_truncations_total"),
            shard_skips: registry.counter("topk_shard_skips_total"),
            approx_queries: registry.counter("topk_approx_queries_total"),
            approx_escalations: registry.counter("topk_approx_escalations_total"),
            flushes: registry.counter("topk_flushes_total"),
            explained_queries: registry.counter("topk_explained_queries_total"),
            slow_queries: registry.counter("topk_slow_queries_total"),
            journal_errors: registry.counter("topk_journal_errors_total"),
            replica_frames: registry.counter("topk_replica_frames_total"),
            replica_bootstraps: registry.counter("topk_replica_bootstraps_total"),
            replica_reconnects: registry.counter("topk_replica_reconnects_total"),
            repl_streams: registry.counter("topk_repl_streams_total"),
            deadline_exceeded: registry.counter("topk_deadline_exceeded_total"),
            memory_pressure: registry.counter("topk_memory_pressure_total"),
            brownout_entries: registry.counter("topk_brownout_entries_total"),
            brownout_exits: registry.counter("topk_brownout_exits_total"),
            degraded_queries: registry.counter("topk_degraded_queries_total"),
            admission_sheds: registry.counter("topk_admission_shed_total"),
            ingest_latency: registry.histogram("topk_ingest_latency_micros"),
            query_latency: registry.histogram("topk_query_latency_micros"),
            registry,
        }
    }

    /// The registry backing these metrics — use
    /// [`Registry::prometheus_text`] for the `metrics` protocol command.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Bump a counter by one.
    pub fn incr(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Current value of a counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Render the full metrics object for the `stats` response.
    pub fn summary(&self) -> crate::json::Json {
        use crate::json::{obj, Json};
        let n = |c: &AtomicU64| Json::Num(Self::get(c) as f64);
        obj(vec![
            ("ingested_records", n(&self.ingested_records)),
            ("ingest_requests", n(&self.ingest_requests)),
            ("queries", n(&self.queries)),
            ("cache_hits", n(&self.cache_hits)),
            ("cache_misses", n(&self.cache_misses)),
            ("snapshots", n(&self.snapshots)),
            ("restores", n(&self.restores)),
            ("errors", n(&self.errors)),
            ("connections", n(&self.connections)),
            ("server_shed", n(&self.server_shed)),
            ("server_timeouts", n(&self.server_timeouts)),
            ("server_oversized", n(&self.server_oversized)),
            ("server_panics", n(&self.server_panics)),
            ("lock_recoveries", n(&self.lock_recoveries)),
            ("journal_appends", n(&self.journal_appends)),
            (
                "journal_replayed_records",
                n(&self.journal_replayed_records),
            ),
            ("journal_truncations", n(&self.journal_truncations)),
            ("shard_skips", n(&self.shard_skips)),
            ("approx_queries", n(&self.approx_queries)),
            ("approx_escalations", n(&self.approx_escalations)),
            ("flushes", n(&self.flushes)),
            ("explained_queries", n(&self.explained_queries)),
            ("slow_queries", n(&self.slow_queries)),
            ("journal_errors", n(&self.journal_errors)),
            ("replica_frames", n(&self.replica_frames)),
            ("replica_bootstraps", n(&self.replica_bootstraps)),
            ("replica_reconnects", n(&self.replica_reconnects)),
            ("repl_streams", n(&self.repl_streams)),
            ("deadline_exceeded", n(&self.deadline_exceeded)),
            ("memory_pressure", n(&self.memory_pressure)),
            ("brownout_entries", n(&self.brownout_entries)),
            ("brownout_exits", n(&self.brownout_exits)),
            ("degraded_queries", n(&self.degraded_queries)),
            ("admission_sheds", n(&self.admission_sheds)),
            ("ingest_latency", histogram_summary(&self.ingest_latency)),
            ("query_latency", histogram_summary(&self.query_latency)),
        ])
    }

    /// One-line shutdown log, written to stderr when the server exits.
    pub fn log_line(&self) -> String {
        format!(
            "served {} queries ({} cache hits, {} misses), ingested {} records in {} requests, {} snapshots, {} restores, {} errors, {} connections ({} shed, {} timed out); query p50/p95/p99 {}/{}/{} µs, ingest p50/p95/p99 {}/{}/{} µs",
            Self::get(&self.queries),
            Self::get(&self.cache_hits),
            Self::get(&self.cache_misses),
            Self::get(&self.ingested_records),
            Self::get(&self.ingest_requests),
            Self::get(&self.snapshots),
            Self::get(&self.restores),
            Self::get(&self.errors),
            Self::get(&self.connections),
            Self::get(&self.server_shed),
            Self::get(&self.server_timeouts),
            self.query_latency.percentile_micros(50.0),
            self.query_latency.percentile_micros(95.0),
            self.query_latency.percentile_micros(99.0),
            self.ingest_latency.percentile_micros(50.0),
            self.ingest_latency.percentile_micros(95.0),
            self.ingest_latency.percentile_micros(99.0),
        )
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn counters_and_log_line() {
        let m = Metrics::new();
        Metrics::incr(&m.cache_hits);
        Metrics::incr(&m.queries);
        m.query_latency.record(Duration::from_micros(42));
        assert_eq!(Metrics::get(&m.cache_hits), 1);
        let line = m.log_line();
        assert!(line.contains("1 cache hits"), "{line}");
        let s = m.summary().to_string();
        assert!(s.contains("\"cache_hits\":1"), "{s}");
    }

    #[test]
    fn metrics_are_registry_backed() {
        let m = Metrics::new();
        Metrics::incr(&m.cache_misses);
        m.query_latency.record(Duration::from_micros(42));
        let text = m.registry().prometheus_text();
        assert!(text.contains("topk_cache_misses_total 1\n"), "{text}");
        assert!(text.contains("topk_cache_hits_total 0\n"), "{text}");
        assert!(
            text.contains("# TYPE topk_query_latency_micros histogram\n"),
            "{text}"
        );
        assert!(
            text.contains("topk_query_latency_micros_count 1\n"),
            "{text}"
        );
        // Two engines never share counters: fresh instance starts at zero.
        let other = Metrics::new();
        assert_eq!(Metrics::get(&other.cache_misses), 0);
    }

    #[test]
    fn stats_summary_uses_shared_histogram() {
        let m = Metrics::new();
        for _ in 0..4 {
            m.ingest_latency.record(Duration::from_micros(10));
        }
        let s = m.summary().to_string();
        assert!(s.contains("\"ingest_latency\""), "{s}");
        assert!(s.contains("\"count\":4"), "{s}");
    }
}
