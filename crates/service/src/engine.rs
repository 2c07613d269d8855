//! The resident query engine: N per-shard [`IncrementalDedup`]
//! collapses behind one reader-writer core lock, a generation-keyed
//! query cache, and incremental corpus statistics.
//!
//! # Sharding
//!
//! Records are routed to shards by [`ShardRouter`]: a pure function of
//! the match-field text whose key agrees with the sufficient
//! predicate's blocking partition, so **no collapse group ever spans
//! two shards** (see `crate::shard` for the soundness argument). That
//! static partition is what makes the whole design equivalence-
//! preserving: each shard runs the ordinary incremental collapse over
//! its own records, and a TopK answer is a cross-shard merge of the
//! shards' ordered group indexes — byte-identical to a single engine
//! over the same stream, at every shard count (proved by
//! `tests/serve_shards.rs` and `tests/prop_shards.rs`).
//!
//! Concurrency: ingest takes the core lock in **read** mode plus only
//! the mutexes of the shards it touches, so ingests for different
//! shards proceed in parallel. Queries take the core lock in **write**
//! mode, flush every pending record, and merge. The lock order is
//! core → schema → shard mutexes (ascending index) → cache, everywhere.
//!
//! # Collapse timing
//!
//! Ingested records are tokenized immediately — once, and only the
//! fields the predicate stack reads ([`crate::corpus::stack_fields`]);
//! the others keep their text alone — but merged into the
//! first-level collapse *lazily, at the next query*: the sufficient
//! predicate depends on corpus statistics, and deferring the merge to
//! query time means every record is collapsed under the newest
//! statistics available. Corpus statistics are folded at flush rather
//! than at ingest (the fold is order-independent, so the folded content
//! is identical); the only observable consequence is that the
//! `distinct_values` stat reflects the last flush, not the last ingest.
//! Records collapsed by an *earlier* query keep their insert-time
//! decisions — the documented [`IncrementalDedup`] drift caveat.
//!
//! # Query cache
//!
//! Responses are cached keyed on the query parameters; every entry also
//! remembers the ingest generation it was computed at. Ingestion bumps
//! the generation and clears the cache, so a repeated TopK refresh on a
//! quiet stream is a hash lookup — O(1), without touching the core lock
//! at all — while any ingestion invalidates exactly once. The
//! generation check makes staleness impossible even if an eviction
//! policy ever retains entries across ingests.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use topk_approx::{ApproxGroup, Population, SampleEntry, Sketch};
use topk_core::{GroupSummary, IncrementalDedup, IncrementalState, Parallelism, TopKRankQuery};
use topk_graph::UnionFind;
use topk_obs::SloTracker;
use topk_predicates::PredicateStack;
use topk_records::{FieldId, TokenizedRecord};
use topk_text::CorpusStats;

use crate::corpus::{stack_fields, stack_from_stats};
use crate::introspection::{ApproxProfile, ProfileRing, QueryProfile, ShardProfile};
use crate::journal::{self, JournalSet, Row, SetRecovery};
use crate::json::{obj, Json};
use crate::metrics::Metrics;
use crate::overload::{self, OverloadControl, Transition};
use crate::replication::{ReplLog, ReplicaStatus, Role, REPL_LOG_CAP};
use crate::shard::ShardRouter;
use crate::snapshot;

/// Maximum cached responses before the cache is wiped (entries are a few
/// hundred bytes each; distinct live query shapes are few).
const CACHE_CAP: usize = 128;

/// Profiles of explained queries retained for the `profiles` protocol
/// command (a flight recorder, not a log — oldest entries fall off).
const PROFILE_RING_CAP: usize = 64;

/// Engine construction parameters (fixed for the server's lifetime).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Schema field names, when fixed up front. `None` lets the first
    /// ingested record (or a restore) fix the arity, with fields named
    /// `col0`, `col1`, ...
    pub fields: Option<Vec<String>>,
    /// Name of the match field (`None` = first field).
    pub name_field: Option<String>,
    /// Rare-word document-frequency cap for the sufficient predicate.
    pub max_df: u32,
    /// 3-gram overlap fraction for the necessary predicate.
    pub min_overlap: f64,
    /// Thread budget for the query pipeline stages and the per-shard
    /// flush.
    pub parallelism: Parallelism,
    /// Number of engine shards (at least 1). Records are routed by
    /// blocking partition ([`ShardRouter`]), so answers are identical at
    /// every shard count; more shards buy concurrent ingest and
    /// parallel collapse on multi-core machines.
    pub shards: usize,
    /// p99 latency objective for the SLO tracker, µs (`health`
    /// command; `docs/OBSERVABILITY.md`, *SLOs & health*).
    pub slo_p99_micros: u64,
    /// Availability objective in parts per million (999_000 = 99.9%).
    pub slo_availability_ppm: u64,
    /// Resident-memory budget in estimated bytes (0 = unlimited).
    /// Ingests that would cross it are refused with
    /// `err:"memory_pressure"`; crossing the 80% high watermark enters
    /// brownout (`docs/ROBUSTNESS.md`, *Overload control*).
    pub memory_budget_bytes: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            fields: None,
            name_field: None,
            max_df: 30,
            min_overlap: 0.6,
            parallelism: Parallelism::auto(),
            shards: 1,
            slo_p99_micros: 50_000,
            slo_availability_ppm: 999_000,
            memory_budget_bytes: 0,
        }
    }
}

struct CacheEntry {
    generation: u64,
    body: Json,
}

/// Resolved schema; separate from [`Core`] so concurrent ingests can
/// double-check it under a cheap read lock.
struct Schema {
    /// Field names; `None` until the first record arrives.
    fields: Option<Vec<String>>,
    /// Match-field index (valid once `fields` is set).
    field: FieldId,
}

/// One engine shard: its own collapse, its own pending queue.
struct Shard {
    inc: IncrementalDedup,
    /// Global record id of each local id; strictly increasing, so local
    /// id order equals global ingest order restricted to this shard.
    gids: Vec<u32>,
    /// Blocking-partition key ([`ShardRouter::key`]) of each local id.
    keys: Vec<u64>,
    /// Ingested but not yet collapsed records, tagged with their global
    /// record id (rid) so flush can restore the global ingest order.
    pending: Vec<(u64, TokenizedRecord)>,
    /// Bottom-m sample sketch over this shard's collapsed records,
    /// maintained at flush; merged across shards at approximate-query
    /// time (`docs/APPROX.md`).
    sample: Sketch,
}

impl Default for Shard {
    fn default() -> Self {
        Shard {
            inc: IncrementalDedup::new(),
            gids: Vec::new(),
            keys: Vec::new(),
            pending: Vec::new(),
            sample: Sketch::with_defaults(),
        }
    }
}

/// Everything behind the core reader-writer lock.
struct Core {
    shards: Vec<Mutex<Shard>>,
    /// gid -> (shard index, local id).
    global: Vec<(u32, u32)>,
    /// Document frequencies over distinct match-field values, folded at
    /// flush (`seen` holds hashes of values already counted). Shared
    /// with each predicate stack, which is dropped before the next fold.
    stats: Arc<CorpusStats>,
    seen: HashSet<u64>,
    /// Largest single-record weight ever collapsed — the bound the
    /// approximate estimator's fallback interval stands on.
    max_weight: f64,
}

/// Thread-safe resident engine; the server shares one behind an `Arc`.
pub struct Engine {
    cfg: EngineConfig,
    schema: RwLock<Schema>,
    core: RwLock<Core>,
    cache: Mutex<HashMap<String, CacheEntry>>,
    /// Total records ever accepted (monotone; restored from snapshots).
    generation: AtomicU64,
    /// Next global record id to assign at ingest.
    next_rid: AtomicU64,
    /// Write-ahead ingest journal, when durability is enabled
    /// (`topk serve --journal`): one segment per shard, appended before
    /// an ingest is applied.
    journal: Option<JournalSet>,
    /// Per-shard (records, groups, sample) gauges, refreshed at flush.
    shard_gauges: Vec<(Arc<AtomicI64>, Arc<AtomicI64>, Arc<AtomicI64>)>,
    /// Per-shard journal-segment byte gauges, registered by
    /// [`Self::attach_journal`] and refreshed at exposition time.
    journal_gauges: Vec<Arc<AtomicI64>>,
    /// Per-window `[p99_micros, availability_ppm, budget_ppm]` gauges,
    /// refreshed from [`Self::slo`] at exposition time.
    slo_gauges: Vec<[Arc<AtomicI64>; 3]>,
    /// `topk_uptime_seconds`, refreshed at exposition time.
    uptime_gauge: Arc<AtomicI64>,
    /// Engine creation time (the `uptime_seconds` epoch).
    start: Instant,
    /// Rolling-window SLO tracker behind the `health` command; the
    /// server records one sample per served request.
    slo: SloTracker,
    /// Profiles of explained queries, drained by the `profiles`
    /// protocol command.
    profiles: ProfileRing,
    /// This server's replication role (primary by default; `--replica-of`
    /// makes it a replica at startup).
    role: AtomicU8,
    /// Replication epoch: starts at 1, bumped by every promotion. The
    /// handshake compares epochs both ways to refuse stale leaders.
    epoch: AtomicU64,
    /// In-memory window of encoded ingest entries, published under the
    /// core read guard so log order equals apply order; `replicate`
    /// streams tail it.
    repl_log: ReplLog,
    /// Replica-side progress (meaningful while the role is replica).
    replica: Mutex<ReplicaStatus>,
    /// Serializes replica applies against promotion: `promote` holds it
    /// while flipping the role, so no half-applied entry can straddle
    /// the role change.
    apply_gate: Mutex<()>,
    /// `topk_epoch`, `topk_replica_connected`, `topk_replica_lag_entries`,
    /// `topk_replica_lag_ms` — refreshed at exposition time.
    repl_gauges: [Arc<AtomicI64>; 4],
    /// Overload control: memory accounting/budget, brownout state, and
    /// per-class query-cost EWMAs (`crate::overload`).
    overload: OverloadControl,
    /// Counters and latency histograms (lock-free, shared with the
    /// server's stats command and shutdown log).
    pub metrics: Metrics,
}

impl Engine {
    /// Fresh engine with no records.
    pub fn new(cfg: EngineConfig) -> Result<Engine, String> {
        if cfg.shards == 0 {
            return Err("shard count must be at least 1".into());
        }
        let field = match (&cfg.fields, &cfg.name_field) {
            (Some(fields), Some(name)) => FieldId(
                fields
                    .iter()
                    .position(|f| f == name)
                    .ok_or_else(|| format!("no field named `{name}` in --fields"))?,
            ),
            _ => FieldId(0),
        };
        let metrics = Metrics::new();
        let shard_gauges = (0..cfg.shards)
            .map(|i| {
                (
                    metrics.registry().gauge(&format!("topk_shard_{i}_records")),
                    metrics.registry().gauge(&format!("topk_shard_{i}_groups")),
                    metrics.registry().gauge(&format!("topk_shard_{i}_sample")),
                )
            })
            .collect();
        let slo_gauges = topk_obs::slo::WINDOWS
            .iter()
            .map(|(_, w)| {
                [
                    metrics
                        .registry()
                        .gauge(&format!("topk_slo_{w}_p99_micros")),
                    metrics
                        .registry()
                        .gauge(&format!("topk_slo_{w}_availability_ppm")),
                    metrics
                        .registry()
                        .gauge(&format!("topk_slo_{w}_error_budget_remaining_ppm")),
                ]
            })
            .collect();
        let uptime_gauge = metrics.registry().gauge("topk_uptime_seconds");
        let repl_gauges = [
            metrics.registry().gauge("topk_epoch"),
            metrics.registry().gauge("topk_replica_connected"),
            metrics.registry().gauge("topk_replica_lag_entries"),
            metrics.registry().gauge("topk_replica_lag_ms"),
        ];
        repl_gauges[0].store(1, Ordering::Relaxed);
        let overload =
            OverloadControl::new(cfg.memory_budget_bytes, cfg.shards, metrics.registry());
        let shards = (0..cfg.shards)
            .map(|_| Mutex::new(Shard::default()))
            .collect();
        Ok(Engine {
            schema: RwLock::new(Schema {
                fields: cfg.fields.clone(),
                field,
            }),
            core: RwLock::new(Core {
                shards,
                global: Vec::new(),
                stats: Arc::new(CorpusStats::new()),
                seen: HashSet::new(),
                max_weight: 0.0,
            }),
            cache: Mutex::new(HashMap::new()),
            generation: AtomicU64::new(0),
            next_rid: AtomicU64::new(0),
            journal: None,
            shard_gauges,
            journal_gauges: Vec::new(),
            slo_gauges,
            uptime_gauge,
            start: Instant::now(),
            slo: SloTracker::new(cfg.slo_p99_micros, cfg.slo_availability_ppm),
            profiles: ProfileRing::new(PROFILE_RING_CAP),
            role: AtomicU8::new(Role::Primary.as_u8()),
            epoch: AtomicU64::new(1),
            repl_log: ReplLog::new(REPL_LOG_CAP),
            replica: Mutex::new(ReplicaStatus::default()),
            apply_gate: Mutex::new(()),
            repl_gauges,
            overload,
            metrics,
            cfg,
        })
    }

    // ---- lock plumbing (poison-recovering) ------------------------------

    fn recover_poison(&self) {
        Metrics::incr(&self.metrics.lock_recoveries);
        topk_obs::warn!("engine lock poisoned by a panicked handler; recovering");
    }

    fn read_core(&self) -> RwLockReadGuard<'_, Core> {
        self.core.read().unwrap_or_else(|p| {
            self.recover_poison();
            p.into_inner()
        })
    }

    fn write_core(&self) -> RwLockWriteGuard<'_, Core> {
        self.core.write().unwrap_or_else(|p| {
            self.recover_poison();
            p.into_inner()
        })
    }

    fn read_schema(&self) -> RwLockReadGuard<'_, Schema> {
        self.schema.read().unwrap_or_else(|p| {
            self.recover_poison();
            p.into_inner()
        })
    }

    fn write_schema(&self) -> RwLockWriteGuard<'_, Schema> {
        self.schema.write().unwrap_or_else(|p| {
            self.recover_poison();
            p.into_inner()
        })
    }

    fn lock_shard<'a>(&self, m: &'a Mutex<Shard>) -> MutexGuard<'a, Shard> {
        m.lock().unwrap_or_else(|p| {
            self.recover_poison();
            p.into_inner()
        })
    }

    fn lock_cache(&self) -> MutexGuard<'_, HashMap<String, CacheEntry>> {
        self.cache.lock().unwrap_or_else(|p| {
            self.recover_poison();
            p.into_inner()
        })
    }

    /// Exclusive shard access through a held core **write** guard — no
    /// mutex wait is possible, but a poisoned mutex is still recovered.
    fn shard_mut(m: &mut Mutex<Shard>) -> &mut Shard {
        match m.get_mut() {
            Ok(s) => s,
            Err(p) => p.into_inner(),
        }
    }

    // ---- overload helpers ----------------------------------------------

    /// Gate an ingest on the memory budget; on refusal bump the
    /// backpressure metric and emit the transition span.
    fn admit_ingest(&self, incoming: u64) -> Result<(), String> {
        self.overload.admit(incoming).map_err(|e| {
            Metrics::incr(&self.metrics.memory_pressure);
            let mut sp = topk_obs::Span::enter("service.overload");
            sp.record("event", "memory_pressure");
            sp.record("incoming_bytes", incoming);
            topk_obs::warn!("{e}");
            e
        })
    }

    /// Abort with `deadline_exceeded` when the request's deadline has
    /// passed — called at every stage boundary of the query pipeline so
    /// no work burns past the budget.
    fn check_deadline(&self, deadline: Option<Instant>, stage: &'static str) -> Result<(), String> {
        let Some(d) = deadline else {
            return Ok(());
        };
        if Instant::now() >= d {
            Metrics::incr(&self.metrics.deadline_exceeded);
            let mut sp = topk_obs::Span::enter("service.overload");
            sp.record("event", "deadline_exceeded");
            sp.record("stage", stage);
            return Err(format!(
                "deadline_exceeded: request budget exhausted before {stage}"
            ));
        }
        Ok(())
    }

    // ---- journal --------------------------------------------------------

    /// Enable write-ahead journaling. Call before the engine is shared;
    /// the set must have one segment per engine shard. The caller
    /// replays what [`JournalSet::open`] recovered via
    /// [`Self::replay_rows`].
    pub fn attach_journal(&mut self, journal: JournalSet) {
        assert_eq!(
            journal.n_segments(),
            self.cfg.shards,
            "journal set must have one segment per shard"
        );
        self.journal_gauges = (0..journal.n_segments())
            .map(|i| {
                self.metrics
                    .registry()
                    .gauge(&format!("topk_journal_segment_{i}_bytes"))
            })
            .collect();
        self.journal = Some(journal);
    }

    /// Whether a journal is attached.
    pub fn has_journal(&self) -> bool {
        self.journal.is_some()
    }

    /// The attached journal set, when durability is enabled — exposed so
    /// fault-injection tests can reach [`JournalSet::set_fail_appends`].
    pub fn journal_set(&self) -> Option<&JournalSet> {
        self.journal.as_ref()
    }

    /// Re-apply rows recovered from the journal at startup, *without*
    /// re-appending them (they are already durable). Rows arrive sorted
    /// by record id — the global ingest order — and the rid counter is
    /// resumed above the largest id on disk so future appends sort after
    /// everything already journaled. Returns the new generation.
    pub fn replay_rows(&self, recovery: SetRecovery) -> Result<u64, String> {
        let SetRecovery { rows, max_rid, .. } = recovery;
        let plain: Vec<(Vec<String>, f64)> =
            rows.into_iter().map(|(_, fields, w)| (fields, w)).collect();
        let mut generation = self.generation.load(Ordering::Acquire);
        let mut replayed = 0u64;
        if !plain.is_empty() {
            match self.apply_ingest(plain.clone(), false) {
                Ok(g) => {
                    generation = g;
                    replayed = plain.len() as u64;
                }
                Err(_) => {
                    // A row that fails to apply failed identically when
                    // it was first ingested — the client got an error
                    // and the state did not change. Skipping it
                    // reproduces that state; aborting would lose
                    // everything after it.
                    for (fields, w) in plain {
                        match self.apply_ingest(vec![(fields, w)], false) {
                            Ok(g) => {
                                generation = g;
                                replayed += 1;
                            }
                            Err(e) => {
                                topk_obs::warn!("journal replay: skipping bad row: {e}");
                            }
                        }
                    }
                }
            }
        }
        if let Some(m) = max_rid {
            self.next_rid.fetch_max(m + 1, Ordering::AcqRel);
        }
        self.metrics
            .journal_replayed_records
            .fetch_add(replayed, Ordering::Relaxed);
        Ok(generation)
    }

    // ---- ingest ---------------------------------------------------------

    /// Ingest raw rows (field texts + weight). Fields are normalized
    /// exactly like file loading normalizes them, then tokenized once.
    /// With a journal attached, the rows are made durable *before* they
    /// are applied, so a crash at any point re-applies them on restart.
    /// Returns the new ingest generation.
    pub fn ingest(&self, rows: Vec<(Vec<String>, f64)>) -> Result<u64, String> {
        self.apply_ingest(rows, true)
    }

    /// Fix the schema on first contact, or validate every record's arity
    /// against it. Double-checked: once the schema exists this is a read
    /// lock only. A failing batch may still fix the schema from its
    /// first record — mirroring that a client's first (rejected) request
    /// still pins the arity for the session.
    fn check_schema(
        &self,
        arities: impl Iterator<Item = usize> + Clone,
    ) -> Result<FieldId, String> {
        let mismatch =
            |got: usize, want: usize| format!("record has {got} fields, schema has {want}");
        {
            let schema = self.read_schema();
            if let Some(fields) = &schema.fields {
                if let Some(got) = arities.clone().find(|&a| a != fields.len()) {
                    return Err(mismatch(got, fields.len()));
                }
                return Ok(schema.field);
            }
        }
        let mut schema = self.write_schema();
        for arity in arities {
            match &schema.fields {
                Some(fields) => {
                    if arity != fields.len() {
                        return Err(mismatch(arity, fields.len()));
                    }
                }
                None => {
                    if arity == 0 {
                        return Err("record has no fields".into());
                    }
                    let fields: Vec<String> = (0..arity).map(|i| format!("col{i}")).collect();
                    if let Some(name) = &self.cfg.name_field {
                        schema.field = FieldId(
                            fields
                                .iter()
                                .position(|f| f == name)
                                .ok_or_else(|| format!("no field named `{name}`"))?,
                        );
                    }
                    schema.fields = Some(fields);
                }
            }
        }
        Ok(schema.field)
    }

    /// The tail every ingest path shares, under the core read guard it
    /// is handed: admit the routed batch against the memory budget, lock
    /// the touched shards in ascending index order, journal the batch
    /// (all-or-nothing across segments), stage the records as pending,
    /// publish the replication entry and count the records. The shard
    /// locks are held across the journal append so no concurrent
    /// snapshot can truncate between durability and application.
    fn commit_staged(
        &self,
        core: RwLockReadGuard<'_, Core>,
        mut buckets: Vec<Vec<(u64, TokenizedRecord)>>,
        seg_rows: Option<&[Vec<Row>]>,
        repl_payload: Option<Vec<u8>>,
    ) -> Result<u64, String> {
        let n: u64 = buckets.iter().map(|b| b.len() as u64).sum();
        let shard_bytes: Vec<u64> = buckets
            .iter()
            .map(|b| b.iter().map(|(_, t)| overload::record_bytes(t)).sum())
            .collect();
        // Replicas stand under the same watermarks as the primary: an
        // over-budget apply is refused and surfaced as pressure by the
        // tailer instead of silently growing past the budget.
        self.admit_ingest(shard_bytes.iter().sum())?;
        let mut guards: Vec<(usize, MutexGuard<'_, Shard>)> = Vec::new();
        for (i, m) in core.shards.iter().enumerate() {
            if !buckets[i].is_empty() {
                guards.push((i, self.lock_shard(m)));
            }
        }
        if let (Some(rows), Some(j)) = (seg_rows, &self.journal) {
            j.append_sharded(rows).map_err(|e| {
                Metrics::incr(&self.metrics.journal_errors);
                format!("journal append failed, ingest not applied: {e}")
            })?;
            Metrics::incr(&self.metrics.journal_appends);
        }
        for (i, g) in guards.iter_mut() {
            g.pending.append(&mut buckets[*i]);
        }
        drop(guards);
        for (si, &staged) in shard_bytes.iter().enumerate() {
            self.overload.add(si, staged);
        }
        // Publish and count before the read guard goes: a snapshot cut
        // takes the write lock, so its cursor never misses an entry that
        // is already staged and its `generation` never lags the records
        // it carries. (The cache is generation-keyed, so counting before
        // it is cleared is safe.)
        if let Some(payload) = repl_payload {
            self.repl_log.publish(payload);
        }
        let generation = self.generation.fetch_add(n, Ordering::AcqRel) + n;
        drop(core);
        self.lock_cache().clear(); // ingestion invalidates every cached answer
        self.metrics
            .ingested_records
            .fetch_add(n, Ordering::Relaxed);
        Ok(generation)
    }

    /// Validate, normalize and tokenize a batch — outside every lock —
    /// for the match field the schema names now: sets for the fields the
    /// predicate stack reads ([`stack_fields`]), the text alone for the
    /// rest. The arities (normalizing changes none) are checked first
    /// because the field must be known before tokenizing;
    /// [`Self::stage_batch`] confirms both under the core guard.
    fn tokenize_batch<'a>(
        &self,
        rows: impl Iterator<Item = (&'a [String], f64)> + Clone,
    ) -> Result<(FieldId, Vec<TokenizedRecord>), String> {
        if let Some((_, weight)) = rows.clone().find(|(_, w)| !w.is_finite() || *w < 0.0) {
            return Err(format!("weight {weight} must be finite and >= 0"));
        }
        let field = self.check_schema(rows.clone().map(|(fields, _)| fields.len()))?;
        let read = stack_fields(field);
        let tokenize = |(fields, weight): (&[String], f64)| {
            let texts: Vec<String> = fields
                .iter()
                .map(|f| topk_text::normalize::normalize(f))
                .collect();
            TokenizedRecord::from_fields_reading(&texts, weight, &read)
        };
        Ok((field, rows.map(tokenize).collect()))
    }

    /// Route a tokenized batch and commit it, under the core **read**
    /// guard, so concurrent ingests only contend on the shard mutexes
    /// they actually touch. `rows` are the batch as the request carried
    /// it; `assign_rids` numbers them from the engine's counter (a
    /// replica keeps the primary's), `journal: false` is replay — the
    /// recovered rows are already durable. Returns the new generation.
    fn stage_batch(
        &self,
        (mut field, mut toks): (FieldId, Vec<TokenizedRecord>),
        mut rows: Vec<Row>,
        assign_rids: bool,
        journal: bool,
    ) -> Result<u64, String> {
        let core = self.read_core();
        // `restore` and replica bootstrap replace the schema, match field
        // included, under the core write lock: what it says now holds
        // until the batch is staged, and a batch tokenized for another
        // field is tokenized again, never staged as it is.
        let now = self.check_schema(toks.iter().map(TokenizedRecord::arity))?;
        if now != field {
            field = now;
            for t in &mut toks {
                t.tokenize_only(&stack_fields(field));
            }
        }
        let router = ShardRouter::new(self.cfg.shards);
        let n = rows.len();
        if assign_rids {
            let base = self.next_rid.fetch_add(n as u64, Ordering::AcqRel);
            for (i, row) in rows.iter_mut().enumerate() {
                row.0 = base + i as u64;
            }
        } else if let Some(max_rid) = rows.iter().map(|row| row.0).max() {
            self.next_rid.fetch_max(max_rid + 1, Ordering::AcqRel);
        }
        let want_journal = journal && self.journal.is_some();
        let mut buckets: Vec<Vec<(u64, TokenizedRecord)>> =
            (0..self.cfg.shards).map(|_| Vec::new()).collect();
        let mut seg_rows: Vec<Vec<Row>> = (0..self.cfg.shards).map(|_| Vec::new()).collect();
        for (t, row) in toks.into_iter().zip(&rows) {
            let si = router.route(&t.field(field).text);
            if want_journal {
                seg_rows[si].push(row.clone());
            }
            buckets[si].push((row.0, t));
        }
        let seg_rows = want_journal.then_some(&seg_rows[..]);
        self.commit_staged(core, buckets, seg_rows, Some(journal::encode_entry(&rows)?))
    }

    /// Tokenize, route, and apply rows; replay passes `journal: false`.
    fn apply_ingest(&self, rows: Vec<(Vec<String>, f64)>, journal: bool) -> Result<u64, String> {
        let t0 = Instant::now();
        let mut sp = topk_obs::Span::enter("service.ingest");
        sp.record("records", rows.len());
        let batch = self.tokenize_batch(rows.iter().map(|(f, w)| (&f[..], *w)))?;
        let rows = rows.into_iter().map(|(f, w)| (0, f, w)).collect();
        let generation = self.stage_batch(batch, rows, true, journal)?;
        Metrics::incr(&self.metrics.ingest_requests);
        self.metrics.ingest_latency.record(t0.elapsed());
        Ok(generation)
    }

    /// Ingest records that are already normalized and tokenized (the
    /// `--preload` path: the corpus loader tokenized them, no second
    /// pass). `fields` is the file's schema.
    pub fn ingest_toks(
        &self,
        toks: Vec<TokenizedRecord>,
        fields: Vec<String>,
        field: FieldId,
    ) -> Result<u64, String> {
        let t0 = Instant::now();
        let mut sp = topk_obs::Span::enter("service.ingest");
        sp.record("records", toks.len());
        sp.record("preloaded", true);
        let core = self.read_core();
        let eng_field = {
            let mut schema = self.write_schema();
            match &schema.fields {
                Some(existing) if existing.len() != fields.len() => {
                    return Err(format!(
                        "preload has {} fields, engine schema has {}",
                        fields.len(),
                        existing.len()
                    ));
                }
                Some(_) => {}
                None => {
                    schema.fields = Some(fields);
                    schema.field = field;
                }
            }
            schema.field
        };
        let router = ShardRouter::new(self.cfg.shards);
        let n = toks.len();
        let base = self.next_rid.fetch_add(n as u64, Ordering::AcqRel);
        let mut buckets: Vec<Vec<(u64, TokenizedRecord)>> =
            (0..self.cfg.shards).map(|_| Vec::new()).collect();
        for (i, mut t) in toks.into_iter().enumerate() {
            // The loader tokenized every field; what stays resident is
            // what any other ingest leaves.
            t.tokenize_only(&stack_fields(eng_field));
            let si = router.route(&t.field(eng_field).text);
            buckets[si].push((base + i as u64, t));
        }
        let generation = self.commit_staged(core, buckets, None, None)?;
        Metrics::incr(&self.metrics.ingest_requests);
        self.metrics.ingest_latency.record(t0.elapsed());
        Ok(generation)
    }

    /// Apply one replicated journal entry, **preserving the primary's
    /// record ids**: flush sorts pending rows by rid, so re-applying the
    /// primary's entries — in any arrival order — collapses into the
    /// exact state the primary holds, at any shard count. The entry is
    /// journaled locally (same rids) and re-published to this server's
    /// own replication log, so replicas can chain.
    ///
    /// Returns `Ok(false)` without touching state when the engine is no
    /// longer a replica (a concurrent `promote` won the apply gate).
    pub fn apply_replica_entry(&self, rows: Vec<Row>) -> Result<bool, String> {
        let _gate = self.apply_gate.lock().unwrap_or_else(|p| p.into_inner());
        if self.role() != Role::Replica {
            return Ok(false);
        }
        self.apply_rows(rows)?;
        Ok(true)
    }

    /// Ingest rows that already carry record ids (the replication apply
    /// path): [`Self::apply_ingest`] except that the rids are kept and
    /// the rid counter is raised above the largest one seen.
    fn apply_rows(&self, rows: Vec<Row>) -> Result<u64, String> {
        let t0 = Instant::now();
        let mut sp = topk_obs::Span::enter("service.replica_apply");
        sp.record("records", rows.len());
        let batch = self.tokenize_batch(rows.iter().map(|(_, f, w)| (&f[..], *w)))?;
        let generation = self.stage_batch(batch, rows, false, true)?;
        self.metrics.ingest_latency.record(t0.elapsed());
        Ok(generation)
    }

    // ---- flush ----------------------------------------------------------

    /// The predicate stack under the statistics folded so far.
    fn stack(&self, stats: &Arc<CorpusStats>, field: FieldId) -> PredicateStack {
        stack_from_stats(
            Arc::clone(stats),
            field,
            self.cfg.max_df,
            self.cfg.min_overlap,
        )
    }

    /// Merge every pending record into its shard's collapse under the
    /// *current* corpus statistics. Requires the core write lock (shard
    /// mutexes are reached via `get_mut` — no waiting). Per-shard
    /// inserts run on scoped threads when parallelism and the shard
    /// count allow. Returns whether anything was flushed.
    fn flush_locked(&self, core: &mut Core, field: FieldId) -> bool {
        let Core {
            shards,
            global,
            stats,
            seen,
            max_weight,
        } = core;
        let mut shard_refs: Vec<&mut Shard> = shards.iter_mut().map(Self::shard_mut).collect();
        let total: usize = shard_refs.iter().map(|s| s.pending.len()).sum();
        if total == 0 {
            return false;
        }
        let mut sp = topk_obs::Span::enter("service.flush");
        sp.record("records", total);
        // Per-shard pending back into rid order (concurrent ingests may
        // have interleaved): a shard's insert order then equals the
        // global ingest order restricted to that shard, which is what
        // keeps the collapse byte-identical to an unsharded engine.
        for s in shard_refs.iter_mut() {
            s.pending.sort_by_key(|&(rid, _)| rid);
        }
        // Fold corpus statistics for every pending record. The fold is
        // order-independent (set-guarded counting), so folding shard by
        // shard produces exactly the statistics the unsharded engine
        // folds at ingest time.
        let folded = Arc::make_mut(stats);
        for s in shard_refs.iter() {
            for (_, t) in &s.pending {
                let f = t.field(field);
                if seen.insert(topk_text::hash::hash_str(&f.text)) {
                    folded.add_document(f.words());
                }
                if t.weight() > *max_weight {
                    *max_weight = t.weight();
                }
            }
        }
        // Dense global ids in global rid order, appended to the gid map.
        let mut order: Vec<(u64, u32)> = Vec::with_capacity(total);
        for (si, s) in shard_refs.iter().enumerate() {
            order.extend(s.pending.iter().map(|&(rid, _)| (rid, si as u32)));
        }
        order.sort_unstable();
        let mut staged_gids: Vec<Vec<u32>> = shard_refs
            .iter()
            .map(|s| Vec::with_capacity(s.pending.len()))
            .collect();
        let mut next_local: Vec<u32> = shard_refs.iter().map(|s| s.inc.len() as u32).collect();
        for &(_, si) in &order {
            let gid = global.len() as u32;
            global.push((si, next_local[si as usize]));
            next_local[si as usize] += 1;
            staged_gids[si as usize].push(gid);
        }
        // One predicate stack under the settled statistics: every shard
        // collapses under the same statistics a single engine would use.
        let stack = self.stack(stats, field);
        let s_pred = stack.levels[0].0.as_ref();
        let insert = |shard: &mut Shard, gids: Vec<u32>| {
            for ((_, t), gid) in shard.pending.drain(..).zip(gids) {
                let key = ShardRouter::key(&t.field(field).text);
                shard.sample.offer(gid as u64, key, &t);
                let local = shard.inc.insert(t, s_pred);
                debug_assert_eq!(local as usize, shard.gids.len());
                shard.gids.push(gid);
                shard.keys.push(key);
            }
            shard.inc.sync_index();
        };
        let work: Vec<(&mut Shard, Vec<u32>)> = shard_refs
            .into_iter()
            .zip(staged_gids)
            .filter(|(s, _)| !s.pending.is_empty())
            .collect();
        if self.cfg.parallelism.is_sequential() || work.len() <= 1 {
            for (shard, gids) in work {
                insert(shard, gids);
            }
        } else {
            std::thread::scope(|scope| {
                let insert = &insert;
                for (shard, gids) in work {
                    scope.spawn(move || insert(shard, gids));
                }
            });
        }
        for (i, m) in shards.iter_mut().enumerate() {
            let s = Self::shard_mut(m);
            self.shard_gauges[i]
                .0
                .store(s.inc.len() as i64, Ordering::Relaxed);
            self.shard_gauges[i]
                .1
                .store(s.inc.group_count() as i64, Ordering::Relaxed);
            self.shard_gauges[i]
                .2
                .store(s.sample.len() as i64, Ordering::Relaxed);
        }
        Metrics::incr(&self.metrics.flushes);
        true
    }

    // ---- queries --------------------------------------------------------

    /// The one query entry point every `topk`/`topr` variant funnels
    /// through: `rank` selects the TopR shape, `approx` the sampled tier
    /// at ε, `explain` attaches a profile, and `deadline` is the
    /// request's remaining wall-clock budget — checked at every stage
    /// boundary, so an expired request aborts with a
    /// `deadline_exceeded`-prefixed error instead of burning work.
    /// Successful executions feed the per-class cost EWMA that
    /// cost-based admission (`Self::overload_gate`) reads.
    pub fn query_with(
        &self,
        rank: bool,
        k: usize,
        approx: Option<f64>,
        explain: bool,
        deadline: Option<Instant>,
    ) -> Result<Json, String> {
        if let Some(epsilon) = approx {
            topk_approx::validate_epsilon(epsilon)?;
            Metrics::incr(&self.metrics.approx_queries);
        }
        self.check_deadline(deadline, "admission")?;
        let cmd = if rank { "topr" } else { "topk" };
        let key = match approx {
            Some(epsilon) => format!("{cmd}:k={k}:approx={epsilon}"),
            None => format!("{cmd}:k={k}"),
        };
        let t0 = Instant::now();
        let compute = move |engine: &Engine,
                            core: &mut Core,
                            field: FieldId,
                            prof: Option<&mut QueryProfile>| {
            // The deadline may have expired while waiting for the core
            // lock or flushing pending records.
            engine.check_deadline(deadline, "compute")?;
            match approx {
                Some(epsilon) => {
                    engine.compute_approx(core, field, k, epsilon, rank, deadline, prof)
                }
                None if rank => engine.compute_topr(core, field, k, deadline, prof),
                None => engine.compute_topk(core, field, k, deadline, prof),
            }
        };
        let res = if explain {
            let mut p = QueryProfile::new(cmd, k);
            self.cached_query(key, Some(&mut p), compute)
                .map(|body| self.finish_explained(body, p))
        } else {
            self.cached_query(key, None, compute)
        };
        if res.is_ok() {
            self.overload.record_cost(
                overload::cost_class(rank, approx.is_some()),
                t0.elapsed().as_micros() as u64,
            );
        }
        res
    }

    /// TopK count-style query: the K heaviest collapsed groups surviving
    /// the bound/prune machinery, rendered as a JSON result body.
    pub fn query_topk(&self, k: usize) -> Result<Json, String> {
        self.query_with(false, k, None, false, None)
    }

    /// TopR rank-style query (§7.1): group *order* with upper bounds and
    /// a certification flag — the cheap way to keep a leaderboard fresh.
    pub fn query_topr(&self, k: usize) -> Result<Json, String> {
        self.query_with(true, k, None, false, None)
    }

    /// Run the brownout state machine and cost-based admission for one
    /// `topk`/`topr` request. `Ok(None)` serves the request as asked;
    /// `Ok(Some(ε))` means brownout is active and an *exact* request
    /// must degrade to the approx tier at ε (marked `degraded:true` by
    /// the server); `Err(retry_after_ms)` sheds the request because its
    /// estimated cost cannot fit the remaining deadline or the latency
    /// objective. Transitions bump metrics and emit spans exactly once
    /// per edge.
    pub fn overload_gate(
        &self,
        rank: bool,
        approx_requested: bool,
        deadline: Option<Instant>,
    ) -> Result<Option<f64>, u64> {
        // The 1m window drives brownout: long windows would hold the
        // degraded tier for an hour after a transient spike. A handful
        // of samples is noise, not a violation.
        let slo_bad = self
            .slo
            .report()
            .first()
            .is_some_and(|w| !w.p99_ok && w.total >= 16);
        let (active, transition) = self.overload.evaluate(slo_bad);
        match transition {
            Some(Transition::Entered) => {
                Metrics::incr(&self.metrics.brownout_entries);
                let mut sp = topk_obs::Span::enter("service.overload");
                sp.record("event", "brownout_enter");
                sp.record("slo_bad", slo_bad);
                sp.record("memory_bytes", self.overload.total_bytes());
                topk_obs::warn!(
                    "brownout entered: slo_bad={slo_bad}, memory {} of {} bytes — exact \
                     queries degrade to the approx tier",
                    self.overload.total_bytes(),
                    self.overload.budget()
                );
            }
            Some(Transition::Exited) => {
                Metrics::incr(&self.metrics.brownout_exits);
                let mut sp = topk_obs::Span::enter("service.overload");
                sp.record("event", "brownout_exit");
                topk_obs::info!("brownout exited: pressure cleared, exact answers resume");
            }
            None => {}
        }
        if !active {
            return Ok(None);
        }
        let degrade = if approx_requested {
            None
        } else {
            Some(self.overload.epsilon(slo_bad))
        };
        // Admission considers the class that will actually run — the
        // degraded (approx) tier when degrading — so cheap queries keep
        // succeeding while ones that cannot meet their budget shed.
        let class = overload::cost_class(rank, approx_requested || degrade.is_some());
        if let Some(cost) = self.overload.estimated_cost_micros(class) {
            let over_deadline = deadline.is_some_and(|d| {
                d.saturating_duration_since(Instant::now()).as_micros() < cost as u128
            });
            let over_target = cost > self.slo.p99_target_micros().saturating_mul(4);
            if over_deadline || over_target {
                Metrics::incr(&self.metrics.admission_sheds);
                let mut sp = topk_obs::Span::enter("service.overload");
                sp.record("event", "admission_shed");
                sp.record("estimated_cost_micros", cost);
                return Err(overload::RETRY_AFTER_MS);
            }
        }
        Ok(degrade)
    }

    /// The overload-control state (memory gauges, brownout flag) — read
    /// by the server's health body and by tests.
    pub fn overload(&self) -> &OverloadControl {
        &self.overload
    }

    /// Seal an explained query: count it, push the rendered profile
    /// into the ring for `profiles`, and append it to the response
    /// body. The *cache* stores the unprofiled body (the profile
    /// describes one execution, not the answer), so explain-on and
    /// explain-off queries share cache entries.
    fn finish_explained(&self, body: Json, profile: QueryProfile) -> Json {
        Metrics::incr(&self.metrics.explained_queries);
        let rendered = profile.render();
        self.profiles.push(rendered.clone());
        match body {
            Json::Obj(mut members) => {
                members.push(("profile".to_string(), rendered));
                Json::Obj(members)
            }
            other => other,
        }
    }

    /// Take every buffered explained-query profile, oldest first (the
    /// `profiles` protocol command).
    pub fn drain_profiles(&self) -> Vec<Json> {
        self.profiles.drain()
    }

    /// Shared implementation of the approximate queries: sample →
    /// estimate → escalate → merge. `as_topr` switches the rendered
    /// shape (`entries`/`certified` vs `groups`).
    #[allow(clippy::too_many_arguments)] // one call site, mirrors the query wire options
    fn compute_approx(
        &self,
        core: &mut Core,
        field: FieldId,
        k: usize,
        epsilon: f64,
        as_topr: bool,
        deadline: Option<Instant>,
        mut prof: Option<&mut QueryProfile>,
    ) -> Result<Json, String> {
        assert!(k >= 1, "K must be at least 1");
        let Core {
            shards,
            global,
            stats,
            max_weight,
            ..
        } = core;
        let m = topk_approx::sample_size(epsilon);
        let n = global.len() as u64;
        let render = |items: Vec<Json>, escalated_parts: usize, used: usize, certified: bool| {
            let mut body = vec![
                ("epsilon", Json::Num(epsilon)),
                ("sample_size", Json::Num(used as f64)),
                ("population", Json::Num(n as f64)),
                ("escalated_partitions", Json::Num(escalated_parts as f64)),
            ];
            if as_topr {
                body.push(("entries", Json::Arr(items)));
                body.push(("certified", Json::Bool(certified)));
            } else {
                body.push(("groups", Json::Arr(items)));
            }
            obj(body)
        };
        if global.is_empty() {
            if let Some(p) = prof.as_deref_mut() {
                p.shards = Some(ShardProfile {
                    total: shards.len(),
                    scanned: 0,
                    skipped: 0,
                    empty: shards.len(),
                });
                p.approx = Some(ApproxProfile {
                    epsilon,
                    sample_requested: m,
                    sample_size: 0,
                    population: 0,
                    escalated_partitions: Vec::new(),
                    certified: false,
                });
            }
            return Ok(render(Vec::new(), 0, 0, false));
        }
        self.check_deadline(deadline, "sample")?;
        let t_sample = Instant::now();
        // Sample: the merged per-shard sketches reproduce exactly the
        // bottom-m of the whole stream, at every shard count.
        let (estimates, used) = {
            let mut sp = topk_obs::Span::enter("service.approx_sample");
            sp.record("requested", m);
            let shard_refs: Vec<&Shard> =
                shards.iter_mut().map(|mu| &*Self::shard_mut(mu)).collect();
            let sample: Vec<&SampleEntry> =
                topk_approx::merge_sketches(shard_refs.iter().map(|s| &s.sample), m);
            sp.record("sampled", sample.len());
            drop(sp);
            let stack = self.stack(stats, field);
            let s_pred = stack.levels[0].0.as_ref();
            let used = sample.len();
            (
                topk_approx::estimate_groups(
                    &sample,
                    Population {
                        n,
                        max_weight: *max_weight,
                    },
                    field,
                    s_pred,
                ),
                used,
            )
        };
        if let Some(p) = prof.as_deref_mut() {
            p.stage("sample", t_sample.elapsed());
        }
        self.check_deadline(deadline, "escalate")?;
        let t_escalate = Instant::now();
        let (_tau, parts) = topk_approx::escalation_partitions(&estimates, k);
        self.metrics
            .approx_escalations
            .fetch_add(parts.len() as u64, Ordering::Relaxed);
        // Escalate: gather the *exact* groups of every escalated
        // partition from the per-shard collapses — including groups the
        // sample never saw (fragment repair).
        let n_shards = shards.len();
        let touched: HashSet<usize> = parts
            .iter()
            .map(|p| (p % n_shards as u64) as usize)
            .collect();
        let mut cands: Vec<ApproxGroup> = Vec::new();
        for (si, mu) in shards.iter_mut().enumerate() {
            if !touched.contains(&si) {
                continue;
            }
            let s = Self::shard_mut(mu);
            for g in s.inc.ranked() {
                if parts.contains(&s.keys[g.rep as usize]) {
                    cands.push(ApproxGroup {
                        estimate: g.weight,
                        lo: g.weight,
                        hi: g.weight,
                        size: g.size,
                        escalated: true,
                        rep_rid: s.gids[g.rep as usize] as u64,
                        rep_text: s.inc.records()[g.rep as usize].field(field).text.clone(),
                    });
                }
            }
        }
        for e in estimates {
            if !parts.contains(&e.partition) {
                cands.push(ApproxGroup {
                    estimate: e.estimate,
                    lo: e.lo,
                    hi: e.hi,
                    size: e.sampled as u32,
                    escalated: false,
                    rep_rid: e.rep_rid,
                    rep_text: e.rep_text,
                });
            }
        }
        if let Some(p) = prof.as_deref_mut() {
            p.stage("escalate", t_escalate.elapsed());
        }
        self.check_deadline(deadline, "merge")?;
        let t_merge = Instant::now();
        let top = topk_approx::merge_topk(cands, k);
        let certified = top.iter().all(|g| g.escalated || g.lo == g.hi);
        let items: Vec<Json> = top
            .into_iter()
            .enumerate()
            .map(|(rank, g)| {
                obj(vec![
                    ("rank", Json::Num((rank + 1) as f64)),
                    ("estimate", Json::Num(g.estimate)),
                    ("lo", Json::Num(g.lo)),
                    ("hi", Json::Num(g.hi)),
                    ("size", Json::Num(g.size as f64)),
                    ("escalated", Json::Bool(g.escalated)),
                    ("rep_id", Json::Num(g.rep_rid as f64)),
                    ("rep", Json::Str(g.rep_text)),
                ])
            })
            .collect();
        if let Some(p) = prof {
            p.stage("merge", t_merge.elapsed());
            // For an approximate query "scanned" means touched by
            // escalation — the shards whose exact collapse was read.
            p.shards = Some(ShardProfile {
                total: n_shards,
                scanned: touched.len(),
                skipped: n_shards - touched.len(),
                empty: 0,
            });
            p.groups_returned = items.len();
            let mut escalated: Vec<u64> = parts.iter().copied().collect();
            escalated.sort_unstable();
            p.approx = Some(ApproxProfile {
                epsilon,
                sample_requested: m,
                sample_size: used,
                population: n,
                escalated_partitions: escalated,
                certified,
            });
        }
        Ok(render(items, parts.len(), used, certified))
    }

    /// Cross-shard TopK merge. Each shard's index is ordered (weight
    /// desc, rep asc) — identical to the order a single engine's pruned
    /// query renders, because every survivor of the prune with weight at
    /// or above the k-th group is kept unconditionally, so the rendered
    /// top k equals the global top k of *all* groups. Shards are visited
    /// in descending best-group weight; once k candidates are held, a
    /// shard whose best group is strictly below the current k-th weight
    /// (and therefore every shard after it) is skipped whole — the
    /// `shard_skips` metric counts them.
    fn compute_topk(
        &self,
        core: &mut Core,
        field: FieldId,
        k: usize,
        deadline: Option<Instant>,
        mut prof: Option<&mut QueryProfile>,
    ) -> Result<Json, String> {
        let Core { shards, global, .. } = core;
        let shards: Vec<&Shard> = shards.iter_mut().map(|m| &*Self::shard_mut(m)).collect();
        assert!(k >= 1, "K must be at least 1");
        self.check_deadline(deadline, "build_views")?;
        let t_views = Instant::now();
        // One shard's k-prefix with `rep` as a global record id — the
        // cross-shard tie-break. The rank order survives the mapping:
        // gids are strictly increasing per shard.
        let prefix = |si: usize| {
            let s = shards[si];
            let global_rep = |g: &GroupSummary| GroupSummary {
                rep: s.gids[g.rep as usize],
                ..*g
            };
            s.inc.ranked().take(k).map(global_rep)
        };
        let mut visit: Vec<(GroupSummary, usize)> = (0..shards.len())
            .filter_map(|si| Some((prefix(si).next()?, si)))
            .collect();
        visit.sort();
        if let Some(p) = prof.as_deref_mut() {
            p.stage("build_views", t_views.elapsed());
        }
        self.check_deadline(deadline, "merge")?;
        let t_merge = Instant::now();
        let mut cands: Vec<GroupSummary> = Vec::new();
        let mut skips = 0u64;
        let mut scanned = 0usize;
        let mut groups_scanned = 0u64;
        for (pos, &(best, si)) in visit.iter().enumerate() {
            // Strict <: a shard whose best group ties the current k-th
            // weight must still merge — the global tie-break is by
            // representative id.
            if cands.len() >= k && best.weight < cands[k - 1].weight {
                skips += (visit.len() - pos) as u64;
                break;
            }
            // The global top k holds at most k groups of any one shard,
            // so merging each shard's k-prefix into the k held suffices.
            scanned += 1;
            groups_scanned += shards[si].inc.group_count().min(k) as u64;
            for g in prefix(si) {
                // In rank order: once one falls past k, the rest do.
                let at = cands.partition_point(|held| *held < g);
                if at >= k {
                    break;
                }
                cands.insert(at, g);
                cands.truncate(k);
            }
        }
        if skips > 0 {
            self.metrics.shard_skips.fetch_add(skips, Ordering::Relaxed);
        }
        if let Some(p) = prof.as_deref_mut() {
            p.shards = Some(ShardProfile {
                total: shards.len(),
                scanned,
                skipped: skips as usize,
                empty: shards.len() - visit.len(),
            });
            p.groups_scanned = groups_scanned;
            p.groups_returned = cands.len();
        }
        let mut items = Vec::with_capacity(cands.len());
        for (rank, g) in cands.iter().enumerate() {
            let (si, local) = global[g.rep as usize];
            let rep = &shards[si as usize].inc.records()[local as usize];
            items.push(obj(vec![
                ("rank", Json::Num((rank + 1) as f64)),
                ("weight", Json::Num(g.weight)),
                ("size", Json::Num(g.size as f64)),
                ("rep_id", Json::Num(g.rep as f64)),
                ("rep", Json::Str(rep.field(field).text.clone())),
            ]));
        }
        if let Some(p) = prof {
            p.stage("merge", t_merge.elapsed());
        }
        Ok(obj(vec![("groups", Json::Arr(items))]))
    }

    /// TopR over all shards: the rank query reads the shards' records in
    /// place, in global id order — exactly the slice a single engine
    /// would hand it, so answers are byte-identical at every shard count.
    fn compute_topr(
        &self,
        core: &mut Core,
        field: FieldId,
        k: usize,
        deadline: Option<Instant>,
        mut prof: Option<&mut QueryProfile>,
    ) -> Result<Json, String> {
        let Core {
            shards,
            global,
            stats,
            ..
        } = core;
        let shards: Vec<&Shard> = shards.iter_mut().map(|m| &*Self::shard_mut(m)).collect();
        if let Some(p) = prof.as_deref_mut() {
            // The rank query scans every collapsed record, so no shard
            // is ever skipped — only empty shards contribute nothing.
            let empty = shards.iter().filter(|s| s.inc.is_empty()).count();
            p.shards = Some(ShardProfile {
                total: shards.len(),
                scanned: shards.len() - empty,
                skipped: 0,
                empty,
            });
        }
        if global.is_empty() {
            return Ok(obj(vec![
                ("entries", Json::Arr(Vec::new())),
                ("certified", Json::Bool(false)),
            ]));
        }
        self.check_deadline(deadline, "gather")?;
        let t_gather = Instant::now();
        let stack = self.stack(stats, field);
        let toks: Vec<&TokenizedRecord> = global
            .iter()
            .map(|&(si, li)| &shards[si as usize].inc.records()[li as usize])
            .collect();
        if let Some(p) = prof.as_deref_mut() {
            p.stage("gather", t_gather.elapsed());
        }
        self.check_deadline(deadline, "rank_query")?;
        let t_rank = Instant::now();
        let mut q = TopKRankQuery::new(k);
        q.parallelism = self.cfg.parallelism;
        let res = q.run(&toks, &stack);
        let entries: Vec<Json> = res
            .entries
            .iter()
            .enumerate()
            .map(|(rank, e)| {
                obj(vec![
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
        if let Some(p) = prof {
            p.stage("rank_query", t_rank.elapsed());
            p.groups_scanned = toks.len() as u64;
            p.groups_returned = entries.len();
        }
        Ok(obj(vec![
            ("entries", Json::Arr(entries)),
            ("certified", Json::Bool(res.certified)),
        ]))
    }

    /// Run `compute` through the generation-keyed cache. A hit at the
    /// current generation returns without touching the core lock at all
    /// (it linearizes before any in-flight ingest); a miss takes the
    /// write lock, flushes, computes, and caches at the settled
    /// generation.
    ///
    /// With `profile` set (the `"explain":true` path) the execution is
    /// additionally described into it; explain-off queries pass `None`
    /// and pay nothing beyond a null check. The cache stores the
    /// *unprofiled* body, so both paths share entries.
    fn cached_query<F>(
        &self,
        key: String,
        mut profile: Option<&mut QueryProfile>,
        compute: F,
    ) -> Result<Json, String>
    where
        F: FnOnce(&Engine, &mut Core, FieldId, Option<&mut QueryProfile>) -> Result<Json, String>,
    {
        let t0 = Instant::now();
        let mut sp = topk_obs::Span::enter("service.query");
        if sp.is_recording() {
            sp.record("key", key.as_str());
        }
        Metrics::incr(&self.metrics.queries);
        let observed = self.generation.load(Ordering::Acquire);
        {
            let cache = self.lock_cache();
            if let Some(entry) = cache.get(&key) {
                if entry.generation == observed {
                    let body = entry.body.clone();
                    drop(cache);
                    Metrics::incr(&self.metrics.cache_hits);
                    self.metrics.query_latency.record(t0.elapsed());
                    sp.record("cache_hit", true);
                    if let Some(p) = profile {
                        p.cache_hit = true;
                        p.generation = observed;
                        p.total_micros = t0.elapsed().as_micros() as u64;
                    }
                    return Ok(body);
                }
            }
        }
        Metrics::incr(&self.metrics.cache_misses);
        sp.record("cache_hit", false);
        let t_lock = Instant::now();
        let mut core = self.write_core();
        let field = self.read_schema().field;
        if let Some(p) = profile.as_deref_mut() {
            p.stage("lock_wait", t_lock.elapsed());
        }
        let t_flush = Instant::now();
        if self.flush_locked(&mut core, field) {
            if let Some(p) = profile.as_deref_mut() {
                p.stage("flush", t_flush.elapsed());
            }
        }
        let generation = self.generation.load(Ordering::Acquire);
        let body = compute(self, &mut core, field, profile.as_deref_mut())?;
        drop(core);
        let mut cache = self.lock_cache();
        if cache.len() >= CACHE_CAP {
            cache.clear();
        }
        cache.insert(
            key,
            CacheEntry {
                generation,
                body: body.clone(),
            },
        );
        drop(cache);
        self.metrics.query_latency.record(t0.elapsed());
        if let Some(p) = profile {
            p.generation = generation;
            p.total_micros = t0.elapsed().as_micros() as u64;
        }
        Ok(body)
    }

    /// Current ingest generation (total records ever accepted).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    // ---- replication ----------------------------------------------------

    /// This server's current replication role.
    pub fn role(&self) -> Role {
        Role::from_u8(self.role.load(Ordering::Acquire))
    }

    /// Set the role. Called once at startup (`--replica-of` makes the
    /// server a replica); later changes go through [`Self::promote`].
    pub fn set_role(&self, role: Role) {
        self.role.store(role.as_u8(), Ordering::Release);
    }

    /// Current replication epoch (starts at 1; bumped by promotion).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Adopt the primary's epoch (replica handshake, only upward).
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.fetch_max(epoch, Ordering::AcqRel);
    }

    /// Promote this server to primary: stops replica applies (under the
    /// apply gate, so no entry straddles the change), flips the role,
    /// and bumps the epoch. Idempotent — promoting a primary changes
    /// nothing. Returns `(promoted_now, epoch)`.
    pub fn promote(&self) -> (bool, u64) {
        let _gate = self.apply_gate.lock().unwrap_or_else(|p| p.into_inner());
        if self.role() == Role::Primary {
            return (false, self.epoch());
        }
        self.set_role(Role::Primary);
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        topk_obs::info!("promoted to primary at epoch {epoch}");
        (true, epoch)
    }

    /// The in-memory replication window `replicate` streams tail.
    pub(crate) fn repl_log(&self) -> &ReplLog {
        &self.repl_log
    }

    /// Seal the replication window: wake every tailing stream so it can
    /// end cleanly. Called on server shutdown.
    pub fn seal_replication(&self) {
        self.repl_log.seal();
    }

    /// A point-in-time copy of this replica's progress.
    pub fn replica_status(&self) -> ReplicaStatus {
        self.replica
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Mutate the replica progress record (tailer-side bookkeeping).
    pub(crate) fn update_replica_status(&self, f: impl FnOnce(&mut ReplicaStatus)) {
        let mut st = self.replica.lock().unwrap_or_else(|p| p.into_inner());
        f(&mut st);
    }

    /// The `replica` JSON object shared by `stats` and `replstatus`:
    /// source, connectivity, and lag in entries + milliseconds.
    fn replica_json(&self) -> Json {
        let st = self.replica_status();
        let opt = |v: Option<u64>| v.map(|v| Json::Num(v as f64)).unwrap_or(Json::Null);
        obj(vec![
            ("source", Json::Str(st.source.clone())),
            ("connected", Json::Bool(st.connected)),
            ("applied_seq", opt(st.applied_seq)),
            ("head_seq", opt(st.head_seq)),
            ("lag_entries", opt(st.lag_entries())),
            ("lag_ms", opt(st.lag_ms())),
            ("pressure", Json::Bool(st.pressure)),
        ])
    }

    /// Body of the `replstatus` protocol response.
    pub fn replstatus_json(&self) -> Json {
        let mut members = vec![
            ("role", Json::Str(self.role().as_str().to_string())),
            ("epoch", Json::Num(self.epoch() as f64)),
            ("repl_next_seq", Json::Num(self.repl_log.next() as f64)),
        ];
        if self.role() == Role::Replica {
            members.push(("replica", self.replica_json()));
        }
        obj(members)
    }

    /// Encode the current collapsed state as snapshot bytes plus the
    /// replication cursor the stream continues from. Taking the core
    /// write lock excludes in-flight applies (which publish before they
    /// release their read guards), so the pair is consistent: everything
    /// at/after the cursor is *not* in the snapshot, everything before
    /// it is.
    pub fn snapshot_bytes(&self) -> Result<(Vec<u8>, u64), String> {
        let mut sp = topk_obs::Span::enter("service.snapshot_bytes");
        let mut core = self.write_core();
        let (field, fields) = {
            let schema = self.read_schema();
            (schema.field, schema.fields.clone().unwrap_or_default())
        };
        self.flush_locked(&mut core, field);
        let state = self.assemble_state(&mut core)?;
        let cursor = self.repl_log.next();
        drop(core);
        let bytes = snapshot::encode_snapshot(&state, &fields, field)?;
        sp.record("bytes", bytes.len());
        sp.record("cursor", cursor);
        Ok((bytes, cursor))
    }

    /// Replace the engine state from snapshot bytes received over the
    /// wire (replica bootstrap). Same guarantees as [`Self::restore`].
    pub fn restore_bytes(&self, bytes: &[u8]) -> Result<u64, String> {
        let mut sp = topk_obs::Span::enter("service.restore");
        sp.record("from_bytes", true);
        let (state, fields, field) = snapshot::decode_snapshot(bytes)?;
        let generation = self.install_state(state, fields, field)?;
        sp.record("records", generation);
        Ok(generation)
    }

    // ---- health / SLO / exposition --------------------------------------

    /// Seconds since this engine was constructed.
    pub fn uptime_seconds(&self) -> u64 {
        self.start.elapsed().as_secs()
    }

    /// Feed one served-request outcome into the rolling SLO windows.
    /// The server calls this for every query-class request (`topk`,
    /// `topr`), successes and failures alike.
    pub fn record_query_outcome(&self, latency: Duration, ok: bool) {
        self.slo.record(latency, ok);
    }

    /// The SLO tracker (reports back the `health` command).
    pub fn slo(&self) -> &SloTracker {
        &self.slo
    }

    /// Body of the `health` protocol response: overall verdict, uptime,
    /// and one per-window SLO evaluation
    /// (`docs/OBSERVABILITY.md`, *SLOs & health*).
    pub fn health_json(&self) -> Json {
        let reports = self.slo.report();
        let healthy = reports.iter().all(|r| r.healthy());
        let windows: Vec<Json> = reports
            .iter()
            .map(|r| {
                obj(vec![
                    ("window", Json::Str(r.window.to_string())),
                    ("total", Json::Num(r.total as f64)),
                    ("errors", Json::Num(r.errors as f64)),
                    ("availability_ppm", Json::Num(r.availability_ppm as f64)),
                    ("p99_micros", Json::Num(r.p99_micros as f64)),
                    ("p99_ok", Json::Bool(r.p99_ok)),
                    (
                        "error_budget_remaining_ppm",
                        Json::Num(r.error_budget_remaining_ppm as f64),
                    ),
                ])
            })
            .collect();
        obj(vec![
            ("healthy", Json::Bool(healthy)),
            ("uptime_seconds", Json::Num(self.uptime_seconds() as f64)),
            ("generation", Json::Num(self.generation() as f64)),
            ("role", Json::Str(self.role().as_str().to_string())),
            ("epoch", Json::Num(self.epoch() as f64)),
            (
                "slo",
                obj(vec![
                    (
                        "p99_target_micros",
                        Json::Num(self.slo.p99_target_micros() as f64),
                    ),
                    (
                        "availability_target_ppm",
                        Json::Num(self.slo.availability_target_ppm() as f64),
                    ),
                    ("windows", Json::Arr(windows)),
                ]),
            ),
            (
                "overload",
                obj(vec![
                    ("brownout", Json::Bool(self.overload.brownout_active())),
                    (
                        "memory_bytes",
                        Json::Num(self.overload.total_bytes() as f64),
                    ),
                    (
                        "memory_budget_bytes",
                        Json::Num(self.overload.budget() as f64),
                    ),
                    (
                        "memory_high_watermark",
                        Json::Num(self.overload.high_watermark() as f64),
                    ),
                    (
                        "memory_low_watermark",
                        Json::Num(self.overload.low_watermark() as f64),
                    ),
                    (
                        "memory_pressure_rejections",
                        Json::Num(Metrics::get(&self.metrics.memory_pressure) as f64),
                    ),
                    (
                        "degraded_queries",
                        Json::Num(Metrics::get(&self.metrics.degraded_queries) as f64),
                    ),
                    (
                        "admission_sheds",
                        Json::Num(Metrics::get(&self.metrics.admission_sheds) as f64),
                    ),
                ]),
            ),
        ])
    }

    /// Full Prometheus exposition: refresh the point-in-time gauges
    /// (uptime, SLO windows, journal segment sizes), then render the
    /// registry prefixed with a `topk_build_info` identity line
    /// (version + git revision as labels, constant value 1 — the
    /// standard build-info idiom).
    pub fn prometheus_text(&self) -> String {
        self.uptime_gauge
            .store(self.uptime_seconds() as i64, Ordering::Relaxed);
        for (r, g) in self.slo.report().iter().zip(&self.slo_gauges) {
            g[0].store(r.p99_micros as i64, Ordering::Relaxed);
            g[1].store(r.availability_ppm as i64, Ordering::Relaxed);
            g[2].store(r.error_budget_remaining_ppm as i64, Ordering::Relaxed);
        }
        if let Some(j) = &self.journal {
            for (i, g) in self.journal_gauges.iter().enumerate() {
                g.store(j.segment(i).len_bytes() as i64, Ordering::Relaxed);
            }
        }
        self.repl_gauges[0].store(self.epoch() as i64, Ordering::Relaxed);
        if self.role() == Role::Replica {
            let st = self.replica_status();
            self.repl_gauges[1].store(st.connected as i64, Ordering::Relaxed);
            self.repl_gauges[2].store(st.lag_entries().unwrap_or(0) as i64, Ordering::Relaxed);
            self.repl_gauges[3].store(st.lag_ms().unwrap_or(0) as i64, Ordering::Relaxed);
        } else {
            self.repl_gauges[1].store(0, Ordering::Relaxed);
            self.repl_gauges[2].store(0, Ordering::Relaxed);
            self.repl_gauges[3].store(0, Ordering::Relaxed);
        }
        let mut text = format!(
            "# TYPE topk_build_info gauge\ntopk_build_info{{version=\"{}\",rev=\"{}\"}} 1\n",
            env!("CARGO_PKG_VERSION"),
            env!("TOPK_GIT_REV"),
        );
        text.push_str(&self.metrics.registry().prometheus_text());
        text
    }

    /// Engine-level stats body (per-shard detail and metrics included).
    pub fn stats_json(&self) -> Json {
        let core = self.read_core();
        let fields = match &self.read_schema().fields {
            Some(f) => Json::Arr(f.iter().map(|s| Json::Str(s.clone())).collect()),
            None => Json::Null,
        };
        let (mut collapsed, mut pending, mut groups) = (0usize, 0usize, 0usize);
        let mut detail = Vec::with_capacity(core.shards.len());
        for (i, m) in core.shards.iter().enumerate() {
            let s = self.lock_shard(m);
            collapsed += s.inc.len();
            pending += s.pending.len();
            groups += s.inc.group_count();
            detail.push(obj(vec![
                ("shard", Json::Num(i as f64)),
                ("records", Json::Num(s.inc.len() as f64)),
                ("pending", Json::Num(s.pending.len() as f64)),
                ("groups", Json::Num(s.inc.group_count() as f64)),
                (
                    "memory_bytes",
                    Json::Num(self.overload.shard_bytes(i) as f64),
                ),
            ]));
        }
        let generation = self.generation.load(Ordering::Acquire);
        let mut members = vec![
            ("records", Json::Num(generation as f64)),
            ("collapsed", Json::Num(collapsed as f64)),
            ("pending", Json::Num(pending as f64)),
            ("groups", Json::Num(groups as f64)),
            ("generation", Json::Num(generation as f64)),
            ("role", Json::Str(self.role().as_str().to_string())),
            ("epoch", Json::Num(self.epoch() as f64)),
            ("distinct_values", Json::Num(core.seen.len() as f64)),
            (
                "memory_bytes",
                Json::Num(self.overload.total_bytes() as f64),
            ),
            (
                "memory_budget_bytes",
                Json::Num(self.overload.budget() as f64),
            ),
            ("fields", fields),
            ("shards", Json::Num(core.shards.len() as f64)),
            ("shard_detail", Json::Arr(detail)),
            ("cache_entries", Json::Num(self.lock_cache().len() as f64)),
            ("metrics", self.metrics.summary()),
        ];
        if self.role() == Role::Replica {
            members.push(("replica", self.replica_json()));
        }
        obj(members)
    }

    // ---- snapshot / restore --------------------------------------------

    /// Stitch the per-shard states into one global [`IncrementalState`]
    /// in gid order. The union-find parent is canonicalized (min-member
    /// form), and block keys are unique to one shard (partition
    /// contract), so the assembled state — and therefore the snapshot
    /// file — is byte-identical at every shard count.
    fn assemble_state(&self, core: &mut Core) -> Result<IncrementalState, String> {
        let Core { shards, global, .. } = core;
        let shard_refs: Vec<&Shard> = shards.iter_mut().map(|m| &*Self::shard_mut(m)).collect();
        let mut exports = Vec::with_capacity(shard_refs.len());
        for s in &shard_refs {
            let ex = s.inc.export_state();
            // A live union-find is always a valid forest; still, surface
            // rather than panic if that invariant ever breaks.
            let mut uf = UnionFind::from_vec(ex.parent.clone())?;
            let canon = uf.canonical_parent();
            exports.push((ex, canon));
        }
        let mut records = Vec::with_capacity(global.len());
        let mut parent = Vec::with_capacity(global.len());
        for &(si, li) in global.iter() {
            let (ex, canon) = &exports[si as usize];
            records.push(ex.records[li as usize].clone());
            // Min local member maps to min global member: gids are
            // strictly increasing per shard.
            parent.push(shard_refs[si as usize].gids[canon[li as usize] as usize]);
        }
        let mut blocks: Vec<(u64, Vec<u32>)> = Vec::new();
        for (si, (ex, _)) in exports.iter().enumerate() {
            let gids = &shard_refs[si].gids;
            for (key, members) in &ex.blocks {
                blocks.push((*key, members.iter().map(|&m| gids[m as usize]).collect()));
            }
        }
        blocks.sort_unstable_by_key(|&(key, _)| key);
        Ok(IncrementalState {
            records,
            parent,
            blocks,
            generation: self.generation.load(Ordering::Acquire),
        })
    }

    /// Write a snapshot of the collapsed state to `path`. Pending
    /// records are flushed first so the snapshot is self-contained.
    /// With a journal attached, a successful snapshot truncates every
    /// segment (and deletes orphan segments) — the snapshot now carries
    /// every journaled ingest. Truncation happens while the core lock is
    /// still held, so no concurrent ingest can land in the journal
    /// between the snapshot and the truncation and be silently lost.
    pub fn snapshot(&self, path: &Path) -> Result<u64, String> {
        let mut sp = topk_obs::Span::enter("service.snapshot");
        let mut core = self.write_core();
        let (field, fields) = {
            let schema = self.read_schema();
            (schema.field, schema.fields.clone().unwrap_or_default())
        };
        self.flush_locked(&mut core, field);
        let state = self.assemble_state(&mut core)?;
        let bytes = snapshot::write_snapshot(path, &state, &fields, field)?;
        if let Some(journal) = &self.journal {
            journal.truncate_all()?;
            Metrics::incr(&self.metrics.journal_truncations);
        }
        drop(core);
        Metrics::incr(&self.metrics.snapshots);
        sp.record("bytes", bytes);
        Ok(bytes)
    }

    /// Project a global snapshot state onto this engine's shards:
    /// tokenize every record once (as an ingest would), route it, split
    /// the canonicalized union-find and the blocking index per shard,
    /// and rebuild corpus statistics. Fails (without touching engine
    /// state) when the file is internally inconsistent or its
    /// groups/blocks straddle the partition — i.e. it was not produced
    /// by these predicates.
    #[allow(clippy::type_complexity)]
    fn project_state(
        &self,
        state: IncrementalState,
        field: FieldId,
    ) -> Result<(Vec<Shard>, Vec<(u32, u32)>, CorpusStats, HashSet<u64>, f64), String> {
        let IncrementalState {
            records,
            parent,
            blocks,
            generation: _,
        } = state;
        let n = records.len();
        if parent.len() != n {
            return Err(format!(
                "state has {n} records but {} union-find entries",
                parent.len()
            ));
        }
        let n_shards = self.cfg.shards;
        let router = ShardRouter::new(n_shards);
        let mut uf = UnionFind::from_vec(parent)?;
        let canon = uf.canonical_parent();
        let mut out: Vec<Shard> = (0..n_shards).map(|_| Shard::default()).collect();
        let mut s_toks: Vec<Vec<TokenizedRecord>> = vec![Vec::new(); n_shards];
        let mut global: Vec<(u32, u32)> = Vec::with_capacity(n);
        let mut stats = CorpusStats::new();
        let mut seen = HashSet::new();
        let mut max_weight = 0.0f64;
        // One pass in gid order, which is the ingest order: statistics,
        // sample sketches (priorities are pure functions of seed,
        // partition and gid) and the max-weight bound come out as an
        // engine that ingested this stream live would hold them.
        for (gid, (texts, w)) in records.iter().enumerate() {
            let t = TokenizedRecord::from_fields_reading(texts, *w, &stack_fields(field));
            let f = t.field(field);
            if seen.insert(topk_text::hash::hash_str(&f.text)) {
                stats.add_document(f.words());
            }
            let si = router.route(&f.text);
            let key = ShardRouter::key(&f.text);
            let shard = &mut out[si];
            shard.sample.offer(gid as u64, key, &t);
            shard.keys.push(key);
            shard.gids.push(gid as u32);
            if *w > max_weight {
                max_weight = *w;
            }
            global.push((si as u32, s_toks[si].len() as u32));
            s_toks[si].push(t);
        }
        drop(records);
        let mut s_parent: Vec<Vec<u32>> = vec![Vec::new(); n_shards];
        for gid in 0..n {
            let p = canon[gid] as usize;
            let (si, _) = global[gid];
            let (psi, pli) = global[p];
            if psi != si {
                return Err(format!(
                    "snapshot group {{{p}, {gid}}} spans shards — the file was not \
                     produced under this engine's blocking partition"
                ));
            }
            s_parent[si as usize].push(pli);
        }
        let mut s_blocks: Vec<Vec<(u64, Vec<u32>)>> = vec![Vec::new(); n_shards];
        for (key, members) in blocks {
            let si = match members.first() {
                Some(&m0) if (m0 as usize) < n => global[m0 as usize].0,
                Some(&m0) => {
                    return Err(format!("block {key:#x} references record {m0} >= {n}"));
                }
                None => (key % n_shards as u64) as u32,
            };
            let mut locals = Vec::with_capacity(members.len());
            for m in members {
                if m as usize >= n {
                    return Err(format!("block {key:#x} references record {m} >= {n}"));
                }
                let (msi, mli) = global[m as usize];
                if msi != si {
                    return Err(format!(
                        "snapshot block {key:#x} spans shards — the file was not \
                         produced under this engine's blocking partition"
                    ));
                }
                locals.push(mli);
            }
            s_blocks[si as usize].push((key, locals));
        }
        let per_shard = s_toks.into_iter().zip(s_parent).zip(s_blocks);
        for (shard, ((toks, parent), mut blocks)) in out.iter_mut().zip(per_shard) {
            let n_local = toks.len() as u64;
            blocks.sort_unstable_by_key(|&(key, _)| key);
            shard.inc = IncrementalDedup::from_records(toks, parent, blocks, n_local)?;
        }
        Ok((out, global, stats, seen, max_weight))
    }

    /// Replace the engine state with a snapshot read from `path`. Corpus
    /// statistics are rebuilt deterministically from the restored
    /// records; no predicate work is replayed. A corrupt, truncated, or
    /// partition-incompatible snapshot is rejected *before* any lock is
    /// taken, so the previous state survives a failed restore untouched.
    /// With a journal attached, a successful restore truncates it:
    /// journaled ingests are deltas against the state they were applied
    /// to, which the restore just discarded.
    pub fn restore(&self, path: &Path) -> Result<u64, String> {
        let mut sp = topk_obs::Span::enter("service.restore");
        let (state, fields, field) = snapshot::read_snapshot(path)?;
        let generation = self.install_state(state, fields, field)?;
        Metrics::incr(&self.metrics.restores);
        sp.record("records", generation);
        Ok(generation)
    }

    /// Swap in a decoded snapshot state ([`Self::restore`] from a file,
    /// [`Self::restore_bytes`] from the replication bootstrap stream).
    fn install_state(
        &self,
        state: IncrementalState,
        fields: Vec<String>,
        field: FieldId,
    ) -> Result<u64, String> {
        if let Some(cfg_fields) = &self.cfg.fields {
            if !fields.is_empty() && *cfg_fields != fields {
                return Err(format!(
                    "snapshot schema {fields:?} differs from --fields {cfg_fields:?}"
                ));
            }
        }
        let generation = state.generation;
        let (new_shards, global, stats, seen, max_weight) = self.project_state(state, field)?;
        let n = global.len() as u64;
        let mut core = self.write_core();
        if let Some(journal) = &self.journal {
            journal.truncate_all()?;
            Metrics::incr(&self.metrics.journal_truncations);
        }
        *core = Core {
            shards: new_shards.into_iter().map(Mutex::new).collect(),
            global,
            stats: Arc::new(stats),
            seen,
            max_weight,
        };
        {
            let mut schema = self.write_schema();
            schema.fields = if fields.is_empty() {
                None
            } else {
                Some(fields)
            };
            schema.field = field;
        }
        self.generation.store(generation, Ordering::Release);
        self.next_rid.store(n, Ordering::Release);
        // Drop the in-memory replication window: cursors tailing the
        // replaced state no longer describe this engine, so every
        // follower is forced to re-bootstrap from a fresh snapshot.
        self.repl_log.invalidate();
        let mut shard_bytes = Vec::with_capacity(core.shards.len());
        for (i, m) in core.shards.iter_mut().enumerate() {
            let s = Self::shard_mut(m);
            self.shard_gauges[i]
                .0
                .store(s.inc.len() as i64, Ordering::Relaxed);
            self.shard_gauges[i]
                .1
                .store(s.inc.group_count() as i64, Ordering::Relaxed);
            self.shard_gauges[i]
                .2
                .store(s.sample.len() as i64, Ordering::Relaxed);
            shard_bytes.push(s.inc.records().iter().map(overload::record_bytes).sum());
        }
        // Memory accounting restarts from what is actually resident —
        // this is how pressure clears after an operator restores a
        // smaller snapshot.
        self.overload.reset(&shard_bytes);
        drop(core);
        self.lock_cache().clear();
        Ok(generation)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(EngineConfig {
            parallelism: Parallelism::sequential(),
            ..Default::default()
        })
        .unwrap()
    }

    fn row(name: &str) -> (Vec<String>, f64) {
        (vec![name.to_string()], 1.0)
    }

    #[test]
    fn ingest_then_query_groups_duplicates() {
        let e = engine();
        e.ingest(vec![
            row("Grace Hopper"),
            row("grace hopper"),
            row("Ada Lovelace"),
        ])
        .unwrap();
        assert_eq!(e.generation(), 3);
        let body = e.query_topk(2).unwrap();
        let groups = body.get("groups").unwrap().as_arr().unwrap();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].get("size").unwrap().as_usize(), Some(2));
        assert_eq!(groups[0].get("rep").unwrap().as_str(), Some("grace hopper"));
    }

    #[test]
    fn cache_hits_on_quiet_stream_and_invalidates_on_ingest() {
        let e = engine();
        e.ingest(vec![row("a b"), row("a b"), row("c d")]).unwrap();
        let first = e.query_topk(2).unwrap();
        let second = e.query_topk(2).unwrap();
        assert_eq!(first.to_string(), second.to_string());
        assert_eq!(Metrics::get(&e.metrics.cache_hits), 1);
        assert_eq!(Metrics::get(&e.metrics.cache_misses), 1);
        // Ingestion invalidates: the next query recomputes.
        e.ingest(vec![row("e f")]).unwrap();
        e.query_topk(2).unwrap();
        assert_eq!(Metrics::get(&e.metrics.cache_hits), 1);
        assert_eq!(Metrics::get(&e.metrics.cache_misses), 2);
        // Different parameters are different cache keys.
        e.query_topk(1).unwrap();
        assert_eq!(Metrics::get(&e.metrics.cache_misses), 3);
    }

    #[test]
    fn schema_fixed_by_first_record() {
        let e = engine();
        e.ingest(vec![(vec!["x".into(), "y".into()], 1.0)]).unwrap();
        let err = e.ingest(vec![row("only one field")]).unwrap_err();
        assert!(err.contains("fields"), "{err}");
        let stats = e.stats_json().to_string();
        assert!(stats.contains("\"fields\":[\"col0\",\"col1\"]"), "{stats}");
    }

    #[test]
    fn rejects_bad_weight_and_unknown_name_field() {
        let e = engine();
        assert!(e.ingest(vec![(vec!["x".into()], f64::NAN)]).is_err());
        assert!(e.ingest(vec![(vec!["x".into()], -1.0)]).is_err());
        let err = Engine::new(EngineConfig {
            fields: Some(vec!["a".into()]),
            name_field: Some("missing".into()),
            ..Default::default()
        })
        .err()
        .unwrap();
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn topr_orders_by_weight_with_bounds() {
        let e = engine();
        let mut rows = Vec::new();
        for _ in 0..5 {
            rows.push(row("big group"));
        }
        rows.push(row("small group"));
        e.ingest(rows).unwrap();
        let body = e.query_topr(2).unwrap();
        let entries = body.get("entries").unwrap().as_arr().unwrap();
        assert!(!entries.is_empty());
        let w0 = entries[0].get("weight").unwrap().as_f64().unwrap();
        let ub0 = entries[0].get("upper_bound").unwrap().as_f64().unwrap();
        assert!(w0 >= 5.0 - 1e-9);
        assert!(ub0 >= w0);
    }

    #[test]
    fn sharded_engine_answers_like_a_single_engine() {
        let single = engine();
        let sharded = Engine::new(EngineConfig {
            parallelism: Parallelism::sequential(),
            shards: 4,
            ..Default::default()
        })
        .unwrap();
        let names = [
            "grace hopper",
            "Grace  Hopper",
            "g hopper",
            "ada lovelace",
            "alan turing",
            "a turing",
            "katherine johnson",
            "annie easley",
        ];
        for (i, name) in names.iter().enumerate() {
            let r = vec![(vec![name.to_string()], 1.0 + (i % 3) as f64)];
            single.ingest(r.clone()).unwrap();
            sharded.ingest(r).unwrap();
        }
        for k in [1, 2, 3, 50] {
            assert_eq!(
                single.query_topk(k).unwrap().to_string(),
                sharded.query_topk(k).unwrap().to_string(),
                "topk k={k}"
            );
            assert_eq!(
                single.query_topr(k).unwrap().to_string(),
                sharded.query_topr(k).unwrap().to_string(),
                "topr k={k}"
            );
        }
        assert_eq!(single.generation(), sharded.generation());
    }

    #[test]
    fn approx_answers_are_shard_count_invariant() {
        // Bottom-m sketches merge to the global bottom-m, so the
        // approximate answer must be byte-identical at any shard count.
        let engines: Vec<Engine> = [1usize, 2, 4, 8]
            .iter()
            .map(|&shards| {
                Engine::new(EngineConfig {
                    parallelism: Parallelism::sequential(),
                    shards,
                    ..Default::default()
                })
                .unwrap()
            })
            .collect();
        let names = [
            "grace hopper",
            "Grace  Hopper",
            "g hopper",
            "ada lovelace",
            "alan turing",
            "a turing",
            "katherine johnson",
            "annie easley",
            "annie  easley",
            "mary jackson",
        ];
        for (i, name) in names.iter().enumerate() {
            let r = vec![(vec![name.to_string()], 1.0 + (i % 3) as f64)];
            for e in &engines {
                e.ingest(r.clone()).unwrap();
            }
        }
        for k in [1, 2, 3, 50] {
            for eps in [0.05, 0.5, 0.9] {
                let want = engines[0]
                    .query_with(false, k, Some(eps), false, None)
                    .unwrap()
                    .to_string();
                let want_r = engines[0]
                    .query_with(true, k, Some(eps), false, None)
                    .unwrap()
                    .to_string();
                for e in &engines[1..] {
                    assert_eq!(
                        e.query_with(false, k, Some(eps), false, None)
                            .unwrap()
                            .to_string(),
                        want,
                        "topk k={k} eps={eps}"
                    );
                    assert_eq!(
                        e.query_with(true, k, Some(eps), false, None)
                            .unwrap()
                            .to_string(),
                        want_r,
                        "topr k={k} eps={eps}"
                    );
                }
            }
        }
    }

    #[test]
    fn approx_with_full_sample_matches_exact_topk() {
        // A tight epsilon makes the sample the whole corpus; every
        // contested group escalates, so ranks, sizes and weights must
        // equal the exact answer.
        let e = engine();
        let mut rows = Vec::new();
        for _ in 0..6 {
            rows.push(row("grace hopper"));
        }
        for _ in 0..3 {
            rows.push(row("ada lovelace"));
        }
        rows.push(row("alan turing"));
        e.ingest(rows).unwrap();
        let exact = e.query_topk(2).unwrap();
        let approx = e.query_with(false, 2, Some(0.05), false, None).unwrap();
        let eg = exact.get("groups").unwrap().as_arr().unwrap();
        let ag = approx.get("groups").unwrap().as_arr().unwrap();
        assert_eq!(eg.len(), ag.len());
        for (ex, ap) in eg.iter().zip(ag) {
            assert_eq!(
                ex.get("rep").unwrap().as_str(),
                ap.get("rep").unwrap().as_str()
            );
            assert_eq!(
                ex.get("size").unwrap().as_usize(),
                ap.get("size").unwrap().as_usize()
            );
            assert_eq!(
                ex.get("weight").unwrap().as_f64(),
                ap.get("estimate").unwrap().as_f64()
            );
            assert_eq!(ap.get("escalated").unwrap().as_bool(), Some(true));
        }
        assert!(Metrics::get(&e.metrics.approx_escalations) >= 1);
    }

    #[test]
    fn approx_queries_cache_under_their_own_keys() {
        let e = engine();
        e.ingest(vec![row("a b"), row("a b"), row("c d")]).unwrap();
        let first = e
            .query_with(false, 2, Some(0.1), false, None)
            .unwrap()
            .to_string();
        let second = e
            .query_with(false, 2, Some(0.1), false, None)
            .unwrap()
            .to_string();
        assert_eq!(first, second);
        assert_eq!(Metrics::get(&e.metrics.cache_hits), 1);
        assert_eq!(Metrics::get(&e.metrics.cache_misses), 1);
        // Exact and approx never share a cache entry, nor do two epsilons.
        e.query_topk(2).unwrap();
        e.query_with(false, 2, Some(0.2), false, None).unwrap();
        assert_eq!(Metrics::get(&e.metrics.cache_misses), 3);
        assert_eq!(Metrics::get(&e.metrics.approx_queries), 3);
    }

    #[test]
    fn approx_on_empty_engine_and_bad_epsilon() {
        let e = engine();
        let body = e.query_with(false, 3, Some(0.1), false, None).unwrap();
        assert_eq!(
            body.get("groups").unwrap().as_arr().map(<[_]>::len),
            Some(0)
        );
        assert_eq!(body.get("population").unwrap().as_usize(), Some(0));
        assert!(e.query_with(false, 3, Some(0.0), false, None).is_err());
        assert!(e.query_with(false, 3, Some(1.0), false, None).is_err());
        assert!(e.query_with(false, 3, Some(f64::NAN), false, None).is_err());
    }

    #[test]
    fn failed_restore_leaves_previous_state_intact() {
        let dir = std::env::temp_dir().join("topk_engine_restore_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.snap");
        // A valid snapshot of some other state...
        let other = engine();
        other.ingest(vec![row("x y"), row("z w")]).unwrap();
        other.snapshot(&path).unwrap();
        let good = std::fs::read(&path).unwrap();
        // ...and the engine under test, with answers we can compare.
        let e = engine();
        e.ingest(vec![row("grace hopper"), row("grace  hopper")])
            .unwrap();
        let before = e.query_topk(1).unwrap().to_string();
        // Corrupt the snapshot at several offsets (header, early
        // payload, middle, checksum tail): every restore must fail and
        // every failure must leave the engine answering exactly as
        // before.
        for offset in [0, 5, good.len() / 3, good.len() / 2, good.len() - 1] {
            let mut bad = good.clone();
            bad[offset] ^= 0x20;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                e.restore(&path).is_err(),
                "corruption at offset {offset} restored"
            );
            assert_eq!(
                e.query_topk(1).unwrap().to_string(),
                before,
                "state changed after rejected restore (offset {offset})"
            );
            assert_eq!(e.generation(), 2);
        }
        // Truncations likewise.
        for len in [0, 8, good.len() / 2, good.len() - 1] {
            std::fs::write(&path, &good[..len]).unwrap();
            assert!(e.restore(&path).is_err(), "truncation to {len} restored");
            assert_eq!(e.query_topk(1).unwrap().to_string(), before);
        }
        // The intact snapshot still restores (the engine is not wedged).
        std::fs::write(&path, &good).unwrap();
        assert_eq!(e.restore(&path).unwrap(), 2);
    }

    #[test]
    fn journal_records_ingests_and_snapshot_truncates() {
        let dir = std::env::temp_dir().join("topk_engine_journal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let jpath = dir.join("engine.wal");
        let _ = std::fs::remove_file(&jpath);
        let spath = dir.join("engine.snap");
        let (journal, recovery) = crate::journal::JournalSet::open(&jpath, 1).unwrap();
        assert!(recovery.rows.is_empty());
        let mut e = engine();
        e.attach_journal(journal);
        e.ingest(vec![row("ada lovelace")]).unwrap();
        e.ingest(vec![row("ada  lovelace")]).unwrap();
        assert_eq!(Metrics::get(&e.metrics.journal_appends), 2);
        // Replaying what the journal holds reproduces the engine.
        let (_j2, recovery) = {
            // Reopen by a second handle (the file is shared).
            crate::journal::JournalSet::open(&jpath, 1).unwrap()
        };
        assert_eq!(recovery.entries, 2);
        assert_eq!(recovery.rows.len(), 2);
        let replayed = engine();
        replayed.replay_rows(recovery).unwrap();
        assert_eq!(
            replayed.query_topk(1).unwrap().to_string(),
            e.query_topk(1).unwrap().to_string()
        );
        // A successful snapshot empties the journal: those entries are
        // now covered by the snapshot file.
        e.snapshot(&spath).unwrap();
        assert_eq!(Metrics::get(&e.metrics.journal_truncations), 1);
        let (_j3, recovery) = crate::journal::JournalSet::open(&jpath, 1).unwrap();
        assert!(recovery.rows.is_empty(), "journal truncated on snapshot");
    }

    #[test]
    fn empty_engine_answers_empty() {
        let e = engine();
        let body = e.query_topk(3).unwrap();
        assert_eq!(body.get("groups").unwrap().as_arr().unwrap().len(), 0);
        let body = e.query_topr(3).unwrap();
        assert_eq!(body.get("certified").unwrap().as_bool(), Some(false));
    }

    fn sharded(shards: usize, budget: u64) -> Engine {
        Engine::new(EngineConfig {
            parallelism: Parallelism::sequential(),
            shards,
            memory_budget_bytes: budget,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn post_write_misses_read_the_index_never_the_from_scratch_groups() {
        let e = sharded(2, 0);
        e.ingest(vec![
            row("grace hopper"),
            row("grace  hopper"),
            row("ada lovelace"),
            row("alan turing"),
        ])
        .unwrap();
        let before = e.query_topk(2).unwrap();
        let groups = before.get("groups").unwrap().as_arr().unwrap();
        assert_eq!(groups[0].get("size").unwrap().as_usize(), Some(2));
        // A burst, then the same query: a miss that must see the burst.
        e.ingest(vec![row("ada lovelace"), row("ada  lovelace")])
            .unwrap();
        let after = e.query_topk(2).unwrap();
        let groups = after.get("groups").unwrap().as_arr().unwrap();
        assert_eq!(groups[0].get("size").unwrap().as_usize(), Some(3));
        assert_eq!(groups[0].get("rep").unwrap().as_str(), Some("ada lovelace"));
        // The escalation gather of an approximate miss reads it too.
        e.query_with(false, 2, Some(0.5), false, None).unwrap();
        assert_eq!(Metrics::get(&e.metrics.cache_misses), 3);
        let mut core = e.write_core();
        for m in core.shards.iter_mut() {
            assert_eq!(Engine::shard_mut(m).inc.materialisations(), 0);
        }
    }

    #[test]
    fn poisoned_locks_recover_and_answers_stay_identical() {
        let e = Arc::new(sharded(2, 0));
        let rows = vec![
            row("grace hopper"),
            row("grace  hopper"),
            row("ada lovelace"),
        ];
        e.ingest(rows.clone()).unwrap();
        let want = e.query_topk(2).unwrap().to_string();
        let recoveries = Metrics::get(&e.metrics.lock_recoveries);
        // Panic while holding the core write lock: poisons it.
        let p = Arc::clone(&e);
        let h = std::thread::spawn(move || {
            let _g = p.core.write().unwrap();
            panic!("poison the core lock");
        });
        assert!(h.join().is_err());
        assert_eq!(e.query_topk(2).unwrap().to_string(), want);
        // Panic while holding a shard mutex: poisons it.
        let p = Arc::clone(&e);
        let h = std::thread::spawn(move || {
            let core = p.read_core();
            let _g = core.shards[0].lock().unwrap();
            panic!("poison a shard mutex");
        });
        assert!(h.join().is_err());
        e.ingest(vec![row("alan turing")]).unwrap();
        assert!(
            Metrics::get(&e.metrics.lock_recoveries) > recoveries,
            "poison recovery should be counted"
        );
        // After both recoveries the engine answers byte-identically to a
        // fresh engine fed the same stream.
        let fresh = sharded(2, 0);
        fresh.ingest(rows).unwrap();
        fresh.ingest(vec![row("alan turing")]).unwrap();
        assert_eq!(
            e.query_topk(3).unwrap().to_string(),
            fresh.query_topk(3).unwrap().to_string()
        );
        assert_eq!(
            e.query_topr(3).unwrap().to_string(),
            fresh.query_topr(3).unwrap().to_string()
        );
    }

    #[test]
    fn memory_budget_applies_backpressure_not_death() {
        let rows: Vec<_> = (0..8).map(|i| row(&format!("person number {i}"))).collect();
        // Probe run measures what the stream costs; accounting is always
        // on, budget or not.
        let probe = engine();
        probe.ingest(rows.clone()).unwrap();
        let resident = probe.overload().total_bytes();
        assert!(resident > 0);
        let budget = resident + resident / 8;
        let e = sharded(1, budget);
        e.ingest(rows).unwrap();
        let err = e
            .ingest((0..64).map(|i| row(&format!("overflow {i}"))).collect())
            .unwrap_err();
        assert!(err.starts_with("memory_pressure"), "{err}");
        assert_eq!(Metrics::get(&e.metrics.memory_pressure), 1);
        // The gauge never crossed the budget, and the engine still
        // answers queries.
        assert!(e.overload().total_bytes() <= budget);
        assert!(e.query_topk(3).is_ok());
    }

    #[test]
    fn expired_deadline_aborts_without_burning_work() {
        let e = engine();
        e.ingest(vec![row("grace hopper"), row("ada lovelace")])
            .unwrap();
        let expired = Some(Instant::now() - Duration::from_millis(1));
        for rank in [false, true] {
            for approx in [None, Some(0.1)] {
                let err = e.query_with(rank, 2, approx, false, expired).unwrap_err();
                assert!(err.starts_with("deadline_exceeded"), "{err}");
            }
        }
        assert_eq!(Metrics::get(&e.metrics.deadline_exceeded), 4);
        // A generous deadline answers identically to no deadline.
        let far = Some(Instant::now() + Duration::from_secs(60));
        assert_eq!(
            e.query_with(false, 2, None, false, far)
                .unwrap()
                .to_string(),
            e.query_topk(2).unwrap().to_string()
        );
    }

    #[test]
    fn brownout_degrades_exact_queries_and_recovers() {
        let rows: Vec<_> = (0..8).map(|i| row(&format!("person number {i}"))).collect();
        let probe = engine();
        probe.ingest(rows.clone()).unwrap();
        let resident = probe.overload().total_bytes();
        // Budget such that the stream sits at ~89% — past the 80% high
        // watermark but under the budget, so ingest is admitted and
        // brownout engages.
        let e = sharded(1, resident + resident / 8);
        e.ingest(rows).unwrap();
        let gate = e.overload_gate(false, false, None).unwrap();
        assert_eq!(gate, Some(crate::overload::EPSILON_LIGHT));
        assert!(e.overload().brownout_active());
        assert_eq!(Metrics::get(&e.metrics.brownout_entries), 1);
        // An explicit approx request is not re-degraded.
        assert_eq!(e.overload_gate(false, true, None).unwrap(), None);
        // The degraded answer is byte-identical to an explicit approx
        // query at the same ε (same cache key, same pipeline).
        let degraded = e
            .query_with(false, 3, gate, false, None)
            .unwrap()
            .to_string();
        let explicit = e
            .query_with(false, 3, Some(crate::overload::EPSILON_LIGHT), false, None)
            .unwrap()
            .to_string();
        assert_eq!(degraded, explicit);
        // Restoring a smaller snapshot clears the pressure; hysteresis
        // holds the degraded tier for EXIT_STREAK evaluations, then
        // exact answers resume.
        let dir = std::env::temp_dir().join("topk_engine_brownout_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("small.snap");
        let small = engine();
        small.ingest(vec![row("grace hopper")]).unwrap();
        small.snapshot(&path).unwrap();
        e.restore(&path).unwrap();
        assert!(e.overload().total_bytes() < e.overload().low_watermark());
        for _ in 0..crate::overload::EXIT_STREAK - 1 {
            assert!(e.overload_gate(false, false, None).unwrap().is_some());
        }
        assert_eq!(e.overload_gate(false, false, None).unwrap(), None);
        assert!(!e.overload().brownout_active());
        assert_eq!(Metrics::get(&e.metrics.brownout_exits), 1);
    }

    fn citation_rows(n: usize) -> Vec<(Vec<String>, f64)> {
        let row = |i: usize| {
            let venue = format!("Proc. of the {}th Conf. on Things, Vol. {i}", i % 5);
            let author = format!("Author Number{} Smith-{}", i % 7, i % 3);
            (vec![venue, author], 1.0 + (i % 4) as f64)
        };
        (0..n).map(row).collect()
    }

    /// Two shards, two fields, matching on the second.
    fn citation_engine() -> Engine {
        Engine::new(EngineConfig {
            fields: Some(vec!["venue".into(), "author".into()]),
            name_field: Some("author".into()),
            parallelism: Parallelism::sequential(),
            shards: 2,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn resident_bytes_and_snapshots_do_not_depend_on_how_rows_arrived() {
        let rows = citation_rows(90);
        let dir = std::env::temp_dir().join("topk_engine_arrival_test");
        std::fs::create_dir_all(&dir).unwrap();
        let jpath = dir.join("arrival.wal");
        for i in 0..2 {
            let _ = std::fs::remove_file(journal::segment_path(&jpath, i));
        }
        // Over the wire, journaled.
        let mut wire = citation_engine();
        wire.attach_journal(JournalSet::open(&jpath, 2).unwrap().0);
        for chunk in rows.chunks(40) {
            wire.ingest(chunk.to_vec()).unwrap();
        }
        let (snap, _) = wire.snapshot_bytes().unwrap();
        // Preloaded: the corpus loader tokenizes every field.
        let preloaded = citation_engine();
        let full = |(fields, w): &(Vec<String>, f64)| {
            let texts: Vec<String> = fields
                .iter()
                .map(|f| topk_text::normalize::normalize(f))
                .collect();
            TokenizedRecord::from_fields(&texts, *w)
        };
        let fields = vec!["venue".to_string(), "author".to_string()];
        preloaded
            .ingest_toks(rows.iter().map(full).collect(), fields, FieldId(1))
            .unwrap();
        // Replayed from the journal, and restored from the snapshot.
        let replayed = citation_engine();
        replayed
            .replay_rows(JournalSet::open(&jpath, 2).unwrap().1)
            .unwrap();
        let restored = citation_engine();
        restored.restore_bytes(&snap).unwrap();
        let memory = |e: &Engine| e.stats_json().get("memory_bytes").unwrap().as_usize();
        assert!(memory(&wire) > Some(90 * 200), "{:?}", memory(&wire));
        for (path, e) in [
            ("preload", &preloaded),
            ("replay", &replayed),
            ("restore", &restored),
        ] {
            assert_eq!(e.snapshot_bytes().unwrap().0, snap, "{path}");
            assert_eq!(memory(e), memory(&wire), "{path}");
            assert_eq!(
                e.query_topk(5).unwrap().to_string(),
                wire.query_topk(5).unwrap().to_string(),
                "{path}"
            );
        }
    }

    #[test]
    fn a_batch_tokenized_for_a_match_field_a_restore_replaced_is_never_staged_as_it_is() {
        let donor = citation_engine();
        donor.ingest(citation_rows(30)).unwrap();
        let (matching_on_author, _) = donor.snapshot_bytes().unwrap();
        let batch_rows = citation_rows(50).split_off(30);
        let borrowed = || batch_rows.iter().map(|(f, w)| (&f[..], *w));
        let owned = || batch_rows.iter().cloned().map(|(f, w)| (0, f, w)).collect();
        // No race: the restore, then the ingest.
        let reference = sharded(2, 0);
        reference.restore_bytes(&matching_on_author).unwrap();
        reference.ingest(batch_rows.clone()).unwrap();
        // The race: the batch is tokenized while the engine still matches
        // on its first field, and staged after the restore.
        let e = sharded(2, 0);
        e.ingest(citation_rows(1)).unwrap();
        let batch = e.tokenize_batch(borrowed()).unwrap();
        assert_eq!(batch.0, FieldId(0));
        e.restore_bytes(&matching_on_author).unwrap();
        e.stage_batch(batch, owned(), true, true).unwrap();
        // A record staged with the sets of the wrong field would panic
        // in this flush, naming field 1.
        assert_eq!(
            e.query_topk(5).unwrap().to_string(),
            reference.query_topk(5).unwrap().to_string()
        );
        assert_eq!(
            e.snapshot_bytes().unwrap().0,
            reference.snapshot_bytes().unwrap().0
        );
        assert_eq!(
            e.overload().total_bytes(),
            reference.overload().total_bytes()
        );
        // A restore that changes the arity refuses the batch outright.
        let batch = e.tokenize_batch(borrowed()).unwrap();
        let narrow = engine();
        narrow.ingest(vec![row("grace hopper")]).unwrap();
        e.restore_bytes(&narrow.snapshot_bytes().unwrap().0)
            .unwrap();
        let err = e.stage_batch(batch, owned(), true, true).unwrap_err();
        assert!(err.contains("record has 2 fields, schema has 1"), "{err}");
        assert_eq!(e.generation(), 1);
    }

    /// `generation` is the record count a snapshot carries and a replica
    /// installs (`stats.records`), so under the core write lock it must
    /// equal the records held. Counting a batch only after the read
    /// guard was dropped left a window in which a cut carried the
    /// batch's records and a generation that many short — and a replica
    /// bootstrapped from it waited for ever for records it already had.
    /// Nothing here can fail unless that window exists.
    #[test]
    fn every_cut_under_the_write_lock_carries_a_generation_equal_to_its_records() {
        let e = Arc::new(sharded(2, 0));
        let writer = {
            let e = Arc::clone(&e);
            std::thread::spawn(move || {
                for batch in 0..400 {
                    let name = |i| format!("author {} of batch {batch}", i % 5);
                    e.ingest((0..37).map(|i| row(&name(i))).collect()).unwrap();
                }
            })
        };
        let mut cuts = 0u64;
        while !writer.is_finished() {
            // The cheap cut: what `assemble_state` would read.
            let mut core = e.write_core();
            let held = |m: &mut Mutex<Shard>| {
                let s = Engine::shard_mut(m);
                s.inc.len() + s.pending.len()
            };
            let records: usize = core.shards.iter_mut().map(held).sum();
            assert_eq!(e.generation(), records as u64, "cut {cuts}");
            drop(core);
            cuts += 1;
            // And the cut a bootstrapping replica is actually sent.
            if cuts % 512 == 0 {
                let (bytes, _) = e.snapshot_bytes().unwrap();
                let (state, _, _) = snapshot::decode_snapshot(&bytes).unwrap();
                assert_eq!(state.generation, state.records.len() as u64);
            }
        }
        writer.join().unwrap();
        assert_eq!(e.generation(), 400 * 37);
    }
}
