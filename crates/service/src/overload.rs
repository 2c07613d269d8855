//! Adaptive overload control: memory budgets with ingest backpressure,
//! brownout state (degrade exact queries to the approx tier), and
//! per-class query-cost EWMAs for cost-based admission.
//!
//! The engine owns one [`OverloadControl`]. Ingest paths account an
//! estimated byte size per record into per-shard gauges and refuse
//! writes that would exceed `--memory-budget-bytes` (the
//! `memory_pressure` error, carrying a [`RETRY_AFTER_MS`] hint).
//! Queries evaluate [`OverloadControl::evaluate`] on entry: when the
//! rolling SLO p99 is violated or memory crosses the high watermark the
//! engine enters **brownout** and exact `topk`/`topr` answers degrade to
//! the approximate tier at an adaptive ε ([`OverloadControl::epsilon`]),
//! marked `degraded:true` on the wire. Exit applies hysteresis: the
//! engine must observe [`EXIT_STREAK`] consecutive calm evaluations
//! before resuming exact answers, so a flapping signal cannot thrash the
//! cache between tiers.
//!
//! Everything here is relaxed atomics — the control plane rides the hot
//! path and must never take a lock.

use std::mem::size_of;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use topk_records::{TokenizedField, TokenizedRecord};

/// Backoff hint (milliseconds) attached to `memory_pressure` rejections
/// and admission sheds via the error envelope's `retry_after_ms` member.
pub const RETRY_AFTER_MS: u64 = 250;

/// Consecutive calm evaluations required before brownout exits.
pub const EXIT_STREAK: u32 = 3;

/// Degradation ε when a single pressure signal is active.
pub const EPSILON_LIGHT: f64 = 0.1;

/// Degradation ε when both pressure signals (SLO and memory) fire.
pub const EPSILON_HEAVY: f64 = 0.25;

/// A brownout state-machine edge, reported by
/// [`OverloadControl::evaluate`] so the caller can bump the transition
/// metrics and emit a span exactly once per edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Calm → brownout: queries start degrading.
    Entered,
    /// Brownout → calm after [`EXIT_STREAK`] clean evaluations.
    Exited,
}

/// What the allocator adds to a heap block: glibc malloc keeps an 8-byte
/// size word and rounds the block up to a multiple of 16.
const ALLOC_HEADER: u64 = 16;

/// One record's share of what the engine keeps beside the records once
/// they are collapsed, in bytes: `Shard::{gids, keys}` (4 + 8),
/// `Core::global` (8), the union-find's parent and size (8), the
/// per-root aggregates `weight` / `rep` / `next` (16), its entry in the
/// blocking index (~20), a `BTreeSet` root-index entry per group (~14),
/// the distinct-value set and the document-frequency dictionary (~25) —
/// ~105 — times the third that doubling vectors and hash tables keep
/// spare on average. The replication window's copy of each acked batch
/// is *not* in it (ROADMAP, memory item).
const ENGINE_ARRAYS: u64 = 140;

/// Estimated resident bytes of one tokenized record, from its layout:
/// the record and field structs, every heap block it owns (texts, the
/// token sets that were built, the field vector) at its capacity plus
/// the allocator's header, and `ENGINE_ARRAYS`. A pure function of the
/// record — identical rows account identically on every shard layout
/// and by whichever path they arrived, which the differential brownout
/// test relies on.
pub fn record_bytes(rec: &TokenizedRecord) -> u64 {
    let fields = (0..rec.arity()).map(|f| rec.field(topk_records::FieldId(f)));
    let blocks = fields.flat_map(TokenizedField::heap_blocks);
    let heap: u64 = blocks.map(|bytes| bytes as u64 + ALLOC_HEADER).sum();
    let field_vec = (rec.arity() * size_of::<TokenizedField>()) as u64 + ALLOC_HEADER;
    size_of::<TokenizedRecord>() as u64 + field_vec + heap + ENGINE_ARRAYS
}

/// Admission-cost class of a query: `rank` distinguishes `topr` from
/// `topk`, `approx` whether it runs the sampled tier. Each class keeps
/// its own latency EWMA because their costs differ by orders of
/// magnitude.
pub fn cost_class(rank: bool, approx: bool) -> usize {
    (rank as usize) * 2 + approx as usize
}

/// Shared overload-control state (see module docs).
#[derive(Debug)]
pub struct OverloadControl {
    budget: u64,
    total: Arc<AtomicI64>,
    shard_bytes: Vec<Arc<AtomicI64>>,
    brownout_gauge: Arc<AtomicI64>,
    brownout: AtomicBool,
    calm_streak: AtomicU32,
    /// Per-[`cost_class`] latency EWMA in µs; 0 = no sample yet.
    costs: [AtomicU64; 4],
}

impl OverloadControl {
    /// New control with the given byte budget (0 = unlimited; accounting
    /// still runs so the gauges stay meaningful). Gauges are registered
    /// in the engine's metric registry.
    pub fn new(budget: u64, shards: usize, registry: &topk_obs::Registry) -> Self {
        let budget_gauge = registry.gauge("topk_memory_budget_bytes");
        budget_gauge.store(budget as i64, Ordering::Relaxed);
        OverloadControl {
            budget,
            total: registry.gauge("topk_memory_bytes"),
            shard_bytes: (0..shards)
                .map(|i| registry.gauge(&format!("topk_shard_{i}_memory_bytes")))
                .collect(),
            brownout_gauge: registry.gauge("topk_brownout"),
            brownout: AtomicBool::new(false),
            calm_streak: AtomicU32::new(0),
            costs: Default::default(),
        }
    }

    /// The configured budget in bytes (0 = unlimited).
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Current estimated resident bytes across all shards.
    pub fn total_bytes(&self) -> u64 {
        self.total.load(Ordering::Relaxed).max(0) as u64
    }

    /// Current estimated resident bytes of one shard.
    pub fn shard_bytes(&self, shard: usize) -> u64 {
        self.shard_bytes
            .get(shard)
            .map_or(0, |g| g.load(Ordering::Relaxed).max(0) as u64)
    }

    /// High watermark (80% of budget): crossing it enters brownout.
    pub fn high_watermark(&self) -> u64 {
        self.budget / 5 * 4
    }

    /// Low watermark (60% of budget): memory must fall below it before
    /// brownout's calm streak can accumulate.
    pub fn low_watermark(&self) -> u64 {
        self.budget / 5 * 3
    }

    /// Whether an ingest of `incoming` estimated bytes fits the budget.
    /// `Err` carries a `memory_pressure`-prefixed message (the server
    /// maps the prefix to the wire error code, with a retry hint).
    pub fn admit(&self, incoming: u64) -> Result<(), String> {
        if self.budget == 0 {
            return Ok(());
        }
        let total = self.total_bytes();
        if total.saturating_add(incoming) > self.budget {
            return Err(format!(
                "memory_pressure: ingest of ~{incoming} bytes would exceed the \
                 {}-byte budget (~{total} resident)",
                self.budget
            ));
        }
        Ok(())
    }

    /// Account `n` freshly staged bytes to `shard`.
    pub fn add(&self, shard: usize, n: u64) {
        if let Some(g) = self.shard_bytes.get(shard) {
            g.fetch_add(n as i64, Ordering::Relaxed);
        }
        self.total.fetch_add(n as i64, Ordering::Relaxed);
    }

    /// Replace the accounting wholesale (restore/install paths recompute
    /// from the records actually resident).
    pub fn reset(&self, per_shard: &[u64]) {
        let mut total = 0i64;
        for (g, &n) in self.shard_bytes.iter().zip(per_shard) {
            g.store(n as i64, Ordering::Relaxed);
            total += n as i64;
        }
        self.total.store(total, Ordering::Relaxed);
    }

    /// Whether memory alone is pressuring the engine (≥ high watermark).
    pub fn memory_pressured(&self) -> bool {
        self.budget > 0 && self.total_bytes() >= self.high_watermark()
    }

    /// Run the brownout state machine once. `slo_bad` is the caller's
    /// rolling-p99 verdict; memory is read internally. Returns the
    /// active flag plus an edge when this call crossed one.
    pub fn evaluate(&self, slo_bad: bool) -> (bool, Option<Transition>) {
        let mem_high = self.memory_pressured();
        let mem_recovered = self.budget == 0 || self.total_bytes() < self.low_watermark();
        if slo_bad || mem_high {
            self.calm_streak.store(0, Ordering::Relaxed);
            if !self.brownout.swap(true, Ordering::Relaxed) {
                self.brownout_gauge.store(1, Ordering::Relaxed);
                return (true, Some(Transition::Entered));
            }
            return (true, None);
        }
        if !self.brownout.load(Ordering::Relaxed) {
            return (false, None);
        }
        // In brownout and calm this evaluation — but if memory sits in
        // the hysteresis band (between watermarks) hold the degraded
        // tier rather than flapping.
        if !mem_recovered {
            self.calm_streak.store(0, Ordering::Relaxed);
            return (true, None);
        }
        let streak = self.calm_streak.fetch_add(1, Ordering::Relaxed) + 1;
        if streak >= EXIT_STREAK {
            self.brownout.store(false, Ordering::Relaxed);
            self.calm_streak.store(0, Ordering::Relaxed);
            self.brownout_gauge.store(0, Ordering::Relaxed);
            return (false, Some(Transition::Exited));
        }
        (true, None)
    }

    /// Whether brownout is currently active (no state advance).
    pub fn brownout_active(&self) -> bool {
        self.brownout.load(Ordering::Relaxed)
    }

    /// Degradation ε for the current pressure mix. Quantized to two
    /// levels so degraded queries share cache keys with explicit
    /// `approx` queries instead of fragmenting the cache per request.
    pub fn epsilon(&self, slo_bad: bool) -> f64 {
        if slo_bad && self.memory_pressured() {
            EPSILON_HEAVY
        } else {
            EPSILON_LIGHT
        }
    }

    /// Fold one observed latency into the class EWMA (α = 1/8).
    pub fn record_cost(&self, class: usize, micros: u64) {
        let Some(c) = self.costs.get(class) else {
            return;
        };
        let old = c.load(Ordering::Relaxed);
        let new = if old == 0 {
            micros.max(1)
        } else {
            old - old / 8 + micros / 8
        };
        c.store(new, Ordering::Relaxed);
    }

    /// Estimated cost (µs) of a query in `class`; `None` until the
    /// first observation seeds the EWMA.
    pub fn estimated_cost_micros(&self, class: usize) -> Option<u64> {
        match self.costs.get(class).map(|c| c.load(Ordering::Relaxed)) {
            Some(0) | None => None,
            Some(v) => Some(v),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn control(budget: u64) -> OverloadControl {
        OverloadControl::new(budget, 2, &topk_obs::Registry::new())
    }

    #[test]
    fn accounting_and_admission() {
        let c = control(1000);
        assert_eq!(c.high_watermark(), 800);
        assert_eq!(c.low_watermark(), 600);
        c.admit(900).unwrap();
        c.add(0, 700);
        c.add(1, 200);
        assert_eq!(c.total_bytes(), 900);
        let err = c.admit(200).unwrap_err();
        assert!(err.starts_with("memory_pressure"), "{err}");
        c.reset(&[10, 20]);
        assert_eq!(c.total_bytes(), 30);
        c.admit(900).unwrap();
        // Unlimited budget admits anything but still accounts.
        let u = control(0);
        u.admit(u64::MAX).unwrap();
        u.add(0, 42);
        assert_eq!(u.total_bytes(), 42);
        assert!(!u.memory_pressured());
    }

    #[test]
    fn brownout_hysteresis() {
        let c = control(1000);
        assert_eq!(c.evaluate(false), (false, None));
        c.add(0, 850); // past high watermark
        assert_eq!(c.evaluate(false), (true, Some(Transition::Entered)));
        assert_eq!(c.evaluate(false), (true, None));
        c.reset(&[650, 0]); // below high, above low: hold degraded
        assert_eq!(c.evaluate(false), (true, None));
        c.reset(&[100, 0]); // below low: calm streak may accumulate
        assert_eq!(c.evaluate(false), (true, None));
        assert_eq!(c.evaluate(false), (true, None));
        assert_eq!(c.evaluate(false), (false, Some(Transition::Exited)));
        assert_eq!(c.evaluate(false), (false, None));
        // A bad SLO alone re-enters, and any pressure resets the streak.
        assert_eq!(c.evaluate(true), (true, Some(Transition::Entered)));
        assert_eq!(c.evaluate(false), (true, None));
        assert_eq!(c.evaluate(true), (true, None));
        assert_eq!(c.evaluate(false), (true, None));
        assert_eq!(c.evaluate(false), (true, None));
        assert_eq!(c.evaluate(false), (false, Some(Transition::Exited)));
    }

    #[test]
    fn epsilon_quantization() {
        let c = control(1000);
        assert_eq!(c.epsilon(true), EPSILON_LIGHT);
        c.add(0, 900);
        assert_eq!(c.epsilon(false), EPSILON_LIGHT);
        assert_eq!(c.epsilon(true), EPSILON_HEAVY);
    }

    #[test]
    fn cost_ewma() {
        let c = control(0);
        let class = cost_class(true, false);
        assert_eq!(c.estimated_cost_micros(class), None);
        c.record_cost(class, 800);
        assert_eq!(c.estimated_cost_micros(class), Some(800));
        for _ in 0..64 {
            c.record_cost(class, 80);
        }
        let est = c.estimated_cost_micros(class).unwrap();
        assert!(est < 120, "EWMA should converge toward 80, got {est}");
        assert_eq!(c.estimated_cost_micros(99), None);
    }

    #[test]
    fn record_bytes_is_deterministic_and_positive() {
        let r = TokenizedRecord::from_fields(&["ada lovelace".into()], 1.0);
        let n = record_bytes(&r);
        assert!(n > 64, "{n}");
        assert_eq!(
            n,
            record_bytes(&TokenizedRecord::from_fields(&["ada lovelace".into()], 1.0))
        );
    }
}
