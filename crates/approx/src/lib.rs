//! `topk-approx`: sampled top-k estimation with confidence intervals
//! and exact escalation.
//!
//! The exact engine pays the full collapse pipeline over every record on
//! each cold query. This crate trades a controlled amount of accuracy
//! for that cost: it maintains a deterministic **bottom-m sketch** of
//! the record stream, runs the sufficient-predicate collapse only over
//! the sampled records, scales the sampled group weights up by the
//! inverse inclusion probability (a Horvitz–Thompson estimator), wraps
//! each estimate in a confidence interval, and **escalates** — re-runs
//! the exact pipeline for — only the blocking partitions whose
//! intervals overlap the K-boundary. The answer is exact where it
//! matters (the contested head) and estimated elsewhere, with
//! `(estimate, lo, hi, escalated)` reported per group.
//!
//! # Sampling scheme
//!
//! Every record is assigned a deterministic 64-bit priority
//! `mix(seed ^ partition ^ rid)` ([`priority`]); the sample of size `m`
//! is the `m` records with the smallest priorities. Because a good
//! mixer makes priorities behave like i.i.d. uniforms, the bottom-m set
//! is a uniform simple random sample without replacement of size `m` —
//! and because the priority is a pure function of `(seed, record)`, the
//! scheme composes perfectly with sharding: the union of per-shard
//! bottom-`C` sketches contains the global bottom-`C` set, so
//! [`merge_sketches`] reproduces **exactly** the sample a single
//! unsharded sketch would hold, at every shard count. Approximate
//! answers are therefore byte-identical at every shard count, just like
//! exact ones.
//!
//! Maintaining the sketch is O(1) amortized per record (a hash plus a
//! bounded-heap offer), so it rides along with ingest at negligible
//! cost; the epsilon→sample-size mapping happens at query time by
//! truncating the maintained sketch ([`sample_size`]).
//!
//! # Estimator and variance (see `docs/APPROX.md` for the derivation)
//!
//! With `m` of `n` records sampled, each record's inclusion probability
//! is `p = m/n`, and the estimate of a group's total weight `W_g` from
//! its sampled members `S_g` is `Ŵ_g = (Σ_{i∈S_g} w_i)/p` — unbiased
//! under simple random sampling. Its variance is estimated by the
//! conservative `V̂ = (1−p)/p² · Σ_{i∈S_g} w_i²`, giving a normal-
//! approximation interval `Ŵ_g ± 1.96·√V̂` when the group has enough
//! sampled members, and a distribution-free Poisson-tail fallback
//! otherwise ([`confidence_interval`]). Intervals are always clamped so
//! `lo ≥ Σ_{i∈S_g} w_i` — the sampled members certainly exist.
//!
//! # Escalation
//!
//! Let `τ` be the k-th largest interval lower bound. Any group whose
//! upper bound reaches `τ` *could* belong to the top k, so its entire
//! blocking partition is re-run exactly ([`escalation_partitions`]).
//! Escalating whole partitions (not single groups) also repairs sample
//! fragmentation: a true group can appear as several fragments on the
//! sample when the connecting records were not drawn, but all fragments
//! share one partition key, so the exact re-run reassembles them.

#![deny(missing_docs)]

use std::collections::BinaryHeap;

use topk_core::IncrementalDedup;
use topk_predicates::{collapse_partition_key, SufficientPredicate};
use topk_records::{FieldId, TokenizedRecord};

/// Records kept per shard sketch by default. Query-time samples are
/// truncations of the sketch, so this caps the finest epsilon a serving
/// engine resolves: `m(ε) ≤ 8192` covers `ε ≥ 0.0313`.
pub const DEFAULT_CAPACITY: usize = 8192;

/// Default sketch seed. Any fixed value works; all sketches that are
/// ever merged must share it.
pub const DEFAULT_SEED: u64 = 0x70b5_a24e_5eed_c0de;

/// 97.5% standard-normal quantile — two-sided 95% intervals.
const Z95: f64 = 1.959964;

/// Minimum sampled members for the normal-approximation interval;
/// below this the Poisson-tail fallback is used.
const NORMAL_MIN_SAMPLED: usize = 8;

/// splitmix64 finalizer: a fast, well-mixed 64-bit permutation.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic sampling priority of a record: a pure function of the
/// sketch seed, the record's blocking-partition key, and its global
/// record id. Smaller priority = earlier into the sample.
pub fn priority(seed: u64, partition: u64, rid: u64) -> u64 {
    mix64(mix64(seed ^ partition) ^ rid)
}

/// Sample size that targets relative error `ε` on well-sampled head
/// groups: `⌈8/ε²⌉` (≈ `2·z²/ε²` at 95%), floored at 64.
pub fn sample_size(epsilon: f64) -> usize {
    (8.0 / (epsilon * epsilon)).ceil().max(64.0) as usize
}

/// Validate a requested epsilon: must be a finite number strictly
/// inside `(0, 1)`.
pub fn validate_epsilon(epsilon: f64) -> Result<(), String> {
    if epsilon.is_finite() && epsilon > 0.0 && epsilon < 1.0 {
        Ok(())
    } else {
        Err(format!(
            "approx epsilon must be a number in (0, 1), got {epsilon}"
        ))
    }
}

/// One sampled record: its global id, sampling priority, blocking
/// partition key, and the tokenized record itself.
#[derive(Debug, Clone)]
pub struct SampleEntry {
    /// Global record id (ingest order) — the tie-break everywhere.
    pub rid: u64,
    /// Sampling priority ([`priority`]).
    pub priority: u64,
    /// Blocking-partition key of the match-field text
    /// ([`topk_predicates::collapse_partition_key`]).
    pub partition: u64,
    /// The record, for running the collapse over the sample.
    pub record: TokenizedRecord,
}

/// Max-heap wrapper: orders entries by (priority, rid) descending so
/// the heap root is the *worst* kept entry.
struct HeapEntry(SampleEntry);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.priority == other.0.priority && self.0.rid == other.0.rid
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.0.priority, self.0.rid).cmp(&(other.0.priority, other.0.rid))
    }
}

/// A bottom-m sketch: the `capacity` records with the smallest sampling
/// priorities seen so far. Deterministic — the kept set is a pure
/// function of the offered (rid, partition) pairs and the seed, never
/// of offer order — which is what makes per-shard sketches mergeable
/// into exactly the global sketch.
pub struct Sketch {
    seed: u64,
    capacity: usize,
    heap: BinaryHeap<HeapEntry>,
    offered: u64,
}

impl Sketch {
    /// Empty sketch with an explicit seed and capacity (≥ 1).
    pub fn new(seed: u64, capacity: usize) -> Sketch {
        assert!(capacity >= 1, "sketch capacity must be at least 1");
        Sketch {
            seed,
            capacity,
            heap: BinaryHeap::new(),
            offered: 0,
        }
    }

    /// Sketch with [`DEFAULT_SEED`] and [`DEFAULT_CAPACITY`].
    pub fn with_defaults() -> Sketch {
        Sketch::new(DEFAULT_SEED, DEFAULT_CAPACITY)
    }

    /// Offer one record; the record is cloned only if it enters the
    /// kept set. Returns whether it was kept (possibly evicting a
    /// worse entry).
    pub fn offer(&mut self, rid: u64, partition: u64, record: &TokenizedRecord) -> bool {
        self.offered += 1;
        let pri = priority(self.seed, partition, rid);
        if self.heap.len() < self.capacity {
            self.heap.push(HeapEntry(SampleEntry {
                rid,
                priority: pri,
                partition,
                record: record.clone(),
            }));
            return true;
        }
        let worst = self.heap.peek().expect("non-empty at capacity");
        if (pri, rid) < (worst.0.priority, worst.0.rid) {
            self.heap.pop();
            self.heap.push(HeapEntry(SampleEntry {
                rid,
                priority: pri,
                partition,
                record: record.clone(),
            }));
            true
        } else {
            false
        }
    }

    /// Number of records currently kept.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the sketch holds no records.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total records ever offered.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// The sketch seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The sketch capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Kept entries, in no particular order.
    pub fn entries(&self) -> impl Iterator<Item = &SampleEntry> {
        self.heap.iter().map(|h| &h.0)
    }
}

/// The bottom-`m` sample across several sketches (typically one per
/// engine shard): gather every kept entry, order by (priority, rid),
/// truncate to `m`. When each sketch kept its own bottom-`C ≥ m` over a
/// disjoint part of the stream, the result is exactly the global
/// bottom-`m` of the whole stream — independent of how the stream was
/// split.
pub fn merge_sketches<'a, I>(sketches: I, m: usize) -> Vec<&'a SampleEntry>
where
    I: IntoIterator<Item = &'a Sketch>,
{
    let mut all: Vec<&SampleEntry> = sketches.into_iter().flat_map(|s| s.entries()).collect();
    all.sort_by_key(|e| (e.priority, e.rid));
    all.truncate(m);
    all
}

/// Population facts the estimator needs: total record count and the
/// largest single-record weight (for the distribution-free fallback
/// interval).
#[derive(Debug, Clone, Copy)]
pub struct Population {
    /// Total records the sample was drawn from.
    pub n: u64,
    /// Maximum single-record weight in the population.
    pub max_weight: f64,
}

/// One group of the sampled collapse, with its scaled estimate and
/// 95% confidence interval.
#[derive(Debug, Clone)]
pub struct GroupEstimate {
    /// Blocking-partition key the group lives in (shared by every
    /// member — the escalation unit).
    pub partition: u64,
    /// Global record id of the representative (max-weight sampled
    /// member; ties resolve like the exact engine's representative).
    pub rep_rid: u64,
    /// Match-field text of the representative.
    pub rep_text: String,
    /// Sampled members.
    pub sampled: usize,
    /// Total weight of the sampled members (a certain lower bound).
    pub sampled_weight: f64,
    /// Horvitz–Thompson estimate of the group's total weight.
    pub estimate: f64,
    /// 95% interval lower bound.
    pub lo: f64,
    /// 95% interval upper bound.
    pub hi: f64,
}

/// The 95% confidence interval for one group: returns
/// `(estimate, lo, hi)` from the group's sampled weight sum, sampled
/// weight sum of squares, sampled member count, inclusion probability
/// `p = m/n`, and the population's max single-record weight.
///
/// `p ≥ 1` means the sample is the population: the estimate is exact
/// and the interval has zero width. With at least
/// `NORMAL_MIN_SAMPLED` members the normal approximation applies
/// (`± z·√V̂`, `V̂ = (1−p)/p²·Σw²` — the derivation is in
/// `docs/APPROX.md`). Below that, a conservative distribution-free
/// fallback: the sampled member count is (approximately) Poisson with
/// mean `c·p`, so `c ≤ (√(k+1)+0.98)²/p` with ≥97.5% confidence, and
/// each unseen member weighs at most `max_weight`.
pub fn confidence_interval(
    sampled_weight: f64,
    sum_sq: f64,
    sampled: usize,
    p: f64,
    max_weight: f64,
) -> (f64, f64, f64) {
    if p >= 1.0 {
        return (sampled_weight, sampled_weight, sampled_weight);
    }
    let estimate = sampled_weight / p;
    let (lo, hi) = if sampled >= NORMAL_MIN_SAMPLED {
        let var = (1.0 - p) / (p * p) * sum_sq;
        let hw = Z95 * var.sqrt();
        (estimate - hw, estimate + hw)
    } else {
        // Poisson upper tail: (√(k+1)+0.98)² conservatively dominates
        // the exact 97.5% upper limit for every k ≥ 0.
        let k = sampled as f64;
        let lam_hi = ((k + 1.0).sqrt() + 0.98).powi(2);
        let extra = ((lam_hi / p) - k).max(0.0);
        (sampled_weight, sampled_weight + extra * max_weight)
    };
    let lo = lo.max(sampled_weight);
    let hi = hi.max(lo);
    (estimate.max(lo).min(hi), lo, hi)
}

/// Run the sufficient-predicate collapse over a sample and estimate
/// every sampled group's total weight with a confidence interval.
///
/// Records are inserted in rid order (global ingest order), so the
/// sampled collapse makes the same pairwise decisions the exact engine
/// makes restricted to the sampled records. The output is sorted
/// (estimate descending, representative rid ascending) — the same order
/// the exact merge uses.
pub fn estimate_groups(
    sample: &[&SampleEntry],
    pop: Population,
    field: FieldId,
    s_pred: &dyn SufficientPredicate,
) -> Vec<GroupEstimate> {
    let mut sp = topk_obs::Span::enter("approx.estimate");
    sp.record("sample", sample.len());
    let mut ordered: Vec<&&SampleEntry> = sample.iter().collect();
    ordered.sort_by_key(|e| e.rid);
    let mut inc = IncrementalDedup::new();
    for e in &ordered {
        inc.insert(e.record.clone(), s_pred);
    }
    let p = if pop.n == 0 {
        1.0
    } else {
        (sample.len() as f64 / pop.n as f64).min(1.0)
    };
    let mut out: Vec<GroupEstimate> = inc
        .groups()
        .into_iter()
        .map(|g| {
            let rep = ordered[g.rep as usize];
            let mut sum_sq = 0.0;
            for &m in &g.members {
                let w = ordered[m as usize].record.weight();
                sum_sq += w * w;
            }
            let (estimate, lo, hi) =
                confidence_interval(g.weight, sum_sq, g.members.len(), p, pop.max_weight);
            GroupEstimate {
                partition: rep.partition,
                rep_rid: rep.rid,
                rep_text: rep.record.field(field).text.clone(),
                sampled: g.members.len(),
                sampled_weight: g.weight,
                estimate,
                lo,
                hi,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.estimate
            .total_cmp(&a.estimate)
            .then(a.rep_rid.cmp(&b.rep_rid))
    });
    sp.record("groups", out.len());
    out
}

/// The escalation decision: `(τ, partitions)` where `τ` is the k-th
/// largest interval lower bound over the estimates and `partitions`
/// holds the blocking-partition key of every group whose upper bound
/// reaches `τ`. With fewer than `k` estimates, everything escalates
/// (`τ = −∞`): the sample cannot even name k candidates.
pub fn escalation_partitions(
    estimates: &[GroupEstimate],
    k: usize,
) -> (f64, std::collections::HashSet<u64>) {
    let mut sp = topk_obs::Span::enter("approx.escalate");
    let tau = if estimates.len() < k {
        f64::NEG_INFINITY
    } else {
        let mut los: Vec<f64> = estimates.iter().map(|e| e.lo).collect();
        los.sort_by(|a, b| b.total_cmp(a));
        los[k - 1]
    };
    let parts: std::collections::HashSet<u64> = estimates
        .iter()
        .filter(|e| e.hi >= tau)
        .map(|e| e.partition)
        .collect();
    sp.record("partitions", parts.len());
    (tau, parts)
}

/// One row of the final approximate answer: either a surviving
/// estimate (`escalated == false`) or an exactly recomputed group
/// (`escalated == true`, zero-width interval).
#[derive(Debug, Clone)]
pub struct ApproxGroup {
    /// Estimated (or exact) total group weight.
    pub estimate: f64,
    /// Interval lower bound (`== estimate` when escalated).
    pub lo: f64,
    /// Interval upper bound (`== estimate` when escalated).
    pub hi: f64,
    /// Group size: exact member count when escalated, *sampled* member
    /// count otherwise.
    pub size: u32,
    /// Whether this row came from the exact escalation pass.
    pub escalated: bool,
    /// Global record id of the representative.
    pub rep_rid: u64,
    /// Match-field text of the representative.
    pub rep_text: String,
}

/// Merge exact escalated groups with surviving estimates into the final
/// top-k: sort by (value descending, representative rid ascending) —
/// the exact engine's order — and truncate to `k`.
pub fn merge_topk(mut groups: Vec<ApproxGroup>, k: usize) -> Vec<ApproxGroup> {
    groups.sort_by(|a, b| {
        b.estimate
            .total_cmp(&a.estimate)
            .then(a.rep_rid.cmp(&b.rep_rid))
    });
    groups.truncate(k);
    groups
}

/// What [`approx_topk`] answers with.
#[derive(Debug, Clone)]
pub struct ApproxAnswer {
    /// The top-k rows, escalated and estimated merged by [`merge_topk`].
    pub top: Vec<ApproxGroup>,
    /// Records actually sampled (`min(m(ε), n)`).
    pub sample_size: usize,
    /// Keys of the blocking partitions re-run exactly, ascending.
    pub escalated_partitions: Vec<u64>,
}

/// The whole batch approximate query over an in-memory corpus: sketch
/// every record, collapse the bottom-`m(ε)` sample, escalate the
/// partitions contesting the K-boundary, and merge. `rep_rid` of each
/// returned row indexes `toks`.
pub fn approx_topk(
    toks: &[TokenizedRecord],
    field: FieldId,
    s_pred: &dyn SufficientPredicate,
    k: usize,
    epsilon: f64,
) -> ApproxAnswer {
    let m = sample_size(epsilon);
    let mut sketch = Sketch::new(DEFAULT_SEED, m);
    let mut max_weight = 0.0f64;
    for (rid, t) in toks.iter().enumerate() {
        sketch.offer(rid as u64, collapse_partition_key(&t.field(field).text), t);
        max_weight = max_weight.max(t.weight());
    }
    let pop = Population {
        n: toks.len() as u64,
        max_weight,
    };
    let sample = merge_sketches([&sketch], m);
    let sample_size = sample.len();
    let estimates = estimate_groups(&sample, pop, field, s_pred);
    let (_tau, parts) = escalation_partitions(&estimates, k);

    // Exact collapse over every record of every escalated partition
    // (not just the sampled ones), in record order so ties break the
    // same way as the exact pipeline's.
    let mut cands: Vec<ApproxGroup> = Vec::new();
    if !parts.is_empty() {
        let mut inc = IncrementalDedup::new();
        let mut rids = Vec::new();
        for (rid, t) in toks.iter().enumerate() {
            if parts.contains(&collapse_partition_key(&t.field(field).text)) {
                inc.insert(t.clone(), s_pred);
                rids.push(rid);
            }
        }
        for g in inc.groups() {
            let rep = rids[g.rep as usize];
            cands.push(ApproxGroup {
                estimate: g.weight,
                lo: g.weight,
                hi: g.weight,
                size: g.members.len() as u32,
                escalated: true,
                rep_rid: rep as u64,
                rep_text: toks[rep].field(field).text.clone(),
            });
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
    let mut escalated_partitions: Vec<u64> = parts.into_iter().collect();
    escalated_partitions.sort_unstable();
    ApproxAnswer {
        top: merge_topk(cands, k),
        sample_size,
        escalated_partitions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, w: f64) -> TokenizedRecord {
        TokenizedRecord::from_fields(&[name.to_string()], w)
    }

    struct SamePartition;
    impl SufficientPredicate for SamePartition {
        fn name(&self) -> &str {
            "same-partition"
        }
        fn matches(&self, a: &TokenizedRecord, b: &TokenizedRecord) -> bool {
            a.field(FieldId(0)).text == b.field(FieldId(0)).text
        }
        fn partition_key(&self, r: &TokenizedRecord) -> Option<u64> {
            Some(collapse_partition_key(&r.field(FieldId(0)).text))
        }
        fn blocking_keys(&self, r: &TokenizedRecord) -> Vec<u64> {
            vec![collapse_partition_key(&r.field(FieldId(0)).text)]
        }
    }

    #[test]
    fn sample_size_maps_epsilon() {
        assert_eq!(sample_size(0.05), 3200);
        assert_eq!(sample_size(0.1), 800);
        assert_eq!(sample_size(0.9), 64, "floored at 64");
        assert!(sample_size(0.02) > sample_size(0.05));
    }

    #[test]
    fn epsilon_validation() {
        assert!(validate_epsilon(0.05).is_ok());
        for bad in [0.0, 1.0, -0.1, 1.5, f64::NAN, f64::INFINITY] {
            assert!(validate_epsilon(bad).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn sketch_keeps_bottom_m_regardless_of_order() {
        let r = rec("a b", 1.0);
        let mut fwd = Sketch::new(7, 16);
        let mut rev = Sketch::new(7, 16);
        for rid in 0..100u64 {
            fwd.offer(rid, rid % 5, &r);
        }
        for rid in (0..100u64).rev() {
            rev.offer(rid, rid % 5, &r);
        }
        let a: Vec<u64> = merge_sketches([&fwd], 16).iter().map(|e| e.rid).collect();
        let b: Vec<u64> = merge_sketches([&rev], 16).iter().map(|e| e.rid).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        assert_eq!(fwd.offered(), 100);
    }

    #[test]
    fn split_sketches_merge_to_the_global_sample() {
        let r = rec("a b", 1.0);
        let mut global = Sketch::new(42, 32);
        let mut parts: Vec<Sketch> = (0..4).map(|_| Sketch::new(42, 32)).collect();
        for rid in 0..500u64 {
            let partition = rid.wrapping_mul(0x9e37) % 13;
            global.offer(rid, partition, &r);
            parts[(partition % 4) as usize].offer(rid, partition, &r);
        }
        for m in [1, 8, 32] {
            let g: Vec<u64> = merge_sketches([&global], m).iter().map(|e| e.rid).collect();
            let s: Vec<u64> = merge_sketches(parts.iter(), m)
                .iter()
                .map(|e| e.rid)
                .collect();
            assert_eq!(g, s, "m={m}");
        }
    }

    #[test]
    fn interval_brackets_estimate_and_is_exact_at_full_sampling() {
        let (e, lo, hi) = confidence_interval(10.0, 20.0, 10, 0.25, 3.0);
        assert!((e - 40.0).abs() < 1e-9);
        assert!(lo <= e && e <= hi);
        assert!(lo >= 10.0, "sampled weight is a certain lower bound");
        let (e, lo, hi) = confidence_interval(10.0, 20.0, 10, 1.0, 3.0);
        assert_eq!((e, lo, hi), (10.0, 10.0, 10.0));
        // Small groups fall back to the conservative interval.
        let (e, lo, hi) = confidence_interval(2.0, 4.0, 1, 0.1, 2.0);
        assert!(lo <= e && e <= hi);
        assert_eq!(lo, 2.0);
        assert!(hi > e, "fallback must be conservative, got hi={hi} e={e}");
    }

    #[test]
    fn estimates_scale_sampled_weight_and_escalation_covers_the_boundary() {
        // 20 copies of "grace hopper", 2 of "ada lovelace"; sample half.
        let mut sketch = Sketch::new(3, 11);
        let mut all = Vec::new();
        for rid in 0..22u64 {
            let name = if rid < 20 {
                "grace hopper"
            } else {
                "ada lovelace"
            };
            let r = rec(name, 1.0);
            sketch.offer(rid, collapse_partition_key(name), &r);
            all.push(r);
        }
        let sample = merge_sketches([&sketch], 11);
        let pop = Population {
            n: 22,
            max_weight: 1.0,
        };
        let est = estimate_groups(&sample, pop, FieldId(0), &SamePartition);
        assert!(!est.is_empty());
        let total: f64 = est.iter().map(|e| e.sampled).sum::<usize>() as f64;
        assert_eq!(
            total as usize, 11,
            "every sampled record in exactly one group"
        );
        for e in &est {
            assert!(e.lo <= e.estimate && e.estimate <= e.hi);
            assert!(
                (e.estimate - e.sampled_weight * 2.0).abs() < 1e-9,
                "p = 1/2"
            );
        }
        let (tau, parts) = escalation_partitions(&est, 1);
        assert!(tau.is_finite());
        assert!(
            parts.contains(&est[0].partition),
            "top group straddles its own bound"
        );
        // Fewer estimates than k: escalate everything.
        let (tau, parts) = escalation_partitions(&est, 100);
        assert_eq!(tau, f64::NEG_INFINITY);
        assert_eq!(
            parts.len(),
            est.iter()
                .map(|e| e.partition)
                .collect::<std::collections::HashSet<_>>()
                .len()
        );
    }

    #[test]
    fn merge_orders_by_value_then_rid() {
        let g = |v: f64, rid: u64, esc: bool| ApproxGroup {
            estimate: v,
            lo: v,
            hi: v,
            size: 1,
            escalated: esc,
            rep_rid: rid,
            rep_text: String::new(),
        };
        let merged = merge_topk(vec![g(1.0, 5, false), g(3.0, 9, true), g(3.0, 2, false)], 2);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].rep_rid, 2, "tie broken by rid");
        assert_eq!(merged[1].rep_rid, 9);
    }
}
