//! Exact order statistics over raw samples. Nothing here buckets: a
//! percentile is a value that was actually observed.

/// Percentiles a timing may be reported at, highest first.
const TAILS: [f64; 5] = [99.99, 99.9, 99.0, 95.0, 90.0];

/// How many samples must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Rank (1-based) of the `p`-th percentile among `n` samples:
/// `ceil(p/100 * n)`, in whole hundredths of a percent so that 99.9 % of
/// 10 000 is rank 9 990 and not, through a rounding error, 9 991.
fn rank(n: usize, p: f64) -> usize {
    let hundredths = (p * 100.0).round() as u128;
    ((hundredths * n as u128).div_ceil(10_000) as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of samples in any order.
pub fn median_of(samples: &[f64]) -> f64 {
    median(&sorted(samples.to_vec()))
}

/// Number of samples strictly beyond the `p`-th percentile's rank.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest percentile of [`TAILS`] that still has [`MIN_BEYOND`]
/// samples beyond it, if any.
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .copied()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method), so `--aa` judges a spread exactly
/// the way the acceptance rule does. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values.to_vec());
    let n = data.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let med = median_of(values);
    if med == 0.0 {
        return if q3 == q1 { 0.0 } else { f64::INFINITY };
    }
    (q3 - q1) / med.abs()
}

/// Medians of up to eight contiguous blocks of `samples`, each of at
/// least four samples (one block when there are fewer than eight).
pub fn block_medians(samples: &[f64]) -> Vec<f64> {
    let blocks = (samples.len() / 4).clamp(1, 8);
    let size = samples.len().div_ceil(blocks).max(1);
    samples.chunks(size).map(median_of).collect()
}

/// The value of a repeated timing with the host's interference taken
/// out: the lower quartile of the repetitions. Interference from outside
/// the sandbox only ever adds time, in bursts of a few hundred
/// milliseconds to a few seconds, so the repetitions it hit are the high
/// ones; a median holds until half of them are hit, this until three
/// quarters are. A change in the program moves every repetition and so
/// moves this as much as it moves the median. Never below the fastest
/// repetition (the quartile of three values or fewer is the minimum).
pub fn calm_low(values: &[f64]) -> f64 {
    let lowest = values.iter().copied().fold(f64::INFINITY, f64::min);
    if values.len() < 2 {
        return lowest;
    }
    quartiles(values)[0].max(lowest)
}

/// [`calm_low`] for a rate, where interference only ever takes away: the
/// upper quartile, never above the best repetition.
pub fn calm_high(values: &[f64]) -> f64 {
    let highest = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if values.len() < 2 {
        return highest;
    }
    quartiles(values)[2].min(highest)
}

/// The p50 of a phase's samples as the calm value of its block medians.
pub fn calm_p50(samples: &[f64]) -> f64 {
    calm_low(&block_medians(samples))
}

/// Open-loop lateness accounting: how late each tick started against
/// its due time, and the share that started more than one period late.
#[derive(Debug, Clone, Default)]
pub struct Lateness {
    pub late_us: Vec<f64>,
    pub over_one_tick: usize,
}

impl Lateness {
    /// Record a tick due at `due_us` that started at `start_us`, with
    /// ticks `period_us` apart. A tick that starts early is on time.
    pub fn record(&mut self, due_us: f64, start_us: f64, period_us: f64) {
        let late = (start_us - due_us).max(0.0);
        if late > period_us {
            self.over_one_tick += 1;
        }
        self.late_us.push(late);
    }

    pub fn over_pct(&self) -> f64 {
        if self.late_us.is_empty() {
            0.0
        } else {
            100.0 * self.over_one_tick as f64 / self.late_us.len() as f64
        }
    }
}

/// FNV-1a over bytes, chained through `state` (start from
/// [`FNV_OFFSET`]); the `answer_fnv` of a run is this hash over every
/// answer it verified, in order.
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_an_observed_sample() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // Two distinct samples never collapse to one value.
        let two = [1.0, 9.0];
        assert_eq!(percentile(&two, 50.0), 1.0);
        assert_eq!(percentile(&two, 99.0), 9.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples sits at rank 990: exactly 10 beyond.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(highest_supported_tail(1000), Some(99.0));
        assert_eq!(highest_supported_tail(999), Some(95.0));
        assert_eq!(highest_supported_tail(10_000), Some(99.9));
        assert_eq!(highest_supported_tail(100_000), Some(99.99));
        assert_eq!(highest_supported_tail(100), Some(90.0));
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2, 10, 4], n=4) == [1.5, 3.0, 7.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0, 4.0]), [1.5, 3.0, 7.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(relative_spread(&v), 1.0);
    }

    #[test]
    fn calm_values_ignore_the_disturbed_repetitions() {
        // Eight blocks of four; five of them hit by +50 %.
        let mut samples = Vec::new();
        for block in 0..8 {
            let hit = if block % 3 == 0 { 1.0 } else { 1.5 };
            samples.extend([100.0, 101.0, 102.0, 103.0].map(|v| v * hit));
        }
        assert_eq!(block_medians(&samples).len(), 8);
        assert_eq!(
            calm_p50(&samples),
            101.5,
            "three clean blocks of eight suffice"
        );
        assert!(median_of(&samples) > 140.0, "the plain median is hit");
        // A real slowdown moves every block, and the calm value with it.
        let slower: Vec<f64> = samples.iter().map(|v| v * 1.2).collect();
        assert!((calm_p50(&slower) / calm_p50(&samples) - 1.2).abs() < 1e-9);
        // Few repetitions: the fastest one, never an extrapolation below it.
        assert_eq!(calm_low(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(calm_low(&[1.0, 2.0]), 1.0);
        assert_eq!(calm_low(&[7.0]), 7.0);
        assert_eq!(calm_low(&[5.0, 1.0, 2.0, 3.0, 4.0]), 1.5);
        assert_eq!(calm_high(&[10.0, 30.0, 20.0]), 30.0);
        assert_eq!(calm_high(&[1.0, 2.0, 3.0, 4.0, 5.0]), 4.5);
        // Fewer than eight samples are one block.
        assert_eq!(block_medians(&[1.0, 2.0, 9.0]), vec![2.0]);
    }

    #[test]
    fn lateness_counts_only_ticks_over_one_period() {
        let mut l = Lateness::default();
        l.record(0.0, 10.0, 32_000.0); // 10 µs late: on time
        l.record(32_000.0, 31_000.0, 32_000.0); // early: on time, lateness 0
        l.record(64_000.0, 64_000.0 + 32_000.0, 32_000.0); // exactly one period: not over
        l.record(96_000.0, 96_000.0 + 32_001.0, 32_000.0); // over
        assert_eq!(l.late_us, vec![10.0, 0.0, 32_000.0, 32_001.0]);
        assert_eq!(l.over_one_tick, 1);
        assert_eq!(l.over_pct(), 25.0);
    }

    #[test]
    fn fnv_is_the_reference_function() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        // Chaining equals hashing the concatenation.
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"ab"), b"c"),
            fnv1a(FNV_OFFSET, b"abc")
        );
    }
}
