//! A deterministic log-linear histogram (HDR-style).
//!
//! Values are bucketed with 4 bits of sub-bucket precision: every
//! power-of-two range `[2^e, 2^(e+1))` is split into 16 linear
//! sub-buckets, so the relative quantization error is bounded by 1/16
//! (~6.25 %) at any magnitude, while values below 16 are exact. Bucket
//! boundaries are pure integer arithmetic on the value — no floating
//! point, no allocation-order dependence — so two histograms fed the
//! same multiset of values are bit-identical regardless of insertion
//! order, and [`merge`](LogLinearHistogram::merge) is associative and
//! commutative (the property test in `tests/prop_histogram.rs` drives
//! all three claims).

/// Bits of linear sub-bucket precision per power-of-two range.
const SUB_BITS: u32 = 4;
/// Linear sub-buckets per power-of-two range (and the exact-value range).
const SUB: u64 = 1 << SUB_BITS;

/// Total bucket count: 16 exact buckets for values `< 16`, then 16
/// sub-buckets for each exponent 4..=63.
pub const NUM_BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// Index of the bucket recording `value`.
pub fn bucket_index(value: u64) -> usize {
    if value < SUB {
        value as usize
    } else {
        let e = 63 - value.leading_zeros() as u64;
        let sub = (value >> (e - SUB_BITS as u64)) & (SUB - 1);
        ((e - (SUB_BITS as u64 - 1)) * SUB + sub) as usize
    }
}

/// Smallest value recorded by bucket `index` (the bucket covers
/// `[lower_bound(i), lower_bound(i + 1))`).
pub fn bucket_lower_bound(index: usize) -> u64 {
    let i = index as u64;
    if i < SUB {
        i
    } else {
        let e = i / SUB + (SUB_BITS as u64 - 1);
        let sub = i % SUB;
        (SUB + sub) << (e - SUB_BITS as u64)
    }
}

/// A point-in-time summary of a histogram, in whatever unit was recorded
/// (the telemetry plane records nanoseconds of sim time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Saturating sum of all recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value, exact (0 when empty).
    pub max: u64,
    /// Median estimate (bucket lower bound).
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

/// The histogram itself. See the module docs for the bucketing scheme.
#[derive(Clone, PartialEq, Eq)]
pub struct LogLinearHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogLinearHistogram {
    fn default() -> Self {
        LogLinearHistogram::new()
    }
}

impl LogLinearHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LogLinearHistogram {
        LogLinearHistogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds `other` into `self`. Associative and commutative: merging a
    /// set of histograms yields the same result in any grouping/order.
    pub fn merge(&mut self, other: &LogLinearHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the lower bound of the bucket
    /// holding the rank-`ceil(q · count)` value; 0 when empty. Monotone
    /// in `q` and never exceeds `max`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_lower_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Summarizes the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

impl std::fmt::Debug for LogLinearHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogLinearHistogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower_bound(v as usize), v);
        }
    }

    #[test]
    fn boundaries_bracket_their_values() {
        for v in [16u64, 17, 31, 32, 100, 1_000, 65_535, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_lower_bound(i) <= v, "lb({i}) > {v}");
            if i + 1 < NUM_BUCKETS {
                assert!(v < bucket_lower_bound(i + 1), "{v} >= lb({})", i + 1);
            }
        }
    }

    #[test]
    fn quantiles_are_sane() {
        let mut h = LogLinearHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
        // p50 within one sub-bucket of the true median.
        assert!((448..=512).contains(&s.p50), "p50 = {}", s.p50);
    }

    #[test]
    fn empty_snapshot_is_zeroed() {
        assert_eq!(
            LogLinearHistogram::new().snapshot(),
            HistogramSnapshot::default()
        );
    }

    #[test]
    fn merge_accumulates() {
        let mut a = LogLinearHistogram::new();
        let mut b = LogLinearHistogram::new();
        a.record(5);
        b.record(500);
        a.merge(&b);
        let s = a.snapshot();
        assert_eq!((s.count, s.min, s.max), (2, 5, 500));
    }
}
