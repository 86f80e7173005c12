//! Streaming fixed-bucket latency histogram — O(1) memory, exact
//! count/mean/max, quantiles that never underestimate.

use crate::metrics::LatencySummary;
use std::fmt;

/// Number of sub-buckets per power-of-two octave in
/// [`LatencyHistogram`]: the bucket layout is fixed at compile time, so
/// histograms from different runs always merge and compare.
pub const HIST_SUB_BUCKETS: usize = 16;
/// Octaves covered: values in `[1 µs, 2^40 µs)` land in a log-linear
/// bucket; below is one underflow bucket, above one overflow bucket.
const HIST_OCTAVES: usize = 40;
const HIST_BUCKETS: usize = 1 + HIST_OCTAVES * HIST_SUB_BUCKETS + 1;

/// Streaming fixed-bucket log-linear latency histogram (µs).
///
/// Replaces store-every-sample latency vectors in
/// [`ServeMetrics`](crate::ServeMetrics):
/// memory is a fixed 642-bucket array regardless of sample count, and
/// [`LatencyHistogram::record`] is O(1) with no allocation. Count, sum
/// (→ mean), and max are tracked exactly; quantiles come from the
/// containing bucket's **upper** bound (clamped to the exact max), so a
/// reported quantile **never underestimates** the exact nearest-rank
/// sample and overestimates it by at most
/// [`LatencyHistogram::RELATIVE_ERROR_BOUND`] (plus an absolute 1 µs for
/// sub-µs samples, which share one underflow bucket).
///
/// Bucket indexing is pure bit arithmetic on the IEEE-754 exponent and
/// top mantissa bits — no `log2`, so results are deterministic across
/// platforms. Non-finite or negative samples are counted (in the
/// underflow/overflow buckets) without poisoning the exact sum, so a NaN
/// can never panic or corrupt the metrics path.
#[derive(Clone, PartialEq)]
pub struct LatencyHistogram {
    buckets: Box<[u64; HIST_BUCKETS]>,
    count: u64,
    sum_us: f64,
    max_us: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Worst-case relative overestimate of a quantile for samples ≥ 1 µs:
    /// one bucket width over the bucket's lower edge, `1/HIST_SUB_BUCKETS`.
    pub const RELATIVE_ERROR_BOUND: f64 = 1.0 / HIST_SUB_BUCKETS as f64;

    /// An empty histogram (one fixed-size allocation).
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: Box::new([0; HIST_BUCKETS]),
            count: 0,
            sum_us: 0.0,
            max_us: 0.0,
        }
    }

    /// Records one sample (µs). O(1), allocation-free.
    #[inline]
    pub fn record(&mut self, v_us: f64) {
        self.count += 1;
        if v_us.is_finite() {
            self.sum_us += v_us;
            if v_us > self.max_us {
                self.max_us = v_us;
            }
        }
        self.buckets[Self::bucket_index(v_us)] += 1;
    }

    /// Total samples recorded (non-finite samples included).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of the finite samples (µs).
    pub fn sum_us(&self) -> f64 {
        self.sum_us
    }

    /// Exact mean of the finite samples (µs); 0 when empty.
    pub fn mean_us(&self) -> f64 {
        if self.count > 0 {
            self.sum_us / self.count as f64
        } else {
            0.0
        }
    }

    /// Exact maximum finite sample (µs); 0 when empty.
    pub fn max_us(&self) -> f64 {
        self.max_us
    }

    /// Nearest-rank quantile from the bucket boundaries: the upper bound
    /// of the bucket containing the rank-`⌈q·count⌉` sample, clamped to
    /// the exact max. Never underestimates the exact nearest-rank value;
    /// overestimates by ≤ [`Self::RELATIVE_ERROR_BOUND`] relative (for
    /// samples ≥ 1 µs).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile rank {q}");
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_upper_us(i).min(self.max_us);
            }
        }
        self.max_us
    }

    /// The standard summary derived from the histogram: count, exact
    /// mean and max, bucket-bound p50/p95/p99/p99.9.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count as usize,
            mean_us: self.mean_us(),
            p50_us: self.quantile(0.50),
            p95_us: self.quantile(0.95),
            p99_us: self.quantile(0.99),
            p999_us: self.quantile(0.999),
            max_us: self.max_us,
        }
    }

    /// Merges another histogram into this one (bucket layouts are fixed,
    /// so merging is element-wise).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
        if other.max_us > self.max_us {
            self.max_us = other.max_us;
        }
    }

    /// Cumulative non-empty buckets as `(upper_bound_us, cumulative
    /// count)`, ending with `(∞, count)` — the Prometheus histogram
    /// exposition shape.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                seen += n;
                out.push((Self::bucket_upper_us(i), seen));
            }
        }
        if out.last().is_none_or(|&(le, _)| le.is_finite()) {
            out.push((f64::INFINITY, self.count));
        }
        out
    }

    /// Bucket index for a sample: 0 for anything below 1 µs (or
    /// non-orderable), the last bucket for ≥ 2^40 µs (or +∞), otherwise
    /// log-linear from the IEEE-754 exponent and top mantissa bits.
    #[inline]
    fn bucket_index(v_us: f64) -> usize {
        if v_us.is_nan() || v_us < 1.0 {
            // NaN, negative, and sub-µs samples share the underflow
            // bucket.
            return 0;
        }
        let bits = v_us.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
        if exp >= HIST_OCTAVES as i64 {
            return HIST_BUCKETS - 1;
        }
        let sub = ((bits >> 48) & 0xf) as usize;
        1 + exp as usize * HIST_SUB_BUCKETS + sub
    }

    /// Upper (inclusive-reporting) bound of a bucket in µs.
    fn bucket_upper_us(index: usize) -> f64 {
        if index == 0 {
            return 1.0;
        }
        if index == HIST_BUCKETS - 1 {
            return f64::INFINITY;
        }
        let i = index - 1;
        let exp = (i / HIST_SUB_BUCKETS) as i32;
        let sub = (i % HIST_SUB_BUCKETS) as f64;
        f64::powi(2.0, exp) * (1.0 + (sub + 1.0) / HIST_SUB_BUCKETS as f64)
    }
}

impl fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // 642 raw buckets would drown assertion diffs; show the summary
        // plus the non-empty buckets only.
        let nonzero: Vec<(usize, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
            .collect();
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("sum_us", &self.sum_us)
            .field("max_us", &self.max_us)
            .field("nonzero_buckets", &nonzero)
            .finish()
    }
}
