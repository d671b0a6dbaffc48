//! Lock-free latency histograms for long-running serving paths.
//!
//! The eval harness records exact per-question durations because it owns
//! the whole run; a server cannot — it needs bounded-memory, concurrent
//! recording over an unbounded request stream. [`LatencyHistogram`] is a
//! fixed array of power-of-two microsecond buckets updated with relaxed
//! atomics: recording is two `fetch_add`s and a `fetch_max`, reading takes
//! a [`HistogramSnapshot`] with estimated quantiles.
//!
//! Bucket `i` covers `[2^(i-1), 2^i)` µs (bucket 0 is `[0, 1)` µs), so 40
//! buckets span sub-microsecond to ~6 days — more than any deadline this
//! workspace allows. Quantiles are read at the upper edge of the bucket
//! containing the target rank: a conservative (never under-reporting)
//! estimate with ≤2× resolution error, the standard trade-off for
//! log-bucketed histograms.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two buckets. `2^39` µs ≈ 6.4 days.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Concurrent fixed-memory latency histogram. See module docs.
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

/// Index of the bucket covering `us` microseconds (shared with
/// [`crate::window`], whose per-second histograms use the same layout).
#[inline]
pub(crate) fn bucket_of(us: u64) -> usize {
    // 0 → bucket 0, otherwise 1 + floor(log2(us)), clamped to the last.
    if us == 0 {
        0
    } else {
        ((64 - us.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Upper edge (exclusive) of bucket `i` in microseconds.
#[inline]
fn bucket_upper_us(i: usize) -> u64 {
    1u64 << i
}

/// Lower edge (inclusive) of bucket `i` in microseconds.
#[inline]
fn bucket_lower_us(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `us` microseconds.
    pub fn record_us(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Records one observation of a [`Duration`].
    pub fn record(&self, d: Duration) {
        self.record_us(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Takes a point-in-time copy with precomputed quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        // Per-field relaxed loads can skew against racing writers; derive
        // the count from the bucket copy so quantile ranks stay consistent.
        let count: u64 = buckets.iter().sum();
        let mut snap = HistogramSnapshot {
            count,
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
            p50_us: 0,
            p95_us: 0,
            p99_us: 0,
            buckets,
        };
        snap.p50_us = snap.quantile_us(0.50);
        snap.p95_us = snap.quantile_us(0.95);
        snap.p99_us = snap.quantile_us(0.99);
        snap
    }
}

/// Upper-edge estimate of the `q`-quantile over bucket counts in this
/// module's layout, holding `count` observations whose largest is
/// `max_us` (shared with [`crate::window`]). See
/// [`HistogramSnapshot::quantile_us`].
pub(crate) fn quantile_us(buckets: &[u64], count: u64, max_us: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            // The largest observation caps the estimate, clamped into the
            // bucket so a quantile can never exceed the max it reports
            // beside (an all-zero histogram reads 0, not bucket 0's edge).
            return bucket_upper_us(i).min(max_us.max(bucket_lower_us(i)));
        }
    }
    max_us
}

/// Plain-old-data copy of a [`LatencyHistogram`], serializable for
/// `/metrics` responses and `BENCH_serve.json`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum_us: u64,
    pub max_us: u64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
    /// Per-bucket counts; bucket `i` covers `[2^(i-1), 2^i)` µs.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Upper-edge estimate of the `q`-quantile (0 < q ≤ 1) in µs; 0 when
    /// empty. Never under-reports: the true quantile lies in the returned
    /// bucket, whose exclusive upper edge is reported, capped at `max_us`
    /// (or at the bucket's lower edge, if that is higher).
    pub fn quantile_us(&self, q: f64) -> u64 {
        quantile_us(&self.buckets, self.count, self.max_us, q)
    }

    /// Mean observation in µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn quantiles_bound_the_data() {
        let h = LatencyHistogram::new();
        for us in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 1000] {
            h.record_us(us);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        assert_eq!(s.max_us, 1000);
        // p50 over {10..90, 1000}: true median 50, upper-edge estimate ≤ 64.
        assert!(s.p50_us >= 50 && s.p50_us <= 64, "p50={}", s.p50_us);
        // p99 lands in the 1000 bucket: [512, 1024), capped at max 1000.
        assert!(s.p99_us >= 1000 && s.p99_us <= 1024, "p99={}", s.p99_us);
        assert!((s.mean_us() - 145.0).abs() < 1e-9);
    }

    #[test]
    fn exact_powers_of_two_land_in_exactly_one_bucket() {
        // A power of two is the *inclusive lower* edge of its bucket:
        // 2^k → bucket k+1 ([2^k, 2^(k+1))), never split across two.
        for k in 0..(HISTOGRAM_BUCKETS - 2) {
            let v = 1u64 << k;
            let h = LatencyHistogram::new();
            h.record_us(v);
            let s = h.snapshot();
            let nonzero: Vec<usize> = (0..s.buckets.len()).filter(|&i| s.buckets[i] > 0).collect();
            assert_eq!(
                nonzero,
                vec![k + 1],
                "2^{k} must occupy only bucket {}",
                k + 1
            );
            // And the value just below the edge lands one bucket lower
            // (2^k − 1 → bucket k; for k = 0 that value is 0 → bucket 0).
            assert_eq!(bucket_of(v - 1), k, "2^{k}-1 below the edge");
        }
    }

    #[test]
    fn quantile_extremes_p0_and_p100() {
        let h = LatencyHistogram::new();
        for us in [5u64, 100, 3000] {
            h.record_us(us);
        }
        let s = h.snapshot();
        // q→0 clamps the rank to 1: the first occupied bucket's upper edge.
        assert_eq!(s.quantile_us(0.0), 8);
        assert_eq!(s.quantile_us(f64::MIN_POSITIVE), 8);
        // q=1 is the last observation's bucket, capped at the exact max.
        assert_eq!(s.quantile_us(1.0), 3000);
        // Never under-reports anywhere in between.
        for q in [0.25, 0.5, 0.75, 0.9] {
            assert!(s.quantile_us(q) >= 5);
            assert!(s.quantile_us(q) <= 3000);
        }
    }

    #[test]
    fn quantile_extremes_on_empty_histogram() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.quantile_us(0.0), 0);
        assert_eq!(s.quantile_us(0.5), 0);
        assert_eq!(s.quantile_us(1.0), 0);
    }

    #[test]
    fn single_zero_observation_quantiles() {
        let h = LatencyHistogram::new();
        h.record_us(0);
        let s = h.snapshot();
        // Bucket 0's upper edge is 1µs, but max_us = 0 caps the estimate.
        assert_eq!(s.count, 1);
        assert_eq!(s.max_us, 0);
        assert_eq!(s.quantile_us(0.5), 0);
        assert_eq!(s.quantile_us(1.0), 0);
    }

    #[test]
    fn all_zero_histogram_reports_zero_quantiles() {
        // Sub-microsecond stages (e.g. a parallel CHECK pool that finishes
        // within the same microsecond) record only zeros; no quantile may
        // read above the max of 0 reported beside it.
        let h = LatencyHistogram::new();
        for _ in 0..27 {
            h.record_us(0);
        }
        let s = h.snapshot();
        assert_eq!((s.count, s.max_us), (27, 0));
        assert_eq!((s.p50_us, s.p95_us, s.p99_us), (0, 0, 0));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_us, 0);
        assert_eq!(s.quantile_us(0.99), 0);
        assert_eq!(s.mean_us(), 0.0);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        use std::sync::Arc;
        let h = Arc::new(LatencyHistogram::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    h.record_us(t * 1000 + i);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4000);
        assert_eq!(s.max_us, 3999);
    }

    #[test]
    fn snapshot_json_round_trip() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(150));
        h.record(Duration::from_millis(2));
        let s = h.snapshot();
        let json = serde_json::to_string(&s).unwrap();
        let back: HistogramSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
