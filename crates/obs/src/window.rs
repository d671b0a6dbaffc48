//! Sliding-window SLO metrics: a ring of per-second buckets.
//!
//! Cumulative counters answer "how much since boot"; an operator paging on
//! an SLO needs "how much in the last 10/60 seconds". [`WindowRing`] keeps
//! a fixed ring of per-second buckets — each holding a request count, an
//! error count, and a log₂ latency histogram (the same bucket layout as
//! [`crate::LatencyHistogram`]) — and answers trailing-window queries
//! (QPS, error rate, p50/p95/p99) by merging the buckets whose epoch falls
//! inside the window. Memory is fixed (`capacity_secs` buckets), stale
//! buckets are lazily reset on reuse, and the whole structure is
//! deterministic: time enters only as an explicit second index, so tests
//! drive it with a fake clock.
//!
//! [`SlidingWindow`] wraps the ring with a monotonic origin `Instant` and
//! a mutex for concurrent recording — one short lock per request, which is
//! noise next to the request itself.

use crate::histogram::{bucket_of, quantile_us, HISTOGRAM_BUCKETS};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One second of traffic.
struct SecondBucket {
    /// Which absolute second this bucket currently holds; `u64::MAX` when
    /// never written.
    epoch: u64,
    count: u64,
    errors: u64,
    sum_us: u64,
    max_us: u64,
    hist: [u64; HISTOGRAM_BUCKETS],
}

impl SecondBucket {
    fn empty() -> Self {
        SecondBucket {
            epoch: u64::MAX,
            count: 0,
            errors: 0,
            sum_us: 0,
            max_us: 0,
            hist: [0; HISTOGRAM_BUCKETS],
        }
    }

    fn reset(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.count = 0;
        self.errors = 0;
        self.sum_us = 0;
        self.max_us = 0;
        self.hist = [0; HISTOGRAM_BUCKETS];
    }
}

/// Deterministic core of the sliding window. Not internally synchronised.
pub struct WindowRing {
    buckets: Vec<SecondBucket>,
}

impl WindowRing {
    /// A ring spanning `capacity_secs` distinct seconds (≥ the longest
    /// window you will query, plus slack for the partially-filled current
    /// second).
    pub fn new(capacity_secs: usize) -> Self {
        assert!(capacity_secs >= 2, "ring needs at least two second slots");
        WindowRing {
            buckets: (0..capacity_secs).map(|_| SecondBucket::empty()).collect(),
        }
    }

    /// Records one observation during absolute second `sec`.
    pub fn record(&mut self, sec: u64, latency_us: u64, error: bool) {
        let cap = self.buckets.len();
        let b = &mut self.buckets[(sec as usize) % cap];
        if b.epoch != sec {
            b.reset(sec);
        }
        b.count += 1;
        if error {
            b.errors += 1;
        }
        b.sum_us += latency_us;
        b.max_us = b.max_us.max(latency_us);
        b.hist[bucket_of(latency_us)] += 1;
    }

    /// Trailing-window statistics over the `window_secs` seconds ending at
    /// (and including) `now_sec`. `window_secs` is clamped to the ring
    /// capacity.
    pub fn stats(&self, now_sec: u64, window_secs: u64) -> WindowStats {
        let window_secs = window_secs.clamp(1, self.buckets.len() as u64);
        let oldest = now_sec.saturating_sub(window_secs - 1);
        let mut merged = [0u64; HISTOGRAM_BUCKETS];
        let mut out = WindowStats {
            window_secs,
            ..WindowStats::default()
        };
        let mut sum_us = 0u64;
        for b in &self.buckets {
            if b.epoch == u64::MAX || b.epoch < oldest || b.epoch > now_sec {
                continue;
            }
            out.count += b.count;
            out.errors += b.errors;
            sum_us += b.sum_us;
            out.max_us = out.max_us.max(b.max_us);
            for (m, h) in merged.iter_mut().zip(b.hist.iter()) {
                *m += h;
            }
        }
        out.qps = out.count as f64 / window_secs as f64;
        out.error_rate = if out.count == 0 {
            0.0
        } else {
            out.errors as f64 / out.count as f64
        };
        out.mean_us = if out.count == 0 {
            0.0
        } else {
            sum_us as f64 / out.count as f64
        };
        out.p50_us = quantile_us(&merged, out.count, out.max_us, 0.50);
        out.p95_us = quantile_us(&merged, out.count, out.max_us, 0.95);
        out.p99_us = quantile_us(&merged, out.count, out.max_us, 0.99);
        out
    }
}

/// Trailing-window summary, serialisable for `/metrics` in both JSON and
/// Prometheus exposition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    pub window_secs: u64,
    pub count: u64,
    pub errors: u64,
    pub qps: f64,
    pub error_rate: f64,
    pub mean_us: f64,
    pub max_us: u64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
}

/// The window's time source: the real monotonic clock in production, an
/// explicitly advanced second counter in tests. The ring itself never
/// reads a clock — this enum is the only place time enters.
enum Clock {
    Monotonic(Instant),
    Manual(Arc<AtomicU64>),
}

impl Clock {
    fn now_sec(&self) -> u64 {
        match self {
            Clock::Monotonic(origin) => origin.elapsed().as_secs(),
            Clock::Manual(sec) => sec.load(Ordering::Relaxed),
        }
    }
}

/// Handle to a [`SlidingWindow`]'s injected clock: tests advance it
/// deterministically instead of sleeping through real seconds.
#[derive(Clone)]
pub struct ManualClock(Arc<AtomicU64>);

impl ManualClock {
    /// Moves the clock forward by `secs` whole seconds.
    pub fn advance(&self, secs: u64) {
        self.0.fetch_add(secs, Ordering::Relaxed);
    }

    /// Jumps the clock to absolute second `sec` (monotonicity is the
    /// caller's responsibility, as with any fake clock).
    pub fn set(&self, sec: u64) {
        self.0.store(sec, Ordering::Relaxed);
    }

    /// The current absolute second.
    pub fn now_sec(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Concurrent sliding window on an injectable clock (real monotonic time
/// unless built via [`SlidingWindow::with_manual_clock`]).
pub struct SlidingWindow {
    clock: Clock,
    ring: Mutex<WindowRing>,
}

impl SlidingWindow {
    /// Default ring: 2 minutes of one-second buckets, enough for 10s/60s
    /// windows with slack for the in-progress second.
    pub fn new() -> Self {
        Self::with_capacity(120)
    }

    pub fn with_capacity(capacity_secs: usize) -> Self {
        SlidingWindow {
            clock: Clock::Monotonic(Instant::now()),
            ring: Mutex::new(WindowRing::new(capacity_secs)),
        }
    }

    /// A window driven by a manually advanced clock starting at second 0.
    /// Tests use this to cross second boundaries without sleeping.
    pub fn with_manual_clock(capacity_secs: usize) -> (Self, ManualClock) {
        let sec = Arc::new(AtomicU64::new(0));
        let w = SlidingWindow {
            clock: Clock::Manual(Arc::clone(&sec)),
            ring: Mutex::new(WindowRing::new(capacity_secs)),
        };
        (w, ManualClock(sec))
    }

    /// Records one observation "now".
    pub fn record(&self, latency_us: u64, error: bool) {
        let sec = self.clock.now_sec();
        self.ring.lock().record(sec, latency_us, error);
    }

    /// Statistics over the trailing `window_secs` seconds ending now.
    pub fn stats(&self, window_secs: u64) -> WindowStats {
        let sec = self.clock.now_sec();
        self.ring.lock().stats(sec, window_secs)
    }
}

impl Default for SlidingWindow {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_counts_only_the_trailing_seconds() {
        let mut r = WindowRing::new(120);
        for sec in 0..30u64 {
            for _ in 0..10 {
                r.record(sec, 100, false);
            }
        }
        // At second 29, a 10s window covers seconds 20..=29.
        let s = r.stats(29, 10);
        assert_eq!(s.count, 100);
        assert!((s.qps - 10.0).abs() < 1e-12);
        // A 60s window clamps to available data: 30 seconds × 10.
        let s = r.stats(29, 60);
        assert_eq!(s.count, 300);
        assert!((s.qps - 5.0).abs() < 1e-12);
        // Long after traffic stopped, the window is empty.
        let s = r.stats(100, 10);
        assert_eq!(s.count, 0);
        assert_eq!(s.qps, 0.0);
        assert_eq!(s.p99_us, 0);
    }

    #[test]
    fn stale_buckets_are_lazily_reset_on_reuse() {
        let mut r = WindowRing::new(4);
        r.record(0, 100, false);
        r.record(0, 100, false);
        // Second 4 maps onto the same slot as second 0; the old contents
        // must not leak into the new epoch.
        r.record(4, 200, true);
        let s = r.stats(4, 1);
        assert_eq!(s.count, 1);
        assert_eq!(s.errors, 1);
        assert_eq!(s.max_us, 200);
    }

    #[test]
    fn error_rate_and_quantiles() {
        let mut r = WindowRing::new(120);
        for i in 0..100u64 {
            // 10, 20, ..., 1000 µs; every 10th an error.
            r.record(5, (i + 1) * 10, i % 10 == 0);
        }
        let s = r.stats(5, 10);
        assert_eq!(s.count, 100);
        assert_eq!(s.errors, 10);
        assert!((s.error_rate - 0.10).abs() < 1e-12);
        // True p50 = 500µs; upper-edge estimate within one log₂ bucket.
        assert!(s.p50_us >= 500 && s.p50_us <= 1024, "p50={}", s.p50_us);
        assert!(s.p99_us >= 990 && s.p99_us <= 1024, "p99={}", s.p99_us);
        assert_eq!(s.max_us, 1000);
        assert!((s.mean_us - 505.0).abs() < 1e-9);
    }

    #[test]
    fn sliding_window_is_deterministic_under_a_manual_clock() {
        let (w, clock) = SlidingWindow::with_manual_clock(120);
        w.record(150, false);
        w.record(250, true);
        let s = w.stats(10);
        assert_eq!(s.count, 2);
        assert_eq!(s.errors, 1);
        assert!(s.p50_us >= 150);

        // Cross second boundaries without sleeping: 5 seconds later both
        // records are still inside a 10s window, outside a 2s one.
        clock.advance(5);
        assert_eq!(w.stats(10).count, 2);
        assert_eq!(w.stats(2).count, 0);
        w.record(400, false);
        let s = w.stats(10);
        assert_eq!(s.count, 3);
        assert_eq!(s.max_us, 400);

        // Far past the window, everything ages out.
        clock.set(200);
        let s = w.stats(60);
        assert_eq!(s.count, 0);
        assert_eq!(s.qps, 0.0);
    }

    #[test]
    fn monotonic_clock_still_records() {
        // Smoke only — all boundary behaviour is covered by the manual
        // clock above; this just pins the production constructor.
        let w = SlidingWindow::new();
        w.record(150, false);
        assert_eq!(w.stats(10).count, 1);
    }

    #[test]
    fn stats_json_round_trip() {
        let mut r = WindowRing::new(8);
        r.record(1, 10, false);
        let s = r.stats(1, 4);
        let json = serde_json::to_string(&s).unwrap();
        let back: WindowStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
