//! Slow-request forensics: a bounded ring of the slowest-N requests.
//!
//! A tail-latency spike observed in a histogram is unexplainable after
//! the fact — the histogram keeps the duration and drops everything else.
//! [`SlowRing`] keeps the full context of the slowest requests instead:
//! stage latencies *and* per-stage allocation deltas, the pinned graph
//! epoch, the scheduler's cost estimate, and (for explains) the complete
//! replayable [`ExplainTrace`]. The service maintains one ring per
//! endpoint and serves both at `GET /debug/slow`, so "why was p99 bad at
//! 14:03" is answerable without re-running load.
//!
//! The ring is *value-bounded*, not time-bounded: an entry is admitted
//! only while the ring has room or the candidate is slower than the
//! current minimum, which it then evicts. Entries are kept sorted by
//! descending `total_us`, so a snapshot is already in presentation order
//! and the eviction victim is always `entries.last()`.

use emigre_obs::{ExplainTrace, StageLatencies};
use serde::{Deserialize, Serialize};

/// Everything needed to explain one slow request after the fact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlowEntry {
    pub request_id: u64,
    /// `"explain"` or `"recommend"`.
    pub endpoint: String,
    /// Terminal outcome label (same vocabulary as the event log).
    pub outcome: String,
    pub user: u32,
    pub wni: Option<u32>,
    pub method: Option<String>,
    /// Explanation mode recorded by the engine (explains only).
    pub mode: Option<String>,
    /// End-to-end duration including queue wait; the ring's sort key.
    pub total_us: u64,
    /// Stage latencies and per-stage allocation deltas.
    pub stages: StageLatencies,
    /// Graph epoch the request was pinned to.
    pub epoch: u64,
    /// The admission scheduler's cost estimate at submit time; a large
    /// gap against `total_us` flags a mispredicted (and thus mis-
    /// scheduled) request.
    pub expected_cost_us: Option<u64>,
    /// Full replayable trace (explains under `trace_capacity`; `None`
    /// for recommends).
    pub trace: Option<ExplainTrace>,
}

/// Bounded slowest-N ring for one endpoint; see the module docs. The
/// default ring has capacity 0 and keeps nothing.
#[derive(Debug, Default)]
pub struct SlowRing {
    cap: usize,
    /// Sorted by descending `total_us`.
    entries: Vec<SlowEntry>,
}

impl SlowRing {
    /// A ring retaining the `cap` slowest requests (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "slow ring capacity must be at least 1");
        SlowRing {
            cap,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Whether a request of this duration would be admitted right now.
    /// Lets the caller skip building an entry (cloning the trace) for
    /// the common fast-request case — call under the same lock as the
    /// subsequent [`SlowRing::offer`].
    pub fn admits(&self, total_us: u64) -> bool {
        self.entries.len() < self.cap || self.entries.last().is_some_and(|e| total_us > e.total_us)
    }

    /// Offers an entry; returns whether it was admitted (and therefore
    /// whether the caller should flag the request as slow). Admission:
    /// the ring has room, or the entry beats the current minimum, which
    /// is evicted.
    pub fn offer(&mut self, entry: SlowEntry) -> bool {
        if self.entries.len() >= self.cap {
            let min = self.entries.last().map_or(u64::MAX, |e| e.total_us);
            if entry.total_us <= min {
                return false;
            }
            self.entries.pop();
        }
        // Insert position by descending total_us; ties keep insertion
        // order (stable for equal durations).
        let pos = self
            .entries
            .partition_point(|e| e.total_us >= entry.total_us);
        self.entries.insert(pos, entry);
        true
    }

    /// The retained entries, slowest first.
    pub fn snapshot(&self) -> Vec<SlowEntry> {
        self.entries.clone()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }
}

/// The `GET /debug/slow` payload: both per-endpoint rings, slowest first.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlowSnapshot {
    pub explain: Vec<SlowEntry>,
    pub recommend: Vec<SlowEntry>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64, total_us: u64) -> SlowEntry {
        SlowEntry {
            request_id: id,
            endpoint: "explain".to_owned(),
            outcome: "found".to_owned(),
            user: 1,
            wni: Some(2),
            method: Some("Incremental".to_owned()),
            mode: None,
            total_us,
            stages: StageLatencies {
                total_us,
                ..StageLatencies::default()
            },
            epoch: 0,
            expected_cost_us: Some(100),
            trace: None,
        }
    }

    #[test]
    fn fills_to_capacity_then_keeps_only_the_slowest() {
        let mut ring = SlowRing::new(3);
        assert!(ring.offer(entry(1, 100)));
        assert!(ring.offer(entry(2, 300)));
        assert!(ring.offer(entry(3, 200)));
        assert_eq!(ring.len(), 3);
        // Faster than the current minimum: rejected, ring unchanged.
        assert!(!ring.offer(entry(4, 50)));
        assert!(!ring.offer(entry(5, 100)), "ties lose to the incumbent");
        // Slower than the minimum: admitted, evicts id 1 (100µs).
        assert!(ring.offer(entry(6, 250)));
        let ids: Vec<u64> = ring.snapshot().iter().map(|e| e.request_id).collect();
        assert_eq!(ids, vec![2, 6, 3]);
    }

    #[test]
    fn snapshot_is_sorted_slowest_first() {
        let mut ring = SlowRing::new(8);
        for (id, us) in [(1, 50), (2, 500), (3, 10), (4, 300)] {
            ring.offer(entry(id, us));
        }
        let totals: Vec<u64> = ring.snapshot().iter().map(|e| e.total_us).collect();
        assert_eq!(totals, vec![500, 300, 50, 10]);
    }

    #[test]
    fn eviction_order_is_always_the_current_minimum() {
        let mut ring = SlowRing::new(2);
        ring.offer(entry(1, 100));
        ring.offer(entry(2, 200));
        ring.offer(entry(3, 300)); // evicts 1
        ring.offer(entry(4, 250)); // evicts 2
        let ids: Vec<u64> = ring.snapshot().iter().map(|e| e.request_id).collect();
        assert_eq!(ids, vec![3, 4]);
        assert_eq!(ring.capacity(), 2);
    }

    #[test]
    fn equal_durations_keep_first_come_order() {
        let mut ring = SlowRing::new(4);
        ring.offer(entry(1, 100));
        ring.offer(entry(2, 100));
        ring.offer(entry(3, 100));
        let ids: Vec<u64> = ring.snapshot().iter().map(|e| e.request_id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn the_default_ring_keeps_nothing() {
        let mut ring = SlowRing::default();
        assert!(!ring.admits(u64::MAX));
        assert!(!ring.offer(entry(1, 100)));
        assert!(ring.is_empty());
    }

    #[test]
    fn entries_round_trip_as_json() {
        let mut ring = SlowRing::new(1);
        ring.offer(entry(7, 1234));
        let snap = SlowSnapshot {
            explain: ring.snapshot(),
            recommend: Vec::new(),
        };
        let json = serde_json::to_string(&snap).unwrap();
        let back: SlowSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.explain.len(), 1);
        assert_eq!(back.explain[0].request_id, 7);
        assert_eq!(back.explain[0].total_us, 1234);
        assert!(back.recommend.is_empty());
    }
}
