//! Lock-free operation counters for the explain path.
//!
//! Counters are plain relaxed atomics: the explain path only ever *adds*,
//! and readers take a [`CounterSnapshot`] — a consistent-enough view for
//! cost accounting (each field is individually exact; cross-field skew is
//! bounded by whatever work raced the snapshot, which is zero in the
//! single-threaded per-question runner).
//!
//! The one non-integer quantity, residual mass drained by push retirement,
//! is accumulated as an `f64` stored in bit-cast form inside an `AtomicU64`
//! and updated with a CAS loop. Hot push loops never touch these atomics;
//! they accumulate locally (`ForwardPush::drained` etc.) and the caller
//! flushes one delta per push run or CHECK.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// The operations the explain path counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Forward local-push retirements (Eq. 3 loop iterations).
    ForwardPushes,
    /// Reverse local-push retirements (Eq. 4 loop iterations).
    ReversePushes,
    /// Transition-CSR rows patched for a counterfactual overlay.
    RowsPatched,
    /// CHECK/TEST invocations (`Tester::test`).
    Checks,
    /// Candidate subsets enumerated by Powerset/Exhaustive/Brute loops.
    SubsetsEnumerated,
    /// Candidate-index entries scanned while ranking competitors.
    CandidateIndexHits,
    /// Precision stages (`PushWorkspace::push_stage` calls) run by CHECKs.
    CheckStages,
}

/// Shared atomic counter block. Lives inside `ObsInner`; never allocated
/// when observability is disabled.
#[derive(Default)]
pub struct OpCounters {
    forward_pushes: AtomicU64,
    reverse_pushes: AtomicU64,
    rows_patched: AtomicU64,
    checks: AtomicU64,
    subsets_enumerated: AtomicU64,
    candidate_index_hits: AtomicU64,
    check_stages: AtomicU64,
    /// f64 bits of the total residual mass drained.
    residual_mass_drained: AtomicU64,
}

impl OpCounters {
    fn slot(&self, op: Op) -> &AtomicU64 {
        match op {
            Op::ForwardPushes => &self.forward_pushes,
            Op::ReversePushes => &self.reverse_pushes,
            Op::RowsPatched => &self.rows_patched,
            Op::Checks => &self.checks,
            Op::SubsetsEnumerated => &self.subsets_enumerated,
            Op::CandidateIndexHits => &self.candidate_index_hits,
            Op::CheckStages => &self.check_stages,
        }
    }

    /// Adds `n` to the counter for `op`.
    pub fn add(&self, op: Op, n: u64) {
        self.slot(op).fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `mass` to the drained-residual-mass accumulator (CAS loop over
    /// the f64 bit pattern).
    pub fn add_mass(&self, mass: f64) {
        let _ =
            self.residual_mass_drained
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                    Some((f64::from_bits(bits) + mass).to_bits())
                });
    }

    /// Folds a finished snapshot into these counters. The serving stack
    /// runs each request on a private handle (so spans/traces stay
    /// request-scoped) and merges the request's counter deltas into the
    /// service-lifetime block afterwards.
    pub fn add_snapshot(&self, s: &CounterSnapshot) {
        self.forward_pushes
            .fetch_add(s.forward_pushes, Ordering::Relaxed);
        self.reverse_pushes
            .fetch_add(s.reverse_pushes, Ordering::Relaxed);
        self.rows_patched
            .fetch_add(s.rows_patched, Ordering::Relaxed);
        self.checks.fetch_add(s.checks, Ordering::Relaxed);
        self.subsets_enumerated
            .fetch_add(s.subsets_enumerated, Ordering::Relaxed);
        self.candidate_index_hits
            .fetch_add(s.candidate_index_hits, Ordering::Relaxed);
        self.check_stages
            .fetch_add(s.check_stages, Ordering::Relaxed);
        if s.residual_mass_drained != 0.0 {
            self.add_mass(s.residual_mass_drained);
        }
    }

    /// Takes a point-in-time copy of every counter.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            forward_pushes: self.forward_pushes.load(Ordering::Relaxed),
            reverse_pushes: self.reverse_pushes.load(Ordering::Relaxed),
            rows_patched: self.rows_patched.load(Ordering::Relaxed),
            checks: self.checks.load(Ordering::Relaxed),
            subsets_enumerated: self.subsets_enumerated.load(Ordering::Relaxed),
            candidate_index_hits: self.candidate_index_hits.load(Ordering::Relaxed),
            check_stages: self.check_stages.load(Ordering::Relaxed),
            residual_mass_drained: f64::from_bits(
                self.residual_mass_drained.load(Ordering::Relaxed),
            ),
        }
    }
}

/// Plain-old-data copy of the counters, serializable for reports, traces,
/// and BENCH_ppr.json entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    pub forward_pushes: u64,
    pub reverse_pushes: u64,
    pub rows_patched: u64,
    pub checks: u64,
    pub subsets_enumerated: u64,
    pub candidate_index_hits: u64,
    pub check_stages: u64,
    pub residual_mass_drained: f64,
}

impl CounterSnapshot {
    /// `self − earlier`, the work done between two snapshots.
    pub fn delta(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            forward_pushes: self.forward_pushes.saturating_sub(earlier.forward_pushes),
            reverse_pushes: self.reverse_pushes.saturating_sub(earlier.reverse_pushes),
            rows_patched: self.rows_patched.saturating_sub(earlier.rows_patched),
            checks: self.checks.saturating_sub(earlier.checks),
            subsets_enumerated: self
                .subsets_enumerated
                .saturating_sub(earlier.subsets_enumerated),
            candidate_index_hits: self
                .candidate_index_hits
                .saturating_sub(earlier.candidate_index_hits),
            check_stages: self.check_stages.saturating_sub(earlier.check_stages),
            residual_mass_drained: self.residual_mass_drained - earlier.residual_mass_drained,
        }
    }

    /// Accumulates `other` into `self` (for per-method aggregates).
    pub fn accumulate(&mut self, other: &CounterSnapshot) {
        self.forward_pushes += other.forward_pushes;
        self.reverse_pushes += other.reverse_pushes;
        self.rows_patched += other.rows_patched;
        self.checks += other.checks;
        self.subsets_enumerated += other.subsets_enumerated;
        self.candidate_index_hits += other.candidate_index_hits;
        self.check_stages += other.check_stages;
        self.residual_mass_drained += other.residual_mass_drained;
    }

    /// Total push retirements (forward + reverse), the dominant cost unit.
    pub fn total_pushes(&self) -> u64 {
        self.forward_pushes + self.reverse_pushes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_op() {
        let c = OpCounters::default();
        c.add(Op::ForwardPushes, 3);
        c.add(Op::ForwardPushes, 2);
        c.add(Op::Checks, 1);
        c.add_mass(0.25);
        c.add_mass(0.5);
        let s = c.snapshot();
        assert_eq!(s.forward_pushes, 5);
        assert_eq!(s.checks, 1);
        assert_eq!(s.reverse_pushes, 0);
        assert!((s.residual_mass_drained - 0.75).abs() < 1e-15);
    }

    #[test]
    fn snapshot_delta_and_accumulate() {
        let c = OpCounters::default();
        c.add(Op::RowsPatched, 4);
        let before = c.snapshot();
        c.add(Op::RowsPatched, 6);
        c.add(Op::SubsetsEnumerated, 10);
        let after = c.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.rows_patched, 6);
        assert_eq!(d.subsets_enumerated, 10);

        let mut agg = CounterSnapshot::default();
        agg.accumulate(&d);
        agg.accumulate(&d);
        assert_eq!(agg.rows_patched, 12);
        assert_eq!(agg.total_pushes(), 0);
    }

    #[test]
    fn concurrent_adds_are_lossless() {
        use std::sync::Arc;
        let c = Arc::new(OpCounters::default());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.add(Op::CandidateIndexHits, 1);
                    c.add_mass(0.001);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = c.snapshot();
        assert_eq!(s.candidate_index_hits, 4000);
        assert!((s.residual_mass_drained - 4.0).abs() < 1e-9);
    }

    #[test]
    fn add_snapshot_merges_request_deltas() {
        let svc = OpCounters::default();
        svc.add(Op::Checks, 2);
        let req = CounterSnapshot {
            forward_pushes: 10,
            reverse_pushes: 20,
            rows_patched: 3,
            checks: 5,
            subsets_enumerated: 7,
            candidate_index_hits: 11,
            check_stages: 13,
            residual_mass_drained: 0.5,
        };
        svc.add_snapshot(&req);
        svc.add_snapshot(&CounterSnapshot::default());
        let s = svc.snapshot();
        assert_eq!(s.forward_pushes, 10);
        assert_eq!(s.reverse_pushes, 20);
        assert_eq!(s.checks, 7);
        assert_eq!(s.candidate_index_hits, 11);
        assert_eq!(s.check_stages, 13);
        assert!((s.residual_mass_drained - 0.5).abs() < 1e-15);
    }

    #[test]
    fn snapshot_json_round_trip() {
        let s = CounterSnapshot {
            forward_pushes: 1,
            reverse_pushes: 2,
            rows_patched: 3,
            checks: 4,
            subsets_enumerated: 5,
            candidate_index_hits: 6,
            check_stages: 7,
            residual_mass_drained: 0.125,
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: CounterSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
