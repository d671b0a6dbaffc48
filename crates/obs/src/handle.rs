//! The `ObsHandle`: a zero-cost-when-disabled door to counters, spans, and
//! traces.
//!
//! A handle is either *disabled* (`None` inside — every call is a null
//! check and an immediate return, no allocation, no atomics) or *enabled*
//! (an `Arc` to shared counter/span/trace state). Handles clone cheaply and
//! are `Send + Sync`; clones observe the same state, so a context, its
//! tester, and the algorithms all feed one sink.

use crate::counters::{CounterSnapshot, Op, OpCounters};
use crate::spans::{SpanExport, SpanRecorder};
use crate::trace::{ExplainTrace, TraceAction, TraceCandidate, TraceCrossing, TraceTest};
use parking_lot::Mutex;
use std::sync::Arc;

struct ObsInner {
    counters: OpCounters,
    /// `None` in counters-only handles: a long-running service records
    /// counters forever, but the span arena and trace grow per call and
    /// would leak unboundedly.
    spans: Option<Mutex<SpanRecorder>>,
    trace: Option<Mutex<ExplainTrace>>,
}

/// Cheap, cloneable observability handle. See module docs.
#[derive(Clone, Default)]
pub struct ObsHandle(Option<Arc<ObsInner>>);

impl ObsHandle {
    /// A handle that records nothing; every method is a no-op.
    pub fn disabled() -> Self {
        ObsHandle(None)
    }

    /// A fresh enabled handle with empty counters/spans/trace.
    pub fn enabled() -> Self {
        ObsHandle(Some(Arc::new(ObsInner {
            counters: OpCounters::default(),
            spans: Some(Mutex::new(SpanRecorder::new())),
            trace: Some(Mutex::new(ExplainTrace::default())),
        })))
    }

    /// A handle that records **counters only**: spans and traces are
    /// no-ops and allocate nothing. This is the handle for long-running
    /// servers — counter memory is constant, while the span arena and the
    /// trace grow with every instrumented call and would leak over an
    /// unbounded request stream.
    pub fn counters_only() -> Self {
        ObsHandle(Some(Arc::new(ObsInner {
            counters: OpCounters::default(),
            spans: None,
            trace: None,
        })))
    }

    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    // ------------------------------------------------------------ counters

    /// Adds `n` to the counter for `op`.
    #[inline]
    pub fn count(&self, op: Op, n: u64) {
        if let Some(inner) = &self.0 {
            inner.counters.add(op, n);
        }
    }

    /// Adds drained residual mass.
    #[inline]
    pub fn add_mass(&self, mass: f64) {
        if let Some(inner) = &self.0 {
            inner.counters.add_mass(mass);
        }
    }

    /// Snapshot of the counters (all-zero when disabled).
    pub fn counters(&self) -> CounterSnapshot {
        match &self.0 {
            Some(inner) => inner.counters.snapshot(),
            None => CounterSnapshot::default(),
        }
    }

    /// Folds a finished per-request snapshot into this handle's counters.
    /// No-op when disabled. Lets a service keep one long-lived
    /// counters-only handle while each request records on a private
    /// enabled handle whose totals are merged here on completion.
    pub fn merge_counters(&self, s: &CounterSnapshot) {
        if let Some(inner) = &self.0 {
            inner.counters.add_snapshot(s);
        }
    }

    // --------------------------------------------------------------- spans

    /// Opens a timing span; it closes when the returned guard drops.
    /// Returns an inert guard when disabled.
    pub fn span(&self, name: &str) -> SpanGuard {
        match &self.0 {
            Some(inner) => match &inner.spans {
                Some(spans) => {
                    let idx = spans.lock().open(name);
                    SpanGuard(Some((Arc::clone(inner), idx)))
                }
                None => SpanGuard(None),
            },
            None => SpanGuard(None),
        }
    }

    /// Exports the recorded span forest (empty when disabled, counters-only,
    /// or nothing was recorded).
    pub fn span_tree(&self) -> Vec<SpanExport> {
        match self.0.as_ref().and_then(|inner| inner.spans.as_ref()) {
            Some(spans) => spans.lock().export(),
            None => Vec::new(),
        }
    }

    // --------------------------------------------------------------- trace

    /// Records the Why-Not question identity.
    pub fn trace_question(&self, user: u32, wni: u32, rec: u32) {
        if let Some(trace) = self.trace_sink() {
            let mut t = trace.lock();
            t.user = user;
            t.wni = wni;
            t.rec = rec;
        }
    }

    /// Records the method label.
    pub fn trace_method(&self, label: &str) {
        if let Some(trace) = self.trace_sink() {
            trace.lock().method = label.to_string();
        }
    }

    /// Records the ranked candidate list for mode `mode` (overwrites any
    /// previous list — the last search space the method built wins).
    pub fn trace_candidates(&self, mode: &str, candidates: Vec<TraceCandidate>) {
        if let Some(trace) = self.trace_sink() {
            let mut t = trace.lock();
            t.mode = mode.to_string();
            t.candidates = candidates;
        }
    }

    /// Records a τ threshold crossing.
    pub fn trace_crossing(&self, candidate_index: u64, tau: f64) {
        if let Some(trace) = self.trace_sink() {
            trace.lock().crossings.push(TraceCrossing {
                candidate_index,
                tau,
            });
        }
    }

    /// Records one TEST invocation and its verdict.
    pub fn trace_test(&self, actions: Vec<TraceAction>, verdict: bool) {
        if let Some(trace) = self.trace_sink() {
            trace.lock().tests.push(TraceTest { actions, verdict });
        }
    }

    /// Records a successful outcome.
    pub fn trace_found(&self, explanation: Vec<TraceAction>, verified: bool) {
        if let Some(trace) = self.trace_sink() {
            let mut t = trace.lock();
            t.found = true;
            t.verified = verified;
            t.explanation = explanation;
            t.failure.clear();
        }
    }

    /// Records a failed outcome with its reason label.
    pub fn trace_failure(&self, reason: &str) {
        if let Some(trace) = self.trace_sink() {
            let mut t = trace.lock();
            t.found = false;
            t.verified = false;
            t.explanation.clear();
            t.failure = reason.to_string();
        }
    }

    /// Clones out the accumulated trace (None when disabled or
    /// counters-only).
    pub fn trace(&self) -> Option<ExplainTrace> {
        self.trace_sink().map(|trace| trace.lock().clone())
    }

    fn trace_sink(&self) -> Option<&Mutex<ExplainTrace>> {
        self.0.as_ref().and_then(|inner| inner.trace.as_ref())
    }
}

/// RAII span guard; closes its span on drop. Inert when obtained from a
/// disabled handle.
pub struct SpanGuard(Option<(Arc<ObsInner>, usize)>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, idx)) = self.0.take() {
            if let Some(spans) = &inner.spans {
                spans.lock().close(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let h = ObsHandle::disabled();
        h.count(Op::Checks, 5);
        h.add_mass(1.0);
        let _g = h.span("question");
        h.trace_test(Vec::new(), true);
        assert!(!h.is_enabled());
        assert_eq!(h.counters(), CounterSnapshot::default());
        assert!(h.span_tree().is_empty());
        assert!(h.trace().is_none());
    }

    #[test]
    fn clones_share_state() {
        let h = ObsHandle::enabled();
        let h2 = h.clone();
        h.count(Op::ForwardPushes, 2);
        h2.count(Op::ForwardPushes, 3);
        assert_eq!(h.counters().forward_pushes, 5);
        {
            let _q = h.span("question");
            let _s = h2.span("search_space");
        }
        let roots = h.span_tree();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].children[0].name, "search_space");
    }

    #[test]
    fn trace_records_through_handle() {
        let h = ObsHandle::enabled();
        h.trace_question(1, 2, 3);
        h.trace_method("remove_incremental");
        h.trace_candidates(
            "remove",
            vec![TraceCandidate {
                node: 9,
                contribution: 0.5,
            }],
        );
        h.trace_crossing(0, -0.1);
        h.trace_test(Vec::new(), false);
        h.trace_failure("NoExplanationExists");
        let t = h.trace().unwrap();
        assert_eq!((t.user, t.wni, t.rec), (1, 2, 3));
        assert_eq!(t.candidates.len(), 1);
        assert_eq!(t.crossings.len(), 1);
        assert_eq!(t.tests.len(), 1);
        assert!(!t.found);
        assert_eq!(t.failure, "NoExplanationExists");
    }

    #[test]
    fn counters_only_records_counters_but_no_spans_or_trace() {
        let h = ObsHandle::counters_only();
        assert!(h.is_enabled());
        h.count(Op::Checks, 3);
        {
            let _g = h.span("question");
        }
        h.trace_question(1, 2, 3);
        h.trace_failure("NoExplanationExists");
        assert_eq!(h.counters().checks, 3);
        assert!(h.span_tree().is_empty());
        assert!(h.trace().is_none());
    }

    #[test]
    fn merge_counters_folds_request_totals_into_service_handle() {
        let svc = ObsHandle::counters_only();
        let req = ObsHandle::enabled();
        req.count(Op::Checks, 4);
        req.count(Op::ForwardPushes, 9);
        svc.merge_counters(&req.counters());
        let s = svc.counters();
        assert_eq!(s.checks, 4);
        assert_eq!(s.forward_pushes, 9);
        // Disabled handles swallow merges silently.
        ObsHandle::disabled().merge_counters(&req.counters());
    }
}
