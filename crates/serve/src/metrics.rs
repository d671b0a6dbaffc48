//! Serving metrics: request counters, per-stage latency histograms, one
//! [`EndpointMetrics`] per read endpoint (latency and queue-wait
//! histograms, sliding-window SLOs, the slow ring), and both exposition
//! formats.
//!
//! Counters and histograms are relaxed atomics on the hot path; the slow
//! rings take a short lock. A [`MetricsSnapshot`] copies everything for
//! `/metrics` and `BENCH_serve.json`. Fields the metrics block cannot see
//! — queue depth, cache stats, op counters, event-log stats, worker count,
//! uptime — are *required* inputs to [`ServeMetrics::snapshot`] via
//! [`ServiceOwned`]: a caller physically cannot publish a snapshot with
//! those fields silently zeroed, which an earlier revision allowed.
//!
//! [`prometheus_text`] renders the same snapshot in Prometheus text
//! exposition format (metric names prefixed `emigre_`, units as `_us` /
//! `_seconds` suffixes, rejections and stages as labelled families).

use crate::cache::CacheStats;
use crate::events::EventLogStats;
use crate::sched::{JobClass, SchedSnapshot};
use crate::slow::SlowRing;
use emigre_obs::{
    CounterSnapshot, HistogramSnapshot, LatencyHistogram, PromText, SlidingWindow, StageLatencies,
    WindowStats,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Connection-layer counters, shared between the event-loop front end and
/// `/metrics`. All relaxed atomics; one instance per service.
#[derive(Default)]
pub struct FrontendStats {
    /// Connections currently open (gauge: accept increments, close
    /// decrements).
    pub connections_active: AtomicU64,
    pub connections_accepted: AtomicU64,
    /// Requests served on an already-used connection — the keep-alive
    /// payoff.
    pub keepalive_reuses: AtomicU64,
    /// Requests answered 400/431 for framing violations (then closed).
    pub parse_errors: AtomicU64,
    /// Reactor threads multiplexing the sockets (0 until the front end
    /// runs).
    pub reactor_threads: AtomicU64,
}

impl FrontendStats {
    pub fn on_accept(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
        self.connections_active.fetch_add(1, Ordering::Relaxed);
    }

    pub fn on_close(&self) {
        // Saturating: a double-close accounting bug must not wrap the gauge.
        let _ = self
            .connections_active
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    pub fn snapshot(&self) -> FrontendSnapshot {
        FrontendSnapshot {
            connections_active: self.connections_active.load(Ordering::Relaxed),
            connections_accepted_total: self.connections_accepted.load(Ordering::Relaxed),
            keepalive_reuses_total: self.keepalive_reuses.load(Ordering::Relaxed),
            parse_errors_total: self.parse_errors.load(Ordering::Relaxed),
            reactor_threads: self.reactor_threads.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of [`FrontendStats`] for `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FrontendSnapshot {
    pub connections_active: u64,
    pub connections_accepted_total: u64,
    pub keepalive_reuses_total: u64,
    pub parse_errors_total: u64,
    pub reactor_threads: u64,
}

/// Live serving metrics; one instance per service, shared by all workers.
#[derive(Default)]
pub struct ServeMetrics {
    /// Requests admitted or rejected — everything that reached `admit`.
    pub requests_total: AtomicU64,
    /// Jobs a worker finished (including deadline-expired and panicked
    /// ones).
    pub completed_total: AtomicU64,
    /// Explain jobs that produced a verified explanation.
    pub explanations_found: AtomicU64,
    /// Explain jobs that ended in a meta-explained failure.
    pub explanations_failed: AtomicU64,
    /// Requests rejected for malformed questions (any endpoint).
    pub invalid_questions: AtomicU64,
    /// Requests rejected at admission because the queue was full.
    pub rejected_overload: AtomicU64,
    /// Jobs dropped because their deadline expired while queued.
    pub rejected_deadline: AtomicU64,
    /// Worker panics caught and converted into `WorkerPanicked` answers.
    pub worker_panics: AtomicU64,
    /// Cache hits rejected by integrity validation (poisoned or corrupt
    /// entries quarantined instead of served).
    pub cache_poison_detected: AtomicU64,
    /// Feedback requests reaching `apply_feedback` (applied or rejected).
    /// Deliberately *not* counted in `requests_total`: the fault suites
    /// assert `requests_total == completed_total + rejected_overload`
    /// over the read path, and feedback never enters the worker queue.
    pub feedback_requests: AtomicU64,
    /// Individual edge events applied through published epochs.
    pub feedback_events_applied: AtomicU64,
    /// Feedback requests rejected (validation failure or update panic).
    pub feedback_rejected: AtomicU64,
    /// What the explain endpoint records per request.
    pub explain: EndpointMetrics,
    /// What the recommend endpoint records per request.
    pub recommend: EndpointMetrics,
    /// Admission → dequeue wait, every dequeued job.
    pub queue_wait: LatencyHistogram,
    /// Stage attribution across explain jobs: context/artefact assembly.
    pub stage_context: LatencyHistogram,
    /// Stage attribution: search-space construction + candidate ranking.
    pub stage_search: LatencyHistogram,
    /// Stage attribution: the TEST/CHECK loop.
    pub stage_test: LatencyHistogram,
    /// Stage attribution: time inside parallel CHECK fan-outs (a
    /// sub-stage of `stage_test`; zero under sequential explainers).
    pub stage_check_parallel: LatencyHistogram,
}

/// What one read endpoint records per request; the service picks the
/// endpoint by the job's class ([`ServeMetrics::endpoint`]).
#[derive(Default)]
pub struct EndpointMetrics {
    /// Worker service time of dequeued jobs (queue wait excluded).
    pub latency: LatencyHistogram,
    /// Admission → dequeue wait of dequeued jobs.
    pub queue_wait: LatencyHistogram,
    /// Trailing request rate, error rate and end-to-end latency (queue
    /// wait included) of every request, admission rejections too.
    pub window: SlidingWindow,
    /// The slowest dequeued requests, served at `GET /debug/slow`.
    pub slow: Mutex<SlowRing>,
}

impl ServeMetrics {
    /// Metrics whose slow rings keep the `slow_ring_capacity` slowest
    /// requests of each endpoint (`slow_ring_capacity` ≥ 1).
    pub fn new(slow_ring_capacity: usize) -> Self {
        let mut m = ServeMetrics::default();
        for e in [&mut m.explain, &mut m.recommend] {
            *e.slow.get_mut() = SlowRing::new(slow_ring_capacity);
        }
        m
    }

    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The endpoint serving jobs of `class`.
    pub fn endpoint(&self, class: JobClass) -> &EndpointMetrics {
        match class {
            JobClass::Explain(_) => &self.explain,
            JobClass::Recommend => &self.recommend,
        }
    }

    /// Records one explain request's stage attribution into the per-stage
    /// histograms (queue wait goes to the queue-wait histograms).
    pub fn record_stages(&self, s: &StageLatencies) {
        self.stage_context.record_us(s.context_us);
        self.stage_search.record_us(s.search_us);
        self.stage_test.record_us(s.test_us);
        self.stage_check_parallel.record_us(s.check_parallel_us);
    }

    /// Copies the atomic state and merges in the service-owned fields.
    /// Taking [`ServiceOwned`] by value is deliberate: every field the
    /// metrics block cannot observe must be supplied explicitly, so no
    /// caller can publish a half-filled snapshot.
    pub fn snapshot(&self, owned: ServiceOwned) -> MetricsSnapshot {
        MetricsSnapshot {
            requests_total: self.requests_total.load(Ordering::Relaxed),
            completed_total: self.completed_total.load(Ordering::Relaxed),
            explanations_found: self.explanations_found.load(Ordering::Relaxed),
            explanations_failed: self.explanations_failed.load(Ordering::Relaxed),
            invalid_questions: self.invalid_questions.load(Ordering::Relaxed),
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            rejected_deadline: self.rejected_deadline.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            cache_poison_detected: self.cache_poison_detected.load(Ordering::Relaxed),
            feedback_requests: self.feedback_requests.load(Ordering::Relaxed),
            feedback_events_applied: self.feedback_events_applied.load(Ordering::Relaxed),
            feedback_rejected: self.feedback_rejected.load(Ordering::Relaxed),
            graph_epoch: owned.graph_epoch,
            epochs_published: owned.epochs_published,
            update_panics: owned.update_panics,
            session_stale_invalidations: owned.session_stale_invalidations,
            column_stale_invalidations: owned.column_stale_invalidations,
            queue_depth: owned.queue_depth,
            workers: owned.workers,
            uptime_secs: owned.uptime_secs,
            session_cache: owned.session_cache,
            column_cache: owned.column_cache,
            heap_live_bytes: owned.heap_live_bytes,
            heap_peak_bytes: owned.heap_peak_bytes,
            graph_bytes: owned.graph_bytes,
            session_cache_bytes: owned.session_cache_bytes,
            column_cache_bytes: owned.column_cache_bytes,
            explain_latency: self.explain.latency.snapshot(),
            recommend_latency: self.recommend.latency.snapshot(),
            queue_wait: self.queue_wait.snapshot(),
            queue_wait_explain: self.explain.queue_wait.snapshot(),
            queue_wait_recommend: self.recommend.queue_wait.snapshot(),
            stage_context: self.stage_context.snapshot(),
            stage_search: self.stage_search.snapshot(),
            stage_test: self.stage_test.snapshot(),
            stage_check_parallel: self.stage_check_parallel.snapshot(),
            ops: owned.ops,
            events: owned.events,
            windows: WindowsSnapshot {
                explain_10s: self.explain.window.stats(10),
                explain_60s: self.explain.window.stats(60),
                recommend_10s: self.recommend.window.stats(10),
                recommend_60s: self.recommend.window.stats(60),
            },
            frontend: owned.frontend,
            sched: owned.sched,
        }
    }
}

/// Snapshot fields owned by the service rather than the metrics block:
/// queue depth (lives in the channel), cache stats (live in the LRUs), op
/// counters (live in the obs handle), event-log stats, and deployment
/// facts.
#[derive(Debug, Clone, Default)]
pub struct ServiceOwned {
    pub queue_depth: u64,
    pub workers: u64,
    pub uptime_secs: u64,
    /// The currently published graph epoch (0 = the seed graph).
    pub graph_epoch: u64,
    /// Epochs published since start (excludes the seed epoch 0).
    pub epochs_published: u64,
    /// Update attempts that panicked mid-apply or mid-publish; the
    /// previous epoch stayed current each time.
    pub update_panics: u64,
    /// Session-cache entries lazily discarded for carrying a stale epoch.
    pub session_stale_invalidations: u64,
    /// Column-cache entries lazily discarded for carrying a stale epoch.
    pub column_stale_invalidations: u64,
    pub session_cache: CacheStats,
    pub column_cache: CacheStats,
    /// Live heap bytes from the tracking allocator (0 unless installed).
    pub heap_live_bytes: u64,
    /// High-water heap mark from the tracking allocator (0 unless
    /// installed).
    pub heap_peak_bytes: u64,
    /// Structural footprint of the current epoch's graph + CSR kernel.
    pub graph_bytes: u64,
    /// Summed heap bytes of the cached per-user artefacts (kernel
    /// excluded — charged to `graph_bytes`).
    pub session_cache_bytes: u64,
    /// Summed heap bytes of the cached reverse-push columns.
    pub column_cache_bytes: u64,
    pub ops: CounterSnapshot,
    pub events: EventLogStats,
    /// Connection-layer counters (live in [`FrontendStats`]).
    pub frontend: FrontendSnapshot,
    /// Admission-scheduler state (lives in the `AdmissionQueue`).
    pub sched: SchedSnapshot,
}

/// Sliding-window SLO aggregates per endpoint, two horizons each.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WindowsSnapshot {
    pub explain_10s: WindowStats,
    pub explain_60s: WindowStats,
    pub recommend_10s: WindowStats,
    pub recommend_60s: WindowStats,
}

/// Point-in-time copy of every serving metric, serialisable as the
/// `/metrics` JSON response body.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub requests_total: u64,
    pub completed_total: u64,
    pub explanations_found: u64,
    pub explanations_failed: u64,
    pub invalid_questions: u64,
    pub rejected_overload: u64,
    pub rejected_deadline: u64,
    /// Worker panics caught and answered as `WorkerPanicked`.
    pub worker_panics: u64,
    /// Poisoned/corrupt cache entries detected and quarantined.
    pub cache_poison_detected: u64,
    /// Feedback requests reaching the write path (applied or rejected).
    pub feedback_requests: u64,
    /// Individual edge events applied through published epochs.
    pub feedback_events_applied: u64,
    /// Feedback requests rejected (validation or update panic).
    pub feedback_rejected: u64,
    /// The currently published graph epoch (0 = the seed graph).
    pub graph_epoch: u64,
    /// Epochs published since start.
    pub epochs_published: u64,
    /// Update attempts that panicked; the prior epoch survived each one.
    pub update_panics: u64,
    /// Stale-epoch session-cache entries lazily invalidated.
    pub session_stale_invalidations: u64,
    /// Stale-epoch column-cache entries lazily invalidated.
    pub column_stale_invalidations: u64,
    /// Jobs admitted but not yet picked up by a worker.
    pub queue_depth: u64,
    pub workers: u64,
    pub uptime_secs: u64,
    pub session_cache: CacheStats,
    pub column_cache: CacheStats,
    /// Live heap bytes (tracking allocator; 0 unless installed).
    pub heap_live_bytes: u64,
    /// High-water heap mark (tracking allocator; 0 unless installed).
    pub heap_peak_bytes: u64,
    /// Structural footprint of the current epoch's graph + CSR kernel.
    pub graph_bytes: u64,
    /// Summed heap bytes of cached per-user artefacts (kernel excluded).
    pub session_cache_bytes: u64,
    /// Summed heap bytes of cached reverse-push columns.
    pub column_cache_bytes: u64,
    pub explain_latency: HistogramSnapshot,
    pub recommend_latency: HistogramSnapshot,
    pub queue_wait: HistogramSnapshot,
    /// Queue wait split by endpoint: the scheduler's effect is visible
    /// here (a tight `deadline_ms` pulls an endpoint's wait down).
    pub queue_wait_explain: HistogramSnapshot,
    pub queue_wait_recommend: HistogramSnapshot,
    pub stage_context: HistogramSnapshot,
    pub stage_search: HistogramSnapshot,
    pub stage_test: HistogramSnapshot,
    pub stage_check_parallel: HistogramSnapshot,
    /// PPR/CHECK op counters aggregated across all requests.
    pub ops: CounterSnapshot,
    pub events: EventLogStats,
    pub windows: WindowsSnapshot,
    /// Connection-layer counters from the front end.
    pub frontend: FrontendSnapshot,
    /// Admission-scheduler reorder count, quota rejections, and per-class
    /// expected costs.
    pub sched: SchedSnapshot,
}

fn window_samples(p: &mut PromText, endpoint: &str, window: &str, w: &WindowStats) {
    let labels = [("endpoint", endpoint), ("window", window)];
    p.sample_f64("emigre_window_qps", &labels, w.qps);
    p.sample_f64("emigre_window_error_rate", &labels, w.error_rate);
    for (q, v) in [("0.5", w.p50_us), ("0.95", w.p95_us), ("0.99", w.p99_us)] {
        let mut ls = labels.to_vec();
        ls.push(("quantile", q));
        p.sample_u64("emigre_window_latency_us", &ls, v);
    }
}

/// Renders a snapshot in Prometheus text exposition format (0.0.4). The
/// output passes [`emigre_obs::validate_exposition`] — the in-repo lint
/// CI runs over everything this function can produce.
pub fn prometheus_text(s: &MetricsSnapshot) -> String {
    let mut p = PromText::new();

    p.header(
        "emigre_requests_total",
        "counter",
        "Requests reaching admission (accepted or rejected)",
    );
    p.sample_u64("emigre_requests_total", &[], s.requests_total);
    p.header(
        "emigre_completed_total",
        "counter",
        "Jobs a worker finished, including deadline-expired ones",
    );
    p.sample_u64("emigre_completed_total", &[], s.completed_total);
    p.header(
        "emigre_explanations_total",
        "counter",
        "Explain outcomes by result",
    );
    p.sample_u64(
        "emigre_explanations_total",
        &[("result", "found")],
        s.explanations_found,
    );
    p.sample_u64(
        "emigre_explanations_total",
        &[("result", "failure")],
        s.explanations_failed,
    );
    p.header(
        "emigre_rejected_total",
        "counter",
        "Requests rejected, by reason",
    );
    p.sample_u64(
        "emigre_rejected_total",
        &[("reason", "overload")],
        s.rejected_overload,
    );
    p.sample_u64(
        "emigre_rejected_total",
        &[("reason", "deadline")],
        s.rejected_deadline,
    );
    p.sample_u64(
        "emigre_rejected_total",
        &[("reason", "invalid_question")],
        s.invalid_questions,
    );
    p.header(
        "emigre_worker_panics_total",
        "counter",
        "Worker panics caught and answered as WorkerPanicked",
    );
    p.sample_u64("emigre_worker_panics_total", &[], s.worker_panics);
    p.header(
        "emigre_cache_poison_detected_total",
        "counter",
        "Poisoned cache entries detected and quarantined",
    );
    p.sample_u64(
        "emigre_cache_poison_detected_total",
        &[],
        s.cache_poison_detected,
    );

    p.header(
        "emigre_feedback_requests_total",
        "counter",
        "Feedback requests reaching the write path (applied or rejected)",
    );
    p.sample_u64("emigre_feedback_requests_total", &[], s.feedback_requests);
    p.header(
        "emigre_feedback_events_applied_total",
        "counter",
        "Edge events applied through published epochs",
    );
    p.sample_u64(
        "emigre_feedback_events_applied_total",
        &[],
        s.feedback_events_applied,
    );
    p.header(
        "emigre_feedback_rejected_total",
        "counter",
        "Feedback requests rejected by validation or an update panic",
    );
    p.sample_u64("emigre_feedback_rejected_total", &[], s.feedback_rejected);
    p.header(
        "emigre_graph_epoch",
        "gauge",
        "Currently published graph epoch (0 = seed graph)",
    );
    p.sample_u64("emigre_graph_epoch", &[], s.graph_epoch);
    p.header(
        "emigre_epochs_published_total",
        "counter",
        "Graph epochs published since start",
    );
    p.sample_u64("emigre_epochs_published_total", &[], s.epochs_published);
    p.header(
        "emigre_update_panics_total",
        "counter",
        "Update attempts that panicked; the prior epoch survived each",
    );
    p.sample_u64("emigre_update_panics_total", &[], s.update_panics);
    p.header(
        "emigre_cache_stale_invalidations_total",
        "counter",
        "Cache entries lazily invalidated for carrying a stale epoch",
    );
    for (name, v) in [
        ("session", s.session_stale_invalidations),
        ("column", s.column_stale_invalidations),
    ] {
        p.sample_u64(
            "emigre_cache_stale_invalidations_total",
            &[("cache", name)],
            v,
        );
    }

    p.header(
        "emigre_queue_depth",
        "gauge",
        "Jobs admitted, not yet dequeued",
    );
    p.sample_u64("emigre_queue_depth", &[], s.queue_depth);

    p.header(
        "emigre_connections_active",
        "gauge",
        "Open client connections",
    );
    p.sample_u64(
        "emigre_connections_active",
        &[],
        s.frontend.connections_active,
    );
    p.header(
        "emigre_connections_accepted_total",
        "counter",
        "Client connections accepted since start",
    );
    p.sample_u64(
        "emigre_connections_accepted_total",
        &[],
        s.frontend.connections_accepted_total,
    );
    p.header(
        "emigre_keepalive_reuses_total",
        "counter",
        "Requests served on an already-used (kept-alive) connection",
    );
    p.sample_u64(
        "emigre_keepalive_reuses_total",
        &[],
        s.frontend.keepalive_reuses_total,
    );
    p.header(
        "emigre_frontend_parse_errors_total",
        "counter",
        "Requests answered 400/431 for HTTP framing violations",
    );
    p.sample_u64(
        "emigre_frontend_parse_errors_total",
        &[],
        s.frontend.parse_errors_total,
    );
    p.header(
        "emigre_reactor_threads",
        "gauge",
        "Reactor threads multiplexing sockets (0 until the front end runs)",
    );
    p.sample_u64("emigre_reactor_threads", &[], s.frontend.reactor_threads);

    p.header(
        "emigre_sched_reordered_total",
        "counter",
        "Dispatches where the scheduler jumped an earlier arrival",
    );
    p.sample_u64("emigre_sched_reordered_total", &[], s.sched.reordered_total);
    p.header(
        "emigre_sched_rejected_user_quota_total",
        "counter",
        "Admissions rejected by the per-user share cap (also in rejected overload)",
    );
    p.sample_u64(
        "emigre_sched_rejected_user_quota_total",
        &[],
        s.sched.rejected_user_quota,
    );
    p.header(
        "emigre_sched_expected_cost_us",
        "gauge",
        "Cost-model expected service time per job class",
    );
    for c in &s.sched.classes {
        p.sample_u64(
            "emigre_sched_expected_cost_us",
            &[("class", c.class.as_str())],
            c.expected_us,
        );
    }
    p.header(
        "emigre_workers",
        "gauge",
        "Worker threads serving the queue",
    );
    p.sample_u64("emigre_workers", &[], s.workers);
    p.header(
        "emigre_uptime_seconds",
        "gauge",
        "Seconds since service start",
    );
    p.sample_u64("emigre_uptime_seconds", &[], s.uptime_secs);

    p.header(
        "emigre_heap_live_bytes",
        "gauge",
        "Live heap bytes per the tracking allocator (0 unless installed)",
    );
    p.sample_u64("emigre_heap_live_bytes", &[], s.heap_live_bytes);
    p.header(
        "emigre_heap_peak_bytes",
        "gauge",
        "High-water heap mark per the tracking allocator (0 unless installed)",
    );
    p.sample_u64("emigre_heap_peak_bytes", &[], s.heap_peak_bytes);
    p.header(
        "emigre_graph_bytes",
        "gauge",
        "Structural footprint of the current epoch's graph + CSR kernel",
    );
    p.sample_u64("emigre_graph_bytes", &[], s.graph_bytes);
    p.header(
        "emigre_cache_bytes",
        "gauge",
        "Summed heap bytes of cached values per cache",
    );
    for (name, v) in [
        ("session", s.session_cache_bytes),
        ("column", s.column_cache_bytes),
    ] {
        p.sample_u64("emigre_cache_bytes", &[("cache", name)], v);
    }

    p.header("emigre_cache_entries", "gauge", "Live entries per cache");
    p.header("emigre_cache_hits_total", "counter", "Cache hits per cache");
    p.header(
        "emigre_cache_misses_total",
        "counter",
        "Cache misses per cache",
    );
    p.header(
        "emigre_cache_evictions_total",
        "counter",
        "Cache evictions per cache",
    );
    for (name, c) in [("session", &s.session_cache), ("column", &s.column_cache)] {
        let labels = [("cache", name)];
        p.sample_u64("emigre_cache_entries", &labels, c.len);
        p.sample_u64("emigre_cache_hits_total", &labels, c.hits);
        p.sample_u64("emigre_cache_misses_total", &labels, c.misses);
        p.sample_u64("emigre_cache_evictions_total", &labels, c.evictions);
    }

    p.header(
        "emigre_ops_total",
        "counter",
        "PPR/CHECK operation counts aggregated across requests",
    );
    for (op, v) in [
        ("forward_pushes", s.ops.forward_pushes),
        ("reverse_pushes", s.ops.reverse_pushes),
        ("rows_patched", s.ops.rows_patched),
        ("checks", s.ops.checks),
        ("subsets_enumerated", s.ops.subsets_enumerated),
        ("candidate_index_hits", s.ops.candidate_index_hits),
        ("check_stages", s.ops.check_stages),
    ] {
        p.sample_u64("emigre_ops_total", &[("op", op)], v);
    }
    p.header(
        "emigre_residual_mass_drained",
        "counter",
        "Total residual probability mass drained by push retirement",
    );
    p.sample_f64(
        "emigre_residual_mass_drained",
        &[],
        s.ops.residual_mass_drained,
    );

    p.header(
        "emigre_event_log_written_total",
        "counter",
        "Event-log lines durably written",
    );
    p.sample_u64("emigre_event_log_written_total", &[], s.events.written);
    p.header(
        "emigre_event_log_dropped_total",
        "counter",
        "Events dropped by the bounded event-log ring",
    );
    p.sample_u64("emigre_event_log_dropped_total", &[], s.events.dropped);

    p.header(
        "emigre_request_latency_us",
        "histogram",
        "End-to-end worker latency per endpoint",
    );
    p.histogram(
        "emigre_request_latency_us",
        &[("endpoint", "explain")],
        &s.explain_latency,
    );
    p.histogram(
        "emigre_request_latency_us",
        &[("endpoint", "recommend")],
        &s.recommend_latency,
    );
    p.header(
        "emigre_stage_latency_us",
        "histogram",
        "Per-request stage attribution (queue wait, context build, search, TEST loop)",
    );
    for (stage, h) in [
        ("queue", &s.queue_wait),
        ("queue_explain", &s.queue_wait_explain),
        ("queue_recommend", &s.queue_wait_recommend),
        ("context", &s.stage_context),
        ("search", &s.stage_search),
        ("test", &s.stage_test),
        ("check_parallel", &s.stage_check_parallel),
    ] {
        p.histogram("emigre_stage_latency_us", &[("stage", stage)], h);
    }

    p.header(
        "emigre_window_qps",
        "gauge",
        "Trailing-window request rate per endpoint",
    );
    p.header(
        "emigre_window_error_rate",
        "gauge",
        "Trailing-window error fraction per endpoint",
    );
    p.header(
        "emigre_window_latency_us",
        "gauge",
        "Trailing-window latency quantiles per endpoint",
    );
    window_samples(&mut p, "explain", "10s", &s.windows.explain_10s);
    window_samples(&mut p, "explain", "60s", &s.windows.explain_60s);
    window_samples(&mut p, "recommend", "10s", &s.windows.recommend_10s);
    window_samples(&mut p, "recommend", "60s", &s.windows.recommend_60s);

    p.into_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use emigre_obs::validate_exposition;

    fn populated_metrics() -> ServeMetrics {
        let m = ServeMetrics::default();
        m.requests_total.store(10, Ordering::Relaxed);
        m.completed_total.store(8, Ordering::Relaxed);
        m.rejected_overload.store(1, Ordering::Relaxed);
        m.rejected_deadline.store(1, Ordering::Relaxed);
        m.explain.latency.record_us(1234);
        m.recommend.latency.record_us(56);
        m.queue_wait.record_us(7);
        m.explain.queue_wait.record_us(9);
        m.recommend.queue_wait.record_us(3);
        m.record_stages(&StageLatencies {
            queue_us: 7,
            context_us: 400,
            search_us: 300,
            test_us: 500,
            check_parallel_us: 150,
            total_us: 1234,
            ..StageLatencies::default()
        });
        m
    }

    #[test]
    fn snapshot_carries_the_service_owned_fields() {
        let m = populated_metrics();
        let owned = ServiceOwned {
            queue_depth: 3,
            workers: 4,
            uptime_secs: 60,
            graph_epoch: 5,
            epochs_published: 5,
            update_panics: 1,
            session_stale_invalidations: 2,
            column_stale_invalidations: 3,
            session_cache: CacheStats {
                len: 2,
                capacity: 8,
                hits: 5,
                misses: 2,
                evictions: 0,
            },
            ops: CounterSnapshot {
                checks: 42,
                ..CounterSnapshot::default()
            },
            events: EventLogStats {
                enabled: true,
                written: 8,
                dropped: 0,
            },
            ..ServiceOwned::default()
        };
        let s = m.snapshot(owned);
        assert_eq!(s.queue_depth, 3);
        assert_eq!(s.workers, 4);
        assert_eq!(s.graph_epoch, 5);
        assert_eq!(s.epochs_published, 5);
        assert_eq!(s.update_panics, 1);
        assert_eq!(s.session_stale_invalidations, 2);
        assert_eq!(s.column_stale_invalidations, 3);
        assert_eq!(s.session_cache.hits, 5);
        assert_eq!(s.ops.checks, 42);
        assert_eq!(s.events.written, 8);
        assert_eq!(s.stage_context.count, 1);
        assert_eq!(s.stage_test.count, 1);
    }

    #[test]
    fn prometheus_exposition_passes_the_lint() {
        let m = populated_metrics();
        let s = m.snapshot(ServiceOwned {
            queue_depth: 2,
            workers: 4,
            uptime_secs: 9,
            graph_epoch: 7,
            session_stale_invalidations: 1,
            heap_live_bytes: 4096,
            heap_peak_bytes: 8192,
            graph_bytes: 1 << 20,
            session_cache_bytes: 2048,
            column_cache_bytes: 512,
            frontend: FrontendSnapshot {
                connections_active: 3,
                connections_accepted_total: 11,
                keepalive_reuses_total: 6,
                parse_errors_total: 1,
                reactor_threads: 2,
            },
            sched: SchedSnapshot {
                reordered_total: 4,
                rejected_user_quota: 2,
                classes: vec![crate::sched::CostClassSnapshot {
                    class: "recommend".to_owned(),
                    observed: 5,
                    expected_us: 1800,
                }],
            },
            ..ServiceOwned::default()
        });
        let text = prometheus_text(&s);
        validate_exposition(&text).unwrap();
        assert!(text.contains("emigre_rejected_total{reason=\"overload\"} 1"));
        assert!(text.contains("emigre_rejected_total{reason=\"deadline\"} 1"));
        assert!(text.contains("emigre_queue_depth 2"));
        assert!(text.contains("emigre_graph_epoch 7"));
        assert!(text.contains("emigre_cache_stale_invalidations_total{cache=\"session\"} 1"));
        assert!(text.contains("emigre_stage_latency_us_bucket{stage=\"test\""));
        assert!(text.contains("le=\"+Inf\""));
        // The observability satellite: connection + scheduler families.
        assert!(text.contains("emigre_connections_active 3"));
        assert!(text.contains("emigre_connections_accepted_total 11"));
        assert!(text.contains("emigre_keepalive_reuses_total 6"));
        assert!(text.contains("emigre_frontend_parse_errors_total 1"));
        assert!(text.contains("emigre_reactor_threads 2"));
        assert!(text.contains("emigre_sched_reordered_total 4"));
        assert!(text.contains("emigre_sched_rejected_user_quota_total 2"));
        assert!(text.contains("emigre_sched_expected_cost_us{class=\"recommend\"} 1800"));
        assert!(text.contains("emigre_stage_latency_us_bucket{stage=\"queue_explain\""));
        assert!(text.contains("emigre_stage_latency_us_bucket{stage=\"queue_recommend\""));
        // The resource-observability gauges.
        assert!(text.contains("emigre_heap_live_bytes 4096"));
        assert!(text.contains("emigre_heap_peak_bytes 8192"));
        assert!(text.contains("emigre_graph_bytes 1048576"));
        assert!(text.contains("emigre_cache_bytes{cache=\"session\"} 2048"));
        assert!(text.contains("emigre_cache_bytes{cache=\"column\"} 512"));
    }

    #[test]
    fn snapshot_json_round_trip() {
        let m = populated_metrics();
        let s = m.snapshot(ServiceOwned::default());
        let json = serde_json::to_string(&s).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
