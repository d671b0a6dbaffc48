//! The in-process explanation service: a worker pool over an
//! epoch-versioned live graph.
//!
//! ## Architecture
//!
//! ```text
//!  callers ──try_push──▶ AdmissionQueue ──pop──▶ N workers
//!     ▲                      │ (QoS policy:          │
//!     │   Overloaded when    │  fifo/deadline/sjf    ├─ pinned GraphEpoch (graph + kernel)
//!     └── full or over the   │  + per-user fairness, ├─ session cache (user → UserArtifacts)
//!         per-user share:    │  see crate::sched)    ├─ column cache  (item → PPR(·,item))
//!         admission control, │                       ├─ per-worker PushWorkspace
//!         never unbounded    │                       └─ per-request ObsHandle (spans + trace)
//!                            └─ jobs carry a deadline; expired jobs are
//!                               dropped when dequeued (DeadlineExceeded)
//!
//!  POST /feedback ──▶ apply_feedback ──▶ LiveGraph publish (next epoch)
//! ```
//!
//! The graph and its [`TransitionCsr`] kernel live behind a [`LiveGraph`]:
//! each worker **pins** the current [`GraphEpoch`] once per dequeued job
//! and computes everything — artefacts, columns, every CHECK — against
//! that snapshot, so a concurrent [`apply_feedback`] can never tear one
//! explanation across two graphs. Epochs and every cached artefact are
//! immutable and `Arc`-shared: workers never copy `O(n)`/`O(E)` state per
//! request. Each worker owns one [`PushWorkspace`], recycled across every
//! question it answers ([`ExplainContext::into_workspace`]). The session
//! and column caches are epoch-keyed ([`EpochCache`]): an entry built on
//! epoch *e* is only served to requests pinned to *e*; a hit on any other
//! epoch invalidates the entry and rebuilds on the pinned kernel.
//!
//! [`apply_feedback`]: ExplanationService::apply_feedback
//!
//! ## Telemetry
//!
//! Every request gets a monotonically increasing **request id** at
//! admission, echoed in the response and usable against `/trace/<id>`.
//! Workers run each explain on a *private* enabled [`ObsHandle`] — spans
//! and the [`ExplainTrace`] stay request-scoped and bounded — then fold
//! the request's op-counter deltas into the service-lifetime
//! counters-only handle, project the span tree into [`StageLatencies`]
//! (queue wait / context build / search / TEST loop), record those into
//! the per-stage histograms, keep the trace in a bounded LRU store, and
//! emit one structured [`RequestEvent`] line. Sliding per-endpoint
//! windows feed the 10s/60s QPS, error-rate, and quantile gauges.
//!
//! ## Determinism
//!
//! A served answer is bit-identical to the single-threaded
//! [`ExplainContext::build`] → [`Explainer::explain_with_context`] path
//! *on the graph of the epoch it was served from*: artefact builds,
//! column pushes, and CHECKs are deterministic, caches only memoise
//! values those deterministic computations would recompute on the same
//! epoch, and workspace recycling restores the exact base state
//! ([`PushWorkspace::load_base`]/[`PushWorkspace::clear`]). The
//! `concurrency` integration test asserts this equivalence under mixed
//! parallel traffic; the testkit `epoch_consistency` suite asserts it
//! while feedback writes are racing the readers.
//!
//! ## Shutdown
//!
//! [`ExplanationService::shutdown`] closes the admission queue and joins
//! the workers. The queue keeps delivering admitted jobs after close, so
//! every admitted request is answered — drain, not abort. New
//! submissions fail with [`ServeError::ShuttingDown`]. The event log is
//! flushed after the workers drain.

use crate::cache::{EpochCache, LruCache};
use crate::events::{EventLogger, RequestEvent};
use crate::fault::FaultHandle;
use crate::live::{
    events_to_delta, FeedbackError, FeedbackEvent, FeedbackOutcome, GraphEpoch, LiveGraph,
};
use crate::metrics::{FrontendStats, MetricsSnapshot, ServeMetrics, ServiceOwned, WindowsSnapshot};
use crate::sched::{AdmissionQueue, AdmitError, JobClass, JobMeta, SchedConfig};
use crate::slow::{SlowEntry, SlowRing, SlowSnapshot};
use crossbeam::channel::{bounded, Receiver, Sender};
use emigre_core::{
    EmigreConfig, ExplainContext, ExplainFailure, Explainer, Explanation, Method, QuestionError,
    UserArtifacts, WhyNotQuestion,
};
use emigre_hin::{GraphView, Hin, NodeId};
use emigre_obs::{AllocScope, ExplainTrace, HeapSize, ObsHandle, Op, StageLatencies};
use emigre_ppr::{ForwardPush, PushWorkspace, ReversePush, TransitionCsr};
use emigre_rec::{PprRecommender, RecList, Recommender};
use parking_lot::Mutex;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sizing and admission knobs of the worker pool.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads sharing the request queue.
    pub workers: usize,
    /// Bounded queue capacity: requests beyond it are rejected with
    /// [`ServeError::Overloaded`] instead of queueing without limit.
    pub queue_capacity: usize,
    /// Deadline applied when the caller does not pass one.
    pub default_deadline: Duration,
    /// Users whose [`UserArtifacts`] stay cached (LRU).
    pub session_capacity: usize,
    /// Items whose `PPR(·, item)` column stays cached (LRU): Why-Not
    /// items, and the targets Exhaustive Comparison reads.
    pub column_capacity: usize,
    /// Recent requests whose [`ExplainTrace`] stays replayable via
    /// `/trace/<id>` (LRU by request id).
    pub trace_capacity: usize,
    /// When set, one JSON [`RequestEvent`] line per completed/rejected
    /// request is appended here by a dedicated writer thread.
    pub event_log: Option<PathBuf>,
    /// Pending-line capacity of the event-log ring; overflow increments
    /// the drop counter instead of blocking workers.
    pub event_log_capacity: usize,
    /// Test-only fault hooks consulted once per dequeued job. `None` in
    /// production — see [`crate::fault`].
    pub faults: Option<FaultHandle>,
    /// Intra-request CHECK parallelism budget handed to the engine
    /// (overrides [`EmigreConfig::parallelism`] for served requests).
    /// `1` keeps each request on its worker thread — the right default
    /// when `workers` already saturates the machine; raise it only when
    /// workers are few and per-request latency matters more than
    /// throughput. `0` lets the engine auto-detect.
    pub intra_request_parallelism: usize,
    /// Admission-scheduler policy, per-user share cap, and fairness
    /// quantum — see [`crate::sched`].
    pub sched: SchedConfig,
    /// Slowest-N requests retained per endpoint for after-the-fact
    /// forensics (`GET /debug/slow`) — see [`crate::slow`].
    pub slow_ring_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            queue_capacity: 64,
            default_deadline: Duration::from_secs(10),
            session_capacity: 64,
            column_capacity: 256,
            trace_capacity: 512,
            event_log: None,
            event_log_capacity: 4096,
            faults: None,
            intra_request_parallelism: 1,
            sched: SchedConfig::default(),
            slow_ring_capacity: 8,
        }
    }
}

/// Why the service did not answer a request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The admission queue was full; retry later or shed load.
    Overloaded,
    /// The request's deadline expired before a worker picked it up.
    DeadlineExceeded,
    /// The service is draining; no new requests are admitted.
    ShuttingDown,
    /// The question itself is malformed (bad node ids, already
    /// interacted, already the recommendation, ...).
    InvalidQuestion(QuestionError),
    /// The worker thread panicked while serving this request. The worker
    /// recovered (its workspace was rebuilt) and the request is fully
    /// accounted in metrics and the event log.
    WorkerPanicked,
}

impl ServeError {
    /// The outcome label this error carries into the event log.
    fn outcome(&self) -> &'static str {
        match self {
            ServeError::Overloaded => "rejected_overload",
            ServeError::DeadlineExceeded => "deadline_exceeded",
            ServeError::ShuttingDown => "shutting_down",
            ServeError::InvalidQuestion(_) => "invalid_question",
            ServeError::WorkerPanicked => "worker_panic",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "service overloaded: admission queue full"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded while queued"),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::InvalidQuestion(e) => write!(f, "invalid question: {e}"),
            ServeError::WorkerPanicked => write!(f, "worker panicked while serving the request"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A served explain answer: the explanation, or the meta-explained search
/// failure (both are *successful* service responses).
pub type ExplainOutcome = Result<Explanation, ExplainFailure>;

/// A served recommendation list: `(item, score)` descending.
pub type RecommendOutcome = Vec<(NodeId, f64)>;

/// An explain answer plus its request-scoped telemetry.
#[derive(Debug, Clone)]
pub struct ExplainResponse {
    pub outcome: ExplainOutcome,
    pub stages: StageLatencies,
    /// The graph epoch this answer was computed on (pinned for the whole
    /// request; every CHECK inside the explanation saw this graph).
    pub epoch: u64,
}

/// A recommend answer plus its request-scoped telemetry.
#[derive(Debug, Clone)]
pub struct RecommendResponse {
    pub items: RecommendOutcome,
    pub stages: StageLatencies,
    /// The graph epoch the list was scored on.
    pub epoch: u64,
}

enum Work {
    Explain {
        user: NodeId,
        wni: NodeId,
        method: Method,
        reply: Sender<Result<ExplainResponse, ServeError>>,
    },
    Recommend {
        user: NodeId,
        k: usize,
        reply: Sender<Result<RecommendResponse, ServeError>>,
    },
    /// Test-only: parks the worker until `release` disconnects. Lets the
    /// telemetry test observe a non-zero queue depth deterministically.
    Stall {
        started: Sender<()>,
        release: Receiver<()>,
    },
}

/// State shared between the front-end handle and every worker.
struct Shared {
    /// QoS-aware admission queue (policy, fairness, cost model) between
    /// `submit` and the workers — see [`crate::sched`].
    queue: AdmissionQueue<Work>,
    /// Connection-layer counters, updated by whichever front end serves
    /// this service (zero when driven directly, e.g. in tests).
    frontend: Arc<FrontendStats>,
    live: LiveGraph,
    cfg: EmigreConfig,
    sessions: Mutex<EpochCache<u32, Arc<UserArtifacts>>>,
    columns: Mutex<EpochCache<u32, Arc<ReversePush>>>,
    metrics: ServeMetrics,
    /// Counters-only service-lifetime handle: per-request span/trace state
    /// lives on private handles and only counter deltas are merged here.
    obs: ObsHandle,
    /// Replayable traces of recent explain requests, keyed by request id.
    traces: Mutex<LruCache<u64, Arc<ExplainTrace>>>,
    /// Slowest-N forensics rings, one per endpoint — see [`crate::slow`].
    slow_explain: Mutex<SlowRing>,
    slow_recommend: Mutex<SlowRing>,
    events: EventLogger,
    explain_window: emigre_obs::SlidingWindow,
    recommend_window: emigre_obs::SlidingWindow,
    next_request_id: AtomicU64,
    started: Instant,
    workers: usize,
    faults: Option<FaultHandle>,
}

impl Shared {
    fn next_id(&self) -> u64 {
        self.next_request_id.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// Handle to a running worker pool. Cheap to share behind an `Arc`; all
/// request methods take `&self`.
pub struct ExplanationService {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    default_deadline: Duration,
}

impl ExplanationService {
    /// Builds the transition kernel, starts the workers, and returns the
    /// handle. The graph becomes epoch 0 of the service's [`LiveGraph`];
    /// [`apply_feedback`](ExplanationService::apply_feedback) publishes
    /// later epochs.
    pub fn start(graph: Hin, mut cfg: EmigreConfig, sc: ServiceConfig) -> Self {
        cfg.parallelism = sc.intra_request_parallelism;
        cfg.validate();
        assert!(sc.workers >= 1, "service needs at least one worker");
        let kernel = Arc::new(TransitionCsr::build(&graph, cfg.rec.ppr.transition));
        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(sc.queue_capacity, sc.sched.clone()),
            frontend: Arc::new(FrontendStats::default()),
            live: LiveGraph::new(Arc::new(graph), kernel),
            cfg,
            sessions: Mutex::new(EpochCache::new(sc.session_capacity)),
            columns: Mutex::new(EpochCache::new(sc.column_capacity)),
            metrics: ServeMetrics::default(),
            obs: ObsHandle::counters_only(),
            traces: Mutex::new(LruCache::new(sc.trace_capacity)),
            slow_explain: Mutex::new(SlowRing::new(sc.slow_ring_capacity)),
            slow_recommend: Mutex::new(SlowRing::new(sc.slow_ring_capacity)),
            events: EventLogger::from_config(sc.event_log.clone(), sc.event_log_capacity),
            explain_window: emigre_obs::SlidingWindow::new(),
            recommend_window: emigre_obs::SlidingWindow::new(),
            next_request_id: AtomicU64::new(0),
            started: Instant::now(),
            workers: sc.workers,
            faults: sc.faults.clone(),
        });
        let workers = (0..sc.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("emigre-serve-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawning service worker")
            })
            .collect();
        ExplanationService {
            shared,
            workers: Mutex::new(workers),
            default_deadline: sc.default_deadline,
        }
    }

    /// Answers one Why-Not question under the default deadline.
    pub fn explain(
        &self,
        user: NodeId,
        wni: NodeId,
        method: Method,
    ) -> Result<ExplainOutcome, ServeError> {
        self.explain_deadline(user, wni, method, self.default_deadline)
    }

    /// Answers one Why-Not question; the job is dropped with
    /// [`ServeError::DeadlineExceeded`] if still queued past `deadline`.
    pub fn explain_deadline(
        &self,
        user: NodeId,
        wni: NodeId,
        method: Method,
        deadline: Duration,
    ) -> Result<ExplainOutcome, ServeError> {
        self.explain_request(user, wni, method, deadline)
            .1
            .map(|r| r.outcome)
    }

    /// Answers one Why-Not question and returns its request id alongside
    /// the response. The id is assigned at admission — it identifies the
    /// request in the event log and `/trace/<id>` even when the result is
    /// a rejection.
    pub fn explain_request(
        &self,
        user: NodeId,
        wni: NodeId,
        method: Method,
        deadline: Duration,
    ) -> (u64, Result<ExplainResponse, ServeError>) {
        let request_id = self.shared.next_id();
        let (reply, rx) = bounded(1);
        let class = JobClass::Explain(method);
        let expected_cost_us = self.shared.queue.expected_cost_us(class);
        let submitted = self.submit(
            Work::Explain {
                user,
                wni,
                method,
                reply,
            },
            JobMeta {
                request_id,
                user: user.0,
                class,
                admitted_at: Instant::now(),
                deadline: Instant::now() + deadline,
                expected_cost_us,
            },
        );
        let result = match submitted {
            Ok(()) => match rx.recv() {
                Ok(r) => r,
                Err(_) => Err(ServeError::ShuttingDown),
            },
            Err(e) => {
                // Rejected at admission: no worker will log this request.
                self.shared.explain_window.record(0, true);
                self.shared.events.emit(&RequestEvent {
                    request_id,
                    endpoint: "explain".to_owned(),
                    outcome: e.outcome().to_owned(),
                    user: user.0,
                    wni: Some(wni.0),
                    method: Some(method.label().to_owned()),
                    expected_cost_us: Some(expected_cost_us),
                    ..RequestEvent::default()
                });
                Err(e)
            }
        };
        (request_id, result)
    }

    /// The user's top-`k` recommendation list under the default deadline.
    pub fn recommend(&self, user: NodeId, k: usize) -> Result<RecommendOutcome, ServeError> {
        self.recommend_deadline(user, k, self.default_deadline)
    }

    /// The user's top-`k` recommendation list with an explicit deadline.
    pub fn recommend_deadline(
        &self,
        user: NodeId,
        k: usize,
        deadline: Duration,
    ) -> Result<RecommendOutcome, ServeError> {
        self.recommend_request(user, k, deadline).1.map(|r| r.items)
    }

    /// Top-`k` recommendations plus the request id and telemetry.
    pub fn recommend_request(
        &self,
        user: NodeId,
        k: usize,
        deadline: Duration,
    ) -> (u64, Result<RecommendResponse, ServeError>) {
        let request_id = self.shared.next_id();
        let (reply, rx) = bounded(1);
        let expected_cost_us = self.shared.queue.expected_cost_us(JobClass::Recommend);
        let submitted = self.submit(
            Work::Recommend { user, k, reply },
            JobMeta {
                request_id,
                user: user.0,
                class: JobClass::Recommend,
                admitted_at: Instant::now(),
                deadline: Instant::now() + deadline,
                expected_cost_us,
            },
        );
        let result = match submitted {
            Ok(()) => match rx.recv() {
                Ok(r) => r,
                Err(_) => Err(ServeError::ShuttingDown),
            },
            Err(e) => {
                self.shared.recommend_window.record(0, true);
                self.shared.events.emit(&RequestEvent {
                    request_id,
                    endpoint: "recommend".to_owned(),
                    outcome: e.outcome().to_owned(),
                    user: user.0,
                    expected_cost_us: Some(expected_cost_us),
                    ..RequestEvent::default()
                });
                Err(e)
            }
        };
        (request_id, result)
    }

    /// Admission control: non-blocking enqueue or immediate rejection.
    /// User-quota rejections surface as `Overloaded` to the caller and
    /// count in `rejected_overload` (keeping the accounting invariant
    /// `requests_total == completed_total + rejected_overload`); the
    /// quota-specific count is in the scheduler snapshot.
    fn submit(&self, work: Work, meta: JobMeta) -> Result<(), ServeError> {
        ServeMetrics::bump(&self.shared.metrics.requests_total);
        match self.shared.queue.try_push(work, meta) {
            Ok(()) => Ok(()),
            Err(AdmitError::Overloaded) | Err(AdmitError::UserQuota) => {
                ServeMetrics::bump(&self.shared.metrics.rejected_overload);
                Err(ServeError::Overloaded)
            }
            Err(AdmitError::Closed) => Err(ServeError::ShuttingDown),
        }
    }

    /// The replayable trace of a recent explain request, if still in the
    /// bounded store.
    pub fn trace(&self, request_id: u64) -> Option<Arc<ExplainTrace>> {
        self.shared.traces.lock().get(&request_id)
    }

    /// The slowest-N requests per endpoint, slowest first, with full
    /// stage latencies, allocation deltas, and (for explains) the
    /// replayable trace. Served at `GET /debug/slow`.
    pub fn debug_slow(&self) -> SlowSnapshot {
        // Same hoisted-guard rule as `metrics`: lock each ring exactly
        // once, before the struct literal.
        let explain = self.shared.slow_explain.lock().snapshot();
        let recommend = self.shared.slow_recommend.lock().snapshot();
        SlowSnapshot { explain, recommend }
    }

    /// Current metrics, including queue depth, cache stats, sliding
    /// windows, event-log stats, and the PPR op counters aggregated
    /// across all served requests.
    pub fn metrics(&self) -> MetricsSnapshot {
        // Each cache is locked exactly once, *before* the struct literal:
        // guard temporaries inside the literal would all live to the end
        // of the statement, and a second `.lock()` of the same (non-
        // reentrant) mutex there would self-deadlock.
        let (session_cache, session_stale_invalidations, session_cache_bytes) = {
            let g = self.shared.sessions.lock();
            let bytes: usize = g.values().map(|v| v.heap_bytes()).sum();
            (g.stats(), g.stale_invalidations(), bytes as u64)
        };
        let (column_cache, column_stale_invalidations, column_cache_bytes) = {
            let g = self.shared.columns.lock();
            let bytes: usize = g.values().map(|v| v.heap_bytes()).sum();
            (g.stats(), g.stale_invalidations(), bytes as u64)
        };
        let heap = emigre_obs::heap_stats();
        let owned = ServiceOwned {
            queue_depth: self.shared.queue.len() as u64,
            workers: self.shared.workers as u64,
            uptime_secs: self.shared.started.elapsed().as_secs(),
            session_cache,
            column_cache,
            ops: self.shared.obs.counters(),
            events: self.shared.events.stats(),
            graph_epoch: self.shared.live.current_epoch(),
            epochs_published: self.shared.live.epochs_published(),
            update_panics: self.shared.live.update_panics(),
            session_stale_invalidations,
            column_stale_invalidations,
            heap_live_bytes: heap.live_bytes,
            heap_peak_bytes: heap.peak_bytes,
            graph_bytes: self.shared.live.pin().graph_bytes(),
            session_cache_bytes,
            column_cache_bytes,
            windows: WindowsSnapshot {
                explain_10s: self.shared.explain_window.stats(10),
                explain_60s: self.shared.explain_window.stats(60),
                recommend_10s: self.shared.recommend_window.stats(10),
                recommend_60s: self.shared.recommend_window.stats(60),
            },
            frontend: self.shared.frontend.snapshot(),
            sched: self.shared.queue.snapshot(),
        };
        self.shared.metrics.snapshot(owned)
    }

    /// Structural footprint of the currently published epoch's graph +
    /// CSR kernel, per the [`HeapSize`] audits. Exact (capacities, not
    /// lengths), independent of the tracking allocator.
    pub fn graph_bytes(&self) -> u64 {
        self.shared.live.pin().graph_bytes()
    }

    /// The connection-layer counters the HTTP front end updates; exposed
    /// so either front end (event loop or threaded) can share one
    /// instance with `/metrics`.
    pub fn frontend_stats(&self) -> Arc<FrontendStats> {
        Arc::clone(&self.shared.frontend)
    }

    /// Recently dispatched request ids in scheduler order, oldest first
    /// (bounded). Deterministic observability for scheduling tests.
    #[doc(hidden)]
    pub fn dispatch_order_for_test(&self) -> Vec<u64> {
        self.shared.queue.dispatch_order()
    }

    /// The deadline applied when a caller does not pass one.
    pub fn default_deadline(&self) -> Duration {
        self.default_deadline
    }

    /// Worker threads serving the queue.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Admission-queue capacity (jobs beyond this are rejected 429).
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue.capacity()
    }

    /// Time since [`ExplanationService::start`].
    pub fn uptime(&self) -> Duration {
        self.shared.started.elapsed()
    }

    /// Parks every worker until the returned guard drops, bypassing the
    /// request counters. Deterministic scaffolding for queue-depth and
    /// rejection tests; not part of the serving API.
    #[doc(hidden)]
    pub fn stall_workers_for_test(&self) -> WorkerStallGuard {
        let n = self.shared.workers;
        // Nothing is ever sent on `release`; workers resume when the guard
        // drops the sender and their recv() sees the disconnect.
        let (release_tx, release_rx) = bounded::<()>(1);
        let (started_tx, started_rx) = bounded::<()>(n);
        for _ in 0..n {
            let sent = self.shared.queue.push_privileged(
                Work::Stall {
                    started: started_tx.clone(),
                    release: release_rx.clone(),
                },
                JobMeta {
                    request_id: 0,
                    user: 0,
                    class: JobClass::Recommend,
                    admitted_at: Instant::now(),
                    deadline: Instant::now() + Duration::from_secs(3600),
                    expected_cost_us: 0,
                },
            );
            assert!(sent.is_ok(), "queueing stall job");
        }
        for _ in 0..n {
            started_rx.recv().expect("worker reached stall point");
        }
        WorkerStallGuard {
            _release: release_tx,
        }
    }

    /// Graceful shutdown: stops admitting, lets workers drain every
    /// already-admitted job, joins them, then flushes the event log.
    /// Idempotent.
    pub fn shutdown(&self) {
        // Close the queue: submits fail with ShuttingDown, workers drain
        // every already-admitted job then see None.
        self.shared.queue.close();
        let workers = std::mem::take(&mut *self.workers.lock());
        for w in workers {
            let _ = w.join();
        }
        // After the drain: every admitted request has already emitted its
        // event, so the flush below loses nothing.
        self.shared.events.shutdown();
    }

    /// The current epoch's graph. A point-in-time snapshot: a concurrent
    /// [`apply_feedback`](ExplanationService::apply_feedback) may publish
    /// a newer epoch right after this returns — use
    /// [`pin_epoch`](ExplanationService::pin_epoch) to hold graph, kernel,
    /// and epoch id together.
    pub fn graph(&self) -> Arc<Hin> {
        Arc::clone(&self.shared.live.pin().graph)
    }

    /// The current epoch's transition kernel (same caveat as
    /// [`graph`](ExplanationService::graph)).
    pub fn kernel(&self) -> Arc<TransitionCsr> {
        Arc::clone(&self.shared.live.pin().kernel)
    }

    /// Pins the current graph epoch, exactly as a worker does at the top
    /// of each job.
    pub fn pin_epoch(&self) -> Arc<GraphEpoch> {
        self.shared.live.pin()
    }

    /// The current graph epoch id (0 until the first accepted feedback).
    pub fn current_epoch(&self) -> u64 {
        self.shared.live.current_epoch()
    }

    /// Applies one batch of feedback events as the next graph epoch and
    /// returns the request id alongside the outcome. Runs synchronously on
    /// the caller's thread (writers are serialised inside [`LiveGraph`]);
    /// in-flight explains keep their pinned epochs. Rejection is
    /// all-or-nothing and leaves the current epoch untouched — including
    /// when the updater panics (injected or real).
    ///
    /// Feedback requests draw ids from the same sequence as explains and
    /// emit one event-log line each, but are accounted under the
    /// `feedback_*` metrics, not the read-path request counters.
    pub fn apply_feedback(
        &self,
        events: &[FeedbackEvent],
    ) -> (u64, Result<FeedbackOutcome, FeedbackError>) {
        let request_id = self.shared.next_id();
        ServeMetrics::bump(&self.shared.metrics.feedback_requests);
        let start = Instant::now();
        let result = events_to_delta(
            events,
            &self.shared.live.pin().graph,
            self.shared.cfg.bidirectional_actions,
        )
        .and_then(|delta| self.shared.live.apply(&delta, self.shared.faults.as_ref()));
        let total_us = start.elapsed().as_micros() as u64;
        let mut event = RequestEvent {
            request_id,
            endpoint: "feedback".to_owned(),
            user: events.first().map(|e| e.src).unwrap_or(0),
            explanation_size: Some(events.len() as u64),
            stages: StageLatencies {
                total_us,
                ..StageLatencies::default()
            },
            ..RequestEvent::default()
        };
        match &result {
            Ok(out) => {
                self.shared
                    .metrics
                    .feedback_events_applied
                    .fetch_add(events.len() as u64, Ordering::Relaxed);
                event.outcome = "applied".to_owned();
                event.epoch = Some(out.epoch);
            }
            Err(e) => {
                ServeMetrics::bump(&self.shared.metrics.feedback_rejected);
                event.outcome = match e {
                    FeedbackError::UpdatePanicked => "update_panic".to_owned(),
                    _ => "feedback_rejected".to_owned(),
                };
                event.epoch = Some(self.shared.live.current_epoch());
            }
        }
        self.shared.events.emit(&event);
        (request_id, result)
    }

    /// Plants an arbitrary entry in the session cache (stamped with the
    /// current epoch), bypassing the build path. Fault-injection
    /// scaffolding: the differential suite uses it to prove a poisoned
    /// artefact is detected and never served.
    #[doc(hidden)]
    pub fn poison_session_for_test(&self, user: NodeId, art: Arc<UserArtifacts>) {
        let epoch = self.shared.live.current_epoch();
        self.shared.sessions.lock().insert_at(user.0, epoch, art);
    }

    /// Plants an arbitrary column under `item`'s key in the column cache,
    /// stamped with the current epoch.
    #[doc(hidden)]
    pub fn poison_column_for_test(&self, item: NodeId, col: Arc<ReversePush>) {
        let epoch = self.shared.live.current_epoch();
        self.shared.columns.lock().insert_at(item.0, epoch, col);
    }

    /// The serving configuration (recommender + explanation settings).
    pub fn config(&self) -> &EmigreConfig {
        &self.shared.cfg
    }
}

/// Keeps every worker parked while alive; dropping it resumes them.
pub struct WorkerStallGuard {
    _release: Sender<()>,
}

impl Drop for ExplanationService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: Arc<Shared>) {
    // One workspace per worker, recycled across every question. Sized lazily
    // by load_base/clear, so starting at the graph size just pre-warms it.
    // (Feedback never changes the node count, only edges.)
    let mut ws = PushWorkspace::new(shared.live.pin().graph.num_nodes());
    // pop drains queued jobs even after close(): graceful shutdown answers
    // everything that was admitted.
    while let Some((work, meta)) = shared.queue.pop() {
        let JobMeta {
            request_id,
            admitted_at,
            ..
        } = meta;
        match work {
            Work::Stall { started, release } => {
                let _ = started.send(());
                let _ = release.recv(); // parked until the guard drops
            }
            // Each job runs under catch_unwind with the reply sender held
            // OUTSIDE the closure: a panic mid-computation (a bug, or an
            // injected fault) is converted into a fully-accounted
            // `WorkerPanicked` answer instead of a dropped sender, and the
            // worker survives to serve the next job. The workspace may
            // have been left mid-transaction by the unwind, so it is
            // rebuilt from scratch on the panic path.
            Work::Explain {
                user,
                wni,
                method,
                reply,
            } => {
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    explain_job(&shared, &meta, user, wni, method, &mut ws)
                }));
                match run {
                    Ok((result, stages, epoch)) => {
                        let _ = reply.try_send(result.map(|outcome| ExplainResponse {
                            outcome,
                            stages,
                            epoch,
                        }));
                        // caller may have gone away
                    }
                    Err(_) => {
                        ws = PushWorkspace::new(shared.live.pin().graph.num_nodes());
                        account_panic(
                            &shared,
                            request_id,
                            admitted_at,
                            "explain",
                            user,
                            Some(wni),
                            Some(method),
                        );
                        let _ = reply.try_send(Err(ServeError::WorkerPanicked));
                    }
                }
            }
            Work::Recommend { user, k, reply } => {
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    recommend_job(&shared, &meta, user, k)
                }));
                match run {
                    Ok((result, stages, epoch)) => {
                        let _ = reply.try_send(result.map(|items| RecommendResponse {
                            items,
                            stages,
                            epoch,
                        }));
                    }
                    Err(_) => {
                        account_panic(
                            &shared,
                            request_id,
                            admitted_at,
                            "recommend",
                            user,
                            None,
                            None,
                        );
                        let _ = reply.try_send(Err(ServeError::WorkerPanicked));
                    }
                }
            }
        }
    }
}

/// The full explain path of one dequeued job: fault hook, deadline check,
/// compute, metrics, window, trace store, event emission. Runs inside the
/// worker's `catch_unwind`; everything it records is already durable when
/// it returns, so the caller only has to deliver the reply.
fn explain_job(
    shared: &Shared,
    meta: &JobMeta,
    user: NodeId,
    wni: NodeId,
    method: Method,
    ws: &mut PushWorkspace,
) -> (Result<ExplainOutcome, ServeError>, StageLatencies, u64) {
    let request_id = meta.request_id;
    if let Some(f) = &shared.faults {
        f.on_dequeue(request_id, "explain");
    }
    // Pin the graph epoch for the whole request: every artefact build,
    // column push, and CHECK below sees exactly this snapshot, no matter
    // how many feedback batches publish while we compute.
    let snap = shared.live.pin();
    // `start` is taken after the fault hook so an injected delay counts as
    // processing time and can expire the job it hit, like any slow worker.
    let start = Instant::now();
    // Per-request allocation delta (this worker thread's allocations
    // while the job runs); zero unless the binary installed the
    // tracking allocator.
    let alloc_scope = AllocScope::start();
    let queue_us = start.duration_since(meta.admitted_at).as_micros() as u64;
    let expired = start >= meta.deadline;
    shared.metrics.queue_wait.record_us(queue_us);
    shared.metrics.queue_wait_explain.record_us(queue_us);
    let mut stages = StageLatencies {
        queue_us,
        ..StageLatencies::default()
    };
    let mut event = RequestEvent {
        request_id,
        endpoint: "explain".to_owned(),
        user: user.0,
        wni: Some(wni.0),
        method: Some(method.label().to_owned()),
        epoch: Some(snap.epoch),
        expected_cost_us: Some(meta.expected_cost_us),
        ..RequestEvent::default()
    };
    // Kept aside so a slow-ring admission can deep-clone the trace
    // without re-locking the trace store.
    let mut slow_trace: Option<Arc<ExplainTrace>> = None;
    let result = if expired {
        ServeMetrics::bump(&shared.metrics.rejected_deadline);
        Err(ServeError::DeadlineExceeded)
    } else {
        // Private handle: spans + trace stay request-scoped.
        let req_obs = ObsHandle::enabled();
        let r = run_explain(shared, &snap, user, wni, method, ws, &req_obs);
        stages = StageLatencies {
            queue_us,
            ..StageLatencies::from_spans(&req_obs.span_tree())
        };
        let ops = req_obs.counters();
        shared.obs.merge_counters(&ops);
        event.ops = ops;
        if let Some(trace) = req_obs.trace() {
            event.mode = if trace.mode.is_empty() {
                None
            } else {
                Some(trace.mode.clone())
            };
            let trace = Arc::new(trace);
            slow_trace = Some(Arc::clone(&trace));
            shared.traces.lock().insert(request_id, trace);
        }
        match r {
            Ok((outcome, session_hit, column_hit)) => {
                event.session_cache_hit = Some(session_hit);
                event.column_cache_hit = Some(column_hit);
                Ok(outcome)
            }
            Err(e) => Err(e),
        }
    };
    let is_error = result.is_err();
    match &result {
        Ok(Ok(explanation)) => {
            ServeMetrics::bump(&shared.metrics.explanations_found);
            event.outcome = "found".to_owned();
            event.explanation_size = Some(explanation.size() as u64);
        }
        Ok(Err(_)) => {
            ServeMetrics::bump(&shared.metrics.explanations_failed);
            event.outcome = "failure".to_owned();
        }
        Err(e) => {
            if matches!(e, ServeError::InvalidQuestion(_)) {
                ServeMetrics::bump(&shared.metrics.invalid_questions);
            }
            event.outcome = e.outcome().to_owned();
        }
    }
    let total = start.elapsed();
    stages.total_us = queue_us + total.as_micros() as u64;
    stages.total_alloc_bytes = alloc_scope.bytes();
    shared.metrics.record_stages(&stages);
    shared.metrics.explain_latency.record(total);
    shared.explain_window.record(stages.total_us, is_error);
    if !expired {
        // Feed the cost model with real service time (queue wait
        // excluded). Expired jobs cost ~nothing and would poison it.
        shared
            .queue
            .observe_cost(meta.class, total.as_micros() as u64);
    }
    event.slow = {
        // `admits` first so the common fast request never deep-clones
        // its trace; both calls run under one lock acquisition.
        let mut ring = shared.slow_explain.lock();
        ring.admits(stages.total_us)
            && ring.offer(SlowEntry {
                request_id,
                endpoint: "explain".to_owned(),
                outcome: event.outcome.clone(),
                user: user.0,
                wni: Some(wni.0),
                method: Some(method.label().to_owned()),
                mode: event.mode.clone(),
                total_us: stages.total_us,
                stages,
                epoch: snap.epoch,
                expected_cost_us: Some(meta.expected_cost_us),
                trace: slow_trace.as_deref().cloned(),
            })
    };
    event.stages = stages;
    shared.events.emit(&event);
    // Count completion before replying: once a caller has its answer, the
    // metrics must already include that request.
    ServeMetrics::bump(&shared.metrics.completed_total);
    (result, stages, snap.epoch)
}

/// The full recommend path of one dequeued job; see [`explain_job`].
fn recommend_job(
    shared: &Shared,
    meta: &JobMeta,
    user: NodeId,
    k: usize,
) -> (Result<RecommendOutcome, ServeError>, StageLatencies, u64) {
    let request_id = meta.request_id;
    if let Some(f) = &shared.faults {
        f.on_dequeue(request_id, "recommend");
    }
    let snap = shared.live.pin();
    let start = Instant::now();
    let alloc_scope = AllocScope::start();
    let queue_us = start.duration_since(meta.admitted_at).as_micros() as u64;
    let expired = start >= meta.deadline;
    shared.metrics.queue_wait.record_us(queue_us);
    shared.metrics.queue_wait_recommend.record_us(queue_us);
    let mut stages = StageLatencies {
        queue_us,
        ..StageLatencies::default()
    };
    let mut event = RequestEvent {
        request_id,
        endpoint: "recommend".to_owned(),
        user: user.0,
        epoch: Some(snap.epoch),
        expected_cost_us: Some(meta.expected_cost_us),
        ..RequestEvent::default()
    };
    let result = if expired {
        ServeMetrics::bump(&shared.metrics.rejected_deadline);
        Err(ServeError::DeadlineExceeded)
    } else {
        let req_obs = ObsHandle::enabled();
        let r = run_recommend(shared, &snap, user, k, &req_obs);
        stages = StageLatencies {
            queue_us,
            ..StageLatencies::from_spans(&req_obs.span_tree())
        };
        let ops = req_obs.counters();
        shared.obs.merge_counters(&ops);
        event.ops = ops;
        match r {
            Ok((items, session_hit)) => {
                event.session_cache_hit = Some(session_hit);
                Ok(items)
            }
            Err(e) => Err(e),
        }
    };
    let is_error = result.is_err();
    match &result {
        Ok(_) => event.outcome = "ok".to_owned(),
        Err(e) => {
            if matches!(e, ServeError::InvalidQuestion(_)) {
                ServeMetrics::bump(&shared.metrics.invalid_questions);
            }
            event.outcome = e.outcome().to_owned();
        }
    }
    let total = start.elapsed();
    stages.total_us = queue_us + total.as_micros() as u64;
    stages.total_alloc_bytes = alloc_scope.bytes();
    shared.metrics.recommend_latency.record(total);
    shared.recommend_window.record(stages.total_us, is_error);
    if !expired {
        shared
            .queue
            .observe_cost(meta.class, total.as_micros() as u64);
    }
    event.slow = {
        let mut ring = shared.slow_recommend.lock();
        ring.admits(stages.total_us)
            && ring.offer(SlowEntry {
                request_id,
                endpoint: "recommend".to_owned(),
                outcome: event.outcome.clone(),
                user: user.0,
                wni: None,
                method: None,
                mode: None,
                total_us: stages.total_us,
                stages,
                epoch: snap.epoch,
                expected_cost_us: Some(meta.expected_cost_us),
                trace: None,
            })
    };
    event.stages = stages;
    shared.events.emit(&event);
    ServeMetrics::bump(&shared.metrics.completed_total);
    (result, stages, snap.epoch)
}

/// Accounting for a job whose computation unwound: the request still
/// counts as completed, records a latency sample and a window error, and
/// emits a `worker_panic` event line — 100% of admitted requests stay
/// visible in metrics and the event log even across crashes.
fn account_panic(
    shared: &Shared,
    request_id: u64,
    admitted_at: Instant,
    endpoint: &'static str,
    user: NodeId,
    wni: Option<NodeId>,
    method: Option<Method>,
) {
    ServeMetrics::bump(&shared.metrics.worker_panics);
    let total_us = admitted_at.elapsed().as_micros() as u64;
    let stages = StageLatencies {
        total_us,
        ..StageLatencies::default()
    };
    if endpoint == "explain" {
        shared.metrics.explain_latency.record_us(total_us);
        shared.explain_window.record(total_us, true);
    } else {
        shared.metrics.recommend_latency.record_us(total_us);
        shared.recommend_window.record(total_us, true);
    }
    shared.events.emit(&RequestEvent {
        request_id,
        endpoint: endpoint.to_owned(),
        outcome: "worker_panic".to_owned(),
        user: user.0,
        wni: wni.map(|w| w.0),
        method: method.map(|m| m.label().to_owned()),
        stages,
        ..RequestEvent::default()
    });
    ServeMetrics::bump(&shared.metrics.completed_total);
}

/// Cheap structural integrity check on a session-cache hit. A healthy
/// build can never fail it; a poisoned or corrupted entry (wrong user,
/// truncated estimates, out-of-bounds recommendation) is caught before a
/// single score is read from it. Epoch staleness is checked *before* this
/// (by [`EpochCache::get_at`]); this guards against corruption within the
/// right epoch.
fn session_artifacts_valid(snap: &GraphEpoch, user: NodeId, art: &UserArtifacts) -> bool {
    let n = snap.graph.num_nodes();
    art.user == user
        && art.user_push.seed == user
        && art.user_push.estimates.len() == n
        && (art.rec.0 as usize) < n
        && art.ppr_to_rec.target == art.rec
        && art.ppr_to_rec.estimates.len() == n
}

/// Integrity check on a column-cache hit: the column must actually be
/// `PPR(·, item)` for this graph.
fn column_valid(snap: &GraphEpoch, item: NodeId, col: &ReversePush) -> bool {
    col.target == item && col.estimates.len() == snap.graph.num_nodes()
}

/// User artefacts from the session cache, building on miss; the bool is
/// the cache-hit flag. Entries are keyed by the pinned epoch: a hit from
/// any other epoch is invalidated (never served) and rebuilt here on the
/// pinned kernel. Concurrent misses for the same user may build twice;
/// both builds are deterministic and identical on the same epoch, so the
/// race costs time, never correctness.
fn artifacts(
    shared: &Shared,
    snap: &GraphEpoch,
    user: NodeId,
    obs: &ObsHandle,
) -> Result<(Arc<UserArtifacts>, bool), QuestionError> {
    // Bind the lookup first: the lock guard must be released before the
    // quarantine path below re-locks the cache.
    let cached = shared.sessions.lock().get_at(&user.0, snap.epoch);
    if let Some(hit) = cached {
        if session_artifacts_valid(snap, user, &hit) {
            return Ok((hit, true));
        }
        // Quarantine: never serve from a poisoned artefact — drop the
        // entry, count the detection, rebuild below as a miss.
        ServeMetrics::bump(&shared.metrics.cache_poison_detected);
        shared.sessions.lock().remove(&user.0);
    }
    let built = UserArtifacts::build(
        &*snap.graph,
        &shared.cfg,
        Arc::clone(&snap.kernel),
        user,
        obs,
    )?;
    let art = Arc::new(built);
    shared
        .sessions
        .lock()
        .insert_at(user.0, snap.epoch, Arc::clone(&art));
    Ok((art, false))
}

/// `PPR(·, item)` from the column cache, computing on miss; the bool is
/// the cache-hit flag. Epoch-keyed like [`artifacts`]. The caller must
/// have validated `item` (in bounds) first.
fn column(
    shared: &Shared,
    snap: &GraphEpoch,
    item: NodeId,
    obs: &ObsHandle,
) -> (Arc<ReversePush>, bool) {
    let cached = shared.columns.lock().get_at(&item.0, snap.epoch);
    if let Some(hit) = cached {
        if column_valid(snap, item, &hit) {
            return (hit, true);
        }
        ServeMetrics::bump(&shared.metrics.cache_poison_detected);
        shared.columns.lock().remove(&item.0);
    }
    let col = ReversePush::compute(&*snap.kernel, &shared.cfg.rec.ppr, item);
    obs.count(Op::ReversePushes, col.pushes as u64);
    obs.add_mass(col.drained);
    let col = Arc::new(col);
    shared
        .columns
        .lock()
        .insert_at(item.0, snap.epoch, Arc::clone(&col));
    (col, false)
}

fn run_explain(
    shared: &Shared,
    snap: &GraphEpoch,
    user: NodeId,
    wni: NodeId,
    method: Method,
    ws_slot: &mut PushWorkspace,
    obs: &ObsHandle,
) -> Result<(ExplainOutcome, bool, bool), ServeError> {
    // The serving path assembles the context from cached artefacts, which
    // bypasses `ExplainContext::build`'s own context_build span — open the
    // equivalent stage span here so attribution covers cache misses too.
    let cb = obs.span("context_build");
    let (art, session_hit) =
        artifacts(shared, snap, user, obs).map_err(ServeError::InvalidQuestion)?;
    // Full question validation before paying for the WNI column.
    WhyNotQuestion::validate(&*snap.graph, &shared.cfg, user, wni, Some(art.rec))
        .map_err(ServeError::InvalidQuestion)?;
    let (col, column_hit) = column(shared, snap, wni, obs);
    // Lend the worker's workspace to the context; take it back afterwards.
    let ws = std::mem::replace(ws_slot, PushWorkspace::new(0));
    match ExplainContext::from_artifacts(
        &*snap.graph,
        shared.cfg.clone(),
        &art,
        wni,
        col,
        ws,
        obs.clone(),
    ) {
        Ok(ctx) => {
            drop(cb); // context stage ends where the search begins

            // Every other item column the search reads (Exhaustive
            // Comparison's targets) comes from the same epoch cache; a
            // miss pushes inside the search's own span.
            let ctx = ctx.with_column_source(|t| column(shared, snap, t, obs).0);
            let outcome = Explainer::explain_with_context(&ctx, method);
            *ws_slot = ctx.into_workspace();
            Ok((outcome, session_hit, column_hit))
        }
        // Unreachable after the validation above; the workspace was
        // consumed, but clear()/load_base() re-grow the placeholder.
        Err(e) => Err(ServeError::InvalidQuestion(e)),
    }
}

fn run_recommend(
    shared: &Shared,
    snap: &GraphEpoch,
    user: NodeId,
    k: usize,
    obs: &ObsHandle,
) -> Result<(RecommendOutcome, bool), ServeError> {
    let cb = obs.span("context_build");
    let (art, session_hit) =
        artifacts(shared, snap, user, obs).map_err(ServeError::InvalidQuestion)?;
    drop(cb);
    let items = recommend_from_push(&*snap.graph, &shared.cfg, user, &art.user_push, k);
    Ok((items, session_hit))
}

/// The canonical scoring of a top-`k` list from a converged user push:
/// candidates are every non-interacted item-typed node (no score floor —
/// this is the recommender surface, not the explain target list). Both the
/// service and the load generator's reference path call this exact
/// function, so divergence checks compare identical code.
pub fn recommend_from_push<G: emigre_hin::GraphView>(
    graph: &G,
    cfg: &EmigreConfig,
    user: NodeId,
    push: &ForwardPush,
    k: usize,
) -> RecommendOutcome {
    let recommender = PprRecommender::new(cfg.rec);
    let candidates = recommender.candidates(graph, user);
    RecList::from_scores(&push.estimates, candidates, k)
        .entries()
        .to_vec()
}

/// Single-threaded reference for the service's `/recommend`: same
/// artefact build, same scoring. Used by the load generator to detect
/// correctness divergences.
pub fn reference_recommend(
    graph: &Hin,
    cfg: &EmigreConfig,
    user: NodeId,
    k: usize,
) -> Result<RecommendOutcome, QuestionError> {
    let kernel = Arc::new(TransitionCsr::build(graph, cfg.rec.ppr.transition));
    let art = UserArtifacts::build(graph, cfg, kernel, user, &ObsHandle::disabled())?;
    Ok(recommend_from_push(graph, cfg, user, &art.user_push, k))
}

/// Single-threaded reference for the service's `/explain`: the plain
/// [`ExplainContext::build`] → [`Explainer::explain_with_context`] path.
pub fn reference_explain(
    graph: &Hin,
    cfg: &EmigreConfig,
    user: NodeId,
    wni: NodeId,
    method: Method,
) -> Result<ExplainOutcome, QuestionError> {
    let ctx = ExplainContext::build(graph, cfg.clone(), user, wni)?;
    Ok(Explainer::explain_with_context(&ctx, method))
}
