//! The in-process explanation service: a worker pool over an
//! epoch-versioned live graph.
//!
//! ## Architecture
//!
//! ```text
//!  explain_request ───┐                                  N workers, one lifecycle per job:
//!  recommend_request ─┼─ submit ─try_push─▶ AdmissionQueue ──pop──▶ serve_read
//!  HTTP reactor ──────┘    │      (earliest deadline         ├─ fault hook, pin GraphEpoch
//!         ▲                │       first + per-user          ├─ deadline check (DeadlineExceeded)
//!         └── Overloaded ──┘       fairness, see             ├─ run_explain | run_recommend on a
//!             when full or over    crate::sched)             │  private ObsHandle, over the session
//!             the per-user share:                            │  and column caches and the worker's
//!             admission control,                             │  PushWorkspace
//!             never unbounded                                ├─ record_read (also after a panic)
//!                                                            └─ the read's reply callback
//!
//!  POST /feedback ──▶ apply_feedback ──▶ LiveGraph publish (next epoch)
//! ```
//!
//! `submit` never blocks: it answers a rejection through the reply
//! callback at once, and an admitted read gets its callback from the
//! worker that ran it. The HTTP reactor admits reads this way, so the
//! admission queue is the only place a read waits.
//! `explain_request` and `recommend_request` submit and wait.
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
//! Explain and recommend share one request lifecycle; only the compute
//! and its outcome label differ. Admission gives every request a
//! monotonically increasing **request id**, echoed in the response and
//! usable against `/trace/<id>`, and accounts a rejected request on the
//! spot. A worker runs each dequeued request on a *private* enabled
//! [`ObsHandle`] — spans and the [`ExplainTrace`] stay request-scoped and
//! bounded — folds the request's op-counter deltas into the
//! service-lifetime counters-only handle, keeps an explain's trace in a
//! bounded LRU store, and then records the request once, panicked or not:
//! it builds one [`RequestEvent`], with the span tree projected into
//! [`StageLatencies`] (queue wait / context build / search / TEST loop),
//! and feeds the outcome counters, the endpoint's latency and queue-wait
//! histograms and sliding window (the 10s/60s QPS, error-rate, and
//! quantile gauges), the per-stage histograms (explains a worker ran),
//! the cost model, the endpoint's slow ring (a [`SlowEntry`] copied from
//! that event) and the event log.
//!
//! ## Determinism
//!
//! A served answer is bit-identical to the single-threaded
//! [`ExplainContext::build`] → [`Explainer::explain_with_context`] path
//! *on the graph of the epoch it was served from*: artefact builds,
//! column pushes, and CHECKs are deterministic, caches only memoise
//! values those deterministic computations would recompute on the same
//! epoch, and workspace recycling restores the exact base state
//! ([`PushWorkspace::load_base`]). The `concurrency` integration test
//! asserts this equivalence under mixed parallel traffic; the testkit
//! `epoch_consistency` suite asserts it while feedback writes are racing
//! the readers.
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
use crate::metrics::{FrontendStats, MetricsSnapshot, ServeMetrics, ServiceOwned};
use crate::sched::{AdmissionQueue, AdmitError, JobClass, JobMeta};
use crate::slow::{SlowEntry, SlowSnapshot};
use crossbeam::channel::{bounded, Receiver, Sender};
use emigre_core::{
    EmigreConfig, ExplainContext, ExplainFailure, Explainer, Explanation, Method, QuestionError,
    UserArtifacts, WhyNotQuestion,
};
use emigre_hin::{GraphView, Hin, NodeId};
use emigre_obs::{AllocScope, ExplainTrace, HeapSize, ObsHandle, Op, StageLatencies};
use emigre_ppr::{
    ForwardPush, PprConfig, PushWorkspace, ReversePush, TransitionCsr, TransitionModel,
};
use emigre_rec::{PprRecommender, RecConfig, RecList};
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
    /// request is appended here by a dedicated writer thread, through a
    /// ring of 4,096 pending lines.
    pub event_log: Option<PathBuf>,
    /// Test-only fault hooks consulted once per dequeued job. `None` in
    /// production — see [`crate::fault`].
    pub faults: Option<FaultHandle>,
    /// Max fraction of the queue one user may hold; `1.0` disables the
    /// cap — see [`crate::sched`].
    pub user_share: f64,
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
            faults: None,
            user_share: 1.0,
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

/// What a read request asks.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Query {
    Explain {
        user: NodeId,
        wni: NodeId,
        method: Method,
    },
    Recommend {
        user: NodeId,
        k: usize,
    },
}

impl Query {
    fn user(self) -> NodeId {
        match self {
            Query::Explain { user, .. } | Query::Recommend { user, .. } => user,
        }
    }

    fn class(self) -> JobClass {
        match self {
            Query::Explain { method, .. } => JobClass::Explain(method),
            Query::Recommend { .. } => JobClass::Recommend,
        }
    }

    /// The request's event line as admission knows it; the admission
    /// rejection or [`record_read`] fills in the rest.
    fn event(self, meta: &JobMeta) -> RequestEvent {
        let (wni, method) = match self {
            Query::Explain { wni, method, .. } => (Some(wni.0), Some(method.label().to_owned())),
            Query::Recommend { .. } => (None, None),
        };
        RequestEvent {
            request_id: meta.request_id,
            endpoint: meta.class.endpoint().to_owned(),
            user: self.user().0,
            wni,
            method,
            expected_cost_us: Some(meta.expected_cost_us),
            ..RequestEvent::default()
        }
    }
}

/// A worker's answer to a [`Query`].
pub(crate) enum Answer {
    Explain(ExplainOutcome),
    Recommend(RecommendOutcome),
}

/// What a read request's caller receives: the answer with its stage
/// latencies and pinned epoch, or why there is none.
pub(crate) type Reply = Result<(Answer, StageLatencies, u64), ServeError>;

/// Where a submitted read's reply goes, with its request id: called once,
/// by the worker after [`record_read`], or at once for a rejection.
pub(crate) type OnReply = Box<dyn FnOnce(u64, Reply) + Send>;

enum Work {
    Read {
        query: Query,
        on_reply: OnReply,
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
    /// QoS-aware admission queue (deadline order, fairness, cost model)
    /// between `submit` and the workers — see [`crate::sched`].
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
    events: EventLogger,
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
    pub fn start(graph: Hin, cfg: EmigreConfig, sc: ServiceConfig) -> Self {
        cfg.validate();
        assert!(sc.workers >= 1, "service needs at least one worker");
        let kernel = Arc::new(TransitionCsr::build(&graph, cfg.rec.ppr.transition));
        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(sc.queue_capacity, sc.user_share),
            frontend: Arc::new(FrontendStats::default()),
            live: LiveGraph::new(Arc::new(graph), kernel),
            cfg,
            sessions: Mutex::new(EpochCache::new(sc.session_capacity)),
            columns: Mutex::new(EpochCache::new(sc.column_capacity)),
            metrics: ServeMetrics::new(sc.slow_ring_capacity),
            obs: ObsHandle::counters_only(),
            traces: Mutex::new(LruCache::new(sc.trace_capacity)),
            events: EventLogger::from_config(sc.event_log.clone()),
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
        let (request_id, reply) = self.ask(Query::Explain { user, wni, method }, deadline);
        let response = reply.map(|(answer, stages, epoch)| match answer {
            Answer::Explain(outcome) => ExplainResponse {
                outcome,
                stages,
                epoch,
            },
            Answer::Recommend(_) => unreachable!("an explain query gets an explain answer"),
        });
        (request_id, response)
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
        let (request_id, reply) = self.ask(Query::Recommend { user, k }, deadline);
        let response = reply.map(|(answer, stages, epoch)| match answer {
            Answer::Recommend(items) => RecommendResponse {
                items,
                stages,
                epoch,
            },
            Answer::Explain(_) => unreachable!("a recommend query gets a recommend answer"),
        });
        (request_id, response)
    }

    /// Submits `query` and waits for its reply.
    fn ask(&self, query: Query, deadline: Duration) -> (u64, Reply) {
        let (tx, rx) = bounded(1);
        let on_reply = move |_, reply| drop(tx.send(reply));
        let request_id = self.submit(query, deadline, Box::new(on_reply));
        let reply = rx.recv().unwrap_or(Err(ServeError::ShuttingDown));
        (request_id, reply)
    }

    /// Admission control for every read request, without blocking: assigns
    /// the request id, asks the cost model for an estimate, and enqueues,
    /// or rejects at once. A rejected request is accounted here (no worker
    /// ever sees it) and answered through `on_reply` before this returns;
    /// an admitted one is answered by its worker. User-quota rejections
    /// surface as `Overloaded` and count in `rejected_overload` (keeping
    /// the accounting invariant `requests_total == completed_total +
    /// rejected_overload`); the quota-specific count is in the scheduler
    /// snapshot. Returns the request id.
    pub(crate) fn submit(&self, query: Query, deadline: Duration, on_reply: OnReply) -> u64 {
        let shared = &self.shared;
        let class = query.class();
        let admitted_at = Instant::now();
        let meta = JobMeta {
            request_id: shared.next_id(),
            user: query.user().0,
            class,
            admitted_at,
            deadline: admitted_at + deadline,
            expected_cost_us: shared.queue.expected_cost_us(class),
        };
        ServeMetrics::bump(&shared.metrics.requests_total);
        let (error, work) = match shared.queue.try_push(Work::Read { query, on_reply }, meta) {
            Ok(()) => return meta.request_id,
            Err(rejected) => rejected,
        };
        let error = match error {
            AdmitError::Overloaded | AdmitError::UserQuota => {
                ServeMetrics::bump(&shared.metrics.rejected_overload);
                ServeError::Overloaded
            }
            AdmitError::Closed => ServeError::ShuttingDown,
        };
        shared.metrics.endpoint(class).window.record(0, true);
        let mut event = query.event(&meta);
        event.outcome = error.outcome().to_owned();
        shared.events.emit(&event);
        if let Work::Read { on_reply, .. } = work {
            on_reply(meta.request_id, Err(error));
        }
        meta.request_id
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
        let m = &self.shared.metrics;
        let explain = m.explain.slow.lock().snapshot();
        let recommend = m.recommend.slow.lock().snapshot();
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
    /// so the event loop shares one instance with `/metrics`.
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
        let (query, on_reply) = match work {
            Work::Stall { started, release } => {
                let _ = started.send(());
                let _ = release.recv(); // parked until the guard drops
                continue;
            }
            Work::Read { query, on_reply } => (query, on_reply),
        };
        // The job runs under catch_unwind with the reply callback held
        // OUTSIDE the closure: a panic mid-computation (a bug, or an
        // injected fault) is recorded like any other dequeued request and
        // answered `WorkerPanicked` instead of dropping the callback, and
        // the worker survives to serve the next job.
        let dequeued = Instant::now();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_read(&shared, &meta, query, &mut ws)
        }));
        let reply_value = run.unwrap_or_else(|_| {
            if let Query::Explain { .. } = query {
                // The unwind may have left the workspace mid-transaction.
                ws = PushWorkspace::new(shared.live.pin().graph.num_nodes());
            }
            let event = query.event(&meta);
            record_read(
                &shared,
                &meta,
                dequeued,
                event,
                None,
                Err(ServeError::WorkerPanicked),
            )
        });
        on_reply(meta.request_id, reply_value);
    }
}

/// One dequeued read request: fault hook, epoch pin, deadline check, the
/// endpoint's compute on a private [`ObsHandle`], then [`record_read`].
/// Runs inside the worker's `catch_unwind`.
fn serve_read(shared: &Shared, meta: &JobMeta, query: Query, ws: &mut PushWorkspace) -> Reply {
    if let Some(f) = &shared.faults {
        f.on_dequeue(meta.request_id, meta.class.endpoint());
    }
    // Pin the graph epoch for the whole request: every artefact build,
    // column push, and CHECK below sees exactly this snapshot, no matter
    // how many feedback batches publish while we compute.
    let snap = shared.live.pin();
    // `start` is taken after the fault hook so an injected delay counts
    // toward the deadline and can expire the job it hit, like any slow
    // worker.
    let start = Instant::now();
    // Per-request allocation delta (this worker thread's allocations
    // while the job runs); zero unless the binary installed the
    // tracking allocator.
    let alloc_scope = AllocScope::start();
    let mut event = query.event(meta);
    event.epoch = Some(snap.epoch);
    // Kept aside so a slow-ring admission can deep-clone the trace
    // without re-locking the trace store.
    let mut trace = None;
    let result = if start >= meta.deadline {
        Err(ServeError::DeadlineExceeded)
    } else {
        // Private handle: spans + trace stay request-scoped.
        let obs = ObsHandle::enabled();
        let run = match query {
            Query::Explain { user, wni, method } => {
                let run = run_explain(shared, &snap, user, wni, method, ws, &obs);
                if let Some(t) = obs.trace() {
                    event.mode = Some(t.mode.clone()).filter(|m| !m.is_empty());
                    let t = Arc::new(t);
                    shared.traces.lock().insert(meta.request_id, Arc::clone(&t));
                    trace = Some(t);
                }
                run
            }
            Query::Recommend { user, k } => run_recommend(shared, &snap, user, k, &obs),
        };
        event.stages = StageLatencies::from_spans(&obs.span_tree());
        event.ops = obs.counters();
        shared.obs.merge_counters(&event.ops);
        run.map(|(answer, session_hit, column_hit)| {
            event.session_cache_hit = Some(session_hit);
            event.column_cache_hit = column_hit;
            answer
        })
    };
    event.stages.total_alloc_bytes = alloc_scope.bytes();
    record_read(shared, meta, start, event, trace, result)
}

/// Records one dequeued read request, once, and returns its reply: the
/// outcome label and counters, the queue wait (from admission to
/// `start`) and service time (since `start`), the endpoint's window, the
/// stage histograms (explains a worker ran), the cost model, the slow
/// ring (requests pinned to an epoch) and the event line. `event` arrives
/// with the compute's fields set; `epoch` stays `None` for a request
/// that panicked.
fn record_read(
    shared: &Shared,
    meta: &JobMeta,
    start: Instant,
    mut event: RequestEvent,
    trace: Option<Arc<ExplainTrace>>,
    result: Result<Answer, ServeError>,
) -> Reply {
    let service = start.elapsed();
    let queue_us = start.duration_since(meta.admitted_at).as_micros() as u64;
    event.stages.queue_us = queue_us;
    event.stages.total_us = queue_us + service.as_micros() as u64;
    let m = &shared.metrics;
    event.outcome = match &result {
        Ok(Answer::Explain(Ok(explanation))) => {
            ServeMetrics::bump(&m.explanations_found);
            event.explanation_size = Some(explanation.size() as u64);
            "found"
        }
        Ok(Answer::Explain(Err(_))) => {
            ServeMetrics::bump(&m.explanations_failed);
            "failure"
        }
        Ok(Answer::Recommend(_)) => "ok",
        Err(e) => {
            match e {
                ServeError::InvalidQuestion(_) => ServeMetrics::bump(&m.invalid_questions),
                ServeError::DeadlineExceeded => ServeMetrics::bump(&m.rejected_deadline),
                ServeError::WorkerPanicked => ServeMetrics::bump(&m.worker_panics),
                ServeError::Overloaded | ServeError::ShuttingDown => {}
            }
            e.outcome()
        }
    }
    .to_owned();
    let endpoint = m.endpoint(meta.class);
    m.queue_wait.record_us(queue_us);
    endpoint.queue_wait.record_us(queue_us);
    endpoint.latency.record(service);
    endpoint
        .window
        .record(event.stages.total_us, result.is_err());
    if !matches!(
        result,
        Err(ServeError::DeadlineExceeded | ServeError::WorkerPanicked)
    ) {
        // Only a job that ran feeds the cost model (real service time,
        // queue wait excluded) and the stage histograms: an expired job
        // costs ~nothing and a panicked one stopped short.
        shared
            .queue
            .observe_cost(meta.class, service.as_micros() as u64);
        if let JobClass::Explain(_) = meta.class {
            m.record_stages(&event.stages);
        }
    }
    if let Some(epoch) = event.epoch {
        // `admits` first so the common fast request never deep-clones
        // its trace; both calls run under one lock acquisition.
        let mut ring = endpoint.slow.lock();
        event.slow = ring.admits(event.stages.total_us)
            && ring.offer(SlowEntry {
                request_id: event.request_id,
                endpoint: event.endpoint.clone(),
                outcome: event.outcome.clone(),
                user: event.user,
                wni: event.wni,
                method: event.method.clone(),
                mode: event.mode.clone(),
                total_us: event.stages.total_us,
                stages: event.stages,
                epoch,
                expected_cost_us: event.expected_cost_us,
                trace: trace.as_deref().cloned(),
            });
    }
    shared.events.emit(&event);
    // Count completion before replying: once a caller has its answer, the
    // metrics must already include that request.
    ServeMetrics::bump(&m.completed_total);
    // Every answer was computed on a pinned epoch.
    result.map(|answer| (answer, event.stages, event.epoch.unwrap_or_default()))
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

/// `PPR(·, item)` for each of `items`, in order, from the column cache;
/// the bool is each item's cache-hit flag. Epoch-keyed like [`artifacts`].
/// Every item is looked up before any is inserted, and the misses are
/// pushed by one [`ReversePush::compute_many`], counted and inserted in
/// item order. The caller must have validated every item (in bounds)
/// first.
fn columns(
    shared: &Shared,
    snap: &GraphEpoch,
    items: &[NodeId],
    obs: &ObsHandle,
) -> Vec<(Arc<ReversePush>, bool)> {
    let found: Vec<Option<Arc<ReversePush>>> = {
        let mut cache = shared.columns.lock();
        items
            .iter()
            .map(|&item| {
                let hit = cache.get_at(&item.0, snap.epoch)?;
                if column_valid(snap, item, &hit) {
                    return Some(hit);
                }
                // Quarantine: never serve a poisoned column — drop it and
                // push it again below as a miss.
                ServeMetrics::bump(&shared.metrics.cache_poison_detected);
                cache.remove(&item.0);
                None
            })
            .collect()
    };
    let misses: Vec<NodeId> = items
        .iter()
        .zip(&found)
        .filter(|(_, hit)| hit.is_none())
        .map(|(&item, _)| item)
        .collect();
    let mut pushed =
        ReversePush::compute_many(&*snap.kernel, &shared.cfg.rec.ppr, &misses).into_iter();
    items
        .iter()
        .zip(found)
        .map(|(&item, hit)| match hit {
            Some(col) => (col, true),
            None => {
                let col = pushed.next().expect("one push per miss");
                obs.count(Op::ReversePushes, col.pushes as u64);
                obs.add_mass(col.drained);
                let col = Arc::new(col);
                shared
                    .columns
                    .lock()
                    .insert_at(item.0, snap.epoch, Arc::clone(&col));
                (col, false)
            }
        })
        .collect()
}

fn run_explain(
    shared: &Shared,
    snap: &GraphEpoch,
    user: NodeId,
    wni: NodeId,
    method: Method,
    ws_slot: &mut PushWorkspace,
    obs: &ObsHandle,
) -> Result<(Answer, bool, Option<bool>), ServeError> {
    // The serving path assembles the context from cached artefacts, which
    // bypasses `ExplainContext::build`'s own context_build span — open the
    // equivalent stage span here so attribution covers cache misses too.
    let cb = obs.span("context_build");
    let (art, session_hit) =
        artifacts(shared, snap, user, obs).map_err(ServeError::InvalidQuestion)?;
    // Full question validation before paying for the columns.
    WhyNotQuestion::validate(&*snap.graph, &shared.cfg, user, wni, Some(art.rec))
        .map_err(ServeError::InvalidQuestion)?;
    // `rec`'s column and the Why-Not item's, looked up together and, on
    // misses, pushed together.
    let [(rec_col, rec_hit), (wni_col, wni_hit)]: [_; 2] =
        columns(shared, snap, &[art.rec, wni], obs)
            .try_into()
            .expect("one column per item");
    // Lend the worker's workspace to the context; take it back afterwards.
    let ws = std::mem::replace(ws_slot, PushWorkspace::new(0));
    match ExplainContext::from_artifacts(
        &*snap.graph,
        shared.cfg.clone(),
        &art,
        wni,
        [rec_col, wni_col],
        ws,
        obs.clone(),
    ) {
        Ok(ctx) => {
            drop(cb); // context stage ends where the search begins

            // Every other item column the search reads (Exhaustive
            // Comparison's targets) comes from the same epoch cache, in
            // one call; its misses push inside the search's own span.
            let ctx = ctx.with_column_source(|items| {
                columns(shared, snap, items, obs)
                    .into_iter()
                    .map(|(col, _)| col)
                    .collect()
            });
            let outcome = Explainer::explain_with_context(&ctx, method);
            *ws_slot = ctx.into_workspace();
            Ok((
                Answer::Explain(outcome),
                session_hit,
                Some(rec_hit && wni_hit),
            ))
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
) -> Result<(Answer, bool, Option<bool>), ServeError> {
    let cb = obs.span("context_build");
    let (art, session_hit) =
        artifacts(shared, snap, user, obs).map_err(ServeError::InvalidQuestion)?;
    drop(cb);
    let items = recommend_from_push(&*snap.graph, &shared.cfg, user, &art.user_push, k);
    Ok((Answer::Recommend(items), session_hit, None))
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

/// The configuration `emigre serve` (and every other `emigre` subcommand)
/// builds for a graph file: `item` nodes recommendable, `rated` edges
/// actionable, weighted transitions, ε = 1e-8. A reference that is to
/// match a served answer must be computed under this configuration.
pub fn config_for(g: &Hin) -> Result<EmigreConfig, String> {
    let item_t = g
        .registry()
        .find_node_type("item")
        .ok_or("graph has no `item` node type")?;
    let rated = g
        .registry()
        .find_edge_type("rated")
        .ok_or("graph has no `rated` edge type")?;
    let ppr = PprConfig::default()
        .with_transition(TransitionModel::Weighted)
        .with_epsilon(1e-8);
    Ok(EmigreConfig::new(
        RecConfig::new(item_t).with_ppr(ppr),
        rated,
    ))
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
