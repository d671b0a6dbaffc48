//! # emigre-serve — concurrent Why-Not explanation serving
//!
//! Two layers over one shared read-only graph:
//!
//! 1. [`ExplanationService`] — an in-process worker pool with a bounded
//!    admission queue, per-request deadlines, an LRU **session cache** of
//!    per-user artefacts (forward push, recommendation list, `PPR(·,rec)`
//!    column, candidate index) and an LRU **column cache** of reverse-push
//!    `PPR(·,item)` columns. Graceful shutdown drains every admitted
//!    request.
//! 2. [`HttpServer`] — a std-only HTTP/1.1 JSON front end (`POST
//!    /explain`, `POST /recommend`, `POST /feedback`, `GET /healthz`,
//!    `GET /metrics`, `POST /shutdown`).
//!
//! The graph is **live**: [`LiveGraph`] publishes epoch-versioned
//! snapshots, feedback edge events build a new epoch off the serving
//! path, and every read request pins one epoch for its whole lifetime —
//! an explanation's CHECKs all see a single consistent graph.
//!
//! Served answers are identical to the single-threaded
//! [`emigre_core::ExplainContext::build`] path *on the pinned epoch's
//! graph* — see [`service`]'s determinism notes and the `concurrency`
//! test. The [`reference_explain`]/[`reference_recommend`] functions are
//! that single-threaded oracle, used by the load generator's divergence
//! check.

pub mod cache;
#[cfg(unix)]
pub mod eventloop;
pub mod events;
pub mod fault;
pub mod http;
pub mod live;
pub mod metrics;
pub mod parse;
pub mod sched;
pub mod service;
pub mod slow;

pub use cache::{CacheStats, EpochCache, LruCache};
pub use events::{EventLogStats, EventLogger, RequestEvent};
pub use fault::{FaultHandle, FaultHooks, FaultPlan, FaultRelease, UpdatePhase, FAULT_PANIC};
pub use http::{HttpConfig, HttpServer};
pub use live::{
    events_to_delta, FeedbackError, FeedbackEvent, FeedbackOutcome, GraphEpoch, LiveGraph,
};
pub use metrics::{
    prometheus_text, FrontendSnapshot, FrontendStats, MetricsSnapshot, ServeMetrics, ServiceOwned,
    WindowsSnapshot,
};
pub use parse::{HttpRequest, ParseError, RequestParser};
pub use sched::{AdmissionQueue, AdmitError, CostClassSnapshot, JobClass, JobMeta, SchedSnapshot};
pub use service::{
    config_for, recommend_from_push, reference_explain, reference_recommend, ExplainOutcome,
    ExplainResponse, ExplanationService, RecommendOutcome, RecommendResponse, ServeError,
    ServiceConfig, WorkerStallGuard,
};
pub use slow::{SlowEntry, SlowRing, SlowSnapshot};
