//! std-only HTTP/1.1 JSON front end over the [`ExplanationService`].
//!
//! No HTTP framework: the whole protocol surface this service needs is
//! request-line + headers + `Content-Length` framing, which `std::net`
//! covers. Connections are multiplexed by the event loop
//! ([`crate::eventloop`]: keep-alive, pipelining, write backpressure), so
//! serving needs a unix target; this module routes parsed requests and
//! renders JSON bodies via the workspace's serde. The reactor turns each
//! read (`POST /explain`, `POST /recommend`) into a query it submits to the
//! admission queue without blocking (`read_query`), and the worker that
//! runs it renders the reply (`read_response`); every other route runs on
//! the event loop's control thread (`route`).
//!
//! ## Endpoints
//!
//! | route              | body                                                        |
//! |--------------------|-------------------------------------------------------------|
//! | `POST /explain`    | `{"user":N,"why_not":N,"method":"...","deadline_ms":N}`     |
//! | `POST /recommend`  | `{"user":N,"k":N,"deadline_ms":N}`                          |
//! | `POST /feedback`   | `{"events":[{"op":"add","src":N,"dst":N,"etype":"..."}]}`   |
//! | `GET  /healthz`    | — (build/version info, worker count, uptime, heap/graph bytes) |
//! | `GET  /metrics`    | — (JSON; `?format=prometheus` for text exposition)          |
//! | `GET  /trace/<id>` | — (replayable `ExplainTrace` of a recent request)           |
//! | `GET  /debug/slow` | — (slowest-N requests per endpoint, with traces)            |
//! | `POST /shutdown`   | — (SIGTERM equivalent: drain in-flight requests, then exit) |
//!
//! `method`, `k`, and `deadline_ms` are optional. Service rejections map
//! to status codes: 400 invalid question, 429 overloaded, 503 shutting
//! down, 504 deadline exceeded. Every `/explain` and `/recommend`
//! response — success or rejection — carries the `request_id` assigned at
//! admission; successful ones also carry per-stage latency attribution
//! and the graph `epoch` they were served from. `/feedback` applies edge
//! add/remove events atomically as one new epoch and answers with the
//! epoch it published (400 on validation failure, 500 if the update
//! worker panicked — the previous epoch stays current either way).

use crate::live::{FeedbackError, FeedbackEvent};
use crate::metrics::prometheus_text;
use crate::parse::{HttpRequest, ParseError};
use crate::service::{Answer, ExplanationService, Query, Reply, ServeError};
use emigre_core::{Explanation, Method};
use emigre_hin::NodeId;
use emigre_obs::StageLatencies;
use serde::{Deserialize, Serialize};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Front-end knobs (`emigre serve` flags map onto these). The pipelining
/// depth and write backpressure are fixed; see [`crate::eventloop`].
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// How long an idle keep-alive connection may sit before the server
    /// closes it. `Duration::ZERO` disables keep-alive entirely (every
    /// response carries `Connection: close`).
    pub keep_alive: Duration,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            keep_alive: Duration::from_secs(30),
        }
    }
}

#[derive(Deserialize)]
struct ExplainBody {
    user: u32,
    why_not: u32,
    method: Option<String>,
    deadline_ms: Option<u64>,
}

#[derive(Deserialize)]
struct RecommendBody {
    user: u32,
    k: Option<u64>,
    deadline_ms: Option<u64>,
}

#[derive(Deserialize)]
struct FeedbackBody {
    events: Vec<FeedbackEvent>,
}

#[derive(Serialize)]
struct FeedbackOkBody {
    status: String,
    request_id: u64,
    /// The epoch this batch published; all subsequent reads see it.
    epoch: u64,
    edges_changed: u64,
}

#[derive(Serialize)]
struct StatusBody {
    status: String,
}

#[derive(Serialize)]
struct HealthBody {
    status: String,
    version: String,
    git_hash: String,
    workers: u64,
    uptime_secs: u64,
    /// Live heap bytes (tracking allocator; 0 unless installed).
    heap_live_bytes: u64,
    /// High-water heap mark (tracking allocator; 0 unless installed).
    heap_peak_bytes: u64,
    /// Structural footprint of the current epoch's graph + CSR kernel.
    graph_bytes: u64,
}

#[derive(Serialize)]
struct ErrorBody {
    error: String,
    detail: String,
    request_id: Option<u64>,
}

#[derive(Serialize)]
struct ExplainOkBody {
    status: String,
    request_id: u64,
    explanation: Explanation,
    stages: StageLatencies,
    /// The graph epoch the request was pinned to.
    epoch: u64,
}

#[derive(Serialize)]
struct ExplainFailureBody {
    status: String,
    request_id: u64,
    failure: emigre_core::ExplainFailure,
    stages: StageLatencies,
    /// The graph epoch the request was pinned to.
    epoch: u64,
}

#[derive(Serialize)]
struct ItemScore {
    item: u32,
    score: f64,
}

#[derive(Serialize)]
struct RecommendOkBody {
    status: String,
    request_id: u64,
    items: Vec<ItemScore>,
    stages: StageLatencies,
    /// The graph epoch the request was pinned to.
    epoch: u64,
}

/// A bound, not-yet-running HTTP server.
pub struct HttpServer {
    service: Arc<ExplanationService>,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    config: HttpConfig,
}

impl HttpServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) with the
    /// default front-end configuration.
    pub fn bind(service: Arc<ExplanationService>, addr: &str) -> io::Result<Self> {
        Self::bind_with(service, addr, HttpConfig::default())
    }

    /// Binds `addr` with an explicit front-end configuration.
    pub fn bind_with(
        service: Arc<ExplanationService>,
        addr: &str,
        config: HttpConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(HttpServer {
            service,
            listener,
            shutdown: Arc::new(AtomicBool::new(false)),
            config,
        })
    }

    /// The bound address (read the ephemeral port here).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until `POST /shutdown`, with the event loop's reactor on the
    /// calling thread. On exit the underlying service drains every admitted
    /// request before this returns — a SIGTERM-style graceful stop. The
    /// event loop needs a unix target; elsewhere this returns
    /// [`io::ErrorKind::Unsupported`].
    pub fn run(self) -> io::Result<()> {
        #[cfg(unix)]
        {
            let HttpServer {
                service,
                listener,
                shutdown,
                config,
            } = self;
            let result = crate::eventloop::run(listener, Arc::clone(&service), shutdown, config);
            service.shutdown();
            result
        }
        #[cfg(not(unix))]
        {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the HTTP front end needs a unix target",
            ))
        }
    }
}

/// The JSON error answer for a framing violation: status 400 (malformed)
/// or 431 (oversized head).
pub(crate) fn parse_error_response(e: &ParseError) -> (u16, String) {
    (e.status(), json_error(e.label(), e.detail()))
}

/// A rendered answer: status, content type and body.
pub(crate) type Response = (u16, &'static str, String);

pub(crate) const JSON: &str = "application/json";
/// Prometheus text exposition content type (format version 0.0.4).
const PROM_TEXT: &str = "text/plain; version=0.0.4; charset=utf-8";

pub(crate) fn json_error(error: &str, detail: impl Into<String>) -> String {
    json_error_id(error, detail, None)
}

fn json_error_id(error: &str, detail: impl Into<String>, request_id: Option<u64>) -> String {
    serde_json::to_string(&ErrorBody {
        error: error.to_owned(),
        detail: detail.into(),
        request_id,
    })
    .unwrap_or_else(|_| format!("{{\"error\":\"{error}\"}}"))
}

fn serve_error_response(e: ServeError, request_id: Option<u64>) -> Response {
    let (status, label) = match &e {
        ServeError::Overloaded => (429, "overloaded"),
        ServeError::DeadlineExceeded => (504, "deadline_exceeded"),
        ServeError::ShuttingDown => (503, "shutting_down"),
        ServeError::InvalidQuestion(_) => (400, "invalid_question"),
        ServeError::WorkerPanicked => (500, "worker_panic"),
    };
    (
        status,
        JSON,
        json_error_id(label, e.to_string(), request_id),
    )
}

/// Answers every route but the two reads, which [`read_query`] takes.
pub(crate) fn route(
    service: &ExplanationService,
    shutdown: &AtomicBool,
    req: &HttpRequest,
) -> Response {
    // Split off the query string; only /metrics interprets one today.
    let (path, query) = match req.path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (req.path.as_str(), ""),
    };
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => {
            let heap = emigre_obs::heap_stats();
            (
                200,
                JSON,
                serde_json::to_string(&HealthBody {
                    status: "ok".to_owned(),
                    version: env!("CARGO_PKG_VERSION").to_owned(),
                    git_hash: option_env!("EMIGRE_GIT_HASH")
                        .unwrap_or("unknown")
                        .to_owned(),
                    workers: service.workers() as u64,
                    uptime_secs: service.uptime().as_secs(),
                    heap_live_bytes: heap.live_bytes,
                    heap_peak_bytes: heap.peak_bytes,
                    graph_bytes: service.graph_bytes(),
                })
                .unwrap(),
            )
        }
        ("GET", "/metrics") => {
            let snap = service.metrics();
            if query.split('&').any(|kv| kv == "format=prometheus") {
                return (200, PROM_TEXT, prometheus_text(&snap));
            }
            match serde_json::to_string(&snap) {
                Ok(body) => (200, JSON, body),
                Err(e) => (500, JSON, json_error("internal", e.to_string())),
            }
        }
        ("GET", p) if p.starts_with("/trace/") => handle_trace(service, &p["/trace/".len()..]),
        ("GET", "/debug/slow") => match serde_json::to_string(&service.debug_slow()) {
            Ok(body) => (200, JSON, body),
            Err(e) => (500, JSON, json_error("internal", e.to_string())),
        },
        ("POST", "/shutdown") => {
            shutdown.store(true, Ordering::SeqCst);
            (
                200,
                JSON,
                serde_json::to_string(&StatusBody {
                    status: "draining".to_owned(),
                })
                .unwrap(),
            )
        }
        ("POST", "/feedback") => handle_feedback(service, &req.body),
        ("POST", "/healthz" | "/metrics" | "/debug/slow")
        | ("GET", "/explain" | "/recommend" | "/feedback" | "/shutdown") => (
            405,
            JSON,
            json_error("method_not_allowed", req.method.clone()),
        ),
        _ => (404, JSON, json_error("not_found", req.path.clone())),
    }
}

/// `GET /trace/<request-id>`: the stored [`emigre_obs::ExplainTrace`] of a
/// recent explain request, replayable offline. 404 once evicted from the
/// bounded store (or for ids that never ran an explain).
fn handle_trace(service: &ExplanationService, id_str: &str) -> Response {
    let Ok(id) = id_str.parse::<u64>() else {
        return (
            400,
            JSON,
            json_error("bad_request", format!("invalid request id {id_str:?}")),
        );
    };
    match service.trace(id) {
        Some(trace) => match serde_json::to_string(&*trace) {
            Ok(body) => (200, JSON, body),
            Err(e) => (500, JSON, json_error("internal", e.to_string())),
        },
        None => (
            404,
            JSON,
            json_error(
                "trace_not_found",
                format!("no stored trace for request {id} (expired or never traced)"),
            ),
        ),
    }
}

fn parse_body<T: serde::Deserialize>(body: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

fn handle_feedback(service: &ExplanationService, body: &[u8]) -> Response {
    let req: FeedbackBody = match parse_body(body) {
        Ok(r) => r,
        Err(e) => return (400, JSON, json_error("bad_request", e)),
    };
    let (request_id, result) = service.apply_feedback(&req.events);
    match result {
        Ok(out) => (
            200,
            JSON,
            serde_json::to_string(&FeedbackOkBody {
                status: "ok".to_owned(),
                request_id,
                epoch: out.epoch,
                edges_changed: out.edges_changed as u64,
            })
            .unwrap_or_else(|e| json_error("internal", e.to_string())),
        ),
        Err(e) => {
            let status = match &e {
                FeedbackError::UpdatePanicked => 500,
                _ => 400,
            };
            let label = match &e {
                FeedbackError::UpdatePanicked => "update_panic",
                _ => "feedback_rejected",
            };
            (
                status,
                JSON,
                json_error_id(label, e.to_string(), Some(request_id)),
            )
        }
    }
}

/// The query and deadline of a read (`POST /explain`, `POST /recommend`),
/// the 400 answer to a read whose body does not parse, or `None` for every
/// other request.
pub(crate) fn read_query(
    service: &ExplanationService,
    req: &HttpRequest,
) -> Option<Result<(Query, Duration), Response>> {
    let path = req
        .path
        .split_once('?')
        .map_or(req.path.as_str(), |(p, _)| p);
    let parsed = match (req.method.as_str(), path) {
        ("POST", "/explain") => explain_query(&req.body),
        ("POST", "/recommend") => parse_body(&req.body).map(|b: RecommendBody| {
            let k = b.k.unwrap_or(10) as usize;
            (
                Query::Recommend {
                    user: NodeId(b.user),
                    k,
                },
                b.deadline_ms,
            )
        }),
        _ => return None,
    };
    Some(match parsed {
        Ok((query, deadline_ms)) => Ok((
            query,
            deadline_ms
                .map(Duration::from_millis)
                .unwrap_or(service.default_deadline()),
        )),
        Err(e) => Err((400, JSON, json_error("bad_request", e))),
    })
}

fn explain_query(body: &[u8]) -> Result<(Query, Option<u64>), String> {
    let b: ExplainBody = parse_body(body)?;
    let method = match b.method.as_deref() {
        None => Method::AddPowerset,
        Some(label) => {
            Method::from_label(label).ok_or_else(|| format!("unknown method {label:?}"))?
        }
    };
    let query = Query::Explain {
        user: NodeId(b.user),
        wni: NodeId(b.why_not),
        method,
    };
    Ok((query, b.deadline_ms))
}

/// The HTTP answer to a read's reply: the explanation, the meta-explained
/// failure or the list, or the status a rejection maps to.
pub(crate) fn read_response(request_id: u64, reply: Reply) -> Response {
    let body = match reply {
        Ok((Answer::Explain(Ok(explanation)), stages, epoch)) => {
            serde_json::to_string(&ExplainOkBody {
                status: "ok".to_owned(),
                request_id,
                explanation,
                stages,
                epoch,
            })
        }
        Ok((Answer::Explain(Err(failure)), stages, epoch)) => {
            serde_json::to_string(&ExplainFailureBody {
                status: "failure".to_owned(),
                request_id,
                failure,
                stages,
                epoch,
            })
        }
        Ok((Answer::Recommend(items), stages, epoch)) => serde_json::to_string(&RecommendOkBody {
            status: "ok".to_owned(),
            request_id,
            items: items
                .into_iter()
                .map(|(n, s)| ItemScore {
                    item: n.0,
                    score: s,
                })
                .collect(),
            stages,
            epoch,
        }),
        Err(e) => return serve_error_response(e, Some(request_id)),
    };
    (
        200,
        JSON,
        body.unwrap_or_else(|e| json_error("internal", e.to_string())),
    )
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Serializes one complete response (head + body) into a byte buffer,
/// which the event loop appends to a connection's write buffer.
pub(crate) fn render_response(
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        status_reason(status),
        body.len(),
    );
    let mut out = Vec::with_capacity(head.len() + body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body.as_bytes());
    out
}
