//! std-only HTTP/1.1 JSON front end over the [`ExplanationService`].
//!
//! No HTTP framework: the whole protocol surface this service needs is
//! request-line + headers + `Content-Length` framing, which `std::net`
//! covers. One thread per connection (keep-alive supported), a
//! non-blocking accept loop that polls the shutdown flag, and JSON bodies
//! via the workspace's serde.
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
use crate::metrics::{prometheus_text, FrontendStats};
use crate::parse::{HttpRequest, ParseError, RequestParser};
use crate::service::{ExplanationService, ServeError};
use emigre_core::{Explanation, Method};
use emigre_obs::StageLatencies;
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which connection layer multiplexes the sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontendMode {
    /// Readiness-driven reactor pool ([`crate::eventloop`]): all
    /// connections on a few threads, keep-alive, pipelining, write
    /// backpressure, idle reaping. The default on unix.
    EventLoop,
    /// One thread per connection (the pre-reactor design). The fallback
    /// on non-unix targets and an escape hatch via `--frontend threaded`.
    Threaded,
}

impl FrontendMode {
    pub fn parse(s: &str) -> Option<FrontendMode> {
        match s {
            "eventloop" | "event-loop" => Some(FrontendMode::EventLoop),
            "threaded" => Some(FrontendMode::Threaded),
            _ => None,
        }
    }

    fn default_for_target() -> FrontendMode {
        if cfg!(unix) {
            FrontendMode::EventLoop
        } else {
            FrontendMode::Threaded
        }
    }
}

/// Front-end knobs (`emigre serve` flags map onto these).
#[derive(Debug, Clone)]
pub struct HttpConfig {
    pub mode: FrontendMode,
    /// Reactor threads in event-loop mode (connections are sharded
    /// across them round-robin; reactor 0 also owns the listener).
    pub reactor_threads: usize,
    /// How long an idle keep-alive connection may sit before the server
    /// closes it. `Duration::ZERO` disables keep-alive entirely (every
    /// response carries `Connection: close`).
    pub keep_alive: Duration,
    /// Threads in the handler pool that run `route()` (which blocks on
    /// the service). `0` = auto: service workers + queue capacity,
    /// capped — enough that every admissible request reaches the QoS
    /// queue immediately, so scheduling happens there and not in a
    /// FIFO dispatch channel.
    pub handler_threads: usize,
    /// Per-connection write-buffer cap; a slower reader than writer gets
    /// its socket read interest parked until the buffer drains.
    pub write_backpressure: usize,
    /// Max requests a single connection may have in flight at once
    /// (pipelining depth); further pipelined requests wait in the
    /// connection's parser buffer.
    pub pipeline_depth: usize,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            mode: FrontendMode::default_for_target(),
            reactor_threads: 1,
            keep_alive: Duration::from_secs(30),
            handler_threads: 0,
            write_backpressure: 256 * 1024,
            pipeline_depth: 32,
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

    /// A flag that stops the accept loop when set — the programmatic
    /// equivalent of `POST /shutdown`.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Serves until `POST /shutdown` (or the shutdown flag). On exit the
    /// underlying service drains every admitted request before this
    /// returns — a SIGTERM-style graceful stop.
    pub fn run(self) -> io::Result<()> {
        #[cfg(unix)]
        if self.config.mode == FrontendMode::EventLoop {
            let HttpServer {
                service,
                listener,
                shutdown,
                config,
            } = self;
            let result = crate::eventloop::run(listener, Arc::clone(&service), shutdown, config);
            service.shutdown();
            return result;
        }
        self.run_threaded()
    }

    /// The thread-per-connection loop (fallback mode).
    fn run_threaded(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let stats = self.service.frontend_stats();
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    stream.set_nonblocking(false)?;
                    stats.on_accept();
                    let service = Arc::clone(&self.service);
                    let shutdown = Arc::clone(&self.shutdown);
                    let stats = Arc::clone(&stats);
                    let keep_alive = self.config.keep_alive;
                    conns.push(std::thread::spawn(move || {
                        handle_connection(stream, service, shutdown, &stats, keep_alive);
                        stats.on_close();
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            conns.retain(|h| !h.is_finished());
        }
        // Drain: answer everything admitted, reject the rest, then stop.
        self.service.shutdown();
        for c in conns {
            let _ = c.join();
        }
        Ok(())
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

enum ReadOutcome {
    Request(HttpRequest),
    /// Peer closed, or the connection idled past the keep-alive budget.
    Closed,
    /// Framing violation: answer 400/431, then close.
    Malformed(ParseError),
}

/// Reads until the parser yields one request. Blocking-socket variant of
/// the event loop's feed-and-drain; the 250ms read timeout doubles as
/// the shutdown-flag poll and the idle clock.
fn read_request(
    stream: &mut TcpStream,
    parser: &mut RequestParser,
    shutdown: &AtomicBool,
    keep_alive: Duration,
) -> io::Result<ReadOutcome> {
    let mut chunk = [0u8; 4096];
    let mut idle = Duration::ZERO;
    loop {
        match parser.next_request() {
            Ok(Some(req)) => return Ok(ReadOutcome::Request(req)),
            Ok(None) => {}
            Err(e) => return Ok(ReadOutcome::Malformed(e)),
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(ReadOutcome::Closed),
            Ok(n) => parser.feed(&chunk[..n]),
            Err(e) if is_timeout(&e) => {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(ReadOutcome::Closed);
                }
                if !parser.mid_request() {
                    // Between requests: enforce the idle budget.
                    idle += Duration::from_millis(250);
                    if !keep_alive.is_zero() && idle >= keep_alive {
                        return Ok(ReadOutcome::Closed);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn handle_connection(
    mut stream: TcpStream,
    service: Arc<ExplanationService>,
    shutdown: Arc<AtomicBool>,
    stats: &FrontendStats,
    keep_alive: Duration,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut parser = RequestParser::new();
    let mut served = 0u64;
    loop {
        match read_request(&mut stream, &mut parser, &shutdown, keep_alive) {
            Ok(ReadOutcome::Request(req)) => {
                if served > 0 {
                    stats.keepalive_reuses.fetch_add(1, Ordering::Relaxed);
                }
                served += 1;
                let keep = req.keep_alive && !keep_alive.is_zero();
                let (status, content_type, body) = route(&service, &shutdown, &req);
                if write_response(&mut stream, status, content_type, &body, keep).is_err() || !keep
                {
                    return;
                }
            }
            Ok(ReadOutcome::Malformed(e)) => {
                // Answer the framing violation before closing — never
                // drop the connection silently.
                stats.parse_errors.fetch_add(1, Ordering::Relaxed);
                let (status, body) = parse_error_response(&e);
                let _ = write_response(&mut stream, status, JSON, &body, false);
                return;
            }
            Ok(ReadOutcome::Closed) | Err(_) => return,
        }
    }
}

/// The JSON error answer for a framing violation (shared by both front
/// ends): status 400 (malformed) or 431 (oversized head).
pub(crate) fn parse_error_response(e: &ParseError) -> (u16, String) {
    (e.status(), json_error(e.label(), e.detail()))
}

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

fn serve_error_response(e: ServeError, request_id: Option<u64>) -> (u16, &'static str, String) {
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

pub(crate) fn route(
    service: &ExplanationService,
    shutdown: &AtomicBool,
    req: &HttpRequest,
) -> (u16, &'static str, String) {
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
        ("POST", "/explain") => handle_explain(service, &req.body),
        ("POST", "/recommend") => handle_recommend(service, &req.body),
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
fn handle_trace(service: &ExplanationService, id_str: &str) -> (u16, &'static str, String) {
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

fn handle_explain(service: &ExplanationService, body: &[u8]) -> (u16, &'static str, String) {
    let req: ExplainBody = match parse_body(body) {
        Ok(r) => r,
        Err(e) => return (400, JSON, json_error("bad_request", e)),
    };
    let method = match req.method.as_deref() {
        None => Method::AddPowerset,
        Some(label) => match Method::from_label(label) {
            Some(m) => m,
            None => {
                return (
                    400,
                    JSON,
                    json_error("bad_request", format!("unknown method {label:?}")),
                )
            }
        },
    };
    let deadline = req
        .deadline_ms
        .map(Duration::from_millis)
        .unwrap_or(service.default_deadline());
    let (request_id, result) = service.explain_request(
        emigre_hin::NodeId(req.user),
        emigre_hin::NodeId(req.why_not),
        method,
        deadline,
    );
    match result {
        Ok(resp) => match resp.outcome {
            Ok(explanation) => (
                200,
                JSON,
                serde_json::to_string(&ExplainOkBody {
                    status: "ok".to_owned(),
                    request_id,
                    explanation,
                    stages: resp.stages,
                    epoch: resp.epoch,
                })
                .unwrap_or_else(|e| json_error("internal", e.to_string())),
            ),
            Err(failure) => (
                200,
                JSON,
                serde_json::to_string(&ExplainFailureBody {
                    status: "failure".to_owned(),
                    request_id,
                    failure,
                    stages: resp.stages,
                    epoch: resp.epoch,
                })
                .unwrap_or_else(|e| json_error("internal", e.to_string())),
            ),
        },
        Err(e) => serve_error_response(e, Some(request_id)),
    }
}

fn handle_feedback(service: &ExplanationService, body: &[u8]) -> (u16, &'static str, String) {
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

fn handle_recommend(service: &ExplanationService, body: &[u8]) -> (u16, &'static str, String) {
    let req: RecommendBody = match parse_body(body) {
        Ok(r) => r,
        Err(e) => return (400, JSON, json_error("bad_request", e)),
    };
    let k = req.k.unwrap_or(10) as usize;
    let deadline = req
        .deadline_ms
        .map(Duration::from_millis)
        .unwrap_or(service.default_deadline());
    let (request_id, result) = service.recommend_request(emigre_hin::NodeId(req.user), k, deadline);
    match result {
        Ok(resp) => (
            200,
            JSON,
            serde_json::to_string(&RecommendOkBody {
                status: "ok".to_owned(),
                request_id,
                items: resp
                    .items
                    .into_iter()
                    .map(|(n, s)| ItemScore {
                        item: n.0,
                        score: s,
                    })
                    .collect(),
                stages: resp.stages,
                epoch: resp.epoch,
            })
            .unwrap_or_else(|e| json_error("internal", e.to_string())),
        ),
        Err(e) => serve_error_response(e, Some(request_id)),
    }
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

/// Serializes one complete response (head + body) into a byte buffer.
/// The event loop appends this to a connection's write buffer; the
/// threaded path writes it straight to the socket.
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

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    stream.write_all(&render_response(status, content_type, body, keep_alive))?;
    stream.flush()
}
