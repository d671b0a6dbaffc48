//! `loadgen` — closed-loop load generator for `emigre serve`.
//!
//! Spawns the real `emigre` binary (`serve` subcommand) on a synthetic
//! Amazon-style HIN, drives it with mixed `/explain` + `/recommend`
//! traffic over persistent HTTP/1.1 connections, and verifies **every**
//! response field-by-field against the single-threaded reference oracle
//! ([`emigre_serve::reference_explain`] /
//! [`emigre_serve::reference_recommend`]) — a divergence is a hard
//! failure, not a statistic. Every response must also carry the
//! `request_id` assigned at admission and per-stage latency attribution.
//!
//! In `--smoke` mode the harness additionally:
//!
//! * fetches `GET /trace/<request-id>` for every explain answer and
//!   **replays** the recorded TEST verdicts on a fresh single-threaded
//!   context — the served trace must reproduce the served verdicts;
//! * runs the server with `--event-log` and, after the drain, asserts
//!   the log parses line-by-line as JSON with exactly one event per
//!   request (zero lost events).
//!
//! Reports QPS, p50/p95/p99 latency per endpoint, and the server's
//! per-stage (queue/context/search/test) percentiles; writes
//! `BENCH_serve.json`.
//!
//! **Open-loop mode** (`--arrival-rate` / `--arrival-sweep`): after the
//! main closed-loop measurement, a fresh server is spawned and driven at
//! fixed offered rates — requests are *pipelined* onto each connection
//! at their scheduled arrival instants regardless of when earlier
//! answers come back, and latency is measured from the scheduled
//! arrival (so a sender that falls behind still charges the queueing
//! delay — no coordinated omission). Rejections (429/503/504) are
//! counted per point, not treated as divergences; every accepted answer
//! is still verified field-by-field. The resulting saturation curve
//! (offered QPS vs p50/p99 + rejection rate) lands in `open_loop` in
//! the JSON report.
//!
//! ```text
//! loadgen --smoke                       # CI: one verified pass + clean shutdown
//! loadgen --duration-secs 10 --threads 4 --items 300
//! loadgen --duration-secs 6 --arrival-sweep 50,100,200,400
//! ```
//!
//! The server binary is found next to the running executable
//! (`target/<profile>/emigre`), or via `--server-bin` / `$EMIGRE_BIN`.

use emigre_core::explanation::Action;
use emigre_core::tester::Tester;
use emigre_core::{EmigreConfig, ExplainContext, ExplainFailure, Explanation, QuestionError};
use emigre_hin::{GraphView, Hin, NodeId};
use emigre_obs::{ExplainTrace, HistogramSnapshot, StageLatencies};
use emigre_ppr::{PprConfig, TransitionModel};
use emigre_rec::RecConfig;
use emigre_serve::{
    events_to_delta, reference_explain, reference_recommend, FeedbackEvent, MetricsSnapshot,
    RequestEvent,
};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => {}
        Err(msg) => {
            eprintln!("loadgen error: {msg}");
            std::process::exit(1);
        }
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .filter(|v| !v.starts_with("--"))
        .cloned()
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| format!("bad {name}: {raw:?}")),
    }
}

/// Mirrors the CLI's `config_for`: `item` nodes recommendable, `rated`
/// edges actionable, weighted transitions, ε = 1e-8. The reference oracle
/// MUST use this (not `AmazonHin::emigre_config`) because it is what
/// `emigre serve` builds for the same graph file.
fn serve_config(g: &Hin) -> Result<EmigreConfig, String> {
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

// ---------------------------------------------------------------------------
// Request plan: precomputed (request, expected response) pairs.
// ---------------------------------------------------------------------------

/// Wire-format mirror of the server's `/explain` response bodies (success,
/// failure, and error shapes overlaid — absent fields parse to `None`).
/// Telemetry fields the reference cannot predict (`request_id`, `stages`)
/// are checked for presence and shape, payload fields for equality.
#[derive(Deserialize)]
struct WireExplain {
    status: Option<String>,
    request_id: Option<u64>,
    explanation: Option<Explanation>,
    failure: Option<ExplainFailure>,
    stages: Option<StageLatencies>,
    error: Option<String>,
}

#[derive(Deserialize)]
struct WireItem {
    item: u32,
    score: f64,
}

/// Wire-format mirror of the `/recommend` response body.
#[derive(Deserialize)]
struct WireRecommend {
    status: Option<String>,
    request_id: Option<u64>,
    items: Option<Vec<WireItem>>,
    stages: Option<StageLatencies>,
}

/// What the reference oracle says a planned request must answer.
#[derive(Clone)]
enum Expected {
    ExplainOk(Explanation),
    ExplainFailure(ExplainFailure),
    InvalidQuestion,
    Recommend(Vec<(u32, f64)>),
}

#[derive(Clone, Copy, PartialEq)]
enum Endpoint {
    Explain,
    Recommend,
}

/// The semantic content of a planned request — what the deferred
/// (epoch-pinned) verifier needs to recompute the reference answer on
/// whichever graph epoch the server reports it served from.
#[derive(Clone, Copy)]
enum RequestSpec {
    Explain {
        user: NodeId,
        wni: NodeId,
        method: emigre_core::Method,
    },
    Recommend {
        user: NodeId,
        k: usize,
    },
}

#[derive(Clone)]
struct PlannedRequest {
    endpoint: Endpoint,
    path: &'static str,
    body: String,
    spec: RequestSpec,
    expected_status: u16,
    expected: Expected,
}

fn expected_explain(
    outcome: Result<Result<Explanation, ExplainFailure>, QuestionError>,
) -> (u16, Expected) {
    match outcome {
        Ok(Ok(explanation)) => (200, Expected::ExplainOk(explanation)),
        Ok(Err(failure)) => (200, Expected::ExplainFailure(failure)),
        Err(_) => (400, Expected::InvalidQuestion),
    }
}

/// Builds the verified request mix: for every sampled user one
/// `/recommend` plus why-not questions over the head of their list,
/// alternating a cheap remove method with the paper's default add method.
fn build_plan(graph: &Hin, cfg: &EmigreConfig, users: &[NodeId], k: usize) -> Vec<PlannedRequest> {
    let mut plan = Vec::new();
    for &user in users {
        let rec = match reference_recommend(graph, cfg, user, k) {
            Ok(items) => items,
            Err(_) => continue, // inactive user: nothing servable either
        };
        plan.push(PlannedRequest {
            endpoint: Endpoint::Recommend,
            path: "/recommend",
            body: format!("{{\"user\":{},\"k\":{}}}", user.0, k),
            spec: RequestSpec::Recommend { user, k },
            expected_status: 200,
            expected: Expected::Recommend(rec.iter().map(|&(n, s)| (n.0, s)).collect()),
        });
        for (i, &(wni, _)) in rec.iter().skip(1).take(2).enumerate() {
            let method = if i % 2 == 0 {
                emigre_core::Method::RemoveIncremental
            } else {
                emigre_core::Method::AddPowerset
            };
            let (expected_status, expected) =
                expected_explain(reference_explain(graph, cfg, user, wni, method));
            plan.push(PlannedRequest {
                endpoint: Endpoint::Explain,
                path: "/explain",
                body: format!(
                    "{{\"user\":{},\"why_not\":{},\"method\":\"{}\"}}",
                    user.0,
                    wni.0,
                    method.label()
                ),
                spec: RequestSpec::Explain { user, wni, method },
                expected_status,
                expected,
            });
        }
    }
    plan
}

/// Field-level verification of one response against its plan entry.
/// Returns the server-assigned request id on success, a divergence
/// description on any mismatch.
fn verify_response(req: &PlannedRequest, status: u16, body: &str) -> Result<u64, String> {
    if status != req.expected_status {
        return Err(format!(
            "status {status} (expected {}): {body:.200}",
            req.expected_status
        ));
    }
    let require_id = |id: Option<u64>| -> Result<u64, String> {
        match id {
            Some(id) if id >= 1 => Ok(id),
            other => Err(format!("missing request_id ({other:?}): {body:.200}")),
        }
    };
    match &req.expected {
        Expected::Recommend(expected_items) => {
            let w: WireRecommend = serde_json::from_str(body)
                .map_err(|e| format!("unparseable recommend body: {e} ({body:.200})"))?;
            if w.status.as_deref() != Some("ok") {
                return Err(format!("status field {:?}, expected \"ok\"", w.status));
            }
            let got: Vec<(u32, f64)> = w
                .items
                .unwrap_or_default()
                .iter()
                .map(|i| (i.item, i.score))
                .collect();
            if &got != expected_items {
                return Err(format!(
                    "items diverge: got {got:?}, expected {expected_items:?}"
                ));
            }
            if w.stages.is_none() {
                return Err(format!("missing stages: {body:.200}"));
            }
            require_id(w.request_id)
        }
        expected => {
            let w: WireExplain = serde_json::from_str(body)
                .map_err(|e| format!("unparseable explain body: {e} ({body:.200})"))?;
            match expected {
                Expected::ExplainOk(exp) => {
                    if w.status.as_deref() != Some("ok") {
                        return Err(format!("status field {:?}, expected \"ok\"", w.status));
                    }
                    if w.explanation.as_ref() != Some(exp) {
                        return Err(format!("explanation diverges: {body:.200}"));
                    }
                    if w.stages.is_none() {
                        return Err(format!("missing stages: {body:.200}"));
                    }
                    require_id(w.request_id)
                }
                Expected::ExplainFailure(f) => {
                    if w.status.as_deref() != Some("failure") {
                        return Err(format!("status field {:?}, expected \"failure\"", w.status));
                    }
                    if w.failure.as_ref() != Some(f) {
                        return Err(format!("failure diverges: {body:.200}"));
                    }
                    if w.stages.is_none() {
                        return Err(format!("missing stages: {body:.200}"));
                    }
                    require_id(w.request_id)
                }
                Expected::InvalidQuestion => {
                    if w.error.as_deref() != Some("invalid_question") {
                        return Err(format!(
                            "error field {:?}, expected \"invalid_question\"",
                            w.error
                        ));
                    }
                    require_id(w.request_id)
                }
                Expected::Recommend(_) => unreachable!("matched above"),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Mixed read/write mode (`--feedback-rate`): a dedicated writer publishes
// epochs through `POST /feedback` while readers run, and every read is
// verified *afterwards* against the reference on the epoch it reports.
// ---------------------------------------------------------------------------

/// Deterministic xorshift64* — `rand` is not available to this binary.
struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[derive(Serialize)]
struct FeedbackWire {
    events: Vec<FeedbackEvent>,
}

#[derive(Deserialize)]
struct WireFeedback {
    status: Option<String>,
    epoch: Option<u64>,
}

/// Any read response's epoch field, regardless of endpoint shape.
#[derive(Deserialize)]
struct WireEpoch {
    epoch: Option<u64>,
}

struct WriterOutput {
    latencies_us: Vec<u64>,
    /// `applied[e - 1]` is the batch that published epoch `e`.
    applied: Vec<Vec<FeedbackEvent>>,
    divergences: Vec<String>,
}

/// The single mutator: generates batches valid against a local mirror of
/// the served graph (add an absent `rated` edge / remove a present one,
/// never touching a planned question's (user, wni) pair), posts them at
/// `rate` batches per second, and replays each acknowledged batch onto
/// the mirror. Epochs must come back consecutive — the mirror chain is
/// the verifier's epoch-indexed reference.
#[allow(clippy::too_many_arguments)]
fn feedback_writer(
    addr: String,
    seed_graph: Hin,
    users: Vec<NodeId>,
    items: Vec<NodeId>,
    avoid: Vec<(u32, u32)>,
    rate: f64,
    bidirectional: bool,
    stop: Arc<AtomicBool>,
) -> Result<WriterOutput, String> {
    let mut client = HttpClient::connect(&addr)?;
    let rated = seed_graph
        .registry()
        .find_edge_type("rated")
        .ok_or("graph has no `rated` edge type")?;
    let mut rng = Xorshift(0x5eedf00d);
    let mut mirror = seed_graph;
    let mut out = WriterOutput {
        latencies_us: Vec::new(),
        applied: Vec::new(),
        divergences: Vec::new(),
    };
    let pause = Duration::from_secs_f64(1.0 / rate.max(1e-3));
    while !stop.load(Ordering::Relaxed) {
        let mut events: Vec<FeedbackEvent> = Vec::with_capacity(2);
        let mut used: Vec<(u32, u32)> = Vec::with_capacity(2);
        while events.len() < 2 {
            let user = users[rng.below(users.len())];
            let item = items[rng.below(items.len())];
            let pair = (user.0, item.0);
            if used.contains(&pair) || avoid.contains(&pair) {
                continue;
            }
            used.push(pair);
            events.push(if mirror.has_edge(user, item, rated) {
                FeedbackEvent::remove(user.0, item.0, "rated")
            } else {
                FeedbackEvent::add(user.0, item.0, "rated", 1.5)
            });
        }
        let body = serde_json::to_string(&FeedbackWire {
            events: events.clone(),
        })
        .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let (status, resp) = client.request("POST", "/feedback", &body)?;
        out.latencies_us.push(t0.elapsed().as_micros() as u64);
        if status != 200 {
            out.divergences
                .push(format!("/feedback {body} -> {status} {resp:.200}"));
            break;
        }
        let w: WireFeedback = serde_json::from_str(&resp)
            .map_err(|e| format!("unparseable feedback body: {e} ({resp:.200})"))?;
        if w.status.as_deref() != Some("ok") || w.epoch != Some(out.applied.len() as u64 + 1) {
            out.divergences.push(format!(
                "/feedback answered epoch {:?} after {} applied batches: {resp:.200}",
                w.epoch,
                out.applied.len()
            ));
            break;
        }
        mirror = events_to_delta(&events, &mirror, bidirectional)
            .map_err(|e| format!("acknowledged batch does not convert: {e:?}"))?
            .apply_to(&mirror)
            .map_err(|e| format!("acknowledged batch does not apply: {e}"))?;
        out.applied.push(events);
        std::thread::sleep(pause);
    }
    Ok(out)
}

/// A read captured for deferred verification: the reference answer can
/// only be computed once the full epoch chain is known.
struct DeferredRead {
    plan_idx: usize,
    status: u16,
    body: String,
}

/// Per-reader output of the mixed run: explain latencies, recommend
/// latencies, and the reads deferred for epoch-pinned verification.
type MixedReaderOutput = (Vec<u64>, Vec<u64>, Vec<DeferredRead>);

/// Closed-loop reader that records responses instead of verifying inline.
fn mixed_reader(
    addr: String,
    plan: Arc<Vec<PlannedRequest>>,
    cursor: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
) -> Result<MixedReaderOutput, String> {
    let mut client = HttpClient::connect(&addr)?;
    let (mut explain_us, mut recommend_us) = (Vec::new(), Vec::new());
    let mut reads = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let seq = cursor.fetch_add(1, Ordering::Relaxed);
        let plan_idx = seq % plan.len();
        let req = &plan[plan_idx];
        let t0 = Instant::now();
        let (status, body) = client.request("POST", req.path, &req.body)?;
        let us = t0.elapsed().as_micros() as u64;
        match req.endpoint {
            Endpoint::Explain => explain_us.push(us),
            Endpoint::Recommend => recommend_us.push(us),
        }
        reads.push(DeferredRead {
            plan_idx,
            status,
            body,
        });
    }
    Ok((explain_us, recommend_us, reads))
}

/// Replays the writer's event history into an epoch-indexed snapshot
/// chain, then verifies every recorded read against the reference on the
/// epoch its response reports. A 400 (the question went invalid under
/// drift) carries no epoch; its check is existential — some published
/// epoch must indeed reject it.
fn verify_deferred_reads(
    seed_graph: &Hin,
    cfg: &EmigreConfig,
    plan: &[PlannedRequest],
    applied: &[Vec<FeedbackEvent>],
    reads: &[DeferredRead],
    divergences: &mut Vec<String>,
) -> Result<(), String> {
    let mut snapshots: Vec<Hin> = vec![seed_graph.clone()];
    for events in applied {
        let next = events_to_delta(events, snapshots.last().unwrap(), cfg.bidirectional_actions)
            .map_err(|e| format!("replaying the event history: {e:?}"))?
            .apply_to(snapshots.last().unwrap())
            .map_err(|e| format!("replaying the event history: {e}"))?;
        snapshots.push(next);
    }
    for read in reads {
        let req = &plan[read.plan_idx];
        if read.status == 400 {
            let invalid_somewhere = snapshots.iter().any(|g| match req.spec {
                RequestSpec::Explain { user, wni, method } => {
                    reference_explain(g, cfg, user, wni, method).is_err()
                }
                RequestSpec::Recommend { user, k } => reference_recommend(g, cfg, user, k).is_err(),
            });
            if !invalid_somewhere {
                divergences.push(format!(
                    "{} {} -> 400, but the question validates on every epoch",
                    req.path, req.body
                ));
            }
            continue;
        }
        let reported = serde_json::from_str::<WireEpoch>(&read.body)
            .ok()
            .and_then(|w| w.epoch);
        let epoch = match reported {
            Some(e) if (e as usize) < snapshots.len() => e as usize,
            _ => {
                divergences.push(format!(
                    "{} {} -> unusable epoch {reported:?}: {:.200}",
                    req.path, req.body, read.body
                ));
                continue;
            }
        };
        let graph = &snapshots[epoch];
        let (expected_status, expected) = match req.spec {
            RequestSpec::Explain { user, wni, method } => {
                expected_explain(reference_explain(graph, cfg, user, wni, method))
            }
            RequestSpec::Recommend { user, k } => match reference_recommend(graph, cfg, user, k) {
                Ok(rec) => (
                    200,
                    Expected::Recommend(rec.iter().map(|&(n, s)| (n.0, s)).collect()),
                ),
                Err(_) => (400, Expected::InvalidQuestion),
            },
        };
        let pinned = PlannedRequest {
            expected_status,
            expected,
            ..req.clone()
        };
        if let Err(d) = verify_response(&pinned, read.status, &read.body) {
            divergences.push(format!("{} {} on epoch {epoch} -> {d}", req.path, req.body));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Minimal HTTP/1.1 client over a persistent TcpStream.
// ---------------------------------------------------------------------------

struct HttpClient {
    stream: TcpStream,
}

impl HttpClient {
    fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        Ok(HttpClient { stream })
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: loadgen\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream
            .write_all(head.as_bytes())
            .and_then(|_| self.stream.write_all(body.as_bytes()))
            .map_err(|e| format!("send: {e}"))?;

        let mut buf: Vec<u8> = Vec::with_capacity(1024);
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed connection mid-response".to_owned()),
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(format!("recv: {e}")),
            }
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line: {head:?}"))?;
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.trim()
                    .eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .unwrap_or(0);
        let mut body = buf[head_end + 4..].to_vec();
        while body.len() < content_length {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed connection mid-body".to_owned()),
                Ok(n) => body.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(format!("recv body: {e}")),
            }
        }
        body.truncate(content_length);
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }
}

// ---------------------------------------------------------------------------
// Open-loop mode: fixed arrival rate, pipelined sends, saturation curve.
// ---------------------------------------------------------------------------

/// One point on the saturation curve: what happened when the service was
/// offered `offered_qps` for `window_secs`.
#[derive(Serialize, Clone)]
struct OpenLoopPoint {
    offered_qps: f64,
    window_secs: f64,
    /// Requests actually written to the wire within the window.
    sent: u64,
    /// Answers that were accepted and verified against the reference.
    completed: u64,
    /// 429/503/504 answers — load shed by admission or deadline policy.
    rejected: u64,
    rejection_rate: f64,
    /// Completed answers over the full window-plus-drain wall clock.
    achieved_qps: f64,
    /// Latency from the *scheduled arrival* of each accepted request, so
    /// sender lag past saturation shows up as queueing delay rather than
    /// silently shrinking the sample (no coordinated omission).
    p50_us: u64,
    p99_us: u64,
}

/// In-order response reader for a pipelined connection: responses are
/// `Content-Length`-framed and arrive in request order; bytes past one
/// frame are retained as the start of the next.
struct RespReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl RespReader {
    fn next_response(&mut self) -> Result<(u16, String), String> {
        let mut chunk = [0u8; 16384];
        loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&self.buf[..pos]).into_owned();
                let status: u16 = head
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("bad status line: {head:?}"))?;
                let content_length: usize = head
                    .lines()
                    .find_map(|l| {
                        let (name, value) = l.split_once(':')?;
                        name.trim()
                            .eq_ignore_ascii_case("content-length")
                            .then(|| value.trim().parse().ok())?
                    })
                    .unwrap_or(0);
                let body_start = pos + 4;
                while self.buf.len() < body_start + content_length {
                    match self.stream.read(&mut chunk) {
                        Ok(0) => return Err("server closed connection mid-body".to_owned()),
                        Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                        Err(e) => return Err(format!("recv body: {e}")),
                    }
                }
                let body =
                    String::from_utf8_lossy(&self.buf[body_start..body_start + content_length])
                        .into_owned();
                self.buf.drain(..body_start + content_length);
                return Ok((status, body));
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed connection mid-response".to_owned()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }
}

#[derive(Default)]
struct OpenConnOutput {
    latencies_us: Vec<u64>,
    sent: u64,
    completed: u64,
    rejected: u64,
    divergences: Vec<String>,
}

/// One open-loop connection: a writer half pushes request `i` onto the
/// wire at its scheduled instant `t0 + i/rate` (arrivals are striped
/// across connections, `i ≡ conn_idx mod conns`) without waiting for
/// earlier answers — the event front end's pipelining absorbs the
/// overlap. The reader half drains in-order responses and stamps each
/// against its scheduled arrival.
fn open_loop_conn(
    addr: String,
    plan: Arc<Vec<PlannedRequest>>,
    rate: f64,
    window: Duration,
    conn_idx: usize,
    conns: usize,
    t0: Instant,
) -> Result<OpenConnOutput, String> {
    let stream = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    let write_half = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Instant)>();
    let plan_w = Arc::clone(&plan);
    let writer = std::thread::spawn(move || -> Result<u64, String> {
        let mut stream = write_half;
        let mut sent = 0u64;
        let mut i = conn_idx;
        loop {
            let offset = Duration::from_secs_f64(i as f64 / rate);
            if offset >= window {
                return Ok(sent);
            }
            let sched = t0 + offset;
            let now = Instant::now();
            if sched > now {
                std::thread::sleep(sched - now);
            }
            let req = &plan_w[i % plan_w.len()];
            let head = format!(
                "POST {} HTTP/1.1\r\nHost: loadgen\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                req.path,
                req.body.len()
            );
            stream
                .write_all(head.as_bytes())
                .and_then(|_| stream.write_all(req.body.as_bytes()))
                .map_err(|e| format!("open-loop send: {e}"))?;
            if tx.send((i % plan_w.len(), sched)).is_err() {
                return Ok(sent);
            }
            sent += 1;
            i += conns;
        }
    });
    let mut reader = RespReader {
        stream,
        buf: Vec::new(),
    };
    let mut out = OpenConnOutput::default();
    while let Ok((plan_idx, sched)) = rx.recv() {
        let (status, body) = reader.next_response()?;
        let us = Instant::now().saturating_duration_since(sched).as_micros() as u64;
        if matches!(status, 429 | 503 | 504) {
            out.rejected += 1;
            continue;
        }
        let req = &plan[plan_idx];
        match verify_response(req, status, &body) {
            Ok(_) => {
                out.completed += 1;
                out.latencies_us.push(us);
            }
            Err(d) => out
                .divergences
                .push(format!("{} {} -> {d}", req.path, req.body)),
        }
    }
    out.sent = writer
        .join()
        .map_err(|_| "open-loop writer panicked".to_owned())??;
    Ok(out)
}

/// Drives one offered rate for `secs` across `conns` pipelined
/// connections and aggregates the point.
fn open_loop_point(
    addr: &str,
    plan: &Arc<Vec<PlannedRequest>>,
    rate: f64,
    secs: f64,
    conns: usize,
) -> Result<(OpenLoopPoint, Vec<String>), String> {
    let window = Duration::from_secs_f64(secs);
    let t0 = Instant::now();
    let handles: Vec<_> = (0..conns)
        .map(|c| {
            let (addr, plan) = (addr.to_owned(), Arc::clone(plan));
            std::thread::spawn(move || open_loop_conn(addr, plan, rate, window, c, conns, t0))
        })
        .collect();
    let mut lat = Vec::new();
    let (mut sent, mut completed, mut rejected) = (0u64, 0u64, 0u64);
    let mut divergences = Vec::new();
    for h in handles {
        let o = h
            .join()
            .map_err(|_| "open-loop connection panicked".to_owned())??;
        lat.extend(o.latencies_us);
        sent += o.sent;
        completed += o.completed;
        rejected += o.rejected;
        divergences.extend(o.divergences);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let rep = latency_report(lat);
    Ok((
        OpenLoopPoint {
            offered_qps: rate,
            window_secs: secs,
            sent,
            completed,
            rejected,
            rejection_rate: if sent > 0 {
                rejected as f64 / sent as f64
            } else {
                0.0
            },
            achieved_qps: completed as f64 / elapsed.max(1e-9),
            p50_us: rep.p50_us,
            p99_us: rep.p99_us,
        },
        divergences,
    ))
}

/// The open-loop phase: a *fresh* server (the main run's graph may have
/// drifted through feedback epochs, and its histograms are already
/// spent), driven point by point from the lowest offered rate up. The
/// sweep server runs with a tight deadline so saturation actually sheds
/// load instead of queueing unboundedly — the rejection column of the
/// curve is the QoS scheduler's deadline policy at work.
#[allow(clippy::too_many_arguments)]
fn run_open_loop(
    bin: &Path,
    graph_file: &Path,
    parallelism: usize,
    conns: usize,
    plan: Vec<PlannedRequest>,
    rates: &[f64],
    secs: f64,
    deadline_ms: u64,
    extra: &[String],
) -> Result<Vec<OpenLoopPoint>, String> {
    let event_log = std::env::temp_dir().join(format!(
        "emigre-loadgen-{}.open.events.jsonl",
        std::process::id()
    ));
    let mut server = spawn_server(bin, graph_file, &event_log, parallelism, deadline_ms, extra)?;
    eprintln!(
        "loadgen: open-loop server up at {} (deadline {deadline_ms}ms, {} conn(s))",
        server.addr,
        conns.max(1)
    );
    let plan = Arc::new(plan);
    let mut points = Vec::new();
    let mut divergences = Vec::new();
    for &rate in rates {
        if rate <= 0.0 {
            return Err(format!("bad arrival rate {rate}: must be positive"));
        }
        let (point, div) = open_loop_point(&server.addr, &plan, rate, secs, conns.max(1))?;
        eprintln!(
            "loadgen: open loop {:>6.0} QPS offered -> {:>6.0} achieved, p50 {}us, p99 {}us, {:.1}% rejected",
            point.offered_qps,
            point.achieved_qps,
            point.p50_us,
            point.p99_us,
            100.0 * point.rejection_rate
        );
        points.push(point);
        divergences.extend(div);
    }
    let shutdown = HttpClient::connect(&server.addr)
        .and_then(|mut c| c.request("POST", "/shutdown", ""))
        .map(|(status, _)| status);
    let exit = server.child.wait().map_err(|e| format!("wait: {e}"))?;
    let _ = std::fs::remove_file(&event_log);
    if shutdown != Ok(200) {
        return Err(format!("open-loop POST /shutdown failed: {shutdown:?}"));
    }
    if !exit.success() {
        return Err(format!("open-loop server exited with {exit}"));
    }
    for d in divergences.iter().take(5) {
        eprintln!("divergence: {d}");
    }
    if !divergences.is_empty() {
        return Err(format!(
            "{} open-loop response(s) diverged from the reference",
            divergences.len()
        ));
    }
    Ok(points)
}

// ---------------------------------------------------------------------------
// Server process management.
// ---------------------------------------------------------------------------

fn server_binary(args: &[String]) -> Result<PathBuf, String> {
    if let Some(p) = flag(args, "--server-bin") {
        return Ok(PathBuf::from(p));
    }
    if let Ok(p) = std::env::var("EMIGRE_BIN") {
        return Ok(PathBuf::from(p));
    }
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let sibling = me
        .parent()
        .ok_or("current_exe has no parent dir")?
        .join(format!("emigre{}", std::env::consts::EXE_SUFFIX));
    if sibling.exists() {
        Ok(sibling)
    } else {
        Err(format!(
            "server binary not found at {} — build it (`cargo build --bin emigre`) or pass --server-bin",
            sibling.display()
        ))
    }
}

struct Server {
    child: Child,
    addr: String,
}

/// Extra `emigre serve` flags forwarded verbatim from the loadgen
/// command line, so A/B runs (per-user share, reactor count, keep-alive)
/// use one harness: everything after a bare `--` goes to the server,
/// e.g. `loadgen --smoke -- --user-share 0.5 --reactor-threads 2`.
fn forwarded_server_args(args: &[String]) -> Vec<String> {
    match args.iter().position(|a| a == "--") {
        Some(i) => args[i + 1..].to_vec(),
        None => Vec::new(),
    }
}

fn spawn_server(
    bin: &Path,
    graph_file: &Path,
    event_log: &Path,
    parallelism: usize,
    deadline_ms: u64,
    extra: &[String],
) -> Result<Server, String> {
    let mut argv = vec![
        "serve".to_owned(),
        "--graph".to_owned(),
        graph_file.display().to_string(),
        "--port".to_owned(),
        "0".to_owned(),
        "--deadline-ms".to_owned(),
        deadline_ms.to_string(),
        "--event-log".to_owned(),
        event_log.display().to_string(),
        "--parallelism".to_owned(),
        parallelism.to_string(),
    ];
    argv.extend(extra.iter().cloned());
    let mut child = Command::new(bin)
        .args(argv)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let stdout = child.stdout.take().ok_or("no child stdout")?;
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(addr) = line.strip_prefix("emigre-serve listening on ") {
                    break addr.trim().to_owned();
                }
            }
            Some(Err(e)) => return Err(format!("reading server stdout: {e}")),
            None => {
                let _ = child.wait();
                return Err("server exited before announcing its address".to_owned());
            }
        }
    };
    Ok(Server { child, addr })
}

// ---------------------------------------------------------------------------
// Measurement.
// ---------------------------------------------------------------------------

#[derive(Serialize, Default)]
struct LatencyReport {
    count: u64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    mean_us: u64,
    max_us: u64,
}

fn latency_report(mut lat_us: Vec<u64>) -> LatencyReport {
    if lat_us.is_empty() {
        return LatencyReport::default();
    }
    lat_us.sort_unstable();
    let n = lat_us.len();
    let q = |p: f64| lat_us[(((n as f64) * p).ceil() as usize).clamp(1, n) - 1];
    LatencyReport {
        count: n as u64,
        p50_us: q(0.50),
        p95_us: q(0.95),
        p99_us: q(0.99),
        mean_us: lat_us.iter().sum::<u64>() / n as u64,
        max_us: lat_us[n - 1],
    }
}

/// Server-attributed percentiles for one pipeline stage (from the
/// service's stage histograms, so they cover every request it served).
#[derive(Serialize, Default)]
struct StageQuantiles {
    count: u64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    max_us: u64,
}

fn stage_quantiles(h: &HistogramSnapshot) -> StageQuantiles {
    StageQuantiles {
        count: h.count,
        p50_us: h.p50_us,
        p95_us: h.p95_us,
        p99_us: h.p99_us,
        max_us: h.max_us,
    }
}

#[derive(Serialize)]
struct StageReport {
    queue: StageQuantiles,
    context: StageQuantiles,
    search: StageQuantiles,
    test: StageQuantiles,
    /// Time inside parallel CHECK fan-outs — a sub-stage of `test`, zero
    /// when the engine runs sequentially (`--parallelism 1`).
    check_parallel: StageQuantiles,
}

#[derive(Serialize, Default)]
struct EventLogReport {
    lines: u64,
    /// Lines with `endpoint == "feedback"` (mixed read/write runs only).
    feedback_lines: u64,
    verified: bool,
}

/// Binary-snapshot fast-start probe: the serving graph written as a
/// checksummed snapshot, then opened (mmap where available) and restored
/// to a `Hin` — the `emigre serve --graph-snapshot` startup path, timed.
#[derive(Serialize, Default)]
struct SnapshotReport {
    /// Wall-clock ms for `Snapshot::open` + full `Hin` restore.
    load_ms: f64,
    /// Bytes of the snapshot image on disk.
    image_bytes: u64,
    /// Whether the image was memory-mapped (vs read into a buffer).
    mapped: bool,
}

#[derive(Serialize)]
struct BenchReport {
    smoke: bool,
    items: usize,
    threads: usize,
    /// The `--parallelism` budget the server ran with.
    parallelism: usize,
    duration_secs: f64,
    requests: u64,
    divergences: u64,
    qps: f64,
    explain: LatencyReport,
    recommend: LatencyReport,
    /// `/trace/<id>` replays performed (smoke mode) and the total number
    /// of recorded TEST verdicts re-executed and matched.
    traces_replayed: u64,
    verdicts_replayed: u64,
    /// Feedback batches per second the writer targeted (0 = read-only run).
    feedback_rate: f64,
    /// `POST /feedback` round-trip latency (mixed runs only).
    feedback: LatencyReport,
    /// Edge events the server acknowledged, and the resulting publish
    /// throughput over the measured window.
    feedback_events_applied: u64,
    update_throughput_per_sec: f64,
    /// `/explain` p99 while the writer was publishing — the headline
    /// "reads under writes" number (0 in read-only runs).
    read_p99_under_writes_us: u64,
    stages: StageReport,
    event_log: EventLogReport,
    /// Saturation curve from the open-loop phase (`--arrival-rate` /
    /// `--arrival-sweep`): one point per offered rate, empty when the
    /// phase did not run.
    open_loop: Vec<OpenLoopPoint>,
    /// Server-side heap high-water mark over the run (tracking
    /// allocator; 0 when the server binary was built without
    /// `heap-track`).
    heap_peak_bytes: u64,
    /// Structural footprint of the server's graph + CSR kernel.
    graph_bytes: u64,
    /// Snapshot fast-start probe (see [`SnapshotReport`]).
    snapshot: SnapshotReport,
    server_metrics: MetricsSnapshot,
}

struct WorkerOutput {
    explain_us: Vec<u64>,
    recommend_us: Vec<u64>,
    divergences: Vec<String>,
    /// `(plan index, served trace)` pairs fetched right after each
    /// explain answer (smoke mode only).
    traces: Vec<(usize, ExplainTrace)>,
}

/// One closed-loop client: next request as soon as the last one answered.
fn worker(
    addr: String,
    plan: Arc<Vec<PlannedRequest>>,
    cursor: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    max_requests: Option<usize>,
    fetch_traces: bool,
) -> Result<WorkerOutput, String> {
    let mut client = HttpClient::connect(&addr)?;
    let mut out = WorkerOutput {
        explain_us: Vec::new(),
        recommend_us: Vec::new(),
        divergences: Vec::new(),
        traces: Vec::new(),
    };
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(out);
        }
        let seq = cursor.fetch_add(1, Ordering::Relaxed);
        if let Some(max) = max_requests {
            if seq >= max {
                return Ok(out);
            }
        }
        let req = &plan[seq % plan.len()];
        let t0 = Instant::now();
        let (status, body) = client.request("POST", req.path, &req.body)?;
        let us = t0.elapsed().as_micros() as u64;
        match req.endpoint {
            Endpoint::Explain => out.explain_us.push(us),
            Endpoint::Recommend => out.recommend_us.push(us),
        }
        match verify_response(req, status, &body) {
            Err(d) => out
                .divergences
                .push(format!("{} {} -> {d}", req.path, req.body)),
            Ok(request_id) => {
                // Fetched outside the timed section: the trace endpoint is
                // an operator tool, not part of the serving path.
                if fetch_traces && req.endpoint == Endpoint::Explain && status == 200 {
                    let path = format!("/trace/{request_id}");
                    let (ts, tbody) = client.request("GET", &path, "")?;
                    if ts != 200 {
                        out.divergences
                            .push(format!("GET {path} -> {ts} {tbody:.200}"));
                    } else {
                        match serde_json::from_str::<ExplainTrace>(&tbody) {
                            Ok(t) => out.traces.push((seq % plan.len(), t)),
                            Err(e) => out
                                .divergences
                                .push(format!("GET {path}: unparseable trace: {e}")),
                        }
                    }
                }
            }
        }
    }
}

/// Replays every fetched trace on a fresh single-threaded context: each
/// recorded TEST verdict must reproduce, and the trace's outcome
/// bookkeeping must agree with the response the reference predicted.
/// Returns the number of verdicts re-executed.
fn replay_traces(
    graph: &Hin,
    cfg: &EmigreConfig,
    plan: &[PlannedRequest],
    traces: &[(usize, ExplainTrace)],
    divergences: &mut Vec<String>,
) -> u64 {
    let mut verdicts = 0u64;
    for (seq, t) in traces {
        let who = format!("trace(user {}, wni {})", t.user, t.wni);
        let ctx = match ExplainContext::build(graph, cfg.clone(), NodeId(t.user), NodeId(t.wni)) {
            Ok(c) => c,
            Err(e) => {
                divergences.push(format!("{who}: context rebuild failed: {e}"));
                continue;
            }
        };
        let tester = Tester::new(&ctx);
        for (k, test) in t.tests.iter().enumerate() {
            let actions: Vec<Action> = test.actions.iter().map(Action::from_trace).collect();
            let verdict = tester.test(&actions);
            verdicts += 1;
            if verdict != test.verdict {
                divergences.push(format!(
                    "{who}: replayed TEST {k} says {verdict}, trace recorded {}",
                    test.verdict
                ));
            }
        }
        match &plan[*seq].expected {
            Expected::ExplainOk(exp) if !t.found || t.explanation.len() != exp.actions.len() => {
                divergences.push(format!(
                    "{who}: trace outcome (found={}, {} actions) disagrees with served explanation ({} actions)",
                    t.found,
                    t.explanation.len(),
                    exp.actions.len()
                ));
            }
            Expected::ExplainFailure(_) if t.found => {
                divergences.push(format!("{who}: trace claims found for a failed explain"));
            }
            _ => {}
        }
    }
    verdicts
}

fn run(args: &[String]) -> Result<(), String> {
    let server_args = forwarded_server_args(args);
    // Loadgen's own flags stop at the `--` separator.
    let args = match args.iter().position(|a| a == "--") {
        Some(i) => &args[..i],
        None => args,
    };
    let smoke = args.iter().any(|a| a == "--smoke");
    let items: usize = parse_flag(args, "--items", if smoke { 200 } else { 300 })?;
    let threads: usize = parse_flag(args, "--threads", if smoke { 2 } else { 4 })?;
    let duration_secs: u64 = parse_flag(args, "--duration-secs", 10)?;
    let k: usize = parse_flag(args, "--k", 5)?;
    // Per-request CHECK worker budget handed to the engine (1 = each
    // request stays on its service worker; answers are bit-identical
    // either way — the reference comparison below enforces exactly that).
    let parallelism: usize = parse_flag(args, "--parallelism", 1)?;
    // Mixed read/write mode: a dedicated writer posts this many feedback
    // batches per second while the readers run, and every read is
    // verified against the reference on its pinned epoch afterwards.
    let feedback_rate: f64 = parse_flag(args, "--feedback-rate", 0.0)?;
    if feedback_rate > 0.0 && smoke {
        return Err(
            "--feedback-rate and --smoke are mutually exclusive (trace replay assumes a static graph)"
                .to_owned(),
        );
    }
    // Open-loop phase: a single offered rate, or a comma-separated sweep.
    let arrival_rate: f64 = parse_flag(args, "--arrival-rate", 0.0)?;
    let arrival_secs: f64 = parse_flag(args, "--arrival-secs", 4.0)?;
    let open_deadline_ms: u64 = parse_flag(args, "--open-deadline-ms", 2000)?;
    let open_rates: Vec<f64> = match flag(args, "--arrival-sweep") {
        Some(raw) => raw
            .split(',')
            .map(|tok| {
                tok.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("bad --arrival-sweep entry: {tok:?}"))
            })
            .collect::<Result<_, _>>()?,
        None if arrival_rate > 0.0 => vec![arrival_rate],
        None => Vec::new(),
    };
    let out_path = flag(args, "--out").unwrap_or_else(|| "BENCH_serve.json".to_owned());

    // Build the synthetic world, write it out, and re-parse the written
    // file: reference and server then explain the *same parsed graph*.
    eprintln!("loadgen: building synthetic HIN ({items} items)");
    let w = emigre_bench::world(items, 1e-8);
    let text = emigre_hin::io::to_edge_list(&w.hin.graph);
    let graph_file =
        std::env::temp_dir().join(format!("emigre-loadgen-{}.hin", std::process::id()));
    let event_log = std::env::temp_dir().join(format!(
        "emigre-loadgen-{}.events.jsonl",
        std::process::id()
    ));
    std::fs::write(&graph_file, &text).map_err(|e| format!("writing graph file: {e}"))?;
    let graph = emigre_hin::io::from_edge_list(&text).map_err(|e| format!("reparse: {e}"))?;
    let cfg = serve_config(&graph)?;

    eprintln!(
        "loadgen: precomputing reference answers for {} users",
        w.hin.users.len()
    );
    let plan = build_plan(&graph, &cfg, &w.hin.users, k);
    if plan.is_empty() {
        return Err("empty request plan — no servable users in the world".to_owned());
    }
    let n_explain = plan
        .iter()
        .filter(|p| p.endpoint == Endpoint::Explain)
        .count();
    eprintln!(
        "loadgen: plan has {} requests ({} explain, {} recommend)",
        plan.len(),
        n_explain,
        plan.len() - n_explain
    );

    let bin = server_binary(args)?;
    let mut server = spawn_server(
        &bin,
        &graph_file,
        &event_log,
        parallelism,
        60000,
        &server_args,
    )?;
    eprintln!("loadgen: server {} up at {}", bin.display(), server.addr);

    let result = if feedback_rate > 0.0 {
        drive_mixed(
            &server.addr,
            plan.clone(),
            threads,
            parallelism,
            duration_secs,
            items,
            feedback_rate,
            &graph,
            &cfg,
            &w.hin.users,
        )
    } else {
        drive(
            &server.addr,
            plan.clone(),
            smoke,
            threads,
            parallelism,
            duration_secs,
            items,
            &graph,
            &cfg,
        )
    };

    // Graceful stop: POST /shutdown, then require a clean exit. The
    // drain flushes the event log, so it is only read after the wait.
    let shutdown = HttpClient::connect(&server.addr)
        .and_then(|mut c| c.request("POST", "/shutdown", ""))
        .map(|(status, _)| status);
    let exit = server.child.wait().map_err(|e| format!("wait: {e}"))?;
    if shutdown != Ok(200) {
        let _ = std::fs::remove_file(&graph_file);
        return Err(format!("POST /shutdown failed: {shutdown:?}"));
    }
    if !exit.success() {
        let _ = std::fs::remove_file(&graph_file);
        return Err(format!("server exited with {exit}"));
    }
    eprintln!("loadgen: server drained and exited cleanly");
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            let _ = std::fs::remove_file(&graph_file);
            return Err(e);
        }
    };

    // Open-loop saturation sweep on a fresh server (the main run's graph
    // may have drifted through feedback epochs, so the plan's reference
    // answers only hold on a clean spawn).
    let open_loop = if open_rates.is_empty() {
        Ok(Vec::new())
    } else {
        run_open_loop(
            &bin,
            &graph_file,
            parallelism,
            threads,
            plan,
            &open_rates,
            arrival_secs,
            open_deadline_ms,
            &server_args,
        )
    };
    let _ = std::fs::remove_file(&graph_file);
    report.open_loop = open_loop?;

    // Snapshot fast-start probe: the same graph the server just served,
    // through the `serve --graph-snapshot` startup path — write, open
    // (mmap where the platform allows), restore, and time it.
    report.snapshot = {
        let snap_file =
            std::env::temp_dir().join(format!("emigre-loadgen-{}.snap", std::process::id()));
        emigre_hin::write_snapshot(&graph, &snap_file)
            .map_err(|e| format!("writing snapshot: {e}"))?;
        let t0 = std::time::Instant::now();
        let snap =
            emigre_hin::Snapshot::open(&snap_file).map_err(|e| format!("opening snapshot: {e}"))?;
        let restored = snap.to_hin();
        let load_ms = t0.elapsed().as_secs_f64() * 1e3;
        let _ = std::fs::remove_file(&snap_file);
        if restored.num_nodes() != graph.num_nodes() || restored.num_edges() != graph.num_edges() {
            return Err("snapshot restore diverged from the served graph".to_owned());
        }
        eprintln!(
            "loadgen: snapshot fast-start — {} bytes, {} restore in {load_ms:.2} ms",
            snap.image_bytes(),
            if snap.is_mapped() { "mmap" } else { "read" }
        );
        SnapshotReport {
            load_ms,
            image_bytes: snap.image_bytes() as u64,
            mapped: snap.is_mapped(),
        }
    };

    // Structured event log: one JSON line per request — feedback
    // included, it draws ids from the same sequence — zero lost events.
    report.event_log = verify_event_log(
        &event_log,
        report.requests + report.feedback.count,
        report.feedback.count,
    )?;
    let _ = std::fs::remove_file(&event_log);
    eprintln!(
        "loadgen: event log verified — {} parseable line(s), zero lost",
        report.event_log.lines
    );

    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    std::fs::write(&out_path, &json).map_err(|e| format!("writing {out_path}: {e}"))?;
    println!("{json}");
    eprintln!(
        "loadgen: {} requests in {:.2}s — {:.1} QPS, {} divergence(s); wrote {out_path}",
        report.requests, report.duration_secs, report.qps, report.divergences
    );
    Ok(())
}

/// Every line of the event log must parse as a [`RequestEvent`] with a
/// valid request id, the line count must equal the number of requests
/// the workers issued (fewer means events were dropped), and in mixed
/// runs exactly `feedback` of them must be feedback lines.
fn verify_event_log(path: &Path, requests: u64, feedback: u64) -> Result<EventLogReport, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut lines = 0u64;
    let mut feedback_lines = 0u64;
    for (i, line) in text.lines().enumerate() {
        let ev: RequestEvent = serde_json::from_str(line)
            .map_err(|e| format!("event log line {}: {e} ({line:.200})", i + 1))?;
        if ev.request_id == 0 {
            return Err(format!("event log line {}: request_id is 0", i + 1));
        }
        if ev.endpoint == "feedback" {
            if ev.epoch.is_none() {
                return Err(format!("event log line {}: feedback without epoch", i + 1));
            }
            feedback_lines += 1;
        }
        lines += 1;
    }
    if lines != requests {
        return Err(format!(
            "event log has {lines} line(s) for {requests} request(s) — events were lost"
        ));
    }
    if feedback_lines != feedback {
        return Err(format!(
            "event log has {feedback_lines} feedback line(s) for {feedback} batch(es)"
        ));
    }
    Ok(EventLogReport {
        lines,
        feedback_lines,
        verified: true,
    })
}

#[allow(clippy::too_many_arguments)]
fn drive(
    addr: &str,
    plan: Vec<PlannedRequest>,
    smoke: bool,
    threads: usize,
    parallelism: usize,
    duration_secs: u64,
    items: usize,
    graph: &Hin,
    cfg: &EmigreConfig,
) -> Result<BenchReport, String> {
    // Health check before measuring.
    let mut probe = HttpClient::connect(addr)?;
    let (status, _) = probe.request("GET", "/healthz", "")?;
    if status != 200 {
        return Err(format!("healthz returned {status}"));
    }

    let plan = Arc::new(plan);
    let cursor = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    // Smoke: exactly one verified pass over the plan. Load: run for the
    // requested wall-clock duration.
    let max_requests = smoke.then_some(plan.len());

    let t0 = Instant::now();
    let handles: Vec<_> = (0..threads.max(1))
        .map(|_| {
            let (addr, plan, cursor, stop) = (
                addr.to_owned(),
                Arc::clone(&plan),
                Arc::clone(&cursor),
                Arc::clone(&stop),
            );
            std::thread::spawn(move || worker(addr, plan, cursor, stop, max_requests, smoke))
        })
        .collect();
    if !smoke {
        std::thread::sleep(Duration::from_secs(duration_secs));
        stop.store(true, Ordering::Relaxed);
    }
    let outputs = handles
        .into_iter()
        .map(|h| h.join().map_err(|_| "worker panicked".to_owned())?)
        .collect::<Result<Vec<_>, String>>()?;
    let elapsed = t0.elapsed().as_secs_f64();

    let mut explain_us = Vec::new();
    let mut recommend_us = Vec::new();
    let mut divergences = Vec::new();
    let mut traces = Vec::new();
    for o in outputs {
        explain_us.extend(o.explain_us);
        recommend_us.extend(o.recommend_us);
        divergences.extend(o.divergences);
        traces.extend(o.traces);
    }
    let requests = (explain_us.len() + recommend_us.len()) as u64;

    // Server-side view, snapshotted right at the end of the load window —
    // before trace replay, which can outlast the server's keep-alive and
    // get the idle probe connection reaped.
    let (_, metrics_json) = probe.request("GET", "/metrics", "")?;
    let server_metrics: MetricsSnapshot =
        serde_json::from_str(&metrics_json).map_err(|e| format!("parsing /metrics: {e}"))?;

    let verdicts_replayed = if smoke {
        eprintln!("loadgen: replaying {} served trace(s)", traces.len());
        replay_traces(graph, cfg, &plan, &traces, &mut divergences)
    } else {
        0
    };

    let report = BenchReport {
        smoke,
        items,
        threads,
        parallelism,
        duration_secs: elapsed,
        requests,
        divergences: divergences.len() as u64,
        qps: requests as f64 / elapsed.max(1e-9),
        explain: latency_report(explain_us),
        recommend: latency_report(recommend_us),
        traces_replayed: traces.len() as u64,
        verdicts_replayed,
        feedback_rate: 0.0,
        feedback: LatencyReport::default(),
        feedback_events_applied: 0,
        update_throughput_per_sec: 0.0,
        read_p99_under_writes_us: 0,
        stages: StageReport {
            queue: stage_quantiles(&server_metrics.queue_wait),
            context: stage_quantiles(&server_metrics.stage_context),
            search: stage_quantiles(&server_metrics.stage_search),
            test: stage_quantiles(&server_metrics.stage_test),
            check_parallel: stage_quantiles(&server_metrics.stage_check_parallel),
        },
        event_log: EventLogReport::default(),
        open_loop: Vec::new(),
        heap_peak_bytes: server_metrics.heap_peak_bytes,
        graph_bytes: server_metrics.graph_bytes,
        snapshot: SnapshotReport::default(),
        server_metrics,
    };

    for d in divergences.iter().take(5) {
        eprintln!("divergence: {d}");
    }
    if !divergences.is_empty() {
        return Err(format!(
            "{} served response(s) diverged from the single-threaded reference",
            divergences.len()
        ));
    }
    Ok(report)
}

/// Mixed read/write measurement: `threads` closed-loop readers race one
/// feedback writer for `duration_secs`, then the whole run is verified —
/// the writer's event history replayed into an epoch chain, every read
/// checked against the reference on its pinned epoch.
#[allow(clippy::too_many_arguments)]
fn drive_mixed(
    addr: &str,
    plan: Vec<PlannedRequest>,
    threads: usize,
    parallelism: usize,
    duration_secs: u64,
    items: usize,
    feedback_rate: f64,
    graph: &Hin,
    cfg: &EmigreConfig,
    users: &[NodeId],
) -> Result<BenchReport, String> {
    let mut probe = HttpClient::connect(addr)?;
    let (status, _) = probe.request("GET", "/healthz", "")?;
    if status != 200 {
        return Err(format!("healthz returned {status}"));
    }

    // Writable item pool and the question pairs the writer must not touch
    // (adding a rated edge on one would invalidate that planned explain
    // for every later epoch).
    let item_t = graph
        .registry()
        .find_node_type("item")
        .ok_or("graph has no `item` node type")?;
    let item_nodes: Vec<NodeId> = (0..graph.num_nodes() as u32)
        .map(NodeId)
        .filter(|&n| graph.node_type(n) == item_t)
        .collect();
    let avoid: Vec<(u32, u32)> = plan
        .iter()
        .filter_map(|p| match p.spec {
            RequestSpec::Explain { user, wni, .. } => Some((user.0, wni.0)),
            RequestSpec::Recommend { .. } => None,
        })
        .collect();

    let plan = Arc::new(plan);
    let cursor = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    let t0 = Instant::now();
    let writer = {
        let (addr, graph, users, items, avoid, stop) = (
            addr.to_owned(),
            graph.clone(),
            users.to_vec(),
            item_nodes,
            avoid,
            Arc::clone(&stop),
        );
        let bidirectional = cfg.bidirectional_actions;
        std::thread::spawn(move || {
            feedback_writer(
                addr,
                graph,
                users,
                items,
                avoid,
                feedback_rate,
                bidirectional,
                stop,
            )
        })
    };
    let readers: Vec<_> = (0..threads.max(1))
        .map(|_| {
            let (addr, plan, cursor, stop) = (
                addr.to_owned(),
                Arc::clone(&plan),
                Arc::clone(&cursor),
                Arc::clone(&stop),
            );
            std::thread::spawn(move || mixed_reader(addr, plan, cursor, stop))
        })
        .collect();
    std::thread::sleep(Duration::from_secs(duration_secs));
    stop.store(true, Ordering::Relaxed);

    let mut explain_us = Vec::new();
    let mut recommend_us = Vec::new();
    let mut reads = Vec::new();
    for h in readers {
        let (e, r, d) = h.join().map_err(|_| "reader panicked".to_owned())??;
        explain_us.extend(e);
        recommend_us.extend(r);
        reads.extend(d);
    }
    let writer_out = writer.join().map_err(|_| "writer panicked".to_owned())??;
    let elapsed = t0.elapsed().as_secs_f64();

    let mut divergences = writer_out.divergences;

    // Snapshot the server-side view right at the end of the load window:
    // deferred-read verification below replays every published epoch and can
    // outlast the server's keep-alive, which would get the idle probe
    // connection reaped before a late /metrics fetch.
    let (_, metrics_json) = probe.request("GET", "/metrics", "")?;
    let server_metrics: MetricsSnapshot =
        serde_json::from_str(&metrics_json).map_err(|e| format!("parsing /metrics: {e}"))?;
    if server_metrics.graph_epoch != writer_out.applied.len() as u64 {
        divergences.push(format!(
            "server reports epoch {}, writer published {}",
            server_metrics.graph_epoch,
            writer_out.applied.len()
        ));
    }
    let events_applied = server_metrics.feedback_events_applied;

    eprintln!(
        "loadgen: verifying {} read(s) against {} published epoch(s)",
        reads.len(),
        writer_out.applied.len()
    );
    verify_deferred_reads(
        graph,
        cfg,
        &plan,
        &writer_out.applied,
        &reads,
        &mut divergences,
    )?;

    let requests = (explain_us.len() + recommend_us.len()) as u64;
    let explain = latency_report(explain_us);
    let read_p99_under_writes_us = explain.p99_us;
    let report = BenchReport {
        smoke: false,
        items,
        threads,
        parallelism,
        duration_secs: elapsed,
        requests,
        divergences: divergences.len() as u64,
        qps: requests as f64 / elapsed.max(1e-9),
        explain,
        recommend: latency_report(recommend_us),
        traces_replayed: 0,
        verdicts_replayed: 0,
        feedback_rate,
        feedback: latency_report(writer_out.latencies_us),
        feedback_events_applied: events_applied,
        update_throughput_per_sec: events_applied as f64 / elapsed.max(1e-9),
        read_p99_under_writes_us,
        stages: StageReport {
            queue: stage_quantiles(&server_metrics.queue_wait),
            context: stage_quantiles(&server_metrics.stage_context),
            search: stage_quantiles(&server_metrics.stage_search),
            test: stage_quantiles(&server_metrics.stage_test),
            check_parallel: stage_quantiles(&server_metrics.stage_check_parallel),
        },
        event_log: EventLogReport::default(),
        open_loop: Vec::new(),
        heap_peak_bytes: server_metrics.heap_peak_bytes,
        graph_bytes: server_metrics.graph_bytes,
        snapshot: SnapshotReport::default(),
        server_metrics,
    };

    for d in divergences.iter().take(5) {
        eprintln!("divergence: {d}");
    }
    if !divergences.is_empty() {
        return Err(format!(
            "{} response(s) diverged from the epoch-pinned reference",
            divergences.len()
        ));
    }
    Ok(report)
}
