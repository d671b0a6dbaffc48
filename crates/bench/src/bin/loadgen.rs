//! `loadgen` — load generator and end-to-end correctness harness for
//! `emigre serve`.
//!
//! Spawns the real `emigre` binary (`serve` subcommand) on a synthetic
//! Amazon-style HIN and drives it with mixed `/explain` + `/recommend`
//! traffic from closed-loop clients, each on one persistent HTTP/1.1
//! connection. Every response is recorded and, after the run, verified
//! field by field against the single-threaded reference
//! ([`emigre_serve::reference_explain`] /
//! [`emigre_serve::reference_recommend`]) on the graph epoch the response
//! reports — a divergence is a hard failure, not a statistic. Epoch 0 is
//! the graph the server started on, whose answers the request plan
//! precomputes; every response must also carry the `request_id` assigned
//! at admission and per-stage latency attribution.
//!
//! `--feedback-rate R` adds one writer that publishes R feedback batches
//! per second through `POST /feedback` while the clients run. Its mirror
//! of each published graph is the reference for the reads pinned to that
//! epoch. Without a writer every answer must report epoch 0, and either
//! way `/metrics` must end on the epoch of the last acknowledged batch.
//!
//! The server always runs with `--event-log`; after the drain the log
//! must parse line by line as JSON with exactly one event per request
//! (zero lost events). `--smoke` makes exactly one pass over the plan
//! and also fetches `GET /trace/<request-id>` for every explain answer,
//! **replaying** the recorded TEST verdicts on a fresh single-threaded
//! context — the served trace must reproduce the served verdicts.
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
//! goes through the same verifier. The resulting saturation curve
//! (offered QPS vs p50/p99 + rejection rate) lands in `open_loop` in
//! the JSON report.
//!
//! ```text
//! loadgen --smoke                       # CI: one verified pass + clean shutdown
//! loadgen --duration-secs 10 --threads 4 --items 300
//! loadgen --feedback-rate 5 --duration-secs 3 --threads 2 --items 200
//! loadgen --duration-secs 6 --arrival-sweep 50,100,200,400
//! ```
//!
//! An argument loadgen does not know, or a malformed value, exits 2 with
//! the usage text before anything is built; a failed run exits 1. The
//! server binary is found next to the running executable
//! (`target/<profile>/emigre`), or via `--server-bin` / `$EMIGRE_BIN`.

use emigre_core::explanation::Action;
use emigre_core::tester::Tester;
use emigre_core::{EmigreConfig, ExplainContext, ExplainFailure, Explanation, Method};
use emigre_hin::{GraphView, Hin, NodeId};
use emigre_obs::{ExplainTrace, HistogramSnapshot, StageLatencies};
use emigre_serve::{
    config_for, events_to_delta, reference_explain, reference_recommend, FeedbackEvent,
    MetricsSnapshot, RequestEvent,
};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: loadgen [--smoke] [--items N] [--threads N] [--duration-secs N] [--k N]
               [--parallelism N] [--feedback-rate R] [--arrival-rate R]
               [--arrival-sweep R1,R2,...] [--arrival-secs S]
               [--open-deadline-ms N] [--out FILE] [--server-bin FILE]
               [-- EMIGRE-SERVE-FLAGS...]
  --smoke          one verified pass over the plan, with trace replay
  --feedback-rate  feedback batches per second posted during the run
  --arrival-*      open-loop phase on a fresh server: offered rates (> 0)
                   and seconds per rate";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_opts(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("loadgen error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// loadgen's own flags that take a value; `--smoke` is its only switch.
const VALUE_FLAGS: &[&str] = &[
    "--items",
    "--threads",
    "--duration-secs",
    "--k",
    "--parallelism",
    "--feedback-rate",
    "--arrival-rate",
    "--arrival-sweep",
    "--arrival-secs",
    "--open-deadline-ms",
    "--out",
    "--server-bin",
];

/// The checked command line.
struct Opts {
    smoke: bool,
    items: usize,
    threads: usize,
    duration_secs: u64,
    k: usize,
    /// Per-request CHECK worker budget the server runs with; answers are
    /// bit-identical at any value, and the verifier holds it to that.
    parallelism: usize,
    /// Feedback batches per second the writer posts (0 = read-only run).
    feedback_rate: f64,
    /// Offered rates of the open-loop phase (empty = no phase).
    open_rates: Vec<f64>,
    arrival_secs: f64,
    open_deadline_ms: u64,
    out: String,
    server_bin: Option<String>,
    /// Everything after a bare `--`, forwarded to `emigre serve`
    /// verbatim, e.g. `loadgen --smoke -- --user-share 0.5`.
    server_args: Vec<String>,
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| format!("bad {name}: {raw:?}")),
    }
}

fn positive(name: &str, raw: &str) -> Result<f64, String> {
    match raw.trim().parse::<f64>() {
        Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
        _ => Err(format!("{name} {raw:?} must be a positive, finite number")),
    }
}

/// Checks every argument before `--`: each is `--smoke` or a known flag
/// followed by its value, so a typo cannot run the default pass.
fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let (own, server_args) = match args.iter().position(|a| a == "--") {
        Some(i) => (&args[..i], args[i + 1..].to_vec()),
        None => (args, Vec::new()),
    };
    let mut rest = own.iter();
    while let Some(a) = rest.next() {
        if a == "--smoke" {
            continue;
        }
        if !VALUE_FLAGS.contains(&a.as_str()) {
            return Err(format!("unknown argument {a}"));
        }
        match rest.next() {
            Some(v) if !v.starts_with("--") => {}
            _ => return Err(format!("flag {a} expects a value")),
        }
    }
    let smoke = own.iter().any(|a| a == "--smoke");
    let feedback_rate: f64 = parse_flag(own, "--feedback-rate", 0.0)?;
    if !(feedback_rate.is_finite() && feedback_rate >= 0.0) {
        return Err("--feedback-rate must be finite and non-negative".to_owned());
    }
    if feedback_rate > 0.0 && smoke {
        return Err(
            "--feedback-rate and --smoke are mutually exclusive (trace replay assumes a static graph)"
                .to_owned(),
        );
    }
    let arrival_rate = flag(own, "--arrival-rate")
        .map(|r| positive("--arrival-rate", &r))
        .transpose()?;
    let open_rates = match flag(own, "--arrival-sweep") {
        Some(sweep) => sweep
            .split(',')
            .map(|r| positive("--arrival-sweep entry", r))
            .collect::<Result<_, _>>()?,
        None => arrival_rate.into_iter().collect(),
    };
    let arrival_secs = flag(own, "--arrival-secs")
        .map(|s| positive("--arrival-secs", &s))
        .transpose()?;
    Ok(Opts {
        smoke,
        items: parse_flag(own, "--items", if smoke { 200 } else { 300 })?,
        threads: parse_flag(own, "--threads", if smoke { 2 } else { 4 })?,
        duration_secs: parse_flag(own, "--duration-secs", 10)?,
        k: parse_flag(own, "--k", 5)?,
        parallelism: parse_flag(own, "--parallelism", 1)?,
        feedback_rate,
        open_rates,
        arrival_secs: arrival_secs.unwrap_or(4.0),
        open_deadline_ms: parse_flag(own, "--open-deadline-ms", 2000)?,
        out: flag(own, "--out").unwrap_or_else(|| "BENCH_serve.json".to_owned()),
        server_bin: flag(own, "--server-bin"),
        server_args,
    })
}

// ---------------------------------------------------------------------------
// Request plan: precomputed (request, expected response) pairs.
// ---------------------------------------------------------------------------

/// Wire-format mirror of the response bodies loadgen reads: the
/// `/explain` success, failure and error shapes, `/recommend` and
/// `/feedback` overlaid (absent fields parse to `None`). Telemetry the
/// reference cannot predict (`request_id`, `stages`, `epoch`) is checked
/// for presence and shape, payload fields for equality.
#[derive(Deserialize)]
struct WireRead {
    status: Option<String>,
    request_id: Option<u64>,
    epoch: Option<u64>,
    explanation: Option<Explanation>,
    failure: Option<ExplainFailure>,
    items: Option<Vec<WireItem>>,
    stages: Option<StageLatencies>,
    error: Option<String>,
}

#[derive(Deserialize)]
struct WireItem {
    item: u32,
    score: f64,
}

/// What the reference says a request must answer on one graph epoch.
#[derive(Clone, Debug)]
enum Expected {
    ExplainOk(Explanation),
    ExplainFailure(ExplainFailure),
    InvalidQuestion,
    Recommend(Vec<(u32, f64)>),
}

impl Expected {
    fn status(&self) -> u16 {
        match self {
            Expected::InvalidQuestion => 400,
            _ => 200,
        }
    }
}

/// The semantic content of a planned request — what the verifier needs
/// to recompute the reference answer on whichever graph epoch the server
/// reports it served from.
#[derive(Clone, Copy)]
enum RequestSpec {
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

/// The single-threaded reference answer to `spec` on `graph`.
fn reference(graph: &Hin, cfg: &EmigreConfig, spec: RequestSpec) -> Expected {
    match spec {
        RequestSpec::Explain { user, wni, method } => {
            match reference_explain(graph, cfg, user, wni, method) {
                Ok(Ok(explanation)) => Expected::ExplainOk(explanation),
                Ok(Err(failure)) => Expected::ExplainFailure(failure),
                Err(_) => Expected::InvalidQuestion,
            }
        }
        RequestSpec::Recommend { user, k } => match reference_recommend(graph, cfg, user, k) {
            Ok(items) => Expected::Recommend(items.iter().map(|&(n, s)| (n.0, s)).collect()),
            Err(_) => Expected::InvalidQuestion,
        },
    }
}

struct PlannedRequest {
    path: &'static str,
    body: String,
    spec: RequestSpec,
    /// The answer on epoch 0, the graph the server starts on.
    expected: Expected,
}

impl PlannedRequest {
    fn new(spec: RequestSpec, expected: Expected) -> Self {
        let (path, body) = match spec {
            RequestSpec::Explain { user, wni, method } => (
                "/explain",
                format!(
                    "{{\"user\":{},\"why_not\":{},\"method\":\"{}\"}}",
                    user.0,
                    wni.0,
                    method.label()
                ),
            ),
            RequestSpec::Recommend { user, k } => {
                ("/recommend", format!("{{\"user\":{},\"k\":{k}}}", user.0))
            }
        };
        PlannedRequest {
            path,
            body,
            spec,
            expected,
        }
    }

    fn is_explain(&self) -> bool {
        matches!(self.spec, RequestSpec::Explain { .. })
    }
}

/// Builds the verified request mix: for every sampled user one
/// `/recommend` plus why-not questions over the head of their list,
/// alternating a cheap remove method with the paper's default add method.
fn build_plan(graph: &Hin, cfg: &EmigreConfig, users: &[NodeId], k: usize) -> Vec<PlannedRequest> {
    let mut plan = Vec::new();
    for &user in users {
        let spec = RequestSpec::Recommend { user, k };
        let expected = reference(graph, cfg, spec);
        let Expected::Recommend(items) = &expected else {
            continue; // inactive user: nothing servable either
        };
        let wnis: Vec<NodeId> = items
            .iter()
            .skip(1)
            .take(2)
            .map(|&(n, _)| NodeId(n))
            .collect();
        plan.push(PlannedRequest::new(spec, expected));
        for (i, wni) in wnis.into_iter().enumerate() {
            let method = if i % 2 == 0 {
                Method::RemoveIncremental
            } else {
                Method::AddPowerset
            };
            let spec = RequestSpec::Explain { user, wni, method };
            plan.push(PlannedRequest::new(spec, reference(graph, cfg, spec)));
        }
    }
    plan
}

/// Field-level verification of one response against the answer expected
/// on the epoch it was served from.
fn verify_response(expected: &Expected, status: u16, body: &str) -> Result<(), String> {
    if status != expected.status() {
        return Err(format!(
            "status {status} (expected {}): {body:.200}",
            expected.status()
        ));
    }
    let w: WireRead =
        serde_json::from_str(body).map_err(|e| format!("unparseable body: {e} ({body:.200})"))?;
    let status_field = match expected {
        Expected::ExplainFailure(_) => Some("failure"),
        Expected::InvalidQuestion => None,
        _ => Some("ok"),
    };
    if let Some(want) = status_field {
        if w.status.as_deref() != Some(want) {
            return Err(format!("status field {:?}, expected {want:?}", w.status));
        }
        if w.stages.is_none() {
            return Err(format!("missing stages: {body:.200}"));
        }
    }
    let payload_matches = match expected {
        Expected::ExplainOk(exp) => w.explanation.as_ref() == Some(exp),
        Expected::ExplainFailure(f) => w.failure.as_ref() == Some(f),
        Expected::InvalidQuestion => w.error.as_deref() == Some("invalid_question"),
        Expected::Recommend(items) => {
            let got: Vec<(u32, f64)> = w
                .items
                .unwrap_or_default()
                .iter()
                .map(|i| (i.item, i.score))
                .collect();
            &got == items
        }
    };
    if !payload_matches {
        return Err(format!(
            "payload diverges: expected {expected:?}, got {body:.300}"
        ));
    }
    match w.request_id {
        Some(id) if id >= 1 => Ok(()),
        other => Err(format!("missing request_id ({other:?}): {body:.200}")),
    }
}

/// One answer as it came off the wire, kept for the verifier.
struct Reply {
    plan_idx: usize,
    status: u16,
    body: String,
}

/// Verifies every reply against the reference on the graph epoch its
/// response reports: epoch 0 is the plan's precomputed answer, epoch
/// `e ≥ 1` the reference on `published[e - 1]`. A 400 (a question the
/// writer's drift made invalid) reports no epoch, so its check is
/// existential — some epoch must reject the question.
fn verify_replies(
    cfg: &EmigreConfig,
    plan: &[PlannedRequest],
    published: &[Hin],
    replies: &[Reply],
) -> Vec<String> {
    let expected_on = |req: &PlannedRequest, epoch: usize| match epoch {
        0 => req.expected.clone(),
        e => reference(&published[e - 1], cfg, req.spec),
    };
    let mut divergences = Vec::new();
    for reply in replies {
        let req = &plan[reply.plan_idx];
        let epoch = if reply.status == 400 {
            (0..=published.len())
                .find(|&e| matches!(expected_on(req, e), Expected::InvalidQuestion))
                .ok_or_else(|| "400, but the question validates on every epoch".to_owned())
        } else {
            let reported = serde_json::from_str::<WireRead>(&reply.body)
                .ok()
                .and_then(|w| w.epoch);
            reported
                .filter(|&e| e <= published.len() as u64)
                .map(|e| e as usize)
                .ok_or_else(|| {
                    format!(
                        "{} with unusable epoch {reported:?}: {:.200}",
                        reply.status, reply.body
                    )
                })
        };
        let checked = epoch.and_then(|e| {
            verify_response(&expected_on(req, e), reply.status, &reply.body)
                .map_err(|d| format!("on epoch {e}: {d}"))
        });
        if let Err(d) = checked {
            divergences.push(format!("{} {} -> {d}", req.path, req.body));
        }
    }
    divergences
}

/// Prints the first few divergences and fails the run if there are any.
fn fail_on(divergences: &[String], what: &str) -> Result<(), String> {
    for d in divergences.iter().take(5) {
        eprintln!("divergence: {d}");
    }
    match divergences.len() {
        0 => Ok(()),
        n => Err(format!("{n} {what} diverged from the reference")),
    }
}

// ---------------------------------------------------------------------------
// Feedback writer (`--feedback-rate`): publishes epochs through
// `POST /feedback` while the readers run.
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

#[derive(Default)]
struct WriterOutput {
    latencies_us: Vec<u64>,
    /// `published[e - 1]` is the writer's mirror of the graph the server
    /// published as epoch `e`.
    published: Vec<Hin>,
    divergences: Vec<String>,
}

/// The single mutator: generates batches valid against its mirror of the
/// served graph (add an absent `rated` edge / remove a present one, never
/// touching a planned question's (user, wni) pair — adding that edge would
/// invalidate the question for every later epoch), posts them at `rate`
/// batches per second, and applies each acknowledged batch to the mirror.
/// Epochs must come back consecutive: the mirror chain is the verifier's
/// epoch-indexed reference.
fn feedback_writer(
    addr: &str,
    graph: &Hin,
    cfg: &EmigreConfig,
    plan: &[PlannedRequest],
    users: &[NodeId],
    rate: f64,
    stop: &AtomicBool,
) -> Result<WriterOutput, String> {
    let mut conn = Conn::connect(addr)?;
    let items: Vec<NodeId> = (0..graph.num_nodes() as u32)
        .map(NodeId)
        .filter(|&n| graph.node_type(n) == cfg.rec.item_type)
        .collect();
    let avoid: Vec<(u32, u32)> = plan
        .iter()
        .filter_map(|p| match p.spec {
            RequestSpec::Explain { user, wni, .. } => Some((user.0, wni.0)),
            RequestSpec::Recommend { .. } => None,
        })
        .collect();
    let mut rng = Xorshift(0x5eedf00d);
    let mut out = WriterOutput::default();
    let pause = Duration::from_secs_f64(1.0 / rate.max(1e-3));
    while !stop.load(Ordering::Relaxed) {
        let mirror = out.published.last().unwrap_or(graph);
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
            events.push(if mirror.has_edge(user, item, cfg.add_edge_type) {
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
        let (status, resp) = conn.request("POST", "/feedback", &body)?;
        out.latencies_us.push(t0.elapsed().as_micros() as u64);
        if status != 200 {
            out.divergences
                .push(format!("/feedback {body} -> {status} {resp:.200}"));
            break;
        }
        let w: WireRead = serde_json::from_str(&resp)
            .map_err(|e| format!("unparseable feedback body: {e} ({resp:.200})"))?;
        if w.status.as_deref() != Some("ok") || w.epoch != Some(out.published.len() as u64 + 1) {
            out.divergences.push(format!(
                "/feedback answered epoch {:?} after {} applied batches: {resp:.200}",
                w.epoch,
                out.published.len()
            ));
            break;
        }
        let next = events_to_delta(&events, mirror, cfg.bidirectional_actions)
            .map_err(|e| format!("acknowledged batch does not convert: {e:?}"))?
            .apply_to(mirror)
            .map_err(|e| format!("acknowledged batch does not apply: {e}"))?;
        out.published.push(next);
        std::thread::sleep(pause);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Minimal HTTP/1.1 client.
// ---------------------------------------------------------------------------

/// One persistent HTTP/1.1 connection. Responses are `Content-Length`
/// framed (a response without one has an empty body) and arrive in
/// request order; bytes read past one response stay buffered as the start
/// of the next, so pipelined and one-at-a-time answers parse alike.
struct Conn<S = TcpStream> {
    stream: S,
    buf: Vec<u8>,
}

impl Conn {
    fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        send(&mut self.stream, method, path, body)?;
        self.response()
    }
}

impl<S: Read> Conn<S> {
    /// Reads the next response as `(status, body)`.
    fn response(&mut self) -> Result<(u16, String), String> {
        let mut chunk = [0u8; 16384];
        loop {
            if let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
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
                let end = head_end + 4 + content_length;
                if self.buf.len() >= end {
                    let body = String::from_utf8_lossy(&self.buf[head_end + 4..end]).into_owned();
                    self.buf.drain(..end);
                    return Ok((status, body));
                }
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection mid-response".to_owned()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }
}

fn send(stream: &mut impl Write, method: &str, path: &str, body: &str) -> Result<(), String> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: loadgen\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|_| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("send: {e}"))
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
    /// Answers that were accepted (each is verified after the sweep).
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

#[derive(Default)]
struct OpenConnOutput {
    latencies_us: Vec<u64>,
    sent: u64,
    rejected: u64,
    replies: Vec<Reply>,
}

/// One open-loop connection: a writer half pushes request `i` onto the
/// wire at its scheduled instant `t0 + i/rate` (arrivals are striped
/// across connections, `i ≡ conn_idx mod conns`) without waiting for
/// earlier answers — the event front end's pipelining absorbs the
/// overlap. The reader half drains in-order responses and stamps each
/// against its scheduled arrival.
fn open_loop_conn(
    addr: &str,
    plan: &[PlannedRequest],
    rate: f64,
    window: Duration,
    conn_idx: usize,
    conns: usize,
    t0: Instant,
) -> Result<OpenConnOutput, String> {
    let mut conn = Conn::connect(addr)?;
    let mut write_half = conn
        .stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Instant)>();
    std::thread::scope(move |s| {
        let writer = s.spawn(move || -> Result<u64, String> {
            let mut sent = 0u64;
            for i in (conn_idx..).step_by(conns) {
                let offset = Duration::from_secs_f64(i as f64 / rate);
                if offset >= window {
                    break;
                }
                let sched = t0 + offset;
                std::thread::sleep(sched.saturating_duration_since(Instant::now()));
                let req = &plan[i % plan.len()];
                send(&mut write_half, "POST", req.path, &req.body)
                    .map_err(|e| format!("open-loop {e}"))?;
                if tx.send((i % plan.len(), sched)).is_err() {
                    break;
                }
                sent += 1;
            }
            Ok(sent)
        });
        let mut out = OpenConnOutput::default();
        while let Ok((plan_idx, sched)) = rx.recv() {
            let (status, body) = conn.response()?;
            if matches!(status, 429 | 503 | 504) {
                out.rejected += 1;
                continue;
            }
            out.latencies_us
                .push(Instant::now().saturating_duration_since(sched).as_micros() as u64);
            out.replies.push(Reply {
                plan_idx,
                status,
                body,
            });
        }
        out.sent = writer
            .join()
            .map_err(|_| "open-loop writer panicked".to_owned())??;
        Ok(out)
    })
}

/// Drives one offered rate for `secs` across `conns` pipelined
/// connections and aggregates the point.
fn open_loop_point(
    addr: &str,
    plan: &[PlannedRequest],
    rate: f64,
    secs: f64,
    conns: usize,
) -> Result<(OpenLoopPoint, Vec<Reply>), String> {
    let window = Duration::from_secs_f64(secs);
    let t0 = Instant::now();
    let outputs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| s.spawn(move || open_loop_conn(addr, plan, rate, window, c, conns, t0)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "open-loop connection panicked".to_owned())?
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let elapsed = t0.elapsed().as_secs_f64();
    let mut lat = Vec::new();
    let mut replies = Vec::new();
    let (mut sent, mut rejected) = (0u64, 0u64);
    for o in outputs {
        lat.extend(o.latencies_us);
        replies.extend(o.replies);
        sent += o.sent;
        rejected += o.rejected;
    }
    let completed = replies.len() as u64;
    let rep = latency_report(lat);
    let point = OpenLoopPoint {
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
    };
    Ok((point, replies))
}

/// The open-loop phase: a *fresh* server (the main run's graph may have
/// drifted through feedback epochs, and its histograms are already
/// spent), driven point by point in the order given. The sweep server
/// runs with a tight deadline so saturation actually sheds load instead
/// of queueing unboundedly — the rejection column of the curve is the
/// QoS scheduler's deadline policy at work. Returns the curve and every
/// accepted reply, for the verifier.
fn run_open_loop(
    bin: &Path,
    graph_file: &Path,
    event_log: &Path,
    opts: &Opts,
    plan: &[PlannedRequest],
) -> Result<(Vec<OpenLoopPoint>, Vec<Reply>), String> {
    let conns = opts.threads.max(1);
    let server = spawn_server(
        bin,
        graph_file,
        event_log,
        opts.parallelism,
        opts.open_deadline_ms,
        &opts.server_args,
    )?;
    eprintln!(
        "loadgen: open-loop server up at {} (deadline {}ms, {conns} conn(s))",
        server.addr, opts.open_deadline_ms
    );
    let mut points = Vec::new();
    let mut replies = Vec::new();
    for &rate in &opts.open_rates {
        let (point, r) = open_loop_point(&server.addr, plan, rate, opts.arrival_secs, conns)?;
        eprintln!(
            "loadgen: open loop {:>6.0} QPS offered -> {:>6.0} achieved, p50 {}us, p99 {}us, {:.1}% rejected",
            point.offered_qps,
            point.achieved_qps,
            point.p50_us,
            point.p99_us,
            100.0 * point.rejection_rate
        );
        points.push(point);
        replies.extend(r);
    }
    server.shutdown()?;
    Ok((points, replies))
}

// ---------------------------------------------------------------------------
// Server process and temp-file management.
// ---------------------------------------------------------------------------

fn server_binary(explicit: Option<&str>) -> Result<PathBuf, String> {
    if let Some(p) = explicit {
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

/// A spawned `emigre serve`. Dropping it kills and reaps the process, so
/// no error path leaves a server running; after [`Server::shutdown`] has
/// reaped it, the drop sends nothing.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Graceful stop: `POST /shutdown`, then require a clean drained exit.
    /// The drain flushes the event log, so it is only read after this.
    fn shutdown(mut self) -> Result<(), String> {
        let status = Conn::connect(&self.addr)
            .and_then(|mut c| c.request("POST", "/shutdown", ""))
            .map(|(status, _)| status);
        if status != Ok(200) {
            return Err(format!("POST /shutdown failed: {status:?}"));
        }
        let exit = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if !exit.success() {
            return Err(format!("server exited with {exit}"));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
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
    let child = Command::new(bin)
        .args(["serve", "--port", "0"])
        .args(["--deadline-ms", &deadline_ms.to_string()])
        .args(["--parallelism", &parallelism.to_string()])
        .arg("--graph")
        .arg(graph_file)
        .arg("--event-log")
        .arg(event_log)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let mut server = Server {
        child,
        addr: String::new(),
    };
    let stdout = server.child.stdout.take().ok_or("no child stdout")?;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading server stdout: {e}"))?;
        if let Some(addr) = line.strip_prefix("emigre-serve listening on ") {
            server.addr = addr.trim().to_owned();
            return Ok(server);
        }
    }
    Err("server exited before announcing its address".to_owned())
}

/// The run's temp files, named by process id and removed when the guard
/// drops, so every exit path cleans up.
struct TempFiles(Vec<PathBuf>);

impl TempFiles {
    fn path(&mut self, suffix: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("emigre-loadgen-{}.{suffix}", std::process::id()));
        self.0.push(path.clone());
        path
    }
}

impl Drop for TempFiles {
    fn drop(&mut self) {
        for path in &self.0 {
            let _ = std::fs::remove_file(path);
        }
    }
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
    /// Time inside parallel CHECK fan-outs — a sub-stage of `test`. Only an
    /// explain whose CHECK scan fanned out adds a sample, so at
    /// `--parallelism 1` `count` is 0.
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

#[derive(Default)]
struct ReaderOutput {
    explain_us: Vec<u64>,
    recommend_us: Vec<u64>,
    replies: Vec<Reply>,
    /// `(plan index, served trace)` for every explain answered 200
    /// (smoke mode only).
    traces: Vec<(usize, ExplainTrace)>,
    divergences: Vec<String>,
}

/// One closed-loop client: the next request goes out as soon as the last
/// one is answered, until `stop` is raised or `max_requests` requests
/// have been handed out across all clients.
fn reader(
    addr: &str,
    plan: &[PlannedRequest],
    cursor: &AtomicUsize,
    stop: &AtomicBool,
    max_requests: Option<usize>,
    fetch_traces: bool,
) -> Result<ReaderOutput, String> {
    let mut conn = Conn::connect(addr)?;
    let mut out = ReaderOutput::default();
    while !stop.load(Ordering::Relaxed) {
        let seq = cursor.fetch_add(1, Ordering::Relaxed);
        if max_requests.is_some_and(|max| seq >= max) {
            break;
        }
        let plan_idx = seq % plan.len();
        let req = &plan[plan_idx];
        let t0 = Instant::now();
        let (status, body) = conn.request("POST", req.path, &req.body)?;
        let us = t0.elapsed().as_micros() as u64;
        if req.is_explain() {
            out.explain_us.push(us);
        } else {
            out.recommend_us.push(us);
        }
        // Fetched outside the timed section: the trace endpoint is an
        // operator tool, not part of the serving path. An answer without
        // a request id fails verification on its own.
        let request_id = (fetch_traces && req.is_explain() && status == 200)
            .then(|| serde_json::from_str::<WireRead>(&body).ok()?.request_id)
            .flatten();
        if let Some(id) = request_id {
            let path = format!("/trace/{id}");
            match conn.request("GET", &path, "")? {
                (200, trace) => match serde_json::from_str::<ExplainTrace>(&trace) {
                    Ok(t) => out.traces.push((plan_idx, t)),
                    Err(e) => out
                        .divergences
                        .push(format!("GET {path}: unparseable trace: {e}")),
                },
                (ts, tbody) => out
                    .divergences
                    .push(format!("GET {path} -> {ts} {tbody:.200}")),
            }
        }
        out.replies.push(Reply {
            plan_idx,
            status,
            body,
        });
    }
    Ok(out)
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

fn run(opts: &Opts) -> Result<(), String> {
    // Declared first so it drops last, after any server still running.
    let mut tmp = TempFiles(Vec::new());
    let graph_file = tmp.path("hin");
    let event_log = tmp.path("events.jsonl");
    let open_event_log = tmp.path("open.events.jsonl");
    let snap_file = tmp.path("snap");

    // Build the synthetic world, write it out, and re-parse the written
    // file: reference and server then explain the *same parsed graph*.
    eprintln!("loadgen: building synthetic HIN ({} items)", opts.items);
    let w = emigre_bench::world(opts.items, 1e-8);
    let text = emigre_hin::io::to_edge_list(&w.hin.graph);
    std::fs::write(&graph_file, &text).map_err(|e| format!("writing graph file: {e}"))?;
    let graph = emigre_hin::io::from_edge_list(&text).map_err(|e| format!("reparse: {e}"))?;
    let cfg = config_for(&graph)?;

    eprintln!(
        "loadgen: precomputing reference answers for {} users",
        w.hin.users.len()
    );
    let plan = build_plan(&graph, &cfg, &w.hin.users, opts.k);
    if plan.is_empty() {
        return Err("empty request plan — no servable users in the world".to_owned());
    }
    let n_explain = plan.iter().filter(|p| p.is_explain()).count();
    eprintln!(
        "loadgen: plan has {} requests ({} explain, {} recommend)",
        plan.len(),
        n_explain,
        plan.len() - n_explain
    );

    let bin = server_binary(opts.server_bin.as_deref())?;
    let server = spawn_server(
        &bin,
        &graph_file,
        &event_log,
        opts.parallelism,
        60000,
        &opts.server_args,
    )?;
    eprintln!("loadgen: server {} up at {}", bin.display(), server.addr);
    let result = drive(&server.addr, &plan, opts, &graph, &cfg, &w.hin.users);
    let stopped = server.shutdown();
    let mut report = result?;
    stopped?;
    eprintln!("loadgen: server drained and exited cleanly");

    // Open-loop saturation sweep on a fresh server (the main run's graph
    // may have drifted through feedback epochs, so only the plan's epoch-0
    // answers hold there).
    if !opts.open_rates.is_empty() {
        let (points, replies) = run_open_loop(&bin, &graph_file, &open_event_log, opts, &plan)?;
        fail_on(
            &verify_replies(&cfg, &plan, &[], &replies),
            "open-loop response(s)",
        )?;
        report.open_loop = points;
    }

    // Snapshot fast-start probe: the same graph the server just served,
    // through the `serve --graph-snapshot` startup path — write, open
    // (mmap where the platform allows), restore, and time it.
    emigre_hin::write_snapshot(&graph, &snap_file).map_err(|e| format!("writing snapshot: {e}"))?;
    let t0 = Instant::now();
    let snap =
        emigre_hin::Snapshot::open(&snap_file).map_err(|e| format!("opening snapshot: {e}"))?;
    let restored = snap.to_hin();
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    if restored.num_nodes() != graph.num_nodes() || restored.num_edges() != graph.num_edges() {
        return Err("snapshot restore diverged from the served graph".to_owned());
    }
    eprintln!(
        "loadgen: snapshot fast-start — {} bytes, {} restore in {load_ms:.2} ms",
        snap.image_bytes(),
        if snap.is_mapped() { "mmap" } else { "read" }
    );
    report.snapshot = SnapshotReport {
        load_ms,
        image_bytes: snap.image_bytes() as u64,
        mapped: snap.is_mapped(),
    };

    // Structured event log: one JSON line per request — feedback
    // included, it draws ids from the same sequence — zero lost events.
    report.event_log = verify_event_log(
        &event_log,
        report.requests + report.feedback.count,
        report.feedback.count,
    )?;
    eprintln!(
        "loadgen: event log verified — {} parseable line(s), zero lost",
        report.event_log.lines
    );

    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    std::fs::write(&opts.out, &json).map_err(|e| format!("writing {}: {e}", opts.out))?;
    println!("{json}");
    eprintln!(
        "loadgen: {} requests in {:.2}s — {:.1} QPS, {} divergence(s); wrote {}",
        report.requests, report.duration_secs, report.qps, report.divergences, opts.out
    );
    Ok(())
}

/// Every line of the event log must parse as a [`RequestEvent`] with a
/// valid request id, the line count must equal the number of requests
/// the clients issued (fewer means events were dropped), and in mixed
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

/// The closed-loop run: `threads` readers (one pass over the plan under
/// `--smoke`, else `duration_secs` of load) plus, with `--feedback-rate`,
/// the feedback writer. Afterwards every reply is verified on the epoch
/// it reports, and smoke runs replay the served traces.
fn drive(
    addr: &str,
    plan: &[PlannedRequest],
    opts: &Opts,
    graph: &Hin,
    cfg: &EmigreConfig,
    users: &[NodeId],
) -> Result<BenchReport, String> {
    let mut probe = Conn::connect(addr)?;
    let (status, _) = probe.request("GET", "/healthz", "")?;
    if status != 200 {
        return Err(format!("healthz returned {status}"));
    }

    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let max_requests = opts.smoke.then_some(plan.len());
    let t0 = Instant::now();
    let (readers, writer) = std::thread::scope(|s| {
        let (cursor, stop) = (&cursor, &stop);
        let writer = (opts.feedback_rate > 0.0).then(|| {
            s.spawn(move || {
                feedback_writer(addr, graph, cfg, plan, users, opts.feedback_rate, stop)
            })
        });
        let readers: Vec<_> = (0..opts.threads.max(1))
            .map(|_| s.spawn(move || reader(addr, plan, cursor, stop, max_requests, opts.smoke)))
            .collect();
        // A smoke pass ends when the plan does (and runs no writer).
        if !opts.smoke {
            std::thread::sleep(Duration::from_secs(opts.duration_secs));
            stop.store(true, Ordering::Relaxed);
        }
        let readers = readers
            .into_iter()
            .map(|h| h.join().map_err(|_| "reader panicked".to_owned())?)
            .collect::<Result<Vec<_>, String>>();
        let writer = writer
            .map(|h| h.join().map_err(|_| "writer panicked".to_owned())?)
            .transpose();
        (readers, writer)
    });
    let (readers, writer) = (readers?, writer?.unwrap_or_default());
    let elapsed = t0.elapsed().as_secs_f64();

    let mut divergences = writer.divergences;
    let (mut explain_us, mut recommend_us) = (Vec::new(), Vec::new());
    let (mut replies, mut traces) = (Vec::new(), Vec::new());
    for o in readers {
        explain_us.extend(o.explain_us);
        recommend_us.extend(o.recommend_us);
        replies.extend(o.replies);
        traces.extend(o.traces);
        divergences.extend(o.divergences);
    }

    // Server-side view, snapshotted right at the end of the load window —
    // verification and trace replay can outlast the server's keep-alive
    // and get the idle probe connection reaped.
    let (_, metrics_json) = probe.request("GET", "/metrics", "")?;
    let server_metrics: MetricsSnapshot =
        serde_json::from_str(&metrics_json).map_err(|e| format!("parsing /metrics: {e}"))?;
    if server_metrics.graph_epoch != writer.published.len() as u64 {
        divergences.push(format!(
            "server reports epoch {}, writer published {}",
            server_metrics.graph_epoch,
            writer.published.len()
        ));
    }

    eprintln!(
        "loadgen: verifying {} response(s) against {} published epoch(s)",
        replies.len(),
        writer.published.len()
    );
    divergences.extend(verify_replies(cfg, plan, &writer.published, &replies));
    let verdicts_replayed = if opts.smoke {
        eprintln!("loadgen: replaying {} served trace(s)", traces.len());
        replay_traces(graph, cfg, plan, &traces, &mut divergences)
    } else {
        0
    };

    let requests = replies.len() as u64;
    let explain = latency_report(explain_us);
    let events_applied = server_metrics.feedback_events_applied;
    let report = BenchReport {
        smoke: opts.smoke,
        items: opts.items,
        threads: opts.threads,
        parallelism: opts.parallelism,
        duration_secs: elapsed,
        requests,
        divergences: divergences.len() as u64,
        qps: requests as f64 / elapsed.max(1e-9),
        read_p99_under_writes_us: if opts.feedback_rate > 0.0 {
            explain.p99_us
        } else {
            0
        },
        explain,
        recommend: latency_report(recommend_us),
        traces_replayed: traces.len() as u64,
        verdicts_replayed,
        feedback_rate: opts.feedback_rate,
        feedback: latency_report(writer.latencies_us),
        feedback_events_applied: events_applied,
        update_throughput_per_sec: events_applied as f64 / elapsed.max(1e-9),
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
    fail_on(&divergences, "response(s)")?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::Conn;
    use std::io::Read;

    /// Hands out one scripted chunk per `read`, then end of stream.
    struct Chunks(Vec<&'static [u8]>);

    impl Read for Chunks {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() {
                return Ok(0);
            }
            let chunk = self.0.remove(0);
            out[..chunk.len()].copy_from_slice(chunk);
            Ok(chunk.len())
        }
    }

    fn conn(chunks: &[&'static [u8]]) -> Conn<Chunks> {
        Conn {
            stream: Chunks(chunks.to_vec()),
            buf: Vec::new(),
        }
    }

    #[test]
    fn two_pipelined_responses_in_one_read_parse_in_order() {
        let mut c = conn(&[b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nab\
              HTTP/1.1 429 Too Many Requests\r\ncontent-length: 3\r\n\r\nxyz"]);
        assert_eq!(c.response(), Ok((200, "ab".to_owned())));
        assert_eq!(c.response(), Ok((429, "xyz".to_owned())));
        assert!(c.response().is_err(), "nothing is left on the stream");
    }

    #[test]
    fn a_head_and_body_split_across_reads_reassemble() {
        let mut c = conn(&[
            b"HTTP/1.1 200 OK\r\nContent-Le",
            b"ngth: 5\r\n\r\nhe",
            b"llo",
        ]);
        assert_eq!(c.response(), Ok((200, "hello".to_owned())));
    }

    #[test]
    fn a_missing_content_length_is_an_empty_body() {
        let mut c = conn(&[b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n"]);
        assert_eq!(c.response(), Ok((200, String::new())));
    }

    #[test]
    fn a_truncated_body_is_an_error() {
        let mut c = conn(&[b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort"]);
        assert!(c.response().is_err());
    }
}
