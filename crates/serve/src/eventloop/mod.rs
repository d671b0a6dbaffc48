//! Readiness-driven connection layer: the event-loop front end.
//!
//! One **reactor**, on the thread that calls `HttpServer::run`, multiplexes
//! every socket over `poller::Poller` (a vendored epoll shim on Linux,
//! `poll(2)` elsewhere on unix):
//!
//! ```text
//!   listener ─accept─► reactor: readable → read → RequestParser
//!                         │       (incremental, per-conn state)
//!          ┌──────────────┴──────────────────────┐
//!          │ POST /explain, /recommend           │ every other route
//!          ▼ ExplanationService::submit          ▼ bounded channel
//!   AdmissionQueue → workers ─ reply      control thread: route()
//!   (429 at once when full)    callback          │
//!          │                                     │
//!          └──► mailbox (conn, seq, bytes) ◄─────┘
//!                     │ waker
//!                     ▼
//!   reorder by seq → write buffer → socket (backpressure)
//! ```
//!
//! ## Per-connection state machine
//!
//! ```text
//!          feed bytes            parse ok, in_flight < depth
//!  Reading ──────────► Parsing ───────────────────────────► Dispatched
//!     ▲                   │ parse error                          │
//!     │                   ▼                                      ▼
//!     │             400/431 queued                  admitted read, or
//!     │                   │                         route() on control
//!     │                   ▼          in-order by seq             ▼
//!     └──────────── Closing ◄─────────────────────────── completion
//!                        (drain write buffer, then close)
//! ```
//!
//! * **Keep-alive & pipelining** — the parser yields as many complete
//!   requests as the buffer holds (up to `PIPELINE_DEPTH`, 32, in
//!   flight); responses are buffered per-sequence and written strictly
//!   in order, even when the QoS scheduler finishes them out of order.
//! * **Write backpressure** — a connection whose write buffer exceeds
//!   `WRITE_BACKPRESSURE` (256 KiB) has its read interest parked until
//!   the peer drains; a full socket switches interest to writable-only.
//! * **Idle reaping** — keep-alive connections idle past
//!   `keep_alive` are closed on the 100ms housekeeping tick.
//! * **Malformed input** — framing violations answer 400 (431 for an
//!   oversized head) with a JSON body before the close.
//! * **Accept failures** — when `accept` fails because the process or the
//!   system is out of descriptors (`EMFILE`, `ENFILE`), the idle
//!   connection with the oldest activity is closed and the accept retried,
//!   so an idle flood cannot lock new clients out. With no idle
//!   connection to close, or on any other failure but `WouldBlock` or an
//!   interrupt, the listener parks until a connection closes or the next
//!   tick, so the level-triggered listener cannot spin the reactor.
//!
//! Reads never wait outside the [`crate::sched::AdmissionQueue`]: the
//! reactor submits each one as it is parsed, a full queue answers 429 at
//! once, and the worker that runs a read renders its response and posts
//! it to the reactor's mailbox. Every other route runs on one control
//! thread, because `/feedback` may build a whole epoch and must not block
//! the reactor; `LiveGraph` serialises writers anyway.

mod poller;

use crate::http::{self, HttpConfig, Response};
use crate::metrics::FrontendStats;
use crate::parse::{HttpRequest, RequestParser};
use crate::service::ExplanationService;
use crossbeam::channel::{bounded, Sender, TrySendError};
use parking_lot::Mutex;
use poller::{Interest, Poller};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOKEN_WAKER: u64 = 0;
const TOKEN_LISTENER: u64 = 1;
const TOKEN_CONN_BASE: u64 = 16;
/// Housekeeping cadence: idle reap, accept re-arm, shutdown-flag poll.
const TICK: Duration = Duration::from_millis(100);
/// How long shutdown waits for in-flight responses before force-closing.
const DRAIN_BUDGET: Duration = Duration::from_secs(5);
/// Max requests one connection may have in flight at once; further
/// pipelined requests wait in the connection's parser buffer.
const PIPELINE_DEPTH: usize = 32;
/// Per-connection write-buffer cap in bytes: a peer that reads slower
/// than the server writes gets its read interest parked until the buffer
/// drains.
const WRITE_BACKPRESSURE: usize = 256 * 1024;
/// Requests waiting for the control thread before the reactor answers
/// further ones 429.
const CONTROL_QUEUE: usize = 4096;
/// `accept` errnos for a process (`EMFILE`) or system (`ENFILE`) out of
/// descriptors; the same numbers on Linux and the BSDs.
const EMFILE: i32 = 24;
const ENFILE: i32 = 23;

/// A parsed non-read request on its way to the control thread.
struct ControlJob {
    conn: u64,
    seq: u64,
    req: HttpRequest,
    keep: bool,
}

/// A rendered response on its way back to the reactor.
struct Completion {
    conn: u64,
    seq: u64,
    bytes: Vec<u8>,
    keep: bool,
}

/// Where workers and the control thread post finished responses, plus
/// the waker that interrupts the reactor's `poll`.
struct Mailbox {
    completions: Mutex<Vec<Completion>>,
    waker_w: UnixStream,
}

impl Mailbox {
    fn post(&self, conn: u64, seq: u64, (status, content_type, body): Response, keep: bool) {
        let bytes = http::render_response(status, content_type, &body, keep);
        self.completions.lock().push(Completion {
            conn,
            seq,
            bytes,
            keep,
        });
        // A full pipe already guarantees a pending wakeup.
        let _ = (&self.waker_w).write(&[1]);
    }
}

struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// Sequence number stamped on the next parsed request.
    next_seq: u64,
    /// Sequence number of the next response owed to the peer.
    next_write: u64,
    in_flight: usize,
    /// Out-of-order completions waiting for their turn (seq → response).
    reorder: BTreeMap<u64, (Vec<u8>, bool)>,
    /// Bytes owed to the socket; `out_pos` is the drain cursor.
    out: Vec<u8>,
    out_pos: usize,
    requests: u64,
    last_activity: Instant,
    interest: Interest,
    /// No further reads; close once in-flight responses are written.
    closing: bool,
}

impl Conn {
    fn pending_write(&self) -> usize {
        self.out.len() - self.out_pos
    }

    fn idle(&self) -> bool {
        self.in_flight == 0
            && self.reorder.is_empty()
            && self.pending_write() == 0
            && !self.parser.mid_request()
    }
}

struct Reactor {
    poller: Poller,
    mailbox: Arc<Mailbox>,
    waker_r: UnixStream,
    listener: Option<TcpListener>,
    /// When a failed `accept` parked the listener's read interest.
    accept_parked: Option<Instant>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    service: Arc<ExplanationService>,
    stats: Arc<FrontendStats>,
    shutdown: Arc<AtomicBool>,
    config: HttpConfig,
    control: Sender<ControlJob>,
}

/// Runs the event-loop front end on the calling thread until the shutdown
/// flag is set and all in-flight responses have drained (bounded by
/// [`DRAIN_BUDGET`]). Does **not** stop the service — the caller owns
/// that ordering.
pub(crate) fn run(
    listener: TcpListener,
    service: Arc<ExplanationService>,
    shutdown: Arc<AtomicBool>,
    config: HttpConfig,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let (waker_r, waker_w) = UnixStream::pair()?;
    waker_r.set_nonblocking(true)?;
    waker_w.set_nonblocking(true)?;
    let poller = Poller::new()?;
    let mailbox = Arc::new(Mailbox {
        completions: Mutex::new(Vec::new()),
        waker_w,
    });
    let (control, jobs) = bounded::<ControlJob>(CONTROL_QUEUE);
    let control_thread = {
        let (service, shutdown, mailbox) = (
            Arc::clone(&service),
            Arc::clone(&shutdown),
            Arc::clone(&mailbox),
        );
        std::thread::Builder::new()
            .name("emigre-http-control".to_owned())
            .spawn(move || {
                while let Ok(job) = jobs.recv() {
                    let response = http::route(&service, &shutdown, &job.req);
                    mailbox.post(job.conn, job.seq, response, job.keep);
                }
            })?
    };
    let mut reactor = Reactor {
        poller,
        mailbox,
        waker_r,
        listener: Some(listener),
        accept_parked: None,
        conns: HashMap::new(),
        next_token: TOKEN_CONN_BASE,
        stats: service.frontend_stats(),
        service,
        shutdown,
        config,
        control,
    };
    let result = reactor.run();
    // Dropping the reactor closes the control channel; the thread drains
    // what it holds and exits.
    drop(reactor);
    match control_thread.join() {
        Ok(()) => result,
        Err(_) => Err(io::Error::other("HTTP control thread panicked")),
    }
}

impl Reactor {
    fn run(&mut self) -> io::Result<()> {
        self.poller
            .register(self.waker_r.as_raw_fd(), TOKEN_WAKER, Interest::READ)?;
        if let Some(l) = &self.listener {
            self.poller
                .register(l.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        }
        let mut events: Vec<poller::PollerEvent> = Vec::with_capacity(64);
        let mut draining_since: Option<Instant> = None;
        loop {
            events.clear();
            self.poller.wait(&mut events, TICK.as_millis() as i32)?;
            for &ev in events.iter() {
                match ev.token {
                    TOKEN_WAKER => self.drain_waker(),
                    TOKEN_LISTENER => self.accept_ready(),
                    token => self.conn_ready(token, ev),
                }
            }
            self.process_completions();
            self.reap_idle();
            if matches!(self.accept_parked, Some(t) if t.elapsed() >= TICK) {
                self.rearm_accept();
            }
            if self.shutdown.load(Ordering::SeqCst) {
                let since = *draining_since.get_or_insert_with(Instant::now);
                if self.drain_for_shutdown(since) {
                    return Ok(());
                }
            }
        }
    }

    /// One step of graceful drain. Returns true once this reactor is done.
    fn drain_for_shutdown(&mut self, since: Instant) -> bool {
        if let Some(l) = self.listener.take() {
            let _ = self.poller.deregister(l.as_raw_fd());
            // Dropping `l` closes the listening socket: connects now fail
            // fast instead of sitting in a backlog nobody will accept.
        }
        let expired = since.elapsed() >= DRAIN_BUDGET;
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let done = {
                let c = self.conns.get_mut(&token).unwrap();
                c.closing = true;
                expired || (c.in_flight == 0 && c.reorder.is_empty() && c.pending_write() == 0)
            };
            if done {
                self.teardown(token);
            }
        }
        self.conns.is_empty()
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 64];
        while matches!((&self.waker_r).read(&mut buf), Ok(n) if n > 0) {}
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(l) = &self.listener else {
                return;
            };
            match l.accept() {
                Ok((stream, _peer)) => {
                    self.stats.on_accept();
                    self.add_conn(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    if matches!(e.raw_os_error(), Some(EMFILE | ENFILE)) {
                        if let Some(token) = self.oldest_idle() {
                            // Out of descriptors: the connection idle the
                            // longest gives its descriptor to the new one.
                            self.teardown(token);
                            continue;
                        }
                    }
                    // Nothing idle to close, or another failure: the
                    // pending connection stays queued and the
                    // level-triggered listener would wake every poll to the
                    // same failing accept. Park it until a connection
                    // closes or the next tick.
                    let _ = self
                        .poller
                        .modify(l.as_raw_fd(), TOKEN_LISTENER, Interest::NONE);
                    self.accept_parked = Some(Instant::now());
                    return;
                }
            }
        }
    }

    /// The idle connection whose last read or write is the oldest.
    fn oldest_idle(&self) -> Option<u64> {
        self.conns
            .iter()
            .filter(|(_, c)| c.idle())
            .min_by_key(|(_, c)| c.last_activity)
            .map(|(&token, _)| token)
    }

    /// Restores the listener's read interest after a failed `accept`.
    fn rearm_accept(&mut self) {
        if self.accept_parked.take().is_some() {
            if let Some(l) = &self.listener {
                let _ = self
                    .poller
                    .modify(l.as_raw_fd(), TOKEN_LISTENER, Interest::READ);
            }
        }
    }

    fn add_conn(&mut self, stream: TcpStream) {
        let token = self.next_token;
        if stream.set_nonblocking(true).is_err()
            || self
                .poller
                .register(stream.as_raw_fd(), token, Interest::READ)
                .is_err()
        {
            self.stats.on_close();
            return;
        }
        self.next_token += 1;
        self.conns.insert(
            token,
            Conn {
                stream,
                parser: RequestParser::new(),
                next_seq: 0,
                next_write: 0,
                in_flight: 0,
                reorder: BTreeMap::new(),
                out: Vec::new(),
                out_pos: 0,
                requests: 0,
                last_activity: Instant::now(),
                interest: Interest::READ,
                closing: false,
            },
        );
        // A client may have sent its first request already; level-triggered
        // epoll will report it, but read eagerly to save a loop turn.
        self.read_and_dispatch(token);
        self.flush_and_update(token);
    }

    fn process_completions(&mut self) {
        let done: Vec<Completion> = std::mem::take(&mut *self.mailbox.completions.lock());
        for c in done {
            let Some(conn) = self.conns.get_mut(&c.conn) else {
                continue; // connection died while its request ran
            };
            conn.in_flight = conn.in_flight.saturating_sub(1);
            conn.reorder.insert(c.seq, (c.bytes, c.keep));
            self.pump_ready(c.conn);
            // Freed pipeline depth may unlock buffered pipelined requests.
            self.parse_and_dispatch(c.conn);
            self.flush_and_update(c.conn);
        }
    }

    fn conn_ready(&mut self, token: u64, ev: poller::PollerEvent) {
        if !self.conns.contains_key(&token) {
            return;
        }
        if ev.readable || ev.closed {
            self.read_and_dispatch(token);
        }
        if !self.conns.contains_key(&token) {
            return;
        }
        if ev.writable || ev.readable || ev.closed {
            self.flush_and_update(token);
        }
        if ev.closed {
            // Hangup with nothing left to say — drop it.
            if let Some(c) = self.conns.get(&token) {
                if c.in_flight == 0 && c.reorder.is_empty() && c.pending_write() == 0 {
                    self.teardown(token);
                }
            }
        }
    }

    /// Reads everything available, then parses and dispatches up to the
    /// pipeline depth. May tear the connection down (fatal IO error, or
    /// EOF with nothing in flight).
    fn read_and_dispatch(&mut self, token: u64) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.closing {
                return;
            }
            // Backpressure: a peer that won't read its responses doesn't
            // get more requests parsed either.
            if conn.pending_write() >= WRITE_BACKPRESSURE {
                break;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.closing = true;
                    if conn.idle() {
                        self.teardown(token);
                        return;
                    }
                    break; // half-close: finish writing what's owed
                }
                Ok(n) => {
                    conn.parser.feed(&chunk[..n]);
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.teardown(token);
                    return;
                }
            }
        }
        self.parse_and_dispatch(token);
    }

    /// Drains complete requests out of the parser, bounded by
    /// `PIPELINE_DEPTH`: reads go to the admission queue, every other
    /// route to the control thread.
    fn parse_and_dispatch(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.closing || conn.in_flight >= PIPELINE_DEPTH {
                return;
            }
            match conn.parser.next_request() {
                Ok(Some(req)) => {
                    if conn.requests > 0 {
                        self.stats.keepalive_reuses.fetch_add(1, Ordering::Relaxed);
                    }
                    conn.requests += 1;
                    let keep = req.keep_alive && !self.config.keep_alive.is_zero();
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.in_flight += 1;
                    if !keep {
                        // Last request on this connection: answer it,
                        // then close. Don't parse past it.
                        conn.closing = true;
                    }
                    if !self.dispatch(token, seq, req, keep) {
                        return;
                    }
                }
                Ok(None) => return,
                Err(e) => {
                    // Framing violation: queue the 400/431 as the final
                    // "response" in sequence order, then close.
                    self.stats.parse_errors.fetch_add(1, Ordering::Relaxed);
                    let (status, body) = http::parse_error_response(&e);
                    let bytes = http::render_response(status, http::JSON, &body, false);
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.closing = true;
                    conn.reorder.insert(seq, (bytes, false));
                    self.pump_ready(token);
                    return;
                }
            }
        }
    }

    /// Sends one parsed request on its way: a read to the admission queue,
    /// whose worker posts the response, any other route to the control
    /// thread. Returns false if the connection was torn down.
    fn dispatch(&mut self, token: u64, seq: u64, req: HttpRequest, keep: bool) -> bool {
        match http::read_query(&self.service, &req) {
            Some(Ok((query, deadline))) => {
                let mailbox = Arc::clone(&self.mailbox);
                let on_reply = move |request_id, reply| {
                    mailbox.post(token, seq, http::read_response(request_id, reply), keep);
                };
                self.service.submit(query, deadline, Box::new(on_reply));
            }
            Some(Err(bad_request)) => self.mailbox.post(token, seq, bad_request, keep),
            None => {
                let job = ControlJob {
                    conn: token,
                    seq,
                    req,
                    keep,
                };
                match self.control.try_send(job) {
                    Ok(()) => {}
                    Err(TrySendError::Full(_)) => {
                        let body = http::json_error("overloaded", "control queue full");
                        self.mailbox.post(token, seq, (429, http::JSON, body), keep);
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        self.teardown(token);
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Moves in-order completed responses from the reorder buffer into
    /// the write buffer.
    fn pump_ready(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while let Some((bytes, keep)) = conn.reorder.remove(&conn.next_write) {
            conn.out.extend_from_slice(&bytes);
            conn.next_write += 1;
            if !keep {
                conn.closing = true;
            }
        }
    }

    /// Writes as much of the buffer as the socket accepts, then re-arms
    /// poll interest to match the connection's state (park reads under
    /// backpressure or at pipeline depth; watch writable only while
    /// bytes are owed). Closes the connection when fully drained and
    /// `closing`.
    fn flush_and_update(&mut self, token: u64) {
        self.pump_ready(token);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => break,
                Ok(n) => {
                    conn.out_pos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.teardown(token);
                    return;
                }
            }
        }
        if conn.out_pos >= conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
            if conn.closing && conn.in_flight == 0 && conn.reorder.is_empty() {
                self.teardown(token);
                return;
            }
        }
        let want_read = !conn.closing
            && conn.pending_write() < WRITE_BACKPRESSURE
            && conn.in_flight < PIPELINE_DEPTH;
        let want_write = conn.pending_write() > 0;
        let interest = Interest {
            readable: want_read,
            writable: want_write,
        };
        if interest != conn.interest {
            conn.interest = interest;
            let fd = conn.stream.as_raw_fd();
            let _ = self.poller.modify(fd, token, interest);
        }
    }

    /// Closes keep-alive connections idle past the configured budget.
    fn reap_idle(&mut self) {
        if self.config.keep_alive.is_zero() {
            return;
        }
        let now = Instant::now();
        let stale: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.idle() && now.duration_since(c.last_activity) >= self.config.keep_alive
            })
            .map(|(t, _)| *t)
            .collect();
        for token in stale {
            self.teardown(token);
        }
    }

    fn teardown(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.stats.on_close();
            // A freed descriptor may let a parked accept succeed.
            self.rearm_accept();
        }
    }
}
