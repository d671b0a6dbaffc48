//! Readiness-driven connection layer: the event-loop front end.
//!
//! A small **reactor pool** multiplexes every socket over `poller::Poller`
//! (a vendored epoll shim on Linux, `poll(2)` elsewhere on unix):
//!
//! ```text
//!             accept            round-robin injection
//!   listener ───────► reactor 0 ──────────────────────► reactor i
//!                        │                                  │
//!                        │  readable: read → RequestParser  │
//!                        │  (incremental, per-conn state)   │
//!                        ▼                                  ▼
//!                  ┌──────────────── dispatch channel ────────────┐
//!                  │        handler pool (blocks on route())      │
//!                  └──── completions (conn, seq, bytes) ──────────┘
//!                        │ waker                              │
//!                        ▼                                    ▼
//!                  reorder by seq → write buffer → socket (backpressure)
//! ```
//!
//! ## Per-connection state machine
//!
//! ```text
//!          feed bytes            parse ok, in_flight < depth
//!  Reading ──────────► Parsing ───────────────────────────► Dispatched
//!     ▲                   │ parse error                          │
//!     │                   ▼                                      ▼
//!     │             400/431 queued                     route() on handler
//!     │                   │                                      │
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
//!
//! Handlers (`route()`) block on the service, so they run on a separate
//! pool of `workers + queue_capacity` threads (clamped to 2..=128): every
//! admissible request reaches the [`crate::sched::AdmissionQueue`]
//! immediately and scheduling happens there, not in the dispatch
//! channel.

mod poller;

use crate::http::{self, HttpConfig};
use crate::metrics::FrontendStats;
use crate::parse::RequestParser;
use crate::service::ExplanationService;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use poller::{Interest, Poller};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const TOKEN_WAKER: u64 = 0;
const TOKEN_LISTENER: u64 = 1;
const TOKEN_CONN_BASE: u64 = 16;
/// Housekeeping cadence: idle reap + shutdown-flag poll.
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

/// A parsed request on its way to the handler pool.
struct HandlerJob {
    reactor: usize,
    conn: u64,
    seq: u64,
    req: crate::parse::HttpRequest,
    keep: bool,
}

/// A rendered response on its way back to the owning reactor.
struct Completion {
    conn: u64,
    seq: u64,
    bytes: Vec<u8>,
    keep: bool,
}

/// The cross-thread face of one reactor: where new connections and
/// finished responses are posted, plus the waker that interrupts its
/// `poll`.
struct ReactorShared {
    injections: Mutex<Vec<TcpStream>>,
    completions: Mutex<Vec<Completion>>,
    waker_w: UnixStream,
}

impl ReactorShared {
    fn wake(&self) {
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
    idx: usize,
    poller: Poller,
    shared: Arc<ReactorShared>,
    waker_r: UnixStream,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    stats: Arc<FrontendStats>,
    shutdown: Arc<AtomicBool>,
    config: HttpConfig,
    dispatch: Sender<HandlerJob>,
    peers: Vec<Arc<ReactorShared>>,
    /// Round-robin cursor for assigning accepted connections.
    rr: usize,
}

/// Runs the event-loop front end until the shutdown flag is set and all
/// in-flight responses have drained (bounded by [`DRAIN_BUDGET`]). Does
/// **not** stop the service — the caller owns that ordering.
pub(crate) fn run(
    listener: TcpListener,
    service: Arc<ExplanationService>,
    shutdown: Arc<AtomicBool>,
    config: HttpConfig,
) -> io::Result<()> {
    let n_reactors = config.reactor_threads.max(1);
    let n_handlers = (service.workers() + service.queue_capacity()).clamp(2, 128);
    let stats = service.frontend_stats();
    stats
        .reactor_threads
        .store(n_reactors as u64, Ordering::Relaxed);
    listener.set_nonblocking(true)?;

    // Dispatch channel sized past the admission queue: when even this
    // overflows, the reactor answers 429 inline rather than blocking.
    let (dispatch_tx, dispatch_rx) = bounded::<HandlerJob>(4096);

    let mut shareds: Vec<Arc<ReactorShared>> = Vec::with_capacity(n_reactors);
    let mut wakers_r: Vec<UnixStream> = Vec::with_capacity(n_reactors);
    for _ in 0..n_reactors {
        let (r, w) = UnixStream::pair()?;
        poller::set_nonblocking(r.as_raw_fd())?;
        poller::set_nonblocking(w.as_raw_fd())?;
        shareds.push(Arc::new(ReactorShared {
            injections: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
            waker_w: w,
        }));
        wakers_r.push(r);
    }

    let mut handler_threads = Vec::with_capacity(n_handlers);
    for _ in 0..n_handlers {
        let rx: Receiver<HandlerJob> = dispatch_rx.clone();
        let service = Arc::clone(&service);
        let shutdown = Arc::clone(&shutdown);
        let peers: Vec<Arc<ReactorShared>> = shareds.clone();
        handler_threads.push(std::thread::spawn(move || {
            while let Ok(job) = rx.recv() {
                let (status, content_type, body) = http::route(&service, &shutdown, &job.req);
                let bytes = http::render_response(status, content_type, &body, job.keep);
                let peer = &peers[job.reactor];
                peer.completions.lock().unwrap().push(Completion {
                    conn: job.conn,
                    seq: job.seq,
                    bytes,
                    keep: job.keep,
                });
                peer.wake();
            }
        }));
    }
    drop(dispatch_rx);

    let mut reactor_threads = Vec::with_capacity(n_reactors);
    let mut listener = Some(listener);
    for (idx, waker_r) in wakers_r.into_iter().enumerate() {
        let mut reactor = Reactor {
            idx,
            poller: Poller::new()?,
            shared: Arc::clone(&shareds[idx]),
            waker_r,
            listener: if idx == 0 { listener.take() } else { None },
            conns: HashMap::new(),
            next_token: TOKEN_CONN_BASE,
            stats: Arc::clone(&stats),
            shutdown: Arc::clone(&shutdown),
            config: config.clone(),
            dispatch: dispatch_tx.clone(),
            peers: shareds.clone(),
            rr: 0,
        };
        reactor_threads.push(std::thread::spawn(move || reactor.run()));
    }
    drop(dispatch_tx);

    let mut result = Ok(());
    for t in reactor_threads {
        match t.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => result = Err(e),
            Err(_) => {
                result = Err(io::Error::other("reactor thread panicked"));
            }
        }
    }
    // Reactors dropped their dispatch senders; the pool drains and exits.
    for t in handler_threads {
        let _ = t.join();
    }
    result
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
                    TOKEN_LISTENER => self.accept_ready()?,
                    token => self.conn_ready(token, ev),
                }
            }
            self.process_injections()?;
            self.process_completions();
            self.reap_idle();
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

    fn accept_ready(&mut self) -> io::Result<()> {
        loop {
            let Some(l) = &self.listener else {
                return Ok(());
            };
            match l.accept() {
                Ok((stream, _peer)) => {
                    self.stats.on_accept();
                    let target = self.rr % self.peers.len();
                    self.rr += 1;
                    self.peers[target].injections.lock().unwrap().push(stream);
                    if target == self.idx {
                        // Picked up by process_injections() this iteration.
                        continue;
                    }
                    self.peers[target].wake();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Ok(()),
            }
        }
    }

    fn process_injections(&mut self) -> io::Result<()> {
        let streams: Vec<TcpStream> = std::mem::take(&mut *self.shared.injections.lock().unwrap());
        for stream in streams {
            if stream.set_nonblocking(true).is_err() {
                self.stats.on_close();
                continue;
            }
            let token = self.next_token;
            self.next_token += 1;
            if self
                .poller
                .register(stream.as_raw_fd(), token, Interest::READ)
                .is_err()
            {
                self.stats.on_close();
                continue;
            }
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
            // A client may have sent its first request before we
            // registered; level-triggered epoll will report it, but read
            // eagerly to save a loop turn.
            self.read_and_dispatch(token);
            self.flush_and_update(token);
        }
        Ok(())
    }

    fn process_completions(&mut self) {
        let done: Vec<Completion> = std::mem::take(&mut *self.shared.completions.lock().unwrap());
        for c in done {
            let Some(conn) = self.conns.get_mut(&c.conn) else {
                continue; // connection died while the handler ran
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

    /// Drains complete requests out of the parser into the handler pool,
    /// bounded by `PIPELINE_DEPTH`.
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
                    let job = HandlerJob {
                        reactor: self.idx,
                        conn: token,
                        seq,
                        req,
                        keep,
                    };
                    match self.dispatch.try_send(job) {
                        Ok(()) => {}
                        Err(TrySendError::Full(job)) => {
                            // Dispatch saturated: shed load at the edge
                            // with the same 429 the admission queue uses.
                            let body = http::json_error("overloaded", "dispatch queue full");
                            let bytes = http::render_response(429, http::JSON, &body, job.keep);
                            let conn = self.conns.get_mut(&token).unwrap();
                            conn.in_flight -= 1;
                            conn.reorder.insert(job.seq, (bytes, job.keep));
                            self.pump_ready(token);
                        }
                        Err(TrySendError::Disconnected(_)) => {
                            self.teardown(token);
                            return;
                        }
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
        }
    }
}
