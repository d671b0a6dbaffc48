//! Structured event log: one JSON line per completed or rejected request.
//!
//! Metrics aggregate; an event log *enumerates* — it is what lets an
//! operator answer "which request was slow, and where did its time go"
//! after the fact. Each finished request (including admission rejections)
//! becomes one [`RequestEvent`] serialised as a single JSON line.
//!
//! The writer is deliberately decoupled from the request path: emitting
//! an event is one serialisation plus a `try_send` into a bounded
//! channel drained by a dedicated writer thread. A slow or wedged disk
//! therefore never blocks a worker — the channel fills and further
//! events are counted in `dropped` instead. [`EventLogStats`] surfaces
//! `written`/`dropped` so the smoke test can assert zero loss at smoke
//! QPS while production overload degrades to sampling, not stalls.

use crossbeam::channel::{bounded, Sender, TrySendError};
use emigre_obs::{CounterSnapshot, StageLatencies};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Pending lines the service's event-log ring holds; past them, events
/// count as dropped instead of blocking workers.
const RING_CAPACITY: usize = 4096;

/// One request's life, flattened for the log. Everything an operator
/// needs to triage a single slow or rejected request without replaying
/// its trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RequestEvent {
    /// The id echoed in the HTTP response and the `/trace/<id>` key.
    pub request_id: u64,
    /// `explain`, `recommend`, or `feedback`.
    pub endpoint: String,
    /// `found`, `failure`, `ok`, `invalid_question`, `deadline_exceeded`,
    /// `rejected_overload`, `shutting_down`, `worker_panic` — or, for
    /// feedback: `applied`, `feedback_rejected`, `update_panic`.
    pub outcome: String,
    pub user: u32,
    /// The Why-Not item (explain requests only).
    pub wni: Option<u32>,
    /// Paper method label (explain requests only).
    pub method: Option<String>,
    /// Search mode the method settled on (`add`/`remove`), when traced.
    pub mode: Option<String>,
    /// Counterfactual edge count of a found explanation.
    pub explanation_size: Option<u64>,
    /// Per-stage latency attribution (zeroed for admission rejections —
    /// those never reached a worker).
    pub stages: StageLatencies,
    pub session_cache_hit: Option<bool>,
    /// Whether both columns an explain's context needs, `rec`'s and the
    /// Why-Not item's, came from the column cache (explain requests only).
    pub column_cache_hit: Option<bool>,
    /// The scheduler's expected service cost at admission (µs) — what the
    /// fairness layer charges this job's user. `None` for feedback.
    pub expected_cost_us: Option<u64>,
    /// Whether this request was admitted into the slowest-N forensics
    /// ring for its endpoint (and is therefore visible at
    /// `GET /debug/slow` until evicted by a slower one).
    pub slow: bool,
    /// PPR/CHECK op deltas attributable to this request alone.
    pub ops: CounterSnapshot,
    /// The graph epoch the request was pinned to (read paths) or
    /// published / left current (feedback). `None` for requests that
    /// never reached a worker (admission rejections) and for worker
    /// panics.
    pub epoch: Option<u64>,
}

/// Counters describing the log itself, exported in `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EventLogStats {
    pub enabled: bool,
    /// Lines the writer thread has durably written.
    pub written: u64,
    /// Events discarded because the writer's ring was full (or the sink
    /// failed to open).
    pub dropped: u64,
}

/// Non-blocking JSON-lines event sink. See module docs.
pub struct EventLogger {
    /// `None` when disabled or after shutdown.
    tx: Mutex<Option<Sender<String>>>,
    writer: Mutex<Option<JoinHandle<()>>>,
    written: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
    enabled: bool,
}

impl EventLogger {
    /// A logger that drops everything silently (the default).
    pub fn disabled() -> Self {
        EventLogger {
            tx: Mutex::new(None),
            writer: Mutex::new(None),
            written: Arc::new(AtomicU64::new(0)),
            dropped: Arc::new(AtomicU64::new(0)),
            enabled: false,
        }
    }

    /// A logger appending JSON lines to `path` through a bounded ring of
    /// `capacity` pending lines and one writer thread. The file is
    /// created (truncated) by the writer; if it cannot be opened, every
    /// event counts as dropped and one diagnostic goes to stderr — the
    /// service itself never fails over its log.
    pub fn to_path(path: PathBuf, capacity: usize) -> Self {
        let (tx, rx) = bounded::<String>(capacity.max(1));
        let written = Arc::new(AtomicU64::new(0));
        let dropped = Arc::new(AtomicU64::new(0));
        let written_w = Arc::clone(&written);
        let dropped_w = Arc::clone(&dropped);
        let writer = std::thread::Builder::new()
            .name("emigre-eventlog".to_owned())
            .spawn(move || {
                let mut file = match std::fs::File::create(&path) {
                    Ok(f) => Some(std::io::BufWriter::new(f)),
                    Err(e) => {
                        eprintln!(
                            "emigre-serve: cannot open event log {}: {e}",
                            path.display()
                        );
                        None
                    }
                };
                // recv() drains everything queued before the last sender
                // drops, so shutdown flushes the full backlog.
                while let Ok(line) = rx.recv() {
                    let wrote = match &mut file {
                        Some(f) => writeln!(f, "{line}").is_ok(),
                        None => false,
                    };
                    if wrote {
                        written_w.fetch_add(1, Ordering::Relaxed);
                    } else {
                        dropped_w.fetch_add(1, Ordering::Relaxed);
                    }
                }
                if let Some(f) = &mut file {
                    let _ = f.flush();
                }
            })
            .expect("spawning event-log writer");
        EventLogger {
            tx: Mutex::new(Some(tx)),
            writer: Mutex::new(Some(writer)),
            written,
            dropped,
            enabled: true,
        }
    }

    /// Builds from an optional path (the `--event-log` flag, verbatim),
    /// with a ring of `RING_CAPACITY` (4,096) pending lines.
    pub fn from_config(path: Option<PathBuf>) -> Self {
        match path {
            Some(p) => Self::to_path(p, RING_CAPACITY),
            None => Self::disabled(),
        }
    }

    /// Queues one event; never blocks. A full ring increments `dropped`.
    pub fn emit(&self, event: &RequestEvent) {
        if !self.enabled {
            return;
        }
        let Ok(line) = serde_json::to_string(event) else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let guard = self.tx.lock();
        match guard.as_ref() {
            Some(tx) => {
                if let Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) =
                    tx.try_send(line)
                {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    pub fn stats(&self) -> EventLogStats {
        EventLogStats {
            enabled: self.enabled,
            written: self.written.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting events, drains the backlog to disk, and joins the
    /// writer. Idempotent; called by the service's shutdown.
    pub fn shutdown(&self) {
        let tx = self.tx.lock().take();
        drop(tx); // disconnects the channel once the backlog drains
        if let Some(w) = self.writer.lock().take() {
            let _ = w.join();
        }
    }
}

impl Drop for EventLogger {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(id: u64) -> RequestEvent {
        RequestEvent {
            request_id: id,
            endpoint: "explain".to_owned(),
            outcome: "found".to_owned(),
            user: 3,
            wni: Some(17),
            method: Some("add_Powerset".to_owned()),
            mode: Some("add".to_owned()),
            explanation_size: Some(2),
            stages: StageLatencies {
                queue_us: 5,
                context_us: 40,
                search_us: 30,
                test_us: 20,
                check_parallel_us: 0,
                total_us: 100,
                ..StageLatencies::default()
            },
            session_cache_hit: Some(true),
            column_cache_hit: Some(false),
            expected_cost_us: Some(200_000),
            slow: true,
            ops: CounterSnapshot::default(),
            epoch: Some(0),
        }
    }

    #[test]
    fn disabled_logger_drops_nothing_and_writes_nothing() {
        let l = EventLogger::disabled();
        l.emit(&event(1));
        let s = l.stats();
        assert!(!s.enabled);
        assert_eq!((s.written, s.dropped), (0, 0));
    }

    #[test]
    fn events_round_trip_as_json_lines() {
        let dir = std::env::temp_dir().join(format!("emigre-events-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events-roundtrip.jsonl");
        let l = EventLogger::to_path(path.clone(), 64);
        for i in 0..10 {
            l.emit(&event(i));
        }
        l.shutdown();
        let s = l.stats();
        assert_eq!(s.written, 10);
        assert_eq!(s.dropped, 0);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 10);
        for (i, line) in lines.iter().enumerate() {
            let back: RequestEvent = serde_json::from_str(line).unwrap();
            assert_eq!(back, event(i as u64));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn emits_after_shutdown_count_as_dropped() {
        let dir = std::env::temp_dir().join(format!("emigre-events-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events-postshutdown.jsonl");
        let l = EventLogger::to_path(path.clone(), 4);
        l.shutdown();
        l.emit(&event(1));
        assert_eq!(l.stats().dropped, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unopenable_sink_degrades_to_drop_counting() {
        // A directory path cannot be created as a file.
        let l = EventLogger::to_path(std::env::temp_dir(), 8);
        l.emit(&event(1));
        l.shutdown();
        let s = l.stats();
        assert_eq!(s.written, 0);
        assert_eq!(s.dropped, 1);
    }
}
