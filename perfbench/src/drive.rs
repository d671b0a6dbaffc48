//! Drives one workload against an in-process [`ExplanationService`]: one
//! closed-loop client sends the round of reads with bursts of toggle
//! writes between its slices, and checks every answer against the
//! reference for the graph state of the epoch it was served from. Every
//! request is preceded by one [`Yardstick`] push, timed, so that each
//! latency comes with the host's speed at that moment.

use crate::inputs::{Class, Inputs, Question, Request, LIST_K};
use crate::yardstick::Yardstick;
use emigre_hin::NodeId;
use emigre_obs::StageLatencies;
use emigre_serve::{ExplanationService, MetricsSnapshot, RecommendOutcome};
use std::time::{Duration, Instant};

/// Far beyond any request's service time: nothing expires in the queue.
pub const DEADLINE: Duration = Duration::from_secs(60);

/// A cycle reads the round in this many consecutive slices, so that write
/// bursts, and the host moments they sample, recur through a run.
const SLICES: usize = 4;

/// Each slice of a cycle is read this many times back to back, so each
/// read is sampled this many times per cycle.
const REPEATS: usize = 3;

/// Toggle writes landed after every slice of a cycle.
const BURST: usize = 16;

/// One traffic mix. Both workloads send the same reads and writes in the
/// same order; they differ only in what the caches can keep.
pub struct Workload {
    pub name: &'static str,
    /// Session- and column-cache capacity, in entries.
    pub cache_capacity: usize,
}

pub static WORKLOADS: [Workload; 2] = [
    // The caches hold every user and Why-Not item, and each slice is read
    // three times between write bursts: only the first read of a key after
    // a burst misses, so most reads are cache hits.
    Workload {
        name: "hot",
        cache_capacity: 256,
    },
    // The same traffic through two-entry caches. Consecutive reads come
    // from different users, so every lookup misses and every read builds
    // its context.
    Workload {
        name: "cold",
        cache_capacity: 2,
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Recommend,
    Explain(Class),
}

/// One answered read of the measured window.
pub struct Read {
    pub kind: Kind,
    /// Position of the read in its round: the same request every round.
    pub slot: usize,
    /// Start, relative to the start of the measured window.
    pub start: Duration,
    /// Latency as the client sees it, in milliseconds.
    pub ms: f64,
    /// The yardstick push timed right before the request, in milliseconds.
    pub yardstick_ms: f64,
    /// The service's own attribution of the request's time.
    pub stages: StageLatencies,
}

/// One published write of the measured window.
pub struct Write {
    /// Position of the write in its burst: the first write after a slice
    /// of reads costs more than the ones behind it.
    pub slot: usize,
    pub start: Duration,
    pub ms: f64,
    pub yardstick_ms: f64,
}

/// What one run recorded.
#[derive(Default)]
pub struct Samples {
    pub reads: Vec<Read>,
    pub writes: Vec<Write>,
    /// Requests sent, warm-up included.
    pub attempted: u64,
    /// Requests the service refused or could not answer.
    pub failed: u64,
    /// Answers that differ from the reference.
    pub wrong: u64,
    pub first_problem: Option<String>,
    /// Service metrics at the start and the end of the measured window.
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
}

struct Driver<'a> {
    svc: &'a ExplanationService,
    inputs: &'a Inputs,
    yardstick: &'a Yardstick,
    /// The yardstick time taken right before the request in flight.
    yardstick_ms: f64,
    /// Epochs published so far: the epoch every read must be served from.
    epoch: u64,
    /// Start of the measured window; `None` while warming up.
    window: Option<Instant>,
    out: Samples,
}

/// Runs one warm-up round, then whole cycles until `seconds` have passed,
/// calling `between_cycles` after each cycle.
pub fn run(
    svc: &ExplanationService,
    inputs: &Inputs,
    yardstick: &Yardstick,
    seconds: f64,
    between_cycles: &mut dyn FnMut(),
) -> Samples {
    let mut d = Driver {
        svc,
        inputs,
        yardstick,
        yardstick_ms: 0.0,
        epoch: 0,
        window: None,
        out: Samples::default(),
    };
    // Fills the caches and settles the allocator before timing.
    d.read(0..inputs.round.len());
    d.out.before = svc.metrics();
    let start = Instant::now();
    d.window = Some(start);
    while d.out.reads.is_empty() || start.elapsed().as_secs_f64() < seconds {
        d.cycle();
        between_cycles();
    }
    d.out.after = svc.metrics();
    d.out
}

impl Driver<'_> {
    fn cycle(&mut self) {
        let len = self.inputs.round.len();
        let slice = len.div_ceil(SLICES);
        for first in (0..len).step_by(slice) {
            for _ in 0..REPEATS {
                self.read(first..len.min(first + slice));
            }
            for k in 0..BURST {
                self.write(k);
            }
        }
    }

    /// Sends the reads of `slots`.
    fn read(&mut self, slots: std::ops::Range<usize>) {
        let inputs = self.inputs;
        for slot in slots {
            self.yardstick_ms = self.yardstick.time();
            match &inputs.round[slot] {
                Request::Recommend { user, expected } => self.recommend(*user, expected, slot),
                Request::Explain(q) => self.explain(q, slot),
            }
        }
    }

    fn recommend(&mut self, user: NodeId, expected: &[RecommendOutcome; 2], slot: usize) {
        let t = Instant::now();
        let (_, res) = self.svc.recommend_request(user, LIST_K, DEADLINE);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match res {
            Ok(r) => {
                let right = r.items == expected[(r.epoch % 2) as usize];
                self.verify(r.epoch, right, || format!("recommend for user {}", user.0));
                self.record(Kind::Recommend, slot, t, ms, r.stages);
            }
            Err(e) => self.fail(format!("recommend for user {}: {e}", user.0)),
        }
    }

    fn explain(&mut self, q: &Question, slot: usize) {
        let t = Instant::now();
        let (_, res) = self.svc.explain_request(q.user, q.wni, q.method, DEADLINE);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let what = || {
            format!(
                "{} for user {} why-not {}",
                q.method.label(),
                q.user.0,
                q.wni.0
            )
        };
        match res {
            Ok(r) => {
                let right = r.outcome == q.expected[(r.epoch % 2) as usize];
                self.verify(r.epoch, right, what);
                self.record(Kind::Explain(q.class), slot, t, ms, r.stages);
            }
            Err(e) => self.fail(format!("{}: {e}", what())),
        }
    }

    fn write(&mut self, slot: usize) {
        let batch = &self.inputs.toggle[(self.epoch % 2) as usize];
        self.yardstick_ms = self.yardstick.time();
        let t = Instant::now();
        let (_, res) = self.svc.apply_feedback(batch);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match res {
            Ok(out) => {
                self.out.attempted += 1;
                self.epoch += 1;
                self.verify(out.epoch, true, || "feedback".to_owned());
                if let Some(start) = self.window {
                    let start = t.duration_since(start);
                    self.out.writes.push(Write {
                        slot,
                        start,
                        ms,
                        yardstick_ms: self.yardstick_ms,
                    });
                }
            }
            Err(e) => self.fail(format!("feedback at epoch {}: {e}", self.epoch)),
        }
    }

    /// Counts a wrong answer: one served from another epoch than the last
    /// one published, or one that differs from the reference.
    fn verify(&mut self, epoch: u64, right: bool, what: impl FnOnce() -> String) {
        if epoch != self.epoch || !right {
            self.out.wrong += 1;
            let expected = self.epoch;
            self.out.first_problem.get_or_insert_with(|| {
                format!(
                    "{} at epoch {epoch} (expected {expected}) differs from the reference",
                    what()
                )
            });
        }
    }

    fn record(&mut self, kind: Kind, slot: usize, t: Instant, ms: f64, stages: StageLatencies) {
        self.out.attempted += 1;
        if let Some(start) = self.window {
            self.out.reads.push(Read {
                kind,
                slot,
                start: t.duration_since(start),
                ms,
                yardstick_ms: self.yardstick_ms,
                stages,
            });
        }
    }

    fn fail(&mut self, why: String) {
        self.out.attempted += 1;
        self.out.failed += 1;
        self.out.first_problem.get_or_insert(why);
    }
}
