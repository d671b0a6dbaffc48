//! QoS-aware admission scheduling.
//!
//! [`AdmissionQueue`] is the bounded queue between `submit()` and the
//! worker pool: a full queue answers `Overloaded`, and close drains what
//! was admitted, then answers `None`. A freed worker takes the queued job
//! with the earliest absolute deadline (EDF), so a tight-deadline request
//! is not stuck behind a lax one. Under a uniform deadline this is
//! arrival order, which bounds every request's wait.
//!
//! **Fairness** is layered *over* the deadline order: each user
//! accumulates dispatched expected cost, and selection orders first by
//! how many [`FAIRNESS_QUANTUM_US`] quanta the user has consumed, then by
//! deadline, then by arrival sequence. A user who has already burned a
//! full quantum while another user waits goes to the back, so one heavy
//! user cannot starve the queue. The per-user history resets when the
//! queue drains. A user with nothing queued who is still under one quantum
//! is forgotten at once, since its fair tag is 0 either way: a light user
//! who returns starts from 0 again, and the map holds only users with
//! queued jobs or a quantum used since the last drain. Admission adds a
//! second guard: with `user_share < 1.0`, one user may hold at most that
//! fraction of queue capacity (rejections count as overload *and* as
//! `rejected_user_quota`, so accounting stays 100%).
//!
//! The **cost model** prices each job for the fairness layer. It keeps
//! one [`LatencyHistogram`] per job class (recommend plus each explain
//! method), fed with observed service time on completion. A class's
//! expected cost is its histogram mean blended with a static prior that
//! weighs as much as 4 observations, so jobs are priced sensibly before
//! warm-up.
//!
//! Every decision is observable: a bounded dispatch log (test hook),
//! a `reordered_total` counter (dispatches that jumped arrival order),
//! and per-class expected costs in `/metrics`.

use emigre_core::Method;
use emigre_obs::LatencyHistogram;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Expected cost a user burns before yielding to less-served users in
/// selection order, in µs.
pub const FAIRNESS_QUANTUM_US: u64 = 250_000;

/// The cost classes the model distinguishes: one per explain method
/// plus recommends. Feedback and stall jobs are not scheduled jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    Recommend,
    Explain(Method),
}

impl JobClass {
    fn index(&self) -> usize {
        match self {
            JobClass::Recommend => 0,
            JobClass::Explain(m) => 1 + Method::ALL.iter().position(|x| x == m).unwrap_or(0),
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            JobClass::Recommend => "recommend",
            JobClass::Explain(m) => m.label(),
        }
    }

    /// The endpoint serving this class: `"explain"` or `"recommend"`.
    pub fn endpoint(&self) -> &'static str {
        match self {
            JobClass::Recommend => "recommend",
            JobClass::Explain(_) => "explain",
        }
    }

    /// Static prior for expected service time, used before the class
    /// histogram warms up. Magnitudes come from BENCH_ppr.json:
    /// recommends are a cached-push lookup, incremental explains scan
    /// few candidates, powerset/exhaustive/brute searches are the heavy
    /// tail. Observations take over as they arrive.
    fn prior_us(&self) -> u64 {
        match self {
            JobClass::Recommend => 2_000,
            JobClass::Explain(Method::AddIncremental | Method::RemoveIncremental) => 20_000,
            JobClass::Explain(Method::RemoveExhaustiveDirect) => 150_000,
            JobClass::Explain(
                Method::AddPowerset
                | Method::RemovePowerset
                | Method::Combined
                | Method::CombinedMinimal,
            ) => 200_000,
            JobClass::Explain(
                Method::AddExhaustive | Method::RemoveExhaustive | Method::RemoveBruteForce,
            ) => 400_000,
        }
    }
}

/// Per-class service-time histograms with priors; expected cost is the
/// blended mean. All interior mutability — shared by reference.
pub struct CostModel {
    classes: Vec<(JobClass, LatencyHistogram)>,
}

/// Weight (in pseudo-observations) of the prior in the blended mean.
const PRIOR_WEIGHT: u64 = 4;

impl CostModel {
    fn new() -> Self {
        let mut classes = vec![(JobClass::Recommend, LatencyHistogram::new())];
        for m in Method::ALL {
            classes.push((JobClass::Explain(m), LatencyHistogram::new()));
        }
        CostModel { classes }
    }

    /// Records an observed service time (queue wait excluded).
    pub fn observe(&self, class: JobClass, service_us: u64) {
        self.classes[class.index()].1.record_us(service_us);
    }

    /// Blended expected service time for `class`, in µs.
    pub fn expected_us(&self, class: JobClass) -> u64 {
        let (c, hist) = &self.classes[class.index()];
        debug_assert_eq!(c.index(), class.index());
        let snap = hist.snapshot();
        let n = snap.count;
        if n == 0 {
            return class.prior_us();
        }
        let observed_mean = snap.mean_us();
        let prior = class.prior_us() as f64;
        let blended =
            (prior * PRIOR_WEIGHT as f64 + observed_mean * n as f64) / (PRIOR_WEIGHT + n) as f64;
        blended.round() as u64
    }

    fn snapshot(&self) -> Vec<CostClassSnapshot> {
        self.classes
            .iter()
            .map(|(c, h)| CostClassSnapshot {
                class: c.label().to_owned(),
                observed: h.count(),
                expected_us: self.expected_us(*c),
            })
            .collect()
    }
}

/// One cost-model class in `/metrics`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostClassSnapshot {
    pub class: String,
    /// Completed jobs observed into the class histogram.
    pub observed: u64,
    /// Current blended expected service time, µs.
    pub expected_us: u64,
}

/// Scheduler state in `/metrics`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SchedSnapshot {
    /// Dispatches that jumped ahead of an earlier arrival.
    pub reordered_total: u64,
    /// Admissions rejected by the per-user share cap (these also count
    /// in `rejected_overload` — the accounting invariant is untouched).
    pub rejected_user_quota: u64,
    pub classes: Vec<CostClassSnapshot>,
}

/// Why `try_push` refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// Queue at capacity.
    Overloaded,
    /// This user already holds its share of the queue.
    UserQuota,
    /// Queue closed (service shutting down).
    Closed,
}

/// Scheduling metadata carried alongside the payload.
#[derive(Debug, Clone, Copy)]
pub struct JobMeta {
    pub request_id: u64,
    pub user: u32,
    pub class: JobClass,
    pub admitted_at: Instant,
    pub deadline: Instant,
    /// Expected service cost at admission time (µs) — frozen so the
    /// job's sort key cannot drift while it waits.
    pub expected_cost_us: u64,
}

struct Entry<T> {
    item: T,
    meta: JobMeta,
    seq: u64,
    /// Privileged entries (worker-stall test jobs) bypass quota and
    /// always dispatch first, in arrival order.
    privileged: bool,
}

struct UserState {
    /// Entries currently queued.
    pending: usize,
    /// Expected cost dispatched since this entry was created. Entries are
    /// dropped when the queue drains, and when their user goes idle under
    /// one quantum.
    dispatched_cost_us: u64,
}

struct State<T> {
    entries: Vec<Entry<T>>,
    users: HashMap<u32, UserState>,
    closed: bool,
    next_seq: u64,
}

/// Bounded, deadline-ordered, fairness-aware admission queue.
///
/// Replaces the crossbeam channel: producers `try_push` (non-blocking,
/// rejecting), workers `pop` (blocking via condvar, `None` after close
/// once drained). The vendored parking_lot has no `Condvar`, so this
/// uses `std::sync` — the queue is tiny (≤ capacity entries) and every
/// operation is a short critical section.
pub struct AdmissionQueue<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    capacity: usize,
    /// Max fraction of `capacity` one user may occupy; `1.0` disables
    /// the cap.
    user_share: f64,
    cost: CostModel,
    base: Instant,
    reordered: AtomicU64,
    rejected_user_quota: AtomicU64,
    /// Last dispatched request ids, newest at the back (test hook for
    /// asserting scheduling order without racing on wall-clock).
    dispatch_log: Mutex<VecDeque<u64>>,
}

const DISPATCH_LOG_CAP: usize = 256;

impl<T> AdmissionQueue<T> {
    pub fn new(capacity: usize, user_share: f64) -> Self {
        AdmissionQueue {
            state: Mutex::new(State {
                entries: Vec::new(),
                users: HashMap::new(),
                closed: false,
                next_seq: 0,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
            user_share,
            cost: CostModel::new(),
            base: Instant::now(),
            reordered: AtomicU64::new(0),
            rejected_user_quota: AtomicU64::new(0),
            dispatch_log: Mutex::new(VecDeque::new()),
        }
    }

    /// Expected cost for a class right now (what `submit` stamps into
    /// the job and the event log).
    pub fn expected_cost_us(&self, class: JobClass) -> u64 {
        self.cost.expected_us(class)
    }

    /// Feeds an observed service time back into the cost model.
    pub fn observe_cost(&self, class: JobClass, service_us: u64) {
        self.cost.observe(class, service_us);
    }

    /// Queued (not yet dispatched) jobs.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking admission. A full queue answers `Overloaded` to
    /// everyone; while room remains, a user already holding its share
    /// answers `UserQuota`. A refused job comes back with the error.
    pub fn try_push(&self, item: T, meta: JobMeta) -> Result<(), (AdmitError, T)> {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return Err((AdmitError::Closed, item));
        }
        if st.entries.len() >= self.capacity {
            return Err((AdmitError::Overloaded, item));
        }
        let user_cap = self.user_cap();
        let user = st.users.entry(meta.user).or_insert(UserState {
            pending: 0,
            dispatched_cost_us: 0,
        });
        if user.pending >= user_cap {
            drop(st);
            self.rejected_user_quota.fetch_add(1, Ordering::Relaxed);
            return Err((AdmitError::UserQuota, item));
        }
        user.pending += 1;
        let seq = st.next_seq;
        st.next_seq += 1;
        st.entries.push(Entry {
            item,
            meta,
            seq,
            privileged: false,
        });
        drop(st);
        self.available.notify_one();
        Ok(())
    }

    /// Admission for worker-stall test jobs: bypasses quota and
    /// capacity is still respected (callers size the queue to fit).
    pub fn push_privileged(&self, item: T, meta: JobMeta) -> Result<(), AdmitError> {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return Err(AdmitError::Closed);
        }
        if st.entries.len() >= self.capacity {
            return Err(AdmitError::Overloaded);
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.entries.push(Entry {
            item,
            meta,
            seq,
            privileged: true,
        });
        drop(st);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until a job is available (earliest deadline first, under
    /// per-user fairness) or the queue is closed *and* drained.
    pub fn pop(&self) -> Option<(T, JobMeta)> {
        let mut st = self.state.lock().unwrap();
        loop {
            if !st.entries.is_empty() {
                let idx = self.select(&st);
                let min_seq = st.entries.iter().map(|e| e.seq).min().unwrap();
                let entry = st.entries.swap_remove(idx);
                if entry.seq != min_seq {
                    self.reordered.fetch_add(1, Ordering::Relaxed);
                }
                if !entry.privileged {
                    let user = entry.meta.user;
                    if let Some(u) = st.users.get_mut(&user) {
                        u.pending = u.pending.saturating_sub(1);
                        u.dispatched_cost_us = u
                            .dispatched_cost_us
                            .saturating_add(entry.meta.expected_cost_us);
                        // Nothing queued and under one quantum: its fair tag
                        // is 0, as for an absent user, so forget it.
                        if u.pending == 0 && u.dispatched_cost_us < FAIRNESS_QUANTUM_US {
                            st.users.remove(&user);
                        }
                    }
                }
                if st.entries.is_empty() {
                    // Queue drained: no one is waiting, so consumed-share
                    // history is moot. Resetting keeps fair tags from
                    // growing without bound and bounds the user map.
                    st.users.clear();
                }
                drop(st);
                let mut log = self.dispatch_log.lock().unwrap();
                if log.len() == DISPATCH_LOG_CAP {
                    log.pop_front();
                }
                log.push_back(entry.meta.request_id);
                return Some((entry.item, entry.meta));
            }
            if st.closed {
                return None;
            }
            st = self.available.wait(st).unwrap();
        }
    }

    /// Closes the queue: producers get `Closed`, workers drain what was
    /// admitted then see `None`.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.available.notify_all();
    }

    /// Recently dispatched request ids, oldest first (test hook).
    pub fn dispatch_order(&self) -> Vec<u64> {
        self.dispatch_log.lock().unwrap().iter().copied().collect()
    }

    /// Dispatches that jumped ahead of an earlier arrival.
    pub fn reordered_total(&self) -> u64 {
        self.reordered.load(Ordering::Relaxed)
    }

    /// Admissions refused by the per-user share cap.
    pub fn rejected_user_quota(&self) -> u64 {
        self.rejected_user_quota.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> SchedSnapshot {
        SchedSnapshot {
            reordered_total: self.reordered_total(),
            rejected_user_quota: self.rejected_user_quota(),
            classes: self.cost.snapshot(),
        }
    }

    fn user_cap(&self) -> usize {
        if self.user_share >= 1.0 {
            return self.capacity;
        }
        ((self.capacity as f64 * self.user_share).floor() as usize).max(1)
    }

    /// Index of the entry to dispatch next. Lexicographic key:
    /// `(privileged?, fair_tag, deadline, seq)`: privileged first, then
    /// the least-served user, then the earliest deadline, then arrival
    /// order. A deadline past `u64::MAX` µs saturates rather than wraps.
    fn select(&self, st: &State<T>) -> usize {
        let key = |e: &Entry<T>| -> (u8, u64, u64, u64) {
            if e.privileged {
                return (0, 0, 0, e.seq);
            }
            let fair_tag = st
                .users
                .get(&e.meta.user)
                .map(|u| u.dispatched_cost_us / FAIRNESS_QUANTUM_US)
                .unwrap_or(0);
            let deadline = e.meta.deadline.saturating_duration_since(self.base);
            let deadline_us = u64::try_from(deadline.as_micros()).unwrap_or(u64::MAX);
            (1, fair_tag, deadline_us, e.seq)
        };
        st.entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| key(e))
            .map(|(i, _)| i)
            .expect("select on non-empty queue")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn meta(id: u64, user: u32, class: JobClass, deadline_ms: u64) -> JobMeta {
        JobMeta {
            request_id: id,
            user,
            class,
            admitted_at: Instant::now(),
            deadline: Instant::now() + Duration::from_millis(deadline_ms),
            expected_cost_us: 0,
        }
    }

    fn push(q: &AdmissionQueue<u64>, id: u64, user: u32, class: JobClass, deadline_ms: u64) {
        let mut m = meta(id, user, class, deadline_ms);
        m.expected_cost_us = q.expected_cost_us(class);
        q.try_push(id, m).unwrap();
    }

    #[test]
    fn fifo_preserves_arrival_order() {
        // Under a uniform deadline, earliest-deadline-first is arrival
        // order.
        let q = AdmissionQueue::new(8, 1.0);
        for id in 0..4 {
            push(&q, id, id as u32, JobClass::Recommend, 1000);
        }
        let order: Vec<u64> = (0..4).map(|_| q.pop().unwrap().0).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(q.reordered_total(), 0);
    }

    #[test]
    fn deadline_policy_orders_by_deadline() {
        let q = AdmissionQueue::new(8, 1.0);
        push(&q, 20, 1, JobClass::Recommend, 10_000);
        push(&q, 21, 1, JobClass::Recommend, 100);
        assert_eq!(q.pop().unwrap().0, 21);
        assert_eq!(q.pop().unwrap().0, 20);
    }

    #[test]
    fn a_far_future_deadline_does_not_jump_the_queue() {
        let q = AdmissionQueue::new(8, 1.0);
        push(&q, 1, 1, JobClass::Recommend, 100);
        // 2^64 µs + 10 µs ahead: a key taken modulo 2^64 would read 10 µs.
        let mut far = meta(2, 2, JobClass::Recommend, 0);
        far.deadline += Duration::from_micros(u64::MAX) + Duration::from_micros(11);
        q.try_push(2, far).unwrap();
        let order: Vec<u64> = (0..2).map(|_| q.pop().unwrap().0).collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn fairness_yields_to_less_served_user() {
        let q = AdmissionQueue::new(16, 1.0);
        // User 1 floods four brute-force explains, each priced at one
        // quantum or more; user 2 arrives last with one recommend.
        let flood = JobClass::Explain(Method::RemoveBruteForce);
        assert!(q.expected_cost_us(flood) >= FAIRNESS_QUANTUM_US);
        for id in 0..4 {
            push(&q, id, 1, flood, 1000);
        }
        push(&q, 99, 2, JobClass::Recommend, 1000);
        let order: Vec<u64> = (0..5).map(|_| q.pop().unwrap().0).collect();
        // After user 1's first dispatch its fair tag exceeds user 2's,
        // so user 2 goes second despite arriving last.
        assert_eq!(order, vec![0, 99, 1, 2, 3]);
    }

    #[test]
    fn distinct_users_do_not_grow_the_fairness_map() {
        let q = AdmissionQueue::new(8, 1.0);
        // One far-deadline job keeps the queue from ever draining.
        push(&q, 0, 0, JobClass::Recommend, 3_600_000);
        for user in 1..=10_000u32 {
            push(&q, user as u64, user, JobClass::Recommend, 1000);
            assert_eq!(q.pop().unwrap().0, user as u64);
        }
        let users = q.state.lock().unwrap().users.len();
        assert!(users <= 2, "{users} fairness entries for 1 queued job");
    }

    #[test]
    fn user_share_caps_a_flooding_user() {
        let q = AdmissionQueue::new(8, 0.25); // 2 of 8 slots per user
        push(&q, 0, 7, JobClass::Recommend, 1000);
        push(&q, 1, 7, JobClass::Recommend, 1000);
        let m = meta(2, 7, JobClass::Recommend, 1000);
        assert_eq!(q.try_push(2, m), Err((AdmitError::UserQuota, 2)));
        assert_eq!(q.rejected_user_quota(), 1);
        // Another user still gets in.
        push(&q, 3, 8, JobClass::Recommend, 1000);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn capacity_rejects_with_overloaded() {
        let q = AdmissionQueue::new(2, 1.0);
        push(&q, 0, 1, JobClass::Recommend, 1000);
        push(&q, 1, 2, JobClass::Recommend, 1000);
        let m = meta(2, 3, JobClass::Recommend, 1000);
        assert_eq!(q.try_push(2, m), Err((AdmitError::Overloaded, 2)));
    }

    #[test]
    fn close_drains_then_none() {
        let q = AdmissionQueue::new(8, 1.0);
        push(&q, 0, 1, JobClass::Recommend, 1000);
        q.close();
        let m = meta(1, 1, JobClass::Recommend, 1000);
        assert_eq!(q.try_push(1, m), Err((AdmitError::Closed, 1)));
        assert_eq!(q.pop().unwrap().0, 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn cost_model_learns_from_observations() {
        let q: AdmissionQueue<u64> = AdmissionQueue::new(8, 1.0);
        let cold = q.expected_cost_us(JobClass::Recommend);
        assert_eq!(cold, 2_000); // prior
        for _ in 0..100 {
            q.observe_cost(JobClass::Recommend, 400);
        }
        let warm = q.expected_cost_us(JobClass::Recommend);
        assert!(warm < cold, "mean should pull toward observations: {warm}");
        let snap = q.snapshot();
        let rec = snap
            .classes
            .iter()
            .find(|c| c.class == "recommend")
            .unwrap();
        assert_eq!(rec.observed, 100);
        assert_eq!(rec.expected_us, warm);
    }
}
