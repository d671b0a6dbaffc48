//! Differential suite, leg 3: fault-injected service testing.
//!
//! Drives `emigre-serve` through its [`FaultPlan`] hook and proves the
//! recovery claims: a panicked worker answers `WorkerPanicked` and keeps
//! serving, an injected delay expires exactly the job it hit, a stalled
//! worker sheds load at admission instead of queueing without bound, and
//! a poisoned cache entry is quarantined — never served — with the
//! post-poison answer still equal to the single-threaded reference.
//!
//! Every test closes with the accounting invariant: `requests_total ==
//! completed_total + rejected_overload`, and (where an event log is
//! attached) exactly one JSON line per admitted request id.

use emigre_core::{ExplainContext, Method};
use emigre_hin::NodeId;
use emigre_obs::ObsHandle;
use emigre_ppr::ReversePush;
use emigre_serve::{
    reference_explain, reference_recommend, ExplanationService, FaultPlan, RequestEvent,
    ServeError, ServiceConfig, FAULT_PANIC,
};
use emigre_testkit::{viable_questions, World, WorldParams, WorldSpec};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

/// Silences the panic hook for [`FAULT_PANIC`] payloads only, so planned
/// worker crashes don't spray backtraces over the test output while real
/// panics still report normally.
fn quiet_fault_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let planned = payload
                .downcast_ref::<String>()
                .map(|s| s.contains(FAULT_PANIC))
                .or_else(|| {
                    payload
                        .downcast_ref::<&str>()
                        .map(|s| s.contains(FAULT_PANIC))
                })
                .unwrap_or(false);
            if !planned {
                prev(info);
            }
        }));
    });
}

/// A generated world with at least one viable Why-Not question.
fn fault_world() -> (World, NodeId, NodeId) {
    let params = WorldParams {
        // No dangling items: the service answers recommend for any user.
        pathologies: false,
        ..WorldParams::default()
    };
    for seed in 0..500u64 {
        let world = WorldSpec::sample_seeded(seed, &params).build();
        if let Some(&(user, wni)) = viable_questions(&world, 1).first() {
            return (world, user, wni);
        }
    }
    panic!("no generated world produced a viable question");
}

fn unique_log_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("emigre-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}-{}.jsonl",
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Parses the event log and checks it holds exactly one line per id in
/// `1..=expected`, returning the events keyed by request id order.
fn read_log(path: &PathBuf, expected: u64) -> Vec<RequestEvent> {
    let text = std::fs::read_to_string(path).unwrap();
    let mut events: Vec<RequestEvent> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("event line parses"))
        .collect();
    events.sort_by_key(|e| e.request_id);
    let ids: HashSet<u64> = events.iter().map(|e| e.request_id).collect();
    assert_eq!(
        events.len() as u64,
        expected,
        "one event line per request: {events:?}"
    );
    assert_eq!(ids.len(), events.len(), "request ids are unique in the log");
    assert!(
        (1..=expected).all(|id| ids.contains(&id)),
        "every admitted id is logged: {ids:?}"
    );
    events
}

fn accounting_holds(service: &ExplanationService) {
    let m = service.metrics();
    assert_eq!(
        m.requests_total,
        m.completed_total + m.rejected_overload,
        "every admitted request is accounted exactly once: {m:?}"
    );
}

#[test]
fn panicked_worker_recovers_and_accounts_every_request() {
    quiet_fault_panics();
    let (world, user, wni) = fault_world();
    let log = unique_log_path("panic");
    let plan = FaultPlan::new();
    plan.panic_on(2); // the second request crashes its worker mid-job
    let service = ExplanationService::start(
        world.graph.clone(),
        world.cfg.clone(),
        ServiceConfig {
            workers: 1,
            event_log: Some(log.clone()),
            faults: Some(plan.handle()),
            ..ServiceConfig::default()
        },
    );
    let deadline = Duration::from_secs(60);
    let method = Method::RemoveIncremental;

    let (id1, r1) = service.explain_request(user, wni, method, deadline);
    assert_eq!(id1, 1);
    let first = r1.expect("healthy request answers").outcome;

    let (id2, r2) = service.explain_request(user, wni, method, deadline);
    assert_eq!(id2, 2);
    assert_eq!(r2.unwrap_err(), ServeError::WorkerPanicked);
    assert_eq!(plan.triggered(), 1);

    // The same worker thread keeps serving on a rebuilt workspace, and
    // the post-panic answer matches both the pre-panic one and the
    // single-threaded reference.
    let (id3, r3) = service.explain_request(user, wni, method, deadline);
    assert_eq!(id3, 3);
    let third = r3.expect("worker recovered after the panic").outcome;
    assert_eq!(third, first, "recovery does not change the verdict");
    let reference = reference_explain(&world.graph, &world.cfg, user, wni, method)
        .expect("question stays valid");
    assert_eq!(third, reference);

    let rec = service
        .recommend(user, 5)
        .expect("recommend also works post-panic");
    assert_eq!(
        rec,
        reference_recommend(&world.graph, &world.cfg, user, 5).unwrap()
    );

    let m = service.metrics();
    assert_eq!(m.worker_panics, 1);
    assert_eq!(m.requests_total, 4);
    assert_eq!(m.completed_total, 4);
    assert_eq!(m.rejected_overload, 0);
    accounting_holds(&service);

    service.shutdown();
    let events = read_log(&log, 4);
    assert_eq!(events[1].outcome, "worker_panic");
    assert_eq!(events[1].endpoint, "explain");
    assert!(events[1].stages.total_us > 0, "panic time is attributed");
    let _ = std::fs::remove_file(&log);
}

#[test]
fn a_panicked_request_is_timed_like_any_other_dequeued_request() {
    quiet_fault_panics();
    let (world, user, wni) = fault_world();
    let log = unique_log_path("panic-timing");
    let plan = FaultPlan::new();
    plan.panic_on(1);
    let service = Arc::new(ExplanationService::start(
        world.graph.clone(),
        world.cfg.clone(),
        ServiceConfig {
            workers: 1,
            event_log: Some(log.clone()),
            faults: Some(plan.handle()),
            ..ServiceConfig::default()
        },
    ));
    // The request waits behind a stalled worker, then panics at dequeue.
    let stall_for = Duration::from_millis(200);
    let stall = service.stall_workers_for_test();
    let s = Arc::clone(&service);
    let panicked = std::thread::spawn(move || {
        s.explain_request(
            user,
            wni,
            Method::RemoveIncremental,
            Duration::from_secs(60),
        )
    });
    let wait = Instant::now();
    while service.metrics().queue_depth < 1 {
        assert!(wait.elapsed() < Duration::from_secs(10), "never queued");
        std::thread::yield_now();
    }
    std::thread::sleep(stall_for);
    drop(stall);
    let (id, r) = panicked.join().unwrap();
    assert_eq!(r.unwrap_err(), ServeError::WorkerPanicked);

    let m = service.metrics();
    assert_eq!(m.worker_panics, 1);
    let stalled_us = stall_for.as_micros() as u64;
    for (name, h) in [
        ("queue_wait", &m.queue_wait),
        ("queue_wait_explain", &m.queue_wait_explain),
    ] {
        assert_eq!(h.count, 1, "{name} has the panicked request");
        assert!(h.max_us >= stalled_us, "{name} holds the stall: {h:?}");
    }
    assert_eq!(m.explain_latency.count, 1);
    assert!(
        m.explain_latency.max_us < stalled_us,
        "the latency histogram gets the service time only: {:?}",
        m.explain_latency
    );
    assert_eq!(m.stage_test.count, 0, "the panicked job ran no stage");
    accounting_holds(&service);

    service.shutdown();
    let events = read_log(&log, 1);
    let e = &events[0];
    assert_eq!((e.request_id, e.outcome.as_str()), (id, "worker_panic"));
    assert!(e.stages.queue_us >= stalled_us, "{:?}", e.stages);
    assert!(e.stages.total_us >= e.stages.queue_us);
    assert!(e.expected_cost_us.is_some(), "admission's estimate is kept");
    assert_eq!(e.epoch, None, "a panicked request reports no epoch");
    let _ = std::fs::remove_file(&log);
}

#[test]
fn injected_delay_expires_exactly_the_job_it_hit() {
    quiet_fault_panics();
    let (world, user, wni) = fault_world();
    let plan = FaultPlan::new();
    // Request 1 dequeues, sleeps past its own deadline, and is dropped;
    // request 2 runs on the same worker afterwards, unharmed.
    plan.delay(1, Duration::from_millis(120));
    let service = ExplanationService::start(
        world.graph.clone(),
        world.cfg.clone(),
        ServiceConfig {
            workers: 1,
            faults: Some(plan.handle()),
            ..ServiceConfig::default()
        },
    );
    let method = Method::RemoveIncremental;

    let (id1, r1) = service.explain_request(user, wni, method, Duration::from_millis(20));
    assert_eq!(id1, 1);
    assert_eq!(r1.unwrap_err(), ServeError::DeadlineExceeded);

    let (_, r2) = service.explain_request(user, wni, method, Duration::from_secs(60));
    r2.expect("the worker is healthy after the slow job");

    let m = service.metrics();
    assert_eq!(m.rejected_deadline, 1);
    assert_eq!(m.worker_panics, 0);
    accounting_holds(&service);
    service.shutdown();
}

#[test]
fn stalled_worker_sheds_load_and_drains_after_release() {
    quiet_fault_panics();
    let (world, user, wni) = fault_world();
    let log = unique_log_path("stall");
    let plan = FaultPlan::new();
    let release = plan.block(1); // request 1 parks the only worker
    let service = Arc::new(ExplanationService::start(
        world.graph.clone(),
        world.cfg.clone(),
        ServiceConfig {
            workers: 1,
            queue_capacity: 2,
            event_log: Some(log.clone()),
            faults: Some(plan.handle()),
            ..ServiceConfig::default()
        },
    ));
    let method = Method::RemoveIncremental;
    let deadline = Duration::from_secs(60);

    // Blocked in-flight request plus two queued behind it, submitted one
    // at a time so ids (and the queue fill) are deterministic.
    let mut handles = Vec::new();
    for expect_id in 1..=3u64 {
        let s = Arc::clone(&service);
        handles.push(std::thread::spawn(move || {
            s.explain_request(user, wni, method, deadline)
        }));
        let wait = Instant::now();
        loop {
            let occupied = plan.triggered() >= 1; // worker holds request 1
            let queued = service.metrics().queue_depth;
            if occupied && queued + 1 >= expect_id {
                break;
            }
            assert!(
                wait.elapsed() < Duration::from_secs(10),
                "request {expect_id} never reached the service"
            );
            std::thread::yield_now();
        }
    }

    // Queue is full while the worker is parked: admission sheds load.
    let (id4, r4) = service.explain_request(user, wni, method, deadline);
    assert_eq!(id4, 4);
    assert_eq!(r4.unwrap_err(), ServeError::Overloaded);

    drop(release); // un-stall; the backlog drains
    for h in handles {
        let (_, r) = h.join().unwrap();
        r.expect("queued requests answer after the stall lifts");
    }

    let m = service.metrics();
    assert_eq!(m.requests_total, 4);
    assert_eq!(m.completed_total, 3);
    assert_eq!(m.rejected_overload, 1);
    accounting_holds(&service);

    service.shutdown();
    let events = read_log(&log, 4);
    assert_eq!(
        events
            .iter()
            .filter(|e| e.outcome == "rejected_overload")
            .count(),
        1
    );
    let _ = std::fs::remove_file(&log);
}

#[test]
fn poisoned_cache_entries_are_quarantined_not_served() {
    quiet_fault_panics();
    let (world, user, wni) = fault_world();
    let service = ExplanationService::start(
        world.graph.clone(),
        world.cfg.clone(),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let method = Method::RemoveIncremental;
    let deadline = Duration::from_secs(60);

    // Warm both caches with a healthy request.
    let (_, r1) = service.explain_request(user, wni, method, deadline);
    let healthy = r1.expect("warmup answers").outcome;

    // Poison the session cache: real artifacts with a corrupted owner
    // marker (a stand-in for any corruption that breaks the artefact's
    // structural invariants).
    let mut bad_art = emigre_core::UserArtifacts::build(
        &*service.graph(),
        service.config(),
        service.kernel(),
        user,
        &ObsHandle::disabled(),
    )
    .expect("the question's user has artifacts");
    bad_art.user = NodeId(user.0 ^ 1);
    service.poison_session_for_test(user, Arc::new(bad_art));

    // Poison the column cache: reverse pushes on the wrong target under
    // the keys of the WNI and of `rec`, the two columns every explain's
    // context reads.
    let rec = ExplainContext::build(&world.graph, world.cfg.clone(), user, wni)
        .expect("the question is valid")
        .rec;
    let wrong_target = world
        .items
        .iter()
        .copied()
        .find(|&i| i != wni && i != rec)
        .expect("worlds have several items");
    let bad_col = ReversePush::compute(&*service.kernel(), &service.config().rec.ppr, wrong_target);
    service.poison_column_for_test(wni, Arc::new(bad_col));
    let bad_col = ReversePush::compute(&*service.kernel(), &service.config().rec.ppr, wni);
    service.poison_column_for_test(rec, Arc::new(bad_col));

    // Served answers after poisoning: detected, quarantined, rebuilt —
    // and still equal to the healthy answer and the reference.
    let (_, r2) = service.explain_request(user, wni, method, deadline);
    let after = r2.expect("poisoned entries never fail the request").outcome;
    assert_eq!(
        after, healthy,
        "no verdict is served from a poisoned artifact"
    );
    let reference = reference_explain(&world.graph, &world.cfg, user, wni, method).unwrap();
    assert_eq!(after, reference);

    let rec = service.recommend(user, 5).expect("recommend rebuilds too");
    assert_eq!(
        rec,
        reference_recommend(&world.graph, &world.cfg, user, 5).unwrap()
    );

    let m = service.metrics();
    assert_eq!(
        m.cache_poison_detected, 3,
        "the poisoned session and both poisoned columns were detected: {m:?}"
    );

    // Poison a column only Exhaustive Comparison reads: a push on the
    // wrong target under the key of a target other than `rec` and the
    // Why-Not item.
    let (user, wni, target) = viable_questions(&world, usize::MAX)
        .into_iter()
        .find_map(|(user, wni)| {
            let ctx = ExplainContext::build(&world.graph, world.cfg.clone(), user, wni).ok()?;
            let target = ctx.targets().into_iter().find(|&t| t != ctx.rec)?;
            Some((user, wni, target))
        })
        .expect("some question has a target besides rec");
    let bad_col = ReversePush::compute(&*service.kernel(), &service.config().rec.ppr, wni);
    service.poison_column_for_test(target, Arc::new(bad_col));
    let method = Method::RemoveExhaustive;
    let (_, r3) = service.explain_request(user, wni, method, deadline);
    let served = r3.expect("a poisoned target column never fails the request");
    assert_eq!(
        served.outcome,
        reference_explain(&world.graph, &world.cfg, user, wni, method).unwrap()
    );
    let m = service.metrics();
    assert_eq!(m.worker_panics, 0);
    assert_eq!(
        m.cache_poison_detected, 4,
        "the poisoned target column was detected: {m:?}"
    );
    accounting_holds(&service);
    service.shutdown();
}
