//! Deterministic QoS-scheduler tests at the service layer.
//!
//! Every scenario stalls the workers first (so the whole contested batch
//! is queued before anything dispatches), admits requests in a known
//! order by waiting for the queue depth to tick up between submissions,
//! then releases the stall and checks the **actual dispatch order**
//! recorded by the admission queue. Closing assertion everywhere: the
//! accounting invariant `requests_total == completed_total +
//! rejected_overload` — rejections and expiries never lose a request.

use emigre_data::pipeline::{AmazonHin, PreprocessConfig};
use emigre_data::synth::{SynthConfig, SynthDataset};
use emigre_hin::{Hin, NodeId};
use emigre_serve::sched::FAIRNESS_QUANTUM_US;
use emigre_serve::{reference_recommend, ExplanationService, ServeError, ServiceConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn test_world() -> (Hin, emigre_core::EmigreConfig, Vec<NodeId>) {
    let data = SynthDataset::generate(SynthConfig {
        num_users: 16,
        num_items: 150,
        num_categories: 4,
        actions_per_user: (6, 14),
        ..SynthConfig::default()
    });
    let hin = AmazonHin::build(
        &data.raw,
        &PreprocessConfig {
            sample_users: 6,
            user_activity_range: (4, 100),
            ..PreprocessConfig::default()
        },
    );
    let mut cfg = hin.emigre_config();
    cfg.rec.ppr.epsilon = 1e-6;
    cfg.max_checks = 100;
    (hin.graph, cfg, hin.users)
}

/// Two users with valid recommendation lists (fairness needs distinct
/// principals).
fn two_users(graph: &Hin, cfg: &emigre_core::EmigreConfig, users: &[NodeId]) -> (NodeId, NodeId) {
    let mut found = Vec::new();
    for &u in users {
        if reference_recommend(graph, cfg, u, 5).is_ok() {
            found.push(u);
            if found.len() == 2 {
                return (found[0], found[1]);
            }
        }
    }
    panic!("world has fewer than two recommendable users");
}

/// One explainable (user, wni) pair.
fn one_question(
    graph: &Hin,
    cfg: &emigre_core::EmigreConfig,
    users: &[NodeId],
) -> (NodeId, NodeId) {
    for &user in users {
        if let Ok(rec) = reference_recommend(graph, cfg, user, 5) {
            if rec.len() >= 2 {
                return (user, rec[1].0);
            }
        }
    }
    panic!("world has no explainable question");
}

/// Blocks until exactly `depth` jobs sit in the admission queue.
fn wait_queue_depth(service: &ExplanationService, depth: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if service.metrics().queue_depth == depth {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "queue never reached depth {depth} (at {})",
            service.metrics().queue_depth
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn accounting_holds(service: &ExplanationService) {
    let m = service.metrics();
    assert_eq!(
        m.requests_total,
        m.completed_total + m.rejected_overload,
        "every request accounted exactly once: {m:?}"
    );
}

/// Dispatched request ids, with the privileged stall jobs (id 0)
/// filtered out.
fn dispatched(service: &ExplanationService) -> Vec<u64> {
    service
        .dispatch_order_for_test()
        .into_iter()
        .filter(|&id| id != 0)
        .collect()
}

#[test]
fn deadline_policy_dispatches_the_tighter_deadline_first() {
    let (graph, cfg, users) = test_world();
    let (user_a, user_b) = two_users(&graph, &cfg, &users);
    let service = Arc::new(ExplanationService::start(
        graph,
        cfg,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    ));
    let stall = service.stall_workers_for_test();

    // Admitted FIRST, but with a lax deadline.
    let svc = Arc::clone(&service);
    let lax =
        std::thread::spawn(move || svc.recommend_request(user_a, 5, Duration::from_secs(600)));
    wait_queue_depth(&service, 1);

    // Admitted SECOND, with a tight (but comfortably servable) deadline.
    let svc = Arc::clone(&service);
    let tight =
        std::thread::spawn(move || svc.recommend_request(user_b, 5, Duration::from_secs(30)));
    wait_queue_depth(&service, 2);

    drop(stall);
    let (lax_id, lax_result) = lax.join().unwrap();
    let (tight_id, tight_result) = tight.join().unwrap();
    lax_result.expect("lax-deadline recommend succeeds");
    tight_result.expect("tight-deadline recommend succeeds");

    assert_eq!(
        dispatched(&service),
        vec![tight_id, lax_id],
        "earliest-deadline-first overrides admission order"
    );
    let snap = service.metrics();
    assert!(
        snap.sched.reordered_total >= 1,
        "the reorder is visible in telemetry: {:?}",
        snap.sched
    );
    accounting_holds(&service);
    service.shutdown();
}

#[test]
fn fairness_lets_a_second_user_overtake_a_flooding_one() {
    let (graph, cfg, users) = test_world();
    let (flooder, latecomer) = two_users(&graph, &cfg, &users);
    let (_, wni) = one_question(&graph, &cfg, &[flooder]);
    let service = Arc::new(ExplanationService::start(
        graph,
        cfg,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    ));
    // Each flood job is priced at a full fairness quantum or more, so
    // every dispatch burns the flooder's credit and the order below is
    // exact.
    let flood_method = emigre_core::Method::RemoveBruteForce;
    let flood_cost = service
        .metrics()
        .sched
        .classes
        .iter()
        .find(|c| c.class == flood_method.label())
        .map(|c| c.expected_us)
        .expect("brute force is in the cost model");
    assert!(flood_cost >= FAIRNESS_QUANTUM_US, "{flood_cost} µs");
    let stall = service.stall_workers_for_test();

    // The flooder queues three identical jobs...
    let mut flood = Vec::new();
    for i in 0..3u64 {
        let svc = Arc::clone(&service);
        flood.push(std::thread::spawn(move || {
            svc.explain_request(flooder, wni, flood_method, Duration::from_secs(60))
        }));
        wait_queue_depth(&service, i + 1);
    }
    // ...then the latecomer asks for one.
    let svc = Arc::clone(&service);
    let late =
        std::thread::spawn(move || svc.recommend_request(latecomer, 5, Duration::from_secs(60)));
    wait_queue_depth(&service, 4);

    drop(stall);
    let flood_ids: Vec<u64> = flood
        .into_iter()
        .map(|t| {
            let (id, r) = t.join().unwrap();
            r.expect("flood request succeeds");
            id
        })
        .collect();
    let (late_id, late_result) = late.join().unwrap();
    late_result.expect("latecomer succeeds");

    assert_eq!(
        dispatched(&service),
        vec![flood_ids[0], late_id, flood_ids[1], flood_ids[2]],
        "after one flood dispatch the latecomer's zero fair-tag wins"
    );
    accounting_holds(&service);
    service.shutdown();
}

#[test]
fn user_share_cap_rejects_the_flooder_but_admits_others() {
    let (graph, cfg, users) = test_world();
    let (flooder, other) = two_users(&graph, &cfg, &users);
    let service = Arc::new(ExplanationService::start(
        graph,
        cfg,
        ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            // 25% of 8 slots = at most 2 queued jobs per user.
            user_share: 0.25,
            ..ServiceConfig::default()
        },
    ));
    let stall = service.stall_workers_for_test();

    let mut admitted = Vec::new();
    for i in 0..2u64 {
        let svc = Arc::clone(&service);
        admitted.push(std::thread::spawn(move || {
            svc.recommend_request(flooder, 5, Duration::from_secs(60))
        }));
        wait_queue_depth(&service, i + 1);
    }
    // Third job from the same user bounces off the share cap instantly —
    // the queue still has 6 free slots.
    let (_, r) = service.recommend_request(flooder, 5, Duration::from_secs(60));
    assert_eq!(r.unwrap_err(), ServeError::Overloaded);

    // A different user still gets in.
    let svc = Arc::clone(&service);
    let other_req =
        std::thread::spawn(move || svc.recommend_request(other, 5, Duration::from_secs(60)));
    wait_queue_depth(&service, 3);

    drop(stall);
    for t in admitted {
        let (_, r) = t.join().unwrap();
        r.expect("the two within-share requests succeed");
    }
    other_req.join().unwrap().1.expect("other user unaffected");

    let m = service.metrics();
    assert_eq!(m.sched.rejected_user_quota, 1, "{:?}", m.sched);
    assert_eq!(m.rejected_overload, 1, "quota rejections are overloads");
    accounting_holds(&service);
    service.shutdown();
}

#[test]
fn overload_and_expiry_account_every_request() {
    let (graph, cfg, users) = test_world();
    let (user, _) = two_users(&graph, &cfg, &users);
    let service = Arc::new(ExplanationService::start(
        graph,
        cfg,
        ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        },
    ));
    let stall = service.stall_workers_for_test();

    // Admitted, but its deadline expires while the workers are stalled.
    let svc = Arc::clone(&service);
    let doomed =
        std::thread::spawn(move || svc.recommend_request(user, 5, Duration::from_millis(1)));
    wait_queue_depth(&service, 1);

    // The queue (capacity 1) is full: immediate overload rejections.
    for _ in 0..2 {
        let (_, r) = service.recommend_request(user, 5, Duration::from_secs(60));
        assert_eq!(r.unwrap_err(), ServeError::Overloaded);
    }

    std::thread::sleep(Duration::from_millis(5)); // let the deadline lapse
    drop(stall);
    let (_, r) = doomed.join().unwrap();
    assert_eq!(r.unwrap_err(), ServeError::DeadlineExceeded);

    let m = service.metrics();
    assert_eq!(m.requests_total, 3);
    assert_eq!(m.completed_total, 1, "the expired job still completes");
    assert_eq!(m.rejected_overload, 2);
    assert_eq!(m.rejected_deadline, 1);
    accounting_holds(&service);
    service.shutdown();
}

#[test]
fn an_explain_that_expires_in_the_queue_records_no_stage_samples() {
    let (graph, cfg, users) = test_world();
    let (user, wni) = one_question(&graph, &cfg, &users);
    let service = Arc::new(ExplanationService::start(
        graph,
        cfg,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    ));
    let stall = service.stall_workers_for_test();
    let svc = Arc::clone(&service);
    let doomed = std::thread::spawn(move || {
        svc.explain_request(
            user,
            wni,
            emigre_core::Method::AddPowerset,
            Duration::from_millis(1),
        )
    });
    wait_queue_depth(&service, 1);
    std::thread::sleep(Duration::from_millis(5)); // let the deadline lapse
    drop(stall);
    let (_, r) = doomed.join().unwrap();
    assert_eq!(r.unwrap_err(), ServeError::DeadlineExceeded);

    let m = service.metrics();
    assert_eq!(m.rejected_deadline, 1);
    // The dequeued request is timed like any other...
    assert_eq!(m.queue_wait_explain.count, 1);
    assert_eq!(m.explain_latency.count, 1);
    // ...but no worker ran it, so no stage saw it.
    for (stage, h) in [
        ("context", &m.stage_context),
        ("search", &m.stage_search),
        ("test", &m.stage_test),
        ("check_parallel", &m.stage_check_parallel),
    ] {
        assert_eq!(h.count, 0, "an expired explain adds no {stage} sample");
    }
    accounting_holds(&service);
    service.shutdown();
}

#[test]
fn cost_model_learns_and_updates_the_expected_cost() {
    let (graph, cfg, users) = test_world();
    let (user, _) = two_users(&graph, &cfg, &users);
    let service = ExplanationService::start(
        graph,
        cfg,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let before = service
        .metrics()
        .sched
        .classes
        .iter()
        .find(|c| c.class == "recommend")
        .map(|c| (c.observed, c.expected_us))
        .expect("recommend class is in the snapshot");
    assert_eq!(before.0, 0, "fresh model has no observations");

    for _ in 0..5 {
        let (_, r) = service.recommend_request(user, 5, Duration::from_secs(60));
        r.expect("recommend succeeds");
    }

    let after = service
        .metrics()
        .sched
        .classes
        .iter()
        .find(|c| c.class == "recommend")
        .map(|c| (c.observed, c.expected_us))
        .unwrap();
    assert_eq!(after.0, 5, "five completions observed");
    assert_ne!(
        after.1, before.1,
        "the blended expectation moved off the prior"
    );
    accounting_holds(&service);
    service.shutdown();
}
