//! The service's contract under concurrency: answers are bit-identical to
//! the single-threaded reference path, admission control rejects
//! deterministically, shutdown drains every admitted request, and the
//! session/column caches actually get hit, Exhaustive Comparison's target
//! columns included.

use emigre_core::{ExplainContext, Method};
use emigre_data::pipeline::{AmazonHin, PreprocessConfig};
use emigre_data::synth::{SynthConfig, SynthDataset};
use emigre_hin::{GraphView, Hin, NodeId};
use emigre_ppr::ReversePush;
use emigre_serve::{
    reference_explain, reference_recommend, ExplanationService, ServeError, ServiceConfig,
};
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
    // Coarser ε + small CHECK budget: the contract under test is
    // served == reference, not explanation quality.
    cfg.rec.ppr.epsilon = 1e-6;
    cfg.max_checks = 100;
    (hin.graph, cfg, hin.users)
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Call {
    Explain(NodeId, NodeId, Method),
    Recommend(NodeId, usize),
}

/// Mixed request mix over every sampled user: one recommend plus why-not
/// questions on the head of the list, alternating methods.
fn build_calls(graph: &Hin, cfg: &emigre_core::EmigreConfig, users: &[NodeId]) -> Vec<Call> {
    let mut calls = Vec::new();
    for &user in users {
        let Ok(rec) = reference_recommend(graph, cfg, user, 5) else {
            continue;
        };
        calls.push(Call::Recommend(user, 5));
        for (i, &(wni, _)) in rec.iter().skip(1).take(2).enumerate() {
            let method = if i % 2 == 0 {
                Method::RemoveIncremental
            } else {
                Method::AddPowerset
            };
            calls.push(Call::Explain(user, wni, method));
        }
    }
    assert!(calls.len() >= 6, "world too small for a meaningful mix");
    calls
}

#[test]
fn served_answers_match_single_threaded_reference() {
    let (graph, cfg, users) = test_world();
    let calls = build_calls(&graph, &cfg, &users);

    // Single-threaded oracle, computed before the service exists.
    let expected: Vec<_> = calls
        .iter()
        .map(|c| match *c {
            Call::Explain(u, w, m) => {
                format!("{:?}", reference_explain(&graph, &cfg, u, w, m))
            }
            Call::Recommend(u, k) => format!("{:?}", reference_recommend(&graph, &cfg, u, k)),
        })
        .collect();

    let service = Arc::new(ExplanationService::start(
        graph,
        cfg,
        ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        },
    ));

    // 6 threads × 2 passes, interleaved starting offsets so the same
    // (user, wni) hits the caches from several threads at once.
    let handles: Vec<_> = (0..6)
        .map(|t| {
            let service = Arc::clone(&service);
            let calls = calls.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut mismatches = Vec::new();
                for pass in 0..2 {
                    for i in 0..calls.len() {
                        let idx = (i + t * 3 + pass) % calls.len();
                        let got = match calls[idx] {
                            Call::Explain(u, w, m) => format!(
                                "{:?}",
                                service.explain(u, w, m).map_err(|e| match e {
                                    ServeError::InvalidQuestion(q) => q,
                                    other => panic!("service error: {other}"),
                                })
                            ),
                            Call::Recommend(u, k) => format!(
                                "{:?}",
                                service.recommend(u, k).map_err(|e| match e {
                                    ServeError::InvalidQuestion(q) => q,
                                    other => panic!("service error: {other}"),
                                })
                            ),
                        };
                        if got != expected[idx] {
                            mismatches.push(format!(
                                "call {:?}: served {} != reference {}",
                                calls[idx], got, expected[idx]
                            ));
                        }
                    }
                }
                mismatches
            })
        })
        .collect();

    let mismatches: Vec<String> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("worker thread panicked"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} divergence(s):\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );

    let m = service.metrics();
    assert_eq!(m.requests_total, 6 * 2 * calls.len() as u64);
    assert_eq!(m.completed_total, m.requests_total);
    assert_eq!(m.rejected_overload, 0);
    assert!(m.session_cache.hits > 0, "session cache never hit");
}

#[test]
fn full_queue_rejects_with_overloaded() {
    let (graph, cfg, users) = test_world();
    let calls = build_calls(&graph, &cfg, &users);
    let Some(&Call::Explain(user, wni, _)) = calls.iter().find(|c| matches!(c, Call::Explain(..)))
    else {
        panic!("no explain call in mix");
    };

    // One worker, one queue slot: of N near-simultaneous submissions at
    // most two can be in flight, so with N=16 rejections are guaranteed.
    let service = Arc::new(ExplanationService::start(
        graph,
        cfg,
        ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        },
    ));

    let handles: Vec<_> = (0..16)
        .map(|_| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.explain(user, wni, Method::RemoveBruteForce))
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let overloaded = results
        .iter()
        .filter(|r| matches!(r, Err(ServeError::Overloaded)))
        .count();
    let answered = results.iter().filter(|r| r.is_ok()).count();
    assert!(overloaded >= 1, "no request was shed: {results:?}");
    assert!(answered >= 1, "every request was shed: {results:?}");
    assert_eq!(overloaded + answered, 16, "unexpected outcome: {results:?}");

    let m = service.metrics();
    assert_eq!(m.requests_total, 16);
    assert_eq!(m.rejected_overload, overloaded as u64);
    assert_eq!(m.completed_total, answered as u64);
}

#[test]
fn expired_deadline_is_rejected_at_dequeue() {
    let (graph, cfg, users) = test_world();
    let calls = build_calls(&graph, &cfg, &users);
    let Some(&Call::Explain(user, wni, method)) =
        calls.iter().find(|c| matches!(c, Call::Explain(..)))
    else {
        panic!("no explain call in mix");
    };
    let service = ExplanationService::start(graph, cfg, ServiceConfig::default());

    // A zero deadline has always expired by the time a worker dequeues.
    let r = service.explain_deadline(user, wni, method, Duration::ZERO);
    assert_eq!(r, Err(ServeError::DeadlineExceeded));
    let r = service.recommend_deadline(user, 5, Duration::ZERO);
    assert_eq!(r, Err(ServeError::DeadlineExceeded));

    let m = service.metrics();
    assert_eq!(m.rejected_deadline, 2);
    // Rejected-at-dequeue still counts as completed (the worker saw it).
    assert_eq!(m.completed_total, 2);

    // A generous deadline answers normally.
    assert!(service
        .explain_deadline(user, wni, method, Duration::from_secs(60))
        .is_ok());
}

#[test]
fn shutdown_drains_every_admitted_request() {
    let (graph, cfg, users) = test_world();
    let calls = build_calls(&graph, &cfg, &users);
    let explains: Vec<(NodeId, NodeId, Method)> = calls
        .iter()
        .filter_map(|c| match *c {
            Call::Explain(u, w, m) => Some((u, w, m)),
            _ => None,
        })
        .take(4)
        .collect();
    assert_eq!(explains.len(), 4);

    let service = Arc::new(ExplanationService::start(
        graph,
        cfg,
        ServiceConfig {
            workers: 1,
            queue_capacity: 64,
            ..ServiceConfig::default()
        },
    ));

    let handles: Vec<_> = explains
        .into_iter()
        .map(|(u, w, m)| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.explain(u, w, m))
        })
        .collect();

    // Wait until all four are admitted, then give in-flight submits a
    // moment to clear the (sub-microsecond) bump-to-enqueue window.
    let t0 = Instant::now();
    while service.metrics().requests_total < 4 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "requests never admitted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(100));

    service.shutdown();

    // Drain contract: every admitted request gets a real answer, never
    // ShuttingDown.
    for h in handles {
        let r = h.join().unwrap();
        assert!(
            !matches!(r, Err(ServeError::ShuttingDown)),
            "admitted request was dropped: {r:?}"
        );
        assert!(r.is_ok(), "admitted request failed: {r:?}");
    }

    // New work after shutdown is refused.
    let (u, w, m) = (NodeId(0), NodeId(1), Method::AddPowerset);
    assert_eq!(service.explain(u, w, m), Err(ServeError::ShuttingDown));
    assert_eq!(service.recommend(u, 5), Err(ServeError::ShuttingDown));
}

#[test]
fn caches_reuse_session_and_column_artifacts() {
    let (graph, cfg, users) = test_world();
    let calls = build_calls(&graph, &cfg, &users);
    let explain_pair: Vec<(NodeId, NodeId)> = calls
        .iter()
        .filter_map(|c| match *c {
            Call::Explain(u, w, _) => Some((u, w)),
            _ => None,
        })
        .take(2)
        .collect();
    let (user, wni1) = explain_pair[0];
    let (user2, wni2) = explain_pair[1];
    assert_eq!(
        user, user2,
        "first two explains share a user by construction"
    );

    let service = ExplanationService::start(
        graph,
        cfg,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    // The inner outcome (found vs meta-explained failure) is irrelevant
    // here; only cache traffic is under test.
    service
        .explain(user, wni1, Method::RemoveIncremental)
        .unwrap()
        .ok();
    service
        .explain(user, wni2, Method::RemoveIncremental)
        .unwrap()
        .ok();
    service
        .explain(user, wni1, Method::AddPowerset)
        .unwrap()
        .ok();

    let m = service.metrics();
    // One session build, reused twice. Each explain looks up `rec`'s
    // column and its Why-Not item's: one miss per distinct item (`rec`
    // and two WNIs), every repeat a hit.
    assert_eq!(m.session_cache.misses, 1);
    assert_eq!(m.session_cache.hits, 2);
    assert_eq!(m.column_cache.misses, 3);
    assert_eq!(m.column_cache.hits, 3);
    assert_eq!(m.session_cache.len, 1);
    assert_eq!(m.column_cache.len, 3);
}

#[test]
fn exhaustive_targets_reuse_cached_columns() {
    let (graph, cfg, users) = test_world();
    let (user, wni) = build_calls(&graph, &cfg, &users)
        .into_iter()
        .find_map(|c| match c {
            Call::Explain(u, w, _) => Some((u, w)),
            _ => None,
        })
        .expect("the mix has explains");
    let method = Method::RemoveExhaustive;
    // The context build looks up `rec`'s column and the Why-Not item's;
    // every other target is one more column lookup.
    let other_targets = {
        let ctx = ExplainContext::build(&graph, cfg.clone(), user, wni).unwrap();
        ctx.targets().iter().filter(|&&t| t != ctx.rec).count() as u64
    };
    assert!(other_targets >= 2, "the question needs several targets");
    let reference = reference_explain(&graph, &cfg, user, wni, method).unwrap();

    let service = ExplanationService::start(
        graph,
        cfg,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let first = service.explain(user, wni, method).unwrap();
    let m1 = service.metrics();
    // One miss each for `rec` and the WNI, one per other target.
    assert_eq!(m1.column_cache.misses, 2 + other_targets);
    assert_eq!(m1.column_cache.hits, 0);

    let second = service.explain(user, wni, method).unwrap();
    let m2 = service.metrics();
    assert_eq!(m2.column_cache.misses, m1.column_cache.misses);
    assert_eq!(m2.column_cache.hits, 2 + other_targets);
    assert_eq!(
        m2.ops.reverse_pushes, m1.ops.reverse_pushes,
        "the repeat reads every column from the cache"
    );
    assert_eq!(first, reference);
    assert_eq!(second, reference);
}

#[test]
fn a_two_entry_cache_looks_up_each_asked_column_once() {
    let (graph, cfg, users) = test_world();
    let (user, wni) = build_calls(&graph, &cfg, &users)
        .into_iter()
        .find_map(|c| match c {
            Call::Explain(u, w, _) => Some((u, w)),
            _ => None,
        })
        .expect("the mix has explains");
    let method = Method::RemoveExhaustive;
    // The items an explain asks the column cache for: `rec` and the
    // Why-Not item at context build, then every other target in one call.
    // Its reverse pushes are one lone push per asked item.
    let (asked, lone_pushes) = {
        let ctx = ExplainContext::build(&graph, cfg.clone(), user, wni).unwrap();
        let asked: Vec<NodeId> = [ctx.rec, wni]
            .into_iter()
            .chain(ctx.targets().into_iter().filter(|&t| t != ctx.rec))
            .collect();
        let pushes: u64 = asked.iter().map(|&t| lone_pushes(&ctx, t)).sum();
        (asked.len() as u64, pushes)
    };
    assert!(
        asked > 2,
        "the question asks for more columns than the cache holds"
    );
    let reference = reference_explain(&graph, &cfg, user, wni, method).unwrap();

    let service = ExplanationService::start(
        graph,
        cfg,
        ServiceConfig {
            workers: 1,
            session_capacity: 2,
            column_capacity: 2,
            ..ServiceConfig::default()
        },
    );
    let lookups = |m: &emigre_serve::MetricsSnapshot| m.column_cache.hits + m.column_cache.misses;
    let first = service.explain(user, wni, method).unwrap();
    let m1 = service.metrics();
    assert_eq!(lookups(&m1), asked, "one lookup per asked item");
    assert_eq!(m1.column_cache.misses, asked);
    assert_eq!(m1.ops.reverse_pushes, lone_pushes);
    assert_eq!(first, reference);

    let second = service.explain(user, wni, method).unwrap();
    let m2 = service.metrics();
    assert_eq!(
        lookups(&m2) - lookups(&m1),
        asked,
        "one lookup per asked item"
    );
    assert_eq!(second, reference);
}

/// The pushes of a lone `PPR(·, t)` on the context's kernel.
fn lone_pushes<G: GraphView>(ctx: &ExplainContext<'_, G>, t: NodeId) -> u64 {
    ReversePush::compute(&*ctx.kernel, &ctx.cfg.rec.ppr, t).pushes as u64
}

/// A service whose session and column caches hold two entries each.
fn two_entry_service(graph: Hin, cfg: emigre_core::EmigreConfig) -> ExplanationService {
    ExplanationService::start(
        graph,
        cfg,
        ServiceConfig {
            workers: 1,
            session_capacity: 2,
            column_capacity: 2,
            ..ServiceConfig::default()
        },
    )
}

#[test]
fn recommend_pushes_no_column() {
    let (graph, cfg, users) = test_world();
    let user = users[0];
    let reference = reference_recommend(&graph, &cfg, user, 5).unwrap();
    let service = two_entry_service(graph, cfg);
    assert_eq!(service.recommend(user, 5).unwrap(), reference);
    let m = service.metrics();
    assert!(
        m.ops.forward_pushes > 0,
        "the cold read pushed from the user"
    );
    assert_eq!(m.ops.reverse_pushes, 0);
    assert_eq!(m.column_cache.hits + m.column_cache.misses, 0);
}

#[test]
fn rec_columns_are_cached_per_item_and_shared_across_users() {
    let (graph, cfg, _) = test_world();
    // Two users whose lists share `rec` but not their second item, each
    // asking about that second item.
    let user_t = graph.registry().find_node_type("user").unwrap();
    let mut questions = graph.nodes_of_type(user_t).into_iter().filter_map(|user| {
        let list = reference_recommend(&graph, &cfg, user, 5).ok()?;
        let (rec, wni) = (list.first()?.0, list.get(1)?.0);
        let valid = reference_explain(&graph, &cfg, user, wni, Method::RemoveIncremental).is_ok();
        valid.then_some((user, rec, wni))
    });
    let (user_a, rec, wni_a) = questions.next().expect("a user with a question");
    let (user_b, _, wni_b) = questions
        .find(|&(_, r, w)| r == rec && w != wni_a)
        .expect("a second user with the same rec");
    let method = Method::RemoveIncremental;
    let ctx = ExplainContext::build(&graph, cfg.clone(), user_a, wni_a).unwrap();
    let (rec_pushes, a_pushes, b_pushes) = (
        lone_pushes(&ctx, rec),
        lone_pushes(&ctx, wni_a),
        lone_pushes(&ctx, wni_b),
    );
    drop(ctx);
    let reference_a = reference_explain(&graph, &cfg, user_a, wni_a, method).unwrap();
    let reference_b = reference_explain(&graph, &cfg, user_b, wni_b, method).unwrap();

    let service = two_entry_service(graph, cfg);
    // A cold explain pushes `rec`'s column and the Why-Not item's, and no
    // other: its CHECKs push forward only.
    assert_eq!(service.explain(user_a, wni_a, method).unwrap(), reference_a);
    let m1 = service.metrics();
    assert_eq!(m1.ops.reverse_pushes, rec_pushes + a_pushes);
    assert_eq!((m1.column_cache.hits, m1.column_cache.misses), (0, 2));

    // Another user with the same `rec` finds its column in the cache.
    assert_eq!(service.explain(user_b, wni_b, method).unwrap(), reference_b);
    let m2 = service.metrics();
    assert_eq!(m2.ops.reverse_pushes - m1.ops.reverse_pushes, b_pushes);
    assert_eq!((m2.column_cache.hits, m2.column_cache.misses), (1, 3));
    assert_eq!(m2.session_cache.misses, 2);
}

#[test]
fn intra_request_parallelism_preserves_reference_answers() {
    // The parallel CHECK fan-out must be invisible in served answers: a
    // service granting each request a 2-thread CHECK budget returns
    // byte-identical outcomes to the sequential single-threaded reference.
    let (graph, cfg, users) = test_world();
    let calls = build_calls(&graph, &cfg, &users);
    let expected: Vec<_> = calls
        .iter()
        .map(|c| match *c {
            Call::Explain(u, w, m) => {
                format!("{:?}", reference_explain(&graph, &cfg, u, w, m))
            }
            Call::Recommend(u, k) => format!("{:?}", reference_recommend(&graph, &cfg, u, k)),
        })
        .collect();

    let service = ExplanationService::start(
        graph,
        cfg.clone().with_parallelism(2),
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    );
    let explains = calls
        .iter()
        .filter(|c| matches!(c, Call::Explain(..)))
        .count();
    let mut fanned_out = 0u64;
    for (call, want) in calls.iter().zip(&expected) {
        let got = match *call {
            Call::Explain(u, w, m) => {
                let (_, response) = service.explain_request(u, w, m, service.default_deadline());
                if let Ok(r) = &response {
                    fanned_out += u64::from(r.stages.check_parallel_us > 0);
                }
                format!(
                    "{:?}",
                    response.map(|r| r.outcome).map_err(|e| match e {
                        ServeError::InvalidQuestion(q) => q,
                        other => panic!("service error: {other}"),
                    })
                )
            }
            Call::Recommend(u, k) => format!(
                "{:?}",
                service.recommend(u, k).map_err(|e| match e {
                    ServeError::InvalidQuestion(q) => q,
                    other => panic!("service error: {other}"),
                })
            ),
        };
        assert_eq!(&got, want, "parallel-budget service diverged on {call:?}");
    }

    let m = service.metrics();
    assert_eq!(m.completed_total, calls.len() as u64);
    // Only an explain whose CHECK scan fanned out adds a check_parallel
    // sample (one with fewer than two candidate sets runs sequentially).
    assert_eq!(m.stage_check_parallel.count, fanned_out);
    assert!(fanned_out > 0, "no explain fanned out");
    assert!(explains >= 2, "mix must exercise the explain path");
}
