//! The request-scoped telemetry contract: request ids are assigned and
//! echoed, stage attribution is present and consistent, `/trace/<id>`
//! replays the served verdicts, queue depth reflects actually-queued
//! jobs, rejections show up in the Prometheus exposition, and the event
//! log records one parseable JSON line per request with zero drops.

use emigre_core::explanation::Action;
use emigre_core::tester::Tester;
use emigre_core::{ExplainContext, Method};
use emigre_data::pipeline::{AmazonHin, PreprocessConfig};
use emigre_data::synth::{SynthConfig, SynthDataset};
use emigre_hin::{Hin, NodeId};
use emigre_obs::validate_exposition;
use emigre_serve::{
    prometheus_text, reference_explain, reference_recommend, ExplanationService, RequestEvent,
    ServeError, ServiceConfig,
};
use std::sync::Arc;
use std::time::Duration;

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

/// One explainable (user, wni) pair from the world: the #2 item of the
/// first user with a non-trivial list.
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

#[test]
fn request_ids_stages_and_trace_replay() {
    let (graph, cfg, users) = test_world();
    let (user, wni) = one_question(&graph, &cfg, &users);
    let graph_copy = graph.clone();
    let cfg_copy = cfg.clone();
    let service = ExplanationService::start(
        graph,
        cfg,
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    );

    let (id1, r1) =
        service.explain_request(user, wni, Method::AddPowerset, Duration::from_secs(60));
    let (id2, r2) = service.explain_request(
        user,
        wni,
        Method::RemoveIncremental,
        Duration::from_secs(60),
    );
    assert!(id1 >= 1 && id2 > id1, "ids are assigned monotonically");

    let resp = r1.expect("admitted request answers");
    // total covers queue wait plus all attributed stages.
    let s = resp.stages;
    assert!(
        s.total_us >= s.queue_us + s.context_us + s.search_us + s.test_us,
        "stage sum exceeds total: {s:?}"
    );
    assert!(s.total_us > 0, "an explain takes measurable time");
    let _ = r2.expect("second request answers");

    // The stored trace replays to the verdicts the service returned.
    let trace = service.trace(id1).expect("recent trace is stored");
    assert_eq!((trace.user, trace.wni), (user.0, wni.0));
    let fresh = ExplainContext::build(&graph_copy, cfg_copy, user, wni).expect("valid question");
    let tester = Tester::new(&fresh);
    assert!(
        !trace.tests.is_empty(),
        "AddPowerset runs at least one TEST"
    );
    for (k, t) in trace.tests.iter().enumerate() {
        let actions: Vec<Action> = t.actions.iter().map(Action::from_trace).collect();
        assert_eq!(tester.test(&actions), t.verdict, "verdict {k} diverges");
    }
    match &resp.outcome {
        Ok(exp) => {
            assert!(trace.found);
            assert_eq!(trace.explanation.len(), exp.actions.len());
        }
        Err(_) => assert!(!trace.found),
    }
    assert!(service.trace(id1 + 10_000).is_none(), "unknown ids miss");

    // Stage histograms saw both requests; windows saw them too.
    let m = service.metrics();
    assert_eq!(m.stage_test.count, 2);
    assert_eq!(m.stage_context.count, 2);
    assert_eq!(m.queue_wait.count, 2);
    assert_eq!(m.windows.explain_10s.count, 2);
    assert_eq!(m.windows.explain_10s.errors, 0);
    assert_eq!(m.workers, 2);
    // The first request built artefacts + column cold; the second hit.
    assert!(m.session_cache.hits >= 1);
    assert!(m.column_cache.hits >= 1);
}

#[test]
fn queue_depth_and_rejections_under_a_stalled_worker() {
    let (graph, cfg, users) = test_world();
    let (user, wni) = one_question(&graph, &cfg, &users);
    let service = Arc::new(ExplanationService::start(
        graph,
        cfg,
        ServiceConfig {
            workers: 1,
            queue_capacity: 2,
            ..ServiceConfig::default()
        },
    ));

    let stall = service.stall_workers_for_test();

    // With the only worker parked, submissions queue but never start.
    let submitters: Vec<_> = (0..2)
        .map(|_| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                // Generous deadline: these must be answered after resume.
                service.explain_request(user, wni, Method::AddPowerset, Duration::from_secs(120))
            })
        })
        .collect();
    // Wait until both jobs are visibly queued.
    let mut waited = 0;
    while service.metrics().queue_depth < 2 {
        std::thread::sleep(Duration::from_millis(10));
        waited += 1;
        assert!(waited < 500, "jobs never reached the queue");
    }
    let m = service.metrics();
    assert_eq!(m.queue_depth, 2, "queue depth reflects queued jobs");

    // Queue full: the next submission is rejected with Overloaded.
    let (rej_id, rejected) =
        service.explain_request(user, wni, Method::AddPowerset, Duration::from_secs(1));
    assert!(rej_id > 0);
    assert_eq!(rejected.unwrap_err(), ServeError::Overloaded);

    // And a zero-deadline submission expires at dequeue after resume.
    let deadline_probe = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            service.explain_request(user, wni, Method::AddPowerset, Duration::ZERO)
        })
    };
    // Wait for it to occupy the slot freed by... nothing yet — the queue
    // is full, so retry until admitted (the worker is still parked, so
    // admission only succeeds once we release below).
    drop(stall);

    for s in submitters {
        let (_, r) = s.join().unwrap();
        r.expect("queued requests are answered after resume");
    }
    let (_, dl) = deadline_probe.join().unwrap();
    match dl {
        // Either rejected at the full queue or expired at dequeue — both
        // are valid under this race; the metrics distinguish them.
        Err(ServeError::Overloaded) | Err(ServeError::DeadlineExceeded) => {}
        other => panic!("expected overload/deadline rejection, got {other:?}"),
    }

    // Rejection counters are visible in the Prometheus exposition.
    let m = service.metrics();
    assert!(m.rejected_overload >= 1);
    let text = prometheus_text(&m);
    validate_exposition(&text).unwrap();
    let overload_line = text
        .lines()
        .find(|l| l.starts_with("emigre_rejected_total{reason=\"overload\"}"))
        .expect("overload rejection sample present");
    let v: f64 = overload_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(
        v >= 1.0,
        "exposition shows the overload rejection: {overload_line}"
    );
    assert!(
        text.lines()
            .any(|l| l.starts_with("emigre_rejected_total{reason=\"deadline\"}")),
        "deadline rejection family present"
    );
}

#[test]
fn event_log_writes_one_parseable_line_per_request() {
    let (graph, cfg, users) = test_world();
    let (user, wni) = one_question(&graph, &cfg, &users);
    let dir = std::env::temp_dir().join(format!("emigre-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("events.jsonl");

    let expected_lines;
    {
        let service = ExplanationService::start(
            graph,
            cfg,
            ServiceConfig {
                workers: 2,
                event_log: Some(log_path.clone()),
                ..ServiceConfig::default()
            },
        );
        let (_, r) =
            service.explain_request(user, wni, Method::AddPowerset, Duration::from_secs(60));
        r.expect("explain answers");
        let (_, r) = service.recommend_request(user, 5, Duration::from_secs(60));
        r.expect("recommend answers");
        // An invalid question (user id out of range) still logs a line.
        let (_, r) = service.explain_request(
            NodeId(u32::MAX),
            wni,
            Method::AddPowerset,
            Duration::from_secs(60),
        );
        assert!(matches!(r, Err(ServeError::InvalidQuestion(_))));
        expected_lines = 3;
        service.shutdown(); // flushes the event log
        let stats = service.metrics().events;
        assert!(stats.enabled);
        assert_eq!(stats.written, expected_lines);
        assert_eq!(stats.dropped, 0);
    }

    let text = std::fs::read_to_string(&log_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len() as u64, expected_lines);
    let mut outcomes = Vec::new();
    for line in &lines {
        let ev: RequestEvent = serde_json::from_str(line).expect("line parses as RequestEvent");
        assert!(ev.request_id >= 1);
        outcomes.push(ev.outcome.clone());
        if ev.outcome == "found" || ev.outcome == "failure" {
            assert_eq!(ev.endpoint, "explain");
            assert!(ev.stages.total_us > 0);
            assert!(ev.ops.checks >= 1, "explain runs CHECKs");
        }
    }
    assert!(outcomes.contains(&"invalid_question".to_owned()));
    let _ = std::fs::remove_file(&log_path);
}

/// One question whose reference answer is found and one whose search
/// fails.
fn found_and_failed_questions(
    graph: &Hin,
    cfg: &emigre_core::EmigreConfig,
    users: &[NodeId],
) -> [(NodeId, NodeId, Method); 2] {
    let (mut found, mut failed) = (None, None);
    for &user in users {
        let Ok(list) = reference_recommend(graph, cfg, user, 10) else {
            continue;
        };
        for &(wni, _) in list.iter().skip(1) {
            for method in [Method::AddIncremental, Method::RemoveIncremental] {
                match reference_explain(graph, cfg, user, wni, method) {
                    Ok(Ok(_)) => found = found.or(Some((user, wni, method))),
                    Ok(Err(_)) => failed = failed.or(Some((user, wni, method))),
                    Err(_) => {}
                }
                if let (Some(f), Some(x)) = (found, failed) {
                    return [f, x];
                }
            }
        }
    }
    panic!("world lacks a found or a failed question");
}

#[test]
fn slow_ring_entries_equal_their_event_lines() {
    let (graph, cfg, users) = test_world();
    let questions = found_and_failed_questions(&graph, &cfg, &users);
    let dir = std::env::temp_dir().join(format!("emigre-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("records.jsonl");
    let service = ExplanationService::start(
        graph,
        cfg,
        ServiceConfig {
            workers: 1,
            event_log: Some(log_path.clone()),
            slow_ring_capacity: 16,
            ..ServiceConfig::default()
        },
    );
    let mut outcomes = Vec::new();
    for _ in 0..2 {
        for (user, wni, method) in questions {
            let (_, r) = service.explain_request(user, wni, method, Duration::from_secs(60));
            let found = r.expect("explain answers").outcome.is_ok();
            outcomes.push(if found { "found" } else { "failure" });
        }
        let (_, r) = service.recommend_request(questions[0].0, 5, Duration::from_secs(60));
        r.expect("recommend answers");
        outcomes.push("ok");
    }
    assert!(outcomes.contains(&"found") && outcomes.contains(&"failure"));
    let slow = service.debug_slow();
    service.shutdown();

    let text = std::fs::read_to_string(&log_path).unwrap();
    let events: Vec<RequestEvent> = text
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(events.len(), outcomes.len());
    let entries: Vec<_> = slow.explain.iter().chain(&slow.recommend).collect();
    assert_eq!(entries.len(), events.len(), "the ring keeps every request");
    for e in entries {
        let ev = events
            .iter()
            .find(|ev| ev.request_id == e.request_id)
            .expect("every ring entry has an event line");
        assert!(ev.slow, "request {} is flagged slow", ev.request_id);
        assert_eq!(e.endpoint, ev.endpoint);
        assert_eq!(e.outcome, ev.outcome);
        assert_eq!(e.outcome, outcomes[e.request_id as usize - 1]);
        assert_eq!(e.user, ev.user);
        assert_eq!(e.wni, ev.wni);
        assert_eq!(e.method, ev.method);
        assert_eq!(e.mode, ev.mode);
        assert_eq!(e.stages, ev.stages);
        assert_eq!(Some(e.epoch), ev.epoch);
        assert_eq!(e.expected_cost_us, ev.expected_cost_us);
        assert_eq!(e.total_us, e.stages.total_us);
    }
    let _ = std::fs::remove_file(&log_path);
}

#[test]
fn json_metrics_and_prometheus_agree_and_lint_clean() {
    let (graph, cfg, users) = test_world();
    let (user, wni) = one_question(&graph, &cfg, &users);
    let service = ExplanationService::start(
        graph,
        cfg,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let (_, r) = service.explain_request(user, wni, Method::AddPowerset, Duration::from_secs(60));
    r.expect("explain answers");
    let m = service.metrics();
    let text = prometheus_text(&m);
    validate_exposition(&text).unwrap();
    // Cross-format agreement on a few load-bearing samples.
    assert!(text.contains(&format!("emigre_requests_total {}", m.requests_total)));
    assert!(text.contains(&format!(
        "emigre_request_latency_us_count{{endpoint=\"explain\"}} {}",
        m.explain_latency.count
    )));
    assert!(text.contains(&format!(
        "emigre_stage_latency_us_count{{stage=\"test\"}} {}",
        m.stage_test.count
    )));
    assert!(text.contains(&format!("emigre_workers {}", m.workers)));
}
