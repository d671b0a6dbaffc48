//! Live-graph serving end to end: feedback publishes epochs, reads pin
//! them, and the epoch-keyed caches refuse to serve artifacts built on a
//! superseded graph.
//!
//! Two layers: the programmatic service API (epoch bump, lazy cache
//! invalidation, post-update verdicts equal to the reference on the new
//! graph) and the raw HTTP front end (`POST /feedback` plus the `epoch`
//! field threaded through every read response and the Prometheus
//! exposition).

use emigre_data::pipeline::{AmazonHin, PreprocessConfig};
use emigre_data::synth::{SynthConfig, SynthDataset};
use emigre_hin::{GraphView, Hin, NodeId};
use emigre_serve::{
    events_to_delta, reference_explain, reference_recommend, ExplanationService, FeedbackError,
    FeedbackEvent, HttpServer, ServiceConfig,
};
use std::io::{Read, Write};
use std::net::TcpStream;
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

/// A (user, wni) pair the service will accept as a why-not question.
fn pick_question(
    graph: &Hin,
    cfg: &emigre_core::EmigreConfig,
    users: &[NodeId],
) -> (NodeId, NodeId) {
    for &user in users {
        if let Ok(rec) = reference_recommend(graph, cfg, user, 5) {
            if let Some(&(wni, _)) = rec.get(1) {
                return (user, wni);
            }
        }
    }
    panic!("no user with a long enough recommendation list");
}

/// One add event on a `rated` edge absent from `graph`, avoiding
/// `user`'s out-neighborhood entirely so the question stays valid.
fn fresh_event(graph: &Hin, users: &[NodeId], user: NodeId) -> FeedbackEvent {
    let rated = graph.registry().find_edge_type("rated").unwrap();
    let item_t = graph.registry().find_node_type("item").unwrap();
    for &u in users.iter().filter(|&&u| u != user) {
        for n in 0..graph.num_nodes() as u32 {
            let item = NodeId(n);
            if graph.node_type(item) == item_t
                && graph.out_degree(item) > 0
                && !graph.has_edge(u, item, rated)
            {
                return FeedbackEvent::add(u.0, item.0, "rated", 1.5);
            }
        }
    }
    panic!("no absent rated edge found");
}

#[test]
fn feedback_bumps_the_epoch_and_stales_the_caches() {
    let (graph, cfg, users) = test_world();
    assert!(cfg.bidirectional_actions, "pipeline mirrors actions");
    let (user, wni) = pick_question(&graph, &cfg, &users);
    let service = ExplanationService::start(
        graph.clone(),
        cfg.clone(),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let method = emigre_core::Method::RemoveIncremental;
    let deadline = Duration::from_secs(60);

    // Warm both caches on epoch 0; a second pass hits them.
    let (_, r1) = service.explain_request(user, wni, method, deadline);
    let first = r1.expect("question is valid").clone();
    assert_eq!(first.epoch, 0);
    let (_, r2) = service.explain_request(user, wni, method, deadline);
    assert_eq!(r2.unwrap().outcome, first.outcome);
    let warm = service.metrics();
    assert!(
        warm.session_cache.hits >= 1,
        "session cache warmed: {warm:?}"
    );
    assert_eq!(warm.session_stale_invalidations, 0);
    assert_eq!(warm.graph_epoch, 0);

    // Publish epoch 1.
    let event = fresh_event(&graph, &users, user);
    let (_, fb) = service.apply_feedback(std::slice::from_ref(&event));
    let out = fb.expect("a fresh edge applies");
    assert_eq!(out.epoch, 1);

    // The next read pins epoch 1; the cached epoch-0 artifacts are
    // detected as stale on access, discarded, and rebuilt — and the
    // verdict matches the reference on the *updated* graph.
    let (_, r3) = service.explain_request(user, wni, method, deadline);
    let resp = r3.expect("question is still valid on epoch 1");
    assert_eq!(resp.epoch, 1);
    let next_graph = events_to_delta(
        std::slice::from_ref(&event),
        &graph,
        cfg.bidirectional_actions,
    )
    .unwrap()
    .apply_to(&graph)
    .unwrap();
    let reference = reference_explain(&next_graph, &cfg, user, wni, method)
        .expect("question is valid on the updated graph");
    assert_eq!(resp.outcome, reference);

    let m = service.metrics();
    assert_eq!(m.graph_epoch, 1);
    assert_eq!(m.epochs_published, 1);
    assert_eq!(m.feedback_events_applied, 1);
    assert!(
        m.session_stale_invalidations >= 1,
        "the epoch-0 session artifact was invalidated: {m:?}"
    );
    assert!(
        m.column_stale_invalidations >= 1,
        "the epoch-0 PPR column was invalidated: {m:?}"
    );

    // Recommend follows the same pinning rules.
    let rec = service
        .recommend(user, 5)
        .expect("recommend works on epoch 1");
    assert_eq!(
        rec,
        reference_recommend(&next_graph, &cfg, user, 5).unwrap()
    );
    service.shutdown();
}

#[test]
fn rejected_feedback_leaves_the_epoch_untouched() {
    let (graph, cfg, users) = test_world();
    let service = ExplanationService::start(graph, cfg, ServiceConfig::default());
    let (_, r) = service.apply_feedback(&[FeedbackEvent::add(
        users[0].0,
        users[0].0 + 1,
        "no-such-edge-type",
        1.0,
    )]);
    assert!(matches!(r.unwrap_err(), FeedbackError::UnknownEdgeType(_)));
    let m = service.metrics();
    assert_eq!(m.graph_epoch, 0);
    assert_eq!(m.epochs_published, 0);
    assert_eq!(m.feedback_rejected, 1);
    service.shutdown();
}

/// Minimal HTTP/1.1 client: one request per connection.
fn http(addr: &std::net::SocketAddr, method: &str, path: &str, body: Option<&str>) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("recv");
    response
}

fn status_of(response: &str) -> u32 {
    response
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status code")
}

#[test]
fn http_feedback_end_to_end_threads_the_epoch_through_responses() {
    let (graph, cfg, users) = test_world();
    let (user, wni) = pick_question(&graph, &cfg, &users);
    let event = fresh_event(&graph, &users, user);
    let service = Arc::new(ExplanationService::start(
        graph,
        cfg,
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    ));
    let server = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());

    let explain_body = format!(
        r#"{{"user":{},"why_not":{},"method":"{}"}}"#,
        user.0,
        wni.0,
        emigre_core::Method::RemoveIncremental.label()
    );

    // Epoch 0 read.
    let r = http(&addr, "POST", "/explain", Some(&explain_body));
    assert_eq!(status_of(&r), 200, "{r}");
    assert!(
        r.contains("\"epoch\":0"),
        "pre-update reads pin epoch 0: {r}"
    );

    // Publish epoch 1 over HTTP.
    let feedback_body = format!(
        r#"{{"events":[{{"op":"add","src":{},"dst":{},"etype":"rated","weight":1.5}}]}}"#,
        event.src, event.dst
    );
    let r = http(&addr, "POST", "/feedback", Some(&feedback_body));
    assert_eq!(status_of(&r), 200, "{r}");
    assert!(r.contains("\"status\":\"ok\""), "{r}");
    assert!(r.contains("\"epoch\":1"), "{r}");
    assert!(r.contains("\"edges_changed\":2"), "mirrored edge: {r}");

    // Post-update read pins the new epoch.
    let r = http(&addr, "POST", "/explain", Some(&explain_body));
    assert_eq!(status_of(&r), 200, "{r}");
    assert!(
        r.contains("\"epoch\":1"),
        "post-update reads pin epoch 1: {r}"
    );

    // A bad batch is rejected wholesale; the epoch stays.
    let r = http(
        &addr,
        "POST",
        "/feedback",
        Some(r#"{"events":[{"op":"add","src":0,"dst":1,"etype":"bogus"}]}"#),
    );
    assert_eq!(status_of(&r), 400, "{r}");
    assert!(r.contains("feedback_rejected"), "{r}");

    // The exposition carries the live-graph gauges.
    let r = http(&addr, "GET", "/metrics?format=prometheus", None);
    assert!(r.contains("emigre_graph_epoch 1"), "{r}");
    assert!(r.contains("emigre_epochs_published_total 1"), "{r}");
    assert!(r.contains("emigre_feedback_events_applied_total 1"), "{r}");

    let r = http(&addr, "POST", "/shutdown", None);
    assert_eq!(status_of(&r), 200, "{r}");
    server_thread.join().unwrap().expect("server exits cleanly");
}

/// Ids past `u32` are refused at the body parser, not wrapped onto nodes
/// nobody named: 2³² would otherwise read as node 0 and 2³² + 5 as node 5.
#[test]
fn http_rejects_ids_past_u32_instead_of_wrapping_them() {
    let (graph, cfg, _) = test_world();
    let service = Arc::new(ExplanationService::start(
        graph,
        cfg,
        ServiceConfig::default(),
    ));
    let server = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run());

    let r = http(
        &addr,
        "POST",
        "/feedback",
        Some(r#"{"events":[{"op":"add","src":4294967296,"dst":4294967301,"etype":"rated"}]}"#),
    );
    assert_eq!(status_of(&r), 400, "{r}");
    assert!(r.contains("bad_request"), "{r}");
    let m = service.metrics();
    assert_eq!(m.graph_epoch, 0);
    assert_eq!(m.epochs_published, 0);

    let r = http(
        &addr,
        "POST",
        "/explain",
        Some(r#"{"user":4294967296,"why_not":1}"#),
    );
    assert_eq!(status_of(&r), 400, "{r}");
    assert!(r.contains("bad_request"), "{r}");

    let r = http(&addr, "POST", "/shutdown", None);
    assert_eq!(status_of(&r), 200, "{r}");
    server_thread.join().unwrap().expect("server exits cleanly");
}
