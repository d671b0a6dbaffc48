//! Resource-observability contract: byte gauges in `/metrics`, the
//! slowest-N forensics ring behind `/debug/slow`, and — the lock-audit
//! regression — both snapshot paths staying deadlock-free while every
//! worker is parked (a struct-literal double-lock would hang exactly
//! there, which is how two earlier snapshot bugs shipped).
//!
//! The `heap-track` variant of this suite additionally installs the
//! tracking allocator and asserts real (non-zero) allocation numbers end
//! to end: per-request `total_alloc_bytes` and the live/peak heap gauges.

use emigre_core::Method;
use emigre_data::pipeline::{AmazonHin, PreprocessConfig};
use emigre_data::synth::{SynthConfig, SynthDataset};
use emigre_hin::{Hin, NodeId};
use emigre_obs::validate_exposition;
use emigre_serve::{
    prometheus_text, reference_recommend, ExplanationService, ServiceConfig, SlowSnapshot,
};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Installed only in `--features heap-track` runs of this suite; the
/// untracked variant exercises the same code with the gauges at zero.
#[cfg(feature = "heap-track")]
#[global_allocator]
static ALLOC: emigre_obs::TrackingAlloc = emigre_obs::TrackingAlloc::system();

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

/// The lock-audit regression: with every worker parked mid-job, both
/// observability snapshots must still complete. Each path locks the two
/// caches (metrics) or the two slow rings (debug_slow) — a second
/// `.lock()` of the same mutex inside one statement would self-deadlock
/// right here, stalled workers or not; the stall just guarantees the
/// snapshot runs concurrently with held queue state, the configuration
/// the two shipped double-lock bugs needed.
#[test]
fn metrics_and_debug_slow_snapshot_while_workers_are_stalled() {
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

    // One served request first, so the caches and rings are non-empty
    // and the snapshots traverse real entries, not trivial empties.
    let (_, r) = service.explain_request(user, wni, Method::AddPowerset, Duration::from_secs(60));
    r.expect("explain answers");

    let stall = service.stall_workers_for_test();
    // Park a queued job behind the stalled worker, so queue state is held.
    let pending = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            service.explain_request(user, wni, Method::AddPowerset, Duration::from_secs(120))
        })
    };
    let mut waited = 0;
    while service.metrics().queue_depth < 1 {
        std::thread::sleep(Duration::from_millis(10));
        waited += 1;
        assert!(waited < 500, "job never reached the queue");
    }

    // Run both snapshots off-thread with a watchdog: a regression hangs
    // the snapshot, and this turns that hang into a crisp failure.
    let (tx, rx) = mpsc::channel();
    {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let m = service.metrics();
            let text = prometheus_text(&m);
            let slow: SlowSnapshot = service.debug_slow();
            let _ = tx.send((m, text, slow));
        });
    }
    let (m, text, slow) = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("snapshots complete under a stalled worker (no self-deadlock)");

    validate_exposition(&text).unwrap();
    assert_eq!(m.queue_depth, 1);
    // Byte gauges are present in both formats (values depend on whether
    // the tracking allocator is installed; the structural ones never do).
    assert!(m.graph_bytes > 0, "graph footprint is structural, never 0");
    assert!(
        m.session_cache_bytes > 0,
        "a served explain leaves cached artefacts with heap behind"
    );
    assert!(text.contains(&format!("emigre_graph_bytes {}", m.graph_bytes)));
    assert!(text.contains(&format!(
        "emigre_cache_bytes{{cache=\"session\"}} {}",
        m.session_cache_bytes
    )));
    assert!(text.contains(&format!(
        "emigre_cache_bytes{{cache=\"column\"}} {}",
        m.column_cache_bytes
    )));
    assert!(text.contains(&format!("emigre_heap_live_bytes {}", m.heap_live_bytes)));
    assert!(text.contains(&format!("emigre_heap_peak_bytes {}", m.heap_peak_bytes)));
    // The served request is in the explain ring, with its trace.
    assert_eq!(slow.explain.len(), 1);
    assert!(
        slow.explain[0].trace.is_some(),
        "explain entries keep traces"
    );
    assert!(slow.recommend.is_empty());

    drop(stall);
    let (_, r) = pending.join().unwrap();
    r.expect("queued request answers after resume");
}

/// End-to-end slow-ring behaviour through the service: the ring caps at
/// `slow_ring_capacity`, keeps the slowest entries sorted descending,
/// carries full stage latencies + epoch + the scheduler's cost estimate,
/// and flags admitted requests as `slow` in the event log.
#[test]
fn slow_ring_retains_the_slowest_requests_with_replayable_context() {
    let (graph, cfg, users) = test_world();
    let (user, wni) = one_question(&graph, &cfg, &users);
    let dir = std::env::temp_dir().join(format!("emigre-resource-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("slow-events.jsonl");
    let service = ExplanationService::start(
        graph,
        cfg,
        ServiceConfig {
            workers: 1,
            slow_ring_capacity: 2,
            event_log: Some(log_path.clone()),
            ..ServiceConfig::default()
        },
    );

    for _ in 0..5 {
        let (_, r) =
            service.explain_request(user, wni, Method::AddPowerset, Duration::from_secs(60));
        r.expect("explain answers");
    }
    for _ in 0..4 {
        let (_, r) = service.recommend_request(user, 5, Duration::from_secs(60));
        r.expect("recommend answers");
    }

    let slow = service.debug_slow();
    assert_eq!(slow.explain.len(), 2, "ring caps at slow_ring_capacity");
    assert_eq!(slow.recommend.len(), 2);
    for ring in [&slow.explain, &slow.recommend] {
        for pair in ring.windows(2) {
            assert!(
                pair[0].total_us >= pair[1].total_us,
                "snapshots are slowest-first"
            );
        }
    }
    for e in &slow.explain {
        assert_eq!(e.endpoint, "explain");
        assert_eq!(e.user, user.0);
        assert_eq!(e.wni, Some(wni.0));
        assert!(e.total_us > 0);
        assert_eq!(e.stages.total_us, e.total_us);
        assert!(e.expected_cost_us.is_some(), "sched estimate retained");
        let trace = e.trace.as_ref().expect("explain entries keep traces");
        assert_eq!((trace.user, trace.wni), (user.0, wni.0));
    }
    for e in &slow.recommend {
        assert_eq!(e.endpoint, "recommend");
        assert!(e.trace.is_none(), "recommends have no trace to keep");
    }

    // The event log's `slow` flags match ring membership exactly.
    service.shutdown();
    let text = std::fs::read_to_string(&log_path).unwrap();
    let mut slow_ids = Vec::new();
    for line in text.lines() {
        let ev: emigre_serve::RequestEvent = serde_json::from_str(line).unwrap();
        if ev.slow {
            slow_ids.push(ev.request_id);
        }
    }
    // Every retained entry was flagged at admission time; entries later
    // evicted by slower requests were flagged too, so retained ⊆ flagged.
    for e in slow.explain.iter().chain(&slow.recommend) {
        assert!(
            slow_ids.contains(&e.request_id),
            "ring entry {} was logged as slow",
            e.request_id
        );
    }
    assert!(
        slow_ids.len() >= 4,
        "both rings admitted at least their retained entries"
    );
    let _ = std::fs::remove_file(&log_path);
}

/// With the tracking allocator installed, the numbers are real: every
/// explain response attributes heap bytes to the request, and the
/// live/peak gauges move.
#[cfg(feature = "heap-track")]
#[test]
fn tracked_builds_report_real_allocation_numbers() {
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
    let resp = r.expect("explain answers");
    assert!(
        resp.stages.total_alloc_bytes > 0,
        "a cold explain allocates (artefact build at minimum): {:?}",
        resp.stages
    );
    let m = service.metrics();
    assert!(m.heap_live_bytes > 0, "graph + caches are live heap");
    assert!(m.heap_peak_bytes >= m.heap_live_bytes);
    let slow = service.debug_slow();
    assert_eq!(
        slow.explain[0].stages.total_alloc_bytes,
        resp.stages.total_alloc_bytes
    );
}

/// A feedback publish materialises its graph by copying the record
/// pointers and only the records its edges touch; every other record and
/// the type registry are shared with the parent epoch. A deep clone of the graph, the cost
/// before records were shared, is over ten times this bound.
#[cfg(feature = "heap-track")]
#[test]
fn applying_one_mirrored_edge_allocates_only_its_touched_records() {
    use emigre_data::{ScaleGen, ScaleSpec};
    use emigre_hin::{EdgeKey, EdgeRecord, GraphDelta, GraphView};

    let g = ScaleGen::new(ScaleSpec::with_total_nodes(10_000, 0x5CA1E)).materialize_hin();
    let rated = g
        .registry()
        .find_edge_type("rated")
        .expect("ScaleGen's edge type");
    let item_t = g
        .registry()
        .find_node_type("item")
        .expect("ScaleGen's item type");
    let user = NodeId(0);
    let item = g
        .node_ids()
        .find(|&n| g.node_type(n) == item_t && g.in_degree(n) > 0 && !g.has_edge(user, n, rated))
        .expect("a rated item the user has not rated");
    let mut delta = GraphDelta::new();
    delta.add_edge(EdgeKey::new(user, item, rated), 1.0);
    delta.add_edge(EdgeKey::new(item, user, rated), 1.0);

    let scope = emigre_obs::AllocScope::start();
    let next = delta.apply_to(&g).expect("a fresh edge applies");
    let (bytes, count) = (scope.bytes() as usize, scope.count() as usize);
    assert!(next.has_edge(item, user, rated));

    // The pointer array, then per touched record its `Arc` block (counters
    // and fields, under 256 bytes) and each of its two lists copied (len
    // entries) and grown once for the new edge (max(2·len, 4) entries).
    // The type registry is shared, not copied.
    let edge = std::mem::size_of::<EdgeRecord>();
    let record = |n: NodeId| 256 + edge * (3 * (g.out_degree(n) + g.in_degree(n)) + 8);
    let bound = g.num_nodes() * std::mem::size_of::<usize>() + record(user) + record(item);
    assert!(
        bytes > 0 && bytes <= bound,
        "allocated {bytes} B, bound {bound} B"
    );
    assert!(
        bound * 10 < g.heap_bytes(),
        "bound {bound} B does not discriminate"
    );
    // Allocations: the pointer array; per record its block, two list
    // copies and two grows (ScaleGen nodes carry no label).
    assert!(count <= 1 + 2 * 5, "{count} allocations");
}
