//! The multi-target reverse push against lone pushes: for every target of
//! a random list, [`ReversePush::compute_many`] must return exactly the
//! column [`ReversePush::compute`] returns — estimates and residuals equal
//! bit for bit, `pushes` and `drained` equal exactly.
//!
//! Lists hold 0–20 targets with duplicates allowed, so every block width
//! (1–8) and lists split into several blocks occur. The graphs are random,
//! their last node is always dangling, and both base rows
//! ([`TransitionCsr`]) and delta-patched rows ([`emigre_ppr::PatchedCsr`])
//! are pushed.

use emigre_hin::{EdgeKey, GraphDelta, GraphView, Hin, NodeId};
use emigre_ppr::{CsrRows, PprConfig, ReversePush, TransitionCsr, TransitionModel};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

#[derive(Debug, Clone)]
struct RandomGraph {
    n: usize,
    /// `(src, dst, type, weight)`; self-loops, duplicates and edges out of
    /// the last node are dropped at build time.
    edges: Vec<(u32, u32, usize, f64)>,
}

fn random_graph(max_n: usize) -> impl Strategy<Value = RandomGraph> {
    (3..=max_n).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 0usize..2, 0.25f64..4.0);
        proptest::collection::vec(edge, 1..(4 * n)).prop_map(move |edges| RandomGraph { n, edges })
    })
}

fn build(desc: &RandomGraph) -> Hin {
    let mut g = Hin::new();
    let nt = g.registry_mut().node_type("n");
    let ets = [
        g.registry_mut().edge_type("a"),
        g.registry_mut().edge_type("b"),
    ];
    for _ in 0..desc.n {
        g.add_node(nt, None);
    }
    let dangling = desc.n as u32 - 1;
    for &(u, v, t, w) in &desc.edges {
        if u != v && u != dangling {
            let _ = g.add_edge(NodeId(u), NodeId(v), ets[t], w); // duplicates ignored
        }
    }
    g
}

/// A consistent delta: removals drawn from the graph's real edges,
/// additions guarded against existing edges, self-loops and the dangling
/// node.
fn build_delta(
    g: &Hin,
    removal_picks: &[prop::sample::Index],
    additions: &[(u32, u32, usize, f64)],
) -> GraphDelta {
    let ets = [
        g.registry().find_edge_type("a").unwrap(),
        g.registry().find_edge_type("b").unwrap(),
    ];
    let dangling = NodeId(g.num_nodes() as u32 - 1);
    let mut d = GraphDelta::new();
    let edges: Vec<_> = g.edges().collect();
    for pick in removal_picks {
        if edges.is_empty() {
            break;
        }
        let (key, _w) = edges[pick.index(edges.len())];
        d.remove_edge(key); // idempotent for repeated picks
    }
    for &(s, t, ty, w) in additions {
        let (src, dst) = (NodeId(s), NodeId(t));
        let key = EdgeKey::new(src, dst, ets[ty]);
        if src != dst
            && src != dangling
            && !g.has_edge(src, dst, ets[ty])
            && !d.removed().contains(&key)
            && !d.added().iter().any(|a| a.key == key)
        {
            d.add_edge(key, w);
        }
    }
    d
}

fn models() -> impl Strategy<Value = TransitionModel> {
    prop_oneof![
        Just(TransitionModel::Weighted),
        Just(TransitionModel::Uniform),
        (0.0f64..=1.0).prop_map(|beta| TransitionModel::RecWalk { beta }),
    ]
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every column of one `compute_many` call equals its lone push.
fn assert_lone_equal<K: CsrRows>(
    kernel: &K,
    cfg: &PprConfig,
    targets: &[NodeId],
) -> Result<(), TestCaseError> {
    let many = ReversePush::compute_many(kernel, cfg, targets);
    prop_assert_eq!(many.len(), targets.len());
    for (col, &t) in many.iter().zip(targets) {
        let lone = ReversePush::compute(kernel, cfg, t);
        prop_assert_eq!(col.target, t);
        prop_assert_eq!(col.pushes, lone.pushes, "pushes of {:?}", t);
        prop_assert_eq!(
            col.drained.to_bits(),
            lone.drained.to_bits(),
            "drained of {:?}",
            t
        );
        prop_assert!(
            bits(&col.estimates) == bits(&lone.estimates),
            "estimates of {:?}",
            t
        );
        prop_assert!(
            bits(&col.residuals) == bits(&lone.residuals),
            "residuals of {:?}",
            t
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn compute_many_equals_compute_bit_for_bit(
        desc in random_graph(16),
        model in models(),
        epsilon in prop_oneof![Just(1e-3), Just(1e-6), Just(1e-9)],
        picks in proptest::collection::vec(any::<prop::sample::Index>(), 0..=20),
        removal_picks in proptest::collection::vec(any::<prop::sample::Index>(), 0..3),
        additions in proptest::collection::vec((0u32..16, 0u32..16, 0usize..2, 0.25f64..4.0), 0..3),
    ) {
        let g = build(&desc);
        let cfg = PprConfig { transition: model, epsilon, ..PprConfig::default() };
        let targets: Vec<NodeId> = picks.iter().map(|p| NodeId(p.index(desc.n) as u32)).collect();
        let csr = TransitionCsr::build(&g, model);
        assert_lone_equal(&csr, &cfg, &targets)?;

        let additions: Vec<_> = additions
            .into_iter()
            .map(|(s, t, ty, w)| (s % desc.n as u32, t % desc.n as u32, ty, w))
            .collect();
        let d = build_delta(&g, &removal_picks, &additions);
        let view = d.overlay(&g);
        let patched = csr.patched(&view, &d.touched_sources());
        assert_lone_equal(&patched, &cfg, &targets)?;
    }
}
