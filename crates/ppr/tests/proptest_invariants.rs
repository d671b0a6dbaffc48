//! Property-based validation of the PPR engines on randomly generated
//! graphs: the forward/reverse push invariants (paper Eqs. 3–4), agreement
//! with exact power iteration, and correctness of the dynamic residual
//! repair under random edge edits.

#![allow(clippy::needless_range_loop)] // properties index parallel arrays by node id

use emigre_hin::{EdgeKey, GraphDelta, GraphView, Hin, NodeId};
use emigre_ppr::{
    ppr_power, CsrRows, ForwardPush, PprConfig, PushWorkspace, ReversePush, TransitionCsr,
    TransitionModel,
};
use proptest::prelude::*;

/// A random directed weighted graph description: `n` nodes and a list of
/// `(src, dst, weight)` triples (self-loops and duplicates are dropped at
/// build time).
#[derive(Debug, Clone)]
struct RandomGraph {
    n: usize,
    edges: Vec<(u32, u32, f64)>,
}

fn random_graph(max_n: usize) -> impl Strategy<Value = RandomGraph> {
    (3..=max_n).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 0.25f64..4.0);
        proptest::collection::vec(edge, 1..(4 * n)).prop_map(move |edges| RandomGraph { n, edges })
    })
}

fn build(desc: &RandomGraph) -> Hin {
    let mut g = Hin::new();
    let nt = g.registry_mut().node_type("n");
    let et = g.registry_mut().edge_type("e");
    for _ in 0..desc.n {
        g.add_node(nt, None);
    }
    for &(u, v, w) in &desc.edges {
        if u != v {
            let _ = g.add_edge(NodeId(u), NodeId(v), et, w); // duplicates ignored
        }
    }
    g
}

fn cfg(model: TransitionModel) -> PprConfig {
    PprConfig {
        transition: model,
        epsilon: 1e-8,
        tolerance: 1e-13,
        max_iterations: 5_000,
        ..PprConfig::default()
    }
}

fn models() -> impl Strategy<Value = TransitionModel> {
    prop_oneof![
        Just(TransitionModel::Weighted),
        Just(TransitionModel::Uniform),
        (0.0f64..=1.0).prop_map(|beta| TransitionModel::RecWalk { beta }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// PPR vectors are probability-like: entries in [0,1], sum ≤ 1, and the
    /// seed retains at least α.
    #[test]
    fn power_iteration_is_substochastic(desc in random_graph(14), model in models(), seed_raw in 0u32..14) {
        let g = build(&desc);
        let seed = NodeId(seed_raw % desc.n as u32);
        let c = cfg(model);
        let ppr = ppr_power(&g, &c, seed);
        let sum: f64 = ppr.iter().sum();
        prop_assert!(sum <= 1.0 + 1e-9, "sum {sum}");
        prop_assert!(ppr.iter().all(|&x| (-1e-12..=1.0 + 1e-9).contains(&x)));
        prop_assert!(ppr[seed.index()] >= c.alpha - 1e-9);
    }

    /// Forward push agrees with power iteration within the residual bound.
    #[test]
    fn forward_push_matches_power(desc in random_graph(12), model in models(), seed_raw in 0u32..12) {
        let g = build(&desc);
        let seed = NodeId(seed_raw % desc.n as u32);
        let c = cfg(model);
        let exact = ppr_power(&g, &c, seed);
        let fp = ForwardPush::compute_kernel(&TransitionCsr::build(&g, model), &c, seed);
        for t in 0..desc.n {
            prop_assert!((fp.estimates[t] - exact[t]).abs() < 1e-5,
                "t={t}: push {} vs exact {}", fp.estimates[t], exact[t]);
        }
    }

    /// Reverse push column agrees with per-source power iteration.
    #[test]
    fn reverse_push_matches_power(desc in random_graph(10), model in models(), target_raw in 0u32..10) {
        let g = build(&desc);
        let target = NodeId(target_raw % desc.n as u32);
        let c = cfg(model);
        let rp = ReversePush::compute_kernel(&TransitionCsr::build(&g, model), &c, target);
        for s in 0..desc.n {
            let exact = ppr_power(&g, &c, NodeId(s as u32))[target.index()];
            prop_assert!((rp.estimates[s] - exact).abs() < 1e-5,
                "s={s}: push {} vs exact {}", rp.estimates[s], exact);
        }
    }

    /// Dynamic repair (the workspace's residual repair plus a push over
    /// the patched kernel) after removing a random existing edge reproduces
    /// exact PPR on the edited graph.
    #[test]
    fn dynamic_repair_matches_recompute(desc in random_graph(10), pick in any::<prop::sample::Index>(), seed_raw in 0u32..10) {
        let g = build(&desc);
        let edges: Vec<_> = g.edges().collect();
        prop_assume!(!edges.is_empty());
        let (key, _w) = edges[pick.index(edges.len())];
        let seed = NodeId(seed_raw % desc.n as u32);
        let c = cfg(TransitionModel::Weighted);

        let csr = TransitionCsr::build(&g, c.transition);
        let base_fp = ForwardPush::compute_kernel(&csr, &c, seed);
        let mut delta = GraphDelta::new();
        delta.remove_edge(EdgeKey::new(key.src, key.dst, key.etype));
        let view = delta.overlay(&g);
        let touched = delta.touched_sources();
        let patched = csr.patched(&view, &touched);
        let mut ws = PushWorkspace::new(g.num_nodes());
        ws.load_base(&base_fp);
        for &u in &touched {
            ws.repair_row_change(&c, u, csr.forward_row(u), patched.forward_row(u));
        }
        ws.push_stage(&patched, &c, c.epsilon);

        let exact = ppr_power(&view, &c, seed);
        for t in 0..desc.n {
            prop_assert!((ws.estimates()[t] - exact[t]).abs() < 1e-5,
                "t={t}: dyn {} vs exact {}", ws.estimates()[t], exact[t]);
        }
    }

    /// PPR is monotone in teleportation at the seed: larger α concentrates
    /// more mass on the seed itself.
    #[test]
    fn alpha_monotonicity_at_seed(desc in random_graph(10), seed_raw in 0u32..10) {
        let g = build(&desc);
        let seed = NodeId(seed_raw % desc.n as u32);
        let low = ppr_power(&g, &cfg(TransitionModel::Weighted).with_alpha(0.1), seed);
        let high = ppr_power(&g, &cfg(TransitionModel::Weighted).with_alpha(0.5), seed);
        prop_assert!(high[seed.index()] >= low[seed.index()] - 1e-9);
    }
}
