//! Property tests: the push kernels' `drained` tallies obey mass
//! conservation.
//!
//! A forward-push retirement of residual `r` moves `α·r` into the estimate
//! vector and spreads `(1-α)·r` back onto the residuals, so on a graph
//! where every node has out-edges (no dangling mass leaks) the teleport
//! mass decomposes exactly:
//!
//! ```text
//! 1.0 = Σ residuals  +  α · drained          (forward, fresh seed)
//! Σ estimates = α · drained                  (forward AND reverse)
//! ```
//!
//! The second identity holds for reverse push too — estimates only ever
//! grow by `α·r` per retirement — even though reverse residual mass is not
//! conserved (transition columns need not sum to 1).

use emigre_hin::{GraphView, Hin, NodeId};
use emigre_ppr::{
    ForwardPush, PprConfig, PushWorkspace, ReversePush, TransitionCsr, TransitionModel,
};
use proptest::prelude::*;

/// A connected graph with no dangling nodes: a bidirectional chain over all
/// `n` nodes plus arbitrary extra bidirectional edges.
fn build_graph(n: usize, extra: &[(usize, usize, f64)]) -> Hin {
    let mut g = Hin::new();
    let t = g.registry_mut().node_type("node");
    let e = g.registry_mut().edge_type("link");
    let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(t, None)).collect();
    for w in nodes.windows(2) {
        g.add_edge_bidirectional(w[0], w[1], e, 1.0).unwrap();
    }
    for &(a, b, w) in extra {
        let (a, b) = (nodes[a % n], nodes[b % n]);
        if a != b && !g.has_edge(a, b, e) {
            g.add_edge_bidirectional(a, b, e, w).unwrap();
        }
    }
    g
}

fn graph_strategy() -> impl Strategy<Value = (Hin, usize)> {
    (
        2usize..16,
        proptest::collection::vec((0usize..16, 0usize..16, 0.1f64..5.0), 0..20),
    )
        .prop_map(|(n, extra)| (build_graph(n, &extra), n))
}

fn config_strategy() -> impl Strategy<Value = PprConfig> {
    (
        0.05f64..0.9,
        1e-6f64..1e-2,
        prop_oneof![
            Just(TransitionModel::Uniform),
            Just(TransitionModel::Weighted),
        ],
    )
        .prop_map(|(alpha, epsilon, transition)| {
            PprConfig::default()
                .with_alpha(alpha)
                .with_epsilon(epsilon)
                .with_transition(transition)
        })
}

const TOL: f64 = 1e-9;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn forward_push_conserves_teleport_mass(
        (g, n) in graph_strategy(),
        cfg in config_strategy(),
        seed_raw in 0usize..16,
    ) {
        let seed = NodeId((seed_raw % n) as u32);
        {
            let push = ForwardPush::compute_kernel(&TransitionCsr::build(&g, cfg.transition), &cfg, seed);
            let residual: f64 = push.residuals.iter().sum();
            let estimates: f64 = push.estimates.iter().sum();
            prop_assert!(
                (1.0 - (residual + cfg.alpha * push.drained)).abs() < TOL,
                "teleport split violated: residual={residual} drained={} alpha={}",
                push.drained,
                cfg.alpha
            );
            prop_assert!(
                (estimates - cfg.alpha * push.drained).abs() < TOL,
                "estimate mass != alpha*drained: {estimates} vs {}",
                cfg.alpha * push.drained
            );
        }
    }

    #[test]
    fn reverse_push_estimates_match_drained_mass(
        (g, n) in graph_strategy(),
        cfg in config_strategy(),
        target_raw in 0usize..16,
    ) {
        let target = NodeId((target_raw % n) as u32);
        {
            let push = ReversePush::compute_kernel(&TransitionCsr::build(&g, cfg.transition), &cfg, target);
            let estimates: f64 = push.estimates.iter().sum();
            prop_assert!(
                (estimates - cfg.alpha * push.drained).abs() < TOL,
                "reverse estimate mass != alpha*drained: {estimates} vs {}",
                cfg.alpha * push.drained
            );
        }
    }

    #[test]
    fn workspace_staged_push_conserves_teleport_mass(
        (g, n) in graph_strategy(),
        cfg in config_strategy(),
        seed_raw in 0usize..16,
    ) {
        let seed = NodeId((seed_raw % n) as u32);
        let kernel = TransitionCsr::build(&g, cfg.transition);
        let mut ws = PushWorkspace::new(g.num_nodes());
        ws.add_residual(seed, 1.0);
        ws.push_stage(&kernel, &cfg, cfg.epsilon);
        let estimates: f64 = (0..g.num_nodes() as u32)
            .map(|i| ws.estimate(NodeId(i)))
            .sum();
        prop_assert!(
            (1.0 - (ws.residual_mass() + cfg.alpha * ws.mass_drained())).abs() < TOL,
            "workspace teleport split violated: residual={} drained={}",
            ws.residual_mass(),
            ws.mass_drained()
        );
        prop_assert!(
            (estimates - cfg.alpha * ws.mass_drained()).abs() < TOL,
            "workspace estimate mass != alpha*drained"
        );
    }
}
