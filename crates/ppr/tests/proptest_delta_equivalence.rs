//! Property: a counterfactual edit applied as a lazy [`GraphDelta::overlay`]
//! and as a materialised [`GraphDelta::apply_to`] graph yields the same PPR
//! vectors, each pushed over a kernel built from scratch on its graph. The explain path computes exclusively on overlays (CHECK never
//! clones the graph); this pins the overlay's semantics to the obviously
//! correct materialised rebuild.

use emigre_hin::{EdgeKey, GraphDelta, GraphView, Hin, NodeId};
use emigre_ppr::{ForwardPush, PprConfig, ReversePush, TransitionCsr, TransitionModel};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandomGraph {
    n: usize,
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
    for &(u, v, t, w) in &desc.edges {
        if u != v {
            let _ = g.add_edge(NodeId(u), NodeId(v), ets[t], w); // duplicates ignored
        }
    }
    g
}

fn build_delta(
    g: &Hin,
    removal_picks: &[prop::sample::Index],
    additions: &[(u32, u32, usize, f64)],
) -> GraphDelta {
    let ets = [
        g.registry().find_edge_type("a").unwrap(),
        g.registry().find_edge_type("b").unwrap(),
    ];
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Forward and reverse push agree between the overlay view and the
    /// materialised graph. Both runs satisfy the ε-residual invariant on
    /// graphs with identical edge sets, so their estimates must agree to
    /// ε-scale; 1e-7 leaves two orders of magnitude of slack over ε=1e-9.
    #[test]
    fn overlay_and_materialised_ppr_agree(
        desc in random_graph(12),
        model in models(),
        removal_picks in proptest::collection::vec(any::<prop::sample::Index>(), 0..3),
        additions in proptest::collection::vec((0u32..12, 0u32..12, 0usize..2, 0.25f64..4.0), 0..3),
        seed_raw in 0u32..12,
    ) {
        let g = build(&desc);
        let additions: Vec<_> = additions
            .into_iter()
            .map(|(s, t, ty, w)| (s % desc.n as u32, t % desc.n as u32, ty, w))
            .collect();
        let d = build_delta(&g, &removal_picks, &additions);
        d.validate(&g).expect("delta built consistent");
        let seed = NodeId(seed_raw % desc.n as u32);
        let cfg = PprConfig {
            transition: model,
            epsilon: 1e-9,
            ..PprConfig::default()
        };

        let overlay = d.overlay(&g);
        let materialised = d.apply_to(&g).expect("consistent delta applies");
        prop_assert_eq!(overlay.num_nodes(), materialised.num_nodes());

        let overlay_kernel = TransitionCsr::build(&overlay, model);
        let material_kernel = TransitionCsr::build(&materialised, model);
        let fw_overlay = ForwardPush::compute_kernel(&overlay_kernel, &cfg, seed);
        let fw_material = ForwardPush::compute_kernel(&material_kernel, &cfg, seed);
        for t in 0..desc.n {
            prop_assert!(
                (fw_overlay.estimates[t] - fw_material.estimates[t]).abs() < 1e-7,
                "forward t={}: overlay {} vs materialised {}",
                t, fw_overlay.estimates[t], fw_material.estimates[t]
            );
        }

        let rv_overlay = ReversePush::compute_kernel(&overlay_kernel, &cfg, seed);
        let rv_material = ReversePush::compute_kernel(&material_kernel, &cfg, seed);
        for s in 0..desc.n {
            prop_assert!(
                (rv_overlay.estimates[s] - rv_material.estimates[s]).abs() < 1e-7,
                "reverse s={}: overlay {} vs materialised {}",
                s, rv_overlay.estimates[s], rv_material.estimates[s]
            );
        }
    }
}
