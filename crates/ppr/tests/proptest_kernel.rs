//! Property-based validation of the flat transition kernel on randomly
//! generated graphs: [`TransitionCsr`] rows must reproduce `transition_row`
//! exactly, [`PatchedCsr`] must match a full rebuild on the overlay graph,
//! and the kernel push loops must agree with exact power iteration.

use emigre_hin::{EdgeKey, GraphDelta, GraphView, Hin, NodeId};
use emigre_ppr::{
    ppr_power, transition_row, CsrRows, ForwardPush, PprConfig, ReversePush, TransitionCsr,
    TransitionModel,
};
use proptest::prelude::*;

/// A random directed weighted graph description with two edge types, so
/// parallel typed edges (which the kernel must merge) actually occur.
#[derive(Debug, Clone)]
struct RandomGraph {
    n: usize,
    /// `(src, dst, type, weight)`; self-loops and duplicates are dropped
    /// at build time.
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

/// A consistent delta: removals drawn from the graph's real edges,
/// additions guarded against existing edges and self-loops.
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

fn cfg(model: TransitionModel) -> PprConfig {
    PprConfig {
        transition: model,
        epsilon: 1e-8,
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

    /// Every CSR forward row equals `transition_row` on the same node, and
    /// the reverse CSR is its exact transpose (same entries, bit-equal
    /// probabilities).
    #[test]
    fn csr_rows_reproduce_transition_row(desc in random_graph(14), model in models()) {
        let g = build(&desc);
        let csr = TransitionCsr::build(&g, model);
        let mut rev_total = 0usize;
        for u in 0..desc.n as u32 {
            let expect = transition_row(&g, model, NodeId(u));
            let (dsts, probs) = csr.forward_row(NodeId(u));
            prop_assert_eq!(dsts.len(), expect.len(), "row width at {}", u);
            for (i, &(v, p)) in expect.iter().enumerate() {
                prop_assert_eq!(dsts[i], v.0);
                prop_assert!((probs[i] - p).abs() < 1e-15);
            }
            let (srcs, rprobs) = csr.reverse_row(NodeId(u));
            rev_total += srcs.len();
            for (&s, &p) in srcs.iter().zip(rprobs) {
                let (fd, fp) = csr.forward_row(NodeId(s));
                let i = fd.binary_search(&u).expect("transpose entry");
                prop_assert_eq!(fp[i].to_bits(), p.to_bits());
            }
        }
        prop_assert_eq!(rev_total, csr.num_entries());
    }

    /// Patching the touched rows of a random delta is indistinguishable
    /// from rebuilding the whole CSR on the overlay graph.
    #[test]
    fn patched_csr_matches_full_rebuild(
        desc in random_graph(12),
        model in models(),
        removal_picks in proptest::collection::vec(any::<prop::sample::Index>(), 0..3),
        additions in proptest::collection::vec((0u32..12, 0u32..12, 0usize..2, 0.25f64..4.0), 0..3),
    ) {
        let g = build(&desc);
        let additions: Vec<_> = additions
            .into_iter()
            .map(|(s, t, ty, w)| (s % desc.n as u32, t % desc.n as u32, ty, w))
            .collect();
        let d = build_delta(&g, &removal_picks, &additions);
        d.validate(&g).expect("delta built consistent");
        let view = d.overlay(&g);

        let csr = TransitionCsr::build(&g, model);
        let patched = csr.patched(&view, &d.touched_sources());
        let rebuilt = TransitionCsr::build(&view, model);
        for u in 0..desc.n as u32 {
            let (pd, pp) = patched.forward_row(NodeId(u));
            let (rd, rp) = rebuilt.forward_row(NodeId(u));
            prop_assert_eq!(pd, rd, "forward dsts at {}", u);
            for (a, b) in pp.iter().zip(rp) {
                prop_assert!((a - b).abs() < 1e-15);
            }
            // Reverse source order may differ; compare as sorted multisets.
            let (ps, ppr) = patched.reverse_row(NodeId(u));
            let (rs, rpr) = rebuilt.reverse_row(NodeId(u));
            let mut a: Vec<(u32, u64)> =
                ps.iter().zip(ppr).map(|(&s, &p)| (s, p.to_bits())).collect();
            let mut b: Vec<(u32, u64)> =
                rs.iter().zip(rpr).map(|(&s, &p)| (s, p.to_bits())).collect();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a.len(), b.len(), "reverse width at {}", u);
            for ((sa, pa), (sb, pb)) in a.iter().zip(&b) {
                prop_assert_eq!(sa, sb);
                prop_assert!((f64::from_bits(*pa) - f64::from_bits(*pb)).abs() < 1e-15);
            }
        }
    }

    /// The kernel push loops land within the ε invariant of exact PPR:
    /// forward against the seed's power-iteration row, reverse against
    /// each source's.
    #[test]
    fn kernel_pushes_match_power_iteration(
        desc in random_graph(12),
        model in models(),
        seed_raw in 0u32..12,
    ) {
        let g = build(&desc);
        let seed = NodeId(seed_raw % desc.n as u32);
        let c = cfg(model);
        let csr = TransitionCsr::build(&g, model);
        let exact_from: Vec<Vec<f64>> = (0..desc.n as u32)
            .map(|s| ppr_power(&g, &c, NodeId(s)))
            .collect();

        let fp = ForwardPush::compute(&csr, &c, seed);
        for (t, (&est, &exact)) in fp.estimates.iter().zip(&exact_from[seed.index()]).enumerate() {
            prop_assert!(
                (est - exact).abs() < 1e-5,
                "forward t={}: kernel {} vs exact {}",
                t, est, exact
            );
        }

        let rp = ReversePush::compute(&csr, &c, seed);
        for (s, (&est, row)) in rp.estimates.iter().zip(&exact_from).enumerate() {
            let exact = row[seed.index()];
            prop_assert!(
                (est - exact).abs() < 1e-5,
                "reverse s={}: kernel {} vs exact {}",
                s, est, exact
            );
        }
    }

    /// End-to-end counterfactual path: pushing over the patched kernel of a
    /// random delta agrees with a push over a kernel built from scratch on
    /// the overlay.
    #[test]
    fn patched_kernel_push_matches_overlay_push(
        desc in random_graph(10),
        removal_picks in proptest::collection::vec(any::<prop::sample::Index>(), 0..2),
        additions in proptest::collection::vec((0u32..10, 0u32..10, 0usize..2, 0.25f64..4.0), 0..2),
        seed_raw in 0u32..10,
    ) {
        let g = build(&desc);
        let additions: Vec<_> = additions
            .into_iter()
            .map(|(s, t, ty, w)| (s % desc.n as u32, t % desc.n as u32, ty, w))
            .collect();
        let d = build_delta(&g, &removal_picks, &additions);
        let view = d.overlay(&g);
        let seed = NodeId(seed_raw % desc.n as u32);
        let c = cfg(TransitionModel::Weighted);

        let csr = TransitionCsr::build(&g, TransitionModel::Weighted);
        let patched = csr.patched(&view, &d.touched_sources());
        let from_patched = ForwardPush::compute(&patched, &c, seed);
        let rebuilt = TransitionCsr::build(&view, TransitionModel::Weighted);
        let from_scratch = ForwardPush::compute(&rebuilt, &c, seed);
        for t in 0..desc.n {
            prop_assert!(
                (from_patched.estimates[t] - from_scratch.estimates[t]).abs() < 1e-5,
                "t={}: patched {} vs scratch {}",
                t, from_patched.estimates[t], from_scratch.estimates[t]
            );
        }
    }
}
