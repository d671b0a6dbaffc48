//! Property: the column bound of `emigre_ppr::bound` contains the exact
//! counterfactual PPR score.
//!
//! A CHECK edits one source's out-row plus, with mirrored actions, the
//! rows of the nodes it links to or unlinks from, then pushes through the
//! precision ladder. After every stage, and for every target `t` with its
//! base-graph `ReversePush` column, [`ColumnBound::interval`] must contain
//! power iteration's `π′(seed, t)` on the edited graph. Pushes start both
//! from a repaired converged base and from the zero state; columns are
//! pushed at coarse and fine ε, so the bound's `ε_c` term is exercised.

use emigre_hin::{EdgeKey, GraphDelta, GraphView, Hin, NodeId};
use emigre_ppr::{
    ppr_power, ColumnBound, CsrRows, ForwardPush, PprConfig, PushWorkspace, ReversePush,
    TransitionCsr, TransitionModel,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Target ε of the forward pushes; the ladder runs 1e-3, ×0.03, down to it.
const EPSILON: f64 = 1e-9;
/// Power iteration's own error at tolerance 1e-14: a margin far below
/// every interval the ladder produces.
const POWER_ERR: f64 = 1e-12;

#[derive(Debug, Clone)]
struct Case {
    n: usize,
    /// `(u, v, type, weight)`; the last node keeps no out-edge (dangling).
    edges: Vec<(u32, u32, usize, f64)>,
    source: u32,
    removals: Vec<prop::sample::Index>,
    additions: Vec<(u32, usize, f64)>,
    mirrored: bool,
}

fn cases() -> impl Strategy<Value = Case> {
    (4usize..=12).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 0usize..2, 0.25f64..4.0);
        (
            proptest::collection::vec(edge, n..(4 * n)),
            0..(n as u32 - 1),
            proptest::collection::vec(any::<prop::sample::Index>(), 0..3),
            proptest::collection::vec((0..n as u32, 0usize..2, 0.25f64..4.0), 0..3),
            any::<bool>(),
        )
            .prop_map(move |(edges, source, removals, additions, mirrored)| Case {
                n,
                edges,
                source,
                removals,
                additions,
                mirrored,
            })
    })
}

fn build(case: &Case) -> Hin {
    let mut g = Hin::new();
    let nt = g.registry_mut().node_type("n");
    let ets = [
        g.registry_mut().edge_type("a"),
        g.registry_mut().edge_type("b"),
    ];
    for _ in 0..case.n {
        g.add_node(nt, None);
    }
    let dangling = case.n as u32 - 1;
    for &(u, v, t, w) in &case.edges {
        if u != v && u != dangling {
            let _ = g.add_edge(NodeId(u), NodeId(v), ets[t], w); // duplicates ignored
        }
    }
    g
}

/// The CHECK-shaped edit: removals and additions at `case.source`, each
/// mirrored onto the other endpoint's row when `case.mirrored`.
fn build_delta(g: &Hin, case: &Case) -> GraphDelta {
    let ets = [
        g.registry().find_edge_type("a").unwrap(),
        g.registry().find_edge_type("b").unwrap(),
    ];
    let s = NodeId(case.source);
    let mut d = GraphDelta::new();
    let out: Vec<(NodeId, _)> = {
        let mut v = Vec::new();
        g.for_each_out(s, |dst, et, _| v.push((dst, et)));
        v
    };
    let remove = |d: &mut GraphDelta, key: EdgeKey| {
        if g.has_edge(key.src, key.dst, key.etype) && !d.removed().contains(&key) {
            d.remove_edge(key);
        }
    };
    for pick in &case.removals {
        if out.is_empty() {
            break;
        }
        let (dst, et) = out[pick.index(out.len())];
        remove(&mut d, EdgeKey::new(s, dst, et));
        if case.mirrored {
            remove(&mut d, EdgeKey::new(dst, s, et));
        }
    }
    let add = |d: &mut GraphDelta, key: EdgeKey, w: f64| {
        if key.src != key.dst
            && !g.has_edge(key.src, key.dst, key.etype)
            && !d.added().iter().any(|a| a.key == key)
        {
            d.add_edge(key, w);
        }
    };
    for &(t, ty, w) in &case.additions {
        add(&mut d, EdgeKey::new(s, NodeId(t), ets[ty]), w);
        if case.mirrored {
            add(&mut d, EdgeKey::new(NodeId(t), s, ets[ty]), w);
        }
    }
    d
}

fn models() -> impl Strategy<Value = TransitionModel> {
    prop_oneof![
        Just(TransitionModel::Weighted),
        (0.0f64..=1.0).prop_map(|beta| TransitionModel::RecWalk { beta }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn column_bound_contains_power_iteration_after_every_stage(
        case in cases(),
        model in models(),
        from_base in any::<bool>(),
        col_eps in prop_oneof![Just(1e-3), Just(1e-6), Just(1e-9)],
    ) {
        let g = build(&case);
        let d = build_delta(&g, &case);
        d.validate(&g).expect("delta built consistent");
        let cfg = PprConfig {
            transition: model,
            epsilon: EPSILON,
            tolerance: 1e-14,
            max_iterations: 100_000,
            ..PprConfig::default()
        };
        let seed = NodeId(case.source);
        let view = d.overlay(&g);
        let exact = ppr_power(&view, &cfg, seed);

        let kernel = TransitionCsr::build(&g, model);
        let touched = d.touched_sources();
        let patched = kernel.patched(&view, &touched);
        let mut ws = PushWorkspace::new(g.num_nodes());
        if from_base {
            ws.load_base(&ForwardPush::compute(&kernel, &cfg, seed));
        }
        let col_cfg = PprConfig { epsilon: col_eps, ..cfg };
        let bounds: Vec<(NodeId, ColumnBound, f64)> = (0..case.n as u32)
            .map(|t| {
                let column = Arc::new(ReversePush::compute(&kernel, &col_cfg, NodeId(t)));
                let bound = ColumnBound::new(&cfg, &ws, column);
                let shift = bound.edit_shift(&patched);
                (NodeId(t), bound, shift)
            })
            .collect();

        if from_base {
            for &u in &touched {
                ws.repair_row_change(&cfg, u, kernel.forward_row(u), patched.forward_row(u));
            }
        } else {
            ws.add_residual(seed, 1.0);
        }
        let mut eps = 1e-3_f64;
        loop {
            ws.push_stage(&patched, &cfg, eps);
            let mass = ws.residual_mass();
            for &(t, ref bound, shift) in &bounds {
                let (lo, hi) = bound.interval(&ws, shift, mass);
                let x = exact[t.index()];
                prop_assert!(
                    lo - POWER_ERR <= x && x <= hi + POWER_ERR,
                    "stage {:e} t={}: exact {} outside [{}, {}] (estimate {}, mass {:e})",
                    eps, t.0, x, lo, hi, ws.estimate(t), mass
                );
            }
            if eps <= EPSILON {
                break;
            }
            eps = (eps * 0.03).max(EPSILON);
        }
        ws.rollback();
    }
}
