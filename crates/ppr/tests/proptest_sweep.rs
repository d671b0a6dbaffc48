//! Every push loop against a plain sweep written here.
//!
//! The push loops index residuals by kernel row entries without bounds
//! checks. Each must still equal a safe, bounds-checked Gauss–Seidel sweep
//! with the same visit order, bit for bit: estimates and residuals by
//! `to_bits`, `pushes` and `drained` exactly. Covered:
//!
//! * [`ForwardPush::compute`] and [`ReversePush::compute`] (node order);
//! * [`ReversePush::compute_many`] at lane widths 2, 4 and 8, and on lists
//!   of 0–20 targets with duplicates, which split into several blocks;
//! * a staged [`PushWorkspace::push_stage`] ladder after
//!   [`PushWorkspace::repair_row_change`] (first-touch order), on random
//!   graphs, on a small graph whose later passes run with every node
//!   touched, and on a large one whose passes never do.
//!
//! The graphs are random, their last node is always dangling, and both
//! base rows ([`TransitionCsr`]) and delta-patched rows
//! ([`emigre_ppr::PatchedCsr`]) are pushed. The `should_panic` cases pin
//! the checks the unchecked indexing rests on.

use emigre_hin::{EdgeKey, GraphDelta, GraphView, Hin, NodeId};
use emigre_ppr::{
    CsrRows, ForwardPush, PprConfig, PushWorkspace, ReversePush, TransitionCsr, TransitionModel,
};
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

/// A push state as the reference sweeps keep it.
struct Plain {
    estimates: Vec<f64>,
    residuals: Vec<f64>,
    pushes: usize,
    drained: f64,
}

impl Plain {
    fn seeded(n: usize, at: NodeId) -> Self {
        let mut residuals = vec![0.0; n];
        residuals[at.index()] = 1.0;
        Plain {
            estimates: vec![0.0; n],
            residuals,
            pushes: 0,
            drained: 0.0,
        }
    }

    /// Pushes `u` if its |residual| exceeds `eps`, scattering along `row`,
    /// and calls `touch` on each row entry before adding to it. True if it
    /// pushed.
    fn push(
        &mut self,
        cfg: &PprConfig,
        eps: f64,
        u: usize,
        row: (&[u32], &[f64]),
        mut touch: impl FnMut(usize, &Self),
    ) -> bool {
        let r = self.residuals[u];
        if r.abs() <= eps {
            return false;
        }
        self.residuals[u] = 0.0;
        self.estimates[u] += cfg.alpha * r;
        self.pushes += 1;
        self.drained += r.abs();
        let spread = (1.0 - cfg.alpha) * r;
        for (&v, &p) in row.0.iter().zip(row.1) {
            touch(v as usize, self);
            self.residuals[v as usize] += spread * p;
        }
        true
    }

    /// Whole-array passes in node order until one pushes nothing.
    fn converge<K: CsrRows>(&mut self, kernel: &K, cfg: &PprConfig, reverse: bool) {
        loop {
            let mut any = false;
            for u in 0..kernel.num_nodes() {
                let node = NodeId(u as u32);
                let row = if reverse {
                    kernel.reverse_row(node)
                } else {
                    kernel.forward_row(node)
                };
                any |= self.push(cfg, cfg.epsilon, u, row, |_, _| {});
            }
            if !any {
                return;
            }
        }
    }
}

/// The reference CHECK transaction: a base state, its first-touch log
/// and the touched flags the workspace keeps as epoch stamps.
struct PlainTransaction {
    state: Plain,
    log: Vec<usize>,
    touched: Vec<bool>,
}

impl PlainTransaction {
    fn new(base: &ForwardPush) -> Self {
        PlainTransaction {
            state: Plain {
                estimates: base.estimates.clone(),
                residuals: base.residuals.clone(),
                pushes: 0,
                drained: 0.0,
            },
            log: Vec::new(),
            touched: vec![false; base.estimates.len()],
        }
    }

    fn touch(log: &mut Vec<usize>, touched: &mut [bool], v: usize) {
        if !touched[v] {
            touched[v] = true;
            log.push(v);
        }
    }

    /// `repair_row_change`: touch, then add, in row order.
    fn repair(&mut self, cfg: &PprConfig, u: NodeId, old: (&[u32], &[f64]), new: (&[u32], &[f64])) {
        let pu = self.state.estimates[u.index()];
        if pu == 0.0 {
            return;
        }
        let scale = (1.0 - cfg.alpha) / cfg.alpha * pu;
        for (row, sign) in [(new, 1.0), (old, -1.0)] {
            for (&t, &p) in row.0.iter().zip(row.1) {
                Self::touch(&mut self.log, &mut self.touched, t as usize);
                let dv = if sign > 0.0 { scale * p } else { -scale * p };
                self.state.residuals[t as usize] += dv;
            }
        }
    }

    /// `push_stage`: passes over the log in first-touch order, nodes
    /// touched during a pass included, until one pushes nothing.
    fn stage<K: CsrRows>(&mut self, kernel: &K, cfg: &PprConfig, eps: f64) {
        loop {
            let mut any = false;
            let mut k = 0;
            while k < self.log.len() {
                let u = self.log[k];
                k += 1;
                let (log, touched) = (&mut self.log, &mut self.touched);
                let row = kernel.forward_row(NodeId(u as u32));
                any |= self
                    .state
                    .push(cfg, eps, u, row, |v, _| Self::touch(log, touched, v));
            }
            if !any {
                return;
            }
        }
    }
}

/// `estimates`, `residuals`, `pushes` and `drained` all equal the
/// reference's, floats bit for bit.
fn assert_same(
    what: &str,
    estimates: &[f64],
    residuals: &[f64],
    pushes: usize,
    drained: f64,
    plain: &Plain,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(pushes, plain.pushes, "pushes of {}", what);
    prop_assert_eq!(
        drained.to_bits(),
        plain.drained.to_bits(),
        "drained of {}",
        what
    );
    prop_assert!(
        bits(estimates) == bits(&plain.estimates),
        "estimates of {}",
        what
    );
    prop_assert!(
        bits(residuals) == bits(&plain.residuals),
        "residuals of {}",
        what
    );
    Ok(())
}

/// Lone forward and reverse pushes from every node, and `compute_many`
/// over `lists`, each equal to the reference sweep.
fn assert_pushes_plain<K: CsrRows>(
    kernel: &K,
    cfg: &PprConfig,
    lists: &[Vec<NodeId>],
) -> Result<(), TestCaseError> {
    let n = kernel.num_nodes();
    let reverse_plain = |t: NodeId| {
        let mut plain = Plain::seeded(n, t);
        plain.converge(kernel, cfg, true);
        plain
    };
    for u in 0..n as u32 {
        let s = NodeId(u);
        let fwd = ForwardPush::compute(kernel, cfg, s);
        let mut plain = Plain::seeded(n, s);
        plain.converge(kernel, cfg, false);
        let what = format!("forward push from {u}");
        assert_same(
            &what,
            &fwd.estimates,
            &fwd.residuals,
            fwd.pushes,
            fwd.drained,
            &plain,
        )?;
        let rev = ReversePush::compute(kernel, cfg, s);
        let what = format!("reverse push to {u}");
        assert_same(
            &what,
            &rev.estimates,
            &rev.residuals,
            rev.pushes,
            rev.drained,
            &reverse_plain(s),
        )?;
    }
    for targets in lists {
        let many = ReversePush::compute_many(kernel, cfg, targets);
        prop_assert_eq!(many.len(), targets.len());
        for (col, &t) in many.iter().zip(targets) {
            prop_assert_eq!(col.target, t);
            let what = format!("{:?} in a block of {}", t, targets.len());
            assert_same(
                &what,
                &col.estimates,
                &col.residuals,
                col.pushes,
                col.drained,
                &reverse_plain(t),
            )?;
        }
    }
    Ok(())
}

/// The ε ladder a CHECK climbs: 1e-3, then ×0.03 down to the target.
fn ladder(target: f64) -> Vec<f64> {
    let mut eps = 1e-3_f64.max(target);
    let mut out = vec![eps];
    while eps > target {
        eps = (eps * 0.03).max(target);
        out.push(eps);
    }
    out
}

/// Repairs `delta`'s touched rows into the push from `seed` and climbs the
/// ladder, in a workspace and in the reference, comparing after every
/// stage. Returns the touched-set size before each stage.
fn assert_ladder_plain(
    g: &Hin,
    cfg: &PprConfig,
    seed: NodeId,
    delta: &GraphDelta,
) -> Result<Vec<usize>, TestCaseError> {
    let csr = TransitionCsr::build(g, cfg.transition);
    let base = ForwardPush::compute(&csr, cfg, seed);
    let view = delta.overlay(g);
    let touched = delta.touched_sources();
    let patched = csr.patched(&view, &touched);
    let mut ws = PushWorkspace::new(g.num_nodes());
    ws.load_base(&base);
    let mut plain = PlainTransaction::new(&base);
    for &u in &touched {
        ws.repair_row_change(cfg, u, csr.forward_row(u), patched.forward_row(u));
        plain.repair(cfg, u, csr.forward_row(u), patched.forward_row(u));
    }
    let mut sizes = Vec::new();
    for eps in ladder(cfg.epsilon) {
        sizes.push(ws.touched_len());
        ws.push_stage(&patched, cfg, eps);
        plain.stage(&patched, cfg, eps);
        prop_assert_eq!(ws.touched_len(), plain.log.len());
        let what = format!("stage {eps:e}");
        assert_same(
            &what,
            ws.estimates(),
            ws.residuals(),
            ws.pushes(),
            ws.mass_drained(),
            &plain.state,
        )?;
    }
    ws.rollback();
    prop_assert!(bits(ws.estimates()) == bits(&base.estimates));
    Ok(sizes)
}

fn ring_with_chords(n: usize) -> Hin {
    let mut g = Hin::new();
    let nt = g.registry_mut().node_type("n");
    let et = g.registry_mut().edge_type("a");
    g.registry_mut().edge_type("b");
    let nodes: Vec<_> = (0..n).map(|_| g.add_node(nt, None)).collect();
    for i in 0..n {
        g.add_edge(nodes[i], nodes[(i + 1) % n], et, 1.0).unwrap();
        g.add_edge(nodes[i], nodes[(i + 3) % n], et, 2.0).unwrap();
    }
    // A dangling node, fed from two ring nodes.
    let sink = g.add_node(nt, None);
    g.add_edge(nodes[4], sink, et, 1.0).unwrap();
    g.add_edge(nodes[7], sink, et, 3.0).unwrap();
    g
}

/// One removal and one insertion at node 0 of a ring.
fn ring_delta(g: &Hin) -> GraphDelta {
    let et = g.registry().find_edge_type("a").unwrap();
    let mut d = GraphDelta::new();
    d.remove_edge(EdgeKey::new(NodeId(0), NodeId(1), et));
    d.add_edge(EdgeKey::new(NodeId(0), NodeId(6), et), 4.0);
    d
}

fn weighted(epsilon: f64) -> PprConfig {
    PprConfig {
        transition: TransitionModel::Weighted,
        epsilon,
        ..PprConfig::default()
    }
}

#[test]
fn a_small_graph_sweeps_its_later_stages_with_every_node_touched() {
    let g = ring_with_chords(12);
    let sizes = assert_ladder_plain(&g, &weighted(1e-9), NodeId(0), &ring_delta(&g)).unwrap();
    let n = g.num_nodes();
    assert!(
        sizes.iter().filter(|&&s| s == n).count() >= 2,
        "stages starting all-touched: touched sizes {sizes:?} of {n}"
    );
}

#[test]
fn a_large_graph_never_touches_every_node() {
    let g = ring_with_chords(2_000);
    let sizes = assert_ladder_plain(&g, &weighted(1e-9), NodeId(0), &ring_delta(&g)).unwrap();
    assert!(sizes.iter().all(|&s| s < g.num_nodes()), "{sizes:?}");
}

#[test]
#[should_panic(expected = "past the 3-node kernel")]
fn patched_rows_rejects_a_destination_past_the_kernel() {
    let mut g = Hin::new();
    let nt = g.registry_mut().node_type("n");
    let et = g.registry_mut().edge_type("e");
    for _ in 0..3 {
        g.add_node(nt, None);
    }
    g.add_edge(NodeId(0), NodeId(1), et, 1.0).unwrap();
    let csr = TransitionCsr::build(&g, TransitionModel::Weighted);
    let _ = csr.patched_rows(vec![(0, vec![1, 3], vec![0.5, 0.5])]);
}

#[test]
#[should_panic(expected = "for a 14-node kernel")]
fn a_push_state_of_the_wrong_length_is_refused() {
    let g = ring_with_chords(13);
    let cfg = weighted(1e-6);
    let csr = TransitionCsr::build(&g, cfg.transition);
    let mut fp = ForwardPush::compute(&csr, &cfg, NodeId(0));
    fp.residuals.pop();
    fp.push_until_converged(&csr, &cfg);
}

#[test]
#[should_panic(expected = "for a 14-node kernel")]
fn a_reverse_state_of_the_wrong_length_is_refused() {
    let g = ring_with_chords(13);
    let cfg = weighted(1e-6);
    let csr = TransitionCsr::build(&g, cfg.transition);
    let mut rp = ReversePush::compute(&csr, &cfg, NodeId(0));
    rp.estimates.push(0.0);
    rp.push_until_converged(&csr, &cfg);
}

#[test]
#[should_panic(expected = "workspace holds 15 nodes, kernel 14")]
fn a_workspace_of_the_wrong_size_is_refused() {
    let g = ring_with_chords(13);
    let cfg = weighted(1e-6);
    let csr = TransitionCsr::build(&g, cfg.transition);
    let mut ws = PushWorkspace::new(g.num_nodes() + 1);
    ws.add_residual(NodeId(0), 1.0);
    ws.push_stage(&csr, &cfg, cfg.epsilon);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_push_loop_equals_the_plain_sweep(
        desc in random_graph(16),
        model in models(),
        epsilon in prop_oneof![Just(1e-3), Just(1e-6), Just(1e-9)],
        picks in proptest::collection::vec(any::<prop::sample::Index>(), 0..=20),
        seed in any::<prop::sample::Index>(),
        removal_picks in proptest::collection::vec(any::<prop::sample::Index>(), 0..3),
        additions in proptest::collection::vec((0u32..16, 0u32..16, 0usize..2, 0.25f64..4.0), 0..3),
    ) {
        let g = build(&desc);
        let cfg = PprConfig { transition: model, epsilon, ..PprConfig::default() };
        let node = |p: &prop::sample::Index| NodeId(p.index(desc.n) as u32);
        let targets: Vec<NodeId> = picks.iter().map(node).collect();
        // Widths 2, 4 and 8 from full blocks, then the whole list.
        let lists: Vec<Vec<NodeId>> = [2, 4, 8]
            .into_iter()
            .filter(|&w| targets.len() >= w)
            .map(|w| targets[..w].to_vec())
            .chain(std::iter::once(targets.clone()))
            .collect();
        let csr = TransitionCsr::build(&g, model);
        assert_pushes_plain(&csr, &cfg, &lists)?;

        let additions: Vec<_> = additions
            .into_iter()
            .map(|(s, t, ty, w)| (s % desc.n as u32, t % desc.n as u32, ty, w))
            .collect();
        let d = build_delta(&g, &removal_picks, &additions);
        let view = d.overlay(&g);
        let patched = csr.patched(&view, &d.touched_sources());
        assert_pushes_plain(&patched, &cfg, &lists)?;

        // The CHECK ladder from a random seed, on a fine-ε base push.
        let fine = PprConfig { epsilon: epsilon.min(1e-6), ..cfg };
        assert_ladder_plain(&g, &fine, node(&seed), &d)?;
    }
}
