//! Reusable push workspaces: allocation-free counterfactual CHECKs.
//!
//! EMiGRe's CHECK step evaluates thousands of candidate edits per
//! explanation. Done naively, each one clones the user's forward-push state
//! (two `O(n)` vectors) and re-scans all residuals for the mass bound at
//! every precision stage. A [`PushWorkspace`] amortises all of that:
//!
//! * the base push state (the user's converged [`ForwardPush`], or the zero
//!   state of a fresh push) is loaded **once**;
//! * each check runs as a *transaction*: every first write to a node's
//!   estimate or residual appends its prior values to an undo log, and
//!   [`PushWorkspace::rollback`] restores the base state in
//!   `O(nodes touched)` — no cloning, ever;
//! * each precision stage sweeps the transaction's touched set in
//!   first-touch (undo-log) order, pushing every node above the stage ε,
//!   until a pass pushes nothing: the Gauss–Seidel schedule of
//!   [`ForwardPush::push_until_converged`], restricted to the nodes the
//!   transaction wrote;
//! * `Σ|residual|` is derived from the undo log in `O(nodes touched)` as
//!   `base + Σ_touched(|r| − |r_base|)`, once per stage when the CHECK
//!   reads its mass bound — no `O(n)` scan, and no bookkeeping on the
//!   residual writes of the push loop. `Σ r·c` against a column `c` is
//!   derived the same way ([`PushWorkspace::residual_dot`]), for the
//!   column bound of [`crate::bound`].
//!
//! The touched set is what makes the whole check `O(touched)`: the base
//! state is converged at the target ε, so any node whose residual exceeds
//! a (coarser or equal) stage ε must already have been touched by the
//! transaction, and a pass over the touched set that pushes nothing has
//! checked the whole frontier.

use crate::config::PprConfig;
use crate::forward::ForwardPush;
use crate::kernel::CsrRows;
use crate::sweep::Sweep;
use emigre_hin::NodeId;

#[derive(Debug, Clone, Copy)]
struct UndoEntry {
    node: u32,
    estimate: f64,
    residual: f64,
}

/// Reusable forward-push state with transactional overlay semantics.
#[derive(Debug)]
pub struct PushWorkspace {
    estimates: Vec<f64>,
    residuals: Vec<f64>,
    /// First-touch log of the current transaction: each touched node with
    /// its base values, in the order the stage sweeps visit them.
    undo: Vec<UndoEntry>,
    /// Epoch stamp per node; a node is touched in the current transaction
    /// iff its stamp equals `epoch`. Bumping `epoch` on rollback
    /// invalidates all stamps without clearing the array.
    touch_epoch: Vec<u64>,
    epoch: u64,
    /// `Σ|residual|` of the loaded base state.
    base_mass: f64,
    /// Push operations across the workspace's lifetime.
    pushes: usize,
    /// [`PushWorkspace::push_stage`] calls across the workspace's lifetime.
    stages: usize,
    /// Total |residual| mass retired by pushes across the workspace's
    /// lifetime. Cumulative like `pushes` — deliberately *not* restored by
    /// [`PushWorkspace::rollback`], so per-check deltas survive the
    /// transaction ending.
    drained: f64,
}

impl PushWorkspace {
    /// A workspace over `n` nodes with the all-zero base state (the seed
    /// state of a from-scratch push: see [`PushWorkspace::add_residual`]).
    pub fn new(n: usize) -> Self {
        PushWorkspace {
            estimates: vec![0.0; n],
            residuals: vec![0.0; n],
            undo: Vec::new(),
            touch_epoch: vec![0; n],
            epoch: 1,
            base_mass: 0.0,
            pushes: 0,
            stages: 0,
            drained: 0.0,
        }
    }

    /// Loads a converged push state as the new base. `O(n)`, once per
    /// explanation context — not per check.
    pub fn load_base(&mut self, base: &ForwardPush) {
        let n = base.estimates.len();
        self.estimates.clear();
        self.estimates.extend_from_slice(&base.estimates);
        self.residuals.clear();
        self.residuals.extend_from_slice(&base.residuals);
        self.touch_epoch.clear();
        self.touch_epoch.resize(n, 0);
        self.epoch = 1;
        self.undo.clear();
        self.base_mass = base.residuals.iter().map(|r| r.abs()).sum();
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.estimates.len()
    }

    /// Current estimates (base plus transaction writes).
    #[inline]
    pub fn estimates(&self) -> &[f64] {
        &self.estimates
    }

    /// Current residuals (base plus transaction writes).
    #[inline]
    pub fn residuals(&self) -> &[f64] {
        &self.residuals
    }

    /// Estimated `PPR(seed, t)` under the current transaction.
    #[inline]
    pub fn estimate(&self, t: NodeId) -> f64 {
        self.estimates[t.index()]
    }

    /// `Σ|residual|` of the current state, derived from the undo log in
    /// `O(nodes touched)`: an untouched node still holds its base residual,
    /// so the mass is the base mass plus each touched node's change.
    pub fn residual_mass(&self) -> f64 {
        let change: f64 = self
            .undo
            .iter()
            .map(|e| self.residuals[e.node as usize].abs() - e.residual.abs())
            .sum();
        // Cancellation can leave a hair below zero when the true mass is
        // ~0; the bound must stay non-negative.
        (self.base_mass + change).max(0.0)
    }

    /// `Σ|residual|` of the base state, as [`Self::residual_mass`] reads it.
    #[inline]
    pub fn base_mass(&self) -> f64 {
        self.base_mass
    }

    /// `Σ_v r(v)·c(v)` of the base state against `column`, in `O(n)`:
    /// once per column and base, between transactions. The zero base of a
    /// fresh push costs nothing.
    pub fn base_dot(&self, column: &[f64]) -> f64 {
        debug_assert!(self.is_clean(), "base_dot reads the base state");
        if self.base_mass == 0.0 {
            return 0.0;
        }
        self.residuals.iter().zip(column).map(|(r, c)| r * c).sum()
    }

    /// `Σ_v r(v)·c(v)` of the current state against `column`, derived from
    /// the undo log in `O(nodes touched)` the way [`Self::residual_mass`]
    /// derives `Σ|r|`: `base_dot` ([`Self::base_dot`]) plus each touched
    /// node's change.
    pub fn residual_dot(&self, column: &[f64], base_dot: f64) -> f64 {
        let change: f64 = self
            .undo
            .iter()
            .map(|e| {
                let i = e.node as usize;
                (self.residuals[i] - e.residual) * column[i]
            })
            .sum();
        base_dot + change
    }

    /// Total pushes across all transactions.
    #[inline]
    pub fn pushes(&self) -> usize {
        self.pushes
    }

    /// Total precision stages ([`Self::push_stage`] calls) across all
    /// transactions.
    #[inline]
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Total |residual| mass retired across all transactions (cumulative;
    /// not reset by rollback).
    #[inline]
    pub fn mass_drained(&self) -> f64 {
        self.drained
    }

    /// Nodes written by the current transaction.
    #[inline]
    pub fn touched_len(&self) -> usize {
        self.undo.len()
    }

    /// True between transactions: nothing to roll back.
    #[inline]
    pub fn is_clean(&self) -> bool {
        self.undo.is_empty()
    }

    /// Adds `dv` to `node`'s residual (e.g. `+1.0` at the seed to start a
    /// from-scratch push), logging the prior value for rollback.
    pub fn add_residual(&mut self, node: NodeId, dv: f64) {
        let i = node.index();
        touch(
            &mut self.undo,
            &mut self.touch_epoch,
            self.epoch,
            i,
            &self.estimates,
            &self.residuals,
        );
        self.residuals[i] += dv;
    }

    /// Repairs the Eq. (3) invariant after `node`'s transition row changed
    /// from `old_row` to `new_row`, both as kernel row slices.
    ///
    /// Derivation: given estimates `p`, the unique residual satisfying the
    /// invariant is `r = e_s − (p − (1−α)·pW)/α`, so a change to row `u`
    /// shifts `r(t)` by `(1−α)/α · p(u) · ΔW(u,t)` for every affected `t`.
    /// The caller then resumes pushing over the *updated* kernel
    /// ([`Self::push_stage`]).
    pub fn repair_row_change(
        &mut self,
        cfg: &PprConfig,
        node: NodeId,
        old_row: (&[u32], &[f64]),
        new_row: (&[u32], &[f64]),
    ) {
        let pu = self.estimates[node.index()];
        if pu == 0.0 {
            return;
        }
        let scale = (1.0 - cfg.alpha) / cfg.alpha * pu;
        let (dsts, probs) = new_row;
        for (&t, &p) in dsts.iter().zip(probs) {
            self.add_residual(NodeId(t), scale * p);
        }
        let (dsts, probs) = old_row;
        for (&t, &p) in dsts.iter().zip(probs) {
            self.add_residual(NodeId(t), -scale * p);
        }
    }

    /// Pushes over `kernel` until every |residual| ≤ `eps`.
    ///
    /// Sweeps the transaction's touched set in first-touch order, nodes
    /// first touched during the pass included, pushing every node above
    /// `eps`, and stops after a pass that pushes nothing. Requires `eps` no
    /// finer than the ε the base state was converged at: an untouched node
    /// still holds its base residual, which that ε already bounds, so the
    /// touched set is the whole frontier.
    ///
    /// Once the transaction has touched every node, the log can no longer
    /// grow and every `touch` is a no-op, so a pass that starts that way
    /// runs the plain sweep of `crate::sweep` over the log, in the same
    /// order. The test is made once per pass: made per node visit, it cost
    /// 3–4% on CHECK-heavy explains.
    ///
    /// Panics unless the workspace holds one entry per kernel node.
    pub fn push_stage<K: CsrRows>(&mut self, kernel: &K, cfg: &PprConfig, eps: f64) {
        self.stages += 1;
        let n = kernel.num_nodes();
        assert!(
            [
                self.estimates.len(),
                self.residuals.len(),
                self.touch_epoch.len()
            ] == [n; 3],
            "workspace holds {} nodes, kernel {n}",
            self.touch_epoch.len()
        );
        // Slices and locals rather than `self.field` accesses: the undo
        // log's growth path is an opaque call, after which every field read
        // through `self` would be reloaded on each scattered entry.
        let estimates = &mut self.estimates[..];
        let residuals = &mut self.residuals[..];
        let touch_epoch = &mut self.touch_epoch[..];
        let undo = &mut self.undo;
        let epoch = self.epoch;
        let mut pushes = self.pushes;
        let mut drained = self.drained;
        loop {
            let pushes_before = pushes;
            if undo.len() == n {
                let mut sweep = Sweep::new(kernel, cfg, estimates, residuals, pushes, drained);
                sweep.forward(eps, undo.iter().map(|e| e.node));
                (pushes, drained) = (sweep.pushes, sweep.drained);
            } else {
                let mut k = 0;
                while k < undo.len() {
                    let u = undo[k].node;
                    k += 1;
                    let ui = u as usize;
                    let r = residuals[ui];
                    if r.abs() <= eps {
                        continue;
                    }
                    residuals[ui] = 0.0;
                    drained += r.abs();
                    estimates[ui] += cfg.alpha * r;
                    pushes += 1;
                    let spread = (1.0 - cfg.alpha) * r;
                    let (dsts, probs) = kernel.forward_row(NodeId(u));
                    for (&v, &p) in dsts.iter().zip(probs) {
                        let vi = v as usize;
                        touch(undo, touch_epoch, epoch, vi, estimates, residuals);
                        residuals[vi] += spread * p;
                    }
                }
            }
            if pushes == pushes_before {
                break;
            }
        }
        self.pushes = pushes;
        self.drained = drained;
    }

    /// Restores the base state in `O(nodes touched)` and ends the
    /// transaction.
    pub fn rollback(&mut self) {
        while let Some(e) = self.undo.pop() {
            let i = e.node as usize;
            self.estimates[i] = e.estimate;
            self.residuals[i] = e.residual;
        }
        self.epoch += 1;
    }
}

/// Appends node `i`'s current values to the undo log on its first write in
/// the transaction (its stamp differs from `epoch`). Takes the workspace's
/// fields apart so the push loop can call it on slices it holds.
#[inline]
fn touch(
    undo: &mut Vec<UndoEntry>,
    touch_epoch: &mut [u64],
    epoch: u64,
    i: usize,
    estimates: &[f64],
    residuals: &[f64],
) {
    if touch_epoch[i] != epoch {
        touch_epoch[i] = epoch;
        undo.push(UndoEntry {
            node: i as u32,
            estimate: estimates[i],
            residual: residuals[i],
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::TransitionCsr;
    use crate::power::ppr_power;
    use crate::transition::TransitionModel;
    use emigre_hin::{EdgeKey, GraphDelta, GraphView, Hin};

    fn cfg(eps: f64) -> PprConfig {
        PprConfig {
            transition: TransitionModel::Weighted,
            epsilon: eps,
            tolerance: 1e-14,
            max_iterations: 10_000,
            ..PprConfig::default()
        }
    }

    fn ring_with_chords(n: usize) -> Hin {
        let mut g = Hin::new();
        let nt = g.registry_mut().node_type("n");
        let et = g.registry_mut().edge_type("e");
        let nodes: Vec<_> = (0..n).map(|_| g.add_node(nt, None)).collect();
        for i in 0..n {
            g.add_edge(nodes[i], nodes[(i + 1) % n], et, 1.0).unwrap();
            g.add_edge(nodes[i], nodes[(i + 3) % n], et, 2.0).unwrap();
        }
        g
    }

    #[test]
    fn scratch_transaction_matches_power_iteration() {
        let g = ring_with_chords(10);
        let c = cfg(1e-9);
        let csr = TransitionCsr::build(&g, c.transition);
        let mut ws = PushWorkspace::new(g.num_nodes());
        ws.add_residual(NodeId(0), 1.0);
        ws.push_stage(&csr, &c, c.epsilon);
        let exact = ppr_power(&g, &c, NodeId(0));
        for (t, (est, exact)) in ws.estimates().iter().zip(&exact).enumerate() {
            assert!((est - exact).abs() < 1e-7, "t={t}: {est} vs {exact}");
        }
        assert!(ws.residual_mass() <= 10.0 * c.epsilon);
        ws.rollback();
        assert!(ws.estimates().iter().all(|&e| e == 0.0));
        assert!(ws.residual_mass() == 0.0);
    }

    #[test]
    fn dynamic_transaction_matches_power_on_the_overlay() {
        let g = ring_with_chords(10);
        let c = cfg(1e-9);
        let et = g.registry().find_edge_type("e").unwrap();
        let csr = TransitionCsr::build(&g, c.transition);
        let base = ForwardPush::compute(&csr, &c, NodeId(0));

        let mut removal = GraphDelta::new();
        removal.remove_edge(EdgeKey::new(NodeId(0), NodeId(1), et));
        let mut insertion = GraphDelta::new();
        insertion.add_edge(EdgeKey::new(NodeId(2), NodeId(7), et), 5.0);

        let mut ws = PushWorkspace::new(g.num_nodes());
        ws.load_base(&base);
        for d in [removal, insertion] {
            let view = d.overlay(&g);
            let touched = d.touched_sources();
            let patched = csr.patched(&view, &touched);
            for &u in &touched {
                ws.repair_row_change(&c, u, csr.forward_row(u), patched.forward_row(u));
            }
            ws.push_stage(&patched, &c, c.epsilon);

            let exact = ppr_power(&view, &c, NodeId(0));
            for (t, (est, exact)) in ws.estimates().iter().zip(&exact).enumerate() {
                assert!((est - exact).abs() < 1e-7, "t={t}: {est} vs {exact}");
            }
            ws.rollback();
        }
    }

    #[test]
    fn rollback_restores_base_exactly_across_many_transactions() {
        let g = ring_with_chords(12);
        let c = cfg(1e-8);
        let et = g.registry().find_edge_type("e").unwrap();
        let csr = TransitionCsr::build(&g, c.transition);
        let base = ForwardPush::compute(&csr, &c, NodeId(3));
        let mut ws = PushWorkspace::new(g.num_nodes());
        ws.load_base(&base);
        let snapshot_est = ws.estimates().to_vec();
        let snapshot_mass = ws.residual_mass();

        for round in 0..20u32 {
            let mut d = GraphDelta::new();
            let dst = NodeId((round % 11) + 1);
            if g.has_edge(NodeId(3), dst, et) {
                d.remove_edge(EdgeKey::new(NodeId(3), dst, et));
            } else {
                d.add_edge(EdgeKey::new(NodeId(3), dst, et), 1.0 + round as f64);
            }
            let view = d.overlay(&g);
            let touched = d.touched_sources();
            let patched = csr.patched(&view, &touched);
            for &u in &touched {
                ws.repair_row_change(&c, u, csr.forward_row(u), patched.forward_row(u));
            }
            ws.push_stage(&patched, &c, c.epsilon);
            ws.rollback();
            assert!(ws.is_clean());
            assert_eq!(ws.estimates(), &snapshot_est[..], "round {round}");
            assert_eq!(ws.residual_mass(), snapshot_mass);
        }
    }

    #[test]
    fn staged_epsilon_refinement_within_one_transaction() {
        let g = ring_with_chords(10);
        let c = cfg(1e-9);
        let csr = TransitionCsr::build(&g, c.transition);
        let mut ws = PushWorkspace::new(g.num_nodes());
        ws.add_residual(NodeId(2), 1.0);
        ws.push_stage(&csr, &c, 1e-3);
        let coarse_mass = ws.residual_mass();
        ws.push_stage(&csr, &c, 1e-9);
        assert!(ws.residual_mass() <= coarse_mass + 1e-12);
        let exact = ppr_power(&g, &c, NodeId(2));
        for (est, exact) in ws.estimates().iter().zip(&exact) {
            assert!((est - exact).abs() < 1e-7);
        }
        ws.rollback();
    }

    #[test]
    fn transactions_do_not_reallocate_buffers() {
        let g = ring_with_chords(16);
        let c = cfg(1e-8);
        let csr = TransitionCsr::build(&g, c.transition);
        let base = ForwardPush::compute(&csr, &c, NodeId(0));
        let mut ws = PushWorkspace::new(g.num_nodes());
        ws.load_base(&base);
        let et = g.registry().find_edge_type("e").unwrap();

        // Warm up one transaction so the undo log's capacity settles.
        let mut d = GraphDelta::new();
        d.remove_edge(EdgeKey::new(NodeId(0), NodeId(1), et));
        let view = d.overlay(&g);
        let patched = csr.patched(&view, &d.touched_sources());
        for &u in &d.touched_sources() {
            ws.repair_row_change(&c, u, csr.forward_row(u), patched.forward_row(u));
        }
        ws.push_stage(&patched, &c, c.epsilon);
        ws.rollback();

        let est_ptr = ws.estimates.as_ptr();
        let res_ptr = ws.residuals.as_ptr();
        let undo_cap = ws.undo.capacity();
        for _ in 0..50 {
            for &u in &d.touched_sources() {
                ws.repair_row_change(&c, u, csr.forward_row(u), patched.forward_row(u));
            }
            ws.push_stage(&patched, &c, c.epsilon);
            ws.rollback();
        }
        assert_eq!(ws.estimates.as_ptr(), est_ptr);
        assert_eq!(ws.residuals.as_ptr(), res_ptr);
        assert_eq!(ws.undo.capacity(), undo_cap);
    }

    /// Runs `delta` from `seed` as one repaired transaction through the
    /// CHECK's ε ladder (1e-3, ×0.03 down to the target). After the repair
    /// and after every stage, `residual_mass()` must match a full scan's
    /// Σ|r|; after every stage, the scan must find no |residual| above that
    /// stage's ε — anywhere in the graph, not only in the touched set.
    fn sweep_settles_every_stage(g: &Hin, seed: NodeId, delta: &GraphDelta) {
        let c = cfg(1e-9);
        let csr = TransitionCsr::build(g, c.transition);
        let base = ForwardPush::compute(&csr, &c, seed);
        let mut ws = PushWorkspace::new(g.num_nodes());
        ws.load_base(&base);
        let view = delta.overlay(g);
        let touched = delta.touched_sources();
        let patched = csr.patched(&view, &touched);
        for &u in &touched {
            ws.repair_row_change(&c, u, csr.forward_row(u), patched.forward_row(u));
        }
        let scanned_mass = |ws: &PushWorkspace| ws.residuals.iter().map(|r| r.abs()).sum::<f64>();
        assert!((ws.residual_mass() - scanned_mass(&ws)).abs() <= 1e-12);

        let mut eps = 1e-3_f64.max(c.epsilon);
        loop {
            ws.push_stage(&patched, &c, eps);
            let abs = |i: usize| ws.residuals[i].abs();
            let worst = (0..ws.num_nodes())
                .max_by(|&a, &b| abs(a).total_cmp(&abs(b)))
                .expect("test graphs have nodes");
            assert!(
                abs(worst) <= eps,
                "stage {eps:e}: |r({worst})| = {:e}",
                abs(worst)
            );
            let (derived, scanned) = (ws.residual_mass(), scanned_mass(&ws));
            assert!(
                (derived - scanned).abs() <= 1e-12,
                "stage {eps:e}: derived mass {derived:e} vs scanned {scanned:e}"
            );
            if eps <= c.epsilon {
                break;
            }
            eps = (eps * 0.03).max(c.epsilon);
        }
        ws.rollback();
    }

    #[test]
    fn stage_sweeps_settle_the_whole_graph_after_a_repair() {
        let g = ring_with_chords(12);
        let et = g.registry().find_edge_type("e").unwrap();
        let mut d = GraphDelta::new();
        d.remove_edge(EdgeKey::new(NodeId(0), NodeId(1), et));
        d.add_edge(EdgeKey::new(NodeId(0), NodeId(6), et), 4.0);
        sweep_settles_every_stage(&g, NodeId(0), &d);
    }

    #[test]
    fn stage_sweeps_settle_the_whole_graph_with_a_dangling_node() {
        // Node 10 has in-edges but no out-edges: mass reaching it is
        // absorbed, so residual mass leaks out of the ring.
        let mut g = ring_with_chords(10);
        let nt = g.registry().find_node_type("n").unwrap();
        let et = g.registry().find_edge_type("e").unwrap();
        let sink = g.add_node(nt, None);
        g.add_edge(NodeId(4), sink, et, 1.0).unwrap();
        g.add_edge(NodeId(7), sink, et, 3.0).unwrap();
        let mut d = GraphDelta::new();
        d.remove_edge(EdgeKey::new(NodeId(4), sink, et));
        d.add_edge(EdgeKey::new(NodeId(0), sink, et), 2.0);
        sweep_settles_every_stage(&g, NodeId(0), &d);
    }
}
