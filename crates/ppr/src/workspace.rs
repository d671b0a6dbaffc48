//! Reusable push workspaces: allocation-free counterfactual CHECKs.
//!
//! EMiGRe's CHECK step evaluates thousands of candidate edits per
//! explanation, and each one used to clone the user's forward-push state
//! (two `O(n)` vectors), allocate a fresh queue and `queued` bitmap, and
//! re-scan all residuals for the mass bound at every precision stage. A
//! [`PushWorkspace`] amortises all of that:
//!
//! * the base push state (the user's converged [`ForwardPush`], or the zero
//!   state for from-scratch checks) is loaded **once**;
//! * each check runs as a *transaction*: every first write to a node's
//!   estimate or residual appends its prior values to an undo log, and
//!   [`PushWorkspace::rollback`] restores the base state in
//!   `O(nodes touched)` — no cloning, ever;
//! * the queue and `queued` bitmap persist across checks. The push loop
//!   leaves `queued` all-false when the queue drains, so no reset is
//!   needed;
//! * `Σ|residual|` is maintained incrementally as residuals change, making
//!   the staged-precision mass bound an `O(1)` read instead of an `O(n)`
//!   scan per stage.
//!
//! Seeding each stage's queue from the undo log is what makes the whole
//! check `O(touched)`: the base state is converged at the target ε, so any
//! node whose residual exceeds a (coarser or equal) stage ε must already
//! have been touched by the transaction.

use crate::config::PprConfig;
use crate::forward::ForwardPush;
use crate::kernel::{CsrRows, Prob};
use emigre_hin::NodeId;
use std::collections::VecDeque;

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
    queued: Vec<bool>,
    queue: VecDeque<u32>,
    undo: Vec<UndoEntry>,
    /// Epoch stamp per node; a node is touched in the current transaction
    /// iff its stamp equals `epoch`. Bumping `epoch` on rollback
    /// invalidates all stamps without clearing the array.
    touch_epoch: Vec<u64>,
    epoch: u64,
    /// `Σ|residual|` of the loaded base state.
    base_mass: f64,
    /// Incrementally maintained `Σ|residual|` of the current state.
    mass: f64,
    /// Push operations across the workspace's lifetime.
    pushes: usize,
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
            queued: vec![false; n],
            queue: VecDeque::new(),
            undo: Vec::new(),
            touch_epoch: vec![0; n],
            epoch: 1,
            base_mass: 0.0,
            mass: 0.0,
            pushes: 0,
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
        self.queued.clear();
        self.queued.resize(n, false);
        self.touch_epoch.clear();
        self.touch_epoch.resize(n, 0);
        self.epoch = 1;
        self.queue.clear();
        self.undo.clear();
        self.base_mass = base.residuals.iter().map(|r| r.abs()).sum();
        self.mass = self.base_mass;
    }

    /// Resets to the all-zero base state over `n` nodes, keeping buffer
    /// capacity. The reuse counterpart of [`PushWorkspace::new`] for
    /// workspaces recycled across questions (e.g. a serving worker's
    /// scratch); cumulative `pushes`/`drained` tallies are preserved.
    pub fn clear(&mut self, n: usize) {
        self.estimates.clear();
        self.estimates.resize(n, 0.0);
        self.residuals.clear();
        self.residuals.resize(n, 0.0);
        self.queued.clear();
        self.queued.resize(n, false);
        self.touch_epoch.clear();
        self.touch_epoch.resize(n, 0);
        self.epoch = 1;
        self.queue.clear();
        self.undo.clear();
        self.base_mass = 0.0;
        self.mass = 0.0;
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

    /// Estimated `PPR(seed, t)` under the current transaction.
    #[inline]
    pub fn estimate(&self, t: NodeId) -> f64 {
        self.estimates[t.index()]
    }

    /// `Σ|residual|`, maintained incrementally — `O(1)`.
    #[inline]
    pub fn residual_mass(&self) -> f64 {
        // Incremental float updates can drift a hair below zero when the
        // true mass is ~0; the bound must stay non-negative.
        self.mass.max(0.0)
    }

    /// Total pushes across all transactions.
    #[inline]
    pub fn pushes(&self) -> usize {
        self.pushes
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

    #[inline]
    fn touch(&mut self, i: usize) {
        if self.touch_epoch[i] != self.epoch {
            self.touch_epoch[i] = self.epoch;
            self.undo.push(UndoEntry {
                node: i as u32,
                estimate: self.estimates[i],
                residual: self.residuals[i],
            });
        }
    }

    /// Adds `dv` to `node`'s residual (e.g. `+1.0` at the seed to start a
    /// from-scratch push), logging the prior value for rollback.
    pub fn add_residual(&mut self, node: NodeId, dv: f64) {
        let i = node.index();
        self.touch(i);
        let old = self.residuals[i];
        let new = old + dv;
        self.residuals[i] = new;
        self.mass += new.abs() - old.abs();
    }

    /// Repairs the Eq. (3) invariant after `node`'s transition row changed
    /// from `old_row` to `new_row`, both as kernel row slices.
    ///
    /// Derivation: given estimates `p`, the unique residual satisfying the
    /// invariant is `r = e_s − (p − (1−α)·pW)/α`, so a change to row `u`
    /// shifts `r(t)` by `(1−α)/α · p(u) · ΔW(u,t)` for every affected `t`.
    /// The caller then resumes pushing over the *updated* kernel
    /// ([`Self::push_stage`]).
    pub fn repair_row_change<P: Prob>(
        &mut self,
        cfg: &PprConfig,
        node: NodeId,
        old_row: (&[u32], &[P]),
        new_row: (&[u32], &[P]),
    ) {
        let pu = self.estimates[node.index()];
        if pu == 0.0 {
            return;
        }
        let scale = (1.0 - cfg.alpha) / cfg.alpha * pu;
        let (dsts, probs) = new_row;
        for (&t, &p) in dsts.iter().zip(probs) {
            self.add_residual(NodeId(t), scale * p.to_f64());
        }
        let (dsts, probs) = old_row;
        for (&t, &p) in dsts.iter().zip(probs) {
            self.add_residual(NodeId(t), -scale * p.to_f64());
        }
    }

    /// Pushes over `kernel` until every |residual| ≤ `eps`.
    ///
    /// Requires `eps` no finer than the ε the base state was converged at:
    /// the stage queue is seeded from the transaction's touched set only,
    /// which is exhaustive precisely because untouched base residuals
    /// already satisfy the base ε.
    pub fn push_stage<K: CsrRows>(&mut self, kernel: &K, cfg: &PprConfig, eps: f64) {
        debug_assert!(self.queue.is_empty());
        for i in 0..self.undo.len() {
            let n = self.undo[i].node as usize;
            if self.residuals[n].abs() > eps && !self.queued[n] {
                self.queued[n] = true;
                self.queue.push_back(n as u32);
            }
        }
        while let Some(u) = self.queue.pop_front() {
            let ui = u as usize;
            self.queued[ui] = false;
            let r = self.residuals[ui];
            if r.abs() <= eps {
                continue;
            }
            self.touch(ui);
            self.residuals[ui] = 0.0;
            self.mass -= r.abs();
            self.drained += r.abs();
            self.estimates[ui] += cfg.alpha * r;
            self.pushes += 1;
            let spread = (1.0 - cfg.alpha) * r;
            let (dsts, probs) = kernel.forward_row(NodeId(u));
            self.spread_row(dsts, probs, spread, eps);
        }
    }

    /// Spreads `spread · probs[j]` onto each `dsts[j]`'s residual — the
    /// innermost loop of every push. Runs in fixed-size chunks: the dense
    /// `spread × probs` multiply autovectorises into a stack buffer, and the
    /// scatter pass then applies precomputed increments. Each entry still
    /// computes `old + (spread * p)` in the original order, so results are
    /// bit-identical to the fused scalar loop (rustc does not contract
    /// `a + b * c` into an FMA).
    #[inline]
    fn spread_row<P: Prob>(&mut self, dsts: &[u32], probs: &[P], spread: f64, eps: f64) {
        const CHUNK: usize = 32;
        let mut add = [0.0f64; CHUNK];
        let mut start = 0;
        while start < dsts.len() {
            let end = (start + CHUNK).min(dsts.len());
            for (j, &p) in probs[start..end].iter().enumerate() {
                add[j] = spread * p.to_f64();
            }
            for (j, &v) in dsts[start..end].iter().enumerate() {
                let vi = v as usize;
                self.touch(vi);
                let old = self.residuals[vi];
                let new = old + add[j];
                self.residuals[vi] = new;
                self.mass += new.abs() - old.abs();
                if new.abs() > eps && !self.queued[vi] {
                    self.queued[vi] = true;
                    self.queue.push_back(v);
                }
            }
            start = end;
        }
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
        self.mass = self.base_mass;
        debug_assert!(self.queue.is_empty());
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
        let base = ForwardPush::compute_kernel(&csr, &c, NodeId(0));

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
        let base = ForwardPush::compute_kernel(&csr, &c, NodeId(3));
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
        let base = ForwardPush::compute_kernel(&csr, &c, NodeId(0));
        let mut ws = PushWorkspace::new(g.num_nodes());
        ws.load_base(&base);
        let et = g.registry().find_edge_type("e").unwrap();

        // Warm up one transaction so undo/queue capacities settle.
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
        let queue_cap = ws.queue.capacity();
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
        assert_eq!(ws.queue.capacity(), queue_cap);
    }
}
