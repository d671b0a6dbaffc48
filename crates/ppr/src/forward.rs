//! Forward Local Push (FLP).
//!
//! Approximates the PPR row `PPR(s, ·)` by locally pushing probability mass
//! outwards from the source. The state maintains the paper's Eq. (3)
//! invariant at every step:
//!
//! ```text
//! PPR(s,t) = p(t) + Σ_x r(x) · PPR(x,t)      ∀ t
//! ```
//!
//! where `p` are the estimates and `r` the residuals. Convergence means all
//! |residuals| ≤ ε, bounding each estimate's error by `max_x PPR(x,t) · Σ|r|`.
//!
//! The push loop runs over a flat transition kernel ([`CsrRows`]): a
//! [`crate::CompactCsr`] of the graph at either precision, or a
//! counterfactual [`crate::PatchedCsr`] overlay of one. Residuals may be
//! *negative* after a dynamic repair
//! ([`crate::PushWorkspace::repair_row_change`]); the push step is linear,
//! so pushing negative mass is sound and every push loop handles both
//! signs.

use crate::config::PprConfig;
use crate::kernel::{CsrRows, Prob};
use emigre_hin::NodeId;

/// State of a Forward Local Push from one source node.
#[derive(Debug, Clone)]
pub struct ForwardPush {
    /// The personalisation seed `s`.
    pub seed: NodeId,
    /// Estimates `p(t) ≈ PPR(seed, t)`.
    pub estimates: Vec<f64>,
    /// Residuals `r(x)` of Eq. (3).
    pub residuals: Vec<f64>,
    /// Total push operations performed over the state's lifetime.
    pub pushes: usize,
    /// Total |residual| mass retired by pushes over the state's lifetime
    /// (each push drains `|r(u)|` off the frontier, re-spreading
    /// `(1−α)·r(u)`). Like `pushes`, this is cumulative and never reset;
    /// observability callers flush deltas into an `ObsHandle`.
    pub drained: f64,
}

/// Exact: two dense f64 arrays at capacity.
impl emigre_obs::HeapSize for ForwardPush {
    fn heap_bytes(&self) -> usize {
        self.estimates.heap_bytes() + self.residuals.heap_bytes()
    }
}

impl ForwardPush {
    /// Runs FLP from `seed` to convergence over a precomputed transition
    /// kernel.
    pub fn compute_kernel<K: CsrRows>(kernel: &K, cfg: &PprConfig, seed: NodeId) -> Self {
        cfg.validate();
        let n = kernel.num_nodes();
        let mut state = ForwardPush {
            seed,
            estimates: vec![0.0; n],
            residuals: vec![0.0; n],
            pushes: 0,
            drained: 0.0,
        };
        state.residuals[seed.index()] = 1.0;
        state.push_until_converged_kernel(kernel, cfg);
        state
    }

    /// Pushes until every |residual| ≤ ε. The inner loop reads merged
    /// `(dst, prob)` row slices of the kernel.
    ///
    /// Schedule: whole-array Gauss–Seidel sweeps in node order until no
    /// residual exceeds ε. A sweep walks the CSR arrays sequentially — no
    /// queue traffic, no visited bitmap, no random-order row access — which
    /// measured ~3× faster per push than a FIFO queue discipline. Push
    /// operations are valid in any order, so the Eq. (3)
    /// invariant and the ε guarantee are unaffected; each push retires at
    /// least `α·ε` of residual mass, so the sweep count is bounded by
    /// `Σ|r| / (α·ε)` and in practice by `O(log(1/ε))`.
    ///
    /// The inner spread runs in fixed-size chunks: the dense
    /// `spread × probs` multiply autovectorises into a stack buffer before
    /// the scatter pass applies it. Per-entry arithmetic and order are
    /// unchanged, so estimates stay bit-identical to the fused loop.
    pub fn push_until_converged_kernel<K: CsrRows>(&mut self, kernel: &K, cfg: &PprConfig) {
        let eps = cfg.epsilon;
        let n = self.residuals.len();
        const CHUNK: usize = 32;
        let mut add = [0.0f64; CHUNK];
        loop {
            let mut any = false;
            for u in 0..n {
                let r = self.residuals[u];
                if r.abs() <= eps {
                    continue;
                }
                any = true;
                self.residuals[u] = 0.0;
                self.estimates[u] += cfg.alpha * r;
                self.pushes += 1;
                self.drained += r.abs();
                let spread = (1.0 - cfg.alpha) * r;
                let (dsts, probs) = kernel.forward_row(NodeId(u as u32));
                let mut start = 0;
                while start < dsts.len() {
                    let end = (start + CHUNK).min(dsts.len());
                    for (j, &p) in probs[start..end].iter().enumerate() {
                        // `to_f64` is the identity for f64 layouts, so the
                        // reference path's arithmetic is unchanged.
                        add[j] = spread * p.to_f64();
                    }
                    for (j, &v) in dsts[start..end].iter().enumerate() {
                        self.residuals[v as usize] += add[j];
                    }
                    start = end;
                }
            }
            if !any {
                return;
            }
        }
    }

    /// Estimated `PPR(seed, t)`.
    #[inline]
    pub fn estimate(&self, t: NodeId) -> f64 {
        self.estimates[t.index()]
    }

    /// Sum of |residuals| — multiplied by `max PPR ≤ 1` it bounds the total
    /// L1 error of the estimates.
    pub fn residual_mass(&self) -> f64 {
        self.residuals.iter().map(|r| r.abs()).sum()
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // tests index parallel arrays by node id
mod tests {
    use super::*;
    use crate::kernel::TransitionCsr;
    use crate::power::ppr_power;
    use crate::transition::TransitionModel;
    use emigre_hin::{GraphView, Hin};

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

    fn push<G: GraphView>(g: &G, c: &PprConfig, seed: NodeId) -> ForwardPush {
        ForwardPush::compute_kernel(&TransitionCsr::build(g, c.transition), c, seed)
    }

    #[test]
    fn estimates_converge_to_exact() {
        let g = ring_with_chords(12);
        let c = cfg(1e-10);
        let exact = ppr_power(&g, &c, NodeId(0));
        let fp = push(&g, &c, NodeId(0));
        for t in 0..12 {
            assert!(
                (fp.estimates[t] - exact[t]).abs() < 1e-7,
                "node {t}: {} vs {}",
                fp.estimates[t],
                exact[t]
            );
        }
    }

    #[test]
    fn invariant_holds_at_loose_epsilon() {
        let g = ring_with_chords(10);
        let c = cfg(1e-3); // deliberately loose: large residuals remain
        let fp = push(&g, &c, NodeId(4));
        let tight = cfg(1e-10);
        // PPR(s,t) = p(t) + Σ_x r(x)·PPR(x,t), with PPR exact.
        let exact_from: Vec<Vec<f64>> = (0..10)
            .map(|x| ppr_power(&g, &tight, NodeId(x as u32)))
            .collect();
        let exact_s = &exact_from[4];
        for t in 0..10 {
            let mut rhs = fp.estimates[t];
            for x in 0..10 {
                rhs += fp.residuals[x] * exact_from[x][t];
            }
            assert!(
                (exact_s[t] - rhs).abs() < 1e-9,
                "invariant violated at t={t}: {} vs {}",
                exact_s[t],
                rhs
            );
        }
    }

    #[test]
    fn estimates_lower_bound_true_ppr_with_positive_residuals() {
        // With a fresh (non-repaired) push all residuals are ≥ 0, so
        // estimates can only under-approximate.
        let g = ring_with_chords(8);
        let c = cfg(1e-4);
        let fp = push(&g, &c, NodeId(0));
        assert!(fp.residuals.iter().all(|&r| r >= -1e-15));
        let exact = ppr_power(&g, &cfg(1e-10), NodeId(0));
        for t in 0..8 {
            assert!(fp.estimates[t] <= exact[t] + 1e-12);
        }
    }

    #[test]
    fn conservation_with_no_dangling_nodes() {
        let g = ring_with_chords(9);
        let c = cfg(1e-8);
        let fp = push(&g, &c, NodeId(1));
        // estimates + α-discounted future mass: total estimate mass plus
        // residual mass·1 ≈ 1 within push error when no mass leaks.
        let est: f64 = fp.estimates.iter().sum();
        let res: f64 = fp.residuals.iter().sum();
        assert!((est + res - 1.0).abs() < 1e-6, "est {est} res {res}");
    }

    #[test]
    fn seed_estimate_at_least_alpha() {
        let g = ring_with_chords(7);
        let c = cfg(1e-8);
        let fp = push(&g, &c, NodeId(6));
        assert!(fp.estimate(NodeId(6)) >= c.alpha - 1e-6);
    }
}
