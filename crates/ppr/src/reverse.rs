//! Reverse Local Push (RLP).
//!
//! Approximates the PPR *column* `PPR(·, t)` — the importance of target `t`
//! seen from every possible source — by pushing mass backwards through
//! incoming edges. The state maintains the paper's Eq. (4) invariant:
//!
//! ```text
//! PPR(s,t) = p(s) + Σ_x PPR(s,x) · r(x)      ∀ s
//! ```
//!
//! EMiGRe uses RLP twice: rooted at the current recommendation `rec` and at
//! the Why-Not item `WNI`, one run each yields `PPR(n, rec)` and
//! `PPR(n, WNI)` for *every* candidate neighbour `n` simultaneously — the
//! inputs of the contribution equations (5) and (6). The Add-mode search
//! space (Algorithm 2, line 8) is exactly the support of the RLP estimates
//! rooted at `WNI`.

use crate::config::PprConfig;
use crate::kernel::{CsrRows, Prob};
use emigre_hin::NodeId;

/// State of a Reverse Local Push towards one target node.
#[derive(Debug, Clone)]
pub struct ReversePush {
    /// The target `t` whose column is approximated.
    pub target: NodeId,
    /// Estimates `p(s) ≈ PPR(s, target)`.
    pub estimates: Vec<f64>,
    /// Residuals `r(x)` of Eq. (4).
    pub residuals: Vec<f64>,
    /// Total push operations performed over the state's lifetime.
    pub pushes: usize,
    /// Total |residual| mass retired by pushes over the state's lifetime
    /// (cumulative, never reset — see `ForwardPush::drained`).
    pub drained: f64,
}

/// Exact: two dense f64 arrays at capacity.
impl emigre_obs::HeapSize for ReversePush {
    fn heap_bytes(&self) -> usize {
        self.estimates.heap_bytes() + self.residuals.heap_bytes()
    }
}

impl ReversePush {
    /// Runs RLP towards `target` over a precomputed transition kernel.
    ///
    /// The kernel's reverse CSR has every `W(u, v)` entry materialised, so
    /// the inner loop is a flat slice walk: no per-in-edge out-degree or
    /// weight-sum lookup at the source.
    pub fn compute_kernel<K: CsrRows>(kernel: &K, cfg: &PprConfig, target: NodeId) -> Self {
        cfg.validate();
        let n = kernel.num_nodes();
        let mut state = ReversePush {
            target,
            estimates: vec![0.0; n],
            residuals: vec![0.0; n],
            pushes: 0,
            drained: 0.0,
        };
        state.residuals[target.index()] = 1.0;
        state.push_until_converged_kernel(kernel, cfg);
        state
    }

    /// Pushes until every |residual| ≤ ε.
    ///
    /// Uses the same sweep schedule as the forward kernel loop: whole-array
    /// Gauss–Seidel passes over the reverse CSR until no residual exceeds
    /// ε. Push order does not affect the Eq. (4) invariant or the ε
    /// guarantee, and sequential row access beats a FIFO queue's
    /// random-order traversal.
    pub fn push_until_converged_kernel<K: CsrRows>(&mut self, kernel: &K, cfg: &PprConfig) {
        let eps = cfg.epsilon;
        let n = self.residuals.len();
        loop {
            let mut any = false;
            for v in 0..n {
                let r = self.residuals[v];
                if r.abs() <= eps {
                    continue;
                }
                any = true;
                self.residuals[v] = 0.0;
                self.estimates[v] += cfg.alpha * r;
                self.pushes += 1;
                self.drained += r.abs();
                let spread = (1.0 - cfg.alpha) * r;
                let (srcs, probs) = kernel.reverse_row(NodeId(v as u32));
                for (&u, &p) in srcs.iter().zip(probs) {
                    self.residuals[u as usize] += spread * p.to_f64();
                }
            }
            if !any {
                return;
            }
        }
    }

    /// Estimated `PPR(s, target)`.
    #[inline]
    pub fn estimate(&self, s: NodeId) -> f64 {
        self.estimates[s.index()]
    }

    /// Nodes with a non-zero estimate, i.e. the sources from which the
    /// target is (locally) reachable — EMiGRe's Add-mode candidate pool.
    pub fn support(&self) -> Vec<NodeId> {
        self.estimates
            .iter()
            .enumerate()
            .filter(|(_, &p)| p > 0.0)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Sum of |residuals|.
    pub fn residual_mass(&self) -> f64 {
        self.residuals.iter().map(|r| r.abs()).sum()
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // tests index parallel arrays by node id
mod tests {
    use super::*;
    use crate::forward::ForwardPush;
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

    fn push<G: GraphView>(g: &G, c: &PprConfig, target: NodeId) -> ReversePush {
        ReversePush::compute_kernel(&TransitionCsr::build(g, c.transition), c, target)
    }

    #[test]
    fn estimates_converge_to_exact_column() {
        let g = ring_with_chords(12);
        let c = cfg(1e-10);
        let rp = push(&g, &c, NodeId(5));
        for s in 0..12 {
            let exact = ppr_power(&g, &c, NodeId(s as u32))[5];
            assert!(
                (rp.estimates[s] - exact).abs() < 1e-6,
                "s={s}: {} vs {}",
                rp.estimates[s],
                exact
            );
        }
    }

    #[test]
    fn invariant_holds_at_loose_epsilon() {
        let g = ring_with_chords(10);
        let c = cfg(1e-3);
        let rp = push(&g, &c, NodeId(7));
        let tight = cfg(1e-10);
        let exact_from: Vec<Vec<f64>> = (0..10)
            .map(|x| ppr_power(&g, &tight, NodeId(x as u32)))
            .collect();
        for s in 0..10 {
            let mut rhs = rp.estimates[s];
            for x in 0..10 {
                rhs += exact_from[s][x] * rp.residuals[x];
            }
            let lhs = exact_from[s][7];
            assert!(
                (lhs - rhs).abs() < 1e-9,
                "invariant violated at s={s}: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn support_excludes_sources_that_cannot_reach_target() {
        let mut g = Hin::new();
        let nt = g.registry_mut().node_type("n");
        let et = g.registry_mut().edge_type("e");
        let a = g.add_node(nt, None);
        let b = g.add_node(nt, None);
        let c = g.add_node(nt, None); // isolated from target's in-tree
        g.add_edge(a, b, et, 1.0).unwrap();
        g.add_edge(b, a, et, 1.0).unwrap();
        g.add_edge(b, c, et, 1.0).unwrap(); // c is a sink reachable FROM b
        let conf = cfg(1e-10);
        let rp = push(&g, &conf, b);
        let support = rp.support();
        assert!(support.contains(&a));
        assert!(support.contains(&b));
        assert!(!support.contains(&c), "c has no path to b");
    }

    #[test]
    fn target_estimate_at_least_alpha() {
        let g = ring_with_chords(8);
        let c = cfg(1e-8);
        let rp = push(&g, &c, NodeId(3));
        assert!(rp.estimate(NodeId(3)) >= c.alpha - 1e-6);
    }

    #[test]
    fn forward_and_reverse_agree_on_single_pair() {
        let g = ring_with_chords(11);
        let c = cfg(1e-10);
        let csr = TransitionCsr::build(&g, c.transition);
        let fp = ForwardPush::compute_kernel(&csr, &c, NodeId(2));
        let rp = ReversePush::compute_kernel(&csr, &c, NodeId(8));
        assert!((fp.estimate(NodeId(8)) - rp.estimate(NodeId(2))).abs() < 1e-6);
    }
}
