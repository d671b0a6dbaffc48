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
//!
//! Algorithm 5 needs one column per item of the target list, and PRINCE one
//! per replacement. [`ReversePush::compute_many`] pushes up to eight columns
//! in one sweep over lane-interleaved rows: one walk of a reverse row
//! updates every lane, and each lane pushes exactly when a lone
//! [`ReversePush::compute`] would, so every column is bit-identical to it.

use crate::config::PprConfig;
use crate::kernel::CsrRows;
use crate::sweep::Sweep;
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
    pub fn compute<K: CsrRows>(kernel: &K, cfg: &PprConfig, target: NodeId) -> Self {
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
        state.push_until_converged(kernel, cfg);
        state
    }

    /// Pushes until every |residual| ≤ ε.
    ///
    /// Uses the same sweep schedule as the forward kernel loop: whole-array
    /// Gauss–Seidel passes over the reverse CSR until no residual exceeds
    /// ε. Push order does not affect the Eq. (4) invariant or the ε
    /// guarantee, and sequential row access beats a FIFO queue's
    /// random-order traversal.
    ///
    /// Panics unless `estimates` and `residuals` each hold one entry per
    /// kernel node.
    pub fn push_until_converged<K: CsrRows>(&mut self, kernel: &K, cfg: &PprConfig) {
        let n = kernel.num_nodes() as u32;
        let mut sweep = Sweep::new(
            kernel,
            cfg,
            &mut self.estimates,
            &mut self.residuals,
            self.pushes,
            self.drained,
        );
        while sweep.reverse(cfg.epsilon, 0..n) {}
        (self.pushes, self.drained) = (sweep.pushes, sweep.drained);
    }

    /// Runs RLP towards every target of `targets`, in order; duplicates
    /// are allowed. Each column is bit-identical to
    /// [`ReversePush::compute`] on its target: same estimates, residuals,
    /// `pushes` and `drained`.
    ///
    /// Targets go in blocks of at most eight. A block of one is a
    /// lone `compute`. A larger block runs one sweep loop whose residual and
    /// estimate rows hold one lane per target, at width 2, 4 or 8: a block
    /// of 3 runs at width 4, and a block of 5–7 at width 8.
    pub fn compute_many<K: CsrRows>(kernel: &K, cfg: &PprConfig, targets: &[NodeId]) -> Vec<Self> {
        cfg.validate();
        let mut out = Vec::with_capacity(targets.len());
        for block in targets.chunks(MAX_LANES) {
            match block.len() {
                1 => out.push(Self::compute(kernel, cfg, block[0])),
                2 => out.extend(push_lanes::<K, 2>(kernel, cfg, block)),
                3 | 4 => out.extend(push_lanes::<K, 4>(kernel, cfg, block)),
                _ => out.extend(push_lanes::<K, 8>(kernel, cfg, block)),
            }
        }
        out
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

/// Most columns one [`ReversePush::compute_many`] sweep carries.
const MAX_LANES: usize = 8;

/// One Gauss–Seidel sweep loop for `targets.len() ≤ L` columns at once.
///
/// Node `v`'s residuals and estimates are one `[f64; L]` row, so a reverse
/// row is walked once per visit however many lanes push there. Lane `l`
/// pushes at `v` exactly when its own |r_l(v)| > ε; an idle lane adds
/// `0.0 * p`, which leaves every non-negative residual's bits unchanged.
/// Each lane therefore makes its lone push's updates in the lone push's
/// order, with the same expressions and no fused multiply-add, and a lane
/// that has converged stays so while the others finish. Lanes past
/// `targets.len()` start at zero and never push.
fn push_lanes<K: CsrRows, const L: usize>(
    kernel: &K,
    cfg: &PprConfig,
    targets: &[NodeId],
) -> Vec<ReversePush> {
    let (eps, alpha) = (cfg.epsilon, cfg.alpha);
    let n = kernel.num_nodes();
    let mut estimates = vec![[0.0f64; L]; n];
    let mut residuals = vec![[0.0f64; L]; n];
    for (l, t) in targets.iter().enumerate() {
        residuals[t.index()][l] = 1.0;
    }
    let mut pushes = [0usize; L];
    let mut drained = [0.0f64; L];
    loop {
        let mut any = false;
        for v in 0..n {
            let r = residuals[v];
            let mut spread = [0.0f64; L];
            let mut active = false;
            for l in 0..L {
                if r[l].abs() > eps {
                    active = true;
                    residuals[v][l] = 0.0;
                    estimates[v][l] += alpha * r[l];
                    pushes[l] += 1;
                    drained[l] += r[l].abs();
                    spread[l] = (1.0 - alpha) * r[l];
                }
            }
            if !active {
                continue;
            }
            any = true;
            let (srcs, probs) = kernel.reverse_row(NodeId(v as u32));
            for (&u, &p) in srcs.iter().zip(probs) {
                let ui = u as usize;
                debug_assert!(ui < residuals.len(), "row entry {u} past the kernel");
                // SAFETY: every kernel row entry is below `num_nodes` (see
                // `crate::sweep`), and `residuals` holds `num_nodes` rows.
                let row = unsafe { residuals.get_unchecked_mut(ui) };
                for l in 0..L {
                    row[l] += spread[l] * p;
                }
            }
        }
        if !any {
            break;
        }
    }
    // Estimates first, so their lane rows are freed before the residuals
    // are split out.
    let estimates = split_lanes(estimates, targets.len());
    let residuals = split_lanes(residuals, targets.len());
    targets
        .iter()
        .zip(estimates.into_iter().zip(residuals))
        .enumerate()
        .map(|(l, (&target, (estimates, residuals)))| ReversePush {
            target,
            estimates,
            residuals,
            pushes: pushes[l],
            drained: drained[l],
        })
        .collect()
}

/// The first `k` lanes of interleaved rows as `k` dense columns.
fn split_lanes<const L: usize>(rows: Vec<[f64; L]>, k: usize) -> Vec<Vec<f64>> {
    (0..k)
        .map(|l| rows.iter().map(|row| row[l]).collect())
        .collect()
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
        ReversePush::compute(&TransitionCsr::build(g, c.transition), c, target)
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
        let fp = ForwardPush::compute(&csr, &c, NodeId(2));
        let rp = ReversePush::compute(&csr, &c, NodeId(8));
        assert!((fp.estimate(NodeId(8)) - rp.estimate(NodeId(2))).abs() < 1e-6);
    }
}
