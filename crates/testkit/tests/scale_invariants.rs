//! Scale-invariant correctness of the local-push engines.
//!
//! Local push maintains the Eq. (3) invariant by construction, and two
//! global counters follow from it *at any graph size*:
//!
//! * **Mass conservation** — forward push from a seed starts with one
//!   unit of residual mass; every push moves `α·r` into estimates and
//!   `(1−α)·r` back into residuals (or drops it at a dangling row), so
//!   `Σ estimates + Σ residuals ≤ 1`, with equality on dangling-free
//!   graphs, up to floating-point accumulation. The estimate total is
//!   exactly `α ·` drained mass by the same argument.
//! * **Push-work bound** — a node is pushed only while its residual
//!   exceeds ε, so each push drains > ε and the push count is at most
//!   `drained / ε`.
//!
//! The reverse counters are checked on a lone column and on every column
//! of one multi-target push (`ReversePush::compute_many`).
//!
//! The point of this suite is that the bounds are *scale-invariant*: the
//! same assertions run on 10 k-node (always) and 100 k-node (release
//! builds, the CI `scale` job) streaming power-law graphs, and as a
//! proptest over small pathological worlds — dangling items included,
//! where conservation degrades to an inequality.

use emigre_data::{ScaleGen, ScaleSpec};
use emigre_hin::NodeId;
use emigre_ppr::{CsrRows, ForwardPush, PprConfig, ReversePush, TransitionCsr, TransitionModel};
use emigre_testkit::{WorldParams, WorldSpec};
use proptest::prelude::*;

/// Graph sizes under test. The 100 k leg multiplies debug-build runtime
/// roughly tenfold for no extra coverage of *logic* (only of scale), so it
/// runs in release builds only — which is exactly where CI's `scale` job
/// executes this suite.
fn scale_sizes() -> Vec<(usize, f64)> {
    let mut sizes = vec![(10_000, 1e-7)];
    if !cfg!(debug_assertions) {
        sizes.push((100_000, 1e-6));
    }
    sizes
}

/// Accumulation-error budget for a run that performed `pushes` pushes:
/// each push touches O(mean-degree) f64 additions, each contributing at
/// most one rounding of ~1e-16 relative; 1e-12 per push is three orders
/// of magnitude of headroom without masking real accounting bugs.
fn ulp_budget(pushes: usize) -> f64 {
    1e-9_f64.max(1e-12 * pushes as f64)
}

fn scale_kernel(total_nodes: usize, seed: u64) -> TransitionCsr {
    let spec = ScaleSpec::with_total_nodes(total_nodes, seed);
    ScaleGen::new(spec).build_compact(TransitionModel::RecWalk { beta: 0.5 }, 8_192)
}

#[test]
fn forward_push_conserves_mass_at_scale() {
    for (total, epsilon) in scale_sizes() {
        let kernel = scale_kernel(total, 0x00E5_CA1E ^ total as u64);
        let cfg = PprConfig::default().with_epsilon(epsilon);
        // Users are ids 0..num_users; user 0 always has out-edges.
        let fwd = ForwardPush::compute(&kernel, &cfg, NodeId(0));
        let est: f64 = fwd.estimates.iter().sum();
        let res: f64 = fwd.residuals.iter().sum();
        let tol = ulp_budget(fwd.pushes);
        // The generator mirrors every edge, so every reachable node has
        // out-edges and no mass can fall off the graph: exact conservation.
        assert!(
            (est + res - 1.0).abs() <= tol,
            "n={total}: Σest + Σres = {} (|Δ| = {:e} > {tol:e})",
            est + res,
            (est + res - 1.0).abs()
        );
        assert!(
            (est - cfg.alpha * fwd.drained).abs() <= tol,
            "n={total}: Σest = {est} but α·drained = {}",
            cfg.alpha * fwd.drained
        );
        assert!(fwd.pushes > 0, "n={total}: seed push never happened");
    }
}

#[test]
fn forward_push_work_is_bounded_at_scale() {
    for (total, epsilon) in scale_sizes() {
        let kernel = scale_kernel(total, 0xB0B ^ total as u64);
        let cfg = PprConfig::default().with_epsilon(epsilon);
        let fwd = ForwardPush::compute(&kernel, &cfg, NodeId(0));
        let bound = fwd.drained / epsilon;
        assert!(
            (fwd.pushes as f64) <= bound * (1.0 + 1e-9) + 1.0,
            "n={total}: {} pushes exceeds drained/ε = {bound}",
            fwd.pushes
        );
    }
}

/// A reverse column's counters at scale: its estimate total is `α ·`
/// drained mass, and its push count is at most `drained / ε`.
fn assert_reverse_counters(total: usize, cfg: &PprConfig, rev: &ReversePush) {
    let tol = ulp_budget(rev.pushes);
    let est: f64 = rev.estimates.iter().sum();
    assert!(
        (est - cfg.alpha * rev.drained).abs() <= tol.max(1e-12 * est.abs()),
        "n={total}, target {:?}: Σest = {est} but α·drained = {}",
        rev.target,
        cfg.alpha * rev.drained
    );
    let bound = rev.drained / cfg.epsilon;
    assert!(
        (rev.pushes as f64) <= bound * (1.0 + 1e-9) + 1.0,
        "n={total}, target {:?}: {} reverse pushes exceeds drained/ε = {bound}",
        rev.target,
        rev.pushes
    );
    assert!(
        rev.pushes > 0,
        "n={total}, target {:?}: target push never happened",
        rev.target
    );
}

#[test]
fn reverse_push_invariants_hold_at_scale() {
    for (total, epsilon) in scale_sizes() {
        let kernel = scale_kernel(total, 0xCAFE ^ total as u64);
        let cfg = PprConfig::default().with_epsilon(epsilon);
        // Item ids start after the users; under the popularity Zipf the
        // first items are the head of the distribution, guaranteeing edges.
        let spec = ScaleSpec::with_total_nodes(total, 0xCAFE ^ total as u64);
        let target = NodeId(spec.num_users as u32);
        assert_reverse_counters(total, &cfg, &ReversePush::compute(&kernel, &cfg, target));
        // The eight head items' columns from one multi-target push.
        let heads: Vec<NodeId> = (0..8).map(|k| NodeId(target.0 + k)).collect();
        let columns = ReversePush::compute_many(&kernel, &cfg, &heads);
        assert_eq!(columns.len(), heads.len());
        for (col, &t) in columns.iter().zip(&heads) {
            assert_eq!(col.target, t);
            assert_reverse_counters(total, &cfg, col);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The same invariants on small seeded pathological worlds — here
    /// dangling items exist (directed worlds), so conservation becomes an
    /// inequality: mass pushed into a dangling row is drained but never
    /// redistributed.
    #[test]
    fn push_invariants_hold_on_pathological_worlds(seed in 0u64..500) {
        let p = WorldParams {
            max_users: 10,
            max_items: 12,
            max_categories: 3,
            density: 0.4,
            pathologies: true,
        };
        let world = WorldSpec::sample_seeded(seed, &p).build();
        let model = world.cfg.rec.ppr.transition;
        let kernel = TransitionCsr::build(&world.graph, model);
        let cfg = world.cfg.rec.ppr;
        for &user in world.users.iter().take(3) {
            let fwd = ForwardPush::compute(&kernel, &cfg, user);
            let est: f64 = fwd.estimates.iter().sum();
            let res: f64 = fwd.residuals.iter().sum();
            let tol = ulp_budget(fwd.pushes);
            prop_assert!(est + res <= 1.0 + tol,
                "Σest + Σres = {} > 1", est + res);
            prop_assert!((est - cfg.alpha * fwd.drained).abs() <= tol,
                "Σest = {est} vs α·drained = {}", cfg.alpha * fwd.drained);
            prop_assert!((fwd.pushes as f64) <= fwd.drained / cfg.epsilon * (1.0 + 1e-9) + 1.0,
                "{} pushes exceeds drained/ε", fwd.pushes);
        }
    }

    /// Dangling-free (bidirectional) worlds restore exact conservation —
    /// the equality leg of the invariant, kernel-independent.
    #[test]
    fn bidirectional_worlds_conserve_exactly(seed in 0u64..500) {
        let p = WorldParams {
            max_users: 8,
            max_items: 10,
            max_categories: 2,
            density: 0.5,
            pathologies: false,
        };
        let mut spec = WorldSpec::sample_seeded(seed, &p);
        spec.bidirectional = true;
        let world = spec.build();
        let model = world.cfg.rec.ppr.transition;
        let kernel = TransitionCsr::build(&world.graph, model);
        let cfg = world.cfg.rec.ppr;
        if let Some(&user) = world.users.first() {
            let fwd = ForwardPush::compute(&kernel, &cfg, user);
            // A user with no actions is a dangling row even here; skip.
            if kernel.forward_row(user).0.is_empty() {
                return Ok(());
            }
            let est: f64 = fwd.estimates.iter().sum();
            let res: f64 = fwd.residuals.iter().sum();
            let tol = ulp_budget(fwd.pushes);
            prop_assert!((est + res - 1.0).abs() <= tol,
                "Σest + Σres = {} (|Δ| > {tol:e})", est + res);
        }
    }
}
