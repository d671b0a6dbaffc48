//! Fault injection against the parallel CHECK pool, end to end: a CHECK
//! worker panics mid-batch and the *explanation still completes* with
//! accounting identical to a clean run.
//!
//! The pool contract (see `emigre-core`'s `parallel` module) is that a
//! panicked worker's item is recomputed inline by the driving thread, the
//! worker's poisoned workspace is discarded, and nothing about the
//! explanation — verdicts, trace, counters — changes. This file is its
//! own integration binary because the armed fault countdown is a process
//! global: no other test may CHECK while it is live.

use emigre_core::tester::check_fault;
use emigre_core::{ExplainContext, Explainer, Method};
use emigre_hin::NodeId;
use emigre_obs::ObsHandle;
use emigre_testkit::{viable_questions, World, WorldParams, WorldSpec};

/// Exact fingerprint (result, trace, integer counters) plus the drained
/// float mass and the CHECK count. The mass is cumulative per workspace,
/// so a fallback CHECK re-run on the driver's workspace recovers each
/// delta only to ulps — it is compared under tolerance, not bitwise.
fn run(
    world: &World,
    user: NodeId,
    wni: NodeId,
    method: Method,
    threads: usize,
) -> (String, f64, u64) {
    let cfg = world.cfg.clone().with_parallelism(threads);
    let ctx =
        ExplainContext::build_with_obs(&world.graph, cfg, user, wni, ObsHandle::enabled()).unwrap();
    let result = Explainer::explain_with_context(&ctx, method);
    let c = ctx.obs.counters();
    let exact = format!(
        "{result:?}\n{:?}\nfwd={} rev={} rows={} checks={} subsets={} hits={} stages={}",
        ctx.obs.trace().unwrap(),
        c.forward_pushes,
        c.reverse_pushes,
        c.rows_patched,
        c.checks,
        c.subsets_enumerated,
        c.candidate_index_hits,
        c.check_stages,
    );
    (exact, c.residual_mass_drained, c.checks)
}

#[test]
fn worker_panic_mid_batch_preserves_the_explanation_and_accounting() {
    // Find a question whose sequential run issues several CHECKs, so the
    // injected panic lands inside a live parallel batch.
    let method = Method::RemoveIncremental;
    let mut seed = 0u64;
    let (world, user, wni, clean, clean_mass) = loop {
        let world = WorldSpec::sample_seeded(seed, &WorldParams::default()).build();
        seed += 1;
        let mut found = None;
        for (user, wni) in viable_questions(&world, 4) {
            let (clean, mass, checks) = run(&world, user, wni, method, 1);
            if checks >= 3 {
                found = Some((user, wni, clean, mass));
                break;
            }
        }
        if let Some((user, wni, clean, mass)) = found {
            break (world, user, wni, clean, mass);
        }
        assert!(seed < 500, "no world with a 3+-CHECK question found");
    };
    let mass_ok = |mass: f64| (mass - clean_mass).abs() <= 1e-9 * clean_mass.abs().max(1.0);

    // Clean parallel run agrees with sequential before any fault.
    let (parallel, mass, _) = run(&world, user, wni, method, 8);
    assert_eq!(parallel, clean);
    assert!(
        mass_ok(mass),
        "clean-run mass drifted: {mass} vs {clean_mass}"
    );

    // Panic the second CHECK of the next run: mid-batch, after the pool
    // has fanned out. The driving thread must recompute that subset
    // inline and the outcome must not move by a bit.
    for panic_at in [1i64, 2] {
        check_fault::arm(panic_at);
        let (faulted, mass, _) = run(&world, user, wni, method, 8);
        check_fault::disarm();
        assert_eq!(
            faulted, clean,
            "explanation or accounting drifted after an injected worker panic at CHECK {panic_at}"
        );
        assert!(
            mass_ok(mass),
            "drained-mass accounting drifted after worker panic at CHECK {panic_at}: \
             {mass} vs {clean_mass}"
        );
    }
}
