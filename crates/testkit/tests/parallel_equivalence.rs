//! Differential suite, leg 3: parallel CHECK ≡ sequential CHECK.
//!
//! The speculative fan-out in `Tester::first_passing` promises that
//! parallelism is *unobservable*: for any thread count the explainer
//! returns the same explanation, issues the same CHECKs with the same
//! verdicts in the same order, traces the same τ crossings (margins),
//! and tallies the same operation counters as the sequential loop. This
//! suite pins that promise on seeded worlds — including the pathological
//! generator features (twin items engineering exact PPR ties, near-zero
//! weights, directed/dangling worlds) where a speculative evaluator that
//! leaked out-of-order verdicts would flip tie-breaks.

use emigre_core::{ExplainContext, Explainer, Method};
use emigre_hin::NodeId;
use emigre_obs::ObsHandle;
use emigre_testkit::{
    viable_questions, World, WorldParams, WorldSpec, ADD_METHODS, FIVE_ALGORITHMS,
};

/// Thread counts under test: sequential, minimal pool, oversubscribed.
const THREADS: [usize; 3] = [1, 2, 8];

/// One run's complete observable behaviour, rendered for comparison:
/// the returned explanation (or meta-explained failure), the full
/// replayable trace (question, candidates, crossings with margins, every
/// TEST verdict in order, outcome), and the integer op counters. None of
/// these fields carry wall-clock state, so string equality is
/// bit-equality of everything the engine decided. `residual_mass_drained`
/// is returned separately: the workspace's drained tally is cumulative,
/// so each CHECK's float delta `(A + x) − A` depends on which workspace's
/// accumulator history `A` it ran against — reproducible only to ulps
/// across schedules, and compared under a tight relative tolerance.
fn fingerprint(
    world: &World,
    user: NodeId,
    wni: NodeId,
    method: Method,
    threads: usize,
) -> (String, f64) {
    let cfg = world.cfg.clone().with_parallelism(threads);
    let obs = ObsHandle::enabled();
    let ctx = ExplainContext::build_with_obs(&world.graph, cfg, user, wni, obs)
        .expect("viable question stopped validating");
    let result = Explainer::explain_with_context(&ctx, method);
    let c = ctx.obs.counters();
    let exact = format!(
        "{result:?}\n{:?}\nfwd={} rev={} rows={} checks={} subsets={} hits={} stages={}",
        ctx.obs.trace().expect("enabled handle always has a trace"),
        c.forward_pushes,
        c.reverse_pushes,
        c.rows_patched,
        c.checks,
        c.subsets_enumerated,
        c.candidate_index_hits,
        c.check_stages,
    );
    (exact, c.residual_mass_drained)
}

fn assert_equivalent(world: &World, user: NodeId, wni: NodeId, method: Method) -> usize {
    let (baseline, base_mass) = fingerprint(world, user, wni, method, THREADS[0]);
    for &threads in &THREADS[1..] {
        let (parallel, mass) = fingerprint(world, user, wni, method, threads);
        assert_eq!(
            baseline, parallel,
            "{method:?} diverged at parallelism {threads} (user={user:?} wni={wni:?})"
        );
        assert!(
            (mass - base_mass).abs() <= 1e-9 * base_mass.abs().max(1.0),
            "{method:?} drained-mass accounting drifted at parallelism {threads}: \
             {mass} vs {base_mass}"
        );
    }
    1
}

/// Every subset-enumerating method: the paper's eight plus the combined
/// extension's two (Algorithms 3 and 4 over the merged list).
fn all_methods() -> Vec<Method> {
    let mut methods = FIVE_ALGORITHMS.to_vec();
    methods.extend(ADD_METHODS);
    methods.extend([Method::Combined, Method::CombinedMinimal]);
    methods
}

/// Broad sweep: every algorithm, many seeded worlds, thread counts
/// {1, 2, 8} — traces, verdicts, margins, and explanations identical.
#[test]
fn parallel_check_is_bit_identical_to_sequential() {
    let methods = all_methods();
    let mut compared = 0usize;
    let mut seed = 0u64;
    while compared < 60 {
        let world = WorldSpec::sample_seeded(seed, &WorldParams::default()).build();
        seed += 1;
        for (user, wni) in viable_questions(&world, 2) {
            for &method in &methods {
                compared += assert_equivalent(&world, user, wni, method);
            }
        }
    }
    println!("parallel equivalence: {compared} (question, method) runs over {seed} worlds");
}

/// Twin items replicate another item's in-edges verbatim, so the WNI and
/// its twin hold *exactly* equal PPR scores — the tie-break is decided by
/// `RecList` ordering, the most fragile place for an out-of-order
/// speculative verdict to leak. Worlds without twins are skipped.
#[test]
fn exact_tie_twin_worlds_stay_deterministic_under_parallelism() {
    let methods = all_methods();
    let mut compared = 0usize;
    let mut seed = 7_000u64;
    while compared < 12 {
        let spec = WorldSpec::sample_seeded(seed, &WorldParams::default());
        seed += 1;
        if spec.twins.is_empty() {
            continue;
        }
        let world = spec.build();
        for (user, wni) in viable_questions(&world, 2) {
            for &method in &methods {
                compared += assert_equivalent(&world, user, wni, method);
            }
        }
    }
    println!("twin-tie equivalence: {compared} runs, last seed {seed}");
}
