//! Differential suite, scale leg: separately built kernels ≡ the
//! context's own kernel.
//!
//! `TransitionCsr`'s row builds are pinned by the kernel's own unit tests
//! (`forward_rows_match_transition_row`,
//! `reverse_rows_are_exact_transpose`). This suite pins what the build
//! paths promise on top: the streaming power-law generator's chunked
//! edge-stream build matches a kernel built over the fully materialised
//! `Hin` bit for bit, and every CHECK verdict reached through a kernel
//! the caller built and shared, as the service shares its epoch's
//! kernel, is the verdict a self-contained context reaches. Worlds are
//! seeded and pathological (dangling items, near-zero weights, twin-item
//! PPR ties).

use std::sync::Arc;

use emigre_core::search::remove_search_space;
use emigre_core::tester::{PreCheck, Tester};
use emigre_core::{Action, ExplainContext, UserArtifacts};
use emigre_data::{ScaleGen, ScaleSpec};
use emigre_hin::GraphView;
use emigre_obs::ObsHandle;
use emigre_ppr::{CsrRows, PushWorkspace, TransitionCsr, TransitionModel};
use emigre_testkit::{viable_questions, WorldParams, WorldSpec};

/// Pathology-heavy sampling envelope: small enough that 40 worlds build
/// fast, rich enough that dangling items, near-zero weights, twins and
/// follows all occur across the seed range.
fn params() -> WorldParams {
    WorldParams {
        max_users: 8,
        max_items: 10,
        max_categories: 3,
        density: 0.45,
        pathologies: true,
    }
}

/// Asserts both directions of `streamed` agree with `reference` bitwise.
fn assert_rows_bitwise(reference: &TransitionCsr, streamed: &TransitionCsr, tag: &str) {
    assert_eq!(
        reference.num_nodes(),
        streamed.num_nodes(),
        "{tag}: node count"
    );
    assert_eq!(reference.model(), streamed.model(), "{tag}: model");
    for u in 0..reference.num_nodes() {
        let node = emigre_hin::NodeId(u as u32);
        for (dir, (rd, rp), (cd, cp)) in [
            (
                "fwd",
                reference.forward_row(node),
                streamed.forward_row(node),
            ),
            (
                "rev",
                reference.reverse_row(node),
                streamed.reverse_row(node),
            ),
        ] {
            assert_eq!(rd, cd, "{tag}: {dir} dsts of node {u}");
            for (i, (a, b)) in rp.iter().zip(cp).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{tag}: {dir} prob {i} of node {u}: {a} vs {b}"
                );
            }
        }
    }
}

/// Seeded worlds whose spec exercises the named pathologies; panics if the
/// seed range fails to cover them (the differential would silently weaken).
fn pathological_worlds() -> Vec<(u64, WorldSpec)> {
    let p = params();
    let specs: Vec<(u64, WorldSpec)> = (0..40u64)
        .map(|seed| (seed, WorldSpec::sample_seeded(seed, &p)))
        .collect();
    assert!(
        specs.iter().any(|(_, s)| !s.bidirectional),
        "seed range must include a directed (all-items-dangling) world"
    );
    assert!(
        specs.iter().any(|(_, s)| !s.twins.is_empty()),
        "seed range must include a twin-item (exact PPR tie) world"
    );
    specs
}

#[test]
fn streaming_build_matches_materialized_kernels_bitwise() {
    for seed in [1u64, 7, 99] {
        let spec = ScaleSpec::with_total_nodes(1_500, seed);
        let gen = ScaleGen::new(spec);
        let model = TransitionModel::RecWalk { beta: 0.5 };
        // Chunked stream build vs. a reference kernel over the fully
        // materialised Hin: same edges in the same order, so identical
        // weight-sum accumulation and bit-identical probabilities.
        let streamed = gen.build_compact(model, 64);
        let hin = gen.materialize_hin();
        let reference = TransitionCsr::build(&hin, model);
        assert_rows_bitwise(&reference, &streamed, &format!("scale seed {seed}"));
    }
}

/// Candidate action sets for one question: every single-action removal in
/// ranked order, then the ranked prefixes (the explainer's actual probe
/// sequence). Generated once from the reference context so both kernels
/// judge the exact same sets.
fn candidate_sets<G: GraphView>(ctx: &ExplainContext<'_, G>) -> Vec<Vec<Action>> {
    let space = remove_search_space(ctx);
    let actions: Vec<Action> = space.candidates.iter().map(|c| c.action).collect();
    let mut sets: Vec<Vec<Action>> = actions.iter().map(|a| vec![*a]).collect();
    for len in 2..=actions.len() {
        sets.push(actions[..len].to_vec());
    }
    sets.truncate(16);
    sets
}

#[test]
fn tester_verdicts_match_on_compact_kernel_at_threads_1_and_8() {
    let mut questions = 0usize;
    for (seed, spec) in pathological_worlds() {
        let world = spec.build();
        let model = world.cfg.rec.ppr.transition;
        let kernel = Arc::new(TransitionCsr::build(&world.graph, model));
        for (user, wni) in viable_questions(&world, 2) {
            questions += 1;
            for threads in [1usize, 8] {
                let cfg = world.cfg.clone().with_parallelism(threads);
                let ctx_ref = ExplainContext::build(&world.graph, cfg.clone(), user, wni)
                    .expect("viable question stopped validating");
                // The service's path: user artefacts over a shared kernel,
                // then the question's context over those artefacts.
                let obs = ObsHandle::disabled();
                let artifacts =
                    UserArtifacts::build(&world.graph, &cfg, Arc::clone(&kernel), user, &obs)
                        .expect("viable user stopped validating on the shared kernel");
                let ws = PushWorkspace::new(world.graph.num_nodes());
                let ctx_cmp =
                    ExplainContext::for_question(&world.graph, cfg, &artifacts, wni, ws, obs)
                        .expect("viable question stopped validating on the shared kernel");
                let sets = candidate_sets(&ctx_ref);
                if sets.is_empty() {
                    continue;
                }
                let t_ref = Tester::new(&ctx_ref);
                let t_cmp = Tester::new(&ctx_cmp);
                for (i, set) in sets.iter().enumerate() {
                    assert_eq!(
                        t_ref.test(set),
                        t_cmp.test(set),
                        "seed {seed} user={user:?} wni={wni:?} set {i} \
                         diverged at parallelism {threads}"
                    );
                }
                let fp_ref = t_ref.first_passing(&sets, |_| PreCheck::Proceed);
                let fp_cmp = t_cmp.first_passing(&sets, |_| PreCheck::Proceed);
                assert_eq!(
                    fp_ref.found, fp_cmp.found,
                    "seed {seed} user={user:?} wni={wni:?}: first_passing \
                     diverged at parallelism {threads}"
                );
                assert_eq!(fp_ref.stopped, fp_cmp.stopped);
                assert_eq!(
                    t_ref.checks_performed(),
                    t_cmp.checks_performed(),
                    "seed {seed}: CHECK budget accounting diverged"
                );
            }
        }
    }
    assert!(
        questions >= 10,
        "only {questions} viable questions exercised"
    );
}
