//! Differential suite, leg 1: every PPR engine against the dense oracle.
//!
//! Samples seeded worlds and checks, for well over 200 (graph, user, WNI)
//! cases, that the flat-kernel forward and reverse pushes at ε = 1e-12
//! agree with the exact dense fixed point to ≤ 1e-9 — on the base graph
//! and, through [`PatchedCsr`], on counterfactually edited graphs.
//! Power iteration gets the same treatment as a sanity anchor.

use emigre_core::explanation::{actions_to_delta, Action};
use emigre_hin::{EdgeKey, GraphView, NodeId};
use emigre_ppr::{ppr_power, ForwardPush, PprConfig, ReversePush, TransitionCsr};
use emigre_testkit::{check_ppr_agreement, DenseOracle, DiffStats, World, WorldParams, WorldSpec};

/// Required engine/oracle agreement on every estimate.
const AGREEMENT_TOL: f64 = 1e-9;
/// Push threshold of the differential runs; n·ε stays far below the
/// agreement tolerance on generator-sized worlds.
const DIFF_EPSILON: f64 = 1e-12;
/// ISSUE acceptance floor.
const MIN_CASES: usize = 200;

fn diff_ppr() -> PprConfig {
    PprConfig::default().with_epsilon(DIFF_EPSILON)
}

fn build_world(seed: u64) -> World {
    WorldSpec::sample_seeded(seed, &WorldParams::default()).build_with(diff_ppr())
}

#[test]
fn pushes_agree_with_oracle_on_200_sampled_cases() {
    let mut stats = DiffStats::default();
    let mut seed = 0u64;
    while stats.ppr_cases < MIN_CASES {
        let world = build_world(seed);
        seed += 1;
        let kernel = TransitionCsr::build(&world.graph, world.cfg.rec.ppr.transition);
        let oracle = DenseOracle::build(&world.graph, &world.cfg.rec.ppr);
        // Every user against a spread of items: enough cases per world
        // that the suite converges in a few dozen seeds.
        for &user in &world.users {
            for &item in world.items.iter().step_by(2) {
                check_ppr_agreement(
                    &world,
                    &kernel,
                    &oracle,
                    user,
                    item,
                    AGREEMENT_TOL,
                    &mut stats,
                );
            }
        }
    }
    assert!(stats.ppr_cases >= MIN_CASES);
    assert!(stats.max_row_err <= AGREEMENT_TOL);
    assert!(stats.max_col_err <= AGREEMENT_TOL);
    println!(
        "oracle agreement: {} cases over {} worlds, max row err {:e}, max col err {:e}",
        stats.ppr_cases, seed, stats.max_row_err, stats.max_col_err
    );
}

/// Removable user→item edges of a world, for synthesising counterfactual
/// deltas without going through an explainer.
fn removable_edges(world: &World, user: NodeId) -> Vec<(EdgeKey, f64)> {
    let mut out = Vec::new();
    world.graph.for_each_out(user, |dst, etype, w| {
        out.push((EdgeKey::new(user, dst, etype), w));
    });
    out
}

#[test]
fn patched_kernel_agrees_with_oracle_on_edited_graphs() {
    let mut cases = 0usize;
    let mut seed = 1000u64;
    while cases < 60 {
        let world = build_world(seed);
        seed += 1;
        let kernel = TransitionCsr::build(&world.graph, world.cfg.rec.ppr.transition);
        for &user in &world.users {
            let edges = removable_edges(&world, user);
            let Some(&(edge, weight)) = edges.first() else {
                continue;
            };
            let actions = [Action {
                edge,
                weight,
                added: false,
            }];
            let delta = actions_to_delta(&actions, &world.cfg);
            // The engine path: overlay view + row-patched kernel.
            let view = delta.overlay(&world.graph);
            let touched = delta.touched_sources();
            let patched = kernel.patched(&view, &touched);
            // The oracle path: materialise the edit, rebuild dense exact.
            let edited = delta
                .apply_to(&world.graph)
                .expect("removal of an existing edge must apply");
            let oracle = DenseOracle::build(&edited, &world.cfg.rec.ppr);

            let fwd = ForwardPush::compute(&patched, &world.cfg.rec.ppr, user);
            let exact_row = oracle.ppr_row(user);
            for (i, &exact) in exact_row.iter().enumerate() {
                let err = (fwd.estimates[i] - exact).abs();
                assert!(
                    err <= AGREEMENT_TOL,
                    "patched forward push off by {err:e} at node {i} (seed {}, user {user:?})",
                    seed - 1
                );
            }
            let target = world.items[user.index() % world.items.len()];
            let rev = ReversePush::compute(&patched, &world.cfg.rec.ppr, target);
            let exact_col = oracle.ppr_column(target);
            for (s, &exact) in exact_col.iter().enumerate() {
                let err = (rev.estimates[s] - exact).abs();
                assert!(
                    err <= AGREEMENT_TOL,
                    "patched reverse push off by {err:e} at source {s} (seed {}, target {target:?})",
                    seed - 1
                );
            }
            cases += 1;
        }
    }
    println!("patched-kernel agreement: {cases} edited-graph cases");
}

#[test]
fn power_iteration_agrees_with_oracle() {
    let mut cases = 0usize;
    for seed in 2000..2012u64 {
        let world = build_world(seed);
        let oracle = DenseOracle::build(&world.graph, &world.cfg.rec.ppr);
        for &user in &world.users {
            let power = ppr_power(&world.graph, &world.cfg.rec.ppr, user);
            let exact = oracle.ppr_row(user);
            for (i, (&p, &e)) in power.iter().zip(exact.iter()).enumerate() {
                let err = (p - e).abs();
                assert!(
                    err <= AGREEMENT_TOL,
                    "power iteration off by {err:e} at node {i} (seed {seed}, user {user:?})"
                );
            }
            cases += 1;
        }
    }
    assert!(cases >= 24, "expected a healthy case count, got {cases}");
}
