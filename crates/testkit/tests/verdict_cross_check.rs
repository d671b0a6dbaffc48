//! Differential suite, leg 6: every CHECK verdict vs the oracle, failing
//! ones included.
//!
//! Leg 2 oracle-TESTs returned explanations, which are passing CHECKs.
//! The staged CHECK stops a failing one as soon as either interval test
//! proves some item beats the Why-Not item, so this leg draws action
//! subsets from both modes' search spaces and holds each decisive verdict
//! to the dense oracle, sequentially and through the parallel scan
//! ([`cross_check_verdicts`]). The oracle is exact PPR on the edited graph,
//! so this leg is the residual-repaired CHECK's reference. Worlds are
//! seeded, half of them pathological (twin items, dangling items,
//! near-zero weights).

use emigre_ppr::PprConfig;
use emigre_testkit::{cross_check_verdicts, viable_questions, DiffStats, WorldParams, WorldSpec};

/// Push threshold: the error band `n·ε` stays far below the margins.
const DIFF_EPSILON: f64 = 1e-12;
/// Top candidates per mode whose subsets are CHECKed (15 sets per mode).
const POOL: usize = 4;
const QUESTIONS_PER_WORLD: usize = 3;

/// Worlds under test. The debug leg keeps to a handful; the release leg,
/// which CI's `differential` job runs, covers many more.
fn world_seeds() -> std::ops::Range<u64> {
    if cfg!(debug_assertions) {
        0..6
    } else {
        0..200
    }
}

#[test]
fn check_verdicts_agree_with_oracle_failing_ones_included() {
    let mut stats = DiffStats::default();
    let (mut twins, mut dangling) = (false, false);
    for seed in world_seeds() {
        let params = WorldParams {
            pathologies: seed % 2 == 0,
            ..WorldParams::default()
        };
        let spec = WorldSpec::sample_seeded(seed, &params);
        twins |= !spec.twins.is_empty();
        dangling |= !spec.bidirectional;
        let world = spec.build_with(PprConfig::default().with_epsilon(DIFF_EPSILON));
        for (user, wni) in viable_questions(&world, QUESTIONS_PER_WORLD) {
            cross_check_verdicts(&world, user, wni, POOL, &mut stats);
        }
    }
    println!(
        "verdict leg: {} sets, {} decisive, {} decisive failing",
        stats.verdicts_checked, stats.verdicts_decisive, stats.decisive_failing
    );
    assert!(twins, "the seed range must include a twin-item world");
    assert!(
        dangling,
        "the seed range must include a directed (dangling) world"
    );
    assert!(
        stats.decisive_failing > 0,
        "no decisive failing verdict: the leg would pass vacuously"
    );
}
