//! # emigre-bench — shared fixtures for the Criterion benchmarks
//!
//! The benches live under `benches/`:
//!
//! * `ppr_engines` — exact power iteration vs the flat-kernel forward and
//!   reverse local push across graph sizes, the kernel build they
//!   amortise, and the forward push's cost as ε tightens;
//! * `explainers` — every EMiGRe method on a fixed mid-size scenario (the
//!   micro-benchmark behind Table 5's runtime ordering), plus the context
//!   build;
//! * `evaluation_sweep` — the per-scenario cost of the §6.2 experiment
//!   loop: all eight paper methods on one scenario.
//!
//! This library crate only hosts the fixture builders so every bench
//! measures the same graphs.

use emigre_core::EmigreConfig;
use emigre_data::pipeline::{AmazonHin, PreprocessConfig};
use emigre_data::synth::{SynthConfig, SynthDataset};
use emigre_eval::scenario::{generate_scenarios, Scenario};

/// A benchmark world: preprocessed graph + config + scenarios.
pub struct BenchWorld {
    pub hin: AmazonHin,
    pub cfg: EmigreConfig,
    pub scenarios: Vec<Scenario>,
}

/// Builds a deterministic world with roughly `items` items.
pub fn world(items: usize, epsilon: f64) -> BenchWorld {
    let data = SynthDataset::generate(SynthConfig {
        num_users: (items / 12).clamp(12, 120),
        num_items: items,
        num_categories: (items / 100).clamp(4, 32),
        actions_per_user: (8, 26),
        ..SynthConfig::default()
    });
    let hin = AmazonHin::build(
        &data.raw,
        &PreprocessConfig {
            sample_users: 10,
            user_activity_range: (4, 100),
            ..PreprocessConfig::default()
        },
    );
    let mut cfg = hin.emigre_config();
    cfg.rec.ppr.epsilon = epsilon;
    // Benchmarks measure per-operation cost, not search completeness: a
    // small CHECK budget keeps the budget-burning methods bounded.
    cfg.max_checks = 200;
    let scenarios = generate_scenarios(&hin.graph, &cfg, &hin.users, 3);
    assert!(!scenarios.is_empty(), "bench world must have scenarios");
    BenchWorld {
        hin,
        cfg,
        scenarios,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worlds_are_deterministic_and_nonempty() {
        let a = world(300, 1e-6);
        let b = world(300, 1e-6);
        assert_eq!(a.scenarios, b.scenarios);
        assert!(a.scenarios.len() >= 3);
    }
}
