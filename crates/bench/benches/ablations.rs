//! Ablation benchmark for the CHECK design choice DESIGN.md calls out:
//! **dynamic CHECK** (residual repair from the user's base push state)
//! vs a from-scratch push per CHECK (`EmigreConfig::dynamic_test`).

use criterion::{criterion_group, criterion_main, Criterion};
use emigre_bench::world;
use emigre_core::{Explainer, Method};
use std::hint::black_box;
use std::time::Duration;

fn bench_dynamic_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("check_engine");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    let w = world(800, 1e-6);
    let g = &w.hin.graph;
    let s = w.scenarios[0];

    let mut dynamic_cfg = w.cfg.clone();
    dynamic_cfg.dynamic_test = true;
    let mut scratch_cfg = w.cfg.clone();
    scratch_cfg.dynamic_test = false;

    group.bench_function("dynamic_repair_check", |b| {
        let explainer = Explainer::new(dynamic_cfg.clone());
        b.iter(|| black_box(explainer.explain(g, s.user, s.wni, Method::AddPowerset)))
    });
    group.bench_function("from_scratch_check", |b| {
        let explainer = Explainer::new(scratch_cfg.clone());
        b.iter(|| black_box(explainer.explain(g, s.user, s.wni, Method::AddPowerset)))
    });
    group.finish();
}

criterion_group!(benches, bench_dynamic_check);
criterion_main!(benches);
