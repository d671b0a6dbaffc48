//! PPR engine benchmarks: exact power iteration vs the flat-kernel
//! Forward and Reverse Local Push across graph sizes, the kernel build
//! they amortise, and the forward push's cost as ε tightens.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use emigre_bench::world;
use emigre_ppr::{ppr_power, ForwardPush, ReversePush, TransitionCsr};
use std::hint::black_box;
use std::time::Duration;

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("ppr_engines");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    for &items in &[300usize, 1_000, 3_000] {
        let w = world(items, 1e-7);
        let g = &w.hin.graph;
        let user = w.scenarios[0].user;
        let target = w.scenarios[0].wni;
        let kernel = TransitionCsr::build(g, w.cfg.rec.ppr.transition);
        group.bench_with_input(
            BenchmarkId::new("power_iteration", items),
            &items,
            |b, _| b.iter(|| black_box(ppr_power(g, &w.cfg.rec.ppr, user))),
        );
        group.bench_with_input(
            BenchmarkId::new("forward_push_flat", items),
            &items,
            |b, _| b.iter(|| black_box(ForwardPush::compute(&kernel, &w.cfg.rec.ppr, user))),
        );
        group.bench_with_input(
            BenchmarkId::new("reverse_push_flat", items),
            &items,
            |b, _| b.iter(|| black_box(ReversePush::compute(&kernel, &w.cfg.rec.ppr, target))),
        );
        group.bench_with_input(BenchmarkId::new("csr_build", items), &items, |b, _| {
            b.iter(|| black_box(TransitionCsr::build(g, w.cfg.rec.ppr.transition)))
        });
    }
    group.finish();
}

fn bench_epsilon_sweep(c: &mut Criterion) {
    // Cost of forward push as ε tightens towards the paper's 2.7e-8.
    let mut group = c.benchmark_group("forward_push_epsilon");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    let w = world(1_000, 1e-7);
    let g = &w.hin.graph;
    let user = w.scenarios[0].user;
    let kernel = TransitionCsr::build(g, w.cfg.rec.ppr.transition);
    for &eps in &[1e-5f64, 1e-6, 1e-7, 2.7e-8] {
        let cfg = w.cfg.rec.ppr.with_epsilon(eps);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{eps:.1e}")),
            &eps,
            |b, _| b.iter(|| black_box(ForwardPush::compute(&kernel, &cfg, user))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_engines, bench_epsilon_sweep);
criterion_main!(benches);
