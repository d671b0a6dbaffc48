//! Flat-kernel PPR push and CHECK microbenchmarks, with JSON output.
//!
//! Measures, on the synthetic Amazon graph of [`emigre_bench::world`]:
//!
//! * forward and reverse push: `ForwardPush::compute` /
//!   `ReversePush::compute` over a precomputed [`TransitionCsr`], and eight
//!   columns pushed by one `ReversePush::compute_many` against eight lone
//!   pushes, asserted bit-identical before they are timed;
//! * CHECK: one remove-mode and one add-mode `Tester::test` verdict on the
//!   allocation-free workspace path;
//! * the batched CHECK thread sweep, the obs-enabled and allocation-tracked
//!   CHECK overheads, and (with `--scale`) the streaming 10k → 1M-node
//!   kernel curve.
//!
//! A `--scale` run measures no CHECK, so it reports both overheads as
//! `n/a`, and an overhead gate asked of it fails rather than pass
//! unmeasured.
//!
//! Run with `cargo run --release -p emigre-bench --bin ppr_flat_bench
//! [-- out.json]`; results are written as JSON (default `BENCH_ppr.json`)
//! and summarised on stdout. An entry's `baseline_us` is the comparison
//! point named in its description below, or null when the entry has none.
//! Methodology notes live in EXPERIMENTS.md.

use emigre_bench::world;
use emigre_core::tester::{PreCheck, Tester};
use emigre_core::{Action, ExplainContext};
use emigre_data::{ScaleGen, ScaleSpec};
use emigre_hin::{EdgeKey, GraphView, Hin, NodeId};
use emigre_obs::{CounterSnapshot, HeapSize, ObsHandle};
use emigre_ppr::{CsrRows, ForwardPush, PprConfig, ReversePush, TransitionCsr, TransitionModel};
use serde::Serialize;
use std::time::Instant;

/// The tracking allocator under test for `--max-alloc-overhead-pct`:
/// installed only in `heap-track` builds, so the default bench binary
/// keeps the system allocator untouched.
#[cfg(feature = "heap-track")]
#[global_allocator]
static ALLOC: emigre_obs::TrackingAlloc = emigre_obs::TrackingAlloc::system();

/// Median wall-clock microseconds per call: `samples` timed samples of
/// `inner` back-to-back calls each, after `warmup` untimed calls.
fn measure_us(inner: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let mut samples: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..inner {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / inner as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[derive(Serialize)]
struct Entry {
    name: String,
    items: usize,
    nodes: usize,
    /// The entry's comparison point (None when it has none).
    baseline_us: Option<f64>,
    flat_us: f64,
    /// `baseline_us / flat_us`, when there is a baseline.
    speedup: Option<f64>,
    /// Op-counter delta of one `flat` call with observability enabled
    /// (None for entries measured without instrumentation).
    counters: Option<CounterSnapshot>,
    /// CHECK worker count, for the `check_batch` thread-sweep entries
    /// (None for single-threaded microbenchmarks).
    threads: Option<usize>,
    /// `t_seq / (threads × t_par)`: fraction of ideal linear scaling the
    /// batched CHECK sweep achieved at this worker count. On a
    /// single-core host this is ≈ 1/threads by construction — the sweep
    /// then documents pool overhead, not speedup.
    parallel_efficiency: Option<f64>,
    /// Heap bytes held by the resident kernel (structural [`HeapSize`]
    /// audit) — the `--scale` sweep entries only.
    resident_bytes: Option<u64>,
    /// Wall-clock milliseconds of the streaming generator + CSR build —
    /// the `--scale` sweep's `scale_build` entries only.
    build_ms: Option<f64>,
    /// Peak heap bytes above the pre-build baseline during the streaming
    /// build. Requires the `heap-track` allocator; None otherwise.
    build_peak_bytes: Option<u64>,
    /// `scale_reverse_push_x8` only: peak heap bytes above the baseline
    /// while one `compute_many` call pushes the eight columns (lane rows
    /// and output columns are alive together while the lanes are split
    /// out). Requires the `heap-track` allocator; None otherwise.
    peak_bytes: Option<u64>,
    /// The same peak for the baseline: eight lone pushes collected into
    /// one `Vec`, as a caller holding eight columns keeps them.
    baseline_peak_bytes: Option<u64>,
}

#[derive(Serialize)]
struct Report {
    description: String,
    epsilon: f64,
    samples: usize,
    entries: Vec<Entry>,
}

fn entry(name: &str, items: usize, nodes: usize, baseline_us: Option<f64>, flat_us: f64) -> Entry {
    entry_with_counters(name, items, nodes, baseline_us, flat_us, None)
}

fn entry_with_counters(
    name: &str,
    items: usize,
    nodes: usize,
    baseline_us: Option<f64>,
    flat_us: f64,
    counters: Option<CounterSnapshot>,
) -> Entry {
    let e = Entry {
        name: name.to_string(),
        items,
        nodes,
        baseline_us,
        flat_us,
        speedup: baseline_us.map(|b| b / flat_us),
        counters,
        threads: None,
        parallel_efficiency: None,
        resident_bytes: None,
        build_ms: None,
        build_peak_bytes: None,
        peak_bytes: None,
        baseline_peak_bytes: None,
    };
    match (e.baseline_us, e.speedup) {
        (Some(baseline), Some(speedup)) => println!(
            "{:>26} items={:<5} baseline {:>10.2} µs   flat {:>10.2} µs   speedup {:>5.2}x",
            e.name, e.items, baseline, e.flat_us, speedup
        ),
        _ => println!(
            "{:>26} items={:<5} flat {:>10.2} µs",
            e.name, e.items, e.flat_us
        ),
    }
    if let Some(c) = &e.counters {
        println!(
            "{:>26} fwd={} rev={} rows={} checks={} hits={} mass={:.4}",
            "",
            c.forward_pushes,
            c.reverse_pushes,
            c.rows_patched,
            c.checks,
            c.candidate_index_hits,
            c.residual_mass_drained
        );
    }
    e
}

/// First user-rooted rated edge of the scenario user, as a remove action.
fn first_removal(g: &Hin, rated: emigre_hin::EdgeTypeId, user: NodeId) -> Action {
    let mut found = None;
    g.for_each_out(user, |v, et, w| {
        if found.is_none() && et == rated {
            found = Some(Action::remove(EdgeKey::new(user, v, et), w));
        }
    });
    found.expect("scenario user has a rated edge")
}

/// An item the user has not interacted with, as an add action.
fn first_addition(g: &Hin, cfg: &emigre_core::EmigreConfig, user: NodeId, wni: NodeId) -> Action {
    for i in 0..g.num_nodes() as u32 {
        let n = NodeId(i);
        if n != user
            && n != wni
            && g.node_type(n) == cfg.rec.item_type
            && !g.has_edge(user, n, cfg.add_edge_type)
        {
            return Action::add(EdgeKey::new(user, n, cfg.add_edge_type), 1.0);
        }
    }
    unreachable!("graph has non-interacted items")
}

/// Best-of-`times` wall-clock milliseconds of `f`, with the peak heap
/// bytes above the starting live heap over all runs (`heap-track` builds
/// only) and the last run's result. Each result is dropped before the next
/// run, so the peak is one run's. The 1M-node leg cannot afford the
/// 15-sample median discipline of [`measure_us`], so the scale sweep
/// trades sample count for graph size explicitly.
fn timed_ms<T>(times: usize, mut f: impl FnMut() -> T) -> (f64, Option<u64>, T) {
    #[cfg(feature = "heap-track")]
    let live_before = {
        emigre_obs::reset_peak();
        emigre_obs::heap_stats().live_bytes
    };
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let t = Instant::now();
        let out = std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    #[cfg(feature = "heap-track")]
    let peak = Some(
        emigre_obs::heap_stats()
            .peak_bytes
            .saturating_sub(live_before),
    );
    #[cfg(not(feature = "heap-track"))]
    let peak = None;
    (best, peak, last.expect("at least one run"))
}

/// Panics unless `many` and `lone` are the same columns bit for bit.
fn assert_same_columns(many: &[ReversePush], lone: &[ReversePush]) {
    assert_eq!(many.len(), lone.len());
    for (m, l) in many.iter().zip(lone) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(m.target, l.target);
        assert_eq!(m.pushes, l.pushes, "pushes of {:?}", l.target);
        assert_eq!(m.drained.to_bits(), l.drained.to_bits());
        assert!(
            bits(&m.estimates) == bits(&l.estimates),
            "estimates of {:?}",
            l.target
        );
        assert!(
            bits(&m.residuals) == bits(&l.residuals),
            "residuals of {:?}",
            l.target
        );
    }
}

/// One lone reverse push per target.
fn lone_columns(kernel: &TransitionCsr, cfg: &PprConfig, targets: &[NodeId]) -> Vec<ReversePush> {
    targets
        .iter()
        .map(|&t| ReversePush::compute(kernel, cfg, t))
        .collect()
}

/// An overhead gate's verdict. `worst` is None when the run measured no
/// CHECK, and a gate that was asked for must then fail: it has nothing to
/// compare with its limit.
fn gate(flag: &str, what: &str, worst: Option<f64>, limit: Option<f64>) -> Result<(), String> {
    let Some(limit) = limit else {
        return Ok(());
    };
    match worst {
        None => Err(format!(
            "{flag} {limit}: no CHECK was measured, so the {what} overhead is unknown \
             (a --scale run measures none)"
        )),
        Some(w) if w > limit => Err(format!(
            "{what} overhead {w:.2}% exceeds limit {limit:.2}% ({flag})"
        )),
        Some(_) => Ok(()),
    }
}

/// `+x.xx%`, or `n/a` when the run measured no CHECK.
fn overhead_text(worst: Option<f64>) -> String {
    match worst {
        Some(w) => format!("{w:+.2}%"),
        None => "n/a (no CHECK measured)".to_string(),
    }
}

/// Parses a `--scale` size token: `10k`, `100k`, `1m`, or a plain count.
fn parse_scale(tok: &str) -> usize {
    match tok {
        "10k" => 10_000,
        "100k" => 100_000,
        "1m" => 1_000_000,
        other => other.parse().unwrap_or_else(|_| {
            panic!("--scale expects 10k, 100k, 1m, or a node count, got {other:?}")
        }),
    }
}

/// The per-CHECK-cost-vs-graph-size curve: streaming power-law graph at
/// `total` nodes, kernel built without materialising a `Hin`,
/// forward/reverse push and a one-row-patched CHECK push timed against it.
///
/// At 1M nodes this is generator + build + a single timed run of each
/// operation; the smaller legs take the best of five. Build peak memory is
/// recorded when the `heap-track` allocator is installed, demonstrating the
/// streaming build stays bounded below full `Hin` materialisation.
fn scale_sweep(total: usize, entries: &mut Vec<Entry>) {
    let spec = ScaleSpec::with_total_nodes(total, 0x5CA1E);
    let items = spec.num_items;
    let gen = ScaleGen::new(spec);
    let times = if total >= 1_000_000 { 1 } else { 5 };
    let model = TransitionModel::RecWalk { beta: 0.5 };

    #[cfg(feature = "heap-track")]
    let live_before = {
        emigre_obs::reset_peak();
        emigre_obs::heap_stats().live_bytes
    };
    let t0 = Instant::now();
    let kernel = gen.build_compact(model, 65_536);
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    #[cfg(feature = "heap-track")]
    let build_peak = Some(
        emigre_obs::heap_stats()
            .peak_bytes
            .saturating_sub(live_before),
    );
    #[cfg(not(feature = "heap-track"))]
    let build_peak: Option<u64> = None;
    let resident = kernel.heap_bytes() as u64;

    let mut e = entry("scale_build", items, total, None, build_ms * 1e3);
    e.resident_bytes = Some(resident);
    e.build_ms = Some(build_ms);
    e.build_peak_bytes = build_peak;
    println!(
        "{:>26} resident {} bytes, build peak {:?} bytes",
        "", resident, build_peak
    );
    entries.push(e);

    // ε = 1e-6 across all sizes so the curve is an apples-to-apples scan of
    // graph size alone (the main sweep's 1e-7 regime would dominate the 1M
    // leg's wall-clock with sweep count, not size effects).
    let cfg = PprConfig::default()
        .with_transition(model)
        .with_epsilon(1e-6);
    let seed = NodeId(0); // users occupy ids 0..num_users; user 0 always has edges
    let (fwd_ms, _, _) = timed_ms(times, || ForwardPush::compute(&kernel, &cfg, seed));
    entries.push(entry(
        "scale_forward_push",
        items,
        total,
        None,
        fwd_ms * 1e3,
    ));

    let target = NodeId((total - items) as u32); // head item of the popularity Zipf
    let (rev_ms, _, _) = timed_ms(times, || ReversePush::compute(&kernel, &cfg, target));
    entries.push(entry(
        "scale_reverse_push",
        items,
        total,
        None,
        rev_ms * 1e3,
    ));

    // One CHECK-shaped push: drop the seed's first out-edge, renormalise
    // the rest of the row by 1/(1−p), and run the push over the patched
    // kernel. baseline = the unpatched push above, so `speedup` reads as
    // the patch-overlay overhead factor (≈ 1).
    let (dsts, probs) = kernel.forward_row(seed);
    assert!(dsts.len() >= 2, "scale seed user needs at least two edges");
    let renorm = 1.0 / (1.0 - probs[0]);
    let new_dsts: Vec<u32> = dsts[1..].to_vec();
    let new_probs: Vec<f64> = probs[1..].iter().map(|p| p * renorm).collect();
    let (check_ms, _, _) = timed_ms(times, || {
        let patched = kernel.patched_rows(vec![(seed.0, new_dsts.clone(), new_probs.clone())]);
        ForwardPush::compute(&patched, &cfg, seed)
    });
    let mut e = entry(
        "scale_check",
        items,
        total,
        Some(fwd_ms * 1e3),
        check_ms * 1e3,
    );
    e.resident_bytes = Some(resident);
    entries.push(e);

    // The eight head items' columns: one lane sweep against eight lone
    // pushes (baseline), with each side's transient heap peak.
    let heads: Vec<NodeId> = (0..8).map(|k| NodeId((total - items + k) as u32)).collect();
    let (lone_ms, lone_peak, lone) = timed_ms(times, || lone_columns(&kernel, &cfg, &heads));
    let (many_ms, many_peak, many) =
        timed_ms(times, || ReversePush::compute_many(&kernel, &cfg, &heads));
    assert_same_columns(&many, &lone);
    let mut e = entry(
        "scale_reverse_push_x8",
        items,
        total,
        Some(lone_ms * 1e3),
        many_ms * 1e3,
    );
    e.peak_bytes = many_peak;
    e.baseline_peak_bytes = lone_peak;
    println!(
        "{:>26} transient peak {:?} bytes, lone pushes' peak {:?} bytes",
        "", many_peak, lone_peak
    );
    entries.push(e);
}

fn main() {
    // `ppr_flat_bench [out.json] [--smoke] [--scale 10k,100k,1m]
    //  [--max-obs-overhead-pct P] [--max-alloc-overhead-pct P]`
    // --smoke limits the sweep to the small graph (CI-friendly);
    // --max-obs-overhead-pct makes the run fail when the obs-enabled CHECK
    // is more than P percent slower than the uninstrumented one;
    // --max-alloc-overhead-pct does the same for the tracking allocator
    // (accounting on vs passed through, same binary — requires the
    // `heap-track` feature so the allocator is actually installed).
    let mut out_path = "BENCH_ppr.json".to_string();
    let mut smoke = false;
    let mut scales: Option<Vec<usize>> = None;
    let mut max_obs_overhead_pct: Option<f64> = None;
    let mut max_alloc_overhead_pct: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--scale" => {
                let v = args
                    .next()
                    .expect("--scale needs a value (e.g. 10k,100k,1m)");
                scales = Some(v.split(',').map(parse_scale).collect());
            }
            "--max-obs-overhead-pct" => {
                let v = args.next().expect("--max-obs-overhead-pct needs a value");
                max_obs_overhead_pct = Some(v.parse().expect("numeric overhead percentage"));
            }
            "--max-alloc-overhead-pct" => {
                let v = args.next().expect("--max-alloc-overhead-pct needs a value");
                max_alloc_overhead_pct = Some(v.parse().expect("numeric overhead percentage"));
            }
            other => out_path = other.to_string(),
        }
    }
    if max_alloc_overhead_pct.is_some() && cfg!(not(feature = "heap-track")) {
        eprintln!(
            "--max-alloc-overhead-pct needs the tracking allocator installed; \
             rebuild with --features heap-track"
        );
        std::process::exit(1);
    }
    let epsilon = 1e-7;
    let mut entries = Vec::new();
    let mut obs_overheads_pct: Vec<f64> = Vec::new();
    #[cfg(feature = "heap-track")]
    let mut alloc_overheads_pct: Vec<f64> = Vec::new();

    // An explicit `--scale` runs only the scale sweep (the CI smoke path);
    // the default full run appends the whole 10k → 1M curve after the
    // microbenchmark sweep.
    let sizes: &[usize] = if scales.is_some() {
        &[]
    } else if smoke {
        &[1_000]
    } else {
        &[1_000, 3_000]
    };
    for &items in sizes {
        let w = world(items, epsilon);
        let g = &w.hin.graph;
        let n = g.num_nodes();
        let cfg = &w.cfg.rec.ppr;
        let user = w.scenarios[0].user;
        let wni = w.scenarios[0].wni;
        let kernel = TransitionCsr::build(g, cfg.transition);

        let fwd = measure_us(1, || {
            std::hint::black_box(ForwardPush::compute(&kernel, cfg, user));
        });
        entries.push(entry("forward_push", items, n, None, fwd));

        let rev = measure_us(1, || {
            std::hint::black_box(ReversePush::compute(&kernel, cfg, wni));
        });
        entries.push(entry("reverse_push", items, n, None, rev));

        let ctx = ExplainContext::build(g, w.cfg.clone(), user, wni).expect("valid scenario");

        // Eight of the user's list items pushed as one lane block, against
        // eight lone pushes. The columns must match bit for bit first.
        let list: Vec<NodeId> = ctx.rec_list.items().into_iter().take(8).collect();
        assert_eq!(list.len(), 8, "scenario user's list has eight items");
        assert_same_columns(
            &ReversePush::compute_many(&kernel, cfg, &list),
            &lone_columns(&kernel, cfg, &list),
        );
        let lone = measure_us(1, || {
            std::hint::black_box(lone_columns(&kernel, cfg, &list));
        });
        let many = measure_us(1, || {
            std::hint::black_box(ReversePush::compute_many(&kernel, cfg, &list));
        });
        entries.push(entry("reverse_push_x8", items, n, Some(lone), many));

        // CHECK: one remove-mode and one add-mode counterfactual verdict.
        let tester = Tester::new(&ctx);
        let remove = vec![first_removal(g, w.hin.rated, user)];
        let add = vec![first_addition(g, &w.cfg, user, wni)];

        let chk_rm = measure_us(4, || {
            std::hint::black_box(tester.test(&remove));
        });
        entries.push(entry("check_remove", items, n, None, chk_rm));

        let chk_add = measure_us(4, || {
            std::hint::black_box(tester.test(&add));
        });
        entries.push(entry("check_add", items, n, None, chk_add));

        // Batched CHECK thread sweep: `Tester::first_passing` over the
        // incremental-style prefix ladder of the user's removals, at 1, 2,
        // 4, and 8 CHECK workers. The 1-thread time is the sequential
        // baseline of every row, so `speedup` is wall-clock scaling and
        // `parallel_efficiency` its fraction of ideal.
        let mut prefix = Vec::new();
        let mut sets: Vec<Vec<Action>> = Vec::new();
        g.for_each_out(user, |v, et, wt| {
            if et == w.hin.rated && sets.len() < 8 {
                prefix.push(Action::remove(EdgeKey::new(user, v, et), wt));
                sets.push(prefix.clone());
            }
        });
        let verdicts = |p: usize| {
            let cfg = w.cfg.clone().with_parallelism(p);
            let ctx = ExplainContext::build(g, cfg, user, wni).expect("valid scenario");
            let t = Tester::new(&ctx);
            let found = t.first_passing(&sets, |_| PreCheck::Proceed).found;
            (found, t.checks_performed())
        };
        let seq = verdicts(1);
        let mut batch_seq_us = 0.0;
        for &threads in &[1usize, 2, 4, 8] {
            assert_eq!(verdicts(threads), seq, "parallel batch diverged");
            let cfg = w.cfg.clone().with_parallelism(threads);
            let ctx = ExplainContext::build(g, cfg, user, wni).expect("valid scenario");
            let tester = Tester::new(&ctx);
            let batch_us = measure_us(2, || {
                std::hint::black_box(tester.first_passing(&sets, |_| PreCheck::Proceed).found);
            });
            if threads == 1 {
                batch_seq_us = batch_us;
            }
            let mut e = entry(
                &format!("check_batch_t{threads}"),
                items,
                n,
                Some(batch_seq_us),
                batch_us,
            );
            e.threads = Some(threads);
            e.parallel_efficiency = Some(batch_seq_us / (threads as f64 * batch_us));
            entries.push(e);
        }

        // Instrumentation cost: the same CHECK with an enabled ObsHandle
        // (baseline = uninstrumented `chk_rm` from above). The counter
        // delta of one call goes into the JSON so cost comparisons can be
        // made in ops, not just microseconds.
        let obs = ObsHandle::enabled();
        let ctx_obs = ExplainContext::build_with_obs(g, w.cfg.clone(), user, wni, obs.clone())
            .expect("valid scenario");
        let tester_obs = Tester::new(&ctx_obs);
        let before = obs.counters();
        assert_eq!(tester_obs.test(&remove), tester.test(&remove));
        let delta = obs.counters().delta(&before);
        let chk_rm_obs = measure_us(4, || {
            std::hint::black_box(tester_obs.test(&remove));
        });
        let overhead_pct = (chk_rm_obs / chk_rm - 1.0) * 100.0;
        obs_overheads_pct.push(overhead_pct);
        entries.push(entry_with_counters(
            "check_remove_obs",
            items,
            n,
            Some(chk_rm),
            chk_rm_obs,
            Some(delta),
        ));

        // Add-path op profile (satellite of the check_add-lag issue): the
        // counter delta shows where the add CHECK's time goes in ops.
        let before = obs.counters();
        assert_eq!(tester_obs.test(&add), tester.test(&add));
        let delta_add = obs.counters().delta(&before);
        let chk_add_obs = measure_us(4, || {
            std::hint::black_box(tester_obs.test(&add));
        });
        entries.push(entry_with_counters(
            "check_add_obs",
            items,
            n,
            Some(chk_add),
            chk_add_obs,
            Some(delta_add),
        ));

        // Allocation-tracker cost: the uninstrumented CHECK with the
        // tracking allocator's accounting paused (one relaxed load per
        // alloc) vs counting. Same binary, same heap layout — the only
        // variable is the per-allocation bookkeeping the gate prices.
        #[cfg(feature = "heap-track")]
        {
            emigre_obs::set_tracking(false);
            let chk_rm_paused = measure_us(4, || {
                std::hint::black_box(tester.test(&remove));
            });
            emigre_obs::set_tracking(true);
            let scope = emigre_obs::AllocScope::start();
            std::hint::black_box(tester.test(&remove));
            let bytes_per_check = scope.bytes();
            let chk_rm_tracked = measure_us(4, || {
                std::hint::black_box(tester.test(&remove));
            });
            let alloc_overhead_pct = (chk_rm_tracked / chk_rm_paused - 1.0) * 100.0;
            alloc_overheads_pct.push(alloc_overhead_pct);
            entries.push(entry(
                "check_remove_alloc_tracked",
                items,
                n,
                Some(chk_rm_paused),
                chk_rm_tracked,
            ));
            println!(
                "{:>26} {} heap bytes allocated per tracked CHECK",
                "", bytes_per_check
            );
        }
    }

    let scale_sizes: Vec<usize> = match &scales {
        Some(s) => s.clone(),
        None if smoke => vec![],
        None => vec![10_000, 100_000, 1_000_000],
    };
    for &total in &scale_sizes {
        scale_sweep(total, &mut entries);
    }

    let report = Report {
        description: "Flat-kernel PPR push and CHECK on the synthetic Amazon graph \
                      (median of 15 samples, release build), flat = TransitionCsr/\
                      PushWorkspace path. baseline: check_batch_t* = 1 thread, *_obs = \
                      uninstrumented CHECK, *_alloc_tracked = tracking paused, \
                      scale_check = unpatched forward push, *_x8 = eight lone \
                      ReversePush::compute calls against one compute_many; null \
                      elsewhere. scale_* \
                      entries: streaming power-law graphs at 10k–1M nodes, f64 \
                      TransitionCsr, ε = 1e-6, best-of-5 (single run at 1M). See \
                      EXPERIMENTS.md for methodology."
            .to_string(),
        epsilon,
        samples: 15,
        entries,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialise report");
    std::fs::write(&out_path, json + "\n").expect("write report");
    println!("\nwrote {out_path}");
    // None when the run measured no CHECK (a `--scale` run).
    let worst_obs_overhead_pct = obs_overheads_pct.into_iter().reduce(f64::max);
    println!(
        "worst obs-enabled CHECK overhead: {}",
        overhead_text(worst_obs_overhead_pct)
    );
    let obs_verdict = gate(
        "--max-obs-overhead-pct",
        "obs",
        worst_obs_overhead_pct,
        max_obs_overhead_pct,
    );
    #[cfg(feature = "heap-track")]
    let alloc_verdict = {
        let worst_alloc_overhead_pct = alloc_overheads_pct.into_iter().reduce(f64::max);
        println!(
            "worst alloc-tracking CHECK overhead: {}",
            overhead_text(worst_alloc_overhead_pct)
        );
        gate(
            "--max-alloc-overhead-pct",
            "alloc-tracking",
            worst_alloc_overhead_pct,
            max_alloc_overhead_pct,
        )
    };
    #[cfg(not(feature = "heap-track"))]
    let alloc_verdict = Ok(());
    for verdict in [obs_verdict, alloc_verdict] {
        if let Err(e) = verdict {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}
