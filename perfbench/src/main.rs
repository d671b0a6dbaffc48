//! Benchmark of the EMiGRe explanation service.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hot|cold> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds seeded inputs (see `inputs`), starts the service in process as
//! `emigre serve` would, and drives one workload (see `drive`) for
//! `--seconds`. The last line of standard output is one JSON object:
//! whether every answer matched its reference, the requests attempted and
//! failed, and the metrics — end-to-end latencies with `--trace 0`,
//! per-layer costs with `--trace 1`. Client and service share one CPU.
//! End-to-end request latencies are reported in yardsticks (see
//! `yardstick`): multiples of a fixed PPR push timed on that CPU right
//! before each request, which cancels the drift of a shared host's speed
//! that raw milliseconds carry from run to run; the per-layer metrics keep
//! raw milliseconds. A traced run also writes one JSON line per measured
//! request to `.perfbench/<workload>-<seed>.jsonl`.

mod drive;
mod inputs;
mod stats;
mod yardstick;

use drive::{Kind, Read, Samples, Workload, WORKLOADS};
use emigre_serve::{ExplanationService, ServiceConfig};
use inputs::{Class, Inputs, Request, CLASSES};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use yardstick::Yardstick;

/// Service starts timed before the run; one more follows every cycle, and
/// `setup_s` is the median of them all.
const SETUPS: usize = 5;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed must be an unsigned integer")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_owned());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn service_config(w: &Workload) -> ServiceConfig {
    ServiceConfig {
        // One closed-loop client never has two requests in flight.
        workers: 1,
        default_deadline: drive::DEADLINE,
        session_capacity: w.cache_capacity,
        column_capacity: w.cache_capacity,
        ..ServiceConfig::default()
    }
}

/// What `emigre serve` does before its first answer: parse the graph
/// file, build the transition kernel, start the workers. Returns its wall
/// time in seconds.
fn start(inputs: &Inputs, w: &Workload) -> (f64, ExplanationService) {
    let t = Instant::now();
    let graph = emigre_hin::io::from_edge_list(&inputs.graph_text)
        .expect("building the inputs parsed this graph already");
    let svc = ExplanationService::start(graph, inputs.cfg.clone(), service_config(w));
    (t.elapsed().as_secs_f64(), svc)
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Pins the calling thread, and so every thread it starts from now on, to
/// one CPU: the highest-numbered one it may run on, away from CPU 0,
/// which takes most device interrupts. The client then hands each request
/// to the worker on the same CPU, and times the yardstick where the
/// request runs: no cross-CPU wake-ups, and no second CPU whose idle state
/// or neighbours set the speed of half the work.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }
    // A glibc `cpu_set_t`: 1024 CPUs, one bit each.
    let mut mask = [0u8; 128];
    // SAFETY: both calls read or write exactly `mask.len()` bytes of
    // `mask`; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    let cpu = (0..mask.len() * 8)
        .rev()
        .find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
        .ok_or("empty CPU affinity mask")?;
    let mut one = [0u8; 128];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: as above.
    if unsafe { sched_setaffinity(0, one.len(), one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Result<usize, String> {
    Err("CPU pinning is only implemented on Linux".to_owned())
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let inputs = inputs::build(args.seed)?;
    match pin_to_one_cpu() {
        Ok(cpu) => eprintln!("perfbench: service and client pinned to CPU {cpu}"),
        Err(e) => eprintln!("perfbench: running unpinned: {e}"),
    }
    let (secs, svc) = start(&inputs, args.workload);
    let mut setup_s = vec![secs];
    // Set-up is timed before the run and again after every cycle, so its
    // samples span the same stretch of host time as the requests. Each
    // extra service shuts down as it drops.
    let mut time_setup = || setup_s.push(start(&inputs, args.workload).0);
    for _ in 1..SETUPS {
        time_setup();
    }
    let graph_bytes = svc.graph_bytes();
    let graph = emigre_hin::io::from_edge_list(&inputs.graph_text).map_err(|e| e.to_string())?;
    let yardstick = Yardstick::new(&graph);
    let samples = drive::run(&svc, &inputs, &yardstick, args.seconds, &mut time_setup);
    svc.shutdown();
    if let Some(problem) = &samples.first_problem {
        eprintln!("perfbench: {problem}");
    }
    let metrics = if args.trace {
        write_trace(&args, &inputs, &samples)?;
        per_layer(&samples, graph_bytes)
    } else {
        end_to_end(&samples, &setup_s)
    };
    eprintln!(
        "perfbench: workload {} seed {}: {} reads, {} writes measured; {} wrong, {} failed",
        args.workload.name,
        args.seed,
        samples.reads.len(),
        samples.writes.len(),
        samples.wrong,
        samples.failed
    );
    Ok(report(&samples, &metrics))
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(s: &Samples, setup_s: &[f64]) -> Vec<Metric> {
    let mut metrics = Vec::new();
    for class in CLASSES {
        metrics.push((
            kind_name(Kind::Explain(class)),
            class_latency(s, Kind::Explain(class)),
            YARDSTICK,
        ));
    }
    let writes = s.writes.iter().map(|w| (w.slot, w.ms / w.yardstick_ms));
    metrics.push(("feedback_rel", mean_of_medians(writes), YARDSTICK));
    metrics.push(("setup_s", stats::median(setup_s), "s"));
    metrics
}

fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Recommend => "recommend_rel",
        Kind::Explain(Class::Cheap) => "cheap_explain_rel",
        Kind::Explain(Class::Costly) => "costly_explain_rel",
        Kind::Explain(Class::Exhaustive) => "exhaustive_explain_rel",
    }
}

/// Unit of the end-to-end request latencies: multiples of the yardstick
/// push timed right before each request.
const YARDSTICK: &str = "yardstick";

/// Latency of one cost class, in yardsticks (see [`mean_of_medians`]).
fn class_latency(s: &Samples, kind: Kind) -> f64 {
    mean_of_medians(
        s.reads
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| (r.slot, r.ms / r.yardstick_ms)),
    )
}

/// The mean, over slots (a read's place in the round, a write's place in
/// its burst), of each slot's median latency-to-yardstick ratio across the
/// run, from `(slot, ratio)` pairs. The ratio cancels the host's drifting
/// speed; the median drops the samples a host hiccup or a post-write cache
/// miss slowed; the mean over slots weighs every slot alike, where a
/// median would jump between the modes of a mix of slots that cost
/// differently.
fn mean_of_medians(samples: impl Iterator<Item = (usize, f64)>) -> f64 {
    let mut by_slot: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (slot, ratio) in samples {
        by_slot.entry(slot).or_default().push(ratio);
    }
    let per_request: Vec<f64> = by_slot.values().map(|v| stats::median(v)).collect();
    stats::mean(&per_request)
}

/// Where the time of a read goes, layer by layer, and the work each layer
/// did. The stage means over explains sum to the mean explain latency.
fn per_layer(s: &Samples, graph_bytes: u64) -> Vec<Metric> {
    let explains: Vec<&Read> = s
        .reads
        .iter()
        .filter(|r| matches!(r.kind, Kind::Explain(_)))
        .collect();
    let n_reads = s.reads.len().max(1) as f64;
    let n_explains = explains.len().max(1) as f64;
    let ms = |us: u64| us as f64 / 1e3;
    let explain_mean =
        |f: &dyn Fn(&Read) -> f64| explains.iter().map(|r| f(r)).sum::<f64>() / n_explains;
    let (b, a) = (&s.before, &s.after);
    let checks = (a.ops.checks - b.ops.checks).max(1) as f64;
    let hit_ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let test_us: u64 = explains.iter().map(|r| r.stages.test_us).sum();
    let stale = (a.session_stale_invalidations + a.column_stale_invalidations)
        - (b.session_stale_invalidations + b.column_stale_invalidations);
    vec![
        ("queue_ms", explain_mean(&|r| ms(r.stages.queue_us)), "ms"),
        (
            "context_ms",
            explain_mean(&|r| ms(r.stages.context_us)),
            "ms",
        ),
        ("search_ms", explain_mean(&|r| ms(r.stages.search_us)), "ms"),
        ("test_ms", explain_mean(&|r| ms(r.stages.test_us)), "ms"),
        (
            "other_ms",
            explain_mean(&|r| {
                let st = &r.stages;
                r.ms - ms(st.queue_us + st.context_us + st.search_us + st.test_us)
            }),
            "ms",
        ),
        ("explain_mean_ms", explain_mean(&|r| r.ms), "ms"),
        (
            "yardstick_ms",
            stats::median(&s.reads.iter().map(|r| r.yardstick_ms).collect::<Vec<_>>()),
            "ms",
        ),
        ("checks_per_explain", checks / n_explains, "count"),
        ("test_us_per_check", test_us as f64 / checks, "us"),
        (
            "rows_patched_per_check",
            (a.ops.rows_patched - b.ops.rows_patched) as f64 / checks,
            "count",
        ),
        (
            "subsets_per_explain",
            (a.ops.subsets_enumerated - b.ops.subsets_enumerated) as f64 / n_explains,
            "count",
        ),
        (
            "forward_pushes_per_read",
            (a.ops.forward_pushes - b.ops.forward_pushes) as f64 / n_reads,
            "count",
        ),
        (
            "reverse_pushes_per_read",
            (a.ops.reverse_pushes - b.ops.reverse_pushes) as f64 / n_reads,
            "count",
        ),
        (
            "session_hit_ratio",
            hit_ratio(
                a.session_cache.hits - b.session_cache.hits,
                a.session_cache.misses - b.session_cache.misses,
            ),
            "ratio",
        ),
        (
            "column_hit_ratio",
            hit_ratio(
                a.column_cache.hits - b.column_cache.hits,
                a.column_cache.misses - b.column_cache.misses,
            ),
            "ratio",
        ),
        (
            "stale_per_write",
            stale as f64 / s.writes.len().max(1) as f64,
            "count",
        ),
        ("graph_bytes", graph_bytes as f64, "bytes"),
    ]
}

/// One JSON line per measured read (when it started, what the client saw,
/// and the service's own stage attribution), then one per measured write.
fn write_trace(args: &Args, inputs: &Inputs, s: &Samples) -> Result<(), String> {
    let mut out = String::new();
    for r in &s.reads {
        let kind = kind_name(r.kind).trim_end_matches("_rel");
        let (user, method) = match &inputs.round[r.slot] {
            Request::Recommend { user, .. } => (user.0, "recommend"),
            Request::Explain(q) => (q.user.0, q.method.label()),
        };
        let st = &r.stages;
        let _ = writeln!(
            out,
            "{{\"kind\":\"{kind}\",\"method\":\"{method}\",\"user\":{user},\"slot\":{},\
             \"start_us\":{},\"client_us\":{:.1},\"queue_us\":{},\"context_us\":{},\
             \"search_us\":{},\"test_us\":{},\"service_us\":{},\"yardstick_us\":{:.1}}}",
            r.slot,
            r.start.as_micros(),
            r.ms * 1e3,
            st.queue_us,
            st.context_us,
            st.search_us,
            st.test_us,
            st.total_us,
            r.yardstick_ms * 1e3
        );
    }
    for w in &s.writes {
        let _ = writeln!(
            out,
            "{{\"kind\":\"feedback\",\"slot\":{},\"start_us\":{},\"client_us\":{:.1},\
             \"yardstick_us\":{:.1}}}",
            w.slot,
            w.start.as_micros(),
            w.ms * 1e3,
            w.yardstick_ms * 1e3
        );
    }
    let dir = std::path::Path::new(".perfbench");
    let path = dir.join(format!("{}-{}.jsonl", args.workload.name, args.seed));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, out))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn report(s: &Samples, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        s.wrong == 0,
        s.attempted,
        s.failed
    )
}
