//! `emigre` — the command-line front end.
//!
//! Works on graphs in the `emigre-hin` edge-list format (see
//! `emigre::hin::io`), so a preprocessed HIN can be explained without
//! writing any Rust:
//!
//! ```text
//! emigre demo                                  # write the running example to paul.hin
//! emigre recommend --graph paul.hin --user 1
//! emigre explain   --graph paul.hin --user 1 --why-not 7 [--method remove_Powerset]
//! emigre explain   --graph paul.hin --user 1 --why-not all
//! emigre serve     --graph paul.hin --port 7878
//! emigre dot       --graph paul.hin > graph.dot
//! ```
//!
//! Node ids are the dense ids of the edge-list file; `recommend` prints
//! them next to their labels so `explain` can be pointed at the right
//! item.

use emigre::core::{minimal, Explainer, Method};
use emigre::prelude::*;
use emigre::serve::{ExplanationService, HttpServer, ServiceConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Heap accounting for every subcommand (most visibly `serve`): installed
/// only when built with `--features heap-track`, so default builds keep
/// the unwrapped system allocator.
#[cfg(feature = "heap-track")]
#[global_allocator]
static ALLOC: emigre::obs::TrackingAlloc = emigre::obs::TrackingAlloc::system();

const USAGE: &str = "\
usage:
  emigre demo [--out FILE]                        write the paper's running example graph
  emigre recommend --graph FILE --user ID [--top N]
  emigre explain --graph FILE --user ID --why-not ID|all
                 [--method NAME] [--minimise]
  emigre snapshot --graph FILE --out FILE.snap    compile a text graph to a binary snapshot
  emigre serve --graph FILE [--port P] [--workers N] [--parallelism N]
               [--graph-snapshot FILE.snap]       load a binary snapshot instead of --graph
               [--queue N] [--deadline-ms N]      HTTP explanation service
               [--event-log FILE]                 JSON-lines request event log
               [--feedback-log FILE]              replay edge updates before serving
               [--trace-cap N]                    replayable /trace/<id> store size
               [--reactor-threads N]              event-loop reactor pool size
               [--keep-alive-secs N]              idle connection budget (0 = close)
               [--user-share F]                   per-user queue share in (0, 1]
               [--slow-ring N]                    slowest-N /debug/slow entries per endpoint
  emigre dot --graph FILE                         Graphviz to stdout
methods: add_Incremental add_Powerset add_ex remove_Incremental
         remove_Powerset remove_ex remove_ex_direct remove_brute
         combined combined_minimal   (default: add_Powerset)
graph format: emigre-hin v1 edge list; node/edge types `user`, `item`,
`rated` drive the recommender configuration.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Looks up `name` in `args` and returns the value that follows it.
///
/// Distinguishes "flag absent" (`Ok(None)`) from "flag present but
/// valueless" (`Err`): a trailing `--flag`, or `--flag` directly followed
/// by another `--option`, is a usage error rather than silently consuming
/// the next flag as its value.
fn flag(args: &[String], name: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
            _ => Err(format!("flag {name} expects a value")),
        },
    }
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Rejects any `--flag` in `args` that subcommand `cmd` does not take, so
/// a misspelt option is a usage error rather than silently ignored.
fn known_flags(args: &[String], cmd: &str, known: &[&str]) -> Result<(), String> {
    match args
        .iter()
        .skip(1)
        .find(|a| a.starts_with("--") && !known.contains(&a.as_str()))
    {
        Some(unknown) => Err(format!("unknown flag {unknown} for {cmd}")),
        None => Ok(()),
    }
}

fn load_graph(args: &[String]) -> Result<Hin, String> {
    let path = flag(args, "--graph")?.ok_or("missing --graph FILE")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    emigre::hin::io::from_edge_list(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn node_arg(args: &[String], name: &str) -> Result<NodeId, String> {
    let raw = flag(args, name)?.ok_or_else(|| format!("missing {name} ID"))?;
    raw.parse::<u32>()
        .map(NodeId)
        .map_err(|_| format!("{name} must be a numeric node id, got {raw:?}"))
}

/// Standard configuration for CLI graphs: `item`-typed nodes are
/// recommendable, `rated` edges are the actionable type, PPR defaults.
fn config_for(g: &Hin) -> Result<EmigreConfig, String> {
    let item_t = g
        .registry()
        .find_node_type("item")
        .ok_or("graph has no `item` node type")?;
    let rated = g
        .registry()
        .find_edge_type("rated")
        .ok_or("graph has no `rated` edge type")?;
    let ppr = PprConfig::default()
        .with_transition(TransitionModel::Weighted)
        .with_epsilon(1e-8);
    Ok(EmigreConfig::new(
        RecConfig::new(item_t).with_ppr(ppr),
        rated,
    ))
}

fn parse_method(args: &[String]) -> Result<Method, String> {
    let raw = flag(args, "--method")?.unwrap_or_else(|| "add_Powerset".to_owned());
    Method::from_label(&raw).ok_or_else(|| format!("unknown method {raw:?}"))
}

/// `emigre explain --why-not all`: answer the Why-Not question for every
/// non-top item of the user's list via the shared-artefact batch path.
fn explain_all(g: &Hin, user: NodeId, method: Method, cfg: EmigreConfig) -> Result<(), String> {
    let explainer = Explainer::new(cfg);
    let results = emigre::core::batch::explain_whole_list(&explainer, g, user, method)
        .map_err(|e| format!("invalid question: {e}"))?;
    if results.is_empty() {
        println!(
            "{} has no non-top recommendations to explain",
            g.display_name(user)
        );
        return Ok(());
    }
    println!(
        "why-not for every non-top item of {}'s list [{}]:",
        g.display_name(user),
        method.label()
    );
    for entry in &results {
        match &entry.result {
            Ok(exp) => println!(
                "  #{:<2} [{:>4}] {:<28} {} ({} edge(s), {} checks)",
                entry.rank,
                entry.wni.0,
                g.display_name(entry.wni),
                exp.describe(g),
                exp.size(),
                exp.checks_performed
            ),
            Err(failure) => println!(
                "  #{:<2} [{:>4}] {:<28} no explanation: {failure}",
                entry.rank,
                entry.wni.0,
                g.display_name(entry.wni)
            ),
        }
    }
    let found = results.iter().filter(|r| r.result.is_ok()).count();
    println!("explained {found}/{} items", results.len());
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("demo") => {
            known_flags(args, "demo", &["--out"])?;
            let out = flag(args, "--out")?.unwrap_or_else(|| "paul.hin".to_owned());
            let ex = emigre::data::examples::running_example();
            std::fs::write(&out, emigre::hin::io::to_edge_list(&ex.graph))
                .map_err(|e| format!("writing {out}: {e}"))?;
            println!(
                "wrote the running example to {out}\n\
                 try: emigre recommend --graph {out} --user {}\n\
                 then: emigre explain --graph {out} --user {} --why-not {} --method remove_Powerset",
                ex.paul.0, ex.paul.0, ex.harry_potter.0
            );
            Ok(())
        }
        Some("recommend") => {
            known_flags(args, "recommend", &["--graph", "--user", "--top"])?;
            let g = load_graph(args)?;
            let user = node_arg(args, "--user")?;
            let top: usize = flag(args, "--top")?
                .map(|s| s.parse().map_err(|_| "bad --top"))
                .transpose()?
                .unwrap_or(10);
            let cfg = config_for(&g)?;
            // The single-threaded reference of `POST /recommend`, so every
            // user id gets the answer the server gives.
            let list = emigre::serve::reference_recommend(&g, &cfg, user, top)
                .map_err(|e| format!("invalid question: {e}"))?;
            if list.is_empty() {
                println!(
                    "no recommendations for {} (no actions?)",
                    g.display_name(user)
                );
                return Ok(());
            }
            println!("top-{} for {}:", list.len(), g.display_name(user));
            for (i, (item, score)) in list.iter().enumerate() {
                println!(
                    "  {:>2}. [{:>4}] {:<28} PPR {score:.5}",
                    i + 1,
                    item.0,
                    g.display_name(*item)
                );
            }
            Ok(())
        }
        Some("explain") => {
            known_flags(
                args,
                "explain",
                &["--graph", "--user", "--why-not", "--method", "--minimise"],
            )?;
            let g = load_graph(args)?;
            let user = node_arg(args, "--user")?;
            let method = parse_method(args)?;
            let cfg = config_for(&g)?;
            let raw_wni = flag(args, "--why-not")?.ok_or("missing --why-not ID")?;
            if raw_wni == "all" {
                return explain_all(&g, user, method, cfg);
            }
            let wni = raw_wni
                .parse::<u32>()
                .map(NodeId)
                .map_err(|_| format!("--why-not must be a node id or `all`, got {raw_wni:?}"))?;
            let explainer = Explainer::new(cfg);
            let ctx = explainer
                .context(&g, user, wni)
                .map_err(|e| format!("invalid question: {e}"))?;
            println!(
                "{} is recommended {}; asking why not {} [{}]",
                g.display_name(user),
                g.display_name(ctx.rec),
                g.display_name(wni),
                method.label()
            );
            match Explainer::explain_with_context(&ctx, method) {
                Ok(exp) => {
                    let exp = if has_flag(args, "--minimise") {
                        minimal::shrink(&ctx, &exp)
                    } else {
                        exp
                    };
                    println!(
                        "{} ({} edge(s), {} checks)",
                        exp.describe(&g),
                        exp.size(),
                        exp.checks_performed
                    );
                    Ok(())
                }
                Err(failure) => {
                    println!("no explanation: {failure}");
                    Ok(())
                }
            }
        }
        Some("snapshot") => {
            known_flags(args, "snapshot", &["--graph", "--out"])?;
            let g = load_graph(args)?;
            let out = flag(args, "--out")?.ok_or("missing --out FILE.snap")?;
            let image = emigre::hin::snapshot_to_bytes(&g);
            emigre::hin::write_snapshot(&g, std::path::Path::new(&out))
                .map_err(|e| format!("writing {out}: {e}"))?;
            println!(
                "wrote {out}: {} nodes, {} edges, {} bytes",
                g.num_nodes(),
                g.num_edges(),
                image.len()
            );
            Ok(())
        }
        Some("serve") => {
            known_flags(
                args,
                "serve",
                &[
                    "--graph",
                    "--graph-snapshot",
                    "--port",
                    "--workers",
                    "--parallelism",
                    "--queue",
                    "--deadline-ms",
                    "--event-log",
                    "--feedback-log",
                    "--trace-cap",
                    "--reactor-threads",
                    "--keep-alive-secs",
                    "--user-share",
                    "--slow-ring",
                ],
            )?;
            // `--graph-snapshot` is the fast-start path: the checksummed
            // binary image maps (or reads) straight into memory, skipping
            // the text parse entirely.
            let g = match flag(args, "--graph-snapshot")? {
                Some(p) => {
                    let t0 = std::time::Instant::now();
                    let snap = emigre::hin::Snapshot::open(std::path::Path::new(&p))
                        .map_err(|e| format!("opening snapshot {p}: {e}"))?;
                    let g = snap.to_hin();
                    println!(
                        "emigre-serve snapshot {p}: {} nodes, {} edges, {} image bytes \
                         ({}) loaded in {:.1} ms",
                        g.num_nodes(),
                        g.num_edges(),
                        snap.image_bytes(),
                        if snap.is_mapped() { "mmap" } else { "read" },
                        t0.elapsed().as_secs_f64() * 1e3
                    );
                    g
                }
                None => load_graph(args)?,
            };
            let mut cfg = config_for(&g)?;
            let port: u16 = flag(args, "--port")?
                .map(|s| s.parse().map_err(|_| "bad --port"))
                .transpose()?
                .unwrap_or(7878);
            let mut sc = ServiceConfig::default();
            if let Some(w) = flag(args, "--workers")? {
                sc.workers = w.parse().map_err(|_| "bad --workers")?;
                if sc.workers == 0 {
                    return Err("--workers must be at least 1".to_owned());
                }
            }
            if let Some(q) = flag(args, "--queue")? {
                sc.queue_capacity = q.parse().map_err(|_| "bad --queue")?;
                if sc.queue_capacity == 0 {
                    return Err("--queue must be at least 1".to_owned());
                }
            }
            if let Some(d) = flag(args, "--deadline-ms")? {
                let ms: u64 = d.parse().map_err(|_| "bad --deadline-ms")?;
                sc.default_deadline = Duration::from_millis(ms);
            }
            if let Some(p) = flag(args, "--event-log")? {
                sc.event_log = Some(std::path::PathBuf::from(p));
            }
            if let Some(t) = flag(args, "--trace-cap")? {
                sc.trace_capacity = t.parse().map_err(|_| "bad --trace-cap")?;
                if sc.trace_capacity == 0 {
                    return Err("--trace-cap must be at least 1".to_owned());
                }
            }
            if let Some(p) = flag(args, "--parallelism")? {
                // Per-request CHECK worker budget (0 = auto-detect); see
                // the `parallelism` knob on EmigreConfig.
                cfg.parallelism = p.parse().map_err(|_| "bad --parallelism")?;
            }
            if let Some(s) = flag(args, "--user-share")? {
                sc.user_share = s.parse().map_err(|_| "bad --user-share")?;
                if !(0.0..=1.0).contains(&sc.user_share) || sc.user_share == 0.0 {
                    return Err("--user-share must be in (0, 1]".to_owned());
                }
            }
            if let Some(s) = flag(args, "--slow-ring")? {
                sc.slow_ring_capacity = s.parse().map_err(|_| "bad --slow-ring")?;
                if sc.slow_ring_capacity == 0 {
                    return Err("--slow-ring must be at least 1".to_owned());
                }
            }
            let mut hc = emigre::serve::HttpConfig::default();
            if let Some(r) = flag(args, "--reactor-threads")? {
                hc.reactor_threads = r.parse().map_err(|_| "bad --reactor-threads")?;
                if hc.reactor_threads == 0 {
                    return Err("--reactor-threads must be at least 1".to_owned());
                }
            }
            if let Some(k) = flag(args, "--keep-alive-secs")? {
                // 0 disables keep-alive: every response closes.
                let secs: u64 = k.parse().map_err(|_| "bad --keep-alive-secs")?;
                hc.keep_alive = Duration::from_secs(secs);
            }
            let service = Arc::new(ExplanationService::start(g, cfg, sc));
            // Log-replay ingestion: one JSON feedback event per line,
            // applied as epoch-publishing batches before the listener
            // opens — a restart replays to the same epoch the log ends at.
            if let Some(p) = flag(args, "--feedback-log")? {
                let text = std::fs::read_to_string(&p)
                    .map_err(|e| format!("reading --feedback-log {p}: {e}"))?;
                let mut replayed = 0u64;
                for (i, line) in text
                    .lines()
                    .enumerate()
                    .filter(|(_, l)| !l.trim().is_empty())
                {
                    let event: emigre::serve::FeedbackEvent = serde_json::from_str(line)
                        .map_err(|e| format!("--feedback-log line {}: {e}", i + 1))?;
                    let (_, result) = service.apply_feedback(std::slice::from_ref(&event));
                    result.map_err(|e| format!("--feedback-log line {}: {e}", i + 1))?;
                    replayed += 1;
                }
                println!(
                    "emigre-serve replayed {replayed} feedback event(s), graph at epoch {}",
                    service.metrics().graph_epoch
                );
            }
            let server = HttpServer::bind_with(service, &format!("127.0.0.1:{port}"), hc)
                .map_err(|e| format!("binding 127.0.0.1:{port}: {e}"))?;
            let addr = server
                .local_addr()
                .map_err(|e| format!("resolving bound address: {e}"))?;
            // The load generator parses this exact line to find the port.
            println!("emigre-serve listening on {addr}");
            server.run().map_err(|e| format!("serving: {e}"))
        }
        Some("dot") => {
            known_flags(args, "dot", &["--graph"])?;
            let g = load_graph(args)?;
            print!("{}", emigre::hin::io::to_dot(&g));
            Ok(())
        }
        Some("--help") | Some("-h") => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(match other {
            Some(cmd) => format!("unknown command {cmd:?}"),
            None => "no command given".to_owned(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::{flag, known_flags};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn absent_flag_is_ok_none() {
        assert_eq!(flag(&args(&["--user", "1"]), "--graph"), Ok(None));
    }

    #[test]
    fn present_flag_returns_its_value() {
        let a = args(&["--graph", "g.hin", "--user", "1"]);
        assert_eq!(flag(&a, "--graph"), Ok(Some("g.hin".to_owned())));
        assert_eq!(flag(&a, "--user"), Ok(Some("1".to_owned())));
    }

    #[test]
    fn trailing_flag_without_value_errors() {
        let a = args(&["--user", "1", "--graph"]);
        assert_eq!(
            flag(&a, "--graph"),
            Err("flag --graph expects a value".to_owned())
        );
    }

    #[test]
    fn flag_does_not_swallow_the_next_flag_as_value() {
        // The pre-fix behaviour returned Some("--minimise") here, silently
        // treating the next option as this flag's value.
        let a = args(&["--method", "--minimise"]);
        assert_eq!(
            flag(&a, "--method"),
            Err("flag --method expects a value".to_owned())
        );
    }

    #[test]
    fn negative_looking_value_is_still_a_value() {
        // Single-dash values (e.g. "-1") are not flags in this CLI.
        let a = args(&["--why-not", "-1"]);
        assert_eq!(flag(&a, "--why-not"), Ok(Some("-1".to_owned())));
    }

    #[test]
    fn known_flags_names_the_first_unknown_one() {
        let a = args(&["explain", "--user", "1", "--mehtod", "x", "--bogus"]);
        assert_eq!(
            known_flags(&a, "explain", &["--user", "--method"]),
            Err("unknown flag --mehtod for explain".to_owned())
        );
        assert_eq!(known_flags(&a[..3], "explain", &["--user"]), Ok(()));
    }
}
