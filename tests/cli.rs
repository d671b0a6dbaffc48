//! End-to-end tests of the `emigre` binary on the graph `emigre demo`
//! writes: the CLI answers every user id the way the server does.

use std::path::PathBuf;
use std::process::{Command, Output};

/// `emigre recommend --graph paul.hin --user 1`, as printed for Paul.
const PAUL_TOP10: &str = "\
top-10 for Paul:
   1. [  15] Python                       PPR 0.03736
   2. [  11] The Alchemist                PPR 0.03447
   3. [   7] Harry Potter                 PPR 0.03295
   4. [  14] Rust                         PPR 0.03040
   5. [   8] The Lord of the Rings        PPR 0.02531
   6. [   9] The Hobbit                   PPR 0.02531
   7. [  16] The Witcher                  PPR 0.02401
   8. [   5] Les Miserables               PPR 0.01853
   9. [   6] Don Quixote                  PPR 0.01784
  10. [  12] Eragon                       PPR 0.01502
";

fn emigre(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_emigre"))
        .args(args)
        .output()
        .expect("run the emigre binary")
}

/// The running example as `emigre demo` writes it, in a directory of its
/// own per test (tests run in parallel) that is removed on drop.
struct DemoGraph {
    dir: PathBuf,
    path: String,
}

impl DemoGraph {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("emigre-cli-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the test directory");
        let path = dir.join("paul.hin").to_str().unwrap().to_owned();
        let out = emigre(&["demo", "--out", &path]);
        assert!(out.status.success(), "emigre demo failed: {out:?}");
        DemoGraph { dir, path }
    }
}

impl Drop for DemoGraph {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn recommend_rejects_an_out_of_range_user_without_panicking() {
    let graph = DemoGraph::new("out-of-range");
    let out = emigre(&["recommend", "--graph", &graph.path, "--user", "999"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("is not a usable user node"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn recommend_prints_pauls_list() {
    let graph = DemoGraph::new("paul");
    let out = emigre(&["recommend", "--graph", &graph.path, "--user", "1"]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), PAUL_TOP10);
}

#[test]
fn recommend_with_a_huge_top_prints_every_candidate() {
    let graph = DemoGraph::new("huge-top");
    // 2^40 list slots would not fit in memory; the list holds at most
    // one per candidate.
    let out = emigre(&[
        "recommend",
        "--graph",
        &graph.path,
        "--user",
        "1",
        "--top",
        "1099511627776",
    ]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), PAUL_TOP10);
}

#[test]
fn every_subcommand_rejects_a_flag_it_does_not_take() {
    let graph = DemoGraph::new("unknown-flag");
    let cases: [(&[&str], &str); 5] = [
        (
            &[
                "explain",
                "--graph",
                &graph.path,
                "--user",
                "1",
                "--why-not",
                "7",
                "--mehtod",
                "remove_Incremental",
            ],
            "error: unknown flag --mehtod for explain",
        ),
        (
            &[
                "recommend",
                "--graph",
                &graph.path,
                "--user",
                "1",
                "--minimise",
            ],
            "error: unknown flag --minimise for recommend",
        ),
        // The threaded front end is gone; its selector is no longer ignored.
        (
            &["serve", "--graph", &graph.path, "--frontend", "threaded"],
            "error: unknown flag --frontend for serve",
        ),
        // Earliest deadline first is the one admission order.
        (
            &["serve", "--graph", &graph.path, "--sched", "deadline"],
            "error: unknown flag --sched for serve",
        ),
        // One reactor serves every connection.
        (
            &["serve", "--graph", &graph.path, "--reactor-threads", "2"],
            "error: unknown flag --reactor-threads for serve",
        ),
    ];
    for (args, want) in cases {
        let out = emigre(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(want), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} answered anyway: {out:?}");
    }
}

/// A spawned `emigre serve`, killed and reaped on drop.
#[cfg(target_os = "linux")]
struct Server {
    child: std::process::Child,
    addr: String,
}

#[cfg(target_os = "linux")]
impl Server {
    /// Runs `emigre serve --graph <graph> --port 0 <args>` under `sh -c`,
    /// after the shell command `prelude`, and waits for its address.
    fn start(prelude: &str, graph: &DemoGraph, args: &str) -> Self {
        use std::io::{BufRead, BufReader};
        let mut child = Command::new("sh")
            .arg("-c")
            .arg(format!(
                "{prelude} exec '{}' serve --graph '{}' --port 0 {args}",
                env!("CARGO_BIN_EXE_emigre"),
                graph.path
            ))
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn the server");
        let stdout = child.stdout.take().unwrap();
        let mut server = Server {
            child,
            addr: String::new(),
        };
        for line in BufReader::new(stdout).lines() {
            let line = line.expect("read stdout");
            if let Some(addr) = line.strip_prefix("emigre-serve listening on ") {
                server.addr = addr.to_owned();
                return server;
            }
        }
        panic!("the server exited before listening");
    }

    /// Sends `raw` on a fresh connection and returns the whole answer.
    fn ask(&self, raw: &str) -> String {
        self.ask_within(raw, std::time::Duration::from_secs(5))
    }

    /// [`Server::ask`], giving up when a read waits longer than `limit`.
    fn ask_within(&self, raw: &str, limit: std::time::Duration) -> String {
        use std::io::{Read, Write};
        let mut conn = std::net::TcpStream::connect(&self.addr).expect("connect");
        conn.set_read_timeout(Some(limit)).unwrap();
        conn.write_all(raw.as_bytes()).unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("an answer");
        response
    }

    /// `POST /shutdown`, then a clean exit.
    fn stop(mut self) {
        self.ask("POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        let status = self.child.wait().expect("server exit");
        assert!(status.success(), "{status:?}");
    }
}

#[cfg(target_os = "linux")]
impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(target_os = "linux")]
const HEALTHZ: &str = "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";

/// The server runs its reactor on the main thread, one control thread and
/// its workers: nothing else without `--event-log`.
#[cfg(target_os = "linux")]
#[test]
fn serve_runs_its_workers_and_two_threads() {
    let graph = DemoGraph::new("threads");
    let server = Server::start("", &graph, "--workers 2");
    // An answered /healthz ran on the control thread, so it has started.
    assert!(server.ask(HEALTHZ).starts_with("HTTP/1.1 200"));
    let tasks = std::fs::read_dir(format!("/proc/{}/task", server.child.id()))
        .expect("list the server's threads")
        .count();
    assert_eq!(tasks, 4, "2 workers + reactor + control thread");
    server.stop();
}

/// A server that runs out of file descriptors neither spins on the failing
/// `accept` nor locks new clients out: it closes its longest-idle
/// connection to answer a fresh one while an idle flood is still held, a
/// `/healthz` and an admitted `POST /explain` alike.
#[cfg(target_os = "linux")]
#[test]
fn descriptor_exhaustion_does_not_spin_the_server() {
    use std::net::TcpStream;
    use std::time::Duration;

    /// User plus system CPU time of `pid`, in clock ticks.
    fn cpu_ticks(pid: u32) -> u64 {
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read stat");
        // Fields after the parenthesised command name: state is the 3rd
        // field overall, utime and stime the 14th and 15th.
        let rest = &stat[stat.rfind(')').expect("comm") + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
    }

    let graph = DemoGraph::new("emfile");
    let server = Server::start("ulimit -n 48;", &graph, "");

    // 80 idle connections against a 48-descriptor limit: once out of
    // descriptors, each accept closes the longest-idle connection.
    let idle: Vec<TcpStream> = (0..80)
        .map(|_| TcpStream::connect(&server.addr).expect("connect"))
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    let pid = server.child.id();
    let before = cpu_ticks(pid);
    std::thread::sleep(Duration::from_secs(1));
    // /proc reports ticks of USER_HZ, 100 per second on Linux.
    let used = cpu_ticks(pid) - before;
    assert!(used < 30, "the server burned {used} ticks of CPU in 1 s");

    // The flood is still held: a fresh client must be answered anyway.
    let asked = std::time::Instant::now();
    let response = server.ask_within(HEALTHZ, Duration::from_secs(2));
    let waited = asked.elapsed();
    assert!(response.starts_with("HTTP/1.1 200"), "{response:?}");
    assert!(waited < Duration::from_secs(2), "/healthz took {waited:?}");

    // So must a read, which the reactor admits to the worker queue.
    let body = r#"{"user":1,"why_not":7}"#;
    let explain = format!(
        "POST /explain HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let asked = std::time::Instant::now();
    let response = server.ask_within(&explain, Duration::from_secs(2));
    let waited = asked.elapsed();
    assert!(response.starts_with("HTTP/1.1 200"), "{response:?}");
    assert!(waited < Duration::from_secs(2), "/explain took {waited:?}");
    drop(idle);
    server.stop();
}
