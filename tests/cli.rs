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
    let cases: [(&[&str], &str); 4] = [
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
