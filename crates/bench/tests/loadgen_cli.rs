//! loadgen's argument check: an unknown flag, `--help` and a
//! non-positive arrival rate all exit 2 with the usage text before any
//! world is built or server spawned, and write no report. Each run names
//! a server binary that does not exist, so none could start anyway.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn assert_rejected(name: &str, args: &[&str], expect: &str) {
    let out = std::env::temp_dir().join(format!("loadgen-cli-{}-{name}.json", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(args)
        .args(["--server-bin", "/nonexistent", "--out"])
        .arg(&out)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("loadgen starts");
    let deadline = Instant::now() + Duration::from_secs(2);
    let status = loop {
        if let Some(status) = child.try_wait().expect("loadgen can be polled") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("loadgen {args:?} was still running after 2 s");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr)
        .expect("stderr is UTF-8");
    assert_eq!(status.code(), Some(2), "loadgen {args:?}: {stderr}");
    assert!(stderr.contains(expect), "loadgen {args:?}: {stderr}");
    assert!(
        stderr.contains("usage: loadgen"),
        "loadgen {args:?}: {stderr}"
    );
    assert!(!out.exists(), "loadgen {args:?} wrote {}", out.display());
}

#[test]
fn a_mistyped_flag_is_a_usage_error() {
    assert_rejected(
        "typo",
        &["--smoke", "--mehtod", "x"],
        "unknown argument --mehtod",
    );
}

#[test]
fn help_prints_the_usage_without_running() {
    assert_rejected("help", &["--help"], "unknown argument --help");
}

#[test]
fn a_zero_arrival_rate_is_a_usage_error() {
    assert_rejected(
        "sweep",
        &["--smoke", "--arrival-sweep", "0"],
        "must be a positive, finite number",
    );
}
