//! ppr_flat_bench's overhead gates. A `--scale` run measures no CHECK, so
//! it reports both overheads as `n/a`, never `-inf`, and an overhead gate
//! asked of it fails instead of passing with nothing measured. The runs
//! use a 2,000-node scale leg to stay quick in debug builds.

use std::process::{Command, Output};

fn run(name: &str, args: &[&str]) -> (Output, String, String) {
    let out = std::env::temp_dir().join(format!(
        "ppr-flat-bench-cli-{}-{name}.json",
        std::process::id()
    ));
    let output = Command::new(env!("CARGO_BIN_EXE_ppr_flat_bench"))
        .arg(&out)
        .args(args)
        .output()
        .expect("ppr_flat_bench runs");
    let _ = std::fs::remove_file(&out);
    let stdout = String::from_utf8(output.stdout.clone()).expect("stdout is UTF-8");
    let stderr = String::from_utf8(output.stderr.clone()).expect("stderr is UTF-8");
    assert!(!stdout.contains("-inf"), "{args:?} printed -inf:\n{stdout}");
    (output, stdout, stderr)
}

#[test]
fn an_overhead_gate_on_a_scale_run_fails_unmeasured() {
    let (output, stdout, stderr) =
        run("gate", &["--scale", "2000", "--max-obs-overhead-pct", "25"]);
    assert!(!output.status.success(), "the gate passed:\n{stdout}");
    assert!(
        stderr.contains("--max-obs-overhead-pct") && stderr.contains("no CHECK was measured"),
        "{stderr}"
    );
}

#[test]
fn a_scale_run_reports_no_check_overhead() {
    let (output, stdout, stderr) = run("scale", &["--scale", "2000"]);
    assert!(output.status.success(), "{stderr}");
    assert!(stdout.contains("scale_reverse_push_x8"), "{stdout}");
    assert!(
        stdout.contains("worst obs-enabled CHECK overhead: n/a (no CHECK measured)"),
        "{stdout}"
    );
}
