//! Operator errors fail fast and cleanly. A missing or unparsable
//! `--gate` baseline must fail **before** any leg runs, with exit code 2
//! and a clean one-line message — never a panic, and never minutes of
//! legs followed by a post-run surprise. Every driver reports a usage
//! error the same way. And a driver run never leaves files it was not
//! asked for: no overwritten baseline, no scratch logs.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Run binary `exe` with `args` in `dir`.
fn run_in(exe: &str, args: &[&str], dir: &Path) -> Output {
    Command::new(exe)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs")
}

fn loadgen(args: &[&str]) -> Output {
    run_in(
        env!("CARGO_BIN_EXE_loadgen"),
        args,
        Path::new(env!("CARGO_TARGET_TMPDIR")),
    )
}

/// A fresh, empty directory under the test target dir.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_clean_usage_error(out: &Output, expect: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "usage errors exit 2, got {:?} (stderr: {stderr})",
        out.status.code()
    );
    assert!(
        stderr.contains(expect),
        "stderr should explain the problem, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
        "operator errors must not panic: {stderr}"
    );
    // fail-fast contract: no leg ran, so no leg progress line was
    // printed and no output document was written
    assert!(
        !stderr.contains("ops/s"),
        "no leg should have run before the gate check: {stderr}"
    );
}

#[test]
fn missing_gate_baseline_fails_fast_and_cleanly() {
    let out = loadgen(&[
        "--quick",
        "--gate",
        "no-such-baseline.json",
        "--out",
        "unwritten.json",
    ]);
    assert_clean_usage_error(&out, "cannot read gate baseline");
}

#[test]
fn unparsable_gate_baseline_fails_fast_and_cleanly() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let path = std::path::Path::new(dir).join("not-a-baseline.json");
    std::fs::write(&path, "{\"schema\": \"something-else\"}\n").unwrap();
    let out = loadgen(&[
        "--quick",
        "--gate",
        "not-a-baseline.json",
        "--out",
        "unwritten.json",
    ]);
    assert_clean_usage_error(&out, "contains no legs");
}

/// Every driver rejects an unknown flag and a value flag given no
/// value with exit 2 and one line of stderr.
#[test]
fn usage_errors_exit_2_with_one_line() {
    let drivers: [(&str, &[&str], &str); 7] = [
        (env!("CARGO_BIN_EXE_loadgen"), &[], "--workers"),
        (env!("CARGO_BIN_EXE_chaos_loadgen"), &[], "--seeds"),
        (env!("CARGO_BIN_EXE_perf_baseline"), &[], "--out"),
        (env!("CARGO_BIN_EXE_cbm-node"), &["run"], "--workers"),
        (env!("CARGO_BIN_EXE_trace_check"), &[], "--schema"),
        (env!("CARGO_BIN_EXE_scenario_runner"), &["run"], "--seed"),
        (
            env!("CARGO_BIN_EXE_scenario_runner"),
            &["explore"],
            "--threads",
        ),
    ];
    let dir = fresh_dir("usage-errors");
    for (exe, sub, value_flag) in drivers {
        for (last, expect) in [
            ("--bogus", "unknown flag '--bogus'".to_string()),
            (value_flag, format!("{value_flag} needs ")),
        ] {
            let args: Vec<&str> = sub.iter().copied().chain([last]).collect();
            let out = run_in(exe, &args, &dir);
            assert_clean_usage_error(&out, &expect);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                stderr.lines().count(),
                1,
                "{exe} {args:?}: one line of stderr, got: {stderr}"
            );
        }
    }
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "nothing written"
    );
}

/// A custom leg writes no document without `--out`: run from the repo
/// root, it must not replace the committed matrix baseline.
#[test]
fn custom_leg_leaves_committed_baseline_alone() {
    let dir = fresh_dir("custom-leg");
    let sentinel = dir.join("BENCH_throughput.json");
    std::fs::write(&sentinel, "sentinel\n").unwrap();
    let out = run_in(
        env!("CARGO_BIN_EXE_loadgen"),
        &["--workers", "2", "--objects", "8", "--ops", "200"],
        &dir,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "custom leg runs green: {stderr}");
    assert_eq!(std::fs::read_to_string(&sentinel).unwrap(), "sentinel\n");
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "no new files");
}

/// Without `--log-dir` the chaos sweep's durability cells log under
/// `$TMPDIR`; a green sweep removes that scratch directory at exit.
#[test]
fn chaos_sweep_removes_its_scratch_logs() {
    let tmp = fresh_dir("chaos-tmpdir");
    let work = fresh_dir("chaos-work");
    let out = Command::new(env!("CARGO_BIN_EXE_chaos_loadgen"))
        .args(["--quick", "--seeds", "1", "--out", "chaos.json"])
        .env("TMPDIR", &tmp)
        .current_dir(&work)
        .output()
        .expect("chaos_loadgen runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "quick sweep runs green: {stderr}");
    let left: Vec<_> = std::fs::read_dir(&tmp)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert!(left.is_empty(), "scratch logs left behind: {left:?}");
}

/// Every flag `cbm-node --help` lists for `serve` is one `serve`
/// accepts: pointed at an unreachable driver, it fails to connect
/// (exit 1) instead of rejecting the flag (exit 2).
#[test]
fn serve_accepts_every_flag_its_help_lists() {
    let exe = env!("CARGO_BIN_EXE_cbm-node");
    let dir = fresh_dir("serve-help");
    let help = run_in(exe, &["--help"], &dir);
    let help = String::from_utf8_lossy(&help.stdout).into_owned();
    let line = help
        .lines()
        .find(|l| l.starts_with("cbm-node serve"))
        .expect("the help lists serve");
    let words: Vec<&str> = line
        .split_whitespace()
        .map(|w| w.trim_matches(|c| c == '[' || c == ']'))
        .collect();
    let unreachable = "127.0.0.1:1";
    let flags: Vec<(&str, &str)> = words
        .windows(2)
        .filter(|w| w[0].starts_with("--"))
        .map(|w| match w[1] {
            "HOST:PORT" => (w[0], unreachable),
            "N" => (w[0], "0"),
            _ => (w[0], "out"),
        })
        .collect();
    assert!(flags.iter().any(|(f, _)| *f == "--control"), "{line}");
    for (flag, value) in flags {
        let out = run_in(exe, &["serve", "--control", unreachable, flag, value], &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "serve {flag} {value}: listed in --help, so it must parse: {stderr}"
        );
        assert!(stderr.contains("cannot reach driver"), "{stderr}");
    }
}
