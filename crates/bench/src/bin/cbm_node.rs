//! `cbm-node` — host a store replica set in one OS process, its
//! replication traffic on a real loopback TCP mesh.
//!
//! ```text
//! cbm-node serve --control HOST:PORT --id N
//! cbm-node run [--workers N] [--objects N] [--ops N] [--mode cc|ccv]
//!              [--batch N|off] [--seed S] [--rf N] [--locality N]
//!              [--read-ratio R] [--remote-read-ratio R]
//!              [--workload register|counter] [--profile NAME] [--monitor]
//! ```
//!
//! **`serve`** is the fleet worker behind `loadgen --procs N`: dial
//! the driver's control listener, announce the id, then execute
//! [`Ctrl::Run`] legs until [`Ctrl::Shutdown`] — or EOF, so a dead
//! driver never leaves orphaned nodes computing. Each leg runs the
//! shared workload generator over the in-process TCP mesh
//! ([`cbm_bench::run_workload`] with [`Transport::Tcp`]), so its
//! deterministic columns reproduce the driver's committed baselines
//! exactly. Flight records never cross the control socket: a leg that
//! wants one (failed verification, escalation, repair/recovery, or
//! `trace` forced in the spec) dumps it node-side into the spec's
//! `trace_dir`.
//!
//! **`run`** is the standalone deployment demo of `docs/DEPLOYMENT.md`:
//! one self-contained process hosting the whole replica set, printing
//! the report summary, exit status non-zero on any verification
//! failure. `--profile` applies a named chaos profile
//! ([`cbm_store::profile`]) — the full fault-injection story works
//! over sockets.

use cbm_bench::cli::{dump_flight_record, Flags, LegFlags};
use cbm_bench::proto::{recv_ctrl, send_ctrl, Ctrl, LegSpec};
use cbm_bench::{run_workload, Transport, Workload};
use cbm_store::profile;
use std::net::TcpStream;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve(Flags::new(args[1..].to_vec(), "cbm-node: ")),
        Some("run") => run_once(Flags::new(args[1..].to_vec(), "cbm-node: ")),
        Some("--help") | Some("-h") => {
            print_help();
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("cbm-node: expected a subcommand (serve | run)");
            print_help();
            ExitCode::from(2)
        }
    }
}

fn print_help() {
    println!(
        "cbm-node serve --control HOST:PORT --id N\n\
         cbm-node run [--workers N] [--objects N] [--ops N] [--mode cc|ccv] \
         [--batch N|off] [--seed S] [--rf N] [--locality N] [--read-ratio R] \
         [--remote-read-ratio R] [--workload register|counter] [--profile NAME] [--monitor]"
    );
}

/// Execute one leg and report node-side: run over the TCP mesh, dump
/// the flight record if the leg wants one, strip it, log one line.
///
/// A durable leg's `log_dir` is rewritten to a `node-{id}`
/// subdirectory first: the driver may dispatch the same spec to
/// several nodes (retries, future replication across nodes), and
/// epoch logs are single-writer files — two processes must never
/// share one (`docs/DURABILITY.md`).
fn execute(id: usize, spec: &LegSpec) -> cbm_store::StoreReport {
    let mut cfg = spec.cfg.clone();
    if let Some(base) = &cfg.durable.log_dir {
        let dir = std::path::Path::new(base).join(format!("node-{id}"));
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!(
                "cbm-node[{id}] {}: cannot create log dir {}: {e} — logging disabled",
                spec.name,
                dir.display()
            );
            cfg.durable.log_dir = None;
        } else {
            cfg.durable.log_dir = Some(dir.to_string_lossy().into_owned());
        }
    }
    let mut report = run_workload(&spec.workload, &cfg, Transport::Tcp);
    eprintln!(
        "cbm-node[{id}] {}: {:.0} ops/s, {} msgs, {} windows ({} failed)",
        spec.name,
        report.ops_per_sec,
        report.msgs_sent,
        report.windows.len(),
        report.windows_failed
    );
    dump_flight_record(
        &spec.name,
        &report,
        spec.trace,
        &spec.trace_dir,
        &format!("cbm-node[{id}] "),
    );
    report.trace = None; // never crosses the control socket
    report
}

fn serve(mut flags: Flags) -> ExitCode {
    let mut control: Option<String> = None;
    let mut id: usize = 0;
    while let Some(a) = flags.next() {
        match a.as_str() {
            "--control" => control = flags.next(),
            "--id" => id = flags.value(&a, "a number"),
            other => flags.unknown(other),
        }
    }
    let Some(addr) = control else {
        eprintln!("cbm-node serve: --control HOST:PORT is required");
        return ExitCode::from(2);
    };
    let mut stream = match TcpStream::connect(&addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cbm-node[{id}]: cannot reach driver at {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let _ = stream.set_nodelay(true);
    if let Err(e) = send_ctrl(&mut stream, &Ctrl::Hello(id as u32)) {
        eprintln!("cbm-node[{id}]: hello failed: {e}");
        return ExitCode::FAILURE;
    }
    loop {
        match recv_ctrl(&mut stream) {
            Ok(Some(Ctrl::Run(spec))) => {
                let report = execute(id, &spec);
                if let Err(e) = send_ctrl(&mut stream, &Ctrl::Report(Box::new(report))) {
                    eprintln!("cbm-node[{id}]: report send failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
            Ok(Some(Ctrl::Shutdown)) | Ok(None) => return ExitCode::SUCCESS,
            Ok(Some(other)) => {
                let _ = send_ctrl(
                    &mut stream,
                    &Ctrl::Error(format!("unexpected control message {other:?}")),
                );
            }
            Err(e) => {
                // a dying driver must not leave this node computing
                eprintln!("cbm-node[{id}]: control stream lost: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
}

fn run_once(mut flags: Flags) -> ExitCode {
    let mut leg = LegFlags::default();
    let mut counter = false;
    let mut monitor = false;
    let mut profile_name: Option<String> = None;
    while let Some(a) = flags.next() {
        match a.as_str() {
            "--workload" => {
                counter = flags.parsed(&a, "register or counter", |w| match w {
                    "register" => Some(false),
                    "counter" => Some(true),
                    _ => None,
                })
            }
            "--profile" => profile_name = Some(flags.value(&a, "a chaos profile name")),
            "--monitor" => monitor = true,
            other if leg.parse(other, &mut flags) => {}
            other => flags.unknown(other),
        }
    }
    let (mut cfg, mut workload) = leg.finish();
    cfg.verify.monitor = monitor;
    if counter {
        workload = Workload::Counter;
    }
    if let Some(name) = &profile_name {
        match profile(name, cfg.workers, cfg.verify.every_ops) {
            Some(plan) => cfg.chaos = plan,
            None => {
                eprintln!(
                    "cbm-node: unknown chaos profile '{name}' (known: {})",
                    cbm_store::PROFILE_NAMES.join(", ")
                );
                return ExitCode::from(2);
            }
        }
    }
    let r = run_workload(&workload, &cfg, Transport::Tcp);
    println!(
        "cbm-node: {} workers over TCP, {} ops, {:.0} ops/s, {} msgs, \
         {} windows ({} failed), drains converged: {}",
        cfg.workers,
        r.total_ops,
        r.ops_per_sec,
        r.msgs_sent,
        r.windows.len(),
        r.windows_failed,
        r.drains_converged
    );
    if r.monitor.enabled {
        println!(
            "cbm-node: monitor certified {}/{} ops, {} escalation(s), {} violation(s)",
            r.monitor.ops_checked, r.total_ops, r.monitor.escalations, r.monitor.violations
        );
    }
    if r.verified() && (!r.monitor.enabled || r.monitor.certified(r.total_ops)) {
        ExitCode::SUCCESS
    } else {
        eprintln!("cbm-node: verification FAILED");
        ExitCode::FAILURE
    }
}
