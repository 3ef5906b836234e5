//! Drive the live store engine (`cbm-store`) across a workload matrix
//! and emit the committed throughput baseline (`BENCH_throughput.json`).
//!
//! ```text
//! loadgen [--quick] [--out PATH] [--summary PATH] [--baseline PATH]
//!         [--gate PATH] [--trace] [--trace-dir DIR] [--monitor]
//!         [--transport thread|tcp] [--procs N] [--log-dir DIR]
//!         [--workers N] [--objects N] [--ops N] [--read-ratio R]
//!         [--batch N|off] [--mode cc|ccv] [--seed S] [--rf N]
//!         [--locality N] [--remote-read-ratio R]
//! ```
//!
//! `--log-dir DIR` turns the per-worker durable epoch log on for every
//! leg (`docs/DURABILITY.md`), one subdirectory per leg. The log is
//! pure write-path — no messages, no ops — so the deterministic
//! columns are unchanged and the same `--gate` baselines hold; this is
//! what the `durability-smoke` CI job gates on.
//!
//! `--transport tcp` runs every leg's replica mesh over real loopback
//! sockets ([`cbm_net::tcp`]) instead of in-process channels. The
//! deterministic columns are transport-independent (the flush-marker
//! cut protocol pins the quiesce decision, `docs/DEPLOYMENT.md`), so
//! the same committed `--gate` baselines gate both transports — the
//! `socket-smoke` CI job holds that equivalence on every push.
//!
//! `--procs N` goes one step further: spawn `N` `cbm-node` worker
//! *processes* on loopback, dispatch the matrix legs across them over
//! a control socket (`cbm_bench::proto`), and collect their reports
//! into the same JSON/summary/gate paths. Each node hosts a full
//! replica set over its own TCP mesh, so every leg's counts stay a
//! pure function of `(config, seed)` while the matrix parallelises
//! across processes. Flight records are dumped node-side into
//! `--trace-dir` (same filesystem on a loopback fleet).
//!
//! `--trace` turns on the `cbm-obs` flight recorder for every leg and
//! dumps each leg's trace into `--trace-dir` (default `traces/`) as
//! both `<leg>.trace.json` (Chrome/Perfetto) and `<leg>.jsonl` (the
//! byte-comparable logical timeline; see `docs/OBSERVABILITY.md`).
//! Even without `--trace`, a leg that fails verification, escalates a
//! monitor suspicion, or needed repair/recovery dumps its flight
//! record automatically whenever the engine recorded one — the
//! `monitor-smoke` CI job uploads exactly those dumps. Tracing never
//! changes the deterministic message/byte counts, so `--trace`
//! composes with `--gate`.
//!
//! `--summary` appends a markdown table (one row per leg, with the
//! committed baseline's deterministic message count alongside when
//! `--baseline` names a readable throughput JSON) — CI points it at
//! `$GITHUB_STEP_SUMMARY` so regressions are readable without
//! downloading artifacts. Leg names key the lookup, so pass the
//! baseline generated from the **same matrix**: the committed
//! `BENCH_throughput_quick.json` for `--quick` runs,
//! `BENCH_throughput.json` for full runs.
//!
//! With no workload flags, runs the **fixed matrix** (threads ×
//! objects × read-ratio × batching × mode) and writes one JSON
//! document (by default the committed baseline it corresponds to);
//! passing any workload flag runs that single `custom` configuration
//! instead, which writes a document only to an explicit `--out`. The
//! workload flags are parsed by [`cbm_bench::cli::LegFlags`], shared
//! with `cbm-node run`. Two consumers:
//!
//! * **the perf trajectory** — the matrix output is committed at the
//!   repo root as `BENCH_throughput.json`, the second axis next to
//!   `BENCH_checker.json`: future PRs regenerate it on the same
//!   machine and diff ops/sec, latency percentiles, and message
//!   counts. Message/batch/payload counts are **deterministic**
//!   (rendezvous points are operation-counted, not timed), so those
//!   columns diff exactly; wall-clock columns are machine-dependent.
//! * **CI `throughput-smoke`** — runs `loadgen --quick` and fails on a
//!   panic or on any failed sampled-window verification; wall times
//!   never gate CI.
//!
//! `--gate` turns the committed baseline into a **hard deterministic
//! gate**: every leg's `msgs_sent`, `batches_sent`, and
//! `payloads_sent` must reproduce the baseline's values exactly (they
//! are pure functions of config and seed — any deviation is a
//! behavioural change of the delivery path, not noise). Byte totals
//! are *not* gated: delta-encoded knowledge headers size by how much
//! changed on an edge since its previous envelope, which depends on
//! delivery interleaving (`docs/SHARDING.md`) — `bytes_sent` stays in
//! the JSON as an informational column. The `sharding-smoke` and
//! `scaling-smoke` CI jobs run the quick matrix under
//! `--gate BENCH_throughput_quick.json`, which pins the full-vs-partial
//! replication traffic win count-for-count.
//!
//! The **scaling axis** (`docs/SCALING.md`): the full matrix carries
//! 64/128/256-worker legs at rf 2 with locality-bounded placement
//! (`--locality`, [`ShardConfig::rf_local`]), whose committed curve is
//! the evidence that delta encoding keeps bytes/op flat-to-falling as
//! the cluster grows; the summary renders it as a bytes/op-vs-workers
//! table.
//!
//! The **monitor axis** (`docs/VERIFICATION.md`): both matrices carry
//! `-mon` twins of selected legs — identical workload with the
//! streaming bad-pattern monitor certifying every operation inline.
//! The monitor never sends messages, so a twin's deterministic counts
//! equal its base leg's and the pair measures pure checking tax —
//! wall-clock and machine-dependent; see "The monitor tax, honestly"
//! in `docs/THROUGHPUT.md`. `monitor_ops_checked` and
//! `monitor_escalations` are deterministic per (config, seed) and join
//! the `--gate` contract. `--monitor` forces the monitor on for every
//! leg of the run (or for the single `custom` leg), for ad-hoc
//! certification sweeps.
//!
//! Exit status: non-zero iff any leg reports a failed window, a
//! drain-point divergence (convergent mode), an uncertified op or
//! monitor-confirmed violation on a monitor-enabled leg, or a `--gate`
//! deviation.

use cbm_bench::cli::{list, quote, Flags, JsonDoc, LegFlags};
use cbm_bench::fleet::NodePool;
use cbm_bench::proto::LegSpec;
use cbm_bench::{run_workload, Transport, Workload};
use cbm_store::{
    BatchPolicy, DurableConfig, Mode, ShardConfig, StoreConfig, StoreReport, VerifyConfig,
};
use std::process::ExitCode;

/// One matrix cell.
#[derive(Clone)]
struct Leg {
    name: String,
    cfg: StoreConfig,
    workload: Workload,
}

/// A matrix leg. Its name spells out its shape —
/// `{cc|ccv}-{W}w-{O}o-{bK|nobatch}-r{read %}[-rf{N}[-loc{L}]][-quick]`
/// — and is parsed here, so a leg's name (the key its committed
/// baseline row is gated by) can never disagree with what it runs.
/// Not in the name: per-worker `ops`, the verification period `every`,
/// the window length `window`, and the fraction `remote` of reads
/// that target an arbitrary object (and so may route to a remote
/// replica under partial replication; the rest read objects the
/// issuing worker hosts).
fn leg(name: &str, ops: usize, every: usize, window: usize, remote: f64) -> Leg {
    let mut cfg = StoreConfig {
        ops_per_worker: ops,
        verify: VerifyConfig {
            every_ops: every,
            window_ops: window,
            ..VerifyConfig::default()
        },
        seed: 42,
        ..StoreConfig::default()
    };
    let mut read_ratio = None;
    for part in name.split('-') {
        let tag: String = part.chars().filter(char::is_ascii_alphabetic).collect();
        let n: usize = part
            .trim_matches(|c: char| c.is_ascii_alphabetic())
            .parse()
            .unwrap_or(0);
        match tag.as_str() {
            "cc" => cfg.mode = Mode::Causal,
            "ccv" => cfg.mode = Mode::Convergent,
            "w" => cfg.workers = n,
            "o" => cfg.objects = n,
            "b" => cfg.batch = BatchPolicy::Every(n),
            "nobatch" => cfg.batch = BatchPolicy::Off,
            "r" => read_ratio = Some(n as f64 / 100.0),
            "rf" => cfg.sharding = ShardConfig::rf(n),
            "loc" => cfg.sharding.locality = n,
            "quick" => {}
            _ => panic!("leg name {name}: unknown part '{part}'"),
        }
    }
    Leg {
        name: name.to_string(),
        cfg,
        workload: Workload::Register {
            read_ratio: read_ratio.expect("leg name has a read ratio"),
            remote_read_ratio: remote,
        },
    }
}

/// The `-mon` twin of a leg: the identical workload with the
/// streaming bad-pattern monitor certifying every op inline
/// (`docs/VERIFICATION.md`). The monitor sends no messages, so the
/// twin's deterministic counts must equal the base leg's — the pair
/// isolates the pure checking tax.
fn monitored(base: &Leg) -> Leg {
    let mut l = base.clone();
    l.name.push_str("-mon");
    l.cfg.verify.monitor = true;
    l
}

/// Append `-mon` twins of the named legs to a matrix.
fn with_monitor_twins(mut legs: Vec<Leg>, names: &[&str]) -> Vec<Leg> {
    let twins: Vec<Leg> = legs
        .iter()
        .filter(|l| names.contains(&l.name.as_str()))
        .map(monitored)
        .collect();
    legs.extend(twins);
    legs
}

/// The committed matrix: the headline 1M-op batched run, its unbatched
/// twin (the ≥5× message-cut comparison), the convergent flavour, and
/// threads / objects / read-ratio sweep legs.
fn full_matrix() -> Vec<Leg> {
    let legs = vec![
        leg("cc-4w-1024o-b32-r50", 250_000, 50_000, 48, 0.0),
        leg("cc-4w-1024o-nobatch-r50", 250_000, 50_000, 48, 0.0),
        leg("ccv-4w-1024o-b32-r50", 250_000, 50_000, 48, 0.0),
        leg("cc-2w-1024o-b32-r50", 250_000, 50_000, 48, 0.0),
        leg("cc-8w-1024o-b32-r50", 125_000, 25_000, 48, 0.0),
        leg("cc-4w-64o-b32-r50", 250_000, 50_000, 48, 0.0),
        leg("cc-4w-1024o-b32-r90", 250_000, 50_000, 48, 0.0),
        // the partial-replication axis: same workload shape as the
        // 8-worker full-replication leg, at rf 2 and rf 4, with 1% of
        // reads allowed to roam (exercising the request/reply path
        // without letting it dominate the traffic comparison)
        leg("cc-8w-1024o-b32-r50-rf2", 125_000, 25_000, 48, 0.01),
        leg("cc-8w-1024o-b32-r50-rf4", 125_000, 25_000, 48, 0.01),
        leg("ccv-8w-1024o-b32-r50-rf2", 125_000, 25_000, 48, 0.01),
        // the cluster-scaling axis (docs/SCALING.md): rf 2 with an
        // 8-worker aligned locality block, 64 -> 128 -> 256 workers at
        // a shrinking per-worker op count (the committed curve is
        // about bytes/op, which is per-op — not about wall time on an
        // oversubscribed runner). Roaming reads are rarer than on the
        // 8-worker rf legs (0.2% vs 1%) because a locality-placed
        // deployment is exactly one where clients read their own
        // block; the legs still route a few hundred cross-block reads
        // each, so the read-routing path stays exercised at every
        // cluster size. The curve these legs commit is the acceptance
        // evidence that delta-encoded metadata keeps bytes/op
        // flat-to-falling as the cluster grows.
        leg("cc-64w-1024o-b32-r50-rf2-loc8", 8_000, 4_000, 24, 0.002),
        leg("cc-128w-1024o-b32-r50-rf2-loc8", 4_000, 2_000, 24, 0.002),
        leg("cc-256w-1024o-b32-r50-rf2-loc8", 2_000, 1_000, 24, 0.002),
    ];
    // The monitor axis: the 1M-op 8-worker headline tax comparison,
    // the convergent flavour, and the rf-2 partial-replication leg
    // where served routed reads are certified on the serving side.
    with_monitor_twins(
        legs,
        &[
            "cc-8w-1024o-b32-r50",
            "ccv-4w-1024o-b32-r50",
            "cc-8w-1024o-b32-r50-rf2",
        ],
    )
}

/// CI smoke matrix: small enough for a debug-capable runner, still one
/// leg per mode plus the unbatched comparison.
fn quick_matrix() -> Vec<Leg> {
    let legs = vec![
        leg("cc-4w-64o-b8-r50-quick", 4_000, 1_000, 24, 0.0),
        leg("cc-4w-64o-nobatch-r50-quick", 4_000, 1_000, 24, 0.0),
        leg("ccv-4w-64o-b8-r50-quick", 4_000, 1_000, 24, 0.0),
        // rf ∈ {1, 2}: the sharding-smoke axis (5% roaming reads keep
        // the routed-read path exercised in CI every run)
        leg("cc-4w-64o-b8-r50-rf1-quick", 4_000, 1_000, 24, 0.05),
        leg("cc-4w-64o-b8-r50-rf2-quick", 4_000, 1_000, 24, 0.05),
        leg("ccv-4w-64o-b8-r50-rf2-quick", 4_000, 1_000, 24, 0.05),
        // the scaling-smoke cell: 64 workers, rf 2, locality 8 — keeps
        // the large-cluster delivery path (wide interest masks,
        // locality placement, delta headers over many edges) under the
        // exact-count gate on every push
        leg("cc-64w-256o-b8-r50-rf2-loc8-quick", 1_000, 500, 16, 0.05),
    ];
    // the monitor-smoke cells: one per mode plus the rf-2 routed-read
    // flavour, gated on exact certified-op and escalation counts
    with_monitor_twins(
        legs,
        &[
            "cc-4w-64o-b8-r50-quick",
            "ccv-4w-64o-b8-r50-quick",
            "cc-4w-64o-b8-r50-rf2-quick",
        ],
    )
}

fn main() -> ExitCode {
    let mut flags = Flags::from_env();
    let mut quick = false;
    let mut out_path: Option<String> = None;
    let mut summary_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut gate_path: Option<String> = None;
    let mut trace = false;
    let mut trace_dir = String::from("traces");
    let mut force_monitor = false;
    let mut transport = Transport::Thread;
    let mut procs: usize = 0;
    let mut log_dir: Option<String> = None;
    let mut custom = LegFlags::default();

    while let Some(a) = flags.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = Some(flags.value(&a, "a path")),
            "--summary" => summary_path = Some(flags.value(&a, "a path")),
            "--baseline" => baseline_path = Some(flags.value(&a, "a path")),
            "--gate" => gate_path = Some(flags.value(&a, "a baseline path")),
            "--trace" => trace = true,
            "--monitor" => force_monitor = true,
            "--log-dir" => log_dir = Some(flags.value(&a, "a path")),
            "--transport" => transport = flags.parsed(&a, "thread or tcp", Transport::parse),
            "--procs" => {
                procs = flags.parsed(&a, "a positive node count", |v| {
                    v.parse().ok().filter(|&n| n > 0)
                })
            }
            "--trace-dir" => trace_dir = flags.value(&a, "a path"),
            "--help" | "-h" => {
                println!(
                    "loadgen [--quick] [--out PATH] [--summary PATH] [--baseline PATH] \
                     [--gate PATH] [--trace] [--trace-dir DIR] [--monitor] [--log-dir DIR] \
                     [--transport thread|tcp] [--procs N] [--workers N] \
                     [--objects N] [--ops N] [--read-ratio R] [--batch N|off] [--mode cc|ccv] \
                     [--seed S] [--rf N] [--locality N] [--remote-read-ratio R]"
                );
                return ExitCode::SUCCESS;
            }
            other if custom.parse(other, &mut flags) => {}
            other => flags.unknown(other),
        }
    }

    let is_custom = custom.given;
    let mut legs: Vec<Leg> = if is_custom {
        let (cfg, workload) = custom.finish();
        vec![Leg {
            name: "custom".into(),
            cfg,
            workload,
        }]
    } else if quick {
        quick_matrix()
    } else {
        full_matrix()
    };
    if trace {
        for l in &mut legs {
            l.cfg.obs.trace = true;
        }
    }
    if force_monitor {
        for l in &mut legs {
            l.cfg.verify.monitor = true;
        }
    }
    // --log-dir turns the durable epoch log on for every leg (one
    // subdirectory each — legs must never share logs). Logging is
    // write-path only here: it sends no messages and issues no ops,
    // so every deterministic column stays equal to the memory-only
    // run's and the same committed `--gate` baselines keep gating
    // (`docs/DURABILITY.md`). Wall-clock columns absorb the fsyncs.
    if let Some(base) = &log_dir {
        for l in &mut legs {
            let dir = std::path::Path::new(base).join(&l.name);
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!("could not create --log-dir {}: {e}", dir.display());
                return ExitCode::from(2);
            }
            l.cfg.durable = DurableConfig {
                log_dir: Some(dir.to_string_lossy().into_owned()),
                ..DurableConfig::default()
            };
        }
    }

    // Load the gate baseline *before* any leg runs: a missing or
    // unparsable baseline is an operator error that must fail fast
    // with a clean message and exit 2 — never a post-run surprise and
    // never a panic.
    let gate: Option<(String, std::collections::HashMap<String, GateCounts>)> = match gate_path {
        None => None,
        Some(path) => match std::fs::read_to_string(&path) {
            Err(e) => {
                eprintln!("loadgen: cannot read gate baseline {path}: {e}");
                return ExitCode::from(2);
            }
            Ok(text) => {
                let baseline = parse_baseline_counts(&text);
                if baseline.is_empty() {
                    eprintln!(
                        "loadgen: gate baseline {path} contains no legs — \
                         not a cbm-throughput document?"
                    );
                    return ExitCode::from(2);
                }
                Some((path, baseline))
            }
        },
    };

    let reports: Vec<(Leg, StoreReport)> = if procs > 0 {
        // Multi-process mode: every leg runs in a cbm-node worker
        // process (over its own in-process TCP mesh); the driver only
        // dispatches specs and collects reports.
        let specs: Vec<LegSpec> = legs
            .iter()
            .map(|l| LegSpec {
                name: l.name.clone(),
                cfg: l.cfg.clone(),
                workload: l.workload.clone(),
                trace,
                trace_dir: trace_dir.clone(),
            })
            .collect();
        eprintln!(
            "fleet: spawning {procs} cbm-node process(es) for {} leg(s)",
            specs.len()
        );
        let mut pool = match NodePool::spawn(procs) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("loadgen: cannot spawn the node fleet: {e}");
                return ExitCode::FAILURE;
            }
        };
        let collected = match pool.run_batch(&specs) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("loadgen: fleet run failed: {e}");
                pool.shutdown();
                return ExitCode::FAILURE;
            }
        };
        let killed = pool.shutdown();
        if killed > 0 {
            eprintln!("loadgen: {killed} node(s) had to be killed at shutdown");
        }
        legs.iter().cloned().zip(collected).collect()
    } else {
        let mut out: Vec<(Leg, StoreReport)> = Vec::new();
        for l in &legs {
            eprint!("{} [{}] ... ", l.name, transport.name());
            let r = run_workload(&l.workload, &l.cfg, transport);
            eprintln!(
                "{:.0} ops/s, p50 {} ns, p99 {} ns, {} msgs, mean batch {:.1}, \
                 {} windows ({} failed)",
                r.ops_per_sec,
                r.latency.p50_ns,
                r.latency.p99_ns,
                r.msgs_sent,
                r.mean_batch,
                r.windows.len(),
                r.windows_failed
            );
            out.push((l.clone(), r));
        }
        out
    };

    let failures = reports
        .iter()
        .filter(|(l, r)| cbm_bench::cli::post_mortem(&l.name, r, trace, &trace_dir))
        .count();

    // the fixed matrices default to the committed baseline they
    // correspond to (so a `--quick` gate run can't clobber the full
    // one); a custom leg writes a document only when asked to
    let out_path = out_path.or_else(|| {
        let default = if quick {
            "BENCH_throughput_quick.json"
        } else {
            "BENCH_throughput.json"
        };
        (!is_custom).then(|| default.to_string())
    });
    if let Some(out_path) = out_path {
        let json = render_json(quick, is_custom, &reports);
        if let Err(e) = std::fs::write(&out_path, &json) {
            eprintln!("could not write {out_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {out_path} ({} legs)", reports.len());
    }

    if let Some(path) = summary_path {
        let baseline = baseline_path
            .as_deref()
            .and_then(|p| std::fs::read_to_string(p).ok())
            .map(|s| parse_baseline_counts(&s))
            .unwrap_or_default();
        if let Err(e) = append_summary(&path, quick, &reports, &baseline) {
            eprintln!("could not write summary {path}: {e}");
        }
    }

    let mut gate_failures = 0usize;
    if let Some((path, baseline)) = &gate {
        for (l, r) in &reports {
            match baseline.get(&l.name) {
                None => {
                    eprintln!(
                        "GATE {}: leg missing from {path} — regenerate the \
                         committed baseline",
                        l.name
                    );
                    gate_failures += 1;
                }
                Some(base) => {
                    let mut deviations: Vec<String> = Vec::new();
                    let mut check = |col: &str, got: u64, want: Option<u64>| {
                        if let Some(w) = want {
                            if got != w {
                                deviations.push(format!("{col} {got} (baseline {w})"));
                            }
                        }
                    };
                    check("msgs", r.msgs_sent, base.msgs);
                    check("batches", r.batches_sent, base.batches);
                    check("payloads", r.payloads_sent, base.payloads);
                    // escalation behaviour is part of the
                    // determinism contract: same (config,
                    // seed) => same certified-op and
                    // escalation counts. Exception: --monitor
                    // forcing the monitor onto a leg whose
                    // baseline recorded it off (mon_ops == 0)
                    // makes the columns incomparable — the
                    // monitor-smoke job pins those legs by
                    // diffing two forced runs instead, and
                    // the uncertified-leg failure still
                    // applies.
                    if !(force_monitor && base.mon_ops == Some(0)) {
                        check("monitor_ops_checked", r.monitor.ops_checked, base.mon_ops);
                        check("monitor_escalations", r.monitor.escalations, base.mon_esc);
                    }
                    if !deviations.is_empty() {
                        eprintln!(
                            "GATE {}: deterministic counts deviate from {path}: {}",
                            l.name,
                            deviations.join(", ")
                        );
                        gate_failures += 1;
                    }
                }
            }
        }
        if gate_failures == 0 {
            println!(
                "gate: {} leg(s) reproduce {} exactly \
                 (msgs + batches + payloads + monitor counters; bytes \
                 are interleaving-dependent and not gated)",
                reports.len(),
                path
            );
        }
    }

    if failures > 0 || gate_failures > 0 {
        eprintln!(
            "loadgen: {failures} leg(s) failed verification, \
             {gate_failures} deterministic gate deviation(s)"
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// One leg's gated deterministic counts from a committed baseline.
/// `bytes_sent` is deliberately absent — delta headers make byte
/// totals interleaving-dependent. The monitor columns are optional so
/// pre-monitor baselines still parse (they then simply don't gate the
/// monitor counters).
#[derive(Default, Clone, Copy)]
struct GateCounts {
    msgs: Option<u64>,
    batches: Option<u64>,
    payloads: Option<u64>,
    mon_ops: Option<u64>,
    mon_esc: Option<u64>,
}

/// Extract `name -> GateCounts` from a committed baseline document
/// (one field per line; see `cbm_bench::field_str`).
fn parse_baseline_counts(json: &str) -> std::collections::HashMap<String, GateCounts> {
    let mut legs: Vec<(String, GateCounts)> = Vec::new();
    for line in json.lines() {
        if let Some(name) = cbm_bench::field_str(line, "name") {
            legs.push((name, GateCounts::default()));
        } else if let Some((_, c)) = legs.last_mut() {
            for (key, slot) in [
                ("msgs_sent", &mut c.msgs),
                ("batches_sent", &mut c.batches),
                ("payloads_sent", &mut c.payloads),
                ("monitor_ops_checked", &mut c.mon_ops),
                ("monitor_escalations", &mut c.mon_esc),
            ] {
                if let Some(v) = cbm_bench::field_u64(line, key) {
                    *slot = Some(v);
                }
            }
        }
    }
    legs.into_iter().collect()
}

/// Append a GitHub Actions job-summary markdown table.
fn append_summary(
    path: &str,
    quick: bool,
    reports: &[(Leg, StoreReport)],
    baseline: &std::collections::HashMap<String, GateCounts>,
) -> std::io::Result<()> {
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|(l, r)| {
            vec![
                l.name.clone(),
                l.cfg.mode.criterion().to_string(),
                l.cfg.workers.to_string(),
                if l.cfg.sharding.replication == 0 {
                    "full".into()
                } else {
                    l.cfg.sharding.replication.to_string()
                },
                format!("{:.0}", r.ops_per_sec),
                r.latency.p50_ns.to_string(),
                r.latency.p99_ns.to_string(),
                r.msgs_sent.to_string(),
                baseline
                    .get(&l.name)
                    .and_then(|c| c.msgs)
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "—".into()),
                r.remote_reads.to_string(),
                format!("{:.1}", r.mean_batch),
                format!("{}/{}", r.windows.len() - r.windows_failed, r.windows.len()),
            ]
        })
        .collect();
    cbm_bench::append_summary_table(
        path,
        &format!(
            "Throughput smoke ({})",
            if quick { "quick" } else { "full" }
        ),
        &[
            "leg",
            "mode",
            "workers",
            "rf",
            "ops/s",
            "p50 ns",
            "p99 ns",
            "msgs",
            "baseline msgs",
            "remote reads",
            "mean batch",
            "windows",
        ],
        &rows,
    )?;

    // The scaling curve (docs/SCALING.md): bytes/op vs cluster size
    // for the partial-replication legs. bytes/op is informational
    // (delta headers are interleaving-dependent) but stable to within
    // a fraction of a percent; the deterministic msgs/op column
    // travels alongside it.
    let mut scaling_rows: Vec<Vec<String>> = reports
        .iter()
        .filter(|(l, _)| l.cfg.sharding.replication > 0)
        .map(|(l, r)| {
            vec![
                l.name.clone(),
                l.cfg.workers.to_string(),
                l.cfg.sharding.replication.to_string(),
                l.cfg.sharding.locality.to_string(),
                r.msgs_sent.to_string(),
                r.bytes_sent.to_string(),
                format!("{:.2}", r.msgs_sent as f64 / r.total_ops as f64),
                format!("{:.1}", r.bytes_sent as f64 / r.total_ops as f64),
            ]
        })
        .collect();
    scaling_rows.sort_by_key(|row| row[1].parse::<usize>().unwrap_or(0));
    if !scaling_rows.is_empty() {
        cbm_bench::append_summary_table(
            path,
            "Scaling: bytes/op vs workers (rf legs)",
            &[
                "leg", "workers", "rf", "locality", "msgs", "bytes", "msgs/op", "bytes/op",
            ],
            &scaling_rows,
        )?;
    }

    // Monitor certification (docs/VERIFICATION.md): certified-op
    // coverage and escalation counts are deterministic; the overhead
    // column compares each `-mon` twin against its monitor-off base
    // leg from the same run (wall-clock, so machine-dependent — see
    // "The monitor tax, honestly" in docs/THROUGHPUT.md for how to
    // read it, especially on single-core runners).
    let monitor_rows: Vec<Vec<String>> = reports
        .iter()
        .filter(|(_, r)| r.monitor.enabled)
        .map(|(l, r)| {
            let base_ops = l
                .name
                .strip_suffix("-mon")
                .and_then(|base| reports.iter().find(|(b, _)| b.name == base))
                .map(|(_, b)| b.ops_per_sec);
            vec![
                l.name.clone(),
                format!(
                    "{}/{} ({:.1}%)",
                    r.monitor.ops_checked,
                    r.total_ops,
                    100.0 * r.monitor.ops_checked as f64 / (r.total_ops.max(1)) as f64
                ),
                r.monitor.escalations.to_string(),
                r.monitor.violations.to_string(),
                format!("{:.0}", r.ops_per_sec),
                base_ops
                    .map(|b| format!("{:.1}%", 100.0 * (1.0 - r.ops_per_sec / b)))
                    .unwrap_or_else(|| "—".into()),
                if r.monitor.certified(r.total_ops) {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]
        })
        .collect();
    if !monitor_rows.is_empty() {
        cbm_bench::append_summary_table(
            path,
            "Monitor certification (streaming bad-pattern checker)",
            &[
                "leg",
                "ops certified",
                "escalations",
                "violations",
                "ops/s",
                "overhead vs base",
                "certified",
            ],
            &monitor_rows,
        )?;
    }

    // Per-epoch dashboard: every column deterministic per
    // (config, seed), so this table diffs exactly across reruns.
    let mut epoch_rows: Vec<Vec<String>> = Vec::new();
    for (l, r) in reports {
        for e in &r.epochs {
            let mut row = vec![l.name.clone()];
            row.extend(cbm_bench::epoch_row(e));
            epoch_rows.push(row);
        }
    }
    let mut columns: Vec<&str> = vec!["leg"];
    columns.extend(cbm_bench::EPOCH_COLUMNS);
    cbm_bench::append_summary_table(path, "Per-epoch activity", &columns, &epoch_rows)
}

/// The throughput document (the workspace has no JSON crate; the
/// explicit schema doubles as documentation).
fn render_json(quick: bool, custom: bool, reports: &[(Leg, StoreReport)]) -> String {
    let mut d = JsonDoc::default();
    d.field("schema", quote("cbm-throughput-v1"))
        .field("quick", quick)
        .field("custom", custom)
        // bytes_sent is informational, not deterministic: delta-encoded
        // knowledge headers depend on delivery interleaving
        .field(
            "deterministic_columns",
            list(
                [
                    "total_ops",
                    "msgs_sent",
                    "batches_sent",
                    "payloads_sent",
                    "mean_batch",
                    "remote_reads",
                    "windows",
                    "monitor_ops_checked",
                    "monitor_escalations",
                ]
                .map(quote),
            ),
        )
        .array("legs");
    for (l, r) in reports {
        let Workload::Register {
            read_ratio,
            remote_read_ratio,
        } = l.workload
        else {
            unreachable!("loadgen legs run the register workload")
        };
        let batch = match l.cfg.batch {
            BatchPolicy::Off => quote("off"),
            BatchPolicy::Every(k) => k.to_string(),
        };
        d.object()
            .field("name", quote(&l.name))
            .field("mode", quote(l.cfg.mode.criterion()))
            .field("workers", l.cfg.workers)
            .field("objects", l.cfg.objects)
            .field("ops_per_worker", l.cfg.ops_per_worker)
            .field("read_ratio", read_ratio)
            .field("replication", l.cfg.sharding.replication)
            .field("locality", l.cfg.sharding.locality)
            .field("remote_read_ratio", remote_read_ratio)
            .field("batch", batch)
            .field("seed", l.cfg.seed)
            .field("total_ops", r.total_ops)
            .field("wall_ms", r.wall_ns / 1_000_000)
            .field("ops_per_sec", format!("{:.0}", r.ops_per_sec))
            .field("p50_ns", r.latency.p50_ns)
            .field("p99_ns", r.latency.p99_ns)
            .field("max_ns", r.latency.max_ns)
            .field("mean_ns", r.latency.mean_ns)
            .field("msgs_sent", r.msgs_sent)
            .field("bytes_sent", r.bytes_sent)
            .field("batches_sent", r.batches_sent)
            .field("payloads_sent", r.payloads_sent)
            .field("mean_batch", format!("{:.2}", r.mean_batch))
            .field("remote_reads", r.remote_reads)
            .field("monitor", r.monitor.enabled)
            .field("monitor_ops_checked", r.monitor.ops_checked)
            .field("monitor_escalations", r.monitor.escalations)
            .field("monitor_violations", r.monitor.violations)
            .field(
                "monitor_certified",
                r.monitor.enabled && r.monitor.certified(r.total_ops),
            )
            .field("drains_converged", r.drains_converged)
            .field("windows_failed", r.windows_failed)
            .array("windows");
        for w in &r.windows {
            let verdict = match &w.result {
                Ok(()) => quote("ok"),
                Err(e) => quote(e),
            };
            let shard = w
                .shard
                .map(|s| s.to_string())
                .unwrap_or_else(|| "null".into());
            d.inline(&[
                ("window", &w.window),
                ("shard", &shard),
                ("criterion", &quote(w.criterion)),
                ("events", &w.events),
                ("verdict", &verdict),
            ]);
        }
        d.end().end();
    }
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leg_names_spell_out_the_config() {
        let l = leg("ccv-8w-256o-nobatch-r90-rf2-loc4-quick", 100, 50, 16, 0.01);
        let c = &l.cfg;
        assert_eq!((c.mode, c.workers, c.objects), (Mode::Convergent, 8, 256));
        assert_eq!(c.batch, BatchPolicy::Off);
        assert_eq!((c.sharding.replication, c.sharding.locality), (2, 4));
        assert_eq!(
            (c.ops_per_worker, c.verify.every_ops, c.verify.window_ops),
            (100, 50, 16)
        );
        assert_eq!(
            l.workload,
            Workload::Register {
                read_ratio: 0.9,
                remote_read_ratio: 0.01
            }
        );
        // every committed leg name parses
        assert_eq!(full_matrix().len() + quick_matrix().len(), 26);
    }
}
