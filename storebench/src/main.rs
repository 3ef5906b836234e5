//! The store's benchmark: end-to-end throughput, CPU and op latency of
//! `cbm_store::run` / `run_tcp` on three workloads, plus per-layer
//! costs measured from outside the program (process counters, the
//! engine's report, registry and flight record, and a traced
//! single-threaded replay of the same op stream). See `README.md` in
//! this directory for every metric, its layer and what should move it.
//!
//! ```text
//! cargo run --release --manifest-path storebench/Cargo.toml -- \
//!     --workload cc-mem-r90 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Any failed output check makes the command exit non-zero.

mod probe;
mod replay;

use cbm_adt::register::{RegInput, Register};
use cbm_adt::space::SpaceInput;
use cbm_net::fault::FaultPlan;
use cbm_obs::SpanKind;
use cbm_store::{
    BatchPolicy, DurableConfig, Mode, ObsConfig, ShardConfig, StoreConfig, StoreReport,
    VerifyConfig,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

const WORKERS: usize = 2;
const OBJECTS: usize = 1024;
const BATCH: usize = 32;
/// One op in this many is timed by the generator callback.
const OP_SAMPLE: u64 = 64;
/// Engine calls per run never go below this, whatever `--seconds` is:
/// medians and the exact-count guard need several calls of one seed.
const MIN_REPS: usize = 3;
/// Scratch space for durable logs, inside the working directory.
const TMP_ROOT: &str = ".storebench_tmp";

/// One benchmark workload: a fixed engine configuration and op mix.
pub struct Workload {
    pub name: &'static str,
    pub mode: Mode,
    pub tcp: bool,
    pub disk: bool,
    pub monitor: bool,
    pub read_ratio: f64,
    /// Ops each worker issues in one engine call (about one second).
    pub ops_per_worker: usize,
}

const WORKLOADS: [Workload; 3] = [
    // the local op path: output, op sampling, drain rendezvous
    Workload {
        name: "cc-mem-r90",
        mode: Mode::Causal,
        tcp: false,
        disk: false,
        monitor: false,
        read_ratio: 0.9,
        ops_per_worker: 2_000_000,
    },
    // write-heavy: epoch-log appends and seals, monitor fold, CCv log
    Workload {
        name: "ccv-disk-mon-w80",
        mode: Mode::Convergent,
        tcp: false,
        disk: true,
        monitor: true,
        read_ratio: 0.2,
        ops_per_worker: 300_000,
    },
    // replication over loopback sockets: framing, CRC, reader/writer threads
    Workload {
        name: "cc-tcp-r50",
        mode: Mode::Causal,
        tcp: true,
        disk: false,
        monitor: false,
        read_ratio: 0.5,
        ops_per_worker: 800_000,
    },
];

/// The op generator every engine call and the replay share: a uniform
/// object and a read with probability `read_ratio`, else a write of a
/// random value.
pub fn gen_op(rng: &mut StdRng, read_ratio: f64) -> SpaceInput<RegInput> {
    let obj = rng.gen_range(0u32..OBJECTS as u32);
    if rng.gen_bool(read_ratio) {
        SpaceInput::new(obj, RegInput::Read)
    } else {
        SpaceInput::new(obj, RegInput::Write(rng.gen_range(1u64..1_000_000)))
    }
}

/// The engine configuration of one call.
fn config(w: &Workload, seed: u64, trace: bool, log_dir: Option<&Path>) -> StoreConfig {
    StoreConfig {
        workers: WORKERS,
        objects: OBJECTS,
        ops_per_worker: w.ops_per_worker,
        mode: w.mode,
        batch: BatchPolicy::Every(BATCH),
        verify: VerifyConfig {
            monitor: w.monitor,
            ..VerifyConfig::default()
        },
        seed,
        sharding: ShardConfig::full(),
        chaos: FaultPlan::new(),
        obs: ObsConfig {
            trace,
            ..ObsConfig::default()
        },
        durable: DurableConfig {
            log_dir: log_dir.map(|d| d.to_string_lossy().into_owned()),
            ..DurableConfig::default()
        },
    }
}

/// Per-op service time sampler: op `i` with `i % OP_SAMPLE == 0` is
/// timed from its generator call to the same worker's next generator
/// call. Two clock reads per `OP_SAMPLE` ops; the op index picks the
/// timed set, so it is the same on every run.
struct OpTimer {
    base: Instant,
    start: Vec<AtomicU64>,
    samples: Vec<Vec<AtomicU64>>,
}

impl OpTimer {
    fn new(ops_per_worker: usize) -> Self {
        let slots = ops_per_worker / OP_SAMPLE as usize + 1;
        OpTimer {
            base: Instant::now(),
            start: (0..WORKERS).map(|_| AtomicU64::new(0)).collect(),
            samples: (0..WORKERS)
                .map(|_| (0..slots).map(|_| AtomicU64::new(0)).collect())
                .collect(),
        }
    }

    #[inline]
    fn tick(&self, w: usize, i: u64) {
        match i % OP_SAMPLE {
            0 => self.start[w].store(self.now(), Ordering::Relaxed),
            1 => {
                let d = self.now() - self.start[w].load(Ordering::Relaxed);
                self.samples[w][(i / OP_SAMPLE) as usize].store(d.max(1), Ordering::Relaxed);
            }
            _ => {}
        }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Every recorded sample (an unrecorded slot reads 0).
    fn take(self) -> Vec<u64> {
        self.samples
            .into_iter()
            .flatten()
            .map(AtomicU64::into_inner)
            .filter(|&d| d > 0)
            .collect()
    }
}

/// Counts that are pure functions of (config, seed): every call of one
/// seed must reproduce them exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ExactCounts {
    msgs_sent: u64,
    batches_sent: u64,
    payloads_sent: u64,
    monitor_ops_checked: u64,
    drains: u64,
    durable_write_syscalls: u64,
}

/// One engine call and everything measured around it.
struct Call {
    report: StoreReport,
    call_ns: u64,
    proc: probe::Counters,
    peak_rss_kb: u64,
    op_p50_ns: f64,
    op_p99_ns: f64,
    /// The flight record's drains and lags (traced calls only; the
    /// record itself is dropped so retained memory stays flat).
    spans: Option<TraceSpans>,
    exact: ExactCounts,
    failures: Vec<String>,
}

fn registry(r: &StoreReport, name: &str) -> u64 {
    r.metrics
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, v)| v)
        .unwrap_or_else(|| panic!("engine registry has no {name}"))
}

/// Make a fresh scratch directory under [`TMP_ROOT`].
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let k = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = Path::new(TMP_ROOT).join(format!("{}-{tag}-{k}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create a scratch log directory");
    dir
}

fn remove_dir(dir: &Path) {
    std::fs::remove_dir_all(dir).expect("remove a scratch log directory");
}

/// Run the engine once on `w` (logging to `log_dir` when durable) and
/// check its outputs.
fn call_engine(w: &Workload, seed: u64, trace: bool, log_dir: Option<&Path>) -> Call {
    let cfg = config(w, seed, trace, log_dir);
    let timer = OpTimer::new(w.ops_per_worker);
    let read_ratio = w.read_ratio;
    let gen = |me: usize, i: u64, rng: &mut StdRng| {
        timer.tick(me, i);
        gen_op(rng, read_ratio)
    };

    probe::reset_peak_rss();
    let before = probe::Counters::now();
    let t = Instant::now();
    let mut report = if w.tcp {
        cbm_store::run_tcp(&Register, &cfg, gen)
    } else {
        cbm_store::run(&Register, &cfg, gen)
    };
    let call_ns = t.elapsed().as_nanos() as u64;
    let proc = probe::Counters::now().since(&before);
    let peak_rss_kb = probe::peak_rss_kb();

    let mut failures = Vec::new();
    if !report.verified() {
        failures.push(format!(
            "not verified: {} failed window(s), converged={}, monitor violations={}",
            report.windows_failed, report.drains_converged, report.monitor.violations
        ));
    }
    if report.total_ops != cfg.total_ops() {
        failures.push(format!(
            "total_ops {} != {}",
            report.total_ops,
            cfg.total_ops()
        ));
    }
    if w.monitor && !report.monitor.certified(report.total_ops) {
        failures.push(format!(
            "monitor certified {}/{} ops",
            report.monitor.ops_checked, report.total_ops
        ));
    }
    if w.mode == Mode::Convergent && report.final_state_hashes.windows(2).any(|p| p[0] != p[1]) {
        failures.push(format!(
            "CCv replicas diverged: {:?}",
            report.final_state_hashes
        ));
    }
    let spans = report.trace.take().map(|rec| TraceSpans::of(&rec));
    if let Some(s) = &spans {
        let dropped = registry(&report, "trace_spans_dropped_total");
        if dropped != 0 {
            failures.push(format!("{dropped} trace spans dropped"));
        }
        if s.lags_ns.is_empty() {
            failures.push("no batch_flush/deliver span pairs".into());
        }
        if s.unpaired != 0 {
            failures.push(format!("{} unpaired batch_flush/deliver spans", s.unpaired));
        }
    }
    let exact = ExactCounts {
        msgs_sent: report.msgs_sent,
        batches_sent: report.batches_sent,
        payloads_sent: report.payloads_sent,
        monitor_ops_checked: report.monitor.ops_checked,
        drains: registry(&report, "drains_total"),
        durable_write_syscalls: if w.disk { proc.syscw } else { 0 },
    };
    let mut op_ns = timer.take();
    Call {
        report,
        call_ns,
        proc,
        peak_rss_kb,
        op_p50_ns: quantile(&mut op_ns, 0.50),
        op_p99_ns: quantile(&mut op_ns, 0.99),
        spans,
        exact,
        failures,
    }
}

/// Call the engine until `budget` has passed (at least [`MIN_REPS`]
/// times). The calls' log directories are removed after the last
/// call, so no call's set-up overlaps the unlinking of the previous
/// call's logs.
fn call_for(w: &Workload, seed: u64, trace: bool, budget: Duration) -> Vec<Call> {
    let t = Instant::now();
    let mut calls = Vec::new();
    let mut dirs = Vec::new();
    while calls.len() < MIN_REPS || t.elapsed() < budget {
        let dir = w.disk.then(|| scratch_dir("engine"));
        calls.push(call_engine(w, seed, trace, dir.as_deref()));
        dirs.extend(dir);
    }
    for dir in &dirs {
        remove_dir(dir);
    }
    calls
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Linearly interpolated quantile of an unsorted sample.
fn quantile(v: &mut [u64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of nothing");
    v.sort_unstable();
    let x = q * (v.len() - 1) as f64;
    let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
    v[lo] as f64 + (v[hi] as f64 - v[lo] as f64) * (x - lo as f64)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median over calls of a per-call value.
fn med(calls: &[Call], f: impl Fn(&Call) -> f64) -> f64 {
    median(calls.iter().map(f).collect())
}

fn ops(c: &Call) -> f64 {
    c.report.total_ops as f64
}

fn ops_per_sec(c: &Call) -> f64 {
    ops(c) / (c.report.wall_ns as f64 / 1e9)
}

fn cpu_ns_per_op(c: &Call) -> f64 {
    (c.proc.user_ns + c.proc.sys_ns) as f64 / ops(c)
}

/// Metric name → (value, unit), printed in insertion order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn end_to_end(m: &mut Metrics, calls: &[Call]) {
    m.put("ops_per_sec", med(calls, ops_per_sec), "1/s");
    m.put("cpu_ns_per_op", med(calls, cpu_ns_per_op), "ns");
    m.put("op_p50_ns", med(calls, |c| c.op_p50_ns), "ns");
    m.put("op_p99_ns", med(calls, |c| c.op_p99_ns), "ns");
    // the lower quartile, not the median: on the disk workload a
    // varying share of calls has a 2-5x longer set-up, which made
    // per-run medians bimodal (see README.md)
    let mut setup_ns: Vec<u64> = calls
        .iter()
        .map(|c| c.call_ns - c.report.wall_ns as u64)
        .collect();
    m.put("setup_s", quantile(&mut setup_ns, 0.25) / 1e9, "s");
    m.put(
        "peak_rss_mb",
        med(calls, |c| c.peak_rss_kb as f64 / 1024.0),
        "MB",
    );
}

/// What the traced calls' flight records give: drain durations and
/// the visibility lag of every sampled envelope.
struct TraceSpans {
    drain_ns: Vec<u64>,
    lags_ns: Vec<u64>,
    unpaired: u64,
}

impl TraceSpans {
    /// Pair each `batch_flush` span (sender s, peer r, seq) with its
    /// `deliver` span (worker r, peer s, seq); the engine samples both
    /// halves on the same seq.
    fn of(rec: &cbm_obs::FlightRecord) -> TraceSpans {
        let mut flushes: HashMap<(i64, i64, u64), u64> = HashMap::new();
        for s in rec.of_kind(SpanKind::BatchFlush) {
            flushes.insert((s.worker as i64, s.peer, s.logical), s.wall_ns);
        }
        let mut lags_ns = Vec::new();
        let mut unpaired = 0;
        for d in rec.of_kind(SpanKind::Deliver) {
            match flushes.remove(&(d.peer, d.worker as i64, d.logical)) {
                Some(sent) => lags_ns.push(d.wall_ns.saturating_sub(sent).max(1)),
                None => unpaired += 1,
            }
        }
        TraceSpans {
            drain_ns: rec
                .of_kind(SpanKind::Drain)
                .map(|s| s.dur_ns.max(1))
                .collect(),
            lags_ns,
            unpaired: unpaired + flushes.len() as u64,
        }
    }
}

/// The per-layer metrics: counted untraced calls, traced calls, and
/// the traced replay.
fn per_layer(
    m: &mut Metrics,
    counted: &[Call],
    traced: &[Call],
    rep: &replay::Ledger,
    failed_frac: f64,
) {
    let per_op = |f: fn(&probe::Counters) -> u64| med(counted, |c| f(&c.proc) as f64 / ops(c));
    let reg = |name: &'static str| move |c: &Call| registry(&c.report, name) as f64;
    let exact = counted[0].exact;
    let spans = traced.iter().filter_map(|c| c.spans.as_ref());
    let mut drain_ns: Vec<u64> = spans.clone().flat_map(|s| s.drain_ns.clone()).collect();
    let mut lags_ns: Vec<u64> = spans.clone().flat_map(|s| s.lags_ns.clone()).collect();
    let unpaired: u64 = spans.map(|s| s.unpaired).sum();
    let total_ops = ops(&counted[0]);

    m.put("failed_ops_frac", failed_frac, "frac");

    m.put("objects.output_ns", rep.per_call("objects.output"), "ns");
    m.put("objects.apply_update_ns", rep.apply_update_ns(), "ns");

    m.put("broadcast.push_ns", rep.per_call("broadcast.push"), "ns");
    m.put("broadcast.flush_ns", rep.per_call("broadcast.flush"), "ns");
    m.put(
        "broadcast.on_receive_ns",
        rep.per_call("broadcast.on_receive"),
        "ns",
    );
    m.put("broadcast.msgs_sent", exact.msgs_sent as f64, "count");
    m.put("broadcast.batches_sent", exact.batches_sent as f64, "count");
    m.put(
        "broadcast.payloads_sent",
        exact.payloads_sent as f64,
        "count",
    );
    m.put(
        "broadcast.causal_buffer_peak",
        med(counted, reg("causal_buffer_peak")),
        "count",
    );
    m.put(
        "broadcast.batch_queue_peak",
        med(counted, reg("batch_queue_peak")),
        "count",
    );

    m.put("codec.encode_ns", rep.per_call("codec.encode"), "ns");
    m.put("codec.decode_ns", rep.per_call("codec.decode"), "ns");
    m.put(
        "codec.header_bytes_per_batch",
        med(counted, |c| {
            ratio(
                registry(&c.report, "matrix_header_bytes_total") as f64,
                c.report.batches_sent as f64,
            )
        }),
        "bytes",
    );
    m.put("codec.wire_bytes_per_op", rep.wire_bytes_per_op(), "bytes");

    m.put("tcp.frame_ns", rep.per_call("tcp.frame"), "ns");
    m.put(
        "tcp.decode_frame_ns",
        rep.per_call("tcp.decode_frame"),
        "ns",
    );
    m.put("tcp.out_segs_per_op", per_op(|p| p.tcp_out_segs), "1/op");
    m.put("tcp.in_segs_per_op", per_op(|p| p.tcp_in_segs), "1/op");

    m.put("durable.log_own_ns", rep.per_call("durable.log_own"), "ns");
    m.put(
        "durable.log_batch_ns",
        rep.per_call("durable.log_batch"),
        "ns",
    );
    m.put("durable.seal_us", rep.per_call("durable.seal") / 1e3, "us");
    m.put(
        "durable.write_syscalls_per_op",
        exact.durable_write_syscalls as f64 / total_ops,
        "1/op",
    );
    m.put("durable.log_bytes_per_op", per_op(|p| p.wchar), "bytes");

    m.put("monitor.on_own_ns", rep.per_call("monitor.on_own"), "ns");
    m.put(
        "monitor.on_delivered_ns",
        rep.per_call("monitor.on_delivered"),
        "ns",
    );
    m.put(
        "monitor.engine_ns_per_op",
        med(counted, |c| {
            registry(&c.report, "monitor_ns") as f64 / ops(c)
        }),
        "ns",
    );
    m.put(
        "monitor.ops_checked",
        exact.monitor_ops_checked as f64,
        "count",
    );

    m.put(
        "engine.drain_us_p50",
        quantile(&mut drain_ns, 0.5) / 1e3,
        "us",
    );
    m.put("engine.drains", exact.drains as f64, "count");
    m.put(
        "replication.visibility_lag_p50_us",
        quantile(&mut lags_ns, 0.5) / 1e3,
        "us",
    );
    m.put(
        "replication.visibility_lag_p99_us",
        quantile(&mut lags_ns, 0.99) / 1e3,
        "us",
    );
    m.put("replication.unpaired_spans", unpaired as f64, "count");

    m.put("proc.user_cpu_ns_per_op", per_op(|p| p.user_ns), "ns");
    m.put("proc.sys_cpu_ns_per_op", per_op(|p| p.sys_ns), "ns");
    m.put("proc.vol_csw_per_kop", per_op(|p| p.vol_csw) * 1e3, "1/kop");
    m.put(
        "proc.invol_csw_per_kop",
        per_op(|p| p.invol_csw) * 1e3,
        "1/kop",
    );
    m.put("proc.allocs_per_op", per_op(|p| p.allocs), "1/op");
    m.put(
        "proc.alloc_bytes_per_op",
        per_op(|p| p.alloc_bytes),
        "bytes",
    );

    let cpu = med(counted, cpu_ns_per_op);
    m.put("ledger.clock_read_ns", rep.clock_read_ns, "ns");
    m.put("ledger.replay_ns_per_op", rep.ns_per_op(), "ns");
    m.put("ledger.explained_frac", ratio(rep.ns_per_op(), cpu), "frac");
    m.put(
        "trace.overhead_frac",
        1.0 - ratio(med(traced, ops_per_sec), med(counted, ops_per_sec)),
        "frac",
    );
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("storebench: {e}");
            eprintln!(
                "usage: storebench --workload <{}> --seed N --seconds S [--trace 0|1]",
                WORKLOADS.map(|w| w.name).join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("storebench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let budget = Duration::from_secs(args.seconds.max(1));

    let mut failures: Vec<String> = Vec::new();
    // per-layer runs: untraced calls, then traced calls, both with the
    // allocator counting (so trace.overhead_frac compares like with
    // like), then the single-threaded replay
    let (calls, layers) = if args.trace {
        probe::count_allocs();
        let mut calls = call_for(w, args.seed, false, budget * 2 / 5);
        let n_counted = calls.len();
        calls.extend(call_for(w, args.seed, true, budget * 2 / 5));
        let ledger = replay::run(w, args.seed, &mut failures);
        (calls, Some((n_counted, ledger)))
    } else {
        (call_for(w, args.seed, false, budget), None)
    };
    let _ = std::fs::remove_dir(TMP_ROOT); // only if no other run still uses it

    // exact-count guard: every call of one seed must agree
    for c in &calls[1..] {
        if c.exact != calls[0].exact {
            failures.push(format!(
                "exact counts differ between calls of seed {}: {:?} vs {:?}",
                args.seed, calls[0].exact, c.exact
            ));
        }
    }
    for c in &calls {
        for f in &c.failures {
            eprintln!("storebench: {}: {f}", w.name);
        }
    }
    for f in &failures {
        eprintln!("storebench: {}: {f}", w.name);
    }
    let mut attempted: u64 = calls.iter().map(|c| c.report.config.total_ops()).sum();
    let mut failed: u64 = calls
        .iter()
        .filter(|c| !c.failures.is_empty())
        .map(|c| c.report.config.total_ops())
        .sum();
    if let Some((_, ledger)) = &layers {
        attempted += ledger.ops;
    }
    if !failures.is_empty() {
        // a run-level check failed: no op of the run counts as good
        failed = attempted;
    }

    let mut metrics = Metrics::default();
    match &layers {
        Some((n_counted, ledger)) => {
            let (counted, traced) = calls.split_at(*n_counted);
            let frac = failed as f64 / attempted as f64;
            per_layer(&mut metrics, counted, traced, ledger, frac);
        }
        None => end_to_end(&mut metrics, &calls),
    }
    eprintln!(
        "storebench: {} seed {}: {} engine call(s), {} ops",
        w.name,
        args.seed,
        calls.len(),
        attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics.json()
    );
    if failed != 0 {
        std::process::exit(1);
    }
}
