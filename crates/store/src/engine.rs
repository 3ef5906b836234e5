//! The live engine: replica worker threads over [`ThreadNet`], with
//! partial replication, fault injection and crash recovery.
//!
//! ## Execution model
//!
//! Each of `workers` threads is a replica of the shards assigned to it
//! by the [`ShardMap`] (every shard under the default full-replication
//! placement). A worker's loop is wait-free for **replica-local**
//! operations: it generates its next operation, answers queries on
//! hosted objects from its local object table, applies and queues
//! updates for the interest-filtered batched causal multicast, and
//! integrates whatever peers' batches have arrived — never blocking on
//! another replica (§6.1's process model under a real scheduler).
//! Under partial replication two routed paths appear: updates always
//! execute at a replica of their object (non-hosted updates are
//! deterministically re-addressed, [`ShardMap::localize`]), and a read
//! of a non-hosted object travels to a live replica of its shard over
//! a reliable request/reply exchange (the one place a worker waits —
//! the price §1's wait-freedom result puts on reading state you do not
//! replicate). See `docs/SHARDING.md`.
//!
//! ## Interest edges
//!
//! Replication runs over [`InterestBatchCausalBroadcast`]: updates
//! queue per shard (one batch is only ever addressed to the replicas
//! interested in all of its contents) and every flushed envelope is
//! stamped per recipient with per-edge sequence numbers, so gap
//! detection, duplicate suppression, and the nack/repair round below
//! all work per **interest edge** — no part of the protocol assumes a
//! receiver sees every envelope a sender emits.
//!
//! ## Epochs and deterministic rendezvous
//!
//! The run is organised in **epochs** of `verify.every_ops` operations
//! per worker. At every epoch boundary all workers rendezvous for a
//! drain: flush pending batches (and any fault-delayed envelopes),
//! publish the cumulative per-edge envelope counts, and receive until
//! every published envelope on every inbound edge is delivered —
//! answering routed reads the whole time, so a worker blocked on a
//! reply can always make progress into the rendezvous. Because the
//! pause points are counted in operations — not wall time — the set of
//! flushed envelopes (and therefore `msgs_sent`) is a pure function of
//! the configuration and seed, independent of thread interleaving;
//! only wall-clock numbers vary between runs. After each boundary the
//! workers record a bounded window of subsequent events, and a
//! verifier thread rebuilds each frozen window **per shard** and
//! checks it against the mode's criterion (see [`crate::record`]).
//!
//! ## Chaos (see `docs/CHAOS.md` for the full contract)
//!
//! A non-empty [`StoreConfig::chaos`] plan routes every fast-path send
//! through a deterministic sender-side fault layer
//! ([`cbm_net::chaos::ChaosEndpoint`]). Because drops are true losses,
//! the drain adds a **nack/repair** round: after every worker has
//! arrived at the boundary, every missing envelope is known to be
//! lost; the receiver nacks each stalled edge once and the sender
//! retransmits that edge's epoch log over the reliable path — so every
//! drain is still a consistent cut, with a deterministic number of
//! repair messages per edge.
//!
//! `Crash`/`Recover` faults are epoch-aligned. A crashing worker
//! completes the boundary drain (the *cut*), then stops operating:
//! peers suppress sends to it (counted as in-flight drops) while the
//! protocol keeps stamping its edges, so the published edge matrix
//! stays the single source of truth. At the recovery boundary each
//! shard the crashed worker hosts is served by a deterministically
//! elected live co-replica ([`ChaosSchedule::shard_helper`]): the
//! helpers ship their post-drain shard states
//! ([`crate::wire::ShardSyncPayload`]), and the recovering worker
//! installs them, resyncs its causal layer straight from the published
//! edge matrix (the drain *is* the frontier — no retained-envelope
//! replay needed), and resumes its op script where it paused — so a
//! chaos run issues exactly the op multiset of its fault-free twin,
//! which is what makes final-state comparison against the twin
//! meaningful.
//!
//! ## Inside a worker
//!
//! A `Worker` is the replica (object table, clock, causal layer,
//! chaos endpoint, window recorder) plus four layers, each owning its
//! state (`docs/ARCHITECTURE.md`): the `Tally` of every counter (an
//! epoch's metrics row is the difference of two tallies), the
//! `Telemetry` layer (registry, flight recorder, latency histograms,
//! one span helper), and two optional layers whose presence is their
//! on/off switch — the streaming monitor `Watch` and the durable
//! epoch log `Durable`.

use crate::chaos::{ChaosSchedule, CrashSpan};
use crate::config::{Mode, StoreConfig};
use crate::durable::{self, EpochLog, SealInfo};
use crate::objects::ObjectTable;
use crate::record::{verify_shard_windows, OwnEvent, WindowRecord, WindowRecorder};
use crate::shard::ShardMap;
use crate::stats::{
    ChaosReport, EpochMetrics, LatencySummary, MonitorEscalation, MonitorReport, RecoveryStats,
    StoreReport, WindowVerdict, WorkerStats,
};
use crate::wire::{
    batch_bytes, delta_bytes, nack_bytes, read_reply_bytes, read_req_bytes, repair_bytes,
    sync_bytes, sync_req_bytes, BatchMsg, ShardDeltaPayload, ShardSyncPayload, StoreMsg, WireOp,
};
use cbm_adt::space::{ObjectSpace, SpaceInput};
use cbm_adt::Adt;
use cbm_check::monitor::{Discipline, Escalation, Monitor, MonitorStats, Stamp};
use cbm_check::Verdict;
use cbm_net::broadcast::{InterestBatchCausalBroadcast, InterestMask};
use cbm_net::chaos::{ChaosEndpoint, ChaosEvent};
use cbm_net::clock::{LamportClock, Timestamp};
use cbm_net::endpoint::Endpoint as EndpointApi;
use cbm_net::fault::FaultSchedule;
use cbm_net::tcp::TcpNet;
use cbm_net::thread_net::{ThreadNet, ThreadNetStats};
use cbm_net::wire::Wire;
use cbm_net::NodeId;
use cbm_obs::trace::TraceConfig;
use cbm_obs::{
    AtomicHistogram, Counter, EpochTracer, FlightRecord, Gauge, LatencyHistogram, Registry, Span,
    SpanKind,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Shared rendezvous state.
struct Coordinator {
    barrier: Barrier,
    /// Cumulative per-edge envelope counts, `sent_edges[s * n + r]` =
    /// envelopes `s` has addressed to `r`, published at drains. This
    /// matrix is both the per-edge gap detector of the nack/repair
    /// round and the causal frontier a recovering worker resyncs to.
    sent_edges: Vec<AtomicU64>,
    /// Per-worker full-space state hash at the latest drain point.
    hashes: Vec<AtomicU64>,
    /// Per-(worker, shard) state hash at the latest drain point
    /// (`shard_hashes[w * shards + s]`; only hosted entries are live).
    shard_hashes: Vec<AtomicU64>,
    /// Drain points at which live replicas of a shard diverged
    /// (convergent mode).
    divergences: AtomicU64,
    /// Boundary arrival counters, parity-indexed by drain number. The
    /// arrival rendezvous spins (instead of a barrier) because workers
    /// must keep serving routed reads until *everyone* has arrived — a
    /// worker whose last epoch operation awaits a read reply can only
    /// arrive after some peer serves it.
    arrive: [AtomicU64; 2],
    /// Drain-completion counters, parity-indexed like `arrive`: a
    /// worker that has delivered everything keeps serving repair (and
    /// read) requests until all workers are complete — a plain barrier
    /// here could strand a peer waiting for a retransmission from a
    /// worker already parked at the barrier.
    done: [AtomicU64; 2],
    /// Cold-start agreement: each worker publishes the boundary epoch
    /// its own disk can serve (0 = none). The fleet resumes only from
    /// a boundary *every* disk sealed — a cut is a fleet-wide property,
    /// so any disagreement falls back to a fresh run.
    resume_epoch: Vec<AtomicU64>,
}

impl Coordinator {
    fn new(n: usize, shards: usize) -> Self {
        Coordinator {
            barrier: Barrier::new(n),
            sent_edges: (0..n * n).map(|_| AtomicU64::new(0)).collect(),
            hashes: (0..n).map(|_| AtomicU64::new(0)).collect(),
            shard_hashes: (0..n * shards).map(|_| AtomicU64::new(0)).collect(),
            divergences: AtomicU64::new(0),
            arrive: [AtomicU64::new(0), AtomicU64::new(0)],
            done: [AtomicU64::new(0), AtomicU64::new(0)],
            resume_epoch: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// Handles into the run's lock-free metrics [`Registry`]: every
/// series is registered once before the workers spawn, then shared
/// immutably. Workers accumulate in plain locals and feed **deltas**
/// into these atomics at drain rendezvous (plus one final flush), so
/// steady-state op execution performs no shared-memory traffic for
/// metrics.
struct EngineMetrics {
    ops: Arc<Counter>,
    updates: Arc<Counter>,
    reads: Arc<Counter>,
    remote_reads: Arc<Counter>,
    reads_served: Arc<Counter>,
    batches_flushed: Arc<Counter>,
    payloads_flushed: Arc<Counter>,
    batches_delivered: Arc<Counter>,
    matrix_bytes: Arc<Counter>,
    payload_copy_ops: Arc<Counter>,
    nacks: Arc<Counter>,
    repairs: Arc<Counter>,
    repaired_batches: Arc<Counter>,
    drains: Arc<Counter>,
    faults: Arc<Counter>,
    spans_dropped: Arc<Counter>,
    monitor_ops_checked: Arc<Counter>,
    monitor_escalations: Arc<Counter>,
    monitor_ns: Arc<Counter>,
    peak_buffered: Arc<Gauge>,
    peak_suppression: Arc<Gauge>,
    peak_pending: Arc<Gauge>,
    op_latency: Arc<AtomicHistogram>,
}

impl EngineMetrics {
    fn register(reg: &mut Registry) -> Self {
        EngineMetrics {
            ops: reg.counter("ops_total"),
            updates: reg.counter("updates_total"),
            reads: reg.counter("reads_total"),
            remote_reads: reg.counter("remote_reads_total"),
            reads_served: reg.counter("reads_served_total"),
            batches_flushed: reg.counter("batches_flushed_total"),
            payloads_flushed: reg.counter("payloads_flushed_total"),
            batches_delivered: reg.counter("batches_delivered_total"),
            matrix_bytes: reg.counter("matrix_header_bytes_total"),
            payload_copy_ops: reg.counter("payload_copy_ops_total"),
            nacks: reg.counter("nacks_total"),
            repairs: reg.counter("repairs_total"),
            repaired_batches: reg.counter("repaired_batches_total"),
            drains: reg.counter("drains_total"),
            faults: reg.counter("faults_injected_total"),
            spans_dropped: reg.counter("trace_spans_dropped_total"),
            monitor_ops_checked: reg.counter("monitor_ops_checked"),
            monitor_escalations: reg.counter("monitor_escalations"),
            monitor_ns: reg.counter("monitor_ns"),
            peak_buffered: reg.gauge("causal_buffer_peak"),
            peak_suppression: reg.gauge("suppression_set_peak"),
            peak_pending: reg.gauge("batch_queue_peak"),
            op_latency: reg.histogram("op_latency_ns"),
        }
    }
}

/// Run the engine: `gen(worker, op_index, rng)` supplies each
/// operation. Returns the full report; panics if a worker thread
/// panics (a consistency monitor tripping is a test failure, not data)
/// or if the chaos plan is invalid (see [`ChaosSchedule::build`]).
pub fn run<T, G>(adt: &T, cfg: &StoreConfig, gen: G) -> StoreReport
where
    T: Adt + Clone + Send + Sync,
    T::Input: Wire + Send + Sync,
    T::Output: Send,
    T::State: Wire + Send + Sync,
    G: Fn(NodeId, u64, &mut StdRng) -> SpaceInput<T::Input> + Sync,
{
    let n = cfg.workers.max(1);
    let net: ThreadNet<StoreMsg<T::Input, T::Output, T::State>> = ThreadNet::new(n);
    let stats = net.stats();
    run_on(adt, cfg, gen, stats, net.into_endpoints())
}

/// [`run`], but over the real-socket transport: the replica set talks
/// through a loopback TCP mesh ([`cbm_net::tcp::TcpNet`]) instead of
/// in-process channels. The engine logic, the chaos layer, and the
/// shared-memory drain rendezvous are identical — only the message
/// path changes — so every deterministic column (msgs/batches/payloads
/// and the monitor counters) reproduces the [`run`] baselines exactly;
/// `docs/DEPLOYMENT.md` states the contract. Panics if the loopback
/// mesh cannot be built (bind/connect failure is an environment
/// problem, not a run outcome).
pub fn run_tcp<T, G>(adt: &T, cfg: &StoreConfig, gen: G) -> StoreReport
where
    T: Adt + Clone + Send + Sync,
    T::Input: Wire + Send + Sync + 'static,
    T::Output: Wire + Send + 'static,
    T::State: Wire + Send + Sync + 'static,
    G: Fn(NodeId, u64, &mut StdRng) -> SpaceInput<T::Input> + Sync,
{
    let n = cfg.workers.max(1);
    let net: TcpNet<StoreMsg<T::Input, T::Output, T::State>> =
        TcpNet::new(n).expect("bind + handshake the loopback TCP mesh");
    let stats = net.stats();
    run_on(adt, cfg, gen, stats, net.into_endpoints())
}

/// Transport-generic engine core: everything [`run`] and [`run_tcp`]
/// share, from worker spawn to report assembly.
fn run_on<T, G, E>(
    adt: &T,
    cfg: &StoreConfig,
    gen: G,
    stats: Arc<ThreadNetStats>,
    endpoints: Vec<E>,
) -> StoreReport
where
    T: Adt + Clone + Send + Sync,
    T::Input: Wire + Send + Sync,
    T::Output: Send,
    T::State: Wire + Send + Sync,
    G: Fn(NodeId, u64, &mut StdRng) -> SpaceInput<T::Input> + Sync,
    E: EndpointApi<Msg<T>>,
{
    let n = cfg.workers.max(1);
    let map = ShardMap::build(cfg);
    let sched = ChaosSchedule::build(cfg);
    if cfg.durable.resume || cfg.durable.halt_at_boundary != 0 {
        // the resume/halt pair models a cold fleet restart; combining
        // it with a chaos plan would make the replayed script prefix
        // ambiguous (crashed epochs issue no ops)
        assert!(
            !sched.is_active(),
            "durable resume/halt cannot be combined with a chaos plan"
        );
    }
    // tracing is opt-in, but chaos runs always fly the recorder — their
    // failures are what it exists to explain
    let tracing = cfg.obs.trace || sched.is_active();
    let mut registry = Registry::new();
    let metrics = EngineMetrics::register(&mut registry);
    let coord = Coordinator::new(n, map.shards());
    let (tx, rx) = mpsc::channel::<WindowRecord<T>>();

    let t0 = Instant::now();
    let (mut worker_results, verdicts, verifier_spans) = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(n);
        for ep in endpoints {
            let tx = tx.clone();
            let coord = &coord;
            let gen = &gen;
            let sched = &sched;
            let map = &map;
            let metrics = &metrics;
            handles.push(s.spawn(move || {
                Worker::new(adt, cfg, sched, map, ep, coord, tx, metrics, t0).run(gen)
            }));
        }
        drop(tx); // verifier's channel closes once every worker exits

        // the verifier thread: assemble frozen windows, split per
        // shard, verify, report
        let space = ObjectSpace::new(adt.clone(), cfg.objects.max(1));
        let mode = cfg.mode;
        let sample_every = cfg.verify.sample_every.max(1);
        let vmap = &map;
        let verifier = s.spawn(move || {
            let mut pending: Vec<(u64, Vec<WindowRecord<T>>)> = Vec::new();
            let mut verdicts: Vec<WindowVerdict> = Vec::new();
            // window verdicts double as trace spans on the verifier's
            // lane (tid = n); span creation mirrors verdict creation
            let mut vspans: Vec<Span> = Vec::new();
            let span_of = |v: &WindowVerdict| {
                // window w covers the start of epoch w+1
                let mut sp = Span::new(SpanKind::VerifyWindow, n as u32, v.window + 1, v.window);
                sp.shard = v.shard.map(|s| s as i64).unwrap_or(-1);
                sp.a = v.events as u64;
                sp.b = v.crashed_workers as u64;
                sp.flag = v.result.is_ok();
                sp.wall_ns = t0.elapsed().as_nanos() as u64;
                sp
            };
            while let Ok(rec) = rx.recv() {
                let wid = rec.window;
                let slot = match pending.iter().position(|(w, _)| *w == wid) {
                    Some(i) => i,
                    None => {
                        pending.push((wid, Vec::new()));
                        pending.len() - 1
                    }
                };
                pending[slot].1.push(rec);
                if pending[slot].1.len() == n {
                    let (_, mut parts) = pending.swap_remove(slot);
                    parts.sort_by_key(|p| p.worker);
                    let spans_recovery = parts.iter().any(|p| p.spans_recovery);
                    for v in verify_shard_windows(&space, mode, sample_every, &parts, vmap) {
                        let verdict = WindowVerdict {
                            window: wid,
                            shard: v.shard,
                            criterion: mode.criterion(),
                            events: *v.result.as_ref().unwrap_or(&0),
                            crashed_workers: v.crashed_workers,
                            spans_recovery,
                            result: v.result.map(|_| ()),
                        };
                        if tracing {
                            vspans.push(span_of(&verdict));
                        }
                        verdicts.push(verdict);
                    }
                }
            }
            for (wid, parts) in pending {
                let verdict = WindowVerdict {
                    window: wid,
                    shard: None,
                    criterion: mode.criterion(),
                    events: 0,
                    crashed_workers: parts.iter().filter(|p| p.crashed).count(),
                    spans_recovery: parts.iter().any(|p| p.spans_recovery),
                    result: Err(format!(
                        "window never completed: {}/{} worker records",
                        parts.len(),
                        n
                    )),
                };
                if tracing {
                    vspans.push(span_of(&verdict));
                }
                verdicts.push(verdict);
            }
            verdicts.sort_by_key(|v| (v.window, v.shard));
            (verdicts, vspans)
        });

        let results: Vec<WorkerResult> = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
        let (verdicts, vspans) = verifier.join().expect("verifier thread panicked");
        (results, verdicts, vspans)
    });
    let wall_ns = t0.elapsed().as_nanos();

    worker_results.sort_by_key(|r| r.stats.worker);
    let latency = LatencySummary::from_histogram(&metrics.op_latency.snapshot());

    let mut monitor = MonitorReport {
        enabled: cfg.verify.monitor,
        ..MonitorReport::default()
    };
    if monitor.enabled {
        for r in &mut worker_results {
            let s = r.monitor_stats;
            monitor.ops_checked += s.ops_checked;
            monitor.folds += s.folds;
            monitor.escalations += s.escalations;
            monitor.cleared += s.cleared;
            monitor.violations += s.violations;
            monitor.kernel_unknown += s.kernel_unknown;
            monitor.records.extend(std::mem::take(&mut r.escalations));
            metrics.monitor_ns.add(r.mon_ns);
        }
        monitor.records.sort_by_key(|e| (e.worker, e.at_op));
        metrics.monitor_ops_checked.add(monitor.ops_checked);
        metrics.monitor_escalations.add(monitor.escalations);
    }

    let snap = stats.snapshot();
    let mut chaos = ChaosReport {
        active: sched.is_active(),
        dropped_per_node: snap.dropped_per_node.clone(),
        dup_per_node: snap.dup_per_node.clone(),
        ..ChaosReport::default()
    };
    let mut recoveries: Vec<RecoveryStats> = Vec::new();
    for r in &worker_results {
        let c = r.chaos;
        chaos.drops += c.drops;
        chaos.dups += c.dups;
        chaos.parked += c.parked;
        chaos.released += c.released;
        chaos.delayed += c.delayed;
        chaos.pruned += c.pruned;
        chaos.crash_discarded += c.crash_discarded;
        chaos.nacks += r.tally.nacks;
        chaos.repairs += r.tally.repairs;
        chaos.repaired_batches += r.tally.repaired_batches;
        recoveries.extend(r.recoveries.iter().cloned());
    }
    recoveries.sort_by_key(|r| (r.crash_epoch, r.worker));
    chaos.recoveries = recoveries;

    let per_worker: Vec<WorkerStats> = worker_results.iter().map(|r| r.stats.clone()).collect();
    let batches_sent: u64 = per_worker.iter().map(|w| w.batches_sent).sum();
    let payloads_sent: u64 = per_worker.iter().map(|w| w.payloads_sent).sum();
    let total_ops: u64 = per_worker.iter().map(|w| w.ops).sum();
    let remote_reads: u64 = per_worker.iter().map(|w| w.remote_reads).sum();
    let windows_failed = verdicts.iter().filter(|v| v.result.is_err()).count();
    let final_state_hashes: Vec<u64> = coord
        .hashes
        .iter()
        .map(|h| h.load(Ordering::SeqCst))
        .collect();

    // per-epoch rows: same-epoch rows of different workers merge into
    // one deterministic dashboard row
    let mut epochs: Vec<EpochMetrics> = Vec::new();
    for r in &worker_results {
        for row in &r.rows {
            match epochs.iter_mut().find(|x| x.epoch == row.epoch) {
                Some(x) => x.absorb(row),
                None => epochs.push(*row),
            }
        }
    }
    epochs.sort_by_key(|x| x.epoch);

    let trace = tracing.then(|| {
        let mut parts: Vec<(Vec<Span>, u64)> = worker_results
            .iter_mut()
            .map(|r| std::mem::take(&mut r.trace))
            .collect();
        parts.push((verifier_spans, 0));
        FlightRecord::assemble(n as u32, cfg.seed, parts)
    });

    StoreReport {
        config: cfg.clone(),
        wall_ns,
        total_ops,
        ops_per_sec: if wall_ns == 0 {
            0.0
        } else {
            total_ops as f64 / (wall_ns as f64 / 1e9)
        },
        latency,
        msgs_sent: snap.msgs_sent,
        bytes_sent: snap.bytes_sent,
        batches_sent,
        payloads_sent,
        mean_batch: if batches_sent == 0 {
            0.0
        } else {
            payloads_sent as f64 / batches_sent as f64
        },
        remote_reads,
        windows: verdicts,
        windows_failed,
        drains_converged: coord.divergences.load(Ordering::Relaxed) == 0,
        final_state_hashes,
        monitor,
        chaos,
        per_worker,
        epochs,
        metrics: registry.snapshot(),
        trace,
    }
}

/// What a worker thread returns.
struct WorkerResult {
    stats: WorkerStats,
    chaos: cbm_net::chaos::ChaosCounters,
    /// The worker's final counters.
    tally: Tally,
    recoveries: Vec<RecoveryStats>,
    /// Deterministic per-epoch counter rows, epoch order.
    rows: Vec<EpochMetrics>,
    /// Sealed trace spans plus the count truncated away by the caps.
    trace: (Vec<Span>, u64),
    /// Streaming-monitor counters (zero when the monitor is off).
    monitor_stats: MonitorStats,
    /// Every monitor escalation this worker recorded, in op order.
    escalations: Vec<MonitorEscalation>,
    /// Estimated wall time in monitor hot-path calls (strided sample).
    mon_ns: u64,
}

/// Every message the engine moves, for ADT `T`.
type Msg<T> = StoreMsg<<T as Adt>::Input, <T as Adt>::Output, <T as Adt>::State>;

/// The chaos layer wrapped around a worker's transport endpoint,
/// generic over the underlying transport `E` (thread channels or TCP).
type WorkerEndpoint<T, E> = ChaosEndpoint<Msg<T>, E>;

/// Every counter a worker keeps, as one `Copy` value. The epoch's
/// deterministic [`EpochMetrics`] row is the difference of the
/// snapshots ([`Worker::tally`]) taken at the drains that bound it.
/// `batches`, `payloads` and `faults` are kept by the causal layer and
/// the fault layer and copied in by the snapshot; the `peak_*` fields
/// are high-water marks, flushed once at the end.
#[derive(Clone, Copy, Default)]
struct Tally {
    /// Ops issued: the worker's position in its op script.
    ops: u64,
    reads: u64,
    updates: u64,
    remote_reads: u64,
    reads_served: u64,
    batches: u64,
    payloads: u64,
    /// Batches causally delivered.
    delivered: u64,
    nacks: u64,
    repairs: u64,
    repaired_batches: u64,
    faults: u64,
    /// Messages dropped unread: crashed drains, pre-recovery
    /// stragglers, and protocol bugs tolerated outside debug builds.
    discarded: u64,
    /// Bytes of `knows` headers shipped with batch envelopes.
    matrix_bytes: u64,
    /// Payload ops shipped, summed per **copy** (a batch multicast to
    /// `k` recipients adds `k * ops`; contrast `payloads`, which
    /// counts per flush). With `matrix_bytes` this makes the byte
    /// accounting auditable: on a lossless run, `bytes_sent` of batch
    /// traffic is exactly `matrix_bytes + per_op_bytes *
    /// payload_copy_ops` (see `wire_accounting.rs`).
    payload_copy_ops: u64,
    peak_buffered: usize,
    peak_suppression: usize,
    peak_pending: usize,
}

impl Tally {
    /// Epoch `epoch`'s row: what was counted between `prev` and `self`.
    fn since(&self, prev: &Tally, epoch: u64, crashed: bool) -> EpochMetrics {
        EpochMetrics {
            epoch,
            ops: self.ops - prev.ops,
            updates: self.updates - prev.updates,
            remote_reads: self.remote_reads - prev.remote_reads,
            batches: self.batches - prev.batches,
            payloads: self.payloads - prev.payloads,
            delivered: self.delivered - prev.delivered,
            nacks: self.nacks - prev.nacks,
            repairs: self.repairs - prev.repairs,
            faults: self.faults - prev.faults,
            crashed: u64::from(crashed),
        }
    }
}

/// The telemetry layer: the shared metrics registry, the flight
/// recorder, the latency profile and the per-epoch rows. Counters
/// reach the registry as deltas at drain rendezvous (plus one final
/// flush), so steady-state op execution touches no shared memory.
struct Telemetry<'a> {
    metrics: &'a EngineMetrics,
    /// The run's shared start instant; span wall stamps are offsets
    /// from it so all lanes share one timeline.
    t0: Instant,
    me: u32,
    tracer: EpochTracer,
    /// The epoch whose spans the worker is currently recording; spans
    /// created during a boundary drain still belong to the epoch the
    /// drain closes.
    trace_epoch: u64,
    /// Cumulative operation latency profile (feeds this worker's
    /// [`WorkerStats`]).
    hist: LatencyHistogram,
    /// Latencies since the last drain; merged into `hist` and the
    /// shared registry histogram at each drain rendezvous.
    hist_epoch: LatencyHistogram,
    /// The tally at the previous drain.
    prev: Tally,
    rows: Vec<EpochMetrics>,
}

impl Telemetry<'_> {
    /// Are spans being recorded?
    #[inline]
    fn on(&self) -> bool {
        self.tracer.enabled()
    }

    /// Wall offset from the run's shared start instant.
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Record one `kind` span at logical stamp `logical` in the current
    /// epoch, wall-stamped now; `fill` sets the kind's own fields.
    /// No-op with tracing off.
    #[inline]
    fn span(&mut self, kind: SpanKind, logical: u64, fill: impl FnOnce(&mut Span)) {
        if self.on() {
            let wall = self.now_ns();
            self.push(kind, logical, wall, fill);
        }
    }

    /// [`Telemetry::span`] for an interval that began at `start`.
    #[inline]
    fn span_from(
        &mut self,
        kind: SpanKind,
        logical: u64,
        start: Instant,
        fill: impl FnOnce(&mut Span),
    ) {
        if self.on() {
            let wall = start.duration_since(self.t0).as_nanos() as u64;
            self.push(kind, logical, wall, fill);
        }
    }

    fn push(&mut self, kind: SpanKind, logical: u64, wall: u64, fill: impl FnOnce(&mut Span)) {
        let mut sp = Span::new(kind, self.me, self.trace_epoch, logical);
        sp.wall_ns = wall;
        fill(&mut sp);
        self.tracer.push(sp);
    }

    /// Convert buffered fault events into `fault` spans and seal every
    /// epoch up to and including `epoch` — arrival order no longer
    /// matters after this, which is what makes the retained span set
    /// deterministic. `every` is the epoch length in op ticks.
    fn seal_epoch(&mut self, epoch: u64, every: u64, faults: Vec<ChaosEvent>) {
        if !self.on() {
            return;
        }
        let wall = self.now_ns();
        for ev in faults {
            let mut sp = Span::new(SpanKind::Fault, self.me, ev.vtime / every, ev.vtime);
            sp.peer = ev.to as i64;
            sp.a = ev.kind.code();
            sp.wall_ns = wall;
            self.tracer.push(sp);
        }
        self.tracer.seal(epoch);
    }

    /// At a drain that closes epoch `epoch`: push the epoch's row
    /// (`cur` minus the previous drain's tally), and feed the deltas
    /// (plus the epoch's latency buckets) into the shared registry —
    /// the "merge at drain rendezvous" half of the metrics contract.
    fn flush_epoch_metrics(&mut self, epoch: u64, cur: Tally, crashed: bool) {
        let prev = std::mem::replace(&mut self.prev, cur);
        let row = cur.since(&prev, epoch, crashed);
        self.rows.push(row);
        let m = self.metrics;
        m.ops.add(row.ops);
        m.updates.add(row.updates);
        m.remote_reads.add(row.remote_reads);
        m.batches_flushed.add(row.batches);
        m.payloads_flushed.add(row.payloads);
        m.batches_delivered.add(row.delivered);
        m.nacks.add(row.nacks);
        m.repairs.add(row.repairs);
        m.repaired_batches
            .add(cur.repaired_batches - prev.repaired_batches);
        m.faults.add(row.faults);
        let eh = std::mem::replace(&mut self.hist_epoch, LatencyHistogram::new());
        m.op_latency.merge_from(&eh);
        self.hist.merge(&eh);
    }
}

/// The monitor layer, present exactly when `verify.monitor` is set:
/// the streaming monitor of the run's mode (CC certifies against a
/// delivery-order shadow fold, CCv against an independent
/// Lamport-arbitrated one) and what the worker records about it.
struct Watch<T: Adt> {
    monitor: Monitor<T>,
    /// Escalations the monitor raised, in op order.
    escalations: Vec<MonitorEscalation>,
    /// Does the current epoch follow a crash-recovery state transfer?
    /// Recorded on escalations: their windows are then anchored on the
    /// installed recovery states, the streaming analogue of the
    /// `spans_recovery` anchoring sampled windows get in `record.rs`.
    spans_recovery: bool,
    /// Hook call counter (timing stride).
    tick: u64,
    /// Estimated nanoseconds in monitor calls: every 64th call is
    /// timed and scaled, so steady state pays two `Instant::now()`s
    /// per 64 folds instead of per fold. An estimate, like every other
    /// wall-clock series.
    ns: u64,
    /// `objects - 1` when the object count is a power of two: lets the
    /// hooks slot an object with a mask instead of a second integer
    /// division on the hot path.
    slot_mask: Option<u32>,
}

impl<T: Adt + Clone> Watch<T> {
    fn new(adt: &T, cfg: &StoreConfig, me: usize) -> Option<Self> {
        let objects = cfg.objects.max(1);
        let discipline = match cfg.mode {
            Mode::Causal => Discipline::Cc,
            Mode::Convergent => Discipline::Ccv,
        };
        cfg.verify.monitor.then(|| Watch {
            monitor: Monitor::new(adt.clone(), discipline, objects, cfg.workers.max(1), me),
            escalations: Vec::new(),
            spans_recovery: false,
            tick: 0,
            ns: 0,
            slot_mask: objects.is_power_of_two().then(|| (objects - 1) as u32),
        })
    }
}

/// Ops retained for one crashed worker's disk-based tail fetch: from
/// its crash cut (where its own log replay lands) to its recovery
/// boundary, this helper records every op it applies to the shards it
/// was elected to serve, so the recoverer can fetch just the delta
/// instead of a full state transfer (`docs/DURABILITY.md`).
struct RetainBuf<I> {
    /// The crashed worker this buffer serves.
    for_worker: NodeId,
    /// `(shard, ops applied to it since the crash cut, apply order)`.
    ops: Vec<(u32, Vec<WireOp<I>>)>,
}

/// The durable layer, present exactly when `durable.log_dir` is set:
/// the epoch log, and the disk rungs of in-run crash recovery (own
/// log replay + co-replica delta fetch instead of full state
/// transfer). See `docs/DURABILITY.md`.
struct Durable<T: Adt> {
    /// Own-op and delivered-batch records stream in, each drain cut
    /// seals with an fsync, boundary seals snapshot-compact on the
    /// configured cadence.
    log: EpochLog,
    /// The per-run log directory (recovery replays from it).
    dir: PathBuf,
    /// Active retention buffers: one per crash span this worker is an
    /// elected delta helper for.
    retain: Vec<RetainBuf<T::Input>>,
    /// Recovery-phase handshakes that arrived while this worker was
    /// blocked on a different span's handshake (simultaneous spans).
    stash: Vec<(NodeId, Msg<T>)>,
}

impl<T: Adt> Durable<T> {
    fn open(cfg: &StoreConfig, me: NodeId) -> Option<Self> {
        let dir = PathBuf::from(cfg.durable.log_dir.as_ref()?);
        // resume keeps the on-disk log/snapshot (the restart replays
        // them); every other run starts from truncated files
        let log =
            EpochLog::open(&dir, me, !cfg.durable.resume).expect("open the durable epoch log");
        Some(Durable {
            log,
            dir,
            retain: Vec::new(),
            stash: Vec::new(),
        })
    }

    /// Record one applied update to `shard` into every active
    /// retention buffer that serves it — the material of a crashed
    /// worker's disk-recovery delta fetch.
    fn retain_op(&mut self, shard: u32, obj: u32, ts: Timestamp, input: &T::Input) {
        for buf in self.retain.iter_mut() {
            if let Some((_, ops)) = buf.ops.iter_mut().find(|(s, _)| *s == shard) {
                ops.push(WireOp {
                    obj,
                    input: input.clone(),
                    ts,
                    wseq: None,
                });
            }
        }
    }
}

struct Worker<'a, T: Adt, E> {
    adt: &'a T,
    cfg: &'a StoreConfig,
    sched: &'a ChaosSchedule,
    map: &'a ShardMap,
    ep: WorkerEndpoint<T, E>,
    coord: &'a Coordinator,
    tx: mpsc::Sender<WindowRecord<T>>,
    me: NodeId,
    proto: InterestBatchCausalBroadcast<WireOp<T::Input>>,
    table: ObjectTable<T>,
    clock: LamportClock,
    recorder: WindowRecorder<T>,
    fault_sched: FaultSchedule,
    vtime: u64,
    crashed: bool,
    quiesce_idx: u64,
    /// Precomputed `sched.can_lose()` (checked on every flush).
    loss_capable: bool,
    /// Per-recipient envelopes flushed since the last completed drain
    /// (the per-edge repair logs).
    epoch_sent: Vec<Vec<BatchMsg<T::Input>>>,
    /// Read-routing table for the current epoch: a live replica per
    /// shard, recomputed at every boundary from the shared schedule.
    read_route: Vec<NodeId>,
    recoveries: Vec<RecoveryStats>,
    tally: Tally,
    durable: Option<Durable<T>>,
    watch: Option<Watch<T>>,
    tel: Telemetry<'a>,
}

impl<'a, T, E> Worker<'a, T, E>
where
    T: Adt + Clone + Sync,
    T::Input: Wire + Send + Sync,
    T::Output: Send,
    T::State: Wire + Send + Sync,
    E: EndpointApi<Msg<T>>,
{
    #[allow(clippy::too_many_arguments)]
    fn new(
        adt: &'a T,
        cfg: &'a StoreConfig,
        sched: &'a ChaosSchedule,
        map: &'a ShardMap,
        ep: E,
        coord: &'a Coordinator,
        tx: mpsc::Sender<WindowRecord<T>>,
        metrics: &'a EngineMetrics,
        t0: Instant,
    ) -> Self {
        let me = ep.me();
        let n = ep.cluster_size();
        // the chaos RNG stream is decorrelated from the workload RNGs
        let chaos_seed = cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(me as u64)
            ^ 0xC4A0_5C4A_05C4_A05C;
        let tracing = cfg.obs.trace || sched.is_active();
        let mut ep = ChaosEndpoint::new(ep, chaos_seed);
        if tracing {
            // faults become trace events; the buffer drains at every
            // epoch seal, so the cap is effectively per epoch
            ep.record_events(if cfg.obs.epoch_cap == 0 {
                usize::MAX
            } else {
                cfg.obs.epoch_cap.saturating_mul(4)
            });
        }
        Worker {
            adt,
            cfg,
            sched,
            map,
            ep,
            coord,
            tx,
            me,
            proto: InterestBatchCausalBroadcast::new(me, n),
            table: ObjectTable::new(adt, cfg.objects.max(1), cfg.mode),
            clock: LamportClock::new(),
            recorder: WindowRecorder::new(),
            fault_sched: sched.link_plan.clone().into_schedule(),
            vtime: 0,
            crashed: false,
            quiesce_idx: 0,
            loss_capable: sched.can_lose(),
            epoch_sent: vec![Vec::new(); n],
            read_route: vec![0; map.shards()],
            recoveries: Vec::new(),
            tally: Tally::default(),
            durable: Durable::open(cfg, me),
            watch: Watch::new(adt, cfg, me),
            tel: Telemetry {
                metrics,
                t0,
                me: me as u32,
                tracer: EpochTracer::new(
                    tracing,
                    TraceConfig {
                        cap_per_kind: cfg.obs.epoch_cap,
                        keep_epochs: cfg.obs.keep_epochs,
                    },
                ),
                trace_epoch: 0,
                hist: LatencyHistogram::new(),
                hist_epoch: LatencyHistogram::new(),
                prev: Tally::default(),
                rows: Vec::new(),
            },
        }
    }

    /// The cumulative tally as of now, the causal layer's and the fault
    /// layer's counts included.
    fn tally(&self) -> Tally {
        let c = self.ep.counters();
        Tally {
            batches: self.proto.batches_sent(),
            payloads: self.proto.payloads_sent(),
            faults: c.drops + c.dups + c.parked + c.delayed + c.pruned + c.crash_discarded,
            ..self.tally
        }
    }

    /// Close the books of epoch `epoch` at the drain that ends it: seal
    /// its spans (and every earlier one, through `seal_through`) and
    /// push its metrics row.
    fn end_epoch(&mut self, epoch: u64, seal_through: u64) {
        let faults = self.ep.take_events();
        self.tel
            .seal_epoch(seal_through, self.sched.every_ops as u64, faults);
        let cur = self.tally();
        let crashed = self.sched.crashed_at(self.me, epoch);
        self.tel.flush_epoch_metrics(epoch, cur, crashed);
    }

    /// Run one monitor hook on `obj`'s slot — every 64th call timed and
    /// scaled — and record any escalation it raises. No-op with the
    /// monitor off.
    #[inline]
    fn certify(&mut self, obj: u32, hook: impl FnOnce(&mut Monitor<T>, u32) -> Option<Escalation>) {
        let Some(w) = self.watch.as_mut() else {
            return;
        };
        // `ObjectTable::slot` semantics, the modulo strength-reduced to
        // a mask when possible
        let slot = match w.slot_mask {
            Some(m) => obj & m,
            None => self.table.slot(obj) as u32,
        };
        w.tick = w.tick.wrapping_add(1);
        let timer = (w.tick & 63 == 0).then(Instant::now);
        let esc = hook(&mut w.monitor, slot);
        if let Some(t) = timer {
            w.ns += (t.elapsed().as_nanos() as u64) << 6;
        }
        if let Some(esc) = esc {
            self.note_escalation(obj, esc);
        }
    }

    /// Record one monitor escalation: report row + `monitor_escalate`
    /// trace span, stamped with this worker's op counter (the span's
    /// deterministic logical stamp).
    fn note_escalation(&mut self, obj: u32, esc: Escalation) {
        let at_op = self.tally.ops;
        let confirmed = esc.confirmed();
        self.tel.span(SpanKind::MonitorEscalate, at_op, |sp| {
            sp.shard = self.map.shard_of(obj) as i64;
            sp.a = esc.pattern.code();
            sp.b = esc.events as u64;
            sp.flag = confirmed;
        });
        let Some(w) = self.watch.as_mut() else {
            return;
        };
        w.escalations.push(MonitorEscalation {
            worker: self.me,
            epoch: self.tel.trace_epoch,
            at_op,
            obj: Some(obj),
            pattern: esc.pattern.name(),
            events: esc.events,
            confirmed,
            verdict: match esc.verdict {
                Verdict::Sat => "sat",
                Verdict::Unsat => "unsat",
                Verdict::Unknown => "unknown",
            },
            spans_recovery: w.spans_recovery,
            detail: esc.witness.err().unwrap_or_default(),
        });
    }

    fn monitor_stats(&self) -> MonitorStats {
        self.watch
            .as_ref()
            .map_or_else(MonitorStats::default, |w| w.monitor.stats())
    }

    fn run<G>(mut self, gen: &G) -> WorkerResult
    where
        G: Fn(NodeId, u64, &mut StdRng) -> SpaceInput<T::Input> + Sync,
    {
        let mut rng = StdRng::seed_from_u64(
            self.cfg
                .seed
                .wrapping_add((self.me as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let start = if self.cfg.durable.resume && self.durable.is_some() {
            let r = self.resume_from_disk();
            // the op script is positional: burn the replayed prefix so
            // the RNG stream continues exactly where the halted run's
            // generator stood
            for i in 0..self.tally.ops {
                let _ = gen(self.me, i, &mut rng);
            }
            r
        } else {
            0
        };
        let halt = self.cfg.durable.halt_at_boundary;
        let mut halted = false;
        for e in start..self.sched.n_epochs {
            if halt != 0 && e == halt && e > start {
                // deterministic power loss: perform the boundary cut
                // (drain + fsync'd seal) and stop without opening
                // epoch e's window — the sealed disks are what a
                // `resume` run restarts from
                self.halt_boundary(e);
                halted = true;
                break;
            }
            if e == start && e > 0 {
                // re-entry lands mid-run: the resumed cut already *is*
                // the boundary drain, so only the per-epoch setup runs
                self.vtime = e * self.sched.every_ops as u64;
                self.advance_faults();
                self.read_route = self.compute_read_route(e);
            } else {
                self.epoch_boundary(e);
            }
            let my_ops = self.sched.ops_of(self.me, e);
            let quota = self.window_quota(e, my_ops);
            for _ in 0..quota {
                self.step(gen, &mut rng);
            }
            if e > start {
                self.close_window(e);
            }
            for _ in quota..my_ops {
                self.step(gen, &mut rng);
            }
        }
        if !halted {
            self.final_drain();
            assert_eq!(
                self.tally.ops as usize, self.cfg.ops_per_worker,
                "worker {} finished with an incomplete script",
                self.me
            );
        }

        let c = self.tally();
        let monitor_stats = self.monitor_stats();
        let stats = WorkerStats {
            worker: self.me,
            ops: c.ops,
            reads: c.reads,
            updates: c.updates,
            remote_reads: c.remote_reads,
            reads_served: c.reads_served,
            batches_sent: c.batches,
            payloads_sent: c.payloads,
            batches_delivered: c.delivered,
            latency: LatencySummary::from_histogram(&self.tel.hist),
        };
        // counters not covered by the per-epoch rows flush once here
        let m = self.tel.metrics;
        m.reads.add(c.reads);
        m.reads_served.add(c.reads_served);
        m.matrix_bytes.add(c.matrix_bytes);
        m.payload_copy_ops.add(c.payload_copy_ops);
        m.peak_buffered.raise(c.peak_buffered as u64);
        m.peak_suppression.raise(c.peak_suppression as u64);
        m.peak_pending.raise(c.peak_pending as u64);
        let (spans, mut dropped) = self.tel.tracer.finish();
        dropped += self.ep.events_overflow();
        m.spans_dropped.add(dropped);
        let (escalations, mon_ns) = self
            .watch
            .map(|w| (w.escalations, w.ns))
            .unwrap_or_default();
        WorkerResult {
            stats,
            chaos: self.ep.counters(),
            tally: c,
            recoveries: self.recoveries,
            rows: self.tel.rows,
            trace: (spans, dropped),
            monitor_stats,
            escalations,
            mon_ns,
        }
    }

    /// Rung 1 of the recovery ladder: replay this worker's own snapshot
    /// and log tail, exactly as a real process restart would. `None`
    /// without a log, or when the disk is torn, corrupt or empty.
    fn replay_own_disk(&self) -> Option<durable::Recovered<T>> {
        let d = self.durable.as_ref()?;
        durable::recover::<T>(
            self.adt,
            &d.dir,
            self.me,
            self.cfg.objects.max(1),
            self.cfg.mode,
        )
        .ok()
    }

    /// Install a replayed cut: a fresh table from its states (the
    /// in-memory replica is discarded, not reused) and a clock restarted
    /// at its seal.
    fn install_cut(&mut self, rec: &durable::Recovered<T>) {
        let mut table = ObjectTable::new(self.adt, self.cfg.objects.max(1), self.cfg.mode);
        table.install(&rec.states);
        self.table = table;
        self.clock = LamportClock::new();
        self.clock.observe(rec.seal.lamport);
    }

    /// Restart the monitor's shadow of every hosted slot at the table's
    /// current state, each with an empty ring — so no post-recovery
    /// escalation can rebuild a window containing pre-crash events.
    fn reseed_watch(&mut self) {
        let Some(w) = self.watch.as_mut() else {
            return;
        };
        for &s in self.map.hosted(self.me) {
            let states = self.table.shard_snapshot(self.map.slots_of(s));
            for (slot, st) in self.map.slots_of(s).zip(states.iter()) {
                w.monitor.install_slot(slot, st);
            }
        }
    }

    /// Compact a recovered cut into a fresh snapshot, so appending
    /// resumes from a sound base: the log prefix it replaces is gone
    /// and a later restart replays only this. No-op without a log.
    fn snapshot_cut(&mut self, epoch: u64) {
        if self.durable.is_none() {
            return;
        }
        let seal = self.seal_info(epoch, true);
        let snap = self.table.snapshot();
        if let Some(d) = self.durable.as_mut() {
            d.log
                .snapshot(&seal, &snap)
                .expect("snapshot the recovered cut");
        }
    }

    /// Push the report row of one recovery of this worker, `t` its start.
    fn note_recovery(
        &mut self,
        span: &CrashSpan,
        synced: (u64, u64),
        replay: Option<&durable::Recovered<T>>,
        t: Instant,
    ) {
        self.recoveries.push(RecoveryStats {
            worker: self.me,
            crash_epoch: span.crash_epoch,
            recover_epoch: span.recover_epoch,
            helper: span.helper,
            synced_shards: synced.0,
            synced_objects: synced.1,
            sync_wall_ns: t.elapsed().as_nanos() as u64,
            replayed_records: replay.map_or(0, |r| r.replayed_records),
            log_bytes: replay.map_or(0, |r| r.log_bytes),
        });
    }

    /// Cold fleet restart ([`crate::config::DurableConfig::resume`]):
    /// replay this worker's snapshot + log tail, agree fleet-wide on
    /// the boundary every disk sealed, install that cut, and return
    /// the epoch to resume from. Returns 0 (a fresh full run, disks
    /// wiped) when any disk is torn, stale, or disagreeing — the cut
    /// is a fleet-wide property, so resuming from mismatched epochs
    /// would replay mismatched script prefixes.
    fn resume_from_disk(&mut self) -> u64 {
        // only epoch-boundary cuts strictly inside the run are
        // resumable: mid-window cuts would land inside a recorded
        // window, and a final-drain seal means there is nothing left
        let rec = self
            .replay_own_disk()
            .filter(|r| r.seal.boundary && r.seal.epoch > 0 && r.seal.epoch < self.sched.n_epochs);
        let claim = rec.as_ref().map(|r| r.seal.epoch).unwrap_or(0);
        self.coord.resume_epoch[self.me].store(claim, Ordering::SeqCst);
        self.coord.barrier.wait(); // claims published
        let n = self.ep.cluster_size();
        let agreed =
            (0..n).all(|q| self.coord.resume_epoch[q].load(Ordering::SeqCst) == claim) && claim > 0;
        let (Some(rec), true) = (rec, agreed) else {
            // fall back to a fresh run: wipe this worker's files so the
            // new run's log does not append onto a stale prefix
            if let Some(d) = self.durable.as_mut() {
                d.log = EpochLog::open(&d.dir, self.me, true).expect("reopen the epoch log fresh");
            }
            return 0;
        };
        let t = Instant::now();
        self.install_cut(&rec);
        self.tally.ops = rec.seal.issued;
        debug_assert_eq!(
            self.tally.ops,
            claim * self.sched.every_ops as u64,
            "a fault-free boundary cut pins the script position"
        );
        // shadows restart from the installed cut states; counters
        // continue from the persisted totals
        self.reseed_watch();
        if let Some(w) = self.watch.as_mut() {
            w.monitor.seed_stats(rec.seal.monitor);
            w.monitor.resync();
        }
        // the delivered frontier restarts at zero with the fresh
        // causal layer — frontiers are per-run, the cut state is not
        self.snapshot_cut(claim);
        // per-epoch delta rows and traces restart at the resumed cut
        self.tel.prev = self.tally();
        self.tel.trace_epoch = claim;
        // the replay is a recovery row (helper = self: no co-replica
        // involved), which is what feeds the report's replayed-records
        // and log-bytes columns
        let own = CrashSpan {
            worker: self.me,
            crash_epoch: claim,
            recover_epoch: claim,
            helper: self.me,
        };
        self.note_recovery(&own, (0, 0), Some(&rec), t);
        claim
    }

    /// Deterministic power loss at boundary `e`
    /// ([`crate::config::DurableConfig::halt_at_boundary`]): run the
    /// boundary cut — drain, fsync'd seal, compaction, convergence
    /// check, metrics row — then stop without opening epoch `e`'s
    /// window. Publishes the cut's state hash so the halted report
    /// still carries final-state evidence.
    fn halt_boundary(&mut self, e: u64) {
        self.vtime = e * self.sched.every_ops as u64;
        self.advance_faults();
        self.quiesce(false, (e, true));
        self.compact_and_check_convergence(e);
        self.end_epoch(e - 1, e - 1);
        self.coord.hashes[self.me].store(self.table.state_hash(), Ordering::SeqCst);
    }

    /// Own events this worker records in epoch `e`'s window.
    fn window_quota(&self, e: u64, my_ops: usize) -> usize {
        if e == 0 || self.crashed {
            0
        } else {
            self.cfg.verify.window_ops.min(my_ops)
        }
    }

    /// One operation of the hot loop.
    fn step<G>(&mut self, gen: &G, rng: &mut StdRng)
    where
        G: Fn(NodeId, u64, &mut StdRng) -> SpaceInput<T::Input> + Sync,
    {
        self.vtime += 1;
        self.advance_faults();
        self.pump();
        let op = gen(self.me, self.tally.ops, rng);
        self.execute(op);
        self.tally.ops += 1;
    }

    /// Apply due fault events and release due held-back sends.
    fn advance_faults(&mut self) {
        self.fault_sched.apply_due(&mut self.ep, self.vtime);
        self.ep.advance_to(self.vtime);
    }

    /// The live replica serving routed reads of `shard` during epoch
    /// `e` — deterministic: every worker derives the same table from
    /// the shared schedule.
    fn compute_read_route(&self, e: u64) -> Vec<NodeId> {
        (0..self.map.shards())
            .map(|s| {
                *self
                    .map
                    .replicas(s)
                    .iter()
                    .find(|&&q| !self.sched.crashed_at(q, e))
                    .expect("validated: every shard keeps a live replica")
            })
            .collect()
    }

    /// The rendezvous opening epoch `e`: drain, recover, compact,
    /// check convergence, open the next verification window.
    fn epoch_boundary(&mut self, e: u64) {
        self.vtime = e * self.sched.every_ops as u64;
        self.advance_faults();
        self.read_route = self.compute_read_route(e);
        if e == 0 {
            return; // the run starts mid-epoch-0; first drain is at e=1
        }
        let was_crashed = self.crashed;
        self.crashed = self.sched.crashed_at(self.me, e);
        if !was_crashed && self.crashed {
            // the cut this drain establishes is the crash point
            self.tel.span(SpanKind::Crash, e, |_| {});
        }

        // the boundary drain: a worker crashing *at* this boundary
        // still participates normally — the drain is its cut
        self.quiesce(was_crashed, (e, true));

        // liveness flags for the coming epoch (deterministic: every
        // worker derives them from the shared schedule)
        for q in 0..self.ep.cluster_size() {
            self.ep.set_peer_crashed(q, self.sched.crashed_at(q, e));
        }

        // recovery state transfers at this boundary: per-shard, from
        // live co-replica helpers, anchored on the drain just completed
        let recoveries: Vec<CrashSpan> = self.sched.recoveries_at(e).copied().collect();
        if let Some(w) = self.watch.as_mut() {
            w.spans_recovery = !recoveries.is_empty();
        }
        if !recoveries.is_empty() {
            for span in &recoveries {
                if span.worker != self.me {
                    self.serve_recovery(span);
                    // envelopes stamped for the worker while it was
                    // down consumed delta state but were dropped, and
                    // its decode baselines restart from zero at resync:
                    // the next envelope on our edge to it must be a
                    // full knowledge refresh
                    self.proto.mark_refresh(span.worker);
                }
                if span.worker == self.me {
                    self.receive_shard_sync(span);
                }
            }
            self.coord.barrier.wait(); // transfers complete
            debug_assert!(
                self.durable.as_ref().is_none_or(|d| d.stash.is_empty()),
                "unconsumed recovery handshakes"
            );
        }

        // disk recovery: start retaining ops for each worker crashing
        // at this cut. Its own log replays exactly to this boundary,
        // so what this helper applies from here to the recovery
        // boundary is precisely the delta it will fetch. Activation
        // runs *after* the recovery block: delta ops installed above
        // are all pre-cut and must not leak into a new buffer.
        if let (Some(d), false) = (self.durable.as_mut(), self.crashed) {
            let (sched, map) = (self.sched, self.map);
            for span in sched.crashes_at(e) {
                if span.worker == self.me {
                    continue;
                }
                let shards: Vec<(u32, Vec<WireOp<T::Input>>)> = map
                    .hosted(span.worker)
                    .iter()
                    .filter(|&&s| sched.shard_helper(span, map.replicas(s)) == Some(self.me))
                    .map(|&s| (s as u32, Vec::new()))
                    .collect();
                if !shards.is_empty() {
                    d.retain.push(RetainBuf {
                        for_worker: span.worker,
                        ops: shards,
                    });
                }
            }
        }

        self.compact_and_check_convergence(e);

        // epoch e-1 is over everywhere (its repair round included):
        // seal its spans and difference its metrics row
        self.end_epoch(e - 1, e - 1);
        self.tel.trace_epoch = e;

        // open window e-1
        let wid = e - 1;
        if self.crashed {
            let _ = self
                .tx
                .send(WindowRecord::crashed(self.me, wid, self.table.snapshot()));
        } else {
            let quota = self.window_quota(e, self.sched.ops_of(self.me, e));
            let spans_recovery = !recoveries.is_empty();
            self.recorder
                .start(wid, quota, self.table.snapshot(), spans_recovery);
        }
    }

    /// Execute one operation against the local replica. Updates and
    /// hosted reads are wait-free; a read of a non-hosted object blocks
    /// on a routed request/reply (serving peers' traffic meanwhile).
    fn execute(&mut self, op: SpaceInput<T::Input>) {
        let t = Instant::now();
        let is_update = self.adt.is_update(&op.input);
        if !is_update && !self.map.hosts(self.me, self.map.shard_of(op.obj)) {
            let shard = self.map.shard_of(op.obj);
            let server = self.read_route[shard];
            let obj = op.obj;
            self.remote_read(op.obj, op.input);
            let lat = t.elapsed().as_nanos() as u64;
            self.tel.hist_epoch.record(lat);
            self.tel
                .span_from(SpanKind::ReadRoute, self.tally.ops, t, |sp| {
                    sp.peer = server as i64;
                    sp.shard = shard as i64;
                    sp.a = obj as u64;
                    sp.dur_ns = lat;
                });
            return;
        }
        // updates always execute at a replica of their object
        let obj = if is_update {
            self.map.localize(self.me, op.obj)
        } else {
            op.obj
        };
        let ts = Timestamp::new(self.clock.tick(), self.me);
        let output = self.table.output(self.adt, obj, &op.input);
        if is_update {
            self.tally.updates += 1;
            self.table.apply_update(self.adt, obj, ts, &op.input);
            if let Some(d) = self.durable.as_mut() {
                // reads are pure and replay from state; only the
                // applied update needs a log record
                d.log
                    .log_own(obj, ts, &op.input)
                    .expect("append an own-update record");
                if !d.retain.is_empty() {
                    d.retain_op(self.map.shard_of(obj) as u32, obj, ts, &op.input);
                }
            }
        } else {
            self.tally.reads += 1;
        }
        // certify the output against the shadow state (queries) and
        // fold the update in; any mismatch escalates to the exact
        // checkers right here, on the implicated window
        self.certify(obj, |m, slot| m.on_own(slot, &op.input, &output, ts.time));
        let wseq = self.recorder.on_own(
            self.me,
            OwnEvent {
                obj,
                input: op.input.clone(),
                output,
                ts,
            },
        );
        if is_update {
            let mask = self.map.mask(self.map.shard_of(obj));
            if mask != InterestMask::solo(self.me) {
                // at least one other replica is interested
                let pending = self.proto.push(
                    WireOp {
                        obj,
                        input: op.input,
                        ts,
                        wseq,
                    },
                    mask,
                );
                self.tally.peak_pending = self.tally.peak_pending.max(pending);
                if pending >= self.cfg.batch.threshold() {
                    self.flush_mask(mask);
                }
            }
        }
        let lat = t.elapsed().as_nanos() as u64;
        self.tel.hist_epoch.record(lat);
        if self.tel.on() {
            let stride = self.cfg.obs.op_sample_every;
            // deterministic stride on the worker's own op counter
            if stride > 0 && self.tally.ops.is_multiple_of(stride as u64) {
                let shard = self.map.shard_of(obj) as i64;
                self.tel.span_from(SpanKind::Op, self.tally.ops, t, |sp| {
                    sp.shard = shard;
                    sp.a = obj as u64;
                    sp.flag = is_update;
                    sp.dur_ns = lat;
                });
            }
        }
    }

    /// Route a read of a non-hosted object to a live replica of its
    /// shard and wait for the reply — serving every other message kind
    /// while waiting, so two workers reading across each other can
    /// never deadlock.
    fn remote_read(&mut self, obj: u32, input: T::Input) {
        let server = self.read_route[self.map.shard_of(obj)];
        self.tally.remote_reads += 1;
        self.tally.reads += 1;
        self.ep.send_reliable(
            server,
            StoreMsg::ReadReq { obj, input },
            read_req_bytes::<T::Input>(),
        );
        loop {
            match self.ep.recv() {
                Some((from, msg)) => {
                    if self.handle(from, msg).is_some() {
                        return;
                    }
                }
                None => unreachable!("mesh closed while a routed read was in flight"),
            }
        }
    }

    /// Seal and ship one mask's pending batch through the fault layer.
    fn flush_mask(&mut self, mask: InterestMask) {
        let envs = self.proto.flush_mask(mask);
        self.ship(envs);
    }

    /// Ship every pending batch, in first-push mask order (drains).
    fn flush_all(&mut self) {
        let envs = self.proto.flush_all();
        self.ship(envs);
    }

    /// The sender's knowledge as it stood *before* the flush that
    /// produced `envs` — the clock a `batch_flush` span carries, chosen
    /// so every matching `deliver` span's (post-stamp) clock dominates
    /// it. Reconstructed from the post-flush matrix by undoing the
    /// per-edge send increments, so unsampled flushes never pay for
    /// the matrix clone.
    fn preflush_clock(&self, envs: &[(NodeId, BatchMsg<T::Input>)]) -> Vec<u64> {
        let n = self.ep.cluster_size();
        let mut k = self.proto.knowledge();
        for (to, _) in envs {
            k[self.me * n + *to] -= 1;
        }
        k
    }

    /// Are `batch_flush`/`deliver` spans being recorded at all?
    fn trace_batches(&self) -> bool {
        self.tel.on() && self.cfg.obs.batch_sample_every > 0
    }

    /// Deterministic envelope-span sampling: strided on the per-edge
    /// seq, so the flush and deliver halves of an envelope always
    /// sample together and the sampled set reproduces across runs.
    fn sample_batch(&self, seq: u64) -> bool {
        let stride = self.cfg.obs.batch_sample_every as u64;
        stride > 0 && seq.is_multiple_of(stride)
    }

    /// Send stamped envelopes through the fault layer, retaining each
    /// in its recipient's epoch repair log when faults can lose it —
    /// the one place the retention rule and byte accounting live, so
    /// the threshold-flush and drain-flush paths can never diverge.
    fn ship(&mut self, envs: Vec<(NodeId, BatchMsg<T::Input>)>) {
        // exact per-envelope delta header sizes (the dense era charged
        // a flat 8·n² here); sizes depend on flush-time knowledge, so
        // this counter — unlike message/batch/payload counts — is not
        // interleaving-deterministic
        self.tally.matrix_bytes += envs
            .iter()
            .map(|(_, e)| e.knows.wire_len(e.sender, e.seq) as u64)
            .sum::<u64>();
        self.tally.payload_copy_ops += envs
            .iter()
            .map(|(_, e)| e.payload.len() as u64)
            .sum::<u64>();
        let vc = (self.trace_batches() && envs.iter().any(|(_, e)| self.sample_batch(e.seq)))
            .then(|| (self.preflush_clock(&envs), Instant::now()));
        for (to, env) in envs {
            let bytes = batch_bytes(&env);
            if let Some((vc, at)) = &vc {
                if self.sample_batch(env.seq) {
                    self.tel
                        .span_from(SpanKind::BatchFlush, env.seq, *at, |sp| {
                            sp.peer = to as i64;
                            sp.a = env.payload.len() as u64;
                            sp.vc = vc.clone();
                        });
                }
            }
            if self.loss_capable {
                // the repair log only matters when faults can lose
                // envelopes (and hence nacks can arrive); fault-free,
                // duplication-only, and latency-only runs skip the
                // clone and the retained memory on their hot path
                self.epoch_sent[to].push(env.clone());
            }
            self.ep.send(to, StoreMsg::Batch(env), bytes);
        }
    }

    /// Handle one inbound message; returns the output when it answers
    /// this worker's outstanding routed read.
    fn handle(&mut self, from: NodeId, msg: Msg<T>) -> Option<T::Output> {
        match msg {
            StoreMsg::Batch(env) => self.deliver(env),
            StoreMsg::Repair(envs) => {
                for env in envs {
                    self.deliver(env);
                }
            }
            StoreMsg::Nack => {
                // retransmit the whole per-edge epoch log: which prefix
                // the nacker already delivered depends on interleaving,
                // and its duplicate suppression discards the rest — so
                // the repair size stays deterministic
                let tail: Vec<BatchMsg<T::Input>> = self.epoch_sent[from].clone();
                self.tally.repairs += 1;
                self.tally.repaired_batches += tail.len() as u64;
                // same logical key the nacker used for this edge:
                // nacks are served within the drain that sent them
                let key = self.quiesce_idx * self.ep.cluster_size() as u64 + from as u64;
                self.tel.span(SpanKind::NackRepair, key, |sp| {
                    sp.peer = from as i64;
                    sp.a = tail.len() as u64;
                    sp.flag = true; // the repair half
                });
                let bytes = repair_bytes(&tail);
                self.ep.send_reliable(from, StoreMsg::Repair(tail), bytes);
            }
            StoreMsg::ReadReq { obj, input } => {
                let output = self.table.output(self.adt, obj, &input);
                self.tally.reads_served += 1;
                // routed reads are certified where they are answered:
                // the issuer has no replica (and no shadow) of this
                // shard, the server has both — summed across workers
                // this is what closes the 100%-of-ops accounting under
                // partial replication
                self.certify(obj, |m, slot| m.on_served_read(slot, &input, &output));
                self.ep.send_reliable(
                    from,
                    StoreMsg::ReadReply { output },
                    read_reply_bytes::<T::Output>(),
                );
            }
            StoreMsg::ReadReply { output } => return Some(output),
            StoreMsg::ShardSync(_) => {
                // a state transfer outside the recovery phase is a
                // protocol bug; tolerate and count rather than corrupt
                // the replica
                debug_assert!(false, "unexpected ShardSync outside recovery");
                self.tally.discarded += 1;
            }
            StoreMsg::SyncReq { .. } | StoreMsg::ShardDelta(_) => {
                // the disk-recovery handshake lives entirely inside the
                // boundary's recovery phase; anywhere else is a bug
                debug_assert!(false, "recovery handshake outside the recovery phase");
                self.tally.discarded += 1;
            }
        }
        None
    }

    /// Integrate everything that has arrived (non-blocking).
    fn pump(&mut self) -> bool {
        let mut got_any = false;
        while let Some((from, msg)) = self.ep.try_recv() {
            got_any = true;
            let reply = self.handle(from, msg);
            debug_assert!(reply.is_none(), "read reply with no outstanding request");
        }
        got_any
    }

    /// Deliver one batch envelope through the interest causal layer.
    fn deliver(&mut self, env: BatchMsg<T::Input>) {
        for batch in self.proto.on_receive(env) {
            self.tally.delivered += 1;
            let sender = batch.sender;
            if let Some(d) = self.durable.as_mut() {
                // one record per causally-delivered batch: replay
                // re-applies it in the same delivery order
                d.log
                    .log_batch(sender, batch.seq, &batch.payload)
                    .expect("append a delivered-batch record");
            }
            if self.trace_batches() && self.sample_batch(batch.seq) {
                self.tel.span(SpanKind::Deliver, batch.seq, |sp| {
                    sp.peer = sender as i64;
                    sp.a = batch.payload.len() as u64;
                    // envelopes carry only knowledge *deltas* now, so
                    // the span stamps the receiver's post-fold
                    // knowledge snapshot instead: it dominates the
                    // envelope's full matrix (the fold just merged it
                    // in), so it still dominates the matching flush
                    // span's pre-flush clock — the pairing invariant
                    // the trace checker verifies
                    sp.vc = self.proto.knowledge();
                });
            }
            for op in batch.payload {
                self.clock.observe(op.ts.time);
                self.table.apply_update(self.adt, op.obj, op.ts, &op.input);
                let stamp = Stamp::new(op.ts.time, op.ts.pid);
                self.certify(op.obj, |m, slot| m.on_delivered(slot, &op.input, stamp));
                self.recorder.on_remote(sender, op.wseq);
                if let Some(d) = self.durable.as_mut() {
                    if !d.retain.is_empty() {
                        d.retain_op(self.map.shard_of(op.obj) as u32, op.obj, op.ts, &op.input);
                    }
                }
            }
        }
        let t = &mut self.tally;
        t.peak_buffered = t.peak_buffered.max(self.proto.buffered());
        t.peak_suppression = t.peak_suppression.max(self.proto.suppression_len());
    }

    /// This worker's cut descriptor for a durable seal: everything a
    /// restart needs to continue from the cut (script position,
    /// Lamport clock, delivered frontier, state hash, monitor
    /// counters).
    fn seal_info(&self, epoch: u64, boundary: bool) -> SealInfo {
        SealInfo {
            epoch,
            boundary,
            issued: self.tally.ops,
            lamport: self.clock.now(),
            delivered: self.proto.delivered_edges().to_vec(),
            state_hash: self.table.state_hash(),
            monitor: self.monitor_stats(),
        }
    }

    /// Seal the just-completed cut in the durable epoch log (one
    /// fsync), and compact into a snapshot when the boundary cadence
    /// says so. No-op without a log.
    fn durable_seal(&mut self, epoch: u64, boundary: bool) {
        if self.durable.is_none() {
            return;
        }
        let seal = self.seal_info(epoch, boundary);
        let every = self.cfg.durable.snapshot_every;
        let table = &self.table;
        if let Some(d) = self.durable.as_mut() {
            let compact = d.log.seal(&seal, every).expect("seal the epoch log");
            if compact {
                d.log
                    .snapshot(&seal, &table.snapshot())
                    .expect("write the epoch-log snapshot");
            }
        }
    }

    /// The drain: flush, publish the per-edge counts, then receive
    /// until every published envelope on every inbound edge has been
    /// delivered — nacking edges whose envelopes were lost to faults,
    /// and serving peers' nacks and routed reads until *everyone* is
    /// complete. A worker that spent the last epoch crashed
    /// (`discard`) drains and discards instead: its state is
    /// re-established by the recovery transfer, not by late delivery.
    ///
    /// `cut` is the drain's identity for the durable epoch log:
    /// `(epoch, is_epoch_boundary)`. Live drains seal it with an fsync
    /// once the closing barrier confirms the cut is complete
    /// everywhere — the cut, not the record append, is the durability
    /// unit (`docs/DURABILITY.md`).
    fn quiesce(&mut self, discard: bool, cut: (u64, bool)) {
        let t = Instant::now();
        let n = self.ep.cluster_size();
        let parity = (self.quiesce_idx % 2) as usize;
        self.quiesce_idx += 1;
        if !discard {
            self.flush_all();
            self.ep.flush_delayed(); // held-back sends belong to this cut
        }
        // cut token behind everything this worker actually transmitted:
        // receivers wait for it before judging per-edge gaps, so an
        // asynchronous transport's in-flight frames are never mistaken
        // for faulted ones (no-op on the synchronous thread transport)
        self.ep.send_marker();
        for r in 0..n {
            if r != self.me {
                self.coord.sent_edges[self.me * n + r]
                    .store(self.proto.edge_sent(r), Ordering::SeqCst);
            }
        }
        // arrival: spin (serving traffic) until every worker has
        // published its cut counts — only then are gaps meaningful
        self.coord.arrive[parity].fetch_add(1, Ordering::SeqCst);
        if discard {
            while self.coord.arrive[parity].load(Ordering::SeqCst) < n as u64 {
                while self.ep.try_recv().is_some() {
                    self.tally.discarded += 1;
                }
                std::thread::yield_now();
            }
            while self.ep.try_recv().is_some() {
                self.tally.discarded += 1;
            }
            self.coord.done[parity].fetch_add(1, Ordering::SeqCst);
            while self.coord.done[parity].load(Ordering::SeqCst) < n as u64 {
                while self.ep.try_recv().is_some() {
                    self.tally.discarded += 1;
                }
                std::thread::yield_now();
            }
        } else {
            while self.coord.arrive[parity].load(Ordering::SeqCst) < n as u64 {
                if !self.pump() {
                    std::thread::yield_now();
                }
            }
            // settle the transport: every peer has published its cut
            // and sent its marker behind its final transmissions, so
            // once all markers are in, what has not arrived never will
            while !(0..n).all(|q| q == self.me || self.ep.marker_count(q) >= self.quiesce_idx) {
                if !self.pump() {
                    std::thread::yield_now();
                }
            }
            // everything sent for this cut is on the wire; whatever was
            // not *received* after this pump was dropped or parked by
            // the fault layer — nack each such edge once. The received
            // count (delivered + buffered) is used rather than the
            // delivered count: an envelope stuck behind a lost
            // dependency counts as received, so the nack set is a pure
            // function of the loss pattern, not of interleaving.
            self.pump();
            for q in 0..n {
                if q != self.me
                    && self.proto.received_from(q)
                        < self.coord.sent_edges[q * n + self.me].load(Ordering::SeqCst)
                {
                    self.tally.nacks += 1;
                    // logical key shared with the serving side: drain
                    // number × cluster + the stalled edge
                    let key = self.quiesce_idx * n as u64 + q as u64;
                    self.tel.span(SpanKind::NackRepair, key, |sp| {
                        sp.peer = q as i64;
                        sp.flag = false; // the nack half
                    });
                    self.ep.send_reliable(q, StoreMsg::Nack, nack_bytes());
                }
            }
            let mut done_marked = false;
            loop {
                let got_any = self.pump();
                if !done_marked && (0..n).all(|q| q == self.me || !self.missing_from(q)) {
                    done_marked = true;
                    self.coord.done[parity].fetch_add(1, Ordering::SeqCst);
                }
                if done_marked && self.coord.done[parity].load(Ordering::SeqCst) >= n as u64 {
                    break;
                }
                if !got_any {
                    std::thread::yield_now();
                }
            }
        }
        // reset the other parity slots for the next drain while every
        // worker is still on this side of the closing barrier
        if self.me == 0 {
            self.coord.arrive[1 - parity].store(0, Ordering::SeqCst);
            self.coord.done[1 - parity].store(0, Ordering::SeqCst);
        }
        self.coord.barrier.wait(); // globally drained
        if !discard {
            // seal the cut on disk: every worker's drain is complete,
            // so a restart replaying to this seal lands on a
            // fleet-wide consistent cut. Crashed-discard drains write
            // nothing — their log stays frozen at the crash cut.
            self.durable_seal(cut.0, cut.1);
        }
        // the cut is complete everywhere: the repair logs are dead
        // weight, and parked sends' payloads have been repaired (the
        // partition itself stays in force for post-drain traffic)
        for log in self.epoch_sent.iter_mut() {
            log.clear();
        }
        self.ep.prune_parked();
        self.tel.metrics.drains.add(1);
        let (delivered, nacks) = (self.tally.delivered, self.tally.nacks);
        self.tel
            .span_from(SpanKind::Drain, self.quiesce_idx, t, |sp| {
                sp.a = delivered; // cumulative at the cut
                sp.b = nacks;
                sp.flag = !discard;
                sp.dur_ns = t.elapsed().as_nanos() as u64;
            });
    }

    /// Has `q` published envelopes on its edge to us that we have not
    /// delivered?
    fn missing_from(&self, q: NodeId) -> bool {
        self.proto.delivered_edges()[q]
            < self.coord.sent_edges[q * self.ep.cluster_size() + self.me].load(Ordering::SeqCst)
    }

    /// Ship this worker's post-drain states of every shard it was
    /// elected to serve for `span` (reliable): the full state transfer.
    fn send_shard_states(&mut self, span: &CrashSpan) {
        let shards: Vec<(u32, Vec<T::State>)> = self
            .map
            .hosted(span.worker)
            .iter()
            .filter(|&&s| self.sched.shard_helper(span, self.map.replicas(s)) == Some(self.me))
            .map(|&s| (s as u32, self.table.shard_snapshot(self.map.slots_of(s))))
            .collect();
        if shards.is_empty() {
            return;
        }
        let payload = ShardSyncPayload {
            shards,
            lamport: self.clock.now(),
        };
        let bytes = sync_bytes(&payload);
        self.ep
            .send_reliable(span.worker, StoreMsg::ShardSync(Box::new(payload)), bytes);
    }

    /// Helper side of a recovery. Without a log: the full state
    /// transfer. With one: wait for the recoverer's handshake, then
    /// ship either the retained op delta past its replayed crash cut
    /// (`full = false`) or — when its disk was torn or stale — the full
    /// post-drain shard states, exactly as the memory path does.
    fn serve_recovery(&mut self, span: &CrashSpan) {
        let elected = self
            .map
            .hosted(span.worker)
            .iter()
            .any(|&s| self.sched.shard_helper(span, self.map.replicas(s)) == Some(self.me));
        let Some(d) = self.durable.as_mut() else {
            return self.send_shard_states(span);
        };
        let buf = d
            .retain
            .iter()
            .position(|b| b.for_worker == span.worker)
            .map(|i| d.retain.swap_remove(i));
        if !elected {
            debug_assert!(buf.is_none(), "a retention buffer with no election");
            return;
        }
        // block until the recoverer's handshake arrives. Handshakes
        // from *other* simultaneous recoverers are stashed for the
        // spans served later in the boundary's span list; nothing else
        // can arrive — every worker is inside the recovery phase, past
        // the drain's closing barrier.
        let full = match d
            .stash
            .iter()
            .position(|(from, m)| *from == span.worker && matches!(m, StoreMsg::SyncReq { .. }))
        {
            Some(i) => matches!(d.stash.swap_remove(i).1, StoreMsg::SyncReq { full: true }),
            None => loop {
                match self.ep.recv() {
                    Some((from, StoreMsg::SyncReq { full })) if from == span.worker => break full,
                    Some(other) => d.stash.push(other),
                    None => unreachable!("mesh closed during the recovery handshake"),
                }
            },
        };
        if full {
            self.send_shard_states(span);
        } else {
            let buf = buf.expect("every elected helper activated a retention buffer");
            let payload = ShardDeltaPayload {
                shards: buf.ops,
                lamport: self.clock.now(),
            };
            let bytes = delta_bytes(&payload);
            self.ep
                .send_reliable(span.worker, StoreMsg::ShardDelta(Box::new(payload)), bytes);
        }
    }

    /// Recovering side: the recovery ladder of `docs/DURABILITY.md`.
    /// Without a disk, install every hosted shard's state from its
    /// helper (full transfer). With one, replay the own snapshot + log
    /// tail first — a clean replay to the crash cut downgrades the
    /// fetch to per-shard op deltas; a torn or stale disk falls back to
    /// the full transfer. Either way the causal layer then resyncs
    /// straight off the drain's published edge matrix — the drain *is*
    /// the cut, so no envelope replay is needed.
    fn receive_shard_sync(&mut self, span: &CrashSpan) {
        let t = Instant::now();
        let expected: std::collections::HashSet<NodeId> = self
            .map
            .hosted(self.me)
            .iter()
            .map(|&s| {
                self.sched
                    .shard_helper(span, self.map.replicas(s))
                    .expect("validated: every hosted shard has a live helper")
            })
            .collect();
        // rung 1: the own disk, if it sealed exactly the crash cut; a
        // torn, corrupt, or wrong-cut disk leaves rung 3, the full
        // co-replica state transfer
        let replay = self
            .replay_own_disk()
            .filter(|r| r.seal.boundary && r.seal.epoch == span.crash_epoch);
        let full = replay.is_none();
        if let Some(rec) = &replay {
            debug_assert_eq!(
                rec.seal.issued, self.tally.ops,
                "the sealed script position matches the paused script"
            );
            self.install_cut(rec);
        }
        if self.durable.is_some() {
            // handshake each helper (deterministic order) *before*
            // blocking on their responses
            let mut helpers: Vec<NodeId> = expected.iter().copied().collect();
            helpers.sort_unstable();
            for h in helpers {
                self.ep
                    .send_reliable(h, StoreMsg::SyncReq { full }, sync_req_bytes());
            }
        }
        let (mut synced_shards, mut synced_objects) = (0u64, 0u64);
        let mut served = 0usize;
        while served < expected.len() {
            match self.ep.recv() {
                Some((from, StoreMsg::ShardSync(payload))) => {
                    debug_assert!(expected.contains(&from), "sync from a non-helper");
                    debug_assert!(full, "a full transfer was not requested");
                    let p = *payload;
                    for (s, states) in &p.shards {
                        synced_shards += 1;
                        synced_objects += states.len() as u64;
                        self.table
                            .install_slots(self.map.slots_of(*s as usize), states);
                        // the monitor rebuilds from the same per-shard
                        // transfer (see `reseed_watch`)
                        if let Some(w) = self.watch.as_mut() {
                            for (slot, st) in self.map.slots_of(*s as usize).zip(states.iter()) {
                                w.monitor.install_slot(slot, st);
                            }
                        }
                    }
                    self.clock.observe(p.lamport);
                    served += 1;
                }
                Some((from, StoreMsg::ShardDelta(payload))) => {
                    // rung 2: the outage-window op delta, applied onto
                    // the cut state the disk replay just installed
                    debug_assert!(expected.contains(&from), "delta from a non-helper");
                    debug_assert!(!full, "a delta was not requested");
                    let p = *payload;
                    for (_, ops) in &p.shards {
                        synced_shards += 1;
                        synced_objects += ops.len() as u64;
                        for op in ops {
                            self.clock.observe(op.ts.time);
                            self.table.apply_update(self.adt, op.obj, op.ts, &op.input);
                        }
                    }
                    self.clock.observe(p.lamport);
                    served += 1;
                }
                Some((from, msg @ StoreMsg::SyncReq { .. })) => {
                    // another simultaneous recoverer's handshake, for a
                    // span this worker serves later in the span list
                    // (handshakes only exist with a log)
                    if let Some(d) = self.durable.as_mut() {
                        d.stash.push((from, msg));
                    }
                }
                Some(_) => self.tally.discarded += 1, // pre-recovery straggler
                None => unreachable!("mesh closed during recovery"),
            }
        }
        if !full {
            // the delta path rebuilt the table, not the shadows
            self.reseed_watch();
        }
        let n = self.ep.cluster_size();
        let delivered: Vec<u64> = (0..n)
            .map(|j| self.coord.sent_edges[j * n + self.me].load(Ordering::SeqCst))
            .collect();
        let matrix: Vec<u64> = (0..n * n)
            .map(|i| self.coord.sent_edges[i].load(Ordering::SeqCst))
            .collect();
        self.proto.resync(&delivered, &matrix);
        if let Some(w) = self.watch.as_mut() {
            w.monitor.resync();
        }
        for log in self.epoch_sent.iter_mut() {
            log.clear(); // pre-crash sends are all below the cut
        }
        // the log froze at the crash cut and the outage left a gap it
        // can never describe
        self.snapshot_cut(span.recover_epoch);
        self.tel
            .span_from(SpanKind::Recover, span.recover_epoch, t, |sp| {
                sp.peer = span.helper as i64;
                sp.a = synced_shards;
                sp.b = synced_objects;
                sp.dur_ns = t.elapsed().as_nanos() as u64;
            });
        self.note_recovery(span, (synced_shards, synced_objects), replay.as_ref(), t);
    }

    /// A worker met its window quota: drain so the window is closed
    /// everywhere, then hand the record to the verifier. Crashed
    /// workers already sent their placeholder at the open. `e` is the
    /// epoch whose window closes (the mid-epoch cut's log identity).
    fn close_window(&mut self, e: u64) {
        self.quiesce(self.crashed, (e, false));
        if self.recorder.active() {
            let record = self.recorder.finish(self.me);
            // a failed channel send only means the verifier died;
            // surface that at join time, not here
            let _ = self.tx.send(record);
        }
    }

    /// Teardown: one last drain and convergence check. Every crash
    /// span has recovered by now (the schedule guarantees it), so all
    /// replicas participate and publish their final state hashes.
    fn final_drain(&mut self) {
        self.vtime = self.sched.n_epochs * self.sched.every_ops as u64;
        self.advance_faults();
        debug_assert!(!self.crashed, "schedule must recover everyone");
        self.quiesce(false, (self.sched.n_epochs, true));
        self.compact_and_check_convergence(self.sched.n_epochs);
        // seal past n_epochs-1 so fault events stamped at the final
        // boundary tick (epoch index n_epochs) are retained too
        self.end_epoch(self.sched.n_epochs - 1, self.sched.n_epochs);
        // the full-space hash feeds only the report's final_state_hashes
        // (read after the threads join), so it is computed once here
        // rather than at every drain; intermediate convergence checks
        // run on the per-shard hashes
        self.coord.hashes[self.me].store(self.table.state_hash(), Ordering::SeqCst);
    }

    /// At a global drain: compact arbitration logs, publish this
    /// replica's per-hosted-shard state hashes, and (first live
    /// replica of each shard, convergent mode) record a divergence if
    /// the shard's live replicas disagree.
    fn compact_and_check_convergence(&mut self, e: u64) {
        if !self.crashed {
            self.table.compact();
            // same cut, same argument: every future stamp exceeds
            // every folded one, so the monitor's shadow rings compact
            // into their seeds here too
            if let Some(w) = self.watch.as_mut() {
                w.monitor.on_drain();
            }
        }
        let shards = self.map.shards();
        for &s in self.map.hosted(self.me) {
            self.coord.shard_hashes[self.me * shards + s].store(
                self.table.shard_hash(self.map.slots_of(s)),
                Ordering::SeqCst,
            );
        }
        self.coord.barrier.wait(); // hashes published
        if self.cfg.mode == Mode::Convergent {
            for s in 0..shards {
                let live: Vec<NodeId> = self
                    .map
                    .replicas(s)
                    .iter()
                    .copied()
                    .filter(|&q| !self.sched.crashed_at(q, e))
                    .collect();
                if live.first() == Some(&self.me) {
                    let h0 = self.coord.shard_hashes[self.me * shards + s].load(Ordering::SeqCst);
                    if live.iter().any(|&q| {
                        self.coord.shard_hashes[q * shards + s].load(Ordering::SeqCst) != h0
                    }) {
                        self.coord.divergences.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
        }
    }
}
