//! The traced replay: one workload's op stream driven single-threaded
//! through two replicas' public modules in engine order —
//! generate → output/apply → log_own → monitor fold → push/flush →
//! `wire::to_bytes` → `tcp::frame` → `FrameDecoder` → `from_bytes` →
//! `on_receive` → log_batch → apply → monitor fold → drain (compact,
//! seal). Every call sits inside a span (name, start, end, parent);
//! calls cheaper than a few clock reads (generate, output, apply,
//! log_own, on_own, push, on_delivered) are timed in groups of
//! consecutive calls, and the calibrated cost of one clock read is
//! taken off every span.

use crate::{gen_op, Workload, BATCH, OBJECTS, WORKERS};
use cbm_adt::register::{RegInput, RegOutput, Register};
use cbm_adt::space::SpaceInput;
use cbm_adt::Adt;
use cbm_check::monitor::{CcMonitor, CcvMonitor, Escalation, MonitorStats, Stamp};
use cbm_net::broadcast::InterestBatchCausalBroadcast;
use cbm_net::clock::{LamportClock, Timestamp};
use cbm_net::mask::{full_interest, InterestMask};
use cbm_net::tcp::{frame, FrameDecoder};
use cbm_net::wire::{from_bytes, to_bytes};
use cbm_store::durable::{EpochLog, SealInfo};
use cbm_store::objects::ObjectTable;
use cbm_store::wire::{StoreMsg, WireOp};
use cbm_store::{DurableConfig, Mode, VerifyConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

type Msg = StoreMsg<RegInput, RegOutput, u64>;

/// Own ops a replica runs per turn before the other replica's turn.
const BLOCK: usize = 64;
const NO_PARENT: u32 = u32::MAX;

struct SpanRec {
    name: &'static str,
    start: u64,
    end: u64,
    parent: u32,
    /// Calls the span times (a group span covers several).
    calls: u64,
}

/// In-memory span recorder; spans nest through an open-span stack.
struct Tracer {
    base: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<u32>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) {
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(self.spans.len() as u32);
        let start = self.now();
        self.spans.push(SpanRec {
            name,
            start,
            end: 0,
            parent,
            calls: 1,
        });
    }

    fn close(&mut self, calls: u64) {
        let end = self.now();
        let id = self.stack.pop().expect("close without an open span") as usize;
        self.spans[id].end = end;
        self.spans[id].calls = calls;
    }
}

/// The cost of one clock read as the tracer takes it: the median over
/// batches of back-to-back reads.
fn calibrate_clock(t: &Tracer) -> f64 {
    const READS: u32 = 20_000;
    let mut per_read: Vec<f64> = (0..25)
        .map(|_| {
            let a = Instant::now();
            for _ in 0..READS {
                black_box(t.now());
            }
            a.elapsed().as_nanos() as f64 / READS as f64
        })
        .collect();
    per_read.sort_by(|a, b| a.total_cmp(b));
    per_read[per_read.len() / 2]
}

/// Per-span-name totals of the replay.
pub struct Ledger {
    /// name → (self time in ns, calls timed)
    by_name: BTreeMap<&'static str, (f64, u64)>,
    total_self_ns: f64,
    pub clock_read_ns: f64,
    /// Ops the replay issued across both replicas.
    pub ops: u64,
    wire_bytes: u64,
}

impl Ledger {
    fn from_spans(spans: &[SpanRec], clock_read_ns: f64, ops: u64, wire_bytes: u64) -> Ledger {
        let mut child_ns = vec![0u64; spans.len()];
        let mut children = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end - s.start;
                children[s.parent as usize] += 1;
            }
        }
        let mut by_name: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        let mut total_self_ns = 0.0;
        for (i, s) in spans.iter().enumerate() {
            // one clock read lands inside every span, and one more
            // per child span sits in the parent's own time
            let own = (s.end - s.start) as f64
                - child_ns[i] as f64
                - clock_read_ns * (1 + children[i]) as f64;
            let own = own.max(0.0);
            let e = by_name.entry(s.name).or_default();
            e.0 += own;
            e.1 += s.calls;
            total_self_ns += own;
        }
        Ledger {
            by_name,
            total_self_ns,
            clock_read_ns,
            ops,
            wire_bytes,
        }
    }

    fn get(&self, name: &str) -> (f64, u64) {
        self.by_name.get(name).copied().unwrap_or((0.0, 0))
    }

    /// Mean self time of one call of `name` (0 if it never ran).
    pub fn per_call(&self, name: &str) -> f64 {
        let (ns, calls) = self.get(name);
        if calls == 0 {
            0.0
        } else {
            ns / calls as f64
        }
    }

    /// `apply_update` across own updates (timed together with their
    /// `output`, which the read groups price) and delivered ones.
    pub fn apply_update_ns(&self) -> f64 {
        let (own_ns, own) = self.get("objects.update");
        let (remote_ns, remote) = self.get("objects.apply_update");
        let ns = own_ns - self.per_call("objects.output") * own as f64 + remote_ns;
        if own + remote == 0 {
            0.0
        } else {
            ns.max(0.0) / (own + remote) as f64
        }
    }

    /// Sum of every span's self time per replayed op.
    pub fn ns_per_op(&self) -> f64 {
        self.total_self_ns / self.ops as f64
    }

    /// Framed replication bytes per replayed op.
    pub fn wire_bytes_per_op(&self) -> f64 {
        self.wire_bytes as f64 / self.ops as f64
    }
}

enum Monitor {
    Off,
    Cc(CcMonitor<Register>),
    Ccv(CcvMonitor<Register>),
}

impl Monitor {
    fn on_own(&mut self, slot: u32, i: &RegInput, o: &RegOutput, time: u64) -> Option<Escalation> {
        match self {
            Monitor::Off => None,
            Monitor::Cc(m) => m.on_own(slot, i, o, time),
            Monitor::Ccv(m) => m.on_own(slot, i, o, time),
        }
    }

    fn on_delivered(&mut self, slot: u32, i: &RegInput, s: Stamp) -> Option<Escalation> {
        match self {
            Monitor::Off => None,
            Monitor::Cc(m) => m.on_delivered(slot, i, s),
            Monitor::Ccv(m) => m.on_delivered(slot, i, s),
        }
    }

    fn on_drain(&mut self) {
        match self {
            Monitor::Off => {}
            Monitor::Cc(m) => m.on_drain(),
            Monitor::Ccv(m) => m.on_drain(),
        }
    }

    fn stats(&self) -> MonitorStats {
        match self {
            Monitor::Off => MonitorStats::default(),
            Monitor::Cc(m) => m.stats(),
            Monitor::Ccv(m) => m.stats(),
        }
    }
}

struct Replica {
    me: usize,
    rng: StdRng,
    issued: u64,
    table: ObjectTable<Register>,
    proto: InterestBatchCausalBroadcast<WireOp<RegInput>>,
    clock: LamportClock,
    monitor: Monitor,
    log: Option<EpochLog>,
    /// Reassembles the frames the peer sends this replica.
    inbound: FrameDecoder,
}

/// Mutable state of one replay besides the replicas.
struct Run {
    tracer: Tracer,
    mode: Mode,
    mask: InterestMask,
    escalations: u64,
    wire_bytes: u64,
    failures: Vec<String>,
}

impl Run {
    /// Flush hand-off: encode, frame, reassemble, decode, and deliver
    /// every envelope at its recipient.
    fn ship(&mut self, envs: Vec<(usize, cbm_store::wire::BatchMsg<RegInput>)>, to: &mut Replica) {
        for (dest, env) in envs {
            assert_eq!(dest, to.me, "two replicas: every envelope goes to the peer");
            let t = &mut self.tracer;
            t.open("codec.encode");
            let body = to_bytes(&Msg::Batch(env));
            t.close(1);
            t.open("tcp.frame");
            let bytes = frame(&body);
            t.close(1);
            self.wire_bytes += bytes.len() as u64;
            t.open("tcp.decode_frame");
            to.inbound.push(&bytes);
            let body = to.inbound.next_frame();
            t.close(1);
            let body = body
                .expect("replayed frame passes its CRC")
                .expect("one whole frame");
            t.open("codec.decode");
            let msg = from_bytes::<Msg>(&body);
            t.close(1);
            let Some(Msg::Batch(env)) = msg else {
                self.failures
                    .push("replayed envelope did not decode".into());
                continue;
            };
            t.open("broadcast.on_receive");
            let batches = to.proto.on_receive(env);
            t.close(1);
            for batch in batches {
                if let Some(log) = to.log.as_mut() {
                    t.open("durable.log_batch");
                    log.log_batch(batch.sender, batch.seq, &batch.payload)
                        .expect("append a delivered-batch record");
                    t.close(1);
                }
                let n = batch.payload.len() as u64;
                t.open("objects.apply_update");
                for op in &batch.payload {
                    to.clock.observe(op.ts.time);
                    to.table.apply_update(&Register, op.obj, op.ts, &op.input);
                }
                t.close(n);
                if !matches!(to.monitor, Monitor::Off) {
                    t.open("monitor.on_delivered");
                    for op in &batch.payload {
                        let stamp = Stamp::new(op.ts.time, op.ts.pid);
                        if to
                            .monitor
                            .on_delivered(slot(op.obj), &op.input, stamp)
                            .is_some()
                        {
                            self.escalations += 1;
                        }
                    }
                    t.close(n);
                }
            }
        }
    }

    /// One replica's turn: `ops` own operations in engine order.
    fn turn(&mut self, me: &mut Replica, peer: &mut Replica, ops: usize, read_ratio: f64) {
        let t = &mut self.tracer;
        t.open("block");
        t.open("generate");
        let batch: Vec<SpaceInput<RegInput>> =
            (0..ops).map(|_| gen_op(&mut me.rng, read_ratio)).collect();
        t.close(ops as u64);
        let stamps: Vec<Timestamp> = (0..ops)
            .map(|_| Timestamp::new(me.clock.tick(), me.me))
            .collect();
        let updates: Vec<bool> = batch
            .iter()
            .map(|op| Register.is_update(&op.input))
            .collect();

        // objects: runs of reads are pure `output` groups; runs of
        // updates are output + apply_update groups
        let mut outputs = Vec::with_capacity(ops);
        let mut i = 0;
        while i < ops {
            let upd = updates[i];
            let j = (i..ops).find(|&k| updates[k] != upd).unwrap_or(ops);
            t.open(if upd {
                "objects.update"
            } else {
                "objects.output"
            });
            for k in i..j {
                let op = &batch[k];
                outputs.push(me.table.output(&Register, op.obj, &op.input));
                if upd {
                    me.table
                        .apply_update(&Register, op.obj, stamps[k], &op.input);
                }
            }
            t.close((j - i) as u64);
            i = j;
        }
        let own_updates = updates.iter().filter(|&&u| u).count() as u64;
        if let Some(log) = me.log.as_mut() {
            t.open("durable.log_own");
            for k in (0..ops).filter(|&k| updates[k]) {
                log.log_own(batch[k].obj, stamps[k], &batch[k].input)
                    .expect("append an own-update record");
            }
            t.close(own_updates);
        }
        if !matches!(me.monitor, Monitor::Off) {
            t.open("monitor.on_own");
            for k in 0..ops {
                let op = &batch[k];
                if me
                    .monitor
                    .on_own(slot(op.obj), &op.input, &outputs[k], stamps[k].time)
                    .is_some()
                {
                    self.escalations += 1;
                }
            }
            t.close(ops as u64);
        }
        black_box(&outputs);

        self.tracer.open("broadcast.push");
        for k in (0..ops).filter(|&k| updates[k]) {
            let op = WireOp {
                obj: batch[k].obj,
                input: batch[k].input,
                ts: stamps[k],
                wseq: None,
            };
            if me.proto.push(op, self.mask) >= BATCH {
                self.tracer.open("broadcast.flush");
                let envs = me.proto.flush_mask(self.mask);
                self.tracer.close(1);
                self.ship(envs, peer);
            }
        }
        self.tracer.close(own_updates);
        me.issued += ops as u64;
        self.tracer.close(ops as u64);
    }

    /// The epoch-boundary drain: flush everything, compact, check
    /// convergence, seal the logs.
    fn drain(&mut self, reps: &mut [Replica; 2], epoch: u64) {
        self.tracer.open("engine.drain");
        for r in 0..WORKERS {
            let (a, b) = reps.split_at_mut(1);
            let (me, peer) = if r == 0 {
                (&mut a[0], &mut b[0])
            } else {
                (&mut b[0], &mut a[0])
            };
            self.tracer.open("broadcast.flush");
            let envs = me.proto.flush_all();
            self.tracer.close(1);
            self.ship(envs, peer);
        }
        for r in reps.iter_mut() {
            if self.mode == Mode::Convergent {
                self.tracer.open("objects.compact");
                r.table.compact();
                self.tracer.close(1);
            }
            r.monitor.on_drain();
        }
        if self.mode == Mode::Convergent && reps[0].table.state_hash() != reps[1].table.state_hash()
        {
            self.failures
                .push(format!("replay replicas diverged at drain {epoch}"));
        }
        for r in reps.iter_mut() {
            let seal = SealInfo {
                epoch,
                boundary: true,
                issued: r.issued,
                lamport: r.clock.now(),
                delivered: r.proto.delivered_edges().to_vec(),
                state_hash: r.table.state_hash(),
                monitor: r.monitor.stats(),
            };
            let Some(log) = r.log.as_mut() else { continue };
            self.tracer.open("durable.seal");
            let compact = log
                .seal(&seal, DurableConfig::default().snapshot_every)
                .expect("seal the epoch log");
            self.tracer.close(1);
            if compact {
                self.tracer.open("durable.snapshot");
                log.snapshot(&seal, &r.table.snapshot())
                    .expect("write the epoch-log snapshot");
                self.tracer.close(1);
            }
        }
        self.tracer.close(1);
    }
}

/// Under full replication with a power-of-two object count the
/// monitor slot is the object id modulo the object count.
fn slot(obj: u32) -> u32 {
    obj % OBJECTS as u32
}

/// Replay `w`'s op stream for `seed` (the same per-worker generator
/// seeds as the engine) and return the per-layer ledger. Failed checks
/// are appended to `failures`.
pub fn run(w: &Workload, seed: u64, failures: &mut Vec<String>) -> Ledger {
    let log_dir = w.disk.then(|| crate::scratch_dir("replay"));
    let mut reps: [Replica; 2] = std::array::from_fn(|me| Replica {
        me,
        // the engine's per-worker seeding, so the op stream matches
        rng: StdRng::seed_from_u64(
            seed.wrapping_add((me as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        ),
        issued: 0,
        table: ObjectTable::new(&Register, OBJECTS, w.mode),
        proto: InterestBatchCausalBroadcast::new(me, WORKERS),
        clock: LamportClock::new(),
        monitor: match (w.monitor, w.mode) {
            (false, _) => Monitor::Off,
            (true, Mode::Causal) => Monitor::Cc(CcMonitor::new(Register, OBJECTS, WORKERS, me)),
            (true, Mode::Convergent) => {
                Monitor::Ccv(CcvMonitor::new(Register, OBJECTS, WORKERS, me))
            }
        },
        log: log_dir
            .as_ref()
            .map(|d| EpochLog::open(d, me, true).expect("open a replay epoch log")),
        inbound: FrameDecoder::new(),
    });
    let mut run = Run {
        tracer: Tracer {
            base: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        },
        mode: w.mode,
        mask: full_interest(WORKERS),
        escalations: 0,
        wire_bytes: 0,
        failures: Vec::new(),
    };
    let clock_read_ns = calibrate_clock(&run.tracer);

    let every = VerifyConfig::default().every_ops;
    let total = w.ops_per_worker;
    run.tracer.open("replay");
    let mut done = 0;
    let mut epoch = 0;
    while done < total {
        let ops = BLOCK.min(every - done % every).min(total - done);
        let (a, b) = reps.split_at_mut(1);
        run.turn(&mut a[0], &mut b[0], ops, w.read_ratio);
        run.turn(&mut b[0], &mut a[0], ops, w.read_ratio);
        done += ops;
        if done % every == 0 || done == total {
            epoch += 1;
            run.drain(&mut reps, epoch);
        }
    }
    run.tracer.close(1);

    if run.escalations != 0 {
        run.failures.push(format!(
            "replay monitor escalated {} time(s)",
            run.escalations
        ));
    }
    if let Some(dir) = &log_dir {
        drop(reps);
        crate::remove_dir(dir);
    }
    failures.append(&mut run.failures);
    let ops = (WORKERS * total) as u64;
    Ledger::from_spans(&run.tracer.spans, clock_read_ns, ops, run.wire_bytes)
}
