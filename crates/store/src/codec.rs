//! Binary codecs for everything the store moves across process
//! boundaries: engine messages over the real-socket transport
//! ([`cbm_net::tcp`]), and configs/reports over the bench control
//! protocol. Built on [`cbm_net::wire::Wire`]; see that module for the
//! format conventions.
//!
//! The ADT payload scalars ([`RegInput`], [`CtOutput`], …) are foreign
//! to this crate and so is `Wire`, so they encode through the local
//! [`PayloadCodec`] trait instead — implemented here for exactly the
//! alphabets the bench workloads drive through the engine. A new
//! workload ADT only needs a `PayloadCodec` impl to ride the socket
//! transport.
//!
//! `&'static str` report fields (window criterion, escalation pattern
//! and verdict names) travel as strings and re-intern on decode
//! against the known vocabulary; an unknown name (a newer peer) leaks
//! one small allocation rather than failing the decode.
//!
//! Flight-recorder traces deliberately do **not** cross the wire: a
//! multi-process run dumps traces node-side (the files are the
//! artifact CI collects) and ships reports with `trace: None`.

use crate::config::{
    BatchPolicy, DurableConfig, Mode, ObsConfig, ShardConfig, StoreConfig, VerifyConfig,
};
use crate::stats::{
    ChaosReport, EpochMetrics, LatencySummary, MonitorEscalation, MonitorReport, RecoveryStats,
    StoreReport, WindowVerdict, WorkerStats,
};
use crate::wire::{ShardDeltaPayload, ShardSyncPayload, StoreMsg, WireOp};
use cbm_adt::counter::{CtInput, CtOutput};
use cbm_adt::register::{RegInput, RegOutput};
use cbm_net::clock::Timestamp;
use cbm_net::fault::FaultPlan;
use cbm_net::wire::Wire;

/// Local codec surface for ADT input/output/state scalars (mirrors
/// [`Wire`]; exists because both `Wire` and the ADT alphabets are
/// foreign here, so a blanket orphan impl is impossible).
pub trait PayloadCodec: Sized {
    /// Append this value's encoding to `out`.
    fn enc(&self, out: &mut Vec<u8>);
    /// Decode one value at `*pos`, advancing past it.
    fn dec(buf: &[u8], pos: &mut usize) -> Option<Self>;
}

impl PayloadCodec for u64 {
    fn enc(&self, out: &mut Vec<u8>) {
        Wire::put(self, out);
    }
    fn dec(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Wire::get(buf, pos)
    }
}

impl PayloadCodec for i64 {
    fn enc(&self, out: &mut Vec<u8>) {
        Wire::put(self, out);
    }
    fn dec(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Wire::get(buf, pos)
    }
}

impl PayloadCodec for RegInput {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            RegInput::Write(v) => {
                out.push(0);
                Wire::put(v, out);
            }
            RegInput::Read => out.push(1),
        }
    }
    fn dec(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(match u8::get(buf, pos)? {
            0 => RegInput::Write(Wire::get(buf, pos)?),
            1 => RegInput::Read,
            _ => return None,
        })
    }
}

impl PayloadCodec for RegOutput {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            RegOutput::Ack => out.push(0),
            RegOutput::Val(v) => {
                out.push(1);
                Wire::put(v, out);
            }
        }
    }
    fn dec(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(match u8::get(buf, pos)? {
            0 => RegOutput::Ack,
            1 => RegOutput::Val(Wire::get(buf, pos)?),
            _ => return None,
        })
    }
}

impl PayloadCodec for CtInput {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            CtInput::Add(n) => {
                out.push(0);
                Wire::put(n, out);
            }
            CtInput::Read => out.push(1),
        }
    }
    fn dec(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(match u8::get(buf, pos)? {
            0 => CtInput::Add(Wire::get(buf, pos)?),
            1 => CtInput::Read,
            _ => return None,
        })
    }
}

impl PayloadCodec for CtOutput {
    fn enc(&self, out: &mut Vec<u8>) {
        match self {
            CtOutput::Ack => out.push(0),
            CtOutput::Val(n) => {
                out.push(1);
                Wire::put(n, out);
            }
        }
    }
    fn dec(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(match u8::get(buf, pos)? {
            0 => CtOutput::Ack,
            1 => CtOutput::Val(Wire::get(buf, pos)?),
            _ => return None,
        })
    }
}

pub(crate) fn put_payload_vec<T: PayloadCodec>(v: &[T], out: &mut Vec<u8>) {
    Wire::put(&v.len(), out);
    for x in v {
        x.enc(out);
    }
}

pub(crate) fn get_payload_vec<T: PayloadCodec>(buf: &[u8], pos: &mut usize) -> Option<Vec<T>> {
    let len = usize::get(buf, pos)?;
    let mut out = Vec::with_capacity(len.min(buf.len().saturating_sub(*pos)));
    for _ in 0..len {
        out.push(T::dec(buf, pos)?);
    }
    Some(out)
}

impl<I: PayloadCodec> Wire for WireOp<I> {
    fn put(&self, out: &mut Vec<u8>) {
        self.obj.put(out);
        self.input.enc(out);
        self.ts.put(out);
        self.wseq.put(out);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(WireOp {
            obj: u32::get(buf, pos)?,
            input: I::dec(buf, pos)?,
            ts: Timestamp::get(buf, pos)?,
            wseq: Option::get(buf, pos)?,
        })
    }
}

impl<S: PayloadCodec> Wire for ShardSyncPayload<S> {
    fn put(&self, out: &mut Vec<u8>) {
        self.shards.len().put(out);
        for (shard, states) in &self.shards {
            shard.put(out);
            put_payload_vec(states, out);
        }
        self.lamport.put(out);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let n = usize::get(buf, pos)?;
        let mut shards = Vec::with_capacity(n.min(buf.len().saturating_sub(*pos)));
        for _ in 0..n {
            let shard = u32::get(buf, pos)?;
            let states = get_payload_vec(buf, pos)?;
            shards.push((shard, states));
        }
        Some(ShardSyncPayload {
            shards,
            lamport: u64::get(buf, pos)?,
        })
    }
}

impl<I: PayloadCodec> Wire for ShardDeltaPayload<I> {
    fn put(&self, out: &mut Vec<u8>) {
        self.shards.len().put(out);
        for (shard, ops) in &self.shards {
            shard.put(out);
            ops.put(out);
        }
        self.lamport.put(out);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let n = usize::get(buf, pos)?;
        let mut shards = Vec::with_capacity(n.min(buf.len().saturating_sub(*pos)));
        for _ in 0..n {
            let shard = u32::get(buf, pos)?;
            let ops = Vec::get(buf, pos)?;
            shards.push((shard, ops));
        }
        Some(ShardDeltaPayload {
            shards,
            lamport: u64::get(buf, pos)?,
        })
    }
}

impl<I: PayloadCodec, O: PayloadCodec, S: PayloadCodec> Wire for StoreMsg<I, O, S> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            StoreMsg::Batch(env) => {
                out.push(0);
                env.put(out);
            }
            StoreMsg::Nack => out.push(1),
            StoreMsg::Repair(batches) => {
                out.push(2);
                batches.put(out);
            }
            StoreMsg::ShardSync(p) => {
                out.push(3);
                p.put(out);
            }
            StoreMsg::ReadReq { obj, input } => {
                out.push(4);
                obj.put(out);
                input.enc(out);
            }
            StoreMsg::ReadReply { output } => {
                out.push(5);
                output.enc(out);
            }
            StoreMsg::SyncReq { full } => {
                out.push(6);
                full.put(out);
            }
            StoreMsg::ShardDelta(p) => {
                out.push(7);
                p.put(out);
            }
        }
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(match u8::get(buf, pos)? {
            0 => StoreMsg::Batch(Wire::get(buf, pos)?),
            1 => StoreMsg::Nack,
            2 => StoreMsg::Repair(Vec::get(buf, pos)?),
            3 => StoreMsg::ShardSync(Box::new(ShardSyncPayload::get(buf, pos)?)),
            4 => StoreMsg::ReadReq {
                obj: u32::get(buf, pos)?,
                input: I::dec(buf, pos)?,
            },
            5 => StoreMsg::ReadReply {
                output: O::dec(buf, pos)?,
            },
            6 => StoreMsg::SyncReq {
                full: bool::get(buf, pos)?,
            },
            7 => StoreMsg::ShardDelta(Box::new(ShardDeltaPayload::get(buf, pos)?)),
            _ => return None,
        })
    }
}

impl Wire for Mode {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Mode::Causal => 0,
            Mode::Convergent => 1,
        });
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(match u8::get(buf, pos)? {
            0 => Mode::Causal,
            1 => Mode::Convergent,
            _ => return None,
        })
    }
}

impl Wire for BatchPolicy {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            BatchPolicy::Off => out.push(0),
            BatchPolicy::Every(k) => {
                out.push(1);
                k.put(out);
            }
        }
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(match u8::get(buf, pos)? {
            0 => BatchPolicy::Off,
            1 => BatchPolicy::Every(usize::get(buf, pos)?),
            _ => return None,
        })
    }
}

impl Wire for ShardConfig {
    fn put(&self, out: &mut Vec<u8>) {
        self.shards.put(out);
        self.replication.put(out);
        self.placement_seed.put(out);
        self.locality.put(out);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(ShardConfig {
            shards: usize::get(buf, pos)?,
            replication: usize::get(buf, pos)?,
            placement_seed: u64::get(buf, pos)?,
            locality: usize::get(buf, pos)?,
        })
    }
}

impl Wire for VerifyConfig {
    fn put(&self, out: &mut Vec<u8>) {
        self.every_ops.put(out);
        self.window_ops.put(out);
        self.sample_every.put(out);
        self.monitor.put(out);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(VerifyConfig {
            every_ops: usize::get(buf, pos)?,
            window_ops: usize::get(buf, pos)?,
            sample_every: usize::get(buf, pos)?,
            monitor: bool::get(buf, pos)?,
        })
    }
}

impl Wire for ObsConfig {
    fn put(&self, out: &mut Vec<u8>) {
        self.trace.put(out);
        self.op_sample_every.put(out);
        self.batch_sample_every.put(out);
        self.epoch_cap.put(out);
        self.keep_epochs.put(out);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(ObsConfig {
            trace: bool::get(buf, pos)?,
            op_sample_every: usize::get(buf, pos)?,
            batch_sample_every: usize::get(buf, pos)?,
            epoch_cap: usize::get(buf, pos)?,
            keep_epochs: usize::get(buf, pos)?,
        })
    }
}

impl Wire for DurableConfig {
    fn put(&self, out: &mut Vec<u8>) {
        self.log_dir.put(out);
        self.snapshot_every.put(out);
        self.resume.put(out);
        self.halt_at_boundary.put(out);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(DurableConfig {
            log_dir: Option::get(buf, pos)?,
            snapshot_every: u64::get(buf, pos)?,
            resume: bool::get(buf, pos)?,
            halt_at_boundary: u64::get(buf, pos)?,
        })
    }
}

impl Wire for StoreConfig {
    fn put(&self, out: &mut Vec<u8>) {
        self.workers.put(out);
        self.objects.put(out);
        self.ops_per_worker.put(out);
        self.mode.put(out);
        self.batch.put(out);
        self.verify.put(out);
        self.seed.put(out);
        self.sharding.put(out);
        self.chaos.put(out);
        self.obs.put(out);
        self.durable.put(out);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(StoreConfig {
            workers: usize::get(buf, pos)?,
            objects: usize::get(buf, pos)?,
            ops_per_worker: usize::get(buf, pos)?,
            mode: Mode::get(buf, pos)?,
            batch: BatchPolicy::get(buf, pos)?,
            verify: VerifyConfig::get(buf, pos)?,
            seed: u64::get(buf, pos)?,
            sharding: ShardConfig::get(buf, pos)?,
            chaos: FaultPlan::get(buf, pos)?,
            obs: ObsConfig::get(buf, pos)?,
            durable: DurableConfig::get(buf, pos)?,
        })
    }
}

/// Re-intern a decoded report label against the known vocabulary
/// (window criteria, monitor pattern names, kernel verdicts). An
/// unknown label — a peer ahead of this binary — leaks one small
/// allocation instead of failing the decode.
fn intern(s: String) -> &'static str {
    const KNOWN: &[&str] = &[
        "CC",
        "CCv",
        "thin_air_read",
        "write_co_init_read",
        "write_co_read",
        "write_hb_init_read",
        "cyclic_cf",
        "cyclic_co",
        "sat",
        "unsat",
        "unknown",
    ];
    match KNOWN.iter().find(|k| **k == s) {
        Some(k) => k,
        None => Box::leak(s.into_boxed_str()),
    }
}

impl Wire for LatencySummary {
    fn put(&self, out: &mut Vec<u8>) {
        for v in [
            self.count,
            self.p50_ns,
            self.p90_ns,
            self.p99_ns,
            self.p999_ns,
            self.max_ns,
            self.mean_ns,
        ] {
            v.put(out);
        }
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(LatencySummary {
            count: u64::get(buf, pos)?,
            p50_ns: u64::get(buf, pos)?,
            p90_ns: u64::get(buf, pos)?,
            p99_ns: u64::get(buf, pos)?,
            p999_ns: u64::get(buf, pos)?,
            max_ns: u64::get(buf, pos)?,
            mean_ns: u64::get(buf, pos)?,
        })
    }
}

impl Wire for WorkerStats {
    fn put(&self, out: &mut Vec<u8>) {
        self.worker.put(out);
        self.ops.put(out);
        self.reads.put(out);
        self.updates.put(out);
        self.remote_reads.put(out);
        self.reads_served.put(out);
        self.batches_sent.put(out);
        self.payloads_sent.put(out);
        self.batches_delivered.put(out);
        self.latency.put(out);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(WorkerStats {
            worker: usize::get(buf, pos)?,
            ops: u64::get(buf, pos)?,
            reads: u64::get(buf, pos)?,
            updates: u64::get(buf, pos)?,
            remote_reads: u64::get(buf, pos)?,
            reads_served: u64::get(buf, pos)?,
            batches_sent: u64::get(buf, pos)?,
            payloads_sent: u64::get(buf, pos)?,
            batches_delivered: u64::get(buf, pos)?,
            latency: LatencySummary::get(buf, pos)?,
        })
    }
}

impl Wire for WindowVerdict {
    fn put(&self, out: &mut Vec<u8>) {
        self.window.put(out);
        self.shard.put(out);
        self.criterion.to_string().put(out);
        self.events.put(out);
        self.crashed_workers.put(out);
        self.spans_recovery.put(out);
        // Result<(), String> as Option<String>: None = Ok
        match &self.result {
            Ok(()) => Option::<String>::None.put(out),
            Err(e) => Some(e.clone()).put(out),
        }
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(WindowVerdict {
            window: u64::get(buf, pos)?,
            shard: Option::get(buf, pos)?,
            criterion: intern(String::get(buf, pos)?),
            events: usize::get(buf, pos)?,
            crashed_workers: usize::get(buf, pos)?,
            spans_recovery: bool::get(buf, pos)?,
            result: match Option::<String>::get(buf, pos)? {
                None => Ok(()),
                Some(e) => Err(e),
            },
        })
    }
}

impl Wire for RecoveryStats {
    fn put(&self, out: &mut Vec<u8>) {
        self.worker.put(out);
        self.crash_epoch.put(out);
        self.recover_epoch.put(out);
        self.helper.put(out);
        self.synced_shards.put(out);
        self.synced_objects.put(out);
        self.sync_wall_ns.put(out);
        self.replayed_records.put(out);
        self.log_bytes.put(out);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(RecoveryStats {
            worker: usize::get(buf, pos)?,
            crash_epoch: u64::get(buf, pos)?,
            recover_epoch: u64::get(buf, pos)?,
            helper: usize::get(buf, pos)?,
            synced_shards: u64::get(buf, pos)?,
            synced_objects: u64::get(buf, pos)?,
            sync_wall_ns: u64::get(buf, pos)?,
            replayed_records: u64::get(buf, pos)?,
            log_bytes: u64::get(buf, pos)?,
        })
    }
}

impl Wire for MonitorEscalation {
    fn put(&self, out: &mut Vec<u8>) {
        self.worker.put(out);
        self.epoch.put(out);
        self.at_op.put(out);
        self.obj.put(out);
        self.pattern.to_string().put(out);
        self.events.put(out);
        self.confirmed.put(out);
        self.verdict.to_string().put(out);
        self.spans_recovery.put(out);
        self.detail.put(out);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(MonitorEscalation {
            worker: usize::get(buf, pos)?,
            epoch: u64::get(buf, pos)?,
            at_op: u64::get(buf, pos)?,
            obj: Option::get(buf, pos)?,
            pattern: intern(String::get(buf, pos)?),
            events: usize::get(buf, pos)?,
            confirmed: bool::get(buf, pos)?,
            verdict: intern(String::get(buf, pos)?),
            spans_recovery: bool::get(buf, pos)?,
            detail: String::get(buf, pos)?,
        })
    }
}

impl Wire for MonitorReport {
    fn put(&self, out: &mut Vec<u8>) {
        self.enabled.put(out);
        self.ops_checked.put(out);
        self.folds.put(out);
        self.escalations.put(out);
        self.cleared.put(out);
        self.violations.put(out);
        self.kernel_unknown.put(out);
        self.records.put(out);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(MonitorReport {
            enabled: bool::get(buf, pos)?,
            ops_checked: u64::get(buf, pos)?,
            folds: u64::get(buf, pos)?,
            escalations: u64::get(buf, pos)?,
            cleared: u64::get(buf, pos)?,
            violations: u64::get(buf, pos)?,
            kernel_unknown: u64::get(buf, pos)?,
            records: Vec::get(buf, pos)?,
        })
    }
}

impl Wire for ChaosReport {
    fn put(&self, out: &mut Vec<u8>) {
        self.active.put(out);
        self.drops.put(out);
        self.dups.put(out);
        self.parked.put(out);
        self.released.put(out);
        self.delayed.put(out);
        self.pruned.put(out);
        self.crash_discarded.put(out);
        self.nacks.put(out);
        self.repairs.put(out);
        self.repaired_batches.put(out);
        self.dropped_per_node.put(out);
        self.dup_per_node.put(out);
        self.recoveries.put(out);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(ChaosReport {
            active: bool::get(buf, pos)?,
            drops: u64::get(buf, pos)?,
            dups: u64::get(buf, pos)?,
            parked: u64::get(buf, pos)?,
            released: u64::get(buf, pos)?,
            delayed: u64::get(buf, pos)?,
            pruned: u64::get(buf, pos)?,
            crash_discarded: u64::get(buf, pos)?,
            nacks: u64::get(buf, pos)?,
            repairs: u64::get(buf, pos)?,
            repaired_batches: u64::get(buf, pos)?,
            dropped_per_node: Vec::get(buf, pos)?,
            dup_per_node: Vec::get(buf, pos)?,
            recoveries: Vec::get(buf, pos)?,
        })
    }
}

impl Wire for EpochMetrics {
    fn put(&self, out: &mut Vec<u8>) {
        for v in [
            self.epoch,
            self.ops,
            self.updates,
            self.remote_reads,
            self.batches,
            self.payloads,
            self.delivered,
            self.nacks,
            self.repairs,
            self.faults,
            self.crashed,
        ] {
            v.put(out);
        }
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(EpochMetrics {
            epoch: u64::get(buf, pos)?,
            ops: u64::get(buf, pos)?,
            updates: u64::get(buf, pos)?,
            remote_reads: u64::get(buf, pos)?,
            batches: u64::get(buf, pos)?,
            payloads: u64::get(buf, pos)?,
            delivered: u64::get(buf, pos)?,
            nacks: u64::get(buf, pos)?,
            repairs: u64::get(buf, pos)?,
            faults: u64::get(buf, pos)?,
            crashed: u64::get(buf, pos)?,
        })
    }
}

impl Wire for StoreReport {
    fn put(&self, out: &mut Vec<u8>) {
        self.config.put(out);
        u128::put(&self.wall_ns, out);
        self.total_ops.put(out);
        self.ops_per_sec.put(out);
        self.latency.put(out);
        self.msgs_sent.put(out);
        self.bytes_sent.put(out);
        self.batches_sent.put(out);
        self.payloads_sent.put(out);
        self.mean_batch.put(out);
        self.remote_reads.put(out);
        self.windows.put(out);
        self.windows_failed.put(out);
        self.drains_converged.put(out);
        self.final_state_hashes.put(out);
        self.monitor.put(out);
        self.chaos.put(out);
        self.per_worker.put(out);
        self.epochs.put(out);
        self.metrics.put(out);
        // traces never cross the wire (dumped node-side); pin the slot
        // so the layout stays stable if that ever changes
        false.put(out);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let report = StoreReport {
            config: StoreConfig::get(buf, pos)?,
            wall_ns: u128::get(buf, pos)?,
            total_ops: u64::get(buf, pos)?,
            ops_per_sec: f64::get(buf, pos)?,
            latency: LatencySummary::get(buf, pos)?,
            msgs_sent: u64::get(buf, pos)?,
            bytes_sent: u64::get(buf, pos)?,
            batches_sent: u64::get(buf, pos)?,
            payloads_sent: u64::get(buf, pos)?,
            mean_batch: f64::get(buf, pos)?,
            remote_reads: u64::get(buf, pos)?,
            windows: Vec::get(buf, pos)?,
            windows_failed: usize::get(buf, pos)?,
            drains_converged: bool::get(buf, pos)?,
            final_state_hashes: Vec::get(buf, pos)?,
            monitor: MonitorReport::get(buf, pos)?,
            chaos: ChaosReport::get(buf, pos)?,
            per_worker: Vec::get(buf, pos)?,
            epochs: Vec::get(buf, pos)?,
            metrics: Vec::get(buf, pos)?,
            trace: None,
        };
        if bool::get(buf, pos)? {
            return None; // a wire trace is not a thing this version speaks
        }
        Some(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbm_net::broadcast::InterestMsg;
    use cbm_net::delta::KnowledgeDelta;
    use cbm_net::wire::{from_bytes, to_bytes};

    type RegMsg = StoreMsg<RegInput, RegOutput, u64>;
    type CtMsg = StoreMsg<CtInput, CtOutput, i64>;

    fn batch() -> InterestMsg<Vec<WireOp<RegInput>>> {
        InterestMsg {
            sender: 2,
            seq: 40,
            knows: KnowledgeDelta {
                rows: vec![(2, vec![(0, 40), (1, 7)]), (3, vec![(1, 9)])],
            },
            payload: vec![
                WireOp {
                    obj: 17,
                    input: RegInput::Write(123_456),
                    ts: Timestamp { time: 99, pid: 2 },
                    wseq: Some(3),
                },
                WireOp {
                    obj: 0,
                    input: RegInput::Read,
                    ts: Timestamp { time: 0, pid: 0 },
                    wseq: None,
                },
            ],
        }
    }

    #[test]
    fn store_msgs_roundtrip() {
        let msgs: Vec<RegMsg> = vec![
            StoreMsg::Batch(batch()),
            StoreMsg::Nack,
            StoreMsg::Repair(vec![batch(), batch()]),
            StoreMsg::ShardSync(Box::new(ShardSyncPayload {
                shards: vec![(0, vec![1u64, 2, 3]), (4, vec![])],
                lamport: 77,
            })),
            StoreMsg::ReadReq {
                obj: 9,
                input: RegInput::Read,
            },
            StoreMsg::ReadReply {
                output: RegOutput::Val(5),
            },
            StoreMsg::SyncReq { full: true },
            StoreMsg::ShardDelta(Box::new(ShardDeltaPayload {
                shards: vec![(
                    1,
                    vec![WireOp {
                        obj: 17,
                        input: RegInput::Write(9),
                        ts: Timestamp { time: 4, pid: 1 },
                        wseq: None,
                    }],
                )],
                lamport: 11,
            })),
        ];
        for m in msgs {
            let bytes = to_bytes(&m);
            let back: RegMsg = from_bytes(&bytes).expect("decodes");
            assert_eq!(format!("{m:?}"), format!("{back:?}"));
        }
        let c: CtMsg = StoreMsg::ReadReply {
            output: CtOutput::Val(-12),
        };
        let back: CtMsg = from_bytes(&to_bytes(&c)).expect("decodes");
        assert_eq!(format!("{c:?}"), format!("{back:?}"));
    }

    #[test]
    fn truncated_store_msg_is_none() {
        let bytes = to_bytes::<RegMsg>(&StoreMsg::Batch(batch()));
        for cut in 0..bytes.len() {
            assert!(from_bytes::<RegMsg>(&bytes[..cut]).is_none());
        }
    }

    #[test]
    fn config_roundtrips_exactly() {
        let mut cfg = StoreConfig {
            workers: 6,
            objects: 512,
            ops_per_worker: 10_000,
            mode: Mode::Convergent,
            batch: BatchPolicy::Every(8),
            seed: 42,
            ..StoreConfig::default()
        };
        cfg.sharding = ShardConfig::rf_local(2, 4);
        cfg.verify.monitor = true;
        cfg.chaos
            .push(100, cbm_net::fault::Fault::DropAll { prob: 0.01 });
        cfg.obs.trace = true;
        cfg.durable.log_dir = Some("/tmp/cbm-logs".into());
        cfg.durable.halt_at_boundary = 3;
        let back: StoreConfig = from_bytes(&to_bytes(&cfg)).expect("decodes");
        assert_eq!(format!("{cfg:?}"), format!("{back:?}"));
    }

    #[test]
    fn report_roundtrips_with_interned_labels() {
        let report = StoreReport {
            config: StoreConfig::default(),
            wall_ns: u128::from(u64::MAX) + 17,
            total_ops: 1_000_000,
            ops_per_sec: 123_456.789,
            latency: LatencySummary {
                count: 9,
                p50_ns: 1,
                p90_ns: 2,
                p99_ns: 3,
                p999_ns: 4,
                max_ns: 5,
                mean_ns: 2,
            },
            msgs_sent: 10,
            bytes_sent: 11,
            batches_sent: 12,
            payloads_sent: 13,
            mean_batch: 1.083,
            remote_reads: 14,
            windows: vec![WindowVerdict {
                window: 0,
                shard: Some(3),
                criterion: "CCv",
                events: 48,
                crashed_workers: 1,
                spans_recovery: true,
                result: Err("divergent replica".into()),
            }],
            windows_failed: 1,
            drains_converged: false,
            final_state_hashes: vec![1, 2, 3],
            monitor: MonitorReport {
                enabled: true,
                ops_checked: 100,
                folds: 50,
                escalations: 1,
                cleared: 1,
                violations: 0,
                kernel_unknown: 0,
                records: vec![MonitorEscalation {
                    worker: 1,
                    epoch: 2,
                    at_op: 3,
                    obj: None,
                    pattern: "cyclic_co",
                    events: 7,
                    confirmed: false,
                    verdict: "sat",
                    spans_recovery: false,
                    detail: String::new(),
                }],
            },
            chaos: ChaosReport {
                active: true,
                drops: 5,
                dropped_per_node: vec![0, 5],
                dup_per_node: vec![0, 0],
                recoveries: vec![RecoveryStats {
                    worker: 1,
                    crash_epoch: 1,
                    recover_epoch: 3,
                    helper: 0,
                    synced_shards: 2,
                    synced_objects: 64,
                    sync_wall_ns: 12345,
                    replayed_records: 40,
                    log_bytes: 2048,
                }],
                ..ChaosReport::default()
            },
            per_worker: vec![WorkerStats {
                worker: 0,
                ops: 100,
                reads: 50,
                updates: 50,
                remote_reads: 0,
                reads_served: 4,
                batches_sent: 9,
                payloads_sent: 50,
                batches_delivered: 8,
                latency: LatencySummary::default(),
            }],
            epochs: vec![EpochMetrics {
                epoch: 0,
                ops: 100,
                faults: 5,
                ..EpochMetrics::default()
            }],
            metrics: vec![("store.ops".into(), 100), ("store.batches".into(), 9)],
            trace: None,
        };
        let bytes = to_bytes(&report);
        let back: StoreReport = from_bytes(&bytes).expect("decodes");
        assert_eq!(format!("{report:?}"), format!("{back:?}"));
        assert_eq!(back.windows[0].criterion, "CCv");
        assert_eq!(back.monitor.records[0].pattern, "cyclic_co");
    }
}
