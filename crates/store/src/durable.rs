//! The per-worker durable epoch log: crash recovery that survives a
//! process restart (see `docs/DURABILITY.md`).
//!
//! Each worker appends to its own file, `worker-{id}.log`, in the
//! configured [`crate::DurableConfig::log_dir`]: one record per
//! **applied** event — an own update at invocation, a delivered
//! envelope batch at delivery — plus a *seal* record at every drain
//! cut, followed by one `fdatasync`. The cut is the durability unit:
//! everything up to a seal is on disk before any worker issues an op
//! past the rendezvous, so replaying the log to its last seal
//! reconstructs exactly the replica state the fleet agreed on at that
//! cut (drain invariant: in convergent mode every post-cut timestamp
//! exceeds every pre-cut one, so the replayed fold equals the live
//! fold even though compactions are not replayed).
//!
//! Because nothing before the seal needs to be on disk, appends are
//! group-committed: records are framed into a fixed [`STAGE`]-byte
//! buffer, each full chunk is written the moment it fills (a frame may
//! straddle two chunks), and the seal writes the partial chunk left
//! over before its `fdatasync`. A seal interval of `b` bytes thus costs
//! `ceil(b / STAGE)` writes — a pure function of `(config, seed)` —
//! and a worker's staging memory is bounded by [`STAGE`].
//!
//! Every record is framed exactly like a socket frame
//! ([`cbm_net::tcp`]): `[len u32 LE][crc32 u32 LE][body]`, with bodies
//! in the canonical fixed-width little-endian [`Wire`] encoding.
//! Periodically ([`snapshot_every`
//! boundary seals](crate::DurableConfig::snapshot_every)) the worker
//! writes a compacted snapshot — full state vector + delivered
//! frontier + Lamport clock + monitor shadow seeds, as one framed
//! record in `worker-{id}.snap`, written to a temp file and renamed so
//! it is atomic — and truncates the log prefix it replaces.
//!
//! [`recover`] is strict about what it trusts: a torn or corrupt tail
//! *past* the last seal is the expected shape of a crash mid-write
//! (a chunk that ends mid-frame is one) and is silently discarded;
//! anything wrong at or before the last seal — an unreadable snapshot,
//! a record that fails its CRC or decode, a replayed state that
//! disagrees with the seal's recorded hash — surfaces as a typed
//! [`LogError`] and installs nothing. Callers walk the recovery ladder:
//! replay from disk, fetch the op delta past the replayed cut from
//! co-replicas, or fall back to the full state transfer.

use crate::config::Mode;
use crate::objects::ObjectTable;
use crate::wire::WireOp;
use cbm_adt::Adt;
use cbm_check::monitor::MonitorStats;
use cbm_net::clock::Timestamp;
use cbm_net::tcp::crc32;
use cbm_net::wire::Wire;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// Frame header: `[len u32 LE][crc32 u32 LE]`, identical to the socket
/// transport's framing.
pub const FRAME_HEADER: usize = 8;

/// Hard cap on one record body (matches [`cbm_net::tcp::MAX_FRAME`]);
/// a length field above this is corruption, not a record.
pub const MAX_RECORD: usize = 64 << 20;

/// Size of one staged chunk: appends collect in a buffer of exactly
/// this many bytes and reach the file one full chunk per write, plus
/// one write of the remainder at each seal.
pub const STAGE: usize = 64 << 10;

/// Record tag: one own update applied at invocation.
pub const TAG_OWN: u8 = 0;
/// Record tag: one delivered envelope batch.
pub const TAG_BATCH: u8 = 1;
/// Record tag: a sealed drain cut (followed by `fdatasync`).
pub const TAG_SEAL: u8 = 2;

/// What a seal record pins: the identity of the cut and everything a
/// restart needs besides the replayed object states.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SealInfo {
    /// The cut's epoch: boundary seals carry the epoch whose opening
    /// drain this is; the final drain seals `n_epochs`.
    pub epoch: u64,
    /// `true` for epoch-boundary (and final) drains — the cuts
    /// snapshots and restarts anchor to; `false` for the mid-epoch
    /// window-close drain.
    pub boundary: bool,
    /// Ops this worker had issued at the cut (script position).
    pub issued: u64,
    /// The worker's Lamport clock at the cut.
    pub lamport: u64,
    /// Delivered-envelope frontier per origin worker at the cut.
    pub delivered: Vec<u64>,
    /// Order-sensitive hash of the full object table at the cut —
    /// cross-checked against the replayed state on recovery.
    pub state_hash: u64,
    /// The streaming monitor's counters at the cut (shadow states
    /// reseed from the replayed object states; the counters carry the
    /// certified-ops accounting across the restart).
    pub monitor: MonitorStats,
}

impl SealInfo {
    fn put(&self, out: &mut Vec<u8>) {
        self.epoch.put(out);
        self.boundary.put(out);
        self.issued.put(out);
        self.lamport.put(out);
        self.delivered.put(out);
        self.state_hash.put(out);
        for v in [
            self.monitor.ops_checked,
            self.monitor.folds,
            self.monitor.escalations,
            self.monitor.cleared,
            self.monitor.violations,
            self.monitor.kernel_unknown,
        ] {
            v.put(out);
        }
    }

    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(SealInfo {
            epoch: u64::get(buf, pos)?,
            boundary: bool::get(buf, pos)?,
            issued: u64::get(buf, pos)?,
            lamport: u64::get(buf, pos)?,
            delivered: Vec::get(buf, pos)?,
            state_hash: u64::get(buf, pos)?,
            monitor: MonitorStats {
                ops_checked: u64::get(buf, pos)?,
                folds: u64::get(buf, pos)?,
                escalations: u64::get(buf, pos)?,
                cleared: u64::get(buf, pos)?,
                violations: u64::get(buf, pos)?,
                kernel_unknown: u64::get(buf, pos)?,
            },
        })
    }
}

/// Why a disk recovery refused to install anything. Every variant is a
/// clean fallback signal — the caller drops to the next rung of the
/// recovery ladder (full co-replica transfer, or a fresh run on cold
/// start); none of them can panic the engine or install partial state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// Filesystem error opening or reading the log/snapshot.
    Io(String),
    /// No sealed cut on disk at all (fresh directory, or a crash
    /// before the first drain): nothing to restore.
    NoSeal,
    /// The snapshot file exists but fails its CRC or decode.
    CorruptSnapshot,
    /// The snapshot's state vector does not match the configured
    /// object count.
    Arity,
    /// A record at or before the last seal passed its CRC but failed
    /// to decode — the committed prefix itself is damaged.
    CorruptRecord {
        /// Byte offset of the offending frame in the log file.
        offset: u64,
    },
    /// The replayed state's hash disagrees with the hash the seal
    /// recorded at the live cut.
    StateHash,
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "durable log io: {e}"),
            LogError::NoSeal => write!(f, "no sealed cut on disk"),
            LogError::CorruptSnapshot => write!(f, "snapshot fails CRC or decode"),
            LogError::Arity => write!(f, "snapshot arity mismatch"),
            LogError::CorruptRecord { offset } => {
                write!(f, "corrupt record at byte {offset} of the committed prefix")
            }
            LogError::StateHash => write!(f, "replayed state disagrees with sealed hash"),
        }
    }
}

/// A successful disk replay: the object states at the last sealed cut
/// plus everything else the seal pinned.
pub struct Recovered<T: Adt> {
    /// Every object's state at the cut (arity = configured objects).
    pub states: Vec<T::State>,
    /// The last seal — the cut the replay landed on.
    pub seal: SealInfo,
    /// Records replayed (snapshot counts as one).
    pub replayed_records: u64,
    /// Bytes read from disk for the replay (snapshot file + committed
    /// log prefix).
    pub log_bytes: u64,
}

fn log_path(dir: &Path, me: usize) -> PathBuf {
    dir.join(format!("worker-{me}.log"))
}

fn snap_path(dir: &Path, me: usize) -> PathBuf {
    dir.join(format!("worker-{me}.snap"))
}

/// The `[len][crc32]` header that frames `body`.
fn frame_header(body: &[u8]) -> [u8; FRAME_HEADER] {
    let mut header = [0u8; FRAME_HEADER];
    header[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(body).to_le_bytes());
    header
}

/// The log file behind a fixed [`STAGE`]-byte buffer. Bytes are
/// copied in until the buffer is full, which writes it as one chunk;
/// [`Staged::flush`] writes the partial chunk left over.
struct Staged {
    file: File,
    buf: Vec<u8>,
}

impl Staged {
    fn push(&mut self, mut bytes: &[u8]) -> std::io::Result<()> {
        while !bytes.is_empty() {
            let take = bytes.len().min(STAGE - self.buf.len());
            self.buf.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if self.buf.len() == STAGE {
                self.flush()?;
            }
        }
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }
}

/// One worker's append-side handle: the log file behind its staging
/// chunk, plus the paths and scratch buffers the record writers reuse.
///
/// Records are group-committed: [`EpochLog::log_own`] and
/// [`EpochLog::log_batch`] only frame into the [`STAGE`]-byte chunk
/// (writing it when it fills), and [`EpochLog::seal`] writes what is
/// left before its `fdatasync`. Records staged past the last seal are
/// lost when the handle drops — exactly the torn tail a crash leaves,
/// which [`recover`] discards anyway.
pub struct EpochLog {
    out: Staged,
    dir: PathBuf,
    log_path: PathBuf,
    snap_path: PathBuf,
    body: Vec<u8>,
    /// Boundary seals since the last snapshot (snapshot cadence).
    boundary_seals: u64,
    /// Bytes appended to the log (staged or written) since open or last
    /// truncation.
    pub appended: u64,
}

impl EpochLog {
    /// Open this worker's log for appending. `fresh` truncates the log
    /// and deletes any snapshot (a new run); otherwise both survive
    /// (resuming after [`recover`]).
    pub fn open(dir: &Path, me: usize, fresh: bool) -> std::io::Result<EpochLog> {
        fs::create_dir_all(dir)?;
        let log_path = log_path(dir, me);
        let snap_path = snap_path(dir, me);
        let file = if fresh {
            match fs::remove_file(&snap_path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
            File::create(&log_path)?
        } else {
            OpenOptions::new()
                .append(true)
                .create(true)
                .open(&log_path)?
        };
        Ok(EpochLog {
            out: Staged {
                file,
                buf: Vec::with_capacity(STAGE),
            },
            dir: dir.to_path_buf(),
            log_path,
            snap_path,
            body: Vec::new(),
            boundary_seals: 0,
            appended: 0,
        })
    }

    /// Stage the record in `body` as one frame.
    fn append_frame(&mut self) -> std::io::Result<()> {
        self.out.push(&frame_header(&self.body))?;
        self.out.push(&self.body)?;
        self.appended += (FRAME_HEADER + self.body.len()) as u64;
        Ok(())
    }

    /// Record one own update, applied at invocation.
    pub fn log_own<I: Wire>(&mut self, obj: u32, ts: Timestamp, input: &I) -> std::io::Result<()> {
        self.body.clear();
        self.body.push(TAG_OWN);
        obj.put(&mut self.body);
        ts.put(&mut self.body);
        input.put(&mut self.body);
        self.append_frame()
    }

    /// Record one delivered envelope batch.
    pub fn log_batch<I: Wire>(
        &mut self,
        sender: usize,
        seq: u64,
        ops: &[WireOp<I>],
    ) -> std::io::Result<()> {
        self.body.clear();
        self.body.push(TAG_BATCH);
        sender.put(&mut self.body);
        seq.put(&mut self.body);
        ops.len().put(&mut self.body);
        for op in ops {
            op.put(&mut self.body);
        }
        self.append_frame()
    }

    /// Seal a drain cut and make everything up to it durable: stage the
    /// seal record, write the partial chunk, `fdatasync`. Returns
    /// whether the snapshot cadence says this boundary should compact
    /// next.
    pub fn seal(&mut self, seal: &SealInfo, snapshot_every: u64) -> std::io::Result<bool> {
        self.body.clear();
        self.body.push(TAG_SEAL);
        seal.put(&mut self.body);
        self.append_frame()?;
        self.out.flush()?;
        self.out.file.sync_data()?;
        if seal.boundary {
            self.boundary_seals += 1;
            return Ok(snapshot_every != 0 && self.boundary_seals >= snapshot_every);
        }
        Ok(false)
    }

    /// Write a compacted snapshot of the cut `seal` describes and
    /// truncate the log prefix it replaces. The snapshot goes to a
    /// temp file first and is renamed into place, so a crash leaves
    /// either the old snapshot or the new one — never a torn mix.
    ///
    /// Must run on an empty stage — right after [`EpochLog::seal`],
    /// [`EpochLog::open`], or another snapshot: records staged before
    /// the truncation would otherwise land in the fresh log and replay
    /// on top of the new snapshot.
    pub fn snapshot<S: Wire>(&mut self, seal: &SealInfo, states: &[S]) -> std::io::Result<()> {
        debug_assert!(
            self.out.buf.is_empty(),
            "snapshot with staged records past the last seal"
        );
        // encode the body behind room for its header, so the whole
        // frame goes out in one write
        self.body.clear();
        self.body.resize(FRAME_HEADER, 0);
        seal.put(&mut self.body);
        states.len().put(&mut self.body);
        for s in states {
            s.put(&mut self.body);
        }
        let header = frame_header(&self.body[FRAME_HEADER..]);
        self.body[..FRAME_HEADER].copy_from_slice(&header);
        let tmp = self.snap_path.with_extension("snap.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&self.body)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, &self.snap_path)?;
        // the rename and the truncation below are directory metadata;
        // sync it so the snapshot's existence is as durable as its
        // bytes
        File::open(&self.dir)?.sync_all()?;
        self.out.file.set_len(0)?;
        self.out.file.seek(SeekFrom::Start(0))?;
        self.out.file.sync_data()?;
        self.appended = 0;
        self.boundary_seals = 0;
        Ok(())
    }

    /// Path of the log file (tests and diagnostics).
    pub fn path(&self) -> &Path {
        &self.log_path
    }
}

/// Scan the framed records of `buf`, stopping at the first frame that
/// is torn (header or body past EOF, oversized length) or fails its
/// CRC. Returns the record ranges `(offset, body_range)` of the clean
/// prefix.
#[allow(clippy::type_complexity)]
fn scan_frames(buf: &[u8]) -> Vec<(u64, std::ops::Range<usize>)> {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while buf.len() - pos >= FRAME_HEADER {
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD || buf.len() - pos - FRAME_HEADER < len {
            break; // torn tail: length runs past EOF
        }
        let body = pos + FRAME_HEADER..pos + FRAME_HEADER + len;
        if crc32(&buf[body.clone()]) != crc {
            break; // torn tail: body half-written
        }
        frames.push((pos as u64, body.clone()));
        pos = body.end;
    }
    frames
}

/// Replay this worker's snapshot + log tail to the last sealed cut.
///
/// On success the returned states are exactly the replica's states at
/// that cut and the seal's hash has been re-verified against them.
/// Anything short of that is a typed [`LogError`]; nothing is ever
/// installed from a failed replay. A torn or corrupt tail *past* the
/// last seal is not an error — it is the expected residue of a crash
/// mid-write, and the replay simply lands on the seal before it.
pub fn recover<T: Adt>(
    adt: &T,
    dir: &Path,
    me: usize,
    objects: usize,
    mode: Mode,
) -> Result<Recovered<T>, LogError>
where
    T::Input: Wire,
    T::State: Wire,
{
    let mut table = ObjectTable::new(adt, objects, mode);
    let mut base: Option<SealInfo> = None;
    let mut replayed_records = 0u64;
    let mut log_bytes = 0u64;

    // rung 0: the compacted snapshot, if one exists
    let snap = snap_path(dir, me);
    match fs::read(&snap) {
        Ok(bytes) => {
            let frames = scan_frames(&bytes);
            let (_, body) = frames.first().ok_or(LogError::CorruptSnapshot)?;
            let buf = &bytes[body.clone()];
            let mut pos = 0usize;
            let seal = SealInfo::get(buf, &mut pos).ok_or(LogError::CorruptSnapshot)?;
            let states: Vec<T::State> = Vec::get(buf, &mut pos).ok_or(LogError::CorruptSnapshot)?;
            if pos != buf.len() {
                return Err(LogError::CorruptSnapshot);
            }
            if states.len() != objects {
                return Err(LogError::Arity);
            }
            table.install(&states);
            log_bytes += bytes.len() as u64;
            replayed_records += 1;
            base = Some(seal);
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(LogError::Io(e.to_string())),
    }

    // rung 1: the log tail, committed only up to its last valid seal
    let log = match fs::read(log_path(dir, me)) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(LogError::Io(e.to_string())),
    };
    let frames = scan_frames(&log);
    let last_seal = frames
        .iter()
        .rposition(|(_, body)| log[body.clone()].first() == Some(&TAG_SEAL));
    let mut seal = None;
    if let Some(last) = last_seal {
        for (offset, body) in &frames[..=last] {
            let buf = &log[body.clone()];
            let corrupt = LogError::CorruptRecord { offset: *offset };
            let mut pos = 1usize;
            match buf.first() {
                Some(&TAG_OWN) => {
                    let obj = u32::get(buf, &mut pos).ok_or(corrupt.clone())?;
                    let ts = Timestamp::get(buf, &mut pos).ok_or(corrupt.clone())?;
                    let input = T::Input::get(buf, &mut pos).ok_or(corrupt)?;
                    table.apply_update(adt, obj, ts, &input);
                }
                Some(&TAG_BATCH) => {
                    let _sender = usize::get(buf, &mut pos).ok_or(corrupt.clone())?;
                    let _seq = u64::get(buf, &mut pos).ok_or(corrupt.clone())?;
                    let n = usize::get(buf, &mut pos).ok_or(corrupt.clone())?;
                    for _ in 0..n {
                        let op: WireOp<T::Input> =
                            WireOp::get(buf, &mut pos).ok_or(corrupt.clone())?;
                        table.apply_update(adt, op.obj, op.ts, &op.input);
                    }
                }
                Some(&TAG_SEAL) => {
                    seal = Some(SealInfo::get(buf, &mut pos).ok_or(corrupt)?);
                }
                _ => return Err(corrupt),
            }
            replayed_records += 1;
        }
        let (_, last_body) = &frames[last];
        log_bytes += last_body.end as u64;
    }

    let seal = match (seal, base) {
        (Some(s), _) => s,
        (None, Some(b)) => b,
        (None, None) => return Err(LogError::NoSeal),
    };
    // the drain invariant makes the replayed fold equal the live one;
    // the sealed hash is the end-to-end witness that it actually did
    table.compact();
    if table.state_hash() != seal.state_hash {
        return Err(LogError::StateHash);
    }
    Ok(Recovered {
        states: table.snapshot(),
        seal,
        replayed_records,
        log_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbm_adt::counter::{Counter, CtInput};
    use cbm_adt::register::{RegInput, Register};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cbm-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ts(t: u64, p: usize) -> Timestamp {
        Timestamp::new(t, p)
    }

    fn seal_of<T: Adt>(table: &ObjectTable<T>, epoch: u64, issued: u64) -> SealInfo {
        SealInfo {
            epoch,
            boundary: true,
            issued,
            lamport: 10 * epoch,
            delivered: vec![epoch, epoch + 1],
            state_hash: table.state_hash(),
            monitor: MonitorStats::default(),
        }
    }

    #[test]
    fn replay_lands_on_last_seal_and_matches_live_state() {
        let dir = tmpdir("roundtrip");
        let adt = Register;
        let mut live = ObjectTable::new(&adt, 4, Mode::Convergent);
        let mut log = EpochLog::open(&dir, 0, true).unwrap();

        live.apply_update(&adt, 1, ts(1, 0), &RegInput::Write(5));
        log.log_own(1, ts(1, 0), &RegInput::Write(5)).unwrap();
        let batch = vec![WireOp {
            obj: 2,
            input: RegInput::Write(9),
            ts: ts(2, 1),
            wseq: None,
        }];
        for op in &batch {
            live.apply_update(&adt, op.obj, op.ts, &op.input);
        }
        log.log_batch(1, 0, &batch).unwrap();
        live.compact();
        let s1 = seal_of(&live, 1, 1);
        log.seal(&s1, 0).unwrap();

        // records past the last seal must be discarded by the replay
        log.log_own(3, ts(7, 0), &RegInput::Write(77)).unwrap();

        let rec = recover::<Register>(&adt, &dir, 0, 4, Mode::Convergent).unwrap();
        assert_eq!(rec.seal, s1);
        assert_eq!(rec.replayed_records, 3);
        let mut replayed = ObjectTable::new(&adt, 4, Mode::Convergent);
        replayed.install(&rec.states);
        assert_eq!(replayed.state_hash(), s1.state_hash);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_truncates_and_survives_restart() {
        let dir = tmpdir("snapshot");
        let adt = Counter;
        let mut live = ObjectTable::new(&adt, 2, Mode::Causal);
        let mut log = EpochLog::open(&dir, 3, true).unwrap();
        live.apply_update(&adt, 0, ts(1, 3), &CtInput::Add(4));
        log.log_own(0, ts(1, 3), &CtInput::Add(4)).unwrap();
        let s1 = seal_of(&live, 1, 1);
        assert!(log.seal(&s1, 1).unwrap(), "cadence of 1 compacts");
        log.snapshot(&s1, &live.snapshot()).unwrap();
        assert_eq!(fs::metadata(log.path()).unwrap().len(), 0);

        // the tail past the snapshot replays on top of it
        live.apply_update(&adt, 1, ts(2, 3), &CtInput::Add(-2));
        log.log_own(1, ts(2, 3), &CtInput::Add(-2)).unwrap();
        let s2 = seal_of(&live, 2, 2);
        log.seal(&s2, 1).unwrap();

        let rec = recover::<Counter>(&adt, &dir, 3, 2, Mode::Causal).unwrap();
        assert_eq!(rec.seal, s2);
        assert_eq!(rec.replayed_records, 3); // snapshot + own + seal
        assert_eq!(rec.states, vec![4, -2]);

        // reopening non-fresh appends; reopening fresh wipes
        drop(log);
        let log = EpochLog::open(&dir, 3, false).unwrap();
        drop(log);
        let rec = recover::<Counter>(&adt, &dir, 3, 2, Mode::Causal).unwrap();
        assert_eq!(rec.seal, s2);
        let _ = EpochLog::open(&dir, 3, true).unwrap();
        assert!(matches!(
            recover::<Counter>(&adt, &dir, 3, 2, Mode::Causal),
            Err(LogError::NoSeal)
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_clean_but_damaged_prefix_is_typed() {
        let dir = tmpdir("torn");
        let adt = Counter;
        let mut live = ObjectTable::new(&adt, 2, Mode::Causal);
        let mut log = EpochLog::open(&dir, 0, true).unwrap();
        live.apply_update(&adt, 0, ts(1, 0), &CtInput::Add(1));
        log.log_own(0, ts(1, 0), &CtInput::Add(1)).unwrap();
        let s1 = seal_of(&live, 1, 1);
        log.seal(&s1, 0).unwrap();
        let committed = fs::read(log.path()).unwrap();

        // a half-written record after the seal: clean replay to the seal
        let mut torn = committed.clone();
        torn.extend_from_slice(&[9, 0, 0, 0, 1, 2, 3]); // header cut short
        fs::write(log.path(), &torn).unwrap();
        let rec = recover::<Counter>(&adt, &dir, 0, 2, Mode::Causal).unwrap();
        assert_eq!(rec.seal, s1);
        assert_eq!(rec.log_bytes, committed.len() as u64);

        // a flipped byte inside the committed prefix: the CRC cuts the
        // scan before the seal, so nothing sealed remains -> typed error
        let mut flipped = committed.clone();
        flipped[FRAME_HEADER] ^= 0xff;
        fs::write(log.path(), &flipped).unwrap();
        assert!(matches!(
            recover::<Counter>(&adt, &dir, 0, 2, Mode::Causal),
            Err(LogError::NoSeal)
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_is_typed_not_fatal() {
        let dir = tmpdir("badsnap");
        let adt = Counter;
        let live = ObjectTable::new(&adt, 2, Mode::Causal);
        let mut log = EpochLog::open(&dir, 0, true).unwrap();
        let s1 = seal_of(&live, 1, 0);
        log.seal(&s1, 1).unwrap();
        log.snapshot(&s1, &live.snapshot()).unwrap();
        let snap = snap_path(&dir, 0);
        let mut bytes = fs::read(&snap).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&snap, &bytes).unwrap();
        assert!(matches!(
            recover::<Counter>(&adt, &dir, 0, 2, Mode::Causal),
            Err(LogError::CorruptSnapshot)
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    /// The own-update frame `log_own` stages, built by hand: what a
    /// per-record write would have put on disk.
    fn own_frame(obj: u32, t: Timestamp, input: &RegInput) -> Vec<u8> {
        let mut body = vec![TAG_OWN];
        obj.put(&mut body);
        t.put(&mut body);
        input.put(&mut body);
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        frame
    }

    #[test]
    fn unsealed_records_are_staged_and_a_crash_lands_on_the_seal() {
        let dir = tmpdir("unsealed");
        let adt = Register;
        let mut live = ObjectTable::new(&adt, 4, Mode::Convergent);
        let mut log = EpochLog::open(&dir, 0, true).unwrap();
        for i in 0..5u64 {
            let input = RegInput::Write(i);
            live.apply_update(&adt, i as u32 % 4, ts(i + 1, 0), &input);
            log.log_own(i as u32 % 4, ts(i + 1, 0), &input).unwrap();
        }
        live.compact();
        let s1 = seal_of(&live, 1, 5);
        log.seal(&s1, 0).unwrap();
        let committed = fs::read(log.path()).unwrap();
        assert_eq!(committed.len() as u64, log.appended);

        // appended past the seal, then a crash (drop without a seal):
        // under one chunk, so nothing reaches the file
        let mut tail = Vec::new();
        for i in 0..3u64 {
            let input = RegInput::Write(100 + i);
            log.log_own(i as u32, ts(10 + i, 0), &input).unwrap();
            tail.extend(own_frame(i as u32, ts(10 + i, 0), &input));
        }
        drop(log);
        assert_eq!(fs::read(log_path(&dir, 0)).unwrap(), committed);
        let staged = recover::<Register>(&adt, &dir, 0, 4, Mode::Convergent).unwrap();
        assert_eq!(staged.seal, s1);
        assert_eq!(staged.replayed_records, 6); // 5 own + seal
        assert_eq!(staged.log_bytes, committed.len() as u64);

        // the file per-record writes would have left replays the same
        let mut per_record = committed.clone();
        per_record.extend(&tail);
        fs::write(log_path(&dir, 0), &per_record).unwrap();
        let written = recover::<Register>(&adt, &dir, 0, 4, Mode::Convergent).unwrap();
        assert_eq!(written.seal, staged.seal);
        assert_eq!(written.replayed_records, staged.replayed_records);
        assert_eq!(written.log_bytes, staged.log_bytes);
        assert_eq!(written.states, staged.states);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_past_a_full_chunk_leaves_a_torn_tail_at_the_chunk_boundary() {
        let dir = tmpdir("chunk");
        let adt = Register;
        let mut live = ObjectTable::new(&adt, 4, Mode::Convergent);
        let mut log = EpochLog::open(&dir, 0, true).unwrap();
        live.apply_update(&adt, 0, ts(1, 0), &RegInput::Write(1));
        log.log_own(0, ts(1, 0), &RegInput::Write(1)).unwrap();
        live.compact();
        let s1 = seal_of(&live, 1, 1);
        log.seal(&s1, 0).unwrap();
        let committed = fs::metadata(log.path()).unwrap().len();

        // stage a little over one chunk past the seal, then crash
        let frame = own_frame(0, ts(2, 0), &RegInput::Write(0)).len();
        let mut i = 0u64;
        while log.appended - committed <= STAGE as u64 {
            log.log_own((i % 4) as u32, ts(2 + i, 0), &RegInput::Write(i))
                .unwrap();
            i += 1;
        }
        drop(log);
        let bytes = fs::read(log_path(&dir, 0)).unwrap();
        assert_eq!(
            bytes.len() as u64,
            committed + STAGE as u64,
            "one full chunk"
        );
        assert_ne!(STAGE % frame, 0, "the chunk must end mid-frame");
        let tail = scan_frames(&bytes[committed as usize..]);
        let clean = tail.last().map_or(0, |(_, body)| body.end);
        assert!(
            clean < STAGE,
            "the last frame is torn at the chunk boundary"
        );

        let rec = recover::<Register>(&adt, &dir, 0, 4, Mode::Convergent).unwrap();
        assert_eq!(rec.seal, s1);
        assert_eq!(rec.replayed_records, 2);
        assert_eq!(rec.log_bytes, committed);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn seals_and_compactions_replay_to_the_live_state() {
        let dir = tmpdir("compactions");
        let adt = Register;
        let mut live = ObjectTable::new(&adt, 8, Mode::Convergent);
        let mut log = EpochLog::open(&dir, 1, true).unwrap();
        let mut t = 0u64;
        let mut snapshots = 0;
        let mut last = None;
        for epoch in 1..=7u64 {
            // enough records per epoch that some intervals span chunks
            for k in 0..epoch * 1_500 {
                t += 1;
                let obj = (k * 7 % 8) as u32;
                let input = RegInput::Write(t * 31 % 1_000);
                live.apply_update(&adt, obj, ts(t, 1), &input);
                if k % 3 == 0 {
                    log.log_own(obj, ts(t, 1), &input).unwrap();
                } else {
                    let op = WireOp {
                        obj,
                        input,
                        ts: ts(t, 1),
                        wseq: None,
                    };
                    log.log_batch(0, k, &[op]).unwrap();
                }
            }
            live.compact();
            let seal = seal_of(&live, epoch, t);
            if log.seal(&seal, 2).unwrap() {
                log.snapshot(&seal, &live.snapshot()).unwrap();
                snapshots += 1;
            }
            last = Some(seal);
        }
        drop(log);
        assert_eq!(snapshots, 3);
        let rec = recover::<Register>(&adt, &dir, 1, 8, Mode::Convergent).unwrap();
        assert_eq!(Some(rec.seal.clone()), last);
        assert_eq!(rec.states, live.snapshot());
        let mut replayed = ObjectTable::new(&adt, 8, Mode::Convergent);
        replayed.install(&rec.states);
        assert_eq!(replayed.state_hash(), live.state_hash());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_snapshot_runs_on_the_empty_stage_of_a_reopened_log() {
        let dir = tmpdir("resume");
        let adt = Counter;
        let mut live = ObjectTable::new(&adt, 2, Mode::Causal);
        let mut log = EpochLog::open(&dir, 0, true).unwrap();
        live.apply_update(&adt, 0, ts(1, 0), &CtInput::Add(3));
        log.log_own(0, ts(1, 0), &CtInput::Add(3)).unwrap();
        let s1 = seal_of(&live, 1, 1);
        log.seal(&s1, 0).unwrap();
        drop(log);

        // cold restart: reopen without truncating, replay, compact the
        // resumed cut — no seal in between
        let mut log = EpochLog::open(&dir, 0, false).unwrap();
        let rec = recover::<Counter>(&adt, &dir, 0, 2, Mode::Causal).unwrap();
        assert_eq!(rec.seal, s1);
        log.snapshot(&rec.seal, &rec.states).unwrap();
        assert_eq!(fs::metadata(log.path()).unwrap().len(), 0);

        live.apply_update(&adt, 1, ts(2, 0), &CtInput::Add(-1));
        log.log_own(1, ts(2, 0), &CtInput::Add(-1)).unwrap();
        let s2 = seal_of(&live, 2, 2);
        log.seal(&s2, 0).unwrap();
        let rec = recover::<Counter>(&adt, &dir, 0, 2, Mode::Causal).unwrap();
        assert_eq!(rec.seal, s2);
        assert_eq!(rec.replayed_records, 3); // snapshot + own + seal
        assert_eq!(rec.states, vec![3, -1]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_epilogue_snapshot_runs_on_the_stage_the_crash_seal_emptied() {
        let dir = tmpdir("epilogue");
        let adt = Counter;
        let mut live = ObjectTable::new(&adt, 2, Mode::Causal);
        let mut log = EpochLog::open(&dir, 2, true).unwrap();
        live.apply_update(&adt, 0, ts(1, 2), &CtInput::Add(5));
        log.log_own(0, ts(1, 2), &CtInput::Add(5)).unwrap();
        let crash = seal_of(&live, 1, 1);
        log.seal(&crash, 0).unwrap();

        // the outage: the handle stays open and appends nothing; the
        // worker replays its own disk, catches up from co-replicas, and
        // compacts the recovered cut without sealing first
        let rec = recover::<Counter>(&adt, &dir, 2, 2, Mode::Causal).unwrap();
        assert_eq!(rec.seal, crash);
        let mut table = ObjectTable::new(&adt, 2, Mode::Causal);
        table.install(&rec.states);
        table.apply_update(&adt, 1, ts(4, 0), &CtInput::Add(7));
        let recovered = seal_of(&table, 3, 1);
        log.snapshot(&recovered, &table.snapshot()).unwrap();

        table.apply_update(&adt, 0, ts(5, 2), &CtInput::Add(1));
        log.log_own(0, ts(5, 2), &CtInput::Add(1)).unwrap();
        let s4 = seal_of(&table, 4, 2);
        log.seal(&s4, 0).unwrap();
        let rec = recover::<Counter>(&adt, &dir, 2, 2, Mode::Causal).unwrap();
        assert_eq!(rec.seal, s4);
        assert_eq!(rec.states, vec![6, 7]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "staged records past the last seal")]
    fn snapshot_over_staged_records_is_caught() {
        let dir = tmpdir("staged-snapshot");
        let adt = Counter;
        let live = ObjectTable::new(&adt, 2, Mode::Causal);
        let mut log = EpochLog::open(&dir, 0, true).unwrap();
        log.log_own(0, ts(1, 0), &CtInput::Add(1)).unwrap();
        // the assertion fires before any file is touched
        let _ = fs::remove_dir_all(&dir);
        let _ = log.snapshot(&seal_of(&live, 1, 1), &live.snapshot());
    }
}
