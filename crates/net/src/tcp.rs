//! Real-socket transport: a TCP mesh behind the same
//! [`Endpoint`](crate::endpoint::Endpoint) surface as
//! [`crate::thread_net::ThreadNet`].
//!
//! ## Wire format
//!
//! Every message is one **length-prefixed, CRC-protected frame** on a
//! per-peer ordered stream:
//!
//! ```text
//! [ len: u32 LE ][ crc32(body): u32 LE ][ body: len bytes ]
//! ```
//!
//! `body` opens with a one-byte tag: `0x00` for a data frame (the rest
//! is the message's [`Wire`] encoding) or `0x01` for a **flush
//! marker** — a transport-internal, uncounted cut token the engine's
//! drain rendezvous uses to tell "in flight" from "lost" (see
//! [`Endpoint::send_marker`](crate::endpoint::Endpoint::send_marker)).
//! `len` is bounded by [`MAX_FRAME`]; a frame claiming more is a
//! protocol error, not an allocation. The CRC is IEEE 802.3 (the polynomial every `crc32`
//! tool speaks), so captures are checkable with standard tooling. The
//! framing codec is a pure state machine ([`FrameDecoder`]) fed by
//! arbitrary byte chunks, so split reads, coalesced writes, and
//! corruption handling are testable without sockets
//! (`tests/tcp_framing.rs`).
//!
//! ## Mesh topology and handshake
//!
//! [`TcpNet::new`] builds a full mesh over loopback: one listener per
//! node, one full-duplex TCP stream per node pair (the higher id
//! connects, the lower id accepts), `TCP_NODELAY` set. Each stream
//! opens with a 12-byte handshake — magic, protocol version, node id —
//! so accept order never matters: the acceptor slots the stream by the
//! id the peer announced, and both sides reject a bad magic or
//! version.
//!
//! ## Threads and delivery semantics
//!
//! Per endpoint: one **reader thread per peer stream** decodes frames
//! into the endpoint's merged inbound channel (per-peer FIFO, no
//! cross-peer order — exactly `ThreadNet`'s contract), and one
//! **writer thread** drains an unbounded outbound queue onto the
//! sockets. Readers always drain their sockets, so a full kernel
//! buffer can never deadlock two nodes writing to each other, and the
//! unbounded writer queue keeps [`send_sized`] wait-free for workers.
//!
//! The accounting contract is `ThreadNet`'s, verbatim: the shared
//! [`ThreadNetStats`] count a message (and its **declared** byte size
//! — the protocol layer's exact wire estimate, not the frame bytes)
//! when the copy enters the outbound queue, which on a live mesh is
//! exactly when it will reach the peer's queue. Deterministic columns
//! (msgs/batches/payloads) therefore reproduce the committed
//! `ThreadNet` baselines bit-for-bit; see `docs/DEPLOYMENT.md`.
//!
//! ## Shutdown
//!
//! [`shutdown`](crate::endpoint::Endpoint::shutdown) (or dropping the
//! endpoint) closes the outbound queue: the writer finishes the
//! backlog, then half-closes every stream (`FIN`). Peers' readers see
//! EOF **after** all sent data (TCP ordering), exit, and drop their
//! inbound handles — so once every node has shut down,
//! [`Drain::recv`](crate::endpoint::Drain::recv) returns `None` after
//! the queue empties, the same coordination-free termination the
//! thread transport provides.
//!
//! [`send_sized`]: crate::endpoint::Endpoint::send_sized
//! [`Wire`]: crate::wire::Wire

use crate::thread_net::ThreadNetStats;
use crate::wire::{from_bytes, Wire};
use crate::NodeId;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// Body tag of a data frame (tag byte + `Wire`-encoded message).
const TAG_DATA: u8 = 0;
/// Body tag of a flush-marker frame (tag byte only).
const TAG_MARKER: u8 = 1;

/// Hard bound on one frame's body (64 MiB): larger is a protocol
/// error. Far above any engine message — a full-replication repair of
/// a whole epoch stays in the low megabytes — while keeping a
/// corrupted length prefix from looking like an allocation request.
pub const MAX_FRAME: usize = 64 << 20;

/// Stream opener: magic + version + announced node id.
const MAGIC: [u8; 4] = *b"CBMT";
const VERSION: u32 = 1;

/// Frame header: length prefix + body CRC.
pub const FRAME_HEADER: usize = 8;

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table, and `CRC_TABLES[k][b]` is the register update for byte `b`
/// followed by `k` zero bytes, so eight lookups fold one 8-byte word.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

/// IEEE 802.3 CRC-32 of `data` (slicing-by-8, byte-wise tail).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Encode one frame: `[len][crc][body]`.
///
/// Panics if `body` exceeds [`MAX_FRAME`] — a message that large is a
/// protocol-layer bug, not a runtime condition.
pub fn frame(body: &[u8]) -> Vec<u8> {
    assert!(body.len() <= MAX_FRAME, "frame body exceeds MAX_FRAME");
    let mut out = Vec::with_capacity(FRAME_HEADER + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Why a [`FrameDecoder`] rejected its stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds the decoder's max frame size.
    TooLarge {
        /// Claimed body length.
        len: usize,
        /// The decoder's bound.
        max: usize,
    },
    /// The body failed its CRC.
    Corrupt {
        /// CRC carried by the frame header.
        expect: u32,
        /// CRC computed over the received body.
        got: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max}-byte bound")
            }
            FrameError::Corrupt { expect, got } => {
                write!(
                    f,
                    "frame CRC mismatch: header {expect:#010x}, body {got:#010x}"
                )
            }
        }
    }
}

/// Incremental frame reassembly: feed arbitrary byte chunks with
/// [`push`](FrameDecoder::push), pull complete bodies with
/// [`next_frame`](FrameDecoder::next_frame). A pure state machine — no I/O — so
/// the framing contract is testable byte by byte.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted when it outgrows the tail.
    start: usize,
    max: usize,
}

impl FrameDecoder {
    /// Decoder enforcing the default [`MAX_FRAME`] bound.
    pub fn new() -> Self {
        Self::with_max(MAX_FRAME)
    }

    /// Decoder enforcing a custom body-size bound.
    pub fn with_max(max: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            start: 0,
            max,
        }
    }

    /// Feed received bytes (any split: one byte at a time, many frames
    /// coalesced, anything between).
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 && self.start >= self.buf.len().saturating_sub(self.start) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as a frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Next complete body, `Ok(None)` if more bytes are needed. After
    /// an `Err` the stream is poisoned garbage: resynchronising inside
    /// a corrupted byte stream is guesswork, so callers drop the
    /// connection instead.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let avail = &self.buf[self.start..];
        if avail.len() < FRAME_HEADER {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[0..4].try_into().expect("4 bytes")) as usize;
        if len > self.max {
            return Err(FrameError::TooLarge { len, max: self.max });
        }
        let expect = u32::from_le_bytes(avail[4..8].try_into().expect("4 bytes"));
        if avail.len() < FRAME_HEADER + len {
            return Ok(None);
        }
        let body = avail[FRAME_HEADER..FRAME_HEADER + len].to_vec();
        let got = crc32(&body);
        if got != expect {
            return Err(FrameError::Corrupt { expect, got });
        }
        self.start += FRAME_HEADER + len;
        Ok(Some(body))
    }
}

/// Write one frame-delimited message to a stream.
pub fn write_frame(mut w: impl Write, body: &[u8]) -> std::io::Result<()> {
    w.write_all(&frame(body))
}

/// Blocking-read one frame-delimited message from a stream; `None` on
/// clean EOF at a frame boundary, `Err` on corruption or I/O error.
///
/// Reads exactly one frame's bytes and nothing past it, so callers may
/// interleave this with other reads of the same stream and a message
/// arriving in the same TCP segment as its predecessor is never
/// swallowed. (The chunked data-plane reader uses [`FrameDecoder`]
/// directly and keeps it alive across reads instead.)
pub fn read_frame(mut r: impl Read, max: usize) -> std::io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; FRAME_HEADER];
    let mut got = 0;
    while got < FRAME_HEADER {
        let n = r.read(&mut header[got..])?;
        if n == 0 {
            return if got == 0 {
                Ok(None)
            } else {
                Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame",
                ))
            };
        }
        got += n;
    }
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
    let want = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len > max {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            FrameError::TooLarge { len, max }.to_string(),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let got_crc = crc32(&body);
    if got_crc != want {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            FrameError::Corrupt {
                expect: want,
                got: got_crc,
            }
            .to_string(),
        ));
    }
    Ok(Some(body))
}

fn handshake_bytes(id: NodeId) -> [u8; 12] {
    let mut b = [0u8; 12];
    b[0..4].copy_from_slice(&MAGIC);
    b[4..8].copy_from_slice(&VERSION.to_le_bytes());
    b[8..12].copy_from_slice(&(id as u32).to_le_bytes());
    b
}

fn read_handshake(stream: &mut TcpStream) -> std::io::Result<NodeId> {
    let mut b = [0u8; 12];
    stream.read_exact(&mut b)?;
    if b[0..4] != MAGIC {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "bad transport magic",
        ));
    }
    let version = u32::from_le_bytes(b[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("transport version {version}, expected {VERSION}"),
        ));
    }
    Ok(u32::from_le_bytes(b[8..12].try_into().expect("4 bytes")) as NodeId)
}

/// A fully connected loopback TCP mesh of `n` nodes, pre-handshaken
/// and ready to split into endpoints.
pub struct TcpNet<M> {
    /// `streams[me][peer]`, `None` on the diagonal.
    streams: Vec<Vec<Option<TcpStream>>>,
    stats: Arc<ThreadNetStats>,
    _msg: std::marker::PhantomData<fn() -> M>,
}

/// A node's endpoint on a [`TcpNet`] mesh. Implements
/// [`crate::endpoint::Endpoint`]; see the module docs for semantics.
pub struct TcpEndpoint<M> {
    me: NodeId,
    n: usize,
    out_tx: Sender<(NodeId, Vec<u8>)>,
    /// Loopback for self-sends (peers arrive via reader threads).
    self_tx: Sender<(NodeId, M)>,
    in_rx: Receiver<(NodeId, M)>,
    /// Flush markers observed per peer, bumped by the reader threads
    /// (see [`crate::endpoint::Endpoint::send_marker`]).
    markers: Arc<Vec<AtomicU64>>,
    stats: Arc<ThreadNetStats>,
}

/// Receive side of a shut-down [`TcpEndpoint`].
pub struct TcpDrain<M> {
    in_rx: Receiver<(NodeId, M)>,
}

impl<M: Wire + Send + 'static> TcpNet<M> {
    /// Build and handshake a full loopback mesh of `n` nodes.
    pub fn new(n: usize) -> std::io::Result<Self> {
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<std::io::Result<_>>()?;
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr())
            .collect::<std::io::Result<_>>()?;

        // one full-duplex stream per pair: the higher id dials the
        // lower id's listener, each thread owns one node's connections
        let meshed: Vec<std::io::Result<Vec<Option<TcpStream>>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|me| {
                    let addrs = &addrs;
                    let listener = &listeners[me];
                    s.spawn(move || -> std::io::Result<Vec<Option<TcpStream>>> {
                        let mut row: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
                        for peer in 0..me {
                            let mut stream = TcpStream::connect(addrs[peer])?;
                            stream.set_nodelay(true)?;
                            stream.write_all(&handshake_bytes(me))?;
                            let got = read_handshake(&mut stream)?;
                            if got != peer {
                                return Err(std::io::Error::new(
                                    std::io::ErrorKind::InvalidData,
                                    format!("dialed node {peer}, got {got}"),
                                ));
                            }
                            row[peer] = Some(stream);
                        }
                        for _ in me + 1..n {
                            let (mut stream, _) = listener.accept()?;
                            stream.set_nodelay(true)?;
                            let peer = read_handshake(&mut stream)?;
                            if peer <= me || peer >= n || row[peer].is_some() {
                                return Err(std::io::Error::new(
                                    std::io::ErrorKind::InvalidData,
                                    format!("unexpected peer id {peer} at node {me}"),
                                ));
                            }
                            stream.write_all(&handshake_bytes(me))?;
                            row[peer] = Some(stream);
                        }
                        Ok(row)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("mesh handshake thread panicked"))
                .collect()
        });
        let streams = meshed.into_iter().collect::<std::io::Result<Vec<_>>>()?;
        Ok(TcpNet {
            streams,
            stats: Arc::new(ThreadNetStats::new(n)),
            _msg: std::marker::PhantomData,
        })
    }

    /// The mesh's shared statistics handle.
    pub fn stats(&self) -> Arc<ThreadNetStats> {
        Arc::clone(&self.stats)
    }

    /// Consume the mesh into all `n` endpoints, spawning each
    /// endpoint's reader threads (one per peer stream, small stacks —
    /// they mostly block in `read`) and writer thread.
    pub fn into_endpoints(self) -> Vec<TcpEndpoint<M>> {
        let n = self.streams.len();
        self.streams
            .into_iter()
            .enumerate()
            .map(|(me, row)| {
                let (in_tx, in_rx) = channel::<(NodeId, M)>();
                let (out_tx, out_rx) = channel::<(NodeId, Vec<u8>)>();
                let markers: Arc<Vec<AtomicU64>> =
                    Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
                let shared: Vec<Option<Arc<TcpStream>>> =
                    row.into_iter().map(|s| s.map(Arc::new)).collect();
                for (peer, stream) in shared.iter().enumerate() {
                    let Some(stream) = stream else { continue };
                    let stream = Arc::clone(stream);
                    let in_tx = in_tx.clone();
                    let markers = Arc::clone(&markers);
                    std::thread::Builder::new()
                        .name(format!("tcp-read-{me}-{peer}"))
                        .stack_size(128 * 1024)
                        .spawn(move || reader_loop(&stream, peer, &in_tx, &markers[peer]))
                        .expect("spawn reader thread");
                }
                std::thread::Builder::new()
                    .name(format!("tcp-write-{me}"))
                    .stack_size(128 * 1024)
                    .spawn(move || writer_loop(&shared, &out_rx))
                    .expect("spawn writer thread");
                TcpEndpoint {
                    me,
                    n,
                    out_tx,
                    // the endpoint keeps the last inbound handle for
                    // self-sends; shutdown drops it alongside out_tx
                    self_tx: in_tx,
                    in_rx,
                    markers,
                    stats: Arc::clone(&self.stats),
                }
            })
            .collect()
    }
}

/// Decode frames off one peer stream into the merged inbound channel.
/// Exits on EOF (peer shut down), a transport error, or a poisoned
/// frame — in every case dropping its inbound handle, which is what
/// lets drains terminate.
fn reader_loop<M: Wire>(
    stream: &TcpStream,
    peer: NodeId,
    in_tx: &Sender<(NodeId, M)>,
    markers: &AtomicU64,
) {
    let mut dec = FrameDecoder::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut r: &TcpStream = stream;
    loop {
        loop {
            match dec.next_frame() {
                Ok(Some(body)) => match body.split_first() {
                    Some((&TAG_DATA, rest)) => {
                        let Some(msg) = from_bytes::<M>(rest) else {
                            return; // undecodable body: treat as peer death
                        };
                        if in_tx.send((peer, msg)).is_err() {
                            return; // receiver gone: endpoint fully dropped
                        }
                    }
                    Some((&TAG_MARKER, [])) => {
                        // Release pairs with marker_count's Acquire:
                        // whoever observes this marker also observes
                        // every data frame enqueued before it
                        markers.fetch_add(1, Ordering::Release);
                    }
                    _ => return, // unknown tag / malformed: peer death
                },
                Ok(None) => break,
                Err(_) => return, // corrupt stream: drop the connection
            }
        }
        match r.read(&mut chunk) {
            Ok(0) => return,
            Ok(k) => dec.push(&chunk[..k]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Drain the outbound queue onto the sockets; on disconnect (endpoint
/// shut down or dropped) finish the backlog, then `FIN` every stream.
fn writer_loop(streams: &[Option<Arc<TcpStream>>], out_rx: &Receiver<(NodeId, Vec<u8>)>) {
    while let Ok((to, bytes)) = out_rx.recv() {
        if let Some(stream) = &streams[to] {
            let mut w: &TcpStream = stream;
            // a failed write models a dead peer: the copy is silently
            // lost, exactly like a send to a dropped ThreadNet endpoint
            let _ = w.write_all(&bytes);
        }
    }
    for stream in streams.iter().flatten() {
        let _ = stream.shutdown(Shutdown::Write);
    }
}

impl<M: Wire + Clone + Send + 'static> crate::endpoint::Endpoint<M> for TcpEndpoint<M> {
    type Drain = TcpDrain<M>;

    fn me(&self) -> NodeId {
        self.me
    }

    fn cluster_size(&self) -> usize {
        self.n
    }

    fn stats(&self) -> Arc<ThreadNetStats> {
        Arc::clone(&self.stats)
    }

    fn send_sized(&self, to: NodeId, msg: M, bytes: usize) {
        let ok = if to == self.me {
            self.self_tx.send((self.me, msg)).is_ok()
        } else {
            let mut body = vec![TAG_DATA];
            msg.put(&mut body);
            self.out_tx.send((to, frame(&body))).is_ok()
        };
        if ok {
            self.stats.msgs_sent.fetch_add(1, Ordering::Relaxed);
            self.stats
                .bytes_sent
                .fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }

    fn recv(&self) -> Option<(NodeId, M)> {
        self.in_rx.recv().ok()
    }

    fn try_recv(&self) -> Option<(NodeId, M)> {
        self.in_rx.try_recv().ok()
    }

    fn send_marker(&self) {
        // uncounted and below the fault layer: a cut token, not traffic
        for to in 0..self.n {
            if to != self.me {
                let _ = self.out_tx.send((to, frame(&[TAG_MARKER])));
            }
        }
    }

    fn marker_count(&self, peer: NodeId) -> u64 {
        if peer == self.me {
            u64::MAX // self-edge is synchronous
        } else {
            self.markers[peer].load(Ordering::Acquire)
        }
    }

    fn shutdown(self) -> TcpDrain<M> {
        // dropping out_tx/self_tx closes the writer's queue: it flushes
        // the backlog and FINs the streams
        TcpDrain { in_rx: self.in_rx }
    }
}

impl<M> crate::endpoint::Drain<M> for TcpDrain<M> {
    fn recv(&self) -> Option<(NodeId, M)> {
        self.in_rx.recv().ok()
    }

    fn drain_now(&self) -> Vec<(NodeId, M)> {
        let mut out = Vec::new();
        while let Ok(m) = self.in_rx.try_recv() {
            out.push(m);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{Drain as _, Endpoint as _};

    #[test]
    fn crc32_matches_known_vectors() {
        // the IEEE check value every crc32 implementation agrees on
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The textbook CRC-32, one byte and one bit at a time, with no
    /// table: the reference the sliced one must reproduce.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn crc32_matches_bytewise_reference_at_every_length_and_offset() {
        let buf: Vec<u8> = (0..320u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for off in 0..8 {
            for len in 0..=300 {
                let data = &buf[off..off + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "len {len} off {off}");
            }
        }
    }

    #[test]
    fn frame_roundtrips_through_decoder() {
        let body = b"hello frames".to_vec();
        let mut dec = FrameDecoder::new();
        dec.push(&frame(&body));
        assert_eq!(dec.next_frame().unwrap(), Some(body));
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn corrupt_body_is_rejected() {
        let mut bytes = frame(b"payload");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        assert!(matches!(dec.next_frame(), Err(FrameError::Corrupt { .. })));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_buffering() {
        let mut dec = FrameDecoder::with_max(16);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&17u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        dec.push(&bytes);
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::TooLarge { len: 17, max: 16 })
        );
    }

    #[test]
    fn mesh_delivers_across_real_sockets() {
        let net = TcpNet::<u64>::new(3).expect("mesh");
        let stats = net.stats();
        let eps = net.into_endpoints();
        eps[0].send_sized(1, 41, 8);
        eps[0].send_sized(2, 42, 8);
        eps[2].send_sized(2, 99, 8); // self-send
        assert_eq!(eps[1].recv(), Some((0, 41)));
        // no ordering across senders: node 2 merges 0's TCP copy with
        // its own loopback copy in either order
        let mut got = vec![eps[2].recv().unwrap(), eps[2].recv().unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec![(0, 42), (2, 99)]);
        let snap = stats.snapshot();
        assert_eq!(snap.msgs_sent, 3);
        assert_eq!(snap.bytes_sent, 24);
    }

    #[test]
    fn per_peer_order_is_preserved() {
        let net = TcpNet::<u64>::new(2).expect("mesh");
        let eps = net.into_endpoints();
        for i in 0..100u64 {
            eps[0].send_sized(1, i, 1);
        }
        for i in 0..100u64 {
            assert_eq!(eps[1].recv(), Some((0, i)));
        }
    }

    #[test]
    fn shutdown_drains_then_terminates() {
        let net = TcpNet::<u64>::new(2).expect("mesh");
        let mut eps = net.into_endpoints();
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        e0.send_sized(1, 7, 1);
        e0.send_sized(1, 8, 1);
        let d0 = e0.shutdown();
        let d1 = e1.shutdown();
        // all sends flushed before the FIN, so the drain sees them all
        assert_eq!(d1.recv(), Some((0, 7)));
        assert_eq!(d1.recv(), Some((0, 8)));
        assert_eq!(d1.recv(), None);
        assert_eq!(d0.recv(), None);
        assert!(d1.drain_now().is_empty());
    }

    #[test]
    fn single_node_mesh_works() {
        let net = TcpNet::<u64>::new(1).expect("mesh");
        let eps = net.into_endpoints();
        eps[0].send_sized(0, 5, 1);
        assert_eq!(eps[0].recv(), Some((0, 5)));
        let d = eps.into_iter().next().unwrap().shutdown();
        assert_eq!(d.recv(), None);
    }
}
