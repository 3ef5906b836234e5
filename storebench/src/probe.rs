//! Process counters read around each engine call, from outside the
//! program: `getrusage` CPU time and context switches, `/proc/self/io`
//! write syscall and byte counts, `/proc/self/net/snmp` TCP segment counts,
//! the `VmHWM` peak resident set, and a counting global allocator.
//!
//! Linux counts `read`/`write` on files in `syscr`/`syscw`, but not the
//! `send`/`recv` calls the standard library uses on sockets, so socket
//! traffic is counted in TCP segments instead. The segment counters
//! belong to the network namespace, so they also count any other TCP
//! traffic in it while the engine runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator plus two relaxed counters. Counting is off
/// until [`count_allocs`] turns it on, so the end-to-end runs pay one
/// relaxed load per allocation and no shared-counter traffic.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the
// counters are plain atomics and never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded under the caller's `GlobalAlloc::alloc` contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded under the caller's `GlobalAlloc::alloc_zeroed` contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded under the caller's `GlobalAlloc::realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Start counting allocations (for the rest of the process).
pub fn count_allocs() {
    COUNTING.store(true, Ordering::Relaxed);
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s
/// (`ru_maxrss` … `ru_nivcsw`).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const NVCSW: usize = 12;
const NIVCSW: usize = 13;

/// Cumulative process counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub user_ns: u64,
    pub sys_ns: u64,
    pub vol_csw: u64,
    pub invol_csw: u64,
    pub syscw: u64,
    pub wchar: u64,
    pub tcp_in_segs: u64,
    pub tcp_out_segs: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Counters {
    /// Read every counter now.
    pub fn now() -> Counters {
        let mut ru = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            longs: [0; 14],
        };
        // SAFETY: `ru` is a live, writable value laid out as the
        // kernel's 64-bit `struct rusage`; `getrusage` only writes it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let tv_ns = |t: &Timeval| (t.sec as u64) * 1_000_000_000 + (t.usec as u64) * 1_000;
        let io = std::fs::read_to_string("/proc/self/io").expect("read /proc/self/io");
        let field = |name: &str| -> u64 {
            io.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or_else(|| panic!("/proc/self/io has no {name}"))
        };
        let (tcp_in_segs, tcp_out_segs) = tcp_segments();
        Counters {
            user_ns: tv_ns(&ru.utime),
            sys_ns: tv_ns(&ru.stime),
            vol_csw: ru.longs[NVCSW] as u64,
            invol_csw: ru.longs[NIVCSW] as u64,
            syscw: field("syscw"),
            wchar: field("wchar"),
            tcp_in_segs,
            tcp_out_segs,
            allocs: ALLOCS.load(Ordering::Relaxed),
            alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        }
    }

    /// Counter growth from `before` to `self`.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            user_ns: self.user_ns - before.user_ns,
            sys_ns: self.sys_ns - before.sys_ns,
            vol_csw: self.vol_csw - before.vol_csw,
            invol_csw: self.invol_csw - before.invol_csw,
            syscw: self.syscw - before.syscw,
            wchar: self.wchar - before.wchar,
            tcp_in_segs: self.tcp_in_segs - before.tcp_in_segs,
            tcp_out_segs: self.tcp_out_segs - before.tcp_out_segs,
            allocs: self.allocs - before.allocs,
            alloc_bytes: self.alloc_bytes - before.alloc_bytes,
        }
    }
}

/// `(InSegs, OutSegs)` of the `Tcp:` rows of `/proc/self/net/snmp`.
fn tcp_segments() -> (u64, u64) {
    let snmp = std::fs::read_to_string("/proc/self/net/snmp").expect("read /proc/self/net/snmp");
    let mut rows = snmp.lines().filter_map(|l| l.strip_prefix("Tcp:"));
    let (names, values) = (rows.next(), rows.next());
    let (Some(names), Some(values)) = (names, values) else {
        panic!("/proc/self/net/snmp has no Tcp rows");
    };
    let col = |name: &str| -> u64 {
        names
            .split_whitespace()
            .zip(values.split_whitespace())
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or_else(|| panic!("/proc/self/net/snmp has no Tcp {name}"))
    };
    (col("InSegs"), col("OutSegs"))
}

/// Reset the process's peak resident set to its current size.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("write /proc/self/clear_refs");
}

/// Peak resident set since the last [`reset_peak_rss`], in KiB.
pub fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status")
}
