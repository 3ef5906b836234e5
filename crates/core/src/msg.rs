//! Exact wire sizes of the window-stream-array messages of Figs. 4
//! and 5.
//!
//! The replicas move typed payloads in memory, but the sizes they
//! report are the byte counts of the messages the paper's algorithms
//! send — `Mess(x, v)` for Fig. 4 and `Mess(x, v, vt, j)` for Fig. 5,
//! each prefixed by the causal broadcast's sender and vector clock —
//! laid out as fixed-width little-endian fields, node ids as u16.

/// Encoded size of a Fig. 4 message `Mess(x, v)` sent by the causal
/// broadcast of a cluster of `n`: sender (u16), vector clock (u16
/// length + `n` u64 components), stream index `x` (u32), value `v`
/// (u64) — `16 + 8·n` bytes.
pub(crate) fn cc_msg_size(n: usize) -> usize {
    2 + 2 + 8 * n + 4 + 8
}

/// Encoded size of a Fig. 5 message `Mess(x, v, vt, j)`: the Fig. 4
/// message plus the timestamp `(vt, j)` (u64 + u16) — 10 bytes, the
/// price of convergence.
pub(crate) fn ccv_msg_size(n: usize) -> usize {
    cc_msg_size(n) + 8 + 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbm_net::clock::{Timestamp, VectorClock};
    use cbm_net::wire::Wire;
    use cbm_net::NodeId;

    /// Lay out the Fig. 4 fields in the order the size functions
    /// document.
    fn put_cc(out: &mut Vec<u8>, sender: NodeId, vc: &VectorClock, x: u32, v: u64) {
        (sender as u16).put(out);
        (vc.len() as u16).put(out);
        for c in vc.components() {
            c.put(out);
        }
        x.put(out);
        v.put(out);
    }

    fn get_cc(buf: &[u8], pos: &mut usize) -> Option<(NodeId, VectorClock, u32, u64)> {
        let sender = u16::get(buf, pos)? as NodeId;
        let n = u16::get(buf, pos)? as usize;
        let mut vc = VectorClock::new(n);
        for i in 0..n {
            vc.set(i as NodeId, u64::get(buf, pos)?);
        }
        Some((sender, vc, u32::get(buf, pos)?, u64::get(buf, pos)?))
    }

    #[test]
    fn cc_roundtrip() {
        for n in [1usize, 3, 16] {
            let mut vc = VectorClock::new(n);
            vc.set(0, 5);
            vc.set((n - 1) as NodeId, 9);
            let mut enc = Vec::new();
            put_cc(&mut enc, 2, &vc, 7, 123456789);
            assert_eq!(enc.len(), cc_msg_size(n));
            assert_eq!(cc_msg_size(n), 16 + 8 * n);
            let mut pos = 0;
            assert_eq!(get_cc(&enc, &mut pos), Some((2, vc, 7, 123456789)));
            assert_eq!(pos, enc.len());
        }
    }

    #[test]
    fn ccv_roundtrip() {
        for n in [1usize, 2, 16] {
            let mut vc = VectorClock::new(n);
            vc.set((n - 1) as NodeId, 3);
            let ts = Timestamp::new(17, 1);
            let mut enc = Vec::new();
            put_cc(&mut enc, 1, &vc, 0, 42);
            ts.time.put(&mut enc);
            (ts.pid as u16).put(&mut enc);
            assert_eq!(enc.len(), ccv_msg_size(n));
            let mut pos = 0;
            assert_eq!(get_cc(&enc, &mut pos), Some((1, vc, 0, 42)));
            let time = u64::get(&enc, &mut pos);
            let pid = u16::get(&enc, &mut pos).map(|j| j as NodeId);
            assert_eq!((time, pid), (Some(ts.time), Some(ts.pid)));
            assert_eq!(pos, enc.len());
        }
    }

    #[test]
    fn ccv_messages_are_larger_than_cc() {
        // Fig. 5 pays 10 extra bytes per message for the timestamp —
        // the price of convergence.
        for n in [1, 3, 16] {
            assert_eq!(ccv_msg_size(n), cc_msg_size(n) + 10);
        }
    }
}
