//! Composable binary codec for socket transports.
//!
//! The workspace builds offline with no serialization crate, so
//! everything that crosses a real socket — engine messages over
//! [`crate::tcp`], leg specs and reports over the bench control
//! protocol — encodes through this one hand-rolled trait. The format is little-endian,
//! length-prefixed where variable, and deliberately boring: no
//! self-description, no versioning beyond the frame layer's handshake,
//! because both ends of every connection are the same binary.
//!
//! Composite impls live next to their types (`StoreMsg` and the report
//! chain in `cbm-store`, leg specs in `cbm-bench`); this module owns
//! the primitives plus the codecs for `cbm-net`'s own fault vocabulary
//! so a [`FaultPlan`] can ride a control socket. Probabilities encode
//! as `f64::to_bits` — bit-exact round-trips, no text formatting loss,
//! which matters because chaos rolls are seeded *and* thresholded
//! deterministically.

use crate::broadcast::InterestMsg;
use crate::clock::Timestamp;
use crate::delta::KnowledgeDelta;
use crate::fault::{Fault, FaultEvent, FaultPlan};
use crate::NodeId;

/// A value with a canonical little-endian wire form.
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);

    /// Decode one value starting at `*pos`, advancing `*pos` past it.
    /// `None` on truncated or malformed input (socket peers are not
    /// trusted to be well-formed; the transports never panic on bytes).
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self>;
}

/// Encode a value to a fresh buffer.
pub fn to_bytes<T: Wire>(v: &T) -> Vec<u8> {
    let mut out = Vec::new();
    v.put(&mut out);
    out
}

/// Decode a value that must consume the entire buffer.
pub fn from_bytes<T: Wire>(buf: &[u8]) -> Option<T> {
    let mut pos = 0;
    let v = T::get(buf, &mut pos)?;
    (pos == buf.len()).then_some(v)
}

macro_rules! int_wire {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
                const N: usize = std::mem::size_of::<$t>();
                let bytes = buf.get(*pos..*pos + N)?;
                *pos += N;
                Some(<$t>::from_le_bytes(bytes.try_into().ok()?))
            }
        }
    )*};
}

int_wire!(u8, u16, u32, u64, u128, i64);

impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        usize::try_from(u64::get(buf, pos)?).ok()
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        match u8::get(buf, pos)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Wire for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(f64::from_bits(u64::get(buf, pos)?))
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let len = usize::get(buf, pos)?;
        let bytes = buf.get(*pos..pos.checked_add(len)?)?;
        *pos += len;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        match u8::get(buf, pos)? {
            0 => Some(None),
            1 => Some(Some(T::get(buf, pos)?)),
            _ => None,
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for v in self {
            v.put(out);
        }
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let len = usize::get(buf, pos)?;
        // cap preallocation by what the buffer could possibly hold, so
        // a malformed length cannot balloon memory before failing
        let mut out = Vec::with_capacity(len.min(buf.len().saturating_sub(*pos)));
        for _ in 0..len {
            out.push(T::get(buf, pos)?);
        }
        Some(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some((A::get(buf, pos)?, B::get(buf, pos)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
        self.2.put(out);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some((A::get(buf, pos)?, B::get(buf, pos)?, C::get(buf, pos)?))
    }
}

impl Wire for Timestamp {
    fn put(&self, out: &mut Vec<u8>) {
        self.time.put(out);
        self.pid.put(out);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(Timestamp {
            time: u64::get(buf, pos)?,
            pid: NodeId::get(buf, pos)?,
        })
    }
}

impl Wire for KnowledgeDelta {
    fn put(&self, out: &mut Vec<u8>) {
        self.rows.put(out);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(KnowledgeDelta {
            rows: Vec::get(buf, pos)?,
        })
    }
}

impl<P: Wire> Wire for InterestMsg<P> {
    fn put(&self, out: &mut Vec<u8>) {
        self.sender.put(out);
        self.seq.put(out);
        self.knows.put(out);
        self.payload.put(out);
    }
    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(InterestMsg {
            sender: NodeId::get(buf, pos)?,
            seq: u64::get(buf, pos)?,
            knows: KnowledgeDelta::get(buf, pos)?,
            payload: P::get(buf, pos)?,
        })
    }
}

impl Wire for Fault {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Fault::Crash(p) => {
                out.push(0);
                p.put(out);
            }
            Fault::Recover(p) => {
                out.push(1);
                p.put(out);
            }
            Fault::Partition { side } => {
                out.push(2);
                side.put(out);
            }
            Fault::PartitionOneWay { from, to } => {
                out.push(3);
                from.put(out);
                to.put(out);
            }
            Fault::BlockLink { from, to } => {
                out.push(4);
                from.put(out);
                to.put(out);
            }
            Fault::HealLink { from, to } => {
                out.push(5);
                from.put(out);
                to.put(out);
            }
            Fault::HealAll => out.push(6),
            Fault::LinkDrop { from, to, prob } => {
                out.push(7);
                from.put(out);
                to.put(out);
                prob.put(out);
            }
            Fault::DropAll { prob } => {
                out.push(8);
                prob.put(out);
            }
            Fault::LinkDup { from, to, prob } => {
                out.push(9);
                from.put(out);
                to.put(out);
                prob.put(out);
            }
            Fault::DupAll { prob } => {
                out.push(10);
                prob.put(out);
            }
            Fault::LinkDelay { from, to, extra } => {
                out.push(11);
                from.put(out);
                to.put(out);
                extra.put(out);
            }
            Fault::DelayAll { extra } => {
                out.push(12);
                extra.put(out);
            }
            Fault::ClockSkew { node, offset } => {
                out.push(13);
                node.put(out);
                offset.put(out);
            }
        }
    }

    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(match u8::get(buf, pos)? {
            0 => Fault::Crash(NodeId::get(buf, pos)?),
            1 => Fault::Recover(NodeId::get(buf, pos)?),
            2 => Fault::Partition {
                side: Vec::get(buf, pos)?,
            },
            3 => Fault::PartitionOneWay {
                from: Vec::get(buf, pos)?,
                to: Vec::get(buf, pos)?,
            },
            4 => Fault::BlockLink {
                from: NodeId::get(buf, pos)?,
                to: NodeId::get(buf, pos)?,
            },
            5 => Fault::HealLink {
                from: NodeId::get(buf, pos)?,
                to: NodeId::get(buf, pos)?,
            },
            6 => Fault::HealAll,
            7 => Fault::LinkDrop {
                from: NodeId::get(buf, pos)?,
                to: NodeId::get(buf, pos)?,
                prob: f64::get(buf, pos)?,
            },
            8 => Fault::DropAll {
                prob: f64::get(buf, pos)?,
            },
            9 => Fault::LinkDup {
                from: NodeId::get(buf, pos)?,
                to: NodeId::get(buf, pos)?,
                prob: f64::get(buf, pos)?,
            },
            10 => Fault::DupAll {
                prob: f64::get(buf, pos)?,
            },
            11 => Fault::LinkDelay {
                from: NodeId::get(buf, pos)?,
                to: NodeId::get(buf, pos)?,
                extra: u64::get(buf, pos)?,
            },
            12 => Fault::DelayAll {
                extra: u64::get(buf, pos)?,
            },
            13 => Fault::ClockSkew {
                node: NodeId::get(buf, pos)?,
                offset: u64::get(buf, pos)?,
            },
            _ => return None,
        })
    }
}

impl Wire for FaultPlan {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for FaultEvent { at, fault } in self.events() {
            at.put(out);
            fault.put(out);
        }
    }

    fn get(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let len = usize::get(buf, pos)?;
        let mut plan = FaultPlan::new();
        for _ in 0..len {
            let at = u64::get(buf, pos)?;
            plan.push(at, Fault::get(buf, pos)?);
        }
        Some(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        assert_eq!(from_bytes::<T>(&bytes), Some(v));
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(123u128 << 80);
        roundtrip(true);
        roundtrip(core::f64::consts::PI);
        roundtrip(String::from("héllo"));
        roundtrip(Some(7u32));
        roundtrip(Option::<u32>::None);
        roundtrip(vec![1u64, 2, 3]);
        roundtrip((String::from("k"), 9u64));
    }

    #[test]
    fn f64_is_bit_exact() {
        let v = 0.1f64 + 0.2;
        let bytes = to_bytes(&v);
        assert_eq!(from_bytes::<f64>(&bytes).unwrap().to_bits(), v.to_bits());
    }

    #[test]
    fn truncated_input_is_none_not_panic() {
        let bytes = to_bytes(&vec![1u64, 2, 3]);
        for cut in 0..bytes.len() {
            assert_eq!(from_bytes::<Vec<u64>>(&bytes[..cut]), None);
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = to_bytes(&7u32);
        bytes.push(0);
        assert_eq!(from_bytes::<u32>(&bytes), None);
    }

    #[test]
    fn fault_plan_roundtrips_with_exact_probabilities() {
        let mut plan = FaultPlan::new();
        plan.push(0, Fault::DropAll { prob: 0.015 });
        plan.push(
            100,
            Fault::LinkDup {
                from: 1,
                to: 2,
                prob: 0.33,
            },
        );
        plan.push(200, Fault::Crash(3));
        plan.push(400, Fault::Recover(3));
        plan.push(50, Fault::Partition { side: vec![0, 1] });
        plan.push(60, Fault::HealAll);
        plan.push(70, Fault::ClockSkew { node: 2, offset: 9 });
        let bytes = to_bytes(&plan);
        let back = from_bytes::<FaultPlan>(&bytes).unwrap();
        assert_eq!(back.len(), plan.len());
        for (a, b) in plan.events().iter().zip(back.events()) {
            assert_eq!(a.at, b.at);
            assert_eq!(format!("{:?}", a.fault), format!("{:?}", b.fault));
        }
    }
}
