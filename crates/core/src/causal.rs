//! [`CausalShared`]: the Fig. 4 algorithm generalized from window-stream
//! arrays to any abstract data type.
//!
//! The paper's algorithm for `W_k^K` broadcasts each write through the
//! reliable causal broadcast and applies it at every replica on
//! delivery, while reads return the local state. The generalization
//! replaces "write" by *the side effect `δ` of any update input* and
//! "read" by *the output `λ` of any input, evaluated on the local
//! state*:
//!
//! * **invoke(σ)**: compute the output `λ(state, σ)` locally; if `σ` is
//!   an update, apply `δ` locally at once (the immediate self-delivery
//!   of §6.1) and causally broadcast `σ`;
//! * **deliver(σ)**: apply `δ(state, σ)`.
//!
//! Operations never wait — wait-freedom and fault-tolerance exactly as
//! in §6.2. Proposition 6's argument survives the generalization
//! verbatim: each replica's apply order is a linearization of a causal
//! order (causal delivery + immediate self-delivery), the local state
//! is the fold of the applied prefix, so every local output is
//! explained by the prefix linearization — Def. 9's condition with
//! `p`'s outputs visible. `cbm-check::verify::verify_cc_execution`
//! re-checks this on every recorded run.
//!
//! What the generalization surrenders (knowingly — §4.1): for
//! update-queries like `pop`, the *output* is computed locally while
//! the *side effect* replicates, so concurrent pops can return the same
//! element and lose another (Fig. 3f) — the behaviour is causally
//! consistent but not sequentially consistent.

use crate::replica::{stamped_size, InvokeOutcome, Outgoing, Replica, Stamped};
use cbm_adt::Adt;
use cbm_net::broadcast::{CausalBroadcast, CausalMsg};
use cbm_net::NodeId;

/// A causally consistent replica of any ADT (generalized Fig. 4).
#[derive(Debug, Clone)]
pub struct CausalShared<T: Adt> {
    adt: T,
    state: T::State,
    bcast: CausalBroadcast<Stamped<T::Input>>,
    n: usize,
}

impl<T: Adt> Replica<T> for CausalShared<T> {
    type Msg = CausalMsg<Stamped<T::Input>>;

    fn new_replica(me: NodeId, n: usize, adt: T) -> Self {
        let state = adt.initial();
        CausalShared {
            adt,
            state,
            bcast: CausalBroadcast::new(me, n),
            n,
        }
    }

    fn invoke(
        &mut self,
        event: u64,
        input: &T::Input,
        out: &mut Vec<Outgoing<Self::Msg>>,
    ) -> InvokeOutcome<T::Output> {
        let output = self.adt.output(&self.state, input);
        if self.adt.is_update(input) {
            // immediate local delivery, then broadcast the effect
            self.state = self.adt.transition(&self.state, input);
            let msg = self.bcast.broadcast(Stamped {
                event,
                input: input.clone(),
            });
            out.push(Outgoing::Broadcast(msg));
        }
        InvokeOutcome::Done(output)
    }

    fn on_deliver(
        &mut self,
        _from: NodeId,
        msg: Self::Msg,
        _out: &mut Vec<Outgoing<Self::Msg>>,
        _completed: &mut Vec<(u64, T::Output)>,
        applied: &mut Vec<u64>,
    ) {
        for m in self.bcast.on_receive(msg) {
            self.state = self.adt.transition(&self.state, &m.payload.input);
            applied.push(m.payload.event);
        }
    }

    fn local_state(&self) -> T::State {
        self.state.clone()
    }

    fn msg_size(&self, msg: &Self::Msg) -> usize {
        // envelope: sender (2) + vector clock (2 + 8n) + stamped payload
        2 + 2 + 8 * msg.vc.len() + stamped_size(16)
    }

    fn flavour() -> &'static str {
        "causal (CC, Fig. 4 generalized)"
    }
}

impl<T: Adt> CausalShared<T> {
    /// Messages buffered awaiting causal delivery.
    pub fn buffered(&self) -> usize {
        self.bcast.buffered()
    }

    /// Cluster size.
    pub fn cluster_size(&self) -> usize {
        self.n
    }

    /// Evaluate an arbitrary query on the local state without recording
    /// an event (monitoring hooks).
    pub fn peek(&self, input: &T::Input) -> T::Output {
        self.adt.output(&self.state, input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbm_adt::window::{WaInput, WaOutput, WindowArray};

    fn cluster(n: usize) -> Vec<CausalShared<WindowArray>> {
        (0..n)
            .map(|me| CausalShared::new_replica(me, n, WindowArray::new(2, 2)))
            .collect()
    }

    /// Deliver every outgoing broadcast to every other replica, in the
    /// given global order.
    fn flood(
        reps: &mut [CausalShared<WindowArray>],
        msgs: Vec<Outgoing<CausalMsg<Stamped<WaInput>>>>,
        from: NodeId,
    ) {
        for m in msgs {
            let Outgoing::Broadcast(env) = m else {
                panic!("cc never sends p2p")
            };
            for (to, r) in reps.iter_mut().enumerate() {
                if to != from {
                    r.on_deliver(
                        from,
                        env.clone(),
                        &mut Vec::new(),
                        &mut Vec::new(),
                        &mut Vec::new(),
                    );
                }
            }
        }
    }

    #[test]
    fn reads_are_local_and_wait_free() {
        let mut reps = cluster(3);
        let mut out = Vec::new();
        let o = reps[0].invoke(0, &WaInput::Read(0), &mut out);
        assert_eq!(o, InvokeOutcome::Done(WaOutput::Window(vec![0, 0])));
        assert!(out.is_empty(), "reads send nothing");
    }

    #[test]
    fn writes_apply_locally_then_replicate() {
        let mut reps = cluster(2);
        let mut out = Vec::new();
        reps[0].invoke(0, &WaInput::Write(1, 9), &mut out);
        assert_eq!(out.len(), 1);
        // local immediate visibility
        assert_eq!(
            reps[0].peek(&WaInput::Read(1)),
            WaOutput::Window(vec![0, 9])
        );
        // not yet at the peer
        assert_eq!(
            reps[1].peek(&WaInput::Read(1)),
            WaOutput::Window(vec![0, 0])
        );
        let (head, tail) = reps.split_at_mut(1);
        let _ = head;
        let Outgoing::Broadcast(env) = out.pop().unwrap() else {
            unreachable!()
        };
        let mut applied = Vec::new();
        tail[0].on_deliver(0, env, &mut Vec::new(), &mut Vec::new(), &mut applied);
        assert_eq!(applied, vec![0]);
        assert_eq!(
            tail[0].peek(&WaInput::Read(1)),
            WaOutput::Window(vec![0, 9])
        );
    }

    #[test]
    fn causal_delivery_preserves_question_answer_order() {
        // p0 writes Q; p1 sees it and writes A; p2 receives A before Q
        // on the wire, but applies Q first.
        let mut reps = cluster(3);
        let mut out0 = Vec::new();
        reps[0].invoke(0, &WaInput::Write(0, 1), &mut out0);
        let Outgoing::Broadcast(q_env) = out0.pop().unwrap() else {
            unreachable!()
        };

        // deliver Q to p1 only
        reps[1].on_deliver(
            0,
            q_env.clone(),
            &mut Vec::new(),
            &mut Vec::new(),
            &mut Vec::new(),
        );
        let mut out1 = Vec::new();
        reps[1].invoke(1, &WaInput::Write(0, 2), &mut out1);
        let Outgoing::Broadcast(a_env) = out1.pop().unwrap() else {
            unreachable!()
        };

        // p2 gets A first: buffered; then Q: both applied in causal order
        let mut applied = Vec::new();
        reps[2].on_deliver(1, a_env, &mut Vec::new(), &mut Vec::new(), &mut applied);
        assert!(applied.is_empty());
        assert_eq!(reps[2].buffered(), 1);
        reps[2].on_deliver(0, q_env, &mut Vec::new(), &mut Vec::new(), &mut applied);
        assert_eq!(applied, vec![0, 1]);
        assert_eq!(
            reps[2].peek(&WaInput::Read(0)),
            WaOutput::Window(vec![1, 2])
        );
    }

    #[test]
    fn concurrent_writes_may_diverge_in_order_but_converge_in_multiset() {
        // CC does not promise convergence: two replicas may apply
        // concurrent writes in different orders (Fig. 3c).
        let mut reps = cluster(2);
        let mut out0 = Vec::new();
        let mut out1 = Vec::new();
        reps[0].invoke(0, &WaInput::Write(0, 1), &mut out0);
        reps[1].invoke(1, &WaInput::Write(0, 2), &mut out1);
        flood(&mut reps, out0, 0);
        flood(&mut reps, out1, 1);
        let s0 = reps[0].local_state();
        let s1 = reps[1].local_state();
        // both saw both writes (stream 0 = first window of the flat
        // state, k = 2)...
        assert_eq!(s0.len(), 2 * 2);
        // ...but in opposite orders
        assert_eq!(s0[0..2], [1, 2]);
        assert_eq!(s1[0..2], [2, 1]);
    }
}
