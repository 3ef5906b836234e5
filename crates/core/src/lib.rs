//! # cbm-core — Causal consistency beyond memory
//!
//! The primary contribution of Perrin, Mostéfaoui & Jard (PPoPP 2016)
//! as a library: wait-free replicated shared objects for **arbitrary
//! abstract data types**, implemented over reliable broadcast layers,
//! together with the baselines needed to situate them on the Fig. 1
//! hierarchy.
//!
//! | replica | consistency | broadcast layer | paper |
//! |---------|-------------|-----------------|-------|
//! | [`CausalShared`](causal::CausalShared) | causal consistency (CC) | causal | Fig. 4, generalized; Prop. 6 |
//! | [`ConvergentShared`](convergent::ConvergentShared) | causal convergence (CCv) | causal + Lamport arbitration | Fig. 5, generalized; Prop. 7 |
//! | [`WkArrayCc`](wk_array::WkArrayCc) | CC for `W_k^K` | causal | Fig. 4, verbatim |
//! | [`WkArrayCcv`](wk_array::WkArrayCcv) | CCv for `W_k^K` | causal | Fig. 5, verbatim |
//! | [`PramShared`](pram::PramShared) | pipelined consistency (PC) | FIFO | §1 baseline |
//! | [`EcShared`](ec::EcShared) | eventual consistency (arbitration without causal delivery) | unordered | §1/§5 baseline |
//! | [`SeqShared`](seq::SeqShared) | sequential consistency (SC) | total order (sequencer) | §1 motivation: *not* wait-free |
//!
//! All wait-free replicas complete every operation locally, without any
//! network round-trip — the defining property of §6.1. The sequential
//! baseline's operations block until their global slot is delivered;
//! the latency gap between the two is exactly the paper's motivation
//! and is measured by `cbm-bench`.
//!
//! [`cluster::Cluster`] drives any replica flavour over the
//! deterministic simulator, records the resulting [`cbm_history`]
//! history with its ground-truth causal witness, and hands both to the
//! checkers (`cbm-check::verify`) — this is how Propositions 6 and 7
//! are validated on thousands of randomized executions. Runs can be
//! fault-injected through [`cluster::Cluster::run_faulted`] with a
//! `cbm-net` `FaultPlan` (partitions, loss, duplication, latency
//! degradation, crash/recover, clock skew); the fault architecture and
//! the scenario subsystem built on it (`cbm-sim`) are described in
//! `docs/SIMULATION.md`.

//! ## Example
//!
//! ```
//! use cbm_adt::window::{WaInput, WindowArray};
//! use cbm_core::causal::CausalShared;
//! use cbm_core::cluster::{Cluster, Script, ScriptOp};
//! use cbm_net::latency::LatencyModel;
//!
//! let adt = WindowArray::new(1, 2);
//! let cluster: Cluster<WindowArray, CausalShared<WindowArray>> =
//!     Cluster::new(2, adt, LatencyModel::Uniform(1, 40), 7);
//! let script = Script::new(vec![
//!     vec![ScriptOp { think: 3, input: WaInput::Write(0, 5) }],
//!     vec![ScriptOp { think: 50, input: WaInput::Read(0) }],
//! ]);
//! let result = cluster.run(script);
//! assert_eq!(result.history.len(), 2);
//! // p1's read happened 50 ticks in: the write (delay ≤ 40) is visible
//! use cbm_adt::window::WaOutput;
//! let read = result.history.label(cbm_history::EventId(1));
//! assert_eq!(read.output, Some(WaOutput::Window(vec![0, 5])));
//! ```
//!
//! (See `examples/quickstart.rs` for the end-to-end version with
//! witness verification.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod causal;
pub mod cluster;
pub mod consensus;
pub mod convergent;
pub mod ec;
pub mod msg;
pub mod pram;
pub mod replica;
pub mod seq;
pub mod wk_array;
pub mod workload;

pub use replica::{InvokeOutcome, Outgoing, Replica, Stamped};
