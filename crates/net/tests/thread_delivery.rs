//! Real-thread causal delivery stress test.
//!
//! N threads broadcast concurrently over [`ThreadNet`] through
//! [`CausalBroadcast`]; every receiver's delivery order is checked
//! causal *independently of the protocol's own bookkeeping*: per-sender
//! sequence numbers must arrive gap-free and duplicate-free, and each
//! delivered message's vector clock must be covered by what the
//! receiver had already delivered. The sweep varies cluster size,
//! message count, and a seeded interleaving (send bursts and yield
//! points), so each run exercises a different OS schedule on top of a
//! different submission pattern. The batching multicast the store runs
//! ([`InterestBatchCausalBroadcast`]) gets the same treatment under a
//! full mask and under per-topic rf-2 masks.

use cbm_net::broadcast::{
    full_interest, CausalBroadcast, CausalMsg, InterestBatchCausalBroadcast, InterestMask,
    InterestMsg,
};
use cbm_net::clock::VectorClock;
use cbm_net::thread_net::{Endpoint, ThreadNet};
use cbm_net::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

/// Independent causal-delivery monitor for one receiver.
///
/// `deliver` is called with each message in the receiver's delivery
/// order; it panics (with context) on a duplicate, a per-sender gap, or
/// a vector clock not covered by the messages delivered before it.
struct CausalMonitor {
    me: usize,
    delivered: VectorClock,
}

impl CausalMonitor {
    fn new(me: usize, n: usize) -> Self {
        CausalMonitor {
            me,
            delivered: VectorClock::new(n),
        }
    }

    /// Record one of our own broadcasts (they deliver locally at once,
    /// so peers' later messages may carry our component in their clock).
    fn locally_broadcast(&mut self) {
        self.delivered.tick(self.me);
    }

    fn deliver(&mut self, sender: usize, vc: &VectorClock) {
        assert_ne!(sender, self.me, "own messages must not be redelivered");
        let expected = self.delivered.get(sender) + 1;
        let got = vc.get(sender);
        assert!(
            got == expected,
            "receiver {}: sender {sender} seq {got}, expected {expected} ({})",
            self.me,
            if got <= self.delivered.get(sender) {
                "duplicate"
            } else {
                "gap"
            }
        );
        for j in 0..self.delivered.len() {
            if j != sender {
                assert!(
                    vc.get(j) <= self.delivered.get(j),
                    "receiver {}: message from {sender} delivered before its \
                     causal past from {j} ({} > {})",
                    self.me,
                    vc.get(j),
                    self.delivered.get(j)
                );
            }
        }
        self.delivered.tick(sender);
    }

    /// Messages delivered from peers (own broadcasts excluded).
    fn remote_total(&self) -> u64 {
        self.delivered.total() - self.delivered.get(self.me)
    }
}

/// One full-mesh run: every node broadcasts `msgs` messages in seeded
/// bursts, receiving (and echo-chaining causality) between bursts.
fn causal_stress(n: usize, msgs: u64, seed: u64) {
    let net: ThreadNet<CausalMsg<u64>> = ThreadNet::new(n);
    let eps = net.into_endpoints();
    let stats = eps[0].stats();
    thread::scope(|s| {
        for ep in eps {
            s.spawn(move || {
                let me = ep.me;
                let n = ep.cluster_size();
                let mut rng = StdRng::seed_from_u64(seed ^ (me as u64).wrapping_mul(0x9E37));
                let mut proto: CausalBroadcast<u64> = CausalBroadcast::new(me, n);
                let mut monitor = CausalMonitor::new(me, n);
                let mut sent = 0u64;
                while sent < msgs || monitor.remote_total() < msgs * (n as u64 - 1) {
                    // a seeded burst of broadcasts
                    let burst = rng.gen_range(0u64..=3).min(msgs - sent);
                    for _ in 0..burst {
                        let m = proto.broadcast(sent);
                        monitor.locally_broadcast();
                        sent += 1;
                        ep.broadcast(m);
                    }
                    // drain whatever has arrived; deliveries feed the
                    // next burst's vector clock (real causal chains)
                    let mut got_any = false;
                    while let Some((_, m)) = ep.try_recv() {
                        got_any = true;
                        for d in proto.on_receive(m) {
                            monitor.deliver(d.sender, &d.vc);
                        }
                    }
                    if !got_any || rng.gen_bool(0.3) {
                        // idle or seeded interleaving point: let peers run
                        thread::yield_now();
                    }
                }
                assert_eq!(proto.buffered(), 0, "receiver {me}: undelivered leftovers");
            });
        }
    });
    assert_eq!(
        stats.snapshot().msgs_sent,
        n as u64 * msgs * (n as u64 - 1),
        "every broadcast fans out to n-1 peers, none lost"
    );
}

#[test]
fn causal_delivery_seed_sweep_3_nodes() {
    for seed in 0..8 {
        causal_stress(3, 200, seed);
    }
}

#[test]
fn causal_delivery_seed_sweep_4_nodes() {
    for seed in 0..6 {
        causal_stress(4, 150, seed);
    }
}

#[test]
fn causal_delivery_wide_mesh() {
    for seed in 0..3 {
        causal_stress(6, 60, seed);
    }
}

/// One payload of the batched runs. `past` is the pushing node's own
/// record of its causal past when it pushed: entry `j * topics + t`
/// counts sender `j`'s payloads on topic `t` it had delivered —
/// directly, or transitively through the `past` of what it delivered.
/// Own payloads count once flushed (local delivery at multicast).
#[derive(Debug, Clone)]
struct Tagged {
    src: NodeId,
    topic: usize,
    /// Position among `src`'s payloads on `topic`.
    idx: u64,
    past: Vec<u64>,
}

type Env = InterestMsg<Vec<Tagged>>;

/// Read-only inputs shared by the nodes of one batched run.
struct Run<'a> {
    /// `masks[t]`: topic `t`'s recipient set.
    masks: &'a [InterestMask],
    /// `plan[j][k]`: the topic of node `j`'s `k`-th payload, fixed up
    /// front so every receiver knows what it must get.
    plan: Vec<Vec<usize>>,
    /// `want[j * topics + t]`: node `j`'s payloads on topic `t`.
    want: Vec<u64>,
    seed: u64,
    /// Raised when a node panics, so its peers stop waiting for it.
    abort: AtomicBool,
}

/// Raises the flag if its thread unwinds.
struct AbortOnPanic<'a>(&'a AtomicBool);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// The batching multicast the store runs, over real threads: each of
/// four nodes pushes `msgs` payloads, each on one of its own topics,
/// and flushes in seeded bursts. Every receiver checks, from the
/// payloads alone and not from protocol state, that it gets exactly
/// the payloads of its topics, per sender and topic in push order with
/// no gap, each after every payload of its causal past that was
/// addressed to the receiver.
fn batched_stress(masks: &[InterestMask], msgs: u64, seed: u64) {
    let n = 4;
    let topics = masks.len();
    let plan: Vec<Vec<usize>> = (0..n)
        .map(|j| {
            let own: Vec<usize> = (0..topics).filter(|&t| masks[t].contains(j)).collect();
            let mut rng = StdRng::seed_from_u64(seed ^ (j as u64) << 7);
            (0..msgs)
                .map(|_| own[rng.gen_range(0..own.len())])
                .collect()
        })
        .collect();
    let mut want = vec![0u64; n * topics];
    for (j, topics_of_j) in plan.iter().enumerate() {
        for &t in topics_of_j {
            want[j * topics + t] += 1;
        }
    }
    let run = Run {
        masks,
        plan,
        want,
        seed,
        abort: AtomicBool::new(false),
    };
    let net: ThreadNet<Env> = ThreadNet::new(n);
    let eps: Vec<Endpoint<Env>> = thread::scope(|s| {
        let nodes: Vec<_> = net
            .into_endpoints()
            .into_iter()
            .map(|ep| s.spawn(|| batched_node(&run, ep)))
            .collect();
        nodes
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    // every node has sent everything: nothing else may be addressed to
    // anyone
    for ep in &eps {
        assert!(
            ep.try_recv().is_none(),
            "receiver {}: extra envelope",
            ep.me
        );
    }
}

/// One node of [`batched_stress`]; hands its endpoint back at the end.
fn batched_node(run: &Run, ep: Endpoint<Env>) -> Endpoint<Env> {
    let _guard = AbortOnPanic(&run.abort);
    let (me, n, topics) = (ep.me, ep.cluster_size(), run.masks.len());
    let mine = |t: usize| run.masks[t].contains(me);
    let msgs = run.plan[me].len() as u64;
    let mut rng = StdRng::seed_from_u64(run.seed.wrapping_mul(31) ^ me as u64);
    let mut proto: InterestBatchCausalBroadcast<Tagged> = InterestBatchCausalBroadcast::new(me, n);
    // this node's causal past, as in `Tagged::past`; on its own topics
    // the count from each other sender is what it has delivered
    let mut record = vec![0u64; n * topics];
    let mut pushed = vec![0u64; topics];
    // flushed envelopes not yet on the wire: released a seeded share at
    // a time in seeded order, so the mesh reorders and delays them
    let mut outbox: Vec<(NodeId, Env)> = Vec::new();
    let mut issued = 0;
    while !run.abort.load(Ordering::Relaxed) {
        let burst = rng.gen_range(0u64..=4).min(msgs - issued);
        for _ in 0..burst {
            let topic = run.plan[me][issued as usize];
            let tagged = Tagged {
                src: me,
                topic,
                idx: pushed[topic],
                past: record.clone(),
            };
            pushed[topic] += 1;
            issued += 1;
            if proto.push(tagged, run.masks[topic]) >= rng.gen_range(1..=3) {
                outbox.extend(proto.flush_mask(run.masks[topic]));
                record[me * topics + topic] = pushed[topic];
            }
        }
        if issued == msgs || rng.gen_bool(0.1) {
            outbox.extend(proto.flush_all());
            record[me * topics..(me + 1) * topics].copy_from_slice(&pushed);
        }
        let release = if issued == msgs {
            outbox.len()
        } else {
            rng.gen_range(0..=outbox.len())
        };
        for _ in 0..release {
            let (r, env) = outbox.swap_remove(rng.gen_range(0..outbox.len()));
            ep.send(r, env);
        }
        let mut got_any = false;
        while let Some((_, m)) = ep.try_recv() {
            got_any = true;
            for batch in proto.on_receive(m) {
                for p in batch.payload {
                    assert_eq!(p.src, batch.sender);
                    assert_ne!(p.src, me, "own payloads must not be redelivered");
                    assert!(mine(p.topic), "{me} got topic {} it is not in", p.topic);
                    let cell = p.src * topics + p.topic;
                    assert_eq!(
                        p.idx, record[cell],
                        "receiver {me}: sender {} topic {} out of order or gapped",
                        p.src, p.topic
                    );
                    for (c, &dep) in p.past.iter().enumerate() {
                        let (j, t) = (c / topics, c % topics);
                        assert!(
                            j == me || !mine(t) || dep <= record[c],
                            "receiver {me}: payload {}/{}#{} delivered before its causal \
                             past from sender {j} topic {t} ({dep} > {})",
                            p.src,
                            p.topic,
                            p.idx,
                            record[c]
                        );
                    }
                    for (r, &dep) in record.iter_mut().zip(&p.past) {
                        *r = (*r).max(dep);
                    }
                    record[cell] = p.idx + 1;
                }
            }
        }
        let done = (0..n * topics)
            .all(|c| c / topics == me || !mine(c % topics) || record[c] == run.want[c]);
        if issued == msgs && done {
            assert_eq!(proto.buffered(), 0, "receiver {me}: undelivered leftovers");
            break;
        }
        if !got_any || rng.gen_bool(0.25) {
            thread::yield_now();
        }
    }
    ep
}

/// Full mask: every node interested in the one topic (the store's rf 0).
#[test]
fn batched_causal_delivery_across_threads() {
    for seed in 0..6 {
        batched_stress(&[full_interest(4)], 120, seed);
    }
}

/// Per-topic rf-2 masks: one topic per pair of nodes, so a causal
/// chain `a → b → r` routinely runs through a node `b` that never sees
/// the payload `a` sent to `r` before it.
#[test]
fn batched_causal_delivery_across_threads_rf2() {
    let mut masks = Vec::new();
    for a in 0..4 {
        for b in a + 1..4 {
            let mut m = InterestMask::solo(a);
            m.set(b);
            masks.push(m);
        }
    }
    for seed in 0..6 {
        batched_stress(&masks, 120, seed);
    }
}
