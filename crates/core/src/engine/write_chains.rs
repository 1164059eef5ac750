//! A chained write is its queued write.
//!
//! On the synchronous pump a delivery whose only effect is one envelope
//! runs that envelope inline while the queue is empty, and a forward
//! over an unedited tree link resolves its node by the link's memoised
//! id (`Engine::deliver`). This drives twin seeded overlays (k = 1 and
//! k = 2, caches on) through one mixed script: on one twin the real
//! [`Pump`](crate::system::Pump); on the other [`Queued`], the same
//! FIFO drain over a transport that is neither idle nor synchronous,
//! so nothing chains: every envelope is queued and popped, an exact
//! lookup's hops included, and requests are judged at quiescence.
//! After every operation both twins must show the same outcome,
//! counters, nodes, hosts, follower records and copies, interned ids
//! and epochs, and a clean `audit()` (link-id memos included).
//!
//! Inside the engine module because the twin driver applies the pump's
//! crate-private requeue budget.

use super::slab_props::key_pool;
use super::{requeue_limit, Engine, Step, Transport};
use crate::alphabet::Alphabet;
use crate::balance::mlt::rebalance_pair;
use crate::error::Result;
use crate::key::Key;
use crate::messages::Envelope;
use crate::overlay::{Driver, Overlay};
use crate::system::{DlptSystem, SystemConfig, REQUEUE_BUDGET};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Small enough that visits are refused and followers serve them.
const CAPACITY: u32 = 6;

/// The pump with chaining off: its FIFO, drain loop and requeue
/// policy, over a transport that never reports idle or synchronous.
#[derive(Debug)]
struct Queued {
    queue: VecDeque<(u32, Envelope)>,
    rng: StdRng,
}

impl Transport for Queued {
    fn deliver(&mut self, env: Envelope) {
        self.queue.push_back((0, env));
    }
}

impl Driver for Queued {
    fn inject(&mut self, _: &mut Engine, env: Envelope) {
        self.deliver(env);
    }

    fn quiesce(&mut self, engine: &mut Engine) -> Result<()> {
        while let Some((requeues, env)) = self.queue.pop_front() {
            let Step::Requeue(env) = engine.deliver(self, env)? else {
                continue;
            };
            if requeues >= requeue_limit(REQUEUE_BUDGET, engine.peer_count()) {
                engine.fail_undeliverable(self, env)?;
                continue;
            }
            engine.stats.requeues += 1;
            self.queue.push_back((requeues + 1, env));
        }
        Ok(())
    }

    fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

/// One step of the script, drawn against the chaining twin and applied
/// to both.
#[derive(Debug, Clone)]
enum Op {
    Insert(Key),
    Remove(Key),
    Lookup(Key),
    Range(Key, Key),
    Complete(Key),
    Join,
    Leave(Key),
    /// Crash these peers, repair the tree, then one anti-entropy pass.
    Crash(Vec<Key>),
    AntiEntropy,
    /// Close the unit, then one MLT step on each of these peers.
    Mlt(Vec<Key>),
}

fn config() -> SystemConfig {
    SystemConfig {
        alphabet: Alphabet::new(b"012", "chains"),
        peer_id_len: 6,
        default_capacity: CAPACITY,
    }
}

/// `SystemBuilder::build`, for any driver.
fn overlay<D: Driver>(mut sys: Overlay<D>, k: usize) -> Overlay<D> {
    sys.set_replication(k);
    sys.set_cache_capacity(8);
    for _ in 0..10 {
        sys.add_peer(CAPACITY).expect("bootstrap join");
    }
    sys
}

/// Applies `op`; returns what it reported.
fn apply<D: Driver>(sys: &mut Overlay<D>, op: &Op) -> String {
    match op {
        Op::Insert(key) => format!("{:?}", sys.insert_data(key.clone())),
        Op::Remove(key) => format!("{:?}", sys.remove_data(key)),
        Op::Lookup(key) => format!("{:?}", sys.lookup(key)),
        Op::Range(lo, hi) => format!("{:?}", sys.range(lo, hi)),
        Op::Complete(prefix) => format!("{:?}", sys.complete(prefix)),
        Op::Join => format!("{:?}", sys.add_peer(CAPACITY)),
        Op::Leave(id) => format!("{:?}", sys.leave_peer(id)),
        Op::Crash(ids) => {
            let lost: Vec<_> = ids.iter().map(|id| sys.crash_peer(id)).collect();
            let repaired = sys.repair_tree();
            format!("lost {lost:?} {repaired:?} {:?}", sys.anti_entropy())
        }
        Op::AntiEntropy => format!("{:?}", sys.anti_entropy()),
        Op::Mlt(ids) => {
            sys.end_time_unit();
            let moved: Vec<bool> = ids
                .iter()
                .map(|id| sys.contains_peer(id) && rebalance_pair(sys, id))
                .collect();
            format!("mlt {moved:?}")
        }
    }
}

/// Everything an operation leaves behind, rendered.
fn fingerprint(sys: &Engine) -> String {
    let mut out = format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n",
        sys.stats,
        sys.repl_stats,
        sys.cache_stats,
        sys.fault_stats()
    );
    out.push_str(&format!(
        "peers {:?} root {:?}\n",
        sys.peer_ids(),
        sys.root()
    ));
    for label in sys.node_labels() {
        let followers: Vec<&Key> = sys.directory().followers_of(&label).collect();
        out.push_str(&format!(
            "{label} on {:?} followed by {followers:?}: {:?}\n",
            sys.host_of(&label),
            sys.node(&label)
        ));
    }
    for (pid, shard) in sys.shards() {
        let copies: Vec<_> = shard.replicas.values().collect();
        out.push_str(&format!("{pid} holds {copies:?}\n"));
    }
    let directory = sys.directory();
    for id in 0..directory.interned_len() as u32 {
        let key = directory.key_of(id);
        out.push_str(&format!("#{id} {key} epoch {}\n", directory.epoch_of(key)));
    }
    out
}

/// Draws the next operation against the current overlay.
fn draw(sys: &DlptSystem, plan: &mut StdRng, pool: &[Key]) -> Op {
    let pick = |plan: &mut StdRng| pool[plan.gen_range(0..pool.len())].clone();
    let peers = sys.peer_ids();
    let peer = |plan: &mut StdRng| peers[plan.gen_range(0..peers.len())].clone();
    let registered = sys.registered_keys();
    match plan.gen_range(0..100) {
        0..=29 => Op::Insert(pick(plan)),
        30..=49 if !registered.is_empty() => {
            Op::Remove(registered[plan.gen_range(0..registered.len())].clone())
        }
        30..=64 => Op::Lookup(pick(plan)),
        65..=67 => {
            let (a, b) = (pick(plan), pick(plan));
            Op::Range(a.clone().min(b.clone()), a.max(b))
        }
        68..=69 => Op::Complete(pick(plan).truncated(1)),
        70..=76 => Op::Join,
        77..=82 if peers.len() > 6 => Op::Leave(peer(plan)),
        83..=87 if peers.len() > 6 => {
            // One peer, or two ring neighbours at once (a node whose
            // primary and follower both go is lost at k = 2 too).
            let at = plan.gen_range(0..peers.len());
            let n = plan.gen_range(1..=2);
            Op::Crash(
                (0..n)
                    .map(|i| peers[(at + i) % peers.len()].clone())
                    .collect(),
            )
        }
        88..=90 => Op::AntiEntropy,
        91..=95 => Op::Mlt(
            peers
                .choose_multiple(plan, peers.len() / 2)
                .cloned()
                .collect(),
        ),
        _ => Op::Lookup(pick(plan)),
    }
}

/// Runs the script on both twins; returns the chaining twin's log.
fn run(seed: u64, k: usize) -> String {
    let pool = key_pool();
    let mut chaining = overlay(DlptSystem::new(config(), seed), k);
    let queued = Queued {
        queue: VecDeque::new(),
        rng: StdRng::seed_from_u64(seed),
    };
    let mut queued = overlay(Overlay::with_driver(config(), queued), k);
    let mut plan = StdRng::seed_from_u64(seed ^ 0xc4a1);
    let mut log = String::new();
    for step in 0..400 {
        let op = draw(&chaining, &mut plan, &pool);
        let out = apply(&mut chaining, &op);
        assert_eq!(
            out,
            apply(&mut queued, &op),
            "seed {seed} k {k} step {step}: {op:?}"
        );
        let state = fingerprint(&chaining);
        assert_eq!(
            state,
            fingerprint(&queued),
            "seed {seed} k {k} step {step}: {op:?}"
        );
        for sys in [&*chaining, &*queued] {
            let found = sys.audit();
            assert!(found.is_empty(), "seed {seed} k {k} step {step}: {found:?}");
        }
        log.push_str(&format!("{op:?} -> {out}\n"));
        if step == 399 {
            log.push_str(&state);
        }
    }
    log
}

#[test]
fn a_chained_write_is_its_queued_write() {
    for seed in [3, 2008] {
        for k in [1, 2] {
            let log = run(seed, k);
            // The script must reach what a chain meets: removals,
            // joins and leaves, a crash whose repair re-attaches
            // orphans, an MLT boundary move, and requeued envelopes.
            for needle in ["Remove(", "Leave(", "Join -> Ok"] {
                assert!(log.contains(needle), "seed {seed} k {k}: no {needle}");
            }
            assert!(
                log.lines()
                    .any(|l| l.starts_with("Mlt(") && l.contains("true")),
                "seed {seed} k {k}: no MLT move"
            );
            assert!(
                log.lines()
                    .any(|l| l.starts_with("Crash(") && l.contains("reattached: [Key(")),
                "seed {seed} k {k}: no crash orphaned a subtree"
            );
            assert!(
                !log.contains("requeues: 0,"),
                "seed {seed} k {k}: nothing requeued"
            );
        }
    }
}
