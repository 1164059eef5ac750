//! The twin-run harness of the equivalence tests: a [`Twin`] runs one
//! seeded [`Script`] on two overlays and after every op requires the
//! same output, the same [`fingerprint`] and a clean `audit()` on both.
//! Side B is perturbed ([`Side`]): by its driver, by a `before` hook
//! that disturbs hidden state, or by the mover and balancer `MoveRun`
//! and `Mlt` go through. A perturbation is unobservable iff it passes.

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

/// Small enough that visits are refused and units overload peers.
const CAPACITY: u32 = 6;

/// Every key of length 1 to `max_len` over `012`, depth first (`0`,
/// `00`, `000`, …): few, so ops keep revisiting the same interned ids.
pub(super) fn key_pool(max_len: usize) -> Vec<Key> {
    fn grow(stem: &[u8], max_len: usize, pool: &mut Vec<Key>) {
        for digit in *b"012" {
            let key = [stem, &[digit]].concat();
            pool.push(Key::from_bytes(key.clone()));
            if key.len() < max_len {
                grow(&key, max_len, pool);
            }
        }
    }
    let mut pool = Vec::new();
    grow(&[], max_len, &mut pool);
    pool
}

/// An empty overlay on the synchronous pump, configured as every side.
pub(super) fn pump(seed: u64) -> DlptSystem {
    let config = SystemConfig {
        alphabet: Alphabet::new(b"012", "twin"),
        peer_id_len: 6,
        default_capacity: CAPACITY,
    };
    DlptSystem::new(config, seed)
}

/// The pump with chaining off: its FIFO, drain loop and requeue
/// policy, over a transport that never reports idle or synchronous.
#[derive(Debug)]
pub(crate) struct Queued {
    queue: VecDeque<(u32, Envelope)>,
    rng: StdRng,
}

impl Queued {
    /// An empty overlay on this driver.
    pub(crate) fn overlay(config: SystemConfig, seed: u64) -> Overlay<Queued> {
        let (queue, rng) = (VecDeque::new(), StdRng::seed_from_u64(seed));
        Overlay::with_driver(config, Queued { queue, rng })
    }
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

/// One step of a script, drawn against side A and applied to both.
#[derive(Debug)]
pub(super) enum Op {
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
    /// Move `labels` (ascending, on `from`) to `to`, look each up, move back.
    MoveRun {
        from: Key,
        to: Key,
        labels: Vec<Key>,
    },
}

/// What a script draws, and its start: `peers` joined, and every key
/// of [`key_pool`]`(key_len)` registered if `preload`.
pub(super) struct Mix {
    pub peers: usize,
    pub key_len: usize,
    pub preload: bool,
    pub steps: u64,
    /// In [`Op`]'s order, `Insert` to `MoveRun`, then a bare unit close.
    pub weights: [u32; 12],
}

/// Every op, from an empty tree: writes that dissolve and lift, churn,
/// crashes of one peer or two ring neighbours, MLT units, lookups.
pub(super) const CHURN: Mix = Mix {
    peers: 10,
    key_len: 3,
    preload: false,
    steps: 400,
    weights: [30, 20, 13, 3, 2, 7, 6, 7, 3, 5, 2, 2],
};

/// Lookups, run moves and MLT units over shards of a few dozen nodes.
pub(super) const RUNS: Mix = Mix {
    peers: 8,
    key_len: 4,
    preload: true,
    steps: 120,
    weights: [0, 0, 10, 0, 0, 0, 0, 0, 0, 3, 4, 3],
};

/// A seeded op generator, drawing each op against side A's overlay.
pub(super) struct Script {
    seed: u64,
    k: usize,
    mix: Mix,
    plan: StdRng,
}

impl Script {
    /// `mix`'s script at replication factor `k`.
    pub fn mixed(seed: u64, k: usize, mix: Mix) -> Self {
        let plan = StdRng::seed_from_u64(seed ^ 0x7a11);
        Script { seed, k, mix, plan }
    }

    /// Brings an empty overlay to the mix's start.
    fn setup<D: Driver>(&self, sys: &mut Overlay<D>) {
        sys.set_replication(self.k);
        sys.set_cache_capacity(8);
        for _ in 0..self.mix.peers {
            sys.add_peer(CAPACITY).expect("bootstrap join");
        }
        if self.mix.preload {
            for key in key_pool(self.mix.key_len) {
                sys.insert_data(key).expect("registration");
            }
        }
    }

    /// Draws the next op; one that cannot run now (no key to remove,
    /// too few peers to lose one) is a lookup instead.
    fn draw(&mut self, sys: &Engine) -> Op {
        let (plan, pool) = (&mut self.plan, key_pool(self.mix.key_len));
        let pick = |plan: &mut StdRng| pool[plan.gen_range(0..pool.len())].clone();
        let (peers, registered) = (sys.peer_ids(), sys.registered_keys());
        let (n, at) = (peers.len(), plan.gen_range(0..peers.len()));
        let weights = self.mix.weights;
        let roll = plan.gen_range(0..weights.iter().sum::<u32>());
        let kind = (0..).find(|&i| roll < weights[..=i].iter().sum::<u32>());
        match kind.unwrap() {
            0 => Op::Insert(pick(plan)),
            1 if !registered.is_empty() => Op::Remove(registered.choose(plan).cloned().unwrap()),
            3 => Op::Range(pick(plan), pick(plan)),
            4 => Op::Complete(pick(plan).truncated(1)),
            5 => Op::Join,
            6 if n > 6 => Op::Leave(peers[at].clone()),
            // One peer, or two ring neighbours: a node may lose every copy.
            7 if n > 6 => {
                let crashed = peers.iter().cycle().skip(at).take(plan.gen_range(1..=2));
                Op::Crash(crashed.cloned().collect())
            }
            8 => Op::AntiEntropy,
            9 => Op::Mlt(peers.choose_multiple(plan, n / 2).cloned().collect()),
            // An interval of the host's label order, or any subset of it.
            10 if n > 1 => {
                let from = peers[at].clone();
                let to = peers[(at + plan.gen_range(1..n)) % n].clone();
                let held: Vec<Key> = sys.shard(&from).unwrap().nodes.keys().cloned().collect();
                let labels = if plan.gen_bool(0.5) {
                    let a = plan.gen_range(0..=held.len());
                    held[a..plan.gen_range(a..=held.len())].to_vec()
                } else {
                    held.into_iter().filter(|_| plan.gen_bool(0.5)).collect()
                };
                Op::MoveRun { from, to, labels }
            }
            11 => Op::Mlt(Vec::new()),
            _ => Op::Lookup(pick(plan)),
        }
    }
}

/// Everything an op leaves behind, rendered.
pub(super) fn fingerprint(sys: &Engine) -> String {
    let (stats, repl, cache) = (&sys.stats, &sys.repl_stats, &sys.cache_stats);
    let (faults, peers, root) = (sys.fault_stats(), sys.peer_ids(), sys.root());
    let mut out = format!("{stats:?}\n{repl:?}\n{cache:?}\n{faults:?}\n{peers:?} {root:?}\n");
    for label in sys.node_labels() {
        let followers: Vec<&Key> = sys.directory().followers_of(&label).collect();
        let (host, node) = (sys.host_of(&label), sys.node(&label));
        out += &format!("{label} on {host:?} followed by {followers:?}: {node:?}\n");
    }
    for (pid, shard) in sys.shards() {
        let copies: Vec<_> = shard.replicas.values().collect();
        out += &format!("{pid} holds {copies:?}\n");
    }
    let directory = sys.directory();
    for id in 0..directory.interned_len() as u32 {
        let key = directory.key_of(id);
        out += &format!("#{id} {key} epoch {}\n", directory.epoch_of(key));
    }
    out
}

/// One overlay of a twin and how it deviates from the plain run.
pub(super) struct Side<D: Driver> {
    pub sys: Overlay<D>,
    /// Runs ahead of step `n`, given `seed << 32 | n`.
    pub before: fn(&mut Overlay<D>, u64),
    /// Moves `labels` (all on `from`) to `to`; returns how many moved.
    pub move_run: fn(&mut Overlay<D>, &Key, &Key, &[Key]) -> usize,
    /// One MLT step on a peer; whether it moved the boundary.
    pub rebalance: fn(&mut Overlay<D>, &Key) -> bool,
}

impl<D: Driver> Side<D> {
    /// `sys` as it runs.
    pub fn new(sys: Overlay<D>) -> Self {
        Side {
            sys,
            before: |_, _| {},
            move_run: |sys, from, to, labels| {
                sys.migrate_run(from, to, |l| labels.contains(l)).unwrap()
            },
            rebalance: rebalance_pair,
        }
    }

    /// Applies `op`; returns what it reported.
    fn apply(&mut self, op: &Op) -> String {
        let sys = &mut self.sys;
        match op {
            Op::Insert(key) => format!("{:?}", sys.insert_data(key.clone())),
            Op::Remove(key) => format!("{:?}", sys.remove_data(key)),
            Op::Lookup(key) => format!("{:?}", sys.lookup(key)),
            Op::Range(a, b) => format!("{:?}", sys.range(a.min(b), a.max(b))),
            Op::Complete(prefix) => format!("{:?}", sys.complete(prefix)),
            Op::Join => format!("{:?}", sys.add_peer(CAPACITY)),
            Op::Leave(id) => format!("{:?}", sys.leave_peer(id)),
            Op::Crash(ids) => {
                let lost: Vec<_> = ids.iter().map(|id| sys.crash_peer(id)).collect();
                let repaired = sys.repair_tree();
                format!("{lost:?} {repaired:?} {:?}", sys.anti_entropy())
            }
            Op::AntiEntropy => format!("{:?}", sys.anti_entropy()),
            Op::Mlt(ids) => {
                sys.end_time_unit();
                let moved = |id| sys.contains_peer(id) && (self.rebalance)(sys, id);
                format!("{:?}", ids.iter().map(moved).collect::<Vec<_>>())
            }
            Op::MoveRun { from, to, labels } => {
                let away = (self.move_run)(sys, from, to, labels);
                let seen: Vec<_> = labels.iter().map(|l| sys.lookup(l)).collect();
                let back = (self.move_run)(sys, to, from, labels);
                format!("{away} {back} {seen:?}")
            }
        }
    }
}

/// One script on two sides, compared after every step.
pub(super) struct Twin<A: Driver, B: Driver> {
    pub a: Side<A>,
    b: Side<B>,
    script: Script,
    /// `op -> output`, one line per step.
    log: String,
}

impl<A: Driver, B: Driver> Twin<A, B> {
    /// Brings both (empty) sides to `script`'s start, then runs it.
    pub fn run(script: Script, mut a: Side<A>, mut b: Side<B>) -> Self {
        script.setup(&mut a.sys);
        script.setup(&mut b.sys);
        let log = String::new();
        let mut twin = Twin { a, b, script, log };
        for _ in 0..twin.script.mix.steps {
            let op = twin.script.draw(&twin.a.sys);
            twin.step(&op);
        }
        twin
    }

    /// Applies `op` to both sides; panics, naming the step, unless both
    /// report the same, leave the same fingerprint and audit clean.
    pub fn step(&mut self, op: &Op) {
        let (seed, k, n) = (self.script.seed, self.script.k, self.log.lines().count());
        let at = format!("seed {seed} k {k} step {n}: {op:?}");
        let tick = seed << 32 | n as u64;
        (self.a.before)(&mut self.a.sys, tick);
        (self.b.before)(&mut self.b.sys, tick);
        let out = self.a.apply(op);
        assert_eq!(out, self.b.apply(op), "{at}");
        assert_eq!(fingerprint(&self.a.sys), fingerprint(&self.b.sys), "{at}");
        let found = [self.a.sys.audit(), self.b.sys.audit()].concat();
        assert!(found.is_empty(), "{at}: {found:?}");
        self.log += &format!("{op:?} -> {out}\n");
    }

    /// Panics unless an `op` line of the log has `needle`: coverage.
    pub fn assert_reached(&self, op: &str, needle: &str) -> &Self {
        let hit = |l: &str| l.starts_with(op) && l.contains(needle);
        let (seed, k, reached) = (self.script.seed, self.script.k, self.log.lines().any(hit));
        assert!(reached, "seed {seed} k {k}: no {op} line with {needle:?}");
        self
    }
}

/// One counter bumped once on one side fails that step.
#[test]
#[should_panic(expected = "seed 1 k 2 step 7:")]
fn a_bumped_counter_fails_its_step() {
    let bumped = Side {
        before: |sys, tick| sys.stats.requeues += (tick as u32 == 7) as u64,
        ..Side::new(pump(1))
    };
    Twin::run(Script::mixed(1, 2, CHURN), Side::new(pump(1)), bumped);
}

/// Scrambled hints and forgotten memos at once change nothing.
#[test]
fn two_unobservable_perturbations_change_nothing() {
    let both = Side {
        before: |sys, tick| {
            sys.directory.scramble_slot_hints(tick);
            super::link_ids::forget_link_ids(sys);
        },
        ..Side::new(pump(7))
    };
    Twin::run(Script::mixed(7, 2, CHURN), Side::new(pump(7)), both);
}
