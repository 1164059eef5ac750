//! Message-level simulation with randomized latencies.
//!
//! [`LatencyNet`] is a thin adapter over the unified protocol engine
//! (`dlpt_core::engine`): it owns an [`Engine`] plus a deterministic
//! discrete-event queue, and implements the engine's `Transport` by
//! sampling a delivery delay for every envelope — so messages from one
//! operation interleave in arbitrary order while dispatch, effects,
//! replication and cache invalidation run through exactly the same
//! state machine as the synchronous pump. The protocol is supposed to
//! converge to the same tree regardless of delivery order — the tests
//! here check exactly that, against the sequential oracle.
//!
//! Peer capacity is not modelled (the engine's `charge_capacity` flag
//! stays off; the experiment harness owns that concern): this runtime
//! answers the orthogonal question "is the protocol correct under
//! asynchrony?". Request completion is judged only at quiescence
//! (`judge_at_quiescence`), because out-of-order responses can
//! transiently zero the outstanding-branch counter.

use crate::event::EventQueue;
use dlpt_core::engine::{requeue_limit, Engine, EngineConfig, RepairReport, Step, Transport};
use dlpt_core::key::Key;
use dlpt_core::messages::{Envelope, NodeMsg, QueryKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How long a message takes from send to delivery.
#[derive(Debug, Clone, Copy)]
pub enum LatencyModel {
    /// Every message takes exactly this many ticks.
    Constant(u64),
    /// Uniformly sampled delay (inclusive bounds).
    Uniform(u64, u64),
}

impl LatencyModel {
    fn sample(&self, rng: &mut StdRng) -> u64 {
        match self {
            LatencyModel::Constant(d) => *d,
            LatencyModel::Uniform(lo, hi) => rng.gen_range(*lo..=*hi.max(lo)),
        }
    }
}

/// How many times one envelope may be requeued while its destination
/// is still in flight, before the ring-size floor ([`requeue_limit`]).
const REQUEUE_BUDGET: u32 = 4096;

/// Base delay of the exponential retry backoff (ticks): attempt `a`
/// re-enters the event queue after `BACKOFF_BASE << a`.
const BACKOFF_BASE: u64 = 8;

/// The latency-queue transport: every delivered envelope is scheduled
/// after a sampled delay, entering the same seeded event queue as
/// everything else in flight. The `u32` is the per-envelope requeue
/// count.
#[derive(Debug)]
struct LatencyTransport {
    queue: EventQueue<(u32, Envelope)>,
    latency: LatencyModel,
    rng: StdRng,
}

impl Transport for LatencyTransport {
    fn deliver(&mut self, env: Envelope) {
        let delay = self.latency.sample(&mut self.rng);
        self.queue.push_after(delay, (0, env));
    }
}

/// The asynchronous runtime. Dereferences to the underlying
/// [`Engine`] for introspection, invariant checks and the
/// `cache_stats` / `repl_stats` counters.
#[derive(Debug)]
pub struct LatencyNet {
    engine: Engine,
    /// The event queue, its latency model and the runtime's one RNG
    /// (delays, entry nodes).
    net: LatencyTransport,
    /// Messages delivered so far.
    pub deliveries: u64,
}

impl std::ops::Deref for LatencyNet {
    type Target = Engine;
    fn deref(&self) -> &Engine {
        &self.engine
    }
}

impl std::ops::DerefMut for LatencyNet {
    fn deref_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }
}

impl LatencyNet {
    /// An empty network.
    pub fn new(latency: LatencyModel, seed: u64) -> Self {
        LatencyNet {
            engine: Engine::new(EngineConfig {
                judge_at_quiescence: true,
                ..EngineConfig::default()
            }),
            net: LatencyTransport {
                queue: EventQueue::new(),
                latency,
                rng: StdRng::seed_from_u64(seed),
            },
            deliveries: 0,
        }
    }

    /// Schedules one externally injected envelope through the gate and
    /// transport the engine uses, so injected operations and
    /// engine-emitted traffic can never diverge in delivery policy.
    fn send(&mut self, env: Envelope) {
        self.engine.send(&mut self.net, env);
    }

    /// Adds a peer, routing the join through the tree, and runs the
    /// network to quiescence.
    pub fn add_peer(&mut self, id: Key) {
        assert!(!self.engine.contains_peer(&id), "duplicate peer id");
        self.engine.add_local_shard(id.clone(), u32::MAX >> 1);
        if self.engine.peer_count() == 1 {
            return;
        }
        let env = self.engine.join_envelope(&id, &mut self.net.rng);
        self.send(env);
        self.run_to_quiescence();
    }

    /// Registers a key and runs to quiescence.
    pub fn insert_data(&mut self, key: Key) {
        assert!(self.engine.peer_count() > 0, "need at least one peer");
        let env = self.engine.insert_envelope(key, &mut self.net.rng);
        self.send(env);
        self.run_to_quiescence();
    }

    /// Deregisters a key and runs to quiescence.
    pub fn remove_data(&mut self, key: &Key) {
        if let Some(entry) = self.engine.random_node(&mut self.net.rng) {
            self.send(Envelope::to_node(
                entry,
                NodeMsg::DataRemoval { key: key.clone() },
            ));
            self.run_to_quiescence();
        }
    }

    /// Exact lookup; returns `(found, results)`.
    pub fn lookup(&mut self, key: &Key) -> (bool, Vec<Key>) {
        self.request(QueryKind::Exact(key.clone()))
    }

    /// Range query.
    pub fn range(&mut self, lo: &Key, hi: &Key) -> (bool, Vec<Key>) {
        self.request(QueryKind::Range(lo.clone(), hi.clone()))
    }

    /// Completion query.
    pub fn complete(&mut self, prefix: &Key) -> (bool, Vec<Key>) {
        self.request(QueryKind::Complete(prefix.clone()))
    }

    fn request(&mut self, query: QueryKind) -> (bool, Vec<Key>) {
        let Some(entry) = self.engine.random_node(&mut self.net.rng) else {
            return (false, Vec::new());
        };
        // Cache consult at the entry peer — the engine's shared flow;
        // the shortcut route (and later the invalidations) travel
        // through the latency-randomized queue like everything else.
        let (id, env) = self
            .engine
            .begin_request(&entry, query)
            .expect("entry is a live node");
        self.send(env);
        self.run_to_quiescence();
        // While the engine's retry policy says a branch is stranded,
        // the origin goes back out with exponential backoff: straight
        // into the event queue (past the gate), `BACKOFF_BASE <<
        // attempt` ticks out, past everything the previous attempt
        // scheduled.
        let mut attempt = 0;
        while let Some(origin) = self.engine.retry_origin(id) {
            self.net
                .queue
                .push_after(BACKOFF_BASE << attempt, (0, origin));
            attempt += 1;
            self.run_to_quiescence();
        }
        // Only judge completion once the network is drained: responses
        // arrive out of order here, so the outstanding-branch counter
        // can transiently touch zero while a parent's response (which
        // would raise it again via `pending_children`) is still in
        // flight.
        let out = self.engine.finish_request(id);
        (out.satisfied, out.results)
    }

    /// Delivers events until none remain (including envelopes a
    /// reordering fault held back past the queue).
    pub fn run_to_quiescence(&mut self) {
        loop {
            while let Some((_, (requeues, env))) = self.net.queue.pop() {
                self.deliveries += 1;
                let step = self.engine.deliver(&mut self.net, env);
                let Step::Requeue(env) = step.expect("valid envelope") else {
                    continue;
                };
                if requeues >= requeue_limit(REQUEUE_BUDGET, self.engine.peer_count()) {
                    // A lost discovery message still resolves its
                    // request (explicit failure); anything else
                    // exhausting the budget is a routing bug worth
                    // aborting on.
                    self.engine
                        .fail_undeliverable(env)
                        .expect("only discovery traffic may exhaust the requeue budget");
                    continue;
                }
                // Retry shortly; the message that creates the
                // destination is already in flight.
                self.net.queue.push_after(1, (requeues + 1, env));
            }
            if !self.engine.flush_deferred(&mut self.net) {
                break;
            }
        }
    }

    /// One anti-entropy pass (`protocol::repair`) under latency: every
    /// peer is kicked with `SyncReplicas` and re-clones its nodes along
    /// the ring; the `Replicate` walks interleave arbitrarily with each
    /// other. Runs to quiescence. No-op at `k = 1`.
    pub fn anti_entropy(&mut self) {
        if self.engine.anti_entropy_kick(&mut self.net) {
            self.run_to_quiescence();
        }
    }

    /// Non-graceful departure: the peer vanishes with its state; the
    /// ring heals and every node it ran fails over to a surviving
    /// follower copy where one exists. Returns the labels actually
    /// lost; [`LatencyNet::repair_tree`] re-attaches what they orphaned.
    /// Run [`LatencyNet::anti_entropy`] beforehand (for fresh copies)
    /// and afterwards (to restore `k`). Panics on an unknown `id`.
    pub fn crash_peer(&mut self, id: &Key) -> Vec<Key> {
        self.engine.crash_shard(id).expect("crash of a live peer")
    }

    /// Crash repair ([`Engine::send_orphan`]): each orphaned subtree
    /// re-enters through the insertion protocol under latency, one
    /// orphan per run to quiescence.
    pub fn repair_tree(&mut self) -> RepairReport {
        let report = self.engine.repair_scan();
        for orphan in &report.reattached {
            self.engine.send_orphan(&mut self.net, orphan.clone());
            self.run_to_quiescence();
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlpt_core::alphabet::Alphabet;
    use dlpt_core::cache::CacheStats;
    use dlpt_core::trie::PgcpTrie;

    fn build(latency: LatencyModel, seed: u64, peers: usize, keys: &[&str]) -> LatencyNet {
        let mut net = LatencyNet::new(latency, seed);
        let alphabet = Alphabet::grid();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFEED);
        for _ in 0..peers {
            loop {
                let id = alphabet.random_id(&mut rng, 10);
                if !net.contains_peer(&id) {
                    net.add_peer(id);
                    break;
                }
            }
        }
        for k in keys {
            net.insert_data(Key::from(*k));
        }
        net
    }

    const KEYS: [&str; 10] = [
        "DGEMM", "DGEMV", "DTRSM", "DTRMM", "SGEMM", "S3L_fft", "S3L_sort", "PSGESV", "PDGEMM",
        "ZTRSM",
    ];

    #[test]
    fn converges_to_oracle_under_uniform_latency() {
        let mut oracle = PgcpTrie::new();
        for k in KEYS {
            oracle.insert(Key::from(k));
        }
        for seed in 0..8 {
            let net = build(LatencyModel::Uniform(1, 50), seed, 8, &KEYS);
            assert_eq!(
                net.node_labels(),
                oracle.labels(),
                "seed {seed}: async construction must match the oracle"
            );
            net.assert_clean();
        }
    }

    #[test]
    fn constant_latency_matches_uniform_result() {
        let a = build(LatencyModel::Constant(1), 3, 6, &KEYS);
        let b = build(LatencyModel::Uniform(1, 100), 3, 6, &KEYS);
        assert_eq!(a.node_labels(), b.node_labels());
        assert_eq!(a.registered_keys(), b.registered_keys());
    }

    #[test]
    fn lookups_work_after_async_construction() {
        let mut net = build(LatencyModel::Uniform(1, 30), 11, 10, &KEYS);
        for k in KEYS {
            let (found, results) = net.lookup(&Key::from(k));
            assert!(found, "{k}");
            assert_eq!(results, vec![Key::from(k)]);
        }
        let (found, _) = net.lookup(&Key::from("MISSING"));
        assert!(!found);
    }

    #[test]
    fn range_and_completion_under_latency() {
        let mut net = build(LatencyModel::Uniform(1, 30), 13, 6, &KEYS);
        let (ok, results) = net.complete(&Key::from("S3L"));
        assert!(ok);
        assert_eq!(results, vec![Key::from("S3L_fft"), Key::from("S3L_sort")]);
        let (ok, results) = net.range(&Key::from("D"), &Key::from("E"));
        assert!(ok);
        assert_eq!(results.len(), 4, "{results:?}");
    }

    #[test]
    fn peers_joining_after_data_keep_invariants() {
        let mut net = build(LatencyModel::Uniform(1, 40), 17, 4, &KEYS);
        let alphabet = Alphabet::grid();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..6 {
            loop {
                let id = alphabet.random_id(&mut rng, 10);
                if !net.contains_peer(&id) {
                    net.add_peer(id);
                    break;
                }
            }
            net.assert_clean();
        }
        assert_eq!(net.peer_count(), 10);
    }

    #[test]
    fn deliveries_are_counted() {
        let net = build(LatencyModel::Constant(1), 19, 4, &KEYS[..4]);
        assert!(net.deliveries > 10);
    }

    #[test]
    fn anti_entropy_replicates_under_latency() {
        let mut net = build(LatencyModel::Uniform(1, 40), 23, 6, &KEYS);
        net.set_replication(3);
        net.anti_entropy();
        for label in net.node_labels() {
            let hosts = net.replica_hosts(&label);
            assert_eq!(hosts.len(), 3, "{label}: {hosts:?}");
            let distinct: std::collections::BTreeSet<&Key> = hosts.iter().collect();
            assert_eq!(distinct.len(), 3);
        }
    }

    #[test]
    fn crash_with_replicas_loses_nothing_under_latency() {
        let mut net = build(LatencyModel::Uniform(1, 25), 29, 7, &KEYS);
        net.set_replication(2);
        net.anti_entropy();
        // Crash the most loaded peer.
        let victim = net
            .shards()
            .max_by_key(|(_, s)| s.node_count())
            .map(|(id, _)| id.clone())
            .unwrap();
        let lost = net.crash_peer(&victim);
        assert!(lost.is_empty(), "{lost:?}");
        net.assert_clean();
        for k in KEYS {
            let (found, _) = net.lookup(&Key::from(k));
            assert!(found, "{k}");
        }
        // A second pass restores full redundancy.
        net.anti_entropy();
        for label in net.node_labels() {
            assert_eq!(net.replica_hosts(&label).len(), 2, "{label}");
        }
    }

    #[test]
    fn cached_lookups_hit_and_stay_correct_under_latency() {
        let mut net = build(LatencyModel::Uniform(1, 40), 37, 8, &KEYS);
        net.set_cache_capacity(32);
        for _ in 0..6 {
            for k in KEYS {
                let (found, results) = net.lookup(&Key::from(k));
                assert!(found, "{k}");
                assert_eq!(results, vec![Key::from(k)]);
            }
        }
        assert!(net.cache_stats.learned > 0);
        assert!(
            net.cache_stats.hits > 0,
            "repeated lookups must hit: {:?}",
            net.cache_stats
        );
        // Misses still resolve correctly.
        let (found, _) = net.lookup(&Key::from("ABSENT"));
        assert!(!found);
    }

    #[test]
    fn removal_invalidates_cached_routes_under_latency() {
        let mut net = build(LatencyModel::Uniform(1, 30), 41, 6, &KEYS);
        net.set_cache_capacity(32);
        let victim = Key::from("DGEMM");
        for _ in 0..8 {
            assert!(net.lookup(&victim).0);
        }
        assert!(net.cache_stats.hits > 0, "cache must be warm");
        net.remove_data(&victim);
        assert!(
            net.cache_stats.invalidations_sent > 0,
            "dissolution must broadcast invalidations"
        );
        assert!(net.cache_stats.invalidations_delivered > 0);
        for _ in 0..8 {
            let (found, results) = net.lookup(&victim);
            assert!(!found, "cache must never resurrect a removed key");
            assert!(results.is_empty());
        }
        // Other keys unaffected.
        assert!(net.lookup(&Key::from("DGEMV")).0);
    }

    #[test]
    fn cache_off_counts_nothing() {
        let mut net = build(LatencyModel::Uniform(1, 30), 43, 5, &KEYS[..4]);
        for _ in 0..4 {
            assert!(net.lookup(&Key::from("DGEMM")).0);
        }
        assert_eq!(net.cache_stats, CacheStats::default());
    }

    #[test]
    fn unreplicated_crash_loses_the_hosted_nodes() {
        for latency in [LatencyModel::Constant(1), LatencyModel::Uniform(1, 40)] {
            let mut net = build(latency, 36, 6, &KEYS);
            let victim = net
                .shards()
                .max_by_key(|(_, s)| s.node_count())
                .map(|(id, _)| id.clone())
                .unwrap();
            let lost = net.crash_peer(&victim);
            assert!(!lost.is_empty(), "k = 1 must lose the hosted nodes");
            // Repair heals the tree under latency; servers re-register.
            assert!(!net.repair_tree().reattached.is_empty());
            net.assert_clean();
            for k in KEYS {
                net.insert_data(Key::from(k));
            }
            net.assert_clean();
            for k in KEYS {
                assert!(net.lookup(&Key::from(k)).0, "{k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "crash of a live peer")]
    fn crashing_an_unknown_peer_panics() {
        build(LatencyModel::Constant(1), 47, 3, &KEYS[..2]).crash_peer(&Key::from("NOPE"));
    }
}
