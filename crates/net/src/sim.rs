//! Message-level simulation with randomized latencies.
//!
//! [`LatencyNet`] is the shared operation surface of `dlpt_core`
//! ([`Overlay`]) over a [`LatencyDriver`]: a deterministic
//! discrete-event queue that schedules every envelope after a sampled
//! delay — so messages from one operation interleave in arbitrary order
//! while dispatch, effects, replication and cache invalidation run
//! through exactly the same state machine as the synchronous pump. The
//! protocol is supposed to converge to the same tree regardless of
//! delivery order — the tests here check exactly that, against the
//! sequential oracle.
//!
//! Peers join with unbounded capacity, so the engine's capacity charge
//! never refuses a visit here: this runtime answers the orthogonal
//! question "is the protocol correct under asynchrony?". Requests are
//! judged at quiescence (the transport is not synchronous), because
//! out-of-order responses can transiently zero the outstanding-branch
//! counter.

use crate::event::EventQueue;
use dlpt_core::engine::{requeue_limit, Engine, Step, Transport};
use dlpt_core::error::Result;
use dlpt_core::key::Key;
use dlpt_core::messages::Envelope;
use dlpt_core::overlay::{Driver, Overlay};
use dlpt_core::system::SystemConfig;
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

/// The latency-queue driver: every envelope — emitted by the engine or
/// injected, both through the fault gate — is scheduled after a sampled
/// delay, entering the same seeded event queue as everything else in
/// flight. One RNG draws the delays and the entry nodes. The `u32` is
/// the per-envelope requeue count.
#[derive(Debug)]
pub struct LatencyDriver {
    queue: EventQueue<(u32, Envelope)>,
    latency: LatencyModel,
    rng: StdRng,
    /// Messages delivered so far.
    deliveries: u64,
}

impl Transport for LatencyDriver {
    fn deliver(&mut self, env: Envelope) {
        let delay = self.latency.sample(&mut self.rng);
        self.queue.push_after(delay, (0, env));
    }
}

impl Driver for LatencyDriver {
    /// Delivers events until none remain; a destination still in
    /// flight is retried one tick later until the budget is spent.
    fn quiesce(&mut self, engine: &mut Engine) -> Result<()> {
        loop {
            while let Some((_, (requeues, env))) = self.queue.pop() {
                self.deliveries += 1;
                let Step::Requeue(env) = engine.deliver(self, env)? else {
                    continue;
                };
                if requeues >= requeue_limit(REQUEUE_BUDGET, engine.peer_count()) {
                    engine.fail_undeliverable(self, env)?;
                    continue;
                }
                self.queue.push_after(1, (requeues + 1, env));
            }
            if !engine.flush_deferred(self) {
                return Ok(());
            }
        }
    }

    fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

/// The asynchronous runtime. Dereferences to its [`Overlay`] — the
/// operations every runtime shares — and through it to the engine.
#[derive(Debug)]
pub struct LatencyNet(Overlay<LatencyDriver>);

impl std::ops::Deref for LatencyNet {
    type Target = Overlay<LatencyDriver>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl std::ops::DerefMut for LatencyNet {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl LatencyNet {
    /// An empty network.
    pub fn new(latency: LatencyModel, seed: u64) -> Self {
        let driver = LatencyDriver {
            queue: EventQueue::new(),
            latency,
            rng: StdRng::seed_from_u64(seed),
            deliveries: 0,
        };
        LatencyNet(Overlay::with_driver(SystemConfig::default(), driver))
    }

    /// Messages delivered so far.
    pub fn deliveries(&self) -> u64 {
        self.driver().deliveries
    }

    /// Joins a peer with unbounded capacity; panics on a duplicate id.
    pub fn add_peer(&mut self, id: Key) {
        let capacity = self.config().default_capacity;
        self.0
            .add_peer_with_id(id, capacity)
            .expect("a fresh peer id joins");
    }

    /// Registers a key; panics on an empty ring.
    pub fn insert_data(&mut self, key: Key) {
        self.0
            .insert_data(key)
            .expect("registration on a live ring");
    }

    /// Exact lookup; returns `(satisfied, results)`.
    pub fn lookup(&mut self, key: &Key) -> (bool, Vec<Key>) {
        let out = self.0.lookup(key);
        (out.satisfied, out.results)
    }

    /// Range query; returns `(satisfied, results)`.
    pub fn range(&mut self, lo: &Key, hi: &Key) -> (bool, Vec<Key>) {
        let out = self.0.range(lo, hi);
        (out.satisfied, out.results)
    }

    /// Completion query; returns `(satisfied, results)`.
    pub fn complete(&mut self, prefix: &Key) -> (bool, Vec<Key>) {
        let out = self.0.complete(prefix);
        (out.satisfied, out.results)
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
        assert!(net.deliveries() > 10);
    }

    #[test]
    fn anti_entropy_replicates_under_latency() {
        let mut net = build(LatencyModel::Uniform(1, 40), 23, 6, &KEYS);
        net.set_replication(3);
        net.anti_entropy().unwrap();
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
        net.anti_entropy().unwrap();
        // Crash the most loaded peer.
        let victim = net
            .shards()
            .max_by_key(|(_, s)| s.node_count())
            .map(|(id, _)| id.clone())
            .unwrap();
        let lost = net.crash_peer(&victim).unwrap();
        assert!(lost.is_empty(), "{lost:?}");
        net.assert_clean();
        for k in KEYS {
            let (found, _) = net.lookup(&Key::from(k));
            assert!(found, "{k}");
        }
        // A second pass restores full redundancy.
        net.anti_entropy().unwrap();
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
        net.remove_data(&victim).unwrap();
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
            let lost = net.crash_peer(&victim).unwrap();
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

    /// Crashing a peer the ring does not hold is refused with
    /// [`DlptError::UnknownPeer`]; a caller that insists on success panics.
    #[test]
    #[should_panic(expected = "crash of a live peer: UnknownPeer(\"NOPE\")")]
    fn crashing_an_unknown_peer_panics() {
        build(LatencyModel::Constant(1), 47, 3, &KEYS[..2])
            .crash_peer(&Key::from("NOPE"))
            .expect("crash of a live peer");
    }
}
