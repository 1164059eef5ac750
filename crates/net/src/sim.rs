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
use dlpt_core::engine::{Engine, EngineConfig, Step, Transport};
use dlpt_core::key::Key;
use dlpt_core::messages::{Envelope, QueryKind};
use dlpt_core::transport::{FaultPlan, FaultStats, Faults, FaultyTransport};
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

/// The latency-queue transport: every delivered envelope is scheduled
/// after a sampled delay, entering the same seeded event queue as
/// everything else in flight.
struct LatencyTransport<'a> {
    queue: &'a mut EventQueue<(u32, Envelope)>,
    latency: LatencyModel,
    rng: &'a mut StdRng,
}

impl Transport for LatencyTransport<'_> {
    fn deliver(&mut self, env: Envelope) {
        let delay = self.latency.sample(self.rng);
        self.queue.push_after(delay, (0, env));
    }

    fn now(&self) -> u64 {
        self.queue.now()
    }
}

/// The asynchronous runtime. Dereferences to the underlying
/// [`Engine`] for introspection, invariant checks and the
/// `cache_stats` / `repl_stats` counters.
#[derive(Debug)]
pub struct LatencyNet {
    engine: Engine,
    queue: EventQueue<(u32, Envelope)>,
    latency: LatencyModel,
    rng: StdRng,
    requeue_budget: u32,
    /// Fault-injection state (`dlpt_core::transport`); inert by
    /// default.
    faults: Faults,
    /// Bounded per-request retries when faults are active; exhaustion
    /// fails the request explicitly.
    request_retry_budget: u32,
    /// Base delay of the exponential retry backoff (ticks); attempt
    /// `a` re-enters the event queue after `base << a`.
    backoff_base: u64,
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
            queue: EventQueue::new(),
            latency,
            rng: StdRng::seed_from_u64(seed),
            requeue_budget: 4096,
            faults: Faults::new(FaultPlan::default()),
            request_retry_budget: 4,
            backoff_base: 8,
            deliveries: 0,
        }
    }

    /// Installs a fault plan, resetting the fault RNG, counters and
    /// partition. The default plan is fully inert.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Faults::new(plan);
        self.engine.set_fault_recovery(self.faults.is_active());
    }

    /// Severs the lexicographic key range `[lo, hi)` for faultable
    /// traffic until [`LatencyNet::heal_partition`].
    pub fn partition(&mut self, lo: Key, hi: Key) {
        self.faults.partition(lo, hi);
        self.engine.set_fault_recovery(true);
    }

    /// Heals a partition installed by [`LatencyNet::partition`].
    pub fn heal_partition(&mut self) {
        self.faults.heal();
        self.engine.set_fault_recovery(self.faults.is_active());
    }

    /// Combined fault counters: transport-level draws plus the
    /// engine's suppressed duplicates.
    pub fn fault_stats(&self) -> FaultStats {
        let mut s = self.faults.stats;
        s.duplicates_suppressed += self.engine.duplicates_suppressed;
        s
    }

    /// Schedules one externally injected envelope through the same
    /// transport the engine uses, so injected operations and
    /// engine-emitted traffic can never diverge in delivery policy.
    fn send(&mut self, env: Envelope) {
        let inner = LatencyTransport {
            queue: &mut self.queue,
            latency: self.latency,
            rng: &mut self.rng,
        };
        if self.faults.is_active() {
            FaultyTransport::new(inner, &mut self.faults).deliver(env);
        } else {
            let mut inner = inner;
            inner.deliver(env);
        }
    }

    /// Adds a peer, routing the join through the tree, and runs the
    /// network to quiescence.
    pub fn add_peer(&mut self, id: Key) {
        assert!(!self.engine.contains_peer(&id), "duplicate peer id");
        self.engine.add_local_shard(id.clone(), u32::MAX >> 1);
        if self.engine.peer_count() == 1 {
            return;
        }
        let env = self.engine.join_envelope(&id, &mut self.rng);
        self.send(env);
        self.run_to_quiescence();
    }

    /// Registers a key and runs to quiescence.
    pub fn insert_data(&mut self, key: Key) {
        assert!(self.engine.peer_count() > 0, "need at least one peer");
        let env = self.engine.insert_envelope(key, &mut self.rng);
        self.send(env);
        self.run_to_quiescence();
    }

    /// Deregisters a key and runs to quiescence.
    pub fn remove_data(&mut self, key: &Key) {
        if let Some(entry) = self.engine.random_node(&mut self.rng) {
            self.send(Envelope::to_node(
                entry,
                dlpt_core::messages::NodeMsg::DataRemoval { key: key.clone() },
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
        let Some(entry) = self.engine.random_node(&mut self.rng) else {
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
        // Only judge completion once the network is drained: responses
        // arrive out of order here, so the outstanding-branch counter
        // can transiently touch zero while a parent's response (which
        // would raise it again via `pending_children`) is still in
        // flight.
        if self.faults.is_active() {
            // Fault-tolerant path: a branch left outstanding at
            // quiescence means loss; re-issue the engine's retry
            // snapshot with exponential backoff (the retry re-enters
            // the event queue `base << attempt` ticks out, past
            // everything the first attempt scheduled), then fail
            // explicitly at budget exhaustion. Fault-off runs never
            // take the snapshot, so they pay no per-request clone.
            let mut attempts = 0u32;
            while self.engine.retry_pending(id) && attempts < self.request_retry_budget {
                self.faults.stats.retries += 1;
                let origin = self
                    .engine
                    .retry_envelope(id)
                    .expect("fault recovery keeps the origin snapshot");
                self.engine.reset_request_for_retry(id);
                let delay = self.backoff_base << attempts.min(16);
                attempts += 1;
                self.queue.push_after(delay, (0, origin));
                self.run_to_quiescence();
            }
            if self.engine.retry_pending(id) {
                self.faults.stats.requests_failed += 1;
            }
        }
        let out = self.engine.finish_request(id);
        (out.satisfied, out.results)
    }

    /// Delivers events until none remain (including envelopes a
    /// reordering fault held back past the queue).
    pub fn run_to_quiescence(&mut self) {
        loop {
            while let Some((_, (requeues, env))) = self.queue.pop() {
                self.deliveries += 1;
                let inner = LatencyTransport {
                    queue: &mut self.queue,
                    latency: self.latency,
                    rng: &mut self.rng,
                };
                let step = if self.faults.is_active() {
                    let mut t = FaultyTransport::new(inner, &mut self.faults);
                    self.engine.deliver(&mut t, env).expect("valid envelope")
                } else {
                    let mut t = inner;
                    self.engine.deliver(&mut t, env).expect("valid envelope")
                };
                match step {
                    Step::Done => {}
                    Step::Requeue(env) => {
                        // Same ring-size floor as the synchronous
                        // pump: a seed walking the ring takes O(ring)
                        // hops to land, and every hop is one more
                        // requeue for the envelopes waiting on it.
                        let floor = (self.engine.peer_count() as u32).saturating_mul(2);
                        if requeues >= self.requeue_budget.max(floor) {
                            // A lost discovery message still resolves
                            // its request (explicit failure); anything
                            // else exhausting the budget is a routing
                            // bug worth aborting on.
                            self.engine
                                .fail_undeliverable(env)
                                .expect("only discovery traffic may exhaust the requeue budget");
                            continue;
                        }
                        // Retry shortly; the message that creates the
                        // destination is already in flight.
                        self.queue.push_after(1, (requeues + 1, env));
                    }
                }
            }
            let mut inner = LatencyTransport {
                queue: &mut self.queue,
                latency: self.latency,
                rng: &mut self.rng,
            };
            if !self.faults.flush_deferred(&mut inner) {
                break;
            }
        }
    }

    /// One anti-entropy pass (`protocol::repair`) under latency: every
    /// peer is kicked with `SyncReplicas` and re-clones its nodes along
    /// the ring; the `Replicate` walks interleave arbitrarily with each
    /// other. Runs to quiescence. No-op at `k = 1`.
    pub fn anti_entropy(&mut self) {
        let mut t = LatencyTransport {
            queue: &mut self.queue,
            latency: self.latency,
            rng: &mut self.rng,
        };
        if self.engine.anti_entropy_kick(&mut t) {
            self.run_to_quiescence();
        }
    }

    /// Non-graceful departure: the peer vanishes with its state; the
    /// ring heals and every node it ran fails over to a surviving
    /// follower copy where one exists. Returns the labels actually
    /// lost. Run [`LatencyNet::anti_entropy`] beforehand (for fresh
    /// copies) and afterwards (to restore `k`).
    pub fn crash_peer(&mut self, id: &Key) -> Vec<Key> {
        self.engine.crash_shard(id).unwrap_or_default()
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
        let mut net = build(LatencyModel::Constant(1), 31, 6, &KEYS);
        let victim = net
            .shards()
            .max_by_key(|(_, s)| s.node_count())
            .map(|(id, _)| id.clone())
            .unwrap();
        let lost = net.crash_peer(&victim);
        assert!(!lost.is_empty(), "k = 1 must lose the hosted nodes");
    }
}
