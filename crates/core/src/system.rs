//! The synchronous DLPT runtime: the [`Overlay`] whose driver is an
//! immediate FIFO queue.
//!
//! [`DlptSystem`] is the shared operation surface ([`crate::overlay`])
//! over [`Pump`]: one seeded RNG, a strict FIFO queue
//! ([`FifoTransport`]) and a drain loop that runs every operation to
//! quiescence before returning. Protocol logic lives entirely in
//! [`crate::protocol`]; envelope dispatch, capacity charging (Section
//! 4's model) and scatter/gather aggregation live in the engine, shared
//! with the asynchronous runtimes in `dlpt-net`. Processing is strictly
//! FIFO and all randomness comes from one seeded generator, so every
//! run is a pure function of (operations, seed) — the property the
//! experiment harness relies on for its 30/50/100-run averages.

use crate::alphabet::Alphabet;
use crate::engine::{requeue_limit, Engine, FifoTransport, Step, Transport};
use crate::error::Result;
use crate::messages::Envelope;
use crate::overlay::{Driver, Overlay};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub use crate::engine::{LookupOutcome, RepairReport};

/// Upper bound on messages processed by one drain, chained hops
/// included ([`Engine::with_hop_budget`]) — a tripwire for routing
/// loops, which the protocol makes impossible.
const DRAIN_BUDGET: usize = 4_000_000;

/// How many times one envelope may be requeued while its destination
/// is still in flight, before the ring-size floor ([`requeue_limit`]).
pub(crate) const REQUEUE_BUDGET: u32 = 256;

/// Tunables of a runtime. Replication and caching are the engine's
/// ([`Engine::set_replication`], [`Engine::set_cache_capacity`]).
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Digit alphabet shared by peers, nodes and service keys.
    pub alphabet: Alphabet,
    /// Length of randomly drawn peer identifiers.
    pub peer_id_len: usize,
    /// Capacity assigned to peers created without an explicit one.
    /// The default is effectively unbounded so functional use is never
    /// throttled; experiments set real capacities.
    pub default_capacity: u32,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            alphabet: Alphabet::grid(),
            peer_id_len: 16,
            default_capacity: u32::MAX >> 1,
        }
    }
}

/// Builder for [`DlptSystem`].
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    config: SystemConfig,
    replication: usize,
    cache_capacity: usize,
    seed: u64,
    bootstrap_peers: usize,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder {
            config: SystemConfig::default(),
            replication: 1,
            cache_capacity: 0,
            seed: 0xD1_97,
            bootstrap_peers: 0,
        }
    }
}

impl SystemBuilder {
    /// Sets the digit alphabet (default: [`Alphabet::grid`]).
    pub fn alphabet(mut self, a: Alphabet) -> Self {
        self.config.alphabet = a;
        self
    }
    /// Seeds the system RNG (entry-node choice, identifier drawing).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
    /// Length of randomly drawn peer identifiers.
    pub fn peer_id_len(mut self, len: usize) -> Self {
        self.config.peer_id_len = len;
        self
    }
    /// Capacity for peers added without an explicit one.
    pub fn default_capacity(mut self, c: u32) -> Self {
        self.config.default_capacity = c;
        self
    }
    /// Replication factor `k` (primary + `k - 1` followers; default 1 =
    /// replication off, byte-identical to the pre-replication system).
    pub fn replication(mut self, k: usize) -> Self {
        self.replication = k;
        self
    }
    /// Per-peer routing-shortcut cache capacity (default 0 = caching
    /// off, byte-identical to the pre-cache system).
    pub fn cache_capacity(mut self, n: usize) -> Self {
        self.cache_capacity = n;
        self
    }
    /// Joins `n` peers with random identifiers during `build`.
    pub fn bootstrap_peers(mut self, n: usize) -> Self {
        self.bootstrap_peers = n;
        self
    }

    /// Builds the system (and bootstraps peers if requested).
    pub fn build(self) -> DlptSystem {
        let mut sys = DlptSystem::new(self.config, self.seed);
        sys.set_replication(self.replication);
        sys.set_cache_capacity(self.cache_capacity);
        for _ in 0..self.bootstrap_peers {
            let cap = sys.config().default_capacity;
            sys.add_peer(cap).expect("bootstrap join cannot fail");
        }
        sys
    }
}

/// The whole overlay in one process, run by the synchronous [`Pump`].
/// See the module docs.
pub type DlptSystem = Overlay<Pump>;

impl DlptSystem {
    /// Creates an empty system.
    pub fn new(config: SystemConfig, seed: u64) -> Self {
        let pump = Pump {
            fifo: FifoTransport::default(),
            rng: StdRng::seed_from_u64(seed),
        };
        Overlay::with_driver(config, pump)
    }

    /// Starts a builder.
    pub fn builder() -> SystemBuilder {
        SystemBuilder::default()
    }
}

/// The synchronous driver: the immediate-FIFO queue and the system RNG.
#[derive(Debug)]
pub struct Pump {
    fifo: FifoTransport,
    rng: StdRng,
}

impl Transport for Pump {
    fn deliver(&mut self, env: Envelope) {
        self.fifo.deliver(env);
    }

    fn synchronous(&self) -> bool {
        true
    }

    fn idle(&self) -> bool {
        self.fifo.idle()
    }
}

impl Driver for Pump {
    /// Appends to the queue past the fault gate: the pump models only
    /// engine-emitted traffic as faultable.
    fn inject(&mut self, _: &mut Engine, env: Envelope) {
        self.fifo.deliver(env);
    }

    /// Processes the queue through the engine's dispatch, requeueing a
    /// not-yet-resolvable destination at the back until the budget is
    /// spent. (To see the last dispatches before a failure, arm the
    /// ring tracer: [`Engine::set_tracing`].)
    fn quiesce(&mut self, engine: &mut Engine) -> Result<()> {
        engine.with_hop_budget(DRAIN_BUDGET, |engine| loop {
            while let Some((requeues, env)) = self.fifo.queue.pop_front() {
                let Step::Requeue(env) = engine.deliver(self, env)? else {
                    continue;
                };
                if requeues >= requeue_limit(REQUEUE_BUDGET, engine.peer_count()) {
                    engine.fail_undeliverable(self, env)?;
                    continue;
                }
                engine.stats.requeues += 1;
                self.fifo.queue.push_back((requeues + 1, env));
            }
            // Reorder-deferred envelopes are released at quiescence;
            // they may fan out further, so drain until nothing is held.
            if !engine.flush_deferred(self) {
                return Ok(());
            }
        })
    }

    fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheStats;
    use crate::error::DlptError;
    use crate::key::Key;
    use crate::messages::QueryKind;
    use crate::replication::ReplicationStats;
    use crate::trie::PgcpTrie;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    fn small_system(peers: usize) -> DlptSystem {
        DlptSystem::builder()
            .seed(42)
            .peer_id_len(8)
            .bootstrap_peers(peers)
            .build()
    }

    const PAPER_KEYS: [&str; 4] = ["01", "10101", "10111", "101111"];

    fn binary_system(peers: usize, seed: u64) -> DlptSystem {
        let mut sys = DlptSystem::builder()
            .alphabet(Alphabet::binary())
            .seed(seed)
            .peer_id_len(10)
            .bootstrap_peers(peers)
            .build();
        for s in PAPER_KEYS {
            sys.insert_data(k(s)).unwrap();
        }
        sys
    }

    #[test]
    fn requeue_budget_floors_at_ring_size() {
        // A sibling split sends the new common parent on an O(ring)
        // `on_host` walk while the sibling's `SearchingHost` requeues
        // against the not-yet-installed node. A fixed budget fails
        // that insert once the ring outgrows it (first caught by
        // `Engine::audit` at ~2000 peers with the default 256, as two
        // dangling trie pointers); the membership floor absorbs the
        // wait.
        assert_eq!(requeue_limit(REQUEUE_BUDGET, 24), 256);
        assert_eq!(requeue_limit(REQUEUE_BUDGET, 2_000), 4_000);
        let mut sys = DlptSystem::builder()
            .alphabet(Alphabet::binary())
            .seed(7)
            .peer_id_len(10)
            .bootstrap_peers(24)
            .build();
        for s in PAPER_KEYS {
            sys.insert_data(k(s)).unwrap();
        }
        assert!(
            sys.stats.requeues > 0,
            "scenario must exercise the requeue path"
        );
        assert!(sys.audit().is_empty());
    }

    /// A forwarding cycle inside one chain still meets the drain
    /// budget. With `B`'s predecessor corrupted below it, no arc holds
    /// a label above both peers, so the new node's `Host` seed walks
    /// B → D → B … for ever. Each hop is a lone forward on an empty
    /// queue, so the whole walk runs inline in one `Engine::deliver`,
    /// and only the engine's count of processed messages can end it.
    /// (Four million hops take ≈ 15 s unoptimized: CI runs it in
    /// release.)
    #[test]
    #[cfg_attr(debug_assertions, ignore = "4 M hops: run with --release")]
    fn a_chained_cycle_exhausts_the_hop_budget() {
        let mut sys = DlptSystem::builder().build();
        sys.add_peer_with_id(k("B"), 100).unwrap();
        sys.add_peer_with_id(k("D"), 100).unwrap();
        sys.insert_data(k("X")).unwrap();
        sys.shard_mut(&k("B")).unwrap().peer.pred = k("A");
        let err = sys.insert_data(k("XY")).unwrap_err();
        assert!(
            matches!(err, DlptError::HopBudgetExhausted { budget } if budget == DRAIN_BUDGET),
            "{err:?}"
        );
    }

    #[test]
    fn bootstrap_builds_consistent_ring() {
        let sys = small_system(10);
        assert_eq!(sys.peer_count(), 10);
        sys.assert_clean();
    }

    #[test]
    fn paper_tree_matches_oracle() {
        let sys = binary_system(4, 7);
        let oracle = sys.oracle();
        assert_eq!(sys.node_labels(), oracle.labels());
        sys.assert_clean();
    }

    #[test]
    fn insertion_is_order_invariant_across_entries() {
        // Same keys, different seeds (=> different entry nodes) must
        // converge to the same tree.
        let reference = binary_system(4, 1).node_labels();
        for seed in 2..10 {
            let sys = binary_system(4, seed);
            assert_eq!(sys.node_labels(), reference, "seed {seed}");
            sys.assert_clean();
        }
    }

    #[test]
    fn lookup_finds_registered_keys() {
        let mut sys = binary_system(4, 7);
        for s in PAPER_KEYS {
            let out = sys.lookup(&k(s));
            assert!(out.satisfied, "{s}");
            assert_eq!(out.results, vec![k(s)]);
            assert!(out.logical_hops() < 12);
        }
        let out = sys.lookup(&k("11"));
        assert!(!out.satisfied);
        assert!(out.results.is_empty());
    }

    #[test]
    fn range_and_completion_work_end_to_end() {
        let mut sys = binary_system(4, 7);
        let out = sys.range(&k("10"), &k("10111"));
        assert!(out.satisfied);
        assert_eq!(out.results, vec![k("10101"), k("10111")]);
        let out = sys.complete(&k("101"));
        assert!(out.satisfied);
        assert_eq!(out.results, vec![k("10101"), k("10111"), k("101111")]);
    }

    #[test]
    fn peers_join_after_data_exists() {
        let mut sys = binary_system(3, 7);
        for _ in 0..5 {
            sys.add_peer(100).unwrap();
        }
        sys.assert_clean();
        assert_eq!(sys.peer_count(), 8);
    }

    #[test]
    fn graceful_leave_preserves_everything() {
        let mut sys = binary_system(6, 7);
        let victims: Vec<Key> = sys.peer_ids().into_iter().take(3).collect();
        for v in victims {
            sys.leave_peer(&v).unwrap();
            sys.assert_clean();
        }
        assert_eq!(sys.peer_count(), 3);
        let mut sys2 = sys;
        for s in PAPER_KEYS {
            assert!(sys2.lookup(&k(s)).satisfied, "{s}");
        }
    }

    #[test]
    fn reinserting_every_key_from_random_entries_is_idempotent() {
        // Regression for the father == key corruption: re-registering
        // an existing key entering at an arbitrary node must route to
        // the existing node, not seed a duplicate.
        let mut sys = small_system(6);
        let names: Vec<String> = (0..30).map(|i| format!("PDGEL{i:02}")).collect();
        for n in &names {
            sys.insert_data(k(n)).unwrap();
        }
        let labels = sys.node_labels();
        for _ in 0..4 {
            for n in &names {
                sys.insert_data(k(n)).unwrap();
            }
        }
        assert_eq!(sys.node_labels(), labels);
        sys.assert_clean();
        // No node may ever be its own father.
        for l in sys.node_labels() {
            let node = sys.node(&l).unwrap();
            assert_ne!(node.father(), Some(&l), "{l} is its own father");
        }
    }

    #[test]
    fn removal_converges_to_oracle_of_remaining_keys() {
        let mut sys = binary_system(4, 61);
        // Remove two of the paper keys; the overlay must equal the
        // oracle built from the remaining two.
        sys.remove_data(&k("10101")).unwrap();
        sys.remove_data(&k("101111")).unwrap();
        sys.assert_clean();
        assert_eq!(sys.node_labels(), sys.oracle().labels());
        assert!(!sys.lookup(&k("10101")).found);
        assert!(sys.lookup(&k("10111")).satisfied);
        assert!(sys.lookup(&k("01")).satisfied);
        // Removing an absent key is a no-op.
        let labels = sys.node_labels();
        sys.remove_data(&k("111")).unwrap();
        assert_eq!(sys.node_labels(), labels);
    }

    #[test]
    fn removing_everything_empties_the_tree() {
        let mut sys = binary_system(3, 67);
        for s in PAPER_KEYS {
            sys.remove_data(&k(s)).unwrap();
        }
        assert_eq!(sys.node_count(), 0);
        assert!(sys.root().is_none());
        // The overlay still works afterwards.
        sys.insert_data(k("1100")).unwrap();
        assert!(sys.lookup(&k("1100")).satisfied);
        assert_eq!(sys.root(), Some(&k("1100")));
    }

    #[test]
    fn insert_remove_interleaving_tracks_oracle() {
        let mut sys = small_system(5);
        let names: Vec<Key> = (0..24).map(|i| k(&format!("SVC{:02}", i))).collect();
        let mut live = std::collections::BTreeSet::new();
        for round in 0..3 {
            for (i, n) in names.iter().enumerate() {
                if (i + round) % 3 == 0 {
                    sys.insert_data(n.clone()).unwrap();
                    live.insert(n.clone());
                } else if live.contains(n) {
                    sys.remove_data(n).unwrap();
                    live.remove(n);
                }
            }
            sys.assert_clean();
            let mut oracle = PgcpTrie::new();
            for n in &live {
                oracle.insert(n.clone());
            }
            assert_eq!(sys.node_labels(), oracle.labels(), "round {round}");
        }
    }

    #[test]
    fn grid_names_register_and_resolve() {
        let mut sys = small_system(6);
        for name in ["DGEMM", "DGEMV", "DTRSM", "S3L_mat_mult", "PSGESV"] {
            sys.insert_data(k(name)).unwrap();
        }
        sys.assert_clean();
        assert_eq!(sys.node_labels(), sys.oracle().labels());
        let out = sys.complete(&k("DGE"));
        assert_eq!(out.results, vec![k("DGEMM"), k("DGEMV")]);
    }

    #[test]
    fn capacity_exhaustion_drops_requests() {
        let mut sys = DlptSystem::builder()
            .seed(3)
            .peer_id_len(8)
            .default_capacity(2)
            .bootstrap_peers(1)
            .build();
        sys.insert_data(k("DGEMM")).unwrap();
        // Two visits fit (single-node tree → 1 visit per lookup).
        assert!(sys.lookup(&k("DGEMM")).satisfied);
        assert!(sys.lookup(&k("DGEMM")).satisfied);
        let out = sys.lookup(&k("DGEMM"));
        assert!(out.dropped);
        assert!(!out.satisfied);
        // New unit: capacity refreshes, demand was recorded.
        sys.end_time_unit();
        assert_eq!(sys.node(&k("DGEMM")).unwrap().prev_load, 3);
        assert!(sys.lookup(&k("DGEMM")).satisfied);
    }

    #[test]
    fn gather_under_capacity_pressure_keeps_surviving_results() {
        // Regression: the scatter partial of a node must be processed
        // before any of its branch visits can be refused, or a
        // synchronous capacity drop on one branch finalizes the
        // aggregation early and every surviving branch's results are
        // discarded as stale. One peer, capacity 3, three keys: the
        // completion visits root + 3 children = 4 > 3, so exactly one
        // branch drops — the other results must survive.
        let mut sys = DlptSystem::builder()
            .seed(3)
            .peer_id_len(8)
            .default_capacity(3)
            .bootstrap_peers(1)
            .build();
        for s in ["DGEMM", "DGEMV", "DTRSM"] {
            sys.insert_data(k(s)).unwrap();
        }
        sys.end_time_unit(); // reset capacity spent during construction
        let out = sys.complete(&k("D"));
        assert!(out.dropped, "some visit must exceed capacity 3");
        assert!(!out.satisfied, "a dropped visit forfeits satisfaction");
        // The buggy ordering finalized the request on the first drop
        // and threw every surviving partial away (results == []).
        assert!(
            out.found && !out.results.is_empty(),
            "surviving branches' keys must be reported: {out:?}"
        );
        assert_eq!(out.results, vec![k("DTRSM")], "pre-refactor behaviour");
    }

    #[test]
    fn rename_peer_keeps_invariants() {
        let mut sys = binary_system(4, 11);
        let ids = sys.peer_ids();
        let victim = ids[1].clone();
        // Rename to an id still inside (pred, victim]'s arc-safe zone:
        // use a node label hosted by the victim if any, else skip.
        let shard = sys.shard(&victim).unwrap();
        let last = shard.nodes.keys().next_back().cloned();
        if let Some(node_label) = last {
            sys.rename_peer(&victim, node_label.clone()).unwrap();
            assert!(sys.shard(&node_label).is_some());
            sys.assert_clean();
        }
    }

    #[test]
    fn crash_and_repair_restores_tree_shape() {
        let mut sys = binary_system(5, 13);
        let loaded: Vec<Key> = sys
            .peer_ids()
            .into_iter()
            .filter(|p| sys.shard(p).map(|s| s.node_count() > 0).unwrap_or(false))
            .collect();
        let victim = loaded[0].clone();
        let lost = sys.crash_peer(&victim).unwrap();
        assert!(!lost.is_empty());
        sys.repair_tree();
        sys.assert_clean();
        // Lost keys can be re-registered and found again.
        let mut sys2 = sys;
        for l in &lost {
            // Only data keys need re-registration (structural labels
            // reappear on their own as needed).
            sys2.insert_data(l.clone()).unwrap();
        }
        sys2.assert_clean();
        for s in PAPER_KEYS {
            assert!(sys2.lookup(&k(s)).satisfied, "{s}");
        }
    }

    #[test]
    fn migrate_node_moves_and_counts() {
        let mut sys = binary_system(4, 17);
        let label = sys.node_labels()[0].clone();
        let from = sys.host_of(&label).unwrap().clone();
        let to = sys
            .peer_ids()
            .into_iter()
            .find(|p| *p != from)
            .expect("more than one peer");
        sys.migrate_node(&label, &to).unwrap();
        assert_eq!(sys.host_of(&label), Some(&to));
        assert_eq!(sys.stats.balance_migrations, 1);
        // Mapping is now intentionally violated (that is what the
        // balancers repair by renaming); the node is still reachable.
        let out = sys.lookup(&k("10101"));
        assert!(out.satisfied);
    }

    #[test]
    fn hop_accounting_matches_oracle_depth() {
        let mut sys = binary_system(3, 19);
        let out = sys.lookup(&k("101111"));
        assert!(out.satisfied);
        assert_eq!(out.path.len(), out.host_path.len());
        assert!(out.physical_hops() <= out.logical_hops());
    }

    #[test]
    fn empty_states_error_cleanly() {
        let mut sys = DlptSystem::builder().build();
        assert!(matches!(
            sys.insert_data(k("DGEMM")),
            Err(DlptError::EmptyRing)
        ));
        assert!(matches!(
            sys.request(QueryKind::Exact(k("DGEMM"))),
            Err(DlptError::EmptyTree)
        ));
        sys.add_peer(10).unwrap();
        assert!(matches!(
            sys.request(QueryKind::Exact(k("DGEMM"))),
            Err(DlptError::EmptyTree)
        ));
    }

    #[test]
    fn duplicate_peer_rejected() {
        let mut sys = small_system(2);
        let id = sys.peer_ids()[0].clone();
        assert!(matches!(
            sys.add_peer_with_id(id, 5),
            Err(DlptError::DuplicatePeer(_))
        ));
    }

    #[test]
    fn last_peer_leaving_empties_the_overlay() {
        let mut sys = small_system(1);
        sys.insert_data(k("DGEMM")).unwrap();
        let id = sys.peer_ids()[0].clone();
        sys.leave_peer(&id).unwrap();
        assert_eq!(sys.peer_count(), 0);
        assert_eq!(sys.node_count(), 0);
        assert!(sys.root().is_none());
    }

    fn replicated_system(peers: usize, k: usize, seed: u64) -> DlptSystem {
        let mut sys = DlptSystem::builder()
            .seed(seed)
            .peer_id_len(8)
            .replication(k)
            .bootstrap_peers(peers)
            .build();
        for name in ["DGEMM", "DGEMV", "DTRSM", "S3L_fft", "S3L_sort", "PSGESV"] {
            sys.insert_data(k_(name)).unwrap();
        }
        sys
    }

    fn k_(s: &str) -> Key {
        Key::from(s)
    }

    #[test]
    fn eager_replication_satisfies_invariant_without_anti_entropy() {
        let sys = replicated_system(6, 2, 71);
        sys.check_replication().unwrap();
        sys.assert_clean();
        for label in sys.node_labels() {
            let hosts = sys.replica_hosts(&label);
            assert_eq!(hosts.len(), 2, "{label}: {hosts:?}");
            assert_ne!(hosts[0], hosts[1]);
        }
        assert!(sys.repl_stats.eager_syncs > 0);
        assert!(sys.repl_stats.replication_messages > 0);
        // Replication stays out of the protocol counters.
        let baseline = replicated_system(6, 1, 71);
        assert_eq!(sys.stats, baseline.stats, "SystemStats must not see k");
    }

    #[test]
    fn k1_is_observationally_identical_to_unreplicated() {
        let a = replicated_system(5, 1, 13);
        let b = {
            let mut sys = DlptSystem::builder()
                .seed(13)
                .peer_id_len(8)
                .bootstrap_peers(5)
                .build();
            for name in ["DGEMM", "DGEMV", "DTRSM", "S3L_fft", "S3L_sort", "PSGESV"] {
                sys.insert_data(k_(name)).unwrap();
            }
            sys
        };
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.peer_ids(), b.peer_ids());
        assert_eq!(a.node_labels(), b.node_labels());
        assert_eq!(a.repl_stats, ReplicationStats::default());
    }

    #[test]
    fn crash_with_replication_loses_nothing() {
        let mut sys = replicated_system(6, 2, 29);
        let keys = sys.registered_keys();
        let victim = sys
            .peer_ids()
            .into_iter()
            .max_by_key(|p| sys.shard(p).map(|s| s.node_count()).unwrap_or(0))
            .unwrap();
        assert!(sys.shard(&victim).unwrap().node_count() > 0);
        let lost = sys.crash_peer(&victim).unwrap();
        assert!(lost.is_empty(), "every node had a follower: {lost:?}");
        assert!(sys.repl_stats.promotions > 0);
        sys.repair_tree();
        sys.assert_clean();
        for key in &keys {
            assert!(sys.lookup(key).satisfied, "{key}");
        }
        // Anti-entropy restores full redundancy after the promotion.
        let report = sys.anti_entropy().unwrap();
        assert!(report.under_replicated > 0, "promotions left k-1 gaps");
        sys.check_replication().unwrap();
        let report = sys.anti_entropy().unwrap();
        assert_eq!(report.under_replicated, 0, "second pass finds it healed");
    }

    #[test]
    fn anti_entropy_heals_a_crashed_follower() {
        let mut sys = replicated_system(6, 3, 31);
        sys.check_replication().unwrap();
        // Crash a peer that only *follows* some label.
        let label = sys.node_labels()[0].clone();
        let follower = sys.replica_hosts(&label)[1].clone();
        sys.crash_peer(&follower).unwrap();
        sys.repair_tree();
        sys.anti_entropy().unwrap();
        sys.check_replication().unwrap();
        assert_eq!(
            sys.replica_hosts(&label).len(),
            3.min(sys.peer_count()),
            "follower set refilled"
        );
    }

    #[test]
    fn replica_gc_follows_data_removal() {
        let mut sys = replicated_system(5, 2, 37);
        sys.remove_data(&k_("DGEMM")).unwrap();
        sys.anti_entropy().unwrap();
        // No peer may hold a copy of a label the tree no longer has.
        let live: std::collections::BTreeSet<Key> = sys.node_labels().into_iter().collect();
        for id in sys.peer_ids() {
            for rl in sys.shard(&id).unwrap().replicas.keys() {
                assert!(live.contains(rl), "stale replica {rl} on {id}");
            }
        }
        sys.check_replication().unwrap();
    }

    #[test]
    fn capacity_failover_serves_reads_from_followers() {
        // One key on a 2-peer ring, primary capacity 1: the second
        // lookup visit would be dropped at k=1 but is served by the
        // follower copy at k=2.
        let mut sys = DlptSystem::builder()
            .seed(3)
            .peer_id_len(8)
            .default_capacity(2)
            .replication(2)
            .bootstrap_peers(2)
            .build();
        sys.insert_data(k_("DGEMM")).unwrap();
        sys.end_time_unit();
        let mut served = 0;
        for _ in 0..4 {
            if sys.lookup(&k_("DGEMM")).satisfied {
                served += 1;
            }
        }
        assert!(
            sys.repl_stats.failover_reads > 0,
            "follower must absorb overflow"
        );
        assert!(served > 2, "failover must lift satisfied beyond capacity");
    }

    #[test]
    fn graceful_leave_keeps_replication_invariant_after_anti_entropy() {
        let mut sys = replicated_system(6, 2, 41);
        let victim = sys.peer_ids()[2].clone();
        sys.leave_peer(&victim).unwrap();
        sys.anti_entropy().unwrap();
        sys.check_replication().unwrap();
        sys.assert_clean();
    }

    fn cached_system(peers: usize, capacity: usize, seed: u64) -> DlptSystem {
        let mut sys = DlptSystem::builder()
            .seed(seed)
            .peer_id_len(8)
            .cache_capacity(capacity)
            .bootstrap_peers(peers)
            .build();
        for name in ["DGEMM", "DGEMV", "DTRSM", "S3L_fft", "S3L_sort", "PSGESV"] {
            sys.insert_data(k(name)).unwrap();
        }
        sys
    }

    #[test]
    fn cache_learns_then_hits_with_one_hop_route() {
        let mut sys = cached_system(6, 32, 91);
        let key = k("DGEMM");
        let first = sys.lookup(&key);
        assert!(first.satisfied);
        assert_eq!(sys.cache_stats.learned, 1);
        assert_eq!(sys.cache_stats.hits, 0);
        // Hammer the same key until a request enters at a peer that
        // has learned the shortcut (entry nodes are random).
        let mut hit_outcome = None;
        for _ in 0..64 {
            let before = sys.cache_stats.hits;
            let out = sys.lookup(&key);
            assert!(out.satisfied);
            assert_eq!(out.results, vec![key.clone()]);
            if sys.cache_stats.hits > before {
                hit_outcome = Some(out);
                break;
            }
        }
        let out = hit_outcome.expect("some lookup must hit the cache");
        assert_eq!(out.path, vec![key.clone()], "one-hop cached route");
        assert_eq!(out.logical_hops(), 0);
    }

    #[test]
    fn stale_hit_falls_back_and_relearns_after_migration() {
        let mut sys = cached_system(6, 32, 17);
        let key = k("S3L_fft");
        // Warm every peer's cache.
        for _ in 0..64 {
            assert!(sys.lookup(&key).satisfied);
        }
        assert!(sys.cache_stats.hits > 0, "cache must be warm");
        // Migrate the key's node: its epoch advances and every learned
        // shortcut to it is stale, though nothing tells the peers.
        let from = sys.host_of(&key).unwrap().clone();
        let to = sys
            .peer_ids()
            .into_iter()
            .find(|p| *p != from)
            .expect("second peer");
        sys.migrate_node(&key, &to).unwrap();
        // Every subsequent lookup still answers correctly: a peer's
        // first consult evicts its stale shortcut and falls back, the
        // answer teaches it the fresh one, and its next consult hits.
        let stale_before = sys.cache_stats.stale_hits;
        let mut relearned_hit = false;
        for _ in 0..32 {
            let hits = sys.cache_stats.hits;
            let out = sys.lookup(&key);
            assert!(out.satisfied);
            assert_eq!(out.results, vec![key.clone()]);
            if sys.cache_stats.hits > hits && sys.cache_stats.stale_hits > stale_before {
                relearned_hit = true;
            }
        }
        assert!(
            sys.cache_stats.stale_hits > stale_before,
            "a stale hit must occur"
        );
        assert!(relearned_hit, "a relearned hit must follow the stale one");
    }

    #[test]
    fn removed_key_is_not_found_through_a_warm_cache() {
        let mut sys = cached_system(5, 32, 23);
        let key = k("DTRSM");
        for _ in 0..48 {
            assert!(sys.lookup(&key).satisfied);
        }
        assert!(sys.cache_stats.hits > 0);
        sys.remove_data(&key).unwrap();
        for _ in 0..24 {
            let out = sys.lookup(&key);
            assert!(!out.found, "cache must never resurrect a removed key");
            assert!(out.results.is_empty());
        }
        // Other keys stay correct.
        assert!(sys.lookup(&k("DGEMM")).satisfied);
    }

    #[test]
    fn cache_off_is_observationally_identical_and_counts_nothing() {
        let a = cached_system(5, 0, 13);
        let b = {
            let mut sys = DlptSystem::builder()
                .seed(13)
                .peer_id_len(8)
                .bootstrap_peers(5)
                .build();
            for name in ["DGEMM", "DGEMV", "DTRSM", "S3L_fft", "S3L_sort", "PSGESV"] {
                sys.insert_data(k(name)).unwrap();
            }
            sys
        };
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.peer_ids(), b.peer_ids());
        assert_eq!(a.node_labels(), b.node_labels());
        assert_eq!(a.cache_stats, CacheStats::default());
    }

    #[test]
    fn cached_hits_relieve_capacity_pressure() {
        // One peer, capacity 4, one key at depth 0: uncached lookups
        // cost one visit each anyway, so use a multi-node tree where
        // the up/down route costs several visits and hits cost one.
        let mut sys = DlptSystem::builder()
            .seed(3)
            .peer_id_len(8)
            .default_capacity(1_000)
            .cache_capacity(16)
            .bootstrap_peers(1)
            .build();
        for s in ["DGEMM", "DGEMV", "DGEX"] {
            sys.insert_data(k(s)).unwrap();
        }
        sys.end_time_unit();
        let key = k("DGEMM");
        // Learn.
        assert!(sys.lookup(&key).satisfied);
        let uncached_visits = sys.stats.discovery_messages;
        // Hit: exactly one more visit.
        assert!(sys.lookup(&key).satisfied);
        assert_eq!(sys.cache_stats.hits, 1);
        assert_eq!(
            sys.stats.discovery_messages,
            uncached_visits + 1,
            "a cached route must cost exactly one visit"
        );
    }

    #[test]
    fn depth_map_matches_father_chains() {
        let sys = binary_system(4, 7);
        let depths = sys.depth_map();
        assert_eq!(depths.len(), sys.node_count());
        for (label, d) in &depths {
            let mut cur = label.clone();
            let mut walked = 0u32;
            while let Some(f) = sys.node(&cur).unwrap().father().cloned() {
                walked += 1;
                cur = f;
            }
            assert_eq!(walked, *d, "{label}");
        }
        assert_eq!(depths.values().filter(|d| **d == 0).count(), 1, "one root");
    }

    #[test]
    fn stats_count_messages() {
        let mut sys = binary_system(4, 23);
        assert!(sys.stats.join_messages > 0);
        assert!(sys.stats.insert_messages > 0);
        assert!(sys.stats.host_messages > 0);
        sys.lookup(&k("10101"));
        assert!(sys.stats.discovery_messages > 0);
    }

    #[test]
    fn many_keys_many_peers_converge_to_oracle() {
        let mut sys = DlptSystem::builder()
            .seed(29)
            .peer_id_len(8)
            .bootstrap_peers(12)
            .build();
        let names: Vec<String> = ["DGEMM", "DGEMV", "DTRSM", "DTRMM", "SGEMM", "SGEMV"]
            .iter()
            .map(|s| s.to_string())
            .chain((0..40).map(|i| format!("S3L_op_{i:02}")))
            .chain((0..40).map(|i| format!("PSROUTINE{i:02}")))
            .collect();
        for n in &names {
            sys.insert_data(k(n)).unwrap();
        }
        assert_eq!(sys.node_labels(), sys.oracle().labels());
        sys.assert_clean();
        for n in &names {
            assert!(sys.lookup(&k(n)).satisfied, "{n}");
        }
        let out = sys.complete(&k("S3L"));
        assert_eq!(out.results.len(), 40);
    }
}
