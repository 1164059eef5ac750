//! Cached-vs-uncached oracle equivalence: the routing-shortcut cache
//! (`dlpt-core::cache`) may change the *route* a discovery takes, but
//! never its *result*. A cached system and an uncached system driven
//! by the same seed and the same operation sequence must agree on
//! every lookup outcome — under arbitrary interleavings of
//! registrations, removals, churn and balancer migrations, all of
//! which create stale shortcuts that the epoch check must catch.

use dlpt::core::{Alphabet, DlptSystem, FaultPlan, Key, QueryKind};
use proptest::prelude::*;

/// Very short binary keys: dense prefix relations and frequent
/// repeats, so caches actually heat up and removals actually collide
/// with warm entries.
fn hot_key() -> impl Strategy<Value = Key> {
    proptest::collection::vec(prop_oneof![Just(b'0'), Just(b'1')], 1..5).prop_map(Key::from_bytes)
}

/// One step of the interleaved workload.
#[derive(Debug, Clone)]
enum Op {
    Insert(Key),
    Remove(Key),
    Lookup(Key),
    AddPeer,
    LeavePeer(usize),
    /// Migrate the `i`-th node label to the `j`-th peer (the balancer
    /// move that stales cached hosts without dissolving the label).
    Migrate(usize, usize),
}

fn op() -> impl Strategy<Value = Op> {
    // The vendored proptest subset has no weighted prop_oneof;
    // duplication supplies the weighting (lookup-heavy, so caches
    // actually heat up between the mutations).
    prop_oneof![
        hot_key().prop_map(Op::Insert),
        hot_key().prop_map(Op::Insert),
        hot_key().prop_map(Op::Remove),
        hot_key().prop_map(Op::Lookup),
        hot_key().prop_map(Op::Lookup),
        hot_key().prop_map(Op::Lookup),
        hot_key().prop_map(Op::Lookup),
        hot_key().prop_map(Op::Lookup),
        Just(Op::AddPeer),
        any::<usize>().prop_map(Op::LeavePeer),
        (any::<usize>(), any::<usize>()).prop_map(|(i, j)| Op::Migrate(i, j)),
        (any::<usize>(), any::<usize>()).prop_map(|(i, j)| Op::Migrate(i, j)),
    ]
}

fn system(seed: u64, cache: usize) -> DlptSystem {
    DlptSystem::builder()
        .alphabet(Alphabet::binary())
        .seed(seed)
        .peer_id_len(12)
        .cache_capacity(cache)
        .bootstrap_peers(4)
        .build()
}

/// Applies one op to a system. Lookup results are returned for
/// comparison; every other op returns `None`.
fn apply(sys: &mut DlptSystem, op: &Op) -> Option<(bool, bool, Vec<Key>)> {
    match op {
        Op::Insert(k) => {
            sys.insert_data(k.clone()).expect("ring non-empty");
            None
        }
        Op::Remove(k) => {
            sys.remove_data(k).expect("ring non-empty");
            None
        }
        Op::Lookup(k) => {
            let out = sys.lookup(k);
            Some((out.satisfied, out.found, out.results))
        }
        Op::AddPeer => {
            sys.add_peer(1_000_000).expect("fresh id");
            None
        }
        Op::LeavePeer(i) => {
            if sys.peer_count() > 1 {
                let ids = sys.peer_ids();
                let victim = ids[i % ids.len()].clone();
                sys.leave_peer(&victim).expect("victim is live");
            }
            None
        }
        Op::Migrate(i, j) => {
            let labels = sys.node_labels();
            if labels.is_empty() {
                return None;
            }
            let label = labels[i % labels.len()].clone();
            let peers = sys.peer_ids();
            let to = peers[j % peers.len()].clone();
            if sys.host_of(&label) != Some(&to) {
                sys.migrate_node(&label, &to).expect("label and peer live");
            }
            None
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline stale-hit-fallback property: a cached run returns
    /// the same discovery result sets as an uncached run under
    /// arbitrary interleaved mutations. A tiny capacity (8) maximizes
    /// LRU churn on top of the epoch staleness.
    #[test]
    fn cached_and_uncached_runs_agree_on_every_lookup(
        ops in proptest::collection::vec(op(), 1..40),
        seed in 0u64..500,
        cache in prop_oneof![Just(2usize), Just(8usize), Just(64usize)],
    ) {
        let mut plain = system(seed, 0);
        let mut cached = system(seed, cache);
        let mut lookups = 0u64;
        for op in &ops {
            // Lookups against an empty tree short-circuit before the
            // cache consult; count only the ones that actually route.
            if matches!(op, Op::Lookup(_)) && cached.node_count() > 0 {
                lookups += 1;
            }
            let a = apply(&mut plain, op);
            let b = apply(&mut cached, op);
            if let (Some(a), Some(b)) = (&a, &b) {
                prop_assert_eq!(a, b, "lookup diverged on {:?}", op);
            }
        }
        // The two systems stayed in lockstep structurally, too.
        prop_assert_eq!(plain.node_labels(), cached.node_labels());
        prop_assert_eq!(plain.registered_keys(), cached.registered_keys());
        prop_assert_eq!(plain.peer_ids(), cached.peer_ids());
        // Every registered key resolves identically at the end.
        for k in plain.registered_keys() {
            let a = plain.lookup(&k);
            let b = cached.lookup(&k);
            prop_assert_eq!(a.results, b.results, "{}", k);
            prop_assert_eq!(a.satisfied, b.satisfied, "{}", k);
        }
        // The cached system really consulted its caches.
        if lookups > 0 {
            let consults = cached.cache_stats.hits
                + cached.cache_stats.misses
                + cached.cache_stats.stale_hits;
            prop_assert!(consults >= lookups);
        }
        prop_assert_eq!(plain.cache_stats.hits + plain.cache_stats.misses, 0);
    }

    /// Focused staleness hammer: warm one key hot, then mutate its
    /// region and re-query — the fallback must always produce the
    /// uncached answer, and across enough cases the stale path is
    /// actually taken.
    #[test]
    fn stale_hits_fall_back_to_correct_answers(
        key in hot_key(),
        extension in proptest::collection::vec(prop_oneof![Just(b'0'), Just(b'1')], 1..4),
        seed in 0u64..200,
    ) {
        let mut plain = system(seed, 0);
        let mut cached = system(seed, 16);
        for sys in [&mut plain, &mut cached] {
            sys.insert_data(key.clone()).expect("insert");
        }
        // Warm every peer's cache on the key.
        for _ in 0..12 {
            let a = plain.lookup(&key);
            let b = cached.lookup(&key);
            prop_assert_eq!(&a.results, &b.results);
        }
        // Mutate the key's region: register an extension (restructures
        // the node's children), then remove the key itself.
        let ext = key.concat(&Key::from_bytes(extension));
        for sys in [&mut plain, &mut cached] {
            sys.insert_data(ext.clone()).expect("insert extension");
        }
        for sys in [&mut plain, &mut cached] {
            sys.remove_data(&key).expect("remove");
        }
        for _ in 0..8 {
            let a = plain.lookup(&key);
            let b = cached.lookup(&key);
            prop_assert_eq!(a.found, b.found);
            prop_assert_eq!(&a.results, &b.results);
            let a = plain.lookup(&ext);
            let b = cached.lookup(&ext);
            prop_assert!(b.found);
            prop_assert_eq!(&a.results, &b.results);
        }
    }

    /// Duplicating and delaying faultable messages must be completely
    /// unobservable under a warm cache: a duplicated or late response
    /// can never teach or validate a shortcut into returning a wrong
    /// answer. Every lookup, the final tree and the final key set
    /// match a fault-free twin driven by the same seed.
    #[test]
    fn duplicated_and_delayed_responses_change_nothing_observable(
        ops in proptest::collection::vec(op(), 1..40),
        seed in 0u64..300,
    ) {
        let mut clean = system(seed, 32);
        let mut faulty = system(seed, 32);
        faulty.set_fault_plan(FaultPlan {
            loss_rate: 0.0,
            dup_rate: 0.3,
            reorder_rate: 0.3,
            seed: seed ^ 1,
        });
        for op in &ops {
            let a = apply(&mut clean, op);
            let b = apply(&mut faulty, op);
            prop_assert_eq!(&a, &b, "diverged on {:?}", op);
        }
        prop_assert_eq!(clean.node_labels(), faulty.node_labels());
        prop_assert_eq!(clean.registered_keys(), faulty.registered_keys());
        for k in clean.registered_keys() {
            let a = clean.lookup(&k);
            let b = faulty.lookup(&k);
            prop_assert_eq!(a.found, b.found, "{}", k);
            prop_assert_eq!(a.results, b.results, "{}", k);
        }
        let stats = faulty.fault_stats();
        prop_assert_eq!(stats.lost, 0, "plan loses nothing");
        prop_assert_eq!(stats.requests_failed, 0, "nothing to retry past");
    }
}

/// One seeded pass of the partition/stale-shortcut scenario. Every
/// assertion in here must hold for *every* seed; the return value
/// reports whether this seed actually exercised the stale-consult
/// path (the caller requires it across the sweep).
fn partition_stale_scenario(seed: u64) -> bool {
    let mut sys = system(seed, 16);
    let key = Key::from("000");
    let far = Key::from("110");
    sys.insert_data(key.clone()).expect("insert");
    sys.insert_data(far.clone()).expect("insert");
    for _ in 0..12 {
        assert!(sys.lookup(&key).found);
    }
    // Move the key's node to another peer: every learned shortcut to
    // it is now stale (epoch bumped, host changed) until consulted.
    // The '1' half of the key space is severed first (binary
    // alphabet, so the cut takes out both the `far` subtree and every
    // peer whose identifier starts with '1').
    let host = sys.host_of(&key).expect("node exists").clone();
    let to = sys
        .peer_ids()
        .into_iter()
        .find(|p| *p != host)
        .expect("more than one peer");
    sys.partition(Key::from("1"), Key::from("2"));
    sys.migrate_node(&key, &to).expect("label and peer live");
    let stale_before = sys.cache_stats.stale_hits;
    let mut found = 0;
    for _ in 0..8 {
        let out = sys.lookup(&key);
        if out.satisfied {
            assert!(out.found, "fallback must find the migrated key");
            assert_eq!(out.results, vec![key.clone()]);
            found += 1;
        }
    }
    assert!(found > 0, "lookups outside the cut must keep answering");
    // Enter at a node outside the cut so the route must cross it (a
    // random entry draw landing on the severed target itself would be
    // answered in-process at its own access peer, partition or not).
    let out = sys
        .request_from(&key, QueryKind::Exact(far.clone()))
        .expect("entry node is live");
    assert!(
        !out.satisfied,
        "severed lookup must fail explicitly, not hang"
    );
    assert!(sys.fault_stats().partition_dropped > 0);
    sys.heal_partition();
    let out = sys.lookup(&far);
    assert!(out.found, "healed partition restores the severed region");
    assert_eq!(out.results, vec![far]);
    sys.cache_stats.stale_hits > stale_before
}

/// Stale shortcut consulted while a partition is live: the stale entry
/// is evicted at consult time and the request falls back to the normal
/// up/down route — which stays correct as long as the route avoids the
/// severed range, while severed lookups fail explicitly instead of
/// hanging. Swept over seeds so the stale-consult path is provably
/// taken at least once.
#[test]
fn stale_cache_hit_under_partition_falls_back_to_the_normal_route() {
    let mut stale_seen = false;
    for seed in 0..16 {
        stale_seen |= partition_stale_scenario(seed);
    }
    assert!(
        stale_seen,
        "at least one seed must consult a stale shortcut under the cut"
    );
}
