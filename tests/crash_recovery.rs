//! Failure injection: non-graceful departures, repeated crashes, and
//! recovery through tree repair plus re-registration (the extension
//! described in DESIGN.md).

use dlpt::core::{DlptSystem, Key};
use dlpt::workloads::corpus::Corpus;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn system_with_keys(seed: u64, peers: usize, n_keys: usize) -> (DlptSystem, Vec<Key>) {
    let keys = Corpus::grid().take_spread(n_keys);
    let mut sys = DlptSystem::builder()
        .seed(seed)
        .bootstrap_peers(peers)
        .build();
    for k in &keys {
        sys.insert_data(k.clone()).unwrap();
    }
    (sys, keys)
}

fn replicated_system_with_keys(
    seed: u64,
    peers: usize,
    n_keys: usize,
    k: usize,
) -> (DlptSystem, Vec<Key>) {
    let keys = Corpus::grid().take_spread(n_keys);
    let mut sys = DlptSystem::builder()
        .seed(seed)
        .replication(k)
        .bootstrap_peers(peers)
        .build();
    for key in &keys {
        sys.insert_data(key.clone()).unwrap();
    }
    (sys, keys)
}

#[test]
fn single_crash_repair_reattaches_orphans() {
    let (mut sys, keys) = system_with_keys(41, 10, 120);
    // Crash the most loaded peer (worst case).
    let victim = sys
        .peer_ids()
        .into_iter()
        .max_by_key(|p| sys.shard(p).map(|s| s.node_count()).unwrap_or(0))
        .unwrap();
    let lost = sys.crash_peer(&victim).unwrap();
    assert!(!lost.is_empty());
    sys.repair_tree();
    sys.assert_clean();
    // Surviving keys remain discoverable.
    let lost_set: std::collections::BTreeSet<&Key> = lost.iter().collect();
    for k in keys.iter().filter(|k| !lost_set.contains(k)) {
        sys.end_time_unit();
        assert!(sys.lookup(k).satisfied, "survivor {k} unreachable");
    }
}

#[test]
fn with_k2_any_single_crash_loses_zero_keys() {
    // The no-loss upgrade of `single_crash_repair_reattaches_orphans`:
    // with one follower per node, crashing ANY single peer (each in
    // turn, from a fresh system) must leave every registered key
    // discoverable — no survivors-only weasel clause.
    let (reference, keys) = replicated_system_with_keys(41, 10, 120, 2);
    let peer_ids = reference.peer_ids();
    drop(reference);
    for victim in peer_ids {
        let (mut sys, _) = replicated_system_with_keys(41, 10, 120, 2);
        let lost = sys.crash_peer(&victim).unwrap();
        assert!(lost.is_empty(), "crashing {victim} lost {lost:?}");
        sys.repair_tree();
        // Right after fail-over, before any anti-entropy pass.
        sys.assert_clean();
        for k in &keys {
            sys.end_time_unit();
            assert!(sys.lookup(k).satisfied, "{k} lost after crashing {victim}");
        }
    }
}

#[test]
fn thirty_percent_crash_horizon_is_lossless_at_k2_and_lossy_at_k1() {
    // The figR acceptance scenario as a direct test: crash 30% of the
    // population across a horizon with anti-entropy repair between
    // failures. k=2 ends with zero lost keys; k=1 demonstrably loses.
    let run = |k: usize| -> (usize, usize, DlptSystem, Vec<Key>) {
        let (mut sys, keys) = replicated_system_with_keys(61, 20, 150, k);
        sys.anti_entropy().unwrap();
        let mut crashed = 0;
        while crashed < 6 {
            // 6 of 20 = 30% of the original population; always the
            // most loaded peer — the worst case for both settings.
            let victim = sys
                .peer_ids()
                .into_iter()
                .max_by_key(|p| sys.shard(p).map(|s| s.node_count()).unwrap_or(0))
                .unwrap();
            sys.crash_peer(&victim).unwrap();
            crashed += 1;
            sys.repair_tree();
            sys.anti_entropy().unwrap();
            sys.assert_clean();
        }
        let alive: std::collections::BTreeSet<Key> = sys.registered_keys().into_iter().collect();
        let survivors = keys.iter().filter(|k| alive.contains(*k)).count();
        (survivors, keys.len(), sys, keys)
    };
    let (survivors, total, mut sys, keys) = run(2);
    assert_eq!(survivors, total, "k=2 + anti-entropy must lose zero keys");
    sys.check_replication()
        .expect("replication invariant restored");
    for k in &keys {
        sys.end_time_unit();
        assert!(sys.lookup(k).satisfied, "{k}");
    }
    let (survivors, total, _, _) = run(1);
    assert!(
        survivors < total,
        "k=1 must demonstrably lose keys ({survivors}/{total} survived)"
    );
}

#[test]
fn lost_keys_recover_after_reregistration() {
    let (mut sys, keys) = system_with_keys(43, 8, 100);
    let victim = sys.peer_ids()[3].clone();
    sys.crash_peer(&victim).unwrap();
    sys.repair_tree();
    // Servers re-announce (idempotent for survivors).
    for k in &keys {
        sys.insert_data(k.clone()).unwrap();
    }
    sys.assert_clean();
    for k in &keys {
        sys.end_time_unit();
        assert!(sys.lookup(k).satisfied, "{k}");
    }
}

#[test]
fn cascade_of_crashes_with_repair_between() {
    let (mut sys, keys) = system_with_keys(47, 12, 80);
    let mut rng = rand::rngs::StdRng::seed_from_u64(47);
    for _ in 0..5 {
        let ids = sys.peer_ids();
        if ids.len() <= 2 {
            break;
        }
        let victim = ids.choose(&mut rng).unwrap().clone();
        sys.crash_peer(&victim).unwrap();
        sys.repair_tree();
        sys.assert_clean();
        // Re-register everything; system must accept and stay sane.
        for k in &keys {
            sys.insert_data(k.clone()).unwrap();
        }
    }
    for k in &keys {
        sys.end_time_unit();
        assert!(sys.lookup(k).satisfied, "{k}");
    }
}

#[test]
fn crash_of_root_host_is_survivable() {
    let (mut sys, keys) = system_with_keys(53, 8, 60);
    let root = sys.root().expect("tree built").clone();
    let root_host = sys.host_of(&root).expect("root hosted").clone();
    let lost = sys.crash_peer(&root_host).unwrap();
    assert!(lost.contains(&root), "the root was on that peer");
    sys.repair_tree();
    sys.assert_clean();
    for k in &keys {
        sys.insert_data(k.clone()).unwrap();
    }
    sys.assert_clean();
    for k in &keys {
        sys.end_time_unit();
        assert!(sys.lookup(k).satisfied, "{k}");
    }
}

#[test]
fn crashes_interleaved_with_queries_and_balancing() {
    use dlpt::core::balance::mlt::rebalance_pair;
    let (mut sys, keys) = system_with_keys(59, 10, 80);
    let mut rng = rand::rngs::StdRng::seed_from_u64(59);
    for _ in 0..3 {
        // Load the system, roll the unit, rebalance.
        for _ in 0..60 {
            let k = keys.choose(&mut rng).unwrap();
            sys.lookup(k);
        }
        sys.end_time_unit();
        let ids = sys.peer_ids();
        for id in ids.iter().take(4) {
            if sys.shard(id).is_some() {
                rebalance_pair(&mut sys, id);
            }
        }
        // Crash someone, repair, re-register.
        let ids = sys.peer_ids();
        if ids.len() > 3 {
            let victim = ids[rng.gen_range(0..ids.len())].clone();
            sys.crash_peer(&victim).unwrap();
            sys.repair_tree();
            for k in &keys {
                sys.insert_data(k.clone()).unwrap();
            }
        }
        sys.assert_clean();
    }
}
