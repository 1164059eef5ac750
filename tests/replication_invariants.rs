//! Property tests of the replication subsystem (`protocol::repair`):
//! after *any* seeded sequence of joins, crashes, insertions and
//! repairs, every surviving key has `min(k, |live peers|)` distinct
//! live replica hosts, and the mapping and ring invariants still hold.

use dlpt::core::{DlptSystem, Key};
use dlpt::workloads::corpus::Corpus;
use proptest::prelude::*;
use std::collections::BTreeSet;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Join a fresh random peer.
    Join,
    /// Crash the i-th live peer (index wrapped).
    Crash(usize),
    /// Register the i-th corpus key (index wrapped).
    Insert(usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Join),
        (0usize..64).prop_map(Op::Crash),
        (0usize..64).prop_map(Op::Crash), // bias toward failures
        (0usize..64).prop_map(Op::Insert),
    ]
}

/// The "each time unit ends with repair" discipline the runtime uses:
/// re-attach orphans, then run the self-healing pass.
fn repair(sys: &mut DlptSystem) {
    sys.repair_tree();
    sys.anti_entropy().expect("anti-entropy completes");
}

/// Replication invariant plus the structural invariants that must
/// survive any crash/repair interleaving.
fn assert_invariants(sys: &DlptSystem, k: usize) {
    sys.assert_clean();
    prop_assert!(
        sys.check_replication().is_ok(),
        "{:?}",
        sys.check_replication()
    );
    let want = k.min(sys.peer_count());
    for label in sys.node_labels() {
        let hosts = sys.replica_hosts(&label);
        let distinct: BTreeSet<&Key> = hosts.iter().collect();
        prop_assert_eq!(
            distinct.len(),
            hosts.len(),
            "replica hosts of {} not distinct: {:?}",
            &label,
            &hosts
        );
        prop_assert!(
            hosts.len() >= want,
            "{} has {} replica hosts {:?}, want {}",
            &label,
            hosts.len(),
            &hosts,
            want
        );
        for h in &hosts {
            prop_assert!(
                sys.shard(h).is_some(),
                "{} hosted on dead peer {}",
                &label,
                h
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Joins, crashes and inserts in any order, each step closed by the
    /// repair discipline, never break the replication invariant.
    #[test]
    fn any_join_crash_repair_sequence_keeps_min_k_live_replicas(
        ops in proptest::collection::vec(op(), 1..16),
        seed in 0u64..500,
        k in 2usize..4,
    ) {
        let corpus = Corpus::grid().take_spread(24);
        let mut sys = DlptSystem::builder()
            .seed(seed)
            .peer_id_len(10)
            .replication(k)
            .bootstrap_peers(5)
            .build();
        let mut registered: BTreeSet<Key> = BTreeSet::new();
        for key in corpus.iter().take(8) {
            sys.insert_data(key.clone()).unwrap();
            registered.insert(key.clone());
        }
        repair(&mut sys);
        assert_invariants(&sys, k);

        for op in ops {
            match op {
                Op::Join => {
                    sys.add_peer(1_000).unwrap();
                }
                Op::Crash(i) => {
                    let ids = sys.peer_ids();
                    if ids.len() <= 2 {
                        continue; // keep a ring worth crashing into
                    }
                    let victim = ids[i % ids.len()].clone();
                    let lost = sys.crash_peer(&victim).unwrap();
                    // Fresh replicas exist for every node (the repair
                    // discipline ran after every step), so a single
                    // crash is always fully absorbed.
                    prop_assert!(lost.is_empty(), "lost {:?}", lost);
                }
                Op::Insert(i) => {
                    let key = corpus[i % corpus.len()].clone();
                    sys.insert_data(key.clone()).unwrap();
                    registered.insert(key);
                }
            }
            repair(&mut sys);
            assert_invariants(&sys, k);
        }

        // Zero data loss: every registered key is still discoverable.
        let alive: BTreeSet<Key> = sys.registered_keys().into_iter().collect();
        prop_assert_eq!(&alive, &registered);
        for key in &registered {
            sys.end_time_unit();
            let out = sys.lookup(key);
            prop_assert!(out.satisfied, "{} lost after the sequence", key);
        }
        sys.assert_clean();
    }

    /// The unreplicated system under the same discipline keeps its
    /// structural invariants (mapping/ring) even though crashes lose
    /// data — the baseline `figR` quantifies.
    #[test]
    fn k1_sequences_keep_structural_invariants(
        ops in proptest::collection::vec(op(), 1..12),
        seed in 0u64..200,
    ) {
        let corpus = Corpus::grid().take_spread(16);
        let mut sys = DlptSystem::builder()
            .seed(seed)
            .peer_id_len(10)
            .bootstrap_peers(4)
            .build();
        for key in corpus.iter().take(6) {
            sys.insert_data(key.clone()).unwrap();
        }
        for op in ops {
            match op {
                Op::Join => {
                    sys.add_peer(1_000).unwrap();
                }
                Op::Crash(i) => {
                    let ids = sys.peer_ids();
                    if ids.len() <= 2 {
                        continue;
                    }
                    let victim = ids[i % ids.len()].clone();
                    sys.crash_peer(&victim).unwrap();
                }
                Op::Insert(i) => {
                    sys.insert_data(corpus[i % corpus.len()].clone()).unwrap();
                }
            }
            sys.repair_tree();
            sys.assert_clean();
        }
    }
}
