//! Property tests of the peer slab and the interned directory under
//! full-protocol churn (ISSUE 7 satellite): arbitrary sequences of
//! peer join / graceful leave / crash-with-promotion / rename (the MLT
//! boundary move) / node migration / data churn must preserve
//!
//! * the `Directory` id↔`Key` bijection,
//! * the slab's free-list integrity (live slots and freed slots
//!   partition the slab; no id aliases a recycled slot), and
//! * the paper's ring invariant plus lookup correctness.
//!
//! All three are sections of `Engine::audit`. Beside them,
//! [`Engine::depth_map`](crate::engine::Engine::depth_map) is checked
//! against the recursive father-chain definition, including the
//! post-crash, pre-repair state in which subtrees hang off dead
//! fathers. This lives inside the engine module (not `tests/`) for the
//! key pool it shares with the twin tests.

use super::twin::key_pool;
use crate::alphabet::Alphabet;
use crate::key::Key;
use crate::obs::health::AuditCheck;
use crate::system::DlptSystem;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One churn step; indices are resolved against the live peer list /
/// key pool at execution time so every generated sequence is valid.
#[derive(Debug, Clone)]
enum ChurnOp {
    AddPeer,
    LeavePeer(u16),
    CrashPeer(u16),
    RenamePeer(u16),
    MigrateNode(u16),
    InsertData(u16),
    RemoveData(u16),
}

fn churn_op() -> impl Strategy<Value = ChurnOp> {
    prop_oneof![
        Just(ChurnOp::AddPeer),
        any::<u16>().prop_map(ChurnOp::LeavePeer),
        any::<u16>().prop_map(ChurnOp::CrashPeer),
        any::<u16>().prop_map(ChurnOp::RenamePeer),
        any::<u16>().prop_map(ChurnOp::MigrateNode),
        any::<u16>().prop_map(ChurnOp::InsertData),
        any::<u16>().prop_map(ChurnOp::InsertData),
        any::<u16>().prop_map(ChurnOp::RemoveData),
    ]
}

/// `audit()` — interner round-trip, slab, ring, trie, replication
/// records, caches — minus the one class a step may legally leave open:
/// `migrate_node` moves a node off its canonical host (the balancer
/// would resolve it).
fn assert_clean_mid_churn(sys: &DlptSystem) {
    let mut found = sys.audit();
    found.retain(|v| v.check != AuditCheck::Mapping);
    assert!(found.is_empty(), "audit violations: {found:?}");
}

proptest! {
    // Each case runs full join/leave/crash protocol rounds; keep the
    // population modest so the whole family stays in CI budget.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn slab_and_directory_survive_arbitrary_churn(
        seed in any::<u64>(),
        ops in proptest::collection::vec(churn_op(), 1..16),
    ) {
        let pool = key_pool(3);
        let alphabet = Alphabet::new(b"012", "prop");
        let mut sys = DlptSystem::builder()
            .alphabet(alphabet.clone())
            .seed(seed)
            .peer_id_len(6)
            .replication(2) // crashes promote follower copies
            .default_capacity(100_000) // capacity refusals are not under test
            .bootstrap_peers(4)
            .build();
        let mut peers: Vec<Key> = sys.peer_ids();
        let mut model: Vec<Key> = Vec::new();
        // Seed one registration so lookups always have a tree to walk.
        sys.insert_data(pool[0].clone()).expect("seed registration");
        model.push(pool[0].clone());
        assert_clean_mid_churn(&sys);

        for op in ops {
            match op {
                ChurnOp::AddPeer => {
                    let id = sys.add_peer(100_000).expect("join");
                    peers.push(id);
                }
                ChurnOp::LeavePeer(i) => {
                    if peers.len() > 3 {
                        let id = peers.remove(i as usize % peers.len());
                        sys.leave_peer(&id).expect("graceful leave");
                    }
                }
                ChurnOp::CrashPeer(i) => {
                    if peers.len() > 3 {
                        // Converge replicas first so every node has a
                        // live follower: the crash then promotes
                        // instead of losing nodes — the promotion arm
                        // of the id-reuse property.
                        sys.anti_entropy().expect("anti-entropy");
                        let id = peers.remove(i as usize % peers.len());
                        let lost = sys.crash_peer(&id).expect("crash");
                        prop_assert!(
                            lost.is_empty(),
                            "with k=2 and fresh replicas a crash loses nothing, lost {:?}",
                            lost
                        );
                        sys.repair_tree();
                    }
                }
                ChurnOp::RenamePeer(i) => {
                    // `rename_peer` is the MLT boundary move: it
                    // renames in place without re-splicing the ring,
                    // so the new identifier must keep the peer
                    // strictly between its ring neighbours.
                    let at = i as usize % peers.len();
                    let old = peers[at].clone();
                    let (pred, succ) = {
                        let sh = sys.shard(&old).expect("live peer");
                        (sh.peer.pred.clone(), sh.peer.succ.clone())
                    };
                    let new = if pred < old {
                        alphabet.id_between(&pred, &old)
                    } else if old < succ {
                        alphabet.id_between(&old, &succ)
                    } else {
                        None // wrap-around singleton arc: skip
                    };
                    if let Some(new) = new {
                        sys.rename_peer(&old, new.clone()).expect("boundary move");
                        peers[at] = new;
                    }
                }
                ChurnOp::MigrateNode(i) => {
                    if let Some(label) = sys.random_node() {
                        let to = peers[i as usize % peers.len()].clone();
                        // Moving a node off its canonical host is a
                        // legal transient; ignore rejections (e.g.
                        // migrating to the current host).
                        let _ = sys.migrate_node(&label, &to);
                    }
                }
                ChurnOp::InsertData(i) => {
                    let k = pool[i as usize % pool.len()].clone();
                    sys.insert_data(k.clone()).expect("registration");
                    if !model.contains(&k) {
                        model.push(k);
                    }
                }
                ChurnOp::RemoveData(i) => {
                    if model.len() > 1 {
                        let k = model.remove(i as usize % model.len());
                        sys.remove_data(&k).expect("deregistration");
                    }
                }
            }
            assert_clean_mid_churn(&sys);
            let probes: Vec<Key> = model.iter().take(3).cloned().collect();
            for k in &probes {
                prop_assert!(
                    sys.lookup(k).satisfied,
                    "registered key {} must stay discoverable",
                    k
                );
            }
            let absent = Key::from("22222");
            prop_assert!(!sys.lookup(&absent).satisfied);
            sys.end_time_unit();
        }
    }

    #[test]
    fn depth_map_is_the_father_chain_depth_of_live_nodes(
        seed in any::<u64>(),
        keys in proptest::collection::vec(any::<u16>(), 1..40),
        crashes in proptest::collection::vec(any::<u16>(), 0..4),
    ) {
        let pool = key_pool(3);
        // k = 1: every crash loses its nodes and orphans their subtrees.
        let mut sys = DlptSystem::builder()
            .alphabet(Alphabet::new(b"012", "prop"))
            .seed(seed)
            .peer_id_len(6)
            .default_capacity(100_000)
            .bootstrap_peers(5)
            .build();
        for i in keys {
            sys.insert_data(pool[i as usize % pool.len()].clone())
                .expect("registration");
        }
        for i in crashes {
            let peers = sys.peer_ids();
            if peers.len() > 2 {
                sys.crash_peer(&peers[i as usize % peers.len()]).expect("crash");
            }
        }
        // Before the repair: fathers may be dead. After: one tree.
        for repaired in [false, true] {
            if repaired {
                sys.repair_tree();
            }
            fn depth(sys: &DlptSystem, label: &Key) -> u32 {
                match sys.node(label).and_then(|n| n.father()) {
                    Some(f) if sys.node(f).is_some() => depth(sys, f) + 1,
                    _ => 0,
                }
            }
            let want: BTreeMap<Key, u32> = sys
                .node_labels()
                .into_iter()
                .map(|l| {
                    let d = depth(&sys, &l);
                    (l, d)
                })
                .collect();
            prop_assert_eq!(sys.depth_map(), want, "repaired: {}", repaired);
        }
    }
}
