//! The change-proportional maintenance passes against their
//! definitions:
//!
//! * the id-native replication flush, anti-entropy scan and repair scan
//!   (`replicate.rs`) against the `Key`-level scans they replaced
//!   (`reference_scans.rs`), two systems driven in lockstep through
//!   seeded churn scripts — same reports, counters, follower records,
//!   follower copies and audit verdict after every step;
//! * [`Engine::depth_map`] against the recursive father-chain
//!   definition, including the post-crash, pre-repair state in which
//!   subtrees hang off dead fathers.
//!
//! Inside the engine module because the reference scans are
//! `cfg(test)` items of this crate.

use super::slab_props::key_pool;
use crate::alphabet::Alphabet;
use crate::key::Key;
use crate::obs::health::AuditCheck;
use crate::system::DlptSystem;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(u16),
    Remove(u16),
    Join,
    Leave(u16),
    /// Crashes this many consecutive ring peers before anything
    /// repairs: a burst of `k` takes a node's primary and every
    /// follower with it — lost nodes, dangling links, orphans.
    Crash(u16, usize),
    Migrate(u16),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u16>().prop_map(Op::Insert),
        any::<u16>().prop_map(Op::Insert),
        any::<u16>().prop_map(Op::Remove),
        Just(Op::Join),
        any::<u16>().prop_map(Op::Leave),
        (any::<u16>(), 1usize..4).prop_map(|(at, burst)| Op::Crash(at, burst)),
        (any::<u16>(), 1usize..4).prop_map(|(at, burst)| Op::Crash(at, burst)),
        any::<u16>().prop_map(Op::Migrate),
    ]
}

fn system(seed: u64, k: usize, reference: bool) -> DlptSystem {
    let mut sys = DlptSystem::builder()
        .alphabet(Alphabet::new(b"012", "prop"))
        .seed(seed)
        .peer_id_len(6)
        .replication(k)
        .default_capacity(100_000)
        .bootstrap_peers(5)
        .build();
    sys.reference_scans = reference;
    sys
}

/// Everything the scans write or emit into, rendered to keys.
fn replication_state(sys: &DlptSystem) -> String {
    let mut out = format!("{:?}\n{:?}\n", sys.stats, sys.repl_stats);
    for label in sys.node_labels() {
        let followers: Vec<&Key> = sys.directory().followers_of(&label).collect();
        out.push_str(&format!(
            "{label} on {:?} followed by {followers:?}: {:?}\n",
            sys.host_of(&label),
            sys.node(&label)
        ));
    }
    for (pid, shard) in sys.shards() {
        let copies: Vec<&Key> = shard.replicas.keys().collect();
        out.push_str(&format!("{pid} holds {copies:?}\n"));
    }
    for v in sys.audit() {
        out.push_str(&format!("violation {v}\n"));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn id_native_scans_match_the_key_level_reference(
        seed in any::<u64>(),
        k in 2usize..4,
        ops in proptest::collection::vec(op(), 1..20),
    ) {
        let pool = key_pool();
        let mut new = system(seed, k, false);
        let mut old = system(seed, k, true);
        // A standing tree, so early crashes have something to orphan.
        let mut model: Vec<Key> = pool.iter().step_by(5).cloned().collect();
        for key in &model {
            new.insert_data(key.clone()).expect("registration");
            old.insert_data(key.clone()).expect("registration");
        }
        for op in ops {
            // Both systems share seed and history, so they draw the
            // same ids and entry nodes; one script drives both.
            let peers = new.peer_ids();
            prop_assert_eq!(&peers, &old.peer_ids());
            for sys in [&mut new, &mut old] {
                match &op {
                    Op::Insert(i) => {
                        sys.insert_data(pool[*i as usize % pool.len()].clone())
                            .expect("registration");
                    }
                    Op::Remove(i) => {
                        if !model.is_empty() {
                            sys.remove_data(&model[*i as usize % model.len()])
                                .expect("deregistration");
                        }
                    }
                    Op::Join => {
                        sys.add_peer(100_000).expect("join");
                    }
                    Op::Leave(i) => {
                        if peers.len() > 3 {
                            sys.leave_peer(&peers[*i as usize % peers.len()])
                                .expect("graceful leave");
                        }
                    }
                    Op::Crash(at, burst) => {
                        if peers.len() > burst + 2 {
                            for off in 0..*burst {
                                let victim = &peers[(*at as usize + off) % peers.len()];
                                sys.crash_peer(victim).expect("crash");
                            }
                        }
                    }
                    Op::Migrate(i) => {
                        if let Some(label) = sys.random_node() {
                            // Rejections (already there) are fine.
                            let _ = sys.migrate_node(&label, &peers[*i as usize % peers.len()]);
                        }
                    }
                }
            }
            match &op {
                Op::Insert(i) => {
                    let key = pool[*i as usize % pool.len()].clone();
                    if !model.contains(&key) {
                        model.push(key);
                    }
                }
                Op::Remove(i) if !model.is_empty() => {
                    model.remove(*i as usize % model.len());
                }
                _ => {}
            }
            prop_assert_eq!(replication_state(&new), replication_state(&old));
            // Close the step the way a time unit does: repair, then
            // heal. The reports are the scans' direct outputs.
            prop_assert_eq!(new.repair_tree(), old.repair_tree());
            prop_assert_eq!(replication_state(&new), replication_state(&old));
            prop_assert_eq!(
                new.anti_entropy().expect("anti-entropy"),
                old.anti_entropy().expect("anti-entropy")
            );
            prop_assert_eq!(replication_state(&new), replication_state(&old));
            // (`migrate_node` parks a node off its canonical host — a
            // legal transient only a balancer resolves.)
            let violations: Vec<_> = new
                .audit()
                .into_iter()
                .filter(|v| v.check != AuditCheck::Mapping)
                .collect();
            prop_assert!(violations.is_empty(), "audit after the step: {:?}", violations);
            new.end_time_unit();
            old.end_time_unit();
        }
    }

    #[test]
    fn depth_map_is_the_father_chain_depth_of_live_nodes(
        seed in any::<u64>(),
        keys in proptest::collection::vec(any::<u16>(), 1..40),
        crashes in proptest::collection::vec(any::<u16>(), 0..4),
    ) {
        let pool = key_pool();
        // k = 1: every crash loses its nodes and orphans their subtrees.
        let mut sys = system(seed, 1, false);
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
                match sys.node(label).and_then(|n| n.father.as_ref()) {
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
