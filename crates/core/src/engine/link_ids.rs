//! Memoised link ids never change behaviour.
//!
//! A chained hop follows the label id its node memoised on the link it
//! took, instead of hashing the label. The memo is only sound if every
//! edit of a link clears it. This drives one seeded mixed workload
//! twice — once as it runs, once with every memo forgotten before each
//! operation, so every hop hashes — and requires the same outcomes and
//! fingerprint. After every operation of both runs `audit()` must be
//! clean, its link-id check included: a memo that outlived an edit of
//! its link names another label, and shows there even where the
//! misrouted hop would happen to land well.
//!
//! Inside the engine module because the memo is crate-private.

use super::slab_props::key_pool;
use crate::alphabet::Alphabet;
use crate::balance::{LoadBalancer, MaxLocalThroughput};
use crate::key::Key;
use crate::system::DlptSystem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Small enough that visits are refused and followers serve them.
const CAPACITY: u32 = 6;

/// Forgets the memo of every link of every node and follower copy.
fn forget_link_ids(sys: &mut DlptSystem) {
    for slot in sys.peers.iter_slots_mut() {
        let shard = &mut slot.shard;
        shard.nodes.visit_mut(|n| n.forget_link_ids());
        shard.replicas.visit_mut(|n| n.forget_link_ids());
    }
}

/// Links whose id is memoised, over every node and copy.
fn count_memoised(sys: &DlptSystem) -> usize {
    sys.local_shards()
        .flat_map(|s| s.nodes.values().chain(s.replicas.values()))
        .map(|n| n.memoised_links().count())
        .sum()
}

/// Everything a run leaves behind, rendered.
fn fingerprint(sys: &DlptSystem, outcomes: &str) -> String {
    let mut out = format!(
        "{:?}\n{:?}\n{:?}\n",
        sys.stats, sys.repl_stats, sys.cache_stats
    );
    out.push_str(&format!("peers {:?}\n", sys.peer_ids()));
    for label in sys.node_labels() {
        let followers: Vec<&Key> = sys.directory().followers_of(&label).collect();
        out.push_str(&format!(
            "{label} on {:?} followed by {followers:?}: {:?}\n",
            sys.host_of(&label),
            sys.node(&label)
        ));
    }
    for (pid, shard) in sys.shards() {
        let copies: Vec<_> = shard.replicas.values().collect();
        out.push_str(&format!("{pid} holds {copies:?}\n"));
    }
    out + outcomes
}

/// Runs the script; returns the fingerprint and the number of
/// memoised links at the end.
fn run(seed: u64, forget: bool) -> (String, usize) {
    let pool = key_pool();
    let mut sys = DlptSystem::builder()
        .alphabet(Alphabet::new(b"012", "links"))
        .seed(seed)
        .peer_id_len(6)
        .replication(2)
        .cache_capacity(8)
        .default_capacity(CAPACITY)
        .bootstrap_peers(10)
        .build();
    let mut plan = StdRng::seed_from_u64(seed ^ 0x11d5);
    let mut registered: Vec<Key> = Vec::new();
    let mut outcomes = String::new();
    for step in 0..800u64 {
        if forget {
            forget_link_ids(&mut sys);
        }
        let pick = |rng: &mut StdRng| pool[rng.gen_range(0..pool.len())].clone();
        match plan.gen_range(0..100) {
            0..=24 => {
                let k = pick(&mut plan);
                sys.insert_data(k.clone()).expect("registration");
                if !registered.contains(&k) {
                    registered.push(k);
                }
            }
            25..=34 if registered.len() > 4 => {
                let k = registered.swap_remove(plan.gen_range(0..registered.len()));
                sys.remove_data(&k).expect("deregistration");
            }
            25..=59 => {
                let k = pick(&mut plan);
                outcomes.push_str(&format!("{:?}\n", sys.lookup(&k)));
            }
            60..=69 => {
                let (a, b) = (pick(&mut plan), pick(&mut plan));
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                outcomes.push_str(&format!("{:?}\n", sys.range(&lo, &hi)));
                let prefix = pick(&mut plan).truncated(1);
                outcomes.push_str(&format!("{:?}\n", sys.complete(&prefix)));
            }
            70..=75 => {
                sys.add_peer(CAPACITY).expect("join");
            }
            76..=81 if sys.peer_count() > 6 => {
                let peers = sys.peer_ids();
                let id = &peers[plan.gen_range(0..peers.len())];
                sys.leave_peer(id).expect("graceful leave");
            }
            82..=85 if sys.peer_count() > 6 => {
                // Fresh copies first, so the crash promotes followers
                // (with whatever memos they carry) instead of losing
                // nodes; anti-entropy then restores the second copy.
                sys.anti_entropy().expect("anti-entropy");
                let peers = sys.peer_ids();
                let id = &peers[plan.gen_range(0..peers.len())];
                let lost = sys.crash_peer(id).expect("crash");
                outcomes.push_str(&format!("lost {lost:?}\n"));
                sys.repair_tree();
                sys.anti_entropy().expect("anti-entropy");
            }
            86..=87 if sys.peer_count() > 6 => {
                // Two ring neighbours at once: a node whose primary and
                // follower both go is lost, and the repair prunes the
                // links to it out of child sets that carry memos.
                let peers = sys.peer_ids();
                let at = plan.gen_range(0..peers.len());
                for id in [&peers[at], &peers[(at + 1) % peers.len()]] {
                    let lost = sys.crash_peer(id).expect("crash");
                    outcomes.push_str(&format!("lost {lost:?}\n"));
                }
                sys.repair_tree();
                sys.anti_entropy().expect("anti-entropy");
            }
            88..=89 => {
                // One MLT unit: the balancer reads the loads of the unit
                // just closed and moves boundaries.
                sys.end_time_unit();
                MaxLocalThroughput::default().before_unit(&mut sys, &mut plan);
            }
            _ => sys.end_time_unit(),
        }
        let found = sys.audit();
        assert!(found.is_empty(), "seed {seed} step {step}: {found:?}");
    }
    let memoised = count_memoised(&sys);
    (fingerprint(&sys, &outcomes), memoised)
}

#[test]
fn memoised_link_ids_change_nothing() {
    for seed in [5, 2008] {
        let (plain, memoised) = run(seed, false);
        // The workload must reach the paths a memo meets: chained hops
        // over filled links, refused visits served by followers,
        // crashes with and without losses, balancer moves.
        assert!(memoised > 0, "seed {seed}: no hop memoised a link");
        let sys_stats = plain.lines().take(2).collect::<String>();
        for needle in [
            "discovery_drops: 0,",
            "failover_reads: 0,",
            "balance_migrations: 0,",
        ] {
            assert!(
                !sys_stats.contains(needle),
                "seed {seed}: {needle}\n{sys_stats}"
            );
        }
        assert!(plain.contains("lost []"), "seed {seed}: no crash ran");
        assert!(
            plain
                .lines()
                .any(|l| l.starts_with("lost [") && l != "lost []"),
            "seed {seed}: no crash lost a node"
        );
        assert_eq!(run(seed, true).0, plain, "seed {seed}");
    }
}
