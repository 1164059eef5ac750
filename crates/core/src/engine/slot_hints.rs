//! Slot hints never change behaviour.
//!
//! The directory's per-label slot is a hint into the host's `NodeMap`
//! slab: `NodeMap::find` checks it against the label and falls back
//! to the hash probe, and the hop that finds the node elsewhere
//! rewrites it. So no hint, however wrong, may reach anything
//! observable. This drives one seeded mixed workload twice — once as
//! it runs, once with every hint scrambled (right, another node's, or
//! past the slab) before each operation — and requires the same
//! fingerprint: outcomes, counters, every node's state and host,
//! follower records and copies, and the audit verdict.
//!
//! Inside the engine module because the scrambler is a `cfg(test)`
//! item of this crate.

use super::slab_props::key_pool;
use crate::alphabet::Alphabet;
use crate::balance::{LoadBalancer, MaxLocalThroughput};
use crate::key::Key;
use crate::system::DlptSystem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Small enough that visits are refused and followers serve them.
const CAPACITY: u32 = 6;

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
    for v in sys.audit() {
        out.push_str(&format!("violation {v}\n"));
    }
    out + outcomes
}

fn run(seed: u64, scramble: bool) -> String {
    let pool = key_pool();
    let mut sys = DlptSystem::builder()
        .alphabet(Alphabet::new(b"012", "hints"))
        .seed(seed)
        .peer_id_len(6)
        .replication(2)
        .cache_capacity(8)
        .default_capacity(CAPACITY)
        .bootstrap_peers(10)
        .build();
    let mut plan = StdRng::seed_from_u64(seed ^ 0x5107);
    let mut registered: Vec<Key> = Vec::new();
    let mut outcomes = String::new();
    for step in 0..800u64 {
        if scramble {
            sys.directory.scramble_slot_hints(seed << 32 | step);
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
                // instead of losing nodes; anti-entropy then restores
                // the second copy.
                sys.anti_entropy().expect("anti-entropy");
                let peers = sys.peer_ids();
                let id = &peers[plan.gen_range(0..peers.len())];
                let lost = sys.crash_peer(id).expect("crash");
                outcomes.push_str(&format!("lost {lost:?}\n"));
                sys.repair_tree();
                sys.anti_entropy().expect("anti-entropy");
            }
            86..=89 => {
                // One MLT unit: the balancer reads the loads of the unit
                // just closed and moves boundaries.
                sys.end_time_unit();
                MaxLocalThroughput::default().before_unit(&mut sys, &mut plan);
            }
            _ => sys.end_time_unit(),
        }
    }
    fingerprint(&sys, &outcomes)
}

#[test]
fn scrambled_slot_hints_change_nothing() {
    for seed in [3, 2008] {
        let plain = run(seed, false);
        // The workload must reach the paths a hint feeds: refused
        // visits served by followers, crashes, balancer moves.
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
        assert_eq!(run(seed, true), plain, "seed {seed}");
    }
}
