//! A run move is its node moves.
//!
//! `Engine::migrate_run` hands a run of nodes from one shard to another
//! in one drain, one extend and one settle; `rebalance_pair` applies an
//! MLT boundary move as one such run. This drives twin seeded overlays
//! (k = 1 and k = 2, caches on): on one twin the labels move as runs,
//! on the other one at a time through [`reference_migrate`] — the
//! per-node move as it stood before runs (`evict`, `install`, a
//! directory insert, a settle per node), kept here only. Both twins
//! must leave the same fingerprint: outcomes of the lookups between
//! moves, counters (the replication traffic of the settles among
//! them), every node's state, host, follower record and epoch, every
//! follower copy, and a clean `audit()` after every step. Seeded MLT
//! units run on both twins too, where the reference applies the same
//! boundary plan node by node, so `rebalance_pair` must move the same
//! labels and rename the same peer.
//!
//! Inside the engine module because the reference reaches the shards
//! and the directory directly.

use crate::alphabet::Alphabet;
use crate::balance::mlt::{plan_pair, rebalance_pair};
use crate::key::Key;
use crate::system::DlptSystem;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Small enough that units overload peers and MLT moves boundaries.
const CAPACITY: u32 = 6;

/// All 120 keys of length 1–4 over `012`: shards of a few dozen nodes.
fn key_pool() -> Vec<Key> {
    let mut pool = vec![Key::epsilon()];
    let mut at = 0;
    while pool.len() < 121 {
        let stem = pool[at].clone();
        for d in [b'0', b'1', b'2'] {
            let mut bytes = stem.as_bytes().to_vec();
            bytes.push(d);
            pool.push(Key::from_bytes(bytes));
        }
        at += 1;
    }
    pool.split_off(1)
}

/// One node moved the way it moved before runs existed.
fn reference_migrate(sys: &mut DlptSystem, label: &Key, to: &Key) {
    let from = sys.host_of(label).cloned().expect("live label");
    if &from == to {
        return;
    }
    let node = sys
        .shard_mut(&from)
        .expect("live host")
        .evict(label)
        .expect("hosted");
    sys.shard_mut(to).expect("live peer").install(node);
    sys.directory.insert(label.clone(), to.clone());
    sys.mark_touched(label);
    sys.stats.balance_migrations += 1;
    sys.settle().expect("moves are reliable");
}

/// `rebalance_pair`'s plan, applied node by node: the loops the run
/// replaced, each node looked up by host.
fn reference_rebalance(sys: &mut DlptSystem, s_id: &Key) -> bool {
    let Some(m) = plan_pair(sys, s_id) else {
        return false;
    };
    for (label, _) in &m.union[..m.split] {
        if sys.host_of(label) == Some(s_id) {
            reference_migrate(sys, label, &m.p_id);
        }
    }
    for (label, _) in &m.union[m.split..] {
        if sys.host_of(label) == Some(&m.p_id) {
            reference_migrate(sys, label, s_id);
        }
    }
    if m.new_p_id != m.p_id {
        sys.rename_peer(&m.p_id, m.new_p_id).expect("fresh id");
    }
    true
}

/// Moves `labels` (all on `from`) to `to`: as one run, or one by one.
fn move_labels(sys: &mut DlptSystem, from: &Key, to: &Key, labels: &[Key], as_run: bool) {
    if as_run {
        let moved = sys
            .migrate_run(from, to, |l| labels.binary_search(l).is_ok())
            .expect("live peers");
        assert_eq!(moved, labels.len());
    } else {
        for label in labels {
            reference_migrate(sys, label, to);
        }
    }
}

/// Everything a run leaves behind, rendered.
fn fingerprint(sys: &DlptSystem, pool: &[Key], outcomes: &str) -> String {
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
    for label in pool {
        out.push_str(&format!(
            "{label} epoch {}\n",
            sys.directory().epoch_of(label)
        ));
    }
    for (pid, shard) in sys.shards() {
        let copies: Vec<_> = shard.replicas.values().collect();
        out.push_str(&format!("{pid} holds {copies:?}\n"));
    }
    out + outcomes
}

fn run(seed: u64, replication: usize, as_runs: bool) -> String {
    let pool = key_pool();
    let mut sys = DlptSystem::builder()
        .alphabet(Alphabet::new(b"012", "runs"))
        .seed(seed)
        .peer_id_len(6)
        .replication(replication)
        .cache_capacity(8)
        .default_capacity(CAPACITY)
        .bootstrap_peers(8)
        .build();
    for key in &pool {
        sys.insert_data(key.clone()).expect("registration");
    }
    let mut plan = StdRng::seed_from_u64(seed ^ 0x7275);
    let mut outcomes = String::new();
    let lookups = |sys: &mut DlptSystem, plan: &mut StdRng, outcomes: &mut String| {
        for _ in 0..12 {
            let key = &pool[plan.gen_range(0..pool.len())];
            outcomes.push_str(&format!("{:?}\n", sys.lookup(key)));
        }
    };
    for _ in 0..40 {
        lookups(&mut sys, &mut plan, &mut outcomes);
        match plan.gen_range(0..3) {
            0 => {
                // A run away from its host and back: an interval of the
                // host's label order, or an interleaved subset of it.
                let peers = sys.peer_ids();
                let from = peers[plan.gen_range(0..peers.len())].clone();
                let to = peers[plan.gen_range(0..peers.len())].clone();
                let held: Vec<Key> = sys
                    .shard(&from)
                    .expect("live")
                    .nodes
                    .keys()
                    .cloned()
                    .collect();
                let labels: Vec<Key> = if plan.gen_bool(0.5) {
                    let a = plan.gen_range(0..=held.len());
                    let b = plan.gen_range(a..=held.len());
                    held[a..b].to_vec()
                } else {
                    held.into_iter().filter(|_| plan.gen_bool(0.5)).collect()
                };
                if from == to {
                    continue;
                }
                outcomes.push_str(&format!("move {} {from} -> {to}\n", labels.len()));
                move_labels(&mut sys, &from, &to, &labels, as_runs);
                lookups(&mut sys, &mut plan, &mut outcomes);
                move_labels(&mut sys, &to, &from, &labels, as_runs);
            }
            1 => {
                // One MLT unit over half the peers.
                sys.end_time_unit();
                let ids = sys.peer_ids();
                let chosen: Vec<Key> = ids
                    .choose_multiple(&mut plan, ids.len() / 2)
                    .cloned()
                    .collect();
                for id in chosen {
                    if sys.shard(&id).is_some() {
                        let moved = if as_runs {
                            rebalance_pair(&mut sys, &id)
                        } else {
                            reference_rebalance(&mut sys, &id)
                        };
                        outcomes.push_str(&format!("mlt {id} {moved}\n"));
                    }
                }
            }
            _ => sys.end_time_unit(),
        }
        let violations = sys.audit();
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }
    fingerprint(&sys, &pool, &outcomes)
}

#[test]
fn a_run_move_is_its_node_moves() {
    for seed in [5, 2008] {
        for k in [1, 2] {
            let runs = run(seed, k, true);
            // The script must reach what a run move changes: real runs,
            // boundary moves, and at k = 2 the settles' re-replication.
            assert!(runs.contains(" true\n"), "seed {seed} k {k}: no MLT move");
            assert!(
                runs.lines()
                    .any(|l| l.starts_with("move ") && !l.starts_with("move 0 ")),
                "seed {seed} k {k}: no run moved"
            );
            if k == 2 {
                assert!(
                    !runs.contains("eager_syncs: 0,"),
                    "seed {seed}: no re-replication"
                );
            }
            assert_eq!(runs, run(seed, k, false), "seed {seed} k {k}");
        }
    }
}
