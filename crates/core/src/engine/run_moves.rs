//! A run move is its node moves.
//!
//! `Engine::migrate_run` moves nodes in one drain, extend and settle;
//! `rebalance_pair` moves an MLT boundary as one run. The twin
//! ([`super::twin`]) moves side B's labels one at a time through
//! [`reference_migrate`], the per-node move as it stood before runs.

use super::twin::{pump, Script, Side, Twin, RUNS};
use crate::balance::mlt::plan_pair;
use crate::key::Key;
use crate::system::DlptSystem;

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

#[test]
fn a_run_move_is_its_node_moves() {
    for seed in [5, 2008] {
        for k in [1, 2] {
            let per_node = Side {
                move_run: |sys, _, to, labels| {
                    labels.iter().map(|l| reference_migrate(sys, l, to)).count()
                },
                rebalance: reference_rebalance,
                ..Side::new(pump(seed))
            };
            let script = Script::mixed(seed, k, RUNS);
            let twin = Twin::run(script, Side::new(pump(seed)), per_node);
            // The script must reach what a run move changes: real runs,
            // boundary moves, and at k = 2 the settles' re-replication.
            twin.assert_reached("MoveRun", "labels: [Key(")
                .assert_reached("Mlt(", "true");
            let syncs = twin.a.sys.repl_stats.eager_syncs;
            assert!(k == 1 || syncs > 0, "seed {seed}: no re-replication");
        }
    }
}
