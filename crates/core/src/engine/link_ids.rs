//! Memoised link ids never change behaviour.
//!
//! A chained hop follows the label id its node memoised on the link it
//! took; every edit of a link must clear it. The twin ([`super::twin`])
//! forgets every memo of side B before each step, so every hop there
//! hashes, and its audit checks every memo after each step.

use super::twin::{pump, Script, Side, Twin, CHURN};
use super::Engine;

/// Forgets the memo of every link of every node and follower copy.
pub(super) fn forget_link_ids(sys: &mut Engine) {
    for slot in sys.peers.iter_slots_mut() {
        slot.shard.nodes.visit_mut(|n| n.forget_link_ids());
        slot.shard.replicas.visit_mut(|n| n.forget_link_ids());
    }
}

#[test]
fn memoised_link_ids_change_nothing() {
    for seed in [5, 2008] {
        let forgetful = Side {
            before: |sys, _| forget_link_ids(sys),
            ..Side::new(pump(seed))
        };
        let script = Script::mixed(seed, 2, CHURN);
        let twin = Twin::run(script, Side::new(pump(seed)), forgetful);
        // The script must reach the paths a memo meets: chained hops
        // over filled links, refused visits served by followers,
        // crashes with and without losses, balancer moves.
        let shards = twin.a.sys.local_shards();
        let nodes = shards.flat_map(|s| s.nodes.values().chain(s.replicas.values()));
        let memoised: usize = nodes.map(|n| n.memoised_links().count()).sum();
        assert!(memoised > 0, "seed {seed}: no hop memoised a link");
        let (s, r) = (&twin.a.sys.stats, &twin.a.sys.repl_stats);
        let reached = s.discovery_drops > 0 && r.failover_reads > 0 && s.balance_migrations > 0;
        assert!(reached, "seed {seed}: {s:?} {r:?}");
        twin.assert_reached("Crash(", "Ok([])")
            .assert_reached("Crash(", "Ok([Key(");
    }
}
