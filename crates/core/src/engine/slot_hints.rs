//! Slot hints never change behaviour.
//!
//! The directory's per-label slot is a hint into the host's `NodeMap`
//! slab, checked against the label before the hash probe. The twin
//! ([`super::twin`]) scrambles every hint of side B (right, another
//! node's, or past the slab) before each step.

use super::twin::{pump, Script, Side, Twin, CHURN};

#[test]
fn scrambled_slot_hints_change_nothing() {
    for seed in [3, 2008] {
        let scrambled = Side {
            before: |sys, tick| sys.directory.scramble_slot_hints(tick),
            ..Side::new(pump(seed))
        };
        let script = Script::mixed(seed, 2, CHURN);
        // The script must reach the paths a hint feeds: refused visits
        // served by followers, crashes that promote, balancer moves.
        let twin = Twin::run(script, Side::new(pump(seed)), scrambled);
        let (s, r) = (&twin.a.sys.stats, &twin.a.sys.repl_stats);
        let reached = s.discovery_drops > 0 && r.failover_reads > 0 && s.balance_migrations > 0;
        assert!(reached, "seed {seed}: {s:?} {r:?}");
        twin.assert_reached("Crash(", "Ok([])");
    }
}
