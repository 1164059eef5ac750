//! A chained write is its queued write.
//!
//! On the synchronous pump a lone envelope runs inline while the queue
//! is empty, over the link's memoised id (`Engine::deliver`). The twin
//! ([`super::twin`]) runs side B on [`Queued`], where nothing chains:
//! every envelope is queued and popped.

use super::twin::{pump, Queued, Script, Side, Twin, CHURN};

#[test]
fn a_chained_write_is_its_queued_write() {
    for seed in [3, 2008] {
        for k in [1, 2] {
            let queued = Queued::overlay(pump(0).config().clone(), seed);
            let script = Script::mixed(seed, k, CHURN);
            // The script must reach what a chain meets: removals,
            // joins and leaves, a crash whose repair re-attaches
            // orphans, an MLT boundary move, and requeued envelopes.
            let twin = Twin::run(script, Side::new(pump(seed)), Side::new(queued));
            let requeues = twin.a.sys.stats.requeues;
            assert!(requeues > 0, "seed {seed} k {k}: nothing requeued");
            twin.assert_reached("Remove(", "")
                .assert_reached("Leave(", "")
                .assert_reached("Join", " -> Ok")
                .assert_reached("Mlt(", "true")
                .assert_reached("Crash(", "reattached: [Key(");
        }
    }
}
