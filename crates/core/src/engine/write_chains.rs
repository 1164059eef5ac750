//! A chained write is its queued write.
//!
//! On the synchronous pump a lone envelope runs inline while the queue
//! is empty, over the link's memoised id (`Engine::deliver`). The twin
//! ([`super::twin`]) runs side B on [`Queued`], where nothing chains:
//! every envelope is queued and popped.

use super::twin::{pump, Script, Side, Twin, CHURN};
use super::{requeue_limit, Engine, Step, Transport};
use crate::error::Result;
use crate::messages::Envelope;
use crate::overlay::{Driver, Overlay};
use crate::system::REQUEUE_BUDGET;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// The pump with chaining off: its FIFO, drain loop and requeue
/// policy, over a transport that never reports idle or synchronous.
#[derive(Debug)]
struct Queued {
    queue: VecDeque<(u32, Envelope)>,
    rng: StdRng,
}

impl Transport for Queued {
    fn deliver(&mut self, env: Envelope) {
        self.queue.push_back((0, env));
    }
}

impl Driver for Queued {
    fn inject(&mut self, _: &mut Engine, env: Envelope) {
        self.deliver(env);
    }

    fn quiesce(&mut self, engine: &mut Engine) -> Result<()> {
        while let Some((requeues, env)) = self.queue.pop_front() {
            let Step::Requeue(env) = engine.deliver(self, env)? else {
                continue;
            };
            if requeues >= requeue_limit(REQUEUE_BUDGET, engine.peer_count()) {
                engine.fail_undeliverable(self, env)?;
                continue;
            }
            engine.stats.requeues += 1;
            self.queue.push_back((requeues + 1, env));
        }
        Ok(())
    }

    fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

#[test]
fn a_chained_write_is_its_queued_write() {
    for seed in [3, 2008] {
        for k in [1, 2] {
            let (queue, rng) = (VecDeque::new(), StdRng::seed_from_u64(seed));
            let queued = Overlay::with_driver(pump(0).config().clone(), Queued { queue, rng });
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
