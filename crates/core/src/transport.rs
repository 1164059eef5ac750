//! Fault injection: the gate between the engine and any transport.
//!
//! `Faults` decides, per envelope, whether it reaches the
//! [`Transport`] underneath — the synchronous FIFO pump, the
//! discrete-event latency queue or the threaded frame channels —
//! injecting seeded, deterministic message loss, duplication,
//! reordering and healable partitions according to a [`FaultPlan`].
//! The engine owns the one `Faults` of a runtime and asks it about
//! everything it emits ([`Engine::send`](crate::engine::Engine::send);
//! `engine/faults.rs` also holds the retry and idempotency machinery
//! that faults make necessary); the runtimes only decide how an
//! envelope that passed travels.
//!
//! Determinism rules (what keeps the golden fingerprint byte-identical
//! when faults are off, and lossy runs reproducible when they are on):
//!
//! 1. Fault draws come from a dedicated [`StdRng`] seeded by
//!    `FaultPlan::seed`, never from the system RNG — installing a plan
//!    cannot shift peer-identifier or entry-point draws.
//! 2. A message outside the faultable class ([`is_faultable`]) is
//!    delivered without consuming a draw.
//! 3. A partitioned destination drops the message without consuming a
//!    draw (the partition is a deterministic predicate, not a coin).
//! 4. An inert plan ([`FaultPlan::is_inert`]) delivers without
//!    consuming a draw — a default-plan gate is exactly the transport
//!    behind it.
//! 5. Otherwise exactly **one** uniform draw decides
//!    loss / duplication / deferral / delivery.

use crate::engine::Transport;
use crate::key::Key;
use crate::messages::{Address, Envelope, Message, NodeMsg, PeerMsg};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Configuration for seeded fault injection. The default plan is
/// fully inert: every rate zero, no partition, zero RNG consumption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability a faultable message is dropped in transit.
    pub loss_rate: f64,
    /// Probability a faultable message is delivered twice.
    pub dup_rate: f64,
    /// Probability a faultable message is deferred past everything
    /// currently queued (released at the next quiescence flush).
    pub reorder_rate: f64,
    /// Seed of the dedicated fault RNG; independent of the system RNG.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            loss_rate: 0.0,
            dup_rate: 0.0,
            reorder_rate: 0.0,
            seed: 0,
        }
    }
}

impl FaultPlan {
    /// Whether the plan can never alter a delivery (all rates zero).
    pub fn is_inert(&self) -> bool {
        self.loss_rate <= 0.0 && self.dup_rate <= 0.0 && self.reorder_rate <= 0.0
    }
}

/// Counters for everything the fault layer did — kept separate from
/// [`SystemStats`](crate::metrics::SystemStats) so that fault-free
/// runs (where every field stays zero) keep the committed golden
/// fingerprint byte-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages dropped by the loss rate.
    pub lost: u64,
    /// Messages delivered twice by the duplication rate.
    pub duplicated: u64,
    /// Messages deferred past the current queue by the reorder rate.
    pub reordered: u64,
    /// Messages dropped at a severed partition boundary.
    pub partition_dropped: u64,
    /// Duplicated client responses suppressed by the engine's
    /// per-request idempotency filter.
    pub duplicates_suppressed: u64,
    /// Request retries issued under the engine's retry policy.
    pub retries: u64,
    /// Requests explicitly failed after exhausting their retry budget.
    pub requests_failed: u64,
    /// Frames failed explicitly at a runtime's frame-retry budget
    /// (previously a silent drop / process abort).
    pub frames_exhausted: u64,
}

/// The faultable message class: discovery traffic, its client
/// responses, and cache invalidations — the messages whose loss the
/// retry/idempotency machinery can absorb. Mutations, joins and
/// replication repair are modelled as reliable (their loss would not
/// degrade the overlay, it would corrupt it: a half-applied insert or
/// join has no protocol-level recovery path).
pub fn is_faultable(msg: &Message) -> bool {
    matches!(
        msg,
        Message::Node(NodeMsg::Discovery(_))
            | Message::ClientResponse(_)
            | Message::Peer(PeerMsg::InvalidateCached { .. })
    )
}

/// What the fault layer decided for one envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Deliver,
    Drop,
    Duplicate,
    Defer,
}

/// Owns the fault plan, its dedicated RNG, the deferred-envelope
/// buffer and the (healable) partition. One `Faults` lives in each
/// engine, so the same seeded draw stream spans the whole run.
#[derive(Debug)]
pub(crate) struct Faults {
    plan: FaultPlan,
    rng: StdRng,
    partition: Option<(Key, Key)>,
    deferred: VecDeque<Envelope>,
    /// Counters incremented by fault draws and by the engine's
    /// retry/exhaustion paths.
    pub stats: FaultStats,
}

impl Faults {
    /// Creates the fault state for `plan`, seeding the dedicated RNG.
    pub fn new(plan: FaultPlan) -> Self {
        Faults {
            rng: StdRng::seed_from_u64(plan.seed ^ 0xFA_07_FA_07),
            plan,
            partition: None,
            deferred: VecDeque::new(),
            stats: FaultStats::default(),
        }
    }

    /// Whether the fault layer can do anything at all. The engine
    /// consults the gate only while this holds, so the fault-off hot
    /// path is untouched.
    pub fn is_active(&self) -> bool {
        !self.plan.is_inert() || self.partition.is_some()
    }

    /// Severs the lexicographic key range `[lo, hi)`: faultable
    /// messages addressed to a peer or node whose key falls in the
    /// range are dropped until [`heal`](Self::heal). Client-addressed
    /// responses pass (the client is not on the overlay).
    pub fn sever(&mut self, lo: Key, hi: Key) {
        self.partition = Some((lo, hi));
    }

    /// Heals the partition; subsequent deliveries flow normally.
    pub fn heal(&mut self) {
        self.partition = None;
    }

    fn severed(&self, to: &Address) -> bool {
        let Some((lo, hi)) = &self.partition else {
            return false;
        };
        let key = match to {
            Address::Peer(id) => id,
            Address::Node(label) => label,
            Address::Client(_) => return false,
        };
        key >= lo && key < hi
    }

    fn verdict(&mut self, env: &Envelope) -> Verdict {
        if !is_faultable(&env.msg) {
            return Verdict::Deliver;
        }
        if self.severed(&env.to) {
            self.stats.partition_dropped += 1;
            return Verdict::Drop;
        }
        if self.plan.is_inert() {
            return Verdict::Deliver;
        }
        let draw: f64 = self.rng.gen();
        let mut threshold = self.plan.loss_rate;
        if draw < threshold {
            self.stats.lost += 1;
            return Verdict::Drop;
        }
        threshold += self.plan.dup_rate;
        if draw < threshold {
            self.stats.duplicated += 1;
            return Verdict::Duplicate;
        }
        threshold += self.plan.reorder_rate;
        if draw < threshold {
            self.stats.reordered += 1;
            return Verdict::Defer;
        }
        Verdict::Deliver
    }

    /// The gate: forwards `env` to `inner` according to its verdict.
    pub fn send<T: Transport>(&mut self, inner: &mut T, env: Envelope) {
        match self.verdict(&env) {
            Verdict::Deliver => inner.deliver(env),
            Verdict::Drop => {}
            Verdict::Duplicate => {
                inner.deliver(env.clone());
                inner.deliver(env);
            }
            Verdict::Defer => self.deferred.push_back(env),
        }
    }

    /// Releases every deferred envelope into `inner` (without a second
    /// fault draw: a deferred message is late, not lost twice — and
    /// redrawing could starve delivery forever, breaking the
    /// termination guarantee the retry loop relies on). Runtimes call
    /// this (through the engine) when their queue runs dry and loop
    /// while it returns `true`.
    pub fn flush_deferred<T: Transport>(&mut self, inner: &mut T) -> bool {
        if self.deferred.is_empty() {
            return false;
        }
        while let Some(env) = self.deferred.pop_front() {
            inner.deliver(env);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FifoTransport;
    use crate::messages::{DiscoveryMsg, DiscoveryOutcome, QueryKind, RoutePhase};

    fn discovery_env(label: &str) -> Envelope {
        Envelope {
            to: Address::node(label),
            msg: Message::Node(NodeMsg::Discovery(DiscoveryMsg {
                request_id: 7,
                query: QueryKind::Exact(Key::from(label)),
                phase: RoutePhase::Up,
                path: Vec::new(),
            })),
        }
    }

    fn response_env(id: u64) -> Envelope {
        Envelope {
            to: Address::Client(id),
            msg: Message::ClientResponse(DiscoveryOutcome {
                request_id: id,
                satisfied: true,
                dropped: false,
                results: vec![Key::from("DGEMM")],
                path: vec![Key::from("D")],
                pending_children: 0,
            }),
        }
    }

    /// A non-faultable mutation-class message.
    fn reliable_env() -> Envelope {
        Envelope {
            to: Address::node("DG"),
            msg: Message::Node(NodeMsg::DataInsertion {
                key: Key::from("DGEMM"),
            }),
        }
    }

    #[test]
    fn default_plan_is_inert_and_draws_no_randomness() {
        let mut faults = Faults::new(FaultPlan::default());
        let mut inner = FifoTransport::default();
        for i in 0..20 {
            faults.send(&mut inner, discovery_env("DG"));
            faults.send(&mut inner, response_env(i));
            faults.send(&mut inner, reliable_env());
        }
        assert_eq!(inner.queue.len(), 60);
        assert_eq!(faults.stats, FaultStats::default());
        assert!(!faults.is_active());
        // The RNG was never advanced: a fresh clone of the same seed
        // produces the identical next draw.
        let mut fresh = Faults::new(FaultPlan::default());
        assert_eq!(faults.rng.gen::<u64>(), fresh.rng.gen::<u64>());
    }

    #[test]
    fn certain_loss_drops_faultable_but_never_reliable_messages() {
        let plan = FaultPlan {
            loss_rate: 1.0,
            ..FaultPlan::default()
        };
        let mut faults = Faults::new(plan);
        let mut inner = FifoTransport::default();
        for _ in 0..10 {
            faults.send(&mut inner, discovery_env("DG"));
            faults.send(&mut inner, reliable_env());
        }
        assert_eq!(inner.queue.len(), 10, "mutations are modelled reliable");
        assert_eq!(faults.stats.lost, 10);
    }

    #[test]
    fn certain_duplication_delivers_twice() {
        let plan = FaultPlan {
            dup_rate: 1.0,
            ..FaultPlan::default()
        };
        let mut faults = Faults::new(plan);
        let mut inner = FifoTransport::default();
        faults.send(&mut inner, response_env(3));
        assert_eq!(inner.queue.len(), 2);
        assert_eq!(inner.queue[0], inner.queue[1]);
        assert_eq!(faults.stats.duplicated, 1);
    }

    #[test]
    fn deferral_holds_until_flush_then_delivers_without_redraw() {
        let plan = FaultPlan {
            reorder_rate: 1.0,
            ..FaultPlan::default()
        };
        let mut faults = Faults::new(plan);
        let mut inner = FifoTransport::default();
        faults.send(&mut inner, discovery_env("DG"));
        assert!(inner.queue.is_empty());
        assert_eq!(faults.stats.reordered, 1);
        assert!(faults.flush_deferred(&mut inner));
        assert_eq!(inner.queue.len(), 1, "flush bypasses the fault draw");
        assert!(!faults.flush_deferred(&mut inner));
    }

    #[test]
    fn partition_severs_a_key_range_and_heals() {
        let mut faults = Faults::new(FaultPlan::default());
        faults.sever(Key::from("D"), Key::from("E"));
        assert!(faults.is_active(), "a partition alone activates faults");
        let mut inner = FifoTransport::default();
        faults.send(&mut inner, discovery_env("DG")); // in [D, E): severed
        faults.send(&mut inner, discovery_env("SG")); // outside: delivered
        faults.send(&mut inner, response_env(1)); // client-addressed: always passes
        faults.send(&mut inner, reliable_env()); // reliable class: partition does not apply
        assert_eq!(inner.queue.len(), 3);
        assert_eq!(faults.stats.partition_dropped, 1);
        faults.heal();
        assert!(!faults.is_active());
        faults.send(&mut inner, discovery_env("DG"));
        assert_eq!(inner.queue.len(), 4);
    }

    #[test]
    fn same_seed_same_verdicts() {
        let plan = FaultPlan {
            loss_rate: 0.3,
            dup_rate: 0.2,
            reorder_rate: 0.1,
            seed: 99,
        };
        let run = || {
            let mut faults = Faults::new(plan);
            let mut inner = FifoTransport::default();
            for i in 0..200 {
                faults.send(&mut inner, response_env(i));
            }
            faults.flush_deferred(&mut inner);
            let stats = faults.stats;
            (inner.queue.len(), stats)
        };
        assert_eq!(run(), run());
        let (delivered, stats) = run();
        assert!(stats.lost > 0 && stats.duplicated > 0 && stats.reordered > 0);
        assert_eq!(
            delivered as u64,
            200 - stats.lost + stats.duplicated,
            "deferred messages are late, not lost"
        );
    }
}
