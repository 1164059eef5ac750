//! The fault gate and the recovery policy, once for every runtime.
//!
//! The engine owns the [`Faults`] of its runtime: everything it emits
//! passes [`Engine::send`], and the envelopes a runtime injects itself
//! (entry envelopes, retries) go through the same method when that
//! runtime models them as faultable. Recovery is a consequence of the
//! installed plan, not a setting: while a plan or a partition is
//! active every request keeps a snapshot of its entry envelope and
//! aggregation runs the per-response idempotency digest; while the plan
//! reorders, requests are judged at quiescence only.
//! [`Engine::retry_origin`] is the one retry policy — a drained
//! runtime asks it what to re-send and differs from its siblings only
//! in how that envelope goes back out.

use super::{Engine, Transport};
use crate::error::Result;
use crate::key::Key;
use crate::messages::Envelope;
use crate::obs::{EventKind, TraceEvent};
use crate::transport::{FaultPlan, FaultStats, Faults};

/// How many times one discovery request is re-issued after
/// fault-induced loss left a branch outstanding at quiescence. At
/// exhaustion the request fails explicitly (never hangs).
pub const REQUEST_RETRY_BUDGET: u32 = 4;

impl Engine {
    /// Installs a fault plan ([`crate::transport`]), resetting the
    /// fault RNG, counters and partition. The default plan is fully
    /// inert: the delivery path is byte-identical to an engine that
    /// never called this.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.reordering = plan.reorder_rate > 0.0;
        self.faults = Faults::new(plan);
        self.fault_recovery = self.faults.is_active();
    }

    /// Severs the lexicographic key range `[lo, hi)` for faultable
    /// traffic until [`Engine::heal_partition`].
    pub fn partition(&mut self, lo: Key, hi: Key) {
        self.faults.sever(lo, hi);
        self.fault_recovery = true;
    }

    /// Heals a partition installed by [`Engine::partition`].
    pub fn heal_partition(&mut self) {
        self.faults.heal();
        self.fault_recovery = self.faults.is_active();
    }

    /// Everything the fault layer did: the gate's draws, suppressed
    /// duplicates, retries and explicit failures.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats
    }

    /// Sends one envelope into `t` through the fault gate — the one
    /// place a plan or partition is consulted. With neither active this
    /// is `t.deliver(env)` behind a single branch.
    #[inline]
    pub fn send<T: Transport>(&mut self, t: &mut T, env: Envelope) {
        if self.fault_recovery {
            self.faults.send(t, env);
        } else {
            t.deliver(env);
        }
    }

    /// Whether work queued into `t` may run inline instead
    /// ([`Transport::synchronous`]): never behind an active gate, which
    /// must see every individual hop.
    #[inline]
    pub(super) fn inline<T: Transport>(&self, t: &T) -> bool {
        t.synchronous() && !self.fault_recovery
    }

    /// Releases the envelopes a reordering plan held back into `t`.
    /// Runtimes call this when their queue runs dry and keep draining
    /// while it returns `true`.
    pub fn flush_deferred<T: Transport>(&mut self, t: &mut T) -> bool {
        self.faults.flush_deferred(t)
    }

    /// The retry policy. Once its transport has drained, a runtime asks
    /// whether request `id` must go out again: while a branch is still
    /// outstanding (a response was lost — mid-flight the counter is
    /// legitimately positive, hence "drained") and
    /// [`REQUEST_RETRY_BUDGET`] is not spent, this re-arms the
    /// aggregation to exactly what [`Engine::begin_request`] installed —
    /// idempotency filter included, since a retry legitimately
    /// re-delivers responses the first attempt already applied — and
    /// hands back a clone of the entry envelope to re-send. `None`
    /// means judge the request now ([`Engine::finish_request`]); it is
    /// always `None` for requests admitted with no plan or partition
    /// active, which keep no snapshot.
    pub fn retry_origin(&mut self, id: u64) -> Option<Envelope> {
        let agg = self.gathers.get_mut(id)?;
        if agg.outstanding <= 0 || agg.attempts >= REQUEST_RETRY_BUDGET {
            return None;
        }
        let origin = agg.retry.clone()?;
        agg.rearm();
        agg.attempts += 1;
        let attempt = agg.attempts;
        self.faults.stats.retries += 1;
        if self.tracer.enabled() {
            self.tracer
                .emit(TraceEvent::new(EventKind::Retry, id, attempt, 0, 0));
        }
        Some(origin)
    }

    /// [`Engine::fail_undeliverable`] for a runtime that moves encoded
    /// frames: also counts the frame in `frames_exhausted`.
    pub fn fail_frame<T: Transport>(&mut self, t: &T, env: Envelope) -> Result<()> {
        self.faults.stats.frames_exhausted += 1;
        self.fail_undeliverable(t, env)
    }
}
