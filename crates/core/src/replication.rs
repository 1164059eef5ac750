//! Replication subsystem: counters, reports and the replication
//! invariant.
//!
//! The mechanism itself is split across the layers it touches —
//! placement and message handlers in [`crate::protocol::repair`],
//! follower bookkeeping in [`crate::directory::Directory`], follower
//! copies in [`crate::peer::PeerShard::replicas`], and the runtime
//! loops (eager sync, failover, anti-entropy) in
//! [`crate::system::DlptSystem`]. This module holds the shared
//! vocabulary: the counters the experiment harness reads and the
//! report types the anti-entropy pass returns.
//!
//! Replication counters live here — deliberately *not* in
//! [`crate::metrics::SystemStats`] — so an unreplicated overlay
//! (`k = 1`, the default) stays byte-identical to the pre-replication
//! system, golden determinism fingerprint included.

/// Counters of the replication subsystem. All remain zero at `k = 1`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Replication protocol messages processed (`SyncReplicas`,
    /// `Replicate`, `DropReplica`).
    pub replication_messages: u64,
    /// Labels re-cloned by the eager post-mutation sync.
    pub eager_syncs: u64,
    /// Anti-entropy passes run.
    pub anti_entropy_passes: u64,
    /// Follower copies promoted to primary after a crash.
    pub promotions: u64,
    /// Discovery visits served from a follower copy because the
    /// primary's capacity was exhausted.
    pub failover_reads: u64,
    /// Nodes that crashed with no surviving replica (truly lost).
    pub unrecoverable_nodes: u64,
}

/// What one anti-entropy pass found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AntiEntropyReport {
    /// Labels whose live follower count was below `min(k - 1, |P| - 1)`
    /// when the pass started (the under-replication the pass heals).
    pub under_replicated: usize,
    /// Replication envelopes the pass put on the wire.
    pub messages_sent: usize,
    /// Stale follower copies garbage-collected (dissolved nodes,
    /// displaced replica sets).
    pub replicas_dropped: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_default_to_zero() {
        let s = ReplicationStats::default();
        assert_eq!(s.replication_messages, 0);
        assert_eq!(s.promotions, 0);
        assert_eq!(s, ReplicationStats::default());
        let r = AntiEntropyReport::default();
        assert_eq!(r.under_replicated, 0);
    }
}
