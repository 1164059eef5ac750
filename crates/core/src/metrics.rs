//! Counters describing runtime behaviour of the overlay.
//!
//! These feed the experiment harness (`dlpt-sim`) and the benches; the
//! overlay itself never reads them back.

/// Message and maintenance counters of a [`crate::system::DlptSystem`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SystemStats {
    /// `PeerJoin` / `NewPredecessor` / `YourInformation` /
    /// `UpdateSuccessor` / `UpdatePredecessor` messages processed.
    pub join_messages: u64,
    /// Tree-link messages processed: `DataInsertion`, `Reattach`,
    /// `UpdateChild`, `DataRemoval`, `RemoveChild`, `SetFather`.
    pub insert_messages: u64,
    /// `SearchingHost` / `Host` messages processed.
    pub host_messages: u64,
    /// Discovery visits processed (accepted by capacity).
    pub discovery_messages: u64,
    /// Discovery visits ignored by exhausted peers.
    pub discovery_drops: u64,
    /// `TakeOver` and other departure messages processed.
    pub maintenance_messages: u64,
    /// Envelopes requeued because their destination was in flight.
    pub requeues: u64,
    /// Envelopes abandoned after exhausting the requeue budget.
    pub undeliverable: u64,
    /// Nodes migrated between peers by load balancing.
    pub balance_migrations: u64,
    /// Peer identifier changes performed by MLT boundary moves.
    pub peer_renames: u64,
    /// Tree nodes lost to peer crashes.
    pub nodes_lost: u64,
    /// Orphaned nodes re-attached by tree repair.
    pub nodes_reattached: u64,
}

impl SystemStats {
    /// Total protocol messages processed (excluding client responses).
    pub fn total_messages(&self) -> u64 {
        self.join_messages
            + self.insert_messages
            + self.host_messages
            + self.discovery_messages
            + self.maintenance_messages
    }

    /// Total visible work processed: every delivered protocol message
    /// **plus** the work spent on envelopes that went nowhere —
    /// capacity drops (`discovery_drops`), in-flight deferrals
    /// (`requeues`) and abandoned deliveries (`undeliverable`).
    ///
    /// [`SystemStats::total_messages`] deliberately counts only
    /// *delivered* messages (the paper's message-cost metric); under
    /// contention that understates what the overlay actually did — a
    /// dropped visit still consumed a peer's attention and a requeue
    /// still crossed the transport. Figure report lines use this total
    /// so contention is visible in the committed message costs.
    pub fn total_work(&self) -> u64 {
        self.total_messages() + self.discovery_drops + self.requeues + self.undeliverable
    }

    /// Resets every counter; the simulator calls this between phases
    /// when it wants per-phase message costs.
    pub fn reset(&mut self) {
        *self = SystemStats::default();
    }
}

/// Visits bucketed by tree depth (root = depth 0) — the paper-facing
/// evidence for the caching subsystem: the up/down route visits every
/// level above the target, so the upper tree dominates the histogram,
/// and routing shortcuts (`crate::cache`) flatten exactly that region.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepthHistogram {
    /// `counts[d]` = visits observed at depth `d`; grows on demand.
    pub counts: Vec<u64>,
}

impl DepthHistogram {
    /// Records one visit at `depth`.
    pub fn record(&mut self, depth: usize) {
        if self.counts.len() <= depth {
            self.counts.resize(depth + 1, 0);
        }
        self.counts[depth] += 1;
    }

    /// Accumulates another histogram into this one.
    pub fn merge(&mut self, other: &DepthHistogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (d, c) in other.counts.iter().enumerate() {
            self.counts[d] += c;
        }
    }

    /// Total visits recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Share of all visits landing at depths `< depth` (the
    /// "upper-tree" fraction), as a percentage. 0 when empty.
    pub fn share_above(&self, depth: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let upper: u64 = self.counts.iter().take(depth).sum();
        100.0 * upper as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_histogram_records_merges_and_shares() {
        let mut h = DepthHistogram::default();
        h.record(0);
        h.record(0);
        h.record(3);
        assert_eq!(h.counts, vec![2, 0, 0, 1]);
        assert_eq!(h.total(), 3);
        let mut other = DepthHistogram::default();
        other.record(1);
        other.record(5);
        h.merge(&other);
        assert_eq!(h.counts, vec![2, 1, 0, 1, 0, 1]);
        assert_eq!(h.total(), 5);
        assert!((h.share_above(2) - 60.0).abs() < 1e-9);
        assert_eq!(DepthHistogram::default().share_above(3), 0.0);
    }

    #[test]
    fn totals_and_reset() {
        let mut s = SystemStats {
            join_messages: 2,
            insert_messages: 3,
            host_messages: 4,
            discovery_messages: 5,
            maintenance_messages: 6,
            discovery_drops: 7,
            requeues: 8,
            undeliverable: 9,
            ..Default::default()
        };
        assert_eq!(s.total_messages(), 20);
        // total_work folds the non-delivery work back in.
        assert_eq!(s.total_work(), 20 + 7 + 8 + 9);
        s.reset();
        assert_eq!(s, SystemStats::default());
    }
}
