//! State of one peer and the shard of tree nodes it runs.
//!
//! Section 2 (System Model): peers have distinct identifiers, exchange
//! messages, and each runs one or more logical nodes (`ν_P`). Section 3
//! arranges the peers in a bidirectional ring ordered by identifier:
//! every peer knows its immediate predecessor and successor.
//!
//! [`PeerShard`] bundles a peer's control state with the node states it
//! hosts. Protocol handlers receive exactly one `&mut PeerShard` —
//! the type system thus guarantees a handler never reaches across the
//! network, although one engine hosts every shard in every runtime.

use crate::key::Key;
use crate::node::NodeState;
use std::collections::BTreeMap;

/// Control state of one peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerState {
    /// The peer's identifier in the space `I`.
    pub id: Key,
    /// Immediate predecessor on the ring (self when alone).
    pub pred: Key,
    /// Immediate successor on the ring (self when alone).
    pub succ: Key,
    /// Capacity `C`: requests this peer can process per time unit
    /// (Section 4: fixed over time; max/min ratio 4 across the
    /// platform).
    pub capacity: u32,
    /// Requests accepted during the current time unit.
    pub used: u32,
    /// Requests ignored during the current time unit because capacity
    /// was exhausted.
    pub dropped_this_unit: u64,
}

impl PeerState {
    /// A solitary peer: its own predecessor and successor.
    pub fn solitary(id: Key, capacity: u32) -> Self {
        PeerState {
            pred: id.clone(),
            succ: id.clone(),
            id,
            capacity,
            used: 0,
            dropped_this_unit: 0,
        }
    }

    /// True iff the peer can accept one more request this unit.
    pub fn has_capacity(&self) -> bool {
        self.used < self.capacity
    }

    /// Accounts one accepted request. Returns false (and counts a
    /// drop) when the capacity is exhausted — the request must then be
    /// ignored, per Section 4.
    pub fn try_accept(&mut self) -> bool {
        if self.used < self.capacity {
            self.used += 1;
            true
        } else {
            self.dropped_this_unit += 1;
            false
        }
    }

    /// Closes the current time unit.
    pub fn roll_unit(&mut self) {
        self.used = 0;
        self.dropped_this_unit = 0;
    }
}

/// A peer plus the logical nodes it currently runs (`ν_P`).
#[derive(Debug, Clone)]
pub struct PeerShard {
    /// Control state.
    pub peer: PeerState,
    /// Hosted nodes, keyed (and ordered) by label. Ring-segment
    /// reasoning (load balancing, hand-offs) relies on this ordering.
    pub nodes: BTreeMap<Key, NodeState>,
    /// Follower copies of nodes whose primary is another peer
    /// (replication extension, `protocol::repair`). Kept apart from
    /// `nodes` so every single-copy invariant — mapping, tree links,
    /// registered-key enumeration — is untouched by replication.
    ///
    /// Routing-shortcut caches are *not* shard state: the engine owns
    /// them per peer (`crate::engine`) and consults them when it admits
    /// a request, so no protocol handler ever sees a cache.
    pub replicas: BTreeMap<Key, NodeState>,
}

impl PeerShard {
    /// A fresh shard for a solitary peer.
    pub fn new(id: Key, capacity: u32) -> Self {
        PeerShard {
            peer: PeerState::solitary(id, capacity),
            nodes: BTreeMap::new(),
            replicas: BTreeMap::new(),
        }
    }

    /// Installs a node on this shard.
    pub fn install(&mut self, node: NodeState) {
        self.nodes.insert(node.label.clone(), node);
    }

    /// Removes and returns a node.
    pub fn evict(&mut self, label: &Key) -> Option<NodeState> {
        self.nodes.remove(label)
    }

    /// The load `L` of the peer over the last completed unit:
    /// `Σ prev_load` over hosted nodes (Section 3.3).
    pub fn last_unit_load(&self) -> u64 {
        self.nodes.values().map(|n| n.prev_load).sum()
    }

    /// Number of hosted nodes `|ν_P|`.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of follower copies this peer keeps for other primaries.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    #[test]
    fn solitary_peer_loops_to_itself() {
        let p = PeerState::solitary(k("M"), 10);
        assert_eq!(p.pred, k("M"));
        assert_eq!(p.succ, k("M"));
    }

    #[test]
    fn capacity_accounting() {
        let mut p = PeerState::solitary(k("M"), 2);
        assert!(p.try_accept());
        assert!(p.try_accept());
        assert!(!p.try_accept());
        assert!(!p.has_capacity());
        assert_eq!(p.used, 2);
        assert_eq!(p.dropped_this_unit, 1);
        p.roll_unit();
        assert_eq!(p.used, 0);
        assert_eq!(p.dropped_this_unit, 0);
        assert!(p.has_capacity());
    }

    #[test]
    fn shard_install_evict_and_load() {
        let mut s = PeerShard::new(k("M"), 10);
        let mut n1 = NodeState::new(k("A"));
        n1.prev_load = 5;
        let mut n2 = NodeState::new(k("B"));
        n2.prev_load = 7;
        s.install(n1);
        s.install(n2);
        assert_eq!(s.node_count(), 2);
        assert_eq!(s.last_unit_load(), 12);
        let got = s.evict(&k("A")).unwrap();
        assert_eq!(got.label, k("A"));
        assert_eq!(s.node_count(), 1);
        assert!(s.evict(&k("A")).is_none());
    }

    #[test]
    fn shard_nodes_are_ordered_by_label() {
        let mut s = PeerShard::new(k("Z"), 1);
        for l in ["C", "A", "B"] {
            s.install(NodeState::new(k(l)));
        }
        let labels: Vec<&Key> = s.nodes.keys().collect();
        assert_eq!(labels, vec![&k("A"), &k("B"), &k("C")]);
    }
}
