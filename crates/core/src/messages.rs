//! Protocol messages.
//!
//! One variant per message of the paper's Algorithms 1–3 plus the
//! discovery traffic of Section 2. Every network interaction in the
//! overlay is an [`Envelope`] — an address plus a [`Message`] — so the
//! same handler code runs under the synchronous pump
//! ([`crate::system::DlptSystem`]), the discrete-event simulator and
//! the threaded live runtime (`dlpt-net`).

use crate::key::Key;
use crate::node::{key_set, NodeState};
use std::borrow::Cow;
use std::sync::Arc;

/// Where an envelope is delivered.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Address {
    /// A peer (physical machine), by peer identifier.
    Peer(Key),
    /// A logical tree node, by label; the runtime resolves the hosting
    /// peer through its directory (in a deployment the link tables
    /// carry the host address alongside the label).
    Node(Key),
    /// The client that issued a discovery request, by request id.
    Client(u64),
}

impl Address {
    /// Convenience constructor.
    pub fn node(label: impl Into<Key>) -> Self {
        Address::Node(label.into())
    }
    /// Convenience constructor.
    pub fn peer(id: impl Into<Key>) -> Self {
        Address::Peer(id.into())
    }
}

/// A message in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Destination.
    pub to: Address,
    /// Payload.
    pub msg: Message,
}

// Every queued hop moves one of these by value, several times (effect
// buffer → transport queue → dispatch); a chained exact hop builds none
// (`Engine::deliver` rewrites the message in place). Up to 128 bytes
// x86-64 copies it inline; past that each move is a `memcpy` call. The
// pump's queue entry — a `u32` requeue count beside the envelope — must
// fit too, so the envelope itself stays at 120. Cold, fat payloads
// therefore travel boxed (node seeds, join hand-offs) or shared (range
// bounds), and a variant that widens the envelope past this ceiling has
// to be boxed too.
const _: () = assert!(std::mem::size_of::<Envelope>() <= 128);
const _: () = assert!(std::mem::size_of::<(u32, Envelope)>() <= 128);

impl Envelope {
    /// Reassembles an envelope from its parts (used by runtimes that
    /// destructure for zero-clone dispatch and must requeue).
    pub fn to_address(to: Address, msg: Message) -> Self {
        Envelope { to, msg }
    }

    /// Builds an envelope to a node.
    pub fn to_node(label: Key, msg: NodeMsg) -> Self {
        Envelope {
            to: Address::Node(label),
            msg: Message::Node(msg),
        }
    }
    /// Builds an envelope to a peer.
    pub fn to_peer(id: Key, msg: PeerMsg) -> Self {
        Envelope {
            to: Address::Peer(id),
            msg: Message::Peer(msg),
        }
    }
    /// Builds an envelope back to a client.
    pub fn to_client(request_id: u64, outcome: DiscoveryOutcome) -> Self {
        Envelope {
            to: Address::Client(request_id),
            msg: Message::ClientResponse(outcome),
        }
    }
}

/// Payload of an [`Envelope`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Handled by the logical node the envelope addresses.
    Node(NodeMsg),
    /// Handled by the peer the envelope addresses.
    Peer(PeerMsg),
    /// Terminal delivery of a discovery outcome.
    ClientResponse(DiscoveryOutcome),
}

/// The two routing phases of Algorithm 1 (the `s` flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinPhase {
    /// `s = 0`: climbing toward a node prefixing the joining peer
    /// (or the root).
    Up,
    /// `s = 1`: descending toward the highest node `<=` the joining
    /// peer.
    Down,
}

/// The state a freshly created node travels with — the
/// `(l, f, C, δ)` tuple of `SearchingHost` / `Host`
/// (Algorithm 3, lines 3.32–3.37).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSeed {
    /// Label of the node being created.
    pub label: Key,
    /// Father link (`None` when the node becomes the root).
    pub father: Option<Key>,
    /// Initial children.
    pub children: Vec<Key>,
    /// Initial data set `δ`.
    pub data: Vec<Key>,
}

impl NodeSeed {
    /// Snapshots a live node's state (label, links and data — load
    /// counters are per-host and do not travel).
    pub fn of(node: &NodeState) -> Self {
        NodeSeed {
            label: node.label.clone(),
            father: node.father().cloned(),
            children: node.children().to_vec(),
            data: node.data.clone(),
        }
    }

    /// True iff `node` already has exactly this seed's label, links
    /// and data (load counters aside — they do not travel).
    pub fn describes(&self, node: &NodeState) -> bool {
        self.label == node.label
            && self.father.as_ref() == node.father()
            && self.children == node.children()
            && self.data == node.data
    }

    /// Materializes the node state this seed describes (children and
    /// data become sets, whatever order the seed lists them in).
    pub fn into_state(self) -> NodeState {
        let mut n = NodeState::new(self.label);
        n.set_father(self.father);
        n.set_children(self.children);
        n.data = key_set(self.data);
        n
    }
}

/// The kinds of service-discovery queries the DLPT supports
/// (Section 2: exact search, range queries, automatic completion).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryKind {
    /// Exact lookup of one key.
    Exact(Key),
    /// All keys in the inclusive interval `[lo, hi]`. Shared, so the
    /// query stays two words wide and a gather's per-branch clone does
    /// not allocate; build it with [`QueryKind::range`].
    Range(Arc<(Key, Key)>),
    /// All keys extending a partial search string.
    Complete(Key),
}

impl QueryKind {
    /// The range query over the inclusive interval `[lo, hi]`.
    pub fn range(lo: Key, hi: Key) -> Self {
        QueryKind::Range(Arc::new((lo, hi)))
    }

    /// The routing target: the label region the query must reach.
    /// Exact → the key; range → the GCP of the bounds; completion →
    /// the prefix itself. Borrowed from the query wherever it is one
    /// of its keys — every hop asks, so only a range builds one.
    pub fn target(&self) -> Cow<'_, Key> {
        match self {
            QueryKind::Exact(k) | QueryKind::Complete(k) => Cow::Borrowed(k),
            QueryKind::Range(r) => Cow::Owned(r.0.gcp(&r.1)),
        }
    }

    /// Whether a registered key satisfies the query.
    pub fn matches(&self, key: &Key) -> bool {
        match self {
            QueryKind::Exact(k) => key == k,
            QueryKind::Range(r) => key >= &r.0 && key <= &r.1,
            QueryKind::Complete(p) => p.is_prefix_of(key),
        }
    }
}

/// Routing phase of a discovery request (Section 2: "moves upward
/// until reaching a node whose subtree contains the requested node and
/// then moves \[down\] to this node").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePhase {
    /// Climbing toward a node covering the target.
    Up,
    /// Descending toward the target's node.
    Down,
    /// Scatter phase over a subtree (range / completion only).
    Gather,
}

/// A discovery request in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoveryMsg {
    /// Correlates the request with its client.
    pub request_id: u64,
    /// What is being searched.
    pub query: QueryKind,
    /// Current routing phase.
    pub phase: RoutePhase,
    /// Labels of the nodes visited so far, entry node first. Used for
    /// hop accounting (Figure 9) — a deployment would carry a counter.
    pub path: Vec<Key>,
}

/// Messages handled by logical tree nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeMsg {
    /// Algorithm 1: `<PeerJoin, P, s>`.
    PeerJoin {
        /// Identifier of the joining peer.
        joining: Key,
        /// Routing phase (`s`).
        phase: JoinPhase,
    },
    /// Algorithm 3: `<DataInsertion, k>`.
    DataInsertion {
        /// Key being registered.
        key: Key,
    },
    /// Algorithm 3 lines 3.32–3.35: `<SearchingHost, (l, f, C, δ)>` —
    /// descends to the highest node `<=` the new label.
    SearchingHost {
        /// The new node's state in flight (boxed: see the envelope
        /// size ceiling).
        seed: Box<NodeSeed>,
    },
    /// `<UpdateChild, (old, new)>`: replace `old` by `new` in the
    /// recipient's child set.
    UpdateChild {
        /// Child label to replace.
        old: Key,
        /// Replacement label.
        new: Key,
    },
    /// Deregistration (extension over the paper, which never deletes):
    /// routed like `DataInsertion`; the owning node drops the datum
    /// and dissolves itself if it became redundant.
    DataRemoval {
        /// Key being deregistered.
        key: Key,
    },
    /// Remove `child` from the recipient's child set (a child
    /// dissolved itself). The recipient dissolves too if it is left
    /// structural with fewer than two children.
    RemoveChild {
        /// Child label to drop.
        child: Key,
    },
    /// Overwrite the recipient's father link (its old father dissolved
    /// and this lifts it one level).
    SetFather {
        /// New father (`None` makes the recipient the root).
        father: Option<Key>,
    },
    /// Crash repair (extension): `label` is a live node whose father
    /// died. Routed exactly like `DataInsertion` of `label`; where that
    /// would create the node, the existing one is linked in instead
    /// (see `protocol::data_insertion`).
    Reattach {
        /// The node to link back into the tree, subtree and all.
        label: Key,
    },
    /// A discovery request visiting this node.
    Discovery(DiscoveryMsg),
}

/// Messages handled by peers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerMsg {
    /// Algorithm 2: `<NewPredecessor, P>` — a joining peer P has been
    /// routed to this region of the ring.
    NewPredecessor {
        /// Identifier of the joining peer.
        joining: Key,
    },
    /// `<YourInformation, (pred, succ, ν)>` — the joining peer's
    /// bootstrap state (Algorithm 2 line 2.08).
    YourInformation {
        /// The new peer's predecessor.
        pred: Key,
        /// The new peer's successor.
        succ: Key,
        /// The nodes handed over (`ν_P = {n ∈ ν_Q : n <= P}`; boxed,
        /// as in [`NodeMsg::SearchingHost`]).
        nodes: Box<Vec<NodeState>>,
    },
    /// `<UpdateSuccessor, P>` — the recipient's successor is now `P`
    /// (Algorithm 2 line 2.09).
    UpdateSuccessor {
        /// New successor id.
        succ: Key,
    },
    /// Counterpart used by graceful departure: the recipient's
    /// predecessor is now `P`.
    UpdatePredecessor {
        /// New predecessor id.
        pred: Key,
    },
    /// `<Host, (l, f, C, δ)>` (Algorithm 3 line 3.37) — install the
    /// node on this peer. The handler re-forwards along the ring if the
    /// label falls outside the peer's arc, which closes the gap the
    /// paper leaves open between the host-search endpoint and the
    /// mapping rule.
    Host {
        /// The new node's state in flight (boxed, as in
        /// [`NodeMsg::SearchingHost`]).
        seed: Box<NodeSeed>,
    },
    /// Graceful departure hand-off: the leaving predecessor transfers
    /// its nodes and its predecessor link to the recipient.
    TakeOver {
        /// The leaving peer's predecessor becomes the recipient's.
        pred: Key,
        /// Nodes handed over.
        nodes: Vec<NodeState>,
    },
    /// Anti-entropy kick (replication extension, see
    /// `protocol::repair`): the recipient re-clones every node it runs
    /// onto its `k - 1` ring successors by emitting [`PeerMsg::Replicate`]
    /// walks.
    SyncReplicas {
        /// Replication factor the overlay is converging to (primary
        /// plus `k - 1` followers).
        k: u32,
    },
    /// Store (or refresh) a follower copy of a node, then forward the
    /// walk to the recipient's own successor while `ttl > 1`. The walk
    /// stops early when it wraps around to the primary (rings smaller
    /// than `k`).
    Replicate {
        /// The peer hosting the authoritative copy.
        primary: Key,
        /// Remaining follower copies to place (this one included).
        ttl: u32,
        /// Snapshot of the node being replicated (boxed, as in
        /// [`NodeMsg::SearchingHost`]).
        seed: Box<NodeSeed>,
    },
    /// Discard the follower copy of `label` (the node dissolved, or the
    /// replica set moved elsewhere on the ring).
    DropReplica {
        /// Label of the replica copy to drop.
        label: Key,
    },
}

/// Terminal result of a discovery request, or one partial report of a
/// scatter/gather traversal (range and completion queries fan out over
/// a subtree; every visited node reports its matches and how many
/// children it forwarded to, and the client aggregates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoveryOutcome {
    /// Correlates with the issuing client.
    pub request_id: u64,
    /// True iff the request reached the node owning the target
    /// ("satisfied" in the paper's sense) and, for exact queries,
    /// found the key registered.
    pub satisfied: bool,
    /// True iff an exhausted peer ignored the request.
    pub dropped: bool,
    /// Matching keys (exact: zero or one; range/completion: many).
    pub results: Vec<Key>,
    /// Labels of the nodes visited, entry first.
    pub path: Vec<Key>,
    /// For gather partials: number of children this report's node
    /// forwarded the query to (the aggregator keeps a completion
    /// counter). Zero for terminal outcomes.
    pub pending_children: u32,
}

impl DiscoveryOutcome {
    /// Number of tree edges traversed.
    pub fn logical_hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    #[test]
    fn query_targets() {
        assert_eq!(*QueryKind::Exact(k("DGEMM")).target(), k("DGEMM"));
        assert_eq!(
            *QueryKind::range(k("DGEMM"), k("DGEMV")).target(),
            k("DGEM")
        );
        assert_eq!(*QueryKind::Complete(k("S3L")).target(), k("S3L"));
    }

    #[test]
    fn query_matching() {
        let range = QueryKind::range(k("B"), k("D"));
        assert!(range.matches(&k("B")));
        assert!(range.matches(&k("CC")));
        assert!(range.matches(&k("D")));
        assert!(!range.matches(&k("DD")));
        assert!(!range.matches(&k("A")));

        let comp = QueryKind::Complete(k("S3L"));
        assert!(comp.matches(&k("S3L_mat_mult")));
        assert!(comp.matches(&k("S3L")));
        assert!(!comp.matches(&k("SGEMM")));
    }

    #[test]
    fn seed_materializes_state() {
        let seed = NodeSeed {
            label: k("101"),
            father: Some(Key::epsilon()),
            children: vec![k("10101"), k("10111")],
            data: vec![k("101")],
        };
        let n = seed.into_state();
        assert_eq!(n.label, k("101"));
        assert_eq!(n.father(), Some(&Key::epsilon()));
        assert_eq!(n.children().len(), 2);
        assert!(n.data.contains(&k("101")));
    }

    #[test]
    fn outcome_hop_count() {
        let o = DiscoveryOutcome {
            request_id: 1,
            satisfied: true,
            dropped: false,
            results: vec![],
            path: vec![k("a"), k("ab"), k("abc")],
            pending_children: 0,
        };
        assert_eq!(o.logical_hops(), 2);
    }

    #[test]
    fn seed_children_become_a_set() {
        let seed = NodeSeed {
            label: k("1"),
            father: None,
            children: vec![k("11"), k("10"), k("11")],
            data: vec![],
        };
        assert_eq!(seed.into_state().children(), [k("10"), k("11")]);
    }

    #[test]
    fn envelope_constructors() {
        let e = Envelope::to_node(k("n"), NodeMsg::DataInsertion { key: k("x") });
        assert_eq!(e.to, Address::Node(k("n")));
        let e = Envelope::to_peer(k("p"), PeerMsg::UpdateSuccessor { succ: k("s") });
        assert_eq!(e.to, Address::Peer(k("p")));
    }
}
