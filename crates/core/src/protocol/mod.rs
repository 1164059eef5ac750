//! The DLPT protocol: message handlers over peer shards.
//!
//! Every handler receives **exactly one** `&mut PeerShard` — the shard
//! of the peer that physically received the message — plus the message
//! payload, and communicates only by pushing [`Envelope`]s into
//! [`Effects`]. The signature makes reaching across the network a type
//! error, so the same handlers are valid under the synchronous pump
//! ([`crate::system::DlptSystem`]), the discrete-event simulator and
//! the threaded live runtime in `dlpt-net`.
//!
//! Slot in, link out: a node-message handler gets the slot of its node
//! in `shard.nodes`, which the runtime found while resolving the
//! destination, so it probes no hash; and it hands back the tree link
//! its lone forward followed, if any ([`dispatch_node_msg`]).
//!
//! | Paper | Module |
//! |---|---|
//! | Algorithm 1 (`PeerJoin`, on node `p`) | [`peer_join`] |
//! | Algorithm 2 (`NewPredecessor`, on peer `Q`) | [`peer_join`] |
//! | Algorithm 3 (`DataInsertion` / `SearchingHost`, on node `p`) | [`data_insertion`] |
//! | Crash repair: an orphan re-enters through Algorithm 3 (extension) | [`data_insertion`] |
//! | Section 2 discovery routing (exact / range / completion) | [`discovery`] |
//! | Graceful departure hand-off (not spelled out in the paper) | [`maintenance`] |
//! | k-replica placement + anti-entropy (extension, DESIGN.md) | [`repair`] |

pub mod data_insertion;
pub mod data_removal;
pub mod discovery;
pub mod maintenance;
pub mod peer_join;
pub mod repair;

use crate::key::Key;
use crate::messages::{Envelope, NodeMsg, PeerMsg};
use crate::node::Link;
use crate::peer::PeerShard;

/// Side effects of one handler invocation.
///
/// Besides outgoing messages, handlers report node relocations so the
/// runtime can keep its delivery directory consistent (in a deployment
/// the directory is implicit: links carry host addresses and relocations
/// piggyback on the hand-off messages themselves).
#[derive(Debug, Default)]
pub struct Effects {
    /// Messages to send.
    pub out: Vec<Envelope>,
    /// `(node label, new hosting peer)` — the node is now (or will,
    /// once its hand-off message arrives, be) hosted there.
    pub relocated: Vec<(Key, Key)>,
    /// Nodes that dissolved (removal protocol): the runtime must drop
    /// them from its delivery directory.
    pub removed: Vec<Key>,
}

impl Effects {
    /// Shorthand used by handlers.
    pub fn send(&mut self, envelope: Envelope) {
        self.out.push(envelope);
    }
}

/// Dispatches a message to the logical node in `slot` of
/// `shard.nodes` — the slot the runtime resolved its destination to.
///
/// Returns the tree link the handler's lone forward followed, if the
/// visit did nothing but forward over an existing link: the runtime
/// may then resolve the next hop by that link's memoised label id
/// instead of hashing the label. A handler reports a link only while
/// its node is still in `slot` and the visit did not edit that link —
/// never after a dissolve evicted the node or a splice rewrote the
/// father. The forwards that report one are insertion's and crash
/// repair's routing (cases 2–4 of Algorithm 3), removal's two,
/// the host search's descent and a join's climb and descent.
pub fn dispatch_node_msg(
    shard: &mut PeerShard,
    slot: u32,
    msg: NodeMsg,
    fx: &mut Effects,
) -> Option<Link> {
    match msg {
        NodeMsg::PeerJoin { joining, phase } => {
            peer_join::on_peer_join(shard, slot, joining, phase, fx)
        }
        NodeMsg::DataInsertion { key } => {
            data_insertion::on_data_insertion(shard, slot, key, false, fx)
        }
        NodeMsg::Reattach { label } => {
            data_insertion::on_data_insertion(shard, slot, label, true, fx)
        }
        NodeMsg::SearchingHost { seed } => data_insertion::on_searching_host(shard, slot, seed, fx),
        NodeMsg::DataRemoval { key } => data_removal::on_data_removal(shard, slot, key, fx),
        NodeMsg::RemoveChild { child } => {
            data_removal::on_remove_child(shard, slot, child, fx);
            None
        }
        NodeMsg::UpdateChild { old, new } => {
            shard.nodes.at_mut(slot).replace_child(&old, new);
            None
        }
        NodeMsg::SetFather { father } => {
            shard.nodes.at_mut(slot).set_father(father);
            None
        }
        NodeMsg::Discovery(msg) => {
            discovery::on_discovery_at(shard.nodes.at(slot), msg, fx);
            None
        }
    }
}

/// Dispatches a message addressed to logical node `node_label`, which
/// must be hosted on `shard`: one probe for its slot, then
/// [`dispatch_node_msg`].
///
/// # Panics
/// Panics if the node is not on the shard — runtimes must route
/// correctly (and requeue while a node is in flight between shards).
pub fn handle_node_msg(shard: &mut PeerShard, node_label: &Key, msg: NodeMsg, fx: &mut Effects) {
    // No hint: an out-of-range slot costs exactly the probe.
    let Some(slot) = shard.nodes.find(node_label, u32::MAX) else {
        panic!("node {node_label} not hosted on peer {}", shard.peer.id);
    };
    dispatch_node_msg(shard, slot, msg, fx);
}

/// Dispatches a message addressed to the peer owning `shard`.
pub fn handle_peer_msg(shard: &mut PeerShard, msg: PeerMsg, fx: &mut Effects) {
    match msg {
        PeerMsg::NewPredecessor { joining } => peer_join::on_new_predecessor(shard, joining, fx),
        PeerMsg::YourInformation { pred, succ, nodes } => {
            peer_join::on_your_information(shard, pred, succ, *nodes, fx)
        }
        PeerMsg::UpdateSuccessor { succ } => shard.peer.succ = succ,
        PeerMsg::UpdatePredecessor { pred } => shard.peer.pred = pred,
        PeerMsg::Host { seed } => data_insertion::on_host(shard, seed, fx),
        PeerMsg::TakeOver { pred, nodes } => maintenance::on_take_over(shard, pred, nodes, fx),
        PeerMsg::SyncReplicas { k } => repair::on_sync_replicas(shard, k, fx),
        PeerMsg::Replicate { primary, ttl, seed } => {
            repair::on_replicate(shard, primary, ttl, seed, fx)
        }
        PeerMsg::DropReplica { label } => repair::on_drop_replica(shard, &label),
    }
}
