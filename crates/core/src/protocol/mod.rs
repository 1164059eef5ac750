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

/// Dispatches a message addressed to logical node `node_label`, which
/// must be hosted on `shard`.
///
/// # Panics
/// Panics if the node is not on the shard — runtimes must route
/// correctly (and requeue while a node is in flight between shards).
pub fn handle_node_msg(shard: &mut PeerShard, node_label: &Key, msg: NodeMsg, fx: &mut Effects) {
    debug_assert!(
        shard.nodes.contains_key(node_label),
        "node {node_label} not hosted on peer {}",
        shard.peer.id
    );
    match msg {
        NodeMsg::PeerJoin { joining, phase } => {
            peer_join::on_peer_join(shard, node_label, joining, phase, fx)
        }
        NodeMsg::DataInsertion { key } => {
            data_insertion::on_data_insertion(shard, node_label, key, false, fx)
        }
        NodeMsg::Reattach { label } => {
            data_insertion::on_data_insertion(shard, node_label, label, true, fx)
        }
        NodeMsg::SearchingHost { seed } => {
            data_insertion::on_searching_host(shard, node_label, seed, fx)
        }
        NodeMsg::UpdateChild { old, new } => {
            let node = shard
                .nodes
                .get_mut(node_label)
                .expect("checked by debug_assert");
            node.replace_child(&old, new);
        }
        NodeMsg::DataRemoval { key } => data_removal::on_data_removal(shard, node_label, key, fx),
        NodeMsg::RemoveChild { child } => {
            data_removal::on_remove_child(shard, node_label, child, fx)
        }
        NodeMsg::SetFather { father } => {
            let node = shard
                .nodes
                .get_mut(node_label)
                .expect("checked by debug_assert");
            node.set_father(father);
        }
        NodeMsg::Discovery(msg) => discovery::on_discovery(shard, node_label, msg, fx),
    }
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
