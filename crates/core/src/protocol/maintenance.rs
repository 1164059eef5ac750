//! Ring maintenance: graceful departure and its hand-off.
//!
//! The paper's evaluation churns peers ("a fixed fraction of peers
//! leaves the system") without spelling out the departure protocol; the
//! natural one under the successor mapping rule is implemented here: a
//! leaving peer `L` transfers every node it runs to its successor
//! (which is exactly where `host(n) = min {P : P >= n}` points once `L`
//! is gone) and splices itself out of the ring. A crash hands nothing
//! over: `Engine::crash_shard` heals the ring (and promotes follower
//! copies at `k > 1`), and every runtime's `repair_tree` re-attaches
//! the subtrees it orphaned through the insertion protocol
//! ([`crate::protocol::data_insertion`]).

use crate::key::Key;
use crate::messages::{Envelope, PeerMsg};
use crate::node::NodeState;
use crate::peer::PeerShard;
use crate::protocol::Effects;

/// Emits the departure messages for the peer owning `shard` and drains
/// its nodes. After this the runtime must drop the shard.
///
/// `ν_L` changes hands as one run, in label order: one drain of the
/// whole map (no per-node removal), and the successor stores it with
/// one [`NodeMap::extend`](crate::peer::NodeMap::extend).
///
/// * `<TakeOver, (pred_L, ν_L)>` → successor;
/// * `<UpdateSuccessor, succ_L>` → predecessor.
pub fn leave(shard: &mut PeerShard, fx: &mut Effects) {
    let id = shard.peer.id.clone();
    let succ = shard.peer.succ.clone();
    let pred = shard.peer.pred.clone();
    if succ == id {
        // Last peer of the system: nothing to hand over to.
        return;
    }
    let nodes = shard.nodes.drain_where(|_| true);
    for n in &nodes {
        fx.relocated.push((n.label.clone(), succ.clone()));
    }
    fx.send(Envelope::to_peer(
        succ.clone(),
        PeerMsg::TakeOver {
            pred: pred.clone(),
            nodes,
        },
    ));
    fx.send(Envelope::to_peer(pred, PeerMsg::UpdateSuccessor { succ }));
}

/// `<TakeOver, (pred, ν)>` on the successor of a leaving peer: `ν`
/// joins its shard as one run.
pub fn on_take_over(shard: &mut PeerShard, pred: Key, nodes: Vec<NodeState>, _fx: &mut Effects) {
    if pred == shard.peer.id {
        // The leaver was the only other peer: both links collapse to
        // ourselves.
        let me = shard.peer.id.clone();
        shard.peer.pred = me.clone();
        shard.peer.succ = me;
    } else {
        shard.peer.pred = pred;
    }
    shard.nodes.extend(nodes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{Address, Message};

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    #[test]
    fn leave_hands_nodes_to_successor() {
        let mut s = PeerShard::new(k("M"), 10);
        s.peer.pred = k("D");
        s.peer.succ = k("T");
        s.install(NodeState::new(k("E")));
        s.install(NodeState::new(k("K")));
        let mut fx = Effects::default();
        leave(&mut s, &mut fx);
        assert_eq!(s.node_count(), 0);
        assert_eq!(fx.relocated.len(), 2);
        assert!(fx.relocated.iter().all(|(_, host)| host == &k("T")));
        let take = fx
            .out
            .iter()
            .find(|e| e.to == Address::Peer(k("T")))
            .unwrap();
        match &take.msg {
            Message::Peer(PeerMsg::TakeOver { pred, nodes }) => {
                assert_eq!(pred, &k("D"));
                assert_eq!(nodes.len(), 2);
            }
            other => panic!("{other:?}"),
        }
        assert!(fx.out.iter().any(|e| e.to == Address::Peer(k("D"))
            && matches!(
                &e.msg,
                Message::Peer(PeerMsg::UpdateSuccessor { succ }) if succ == &k("T")
            )));
    }

    #[test]
    fn last_peer_leave_is_noop() {
        let mut s = PeerShard::new(k("M"), 10);
        s.install(NodeState::new(k("E")));
        let mut fx = Effects::default();
        leave(&mut s, &mut fx);
        assert!(fx.out.is_empty());
        assert_eq!(s.node_count(), 1, "nothing to hand over to");
    }

    #[test]
    fn take_over_installs_and_relinks() {
        let mut s = PeerShard::new(k("T"), 10);
        s.peer.pred = k("M");
        s.peer.succ = k("D");
        let mut fx = Effects::default();
        on_take_over(
            &mut s,
            k("D"),
            vec![NodeState::new(k("E")), NodeState::new(k("K"))],
            &mut fx,
        );
        assert_eq!(s.peer.pred, k("D"));
        assert_eq!(s.node_count(), 2);
    }

    #[test]
    fn take_over_collapses_two_peer_ring() {
        // Ring T ↔ M; M leaves; T becomes solitary.
        let mut s = PeerShard::new(k("T"), 10);
        s.peer.pred = k("M");
        s.peer.succ = k("M");
        let mut fx = Effects::default();
        on_take_over(&mut s, k("T"), vec![NodeState::new(k("E"))], &mut fx);
        assert_eq!(s.peer.pred, k("T"));
        assert_eq!(s.peer.succ, k("T"));
        assert_eq!(s.node_count(), 1);
    }
}
