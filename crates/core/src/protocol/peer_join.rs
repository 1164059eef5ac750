//! Peer insertion — Algorithms 1 and 2 of the paper.
//!
//! A joining peer `P` sends `<PeerJoin, P, 0>` to a random node. The
//! request climbs the tree (phase 0) until it reaches a node covering
//! `P`'s region (or the root), then descends (phase 1) to the node `t`
//! with the highest identifier `<= P`, which delegates to the peer
//! layer (`<NewPredecessor, P>` to its host, Algorithm 1 line 1.16).
//! The peer layer walks the ring until the peer `Q` whose arc
//! `(pred_Q, Q]` contains `P` is found; `Q` then hands over
//! `ν_P = {n ∈ ν_Q : n <= P}` and splices `P` between `pred_Q` and
//! itself (Algorithm 2).
//!
//! ## Two deliberate deviations from the pseudo-code
//!
//! * Line 1.04 tests `P ∉ Prefixes(p)`; the accompanying prose says the
//!   climb stops at "a node that is either a prefix of `P` or the
//!   root". We implement the prose (`p` prefixes `P`), which is the
//!   variant under which the descent argument of Section 3.1 holds.
//! * Line 2.03 forwards while `Q < P`, which livelocks when `P` is
//!   greater than every peer (the wrap case the mapping rule handles
//!   with `P_min`). We use the circular-interval test
//!   `P ∈ (pred_Q, Q]`, which coincides with the paper's test in the
//!   linear case and terminates in the wrap case.

use crate::key::{in_ring_interval, Key};
use crate::messages::{Envelope, JoinPhase, NodeMsg, PeerMsg};
use crate::node::{Link, NodeState};
use crate::peer::PeerShard;
use crate::protocol::Effects;

/// Algorithm 1: `<PeerJoin, P, s>` on node `p`, in `slot`. Returns the
/// link the climb or descent followed.
pub fn on_peer_join(
    shard: &mut PeerShard,
    slot: u32,
    joining: Key,
    phase: JoinPhase,
    fx: &mut Effects,
) -> Option<Link> {
    // Phase transitions are processed in place rather than by a
    // self-send (the paper's `send(<PeerJoin, P, 1>, p)` to itself) so
    // one visit costs one message in the accounting.
    let node = shard.nodes.at(slot);
    if phase == JoinPhase::Up {
        // Lines 1.03–1.10: climb until this node covers P's region or
        // is the root, then switch to the descent.
        if let Some(f) = node.father().filter(|_| !node.label.is_prefix_of(&joining)) {
            let up = NodeMsg::PeerJoin {
                joining,
                phase: JoinPhase::Up,
            };
            fx.send(Envelope::to_node(f.clone(), up));
            return Some(Link::Father);
        }
    }
    // Lines 1.11–1.16: move to `Max({q ∈ C_p : q <= P})`, or hand over
    // to the peer layer when no child qualifies (this node is then the
    // highest tree node `<= P` reachable in its subtree).
    let Some(i) = node.max_child_le_at(&joining) else {
        fx.send(Envelope::to_peer(
            shard.peer.id.clone(),
            PeerMsg::NewPredecessor { joining },
        ));
        return None;
    };
    let down = NodeMsg::PeerJoin {
        joining,
        phase: JoinPhase::Down,
    };
    fx.send(Envelope::to_node(node.children()[i].clone(), down));
    Some(Link::Child(i as u32))
}

/// Algorithm 2: `<NewPredecessor, P>` on peer `Q`. The split hands
/// `ν_P` over as one run: a single
/// [`NodeMap::drain_where`](crate::peer::NodeMap::drain_where) over
/// `Q`'s label order selects the arc, and `P` stores it with one
/// [`NodeMap::extend`](crate::peer::NodeMap::extend)
/// ([`on_your_information`]).
pub fn on_new_predecessor(shard: &mut PeerShard, joining: Key, fx: &mut Effects) {
    let q_id = shard.peer.id.clone();
    if joining == q_id {
        return; // duplicate identifier; the system layer rejects these
    }
    let pred = shard.peer.pred.clone();
    if !in_ring_interval(&joining, &pred, &q_id) {
        // Line 2.03–2.04 generalized: P is not in our arc; keep walking.
        fx.send(Envelope::to_peer(
            shard.peer.succ.clone(),
            PeerMsg::NewPredecessor { joining },
        ));
        return;
    }
    // Lines 2.05–2.10: P becomes our predecessor. Hand over every node
    // in the arc (pred_Q, P] — exactly `ν_P = {n ∈ ν_Q : n <= P}` of
    // line 2.06, phrased circularly — as one run, in label order.
    let handed = shard
        .nodes
        .drain_where(|n| in_ring_interval(n, &pred, &joining));
    for n in &handed {
        fx.relocated.push((n.label.clone(), joining.clone()));
    }
    // When we were alone, pred == q_id and both of P's links point at
    // us — the same expression covers both cases.
    fx.send(Envelope::to_peer(
        joining.clone(),
        PeerMsg::YourInformation {
            pred: pred.clone(),
            succ: q_id.clone(),
            nodes: Box::new(handed),
        },
    ));
    // Line 2.09: tell pred_Q its successor changed. When we are alone
    // the message loops back to ourselves and sets succ = P.
    fx.send(Envelope::to_peer(
        pred,
        PeerMsg::UpdateSuccessor {
            succ: joining.clone(),
        },
    ));
    shard.peer.pred = joining; // line 2.10
}

/// `<YourInformation, (pred, succ, ν)>` on the joining peer: `ν`
/// joins its (empty) shard as one run.
pub fn on_your_information(
    shard: &mut PeerShard,
    pred: Key,
    succ: Key,
    nodes: Vec<NodeState>,
    _fx: &mut Effects,
) {
    shard.peer.pred = pred;
    shard.peer.succ = succ;
    shard.nodes.extend(nodes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::Address;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    fn shard_with_nodes(peer: &str, labels: &[&str]) -> PeerShard {
        let mut s = PeerShard::new(k(peer), 100);
        for l in labels {
            s.install(NodeState::new(k(l)));
        }
        s
    }

    /// Delivers `<PeerJoin, joining, phase>` to node `at` of `s`.
    fn join(
        s: &mut PeerShard,
        at: &str,
        joining: &str,
        phase: JoinPhase,
    ) -> (Effects, Option<Link>) {
        let mut fx = Effects::default();
        let slot = s.nodes.find(&k(at), u32::MAX).expect("hosted");
        let link = on_peer_join(s, slot, k(joining), phase, &mut fx);
        (fx, link)
    }

    #[test]
    fn up_phase_climbs_to_father() {
        let mut s = shard_with_nodes("Z", &["1010"]);
        s.nodes
            .get_mut(&k("1010"))
            .unwrap()
            .set_father(Some(k("10")));
        let (fx, link) = join(&mut s, "1010", "0XYZ", JoinPhase::Up);
        assert_eq!(link, Some(Link::Father));
        assert_eq!(fx.out.len(), 1);
        assert_eq!(fx.out[0].to, Address::Node(k("10")));
    }

    #[test]
    fn up_phase_switches_to_descent_when_covering() {
        // Node "0" prefixes the joining id "0XYZ": descend from here.
        let mut s = shard_with_nodes("Z", &["0"]);
        {
            let n = s.nodes.get_mut(&k("0")).unwrap();
            n.set_father(Some(Key::epsilon()));
            n.add_child(k("00"));
            n.add_child(k("0X"));
        }
        let (fx, link) = join(&mut s, "0", "0XYZ", JoinPhase::Up);
        assert_eq!(link, Some(Link::Child(1)));
        assert_eq!(fx.out.len(), 1);
        // Max child <= "0XYZ" is "0X".
        assert_eq!(fx.out[0].to, Address::Node(k("0X")));
    }

    #[test]
    fn descent_hands_over_to_peer_layer_at_bottom() {
        let mut s = shard_with_nodes("Z", &["0X"]);
        s.nodes.get_mut(&k("0X")).unwrap().set_father(Some(k("0")));
        let (fx, link) = join(&mut s, "0X", "0XYZ", JoinPhase::Down);
        assert_eq!(link, None);
        assert_eq!(fx.out.len(), 1);
        assert_eq!(fx.out[0].to, Address::Peer(k("Z")));
        assert!(matches!(
            fx.out[0].msg,
            crate::messages::Message::Peer(PeerMsg::NewPredecessor { .. })
        ));
    }

    #[test]
    fn root_switches_phase_even_without_prefix() {
        let mut s = shard_with_nodes("Z", &["1"]);
        // Root "1" does not prefix "0XYZ" but has no father.
        let (fx, link) = join(&mut s, "1", "0XYZ", JoinPhase::Up);
        assert_eq!(link, None);
        // No child <= joining → peer layer.
        assert_eq!(fx.out[0].to, Address::Peer(k("Z")));
    }

    #[test]
    fn new_predecessor_splits_nodes_at_joining_id() {
        // Ring: D → M → T (→ D). M hosts nodes E, G, K, M.
        let mut s = shard_with_nodes("M", &["E", "G", "K", "M"]);
        s.peer.pred = k("D");
        s.peer.succ = k("T");
        let mut fx = Effects::default();
        on_new_predecessor(&mut s, k("H"), &mut fx);
        // H takes (D, H] = {E, G}; M keeps {K, M}.
        assert_eq!(s.peer.pred, k("H"));
        assert_eq!(s.node_count(), 2);
        assert!(s.nodes.contains_key(&k("K")));
        let your_info = fx
            .out
            .iter()
            .find_map(|e| match (&e.to, &e.msg) {
                (
                    Address::Peer(p),
                    crate::messages::Message::Peer(PeerMsg::YourInformation { pred, succ, nodes }),
                ) if p == &k("H") => Some((pred.clone(), succ.clone(), nodes.len())),
                _ => None,
            })
            .expect("YourInformation sent to H");
        assert_eq!(your_info, (k("D"), k("M"), 2));
        // pred D told its successor is now H.
        assert!(fx.out.iter().any(|e| e.to == Address::Peer(k("D"))
            && matches!(
                &e.msg,
                crate::messages::Message::Peer(PeerMsg::UpdateSuccessor { succ }) if succ == &k("H")
            )));
        // Relocations recorded for the directory.
        assert_eq!(fx.relocated.len(), 2);
    }

    #[test]
    fn new_predecessor_forwards_when_not_in_arc() {
        let mut s = shard_with_nodes("M", &[]);
        s.peer.pred = k("D");
        s.peer.succ = k("T");
        let mut fx = Effects::default();
        on_new_predecessor(&mut s, k("R"), &mut fx);
        assert_eq!(s.peer.pred, k("D"), "unchanged");
        assert_eq!(fx.out.len(), 1);
        assert_eq!(fx.out[0].to, Address::Peer(k("T")));
    }

    #[test]
    fn second_peer_forms_two_ring() {
        // Single peer M (pred = succ = M) hosting everything; D joins.
        let mut s = shard_with_nodes("M", &["A", "K", "Z"]);
        let mut fx = Effects::default();
        on_new_predecessor(&mut s, k("D"), &mut fx);
        assert_eq!(s.peer.pred, k("D"));
        // D takes (M, D] wrapping: {Z, A}; M keeps {K}.
        assert_eq!(s.node_count(), 1);
        assert!(s.nodes.contains_key(&k("K")));
        let (pred, succ, n) = fx
            .out
            .iter()
            .find_map(|e| match &e.msg {
                crate::messages::Message::Peer(PeerMsg::YourInformation { pred, succ, nodes }) => {
                    Some((pred.clone(), succ.clone(), nodes.len()))
                }
                _ => None,
            })
            .unwrap();
        assert_eq!((pred, succ, n), (k("M"), k("M"), 2));
    }

    #[test]
    fn wrap_case_terminates_instead_of_livelocking() {
        // P greater than every peer: must be accepted by P_min's arc
        // owner. Ring D → M (→ D); arcs: (M, D] owns wrap, (D, M].
        let mut s = shard_with_nodes("D", &[]);
        s.peer.pred = k("M");
        s.peer.succ = k("M");
        let mut fx = Effects::default();
        // "Z" ∈ (M, D] circularly → accepted at D.
        on_new_predecessor(&mut s, k("Z"), &mut fx);
        assert_eq!(s.peer.pred, k("Z"));
    }

    #[test]
    fn your_information_bootstraps_joining_peer() {
        let mut s = PeerShard::new(k("H"), 50);
        let mut fx = Effects::default();
        on_your_information(
            &mut s,
            k("D"),
            k("M"),
            vec![NodeState::new(k("E")), NodeState::new(k("G"))],
            &mut fx,
        );
        assert_eq!(s.peer.pred, k("D"));
        assert_eq!(s.peer.succ, k("M"));
        assert_eq!(s.node_count(), 2);
        assert!(fx.out.is_empty());
    }
}
