//! Data insertion — Algorithm 3 of the paper.
//!
//! To declare a service with key `k`, a server sends
//! `<DataInsertion, k>` to a random node. The request is routed to the
//! node labeled `k`, creating it (and, for a sibling split, the common
//! parent labeled `GCP(p, k)`) if it does not exist. A freshly created
//! node travels as a `<SearchingHost, (l, f, C, δ)>` message that
//! descends to the highest existing node below `l` and is then handed
//! to the peer layer as `<Host, …>` (lines 3.32–3.37).
//!
//! ## Deliberate deviations from the pseudo-code
//!
//! * **Line 3.15** tests `|GCP(k, f_p)| = |p|`, which is unsatisfiable
//!   (both `k` and `f_p` are proper prefixes of `p`, so the GCP is
//!   shorter than `p`). The intended test — route up when the sought
//!   node is *above* the father — is `k` properly prefixes `f_p`,
//!   which is what we implement.
//! * **Line 3.30** seeds the new sibling node `k` with father `p`; the
//!   father must be the freshly created common parent `GCP(p, k)`
//!   (cf. line 3.26 which gives that parent children `{p, k}`).
//! * **Line 3.33** picks `Max{f ∈ C_p : f <= l}`. The seeded parent of
//!   a new node can already list `l` among its children (line 3.26),
//!   so `<=` would forward the search to the very node being created;
//!   we use strictly `<`.
//! * **Line 3.37** delivers `<Host>` to the peer running the search's
//!   last node, but that peer does not always satisfy the mapping rule
//!   (its identifier may lie below `l`). [`on_host`] re-forwards along
//!   the ring until the label falls inside the receiving peer's arc,
//!   making `host(n) = min {P : P >= n}` an invariant rather than an
//!   assumption.
//!
//! ## Crash repair (extension)
//!
//! A crash at `k = 1` leaves live nodes whose father died. Each such
//! orphan re-enters here as `<Reattach, o>`, routed by the same four
//! cases from the root. Where insertion would create node `o`, the
//! orphan — which keeps its host, data and subtree — receives only a
//! `SetFather`; the links the four cases rewrite on other nodes, and
//! any new common parent, travel exactly as they do for an insertion.
//! The engine sends one orphan at a time (`Engine::send_orphan`).

use crate::key::{in_ring_interval, Key};
use crate::messages::{Envelope, NodeMsg, NodeSeed, PeerMsg};
use crate::node::Link;
use crate::peer::PeerShard;
use crate::protocol::Effects;

/// Algorithm 3, lines 3.02–3.31: `<DataInsertion, k>` on node `p`, in
/// `slot` — or, with `orphan` set, `<Reattach, k>`: crash repair routes
/// the live node `k`, whose father died, through the same four cases,
/// and where insertion would create node `k` (`place`) it links the
/// existing one. Returns the link a pure forward followed (cases 2, 3
/// and 4 when they only route).
pub fn on_data_insertion(
    shard: &mut PeerShard,
    slot: u32,
    key: Key,
    orphan: bool,
    fx: &mut Effects,
) -> Option<Link> {
    let p = shard.nodes.at_mut(slot);
    let p_label = p.label.clone();
    // The message to pass on unchanged (routing never tells the two apart).
    let onward = |key| {
        if orphan {
            NodeMsg::Reattach { label: key }
        } else {
            NodeMsg::DataInsertion { key }
        }
    };

    // Case 1 (line 3.03): this is the node; register the datum (an
    // orphan found in place is already linked).
    if p_label == key {
        if !orphan {
            p.add_datum(key);
        }
        return None;
    }

    // Case 2 (lines 3.04–3.09): the key belongs in our subtree.
    if p_label.is_proper_prefix_of(&key) {
        if let Some(i) = p.child_extending_at(&key) {
            // Line 3.06: a child covers the key more precisely.
            let q = p.children()[i].clone();
            fx.send(Envelope::to_node(q, onward(key)));
            return Some(Link::Child(i as u32));
        }
        // Lines 3.08–3.09: create the node as our child and start the
        // host search from ourselves.
        p.add_child(key.clone());
        place(fx, orphan, p_label.clone(), key, Some(p_label), None);
        return None;
    }

    // Case 3 (lines 3.10–3.20): the sought node is an ancestor.
    if key.is_proper_prefix_of(&p_label) {
        match p.father().cloned() {
            None => {
                // Lines 3.11–3.13: we are the root; the key becomes the
                // new root with us as its only child.
                p.set_father(Some(key.clone()));
                place(fx, orphan, p_label.clone(), key, None, Some(p_label));
            }
            Some(f) => {
                if key.is_prefix_of(&f) {
                    // Line 3.16 (test corrected, see module docs): the
                    // node belongs at or above our father. The equal
                    // case happens when the key's node already exists
                    // and the request entered the tree below it — the
                    // father *is* the destination (case 1 there).
                    fx.send(Envelope::to_node(f, onward(key)));
                    return Some(Link::Father);
                }
                // Lines 3.18–3.20: splice the new node between our
                // father and us.
                debug_assert!(f.is_proper_prefix_of(&key));
                p.set_father(Some(key.clone()));
                let (old, new) = (p_label.clone(), key.clone());
                place(fx, orphan, f.clone(), key, Some(f.clone()), Some(p_label));
                fx.send(Envelope::to_node(f, NodeMsg::UpdateChild { old, new }));
            }
        }
        return None;
    }

    // Case 4 (lines 3.21–3.31): the key diverges from us.
    if let Some(f) = p.father() {
        if p_label.gcp_len(&key) <= f.len() {
            // Line 3.23: our father shares at least as much with the
            // key as we do — the divergence point is above us.
            fx.send(Envelope::to_node(f.clone(), onward(key)));
            return Some(Link::Father);
        }
    }
    let g = p_label.gcp(&key);
    let father = p.father().cloned();
    // Lines 3.24–3.31: create the common parent `g = GCP(p, k)` with
    // children {p, k}, and the node k itself (father corrected to g,
    // see module docs). The searches start at our father, or at us
    // when we are the root (lines 3.25–3.26).
    let parent_seed = NodeSeed {
        label: g.clone(),
        father: father.clone(),
        children: vec![p_label.clone(), key.clone()],
        data: Vec::new(),
    };
    p.set_father(Some(g.clone()));
    let via = father.clone().unwrap_or_else(|| p_label.clone());
    fx.send(Envelope::to_node(
        via.clone(),
        NodeMsg::SearchingHost {
            seed: Box::new(parent_seed),
        },
    ));
    if let Some(f) = father {
        fx.send(Envelope::to_node(
            f,
            NodeMsg::UpdateChild {
                old: p_label,
                new: g.clone(),
            },
        ));
    }
    place(fx, orphan, via, key, Some(g), None);
    None
}

/// Puts node `key` where insertion decided it goes: under `father`, and
/// above `child` if there is one. A new node travels to its host as a
/// `SearchingHost` seed starting at `via`. An orphan already lives on
/// its host with its subtree, so only its links travel: `SetFather`,
/// and a `Reattach` of `child` from the orphan down.
fn place(
    fx: &mut Effects,
    orphan: bool,
    via: Key,
    key: Key,
    father: Option<Key>,
    child: Option<Key>,
) {
    if orphan {
        fx.send(Envelope::to_node(
            key.clone(),
            NodeMsg::SetFather { father },
        ));
        if let Some(label) = child {
            fx.send(Envelope::to_node(key, NodeMsg::Reattach { label }));
        }
        return;
    }
    let seed = NodeSeed {
        data: vec![key.clone()],
        label: key,
        father,
        children: child.into_iter().collect(),
    };
    fx.send(Envelope::to_node(
        via,
        NodeMsg::SearchingHost {
            seed: Box::new(seed),
        },
    ));
}

/// Algorithm 3, lines 3.32–3.37: `<SearchingHost, (l, f, C, δ)>` on
/// node `p`, in `slot` — descend toward the highest node strictly below
/// `l` (returning the child link taken), then hand the seed to the peer
/// layer.
pub fn on_searching_host(
    shard: &mut PeerShard,
    slot: u32,
    seed: Box<NodeSeed>,
    fx: &mut Effects,
) -> Option<Link> {
    let p = shard.nodes.at(slot);
    // Strictly below `l` (see module docs on line 3.33).
    match p.max_child_lt_at(&seed.label) {
        Some(i) => {
            let q = p.children()[i].clone();
            fx.send(Envelope::to_node(q, NodeMsg::SearchingHost { seed }));
            Some(Link::Child(i as u32))
        }
        None => {
            fx.send(Envelope::to_peer(
                shard.peer.id.clone(),
                PeerMsg::Host { seed },
            ));
            None
        }
    }
}

/// Line 3.37 endpoint with the ring-forwarding guard: install the node
/// if its label falls in this peer's arc `(pred, id]`, otherwise pass
/// the seed along the ring toward its true host.
pub fn on_host(shard: &mut PeerShard, seed: Box<NodeSeed>, fx: &mut Effects) {
    let me = shard.peer.id.clone();
    if in_ring_interval(&seed.label, &shard.peer.pred, &me) {
        fx.relocated.push((seed.label.clone(), me));
        shard.install(seed.into_state());
        return;
    }
    // Walk toward the owner. Linear comparison picks the short
    // direction; the wrap arc is owned by P_min whose interval test
    // catches both sides.
    let towards = if seed.label > me {
        shard.peer.succ.clone()
    } else {
        shard.peer.pred.clone()
    };
    fx.send(Envelope::to_peer(towards, PeerMsg::Host { seed }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{Address, Message};
    use crate::node::NodeState;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    fn seed(label: &str) -> Box<NodeSeed> {
        Box::new(NodeSeed {
            label: k(label),
            father: None,
            children: Vec::new(),
            data: Vec::new(),
        })
    }

    fn shard(peer: &str) -> PeerShard {
        PeerShard::new(k(peer), 100)
    }

    /// Delivers `<DataInsertion, key>` (`<Reattach, key>` for an
    /// orphan) to node `at` of `s`.
    fn insert(s: &mut PeerShard, at: &str, key: &str, orphan: bool) -> (Effects, Option<Link>) {
        let mut fx = Effects::default();
        let slot = s.nodes.find(&k(at), u32::MAX).expect("hosted");
        let link = on_data_insertion(s, slot, k(key), orphan, &mut fx);
        (fx, link)
    }

    /// Delivers `<SearchingHost, seed(label)>` to node `at` of `s`.
    fn search(s: &mut PeerShard, at: &str, label: &str) -> (Effects, Option<Link>) {
        let mut fx = Effects::default();
        let slot = s.nodes.find(&k(at), u32::MAX).expect("hosted");
        let link = on_searching_host(s, slot, seed(label), &mut fx);
        (fx, link)
    }

    fn sent_to_node<'a>(fx: &'a Effects, label: &str) -> Vec<&'a NodeMsg> {
        fx.out
            .iter()
            .filter_map(|e| match (&e.to, &e.msg) {
                (Address::Node(n), Message::Node(m)) if n == &k(label) => Some(m),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn case1_registers_datum_in_place() {
        let mut s = shard("Z");
        s.install(NodeState::new(k("DGEMM")));
        let (fx, link) = insert(&mut s, "DGEMM", "DGEMM", false);
        assert_eq!(link, None);
        assert!(fx.out.is_empty());
        assert!(s.nodes[&k("DGEMM")].data.contains(&k("DGEMM")));
    }

    #[test]
    fn case2_forwards_to_extending_child() {
        let mut s = shard("Z");
        let mut n = NodeState::new(k("10"));
        n.add_child(k("10101"));
        n.add_child(k("10111"));
        s.install(n);
        let (fx, link) = insert(&mut s, "10", "101011", false);
        assert_eq!(link, Some(Link::Child(0)), "forwarded over the child link");
        let msgs = sent_to_node(&fx, "10101");
        assert_eq!(msgs.len(), 1);
        assert!(matches!(msgs[0], NodeMsg::DataInsertion { key } if key == &k("101011")));
    }

    #[test]
    fn case2_creates_child_and_searches_host() {
        let mut s = shard("Z");
        s.install(NodeState::new(k("10")));
        let (fx, link) = insert(&mut s, "10", "1011", false);
        assert_eq!(link, None);
        // Child registered immediately (line 3.09).
        assert!(s.nodes[&k("10")].children().contains(&k("1011")));
        let msgs = sent_to_node(&fx, "10");
        assert_eq!(msgs.len(), 1);
        match msgs[0] {
            NodeMsg::SearchingHost { seed } => {
                assert_eq!(seed.label, k("1011"));
                assert_eq!(seed.father, Some(k("10")));
                assert!(seed.children.is_empty());
                assert_eq!(seed.data, vec![k("1011")]);
            }
            other => panic!("expected SearchingHost, got {other:?}"),
        }
    }

    #[test]
    fn case3_new_root_above_current() {
        let mut s = shard("Z");
        s.install(NodeState::new(k("10101")));
        let (fx, link) = insert(&mut s, "10101", "10", false);
        assert_eq!(link, None);
        assert_eq!(s.nodes[&k("10101")].father(), Some(&k("10")));
        let msgs = sent_to_node(&fx, "10101");
        assert_eq!(msgs.len(), 1);
        match msgs[0] {
            NodeMsg::SearchingHost { seed } => {
                assert_eq!(seed.label, k("10"));
                assert_eq!(seed.father, None);
                assert_eq!(seed.children, vec![k("10101")]);
            }
            other => panic!("expected SearchingHost, got {other:?}"),
        }
    }

    #[test]
    fn case3_routes_up_when_father_is_the_key() {
        // Regression: the key's node already exists and the request
        // entered below it. Forward up — never create a duplicate
        // (a duplicate seed would carry father == label and loop).
        let mut s = shard("Z");
        let mut n = NodeState::new(k("PDGELSD"));
        n.set_father(Some(k("PDGELS")));
        s.install(n);
        let (fx, link) = insert(&mut s, "PDGELSD", "PDGELS", false);
        assert_eq!(link, Some(Link::Father));
        let msgs = sent_to_node(&fx, "PDGELS");
        assert_eq!(msgs.len(), 1);
        assert!(matches!(msgs[0], NodeMsg::DataInsertion { key } if key == &k("PDGELS")));
        assert_eq!(
            s.nodes[&k("PDGELSD")].father(),
            Some(&k("PDGELS")),
            "father untouched"
        );
    }

    #[test]
    fn case3_routes_up_when_key_prefixes_father() {
        let mut s = shard("Z");
        let mut n = NodeState::new(k("10101"));
        n.set_father(Some(k("1010")));
        s.install(n);
        let (fx, link) = insert(&mut s, "10101", "10", false);
        assert_eq!(link, Some(Link::Father));
        let msgs = sent_to_node(&fx, "1010");
        assert_eq!(msgs.len(), 1);
        assert!(matches!(msgs[0], NodeMsg::DataInsertion { key } if key == &k("10")));
    }

    #[test]
    fn case3_splices_between_father_and_node() {
        let mut s = shard("Z");
        let mut n = NodeState::new(k("10101"));
        n.set_father(Some(k("1")));
        s.install(n);
        let (fx, link) = insert(&mut s, "10101", "101", false);
        assert_eq!(link, None, "the splice rewrote the father link");
        assert_eq!(s.nodes[&k("10101")].father(), Some(&k("101")));
        let msgs = sent_to_node(&fx, "1");
        assert_eq!(msgs.len(), 2);
        match msgs[0] {
            NodeMsg::SearchingHost { seed } => {
                assert_eq!(seed.label, k("101"));
                assert_eq!(seed.father, Some(k("1")));
                assert_eq!(seed.children, vec![k("10101")]);
            }
            other => panic!("expected SearchingHost, got {other:?}"),
        }
        assert!(matches!(
            msgs[1],
            NodeMsg::UpdateChild { old, new } if old == &k("10101") && new == &k("101")
        ));
    }

    #[test]
    fn case4_sibling_split_at_root() {
        let mut s = shard("Z");
        s.install(NodeState::new(k("01")));
        let (fx, link) = insert(&mut s, "01", "10101", false);
        assert_eq!(link, None);
        // Common parent ε with children {01, 10101}; new father set.
        assert_eq!(s.nodes[&k("01")].father(), Some(&Key::epsilon()));
        let msgs = sent_to_node(&fx, "01");
        assert_eq!(msgs.len(), 2);
        match (&msgs[0], &msgs[1]) {
            (NodeMsg::SearchingHost { seed: parent }, NodeMsg::SearchingHost { seed: leaf }) => {
                assert_eq!(parent.label, Key::epsilon());
                assert_eq!(parent.father, None);
                assert_eq!(parent.children, vec![k("01"), k("10101")]);
                assert!(parent.data.is_empty());
                assert_eq!(leaf.label, k("10101"));
                assert_eq!(leaf.father, Some(Key::epsilon()));
                assert_eq!(leaf.data, vec![k("10101")]);
            }
            other => panic!("expected two SearchingHost, got {other:?}"),
        }
    }

    #[test]
    fn case4_routes_up_when_divergence_is_above_father() {
        let mut s = shard("Z");
        let mut n = NodeState::new(k("1010"));
        n.set_father(Some(k("10")));
        s.install(n);
        // GCP(1010, 11) = 1, shorter than father 10 → go up.
        let (fx, link) = insert(&mut s, "1010", "11", false);
        assert_eq!(link, Some(Link::Father));
        let msgs = sent_to_node(&fx, "10");
        assert_eq!(msgs.len(), 1);
        assert!(matches!(msgs[0], NodeMsg::DataInsertion { key } if key == &k("11")));
    }

    #[test]
    fn case4_sibling_split_below_father() {
        let mut s = shard("Z");
        let mut n = NodeState::new(k("10101"));
        n.set_father(Some(k("1")));
        s.install(n);
        // GCP(10101, 10111) = 101, longer than father 1 → split here.
        let (fx, link) = insert(&mut s, "10101", "10111", false);
        assert_eq!(link, None);
        assert_eq!(s.nodes[&k("10101")].father(), Some(&k("101")));
        let msgs = sent_to_node(&fx, "1");
        assert_eq!(msgs.len(), 3);
        match msgs[0] {
            NodeMsg::SearchingHost { seed } => {
                assert_eq!(seed.label, k("101"));
                assert_eq!(seed.father, Some(k("1")));
                assert_eq!(seed.children, vec![k("10101"), k("10111")]);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            msgs[1],
            NodeMsg::UpdateChild { old, new } if old == &k("10101") && new == &k("101")
        ));
        match msgs[2] {
            NodeMsg::SearchingHost { seed } => {
                assert_eq!(seed.label, k("10111"));
                assert_eq!(seed.father, Some(k("101")), "father is the new GCP node");
            }
            other => panic!("{other:?}"),
        }
    }

    /// An orphan takes the insertion routes, but is never re-created:
    /// it is sent only its new links.
    #[test]
    fn orphans_receive_links_where_insertion_would_seed() {
        let reattach = |father: Option<&str>, at: &str, orphan: &str| {
            let mut s = shard("Z");
            let mut n = NodeState::new(k(at));
            n.set_father(father.map(k));
            s.install(n);
            let (fx, _) = insert(&mut s, at, orphan, true);
            (s, fx)
        };
        // Case 2: below us — we list it, it learns its father.
        let (s, fx) = reattach(None, "10", "1011");
        assert!(s.nodes[&k("10")].children().contains(&k("1011")));
        let got = sent_to_node(&fx, "1011");
        assert!(matches!(got[..], [NodeMsg::SetFather { father: Some(f) }] if f == &k("10")));
        assert_eq!(fx.out.len(), 1);
        // Case 3 at the root: it becomes the root and re-attaches us.
        let (_, fx) = reattach(None, "10101", "10");
        assert!(matches!(
            sent_to_node(&fx, "10")[..],
            [NodeMsg::SetFather { father: None }, NodeMsg::Reattach { label }] if label == &k("10101")
        ));
        // Case 4: the common parent is seeded as for any insertion.
        let (_, fx) = reattach(Some("1"), "10101", "10111");
        assert!(
            matches!(sent_to_node(&fx, "1")[0], NodeMsg::SearchingHost { seed } if seed.label == k("101"))
        );
        let got = sent_to_node(&fx, "10111");
        assert!(matches!(got[..], [NodeMsg::SetFather { father: Some(f) }] if f == &k("101")));
    }

    #[test]
    fn searching_host_descends_strictly_below_label() {
        let mut s = shard("Z");
        let mut n = NodeState::new(k("101"));
        // Children include the label being created ("10111") — the
        // strict `<` must skip it (deviation for line 3.33).
        n.add_child(k("10101"));
        n.add_child(k("10111"));
        s.install(n);
        let (fx, link) = search(&mut s, "101", "10111");
        assert_eq!(link, Some(Link::Child(0)));
        let msgs = sent_to_node(&fx, "10101");
        assert_eq!(msgs.len(), 1, "must descend to 10101, not 10111");
    }

    #[test]
    fn searching_host_hands_to_peer_when_no_lower_child() {
        let mut s = shard("Z");
        s.install(NodeState::new(k("101")));
        let (fx, link) = search(&mut s, "101", "10111");
        assert_eq!(link, None);
        assert_eq!(fx.out.len(), 1);
        assert_eq!(fx.out[0].to, Address::Peer(k("Z")));
    }

    #[test]
    fn host_installs_when_label_in_arc() {
        let mut s = shard("M");
        s.peer.pred = k("D");
        s.peer.succ = k("T");
        let mut fx = Effects::default();
        on_host(&mut s, seed("G"), &mut fx);
        assert!(s.nodes.contains_key(&k("G")));
        assert_eq!(fx.relocated, vec![(k("G"), k("M"))]);
        assert!(fx.out.is_empty());
    }

    #[test]
    fn host_forwards_toward_owner() {
        let mut s = shard("M");
        s.peer.pred = k("D");
        s.peer.succ = k("T");
        let mut fx = Effects::default();
        // "R" > "M": forward to successor.
        on_host(&mut s, seed("R"), &mut fx);
        assert_eq!(fx.out[0].to, Address::Peer(k("T")));
        // "B" < pred "D": forward to predecessor.
        let mut fx = Effects::default();
        on_host(&mut s, seed("B"), &mut fx);
        assert_eq!(fx.out[0].to, Address::Peer(k("D")));
        assert!(!s.nodes.contains_key(&k("R")));
    }

    #[test]
    fn host_on_minimum_peer_accepts_wrap_labels() {
        // D is P_min: its arc (T, D] owns labels above T and below D.
        let mut s = shard("D");
        s.peer.pred = k("T");
        s.peer.succ = k("M");
        let mut fx = Effects::default();
        on_host(&mut s, seed("Z"), &mut fx);
        assert!(
            s.nodes.contains_key(&k("Z")),
            "wrap label installs on P_min"
        );
    }
}
