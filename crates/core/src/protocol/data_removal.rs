//! Data removal — an extension over the paper (which only ever adds).
//!
//! `<DataRemoval, k>` routes exactly like `<DataInsertion, k>` (the
//! four cases of Algorithm 3 minus all creation): up while the key is
//! a prefix of the father or shares no more with us than with the
//! father, down along the child extending the key. At the owning node
//! the datum is dropped; a node left *redundant* — no data and fewer
//! than two children, so Definition 1 no longer needs it — dissolves:
//!
//! * a childless node asks its father to `RemoveChild` it;
//! * a one-child node lifts the child (`SetFather` to the child,
//!   `UpdateChild` to the father) and vanishes.
//!
//! `RemoveChild` can leave the *father* redundant in turn; the cascade
//! is at most one level deep (lifting keeps the grandfather's child
//! count unchanged), mirroring `PgcpTrie::remove`'s cleanup, which is
//! the oracle these semantics are property-tested against.

use crate::key::Key;
use crate::messages::{Envelope, NodeMsg};
use crate::node::Link;
use crate::peer::PeerShard;
use crate::protocol::Effects;

/// `<DataRemoval, k>` on node `p`, in `slot`. Returns the link a pure
/// forward followed.
pub fn on_data_removal(
    shard: &mut PeerShard,
    slot: u32,
    key: Key,
    fx: &mut Effects,
) -> Option<Link> {
    let p = shard.nodes.at_mut(slot);
    if p.label == key {
        p.remove_datum(&key);
        dissolve_if_redundant(shard, slot, fx);
        return None;
    }
    if p.label.is_proper_prefix_of(&key) {
        // No extending child: the key is not registered; nothing to do.
        let i = p.child_extending_at(&key)?;
        let q = p.children()[i].clone();
        fx.send(Envelope::to_node(q, NodeMsg::DataRemoval { key }));
        return Some(Link::Child(i as u32));
    }
    // The owner is not below us: climb. (Both the `key prefixes us`
    // and the divergence case end up at an ancestor; if the key is
    // absent the walk stops harmlessly at the root region.)
    let f = p.father()?;
    // Divergence below the father with no matching sibling: the key is
    // not registered.
    if !key.is_prefix_of(f) && p.label.gcp_len(&key) > f.len() {
        return None;
    }
    fx.send(Envelope::to_node(f.clone(), NodeMsg::DataRemoval { key }));
    Some(Link::Father)
}

/// `<RemoveChild, c>` on node `p`, in `slot`: a child dissolved; `p`
/// may now be redundant itself.
pub fn on_remove_child(shard: &mut PeerShard, slot: u32, child: Key, fx: &mut Effects) {
    shard.nodes.at_mut(slot).remove_child(&child);
    dissolve_if_redundant(shard, slot, fx);
}

/// Dissolves the node in `slot` if it holds no data and fewer than two
/// children (Definition 1 only requires nodes that separate at least
/// two children or carry data).
fn dissolve_if_redundant(shard: &mut PeerShard, slot: u32, fx: &mut Effects) {
    let node = shard.nodes.at(slot);
    if !node.data.is_empty() || node.children().len() >= 2 {
        return;
    }
    let label = node.label.clone();
    let father = node.father().cloned();
    let only_child = node.children().first().cloned();
    match (father, only_child) {
        (father, Some(c)) => {
            // Lift the only child into our place.
            fx.send(Envelope::to_node(
                c.clone(),
                NodeMsg::SetFather {
                    father: father.clone(),
                },
            ));
            if let Some(f) = father {
                fx.send(Envelope::to_node(
                    f,
                    NodeMsg::UpdateChild {
                        old: label.clone(),
                        new: c,
                    },
                ));
            }
        }
        (Some(f), None) => {
            fx.send(Envelope::to_node(
                f,
                NodeMsg::RemoveChild {
                    child: label.clone(),
                },
            ));
        }
        (None, None) => {
            // Last node of the tree.
        }
    }
    shard.evict(&label);
    fx.removed.push(label);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{Address, Message};
    use crate::node::NodeState;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    fn shard_with(nodes: &[(&str, Option<&str>, &[&str], bool)]) -> PeerShard {
        let mut s = PeerShard::new(k("ZZZZ"), 1000);
        for (label, father, children, data) in nodes {
            let mut n = NodeState::new(k(label));
            n.set_father(father.map(k));
            for c in *children {
                n.add_child(k(c));
            }
            if *data {
                n.add_datum(k(label));
            }
            s.install(n);
        }
        s
    }

    /// Delivers `<DataRemoval, key>` to node `at` of `s`.
    fn remove(s: &mut PeerShard, at: &str, key: &str) -> (Effects, Option<Link>) {
        let mut fx = Effects::default();
        let slot = s.nodes.find(&k(at), u32::MAX).expect("hosted");
        let link = on_data_removal(s, slot, k(key), &mut fx);
        (fx, link)
    }

    fn sent<'a>(fx: &'a Effects, label: &str) -> Vec<&'a NodeMsg> {
        fx.out
            .iter()
            .filter_map(|e| match (&e.to, &e.msg) {
                (Address::Node(n), Message::Node(m)) if n == &k(label) => Some(m),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn removal_with_siblings_keeps_the_structure() {
        // 101 has two data children; removing one leaves a still-valid
        // pair? No — one child of a structural node remains: dissolve.
        let mut s = shard_with(&[("10101", Some("101"), &[], true)]);
        let (fx, link) = remove(&mut s, "10101", "10101");
        assert_eq!(link, None);
        assert!(!s.nodes.contains_key(&k("10101")), "leaf dissolves");
        assert_eq!(fx.removed, vec![k("10101")]);
        let msgs = sent(&fx, "101");
        assert!(matches!(msgs[0], NodeMsg::RemoveChild { child } if child == &k("10101")));
    }

    #[test]
    fn node_with_two_children_stays_as_structural() {
        let mut s = shard_with(&[("101", Some(""), &["10101", "10111"], true)]);
        let (fx, link) = remove(&mut s, "101", "101");
        assert_eq!(link, None);
        let n = &s.nodes[&k("101")];
        assert!(n.data.is_empty());
        assert!(fx.removed.is_empty(), "still separates two children");
        assert!(fx.out.is_empty());
    }

    #[test]
    fn one_child_node_lifts_the_child() {
        let mut s = shard_with(&[("10111", Some("101"), &["101111"], true)]);
        let (fx, link) = remove(&mut s, "10111", "10111");
        assert_eq!(link, None);
        assert!(!s.nodes.contains_key(&k("10111")));
        let to_child = sent(&fx, "101111");
        assert!(matches!(to_child[0], NodeMsg::SetFather { father: Some(f) } if f == &k("101")));
        let to_father = sent(&fx, "101");
        assert!(matches!(
            to_father[0],
            NodeMsg::UpdateChild { old, new } if old == &k("10111") && new == &k("101111")
        ));
    }

    #[test]
    fn root_with_one_child_hands_over_the_root() {
        let mut s = shard_with(&[("1", None, &["10101"], true)]);
        let (fx, link) = remove(&mut s, "1", "1");
        assert_eq!(link, None);
        assert!(!s.nodes.contains_key(&k("1")));
        let msgs = sent(&fx, "10101");
        assert!(matches!(msgs[0], NodeMsg::SetFather { father: None }));
    }

    #[test]
    fn remove_child_cascades_one_level() {
        // Structural node left with one child after RemoveChild: lift.
        let mut s = shard_with(&[("101", Some(""), &["10101", "10111"], false)]);
        let mut fx = Effects::default();
        let slot = s.nodes.find(&k("101"), u32::MAX).expect("hosted");
        on_remove_child(&mut s, slot, k("10101"), &mut fx);
        assert!(
            !s.nodes.contains_key(&k("101")),
            "structural node lifts away"
        );
        assert!(matches!(
            sent(&fx, "10111")[0],
            NodeMsg::SetFather { father: Some(f) } if f == &Key::epsilon()
        ));
        assert!(matches!(
            sent(&fx, "")[0],
            NodeMsg::UpdateChild { old, new } if old == &k("101") && new == &k("10111")
        ));
    }

    #[test]
    fn removal_of_absent_key_is_a_noop() {
        let mut s = shard_with(&[("101", Some(""), &["10101", "10111"], true)]);
        // "10199" diverges from both children below 101.
        let (fx, link) = remove(&mut s, "101", "10199");
        assert_eq!(link, None);
        assert!(fx.out.is_empty());
        assert!(fx.removed.is_empty());
        assert!(s.nodes[&k("101")].data.contains(&k("101")));
    }

    #[test]
    fn removal_routes_up_from_unrelated_entry() {
        let mut s = shard_with(&[("10101", Some("101"), &[], true)]);
        let (fx, link) = remove(&mut s, "10101", "01");
        assert_eq!(link, Some(Link::Father));
        let msgs = sent(&fx, "101");
        assert_eq!(msgs.len(), 1);
        assert!(matches!(msgs[0], NodeMsg::DataRemoval { key } if key == &k("01")));
    }
}
