//! `Engine::audit` is the only implementation of the structural
//! invariants, so each check needs a state that trips it and nothing
//! else. These three are the ones no protocol path can produce: sibling
//! labels sharing more than their father's label, a slab slot listed
//! twice on the free list, and a link memoising another label's id.

use crate::alphabet::Alphabet;
use crate::key::Key;
use crate::node::{Link, NodeState};
use crate::obs::health::AuditCheck;
use crate::system::DlptSystem;

fn healthy(keys: &[&str]) -> DlptSystem {
    let mut sys = DlptSystem::builder()
        .alphabet(Alphabet::new(b"012", "prop"))
        .seed(16)
        .peer_id_len(6)
        .bootstrap_peers(4)
        .build();
    for k in keys {
        sys.insert_data(Key::from(*k)).expect("registration");
    }
    sys.assert_clean();
    sys
}

fn node_mut<'a>(sys: &'a mut DlptSystem, label: &Key) -> &'a mut NodeState {
    let host = sys.host_of(label).expect("label is a node").clone();
    let shard = sys.shard_mut(&host).expect("host is local");
    shard.nodes.get_mut(label).expect("hosted where mapped")
}

fn classes(sys: &DlptSystem) -> Vec<AuditCheck> {
    sys.audit().iter().map(|v| v.check).collect()
}

#[test]
fn siblings_sharing_more_than_the_father_label_are_one_trie_violation() {
    // 1 → {10 → {100, 101}, 12}. Splice 10 out and hang its children
    // directly under 1: every father/child link is mutual and every
    // child extends 1, but 100 and 101 share "10".
    let mut sys = healthy(&["100", "101", "12"]);
    let (top, mid) = (Key::from("1"), Key::from("10"));
    let orphans = [Key::from("100"), Key::from("101")];
    let mid_host = sys.host_of(&mid).expect("10 is a node").clone();
    sys.shard_mut(&mid_host).unwrap().nodes.remove(&mid);
    sys.directory.remove(&mid);
    for o in &orphans {
        node_mut(&mut sys, o).set_father(Some(top.clone()));
    }
    let node = node_mut(&mut sys, &top);
    assert!(node.remove_child(&mid));
    for o in orphans {
        node.add_child(o);
    }
    assert_eq!(classes(&sys), [AuditCheck::Trie], "{:?}", sys.audit());
}

#[test]
fn a_slot_freed_twice_is_one_slab_violation() {
    // Two departures leave two free slots; overwriting one entry with
    // the other keeps `live + free == slots`, so only the duplicate
    // check can see that a slot leaked.
    let mut sys = healthy(&["100"]);
    for id in sys.peer_ids().into_iter().take(2) {
        sys.leave_peer(&id).expect("graceful leave");
    }
    sys.assert_clean();
    assert_eq!(sys.peers.free.len(), 2);
    sys.peers.free[1] = sys.peers.free[0];
    assert_eq!(classes(&sys), [AuditCheck::Slab], "{:?}", sys.audit());
}

#[test]
fn a_link_memoising_another_labels_id_is_one_link_id_violation() {
    // 1 → {10 → {100, 101}, 12}: 100's father link names 10, but its
    // memo says 12. Routing would follow it to the wrong node; every
    // other check reads the labels and sees a sound tree.
    let mut sys = healthy(&["100", "101", "12"]);
    let wrong = sys.directory.id_of(&Key::from("12")).expect("interned");
    node_mut(&mut sys, &Key::from("100")).remember_link_id(Link::Father, wrong);
    assert_eq!(classes(&sys), [AuditCheck::LinkIds], "{:?}", sys.audit());
    // The right id is no violation.
    let right = sys.directory.id_of(&Key::from("10")).expect("interned");
    node_mut(&mut sys, &Key::from("100")).remember_link_id(Link::Father, right);
    sys.assert_clean();
}
