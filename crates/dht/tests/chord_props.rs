//! Property tests of the Chord substrate: routing always agrees with
//! the ground-truth owner under arbitrary memberships, and the random
//! mapping is total and stable.

use dlpt_core::key::Key;
use dlpt_dht::{ChordNetwork, RandomMapping};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// From any entry node, iterative lookup lands on the true owner.
    #[test]
    fn lookup_agrees_with_owner(
        ids in proptest::collection::btree_set(any::<u64>(), 2..40),
        targets in proptest::collection::vec(any::<u64>(), 1..20),
        entry_pick in any::<u32>(),
    ) {
        let mut net = ChordNetwork::new(3);
        for id in &ids {
            net.join(*id);
        }
        net.stabilize();
        net.check_ring().unwrap();
        let live = net.ids();
        let entry = live[entry_pick as usize % live.len()];
        for t in targets {
            let res = net.find_successor(entry, t);
            prop_assert_eq!(Some(res.owner), net.owner_of(t));
        }
    }

    /// The hash placement is total and stable: every label maps to a
    /// peer of the set, independent of query order.
    #[test]
    fn random_mapping_total_and_stable(
        peers in proptest::collection::btree_set("[a-z]{1,6}", 1..20),
        labels in proptest::collection::vec("[A-Z0-9_]{0,8}", 1..20),
    ) {
        let peer_keys: Vec<Key> = peers.iter().map(|p| Key::from(p.as_str())).collect();
        let m = RandomMapping::new(&peer_keys);
        for l in &labels {
            let k = Key::from(l.as_str());
            let h1 = m.host_of(&k).cloned();
            let h2 = m.host_of(&k).cloned();
            prop_assert_eq!(h1.clone(), h2);
            prop_assert!(peer_keys.contains(&h1.unwrap()));
        }
    }
}
