//! Property tests of the interned delivery directory (ISSUE 7): the
//! id↔`Key` mapping must stay a bijection and the live-label view must
//! track an ordinary map model under arbitrary insert / remove /
//! re-host / clear churn. Ids are the engine's addressing currency —
//! a broken bijection here silently misroutes envelopes.

use dlpt_core::directory::Directory;
use dlpt_core::key::Key;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Small key pool over a 3-digit alphabet: short keys collide and get
/// re-interned, re-hosted and re-inserted constantly — exactly the
/// churn that would expose id aliasing.
fn pool_key() -> impl Strategy<Value = Key> {
    proptest::collection::vec(prop_oneof![Just(b'0'), Just(b'1'), Just(b'2')], 1..6)
        .prop_map(Key::from_bytes)
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Key, Key),
    Remove(Key),
    BumpEpoch(Key),
    SetFollowers(Key, Vec<Key>),
    Clear,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (pool_key(), pool_key()).prop_map(|(l, h)| Op::Insert(l, h)),
        (pool_key(), pool_key()).prop_map(|(l, h)| Op::Insert(l, h)),
        (pool_key(), pool_key()).prop_map(|(l, h)| Op::Insert(l, h)),
        pool_key().prop_map(Op::Remove),
        pool_key().prop_map(Op::BumpEpoch),
        (pool_key(), proptest::collection::vec(pool_key(), 0..3))
            .prop_map(|(l, f)| Op::SetFollowers(l, f)),
        Just(Op::Clear),
    ]
}

/// Every id ever handed out still names the key it was interned for,
/// and interning that key again yields the same id.
fn assert_bijection(d: &Directory) {
    for id in 0..d.interned_len() as u32 {
        let key = d.key_of(id);
        assert_eq!(
            d.id_of(key),
            Some(id),
            "intern round-trip broke for id {id} ({key})"
        );
    }
}

/// The live view (labels / hosts / resolve / iteration order) agrees
/// with the plain-map model.
fn assert_matches_model(d: &Directory, model: &BTreeMap<Key, Key>) {
    assert_eq!(d.len(), model.len());
    assert_eq!(d.is_empty(), model.is_empty());
    let got: Vec<(&Key, &Key)> = d.iter().collect();
    let want: Vec<(&Key, &Key)> = model.iter().collect();
    assert_eq!(got, want, "live (label, host) view diverged from model");
    for (i, label) in model.keys().enumerate() {
        assert_eq!(d.label_at(i), label);
        assert!(d.contains(label));
        assert_eq!(d.host_of(label), model.get(label));
        let (lid, hid, _) = d.resolve(label).expect("live label resolves");
        assert_eq!(d.key_of(lid), label, "resolve returned an aliased label id");
        assert_eq!(
            d.key_of(hid),
            &model[label],
            "resolve returned an aliased host id"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// id↔Key bijection and model agreement across arbitrary churn.
    #[test]
    fn directory_stays_a_bijection_under_churn(
        ops in proptest::collection::vec(op(), 1..60),
    ) {
        let mut d = Directory::new();
        let mut model: BTreeMap<Key, Key> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(label, host) => {
                    let lid = d.insert(label.clone(), host.clone());
                    prop_assert_eq!(d.key_of(lid), &label);
                    model.insert(label, host);
                }
                Op::Remove(label) => {
                    let removed = d.remove(&label);
                    prop_assert_eq!(removed, model.remove(&label).is_some());
                    prop_assert_eq!(d.host_of(&label), None);
                }
                Op::BumpEpoch(label) => {
                    let before = d.epoch_of(&label);
                    d.bump_epoch(&label);
                    prop_assert!(d.epoch_of(&label) > before);
                }
                Op::SetFollowers(label, hosts) => {
                    d.set_followers(&label, &hosts);
                    let got: Vec<&Key> = d.followers_of(&label).collect();
                    prop_assert_eq!(got, hosts.iter().collect::<Vec<_>>());
                }
                Op::Clear => {
                    d.clear();
                    model.clear();
                }
            }
            assert_bijection(&d);
            assert_matches_model(&d, &model);
        }
    }

    /// Epochs are monotone per label across any churn — the property
    /// the shortcut cache's freshness proof rests on (no ABA window:
    /// remove + re-insert can never rewind a label's clock).
    #[test]
    fn epochs_are_monotone_per_label(
        ops in proptest::collection::vec(op(), 1..60),
    ) {
        let mut d = Directory::new();
        let mut floor: BTreeMap<Key, u64> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(label, host) => {
                    d.insert(label.clone(), host);
                    let e = d.epoch_of(&label);
                    prop_assert!(e > *floor.get(&label).unwrap_or(&0));
                    floor.insert(label, e);
                }
                Op::Remove(label) => {
                    let was_live = d.contains(&label);
                    d.remove(&label);
                    let e = d.epoch_of(&label);
                    if was_live {
                        prop_assert!(e > *floor.get(&label).unwrap_or(&0));
                    }
                    floor.insert(label, e);
                }
                Op::BumpEpoch(label) => {
                    d.bump_epoch(&label);
                    floor.insert(label.clone(), d.epoch_of(&label));
                }
                Op::SetFollowers(label, hosts) => d.set_followers(&label, &hosts),
                Op::Clear => {
                    // Clear bumps every live label's epoch.
                    let live: Vec<Key> = d.labels().cloned().collect();
                    d.clear();
                    for l in live {
                        floor.insert(l.clone(), d.epoch_of(&l));
                    }
                }
            }
            for (label, &e) in &floor {
                prop_assert!(
                    d.epoch_of(label) >= e,
                    "epoch of {} rewound below {}",
                    label,
                    e
                );
            }
        }
    }
}
