//! Model-based property tests of a shard's node storage.
//!
//! [`NodeMap`] keeps node states in a slab, finds them through an
//! open-addressing hash index and keeps a separate label order (see
//! its docs); none of that may be observable. Every test here runs a
//! random operation sequence against it and against a
//! `BTreeMap<Key, NodeState>` — the representation it replaced — and
//! compares every answer: what `insert`/`remove` return, every probe,
//! `len`, and the order of `keys`/`values` and of the ordered
//! mutable visit. After every step, `find` is asked for the step's
//! label under every slot hint from 0 to two past the slab — the
//! right slot, other nodes' slots, slots out of range — and must name
//! the very node `get` returns. Labels come from a small universe so operations
//! collide: replacements, removals of present and absent labels, and
//! removals of the last slab slot and of a middle one all happen in
//! every run, and the index grows and shifts entries back on removal.
//! A few labels are longer than the inline key capacity (heap-spilled).
//! The run operations of a hand-off are in the mix: `drain_where`
//! (over a label interval or an arbitrary subset) must return exactly
//! the model's selected entries in ascending order, and `extend` (a
//! run of absent labels, ascending or descending, often growing the
//! index) must leave the map equal to the model; after either, every
//! label of the universe is probed under every hint.
//!
//! The sorted child/data vectors of [`NodeState`] are checked the same
//! way against a `BTreeSet`: the set edits, `max_child_le`,
//! `max_child_lt` and `child_extending` — the latter also over child
//! sets that break the PGCP shape (children that do not extend the
//! node's label, several sharing a branching digit), which only its
//! fallback scan handles.
//!
//! A failing case prints its replay line (`PROPTEST_CASE=N`).

use dlpt_core::key::{Key, KEY_INLINE_CAP};
use dlpt_core::node::NodeState;
use dlpt_core::peer::NodeMap;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Every binary string of up to five digits (ε included), plus eight
/// spilled keys sharing a long stem.
fn universe() -> Vec<Key> {
    let mut keys = vec![Key::epsilon()];
    for len in 1..=5u32 {
        for bits in 0..(1u32 << len) {
            let s: String = (0..len)
                .rev()
                .map(|i| if bits >> i & 1 == 1 { '1' } else { '0' })
                .collect();
            keys.push(Key::from(s.as_str()));
        }
    }
    let stem = "1".repeat(KEY_INLINE_CAP);
    for i in 0..8 {
        keys.push(Key::from(format!("{stem}{i}").as_str()));
    }
    keys
}

/// One operation on the map; label fields index the universe.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(usize, u64),
    Remove(usize),
    Probe(usize, u64),
    VisitMut,
    ValuesMut,
    /// `drain_where` over a selection of the universe.
    Drain(Pick),
    /// `extend` with the absent labels of a mask over the universe,
    /// ascending or (`true`) descending.
    Extend(u64, u64, bool),
}

/// Which labels a drain takes.
#[derive(Debug, Clone, Copy)]
enum Pick {
    /// Labels between two universe labels, both ends included.
    Between(usize, usize),
    /// Universe positions set in a 128-bit mask (two halves).
    Mask(u64, u64),
}

impl Pick {
    fn takes(self, labels: &[Key], label: &Key) -> bool {
        match self {
            Pick::Between(a, b) => {
                let (lo, hi) = (&labels[a], &labels[b]);
                lo.min(hi) <= label && label <= lo.max(hi)
            }
            Pick::Mask(low, high) => in_mask(labels, label, low, high),
        }
    }
}

fn in_mask(labels: &[Key], label: &Key, low: u64, high: u64) -> bool {
    let i = labels
        .iter()
        .position(|l| l == label)
        .expect("universe label");
    (if i < 64 { low >> i } else { high >> (i - 64) }) & 1 == 1
}

fn op(labels: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..labels, 0u64..1000).prop_map(|(l, v)| Op::Insert(l, v)),
        (0..labels, 0u64..1000).prop_map(|(l, v)| Op::Insert(l, v)),
        (0..labels).prop_map(Op::Remove),
        (0..labels, 0u64..1000).prop_map(|(l, v)| Op::Probe(l, v)),
        Just(Op::VisitMut),
        Just(Op::ValuesMut),
        (0..labels, 0..labels).prop_map(|(a, b)| Op::Drain(Pick::Between(a, b))),
        (any::<u64>(), any::<u64>()).prop_map(|(l, h)| Op::Drain(Pick::Mask(l, h))),
        (any::<u64>(), any::<u64>(), any::<bool>()).prop_map(|(l, h, r)| Op::Extend(l, h, r)),
    ]
}

fn node(label: &Key, load: u64) -> NodeState {
    let mut n = NodeState::new(label.clone());
    n.load = load;
    n
}

/// Every ordered read of `map` against the model.
fn assert_same(map: &NodeMap, model: &BTreeMap<Key, NodeState>) {
    assert_eq!(map.len(), model.len());
    assert_eq!(map.is_empty(), model.is_empty());
    assert!(map.keys().eq(model.keys()), "keys order");
    assert!(
        map.keys().rev().eq(model.keys().rev()),
        "reverse keys order"
    );
    assert!(map.values().eq(model.values()), "values order");
    assert_eq!(map.keys().len(), model.len());
}

/// The ordered mutable visit against the model (it changes nothing).
fn assert_visit_order(map: &mut NodeMap, model: &BTreeMap<Key, NodeState>) {
    let mut seen = Vec::new();
    map.visit_mut(|n| seen.push(n.label.clone()));
    assert!(seen.iter().eq(model.keys()), "visit order");
}

/// `find` under every hint in `0..len + 2` lands on exactly the node
/// `get` returns (the same slab slot, not merely an equal state).
fn assert_hints(map: &NodeMap, label: &Key) {
    let want = map.get(label).map(|n| n as *const NodeState);
    for hint in 0..map.len() as u32 + 2 {
        let got = map.find(label, hint).map(|s| map.at(s) as *const NodeState);
        assert_eq!(got, want, "find({label}, hint {hint})");
    }
}

/// Runs `ops` against both and compares after every step.
fn run(ops: &[Op]) {
    let labels = universe();
    let mut map = NodeMap::default();
    let mut model: BTreeMap<Key, NodeState> = BTreeMap::new();
    for (i, &op) in ops.iter().enumerate() {
        let touched = match op {
            Op::Insert(l, _) | Op::Remove(l) | Op::Probe(l, _) => l,
            _ => i % labels.len(),
        };
        match op {
            Op::Insert(l, v) => {
                let label = &labels[l];
                assert_eq!(
                    map.insert(node(label, v)),
                    model.insert(label.clone(), node(label, v)),
                    "insert {label}"
                );
            }
            Op::Remove(l) => {
                let label = &labels[l];
                assert_eq!(map.remove(label), model.remove(label), "remove {label}");
            }
            Op::Probe(l, v) => {
                let label = &labels[l];
                assert_eq!(map.get(label), model.get(label), "get {label}");
                assert_eq!(map.contains_key(label), model.contains_key(label));
                if let Some(n) = map.get_mut(label) {
                    n.prev_load = v;
                }
                if let Some(n) = model.get_mut(label) {
                    n.prev_load = v;
                }
                if model.contains_key(label) {
                    assert_eq!(&map[label], &model[label]);
                }
            }
            Op::VisitMut => {
                // The visit is in label order: number the nodes by it.
                let mut seen = Vec::new();
                let mut rank = 0;
                map.visit_mut(|n| {
                    seen.push(n.label.clone());
                    n.load = rank;
                    rank += 1;
                });
                assert!(seen.iter().eq(model.keys()), "visit order");
                for (rank, n) in model.values_mut().enumerate() {
                    n.load = rank as u64;
                }
            }
            Op::ValuesMut => {
                for n in map.values_mut() {
                    n.roll_unit();
                }
                for n in model.values_mut() {
                    n.roll_unit();
                }
            }
            Op::Drain(pick) => {
                let got = map.drain_where(|l| pick.takes(&labels, l));
                let taken: Vec<Key> = model
                    .keys()
                    .filter(|l| pick.takes(&labels, l))
                    .cloned()
                    .collect();
                let want: Vec<NodeState> = taken
                    .iter()
                    .map(|l| model.remove(l).expect("listed"))
                    .collect();
                assert_eq!(got, want, "drain {pick:?}");
            }
            Op::Extend(low, high, descending) => {
                let mut run: Vec<NodeState> = labels
                    .iter()
                    .filter(|l| in_mask(&labels, l, low, high) && !model.contains_key(l))
                    .map(|l| node(l, low ^ high))
                    .collect();
                run.sort_by(|a, b| a.label.cmp(&b.label));
                if descending {
                    run.reverse();
                }
                for n in &run {
                    model.insert(n.label.clone(), n.clone());
                }
                map.extend(run);
            }
        }
        assert_same(&map, &model);
        assert_visit_order(&mut map, &model);
        match op {
            Op::Drain(_) | Op::Extend(..) => labels.iter().for_each(|l| assert_hints(&map, l)),
            _ => assert_hints(&map, &labels[touched]),
        }
    }
    // Every label of the universe, present or not, probes alike.
    for label in &labels {
        assert_eq!(map.get(label), model.get(label), "final get {label}");
        assert_hints(&map, label);
    }
}

/// One edit of a child or data set; fields index the universe.
#[derive(Debug, Clone, Copy)]
enum SetOp {
    AddChild(usize),
    RemoveChild(usize),
    ReplaceChild(usize, usize),
    AddDatum(usize),
    RemoveDatum(usize),
}

fn set_op(labels: usize) -> impl Strategy<Value = SetOp> {
    prop_oneof![
        (0..labels).prop_map(SetOp::AddChild),
        (0..labels).prop_map(SetOp::AddChild),
        (0..labels).prop_map(SetOp::RemoveChild),
        (0..labels, 0..labels).prop_map(|(a, b)| SetOp::ReplaceChild(a, b)),
        (0..labels).prop_map(SetOp::AddDatum),
        (0..labels).prop_map(SetOp::RemoveDatum),
    ]
}

/// The child `child_extending` must return: the least child sharing a
/// longer prefix with `target` than the node's label does.
fn model_extending<'a>(label: &Key, children: &'a BTreeSet<Key>, target: &Key) -> Option<&'a Key> {
    let own = label.gcp_len(target);
    children.iter().find(|c| c.gcp_len(target) > own)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random operation sequences over a 71-label universe.
    #[test]
    fn node_map_matches_a_btree_map(ops in proptest::collection::vec(op(71), 0..300)) {
        run(&ops);
    }

    /// Long insert-heavy runs (the index grows several times), then
    /// removals until empty.
    #[test]
    fn node_map_grows_and_drains_like_a_btree_map(
        inserts in proptest::collection::vec(0usize..71, 0..200),
        removes in proptest::collection::vec(0usize..71, 0..200),
    ) {
        let mut ops: Vec<Op> = inserts.iter().map(|&l| Op::Insert(l, l as u64)).collect();
        ops.push(Op::VisitMut);
        ops.extend(removes.iter().map(|&l| Op::Remove(l)));
        ops.extend((0..71).map(Op::Remove));
        run(&ops);
    }

    /// The sorted child and data vectors against `BTreeSet`s, and the
    /// routing searches over them — on arbitrary (often non-PGCP)
    /// child sets.
    #[test]
    fn sorted_sets_match_btree_sets(
        label in 0usize..71,
        ops in proptest::collection::vec(set_op(71), 0..60),
        targets in proptest::collection::vec(0usize..71, 1..20),
    ) {
        let labels = universe();
        let mut n = NodeState::new(labels[label].clone());
        let (mut children, mut data) = (BTreeSet::new(), BTreeSet::new());
        for op in ops {
            match op {
                SetOp::AddChild(c) => {
                    prop_assert_eq!(n.add_child(labels[c].clone()), children.insert(labels[c].clone()));
                }
                SetOp::RemoveChild(c) => {
                    prop_assert_eq!(n.remove_child(&labels[c]), children.remove(&labels[c]));
                }
                SetOp::ReplaceChild(old, new) => {
                    n.replace_child(&labels[old], labels[new].clone());
                    if children.remove(&labels[old]) {
                        children.insert(labels[new].clone());
                    }
                }
                SetOp::AddDatum(d) => {
                    prop_assert_eq!(n.add_datum(labels[d].clone()), data.insert(labels[d].clone()));
                }
                SetOp::RemoveDatum(d) => {
                    prop_assert_eq!(n.remove_datum(&labels[d]), data.remove(&labels[d]));
                }
            }
            prop_assert!(n.children().iter().eq(children.iter()));
            prop_assert!(n.data.iter().eq(data.iter()));
        }
        for t in targets {
            let target = &labels[t];
            prop_assert_eq!(n.max_child_le(target), children.range(..=target).next_back());
            prop_assert_eq!(n.max_child_lt(target), children.range(..target).next_back());
            prop_assert_eq!(
                n.child_extending(target),
                model_extending(&n.label, &children, target)
            );
        }
    }
}

/// Slab slots follow insertion order, so this script removes the last
/// slot, then a middle one (the last state moves into the hole), and
/// probes everything after each step.
#[test]
fn removing_the_last_and_a_middle_slot() {
    let k = |s: &str| Key::from(s);
    let mut ops = Vec::new();
    let labels = universe();
    let at = |key: Key| labels.iter().position(|l| *l == key).unwrap();
    for s in ["0", "1", "00", "01"] {
        ops.push(Op::Insert(at(k(s)), 1));
    }
    // "01" sits in the last slot, "1" in a middle one.
    ops.push(Op::Remove(at(k("01"))));
    ops.extend((0..labels.len()).map(|l| Op::Probe(l, 2)));
    ops.push(Op::Remove(at(k("1"))));
    ops.extend((0..labels.len()).map(|l| Op::Probe(l, 3)));
    ops.push(Op::Insert(at(k("11")), 4));
    ops.push(Op::Remove(at(k("0"))));
    ops.push(Op::VisitMut);
    ops.extend((0..labels.len()).map(|l| Op::Probe(l, 5)));
    run(&ops);
}

/// Runs at the edges, with slab slots in insertion order: a drain that
/// takes nothing, one that takes the last slot, one whose slots
/// interleave with kept ones (kept tail nodes move down into both
/// holes), an extend that grows the index from 16 to 256 entries, a
/// drain of everything and an extend into the emptied map.
#[test]
fn runs_at_the_edges() {
    let labels = universe();
    let mask = |keys: &[&str]| {
        let (mut low, mut high) = (0u64, 0u64);
        for s in keys {
            let i = labels.iter().position(|l| *l == Key::from(*s)).unwrap();
            if i < 64 {
                low |= 1 << i;
            } else {
                high |= 1 << (i - 64);
            }
        }
        Pick::Mask(low, high)
    };
    let at = |s: &str| labels.iter().position(|l| *l == Key::from(s)).unwrap();
    let mut ops: Vec<Op> = ["0", "1", "00", "01", "10", "11"]
        .iter()
        .map(|s| Op::Insert(at(s), 1))
        .collect();
    ops.push(Op::Drain(mask(&[])));
    // "11" sits in the last slot.
    ops.push(Op::Drain(mask(&["11"])));
    // Slots 0 and 2 go; "01" and "10" (slots 3 and 4) fill them.
    ops.push(Op::Drain(mask(&["0", "00"])));
    ops.push(Op::Extend(u64::MAX, u64::MAX, false));
    ops.push(Op::Drain(mask(&["0", "00", "000", "0000", "00000"])));
    ops.push(Op::Drain(Pick::Mask(u64::MAX, u64::MAX)));
    ops.push(Op::Extend(u64::MAX, 0, true));
    ops.push(Op::Drain(Pick::Between(at("01"), at("1"))));
    run(&ops);
}

/// The child search on a valid PGCP node: children extend the label
/// and diverge right after it.
#[test]
fn child_extending_on_a_pgcp_node() {
    let k = |s: &str| Key::from(s);
    let mut n = NodeState::new(k("10"));
    for c in ["100", "1011"] {
        n.add_child(k(c));
    }
    assert_eq!(n.child_extending(&k("10111")), Some(&k("1011")));
    assert_eq!(n.child_extending(&k("1000")), Some(&k("100")));
    assert_eq!(n.child_extending(&k("10")), None);
    assert_eq!(n.max_child_lt(&k("1011")), Some(&k("100")));
    assert_eq!(n.max_child_le(&k("1011")), Some(&k("1011")));
}
