//! Property test of `RouteCache`: under arbitrary insert / refresh /
//! hit / remove / `set_capacity` / `clear` sequences the cache must
//! agree with a naive `Vec<(target, Shortcut)>` LRU — same MRU order,
//! same return values — and its index `target → slot` must describe
//! exactly the live slots after every step: an entry it misses is a
//! shortcut that can never hit again, a dead one it keeps corrupts a
//! reused slot.

use dlpt_core::cache::{RouteCache, Shortcut};
use dlpt_core::key::Key;
use proptest::prelude::*;

/// Six targets over four labels: refreshes change a target's label,
/// and freed slots are reused within a few steps. Two of the labels are
/// targets too — what exact lookups teach (`label == target`).
fn target() -> impl Strategy<Value = Key> {
    (0u8..6).prop_map(|i| Key::from_bytes([b'T', b'0' + i]))
}

fn label() -> impl Strategy<Value = Key> {
    (0u8..4).prop_map(|i| Key::from_bytes([if i < 2 { b'T' } else { b'L' }, b'0' + i]))
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Key, Key, u64),
    Hit(Key),
    Remove(Key),
    SetCapacity(usize),
    Clear,
}

fn op() -> impl Strategy<Value = Op> {
    let insert = || (target(), label(), 0u64..6).prop_map(|(t, l, e)| Op::Insert(t, l, e));
    prop_oneof![
        insert(),
        insert(),
        insert(),
        target().prop_map(Op::Hit),
        target().prop_map(Op::Hit),
        target().prop_map(Op::Remove),
        (0usize..6).prop_map(Op::SetCapacity),
        Just(Op::Clear),
    ]
}

/// The reference: entries in most-recently-used order, every operation
/// a linear scan.
#[derive(Default)]
struct Model {
    capacity: usize,
    entries: Vec<(Key, Shortcut)>,
}

impl Model {
    fn position(&self, target: &Key) -> Option<usize> {
        self.entries.iter().position(|(t, _)| t == target)
    }

    fn insert(&mut self, target: Key, sc: Shortcut) {
        if self.capacity == 0 {
            return;
        }
        if let Some(at) = self.position(&target) {
            self.entries.remove(at);
        } else if self.entries.len() >= self.capacity {
            self.entries.pop();
        }
        self.entries.insert(0, (target, sc));
    }

    fn hit(&mut self, target: &Key) -> Option<Shortcut> {
        let at = self.position(target)?;
        let entry = self.entries.remove(at);
        self.entries.insert(0, entry);
        Some(self.entries[0].1.clone())
    }

    fn remove(&mut self, target: &Key) -> bool {
        match self.position(target) {
            Some(at) => {
                self.entries.remove(at);
                true
            }
            None => false,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn route_cache_matches_the_naive_lru_and_keeps_its_reverse_index(
        capacity in 0usize..6,
        ops in proptest::collection::vec(op(), 1..80),
    ) {
        let mut cache = RouteCache::new(capacity);
        let mut model = Model { capacity, ..Model::default() };
        for op in ops {
            match op.clone() {
                Op::Insert(target, label, epoch) => {
                    let sc = Shortcut { label, host: Key::from("P"), epoch };
                    cache.insert(target.clone(), sc.clone());
                    model.insert(target, sc);
                }
                Op::Hit(target) => {
                    prop_assert_eq!(cache.hit(&target).cloned(), model.hit(&target));
                }
                Op::Remove(target) => {
                    prop_assert_eq!(cache.remove(&target), model.remove(&target));
                }
                Op::SetCapacity(n) => {
                    cache.set_capacity(n);
                    model.capacity = n;
                    model.entries.truncate(n);
                }
                Op::Clear => {
                    cache.clear();
                    model.entries.clear();
                }
            }
            let got: Vec<(Key, Shortcut)> = cache
                .iter_shortcuts()
                .map(|(t, sc)| (t.clone(), sc.clone()))
                .collect();
            prop_assert_eq!(&got, &model.entries, "MRU order after {:?}", op);
            prop_assert_eq!(cache.len(), model.entries.len());
            prop_assert_eq!(cache.check_index(), Ok(()), "after {:?}", op);
        }
    }
}
