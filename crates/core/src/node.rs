//! State of one logical tree node.
//!
//! Section 3: "Each node `n` maintains a father `f_n`, a set of
//! children `C_n` and the set of all data `δ_n` associated with the key
//! `k = n`." We additionally keep the per-time-unit request counter
//! the MLT balancer consumes (Section 3.3: "each peer sends the number
//! of requests received during this time unit, for each node it runs,
//! to its predecessor").

use crate::key::Key;
use std::fmt;

/// A logical vertex of the distributed PGCP tree.
///
/// The tree links are private: every write goes through an edit
/// method ([`NodeState::set_father`], [`NodeState::add_child`],
/// [`NodeState::remove_child`], [`NodeState::replace_child`],
/// [`NodeState::set_children`], [`NodeState::retain_children`]), so
/// each link's memoised label id (below) is reset by the one edit
/// that can change what the link names.
#[derive(Clone)]
pub struct NodeState {
    /// The node's label — also its identifier in the space `I`.
    pub label: Key,
    /// Father link `f_n` (`None` for the root).
    father: Option<Key>,
    /// Child labels `C_n`: a set, kept as an ascending `Vec` without
    /// duplicates (at most one child per alphabet digit in a PGCP
    /// tree, so one short contiguous slice); routing's
    /// [`NodeState::max_child_le`] binary-searches it.
    children: Vec<Key>,
    /// Data set `δ_n`: service keys registered on this node, ascending
    /// and without duplicates like `children`. By the placement rule a
    /// key is stored on the node sharing its label, so the set is
    /// `{label}` when the service is registered and empty for purely
    /// structural nodes.
    pub data: Vec<Key>,
    /// Requests received during the *current* time unit (`l_n` while
    /// it accumulates). Counts offered demand, including requests the
    /// hosting peer had to ignore for lack of capacity.
    pub load: u64,
    /// `l_n` of the last completed time unit — the history MLT uses.
    pub prev_load: u64,
    /// The engine directory's interned id of `father`, or
    /// `UNRESOLVED`. A memo, filled by the first hop over the link
    /// and reset by every edit of it: interned ids are never freed, so
    /// a filled id names the link's label for the engine's lifetime.
    /// Engine-local bookkeeping like directory epochs — never printed,
    /// compared or serialized.
    father_id: u32,
    /// The interned ids of `children`, index-aligned with it; each
    /// entry a memo like `father_id`.
    child_ids: Vec<u32>,
}

/// A link id no hop has resolved since the link was last edited.
const UNRESOLVED: u32 = u32::MAX;

/// One of a node's tree links: the one a routing decision follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// The father link `f_n`.
    Father,
    /// The child at this index of [`NodeState::children`].
    Child(u32),
}

// Equality is the paper's node state: label, links, data and loads.
// The link-id memos are not part of it.
impl PartialEq for NodeState {
    fn eq(&self, other: &Self) -> bool {
        self.label == other.label
            && self.father == other.father
            && self.children == other.children
            && self.data == other.data
            && self.load == other.load
            && self.prev_load == other.prev_load
    }
}

impl Eq for NodeState {}

// `Debug` prints `children` and `data` as the sets they are (`{..}`),
// the form the committed golden fingerprints pin.
impl fmt::Debug for NodeState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Set<'a>(&'a [Key]);
        impl fmt::Debug for Set<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_set().entries(self.0).finish()
            }
        }
        f.debug_struct("NodeState")
            .field("label", &self.label)
            .field("father", &self.father)
            .field("children", &Set(&self.children))
            .field("data", &Set(&self.data))
            .field("load", &self.load)
            .field("prev_load", &self.prev_load)
            .finish()
    }
}

/// Inserts `k` into the ascending, duplicate-free `set`. Returns where
/// it went, or `None` when it was already there.
fn insert_sorted(set: &mut Vec<Key>, k: Key) -> Option<usize> {
    let at = set.binary_search(&k).err()?;
    set.insert(at, k);
    Some(at)
}

/// Removes `k` from the ascending, duplicate-free `set`. Returns where
/// it was, or `None` when it was absent.
fn remove_sorted(set: &mut Vec<Key>, k: &Key) -> Option<usize> {
    let at = set.binary_search(k).ok()?;
    set.remove(at);
    Some(at)
}

/// Sorts `keys` and drops duplicates: the set form `children` and
/// `data` are kept in, from any list.
pub fn key_set(mut keys: Vec<Key>) -> Vec<Key> {
    keys.sort_unstable();
    keys.dedup();
    keys
}

impl NodeState {
    /// A fresh node with the given label and no links.
    pub fn new(label: Key) -> Self {
        NodeState {
            label,
            father: None,
            children: Vec::new(),
            data: Vec::new(),
            load: 0,
            prev_load: 0,
            father_id: UNRESOLVED,
            child_ids: Vec::new(),
        }
    }

    /// True iff this node only exists to preserve the PGCP shape
    /// (the "non-filled" nodes of Figure 1).
    pub fn is_structural(&self) -> bool {
        self.data.is_empty()
    }

    /// True iff this node is the tree root.
    pub fn is_root(&self) -> bool {
        self.father.is_none()
    }

    /// The father link `f_n` (`None` for the root).
    #[inline]
    pub fn father(&self) -> Option<&Key> {
        self.father.as_ref()
    }

    /// The child labels `C_n`, ascending.
    #[inline]
    pub fn children(&self) -> &[Key] {
        &self.children
    }

    /// Sets the father link.
    pub fn set_father(&mut self, father: Option<Key>) {
        self.father = father;
        self.father_id = UNRESOLVED;
    }

    /// Replaces the whole child set by `children`, given in any order
    /// and possibly with duplicates.
    pub fn set_children(&mut self, children: Vec<Key>) {
        self.children = key_set(children);
        self.child_ids.clear();
        self.child_ids.resize(self.children.len(), UNRESOLVED);
    }

    /// Adds child `c`; false if it was already a child.
    pub fn add_child(&mut self, c: Key) -> bool {
        let at = insert_sorted(&mut self.children, c);
        if let Some(at) = at {
            self.child_ids.insert(at, UNRESOLVED);
        }
        at.is_some()
    }

    /// Drops child `c`; false if it was not a child.
    pub fn remove_child(&mut self, c: &Key) -> bool {
        let at = remove_sorted(&mut self.children, c);
        if let Some(at) = at {
            self.child_ids.remove(at);
        }
        at.is_some()
    }

    /// Keeps only the children `keep` accepts; the kept links keep
    /// their ids.
    pub fn retain_children(&mut self, mut keep: impl FnMut(&Key) -> bool) {
        let mut kept = 0;
        for i in 0..self.children.len() {
            if keep(&self.children[i]) {
                self.children.swap(kept, i);
                self.child_ids.swap(kept, i);
                kept += 1;
            }
        }
        self.children.truncate(kept);
        self.child_ids.truncate(kept);
    }

    /// The memoised label id of `link`, if a hop has resolved it since
    /// the link was last edited.
    #[inline]
    pub(crate) fn link_id(&self, link: Link) -> Option<u32> {
        let id = match link {
            Link::Father => self.father_id,
            Link::Child(i) => self.child_ids[i as usize],
        };
        (id != UNRESOLVED).then_some(id)
    }

    /// Memoises `id` as the label id of `link`. The caller resolved it
    /// from the link's current label.
    #[inline]
    pub(crate) fn remember_link_id(&mut self, link: Link, id: u32) {
        match link {
            Link::Father => self.father_id = id,
            Link::Child(i) => self.child_ids[i as usize] = id,
        }
    }

    /// Every link with a memoised id, as `(label, id)`.
    pub(crate) fn memoised_links(&self) -> impl Iterator<Item = (&Key, u32)> + '_ {
        let father = self.father.iter().map(|f| (f, self.father_id));
        let children = self.children.iter().zip(self.child_ids.iter().copied());
        father.chain(children).filter(|&(_, id)| id != UNRESOLVED)
    }

    /// Heap bytes of the child, child-id and data vectors, by
    /// capacity.
    pub(crate) fn vec_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.children.capacity() + self.data.capacity()) * size_of::<Key>()
            + self.child_ids.capacity() * size_of::<u32>()
    }

    /// Forgets every memoised link id.
    #[cfg(test)]
    pub(crate) fn forget_link_ids(&mut self) {
        self.father_id = UNRESOLVED;
        self.child_ids.fill(UNRESOLVED);
    }

    /// Registers datum `k`; false if it was already registered.
    pub fn add_datum(&mut self, k: Key) -> bool {
        insert_sorted(&mut self.data, k).is_some()
    }

    /// Deregisters datum `k`; false if it was not registered.
    pub fn remove_datum(&mut self, k: &Key) -> bool {
        remove_sorted(&mut self.data, k).is_some()
    }

    /// The child with the greatest label `<= target`, i.e.
    /// `Max({q ∈ C_p : q <= target})` from Algorithms 1 and 3.
    pub fn max_child_le(&self, target: &Key) -> Option<&Key> {
        self.max_child_le_at(target).map(|i| &self.children[i])
    }

    /// The index in [`NodeState::children`] of
    /// [`NodeState::max_child_le`]'s child.
    pub fn max_child_le_at(&self, target: &Key) -> Option<usize> {
        self.children
            .partition_point(|c| c <= target)
            .checked_sub(1)
    }

    /// The child with the greatest label `< target` (the host search
    /// of Algorithm 3 descends strictly below the new label).
    pub fn max_child_lt(&self, target: &Key) -> Option<&Key> {
        self.max_child_lt_at(target).map(|i| &self.children[i])
    }

    /// The index in [`NodeState::children`] of
    /// [`NodeState::max_child_lt`]'s child.
    pub fn max_child_lt_at(&self, target: &Key) -> Option<usize> {
        self.children.partition_point(|c| c < target).checked_sub(1)
    }

    /// The unique child sharing a strictly longer prefix with `target`
    /// than this node's own label does (children diverge pairwise right
    /// after the label, so at most one qualifies). Where several do —
    /// a transient child set mid-repair — the least qualifying label.
    pub fn child_extending(&self, target: &Key) -> Option<&Key> {
        self.child_extending_at(target).map(|i| &self.children[i])
    }

    /// The index in [`NodeState::children`] of
    /// [`NodeState::child_extending`]'s child.
    pub fn child_extending_at(&self, target: &Key) -> Option<usize> {
        let own = self.label.gcp_len(target);
        // A child qualifies iff it shares the target's first `own + 1`
        // digits — which requires its digit at `own` to match the
        // target's. Scanning on that single digit is enough to rule a
        // child in or out when the PGCP invariant (children extend the
        // label) holds; the full-prefix scan below stays as the
        // fallback for transient trees mid-repair.
        if own == self.label.len() {
            let Some(next) = target.as_bytes().get(own) else {
                // `target == label`: no child can share a longer prefix.
                return None;
            };
            match self
                .children
                .iter()
                .position(|c| c.as_bytes().get(own) == Some(next))
            {
                // No child matches the branching digit — necessary for
                // a longer shared prefix — so none qualifies.
                None => return None,
                // Verify the invariant actually held for the match.
                Some(i) if self.children[i].gcp_len(target) > own => return Some(i),
                Some(_) => {}
            }
        }
        self.children.iter().position(|c| c.gcp_len(target) > own)
    }

    /// Replaces child `old` by `new` (the `UpdateChild` message); no-op
    /// if `old` is absent.
    pub fn replace_child(&mut self, old: &Key, new: Key) {
        if self.remove_child(old) {
            self.add_child(new);
        }
    }

    /// Closes the current time unit: archive `load` into `prev_load`
    /// and reset the accumulator.
    pub fn roll_unit(&mut self) {
        self.prev_load = self.load;
        self.load = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    fn node_with_children(label: &str, children: &[&str]) -> NodeState {
        let mut n = NodeState::new(k(label));
        for c in children {
            n.add_child(k(c));
        }
        n
    }

    #[test]
    fn max_child_le_picks_greatest_at_or_below() {
        let n = node_with_children("1", &["10", "110", "111"]);
        assert_eq!(n.max_child_le(&k("110")), Some(&k("110")));
        assert_eq!(n.max_child_le(&k("1101")), Some(&k("110")));
        assert_eq!(n.max_child_le(&k("10")), Some(&k("10")));
        assert_eq!(n.max_child_le(&k("0")), None);
        assert_eq!(n.max_child_le(&k("zzz")), Some(&k("111")));
    }

    #[test]
    fn child_extending_finds_unique_branch() {
        // Valid PGCP children of "10" diverge right after it.
        let n = node_with_children("10", &["1001", "1011"]);
        assert_eq!(n.child_extending(&k("10111")), Some(&k("1011")));
        assert_eq!(n.child_extending(&k("100")), Some(&k("1001")));
        // Next digit matches no child branch → none extends.
        let n2 = node_with_children("1", &["10", "11"]);
        assert_eq!(n2.child_extending(&k("1")), None);
    }

    #[test]
    fn replace_child_swaps_in_place() {
        let mut n = node_with_children("1", &["10", "11"]);
        n.replace_child(&k("10"), k("100"));
        assert!(n.children().contains(&k("100")));
        assert!(!n.children().contains(&k("10")));
        // Absent old: no-op.
        n.replace_child(&k("zz"), k("zzz"));
        assert!(!n.children().contains(&k("zzz")));
        assert_eq!(n.children().len(), 2);
    }

    #[test]
    fn roll_unit_archives_load() {
        let mut n = NodeState::new(k("a"));
        n.load = 17;
        n.roll_unit();
        assert_eq!(n.prev_load, 17);
        assert_eq!(n.load, 0);
    }

    #[test]
    fn structural_and_root_predicates() {
        let mut n = NodeState::new(k("101"));
        assert!(n.is_structural());
        assert!(n.is_root());
        n.add_datum(k("101"));
        n.set_father(Some(k("10")));
        assert!(!n.is_structural());
        assert!(!n.is_root());
    }

    /// Every link memoised, with its label's index in `universe` as
    /// the id.
    fn fill(n: &mut NodeState, universe: &[Key]) {
        let id = |l: &Key| universe.iter().position(|u| u == l).unwrap() as u32;
        if let Some(f) = n.father().map(id) {
            n.remember_link_id(Link::Father, f);
        }
        for i in 0..n.children().len() {
            n.remember_link_id(Link::Child(i as u32), id(&n.children()[i]));
        }
    }

    fn child_ids(n: &NodeState) -> Vec<Option<u32>> {
        (0..n.children().len() as u32)
            .map(|i| n.link_id(Link::Child(i)))
            .collect()
    }

    #[test]
    fn each_edit_resets_exactly_the_links_it_writes() {
        let universe: Vec<Key> = ["1", "10", "11", "12", "13"].map(k).to_vec();
        let mut n = node_with_children("1", &["10", "12"]);
        n.set_father(Some(k("13")));
        fill(&mut n, &universe);
        assert_eq!(n.link_id(Link::Father), Some(4));
        assert_eq!(child_ids(&n), [Some(1), Some(3)]);
        n.add_child(k("11"));
        assert_eq!(child_ids(&n), [Some(1), None, Some(3)]);
        n.replace_child(&k("12"), k("13"));
        assert_eq!(child_ids(&n), [Some(1), None, None]);
        n.remove_child(&k("10"));
        assert_eq!(child_ids(&n), [None, None]);
        fill(&mut n, &universe);
        n.retain_children(|c| c != &k("11"));
        assert_eq!(child_ids(&n), [Some(4)]);
        n.set_children(vec![k("13"), k("10"), k("13")]);
        assert_eq!(n.children(), [k("10"), k("13")]);
        assert_eq!(child_ids(&n), [None, None]);
        assert_eq!(
            n.link_id(Link::Father),
            Some(4),
            "child edits leave the father"
        );
        n.set_father(Some(k("13")));
        assert_eq!(
            n.link_id(Link::Father),
            None,
            "every write resets, even an equal one"
        );
    }

    #[derive(Debug, Clone)]
    enum Edit {
        Add(usize),
        Remove(usize),
        Replace(usize, usize),
        /// Keeps the children whose universe index has this bit clear.
        Retain(usize),
        Set(Vec<usize>),
        Father(Option<usize>),
        Fill,
    }

    proptest! {
        /// The child ids stay index-aligned with the children under any
        /// edit sequence; an edit resets the links it writes and keeps
        /// every other link's id.
        #[test]
        fn link_ids_stay_aligned_under_any_edits(
            edits in proptest::collection::vec(
                prop_oneof![
                    (0usize..8).prop_map(Edit::Add),
                    (0usize..8).prop_map(Edit::Add),
                    (0usize..8).prop_map(Edit::Remove),
                    (0usize..8, 0usize..8).prop_map(|(a, b)| Edit::Replace(a, b)),
                    (0usize..3).prop_map(Edit::Retain),
                    proptest::collection::vec(0usize..8, 0..5).prop_map(Edit::Set),
                    (0usize..9).prop_map(|f| Edit::Father((f < 8).then_some(f))),
                    Just(Edit::Fill),
                    Just(Edit::Fill),
                ],
                0..40,
            )
        ) {
            let universe: Vec<Key> = (0..8).map(|i| k(&format!("1{i}"))).collect();
            let mut n = NodeState::new(k("1"));
            // The model: each child and father with the id it must hold.
            let mut model: BTreeMap<Key, Option<u32>> = BTreeMap::new();
            let mut father: (Option<Key>, Option<u32>) = (None, None);
            for edit in edits {
                match edit {
                    Edit::Add(c) => {
                        n.add_child(universe[c].clone());
                        model.entry(universe[c].clone()).or_insert(None);
                    }
                    Edit::Remove(c) => {
                        n.remove_child(&universe[c]);
                        model.remove(&universe[c]);
                    }
                    Edit::Replace(old, new) => {
                        n.replace_child(&universe[old], universe[new].clone());
                        if model.remove(&universe[old]).is_some() {
                            model.entry(universe[new].clone()).or_insert(None);
                        }
                    }
                    Edit::Retain(bit) => {
                        let keep = |c: &Key| universe.iter().position(|u| u == c).unwrap() & (1 << bit) == 0;
                        n.retain_children(keep);
                        model.retain(|c, _| keep(c));
                    }
                    Edit::Set(list) => {
                        let list: Vec<Key> = list.into_iter().map(|c| universe[c].clone()).collect();
                        n.set_children(list.clone());
                        model = list.into_iter().map(|c| (c, None)).collect();
                    }
                    Edit::Father(f) => {
                        n.set_father(f.map(|f| universe[f].clone()));
                        father = (f.map(|f| universe[f].clone()), None);
                    }
                    Edit::Fill => {
                        fill(&mut n, &universe);
                        let id = |l: &Key| universe.iter().position(|u| u == l).map(|i| i as u32);
                        father.1 = father.0.as_ref().and_then(id);
                        for (c, slot) in model.iter_mut() {
                            *slot = id(c);
                        }
                    }
                }
                prop_assert_eq!(n.child_ids.len(), n.children().len());
                prop_assert!(n.children().iter().eq(model.keys()));
                prop_assert_eq!(child_ids(&n), model.values().copied().collect::<Vec<_>>());
                prop_assert_eq!(n.father(), father.0.as_ref());
                prop_assert_eq!(n.link_id(Link::Father), father.1);
            }
        }
    }
}
