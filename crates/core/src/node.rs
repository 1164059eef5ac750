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
#[derive(Clone, PartialEq, Eq)]
pub struct NodeState {
    /// The node's label — also its identifier in the space `I`.
    pub label: Key,
    /// Father link `f_n` (`None` for the root).
    pub father: Option<Key>,
    /// Child labels `C_n`: a set, kept as an ascending `Vec` without
    /// duplicates (at most one child per alphabet digit in a PGCP
    /// tree, so one short contiguous slice). Edit it through
    /// [`NodeState::add_child`] / [`NodeState::remove_child`] or keep
    /// it sorted; routing's [`NodeState::max_child_le`] binary-searches
    /// it.
    pub children: Vec<Key>,
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
}

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

/// Inserts `k` into the ascending, duplicate-free `set`. Returns false
/// when it was already there.
fn insert_sorted(set: &mut Vec<Key>, k: Key) -> bool {
    match set.binary_search(&k) {
        Ok(_) => false,
        Err(at) => {
            set.insert(at, k);
            true
        }
    }
}

/// Removes `k` from the ascending, duplicate-free `set`. Returns false
/// when it was absent.
fn remove_sorted(set: &mut Vec<Key>, k: &Key) -> bool {
    match set.binary_search(k) {
        Ok(at) => {
            set.remove(at);
            true
        }
        Err(_) => false,
    }
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

    /// Adds child `c`; false if it was already a child.
    pub fn add_child(&mut self, c: Key) -> bool {
        insert_sorted(&mut self.children, c)
    }

    /// Drops child `c`; false if it was not a child.
    pub fn remove_child(&mut self, c: &Key) -> bool {
        remove_sorted(&mut self.children, c)
    }

    /// Registers datum `k`; false if it was already registered.
    pub fn add_datum(&mut self, k: Key) -> bool {
        insert_sorted(&mut self.data, k)
    }

    /// Deregisters datum `k`; false if it was not registered.
    pub fn remove_datum(&mut self, k: &Key) -> bool {
        remove_sorted(&mut self.data, k)
    }

    /// The child with the greatest label `<= target`, i.e.
    /// `Max({q ∈ C_p : q <= target})` from Algorithms 1 and 3.
    pub fn max_child_le(&self, target: &Key) -> Option<&Key> {
        let end = self.children.partition_point(|c| c <= target);
        end.checked_sub(1).map(|i| &self.children[i])
    }

    /// The child with the greatest label `< target` (the host search
    /// of Algorithm 3 descends strictly below the new label).
    pub fn max_child_lt(&self, target: &Key) -> Option<&Key> {
        let end = self.children.partition_point(|c| c < target);
        end.checked_sub(1).map(|i| &self.children[i])
    }

    /// The unique child sharing a strictly longer prefix with `target`
    /// than this node's own label does (children diverge pairwise right
    /// after the label, so at most one qualifies). Where several do —
    /// a transient child set mid-repair — the least qualifying label.
    pub fn child_extending(&self, target: &Key) -> Option<&Key> {
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
                .find(|c| c.as_bytes().get(own) == Some(next))
            {
                // No child matches the branching digit — necessary for
                // a longer shared prefix — so none qualifies.
                None => return None,
                // Verify the invariant actually held for the match.
                Some(c) if c.gcp_len(target) > own => return Some(c),
                Some(_) => {}
            }
        }
        self.children.iter().find(|c| c.gcp_len(target) > own)
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
        assert!(n.children.contains(&k("100")));
        assert!(!n.children.contains(&k("10")));
        // Absent old: no-op.
        n.replace_child(&k("zz"), k("zzz"));
        assert!(!n.children.contains(&k("zzz")));
        assert_eq!(n.children.len(), 2);
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
        n.father = Some(k("10"));
        assert!(!n.is_structural());
        assert!(!n.is_root());
    }
}
