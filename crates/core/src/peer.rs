//! State of one peer and the shard of tree nodes it runs.
//!
//! Section 2 (System Model): peers have distinct identifiers, exchange
//! messages, and each runs one or more logical nodes (`ν_P`). Section 3
//! arranges the peers in a bidirectional ring ordered by identifier:
//! every peer knows its immediate predecessor and successor.
//!
//! [`PeerShard`] bundles a peer's control state with the node states it
//! hosts. Protocol handlers receive exactly one `&mut PeerShard` —
//! the type system thus guarantees a handler never reaches across the
//! network, although one engine hosts every shard in every runtime.
//!
//! A shard's nodes live in a [`NodeMap`]: a slot hint, or one hash
//! probe when the hint is stale, per hop; label order kept beside it
//! for the walks that need ring order.

use crate::directory::FxHasher;
use crate::key::Key;
use crate::node::NodeState;
use std::hash::{BuildHasher, BuildHasherDefault};

/// Control state of one peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerState {
    /// The peer's identifier in the space `I`.
    pub id: Key,
    /// Immediate predecessor on the ring (self when alone).
    pub pred: Key,
    /// Immediate successor on the ring (self when alone).
    pub succ: Key,
    /// Capacity `C`: requests this peer can process per time unit
    /// (Section 4: fixed over time; max/min ratio 4 across the
    /// platform).
    pub capacity: u32,
    /// Requests accepted during the current time unit.
    pub used: u32,
    /// Requests ignored during the current time unit because capacity
    /// was exhausted.
    pub dropped_this_unit: u64,
}

impl PeerState {
    /// A solitary peer: its own predecessor and successor.
    pub fn solitary(id: Key, capacity: u32) -> Self {
        PeerState {
            pred: id.clone(),
            succ: id.clone(),
            id,
            capacity,
            used: 0,
            dropped_this_unit: 0,
        }
    }

    /// True iff the peer can accept one more request this unit.
    pub fn has_capacity(&self) -> bool {
        self.used < self.capacity
    }

    /// Accounts one accepted request. Returns false (and counts a
    /// drop) when the capacity is exhausted — the request must then be
    /// ignored, per Section 4.
    pub fn try_accept(&mut self) -> bool {
        if self.used < self.capacity {
            self.used += 1;
            true
        } else {
            self.dropped_this_unit += 1;
            false
        }
    }

    /// Closes the current time unit.
    pub fn roll_unit(&mut self) {
        self.used = 0;
        self.dropped_this_unit = 0;
    }
}

/// A peer plus the logical nodes it currently runs (`ν_P`).
#[derive(Debug, Clone)]
pub struct PeerShard {
    /// Control state.
    pub peer: PeerState,
    /// Hosted nodes, keyed (and ordered) by label. Ring-segment
    /// reasoning (load balancing, hand-offs) relies on this ordering.
    pub nodes: NodeMap,
    /// Follower copies of nodes whose primary is another peer
    /// (replication extension, `protocol::repair`). Kept apart from
    /// `nodes` so every single-copy invariant — mapping, tree links,
    /// registered-key enumeration — is untouched by replication.
    ///
    /// Routing-shortcut caches are *not* shard state: the engine owns
    /// them per peer (`crate::engine`) and consults them when it admits
    /// a request, so no protocol handler ever sees a cache.
    pub replicas: NodeMap,
}

impl PeerShard {
    /// A fresh shard for a solitary peer.
    pub fn new(id: Key, capacity: u32) -> Self {
        PeerShard {
            peer: PeerState::solitary(id, capacity),
            nodes: NodeMap::default(),
            replicas: NodeMap::default(),
        }
    }

    /// Installs a node on this shard.
    pub fn install(&mut self, node: NodeState) {
        self.nodes.insert(node);
    }

    /// Removes and returns a node.
    pub fn evict(&mut self, label: &Key) -> Option<NodeState> {
        self.nodes.remove(label)
    }

    /// The load `L` of the peer over the last completed unit:
    /// `Σ prev_load` over hosted nodes (Section 3.3).
    pub fn last_unit_load(&self) -> u64 {
        self.nodes.values().map(|n| n.prev_load).sum()
    }

    /// Number of hosted nodes `|ν_P|`.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of follower copies this peer keeps for other primaries.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }
}

/// Node states keyed by label — the storage behind
/// [`PeerShard::nodes`] and [`PeerShard::replicas`].
///
/// The mapping rule piles the tree onto a few peers (at 100 peers the
/// busiest hosts hundreds of nodes), and every hop looks its node up in
/// its host's map. A hop knows where the node sat last
/// ([`NodeMap::find`]'s hint, which the directory keeps per label), so
/// the lookup is one label compare; a stale hint costs one hash and one
/// slab index rather than a tree walk. Three parts:
///
/// * `slab`: the node states, dense, in no particular order (a removal
///   moves the last state into the hole);
/// * `index`: label → slab slot, open addressing with linear probing
///   over `u64` entries — the slot in the low half, the high half of
///   the label's hash in the high half, so a probe reads one small
///   array and compares a label only on a hash match (the label itself
///   lives in the slab, where the probe lands anyway);
/// * `order`: the slots in ascending label order, kept by binary
///   search on insert and remove.
///
/// Ownership changes move *runs*: a join takes the arc `(pred_Q, P]`,
/// a leave hands over all of `ν_L`, an MLT step slides the boundary
/// over a stretch of the ring. [`NodeMap::drain_where`] and
/// [`NodeMap::extend`] move such a run in one pass over `order` and
/// the index plus one hash per moved node, where a `remove`/`insert`
/// loop would pay two binary searches, a memmove of `order` and two
/// probes per node.
///
/// Every ordered read (`keys`, `values`, [`NodeMap::visit_mut`])
/// walks `order`, so slab and index order never reach anything
/// observable; only [`NodeMap::values_mut`], whose callers touch each
/// node alone, walks the slab directly.
#[derive(Debug, Clone, Default)]
pub struct NodeMap {
    slab: Vec<NodeState>,
    index: Vec<u64>,
    order: Vec<u32>,
}

/// A free `index` entry (no slot reaches `u32::MAX`).
const FREE: u64 = u64::MAX;

/// The slot half of an `index` entry; the other half is the label
/// hash's high half.
const SLOT: u64 = u32::MAX as u64;

fn hash_of(label: &Key) -> u64 {
    BuildHasherDefault::<FxHasher>::default().hash_one(label)
}

impl NodeMap {
    /// Number of nodes held.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// True iff no node is held.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// The slot of the node labelled `label`: `hint` itself when that
    /// slot holds it — one label compare on a line the lookup loads
    /// anyway — else the hash probe's answer. Any hint is safe: a stale
    /// or out-of-range one costs exactly the probe.
    #[inline]
    pub fn find(&self, label: &Key, hint: u32) -> Option<u32> {
        match self.slab.get(hint as usize) {
            Some(n) if n.label == *label => Some(hint),
            _ => self.probe(label).ok().map(|(_, slot)| slot as u32),
        }
    }

    /// The node in `slot`, as [`NodeMap::find`] returned it.
    #[inline]
    pub fn at(&self, slot: u32) -> &NodeState {
        &self.slab[slot as usize]
    }

    /// The node in `slot`, mutably. Its label must not change.
    #[inline]
    pub fn at_mut(&mut self, slot: u32) -> &mut NodeState {
        &mut self.slab[slot as usize]
    }

    /// The node labelled `label`.
    pub fn get(&self, label: &Key) -> Option<&NodeState> {
        let slot = self.probe(label).ok()?.1;
        Some(&self.slab[slot])
    }

    /// The node labelled `label`, mutably. Its label must not change.
    pub fn get_mut(&mut self, label: &Key) -> Option<&mut NodeState> {
        let slot = self.probe(label).ok()?.1;
        Some(&mut self.slab[slot])
    }

    /// True iff a node labelled `label` is held.
    pub fn contains_key(&self, label: &Key) -> bool {
        self.probe(label).is_ok()
    }

    /// Stores `node` under its own label, returning the state it
    /// replaces.
    pub fn insert(&mut self, node: NodeState) -> Option<NodeState> {
        if let Some(old) = self.put(node) {
            return Some(old);
        }
        let slot = self.slab.len() - 1;
        let rank = self
            .rank(&self.slab[slot].label)
            .expect_err("a new label is not ordered yet");
        self.order.insert(rank, slot as u32);
        None
    }

    /// Removes and returns the node labelled `label`.
    pub fn remove(&mut self, label: &Key) -> Option<NodeState> {
        let (at, slot) = self.probe(label).ok()?;
        self.unindex(at);
        let rank = self.rank(label).expect("indexed labels are ordered");
        self.order.remove(rank);
        let last = self.slab.len() - 1;
        if slot != last {
            // `swap_remove` moves the last state into the hole: repoint
            // its index entry and its place in the order.
            let moved = &self.slab[last].label;
            let (entry, _) = self.probe(moved).expect("indexed");
            self.index[entry] = self.index[entry] & !SLOT | slot as u64;
            let rank = self.rank(moved).expect("indexed labels are ordered");
            self.order[rank] = slot as u32;
        }
        Some(self.slab.swap_remove(slot))
    }

    /// Removes every node whose label `pick` selects and returns them
    /// in ascending label order: the giving side of a hand-off. One
    /// pass over `order` picks them, in order, so no `rank` is needed;
    /// each picked label is hashed once to leave the index; the kept
    /// nodes above the slab's new end move down into the picked slots
    /// below it, and one sweep over `index` and `order` repoints them.
    /// No kept node is hashed or compared.
    pub fn drain_where(&mut self, mut pick: impl FnMut(&Key) -> bool) -> Vec<NodeState> {
        let slab = &self.slab;
        let mut picked = Vec::new();
        self.order.retain(|&s| {
            let take = pick(&slab[s as usize].label);
            if take {
                picked.push(s);
            }
            !take
        });
        if picked.is_empty() {
            return Vec::new();
        }
        let len = self.slab.len();
        let keep = len - picked.len();
        if keep == 0 {
            self.index.fill(FREE);
        } else {
            for &s in &picked {
                let (at, _) = self
                    .probe(&self.slab[s as usize].label)
                    .expect("held labels are indexed");
                self.unindex(at);
            }
        }
        // Per tail slot (`keep..len`, by offset): whether it is picked,
        // the hole its kept node moves down to, and the run position of
        // the picked node that ends there.
        let mut tail_picked = vec![false; len - keep];
        for &s in &picked {
            if s as usize >= keep {
                tail_picked[s as usize - keep] = true;
            }
        }
        let mut moved_to = vec![0u32; len - keep];
        let mut run_pos = vec![0u32; len - keep];
        let mut kept_tail = (keep..len).filter(|&t| !tail_picked[t - keep]);
        let mut moved = false;
        for (pos, &s) in picked.iter().enumerate() {
            let mut at = s as usize;
            if at < keep {
                // There are as many kept tail slots as picked slots
                // below `keep`.
                let t = kept_tail.next().expect("a kept tail slot per hole");
                self.slab.swap(at, t);
                moved_to[t - keep] = at as u32;
                moved = true;
                at = t;
            }
            run_pos[at - keep] = pos as u32;
        }
        let mut run = self.slab.split_off(keep);
        for i in 0..run.len() {
            while run_pos[i] as usize != i {
                let j = run_pos[i] as usize;
                run.swap(i, j);
                run_pos.swap(i, j);
            }
        }
        if moved {
            for e in &mut self.index {
                let slot = (*e & SLOT) as usize;
                if *e != FREE && slot >= keep {
                    *e = *e & !SLOT | moved_to[slot - keep] as u64;
                }
            }
            for s in &mut self.order {
                if *s as usize >= keep {
                    *s = moved_to[*s as usize - keep];
                }
            }
        }
        run
    }

    /// Stores every node of `run` as [`NodeMap::insert`] would one by
    /// one (a held label's state is replaced), but places the new
    /// labels in `order` with one merge instead of a `rank` each: the
    /// receiving side of a hand-off. `run` may come in any order; a
    /// drained run is ascending, which the sort passes in one scan.
    pub fn extend(&mut self, run: Vec<NodeState>) {
        let first = self.slab.len();
        for node in run {
            self.put(node);
        }
        let (slab, order) = (&self.slab, &mut self.order);
        let label = |s: u32| &slab[s as usize].label;
        let mut fresh: Vec<u32> = (first as u32..slab.len() as u32).collect();
        fresh.sort_by(|&a, &b| label(a).cmp(label(b)));
        // Room pushed one entry at a time, so `order`'s capacity grows
        // exactly as per-node inserts would grow it; then merge from
        // the back.
        let mut i = order.len();
        for _ in &fresh {
            order.push(0);
        }
        let mut j = fresh.len();
        for w in (0..order.len()).rev() {
            if j == 0 {
                break;
            }
            if i > 0 && label(order[i - 1]) > label(fresh[j - 1]) {
                i -= 1;
                order[w] = order[i];
            } else {
                j -= 1;
                order[w] = fresh[j];
            }
        }
    }

    /// Labels in ascending order.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &Key> + ExactSizeIterator + '_ {
        self.values().map(|n| &n.label)
    }

    /// Node states in ascending label order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &NodeState> + ExactSizeIterator + '_ {
        self.order.iter().map(|&s| &self.slab[s as usize])
    }

    /// Calls `f` on every node in ascending label order. `f` must not
    /// change a label.
    pub fn visit_mut(&mut self, mut f: impl FnMut(&mut NodeState)) {
        for &s in &self.order {
            f(&mut self.slab[s as usize]);
        }
    }

    /// Every node state, mutably, in *no* particular order — for edits
    /// that touch each node alone. Labels must not change.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut NodeState> + '_ {
        self.slab.iter_mut()
    }

    /// Heap bytes of the three parts, by capacity. Node-owned heap
    /// (child and data vectors, spilled keys) is the caller's to add.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slab.capacity() * size_of::<NodeState>()
            + self.index.capacity() * size_of::<u64>()
            + self.order.capacity() * size_of::<u32>()
    }

    /// Where an entry's probe starts: the top bits of its hash (a
    /// multiplicative hash mixes its high bits best).
    fn home(&self, entry_or_hash: u64) -> usize {
        (entry_or_hash >> (64 - self.index.len().trailing_zeros())) as usize
    }

    /// The hash probe: `Ok((entry position, slot))` of `label`, or
    /// `Err(free position)` where it would be indexed.
    #[inline]
    fn probe(&self, label: &Key) -> Result<(usize, usize), usize> {
        self.probe_hashed(label, hash_of(label))
    }

    /// [`NodeMap::probe`] for a label whose hash is known.
    #[inline]
    fn probe_hashed(&self, label: &Key, hash: u64) -> Result<(usize, usize), usize> {
        if self.index.is_empty() {
            return Err(0);
        }
        let mask = self.index.len() - 1;
        let mut at = self.home(hash);
        loop {
            let e = self.index[at];
            if e == FREE {
                return Err(at);
            }
            let slot = (e & SLOT) as usize;
            if (e ^ hash) & !SLOT == 0 && self.slab[slot].label == *label {
                return Ok((at, slot));
            }
            at = (at + 1) & mask;
        }
    }

    /// Frees entry `at`, shifting later entries of its probe run back
    /// so every entry stays reachable from its home without tombstones.
    fn unindex(&mut self, at: usize) {
        let mask = self.index.len() - 1;
        let (mut hole, mut next) = (at, at);
        loop {
            next = (next + 1) & mask;
            let e = self.index[next];
            if e == FREE {
                break;
            }
            // The entry may fill the hole iff the hole lies on its
            // probe path, i.e. between its home and where it sits.
            let home = self.home(e);
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.index[hole] = e;
                hole = next;
            }
        }
        self.index[hole] = FREE;
    }

    /// Stores `node` in the slab and the index but not in `order`:
    /// `Some` state it replaced, or `None` when it went to the new last
    /// slot. One hash.
    fn put(&mut self, node: NodeState) -> Option<NodeState> {
        let hash = hash_of(&node.label);
        if let Ok((_, slot)) = self.probe_hashed(&node.label, hash) {
            return Some(std::mem::replace(&mut self.slab[slot], node));
        }
        let slot = self.slab.len();
        self.slab.push(node);
        // Keep the index at most half full.
        if 2 * self.slab.len() > self.index.len() {
            self.grow_index((2 * self.index.len()).max(8));
        }
        self.place(hash & !SLOT | slot as u64);
        None
    }

    /// Stores `entry`, whose label is not indexed, at the first free
    /// position from its home.
    fn place(&mut self, entry: u64) {
        let mask = self.index.len() - 1;
        let mut at = self.home(entry);
        while self.index[at] != FREE {
            at = (at + 1) & mask;
        }
        self.index[at] = entry;
    }

    /// Re-indexes into `len` (a power of two) entries. An entry carries
    /// its hash's high half, which is all a home needs, so no label is
    /// hashed again.
    fn grow_index(&mut self, len: usize) {
        let old = std::mem::replace(&mut self.index, vec![FREE; len]);
        for e in old {
            if e != FREE {
                self.place(e);
            }
        }
    }

    /// Position of `label` in `order` (`Err`: where it would go).
    fn rank(&self, label: &Key) -> Result<usize, usize> {
        self.order
            .binary_search_by(|&s| self.slab[s as usize].label.cmp(label))
    }
}

impl std::ops::Index<&Key> for NodeMap {
    type Output = NodeState;

    fn index(&self, label: &Key) -> &NodeState {
        self.get(label).expect("label is held")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    #[test]
    fn solitary_peer_loops_to_itself() {
        let p = PeerState::solitary(k("M"), 10);
        assert_eq!(p.pred, k("M"));
        assert_eq!(p.succ, k("M"));
    }

    #[test]
    fn capacity_accounting() {
        let mut p = PeerState::solitary(k("M"), 2);
        assert!(p.try_accept());
        assert!(p.try_accept());
        assert!(!p.try_accept());
        assert!(!p.has_capacity());
        assert_eq!(p.used, 2);
        assert_eq!(p.dropped_this_unit, 1);
        p.roll_unit();
        assert_eq!(p.used, 0);
        assert_eq!(p.dropped_this_unit, 0);
        assert!(p.has_capacity());
    }

    #[test]
    fn shard_install_evict_and_load() {
        let mut s = PeerShard::new(k("M"), 10);
        let mut n1 = NodeState::new(k("A"));
        n1.prev_load = 5;
        let mut n2 = NodeState::new(k("B"));
        n2.prev_load = 7;
        s.install(n1);
        s.install(n2);
        assert_eq!(s.node_count(), 2);
        assert_eq!(s.last_unit_load(), 12);
        let got = s.evict(&k("A")).unwrap();
        assert_eq!(got.label, k("A"));
        assert_eq!(s.node_count(), 1);
        assert!(s.evict(&k("A")).is_none());
    }

    #[test]
    fn shard_nodes_are_ordered_by_label() {
        let mut s = PeerShard::new(k("Z"), 1);
        for l in ["C", "A", "B"] {
            s.install(NodeState::new(k(l)));
        }
        let labels: Vec<&Key> = s.nodes.keys().collect();
        assert_eq!(labels, vec![&k("A"), &k("B"), &k("C")]);
    }
}
