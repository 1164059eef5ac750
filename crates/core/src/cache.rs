//! Hot-path routing shortcuts: a per-peer LRU cache with epoch
//! invalidation.
//!
//! Under load, the paper's satisfaction curves degrade precisely
//! because every discovery request climbs toward the upper tree before
//! descending, so the root region of the DLPT is a hotspot no matter
//! how well MLT/KC spread the nodes. Caching popular routes near the
//! entry points is the classic remedy the DLPT line of work itself
//! pursued (Caron et al., *Optimization in a Self-Stabilizing Service
//! Discovery Framework for Large Scale Systems*), and shortcut links
//! are how tree overlays reach optimal lookup bounds (*Optimally
//! Efficient Prefix Search and Multicast in Structured P2P Networks*).
//!
//! Every peer keeps a fixed-capacity [`RouteCache`] mapping a query
//! *target* (the label region a request must reach, [`crate::messages::QueryKind::target`])
//! to a [`Shortcut`]: the covering node's label, its hosting peer, and
//! the label's *epoch* at learning time. The cache is consulted when a
//! request enters the overlay: on a hit the request is delivered
//! straight to the covering node in `Down` phase — one directory hop
//! instead of the `O(depth)` up/down climb.
//!
//! ## Why stale hits are safe
//!
//! Correctness rests on two facts:
//!
//! 1. Labels are *semantic*: a node labelled `l` covers target `t` iff
//!    `l` is a prefix of `t` — a property of the strings alone, not of
//!    the tree's current shape. Descending ([`crate::protocol::discovery`])
//!    from any live node whose label prefixes the target yields exactly
//!    the same results as the full up/down route.
//! 2. The runtime validates every hit against its authoritative
//!    directory before forwarding: the cached label must still be live
//!    *and* its per-label epoch ([`crate::directory::Directory`]) must
//!    equal the epoch recorded in the shortcut. Every structural
//!    mutation of a node — insert/remove child, relocation by the
//!    MLT/KC balancers, crash promotion, dissolution — bumps the
//!    label's epoch, so a mismatch marks the shortcut stale. A stale
//!    hit is *evicted* and the request falls back to the normal
//!    up/down route; the cache can therefore never change a result,
//!    only the route taken to compute it.
//!
//! ## What eager invalidation costs
//!
//! Epoch checks make invalidation lazy and free. When a node dissolves
//! or migrates, every shortcut through its label is a guaranteed stale
//! hit, so the engine additionally tells every peer to drop it
//! ([`crate::messages::PeerMsg::InvalidateCached`]) before anyone pays
//! the fallback. That is one invalidation per peer per event, and
//! registration churn makes the events common: on the benchmark's
//! `register_churn` workload (100 peers, capacity 256) a write —
//! `remove_data` + `insert_data` — delivers 122 invalidations. Sent as
//! 122 envelopes through the synchronous pump, each ending in a walk of
//! the receiving peer's whole LRU list, the broadcast was ~18 µs of a
//! ~28 µs write: `remove_data` took 24.4 µs beside `insert_data`
//! (which dissolves nothing) at 5.4 µs. Two things make it cost what
//! it does — drop at most one entry per peer:
//!
//! * [`RouteCache`] keeps a reverse index `label → slots` (its one
//!   hash index, serving a key both as target and as label), so
//!   [`RouteCache::invalidate_label`] is one hash probe plus the epoch
//!   check on the (usually zero or one) slots routing through the
//!   label, and allocates nothing;
//! * on a transport whose
//!   [`synchronous`](crate::engine::Transport::synchronous) is true the
//!   engine, which owns every cache, applies the invalidation to each
//!   peer's cache inline instead of round-tripping 122 envelopes
//!   through the queue (`Engine::queue_invalidations`).
//!   Every other transport keeps the per-peer message, so its loss,
//!   delay and reordering stay injectable.
//!
//! With both, `remove_data` on that workload takes 5.6 µs beside
//! `insert_data` at 5.0 µs, and the workload runs 2.6× the operations
//! per second (DESIGN.md §Caching & invalidation has the method).
//!
//! With capacity 0 (the default) the cache is fully inert: no entries,
//! no messages, no counters — the system is byte-identical to the
//! uncached golden fingerprint.

use crate::directory::{Directory, FxHashMap};
use crate::key::Key;
use crate::messages::{DiscoveryMsg, Envelope, NodeMsg, QueryKind, RoutePhase};
use std::collections::hash_map;

/// Sentinel index meaning "no neighbour" in the intrusive lists.
const NIL: u32 = u32::MAX;

/// One learned routing shortcut: where a query target's covering node
/// lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shortcut {
    /// Label of the node covering the target region (for exact
    /// queries, the node owning the key itself).
    pub label: Key,
    /// The peer hosting that node when the shortcut was learned — the
    /// address a deployment's entry peer would dial directly. The
    /// in-repo runtimes address envelopes logically (`Address::Node`)
    /// and resolve the live host through the authoritative directory
    /// at delivery, so here the field is carried for protocol
    /// fidelity, not consulted for routing.
    pub host: Key,
    /// The label's directory epoch at learning time; a mismatch at
    /// consult time marks the shortcut stale.
    pub epoch: u64,
}

/// One slot: a member of the LRU list and of the chain of slots whose
/// shortcut routes through the same label.
#[derive(Debug, Clone)]
struct Slot {
    target: Key,
    shortcut: Shortcut,
    prev: u32,
    next: u32,
    /// Neighbours in the chain of slots sharing `shortcut.label`
    /// ([`Entry::chain`]).
    label_prev: u32,
    label_next: u32,
}

/// What the index knows about one key, in both roles a key can play.
/// An exact lookup teaches `label == target`, so one entry usually
/// serves both and the reverse index costs no map entries of its own.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// As a query target: the slot caching its shortcut (NIL if none).
    slot: u32,
    /// As a shortcut label: the first of the chain of live slots
    /// routing through it (NIL if none).
    chain: u32,
}

const VACANT: Entry = Entry {
    slot: NIL,
    chain: NIL,
};

/// A fixed-capacity LRU map `query target → Shortcut`.
///
/// Implemented as an index-based intrusive doubly-linked list over a
/// slot vector plus a hash index, so hits, inserts and evictions are
/// all O(1) and fully deterministic (the iteration order of the
/// internal map is never observed). The same index is the reverse
/// index `label → slots`: it names the head of a second intrusive
/// chain through the slots routing via each label, which makes eager
/// invalidation O(entries through that label). Capacity 0 disables the
/// cache entirely.
#[derive(Debug, Clone)]
pub struct RouteCache {
    capacity: usize,
    slots: Vec<Slot>,
    /// key → its slot as a target, its chain as a label. An entry
    /// lives while either is set.
    index: FxHashMap<Key, Entry>,
    /// Number of cached shortcuts (live slots).
    len: usize,
    /// Most-recently-used slot (NIL when empty).
    head: u32,
    /// Least-recently-used slot (NIL when empty).
    tail: u32,
    /// First of the slots left by removals, chained through `next`
    /// (NIL when none): recycling a slot never allocates.
    free: u32,
}

impl Default for RouteCache {
    /// A disabled (capacity 0) cache. A manual impl because the
    /// derived one would zero `head`/`tail` instead of the `NIL`
    /// sentinel, corrupting the intrusive list.
    fn default() -> Self {
        RouteCache::new(0)
    }
}

impl RouteCache {
    /// A cache holding at most `capacity` shortcuts (0 = disabled).
    pub fn new(capacity: usize) -> Self {
        RouteCache {
            capacity,
            slots: Vec::new(),
            index: FxHashMap::default(),
            len: 0,
            head: NIL,
            tail: NIL,
            free: NIL,
        }
    }

    /// Reconfigures the capacity; shrinking evicts from the LRU end.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.len > self.capacity {
            self.evict_lru();
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached shortcuts.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no shortcuts are cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up `target`, promoting the entry to most-recently-used.
    pub fn hit(&mut self, target: &Key) -> Option<&Shortcut> {
        let i = self.hit_slot(target)?;
        Some(&self.slots[i as usize].shortcut)
    }

    /// [`RouteCache::hit`], returning the promoted slot's index.
    fn hit_slot(&mut self, target: &Key) -> Option<u32> {
        let i = self.slot_of(target)?;
        self.unlink(i);
        self.push_front(i);
        Some(i)
    }

    /// The slot caching `target`'s shortcut.
    fn slot_of(&self, target: &Key) -> Option<u32> {
        self.index.get(target).map(|e| e.slot).filter(|&i| i != NIL)
    }

    /// Inserts (or refreshes) the shortcut for `target`, evicting the
    /// least-recently-used entry on overflow. No-op at capacity 0.
    pub fn insert(&mut self, target: Key, shortcut: Shortcut) {
        if self.capacity == 0 {
            return;
        }
        if let Some(i) = self.slot_of(&target) {
            let relabel = self.slots[i as usize].shortcut.label != shortcut.label;
            if relabel {
                self.unlink_label(i);
            }
            self.slots[i as usize].shortcut = shortcut;
            if relabel {
                self.link_label(i);
            }
            self.unlink(i);
            self.push_front(i);
            return;
        }
        if self.len >= self.capacity {
            self.evict_lru();
        }
        let slot = Slot {
            target: target.clone(),
            shortcut,
            prev: NIL,
            next: NIL,
            label_prev: NIL,
            label_next: NIL,
        };
        let i = if self.free != NIL {
            let i = self.free;
            self.free = self.slots[i as usize].next;
            self.slots[i as usize] = slot;
            i
        } else {
            self.slots.push(slot);
            (self.slots.len() - 1) as u32
        };
        self.index.entry(target).or_insert(VACANT).slot = i;
        self.len += 1;
        self.link_label(i);
        self.push_front(i);
    }

    /// Removes the shortcut for `target`; returns true iff present.
    pub fn remove(&mut self, target: &Key) -> bool {
        match self.slot_of(target) {
            Some(i) => {
                self.remove_slot(i);
                true
            }
            None => false,
        }
    }

    /// Drops every shortcut routing through node `label` whose epoch is
    /// `<= epoch` (the eager-invalidation handler: later-learned
    /// shortcuts already carry a fresher epoch and survive a reordered
    /// invalidation). Returns how many entries were dropped. One probe
    /// of the index, then only the slots routing through `label` are
    /// visited; never allocates.
    pub fn invalidate_label(&mut self, label: &Key, epoch: u64) -> usize {
        let mut dropped = 0;
        let mut i = self.index.get(label).map_or(NIL, |e| e.chain);
        while i != NIL {
            let next = self.slots[i as usize].label_next;
            if self.slots[i as usize].shortcut.epoch <= epoch {
                self.remove_slot(i);
                dropped += 1;
            }
            i = next;
        }
        dropped
    }

    /// Live `(target, shortcut)` entries in most-recently-used order
    /// (a deterministic walk of the intrusive list — the hash index's
    /// iteration order is never observed). Read-only: unlike
    /// [`RouteCache::hit`], iterating does not promote entries.
    pub fn iter_shortcuts(&self) -> impl Iterator<Item = (&Key, &Shortcut)> + '_ {
        let mut i = self.head;
        std::iter::from_fn(move || {
            if i == NIL {
                return None;
            }
            let s = &self.slots[i as usize];
            i = s.next;
            Some((&s.target, &s.shortcut))
        })
    }

    /// Estimated resident bytes: the slot vector, the index (fixed
    /// per-entry estimate) and any spilled keys held by live slots.
    pub fn bytes_estimate(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = self.slots.capacity() * size_of::<Slot>()
            + self.index.len() * (size_of::<(Key, Entry)>() + 8);
        for (target, sc) in self.iter_shortcuts() {
            for k in [target, &sc.label, &sc.host] {
                if !k.is_inline() {
                    bytes += k.len() + 16;
                }
            }
        }
        bytes
    }

    /// Drops everything (capacity is retained).
    pub fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.len = 0;
        self.free = NIL;
        self.head = NIL;
        self.tail = NIL;
    }

    /// Checks that the index and both intrusive lists describe the same
    /// set of live slots; the error says what disagrees. Read-only, for
    /// [`crate::engine::Engine::audit`] and the model test.
    pub fn check_index(&self) -> Result<(), String> {
        let slot_of = |key: &Key| self.index.get(key).map_or(NIL, |e| e.slot);
        let mut live = 0usize;
        let mut i = self.head;
        while i != NIL {
            let s = &self.slots[i as usize];
            if slot_of(&s.target) != i {
                return Err(format!("listed target {} is not indexed", s.target));
            }
            live += 1;
            if live > self.len {
                break;
            }
            i = s.next;
        }
        if live != self.len {
            return Err(format!("{live}+ listed slots, len {}", self.len));
        }
        // Listed slots are indexed at distinct targets, so `live`
        // entries with a slot means no entry names a dead one. Every
        // chain member is a live slot under the right label, so chains
        // are disjoint, and a repeat within one would never end:
        // `live` members in total covers each live slot exactly once.
        let (mut targets, mut chained) = (0usize, 0usize);
        for (key, e) in &self.index {
            if e.slot == NIL && e.chain == NIL {
                return Err(format!("vacant entry kept for {key}"));
            }
            targets += (e.slot != NIL) as usize;
            let (mut prev, mut j) = (NIL, e.chain);
            while j != NIL {
                let s = &self.slots[j as usize];
                if s.shortcut.label != *key || s.label_prev != prev {
                    return Err(format!("chain of {key} is broken at slot {j}"));
                }
                if slot_of(&s.target) != j {
                    return Err(format!("chain of {key} holds dead slot {j}"));
                }
                chained += 1;
                if chained > live {
                    return Err(format!("chain of {key} does not terminate"));
                }
                (prev, j) = (j, s.label_next);
            }
        }
        if targets != live || chained != live {
            return Err(format!(
                "{targets} indexed targets, {chained} chained slots, {live} live"
            ));
        }
        Ok(())
    }

    fn evict_lru(&mut self) {
        if self.tail != NIL {
            self.remove_slot(self.tail);
        }
    }

    /// Removes the live slot `i` by index — no key clone, no probe to
    /// find what the caller already holds — and recycles it.
    fn remove_slot(&mut self, i: u32) {
        self.unlink(i);
        self.unlink_label(i);
        Self::edit_entry(&mut self.index, &self.slots[i as usize].target, |e| {
            e.slot = NIL
        });
        self.slots[i as usize].next = self.free;
        self.free = i;
        self.len -= 1;
    }

    /// Edits `key`'s entry, dropping it once it names neither a slot
    /// nor a chain.
    fn edit_entry(index: &mut FxHashMap<Key, Entry>, key: &Key, edit: impl FnOnce(&mut Entry)) {
        // One probe for the edit and the removal; the clone it costs is
        // a 32-byte copy for every key the workloads generate.
        let hash_map::Entry::Occupied(mut e) = index.entry(key.clone()) else {
            unreachable!("a live slot's keys are indexed");
        };
        edit(e.get_mut());
        if e.get().slot == NIL && e.get().chain == NIL {
            e.remove();
        }
    }

    /// Pushes slot `i` onto the front of its label's chain.
    fn link_label(&mut self, i: u32) {
        let label = self.slots[i as usize].shortcut.label.clone();
        let e = self.index.entry(label).or_insert(VACANT);
        let old_head = std::mem::replace(&mut e.chain, i);
        self.slots[i as usize].label_prev = NIL;
        self.slots[i as usize].label_next = old_head;
        if old_head != NIL {
            self.slots[old_head as usize].label_prev = i;
        }
    }

    /// Takes slot `i` out of its label's chain.
    fn unlink_label(&mut self, i: u32) {
        let s = &self.slots[i as usize];
        let (prev, next) = (s.label_prev, s.label_next);
        if prev != NIL {
            self.slots[prev as usize].label_next = next;
        } else {
            Self::edit_entry(&mut self.index, &s.shortcut.label, |e| e.chain = next);
        }
        if next != NIL {
            self.slots[next as usize].label_prev = prev;
        }
    }

    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let s = &self.slots[i as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else if self.head == i {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else if self.tail == i {
            self.tail = prev;
        }
        let s = &mut self.slots[i as usize];
        s.prev = NIL;
        s.next = NIL;
    }

    fn push_front(&mut self, i: u32) {
        self.slots[i as usize].prev = NIL;
        self.slots[i as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }
}

/// Consults `cache` for `target`, validating any hit against the
/// authoritative `directory`: the cached label must still be live at
/// the recorded epoch. Returns the covering node's label on a validated
/// hit (all [`shortcut_envelope`] needs of the shortcut); a stale hit is
/// evicted, and every outcome is counted in `stats`. Shared by all
/// three runtimes so the consult flow cannot drift between them.
pub fn consult(
    cache: &mut RouteCache,
    directory: &Directory,
    target: &Key,
    stats: &mut CacheStats,
) -> Option<Key> {
    let Some(i) = cache.hit_slot(target) else {
        stats.misses += 1;
        return None;
    };
    let sc = &cache.slots[i as usize].shortcut;
    if directory.live_epoch(&sc.label) == Some(sc.epoch) {
        stats.hits += 1;
        Some(sc.label.clone())
    } else {
        stats.stale_hits += 1;
        cache.remove_slot(i);
        None
    }
}

/// The shortcut a satisfied exact query teaches: the target's own
/// node (which the query just proved live and owning the key), its
/// current host and epoch. `None` when the target is not live in the
/// directory — unreachable right after a satisfied exact lookup, but
/// it keeps racy callers safe.
pub fn learned_shortcut(directory: &Directory, target: &Key) -> Option<Shortcut> {
    let epoch = directory.live_epoch(target)?;
    let host = directory.host_of(target)?.clone();
    Some(Shortcut {
        label: target.clone(),
        host,
        epoch,
    })
}

/// The envelope a validated shortcut turns a request into: the query
/// delivered straight to the covering node `label` in `Down` phase,
/// path empty (the target visit appends itself; hop accounting then
/// shows the one-hop route). Shared by all three runtimes so the cached
/// route's shape cannot drift between them.
pub fn shortcut_envelope(request_id: u64, query: QueryKind, label: Key) -> Envelope {
    Envelope::to_node(
        label,
        NodeMsg::Discovery(DiscoveryMsg {
            request_id,
            query,
            phase: RoutePhase::Down,
            // Pre-sized for the cached route: the covering visit plus
            // a few gather partials.
            path: Vec::with_capacity(4),
        }),
    )
}

/// Counters of the caching subsystem. Kept apart from
/// [`crate::metrics::SystemStats`] — like [`crate::replication::ReplicationStats`] —
/// so the cache-off system's observable stats stay byte-identical to
/// the pre-cache golden fingerprint. All remain zero at capacity 0.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered through a validated shortcut (one-hop route).
    pub hits: u64,
    /// Requests whose target had no cached shortcut.
    pub misses: u64,
    /// Hits rejected by the epoch/liveness check; the entry was
    /// evicted and the request fell back to the up/down route.
    pub stale_hits: u64,
    /// Shortcuts learned from satisfied discovery responses.
    pub learned: u64,
    /// `InvalidateCached` messages put on the wire by eager
    /// invalidation.
    pub invalidations_sent: u64,
    /// `InvalidateCached` messages delivered to a peer's cache.
    pub invalidations_delivered: u64,
}

impl CacheStats {
    /// Hit rate over consults (hits / (hits + stale + misses)), as a
    /// percentage. 0 when nothing was consulted.
    pub fn hit_pct(&self) -> f64 {
        let consults = self.hits + self.stale_hits + self.misses;
        if consults == 0 {
            0.0
        } else {
            100.0 * self.hits as f64 / consults as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    fn sc(label: &str, host: &str, epoch: u64) -> Shortcut {
        Shortcut {
            label: k(label),
            host: k(host),
            epoch,
        }
    }

    #[test]
    fn hit_miss_and_promotion() {
        let mut c = RouteCache::new(2);
        assert!(c.hit(&k("A")).is_none());
        c.insert(k("A"), sc("A", "P1", 1));
        c.insert(k("B"), sc("B", "P2", 1));
        assert_eq!(c.len(), 2);
        // Touch A so B becomes the LRU victim.
        assert_eq!(c.hit(&k("A")).unwrap().host, k("P1"));
        c.insert(k("C"), sc("C", "P3", 1));
        assert_eq!(c.len(), 2);
        assert!(c.hit(&k("B")).is_none(), "B was least recently used");
        assert!(c.hit(&k("A")).is_some());
        assert!(c.hit(&k("C")).is_some());
    }

    #[test]
    fn insert_refreshes_existing_entry() {
        let mut c = RouteCache::new(2);
        c.insert(k("A"), sc("A", "P1", 1));
        c.insert(k("A"), sc("A", "P9", 5));
        assert_eq!(c.len(), 1);
        let got = c.hit(&k("A")).unwrap();
        assert_eq!(got.host, k("P9"));
        assert_eq!(got.epoch, 5);
    }

    #[test]
    fn capacity_zero_is_inert() {
        let mut c = RouteCache::new(0);
        c.insert(k("A"), sc("A", "P1", 1));
        assert!(c.is_empty());
        assert!(c.hit(&k("A")).is_none());
    }

    #[test]
    fn remove_and_slot_reuse() {
        let mut c = RouteCache::new(4);
        c.insert(k("A"), sc("A", "P1", 1));
        c.insert(k("B"), sc("B", "P1", 1));
        assert!(c.remove(&k("A")));
        assert!(!c.remove(&k("A")));
        c.insert(k("C"), sc("C", "P1", 1));
        assert_eq!(c.slots.len(), 2, "freed slot is reused");
        assert!(c.hit(&k("B")).is_some());
        assert!(c.hit(&k("C")).is_some());
    }

    #[test]
    fn invalidate_label_respects_epochs() {
        let mut c = RouteCache::new(8);
        // Three targets routing through label "10": two learned at
        // epoch 3, one re-learned later at epoch 7.
        c.insert(k("101"), sc("10", "P1", 3));
        c.insert(k("102"), sc("10", "P1", 3));
        c.insert(k("103"), sc("10", "P2", 7));
        c.insert(k("2"), sc("2", "P3", 3));
        assert_eq!(c.invalidate_label(&k("10"), 5), 2);
        assert!(c.hit(&k("101")).is_none());
        assert!(c.hit(&k("102")).is_none());
        assert!(c.hit(&k("103")).is_some(), "fresher epoch survives");
        assert!(c.hit(&k("2")).is_some(), "other labels untouched");
        assert_eq!(c.invalidate_label(&k("10"), 7), 1);
        assert!(c.hit(&k("103")).is_none());
    }

    #[test]
    fn shrinking_capacity_evicts_lru_first() {
        let mut c = RouteCache::new(4);
        for (i, t) in ["A", "B", "C", "D"].iter().enumerate() {
            c.insert(k(t), sc(t, "P", i as u64));
        }
        c.hit(&k("A")); // A is now MRU; B is LRU.
        c.set_capacity(2);
        assert_eq!(c.len(), 2);
        assert!(c.hit(&k("A")).is_some());
        assert!(c.hit(&k("D")).is_some());
        assert!(c.hit(&k("B")).is_none());
        assert!(c.hit(&k("C")).is_none());
    }

    #[test]
    fn clear_retains_capacity() {
        let mut c = RouteCache::new(3);
        c.insert(k("A"), sc("A", "P", 1));
        c.clear();
        assert!(c.is_empty());
        c.insert(k("B"), sc("B", "P", 1));
        assert_eq!(c.len(), 1);
        assert_eq!(c.capacity(), 3);
    }

    #[test]
    fn lru_order_survives_churn() {
        // Exercise the linked list: interleave inserts, hits, removals.
        let mut c = RouteCache::new(3);
        for t in ["A", "B", "C"] {
            c.insert(k(t), sc(t, "P", 1));
        }
        c.hit(&k("A"));
        c.remove(&k("B"));
        c.insert(k("D"), sc("D", "P", 1));
        c.insert(k("E"), sc("E", "P", 1)); // evicts C (LRU)
        assert!(c.hit(&k("C")).is_none());
        assert!(c.hit(&k("A")).is_some());
        assert!(c.hit(&k("D")).is_some());
        assert!(c.hit(&k("E")).is_some());
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn default_cache_has_a_sound_lru_list() {
        // Regression: the derived Default zeroed head/tail instead of
        // NIL, self-looping the intrusive list.
        let mut c = RouteCache::default();
        assert_eq!(c.capacity(), 0);
        c.set_capacity(2);
        c.insert(k("A"), sc("A", "P", 1));
        c.insert(k("B"), sc("B", "P", 1));
        c.insert(k("C"), sc("C", "P", 1)); // evicts A
        assert_eq!(c.invalidate_label(&k("B"), 1), 1, "walk terminates");
        assert!(c.hit(&k("A")).is_none());
        assert!(c.hit(&k("C")).is_some());
    }

    #[test]
    fn consult_validates_against_the_directory() {
        let mut d = Directory::new();
        d.insert(k("101"), k("P1"));
        let epoch = d.live_epoch(&k("101")).unwrap();
        let mut c = RouteCache::new(4);
        let mut stats = CacheStats::default();
        // Miss.
        assert!(consult(&mut c, &d, &k("101"), &mut stats).is_none());
        assert_eq!(stats.misses, 1);
        // Learn + validated hit.
        let sc = learned_shortcut(&d, &k("101")).unwrap();
        assert_eq!(sc.epoch, epoch);
        c.insert(k("101"), sc);
        let hit = consult(&mut c, &d, &k("101"), &mut stats).unwrap();
        assert_eq!(hit, k("101"));
        assert_eq!(stats.hits, 1);
        // Stale hit after a structural event: evicted, fallback.
        d.bump_epoch(&k("101"));
        assert!(consult(&mut c, &d, &k("101"), &mut stats).is_none());
        assert_eq!(stats.stale_hits, 1);
        assert!(c.is_empty(), "stale entry evicted");
        // Dead labels teach nothing.
        d.remove(&k("101"));
        assert!(learned_shortcut(&d, &k("101")).is_none());
    }

    #[test]
    fn stats_hit_pct() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_pct(), 0.0);
        s.hits = 3;
        s.misses = 1;
        s.stale_hits = 0;
        assert!((s.hit_pct() - 75.0).abs() < 1e-9);
    }
}
