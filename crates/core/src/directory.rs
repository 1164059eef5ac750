//! The interned delivery directory: node label → hosting peer.
//!
//! Every node-addressed envelope is resolved through this table, so it
//! sits on the routing hot path: by label (one hash) for anything
//! addressed by `Key`, by interned id (no hash) for a chained hop over
//! a tree link whose node memoised the id (`node::NodeState`). The
//! previous representation — a `BTreeMap<Key, Key>` plus a full
//! `Vec<Key>` rebuild whenever `random_node` ran after a change — made
//! each delivery walk a B-tree comparing variable-length byte strings
//! and made each membership change O(nodes) in clones. Here every
//! distinct key is *interned* once and identified by a `u32`; the
//! directory itself is
//!
//! * `recs`: a flat `id → LabelRec` array giving O(1) exact lookups
//!   (one hash of the label, none given its id; no byte-string tree
//!   walk). One 16-byte record holds everything a hop reads: the host
//!   id, the slot the node last sat in on that host's `NodeMap` slab,
//!   and the label's cache epoch. The slot is a *hint*: the node map
//!   checks it against the label before trusting it, so a stale slot
//!   costs one ordinary hash probe and nothing else;
//! * `sorted`: the live label ids in lexicographic order, maintained
//!   incrementally (binary search over `u32` ids) on
//!   join/leave/migrate, giving ordered iteration and O(1) uniform
//!   sampling (`label_at`).
//!
//! Interned keys are never freed: the id space grows with the number of
//! *distinct* labels and peers ever seen, which for the service-
//! discovery workloads is bounded by the corpus and churn population.
//! That trade buys clone-free lookups everywhere else, and it is what
//! lets a tree link memoise its label's id: the id keeps naming that
//! label for the directory's whole lifetime.

use crate::key::Key;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Sentinel host id meaning "label not present".
const NONE: u32 = u32::MAX;

/// Slot hint meaning "not known": past every slab, so the node map
/// goes straight to its hash probe without reading a slot.
const NO_SLOT: u32 = u32::MAX;

/// What a hop needs of one label, in one 16-byte read.
#[derive(Debug, Clone, Copy)]
struct LabelRec {
    /// Id of the hosting peer's key, or [`NONE`] when the label is not
    /// currently a live node label.
    host: u32,
    /// Where the node last sat in its host's `NodeMap` slab — a hint,
    /// validated by the map and rewritten by the hop that finds the
    /// node elsewhere. Keeping it exact would mean reporting every
    /// slab move (`swap_remove`, migration, rename) out of handlers
    /// that only see their own shard.
    slot: u32,
    /// Structural epoch of the label (caching extension,
    /// `dlpt_core::cache`). Bumped on every host change, removal and
    /// node-state mutation, so a routing shortcut learned at epoch `e`
    /// is provably fresh iff the label is live at epoch `e`. Epochs are
    /// pure bookkeeping — never printed, compared or serialized — so
    /// they cannot perturb the cache-off golden fingerprint.
    epoch: u64,
}

const _: () = assert!(std::mem::size_of::<LabelRec>() == 16);

impl LabelRec {
    const DEAD: LabelRec = LabelRec {
        host: NONE,
        slot: NO_SLOT,
        epoch: 0,
    };
}

/// FxHash (the rustc hasher): multiply-xor over machine words. Keys
/// are short, trusted identifiers, so DoS-resistant SipHash is pure
/// overhead here — and a fixed hasher also keeps the map independent
/// of process-global randomness (we never iterate the map, but
/// determinism is this runtime's core guarantee, so no randomness at
/// all is the safer invariant).
#[derive(Default)]
pub struct FxHasher(u64);

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let w = u64::from_le_bytes(c.try_into().expect("exact chunk"));
            self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(FX_SEED);
        }
        let mut tail = 0u64;
        for &b in chunks.remainder() {
            tail = tail << 8 | b as u64;
        }
        self.0 = (self.0.rotate_left(5) ^ tail).wrapping_mul(FX_SEED);
    }
    // One round per integer: without these the id-keyed maps (request
    // ids, response digests) go through `write`'s chunk loop and pay
    // its tail round on an empty remainder.
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(FX_SEED);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `HashMap` keyed by interned keys with the fixed [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` with the fixed [`FxHasher`] (deterministic iteration is
/// not required, deterministic membership is).
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

/// An interned `label → host` table with incremental ordered access.
#[derive(Debug, Default)]
pub struct Directory {
    /// Interned key storage; index is the key's id.
    keys: Vec<Key>,
    /// Reverse map key → id (cheap to key by `Key`: clones are inline).
    ids: FxHashMap<Key, u32>,
    /// Per key-id: host, slot hint and epoch.
    recs: Vec<LabelRec>,
    /// Live label ids, ascending by digit string.
    sorted: Vec<u32>,
    /// Per key-id: peer ids of the follower replica hosts (replication
    /// extension; empty at k = 1, which keeps the table cost-free for
    /// unreplicated overlays).
    followers: Vec<Vec<u32>>,
}

impl Directory {
    /// An empty directory.
    pub fn new() -> Self {
        Directory::default()
    }

    /// Number of live node labels.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True iff no node labels are present.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Interns `k`, returning its stable id. Ids are never freed, so an
    /// id handed out here stays valid (and keeps naming the same key)
    /// for the directory's whole lifetime — which is what lets the
    /// engine index per-peer state by id without ABA hazards.
    pub fn intern(&mut self, k: &Key) -> u32 {
        if let Some(&id) = self.ids.get(k) {
            return id;
        }
        let id = self.keys.len() as u32;
        self.ids.insert(k.clone(), id);
        if self.keys.len() == self.keys.capacity() {
            // The per-id arrays grow together, in the id map's steps:
            // one reservation each, sized to the ids the map can take.
            // Each doubling on its own left holes the allocator then
            // filled with the map itself, and the peak RSS of the
            // `lookup_zipf_cached` benchmark rose by a quarter
            // (EXPERIMENTS.md §Memory footprint).
            let room = self.ids.capacity() - self.keys.len();
            self.keys.reserve_exact(room);
            self.recs.reserve_exact(room);
            self.followers.reserve_exact(room);
        }
        self.keys.push(k.clone());
        self.recs.push(LabelRec::DEAD);
        self.followers.push(Vec::new());
        id
    }

    /// The interned id of `k`, if it has ever been interned (as a
    /// label, a host, or explicitly). One hash, no allocation.
    #[inline]
    pub fn id_of(&self, k: &Key) -> Option<u32> {
        self.ids.get(k).copied()
    }

    /// The key an id names. Ids come only from this directory and are
    /// never freed, so the access is a plain index.
    #[inline]
    pub fn key_of(&self, id: u32) -> &Key {
        &self.keys[id as usize]
    }

    /// Number of distinct keys ever interned (the id space bound).
    pub fn interned_len(&self) -> usize {
        self.keys.len()
    }

    /// Resolves a live label to `(label id, host id, slot hint)` with
    /// a single hash and one record read: the lookup of every hop
    /// addressed by `Key` (client entry, cache shortcuts, queued
    /// envelopes, and a chained hop over a link whose id is not yet
    /// memoised). The slot is only a hint for the host's
    /// `NodeMap::find`. `None` when the label is unknown or not
    /// currently live.
    #[inline]
    pub fn resolve(&self, label: &Key) -> Option<(u32, u32, u32)> {
        self.resolve_id(*self.ids.get(label)?)
    }

    /// [`Directory::resolve`] for a label already known by id: one
    /// record read, no hash — the lookup of a chained hop over a tree
    /// link whose id the node has memoised.
    #[inline]
    pub fn resolve_id(&self, lid: u32) -> Option<(u32, u32, u32)> {
        match self.recs[lid as usize] {
            LabelRec { host: NONE, .. } => None,
            LabelRec { host, slot, .. } => Some((lid, host, slot)),
        }
    }

    /// Records where label id `lid`'s node was last found on its host.
    #[inline]
    pub fn set_slot(&mut self, lid: u32, slot: u32) {
        self.recs[lid as usize].slot = slot;
    }

    /// The host id of a live label id (`None` when dissolved).
    #[inline]
    pub fn host_id(&self, lid: u32) -> Option<u32> {
        match self.recs[lid as usize].host {
            NONE => None,
            hid => Some(hid),
        }
    }

    /// Position of `label`'s id in `sorted` (Ok) or its insertion
    /// point (Err) — the binary search runs over `u32` ids and only
    /// dereferences into the interned storage for comparisons.
    fn rank(&self, label: &Key) -> Result<usize, usize> {
        self.sorted
            .binary_search_by(|&id| self.keys[id as usize].cmp(label))
    }

    /// True iff `label` is a live node label.
    pub fn contains(&self, label: &Key) -> bool {
        self.ids
            .get(label)
            .map(|&id| self.recs[id as usize].host != NONE)
            .unwrap_or(false)
    }

    /// The hosting peer of `label`, if the label is live.
    pub fn host_of(&self, label: &Key) -> Option<&Key> {
        let &id = self.ids.get(label)?;
        match self.recs[id as usize].host {
            NONE => None,
            host => Some(&self.keys[host as usize]),
        }
    }

    /// Sets (or replaces) the hosting peer of `label`, returning the
    /// label's interned id. Counts as a structural event: the label's
    /// epoch advances, staling any routing shortcut learned before the
    /// change.
    pub fn insert(&mut self, label: Key, host: Key) -> u32 {
        let lid = self.intern(&label);
        let hid = self.intern(&host);
        self.host_at(lid, hid);
        lid
    }

    /// [`Directory::insert`] for a host already interned as `hid`: one
    /// hash (the label's) instead of two. Every relocation of a
    /// hand-off goes to one host, so its id is interned once per run.
    pub fn insert_at(&mut self, label: &Key, hid: u32) -> u32 {
        let lid = self.intern(label);
        self.host_at(lid, hid);
        lid
    }

    /// Makes `hid` the host of label id `lid`, ordering the label if it
    /// was not live, and advances its epoch.
    fn host_at(&mut self, lid: u32, hid: u32) {
        if self.recs[lid as usize].host == NONE {
            let at = self
                .rank(&self.keys[lid as usize])
                .expect_err("absent label cannot be in sorted order");
            self.sorted.insert(at, lid);
        }
        let rec = &mut self.recs[lid as usize];
        if rec.host != hid {
            // A slot on the old host says nothing about the new one.
            rec.slot = NO_SLOT;
        }
        rec.host = hid;
        rec.epoch += 1;
    }

    /// Removes `label`; returns true iff it was present.
    pub fn remove(&mut self, label: &Key) -> bool {
        let Some(&lid) = self.ids.get(label) else {
            return false;
        };
        let rec = &mut self.recs[lid as usize];
        if rec.host == NONE {
            return false;
        }
        rec.host = NONE;
        rec.epoch += 1;
        self.followers[lid as usize].clear();
        let at = self.rank(label).expect("live label is in sorted order");
        self.sorted.remove(at);
        true
    }

    /// Drops every label (the interner itself is retained).
    pub fn clear(&mut self) {
        for &id in &self.sorted {
            let rec = &mut self.recs[id as usize];
            rec.host = NONE;
            rec.epoch += 1;
            self.followers[id as usize].clear();
        }
        self.sorted.clear();
    }

    /// Advances `label`'s epoch (a node-state mutation that leaves the
    /// hosting unchanged: child links, father link, data set). Interns
    /// the label so the bump survives a remove/re-insert window.
    pub fn bump_epoch(&mut self, label: &Key) {
        let lid = self.intern(label);
        self.recs[lid as usize].epoch += 1;
    }

    /// Advances the epoch of an already interned label by id — the
    /// hot-path twin of [`Directory::bump_epoch`] (no hash).
    #[inline]
    pub fn bump_epoch_id(&mut self, lid: u32) {
        self.recs[lid as usize].epoch += 1;
    }

    /// The current epoch of `label` *iff* it is a live node label —
    /// the single probe a cache-hit validation needs. `None` when the
    /// label is unknown or dissolved.
    pub fn live_epoch(&self, label: &Key) -> Option<u64> {
        match self.recs[*self.ids.get(label)? as usize] {
            LabelRec { host: NONE, .. } => None,
            LabelRec { epoch, .. } => Some(epoch),
        }
    }

    /// The current epoch of `label` (0 if never seen). Liveness is the
    /// caller's concern; hit validation should use
    /// [`Directory::live_epoch`].
    pub fn epoch_of(&self, label: &Key) -> u64 {
        self.ids
            .get(label)
            .map(|&id| self.recs[id as usize].epoch)
            .unwrap_or(0)
    }

    /// Records the follower replica hosts of `label` (replication
    /// extension). The label is interned even when not yet live so the
    /// record survives the promote/re-insert window.
    pub fn set_followers(&mut self, label: &Key, hosts: &[Key]) {
        let lid = self.intern(label);
        let ids: Vec<u32> = hosts.iter().map(|h| self.intern(h)).collect();
        self.followers[lid as usize] = ids;
    }

    /// The recorded follower hosts of `label`, in ring order after the
    /// primary. Liveness is the caller's concern: a recorded follower
    /// may have crashed since.
    pub fn followers_of(&self, label: &Key) -> impl ExactSizeIterator<Item = &Key> + '_ {
        let ids: &[u32] = self
            .ids
            .get(label)
            .map(|&lid| self.followers[lid as usize].as_slice())
            .unwrap_or(&[]);
        ids.iter().map(|&id| &self.keys[id as usize])
    }

    /// The recorded follower host ids of label id `lid` (empty slice
    /// when none were recorded). Id-level twin of
    /// [`Directory::followers_of`].
    #[inline]
    pub fn follower_ids(&self, lid: u32) -> &[u32] {
        &self.followers[lid as usize]
    }

    /// Overwrites the follower record of label id `lid` with `hosts`
    /// (peer ids) in place, reusing the record's allocation — the
    /// id-level twin of [`Directory::set_followers`].
    pub fn set_follower_ids(&mut self, lid: u32, hosts: &[u32]) {
        let rec = &mut self.followers[lid as usize];
        rec.clear();
        rec.extend_from_slice(hosts);
    }

    /// Rewrites peer id `pid` in every live label's follower record:
    /// to `new` when the peer changed identifier (its copies moved with
    /// it), away when it crashed (its copies died with it).
    pub fn rebind_follower(&mut self, pid: u32, new: Option<u32>) {
        for &lid in &self.sorted {
            let record = &mut self.followers[lid as usize];
            if let Some(at) = record.iter().position(|&f| f == pid) {
                match new {
                    Some(new) => record[at] = new,
                    None => {
                        record.remove(at);
                    }
                }
            }
        }
    }

    /// The live label ids, ascending by label — the id-level twin of
    /// [`Directory::labels`] for scans that stay in id space.
    #[inline]
    pub fn live_ids(&self) -> &[u32] {
        &self.sorted
    }

    /// The `i`-th live label in ascending order. Panics when out of
    /// range — this is the O(1) uniform-sampling accessor behind
    /// `random_node`, which replaced the rebuilt `node_cache`.
    pub fn label_at(&self, i: usize) -> &Key {
        &self.keys[self.sorted[i] as usize]
    }

    /// Live labels, ascending.
    pub fn labels(&self) -> impl ExactSizeIterator<Item = &Key> + '_ {
        self.sorted.iter().map(|&id| &self.keys[id as usize])
    }

    /// Estimated resident bytes of the directory tables: interned key
    /// storage (plus spilled key heap), the id map, the record and
    /// sorted arrays and follower records. Vec capacities are counted (they
    /// are a deterministic function of the insertion history); the id
    /// map uses a fixed per-entry estimate so the result never depends
    /// on hash-table growth policy details.
    pub fn bytes_estimate(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = self.keys.capacity() * size_of::<Key>()
            + self.recs.capacity() * size_of::<LabelRec>()
            + self.sorted.capacity() * size_of::<u32>()
            + self.followers.capacity() * size_of::<Vec<u32>>();
        for f in &self.followers {
            bytes += f.capacity() * size_of::<u32>();
        }
        for k in &self.keys {
            if !k.is_inline() {
                // Arc<[u8]> payload plus the two refcount words.
                bytes += k.len() + 16;
            }
        }
        bytes + self.ids.len() * (size_of::<Key>() + size_of::<u32>() + 8)
    }

    /// Overwrites every slot hint with an arbitrary one — right,
    /// another node's, or past any slab — for tests that prove hints
    /// never change behaviour.
    #[cfg(test)]
    pub(crate) fn scramble_slot_hints(&mut self, seed: u64) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for rec in &mut self.recs {
            rec.slot = match rng.gen_range(0..4) {
                0 => u32::MAX,
                _ => rng.gen_range(0..64),
            };
        }
    }

    /// `(label, host)` pairs, ascending by label.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&Key, &Key)> + '_ {
        self.sorted.iter().map(|&id| {
            (
                &self.keys[id as usize],
                &self.keys[self.recs[id as usize].host as usize],
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    fn sample() -> Directory {
        let mut d = Directory::new();
        d.insert(k("101"), k("P2"));
        d.insert(k("01"), k("P1"));
        d.insert(k("10101"), k("P2"));
        d.insert(Key::epsilon(), k("P1"));
        d
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut d = sample();
        assert_eq!(d.len(), 4);
        assert_eq!(d.host_of(&k("101")), Some(&k("P2")));
        assert_eq!(d.host_of(&k("01")), Some(&k("P1")));
        assert_eq!(d.host_of(&k("zzz")), None);
        assert!(d.contains(&Key::epsilon()));
        assert!(d.remove(&k("101")));
        assert!(!d.remove(&k("101")), "second removal is a no-op");
        assert_eq!(d.host_of(&k("101")), None);
        assert_eq!(d.len(), 3);
        // Re-inserting a previously interned label works.
        d.insert(k("101"), k("P9"));
        assert_eq!(d.host_of(&k("101")), Some(&k("P9")));
    }

    #[test]
    fn rehosting_replaces_without_duplicating() {
        let mut d = sample();
        d.insert(k("101"), k("P7"));
        assert_eq!(d.len(), 4);
        assert_eq!(d.host_of(&k("101")), Some(&k("P7")));
    }

    #[test]
    fn iteration_is_ascending() {
        let d = sample();
        let labels: Vec<&Key> = d.labels().collect();
        assert_eq!(
            labels,
            vec![&Key::epsilon(), &k("01"), &k("101"), &k("10101")]
        );
        assert_eq!(d.label_at(2), &k("101"));
        let pairs: Vec<(&Key, &Key)> = d.iter().collect();
        assert_eq!(pairs[1], (&k("01"), &k("P1")));
    }

    #[test]
    fn followers_roundtrip_and_clear_on_remove() {
        let mut d = sample();
        assert_eq!(d.followers_of(&k("101")).count(), 0);
        d.set_followers(&k("101"), &[k("P7"), k("P9")]);
        let got: Vec<&Key> = d.followers_of(&k("101")).collect();
        assert_eq!(got, vec![&k("P7"), &k("P9")]);
        // Unknown labels read as empty.
        assert_eq!(d.followers_of(&k("zzz")).count(), 0);
        // Removal wipes the record.
        d.remove(&k("101"));
        assert_eq!(d.followers_of(&k("101")).count(), 0);
        // Records may be set for not-yet-live labels (the
        // promote/re-insert window) and overwritten in place.
        d.set_followers(&k("777"), &[k("P1")]);
        assert_eq!(d.followers_of(&k("777")).count(), 1);
        d.set_followers(&k("777"), &[]);
        assert_eq!(d.followers_of(&k("777")).count(), 0);
    }

    #[test]
    fn epochs_advance_on_every_structural_event() {
        let mut d = Directory::new();
        assert_eq!(d.live_epoch(&k("101")), None);
        assert_eq!(d.epoch_of(&k("101")), 0);
        d.insert(k("101"), k("P1"));
        let e1 = d.live_epoch(&k("101")).expect("live");
        d.insert(k("101"), k("P2")); // migration
        let e2 = d.live_epoch(&k("101")).expect("still live");
        assert!(e2 > e1);
        d.bump_epoch(&k("101")); // node-state mutation
        let e3 = d.live_epoch(&k("101")).expect("still live");
        assert!(e3 > e2);
        d.remove(&k("101"));
        assert_eq!(d.live_epoch(&k("101")), None, "dead labels validate no hit");
        assert!(d.epoch_of(&k("101")) > e3, "removal is a structural event");
        // Re-insertion keeps the monotone clock: no ABA window.
        d.insert(k("101"), k("P1"));
        assert!(d.live_epoch(&k("101")).unwrap() > e3);
        // Bumping an unknown label interns it (pre-creation bump).
        d.bump_epoch(&k("777"));
        assert_eq!(d.epoch_of(&k("777")), 1);
        assert_eq!(d.live_epoch(&k("777")), None);
    }

    #[test]
    fn clear_retains_interner_but_drops_labels() {
        let mut d = sample();
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.host_of(&k("101")), None);
        d.insert(k("101"), k("P1"));
        assert_eq!(d.len(), 1);
    }
}
