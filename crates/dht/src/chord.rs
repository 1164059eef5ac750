//! Chord (Stoica et al., SIGCOMM 2001), simulated in-process.
//!
//! The network is a collection of nodes on the 64-bit identifier
//! circle. Each node keeps a predecessor, a successor list (fault
//! tolerance) and a finger table (`fingers[k]` ≈ the successor of
//! `id + 2^k`). Lookups are **iterative** and count hops, which is the
//! metric the DLPT paper's Table 2 and Figure 9 compare against.
//!
//! Fidelity notes:
//! * correctness rests on successor pointers; fingers only accelerate
//!   routing, and lookups remain correct with stale fingers — exactly
//!   as in the protocol paper;
//! * joins eagerly fix the two neighbours (the effect the real join
//!   handshake converges to), while finger repair happens in explicit
//!   [`ChordNetwork::stabilize`] rounds the caller schedules, mirroring
//!   Chord's periodic maintenance;
//! * membership only grows: the one reader, the PHT comparator of
//!   Table 2, never removes a node, so departures and crashes (and the
//!   failover through successor lists they would exercise) are not
//!   modelled.

use crate::hash::ring_hash;
use crate::ring::{finger_start, in_interval_oc, in_interval_oo};
use std::collections::BTreeMap;

/// Bits of the identifier space (and finger-table size).
pub const M: u32 = 64;

/// One Chord node.
#[derive(Debug, Clone)]
pub struct ChordNode {
    /// Identifier on the circle.
    pub id: u64,
    /// Predecessor, if known.
    pub pred: Option<u64>,
    /// `succ_list[0]` is the successor; the tail provides failover.
    pub succ_list: Vec<u64>,
    /// `fingers[k]` ≈ successor of `id + 2^k`; may be stale.
    pub fingers: Vec<u64>,
    /// Stored key/value pairs, keyed by key hash.
    pub store: BTreeMap<u64, Vec<Vec<u8>>>,
}

impl ChordNode {
    fn new(id: u64) -> Self {
        ChordNode {
            id,
            pred: None,
            succ_list: vec![id],
            fingers: vec![id; M as usize],
            store: BTreeMap::new(),
        }
    }

    /// Current successor (first live entry is maintained by the
    /// network's stabilization).
    pub fn successor(&self) -> u64 {
        self.succ_list.first().copied().unwrap_or(self.id)
    }
}

/// Counters over the network's lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChordStats {
    /// Lookups performed.
    pub lookups: u64,
    /// Total routing hops over all lookups.
    pub total_hops: u64,
    /// Stabilization rounds executed.
    pub stabilize_rounds: u64,
    /// Keys transferred to joining nodes.
    pub key_transfers: u64,
}

impl ChordStats {
    /// Mean hops per lookup.
    pub fn mean_hops(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.lookups as f64
        }
    }
}

/// Result of one iterative lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupResult {
    /// The node owning the target identifier.
    pub owner: u64,
    /// Routing hops taken (edges of the iterative walk).
    pub hops: u32,
    /// Node identifiers visited, starting at the entry node and ending
    /// at the owner.
    pub path: Vec<u64>,
}

/// A simulated Chord network.
#[derive(Debug, Clone, Default)]
pub struct ChordNetwork {
    nodes: BTreeMap<u64, ChordNode>,
    succ_list_len: usize,
    /// Lifetime counters.
    pub stats: ChordStats,
}

impl ChordNetwork {
    /// An empty network keeping `succ_list_len` successors per node.
    pub fn new(succ_list_len: usize) -> Self {
        ChordNetwork {
            nodes: BTreeMap::new(),
            succ_list_len: succ_list_len.max(1),
            stats: ChordStats::default(),
        }
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff no node is live.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Live node identifiers, ascending.
    pub fn ids(&self) -> Vec<u64> {
        self.nodes.keys().copied().collect()
    }

    /// Borrows a node.
    pub fn node(&self, id: u64) -> Option<&ChordNode> {
        self.nodes.get(&id)
    }

    /// Ground truth owner of an identifier: the first live node at or
    /// after it (wrapping). Used by tests and by callers that need the
    /// converged answer without routing.
    pub fn owner_of(&self, target: u64) -> Option<u64> {
        self.nodes
            .range(target..)
            .next()
            .or_else(|| self.nodes.iter().next())
            .map(|(id, _)| *id)
    }

    // ------------------------------------------------------------------
    // Membership
    // ------------------------------------------------------------------

    /// Creates the first node of the ring.
    pub fn create(&mut self, id: u64) {
        assert!(self.nodes.is_empty(), "create() is for the first node");
        let mut n = ChordNode::new(id);
        n.pred = Some(id);
        self.nodes.insert(id, n);
    }

    /// Joins `id` through any live contact. Neighbour pointers are
    /// fixed eagerly (the state the join handshake converges to); the
    /// keys in `(pred, id]` move from the successor.
    pub fn join(&mut self, id: u64) -> bool {
        if self.nodes.contains_key(&id) {
            return false;
        }
        if self.nodes.is_empty() {
            self.create(id);
            return true;
        }
        let succ_id = self.owner_of(id).expect("non-empty");
        let pred_id = {
            let succ = &self.nodes[&succ_id];
            succ.pred.unwrap_or(succ_id)
        };
        // Move the new node's arc of keys out of the successor.
        let moved: Vec<(u64, Vec<Vec<u8>>)> = {
            let succ = self.nodes.get_mut(&succ_id).expect("live");
            let keys: Vec<u64> = succ
                .store
                .keys()
                .copied()
                .filter(|k| in_interval_oc(*k, pred_id, id))
                .collect();
            keys.iter()
                .map(|k| (*k, succ.store.remove(k).expect("listed")))
                .collect()
        };
        self.stats.key_transfers += moved.len() as u64;
        let mut n = ChordNode::new(id);
        n.pred = Some(pred_id);
        n.succ_list = vec![succ_id];
        n.fingers = vec![succ_id; M as usize];
        n.store.extend(moved);
        self.nodes.insert(id, n);
        self.nodes.get_mut(&succ_id).expect("live").pred = Some(id);
        let pred = self.nodes.get_mut(&pred_id).expect("live");
        pred.succ_list.insert(0, id);
        pred.succ_list.truncate(self.succ_list_len);
        true
    }

    // ------------------------------------------------------------------
    // Maintenance
    // ------------------------------------------------------------------

    /// One full stabilization pass: every node repairs its successor
    /// (first live entry of its list, or the ground-truth successor as
    /// the last resort the successor-list protocol converges to),
    /// refreshes its successor list, notifies for predecessor repair,
    /// and rebuilds its fingers.
    pub fn stabilize(&mut self) {
        self.stats.stabilize_rounds += 1;
        let ids = self.ids();
        for &id in &ids {
            // successor = first live candidate.
            let live_succ = {
                let n = &self.nodes[&id];
                n.succ_list
                    .iter()
                    .copied()
                    .find(|s| self.nodes.contains_key(s) && *s != id)
            };
            let succ = live_succ.unwrap_or_else(|| {
                self.nodes
                    .range(id.wrapping_add(1)..)
                    .next()
                    .map(|(i, _)| *i)
                    .or_else(|| self.ids().first().copied())
                    .unwrap_or(id)
            });
            // Rebuild the successor list by walking ground truth — the
            // converged effect of iterated `succ.succ_list` copying.
            let mut list = Vec::with_capacity(self.succ_list_len);
            let mut cur = succ;
            for _ in 0..self.succ_list_len {
                list.push(cur);
                let next = self
                    .nodes
                    .range(cur.wrapping_add(1)..)
                    .next()
                    .map(|(i, _)| *i)
                    .or_else(|| self.ids().first().copied())
                    .unwrap_or(cur);
                if next == succ {
                    break;
                }
                cur = next;
            }
            let n = self.nodes.get_mut(&id).expect("live");
            n.succ_list = list;
            // Fingers: successor of id + 2^k over live nodes.
            for k in 0..M {
                let start = finger_start(id, k);
                // owner_of inlined to avoid the borrow.
                let f = self
                    .nodes
                    .range(start..)
                    .next()
                    .or_else(|| self.nodes.iter().next())
                    .map(|(i, _)| *i)
                    .expect("non-empty");
                self.nodes.get_mut(&id).expect("live").fingers[k as usize] = f;
            }
            // Predecessor repair (notify): ground-truth predecessor.
            let pred = self
                .nodes
                .range(..id)
                .next_back()
                .map(|(i, _)| *i)
                .or_else(|| self.nodes.keys().next_back().copied())
                .unwrap_or(id);
            self.nodes.get_mut(&id).expect("live").pred = Some(pred);
        }
    }

    // ------------------------------------------------------------------
    // Routing
    // ------------------------------------------------------------------

    fn closest_preceding(&self, from: u64, target: u64) -> u64 {
        let n = &self.nodes[&from];
        for &f in n.fingers.iter().rev() {
            if f != from && self.nodes.contains_key(&f) && in_interval_oo(f, from, target) {
                return f;
            }
        }
        for &s in n.succ_list.iter().rev() {
            if s != from && self.nodes.contains_key(&s) && in_interval_oo(s, from, target) {
                return s;
            }
        }
        from
    }

    /// Iterative lookup of `target`'s owner starting at `from`.
    /// Counts every edge of the walk as one hop.
    pub fn find_successor(&mut self, from: u64, target: u64) -> LookupResult {
        assert!(self.nodes.contains_key(&from), "entry node must be live");
        let mut cur = from;
        let mut path = vec![from];
        let mut hops = 0u32;
        // 2·M is far beyond any legitimate walk; the fallback below
        // keeps progress even with badly stale fingers.
        for _ in 0..(2 * M as usize + self.nodes.len()) {
            let succ = {
                let n = &self.nodes[&cur];
                n.succ_list
                    .iter()
                    .copied()
                    .find(|s| self.nodes.contains_key(s))
                    .unwrap_or(cur)
            };
            if cur == succ || in_interval_oc(target, cur, succ) {
                if succ != cur {
                    hops += 1;
                    path.push(succ);
                }
                self.stats.lookups += 1;
                self.stats.total_hops += hops as u64;
                return LookupResult {
                    owner: succ,
                    hops,
                    path,
                };
            }
            let mut next = self.closest_preceding(cur, target);
            if next == cur {
                next = succ;
            }
            hops += 1;
            path.push(next);
            cur = next;
        }
        // A guard against broken routing state: fall back to ground
        // truth, charging the walk taken so far.
        let owner = self.owner_of(target).expect("non-empty");
        path.push(owner);
        self.stats.lookups += 1;
        self.stats.total_hops += hops as u64 + 1;
        LookupResult {
            owner,
            hops: hops + 1,
            path,
        }
    }

    // ------------------------------------------------------------------
    // Key-value store
    // ------------------------------------------------------------------

    /// Stores `value` under `key`, *replacing* any previous values —
    /// the read-modify-write primitive structured overlays built on
    /// DHTs (like PHT) rely on.
    pub fn put_replace(&mut self, entry: u64, key: &[u8], value: Vec<u8>) -> LookupResult {
        let h = ring_hash(key);
        let res = self.find_successor(entry, h);
        self.nodes
            .get_mut(&res.owner)
            .expect("owner is live")
            .store
            .insert(h, vec![value]);
        res
    }

    /// Fetches the values stored under `key`, routing from `entry`.
    pub fn get(&mut self, entry: u64, key: &[u8]) -> (Option<Vec<Vec<u8>>>, LookupResult) {
        let h = ring_hash(key);
        let res = self.find_successor(entry, h);
        let values = self.nodes[&res.owner].store.get(&h).cloned();
        (values, res)
    }

    /// Total stored (key, value) pairs.
    pub fn stored_values(&self) -> usize {
        self.nodes
            .values()
            .map(|n| n.store.values().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Verifies ring consistency: every node's successor/predecessor
    /// agree with the live id order. Intended for tests.
    pub fn check_ring(&self) -> Result<(), String> {
        for (&id, node) in &self.nodes {
            let want_succ = self
                .nodes
                .range(id.wrapping_add(1)..)
                .next()
                .map(|(i, _)| *i)
                .or_else(|| self.nodes.keys().next().copied())
                .unwrap_or(id);
            if node.successor() != want_succ {
                return Err(format!(
                    "node {id:#x}: successor {:#x}, want {want_succ:#x}",
                    node.successor()
                ));
            }
            let want_pred = self
                .nodes
                .range(..id)
                .next_back()
                .map(|(i, _)| *i)
                .or_else(|| self.nodes.keys().next_back().copied())
                .unwrap_or(id);
            if node.pred != Some(want_pred) {
                return Err(format!(
                    "node {id:#x}: pred {:?}, want {want_pred:#x}",
                    node.pred
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn network(n: usize, seed: u64) -> (ChordNetwork, Vec<u64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = ChordNetwork::new(4);
        let mut ids = Vec::new();
        while ids.len() < n {
            let id: u64 = rng.gen();
            if net.join(id) {
                ids.push(id);
            }
        }
        net.stabilize();
        (net, ids)
    }

    #[test]
    fn joins_build_consistent_ring() {
        let (net, ids) = network(50, 1);
        assert_eq!(net.len(), 50);
        net.check_ring().unwrap();
        assert_eq!(net.ids().len(), ids.len());
    }

    #[test]
    fn lookup_agrees_with_ground_truth() {
        let (mut net, ids) = network(64, 2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let target: u64 = rng.gen();
            let entry = ids[rng.gen_range(0..ids.len())];
            let res = net.find_successor(entry, target);
            assert_eq!(Some(res.owner), net.owner_of(target));
            assert_eq!(res.path.last(), Some(&res.owner));
        }
    }

    #[test]
    fn lookup_is_logarithmic_with_fingers() {
        let (mut net, ids) = network(256, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let mut total = 0u32;
        let trials = 300;
        for _ in 0..trials {
            let target: u64 = rng.gen();
            let entry = ids[rng.gen_range(0..ids.len())];
            total += net.find_successor(entry, target).hops;
        }
        let mean = total as f64 / trials as f64;
        // log2(256) = 8; converged Chord averages ~½·log2(n).
        assert!(mean < 10.0, "mean hops {mean} too high for n=256");
        assert!(mean > 1.0, "mean hops {mean} suspiciously low");
    }

    #[test]
    fn put_get_roundtrip() {
        let (mut net, ids) = network(32, 6);
        let names: Vec<String> = (0..100).map(|i| format!("SVC{i:03}")).collect();
        for (i, name) in names.iter().enumerate() {
            net.put_replace(
                ids[i % ids.len()],
                name.as_bytes(),
                name.clone().into_bytes(),
            );
        }
        assert_eq!(net.stored_values(), 100);
        for (i, name) in names.iter().enumerate() {
            let (vals, _) = net.get(ids[(i * 7) % ids.len()], name.as_bytes());
            let vals = vals.unwrap_or_else(|| panic!("{name} lost"));
            assert_eq!(vals, vec![name.clone().into_bytes()]);
        }
    }

    #[test]
    fn single_node_owns_everything() {
        let mut net = ChordNetwork::new(3);
        net.create(42);
        let res = net.find_successor(42, 7);
        assert_eq!(res.owner, 42);
        assert_eq!(res.hops, 0);
        net.put_replace(42, b"x", vec![1]);
        let (vals, _) = net.get(42, b"x");
        assert_eq!(vals.unwrap(), vec![vec![1]]);
    }

    #[test]
    fn two_node_ring_links_are_mutual() {
        let mut net = ChordNetwork::new(3);
        net.join(100);
        net.join(200);
        net.stabilize();
        net.check_ring().unwrap();
        assert_eq!(net.node(100).unwrap().successor(), 200);
        assert_eq!(net.node(200).unwrap().successor(), 100);
        assert_eq!(net.node(100).unwrap().pred, Some(200));
    }

    #[test]
    fn stats_accumulate() {
        let (mut net, ids) = network(16, 13);
        for i in 0..10 {
            net.find_successor(ids[i % ids.len()], i as u64 * 1e17 as u64);
        }
        assert_eq!(net.stats.lookups, 10);
        assert!(net.stats.mean_hops() >= 0.0);
    }
}
