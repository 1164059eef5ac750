//! The system-health observatory (`crate::obs::health`), engine side:
//! memory accounting and snapshot collection, pure reads at a unit
//! boundary. Split out of `engine/mod.rs`, one module per concern.

use super::{Engine, PeerSlot};
use crate::key::Key;
use crate::obs::health::{imbalance_of, HealthMonitor, MemoryFootprint, PeerHealth};
use crate::peer::NodeMap;

impl Engine {
    /// Estimated resident bytes of every engine component — the
    /// deterministic walk behind the snapshot's memory accounting.
    /// Length-based (Vec capacities plus fixed per-entry map
    /// estimates), so two seeded runs agree byte-for-byte; never
    /// allocates.
    pub fn bytes_estimate(&self) -> MemoryFootprint {
        use std::mem::size_of;
        let slab = &self.peers;
        let slab_bytes = slab.by_id.capacity() * size_of::<u32>()
            + slab.slots.capacity() * size_of::<Option<PeerSlot>>()
            + slab.free.capacity() * size_of::<u32>()
            // Ring membership: BTreeSet entry ≈ key + tree overhead.
            + self.members.len() * (size_of::<Key>() + 16);
        let mut shard_bytes = 0usize;
        let mut cache_bytes = 0usize;
        for slot in slab.slots.iter().flatten() {
            cache_bytes += slot.cache.bytes_estimate();
            shard_bytes += node_map_bytes(&slot.shard.nodes) + node_map_bytes(&slot.shard.replicas);
        }
        MemoryFootprint {
            directory_bytes: self.directory.bytes_estimate(),
            slab_bytes,
            shard_bytes,
            cache_bytes,
        }
    }

    /// Fills `mon`'s snapshot from current engine state: per-depth
    /// occupancy, per-peer load in ring order, imbalance statistics,
    /// replication health, cache/fault counter deltas and the memory
    /// footprint. A pure read at a unit boundary (call *before*
    /// [`Engine::end_time_unit`] rolls the per-unit load counters), so
    /// health-off runs are untouched and health-on runs stay
    /// deterministic; once the monitor's buffers are warm, collection
    /// does not allocate. `faults` is the transport's cumulative
    /// counter block (`FaultStats::default()` on reliable transports).
    /// `snap.audit_violations` is reset to 0 — callers that also run
    /// [`Engine::audit`] stamp the count afterwards.
    pub fn collect_health(
        &self,
        unit: u64,
        faults: &crate::transport::FaultStats,
        mon: &mut HealthMonitor,
    ) {
        let snap = &mut mon.snap;
        snap.unit = unit;
        snap.peers = self.members.len() as u64;
        snap.nodes = self.directory.len() as u64;
        snap.audit_violations = 0;

        // Per-peer rows in ring order; `scratch_rows` maps interned
        // peer id → row index so the directory pass below can attribute
        // node counts without hashing.
        snap.per_peer.clear();
        mon.scratch_rows.clear();
        mon.scratch_rows
            .resize(self.directory.interned_len(), u32::MAX);
        for (m, shard) in self.shards() {
            let pid = self.directory.id_of(m).expect("members are interned");
            mon.scratch_rows[pid as usize] = snap.per_peer.len() as u32;
            snap.per_peer.push(PeerHealth {
                peer: pid,
                nodes: 0,
                replicas: shard.replicas.len() as u32,
                used: shard.peer.used,
                capacity: shard.peer.capacity,
                messages: shard.nodes.values().map(|n| n.load).sum::<u64>()
                    + shard.replicas.values().map(|n| n.load).sum::<u64>(),
            });
        }
        for (_, host) in self.directory.iter() {
            if let Some(hid) = self.directory.id_of(host) {
                if let Some(&row) = mon.scratch_rows.get(hid as usize) {
                    if row != u32::MAX {
                        snap.per_peer[row as usize].nodes += 1;
                    }
                }
            }
        }

        // Depth occupancy by walking father links (no memo map — the
        // tree is shallow and this avoids allocating).
        snap.depth_occupancy.clear();
        snap.max_depth = 0;
        for shard in self.local_shards() {
            for node in shard.nodes.values() {
                let mut d = 0usize;
                let mut cur = node.father();
                while let Some(f) = cur {
                    d += 1;
                    cur = self.node(f).and_then(|n| n.father());
                }
                if d >= snap.depth_occupancy.len() {
                    snap.depth_occupancy.resize(d + 1, 0);
                }
                snap.depth_occupancy[d] += 1;
                snap.max_depth = snap.max_depth.max(d as u64);
            }
        }
        snap.optimal_depth = if snap.nodes == 0 {
            0.0
        } else {
            (snap.nodes as f64 + 1.0).log2()
        };

        mon.scratch_loads.clear();
        mon.scratch_loads
            .extend(snap.per_peer.iter().map(|p| p.messages));
        let (imb, gini) = imbalance_of(&mut mon.scratch_loads);
        snap.max_over_mean = imb;
        snap.gini = gini;

        // Replication health, read-only (anti-entropy's refresh pass
        // mutates records; this one only counts): a label is under-
        // replicated when fewer than min(k − 1, peers − 1) of its
        // recorded followers are live and hold a copy.
        snap.under_replicated = 0;
        let k = self.replication;
        if k > 1 && self.members.len() > 1 {
            let want = (k - 1).min(self.members.len() - 1);
            for (label, _) in self.directory.iter() {
                let lid = self.directory.id_of(label).expect("live label is interned");
                let live = self
                    .directory
                    .follower_ids(lid)
                    .iter()
                    .filter(|&&f| {
                        self.peers
                            .get(f)
                            .is_some_and(|s| s.shard.replicas.contains_key(label))
                    })
                    .count();
                if live < want {
                    snap.under_replicated += 1;
                }
            }
        }

        let cs = &self.cache_stats;
        snap.cache_hits = cs.hits.saturating_sub(mon.prev_cache.hits);
        snap.cache_stale = cs.stale_hits.saturating_sub(mon.prev_cache.stale_hits);
        snap.cache_learned = cs.learned.saturating_sub(mon.prev_cache.learned);
        mon.prev_cache = cs.clone();

        let p = &mon.prev_faults;
        snap.faults = crate::transport::FaultStats {
            lost: faults.lost.saturating_sub(p.lost),
            duplicated: faults.duplicated.saturating_sub(p.duplicated),
            reordered: faults.reordered.saturating_sub(p.reordered),
            partition_dropped: faults.partition_dropped.saturating_sub(p.partition_dropped),
            duplicates_suppressed: faults
                .duplicates_suppressed
                .saturating_sub(p.duplicates_suppressed),
            retries: faults.retries.saturating_sub(p.retries),
            requests_failed: faults.requests_failed.saturating_sub(p.requests_failed),
            frames_exhausted: faults.frames_exhausted.saturating_sub(p.frames_exhausted),
        };
        mon.prev_faults = *faults;

        snap.bytes = self.bytes_estimate();
    }
}

/// Heap bytes a spilled key owns (0 for inline keys).
fn key_heap_bytes(k: &Key) -> usize {
    if k.is_inline() {
        0
    } else {
        k.len() + 16
    }
}

/// Estimated bytes of one shard-side node map (`nodes` or `replicas`):
/// the map's own slab, hash index and order vector by capacity, plus
/// each node's child, child-id and data vectors by capacity and any
/// spilled key heap.
fn node_map_bytes(map: &NodeMap) -> usize {
    let mut bytes = map.heap_bytes();
    for node in map.values() {
        bytes += node.vec_heap_bytes();
        let keys = node.children().iter().chain(&node.data);
        for k in keys.chain(node.father()).chain([&node.label]) {
            bytes += key_heap_bytes(k);
        }
    }
    bytes
}
