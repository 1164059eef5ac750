//! System-health observatory: deterministic cluster snapshots, the
//! invariant-audit vocabulary, and per-component memory accounting.
//!
//! Where `obs` proper answers *request-scoped* questions (what did one
//! lookup do?), this module answers *system-scoped* ones: how are
//! logical nodes and load distributed over peers and depths, is the
//! structure still internally consistent, and what does a node cost in
//! bytes. Three cooperating pieces:
//!
//! * [`HealthSnapshot`] — a preallocated record filled in place by
//!   [`Engine::collect_health`](crate::engine::Engine::collect_health)
//!   on demand or on a unit cadence. Collection is a pure read of
//!   engine state (no counters in the hot path, no allocation once the
//!   buffers are warm), so health-off runs are byte-identical to the
//!   golden fingerprint and health-on runs are deterministic per seed.
//! * [`Violation`] / [`AuditCheck`] — the structured result vocabulary
//!   of [`Engine::audit`](crate::engine::Engine::audit), which checks
//!   directory↔slab↔trie↔replication cross-consistency and returns
//!   findings instead of panicking.
//! * [`MemoryFootprint`] — the result of
//!   [`Engine::bytes_estimate`](crate::engine::Engine::bytes_estimate),
//!   a deterministic walk over Directory / peer slab / shards / route
//!   caches, embedded in every snapshot as bytes-per-node and
//!   bytes-per-peer.
//!
//! Exporters serialise a snapshot as one JSONL object (fixed key
//! order, fixed float precision — two seeded runs diff clean) or as
//! Prometheus-style gauge text.

use crate::cache::CacheStats;
use crate::transport::FaultStats;
use std::fmt::{self, Write as _};

/// Per-peer health row: one peer's share of the structure and of this
/// unit's traffic. Fixed-size, reused across snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerHealth {
    /// The peer's interned directory id.
    pub peer: u32,
    /// Logical nodes the directory maps onto this peer.
    pub nodes: u32,
    /// Follower replica copies held (0 when the shard is remote).
    pub replicas: u32,
    /// Capacity charged this unit (`used`; 0 when the shard is remote
    /// or admission is uncharged).
    pub used: u32,
    /// The peer's admission capacity (`u32::MAX` ≈ unbounded).
    pub capacity: u32,
    /// Messages handled since the last snapshot: discovery visits
    /// recorded on this peer's nodes and replicas in the current unit.
    pub messages: u64,
}

/// Estimated resident bytes per engine component, from a deterministic
/// length-based walk (Vec capacities are counted where the engine owns
/// the Vec; map overheads use fixed per-entry estimates, so the result
/// is a function of logical state, not allocator history).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Directory: interned keys (+ spilled key heap), id map, host and
    /// follower tables, epochs.
    pub directory_bytes: usize,
    /// Peer slab: id index, slot array, free list (excluding the
    /// shards and caches the slots own, counted separately).
    pub slab_bytes: usize,
    /// Locally hosted shards: peer state plus node and replica maps,
    /// including each node's child/data key sets.
    pub shard_bytes: usize,
    /// Route caches: slot arrays, index maps and spilled shortcut keys.
    pub cache_bytes: usize,
}

impl MemoryFootprint {
    /// Total estimated bytes across every component.
    pub fn total(&self) -> usize {
        self.directory_bytes + self.slab_bytes + self.shard_bytes + self.cache_bytes
    }

    /// Bytes per logical node (0.0 when the tree is empty).
    pub fn per_node(&self, nodes: u64) -> f64 {
        if nodes == 0 {
            0.0
        } else {
            self.total() as f64 / nodes as f64
        }
    }

    /// Bytes per peer (0.0 when there are no peers).
    pub fn per_peer(&self, peers: u64) -> f64 {
        if peers == 0 {
            0.0
        } else {
            self.total() as f64 / peers as f64
        }
    }
}

/// One filled system snapshot. Every buffer is preallocated by the
/// owning [`HealthMonitor`] and reused; collection never allocates
/// once the buffers have reached their high-water marks.
#[derive(Debug, Clone, Default)]
pub struct HealthSnapshot {
    /// The time unit (or collection index) this snapshot describes.
    pub unit: u64,
    /// Live peers (ring members).
    pub peers: u64,
    /// Live logical nodes (directory entries).
    pub nodes: u64,
    /// Node count per tree depth (`depth_occupancy[d]` = nodes at
    /// depth `d`; empty when no shard is hosted locally).
    pub depth_occupancy: Vec<u64>,
    /// Per-peer rows in ring (lexicographic member) order.
    pub per_peer: Vec<PeerHealth>,
    /// Max/mean of per-peer messages handled this unit (1.0 = perfectly
    /// balanced, 0.0 when no messages flowed).
    pub max_over_mean: f64,
    /// Gini coefficient over per-peer messages handled this unit
    /// (0.0 = equal shares, →1.0 = one peer does everything).
    pub gini: f64,
    /// Deepest occupied tree level.
    pub max_depth: u64,
    /// Information-theoretic depth floor `log2(nodes + 1)` — the depth
    /// a perfectly balanced binary PGCP tree of this size would have.
    pub optimal_depth: f64,
    /// Labels whose live follower count is below the replication
    /// target `min(k − 1, peers − 1)`.
    pub under_replicated: u64,
    /// Route-cache hits since the last snapshot.
    pub cache_hits: u64,
    /// Stale-shortcut evictions since the last snapshot.
    pub cache_stale: u64,
    /// Shortcuts learned since the last snapshot.
    pub cache_learned: u64,
    /// Fault-layer counter deltas since the last snapshot.
    pub faults: FaultStats,
    /// Violations reported by the last `Engine::audit` pass, when the
    /// collector ran one (0 otherwise).
    pub audit_violations: u64,
    /// Memory accounting for the whole engine at snapshot time.
    pub bytes: MemoryFootprint,
}

/// Owns a [`HealthSnapshot`] plus the previous-counter state needed to
/// turn cumulative engine counters into per-snapshot deltas, and the
/// scratch buffers the collection walk reuses. Create one per engine
/// and pass it to `Engine::collect_health` at each observation point.
#[derive(Debug, Default)]
pub struct HealthMonitor {
    /// The most recently collected snapshot.
    pub snap: HealthSnapshot,
    /// Cache counters at the previous collection.
    pub(crate) prev_cache: CacheStats,
    /// Fault counters at the previous collection.
    pub(crate) prev_faults: FaultStats,
    /// Scratch: per-peer message loads, sorted for the Gini walk.
    pub(crate) scratch_loads: Vec<u64>,
    /// Scratch: interned peer id → row index in `snap.per_peer`.
    pub(crate) scratch_rows: Vec<u32>,
}

impl HealthMonitor {
    /// A monitor with empty buffers; the first collection sizes them.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Which audit pass produced a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditCheck {
    /// Directory self-consistency: interned ids resolve, hosts are
    /// live members with slab slots.
    Directory,
    /// Peer-slab integrity: id↔slot bijection, free-list partition.
    Slab,
    /// The mapping rule: every label's host is the lowest peer ≥ it.
    Mapping,
    /// Ring links: every local shard's pred/succ match ring order.
    Ring,
    /// PGCP trie invariants on locally hosted nodes.
    Trie,
    /// Replication bookkeeping: follower counts ≤ k − 1, followers
    /// live.
    Replication,
    /// Route caches: index consistent with the slots,
    /// shortcuts reference plausible (non-future) epochs.
    Cache,
    /// Tree links: every memoised label id names its link's label.
    LinkIds,
}

impl AuditCheck {
    /// Stable lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            AuditCheck::Directory => "directory",
            AuditCheck::Slab => "slab",
            AuditCheck::Mapping => "mapping",
            AuditCheck::Ring => "ring",
            AuditCheck::Trie => "trie",
            AuditCheck::Replication => "replication",
            AuditCheck::Cache => "cache",
            AuditCheck::LinkIds => "link_ids",
        }
    }
}

/// One structured audit finding: which cross-consistency check failed
/// and a human-readable account of the offending state. Returned (never
/// panicked) so fault/partition scenarios can audit mid-recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The audit pass that failed.
    pub check: AuditCheck,
    /// What exactly is inconsistent.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.check.name(), self.detail)
    }
}

/// Max/mean and Gini over a scratch slice of per-peer loads. Sorts the
/// slice in place (ascending); returns `(max_over_mean, gini)`, both
/// 0.0 when the slice is empty or all-zero.
pub(crate) fn imbalance_of(loads: &mut [u64]) -> (f64, f64) {
    let n = loads.len() as u64;
    let sum: u64 = loads.iter().sum();
    if n == 0 || sum == 0 {
        return (0.0, 0.0);
    }
    loads.sort_unstable();
    let max = *loads.last().unwrap();
    let mean = sum as f64 / n as f64;
    // G = (2 Σ i·x_i) / (n Σ x) − (n + 1)/n, i ascending 1-based.
    let weighted: u128 = loads
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as u128 + 1) * x as u128)
        .sum();
    let gini = (2.0 * weighted as f64) / (n as f64 * sum as f64) - (n as f64 + 1.0) / n as f64;
    (max as f64 / mean, gini.max(0.0))
}

impl HealthSnapshot {
    /// Appends this snapshot as one JSON object line to `out`. Fixed
    /// key order and fixed float precision (`{:.4}` ratios, `{:.1}`
    /// bytes) keep two seeded runs byte-identical. `cfg` and `run` tag
    /// the experiment and run index the line belongs to.
    pub fn write_jsonl_line(&self, cfg: &str, run: u64, out: &mut String) {
        let f = &self.faults;
        let _ = write!(
            out,
            "{{\"cfg\":\"{}\",\"run\":{},\"unit\":{},\"peers\":{},\"nodes\":{},\
             \"max_depth\":{},\"opt_depth\":{:.4},\"imbalance\":{:.4},\"gini\":{:.4},\
             \"under_replicated\":{},\"cache_hits\":{},\"cache_stale\":{},\"cache_learned\":{},\
             \"lost\":{},\"duplicated\":{},\"reordered\":{},\"partition_dropped\":{},\
             \"dedup_suppressed\":{},\"retries\":{},\"requests_failed\":{},\"violations\":{},\
             \"bytes_total\":{},\"bytes_directory\":{},\"bytes_slab\":{},\"bytes_shards\":{},\
             \"bytes_caches\":{},\"bytes_per_node\":{:.1},\"bytes_per_peer\":{:.1},\
             \"depth_occupancy\":[",
            cfg,
            run,
            self.unit,
            self.peers,
            self.nodes,
            self.max_depth,
            self.optimal_depth,
            self.max_over_mean,
            self.gini,
            self.under_replicated,
            self.cache_hits,
            self.cache_stale,
            self.cache_learned,
            f.lost,
            f.duplicated,
            f.reordered,
            f.partition_dropped,
            f.duplicates_suppressed,
            f.retries,
            f.requests_failed,
            self.audit_violations,
            self.bytes.total(),
            self.bytes.directory_bytes,
            self.bytes.slab_bytes,
            self.bytes.shard_bytes,
            self.bytes.cache_bytes,
            self.bytes.per_node(self.nodes),
            self.bytes.per_peer(self.peers),
        );
        for (i, c) in self.depth_occupancy.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{c}");
        }
        out.push_str("],\"peer_load\":[");
        for (i, p) in self.per_peer.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "[{},{},{},{},{}]",
                p.peer, p.nodes, p.replicas, p.used, p.messages
            );
        }
        out.push_str("]}\n");
    }

    /// Appends this snapshot as Prometheus-style gauge text. One
    /// `# TYPE` header per family, per-peer gauges labelled by interned
    /// id — deterministic for the same reason as the JSONL form.
    pub fn write_prometheus(&self, out: &mut String) {
        let scalars: [(&str, f64); 10] = [
            ("dlpt_peers", self.peers as f64),
            ("dlpt_nodes", self.nodes as f64),
            ("dlpt_max_depth", self.max_depth as f64),
            ("dlpt_optimal_depth", self.optimal_depth),
            ("dlpt_load_imbalance", self.max_over_mean),
            ("dlpt_load_gini", self.gini),
            ("dlpt_under_replicated", self.under_replicated as f64),
            ("dlpt_audit_violations", self.audit_violations as f64),
            ("dlpt_bytes_total", self.bytes.total() as f64),
            ("dlpt_unit", self.unit as f64),
        ];
        for (name, v) in scalars {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v:.4}");
        }
        let counters: [(&str, u64); 6] = [
            ("dlpt_cache_hits", self.cache_hits),
            ("dlpt_cache_stale", self.cache_stale),
            ("dlpt_cache_learned", self.cache_learned),
            ("dlpt_frames_lost", self.faults.lost),
            ("dlpt_frames_duplicated", self.faults.duplicated),
            ("dlpt_retries", self.faults.retries),
        ];
        for (name, v) in counters {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        }
        let _ = writeln!(out, "# TYPE dlpt_peer_nodes gauge");
        for p in &self.per_peer {
            let _ = writeln!(out, "dlpt_peer_nodes{{peer=\"{}\"}} {}", p.peer, p.nodes);
        }
        let _ = writeln!(out, "# TYPE dlpt_peer_messages gauge");
        for p in &self.per_peer {
            let _ = writeln!(
                out,
                "dlpt_peer_messages{{peer=\"{}\"}} {}",
                p.peer, p.messages
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_of_degenerate_slices() {
        assert_eq!(imbalance_of(&mut []), (0.0, 0.0));
        assert_eq!(imbalance_of(&mut [0, 0, 0]), (0.0, 0.0));
        // Perfect balance: max/mean 1, Gini 0.
        let (m, g) = imbalance_of(&mut [5, 5, 5, 5]);
        assert!((m - 1.0).abs() < 1e-12);
        assert!(g.abs() < 1e-12);
        // Total concentration on one of n peers: max/mean = n,
        // Gini = (n-1)/n.
        let (m, g) = imbalance_of(&mut [0, 0, 0, 12]);
        assert!((m - 4.0).abs() < 1e-12);
        assert!((g - 0.75).abs() < 1e-12);
    }

    #[test]
    fn footprint_ratios_guard_division_by_zero() {
        let fp = MemoryFootprint {
            directory_bytes: 100,
            slab_bytes: 20,
            shard_bytes: 300,
            cache_bytes: 4,
        };
        assert_eq!(fp.total(), 424);
        assert_eq!(fp.per_node(0), 0.0);
        assert_eq!(fp.per_peer(0), 0.0);
        assert!((fp.per_node(4) - 106.0).abs() < 1e-12);
    }

    #[test]
    fn jsonl_line_is_deterministic_and_flat() {
        let mut snap = HealthSnapshot {
            unit: 3,
            peers: 2,
            nodes: 5,
            max_depth: 2,
            optimal_depth: 2.585,
            max_over_mean: 1.5,
            gini: 0.25,
            ..Default::default()
        };
        snap.depth_occupancy = vec![1, 2, 2];
        snap.per_peer = vec![
            PeerHealth {
                peer: 0,
                nodes: 3,
                messages: 9,
                ..Default::default()
            },
            PeerHealth {
                peer: 1,
                nodes: 2,
                messages: 3,
                ..Default::default()
            },
        ];
        let mut a = String::new();
        let mut b = String::new();
        snap.write_jsonl_line("t", 0, &mut a);
        snap.write_jsonl_line("t", 0, &mut b);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"cfg\":\"t\",\"run\":0,\"unit\":3,"));
        assert!(a.ends_with("]}\n"));
        assert!(a.contains("\"depth_occupancy\":[1,2,2]"));
        assert!(a.contains("\"violations\":0,\"bytes_total\""));
        assert!(a.contains("\"peer_load\":[[0,3,0,0,9],[1,2,0,0,3]]"));

        let mut prom = String::new();
        snap.write_prometheus(&mut prom);
        assert!(prom.contains("dlpt_peers 2.0000"));
        assert!(prom.contains("dlpt_peer_nodes{peer=\"0\"} 3"));
    }

    #[test]
    fn violations_render_with_check_names() {
        let v = Violation {
            check: AuditCheck::Mapping,
            detail: "node x hosted off-rule".into(),
        };
        assert_eq!(v.to_string(), "[mapping] node x hosted off-rule");
        assert_eq!(AuditCheck::Cache.name(), "cache");
    }
}
