//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a
//! layer's public functions: which layer boundary, start, end, and the
//! span that caused it (the spans of one request hang off its root).
//! Spans stay in a preallocated vector for one segment, are folded into
//! per-layer totals (time, self time, count) and cleared — nothing is
//! recorded inside the program under test, and nothing is formatted or
//! flushed while a segment runs.

use std::ops::{AddAssign, Index};
use std::time::Instant;

/// The layer boundaries spans are recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum L {
    /// One whole operation (the root span of a request or run).
    Op,
    DirectoryRandomNode,
    EngineBeginRequest,
    EngineDeliver,
    EngineTakeFinished,
    EngineEndTimeUnit,
    CacheHitRequest,
    CacheMissRequest,
    SystemInsertData,
    SystemRemoveData,
    SystemAddPeer,
    SystemLeavePeer,
    SystemCrashPeer,
    SystemRepairTree,
    SystemPeerIds,
    SystemDepthMap,
    BalanceChooseJoinId,
    PumpBatch,
    LatnetQuery,
    LatnetLookup,
    DhtRandomMappingBuild,
    DhtPhysicalHops,
    WorkloadsCorpusBuild,
    SimBootstrap,
    SimStepBalance,
    SimStepJoin,
    SimStepLeave,
    SimStepCrashRepair,
    SimStepAntiEntropy,
    SimStepInsert,
    SimStepDiscovery,
    SimFold,
    /// A stand-alone probe's single span kind.
    Probe,
}

const LAYERS: usize = L::Probe as usize + 1;

/// Index of a span within its [`SpanBuf`].
pub type SpanId = u32;
/// "No parent" marker.
pub const ROOT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: L,
    /// The span that caused it, or [`ROOT`].
    parent: SpanId,
    /// Nanoseconds since the buffer's epoch.
    start_ns: u64,
    /// Nanoseconds since the buffer's epoch; 0 while open.
    end_ns: u64,
}

/// Totals of one layer after a fold.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Spans recorded.
    pub count: u64,
    /// Σ duration, net of the timer's own cost.
    pub total_ns: f64,
    /// Σ duration minus the part covered by child spans.
    pub self_ns: f64,
}

impl LayerTotal {
    /// Mean net nanoseconds per span (0 when none were recorded).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns / self.count as f64
        }
    }
}

/// Per-layer totals of one fold, indexed by [`L`].
#[derive(Debug, Clone, PartialEq)]
pub struct Totals([LayerTotal; LAYERS]);

impl Default for Totals {
    fn default() -> Self {
        Totals([LayerTotal::default(); LAYERS])
    }
}

impl Index<L> for Totals {
    type Output = LayerTotal;
    fn index(&self, layer: L) -> &LayerTotal {
        &self.0[layer as usize]
    }
}

impl AddAssign<&Totals> for Totals {
    fn add_assign(&mut self, other: &Totals) {
        for (sum, row) in self.0.iter_mut().zip(&other.0) {
            sum.count += row.count;
            sum.total_ns += row.total_ns;
            sum.self_ns += row.self_ns;
        }
    }
}

/// Span storage for one traced segment.
pub struct SpanBuf {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanBuf {
    /// A buffer with room for `capacity` spans before it reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        SpanBuf {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now.
    #[inline]
    pub fn open(&mut self, layer: L, parent: SpanId) -> SpanId {
        let id = self.spans.len() as SpanId;
        let start_ns = self.now();
        self.spans.push(Span {
            layer,
            parent,
            start_ns,
            end_ns: 0,
        });
        id
    }

    /// Closes a span now and returns its raw duration.
    #[inline]
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end = self.now();
        let s = &mut self.spans[id as usize];
        s.end_ns = end;
        end - s.start_ns
    }

    /// Re-labels a span (used when the layer is only known after the
    /// call, e.g. cache hit vs miss).
    pub fn relabel(&mut self, id: SpanId, layer: L) {
        self.spans[id as usize].layer = layer;
    }

    /// Drops every span, keeping the allocation.
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Folds the buffer into per-layer totals. `timer_ns` is the cost
    /// of one clock read (see [`timer_cost_ns`]): a span's raw duration
    /// holds one, and a parent holds two more per child, so neither
    /// totals nor self times carry the harness's own clock reads.
    pub fn fold(&self, timer_ns: f64) -> Totals {
        let mut child_ns = vec![0f64; self.spans.len()];
        let mut children = vec![0u32; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += (s.end_ns - s.start_ns) as f64;
                children[s.parent as usize] += 1;
            }
        }
        let mut out = Totals::default();
        for (i, s) in self.spans.iter().enumerate() {
            let raw = (s.end_ns - s.start_ns) as f64;
            let kids = children[i] as f64;
            let row = &mut out.0[s.layer as usize];
            row.count += 1;
            row.total_ns += (raw - timer_ns * (1.0 + 2.0 * kids)).max(0.0);
            // Each child's raw duration already holds one of its reads.
            row.self_ns += (raw - child_ns[i] - timer_ns * (1.0 + kids)).max(0.0);
        }
        out
    }
}

/// Median cost, in nanoseconds, of one clock read plus its share of the
/// span bookkeeping — what every span adds to the duration it reports
/// (`bench.timer_ns`).
pub fn timer_cost_ns() -> f64 {
    let mut buf = SpanBuf::with_capacity(4096);
    let mut samples = Vec::with_capacity(64);
    for _ in 0..64 {
        buf.clear();
        let t = Instant::now();
        for _ in 0..4096 {
            let id = buf.open(L::Probe, ROOT);
            buf.close(id);
        }
        // Two clock reads per pair; one of them lands inside the span.
        samples.push(t.elapsed().as_nanos() as f64 / 4096.0 / 2.0);
        std::hint::black_box(&buf.spans);
    }
    crate::hist::median(&samples).expect("64 samples")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: L, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn fold_attributes_self_time_to_the_parent_minus_children() {
        let mut buf = SpanBuf::with_capacity(8);
        // Hand-built spans: parent 0..100, children 10..30 and 40..80.
        buf.spans.push(span(L::Op, ROOT, 0, 100));
        buf.spans.push(span(L::EngineDeliver, 0, 10, 30));
        buf.spans.push(span(L::EngineDeliver, 0, 40, 80));
        let rows = buf.fold(0.0);
        let total = |count, total_ns, self_ns| LayerTotal {
            count,
            total_ns,
            self_ns,
        };
        assert_eq!(rows[L::Op], total(1, 100.0, 40.0));
        assert_eq!(rows[L::EngineDeliver], total(2, 60.0, 60.0));
        assert_eq!(rows[L::EngineDeliver].mean_ns(), 30.0);
        assert_eq!(rows[L::Probe], LayerTotal::default());
        // With a 2 ns clock read: the children net 18 and 38; the
        // parent holds its own read plus two per child.
        let rows = buf.fold(2.0);
        assert_eq!(rows[L::EngineDeliver].total_ns, 56.0);
        assert_eq!(rows[L::Op].total_ns, 90.0);
        assert_eq!(rows[L::Op].self_ns, 34.0);
        let mut sum = rows.clone();
        sum += &rows;
        assert_eq!(sum[L::Op], total(2, 180.0, 68.0));
    }

    #[test]
    fn open_close_relabel_and_clear() {
        let mut buf = SpanBuf::with_capacity(4);
        let root = buf.open(L::Op, ROOT);
        let child = buf.open(L::CacheMissRequest, root);
        buf.close(child);
        buf.close(root);
        buf.relabel(child, L::CacheHitRequest);
        let rows = buf.fold(0.0);
        assert_eq!(rows[L::Op].count, 1);
        assert_eq!(rows[L::CacheMissRequest].count, 0);
        assert_eq!(rows[L::CacheHitRequest].count, 1);
        assert!(rows[L::Op].total_ns >= rows[L::CacheHitRequest].total_ns);
        buf.clear();
        assert_eq!(buf.fold(0.0), Totals::default());
        assert!(timer_cost_ns() > 0.0);
    }
}
