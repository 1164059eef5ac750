//! Request-scoped tracing and allocation-free metrics for the engine.
//!
//! Two cooperating facilities, both native to the interned-id engine:
//!
//! * **Tracing** ([`Tracer`], [`TraceEvent`]): fixed-size structured
//!   events (≤ 32 bytes, u32 ids, never a `Key` clone) emitted from the
//!   engine's admission / routing / gather / retry paths into a
//!   preallocated ring buffer ([`TraceRing`]). Off by default: the
//!   [`Tracer::Noop`] variant reduces every emission site to one
//!   predictable branch, keeping the fault-off hot path allocation-free
//!   and the golden determinism fingerprint byte-identical.
//! * **Metrics** ([`MetricsRegistry`], [`Histogram`]): fixed-size
//!   log-bucketed histograms of per-request hops, ticks, gather fan-out
//!   and retry counts with p50/p90/p99 extraction. Always on — the
//!   buckets are preallocated at engine construction and recording is a
//!   couple of integer ops, so there is nothing to switch off.
//!
//! Every event is emitted on the thread that owns the engine — the
//! batch pump's are emitted by its commit phase, in request order — so
//! `seq` alone orders a trace; the `(round, worker)` fields of the
//! schema are always `(0, 0)`. Exporters ([`write_jsonl`],
//! [`write_chrome_trace`]) serialise an event slice without consulting
//! the directory — the output is a pure function of the events, hence
//! byte-stable across repeats and worker counts.

pub mod health;

use std::io::{self, Write};

/// What happened, one discriminant per schema row. The numeric values
/// are part of the JSONL schema (`kind` field) — append only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A request entered the system. `a` = entry node id, `b` = entry
    /// host peer id.
    Admit = 0,
    /// A discovery envelope was accepted by a node. `a` = node id,
    /// `b` = hosting peer id, `depth` = hops travelled so far.
    Hop = 1,
    /// The entry peer's route cache produced a fresh shortcut.
    /// `a` = entry node id.
    CacheHit = 2,
    /// The route cache held a shortcut whose epoch was stale; it was
    /// evicted and the request took the full route. `a` = entry node id.
    CacheStale = 3,
    /// The route cache was consulted and held nothing usable.
    /// `a` = entry node id.
    CacheMiss = 4,
    /// A gather response fanned out into child branches. `a` = number
    /// of branches opened, `depth` = responder depth.
    BranchOpen = 5,
    /// A gather branch closed (leaf response, no children).
    /// `depth` = responder depth.
    BranchClose = 6,
    /// The request was re-armed and its origin envelope re-issued after
    /// a suspected loss. `a` = retry attempt number (1-based).
    Retry = 7,
    /// A duplicated satisfied response was recognised by the
    /// idempotency filter and discarded.
    DedupSuppress = 8,
    /// A discovery visit was dropped: refused by an exhausted peer
    /// (`flags` = 0) or abandoned as undeliverable (`flags` = 1).
    /// `a` = node id when known.
    Drop = 9,
    /// The request finalised satisfied. `a` = result count,
    /// `b` = gather visits, `depth` = logical hops.
    Satisfy = 10,
    /// The request finalised unsatisfied (dropped branches or
    /// unresolved fan-out). `a` = result count, `b` = gather visits,
    /// `depth` = logical hops.
    Fail = 11,
}

impl EventKind {
    /// Stable lower-case schema name, used by the JSONL exporter.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Admit => "admit",
            EventKind::Hop => "hop",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheStale => "cache_stale",
            EventKind::CacheMiss => "cache_miss",
            EventKind::BranchOpen => "branch_open",
            EventKind::BranchClose => "branch_close",
            EventKind::Retry => "retry",
            EventKind::DedupSuppress => "dedup_suppress",
            EventKind::Drop => "drop",
            EventKind::Satisfy => "satisfy",
            EventKind::Fail => "fail",
        }
    }
}

/// One fixed-size trace record. Fields `a`/`b`/`depth` are
/// kind-dependent (see [`EventKind`]); ids are interned u32s from the
/// engine [`crate::directory::Directory`], so an event never clones a
/// `Key`. `seq` is stamped by the ring at emission and orders the
/// trace; `round` and `worker` are kept for schema stability and are
/// always 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Request id (low 32 bits of the engine's request counter).
    pub request: u32,
    /// First kind-dependent operand (usually a node id).
    pub a: u32,
    /// Second kind-dependent operand (usually a peer id).
    pub b: u32,
    /// Always 0; the field stays so the exported schema is stable.
    pub round: u32,
    /// Per-producer monotonic sequence number.
    pub seq: u32,
    /// Event discriminant.
    pub kind: EventKind,
    /// Kind-dependent flag bits.
    pub flags: u8,
    /// Always 0; the field stays so the exported schema is stable.
    pub worker: u16,
    /// Kind-dependent depth / hop count, saturated at `u16::MAX`.
    pub depth: u16,
}

// The tentpole contract: events stay register-sized so a full ring is
// a few hundred KiB and emission is a handful of moves.
const _: () = assert!(std::mem::size_of::<TraceEvent>() <= 32);

impl TraceEvent {
    /// An event awaiting emission: `(round, worker)` = `(0, 0)`,
    /// `seq` stamped by the ring. `request` keeps the low
    /// 32 bits of the engine's request counter; `depth` saturates.
    #[inline]
    pub fn new(kind: EventKind, request: u64, a: u32, b: u32, depth: usize) -> Self {
        TraceEvent {
            request: request as u32,
            a,
            b,
            round: 0,
            seq: 0,
            kind,
            flags: 0,
            worker: 0,
            depth: depth.min(u16::MAX as usize) as u16,
        }
    }
}

/// Preallocated bounded event buffer. When full, the oldest event is
/// overwritten and `dropped` counts the loss — tracing never grows the
/// heap after construction.
#[derive(Debug)]
pub struct TraceRing {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest retained event.
    head: usize,
    /// Events currently retained.
    len: usize,
    /// Events overwritten because the ring was full.
    dropped: u64,
    /// Next engine-side sequence number (monotonic across drains).
    seq: u32,
}

impl TraceRing {
    /// Creates a ring holding at most `capacity` events, fully
    /// preallocated up front.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRing {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            len: 0,
            dropped: 0,
            seq: 0,
        }
    }

    /// Appends one event, overwriting the oldest when full.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
            self.len += 1;
        } else {
            let at = (self.head + self.len) % self.capacity;
            self.buf[at] = ev;
            if self.len < self.capacity {
                self.len += 1;
            } else {
                self.head = (self.head + 1) % self.capacity;
                self.dropped += 1;
            }
        }
    }

    /// Takes and returns the next engine-side sequence number.
    #[inline]
    pub fn next_seq(&mut self) -> u32 {
        let s = self.seq;
        self.seq = self.seq.wrapping_add(1);
        s
    }

    /// Events retained right now.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events lost to overwrites since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drains every retained event in arrival order. Capacity and the
    /// sequence counter are kept, so drains can be interleaved with
    /// emission without renumbering.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.len);
        for i in 0..self.len {
            out.push(self.buf[(self.head + i) % self.capacity]);
        }
        self.head = 0;
        self.len = 0;
        self.buf.clear();
        out
    }
}

/// The engine's tracing hook. [`Tracer::Noop`] (the default) keeps
/// every emission site down to one branch; [`Tracer::Ring`] records
/// into a preallocated [`TraceRing`].
///
/// Enum dispatch rather than a trait object keeps the engine concrete
/// (no generic parameter, no vtable) and lets the compiler fold the
/// off-path to nothing.
#[derive(Debug, Default)]
pub enum Tracer {
    /// Tracing off: emissions are discarded before being built.
    #[default]
    Noop,
    /// Tracing on: events land in the ring.
    Ring(TraceRing),
}

impl Tracer {
    /// True when events will actually be recorded. Emission sites gate
    /// on this so the off path never constructs an event.
    #[inline]
    pub fn enabled(&self) -> bool {
        matches!(self, Tracer::Ring(_))
    }

    /// Records `ev`, stamping the engine-side sequence number. No-op
    /// when tracing is off — but call sites should gate on
    /// [`Tracer::enabled`] first so the event is never even built.
    #[inline]
    pub fn emit(&mut self, mut ev: TraceEvent) {
        if let Tracer::Ring(ring) = self {
            ev.seq = ring.next_seq();
            ring.push(ev);
        }
    }

    /// Drains buffered events; empty when tracing is off.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        match self {
            Tracer::Noop => Vec::new(),
            Tracer::Ring(ring) => ring.drain(),
        }
    }
}

/// Number of exact unit-width buckets at the bottom of a [`Histogram`].
const EXACT: usize = 16;
/// Sub-buckets per octave above the exact range.
const SUBS: usize = 8;
/// First octave covered by log-linear buckets (values `16..32`).
const FIRST_OCTAVE: u32 = 4;
/// Total bucket count: exact range + 8 sub-buckets for each of the
/// octaves `4..=63`.
const BUCKETS: usize = EXACT + (64 - FIRST_OCTAVE as usize) * SUBS;

/// Fixed-size log-linear histogram over `u64` values.
///
/// Values below 16 get exact unit buckets; above that, each power-of-two
/// octave is split into 8 equal sub-buckets, so any quantile read back
/// from a bucket's lower bound is below the true value by less than
/// 12.5% (`1/8` of the value, the sub-bucket width). All 496 buckets
/// are preallocated at construction — recording is two shifts, a
/// subtract and an increment, and never allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram with every bucket preallocated.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index of `v`.
    #[inline]
    fn index(v: u64) -> usize {
        if v < EXACT as u64 {
            v as usize
        } else {
            let octave = 63 - v.leading_zeros();
            let sub = ((v >> (octave - 3)) - SUBS as u64) as usize;
            EXACT + (octave - FIRST_OCTAVE) as usize * SUBS + sub
        }
    }

    /// Lower bound of bucket `i` — the value quantiles report.
    #[inline]
    fn lower_bound(i: usize) -> u64 {
        if i < EXACT {
            i as u64
        } else {
            let octave = (i - EXACT) as u32 / SUBS as u32 + FIRST_OCTAVE;
            let sub = ((i - EXACT) % SUBS) as u64;
            (SUBS as u64 + sub) << (octave - 3)
        }
    }

    /// Records one observation. Never allocates.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of every bucket's lower bound weighted by its count — an
    /// under-estimate of the true sum with the same ≤ 12.5% bound as
    /// the quantiles.
    pub fn approx_sum(&self) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| c * Self::lower_bound(i))
            .sum()
    }

    /// The `q`-quantile (`0.0..=1.0`) as the lower bound of the bucket
    /// holding the rank-`⌊q·(n−1)⌋` observation; `None` when the
    /// histogram is empty (a bucket-0 bound would be indistinguishable
    /// from a real observation of 0). The reported value `r` satisfies
    /// `r ≤ true ≤ r + r/8` (exact below 16).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.total - 1) as f64) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Some(Self::lower_bound(i));
            }
        }
        Some(Self::lower_bound(BUCKETS - 1))
    }

    /// Accumulates another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Clears every bucket.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
    }
}

/// Per-engine registry of request-shape histograms. Preallocated at
/// engine construction (~16 KiB) and recorded into at request
/// finalisation; read through [`crate::engine::Engine::metrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    /// Logical hops of the winning path per finished request.
    pub hops: Histogram,
    /// Per-request work ticks: path length plus gather visits — the
    /// engine-side proxy for how long the request stayed in flight.
    pub ticks: Histogram,
    /// Gather fan-out (partial reports folded) per finished request.
    pub fanout: Histogram,
    /// Retry attempts per finished request (0 on reliable transports).
    pub retries: Histogram,
}

impl MetricsRegistry {
    /// Records one finished request's shape.
    #[inline]
    pub fn record_request(&mut self, hops: u64, ticks: u64, fanout: u64, retries: u64) {
        self.hops.record(hops);
        self.ticks.record(ticks);
        self.fanout.record(fanout);
        self.retries.record(retries);
    }

    /// Accumulates another registry into this one.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        self.hops.merge(&other.hops);
        self.ticks.merge(&other.ticks);
        self.fanout.merge(&other.fanout);
        self.retries.merge(&other.retries);
    }

    /// Clears every histogram.
    pub fn reset(&mut self) {
        self.hops.reset();
        self.ticks.reset();
        self.fanout.reset();
        self.retries.reset();
    }
}

/// Writes one event per line as flat JSON, in slice order. Pure
/// function of the events — no directory access, no timestamps — so
/// two identical runs produce byte-identical files.
pub fn write_jsonl<W: Write>(events: &[TraceEvent], w: &mut W) -> io::Result<()> {
    for ev in events {
        writeln!(
            w,
            "{{\"req\":{},\"kind\":\"{}\",\"a\":{},\"b\":{},\"depth\":{},\"flags\":{},\"round\":{},\"worker\":{},\"seq\":{}}}",
            ev.request,
            ev.kind.name(),
            ev.a,
            ev.b,
            ev.depth,
            ev.flags,
            ev.round,
            ev.worker,
            ev.seq
        )?;
    }
    Ok(())
}

/// Writes a chrome://tracing (Trace Event Format) JSON array: each
/// request is a process (`pid`), each producing worker a thread
/// (`tid`), and every trace event a 1-tick complete span (`ph:"X"`)
/// whose timestamp is its deterministic merge position in the slice.
/// Deterministic for the same reason as [`write_jsonl`].
pub fn write_chrome_trace<W: Write>(events: &[TraceEvent], w: &mut W) -> io::Result<()> {
    write!(w, "[")?;
    for (ts, ev) in events.iter().enumerate() {
        if ts > 0 {
            write!(w, ",")?;
        }
        write!(
            w,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":1,\
             \"args\":{{\"a\":{},\"b\":{},\"depth\":{},\"flags\":{},\"round\":{},\"worker\":{},\"seq\":{}}}}}",
            ev.kind.name(),
            ev.request,
            ev.worker,
            ts,
            ev.a,
            ev.b,
            ev.depth,
            ev.flags,
            ev.round,
            ev.worker,
            ev.seq
        )?;
    }
    writeln!(w, "\n]")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn event_fits_in_32_bytes() {
        assert!(std::mem::size_of::<TraceEvent>() <= 32);
    }

    fn ev(seq: u32) -> TraceEvent {
        TraceEvent {
            request: 1,
            a: 2,
            b: 3,
            round: 0,
            seq,
            kind: EventKind::Hop,
            flags: 0,
            worker: 0,
            depth: 4,
        }
    }

    #[test]
    fn ring_retains_newest_when_full_and_counts_drops() {
        let mut ring = TraceRing::with_capacity(4);
        for s in 0..10 {
            ring.push(ev(s));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6);
        let drained: Vec<u32> = ring.drain().iter().map(|e| e.seq).collect();
        assert_eq!(drained, vec![6, 7, 8, 9]);
        assert!(ring.is_empty());
        // Post-drain pushes start clean.
        ring.push(ev(10));
        assert_eq!(ring.drain().len(), 1);
    }

    #[test]
    fn noop_tracer_discards_and_ring_tracer_records() {
        let mut t = Tracer::Noop;
        assert!(!t.enabled());
        t.emit(ev(0));
        assert!(t.drain().is_empty());
        let mut t = Tracer::Ring(TraceRing::with_capacity(8));
        assert!(t.enabled());
        t.emit(ev(99)); // seq is re-stamped by the ring
        t.emit(ev(99));
        let got = t.drain();
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].seq, got[1].seq), (0, 1));
        // emit() keeps numbering across drains.
        t.emit(ev(0));
        let got = t.drain();
        assert_eq!(got[0].seq, 2);
    }

    #[test]
    fn histogram_is_exact_below_sixteen() {
        let mut h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(15));
        assert_eq!(h.count(), 16);
        assert_eq!(h.approx_sum(), (0..16).sum::<u64>());
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(
                h.quantile(q),
                None,
                "empty histogram must report None at q={q}"
            );
        }
        assert_eq!(h.count(), 0);
        assert_eq!(h.approx_sum(), 0);
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let mut h = Histogram::new();
        h.record(7);
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(h.quantile(q), Some(7));
        }
        // Above the exact range the single sample still owns every
        // quantile, reported as its bucket's lower bound.
        let mut h = Histogram::new();
        h.record(1000);
        let got = h.quantile(0.5).unwrap();
        assert!(got <= 1000 && 1000 - got <= got / 8);
        assert_eq!(h.quantile(0.0), h.quantile(1.0));
    }

    #[test]
    fn top_bucket_saturates_without_overflow() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        // Both land in the final bucket; quantiles stay in range and
        // report that bucket's lower bound.
        let lb = Histogram::lower_bound(BUCKETS - 1);
        assert_eq!(h.quantile(0.0), Some(lb));
        assert_eq!(h.quantile(1.0), Some(lb));
        assert_eq!(h.count(), 2);
        // Mixing in a small sample keeps the order statistics sane.
        h.record(1);
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(1.0), Some(lb));
    }

    #[test]
    fn histogram_bucket_roundtrip_on_boundaries() {
        for v in [0u64, 1, 15, 16, 17, 31, 32, 100, 1 << 20, u64::MAX] {
            let i = Histogram::index(v);
            assert!(i < BUCKETS, "index {i} out of range for {v}");
            let lb = Histogram::lower_bound(i);
            assert!(lb <= v, "lower bound {lb} above value {v}");
            // Sub-bucket width is lb/(8+sub) ≤ lb/8.
            assert!(
                v - lb <= lb / 8,
                "value {v} more than 12.5% above bucket bound {lb}"
            );
        }
    }

    #[test]
    fn merge_and_reset() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(3);
        b.record(300);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        a.reset();
        assert_eq!(a.count(), 0);
        assert_eq!(a.quantile(0.5), None);

        let mut r = MetricsRegistry::default();
        r.record_request(2, 5, 1, 0);
        let mut r2 = MetricsRegistry::default();
        r2.merge(&r);
        assert_eq!(r2.hops.count(), 1);
        r2.reset();
        assert_eq!(r2, MetricsRegistry::default());
    }

    #[test]
    fn exporters_are_deterministic_and_well_formed() {
        let events: Vec<TraceEvent> = (0..5).map(ev).collect();
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_jsonl(&events, &mut a).unwrap();
        write_jsonl(&events, &mut b).unwrap();
        assert_eq!(a, b);
        let text = String::from_utf8(a).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));

        let mut c = Vec::new();
        write_chrome_trace(&events, &mut c).unwrap();
        let chrome = String::from_utf8(c).unwrap();
        assert!(chrome.trim_start().starts_with('['));
        assert!(chrome.trim_end().ends_with(']'));
        assert_eq!(chrome.matches("\"ph\":\"X\"").count(), 5);
    }

    proptest! {
        /// The satellite bound: every histogram quantile sits within
        /// 12.5% below the exact sort-based quantile of the same data.
        #[test]
        fn histogram_quantiles_track_exact_quantiles(
            mut values in proptest::collection::vec(0u64..1_000_000, 1..400),
            qs in proptest::collection::vec(0.0f64..=1.0, 1..8),
        ) {
            let mut h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            values.sort_unstable();
            for q in qs {
                let rank = (q * (values.len() - 1) as f64) as usize;
                let exact = values[rank];
                let got = h.quantile(q).expect("non-empty histogram has quantiles");
                prop_assert!(got <= exact, "q={q}: histogram {got} above exact {exact}");
                prop_assert!(
                    exact - got <= got / 8,
                    "q={q}: histogram {got} more than 12.5% below exact {exact}"
                );
            }
        }
    }
}
