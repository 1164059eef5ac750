//! Request-scoped tracing for the engine.
//!
//! [`Tracer`] / [`TraceEvent`]: fixed-size structured events (≤ 32
//! bytes, u32 ids, never a `Key` clone) emitted from the engine's
//! admission / routing / gather / retry paths into a preallocated ring
//! buffer ([`TraceRing`]). Off by default: the [`Tracer::Noop`] variant
//! reduces every emission site to one predictable branch, keeping the
//! fault-off hot path allocation-free and the golden determinism
//! fingerprint byte-identical.
//!
//! Every event is emitted on the thread that owns the engine, so `seq`
//! alone orders a trace. The exporter ([`write_jsonl`]) serialises an
//! event slice without consulting the directory — the output is a pure
//! function of the events, hence byte-stable across repeats.

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
/// trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Request id (low 32 bits of the engine's request counter).
    pub request: u32,
    /// First kind-dependent operand (usually a node id).
    pub a: u32,
    /// Second kind-dependent operand (usually a peer id).
    pub b: u32,
    /// Monotonic sequence number.
    pub seq: u32,
    /// Event discriminant.
    pub kind: EventKind,
    /// Kind-dependent flag bits.
    pub flags: u8,
    /// Kind-dependent depth / hop count, saturated at `u16::MAX`.
    pub depth: u16,
}

// The tentpole contract: events stay register-sized so a full ring is
// a few hundred KiB and emission is a handful of moves.
const _: () = assert!(std::mem::size_of::<TraceEvent>() <= 32);

impl TraceEvent {
    /// An event awaiting emission: `seq` is stamped by the ring.
    /// `request` keeps the low 32 bits of the engine's request counter;
    /// `depth` saturates.
    #[inline]
    pub fn new(kind: EventKind, request: u64, a: u32, b: u32, depth: usize) -> Self {
        TraceEvent {
            request: request as u32,
            a,
            b,
            seq: 0,
            kind,
            flags: 0,
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

/// Writes one event per line as flat JSON, in slice order. Pure
/// function of the events — no directory access, no timestamps — so
/// two identical runs produce byte-identical files.
pub fn write_jsonl<W: Write>(events: &[TraceEvent], w: &mut W) -> io::Result<()> {
    for ev in events {
        writeln!(
            w,
            "{{\"req\":{},\"kind\":\"{}\",\"a\":{},\"b\":{},\"depth\":{},\"flags\":{},\"seq\":{}}}",
            ev.request,
            ev.kind.name(),
            ev.a,
            ev.b,
            ev.depth,
            ev.flags,
            ev.seq
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_fits_in_32_bytes() {
        assert!(std::mem::size_of::<TraceEvent>() <= 32);
    }

    fn ev(seq: u32) -> TraceEvent {
        TraceEvent {
            request: 1,
            a: 2,
            b: 3,
            seq,
            kind: EventKind::Hop,
            flags: 0,
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
    }
}
