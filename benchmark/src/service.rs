//! The three `DlptSystem` service workloads — `lookup_uniform`,
//! `lookup_zipf_cached`, `register_churn` — on one overlay shape: 100
//! peers, the full grid corpus, unbounded capacity, one
//! `end_time_unit()` per 1 024 operations.

use crate::harness::{Rec, Workload, PPM};
use crate::plan::{self, Op, Stream};
use crate::spans::{SpanBuf, SpanId, L, ROOT};
use dlpt_core::engine::{FifoTransport, Step, Transport};
use dlpt_core::messages::QueryKind;
use dlpt_core::system::{DlptSystem, LookupOutcome};
use dlpt_core::{Key, Result};
use dlpt_workloads::corpus::Corpus;
use dlpt_workloads::popularity::Zipf;
use rand::Rng;
use std::time::Instant;

/// Peers in every service overlay (the paper's ~100).
pub const PEERS: usize = 100;
/// Digits per peer identifier.
pub const PEER_ID_LEN: usize = 12;
/// Per-peer route-cache capacity of the cached workloads.
pub const CACHE_CAPACITY: usize = 256;
/// Operations between two `end_time_unit()` calls.
pub const UNIT_OPS: u64 = 1024;

/// Which plan a [`Service`] replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Uniform exact lookups, cache off.
    LookupUniform,
    /// Zipf(1.2) exact lookups, cache 256, read-only.
    LookupZipfCached,
    /// 70 % rewrites + 30 % Zipf lookups, cache 256.
    RegisterChurn,
}

impl Kind {
    fn cache_capacity(self) -> usize {
        match self {
            Kind::LookupUniform => 0,
            Kind::LookupZipfCached | Kind::RegisterChurn => CACHE_CAPACITY,
        }
    }
}

/// Builds service overlay number `overlay` of `seed`: `PEERS` peers
/// joined under seeded identifiers, then the whole grid corpus
/// registered.
pub fn build_system(seed: u64, overlay: u64, cache_capacity: usize) -> (DlptSystem, Vec<Key>) {
    let keys = Corpus::grid().keys;
    let overlay_seed = plan::rng_for(seed, Stream::Overlay, overlay).gen();
    let mut sys = DlptSystem::builder()
        .seed(overlay_seed)
        .peer_id_len(PEER_ID_LEN)
        .cache_capacity(cache_capacity)
        .bootstrap_peers(PEERS)
        .build();
    for k in &keys {
        sys.insert_data(k.clone())
            .expect("registration on a live ring");
    }
    (sys, keys)
}

/// A `DlptSystem` workload.
pub struct Service {
    kind: Kind,
    seed: u64,
    segment_ops: usize,
    /// The overlay under test.
    pub sys: DlptSystem,
    keys: Vec<Key>,
    zipf: Zipf,
    /// Operations driven so far (paces `end_time_unit`).
    op_index: u64,
}

impl Service {
    /// Builds overlay number `overlay` for `kind` from `seed`.
    pub fn new(kind: Kind, seed: u64, overlay: u64, segment_ops: usize) -> Self {
        let (sys, keys) = build_system(seed, overlay, kind.cache_capacity());
        Service {
            kind,
            seed,
            segment_ops,
            sys,
            keys,
            zipf: Zipf::new(plan::ZIPF_S),
            op_index: 0,
        }
    }

    fn plan(&mut self, idx: u64) -> Vec<Op> {
        let n = self.segment_ops;
        match self.kind {
            Kind::LookupUniform => plan::uniform_lookups(self.seed, idx, n, self.keys.len()),
            Kind::LookupZipfCached => {
                plan::zipf_lookups(self.seed, idx, n, &self.keys, &mut self.zipf)
            }
            Kind::RegisterChurn => plan::churn_ops(self.seed, idx, n, &self.keys, &mut self.zipf),
        }
    }

    /// True on every `UNIT_OPS`-th operation: the caller closes the
    /// time unit inside that operation's span.
    #[inline]
    fn unit_boundary(&mut self) -> bool {
        self.op_index += 1;
        self.op_index.is_multiple_of(UNIT_OPS)
    }

    /// Drives segment `idx` with a span around every call the
    /// benchmark makes into a layer. Lookups of `LookupUniform` are
    /// driven through the engine directly (the `request_from` flow
    /// replayed from here, one span per call); the cached and churn
    /// kinds keep the facade call and label it by what happened.
    pub fn traced_segment(&mut self, idx: u64, rec: &mut Rec, spans: &mut SpanBuf) {
        let plan = self.plan(idx);
        let work_before = self.sys.stats.total_work();
        let mut fifo = FifoTransport::default();
        for op in &plan {
            let boundary = self.unit_boundary();
            match *op {
                Op::Lookup(k) if self.kind == Kind::LookupUniform => {
                    let query = QueryKind::Exact(self.keys[k as usize].clone());
                    let root = spans.open(L::Op, ROOT);
                    let out = drive_request(&mut self.sys, &mut fifo, query, root, spans);
                    if boundary {
                        self.end_unit(root, spans);
                    }
                    rec.span(spans.close(root), 1);
                    check_lookup(rec, out);
                }
                Op::Lookup(k) => {
                    let query = QueryKind::Exact(self.keys[k as usize].clone());
                    let hits = self.sys.cache_stats.hits;
                    let root = spans.open(L::Op, ROOT);
                    let call = spans.open(L::CacheMissRequest, root);
                    let out = self.sys.request(query);
                    spans.close(call);
                    if boundary {
                        self.end_unit(root, spans);
                    }
                    rec.span(spans.close(root), 1);
                    if self.sys.cache_stats.hits != hits {
                        spans.relabel(call, L::CacheHitRequest);
                    }
                    check_lookup(rec, out);
                }
                Op::Rewrite(k) => {
                    let key = self.keys[k as usize].clone();
                    let root = spans.open(L::Op, ROOT);
                    let s = spans.open(L::SystemRemoveData, root);
                    let removed = self.sys.remove_data(&key);
                    spans.close(s);
                    let s = spans.open(L::SystemInsertData, root);
                    let inserted = self.sys.insert_data(key);
                    spans.close(s);
                    if boundary {
                        self.end_unit(root, spans);
                    }
                    rec.span(spans.close(root), 1);
                    check_rewrite(rec, removed, inserted);
                }
                Op::Complete { .. } | Op::Range { .. } => {
                    unreachable!("service plans hold lookups and rewrites only")
                }
            }
        }
        rec.counts.work += self.sys.stats.total_work() - work_before;
    }

    fn end_unit(&mut self, root: SpanId, spans: &mut SpanBuf) {
        let s = spans.open(L::EngineEndTimeUnit, root);
        self.sys.end_time_unit();
        spans.close(s);
    }
}

/// `DlptSystem::request_from` replayed from the benchmark with a span
/// per engine call: entry draw, admission, every delivery of the FIFO
/// drain, outcome collection.
fn drive_request(
    sys: &mut DlptSystem,
    fifo: &mut FifoTransport,
    query: QueryKind,
    root: SpanId,
    spans: &mut SpanBuf,
) -> Result<LookupOutcome> {
    let s = spans.open(L::DirectoryRandomNode, root);
    let entry = sys.random_node();
    spans.close(s);
    let entry = entry.ok_or(dlpt_core::DlptError::EmptyTree)?;
    let s = spans.open(L::EngineBeginRequest, root);
    let begun = sys.begin_request(&entry, query);
    spans.close(s);
    let (id, env) = begun?;
    fifo.deliver(env);
    while let Some((_, env)) = fifo.queue.pop_front() {
        let s = spans.open(L::EngineDeliver, root);
        let step = sys.deliver(fifo, env);
        spans.close(s);
        if let Step::Requeue(env) = step? {
            fifo.queue.push_back((0, env));
        }
    }
    let s = spans.open(L::EngineTakeFinished, root);
    let out = sys.take_finished(id);
    spans.close(s);
    out.ok_or_else(|| dlpt_core::DlptError::Undeliverable(format!("request {id}")))
}

/// A lookup of a registered key must come back `satisfied && found`.
#[inline]
fn check_lookup(rec: &mut Rec, out: Result<LookupOutcome>) {
    rec.counts.issued += 1;
    match out {
        Ok(o) => {
            rec.counts.satisfied_ppm += o.satisfied as u64 * PPM;
            rec.counts.failed += !(o.satisfied && o.found) as u64;
            rec.counts.hops += o.logical_hops() as u64;
            rec.digest(o.path.len() as u64);
        }
        Err(_) => rec.counts.failed += 1,
    }
}

#[inline]
fn check_rewrite(rec: &mut Rec, removed: Result<()>, inserted: Result<()>) {
    rec.counts.failed += (removed.is_err() || inserted.is_err()) as u64;
}

impl Workload for Service {
    fn segment(&mut self, idx: u64, rec: &mut Rec) {
        let plan = self.plan(idx);
        let work_before = self.sys.stats.total_work();
        for op in &plan {
            let boundary = self.unit_boundary();
            match *op {
                Op::Lookup(k) => {
                    let query = QueryKind::Exact(self.keys[k as usize].clone());
                    let t = Instant::now();
                    let out = self.sys.request(query);
                    if boundary {
                        self.sys.end_time_unit();
                    }
                    rec.span(t.elapsed().as_nanos() as u64, 1);
                    check_lookup(rec, out);
                }
                Op::Rewrite(k) => {
                    let key = self.keys[k as usize].clone();
                    let t = Instant::now();
                    let removed = self.sys.remove_data(&key);
                    let inserted = self.sys.insert_data(key);
                    if boundary {
                        self.sys.end_time_unit();
                    }
                    rec.span(t.elapsed().as_nanos() as u64, 1);
                    check_rewrite(rec, removed, inserted);
                }
                Op::Complete { .. } | Op::Range { .. } => {
                    unreachable!("service plans hold lookups and rewrites only")
                }
            }
        }
        rec.counts.work += self.sys.stats.total_work() - work_before;
    }
}
