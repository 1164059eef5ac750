//! `batch_exact` — the `lookup_uniform` requests through
//! `DlptSystem::discover_batch` (`engine::parallel`), 4 096 per batch.

use crate::harness::{Rec, Workload, PPM, WARMUP_SEGMENT};
use crate::plan::{self, Op};
use crate::service::build_system;
use crate::spans::{SpanBuf, L, ROOT};
use dlpt_core::messages::QueryKind;
use dlpt_core::system::{DlptSystem, LookupOutcome};
use dlpt_core::{Key, Result};
use std::time::Instant;

/// Queries per `discover_batch` call.
pub const BATCH: usize = 4096;

/// Workers the pump is asked for: `min(nproc, 4)`.
pub fn workers() -> usize {
    crate::sysinfo::nproc().min(4)
}

/// The `batch_exact` workload.
pub struct Batch {
    seed: u64,
    overlay: u64,
    batches: usize,
    workers: usize,
    /// The overlay under test.
    pub sys: DlptSystem,
    keys: Vec<Key>,
}

impl Batch {
    /// Builds service overlay number `overlay` (cache off); a segment
    /// is `batches` batches of [`BATCH`] queries on [`workers`] workers.
    pub fn new(seed: u64, overlay: u64, batches: usize) -> Self {
        let (sys, keys) = build_system(seed, overlay, 0);
        Batch {
            seed,
            overlay,
            batches,
            workers: workers(),
            sys,
            keys,
        }
    }

    fn queries(&self, idx: u64) -> Vec<Vec<QueryKind>> {
        let plan = plan::uniform_lookups(self.seed, idx, self.batches * BATCH, self.keys.len());
        plan.chunks(BATCH)
            .map(|chunk| {
                chunk
                    .iter()
                    .map(|op| match op {
                        Op::Lookup(k) => QueryKind::Exact(self.keys[*k as usize].clone()),
                        _ => unreachable!("uniform_lookups yields lookups"),
                    })
                    .collect()
            })
            .collect()
    }

    /// Drives segment `idx` with a span per batch.
    pub fn traced_segment(&mut self, idx: u64, rec: &mut Rec, spans: &mut SpanBuf) {
        let work_before = self.sys.stats.total_work();
        for queries in self.queries(idx) {
            let n = queries.len();
            let root = spans.open(L::Op, ROOT);
            let s = spans.open(L::PumpBatch, root);
            let outs = self.sys.discover_batch(queries, self.workers);
            spans.close(s);
            self.sys.end_time_unit();
            rec.span(spans.close(root), n as u64);
            check_batch(rec, n, outs);
        }
        rec.counts.work += self.sys.stats.total_work() - work_before;
    }
}

/// Every query of a batch must come back, `satisfied && found` — what
/// the sequential pump answers on an unbounded-capacity overlay.
fn check_batch(rec: &mut Rec, n: usize, outs: Result<Vec<LookupOutcome>>) {
    rec.counts.issued += n as u64;
    match outs {
        Ok(outs) => {
            let ok = outs.iter().filter(|o| o.satisfied && o.found).count();
            rec.counts.satisfied_ppm += outs.iter().filter(|o| o.satisfied).count() as u64 * PPM;
            // A short batch fails every query it lost.
            rec.counts.failed += (n - ok.min(n)) as u64;
            outs.iter().for_each(|o| rec.digest(o.path.len() as u64));
        }
        Err(_) => rec.counts.failed += n as u64,
    }
}

impl Workload for Batch {
    fn segment(&mut self, idx: u64, rec: &mut Rec) {
        let work_before = self.sys.stats.total_work();
        for queries in self.queries(idx) {
            let n = queries.len();
            let t = Instant::now();
            let outs = self.sys.discover_batch(queries, self.workers);
            self.sys.end_time_unit();
            rec.span(t.elapsed().as_nanos() as u64, n as u64);
            check_batch(rec, n, outs);
        }
        rec.counts.work += self.sys.stats.total_work() - work_before;
    }

    /// Replays one batch on twin overlays, through the pump and through
    /// the sequential `request` path: the pump draws entry nodes
    /// exactly as `request` does, so count and per-query satisfaction
    /// must be equal.
    fn verify(&mut self, rec: &mut Rec) {
        let queries = self.queries(WARMUP_SEGMENT).swap_remove(0);
        let (mut pumped, _) = build_system(self.seed, self.overlay, 0);
        let (mut sequential, _) = build_system(self.seed, self.overlay, 0);
        let seq: Vec<bool> = queries
            .iter()
            .map(|q| {
                sequential
                    .request(q.clone())
                    .map(|o| o.satisfied)
                    .unwrap_or(false)
            })
            .collect();
        let par: Vec<bool> = pumped
            .discover_batch(queries, self.workers)
            .map(|outs| outs.iter().map(|o| o.satisfied).collect())
            .unwrap_or_default();
        rec.counts.ops += seq.len() as u64;
        if seq != par {
            rec.counts.failed += seq.len() as u64;
        }
    }
}
