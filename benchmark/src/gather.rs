//! `gather_latnet` — scatter/gather completions and ranges on the
//! discrete-event runtime (`LatencyNet`, `Uniform(1,30)`), every result
//! set compared with the sequential `PgcpTrie` oracle.

use crate::harness::{Rec, Workload, PPM};
use crate::plan::{self, Op, Stream};
use crate::service::{PEERS, PEER_ID_LEN};
use crate::spans::{SpanBuf, L, ROOT};
use dlpt_core::alphabet::Alphabet;
use dlpt_core::trie::PgcpTrie;
use dlpt_core::Key;
use dlpt_net::sim::{LatencyModel, LatencyNet};
use dlpt_workloads::corpus::Corpus;
use rand::Rng;
use std::collections::BTreeSet;
use std::time::Instant;

/// The `gather_latnet` workload.
pub struct Gather {
    seed: u64,
    segment_ops: usize,
    /// The network under test.
    pub net: LatencyNet,
    keys: Vec<Key>,
    oracle: PgcpTrie,
}

impl Gather {
    /// Builds network number `overlay` of `seed` (100 peers) and
    /// registers the grid corpus.
    pub fn new(seed: u64, overlay: u64, segment_ops: usize) -> Self {
        let keys = Corpus::grid().keys;
        let mut rng = plan::rng_for(seed, Stream::Overlay, overlay);
        let mut net = LatencyNet::new(LatencyModel::Uniform(1, 30), rng.gen());
        let alphabet = Alphabet::grid();
        let mut ids = BTreeSet::new();
        while ids.len() < PEERS {
            let id = alphabet.random_id(&mut rng, PEER_ID_LEN);
            if ids.insert(id.clone()) {
                net.add_peer(id);
            }
        }
        let mut oracle = PgcpTrie::new();
        for k in &keys {
            net.insert_data(k.clone());
            oracle.insert(k.clone());
        }
        Gather {
            seed,
            segment_ops,
            net,
            keys,
            oracle,
        }
    }

    /// The query's arguments and the oracle's answer.
    fn resolve(&self, op: Op) -> (Query, Vec<Key>) {
        match op {
            Op::Complete { key, depth } => {
                let prefix = self.keys[key as usize].truncated(depth as usize);
                let want = self.oracle.complete(&prefix);
                (Query::Complete(prefix), want)
            }
            Op::Range { lo, hi } => {
                let (lo, hi) = (
                    self.keys[lo as usize].clone(),
                    self.keys[hi as usize].clone(),
                );
                let want = self.oracle.range(&lo, &hi);
                (Query::Range(lo, hi), want)
            }
            Op::Lookup(_) | Op::Rewrite(_) => {
                unreachable!("gather plans hold scatter queries only")
            }
        }
    }

    fn ask(&mut self, q: &Query) -> (bool, Vec<Key>) {
        match q {
            Query::Complete(p) => self.net.complete(p),
            Query::Range(lo, hi) => self.net.range(lo, hi),
        }
    }

    /// Drives segment `idx` with a span per query.
    pub fn traced_segment(&mut self, idx: u64, rec: &mut Rec, spans: &mut SpanBuf) {
        let plan = plan::gather_ops(self.seed, idx, self.segment_ops, self.keys.len());
        let work_before = self.net.stats.total_work();
        for op in plan {
            let (query, want) = self.resolve(op);
            let root = spans.open(L::Op, ROOT);
            let s = spans.open(L::LatnetQuery, root);
            let got = self.ask(&query);
            spans.close(s);
            rec.span(spans.close(root), 1);
            check_gather(rec, got, want);
        }
        rec.counts.work += self.net.stats.total_work() - work_before;
    }

    /// `n` exact lookups on the same network, one span each
    /// (`latnet.lookup_ns`).
    pub fn traced_lookups(&mut self, idx: u64, n: usize, spans: &mut SpanBuf) -> u64 {
        let plan = plan::uniform_lookups(self.seed, idx, n, self.keys.len());
        let mut failed = 0;
        for op in plan {
            let Op::Lookup(k) = op else {
                unreachable!("uniform_lookups yields lookups")
            };
            let s = spans.open(L::LatnetLookup, ROOT);
            let (found, _) = self.net.lookup(&self.keys[k as usize]);
            spans.close(s);
            failed += !found as u64;
        }
        failed
    }
}

enum Query {
    Complete(Key),
    Range(Key, Key),
}

/// The gathered result set must equal the oracle's (order-free).
fn check_gather(rec: &mut Rec, got: (bool, Vec<Key>), mut want: Vec<Key>) {
    let (satisfied, mut results) = got;
    results.sort();
    want.sort();
    rec.counts.issued += 1;
    rec.counts.satisfied_ppm += satisfied as u64 * PPM;
    rec.counts.failed += !(satisfied && results == want) as u64;
    rec.digest(results.len() as u64);
}

impl Workload for Gather {
    fn segment(&mut self, idx: u64, rec: &mut Rec) {
        let plan = plan::gather_ops(self.seed, idx, self.segment_ops, self.keys.len());
        let work_before = self.net.stats.total_work();
        for op in plan {
            let (query, want) = self.resolve(op);
            let t = Instant::now();
            let got = self.ask(&query);
            rec.span(t.elapsed().as_nanos() as u64, 1);
            check_gather(rec, got, want);
        }
        rec.counts.work += self.net.stats.total_work() - work_before;
    }
}
