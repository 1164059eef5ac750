//! The measuring loop shared by every workload: set-up repeats, the
//! segment loop, and the end-to-end metrics derived from them.

use crate::hist::{median, Hist};
use std::time::Instant;

/// Segment index of the warm-up plan (never used by a measured segment).
pub const WARMUP_SEGMENT: u64 = u64::MAX;
/// Satisfaction of one discovery (or one sim run) is counted in parts
/// per million, so the sums stay exact integers.
pub const PPM: u64 = 1_000_000;

/// How a workload's timed spans become chunks, the unit `ops_per_s` is
/// taken over. A shared host stalls a process for milliseconds at a
/// time; a sum of spans carries every stall, a low quantile of many
/// chunk times carries none until most chunks are hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ops {
    /// Operations of microseconds: `chunk` consecutive operations
    /// (≈ 0.5 ms of work) make one chunk, and the run's pace is the fast
    /// quartile of its chunks. `op_p50_us` and `op_tail_us` are the
    /// median over segments of the segment's p50 and p90 span.
    Short { chunk: u64 },
    /// Operations of milliseconds (a batch, a sim run): every span is a
    /// chunk of the kind the workload names with [`Rec::kind`]. A stall
    /// cannot be cut out of a call, so each kind is summarised by its
    /// fast decile — the calls that met the fewest; `op_p50_us` and
    /// `op_tail_us` are the median and the largest of those.
    Long,
}

impl Ops {
    /// The typical chunk is the `ceil(n / this)`-th fastest of `n`.
    fn one_in(self) -> usize {
        match self {
            Ops::Short { .. } => 4,
            Ops::Long => 10,
        }
    }

    /// What `op_tail_us` is, for reports.
    pub fn tail_label(self) -> &'static str {
        match self {
            Ops::Short { .. } => "p90/segment",
            Ops::Long => "slowest kind",
        }
    }
}

/// Exact counts of one segment — everything here must repeat for one
/// seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed the workload's check.
    pub failed: u64,
    /// Satisfaction samples: discoveries issued (service workloads) or
    /// runs (sim workloads, each weighted equally as in the paper's
    /// figures).
    pub issued: u64,
    /// Σ satisfaction of those samples, in [`PPM`] units: `PPM` per
    /// satisfied discovery, `PPM × satisfied ÷ issued` of a run's
    /// steady-state units.
    pub satisfied_ppm: u64,
    /// Δ`stats.total_work()` (messages, drops, requeues).
    pub work: u64,
    /// Σ logical hops of satisfied lookups.
    pub hops: u64,
    /// FNV-1a fold of every operation's visible outcome.
    pub digest: u64,
}

/// One chunk: summed spans of `ops` consecutive operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chunk {
    pub ns: u64,
    pub ops: u64,
}

impl Chunk {
    fn ns_per_op(&self) -> f64 {
        self.ns as f64 / self.ops.max(1) as f64
    }
}

/// The chunks of one kind of operation: all of `ops` operations (a
/// workload's spans all serve the same number), so only their
/// nanoseconds are kept.
#[derive(Default, Clone)]
struct KindChunks {
    ops: u64,
    ns: Vec<u32>,
}

/// The `1/one_in` quantile of `values` (nearest rank: the
/// `ceil(n / one_in)`-th smallest). `None` when empty.
pub fn fast_quantile<T: Ord + Copy>(values: &[T], one_in: usize) -> Option<T> {
    let mut v = values.to_vec();
    v.sort_unstable();
    v.get(v.len().div_ceil(one_in).checked_sub(1)?).copied()
}

/// Collects one segment's spans and counts, and the run's chunks.
pub struct Rec {
    seg: Hist,
    span_ns: u64,
    /// Operations per chunk; 0 keeps no chunks.
    chunk_ops: u64,
    kind: usize,
    open: Chunk,
    /// Finished chunks of the whole run, by kind: four bytes a chunk,
    /// so a run's memory does not depend on how fast it went.
    chunks: Vec<KindChunks>,
    /// The segment's exact counts; workloads fill `failed`, `issued`,
    /// `satisfied` and `work` directly.
    pub counts: Counts,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

impl Default for Rec {
    fn default() -> Self {
        Rec {
            seg: Hist::default(),
            span_ns: 0,
            chunk_ops: 0,
            kind: 0,
            open: Chunk { ns: 0, ops: 0 },
            chunks: Vec::new(),
            counts: Counts {
                digest: FNV_OFFSET,
                ..Counts::default()
            },
        }
    }
}

impl Rec {
    /// A record that also keeps the run's chunks, cut as `ops` says.
    pub fn chunked(ops: Ops) -> Self {
        Rec {
            chunk_ops: match ops {
                Ops::Short { chunk } => chunk.max(1),
                Ops::Long => 1,
            },
            ..Rec::default()
        }
    }

    /// Names the kind of operation the next spans time (a sim config);
    /// kinds are numbered from 0.
    pub fn kind(&mut self, kind: usize) {
        self.kind = kind;
    }

    /// Records one timed public call that served `ops` operations.
    #[inline]
    pub fn span(&mut self, ns: u64, ops: u64) {
        self.seg.record(ns);
        self.span_ns += ns;
        self.counts.ops += ops;
        if self.chunk_ops > 0 {
            self.open.ns += ns;
            self.open.ops += ops;
            if self.open.ops >= self.chunk_ops {
                if self.chunks.len() <= self.kind {
                    self.chunks.resize(self.kind + 1, KindChunks::default());
                }
                let kind = &mut self.chunks[self.kind];
                debug_assert!(kind.ns.is_empty() || kind.ops == self.open.ops);
                kind.ops = self.open.ops;
                // A chunk longer than 4.29 s is a stall, not a pace.
                kind.ns.push(self.open.ns.min(u32::MAX as u64) as u32);
                self.open = Chunk { ns: 0, ops: 0 };
            }
        }
    }

    /// Folds one outcome value into the segment digest.
    #[inline]
    pub fn digest(&mut self, v: u64) {
        self.counts.digest = (self.counts.digest ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Closes the segment: returns its timings and counts and resets
    /// the per-segment state (finished chunks stay; an unfinished one is
    /// dropped, so no chunk spans two segments).
    pub fn finish(&mut self) -> Segment {
        let seg = Segment {
            span_ns: self.span_ns,
            p50_ns: self.seg.percentile(0.50).unwrap_or(0.0),
            p90_ns: self.seg.percentile(0.90).unwrap_or(0.0),
            p99_ns: self.seg.percentile(0.99).unwrap_or(0.0),
            counts: self.counts,
        };
        self.seg.clear();
        self.span_ns = 0;
        self.open = Chunk { ns: 0, ops: 0 };
        self.counts = Counts {
            digest: FNV_OFFSET,
            ..Counts::default()
        };
        seg
    }
}

/// One finished segment.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Σ op spans.
    pub span_ns: u64,
    /// Median span.
    pub p50_ns: f64,
    /// 90th-percentile span.
    pub p90_ns: f64,
    /// 99th-percentile span.
    pub p99_ns: f64,
    /// Exact counts.
    pub counts: Counts,
}

impl Segment {
    /// Operations per second of summed span time.
    pub fn ops_per_s(&self) -> f64 {
        self.counts.ops as f64 * 1e9 / self.span_ns.max(1) as f64
    }
}

/// A workload: an overlay built from a seed, driven one segment at a
/// time.
pub trait Workload {
    /// Drives segment `idx`: draws the plan (untimed), runs every
    /// operation inside a span, checks outputs (untimed).
    fn segment(&mut self, idx: u64, rec: &mut Rec);

    /// A slower cross-check run once per process, outside every timed
    /// region; failures go to `rec.counts.failed`.
    fn verify(&mut self, _rec: &mut Rec) {}
}

/// What a measured run produced.
pub struct RunOutcome {
    /// Seconds to build the overlay and run its warm-up segment: a long
    /// operation, so the fast decile of the run's set-ups, as for
    /// [`Ops::Long`].
    pub setup_s: f64,
    /// How many times the overlay was built (samples behind `setup_s`).
    pub setups: usize,
    /// Every measured segment, in order.
    pub segments: Vec<Segment>,
    /// `VmHWM` once `min_segments` segments were measured (how many
    /// more a run fits into its seconds moves the allocator's high-water
    /// mark by up to a quarter). `None` where procfs is not available.
    pub peak_rss_mb: Option<f64>,
    /// The typical (fast-quantile) chunk of every kind of operation,
    /// in kind order.
    pub typical: Vec<Chunk>,
    /// Operations attempted, measured or not (warm-ups, the replay and
    /// `verify` included).
    pub attempted: u64,
    /// Of those, operations that failed their check.
    pub failed: u64,
}

/// How long and in what rhythm [`measure`] runs.
#[derive(Debug, Clone, Copy)]
pub struct Pace {
    /// Measure until this many seconds have passed …
    pub seconds: f64,
    /// … and at least this many segments ran. Peak memory is read when
    /// they have: the part of a run that is the same work however fast
    /// the box is.
    pub min_segments: u64,
    /// Segments driven on one overlay before it is rebuilt.
    pub segments_per_setup: u64,
    /// How spans are cut into chunks.
    pub ops: Ops,
}

/// Measures segments at `pace`. Every `segments_per_setup` segments the
/// overlay is rebuilt from the next overlay index and warmed with one
/// segment, so a run samples many overlay layouts (their run-to-run
/// effect on throughput is larger than the machine's) and `setup_s` is
/// taken over many set-ups.
///
/// Afterwards overlay 0, its warm-up and segment 0 are replayed: their
/// exact counts must equal the first pass's, else `Err` — the same seed
/// must give the same run.
pub fn measure<W: Workload>(build: impl Fn(u64) -> W, pace: Pace) -> Result<RunOutcome, String> {
    let mut rec = Rec::chunked(pace.ops);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut tally = |c: Counts| {
        attempted += c.ops;
        failed += c.failed;
    };
    let set_up = |overlay: u64| {
        let t = Instant::now();
        let mut w = build(overlay);
        // A record of its own: warm-up spans stay out of the whole-run
        // histogram.
        let mut warm = Rec::default();
        w.segment(WARMUP_SEGMENT, &mut warm);
        let ns = t.elapsed().as_nanos() as u64;
        (w, warm.finish().counts, ns)
    };

    let mut setups = Vec::new();
    let mut segments = Vec::new();
    let mut first_warm = None;
    let mut peak_rss_mb = None;
    let mut workload: Option<W> = None;
    let start = Instant::now();
    let mut idx = 0u64;
    while idx < pace.min_segments || start.elapsed().as_secs_f64() < pace.seconds {
        if idx.is_multiple_of(pace.segments_per_setup) {
            // Free the old overlay first: one is resident at a time.
            drop(workload.take());
            let (w, warm, ns) = set_up(idx / pace.segments_per_setup);
            setups.push(ns);
            first_warm.get_or_insert(warm);
            tally(warm);
            workload = Some(w);
        }
        let w = workload.as_mut().expect("set up on segment 0");
        w.segment(idx, &mut rec);
        let segment = rec.finish();
        tally(segment.counts);
        segments.push(segment);
        idx += 1;
        if idx == pace.min_segments {
            peak_rss_mb = crate::sysinfo::peak_rss_mb();
        }
    }
    // Taken before the replay below adds its chunks.
    let typical: Vec<Chunk> = std::mem::take(&mut rec.chunks)
        .iter()
        .map(|kind| Chunk {
            ns: fast_quantile(&kind.ns, pace.ops.one_in()).expect("every kind ran in every segment")
                as u64,
            ops: kind.ops,
        })
        .collect();
    drop(workload);

    let (mut w, warm, _) = set_up(0);
    w.segment(0, &mut rec);
    let replay = rec.finish().counts;
    tally(warm);
    tally(replay);
    let first = (first_warm.expect("at least one set-up"), segments[0].counts);
    if first != (warm, replay) {
        return Err(format!(
            "the run is not deterministic: overlay 0 gave {first:?} first and {:?} when replayed",
            (warm, replay)
        ));
    }
    w.verify(&mut rec);
    tally(rec.finish().counts);

    Ok(RunOutcome {
        setup_s: fast_quantile(&setups, Ops::Long.one_in()).expect("at least one set-up") as f64
            / 1e9,
        setups: setups.len(),
        segments,
        peak_rss_mb,
        typical,
        attempted,
        failed,
    })
}

/// The end-to-end metrics of one run (everything but `peak_rss_mb`,
/// which the process reads at exit).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub op_p50_us: f64,
    pub op_tail_us: f64,
    pub msgs_per_op: f64,
    pub satisfied_pct: f64,
}

/// Derives the end-to-end metrics from a run. The deterministic
/// metrics (`msgs_per_op`, `satisfied_pct`) use the first `counted`
/// segments only; every run measures at least that many, so they are a
/// pure function of `--seed` however long the run lasted.
pub fn end_to_end(run: &RunOutcome, ops: Ops, counted: u64) -> EndToEnd {
    let per_seg = |f: &dyn Fn(&Segment) -> f64| -> f64 {
        let v: Vec<f64> = run.segments.iter().map(f).collect();
        median(&v).expect("at least one segment")
    };
    let counted = &run.segments[..run.segments.len().min(counted as usize)];
    let sum = |f: &dyn Fn(&Counts) -> u64| -> f64 {
        counted.iter().map(|s| f(&s.counts)).sum::<u64>() as f64
    };
    // One operation of every kind, each at its kind's typical pace.
    let round_ns: f64 = run.typical.iter().map(Chunk::ns_per_op).sum();
    let (p50_ns, tail_ns) = match ops {
        Ops::Short { .. } => (per_seg(&|s| s.p50_ns), per_seg(&|s| s.p90_ns)),
        Ops::Long => {
            let calls: Vec<f64> = run.typical.iter().map(|c| c.ns as f64).collect();
            (
                median(&calls).expect("at least one kind"),
                calls.iter().copied().fold(0.0, f64::max),
            )
        }
    };
    EndToEnd {
        setup_s: run.setup_s,
        ops_per_s: run.typical.len() as f64 * 1e9 / round_ns.max(1.0),
        op_p50_us: p50_ns / 1e3,
        op_tail_us: tail_ns / 1e3,
        msgs_per_op: sum(&|c| c.work) / sum(&|c| c.ops).max(1.0),
        satisfied_pct: 100.0 * sum(&|c| c.satisfied_ppm) / PPM as f64 / sum(&|c| c.issued).max(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pace(min_segments: u64, segments_per_setup: u64, ops: Ops) -> Pace {
        Pace {
            seconds: 0.0,
            min_segments,
            segments_per_setup,
            ops,
        }
    }

    /// A workload whose spans are scripted, so the segment maths can be
    /// checked against hand-sorted vectors.
    struct Scripted {
        spans: Vec<Vec<u64>>,
        /// Span `i` of a segment times an operation of kind `i`.
        kinds: bool,
    }

    impl Workload for Scripted {
        fn segment(&mut self, idx: u64, rec: &mut Rec) {
            let script = if idx == WARMUP_SEGMENT {
                &self.spans[0]
            } else {
                &self.spans[idx as usize % self.spans.len()]
            };
            for (i, ns) in script.iter().enumerate() {
                if self.kinds {
                    rec.kind(i);
                }
                rec.span(*ns, 1);
                rec.counts.issued += 1;
                rec.counts.satisfied_ppm += PPM / 2;
                rec.counts.work += 3;
                rec.digest(*ns);
            }
        }
    }

    #[test]
    fn short_operations_match_a_sorted_vector_model() {
        // Three segments of four spans (values < 64 are exact in the
        // histogram).
        let build = |_| Scripted {
            spans: vec![vec![1, 2, 3, 4], vec![2, 4, 6, 8], vec![4, 8, 12, 16]],
            kinds: false,
        };
        let run = measure(build, pace(3, 2, Ops::Short { chunk: 2 })).unwrap();
        assert_eq!(run.segments.len(), 3);
        assert_eq!(run.setups, 2, "segments 0 and 2 start a fresh overlay");
        let e2e = end_to_end(&run, Ops::Short { chunk: 2 }, 10);
        // Chunks of two spans: 3, 7 | 6, 14 | 12, 28 ns, that is 1.5, 3,
        // 3.5, 6, 7, 14 ns/op sorted; the fast quartile of six is the
        // 2nd.
        assert_eq!(run.typical, vec![Chunk { ns: 6, ops: 2 }]);
        assert_eq!(e2e.ops_per_s, 1e9 / 3.0);
        // Nearest-rank p50 of 4 samples is the 2nd: 2, 4, 8 → median 4 ns.
        assert_eq!(e2e.op_p50_us, 4.0 / 1e3);
        // Nearest-rank p90 of 4 samples is the 4th: 4, 8, 16 → median 8 ns.
        assert_eq!(e2e.op_tail_us, 8.0 / 1e3);
        assert_eq!(e2e.msgs_per_op, 3.0);
        assert_eq!(e2e.satisfied_pct, 50.0);
        // 12 measured + 2 warm-ups + the replay's warm-up and segment.
        assert_eq!((run.attempted, run.failed), (12 + 8 + 8, 0));

        // Chunks of three: the 4th span of a segment starts a chunk the
        // segment's end drops. 6, 12, 24 ns → the fastest of three.
        let run = measure(build, pace(3, 2, Ops::Short { chunk: 3 })).unwrap();
        assert_eq!(run.typical, vec![Chunk { ns: 6, ops: 3 }]);
    }

    #[test]
    fn long_operations_are_summarised_kind_by_kind() {
        // Three kinds of operation; a stall hits a different one in
        // every segment but the first.
        let build = |_| Scripted {
            spans: vec![
                vec![10, 100, 40],
                vec![12, 150, 44],
                vec![30, 101, 41],
                vec![11, 102, 60],
            ],
            kinds: true,
        };
        let run = measure(build, pace(4, 4, Ops::Long)).unwrap();
        // Fast decile of four samples: the fastest.
        let ns: Vec<u64> = run.typical.iter().map(|c| c.ns).collect();
        assert_eq!(ns, [10, 100, 40]);
        let e2e = end_to_end(&run, Ops::Long, 10);
        assert_eq!(e2e.ops_per_s, 3e9 / 150.0);
        assert_eq!(e2e.op_p50_us, 40.0 / 1e3);
        assert_eq!(e2e.op_tail_us, 100.0 / 1e3);
    }

    #[test]
    fn fast_quantile_is_the_nearest_rank_of_the_sorted_values() {
        assert_eq!(fast_quantile::<u32>(&[], 4), None);
        for n in 1..40u32 {
            let v: Vec<u32> = (0..n).map(|i| i * 37 % 101 + 1).collect();
            let mut sorted = v.clone();
            sorted.sort_unstable();
            for one_in in [4usize, 10] {
                let want = sorted[(n as usize).div_ceil(one_in) - 1];
                assert_eq!(fast_quantile(&v, one_in), Some(want), "n = {n}");
            }
        }
    }

    #[test]
    fn counted_metrics_ignore_segments_past_the_fixed_prefix() {
        let build = |_| Scripted {
            spans: vec![vec![5; 4]],
            kinds: false,
        };
        let mut more = measure(build, pace(15, 1, Ops::Long)).unwrap();
        let before = end_to_end(&more, Ops::Long, 10);
        // Poison a segment beyond the counted prefix: the deterministic
        // metrics must not move.
        more.segments[11].counts.work = 1_000_000;
        more.segments[11].counts.ops += 7;
        let after = end_to_end(&more, Ops::Long, 10);
        assert_eq!(before.msgs_per_op, after.msgs_per_op);
        assert_eq!(before.satisfied_pct, after.satisfied_pct);
        more.segments[3].counts.work += 4;
        assert!(end_to_end(&more, Ops::Long, 10).msgs_per_op > after.msgs_per_op);
    }

    #[test]
    fn a_run_that_does_not_replay_is_an_error() {
        let builds = std::cell::Cell::new(0u64);
        let build = |_| {
            builds.set(builds.get() + 1);
            Scripted {
                spans: vec![vec![builds.get()]],
                kinds: false,
            }
        };
        let err = measure(build, pace(1, 1, Ops::Long))
            .err()
            .expect("replay differs");
        assert!(err.contains("not deterministic"), "{err}");
    }
}
