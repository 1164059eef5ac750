//! Seeded plan generators: what each workload will ask the overlay to
//! do, drawn per segment *outside* the timed spans.
//!
//! A plan is a pure function of `(seed, workload, segment)` — the
//! program under test only ever receives the generated operations.
//! Operations name corpus keys by index, so a plan is small, comparable
//! with `==` and independent of the overlay it is replayed on.

use dlpt_workloads::popularity::{Popularity, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One planned operation against the service overlay. Indices point
/// into the sorted grid corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `QueryKind::Exact` of one registered key.
    Lookup(u32),
    /// `remove_data` then `insert_data` of one key (a write that leaves
    /// the key set unchanged).
    Rewrite(u32),
    /// `QueryKind::Complete` of a key truncated to `depth` digits.
    Complete { key: u32, depth: u8 },
    /// `QueryKind::Range` over corpus keys `lo..=hi`.
    Range { lo: u32, hi: u32 },
}

/// Skew of the Zipf workloads (the figC `zipf1.2` column).
pub const ZIPF_S: f64 = 1.2;
/// Share of writes in `register_churn`, percent.
pub const CHURN_WRITE_PCT: u32 = 70;
/// Share of completions in `gather_latnet`, percent (the rest are
/// ranges).
pub const GATHER_COMPLETE_PCT: u32 = 70;
/// Longest range, in consecutive corpus keys.
pub const GATHER_RANGE_MAX: u32 = 40;

/// Stream tags: one per generator, so two workloads never share draws.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    Uniform = 1,
    Zipf = 2,
    Churn = 3,
    Gather = 4,
    Overlay = 5,
    Probe = 6,
}

/// The RNG for `(seed, stream, segment)` — SplitMix64-style mixing so
/// neighbouring seeds and segments give unrelated streams.
pub fn rng_for(seed: u64, stream: Stream, segment: u64) -> StdRng {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((stream as u64) << 56)
        .wrapping_add(segment.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// `n` uniform exact lookups over `keys` corpus keys
/// (`lookup_uniform`, `batch_exact`).
pub fn uniform_lookups(seed: u64, segment: u64, n: usize, keys: usize) -> Vec<Op> {
    let mut rng = rng_for(seed, Stream::Uniform, segment);
    (0..n)
        .map(|_| Op::Lookup(rng.gen_range(0..keys) as u32))
        .collect()
}

/// `n` Zipf(1.2) exact lookups (`lookup_zipf_cached`). `zipf` carries
/// the CDF across segments so it is built once.
pub fn zipf_lookups(
    seed: u64,
    segment: u64,
    n: usize,
    keys: &[dlpt_core::Key],
    zipf: &mut Zipf,
) -> Vec<Op> {
    let mut rng = rng_for(seed, Stream::Zipf, segment);
    (0..n)
        .map(|_| Op::Lookup(zipf.pick(keys, &mut rng, 0) as u32))
        .collect()
}

/// `n` operations, 70 % rewrites of a uniform key and 30 % Zipf lookups
/// (`register_churn`).
pub fn churn_ops(
    seed: u64,
    segment: u64,
    n: usize,
    keys: &[dlpt_core::Key],
    zipf: &mut Zipf,
) -> Vec<Op> {
    let mut rng = rng_for(seed, Stream::Churn, segment);
    (0..n)
        .map(|_| {
            if rng.gen_range(0..100u32) < CHURN_WRITE_PCT {
                Op::Rewrite(rng.gen_range(0..keys.len()) as u32)
            } else {
                Op::Lookup(zipf.pick(keys, &mut rng, 0) as u32)
            }
        })
        .collect()
}

/// `n` scatter/gather queries: 70 % completions at prefix depth 2–4,
/// 30 % ranges over at most [`GATHER_RANGE_MAX`] consecutive keys
/// (`gather_latnet`).
pub fn gather_ops(seed: u64, segment: u64, n: usize, keys: usize) -> Vec<Op> {
    let mut rng = rng_for(seed, Stream::Gather, segment);
    (0..n)
        .map(|_| {
            if rng.gen_range(0..100u32) < GATHER_COMPLETE_PCT {
                Op::Complete {
                    key: rng.gen_range(0..keys) as u32,
                    depth: rng.gen_range(2..=4u8),
                }
            } else {
                let lo = rng.gen_range(0..keys) as u32;
                let span = rng.gen_range(1..=GATHER_RANGE_MAX);
                Op::Range {
                    lo,
                    hi: (lo + span - 1).min(keys as u32 - 1),
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlpt_workloads::corpus::Corpus;

    fn all_plans(seed: u64, segment: u64) -> Vec<Vec<Op>> {
        let keys = Corpus::grid().keys;
        let mut zipf = Zipf::new(ZIPF_S);
        vec![
            uniform_lookups(seed, segment, 500, keys.len()),
            zipf_lookups(seed, segment, 500, &keys, &mut zipf),
            churn_ops(seed, segment, 500, &keys, &mut zipf),
            gather_ops(seed, segment, 500, keys.len()),
        ]
    }

    #[test]
    fn plans_repeat_per_seed_and_differ_across_seeds_and_segments() {
        let a = all_plans(1, 0);
        assert_eq!(a, all_plans(1, 0), "same (seed, segment) → same plan");
        for (i, (x, y)) in a.iter().zip(all_plans(2, 0)).enumerate() {
            assert_ne!(x, &y, "generator {i}: seeds 1 and 2 must differ");
        }
        for (i, (x, y)) in a.iter().zip(all_plans(1, 1)).enumerate() {
            assert_ne!(x, &y, "generator {i}: segments 0 and 1 must differ");
        }
    }

    #[test]
    fn plans_have_the_documented_shape() {
        let keys = Corpus::grid().keys;
        let n = keys.len() as u32;
        let mut zipf = Zipf::new(ZIPF_S);
        let churn = churn_ops(3, 0, 4000, &keys, &mut zipf);
        let writes = churn.iter().filter(|o| matches!(o, Op::Rewrite(_))).count();
        assert!((2600..3000).contains(&writes), "≈70 % writes, got {writes}");
        let gather = gather_ops(3, 0, 4000, keys.len());
        let completes = gather
            .iter()
            .filter(|o| matches!(o, Op::Complete { .. }))
            .count();
        assert!((2600..3000).contains(&completes), "≈70 % completions");
        for op in gather {
            match op {
                Op::Complete { key, depth } => assert!(key < n && (2..=4).contains(&depth)),
                Op::Range { lo, hi } => assert!(lo <= hi && hi < n && hi - lo < GATHER_RANGE_MAX),
                other => panic!("gather plan holds only scatter queries, got {other:?}"),
            }
        }
        // Zipf is skewed: rank 0 dominates a uniform share by far.
        let zipf_plan = zipf_lookups(3, 0, 4000, &keys, &mut zipf);
        let top = zipf_plan.iter().filter(|o| **o == Op::Lookup(0)).count();
        assert!(top > 400, "rank 0 should draw >10 % at s=1.2, got {top}");
    }
}
