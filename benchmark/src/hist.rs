//! Fixed-size latency histogram and the segment-median helpers every
//! end-to-end metric is built from.
//!
//! The histogram is log-linear: values below `SUB` are exact, above
//! that each power-of-two octave is cut into `SUB` equal buckets, so a
//! bucket spans at most `1/SUB` (1.6 %) of its lower bound, which bounds
//! the error of any reported percentile. 64 octaves ×
//! 64 buckets × 8 bytes = 32 KiB regardless of how many samples are
//! recorded — the harness stays well under the 1 MB it promises.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Log-linear histogram over `u64` samples (nanoseconds, usually).
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let octave = msb - SUB_BITS + 1;
    let sub = (v >> (msb - SUB_BITS)) & (SUB - 1);
    (octave as u64 * SUB + sub) as usize
}

/// Inclusive lower bound and width of bucket `b`.
fn bucket_span(b: usize) -> (u64, u64) {
    let (octave, sub) = (b as u64 / SUB, b as u64 % SUB);
    if octave == 0 {
        return (sub, 1);
    }
    let shift = octave - 1;
    ((SUB + sub) << shift, 1 << shift)
}

impl Hist {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.n += 1;
    }

    /// Samples recorded since the last [`Hist::clear`].
    #[cfg(test)]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Forgets every sample, keeping the allocation.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.n = 0;
    }

    /// Nearest-rank percentile (`p` in `(0, 1]`): the `ceil(p·n)`-th
    /// smallest sample, placed inside its bucket by its rank among the
    /// bucket's samples (they are taken as evenly spread), so the value
    /// is within one bucket width of the true sample and does not snap
    /// to a grid. `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let rank = ((p * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (b, c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (lo, width) = bucket_span(b);
                let within = ((rank - seen) as f64 - 0.5) / *c as f64;
                return Some(lo as f64 + (width - 1) as f64 * within);
            }
            seen += c;
        }
        unreachable!("rank is clamped to the sample count")
    }
}

/// Median of a slice (mean of the two middle values for even lengths).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Nearest-rank percentile over the raw samples — the model the
    /// histogram approximates.
    fn model(sorted: &[u64], p: f64) -> u64 {
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn buckets_tile_the_u64_range_without_gaps() {
        let mut expect = 0u64;
        for b in 0..BUCKETS {
            let (lo, width) = bucket_span(b);
            assert_eq!(lo, expect, "bucket {b} starts where {} ended", b.max(1) - 1);
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(lo + (width - 1)), b);
            expect = lo.wrapping_add(width);
        }
        assert_eq!(expect, 0, "last bucket ends exactly at 2^64");
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_track_the_sorted_vector_model_within_bucket_error() {
        let mut rng = StdRng::seed_from_u64(7);
        for round in 0..20 {
            let n = rng.gen_range(1..5000usize);
            // Log-uniform samples from ~1 ns to ~100 ms, like latencies.
            let mut raw: Vec<u64> = (0..n)
                .map(|_| (10f64.powf(rng.gen_range(0.0..8.0))) as u64)
                .collect();
            let mut h = Hist::default();
            raw.iter().for_each(|v| h.record(*v));
            raw.sort_unstable();
            assert_eq!(h.count(), n as u64);
            for p in [0.01, 0.5, 0.9, 0.99, 1.0] {
                let want = model(&raw, p) as f64;
                let got = h.percentile(p).unwrap();
                assert!(
                    (got - want).abs() <= want * 0.03 + 0.5,
                    "round {round} p{p}: hist {got} vs model {want}"
                );
            }
        }
    }

    #[test]
    fn small_values_are_exact_and_clear_resets() {
        let mut h = Hist::default();
        for v in [3, 3, 5, 9, 60] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.5), Some(5.0));
        assert_eq!(h.percentile(1.0), Some(60.0));
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), None);
    }

    #[test]
    fn median_matches_the_sorted_vector_model() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let n = rng.gen_range(1..40usize);
            let v: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1e6)).collect();
            let mut s = v.clone();
            s.sort_by(|a, b| a.total_cmp(b));
            let want = if n % 2 == 1 {
                s[n / 2]
            } else {
                (s[n / 2 - 1] + s[n / 2]) / 2.0
            };
            assert_eq!(median(&v), Some(want));
        }
    }
}
