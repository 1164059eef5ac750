//! Multi-run execution and averaging.
//!
//! "Each simulation were repeated 30, 50 or 100 times, to have some
//! relevant results." Runs are independent (seed = base + index), so
//! they distribute over a thread pool without affecting results.

use crate::config::ExperimentConfig;
use crate::run::{run_once, RunResult};

/// Per-unit series averaged over all runs of one experiment.
#[derive(Debug, Clone, Default)]
pub struct AveragedSeries {
    /// Experiment name (copied from the config).
    pub name: String,
    /// Time axis (unit indices).
    pub time: Vec<u32>,
    /// Mean satisfaction percentage per unit (Figures 4–8).
    pub satisfaction: Vec<f64>,
    /// Mean logical hops per satisfied request (Figure 9).
    pub logical_hops: Vec<f64>,
    /// Mean physical hops, lexicographic mapping (Figure 9).
    pub physical_lexico: Vec<f64>,
    /// Mean physical hops, random-mapping replay (Figure 9).
    pub physical_random: Vec<f64>,
    /// Mean live peers per unit.
    pub peers: Vec<f64>,
    /// Mean tree nodes per unit.
    pub nodes: Vec<f64>,
    /// Mean balancer migrations per unit.
    pub migrations: Vec<f64>,
    /// Mean data-survival percentage per unit (`figR`).
    pub survival: Vec<f64>,
    /// Total satisfied requests per run (averaged), growth excluded —
    /// the quantity Table 1's gains compare.
    pub steady_satisfied: f64,
    /// Total issued requests per run (averaged), growth excluded.
    pub steady_issued: f64,
    /// Σ logical hops over steady-state satisfied requests (averaged
    /// per run) — numerator of `figC`'s mean-hop column.
    pub steady_hops_sum: f64,
    /// Steady-state satisfied requests contributing hops (averaged per
    /// run) — its denominator.
    pub steady_hop_samples: f64,
    /// Steady-state cache hits per run (averaged; caching extension).
    pub steady_cache_hits: f64,
    /// Steady-state stale cache hits per run (averaged).
    pub steady_cache_stale: f64,
    /// Steady-state per-depth visits of satisfied routes (summed over
    /// units, averaged per run); empty unless `track_depth_hist`.
    pub depth_visits: Vec<f64>,
    /// Steady-state faultable messages lost per run (averaged; fault
    /// extension, `figA`).
    pub steady_frames_lost: f64,
    /// Steady-state faultable messages delivered twice per run
    /// (averaged).
    pub steady_frames_duplicated: f64,
    /// Steady-state duplicated responses suppressed by the idempotency
    /// filter per run (averaged).
    pub steady_dedup_suppressed: f64,
    /// Steady-state request re-issues per run (averaged).
    pub steady_retries: f64,
    /// Steady-state requests failed at retry exhaustion per run
    /// (averaged).
    pub steady_requests_failed: f64,
    /// Steady-state routing shortcuts learned per run (averaged;
    /// caching extension, `figC`).
    pub steady_cache_learned: f64,
    /// Steady-state eager cache invalidations delivered per run
    /// (averaged).
    pub steady_cache_invalidations: f64,
    /// Steady-state total visible work per run (averaged) —
    /// `SystemStats::total_work`, i.e. delivered messages plus drops,
    /// requeues and undeliverable envelopes.
    pub steady_work: f64,
    /// Number of runs averaged.
    pub runs: usize,
}

impl AveragedSeries {
    /// Mean satisfaction over the steady-state units (growth period
    /// excluded).
    pub fn steady_satisfaction(&self) -> f64 {
        if self.steady_issued == 0.0 {
            0.0
        } else {
            100.0 * self.steady_satisfied / self.steady_issued
        }
    }

    /// Data survival at the end of the horizon (mean over runs of the
    /// last unit's survival percentage) — `figR`'s y-axis.
    pub fn final_survival(&self) -> f64 {
        self.survival.last().copied().unwrap_or(100.0)
    }

    /// Mean logical hops per satisfied steady-state request — `figC`'s
    /// mean-hop axis (visit-weighted, unlike the per-unit chart
    /// series).
    pub fn steady_mean_hops(&self) -> f64 {
        if self.steady_hop_samples == 0.0 {
            0.0
        } else {
            self.steady_hops_sum / self.steady_hop_samples
        }
    }

    /// Steady-state cache hit rate as a percentage of issued requests
    /// (each request consults the cache exactly once when caching is
    /// on).
    pub fn steady_cache_hit_pct(&self) -> f64 {
        if self.steady_issued == 0.0 {
            0.0
        } else {
            100.0 * self.steady_cache_hits / self.steady_issued
        }
    }

    /// Steady-state stale-hit rate as a percentage of issued requests.
    pub fn steady_cache_stale_pct(&self) -> f64 {
        if self.steady_issued == 0.0 {
            0.0
        } else {
            100.0 * self.steady_cache_stale / self.steady_issued
        }
    }
}

/// Runs every seed of the experiment (in parallel) and averages.
pub fn run_experiment(cfg: &ExperimentConfig) -> AveragedSeries {
    let results = run_all(cfg);
    average(cfg, &results)
}

/// Runs all seeds, returning the raw per-run results (kept public for
/// statistical post-processing in the benches).
pub fn run_all(cfg: &ExperimentConfig) -> Vec<RunResult> {
    let runs = cfg.runs.max(1);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(runs);
    if workers <= 1 {
        return (0..runs).map(|i| run_once(cfg, i)).collect();
    }
    let mut results: Vec<Option<RunResult>> = vec![None; runs];
    let chunks: Vec<Vec<usize>> = (0..workers)
        .map(|w| (0..runs).filter(|i| i % workers == w).collect())
        .collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|idxs| {
                scope.spawn(move || {
                    idxs.into_iter()
                        .map(|i| (i, run_once(cfg, i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("runner thread panicked") {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index filled"))
        .collect()
}

/// Concatenates the per-run health JSONL series in run order — the
/// file body `dlpt-bench figC`/`figA` write when `--health` is passed.
/// Empty unless the config had `health_snapshots` set.
pub fn health_jsonl(results: &[RunResult]) -> String {
    results.iter().map(|r| r.health.as_str()).collect()
}

/// The timing-section twin of [`health_jsonl`]: scheduling-dependent
/// readings, written to a file of their own that nothing diffs.
pub fn health_timing_jsonl(results: &[RunResult]) -> String {
    results.iter().map(|r| r.health_timing.as_str()).collect()
}

/// Averages run results into per-unit series.
pub fn average(cfg: &ExperimentConfig, results: &[RunResult]) -> AveragedSeries {
    let units = cfg.time_units as usize;
    let runs = results.len().max(1) as f64;
    let skip = cfg.growth_units as usize;
    let mut out = AveragedSeries {
        name: cfg.name.clone(),
        time: (0..cfg.time_units).collect(),
        satisfaction: vec![0.0; units],
        logical_hops: vec![0.0; units],
        physical_lexico: vec![0.0; units],
        physical_random: vec![0.0; units],
        peers: vec![0.0; units],
        nodes: vec![0.0; units],
        migrations: vec![0.0; units],
        survival: vec![0.0; units],
        steady_satisfied: 0.0,
        steady_issued: 0.0,
        steady_hops_sum: 0.0,
        steady_hop_samples: 0.0,
        steady_cache_hits: 0.0,
        steady_cache_stale: 0.0,
        depth_visits: Vec::new(),
        steady_frames_lost: 0.0,
        steady_frames_duplicated: 0.0,
        steady_dedup_suppressed: 0.0,
        steady_retries: 0.0,
        steady_requests_failed: 0.0,
        steady_cache_learned: 0.0,
        steady_cache_invalidations: 0.0,
        steady_work: 0.0,
        runs: results.len(),
    };
    for r in results {
        for (t, u) in r.units.iter().enumerate() {
            out.satisfaction[t] += u.satisfaction_pct() / runs;
            out.logical_hops[t] += u.mean_logical_hops() / runs;
            out.physical_lexico[t] += u.mean_physical_lexico() / runs;
            out.physical_random[t] += u.mean_physical_random() / runs;
            out.peers[t] += u.peers as f64 / runs;
            out.nodes[t] += u.nodes as f64 / runs;
            out.migrations[t] += u.migrations as f64 / runs;
            out.survival[t] += u.survival_pct() / runs;
        }
        for u in r.units.iter().skip(skip) {
            out.steady_hops_sum += u.logical_hops_sum as f64 / runs;
            out.steady_hop_samples += u.hop_samples as f64 / runs;
            out.steady_cache_hits += u.cache_hits as f64 / runs;
            out.steady_cache_stale += u.cache_stale as f64 / runs;
            out.steady_frames_lost += u.frames_lost as f64 / runs;
            out.steady_frames_duplicated += u.frames_duplicated as f64 / runs;
            out.steady_dedup_suppressed += u.dedup_suppressed as f64 / runs;
            out.steady_retries += u.retries as f64 / runs;
            out.steady_requests_failed += u.requests_failed as f64 / runs;
            out.steady_cache_learned += u.cache_learned as f64 / runs;
            out.steady_cache_invalidations += u.cache_invalidations as f64 / runs;
            out.steady_work += u.work as f64 / runs;
            if out.depth_visits.len() < u.depth_visits.len() {
                out.depth_visits.resize(u.depth_visits.len(), 0.0);
            }
            for (d, c) in u.depth_visits.iter().enumerate() {
                out.depth_visits[d] += *c as f64 / runs;
            }
        }
        out.steady_satisfied += r.total_satisfied(skip) as f64 / runs;
        out.steady_issued += r.total_issued(skip) as f64 / runs;
    }
    out
}

/// Table 1's gain: percentage improvement of `candidate` over
/// `baseline` in steady-state satisfied requests.
pub fn gain_pct(candidate: &AveragedSeries, baseline: &AveragedSeries) -> f64 {
    if baseline.steady_satisfied == 0.0 {
        return 0.0;
    }
    100.0 * (candidate.steady_satisfied - baseline.steady_satisfied) / baseline.steady_satisfied
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CorpusKind, LbKind, PopKind};
    use dlpt_workloads::churn::ChurnModel;

    fn tiny(runs: usize) -> ExperimentConfig {
        ExperimentConfig {
            name: "tiny".into(),
            peers: 10,
            corpus: CorpusKind::GridSubset(50),
            time_units: 6,
            growth_units: 2,
            load: 0.10,
            route_cost: 9.0,
            base_capacity: 10,
            capacity_ratio: 4,
            churn: ChurnModel::none(),
            lb: LbKind::None,
            popularity: PopKind::Uniform,
            runs,
            base_seed: 5,
            peer_id_len: 8,
            track_mapping_hops: false,
            replication: 1,
            anti_entropy: false,
            cache_capacity: 0,
            track_depth_hist: false,
            workers: 1,
            loss_rate: 0.0,
            dup_rate: 0.0,
            partition: None,
            health_snapshots: false,
        }
    }

    #[test]
    fn averaging_matches_manual_computation() {
        let cfg = tiny(3);
        let results = run_all(&cfg);
        let avg = average(&cfg, &results);
        assert_eq!(avg.runs, 3);
        assert_eq!(avg.satisfaction.len(), 6);
        let manual: f64 = results
            .iter()
            .map(|r| r.units[4].satisfaction_pct())
            .sum::<f64>()
            / 3.0;
        assert!((avg.satisfaction[4] - manual).abs() < 1e-9);
    }

    #[test]
    fn parallel_equals_sequential() {
        let cfg = tiny(4);
        let parallel = run_all(&cfg);
        let sequential: Vec<_> = (0..4).map(|i| run_once(&cfg, i)).collect();
        for (p, s) in parallel.iter().zip(&sequential) {
            assert_eq!(p.units, s.units);
        }
    }

    #[test]
    fn gain_is_relative_difference() {
        let base = AveragedSeries {
            steady_satisfied: 100.0,
            ..Default::default()
        };
        let cand = AveragedSeries {
            steady_satisfied: 150.0,
            ..Default::default()
        };
        assert!((gain_pct(&cand, &base) - 50.0).abs() < 1e-9);
        let zero = AveragedSeries::default();
        assert_eq!(gain_pct(&cand, &zero), 0.0);
    }

    #[test]
    fn steady_satisfaction_ratio() {
        let cfg = tiny(2);
        let avg = run_experiment(&cfg);
        let s = avg.steady_satisfaction();
        assert!((0.0..=100.0).contains(&s), "{s}");
    }
}
