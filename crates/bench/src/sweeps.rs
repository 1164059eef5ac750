//! Sweeps beyond the paper: the replication (figR), caching (figC)
//! and fault (figA) extensions, and the ablations of knobs the paper
//! fixes. None has a paper counterpart to compare against.

use crate::{write_results, Entry, Opts};
use dlpt_core::messages::QueryKind;
use dlpt_core::{Alphabet, DlptSystem, FaultPlan, Key};
use dlpt_sim::config::{ExperimentConfig, LbKind, PopKind};
use dlpt_sim::experiments as exp;
use dlpt_sim::report::{ascii_chart, ascii_table};
use dlpt_sim::runner::{average, health_jsonl, run_all, run_experiment, AveragedSeries};
use dlpt_workloads::churn::ChurnModel;
use std::path::{Path, PathBuf};

/// The result grid of a sweep figure (figR, figA): one CSV row per
/// sweep point and, per metric, one column per curve, named
/// `<metric>_<curve>`.
struct SweepGrid {
    x_name: &'static str,
    xs: &'static [f64],
    curves: Vec<&'static str>,
    /// Column prefix and decimals of each metric.
    metrics: &'static [(&'static str, usize)],
    /// `values[metric][curve][sweep point]`.
    values: Vec<Vec<Vec<f64>>>,
}

impl SweepGrid {
    fn new(
        x_name: &'static str,
        xs: &'static [f64],
        curves: Vec<&'static str>,
        metrics: &'static [(&'static str, usize)],
    ) -> Self {
        let values = vec![vec![Vec::new(); curves.len()]; metrics.len()];
        SweepGrid {
            x_name,
            xs,
            curves,
            metrics,
            values,
        }
    }

    /// Appends the next sweep point of `curve`: one value per metric.
    fn push(&mut self, curve: usize, point: &[f64]) {
        assert_eq!(point.len(), self.metrics.len());
        for (per_curve, v) in self.values.iter_mut().zip(point) {
            per_curve[curve].push(*v);
        }
    }

    fn csv(&self) -> String {
        let mut out = self.x_name.to_string();
        for (metric, _) in self.metrics {
            for curve in &self.curves {
                out += &format!(",{metric}_{curve}");
            }
        }
        out.push('\n');
        for (xi, x) in self.xs.iter().enumerate() {
            out += &format!("{x}");
            for ((_, decimals), per_curve) in self.metrics.iter().zip(&self.values) {
                for curve in per_curve {
                    out += &format!(",{:.*}", *decimals, curve[xi]);
                }
            }
            out.push('\n');
        }
        out
    }

    /// One metric (a percentage) across the sweep, a series per curve.
    fn chart(&self, metric: usize, title: &str) -> String {
        let cols: Vec<(&str, &[f64])> = self
            .curves
            .iter()
            .zip(&self.values[metric])
            .map(|(label, v)| (*label, v.as_slice()))
            .collect();
        ascii_chart(title, &cols, Some(100.0), 14, 48)
    }

    /// A curve's value at the first and the last sweep point.
    fn ends(&self, metric: usize, curve: usize) -> (f64, f64) {
        let v = &self.values[metric][curve];
        (v[0], v[v.len() - 1])
    }
}

/// `--health PATH` of figC and figA: one [`dlpt_core::HealthSnapshot`]
/// line per unit per run, in sweep order. Off (no path), nothing is
/// collected and the run is byte-identical to an unobserved one.
struct Health {
    path: Option<PathBuf>,
    jsonl: String,
}

impl Health {
    fn new(opts: &Opts) -> Self {
        Health {
            path: opts.health.clone(),
            jsonl: String::new(),
        }
    }

    /// Runs every seed of `cfg` (snapshots on iff `--health`) and
    /// averages.
    fn run(&mut self, mut cfg: ExperimentConfig) -> AveragedSeries {
        cfg.health_snapshots = self.path.is_some();
        let results = run_all(&cfg);
        if self.path.is_some() {
            self.jsonl.push_str(&health_jsonl(&results));
        }
        average(&cfg, &results)
    }

    /// Writes the JSONL series at `PATH`; two seeded runs diff clean.
    fn finish(self) {
        let Some(path) = self.path else { return };
        std::fs::write(&path, &self.jsonl).expect("write health file");
        println!(
            "  health: {} snapshots -> {}",
            self.jsonl.lines().count(),
            path.display()
        );
    }
}

/// Figure R — satisfaction and data survival vs. crash rate.
///
/// The paper's Figures 4–8 only churn peers *gracefully*; every node a
/// crashed peer would host is silently destroyed in the k = 1 design.
/// This figure quantifies that loss and what `protocol::repair` buys
/// back: with k = 2 and anti-entropy, a horizon that crashes ~30% of
/// the population ends with every registered key still discoverable,
/// while the k = 1 baseline demonstrably loses data.
pub fn figr(e: &Entry, opts: &Opts) {
    let variants = exp::figr_variants();
    let mut grid = SweepGrid::new(
        "crash_rate",
        &exp::FIGR_CRASH_RATES,
        variants.iter().map(|v| v.label).collect(),
        &[("sat", 4), ("surv", 4)],
    );
    for &rate in &exp::FIGR_CRASH_RATES {
        for (vi, v) in variants.iter().enumerate() {
            let cfg = e.shrink(exp::figr_config(rate, *v), opts.scale);
            e.announce(&cfg);
            let s = run_experiment(&cfg);
            grid.push(vi, &[s.steady_satisfaction(), s.final_survival()]);
        }
    }
    let title = "Figure R: % satisfied requests vs. crash rate (x = sweep point)";
    println!("{}", grid.chart(0, title));
    let title = "Figure R: % registered keys surviving the horizon";
    println!("{}", grid.chart(1, title));
    for (vi, v) in variants.iter().enumerate() {
        let (sat, surv) = (grid.ends(0, vi), grid.ends(1, vi));
        println!(
            "  {:>7}: survival {:>5.1}%..{:>5.1}%  satisfaction {:>5.1}%..{:>5.1}% (low..high crash rate)",
            v.label, surv.0, surv.1, sat.0, sat.1,
        );
    }
    println!("  crash rates per unit: {:?}", exp::FIGR_CRASH_RATES);
    write_results("figR.csv", &grid.csv());
}

/// Figure A — satisfaction, route length and data survival vs.
/// message-loss rate, under 5% duplication and a healable partition.
///
/// The paper's simulation assumes a perfect transport. This figure
/// runs the same Section-4 loop behind the engine's seeded fault gate
/// (`dlpt_core::transport`) and measures what the request-retry
/// machinery and the replication extension buy back: every request
/// still terminates, and with k = 2 + anti-entropy the registered keys
/// stay ≥ 99% discoverable after the partition heals. The fault
/// counters are CSV columns so the committed figure carries the fault
/// story, not just its outcome.
pub fn figa(e: &Entry, opts: &Opts) {
    let variants = exp::figa_variants();
    let mut health = Health::new(opts);
    let mut grid = SweepGrid::new(
        "loss_rate",
        &exp::FIGA_LOSS_RATES,
        variants.iter().map(|v| v.label).collect(),
        &[
            ("sat", 4),
            ("hops", 4),
            ("surv", 4),
            ("lost", 1),
            ("dup", 1),
            ("dedup", 1),
            ("retries", 1),
            ("failed", 1),
        ],
    );
    let (mut lost, mut retries, mut failed, mut work) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for &rate in &exp::FIGA_LOSS_RATES {
        for (vi, v) in variants.iter().enumerate() {
            let cfg = e.shrink(exp::figa_config(rate, *v), opts.scale);
            e.announce(&cfg);
            let s = health.run(cfg);
            grid.push(
                vi,
                &[
                    s.steady_satisfaction(),
                    s.steady_mean_hops(),
                    s.final_survival(),
                    s.steady_frames_lost,
                    s.steady_frames_duplicated,
                    s.steady_dedup_suppressed,
                    s.steady_retries,
                    s.steady_requests_failed,
                ],
            );
            lost += s.steady_frames_lost;
            retries += s.steady_retries;
            failed += s.steady_requests_failed;
            work += s.steady_work;
        }
    }
    let title = "Figure A: % satisfied requests vs. message-loss rate (x = sweep point)";
    println!("{}", grid.chart(0, title));
    let title = "Figure A: % registered keys surviving the lossy horizon";
    println!("{}", grid.chart(2, title));
    for (vi, v) in variants.iter().enumerate() {
        let (sat, hops, surv) = (grid.ends(0, vi), grid.ends(1, vi), grid.ends(2, vi));
        println!(
            "  {:>3}: survival {:>5.1}%..{:>5.1}%  satisfaction {:>5.1}%..{:>5.1}%  hops {:>4.1}..{:>4.1} (low..high loss)",
            v.label, surv.0, surv.1, sat.0, sat.1, hops.0, hops.1,
        );
    }
    println!(
        "  fault totals (steady state, averaged per run, summed over sweep): \
         {lost:.0} frames lost, {retries:.0} retries, {failed:.0} requests failed"
    );
    println!(
        "  message cost (total_work: delivered + drops + requeues + undeliverable, \
         summed over sweep): {work:.0}"
    );
    println!("  loss rates: {:?}", exp::FIGA_LOSS_RATES);
    write_results("figA.csv", &grid.csv());
    health.finish();
    if let Some(path) = &opts.trace {
        traced_sample(path);
    }
}

/// `figA --trace PATH`: a small scripted lossy run with the tracer on.
/// The sweep itself stays untraced so its numbers are the committed
/// ones; this companion run shows what the retry machinery does under
/// a figA-like 10% loss / 5% duplication plan. Writes the drained
/// trace as deterministic JSONL at `path`.
fn traced_sample(path: &Path) {
    let mut sys = DlptSystem::builder()
        .alphabet(Alphabet::grid())
        .seed(0xF16A)
        .peer_id_len(12)
        .bootstrap_peers(5)
        .build();
    sys.set_fault_plan(FaultPlan {
        loss_rate: 0.10,
        dup_rate: 0.05,
        reorder_rate: 0.05,
        seed: 0xF16A ^ 0xFA17,
    });
    sys.set_tracing(1 << 14);
    for k in ["DGEMM", "DGEMV", "DTRSM", "SGEMM", "S3L_fft", "PSGESV"] {
        sys.insert_data(k).expect("ring non-empty");
    }
    for _ in 0..4 {
        for k in ["DGEMM", "S3L_fft", "MISSING", "PSGESV"] {
            sys.lookup(&Key::from(k));
        }
        sys.request(QueryKind::Complete(Key::from("D")))
            .expect("tree non-empty");
    }
    let events = sys.take_trace();
    let mut jsonl = Vec::new();
    dlpt_core::obs::write_jsonl(&events, &mut jsonl).expect("in-memory write");
    std::fs::write(path, jsonl).expect("write figA trace");
    println!("  trace: {} events -> {}", events.len(), path.display());
}

/// Figure C — mean route length and satisfaction vs. per-peer
/// shortcut-cache capacity, across request-popularity skews.
///
/// Every discovery request in the paper's system climbs toward the
/// upper tree before descending, so the root region is the hotspot no
/// matter how MLT/KC spread the nodes. `dlpt-core::cache` lets the
/// entry peer route hot targets in one hop; this figure quantifies
/// what that buys under uniform traffic (the control — caching must
/// cost nothing), Zipf skews s ∈ {0.8, 1.2}, and a sustained
/// hot-prefix phase, at cache capacities {0, 64, 512}.
///
/// `figC.csv` has one row per workload × capacity; `figC_depth.csv`
/// the per-depth visits of satisfied routes for the zipf1.2 column,
/// uncached vs. largest cache, per 1000 issued requests — the
/// upper-tree flattening evidence.
pub fn figc(e: &Entry, opts: &Opts) {
    let workloads = exp::figc_workloads();
    let mut health = Health::new(opts);
    // series[workload][cache]
    let mut series: Vec<Vec<AveragedSeries>> = Vec::with_capacity(workloads.len());
    for w in &workloads {
        let mut per_cache = Vec::with_capacity(exp::FIGC_CACHE_SIZES.len());
        for &cache in &exp::FIGC_CACHE_SIZES {
            let cfg = e.shrink(exp::figc_config(w, cache), opts.scale);
            e.announce(&cfg);
            per_cache.push(health.run(cfg));
        }
        series.push(per_cache);
    }
    health.finish();

    let mut csv = String::from(
        "workload,cache,satisfaction_pct,mean_hops,hit_pct,stale_pct,learned,invalidations,work\n",
    );
    for (w, per_cache) in workloads.iter().zip(&series) {
        for (&cache, s) in exp::FIGC_CACHE_SIZES.iter().zip(per_cache) {
            csv += &format!(
                "{},{cache},{:.4},{:.4},{:.4},{:.4},{:.1},{:.1},{:.1}\n",
                w.label,
                s.steady_satisfaction(),
                s.steady_mean_hops(),
                s.steady_cache_hit_pct(),
                s.steady_cache_stale_pct(),
                s.steady_cache_learned,
                s.steady_cache_invalidations,
                s.steady_work,
            );
        }
    }

    // Depth histogram: zipf1.2, uncached vs. the largest cache,
    // normalized to visits per 1000 issued requests.
    let zipf = workloads
        .iter()
        .position(|w| w.label == "zipf1.2")
        .expect("zipf1.2 workload present");
    let largest = exp::FIGC_CACHE_SIZES.len() - 1;
    let per_kreq = |s: &AveragedSeries| -> Vec<f64> {
        if s.steady_issued == 0.0 {
            return vec![0.0; s.depth_visits.len()];
        }
        let norm = |v: &f64| 1000.0 * v / s.steady_issued;
        s.depth_visits.iter().map(norm).collect()
    };
    let (off, on) = (per_kreq(&series[zipf][0]), per_kreq(&series[zipf][largest]));
    let mut depth_csv = String::from("depth,visits_per_kreq_cache0,visits_per_kreq_cache512\n");
    for d in 0..off.len().max(on.len()) {
        let at = |v: &[f64]| v.get(d).copied().unwrap_or(0.0);
        depth_csv += &format!("{d},{:.4},{:.4}\n", at(&off), at(&on));
    }

    let hops: Vec<Vec<f64>> = series
        .iter()
        .map(|per_cache| per_cache.iter().map(|s| s.steady_mean_hops()).collect())
        .collect();
    let hop_cols: Vec<(&str, &[f64])> = workloads
        .iter()
        .zip(&hops)
        .map(|(w, h)| (w.label, h.as_slice()))
        .collect();
    let title = "Figure C: mean hops per satisfied request vs. cache capacity (x = sweep point)";
    println!("{}", ascii_chart(title, &hop_cols, None, 12, 48));
    let depth_cols = [("cache0", off.as_slice()), ("cache512", on.as_slice())];
    let title = "Figure C: zipf1.2 visits per 1000 requests by tree depth (x = depth)";
    println!("{}", ascii_chart(title, &depth_cols, None, 12, 48));
    for (w, per_cache) in workloads.iter().zip(&series) {
        let (base, best) = (&per_cache[0], &per_cache[largest]);
        println!(
            "  {:>9}: hops {:.2} -> {:.2} ({:+.1}%), satisfaction {:.1}% -> {:.1}%, hit {:.1}%, stale {:.2}%",
            w.label,
            base.steady_mean_hops(),
            best.steady_mean_hops(),
            100.0 * (best.steady_mean_hops() - base.steady_mean_hops())
                / base.steady_mean_hops().max(1e-9),
            base.steady_satisfaction(),
            best.steady_satisfaction(),
            best.steady_cache_hit_pct(),
            best.steady_cache_stale_pct(),
        );
    }
    let work: f64 = series.iter().flatten().map(|s| s.steady_work).sum();
    println!(
        "  message cost (total_work: delivered + drops + requeues + undeliverable, \
         summed over sweep): {work:.0}"
    );
    println!("  cache capacities: {:?}", exp::FIGC_CACHE_SIZES);
    write_results("figC.csv", &csv);
    write_results("figC_depth.csv", &depth_csv);
}

/// Ablations of the design choices DESIGN.md calls out — knobs the
/// paper fixes without studying: the MLT trigger fraction (paper: "a
/// fixed fraction of the peers"), KC's candidate count k (paper: 4),
/// the platform's capacity heterogeneity ratio (paper: 4) and
/// request-popularity skew (paper: uniform outside the hot spots).
pub fn ablation(e: &Entry, opts: &Opts) {
    let base = |name: String| {
        let cfg = ExperimentConfig {
            name,
            load: 0.16,
            churn: ChurnModel::stable(),
            runs: 12,
            ..ExperimentConfig::default()
        };
        e.shrink(cfg, opts.scale)
    };
    let mut csv = String::from("ablation,setting,steady_satisfaction_pct\n");
    let mut rows = Vec::new();
    let mut record = |kind: &str, row_label: String, setting: String, cfg: ExperimentConfig| {
        let sat = run_experiment(&cfg).steady_satisfaction();
        eprintln!("[ablation] {}: {sat:.1}%", cfg.name);
        csv += &format!("{kind},{setting},{sat:.2}\n");
        rows.push(vec![row_label, setting, format!("{sat:.1}%")]);
    };

    for fraction in [0.1, 0.25, 0.5, 1.0] {
        let mut cfg = base(format!("mlt-fraction-{fraction}"));
        cfg.lb = LbKind::Mlt { fraction };
        record(
            "mlt_fraction",
            "MLT fraction".into(),
            fraction.to_string(),
            cfg,
        );
    }
    // Under churn, where KC acts.
    for k in [1usize, 2, 4, 8, 16] {
        let mut cfg = base(format!("kc-k-{k}"));
        cfg.churn = ChurnModel::dynamic();
        cfg.lb = LbKind::Kc { k };
        record("kc_k", "KC candidates k".into(), k.to_string(), cfg);
    }
    // Capacity heterogeneity: MLT's raison d'être.
    for ratio in [1u32, 2, 4, 8] {
        for (label, lb) in [
            ("MLT", LbKind::Mlt { fraction: 1.0 }),
            ("NoLB", LbKind::None),
        ] {
            let mut cfg = base(format!("ratio-{ratio}-{label}"));
            cfg.capacity_ratio = ratio;
            // Keep aggregate capacity roughly constant across ratios.
            cfg.base_capacity = (50 / (1 + ratio)).max(2);
            cfg.lb = lb;
            record(
                &format!("capacity_ratio_{label}"),
                format!("capacity ratio ({label})"),
                ratio.to_string(),
                cfg,
            );
        }
    }
    for (label, pop) in [
        ("uniform", PopKind::Uniform),
        ("zipf-0.8", PopKind::Zipf(0.8)),
        ("zipf-1.2", PopKind::Zipf(1.2)),
    ] {
        let mut cfg = base(format!("pop-{label}"));
        cfg.lb = LbKind::Mlt { fraction: 1.0 };
        cfg.popularity = pop;
        record("popularity", "popularity (MLT)".into(), label.into(), cfg);
    }

    println!("Ablations: steady-state satisfaction");
    let headers = ["Ablation", "Setting", "Satisfaction"];
    println!("{}", ascii_table(&headers, &rows));
    write_results("ablation.csv", &csv);
}
