//! Figure C (caching extension) — mean route length and satisfaction
//! vs. per-peer shortcut-cache capacity, across request-popularity
//! skews.
//!
//! Every discovery request in the paper's system climbs toward the
//! upper tree before descending, so the root region is the hotspot no
//! matter how MLT/KC spread the nodes. `dlpt-core::cache` lets the
//! entry peer route hot targets in one hop; this figure quantifies
//! what that buys under uniform traffic (the control — caching must
//! cost nothing), Zipf skews s ∈ {0.8, 1.2}, and a sustained
//! hot-prefix phase, at cache capacities {0, 64, 512}.
//!
//! `cargo run --release --bin figC [-- --scale N]`
//!
//! Emits `results/figC.csv` (one row per workload × capacity:
//! satisfaction, mean hops, hit/stale rates, entries learned,
//! invalidations delivered and total message work) and
//! `results/figC_depth.csv` (per-depth visits of satisfied routes for
//! the zipf1.2 column, uncached vs. largest cache, per 1000 issued
//! requests — the upper-tree flattening evidence), plus ASCII charts.

use dlpt_bench::{health_path_from_args, scale_from_args, write_health_files};
use dlpt_sim::experiments::{figc_config, figc_workloads, FIGC_CACHE_SIZES};
use dlpt_sim::report::{ascii_chart, results_dir};
use dlpt_sim::runner::{average, health_jsonl, health_timing_jsonl, run_all, AveragedSeries};
use std::io::Write as _;

fn main() {
    let scale = scale_from_args();
    let health_path = health_path_from_args();
    let workloads = figc_workloads();
    // series[w][c]
    let mut series: Vec<Vec<AveragedSeries>> = Vec::with_capacity(workloads.len());
    let mut health = String::new();
    let mut health_timing = String::new();
    let mut last_snapshot = None;
    for w in &workloads {
        let mut per_cache = Vec::with_capacity(FIGC_CACHE_SIZES.len());
        for &cache in FIGC_CACHE_SIZES.iter() {
            let mut cfg = figc_config(w, cache);
            if scale > 1 {
                cfg = cfg.scaled_down(scale);
                // Keep the 50-unit horizon: hit rates are a function
                // of how long the caches get to warm, and the
                // steady-state window must stay non-empty.
                cfg.time_units = 50;
                cfg.growth_units = 10;
            }
            cfg.health_snapshots = health_path.is_some();
            eprintln!(
                "[figC] running {} ({} runs x {} units, {} peers)…",
                cfg.name, cfg.runs, cfg.time_units, cfg.peers
            );
            let results = run_all(&cfg);
            if health_path.is_some() {
                health.push_str(&health_jsonl(&results));
                health_timing.push_str(&health_timing_jsonl(&results));
                last_snapshot = results.last().and_then(|r| r.last_snapshot.clone());
            }
            per_cache.push(average(&cfg, &results));
        }
        series.push(per_cache);
    }
    if let Some(hp) = &health_path {
        let prom = write_health_files(hp, &health, &health_timing, last_snapshot.as_ref())
            .expect("write figC health");
        println!(
            "  health: {} snapshots -> {} (+ {})",
            health.lines().count(),
            hp.display(),
            prom.display()
        );
    }

    let path = results_dir().join("figC.csv");
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).expect("create figC.csv"));
    writeln!(
        f,
        "workload,cache,satisfaction_pct,mean_hops,hit_pct,stale_pct,learned,invalidations,work"
    )
    .expect("write");
    for (w, per_cache) in workloads.iter().zip(&series) {
        for (&cache, s) in FIGC_CACHE_SIZES.iter().zip(per_cache) {
            writeln!(
                f,
                "{},{cache},{:.4},{:.4},{:.4},{:.4},{:.1},{:.1},{:.1}",
                w.label,
                s.steady_satisfaction(),
                s.steady_mean_hops(),
                s.steady_cache_hit_pct(),
                s.steady_cache_stale_pct(),
                s.steady_cache_learned,
                s.steady_cache_invalidations,
                s.steady_work,
            )
            .expect("write");
        }
    }
    f.flush().expect("flush figC.csv");

    // Depth histogram: zipf1.2, uncached vs. the largest cache,
    // normalized to visits per 1000 issued requests.
    let zipf_idx = workloads
        .iter()
        .position(|w| w.label == "zipf1.2")
        .expect("zipf1.2 workload present");
    let (off, on) = (
        &series[zipf_idx][0],
        &series[zipf_idx][FIGC_CACHE_SIZES.len() - 1],
    );
    let depth_path = results_dir().join("figC_depth.csv");
    let mut f =
        std::io::BufWriter::new(std::fs::File::create(&depth_path).expect("create figC_depth.csv"));
    writeln!(f, "depth,visits_per_kreq_cache0,visits_per_kreq_cache512").expect("write");
    let norm = |s: &AveragedSeries, d: usize| {
        if s.steady_issued == 0.0 {
            0.0
        } else {
            1000.0 * s.depth_visits.get(d).copied().unwrap_or(0.0) / s.steady_issued
        }
    };
    for d in 0..off.depth_visits.len().max(on.depth_visits.len()) {
        writeln!(f, "{d},{:.4},{:.4}", norm(off, d), norm(on, d)).expect("write");
    }
    f.flush().expect("flush figC_depth.csv");

    // Charts: mean hops across the capacity sweep, one series per
    // workload; then the depth histograms.
    let hops: Vec<Vec<f64>> = series
        .iter()
        .map(|per_cache| per_cache.iter().map(|s| s.steady_mean_hops()).collect())
        .collect();
    let hop_cols: Vec<(&str, &[f64])> = workloads
        .iter()
        .zip(&hops)
        .map(|(w, h)| (w.label, h.as_slice()))
        .collect();
    println!(
        "{}",
        ascii_chart(
            "Figure C: mean hops per satisfied request vs. cache capacity (x = sweep point)",
            &hop_cols,
            None,
            12,
            48,
        )
    );
    let depth_cols_data: Vec<Vec<f64>> = vec![
        (0..off.depth_visits.len()).map(|d| norm(off, d)).collect(),
        (0..on.depth_visits.len()).map(|d| norm(on, d)).collect(),
    ];
    let depth_cols: Vec<(&str, &[f64])> = vec![
        ("cache0", depth_cols_data[0].as_slice()),
        ("cache512", depth_cols_data[1].as_slice()),
    ];
    println!(
        "{}",
        ascii_chart(
            "Figure C: zipf1.2 visits per 1000 requests by tree depth (x = depth)",
            &depth_cols,
            None,
            12,
            48,
        )
    );
    for (w, per_cache) in workloads.iter().zip(&series) {
        let base = &per_cache[0];
        let best = &per_cache[FIGC_CACHE_SIZES.len() - 1];
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
    let work: f64 = series
        .iter()
        .flat_map(|per_cache| per_cache.iter().map(|s| s.steady_work))
        .sum();
    println!(
        "  message cost (total_work: delivered + drops + requeues + undeliverable, \
         summed over sweep): {work:.0}"
    );
    println!("  cache capacities: {FIGC_CACHE_SIZES:?}");
    println!("  CSV: {}", path.display());
    println!("  CSV: {}", depth_path.display());
}
