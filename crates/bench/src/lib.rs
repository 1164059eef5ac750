#![forbid(unsafe_code)]
//! # dlpt-bench — shared harness code for the reproduction binaries.
//!
//! Each figure/table of the paper has a binary in `src/bin/` that runs
//! the full-scale experiment (`cargo run --release --bin fig4`), emits
//! the series as CSV under `results/` and renders an ASCII chart.
//! Timing lives in the repo benchmark (`benchmark/`), not here.

use dlpt_sim::config::ExperimentConfig;
use dlpt_sim::report::{ascii_chart, results_dir, write_csv};
use dlpt_sim::runner::{run_experiment, AveragedSeries};

/// The flags the running binary reads (`--scale` everywhere, the rest
/// by binary name); any other argument is a usage error.
fn flags() -> Vec<&'static str> {
    let bin = std::env::args().next().unwrap_or_default();
    let mut flags = vec!["--scale"];
    if bin.ends_with("fig5") {
        flags.push("--crash-rate");
    }
    if bin.ends_with("figA") {
        flags.push("--trace");
    }
    if bin.ends_with("figA") || bin.ends_with("figC") {
        flags.push("--health");
    }
    flags
}

/// The value following the flag `name` on the command line, `None`
/// when the flag is absent. A flag without a value is a usage error.
fn arg_value(name: &str) -> Option<String> {
    let mut found = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if !flags().contains(&a.as_str()) {
            usage_exit(&a, "unknown argument");
        }
        let value = args
            .next()
            .unwrap_or_else(|| usage_exit(&a, "needs a value"));
        if a == name {
            found = Some(value);
        }
    }
    found
}

/// [`arg_value`] parsed as `T`; an unparsable value is a usage error,
/// never a silent fall-back to the default.
fn parsed_arg<T: std::str::FromStr>(name: &str) -> Option<T> {
    arg_value(name).map(|v| v.parse().unwrap_or_else(|_| usage_exit(name, "bad value")))
}

fn usage_exit(arg: &str, problem: &str) -> ! {
    let bin = std::env::args().next().unwrap_or_default();
    eprintln!("{bin}: {arg}: {problem}");
    eprintln!("usage: {bin} [{} VALUE]", flags().join(" VALUE] ["));
    std::process::exit(2);
}

/// Scale factor parsed from `--scale N` (default 1 = paper scale).
pub fn scale_from_args() -> usize {
    parsed_arg::<usize>("--scale").map_or(1, |n| n.max(1))
}

/// Optional trace output path parsed from `--trace PATH`. `None` when
/// absent — tracing stays off and the run is byte-identical to an
/// untraced one.
pub fn trace_path_from_args() -> Option<std::path::PathBuf> {
    arg_value("--trace").map(std::path::PathBuf::from)
}

/// Writes a drained trace as deterministic JSONL at `path` plus a
/// chrome://tracing span file at `path` with the extension replaced by
/// `chrome.json`. Returns the chrome path.
pub fn write_trace_files(
    path: &std::path::Path,
    events: &[dlpt_core::TraceEvent],
) -> std::io::Result<std::path::PathBuf> {
    let mut jsonl = std::io::BufWriter::new(std::fs::File::create(path)?);
    dlpt_core::obs::write_jsonl(events, &mut jsonl)?;
    std::io::Write::flush(&mut jsonl)?;
    let chrome_path = path.with_extension("chrome.json");
    let mut chrome = std::io::BufWriter::new(std::fs::File::create(&chrome_path)?);
    dlpt_core::obs::write_chrome_trace(events, &mut chrome)?;
    std::io::Write::flush(&mut chrome)?;
    Ok(chrome_path)
}

/// Optional health-snapshot output path parsed from `--health PATH`.
/// `None` when absent — the observatory stays off and the run is
/// byte-identical to an unobserved one.
pub fn health_path_from_args() -> Option<std::path::PathBuf> {
    arg_value("--health").map(std::path::PathBuf::from)
}

/// Writes the accumulated health JSONL time series (one
/// [`dlpt_core::HealthSnapshot`] line per unit per run, in sweep
/// order) plus a Prometheus-style text rendering of the final
/// snapshot at `path` with the extension replaced by `prom`. The
/// snapshots' timing section ([`dlpt_core::HealthTiming`]) goes to
/// `timing.jsonl` / `timing.prom` beside them: two seeded runs diff
/// clean on the first pair of files and may differ on the second.
/// Returns the prometheus path.
pub fn write_health_files(
    path: &std::path::Path,
    jsonl: &str,
    timing_jsonl: &str,
    last: Option<&dlpt_core::HealthSnapshot>,
) -> std::io::Result<std::path::PathBuf> {
    std::fs::write(path, jsonl)?;
    std::fs::write(path.with_extension("timing.jsonl"), timing_jsonl)?;
    let prom_path = path.with_extension("prom");
    let (mut prom, mut timing_prom) = (String::new(), String::new());
    if let Some(snap) = last {
        snap.write_prometheus(&mut prom);
        snap.write_timing_prometheus(&mut timing_prom);
    }
    std::fs::write(&prom_path, prom)?;
    std::fs::write(path.with_extension("timing.prom"), timing_prom)?;
    Ok(prom_path)
}

/// Optional crash rate parsed from `--crash-rate X` (fraction of peers
/// crashing non-gracefully per unit). `None` when absent, so figures
/// keep their paper-faithful crash-free churn by default.
pub fn crash_rate_from_args() -> Option<f64> {
    parsed_arg("--crash-rate")
}

/// Applies an optional `--crash-rate` override to every curve.
pub fn apply_crash_rate(
    mut configs: Vec<ExperimentConfig>,
    rate: Option<f64>,
) -> Vec<ExperimentConfig> {
    if let Some(rate) = rate {
        for c in &mut configs {
            c.churn = c.churn.with_crash_rate(rate);
        }
    }
    configs
}

/// Applies a scale factor to every curve of a figure.
pub fn apply_scale(configs: Vec<ExperimentConfig>, scale: usize) -> Vec<ExperimentConfig> {
    if scale <= 1 {
        return configs;
    }
    configs.into_iter().map(|c| c.scaled_down(scale)).collect()
}

/// Runs every curve of a satisfaction figure, writes
/// `results/<name>.csv` and prints the chart. Returns the series for
/// further assertions.
pub fn run_satisfaction_figure(
    name: &str,
    configs: Vec<ExperimentConfig>,
    title: &str,
) -> Vec<AveragedSeries> {
    let mut series = Vec::with_capacity(configs.len());
    for cfg in &configs {
        eprintln!(
            "[{name}] running {} ({} runs x {} units, {} peers)…",
            cfg.name, cfg.runs, cfg.time_units, cfg.peers
        );
        series.push(run_experiment(cfg));
    }
    let time = series[0].time.clone();
    let labels: Vec<&str> = configs.iter().map(|c| c.lb.label()).collect();
    let cols: Vec<(&str, &[f64])> = labels
        .iter()
        .zip(&series)
        .map(|(l, s)| (*l, s.satisfaction.as_slice()))
        .collect();
    let path = results_dir().join(format!("{name}.csv"));
    write_csv(&path, &time, &cols).expect("write results CSV");
    println!("{}", ascii_chart(title, &cols, Some(100.0), 18, 80));
    for (l, s) in labels.iter().zip(&series) {
        println!(
            "  {l:>5}: steady-state satisfaction {:.1}% ({} runs)",
            s.steady_satisfaction(),
            s.runs
        );
    }
    println!("  CSV: {}", path.display());
    series
}
