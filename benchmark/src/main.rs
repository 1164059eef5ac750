//! `dlpt-benchmark` — the repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! dlpt-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
//!                [--record PATH] [--commit HASH]
//! dlpt-benchmark [--seed N] [--seconds S] [--traced] [--repeat N] [--quick]
//!                [--out PATH] [--commit HASH]
//! ```
//!
//! With `--workload` it measures that workload in this process and
//! prints the result object as the last line of stdout (`--trace 0`:
//! the end-to-end metrics; `--trace 1`: the per-layer ledger). Without
//! it, it runs every workload in a process of its own (`--repeat` times
//! each), prints each table and, with `--out`, writes the set
//! `compare.py` reads.

mod batch;
mod gather;
mod harness;
mod hist;
mod layers;
mod plan;
mod replica;
mod service;
mod sim;
mod spans;
mod sysinfo;

#[cfg(test)]
mod contract_tests;

use harness::{end_to_end, measure, Ops, Pace, RunOutcome};
use layers::WORKLOADS;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

/// How one workload is sized and summarised.
struct Spec {
    /// Operations per segment at full scale.
    segment_ops: usize,
    /// Segments driven on one overlay before it is rebuilt. The service
    /// overlays' layout (which peer hosts which node) moves throughput
    /// by several percent from one seed to the next, so they are
    /// rebuilt for every segment; a sim run builds its own overlay, so
    /// only the warm-up pass is repeated, and less often.
    segments_per_setup: u64,
    /// Segments every run measures at least, and whose exact counts
    /// make `msgs_per_op` and `satisfied_pct`. A sim run's satisfaction
    /// varies by 6–30 % of its mean from one seed to the next, so the
    /// sims count twice as many.
    counted_segments: u64,
    /// How spans are cut into the chunks `ops_per_s` is taken over:
    /// about half a millisecond of short operations, or one long one.
    ops: Ops,
}

fn spec(workload: &str) -> Option<Spec> {
    let short = |chunk| Ops::Short { chunk };
    let (segment_ops, segments_per_setup, counted_segments, ops) = match workload {
        "lookup_uniform" => (100_000, 1, 10, short(250)),
        "lookup_zipf_cached" => (200_000, 1, 10, short(500)),
        "register_churn" => (20_000, 1, 10, short(25)),
        "gather_latnet" => (10_000, 1, 10, short(20)),
        // 16 batches of 4 096 queries; the sample is the batch call.
        "batch_exact" => (16 * batch::BATCH, 1, 10, Ops::Long),
        // One run of each config; the sample is the run.
        "sim_paper" => (4, 5, 20, Ops::Long),
        "sim_extensions" => (3, 5, 20, Ops::Long),
        _ => return None,
    };
    Some(Spec {
        segment_ops,
        segments_per_setup,
        counted_segments,
        ops,
    })
}

/// The end-to-end metrics, in report order: `(name, unit)`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("msgs_per_op", "msg/op"),
    ("satisfied_pct", "%"),
    ("peak_rss_mb", "MB"),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    traced_set: bool,
    repeat: usize,
    record: Option<String>,
    out: Option<String>,
    commit: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: dlpt-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--traced] [--repeat N] [--quick] [--record PATH] [--out PATH] [--commit HASH]\n\
         workloads: {}",
        WORKLOADS.join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        traced_set: false,
        repeat: 1,
        record: None,
        out: None,
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = Some(value()),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = Some(value().parse().unwrap_or_else(|_| usage())),
            "--trace" => {
                a.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--traced" => a.traced_set = true,
            "--repeat" => a.repeat = value().parse().unwrap_or_else(|_| usage()),
            "--quick" => a.quick = true,
            "--record" => a.record = Some(value()),
            "--out" => a.out = Some(value()),
            "--commit" => a.commit = value(),
            _ => usage(),
        }
    }
    if a.seconds.is_some_and(|s| !(0.0..=3600.0).contains(&s)) || a.repeat == 0 {
        usage();
    }
    a
}

/// Builds the named workload and measures it.
fn run_workload(
    name: &str,
    seed: u64,
    segment_ops: usize,
    pace: Pace,
) -> Result<RunOutcome, String> {
    use service::{Kind, Service};
    let service = |kind| measure(|o| Service::new(kind, seed, o, segment_ops), pace);
    match name {
        "lookup_uniform" => service(Kind::LookupUniform),
        "lookup_zipf_cached" => service(Kind::LookupZipfCached),
        "register_churn" => service(Kind::RegisterChurn),
        "gather_latnet" => measure(|o| gather::Gather::new(seed, o, segment_ops), pace),
        "batch_exact" => {
            let batches = (segment_ops / batch::BATCH).max(1);
            measure(|o| batch::Batch::new(seed, o, batches), pace)
        }
        // A sim run builds its own overlay from its run index; the
        // overlay index only restarts the warm-up pass.
        "sim_paper" => measure(|_| sim::Sim::new(sim::paper_configs(seed)), pace),
        "sim_extensions" => measure(|_| sim::Sim::new(sim::extension_configs(seed)), pace),
        other => Err(format!("unknown workload {other}")),
    }
}

/// One finished run: the result object's fields plus what goes only
/// into the `--record` file.
struct Report {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in report order.
    metrics: Vec<(String, f64, &'static str)>,
    /// Extra `"key": value, ` pairs for the record.
    record_extra: String,
}

/// `--trace 0`: the end-to-end metrics of one workload.
fn end_to_end_report(
    args: &Args,
    workload: &str,
    spec: &Spec,
    seconds: f64,
) -> Result<Report, String> {
    let (segment_ops, min_segments) = if args.quick {
        let floor = if workload == "batch_exact" {
            batch::BATCH
        } else {
            1
        };
        ((spec.segment_ops / 20).max(floor).min(spec.segment_ops), 2)
    } else {
        (spec.segment_ops, spec.counted_segments)
    };
    let pace = Pace {
        seconds,
        min_segments,
        segments_per_setup: spec.segments_per_setup,
        ops: spec.ops,
    };
    let run = run_workload(workload, args.seed, segment_ops, pace)?;
    let e2e = end_to_end(&run, spec.ops, spec.counted_segments);
    let rss = run
        .peak_rss_mb
        .ok_or("cannot read VmHWM from /proc/self/status")?;
    let values = [
        e2e.setup_s,
        e2e.ops_per_s,
        e2e.op_p50_us,
        e2e.op_tail_us,
        e2e.msgs_per_op,
        e2e.satisfied_pct,
        rss,
    ];
    eprintln!(
        "{workload}: seed {}, {} segments x {segment_ops} ops on {} overlays, tail = {}",
        args.seed,
        run.segments.len(),
        run.setups,
        spec.ops.tail_label()
    );
    for ((name, unit), value) in END_TO_END.iter().zip(values) {
        eprintln!("  {name:<16} {value:>16.4} {unit}");
    }
    eprintln!(
        "  {:<16} {:>16.6} ratio ({} of {})",
        "failed_share",
        run.failed as f64 / run.attempted.max(1) as f64,
        run.failed,
        run.attempted
    );
    Ok(Report {
        attempted: run.attempted,
        failed: run.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), v)| (name.to_string(), v, *unit))
            .collect(),
        record_extra: format!(
            "\"segment_ops\": {segment_ops}, \"segments\": {}, \"setups\": {}, \"tail\": \"{}\", ",
            run.segments.len(),
            run.setups,
            spec.ops.tail_label()
        ),
    })
}

/// `--trace 1`: the per-layer ledger, focused on one workload.
fn ledger_report(args: &Args, workload: &str, seconds: f64) -> Result<Report, String> {
    let ledger = layers::run(args.seed, seconds, workload);
    let (attempted, failed) = (ledger.attempted.max(1), ledger.failed);
    let exact: Vec<String> = ledger.exact.iter().map(|n| format!("\"{n}\"")).collect();
    let mut rows = ledger.finish();
    eprintln!("per-layer ledger (focus: {workload}, seed {})", args.seed);
    let mut metrics = Vec::with_capacity(layers::ROWS.len());
    for (name, unit, _) in layers::ROWS {
        let value = rows
            .remove(*name)
            .ok_or(format!("the traced run produced no {name}"))?;
        eprintln!("  {name:<44} {value:>16.3} {unit}");
        metrics.push((name.to_string(), value, *unit));
    }
    if let Some(extra) = rows.keys().next() {
        return Err(format!("{extra} is not in the per-layer table"));
    }
    Ok(Report {
        attempted,
        failed,
        metrics,
        record_extra: format!("\"exact\": [{}], ", exact.join(", ")),
    })
}

fn single(args: &Args, workload: &str) -> ExitCode {
    let Some(spec) = spec(workload) else {
        eprintln!("unknown workload {workload}");
        usage();
    };
    let seconds = args.seconds.unwrap_or(if args.quick { 0.5 } else { 15.0 });
    let (nproc, workers) = (sysinfo::nproc(), batch::workers());
    eprintln!("nproc {nproc}, workers {workers}, commit {}", args.commit);
    let report = if args.trace {
        ledger_report(args, workload, seconds)
    } else {
        end_to_end_report(args, workload, &spec, seconds)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("harness error: {e}");
            return ExitCode::from(1);
        }
    };

    // Values are printed with every digit the `f64` carries.
    let mut metrics = String::new();
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    let result = format!(
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed
    );
    if let Some(path) = &args.record {
        // The record is the result object plus what a comparison must
        // know about how it was taken.
        let record = format!(
            "{{\"workload\": \"{workload}\", \"trace\": {}, \"seed\": {}, \"seconds\": {seconds:?}, \
             \"smoke\": {}, \"nproc\": {nproc}, \"workers\": {workers}, \"commit\": \"{}\", {}{result}",
            args.trace as u8, args.seed, args.quick, args.commit, report.record_extra
        );
        if let Err(e) = std::fs::write(path, record) {
            eprintln!("harness error: cannot write {path}: {e}");
            return ExitCode::from(1);
        }
    }
    println!("{{{result}");
    ExitCode::SUCCESS
}

/// Runs every workload in its own process and collects the records.
fn all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    // Records pass through files beside the executable: inside the
    // build directory, never outside the checkout.
    let dir = exe.parent().expect("an executable lives in a directory");
    let mut records = Vec::new();
    let traces: &[bool] = if args.traced_set {
        &[false, true]
    } else {
        &[false]
    };
    for _ in 0..args.repeat {
        for (trace, workload) in traces.iter().flat_map(|t| WORKLOADS.map(|w| (*t, w))) {
            let path = dir.join(format!("record-{}-{workload}.json", std::process::id()));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .args(["--commit", &args.commit])
                .arg("--record")
                .arg(&path)
                .stdout(std::process::Stdio::null());
            if let Some(s) = args.seconds {
                cmd.args(["--seconds", &format!("{s:?}")]);
            }
            if args.quick {
                cmd.arg("--quick");
            }
            let status = cmd.status().expect("spawn a copy of this benchmark");
            let record = std::fs::read_to_string(&path);
            let _ = std::fs::remove_file(&path);
            match (status.success(), record) {
                (true, Ok(r)) => records.push(r),
                _ => {
                    eprintln!(
                        "{workload} (trace {}) did not finish: {status}",
                        trace as u8
                    );
                    return ExitCode::from(1);
                }
            }
        }
    }
    if let Some(out) = &args.out {
        let set = format!(
            "{{\"schema\": 1, \"runs\": [\n  {}\n]}}\n",
            records.join(",\n  ")
        );
        if let Err(e) = std::fs::write(out, set) {
            eprintln!("harness error: cannot write {out}: {e}");
            return ExitCode::from(1);
        }
        eprintln!("set written to {out}");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = parse_args();
    match &args.workload {
        Some(w) => single(&args, w),
        None => all(&args),
    }
}
