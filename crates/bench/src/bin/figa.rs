//! Figure A (fault extension) — satisfaction, route length and data
//! survival vs. message-loss rate, at replication k ∈ {1, 2 + AE},
//! under 5% duplication and a healable partition over units 25–34.
//!
//! The paper's simulation assumes a perfect transport: no message is
//! ever lost, duplicated or delayed past quiescence. This figure runs
//! the same Section-4 loop behind the engine's seeded fault gate
//! (`dlpt_core::transport`) and measures what the request-retry
//! machinery and the replication extension buy back:
//! every request still terminates, and with k = 2 + anti-entropy the
//! registered keys stay ≥ 99% discoverable after the partition heals.
//!
//! `cargo run --release --bin figA [-- --scale N]`
//!
//! Emits `results/figA.csv` (one row per loss rate; satisfaction,
//! mean-hop, survival and fault-counter columns per curve) plus two
//! ASCII charts. With `--trace PATH` it additionally runs one small
//! seeded lossy system with the tracer on and dumps the event stream
//! as JSONL (plus a chrome://tracing span file next to it).

use dlpt_bench::{
    health_path_from_args, scale_from_args, trace_path_from_args, write_health_files,
    write_trace_files,
};
use dlpt_core::messages::QueryKind;
use dlpt_core::{Alphabet, DlptSystem, FaultPlan, Key};
use dlpt_sim::experiments::{figa_config, figa_variants, FIGA_LOSS_RATES};
use dlpt_sim::report::{ascii_chart, results_dir};
use dlpt_sim::runner::{average, health_jsonl, health_timing_jsonl, run_all};
use std::io::Write as _;

/// Per-curve, per-loss-rate fault counters persisted into the CSV so
/// the committed figure carries the fault story, not just its outcome.
#[derive(Default, Clone)]
struct FaultCols {
    lost: f64,
    duplicated: f64,
    dedup: f64,
    retries: f64,
    failed: f64,
}

/// A small scripted lossy run with the tracer on, for `--trace`: the
/// figure sweep itself stays untraced so its numbers are the committed
/// ones, while this companion run shows what the retry machinery does
/// under a figA-like 10% loss / 5% duplication plan.
fn traced_sample(path: &std::path::Path) {
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
        sys.insert_data(k).unwrap();
    }
    for _ in 0..4 {
        for k in ["DGEMM", "S3L_fft", "MISSING", "PSGESV"] {
            sys.lookup(&Key::from(k));
        }
        sys.request(QueryKind::Complete(Key::from("D"))).unwrap();
    }
    let events = sys.take_trace();
    let chrome = write_trace_files(path, &events).expect("write figA trace");
    println!(
        "  trace: {} events -> {} (+ {})",
        events.len(),
        path.display(),
        chrome.display()
    );
}

fn main() {
    let scale = scale_from_args();
    let trace_path = trace_path_from_args();
    let health_path = health_path_from_args();
    let mut health = String::new();
    let mut health_timing = String::new();
    let mut last_snapshot = None;
    let variants = figa_variants();
    // satisfaction[v][l], hops[v][l], survival[v][l], faults[v][l]
    let mut satisfaction = vec![Vec::new(); variants.len()];
    let mut hops = vec![Vec::new(); variants.len()];
    let mut survival = vec![Vec::new(); variants.len()];
    let mut faults: Vec<Vec<FaultCols>> = vec![Vec::new(); variants.len()];
    let mut lost = 0.0f64;
    let mut retries = 0.0f64;
    let mut failed = 0.0f64;
    let mut work = 0.0f64;
    for &rate in FIGA_LOSS_RATES.iter() {
        for (vi, v) in variants.iter().enumerate() {
            let mut cfg = figa_config(rate, *v);
            if scale > 1 {
                cfg = cfg.scaled_down(scale);
                // Keep the 50-unit horizon: the partition window
                // (units 25–34) and the healed tail it is judged by
                // are positions on that timeline.
                cfg.time_units = 50;
                cfg.growth_units = 10;
            }
            cfg.health_snapshots = health_path.is_some();
            eprintln!(
                "[figA] running {} ({} runs x {} units, {} peers)…",
                cfg.name, cfg.runs, cfg.time_units, cfg.peers
            );
            let results = run_all(&cfg);
            if health_path.is_some() {
                health.push_str(&health_jsonl(&results));
                health_timing.push_str(&health_timing_jsonl(&results));
                last_snapshot = results.last().and_then(|r| r.last_snapshot.clone());
            }
            let series = average(&cfg, &results);
            satisfaction[vi].push(series.steady_satisfaction());
            hops[vi].push(series.steady_mean_hops());
            survival[vi].push(series.final_survival());
            faults[vi].push(FaultCols {
                lost: series.steady_frames_lost,
                duplicated: series.steady_frames_duplicated,
                dedup: series.steady_dedup_suppressed,
                retries: series.steady_retries,
                failed: series.steady_requests_failed,
            });
            lost += series.steady_frames_lost;
            retries += series.steady_retries;
            failed += series.steady_requests_failed;
            work += series.steady_work;
        }
    }

    let path = results_dir().join("figA.csv");
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).expect("create figA.csv"));
    write!(f, "loss_rate").expect("write");
    for v in &variants {
        write!(f, ",sat_{}", v.label).expect("write");
    }
    for v in &variants {
        write!(f, ",hops_{}", v.label).expect("write");
    }
    for v in &variants {
        write!(f, ",surv_{}", v.label).expect("write");
    }
    for col in ["lost", "dup", "dedup", "retries", "failed"] {
        for v in &variants {
            write!(f, ",{col}_{}", v.label).expect("write");
        }
    }
    writeln!(f).expect("write");
    for (li, rate) in FIGA_LOSS_RATES.iter().enumerate() {
        write!(f, "{rate}").expect("write");
        for curve in &satisfaction {
            write!(f, ",{:.4}", curve[li]).expect("write");
        }
        for curve in &hops {
            write!(f, ",{:.4}", curve[li]).expect("write");
        }
        for curve in &survival {
            write!(f, ",{:.4}", curve[li]).expect("write");
        }
        for pick in [
            (|c: &FaultCols| c.lost) as fn(&FaultCols) -> f64,
            |c| c.duplicated,
            |c| c.dedup,
            |c| c.retries,
            |c| c.failed,
        ] {
            for curve in &faults {
                write!(f, ",{:.1}", pick(&curve[li])).expect("write");
            }
        }
        writeln!(f).expect("write");
    }
    f.flush().expect("flush figA.csv");

    let sat_cols: Vec<(&str, &[f64])> = variants
        .iter()
        .zip(&satisfaction)
        .map(|(v, s)| (v.label, s.as_slice()))
        .collect();
    println!(
        "{}",
        ascii_chart(
            "Figure A: % satisfied requests vs. message-loss rate (x = sweep point)",
            &sat_cols,
            Some(100.0),
            14,
            48,
        )
    );
    let surv_cols: Vec<(&str, &[f64])> = variants
        .iter()
        .zip(&survival)
        .map(|(v, s)| (v.label, s.as_slice()))
        .collect();
    println!(
        "{}",
        ascii_chart(
            "Figure A: % registered keys surviving the lossy horizon",
            &surv_cols,
            Some(100.0),
            14,
            48,
        )
    );
    for (vi, v) in variants.iter().enumerate() {
        println!(
            "  {:>3}: survival {:>5.1}%..{:>5.1}%  satisfaction {:>5.1}%..{:>5.1}%  hops {:>4.1}..{:>4.1} (low..high loss)",
            v.label,
            survival[vi].first().unwrap_or(&100.0),
            survival[vi].last().unwrap_or(&100.0),
            satisfaction[vi].first().unwrap_or(&0.0),
            satisfaction[vi].last().unwrap_or(&0.0),
            hops[vi].first().unwrap_or(&0.0),
            hops[vi].last().unwrap_or(&0.0),
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
    println!("  loss rates: {FIGA_LOSS_RATES:?}");
    println!("  CSV: {}", path.display());
    if let Some(hp) = &health_path {
        let prom = write_health_files(hp, &health, &health_timing, last_snapshot.as_ref())
            .expect("write figA health");
        println!(
            "  health: {} snapshots -> {} (+ {})",
            health.lines().count(),
            hp.display(),
            prom.display()
        );
    }
    if let Some(tp) = trace_path {
        traced_sample(&tp);
    }
}
