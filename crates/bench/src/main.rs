#![forbid(unsafe_code)]
//! # dlpt-bench — the reproduction binary
//!
//! `cargo run --release -p dlpt-bench -- <name>… [--scale N] [that entry's flags]`
//!
//! One table ([`ENTRIES`]) names every experiment: the paper's
//! Section 4 (Figures 4–9, Tables 1–2), the extension sweeps (figR,
//! figC, figA), the ablations and two probes. Each entry runs at paper
//! scale by default, writes its series as CSV under `results/`
//! (`DLPT_RESULTS_DIR` overrides) and prints an ASCII rendering;
//! `all` runs the eight paper entries, `list` prints the table. Timing
//! lives in the repo benchmark (`benchmark/`), not here.

mod paper;
mod probes;
mod sweeps;

use dlpt_sim::config::ExperimentConfig;
use dlpt_sim::report::results_dir;
use std::path::PathBuf;

/// One row of the table: everything the command line knows about an
/// experiment.
pub struct Entry {
    name: &'static str,
    about: &'static str,
    /// The flags it reads, each with its value placeholder as the
    /// usage line prints it; anything else is a usage error.
    flags: &'static [&'static str],
    /// Time units kept under `--scale` (see [`Entry::shrink`]).
    horizon: Option<u32>,
    run: fn(&Entry, &Opts),
}

const SCALE: &[&str] = &["--scale N"];

/// The paper's eight come first: `all` runs exactly `ENTRIES[..PAPER]`.
const PAPER: usize = 8;

#[rustfmt::skip] // one row per entry, so the table reads as a table
static ENTRIES: [Entry; 16] = [
    Entry { name: "fig4", flags: SCALE, horizon: None, run: paper::fig4,
        about: "Figure 4: stable network (2%/unit churn), 10% load; % satisfied requests per unit over 50 units, MLT vs KC vs NoLB, 30 runs" },
    Entry { name: "fig5", flags: SCALE, horizon: None, run: paper::fig5,
        about: "Figure 5: stable network, 80% load (overload)" },
    Entry { name: "fig6", flags: SCALE, horizon: None, run: paper::fig6,
        about: "Figure 6: dynamic network (10% of peers replaced per unit), 10% load" },
    Entry { name: "fig7", flags: SCALE, horizon: None, run: paper::fig7,
        about: "Figure 7: dynamic network, 80% load" },
    Entry { name: "fig8", flags: SCALE, horizon: Some(160), run: paper::fig8,
        about: "Figure 8: dynamic network, 16% load, hot spots (S3L burst @40, ScaLAPACK P* burst @80, uniform again @120); 160 units, 50 runs" },
    Entry { name: "fig9", flags: SCALE, horizon: Some(160), run: paper::fig9,
        about: "Figure 9: hops per satisfied request on the Figure 8 timeline under MLT; logical vs physical under the random (DHT) and the lexicographic mapping, 100 runs" },
    Entry { name: "table1", flags: SCALE, horizon: Some(30), run: paper::table1,
        about: "Table 1: steady-state gain of MLT and KC over NoLB at 5/10/16/24/40/80% load, stable and dynamic network, with the absolute satisfaction behind each gain" },
    Entry { name: "table2", flags: SCALE, horizon: None, run: paper::table2,
        about: "Table 2: measured routing hops and state per peer, P-Grid vs PHT vs DLPT on one corpus (100 peers, 1000 keys, 2000 lookups)" },
    Entry { name: "figR", flags: SCALE, horizon: Some(50), run: sweeps::figr,
        about: "extension, replication: satisfaction and key survival vs crash rate at k = 1, 2, 3 and k = 2 without anti-entropy" },
    Entry { name: "figC", flags: &["--scale N", "--health PATH"], horizon: Some(50), run: sweeps::figc,
        about: "extension, caching: mean hops and satisfaction vs per-peer cache capacity x request skew; --health records a snapshot per unit" },
    Entry { name: "figA", flags: &["--scale N", "--trace PATH", "--health PATH"], horizon: Some(50), run: sweeps::figa,
        about: "extension, faults: satisfaction, hops and key survival vs message-loss rate under 5% duplication and a healed partition; --trace dumps a small seeded traced run" },
    Entry { name: "ablation", flags: SCALE, horizon: Some(30), run: sweeps::ablation,
        about: "knobs the paper fixes: MLT trigger fraction, KC candidate count k, capacity ratio, request-popularity skew" },
    Entry { name: "footprint", flags: SCALE, horizon: None, run: probes::footprint,
        about: "memory accounting: bytes per node and per peer at 100/1k/10k peers, audit-clean asserted" },
    Entry { name: "pump_fingerprint", flags: &["--seed N", "--workers N", "--requests N"], horizon: None, run: probes::pump_fingerprint,
        about: "parallel-pump determinism probe: stdout must not depend on --workers; cross-checked against the sequential pump" },
    Entry { name: "all", flags: SCALE, horizon: None, run: all,
        about: "fig4 fig5 fig6 fig7 fig8 fig9 table1 table2, in that order" },
    Entry { name: "list", flags: &[], horizon: None, run: list,
        about: "this table" },
];

impl Entry {
    /// The `--scale N` rule, stated once. `N > 1` always shrinks the
    /// platform — peers, corpus and runs divide by `N`, with the
    /// floors of [`ExperimentConfig::scaled_down`] — and the time axis
    /// with it *unless* something is positioned on that axis, in which
    /// case the entry's `horizon` pins it:
    ///
    /// * fig4–fig7: nothing is; a flat steady state just gets shorter
    ///   (÷ `N`, floor 10 units);
    /// * fig8 and fig9 keep 160: the hot-spot phases start at units
    ///   40, 80 and 120;
    /// * figR, figC and figA keep 50: cumulative crash fractions are
    ///   rate × units, hit rates depend on how long the caches warm,
    ///   and figA's partition is units 25–34;
    /// * table1 and ablation keep 30: a steady-state gain needs units
    ///   past the 10-unit growth phase, and 30 are enough for a smoke.
    ///
    /// table2 and footprint run no [`ExperimentConfig`] and divide
    /// their own sizes; pump_fingerprint does not read `--scale`.
    /// `N = 1` is the paper's configuration untouched (not
    /// `scaled_down(1)`, which would swap the grid corpus for a sample).
    fn shrink(&self, cfg: ExperimentConfig, scale: usize) -> ExperimentConfig {
        if scale <= 1 {
            return cfg;
        }
        let mut cfg = cfg.scaled_down(scale);
        if let Some(units) = self.horizon {
            cfg.time_units = units;
        }
        cfg
    }

    /// Progress line on stderr before an experiment's runs start.
    fn announce(&self, cfg: &ExperimentConfig) {
        eprintln!(
            "[{}] running {} ({} runs x {} units, {} peers)…",
            self.name, cfg.name, cfg.runs, cfg.time_units, cfg.peers
        );
    }

    /// The flags it reads, without their placeholders.
    fn flag_names(&self) -> impl Iterator<Item = &'static str> {
        self.flags.iter().map(|f| f.split(' ').next().unwrap_or(f))
    }

    /// The name and the flags it reads, as usage lines and `list` spell them.
    fn synopsis(&self) -> String {
        let flags: String = self.flags.iter().map(|f| format!(" [{f}]")).collect();
        format!("{}{flags}", self.name)
    }
}

/// The parsed command line: every flag any entry reads, at its default
/// when absent.
pub struct Opts {
    /// `--scale N`, default 1 = paper scale.
    scale: usize,
    /// `--trace PATH` (figA). Absent, tracing stays off and the run is
    /// byte-identical to an untraced one.
    trace: Option<PathBuf>,
    /// `--health PATH` (figC, figA). Absent, no snapshot is collected.
    health: Option<PathBuf>,
    /// `--seed`, `--workers`, `--requests` (pump_fingerprint).
    seed: u64,
    workers: usize,
    requests: usize,
}

impl Opts {
    fn new() -> Self {
        Opts {
            scale: 1,
            trace: None,
            health: None,
            seed: 42,
            workers: 4,
            requests: 2_000,
        }
    }

    /// Stores `value` for `flag`; `None` when it does not parse —
    /// never a silent fall-back to the default.
    fn set(&mut self, flag: &str, value: &str) -> Option<()> {
        match flag {
            "--scale" => self.scale = value.parse::<usize>().ok()?.max(1),
            "--trace" => self.trace = Some(value.into()),
            "--health" => self.health = Some(value.into()),
            "--seed" => self.seed = value.parse().ok()?,
            "--workers" => self.workers = value.parse().ok()?,
            "--requests" => self.requests = value.parse().ok()?,
            _ => unreachable!("{flag} is in the table but not parsed"),
        }
        Some(())
    }
}

/// Writes `body` as `<results dir>/<file>` and says so on stdout.
fn write_results(file: &str, body: &str) {
    let path = results_dir().join(file);
    std::fs::write(&path, body).expect("write results CSV");
    println!("  CSV: {}", path.display());
}

/// Nothing starts a paper-scale sweep by accident: every problem with
/// the command line prints the usage line and exits 2.
fn usage_exit(entry: Option<&Entry>, arg: &str, problem: &str) -> ! {
    eprintln!("dlpt-bench: {arg}: {problem}");
    match entry {
        Some(e) => eprintln!("usage: dlpt-bench {}", e.synopsis()),
        None => eprintln!(
            "usage: dlpt-bench <name>… [--scale N] [that entry's flags]  \
             (`dlpt-bench list` prints the entries)"
        ),
    }
    std::process::exit(2);
}

fn all(_: &Entry, opts: &Opts) {
    println!(
        "== DLPT reproduction: all figures and tables (scale {}) ==\n",
        opts.scale
    );
    for e in &ENTRIES[..PAPER] {
        (e.run)(e, opts);
        println!();
    }
    println!("All CSVs in {}", results_dir().display());
}

fn list(_: &Entry, _: &Opts) {
    for e in &ENTRIES {
        println!("{}\n    {}", e.synopsis(), e.about);
    }
}

fn main() {
    let mut entries: Vec<&Entry> = Vec::new();
    let mut given = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg.starts_with("--") {
            given.push((arg, args.next()));
        } else {
            match ENTRIES.iter().find(|e| e.name == arg) {
                Some(e) => entries.push(e),
                None => usage_exit(None, &arg, "unknown entry"),
            }
        }
    }
    let Some(&first) = entries.first() else {
        usage_exit(None, "no entry named", "nothing to run");
    };
    // Every named entry must read every flag given, so one path or
    // seed is never silently shared with an entry that ignores it.
    let mut opts = Opts::new();
    for (flag, value) in &given {
        if let Some(e) = entries.iter().find(|e| e.flag_names().all(|f| f != flag)) {
            usage_exit(Some(e), flag, "unknown argument");
        }
        let Some(value) = value else {
            usage_exit(Some(first), flag, "needs a value");
        };
        if opts.set(flag, value).is_none() {
            usage_exit(Some(first), flag, "bad value");
        }
    }
    for e in entries {
        (e.run)(e, &opts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_flag_in_the_table_parses_and_names_are_unique() {
        for (i, e) in ENTRIES.iter().enumerate() {
            assert!(ENTRIES[..i].iter().all(|o| o.name != e.name), "{}", e.name);
            for name in e.flag_names() {
                assert!(Opts::new().set(name, "1").is_some(), "{name}");
            }
        }
    }
}
