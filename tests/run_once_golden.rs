//! Golden regression for the Section-4 harness itself: every
//! [`UnitMetrics`] field of three extension experiments, run through
//! `dlpt_sim::run::run_once`, is pinned to a committed text file. The
//! scripted golden in `determinism.rs` covers a hand-written
//! `DlptSystem` session; this one covers what the figure binaries and
//! the repo benchmark actually execute — replication under crashes
//! (figR k2), a lossy transport with a partition (figA k2) and the
//! route cache with the depth histogram (figC zipf1.2) — so a change to
//! the maintenance passes (`anti_entropy`, `repair_tree`, `depth_map`,
//! the replication flush) can prove it moved no message, counter or
//! RNG draw of a whole run.
//!
//! To re-bless after an *intentional* behaviour change:
//! `DLPT_BLESS=1 cargo test --test run_once_golden`.

use dlpt::sim::config::{ExperimentConfig, PartitionSpec};
use dlpt::sim::experiments::{
    figa_config, figa_variants, figc_config, figc_workloads, figr_config, figr_variants,
};
use dlpt::sim::run::run_once;
use std::fmt::Write;

/// Horizon of the golden runs: long enough to pass the growth phase,
/// see crashes, converged and unconverged anti-entropy passes and the
/// partition window; short enough for a debug-build test.
const UNITS: u32 = 12;

fn reduced(mut cfg: ExperimentConfig) -> ExperimentConfig {
    cfg.time_units = UNITS;
    cfg.growth_units = 4;
    cfg.base_seed = 42;
    // figA severs its key range over units 25–34 at paper scale; pull
    // the window inside the reduced horizon so it is exercised.
    if cfg.partition.is_some() {
        cfg.partition = Some(PartitionSpec {
            lo: "D".into(),
            hi: "K".into(),
            from: 6,
            until: 9,
        });
    }
    cfg
}

fn configs() -> Vec<ExperimentConfig> {
    let figr = figr_variants()
        .into_iter()
        .find(|v| v.label == "k2")
        .expect("figR has a k2 curve");
    let figa = figa_variants()
        .into_iter()
        .find(|v| v.label == "k2")
        .expect("figA has a k2 curve");
    let zipf = figc_workloads()
        .into_iter()
        .find(|w| w.label == "zipf1.2")
        .expect("figC has a zipf1.2 column");
    vec![
        reduced(figr_config(0.02, figr)),
        reduced(figa_config(0.10, figa)),
        reduced(figc_config(&zipf, 512)),
    ]
}

#[test]
fn run_once_matches_committed_golden() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/run_once_ext_seed42.txt"
    );
    let mut got = String::new();
    for cfg in configs() {
        let result = run_once(&cfg, 0);
        assert_eq!(result.units.len(), UNITS as usize);
        for (t, u) in result.units.iter().enumerate() {
            // `Debug` prints every field by name: a new field shows up
            // in the golden without touching this test.
            writeln!(got, "{} unit {t}: {u:?}", cfg.name).expect("write to string");
        }
    }
    if std::env::var_os("DLPT_BLESS").is_some() {
        std::fs::write(golden_path, &got).expect("write run_once golden");
        return;
    }
    let want = std::fs::read_to_string(golden_path).expect("run_once golden is committed");
    assert_eq!(
        got, want,
        "run_once diverged from the committed golden (DLPT_BLESS=1 re-blesses)"
    );
}
