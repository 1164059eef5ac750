//! `sim_paper` and `sim_extensions` — whole `dlpt_sim::run::run_once`
//! runs at paper scale; one operation is one seeded run.

use crate::harness::{Rec, Workload, PPM};
use crate::plan::{self, Stream};
use dlpt_sim::config::ExperimentConfig;
use dlpt_sim::experiments::{
    fig4_configs, fig5_configs, fig7_configs, fig9_config, figa_config, figa_variants, figc_config,
    figc_workloads, figr_config, figr_variants,
};
use dlpt_sim::run::{run_once, UnitMetrics};
use rand::Rng;
use std::time::Instant;

/// One experiment of a sim workload, plus which invariants its runs
/// must keep.
#[derive(Clone)]
pub struct SimConfig {
    /// Suffix of its `sim.run_ms.<tag>` per-layer row.
    pub tag: &'static str,
    /// The experiment, `base_seed` already derived from `--seed`.
    pub cfg: ExperimentConfig,
}

impl SimConfig {
    fn lossless(&self) -> bool {
        self.cfg.loss_rate == 0.0 && self.cfg.partition.is_none()
    }
    fn crash_free(&self) -> bool {
        self.cfg.churn.crash_rate == 0.0
    }
}

fn pick(configs: Vec<ExperimentConfig>, lb: &str) -> ExperimentConfig {
    configs
        .into_iter()
        .find(|c| c.lb.label() == lb)
        .expect("every satisfaction figure has the three LB curves")
}

fn seeded(tag: &'static str, mut cfg: ExperimentConfig, seed: u64) -> SimConfig {
    cfg.base_seed = plan::rng_for(seed, Stream::Overlay, cfg.base_seed).gen();
    SimConfig { tag, cfg }
}

/// `sim_paper`: Section 4 as published — fig4 NoLB, fig5 MLT, fig7 KC,
/// fig9 (MLT + mapping replay).
pub fn paper_configs(seed: u64) -> Vec<SimConfig> {
    vec![
        seeded("fig4_nolb", pick(fig4_configs(), "NoLB"), seed),
        seeded("fig5_mlt", pick(fig5_configs(), "MLT"), seed),
        seeded("fig7_kc", pick(fig7_configs(), "KC"), seed),
        seeded("fig9", fig9_config(), seed),
    ]
}

/// `sim_extensions`: replication + crashes (figR), lossy transport +
/// partition (figA), route cache + depth histogram (figC).
pub fn extension_configs(seed: u64) -> Vec<SimConfig> {
    let k2 = |label: &str| label == "k2";
    let figr = figr_variants()
        .into_iter()
        .find(|v| k2(v.label))
        .expect("figR has a k2 curve");
    let figa = figa_variants()
        .into_iter()
        .find(|v| k2(v.label))
        .expect("figA has a k2 curve");
    let zipf = figc_workloads()
        .into_iter()
        .find(|w| w.label == "zipf1.2")
        .expect("figC has a zipf1.2 column");
    vec![
        seeded("figr_k2", figr_config(0.02, figr), seed),
        seeded("figa_k2", figa_config(0.10, figa), seed),
        seeded("figc_zipf", figc_config(&zipf, 512), seed),
    ]
}

/// Checks one run's units against the invariants its config promises
/// and folds them into `rec`. Returns whether the run passed.
pub fn check_run(rec: &mut Rec, sc: &SimConfig, units: &[UnitMetrics]) -> bool {
    let (lossless, crash_free) = (sc.lossless(), sc.crash_free());
    let mut ok = units.len() == sc.cfg.time_units as usize;
    let (mut issued, mut satisfied) = (0u64, 0u64);
    for (t, u) in units.iter().enumerate() {
        ok &= u.satisfied + u.dropped + u.not_found == u.issued;
        if lossless {
            ok &= u.requests_failed == 0;
        }
        if crash_free {
            ok &= u.keys_alive == u.keys_inserted;
            if lossless {
                ok &= u.not_found == 0;
            }
        }
        rec.counts.work += u.work;
        // Steady state only: the tree is still growing before that.
        if t as u32 >= sc.cfg.growth_units {
            issued += u.issued;
            satisfied += u.satisfied;
        }
        for v in [
            u.issued,
            u.satisfied,
            u.dropped,
            u.work,
            u.nodes as u64,
            u.peers as u64,
        ] {
            rec.digest(v);
        }
    }
    // One sample per run, as the paper's figures average runs.
    rec.counts.issued += 1;
    rec.counts.satisfied_ppm += PPM * satisfied / issued.max(1);
    rec.counts.failed += !ok as u64;
    ok
}

/// A sim workload: segment `idx` runs every config once, with run index
/// `idx`.
pub struct Sim {
    configs: Vec<SimConfig>,
}

impl Sim {
    /// A workload over `configs`, run in that order.
    pub fn new(configs: Vec<SimConfig>) -> Self {
        Sim { configs }
    }
}

impl Workload for Sim {
    fn segment(&mut self, idx: u64, rec: &mut Rec) {
        for (kind, sc) in self.configs.iter().enumerate() {
            rec.kind(kind);
            let t = Instant::now();
            let result = run_once(&sc.cfg, idx as usize);
            rec.span(t.elapsed().as_nanos() as u64, 1);
            check_run(rec, sc, &result.units);
        }
    }
}
