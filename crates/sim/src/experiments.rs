//! One constructor per figure/table of the paper's evaluation.
//!
//! Figures 4–8 are built from [`ExperimentConfig`]s (three curves:
//! MLT, KC, No LB); Figure 9 replays routes under both mappings inside
//! a single MLT experiment; Table 1 aggregates steady-state gains over
//! a load sweep; Table 2 measures the implemented PHT and P-Grid
//! comparators against the DLPT on an identical corpus.

use crate::config::{ExperimentConfig, LbKind, PartitionSpec, PopKind};
use crate::runner::{gain_pct, run_experiment, AveragedSeries};
use dlpt_baselines::pgrid::PGrid;
use dlpt_baselines::pht::{PhtConfig, PrefixHashTree};
use dlpt_core::key::Key;
use dlpt_core::messages::QueryKind;
use dlpt_core::system::DlptSystem;
use dlpt_workloads::churn::ChurnModel;
use dlpt_workloads::corpus::Corpus;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three load-balancing curves every satisfaction figure compares.
pub fn lb_variants() -> Vec<LbKind> {
    vec![
        LbKind::Mlt { fraction: 1.0 },
        LbKind::Kc { k: 4 },
        LbKind::None,
    ]
}

/// Base config for the satisfaction figures (4–7): 100 peers, grid
/// corpus (~1000 nodes), 50 units with the tree growing over the
/// first 10, 30 runs.
fn satisfaction_config(name: &str, lb: LbKind, load: f64, churn: ChurnModel) -> ExperimentConfig {
    ExperimentConfig {
        name: format!("{name}-{}", lb.label()),
        load,
        churn,
        lb,
        ..ExperimentConfig::default()
    }
}

/// Figure 4: stable network, low load.
pub fn fig4_configs() -> Vec<ExperimentConfig> {
    lb_variants()
        .into_iter()
        .map(|lb| satisfaction_config("fig4", lb, 0.10, ChurnModel::stable()))
        .collect()
}

/// Figure 5: stable network, high load ("overload": a very high
/// number of requests to stress the system).
pub fn fig5_configs() -> Vec<ExperimentConfig> {
    lb_variants()
        .into_iter()
        .map(|lb| satisfaction_config("fig5", lb, 0.80, ChurnModel::stable()))
        .collect()
}

/// Figure 6: dynamic network (10% of peers replaced per unit), low
/// load.
pub fn fig6_configs() -> Vec<ExperimentConfig> {
    lb_variants()
        .into_iter()
        .map(|lb| satisfaction_config("fig6", lb, 0.10, ChurnModel::dynamic()))
        .collect()
}

/// Figure 7: dynamic network, high load.
pub fn fig7_configs() -> Vec<ExperimentConfig> {
    lb_variants()
        .into_iter()
        .map(|lb| satisfaction_config("fig7", lb, 0.80, ChurnModel::dynamic()))
        .collect()
}

/// Figure 8: dynamic network with hot spots — 160 units, 50 runs;
/// uniform traffic, then an "S3L" burst at unit 40, a ScaLAPACK "P"
/// burst at 80, uniform again from 120.
pub fn fig8_configs() -> Vec<ExperimentConfig> {
    lb_variants()
        .into_iter()
        .map(|lb| {
            let mut cfg = satisfaction_config("fig8", lb, 0.16, ChurnModel::dynamic());
            cfg.time_units = 160;
            cfg.runs = 50;
            cfg.popularity = PopKind::Figure8 { hot_fraction: 0.85 };
            cfg
        })
        .collect()
}

/// Figure 9: communication gain of the lexicographic mapping — one
/// MLT experiment over the Figure 8 timeline, 100 runs, replaying
/// every satisfied route under the hash (random) mapping as well.
pub fn fig9_config() -> ExperimentConfig {
    let mut cfg = satisfaction_config(
        "fig9",
        LbKind::Mlt { fraction: 1.0 },
        0.16,
        ChurnModel::dynamic(),
    );
    cfg.time_units = 160;
    cfg.runs = 100;
    cfg.popularity = PopKind::Figure8 { hot_fraction: 0.85 };
    cfg.track_mapping_hops = true;
    cfg
}

/// One replication curve of Figure R (replication extension): a
/// replication factor plus whether the self-healing anti-entropy pass
/// runs each unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FigRVariant {
    /// Curve label used in CSV headers and charts.
    pub label: &'static str,
    /// Replication factor `k`.
    pub replication: usize,
    /// Anti-entropy on/off.
    pub anti_entropy: bool,
}

/// The four curves Figure R compares: the paper's unreplicated system,
/// self-healing replication at k ∈ {2, 3}, and the k = 2 ablation with
/// the anti-entropy loop disabled (static redundancy decays as crashed
/// followers are never re-cloned).
pub fn figr_variants() -> Vec<FigRVariant> {
    vec![
        FigRVariant {
            label: "k1",
            replication: 1,
            anti_entropy: false,
        },
        FigRVariant {
            label: "k2",
            replication: 2,
            anti_entropy: true,
        },
        FigRVariant {
            label: "k3",
            replication: 3,
            anti_entropy: true,
        },
        FigRVariant {
            label: "k2-noAE",
            replication: 2,
            anti_entropy: false,
        },
    ]
}

/// The crash-rate sweep of Figure R (fraction of peers crashing per
/// unit). Over the 50-unit horizon these cumulate to roughly 10%, 30%,
/// 60% and 100% of the population crashing (joins keep the count
/// level).
pub const FIGR_CRASH_RATES: [f64; 4] = [0.002, 0.006, 0.012, 0.02];

/// One Figure R experiment: the low-load stable setup of Figure 4 plus
/// non-graceful crashes at `crash_rate`, run at the variant's
/// replication setting. Low load keeps capacity drops out of the way,
/// so the satisfaction and survival curves isolate crash damage.
pub fn figr_config(crash_rate: f64, v: FigRVariant) -> ExperimentConfig {
    ExperimentConfig {
        name: format!("figR-{}-r{crash_rate}", v.label),
        load: 0.10,
        churn: ChurnModel::stable().with_crash_rate(crash_rate),
        lb: LbKind::None,
        replication: v.replication,
        anti_entropy: v.anti_entropy,
        ..ExperimentConfig::default()
    }
}

/// One workload column of Figure C (caching extension): how requests
/// pick targets during the sweep.
#[derive(Debug, Clone)]
pub struct FigCWorkload {
    /// Label used in CSV rows and charts.
    pub label: &'static str,
    /// The popularity model.
    pub pop: PopKind,
}

/// The four figC workloads: the paper's uniform traffic (the
/// control — caching must not hurt it), two Zipf skews, and a
/// sustained hot-prefix phase (the Figure 8 burst shape, held for the
/// rest of the horizon).
pub fn figc_workloads() -> Vec<FigCWorkload> {
    vec![
        FigCWorkload {
            label: "uniform",
            pop: PopKind::Uniform,
        },
        FigCWorkload {
            label: "zipf0.8",
            pop: PopKind::Zipf(0.8),
        },
        FigCWorkload {
            label: "zipf1.2",
            pop: PopKind::Zipf(1.2),
        },
        FigCWorkload {
            label: "hotprefix",
            pop: PopKind::HotPrefix {
                prefix: "S3L".into(),
                fraction: 0.9,
                from: 20,
            },
        },
    ]
}

/// The per-peer cache capacities figC sweeps (0 = the uncached
/// baseline).
pub const FIGC_CACHE_SIZES: [usize; 3] = [0, 64, 512];

/// One figC experiment: the stable network under moderate-high load
/// (enough for the upper-tree hotspot to cost satisfaction), no load
/// balancing (so the cache's effect is isolated), the given popularity
/// model, and the given per-peer shortcut-cache capacity. The depth
/// histogram is always on — it is figC's flattening evidence.
pub fn figc_config(w: &FigCWorkload, cache: usize) -> ExperimentConfig {
    ExperimentConfig {
        name: format!("figC-{}-c{cache}", w.label),
        load: 0.40,
        churn: ChurnModel::stable(),
        lb: LbKind::None,
        popularity: w.pop.clone(),
        cache_capacity: cache,
        track_depth_hist: true,
        ..ExperimentConfig::default()
    }
}

/// One resilience curve of Figure A (fault extension): a replication
/// setting run under lossy transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FigAVariant {
    /// Curve label used in CSV headers and charts.
    pub label: &'static str,
    /// Replication factor `k`.
    pub replication: usize,
    /// Anti-entropy on/off.
    pub anti_entropy: bool,
}

/// The two curves Figure A compares: the paper's unreplicated system
/// and the self-healing k = 2 + anti-entropy configuration, both under
/// the same message-fault schedule.
pub fn figa_variants() -> Vec<FigAVariant> {
    vec![
        FigAVariant {
            label: "k1",
            replication: 1,
            anti_entropy: false,
        },
        FigAVariant {
            label: "k2",
            replication: 2,
            anti_entropy: true,
        },
    ]
}

/// The message-loss sweep of Figure A (probability that a discovery or
/// response message is dropped in transit). 0 is the fault-free
/// control.
pub const FIGA_LOSS_RATES: [f64; 4] = [0.0, 0.05, 0.10, 0.20];

/// One Figure A experiment: the low-load stable setup of Figure 4 plus
/// a light crash rate (so key survival has something to defend), 5%
/// message duplication, the given loss rate, and a partition severing
/// the `["D", "K")` key range over units 25–34 before healing. Low
/// load keeps capacity drops out of the way, so satisfaction isolates
/// transport damage and the retry machinery's recovery.
pub fn figa_config(loss_rate: f64, v: FigAVariant) -> ExperimentConfig {
    ExperimentConfig {
        name: format!("figA-{}-l{loss_rate}", v.label),
        load: 0.10,
        churn: ChurnModel::stable().with_crash_rate(0.006),
        lb: LbKind::None,
        replication: v.replication,
        anti_entropy: v.anti_entropy,
        loss_rate,
        dup_rate: 0.05,
        partition: Some(PartitionSpec {
            lo: "D".into(),
            hi: "K".into(),
            from: 25,
            until: 35,
        }),
        ..ExperimentConfig::default()
    }
}

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Load as a fraction of the aggregated capacity.
    pub load: f64,
    /// MLT gain over No-LB, stable network (percent).
    pub stable_mlt: f64,
    /// KC gain over No-LB, stable network.
    pub stable_kc: f64,
    /// MLT gain over No-LB, dynamic network.
    pub dynamic_mlt: f64,
    /// KC gain over No-LB, dynamic network.
    pub dynamic_kc: f64,
    /// The steady-state satisfaction (percent) behind the
    /// stable-network gains, in [`lb_variants`] order: MLT, KC, No-LB.
    /// Under load the No-LB denominator is single-digit, so a few
    /// points of absolute difference read as a triple-digit gain.
    pub stable_sat: [f64; 3],
    /// Likewise for the dynamic network.
    pub dynamic_sat: [f64; 3],
}

/// The paper's Table 1 load column.
pub const TABLE1_LOADS: [f64; 6] = [0.05, 0.10, 0.16, 0.24, 0.40, 0.80];

/// Computes one Table 1 row (six experiments: 3 strategies × 2
/// networks). `shrink` is applied to each experiment before it runs:
/// the identity for the paper's scale, a smaller platform for quick
/// passes (it must leave units past the growth phase — gains need a
/// steady state).
pub fn table1_row(load: f64, shrink: impl Fn(ExperimentConfig) -> ExperimentConfig) -> Table1Row {
    let network = |churn: ChurnModel| {
        let series: Vec<AveragedSeries> = lb_variants()
            .into_iter()
            .map(|lb| run_experiment(&shrink(satisfaction_config("table1", lb, load, churn))))
            .collect();
        // Order per lb_variants(): MLT, KC, None.
        let gains = [
            gain_pct(&series[0], &series[2]),
            gain_pct(&series[1], &series[2]),
        ];
        let sat = [0, 1, 2].map(|i| series[i].steady_satisfaction());
        (gains, sat)
    };
    let ([stable_mlt, stable_kc], stable_sat) = network(ChurnModel::stable());
    let ([dynamic_mlt, dynamic_kc], dynamic_sat) = network(ChurnModel::dynamic());
    Table1Row {
        load,
        stable_mlt,
        stable_kc,
        dynamic_mlt,
        dynamic_kc,
        stable_sat,
        dynamic_sat,
    }
}

/// One row of Table 2 — measured, with the paper's asymptotic claims
/// alongside.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// System name.
    pub system: &'static str,
    /// Mean overlay routing hops per exact lookup (physical messages).
    pub routing_hops: f64,
    /// Mean logical tree levels visited per lookup (where distinct).
    pub logical_levels: f64,
    /// Mean local state per peer (routing + tree references).
    pub local_state: f64,
    /// The paper's tree-routing complexity claim.
    pub theory_routing: &'static str,
    /// The paper's local-state complexity claim.
    pub theory_state: &'static str,
}

/// Measures Table 2 on an identical corpus: `peers` peers, a
/// `keys`-key spread of the grid corpus, `lookups` random exact
/// lookups per system.
pub fn table2_measure(peers: usize, keys: usize, lookups: usize, seed: u64) -> Vec<Table2Row> {
    let corpus: Vec<Key> = Corpus::grid().take_spread(keys);
    let mut rng = StdRng::seed_from_u64(seed);

    // --- DLPT ---------------------------------------------------------
    let mut sys = DlptSystem::builder()
        .seed(seed)
        .peer_id_len(12)
        .bootstrap_peers(peers)
        .build();
    for k in &corpus {
        sys.insert_data(k.clone()).expect("ring non-empty");
    }
    let mut dlpt_logical = 0.0;
    let mut dlpt_physical = 0.0;
    for _ in 0..lookups {
        let key = &corpus[rng.gen_range(0..corpus.len())];
        let out = sys
            .request(QueryKind::Exact(key.clone()))
            .expect("tree non-empty");
        dlpt_logical += out.logical_hops() as f64;
        dlpt_physical += out.physical_hops() as f64;
        sys.end_time_unit();
    }
    let dlpt_state: f64 = {
        let ids = sys.peer_ids();
        let total: usize = ids
            .iter()
            .filter_map(|p| sys.shard(p))
            .map(|s| {
                2 + s
                    .nodes
                    .values()
                    .map(|n| n.children().len() + usize::from(n.father().is_some()))
                    .sum::<usize>()
            })
            .sum();
        total as f64 / ids.len() as f64
    };

    // --- PHT ----------------------------------------------------------
    let mut pht = PrefixHashTree::new(
        PhtConfig {
            leaf_capacity: 4,
            depth_bytes: 24,
            succ_list_len: 4,
        },
        peers,
        seed ^ 0x9E37,
    );
    for k in &corpus {
        pht.insert(k);
    }
    let before = (pht.stats.dht_hops, pht.stats.vertex_accesses);
    let mut pht_levels = 0.0;
    for _ in 0..lookups {
        let key = &corpus[rng.gen_range(0..corpus.len())];
        let (found, levels) = pht.lookup(key);
        debug_assert!(found);
        pht_levels += levels as f64;
    }
    let pht_hops = (pht.stats.dht_hops - before.0) as f64 / lookups as f64;
    let _accesses = (pht.stats.vertex_accesses - before.1) as f64 / lookups as f64;
    let pht_state: f64 = {
        // Chord routing state per node: distinct fingers + successor
        // list + stored trie vertices.
        let ids = pht.dht.ids();
        let total: usize = ids
            .iter()
            .filter_map(|id| pht.dht.node(*id))
            .map(|n| {
                let mut fingers: Vec<u64> = n.fingers.clone();
                fingers.sort_unstable();
                fingers.dedup();
                fingers.len() + n.succ_list.len() + n.store.len()
            })
            .sum();
        total as f64 / ids.len() as f64
    };

    // --- P-Grid -------------------------------------------------------
    let mut pgrid = PGrid::build(&corpus, peers, 2, 24, seed ^ 0x51D);
    let mut pgrid_hops = 0.0;
    for _ in 0..lookups {
        let key = &corpus[rng.gen_range(0..corpus.len())];
        let (found, hops) = pgrid.lookup(key);
        debug_assert!(found);
        pgrid_hops += hops as f64;
    }

    vec![
        Table2Row {
            system: "P-Grid",
            routing_hops: pgrid_hops / lookups as f64,
            logical_levels: pgrid_hops / lookups as f64,
            local_state: pgrid.mean_state(),
            theory_routing: "O(log |Pi|)",
            theory_state: "O(log |Pi|)",
        },
        Table2Row {
            system: "PHT",
            routing_hops: pht_hops,
            logical_levels: pht_levels / lookups as f64,
            local_state: pht_state,
            theory_routing: "O(D log P)",
            theory_state: "|N|/|P| * |A|",
        },
        Table2Row {
            system: "DLPT",
            routing_hops: dlpt_physical / lookups as f64,
            logical_levels: dlpt_logical / lookups as f64,
            local_state: dlpt_state,
            theory_routing: "O(D)",
            theory_state: "|N|/|P| * |A|",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_configs_have_three_curves() {
        for figs in [
            fig4_configs(),
            fig5_configs(),
            fig6_configs(),
            fig7_configs(),
            fig8_configs(),
        ] {
            assert_eq!(figs.len(), 3);
            let labels: Vec<&str> = figs.iter().map(|c| c.lb.label()).collect();
            assert_eq!(labels, vec!["MLT", "KC", "NoLB"]);
        }
    }

    #[test]
    fn figure_parameters_match_paper() {
        let f4 = &fig4_configs()[0];
        assert_eq!(f4.time_units, 50);
        assert_eq!(f4.runs, 30);
        assert_eq!(f4.peers, 100);
        let f8 = &fig8_configs()[0];
        assert_eq!(f8.time_units, 160);
        assert_eq!(f8.runs, 50);
        assert!(matches!(f8.popularity, PopKind::Figure8 { .. }));
        let f9 = fig9_config();
        assert_eq!(f9.runs, 100);
        assert!(f9.track_mapping_hops);
        assert_eq!(TABLE1_LOADS.len(), 6);
    }

    #[test]
    fn figr_variants_cover_the_ablation_grid() {
        let vs = figr_variants();
        assert_eq!(vs.len(), 4);
        assert!(vs.iter().any(|v| v.replication == 1));
        assert!(vs.iter().any(|v| v.replication == 3 && v.anti_entropy));
        assert!(vs.iter().any(|v| v.replication == 2 && !v.anti_entropy));
        let cfg = figr_config(0.006, vs[1]);
        assert_eq!(cfg.replication, 2);
        assert!(cfg.anti_entropy);
        assert!((cfg.churn.crash_rate - 0.006).abs() < 1e-12);
        assert_eq!(cfg.churn.join_fraction, 0.02, "stable base churn");
        let baseline = figr_config(0.0, vs[0]);
        assert_eq!(baseline.replication, 1);
        assert_eq!(baseline.churn.crash_rate, 0.0);
    }

    #[test]
    fn figr_zero_loss_at_k2_and_loss_at_k1_on_a_seeded_run() {
        // The acceptance scenario at test scale: ~30% of peers crash
        // over the horizon. k=2 + anti-entropy must end with every key
        // alive; the unreplicated baseline must demonstrably lose data.
        use crate::run::run_once;
        let scale = |v: FigRVariant| {
            let mut cfg = figr_config(0.012, v).scaled_down(4);
            cfg.time_units = 25;
            cfg.growth_units = 5;
            cfg.base_seed = 0xF16;
            cfg
        };
        let vs = figr_variants();
        let k2 = run_once(&scale(vs[1]), 0);
        let last = k2.units.last().unwrap();
        assert_eq!(
            last.keys_alive, last.keys_inserted,
            "k=2 + AE must lose zero keys"
        );
        assert!(
            k2.units.iter().map(|u| u.crashes).sum::<u64>() > 0,
            "the run must actually crash peers"
        );
        let k1 = run_once(&scale(vs[0]), 0);
        let last = k1.units.last().unwrap();
        assert!(
            last.keys_alive < last.keys_inserted,
            "k=1 must lose keys ({} of {} alive)",
            last.keys_alive,
            last.keys_inserted
        );
    }

    #[test]
    fn figa_grid_covers_the_fault_sweep() {
        let vs = figa_variants();
        assert_eq!(vs.len(), 2);
        assert!(vs.iter().any(|v| v.replication == 1 && !v.anti_entropy));
        assert!(vs.iter().any(|v| v.replication == 2 && v.anti_entropy));
        assert_eq!(FIGA_LOSS_RATES[0], 0.0, "first sweep point is fault-free");
        let cfg = figa_config(0.10, vs[1]);
        assert_eq!(cfg.replication, 2);
        assert!((cfg.loss_rate - 0.10).abs() < 1e-12);
        assert!((cfg.dup_rate - 0.05).abs() < 1e-12);
        let p = cfg.partition.expect("figA schedules a partition");
        assert!(p.from < p.until && p.until <= cfg.time_units);
        let control = figa_config(0.0, vs[0]);
        assert_eq!(control.base_seed, cfg.base_seed, "paired seeds");
    }

    #[test]
    fn figa_requests_terminate_and_k2_ae_survives_a_healed_partition() {
        // The acceptance scenario at test scale: 10% loss + 5% dup +
        // a healed partition. Every request must terminate (satisfied,
        // dropped or explicitly failed — never hung), and k=2 + AE must
        // end with ≥ 99% of keys discoverable after the cut heals.
        use crate::run::run_once;
        let scale = |v: FigAVariant| {
            let mut cfg = figa_config(0.10, v).scaled_down(8);
            cfg.time_units = 30;
            cfg.growth_units = 10;
            cfg.partition = Some(PartitionSpec {
                lo: "D".into(),
                hi: "K".into(),
                from: 15,
                until: 20,
            });
            cfg.base_seed = 0xFA17;
            cfg
        };
        let vs = figa_variants();
        let k2 = run_once(&scale(vs[1]), 0);
        for (t, u) in k2.units.iter().enumerate() {
            assert_eq!(
                u.satisfied + u.dropped + u.not_found,
                u.issued,
                "unit {t}: every request must terminate"
            );
        }
        let last = k2.units.last().unwrap();
        assert!(
            last.survival_pct() >= 99.0,
            "k=2 + AE survival after heal: {} ({} of {})",
            last.survival_pct(),
            last.keys_alive,
            last.keys_inserted
        );
        let lost: u64 = k2.units.iter().map(|u| u.frames_lost).sum();
        let severed: u64 = k2.units.iter().map(|u| u.partition_dropped).sum();
        let retries: u64 = k2.units.iter().map(|u| u.retries).sum();
        assert!(lost > 0, "the run must actually lose frames");
        assert!(severed > 0, "the partition must actually sever frames");
        assert!(retries > 0, "loss must trigger the retry machinery");
        // The partition window visibly dents satisfaction relative to
        // the healed tail — and the tail recovers.
        let tail = &k2.units[25..];
        assert!(
            tail.iter().all(|u| u.partition_dropped == 0),
            "no severed frames after the heal"
        );
    }

    #[test]
    fn figc_grid_covers_workloads_and_capacities() {
        let ws = figc_workloads();
        assert_eq!(ws.len(), 4);
        assert!(ws.iter().any(|w| matches!(w.pop, PopKind::Uniform)));
        assert!(ws
            .iter()
            .any(|w| matches!(w.pop, PopKind::Zipf(s) if (s - 1.2).abs() < 1e-9)));
        assert!(ws
            .iter()
            .any(|w| matches!(&w.pop, PopKind::HotPrefix { prefix, .. } if prefix == "S3L")));
        assert_eq!(FIGC_CACHE_SIZES[0], 0, "first sweep point is the baseline");
        let cfg = figc_config(&ws[2], 512);
        assert_eq!(cfg.cache_capacity, 512);
        assert!(cfg.track_depth_hist);
        assert_eq!(cfg.lb, LbKind::None, "cache effect isolated from LB");
        let base = figc_config(&ws[2], 0);
        assert_eq!(base.base_seed, cfg.base_seed, "paired seeds across sweep");
    }

    #[test]
    fn figc_cache_cuts_hops_on_a_seeded_zipf_run() {
        // The acceptance scenario at test scale: at Zipf s = 1.2 a
        // non-trivial cache must cut mean hops by ≥ 30% and must not
        // hurt satisfaction on the uniform workload.
        use crate::runner::run_experiment;
        let scale = |w: &FigCWorkload, cache: usize| {
            let mut cfg = figc_config(w, cache).scaled_down(8);
            cfg.time_units = 30;
            cfg.growth_units = 10;
            cfg.runs = 3;
            cfg
        };
        let ws = figc_workloads();
        let zipf = &ws[2];
        let off = run_experiment(&scale(zipf, 0));
        let on = run_experiment(&scale(zipf, 512));
        assert!(
            on.steady_cache_hit_pct() > 20.0,
            "{:?}",
            on.steady_cache_hits
        );
        assert!(
            on.steady_mean_hops() <= 0.7 * off.steady_mean_hops(),
            "cached mean hops {} vs uncached {}",
            on.steady_mean_hops(),
            off.steady_mean_hops()
        );
        let uni = &ws[0];
        let uni_off = run_experiment(&scale(uni, 0));
        let uni_on = run_experiment(&scale(uni, 512));
        assert!(
            uni_on.steady_satisfaction() >= uni_off.steady_satisfaction() - 0.5,
            "uniform satisfaction must not degrade: {} vs {}",
            uni_on.steady_satisfaction(),
            uni_off.steady_satisfaction()
        );
    }

    #[test]
    fn table2_shapes_hold_on_small_instance() {
        let rows = table2_measure(24, 120, 60, 42);
        assert_eq!(rows.len(), 3);
        let by_name = |n: &str| rows.iter().find(|r| r.system == n).unwrap().clone();
        let (pgrid, pht, dlpt) = (by_name("P-Grid"), by_name("PHT"), by_name("DLPT"));
        // The headline claim: DLPT's physical routing beats PHT's
        // DHT-amplified descent.
        assert!(
            dlpt.routing_hops < pht.routing_hops,
            "DLPT {} vs PHT {}",
            dlpt.routing_hops,
            pht.routing_hops
        );
        // P-Grid routes in O(log Pi) — single digits here.
        assert!(pgrid.routing_hops < 15.0);
        // Everyone keeps some state.
        assert!(dlpt.local_state > 0.0);
        assert!(pht.local_state > 0.0);
        assert!(pgrid.local_state > 0.0);
    }

    #[test]
    fn table1_row_scaled_down_is_finite() {
        // Finiteness only: at this scale the cells are noise (the 10%
        // one has read negative), so the paper's shape — gains positive
        // and growing with load — is asserted on the committed
        // paper-scale `results/table1.csv` instead
        // (`tests/paper_scale.rs`).
        for load in [0.10, 0.40, 0.80] {
            let row = table1_row(load, |cfg| {
                let mut cfg = cfg.scaled_down(8);
                cfg.time_units = 30;
                cfg
            });
            let gains = [
                row.stable_mlt,
                row.stable_kc,
                row.dynamic_mlt,
                row.dynamic_kc,
            ];
            for v in gains.iter().chain(&row.stable_sat).chain(&row.dynamic_sat) {
                assert!(v.is_finite(), "load {load}: {row:?}");
            }
        }
    }
}
