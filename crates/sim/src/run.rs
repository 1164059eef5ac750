//! One seeded run of the Section-4 loop.
//!
//! "Each time unit is composed of several steps. (1) If MLT is
//! enabled, a fixed fraction of the peers executes the MLT load
//! balancing. (2) A fixed fraction of peers join the system (applying
//! the KC algorithm if enabled […]). (3) A fixed fraction of peers
//! leaves the system. (4) A fixed fraction of new services are added
//! in the tree (possibly resulting in the creation of new nodes).
//! (5) Discovery requests are sent to the tree (and results on the
//! number of satisfied discovery requests are collected)."

use crate::config::ExperimentConfig;
use dlpt_core::key::Key;
use dlpt_core::messages::QueryKind;
use dlpt_core::metrics::DepthHistogram;
use dlpt_core::system::DlptSystem;
use dlpt_core::transport::FaultPlan;
use dlpt_dht::mapping::RandomMapping;
use dlpt_workloads::capacity::CapacityModel;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Raw measurements of one time unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnitMetrics {
    /// Requests issued.
    pub issued: u64,
    /// Requests that reached their destination ("satisfied").
    pub satisfied: u64,
    /// Requests ignored by an exhausted peer.
    pub dropped: u64,
    /// Requests whose key had no node (should be 0: only registered
    /// keys are requested).
    pub not_found: u64,
    /// Σ logical hops over satisfied requests.
    pub logical_hops_sum: u64,
    /// Σ physical hops (lexicographic mapping) over satisfied requests.
    pub physical_lexico_sum: u64,
    /// Σ physical hops (random/DHT mapping replay) over satisfied
    /// requests; only filled when `track_mapping_hops` is set.
    pub physical_random_sum: u64,
    /// Number of requests contributing to the hop sums.
    pub hop_samples: u64,
    /// Peers alive at the end of the unit.
    pub peers: usize,
    /// Tree nodes at the end of the unit.
    pub nodes: usize,
    /// Node migrations the balancer performed this unit.
    pub migrations: u64,
    /// Distinct service keys registered so far (replication extension).
    pub keys_inserted: u64,
    /// Of those, keys still present in the tree at the end of the unit
    /// — the data-survival numerator `figR` tracks. Crashes are the
    /// only way the two diverge in these workloads.
    pub keys_alive: u64,
    /// Peers crashed (non-gracefully) during this unit.
    pub crashes: u64,
    /// Requests answered through a validated routing shortcut
    /// (caching extension, `figC`).
    pub cache_hits: u64,
    /// Shortcut hits rejected by the epoch check (evicted, request
    /// fell back to the up/down route).
    pub cache_stale: u64,
    /// Per-depth visits of satisfied routes this unit (`counts[d]` =
    /// visits at tree depth `d`); empty unless `track_depth_hist` is
    /// set.
    pub depth_visits: Vec<u64>,
    /// Faultable messages lost in transit this unit (fault extension,
    /// `figA`). All-zero fault counters mean the transport ran inert.
    pub frames_lost: u64,
    /// Faultable messages delivered twice this unit.
    pub frames_duplicated: u64,
    /// Messages severed by an active partition this unit.
    pub partition_dropped: u64,
    /// Request re-issues after a gather was stranded by loss.
    pub retries: u64,
    /// Requests failed explicitly at retry-budget exhaustion.
    pub requests_failed: u64,
    /// Duplicated responses suppressed by the per-request idempotency
    /// filter this unit (fault extension).
    pub dedup_suppressed: u64,
    /// Routing shortcuts learned this unit (caching extension).
    pub cache_learned: u64,
    /// Cache invalidations delivered this unit
    /// ([`dlpt_core::cache::CacheStats::invalidations_delivered`]):
    /// always 0, kept for the benchmark and `figC.csv`.
    pub cache_invalidations: u64,
    /// Total visible work this unit
    /// ([`dlpt_core::metrics::SystemStats::total_work`]): delivered
    /// protocol messages **plus** capacity drops, requeues and
    /// undeliverable envelopes — the contention-honest message cost
    /// the figure report lines quote.
    pub work: u64,
}

impl UnitMetrics {
    /// Percentage of satisfied requests — the y-axis of Figures 4–8.
    pub fn satisfaction_pct(&self) -> f64 {
        if self.issued == 0 {
            100.0
        } else {
            100.0 * self.satisfied as f64 / self.issued as f64
        }
    }

    /// Mean logical hops per satisfied request (Figure 9).
    pub fn mean_logical_hops(&self) -> f64 {
        if self.hop_samples == 0 {
            0.0
        } else {
            self.logical_hops_sum as f64 / self.hop_samples as f64
        }
    }

    /// Mean physical hops, lexicographic mapping (Figure 9).
    pub fn mean_physical_lexico(&self) -> f64 {
        if self.hop_samples == 0 {
            0.0
        } else {
            self.physical_lexico_sum as f64 / self.hop_samples as f64
        }
    }

    /// Mean physical hops, random mapping replay (Figure 9).
    pub fn mean_physical_random(&self) -> f64 {
        if self.hop_samples == 0 {
            0.0
        } else {
            self.physical_random_sum as f64 / self.hop_samples as f64
        }
    }

    /// Percentage of registered keys still discoverable — the
    /// data-survival axis of `figR`. 100 when nothing was registered.
    pub fn survival_pct(&self) -> f64 {
        if self.keys_inserted == 0 {
            100.0
        } else {
            100.0 * self.keys_alive as f64 / self.keys_inserted as f64
        }
    }
}

/// All units of one run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Per-unit metrics, index = time unit.
    pub units: Vec<UnitMetrics>,
    /// One JSONL [`dlpt_core::HealthSnapshot`] line per unit when
    /// [`ExperimentConfig::health_snapshots`] is set; empty otherwise.
    pub health: String,
}

impl RunResult {
    /// Total satisfied requests over units `[skip..]` — Table 1's
    /// aggregate (growth period excluded).
    pub fn total_satisfied(&self, skip: usize) -> u64 {
        self.units.iter().skip(skip).map(|u| u.satisfied).sum()
    }

    /// Total issued requests over units `[skip..]`.
    pub fn total_issued(&self, skip: usize) -> u64 {
        self.units.iter().skip(skip).map(|u| u.issued).sum()
    }
}

/// Executes one seeded run of the experiment.
pub fn run_once(cfg: &ExperimentConfig, run_idx: usize) -> RunResult {
    let seed = cfg.base_seed.wrapping_add(run_idx as u64);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    let mut corpus = cfg.corpus.build(&mut rng);
    corpus.shuffle(&mut rng);

    let mut sys = DlptSystem::builder()
        .alphabet(cfg.corpus.alphabet())
        .seed(seed)
        .peer_id_len(cfg.peer_id_len)
        .replication(cfg.replication)
        .cache_capacity(cfg.cache_capacity)
        .build();
    let capacities = CapacityModel {
        base: cfg.base_capacity,
        ratio: cfg.capacity_ratio,
    };
    let mut lb = cfg.lb.build();
    for _ in 0..cfg.peers {
        let cap = capacities.draw(&mut rng);
        let id = lb.choose_join_id(&sys, &mut rng, cap);
        sys.add_peer_with_id(id, cap)
            .expect("bootstrap identifiers are fresh");
    }

    if cfg.loss_rate > 0.0 || cfg.dup_rate > 0.0 || cfg.partition.is_some() {
        sys.set_fault_plan(FaultPlan {
            loss_rate: cfg.loss_rate,
            dup_rate: cfg.dup_rate,
            reorder_rate: 0.0,
            seed: seed ^ 0xFA17,
        });
    }

    let mut health = String::new();
    let mut monitor = cfg.health_snapshots.then(dlpt_core::HealthMonitor::new);

    let mut pop = cfg.popularity.build();
    let per_unit_growth = corpus.len().div_ceil(cfg.growth_units.max(1) as usize);
    let mut next_key = 0usize;
    let mut live_keys: Vec<Key> = Vec::with_capacity(corpus.len());

    let mut units = Vec::with_capacity(cfg.time_units as usize);
    for t in 0..cfg.time_units {
        let migrations_before = sys.stats.balance_migrations;
        let work_before = sys.stats.total_work();
        let learned_before = sys.cache_stats.learned;
        let invalidations_before = sys.cache_stats.invalidations_delivered;
        if let Some(p) = &cfg.partition {
            if t == p.from {
                sys.partition(Key::from(p.lo.as_str()), Key::from(p.hi.as_str()));
            }
            if t == p.until {
                sys.heal_partition();
            }
        }
        let faults_before = sys.fault_stats();

        // (1) Load balancing on recent history.
        lb.before_unit(&mut sys, &mut rng);

        // (2) Joins.
        let joins = cfg.churn.joins(sys.peer_count(), &mut rng);
        for _ in 0..joins {
            let cap = capacities.draw(&mut rng);
            let id = lb.choose_join_id(&sys, &mut rng, cap);
            sys.add_peer_with_id(id, cap).expect("join id is fresh");
        }

        // (3) Leaves (graceful; never the last peer).
        let leaves = cfg.churn.leaves(sys.peer_count(), &mut rng);
        for _ in 0..leaves {
            let n = sys.peer_count();
            if n <= 1 {
                break;
            }
            let victim = sys.peer_at(rng.gen_range(0..n)).expect("in range").clone();
            sys.leave_peer(&victim).expect("victim is live");
        }

        // (3b) Crashes (non-graceful; replication extension). A zero
        // crash rate draws no randomness, so the paper experiments
        // replay their pre-crash-step streams byte-identically.
        let crashes = cfg.churn.crashes(sys.peer_count(), &mut rng);
        let mut crashed = 0u64;
        for _ in 0..crashes {
            let n = sys.peer_count();
            if n <= 1 {
                break;
            }
            let victim = sys.peer_at(rng.gen_range(0..n)).expect("in range").clone();
            sys.crash_peer(&victim).expect("victim is live");
            crashed += 1;
        }
        if crashed > 0 {
            sys.repair_tree();
        }
        if cfg.anti_entropy && cfg.replication > 1 {
            sys.anti_entropy().expect("anti-entropy pass completes");
        }

        // (4) Service registrations (tree growth).
        let goal = if t + 1 >= cfg.growth_units {
            corpus.len()
        } else {
            ((t as usize + 1) * per_unit_growth).min(corpus.len())
        };
        while next_key < goal {
            let key = corpus[next_key].clone();
            sys.insert_data(key.clone()).expect("ring is non-empty");
            live_keys.push(key);
            next_key += 1;
        }

        // (5) Discovery requests. They change no membership, so one
        // snapshot of the ring serves the whole step.
        let peer_ids = sys.peer_ids();
        let aggregate: u64 = peer_ids
            .iter()
            .filter_map(|p| sys.shard(p))
            .map(|s| s.peer.capacity as u64)
            .sum();
        let n_requests = (cfg.load * aggregate as f64 / cfg.route_cost.max(1.0)).round() as usize;
        let random_map = cfg
            .track_mapping_hops
            .then(|| RandomMapping::new(&peer_ids));

        let hits_before = sys.cache_stats.hits;
        let stale_before = sys.cache_stats.stale_hits;
        // Depth map snapshot for the visit histogram: requests create
        // no nodes, so one map per unit serves every route of step (5).
        let depth_map = cfg.track_depth_hist.then(|| sys.depth_map());
        let mut depth_hist = DepthHistogram::default();

        let mut m = UnitMetrics::default();
        if !live_keys.is_empty() {
            for _ in 0..n_requests {
                let key = &live_keys[pop.pick(&live_keys, &mut rng, t)];
                let Ok(out) = sys.request(QueryKind::Exact(key.clone())) else {
                    continue;
                };
                m.issued += 1;
                if out.satisfied {
                    m.satisfied += 1;
                    m.hop_samples += 1;
                    m.logical_hops_sum += out.logical_hops() as u64;
                    m.physical_lexico_sum += out.physical_hops() as u64;
                    if let Some(rm) = &random_map {
                        m.physical_random_sum += rm.physical_hops(&out.path) as u64;
                    }
                    if let Some(map) = &depth_map {
                        for label in &out.path {
                            if let Some(d) = map.get(label) {
                                depth_hist.record(*d as usize);
                            }
                        }
                    }
                } else if out.dropped {
                    m.dropped += 1;
                } else {
                    m.not_found += 1;
                }
            }
        }
        m.cache_hits = sys.cache_stats.hits - hits_before;
        m.cache_stale = sys.cache_stats.stale_hits - stale_before;
        m.depth_visits = depth_hist.counts;
        m.peers = sys.peer_count();
        m.nodes = sys.node_count();
        m.migrations = sys.stats.balance_migrations - migrations_before;
        m.crashes = crashed;
        m.keys_inserted = next_key as u64;
        // One key registers on exactly one node, so the live count is
        // the total of the data sets (follower copies are kept apart).
        m.keys_alive = peer_ids
            .iter()
            .filter_map(|p| sys.shard(p))
            .flat_map(|s| s.nodes.values())
            .map(|n| n.data.len() as u64)
            .sum();
        let faults_after = sys.fault_stats();
        m.frames_lost = faults_after.lost - faults_before.lost;
        m.frames_duplicated = faults_after.duplicated - faults_before.duplicated;
        m.partition_dropped = faults_after.partition_dropped - faults_before.partition_dropped;
        m.retries = faults_after.retries - faults_before.retries;
        m.requests_failed = faults_after.requests_failed - faults_before.requests_failed;
        m.dedup_suppressed =
            faults_after.duplicates_suppressed - faults_before.duplicates_suppressed;
        m.cache_learned = sys.cache_stats.learned - learned_before;
        m.cache_invalidations = sys.cache_stats.invalidations_delivered - invalidations_before;
        m.work = sys.stats.total_work() - work_before;
        // Snapshot before `end_time_unit` rolls the per-node load
        // counters: "messages handled this unit" is still readable
        // here, and the collection itself is a pure read.
        if let Some(mon) = monitor.as_mut() {
            let violations = sys.audit();
            sys.collect_health(t as u64, &sys.fault_stats(), mon);
            mon.snap.audit_violations = violations.len() as u64;
            mon.snap
                .write_jsonl_line(&cfg.name, run_idx as u64, &mut health);
        }
        sys.end_time_unit();
        units.push(m);
    }
    RunResult { units, health }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CorpusKind, LbKind, PopKind};
    use dlpt_workloads::churn::ChurnModel;

    fn tiny(lb: LbKind) -> ExperimentConfig {
        ExperimentConfig {
            name: "tiny".into(),
            peers: 12,
            corpus: CorpusKind::GridSubset(60),
            time_units: 8,
            growth_units: 3,
            load: 0.10,
            route_cost: 1.0,
            base_capacity: 10,
            capacity_ratio: 4,
            churn: ChurnModel::stable(),
            lb,
            popularity: PopKind::Uniform,
            runs: 2,
            base_seed: 99,
            peer_id_len: 8,
            track_mapping_hops: true,
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
    fn run_produces_full_series() {
        let res = run_once(&tiny(LbKind::None), 0);
        assert_eq!(res.units.len(), 8);
        for (t, u) in res.units.iter().enumerate() {
            assert!(u.issued > 0, "unit {t} issued nothing");
            assert!(u.satisfied + u.dropped + u.not_found == u.issued);
            assert!(u.peers >= 11);
        }
        // Tree fully grown after growth_units.
        assert!(res.units[3].nodes >= 60);
        assert_eq!(res.units.last().unwrap().nodes, res.units[3].nodes);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_once(&tiny(LbKind::Mlt { fraction: 1.0 }), 1);
        let b = run_once(&tiny(LbKind::Mlt { fraction: 1.0 }), 1);
        assert_eq!(a.units, b.units);
        let c = run_once(&tiny(LbKind::Mlt { fraction: 1.0 }), 2);
        assert_ne!(a.units, c.units, "different seeds differ");
    }

    #[test]
    fn mlt_runs_migrate_nodes() {
        let res = run_once(&tiny(LbKind::Mlt { fraction: 1.0 }), 0);
        let total: u64 = res.units.iter().map(|u| u.migrations).sum();
        assert!(total > 0, "MLT should move nodes under load");
    }

    #[test]
    fn kc_runs_complete_under_churn() {
        let mut cfg = tiny(LbKind::Kc { k: 4 });
        cfg.churn = ChurnModel::dynamic();
        let res = run_once(&cfg, 0);
        assert_eq!(res.units.len(), 8);
        assert!(res.total_issued(0) > 0);
    }

    #[test]
    fn hotspot_workload_runs() {
        let mut cfg = tiny(LbKind::Mlt { fraction: 1.0 });
        cfg.popularity = PopKind::Figure8 { hot_fraction: 0.9 };
        cfg.time_units = 12;
        let res = run_once(&cfg, 0);
        assert_eq!(res.units.len(), 12);
    }

    #[test]
    fn cached_runs_hit_and_cut_hops_without_changing_results() {
        let mut base = tiny(LbKind::None);
        base.popularity = PopKind::Zipf(1.2);
        base.time_units = 12;
        let mut cached = base.clone();
        cached.cache_capacity = 128;
        let off = run_once(&base, 0);
        let on = run_once(&cached, 0);
        // Identical seeds issue identical request streams.
        for (a, b) in off.units.iter().zip(&on.units) {
            assert_eq!(a.issued, b.issued);
        }
        let hits: u64 = on.units.iter().map(|u| u.cache_hits).sum();
        assert!(hits > 0, "skewed workload must hit the cache");
        assert_eq!(
            off.units.iter().map(|u| u.cache_hits).sum::<u64>(),
            0,
            "cache-off run counts nothing"
        );
        let mean = |r: &RunResult| {
            let h: u64 = r.units.iter().map(|u| u.logical_hops_sum).sum();
            let n: u64 = r.units.iter().map(|u| u.hop_samples).sum();
            h as f64 / n.max(1) as f64
        };
        assert!(
            mean(&on) < mean(&off),
            "cached routes must lower mean hops: {} vs {}",
            mean(&on),
            mean(&off)
        );
        // Satisfaction can only move up: hits free capacity.
        let sat = |r: &RunResult| r.units.iter().map(|u| u.satisfied).sum::<u64>();
        assert!(sat(&on) >= sat(&off));
    }

    #[test]
    fn depth_histogram_tracks_visits() {
        let mut cfg = tiny(LbKind::None);
        cfg.track_depth_hist = true;
        cfg.time_units = 6;
        let res = run_once(&cfg, 0);
        let total: u64 = res.units.iter().flat_map(|u| u.depth_visits.iter()).sum();
        let visits: u64 = res
            .units
            .iter()
            .map(|u| u.logical_hops_sum + u.hop_samples)
            .sum();
        assert_eq!(
            total, visits,
            "every visit of a satisfied route lands in one depth bucket"
        );
        // Without the flag the histogram stays empty.
        let mut cfg2 = tiny(LbKind::None);
        cfg2.time_units = 6;
        let res2 = run_once(&cfg2, 0);
        assert!(res2.units.iter().all(|u| u.depth_visits.is_empty()));
    }

    #[test]
    fn hop_tracking_fills_random_mapping() {
        let res = run_once(&tiny(LbKind::None), 3);
        let any_random: u64 = res.units.iter().map(|u| u.physical_random_sum).sum();
        let any_lex: u64 = res.units.iter().map(|u| u.physical_lexico_sum).sum();
        let logical: u64 = res.units.iter().map(|u| u.logical_hops_sum).sum();
        assert!(any_random > 0);
        assert!(any_lex <= logical, "lexico physical ≤ logical");
    }

    #[test]
    fn health_snapshots_are_deterministic_and_inert_when_off() {
        let off = run_once(&tiny(LbKind::None), 0);
        assert!(off.health.is_empty(), "off-by-default collects nothing");

        let mut cfg = tiny(LbKind::None);
        cfg.health_snapshots = true;
        let a = run_once(&cfg, 0);
        let b = run_once(&cfg, 0);
        assert_eq!(a.health, b.health, "per-seed health determinism");
        assert_eq!(a.health.lines().count(), 8, "one JSONL line per unit");
        assert_eq!(
            a.units, off.units,
            "collection is a pure read: metrics are byte-identical"
        );
        for line in a.health.lines() {
            assert!(line.starts_with("{\"cfg\":\"tiny\",\"run\":0,"));
            assert!(
                line.contains("\"violations\":0"),
                "healthy run audits clean"
            );
            assert!(line.contains("\"bytes_total\":"));
        }
    }

    #[test]
    fn totals_skip_growth() {
        let res = run_once(&tiny(LbKind::None), 0);
        assert!(res.total_satisfied(3) <= res.total_satisfied(0));
        assert!(res.total_issued(3) > 0);
    }
}
