//! A replica of `dlpt_sim::run::run_once`'s five-step loop, kept in
//! the benchmark so each step can sit inside a span without touching
//! the program under test.
//!
//! It calls the same public functions in the same order with the same
//! RNG streams, so its `UnitMetrics` equal `run_once`'s; the traced
//! run checks that (`sim.replica_in_sync`) and `contract_tests` pins it for all
//! seven configs. When `run_once` changes shape the replica goes stale:
//! the `sim.step_*` rows are then marked so instead of silently
//! describing an old loop.

use crate::spans::{SpanBuf, SpanId, L, ROOT};
use dlpt_core::key::Key;
use dlpt_core::messages::QueryKind;
use dlpt_core::metrics::DepthHistogram;
use dlpt_core::system::{DlptSystem, LookupOutcome};
use dlpt_core::transport::FaultPlan;
use dlpt_dht::mapping::RandomMapping;
use dlpt_sim::config::ExperimentConfig;
use dlpt_sim::run::UnitMetrics;
use dlpt_workloads::capacity::CapacityModel;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Runs `f` inside a span of `layer` under `parent`.
#[inline]
fn spanned<T>(spans: &mut SpanBuf, layer: L, parent: SpanId, f: impl FnOnce() -> T) -> T {
    let s = spans.open(layer, parent);
    let out = f();
    spans.close(s);
    out
}

/// One seeded run of the experiment, a span per step.
///
/// # Panics
/// Panics on configs the replica does not mirror: `workers > 1` and
/// `health_snapshots` (none of the benchmark's seven uses them).
pub fn run_once_traced(
    cfg: &ExperimentConfig,
    run_idx: usize,
    spans: &mut SpanBuf,
) -> Vec<UnitMetrics> {
    assert!(
        cfg.workers == 1 && !cfg.health_snapshots,
        "the replica mirrors the sequential, snapshot-free loop only"
    );
    let root = spans.open(L::Op, ROOT);
    let boot = spans.open(L::SimBootstrap, root);
    let seed = cfg.base_seed.wrapping_add(run_idx as u64);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    let mut corpus = spanned(spans, L::WorkloadsCorpusBuild, boot, || {
        cfg.corpus.build(&mut rng)
    });
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
        let id = spanned(spans, L::BalanceChooseJoinId, boot, || {
            lb.choose_join_id(&sys, &mut rng, cap)
        });
        spanned(spans, L::SystemAddPeer, boot, || {
            sys.add_peer_with_id(id, cap)
        })
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

    let mut pop = cfg.popularity.build();
    let per_unit_growth = corpus.len().div_ceil(cfg.growth_units.max(1) as usize);
    let mut next_key = 0usize;
    let mut live_keys: Vec<Key> = Vec::with_capacity(corpus.len());
    spans.close(boot);

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
        spanned(spans, L::SimStepBalance, root, || {
            lb.before_unit(&mut sys, &mut rng)
        });

        // (2) Joins.
        let step = spans.open(L::SimStepJoin, root);
        let joins = cfg.churn.joins(sys.peer_count(), &mut rng);
        for _ in 0..joins {
            let cap = capacities.draw(&mut rng);
            let id = spanned(spans, L::BalanceChooseJoinId, step, || {
                lb.choose_join_id(&sys, &mut rng, cap)
            });
            spanned(spans, L::SystemAddPeer, step, || {
                sys.add_peer_with_id(id, cap)
            })
            .expect("join id is fresh");
        }
        spans.close(step);

        // (3) Leaves (graceful; never the last peer).
        let step = spans.open(L::SimStepLeave, root);
        let leaves = cfg.churn.leaves(sys.peer_count(), &mut rng);
        for _ in 0..leaves {
            let ids = spanned(spans, L::SystemPeerIds, step, || sys.peer_ids());
            if ids.len() <= 1 {
                break;
            }
            let victim = ids[rng.gen_range(0..ids.len())].clone();
            spanned(spans, L::SystemLeavePeer, step, || sys.leave_peer(&victim))
                .expect("victim is live");
        }
        spans.close(step);

        // (3b) Crashes (non-graceful) and tree repair.
        let step = spans.open(L::SimStepCrashRepair, root);
        let crashes = cfg.churn.crashes(sys.peer_count(), &mut rng);
        let mut crashed = 0u64;
        for _ in 0..crashes {
            let ids = spanned(spans, L::SystemPeerIds, step, || sys.peer_ids());
            if ids.len() <= 1 {
                break;
            }
            let victim = ids[rng.gen_range(0..ids.len())].clone();
            spanned(spans, L::SystemCrashPeer, step, || sys.crash_peer(&victim))
                .expect("victim is live");
            crashed += 1;
        }
        if crashed > 0 {
            spanned(spans, L::SystemRepairTree, step, || sys.repair_tree());
        }
        spans.close(step);
        if cfg.anti_entropy && cfg.replication > 1 {
            spanned(spans, L::SimStepAntiEntropy, root, || sys.anti_entropy())
                .expect("anti-entropy pass completes");
        }

        // (4) Service registrations (tree growth).
        let step = spans.open(L::SimStepInsert, root);
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
        spans.close(step);

        // (5) Discovery requests.
        let step = spans.open(L::SimStepDiscovery, root);
        let ids = spanned(spans, L::SystemPeerIds, step, || sys.peer_ids());
        let aggregate: u64 = ids
            .iter()
            .filter_map(|p| sys.shard(p))
            .map(|s| s.peer.capacity as u64)
            .sum();
        let n_requests = (cfg.load * aggregate as f64 / cfg.route_cost.max(1.0)).round() as usize;
        let random_map = cfg.track_mapping_hops.then(|| {
            let ids = spanned(spans, L::SystemPeerIds, step, || sys.peer_ids());
            spanned(spans, L::DhtRandomMappingBuild, step, || {
                RandomMapping::new(&ids)
            })
        });

        let hits_before = sys.cache_stats.hits;
        let stale_before = sys.cache_stats.stale_hits;
        let depth_map = cfg
            .track_depth_hist
            .then(|| spanned(spans, L::SystemDepthMap, step, || sys.depth_map()));
        let mut depth_hist = DepthHistogram::default();

        let mut m = UnitMetrics::default();
        let mut fold = |m: &mut UnitMetrics, out: LookupOutcome, spans: &mut SpanBuf| {
            let f = spans.open(L::SimFold, step);
            m.issued += 1;
            if out.satisfied {
                m.satisfied += 1;
                m.hop_samples += 1;
                m.logical_hops_sum += out.logical_hops() as u64;
                m.physical_lexico_sum += out.physical_hops() as u64;
                if let Some(rm) = &random_map {
                    m.physical_random_sum +=
                        spanned(spans, L::DhtPhysicalHops, f, || rm.physical_hops(&out.path))
                            as u64;
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
            spans.close(f);
        };
        if !live_keys.is_empty() {
            for _ in 0..n_requests {
                let key = &live_keys[pop.pick(&live_keys, &mut rng, t)];
                let Ok(out) = sys.request(QueryKind::Exact(key.clone())) else {
                    continue;
                };
                fold(&mut m, out, spans);
            }
        }
        spans.close(step);

        // End-of-unit metric assembly — folding, not discovery.
        let f = spans.open(L::SimFold, root);
        m.cache_hits = sys.cache_stats.hits - hits_before;
        m.cache_stale = sys.cache_stats.stale_hits - stale_before;
        m.depth_visits = depth_hist.counts;
        m.peers = sys.peer_count();
        m.nodes = sys.node_count();
        m.migrations = sys.stats.balance_migrations - migrations_before;
        m.crashes = crashed;
        m.keys_inserted = next_key as u64;
        m.keys_alive = sys
            .peer_ids()
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
        spans.close(f);
        spanned(spans, L::EngineEndTimeUnit, root, || sys.end_time_unit());
        units.push(m);
    }
    spans.close(root);
    units
}
