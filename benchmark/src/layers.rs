//! The traced run: the same plans re-driven with a span around every
//! call the benchmark makes into a layer, folded into the per-layer
//! ledger, plus stand-alone probes for the layers no workload reaches.
//!
//! Every row is the median over the chunks (segments, rounds) its
//! section measured. Time rows are net of the span timer's own cost
//! (`bench.timer_ns`); count rows are exact and repeat for one seed
//! wherever their section drives a fixed plan.

use crate::batch::{self, Batch, BATCH};
use crate::gather::Gather;
use crate::harness::{Rec, Segment, Workload, WARMUP_SEGMENT};
use crate::hist::{median, Hist};
use crate::plan::{self, Stream};
use crate::replica::run_once_traced;
use crate::service::{build_system, Kind, Service};
use crate::sim::{self, SimConfig};
use crate::spans::{timer_cost_ns, SpanBuf, Totals, L, ROOT};
use dlpt_core::messages::{DiscoveryMsg, Envelope, NodeMsg, QueryKind, RoutePhase};
use dlpt_core::protocol::{handle_node_msg, Effects};
use dlpt_core::transport::{FaultPlan, FaultStats};
use dlpt_core::trie::PgcpTrie;
use dlpt_core::{Alphabet, HealthMonitor, Key};
use dlpt_net::codec;
use dlpt_net::threaded::ThreadedDlpt;
use dlpt_sim::config::LbKind;
use dlpt_sim::run::run_once;
use dlpt_workloads::corpus::Corpus;
use dlpt_workloads::popularity::{Popularity, Zipf};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

/// The seven workloads, in report order.
pub const WORKLOADS: [&str; 7] = [
    "lookup_uniform",
    "lookup_zipf_cached",
    "register_churn",
    "gather_latnet",
    "batch_exact",
    "sim_paper",
    "sim_extensions",
];

/// Every per-layer row the traced run prints: `(name, unit, better)`.
/// `BENCHMARK.json` lists exactly these (`tests/contract.rs`).
pub const ROWS: &[(&str, &str, &str)] = &[
    ("trie.insert_ns", "ns", "lower"),
    ("trie.complete_ns", "ns", "lower"),
    ("directory.random_node_ns", "ns", "lower"),
    ("protocol.discovery_ns", "ns", "lower"),
    ("protocol.gather_ns", "ns", "lower"),
    ("protocol.insert_ns", "ns", "lower"),
    ("engine.begin_request_ns", "ns", "lower"),
    ("engine.deliver_ns_per_hop", "ns", "lower"),
    ("engine.take_finished_ns", "ns", "lower"),
    ("engine.hops_per_request", "count", "lower"),
    ("engine.msgs_per_request", "count", "lower"),
    ("engine.end_time_unit_ns", "ns", "lower"),
    ("engine.bytes_per_node", "B", "lower"),
    ("cache.hit_share", "ratio", "higher"),
    ("cache.stale_share", "ratio", "lower"),
    ("cache.hit_request_ns", "ns", "lower"),
    ("cache.miss_request_ns", "ns", "lower"),
    ("cache.invalidations_per_write", "count", "lower"),
    ("system.request_ns", "ns", "lower"),
    ("system.adapter_self_ns", "ns", "lower"),
    ("system.insert_data_ns", "ns", "lower"),
    ("system.remove_data_ns", "ns", "lower"),
    ("system.add_peer_ns", "ns", "lower"),
    ("system.leave_peer_ns", "ns", "lower"),
    ("system.crash_peer_ns", "ns", "lower"),
    ("system.repair_tree_ns", "ns", "lower"),
    ("system.anti_entropy_ns", "ns", "lower"),
    ("system.peer_ids_ns", "ns", "lower"),
    ("system.depth_map_ns", "ns", "lower"),
    ("balance.mlt_before_unit_ns", "ns", "lower"),
    ("balance.kc_choose_join_id_ns", "ns", "lower"),
    ("balance.mlt_migrations_per_unit", "count", "lower"),
    ("pump.batch_fixed_us", "us", "lower"),
    ("pump.request_ns", "ns", "lower"),
    ("pump.w1_request_ns", "ns", "lower"),
    ("pump.vs_sequential_ratio", "ratio", "higher"),
    ("transport.faulty_request_ns", "ns", "lower"),
    ("transport.retries_per_request", "count", "lower"),
    ("transport.lost_share", "ratio", "lower"),
    ("latnet.lookup_ns", "ns", "lower"),
    ("latnet.ns_per_visit", "ns", "lower"),
    ("latnet.visits_per_query", "count", "lower"),
    ("dht.random_mapping_build_ns", "ns", "lower"),
    ("dht.physical_hops_ns", "ns", "lower"),
    ("workloads.corpus_build_ns", "ns", "lower"),
    ("workloads.zipf_pick_ns", "ns", "lower"),
    ("sim.bootstrap_ms", "ms", "lower"),
    ("sim.step_balance_ms", "ms", "lower"),
    ("sim.step_join_ms", "ms", "lower"),
    ("sim.step_leave_ms", "ms", "lower"),
    ("sim.step_crash_repair_ms", "ms", "lower"),
    ("sim.step_anti_entropy_ms", "ms", "lower"),
    ("sim.step_insert_ms", "ms", "lower"),
    ("sim.step_discovery_ms", "ms", "lower"),
    ("sim.step_fold_ms", "ms", "lower"),
    ("sim.harness_self_ms", "ms", "lower"),
    ("sim.run_ms.fig4_nolb", "ms", "lower"),
    ("sim.run_ms.fig5_mlt", "ms", "lower"),
    ("sim.run_ms.fig7_kc", "ms", "lower"),
    ("sim.run_ms.fig9", "ms", "lower"),
    ("sim.run_ms.figr_k2", "ms", "lower"),
    ("sim.run_ms.figa_k2", "ms", "lower"),
    ("sim.run_ms.figc_zipf", "ms", "lower"),
    ("sim.replica_in_sync", "count", "higher"),
    ("codec.encode_ns", "ns", "lower"),
    ("codec.decode_ns", "ns", "lower"),
    ("codec.frame_bytes", "B", "lower"),
    ("threaded.lookup_us_p50", "us", "lower"),
    ("threaded.frames_per_lookup", "count", "lower"),
    ("obs.tracer_on_overhead_pct", "%", "lower"),
    ("obs.health_collect_us", "us", "lower"),
    ("bench.timer_ns", "ns", "lower"),
    ("bench.failed_share", "ratio", "lower"),
    ("bench.op_p99_us.lookup_uniform", "us", "lower"),
    ("bench.op_p99_us.lookup_zipf_cached", "us", "lower"),
    ("bench.op_p99_us.register_churn", "us", "lower"),
    ("bench.op_p99_us.gather_latnet", "us", "lower"),
    ("bench.trace_overhead_pct.lookup_uniform", "%", "lower"),
    ("bench.trace_overhead_pct.lookup_zipf_cached", "%", "lower"),
    ("bench.trace_overhead_pct.register_churn", "%", "lower"),
    ("bench.trace_overhead_pct.gather_latnet", "%", "lower"),
    ("bench.trace_overhead_pct.batch_exact", "%", "lower"),
    ("bench.trace_overhead_pct.sim_paper", "%", "lower"),
    ("bench.trace_overhead_pct.sim_extensions", "%", "lower"),
];

/// Named per-layer samples. A timing row's value is the median of its
/// samples; an exact row keeps its first sample only — the first round
/// of a section replays a fixed plan on a fresh overlay, so that value
/// repeats for one seed however many rounds the time allowed.
#[derive(Default)]
pub struct Ledger {
    rows: BTreeMap<String, Vec<f64>>,
    /// Cost of one clock read, taken off every span (`bench.timer_ns`).
    timer_ns: f64,
    /// Names of the exact rows.
    pub exact: BTreeSet<String>,
    /// Operations driven by traced segments.
    pub attempted: u64,
    /// Of those, operations failing their check.
    pub failed: u64,
}

impl Ledger {
    fn add(&mut self, name: &str, value: f64) {
        self.rows.entry(name.to_string()).or_default().push(value);
    }

    fn add_exact(&mut self, name: &str, value: f64) {
        if self.exact.insert(name.to_string()) {
            self.add(name, value);
        }
    }

    fn count(&mut self, seg: &Segment) {
        self.attempted += seg.counts.ops;
        self.failed += seg.counts.failed;
    }

    /// The finished table: `(name, median)` in name order.
    pub fn finish(self) -> BTreeMap<String, f64> {
        self.rows
            .into_iter()
            .map(|(k, v)| (k, median(&v).expect("a row has at least one sample")))
            .collect()
    }
}

/// Operations per traced service segment: enough for ≥ 10 unit
/// boundaries and a stable mean, small enough that its spans (≈ 12 per
/// request) stay in cache-friendly memory.
const SERVICE_SEG_OPS: usize = 20_000;
const GATHER_SEG_OPS: usize = 2_000;
const BATCHES_PER_SEG: usize = 4;

/// Runs the whole ledger in about `seconds`. `selected` (a workload
/// name) gets the largest share of the time, so its rows and its
/// `bench.trace_overhead_pct.*` come from the most samples.
pub fn run(seed: u64, seconds: f64, selected: &str) -> Ledger {
    type Section = fn(u64, f64, &mut Ledger);
    // (section, weight, workloads whose selection boosts it)
    let sections: [(Section, f64, &[&str]); 9] = [
        (probes, 1.0, &[]),
        (lookup_uniform, 2.0, &["lookup_uniform"]),
        (lookup_zipf_cached, 2.0, &["lookup_zipf_cached"]),
        (register_churn, 2.0, &["register_churn"]),
        (gather_latnet, 2.0, &["gather_latnet"]),
        (batch_exact, 2.0, &["batch_exact"]),
        (sims, 5.0, &["sim_paper", "sim_extensions"]),
        (transport, 0.5, &[]),
        (threaded, 0.5, &[]),
    ];
    let weight = |w: f64, boosts: &[&str]| {
        if boosts.contains(&selected) {
            w + 6.0
        } else {
            w
        }
    };
    let total: f64 = sections.iter().map(|(_, w, b)| weight(*w, b)).sum();
    let mut ledger = Ledger {
        timer_ns: timer_cost_ns(),
        ..Ledger::default()
    };
    ledger.add("bench.timer_ns", ledger.timer_ns);
    for (section, w, boosts) in sections {
        section(seed, seconds * weight(w, boosts) / total, &mut ledger);
    }
    let failed_share = ledger.failed as f64 / ledger.attempted.max(1) as f64;
    ledger.add("bench.failed_share", failed_share);
    ledger
}

/// Calls `round(0)`, `round(1)`, … until `budget` seconds have passed,
/// `min` times at least (so a short `--seconds` still fills every row).
fn rounds(min: u64, budget: f64, mut round: impl FnMut(u64)) {
    let start = Instant::now();
    let mut i = 0;
    while i < min || start.elapsed().as_secs_f64() < budget {
        round(i);
        i += 1;
    }
}

/// Percent by which `slow` ops/s falls short of `fast` ops/s.
fn overhead_pct(fast: &Segment, slow: &Segment) -> f64 {
    (fast.ops_per_s() / slow.ops_per_s() - 1.0) * 100.0
}

/// Alternates untraced and traced segments of one workload on the same
/// plans until `budget` seconds have passed (two rounds at least),
/// folding each traced segment's spans through `on_fold` — together with
/// `counter` read just before and just after that segment — and
/// recording the traced-vs-untraced overhead under `name`.
fn alternate<W: Workload, S>(
    w: &mut W,
    name: &str,
    budget: f64,
    ledger: &mut Ledger,
    traced: impl Fn(&mut W, u64, &mut Rec, &mut SpanBuf),
    counter: impl Fn(&W) -> S,
    mut on_fold: impl FnMut((S, S), &Totals, &Segment, &Segment, &mut Ledger),
) {
    let timer_ns = ledger.timer_ns;
    let mut rec = Rec::default();
    w.segment(WARMUP_SEGMENT, &mut rec);
    rec.finish();
    let mut spans = SpanBuf::with_capacity(1 << 18);
    rounds(2, budget, |round| {
        // Swap the order every round so neither side always runs on
        // the state (caches, allocator) the other just warmed.
        let mut plain = None;
        if round.is_multiple_of(2) {
            w.segment(round, &mut rec);
            plain = Some(rec.finish());
        }
        spans.clear();
        let before = counter(w);
        traced(w, round, &mut rec, &mut spans);
        let traced_seg = rec.finish();
        let around = (before, counter(w));
        let rows = spans.fold(timer_ns);
        let plain = plain.unwrap_or_else(|| {
            w.segment(round, &mut rec);
            rec.finish()
        });
        ledger.count(&traced_seg);
        ledger.add(
            &format!("bench.trace_overhead_pct.{name}"),
            overhead_pct(&plain, &traced_seg),
        );
        // Too unsteady on a shared host for an end-to-end bound, so the
        // untraced p99 lives here. A batch segment has four spans: no p99.
        if name != "batch_exact" {
            ledger.add(&format!("bench.op_p99_us.{name}"), plain.p99_ns / 1e3);
        }
        on_fold(around, &rows, &plain, &traced_seg, ledger);
    });
}

fn lookup_uniform(seed: u64, budget: f64, ledger: &mut Ledger) {
    let timer_ns = ledger.timer_ns;
    let mut w = Service::new(Kind::LookupUniform, seed, 0, SERVICE_SEG_OPS);
    alternate(
        &mut w,
        "lookup_uniform",
        budget * 0.7,
        ledger,
        Service::traced_segment,
        |_| (),
        |_, rows, plain, traced, ledger| {
            let reqs = rows[L::Op].count as f64;
            let engine = [
                L::DirectoryRandomNode,
                L::EngineBeginRequest,
                L::EngineDeliver,
                L::EngineTakeFinished,
            ];
            let children: f64 = engine.iter().map(|l| rows[*l].total_ns).sum();
            let request_ns = plain.span_ns as f64 / plain.counts.ops as f64 - timer_ns;
            let row = |l: L| rows[l].mean_ns();
            ledger.add("directory.random_node_ns", row(L::DirectoryRandomNode));
            ledger.add("engine.begin_request_ns", row(L::EngineBeginRequest));
            // One `deliver` call chains every hop of an exact route on
            // a synchronous transport, so the per-hop cost is its time
            // over the messages it processed.
            ledger.add(
                "engine.deliver_ns_per_hop",
                rows[L::EngineDeliver].total_ns / traced.counts.work as f64,
            );
            ledger.add("engine.take_finished_ns", row(L::EngineTakeFinished));
            ledger.add("engine.end_time_unit_ns", row(L::EngineEndTimeUnit));
            ledger.add_exact("engine.hops_per_request", traced.counts.hops as f64 / reqs);
            ledger.add_exact("engine.msgs_per_request", traced.counts.work as f64 / reqs);
            ledger.add("system.request_ns", request_ns);
            ledger.add("system.adapter_self_ns", request_ns - children / reqs);
        },
    );

    // The engine's own ring tracer, on vs off, on the untraced path.
    let mut rec = Rec::default();
    rounds(2, budget * 0.3, |round| {
        let mut pair = [None, None];
        for on in [round.is_multiple_of(2), !round.is_multiple_of(2)] {
            w.sys.set_tracing(if on { 4096 } else { 0 });
            w.segment(1000 + round, &mut rec);
            pair[on as usize] = Some(rec.finish());
            black_box(w.sys.take_trace());
        }
        let (off, on) = (pair[0].expect("off ran"), pair[1].expect("on ran"));
        ledger.add("obs.tracer_on_overhead_pct", overhead_pct(&off, &on));
    });
    w.sys.set_tracing(0);

    let mut monitor = HealthMonitor::new();
    let mut spans = SpanBuf::with_capacity(64);
    for unit in 0..33u64 {
        // The first collection sizes the monitor's buffers.
        let s = spans.open(L::Probe, ROOT);
        w.sys
            .collect_health(unit, &FaultStats::default(), &mut monitor);
        let ns = spans.close(s);
        if unit > 0 {
            ledger.add("obs.health_collect_us", (ns as f64 - timer_ns) / 1e3);
        }
    }
    let nodes = w.sys.node_count() as u64;
    ledger.add_exact(
        "engine.bytes_per_node",
        w.sys.bytes_estimate().per_node(nodes),
    );
}

fn lookup_zipf_cached(seed: u64, budget: f64, ledger: &mut Ledger) {
    let mut w = Service::new(Kind::LookupZipfCached, seed, 0, SERVICE_SEG_OPS);
    alternate(
        &mut w,
        "lookup_zipf_cached",
        budget,
        ledger,
        Service::traced_segment,
        |w| w.sys.cache_stats.stale_hits,
        |(stale_before, stale_after), rows, _, _, ledger| {
            let (hit, miss) = (rows[L::CacheHitRequest], rows[L::CacheMissRequest]);
            let lookups = (hit.count + miss.count) as f64;
            ledger.add("cache.hit_request_ns", hit.mean_ns());
            ledger.add("cache.miss_request_ns", miss.mean_ns());
            ledger.add_exact("cache.hit_share", hit.count as f64 / lookups);
            ledger.add_exact(
                "cache.stale_share",
                (stale_after - stale_before) as f64 / lookups,
            );
        },
    );
}

fn register_churn(seed: u64, budget: f64, ledger: &mut Ledger) {
    let mut w = Service::new(Kind::RegisterChurn, seed, 0, SERVICE_SEG_OPS / 4);
    alternate(
        &mut w,
        "register_churn",
        budget,
        ledger,
        Service::traced_segment,
        |w| w.sys.cache_stats.invalidations_delivered,
        |(delivered_before, delivered_after), rows, _, _, ledger| {
            let (insert, remove) = (rows[L::SystemInsertData], rows[L::SystemRemoveData]);
            ledger.add("system.insert_data_ns", insert.mean_ns());
            ledger.add("system.remove_data_ns", remove.mean_ns());
            ledger.add_exact(
                "cache.invalidations_per_write",
                (delivered_after - delivered_before) as f64 / insert.count.max(1) as f64,
            );
        },
    );
}

fn gather_latnet(seed: u64, budget: f64, ledger: &mut Ledger) {
    let timer_ns = ledger.timer_ns;
    let mut w = Gather::new(seed, 0, GATHER_SEG_OPS);
    alternate(
        &mut w,
        "gather_latnet",
        budget * 0.8,
        ledger,
        Gather::traced_segment,
        |w| w.net.stats.discovery_messages,
        |(visits_before, visits_after), rows, _, _, ledger| {
            let q = rows[L::LatnetQuery];
            let visits = (visits_after - visits_before) as f64;
            ledger.add_exact("latnet.visits_per_query", visits / q.count as f64);
            ledger.add("latnet.ns_per_visit", q.total_ns / visits);
        },
    );
    let mut spans = SpanBuf::with_capacity(GATHER_SEG_OPS);
    rounds(2, budget * 0.2, |round| {
        spans.clear();
        ledger.attempted += GATHER_SEG_OPS as u64;
        ledger.failed += w.traced_lookups(round, GATHER_SEG_OPS, &mut spans);
        let rows = spans.fold(timer_ns);
        ledger.add("latnet.lookup_ns", rows[L::LatnetLookup].mean_ns());
    });
}

fn batch_exact(seed: u64, budget: f64, ledger: &mut Ledger) {
    let workers = batch::workers();
    let mut w = Batch::new(seed, 0, BATCHES_PER_SEG);
    alternate(
        &mut w,
        "batch_exact",
        budget * 0.5,
        ledger,
        Batch::traced_segment,
        |_| (),
        |_, _, _, _, _| {},
    );

    // The pump's fixed and per-request cost, and the same requests
    // through the sequential `request` path on the same overlay.
    let keys = Corpus::grid().keys;
    let timed_batch = |sys: &mut dlpt_core::DlptSystem, queries: Vec<QueryKind>, workers| {
        let n = queries.len();
        let t = Instant::now();
        let outs = sys.discover_batch(queries, workers);
        let ns = t.elapsed().as_nanos() as f64;
        let ok = outs.map(|o| o.iter().filter(|o| o.satisfied && o.found).count());
        (ns, n - ok.unwrap_or(0).min(n))
    };
    rounds(2, budget * 0.5, |round| {
        let queries: Vec<QueryKind> = plan::uniform_lookups(seed, 2000 + round, BATCH, keys.len())
            .into_iter()
            .map(|op| match op {
                plan::Op::Lookup(k) => QueryKind::Exact(keys[k as usize].clone()),
                _ => unreachable!("uniform_lookups yields lookups"),
            })
            .collect();
        let one = || vec![queries[0].clone()];
        let (t1, f1) = timed_batch(&mut w.sys, one(), workers);
        let (tn, f2) = timed_batch(&mut w.sys, queries.clone(), workers);
        let (t1_w1, f3) = timed_batch(&mut w.sys, one(), 1);
        let (tn_w1, f4) = timed_batch(&mut w.sys, queries.clone(), 1);
        let t = Instant::now();
        let mut f5 = 0;
        for q in &queries {
            let ok = w.sys.request(q.clone()).map(|o| o.satisfied && o.found);
            f5 += !ok.unwrap_or(false) as usize;
        }
        let t_seq = t.elapsed().as_nanos() as f64;
        w.sys.end_time_unit();
        ledger.attempted += 3 * BATCH as u64 + 2;
        ledger.failed += (f1 + f2 + f3 + f4 + f5) as u64;
        let per_request = (BATCH - 1) as f64;
        ledger.add("pump.batch_fixed_us", t1 / 1e3);
        ledger.add("pump.request_ns", (tn - t1) / per_request);
        ledger.add("pump.w1_request_ns", (tn_w1 - t1_w1) / per_request);
        // Base: the sequential `request` loop over the same 4 096
        // queries on the same overlay (> 1 = the pump is faster).
        ledger.add("pump.vs_sequential_ratio", t_seq / tn);
    });
}

/// All seven sim configs: `run_once` against the span-per-step replica
/// on the same run index.
fn sims(seed: u64, budget: f64, ledger: &mut Ledger) {
    let timer_ns = ledger.timer_ns;
    let paper = sim::paper_configs(seed);
    let extensions = sim::extension_configs(seed);
    let groups: [(&str, &[SimConfig]); 2] =
        [("sim_paper", &paper), ("sim_extensions", &extensions)];
    let mut spans = SpanBuf::with_capacity(1 << 18);
    let mut in_sync = true;
    rounds(2, budget, |round| {
        let run_idx = round as usize;
        // Pooled over the seven configs of this round.
        let mut pooled = Totals::default();
        let mut runs = 0f64;
        for (name, configs) in groups {
            let (mut plain_ns, mut traced_ns) = (0f64, 0f64);
            for sc in configs {
                let t = Instant::now();
                let reference = run_once(&sc.cfg, run_idx);
                plain_ns += t.elapsed().as_nanos() as f64;
                spans.clear();
                let t = Instant::now();
                let units = run_once_traced(&sc.cfg, run_idx, &mut spans);
                traced_ns += t.elapsed().as_nanos() as f64;
                in_sync &= units == reference.units;
                ledger.attempted += 1;
                ledger.failed += !sim::check_run(&mut Rec::default(), sc, &units) as u64;

                let rows = spans.fold(timer_ns);
                ledger.add(
                    &format!("sim.run_ms.{}", sc.tag),
                    rows[L::Op].total_ns / 1e6,
                );
                let n_units = sc.cfg.time_units as f64;
                if matches!(sc.cfg.lb, LbKind::Mlt { .. }) {
                    ledger.add(
                        "balance.mlt_before_unit_ns",
                        rows[L::SimStepBalance].mean_ns(),
                    );
                    let migrations: u64 = units.iter().map(|u| u.migrations).sum();
                    ledger.add_exact(
                        "balance.mlt_migrations_per_unit",
                        migrations as f64 / n_units,
                    );
                }
                if matches!(sc.cfg.lb, LbKind::Kc { .. }) {
                    ledger.add(
                        "balance.kc_choose_join_id_ns",
                        rows[L::BalanceChooseJoinId].mean_ns(),
                    );
                }
                pooled += &rows;
                runs += 1.0;
            }
            ledger.add(
                &format!("bench.trace_overhead_pct.{name}"),
                (traced_ns / plain_ns - 1.0) * 100.0,
            );
        }
        let per_run_ms = |l: L| pooled[l].total_ns / runs / 1e6;
        ledger.add("sim.bootstrap_ms", per_run_ms(L::SimBootstrap));
        ledger.add("sim.step_balance_ms", per_run_ms(L::SimStepBalance));
        ledger.add("sim.step_join_ms", per_run_ms(L::SimStepJoin));
        ledger.add("sim.step_leave_ms", per_run_ms(L::SimStepLeave));
        ledger.add(
            "sim.step_crash_repair_ms",
            per_run_ms(L::SimStepCrashRepair),
        );
        ledger.add(
            "sim.step_anti_entropy_ms",
            per_run_ms(L::SimStepAntiEntropy),
        );
        ledger.add("sim.step_insert_ms", per_run_ms(L::SimStepInsert));
        // Self time: the per-request fold spans sit inside this step.
        ledger.add(
            "sim.step_discovery_ms",
            pooled[L::SimStepDiscovery].self_ns / runs / 1e6,
        );
        ledger.add("sim.step_fold_ms", per_run_ms(L::SimFold));
        ledger.add("sim.harness_self_ms", pooled[L::Op].self_ns / runs / 1e6);
        let pooled_mean = |l: L| pooled[l].mean_ns();
        ledger.add("system.add_peer_ns", pooled_mean(L::SystemAddPeer));
        ledger.add("system.leave_peer_ns", pooled_mean(L::SystemLeavePeer));
        ledger.add("system.crash_peer_ns", pooled_mean(L::SystemCrashPeer));
        ledger.add("system.repair_tree_ns", pooled_mean(L::SystemRepairTree));
        ledger.add("system.anti_entropy_ns", pooled_mean(L::SimStepAntiEntropy));
        ledger.add("system.peer_ids_ns", pooled_mean(L::SystemPeerIds));
        ledger.add("system.depth_map_ns", pooled_mean(L::SystemDepthMap));
        ledger.add(
            "dht.random_mapping_build_ns",
            pooled_mean(L::DhtRandomMappingBuild),
        );
        ledger.add("dht.physical_hops_ns", pooled_mean(L::DhtPhysicalHops));
        ledger.add(
            "workloads.corpus_build_ns",
            pooled_mean(L::WorkloadsCorpusBuild),
        );
    });
    ledger.add_exact("sim.replica_in_sync", in_sync as u8 as f64);
}

/// The sync pump behind a 10 %-loss `FaultyTransport`.
fn transport(seed: u64, budget: f64, ledger: &mut Ledger) {
    let timer_ns = ledger.timer_ns;
    const LOOKUPS: usize = 2_000;
    let (mut sys, keys) = build_system(seed, 0, 0);
    sys.set_fault_plan(FaultPlan {
        loss_rate: 0.10,
        seed: plan::rng_for(seed, Stream::Probe, 1).gen(),
        ..FaultPlan::default()
    });
    let mut spans = SpanBuf::with_capacity(LOOKUPS);
    rounds(2, budget, |round| {
        spans.clear();
        let (faults, visits) = (sys.fault_stats(), sys.stats.discovery_messages);
        for op in plan::uniform_lookups(seed, 3000 + round, LOOKUPS, keys.len()) {
            let plan::Op::Lookup(k) = op else {
                unreachable!("uniform_lookups yields lookups")
            };
            let query = QueryKind::Exact(keys[k as usize].clone());
            let s = spans.open(L::Probe, ROOT);
            // Loss may exhaust the retry budget: an explicit failure is
            // the contract here, not a benchmark failure.
            black_box(sys.request(query)).ok();
            spans.close(s);
        }
        sys.end_time_unit();
        let after = sys.fault_stats();
        let lost = (after.lost - faults.lost) as f64;
        let delivered = (sys.stats.discovery_messages - visits) as f64;
        let rows = spans.fold(timer_ns);
        ledger.add("transport.faulty_request_ns", rows[L::Probe].mean_ns());
        ledger.add_exact(
            "transport.retries_per_request",
            (after.retries - faults.retries) as f64 / LOOKUPS as f64,
        );
        // Lost ÷ (delivered discovery visits + lost).
        ledger.add_exact("transport.lost_share", lost / (delivered + lost));
    });
}

/// The threaded runtime (OS thread per peer, wire codec, channels).
/// Informational: its timings are scheduler-bound and bimodal, which is
/// why no end-to-end workload runs it.
fn threaded(seed: u64, budget: f64, ledger: &mut Ledger) {
    const PEERS: usize = 16;
    const KEYS: usize = 200;
    const LOOKUPS: usize = 100;
    let keys = Corpus::grid().take_spread(KEYS);
    let mut net = ThreadedDlpt::new(
        Alphabet::grid(),
        plan::rng_for(seed, Stream::Probe, 2).gen(),
    );
    for _ in 0..PEERS {
        net.add_peer();
    }
    for k in &keys {
        net.insert_data(k.clone());
    }
    let mut hist = Hist::default();
    rounds(2, budget, |round| {
        hist.clear();
        let frames_before = *net.stats.frames_handled.lock();
        let mut failed = 0;
        for op in plan::uniform_lookups(seed, 4000 + round, LOOKUPS, keys.len()) {
            let plan::Op::Lookup(k) = op else {
                unreachable!("uniform_lookups yields lookups")
            };
            let t = Instant::now();
            let (found, _) = net.lookup(&keys[k as usize]);
            hist.record(t.elapsed().as_nanos() as u64);
            failed += !found as u64;
        }
        let frames = *net.stats.frames_handled.lock() - frames_before;
        ledger.attempted += LOOKUPS as u64;
        ledger.failed += failed;
        ledger.add(
            "threaded.lookup_us_p50",
            hist.percentile(0.5).expect("lookups ran") / 1e3,
        );
        ledger.add("threaded.frames_per_lookup", frames as f64 / LOOKUPS as f64);
    });
    net.shutdown();
}

/// Stand-alone probes: the sequential trie floor, the protocol
/// handlers on a cloned shard, the wire codec and the plan generators'
/// own cost.
fn probes(seed: u64, budget: f64, ledger: &mut Ledger) {
    let timer_ns = ledger.timer_ns;
    let keys = Corpus::grid().keys;
    let (sys, _) = build_system(seed, 0, 0);
    // The busiest shard, cloned: handlers run on it without the engine.
    let shard = sys
        .peer_ids()
        .iter()
        .filter_map(|p| sys.shard(p))
        .max_by_key(|s| s.nodes.len())
        .expect("the overlay has peers")
        .clone();
    let labels: Vec<Key> = shard.nodes.keys().cloned().collect();
    let envelopes: Vec<Envelope> = keys
        .iter()
        .take(256)
        .enumerate()
        .map(|(i, k)| {
            Envelope::to_node(
                k.clone(),
                NodeMsg::Discovery(DiscoveryMsg {
                    request_id: i as u64,
                    query: QueryKind::Exact(k.clone()),
                    phase: RoutePhase::Up,
                    path: vec![k.truncated(1), k.truncated(3), k.clone()],
                }),
            )
        })
        .collect();
    let mut zipf = Zipf::new(plan::ZIPF_S);
    let mut rng = plan::rng_for(seed, Stream::Probe, 0);
    let mut spans = SpanBuf::with_capacity(8192);
    let mean = |spans: &SpanBuf| spans.fold(timer_ns)[L::Probe].mean_ns();

    rounds(3, budget, |_| {
        // trie: sequential insert of the whole corpus, then completions.
        let mut trie = PgcpTrie::new();
        spans.clear();
        for k in &keys {
            let k = k.clone();
            let s = spans.open(L::Probe, ROOT);
            trie.insert(k);
            spans.close(s);
        }
        ledger.add("trie.insert_ns", mean(&spans));
        spans.clear();
        for _ in 0..512 {
            let prefix = keys[rng.gen_range(0..keys.len())].truncated(rng.gen_range(2..=4));
            let s = spans.open(L::Probe, ROOT);
            black_box(trie.complete(&prefix));
            spans.close(s);
        }
        ledger.add("trie.complete_ns", mean(&spans));

        // protocol: one handler call per span, on the cloned shard.
        let handler = |spans: &mut SpanBuf, make: &dyn Fn(&Key, u64) -> NodeMsg| {
            let mut shard = shard.clone();
            let mut fx = Effects::default();
            spans.clear();
            for (i, label) in labels.iter().cycle().take(2048).enumerate() {
                let msg = make(label, i as u64);
                let s = spans.open(L::Probe, ROOT);
                handle_node_msg(&mut shard, label, msg, &mut fx);
                spans.close(s);
                fx.out.clear();
                fx.relocated.clear();
                fx.removed.clear();
            }
            mean(spans)
        };
        let discovery = |phase: RoutePhase, query: QueryKind, id: u64| {
            NodeMsg::Discovery(DiscoveryMsg {
                request_id: id,
                query,
                phase,
                path: Vec::with_capacity(16),
            })
        };
        let target = |i: u64| keys[(i as usize * 37) % keys.len()].clone();
        ledger.add(
            "protocol.discovery_ns",
            handler(&mut spans, &|_, i| {
                discovery(RoutePhase::Up, QueryKind::Exact(target(i)), i)
            }),
        );
        ledger.add(
            "protocol.gather_ns",
            handler(&mut spans, &|label, i| {
                discovery(
                    RoutePhase::Gather,
                    QueryKind::Complete(label.truncated(2)),
                    i,
                )
            }),
        );
        ledger.add(
            "protocol.insert_ns",
            handler(&mut spans, &|_, i| NodeMsg::DataInsertion {
                key: target(i),
            }),
        );

        // codec: encode and decode of a three-hop discovery frame.
        spans.clear();
        let mut frames = Vec::with_capacity(envelopes.len());
        for env in &envelopes {
            let s = spans.open(L::Probe, ROOT);
            let frame = codec::encode(env);
            spans.close(s);
            frames.push(frame);
        }
        ledger.add("codec.encode_ns", mean(&spans));
        let bytes: usize = frames.iter().map(|f| f.len()).sum();
        ledger.add_exact("codec.frame_bytes", bytes as f64 / frames.len() as f64);
        spans.clear();
        for (i, frame) in frames.iter().enumerate() {
            let s = spans.open(L::Probe, ROOT);
            let env = codec::decode(frame);
            spans.close(s);
            ledger.failed += (env.ok().as_ref() != Some(&envelopes[i])) as u64;
        }
        ledger.attempted += frames.len() as u64;
        ledger.add("codec.decode_ns", mean(&spans));

        // workloads: the generator cost the plans keep outside the spans.
        spans.clear();
        for _ in 0..4096 {
            let s = spans.open(L::Probe, ROOT);
            black_box(zipf.pick(&keys, &mut rng, 0));
            spans.close(s);
        }
        ledger.add("workloads.zipf_pick_ns", mean(&spans));
    });
}
