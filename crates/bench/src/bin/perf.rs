//! `perf` — the workspace's hot-path benchmark and the source of the
//! committed `BENCH_<date>.json` baselines at the repo root.
//!
//! Unlike the figure/table binaries (which reproduce the paper's
//! *protocol-level* metrics), this binary times the *implementation*:
//! wall-clock throughput of the structures every experiment runs on.
//! Four benchmarks cover the layers of the routing hot path:
//!
//! * `trie_build` — sequential PGCP-tree construction over the full
//!   grid corpus (≈1000 service names);
//! * `sync_pump_discovery` — a mixed discovery workload on the
//!   synchronous pump (90% exact/range/completion queries, 10%
//!   registrations/deregistrations) — the headline number, and the one
//!   the perf trajectory in EXPERIMENTS.md tracks;
//! * `cached_discovery_off` / `cached_discovery_on` — the same runtime
//!   under a Zipf-skewed mixed workload (90% skewed exact lookups, 10%
//!   re-registrations), with the per-peer shortcut cache
//!   (`dlpt-core::cache`) disabled vs. capacity 256; the on/off ratio
//!   is the caching subsystem's headline speedup;
//! * `latency_net_gather` — scatter/gather completion queries under the
//!   discrete-event runtime with randomized latencies. Runs several
//!   rounds and reports the fastest round (min-of-rounds, the
//!   criterion convention — wall-clock on shared runners suffers
//!   CPU-steal noise that only ever inflates timings), plus
//!   `latency_net_gather_p50` / `_p99` rows with per-query latency
//!   percentiles over every round;
//! * `gather_scaling_d1..d4` — the same scatter/gather engine swept
//!   over completion-prefix depth: depth 1 fans out across most of the
//!   tree, depth 4 touches a handful of nodes, so the row family
//!   tracks how gather cost scales with scatter fan-out;
//! * `codec_roundtrip` — envelope encode/decode over the wire format;
//! * `engine_dispatch` — raw exact-discovery throughput straight
//!   through the unified engine's `deliver` state machine on a FIFO
//!   transport (`dlpt_core::engine`), no facade overhead; also
//!   min-of-rounds. Ships with `engine_dispatch_hops_p50` / `_p99`
//!   rows read from the engine's log-bucketed metrics registry
//!   (`dlpt_core::obs`) — their `ns_per_op` *is* the hop percentile
//!   (a count, not nanoseconds; `ns_total` is synthesized as
//!   `pXX * ops` to keep the flat snapshot schema);
//! * `engine_dispatch_traced` — the identical pre-drawn plan with the
//!   ring-buffer tracer on (capacity 4096). The paired
//!   `engine_dispatch` / `engine_dispatch_traced` op/s ratio is the
//!   tracer-overhead gate: `scripts/bench_regress.py` fails if tracing
//!   costs more than 10%;
//! * `engine_dispatch_snapshot` — the identical plan again with the
//!   health observatory on: a `HealthMonitor` snapshot is collected at
//!   every unit boundary (`dlpt_core::obs::health`). The paired
//!   `engine_dispatch` / `engine_dispatch_snapshot` ratio is the
//!   snapshot-overhead gate: `bench_regress.py` fails above 5%;
//! * `parallel_pump_discovery` — batched exact discovery through the
//!   route-then-commit pump (`dlpt_core::engine::parallel`) at
//!   `--workers N` (default 4); the acceptance gate compares its op/s
//!   against single-worker `sync_pump_discovery`. A `parallel_pump_w1`
//!   / `_w2` / `_w4` / `_w8` sweep plus a derived
//!   `pump_scaling_efficiency` ratio row (w8 op/s over 8× w1 op/s,
//!   encoded so `ops_per_sec` *is* the ratio) feed the nproc-aware
//!   scaling gate in `scripts/bench_regress.py`.
//!
//! Usage: `perf [--smoke] [--label NAME] [--out PATH] [--workers N]
//! [--trace PATH]`
//!
//! `--smoke` runs a fraction of the iterations (CI keeps it under a
//! second) but still emits the full JSON snapshot; without `--out` the
//! snapshot lands in `BENCH_<utc-date>.json` in the current directory.
//! Timings are wall-clock; workloads themselves are fully seeded, so
//! two runs time byte-identical operation sequences.
//!
//! `--trace PATH` additionally runs a small seeded traced workload —
//! sequential requests plus a `workers`-way parallel batch — and dumps
//! its merged event stream as deterministic JSONL at PATH (plus a
//! chrome://tracing span file next to it). Two runs with the same
//! arguments produce byte-identical trace files.

use dlpt_core::engine::{FifoTransport, Step, Transport};
use dlpt_core::key::Key;
use dlpt_core::messages::{DiscoveryMsg, Envelope, NodeMsg, QueryKind, RoutePhase};
use dlpt_core::system::DlptSystem;
use dlpt_core::transport::FaultStats;
use dlpt_core::trie::PgcpTrie;
use dlpt_core::HealthMonitor;
use dlpt_net::codec;
use dlpt_net::sim::{LatencyModel, LatencyNet};
use dlpt_workloads::corpus::Corpus;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

struct BenchResult {
    name: &'static str,
    /// Unit of one operation, for the report ("key", "op", "query",
    /// "frame").
    unit: &'static str,
    ops: u64,
    ns_total: u128,
}

impl BenchResult {
    fn ns_per_op(&self) -> f64 {
        self.ns_total as f64 / self.ops.max(1) as f64
    }
    fn ops_per_sec(&self) -> f64 {
        if self.ns_total == 0 {
            return 0.0;
        }
        self.ops as f64 * 1e9 / self.ns_total as f64
    }
}

fn main() {
    let mut smoke = false;
    let mut label = String::from("snapshot");
    let mut out: Option<String> = None;
    let mut workers: usize = 4;
    let mut trace: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--label" => label = args.next().expect("--label NAME"),
            "--out" => out = args.next(),
            "--workers" => {
                workers = args
                    .next()
                    .expect("--workers N")
                    .parse()
                    .expect("worker count");
            }
            "--trace" => trace = Some(args.next().expect("--trace PATH")),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: perf [--smoke] [--label NAME] [--out PATH] [--workers N] \
                     [--trace PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    // Smoke mode divides iteration counts; the workload *shape* is
    // identical so the JSON schema and code paths are fully exercised.
    let scale: u64 = if smoke { 20 } else { 1 };

    let mut results = vec![
        bench_trie_build(scale),
        bench_sync_pump(scale),
        bench_cached_discovery(scale, 0),
        bench_cached_discovery(scale, 256),
    ];
    results.extend(bench_latency_net(scale));
    results.extend(bench_gather_scaling(scale));
    results.push(bench_codec(scale));
    results.extend(bench_engine_dispatch(scale, DispatchMode::Plain));
    results.extend(bench_engine_dispatch(scale, DispatchMode::Traced));
    results.extend(bench_engine_dispatch(scale, DispatchMode::Snapshot));
    results.extend(bench_parallel_pump(scale, workers));

    let date = utc_date();
    let path = out.unwrap_or_else(|| format!("BENCH_{date}.json"));
    let json = render_json(&label, &date, smoke, workers, &results);
    std::fs::write(&path, &json).expect("write benchmark snapshot");

    for r in &results {
        println!(
            "{:<22} {:>12} {}s  {:>12.0} ns/{}  {:>14.0} {}/s",
            r.name,
            r.ops,
            r.unit,
            r.ns_per_op(),
            r.unit,
            r.ops_per_sec(),
            r.unit,
        );
    }
    println!("snapshot: {path}");
    if let Some(trace_path) = trace {
        write_perf_trace(std::path::Path::new(&trace_path), workers);
    }
}

/// The `--trace` companion run: a small seeded workload with the
/// tracer on — sequential exact/completion requests plus one
/// `workers`-way parallel batch, so the dump exercises both the
/// sequential stamping and the `(round, worker, seq)` merge. Fully
/// seeded: two runs produce byte-identical JSONL.
fn write_perf_trace(path: &std::path::Path, workers: usize) {
    let corpus = Corpus::grid();
    let keys: Vec<Key> = corpus.keys.iter().take(64).cloned().collect();
    let mut sys = DlptSystem::builder()
        .seed(0x7124CE)
        .peer_id_len(12)
        .bootstrap_peers(16)
        .build();
    for k in &keys {
        sys.insert_data(k.clone()).expect("registration");
    }
    sys.set_tracing(1 << 14);
    for k in keys.iter().take(8) {
        sys.lookup(k);
    }
    sys.complete(&keys[0].truncated(2));
    let queries: Vec<QueryKind> = keys
        .iter()
        .take(32)
        .map(|k| QueryKind::Exact(k.clone()))
        .collect();
    sys.discover_batch(queries, workers.max(2))
        .expect("traced parallel batch");
    let events = sys.take_trace();
    let chrome = dlpt_bench::write_trace_files(path, &events).expect("write perf trace files");
    println!(
        "trace: {} events -> {} (+ {})",
        events.len(),
        path.display(),
        chrome.display()
    );
}

// ---------------------------------------------------------------------
// Benchmarks
// ---------------------------------------------------------------------

/// Sequential PGCP-tree construction over the grid corpus.
fn bench_trie_build(scale: u64) -> BenchResult {
    let corpus = Corpus::grid();
    // Each round is only ~0.3 ms, so even the smoke run keeps enough
    // rounds that one of them lands inside a steal-free window.
    let rounds = (40 / scale).max(10);
    // Warm-up build (page in the corpus, size the allocator pools).
    let mut warm = PgcpTrie::new();
    for k in &corpus.keys {
        warm.insert(k.clone());
    }
    // Min-of-rounds, like the other headline rows: each round is a
    // full rebuild, and the fastest one is the machine-quiet cost.
    let mut best = u128::MAX;
    for _ in 0..rounds {
        let start = Instant::now();
        let mut t = PgcpTrie::new();
        for k in &corpus.keys {
            t.insert(k.clone());
        }
        assert!(t.node_count() >= corpus.len());
        best = best.min(start.elapsed().as_nanos());
    }
    BenchResult {
        name: "trie_build",
        unit: "key",
        ops: corpus.len() as u64,
        ns_total: best,
    }
}

/// Mixed discovery workload on the synchronous pump: 90% discovery
/// (exact/range/completion), 10% data churn (register/deregister).
fn bench_sync_pump(scale: u64) -> BenchResult {
    let corpus = Corpus::grid();
    let keys: Vec<Key> = corpus.keys.iter().take(400).cloned().collect();
    let mut sys = DlptSystem::builder()
        .seed(0xBE_EF)
        .peer_id_len(12)
        .bootstrap_peers(48)
        .build();
    for k in &keys {
        sys.insert_data(k.clone()).expect("registration");
    }
    let ops = (60_000 / scale).max(500);
    // Warm-up: one query of each kind grows every internal buffer.
    sys.lookup(&keys[0]);
    sys.complete(&Key::from("S3L_m"));
    sys.range(&keys[1], &keys[2]);
    // Min-of-rounds over identical mixed-workload passes (steal noise
    // only ever adds time; the tree returns to steady state after
    // every pass, so rounds are comparable).
    let rounds = 3u32;
    let mut best = u128::MAX;
    for round in 0..rounds {
        let mut rng = StdRng::seed_from_u64(7 + round as u64);
        let start = Instant::now();
        let mut satisfied = 0u64;
        for i in 0..ops {
            match rng.gen_range(0..100u32) {
                0..=79 => {
                    let k = &keys[rng.gen_range(0..keys.len())];
                    if sys.lookup(k).satisfied {
                        satisfied += 1;
                    }
                }
                80..=84 => {
                    let a = rng.gen_range(0..keys.len());
                    let b = rng.gen_range(0..keys.len());
                    let (lo, hi) = (a.min(b), a.max(b));
                    sys.range(&keys[lo], &keys[hi]);
                }
                85..=89 => {
                    let k = &keys[rng.gen_range(0..keys.len())];
                    sys.complete(&k.truncated(3));
                }
                90..=94 => {
                    // Re-register an existing key from a random entry
                    // (idempotent; still routes the full insertion path).
                    let k = keys[rng.gen_range(0..keys.len())].clone();
                    sys.insert_data(k).expect("insert");
                }
                _ => {
                    // Deregister, then immediately re-register so the tree
                    // returns to steady state.
                    let k = keys[rng.gen_range(0..keys.len())].clone();
                    sys.remove_data(&k).expect("remove");
                    sys.insert_data(k).expect("re-insert");
                }
            }
            if i % 4096 == 0 {
                sys.end_time_unit();
            }
        }
        best = best.min(start.elapsed().as_nanos());
        assert!(satisfied > 0, "workload must find keys");
    }
    BenchResult {
        name: "sync_pump_discovery",
        unit: "op",
        ops,
        ns_total: best,
    }
}

/// Zipf-skewed mixed workload (90% skewed exact lookups, 10%
/// re-registrations) with the routing-shortcut cache off
/// (`cache_capacity` 0) vs. on (256 per peer). Identical seeds, so
/// both runs process byte-identical operation streams; the on/off
/// op/s ratio isolates what the one-hop cached route buys.
fn bench_cached_discovery(scale: u64, cache_capacity: usize) -> BenchResult {
    use dlpt_workloads::popularity::{Popularity, Zipf};
    let corpus = Corpus::grid();
    let keys: Vec<Key> = corpus.keys.iter().take(400).cloned().collect();
    let mut sys = DlptSystem::builder()
        .seed(0xCAC4E)
        .peer_id_len(12)
        .cache_capacity(cache_capacity)
        .bootstrap_peers(48)
        .build();
    for k in &keys {
        sys.insert_data(k.clone()).expect("registration");
    }
    let ops = (60_000 / scale).max(500);
    // Warm-up: one lookup grows the internal buffers.
    sys.lookup(&keys[0]);
    // Min-of-rounds over identical passes (see `bench_sync_pump`).
    let rounds = 3u32;
    let mut best = u128::MAX;
    for round in 0..rounds {
        let mut rng = StdRng::seed_from_u64(11 + round as u64);
        let mut zipf = Zipf::new(1.2);
        let start = Instant::now();
        let mut satisfied = 0u64;
        for i in 0..ops {
            if rng.gen_range(0..100u32) < 90 {
                let k = &keys[zipf.pick(&keys, &mut rng, 0)];
                if sys.lookup(k).satisfied {
                    satisfied += 1;
                }
            } else {
                // Re-register an existing key: routes the full insertion
                // path and exercises epoch bumps against warm caches.
                let k = keys[rng.gen_range(0..keys.len())].clone();
                sys.insert_data(k).expect("insert");
            }
            if i % 4096 == 0 {
                sys.end_time_unit();
            }
        }
        best = best.min(start.elapsed().as_nanos());
        assert!(satisfied > 0, "workload must find keys");
    }
    let ns_total = best;
    if cache_capacity > 0 {
        assert!(
            sys.cache_stats.hits > 0,
            "skewed workload must hit the cache"
        );
    } else {
        assert_eq!(sys.cache_stats.hits, 0);
    }
    BenchResult {
        name: if cache_capacity > 0 {
            "cached_discovery_on"
        } else {
            "cached_discovery_off"
        },
        unit: "op",
        ops,
        ns_total,
    }
}

/// Scatter/gather completion queries under randomized latencies.
///
/// Five rounds over the same prefix rotation; the headline row is the
/// fastest round (min-of-rounds — steal noise on shared runners only
/// ever adds time, so the minimum is the closest observable to the
/// machine-quiet cost). Per-query samples from every round feed the
/// `_p50` / `_p99` percentile rows, whose `ns_per_op` *is* the
/// percentile (their `ns_total` is synthesized as `pXX * ops` to keep
/// the flat snapshot schema).
fn bench_latency_net(scale: u64) -> Vec<BenchResult> {
    let corpus = Corpus::s3l();
    let mut net = LatencyNet::new(LatencyModel::Uniform(1, 30), 0xC0FFEE);
    let alphabet = dlpt_core::alphabet::Alphabet::grid();
    let mut rng = StdRng::seed_from_u64(0xFEED);
    let mut chosen = std::collections::BTreeSet::new();
    while chosen.len() < 16 {
        let id = alphabet.random_id(&mut rng, 10);
        if chosen.insert(id.clone()) {
            net.add_peer(id);
        }
    }
    for k in &corpus.keys {
        net.insert_data(k.clone());
    }
    let rounds = 5u64;
    let queries = (4_000 / scale).max(50);
    let prefixes = [
        Key::from("S3L_"),
        Key::from("S3L_mat"),
        Key::from("S3L_sort"),
        Key::from("S3L_gen"),
        Key::from("S3L_fft"),
    ];
    let mut samples: Vec<u64> = Vec::with_capacity((rounds * queries) as usize);
    let mut best_round = u128::MAX;
    for _ in 0..rounds {
        let round = Instant::now();
        for i in 0..queries {
            let q = Instant::now();
            let (ok, _results) = net.complete(&prefixes[(i % prefixes.len() as u64) as usize]);
            samples.push(q.elapsed().as_nanos() as u64);
            assert!(ok, "completion must reach its region");
        }
        best_round = best_round.min(round.elapsed().as_nanos());
    }
    samples.sort_unstable();
    let pct = |p: f64| samples[((samples.len() - 1) as f64 * p) as usize] as u128;
    let n = samples.len() as u64;
    vec![
        BenchResult {
            name: "latency_net_gather",
            unit: "query",
            ops: queries,
            ns_total: best_round,
        },
        BenchResult {
            name: "latency_net_gather_p50",
            unit: "query",
            ops: n,
            ns_total: pct(0.50) * n as u128,
        },
        BenchResult {
            name: "latency_net_gather_p99",
            unit: "query",
            ops: n,
            ns_total: pct(0.99) * n as u128,
        },
    ]
}

/// Gather cost vs. scatter fan-out: completion queries whose prefix
/// depth sweeps from 1 (the query fans out across most of the tree)
/// to 4 (a handful of nodes). One row per depth, so the slowest
/// subsystem's scaling behaviour — not just its headline mean — has a
/// committed trajectory.
///
/// Two rows per depth: `gather_scaling_dN` (ns/query) and
/// `gather_scaling_dN_visit` (ns per node visit, using the measured
/// round's visit count). The per-visit row is what separates real
/// fan-out from harness pathology: a depth-1 prefix covers most of the
/// 300-key tree, so d1 legitimately visits an order of magnitude more
/// nodes per query than d2 — its per-*query* cost is high while its
/// per-*visit* cost stays flat. (The original single-pass harness also
/// ran d1 first on cold buffers, inflating its row further; warm-up +
/// min-of-rounds removes that bias.)
fn bench_gather_scaling(scale: u64) -> Vec<BenchResult> {
    const DEPTHS: [(&str, &str, usize); 4] = [
        ("gather_scaling_d1", "gather_scaling_d1_visit", 1),
        ("gather_scaling_d2", "gather_scaling_d2_visit", 2),
        ("gather_scaling_d3", "gather_scaling_d3_visit", 3),
        ("gather_scaling_d4", "gather_scaling_d4_visit", 4),
    ];
    let corpus = Corpus::grid();
    let keys: Vec<Key> = corpus.keys.iter().take(300).cloned().collect();
    let mut net = LatencyNet::new(LatencyModel::Uniform(1, 30), 0xFA_0C);
    let alphabet = dlpt_core::alphabet::Alphabet::grid();
    let mut rng = StdRng::seed_from_u64(0xFA_22);
    let mut chosen = std::collections::BTreeSet::new();
    while chosen.len() < 16 {
        let id = alphabet.random_id(&mut rng, 10);
        if chosen.insert(id.clone()) {
            net.add_peer(id);
        }
    }
    for k in &keys {
        net.insert_data(k.clone());
    }
    let queries = (400 / scale).max(25);
    let mut rows = Vec::with_capacity(DEPTHS.len() * 2);
    for &(name, visit_name, depth) in DEPTHS.iter() {
        let run = |net: &mut LatencyNet| {
            for i in 0..queries {
                let k = &keys[(i as usize * 37) % keys.len()];
                let (ok, _results) = net.complete(&k.truncated(depth));
                assert!(ok, "completion must reach its region");
            }
        };
        // Warm-up: the first pass pays allocator growth (event queue,
        // gather buffers) that later passes reuse.
        run(&mut net);
        let mut best = u128::MAX;
        let mut visits = 0u64;
        for _ in 0..3 {
            let before = net.stats.discovery_messages;
            let start = Instant::now();
            run(&mut net);
            best = best.min(start.elapsed().as_nanos());
            // The query set is fixed, so the visit count is identical
            // in every round.
            visits = net.stats.discovery_messages - before;
        }
        rows.push(BenchResult {
            name,
            unit: "query",
            ops: queries,
            ns_total: best,
        });
        rows.push(BenchResult {
            name: visit_name,
            unit: "visit",
            ops: visits.max(1),
            ns_total: best,
        });
    }
    rows
}

/// Envelope encode/decode round-trips over representative frames.
fn bench_codec(scale: u64) -> BenchResult {
    let corpus = Corpus::grid();
    let envs: Vec<Envelope> = corpus
        .keys
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
    let rounds = (2_000 / scale).max(40);
    let start = Instant::now();
    let mut bytes = 0usize;
    for _ in 0..rounds {
        for env in &envs {
            let frame = codec::encode(env);
            bytes += frame.len();
            let back = codec::decode(&frame).expect("round-trip");
            debug_assert_eq!(&back, env);
        }
    }
    let ns_total = start.elapsed().as_nanos();
    assert!(bytes > 0);
    BenchResult {
        name: "codec_roundtrip",
        unit: "frame",
        ops: rounds * envs.len() as u64,
        ns_total,
    }
}

/// Raw engine dispatch: exact discovery requests driven straight
/// through `Engine::deliver` over a FIFO transport — the unified state
/// machine's per-envelope cost with no facade (drain bookkeeping,
/// outcome plumbing) around it. Six rounds replay the identical
/// pre-drawn plan; the reported row is the fastest round
/// (min-of-rounds, same rationale as `latency_net_gather`).
///
/// In `Plain` mode every observability hook stays off
/// (`Tracer::Noop`, no health monitor) and the function also emits
/// `engine_dispatch_hops_p50` / `_p99` rows from the engine's metrics
/// registry; `Traced` runs the identical plan with the ring tracer on
/// (capacity 4096) as `engine_dispatch_traced`; `Snapshot` runs it
/// with a `HealthMonitor` collected at every unit boundary as
/// `engine_dispatch_snapshot`. The paired off/on op/s ratios are the
/// committed tracer- and snapshot-overhead numbers.
#[derive(Clone, Copy, PartialEq)]
enum DispatchMode {
    Plain,
    Traced,
    Snapshot,
}

fn bench_engine_dispatch(scale: u64, mode: DispatchMode) -> Vec<BenchResult> {
    let corpus = Corpus::grid();
    let keys: Vec<Key> = corpus.keys.iter().take(400).cloned().collect();
    let mut sys = DlptSystem::builder()
        .seed(0xE9_61E)
        .peer_id_len(12)
        .bootstrap_peers(48)
        .build();
    for k in &keys {
        sys.insert_data(k.clone()).expect("registration");
    }
    sys.set_tracing(if mode == DispatchMode::Traced {
        4096
    } else {
        0
    });
    let mut monitor = HealthMonitor::new();
    if mode == DispatchMode::Snapshot {
        // Warm collection: grow the monitor's buffers outside the
        // timed region so the in-loop collect is allocation-free.
        sys.collect_health(0, &FaultStats::default(), &mut monitor);
    }
    let rounds = 6u64;
    // Floor high enough that the smoke run keeps the full run's
    // 1-in-4096 snapshot cadence (two collections per round) and the
    // paired off/on ratios stay meaningful — at 500 ops the lone
    // i == 0 collection weighs 4× its full-run share and round noise
    // swamps the ≤5% snapshot gate.
    let ops = (20_000 / scale).max(8192);
    let mut rng = StdRng::seed_from_u64(17);
    // Pre-draw (entry, key) pairs so the timed loop is dispatch only.
    let plan: Vec<(Key, Key)> = (0..ops)
        .map(|_| {
            let key = keys[rng.gen_range(0..keys.len())].clone();
            let entry = sys.random_node().expect("non-empty tree");
            (entry, key)
        })
        .collect();
    let mut best_round = u128::MAX;
    for _ in 0..rounds {
        let mut t = FifoTransport::default();
        let mut satisfied = 0u64;
        let start = Instant::now();
        for (i, (entry, key)) in plan.iter().enumerate() {
            let (id, env) = sys
                .begin_request(entry, QueryKind::Exact(key.clone()))
                .expect("live entry");
            t.deliver(env);
            while let Some((_, env)) = t.queue.pop_front() {
                match sys.deliver(&mut t, env).expect("dispatch") {
                    Step::Done => {}
                    Step::Requeue(_) => unreachable!("static tree never requeues"),
                }
            }
            if sys.take_finished(id).expect("request completed").satisfied {
                satisfied += 1;
            }
            if i % 4096 == 0 {
                if mode == DispatchMode::Snapshot {
                    sys.collect_health((i / 4096) as u64, &FaultStats::default(), &mut monitor);
                }
                sys.end_time_unit();
            }
        }
        best_round = best_round.min(start.elapsed().as_nanos());
        assert!(satisfied > 0, "workload must find keys");
        // Drain outside the timed region: the per-event emit cost is
        // what the overhead row measures; consumers drain at their own
        // cadence.
        let _ = sys.take_trace();
    }
    match mode {
        DispatchMode::Traced => {
            return vec![BenchResult {
                name: "engine_dispatch_traced",
                unit: "op",
                ops,
                ns_total: best_round,
            }];
        }
        DispatchMode::Snapshot => {
            assert!(
                monitor.snap.nodes > 0 && monitor.snap.bytes.total() > 0,
                "snapshot mode must have collected real state"
            );
            return vec![BenchResult {
                name: "engine_dispatch_snapshot",
                unit: "op",
                ops,
                ns_total: best_round,
            }];
        }
        DispatchMode::Plain => {}
    }
    // Percentile rows from the log-bucketed registry, accumulated over
    // every round. Same synthesized-`ns_total` convention as the
    // latency percentiles — except here `ns_per_op` is a *hop count*.
    let recorded = sys.metrics.hops.count().max(1);
    vec![
        BenchResult {
            name: "engine_dispatch",
            unit: "op",
            ops,
            ns_total: best_round,
        },
        BenchResult {
            name: "engine_dispatch_hops_p50",
            unit: "op",
            ops: recorded,
            ns_total: sys.metrics.hops.quantile(0.50).unwrap_or(0) as u128 * recorded as u128,
        },
        BenchResult {
            name: "engine_dispatch_hops_p99",
            unit: "op",
            ops: recorded,
            ns_total: sys.metrics.hops.quantile(0.99).unwrap_or(0) as u128 * recorded as u128,
        },
    ]
}

/// One worker count of the parallel-pump workload: the same overlay
/// shape as `sync_pump_discovery`, pure exact queries, processed in
/// 4096-request batches through the route-then-commit pump.
fn pump_row(scale: u64, workers: usize, name: &'static str) -> BenchResult {
    let corpus = Corpus::grid();
    let keys: Vec<Key> = corpus.keys.iter().take(400).cloned().collect();
    let mut sys = DlptSystem::builder()
        .seed(0xBA_7C4)
        .peer_id_len(12)
        .bootstrap_peers(48)
        .build();
    for k in &keys {
        sys.insert_data(k.clone()).expect("registration");
    }
    let ops = (240_000 / scale).max(2_000);
    let batch = 4096usize;
    let mut rng = StdRng::seed_from_u64(19);
    // Warm-up batch grows every internal buffer (queues, gather maps)
    // outside the timed region. Worker threads and the ring mesh are
    // rebuilt per batch, so the timed op/s *includes* that spawn cost —
    // a persistent worker pool is the obvious next optimization.
    let warm: Vec<QueryKind> = (0..256)
        .map(|_| QueryKind::Exact(keys[rng.gen_range(0..keys.len())].clone()))
        .collect();
    sys.discover_batch(warm, workers).expect("warm-up batch");
    // Min-of-rounds over full passes: thread scheduling on a shared
    // box adds wildly variable stall time, and only ever *adds* — the
    // fastest pass is the machine-quiet cost.
    let rounds = 3u32;
    let mut best = u128::MAX;
    for _ in 0..rounds {
        let mut satisfied = 0u64;
        let mut remaining = ops;
        let start = Instant::now();
        while remaining > 0 {
            let n = (remaining as usize).min(batch);
            let queries: Vec<QueryKind> = (0..n)
                .map(|_| QueryKind::Exact(keys[rng.gen_range(0..keys.len())].clone()))
                .collect();
            let outs = sys.discover_batch(queries, workers).expect("batch");
            satisfied += outs.iter().filter(|o| o.satisfied).count() as u64;
            sys.end_time_unit();
            remaining -= n as u64;
        }
        best = best.min(start.elapsed().as_nanos());
        assert!(satisfied > 0, "workload must find keys");
    }
    BenchResult {
        name,
        unit: "op",
        ops,
        ns_total: best,
    }
}

/// The parallel-pump scaling sweep: one row per worker count in
/// {1, 2, 4, 8} (`parallel_pump_wN`), the headline
/// `parallel_pump_discovery` row at the `--workers` argument, and the
/// derived `pump_scaling_efficiency` row — w8 throughput over 8× the
/// w1 throughput, encoded so `ops_per_sec` *is* the ratio (gateable by
/// `scripts/bench_regress.py` like any other row). Efficiency on a
/// single-core container measures overhead, not scaling — interpret it
/// together with the recorded `nproc`.
fn bench_parallel_pump(scale: u64, workers: usize) -> Vec<BenchResult> {
    const SWEEP: [(usize, &str); 4] = [
        (1, "parallel_pump_w1"),
        (2, "parallel_pump_w2"),
        (4, "parallel_pump_w4"),
        (8, "parallel_pump_w8"),
    ];
    let mut rows: Vec<BenchResult> = SWEEP
        .iter()
        .map(|&(w, name)| pump_row(scale, w, name))
        .collect();
    let w1_ops = rows[0].ops_per_sec();
    let w8_ops = rows[3].ops_per_sec();
    let headline = match SWEEP.iter().position(|&(w, _)| w == workers) {
        // The sweep already measured this worker count; reuse the
        // timing so the two rows can never disagree.
        Some(i) => BenchResult {
            name: "parallel_pump_discovery",
            unit: "op",
            ops: rows[i].ops,
            ns_total: rows[i].ns_total,
        },
        None => pump_row(scale, workers, "parallel_pump_discovery"),
    };
    rows.push(headline);
    // ops_per_sec = ops·1e9/ns_total, so ops = ratio·1e6 against a
    // fixed 1e15 ns denominator makes the reported ops_per_sec equal
    // the efficiency ratio itself.
    let efficiency = if w1_ops > 0.0 {
        w8_ops / (8.0 * w1_ops)
    } else {
        0.0
    };
    rows.push(BenchResult {
        name: "pump_scaling_efficiency",
        unit: "ratio",
        ops: (efficiency * 1e6).round() as u64,
        ns_total: 1_000_000_000_000_000,
    });
    rows
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

/// Renders the snapshot as JSON (hand-rolled; the workspace is
/// offline-only and the schema is flat).
fn render_json(
    label: &str,
    date: &str,
    smoke: bool,
    workers: usize,
    results: &[BenchResult],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"label\": \"{label}\",");
    let _ = writeln!(s, "  \"date\": \"{date}\",");
    let _ = writeln!(s, "  \"smoke\": {smoke},");
    let _ = writeln!(s, "  \"workers\": {workers},");
    // Hardware context: scaling rows from a single-core container are
    // overhead measurements, not parallel speedups — record the core
    // count so regression tooling can tell the two apart.
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let _ = writeln!(s, "  \"nproc\": {nproc},");
    s.push_str("  \"benchmarks\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str("    {");
        let _ = write!(
            s,
            "\"name\": \"{}\", \"unit\": \"{}\", \"ops\": {}, \"ns_total\": {}, \
             \"ns_per_op\": {:.1}, \"ops_per_sec\": {:.1}",
            r.name,
            r.unit,
            r.ops,
            r.ns_total,
            r.ns_per_op(),
            r.ops_per_sec()
        );
        s.push_str(if i + 1 == results.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Current UTC date as `YYYY-MM-DD` (civil-from-days, Howard Hinnant's
/// algorithm; avoids a chrono dependency).
fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after 1970")
        .as_secs() as i64;
    let z = secs.div_euclid(86_400) + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the `gather_scaling_d1` "anomaly" as real fan-out, not a
    /// harness bug: on the bench's own topology, a depth-1 completion
    /// visits an order of magnitude more nodes than a depth-2 one —
    /// the per-query cost ratio in the committed snapshots tracks the
    /// visit-count ratio, which is exactly what the `_visit` rows
    /// normalize away.
    #[test]
    fn depth1_completions_fan_out_over_most_of_the_tree() {
        let corpus = Corpus::grid();
        let keys: Vec<Key> = corpus.keys.iter().take(300).cloned().collect();
        let mut net = LatencyNet::new(LatencyModel::Uniform(1, 30), 0xFA_0C);
        let alphabet = dlpt_core::alphabet::Alphabet::grid();
        let mut rng = StdRng::seed_from_u64(0xFA_22);
        let mut chosen = std::collections::BTreeSet::new();
        while chosen.len() < 16 {
            let id = alphabet.random_id(&mut rng, 10);
            if chosen.insert(id.clone()) {
                net.add_peer(id);
            }
        }
        for k in &keys {
            net.insert_data(k.clone());
        }
        let mut visits_at = |depth: usize| {
            let before = net.stats.discovery_messages;
            for i in 0..25usize {
                let k = &keys[(i * 37) % keys.len()];
                let (ok, _) = net.complete(&k.truncated(depth));
                assert!(ok, "completion must reach its region");
            }
            net.stats.discovery_messages - before
        };
        let d1 = visits_at(1);
        let d2 = visits_at(2);
        let d4 = visits_at(4);
        assert!(
            d1 >= 5 * d2,
            "depth-1 queries must fan out over far more nodes (d1={d1}, d2={d2})"
        );
        assert!(
            d2 > d4,
            "fan-out must shrink monotonically with depth (d2={d2}, d4={d4})"
        );
    }
}
