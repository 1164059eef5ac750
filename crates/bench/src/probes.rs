//! Two probes that run no Section-4 experiment: the memory-accounting
//! sweep and the batch-pump determinism fingerprint.

use crate::{write_results, Entry, Opts};
use dlpt_core::key::Key;
use dlpt_core::messages::QueryKind;
use dlpt_core::system::DlptSystem;
use dlpt_core::transport::FaultStats;
use dlpt_core::HealthMonitor;
use dlpt_workloads::corpus::Corpus;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `footprint` — per-node and per-peer memory accounting over ring
/// size (`dlpt-core::obs::health`).
///
/// Builds a static overlay at each sweep size, registers the full grid
/// corpus (≈1000 service names), routes one warm-up pass so the
/// shortcut caches hold real entries, and reports the
/// `Engine::bytes_estimate` walk: total footprint split by component
/// (directory, peer slab, shard maps, route caches), bytes per tree
/// node and bytes per peer. The 1k/10k rows are the committed
/// footprint table in EXPERIMENTS.md. `--scale N` divides the sweep
/// sizes. The invariant auditor runs at every size and a violation
/// panics, so the sweep doubles as a large-scale consistency check.
pub fn footprint(_: &Entry, opts: &Opts) {
    let mut csv = String::from(
        "peers,nodes,directory_bytes,slab_bytes,shard_bytes,cache_bytes,total_bytes,\
         bytes_per_node,bytes_per_peer\n",
    );
    println!("  peers   nodes  total(KiB)  dir(KiB)  slab(KiB)  shards(KiB)  caches(KiB)  B/node  B/peer");
    for sweep_size in [100usize, 1_000, 10_000] {
        let peers = (sweep_size / opts.scale).max(50);
        eprintln!("[footprint] measuring {peers} peers…");
        let corpus = Corpus::grid();
        let mut sys = DlptSystem::builder()
            .seed(0xF007 ^ peers as u64)
            .peer_id_len(12)
            .cache_capacity(64)
            .bootstrap_peers(peers)
            .build();
        for k in &corpus.keys {
            sys.insert_data(k.clone()).expect("registration");
        }
        // One lookup pass warms the per-peer shortcut caches so the cache
        // column reflects a working system, not empty preallocations.
        for k in corpus.keys.iter().take(200) {
            sys.lookup(k);
        }

        let violations = sys.audit();
        for v in &violations {
            eprintln!("[footprint] {peers} peers: {v}");
        }
        assert!(
            violations.is_empty(),
            "{peers}-peer overlay must audit clean ({} violations)",
            violations.len()
        );

        let mut mon = HealthMonitor::new();
        sys.collect_health(0, &FaultStats::default(), &mut mon);
        let (snap, b) = (&mon.snap, &mon.snap.bytes);
        let (per_node, per_peer) = (b.per_node(snap.nodes), b.per_peer(snap.peers));
        csv += &format!(
            "{},{},{},{},{},{},{},{per_node:.1},{per_peer:.1}\n",
            snap.peers,
            snap.nodes,
            b.directory_bytes,
            b.slab_bytes,
            b.shard_bytes,
            b.cache_bytes,
            b.total(),
        );
        let kib = |bytes: usize| bytes as f64 / 1024.0;
        println!(
            "  {:>5}  {:>6}  {:>10.1}  {:>8.1}  {:>9.1}  {:>11.1}  {:>11.1}  {per_node:>6.1}  {per_peer:>6.1}",
            snap.peers,
            snap.nodes,
            kib(b.total()),
            kib(b.directory_bytes),
            kib(b.slab_bytes),
            kib(b.shard_bytes),
            kib(b.cache_bytes),
        );
    }
    write_results("footprint.csv", &csv);
}

fn build(seed: u64, keys: &[Key], capacity: u32) -> DlptSystem {
    let mut sys = DlptSystem::builder()
        .seed(seed)
        .peer_id_len(12)
        .default_capacity(capacity)
        .bootstrap_peers(24)
        .build();
    for k in keys {
        sys.insert_data(k.clone()).expect("registration");
    }
    sys
}

fn queries(seed: u64, keys: &[Key], n: usize) -> Vec<QueryKind> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF1F0);
    (0..n)
        .map(|i| match i % 16 {
            14 => {
                let k = &keys[rng.gen_range(0..keys.len())];
                QueryKind::Complete(k.truncated(3))
            }
            15 => {
                let a = rng.gen_range(0..keys.len());
                let b = rng.gen_range(0..keys.len());
                QueryKind::range(keys[a.min(b)].clone(), keys[a.max(b)].clone())
            }
            _ => QueryKind::Exact(keys[rng.gen_range(0..keys.len())].clone()),
        })
        .collect()
}

/// `pump_fingerprint` — the batch-pump determinism probe.
///
/// Builds a seeded overlay, pushes a seeded mixed discovery workload
/// through the route-then-commit pump (`dlpt_core::engine::parallel`)
/// and prints a canonical fingerprint of everything observable:
/// placements, per-request outcomes and the engine counters — once
/// with unbounded peers and once at a per-peer capacity tight enough
/// to refuse visits. Stdout must be byte-identical across repeats
/// *and* across `--workers` values (the worker count goes to stderr) —
/// CI runs it at 1, 4 and 8 workers and diffs. It also cross-checks
/// each batch against the sequential pump on an identically seeded
/// twin system (outcomes and counters must be equal) and exits
/// non-zero on any mismatch, so the probe is self-verifying even in
/// one invocation.
pub fn pump_fingerprint(_: &Entry, opts: &Opts) {
    let (seed, workers, requests) = (opts.seed, opts.workers, opts.requests);
    let corpus = Corpus::grid();
    let keys: Vec<Key> = corpus.keys.iter().take(200).cloned().collect();

    eprintln!("workers: {workers}");
    println!("seed: {seed} requests: {requests}");
    let mut mismatches = 0usize;
    // Unbounded, then a capacity the peers hosting the top of the tree
    // exhaust about a third of the way through the batch.
    for capacity in [u32::MAX >> 1, (requests * 4).max(1) as u32] {
        let mut par = build(seed, &keys, capacity);
        let par_out = par
            .discover_batch(queries(seed, &keys, requests), workers)
            .expect("parallel batch");

        // Sequential twin: same seed, same construction, same query
        // stream, one request at a time through the FIFO pump.
        let mut seq = build(seed, &keys, capacity);
        let seq_out: Vec<_> = queries(seed, &keys, requests)
            .into_iter()
            .map(|q| seq.request(q).expect("sequential request"))
            .collect();
        for (i, (a, b)) in seq_out.iter().zip(&par_out).enumerate() {
            if a != b {
                eprintln!("request {i}: sequential {a:?} != parallel {b:?}");
                mismatches += 1;
            }
        }
        if seq.stats != par.stats {
            eprintln!("sequential {:?} != parallel {:?}", seq.stats, par.stats);
            mismatches += 1;
        }

        // The canonical fingerprint: stats, placements, outcome digests.
        println!("capacity: {capacity}");
        println!("stats: {:?}", par.stats);
        println!("peers: {:?}", par.peer_ids());
        for label in par.node_labels() {
            println!("node {:?} on {:?}", label, par.host_of(&label));
        }
        for (i, o) in par_out.iter().enumerate() {
            println!(
                "outcome {i}: satisfied={} dropped={} results={:?} hops={}",
                o.satisfied,
                o.dropped,
                o.results,
                o.logical_hops()
            );
        }
    }

    if mismatches > 0 {
        eprintln!("{mismatches} mismatches between sequential and parallel runs");
        std::process::exit(1);
    }
}
