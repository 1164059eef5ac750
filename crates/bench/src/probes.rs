//! The probe that runs no Section-4 experiment: the memory-accounting
//! sweep.

use crate::{write_results, Entry, Opts};
use dlpt_core::system::DlptSystem;
use dlpt_core::transport::FaultStats;
use dlpt_core::HealthMonitor;
use dlpt_workloads::corpus::Corpus;

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
