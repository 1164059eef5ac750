//! `pump_fingerprint` — the batch-pump determinism probe.
//!
//! Builds a seeded overlay, pushes a seeded mixed discovery workload
//! through the route-then-commit pump (`dlpt_core::engine::parallel`)
//! and prints a canonical fingerprint of everything observable:
//! placements, per-request outcomes and the engine counters — once
//! with unbounded peers and once at a per-peer capacity tight enough
//! to refuse visits. Stdout must be byte-identical across repeats
//! *and* across `--workers` values (the worker count goes to stderr) —
//! CI runs it at 1, 4 and 8 workers and diffs. It also cross-checks
//! each batch against the sequential pump on an identically seeded
//! twin system (outcomes and counters must be equal) and exits
//! non-zero on any mismatch, so the probe is self-verifying even in
//! one invocation.
//!
//! Usage: `pump_fingerprint [--seed N] [--workers N] [--requests N]`

use dlpt_core::key::Key;
use dlpt_core::messages::QueryKind;
use dlpt_core::system::DlptSystem;
use dlpt_workloads::corpus::Corpus;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
                QueryKind::Range(keys[a.min(b)].clone(), keys[a.max(b)].clone())
            }
            _ => QueryKind::Exact(keys[rng.gen_range(0..keys.len())].clone()),
        })
        .collect()
}

fn main() {
    let mut seed = 42u64;
    let mut workers = 4usize;
    let mut requests = 2_000usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => seed = args.next().expect("--seed N").parse().expect("u64"),
            "--workers" => workers = args.next().expect("--workers N").parse().expect("usize"),
            "--requests" => requests = args.next().expect("--requests N").parse().expect("usize"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: pump_fingerprint [--seed N] [--workers N] [--requests N]");
                std::process::exit(2);
            }
        }
    }

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
