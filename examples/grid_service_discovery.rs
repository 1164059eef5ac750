//! A grid middleware scenario: the full linear-algebra service corpus
//! (BLAS, LAPACK, ScaLAPACK, S3L — ≈1000 routine names) served by a
//! heterogeneous ring, with the discovery patterns the paper's
//! introduction motivates: exact lookup, library browsing by prefix,
//! and range scans.
//!
//! ```sh
//! cargo run --release --example grid_service_discovery
//! ```

use dlpt::core::{DlptSystem, Key};
use dlpt::workloads::capacity::CapacityModel;
use dlpt::workloads::corpus::Corpus;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let corpus = Corpus::grid();
    println!(
        "grid corpus: {} routine names (BLAS + LAPACK + ScaLAPACK + S3L)",
        corpus.len()
    );

    // 40 peers with the paper's heterogeneity: max/min capacity 4.
    let mut sys = DlptSystem::builder().seed(42).build();
    let capacities = CapacityModel::paper(1_000_000);
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..40 {
        let cap = capacities.draw(&mut rng);
        sys.add_peer(cap).expect("join");
    }

    for key in &corpus.keys {
        sys.insert_data(key.clone()).expect("register");
    }
    println!(
        "{} peers host {} logical nodes ({} registered keys)",
        sys.peer_count(),
        sys.node_count(),
        sys.registered_keys().len()
    );
    sys.assert_clean();

    // A solver needs a double-precision GEMM right now.
    let out = sys.lookup(&Key::from("DGEMM"));
    println!(
        "\nlookup DGEMM: found={} ({} logical hops, {} physical)",
        out.found,
        out.logical_hops(),
        out.physical_hops()
    );

    // Browse: which S3L FFT routines are deployed?
    let out = sys.complete(&Key::from("S3L_fft"));
    println!("S3L FFT family: {:?}", to_names(&out.results));

    // Which double-precision LAPACK QR routines exist? Prefix "DGEQ".
    let out = sys.complete(&Key::from("DGEQ"));
    println!("DGEQ* routines: {:?}", to_names(&out.results));

    // Range scan across the ScaLAPACK single-precision drivers.
    let out = sys.range(&Key::from("PSGE"), &Key::from("PSGZ"));
    println!(
        "ScaLAPACK PSGE..PSGZ range: {} routines, e.g. {:?}",
        out.results.len(),
        to_names(&out.results[..out.results.len().min(5)])
    );

    // Locality of the mapping: how many peers serve the S3L subtree?
    let s3l_hosts: std::collections::BTreeSet<_> = sys
        .node_labels()
        .into_iter()
        .filter(|l| Key::from("S3L").is_prefix_of(l))
        .filter_map(|l| sys.host_of(&l).cloned())
        .collect();
    println!(
        "\nlexicographic locality: the whole S3L subtree lives on {} peer(s) of {}",
        s3l_hosts.len(),
        sys.peer_count()
    );
}

fn to_names(keys: &[Key]) -> Vec<String> {
    keys.iter().map(|k| k.to_string()).collect()
}
