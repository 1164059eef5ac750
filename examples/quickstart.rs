//! Quickstart: build a DLPT overlay, register services, discover them.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use dlpt::core::{DlptSystem, Key};

fn main() {
    // A ring of 8 peers with random identifiers. The overlay is
    // self-contained: peers join through the prefix tree itself, no
    // DHT underneath (the paper's first contribution).
    let mut sys = DlptSystem::builder().seed(2008).bootstrap_peers(8).build();
    println!("ring of {} peers", sys.peer_count());

    // Servers declare the services they provide. Keys are plain
    // strings — here, linear-algebra routine names as in the paper.
    for service in [
        "DGEMM",
        "DGEMV",
        "DTRSM",
        "SGEMM",
        "S3L_mat_mult",
        "S3L_fft",
    ] {
        sys.insert_data(service).expect("registration succeeds");
    }
    println!(
        "registered {} services over {} tree nodes",
        sys.registered_keys().len(),
        sys.node_count()
    );

    // Exact discovery: the request enters the tree at a random node,
    // climbs to the region covering the key, and descends to it.
    let out = sys.lookup(&Key::from("DGEMM"));
    println!(
        "lookup DGEMM: satisfied={} in {} logical hops ({} physical)",
        out.satisfied,
        out.logical_hops(),
        out.physical_hops()
    );

    // Automatic completion of a partial search string…
    let out = sys.complete(&Key::from("DGE"));
    let names: Vec<String> = out.results.iter().map(|k| k.to_string()).collect();
    println!("complete 'DGE' -> {names:?}");

    // …and range queries (Section 2: trie overlays make both easy).
    let out = sys.range(&Key::from("DGEMM"), &Key::from("DTRSM"));
    let names: Vec<String> = out.results.iter().map(|k| k.to_string()).collect();
    println!("range [DGEMM, DTRSM] -> {names:?}");

    // Every invariant of the paper holds at all times.
    sys.assert_clean();
    println!("invariants: tree OK, mapping OK, ring OK");
}
