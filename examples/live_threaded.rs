//! The live runtime: every peer is an OS thread, protocol messages
//! travel as length-prefixed binary frames over channels — the same
//! handlers the simulator drives, now under real concurrency.
//!
//! ```sh
//! cargo run --example live_threaded
//! ```

use dlpt::core::{Alphabet, Key, PgcpTrie};
use dlpt::net::ThreadedDlpt;

fn main() {
    let mut net = ThreadedDlpt::new(Alphabet::grid(), 7);
    for _ in 0..6 {
        let id = net.add_peer();
        println!("spawned peer thread {id}");
    }

    let services = [
        "DGEMM",
        "DGEMV",
        "DTRSM",
        "SGEMM",
        "S3L_fft",
        "S3L_sort",
        "S3L_mat_mult",
        "PSGESV",
        "PDGETRF",
        "ZHEEV",
    ];
    for s in services {
        net.insert_data(s);
    }
    println!(
        "\nregistered {} services across {} node(s) on {} peer threads",
        services.len(),
        net.node_labels().len(),
        net.peer_count()
    );

    for probe in ["DGEMM", "S3L_fft", "PSGESV"] {
        let (found, _) = net.lookup(&Key::from(probe));
        println!("lookup {probe}: found={found}");
    }
    let s3l = net.complete(&Key::from("S3L")).results;
    println!(
        "complete 'S3L' -> {:?}",
        s3l.iter().map(|k| k.to_string()).collect::<Vec<_>>()
    );

    // Deregistration works live too.
    net.remove_data(&Key::from("S3L_sort"))
        .expect("the ring is live");
    let (found, _) = net.lookup(&Key::from("S3L_sort"));
    println!("after removal, lookup S3L_sort: found={found}");

    // The concurrently-built tree equals the sequential oracle.
    let mut oracle = PgcpTrie::new();
    for s in services {
        if s != "S3L_sort" {
            oracle.insert(Key::from(s));
        }
    }
    assert_eq!(net.node_labels(), oracle.labels());
    println!(
        "\nthread-built tree equals the sequential oracle ({} frames handled, {} bounced)",
        *net.stats.frames_handled.lock(),
        *net.stats.frames_bounced.lock()
    );
    net.shutdown();
    println!("all peer threads joined cleanly");
}
