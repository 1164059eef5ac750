//! Renders the paper's illustrative figures:
//!
//! * Figure 1(a): the PGCP tree of the binary keys 01, 10101, 10111,
//!   101111 (structural nodes in parentheses);
//! * Figure 1(b): a PGCP tree over BLAS routine names;
//! * Figure 2: the ring mapping — which peer runs which node;
//! * Figure 3: one MLT boundary move, before/after.
//!
//! ```sh
//! cargo run --example tree_visualization
//! ```

use dlpt::core::balance::mlt::rebalance_pair;
use dlpt::core::{Alphabet, DlptSystem, Key, PgcpTrie};

fn main() {
    // ----- Figure 1(a) ------------------------------------------------
    let mut t = PgcpTrie::new();
    for k in ["01", "10101", "10111", "101111"] {
        t.insert(Key::from(k));
    }
    println!(
        "Figure 1(a): PGCP tree of binary identifiers\n{}",
        t.render()
    );

    // ----- Figure 1(b) ------------------------------------------------
    let mut t = PgcpTrie::new();
    for k in ["DTRSM", "DTRMM", "DGEMM", "DGEMV", "DGETRF", "DSYSV"] {
        t.insert(Key::from(k));
    }
    println!(
        "Figure 1(b): PGCP tree of BLAS/LAPACK routines\n{}",
        t.render()
    );

    // ----- Figure 2: the self-contained ring mapping --------------------
    let mut sys = DlptSystem::builder()
        .alphabet(Alphabet::binary())
        .seed(7)
        .peer_id_len(6)
        .bootstrap_peers(4)
        .build();
    for k in ["01", "10101", "10111", "101111"] {
        sys.insert_data(Key::from(k)).unwrap();
    }
    println!("Figure 2: node -> peer mapping (lowest peer id >= node id)");
    let peers = sys.peer_ids();
    for p in &peers {
        let shard = sys.shard(p).unwrap();
        let nodes: Vec<String> = shard.nodes.keys().map(|k| k.to_string()).collect();
        println!("  peer {p}  runs {nodes:?}");
    }
    sys.assert_clean();

    // ----- Figure 3: one MLT step ---------------------------------------
    let mut sys = DlptSystem::builder().seed(3).peer_id_len(4).build();
    sys.add_peer_with_id(Key::from("M000"), 2).unwrap(); // weak peer
    sys.add_peer_with_id(Key::from("Z000"), 30).unwrap(); // strong peer
    for k in ["A0", "C0", "E0", "G0", "J0"] {
        sys.insert_data(Key::from(k)).unwrap();
    }
    // Load the weak peer's nodes for one time unit.
    for _ in 0..40 {
        sys.lookup(&Key::from("C0"));
    }
    sys.end_time_unit();

    println!("\nFigure 3: MLT boundary move");
    print_distribution("before", &sys);
    let strong = Key::from("Z000");
    let moved = rebalance_pair(&mut sys, &strong);
    print_distribution("after ", &sys);
    println!("  boundary moved: {moved} (the weak peer keeps only what it can serve)");
    sys.assert_clean();
}

fn print_distribution(tag: &str, sys: &DlptSystem) {
    for p in sys.peer_ids() {
        let shard = sys.shard(&p).unwrap();
        let nodes: Vec<String> = shard
            .nodes
            .values()
            .map(|n| format!("{}(l={})", n.label, n.prev_load))
            .collect();
        println!(
            "  {tag} peer {p} (capacity {:>2}): {nodes:?}",
            shard.peer.capacity
        );
    }
}
