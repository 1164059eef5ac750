//! Churn resilience: peers join and leave (gracefully and by crash)
//! while the service registry keeps answering.
//!
//! ```sh
//! cargo run --example churn_resilience
//! ```

use dlpt::core::{DlptSystem, Key};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(1234);
    let mut sys = DlptSystem::builder().seed(99).bootstrap_peers(12).build();

    let services: Vec<Key> = (0..80)
        .map(|i| {
            Key::from(format!(
                "SVC_{:02}_{}",
                i % 20,
                ["fft", "gemm", "sort", "lu"][i % 4]
            ))
        })
        .collect();
    for s in &services {
        sys.insert_data(s.clone()).unwrap();
    }
    println!(
        "start: {} peers, {} nodes, {} services",
        sys.peer_count(),
        sys.node_count(),
        services.len()
    );

    // 20 churn rounds: joins and graceful leaves, lookups in between.
    for round in 0..20 {
        if rng.gen_bool(0.5) {
            let id = sys.add_peer(1_000_000).unwrap();
            println!("round {round:>2}: peer {id} joined");
        } else if sys.peer_count() > 3 {
            let ids = sys.peer_ids();
            let victim = ids.choose(&mut rng).unwrap().clone();
            sys.leave_peer(&victim).unwrap();
            println!("round {round:>2}: peer {victim} left gracefully");
        }
        sys.assert_clean();
        let probe = services.choose(&mut rng).unwrap();
        assert!(sys.lookup(probe).satisfied, "{probe} must stay reachable");
    }
    println!(
        "after graceful churn: {} peers, every probe satisfied",
        sys.peer_count()
    );

    // Now a crash: a peer vanishes without handing anything over.
    let loaded = sys
        .peer_ids()
        .into_iter()
        .max_by_key(|p| sys.shard(p).map(|s| s.node_count()).unwrap_or(0))
        .unwrap();
    let lost = sys.crash_peer(&loaded).unwrap();
    println!(
        "\ncrash: peer {loaded} died taking {} nodes with it",
        lost.len()
    );

    // Repair re-attaches orphaned subtrees through the insertion
    // protocol; lost *data* needs re-registration by its servers (the
    // paper's model).
    let nodes = sys.node_count();
    let report = sys.repair_tree();
    println!(
        "repair: {} orphans re-attached, {} structural nodes created, {} dangling links pruned",
        report.reattached.len(),
        sys.node_count() - nodes,
        report.pruned_links
    );
    for s in &services {
        sys.insert_data(s.clone()).unwrap(); // idempotent re-register
    }
    sys.assert_clean();
    let mut satisfied = 0;
    for s in &services {
        sys.end_time_unit();
        if sys.lookup(s).satisfied {
            satisfied += 1;
        }
    }
    println!(
        "after repair + re-registration: {satisfied}/{} services discoverable",
        services.len()
    );
    assert_eq!(satisfied, services.len());
}
