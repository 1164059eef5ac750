//! Cross-crate integration: the three runtimes (synchronous pump,
//! latency simulator, threaded live network) must all build the same
//! tree the sequential oracle predicts, and discovery must agree with
//! it on every query kind.

use dlpt::core::{Alphabet, DlptSystem, Key, PgcpTrie};
use dlpt::net::{LatencyModel, LatencyNet, ThreadedDlpt};
use dlpt::workloads::corpus::Corpus;

fn sample_corpus(n: usize) -> Vec<Key> {
    Corpus::grid().take_spread(n)
}

#[test]
fn synchronous_runtime_matches_oracle_on_real_corpus() {
    let keys = sample_corpus(300);
    let mut sys = DlptSystem::builder().seed(11).bootstrap_peers(20).build();
    let mut oracle = PgcpTrie::new();
    for k in &keys {
        sys.insert_data(k.clone()).unwrap();
        oracle.insert(k.clone());
    }
    assert_eq!(sys.node_labels(), oracle.labels());
    sys.assert_clean();
}

#[test]
fn all_three_runtimes_converge_to_the_same_tree() {
    let keys = sample_corpus(80);

    let mut sys = DlptSystem::builder().seed(5).bootstrap_peers(8).build();
    for k in &keys {
        sys.insert_data(k.clone()).unwrap();
    }

    let mut latency = LatencyNet::new(LatencyModel::Uniform(1, 40), 6);
    let alphabet = Alphabet::grid();
    {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for _ in 0..8 {
            let id: Key = alphabet.random_id(&mut rng, 12);
            let _ = rng.gen_range(0..10); // decorrelate ids
            latency.add_peer(id);
        }
    }
    for k in &keys {
        latency.insert_data(k.clone());
    }

    let mut live = ThreadedDlpt::new(Alphabet::grid(), 8);
    for _ in 0..8 {
        live.add_peer();
    }
    for k in &keys {
        live.insert_data(k.clone());
    }

    assert_eq!(sys.node_labels(), latency.node_labels());
    assert_eq!(sys.node_labels(), live.node_labels());
    live.shutdown();
}

#[test]
fn discovery_agrees_with_oracle_on_all_query_kinds() {
    let keys = sample_corpus(200);
    let mut sys = DlptSystem::builder().seed(13).bootstrap_peers(16).build();
    let mut oracle = PgcpTrie::new();
    for k in &keys {
        sys.insert_data(k.clone()).unwrap();
        oracle.insert(k.clone());
    }

    // Exact lookups: every registered key found, absent keys not.
    for k in keys.iter().step_by(7) {
        let out = sys.lookup(k);
        assert!(out.satisfied, "{k}");
        assert_eq!(out.results, vec![k.clone()]);
    }
    assert!(!sys.lookup(&Key::from("NO_SUCH_SERVICE")).found);

    // Completions match the oracle for a spread of prefixes.
    for prefix in ["S3L", "D", "DGE", "P", "PS", "ZTR", "QQQ"] {
        let p = Key::from(prefix);
        let got = sys.complete(&p).results;
        let want = oracle.complete(&p);
        assert_eq!(got, want, "complete({prefix})");
    }

    // Ranges match the oracle.
    for (lo, hi) in [
        ("A", "E"),
        ("DGEMM", "DTRSM"),
        ("S3L_a", "S3L_z"),
        ("Z", "ZZ"),
    ] {
        let (lo, hi) = (Key::from(lo), Key::from(hi));
        let got = sys.range(&lo, &hi).results;
        let want = oracle.range(&lo, &hi);
        assert_eq!(got, want, "range({lo}, {hi})");
    }
}

#[test]
fn peers_joining_between_insertions_keep_everything_consistent() {
    let keys = sample_corpus(120);
    let mut sys = DlptSystem::builder().seed(17).bootstrap_peers(3).build();
    for (i, k) in keys.iter().enumerate() {
        sys.insert_data(k.clone()).unwrap();
        if i % 10 == 9 {
            sys.add_peer(1_000_000).unwrap();
            sys.assert_clean();
        }
    }
    sys.assert_clean();
    assert_eq!(sys.peer_count(), 15);
    let oracle: PgcpTrie = {
        let mut t = PgcpTrie::new();
        for k in &keys {
            t.insert(k.clone());
        }
        t
    };
    assert_eq!(sys.node_labels(), oracle.labels());
}

#[test]
fn interleaved_churn_insert_query_stress() {
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    let keys = sample_corpus(150);
    let mut sys = DlptSystem::builder().seed(23).bootstrap_peers(10).build();
    let mut registered: Vec<Key> = Vec::new();
    let mut next = 0usize;
    for step in 0..400 {
        match rng.gen_range(0..10) {
            0 => {
                sys.add_peer(1_000_000).unwrap();
            }
            1 if sys.peer_count() > 4 => {
                let ids = sys.peer_ids();
                let victim = ids.choose(&mut rng).unwrap().clone();
                sys.leave_peer(&victim).unwrap();
            }
            2..=5 if next < keys.len() => {
                sys.insert_data(keys[next].clone()).unwrap();
                registered.push(keys[next].clone());
                next += 1;
            }
            _ if !registered.is_empty() => {
                let probe = registered.choose(&mut rng).unwrap();
                assert!(sys.lookup(probe).satisfied, "step {step}: {probe}");
            }
            _ => {}
        }
        if step % 50 == 49 {
            sys.assert_clean();
        }
    }
    // Final full audit.
    sys.assert_clean();
    for k in &registered {
        sys.end_time_unit();
        assert!(sys.lookup(k).satisfied, "{k}");
    }
}

/// Scatter/gather cost is fan-out breadth: a depth-1 completion visits
/// an order of magnitude more nodes than a depth-2 one, and the visit
/// count keeps falling as the prefix lengthens.
#[test]
fn depth1_completions_fan_out_over_most_of_the_tree() {
    use rand::SeedableRng;
    let keys: Vec<Key> = Corpus::grid().keys.into_iter().take(300).collect();
    let mut net = LatencyNet::new(LatencyModel::Uniform(1, 30), 0xFA_0C);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xFA_22);
    let mut chosen = std::collections::BTreeSet::new();
    while chosen.len() < 16 {
        let id = Alphabet::grid().random_id(&mut rng, 10);
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
            let (ok, _) = net.complete(&keys[(i * 37) % keys.len()].truncated(depth));
            assert!(ok, "completion must reach its region");
        }
        net.stats.discovery_messages - before
    };
    let (d1, d2, d4) = (visits_at(1), visits_at(2), visits_at(4));
    assert!(
        d1 >= 5 * d2,
        "depth 1 must fan out far wider (d1={d1}, d2={d2})"
    );
    assert!(d2 > d4, "fan-out must shrink with depth (d2={d2}, d4={d4})");
}
