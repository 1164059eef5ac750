//! Property-based tests over the core invariants.
//!
//! The distributed overlay is checked against the sequential oracle
//! for arbitrary key sets and operation interleavings; the MLT sweep
//! against exhaustive search; the wire codec against roundtrips.

use dlpt::core::balance::mlt::best_split;
use dlpt::core::messages::{Envelope, NodeMsg, QueryKind};
use dlpt::core::{Alphabet, DlptSystem, Key, PgcpTrie};
use dlpt::net::codec;
use proptest::prelude::*;

/// Short binary keys: dense prefix relations, maximal case coverage.
fn binary_key() -> impl Strategy<Value = Key> {
    proptest::collection::vec(prop_oneof![Just(b'0'), Just(b'1')], 1..10).prop_map(Key::from_bytes)
}

fn binary_keys(max: usize) -> impl Strategy<Value = Vec<Key>> {
    proptest::collection::vec(binary_key(), 1..max)
}

fn binary_system(seed: u64, peers: usize) -> DlptSystem {
    DlptSystem::builder()
        .alphabet(Alphabet::binary())
        .seed(seed)
        .peer_id_len(12)
        .bootstrap_peers(peers)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The oracle itself satisfies Definition 1 for any key set, and
    /// membership matches the input.
    #[test]
    fn oracle_invariant_holds_for_any_keys(keys in binary_keys(40)) {
        let mut t = PgcpTrie::new();
        for k in &keys {
            t.insert(k.clone());
        }
        prop_assert!(t.check_invariants().is_ok());
        for k in &keys {
            prop_assert!(t.contains(k));
        }
        let mut want: Vec<Key> = keys.clone();
        want.sort();
        want.dedup();
        prop_assert_eq!(t.keys(), want);
    }

    /// The distributed tree converges to exactly the oracle's labels,
    /// for any key set, any entry-point randomness and any peer count.
    #[test]
    fn distributed_tree_matches_oracle(keys in binary_keys(30), seed in 0u64..1000, peers in 1usize..8) {
        let mut sys = binary_system(seed, peers);
        let mut oracle = PgcpTrie::new();
        for k in &keys {
            sys.insert_data(k.clone()).unwrap();
            oracle.insert(k.clone());
        }
        prop_assert_eq!(sys.node_labels(), oracle.labels());
        sys.assert_clean();
    }

    /// Exact lookups find precisely the registered keys.
    #[test]
    fn lookup_completeness_and_soundness(keys in binary_keys(25), probe in binary_key(), seed in 0u64..500) {
        let mut sys = binary_system(seed, 4);
        for k in &keys {
            sys.insert_data(k.clone()).unwrap();
        }
        for k in &keys {
            prop_assert!(sys.lookup(k).satisfied);
        }
        let out = sys.lookup(&probe);
        prop_assert_eq!(out.found, keys.contains(&probe));
    }

    /// Range queries equal a plain filter of the key set.
    #[test]
    fn range_equals_filter(keys in binary_keys(25), a in binary_key(), b in binary_key(), seed in 0u64..500) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let mut sys = binary_system(seed, 4);
        for k in &keys {
            sys.insert_data(k.clone()).unwrap();
        }
        let got = sys.range(&lo, &hi).results;
        let mut want: Vec<Key> = keys.iter().filter(|k| **k >= lo && **k <= hi).cloned().collect();
        want.sort();
        want.dedup();
        prop_assert_eq!(got, want);
    }

    /// Completion equals a prefix filter of the key set.
    #[test]
    fn completion_equals_prefix_filter(keys in binary_keys(25), prefix in binary_key(), seed in 0u64..500) {
        let mut sys = binary_system(seed, 4);
        for k in &keys {
            sys.insert_data(k.clone()).unwrap();
        }
        let got = sys.complete(&prefix).results;
        let mut want: Vec<Key> = keys.iter().filter(|k| prefix.is_prefix_of(k)).cloned().collect();
        want.sort();
        want.dedup();
        prop_assert_eq!(got, want);
    }

    /// After any join/leave sequence the mapping rule and ring links
    /// hold and every key stays discoverable.
    #[test]
    fn churn_preserves_invariants(
        keys in binary_keys(15),
        ops in proptest::collection::vec(0u8..2, 1..12),
        seed in 0u64..500,
    ) {
        let mut sys = binary_system(seed, 3);
        for k in &keys {
            sys.insert_data(k.clone()).unwrap();
        }
        for op in ops {
            match op {
                0 => { sys.add_peer(1_000_000).unwrap(); }
                _ if sys.peer_count() > 1 => {
                    let victim = sys.peer_ids()[0].clone();
                    sys.leave_peer(&victim).unwrap();
                }
                _ => {}
            }
            sys.assert_clean();
        }
        sys.assert_clean();
        for k in &keys {
            prop_assert!(sys.lookup(k).satisfied);
        }
    }

    /// The MLT sweep finds the true optimum (checked exhaustively) for
    /// arbitrary loads and capacities.
    #[test]
    fn mlt_sweep_is_optimal(
        loads in proptest::collection::vec(0u64..50, 1..14),
        cap_p in 1u64..100,
        cap_s in 1u64..100,
        current_frac in 0.0f64..1.0,
    ) {
        let current = ((loads.len() as f64) * current_frac) as usize;
        let eval = best_split(&loads, cap_p, cap_s, current);
        let total: u64 = loads.iter().sum();
        let best_naive = (0..=loads.len())
            .map(|i| {
                let pre: u64 = loads[..i].iter().sum();
                pre.min(cap_p) + (total - pre).min(cap_s)
            })
            .max()
            .unwrap();
        prop_assert_eq!(eval.throughput, best_naive);
        // And the reported split really achieves it.
        let pre: u64 = loads[..eval.split].iter().sum();
        prop_assert_eq!(pre.min(cap_p) + (total - pre).min(cap_s), eval.throughput);
    }

    /// Arbitrary interleavings of insertions and removals leave the
    /// overlay equal to the oracle of the surviving key set — the
    /// removal protocol's dissolution mirrors `PgcpTrie::remove`.
    #[test]
    fn insert_remove_sequences_match_oracle(
        ops in proptest::collection::vec((binary_key(), any::<bool>()), 1..30),
        seed in 0u64..500,
    ) {
        let mut sys = binary_system(seed, 4);
        let mut live: std::collections::BTreeSet<Key> = Default::default();
        for (key, insert) in ops {
            if insert {
                sys.insert_data(key.clone()).unwrap();
                live.insert(key);
            } else {
                sys.remove_data(&key).unwrap();
                live.remove(&key);
            }
        }
        let mut oracle = PgcpTrie::new();
        for k in &live {
            oracle.insert(k.clone());
        }
        prop_assert_eq!(sys.node_labels(), oracle.labels());
        sys.assert_clean();
        for k in &live {
            prop_assert!(sys.lookup(k).satisfied);
        }
    }

    /// The wire codec roundtrips arbitrary discovery envelopes.
    #[test]
    fn codec_roundtrips_arbitrary_envelopes(
        to in binary_key(),
        key in binary_key(),
        path in proptest::collection::vec(binary_key(), 0..6),
        request in any::<u64>(),
    ) {
        use dlpt::core::messages::{DiscoveryMsg, RoutePhase};
        let env = Envelope::to_node(
            to,
            NodeMsg::Discovery(DiscoveryMsg {
                request_id: request,
                query: QueryKind::Exact(key),
                phase: RoutePhase::Down,
                path,
            }),
        );
        let frame = codec::encode(&env);
        prop_assert_eq!(codec::decode(&frame).unwrap(), env);
    }

    /// GCP algebra: commutative, associative-compatible, and the GCP
    /// is the longest common prefix.
    #[test]
    fn gcp_algebra(a in binary_key(), b in binary_key()) {
        let g = a.gcp(&b);
        prop_assert_eq!(g.clone(), b.gcp(&a));
        prop_assert!(g.is_prefix_of(&a));
        prop_assert!(g.is_prefix_of(&b));
        // Maximality: one digit longer is no longer common.
        if g.len() < a.len() && g.len() < b.len() {
            prop_assert_ne!(a.as_bytes()[g.len()], b.as_bytes()[g.len()]);
        }
    }

    /// Ring-interval membership is a partition: for peers a < b < c on
    /// a circle, every x is in exactly one adjacent arc.
    #[test]
    fn ring_arcs_partition(mut ids in proptest::collection::btree_set(binary_key(), 3..3+1), x in binary_key()) {
        use dlpt::core::key::in_ring_interval;
        let v: Vec<Key> = std::mem::take(&mut ids).into_iter().collect();
        let arcs = [(&v[2], &v[0]), (&v[0], &v[1]), (&v[1], &v[2])];
        let hits = arcs
            .iter()
            .filter(|(a, b)| in_ring_interval(&x, a, b))
            .count();
        prop_assert_eq!(hits, 1, "x={:?} arcs over {:?}", x, v);
    }
}
