//! Differential property test: arbitrary insert/remove/lookup
//! sequences are driven simultaneously through the sequential
//! [`PgcpTrie`] oracle and the distributed [`DlptSystem`], and every
//! discovery outcome must agree — the distributed protocol may never
//! find more, less, or different data than the in-memory trie.

use dlpt::core::{Alphabet, DlptSystem, Key, PgcpTrie};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Short binary keys: dense prefix relations, maximal collision
/// coverage between inserts, removals and probes.
fn binary_key() -> impl Strategy<Value = Key> {
    proptest::collection::vec(prop_oneof![Just(b'0'), Just(b'1')], 1..8).prop_map(Key::from_bytes)
}

#[derive(Debug, Clone, Copy)]
enum OpKind {
    Insert,
    Remove,
    Lookup,
}

fn op_kind() -> impl Strategy<Value = OpKind> {
    prop_oneof![
        Just(OpKind::Insert),
        Just(OpKind::Insert), // bias toward growth so trees get interesting
        Just(OpKind::Remove),
        Just(OpKind::Lookup),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every lookup agrees with the oracle at the moment it runs, and
    /// the final overlay equals the oracle of the surviving key set.
    #[test]
    fn random_sequences_keep_system_and_oracle_in_lockstep(
        ops in proptest::collection::vec((binary_key(), op_kind()), 1..40),
        seed in 0u64..1000,
        peers in 1usize..6,
    ) {
        let mut sys = DlptSystem::builder()
            .alphabet(Alphabet::binary())
            .seed(seed)
            .peer_id_len(12)
            .bootstrap_peers(peers)
            .build();
        let mut oracle = PgcpTrie::new();
        let mut live: BTreeSet<Key> = BTreeSet::new();

        for (key, op) in ops {
            match op {
                OpKind::Insert => {
                    sys.insert_data(key.clone()).unwrap();
                    oracle.insert(key.clone());
                    live.insert(key);
                }
                OpKind::Remove => {
                    sys.remove_data(&key).unwrap();
                    oracle.remove(&key);
                    live.remove(&key);
                }
                OpKind::Lookup => {
                    let out = sys.lookup(&key);
                    prop_assert_eq!(
                        out.found,
                        oracle.contains(&key),
                        "lookup {:?} disagrees with oracle", key
                    );
                    if out.found {
                        prop_assert!(out.satisfied, "found but unsatisfied: {:?}", key);
                        prop_assert_eq!(out.results, vec![key.clone()]);
                    }
                }
            }
            prop_assert!(oracle.check_invariants().is_ok());
        }

        // Final state: identical trees, identical membership.
        prop_assert_eq!(sys.node_labels(), oracle.labels());
        prop_assert_eq!(
            sys.registered_keys(),
            live.iter().cloned().collect::<Vec<_>>()
        );
        sys.assert_clean();
        for k in &live {
            prop_assert!(sys.lookup(k).satisfied, "live key {:?} lost", k);
        }
    }

    /// Range and completion queries agree with brute-force filters of
    /// the oracle's key set at arbitrary interleaving points.
    #[test]
    fn region_queries_agree_with_oracle_filters(
        inserts in proptest::collection::vec(binary_key(), 1..25),
        removes in proptest::collection::vec(binary_key(), 0..10),
        lo in binary_key(),
        hi in binary_key(),
        prefix in binary_key(),
        seed in 0u64..500,
    ) {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let mut sys = DlptSystem::builder()
            .alphabet(Alphabet::binary())
            .seed(seed)
            .peer_id_len(12)
            .bootstrap_peers(3)
            .build();
        let mut live: BTreeSet<Key> = BTreeSet::new();
        for k in inserts {
            sys.insert_data(k.clone()).unwrap();
            live.insert(k);
        }
        for k in removes {
            sys.remove_data(&k).unwrap();
            live.remove(&k);
        }
        let got = sys.range(&lo, &hi).results;
        let want: Vec<Key> = live.iter().filter(|k| **k >= lo && **k <= hi).cloned().collect();
        prop_assert_eq!(got, want, "range [{:?}, {:?}]", lo, hi);

        let got = sys.complete(&prefix).results;
        let want: Vec<Key> = live.iter().filter(|k| prefix.is_prefix_of(k)).cloned().collect();
        prop_assert_eq!(got, want, "complete {:?}", prefix);
    }
}
