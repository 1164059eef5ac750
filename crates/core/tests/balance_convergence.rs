//! Convergence of MLT: under a fixed load pattern, repeated boundary
//! renegotiation must reach a fixpoint (no peer can improve its pair
//! throughput), and the fixpoint must dominate the initial placement.
//! The paper treats MLT as a per-unit heuristic and never states this,
//! but without it the heuristic would oscillate.

use dlpt_core::balance::mlt::rebalance_pair;
use dlpt_core::{DlptSystem, Key};

/// Builds a loaded system: heterogeneous peers, skewed node loads.
fn loaded(seed: u64) -> (DlptSystem, Vec<Key>) {
    let mut sys = DlptSystem::builder().seed(seed).peer_id_len(8).build();
    // Capacities 5..41 across 12 peers.
    for i in 0..12 {
        let id = sys.draw_peer_id();
        sys.add_peer_with_id(id, 5 + (i % 4) as u32 * 12).unwrap();
    }
    let keys: Vec<Key> = (0..60).map(|i| Key::from(format!("SVC{i:02}"))).collect();
    for k in &keys {
        sys.insert_data(k.clone()).unwrap();
    }
    (sys, keys)
}

/// Deterministic skewed demand: low-index keys are hot. Node loads
/// count offered demand (including visits peers had to ignore), which
/// is exactly what MLT optimizes over.
fn apply_load(sys: &mut DlptSystem, keys: &[Key]) {
    for (i, k) in keys.iter().enumerate() {
        let weight = if i < 6 { 12 } else { 1 };
        for _ in 0..weight {
            sys.lookup(k);
        }
    }
    sys.end_time_unit();
}

#[test]
fn repeated_rebalancing_reaches_a_fixpoint() {
    let (mut sys, keys) = loaded(71);
    apply_load(&mut sys, &keys);
    let mut rounds = 0usize;
    loop {
        let mut moved = false;
        for id in sys.peer_ids() {
            if sys.shard(&id).is_some() {
                moved |= rebalance_pair(&mut sys, &id);
            }
        }
        sys.assert_clean();
        rounds += 1;
        if !moved {
            break;
        }
        assert!(
            rounds < 100,
            "MLT must not oscillate: still moving after {rounds} rounds"
        );
    }
    // At the fixpoint another full pass changes nothing.
    for id in sys.peer_ids() {
        assert!(!rebalance_pair(&mut sys, &id), "fixpoint must be stable");
    }
    sys.assert_clean();
}

#[test]
fn fixpoint_throughput_dominates_initial_placement() {
    let (mut sys, keys) = loaded(73);
    apply_load(&mut sys, &keys);

    // Hypothetical throughput of a placement: Σ min(load_p, cap_p)
    // using the recorded prev_loads.
    let throughput = |sys: &DlptSystem| -> u64 {
        sys.peer_ids()
            .iter()
            .filter_map(|p| sys.shard(p))
            .map(|s| s.last_unit_load().min(s.peer.capacity as u64))
            .sum()
    };
    let before = throughput(&sys);
    for _ in 0..20 {
        let mut moved = false;
        for id in sys.peer_ids() {
            if sys.shard(&id).is_some() {
                moved |= rebalance_pair(&mut sys, &id);
            }
        }
        if !moved {
            break;
        }
    }
    let after = throughput(&sys);
    assert!(
        after >= before,
        "rebalancing must not lose hypothetical throughput ({before} -> {after})"
    );
    sys.assert_clean();
}

#[test]
fn rebalancing_is_deterministic() {
    let run = |seed: u64| -> Vec<(Key, usize)> {
        let (mut sys, keys) = loaded(seed);
        apply_load(&mut sys, &keys);
        for id in sys.peer_ids() {
            if sys.shard(&id).is_some() {
                rebalance_pair(&mut sys, &id);
            }
        }
        sys.peer_ids()
            .into_iter()
            .map(|p| {
                let n = sys.shard(&p).map(|s| s.node_count()).unwrap_or(0);
                (p, n)
            })
            .collect()
    };
    assert_eq!(run(75), run(75));
    assert_ne!(run(75), run(76), "different seeds produce different rings");
}
