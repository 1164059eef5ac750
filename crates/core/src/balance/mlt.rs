//! MLT — Max Local Throughput (Section 3.3, Figure 3).
//!
//! At the end of each time unit a peer `S` and its predecessor `P`
//! know, for every node they run, the number of requests `l_n` it
//! received during the unit. The pair's throughput was
//!
//! ```text
//! T(τ) = min(L_S, C_S) + min(L_P, C_P),   L_X = Σ_{n ∈ ν_X} l_n
//! ```
//!
//! Because node identifiers cannot change (routing consistency), the
//! only redistributions available move the *boundary* between the two
//! peers: `P` slides along the ring, taking a prefix of the combined
//! node sequence with it. With `m = |ν_P ∪ ν_S|` there are `m − 1`
//! alternative boundary positions (plus the degenerate ends); a single
//! prefix-sum sweep evaluates them all, giving the O(m) time and space
//! the paper claims.
//!
//! The sweep itself is the pure function [`best_split`], exhaustively
//! property-tested; [`rebalance_pair`] applies the chosen boundary by
//! moving the nodes between the old and the new boundary as one run
//! and renaming `P` (`DlptSystem::rename_peer`), which preserves the
//! successor-mapping invariant by construction.

use super::{random_peer_id, LoadBalancer};
use crate::key::{in_ring_interval, Key};
use crate::obs::health::AuditCheck;
use crate::overlay::{Driver, Overlay};
use crate::system::DlptSystem;
use rand::seq::SliceRandom;
use rand::RngCore;

/// The MLT strategy: every unit, a fraction of peers renegotiate their
/// boundary with their predecessor.
#[derive(Debug, Clone, Copy)]
pub struct MaxLocalThroughput {
    /// Fraction of peers that run MLT per time unit (Section 4 step 1:
    /// "a fixed fraction of the peers executes the MLT load
    /// balancing").
    pub fraction: f64,
}

impl Default for MaxLocalThroughput {
    fn default() -> Self {
        // One full pass per unit unless the experiment scales it down.
        MaxLocalThroughput { fraction: 1.0 }
    }
}

impl MaxLocalThroughput {
    /// Strategy running MLT on the given fraction of peers per unit.
    pub fn with_fraction(fraction: f64) -> Self {
        MaxLocalThroughput {
            fraction: fraction.clamp(0.0, 1.0),
        }
    }
}

impl LoadBalancer for MaxLocalThroughput {
    fn name(&self) -> &'static str {
        "MLT"
    }

    fn before_unit(&mut self, sys: &mut DlptSystem, rng: &mut dyn RngCore) {
        let ids = sys.peer_ids();
        if ids.len() < 2 {
            return;
        }
        let count = ((ids.len() as f64) * self.fraction).ceil() as usize;
        let chosen: Vec<Key> = ids
            .choose_multiple(rng, count.min(ids.len()))
            .cloned()
            .collect();
        for id in chosen {
            // A previous move in this pass may have renamed this peer.
            if sys.shard(&id).is_some() {
                rebalance_pair(sys, &id);
            }
        }
    }

    fn choose_join_id(&self, sys: &DlptSystem, rng: &mut dyn RngCore, _capacity: u32) -> Key {
        random_peer_id(sys, rng)
    }
}

/// Outcome of the boundary sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitEval {
    /// Number of leading nodes (in circular order from the far
    /// boundary) assigned to the predecessor.
    pub split: usize,
    /// Pair throughput `min(L_P, C_P) + min(L_S, C_S)` this split
    /// yields for the observed loads.
    pub throughput: u64,
}

/// The O(m) sweep: given per-node loads in circular order over
/// `(pred_P, S]`, find the split maximizing the pair throughput.
///
/// Ties prefer the current split (stability under balanced load), then
/// the smallest migration distance, then the lower index — all
/// deterministic.
pub fn best_split(loads: &[u64], cap_p: u64, cap_s: u64, current: usize) -> SplitEval {
    let total: u64 = loads.iter().sum();
    let mut best = SplitEval {
        split: current,
        throughput: 0,
    };
    let mut prefix = 0u64;
    let mut best_dist = usize::MAX;
    for i in 0..=loads.len() {
        if i > 0 {
            prefix += loads[i - 1];
        }
        let t = prefix.min(cap_p) + (total - prefix).min(cap_s);
        let dist = i.abs_diff(current);
        let better = t > best.throughput
            || (t == best.throughput && dist < best_dist)
            || (t == best.throughput && dist == best_dist && i < best.split);
        if i == 0 || better {
            // Seed with i = 0 so `best` is always a real candidate.
            if i == 0 {
                best = SplitEval {
                    split: 0,
                    throughput: t,
                };
                best_dist = current;
            } else if better {
                best = SplitEval {
                    split: i,
                    throughput: t,
                };
                best_dist = dist;
            }
        }
    }
    best
}

/// Puts ascending labels into circular order starting just above
/// `start`: the labels greater than `start`, then (wrapping) those at
/// or below it. [`NodeMap::values`](crate::peer::NodeMap::values)
/// yields them ascending already, so one rotation at the partition
/// point does it.
pub fn circular_from(mut labels: Vec<(Key, u64)>, start: &Key) -> Vec<(Key, u64)> {
    debug_assert!(
        labels.windows(2).all(|w| w[0].0 < w[1].0),
        "labels must be ascending"
    );
    let pivot = labels.partition_point(|(l, _)| l <= start);
    labels.rotate_left(pivot);
    labels
}

/// A boundary move [`rebalance_pair`] chose for a peer `S` and its
/// predecessor `P`.
#[derive(Debug)]
pub(crate) struct BoundaryMove {
    /// `P`'s identifier before the move.
    pub p_id: Key,
    /// `P`'s predecessor `Q`.
    pub q_id: Key,
    /// `ν_P ∪ ν_S` with last-unit loads, in circular order over
    /// `(Q, S]`: `union[..current]` is `P`'s, the rest `S`'s.
    pub union: Vec<(Key, u64)>,
    /// `|ν_P|`, the boundary now.
    pub current: usize,
    /// The boundary after the move: `union[..split]` ends on `P`.
    pub split: usize,
    /// `P`'s identifier after the move.
    pub new_p_id: Key,
}

/// Chooses the boundary move for `s_id` and its predecessor: the best
/// split of [`best_split`] that leaves `P` a free identifier. `None`
/// when nothing should move. Reads only.
pub(crate) fn plan_pair<D: Driver>(sys: &Overlay<D>, s_id: &Key) -> Option<BoundaryMove> {
    let s_shard = sys.shard(s_id)?;
    let p_id = s_shard.peer.pred.clone();
    if &p_id == s_id {
        return None; // alone on the ring
    }
    let cap_s = s_shard.peer.capacity as u64;
    let s_nodes: Vec<(Key, u64)> = s_shard
        .nodes
        .values()
        .map(|n| (n.label.clone(), n.prev_load))
        .collect();
    let p_shard = sys.shard(&p_id)?;
    let cap_p = p_shard.peer.capacity as u64;
    let q_id = p_shard.peer.pred.clone();
    let p_nodes: Vec<(Key, u64)> = p_shard
        .nodes
        .values()
        .map(|n| (n.label.clone(), n.prev_load))
        .collect();

    // Combined sequence in circular order over (Q, S].
    let mut union = circular_from(p_nodes, &q_id);
    let current = union.len();
    union.extend(circular_from(s_nodes, &p_id));
    if union.is_empty() {
        return None;
    }
    let loads: Vec<u64> = union.iter().map(|(_, l)| *l).collect();
    let mut split = best_split(&loads, cap_p, cap_s, current).split;
    // The boundary identifier P must move to. split == 0 parks P just
    // above Q; if no identifier fits there, fall back to keeping one
    // node.
    let new_p_id = loop {
        if split == current {
            return None;
        }
        if split == 0 {
            match sys.config().alphabet.id_between(&q_id, &union[0].0) {
                Some(id) if sys.shard(&id).is_none() => break id,
                _ => {
                    split = 1;
                    continue;
                }
            }
        }
        let cand = union[split - 1].0.clone();
        if &cand == s_id || (sys.shard(&cand).is_some() && cand != p_id) {
            // Collides with S (or another peer id): try the next
            // boundary toward the current one.
            if split < current {
                split += 1;
            } else {
                split -= 1;
            }
            continue;
        }
        break cand;
    };
    Some(BoundaryMove {
        p_id,
        q_id,
        union,
        current,
        split,
        new_p_id,
    })
}

/// Runs one MLT step on peer `s_id` and its predecessor. Returns true
/// iff the boundary moved.
///
/// The nodes between the old and the new boundary change hands as one
/// run (`Overlay::migrate_run`): `S`'s `union[current..split]` to
/// `P`, or `P`'s `union[split..current]` to `S`. The union says which
/// peer holds each node, so no host is looked up; the run is the ring
/// interval from the node (or peer) before it to its last node, which
/// is exactly that stretch of the circular order. Then `P` takes its
/// new identifier (`DlptSystem::rename_peer`).
pub fn rebalance_pair<D: Driver>(sys: &mut Overlay<D>, s_id: &Key) -> bool {
    let Some(m) = plan_pair(sys, s_id) else {
        return false;
    };
    let moved = if m.split > m.current {
        let last = &m.union[m.split - 1].0;
        sys.migrate_run(s_id, &m.p_id, |l| in_ring_interval(l, &m.p_id, last))
    } else {
        let before = match m.split {
            0 => &m.q_id,
            split => &m.union[split - 1].0,
        };
        let last = &m.union[m.current - 1].0;
        sys.migrate_run(&m.p_id, s_id, |l| in_ring_interval(l, before, last))
    }
    .expect("both peers live");
    debug_assert_eq!(moved, m.split.abs_diff(m.current), "the run is the slice");
    if m.new_p_id != m.p_id {
        sys.rename_peer(&m.p_id, m.new_p_id)
            .expect("fresh id checked");
    }
    // Only the class a boundary move is answerable for.
    debug_assert!(
        !sys.audit().iter().any(|v| v.check == AuditCheck::Mapping),
        "MLT must preserve the mapping"
    );
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    #[test]
    fn best_split_moves_load_off_weak_peer() {
        // P weak (cap 2), S strong (cap 10); loads lean left.
        let loads = [5, 5, 1, 1];
        let eval = best_split(&loads, 2, 10, 2);
        // Giving everything to S: T = min(0,2) + min(12,10) = 10.
        assert_eq!(eval.split, 0);
        assert_eq!(eval.throughput, 10);
    }

    #[test]
    fn best_split_prefers_current_on_tie() {
        // Uniform loads, huge capacities: all splits satisfy everyone.
        let loads = [1, 1, 1, 1];
        let eval = best_split(&loads, 100, 100, 2);
        assert_eq!(eval.split, 2, "stability: keep the current boundary");
        assert_eq!(eval.throughput, 4);
    }

    #[test]
    fn best_split_matches_exhaustive_reference() {
        // Deterministic pseudo-random cases cross-checked against a
        // naive evaluator.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..200 {
            let m = (next() % 9) as usize + 1;
            let loads: Vec<u64> = (0..m).map(|_| next() % 20).collect();
            let cap_p = next() % 30 + 1;
            let cap_s = next() % 30 + 1;
            let current = (next() % (m as u64 + 1)) as usize;
            let eval = best_split(&loads, cap_p, cap_s, current);
            let total: u64 = loads.iter().sum();
            let naive_best = (0..=m)
                .map(|i| {
                    let pre: u64 = loads[..i].iter().sum();
                    pre.min(cap_p) + (total - pre).min(cap_s)
                })
                .max()
                .unwrap();
            assert_eq!(eval.throughput, naive_best, "case {case}: {loads:?}");
        }
    }

    #[test]
    fn circular_order_rotates_at_start() {
        let labels = vec![(k("A"), 1), (k("M"), 2), (k("T"), 3)];
        let got = circular_from(labels, &k("M"));
        let order: Vec<Key> = got.into_iter().map(|(l, _)| l).collect();
        assert_eq!(order, vec![k("T"), k("A"), k("M")]);
    }

    #[test]
    fn rebalance_moves_hot_nodes_to_strong_peer() {
        // Two peers, heterogeneous capacity; all load lands on the
        // weak peer's nodes; MLT must shift the boundary.
        let mut sys = DlptSystem::builder()
            .alphabet(Alphabet::grid())
            .seed(31)
            .peer_id_len(4)
            .build();
        sys.add_peer_with_id(k("M000"), 2).unwrap(); // weak
        sys.add_peer_with_id(k("Z000"), 40).unwrap(); // strong
        for name in ["A0", "B0", "C0", "D0", "E0"] {
            sys.insert_data(k(name)).unwrap();
        }
        // All five keys (< M000) are hosted by the weak peer.
        assert!(sys.shard(&k("M000")).unwrap().node_count() >= 5);
        // Simulate one loaded unit.
        for _ in 0..30 {
            sys.lookup(&k("C0"));
        }
        sys.end_time_unit();
        let moved = rebalance_pair(&mut sys, &k("Z000"));
        assert!(moved, "boundary must move toward the strong peer");
        sys.assert_clean();
        // The strong peer now runs nodes.
        let strong_nodes = sys.shard(&k("Z000")).unwrap().node_count();
        assert!(strong_nodes > 0, "strong peer should host nodes now");
        // And lookups still work (fresh unit per lookup so the weak
        // peer's tiny capacity does not interfere with the check).
        for name in ["A0", "B0", "C0", "D0", "E0"] {
            sys.end_time_unit();
            assert!(sys.lookup(&k(name)).satisfied, "{name}");
        }
    }

    #[test]
    fn rebalance_pair_noop_when_alone() {
        let mut sys = DlptSystem::builder().seed(1).bootstrap_peers(1).build();
        let id = sys.peer_ids()[0].clone();
        assert!(!rebalance_pair(&mut sys, &id));
    }

    #[test]
    fn before_unit_keeps_invariants_across_many_units() {
        let mut sys = DlptSystem::builder()
            .seed(37)
            .peer_id_len(6)
            .default_capacity(5)
            .bootstrap_peers(8)
            .build();
        for i in 0..60 {
            sys.insert_data(Key::from(format!("SVC{i:03}"))).unwrap();
        }
        let mut lb = MaxLocalThroughput::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        use rand::SeedableRng;
        for _ in 0..5 {
            for i in 0..40 {
                sys.lookup(&Key::from(format!("SVC{:03}", i % 60)));
            }
            sys.end_time_unit();
            lb.before_unit(&mut sys, &mut rng);
            sys.assert_clean();
        }
    }
}
