//! KC — the k-choices join heuristic (Ledlie & Seltzer, INFOCOM 2005),
//! adapted to the DLPT as in Section 4 of the paper.
//!
//! "When used, KC is run each time a peer joins the system. Because
//! some regions of the ring are more densely populated than others, KC
//! finds, among k potential locations for the new peer, the one that
//! leads to the best local load balance." The paper sets `k = 4`.
//!
//! Our adaptation scores a candidate identifier `c` by the pair
//! throughput the hand-off at `c` would have achieved for the last
//! unit's loads — the same objective MLT optimizes, evaluated at join
//! time: the would-be successor `T = host(c)` cedes the nodes in
//! `(pred_T, c]`, and the score is
//! `min(L_ceded, C_new) + min(L_T − L_ceded, C_T)`.

use super::LoadBalancer;
use crate::key::{in_ring_interval, Key};
use crate::system::DlptSystem;
use rand::RngCore;

/// The k-choices join placement strategy.
#[derive(Debug, Clone, Copy)]
pub struct KChoices {
    /// Number of candidate identifiers evaluated per join (paper: 4).
    pub k: usize,
}

impl Default for KChoices {
    fn default() -> Self {
        KChoices { k: 4 }
    }
}

impl KChoices {
    /// A KC strategy evaluating `k` candidates per join.
    pub fn with_k(k: usize) -> Self {
        KChoices { k: k.max(1) }
    }

    /// Scores one candidate identifier; higher is better.
    pub fn score_candidate(sys: &DlptSystem, candidate: &Key, capacity: u32) -> u64 {
        // The would-be successor straight off the ordered peer set —
        // no snapshot of it per candidate.
        let Some(succ) = sys.host_peer(candidate) else {
            return 0;
        };
        let Some(t_shard) = sys.shard(succ) else {
            return 0;
        };
        let pred = &t_shard.peer.pred;
        let mut ceded = 0u64;
        let mut kept = 0u64;
        for node in t_shard.nodes.values() {
            if in_ring_interval(&node.label, pred, candidate) {
                ceded += node.prev_load;
            } else {
                kept += node.prev_load;
            }
        }
        ceded.min(capacity as u64) + kept.min(t_shard.peer.capacity as u64)
    }
}

impl LoadBalancer for KChoices {
    fn name(&self) -> &'static str {
        "KC"
    }

    fn before_unit(&mut self, _sys: &mut DlptSystem, _rng: &mut dyn RngCore) {
        // KC acts at join time only.
    }

    fn choose_join_id(&self, sys: &DlptSystem, rng: &mut dyn RngCore, capacity: u32) -> Key {
        let mut best: Option<(u64, Key)> = None;
        for _ in 0..self.k {
            let candidate = super::random_peer_id(sys, rng);
            let score = Self::score_candidate(sys, &candidate, capacity);
            match &best {
                Some((s, _)) if *s >= score => {}
                _ => best = Some((score, candidate)),
            }
        }
        best.expect("k >= 1").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    #[test]
    fn score_prefers_taking_over_hot_region() {
        // Single peer Z999 hosts three nodes; the hot one is "A0".
        let mut sys = DlptSystem::builder().seed(3).peer_id_len(4).build();
        sys.add_peer_with_id(k("Z999"), 2).unwrap();
        for name in ["A0", "M0", "T0"] {
            sys.insert_data(k(name)).unwrap();
        }
        for _ in 0..20 {
            sys.lookup(&k("A0"));
        }
        sys.end_time_unit();
        // A candidate just above "A0" inherits the hot node; one below
        // "A0" inherits nothing.
        let hot = KChoices::score_candidate(&sys, &k("B000"), 50);
        let cold = KChoices::score_candidate(&sys, &k("5000"), 50);
        assert!(
            hot > cold,
            "inheriting the hot node must score higher ({hot} vs {cold})"
        );
    }

    #[test]
    fn choose_join_id_returns_fresh_id() {
        let mut sys = DlptSystem::builder()
            .seed(5)
            .peer_id_len(6)
            .default_capacity(4)
            .bootstrap_peers(5)
            .build();
        for i in 0..20 {
            sys.insert_data(Key::from(format!("SVC{i:02}"))).unwrap();
        }
        for i in 0..30 {
            sys.lookup(&Key::from(format!("SVC{:02}", i % 20)));
        }
        sys.end_time_unit();
        let lb = KChoices::default();
        let mut rng = StdRng::seed_from_u64(11);
        let id = lb.choose_join_id(&sys, &mut rng, 10);
        assert!(sys.shard(&id).is_none());
        sys.add_peer_with_id(id, 10).unwrap();
        sys.assert_clean();
    }

    #[test]
    fn kc_join_beats_random_join_on_skewed_load() {
        // Deterministically compare: with a heavily loaded successor,
        // KC's pick should score at least as well as a random pick.
        let mut sys = DlptSystem::builder()
            .seed(7)
            .peer_id_len(6)
            .default_capacity(3)
            .bootstrap_peers(4)
            .build();
        for i in 0..30 {
            sys.insert_data(Key::from(format!("K{i:02}"))).unwrap();
        }
        for i in 0..60 {
            sys.lookup(&Key::from(format!("K{:02}", i % 5)));
        }
        sys.end_time_unit();
        let mut rng1 = StdRng::seed_from_u64(100);
        let mut rng2 = StdRng::seed_from_u64(100);
        let kc_pick = KChoices::with_k(8).choose_join_id(&sys, &mut rng1, 10);
        let rand_pick = super::super::random_peer_id(&sys, &mut rng2);
        let kc_score = KChoices::score_candidate(&sys, &kc_pick, 10);
        let rand_score = KChoices::score_candidate(&sys, &rand_pick, 10);
        assert!(kc_score >= rand_score);
    }
}
