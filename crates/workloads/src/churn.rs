//! Churn models: join/leave volumes per simulated time unit.
//!
//! Figures 4–5 run "a relatively stable network. It means that the
//! number of peers joining and leaving the system were intentionally
//! low"; Figures 6–8 run the dynamic platform where "10% of the nodes
//! are replaced at each time unit".

use rand::{Rng, RngCore};

/// Fractions of the peer population joining and leaving each unit.
///
/// `leave_fraction` models the paper's *graceful* departures (the peer
/// hands its nodes over before going); `crash_rate` is the replication
/// extension's *non-graceful* departures — the peer vanishes with its
/// state, the failure mode `protocol::repair` exists to survive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnModel {
    /// Fraction of `|peers|` joining per unit.
    pub join_fraction: f64,
    /// Fraction of `|peers|` leaving gracefully per unit.
    pub leave_fraction: f64,
    /// Fraction of `|peers|` crashing (non-gracefully) per unit.
    pub crash_rate: f64,
}

impl ChurnModel {
    /// No churn at all.
    pub fn none() -> Self {
        ChurnModel {
            join_fraction: 0.0,
            leave_fraction: 0.0,
            crash_rate: 0.0,
        }
    }

    /// The paper's "relatively stable" network: intentionally low
    /// churn (2% per unit).
    pub fn stable() -> Self {
        ChurnModel {
            join_fraction: 0.02,
            leave_fraction: 0.02,
            crash_rate: 0.0,
        }
    }

    /// The paper's dynamic network: "10% of the nodes are replaced at
    /// each time unit".
    pub fn dynamic() -> Self {
        ChurnModel {
            join_fraction: 0.10,
            leave_fraction: 0.10,
            crash_rate: 0.0,
        }
    }

    /// A failure-heavy network: joins keep the population level while a
    /// visible share of departures is non-graceful (crashes), the
    /// regime the `figR` replication experiment studies.
    pub fn crashy() -> Self {
        ChurnModel {
            join_fraction: 0.07,
            leave_fraction: 0.02,
            crash_rate: 0.05,
        }
    }

    /// Copy of this model with a different crash rate (the `figR`
    /// sweep axis).
    pub fn with_crash_rate(mut self, rate: f64) -> Self {
        self.crash_rate = rate.max(0.0);
        self
    }

    /// Number of peers joining this unit. Fractional expectations are
    /// resolved probabilistically so low rates still churn sometimes.
    pub fn joins(&self, peer_count: usize, rng: &mut dyn RngCore) -> usize {
        resolve(self.join_fraction * peer_count as f64, rng)
    }

    /// Number of peers leaving gracefully this unit (never empties the
    /// ring).
    pub fn leaves(&self, peer_count: usize, rng: &mut dyn RngCore) -> usize {
        resolve(self.leave_fraction * peer_count as f64, rng).min(peer_count.saturating_sub(1))
    }

    /// Number of peers crashing this unit (never empties the ring).
    /// Draws no randomness at a zero rate, so pre-crash experiment
    /// streams replay byte-identically.
    pub fn crashes(&self, peer_count: usize, rng: &mut dyn RngCore) -> usize {
        resolve(self.crash_rate * peer_count as f64, rng).min(peer_count.saturating_sub(1))
    }
}

/// Integer part plus a Bernoulli trial on the remainder.
fn resolve(expected: f64, rng: &mut dyn RngCore) -> usize {
    let whole = expected.floor() as usize;
    let frac = expected - whole as f64;
    whole + usize::from(frac > 0.0 && rng.gen_bool(frac.min(1.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dynamic_replaces_ten_percent() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = ChurnModel::dynamic();
        assert_eq!(m.joins(100, &mut rng), 10);
        assert_eq!(m.leaves(100, &mut rng), 10);
    }

    #[test]
    fn stable_is_low_but_nonzero_in_expectation() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = ChurnModel::stable();
        let total: usize = (0..1000).map(|_| m.joins(100, &mut rng)).sum();
        // E[total] = 1000 * 2 = 2000.
        assert!((1800..2200).contains(&total), "{total}");
    }

    #[test]
    fn fractional_rates_bernoulli() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = ChurnModel {
            join_fraction: 0.005,
            leave_fraction: 0.0,
            crash_rate: 0.0,
        };
        // 100 peers → expectation 0.5 per unit.
        let total: usize = (0..2000).map(|_| m.joins(100, &mut rng)).sum();
        assert!((850..1150).contains(&total), "{total}");
        assert_eq!(m.leaves(100, &mut rng), 0);
    }

    #[test]
    fn leaves_never_empty_the_ring() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = ChurnModel {
            join_fraction: 0.0,
            leave_fraction: 5.0,
            crash_rate: 5.0,
        };
        assert_eq!(m.leaves(3, &mut rng), 2);
        assert_eq!(m.leaves(1, &mut rng), 0);
        assert_eq!(m.leaves(0, &mut rng), 0);
        assert_eq!(m.crashes(3, &mut rng), 2);
        assert_eq!(m.crashes(1, &mut rng), 0);
    }

    #[test]
    fn none_is_silent() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = ChurnModel::none();
        for _ in 0..100 {
            assert_eq!(m.joins(100, &mut rng), 0);
            assert_eq!(m.leaves(100, &mut rng), 0);
            assert_eq!(m.crashes(100, &mut rng), 0);
        }
    }

    #[test]
    fn zero_crash_rate_consumes_no_randomness() {
        // Byte-identical replay guarantee: the paper experiments (no
        // crashes) must draw the same random stream with or without
        // the crash step in the loop.
        let mut with_step = StdRng::seed_from_u64(6);
        let mut without = StdRng::seed_from_u64(6);
        let m = ChurnModel::stable();
        for _ in 0..50 {
            assert_eq!(m.crashes(100, &mut with_step), 0);
        }
        assert_eq!(with_step.gen::<u64>(), without.gen::<u64>());
    }

    #[test]
    fn crashy_preset_mixes_graceful_and_crash_departures() {
        let m = ChurnModel::crashy();
        assert!(m.crash_rate > 0.0);
        assert!(m.leave_fraction > 0.0);
        assert!(
            (m.join_fraction - (m.leave_fraction + m.crash_rate)).abs() < 1e-12,
            "population stays level in expectation"
        );
        let mut rng = StdRng::seed_from_u64(7);
        let total: usize = (0..1000).map(|_| m.crashes(100, &mut rng)).sum();
        assert!((4200..5800).contains(&total), "{total}");
        assert_eq!(ChurnModel::stable().with_crash_rate(0.01).crash_rate, 0.01);
    }
}
