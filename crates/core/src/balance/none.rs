//! The "No LB" baseline of Figures 4–8: random join placement, no
//! redistribution.

use super::{random_peer_id, LoadBalancer};
use crate::key::Key;
use crate::system::DlptSystem;
use rand::RngCore;

/// No explicit load balancing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoBalancing;

impl LoadBalancer for NoBalancing {
    fn name(&self) -> &'static str {
        "none"
    }

    fn before_unit(&mut self, _sys: &mut DlptSystem, _rng: &mut dyn RngCore) {}

    fn choose_join_id(&self, sys: &DlptSystem, rng: &mut dyn RngCore, _capacity: u32) -> Key {
        random_peer_id(sys, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn join_id_is_random_and_fresh() {
        let mut sys = DlptSystem::builder().seed(1).bootstrap_peers(3).build();
        let mut rng = StdRng::seed_from_u64(2);
        let lb = NoBalancing;
        let id = lb.choose_join_id(&sys, &mut rng, 10);
        assert!(sys.shard(&id).is_none());
        sys.add_peer_with_id(id, 10).unwrap();
        sys.assert_clean();
    }
}
