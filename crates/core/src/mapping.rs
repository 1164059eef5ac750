//! The self-contained node→peer mapping.
//!
//! Section 3: "The mapping scheme ensures that the peer `P` chosen to
//! run a given node `n` always satisfies the condition that `P` is the
//! lowest peer id higher than `n`. Recall that if `∀n ∈ N` such that
//! `n > P_max`, the peer running `n` is `P_min`." Together with
//! Algorithm 2 line 2.06 (`ν_P = {n ∈ ν_p : n <= P}`) this pins the
//! convention: a node whose identifier *equals* a peer identifier stays
//! on that peer, i.e.
//!
//! ```text
//! host(n) = min { P ∈ peers : P >= n }, wrapping to P_min
//! ```
//!
//! Avoiding the DHT of the original DLPT design is the paper's first
//! contribution; this successor rule is what preserves lexicographic
//! locality (Figure 9): consecutive tree nodes tend to land on the same
//! peer, so most logical hops cost no physical message.

use crate::key::Key;
use std::collections::BTreeSet;

/// Computes `host(n)` over an ordered peer set: the lowest peer id
/// `>= n`, wrapping to the minimum. Returns `None` for an empty set.
/// Borrows from the set — a routing decision allocates nothing.
pub fn host_of<'a>(peers: &'a BTreeSet<Key>, n: &Key) -> Option<&'a Key> {
    peers
        .range::<Key, _>(n..)
        .next()
        .or_else(|| peers.iter().next())
}

/// The predecessor of `id` in the ordered peer set, wrapping to the
/// maximum; `None` for an empty set. When `id` is itself the only
/// peer, its predecessor is itself.
pub fn pred_of<'a>(peers: &'a BTreeSet<Key>, id: &Key) -> Option<&'a Key> {
    peers
        .range::<Key, _>(..id)
        .next_back()
        .or_else(|| peers.iter().next_back())
}

/// The successor of `id` in the ordered peer set, wrapping to the
/// minimum; `None` for an empty set.
pub fn succ_of<'a>(peers: &'a BTreeSet<Key>, id: &Key) -> Option<&'a Key> {
    use std::ops::Bound;
    peers
        .range::<Key, _>((Bound::Excluded(id), Bound::Unbounded))
        .next()
        .or_else(|| peers.iter().next())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    fn peers(ids: &[&str]) -> BTreeSet<Key> {
        ids.iter().map(|s| k(s)).collect()
    }

    #[test]
    fn host_is_lowest_peer_at_or_above() {
        let ps = peers(&["D", "M", "T"]);
        assert_eq!(host_of(&ps, &k("A")), Some(&k("D")));
        assert_eq!(host_of(&ps, &k("D")), Some(&k("D")), "equality stays");
        assert_eq!(host_of(&ps, &k("E")), Some(&k("M")));
        assert_eq!(host_of(&ps, &k("M")), Some(&k("M")));
        assert_eq!(host_of(&ps, &k("N")), Some(&k("T")));
    }

    #[test]
    fn host_wraps_to_minimum() {
        let ps = peers(&["D", "M", "T"]);
        // n > P_max → P_min (paper's wrap rule).
        assert_eq!(host_of(&ps, &k("Z")), Some(&k("D")));
    }

    #[test]
    fn host_of_empty_is_none() {
        assert_eq!(host_of(&BTreeSet::new(), &k("A")), None);
    }

    #[test]
    fn pred_and_succ_wrap() {
        let ps = peers(&["D", "M", "T"]);
        assert_eq!(pred_of(&ps, &k("D")), Some(&k("T")));
        assert_eq!(pred_of(&ps, &k("M")), Some(&k("D")));
        assert_eq!(succ_of(&ps, &k("T")), Some(&k("D")));
        assert_eq!(succ_of(&ps, &k("D")), Some(&k("M")));
    }

    #[test]
    fn pred_succ_for_non_member_id() {
        let ps = peers(&["D", "M", "T"]);
        // Queries about prospective ids (used by k-choices).
        assert_eq!(pred_of(&ps, &k("E")), Some(&k("D")));
        assert_eq!(succ_of(&ps, &k("E")), Some(&k("M")));
        assert_eq!(succ_of(&ps, &k("Z")), Some(&k("D")));
    }

    #[test]
    fn single_peer_is_its_own_neighbours() {
        let ps = peers(&["M"]);
        assert_eq!(pred_of(&ps, &k("M")), Some(&k("M")));
        assert_eq!(succ_of(&ps, &k("M")), Some(&k("M")));
        assert_eq!(host_of(&ps, &k("zzz")), Some(&k("M")));
    }

    #[test]
    fn epsilon_maps_to_minimum_peer() {
        let ps = peers(&["D", "M"]);
        assert_eq!(host_of(&ps, &Key::epsilon()), Some(&k("D")));
    }
}
