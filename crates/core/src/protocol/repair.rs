//! Replication and self-healing anti-entropy (extension over the
//! paper).
//!
//! The source paper's DLPT keeps exactly one copy of every tree node,
//! so a non-graceful departure destroys the nodes its peer ran. The
//! self-stabilizing follow-up work (Caron et al., "Optimization in a
//! Self-Stabilizing Service Discovery Framework for Large Scale
//! Systems") makes the overlay survive such faults by keeping
//! redundant state and repairing it continuously. This module is that
//! loop for the DLPT:
//!
//! * **Placement.** The authoritative copy of node `n` stays where the
//!   mapping rule puts it (`min {P : P >= n}`); `k - 1` *follower*
//!   copies live on the primary's next ring successors. The placement
//!   needs only local knowledge: a [`PeerMsg::Replicate`] walk hops
//!   from successor to successor, storing a copy at each stop, until
//!   its `ttl` drains or it wraps back to the primary.
//! * **Failover.** When the primary crashes, the first live follower
//!   is — by the mapping rule — exactly the peer that should now host
//!   the node, so promotion (`Engine::crash_shard`) restores both
//!   the data and the mapping invariant in one step. Exhausted
//!   primaries can likewise serve reads from a follower copy (the
//!   runtime charges the follower's capacity instead of dropping).
//! * **Anti-entropy.** Each time unit the runtime kicks every peer
//!   with [`PeerMsg::SyncReplicas`]; the peer re-clones every node it
//!   runs onto its successors. Crashed followers, stale copies and
//!   replica sets displaced by joins all converge back to the
//!   invariant *"every node has `min(k, |P|)` distinct live replica
//!   hosts"* within one pass.
//!
//! Handlers follow the crate's rule: one `&mut PeerShard`, effects out.

use crate::directory::Directory;
use crate::key::Key;
use crate::messages::{Envelope, NodeSeed, PeerMsg};
use crate::peer::PeerShard;
use crate::protocol::Effects;

/// `<SyncReplicas, k>`: re-clone every hosted node onto the ring
/// successors (anti-entropy kick, typically once per time unit).
pub fn on_sync_replicas(shard: &mut PeerShard, k: u32, fx: &mut Effects) {
    if k < 2 {
        return;
    }
    let succ = shard.peer.succ.clone();
    if succ == shard.peer.id {
        return; // solitary peer: nobody to replicate to
    }
    let primary = shard.peer.id.clone();
    for node in shard.nodes.values() {
        fx.send(Envelope::to_peer(
            succ.clone(),
            PeerMsg::Replicate {
                primary: primary.clone(),
                ttl: k - 1,
                seed: Box::new(NodeSeed::of(node)),
            },
        ));
    }
}

/// `<Replicate, (primary, ttl, seed)>`: store a follower copy and
/// forward the walk along the ring while the ttl lasts.
pub fn on_replicate(
    shard: &mut PeerShard,
    primary: Key,
    ttl: u32,
    seed: Box<NodeSeed>,
    fx: &mut Effects,
) {
    if shard.peer.id == primary {
        return; // wrapped around a ring smaller than k: stop
    }
    if ttl > 1 && shard.peer.succ != primary && shard.peer.succ != shard.peer.id {
        fx.send(Envelope::to_peer(
            shard.peer.succ.clone(),
            PeerMsg::Replicate {
                primary,
                ttl: ttl - 1,
                seed: seed.clone(),
            },
        ));
    }
    match shard.replicas.get_mut(&seed.label) {
        // Most refreshes carry a node some routed message merely
        // passed through: same links, same data. The copy then keeps
        // its sets and only restarts its counters, as a rebuilt copy
        // would.
        Some(copy) if seed.describes(copy) => {
            copy.load = 0;
            copy.prev_load = 0;
        }
        _ => {
            shard.replicas.insert(seed.into_state());
        }
    }
}

/// `<DropReplica, label>`: discard a follower copy (no-op if absent).
pub fn on_drop_replica(shard: &mut PeerShard, label: &Key) {
    shard.replicas.remove(label);
}

/// Sentinel ring position meaning "peer id is not a member".
const OFF_RING: u32 = u32::MAX;

/// The follower planner: the peer ring in interned-id space. A label's
/// planned followers are a function of its *host's* ring position
/// alone, so planning is a position lookup plus one slice of the ring —
/// no `Key` comparison, no allocation — and every caller (the eager
/// flush, both anti-entropy passes, all three runtimes) plans through
/// this one type, so follower placement cannot drift between them.
/// [`successors_of`] is the `Key`-level definition it is tested
/// against.
#[derive(Debug, Default)]
pub struct RingPlan {
    /// Member peer ids in ring order, stored twice back to back: any
    /// wrapping run of successors is then one contiguous slice.
    doubled: Vec<u32>,
    /// Peer id → ring position ([`OFF_RING`] when not a member).
    pos: Vec<u32>,
    /// Cleared when the membership changes; a stale plan re-reads the
    /// ring on its next [`RingPlan::refresh`].
    fresh: bool,
}

impl RingPlan {
    /// Marks the plan out of date (the membership changed).
    pub fn invalidate(&mut self) {
        self.fresh = false;
    }

    /// Re-reads the ring from `members` if it changed since the last
    /// refresh. `members` must be ascending and already interned in
    /// `directory`. Reuses the tables' allocations.
    pub fn refresh<'a>(&mut self, directory: &Directory, members: impl Iterator<Item = &'a Key>) {
        if self.fresh {
            return;
        }
        let old = self.doubled.len() / 2;
        for &pid in &self.doubled[..old] {
            self.pos[pid as usize] = OFF_RING;
        }
        self.doubled.clear();
        self.doubled.extend(members.map(|m| {
            directory
                .id_of(m)
                .expect("members are interned when they join")
        }));
        let n = self.doubled.len();
        self.doubled.extend_from_within(..);
        if self.pos.len() < directory.interned_len() {
            self.pos.resize(directory.interned_len(), OFF_RING);
        }
        for (i, &pid) in self.doubled[..n].iter().enumerate() {
            self.pos[pid as usize] = i as u32;
        }
        self.fresh = true;
    }

    /// Member peer ids in ring order.
    pub fn ids(&self) -> &[u32] {
        &self.doubled[..self.doubled.len() / 2]
    }

    /// The `count` ring successors of peer id `primary` — wrapping,
    /// `primary` excluded, capped at the other members — exactly
    /// [`successors_of`] in id space. A `primary` that is not a member
    /// (it may just have crashed) is planned from the slot its key
    /// would occupy, the one case that compares keys.
    pub fn followers<'a>(&'a self, directory: &Directory, primary: u32, count: usize) -> &'a [u32] {
        let ring = self.ids();
        let n = ring.len();
        let (start, others) = match self.pos.get(primary as usize) {
            Some(&p) if p != OFF_RING => (p as usize + 1, n - 1),
            _ => {
                let key = directory.key_of(primary);
                let at = ring.partition_point(|&m| directory.key_of(m) < key);
                (at % n.max(1), n)
            }
        };
        &self.doubled[start..start + count.min(others)]
    }
}

/// Re-plans the follower set of every live label over the current ring
/// — the planning half of an anti-entropy pass, shared by all three
/// runtimes. The transport kick (`SyncReplicas` to every peer) is
/// runtime-specific. Records are rewritten only where the plan differs,
/// so a converged overlay is read, not written.
pub fn refresh_follower_records(directory: &mut Directory, ring: &RingPlan, k: usize) {
    let count = k.saturating_sub(1);
    for i in 0..directory.len() {
        let lid = directory.live_ids()[i];
        let primary = directory.host_id(lid).expect("live labels have a host");
        let planned = ring.followers(directory, primary, count);
        if directory.follower_ids(lid) != planned {
            directory.set_follower_ids(lid, planned);
        }
    }
}

/// The `count` ring successors of `primary` over `peers` (ascending,
/// deduplicated, wrapping, `primary` excluded) — the follower set the
/// [`PeerMsg::Replicate`] walk materializes. `peers` must be sorted
/// ascending; `primary` need not be present (it may just have crashed).
pub fn successors_of(peers: &[Key], primary: &Key, count: usize) -> Vec<Key> {
    if peers.is_empty() || count == 0 {
        return Vec::new();
    }
    let start = match peers.binary_search(primary) {
        Ok(i) => i + 1,
        Err(i) => i,
    };
    let mut out = Vec::with_capacity(count.min(peers.len()));
    for off in 0..peers.len() {
        let p = &peers[(start + off) % peers.len()];
        if p == primary {
            continue;
        }
        out.push(p.clone());
        if out.len() == count {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{Address, Message};
    use crate::node::NodeState;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    fn shard_with_ring(id: &str, pred: &str, succ: &str) -> PeerShard {
        let mut s = PeerShard::new(k(id), 100);
        s.peer.pred = k(pred);
        s.peer.succ = k(succ);
        s
    }

    #[test]
    fn sync_replicas_emits_one_walk_per_node() {
        let mut s = shard_with_ring("M", "D", "T");
        s.install(NodeState::new(k("E")));
        s.install(NodeState::new(k("K")));
        let mut fx = Effects::default();
        on_sync_replicas(&mut s, 3, &mut fx);
        assert_eq!(fx.out.len(), 2);
        for e in &fx.out {
            assert_eq!(e.to, Address::Peer(k("T")));
            match &e.msg {
                Message::Peer(PeerMsg::Replicate { primary, ttl, .. }) => {
                    assert_eq!(primary, &k("M"));
                    assert_eq!(*ttl, 2);
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn sync_replicas_noop_for_k1_and_solitary() {
        let mut s = shard_with_ring("M", "D", "T");
        s.install(NodeState::new(k("E")));
        let mut fx = Effects::default();
        on_sync_replicas(&mut s, 1, &mut fx);
        assert!(fx.out.is_empty());
        let mut solo = shard_with_ring("M", "M", "M");
        solo.install(NodeState::new(k("E")));
        on_sync_replicas(&mut solo, 2, &mut fx);
        assert!(fx.out.is_empty());
    }

    #[test]
    fn replicate_stores_and_forwards_until_ttl_drains() {
        let mut s = shard_with_ring("T", "M", "Z");
        let mut fx = Effects::default();
        let seed = NodeSeed {
            label: k("E"),
            father: None,
            children: vec![],
            data: vec![k("E")],
        };
        on_replicate(&mut s, k("M"), 2, seed.clone().into(), &mut fx);
        assert!(s.replicas.contains_key(&k("E")));
        assert_eq!(fx.out.len(), 1, "ttl 2 forwards once more");
        let mut fx2 = Effects::default();
        on_replicate(&mut s, k("M"), 1, seed.into(), &mut fx2);
        assert!(fx2.out.is_empty(), "ttl 1 is the last stop");
    }

    #[test]
    fn replicate_refresh_equals_a_rebuilt_copy() {
        let mut s = shard_with_ring("T", "M", "Z");
        let mut fx = Effects::default();
        let mut seed = NodeSeed {
            label: k("E"),
            father: Some(k("D")),
            children: vec![k("E1"), k("E2")],
            data: vec![k("E")],
        };
        on_replicate(&mut s, k("M"), 1, seed.clone().into(), &mut fx);
        // A failover read charged the copy; an unchanged refresh keeps
        // the sets but restarts the counters, like a fresh copy.
        s.replicas.get_mut(&k("E")).unwrap().load = 7;
        on_replicate(&mut s, k("M"), 1, seed.clone().into(), &mut fx);
        assert_eq!(s.replicas[&k("E")], seed.clone().into_state());
        // A changed node replaces the copy.
        seed.children.pop();
        seed.data.push(k("E9"));
        on_replicate(&mut s, k("M"), 1, seed.clone().into(), &mut fx);
        assert_eq!(s.replicas[&k("E")], seed.into_state());
    }

    #[test]
    fn replicate_walk_stops_at_wraparound() {
        // Ring of two: M -> T -> M. A walk with a large ttl must not
        // bounce forever.
        let mut s = shard_with_ring("T", "M", "M");
        let mut fx = Effects::default();
        let seed = NodeSeed {
            label: k("E"),
            father: None,
            children: vec![],
            data: vec![],
        };
        on_replicate(&mut s, k("M"), 5, seed.clone().into(), &mut fx);
        assert!(s.replicas.contains_key(&k("E")));
        assert!(fx.out.is_empty(), "successor is the primary: stop");
        // And the primary itself silently drops a fully wrapped walk.
        let mut p = shard_with_ring("M", "T", "T");
        on_replicate(&mut p, k("M"), 5, seed.into(), &mut fx);
        assert!(p.replicas.is_empty());
    }

    #[test]
    fn drop_replica_removes_a_copy_and_tolerates_absence() {
        let mut s = shard_with_ring("T", "M", "Z");
        s.replicas.insert(NodeState::new(k("F")));
        on_drop_replica(&mut s, &k("F"));
        on_drop_replica(&mut s, &k("F"));
        assert!(s.replicas.is_empty());
    }

    #[test]
    fn successors_wrap_dedup_and_exclude_primary() {
        let peers: Vec<Key> = ["A", "D", "M", "T"].iter().map(|s| k(s)).collect();
        assert_eq!(successors_of(&peers, &k("M"), 2), vec![k("T"), k("A")]);
        assert_eq!(
            successors_of(&peers, &k("T"), 5),
            vec![k("A"), k("D"), k("M")],
            "capped at the other live peers"
        );
        // Primary absent (just crashed): successors from its old slot.
        assert_eq!(successors_of(&peers, &k("F"), 2), vec![k("M"), k("T")]);
        assert!(successors_of(&peers, &k("M"), 0).is_empty());
        assert!(successors_of(&[], &k("M"), 2).is_empty());
        let one = vec![k("A")];
        assert!(successors_of(&one, &k("A"), 3).is_empty());
    }

    proptest::proptest! {
        /// The id-space planner is `successors_of`, for every ring of
        /// 1–12 peers and every primary: each member (the greatest one
        /// wraps), and non-members below, between and above them.
        #[test]
        fn ring_plan_matches_successors_of(
            members in proptest::collection::btree_set(0u8..40, 1..13),
            outsiders in proptest::collection::vec(0u8..42, 1..6),
        ) {
            let name = |n: &u8| k(&format!("{n:02}"));
            let peers: Vec<Key> = members.iter().map(name).collect();
            let mut directory = Directory::new();
            // Intern out of ring order: ids must not stand in for rank.
            for p in peers.iter().rev() {
                directory.intern(p);
            }
            let mut ring = RingPlan::default();
            ring.refresh(&directory, peers.iter());
            let planned: Vec<&Key> = ring.ids().iter().map(|&p| directory.key_of(p)).collect();
            proptest::prop_assert_eq!(planned, peers.iter().collect::<Vec<_>>());
            let primaries: Vec<Key> = peers.iter().cloned().chain(outsiders.iter().map(name)).collect();
            for primary in &primaries {
                let pid = directory.intern(primary);
                for kk in [1usize, 2, 3, 5] {
                    let got: Vec<Key> = ring
                        .followers(&directory, pid, kk - 1)
                        .iter()
                        .map(|&f| directory.key_of(f).clone())
                        .collect();
                    proptest::prop_assert_eq!(
                        &got,
                        &successors_of(&peers, primary, kk - 1),
                        "primary {} k {}", primary, kk
                    );
                }
            }
        }
    }

    #[test]
    fn ring_plan_refresh_forgets_departed_members() {
        let mut directory = Directory::new();
        let peers: Vec<Key> = ["A", "D", "M", "T"].iter().map(|s| k(s)).collect();
        for p in &peers {
            directory.intern(p);
        }
        let mut ring = RingPlan::default();
        assert!(ring.followers(&directory, 0, 2).is_empty(), "empty ring");
        ring.refresh(&directory, peers.iter());
        // D leaves: it is planned as an outsider from its old slot —
        // once the plan is told the membership changed.
        let rest: Vec<Key> = peers.iter().filter(|p| **p != k("D")).cloned().collect();
        ring.refresh(&directory, rest.iter());
        assert_eq!(ring.ids().len(), 4, "a fresh plan is not re-read");
        ring.invalidate();
        ring.refresh(&directory, rest.iter());
        let d = directory.id_of(&k("D")).unwrap();
        let got: Vec<&Key> = ring
            .followers(&directory, d, 3)
            .iter()
            .map(|&f| directory.key_of(f))
            .collect();
        assert_eq!(got, vec![&k("M"), &k("T"), &k("A")]);
    }
}
