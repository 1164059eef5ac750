//! Membership and churn: peers join, leave, migrate a node, change
//! identifier and crash here, once for every runtime. Split out of
//! `engine/mod.rs`, one module per concern.

use super::{Engine, PeerSlot, Transport};
use crate::cache::RouteCache;
use crate::error::{DlptError, Result};
use crate::key::Key;
use crate::messages::{Envelope, JoinPhase, NodeMsg, PeerMsg};
use crate::node::NodeState;
use crate::peer::PeerShard;
use crate::protocol::maintenance;
use rand::rngs::StdRng;

impl Engine {
    /// Registers a peer and its (empty) shard. The runtime then routes
    /// the join itself ([`Engine::join_envelope`]).
    pub(crate) fn add_local_shard(&mut self, id: Key, capacity: u32) {
        let pid = self.directory.intern(&id);
        self.peers.insert(
            pid,
            PeerSlot {
                key: id.clone(),
                shard: PeerShard::new(id.clone(), capacity),
                cache: RouteCache::new(self.cache_capacity),
            },
        );
        self.members.insert(id);
        self.ring.invalidate();
    }

    /// Forgets a peer — membership, entry-point cache, shard — and
    /// returns the shard; `None` when `id` is not a member.
    pub fn remove_member(&mut self, id: &Key) -> Option<PeerShard> {
        self.members.remove(id);
        self.ring.invalidate();
        let pid = self.directory.id_of(id)?;
        Some(self.peers.remove(pid)?.shard)
    }

    /// The join envelope for peer `id` (which must already be a
    /// member): route `<PeerJoin, P, 0>` through the tree from a random
    /// node, or — before any tree exists — contact an arbitrary other
    /// peer and let the ring walk of Algorithm 2 place it.
    pub(crate) fn join_envelope(&mut self, id: &Key, rng: &mut StdRng) -> Envelope {
        match self.random_node(rng) {
            Some(entry) => Envelope::to_node(
                entry,
                NodeMsg::PeerJoin {
                    joining: id.clone(),
                    phase: JoinPhase::Up,
                },
            ),
            None => {
                let contact = self
                    .members
                    .iter()
                    .find(|k| *k != id)
                    .cloned()
                    .expect("at least one other peer");
                Envelope::to_peer(
                    contact,
                    PeerMsg::NewPredecessor {
                        joining: id.clone(),
                    },
                )
            }
        }
    }

    /// The first registration: there is no tree to route through yet,
    /// so `key`'s node becomes the root, installed on the peer the
    /// mapping rule designates. The ring must be non-empty.
    pub(crate) fn install_root(&mut self, key: Key) {
        let host = self.host_peer(&key).expect("non-empty ring").clone();
        let mut node = NodeState::new(key.clone());
        node.add_datum(key.clone());
        self.shard_mut(&host).expect("host exists").install(node);
        self.directory.insert(key.clone(), host);
        self.mark_touched(&key);
        self.root = Some(key);
    }

    /// Graceful departure: the peer hands its nodes to its successor
    /// and splices itself out (Section 4's churn model). The hand-off
    /// traffic enters `t`; the runtime drains afterwards.
    pub(crate) fn leave_shard<T: Transport>(&mut self, id: &Key, t: &mut T) -> Result<()> {
        let mut shard = self
            .remove_member(id)
            .ok_or_else(|| DlptError::UnknownPeer(id.to_string()))?;
        if self.members.is_empty() {
            // Last peer: the overlay disappears with it.
            self.directory.clear();
            self.root = None;
            return Ok(());
        }
        let mut fx = std::mem::take(&mut self.scratch);
        maintenance::leave(&mut shard, &mut fx);
        self.stats.maintenance_messages += fx.out.len() as u64;
        if self.replication > 1 {
            // The departing peer's follower copies vanish with it; its
            // hand-off therefore also kicks the affected primaries to
            // re-clone, so a graceful leave never opens a
            // single-failure data-loss window.
            for label in shard.replicas.keys() {
                let lid = self.directory.intern(label);
                self.touched.push(lid);
            }
        }
        self.apply(&mut fx, t);
        self.scratch = fx;
        Ok(())
    }

    /// Moves one node to another peer: the one-label case of
    /// [`Engine::migrate_run`]. Used by the balancers; counted as
    /// balance traffic.
    pub(crate) fn migrate_shard_node(&mut self, label: &Key, to: &Key) -> Result<()> {
        let from = self
            .directory
            .host_of(label)
            .cloned()
            .ok_or_else(|| DlptError::UnknownNode(label.to_string()))?;
        self.migrate_run(&from, to, |l| l == label).map(drop)
    }

    /// Moves the nodes of `from` whose labels `pick` selects to `to`
    /// as one run — the MLT boundary move, where "a prefix of the
    /// combined node sequence" changes hands — and returns how many
    /// moved. One drain of `from`'s map, one extend of `to`'s, and per
    /// moved label one directory update (one hash: `to` is interned
    /// once), whose host change bumps the label's epoch and stales
    /// every shortcut through it. Each node counts as one balance
    /// migration.
    pub(crate) fn migrate_run(
        &mut self,
        from: &Key,
        to: &Key,
        pick: impl FnMut(&Key) -> bool,
    ) -> Result<usize> {
        let live = |id: &Key| self.directory.id_of(id).filter(|&p| self.peers.contains(p));
        let from_pid = live(from).ok_or_else(|| DlptError::UnknownPeer(from.to_string()))?;
        let to_pid = live(to).ok_or_else(|| DlptError::UnknownPeer(to.to_string()))?;
        if from_pid == to_pid {
            return Ok(0);
        }
        let run = self
            .peers
            .get_mut(from_pid)
            .expect("checked")
            .shard
            .nodes
            .drain_where(pick);
        for node in &run {
            let lid = self.directory.insert_at(&node.label, to_pid);
            if self.replication > 1 {
                self.touched.push(lid);
            }
        }
        let moved = run.len();
        self.stats.balance_migrations += moved as u64;
        self.peers
            .get_mut(to_pid)
            .expect("checked")
            .shard
            .nodes
            .extend(run);
        Ok(moved)
    }

    /// Changes a peer's identifier in place (the MLT boundary move).
    /// Ring links of both neighbours, the directory entries of hosted
    /// nodes, the membership set and the peer's entry-point cache all
    /// follow.
    pub(crate) fn rename_shard(&mut self, old: &Key, new: Key) -> Result<()> {
        if old == &new {
            return Ok(());
        }
        if self.members.contains(&new) {
            return Err(DlptError::DuplicatePeer(new.to_string()));
        }
        let old_pid = self
            .directory
            .id_of(old)
            .filter(|&p| self.peers.contains(p))
            .ok_or_else(|| DlptError::UnknownPeer(old.to_string()))?;
        let new_pid = self.directory.intern(&new);
        // The slot — shard, entry-point cache, free-list position —
        // survives the rename: only the id binding moves, so learned
        // shortcuts and slab integrity carry over.
        self.peers.rebind(old_pid, new_pid);
        if self.replication > 1 {
            // The follower copies it holds for other labels keep their
            // holder.
            self.directory.rebind_follower(old_pid, Some(new_pid));
        }
        self.members.remove(old);
        self.ring.invalidate();
        let replicated = self.replication > 1;
        let slot = self.peers.get_mut(new_pid).expect("just re-bound");
        slot.key = new.clone();
        let shard = &mut slot.shard;
        let (pred, succ) = (shard.peer.pred.clone(), shard.peer.succ.clone());
        shard.peer.id = new.clone();
        if pred == *old {
            shard.peer.pred = new.clone();
        }
        if succ == *old {
            shard.peer.succ = new.clone();
        }
        // One hash per hosted label: the new id is interned already.
        for label in shard.nodes.keys() {
            let lid = self.directory.insert_at(label, new_pid);
            if replicated {
                self.touched.push(lid);
            }
        }
        self.members.insert(new.clone());
        if let Some(p) = self.shard_mut(&pred) {
            if p.peer.succ == *old {
                p.peer.succ = new.clone();
            }
        }
        if let Some(s) = self.shard_mut(&succ) {
            if s.peer.pred == *old {
                s.peer.pred = new.clone();
            }
        }
        self.stats.peer_renames += 1;
        Ok(())
    }

    /// Non-graceful departure: the peer vanishes and the ring heals
    /// around it. Without replication (`k = 1`) every node the peer ran
    /// — and its registered data — is lost. With `k > 1` each lost node
    /// fails over to a surviving follower copy (`protocol::repair`);
    /// only nodes with no live replica are lost. Returns the labels of
    /// the *lost* nodes.
    pub(crate) fn crash_shard(&mut self, id: &Key) -> Result<Vec<Key>> {
        let shard = self
            .remove_member(id)
            .ok_or_else(|| DlptError::UnknownPeer(id.to_string()))?;
        let hosted: Vec<Key> = shard.nodes.keys().cloned().collect();
        if self.members.is_empty() {
            // Last peer: the overlay disappears with it.
            self.directory.clear();
            self.root = None;
            self.stats.nodes_lost += hosted.len() as u64;
            if self.replication > 1 {
                self.repl_stats.unrecoverable_nodes += hosted.len() as u64;
            }
            return Ok(hosted);
        }
        // Failure-detector stand-in: neighbours notice and heal.
        let (pred, succ) = (shard.peer.pred.clone(), shard.peer.succ.clone());
        if let Some(p) = self.shard_mut(&pred) {
            p.peer.succ = if succ == *id {
                pred.clone()
            } else {
                succ.clone()
            };
        }
        if let Some(s) = self.shard_mut(&succ) {
            s.peer.pred = if pred == *id {
                succ.clone()
            } else {
                pred.clone()
            };
        }
        // Failover: promote surviving follower copies; lose the rest.
        let mut lost = Vec::new();
        for label in hosted {
            if self.replication > 1 && self.promote_from_followers(&label) {
                self.repl_stats.promotions += 1;
            } else {
                self.directory.remove(&label);
                if self.replication > 1 {
                    self.repl_stats.unrecoverable_nodes += 1;
                }
                lost.push(label);
            }
        }
        if self.replication > 1 {
            // The victim's follower copies died with it. Every reader
            // skips a dead follower anyway; the records say so now
            // instead of after the next anti-entropy pass.
            let pid = self.directory.id_of(id).expect("members are interned");
            self.directory.rebind_follower(pid, None);
        }
        self.stats.nodes_lost += lost.len() as u64;
        if self
            .root
            .as_ref()
            .map(|r| lost.contains(r))
            .unwrap_or(false)
        {
            self.root = None;
        }
        Ok(lost)
    }
}
