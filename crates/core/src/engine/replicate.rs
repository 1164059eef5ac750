//! Replication orchestration (`protocol::repair`): the engine side of
//! eager replica maintenance, the anti-entropy passes, read failover,
//! crash promotion, crash repair and the replication invariant check.
//! Split out of `engine/mod.rs` (one module per concern); the message
//! handlers themselves live in [`crate::protocol::repair`] (and, for
//! crash repair, [`crate::protocol::data_insertion`]). Replication
//! traffic is reliable-class ([`crate::transport::is_faultable`]): the
//! fault gate would pass it without a draw, so it enters the transport
//! directly. Repair traffic is node messages like any insertion's and
//! takes the gate ([`Engine::send`]), which passes it the same way.

use super::{Engine, Transport};
use crate::key::Key;
use crate::messages::{DiscoveryMsg, Envelope, NodeMsg, NodeSeed, PeerMsg};
use crate::protocol::{discovery, repair, Effects};
use crate::replication::AntiEntropyReport;

/// What crash repair found
/// ([`Overlay::repair_tree`](crate::overlay::Overlay::repair_tree)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Dangling child links removed.
    pub pruned_links: usize,
    /// The orphans re-attached — live nodes whose father died — in
    /// label order, ancestors first.
    pub reattached: Vec<Key>,
}

impl Engine {
    /// Eager replica maintenance: re-clones every node touched since
    /// the last flush onto its `k - 1` ring successors and
    /// garbage-collects copies of dissolved nodes. Every runtime calls
    /// this (then drains) after every public mutating operation
    /// ([`crate::overlay::Overlay`]), so replica state tracks the data
    /// plane without waiting for the next anti-entropy pass. Costs the
    /// touched labels only: planning is a ring-position lookup per
    /// label, and the membership is re-read only after it changed.
    /// No-op at `k = 1`.
    pub(crate) fn flush_replication<T: Transport>(&mut self, t: &mut T) {
        if self.replication <= 1 || (self.touched.is_empty() && self.dropped_replicas.is_empty()) {
            return;
        }
        let k = self.replication;
        for (lid, fid) in self.dropped_replicas.drain(..) {
            // A follower is live iff its peer id still has a slot.
            if let Some(slot) = self.peers.get(fid) {
                t.deliver(Envelope::to_peer(
                    slot.key.clone(),
                    PeerMsg::DropReplica {
                        label: self.directory.key_of(lid).clone(),
                    },
                ));
            }
        }
        let mut touched = std::mem::take(&mut self.touched);
        // Lexicographic by label, so the flush order (and thus the
        // fingerprint) is id-assignment independent.
        let directory = &self.directory;
        touched.sort_unstable_by(|&a, &b| directory.key_of(a).cmp(directory.key_of(b)));
        touched.dedup();
        self.ring.refresh(&self.directory, self.members.iter());
        for &lid in &touched {
            let Some(hid) = self.directory.host_id(lid) else {
                continue; // dissolved during the same drain
            };
            let label = self.directory.key_of(lid).clone();
            let targets = self.ring.followers(&self.directory, hid, k - 1);
            for &f in self.directory.follower_ids(lid) {
                if targets.contains(&f) {
                    continue;
                }
                if let Some(slot) = self.peers.get(f) {
                    t.deliver(Envelope::to_peer(
                        slot.key.clone(),
                        PeerMsg::DropReplica {
                            label: label.clone(),
                        },
                    ));
                }
            }
            if self.directory.follower_ids(lid) != targets {
                self.directory.set_follower_ids(lid, targets);
            }
            if targets.is_empty() {
                continue;
            }
            let Some(shard) = self.peers.get(hid).map(|s| &s.shard) else {
                continue;
            };
            let Some(node) = shard.nodes.get(&label) else {
                continue; // relocation still in flight
            };
            t.deliver(Envelope::to_peer(
                shard.peer.succ.clone(),
                PeerMsg::Replicate {
                    primary: self.directory.key_of(hid).clone(),
                    ttl: (k - 1) as u32,
                    seed: Box::new(NodeSeed::of(node)),
                },
            ));
            self.repl_stats.eager_syncs += 1;
        }
        touched.clear();
        self.touched = touched; // hand the capacity back
    }

    /// The planning half of a self-healing anti-entropy pass: re-plans
    /// follower sets, counts under-replicated
    /// labels, garbage-collects stale copies and — unless the overlay
    /// is already converged — kicks every peer
    /// with `SyncReplicas`. Returns the report and whether anything
    /// was enqueued (the runtime then drains and fills in
    /// `messages_sent`). A converged pass reads every follower record
    /// and every follower copy once, in id space, and writes nothing.
    /// No-op at `k = 1`.
    pub(crate) fn anti_entropy_scan<T: Transport>(
        &mut self,
        t: &mut T,
    ) -> (AntiEntropyReport, bool) {
        let k = self.replication;
        let mut report = AntiEntropyReport::default();
        if k <= 1 || self.members.len() <= 1 {
            return (report, false);
        }
        self.repl_stats.anti_entropy_passes += 1;
        let want = (k - 1).min(self.members.len() - 1) as u32;
        // Re-plan the follower sets over the current ring: this catches
        // crashed followers and placement displaced by joins alike.
        self.ring.refresh(&self.directory, self.members.iter());
        repair::refresh_follower_records(&mut self.directory, &self.ring, k);
        // One walk over every follower copy, in ring order (the drop
        // envelopes are fingerprint-visible): a copy either counts
        // toward its label's planned followers or is garbage — its
        // label died or its holder left the set.
        let mut live_copies = vec![0u32; self.directory.interned_len()];
        let mut drops: Vec<(u32, Key)> = Vec::new();
        for &pid in self.ring.ids() {
            let Some(slot) = self.peers.get(pid) else {
                continue;
            };
            for label in slot.shard.replicas.keys() {
                match self.directory.resolve(label) {
                    Some((lid, _, _)) if self.directory.follower_ids(lid).contains(&pid) => {
                        live_copies[lid as usize] += 1;
                    }
                    _ => drops.push((pid, label.clone())),
                }
            }
        }
        report.under_replicated = self
            .directory
            .live_ids()
            .iter()
            .filter(|&&lid| live_copies[lid as usize] < want)
            .count();
        report.replicas_dropped = drops.len();
        // Converged pass: the eager flush keeps copy *content* fresh,
        // so when every label has its full live follower set and
        // nothing needs GC the blanket re-clone would be pure
        // steady-state traffic — skip it.
        if report.under_replicated == 0 && drops.is_empty() {
            return (report, false);
        }
        for (pid, label) in drops {
            let holder = self.directory.key_of(pid).clone();
            t.deliver(Envelope::to_peer(holder, PeerMsg::DropReplica { label }));
        }
        for p in &self.members {
            t.deliver(Envelope::to_peer(
                p.clone(),
                PeerMsg::SyncReplicas { k: k as u32 },
            ));
        }
        (report, true)
    }

    /// Crash repair, as protocol traffic on every runtime: sends one
    /// orphan from [`Engine::repair_scan`] back through the insertion
    /// protocol — a `Reattach` entering at the root or, while the root
    /// is dead, `SetFather { father: None }` making the orphan the root.
    /// The runtime sends the orphans in the scan's order and quiesces
    /// after each: an orphan's father link is dead until its
    /// `SetFather` arrives, so no later orphan may route through it
    /// before then.
    pub(crate) fn send_orphan<T: Transport>(&mut self, t: &mut T, orphan: Key) {
        let env = match self.root.clone() {
            Some(root) => Envelope::to_node(root, NodeMsg::Reattach { label: orphan }),
            None => Envelope::to_node(orphan, NodeMsg::SetFather { father: None }),
        };
        self.stats.nodes_reattached += 1;
        self.send(t, env);
    }

    /// The scan half of crash repair: prunes child links to dead nodes
    /// and lists the orphans for [`Engine::send_orphan`]. Liveness is a
    /// directory probe per link; only nodes that actually hold a dead
    /// child are rewritten and scheduled for re-replication.
    pub(crate) fn repair_scan(&mut self) -> RepairReport {
        let replicated = self.replication > 1;
        let mut scan = RepairReport::default();
        self.ring.refresh(&self.directory, self.members.iter());
        let directory = &self.directory;
        for &pid in self.ring.ids() {
            let Some(slot) = self.peers.get_mut(pid) else {
                continue;
            };
            // Label order: `touched` feeds the re-replication sends.
            slot.shard.nodes.visit_mut(|node| {
                if node.children().iter().any(|c| !directory.contains(c)) {
                    let before = node.children().len();
                    node.retain_children(|c| directory.contains(c));
                    scan.pruned_links += before - node.children().len();
                    if replicated {
                        self.touched.extend(directory.id_of(&node.label));
                    }
                }
                if node.father().is_some_and(|f| !directory.contains(f)) {
                    scan.reattached.push(node.label.clone());
                }
            });
        }
        scan.reattached.sort_unstable();
        scan
    }

    /// Serves a capacity-refused discovery visit from a live follower
    /// copy, charging the follower's capacity instead. Returns the
    /// message when no follower can serve it (the caller then counts
    /// the drop as before).
    pub(super) fn failover_read(
        &mut self,
        label: &Key,
        msg: DiscoveryMsg,
        fx: &mut Effects,
    ) -> Option<DiscoveryMsg> {
        let followers: Vec<Key> = self.directory.followers_of(label).cloned().collect();
        for f in followers {
            let Some(shard) = self.shard_mut(&f) else {
                continue;
            };
            if !shard.replicas.contains_key(label) || !shard.peer.try_accept() {
                continue;
            }
            let node = shard.replicas.get_mut(label).expect("checked");
            node.load += 1;
            discovery::on_discovery_at(node, msg, fx);
            self.repl_stats.failover_reads += 1;
            return None;
        }
        Some(msg)
    }

    /// The distinct live peers currently holding a copy of `label`
    /// (primary first, then followers in ring order). Empty when the
    /// label is not a live node.
    pub fn replica_hosts(&self, label: &Key) -> Vec<Key> {
        let mut out = Vec::new();
        if let Some(p) = self.directory.host_of(label) {
            if self
                .shard(p)
                .map(|s| s.nodes.contains_key(label))
                .unwrap_or(false)
            {
                out.push(p.clone());
            }
        }
        for f in self.directory.followers_of(label) {
            let holds = self
                .shard(f)
                .map(|s| s.replicas.contains_key(label))
                .unwrap_or(false);
            if holds && !out.contains(f) {
                out.push(f.clone());
            }
        }
        out
    }

    /// Failover after a primary crash: moves a surviving follower copy
    /// of `label` onto the peer the mapping rule now designates
    /// (usually the copy's own holder — the first live follower *is*
    /// the crashed primary's ring successor), updates the directory
    /// and prunes dead follower records. Returns false when no live
    /// copy exists.
    pub(super) fn promote_from_followers(&mut self, label: &Key) -> bool {
        let holder = self
            .directory
            .followers_of(label)
            .find(|f| {
                self.shard(f)
                    .map(|s| s.replicas.contains_key(label))
                    .unwrap_or(false)
            })
            .cloned();
        let Some(holder) = holder else {
            return false;
        };
        let copy = self
            .shard_mut(&holder)
            .expect("holder is live")
            .replicas
            .remove(label)
            .expect("copy is present");
        let target = self.host_peer(label).expect("ring non-empty").clone();
        self.shard_mut(&target)
            .expect("mapping points at live peers")
            .install(copy);
        self.directory.insert(label.clone(), target.clone());
        // Keep the surviving follower records; the next anti-entropy
        // pass re-fills the set to k - 1.
        let remaining: Vec<Key> = self
            .directory
            .followers_of(label)
            .filter(|f| **f != target && self.contains_peer(f))
            .cloned()
            .collect();
        self.directory.set_followers(label, &remaining);
        true
    }

    /// Verifies the replication invariant: every live node has
    /// `min(k, |P|)` distinct live replica hosts. Trivially true at
    /// `k = 1` (the mapping invariant covers the single copy).
    pub fn check_replication(&self) -> std::result::Result<(), String> {
        let k = self.replication;
        if k <= 1 {
            return Ok(());
        }
        let want = k.min(self.members.len());
        for (label, _) in self.directory.iter() {
            let hosts = self.replica_hosts(label);
            if hosts.len() < want {
                return Err(format!(
                    "node {label} has {} live replica hosts {:?}, invariant demands {want}",
                    hosts.len(),
                    hosts
                ));
            }
        }
        Ok(())
    }
}
