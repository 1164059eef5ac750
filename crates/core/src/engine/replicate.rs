//! Replication orchestration (`protocol::repair`): the engine side of
//! eager replica maintenance, the anti-entropy passes, read failover,
//! crash promotion and the replication invariant check. Split out of
//! `engine/mod.rs` (one module per concern); the message handlers
//! themselves live in [`crate::protocol::repair`].

use super::{Engine, Transport};
use crate::key::Key;
use crate::messages::{DiscoveryMsg, Envelope, NodeSeed, PeerMsg};
use crate::protocol::{discovery, repair, Effects};
use crate::replication::AntiEntropyReport;

impl Engine {
    /// Eager replica maintenance: re-clones every node touched since
    /// the last flush onto its `k - 1` ring successors and
    /// garbage-collects copies of dissolved nodes. The synchronous
    /// pump calls this (then drains) after every public mutating
    /// operation, so replica state tracks the data plane without
    /// waiting for the next anti-entropy pass. No-op at `k = 1` or
    /// without eager replication.
    pub fn flush_replication<T: Transport>(&mut self, t: &mut T) {
        if self.config.replication <= 1
            || (self.touched.is_empty() && self.dropped_replicas.is_empty())
        {
            return;
        }
        let k = self.config.replication;
        for (lid, fid) in std::mem::take(&mut self.dropped_replicas) {
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
        let mut touched_ids = std::mem::take(&mut self.touched);
        // Render ids back to keys once, then sort lexicographically so
        // the flush order (and thus the fingerprint) is id-assignment
        // independent.
        let mut touched: Vec<Key> = touched_ids
            .iter()
            .map(|&l| self.directory.key_of(l).clone())
            .collect();
        touched.sort();
        touched.dedup();
        let peers: Vec<Key> = self.members.iter().cloned().collect();
        for label in &touched {
            let Some(primary) = self.directory.host_of(label).cloned() else {
                continue; // dissolved during the same drain
            };
            let targets = repair::successors_of(&peers, &primary, k - 1);
            let stale: Vec<Key> = self
                .directory
                .followers_of(label)
                .filter(|f| !targets.contains(f))
                .cloned()
                .collect();
            for f in stale {
                if self.members.contains(&f) {
                    t.deliver(Envelope::to_peer(
                        f,
                        PeerMsg::DropReplica {
                            label: label.clone(),
                        },
                    ));
                }
            }
            self.directory.set_followers(label, &targets);
            if targets.is_empty() {
                continue;
            }
            let env = {
                let Some(shard) = self.shard(&primary) else {
                    continue;
                };
                let Some(node) = shard.nodes.get(label) else {
                    continue; // relocation still in flight
                };
                Envelope::to_peer(
                    shard.peer.succ.clone(),
                    PeerMsg::Replicate {
                        primary: primary.clone(),
                        ttl: (k - 1) as u32,
                        seed: NodeSeed::of(node),
                    },
                )
            };
            t.deliver(env);
            self.repl_stats.eager_syncs += 1;
        }
        touched_ids.clear();
        self.touched = touched_ids; // hand the capacity back
    }

    /// The planning half of a self-healing anti-entropy pass over
    /// *local* shards: re-plans follower sets, counts under-replicated
    /// labels, garbage-collects stale copies and — unless the overlay
    /// is already converged under eager maintenance — kicks every peer
    /// with `SyncReplicas`. Returns the report and whether anything
    /// was enqueued (the runtime then drains and fills in
    /// `messages_sent`). No-op at `k = 1`.
    pub fn anti_entropy_scan<T: Transport>(&mut self, t: &mut T) -> (AntiEntropyReport, bool) {
        let k = self.config.replication;
        let mut report = AntiEntropyReport::default();
        if k <= 1 || self.members.len() <= 1 {
            return (report, false);
        }
        self.repl_stats.anti_entropy_passes += 1;
        let peers: Vec<Key> = self.members.iter().cloned().collect();
        let want = (k - 1).min(peers.len() - 1);
        // Re-plan the follower sets over the current ring, then count
        // the labels whose *planned* followers are missing a live copy
        // — this catches crashed followers and placement displaced by
        // joins alike.
        repair::refresh_follower_records(&mut self.directory, &peers, k);
        for (label, _) in self.directory.iter() {
            let live_copies = self
                .directory
                .followers_of(label)
                .filter(|f| {
                    self.shard(f)
                        .map(|s| s.replicas.contains_key(label))
                        .unwrap_or(false)
                })
                .count();
            if live_copies < want {
                report.under_replicated += 1;
            }
        }
        // GC copies whose label died or whose holder left the set
        // (ring order: the drop envelopes are fingerprint-visible).
        let mut drops: Vec<(Key, Key)> = Vec::new();
        for (pid, shard) in self.shards() {
            for rl in shard.replicas.keys() {
                let keep = self.directory.contains(rl)
                    && self.directory.followers_of(rl).any(|f| f == pid);
                if !keep {
                    drops.push((pid.clone(), rl.clone()));
                }
            }
        }
        report.replicas_dropped = drops.len();
        // Converged pass: under eager maintenance the flush keeps copy
        // *content* fresh, so when every label has its full live
        // follower set and nothing needs GC the blanket re-clone would
        // be pure steady-state traffic — skip it. (Runtimes without
        // the eager path always re-clone: `anti_entropy_kick`.)
        if report.under_replicated == 0 && drops.is_empty() {
            return (report, false);
        }
        for (pid, label) in drops {
            t.deliver(Envelope::to_peer(pid, PeerMsg::DropReplica { label }));
        }
        for p in &peers {
            t.deliver(Envelope::to_peer(
                p.clone(),
                PeerMsg::SyncReplicas { k: k as u32 },
            ));
        }
        (report, true)
    }

    /// The simple anti-entropy pass of the asynchronous runtimes (no
    /// eager flush to lean on): re-plan the follower records, then kick
    /// every peer with `SyncReplicas` so each re-clones its nodes along
    /// the ring. The runtime drains afterwards. No-op at `k = 1`.
    pub fn anti_entropy_kick<T: Transport>(&mut self, t: &mut T) -> bool {
        let k = self.config.replication;
        if k <= 1 || self.members.len() <= 1 {
            return false;
        }
        let peers: Vec<Key> = self.members.iter().cloned().collect();
        repair::refresh_follower_records(&mut self.directory, &peers, k);
        t.broadcast(
            peers
                .into_iter()
                .map(|p| Envelope::to_peer(p, PeerMsg::SyncReplicas { k: k as u32 })),
        );
        true
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
    /// label is not a live node. Local shards only.
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
        // Ownership transfer as an explicit handoff record: when the
        // crashed primary's entry is still present (the crash path
        // promotes before pruning), the record names the dead owner;
        // a re-insert after pruning carries no previous owner.
        let handoff = self.directory.handoff(label, &target);
        debug_assert_ne!(
            handoff.from,
            Some(handoff.to),
            "promotion must move ownership off the crashed primary"
        );
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
        let k = self.config.replication;
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
