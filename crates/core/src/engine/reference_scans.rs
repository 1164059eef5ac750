//! The pre-id-native replication and repair scans, kept verbatim as the
//! reference the change-proportional passes in `replicate.rs` are
//! tested against (`scan_equivalence`). A reference engine
//! (`Engine::reference_scans`) routes `flush_replication`,
//! `anti_entropy_scan` and `repair_scan` here; everything else is
//! shared. Test-only: nothing outside `cfg(test)` reaches this module.

use super::{Engine, RepairReport, Transport};
use crate::directory::Directory;
use crate::key::Key;
use crate::messages::{Envelope, NodeSeed, PeerMsg};
use crate::protocol::repair;
use crate::replication::AntiEntropyReport;
use std::collections::BTreeSet;

/// The `Key`-level follower re-plan: one `successors_of` binary search
/// and one `Vec<Key>` per live label.
fn refresh_follower_records_reference(directory: &mut Directory, peers: &[Key], k: usize) {
    let plans: Vec<(Key, Vec<Key>)> = directory
        .iter()
        .map(|(label, primary)| {
            (
                label.clone(),
                repair::successors_of(peers, primary, k.saturating_sub(1)),
            )
        })
        .collect();
    for (label, targets) in &plans {
        directory.set_followers(label, targets);
    }
}

impl Engine {
    pub(super) fn flush_replication_reference<T: Transport>(&mut self, t: &mut T) {
        if self.replication <= 1 || (self.touched.is_empty() && self.dropped_replicas.is_empty()) {
            return;
        }
        let k = self.replication;
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
                        seed: Box::new(NodeSeed::of(node)),
                    },
                )
            };
            t.deliver(env);
            self.repl_stats.eager_syncs += 1;
        }
        touched_ids.clear();
        self.touched = touched_ids; // hand the capacity back
    }

    pub(super) fn anti_entropy_scan_reference<T: Transport>(
        &mut self,
        t: &mut T,
    ) -> (AntiEntropyReport, bool) {
        let k = self.replication;
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
        refresh_follower_records_reference(&mut self.directory, &peers, k);
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
        // Converged pass: the eager flush keeps copy *content* fresh,
        // so when every label has its full live follower set and
        // nothing needs GC the blanket re-clone would be pure
        // steady-state traffic — skip it.
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

    /// The scan half of the old `DlptSystem::repair_tree`: snapshot
    /// every live label, prune every node's child set against it, then
    /// collect the orphans in a second pass.
    pub(super) fn repair_scan_reference(&mut self) -> RepairReport {
        let mut scan = RepairReport::default();
        let live: BTreeSet<Key> = self.directory.labels().cloned().collect();
        let mut touched: Vec<Key> = Vec::new();
        for pid in self.peer_ids() {
            let Some(shard) = self.shard_mut(&pid) else {
                continue;
            };
            shard.nodes.visit_mut(|node| {
                let before = node.children.len();
                node.children.retain(|c| live.contains(c));
                if node.children.len() < before {
                    touched.push(node.label.clone());
                }
                scan.pruned_links += before - node.children.len();
            });
        }
        for label in touched {
            self.mark_touched(&label);
        }
        for shard in self.local_shards() {
            for node in shard.nodes.values() {
                if node.father.as_ref().is_some_and(|f| !live.contains(f)) {
                    scan.reattached.push(node.label.clone());
                }
            }
        }
        scan.reattached.sort();
        scan
    }
}
