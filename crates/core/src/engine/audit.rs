//! The invariant auditor: [`Engine::audit`] is the single source of
//! the suite-wide invariants, [`Engine::assert_clean`] the one
//! assertion. Split out of `engine/mod.rs`, one module per concern.

use super::{Engine, SLOT_NONE};
use crate::obs::health::{AuditCheck, Violation};

impl Engine {
    /// Audits directory↔slab↔trie↔replication cross-consistency and
    /// returns every violation found instead of panicking, so fault and
    /// partition scenarios can be audited mid-recovery. The checks are
    /// read-only and the same on every runtime: directory, slab,
    /// mapping, ring, trie, link-id, replication-record and
    /// cache-epoch. An
    /// empty result after quiescence is the suite-wide invariant
    /// (`tests/runtime_equivalence.rs`).
    pub fn audit(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let mut push = |check: AuditCheck, detail: String| out.push(Violation { check, detail });

        // Interner round-trip: every id resolves back to itself.
        for id in 0..self.directory.interned_len() as u32 {
            let k = self.directory.key_of(id);
            if self.directory.id_of(k) != Some(id) {
                push(
                    AuditCheck::Directory,
                    format!("interned id {id} ({k}) does not round-trip"),
                );
            }
        }

        // Slab integrity: id↔slot bijection, free-list partition, and
        // key↔id agreement (the no-aliasing property id reuse after a
        // rename depends on).
        let slab = &self.peers;
        let mut slot_owner: Vec<Option<u32>> = vec![None; slab.slots.len()];
        let mut live = 0usize;
        for (pid, &s) in slab.by_id.iter().enumerate() {
            if s == SLOT_NONE {
                continue;
            }
            live += 1;
            match slab.slots.get(s as usize).and_then(|o| o.as_ref()) {
                None => push(
                    AuditCheck::Slab,
                    format!("peer id {pid} maps to empty slot {s}"),
                ),
                Some(slot) => {
                    if let Some(prev) = slot_owner[s as usize].replace(pid as u32) {
                        push(
                            AuditCheck::Slab,
                            format!("slot {s} referenced by peer ids {prev} and {pid}"),
                        );
                    }
                    if self.directory.id_of(&slot.key) != Some(pid as u32) {
                        push(
                            AuditCheck::Slab,
                            format!("slot {s} holds {} but is indexed under id {pid}", slot.key),
                        );
                    }
                    if !self.members.contains(&slot.key) {
                        push(
                            AuditCheck::Slab,
                            format!("slot {s} peer {} is not a ring member", slot.key),
                        );
                    }
                }
            }
        }
        let mut freed = vec![false; slab.slots.len()];
        for &f in &slab.free {
            if slab.slots.get(f as usize).is_none_or(|o| o.is_some()) {
                push(
                    AuditCheck::Slab,
                    format!("free slot {f} still holds a peer"),
                );
            } else if std::mem::replace(&mut freed[f as usize], true) {
                push(
                    AuditCheck::Slab,
                    format!("slot {f} appears twice on the free list"),
                );
            }
        }
        if live + slab.free.len() != slab.slots.len() {
            push(
                AuditCheck::Slab,
                format!(
                    "slab leak: {live} live + {} free != {} slots",
                    slab.free.len(),
                    slab.slots.len()
                ),
            );
        }
        if live != self.members.len() {
            push(
                AuditCheck::Slab,
                format!("{live} slab slots vs {} ring members", self.members.len()),
            );
        }

        // Directory: every live label's host is a live member with a
        // slab slot, and obeys the mapping rule host(n) = min{P >= n}.
        for (label, host) in self.directory.iter() {
            if !self.members.contains(host) {
                push(
                    AuditCheck::Directory,
                    format!("host {host} of {label} is not a live member"),
                );
                continue;
            }
            match self.directory.id_of(host) {
                Some(hid) if slab.contains(hid) => {}
                _ => push(
                    AuditCheck::Directory,
                    format!("host {host} of {label} has no slab slot"),
                ),
            }
            match self.host_peer(label) {
                Some(expected) if expected == host => {}
                Some(expected) => push(
                    AuditCheck::Mapping,
                    format!("{label} hosted by {host}, mapping rule says {expected}"),
                ),
                None => push(
                    AuditCheck::Mapping,
                    format!("{label} is live but the ring is empty"),
                ),
            }
        }

        // Ring links.
        for (id, shard) in self.shards() {
            for (link, have, want) in [
                ("pred", &shard.peer.pred, self.ring_pred(id)),
                ("succ", &shard.peer.succ, self.ring_succ(id)),
            ] {
                if want != Some(have) {
                    push(
                        AuditCheck::Ring,
                        format!("{id}: {link} is {have}, ring order says {want:?}"),
                    );
                }
            }
        }

        // PGCP trie invariants (Definition 1).
        for shard in self.local_shards() {
            for node in shard.nodes.values() {
                for d in &node.data {
                    if d != &node.label {
                        push(
                            AuditCheck::Trie,
                            format!("{}: data key {d} differs from label", node.label),
                        );
                    }
                }
                if let Some(f) = node.father() {
                    match self.node(f) {
                        None => push(
                            AuditCheck::Trie,
                            format!("{}: father {f} does not resolve", node.label),
                        ),
                        Some(father) if !father.children().contains(&node.label) => push(
                            AuditCheck::Trie,
                            format!("{}: father {f} does not list it as a child", node.label),
                        ),
                        Some(_) => {}
                    }
                }
                for c in node.children() {
                    match self.node(c) {
                        None => push(
                            AuditCheck::Trie,
                            format!("{}: child {c} does not resolve", node.label),
                        ),
                        Some(child) if child.father() != Some(&node.label) => push(
                            AuditCheck::Trie,
                            format!("{c}: father link does not point back to {}", node.label),
                        ),
                        Some(_) => {}
                    }
                    if !node.label.is_proper_prefix_of(c) {
                        push(
                            AuditCheck::Trie,
                            format!("{}: child {c} is not a proper extension", node.label),
                        );
                    }
                }
                // Siblings share exactly the parent label. Children are
                // sorted, so a longer shared prefix anywhere shows up
                // between some adjacent pair.
                for (a, b) in node.children().iter().zip(node.children().iter().skip(1)) {
                    if a.gcp_len(b) != node.label.len() {
                        push(
                            AuditCheck::Trie,
                            format!(
                                "{}: children {a} and {b} share a prefix other than it",
                                node.label
                            ),
                        );
                    }
                }
            }
        }

        // Link ids: a memoised id names its link's label. Primaries and
        // follower copies alike, since a promoted copy keeps its memos.
        for shard in self.local_shards() {
            for node in shard.nodes.values().chain(shard.replicas.values()) {
                for (link, id) in node.memoised_links() {
                    let named = ((id as usize) < self.directory.interned_len())
                        .then(|| self.directory.key_of(id));
                    if named != Some(link) {
                        push(
                            AuditCheck::LinkIds,
                            format!(
                                "{}: link {link} memoises id {id}, which names {named:?}",
                                node.label
                            ),
                        );
                    }
                }
            }
        }

        // Replication records: at most k − 1 followers per label, every
        // recorded follower a live member. (Copy presence is anti-
        // entropy's transient concern; the snapshot reports it as
        // `under_replicated` rather than a violation.)
        let k = self.replication;
        if k > 1 {
            for (label, host) in self.directory.iter() {
                let lid = self.directory.id_of(label).expect("live label is interned");
                let fids = self.directory.follower_ids(lid);
                if fids.len() > k - 1 {
                    push(
                        AuditCheck::Replication,
                        format!("{label}: {} followers recorded, k = {k}", fids.len()),
                    );
                }
                for &f in fids {
                    let fk = self.directory.key_of(f);
                    if !self.members.contains(fk) {
                        push(
                            AuditCheck::Replication,
                            format!("{label}: follower {fk} is not a live member"),
                        );
                    }
                    if fk == host {
                        push(
                            AuditCheck::Replication,
                            format!("{label}: primary {host} recorded as its own follower"),
                        );
                    }
                }
            }
        }

        // Each cache's index must agree with its slots, and
        // shortcuts must reference epochs the directory has actually
        // issued (stale is legal; from-the-future is not).
        for m in &self.members {
            let Some(pid) = self.directory.id_of(m) else {
                continue;
            };
            let Some(slot) = slab.get(pid) else { continue };
            if let Err(detail) = slot.cache.check_index() {
                push(AuditCheck::Cache, format!("{m}: {detail}"));
            }
            for (target, sc) in slot.cache.iter_shortcuts() {
                if sc.epoch > self.directory.epoch_of(&sc.label) {
                    push(
                        AuditCheck::Cache,
                        format!(
                            "{m}: shortcut for {target} carries epoch {} > directory epoch {}",
                            sc.epoch,
                            self.directory.epoch_of(&sc.label)
                        ),
                    );
                }
            }
        }

        out
    }

    /// Panics, listing every [`Violation`], unless [`Engine::audit`]
    /// comes back empty — the one assertion tests and examples make
    /// about a quiescent overlay.
    #[track_caller]
    pub fn assert_clean(&self) {
        let found = self.audit();
        let lines: Vec<String> = found.iter().map(|v| format!("  {v}")).collect();
        assert!(found.is_empty(), "audit found:\n{}", lines.join("\n"));
    }
}
