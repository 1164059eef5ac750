//! The runtime-agnostic protocol engine.
//!
//! [`Engine`] owns the per-peer shards, the delivery [`Directory`], the
//! per-peer [`RouteCache`]s and the replication bookkeeping, and
//! processes every envelope through **one** state machine
//! ([`Engine::deliver`]); the operations that inject envelopes and
//! drain them are written once as well ([`crate::overlay::Overlay`]).
//! What distinguishes the runtimes is only *how messages travel*: the
//! [`Transport`] a [`Driver`](crate::overlay::Driver) queues into:
//!
//! | Runtime | Driver | Delivery |
//! |---|---|---|
//! | [`crate::system::DlptSystem`] | [`crate::system::Pump`] | immediate FIFO |
//! | `dlpt-net::sim::LatencyNet` | `LatencyDriver` (event queue) | sampled delay |
//! | `dlpt-net::threaded::ThreadedDlpt` | `FrameDriver` (framed channels) | encoded frames between peer threads, handled by `deliver` |
//!
//! A transport only queues envelopes; it never interprets them. The
//! engine in turn never schedules — it reports `Requeue` when a
//! destination is still in flight and lets the runtime decide whether
//! to retry now (FIFO), one tick later (latency queue) or by bouncing
//! the frame back to an inbox (framed channels).
//!
//! No behaviour depends on the runtime: every visit charges Section 4's
//! capacity model, every mutation is followed by the eager replica
//! flush, and whether a request may finalize mid-drain is derived from
//! the transport ([`Transport::synchronous`]) and the fault plan.
//! Requests run one at a time: one slot holds the request in flight
//! from [`Engine::begin_request`] until its outcome is handed out. Fault
//! injection and the recovery it makes necessary are the engine's too
//! (`faults.rs`): one gate for everything emitted, one retry policy,
//! both consequences of the installed [`FaultPlan`].

mod audit;
#[cfg(test)]
mod audit_corruption;
mod faults;
mod health;
#[cfg(test)]
mod link_ids;
mod membership;
mod replicate;
#[cfg(test)]
mod run_moves;
#[cfg(test)]
mod slab_props;
#[cfg(test)]
mod slot_hints;
#[cfg(test)]
pub(crate) mod twin;
#[cfg(test)]
mod write_chains;

use crate::cache::{self, CacheStats, RouteCache};
use crate::directory::{Directory, FxHashSet};
use crate::error::{DlptError, Result};
use crate::key::Key;
use crate::mapping;
use crate::messages::{
    Address, DiscoveryMsg, DiscoveryOutcome, Envelope, Message, NodeMsg, PeerMsg, QueryKind,
};
use crate::metrics::SystemStats;
use crate::node::{Link, NodeState};
use crate::obs::{EventKind, TraceEvent, TraceRing, Tracer};
use crate::peer::PeerShard;
use crate::protocol::{self, discovery, repair, Effects};
use crate::replication::ReplicationStats;
use crate::transport::{FaultPlan, Faults};
use crate::trie::PgcpTrie;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

pub use faults::REQUEST_RETRY_BUDGET;
pub use replicate::RepairReport;

/// How envelopes travel between the engine and the peers.
///
/// Implementations queue envelopes for later processing — immediate
/// FIFO, a latency-sampling event queue or encoded frames over
/// per-peer channels. A transport never interprets an envelope: all
/// protocol behaviour stays in the engine, which is what keeps the
/// three runtimes equivalent.
pub trait Transport {
    /// Queues one envelope for delivery.
    fn deliver(&mut self, env: Envelope);

    /// Whether queuing through this transport is immediate FIFO work.
    /// It has exactly two uses: hop chaining ([`Engine::deliver`]: an
    /// exact lookup's hops, and with [`Transport::idle`] every lone
    /// forward), taken up only while no fault plan is active, since
    /// fault-injecting runs must observe every hop — and eager judging:
    /// FIFO order delivers a parent's response before its children's,
    /// so only here may a request finalize the moment no branch is
    /// outstanding, and only while no plan reorders. Everywhere else
    /// responses arrive out of order, the outstanding-branch counter
    /// can transiently touch zero, and requests are judged at
    /// quiescence ([`Engine::finish_request`]).
    fn synchronous(&self) -> bool {
        false
    }

    /// Whether nothing is queued, so that an envelope queued now would
    /// be the next one delivered. A synchronous transport that reports
    /// it lets a delivery whose only effect is one envelope run that
    /// envelope inline ([`Engine::deliver`]).
    fn idle(&self) -> bool {
        false
    }
}

/// The immediate-FIFO transport of the synchronous pump: envelopes are
/// appended to one queue and processed strictly in order. The `u32` is
/// the per-envelope requeue count, owned by the pump's requeue policy.
#[derive(Debug, Default)]
pub struct FifoTransport {
    /// The pending envelopes, front = next to deliver.
    pub queue: VecDeque<(u32, Envelope)>,
}

impl Transport for FifoTransport {
    fn deliver(&mut self, env: Envelope) {
        self.queue.push_back((0, env));
    }

    fn synchronous(&self) -> bool {
        true
    }

    fn idle(&self) -> bool {
        self.queue.is_empty()
    }
}

/// Result of a completed discovery request, as seen by the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupOutcome {
    /// The paper's satisfaction criterion: the request reached its
    /// final destination (and, for exact queries, the key was
    /// registered there), with no visit ignored for lack of capacity.
    pub satisfied: bool,
    /// Exact queries: whether the key was found. Range/completion:
    /// whether the region was reached.
    pub found: bool,
    /// True iff any visit was ignored by an exhausted peer.
    pub dropped: bool,
    /// Matching keys, sorted.
    pub results: Vec<Key>,
    /// Node labels along the up/down route (entry first).
    pub path: Vec<Key>,
    /// Hosting peer of each `path` entry at completion time.
    pub host_path: Vec<Key>,
    /// Extra node visits performed by the scatter phase of
    /// range/completion queries.
    pub gather_visits: usize,
}

impl LookupOutcome {
    /// Tree edges traversed on the up/down route.
    pub fn logical_hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }

    /// Physical messages on the up/down route: consecutive visits
    /// hosted by different peers (the quantity of Figure 9).
    pub fn physical_hops(&self) -> usize {
        self.host_path.windows(2).filter(|w| w[0] != w[1]).count()
    }
}

/// An empty, unsatisfied outcome (used by facades when a request could
/// not even start, e.g. on an empty tree).
pub fn empty_outcome() -> LookupOutcome {
    LookupOutcome {
        satisfied: false,
        found: false,
        dropped: false,
        results: Vec::new(),
        path: Vec::new(),
        host_path: Vec::new(),
        gather_visits: 0,
    }
}

/// The one request in flight. Callers finish a request before they
/// admit the next, so a single slot, re-armed by
/// [`Engine::begin_request`], holds the aggregation, the
/// shortcut-learning intent and the eagerly judged outcome; its filter
/// table is reused across requests so steady-state aggregation
/// allocates nothing.
#[derive(Debug, Default)]
struct Request {
    /// The request's id: a response carrying another id is stale.
    id: u64,
    /// Whether responses still count: from admission until judged.
    open: bool,
    outstanding: i64,
    satisfied: bool,
    dropped: bool,
    results: Vec<Key>,
    best_path: Vec<Key>,
    responses: usize,
    /// Digests of the satisfied responses already applied — the
    /// idempotency filter that keeps a duplicated envelope from
    /// double-decrementing `outstanding` below the true branch count.
    /// (Unsatisfied/dropped responses are exempt: on a reliable
    /// transport distinct exhausted branches can synthesize identical
    /// reports, and a dropped report can never finalize a request as
    /// satisfied, so double-counting one is verdict-safe.) Consulted
    /// only while fault recovery is on — reliable transports cannot
    /// duplicate, so fault-off runs skip the per-response digest.
    seen: FxHashSet<u64>,
    /// Snapshot of the original entry envelope, kept only while fault
    /// recovery is on so a lost branch can be re-issued verbatim.
    /// Fault-off runs never take the snapshot.
    retry: Option<Envelope>,
    /// Fault-induced retries this request has been re-armed for, out
    /// of [`REQUEST_RETRY_BUDGET`]. Survives `rearm` (a retry must keep
    /// its own count); [`Request::begin`] resets it.
    attempts: u32,
    /// `(target, entry host id)` to teach after a satisfied exact query.
    learn: Option<(Key, u32)>,
    /// The outcome judged mid-drain, until [`Engine::take_finished`]
    /// hands it out.
    outcome: Option<LookupOutcome>,
}

impl Request {
    /// Re-arms the slot for request `id`, dropping whatever an earlier
    /// request left in it.
    fn begin(&mut self, id: u64) {
        self.rearm();
        (self.id, self.open, self.attempts) = (id, true, 0);
        (self.retry, self.learn, self.outcome) = (None, None, None);
    }

    /// Resets the aggregation to its admission state, keeping the
    /// retry snapshot (a retried request re-arms with the same origin)
    /// and the filter table's capacity.
    fn rearm(&mut self) {
        self.outstanding = 1;
        self.satisfied = true;
        self.dropped = false;
        self.results.clear();
        self.best_path.clear();
        self.responses = 0;
        self.seen.clear();
    }

    /// The slot, while it aggregates request `id`.
    fn pending(&mut self, id: u64) -> Option<&mut Request> {
        (self.open && self.id == id).then_some(self)
    }
}

/// Sentinel slot index meaning "peer id has no slot".
const SLOT_NONE: u32 = u32::MAX;

/// Engine-side per-peer state, slab-indexed by the peer's interned id.
#[derive(Debug)]
struct PeerSlot {
    /// The peer's identifier (renders ids back to keys at boundaries).
    key: Key,
    /// The peer's shard.
    shard: PeerShard,
    /// The peer's entry-point routing-shortcut cache.
    cache: RouteCache,
}

/// Slab of per-peer slots over [`Directory`]-interned peer ids: a flat
/// `id → slot` index plus a free list, replacing the two
/// `BTreeMap<Key, …>` lookups (shard + cache) the delivery path paid
/// per hop. Slots survive `rename_shard` (the slot is re-bound to the
/// new id, so the cache and free-list integrity carry over) and are
/// recycled on dissolution.
#[derive(Debug, Default)]
struct PeerSlab {
    /// peer id → slot index ([`SLOT_NONE`] when not a member).
    by_id: Vec<u32>,
    slots: Vec<Option<PeerSlot>>,
    /// Released slot indices awaiting reuse.
    free: Vec<u32>,
}

impl PeerSlab {
    #[inline]
    fn slot_of(&self, pid: u32) -> Option<u32> {
        match self.by_id.get(pid as usize) {
            Some(&s) if s != SLOT_NONE => Some(s),
            _ => None,
        }
    }

    #[inline]
    fn contains(&self, pid: u32) -> bool {
        self.slot_of(pid).is_some()
    }

    #[inline]
    fn get(&self, pid: u32) -> Option<&PeerSlot> {
        let s = self.slot_of(pid)?;
        self.slots[s as usize].as_ref()
    }

    #[inline]
    fn get_mut(&mut self, pid: u32) -> Option<&mut PeerSlot> {
        let s = self.slot_of(pid)?;
        self.slots[s as usize].as_mut()
    }

    fn insert(&mut self, pid: u32, slot: PeerSlot) {
        if let Some(s) = self.slot_of(pid) {
            self.slots[s as usize] = Some(slot);
            return;
        }
        if self.by_id.len() <= pid as usize {
            self.by_id.resize(pid as usize + 1, SLOT_NONE);
        }
        let s = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(slot);
                s
            }
            None => {
                self.slots.push(Some(slot));
                (self.slots.len() - 1) as u32
            }
        };
        self.by_id[pid as usize] = s;
    }

    fn remove(&mut self, pid: u32) -> Option<PeerSlot> {
        let s = self.slot_of(pid)?;
        self.by_id[pid as usize] = SLOT_NONE;
        self.free.push(s);
        self.slots[s as usize].take()
    }

    /// Re-binds the slot of `old_pid` to `new_pid` (peer rename): the
    /// slot — shard, cache, free-list position — stays put; only the
    /// id-level index moves. Returns false when `old_pid` has no slot.
    fn rebind(&mut self, old_pid: u32, new_pid: u32) -> bool {
        let Some(s) = self.slot_of(old_pid) else {
            return false;
        };
        self.by_id[old_pid as usize] = SLOT_NONE;
        if self.by_id.len() <= new_pid as usize {
            self.by_id.resize(new_pid as usize + 1, SLOT_NONE);
        }
        self.by_id[new_pid as usize] = s;
        true
    }

    /// All live slots, in slab (slot-index) order — only for
    /// order-insensitive traversals; ring-order traversals go through
    /// the membership set.
    fn iter_slots_mut(&mut self) -> impl Iterator<Item = &mut PeerSlot> {
        self.slots.iter_mut().flatten()
    }
}

/// Content digest of a satisfied response: two reports are the same
/// delivery iff their path, results and branch fan-out agree (within
/// one request a satisfied report's path is unique to its reporting
/// node, so distinct deliveries never collide).
fn response_digest(outcome: &DiscoveryOutcome) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = crate::directory::FxHasher::default();
    outcome.path.hash(&mut h);
    outcome.results.hash(&mut h);
    outcome.pending_children.hash(&mut h);
    h.finish()
}

/// What [`Engine::deliver`] did with one envelope.
#[derive(Debug)]
pub enum Step {
    /// The envelope was processed (or consumed by aggregation).
    Done,
    /// The destination is not resolvable yet (peer unknown, node still
    /// in flight between shards): the runtime should retry later under
    /// its own policy, or abandon via [`Engine::fail_undeliverable`].
    Requeue(Envelope),
}

/// The requeue budget in force on a ring of `peers`: `budget`, floored
/// at twice the membership. A freshly seeded node walks the ring one
/// hop per queue cycle before it lands
/// (`protocol::data_insertion::on_host`), so an envelope waiting on it
/// can legitimately requeue O(ring) times; the floor keeps a runtime's
/// constant tight on small rings and gives large ones the headroom the
/// walk needs.
pub fn requeue_limit(budget: u32, peers: usize) -> u32 {
    budget.max((peers as u32).saturating_mul(2))
}

/// The unified DLPT runtime state machine. See the module docs.
#[derive(Debug)]
pub struct Engine {
    /// Replication factor `k`: each tree node lives on its primary
    /// (mapping-rule) host plus `k - 1` ring-successor followers
    /// (`protocol::repair`). `1` disables replication entirely.
    replication: usize,
    /// Per-peer routing-shortcut cache capacity ([`crate::cache`]);
    /// `0` disables caching entirely.
    cache_capacity: usize,
    /// Per-peer state (shard + entry-point cache), slab-indexed by the
    /// peer's interned id.
    peers: PeerSlab,
    /// Every live peer, in ring (identifier) order — the broadcast
    /// domain and the canonical iteration order for anything that
    /// emits messages or reports errors (the slab's slot order is a
    /// reuse artifact and must never leak into the fingerprint).
    members: BTreeSet<Key>,
    /// `members` in interned-id space — the follower planner of the
    /// replication passes. Invalidated wherever `members` changes and
    /// rebuilt by the next pass that plans (`replicate.rs`), so the
    /// per-write replication flush never re-reads an unchanged
    /// membership.
    ring: repair::RingPlan,
    /// Node label → hosting peer (interned, incrementally ordered).
    pub(crate) directory: Directory,
    /// The request in flight, or the last one.
    request: Request,
    next_request: u64,
    pub(crate) root: Option<Key>,
    /// Reused effect buffers: one dispatch allocates nothing once the
    /// vectors have grown to the workload's high-water mark.
    scratch: Effects,
    /// Host ids of the up/down visits the running dispatch has
    /// delivered, entry visit first: while one [`Engine::deliver`]
    /// chain walks a request's whole route this is its `host_path` in
    /// id space, and [`Engine::judge`] maps it back instead
    /// of re-hashing every path label. Empty between dispatches.
    route_hosts: Vec<u32>,
    /// The fault gate (`faults.rs`); inert by default.
    faults: Faults,
    /// Whether a fault plan or partition is active, i.e. envelopes can
    /// be lost or duplicated: gates [`Engine::send`], the per-response
    /// idempotency digest and the per-request retry snapshot, so
    /// reliable (fault-off) runs pay one branch for the three.
    fault_recovery: bool,
    /// Whether the installed plan reorders: deferred responses break the
    /// parent-before-child order eager judging relies on, so requests
    /// are judged at quiescence on every transport.
    reordering: bool,
    /// Label ids whose state changed since the last flush and whose
    /// replicas must be refreshed (`k > 1` only).
    pub(crate) touched: Vec<u32>,
    /// `(label id, follower peer id)` pairs whose copies must be
    /// garbage-collected because the node dissolved (`k > 1` only).
    dropped_replicas: Vec<(u32, u32)>,
    /// Runtime counters.
    pub stats: SystemStats,
    /// Replication counters (all zero at `k = 1`; kept out of
    /// [`SystemStats`] so the unreplicated golden fingerprint is
    /// byte-identical).
    pub repl_stats: ReplicationStats,
    /// Caching counters (all zero at capacity 0; kept out of
    /// [`SystemStats`] for the same golden-fingerprint reason).
    pub cache_stats: CacheStats,
    /// Structured-event tracing hook ([`Tracer::Noop`] by default).
    /// Every emission site gates on [`Tracer::enabled`], so the off
    /// path costs one branch, allocates nothing, and leaves the golden
    /// fingerprint byte-identical (events live outside
    /// [`SystemStats`]).
    pub tracer: Tracer,
    /// Messages processed under the running [`Engine::with_hop_budget`]
    /// — every delivery attempt, chained hops included.
    hops: usize,
    /// The most messages the running drain may process (unbounded
    /// outside [`Engine::with_hop_budget`]).
    hop_budget: usize,
}

// The threaded runtime (`dlpt-net`) lends the engine to its peer
// threads: a `Cell`/`Rc` added to engine state must fail the build, not
// a test.
const _: fn() = || {
    fn lent_across_threads<T: Sync + Send>() {}
    lent_across_threads::<Engine>();
};

impl Default for Engine {
    /// An empty engine: `k = 1`, caching off, no fault plan.
    fn default() -> Self {
        Engine {
            replication: 1,
            cache_capacity: 0,
            reordering: false,
            peers: PeerSlab::default(),
            members: BTreeSet::new(),
            ring: repair::RingPlan::default(),
            directory: Directory::new(),
            request: Request::default(),
            next_request: 1,
            root: None,
            scratch: Effects::default(),
            route_hosts: Vec::new(),
            faults: Faults::new(FaultPlan::default()),
            fault_recovery: false,
            touched: Vec::new(),
            dropped_replicas: Vec::new(),
            stats: SystemStats::default(),
            repl_stats: ReplicationStats::default(),
            cache_stats: CacheStats::default(),
            tracer: Tracer::Noop,
            hops: 0,
            hop_budget: usize::MAX,
        }
    }
}

impl Engine {
    /// Switches structured-event tracing on with a ring buffer of
    /// `capacity` events (0 switches it off). The ring is fully
    /// preallocated here; emission never allocates afterwards.
    pub fn set_tracing(&mut self, capacity: usize) {
        self.tracer = if capacity == 0 {
            Tracer::Noop
        } else {
            Tracer::Ring(TraceRing::with_capacity(capacity))
        };
    }

    /// True when the tracer records events.
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// Drains the buffered trace events in deterministic merge order.
    /// Empty when tracing is off.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.tracer.drain()
    }

    /// Reconfigures the replication factor `k` (clamped to ≥ 1).
    pub fn set_replication(&mut self, k: usize) {
        self.replication = k.max(1);
    }

    /// Reconfigures the per-peer routing-shortcut cache capacity for
    /// existing peers and every peer joining later (0 = off).
    pub fn set_cache_capacity(&mut self, n: usize) {
        self.cache_capacity = n;
        for slot in self.peers.iter_slots_mut() {
            slot.cache.set_capacity(n);
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Number of peers in the ring.
    pub fn peer_count(&self) -> usize {
        self.members.len()
    }

    /// Number of logical tree nodes.
    pub fn node_count(&self) -> usize {
        self.directory.len()
    }

    /// Peer identifiers in ring order.
    pub fn peer_ids(&self) -> Vec<Key> {
        self.members.iter().cloned().collect()
    }

    /// The `i`-th peer identifier in ring order (`None` past the end):
    /// a uniform draw over the ring without cloning it.
    pub fn peer_at(&self, i: usize) -> Option<&Key> {
        self.members.iter().nth(i)
    }

    /// True iff `id` is a live peer.
    pub fn contains_peer(&self, id: &Key) -> bool {
        self.members.contains(id)
    }

    /// All node labels, ascending.
    pub fn node_labels(&self) -> Vec<Key> {
        self.directory.labels().cloned().collect()
    }

    /// Borrow a live peer's shard.
    pub fn shard(&self, id: &Key) -> Option<&PeerShard> {
        let pid = self.directory.id_of(id)?;
        Some(&self.peers.get(pid)?.shard)
    }

    /// Mutably borrow a live peer's shard.
    pub(crate) fn shard_mut(&mut self, id: &Key) -> Option<&mut PeerShard> {
        let pid = self.directory.id_of(id)?;
        Some(&mut self.peers.get_mut(pid)?.shard)
    }

    /// Mutably borrow a peer's entry-point route cache.
    #[cfg(test)]
    fn cache_mut(&mut self, id: &Key) -> Option<&mut RouteCache> {
        let pid = self.directory.id_of(id)?;
        Some(&mut self.peers.get_mut(pid)?.cache)
    }

    /// Every shard with its peer id, in ring order.
    pub fn shards(&self) -> impl Iterator<Item = (&Key, &PeerShard)> + '_ {
        self.members.iter().map(move |id| {
            let shard = self.shard(id).expect("every member has a slot");
            (id, shard)
        })
    }

    /// Every shard, in ring order.
    pub(crate) fn local_shards(&self) -> impl Iterator<Item = &PeerShard> + '_ {
        self.shards().map(|(_, shard)| shard)
    }

    /// The delivery directory.
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// The peer hosting node `label`, per the delivery directory.
    pub fn host_of(&self, label: &Key) -> Option<&Key> {
        self.directory.host_of(label)
    }

    /// The peer the mapping rule designates for `label`:
    /// `min {P : P >= label}`, wrapping to the minimum.
    pub fn host_peer(&self, label: &Key) -> Option<&Key> {
        mapping::host_of(&self.members, label)
    }

    /// Ring predecessor of `id` over the current peer set (wrapping).
    fn ring_pred(&self, id: &Key) -> Option<&Key> {
        mapping::pred_of(&self.members, id)
    }

    /// Ring successor of `id` over the current peer set (wrapping).
    fn ring_succ(&self, id: &Key) -> Option<&Key> {
        mapping::succ_of(&self.members, id)
    }

    /// Borrow a node's state wherever it is hosted.
    pub fn node(&self, label: &Key) -> Option<&NodeState> {
        let (_, hid, hint) = self.directory.resolve(label)?;
        let nodes = &self.peers.get(hid)?.shard.nodes;
        Some(nodes.at(nodes.find(label, hint)?))
    }

    /// Label of the current tree root.
    pub fn root(&self) -> Option<&Key> {
        self.root.as_ref()
    }

    /// Depth of every live node (root = 0). Only live
    /// labels appear: a node whose father is not a live node — a crash
    /// orphaned its subtree and the runtime's `repair_tree`
    /// (`Engine::repair_scan`) has not run yet — counts as a root of
    /// depth 0. Father links are
    /// resolved to interned ids once (two hashes per node), depths
    /// memoized along each father chain in id-indexed arrays, and the
    /// ordered map built in one pass: O(nodes) hashes and array steps,
    /// O(nodes log nodes) key comparisons only if the shards are far
    /// from label order. Feeds the per-depth visit histogram
    /// ([`crate::metrics::DepthHistogram`]).
    pub fn depth_map(&self) -> BTreeMap<Key, u32> {
        /// `depth` entry of an id that names no live node.
        const NOT_A_NODE: u32 = u32::MAX;
        /// `depth` entry of a live node not reached yet.
        const UNSET: u32 = u32::MAX - 1;
        /// `father` entry of a node without a (known) father.
        const NO_FATHER: u32 = u32::MAX;
        let ids = self.directory.interned_len();
        let mut father = vec![NO_FATHER; ids];
        let mut depth = vec![NOT_A_NODE; ids];
        let mut nodes: Vec<u32> = Vec::with_capacity(self.directory.len());
        for shard in self.local_shards() {
            for node in shard.nodes.values() {
                let lid = self
                    .directory
                    .id_of(&node.label)
                    .expect("hosted nodes are interned when they are placed");
                depth[lid as usize] = UNSET;
                if let Some(fid) = node.father().and_then(|f| self.directory.id_of(f)) {
                    father[lid as usize] = fid;
                }
                nodes.push(lid);
            }
        }
        let mut chain: Vec<u32> = Vec::new();
        for &start in &nodes {
            // Climb to the first ancestor of known depth (or to a node
            // with no live father), then number the chain on the way
            // back down.
            let mut cur = start;
            let mut next = loop {
                match depth[cur as usize] {
                    UNSET => chain.push(cur),
                    known => break known + 1,
                }
                let up = father[cur as usize];
                if up == NO_FATHER || depth[up as usize] == NOT_A_NODE {
                    break 0;
                }
                cur = up;
            };
            while let Some(lid) = chain.pop() {
                depth[lid as usize] = next;
                next += 1;
            }
        }
        nodes
            .iter()
            .map(|&lid| (self.directory.key_of(lid).clone(), depth[lid as usize]))
            .collect()
    }

    /// Every registered service key, ascending.
    pub fn registered_keys(&self) -> Vec<Key> {
        let mut out = Vec::new();
        for shard in self.local_shards() {
            for node in shard.nodes.values() {
                out.extend(node.data.iter().cloned());
            }
        }
        out.sort();
        out
    }

    /// A uniformly random node label (the "random node of the tree"
    /// every request and registration enters through). O(1) over the
    /// directory's sorted table.
    pub fn random_node(&self, rng: &mut StdRng) -> Option<Key> {
        if self.directory.is_empty() {
            return None;
        }
        let i = rng.gen_range(0..self.directory.len());
        Some(self.directory.label_at(i).clone())
    }

    // ------------------------------------------------------------------
    // Requests (entry, aggregation, completion) — the discovery flow
    // ------------------------------------------------------------------

    /// Starts a discovery request entering at `entry`: re-arms the
    /// request slot (an earlier request still open there is abandoned)
    /// and builds the envelope to send.
    ///
    /// When caching is on the entry node's hosting peer — the overlay's
    /// access point for this request — consults its [`RouteCache`]
    /// first: a hit whose label is still live at the recorded epoch
    /// skips the whole upward climb and delivers the request straight
    /// to the covering node in `Down` phase; a stale hit is evicted and
    /// the request falls back to the normal up/down route, so results
    /// never depend on cache freshness. A satisfied exact query teaches
    /// the entry peer a fresh shortcut when it is judged.
    pub fn begin_request(&mut self, entry: &Key, query: QueryKind) -> Result<(u64, Envelope)> {
        let Some((lid, hid, _)) = self.directory.resolve(entry) else {
            return Err(DlptError::UnknownNode(entry.to_string()));
        };
        let id = self.next_request;
        self.next_request += 1;
        self.request.begin(id);
        if self.tracer.enabled() {
            self.tracer
                .emit(TraceEvent::new(EventKind::Admit, id, lid, hid, 0));
        }
        let mut shortcut: Option<Key> = None;
        if self.cache_capacity > 0 {
            let target = query.target();
            let (hits0, stale0) = (self.cache_stats.hits, self.cache_stats.stale_hits);
            if let Some(slot) = self.peers.get_mut(hid) {
                shortcut = cache::consult(
                    &mut slot.cache,
                    &self.directory,
                    &target,
                    &mut self.cache_stats,
                );
                if self.tracer.enabled() {
                    let kind = if self.cache_stats.hits > hits0 {
                        EventKind::CacheHit
                    } else if self.cache_stats.stale_hits > stale0 {
                        EventKind::CacheStale
                    } else {
                        EventKind::CacheMiss
                    };
                    self.tracer.emit(TraceEvent::new(kind, id, lid, hid, 0));
                }
            }
            if shortcut.is_none() && matches!(query, QueryKind::Exact(_)) {
                self.request.learn = Some((target.into_owned(), hid));
            }
        }
        let env = match shortcut {
            Some(label) => cache::shortcut_envelope(id, query, label),
            None => discovery::entry_envelope(entry.clone(), id, query),
        };
        if self.fault_recovery {
            // Only an active gate can lose a branch; the retry snapshot
            // ([`Engine::retry_origin`]) is the one per-request clone
            // such runs pay for it.
            self.request.retry = Some(env.clone());
        }
        Ok((id, env))
    }

    /// Whether a request may finalize mid-drain on `t`: only on a
    /// synchronous transport, and only while no plan reorders (see
    /// [`Transport::synchronous`]).
    #[inline]
    fn judges_eagerly<T: Transport>(&self, t: &T) -> bool {
        t.synchronous() && !self.reordering
    }

    /// Feeds one `ClientResponse` into the open request's aggregation.
    /// With `eager` judging ([`Engine::judges_eagerly`]) the request is
    /// judged the moment no branch is outstanding and its outcome kept
    /// for [`Engine::take_finished`]; otherwise the runtime calls
    /// [`Engine::finish_request`] once drained. A response for another
    /// request, or one arriving after its request was judged, is stale
    /// and dropped.
    fn client_response(&mut self, outcome: DiscoveryOutcome, eager: bool) {
        let fault_recovery = self.fault_recovery;
        let Some(agg) = self.request.pending(outcome.request_id) else {
            return;
        };
        if fault_recovery
            && outcome.satisfied
            && !outcome.dropped
            && !agg.seen.insert(response_digest(&outcome))
        {
            // A duplicated (or retried-and-redelivered) copy of a
            // response already applied: counting it again would
            // double-decrement `outstanding` below the true branch
            // count and finalize the request with partial results.
            // (Reliable transports cannot duplicate — fault-off runs
            // skip the digest entirely.)
            self.faults.stats.duplicates_suppressed += 1;
            if self.tracer.enabled() {
                self.tracer.emit(TraceEvent::new(
                    EventKind::DedupSuppress,
                    outcome.request_id,
                    0,
                    0,
                    outcome.path.len(),
                ));
            }
            return;
        }
        agg.outstanding += outcome.pending_children as i64 - 1;
        agg.satisfied &= outcome.satisfied;
        agg.dropped |= outcome.dropped;
        agg.responses += 1;
        if self.tracer.enabled() {
            let kind = if outcome.pending_children > 0 {
                EventKind::BranchOpen
            } else {
                EventKind::BranchClose
            };
            self.tracer.emit(TraceEvent::new(
                kind,
                outcome.request_id,
                outcome.pending_children,
                0,
                outcome.path.len(),
            ));
        }
        if agg.results.is_empty() {
            // Take over the first non-empty response's buffer instead
            // of copying out of it.
            agg.results = outcome.results;
        } else {
            agg.results.extend(outcome.results);
        }
        if outcome.path.len() > agg.best_path.len() {
            agg.best_path = outcome.path;
        }
        if eager && agg.outstanding <= 0 {
            self.request.outcome = Some(self.judge());
        }
    }

    /// Judges the open request and closes it: it is satisfied iff every
    /// branch responded satisfied, nothing was dropped and no branch is
    /// outstanding. Teaches the entry peer its shortcut if a satisfied
    /// exact query left that intent, builds the [`LookupOutcome`] out
    /// of the aggregation and emits the terminal trace event — exactly
    /// once per request, at eager judging or at
    /// [`Engine::finish_request`].
    fn judge(&mut self) -> LookupOutcome {
        let req = &mut self.request;
        req.open = false;
        let satisfied = req.satisfied && !req.dropped && req.outstanding <= 0;
        if let Some((target, host)) = req.learn.take().filter(|_| satisfied) {
            // A satisfied exact query proves the target's own node is
            // live and owns the key: that node is the shortcut.
            let sc = cache::learned_shortcut(&self.directory, &target);
            if let (Some(sc), Some(slot)) = (sc, self.peers.get_mut(host)) {
                slot.cache.insert(target, sc);
                self.cache_stats.learned += 1;
            }
        }
        let mut results = std::mem::take(&mut req.results);
        let path = std::mem::take(&mut req.best_path);
        // Unstable sort: no scratch allocation, and equal keys are
        // byte-identical so stability is unobservable.
        results.sort_unstable();
        results.dedup();
        let hashed = || path.iter().filter_map(|l| self.directory.host_of(l));
        let mut host_path: Vec<Key> = Vec::with_capacity(path.len());
        if self.route_hosts.len() == path.len() {
            // This dispatch walked the whole route and nothing else
            // ran in between: the hosts resolved per visit still hold.
            host_path.extend(
                self.route_hosts
                    .iter()
                    .map(|&h| self.directory.key_of(h).clone()),
            );
            debug_assert!(host_path.iter().eq(hashed()));
        } else {
            host_path.extend(hashed().cloned());
        }
        let found = !results.is_empty() || satisfied;
        let out = LookupOutcome {
            satisfied,
            found,
            dropped: req.dropped,
            results,
            gather_visits: req.responses.saturating_sub(1),
            host_path,
            path,
        };
        if self.tracer.enabled() {
            let kind = if satisfied {
                EventKind::Satisfy
            } else {
                EventKind::Fail
            };
            self.tracer.emit(TraceEvent::new(
                kind,
                req.id,
                out.results.len() as u32,
                out.gather_visits as u32,
                out.logical_hops(),
            ));
        }
        out
    }

    /// Takes the outcome of request `id` judged mid-drain (eager
    /// judging). `None` when the request has not been judged.
    pub fn take_finished(&mut self, id: u64) -> Option<LookupOutcome> {
        let req = &mut self.request;
        req.outcome.take_if(|_| req.id == id)
    }

    /// Judges the open request `id` at quiescence. The
    /// outstanding-branch counter can transiently touch zero while
    /// responses are in flight, so this must only be called once the
    /// transport is drained, and once [`Engine::retry_origin`] has
    /// nothing left to re-send. A branch still outstanding now is
    /// stranded for good: the outcome is the explicit failure, counted
    /// in `requests_failed`. Panics unless `id` is open.
    pub fn finish_request(&mut self, id: u64) -> LookupOutcome {
        let req = self.request.pending(id).expect("request was registered");
        self.faults.stats.requests_failed += u64::from(req.outstanding > 0);
        self.judge()
    }

    /// Abandons an envelope whose requeue budget on `t` is exhausted. A
    /// lost discovery message must still resolve its request, as a
    /// dropped branch; anything else is a hard error.
    pub fn fail_undeliverable<T: Transport>(&mut self, t: &T, env: Envelope) -> Result<()> {
        self.stats.undeliverable += 1;
        let Message::Node(NodeMsg::Discovery(m)) = env.msg else {
            return Err(DlptError::Undeliverable(format!("{:?}", env.to)));
        };
        if self.tracer.enabled() {
            let mut ev = TraceEvent::new(EventKind::Drop, m.request_id, 0, 0, m.path.len());
            ev.flags = 1;
            self.tracer.emit(ev);
        }
        let eager = self.judges_eagerly(t);
        self.client_response(dropped_outcome(m.request_id, m.path), eager);
        Ok(())
    }

    /// Resolves the branch of request `request_id` whose visit to node
    /// `lid` an exhausted peer `hid` ignored (Section 4's capacity
    /// model); `path` ends with the refused node.
    fn refuse_visit(&mut self, request_id: u64, lid: u32, hid: u32, path: Vec<Key>, eager: bool) {
        self.stats.discovery_drops += 1;
        if self.tracer.enabled() {
            self.tracer.emit(TraceEvent::new(
                EventKind::Drop,
                request_id,
                lid,
                hid,
                path.len(),
            ));
        }
        self.client_response(dropped_outcome(request_id, path), eager);
    }

    // ------------------------------------------------------------------
    // The state machine
    // ------------------------------------------------------------------

    /// Runs `drain` with at most `budget` messages processed, and fails
    /// it with [`DlptError::HopBudgetExhausted`] past that — the
    /// tripwire for routing cycles, which the protocol makes
    /// impossible. Every delivery attempt counts, whether the runtime
    /// popped it or a chain ran it inline: a cycle inside one chain
    /// never returns to the runtime's loop, so only the engine can
    /// count it.
    pub fn with_hop_budget<R>(
        &mut self,
        budget: usize,
        drain: impl FnOnce(&mut Engine) -> Result<R>,
    ) -> Result<R> {
        let outer = (self.hops, self.hop_budget);
        (self.hops, self.hop_budget) = (0, budget);
        let res = drain(self);
        (self.hops, self.hop_budget) = outer;
        res
    }

    /// Counts one delivery attempt against the hop budget.
    #[inline]
    fn count_hop(&mut self) -> Result<()> {
        self.hops += 1;
        if self.hops > self.hop_budget {
            return Err(DlptError::HopBudgetExhausted {
                budget: self.hop_budget,
            });
        }
        Ok(())
    }

    /// Processes one envelope: the single implementation of the
    /// dispatch every runtime used to mirror. Capacity charging,
    /// per-kind counters, discovery handling with replica failover,
    /// epoch bumps for structural mutations, and effect application
    /// (directory updates, outgoing messages through `t`) all happen
    /// here.
    ///
    /// Hop chaining: on a [synchronous](Transport::synchronous)
    /// transport with no fault plan, a delivery whose only effect is
    /// the next envelope runs that envelope inline instead of
    /// round-tripping it through the queue. Two chains do so:
    ///
    /// * an exact-query discovery visit's next hop, and the client's
    ///   report of its last visit (`deliver_visits`): an exact query
    ///   has exactly one envelope in flight;
    /// * any other step's lone envelope, unless it is a discovery
    ///   visit or a client response, while the transport is
    ///   [idle](Transport::idle) (`deliver_step`): the forwards of
    ///   registrations, removals, crash repair, the host search and
    ///   joins. Queued, that envelope would have been the next one
    ///   delivered.
    ///
    /// Either way the chained run performs the identical state-change
    /// sequence the queued run would — it only skips the push and the
    /// pop. A chained hop follows the tree link it took by the label
    /// id its node memoised on that link (`follow_link`), so it
    /// probes no hash; one that cannot deliver yet re-enters the
    /// transport exactly as an unchained forward would have (a fresh
    /// queued envelope, not a requeue of its ancestor). Chained hops
    /// count against the hop budget ([`Engine::with_hop_budget`]).
    pub fn deliver<T: Transport>(&mut self, t: &mut T, env: Envelope) -> Result<Step> {
        // The scratch effect buffer is checked out once for the whole
        // chain, not once per hop.
        let mut fx = std::mem::take(&mut self.scratch);
        let res = match env {
            Envelope {
                to: Address::Node(label),
                msg: Message::Node(NodeMsg::Discovery(m)),
            } => self.deliver_visits(t, label, m, &mut fx),
            env => self.deliver_step(t, env, &mut fx),
        };
        self.scratch = fx;
        self.route_hosts.clear();
        res
    }

    /// What becomes of `env` when its destination does not resolve yet
    /// (peer unknown, node in flight between shards): the runtime
    /// requeues the envelope it handed in, while a chained hop enters
    /// the transport fresh, as the forward it stands for would have.
    fn not_yet<T: Transport>(&mut self, t: &mut T, env: Envelope, chained: bool) -> Step {
        if chained {
            self.send(t, env);
            return Step::Done;
        }
        Step::Requeue(env)
    }

    /// Delivers a discovery message to node `label`, and on to the
    /// next node while hops chain (see [`Engine::deliver`]). The chain
    /// owns the destination and the message and rewrites both in
    /// place: a chained hop builds no envelope, and it resolves the
    /// next node through the link it took ([`follow_link`]). The entry
    /// hop is addressed by `Key` and resolved like any queued envelope.
    fn deliver_visits<T: Transport>(
        &mut self,
        t: &mut T,
        mut label: Key,
        mut m: DiscoveryMsg,
        fx: &mut Effects,
    ) -> Result<Step> {
        // Only exact queries on an inline transport chain, and then
        // every forward does: an exact visit that moves on emits
        // nothing else.
        let chains = matches!(m.query, QueryKind::Exact(_)) && self.inline(t);
        let mut chained = false;
        // `label`'s id, when the link this chain arrived over had it.
        let mut known: Option<u32> = None;
        loop {
            self.count_hop()?;
            // The directory record gives host id and the node's slot
            // hint: by id when the link memoised it, else by one hash
            // of the label. A hinted visit then probes no hash either.
            // Capacity model (Section 4): a peer's capacity bounds the
            // requests it can process per unit, and processing includes
            // routing — "the upper a node is, the more times it will be
            // visited by a request" is exactly what makes load
            // balancing matter (Section 3.3) — so every visit charges
            // the hosting peer one unit and counts toward the node's
            // offered load l_n.
            let located = match known {
                Some(lid) => self.directory.resolve_id(lid),
                None => self.directory.resolve(&label),
            };
            let hosted = located.and_then(|(lid, hid, hint)| {
                let shard = &mut self.peers.get_mut(hid)?.shard;
                Some((lid, hid, hint, shard))
            });
            let (hops, req) = (m.path.len(), m.request_id);
            let gate = match hosted {
                None => None,
                Some((lid, hid, mut slot, shard)) => {
                    match discovery::deliver_visit(shard, &label, &mut slot, &mut m, fx) {
                        // In flight between shards (hand-off under
                        // way): try later.
                        discovery::VisitGate::Missing => None,
                        gate => {
                            self.directory.set_slot(lid, slot);
                            if let (true, discovery::VisitGate::Delivered(Some((next, link)))) =
                                (chains, &gate)
                            {
                                let node = shard.nodes.at_mut(slot);
                                known = follow_link(&self.directory, node, *link, next);
                            }
                            Some((lid, hid, gate))
                        }
                    }
                }
            };
            let Some((lid, hid, gate)) = gate else {
                let env = Envelope::to_node(label, NodeMsg::Discovery(m));
                return Ok(self.not_yet(t, env, chained));
            };
            let next = match gate {
                discovery::VisitGate::Delivered(next) => next,
                _ => {
                    // Failover: a follower copy with spare capacity
                    // can serve the read the primary refused.
                    if self.replication > 1 {
                        match self.failover_read(&label, m, fx) {
                            None => {
                                self.apply(fx, t);
                                return Ok(Step::Done);
                            }
                            Some(back) => m = back,
                        }
                    }
                    let mut path = m.path;
                    path.push(label);
                    let eager = self.judges_eagerly(t);
                    self.refuse_visit(m.request_id, lid, hid, path, eager);
                    return Ok(Step::Done);
                }
            };
            self.stats.discovery_messages += 1;
            // Visit number `hops` of a route this dispatch has followed
            // from its entry (a gather branch arrives with an empty
            // path and is alone in its dispatch).
            if hops == self.route_hosts.len() {
                self.route_hosts.push(hid);
            }
            if self.tracer.enabled() {
                self.tracer
                    .emit(TraceEvent::new(EventKind::Hop, req, lid, hid, hops));
            }
            if chains && fx.relocated.is_empty() && fx.removed.is_empty() {
                match next {
                    Some((next, _)) if fx.out.is_empty() => {
                        label = next;
                        chained = true;
                        continue;
                    }
                    None if fx.out.len() == 1 => {
                        let report = fx.out.pop().expect("length checked");
                        return self.deliver_report(t, report.msg);
                    }
                    _ => {}
                }
            }
            if let Some((next, _)) = next {
                fx.send(Envelope::to_node(next, NodeMsg::Discovery(m)));
            }
            self.apply(fx, t);
            return Ok(Step::Done);
        }
    }

    /// Delivers a message addressed to the client: a discovery branch's
    /// report, into its request's aggregation.
    #[inline]
    fn deliver_report<T: Transport>(&mut self, t: &T, msg: Message) -> Result<Step> {
        let Message::ClientResponse(outcome) = msg else {
            return Err(DlptError::Undeliverable("client".into()));
        };
        let eager = self.judges_eagerly(t);
        self.client_response(outcome, eager);
        Ok(Step::Done)
    }

    /// Processes one envelope that is not a discovery visit, and on to
    /// the next while steps chain (see [`Engine::deliver`]). A node
    /// message's handler works on the slot resolved here and reports
    /// the link its lone forward followed, by which the chained hop
    /// resolves its node.
    fn deliver_step<T: Transport>(
        &mut self,
        t: &mut T,
        env: Envelope,
        fx: &mut Effects,
    ) -> Result<Step> {
        let chains = self.inline(t);
        // Destructure: addresses are matched by move, so the hot path
        // clones no `Address` (a requeue rebuilds the envelope from the
        // owned parts).
        let Envelope { mut to, mut msg } = env;
        let mut chained = false;
        // The id of `to`'s label, when the link this chain arrived over
        // had it.
        let mut known: Option<u32> = None;
        loop {
            self.count_hop()?;
            // The host id and slot of the node whose handler ran, and
            // the link its lone forward took.
            let mut followed: Option<(u32, u32, Link)> = None;
            match to {
                Address::Client(_) => return self.deliver_report(t, msg),
                Address::Peer(id) => {
                    // One interner probe replaces the `BTreeSet`
                    // membership walk: a peer is live iff its id has a
                    // slab slot.
                    let Some(pid) = self
                        .directory
                        .id_of(&id)
                        .filter(|&p| self.peers.contains(p))
                    else {
                        let env = Envelope::to_address(Address::Peer(id), msg);
                        return Ok(self.not_yet(t, env, chained));
                    };
                    // Replication traffic is counted apart so the k = 1
                    // system's stats stay byte-identical.
                    if is_replication_msg(&msg) {
                        self.repl_stats.replication_messages += 1;
                    } else {
                        count_message(&mut self.stats, &msg);
                    }
                    // Track a freshly created root before the seed moves.
                    let new_root = match &msg {
                        Message::Peer(PeerMsg::Host { seed }) if seed.father.is_none() => {
                            Some(seed.label.clone())
                        }
                        _ => None,
                    };
                    let slot = self.peers.get_mut(pid).expect("checked above");
                    match msg {
                        Message::Peer(m) => protocol::handle_peer_msg(&mut slot.shard, m, fx),
                        _ => return Err(DlptError::Undeliverable(format!("{id}"))),
                    }
                    if let Some(label) = new_root {
                        if fx.relocated.iter().any(|(l, _)| l == &label) {
                            self.root = Some(label);
                        }
                    }
                }
                Address::Node(label) => {
                    let Message::Node(m) = msg else {
                        return Err(DlptError::Undeliverable(format!("{label}: {msg:?}")));
                    };
                    // As in `deliver_visits`: the record by id or by
                    // one hash, then the hinted slot, which the handler
                    // takes instead of probing.
                    let located = match known {
                        Some(lid) => self.directory.resolve_id(lid),
                        None => self.directory.resolve(&label),
                    };
                    let hosted = located.and_then(|(lid, hid, hint)| {
                        let shard = &mut self.peers.get_mut(hid)?.shard;
                        let slot = shard.nodes.find(&label, hint)?;
                        Some((lid, hid, slot, shard))
                    });
                    let Some((lid, hid, slot, shard)) = hosted else {
                        let env = Envelope::to_node(label, m);
                        return Ok(self.not_yet(t, env, chained));
                    };
                    count_node_msg(&mut self.stats, &m);
                    // A node told it has no father is the root.
                    if matches!(m, NodeMsg::SetFather { father: None }) {
                        self.root = Some(label);
                    }
                    let link = protocol::dispatch_node_msg(shard, slot, m, fx);
                    self.directory.set_slot(lid, slot);
                    if self.replication > 1 {
                        self.touched.push(lid);
                    }
                    // Any non-discovery node message may have mutated
                    // the node's structure: advance its epoch so
                    // learned shortcuts re-validate.
                    self.directory.bump_epoch_id(lid);
                    followed = link.map(|link| (hid, slot, link));
                }
            }
            let lone = chains
                && fx.out.len() == 1
                && t.idle()
                && !matches!(
                    fx.out[0].msg,
                    Message::Node(NodeMsg::Discovery(_)) | Message::ClientResponse(_)
                );
            if !lone {
                self.apply(fx, t);
                return Ok(Step::Done);
            }
            self.apply_moves(fx);
            let next = fx.out.pop().expect("length checked");
            known = match (followed, &next.to) {
                (Some((hid, slot, link)), Address::Node(label)) => {
                    let shard = &mut self.peers.get_mut(hid).expect("handler's host").shard;
                    follow_link(&self.directory, shard.nodes.at_mut(slot), link, label)
                }
                _ => None,
            };
            Envelope { to, msg } = next;
            chained = true;
        }
    }

    /// Applies (and drains) the effect buffers, leaving `fx` empty with
    /// its capacity intact so callers can reuse it allocation-free:
    /// relocations and dissolutions go to the directory
    /// ([`Engine::apply_moves`]), then outgoing envelopes enter `t`
    /// through the fault gate.
    pub(super) fn apply<T: Transport>(&mut self, fx: &mut Effects, t: &mut T) {
        self.apply_moves(fx);
        for env in fx.out.drain(..) {
            self.send(t, env);
        }
    }

    /// Drains `fx`'s relocations and dissolutions into the directory:
    /// relocations update it (and schedule re-replication),
    /// dissolutions drop the label (which stales every shortcut
    /// through it) and clear a dissolved root.
    fn apply_moves(&mut self, fx: &mut Effects) {
        let replicated = self.replication > 1;
        // A hand-off relocates a whole run to one host: intern it once.
        let mut last_host: Option<(Key, u32)> = None;
        for (label, host) in fx.relocated.drain(..) {
            let hid = match &last_host {
                Some((h, hid)) if *h == host => *hid,
                _ => {
                    let hid = self.directory.intern(&host);
                    last_host = Some((host, hid));
                    hid
                }
            };
            let lid = self.directory.insert_at(&label, hid);
            if replicated {
                self.touched.push(lid);
            }
        }
        for label in fx.removed.drain(..) {
            if replicated {
                // The node dissolved: schedule its copies for GC
                // (before the removal clears the follower record).
                if let Some(lid) = self.directory.id_of(&label) {
                    for &f in self.directory.follower_ids(lid) {
                        self.dropped_replicas.push((lid, f));
                    }
                }
            }
            self.directory.remove(&label);
            if self.root.as_ref() == Some(&label) {
                self.root = None; // recomputed by the runtime
            }
        }
    }

    /// Records that `label`'s state changed and its replicas are stale
    /// (no-op at `k = 1`).
    pub(crate) fn mark_touched(&mut self, label: &Key) {
        if self.replication > 1 {
            let lid = self.directory.intern(label);
            self.touched.push(lid);
        }
    }

    /// Builds the sequential oracle for the currently registered keys.
    /// A correct overlay has exactly the oracle's node labels.
    pub fn oracle(&self) -> PgcpTrie {
        let mut t = PgcpTrie::new();
        for k in self.registered_keys() {
            t.insert(k);
        }
        t
    }

    /// Closes the current time unit: every peer's capacity counter
    /// resets and every node's offered load is archived for the
    /// balancers (Section 3.3's "recent history").
    pub fn end_time_unit(&mut self) {
        for slot in self.peers.iter_slots_mut() {
            slot.shard.peer.roll_unit();
            for node in slot.shard.nodes.values_mut() {
                node.roll_unit();
            }
        }
    }
}

/// The label id of `next`, which `node` reaches over `link`: the id
/// memoised on the link, or — on the first hop over the link since its
/// last edit — one [`Directory::id_of`], which fills the memo. A memo,
/// not a hint: only an edit of the link changes what it names, and
/// every edit clears it. `None` when `next` was never interned.
#[inline(always)]
fn follow_link(directory: &Directory, node: &mut NodeState, link: Link, next: &Key) -> Option<u32> {
    if let Some(id) = node.link_id(link) {
        return Some(id);
    }
    let id = directory.id_of(next)?;
    node.remember_link_id(link, id);
    Some(id)
}

/// The response resolving a discovery branch whose visit was refused
/// or could not be delivered.
fn dropped_outcome(request_id: u64, path: Vec<Key>) -> DiscoveryOutcome {
    DiscoveryOutcome {
        request_id,
        satisfied: false,
        dropped: true,
        results: Vec::new(),
        path,
        pending_children: 0,
    }
}

/// Per-kind delivery counters. Free functions over the stats struct
/// alone, so the dispatch hot path can update counters while a shard
/// borrow is live.
pub(crate) fn count_node_msg(stats: &mut SystemStats, m: &NodeMsg) {
    match m {
        NodeMsg::PeerJoin { .. } => stats.join_messages += 1,
        NodeMsg::DataInsertion { .. }
        | NodeMsg::Reattach { .. }
        | NodeMsg::UpdateChild { .. }
        | NodeMsg::DataRemoval { .. }
        | NodeMsg::RemoveChild { .. }
        | NodeMsg::SetFather { .. } => stats.insert_messages += 1,
        NodeMsg::SearchingHost { .. } => stats.host_messages += 1,
        NodeMsg::Discovery(_) => stats.discovery_messages += 1,
    }
}

pub(crate) fn count_message(stats: &mut SystemStats, msg: &Message) {
    match msg {
        Message::Node(m) => count_node_msg(stats, m),
        Message::Peer(PeerMsg::Host { .. }) => stats.host_messages += 1,
        Message::Peer(PeerMsg::TakeOver { .. }) => stats.maintenance_messages += 1,
        Message::Peer(_) => stats.join_messages += 1,
        Message::ClientResponse(_) => {}
    }
}

/// Replication traffic (`protocol::repair`) — counted in
/// [`ReplicationStats`], never in [`SystemStats`].
fn is_replication_msg(msg: &Message) -> bool {
    matches!(
        msg,
        Message::Peer(
            PeerMsg::SyncReplicas { .. } | PeerMsg::Replicate { .. } | PeerMsg::DropReplica { .. }
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    fn cached_engine(capacity: usize) -> Engine {
        let mut e = Engine::default();
        e.set_cache_capacity(capacity);
        e.add_local_shard(k("P1"), 100);
        e.add_local_shard(k("P2"), 100);
        e
    }

    #[test]
    fn fifo_transport_preserves_order() {
        let mut t = FifoTransport::default();
        t.deliver(Envelope::to_peer(
            k("A"),
            PeerMsg::UpdateSuccessor { succ: k("B") },
        ));
        for p in [k("B"), k("C")] {
            t.deliver(Envelope::to_peer(
                p,
                PeerMsg::UpdateSuccessor { succ: k("X") },
            ));
        }
        let order: Vec<Address> = t.queue.iter().map(|(_, e)| e.to.clone()).collect();
        assert_eq!(
            order,
            vec![
                Address::peer(k("A")),
                Address::peer(k("B")),
                Address::peer(k("C"))
            ]
        );
        assert!(t.synchronous());
        assert!(!t.idle() && FifoTransport::default().idle());
    }

    fn report(id: u64, path: Vec<Key>, results: Vec<Key>, pending: u32) -> DiscoveryOutcome {
        DiscoveryOutcome {
            request_id: id,
            satisfied: true,
            dropped: false,
            results,
            path,
            pending_children: pending,
        }
    }

    /// Satellite regression: a duplicated (re-delivered) response must
    /// not double-decrement the outstanding-branch counter — before
    /// the idempotency filter, the duplicate below finalized the
    /// request with partial results (`outstanding` underflowed to 0
    /// with one branch still in flight).
    #[test]
    fn duplicated_response_cannot_double_decrement_outstanding() {
        let mut e = cached_engine(0);
        e.partition(k("Z"), k("ZZ")); // duplication implies an active gate
        e.directory.insert(k("DG"), k("P1"));
        let (id, _env) = e
            .begin_request(&k("DG"), QueryKind::range(k("D"), k("E")))
            .unwrap();
        // The gather root reports and fans out to two children.
        e.client_response(report(id, vec![k("DG")], Vec::new(), 2), true);
        // One child's report arrives twice (duplicated in transit).
        let child = report(id, vec![k("DG"), k("DGEMM")], vec![k("DGEMM")], 0);
        e.client_response(child.clone(), true);
        e.client_response(child, true);
        assert_eq!(e.fault_stats().duplicates_suppressed, 1);
        assert!(
            e.take_finished(id).is_none() && e.request.outstanding == 1,
            "one branch is genuinely still outstanding"
        );
        // The true second branch finally reports: now it finalizes,
        // complete.
        e.client_response(
            report(id, vec![k("DG"), k("DT")], vec![k("DTRSM")], 0),
            true,
        );
        let out = e.take_finished(id).expect("all branches accounted");
        assert!(out.satisfied);
        assert_eq!(out.results, vec![k("DGEMM"), k("DTRSM")]);
    }

    /// A retry rearms the aggregation *and* the idempotency filter:
    /// the re-delivered copies of first-attempt responses must count
    /// again on the second attempt.
    #[test]
    fn reset_request_for_retry_rearms_aggregation_and_filter() {
        let mut e = cached_engine(0);
        e.partition(k("Z"), k("ZZ")); // retries only exist behind an active gate
        e.directory.insert(k("DG"), k("P1"));
        let (id, env) = e
            .begin_request(&k("DG"), QueryKind::Exact(k("DGEMM")))
            .unwrap();
        let terminal = report(id, vec![k("DG")], vec![k("DGEMM")], 1);
        // First attempt: the node forwarded to one child whose report
        // was lost — the request is stuck outstanding.
        e.client_response(terminal.clone(), true);
        assert_eq!(
            e.retry_origin(id),
            Some(env),
            "a stranded request re-sends its origin snapshot verbatim"
        );
        assert_eq!(e.fault_stats().retries, 1);
        // Second attempt re-delivers the same report plus the child's.
        e.client_response(terminal, true);
        e.client_response(report(id, vec![k("DG"), k("DGEMM")], Vec::new(), 0), true);
        assert_eq!(
            e.fault_stats().duplicates_suppressed,
            0,
            "retry responses are fresh"
        );
        let out = e.take_finished(id).expect("finalized after retry");
        assert!(out.satisfied);
        assert_eq!(out.results, vec![k("DGEMM")]);
    }

    /// One request is open at a time: a response carrying an earlier
    /// request's id, delivered after the next admission, changes no
    /// counter, emits no trace event and leaves the open request's
    /// outcome as it was; the abandoned request cannot be judged.
    #[test]
    fn a_response_for_an_earlier_request_is_stale() {
        let mut e = cached_engine(0);
        e.directory.insert(k("DG"), k("P1"));
        e.set_tracing(64);
        let range = QueryKind::range(k("D"), k("E"));
        let (old, _) = e.begin_request(&k("DG"), range.clone()).unwrap();
        e.client_response(report(old, vec![k("DG")], Vec::new(), 1), true);
        let (new, _) = e.begin_request(&k("DG"), range).unwrap();
        e.client_response(report(new, vec![k("DG")], vec![k("DGEMM")], 1), true);
        let counters = |e: &Engine| {
            let (s, r, c, f) = (&e.stats, &e.repl_stats, &e.cache_stats, e.fault_stats());
            format!("{s:?} {r:?} {c:?} {f:?}")
        };
        let (before, _) = (counters(&e), e.take_trace());
        let stale = report(old, vec![k("DG"), k("DT")], vec![k("DTRSM")], 0);
        let (env, mut t) = (Envelope::to_client(old, stale), FifoTransport::default());
        assert!(matches!(e.deliver(&mut t, env), Ok(Step::Done)));
        assert_eq!(counters(&e), before);
        assert!(e.take_trace().is_empty() && e.take_finished(new).is_none());
        e.client_response(report(new, vec![k("DG"), k("DH")], Vec::new(), 0), true);
        assert!(e.take_finished(old).is_none() && e.retry_origin(old).is_none());
        let out = e.take_finished(new).expect("judged");
        assert!(out.satisfied);
        assert_eq!((out.results, out.gather_visits), (vec![k("DGEMM")], 1));
    }

    /// A request admitted while an earlier one is still unjudged (its
    /// drain failed, or its caller walked away) is judged normally, and
    /// learns its own shortcut, not the abandoned one's.
    #[test]
    fn a_request_after_an_unjudged_one_is_judged_normally() {
        use crate::system::DlptSystem;
        let mut sys = DlptSystem::builder().bootstrap_peers(4).build();
        sys.set_cache_capacity(8);
        for key in ["DGEMM", "DTRSM", "SGEMM"] {
            sys.insert_data(k(key)).unwrap();
        }
        let (entry, exact) = (k("SGEMM"), |key| QueryKind::Exact(k(key)));
        let (old, _) = sys.begin_request(&entry, exact("DGEMM")).unwrap();
        let out = sys.request_from(&entry, exact("DTRSM")).unwrap();
        assert!(out.satisfied && out.results == [k("DTRSM")], "{out:?}");
        assert_eq!(sys.cache_stats.learned, 1);
        assert!(sys.take_finished(old).is_none() && sys.retry_origin(old).is_none());
    }

    #[test]
    #[should_panic(expected = "request was registered")]
    fn finishing_a_judged_request_panics() {
        let mut e = cached_engine(0);
        e.directory.insert(k("DG"), k("P1"));
        let exact = QueryKind::Exact(k("DG"));
        let (id, _) = e.begin_request(&k("DG"), exact).unwrap();
        e.finish_request(id);
        e.finish_request(id);
    }

    #[test]
    fn membership_tracks_shards_and_caches() {
        let mut e = cached_engine(4);
        assert_eq!(e.peer_count(), 2);
        assert!(e.contains_peer(&k("P1")));
        assert_eq!(e.peer_ids(), vec![k("P1"), k("P2")]);
        assert_eq!(e.peer_at(1), Some(&k("P2")));
        assert_eq!(e.peer_at(2), None);
        let shard = e.remove_member(&k("P1")).expect("shard returned");
        assert_eq!(shard.peer.id, k("P1"));
        assert_eq!(e.peer_count(), 1);
        assert!(e.shard(&k("P1")).is_none());
        assert!(e.remove_member(&k("P1")).is_none(), "already gone");
        // A later member gets a shard and a cache.
        e.add_local_shard(k("P9"), 100);
        assert!(e.contains_peer(&k("P9")));
        assert_eq!(e.shards().count(), e.peer_count());
        assert!(e.cache_mut(&k("P9")).is_some());
    }
}
