//! The live threaded runtime: every peer is an OS thread.
//!
//! This is the workspace's substitution for the paper's Grid'5000
//! prototype (announced as future work there): the same protocol
//! handlers, but each peer shard owned by its own thread, envelopes
//! travelling as encoded byte frames ([`crate::codec`]) over crossbeam
//! channels. The router side is a thin adapter over the unified
//! protocol engine (`dlpt_core::engine`): the engine owns the delivery
//! directory, the per-peer route caches, membership and the
//! scatter/gather aggregation, while the [`Engine`]'s transport is
//! implemented by encoding envelopes into frames on the router queue.
//! Shard-side protocol handling is `dlpt_core::protocol`, exactly as
//! in the other runtimes — the peer threads never see runtime
//! concerns.
//!
//! Scheduling is nondeterministic; the protocol's convergence is not.
//! The tests build overlays under real thread interleavings and check
//! the resulting tree against the sequential oracle.
//!
//! Scope: joins, registrations and queries (the live operations a
//! discovery service serves). Capacity accounting and churn are
//! experiment-harness concerns and stay in `dlpt-sim`.

use crate::codec::{decode, encode};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use dlpt_core::alphabet::Alphabet;
use dlpt_core::engine::{Engine, EngineConfig, Transport};
use dlpt_core::key::Key;
use dlpt_core::messages::{Address, Envelope, Message, NodeMsg, PeerMsg, QueryKind};
use dlpt_core::peer::PeerShard;
use dlpt_core::protocol::{self, Effects};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Message to a peer thread.
enum ToPeer {
    /// Deliver a frame; `retries` echoes back on failure.
    Frame { retries: u32, frame: Bytes },
    /// Terminate the thread.
    Shutdown,
}

/// Reply from a peer thread to the router.
struct PeerReply {
    /// Encoded outgoing envelopes.
    frames: Vec<Bytes>,
    /// Directory updates.
    relocated: Vec<(Key, Key)>,
    /// Nodes that dissolved (removal protocol).
    removed: Vec<Key>,
    /// A frame the peer could not handle yet (node not hosted here),
    /// with its retry count.
    undelivered: Option<(u32, Bytes)>,
}

/// Counters shared with the peer threads.
#[derive(Debug, Default)]
pub struct ThreadedStats {
    /// Frames handled by peer threads.
    pub frames_handled: Mutex<u64>,
    /// Frames bounced back for retry.
    pub frames_bounced: Mutex<u64>,
}

/// How many times one frame may be redelivered while its destination
/// is still in flight, before the owning request is failed explicitly.
const FRAME_RETRY_BUDGET: u32 = 10_000;

/// The framed-channel transport: envelopes leaving the engine are
/// encoded into wire frames on the router queue, from where they are
/// dispatched to the owning peer thread. The `u32` is the per-frame
/// redelivery count.
#[derive(Default)]
struct FrameQueue(VecDeque<(u32, Bytes)>);

impl Transport for FrameQueue {
    fn deliver(&mut self, env: Envelope) {
        self.0.push_back((0, encode(&env)));
    }
}

/// A live DLPT overlay over OS threads. Dereferences to the underlying
/// [`Engine`] for introspection (`node_labels`, `peer_count`, …) and
/// the `cache_stats` counters.
pub struct ThreadedDlpt {
    alphabet: Alphabet,
    rng: StdRng,
    engine: Engine,
    peers: HashMap<Key, Sender<ToPeer>>,
    handles: Vec<JoinHandle<PeerShard>>,
    reply_tx: Sender<PeerReply>,
    reply_rx: Receiver<PeerReply>,
    queue: FrameQueue,
    inflight: usize,
    /// Shared counters.
    pub stats: Arc<ThreadedStats>,
}

impl std::ops::Deref for ThreadedDlpt {
    type Target = Engine;
    fn deref(&self) -> &Engine {
        &self.engine
    }
}

impl std::ops::DerefMut for ThreadedDlpt {
    fn deref_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }
}

impl ThreadedDlpt {
    /// An empty live overlay.
    pub fn new(alphabet: Alphabet, seed: u64) -> Self {
        let (reply_tx, reply_rx) = unbounded();
        ThreadedDlpt {
            alphabet,
            rng: StdRng::seed_from_u64(seed),
            engine: Engine::new(EngineConfig {
                judge_at_quiescence: true,
                ..EngineConfig::default()
            }),
            peers: HashMap::new(),
            handles: Vec::new(),
            reply_tx,
            reply_rx,
            queue: FrameQueue::default(),
            inflight: 0,
            stats: Arc::new(ThreadedStats::default()),
        }
    }

    /// Routes an injected envelope onto the router queue through the
    /// engine's fault gate: this runtime models everything that
    /// travels as a frame — entry and retry envelopes included — as
    /// faultable.
    fn send(&mut self, env: Envelope) {
        self.engine.send(&mut self.queue, env);
    }

    /// One anti-entropy pass over the live threads: every peer receives
    /// a `SyncReplicas` frame and re-clones its nodes onto its ring
    /// successors with `Replicate` frames — the full replication
    /// protocol exercised through the wire codec. No-op at `k = 1`.
    pub fn anti_entropy(&mut self) {
        if self.engine.anti_entropy_kick(&mut self.queue) {
            self.run_to_quiescence();
        }
    }

    /// Simulated crash: the peer thread is killed without hand-off and
    /// every node it hosted fails over to a follower copy via
    /// `PromoteReplica` frames. The ring heals through
    /// `UpdateSuccessor`/`UpdatePredecessor`. Returns the labels lost
    /// (nodes with no surviving copy). Run
    /// [`ThreadedDlpt::anti_entropy`] beforehand for fresh copies.
    pub fn crash_peer(&mut self, id: &Key) -> Vec<Key> {
        let Some(tx) = self.peers.remove(id) else {
            return Vec::new();
        };
        // The thread exits without handing anything over — its shard
        // state is discarded when the handle is joined at shutdown.
        let _ = tx.send(ToPeer::Shutdown);
        // Its entry-point cache dies with it; shortcuts other peers
        // learned toward its nodes stale out via the epoch bumps the
        // failover promotions and removals below perform.
        self.engine.remove_member(id);
        let hosted: Vec<Key> = self
            .engine
            .directory()
            .iter()
            .filter(|(_, host)| *host == id)
            .map(|(label, _)| label.clone())
            .collect();
        if self.peers.is_empty() {
            for l in &hosted {
                self.engine.directory_mut().remove(l);
            }
            return hosted;
        }
        // Heal the ring: the router knows the identifier order.
        let ids: Vec<Key> = self.engine.peer_ids();
        let succ = ids.iter().find(|p| *p > id).unwrap_or(&ids[0]).clone();
        let pred = ids
            .iter()
            .rev()
            .find(|p| *p < id)
            .unwrap_or(&ids[ids.len() - 1])
            .clone();
        let heal = [
            Envelope::to_peer(
                pred.clone(),
                PeerMsg::UpdateSuccessor { succ: succ.clone() },
            ),
            Envelope::to_peer(succ, PeerMsg::UpdatePredecessor { pred }),
        ];
        for env in heal {
            self.queue.deliver(env);
        }
        // Fail over. The mapping rule's new host is the first live peer
        // at or after the label on the ring; promote there when the
        // bookkeeping says it holds a copy (the common case — the first
        // follower IS the crashed primary's successor). When a join
        // slid in between primary and follower since the last sync, the
        // rightful host has no copy yet: promote on the holder instead
        // and let the next anti-entropy pass re-place the set (a
        // transient mapping divergence, routed correctly through the
        // directory either way).
        let rightful =
            |label: &Key| -> Key { ids.iter().find(|p| *p >= label).unwrap_or(&ids[0]).clone() };
        let mut lost = Vec::new();
        for label in hosted {
            let want = rightful(&label);
            let directory = self.engine.directory();
            let target = directory
                .followers_of(&label)
                .any(|f| *f == want)
                .then_some(want)
                .or_else(|| {
                    directory
                        .followers_of(&label)
                        .find(|f| self.peers.contains_key(*f))
                        .cloned()
                });
            match target {
                Some(t) => {
                    self.queue.deliver(Envelope::to_peer(
                        t,
                        PeerMsg::PromoteReplica {
                            label: label.clone(),
                        },
                    ));
                }
                None => {
                    self.engine.directory_mut().remove(&label);
                    lost.push(label);
                }
            }
        }
        self.run_to_quiescence();
        // A follower without the copy (crash raced the sync) leaves the
        // label pointing at the dead peer: count it lost.
        let stale: Vec<Key> = self
            .engine
            .directory()
            .iter()
            .filter(|(_, host)| *host == id)
            .map(|(label, _)| label.clone())
            .collect();
        for label in stale {
            self.engine.directory_mut().remove(&label);
            lost.push(label);
        }
        lost
    }

    /// Distinct live peers believed to hold a copy of `label` (primary
    /// first, per the router's follower bookkeeping).
    pub fn replica_hosts(&self, label: &Key) -> Vec<Key> {
        let mut out = Vec::new();
        if let Some(p) = self.engine.directory().host_of(label) {
            if self.peers.contains_key(p) {
                out.push(p.clone());
            }
        }
        for f in self.engine.directory().followers_of(label) {
            if self.peers.contains_key(f) && !out.contains(f) {
                out.push(f.clone());
            }
        }
        out
    }

    fn spawn_peer(&mut self, id: Key) {
        let (tx, rx) = unbounded::<ToPeer>();
        let reply = self.reply_tx.clone();
        let stats = Arc::clone(&self.stats);
        let shard_id = id.clone();
        let handle = std::thread::Builder::new()
            .name(format!("peer-{shard_id}"))
            .spawn(move || peer_loop(PeerShard::new(shard_id, u32::MAX >> 1), rx, reply, stats))
            .expect("spawn peer thread");
        self.peers.insert(id.clone(), tx);
        self.engine.add_member(id);
        self.handles.push(handle);
    }

    /// Joins a peer under a fresh random identifier; returns it.
    pub fn add_peer(&mut self) -> Key {
        let id = loop {
            let id = self.alphabet.random_id(&mut self.rng, 12);
            if !self.peers.contains_key(&id) {
                break id;
            }
        };
        self.add_peer_with_id(id.clone());
        id
    }

    /// Joins a peer under a chosen identifier, routing through the
    /// tree when one exists.
    pub fn add_peer_with_id(&mut self, id: Key) {
        assert!(!self.peers.contains_key(&id), "duplicate peer id");
        let first = self.peers.is_empty();
        self.spawn_peer(id.clone());
        if first {
            return;
        }
        let env = self.engine.join_envelope(&id, &mut self.rng);
        self.send(env);
        self.run_to_quiescence();
    }

    /// Registers a service key.
    pub fn insert_data(&mut self, key: impl Into<Key>) {
        let key = key.into();
        assert!(!self.peers.is_empty(), "need at least one peer");
        let env = self.engine.insert_envelope(key, &mut self.rng);
        self.send(env);
        self.run_to_quiescence();
    }

    /// Deregisters a service key.
    pub fn remove_data(&mut self, key: &Key) {
        if let Some(entry) = self.engine.random_node(&mut self.rng) {
            let env = Envelope::to_node(entry, NodeMsg::DataRemoval { key: key.clone() });
            self.send(env);
            self.run_to_quiescence();
        }
    }

    /// Exact lookup; returns `(found, results)`.
    pub fn lookup(&mut self, key: &Key) -> (bool, Vec<Key>) {
        self.request(QueryKind::Exact(key.clone()))
    }

    /// Automatic completion of a partial string.
    pub fn complete(&mut self, prefix: &Key) -> (bool, Vec<Key>) {
        self.request(QueryKind::Complete(prefix.clone()))
    }

    /// Range query over `[lo, hi]`.
    pub fn range(&mut self, lo: &Key, hi: &Key) -> (bool, Vec<Key>) {
        self.request(QueryKind::Range(lo.clone(), hi.clone()))
    }

    fn request(&mut self, query: QueryKind) -> (bool, Vec<Key>) {
        let Some(entry) = self.engine.random_node(&mut self.rng) else {
            return (false, Vec::new());
        };
        // Cache consult at the entry peer — the engine's shared
        // hit/stale/learn flow; the router (the clients' access proxy)
        // owns the caches, so consultation happens before the frame is
        // cut.
        let (id, env) = self
            .engine
            .begin_request(&entry, query)
            .expect("entry is a live node");
        self.send(env);
        self.run_to_quiescence();
        // While the engine's retry policy says a branch is stranded (a
        // frame was lost), the origin goes back out as a frame like any
        // other — immediately: the threaded runtime has no clock.
        while let Some(origin) = self.engine.retry_origin(id) {
            self.send(origin);
            self.run_to_quiescence();
        }
        let out = self.engine.finish_request(id);
        (out.satisfied, out.results)
    }

    /// Pumps the router until no frame is queued or in flight.
    ///
    /// Frames whose destination is not resolvable yet (a node still in
    /// flight between peers) are parked until the next peer reply —
    /// only replies can change the directory, so spinning on the queue
    /// would burn retries without progress.
    fn run_to_quiescence(&mut self) {
        let mut parked: VecDeque<(u32, Bytes)> = VecDeque::new();
        loop {
            while let Some((retries, frame)) = self.queue.0.pop_front() {
                if let Some(deferred) = self.dispatch(retries, frame) {
                    parked.push_back(deferred);
                }
            }
            if self.inflight == 0 {
                // Frames a reordering fault held back re-enter the
                // queue now ("late", never "lost twice").
                if self.engine.flush_deferred(&mut self.queue) {
                    continue;
                }
                if parked.is_empty() {
                    return;
                }
                // Nothing in flight can unblock the parked frames: a
                // lost frame (or a crash) stranded them with no
                // destination ever materialising. Their requests fail
                // explicitly; anything but discovery traffic parked
                // here is a routing bug worth aborting on.
                while let Some((retries, frame)) = parked.pop_front() {
                    self.fail_frame(&frame, retries, "deadlock: nothing in flight");
                }
                continue;
            }
            let reply = self.reply_rx.recv().expect("peer threads alive");
            self.inflight -= 1;
            // Route the peer's effects through the engine: directory
            // updates, dissolution bookkeeping and the eager cache
            // invalidation broadcast (one implementation for every
            // runtime) — the broadcast frames land on the router queue
            // and terminate at the engine-owned caches in `dispatch`.
            let mut fx = Effects {
                out: Vec::new(),
                relocated: reply.relocated,
                removed: reply.removed,
            };
            self.engine.apply(&mut fx, &mut self.queue);
            // The peer's frames are engine-emitted traffic one thread
            // removed: they pass the same gate.
            for f in reply.frames {
                self.send(decode(&f).expect("self-produced"));
            }
            if let Some((retries, frame)) = reply.undelivered {
                if retries >= FRAME_RETRY_BUDGET {
                    self.fail_frame(&frame, retries, "frame retry budget exhausted");
                } else {
                    self.queue.0.push_back((retries + 1, frame));
                }
            }
            // The directory may have changed: parked frames get
            // another chance.
            while let Some((retries, frame)) = parked.pop_front() {
                self.queue.0.push_back((retries + 1, frame));
            }
        }
    }

    /// Gives up on a frame: it is counted (`frames_exhausted`) and the
    /// request that owns it resolves as an explicit failure instead of
    /// aborting the router. Frames that are not discovery traffic still
    /// abort — giving up on one is a routing bug.
    fn fail_frame(&mut self, frame: &Bytes, retries: u32, why: &str) {
        let env = decode(frame).expect("self-produced");
        let to = env.to.clone();
        if self.engine.fail_frame(env).is_err() {
            panic!("{why}: frame to {to:?} given up after {retries} rounds");
        }
    }

    /// Tries to deliver one frame. Returns the frame when its
    /// destination cannot be resolved yet.
    fn dispatch(&mut self, retries: u32, frame: Bytes) -> Option<(u32, Bytes)> {
        let env = decode(&frame).expect("frames are self-produced");
        match env.to {
            Address::Client(_) => {
                if let Message::ClientResponse(o) = env.msg {
                    self.engine.client_response(o);
                }
                None
            }
            Address::Peer(id) => {
                if let Message::Peer(PeerMsg::InvalidateCached { label, epoch }) = &env.msg {
                    // The router owns the route caches, so invalidation
                    // frames terminate here instead of at the shard —
                    // same epoch-guarded handler as every runtime.
                    self.engine.deliver_invalidation(&id, label, *epoch);
                    return None;
                }
                match self.peers.get(&id) {
                    Some(tx) => {
                        tx.send(ToPeer::Frame { retries, frame })
                            .expect("peer alive");
                        self.inflight += 1;
                        None
                    }
                    None => Some((retries, frame)),
                }
            }
            Address::Node(label) => {
                let structural = !matches!(&env.msg, Message::Node(NodeMsg::Discovery(_)));
                let host = self.engine.directory().host_of(&label).cloned();
                match host.as_ref().and_then(|h| self.peers.get(h)) {
                    // A directory entry pointing at a crashed peer parks
                    // the frame like an in-flight node would, instead of
                    // panicking the router.
                    Some(tx) => {
                        tx.send(ToPeer::Frame { retries, frame })
                            .expect("peer alive");
                        self.inflight += 1;
                        // A delivered non-discovery node frame may
                        // mutate the node's structure: advance its
                        // epoch so learned routing shortcuts
                        // re-validate. Only on the actual hand-off —
                        // a parked frame must not bump once per retry
                        // (the other runtimes bump once, at delivery).
                        if structural {
                            self.engine.directory_mut().bump_epoch(&label);
                        }
                        None
                    }
                    None => Some((retries, frame)),
                }
            }
        }
    }

    /// Stops every peer thread and returns their final shards
    /// (for inspection/validation).
    pub fn shutdown(mut self) -> Vec<PeerShard> {
        for tx in self.peers.values() {
            let _ = tx.send(ToPeer::Shutdown);
        }
        self.handles
            .drain(..)
            .map(|h| h.join().expect("peer thread exits cleanly"))
            .collect()
    }
}

/// The peer thread: decode, handle, encode, reply.
fn peer_loop(
    mut shard: PeerShard,
    rx: Receiver<ToPeer>,
    reply: Sender<PeerReply>,
    stats: Arc<ThreadedStats>,
) -> PeerShard {
    while let Ok(msg) = rx.recv() {
        let (retries, frame) = match msg {
            ToPeer::Shutdown => break,
            ToPeer::Frame { retries, frame } => (retries, frame),
        };
        let env = decode(&frame).expect("router sends valid frames");
        let mut fx = Effects::default();
        let undelivered = match &env.msg {
            Message::Node(_) => {
                let Address::Node(label) = &env.to else {
                    unreachable!("node message to node address")
                };
                if shard.nodes.contains_key(label) {
                    let Message::Node(m) = env.msg else {
                        unreachable!()
                    };
                    protocol::handle_node_msg(&mut shard, label, m, &mut fx);
                    None
                } else {
                    // Not hosted here (migration or creation still in
                    // flight): bounce back for retry.
                    *stats.frames_bounced.lock() += 1;
                    Some((retries, frame))
                }
            }
            Message::Peer(_) => {
                let Message::Peer(m) = env.msg else {
                    unreachable!()
                };
                protocol::handle_peer_msg(&mut shard, m, &mut fx);
                None
            }
            Message::ClientResponse(_) => None, // router handles these
        };
        *stats.frames_handled.lock() += 1;
        let frames: Vec<Bytes> = fx.out.iter().map(encode).collect();
        reply
            .send(PeerReply {
                frames,
                relocated: fx.relocated,
                removed: fx.removed,
                undelivered,
            })
            .expect("router alive");
    }
    shard
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlpt_core::trie::PgcpTrie;

    const KEYS: [&str; 12] = [
        "DGEMM", "DGEMV", "DTRSM", "DTRMM", "SGEMM", "SGEMV", "S3L_fft", "S3L_sort", "PSGESV",
        "PDGEMM", "ZTRSM", "CAXPY",
    ];

    fn live(seed: u64, peers: usize, keys: &[&str]) -> ThreadedDlpt {
        let mut net = ThreadedDlpt::new(Alphabet::grid(), seed);
        for _ in 0..peers {
            net.add_peer();
        }
        for k in keys {
            net.insert_data(*k);
        }
        net
    }

    #[test]
    fn threads_build_the_oracle_tree() {
        let mut oracle = PgcpTrie::new();
        for k in KEYS {
            oracle.insert(Key::from(k));
        }
        let net = live(1, 6, &KEYS);
        assert_eq!(net.node_labels(), oracle.labels());
        let shards = net.shutdown();
        assert_eq!(shards.len(), 6);
        let total_nodes: usize = shards.iter().map(|s| s.node_count()).sum();
        assert_eq!(total_nodes, oracle.labels().len());
    }

    #[test]
    fn live_lookups_and_queries() {
        let mut net = live(2, 5, &KEYS);
        for k in KEYS {
            let (found, results) = net.lookup(&Key::from(k));
            assert!(found, "{k}");
            assert_eq!(results, vec![Key::from(k)]);
        }
        let (found, _) = net.lookup(&Key::from("NOPE"));
        assert!(!found);
        let (ok, results) = net.complete(&Key::from("S3L"));
        assert!(ok);
        assert_eq!(results.len(), 2);
        let (ok, results) = net.range(&Key::from("D"), &Key::from("E"));
        assert!(ok);
        assert_eq!(results.len(), 4);
        net.shutdown();
    }

    #[test]
    fn peers_can_join_after_data() {
        let mut net = live(3, 3, &KEYS[..6]);
        for _ in 0..4 {
            net.add_peer();
        }
        assert_eq!(net.peer_count(), 7);
        for k in &KEYS[..6] {
            assert!(net.lookup(&Key::from(*k)).0, "{k}");
        }
        // Mapping invariant over the final shards.
        let labels = net.node_labels();
        let shards = net.shutdown();
        let peers: std::collections::BTreeSet<Key> =
            shards.iter().map(|s| s.peer.id.clone()).collect();
        for shard in &shards {
            for label in shard.nodes.keys() {
                let expected = dlpt_core::mapping::host_of(&peers, label).unwrap();
                assert_eq!(*expected, shard.peer.id, "node {label} on wrong peer");
            }
        }
        assert_eq!(
            labels.len(),
            shards.iter().map(|s| s.node_count()).sum::<usize>()
        );
    }

    #[test]
    fn stats_count_work() {
        let net = live(4, 4, &KEYS[..4]);
        assert!(*net.stats.frames_handled.lock() > 0);
        net.shutdown();
    }

    #[test]
    fn anti_entropy_places_replicas_on_live_threads() {
        let mut net = live(5, 5, &KEYS);
        net.set_replication(2);
        net.anti_entropy();
        let labels = net.node_labels();
        for label in &labels {
            assert_eq!(net.replica_hosts(label).len(), 2, "{label}");
        }
        // The copies are real: every shard's replica map mirrors the
        // router's bookkeeping.
        let shards = net.shutdown();
        let total_replicas: usize = shards.iter().map(|s| s.replica_count()).sum();
        assert_eq!(total_replicas, labels.len(), "one follower copy each");
    }

    #[test]
    fn cached_lookups_hit_on_live_threads() {
        let mut net = live(7, 5, &KEYS);
        net.set_cache_capacity(32);
        for _ in 0..6 {
            for k in KEYS {
                let (found, results) = net.lookup(&Key::from(k));
                assert!(found, "{k}");
                assert_eq!(results, vec![Key::from(k)]);
            }
        }
        assert!(net.cache_stats.learned > 0);
        assert!(
            net.cache_stats.hits > 0,
            "repeated lookups must hit: {:?}",
            net.cache_stats
        );
        let (found, _) = net.lookup(&Key::from("ABSENT"));
        assert!(!found);
        net.shutdown();
    }

    #[test]
    fn removal_invalidates_router_caches() {
        let mut net = live(8, 4, &KEYS);
        net.set_cache_capacity(32);
        let victim = Key::from("CAXPY");
        for _ in 0..8 {
            assert!(net.lookup(&victim).0);
        }
        assert!(net.cache_stats.hits > 0, "cache must be warm");
        net.remove_data(&victim);
        assert!(net.cache_stats.invalidations_delivered > 0);
        for _ in 0..6 {
            let (found, results) = net.lookup(&victim);
            assert!(!found, "cache must never resurrect a removed key");
            assert!(results.is_empty());
        }
        assert!(net.lookup(&Key::from("DGEMM")).0);
        net.shutdown();
    }

    #[test]
    fn crashed_thread_fails_over_without_losing_keys() {
        let mut net = live(6, 6, &KEYS);
        net.set_replication(2);
        net.anti_entropy();
        // Crash the thread hosting the most nodes.
        let mut by_host: std::collections::HashMap<Key, usize> = std::collections::HashMap::new();
        for label in net.node_labels() {
            let host = net.directory().host_of(&label).unwrap().clone();
            *by_host.entry(host).or_default() += 1;
        }
        let victim = by_host
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)))
            .map(|(id, _)| id)
            .unwrap();
        let lost = net.crash_peer(&victim);
        assert!(lost.is_empty(), "{lost:?}");
        assert_eq!(net.peer_count(), 5);
        for k in KEYS {
            let (found, results) = net.lookup(&Key::from(k));
            assert!(found, "{k}");
            assert_eq!(results, vec![Key::from(k)]);
        }
        // Redundancy is restored by the next pass.
        net.anti_entropy();
        for label in net.node_labels() {
            assert_eq!(net.replica_hosts(&label).len(), 2, "{label}");
        }
        net.shutdown();
    }
}
