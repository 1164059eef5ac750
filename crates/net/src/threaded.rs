//! The live threaded runtime: every peer is an OS thread.
//!
//! This is the workspace's substitution for the paper's Grid'5000
//! prototype (announced as future work there): the shared operation
//! surface of `dlpt_core` ([`Overlay`]) over a [`FrameDriver`]. The
//! engine hosts every shard, as it does for `DlptSystem` and
//! [`crate::sim::LatencyNet`], and this driver decides only how
//! envelopes travel. One leaving the engine is encoded once
//! ([`crate::codec`]) and sent to the inbox of the peer that hosts its
//! destination; that peer's thread decodes the frame and hands it to
//! [`Engine::deliver`] — the only handler entry — against the one
//! engine all threads share behind one lock. An operation lends the
//! engine to the threads by swapping it into the hub and swaps it back
//! at quiescence, so between operations [`ThreadedDlpt`] dereferences
//! to it like every other runtime (introspection, tracing, audit,
//! health snapshots, the fault API).
//!
//! So every envelope kind crosses a thread boundary as a wire frame,
//! delivery order is decided by the OS scheduler, and a peer's handlers
//! run on that peer's thread. Scheduling is nondeterministic; the
//! protocol's convergence is not: the tests build overlays under real
//! interleavings and check the tree against the sequential oracle.

use crate::codec::{decode, encode};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use dlpt_core::alphabet::Alphabet;
use dlpt_core::engine::{requeue_limit, Engine, Step, Transport};
use dlpt_core::error::Result;
use dlpt_core::key::Key;
use dlpt_core::messages::{Address, Envelope};
use dlpt_core::overlay::{Driver, Overlay};
use dlpt_core::peer::PeerShard;
use dlpt_core::system::SystemConfig;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Counters shared with the peer threads.
#[derive(Debug, Default)]
pub struct ThreadedStats {
    /// Frames peer threads handed to [`Engine::deliver`].
    pub frames_handled: Mutex<u64>,
    /// Frames bounced back for redelivery (destination still in flight).
    pub frames_bounced: Mutex<u64>,
}

/// How many times one frame may be redelivered while its destination
/// is still in flight (floored by the ring size, [`requeue_limit`]),
/// before the owning request is failed explicitly.
const FRAME_RETRY_BUDGET: u32 = 10_000;

/// One wire frame in a peer's inbox, with its redelivery count.
type Frame = (u32, Bytes);

/// Where the engine emits while the hub lock is held; [`Hub::flush`]
/// turns every envelope in it into a frame before the lock is released.
#[derive(Default)]
struct Outbox(Vec<Envelope>);

impl Transport for Outbox {
    fn deliver(&mut self, env: Envelope) {
        self.0.push(env);
    }
}

/// What the caller and the peer threads share, behind one lock.
#[derive(Default)]
struct Hub {
    /// The engine the threads deliver into: the overlay's while an
    /// operation runs, a spare empty one in between.
    engine: Engine,
    /// The inbox of every live peer; dropping one ends its thread.
    inboxes: HashMap<Key, Sender<Frame>>,
    /// Frames sent to an inbox and not yet handled: zero is quiescence.
    inflight: usize,
}

/// The live peer whose thread carries a frame addressed to `to`: the
/// host of a node, the peer itself, and — for client responses and for
/// destinations no live peer hosts (yet) — the first peer of the ring,
/// where [`Engine::deliver`] consumes or requeues them.
fn carrier<'a>(engine: &'a Engine, to: &'a Address) -> &'a Key {
    let host = match to {
        Address::Node(label) => engine.host_of(label),
        Address::Peer(id) => Some(id),
        Address::Client(_) => None,
    };
    host.filter(|p| engine.contains_peer(p))
        .or_else(|| engine.peer_at(0))
        .expect("frames travel only while a peer is live")
}

impl Hub {
    /// Sends one frame to the inbox of its [`carrier`].
    fn post(&mut self, to: &Address, frame: Frame) {
        let peer = carrier(&self.engine, to);
        self.inboxes[peer]
            .send(frame)
            .expect("a live peer's thread keeps its inbox open");
        self.inflight += 1;
    }

    /// Frames what the engine emitted into `out` — one `encode` per
    /// envelope — and, whenever that leaves nothing in flight, what a
    /// reordering fault held back ("late", never "lost twice"). True at
    /// quiescence.
    fn flush(&mut self, out: &mut Outbox) -> bool {
        loop {
            for env in out.0.drain(..) {
                self.post(&env.to, (0, encode(&env)));
            }
            if self.inflight > 0 {
                return false;
            }
            if !self.engine.flush_deferred(out) {
                return true;
            }
        }
    }

    /// One frame (decoded: `env`) popped by `me`'s thread. A
    /// destination another live peer hosts by now is forwarded, not
    /// handled; one that is still in flight bounces with its redelivery
    /// count until the budget is spent, then fails explicitly — a
    /// discovery frame resolves its request, giving up on anything else
    /// is a routing bug worth aborting on. Returns whether it bounced.
    fn handle(
        &mut self,
        me: &Key,
        (retries, frame): Frame,
        env: Envelope,
        out: &mut Outbox,
        stats: &ThreadedStats,
    ) -> bool {
        if carrier(&self.engine, &env.to) != me {
            self.post(&env.to, (retries, frame));
            return false;
        }
        *stats.frames_handled.lock() += 1;
        let engine = &mut self.engine;
        let Step::Requeue(env) = engine.deliver(out, env).expect("valid envelope") else {
            return false;
        };
        if retries < requeue_limit(FRAME_RETRY_BUDGET, engine.peer_count()) {
            *stats.frames_bounced.lock() += 1;
            self.post(&env.to, (retries + 1, frame));
            return true;
        }
        if let Err(e) = engine.fail_frame(out, env) {
            panic!("frame given up after {retries} redeliveries: {e}");
        }
        false
    }
}

/// The peer thread: pop a frame and decode it, handle it under the hub
/// lock, frame what the engine emitted, and tell the caller when that
/// was the last frame in flight. A panic travels to the caller over the
/// same channel instead of stranding it there.
fn peer_loop(
    me: Key,
    inbox: Receiver<Frame>,
    hub: Arc<Mutex<Hub>>,
    done: Sender<std::thread::Result<()>>,
    stats: Arc<ThreadedStats>,
) {
    let run = AssertUnwindSafe(|| {
        let mut out = Outbox::default();
        while let Ok(frame) = inbox.recv() {
            let env = decode(&frame.1).expect("inboxes carry frames `encode` produced");
            let mut hub = hub.lock();
            let bounced = hub.handle(&me, frame, env, &mut out, &stats);
            hub.inflight -= 1;
            if hub.flush(&mut out) {
                let _ = done.send(Ok(()));
            }
            drop(hub);
            if bounced {
                // The frame that creates the destination is likely on
                // another thread: let it have the core and the lock.
                std::thread::yield_now();
            }
        }
    });
    if let Err(panic) = catch_unwind(run) {
        let _ = done.send(Err(panic));
    }
}

/// The threaded driver: the hub the peer threads share, their handles,
/// the envelopes injected since the last quiescence and the RNG.
pub struct FrameDriver {
    rng: StdRng,
    hub: Arc<Mutex<Hub>>,
    handles: Vec<JoinHandle<()>>,
    out: Outbox,
    done_tx: Sender<std::thread::Result<()>>,
    done_rx: Receiver<std::thread::Result<()>>,
    stats: Arc<ThreadedStats>,
}

impl Drop for FrameDriver {
    fn drop(&mut self) {
        // The threads hold the hub, the hub their inboxes: close them.
        self.hub.lock().inboxes.clear();
    }
}

impl Transport for FrameDriver {
    fn deliver(&mut self, env: Envelope) {
        self.out.0.push(env);
    }
}

impl Driver for FrameDriver {
    /// Lends the engine to the peer threads, gives every live peer a
    /// thread (and ends those of peers gone since), frames the queued
    /// envelopes and blocks until no frame is in flight.
    fn quiesce(&mut self, engine: &mut Engine) -> Result<()> {
        let mut guard = self.hub.lock();
        let hub = &mut *guard;
        std::mem::swap(&mut hub.engine, engine);
        hub.inboxes.retain(|id, _| hub.engine.contains_peer(id));
        for (id, _) in hub.engine.shards() {
            if hub.inboxes.contains_key(id) {
                continue;
            }
            let (tx, rx) = unbounded();
            let (me, shared) = (id.clone(), Arc::clone(&self.hub));
            let (done, stats) = (self.done_tx.clone(), Arc::clone(&self.stats));
            let handle = std::thread::Builder::new()
                .name(format!("peer-{id}"))
                .spawn(move || peer_loop(me, rx, shared, done, stats))
                .expect("spawn peer thread");
            self.handles.push(handle);
            hub.inboxes.insert(id.clone(), tx);
        }
        let quiescent = hub.flush(&mut self.out);
        drop(guard);
        if !quiescent {
            let done = self.done_rx.recv().expect("`done_tx` is alive");
            if let Err(panic) = done {
                resume_unwind(panic);
            }
        }
        std::mem::swap(&mut self.hub.lock().engine, engine);
        Ok(())
    }

    fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

/// A live DLPT overlay over OS threads. Dereferences to its [`Overlay`]
/// — the operations every runtime shares — and through it to the
/// engine.
pub struct ThreadedDlpt {
    overlay: Overlay<FrameDriver>,
    /// Shared counters.
    pub stats: Arc<ThreadedStats>,
}

impl std::ops::Deref for ThreadedDlpt {
    type Target = Overlay<FrameDriver>;
    fn deref(&self) -> &Self::Target {
        &self.overlay
    }
}

impl std::ops::DerefMut for ThreadedDlpt {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.overlay
    }
}

impl ThreadedDlpt {
    /// An empty live overlay.
    pub fn new(alphabet: Alphabet, seed: u64) -> Self {
        let (done_tx, done_rx) = unbounded();
        let stats = Arc::<ThreadedStats>::default();
        let driver = FrameDriver {
            rng: StdRng::seed_from_u64(seed),
            hub: Arc::default(),
            handles: Vec::new(),
            out: Outbox::default(),
            done_tx,
            done_rx,
            stats: Arc::clone(&stats),
        };
        let config = SystemConfig {
            alphabet,
            peer_id_len: 12,
            ..SystemConfig::default()
        };
        ThreadedDlpt {
            overlay: Overlay::with_driver(config, driver),
            stats,
        }
    }

    /// Joins a peer with unbounded capacity under a fresh random
    /// identifier; returns it.
    pub fn add_peer(&mut self) -> Key {
        let capacity = self.config().default_capacity;
        self.overlay
            .add_peer(capacity)
            .expect("a freshly drawn id joins")
    }

    /// Registers a service key; panics on an empty ring.
    pub fn insert_data(&mut self, key: impl Into<Key>) {
        self.overlay
            .insert_data(key)
            .expect("registration on a live ring");
    }

    /// Exact lookup; returns `(satisfied, results)`.
    pub fn lookup(&mut self, key: &Key) -> (bool, Vec<Key>) {
        let out = self.overlay.lookup(key);
        (out.satisfied, out.results)
    }

    /// Ends every peer thread and returns the shards of the live peers
    /// in ring order (for inspection/validation).
    pub fn shutdown(self) -> Vec<PeerShard> {
        let (mut engine, mut driver) = self.overlay.into_parts();
        driver.hub.lock().inboxes.clear();
        for h in driver.handles.drain(..) {
            h.join().expect("peer threads catch their own panics");
        }
        let ids = engine.peer_ids();
        ids.iter()
            .filter_map(|id| engine.remove_member(id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlpt_core::messages::{DiscoveryMsg, NodeMsg, QueryKind, RoutePhase};
    use dlpt_core::obs::health::HealthMonitor;
    use dlpt_core::obs::EventKind;
    use dlpt_core::trie::PgcpTrie;
    use std::time::Duration;

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
        let out = net.complete(&Key::from("S3L"));
        assert!(out.satisfied);
        assert_eq!(out.results.len(), 2);
        let out = net.range(&Key::from("D"), &Key::from("E"));
        assert!(out.satisfied);
        assert_eq!(out.results.len(), 4);
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
        net.anti_entropy().unwrap();
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
        net.remove_data(&victim).unwrap();
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
        net.anti_entropy().unwrap();
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
        let lost = net.crash_peer(&victim).unwrap();
        assert!(lost.is_empty(), "{lost:?}");
        assert_eq!(net.peer_count(), 5);
        for k in KEYS {
            let (found, results) = net.lookup(&Key::from(k));
            assert!(found, "{k}");
            assert_eq!(results, vec![Key::from(k)]);
        }
        // Redundancy is restored by the next pass.
        net.anti_entropy().unwrap();
        for label in net.node_labels() {
            assert_eq!(net.replica_hosts(&label).len(), 2, "{label}");
        }
        net.shutdown();
    }

    #[test]
    fn unreplicated_crash_heals_through_repair_frames() {
        let mut net = live(14, 6, &KEYS);
        let victim = net
            .shards()
            .max_by_key(|(_, s)| s.node_count())
            .map(|(id, _)| id.clone())
            .unwrap();
        assert!(
            !net.crash_peer(&victim).unwrap().is_empty(),
            "k = 1 loses nodes"
        );
        assert!(!net.repair_tree().reattached.is_empty());
        net.assert_clean();
        for k in KEYS {
            net.insert_data(k);
        }
        net.assert_clean();
        for k in KEYS {
            assert!(net.lookup(&Key::from(k)).0, "{k}");
        }
        net.shutdown();
    }

    /// Crashing a peer the ring does not hold is refused with
    /// [`DlptError::UnknownPeer`]; a caller that insists on success panics.
    #[test]
    #[should_panic(expected = "crash of a live peer: UnknownPeer(\"NOPE\")")]
    fn crashing_an_unknown_peer_panics() {
        live(13, 3, &KEYS[..2])
            .crash_peer(&Key::from("NOPE"))
            .expect("crash of a live peer");
    }

    /// Frames reach [`Engine::deliver`]: the tracer sees every hop of a
    /// lookup and a health snapshot measures the tree the engine hosts.
    #[test]
    fn lookups_are_traced_hop_by_hop_and_health_measures_the_tree() {
        let mut net = live(9, 5, &KEYS);
        net.set_tracing(4096);
        let visits = |net: &Engine| net.stats.discovery_messages;
        let before = visits(&net);
        let (found, _) = net.lookup(&Key::from("ZTRSM"));
        assert!(found);
        let visited = visits(&net) - before;
        let trace = net.take_trace();
        let count = |kind| trace.iter().filter(|e| e.kind == kind).count() as u64;
        let (admit, hop, satisfy) = (
            count(EventKind::Admit),
            count(EventKind::Hop),
            count(EventKind::Satisfy),
        );
        println!("one lookup: admit={admit} hop={hop} satisfy={satisfy} visits={visited}");
        assert!(visited >= 1);
        assert_eq!((admit, hop, satisfy), (1, visited, 1));

        let mut mon = HealthMonitor::new();
        let faults = net.fault_stats();
        net.collect_health(0, &faults, &mut mon);
        assert!(!mon.snap.depth_occupancy.is_empty());
        assert_eq!(
            mon.snap.depth_occupancy.iter().sum::<u64>(),
            net.node_count() as u64
        );
        net.shutdown();
    }

    /// Runs `f` on its own thread and fails, instead of hanging, when
    /// it does not finish in time.
    fn within_a_minute<T: Send + 'static>(
        f: impl FnOnce() -> T + Send + 'static,
    ) -> std::thread::Result<T> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(catch_unwind(AssertUnwindSafe(f))));
        rx.recv_timeout(Duration::from_secs(60))
            .expect("watchdog: the operation hung")
    }

    #[test]
    fn a_frame_for_a_label_that_never_appears_is_given_up_explicitly() {
        let (out, exhausted, bounced) = within_a_minute(|| {
            let mut net = live(10, 4, &KEYS[..6]);
            let bounced = *net.stats.frames_bounced.lock();
            let (entry, never) = (net.node_labels()[0].clone(), Key::from("NEVER"));
            let query = QueryKind::Exact(never.clone());
            let (id, _) = net.begin_request(&entry, query.clone()).unwrap();
            let stray = DiscoveryMsg {
                request_id: id,
                query,
                phase: RoutePhase::Up,
                path: Vec::new(),
            };
            let stray = Envelope::to_node(never, NodeMsg::Discovery(stray));
            let (mut engine, mut driver) = net.overlay.into_parts();
            driver.inject(&mut engine, stray);
            driver.quiesce(&mut engine).unwrap();
            let bounced = *driver.stats.frames_bounced.lock() - bounced;
            let out = engine.finish_request(id);
            (out, engine.fault_stats().frames_exhausted, bounced)
        })
        .expect("an exhausted discovery frame fails its request, not the runtime");
        assert!(!out.satisfied && out.dropped, "{out:?}");
        assert_eq!(exhausted, 1);
        assert_eq!(bounced, u64::from(FRAME_RETRY_BUDGET));
    }

    #[test]
    fn a_peer_thread_panic_reaches_the_caller() {
        let panic = within_a_minute(|| {
            let (mut engine, mut driver) = live(11, 3, &KEYS[..4]).overlay.into_parts();
            let mut hub = driver.hub.lock();
            let inbox = hub.inboxes.values().next().expect("three peers");
            inbox.send((0, Bytes::from(vec![0xFF; 3]))).unwrap();
            hub.inflight += 1;
            drop(hub);
            driver.quiesce(&mut engine).unwrap();
        })
        .expect_err("the undecodable frame panics its peer thread");
        let msg = panic.downcast_ref::<String>().expect("an `expect` message");
        assert!(msg.contains("inboxes carry frames"), "{msg}");
    }
}
