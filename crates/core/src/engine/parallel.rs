//! The route-then-commit batch pump: discovery throughput that scales
//! with cores and answers exactly like the sequential `request` loop.
//!
//! During a discovery batch the tree is frozen and routing only *reads*
//! it ([`discovery::route_visit`] takes `&NodeState`): the node set
//! a query visits is a function of the tree alone. The one
//! order-dependent piece of state is each peer's `used < capacity`
//! counter. [`ParallelPump::run_batch`] therefore runs in two phases
//! between the sequential prologue ([`Engine::begin_request`]: register
//! the aggregation, consult the entry cache) and epilogue
//! ([`Engine::take_finished`] / [`Engine::finish_request`]: collect the
//! outcome, teach the cache):
//!
//! 1. **Route** — the entry envelopes are split into contiguous chunks,
//!    one per worker, and routed on scoped threads sharing `&Engine`
//!    (the caller's thread takes the first chunk; a one-chunk batch
//!    spawns nothing). Each request runs its own FIFO drain as if every
//!    visit were accepted, recording a flat per-chunk list of visits
//!    and the client responses they emitted. No state is shared
//!    mutably and no message crosses workers; `join` is the only
//!    synchronisation.
//! 2. **Commit** — the calling thread walks the chunks in request order
//!    and replays every visit in its recorded FIFO order: offered load,
//!    [`try_accept`](crate::peer::PeerState::try_accept) on the host,
//!    the `discovery_messages` / `discovery_drops` counters, the
//!    `Hop` / `Drop` trace event. A refused visit reports the dropped
//!    outcome the sequential dispatch would have synthesized and takes
//!    its recorded descendants with it; surviving replies go to
//!    `Engine::client_response` at their FIFO position.
//!
//! ## Determinism contract
//!
//! Outcomes, [`SystemStats`](crate::metrics::SystemStats), node loads,
//! peer capacity counters and (request by request) the trace equal what
//! the sequential loop `for q in queries { sys.request(q) }` produces,
//! **for every worker count** — the chunking decides who routes a
//! request, never what is committed or in which order. Caveats:
//!
//! * Route caches are consulted for the whole batch in the prologue and
//!   taught in the epilogue, so a request cannot hit a shortcut learned
//!   from an earlier request of the same batch.
//! * Replica failover (the sequential capacity-refused read path at
//!   `k > 1`) is not consulted — a refused visit is a drop, as in the
//!   paper's capacity model.
//! * A visit to a label a crash removed (a link `repair_tree` has not
//!   pruned or re-pointed yet) fails at once; the sequential pump first
//!   burns its requeue budget (`stats.requeues`).
//!
//! The batch API is restricted to discovery: joins, registrations and
//! churn stay on the sequential pump, which matches how the experiment
//! harness uses the system (build once, then hammer it with requests).

use super::{Engine, LookupOutcome};
use crate::directory::Directory;
use crate::error::{DlptError, Result};
use crate::key::Key;
use crate::messages::{Address, DiscoveryOutcome, Envelope, Message, NodeMsg, QueryKind};
use crate::obs::{EventKind, TraceEvent};
use crate::protocol::{discovery, Effects};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

// The route phase shares `&Engine` across threads and the threaded
// runtime (`dlpt-net`) lends the engine to its peer threads: a
// `Cell`/`Rc` added to engine state must fail the build, not a test.
const _: fn() = || {
    fn shared_and_lent_across_threads<T: Sync + Send>() {}
    shared_and_lent_across_threads::<Engine>();
};

/// A batch-mode discovery pump over `N` workers. See the module docs.
#[derive(Debug, Clone, Copy)]
pub struct ParallelPump {
    workers: usize,
    /// Test-only fault injection: index of a route worker that dies on
    /// entry, exercising the failed-batch path.
    #[cfg(test)]
    sabotage: Option<usize>,
}

/// [`Visit::parent`] of a request's entry visit.
const ENTRY: u32 = u32::MAX;
/// [`Visit::label`] and [`Visit::host`] of a visit that found no hosted
/// node to deliver to.
const UNROUTABLE: u32 = u32::MAX;

/// One routed node visit, in the chunk's FIFO order.
#[derive(Clone, Copy)]
struct Visit {
    /// Interned id of the visited label, or [`UNROUTABLE`].
    label: u32,
    /// Interned id of the hosting peer, or [`UNROUTABLE`].
    host: u32,
    /// Chunk index of the visit that forwarded here, or [`ENTRY`].
    parent: u32,
    /// Path length on arrival: that many ancestors up the parent chain
    /// are the request's route so far (gather branches arrive with 0).
    hops: u32,
}

/// One client response emitted while routing.
struct Reply {
    /// Chunk index of the emitting visit.
    from: u32,
    /// FIFO position: consumed once this many visits were processed.
    at: u32,
    outcome: DiscoveryOutcome,
}

/// What routing one chunk of requests recorded.
struct Routed {
    visits: Vec<Visit>,
    replies: Vec<Reply>,
}

impl ParallelPump {
    /// A pump over `workers` workers (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        ParallelPump {
            workers: workers.max(1),
            #[cfg(test)]
            sabotage: None,
        }
    }

    /// A pump whose `victim`-th route worker dies on entry (test-only).
    #[cfg(test)]
    fn sabotaged(workers: usize, victim: usize) -> Self {
        ParallelPump {
            workers: workers.max(1),
            sabotage: Some(victim),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs a batch of discovery requests (entry node, query) to
    /// completion and returns their outcomes in input order — the
    /// outcomes the sequential pump would return for the same requests
    /// one at a time (see the module docs for the contract).
    ///
    /// Entry nodes must be live. A route worker that panics fails the
    /// batch with [`DlptError::WorkerFailed`] before anything was
    /// committed: the batch's aggregations and learn intents are
    /// released and the engine stays serviceable.
    pub fn run_batch(
        &self,
        engine: &mut Engine,
        requests: Vec<(Key, QueryKind)>,
    ) -> Result<Vec<LookupOutcome>> {
        let workers = self.workers.min(requests.len()).max(1);
        let per_chunk = requests.len().div_ceil(workers).max(1);
        // Sequential prologue: register aggregation state and consult
        // the entry caches (identical flow to the sequential pump).
        let mut ids = Vec::with_capacity(requests.len());
        let mut chunks: Vec<Vec<Envelope>> = Vec::with_capacity(workers);
        for (entry, query) in requests {
            match engine.begin_request(&entry, query) {
                Ok((id, env)) => {
                    if ids.len() % per_chunk == 0 {
                        chunks.push(Vec::with_capacity(per_chunk));
                    }
                    ids.push(id);
                    chunks.last_mut().expect("pushed above").push(env);
                }
                Err(e) => {
                    // Earlier registrations must not linger as zombie
                    // aggregations/learn intents.
                    abandon(engine, &ids);
                    return Err(e);
                }
            }
        }

        let started = Instant::now();
        let Some(routed) = self.route(engine, chunks) else {
            abandon(engine, &ids);
            return Err(DlptError::WorkerFailed { completed: 0 });
        };
        let routed_at = Instant::now();
        commit(engine, &ids, routed);
        engine.pump_timing.route_us = (routed_at - started).as_micros() as u64;
        engine.pump_timing.commit_us = routed_at.elapsed().as_micros() as u64;

        let mut results = Vec::with_capacity(ids.len());
        for id in ids {
            let out = if let Some(out) = engine.take_finished(id) {
                out
            } else if engine.gathers.contains(id) {
                // A reordering plan rules eager finalization out; every
                // reply is in, so judging now is judging at quiescence.
                engine.finish_request(id)
            } else {
                return Err(DlptError::Undeliverable(format!("request {id}")));
            };
            results.push(out);
        }
        Ok(results)
    }

    /// Phase 1: routes every chunk read-only, chunk 0 on the calling
    /// thread and the rest on scoped threads. `None` when a worker
    /// panicked — routing mutates nothing, so there is nothing to undo.
    fn route(&self, engine: &Engine, chunks: Vec<Vec<Envelope>>) -> Option<Vec<Routed>> {
        #[cfg(test)]
        let sabotage = self.sabotage;
        #[cfg(not(test))]
        let sabotage: Option<usize> = None;
        let work = |w: usize, envs: Vec<Envelope>| {
            if sabotage == Some(w) {
                panic!("injected route-worker failure (test sabotage)");
            }
            route_chunk(engine, envs)
        };
        std::thread::scope(|scope| {
            let mut chunks = chunks.into_iter().enumerate();
            let first = chunks.next();
            // Collected, so every thread is running before the caller
            // starts on its own chunk.
            let spawned: Vec<_> = chunks
                .map(|(w, envs)| scope.spawn(move || work(w, envs)))
                .collect();
            let mut routed = Vec::with_capacity(spawned.len() + 1);
            if let Some((w, envs)) = first {
                routed.push(catch_unwind(AssertUnwindSafe(|| work(w, envs))).ok());
            }
            routed.extend(spawned.into_iter().map(|h| h.join().ok()));
            routed.into_iter().collect()
        })
    }
}

/// Releases the batch's registered aggregations and learn intents.
fn abandon(engine: &mut Engine, ids: &[u64]) {
    for &id in ids {
        engine.gathers.release(id);
        engine.learn.remove(&id);
    }
}

/// Routes one chunk: each request's FIFO drain over the frozen tree,
/// every visit taken as accepted. An exact query's lone follow-up is
/// chained in place, exactly like [`Engine::deliver`]'s hop chaining,
/// and follows the label id its link memoised when it has one. The
/// pump only reads the tree, so a link without one costs a hash of
/// the label and stays unresolved.
fn route_chunk(engine: &Engine, envs: Vec<Envelope>) -> Routed {
    let mut out = Routed {
        visits: Vec::with_capacity(envs.len() * 12),
        replies: Vec::with_capacity(envs.len()),
    };
    let mut fx = Effects::default();
    let mut queue: VecDeque<(u32, Envelope)> = VecDeque::new();
    for env in envs {
        // `(parent visit, envelope, destination label id if known)`.
        let mut next = Some((ENTRY, env, None));
        let queued = |(parent, env)| (parent, env, None);
        while let Some((parent, env, known)) = next.take().or_else(|| queue.pop_front().map(queued))
        {
            match (env.to, env.msg) {
                (Address::Client(_), Message::ClientResponse(outcome)) => out.replies.push(Reply {
                    from: parent,
                    at: out.visits.len() as u32,
                    outcome,
                }),
                (Address::Node(label), Message::Node(NodeMsg::Discovery(mut m))) => {
                    let v = out.visits.len() as u32;
                    let mut visit = Visit {
                        label: UNROUTABLE,
                        host: UNROUTABLE,
                        parent,
                        hops: m.path.len() as u32,
                    };
                    let located = match known {
                        Some(lid) => engine.directory.resolve_id(lid),
                        None => engine.directory.resolve(&label),
                    };
                    let hosted = located.and_then(|(lid, hid, hint)| {
                        let nodes = &engine.peers.get(hid)?.shard.nodes;
                        Some((lid, hid, nodes.at(nodes.find(&label, hint)?)))
                    });
                    if let Some((lid, hid, node)) = hosted {
                        (visit.label, visit.host) = (lid, hid);
                        let forward = discovery::route_visit(node, &mut m, &mut fx);
                        let envelope = |to| Envelope::to_node(to, NodeMsg::Discovery(m));
                        match forward {
                            Some((to, link)) if queue.is_empty() && fx.out.is_empty() => {
                                next = Some((v, envelope(to), node.link_id(link)));
                            }
                            forward => {
                                if let Some((to, _)) = forward {
                                    fx.send(envelope(to));
                                }
                                if queue.is_empty() && fx.out.len() == 1 {
                                    next = fx.out.pop().map(|e| (v, e, None));
                                } else {
                                    queue.extend(fx.out.drain(..).map(|e| (v, e)));
                                }
                            }
                        }
                    }
                    out.visits.push(visit);
                }
                (to, msg) => unreachable!("discovery routing emitted {msg:?} to {to:?}"),
            }
        }
    }
    out
}

/// The route of visit `v` on arrival, rebuilt from the parent chain
/// (what its message's `path` held).
fn path_before(directory: &Directory, visits: &[Visit], v: usize) -> Vec<Key> {
    let mut path = Vec::with_capacity(visits[v].hops as usize + 1);
    let mut cur = v;
    for _ in 0..visits[v].hops {
        cur = visits[cur].parent as usize;
        path.push(directory.key_of(visits[cur].label).clone());
    }
    path.reverse();
    path
}

/// Phase 2: replays the routed visits in request order against the
/// capacity counters and feeds the surviving replies to the
/// aggregation, then applies the offered-load deltas with one node
/// probe per distinct label.
fn commit(engine: &mut Engine, ids: &[u64], routed: Vec<Routed>) {
    // The pump is synchronous: requests are judged eagerly unless the
    // plan reorders (`Engine::judges_eagerly`).
    let eager = !engine.reordering;
    let mut load = vec![0u32; engine.directory.interned_len()];
    let mut requests = ids.iter();
    let mut request = 0u64;
    // Per chunk: visits that were refused, or descend from one.
    let mut dead: Vec<bool> = Vec::new();
    for Routed { visits, replies } in routed {
        dead.clear();
        dead.resize(visits.len(), false);
        let mut replies = replies.into_iter().peekable();
        let mut deliver = |engine: &mut Engine, dead: &[bool], upto: usize| {
            while let Some(r) = replies.next_if(|r| r.at as usize <= upto) {
                if !dead[r.from as usize] {
                    // A report carrying its route hands the engine the
                    // hosts routing already resolved for it.
                    let mut cur = r.from as usize;
                    if r.outcome.path.len() == visits[cur].hops as usize + 1 {
                        engine.route_hosts.push(visits[cur].host);
                        for _ in 0..visits[cur].hops {
                            cur = visits[cur].parent as usize;
                            engine.route_hosts.push(visits[cur].host);
                        }
                        engine.route_hosts.reverse();
                    }
                    engine.client_response(r.outcome, eager);
                    engine.route_hosts.clear();
                }
            }
        };
        for (v, &visit) in visits.iter().enumerate() {
            deliver(engine, &dead, v);
            if visit.parent == ENTRY {
                request = *requests.next().expect("one entry visit per request");
            } else if dead[visit.parent as usize] {
                dead[v] = true;
                continue;
            }
            let Some(slot) = engine.peers.get_mut(visit.host) else {
                dead[v] = true;
                let path = path_before(&engine.directory, &visits, v);
                engine.abandon_discovery(request, path, eager);
                continue;
            };
            // Section 4's charging rule (`discovery::deliver_visit`):
            // demand counts toward `l_n` even when the peer refuses.
            load[visit.label as usize] += 1;
            if slot.shard.peer.try_accept() {
                engine.stats.discovery_messages += 1;
                if engine.tracer.enabled() {
                    engine.tracer.emit(TraceEvent::new(
                        EventKind::Hop,
                        request,
                        visit.label,
                        visit.host,
                        visit.hops as usize,
                    ));
                }
            } else {
                dead[v] = true;
                let mut path = path_before(&engine.directory, &visits, v);
                path.push(engine.directory.key_of(visit.label).clone());
                engine.refuse_visit(request, visit.label, visit.host, path, eager);
            }
        }
        deliver(engine, &dead, visits.len());
    }
    for (lid, &n) in load.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let label = engine.directory.key_of(lid as u32);
        let node = engine
            .directory
            .host_id(lid as u32)
            .and_then(|hid| engine.peers.get_mut(hid)?.shard.nodes.get_mut(label));
        node.expect("a charged visit found its node").load += n as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SystemStats;
    use crate::system::DlptSystem;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    fn built_system(seed: u64, capacity: u32) -> DlptSystem {
        let mut sys = DlptSystem::builder()
            .seed(seed)
            .peer_id_len(10)
            .default_capacity(capacity)
            .bootstrap_peers(10)
            .build();
        for i in 0..30 {
            sys.insert_data(k(&format!("SVC{i:02}"))).unwrap();
        }
        for name in ["DGEMM", "DGEMV", "DTRSM", "S3L_fft", "S3L_sort"] {
            sys.insert_data(k(name)).unwrap();
        }
        sys.end_time_unit();
        sys
    }

    /// Exact hits, an exact miss, a completion and a range.
    fn query_mix() -> Vec<QueryKind> {
        let mut qs = Vec::new();
        for i in 0..40 {
            qs.push(QueryKind::Exact(k(&format!("SVC{:02}", i % 30))));
        }
        qs.push(QueryKind::Exact(k("MISSING")));
        qs.push(QueryKind::Complete(k("S3L")));
        qs.push(QueryKind::range(k("D"), k("E")));
        qs
    }

    /// Everything a batch may change besides its return value: the
    /// counters, every node's offered load, every peer's `used` and
    /// `dropped_this_unit`.
    type Charged = (SystemStats, Vec<(Key, u64)>, Vec<(u32, u64)>);

    fn charged(sys: &DlptSystem) -> Charged {
        let nodes = sys.local_shards().flat_map(|s| s.nodes.values());
        (
            sys.stats.clone(),
            nodes.map(|n| (n.label.clone(), n.load)).collect(),
            sys.local_shards()
                .map(|s| (s.peer.used, s.peer.dropped_this_unit))
                .collect(),
        )
    }

    #[test]
    fn parallel_batch_matches_sequential_requests() {
        let mut seq_sys = built_system(42, u32::MAX >> 1);
        let mut par_sys = built_system(42, u32::MAX >> 1);
        let seq_out: Vec<_> = query_mix()
            .into_iter()
            .map(|q| seq_sys.request(q).unwrap())
            .collect();
        let par_out = par_sys.discover_batch(query_mix(), 4).unwrap();
        assert_eq!(seq_out, par_out);
        assert!(par_out[..40].iter().all(|o| o.satisfied));
        assert!(!par_out[40].found && par_out[41].results.len() == 2);
        assert_eq!(seq_sys.stats, par_sys.stats);
    }

    #[test]
    fn seeded_parallel_runs_are_byte_identical() {
        let run = || {
            let mut sys = built_system(7, u32::MAX >> 1);
            let out = sys.discover_batch(query_mix(), 4).unwrap();
            (out, sys.stats.clone())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn worker_count_does_not_change_results_without_capacity_pressure() {
        let run = |workers| {
            let mut sys = built_system(11, u32::MAX >> 1);
            sys.discover_batch(query_mix(), workers).unwrap()
        };
        let reference = run(1);
        for workers in [2, 3, 4, 8] {
            assert_eq!(reference, run(workers), "workers={workers}");
        }
    }

    /// The contract: whatever the capacity pressure and the worker
    /// count, a batch leaves exactly what the per-query `request` loop
    /// leaves — outcomes, counters, loads, capacity counters.
    #[test]
    fn batch_equals_sequential_for_any_workers() {
        for capacity in [5, 20, 40, 100, u32::MAX >> 1] {
            for tracing in [0, 1 << 14] {
                let mut seq = built_system(13, capacity);
                seq.set_tracing(tracing);
                let want: Vec<_> = query_mix()
                    .into_iter()
                    .map(|q| seq.request(q).unwrap())
                    .collect();
                let drops = seq.stats.discovery_drops;
                assert_eq!(drops > 0, capacity <= 100, "{capacity}: {drops} drops");
                assert!(capacity < 20 || want.iter().any(|o| o.satisfied));
                for workers in [1, 2, 3, 8] {
                    let mut par = built_system(13, capacity);
                    par.set_tracing(tracing);
                    let got = par.discover_batch(query_mix(), workers).unwrap();
                    let case = format!("capacity={capacity} workers={workers} tracing={tracing}");
                    assert_eq!(want, got, "{case}");
                    assert_eq!(charged(&seq), charged(&par), "{case}");
                }
            }
        }
    }

    #[test]
    fn cached_batches_learn_and_hit_through_the_shared_flow() {
        let mut sys = DlptSystem::builder()
            .seed(23)
            .peer_id_len(10)
            .cache_capacity(64)
            .bootstrap_peers(6)
            .build();
        for name in ["DGEMM", "DGEMV", "DTRSM", "S3L_fft"] {
            sys.insert_data(k(name)).unwrap();
        }
        let hot: Vec<QueryKind> = (0..64).map(|_| QueryKind::Exact(k("DGEMM"))).collect();
        let out = sys.discover_batch(hot.clone(), 4).unwrap();
        assert!(out.iter().all(|o| o.satisfied));
        assert!(sys.cache_stats.learned > 0, "{:?}", sys.cache_stats);
        let out = sys.discover_batch(hot, 4).unwrap();
        assert!(out.iter().all(|o| o.satisfied));
        assert!(out.iter().all(|o| o.results == vec![k("DGEMM")]));
        assert!(sys.cache_stats.hits > 0, "{:?}", sys.cache_stats);
    }

    /// Regression: the pump must also serve engines that judge at
    /// quiescence (a reordering plan is installed), which never eagerly
    /// finalize — the epilogue judges their still-registered gathers
    /// once every reply is in instead of erroring out.
    #[test]
    fn quiescence_judging_engines_run_batches_and_learn_shortcuts() {
        use crate::engine::Engine;
        use crate::node::NodeState;
        use crate::transport::FaultPlan;
        let mut e = Engine::default();
        e.set_cache_capacity(16);
        e.set_fault_plan(FaultPlan {
            reorder_rate: 1.0,
            ..FaultPlan::default()
        });
        e.add_local_shard(k("PAAA"), 100);
        e.add_local_shard(k("ZAAA"), 100);
        let mut node = NodeState::new(k("DGEMM"));
        node.add_datum(k("DGEMM"));
        let host = e.host_peer(&k("DGEMM")).unwrap().clone();
        e.shard_mut(&host).unwrap().install(node);
        e.directory.insert(k("DGEMM"), host);
        let out = ParallelPump::new(2)
            .run_batch(&mut e, vec![(k("DGEMM"), QueryKind::Exact(k("DGEMM")))])
            .unwrap();
        assert!(out[0].satisfied);
        assert_eq!(out[0].results, vec![k("DGEMM")]);
        // The satisfied exact query must teach the entry peer's cache
        // through the quiescence-judging epilogue (`finish_request`),
        // not silently drop the learn intent.
        assert_eq!(e.cache_stats.learned, 1, "{:?}", e.cache_stats);
        let out = ParallelPump::new(2)
            .run_batch(&mut e, vec![(k("DGEMM"), QueryKind::Exact(k("DGEMM")))])
            .unwrap();
        assert!(out[0].satisfied);
        assert_eq!(e.cache_stats.hits, 1, "{:?}", e.cache_stats);
    }

    /// A route worker dying — on a spawned thread or on the caller's —
    /// fails the batch before anything was committed: nothing charged,
    /// nothing registered, the engine audits clean and keeps serving.
    #[test]
    fn a_dying_worker_fails_the_batch_without_poisoning_the_engine() {
        let mut sys = built_system(17, 40);
        let entry = sys.node_labels().into_iter().next().unwrap();
        let requests: Vec<(Key, QueryKind)> = query_mix()
            .into_iter()
            .map(|q| (entry.clone(), q))
            .collect();
        let before = charged(&sys);
        for victim in [0, 2] {
            let err = ParallelPump::sabotaged(4, victim)
                .run_batch(&mut sys, requests.clone())
                .unwrap_err();
            assert_eq!(err, DlptError::WorkerFailed { completed: 0 });
            assert!(sys.gathers.is_empty() && sys.learn.is_empty());
            assert_eq!(before, charged(&sys), "routing is read-only");
            assert_eq!(sys.audit(), Vec::new());
        }
        let out = ParallelPump::new(4).run_batch(&mut sys, requests).unwrap();
        assert!(out.iter().any(|o| o.satisfied));
        sys.end_time_unit();
        assert!(sys.request(QueryKind::Exact(k("SVC00"))).unwrap().satisfied);
    }

    #[test]
    fn more_workers_than_peers_clamps_cleanly() {
        let mut sys = DlptSystem::builder()
            .seed(3)
            .peer_id_len(8)
            .bootstrap_peers(2)
            .build();
        sys.insert_data(k("DGEMM")).unwrap();
        let out = sys
            .discover_batch(vec![QueryKind::Exact(k("DGEMM"))], 16)
            .unwrap();
        assert!(out[0].satisfied);
    }
}
