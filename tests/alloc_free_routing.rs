//! Counting-allocator proof of the zero-allocation routing hot path.
//!
//! The perf-baseline PR's claim is *per routed envelope*: once the
//! system is warm (queue, effect buffers and path vectors at their
//! high-water marks), forwarding a discovery envelope one more logical
//! hop must not allocate. Requests still pay a small constant setup
//! cost (the aggregation entry, the pre-sized path vector, the result
//! set), so the assertion is differential: a deep lookup and a shallow
//! lookup on the same warm system must allocate the *same* number of
//! times — i.e. the marginal cost of every extra hop is zero
//! allocations.
//!
//! Everything runs inside ONE `#[test]` so no concurrent test can
//! pollute the global counter.

use dlpt::core::messages::QueryKind;
use dlpt::core::{Alphabet, DlptSystem, Key};
use dlpt::net::{LatencyModel, LatencyNet};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth is a new allocation for the purpose of this proof.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocations of one closure run.
fn count<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocs();
    let r = f();
    (allocs() - before, r)
}

#[test]
fn routed_envelopes_are_allocation_free_in_steady_state() {
    // ---- Phase 1: small-key clones never touch the allocator. ------
    let key = Key::from("S3L_cholesky_factor"); // longest-family corpus name
    assert!(key.is_inline());
    let (n, clones) = count(|| {
        let mut v = Vec::with_capacity(64);
        for _ in 0..64 {
            v.push(key.clone());
        }
        v
    });
    assert_eq!(
        n, 1,
        "64 inline-key clones must cost exactly the one Vec allocation"
    );
    drop(clones);

    // Spilled keys clone by refcount — also allocation-free.
    let long = Key::from("X".repeat(100).as_str());
    assert!(!long.is_inline());
    let (n, c) = count(|| long.clone());
    assert_eq!(n, 0, "spilled-key clone is a refcount bump");
    drop(c);

    // ---- Phase 2: marginal hop cost on the sync pump is zero. ------
    // Binary paper tree: lookups from random entry nodes traverse
    // 0..=4 logical hops depending on entry/target distance.
    let mut sys = DlptSystem::builder()
        .alphabet(Alphabet::binary())
        .seed(7)
        .peer_id_len(10)
        .bootstrap_peers(4)
        .build();
    for s in ["01", "10101", "10111", "101111"] {
        sys.insert_data(Key::from(s)).unwrap();
    }
    // Both requests enter at the SAME node ("01"), so the only
    // difference between them is how many envelopes get routed:
    // exact("01") resolves in place (0 hops), exact("101111") climbs
    // to ε and descends through 101 and 10111 (4 hops).
    let entry = Key::from("01");
    let shallow = QueryKind::Exact(Key::from("01"));
    let deep = QueryKind::Exact(Key::from("101111"));

    // Warm-up: run both lookups repeatedly so every internal buffer
    // (pump queue, effect scratch, request slot, result vectors)
    // reaches its high-water mark.
    for _ in 0..32 {
        assert!(sys.request_from(&entry, shallow.clone()).unwrap().satisfied);
        assert!(sys.request_from(&entry, deep.clone()).unwrap().satisfied);
    }

    const ROUNDS: u64 = 64;
    let (shallow_allocs, hops_shallow) = count(|| {
        let mut hops = 0;
        for _ in 0..ROUNDS {
            hops += sys
                .request_from(&entry, shallow.clone())
                .unwrap()
                .logical_hops();
        }
        hops
    });
    let (deep_allocs, hops_deep) = count(|| {
        let mut hops = 0;
        for _ in 0..ROUNDS {
            hops += sys
                .request_from(&entry, deep.clone())
                .unwrap()
                .logical_hops();
        }
        hops
    });
    assert!(
        hops_deep > hops_shallow,
        "workload sanity: the deep key must route farther ({hops_deep} vs {hops_shallow} hops)"
    );
    // The deep run routes 256 extra envelopes (64 rounds x 4 hops); if
    // any per-hop path allocated, the difference would be >= 256. The
    // counter occasionally sees a couple of incidental allocations
    // straddling a measurement boundary, so the assertion tolerates a
    // constant jitter far below one allocation per hop instead of
    // flaking on strict equality.
    const JITTER: u64 = 4;
    assert!(
        deep_allocs.abs_diff(shallow_allocs) <= JITTER,
        "extra routed envelopes must not allocate: {} hops cost {deep_allocs} allocs, \
         {} hops cost {shallow_allocs}",
        hops_deep,
        hops_shallow
    );
    // And the fixed per-request overhead itself stays small.
    assert!(
        shallow_allocs / ROUNDS <= 16,
        "per-request setup regressed: {} allocs/request",
        shallow_allocs / ROUNDS
    );

    // ---- Phase 3: gather responses are allocation-free too. --------
    // Two completion queries with the SAME result count but different
    // subtree shapes: a registered chain (every visited node holds a
    // key) versus a wide subtree whose internal branch nodes are
    // data-less. The wide query routes more hops and collects more
    // gather responses for the same four results — if a gather
    // response (branch envelope + partial report + aggregation step)
    // allocated, the wide run would cost strictly more.
    for s in ["000", "0000", "00000", "000000"] {
        sys.insert_data(Key::from(s)).unwrap();
    }
    for s in ["11000", "11011", "11100", "11111"] {
        sys.insert_data(Key::from(s)).unwrap();
    }
    let chain = QueryKind::Complete(Key::from("000"));
    let wide = QueryKind::Complete(Key::from("11"));
    for _ in 0..32 {
        assert!(sys.request_from(&entry, chain.clone()).unwrap().satisfied);
        assert!(sys.request_from(&entry, wide.clone()).unwrap().satisfied);
    }
    let (chain_allocs, chain_visits) = count(|| {
        let mut visits = 0;
        for _ in 0..ROUNDS {
            let out = sys.request_from(&entry, chain.clone()).unwrap();
            assert!(out.satisfied && out.results.len() == 4);
            visits += out.gather_visits;
        }
        visits
    });
    let (wide_allocs, wide_visits) = count(|| {
        let mut visits = 0;
        for _ in 0..ROUNDS {
            let out = sys.request_from(&entry, wide.clone()).unwrap();
            assert!(out.satisfied && out.results.len() == 4);
            visits += out.gather_visits;
        }
        visits
    });
    assert!(
        wide_visits > chain_visits,
        "workload sanity: the wide subtree must gather across more nodes \
         ({wide_visits} vs {chain_visits} partial reports)"
    );
    assert!(
        wide_allocs.abs_diff(chain_allocs) <= JITTER,
        "extra gather responses must not allocate: {wide_visits} partials cost \
         {wide_allocs} allocs, {chain_visits} partials cost {chain_allocs}"
    );

    // The same pair as range queries over the same four keys each. A
    // range's bounds are shared, not copied, into every branch's
    // `query.clone()`, so fanning out wider must not allocate either.
    let chain = QueryKind::range(Key::from("000"), Key::from("000000"));
    let wide = QueryKind::range(Key::from("11000"), Key::from("11111"));
    for _ in 0..32 {
        assert!(sys.request_from(&entry, chain.clone()).unwrap().satisfied);
        assert!(sys.request_from(&entry, wide.clone()).unwrap().satisfied);
    }
    let gather = |sys: &mut DlptSystem, query: &QueryKind| {
        let mut visits = 0;
        for _ in 0..ROUNDS {
            let out = sys.request_from(&entry, query.clone()).unwrap();
            assert!(out.satisfied && out.results.len() == 4);
            visits += out.gather_visits;
        }
        visits
    };
    let (chain_allocs, chain_visits) = count(|| gather(&mut sys, &chain));
    let (wide_allocs, wide_visits) = count(|| gather(&mut sys, &wide));
    assert!(
        wide_visits > chain_visits,
        "workload sanity: the wide range must gather across more nodes \
         ({wide_visits} vs {chain_visits} partial reports)"
    );
    assert!(
        wide_allocs.abs_diff(chain_allocs) <= JITTER,
        "extra range branches must not allocate: {wide_visits} partials cost \
         {wide_allocs} allocs, {chain_visits} partials cost {chain_allocs}"
    );

    // ---- Phase 4: fault-off admission keeps no retry snapshot. -----
    // The retry policy re-sends a verbatim clone of the entry envelope;
    // that snapshot is only worth paying for behind an active fault
    // gate, so admission takes it only while a plan or partition is
    // installed. A partition over a key range nothing lives in arms
    // the gate without ever dropping anything. A freshly admitted
    // request has its one branch outstanding, so `retry_origin` hands
    // back the snapshot exactly when there is one.
    let mut net = LatencyNet::new(LatencyModel::Constant(1), 11);
    for s in ["00000000", "01000000", "10000000", "11000000"] {
        net.add_peer(Key::from(s));
    }
    for s in ["00", "011", "110"] {
        net.insert_data(Key::from(s));
    }
    let entry = Key::from("00");
    let probe = QueryKind::Exact(Key::from("110"));
    // Warm both admission modes so the request slot's buffers sit at
    // their high-water marks.
    for armed in [false, true, false] {
        if armed {
            net.partition(Key::from("2"), Key::from("3"));
        } else {
            net.heal_partition();
        }
        for _ in 0..8 {
            let (id, _env) = net.begin_request(&entry, probe.clone()).unwrap();
            net.finish_request(id);
        }
    }
    // Behaviour flip: the snapshot exists exactly when recovery is on.
    let (id, _env) = net.begin_request(&entry, probe.clone()).unwrap();
    assert!(
        net.retry_origin(id).is_none(),
        "fault-off admission must not keep a retry snapshot"
    );
    net.finish_request(id);
    net.partition(Key::from("2"), Key::from("3"));
    let (id, env) = net.begin_request(&entry, probe.clone()).unwrap();
    assert_eq!(
        net.retry_origin(id),
        Some(env),
        "an active gate keeps the origin snapshot for retries"
    );
    net.finish_request(id);
    net.heal_partition();
    // Allocation budget: a warm fault-off admission pays exactly the
    // entry envelope's pre-sized path buffer — any snapshot (or other
    // per-request bookkeeping) sneaking back in trips this.
    let (off_allocs, _) = count(|| {
        for _ in 0..ROUNDS {
            let (id, env) = net.begin_request(&entry, probe.clone()).unwrap();
            std::hint::black_box(&env);
            net.finish_request(id);
        }
    });
    assert!(
        off_allocs <= ROUNDS + JITTER,
        "fault-off request admission must allocate only the entry envelope: \
         {off_allocs} allocs over {ROUNDS} requests"
    );

    // ---- Phase 5: the NoopTracer deliver path allocates nothing. ---
    // The observability hooks are threaded through `deliver`,
    // `begin_request` and the gather fold; with the default
    // `Tracer::Noop` every emission site must gate *before*
    // constructing an event — so a warm routed request costs the same
    // allocations it did before the tracer existed. The budget is
    // differential against Phase 2's own warm system: re-running the
    // deep lookup (after asserting the tracer really is off) must stay
    // within the same per-request envelope measured above.
    assert!(!sys.tracing_enabled(), "tracer must default to Noop");
    let deep = QueryKind::Exact(Key::from("101111"));
    let entry = Key::from("01");
    let (noop_allocs, _) = count(|| {
        for _ in 0..ROUNDS {
            assert!(sys.request_from(&entry, deep.clone()).unwrap().satisfied);
        }
    });
    assert!(
        noop_allocs.abs_diff(deep_allocs) <= JITTER,
        "NoopTracer deliver path must not allocate: {noop_allocs} allocs now vs \
         {deep_allocs} in the pre-phase run"
    );

    // Flipping the ring tracer ON allocates only at arming time (the
    // preallocated ring) — the warm emit path itself stays flat too,
    // events being fixed-size writes into that ring.
    sys.set_tracing(4096);
    for _ in 0..8 {
        sys.request_from(&entry, deep.clone()).unwrap();
    }
    let (ring_allocs, _) = count(|| {
        for _ in 0..ROUNDS {
            assert!(sys.request_from(&entry, deep.clone()).unwrap().satisfied);
        }
    });
    assert!(
        ring_allocs.abs_diff(deep_allocs) <= JITTER,
        "warm ring-tracer emission must write into the preallocated ring: \
         {ring_allocs} allocs vs {deep_allocs} untraced"
    );
    let events = sys.take_trace();
    assert!(!events.is_empty(), "ring tracer must have captured events");

    // ---- Phase 6: warm health collection is allocation-free. -------
    // The observatory keeps no engine state: `collect_health` is a
    // pure read into the monitor's own buffers. After one warm
    // collection sizes those buffers (per-peer rows, depth occupancy,
    // scratch vectors), every further snapshot must reuse them — the
    // off-by-default contract's on-side twin.
    use dlpt::core::transport::FaultStats;
    let mut monitor = dlpt::core::HealthMonitor::new();
    let faults = FaultStats::default();
    sys.collect_health(0, &faults, &mut monitor);
    assert!(
        monitor.snap.nodes > 0 && monitor.snap.bytes.total() > 0,
        "warm-up snapshot must observe real state"
    );
    let (snap_allocs, _) = count(|| {
        for unit in 0..ROUNDS {
            sys.collect_health(unit, &faults, &mut monitor);
        }
    });
    assert!(
        snap_allocs <= JITTER,
        "warm collect_health must reuse the monitor's buffers: \
         {snap_allocs} allocs over {ROUNDS} snapshots"
    );
    // And collection leaves the routing hot path untouched: the same
    // warm deep lookup still costs what it did before the observatory
    // ever ran.
    let (post_allocs, _) = count(|| {
        for _ in 0..ROUNDS {
            assert!(sys.request_from(&entry, deep.clone()).unwrap().satisfied);
        }
    });
    assert!(
        post_allocs.abs_diff(ring_allocs) <= JITTER,
        "health collection must not perturb routing: {post_allocs} allocs vs \
         {ring_allocs} before"
    );

    // ---- Phase 7: cache hits and stale-hit evictions never allocate.
    // Nothing tells a peer's cache that a label dissolved or moved: the
    // next consult of a shortcut whose label epoch has moved finds it
    // stale and evicts it, so after a write under a warm cache
    // `consult`'s stale path runs as often as a hit. Four targets per
    // label; bumping every label's epoch stales all of them.
    use dlpt::core::cache::{self, CacheStats, RouteCache};
    use dlpt::core::directory::Directory;
    let targets: Vec<Key> = (0..64).map(|i| Key::from(format!("T{i:02}"))).collect();
    let labels: Vec<Key> = (0..16).map(|i| Key::from(format!("L{i:02}"))).collect();
    let mut directory = Directory::new();
    for l in &labels {
        directory.insert(l.clone(), Key::from("P"));
    }
    let mut cache = RouteCache::new(targets.len());
    for (i, t) in targets.iter().enumerate() {
        let sc = cache::learned_shortcut(&directory, &labels[i / 4]).expect("live label");
        cache.insert(t.clone(), sc);
    }
    let mut stats = CacheStats::default();
    let (cache_allocs, ()) = count(|| {
        for t in &targets {
            assert!(cache.hit(t).is_some());
        }
        for l in &labels {
            directory.bump_epoch(l);
        }
        for t in &targets {
            assert!(cache::consult(&mut cache, &directory, t, &mut stats).is_none());
        }
    });
    assert_eq!(stats.stale_hits, targets.len() as u64);
    assert!(cache.is_empty(), "every stale shortcut is evicted");
    assert!(
        cache_allocs <= JITTER,
        "cache hits and stale-hit evictions must not allocate: {cache_allocs} allocs"
    );
}
