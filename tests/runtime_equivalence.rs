//! Runtime-equivalence property: the runtimes — the synchronous pump,
//! the (zero-latency) discrete-event `LatencyNet` and the threaded
//! `ThreadedDlpt` — are *the same protocol* under different drivers,
//! and share one operation surface (`Overlay`). Driving one seeded
//! workload (joins, graceful leaves, registrations, discoveries of
//! every kind, removals, crashes — repaired at `k = 1`, failed over at
//! `k = 2` — node hand-offs, cache on/off) through all three must yield identical node
//! placements and identical discovery result sets, and the same misuse
//! must fail with the same error.
//!
//! What may legitimately differ: message/hop counts (drivers schedule
//! differently). Every runtime charges capacity; peers join unbounded
//! here.

use dlpt::core::{
    Alphabet, DlptError, DlptSystem, Driver, FaultPlan, Key, Overlay, QueryKind,
    REQUEST_RETRY_BUDGET,
};
use dlpt::net::{LatencyModel, LatencyNet, ThreadedDlpt};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const KEY_POOL: [&str; 16] = [
    "DGEMM", "DGEMV", "DTRSM", "DTRMM", "SGEMM", "SGEMV", "S3L_fft", "S3L_sort", "S3L_mat",
    "PSGESV", "PDGEMM", "ZTRSM", "CAXPY", "DGEX", "DG", "S3L_",
];

#[derive(Debug, Clone)]
enum Op {
    /// Join a fresh peer (identifier drawn from a deterministic pool).
    Join,
    /// Gracefully retire the `i % live`-th peer.
    Leave(u8),
    /// Register `KEY_POOL[i % len]`.
    Insert(u8),
    /// Deregister `KEY_POOL[i % len]`.
    Remove(u8),
    /// Exact lookup of `KEY_POOL[i % len]`.
    Lookup(u8),
    /// Completion of the first 2–3 digits of `KEY_POOL[i % len]`.
    Complete(u8),
    /// Range over the sorted pair of two pool keys.
    Range(u8, u8),
    /// Crash the `i % live`-th peer: repaired at `k = 1`, wrapped in
    /// anti-entropy passes at `k = 2` so all runtimes fail over
    /// identically.
    Crash(u8),
    /// Hand the `i % nodes`-th label off to the `j % live`-th peer (a
    /// balancer's ownership hand-off); `drive` hands each label it
    /// moved, if still live and off-home, back to its canonical host
    /// before it returns.
    Migrate(u8, u8),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Join),
        any::<u8>().prop_map(Op::Leave),
        any::<u8>().prop_map(Op::Insert),
        any::<u8>().prop_map(Op::Insert), // bias toward growth
        any::<u8>().prop_map(Op::Remove),
        any::<u8>().prop_map(Op::Lookup),
        any::<u8>().prop_map(Op::Lookup),
        any::<u8>().prop_map(Op::Complete),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Range(a, b)),
        any::<u8>().prop_map(Op::Crash),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Migrate(a, b)),
    ]
}

fn key(i: u8) -> Key {
    Key::from(KEY_POOL[i as usize % KEY_POOL.len()])
}

/// Deterministic, collision-free peer identifier pool (valid in the
/// grid alphabet), spread over the key pool's range so every peer hosts
/// part of the tree.
fn peer_id(i: usize) -> Key {
    Key::from(format!(
        "{}{i:03}",
        ["D", "S", "P", "Z", "DT", "SG", "C"][i % 7]
    ))
}

/// The observable state the three runtimes must agree on.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    placements: BTreeMap<Key, Key>,
    results: Vec<(bool, Vec<Key>)>,
}

fn ordered(a: u8, b: u8) -> (Key, Key) {
    let (x, y) = (key(a), key(b));
    if x <= y {
        (x, y)
    } else {
        (y, x)
    }
}

/// One op translated to the query it issues (`None` for mutations).
fn query_of(o: &Op) -> Option<QueryKind> {
    match o {
        Op::Lookup(i) => Some(QueryKind::Exact(key(*i))),
        Op::Complete(i) => {
            let k = key(*i);
            Some(QueryKind::Complete(k.truncated(2.min(k.len()))))
        }
        Op::Range(a, b) => {
            let (lo, hi) = ordered(*a, *b);
            Some(QueryKind::range(lo, hi))
        }
        _ => None,
    }
}

/// `(satisfied, results)` of one query; an empty tree is a miss.
fn ask<D: Driver>(rt: &mut Overlay<D>, query: QueryKind) -> (bool, Vec<Key>) {
    match rt.request(query) {
        Ok(out) => (out.satisfied, out.results),
        Err(e) => {
            assert_eq!(e, DlptError::EmptyTree);
            (false, Vec::new())
        }
    }
}

fn join<D: Driver>(rt: &mut Overlay<D>, id: Key) {
    rt.add_peer_with_id(id, u32::MAX >> 1).unwrap();
}

fn placements<D: Driver>(rt: &Overlay<D>) -> BTreeMap<Key, Key> {
    rt.directory()
        .iter()
        .map(|(l, h)| (l.clone(), h.clone()))
        .collect()
}

/// Runs the workload, returning every query result plus the final
/// placements. Leaves and crashes fire once at least 4 peers are live.
fn drive<D: Driver>(rt: &mut Overlay<D>, ops: &[Op], initial_peers: usize, k: usize) -> Observed {
    for i in 0..initial_peers {
        join(rt, peer_id(i));
    }
    let mut next_peer = initial_peers;
    let mut results = Vec::new();
    let mut migrated = BTreeSet::new();
    for o in ops {
        if let Some(q) = query_of(o) {
            results.push(ask(rt, q));
            continue;
        }
        let peers = rt.peer_ids();
        match o {
            Op::Join => {
                join(rt, peer_id(next_peer));
                next_peer += 1;
            }
            Op::Insert(i) => rt.insert_data(key(*i)).unwrap(),
            Op::Remove(i) => rt.remove_data(&key(*i)).unwrap(),
            Op::Leave(i) if peers.len() >= 4 => {
                rt.leave_peer(&peers[*i as usize % peers.len()]).unwrap();
            }
            Op::Crash(i) if peers.len() >= 4 => {
                let victim = &peers[*i as usize % peers.len()];
                if k < 2 {
                    // The hosted nodes are lost; repair re-attaches
                    // what they orphaned, as protocol traffic.
                    rt.crash_peer(victim).unwrap();
                    rt.repair_tree();
                    continue;
                }
                // Fresh copies in, crash, redundancy restored — the
                // same fail-over path in every runtime.
                rt.anti_entropy().unwrap();
                let lost = rt.crash_peer(victim).unwrap();
                assert!(lost.is_empty(), "k=2 + fresh anti-entropy: {lost:?}");
                rt.anti_entropy().unwrap();
            }
            Op::Migrate(i, j) => {
                let labels = rt.node_labels();
                if let Some(label) = labels.get(*i as usize % labels.len().max(1)) {
                    let to = &peers[*j as usize % peers.len()];
                    if rt.host_of(label) != Some(to) {
                        rt.migrate_node(label, to).unwrap();
                        migrated.insert(label.clone());
                    }
                }
            }
            _ => {}
        }
    }
    // Only the labels `Op::Migrate` moved go back to the mapping rule;
    // every other placement stays as the runtime left it, under the
    // caller's audit and cross-runtime comparison.
    for label in migrated {
        let Some(host) = rt.host_of(&label).cloned() else {
            continue; // deregistered since
        };
        if let Some(home) = rt.host_peer(&label).cloned().filter(|h| *h != host) {
            rt.migrate_node(&label, &home).unwrap();
        }
    }
    Observed {
        placements: placements(rt),
        results,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline satellite: one workload, three runtimes, identical
    /// placements and result sets — replication and caching included.
    #[test]
    fn three_runtimes_agree_on_placements_and_results(
        ops in proptest::collection::vec(op(), 4..28),
        seed in 0u64..500,
        initial_peers in 3usize..6,
        replicated in any::<bool>(),
        cached in any::<bool>(),
    ) {
        let k = if replicated { 2 } else { 1 };
        let cache = if cached { 32 } else { 0 };

        let mut sync = DlptSystem::builder()
            .seed(seed)
            .peer_id_len(8)
            .replication(k)
            .cache_capacity(cache)
            .build();
        let a = drive(&mut sync, &ops, initial_peers, k);
        let audit = sync.audit();
        prop_assert!(audit.is_empty(), "sync audits clean: {:?}", audit);

        let mut latency = LatencyNet::new(LatencyModel::Constant(0), seed ^ 0x5eed);
        latency.set_replication(k);
        latency.set_cache_capacity(cache);
        let b = drive(&mut latency, &ops, initial_peers, k);
        let audit = latency.audit();
        prop_assert!(audit.is_empty(), "latency audits clean: {:?}", audit);

        let mut threaded = ThreadedDlpt::new(Alphabet::grid(), seed ^ 0x7eed);
        threaded.set_replication(k);
        threaded.set_cache_capacity(cache);
        let c = drive(&mut threaded, &ops, initial_peers, k);
        let audit = threaded.audit();
        prop_assert!(audit.is_empty(), "threaded audits clean: {:?}", audit);
        // ... over every shard: the ring and trie classes iterate them.
        prop_assert_eq!(threaded.shards().count(), threaded.peer_count());

        prop_assert_eq!(&a.placements, &b.placements, "sync vs latency placements");
        prop_assert_eq!(&a.placements, &c.placements, "sync vs threaded placements");
        prop_assert_eq!(&a.results, &b.results, "sync vs latency results");
        prop_assert_eq!(&a.results, &c.results, "sync vs threaded results");
        threaded.shutdown();
    }
}

/// One row per misuse, in order: what is attempted and the error it
/// gets, through the shared verbs on a fresh overlay.
fn misuse<D: Driver>(rt: &mut Overlay<D>) -> Vec<(&'static str, DlptError)> {
    let mut rows = vec![
        (
            "insert on an empty ring",
            rt.insert_data(key(0)).unwrap_err(),
        ),
        (
            "remove on an empty ring",
            rt.remove_data(&key(0)).unwrap_err(),
        ),
        (
            "crash of an unknown peer",
            rt.crash_peer(&peer_id(9)).unwrap_err(),
        ),
    ];
    join(rt, peer_id(0));
    let duplicate = rt.add_peer_with_id(peer_id(0), 1).unwrap_err();
    rows.push(("duplicate peer id", duplicate));
    rows
}

#[test]
fn misuse_fails_with_the_same_error_on_every_runtime() {
    let want = vec![
        ("insert on an empty ring", DlptError::EmptyRing),
        ("remove on an empty ring", DlptError::EmptyRing),
        (
            "crash of an unknown peer",
            DlptError::UnknownPeer(peer_id(9).to_string()),
        ),
        (
            "duplicate peer id",
            DlptError::DuplicatePeer(peer_id(0).to_string()),
        ),
    ];
    assert_eq!(misuse(&mut DlptSystem::builder().build()), want, "sync");
    let mut latency = LatencyNet::new(LatencyModel::Constant(0), 1);
    assert_eq!(misuse(&mut latency), want, "latency");
    let mut threaded = ThreadedDlpt::new(Alphabet::grid(), 2);
    assert_eq!(misuse(&mut threaded), want, "threaded");
    threaded.shutdown();
}

/// Number of queries in an op sequence — the result count `drive` must
/// produce for the workload to count as fully terminated.
fn query_count(ops: &[Op]) -> usize {
    ops.iter()
        .filter(|o| matches!(o, Op::Lookup(_) | Op::Complete(_) | Op::Range(_, _)))
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The lossy arm: the same workloads under 10% message loss, 5%
    /// duplication and 5% reordering. The fault RNG streams differ per
    /// transport, so the runtimes need not agree on results — the
    /// property is *termination*: every drive returns, every query
    /// resolves (satisfied or explicitly failed, never hung), and the
    /// seeded sync run reproduces itself exactly.
    #[test]
    fn lossy_workloads_terminate_on_all_three_runtimes(
        ops in proptest::collection::vec(op(), 4..28),
        seed in 0u64..500,
        initial_peers in 3usize..6,
    ) {
        let plan = |s: u64| FaultPlan {
            loss_rate: 0.10,
            dup_rate: 0.05,
            reorder_rate: 0.05,
            seed: s,
        };
        let expected = query_count(&ops);

        let run_sync = || {
            let mut sync = DlptSystem::builder().seed(seed).peer_id_len(8).build();
            sync.set_fault_plan(plan(seed));
            let obs = drive(&mut sync, &ops, initial_peers, 1);
            (obs, sync.audit())
        };
        let (a, a_audit) = run_sync();
        prop_assert_eq!(a.results.len(), expected, "sync: every query terminates");
        prop_assert!(a_audit.is_empty(), "sync audits clean after quiescence: {:?}", a_audit);
        let (a2, _) = run_sync();
        prop_assert_eq!(&a.results, &a2.results, "seeded lossy sync reproduces");
        prop_assert_eq!(&a.placements, &a2.placements);

        let mut latency = LatencyNet::new(LatencyModel::Constant(0), seed ^ 0x5eed);
        latency.set_fault_plan(plan(seed ^ 0x10));
        let b = drive(&mut latency, &ops, initial_peers, 1);
        prop_assert_eq!(b.results.len(), expected, "latency: every query terminates");
        let b_audit = latency.audit();
        prop_assert!(b_audit.is_empty(), "latency audits clean after quiescence: {:?}", b_audit);

        let mut threaded = ThreadedDlpt::new(Alphabet::grid(), seed ^ 0x7eed);
        threaded.set_fault_plan(plan(seed ^ 0x20));
        let c = drive(&mut threaded, &ops, initial_peers, 1);
        prop_assert_eq!(c.results.len(), expected, "threaded: every query terminates");
        let c_audit = threaded.audit();
        prop_assert!(c_audit.is_empty(), "threaded audits clean after quiescence: {:?}", c_audit);
        prop_assert_eq!(threaded.shards().count(), threaded.peer_count());

        // Mutations and joins travel the reliable class, so the tree
        // the runtimes build is unaffected by the fault plan.
        prop_assert_eq!(&a.placements, &b.placements, "faults never touch placements");
        prop_assert_eq!(&a.placements, &c.placements, "faults never touch placements");
        threaded.shutdown();
    }
}

/// The partition scenario as a deterministic equivalence check: sever
/// a key range, observe routed requests resolving (never hanging),
/// heal, and require k = 2 + anti-entropy to converge back to fully
/// correct lookups — including across a post-heal crash.
fn drive_partition_scenario<D: Driver>(rt: &mut Overlay<D>, name: &str) {
    for i in 0..5 {
        join(rt, peer_id(i));
    }
    for i in 0..KEY_POOL.len() {
        rt.insert_data(key(i as u8)).unwrap();
    }
    rt.anti_entropy().unwrap();
    // Sever ["D", "K"): lookups toward that range fail explicitly
    // while the rest of the tree keeps answering.
    rt.partition(Key::from("D"), Key::from("K"));
    let mut severed_failures = 0;
    for i in 0..KEY_POOL.len() {
        let (found, results) = ask(rt, QueryKind::Exact(key(i as u8)));
        if found {
            assert_eq!(results, vec![key(i as u8)], "{name}: wrong result for {i}");
        } else {
            severed_failures += 1;
        }
    }
    assert!(
        severed_failures > 0,
        "{name}: the partition must fail some lookups"
    );
    rt.heal_partition();
    rt.anti_entropy().unwrap();
    // A crash after the heal: redundancy must have survived the cut
    // (replication traffic rides the reliable class).
    let victim = rt.peer_ids()[2].clone();
    let lost = rt.crash_peer(&victim).unwrap();
    assert!(lost.is_empty(), "{name}: k = 2 loses nothing");
    rt.anti_entropy().unwrap();
    for i in 0..KEY_POOL.len() {
        let (found, results) = ask(rt, QueryKind::Exact(key(i as u8)));
        assert!(found, "{name}: key {i} must be found after the heal");
        assert_eq!(results, vec![key(i as u8)], "{name}: wrong result for {i}");
    }
    let audit = rt.audit();
    assert!(
        audit.is_empty(),
        "{name}: engine must audit clean after heal + crash + AE: {audit:?}"
    );
    assert_eq!(rt.shards().count(), rt.peer_count(), "{name}");
}

#[test]
fn partition_heals_and_k2_ae_converges_on_all_three_runtimes() {
    let mut sync = DlptSystem::builder()
        .seed(11)
        .peer_id_len(8)
        .replication(2)
        .build();
    drive_partition_scenario(&mut sync, "sync");

    let mut latency = LatencyNet::new(LatencyModel::Constant(0), 12);
    latency.set_replication(2);
    drive_partition_scenario(&mut latency, "latency");

    let mut threaded = ThreadedDlpt::new(Alphabet::grid(), 13);
    threaded.set_replication(2);
    drive_partition_scenario(&mut threaded, "threaded");
    threaded.shutdown();
}

/// Budget exhaustion as one contract: under total loss an exact lookup
/// is re-issued exactly `REQUEST_RETRY_BUDGET` times, then completes
/// unsatisfied as one counted, explicit failure — never a hang.
fn drive_total_loss<D: Driver>(rt: &mut Overlay<D>, name: &str) {
    for i in 0..4 {
        join(rt, peer_id(i));
    }
    for i in 0..6 {
        rt.insert_data(key(i)).unwrap();
    }
    rt.set_fault_plan(FaultPlan {
        loss_rate: 1.0,
        ..FaultPlan::default()
    });
    let (found, results) = ask(rt, QueryKind::Exact(key(0)));
    assert!(!found && results.is_empty(), "{name}: nothing can answer");
    let stats = rt.fault_stats();
    println!(
        "{name}: (retries, requests_failed) = ({}, {})",
        stats.retries, stats.requests_failed
    );
    assert_eq!(
        (stats.retries, stats.requests_failed),
        (REQUEST_RETRY_BUDGET as u64, 1),
        "{name}"
    );
}

#[test]
fn total_loss_exhausts_the_retry_budget_on_all_three_runtimes() {
    let mut sync = DlptSystem::builder().seed(21).peer_id_len(8).build();
    drive_total_loss(&mut sync, "sync");

    let mut latency = LatencyNet::new(LatencyModel::Constant(0), 22);
    drive_total_loss(&mut latency, "latency");

    let mut threaded = ThreadedDlpt::new(Alphabet::grid(), 23);
    drive_total_loss(&mut threaded, "threaded");
    threaded.shutdown();
}
