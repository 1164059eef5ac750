//! Determinism regression: the entire system is a pure function of
//! `(config, seed, operation sequence)`. Two identical runs must agree
//! on every observable — message counters, tree shape, peer placement,
//! request outcomes — byte for byte. This is what makes the Section-4
//! experiment harness reproducible and every other test in this suite
//! debuggable.

use dlpt::core::messages::QueryKind;
use dlpt::core::{Alphabet, DlptSystem, FaultPlan, FaultStats, Key, LookupOutcome};

const KEYS: [&str; 12] = [
    "DGEMM", "DGEMV", "DTRSM", "DTRMM", "SGEMM", "SGEMV", "S3L_fft", "S3L_sort", "PSGESV",
    "PDGEMM", "ZTRSM", "CAXPY",
];

/// One fixed mixed workload: bootstrap, registrations, churn,
/// removals, and every query kind. Returns the system plus the
/// outcomes observed along the way.
fn scripted_run(seed: u64) -> (DlptSystem, Vec<LookupOutcome>) {
    scripted_run_with_cache(seed, 0)
}

/// The same scripted workload with an explicit routing-shortcut cache
/// capacity (`dlpt-core::cache`; 0 = off).
fn scripted_run_with_cache(seed: u64, cache: usize) -> (DlptSystem, Vec<LookupOutcome>) {
    let mut sys = DlptSystem::builder()
        .alphabet(Alphabet::grid())
        .seed(seed)
        .peer_id_len(12)
        .cache_capacity(cache)
        .bootstrap_peers(5)
        .build();
    let mut outcomes = Vec::new();
    for k in &KEYS[..8] {
        sys.insert_data(*k).unwrap();
    }
    sys.add_peer(1_000).unwrap();
    sys.add_peer(1_000).unwrap();
    for k in &KEYS[8..] {
        sys.insert_data(*k).unwrap();
    }
    let victim = sys.peer_ids()[1].clone();
    sys.leave_peer(&victim).unwrap();
    sys.remove_data(&Key::from("SGEMV")).unwrap();
    for k in ["DGEMM", "S3L_fft", "MISSING"] {
        outcomes.push(sys.lookup(&Key::from(k)));
    }
    outcomes.push(sys.request(QueryKind::Complete(Key::from("S3L"))).unwrap());
    outcomes.push(
        sys.request(QueryKind::range(Key::from("D"), Key::from("E")))
            .unwrap(),
    );
    sys.end_time_unit();
    (sys, outcomes)
}

/// The full observable state of a run, canonically ordered. Two runs
/// agree iff their fingerprints are byte-identical.
fn fingerprint(sys: &DlptSystem, outcomes: &[LookupOutcome]) -> String {
    let mut out = String::new();
    out.push_str(&format!("stats: {:?}\n", sys.stats));
    out.push_str(&format!("peers: {:?}\n", sys.peer_ids()));
    for label in sys.node_labels() {
        out.push_str(&format!(
            "node {:?} on {:?}: {:?}\n",
            label,
            sys.host_of(&label),
            sys.node(&label)
        ));
    }
    for o in outcomes {
        out.push_str(&format!("outcome: {o:?}\n"));
    }
    out
}

#[test]
fn identical_seeds_give_byte_identical_runs() {
    let (sys_a, out_a) = scripted_run(42);
    let (sys_b, out_b) = scripted_run(42);
    // Structured equality first (better failure messages)…
    assert_eq!(sys_a.stats, sys_b.stats, "SystemStats diverged");
    assert_eq!(sys_a.peer_ids(), sys_b.peer_ids());
    assert_eq!(sys_a.node_labels(), sys_b.node_labels());
    assert_eq!(sys_a.registered_keys(), sys_b.registered_keys());
    for label in sys_a.node_labels() {
        assert_eq!(sys_a.node(&label), sys_b.node(&label), "node {label}");
        assert_eq!(
            sys_a.host_of(&label),
            sys_b.host_of(&label),
            "host of {label}"
        );
    }
    assert_eq!(out_a, out_b, "request outcomes diverged");
    // …then the byte-for-byte check over everything at once.
    assert_eq!(fingerprint(&sys_a, &out_a), fingerprint(&sys_b, &out_b));
}

#[test]
fn tree_shape_is_seed_independent_even_when_placement_is_not() {
    // The PGCP tree is a function of the key set alone; the seed only
    // drives peer identifiers, entry points, and therefore placement
    // and message counts.
    let (sys_a, _) = scripted_run(1);
    let (sys_b, _) = scripted_run(2);
    assert_eq!(sys_a.node_labels(), sys_b.node_labels());
    assert_eq!(sys_a.registered_keys(), sys_b.registered_keys());
    assert_ne!(
        sys_a.peer_ids(),
        sys_b.peer_ids(),
        "distinct seeds should draw distinct peer identifiers"
    );
}

/// Golden regression: the observable behaviour of the scripted run is
/// pinned to a committed fingerprint, so representation refactors (the
/// SSO `Key`, the interned directory) can prove they changed *nothing*
/// observable — placement, message counts, results and hop paths must
/// stay byte-identical across refactors, not merely across runs.
///
/// To re-bless after an *intentional* behaviour change:
/// `DLPT_BLESS=1 cargo test --test determinism golden`.
#[test]
fn golden_fingerprint_matches_committed_baseline() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/determinism_seed42.txt"
    );
    let (sys, outcomes) = scripted_run(42);
    let got = fingerprint(&sys, &outcomes);
    if std::env::var_os("DLPT_BLESS").is_some() {
        std::fs::write(golden_path, &got).expect("write golden fingerprint");
        return;
    }
    let want = std::fs::read_to_string(golden_path).expect("golden fingerprint is committed");
    assert_eq!(
        got, want,
        "observable behaviour diverged from the committed golden run"
    );
}

/// Caching satellite: a system built with the cache knob explicitly
/// off must reproduce the committed golden fingerprint byte for byte —
/// the cache subsystem's epoch bookkeeping, shard cache fields and
/// counters may not leak into any observable.
#[test]
fn cache_off_reproduces_committed_golden_fingerprint() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/determinism_seed42.txt"
    );
    let (sys, outcomes) = scripted_run_with_cache(42, 0);
    assert_eq!(sys.cache_stats, dlpt::core::CacheStats::default());
    let got = fingerprint(&sys, &outcomes);
    let want = std::fs::read_to_string(golden_path).expect("golden fingerprint is committed");
    assert_eq!(
        got, want,
        "cache-off system diverged from the committed golden run"
    );
}

/// The cached system takes different routes (shorter paths, fewer
/// visits) but must still produce the same tree, the same placement
/// and the same result sets as the golden run.
#[test]
fn cached_run_matches_golden_results_and_placement() {
    let (golden, golden_out) = scripted_run(42);
    let (cached, cached_out) = scripted_run_with_cache(42, 32);
    assert_eq!(golden.peer_ids(), cached.peer_ids());
    assert_eq!(golden.node_labels(), cached.node_labels());
    assert_eq!(golden.registered_keys(), cached.registered_keys());
    for label in golden.node_labels() {
        assert_eq!(
            golden.host_of(&label),
            cached.host_of(&label),
            "host of {label}"
        );
    }
    assert_eq!(golden_out.len(), cached_out.len());
    for (a, b) in golden_out.iter().zip(&cached_out) {
        assert_eq!(a.results, b.results);
        assert_eq!(a.found, b.found);
        assert_eq!(a.satisfied, b.satisfied);
    }
}

/// Observability satellite, half one: the tracer is off by default
/// (`Tracer::Noop`) and the scripted run must reproduce the committed
/// golden fingerprint byte for byte — the tracing hooks threaded
/// through `deliver`/`begin_request`/gather may not perturb a single
/// counter, RNG draw or outcome of an untraced system.
#[test]
fn tracing_off_reproduces_committed_golden_fingerprint() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/determinism_seed42.txt"
    );
    let (sys, outcomes) = scripted_run(42);
    assert!(!sys.tracing_enabled(), "tracing must be off by default");
    let got = fingerprint(&sys, &outcomes);
    let want = std::fs::read_to_string(golden_path).expect("golden fingerprint is committed");
    assert_eq!(
        got, want,
        "tracing-off system diverged from the committed golden run"
    );
}

/// Observability satellite, half two: turning the ring tracer *on*
/// only adds events — every observable the fingerprint covers stays
/// byte-identical, because emission reads engine state without ever
/// branching it.
#[test]
fn tracing_on_reproduces_committed_golden_fingerprint_and_captures_events() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/determinism_seed42.txt"
    );
    let traced_run = |seed: u64| {
        let mut sys = DlptSystem::builder()
            .alphabet(Alphabet::grid())
            .seed(seed)
            .peer_id_len(12)
            .bootstrap_peers(5)
            .build();
        sys.set_tracing(1 << 12);
        let mut outcomes = Vec::new();
        for k in &KEYS[..8] {
            sys.insert_data(*k).unwrap();
        }
        sys.add_peer(1_000).unwrap();
        sys.add_peer(1_000).unwrap();
        for k in &KEYS[8..] {
            sys.insert_data(*k).unwrap();
        }
        let victim = sys.peer_ids()[1].clone();
        sys.leave_peer(&victim).unwrap();
        sys.remove_data(&Key::from("SGEMV")).unwrap();
        for k in ["DGEMM", "S3L_fft", "MISSING"] {
            outcomes.push(sys.lookup(&Key::from(k)));
        }
        outcomes.push(sys.request(QueryKind::Complete(Key::from("S3L"))).unwrap());
        outcomes.push(
            sys.request(QueryKind::range(Key::from("D"), Key::from("E")))
                .unwrap(),
        );
        sys.end_time_unit();
        (sys, outcomes)
    };
    let (mut sys, outcomes) = traced_run(42);
    let events = sys.take_trace();
    assert!(
        !events.is_empty(),
        "the traced scripted run must capture events"
    );
    let got = fingerprint(&sys, &outcomes);
    let want = std::fs::read_to_string(golden_path).expect("golden fingerprint is committed");
    assert_eq!(
        got, want,
        "tracing-on system diverged from the committed golden run"
    );
    // And the event stream itself replays: same seed, same events.
    let (mut sys_b, _) = traced_run(42);
    assert_eq!(events, sys_b.take_trace(), "trace diverged across replays");
}

/// Fault-injection satellite, half one: the fault layer is *inert by
/// default*. The scripted run never installs a plan, so no fault
/// counter may move and the committed golden fingerprint must be
/// reproduced byte for byte — the engine's fault gate may not
/// perturb a single RNG draw or counter of a fault-free system.
#[test]
fn fault_layer_off_reproduces_committed_golden_fingerprint() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/determinism_seed42.txt"
    );
    let (sys, outcomes) = scripted_run(42);
    assert_eq!(
        sys.fault_stats(),
        FaultStats::default(),
        "no plan installed, no counter may move"
    );
    let got = fingerprint(&sys, &outcomes);
    let want = std::fs::read_to_string(golden_path).expect("golden fingerprint is committed");
    assert_eq!(
        got, want,
        "fault-off system diverged from the committed golden run"
    );
}

/// Fault-injection satellite, half two: faults themselves are seeded.
/// Two runs under the same `FaultPlan` draw the same losses,
/// duplications and deferrals and end with byte-identical observables
/// and identical fault counters — lossy experiments replay exactly.
#[test]
fn identical_fault_plans_give_byte_identical_lossy_runs() {
    let lossy_run = |seed: u64| {
        let mut sys = DlptSystem::builder()
            .alphabet(Alphabet::grid())
            .seed(seed)
            .peer_id_len(12)
            .bootstrap_peers(5)
            .build();
        sys.set_fault_plan(FaultPlan {
            loss_rate: 0.15,
            dup_rate: 0.10,
            reorder_rate: 0.10,
            seed: seed ^ 0xFA17,
        });
        let mut outcomes = Vec::new();
        for k in &KEYS[..8] {
            sys.insert_data(*k).unwrap();
        }
        for _ in 0..3 {
            for k in ["DGEMM", "S3L_fft", "DTRSM", "MISSING", "PSGESV"] {
                outcomes.push(sys.lookup(&Key::from(k)));
            }
            outcomes.push(sys.request(QueryKind::Complete(Key::from("S3L"))).unwrap());
        }
        (sys, outcomes)
    };
    let (sys_a, out_a) = lossy_run(42);
    let (sys_b, out_b) = lossy_run(42);
    assert_eq!(sys_a.fault_stats(), sys_b.fault_stats());
    assert_eq!(out_a, out_b, "lossy outcomes diverged");
    assert_eq!(fingerprint(&sys_a, &out_a), fingerprint(&sys_b, &out_b));
    // The plan really bit: something was drawn against it.
    let stats = sys_a.fault_stats();
    assert!(
        stats.lost + stats.duplicated + stats.reordered > 0,
        "a 15%/10%/10% plan over this workload must trigger: {stats:?}"
    );
}

#[test]
fn repeated_fingerprints_are_stable_across_many_seeds() {
    for seed in 0..10 {
        let (sys_a, out_a) = scripted_run(seed);
        let (sys_b, out_b) = scripted_run(seed);
        assert_eq!(
            fingerprint(&sys_a, &out_a),
            fingerprint(&sys_b, &out_b),
            "seed {seed}"
        );
    }
}
