//! Trace determinism: the observability subsystem's exported event
//! stream is a pure function of `(config, seed, operation sequence)` —
//! the batch pump included, whose commit phase emits in request order
//! whatever the worker count. Two identical traced runs must serialize
//! to byte-identical JSONL and chrome://tracing dumps, which is what
//! lets CI diff two seeded `figA --scale 8 --trace` runs.

use dlpt::core::messages::QueryKind;
use dlpt::core::obs::{write_chrome_trace, write_jsonl};
use dlpt::core::{Alphabet, DlptSystem, EventKind, Key, TraceEvent};
use std::collections::BTreeMap;

const KEYS: [&str; 10] = [
    "DGEMM", "DGEMV", "DTRSM", "SGEMM", "SGEMV", "S3L_fft", "S3L_sort", "PSGESV", "PDGEMM", "CAXPY",
];

/// One traced workload: sequential requests, then a 3-worker batch, so
/// the stream crosses both the dispatch and the commit emission sites.
fn traced_run(seed: u64) -> Vec<TraceEvent> {
    let mut sys = DlptSystem::builder()
        .alphabet(Alphabet::grid())
        .seed(seed)
        .peer_id_len(12)
        .bootstrap_peers(8)
        .build();
    for k in &KEYS {
        sys.insert_data(*k).unwrap();
    }
    sys.set_tracing(1 << 12);
    for k in ["DGEMM", "S3L_fft", "MISSING"] {
        sys.lookup(&Key::from(k));
    }
    sys.request(QueryKind::Complete(Key::from("S3L"))).unwrap();
    let queries: Vec<QueryKind> = KEYS
        .iter()
        .map(|k| QueryKind::Exact(Key::from(*k)))
        .collect();
    sys.discover_batch(queries, 3).expect("parallel batch");
    sys.take_trace()
}

#[test]
fn traced_runs_serialize_byte_identically_across_repeats() {
    let a = traced_run(42);
    let b = traced_run(42);
    assert!(!a.is_empty(), "the traced workload must capture events");
    assert_eq!(a, b, "event streams diverged across identical runs");

    let dump = |events: &[TraceEvent]| {
        let mut jsonl = Vec::new();
        write_jsonl(events, &mut jsonl).unwrap();
        let mut chrome = Vec::new();
        write_chrome_trace(events, &mut chrome).unwrap();
        (jsonl, chrome)
    };
    let (jsonl_a, chrome_a) = dump(&a);
    let (jsonl_b, chrome_b) = dump(&b);
    assert_eq!(jsonl_a, jsonl_b, "JSONL dumps diverged");
    assert_eq!(chrome_a, chrome_b, "chrome trace dumps diverged");
    assert!(jsonl_a.ends_with(b"\n"), "JSONL must be newline-terminated");
}

/// Each request's routing story — its `hop` / `drop` / `branch_*` /
/// `satisfy` / `fail` events in emission order, minus the ring's `seq`
/// stamp.
type Stories = BTreeMap<u32, Vec<(EventKind, u32, u32, u16, u8)>>;

fn stories(events: &[TraceEvent]) -> Stories {
    use EventKind::*;
    let mut by_request = Stories::new();
    for e in events {
        if matches!(
            e.kind,
            Hop | Drop | BranchOpen | BranchClose | Satisfy | Fail
        ) {
            let story = by_request.entry(e.request).or_default();
            story.push((e.kind, e.a, e.b, e.depth, e.flags));
        }
    }
    by_request
}

/// The commit replays a batch in request order, so each request's
/// story equals the one the sequential `request` loop tells on a twin
/// system — refusals under capacity pressure and gather fan-outs
/// included — at every worker count.
#[test]
fn batch_stories_equal_the_sequential_twins_request_by_request() {
    let build = || {
        let mut sys = DlptSystem::builder()
            .alphabet(Alphabet::grid())
            .seed(42)
            .peer_id_len(12)
            .default_capacity(12)
            .bootstrap_peers(8)
            .build();
        for k in &KEYS {
            sys.insert_data(*k).unwrap();
        }
        sys.end_time_unit();
        sys.set_tracing(1 << 14);
        sys
    };
    let queries = || {
        let mut qs: Vec<QueryKind> = KEYS
            .iter()
            .cycle()
            .take(30)
            .map(|k| QueryKind::Exact(Key::from(*k)))
            .collect();
        qs.insert(3, QueryKind::Complete(Key::from("S3L")));
        qs.insert(9, QueryKind::range(Key::from("D"), Key::from("Q")));
        qs.push(QueryKind::Exact(Key::from("MISSING")));
        qs
    };
    let mut twin = build();
    for q in queries() {
        twin.request(q).unwrap();
    }
    let want = stories(&twin.take_trace());
    let kinds = |k: EventKind| want.values().flatten().filter(|e| e.0 == k).count();
    assert!(kinds(EventKind::Drop) > 0, "capacity 12 must refuse visits");
    assert!(kinds(EventKind::BranchOpen) > 0 && kinds(EventKind::Satisfy) > 0);
    for workers in [1, 2, 3, 8] {
        let mut sys = build();
        sys.discover_batch(queries(), workers).unwrap();
        assert_eq!(want, stories(&sys.take_trace()), "workers={workers}");
    }
}

#[test]
fn take_trace_drains_the_ring() {
    let mut sys = DlptSystem::builder()
        .alphabet(Alphabet::grid())
        .seed(7)
        .peer_id_len(12)
        .bootstrap_peers(4)
        .build();
    sys.insert_data("DGEMM").unwrap();
    sys.set_tracing(64);
    sys.lookup(&Key::from("DGEMM"));
    let first = sys.take_trace();
    assert!(!first.is_empty());
    assert!(
        sys.take_trace().is_empty(),
        "a second drain without new work must be empty"
    );
    // The seq counter keeps climbing across drains: a later event can
    // never collide with (or sort before) an already-drained one.
    sys.lookup(&Key::from("DGEMM"));
    let second = sys.take_trace();
    let max_first = first.iter().map(|e| e.seq).max().unwrap();
    assert!(
        second.iter().all(|e| e.seq > max_first),
        "post-drain events must continue the sequence, not restart it"
    );
}
