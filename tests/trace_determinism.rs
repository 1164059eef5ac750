//! Trace determinism: the observability subsystem's exported event
//! stream is a pure function of `(config, seed, operation sequence)`.
//! Two identical traced runs must serialize
//! to byte-identical JSONL and chrome://tracing dumps, which is what
//! lets CI diff two seeded `figA --scale 8 --trace` runs.

use dlpt::core::messages::QueryKind;
use dlpt::core::obs::{write_chrome_trace, write_jsonl};
use dlpt::core::{Alphabet, DlptSystem, Key, TraceEvent};

const KEYS: [&str; 10] = [
    "DGEMM", "DGEMV", "DTRSM", "SGEMM", "SGEMV", "S3L_fft", "S3L_sort", "PSGESV", "PDGEMM", "CAXPY",
];

/// One traced workload: exact lookups (one of them a miss) and a
/// completion.
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
