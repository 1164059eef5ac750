//! Tests that tie the benchmark to the files around it: the metric
//! tables in `BENCHMARK.json`, the root build profile, and `run_once`.

use crate::harness::Rec;
use crate::replica::run_once_traced;
use crate::spans::SpanBuf;
use crate::{layers, sim, END_TO_END};
use dlpt_sim::run::run_once;
use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The string values of `key` in every object of the JSON array named
/// `array` — enough of a parser for the flat tables of `BENCHMARK.json`.
fn column(json: &str, array: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{array}\"")).expect("array present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let needle = format!("\"{key}\":");
    body.match_indices(&needle)
        .map(|(i, _)| {
            let rest = body[i + needle.len()..].trim_start();
            let rest = rest.strip_prefix('"').expect("string value");
            rest[..rest.find('"').expect("string closes")].to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_metrics_the_binary_prints() {
    let json = read("../BENCHMARK.json");
    let strs = |v: Vec<&str>| v.into_iter().map(String::from).collect::<Vec<_>>();
    assert_eq!(
        column(&json, "workloads", "name"),
        strs(layers::WORKLOADS.to_vec())
    );
    assert_eq!(
        column(&json, "end_to_end", "name"),
        strs(END_TO_END.iter().map(|(n, _)| *n).collect())
    );
    assert_eq!(
        column(&json, "end_to_end", "unit"),
        strs(END_TO_END.iter().map(|(_, u)| *u).collect())
    );
    for (key, pick) in [("name", 0), ("unit", 1), ("better", 2)] {
        let want = layers::ROWS.iter().map(|r| [r.0, r.1, r.2][pick]).collect();
        assert_eq!(
            column(&json, "per_layer", key),
            strs(want),
            "per_layer {key}"
        );
    }
}

/// `lto` and `codegen-units` of a manifest's `[profile.release]`.
fn release_profile(manifest: &str) -> (Option<String>, Option<String>) {
    let section = manifest
        .split("[profile.release]")
        .nth(1)
        .expect("a [profile.release] table");
    let section = section.split("\n[").next().expect("split yields a head");
    let value = |key: &str| {
        section.lines().find_map(|l| {
            let (k, v) = l.split_once('=')?;
            (k.trim() == key).then(|| v.trim().to_string())
        })
    };
    (value("lto"), value("codegen-units"))
}

#[test]
fn release_profile_matches_the_root_workspace() {
    let (root, own) = (read("../Cargo.toml"), read("Cargo.toml"));
    let root = release_profile(&root);
    assert!(root.0.is_some() && root.1.is_some(), "root sets both knobs");
    assert_eq!(
        release_profile(&own),
        root,
        "the benchmark must measure the same optimisation level as the tier-1 build"
    );
}

#[test]
fn replica_loop_equals_run_once_on_all_seven_configs() {
    let mut configs = sim::paper_configs(1);
    configs.extend(sim::extension_configs(1));
    assert_eq!(configs.len(), 7);
    let mut spans = SpanBuf::with_capacity(1 << 16);
    for sc in &configs {
        for run_idx in [0usize, 1] {
            spans.clear();
            let units = run_once_traced(&sc.cfg, run_idx, &mut spans);
            assert_eq!(
                units,
                run_once(&sc.cfg, run_idx).units,
                "{} run {run_idx}: the replica drifted from run_once",
                sc.tag
            );
            assert!(
                sim::check_run(&mut Rec::default(), sc, &units),
                "{} run {run_idx} breaks an invariant its config promises",
                sc.tag
            );
        }
    }
}
