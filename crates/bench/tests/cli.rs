//! The command line of the one reproduction binary: what it rejects,
//! what `list` says, and that `all` is nothing but its eight entries.

use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const PAPER: [&str; 8] = [
    "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table1", "table2",
];

fn bench(args: &[&str], results: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dlpt-bench"))
        .args(args)
        .env("DLPT_RESULTS_DIR", results)
        .output()
        .expect("dlpt-bench runs")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dlpt-bench-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_bad_command_line_exits_2_with_the_entrys_usage_line() {
    let nowhere = scratch("usage");
    let fig4 = "usage: dlpt-bench fig4 [--scale N]\n";
    let pump = "usage: dlpt-bench pump_fingerprint [--seed N] [--workers N] [--requests N]\n";
    for (args, usage) in [
        (&["fig44"][..], "usage: dlpt-bench <name>"),
        (&["--scale", "8"], "usage: dlpt-bench <name>"),
        (&["fig4", "--trace", "x"], fig4),
        (&["fig4", "--scale"], fig4),
        (&["pump_fingerprint", "--workers", "x"], pump),
        (&["pump_fingerprint", "--scale", "2"], pump),
        // Every named entry must read every flag given.
        (
            &["figA", "figC", "--trace", "x"],
            "usage: dlpt-bench figC [--scale N] [--health PATH]\n",
        ),
    ] {
        let out = bench(args, &nowhere);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(usage), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed results");
    }
    assert!(!nowhere.exists(), "a rejected command line ran something");
}

#[test]
fn list_names_every_entry_and_experiments_md_quotes_it() {
    let out = bench(&["list"], &scratch("list"));
    assert!(out.status.success());
    let list = String::from_utf8(out.stdout).expect("utf-8");
    let names: Vec<&str> = list
        .lines()
        .filter_map(|l| l.split(' ').next().filter(|n| !n.is_empty()))
        .collect();
    let mut expected = PAPER.to_vec();
    expected.extend(["figR", "figC", "figA", "ablation", "footprint"]);
    expected.extend(["pump_fingerprint", "all", "list"]);
    assert_eq!(names, expected);
    let doc = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(doc).expect("EXPERIMENTS.md");
    assert!(
        doc.contains(&format!("```\n{list}```")),
        "EXPERIMENTS.md's entry block must be `dlpt-bench list`, verbatim"
    );
}

#[test]
fn all_writes_exactly_the_eight_paper_csvs_each_as_the_entry_alone_does() {
    let (together, alone) = (scratch("all"), scratch("alone"));
    assert!(bench(&["all", "--scale", "8"], &together).status.success());
    let mut written: Vec<_> = std::fs::read_dir(&together)
        .expect("all wrote its results directory")
        .map(|f| f.expect("dir entry").file_name())
        .collect();
    written.sort();
    let mut expected: Vec<OsString> = PAPER.iter().map(|n| format!("{n}.csv").into()).collect();
    expected.sort();
    assert_eq!(written, expected);
    for name in PAPER {
        assert!(bench(&[name, "--scale", "8"], &alone).status.success());
        let file = format!("{name}.csv");
        assert_eq!(
            std::fs::read(together.join(&file)).expect("written by all"),
            std::fs::read(alone.join(&file)).expect("written alone"),
            "{file}"
        );
    }
    // `--scale` keeps fig8's hot-spot timeline and lets fig4's shrink.
    let units = |name: &str| {
        std::fs::read_to_string(alone.join(name))
            .expect("csv")
            .lines()
            .count()
            - 1
    };
    assert_eq!((units("fig8.csv"), units("fig4.csv")), (160, 10));
    for dir in [together, alone] {
        std::fs::remove_dir_all(dir).expect("clean up");
    }
}
