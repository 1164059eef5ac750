//! The paper's orderings, asserted at paper scale on the committed
//! `results/*.csv` (`dlpt-bench all`, no `--scale`; CI regenerates them
//! and diffs byte for byte, so a green run of this test is a statement
//! about the code, not about a stale file).

/// A results CSV as rows of text cells, header first.
fn csv(name: &str) -> Vec<Vec<String>> {
    let path = format!("{}/results/{name}.csv", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let cells = |l: &str| l.split(',').map(str::to_string).collect();
    text.lines().map(cells).collect()
}

/// The numeric column `col` of a results CSV.
fn column(name: &str, col: &str) -> Vec<f64> {
    let rows = csv(name);
    let i = rows[0].iter().position(|h| h == col);
    let i = i.unwrap_or_else(|| panic!("{name}.csv has no column {col}"));
    let cell = |r: &Vec<String>| r[i].parse().expect("numeric cell");
    rows[1..].iter().map(cell).collect()
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

#[test]
fn the_committed_paper_scale_results_keep_the_papers_orderings() {
    // Figures 4–8: MLT > KC > NoLB in the steady state ("the first 10
    // units correspond to the period where the prefix tree is growing").
    for (fig, units) in [
        ("fig4", 50),
        ("fig5", 50),
        ("fig6", 50),
        ("fig7", 50),
        ("fig8", 160),
    ] {
        assert_eq!(
            column(fig, "MLT").len(),
            units,
            "{fig} is not at paper scale"
        );
        let [mlt, kc, nolb] = ["MLT", "KC", "NoLB"].map(|c| mean(&column(fig, c)[10..]));
        assert!(
            mlt > kc && kc > nolb,
            "{fig}: {mlt:.1} / {kc:.1} / {nolb:.1}"
        );
    }

    // Figure 9: lexicographic mapping + MLT < random mapping < logical.
    let [lexico, random, logical] =
        ["physical_lexico_mlt", "physical_random", "logical"].map(|c| mean(&column("fig9", c)));
    assert!(
        lexico < random && random < logical,
        "{lexico:.2} / {random:.2} / {logical:.2}"
    );

    // Table 1: every gain positive; stable MLT's grows with load. What
    // makes it triple-digit is beside it: the No-LB denominator falls to
    // single digits under load while MLT stays a few points ahead.
    for gain in ["stable_mlt", "stable_kc", "dynamic_mlt", "dynamic_kc"] {
        let g = column("table1", gain);
        assert!(g.len() == 6 && g.iter().all(|g| *g > 0.0), "{gain}: {g:?}");
    }
    let gains = column("table1", "stable_mlt");
    assert!(gains.windows(2).all(|w| w[1] > w[0]), "{gains:?}");
    let (mlt, nolb) = (
        column("table1", "stable_sat_mlt")[5],
        column("table1", "stable_sat_nolb")[5],
    );
    assert!(nolb < 10.0 && mlt > nolb, "{mlt} vs {nolb} at 80% load");

    // Table 2: DLPT < P-Grid < PHT in routing hops.
    let rows = csv("table2");
    let hops = |system: &str| -> f64 {
        let row = rows.iter().find(|r| r[0] == system).expect("system row");
        row[1].parse().expect("routing_hops")
    };
    let (dlpt, pgrid, pht) = (hops("DLPT"), hops("P-Grid"), hops("PHT"));
    assert!(dlpt < pgrid && pgrid < pht, "{dlpt} / {pgrid} / {pht}");
}
