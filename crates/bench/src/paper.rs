//! The paper's Section 4: Figures 4–9 and Tables 1–2.

use crate::{write_results, Entry, Opts};
use dlpt_sim::config::ExperimentConfig;
use dlpt_sim::experiments as exp;
use dlpt_sim::report::{ascii_chart, ascii_table, results_dir, write_csv};
use dlpt_sim::runner::run_experiment;

/// Runs the three curves (MLT, KC, NoLB) of a satisfaction figure,
/// writes `<name>.csv` and prints the chart and the steady states.
fn satisfaction_figure(e: &Entry, opts: &Opts, configs: Vec<ExperimentConfig>, title: &str) {
    let configs: Vec<_> = configs
        .into_iter()
        .map(|c| e.shrink(c, opts.scale))
        .collect();
    let mut series = Vec::with_capacity(configs.len());
    for cfg in &configs {
        e.announce(cfg);
        series.push(run_experiment(cfg));
    }
    let labels: Vec<&str> = configs.iter().map(|c| c.lb.label()).collect();
    let cols: Vec<(&str, &[f64])> = labels
        .iter()
        .zip(&series)
        .map(|(l, s)| (*l, s.satisfaction.as_slice()))
        .collect();
    let path = results_dir().join(format!("{}.csv", e.name));
    write_csv(&path, &series[0].time, &cols).expect("write results CSV");
    println!("{}", ascii_chart(title, &cols, Some(100.0), 18, 80));
    for (l, s) in labels.iter().zip(&series) {
        println!(
            "  {l:>5}: steady-state satisfaction {:.1}% ({} runs)",
            s.steady_satisfaction(),
            s.runs
        );
    }
    println!("  CSV: {}", path.display());
}

/// "Load balancing, stable network, no overload".
pub fn fig4(e: &Entry, opts: &Opts) {
    let title = "Figure 4: stable network, low load — % satisfied requests";
    satisfaction_figure(e, opts, exp::fig4_configs(), title);
}

/// "Load balancing, stable network, overload": Figure 4 under a very
/// high request rate.
pub fn fig5(e: &Entry, opts: &Opts) {
    let title = "Figure 5: stable network, high load — % satisfied requests";
    satisfaction_figure(e, opts, exp::fig5_configs(), title);
}

/// "Comparing LB algorithms, dynamic network, no overload".
pub fn fig6(e: &Entry, opts: &Opts) {
    let title = "Figure 6: dynamic network, low load — % satisfied requests";
    satisfaction_figure(e, opts, exp::fig6_configs(), title);
}

/// "Comparing LB algorithms, dynamic network, overload".
pub fn fig7(e: &Entry, opts: &Opts) {
    let title = "Figure 7: dynamic network, high load — % satisfied requests";
    satisfaction_figure(e, opts, exp::fig7_configs(), title);
}

/// "Load balancing, dynamic network, hot spots": uniform traffic, a
/// burst on the S3L library, then on ScaLAPACK's "P" routines, then
/// uniform again.
pub fn fig8(e: &Entry, opts: &Opts) {
    let title = "Figure 8: dynamic network with hot spots (S3L @40, P @80, uniform @120)";
    satisfaction_figure(e, opts, exp::fig8_configs(), title);
}

/// "Reduction of the communication by the lexicographic mapping":
/// logical hops in the tree, physical hops under the original random
/// (DHT/hash) mapping, and physical hops under the paper's
/// lexicographic mapping with MLT.
pub fn fig9(e: &Entry, opts: &Opts) {
    let cfg = e.shrink(exp::fig9_config(), opts.scale);
    e.announce(&cfg);
    let s = run_experiment(&cfg);
    let cols: Vec<(&str, &[f64])> = vec![
        ("logical", s.logical_hops.as_slice()),
        ("physical_random", s.physical_random.as_slice()),
        ("physical_lexico_mlt", s.physical_lexico.as_slice()),
    ];
    let path = results_dir().join("fig9.csv");
    write_csv(&path, &s.time, &cols).expect("write results CSV");
    let title = "Figure 9: communication gain of the lexicographic mapping (hops/request)";
    println!("{}", ascii_chart(title, &cols, None, 18, 80));
    let labels = [
        "logical hops:",
        "physical (random map):",
        "physical (lexico + MLT):",
    ];
    for (label, (_, v)) in labels.iter().zip(&cols) {
        let mean = v.iter().sum::<f64>() / v.len().max(1) as f64;
        println!("  mean {label:<24} {mean:.2}");
    }
    println!("  CSV: {}", path.display());
}

/// "Summary of gains of KC and MLT heuristics": percentage improvement
/// in steady-state satisfied requests over the no-LB baseline (36
/// experiments of 30 runs). The CSV also carries the satisfaction each
/// gain is a ratio of — under load the NoLB denominator is single-digit
/// (DESIGN.md §Deviations).
pub fn table1(e: &Entry, opts: &Opts) {
    let mut rows = Vec::new();
    let mut csv = String::from(
        "load,stable_mlt,stable_kc,dynamic_mlt,dynamic_kc,\
         stable_sat_mlt,stable_sat_kc,stable_sat_nolb,\
         dynamic_sat_mlt,dynamic_sat_kc,dynamic_sat_nolb\n",
    );
    for load in exp::TABLE1_LOADS {
        eprintln!("[table1] load {:.0}%…", load * 100.0);
        let r = exp::table1_row(load, |cfg| e.shrink(cfg, opts.scale));
        let gains = [r.stable_mlt, r.stable_kc, r.dynamic_mlt, r.dynamic_kc];
        csv.push_str(&format!("{:.2}", r.load));
        for v in gains.iter().chain(&r.stable_sat).chain(&r.dynamic_sat) {
            csv.push_str(&format!(",{v:.2}"));
        }
        csv.push('\n');
        let mut row = vec![format!("{:.0}%", r.load * 100.0)];
        row.extend(gains.iter().map(|g| format!("{g:+.2}%")));
        rows.push(row);
    }
    println!("Table 1: gains of MLT and KC over no load balancing");
    let headers = [
        "Load",
        "Stable MLT",
        "Stable KC",
        "Dynamic MLT",
        "Dynamic KC",
    ];
    println!("{}", ascii_table(&headers, &rows));
    write_results("table1.csv", &csv);
}

/// "Complexities of close trie-structured approaches", measured on an
/// identical corpus instead of transcribed: routing = mean physical
/// hops per exact lookup, state = mean references per peer, the
/// paper's asymptotic claims alongside.
pub fn table2(_: &Entry, opts: &Opts) {
    let (peers, keys, lookups) = (
        100 / opts.scale.min(4),
        1000 / opts.scale,
        2000 / opts.scale,
    );
    eprintln!("[table2] {peers} peers, {keys} keys, {lookups} lookups per system…");
    let mut table = Vec::new();
    let mut csv = String::from("system,routing_hops,logical_levels,local_state\n");
    for r in exp::table2_measure(peers, keys, lookups, 0xD1B2) {
        let measured = [r.routing_hops, r.logical_levels, r.local_state].map(|v| format!("{v:.2}"));
        csv.push_str(&format!("{},{}\n", r.system, measured.join(",")));
        let mut row = vec![r.system.to_string()];
        row.extend(measured);
        row.extend([r.theory_routing.to_string(), r.theory_state.to_string()]);
        table.push(row);
    }
    println!("Table 2: measured complexities of trie-structured approaches");
    let headers = [
        "System",
        "Routing hops",
        "Logical levels",
        "State/peer",
        "Theory (routing)",
        "Theory (state)",
    ];
    println!("{}", ascii_table(&headers, &table));
    write_results("table2.csv", &csv);
}
