//! Output: CSV series and ASCII charts.
//!
//! The reproduction binary (`dlpt-bench`) regenerates the paper's
//! figures as CSV files under `results/` plus an ASCII rendering on
//! stdout, so the shapes can be inspected without any plotting stack.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Creates (if needed) and returns the results directory.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var_os("DLPT_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    fs::create_dir_all(&dir).expect("results directory must be creatable");
    dir
}

/// Writes a CSV file: `time` column plus one column per series.
pub fn write_csv(path: &Path, time: &[u32], series: &[(&str, &[f64])]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(fs::File::create(path)?);
    write!(f, "time")?;
    for (name, _) in series {
        write!(f, ",{name}")?;
    }
    writeln!(f)?;
    for (i, t) in time.iter().enumerate() {
        write!(f, "{t}")?;
        for (_, vals) in series {
            match vals.get(i) {
                Some(v) => write!(f, ",{v:.4}")?,
                None => write!(f, ",")?,
            }
        }
        writeln!(f)?;
    }
    f.flush()
}

/// Renders a fixed-size ASCII line chart of several series.
///
/// `y_max = None` auto-scales; pass `Some(100.0)` for satisfaction
/// percentages so figures stay visually comparable.
// The row written per bucket depends on the sampled value, so the
// column index is genuinely needed.
#[allow(clippy::needless_range_loop)]
pub fn ascii_chart(
    title: &str,
    series: &[(&str, &[f64])],
    y_max: Option<f64>,
    height: usize,
    width: usize,
) -> String {
    const MARKS: [char; 6] = ['*', '+', 'o', 'x', '#', '@'];
    let height = height.max(4);
    let width = width.max(10);
    let n = series.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    if n == 0 {
        return format!("{title}\n(empty)\n");
    }
    let max = y_max.unwrap_or_else(|| {
        series
            .iter()
            .flat_map(|(_, v)| v.iter().copied())
            .fold(1e-9_f64, f64::max)
            * 1.05
    });
    // Downsample each series into `width` buckets (bucket mean).
    let bucket = |vals: &[f64], b: usize| -> Option<f64> {
        let lo = b * n / width;
        let hi = (((b + 1) * n) / width).max(lo + 1).min(n);
        if lo >= n {
            return None;
        }
        let slice = &vals[lo..hi.min(vals.len()).max(lo)];
        if slice.is_empty() {
            None
        } else {
            Some(slice.iter().sum::<f64>() / slice.len() as f64)
        }
    };
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, vals)) in series.iter().enumerate() {
        let mark = MARKS[si % MARKS.len()];
        for b in 0..width {
            if let Some(v) = bucket(vals, b) {
                let row = ((v / max) * (height - 1) as f64).round() as usize;
                let row = (height - 1).saturating_sub(row.min(height - 1));
                grid[row][b] = mark;
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{max:7.1} |")
        } else if i == height - 1 {
            format!("{:7.1} |", 0.0)
        } else {
            "        |".to_string()
        };
        let line: String = row.iter().collect();
        let _ = writeln!(out, "{label}{line}");
    }
    let _ = writeln!(out, "        +{}", "-".repeat(width));
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (name, _))| format!("{} {name}", MARKS[i % MARKS.len()]))
        .collect();
    let _ = writeln!(out, "         {}", legend.join("   "));
    out
}

/// Formats a table for stdout: headers plus rows of cells.
pub fn ascii_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let _ = writeln!(out, "{}", fmt_row(&header_cells, &widths));
    let _ = writeln!(
        out,
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        let _ = writeln!(out, "{}", fmt_row(row, &widths));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip_shape() {
        let dir = std::env::temp_dir().join("dlpt-sim-test-csv");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let time: Vec<u32> = (0..5).collect();
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [10.0, 20.0, 30.0, 40.0, 50.0];
        write_csv(&path, &time, &[("A", &a), ("B", &b)]).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "time,A,B");
        assert_eq!(lines.len(), 6);
        assert!(lines[1].starts_with("0,1.0000,10.0000"));
    }

    #[test]
    fn chart_contains_marks_and_legend() {
        let a: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..50).map(|i| 50.0 - i as f64).collect();
        let chart = ascii_chart("test", &[("up", &a), ("down", &b)], None, 10, 40);
        assert!(chart.contains('*'));
        assert!(chart.contains('+'));
        assert!(chart.contains("up"));
        assert!(chart.contains("down"));
        assert!(chart.lines().count() > 10);
    }

    #[test]
    fn chart_handles_empty_and_constant() {
        let empty = ascii_chart("e", &[("x", &[])], None, 8, 20);
        assert!(empty.contains("(empty)"));
        let c = [5.0; 10];
        let chart = ascii_chart("c", &[("flat", &c)], Some(100.0), 8, 20);
        assert!(chart.contains('*'));
    }

    #[test]
    fn table_alignment() {
        let t = ascii_table(
            &["sys", "hops"],
            &[
                vec!["DLPT".into(), "2.10".into()],
                vec!["PHT".into(), "18.00".into()],
            ],
        );
        assert!(t.contains("DLPT"));
        assert!(t.contains("18.00"));
    }
}
