//! Shared harness for the figure/table regeneration binaries.
//!
//! Every table and figure in the paper's evaluation has a matching
//! binary in `src/bin/` (`fig04_training_timeseries`,
//! `tab04_production_stats`, …) that prints the rows/series the paper
//! reports. See `EXPERIMENTS.md` at the workspace root for the full
//! index and the recorded paper-vs-measured values; the timing
//! benchmark is `perfbench/` (`BENCHMARK.json`).
//!
//! Binaries honor these environment variables:
//!
//! * `POLCA_DAYS` — trace length in days for the POLCA evaluation
//!   figures (defaults vary per figure; Figure 16–18 default to the
//!   paper's six weeks when unset *and* `POLCA_FULL=1`, else one week),
//! * `POLCA_SEED` — experiment seed (default 17).

use std::io;
use std::path::{Path, PathBuf};

use polca_stats::TimeSeries;

/// Reads an `f64` environment knob with a default.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads a `u64` environment knob with a default.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The evaluation trace length in days: `POLCA_DAYS` if set, else the
/// paper's six weeks under `POLCA_FULL=1`, else `quick_default`.
pub fn eval_days(quick_default: f64) -> f64 {
    if let Ok(v) = std::env::var("POLCA_DAYS") {
        if let Ok(days) = v.parse() {
            return days;
        }
    }
    if std::env::var("POLCA_FULL").is_ok_and(|v| v == "1") {
        42.0
    } else {
        quick_default
    }
}

/// The experiment seed (`POLCA_SEED`, default 17).
pub fn seed() -> u64 {
    env_u64("POLCA_SEED", 17)
}

/// Prints a header line for a figure/table binary.
pub fn header(id: &str, caption: &str) {
    println!("== {id}: {caption} ==");
}

/// Renders a small ASCII sparkline of a timeseries (for power traces in
/// terminal output).
pub fn sparkline(ts: &TimeSeries, width: usize) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if ts.is_empty() || width == 0 {
        return String::new();
    }
    let (lo, hi) = (ts.trough().unwrap_or(0.0), ts.peak().unwrap_or(1.0));
    let span = (hi - lo).max(f64::EPSILON);
    let values = ts.values();
    let chunk = (values.len() as f64 / width as f64).max(1.0);
    (0..width.min(values.len()))
        .map(|i| {
            let start = (i as f64 * chunk) as usize;
            let end = (((i + 1) as f64 * chunk) as usize)
                .min(values.len())
                .max(start + 1);
            let mean: f64 = values[start..end].iter().sum::<f64>() / (end - start) as f64;
            let idx = ((mean - lo) / span * 7.0).round() as usize;
            GLYPHS[idx.min(7)]
        })
        .collect()
}

/// Formats a fraction as a percent string with one decimal.
pub fn pct(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}

/// Parses `--obs-out DIR` from the process arguments (also accepts
/// `--obs-out=DIR` and the `POLCA_OBS_OUT` environment variable).
///
/// Figure binaries that support artifact emission call this once and,
/// when it returns a directory, save their printed tables/series there
/// alongside the recorder's own artifact files.
pub fn obs_out_arg() -> Option<PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--obs-out" {
            return args.next().map(PathBuf::from);
        }
        if let Some(dir) = arg.strip_prefix("--obs-out=") {
            return Some(PathBuf::from(dir));
        }
    }
    std::env::var_os("POLCA_OBS_OUT").map(PathBuf::from)
}

/// The shared table writer for the figure/table binaries.
///
/// Collects labelled rows once, then renders them twice: an aligned
/// text table on stdout (first column left-aligned, the rest
/// right-aligned) and, on request, the same rows as CSV via the obs
/// exporter — so every binary prints and saves through one code path
/// instead of hand-rolling `println!` widths.
#[derive(Debug, Clone)]
pub struct Table {
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(columns: &[&str]) -> Self {
        Table {
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; missing cells render empty, extras are kept.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Prints the aligned text table to stdout.
    pub fn print(&self) {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.columns.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        for row in [&self.columns].into_iter().chain(self.rows.iter()) {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let render = |row: &[String]| {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = w.saturating_sub(cell.chars().count());
                if i == 0 {
                    line.push_str(cell);
                    line.push_str(&" ".repeat(pad));
                } else {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(cell);
                }
            }
            println!("{}", line.trim_end());
        };
        render(&self.columns);
        for row in &self.rows {
            render(row);
        }
    }

    /// The table as CSV (header plus rows), via the obs exporter.
    pub fn csv(&self) -> String {
        let cols: Vec<&str> = self.columns.iter().map(String::as_str).collect();
        polca_obs::export::csv_table(&cols, &self.rows)
    }

    /// Writes the CSV rendering to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.csv())
    }
}

/// Saves a timeseries as a two-column CSV (`t_name,v_name`), creating
/// parent directories.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_series_csv(path: &Path, t_name: &str, v_name: &str, ts: &TimeSeries) -> io::Result<()> {
    let rows: Vec<Vec<String>> = ts
        .times()
        .iter()
        .zip(ts.values())
        .map(|(t, v)| vec![format!("{t}"), format!("{v}")])
        .collect();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, polca_obs::export::csv_table(&[t_name, v_name], &rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_readers_fall_back_to_defaults() {
        assert_eq!(env_f64("POLCA_DOES_NOT_EXIST", 3.5), 3.5);
        assert_eq!(env_u64("POLCA_DOES_NOT_EXIST", 7), 7);
    }

    #[test]
    fn sparkline_has_requested_width() {
        let ts: TimeSeries = (0..100).map(|i| (i as f64, (i as f64).sin())).collect();
        let s = sparkline(&ts, 20);
        assert_eq!(s.chars().count(), 20);
    }

    #[test]
    fn sparkline_of_empty_series_is_empty() {
        assert_eq!(sparkline(&TimeSeries::new(), 10), "");
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.305), "30.5%");
    }

    #[test]
    fn table_renders_csv_through_obs_exporter() {
        let mut t = Table::new(&["policy", "brakes"]);
        t.row(vec!["POLCA".into(), "0".into()]);
        t.row(vec!["No-cap".into(), "12".into()]);
        assert_eq!(t.csv(), "policy,brakes\nPOLCA,0\nNo-cap,12\n");
    }

    #[test]
    fn series_csv_round_trips_points() {
        let ts: TimeSeries = [(0.0, 1.0), (2.0, 3.5)].into_iter().collect();
        let path =
            std::env::temp_dir().join(format!("polca-bench-series-{}.csv", std::process::id()));
        save_series_csv(&path, "t_s", "watts", &ts).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "t_s,watts\n0,1\n2,3.5\n");
        std::fs::remove_file(&path).unwrap();
    }
}
