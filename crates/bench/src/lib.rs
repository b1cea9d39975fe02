//! Shared harness for the experiment binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see `EXPERIMENTS.md` for the index).  This library
//! holds the common plumbing: standing up a runtime over a cluster +
//! trace, running an all-vs-all, rendering ASCII charts of the
//! availability/utilization series, and writing results files.

use bioopera_cluster::{Cluster, SimTime, Trace};
use bioopera_core::{Driver, Runtime, RuntimeConfig, SeriesRollup, SeriesSample};
use bioopera_store::MemDisk;
use bioopera_workloads::allvsall::AllVsAllSetup;
use std::path::PathBuf;

/// Outcome of one experiment run.
pub struct RunOutcome {
    /// The runtime after completion (for stats/series/history queries).
    pub runtime: Runtime<MemDisk>,
    /// The instance that ran.
    pub instance: bioopera_core::InstanceId,
}

/// Stand up a runtime, register the all-vs-all templates, install `trace`,
/// submit and run to completion.
pub fn run_allvsall(
    setup: &AllVsAllSetup,
    cluster: Cluster,
    trace: &Trace,
    heartbeat: SimTime,
) -> RunOutcome {
    let cfg = RuntimeConfig {
        heartbeat,
        ..Default::default()
    };
    let mut rt = Runtime::new(MemDisk::new(), cluster, setup.library.clone(), cfg)
        .expect("runtime construction");
    rt.register_template(&setup.chunk_template)
        .expect("chunk template");
    rt.register_template(&setup.template).expect("top template");
    rt.install_trace(trace);
    let instance = rt.submit("AllVsAll", setup.initial()).expect("submit");
    rt.run_to_completion().expect("run to completion");
    RunOutcome {
        runtime: rt,
        instance,
    }
}

/// Render the Figures 5/6 style chart: availability (`#`) as the envelope,
/// utilization (`*`) inside it, x = days, y = processors.
pub fn ascii_lifecycle(series: &[SeriesSample], width: usize, height: usize) -> String {
    if series.is_empty() {
        return "(no samples)".to_string();
    }
    let t_max = series.last().unwrap().at.as_days_f64().max(0.001);
    let y_max = series
        .iter()
        .map(|s| s.availability as f64)
        .fold(1.0f64, f64::max);
    let mut grid = vec![vec![' '; width]; height];
    // One chart column per rollup bin: the shared awareness-layer rollup
    // performs exactly the aggregation (bucket mean, carry-forward fill)
    // these charts have always used.
    let rollup = SeriesRollup::over_days(series, t_max, width);
    for (col, bin) in rollup.bins().iter().enumerate() {
        let a_rows = ((bin.availability / y_max) * (height as f64 - 1.0)).round() as usize;
        let u_rows = ((bin.utilization / y_max) * (height as f64 - 1.0)).round() as usize;
        for (row, grid_row) in grid.iter_mut().enumerate() {
            let y = height - 1 - row; // row 0 at top
            if y <= u_rows {
                grid_row[col] = '*';
            } else if y <= a_rows {
                grid_row[col] = '#';
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "processors (y: 0..{y_max:.0})  '#' available  '*' computing BioOpera jobs\n"
    ));
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(" 0 days {:>w$.1} days\n", t_max, w = width - 8));
    out
}

/// Render a two-series log-x chart for Figure 4 (CPU and WALL vs #TEUs).
pub fn ascii_fig4(rows: &[(usize, f64, f64)], width: usize, height: usize) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let x_min = (rows[0].0 as f64).ln();
    let x_max = (rows.last().unwrap().0 as f64).ln().max(x_min + 1e-9);
    let y_max = rows.iter().map(|r| r.1.max(r.2)).fold(0.0f64, f64::max) * 1.05;
    let mut grid = vec![vec![' '; width]; height];
    let mut plot = |x: f64, y: f64, c: char| {
        let col = (((x.ln() - x_min) / (x_max - x_min)) * (width as f64 - 1.0)).round() as usize;
        let row = height - 1 - ((y / y_max) * (height as f64 - 1.0)).round() as usize;
        let col = col.min(width - 1);
        let row = row.min(height - 1);
        if grid[row][col] == ' ' || grid[row][col] == c {
            grid[row][col] = c;
        } else {
            grid[row][col] = '@'; // overlap
        }
    };
    for &(n, cpu, wall) in rows {
        plot(n as f64, cpu, 'C');
        plot(n as f64, wall, 'W');
    }
    let mut out = String::new();
    out.push_str(&format!(
        "seconds (y: 0..{y_max:.0})  'C' CPU  'W' WALL  '@' overlap  (x: #TEUs, log scale)\n"
    ));
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        " {:<8} {:>w$}\n",
        rows[0].0,
        rows.last().unwrap().0,
        w = width - 8
    ));
    out
}

/// Where results files go.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("BIOOPERA_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Write a results file (also echoed by the caller to stdout).
pub fn write_results(name: &str, content: &str) {
    let path = results_dir().join(name);
    std::fs::write(&path, content).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("[saved {}]", path.display());
}

/// Format a day-scale `SimTime` like the paper's Table 1 cells.
pub fn fmt_days(t: SimTime) -> String {
    t.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_lifecycle_renders_envelope() {
        let series: Vec<SeriesSample> = (0..100)
            .map(|i| SeriesSample {
                at: SimTime::from_hours(i * 12),
                availability: 10,
                utilization: if i % 2 == 0 { 5.0 } else { 8.0 },
            })
            .collect();
        let chart = ascii_lifecycle(&series, 60, 10);
        assert!(chart.contains('#'));
        assert!(chart.contains('*'));
        assert!(chart.lines().count() >= 10);
    }

    #[test]
    fn ascii_fig4_renders_both_series() {
        let rows = vec![
            (1usize, 2500.0, 2500.0),
            (25, 2600.0, 700.0),
            (500, 5200.0, 1500.0),
        ];
        let chart = ascii_fig4(&rows, 60, 12);
        assert!(chart.contains('C'));
        assert!(chart.contains('W'));
    }
}
