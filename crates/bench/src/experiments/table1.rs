//! Table 1 — cost breakdown of the paused state for Light/Medium/High web
//! workloads, 20 ms epochs, **no optimisations** (the unmodified
//! Remus + VMI-scan pipeline).

use std::path::Path;

use crimes_checkpoint::{OptLevel, Phase};
use crimes_workloads::WebIntensity;

use crate::runtime::{run_web, RunStats};
use crate::text::{ms, TextTable};

/// One row of Table 1.
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    /// Workload intensity.
    pub intensity: WebIntensity,
    /// The run's statistics (phase means are the table's cells).
    pub stats: RunStats,
}

/// The regenerated table.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Rows in Light/Medium/High order.
    pub rows: Vec<Table1Row>,
}

/// Epoch interval used by the paper for this table.
pub const INTERVAL_MS: u64 = 20;

/// Run the experiment.
///
/// # Panics
///
/// Panics if `epochs` is zero or the guest faults (it cannot with the
/// bundled workloads).
pub fn run(epochs: u32) -> Table1 {
    let rows = WebIntensity::ALL
        .iter()
        .map(|&intensity| Table1Row {
            intensity,
            stats: run_web(intensity, OptLevel::NoOpt, INTERVAL_MS, epochs, 42)
                .expect("web workload cannot fault"),
        })
        .collect();
    Table1 { rows }
}

impl Table1 {
    /// Render as the paper's table (values in milliseconds).
    pub fn to_table(&self) -> TextTable {
        let phases = Phase::ALL.map(Phase::label);
        let mut t = TextTable::new(
            ["Workload (ms)"]
                .into_iter()
                .chain(phases)
                .chain(["total", "dirty pages"]),
        );
        for row in &self.rows {
            let s = &row.stats;
            t.row(
                [row.intensity.label().to_owned()]
                    .into_iter()
                    .chain(s.pause_mean.map(ms))
                    .chain([
                        ms(s.pause_total_mean()),
                        format!("{:.0}", s.dirty_pages_mean),
                    ]),
            );
        }
        t
    }

    /// Render + persist CSV under `out_dir`.
    pub fn render(&self, out_dir: Option<&Path>) -> String {
        let t = self.to_table();
        if let Some(dir) = out_dir {
            let _ = t.write_csv(&dir.join("table1.csv"));
        }
        format!(
            "Table 1: paused-state cost breakdown (No-opt, {INTERVAL_MS} ms epochs)\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_matches_paper() {
        let _guard = crate::measurement_lock();
        crate::assert_with_escalating_samples("table1_shape", &[4, 12, 36], |n| {
            let t = run(n);
            assert_eq!(t.rows.len(), 3);
            // Copy dominates the pause window on the unoptimised path (the
            // paper measures ~70%).
            for row in &t.rows {
                let copy = row.stats.phase_mean(Phase::Copy);
                let total = row.stats.pause_total_mean();
                assert!(
                    copy.as_secs_f64() > 0.4 * total.as_secs_f64(),
                    "{}: copy {copy:?} must dominate total {total:?}",
                    row.intensity.label(),
                );
            }
            // Cost rises with workload intensity.
            let totals: Vec<f64> = t
                .rows
                .iter()
                .map(|r| r.stats.pause_total_mean().as_secs_f64())
                .collect();
            assert!(totals[0] < totals[2], "Light must pause less than High");
            let text = t.render(None);
            assert!(text.contains("Light"));
            assert!(text.contains("High"));
        });
    }
}
