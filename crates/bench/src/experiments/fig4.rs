//! Figure 4 — absolute pause-window cost breakdown for *swaptions* at
//! 200 ms epochs, across the four optimisation levels.

use std::path::Path;

use crimes_checkpoint::{OptLevel, Phase};
use crimes_workloads::profile;

use crate::runtime::{run_parsec, RunStats};
use crate::text::{ms, TextTable};

/// The regenerated figure: per-optimisation mean phase breakdown.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// `(level, the run's statistics)` in `OptLevel::ALL` order.
    pub by_opt: Vec<(OptLevel, RunStats)>,
}

/// Epoch interval used by the paper for this figure.
pub const INTERVAL_MS: u64 = 200;

/// Run the experiment.
///
/// # Panics
///
/// Panics if `epochs` is zero.
pub fn run(epochs: u32) -> Fig4 {
    let p = profile("swaptions").expect("bundled profile");
    let by_opt = OptLevel::ALL
        .iter()
        .map(|&opt| {
            (
                opt,
                run_parsec(p, opt, INTERVAL_MS, epochs, 3).expect("cannot fault"),
            )
        })
        .collect();
    Fig4 { by_opt }
}

impl Fig4 {
    /// One level's run.
    pub fn breakdown(&self, opt: OptLevel) -> Option<RunStats> {
        self.by_opt.iter().find(|(o, _)| *o == opt).map(|(_, s)| *s)
    }

    /// Map/unmap hypercalls issued by one level's run.
    pub fn map_hypercalls(&self, opt: OptLevel) -> Option<u64> {
        self.breakdown(opt).map(|s| s.map_hypercalls)
    }

    /// Render as a table (one column per level, like the stacked bars).
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(["phase (ms)", "Full", "Pre-map", "Memcpy", "No-opt"]);
        let cols = [
            OptLevel::Full,
            OptLevel::PreMap,
            OptLevel::Memcpy,
            OptLevel::NoOpt,
        ]
        .map(|opt| self.breakdown(opt).expect("all levels ran"));
        for phase in Phase::ALL {
            let cells = cols.iter().map(|s| ms(s.phase_mean(phase)));
            t.row([phase.label().to_owned()].into_iter().chain(cells));
        }
        let totals = cols.iter().map(|s| ms(s.pause_total_mean()));
        t.row(["total".to_owned()].into_iter().chain(totals));
        t
    }

    /// Render + persist CSV under `out_dir`.
    pub fn render(&self, out_dir: Option<&Path>) -> String {
        let t = self.to_table();
        if let Some(dir) = out_dir {
            let _ = t.write_csv(&dir.join("fig4.csv"));
        }
        let full = self
            .breakdown(OptLevel::Full)
            .expect("ran")
            .pause_total_mean();
        let noopt = self
            .breakdown(OptLevel::NoOpt)
            .expect("ran")
            .pause_total_mean();
        format!(
            "Figure 4: absolute pause breakdown, swaptions ({INTERVAL_MS} ms epochs)\n{}\n\
             pause reduction Full vs No-opt: {:.0}%  (paper: 67%, 29.86 ms -> 10.21 ms)\n",
            t.render(),
            (1.0 - full.as_secs_f64() / noopt.as_secs_f64()) * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_shape_matches_paper() {
        let _guard = crate::measurement_lock();
        crate::assert_with_escalating_samples("fig4_shape", &[4, 12, 36], |epochs| {
            let fig = run(epochs);
            let full = fig.breakdown(OptLevel::Full).unwrap();
            let premap = fig.breakdown(OptLevel::PreMap).unwrap();
            let memcpy = fig.breakdown(OptLevel::Memcpy).unwrap();
            let noopt = fig.breakdown(OptLevel::NoOpt).unwrap();

            let copy = |s: RunStats| s.phase_mean(Phase::Copy);
            // Copy dominates No-opt and collapses with the memcpy opt.
            assert!(copy(noopt) > copy(memcpy) * 2);
            // Memcpy maps twice as much as No-opt (primary + backup). This
            // is structural, so assert on the deterministic hypercall
            // counts (wall-clock for a sub-ms phase flakes under parallel
            // test load).
            let hc = |opt| fig.map_hypercalls(opt).unwrap();
            assert!(hc(OptLevel::Memcpy) >= hc(OptLevel::NoOpt) * 18 / 10);
            // Pre-map/Full issue none at all.
            assert_eq!(hc(OptLevel::PreMap), 0);
            assert_eq!(hc(OptLevel::Full), 0);
            // Pre-map erases per-epoch map cost.
            assert!(premap.phase_mean(Phase::Map) < memcpy.phase_mean(Phase::Map) / 4);
            // Word-wise scan cuts bitscan (Full vs Pre-map).
            assert!(full.phase_mean(Phase::Bitscan) < premap.phase_mean(Phase::Bitscan));
            // And the total ordering holds. Full vs Pre-map differ only by
            // the sub-0.1 ms bitscan phase (the paper's bars are also
            // nearly equal), so allow scheduler noise there; the other
            // gaps are structural (double mapping, socket copy) and must
            // be strict.
            let total = |s: RunStats| s.pause_total_mean();
            assert!(total(full).as_secs_f64() <= total(premap).as_secs_f64() * 1.15);
            assert!(total(premap) < total(memcpy));
            assert!(total(memcpy) < total(noopt));
        });
    }

    #[test]
    fn render_has_all_phases() {
        let _guard = crate::measurement_lock();
        let fig = run(2);
        let text = fig.render(None);
        for phase in [
            "suspend", "vmi", "bitscan", "map", "copy", "resume", "total",
        ] {
            assert!(text.contains(phase), "missing {phase}");
        }
    }
}
