//! Figure 6 — (a) fluidanimate's normalised runtime across intervals for
//! every optimisation level (the workload where CRIMES pays off most), and
//! (b) the simulated bitmap-scan cost versus VM size, bit-by-bit versus
//! word-wise.

use std::path::Path;
use std::time::{Duration, Instant};

use crimes_rng::ChaCha8Rng;

use crimes_checkpoint::{scan_bit_by_bit, scan_wordwise, OptLevel};
use crimes_vm::{DirtyBitmap, Pfn};
use crimes_workloads::profile;

use crate::runtime::run_parsec;
use crate::text::{ms, ratio, TextTable};

/// Intervals swept by panel (a).
pub const INTERVALS_MS: [u64; 8] = [60, 80, 100, 120, 140, 160, 180, 200];

/// VM sizes swept by panel (b), in GiB.
pub const VM_SIZES_GIB: [usize; 5] = [1, 2, 4, 8, 16];

/// One panel-(a) sample.
#[derive(Debug, Clone, Copy)]
pub struct Fig6aPoint {
    /// Optimisation level.
    pub opt: OptLevel,
    /// Epoch interval in milliseconds.
    pub interval_ms: u64,
    /// Normalised runtime.
    pub normalized_runtime: f64,
}

/// One panel-(b) sample.
#[derive(Debug, Clone, Copy)]
pub struct Fig6bPoint {
    /// VM size in GiB.
    pub vm_gib: usize,
    /// Bit-by-bit scan time.
    pub bit_by_bit: Duration,
    /// Word-wise scan time.
    pub wordwise: Duration,
}

/// Panel (a): fluidanimate across intervals and levels.
#[derive(Debug, Clone)]
pub struct Fig6a {
    /// All samples, level-major.
    pub points: Vec<Fig6aPoint>,
}

/// Run panel (a).
///
/// # Panics
///
/// Panics if `epochs` is zero.
pub fn run_a(epochs: u32) -> Fig6a {
    let p = profile("fluidanimate").expect("bundled profile");
    let mut points = Vec::new();
    for &opt in &OptLevel::ALL {
        for &interval in &INTERVALS_MS {
            let stats = run_parsec(p, opt, interval, epochs, 9).expect("cannot fault");
            points.push(Fig6aPoint {
                opt,
                interval_ms: interval,
                normalized_runtime: stats.normalized_runtime,
            });
        }
    }
    Fig6a { points }
}

impl Fig6a {
    /// Samples of one level, in interval order.
    pub fn series(&self, opt: OptLevel) -> Vec<Fig6aPoint> {
        self.points
            .iter()
            .filter(|p| p.opt == opt)
            .copied()
            .collect()
    }

    /// Render as a table.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new(["interval(ms)", "Full", "Pre-map", "Memcpy", "No-opt"]);
        for &interval in &INTERVALS_MS {
            let at = |opt| {
                self.points
                    .iter()
                    .find(|p| p.opt == opt && p.interval_ms == interval)
                    .expect("all combinations ran")
                    .normalized_runtime
            };
            t.row([
                interval.to_string(),
                ratio(at(OptLevel::Full)),
                ratio(at(OptLevel::PreMap)),
                ratio(at(OptLevel::Memcpy)),
                ratio(at(OptLevel::NoOpt)),
            ]);
        }
        t
    }

    /// Render + persist CSV under `out_dir`.
    pub fn render(&self, out_dir: Option<&Path>) -> String {
        let t = self.to_table();
        if let Some(dir) = out_dir {
            let _ = t.write_csv(&dir.join("fig6a.csv"));
        }
        format!(
            "Figure 6a: fluidanimate normalised runtime by interval and optimisation\n{}",
            t.render()
        )
    }
}

/// Panel (b): bitmap-scan cost versus VM size (the paper's own simulated
/// experiment). `dirty_fraction` of the pages are randomly marked dirty.
#[derive(Debug, Clone)]
pub struct Fig6b {
    /// All samples, ascending VM size.
    pub points: Vec<Fig6bPoint>,
}

/// Run panel (b). Each measurement is averaged over `iters` scans.
///
/// # Panics
///
/// Panics if `iters` is zero or `dirty_fraction` is not in `(0, 1]`.
pub fn run_b(iters: u32, dirty_fraction: f64) -> Fig6b {
    assert!(iters > 0, "need at least one iteration");
    assert!(
        dirty_fraction > 0.0 && dirty_fraction <= 1.0,
        "dirty fraction out of range"
    );
    let pages_per_gib = 1usize << 18; // 262 144 4-KiB pages per GiB
    let mut rng = ChaCha8Rng::seed_from_u64(0xb17);
    let mut points = Vec::new();
    for &gib in &VM_SIZES_GIB {
        let pages = gib * pages_per_gib;
        let mut bm = DirtyBitmap::new(pages);
        let dirty = (pages as f64 * dirty_fraction) as usize;
        for _ in 0..dirty {
            bm.mark(Pfn(rng.gen_range(0..pages as u64)));
        }
        // The checkpointer's page list: room for every page, reused.
        let mut list = Vec::with_capacity(pages);
        let mut time = |f: &dyn Fn(&DirtyBitmap, &mut Vec<Pfn>)| {
            let t0 = Instant::now();
            let mut found = 0usize;
            for _ in 0..iters {
                f(&bm, &mut list);
                found += list.len();
            }
            std::hint::black_box(found);
            t0.elapsed() / iters
        };
        points.push(Fig6bPoint {
            vm_gib: gib,
            bit_by_bit: time(&scan_bit_by_bit),
            wordwise: time(&scan_wordwise),
        });
    }
    Fig6b { points }
}

impl Fig6b {
    /// Render as a table.
    pub fn to_table(&self) -> TextTable {
        let mut t = TextTable::new([
            "VM size (GiB)",
            "Not Optimized (ms)",
            "Optimized (ms)",
            "speedup",
        ]);
        for p in &self.points {
            t.row([
                p.vm_gib.to_string(),
                ms(p.bit_by_bit),
                ms(p.wordwise),
                ratio(p.bit_by_bit.as_secs_f64() / p.wordwise.as_secs_f64().max(1e-12)),
            ]);
        }
        t
    }

    /// Render + persist CSV under `out_dir`.
    pub fn render(&self, out_dir: Option<&Path>) -> String {
        let t = self.to_table();
        if let Some(dir) = out_dir {
            let _ = t.write_csv(&dir.join("fig6b.csv"));
        }
        format!(
            "Figure 6b: simulated bitmap-scan cost vs VM size\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6a_full_beats_noopt_everywhere() {
        let _guard = crate::measurement_lock();
        crate::assert_with_escalating_samples("fig6a_beats", &[3, 9, 27], |n| {
            let fig = run_a(n);
            for &interval in &INTERVALS_MS {
                let at = |opt| {
                    fig.points
                        .iter()
                        .find(|p| p.opt == opt && p.interval_ms == interval)
                        .unwrap()
                        .normalized_runtime
                };
                assert!(
                    at(OptLevel::Full) < at(OptLevel::NoOpt),
                    "interval {interval}: Full must beat No-opt"
                );
            }
            // The paper: even as performance worsens at small intervals, Full
            // stays several times faster than No-opt.
            let full60 = fig.series(OptLevel::Full)[0].normalized_runtime;
            let noopt60 = fig.series(OptLevel::NoOpt)[0].normalized_runtime;
            assert!(
                (noopt60 - 1.0) > 2.0 * (full60 - 1.0),
                "No-opt overhead {noopt60} must dwarf Full {full60} at 60 ms"
            );
        });
    }

    #[test]
    fn fig6a_overhead_falls_with_interval() {
        let _guard = crate::measurement_lock();
        crate::assert_with_escalating_samples("fig6a_falls", &[3, 9, 27], |n| {
            let fig = run_a(n);
            for &opt in &OptLevel::ALL {
                let series = fig.series(opt);
                assert!(
                    series.last().unwrap().normalized_runtime
                        < series.first().unwrap().normalized_runtime,
                    "{opt}: overhead must fall with interval"
                );
            }
        });
    }

    #[test]
    fn fig6b_wordwise_wins_and_scales() {
        let _guard = crate::measurement_lock();
        crate::assert_with_escalating_samples("fig6b_wordwise", &[3, 9, 27], |n| {
            let fig = run_b(n, 0.01);
            assert_eq!(fig.points.len(), VM_SIZES_GIB.len());
            for p in &fig.points {
                assert!(
                    p.wordwise < p.bit_by_bit,
                    "{} GiB: word-wise {:?} must beat bit-by-bit {:?}",
                    p.vm_gib,
                    p.wordwise,
                    p.bit_by_bit
                );
            }
            // Bit-by-bit grows much faster with VM size.
            let first = &fig.points[0];
            let last = fig.points.last().unwrap();
            let bit_growth = last.bit_by_bit.as_secs_f64() / first.bit_by_bit.as_secs_f64();
            let word_growth = last.wordwise.as_secs_f64() / first.wordwise.as_secs_f64().max(1e-12);
            assert!(
                bit_growth > 4.0,
                "bit-by-bit must scale with memory size: {bit_growth}"
            );
            let _ = word_growth; // word-wise growth is dominated by the dirty count
        });
    }

    #[test]
    #[should_panic(expected = "dirty fraction")]
    fn bad_dirty_fraction_panics() {
        run_b(1, 0.0);
    }
}
