//! Table 3 — LibVMI analysis costs: one-time initialization and
//! preprocessing versus the per-checkpoint memory analysis, for the
//! `process-list` and `module-list` scans.

use std::path::Path;
use std::time::{Duration, Instant};

use crimes_vm::Vm;
use crimes_vmi::{linux, VmiSession};

use crate::text::TextTable;

/// One scan's cost split.
#[derive(Debug, Clone, Copy)]
pub struct Table3Row {
    /// Scan name (`process-list` or `module-list`).
    pub scan: &'static str,
    /// Mean one-time initialization cost.
    pub initialization: Duration,
    /// Of that, the mean System.map render + parse; the rest is the
    /// banner check.
    pub symbols: Duration,
    /// Mean one-time preprocessing cost.
    pub preprocessing: Duration,
    /// Mean per-checkpoint analysis cost.
    pub memory_analysis: Duration,
}

/// The regenerated table.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// `process-list` then `module-list`.
    pub rows: Vec<Table3Row>,
    /// Processes in the measured guest.
    pub guest_processes: usize,
    /// Modules in the measured guest.
    pub guest_modules: usize,
}

/// Run the measurement: `init_iters` full session initialisations and
/// `scan_iters` scans (the paper uses 100) over a populated guest.
///
/// # Panics
///
/// Panics if either iteration count is zero.
pub fn run(init_iters: u32, scan_iters: u32) -> Table3 {
    assert!(
        init_iters > 0 && scan_iters > 0,
        "iterations must be positive"
    );
    let mut builder = Vm::builder();
    builder.pages(8_192).seed(33);
    let mut vm = builder.build();
    // A desktop-like population: tens of processes, a handful of modules.
    let guest_processes = 50usize;
    let guest_modules = 12usize;
    for i in 0..guest_processes {
        vm.spawn_process(&format!("proc{i:02}"), 1000, 1).unwrap();
    }
    for i in 0..guest_modules {
        vm.load_module(&format!("mod{i:02}"), 0x1000).unwrap();
    }

    // One-time costs, averaged over repeated cold inits.
    let mut init_sum = Duration::ZERO;
    let mut symbols_sum = Duration::ZERO;
    let mut preproc_sum = Duration::ZERO;
    for _ in 0..init_iters {
        let timings = VmiSession::init(&vm).expect("init").timings();
        init_sum += timings.initialization;
        symbols_sum += timings.symbols;
        preproc_sum += timings.preprocessing;
    }
    let initialization = init_sum / init_iters;
    let symbols = symbols_sum / init_iters;
    let preprocessing = preproc_sum / init_iters;

    // Per-checkpoint costs on a warm session.
    let session = VmiSession::init(&vm).expect("init");
    let time_scan = |f: &dyn Fn() -> usize| {
        let t0 = Instant::now();
        let mut total = 0usize;
        for _ in 0..scan_iters {
            total += f();
        }
        std::hint::black_box(total);
        t0.elapsed() / scan_iters
    };
    let proc_scan = time_scan(&|| linux::process_list(&session, vm.memory()).unwrap().len());
    let mod_scan = time_scan(&|| linux::module_list(&session, vm.memory()).unwrap().len());

    Table3 {
        rows: vec![
            Table3Row {
                scan: "process-list",
                initialization,
                symbols,
                preprocessing,
                memory_analysis: proc_scan,
            },
            Table3Row {
                scan: "module-list",
                initialization,
                symbols,
                preprocessing,
                memory_analysis: mod_scan,
            },
        ],
        guest_processes,
        guest_modules,
    }
}

impl Table3 {
    /// Render as the paper's table (microseconds).
    pub fn to_table(&self) -> TextTable {
        let us = |d: Duration| format!("{:.0}", d.as_secs_f64() * 1e6);
        let mut t = TextTable::new(["Time Cost (usec)", "process-list", "module-list"]);
        let p = &self.rows[0];
        let m = &self.rows[1];
        t.row([
            "Initialization".to_owned(),
            us(p.initialization),
            us(m.initialization),
        ]);
        t.row([
            "  System.map render + parse".to_owned(),
            us(p.symbols),
            us(m.symbols),
        ]);
        t.row([
            "  banner check".to_owned(),
            us(p.initialization.saturating_sub(p.symbols)),
            us(m.initialization.saturating_sub(m.symbols)),
        ]);
        t.row([
            "Preprocessing".to_owned(),
            us(p.preprocessing),
            us(m.preprocessing),
        ]);
        t.row([
            "Memory Analysis".to_owned(),
            us(p.memory_analysis),
            us(m.memory_analysis),
        ]);
        t
    }

    /// Render + persist CSV under `out_dir`.
    pub fn render(&self, out_dir: Option<&Path>) -> String {
        let t = self.to_table();
        if let Some(dir) = out_dir {
            let _ = t.write_csv(&dir.join("table3.csv"));
        }
        format!(
            "Table 3: VMI analysis costs ({} processes, {} modules in guest)\n{}",
            self.guest_processes,
            self.guest_modules,
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_dwarfs_per_scan_analysis() {
        let _guard = crate::measurement_lock();
        crate::assert_with_escalating_samples("table3_init", &[3, 9, 27], |n| {
            let t = run(n, 10 * n);
            for row in &t.rows {
                // The whole point of Table 3: one-time costs are orders of
                // magnitude above the per-checkpoint walk.
                assert!(
                    row.initialization > 10 * row.memory_analysis,
                    "{}: init {:?} must dwarf analysis {:?}",
                    row.scan,
                    row.initialization,
                    row.memory_analysis
                );
            }
        });
    }

    #[test]
    fn both_scans_measured() {
        let _guard = crate::measurement_lock();
        let t = run(2, 10);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0].scan, "process-list");
        assert_eq!(t.rows[1].scan, "module-list");
        assert!(t.rows[0].memory_analysis > Duration::ZERO);
        assert!(t.rows[0].symbols > Duration::ZERO);
        assert!(t.rows[0].symbols <= t.rows[0].initialization);
        let text = t.render(None);
        assert!(text.contains("Initialization"));
        assert!(text.contains("System.map render + parse"));
        assert!(text.contains("banner check"));
        assert!(text.contains("Memory Analysis"));
    }
}
