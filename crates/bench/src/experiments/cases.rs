//! Case studies — §5.5 (heap-overflow detect → rollback → replay →
//! pinpoint, Figure 8's timeline) and §5.6 (malware detection + forensic
//! report).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crimes::modules::{BlacklistScanModule, CanaryScanModule};
use crimes::{Crimes, CrimesConfig, EpochOutcome};
use crimes_vm::{Guest, Vm, CANARY_LEN};
use crimes_vmi::{CanaryScanner, VmiSession};
use crimes_workloads::attacks::{self, attack_rips};
use crimes_workloads::{profile, ParsecWorkload};

/// Timeline of the §5.5 overflow case study.
#[derive(Debug, Clone)]
pub struct Case1 {
    /// Epoch interval used (the paper uses 50 ms).
    pub interval_ms: u64,
    /// Simulated guest time between the overflow and the epoch end.
    pub detection_wait_ms: f64,
    /// Measured wall-clock of the suspend + audit that caught it.
    pub detect_scan: Duration,
    /// Measured wall-clock of investigation (rollback, replay, pinpoint,
    /// dumps, diff, report).
    pub investigation: Duration,
    /// Ops replayed before the attack instruction was hit.
    pub ops_replayed: usize,
    /// The pinpointed instruction pointer.
    pub pinpoint_rip: u64,
    /// Whether the attack epoch's buffered outputs were discarded.
    pub outputs_discarded: usize,
    /// Canary-validation throughput on a large table (the paper reports
    /// ~90 000/ms), with its same-run reference.
    pub canaries: CanaryThroughput,
    /// The rendered incident report.
    pub report_text: String,
}

/// Run case study 1.
///
/// # Panics
///
/// Panics only on internal errors (the scenario is deterministic).
pub fn run_case1() -> Case1 {
    let interval_ms = 50u64;
    let mut builder = Vm::builder();
    builder.pages(8_192).seed(101);
    let vm = builder.build();
    let secret = vm.canary_secret();
    let mut config = CrimesConfig::builder();
    config.epoch_interval_ms(interval_ms);
    let mut crimes = Crimes::protect(vm, config.build().expect("valid config")).expect("protect");
    crimes.register_module(Box::new(CanaryScanModule::new(secret)));

    // Background workload (the paper's "simple C program" plus activity).
    let p = profile("swaptions").expect("bundled profile");
    let mut workload = ParsecWorkload::launch(crimes.vm_mut(), p, 101).expect("launch");
    let victim = crimes
        .vm_mut()
        .spawn_process("victim", 1000, 32)
        .expect("spawn");

    // One clean epoch so the checkpoint covers the steady state.
    let outcome = crimes
        .run_epoch(|vm, ms| workload.run_ms(vm, ms))
        .expect("clean epoch");
    assert!(outcome.is_committed(), "warm-up epoch must commit");

    // Attack epoch: the overflow fires at t0 = 24.4 ms into the 50 ms
    // epoch (mirroring Figure 8); the rest of the epoch runs on.
    let mut attack_at_ns = 0u64;
    let t_detect = Instant::now();
    let outcome = crimes
        .run_epoch(|vm, ms| {
            workload.run_ms(vm, 24)?;
            vm.advance_time(400_000); // 0.4 ms: t0 = 24.4 ms
            attack_at_ns = vm.now_ns();
            attacks::inject_heap_overflow(vm, victim, 64, 16)?;
            workload.run_ms(vm, ms - 25)?;
            vm.advance_time(600_000);
            Ok(())
        })
        .expect("attack epoch");
    let detect_scan = t_detect.elapsed();
    let EpochOutcome::AttackDetected { .. } = outcome else {
        panic!("the overflow must be detected at the epoch boundary");
    };
    let detection_wait_ms = (crimes.vm().now_ns() - attack_at_ns) as f64 / 1e6;

    let t_invest = Instant::now();
    let analysis = crimes.investigate().expect("investigate");
    let investigation = t_invest.elapsed();
    let pin = analysis.pinpoint.as_ref().expect("pinpoint");
    assert_eq!(pin.rip, attack_rips::HEAP_OVERFLOW, "ground truth rip");
    let report_text = analysis.report.to_text();
    let ops_replayed = pin.ops_replayed;
    let pinpoint_rip = pin.rip;
    let outputs_discarded = crimes.rollback_and_resume().expect("rollback");

    Case1 {
        interval_ms,
        detection_wait_ms,
        detect_scan,
        investigation,
        ops_replayed,
        pinpoint_rip,
        outputs_discarded,
        canaries: measure_canary_throughput(),
        report_text,
    }
}

/// Canary-validation throughput, and a reference measured in the same run
/// over the same canaries.
#[derive(Debug, Clone, Copy)]
pub struct CanaryThroughput {
    /// The scan every audit runs ([`CanaryScanner::scan_all`]): the table
    /// bulk-read once, each canary compared as one 8-byte word.
    pub canaries_per_ms: f64,
    /// The reference: the guest allocator's own records of the same
    /// canaries, each translated on its own and compared a byte at a time.
    pub reference_per_ms: f64,
}

/// Measure canary-validation throughput on a table of ~15 000 canaries,
/// alternating the scan with the reference and keeping each one's fastest
/// pass, so both see the same host load.
pub fn measure_canary_throughput() -> CanaryThroughput {
    let mut builder = Vm::builder();
    builder.pages(32_768).seed(77);
    let mut vm = builder.build();
    let pid = vm.spawn_process("bigheap", 0, 24_000).expect("spawn");
    let count = 15_000usize;
    for _ in 0..count {
        vm.malloc(pid, 128).expect("malloc");
    }
    let mut session = VmiSession::init(&vm).expect("init");
    session
        .refresh_address_spaces(vm.memory())
        .expect("refresh");
    let secret = vm.canary_secret();
    let scanner = CanaryScanner::new(secret);
    let allocations = vm.heap().allocations_of(pid);
    let mem = vm.memory();
    let reference = || {
        let mut intact = 0usize;
        for a in &allocations {
            let gpa = session
                .translate_user(a.pid, Guest::new(a.canary_gva), CANARY_LEN as u64)
                .expect("translate");
            let whole = secret.iter().enumerate().all(|(i, &byte)| {
                mem.peek_array::<1>(gpa.add(i as u64)).expect("peek") == [byte]
            });
            intact += usize::from(whole);
        }
        intact
    };
    let passes = 20;
    let (mut scan_best, mut reference_best) = (Duration::MAX, Duration::MAX);
    for _ in 0..passes {
        let t0 = Instant::now();
        let report = scanner.scan_all(&session, mem).expect("scan");
        scan_best = scan_best.min(t0.elapsed());
        assert_eq!(report.checked, count);
        let t0 = Instant::now();
        assert_eq!(reference(), count, "every canary is intact");
        reference_best = reference_best.min(t0.elapsed());
    }
    let per_ms = |d: Duration| count as f64 / (d.as_secs_f64() * 1e3);
    CanaryThroughput {
        canaries_per_ms: per_ms(scan_best),
        reference_per_ms: per_ms(reference_best),
    }
}

impl Case1 {
    /// Render the Figure 8-style timeline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Case study 1: heap-overflow attack ({} ms epochs)",
            self.interval_ms
        );
        let _ = writeln!(
            out,
            "  attack -> epoch end (simulated):     {:>10.1} ms   (paper: 24.4 + 1.0 ms)",
            self.detection_wait_ms
        );
        let _ = writeln!(
            out,
            "  suspend + canary audit (measured):   {:>10.3} ms   (paper: ~4 ms)",
            self.detect_scan.as_secs_f64() * 1e3
        );
        let _ = writeln!(
            out,
            "  rollback+replay+forensics (measured):{:>10.3} ms   (paper: replay ~29 ms, dumps ~5 s)",
            self.investigation.as_secs_f64() * 1e3
        );
        let _ = writeln!(
            out,
            "  ops replayed to pinpoint:            {:>10}",
            self.ops_replayed
        );
        let _ = writeln!(
            out,
            "  pinpointed rip:                      {:#x}",
            self.pinpoint_rip
        );
        let _ = writeln!(
            out,
            "  buffered outputs discarded:          {:>10}   (zero external impact)",
            self.outputs_discarded
        );
        let _ = writeln!(
            out,
            "  canary validation throughput:        {:>10.0} canaries/ms   (paper: ~90 000/ms)",
            self.canaries.canaries_per_ms
        );
        let _ = writeln!(
            out,
            "    byte-wise reference, same canaries:{:>10.0} canaries/ms",
            self.canaries.reference_per_ms
        );
        out
    }
}

/// Result of the §5.6 malware case study.
#[derive(Debug, Clone)]
pub struct Case2 {
    /// Epochs that committed before the malware started.
    pub clean_epochs: u64,
    /// Measured wall-clock of the detecting audit window.
    pub detect_scan: Duration,
    /// Measured wall-clock of the forensic investigation.
    pub investigation: Duration,
    /// The rendered report (the paper's §5.6 listing).
    pub report_text: String,
}

/// Run case study 2.
///
/// # Panics
///
/// Panics only on internal errors (the scenario is deterministic).
pub fn run_case2() -> Case2 {
    let mut builder = Vm::builder();
    builder.pages(8_192).seed(202);
    let vm = builder.build();
    let mut config = CrimesConfig::builder();
    config.epoch_interval_ms(50);
    let mut crimes = Crimes::protect(vm, config.build().expect("valid config")).expect("protect");
    crimes.register_module(Box::new(BlacklistScanModule::bundled()));

    // A desktop-ish guest with benign activity.
    crimes
        .vm_mut()
        .spawn_process("explorer", 1000, 8)
        .expect("spawn");
    crimes
        .vm_mut()
        .spawn_process("winword", 1000, 8)
        .expect("spawn");
    for _ in 0..2 {
        let outcome = crimes
            .run_epoch(|vm, ms| {
                vm.advance_time(ms * 1_000_000);
                Ok(())
            })
            .expect("clean epoch");
        assert!(outcome.is_committed());
    }
    let clean_epochs = crimes.committed_epochs();

    // The user runs the registry-exfiltration malware.
    let t_detect = Instant::now();
    let outcome = crimes
        .run_epoch(|vm, ms| {
            attacks::inject_malware_launch(vm, "reg_read.exe")?;
            vm.advance_time(ms * 1_000_000);
            Ok(())
        })
        .expect("attack epoch");
    let detect_scan = t_detect.elapsed();
    assert!(!outcome.is_committed(), "the blacklist scan must fire");

    let t_invest = Instant::now();
    let analysis = crimes.investigate().expect("investigate");
    let investigation = t_invest.elapsed();
    assert!(analysis.pinpoint.is_none(), "no replay needed (§5.6)");
    let report_text = analysis.report.to_text();
    crimes.rollback_and_resume().expect("rollback");

    Case2 {
        clean_epochs,
        detect_scan,
        investigation,
        report_text,
    }
}

impl Case2 {
    /// Render the case-study summary plus the report.
    pub fn render(&self) -> String {
        format!(
            "Case study 2: malware detection (unmodified guest)\n\
             \x20 clean epochs before attack:   {}\n\
             \x20 detection window (measured):  {:.3} ms\n\
             \x20 forensic analysis (measured): {:.3} ms\n\n{}",
            self.clean_epochs,
            self.detect_scan.as_secs_f64() * 1e3,
            self.investigation.as_secs_f64() * 1e3,
            self.report_text
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case1_detects_replays_and_pinpoints() {
        let _guard = crate::measurement_lock();
        let c = run_case1();
        assert_eq!(c.pinpoint_rip, attack_rips::HEAP_OVERFLOW);
        assert!(c.ops_replayed > 0);
        // The attack fired at 24.4 ms of a 50 ms epoch: ~25.6 ms to go.
        assert!(
            (20.0..30.0).contains(&c.detection_wait_ms),
            "wait {} ms",
            c.detection_wait_ms
        );
        assert!(c.report_text.contains("Buffer Overflow"));
        // Relative to a reference timed in the same run over the same
        // canaries, not to this host's speed.
        assert!(
            c.canaries.canaries_per_ms > c.canaries.reference_per_ms,
            "{:?}",
            c.canaries
        );
        let text = c.render();
        assert!(text.contains("pinpointed rip"));
    }

    #[test]
    fn case2_report_matches_paper_listing() {
        let _guard = crate::measurement_lock();
        let c = run_case2();
        assert_eq!(c.clean_epochs, 2);
        for needle in [
            "reg_read.exe",
            "Open Sockets",
            "104.28.18.89:8080",
            "CLOSE_WAIT",
            "Open File Handles",
            "write_file.txt",
        ] {
            assert!(c.report_text.contains(needle), "report missing {needle}");
        }
        assert!(c.render().contains("malware detection"));
    }
}
