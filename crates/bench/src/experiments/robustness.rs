//! Robustness soak report — the degraded-mode counterpart of the paper's
//! evaluation. Runs a protected tenant for a bounded number of epochs
//! under a seeded fault plan (the same plan the `fault_soak` integration
//! test uses at scale) and reports the invariant counters: epochs run and
//! committed, faults injected per point, VMI retries, speculation
//! extensions, fallback rollbacks, and quarantines.
//!
//! The run is deterministic in its seed, so the printed counters are a
//! reproducible fingerprint of the fail-closed pipeline — a changed
//! number means a changed degraded-mode behaviour, not noise.

use std::fmt::Write as _;
use std::path::Path;

use crimes::modules::CanaryScanModule;
use crimes::{Crimes, CrimesConfig, CrimesError, EpochOutcome, RobustnessStats};
use crimes_faults::{install, FaultCounters, FaultPlan, FaultPoint};
use crimes_rng::ChaCha8Rng;
use crimes_vm::Vm;
use crimes_workloads::attacks;

use crate::text::TextTable;

/// Counters from one seeded robustness soak.
#[derive(Debug, Clone)]
pub struct Robustness {
    /// Seed driving both the fault injector and the attack schedule.
    pub seed: u64,
    /// Epochs driven (boundary attempts, including failed ones).
    pub epochs: u64,
    /// Epochs that committed and released their outputs.
    pub committed: u64,
    /// Epochs that extended speculation (inconclusive audits).
    pub extended: u64,
    /// Attacks injected — every one must be detected and rolled back.
    pub attacks_detected: u64,
    /// Epochs whose checkpoint copy exhausted its retries.
    pub commit_failures: u64,
    /// Tenants lost to quarantine (each replaced with a fresh one).
    pub quarantines: u64,
    /// Outputs released at committed boundaries.
    pub outputs_released: u64,
    /// Outputs discarded during incident response / failed commits.
    pub outputs_discarded: u64,
    /// Submissions rejected by buffer backpressure (real or injected).
    pub outputs_rejected: u64,
    /// The live tenant's framework counters at the end of the run.
    pub framework: RobustnessStats,
    /// The injector's per-point draw/hit counters.
    pub faults: FaultCounters,
}

/// The fixed plan (rates per 1024) shared with the soak test.
fn soak_plan() -> FaultPlan {
    FaultPlan::disabled()
        .with_rate(FaultPoint::VmiRead, 30)
        .with_rate(FaultPoint::PageCopy, 20)
        .with_rate(FaultPoint::BackupWrite, 20)
        .with_rate(FaultPoint::PageCorrupt, 10)
        .with_rate(FaultPoint::AuditOverrun, 25)
        .with_rate(FaultPoint::ReplayDiverge, 200)
        .with_rate(FaultPoint::OutbufOverflow, 20)
}

fn tenant(seed: u64) -> (Crimes, u32) {
    let mut cfg = CrimesConfig::builder();
    cfg.epoch_interval_ms(10);
    cfg.history_depth(3);
    let cfg = cfg.build().expect("valid config");
    let mut c = loop {
        let mut b = Vm::builder();
        b.pages(1024).seed(seed);
        let vm = b.build();
        match Crimes::protect(vm, cfg) {
            Ok(c) => break c,
            Err(CrimesError::Vmi(crimes_vmi::VmiError::TransientReadFault)) => continue,
            Err(e) => panic!("protect failed hard: {e}"),
        }
    };
    let secret = c.vm().canary_secret();
    c.register_module(Box::new(CanaryScanModule::new(secret)));
    let pid = c
        .vm_mut()
        .spawn_process("workload", 700, 16)
        .expect("spawn victim");
    (c, pid)
}

fn warmed_tenant(generation: &mut u64) -> (Crimes, u32) {
    loop {
        *generation += 1;
        let (mut c, pid) = tenant(3000 + *generation);
        let mut warmed = false;
        for _ in 0..8 {
            match c.run_epoch(|vm, ms| {
                vm.advance_time(ms * 1_000_000);
                Ok(())
            }) {
                Ok(EpochOutcome::Committed { .. }) => {
                    warmed = true;
                    break;
                }
                Ok(_) | Err(CrimesError::Exhausted { .. }) => continue,
                Err(_) => break,
            }
        }
        if warmed {
            return (c, pid);
        }
    }
}

/// Run the soak for `epochs` boundaries with `seed`.
///
/// # Panics
///
/// Panics when a fail-closed invariant breaks (an attacked epoch
/// committing, an undetected attack, an unexpected error) — the same
/// conditions the `fault_soak` integration test enforces.
pub fn run(epochs: u64, seed: u64) -> Robustness {
    let _scope = install(soak_plan(), seed);
    let mut driver = ChaCha8Rng::seed_from_u64(seed ^ 0xd21_4e55);
    let mut generation = 0u64;
    let (mut c, mut pid) = warmed_tenant(&mut generation);

    let mut r = Robustness {
        seed,
        epochs,
        committed: 0,
        extended: 0,
        attacks_detected: 0,
        commit_failures: 0,
        quarantines: 0,
        outputs_released: 0,
        outputs_discarded: 0,
        outputs_rejected: 0,
        framework: RobustnessStats::default(),
        faults: FaultCounters::default(),
    };
    let mut attack_pending = false;

    for epoch in 0..epochs {
        if driver.gen_range(0..4) != 0 {
            use crimes_outbuf::{NetPacket, Output};
            match c.submit_output(Output::Net(NetPacket::new(epoch, vec![epoch as u8; 24]))) {
                Ok(_) => {}
                Err(CrimesError::BufferOverflow { .. }) => r.outputs_rejected += 1,
                Err(e) => panic!("epoch {epoch}: unexpected submit error: {e}"),
            }
        }
        let attack = !attack_pending && driver.gen_range(0..100) < 5;
        let result = c.run_epoch(|vm, ms| {
            let obj = vm.malloc(pid, 48)?;
            vm.write_user(pid, obj, &[epoch as u8; 48], 0x1000)?;
            vm.free(pid, obj)?;
            if attack {
                attacks::inject_heap_overflow(vm, pid, 32, 8)?;
            }
            vm.advance_time(ms * 1_000_000);
            Ok(())
        });
        if attack {
            attack_pending = true;
        }
        match result {
            Ok(EpochOutcome::Committed { released, .. }) => {
                assert!(!attack_pending, "epoch {epoch}: attacked epoch committed");
                r.committed += 1;
                r.outputs_released += released.len() as u64;
            }
            Ok(EpochOutcome::AttackDetected { .. }) => {
                r.attacks_detected += 1;
                // Forensics is best-effort under faults; containment is not.
                let _ = c.investigate();
                match c.rollback_and_resume() {
                    Ok(discarded) => {
                        r.outputs_discarded += discarded as u64;
                        attack_pending = false;
                    }
                    Err(CrimesError::Quarantined { .. }) => {
                        r.quarantines += 1;
                        (c, pid) = warmed_tenant(&mut generation);
                        attack_pending = false;
                    }
                    Err(e) => panic!("epoch {epoch}: rollback failed: {e}"),
                }
            }
            Ok(EpochOutcome::Extended { .. }) => r.extended += 1,
            Ok(EpochOutcome::Degraded { .. }) => {
                unreachable!("epoch {epoch}: degraded mode is disabled here (max_staged_backlog = 0)")
            }
            Err(CrimesError::Exhausted { .. }) => r.commit_failures += 1,
            Err(CrimesError::Quarantined { .. }) => {
                r.quarantines += 1;
                (c, pid) = warmed_tenant(&mut generation);
                attack_pending = false;
            }
            Err(e) => panic!("epoch {epoch}: unexpected epoch error: {e}"),
        }
    }

    r.framework = c.robustness_stats();
    r.faults = crimes_faults::counters();
    r
}

impl Robustness {
    /// Render the counter report (and the per-point CSV when `out` is
    /// given).
    pub fn render(&self, out: Option<&Path>) -> String {
        let mut t = TextTable::new(["fault point", "rate/1024", "draws", "hits"]);
        let plan = soak_plan();
        for p in FaultPoint::ALL {
            t.row([
                p.name().to_owned(),
                plan.rate(p).to_string(),
                self.faults.draws(p).to_string(),
                self.faults.hits(p).to_string(),
            ]);
        }
        if let Some(dir) = out {
            let _ = t.write_csv(&dir.join("robustness.csv"));
        }
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Robustness soak: {} epochs under seeded faults (seed {:#x})",
            self.epochs, self.seed
        );
        let _ = writeln!(
            s,
            "  committed {} / extended {} / copy-exhausted {} epochs",
            self.committed, self.extended, self.commit_failures
        );
        let _ = writeln!(
            s,
            "  attacks detected & contained:  {}",
            self.attacks_detected
        );
        let _ = writeln!(
            s,
            "  outputs released / discarded / rejected: {} / {} / {}",
            self.outputs_released, self.outputs_discarded, self.outputs_rejected
        );
        let _ = writeln!(
            s,
            "  vmi retries {} / speculation extensions {} / fallback rollbacks {} / quarantines {}",
            self.framework.vmi_retries,
            self.framework.speculation_extensions,
            self.framework.fallback_rollbacks,
            self.quarantines
        );
        let _ = writeln!(s, "  faults injected: {}", self.faults.total_hits());
        s.push('\n');
        s.push_str(&t.render());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_counters_are_exercised_and_rendered() {
        let r = run(400, 0x0b57_ac1e);
        assert_eq!(r.epochs, 400);
        assert!(r.committed > 200, "most epochs commit: {}", r.committed);
        assert!(r.extended > 0, "extensions must occur");
        assert!(r.attacks_detected > 0, "attacks must occur and be caught");
        assert!(r.faults.total_hits() > 0);
        let text = r.render(None);
        assert!(text.contains("Robustness soak: 400 epochs"));
        assert!(text.contains("fallback rollbacks"));
        for p in FaultPoint::ALL {
            assert!(text.contains(p.name()), "report missing {}", p.name());
        }
    }

    #[test]
    fn same_seed_reproduces_the_same_counters() {
        let a = run(120, 42);
        let b = run(120, 42);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.attacks_detected, b.attacks_detected);
        assert_eq!(a.faults, b.faults);
    }
}
