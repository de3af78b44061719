//! Case study 1 (§5.5): heap-overflow detection, rollback, replay, and
//! pinpointing — the Figure 8 timeline, end to end.
//!
//! A PARSEC-style workload runs inside the guest; 24.4 ms into an epoch a
//! 64-byte heap object is overflowed by 16 bytes, trampling its canary.
//! The end-of-epoch scan catches the dead canary, the Analyzer rolls the
//! VM back and replays the epoch under memory-event monitoring, and the
//! report names the exact instruction.
//!
//! ```sh
//! cargo run --example overflow_attack
//! ```

use std::time::{Duration, Instant};

use crimes::modules::CanaryScanModule;
use crimes::{Crimes, CrimesConfig, EpochOutcome};
use crimes_vm::Vm;
use crimes_workloads::attacks::{self, attack_rips};
use crimes_workloads::{profile, ParsecWorkload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut builder = Vm::builder();
    builder.pages(8192).seed(55);
    let vm = builder.build();
    let secret = vm.canary_secret();
    let mut config = CrimesConfig::builder();
    config.epoch_interval_ms(50);
    let mut crimes = Crimes::protect(vm, config.build()?)?;
    crimes.register_module(Box::new(CanaryScanModule::new(secret)));

    let swaptions = profile("swaptions").expect("bundled profile");
    let mut workload = ParsecWorkload::launch(crimes.vm_mut(), swaptions, 55)?;
    let victim = crimes.vm_mut().spawn_process("victim-app", 1000, 32)?;
    println!("guest: swaptions workload + victim-app; epochs: 50 ms\n");

    // Warm-up epoch so the clean checkpoint covers steady state.
    assert!(crimes
        .run_epoch(|vm, ms| workload.run_ms(vm, ms))?
        .is_committed());
    println!("epoch 0: clean, committed");

    // The attack epoch, mirroring Figure 8: the exploit fires at
    // t0 = 24.4 ms into the epoch.
    let mut attack_time_ns = 0;
    let outcome = crimes.run_epoch(|vm, ms| {
        workload.run_ms(vm, 24)?;
        vm.advance_time(400_000);
        attack_time_ns = vm.now_ns();
        attacks::inject_heap_overflow(vm, victim, 64, 16)?;
        workload.run_ms(vm, ms - 25)?;
        vm.advance_time(600_000);
        Ok(())
    })?;
    let EpochOutcome::AttackDetected { audit, report } = outcome else {
        unreachable!("the canary scan must fire");
    };
    let wait_ms = (crimes.vm().now_ns() - attack_time_ns) as f64 / 1e6;
    println!("epoch 1: AUDIT FAILED");
    println!("  attack ran undetected for {wait_ms:.1} ms of guest time (≤ epoch interval)");
    println!("  audit scan time: {:?}", audit.total_scan_time());
    let pause = Duration::from_nanos(report.phase_ns.iter().sum());
    println!("  pause window:    {pause:?}");
    println!("  every output of the epoch is still buffered — zero external impact");

    let t = Instant::now();
    let analysis = crimes.investigate()?;
    let elapsed = t.elapsed();
    let pin = analysis.pinpoint.as_ref().expect("pinpoint");
    println!("\nautomated forensics completed in {elapsed:?}:");
    println!("  dumps: last-good checkpoint, audit failure, attack instant");
    println!(
        "  replayed {} op(s); corrupting write at rip {:#x} (ground truth {:#x})",
        pin.ops_replayed,
        pin.rip,
        attack_rips::HEAP_OVERFLOW
    );
    println!(
        "  canary: {:02x?} -> {:02x?}",
        pin.canary_before, pin.canary_after
    );
    println!("  diff: {}", analysis.diff.summary());
    println!("\n{}", analysis.report.to_text());

    let discarded = crimes.rollback_and_resume()?;
    println!("rolled back; {discarded} buffered output(s) discarded; VM resumed clean");
    assert!(crimes
        .run_epoch(|vm, ms| workload.run_ms(vm, ms))?
        .is_committed());
    println!("epoch 2: clean, committed — protection continues");
    Ok(())
}
