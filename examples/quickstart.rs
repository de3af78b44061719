//! Quickstart: protect a VM, run clean epochs, catch a heap overflow.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::time::Duration;

use crimes::modules::{BlacklistScanModule, CanaryScanModule, NoopScanModule};
use crimes::{Crimes, CrimesConfig, EpochOutcome};
use crimes_outbuf::{NetPacket, Output};
use crimes_vm::Vm;
use crimes_workloads::attacks;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Boot a simulated guest: 32 MiB, 2 vCPUs, seeded for determinism.
    let mut builder = Vm::builder();
    builder.pages(8192).vcpus(2).seed(2018);
    let vm = builder.build();
    let canary_secret = vm.canary_secret();

    // 2. Protect it: 50 ms epochs, synchronous safety (outputs buffered
    //    until each audit passes), full checkpoint optimisations.
    let mut config = CrimesConfig::builder();
    config.epoch_interval_ms(50);
    let mut crimes = Crimes::protect(vm, config.build()?)?;
    crimes.register_module(Box::new(CanaryScanModule::new(canary_secret)));
    crimes.register_module(Box::new(BlacklistScanModule::bundled()));
    crimes.register_module(Box::new(NoopScanModule::new()));
    println!("protecting guest with 50 ms epochs; modules: canary, blacklist, noop");

    // 3. Run a guest application through a few clean epochs.
    let pid = crimes.vm_mut().spawn_process("webapp", 1000, 64)?;
    for epoch in 0..3 {
        crimes.submit_output(Output::Net(NetPacket::new(1, format!("response {epoch}"))))?;
        let outcome = crimes.run_epoch(|vm, ms| {
            let buf = vm.malloc(pid, 256)?;
            vm.write_user(pid, buf, b"legitimate work", 0x40_1000)?;
            vm.free(pid, buf)?;
            vm.advance_time(ms * 1_000_000);
            Ok(())
        })?;
        let EpochOutcome::Committed {
            report, released, ..
        } = outcome
        else {
            unreachable!("clean epochs commit");
        };
        println!(
            "epoch {epoch}: committed ({} dirty pages, pause {:?}, {} output(s) released)",
            report.dirty_pages,
            Duration::from_nanos(report.phase_ns.iter().sum()),
            released.len()
        );
    }

    // 4. An attacker overflows a 64-byte heap buffer by 16 bytes.
    let outcome = crimes.run_epoch(|vm, ms| {
        attacks::inject_heap_overflow(vm, pid, 64, 16)?;
        vm.advance_time(ms * 1_000_000);
        Ok(())
    })?;
    let EpochOutcome::AttackDetected { audit, .. } = outcome else {
        unreachable!("the canary scan catches the overflow");
    };
    println!(
        "\nATTACK DETECTED by module '{}' at the epoch boundary",
        audit.findings[0].module
    );

    // 5. Automated response: dumps, replay, pinpoint, report.
    let analysis = crimes.investigate()?;
    let pin = analysis
        .pinpoint
        .as_ref()
        .expect("replay pinpoints the write");
    println!(
        "replay pinpointed the corrupting write: rip={:#x}, op #{}",
        pin.rip, pin.op_index
    );
    println!("\n{}", analysis.report.to_text());

    // 6. Roll back: the attack never left the machine.
    let discarded = crimes.rollback_and_resume()?;
    println!("rolled back to the last clean checkpoint; {discarded} buffered output(s) discarded");
    println!("buffer stats: {:?}", crimes.buffer_stats());
    Ok(())
}
