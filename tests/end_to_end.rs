//! End-to-end integration tests: every attack class the paper evaluates,
//! driven through the public `crimes` API, with the paper's guarantees
//! asserted (detection within one epoch, zero external impact, clean
//! rollback, exact pinpointing).

use crimes::modules::{
    BlacklistScanModule, CanaryScanModule, CredIntegrityModule, HiddenProcessModule,
    ModuleAllowlistModule, SyscallTableModule,
};
use crimes::{Crimes, CrimesConfig, CrimesError, EpochOutcome};
use crimes_outbuf::{DiskWrite, NetPacket, Output, OutputScanner, SafetyMode};
use crimes_vm::layout::task_offsets;
use crimes_vm::{Gpa, Vm};
use crimes_vmi::{linux, VmiError, VmiSession};
use crimes_workloads::attacks::{self, attack_rips};
use crimes_workloads::{profile, ParsecWorkload};

fn guest(seed: u64) -> Vm {
    let mut b = Vm::builder();
    b.pages(8192).seed(seed);
    b.build()
}

fn protected(seed: u64, interval_ms: u64) -> Crimes {
    let mut cfg = CrimesConfig::builder();
    cfg.epoch_interval_ms(interval_ms);
    Crimes::protect(guest(seed), cfg.build().expect("valid config")).expect("protect")
}

#[test]
fn overflow_detected_within_one_epoch_and_pinpointed() {
    let mut c = protected(1, 50);
    let secret = c.vm().canary_secret();
    c.register_module(Box::new(CanaryScanModule::new(secret)));
    let pid = c.vm_mut().spawn_process("victim", 1000, 32).unwrap();
    assert!(c.run_epoch(|_, _| Ok(())).unwrap().is_committed());

    let outcome = c
        .run_epoch(|vm, _| {
            attacks::inject_heap_overflow(vm, pid, 128, 1)?; // single-byte overrun
            Ok(())
        })
        .unwrap();
    assert!(!outcome.is_committed(), "even 1-byte overruns are caught");

    let analysis = c.investigate().unwrap();
    let pin = analysis.pinpoint.expect("pinpoint");
    assert_eq!(pin.rip, attack_rips::HEAP_OVERFLOW);
    c.rollback_and_resume().unwrap();
}

#[test]
fn zero_window_of_vulnerability_for_exfiltration() {
    // The attack epoch writes loot to both network and disk; under
    // Synchronous Safety nothing escapes.
    let mut c = protected(2, 50);
    let secret = c.vm().canary_secret();
    c.register_module(Box::new(CanaryScanModule::new(secret)));
    let pid = c.vm_mut().spawn_process("victim", 1000, 32).unwrap();
    assert!(c.run_epoch(|_, _| Ok(())).unwrap().is_committed());

    assert!(c
        .submit_output(Output::Net(NetPacket::new(7, b"secrets".to_vec())))
        .expect("within limits")
        .is_none());
    assert!(c
        .submit_output(Output::Disk(DiskWrite::new(
            3,
            b"persisted backdoor".to_vec()
        )))
        .expect("within limits")
        .is_none());
    let outcome = c
        .run_epoch(|vm, _| {
            attacks::inject_heap_overflow(vm, pid, 64, 32)?;
            Ok(())
        })
        .unwrap();
    assert!(!outcome.is_committed());
    let discarded = {
        c.investigate().unwrap();
        c.rollback_and_resume().unwrap()
    };
    assert_eq!(discarded, 2, "both outputs must be discarded");
    let stats = c.buffer_stats();
    assert_eq!(stats.released, 0);
    assert_eq!(stats.discarded, 2);
    assert_eq!(
        stats.discarded_bytes,
        (b"secrets".len() + b"persisted backdoor".len()) as u64
    );
}

#[test]
fn malware_rootkit_and_hijack_all_detected_by_unaided_modules() {
    let mut c = protected(3, 50);
    {
        let session = VmiSession::init(c.vm()).unwrap();
        let syscall = SyscallTableModule::capture(&session, c.vm().memory()).unwrap();
        let allow = ModuleAllowlistModule::capture(&session, c.vm().memory()).unwrap();
        c.register_module(Box::new(BlacklistScanModule::bundled()));
        c.register_module(Box::new(HiddenProcessModule::new()));
        c.register_module(Box::new(syscall));
        c.register_module(Box::new(allow));
    }

    // 1. Malware process.
    let outcome = c
        .run_epoch(|vm, _| {
            attacks::inject_malware_launch(vm, "cryptolocker")?;
            Ok(())
        })
        .unwrap();
    let EpochOutcome::AttackDetected { audit, .. } = outcome else {
        panic!("malware must be detected")
    };
    assert!(audit
        .findings
        .iter()
        .any(|f| f.module == "malware-blacklist"));
    c.rollback_and_resume().unwrap();

    // 2. DKOM-hidden process.
    let outcome = c
        .run_epoch(|vm, _| {
            attacks::inject_rootkit_hide(vm, "stealthy")?;
            Ok(())
        })
        .unwrap();
    let EpochOutcome::AttackDetected { audit, .. } = outcome else {
        panic!("hidden process must be detected")
    };
    assert!(audit.findings.iter().any(|f| f.module == "hidden-process"));
    c.rollback_and_resume().unwrap();

    // 3. Syscall-table hijack.
    let outcome = c
        .run_epoch(|vm, _| {
            attacks::inject_syscall_hijack(vm, 200)?;
            Ok(())
        })
        .unwrap();
    let EpochOutcome::AttackDetected { audit, .. } = outcome else {
        panic!("hijack must be detected")
    };
    assert!(audit.findings.iter().any(|f| f.module == "syscall-table"));
    c.rollback_and_resume().unwrap();

    // 4. Rogue kernel module.
    let outcome = c
        .run_epoch(|vm, _| {
            vm.load_module("evil_lkm", 0x2000)?;
            Ok(())
        })
        .unwrap();
    let EpochOutcome::AttackDetected { audit, .. } = outcome else {
        panic!("rogue module must be detected")
    };
    assert!(audit
        .findings
        .iter()
        .any(|f| f.module == "module-allowlist"));
    c.rollback_and_resume().unwrap();
}

#[test]
fn rollback_restores_exact_pre_epoch_state() {
    let mut c = protected(4, 50);
    let secret = c.vm().canary_secret();
    c.register_module(Box::new(CanaryScanModule::new(secret)));
    let pid = c.vm_mut().spawn_process("app", 1000, 32).unwrap();
    let obj = c.vm_mut().malloc(pid, 64).unwrap();
    c.vm_mut().write_user(pid, obj, b"golden state", 0).unwrap();
    assert!(c.run_epoch(|_, _| Ok(())).unwrap().is_committed());
    let golden = c.vm().memory().dump_frames();

    // Attack epoch scribbles widely before tripping the canary.
    c.run_epoch(|vm, _| {
        for i in 0..16 {
            vm.dirty_arena_page(pid, i, 0, 0xee)?;
        }
        attacks::inject_heap_overflow(vm, pid, 32, 8)?;
        vm.spawn_process("dropper", 0, 2)?;
        Ok(())
    })
    .unwrap();
    c.investigate().unwrap();
    c.rollback_and_resume().unwrap();

    assert_eq!(
        c.vm().memory().dump_frames(),
        golden,
        "rollback must restore the committed image bit-for-bit"
    );
    // And the kernel view agrees: no dropper process.
    let session = VmiSession::init(c.vm()).unwrap();
    let tasks = linux::process_list(&session, c.vm().memory()).unwrap();
    assert!(!tasks.iter().any(|t| t.comm == "dropper"));
}

#[test]
fn clean_workload_commits_indefinitely_with_all_modules() {
    let mut c = protected(5, 100);
    let secret = c.vm().canary_secret();
    {
        let session = VmiSession::init(c.vm()).unwrap();
        let syscall = SyscallTableModule::capture(&session, c.vm().memory()).unwrap();
        c.register_module(Box::new(CanaryScanModule::new(secret)));
        c.register_module(Box::new(BlacklistScanModule::bundled()));
        c.register_module(Box::new(HiddenProcessModule::new()));
        c.register_module(Box::new(syscall));
    }
    let p = profile("vips").unwrap();
    let mut w = ParsecWorkload::launch(c.vm_mut(), p, 5).unwrap();
    for epoch in 0..8 {
        let outcome = c.run_epoch(|vm, ms| w.run_ms(vm, ms)).unwrap();
        assert!(outcome.is_committed(), "false positive at epoch {epoch}");
    }
    assert_eq!(c.committed_epochs(), 8);
}

#[test]
fn best_effort_detects_but_does_not_hold() {
    let mut cfg = CrimesConfig::builder();
    cfg.epoch_interval_ms(20).safety(SafetyMode::BestEffort);
    let mut c = Crimes::protect(guest(6), cfg.build().expect("valid config")).expect("protect");
    c.register_module(Box::new(BlacklistScanModule::bundled()));

    // Output passes through immediately…
    assert!(c
        .submit_output(Output::Net(NetPacket::new(1, vec![1])))
        .expect("best effort never overflows")
        .is_some());
    // …but the attack is still detected at the boundary.
    let outcome = c
        .run_epoch(|vm, _| {
            attacks::inject_malware_launch(vm, "zeus")?;
            Ok(())
        })
        .unwrap();
    assert!(!outcome.is_committed());
    c.rollback_and_resume().unwrap();
}

#[test]
fn consecutive_attacks_are_each_contained() {
    let mut c = protected(7, 50);
    let secret = c.vm().canary_secret();
    c.register_module(Box::new(CanaryScanModule::new(secret)));
    c.register_module(Box::new(BlacklistScanModule::bundled()));
    let pid = c.vm_mut().spawn_process("victim", 1000, 32).unwrap();
    assert!(c.run_epoch(|_, _| Ok(())).unwrap().is_committed());

    for round in 0..3 {
        let outcome = c
            .run_epoch(|vm, _| {
                if round % 2 == 0 {
                    attacks::inject_heap_overflow(vm, pid, 64, 8)?;
                } else {
                    attacks::inject_malware_launch(vm, "mirai")?;
                }
                Ok(())
            })
            .unwrap();
        assert!(!outcome.is_committed(), "round {round} must be detected");
        c.investigate().unwrap();
        c.rollback_and_resume().unwrap();
        // Interleave a clean epoch to prove the system recovered.
        assert!(c.run_epoch(|_, _| Ok(())).unwrap().is_committed());
    }
}

#[test]
fn rollback_reverts_disk_state_too() {
    // §3.1's disk-snapshot extension: an attack's dropped files disappear
    // with the rollback.
    let mut c = protected(9, 50);
    c.register_module(Box::new(BlacklistScanModule::bundled()));
    // Legitimate data committed before the attack.
    c.vm_mut()
        .write_disk(64, b"legitimate sector data")
        .unwrap();
    assert!(c.run_epoch(|_, _| Ok(())).unwrap().is_committed());

    let outcome = c
        .run_epoch(|vm, _| {
            attacks::inject_malware_launch(vm, "cryptolocker")?; // writes loot to sector 64
            vm.write_disk(65, b"ransom note")?;
            Ok(())
        })
        .unwrap();
    assert!(!outcome.is_committed());
    c.investigate().unwrap();
    c.rollback_and_resume().unwrap();

    // The committed write survives; the attack's writes are gone.
    assert_eq!(
        &c.vm().disk().read_sector(64)[..22],
        b"legitimate sector data"
    );
    assert!(c.vm().disk().read_sector(65).iter().all(|&b| b == 0));
}

#[test]
fn committed_disk_writes_survive_attack_cycles() {
    let mut c = protected(10, 50);
    c.register_module(Box::new(BlacklistScanModule::bundled()));
    for round in 0..3u8 {
        c.vm_mut()
            .write_disk(round as u64, &[round + 1; 8])
            .unwrap();
        assert!(c.run_epoch(|_, _| Ok(())).unwrap().is_committed());
        // Attack + rollback between commits.
        c.run_epoch(|vm, _| {
            attacks::inject_malware_launch(vm, "mirai")?;
            Ok(())
        })
        .unwrap();
        c.rollback_and_resume().unwrap();
    }
    for round in 0..3u8 {
        assert_eq!(
            c.vm().disk().read_sector(round as u64)[0],
            round + 1,
            "committed sector {round} lost"
        );
    }
}

#[test]
fn output_scanner_catches_exfiltration_before_release() {
    // §3.2's output-focused module: the held loot packet itself is the
    // evidence, even with no memory-scan module registered.
    let mut c = protected(11, 50);
    c.set_output_scanner(OutputScanner::with_default_signatures());

    // Clean traffic releases fine.
    c.submit_output(Output::Net(NetPacket::new(1, b"HTTP/1.1 200 OK".to_vec())))
        .expect("within limits");
    let outcome = c.run_epoch(|_, _| Ok(())).unwrap();
    let EpochOutcome::Committed { released, .. } = outcome else {
        panic!("clean traffic must commit");
    };
    assert_eq!(released.len(), 1);

    // A registry dump headed off-box fails the audit while still held.
    c.submit_output(Output::Net(NetPacket::new(
        2,
        b"POST /collect HKLM\\SAM hashdump".to_vec(),
    )))
    .expect("within limits");
    let outcome = c.run_epoch(|_, _| Ok(())).unwrap();
    let EpochOutcome::AttackDetected { audit, .. } = outcome else {
        panic!("exfiltration must be detected");
    };
    assert_eq!(audit.findings[0].module, "output-scan");
    assert_eq!(audit.findings[0].detection.category(), "suspicious-output");

    let analysis = c.investigate().unwrap();
    assert!(analysis.report.to_text().contains("Suspicious Output"));
    let discarded = c.rollback_and_resume().unwrap();
    assert_eq!(discarded, 1, "the loot packet never escaped");
}

#[test]
fn async_forensics_catches_what_sync_scans_miss() {
    // Only the cheap synchronous blacklist scan is registered; the rootkit
    // hides its blacklisted process from the task list, so every epoch
    // commits. The asynchronous deep sweep over the committed checkpoints
    // still finds it (the §5.3 future-work path this reproduction adds).
    let mut c = protected(12, 20);
    c.register_module(Box::new(BlacklistScanModule::bundled()));
    c.enable_async_forensics(1, crimes_workloads::Blacklist::bundled());

    let outcome = c
        .run_epoch(|vm, _| {
            let rec = attacks::inject_malware_launch(vm, "keylogd")?;
            let crimes_workloads::AttackRecord::MalwareLaunch { pid, .. } = rec else {
                unreachable!()
            };
            vm.hide_process(pid)?;
            Ok(())
        })
        .unwrap();
    assert!(
        outcome.is_committed(),
        "the hidden process evades the synchronous task-list scan"
    );

    // A couple more epochs while the worker sweeps.
    for _ in 0..2 {
        assert!(c.run_epoch(|_, _| Ok(())).unwrap().is_committed());
    }
    let results = c.drain_deferred_findings();
    assert!(!results.is_empty());
    let suspicious: Vec<_> = results.iter().filter(|r| !r.is_clean()).collect();
    assert!(
        !suspicious.is_empty(),
        "the deep sweep must flag the rootkit"
    );
    let modules: Vec<&str> = suspicious
        .iter()
        .flat_map(|r| r.findings.iter().map(|f| f.module.as_str()))
        .collect();
    assert!(modules.contains(&"async-psxview") || modules.contains(&"async-blacklist"));
}

#[test]
fn pending_incident_blocks_epochs_until_resolved() {
    let mut c = protected(8, 50);
    c.register_module(Box::new(BlacklistScanModule::bundled()));
    c.run_epoch(|vm, _| {
        attacks::inject_malware_launch(vm, "ransom32")?;
        Ok(())
    })
    .unwrap();
    assert!(c.has_pending_incident());
    assert!(matches!(
        c.run_epoch(|_, _| Ok(())),
        Err(CrimesError::InvalidState(_))
    ));
    // Investigation can run more than once (idempotent reads).
    let a1 = c.investigate().unwrap();
    let a2 = c.investigate().unwrap();
    assert_eq!(a1.findings.len(), a2.findings.len());
    c.rollback_and_resume().unwrap();
    assert!(c.run_epoch(|_, _| Ok(())).unwrap().is_committed());
}

#[test]
fn privilege_escalation_detected_and_reported() {
    let mut c = protected(13, 50);
    c.register_module(Box::new(CredIntegrityModule::new()));
    // Legitimate root and non-root processes pass.
    c.vm_mut().spawn_process("sshd", 0, 2).unwrap();
    c.vm_mut().spawn_process("www-data", 33, 2).unwrap();
    assert!(c.run_epoch(|_, _| Ok(())).unwrap().is_committed());

    let outcome = c
        .run_epoch(|vm, _| {
            attacks::inject_privilege_escalation(vm, "pwned-worker")?;
            Ok(())
        })
        .unwrap();
    let EpochOutcome::AttackDetected { audit, .. } = outcome else {
        panic!("escalation must be detected");
    };
    assert_eq!(audit.findings[0].detection.category(), "privilege-escalation");
    let analysis = c.investigate().unwrap();
    assert!(analysis.report.to_text().contains("Privilege Escalation"));
    assert!(analysis.report.to_text().contains("pwned-worker"));
    c.rollback_and_resume().unwrap();
    assert!(c.run_epoch(|_, _| Ok(())).unwrap().is_committed());
}

#[test]
fn forged_init_task_pointer_fails_the_epoch_closed_and_releases_nothing() {
    // A compromised guest points init_task's `next` a terabyte past the end
    // of its own memory. Every host read of that pointer is checked, so the
    // walk refuses it as a typed error instead of crashing the monitor,
    // and the audit fails closed: nothing commits, nothing is released.
    let mut c = protected(15, 50);
    let secret = c.vm().canary_secret();
    c.register_module(Box::new(BlacklistScanModule::bundled()));
    c.register_module(Box::new(CanaryScanModule::new(secret)));
    let pid = c.vm_mut().spawn_process("app", 0, 4).unwrap();
    c.vm_mut().malloc(pid, 64).unwrap();
    assert!(c.run_epoch(|_, _| Ok(())).unwrap().is_committed());

    assert!(c
        .submit_output(Output::Net(NetPacket::new(7, b"reply".to_vec())))
        .expect("within limits")
        .is_none());
    let next = c.vm().layout().task_slot(0).add(task_offsets::NEXT);
    let forged = Gpa(1 << 40).to_kernel_gva();
    let outcome = c
        .run_epoch(|vm, _| {
            vm.memory_mut().write_u64(next, forged.0);
            Ok(())
        })
        .unwrap();
    assert!(!outcome.is_committed());
    let EpochOutcome::AttackDetected { audit, .. } = outcome else {
        panic!("a forged task pointer must fail the audit: {outcome:?}");
    };
    assert!(
        audit
            .errors
            .iter()
            .any(|(_, e)| matches!(e, VmiError::OutOfImage(_))),
        "refused as out of the image: {:?}",
        audit.errors
    );
    assert_eq!(c.buffer_stats().released, 0);

    c.rollback_and_resume().unwrap();
    let stats = c.buffer_stats();
    assert_eq!((stats.released, stats.discarded), (0, 1), "reply discarded");
    assert!(c.run_epoch(|_, _| Ok(())).unwrap().is_committed());
}

#[test]
fn corrupted_kernel_structures_fail_the_audit_conservatively() {
    // An attacker who mangles the task list (e.g. a botched DKOM unlink)
    // breaks introspection itself. The audit must fail closed — a scan
    // error is treated as evidence, never as a pass.
    let mut c = protected(14, 50);
    c.register_module(Box::new(BlacklistScanModule::bundled()));
    let pid = c.vm_mut().spawn_process("app", 0, 2).unwrap();
    assert!(c.run_epoch(|_, _| Ok(())).unwrap().is_committed());

    // Scribble a non-kernel pointer over the task's NEXT field.
    let slot = c.vm().kernel().task_slot_of(pid).unwrap();
    let next_field = c
        .vm()
        .layout()
        .task_slot(slot)
        .add(crimes_vm::layout::task_offsets::NEXT);
    c.vm_mut().memory_mut().write_u64(next_field, 0x1337);

    let outcome = c.epoch_boundary().unwrap();
    let EpochOutcome::AttackDetected { audit, .. } = outcome else {
        panic!("a broken task list must fail the audit");
    };
    assert!(!audit.errors.is_empty(), "failure is via scan errors");
    // Rollback recovers the intact structures.
    c.rollback_and_resume().unwrap();
    let session = VmiSession::init(c.vm()).unwrap();
    assert!(linux::process_list(&session, c.vm().memory()).is_ok());
    assert!(c.run_epoch(|_, _| Ok(())).unwrap().is_committed());
}
