//! Flight-recorder soundness under fault injection: for any fault-soak
//! seed, the event stream the flight recorder reads back from the
//! evidence journal must agree with the outcome each epoch actually
//! returned. The events are forensic evidence — a timeline that
//! contradicts the framework's behaviour would mislead the exact
//! investigation it exists to support — so every boundary result
//! (commit, detection, extension, failed commit, quarantine) is checked
//! against the last event it should have left in the journal.
//!
//! The run is deterministic per seed: `CRIMES_FAULT_SEED` reseeds the
//! schedule, and a companion test replays one seed twice and demands
//! bit-identical event sequences.

use crimes::modules::CanaryScanModule;
use crimes::{Crimes, CrimesConfig, CrimesError, EpochOutcome};
use crimes_faults::{install, FaultPlan, FaultPoint};
use crimes_outbuf::{NetPacket, Output};
use crimes_rng::ChaCha8Rng;
use crimes_telemetry::{Event, EventKind};
use crimes_vm::Vm;
use crimes_workloads::attacks;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Rates in parts per 1024 — every degraded mode fires over a few hundred
/// epochs while most epochs still commit.
fn plan() -> FaultPlan {
    FaultPlan::disabled()
        .with_rate(FaultPoint::VmiRead, 30)
        .with_rate(FaultPoint::PageCopy, 15)
        .with_rate(FaultPoint::BackupWrite, 15)
        .with_rate(FaultPoint::PageCorrupt, 8)
        .with_rate(FaultPoint::AuditOverrun, 25)
        .with_rate(FaultPoint::OutbufOverflow, 15)
}

/// A protected tenant plus a victim process. Even seeds use the fused
/// 4-worker boundary, odd seeds the serial one, so both pipelines feed
/// the recorder under the same plan.
fn tenant(seed: u64) -> (Crimes, u32) {
    let mut cfg = CrimesConfig::builder();
    cfg.epoch_interval_ms(10);
    cfg.history_depth(3);
    cfg.pause_workers(if seed.is_multiple_of(2) { 4 } else { 1 });
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

fn last_event(c: &Crimes) -> Event {
    let last = c.flight_recorder().events().last().expect("a boundary always records events");
    // A returned boundary has flushed everything: the reader's newest
    // event is the journal's.
    assert_eq!(c.journal().recent_events(1).last(), Some(last), "the event is journaled");
    last
}

/// Drive `epochs` epochs under the armed plan, asserting after every
/// boundary that the journal's newest event matches the returned
/// outcome. Returns the per-epoch event log (kind + payload, no
/// timestamps) for determinism comparison.
fn drive(seed: u64, epochs: u64) -> Vec<String> {
    let _scope = install(plan(), seed);
    let mut driver = ChaCha8Rng::seed_from_u64(seed ^ 0xf11e);
    let (mut c, pid) = tenant(seed);
    let mut log = Vec::new();
    let mut attack_pending = false;
    for epoch in 0..epochs {
        if driver.gen_range(0..4) != 0 {
            match c.submit_output(Output::Net(NetPacket::new(epoch, vec![epoch as u8; 16]))) {
                Ok(None) | Err(CrimesError::BufferOverflow { .. }) => {}
                Ok(Some(_)) => panic!("epoch {epoch}: synchronous mode released at submit"),
                Err(e) => panic!("epoch {epoch}: unexpected submit error: {e}"),
            }
        }
        let attack = !attack_pending && driver.gen_range(0..100) < 6;
        let boundary_epoch = c.checkpointer().backup().epoch();
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
        let last = last_event(&c);
        assert_eq!(
            last.epoch, boundary_epoch,
            "epoch {epoch}: the newest event must belong to the boundary just run"
        );
        log.push(format!("{boundary_epoch}:{}", last.kind));
        match result {
            Ok(EpochOutcome::Committed { released, .. }) => {
                assert!(
                    matches!(last.kind, EventKind::Committed { .. }),
                    "epoch {epoch}: committed outcome must end in a committed event, got {}",
                    last.kind
                );
                assert_eq!(last.kind.arg(), Some(released.len() as u64));
            }
            Ok(EpochOutcome::AttackDetected { audit, .. }) => {
                assert!(matches!(last.kind, EventKind::AttackDetected { .. }));
                assert_eq!(last.kind.arg(), Some(audit.findings.len() as u64));
                match c.rollback_and_resume() {
                    Ok(discarded) => {
                        let after = last_event(&c);
                        assert!(matches!(after.kind, EventKind::RollbackResumed { .. }));
                        assert_eq!(after.kind.arg(), Some(discarded as u64));
                        log.push(format!("{boundary_epoch}:{}", after.kind));
                        attack_pending = false;
                    }
                    Err(CrimesError::Quarantined { .. }) => {
                        assert!(matches!(last_event(&c).kind, EventKind::Quarantined));
                        log.push("quarantined".into());
                        break;
                    }
                    Err(e) => panic!("epoch {epoch}: rollback failed: {e}"),
                }
            }
            Ok(EpochOutcome::Extended { consecutive, .. }) => {
                assert!(matches!(last.kind, EventKind::Extended { .. }));
                assert_eq!(last.kind.arg(), Some(u64::from(consecutive)));
            }
            Ok(EpochOutcome::Degraded { .. }) => {
                unreachable!("epoch {epoch}: degraded mode is disabled here (max_staged_backlog = 0)")
            }
            Err(CrimesError::Exhausted { .. }) => {
                // Failed commit: the framework discarded the speculation,
                // rolled back, and resumed — the timeline must show the
                // whole recovery, ending with the resume.
                assert!(matches!(last.kind, EventKind::RollbackResumed { .. }));
                assert!(
                    c.flight_recorder()
                        .events_for_epoch(boundary_epoch)
                        .any(|e| matches!(e.kind, EventKind::CommitFailure)),
                    "epoch {epoch}: a failed commit must be recorded before its rollback"
                );
                // The attack (if any) was discarded with the speculation.
                attack_pending = false;
            }
            Err(CrimesError::Quarantined { .. }) => {
                assert!(matches!(last.kind, EventKind::Quarantined));
                log.push("quarantined".into());
                break;
            }
            Err(e) => panic!("epoch {epoch}: unexpected epoch error: {e}"),
        }
    }
    log
}

#[test]
fn recorder_events_match_epoch_outcomes_across_seeds() {
    let base = env_u64("CRIMES_FAULT_SEED", 0x5eed_fa11);
    for seed in [base, base ^ 3, base ^ 14] {
        let log = drive(seed, 150);
        assert!(
            log.iter().any(|l| l.contains("committed")),
            "seed {seed}: some epochs must commit; log tail: {:?}",
            &log[log.len().saturating_sub(5)..]
        );
    }
}

#[test]
fn recorder_event_sequence_is_deterministic_per_seed() {
    let seed = env_u64("CRIMES_FAULT_SEED", 0x5eed_fa11);
    let first = drive(seed, 120);
    let second = drive(seed, 120);
    assert_eq!(
        first, second,
        "the same seed must produce the same event sequence"
    );
}
