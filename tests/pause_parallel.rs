//! Determinism property of the pause window's sharded walk: for any
//! randomized guest activity — dirty writes, heap churn, injected
//! overflows — the epoch pipeline must produce **bit-identical** results
//! for every worker count: same audit findings, same committed backup
//! frames and disk, same combined digest. Every worker count runs the one
//! boundary (`pause_workers = 1` walks a single shard inline), so equality
//! between counts shows the shard geometry and the merge are exact, and
//! equality under every placement pin (all lent shards taken back by the
//! boundary's thread, none, none until its own shard is done) shows that
//! no result depends on which thread walked a shard — and,
//! because that alone would compare the pipeline with itself, every
//! committed epoch is also checked against references that are not the
//! pipeline: the backup must equal the guest's own memory and disk, pass
//! its own verification, and carry the checksum of that image recomputed
//! from scratch.

use crimes::detector::ScanFinding;
use crimes::modules::CanaryScanModule;
use crimes::{Crimes, CrimesConfig, EpochOutcome};
use crimes_checkpoint::image_digest;
use crimes_checkpoint::resident::{pin, Placement};
use crimes_rng::prop::{check, Config, Gen};
use crimes_vm::Vm;
use crimes_workloads::attacks;

mod watchdog;
use watchdog::Watchdog;

/// Worker counts under test: the inline single shard, an even split, the
/// bench default, and a count that does not divide typical dirty sets.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// One epoch of scripted guest activity.
#[derive(Debug, Clone)]
struct EpochScript {
    /// `(arena page, offset, value)` dirty writes.
    dirties: Vec<(u8, u16, u8)>,
    /// Inject a heap overflow of this overrun at the end of the epoch.
    overflow: Option<u8>,
}

fn gen_epoch(g: &mut Gen) -> EpochScript {
    EpochScript {
        dirties: g.vec(1..12, |g| (g.any_u8(), g.any_u16(), g.any_u8())),
        // Roughly one epoch in four is attacked.
        overflow: (g.int(0u8..4) == 0).then(|| g.int(1u8..24)),
    }
}

/// Everything observable about a run that must not depend on the worker
/// count.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    /// Per-epoch outcome tag: `C`ommitted or `A`ttack-detected.
    outcomes: Vec<char>,
    /// Findings of every failed audit, in epoch order.
    findings: Vec<ScanFinding>,
    committed_epochs: u64,
    frames: Vec<u8>,
    disk: Vec<u8>,
    digest: u64,
}

fn drive(dog: &Watchdog, workers: usize, placement: Placement, script: &[EpochScript]) -> Fingerprint {
    let _pin = pin(placement);
    let mut b = Vm::builder();
    b.pages(2048).seed(77);
    let vm = b.build();
    let mut cfg = CrimesConfig::builder();
    cfg.epoch_interval_ms(20).pause_workers(workers);
    let mut c = Crimes::protect(vm, cfg.build().expect("valid config")).expect("protect");
    let secret = c.vm().canary_secret();
    c.register_module(Box::new(CanaryScanModule::new(secret)));
    let pid = c.vm_mut().spawn_process("app", 0, 16).expect("spawn");
    // Warm-up commit so the process survives incident rollbacks.
    assert!(c.run_epoch(|_vm, _| Ok(())).expect("warm-up").is_committed());

    let mut fp = Fingerprint {
        outcomes: Vec::new(),
        findings: Vec::new(),
        committed_epochs: 0,
        frames: Vec::new(),
        disk: Vec::new(),
        digest: 0,
    };
    for (i, epoch) in script.iter().enumerate() {
        dog.at(workers, placement, i as u64);
        let outcome = c
            .run_epoch(|vm, ms| {
                for &(page, offset, val) in &epoch.dirties {
                    vm.dirty_arena_page(pid, page as usize % 16, offset as usize % 4096, val)?;
                }
                if let Some(overrun) = epoch.overflow {
                    attacks::inject_heap_overflow(vm, pid, 32, overrun as u64)?;
                }
                vm.advance_time(ms * 1_000_000);
                Ok(())
            })
            .expect("unfaulted epochs complete their boundary");
        match outcome {
            EpochOutcome::Committed { audit, .. } => {
                assert!(audit.passed());
                assert!(
                    epoch.overflow.is_none(),
                    "an attacked epoch must never commit (workers={workers})"
                );
                fp.outcomes.push('C');
                // Independent of any other worker count's run: the
                // commit must be the guest's image, verified and
                // checksummed as such.
                let cp = c.checkpointer();
                let (frames, disk) = (cp.backup().frames(), cp.backup().disk());
                assert_eq!(frames, c.vm().memory().dump_frames().as_slice(), "workers={workers}");
                assert_eq!(disk, c.vm().disk().dump().as_slice(), "workers={workers}");
                assert!(cp.verify_backup().is_ok(), "workers={workers}");
                assert_eq!(
                    cp.integrity().combined(),
                    image_digest(frames, disk),
                    "workers={workers}: commit checksum is not the image's"
                );
            }
            EpochOutcome::AttackDetected { audit, .. } => {
                assert!(
                    epoch.overflow.is_some(),
                    "detection without an injected overflow (workers={workers})"
                );
                fp.findings.extend(audit.findings);
                c.rollback_and_resume().expect("rollback");
                fp.outcomes.push('A');
            }
            EpochOutcome::Extended { .. } => {
                panic!("no faults armed: audits must be conclusive (workers={workers})")
            }
            EpochOutcome::Degraded { .. } => {
                panic!("degraded mode is disabled here: max_staged_backlog = 0 (workers={workers})")
            }
        }
    }
    fp.committed_epochs = c.committed_epochs();
    fp.frames = c.checkpointer().backup().frames().to_vec();
    fp.disk = c.checkpointer().backup().disk().to_vec();
    fp.digest = image_digest(&fp.frames, &fp.disk);
    fp
}

#[test]
fn any_worker_count_is_bit_identical_to_serial() {
    let dog = Watchdog::start("any_worker_count_is_bit_identical_to_serial");
    check(
        "any_worker_count_is_bit_identical_to_serial",
        Config::with_cases(8),
        |g: &mut Gen| {
            let script = g.vec(2..6, gen_epoch);
            let serial = drive(&dog, WORKER_COUNTS[0], Placement::Free, &script);
            for &workers in &WORKER_COUNTS[1..] {
                for placement in Placement::ALL {
                    let fused = drive(&dog, workers, placement, &script);
                    assert_eq!(
                        serial, fused,
                        "workers={workers} {placement:?} diverged from the serial boundary"
                    );
                }
            }
        },
    );
}

/// Pinned case: a multi-epoch script mixing clean and attacked epochs,
/// with a dirty set (13 pages) that 7 workers shard unevenly.
#[test]
fn pinned_uneven_shards_match_serial() {
    let dog = Watchdog::start("pinned_uneven_shards_match_serial");
    let script = vec![
        EpochScript {
            dirties: (0u8..13).map(|i| (i, u16::from(i) * 331, i.wrapping_mul(17))).collect(),
            overflow: None,
        },
        EpochScript {
            dirties: vec![(3, 9, 0xAA)],
            overflow: Some(8),
        },
        EpochScript {
            dirties: (0..5).map(|i| (i + 2, 40, 0x33)).collect(),
            overflow: None,
        },
    ];
    let serial = drive(&dog, 1, Placement::Free, &script);
    assert_eq!(serial.outcomes, vec!['C', 'A', 'C']);
    for &workers in &WORKER_COUNTS[1..] {
        for placement in Placement::ALL {
            assert_eq!(serial, drive(&dog, workers, placement, &script), "workers={workers} {placement:?}");
        }
    }
}
