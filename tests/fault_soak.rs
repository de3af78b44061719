//! Fault soak: thousands of epochs under a seeded fault plan, asserting
//! the fail-closed invariants hold no matter what the injector throws at
//! the pipeline:
//!
//! * **No output escapes an unaudited epoch.** Outputs only ever leave
//!   through [`EpochOutcome::Committed`], and an epoch whose guest was
//!   attacked must never commit — extensions, copy failures, and
//!   quarantines all keep the speculation contained.
//! * **The VM is always recoverable to checksum-verified state.** Every
//!   rollback (incident response or failed commit) lands on a backup
//!   image that passes [`verify_backup`], bit-identical to the guest.
//! * **Quarantine is terminal and impounds.** A quarantined tenant
//!   rejects all further work; its held outputs are neither released nor
//!   discarded.
//!
//! The run is deterministic: `CRIMES_FAULT_SEED` seeds both the fault
//! injector and the driver's attack schedule, so a failure replays
//! bit-exactly. `CRIMES_SOAK_EPOCHS` scales the length (default 2,000).
//! At the end the injector's counters must show every named fault point
//! fired at least once — otherwise the soak proved nothing about the
//! paths it claims to cover.
//!
//! [`verify_backup`]: crimes_checkpoint::Checkpointer::verify_backup

use crimes::modules::{CanaryScanModule, HiddenProcessModule};
use crimes::{Crimes, CrimesConfig, CrimesError, EpochOutcome};
use crimes_checkpoint::resident::{pin, Placement};
use crimes_faults::{install, FaultPlan, FaultPoint};
use crimes_outbuf::{NetPacket, Output};
use crimes_rng::ChaCha8Rng;
use crimes_telemetry::{Clock, Counter, RealClock, TestClock};
use crimes_vm::Vm;
use std::sync::Arc;
use crimes_workloads::attacks;

const DEFAULT_SEED: u64 = 0x5eed_fa11;
const DEFAULT_EPOCHS: u64 = 2_000;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Rates in parts per 1024, tuned so every point fires many times over
/// 2,000 epochs while most epochs still commit. `BackupDrain` only fires
/// in the deferred pipeline's out-of-window drain, and a drain only fails
/// once retries are exhausted, so its rate is much higher than the rest:
/// the soak must reach the drain-failure recovery path, not just the
/// first-retry-succeeds happy path.
fn soak_plan() -> FaultPlan {
    FaultPlan::disabled()
        .with_rate(FaultPoint::VmiRead, 30)
        .with_rate(FaultPoint::PageCopy, 20)
        .with_rate(FaultPoint::BackupWrite, 20)
        .with_rate(FaultPoint::BackupDrain, 300)
        // Outages refuse the drain-session handshake before any page
        // moves; with retries the session usually reconnects, so the rate
        // mostly exercises the resync path rather than hard failures.
        .with_rate(FaultPoint::BackupOutage, 120)
        .with_rate(FaultPoint::PageCorrupt, 10)
        .with_rate(FaultPoint::AuditOverrun, 25)
        .with_rate(FaultPoint::ReplayDiverge, 200)
        .with_rate(FaultPoint::OutbufOverflow, 20)
}

/// A protected tenant plus its victim process. Admission itself runs
/// introspection, so under the armed plan it may need a few tries.
/// Tenant seeds rotate through three configurations of the boundary —
/// a 4-worker walk, a one-worker walk, and the deferred sink (staged
/// copy drained after resume) — so the soak exercises all of them under
/// the same fault plan.
fn tenant(seed: u64) -> (Crimes, u32) {
    let mut cfg = CrimesConfig::builder();
    cfg.epoch_interval_ms(10);
    cfg.history_depth(3);
    cfg.retain_history_images(true);
    match seed % 3 {
        0 => {
            cfg.pause_workers(4);
        }
        1 => {
            cfg.pause_workers(1);
        }
        _ => {
            cfg.pause_workers(2);
            cfg.staging_buffers(2);
        }
    }
    tenant_with(seed, cfg.build().expect("valid config"), || {
        Arc::new(RealClock::new())
    })
}

/// [`tenant`] with the configuration and the clock given.
fn tenant_with(
    seed: u64,
    cfg: CrimesConfig,
    clock: impl Fn() -> Arc<dyn Clock>,
) -> (Crimes, u32) {
    let mut c = loop {
        let mut b = Vm::builder();
        b.pages(1024).seed(seed);
        let vm = b.build();
        match Crimes::protect_with_clock(vm, cfg, clock()) {
            Ok(c) => break c,
            Err(CrimesError::Vmi(crimes_vmi::VmiError::TransientReadFault)) => continue,
            Err(e) => panic!("protect failed hard: {e}"),
        }
    };
    let secret = c.vm().canary_secret();
    c.register_module(Box::new(CanaryScanModule::new(secret)));
    c.register_module(Box::new(HiddenProcessModule::new()));
    let pid = c
        .vm_mut()
        .spawn_process("workload", 700, 16)
        .expect("spawn victim");
    (c, pid)
}

/// Replace a dead/quarantined tenant with a fresh one whose spawned
/// process has been made durable by a committed warm-up epoch. The fault
/// plan stays armed, so warm-up itself may need several tries.
fn replacement_tenant(generation: &mut u64) -> (Crimes, u32) {
    warmed_tenant(generation, tenant)
}

/// [`replacement_tenant`] over any way of making a tenant from a seed.
fn warmed_tenant(generation: &mut u64, make: impl Fn(u64) -> (Crimes, u32)) -> (Crimes, u32) {
    loop {
        *generation += 1;
        let (mut c, pid) = make(900 + *generation);
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
                Ok(_) => continue,                // extension: try again
                Err(CrimesError::Exhausted { .. }) => continue, // rolled back, retry
                Err(_) => break,                  // quarantined: new tenant
            }
        }
        if warmed {
            return (c, pid);
        }
    }
}

/// After any rollback the guest must sit on checksum-verified state,
/// bit-identical to the backup image it was restored from.
fn assert_recovered(c: &Crimes, epoch: u64) {
    c.checkpointer()
        .verify_backup()
        .expect("restored backup must be checksum-verified");
    assert!(
        c.vm().memory().dump_frames().as_slice() == c.checkpointer().backup().frames(),
        "epoch {epoch}: guest memory must match the verified backup after rollback"
    );
    assert!(
        c.vm().disk().dump().as_slice() == c.checkpointer().backup().disk(),
        "epoch {epoch}: guest disk must match the verified backup after rollback"
    );
}

#[test]
fn soak_fail_closed_under_injected_faults() {
    let seed = env_u64("CRIMES_FAULT_SEED", DEFAULT_SEED);
    let epochs = env_u64("CRIMES_SOAK_EPOCHS", DEFAULT_EPOCHS);
    let _scope = install(soak_plan(), seed);
    let mut driver = ChaCha8Rng::seed_from_u64(seed ^ 0xd21_4e55);

    let mut generation = 0u64;
    let (mut c, mut pid) = replacement_tenant(&mut generation);

    let mut attack_pending = false;
    let mut committed = 0u64;
    let mut extended = 0u64;
    let mut attacks_launched = 0u64;
    let mut attacks_detected = 0u64;
    let mut attacks_discarded = 0u64;
    let mut degraded_analyses = 0u64;
    let mut commit_failures = 0u64;
    let mut drain_failures = 0u64;
    let mut quarantines = 0u64;
    let mut overflows = 0u64;
    let mut released_total = 0u64;
    let mut discarded_total = 0u64;

    for epoch in 0..epochs {
        // Offer an output most epochs; backpressure (real or injected) is
        // a clean rejection, never a silent drop into the world.
        if driver.gen_range(0..4) != 0 {
            match c.submit_output(Output::Net(NetPacket::new(epoch, vec![epoch as u8; 24]))) {
                Ok(None) => {}
                Ok(Some(_)) => panic!("epoch {epoch}: synchronous mode released at submit"),
                Err(CrimesError::BufferOverflow { .. }) => overflows += 1,
                Err(e) => panic!("epoch {epoch}: unexpected submit error: {e}"),
            }
        }

        let attack = !attack_pending && driver.gen_range(0..100) < 5;
        if attack {
            attacks_launched += 1;
        }
        let result = c.run_epoch(|vm, ms| {
            let obj = vm.malloc(pid, 48)?;
            vm.write_user(pid, obj, &[epoch as u8; 48], 0x1000)?;
            vm.free(pid, obj)?;
            vm.write_disk(epoch % 16, &[epoch as u8; 32])?;
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
                assert!(
                    !attack_pending,
                    "epoch {epoch}: an epoch with a trampled canary must never commit"
                );
                // Output-commit: a release always follows its epoch's
                // evidence becoming durable on the backup. In the deferred
                // pipeline that means the drain acked (no staged slot in
                // flight) before anything left the buffer.
                assert_eq!(
                    c.checkpointer().drains_in_flight(),
                    0,
                    "epoch {epoch}: outputs released with a drain still in flight"
                );
                assert_eq!(
                    c.checkpointer().backup().epoch(),
                    c.committed_epochs(),
                    "epoch {epoch}: a release preceded its epoch's backup ack"
                );
                committed += 1;
                released_total += released.len() as u64;
            }
            Ok(EpochOutcome::AttackDetected { audit, .. }) => {
                assert!(
                    attack_pending,
                    "epoch {epoch}: detection fired without an injected attack"
                );
                assert!(!audit.findings.is_empty(), "a detection carries evidence");
                attacks_detected += 1;
                // Forensics is best-effort under faults: it may degrade
                // (no pinpoint) or fail outright on persistent transient
                // reads — but it must never block containment below.
                match c.investigate() {
                    Ok(analysis) => {
                        if analysis.replay_degraded.is_some() {
                            degraded_analyses += 1;
                        }
                    }
                    Err(CrimesError::Vmi(crimes_vmi::VmiError::TransientReadFault)) => {
                        degraded_analyses += 1;
                    }
                    Err(e) => panic!("epoch {epoch}: investigation failed hard: {e}"),
                }
                match c.rollback_and_resume() {
                    Ok(discarded) => {
                        discarded_total += discarded as u64;
                        assert_recovered(&c, epoch);
                        attack_pending = false;
                    }
                    Err(CrimesError::Quarantined { .. }) => {
                        quarantines += 1;
                        assert_impounded(&mut c, epoch);
                        (c, pid) = replacement_tenant(&mut generation);
                        attack_pending = false;
                    }
                    Err(e) => panic!("epoch {epoch}: rollback failed: {e}"),
                }
            }
            Ok(EpochOutcome::Extended { consecutive, .. }) => {
                // Fail closed without failing the guest: nothing released,
                // speculation (and the attack, if any) stays contained.
                assert!(consecutive >= 1);
                extended += 1;
            }
            Ok(EpochOutcome::Degraded { .. }) => {
                unreachable!(
                    "epoch {epoch}: degraded mode is disabled here (max_staged_backlog = 0)"
                )
            }
            Err(CrimesError::Exhausted { .. }) => {
                // Copy retries exhausted: the framework already discarded
                // the speculation and rolled back to verified state.
                if attack_pending {
                    // The copy rides the walk *before* the verdict, at
                    // any worker count, so exhaustion can preempt
                    // detection. The rollback discarded the attacked
                    // speculation whole.
                    attacks_discarded += 1;
                    attack_pending = false;
                }
                assert!(!c.is_quarantined());
                commit_failures += 1;
                assert_recovered(&c, epoch);
            }
            Err(
                CrimesError::Timeout {
                    what: "backup drain",
                    ..
                }
                | CrimesError::Checkpoint(crimes_checkpoint::CheckpointError::DrainFault {
                    ..
                })
                | CrimesError::Checkpoint(
                    crimes_checkpoint::CheckpointError::BackupUnreachable { .. },
                ),
            ) => {
                // BackupDrain/BackupOutage exhausted the deferred drain's
                // retries: the
                // staged epoch (and every output gated on its ack) was
                // destroyed, and the guest rolled back to verified state.
                assert!(
                    c.config().checkpoint.staging_buffers > 0,
                    "epoch {epoch}: only the deferred pipeline drains out of window"
                );
                assert!(
                    !attack_pending,
                    "epoch {epoch}: the drain only runs after the in-window audit passed"
                );
                assert!(!c.is_quarantined());
                drain_failures += 1;
                assert_recovered(&c, epoch);
            }
            Err(CrimesError::Quarantined { .. }) => {
                quarantines += 1;
                assert_impounded(&mut c, epoch);
                (c, pid) = replacement_tenant(&mut generation);
                attack_pending = false;
            }
            Err(e) => panic!("epoch {epoch}: unexpected epoch error: {e}"),
        }
    }

    let stats = c.robustness_stats();
    let counters = crimes_faults::counters();
    println!(
        "soak: {epochs} epochs (committed {committed}, extended {extended}), \
         {attacks_detected}/{attacks_launched} attacks detected \
         ({attacks_discarded} discarded with their speculation), \
         {degraded_analyses} degraded analyses, {commit_failures} commit failures, \
         {drain_failures} drain failures, {quarantines} quarantines, {} tenant generations; \
         released {released_total}, discarded {discarded_total}, rejected {overflows}; \
         injected {} faults; live tenant: {} vmi retries, {} fallback rollbacks",
        generation,
        counters.total_hits(),
        stats.vmi_retries,
        stats.fallback_rollbacks,
    );

    assert_eq!(
        attacks_detected + attacks_discarded,
        attacks_launched,
        "every injected attack must be caught at a boundary or discarded with its speculation"
    );
    assert!(committed > epochs / 2, "most epochs should still commit");
    assert!(
        extended > 0,
        "the plan's overrun/VMI rates must exercise speculation extension"
    );
    assert!(
        counters.all_points_hit(),
        "every fault point must fire at least once; hits per point: {:?}",
        FaultPoint::ALL
            .iter()
            .map(|&p| (p.name(), counters.hits(p)))
            .collect::<Vec<_>>()
    );
}

/// Fleet-level soak: the fleet scheduler drives rounds over a shared
/// pause-window pool while the same fault plan hammers every tenant.
/// Scheduler-specific fail-closed invariants:
///
/// * a round never aborts — per-tenant failures land in the summary's
///   `quarantined`/`errored` buckets and the other tenants still run;
/// * an attacked tenant never appears in `committed` while its attack is
///   outstanding — it is detected, discarded with its speculation, or
///   stays contained in an extension;
/// * the shared pool never grants more leases than its capacity.
///
/// `CRIMES_FLEET_SOAK_ROUNDS` scales the length (default 150 rounds of 4
/// tenants); `CRIMES_FAULT_SEED` replays a failure bit-exactly (faults
/// are thread-local, so the scheduler runs its drains inline here).
#[test]
fn fleet_soak_scheduler_fail_closed_under_injected_faults() {
    use crimes::modules::BlacklistScanModule;
    use crimes::{Fleet, FleetScheduler, FleetSchedulerConfig};
    use std::collections::BTreeMap;

    let seed = env_u64("CRIMES_FAULT_SEED", DEFAULT_SEED);
    let rounds = env_u64("CRIMES_FLEET_SOAK_ROUNDS", 150);
    let _scope = install(soak_plan(), seed ^ 0xf1ee);
    let mut driver = ChaCha8Rng::seed_from_u64(seed ^ 0x0f1e_e750);

    let fleet_config = |i: u64| {
        let mut cfg = CrimesConfig::builder();
        cfg.epoch_interval_ms(10).external_pool(true);
        match i % 3 {
            0 => {
                cfg.pause_workers(4);
            }
            1 => {
                cfg.pause_workers(1);
            }
            _ => {
                cfg.pause_workers(2).staging_buffers(2);
            }
        }
        cfg.build().expect("valid config")
    };
    let fresh_tenant = |fleet: &mut Fleet, name: &str, generation: u64| {
        let mut b = Vm::builder();
        b.pages(1024).seed(3_000 + generation);
        fleet.remove_vm(name);
        let crimes = fleet
            .add_vm(name, b.build(), fleet_config(generation))
            .expect("add tenant");
        crimes.register_module(Box::new(BlacklistScanModule::bundled()));
    };

    let names: Vec<String> = (0..4).map(|i| format!("tenant-{i}")).collect();
    let mut fleet = Fleet::new();
    let mut generation = 0u64;
    for name in &names {
        generation += 1;
        fresh_tenant(&mut fleet, name, generation);
    }
    let mut sched = FleetScheduler::for_fleet(
        &fleet,
        FleetSchedulerConfig {
            max_concurrent_pauses: 2,
            pool_workers: 4,
            overlap_drains: true,
        },
    );

    let mut attack_pending: BTreeMap<String, bool> =
        names.iter().map(|n| (n.clone(), false)).collect();
    let mut committed = 0u64;
    let mut attacks_launched = 0u64;
    let mut attacks_detected = 0u64;
    let mut attacks_discarded = 0u64;

    for round in 0..rounds {
        // Schedule fresh attacks on tenants without one outstanding.
        let mut attack_now: Vec<String> = Vec::new();
        for name in &names {
            if !attack_pending[name] && driver.gen_range(0..100) < 5 {
                attack_now.push(name.clone());
                attacks_launched += 1;
            }
        }
        let summary = sched
            .run_round(&mut fleet, |name, vm, ms| {
                vm.write_disk(round % 16, &[round as u8; 32])?;
                if attack_now.iter().any(|n| n == name) {
                    attacks::inject_malware_launch(vm, "mirai")?;
                }
                vm.advance_time(ms * 1_000_000);
                Ok(())
            })
            .expect("a fleet round never aborts on per-tenant failures");
        for name in attack_now {
            attack_pending.insert(name, true);
        }

        for name in &summary.committed {
            assert!(
                !attack_pending[name],
                "round {round}: {name} committed with an attack outstanding"
            );
            committed += 1;
        }
        for name in &summary.degraded {
            // The drain only runs after the in-window audit passed.
            assert!(
                !attack_pending[name],
                "round {round}: {name} degraded with an attack outstanding"
            );
        }
        for name in summary.new_incidents.clone() {
            assert!(
                attack_pending[&name],
                "round {round}: {name} detected without an injected attack"
            );
            attacks_detected += 1;
            // Zero-touch response; forensics is best-effort under faults.
            match fleet.investigate(&name) {
                Ok(_) | Err(CrimesError::Vmi(crimes_vmi::VmiError::TransientReadFault)) => {}
                Err(e) => panic!("round {round}: investigation failed hard: {e}"),
            }
            match fleet.rollback_and_resume(&name) {
                Ok(_) => {
                    attack_pending.insert(name, false);
                }
                Err(CrimesError::Quarantined { .. }) => {
                    generation += 1;
                    fresh_tenant(&mut fleet, &name, generation);
                    attack_pending.insert(name, false);
                }
                Err(e) => panic!("round {round}: rollback failed: {e}"),
            }
        }
        for (name, _e) in summary.errored.clone() {
            // Copy/drain exhaustion rolled the tenant back to verified
            // state; an attack in flight was discarded with the
            // speculation.
            if attack_pending[&name] {
                attacks_discarded += 1;
                attack_pending.insert(name, false);
            }
        }
        for name in summary
            .quarantined
            .iter()
            .chain(summary.skipped_quarantined.iter())
            .cloned()
            .collect::<Vec<_>>()
        {
            if attack_pending[&name] {
                attacks_discarded += 1;
            }
            generation += 1;
            fresh_tenant(&mut fleet, &name, generation);
            attack_pending.insert(name, false);
        }
        // Extensions keep their attack contained and outstanding.
    }

    let stats = sched.stats();
    println!(
        "fleet soak: {rounds} rounds x {} tenants, {committed} commits, \
         {attacks_detected}/{attacks_launched} attacks detected \
         ({attacks_discarded} discarded with their speculation), \
         {} tenant generations, {} pool leases (peak {})",
        names.len(),
        generation,
        stats.total_leases,
        stats.peak_leases,
    );
    assert_eq!(stats.rounds, rounds);
    assert!(
        stats.peak_leases <= stats.capacity,
        "the shared pool over-granted leases"
    );
    assert_eq!(
        attacks_detected + attacks_discarded,
        attacks_launched,
        "every injected attack must be caught at a boundary or discarded with its speculation"
    );
    assert!(committed > 0, "the fleet must make progress under faults");
}

/// What one soaked tenant lineage leaves behind: everything that must not
/// depend on which thread did what.
struct SoakRun {
    /// Outcome per epoch (and per rollback).
    outcomes: Vec<String>,
    /// Journal bytes, then backup image, of every tenant generation.
    images: Vec<Vec<u8>>,
    /// `(point, draws, hits)` over the whole run, walk forks absorbed.
    faults: Vec<(&'static str, u64, u64)>,
    acks: u64,
}

/// Soak a lineage of tenants (a quarantined one is replaced) under `plan`
/// with the walk's lent shards pinned to `placement`. Comes back with the
/// run, the pages its drains found head-started and the cipher bytes they
/// lent a worker, which are a matter of timing.
fn one_soak(
    pause_workers: usize,
    staging_buffers: usize,
    placement: Placement,
    plan: FaultPlan,
) -> (SoakRun, u64, u64) {
    let seed = env_u64("CRIMES_FAULT_SEED", DEFAULT_SEED);
    let epochs = env_u64("CRIMES_SOAK_EPOCHS", DEFAULT_EPOCHS) / 4;
    let _pin = pin(placement);
    let _scope = install(plan, seed);
    let mut driver = ChaCha8Rng::seed_from_u64(seed ^ 0xd21_4e55);
    let mut cfg = CrimesConfig::builder();
    cfg.epoch_interval_ms(10)
        .history_depth(3)
        .retain_history_images(true)
        .pause_workers(pause_workers)
        .staging_buffers(staging_buffers)
        .delta_threshold(64)
        .dedup(true);
    let cfg = cfg.build().expect("valid config");
    let mut generation = 0u64;
    let mut tenant = || {
        warmed_tenant(&mut generation, |seed| {
            tenant_with(seed, cfg, || Arc::new(TestClock::new()))
        })
    };
    let (mut c, mut pid) = tenant();

    let mut run = SoakRun {
        outcomes: Vec::new(),
        images: Vec::new(),
        faults: Vec::new(),
        acks: 0,
    };
    let (mut head_started, mut cipher_lent) = (0u64, 0u64);
    for epoch in 0..epochs {
        if driver.gen_range(0..4) != 0 {
            let _ = c.submit_output(Output::Net(NetPacket::new(epoch, vec![epoch as u8; 24])));
        }
        let attack = driver.gen_range(0..100) < 5;
        let result = c.run_epoch(|vm, ms| {
            let obj = vm.malloc(pid, 48)?;
            vm.write_user(pid, obj, &[epoch as u8; 48], 0x1000)?;
            vm.free(pid, obj)?;
            vm.write_disk(epoch % 16, &[epoch as u8; 32])?;
            if attack {
                attacks::inject_heap_overflow(vm, pid, 32, 8)?;
            }
            vm.advance_time(ms * 1_000_000);
            Ok(())
        });
        run.outcomes.push(match &result {
            Ok(EpochOutcome::Committed { released, .. }) => format!("committed {}", released.len()),
            Ok(EpochOutcome::AttackDetected { .. }) => "detected".to_owned(),
            Ok(EpochOutcome::Extended { consecutive, .. }) => format!("extended {consecutive}"),
            Ok(EpochOutcome::Degraded { .. }) => "degraded".to_owned(),
            Err(e) => format!("error: {e}"),
        });
        if matches!(result, Ok(EpochOutcome::AttackDetected { .. })) {
            run.outcomes.push(match c.rollback_and_resume() {
                Ok(discarded) => format!("rolled back, {discarded} discarded"),
                Err(e) => format!("rollback error: {e}"),
            });
        }
        if c.is_quarantined() || epoch + 1 == epochs {
            run.images.push(c.journal().bytes().to_vec());
            run.images.push(c.checkpointer().backup().frames().to_vec());
            run.acks += c.telemetry().counter(Counter::DrainAcks);
            head_started += c.telemetry().counter(Counter::DrainHeadStartPages);
            cipher_lent += c.telemetry().counter(Counter::DrainCipherLentBytes);
        }
        if c.is_quarantined() {
            (c, pid) = tenant();
        }
    }
    let counters = crimes_faults::counters();
    run.faults = FaultPoint::ALL
        .into_iter()
        .map(|p| (p.name(), counters.draws(p), counters.hits(p)))
        .collect();
    (run, head_started, cipher_lent)
}

/// The walk's two fault points are drawn once per shard, each shard under
/// its own forked schedule: by design they differ with the worker count.
const WALK_POINTS: [FaultPoint; 2] = [FaultPoint::PageCopy, FaultPoint::BackupWrite];

/// `a` and `b` are one run, the fault points named in `apart_from` aside.
fn assert_one_run(a: &SoakRun, b: &SoakRun, apart_from: &[FaultPoint], what: &str) {
    assert_eq!(a.outcomes, b.outcomes, "{what}: outcomes, epoch by epoch");
    assert!(a.images == b.images, "{what}: every tenant's journal bytes and backup image");
    let compared = |run: &SoakRun| -> Vec<_> {
        let kept = |name: &str| apart_from.iter().all(|p| p.name() != name);
        run.faults.iter().filter(|(name, ..)| kept(name)).copied().collect()
    };
    assert_eq!(compared(a), compared(b), "{what}: draws and hits per fault point");
    assert_eq!(a.acks, b.acks, "{what}: drains acknowledged");
}

fn hits(run: &SoakRun, point: FaultPoint) -> u64 {
    let hit = run.faults.iter().find(|(name, ..)| *name == point.name());
    hit.map_or(0, |&(_, _, hits)| hits)
}

/// [`soak_plan`] minus the walk's points (drawn, at rate zero, per shard).
fn plan_without_walk_points() -> FaultPlan {
    WALK_POINTS.iter().fold(soak_plan(), |plan, &point| plan.with_rate(point, 0))
}

/// Threads are production code, so they stay on under an armed plan: a
/// shard's forked plan goes with the shard to whichever thread walks it,
/// and the drain's head start and cipher shares draw no fault and install
/// none. A deferred tenant soaked on a two-worker pool must therefore be
/// the same run — same outcome per epoch, same journal bytes, same
/// backup, the same draws and hits at every fault point, the walk's
/// included — whether its lent jobs ran on the resident worker, were all
/// taken back by the boundary's or the drain's own thread, or waited for
/// it. And with the walk's points out of the plan (they are drawn per
/// shard, so by design they differ with the worker count) it is the same
/// run as on a one-worker pool, which has no thread at all, no head start
/// and nobody to lend the cipher to.
#[test]
fn deferred_soak_is_one_run_with_or_without_a_spare_pause_worker() {
    let spare_cpu = std::thread::available_parallelism().is_ok_and(|cpus| cpus.get() > 1);
    let (free, head_started, lent) = one_soak(2, 2, Placement::Free, soak_plan());
    for placement in [Placement::TakeAll, Placement::TakeNone] {
        let (pinned, _, pinned_lent) = one_soak(2, 2, placement, soak_plan());
        assert_one_run(&free, &pinned, &[], &format!("{placement:?}"));
        match placement {
            Placement::TakeNone if spare_cpu => {
                assert!(pinned_lent > 0, "the worker ran no cipher share it was lent")
            }
            _ => assert_eq!(pinned_lent, 0, "{placement:?}: nothing ran on a worker"),
        }
    }
    let points = [FaultPoint::BackupDrain, FaultPoint::BackupOutage, FaultPoint::PageCorrupt];
    for point in points.into_iter().chain(WALK_POINTS) {
        assert!(hits(&free, point) > 0, "{} never fired: the soak proved nothing about it", point.name());
    }

    let (one, none_started, none_lent) = one_soak(1, 2, Placement::Free, plan_without_walk_points());
    let (two, ..) = one_soak(2, 2, Placement::Free, plan_without_walk_points());
    assert_one_run(&one, &two, &WALK_POINTS, "1 vs 2 pause workers");
    assert_eq!((none_started, none_lent), (0, 0), "one worker has nobody to lend to");
    println!(
        "deferred soak: {} outcomes over {} tenant generations, {} drains acked, \
         {head_started} pages head-started and {lent} cipher bytes run on the spare worker",
        free.outcomes.len(),
        free.images.len() / 2,
        free.acks,
    );
}

/// The in-window twin: the walk writes the backup under the undo log, and
/// a faulted shard's restore must not depend on who walked it either.
#[test]
fn in_window_soak_is_one_run_wherever_the_walk_shards_run() {
    let (free, ..) = one_soak(2, 0, Placement::Free, soak_plan());
    for placement in [Placement::TakeAll, Placement::TakeNone] {
        let (pinned, ..) = one_soak(2, 0, placement, soak_plan());
        assert_one_run(&free, &pinned, &[], &format!("{placement:?}"));
    }
    for point in WALK_POINTS {
        assert!(hits(&free, point) > 0, "{} never fired: the soak proved nothing about it", point.name());
    }
    let (one, ..) = one_soak(1, 0, Placement::Free, plan_without_walk_points());
    let (two, ..) = one_soak(2, 0, Placement::Free, plan_without_walk_points());
    assert_one_run(&one, &two, &WALK_POINTS, "1 vs 2 pause workers");
}

/// Quarantine invariants: the tenant is terminal and its outputs are
/// impounded — rejected work, nothing released, nothing discarded.
fn assert_impounded(c: &mut Crimes, epoch: u64) {
    assert!(c.is_quarantined(), "epoch {epoch}: quarantine must latch");
    let before = c.buffer_stats();
    assert!(
        matches!(
            c.submit_output(Output::Net(NetPacket::new(0, vec![0]))),
            Err(CrimesError::Quarantined { .. })
        ),
        "epoch {epoch}: a quarantined VM must reject outputs"
    );
    assert!(
        matches!(
            c.run_epoch(|_vm, _ms| Ok(())),
            Err(CrimesError::Quarantined { .. })
        ),
        "epoch {epoch}: a quarantined VM must reject epochs"
    );
    let after = c.buffer_stats();
    assert_eq!(
        (before.released, before.discarded),
        (after.released, after.discarded),
        "epoch {epoch}: impounded outputs are neither released nor discarded"
    );
}
