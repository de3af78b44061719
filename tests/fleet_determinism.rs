//! Determinism property of the fleet scheduler: a staggered round over
//! one **shared** pause-window pool must be bit-identical, per tenant, to
//! the serial [`Fleet::run_epoch_round`] — for every tenant count and
//! every pool lease capacity. Identical means identical everywhere it
//! can be observed: round summaries, committed epoch counts, backup
//! frames and disk, image digests, telemetry counters, and the raw
//! evidence-journal bytes.
//!
//! Tenants rotate through all three boundary pipelines (serial, fused,
//! deferred/staged) and run on injected [`TestClock`]s, so the scheduled
//! rounds replay in virtual time exactly like the serial ones. A second
//! scenario replays a round containing one attacked tenant and one
//! degraded tenant (backup outage on the only staged tenant) both ways.

use std::collections::BTreeMap;
use std::sync::Arc;

use crimes::modules::BlacklistScanModule;
use crimes::{Crimes, CrimesConfig, Fleet, FleetScheduler, FleetSchedulerConfig};
use crimes_checkpoint::image_digest;
use crimes_telemetry::{Counter, TestClock};
use crimes_vm::{Vm, VmError};
use crimes_workloads::attacks;

const ROUNDS: u64 = 4;

fn guest(seed: u64) -> Vm {
    let mut b = Vm::builder();
    b.pages(768).seed(seed);
    b.build()
}

/// Tenant `i`'s configuration. The rotation covers the serial boundary,
/// the fused pause-window walk, and the deferred (staged) pipeline, so
/// the shared pool serves every pipeline the serial round would run.
/// `external` marks the tenant as served by the scheduler's shared pool
/// (no private pool allocation) — the serial reference fleet keeps
/// private pools, which is exactly the cross-pool-ownership equality
/// under test.
fn tenant_config(i: u64, external: bool, encoded: bool) -> CrimesConfig {
    let mut b = CrimesConfig::builder();
    b.epoch_interval_ms(20);
    match i % 3 {
        0 => {
            b.pause_workers(1);
        }
        1 => {
            b.pause_workers(2);
        }
        _ => {
            b.pause_workers(4).staging_buffers(3).max_staged_backlog(2);
        }
    }
    if encoded {
        b.delta_threshold(64).dedup(true);
    }
    b.external_pool(external);
    b.build().expect("valid config")
}

fn build_fleet_encoded(tenants: u64, external: bool, encoded: bool) -> Fleet {
    let mut fleet = Fleet::new();
    for i in 0..tenants {
        let crimes = fleet
            .add_vm_with_clock(
                &format!("tenant-{i}"),
                guest(500 + i),
                tenant_config(i, external, encoded),
                Arc::new(TestClock::new()),
            )
            .expect("add tenant");
        crimes.register_module(Box::new(BlacklistScanModule::bundled()));
    }
    fleet
}

fn build_fleet(tenants: u64, external: bool) -> Fleet {
    build_fleet_encoded(tenants, external, false)
}

/// Deterministic per-(tenant, round) guest activity: a couple of disk
/// writes derived from an FNV-1a mix of the tenant name and round.
fn work(round: u64, name: &str, vm: &mut Vm, ms: u64) -> Result<(), VmError> {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ round;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    vm.write_disk(h % 16, &[h as u8; 32])?;
    vm.write_disk((h >> 8) % 16, &[(h >> 16) as u8; 48])?;
    vm.advance_time(ms * 1_000_000);
    Ok(())
}

/// Everything observable about one tenant that must not depend on how
/// its rounds were scheduled.
#[derive(Debug, PartialEq)]
struct TenantPrint {
    committed_epochs: u64,
    frames: Vec<u8>,
    disk: Vec<u8>,
    digest: u64,
    journal: Vec<u8>,
    epochs_committed_counter: u64,
    attacks_detected_counter: u64,
    degraded_counter: u64,
}

fn print_of(crimes: &Crimes) -> TenantPrint {
    let frames = crimes.checkpointer().backup().frames().to_vec();
    let disk = crimes.checkpointer().backup().disk().to_vec();
    let digest = image_digest(&frames, &disk);
    TenantPrint {
        committed_epochs: crimes.committed_epochs(),
        frames,
        disk,
        digest,
        journal: crimes.journal().bytes().to_vec(),
        epochs_committed_counter: crimes.telemetry().counter(Counter::EpochsCommitted),
        attacks_detected_counter: crimes.telemetry().counter(Counter::AttacksDetected),
        degraded_counter: crimes.telemetry().counter(Counter::DegradedEpochs),
    }
}

fn fingerprints(fleet: &Fleet) -> BTreeMap<String, TenantPrint> {
    fleet
        .names()
        .into_iter()
        .map(|name| {
            let crimes = fleet.get(name).expect("named tenant exists");
            (name.to_owned(), print_of(crimes))
        })
        .collect()
}

#[test]
fn staggered_shared_pool_rounds_match_serial_fingerprints() {
    for &tenants in &[1u64, 3, 8] {
        // Serial reference: every tenant on its own private pool.
        let mut serial = build_fleet(tenants, false);
        let mut serial_summaries = Vec::new();
        for round in 0..ROUNDS {
            serial_summaries.push(
                serial
                    .run_epoch_round(|n, vm, ms| work(round, n, vm, ms))
                    .expect("serial round"),
            );
        }
        let want = fingerprints(&serial);

        for &pauses in &[1usize, 2, 4] {
            let mut fleet = build_fleet(tenants, true);
            let mut sched = FleetScheduler::for_fleet(
                &fleet,
                FleetSchedulerConfig {
                    max_concurrent_pauses: pauses,
                    pool_workers: 3,
                    overlap_drains: true,
                },
            );
            let mut summaries = Vec::new();
            for round in 0..ROUNDS {
                summaries.push(
                    sched
                        .run_round(&mut fleet, |n, vm, ms| work(round, n, vm, ms))
                        .expect("scheduled round"),
                );
            }
            assert_eq!(
                serial_summaries, summaries,
                "summaries diverged (tenants={tenants}, pool capacity={pauses})"
            );
            assert_eq!(
                want,
                fingerprints(&fleet),
                "per-tenant fingerprints diverged (tenants={tenants}, pool capacity={pauses})"
            );
            assert_eq!(sched.stats().rounds, ROUNDS);
            assert!(
                sched.stats().peak_leases <= pauses,
                "the shared pool granted more leases than its capacity"
            );
            // A guest is leased before it runs and a lane's lease comes
            // back only when the round settles it, so on two lanes two
            // tenants hold both leases at once; inline, or with the
            // windows serialised again, one is back before the next goes.
            if pauses == 2 && tenants >= 2 {
                let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
                assert_eq!(
                    sched.stats().peak_leases,
                    host_cpus.min(2),
                    "two lanes keep two windows open at once (tenants={tenants})"
                );
            }
        }
    }
}

/// The content-aware copy path is wire modelling only: turning on
/// delta/zero-page encoding and content-addressed dedup must leave every
/// observable bit of a tenant untouched — backup frames and disk, image
/// digests, the raw journal bytes (including the knob-independent
/// `DrainProfile` records), and the audited counters — across the
/// serial, fused, and staged pipelines (the tenant rotation), worker
/// counts {1, 2, 4}, tenant counts {1, 3, 8}, and every scheduled pool
/// capacity.
#[test]
fn encoded_pipelines_are_bit_identical_to_raw() {
    for &tenants in &[1u64, 3, 8] {
        // Raw serial reference: encoding knobs off.
        let mut raw = build_fleet_encoded(tenants, false, false);
        for round in 0..ROUNDS {
            raw.run_epoch_round(|n, vm, ms| work(round, n, vm, ms))
                .expect("raw serial round");
        }
        let want = fingerprints(&raw);

        // Encoded serial: same tenants, delta + dedup on.
        let mut encoded = build_fleet_encoded(tenants, false, true);
        for round in 0..ROUNDS {
            encoded
                .run_epoch_round(|n, vm, ms| work(round, n, vm, ms))
                .expect("encoded serial round");
        }
        assert_eq!(
            want,
            fingerprints(&encoded),
            "encoding knobs changed a serial fingerprint (tenants={tenants})"
        );

        // Encoded + scheduled over the shared pool, at every capacity.
        for &pauses in &[1usize, 2, 4] {
            let mut fleet = build_fleet_encoded(tenants, true, true);
            let mut sched = FleetScheduler::for_fleet(
                &fleet,
                FleetSchedulerConfig {
                    max_concurrent_pauses: pauses,
                    pool_workers: 3,
                    overlap_drains: true,
                },
            );
            for round in 0..ROUNDS {
                sched
                    .run_round(&mut fleet, |n, vm, ms| work(round, n, vm, ms))
                    .expect("encoded scheduled round");
            }
            assert_eq!(
                want,
                fingerprints(&fleet),
                "encoding knobs changed a scheduled fingerprint \
                 (tenants={tenants}, pool capacity={pauses})"
            );
        }
    }
}

/// One round with one attacked tenant and one degraded tenant (the only
/// staged tenant, under a full-rate backup outage) reproduces serially
/// and scheduled — down to the journal bytes recording the incident and
/// the degradation.
#[test]
fn attacked_and_degraded_round_matches_serial() {
    let drive = |serial: bool| {
        // tenant-2 is the staged tenant (i % 3 == 2) and will degrade;
        // tenant-1 is attacked.
        let mut fleet = build_fleet(4, !serial);
        let mut sched = (!serial).then(|| {
            FleetScheduler::for_fleet(
                &fleet,
                FleetSchedulerConfig {
                    max_concurrent_pauses: 2,
                    pool_workers: 2,
                    overlap_drains: true,
                },
            )
        });
        let mut run = |fleet: &mut Fleet, round: u64, outage: bool| {
            let work = |name: &str, vm: &mut Vm, ms: u64| {
                if round == 1 && name == "tenant-1" {
                    attacks::inject_malware_launch(vm, "mirai")?;
                }
                work(round, name, vm, ms)
            };
            let _scope = outage.then(|| {
                crimes_faults::install(
                    crimes_faults::FaultPlan::disabled().with_rate(
                        crimes_faults::FaultPoint::BackupOutage,
                        crimes_faults::SCALE,
                    ),
                    97,
                )
            });
            match sched.as_mut() {
                Some(sched) => sched.run_round(fleet, work).expect("scheduled round"),
                None => fleet.run_epoch_round(work).expect("serial round"),
            }
        };
        // Warm-up, then the attacked + degraded round, then a recovery
        // round where the backlog re-drains against a reachable backup.
        let warm = run(&mut fleet, 0, false);
        let hot = run(&mut fleet, 1, true);
        let cool = run(&mut fleet, 2, false);
        (warm, hot, cool, fingerprints(&fleet))
    };

    let (warm_s, hot_s, cool_s, prints_s) = drive(true);
    let (warm_x, hot_x, cool_x, prints_x) = drive(false);
    assert_eq!(warm_s, warm_x, "warm-up round diverged");
    assert_eq!(hot_s, hot_x, "attacked + degraded round diverged");
    assert_eq!(cool_s, cool_x, "recovery round diverged");
    assert_eq!(prints_s, prints_x, "per-tenant fingerprints diverged");

    // The scenario actually covered what it claims to cover.
    assert_eq!(hot_s.new_incidents, vec!["tenant-1".to_owned()]);
    assert_eq!(hot_s.degraded, vec!["tenant-2".to_owned()]);
    assert_eq!(cool_s.skipped_pending, vec!["tenant-1".to_owned()]);
    assert!(cool_s.committed.contains(&"tenant-2".to_owned()));
    let degraded = prints_s.get("tenant-2").expect("staged tenant print");
    assert_eq!(degraded.degraded_counter, 1);
}

/// Quarantine `name` the way production does: VMI reads that keep
/// failing exhaust the extension budget. Drives the tenant directly, so
/// the fault plan never meets the scheduler.
fn quarantine(fleet: &mut Fleet, name: &str) {
    let _scope = crimes_faults::install(
        crimes_faults::FaultPlan::disabled()
            .with_rate(crimes_faults::FaultPoint::VmiRead, crimes_faults::SCALE),
        41,
    );
    let crimes = fleet.get_mut(name).expect("named tenant exists");
    for _ in 0..16 {
        if crimes.is_quarantined() {
            return;
        }
        // Extended, then quarantined: both are expected on the way.
        let _ = crimes.run_epoch(|_, _| Ok(()));
    }
    panic!("{name} never quarantined");
}

/// More tenants than lanes, and every way a tenant can leave a round:
/// committed, attacked, errored in its guest work, skipped with an
/// incident pending, skipped in quarantine. On the lane path and on the
/// inline path, for every capacity, the scheduled rounds equal the
/// serial ones in summaries and in raw journal bytes, and the leases add
/// up: never more out than the capacity, one per guest that ran.
#[test]
fn lanes_match_serial_whatever_becomes_of_each_tenant() {
    const TENANTS: u64 = 9;
    // tenant-0 walks serially (i % 3 == 0), so it can be driven into
    // quarantine without a pool.
    let prepare = |fleet: &mut Fleet| quarantine(fleet, "tenant-0");
    let work = |round: u64, ran: &mut u64, name: &str, vm: &mut Vm, ms: u64| {
        *ran += 1;
        match (round, name) {
            // Round 0 attacks tenant-1, which then sits out round 1
            // with its incident pending; round 1 attacks tenant-7.
            (0, "tenant-1") | (1, "tenant-7") => {
                attacks::inject_malware_launch(vm, "mirai")?;
            }
            // tenant-4's guest work fails outright (no such process).
            (_, "tenant-4") => vm.dirty_arena_page(u32::MAX, 0, 0, 0)?,
            _ => {}
        }
        work(round, name, vm, ms)
    };

    let mut serial = build_fleet(TENANTS, false);
    prepare(&mut serial);
    let mut serial_ran = 0u64;
    let serial_summaries: Vec<_> = (0..2)
        .map(|round| {
            serial
                .run_epoch_round(|n, vm, ms| work(round, &mut serial_ran, n, vm, ms))
                .expect("serial round")
        })
        .collect();
    let want = fingerprints(&serial);

    // The scenario covers what it claims to cover.
    assert_eq!(
        serial_summaries[0].new_incidents,
        vec!["tenant-1".to_owned()]
    );
    assert_eq!(
        serial_summaries[1].skipped_pending,
        vec!["tenant-1".to_owned()]
    );
    assert_eq!(
        serial_summaries[1].new_incidents,
        vec!["tenant-7".to_owned()]
    );
    for summary in &serial_summaries {
        assert_eq!(summary.skipped_quarantined, vec!["tenant-0".to_owned()]);
        assert_eq!(summary.errored.len(), 1);
        assert_eq!(summary.errored[0].0, "tenant-4");
    }
    assert_eq!(serial_summaries[0].committed.len(), 6);
    assert_eq!(serial_ran, 8 + 7);

    for pauses in 1usize..=4 {
        for overlap_drains in [true, false] {
            let mut fleet = build_fleet(TENANTS, true);
            prepare(&mut fleet);
            let mut sched = FleetScheduler::for_fleet(
                &fleet,
                FleetSchedulerConfig {
                    max_concurrent_pauses: pauses,
                    pool_workers: 2,
                    overlap_drains,
                },
            );
            let mut ran = 0u64;
            let summaries: Vec<_> = (0..2)
                .map(|round| {
                    sched
                        .run_round(&mut fleet, |n, vm, ms| work(round, &mut ran, n, vm, ms))
                        .expect("scheduled round")
                })
                .collect();
            let case = format!("capacity={pauses}, lanes={overlap_drains}");
            assert_eq!(serial_summaries, summaries, "summaries diverged ({case})");
            assert_eq!(want, fingerprints(&fleet), "fingerprints diverged ({case})");
            let stats = sched.stats();
            assert!(stats.peak_leases <= pauses, "{case}: {stats:?}");
            assert_eq!(
                stats.total_leases, ran,
                "one lease per guest that ran ({case})"
            );
            assert_eq!(ran, serial_ran, "{case}");
        }
    }
}
