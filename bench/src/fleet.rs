//! `fleet_mixed`: many small tenants through `FleetScheduler::run_round`,
//! with a rotating attack every eighth round.
//!
//! The scheduler, the lease pool, the output buffers and the journals do
//! most of the work here and the page walk almost none. The harness sees
//! a round only through the `work` callback and the round's return, so
//! the tenant-visible timings are taken at that seam:
//!
//! * pause — end of a tenant's `work` callback to the scheduler's next
//!   call into the harness (the next tenant's callback, or the round's
//!   return). An upper bound on the guest-visible pause: it also holds
//!   the lease hand-over and, at a wave's end, the join of the previous
//!   wave's drain threads.
//! * release lag — end of a tenant's `work` callback to the round's
//!   return, the first moment its released outputs can be observed.

use crimes::{CrimesConfig, Fleet, FleetScheduler, FleetSchedulerConfig};
use crimes_checkpoint::{HypercallModel, PauseWindowPool};
use crimes_vm::{Vm, VmError};
use crimes_workloads::attacks;

use crate::ledger::Ledger;
use crate::run::{Opts, Run};
use crate::shadow;
use crate::tenant;

pub const NAME: &str = "fleet_mixed";

const TENANTS: usize = 32;
const TENANT_PAGES: usize = 320;
/// Enough sectors for the malware's loot file (sector 64).
const TENANT_DISK_SECTORS: usize = 128;
const INTERVAL_MS: u64 = 10;
const DIRTY_PAGES_PER_EPOCH: u64 = 10;
const OUTPUTS_PER_EPOCH: usize = 4;
const EXFIL_PACKETS: usize = 2;
const ARENA_PAGES: usize = 8;
const SCHEDULER: FleetSchedulerConfig = FleetSchedulerConfig {
    max_concurrent_pauses: 2,
    pool_workers: 2,
    overlap_drains: true,
};
/// One rotating tenant is attacked every eighth round, and a traced run
/// shadows one tenant every eighth round; both fall in recording blocks.
const ATTACK_EVERY: u64 = 8;
const ATTACK_PHASE: u64 = 2;
const SHADOW_PHASE: u64 = 1;
const SHADOW_TENANT: usize = 0;
/// Rounds per recording / control block of a traced run.
const TRACE_BLOCK: u64 = 4;
/// A warm-up round is `TENANTS` tenant-epochs, so the fleet warms up for
/// a tenth as many rounds as a single tenant does epochs.
const WARMUP_DIVISOR: u64 = 10;
/// Timed round after which the fingerprint is taken (two attacks in).
pub const FINGERPRINT_ROUND: u64 = 16;
/// The tenant `recover_ms` recovers: the first deferred one.
const RECOVER_TENANT: usize = 3;

/// The in-window pipeline of three tenants in four, which is also the
/// shadowed tenant's.
const PAUSE_KERNELS: &[&str] = &[
    "checkpoint.bitscan",
    "checkpoint.chunk_digest",
    "vmi.process_list",
    "vmi.canary_scan",
];

fn tenant_index(name: &str) -> Option<usize> {
    name.strip_prefix("tenant-")?.parse().ok()
}

/// Every fourth tenant runs the deferred, encoded pipeline so rounds
/// carry drains to overlap.
fn tenant_config(i: usize) -> CrimesConfig {
    let mut b = CrimesConfig::builder();
    b.epoch_interval_ms(INTERVAL_MS)
        .pause_workers(2)
        .external_pool(true);
    if i % 4 == 3 {
        b.staging_buffers(2)
            .delta_threshold(shadow::DELTA_THRESHOLD)
            .dedup(true);
    }
    b.build()
        .expect("the benchmark's own configuration is valid")
}

struct Tenants {
    fleet: Fleet,
    scheduler: FleetScheduler,
    /// Per tenant index: its name in the fleet and its service's pid.
    names: Vec<String>,
    pids: Vec<u32>,
}

/// Everything `setup_s` covers: every tenant's guest, service process,
/// `Crimes::protect` and modules, then the scheduler and its shared pool.
fn setup(seed: u64) -> Tenants {
    let mut fleet = Fleet::new();
    let names: Vec<String> = (0..TENANTS).map(|i| format!("tenant-{i:04}")).collect();
    let mut pids = Vec::with_capacity(TENANTS);
    for (i, name) in names.iter().enumerate() {
        let mut vm = Vm::builder()
            .pages(TENANT_PAGES)
            .disk_sectors(TENANT_DISK_SECTORS)
            .seed(seed.wrapping_mul(1_000).wrapping_add(i as u64))
            .build();
        pids.push(
            vm.spawn_process("svc", 0, ARENA_PAGES)
                .expect("guest has room for the service"),
        );
        let crimes = fleet
            .add_vm(name, vm, tenant_config(i))
            .expect("tenant names are unique and fresh guests can be protected");
        tenant::register_modules(crimes);
    }
    let scheduler = FleetScheduler::for_fleet(&fleet, SCHEDULER);
    Tenants {
        fleet,
        scheduler,
        names,
        pids,
    }
}

/// One tenant-epoch of guest activity: a fixed budget of dirty pages and
/// one disk write, a function of (seed, tenant, round) only.
fn work(vm: &mut Vm, pid: u32, mix: u64, ms: u64) -> Result<(), VmError> {
    for k in 0..DIRTY_PAGES_PER_EPOCH {
        let m = mix.wrapping_mul(31).wrapping_add(k);
        vm.dirty_arena_page(
            pid,
            (m % ARENA_PAGES as u64) as usize,
            (m % 4096) as usize,
            m as u8,
        )?;
    }
    vm.write_disk(mix % TENANT_DISK_SECTORS as u64, &[mix as u8; 32])?;
    vm.advance_time(ms * 1_000_000);
    Ok(())
}

struct Driver<'a> {
    run: &'a mut Run,
    seed: u64,
    ledgers: Vec<Ledger>,
    /// Per tenant: end of the `work` callback of its unreleased epochs.
    unreleased: Vec<Vec<u64>>,
    next_round: u64,
}

impl Driver<'_> {
    /// One scheduled round, plus the incident response it may call for.
    /// Returns `false` when the fleet can run no further rounds.
    fn round(&mut self, t: &mut Tenants, timed: bool, attack: bool, shadowed: bool) -> bool {
        let round = self.next_round;
        self.next_round += 1;
        let recording = self.run.tracer.is_recording();
        let victim = attack.then_some((round / ATTACK_EVERY) as usize % TENANTS);
        let old_frames = shadowed.then(|| {
            t.fleet
                .get(&t.names[SHADOW_TENANT])
                .map(|c| c.checkpointer().backup().frames().to_vec())
                .unwrap_or_default()
        });

        let t0 = self.run.tracer.now_ns();
        let round_span = self.run.tracer.span(self.run.root, "round", round, t0, t0);
        let mut submitted = true;
        for i in 0..TENANTS {
            let Some(crimes) = t.fleet.get_mut(&t.names[i]) else {
                continue;
            };
            let s0 = self.run.tracer.now_ns();
            for _ in 0..OUTPUTS_PER_EPOCH {
                let packet = self.ledgers[i].net_packet(round, false);
                submitted &= crimes.submit_output(packet).is_ok();
            }
            if victim == Some(i) {
                for _ in 0..EXFIL_PACKETS {
                    let loot = self.ledgers[i].net_packet(round, true);
                    submitted &= crimes.submit_output(loot).is_ok();
                }
            }
            let s1 = self.run.tracer.now_ns();
            self.run.tracer.span(round_span, "submit", round, s0, s1);
        }
        if !submitted {
            self.run.failed += 1;
        }

        // The callback's view of the round: when each tenant's work
        // ended, and how long until the scheduler called back.
        let mut work_end = vec![None; TENANTS];
        let mut gaps: Vec<u64> = Vec::with_capacity(TENANTS);
        let mut last_end: Option<u64> = None;
        let seed = self.seed;
        let pids = &t.pids;
        let tracer = &mut self.run.tracer;
        let summary = t.scheduler.run_round(&mut t.fleet, |name, vm, ms| {
            let w0 = tracer.now_ns();
            if let Some(end) = last_end {
                gaps.push(w0 - end);
                tracer.span(round_span, "pause", round, end, w0);
            }
            let i = tenant_index(name).expect("the fleet holds only the harness's own tenants");
            let mix = seed ^ round.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64);
            work(vm, pids[i], mix, ms)?;
            if victim == Some(i) {
                attacks::inject_malware_launch(vm, "mirai")?;
            }
            let w1 = tracer.now_ns();
            tracer.span(round_span, "work", round, w0, w1);
            if old_frames.is_some() && i == SHADOW_TENANT {
                let old = old_frames.as_deref().unwrap_or_default();
                shadow::run(tracer, round_span, round, vm, old);
            }
            let end = tracer.now_ns();
            work_end[i] = Some(end);
            last_end = Some(end);
            Ok(())
        });
        let t1 = self.run.tracer.now_ns();
        if let Some(end) = last_end {
            gaps.push(t1 - end);
            self.run.tracer.span(round_span, "pause", round, end, t1);
        }
        self.run.tracer.close(round_span, t1);
        if shadowed {
            self.run.tracer.flag_shadow(round_span);
        }

        let Ok(summary) = summary else {
            self.run.failed += 1;
            return false;
        };
        let ran = work_end.iter().flatten().count() as u64;
        self.run.attempted += ran;
        let sample = timed && !shadowed;
        if sample {
            self.run.pause_ns.extend(&gaps);
            self.run.interval_ns += gaps.len() as u64 * INTERVAL_MS * 1_000_000;
            self.run.round_ns.push(t1 - t0);
        }
        for (i, end) in work_end.iter().enumerate() {
            if let Some(end) = end {
                self.unreleased[i].push(*end);
            }
        }
        for name in &summary.committed {
            let Some(i) = tenant_index(name) else {
                continue;
            };
            self.ledgers[i].release_all_held();
            for end in self.unreleased[i].drain(..) {
                if sample {
                    self.run.lag_ns.push((t1 - end, recording));
                }
            }
            if sample {
                self.run.committed_timed += 1;
            }
        }
        self.run.extended += summary.extended.len() as u64;
        // Anything but a commit, a safe extension or the expected
        // incident is a failed tenant-epoch.
        self.run.failed += (summary.degraded.len()
            + summary.quarantined.len()
            + summary.skipped_quarantined.len()
            + summary.skipped_pending.len()
            + summary.errored.len()) as u64;
        if let Some(v) = victim {
            self.run.attacks_launched += 1;
            if summary.new_incidents.contains(&t.names[v]) {
                self.run.attacks_detected += 1;
            } else {
                self.run.failed += 1; // a missed detection
            }
        }
        for name in &summary.new_incidents {
            let Some(i) = tenant_index(name) else {
                continue;
            };
            if victim != Some(i) {
                self.run.failed += 1; // an incident on a clean tenant-epoch
            }
            let i0 = self.run.tracer.now_ns();
            let investigated = t.fleet.investigate(name).is_ok();
            let i1 = self.run.tracer.now_ns();
            let discarded = t.fleet.rollback_and_resume(name);
            let i2 = self.run.tracer.now_ns();
            let incident = self
                .run
                .tracer
                .span(self.run.root, "incident", round, i0, i2);
            self.run.tracer.span(incident, "investigate", round, i0, i1);
            self.run.tracer.span(incident, "rollback", round, i1, i2);
            let expected = self.ledgers[i].discard_all_held();
            self.unreleased[i].clear();
            if !investigated || discarded.ok().map(|n| n as u64) != Some(expected) {
                self.run.failed += 1;
            }
        }
        summary.quarantined.is_empty() && summary.skipped_quarantined.is_empty()
    }

    /// Guest images, released ledgers and drain profiles of every tenant.
    fn fingerprint(&self, t: &Tenants) -> u64 {
        self.ledgers
            .iter()
            .zip(&t.names)
            .filter_map(|(ledger, name)| Some((t.fleet.get(name)?, ledger)))
            .fold(tenant::FINGERPRINT_SEED, |h, (crimes, ledger)| {
                tenant::fingerprint(h, crimes, ledger)
            })
    }
}

pub fn run(opts: Opts) -> Run {
    let mut run = Run::new(NAME, opts);
    run.pause_kernels = PAUSE_KERNELS;

    let mut t = run.timed_setups(|| setup(opts.seed));

    let mut driver = Driver {
        run: &mut run,
        seed: opts.seed,
        ledgers: (0..TENANTS).map(|_| Ledger::new()).collect(),
        unreleased: vec![Vec::new(); TENANTS],
        next_round: 0,
    };

    let mut alive = true;
    driver.run.tracer.set_recording(false);
    for _ in 0..(opts.warmup_epochs() / WARMUP_DIVISOR).max(1) {
        alive = alive && driver.round(&mut t, false, false, false);
    }

    let budget_ns = (opts.seconds * 1e9) as u64;
    let timed_start = driver.run.tracer.now_ns();
    let mut excluded_ns = 0u64;
    let mut timed_rounds = 0u64;
    while alive && driver.run.tracer.now_ns() - timed_start < budget_ns {
        let recording = driver.run.set_block_recording(timed_rounds, TRACE_BLOCK);
        let attack = timed_rounds % ATTACK_EVERY == ATTACK_PHASE;
        let shadowed = recording && timed_rounds % ATTACK_EVERY == SHADOW_PHASE;
        alive = driver.round(&mut t, true, attack, shadowed);
        timed_rounds += 1;
        if timed_rounds == FINGERPRINT_ROUND
            && alive
            && driver.run.extended == 0
            && driver.run.failed == 0
        {
            let t0 = driver.run.tracer.now_ns();
            driver.run.fingerprint = Some(driver.fingerprint(&t));
            excluded_ns += driver.run.tracer.now_ns() - t0;
        }
    }
    driver.run.timed_wall_ns =
        (driver.run.tracer.now_ns() - timed_start).saturating_sub(excluded_ns);
    driver.run.tracer.set_recording(false);

    // Settle: tenants extended in the last round still owe their outputs.
    for _ in 0..4 {
        if !alive || driver.unreleased.iter().all(Vec::is_empty) {
            break;
        }
        alive = driver.round(&mut t, false, false, false);
    }
    let ledgers = std::mem::take(&mut driver.ledgers);
    run.tracer.set_recording(opts.trace);

    // A check holds for the fleet when it holds for every tenant.
    let mut all: Vec<(&'static str, bool)> = Vec::new();
    for (ledger, name) in ledgers.iter().zip(&t.names) {
        let Some(crimes) = t.fleet.get(name) else {
            run.check("every tenant is still in the fleet", false);
            continue;
        };
        for (k, (name, ok)) in tenant::audit(&mut run, crimes, ledger)
            .into_iter()
            .enumerate()
        {
            match all.get_mut(k) {
                Some(check) => check.1 &= ok,
                None => all.push((name, ok)),
            }
        }
    }
    for (name, ok) in all {
        run.check(name, ok);
    }
    run.check("the fleet survived the run", alive);
    run.check(
        "every injected attack was detected in its round",
        run.attacks_detected == run.attacks_launched,
    );
    run.note_peak_rss();
    if let Some(crimes) = t.fleet.get(&t.names[RECOVER_TENANT]) {
        let mut pool = PauseWindowPool::new(2, TENANT_PAGES, HypercallModel::DEFAULT_STEPS);
        tenant::recover_and_commit(&mut run, crimes, &mut pool);
    }
    if let Some(telemetry) = t.fleet.aggregate_telemetry() {
        run.counts.absorb_telemetry(&telemetry);
    }
    let stats = t.scheduler.stats();
    run.counts.peak_leases = stats.peak_leases as u64;
    run.counts.total_leases = stats.total_leases;
    run.finish();
    run
}
