//! Fleet-scale epoch scheduling: concurrent pause windows over a leased
//! pool of walkers.
//!
//! The paper's deployment target is a cloud running "many thousands of
//! VMs" (§2). Two things stand between one protected tenant and that:
//! every per-tenant [`PauseWindowPool`] carries undo buffers rivalling
//! the guest image in size, and most of a small tenant's pause is the
//! modelled suspend/resume chain, which no faster walk can shorten — only
//! running different tenants' windows at the same time can.
//! [`FleetScheduler`] does both at the fleet layer:
//!
//! * **A lease is a walker.** One [`SharedPausePool`] owns
//!   [`FleetSchedulerConfig::max_concurrent_pauses`] preallocated
//!   walkers. A tenant takes one *before* its guest runs the epoch's work
//!   and returns it when its boundary is finished; with all of them out
//!   the next tenant waits. Saturation is refused before a guest is
//!   suspended (fail closed).
//! * **Pause lanes.** The scheduler keeps
//!   `min(max_concurrent_pauses, host CPUs)` lanes: resident threads
//!   ([`Resident`]), started before its first threaded round and parked
//!   between rounds, each lent the round's `lane` closure. The calling
//!   thread walks the tenants in stagger order — skip checks, lease, the
//!   caller's `work` closure — and hands each tenant with its lease to a
//!   free lane, which runs the tenant's whole boundary: the pause half on
//!   the leased walker, the drain if one is due, the failover check. Up
//!   to that many tenants are inside their pause windows at once. On one
//!   CPU two lanes would only time-share the core and stretch every
//!   guest's real pause, so there a round runs inline with no threads.
//! * **One worker budget.** [`FleetSchedulerConfig::pool_workers`] is
//!   clamped to the host once and split across the lease slots, so
//!   concurrent windows never oversubscribe the host.
//! * **Staggered offsets.** Tenants are ordered by a deterministic hash
//!   of their name, so epoch boundaries spread across the round instead
//!   of arriving in alphabetical order.
//!
//! Per-tenant state is disjoint and every tenant runs the same boundary
//! sequence the serial round runs, on whichever thread, so a scheduled
//! round is bit-identical to [`Fleet::run_epoch_round`] per tenant — for
//! any lease capacity, worker count, and tenant count. While a fault plan
//! is armed the round runs inline: fault plans are thread-local and would
//! not follow a tenant onto a lane.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;

use crimes_checkpoint::{HypercallModel, PoolLease, Resident, SharedPausePool, Task, MAX_WORKERS};
use crimes_telemetry::{Counter, Telemetry};
use crimes_vm::{Vm, VmError};

use crate::config::CrimesConfigBuilder;
use crate::error::CrimesError;
use crate::fleet::{failover_if_due, file_outcome, Fleet, FleetEpochSummary};
use crate::framework::{BoundaryProgress, Crimes, EpochOutcome};

#[cfg(doc)]
use crimes_checkpoint::PauseWindowPool;

/// Tuning for a [`FleetScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSchedulerConfig {
    /// Tenants allowed inside their pause windows at the same time: the
    /// number of walkers the shared pool preallocates (its memory is this
    /// many times the largest tenant's walk scratch) and, capped by the
    /// host's CPUs, the number of pause lanes a round runs. Clamped to at
    /// least 1.
    pub max_concurrent_pauses: usize,
    /// The fleet's worker-thread budget for pause-window walks. Clamped
    /// once, fleet-wide, to
    /// [`CrimesConfigBuilder::host_pause_worker_cap`] and
    /// [`MAX_WORKERS`] — replacing N per-tenant clamps that would
    /// oversubscribe the host N× — then split across the lease slots:
    /// each window walks with `max(1, budget / max_concurrent_pauses)`
    /// workers.
    pub pool_workers: usize,
    /// Run tenants' boundaries (pause window and drain) on pause lanes,
    /// concurrently with each other and with the next tenant's guest
    /// work. When off, or while a fault plan is armed (fault plans are
    /// thread-local), every boundary runs inline on the calling thread.
    /// Never changes results — only wall-clock.
    pub overlap_drains: bool,
}

impl Default for FleetSchedulerConfig {
    fn default() -> Self {
        FleetSchedulerConfig {
            max_concurrent_pauses: 4,
            pool_workers: 4,
            overlap_drains: true,
        }
    }
}

/// Lifetime statistics of one [`FleetScheduler`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Fleet-wide rounds driven.
    pub rounds: u64,
    /// The worker budget the shared pool splits across its lease slots.
    pub workers: usize,
    /// Worker threads the configuration asked for (differs from
    /// `workers` when the fleet-level host clamp engaged).
    pub requested_workers: usize,
    /// Concurrent leases the pool grants.
    pub capacity: usize,
    /// Most leases ever outstanding at once (≤ `capacity` by
    /// construction).
    pub peak_leases: usize,
    /// Leases granted lifetime (one per tenant whose guest ran an epoch
    /// under this scheduler).
    pub total_leases: u64,
}

/// Drives staggered epoch rounds for a whole [`Fleet`] over one shared
/// pool of leased walkers. See the [module docs](self) for the
/// scheduling model.
#[derive(Debug)]
pub struct FleetScheduler {
    pool: SharedPausePool,
    config: FleetSchedulerConfig,
    /// The pause lanes of a threaded round: `max_concurrent_pauses`
    /// capped by the host's CPUs, settled once here; none where that
    /// leaves one (it would only move the serial sequence to another
    /// thread).
    lanes: Resident,
    /// Scheduler-level counters (rounds, leases, the fleet clamp);
    /// merged over the tenants' own telemetry in each round snapshot.
    telemetry: Telemetry,
    rounds: u64,
    requested_workers: usize,
    last_snapshot: Option<Telemetry>,
}

/// FNV-1a over the tenant name: a cheap, deterministic, platform-stable
/// stagger key.
fn stagger_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One tenant's boundary after its guest has run, the same sequence the
/// serial round runs: the pause half on the leased walker, the drain if
/// the boundary left a ticket, then the failover check. Called from a
/// pause lane and from the inline path alike.
///
/// A panic below here (a detection module's, say) is this tenant's
/// failure, not the round's, and it fails closed. The audit runs after
/// the boundary took the dirty set and copied into the backup, so what
/// the panic leaves behind — unaudited pages in the backup, their undo
/// log in a walker about to serve another tenant, the epoch's outputs
/// still held — cannot be made good by a later boundary: the tenant is
/// quarantined (suspended, outputs impounded), later rounds skip it, and
/// this round reports it errored.
fn run_boundary(
    crimes: &mut Crimes,
    lease: &mut PoolLease,
) -> (Result<EpochOutcome, CrimesError>, bool) {
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let outcome = match crimes.pause_half_leased(lease.pool()) {
            Ok(BoundaryProgress::Done(outcome)) => Ok(outcome),
            Ok(BoundaryProgress::NeedsDrain(pending)) => crimes.finish_boundary(pending),
            Err(e) => Err(e),
        };
        let failover = failover_if_due(crimes);
        (outcome, failover)
    }));
    ran.unwrap_or_else(|_| {
        crimes.quarantine(BOUNDARY_PANICKED);
        (Err(CrimesError::InvalidState(BOUNDARY_PANICKED)), false)
    })
}

/// Why [`run_boundary`] quarantined a tenant, and what it reports.
const BOUNDARY_PANICKED: &str = "tenant boundary panicked";

/// A tenant whose guest has run, on its way to a pause lane.
struct Job<'a> {
    name: &'a str,
    crimes: &'a mut Crimes,
    lease: PoolLease,
}

/// What a lane sends back: the lease, and the tenant's result.
struct Finished<'a> {
    name: &'a str,
    lease: PoolLease,
    outcome: Result<EpochOutcome, CrimesError>,
    failover: bool,
}

/// A pause lane: take the next tenant off the shared job queue, run its
/// boundary, send the lease and the result back; until the queue closes.
fn lane<'a>(jobs: &Mutex<Receiver<Job<'a>>>, done: &Sender<Finished<'a>>) {
    loop {
        // The guard lives for this statement only: lanes queue for the
        // next job, never for each other's boundaries.
        let next = match jobs.lock() {
            Ok(jobs) => jobs.recv().ok(),
            Err(_) => None,
        };
        let Some(mut job) = next else { break };
        let (outcome, failover) = run_boundary(job.crimes, &mut job.lease);
        let finished = Finished {
            name: job.name,
            lease: job.lease,
            outcome,
            failover,
        };
        if done.send(finished).is_err() {
            break;
        }
    }
}

/// The calling thread's side of a round's pause lanes.
struct Lanes<'a> {
    /// The lanes' shared job queue.
    jobs: Sender<Job<'a>>,
    done: Receiver<Finished<'a>>,
    /// Lanes lent this round's `lane`; 0 when the round runs inline.
    width: usize,
    /// Tenants handed to a lane and not yet settled.
    in_flight: Vec<&'a str>,
    /// Tenants that went down with the lanes (see `settle_one`).
    lost: Vec<String>,
}

impl<'a> Lanes<'a> {
    /// Run `job`'s boundary on a lane, waiting for one to come free when
    /// all are busy; inline when the round has no lanes.
    fn dispatch(
        &mut self,
        job: Job<'a>,
        pool: &mut SharedPausePool,
        summary: &mut FleetEpochSummary,
    ) {
        if self.width > 0 && self.in_flight.len() >= self.width {
            self.settle_one(pool, summary);
        }
        if self.width > 0 {
            self.in_flight.push(job.name);
            // The receiver outlives every lane: this cannot fail.
            let _ = self.jobs.send(job);
            return;
        }
        let Job {
            name,
            crimes,
            mut lease,
        } = job;
        let (outcome, failover) = run_boundary(crimes, &mut lease);
        pool.release(lease);
        file_outcome(summary, name, outcome, failover);
    }

    /// Wait for one lane to finish and settle its tenant: lease back to
    /// the pool, result into the summary. `false` when no tenant is in a
    /// lane.
    fn settle_one(&mut self, pool: &mut SharedPausePool, summary: &mut FleetEpochSummary) -> bool {
        if self.in_flight.is_empty() {
            return false;
        }
        match self.done.recv() {
            Ok(done) => {
                self.in_flight.retain(|name| *name != done.name);
                pool.release(done.lease);
                file_outcome(summary, done.name, done.outcome, done.failover);
            }
            // Every lane is gone (none can unwind past `run_boundary`, so
            // this is not expected), and the tenants inside with them, in
            // an unknown state: they report errored, the round quarantines
            // them once it has them back, and the rest of it runs inline.
            Err(_) => {
                self.width = 0;
                for name in self.in_flight.drain(..) {
                    let died = CrimesError::InvalidState(LANE_DIED);
                    file_outcome(summary, name, Err(died), false);
                    self.lost.push(name.to_owned());
                }
            }
        }
        true
    }
}

/// Why a tenant lost with its pause lane is quarantined.
const LANE_DIED: &str = "pause lane died mid-boundary";

impl FleetScheduler {
    /// Build a scheduler whose shared pool fits every current tenant of
    /// `fleet`: each walker's capacity hint is the largest tenant image.
    /// Tenants added later are served too as long as they are no larger.
    ///
    /// The worker budget is clamped here, once, to the host CPU budget —
    /// recorded in [`SchedulerStats::requested_workers`] vs
    /// [`SchedulerStats::workers`] and counted in
    /// [`Counter::FleetWorkerClamps`].
    pub fn for_fleet(fleet: &Fleet, config: FleetSchedulerConfig) -> Self {
        let mut num_pages = 0;
        for name in fleet.names() {
            if let Some(crimes) = fleet.get(name) {
                num_pages = num_pages.max(crimes.vm().memory().num_pages());
            }
        }
        let requested = config.pool_workers.max(1);
        let granted = requested
            .min(CrimesConfigBuilder::host_pause_worker_cap())
            .min(MAX_WORKERS);
        let mut telemetry = Telemetry::default();
        if granted < requested {
            telemetry.add(Counter::FleetWorkerClamps, 1);
        }
        let capacity = config.max_concurrent_pauses.max(1);
        // Lanes are capped by the host's real CPU count, not by the worker
        // cap above (whose floor of 2 keeps the fused walk testable on one
        // core): a lane past it would only time-share a core and stretch
        // every guest's pause.
        let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let lanes = capacity.min(host_cpus);
        FleetScheduler {
            pool: SharedPausePool::new(granted, num_pages, HypercallModel::DEFAULT_STEPS, capacity),
            config,
            lanes: Resident::new(if lanes > 1 { lanes } else { 0 }),
            telemetry,
            rounds: 0,
            requested_workers: requested,
            last_snapshot: None,
        }
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            rounds: self.rounds,
            workers: self.pool.workers(),
            requested_workers: self.requested_workers,
            capacity: self.pool.capacity(),
            peak_leases: self.pool.peak_active(),
            total_leases: self.pool.total_leases(),
        }
    }

    /// The scheduler's own counters (rounds, leases, the fleet clamp).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The fleet-wide telemetry snapshot taken at the end of the last
    /// [`run_round`](Self::run_round): every tenant's bundle merged via
    /// [`Fleet::aggregate_telemetry`], plus the scheduler's own
    /// counters. `None` before the first round or for an empty fleet.
    pub fn last_snapshot(&self) -> Option<&Telemetry> {
        self.last_snapshot.as_ref()
    }

    /// Drive one staggered epoch round across every healthy tenant of
    /// `fleet`. `work` runs each tenant's guest for its configured
    /// interval, exactly as in [`Fleet::run_epoch_round`], always on the
    /// calling thread and only once the tenant holds a lease; the
    /// tenant's boundary then runs on a pause lane (or inline, see
    /// [`FleetSchedulerConfig::overlap_drains`]). The per-tenant results
    /// are bit-identical to the serial round's, for any lease capacity
    /// and worker count.
    ///
    /// Per-tenant failures never abort the round; they land in the
    /// summary's `quarantined` / `errored` buckets. A tenant whose
    /// boundary panics is reported `errored` and quarantined: its epoch
    /// was never audited, so later rounds skip it. All summary buckets
    /// come back sorted by tenant name, matching the serial round's
    /// iteration order.
    ///
    /// # Errors
    ///
    /// Reserved for fleet-level failures; per-tenant errors are
    /// reported in the summary instead.
    pub fn run_round<W>(
        &mut self,
        fleet: &mut Fleet,
        mut work: W,
    ) -> Result<FleetEpochSummary, CrimesError>
    where
        W: FnMut(&str, &mut Vm, u64) -> Result<(), VmError>,
    {
        self.rounds = self.rounds.saturating_add(1);
        self.telemetry.add(Counter::FleetRounds, 1);
        // Fault plans live in thread-local storage: a boundary running
        // on a lane would silently escape an armed plan, so fault soaks
        // run every boundary inline.
        let threaded = self.config.overlap_drains && !crimes_faults::is_active();
        let capacity = self.pool.capacity();
        if threaded {
            // Outside every window: no tenant of this round has run yet.
            self.lanes.start();
        }
        let width = if threaded { self.lanes.threads() } else { 0 };
        let pool = &mut self.pool;
        let telemetry = &mut self.telemetry;

        // Stagger order: tenants sort by (hash-derived slot, name). The
        // hash decorrelates a tenant's place in the round from its
        // position in the alphabet, so co-named tenants don't all land
        // their boundaries back to back.
        let mut entries: Vec<(&String, &mut Crimes)> = fleet.vms_mut().iter_mut().collect();
        let slots = entries.len().div_ceil(capacity).max(1) as u64;
        entries.sort_by(|a, b| {
            let slot_a = stagger_hash(a.0) % slots;
            let slot_b = stagger_hash(b.0) % slots;
            (slot_a, a.0).cmp(&(slot_b, b.0))
        });

        let mut summary = FleetEpochSummary::default();
        // The queue holds borrows of the tenants: it goes before the
        // round reads the fleet again.
        let (jobs_tx, jobs) = channel();
        let jobs = Mutex::new(jobs);
        let (done_tx, done) = channel();
        let mut lanes = Lanes {
            jobs: jobs_tx,
            done,
            width,
            in_flight: Vec::new(),
            lost: Vec::new(),
        };
        // Only lanes hold senders: `recv` fails instead of hanging
        // should they all be gone.
        let mut lent: Vec<_> = (0..width)
            .map(|_| {
                let (jobs, done_tx) = (&jobs, done_tx.clone());
                move || lane(jobs, &done_tx)
            })
            .collect();
        drop(done_tx);
        let mut lost = Vec::new();
        // The calling thread's share of the round; the lanes end when it
        // is done and drops the job queue's sender, started or not.
        let dispatch = || {
            for (name, crimes) in entries {
                if crimes.is_quarantined() {
                    crimes.note_fleet_skip();
                    summary.skipped_quarantined.push(name.clone());
                    continue;
                }
                if crimes.has_pending_incident() {
                    summary.skipped_pending.push(name.clone());
                    continue;
                }
                // Admission precedes the guest's work: with every lease
                // out, wait for a lane to bring one back.
                let lease = loop {
                    match pool.lease() {
                        Ok(lease) => break Some(lease),
                        Err(e) => {
                            if !lanes.settle_one(pool, &mut summary) {
                                // No window in flight will return one.
                                // Fail closed: the guest never ran.
                                file_outcome(&mut summary, name, Err(e.into()), false);
                                break None;
                            }
                        }
                    }
                };
                let Some(lease) = lease else { continue };
                telemetry.add(Counter::SharedPoolLeases, 1);
                if let Err(e) = crimes.begin_epoch(|vm, ms| work(name, vm, ms)) {
                    pool.release(lease);
                    let failover = failover_if_due(crimes);
                    file_outcome(&mut summary, name, Err(e), failover);
                    continue;
                }
                let job = Job {
                    name,
                    crimes,
                    lease,
                };
                lanes.dispatch(job, pool, &mut summary);
            }
            while lanes.settle_one(pool, &mut summary) {}
            lost = lanes.lost;
        };
        // A lane cannot unwind past `run_boundary`; if one did, its tenant
        // is accounted for through `lost`, and later rounds run inline.
        let _ = self.lanes.scope(dispatch, lent.iter_mut().map(|lane| lane as &mut dyn Task));
        drop(lent);
        drop(jobs);
        for name in lost {
            if let Some(crimes) = fleet.get_mut(&name) {
                crimes.quarantine(LANE_DIED);
            }
        }

        // Completion order is a scheduling artefact; the summary reads
        // like the serial round's (BTreeMap iteration = sorted by name).
        summary.committed.sort_unstable();
        summary.new_incidents.sort_unstable();
        summary.skipped_pending.sort_unstable();
        summary.extended.sort_unstable();
        summary.degraded.sort_unstable();
        summary.failovers.sort_unstable();
        summary.quarantined.sort_unstable();
        summary.skipped_quarantined.sort_unstable();
        summary.errored.sort_by(|a, b| a.0.cmp(&b.0));

        fleet.count_round(&summary);
        self.last_snapshot = fleet.aggregate_telemetry().map(|mut t| {
            t.merge(&self.telemetry);
            t
        });
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CrimesConfig;
    use crate::modules::BlacklistScanModule;
    use crimes_workloads::attacks;

    fn guest(seed: u64) -> Vm {
        let mut b = Vm::builder();
        b.pages(512).seed(seed);
        b.build()
    }

    fn config() -> CrimesConfig {
        let mut b = CrimesConfig::builder();
        b.epoch_interval_ms(20).external_pool(true);
        b.build().expect("valid config")
    }

    fn fleet_of(n: u64) -> Fleet {
        let mut fleet = Fleet::new();
        for i in 0..n {
            let crimes = fleet
                .add_vm(&format!("tenant-{i}"), guest(100 + i), config())
                .expect("add");
            crimes.register_module(Box::new(BlacklistScanModule::bundled()));
        }
        fleet
    }

    fn scheduler_for(fleet: &Fleet, pauses: usize) -> FleetScheduler {
        FleetScheduler::for_fleet(
            fleet,
            FleetSchedulerConfig {
                max_concurrent_pauses: pauses,
                pool_workers: 2,
                overlap_drains: true,
            },
        )
    }

    #[test]
    fn scheduled_round_commits_every_healthy_tenant() {
        let mut fleet = fleet_of(5);
        let mut sched = scheduler_for(&fleet, 2);
        let summary = sched
            .run_round(&mut fleet, |_name, vm, ms| {
                vm.advance_time(ms * 1_000_000);
                Ok(())
            })
            .expect("round");
        assert_eq!(summary.committed.len(), 5);
        assert!(summary.errored.is_empty());
        assert_eq!(fleet.stats().committed_epochs, 5);
        let stats = sched.stats();
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.capacity, 2);
        assert!(stats.peak_leases <= 2, "never more leases out than the cap");
        assert_eq!(stats.total_leases, 5, "one lease per tenant boundary");
    }

    #[test]
    fn scheduled_summary_matches_the_serial_round() {
        // Same seeds, same work, one attacked tenant: the scheduled
        // summary must read exactly like Fleet::run_epoch_round's.
        let drive = |serial: bool| -> FleetEpochSummary {
            let mut fleet = fleet_of(6);
            let work = |name: &str, vm: &mut Vm, _ms: u64| {
                if name == "tenant-3" {
                    attacks::inject_malware_launch(vm, "mirai")?;
                }
                Ok(())
            };
            if serial {
                fleet.run_epoch_round(work).expect("round")
            } else {
                let mut sched = scheduler_for(&fleet, 2);
                sched.run_round(&mut fleet, work).expect("round")
            }
        };
        assert_eq!(drive(true), drive(false));
    }

    #[test]
    fn quarantined_and_pending_tenants_are_skipped_like_the_serial_round() {
        let mut fleet = fleet_of(4);
        let mut sched = scheduler_for(&fleet, 2);
        // Round 1: tenant-1 is attacked and freezes with a pending
        // incident.
        let summary = sched
            .run_round(&mut fleet, |name, vm, _| {
                if name == "tenant-1" {
                    attacks::inject_malware_launch(vm, "mirai")?;
                }
                Ok(())
            })
            .expect("round");
        assert_eq!(summary.new_incidents, vec!["tenant-1".to_owned()]);
        // Round 2: the frozen tenant is skipped, everyone else commits.
        let summary = sched.run_round(&mut fleet, |_, _, _| Ok(())).expect("round");
        assert_eq!(summary.skipped_pending, vec!["tenant-1".to_owned()]);
        assert_eq!(summary.committed.len(), 3);
    }

    #[test]
    fn fleet_clamp_engages_once_for_absurd_worker_requests() {
        let fleet = fleet_of(2);
        let sched = FleetScheduler::for_fleet(
            &fleet,
            FleetSchedulerConfig {
                max_concurrent_pauses: 1,
                pool_workers: 10_000,
                overlap_drains: true,
            },
        );
        let stats = sched.stats();
        assert_eq!(stats.requested_workers, 10_000);
        assert!(stats.workers <= MAX_WORKERS);
        assert!(stats.workers <= CrimesConfigBuilder::host_pause_worker_cap());
        assert_eq!(sched.telemetry().counter(Counter::FleetWorkerClamps), 1);
    }

    #[test]
    fn round_snapshot_merges_tenant_and_scheduler_telemetry() {
        let mut fleet = fleet_of(3);
        let mut sched = scheduler_for(&fleet, 3);
        assert!(sched.last_snapshot().is_none());
        sched.run_round(&mut fleet, |_, _, _| Ok(())).expect("round");
        let snap = sched.last_snapshot().expect("non-empty fleet");
        assert_eq!(snap.counter(Counter::EpochsCommitted), 3);
        assert_eq!(snap.counter(Counter::FleetRounds), 1);
        assert_eq!(snap.counter(Counter::SharedPoolLeases), 3);
    }

    /// A detection module with a bug: its first audit panics, later
    /// ones find nothing.
    #[derive(Debug)]
    struct PanicsOnceModule {
        panicked: bool,
    }

    impl crate::detector::ScanModule for PanicsOnceModule {
        fn name(&self) -> &str {
            "panics-once"
        }

        fn scan(
            &mut self,
            _ctx: &crate::detector::ScanContext<'_>,
        ) -> Result<Vec<crate::detector::ScanFinding>, crimes_vmi::VmiError> {
            if !std::mem::replace(&mut self.panicked, true) {
                panic!("detection module bug (expected by this test)");
            }
            Ok(Vec::new())
        }
    }

    #[test]
    fn a_module_that_panics_in_its_audit_errors_one_tenant_and_fails_closed() {
        use crimes_outbuf::{NetPacket, Output};
        // Capacity 2 is the lane path where the host has the CPUs;
        // capacity 1 is always the inline path.
        for pauses in [2, 1] {
            let mut fleet = fleet_of(5);
            let victim = fleet.get_mut("tenant-2").expect("tenant");
            victim.register_module(Box::new(PanicsOnceModule { panicked: false }));
            let held = victim
                .submit_output(Output::Net(NetPacket::new(1, b"unaudited".to_vec())))
                .expect("within limits");
            assert!(held.is_none(), "held for the boundary's verdict");
            let mut sched = scheduler_for(&fleet, pauses);

            // The panic is that tenant's failure; the round completes.
            let summary = sched
                .run_round(&mut fleet, |_, _, _| Ok(()))
                .expect("round");
            assert_eq!(
                summary.errored,
                vec![(
                    "tenant-2".to_owned(),
                    CrimesError::InvalidState(BOUNDARY_PANICKED)
                )]
            );
            assert_eq!(summary.committed.len(), 4, "everyone else commits");
            assert_eq!(sched.pool.active_leases(), 0, "its lease came back too");
            assert_eq!(fleet.quarantined_vms(), vec!["tenant-2"]);

            // The module would pass now, but the panicked epoch's pages
            // were never audited: no later boundary may commit over them
            // or release what the epoch held.
            for _ in 0..2 {
                let summary = sched
                    .run_round(&mut fleet, |_, _, _| Ok(()))
                    .expect("round");
                assert_eq!(summary.skipped_quarantined, vec!["tenant-2".to_owned()]);
                assert_eq!(summary.committed.len(), 4);
                assert!(summary.errored.is_empty());
            }
            let victim = fleet.get("tenant-2").expect("tenant");
            assert_eq!(victim.committed_epochs(), 0);
            assert_eq!(victim.buffer_stats().released, 0);
            assert_eq!(victim.output_buffer().held_outputs().count(), 1);
            assert_eq!(sched.stats().total_leases, 5 + 4 + 4, "never admitted again");
        }
    }

    #[test]
    fn stagger_hash_is_stable() {
        // The stagger permutation is part of the deterministic-round
        // contract; pin the hash so a refactor cannot silently reshuffle
        // fleets.
        assert_eq!(stagger_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(stagger_hash("tenant-0"), stagger_hash("tenant-1"));
        assert_eq!(stagger_hash("tenant-0"), stagger_hash("tenant-0"));
    }
}
