//! The pause window allocates nothing.
//!
//! CRIMES is cheap only while the window is short and fixed (§4.1,
//! Table 1), so between a boundary's first clock stamp and its `resume`
//! stamp nothing may grow the heap: not the thread that runs the window,
//! nor the resident workers it lends walk shards and the drain's head
//! start to. A counting global allocator watches every pipeline — the
//! four optimisation levels, the fused walk on 1, 2 and 4 workers, the
//! deferred drain with and without a head start, a two-lane
//! `FleetScheduler` round — with the canary and blacklist modules and
//! several hundred dirty pages an epoch; after one warm-up epoch every
//! passing window must count zero.
//!
//! Each tenant runs on a [`WindowClock`], a virtual clock that advances
//! one tick per call and logs what the calling thread and the resident
//! workers have allocated so far. The journal's newest `EpochStart`,
//! read back through the flight recorder, names the call before the
//! window's first stamp, and the phase
//! histograms, which sum to the window's length, name its `resume` stamp:
//! the window's allocations are the difference of the two log entries,
//! made on one thread. With two lanes one tenant's window overlaps
//! another's drain, and only the window's own threads count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

use crimes::modules::{BlacklistScanModule, CanaryScanModule};
use crimes::{Crimes, CrimesConfig, EpochOutcome, Fleet, FleetScheduler, FleetSchedulerConfig};
use crimes_checkpoint::resident::{pin, Placement};
use crimes_checkpoint::{OptLevel, Phase};
use crimes_telemetry::{Clock, EventKind};
use crimes_vm::{Gva, Vm};

#[global_allocator]
static COUNTING: Counting = Counting;

/// The system allocator, counting.
struct Counting;

// SAFETY: both methods hand the caller's arguments straight to `System`,
// which upholds the `GlobalAlloc` contract. Counting touches only
// const-initialised thread-locals and atomics, and a thread's name, none
// of which allocates (`note_allocation`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

thread_local! {
    /// Allocations made on this thread.
    static OWN: Cell<u64> = const { Cell::new(0) };
    /// Whether this is a resident worker (`crimes-resident-N`); `None`
    /// until looked up.
    static RESIDENT: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Allocations made on resident workers: the walk's shards and the
/// drain's head start run there.
static HELPERS: AtomicU64 = AtomicU64::new(0);
/// Whether a thread may be looked up on its next allocation: only while
/// no thread is starting, since a thread's name is readable only once
/// std has started it.
static LOOK_UP: AtomicBool = AtomicBool::new(false);

fn note_allocation() {
    OWN.set(OWN.get() + 1);
    if RESIDENT.get().is_none() && LOOK_UP.load(Relaxed) {
        // For a thread std started, reading its name allocates nothing;
        // `Some(false)` first, so that if it did, the nested call stops.
        RESIDENT.set(Some(false));
        let name = std::thread::current().name().map(|n| n.starts_with("crimes-resident-"));
        RESIDENT.set(name.or(Some(false)));
    }
    if RESIDENT.get() == Some(true) {
        HELPERS.fetch_add(1, Relaxed);
    }
}

/// Ticks of virtual time per clock call.
const TICK_NS: u64 = 1_000;
/// Clock calls one tenant may make over a whole run.
const STAMPS: usize = 1 << 14;

/// A virtual clock that advances [`TICK_NS`] per call and logs, per call,
/// the calling thread (the address of its counter), its allocations and
/// the resident workers' (see the module docs).
#[derive(Debug)]
struct WindowClock {
    calls: AtomicU64,
    log: Box<[[AtomicU64; 3]]>,
    /// Boundary-phase time already attributed to a window.
    seen_ns: AtomicU64,
}

impl WindowClock {
    fn new() -> Arc<Self> {
        Arc::new(WindowClock {
            calls: AtomicU64::new(0),
            log: (0..STAMPS).map(|_| Default::default()).collect(),
            seen_ns: AtomicU64::new(0),
        })
    }

    fn stamp(&self, call: u64) -> [u64; 3] {
        let stamp = usize::try_from(call).ok().and_then(|i| self.log.get(i));
        stamp.expect("the run stays within the clock's log").each_ref().map(|v| v.load(Relaxed))
    }

    /// The allocations inside the window `crimes` (this clock's tenant)
    /// has just run: on the window's thread, plus the resident workers'
    /// when `helpers`.
    fn window_allocations(&self, crimes: &Crimes, helpers: bool) -> u64 {
        let start = crimes
            .flight_recorder()
            .events()
            .filter(|e| e.kind == EventKind::EpochStart)
            .map(|e| e.at_ns)
            .max()
            .expect("the boundary recorded its start");
        // Summed over the boundary phases, the tenant's histograms hold
        // the total length of every window it has run.
        let labels = Phase::ALL.map(Phase::label);
        let total: u64 = (crimes.telemetry().phases())
            .filter(|(label, _)| labels.contains(label))
            .map(|(_, histogram)| histogram.sum())
            .sum();
        let length = total - self.seen_ns.swap(total, Relaxed);
        // The boundary's first stamp is the call after `EpochStart`; its
        // `resume` stamp is the window's length later.
        let open = start / TICK_NS + 1;
        let close = open + length / TICK_NS;
        assert!(close - open >= Phase::ALL.len() as u64, "every phase was stamped");
        let ([thread, own, lent], [closed_on, owned, lent_by_close]) =
            (self.stamp(open), self.stamp(close));
        assert_eq!(thread, closed_on, "a window opens and closes on one thread");
        owned - own + if helpers { lent_by_close - lent } else { 0 }
    }
}

impl Clock for WindowClock {
    fn now_ns(&self) -> u64 {
        let (own, helpers) = (OWN.get(), HELPERS.load(Relaxed));
        let thread = OWN.with(|own| std::ptr::from_ref(own) as u64);
        let call = self.calls.fetch_add(1, Relaxed);
        if let Some(stamp) = usize::try_from(call).ok().and_then(|i| self.log.get(i)) {
            for (slot, value) in stamp.iter().zip([thread, own, helpers]) {
                slot.store(value, Relaxed);
            }
        }
        call * TICK_NS
    }

    /// Time is counted in calls, so a sleep takes none.
    fn sleep(&self, _: Duration) {}
}

/// Pages of the single-tenant guest (the fleet's are smaller), and arena
/// pages per service process, most of which every epoch dirties.
const PAGES: usize = 8_192;
const ARENA_PAGES: usize = 120;
const PROCESSES: usize = 4;
const EPOCHS: u64 = 5;

/// The guest's service processes and the allocations they hold.
#[derive(Default)]
struct Load {
    pids: Vec<u32>,
    held: Vec<(u32, Gva)>,
}

impl Load {
    /// Register the modules `bench/` registers and start the service.
    fn launch(crimes: &mut Crimes) -> Load {
        let secret = crimes.vm().canary_secret();
        crimes.register_module(Box::new(CanaryScanModule::new(secret)));
        crimes.register_module(Box::new(BlacklistScanModule::bundled()));
        let pids = (0..PROCESSES)
            .map(|i| crimes.vm_mut().spawn_process(&format!("svc{i}"), 1000, ARENA_PAGES))
            .collect::<Result<_, _>>()
            .expect("the guest has room for the service");
        Load { pids, ..Load::default() }
    }

    /// One epoch: several hundred distinct pages dirtied (a shifting
    /// subset of every arena), and heap churn that keeps the live canary
    /// count steady.
    fn run(&mut self, vm: &mut Vm, epoch: u64) {
        for (p, &pid) in self.pids.iter().enumerate() {
            for page in (0..ARENA_PAGES).filter(|page| !(page + p + epoch as usize).is_multiple_of(4)) {
                vm.dirty_arena_page(pid, page, page * 7 % 4_096, epoch as u8).expect("in range");
            }
        }
        for (pid, gva) in self.held.drain(..) {
            vm.free(pid, gva).expect("the allocation is live");
        }
        for &pid in &self.pids {
            let gva = vm.malloc(pid, 48 + epoch % 3 * 16).expect("arena has room");
            self.held.push((pid, gva));
        }
    }
}

/// Run `EPOCHS` passing epochs on one tenant built from `config`; the
/// allocations counted in each window after the first.
fn single(config: CrimesConfig, placement: Placement) -> Vec<u64> {
    let _pin = pin(placement);
    let vm = Vm::builder().pages(PAGES).seed(38).build();
    let clock = WindowClock::new();
    let mut crimes = Crimes::protect_with_clock(vm, config, clock.clone()).expect("protect");
    let mut load = Load::launch(&mut crimes);
    let mut counts = Vec::new();
    for epoch in 0..EPOCHS {
        let outcome = crimes.run_epoch(|vm, _| {
            load.run(vm, epoch);
            Ok(())
        });
        assert!(
            matches!(outcome, Ok(EpochOutcome::Committed { ref report, .. }) if report.dirty_pages >= 300),
            "epoch {epoch} commits several hundred dirty pages: {outcome:?}"
        );
        // The workers exist from the first boundary on.
        LOOK_UP.store(true, Relaxed);
        counts.push(clock.window_allocations(&crimes, true));
    }
    LOOK_UP.store(false, Relaxed);
    counts.split_off(1) // after the warm-up epoch
}

fn config(opt: OptLevel, workers: usize, staging: usize) -> CrimesConfig {
    let mut b = CrimesConfig::builder();
    b.epoch_interval_ms(20).opt_level(opt).pause_workers(workers);
    if staging > 0 {
        b.staging_buffers(staging).delta_threshold(64).dedup(true);
    }
    b.build().expect("valid config")
}

#[test]
fn no_passing_window_allocates() {
    let mut failures = Vec::new();
    let mut check = |what: String, counts: Vec<u64>| {
        if counts.iter().any(|&n| n != 0) {
            failures.push(format!("{what}: {counts:?} allocations per window"));
        }
    };
    for opt in OptLevel::ALL {
        check(format!("serial {opt}"), single(config(opt, 1, 0), Placement::Free));
    }
    for workers in [1, 2, 4] {
        for placement in [Placement::Free, Placement::TakeNone] {
            let what = format!("fused, {workers} workers, {placement:?}");
            check(what, single(config(OptLevel::Full, workers, 0), placement));
        }
    }
    // One worker gives the drain no head start; two give it one on a
    // host with a CPU to spare.
    for workers in [1, 2] {
        let what = format!("deferred, {workers} workers");
        check(what, single(config(OptLevel::Full, workers, 2), Placement::Free));
    }
    check("fleet, two lanes".into(), fleet());
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

const FLEET_PAGES: usize = 2_048;
const TENANTS: usize = 4;

/// Rounds of a two-lane `FleetScheduler`; the allocations counted in each
/// tenant's window after the first round. Each lease walks with one
/// worker (a budget of two split over two leases), so a window's only
/// thread is its lane.
fn fleet() -> Vec<u64> {
    let mut fleet = Fleet::new();
    let mut clocks = Vec::new();
    let mut loads = Vec::new();
    for i in 0..TENANTS {
        let vm = Vm::builder().pages(FLEET_PAGES).seed(i as u64).build();
        // Every other tenant drains deferred.
        let mut config = config(OptLevel::Full, 2, 2 * (i % 2));
        config.checkpoint.external_pool = true;
        let clock = WindowClock::new();
        let crimes = fleet
            .add_vm_with_clock(&format!("tenant-{i}"), vm, config, clock.clone())
            .expect("fresh tenant");
        loads.push(Load::launch(crimes));
        clocks.push(clock);
    }
    let mut scheduler = FleetScheduler::for_fleet(
        &fleet,
        FleetSchedulerConfig {
            max_concurrent_pauses: 2,
            pool_workers: 2,
            overlap_drains: true,
        },
    );
    let stats = scheduler.stats();
    assert_eq!(stats.workers / stats.capacity, 1, "each window walks on its lane alone");
    let mut counts = Vec::new();
    for round in 0..EPOCHS {
        let summary = scheduler
            .run_round(&mut fleet, |name, vm, _| {
                let i: usize = name["tenant-".len()..].parse().expect("tenant index");
                loads[i].run(vm, round);
                Ok(())
            })
            .expect("round");
        assert_eq!(summary.committed.len(), TENANTS, "round {round}: {summary:?}");
        for (i, clock) in clocks.iter().enumerate() {
            let crimes = fleet.get(&format!("tenant-{i}")).expect("tenant");
            counts.push(clock.window_allocations(crimes, false));
        }
    }
    counts.split_off(TENANTS) // after the warm-up round
}
