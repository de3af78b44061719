//! # crimes-faults — deterministic fault injection
//!
//! CRIMES's safety argument ("no output escapes an unaudited epoch") is
//! only as good as the pipeline's behaviour when components *fail*: a
//! dropped page copy, a stalled audit, a bit-rotted backup image. This
//! crate is the substrate that makes those failures first-class, testable
//! events: a seeded [`FaultPlan`] names per-point injection probabilities,
//! and consumers across the stack consult [`should_inject`] at the named
//! [`FaultPoint`]s.
//!
//! Design constraints:
//!
//! * **Deterministic** — injections are drawn from an in-tree
//!   [`crimes_rng::ChaCha8Rng`] seeded at [`install`] time, so a failing
//!   soak run replays bit-exactly from its seed.
//! * **Cheap when off** — with no injector installed, [`should_inject`]
//!   is a single thread-local flag read; the production epoch path pays
//!   effectively nothing.
//! * **Scoped** — [`install`] returns an RAII [`FaultScope`]; dropping it
//!   uninstalls the injector (restoring any outer scope), so parallel
//!   tests never contaminate each other. The injector is thread-local by
//!   the same reasoning.
//! * **Accountable** — per-point draw/hit counters ([`counters`]) prove
//!   which failure paths a run actually exercised.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::cell::{Cell, RefCell};

use crimes_rng::ChaCha8Rng;

/// The named injection points threaded through the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// A transient mapped-page read failure while introspection walks
    /// guest structures (`vmi::session`). Retryable.
    VmiRead,
    /// A failed page-copy attempt in the checkpoint copy phase
    /// (`checkpoint::copy`). Retryable: source frames are unchanged while
    /// the VM is paused.
    PageCopy,
    /// A failed write into the backup image mid-copy
    /// (`checkpoint::copy`/`backup`) — leaves a partial copy behind.
    BackupWrite,
    /// Silent single-byte corruption of the committed backup image
    /// (bit-rot; `checkpoint::backup`). Only checksum verification can
    /// see it.
    PageCorrupt,
    /// The end-of-epoch audit overruns its deadline
    /// (`crimes::framework` watchdog / `crimes::async_scan` worker).
    AuditOverrun,
    /// Deterministic replay diverges from the recorded trace
    /// (`crimes::replay`).
    ReplayDiverge,
    /// The output buffer refuses a submission (`outbuf::buffer`).
    OutbufOverflow,
    /// The out-of-window drain of a staged epoch to the backup fails
    /// (`checkpoint::staging`) — the epoch's evidence never becomes
    /// durable, so its outputs must stay held.
    BackupDrain,
    /// The backup host is unreachable when a drain session tries to
    /// connect (`checkpoint::engine`) — no page moves at all; the
    /// session retries with backoff and may resync or fail over.
    BackupOutage,
}

impl FaultPoint {
    /// Every injection point, in declaration order.
    pub const ALL: [FaultPoint; 9] = [
        FaultPoint::VmiRead,
        FaultPoint::PageCopy,
        FaultPoint::BackupWrite,
        FaultPoint::PageCorrupt,
        FaultPoint::AuditOverrun,
        FaultPoint::ReplayDiverge,
        FaultPoint::OutbufOverflow,
        FaultPoint::BackupDrain,
        FaultPoint::BackupOutage,
    ];

    /// Stable name used in plans, counters, and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::VmiRead => "vmi-read",
            FaultPoint::PageCopy => "page-copy",
            FaultPoint::BackupWrite => "backup-write",
            FaultPoint::PageCorrupt => "page-corrupt",
            FaultPoint::AuditOverrun => "audit-overrun",
            FaultPoint::ReplayDiverge => "replay-diverge",
            FaultPoint::OutbufOverflow => "outbuf-overflow",
            FaultPoint::BackupDrain => "backup-drain",
            FaultPoint::BackupOutage => "backup-outage",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Probability resolution: rates are expressed in parts per [`SCALE`].
pub const SCALE: u16 = 1024;

/// Per-point injection probabilities, in parts per [`SCALE`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    rates: [u16; FaultPoint::ALL.len()],
}

impl FaultPlan {
    /// A plan that injects nothing (every rate zero).
    pub fn disabled() -> Self {
        FaultPlan::default()
    }

    /// A plan injecting every point at the same rate.
    pub fn uniform(per_1024: u16) -> Self {
        let mut plan = FaultPlan::default();
        for p in FaultPoint::ALL {
            plan = plan.with_rate(p, per_1024);
        }
        plan
    }

    /// Set one point's rate (clamped to [`SCALE`], i.e. "always").
    #[must_use]
    pub fn with_rate(mut self, point: FaultPoint, per_1024: u16) -> Self {
        self.rates[point.index()] = per_1024.min(SCALE);
        self
    }

    /// The rate configured for `point`.
    pub fn rate(&self, point: FaultPoint) -> u16 {
        self.rates[point.index()]
    }
}

/// Per-point draw/hit counters, proving which failure paths a run
/// actually exercised.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    draws: [u64; FaultPoint::ALL.len()],
    hits: [u64; FaultPoint::ALL.len()],
}

impl FaultCounters {
    /// Times `point` was consulted.
    pub fn draws(&self, point: FaultPoint) -> u64 {
        self.draws[point.index()]
    }

    /// Times `point` actually fired.
    pub fn hits(&self, point: FaultPoint) -> u64 {
        self.hits[point.index()]
    }

    /// Total injections across all points.
    pub fn total_hits(&self) -> u64 {
        self.hits.iter().sum()
    }

    /// `true` when every named point fired at least once — the coverage
    /// bar a fault soak must clear.
    pub fn all_points_hit(&self) -> bool {
        self.hits.iter().all(|&h| h > 0)
    }

    /// Fold `other`'s draws and hits into `self` — used to account for
    /// draws made by forked per-worker injectors (see [`fork_for_worker`]).
    pub fn merge(&mut self, other: &FaultCounters) {
        for (d, o) in self.draws.iter_mut().zip(other.draws.iter()) {
            *d += o;
        }
        for (h, o) in self.hits.iter_mut().zip(other.hits.iter()) {
            *h += o;
        }
    }
}

#[derive(Debug)]
struct Injector {
    plan: FaultPlan,
    seed: u64,
    rng: ChaCha8Rng,
    counters: FaultCounters,
    /// Worker plans forked from this scope so far (see
    /// [`fork_for_worker`]).
    forks: u64,
}

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static INJECTOR: RefCell<Option<Injector>> = const { RefCell::new(None) };
}

/// RAII guard for an installed fault plan. Dropping it uninstalls the
/// injector and restores whatever scope (if any) was active before.
#[derive(Debug)]
pub struct FaultScope {
    prev: Option<Injector>,
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        let prev = self.prev.take();
        ARMED.with(|a| a.set(prev.is_some()));
        INJECTOR.with(|i| *i.borrow_mut() = prev);
    }
}

/// Install `plan` on this thread, drawing injections deterministically
/// from `seed`. Returns the scope guard; the plan stays active until the
/// guard drops.
#[must_use = "the plan is uninstalled when the returned scope drops"]
pub fn install(plan: FaultPlan, seed: u64) -> FaultScope {
    let prev = INJECTOR.with(|i| {
        i.borrow_mut().replace(Injector {
            plan,
            seed,
            rng: ChaCha8Rng::seed_from_u64(seed),
            counters: FaultCounters::default(),
            forks: 0,
        })
    });
    ARMED.with(|a| a.set(true));
    FaultScope { prev }
}

/// `true` while a fault plan is installed on this thread.
#[inline]
pub fn is_active() -> bool {
    ARMED.with(|a| a.get())
}

/// Consult the active plan at `point`. Without an installed plan this is
/// a single thread-local flag read — the production fast path.
#[inline]
pub fn should_inject(point: FaultPoint) -> bool {
    if !is_active() {
        return false;
    }
    draw_at(point)
}

#[cold]
fn draw_at(point: FaultPoint) -> bool {
    INJECTOR.with(|i| {
        let mut slot = i.borrow_mut();
        let Some(inj) = slot.as_mut() else {
            return false;
        };
        let idx = point.index();
        inj.counters.draws[idx] += 1;
        let rate = inj.plan.rates[idx];
        if rate == 0 {
            return false;
        }
        let hit = inj.rng.gen_range(0..u32::from(SCALE)) < u32::from(rate);
        if hit {
            inj.counters.hits[idx] += 1;
        }
        hit
    })
}

/// Draw a deterministic fault parameter in `[0, span)` — e.g. which byte
/// to corrupt, which op index to diverge at. Returns 0 when `span` is 0
/// or no plan is installed.
pub fn draw_below(span: u64) -> u64 {
    if span == 0 {
        return 0;
    }
    INJECTOR.with(|i| {
        i.borrow_mut()
            .as_mut()
            .map_or(0, |inj| inj.rng.gen_range(0..span))
    })
}

/// Derive a plan + seed for a pause-window worker thread.
///
/// The injector is thread-local, so scoped workers spawned inside the
/// pause window cannot see the installer's plan. This forks it: the
/// worker installs the returned `(plan, seed)` pair on its own thread.
/// The derived seed is a pure mix of the installed seed, the worker
/// index, and the number of forks this scope has handed out so far — so
/// every walk, and every retry of a walk, draws a fresh worker schedule
/// (a seed mixed from the index alone would replay the same draws on
/// every walk: a worker would fault always or never). It consumes **no**
/// draws from the installer's RNG, so forking never perturbs the
/// installer's own injection schedule, and the same seed and the same
/// sequence of forks always yield the same worker schedules. Returns
/// `None` when no plan is installed (the production fast path).
pub fn fork_for_worker(index: u64) -> Option<(FaultPlan, u64)> {
    if !is_active() {
        return None;
    }
    INJECTOR.with(|i| {
        i.borrow_mut().as_mut().map(|inj| {
            let nth = inj.forks;
            inj.forks += 1;
            let mixed = (inj.seed
                ^ (index + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ nth.wrapping_mul(0xd6e8_feb8_6659_fd93))
            .wrapping_mul(0x2545_f491_4f6c_dd1d);
            (inj.plan, mixed)
        })
    })
}

/// Fold counters collected by a forked worker injector back into the
/// active scope, so coverage accounting ([`all_points_hit`]) still sees
/// draws made on worker threads. No-op when no plan is installed.
///
/// [`all_points_hit`]: FaultCounters::all_points_hit
pub fn absorb(worker: &FaultCounters) {
    if !is_active() {
        return;
    }
    INJECTOR.with(|i| {
        if let Some(inj) = i.borrow_mut().as_mut() {
            inj.counters.merge(worker);
        }
    });
}

/// Snapshot of the active injector's counters (all-zero when inactive).
pub fn counters() -> FaultCounters {
    INJECTOR.with(|i| i.borrow().as_ref().map(|inj| inj.counters).unwrap_or_default())
}

/// Shorthand: times `point` has fired under the active scope.
pub fn hits(point: FaultPoint) -> u64 {
    counters().hits(point)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default() {
        assert!(!is_active());
        for p in FaultPoint::ALL {
            assert!(!should_inject(p));
        }
        assert_eq!(counters(), FaultCounters::default());
    }

    #[test]
    fn always_rate_always_fires_and_counts() {
        let _scope = install(FaultPlan::disabled().with_rate(FaultPoint::PageCopy, SCALE), 7);
        assert!(is_active());
        for _ in 0..10 {
            assert!(should_inject(FaultPoint::PageCopy));
            assert!(!should_inject(FaultPoint::VmiRead), "other points stay quiet");
        }
        let c = counters();
        assert_eq!(c.hits(FaultPoint::PageCopy), 10);
        assert_eq!(c.draws(FaultPoint::PageCopy), 10);
        assert_eq!(c.hits(FaultPoint::VmiRead), 0);
        assert_eq!(c.draws(FaultPoint::VmiRead), 10);
        assert_eq!(c.total_hits(), 10);
        assert!(!c.all_points_hit());
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::uniform(SCALE / 4);
        let draw = |seed| {
            let _scope = install(plan, seed);
            (0..64).map(|_| should_inject(FaultPoint::VmiRead)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42), "seeded schedules replay bit-exactly");
        assert_ne!(draw(42), draw(43), "different seeds differ");
    }

    #[test]
    fn rates_shape_frequency() {
        let _scope = install(FaultPlan::disabled().with_rate(FaultPoint::OutbufOverflow, SCALE / 8), 1);
        let hits = (0..4096).filter(|_| should_inject(FaultPoint::OutbufOverflow)).count();
        // 1/8 of 4096 = 512 expected; allow generous slack.
        assert!((300..750).contains(&hits), "got {hits} hits");
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = install(FaultPlan::uniform(SCALE), 1);
        assert!(should_inject(FaultPoint::PageCorrupt));
        {
            let _inner = install(FaultPlan::disabled(), 2);
            assert!(!should_inject(FaultPoint::PageCorrupt), "inner plan wins");
        }
        assert!(should_inject(FaultPoint::PageCorrupt), "outer plan restored");
        drop(outer);
        assert!(!is_active());
    }

    #[test]
    fn draw_below_is_bounded_and_deterministic() {
        let _scope = install(FaultPlan::disabled(), 9);
        let draws: Vec<u64> = (0..100).map(|_| draw_below(13)).collect();
        assert!(draws.iter().all(|&d| d < 13));
        assert!(draws.iter().any(|&d| d != draws[0]), "draws vary");
        assert_eq!(draw_below(0), 0);
    }

    #[test]
    fn uniform_and_with_rate_clamp() {
        let plan = FaultPlan::uniform(9999);
        for p in FaultPoint::ALL {
            assert_eq!(plan.rate(p), SCALE);
        }
        let plan = FaultPlan::disabled().with_rate(FaultPoint::VmiRead, 10);
        assert_eq!(plan.rate(FaultPoint::VmiRead), 10);
        assert_eq!(plan.rate(FaultPoint::PageCopy), 0);
    }

    #[test]
    fn fork_is_fresh_per_walk_and_deterministic() {
        assert!(fork_for_worker(0).is_none(), "no plan, nothing to fork");
        let plan = FaultPlan::uniform(SCALE / 4);
        let _scope = install(plan, 42);
        let before: Vec<bool> = (0..32).map(|_| should_inject(FaultPoint::VmiRead)).collect();
        let (p0, s0) = fork_for_worker(0).expect("active plan forks");
        let (p1, s1) = fork_for_worker(1).expect("active plan forks");
        assert_eq!(p0, plan);
        assert_eq!(p1, plan);
        assert_ne!(s0, s1, "workers get distinct schedules");
        let (_, again) = fork_for_worker(0).expect("active plan forks");
        assert_ne!(again, s0, "the next walk's worker 0 draws a fresh schedule");
        // Forking must not consume installer draws, and the same sequence
        // of forks must replay: same prefix and same forks under a fresh
        // scope.
        drop(_scope);
        let _scope = install(plan, 42);
        let replay: Vec<bool> = (0..32).map(|_| should_inject(FaultPoint::VmiRead)).collect();
        assert_eq!(before, replay, "fork consumed installer RNG draws");
        let forks = [0, 1, 0].map(|i| fork_for_worker(i).expect("active plan forks").1);
        assert_eq!(forks, [s0, s1, again], "same seed, same forks, same schedules");
    }

    #[test]
    fn absorb_folds_worker_counters() {
        let _scope = install(FaultPlan::disabled(), 5);
        let worker = {
            let _w = install(FaultPlan::uniform(SCALE), 99);
            for _ in 0..3 {
                assert!(should_inject(FaultPoint::PageCopy));
            }
            counters()
        };
        assert_eq!(counters().hits(FaultPoint::PageCopy), 0);
        absorb(&worker);
        let c = counters();
        assert_eq!(c.hits(FaultPoint::PageCopy), 3);
        assert_eq!(c.draws(FaultPoint::PageCopy), 3);
    }

    #[test]
    fn merge_adds_per_point() {
        let mut a = FaultCounters::default();
        let b = {
            let _scope = install(FaultPlan::uniform(SCALE), 3);
            assert!(should_inject(FaultPoint::VmiRead));
            assert!(should_inject(FaultPoint::ReplayDiverge));
            counters()
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.hits(FaultPoint::VmiRead), 2);
        assert_eq!(a.draws(FaultPoint::ReplayDiverge), 2);
        assert_eq!(a.total_hits(), 4);
    }

    #[test]
    fn point_names_are_stable() {
        let names: Vec<&str> = FaultPoint::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "vmi-read",
                "page-copy",
                "backup-write",
                "page-corrupt",
                "audit-overrun",
                "replay-diverge",
                "outbuf-overflow",
                "backup-drain",
                "backup-outage"
            ]
        );
        assert_eq!(FaultPoint::AuditOverrun.to_string(), "audit-overrun");
    }
}
