//! The resident executor: a few parked threads that run jobs *borrowed*
//! from the thread that lends them, under the `std::thread::scope`
//! contract. Every second thread in `checkpoint` and `crimes` is one of
//! these: the walk's shards, the drain's head start, the drain's cipher
//! shares and the fleet's pause lanes are jobs lent to them. DESIGN.md,
//! *Threads*, has the reasons and the host measurements; this header has
//! the contract.
//!
//! [`Resident::scope`] posts one lent job to each worker, runs the
//! lender's own share, runs the jobs there was no worker for, then **takes
//! back every posted job no worker has started** and runs it too, and
//! blocks until every job a worker did start is finished. It returns — or
//! unwinds, if something it ran panicked — only then, so a job may borrow
//! whatever outlives the call, and a worker that is late or has no CPU
//! costs the lender nothing. A job slot is a state under a mutex (which
//! is what lets a job be taken back), built with the executor: lending
//! allocates nothing. A worker that panics with a job is *lost*: the scope
//! reports [`CheckpointError::WorkerLost`] once everything else is
//! finished, and the executor lends nothing from then on (later scopes run
//! on the lender alone, in order); likewise after a lender's panic.
//!
//! Lending a borrow to a thread that already exists needs the workspace's
//! one production `unsafe` block, in [`Resident::scope`]; the proof is at
//! the block. Every thread the workspace starts is started by
//! [`start_thread`].

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::JoinHandle;

use crate::error::CheckpointError;

/// A job a [`Resident::scope`] can lend; any `FnMut() + Send` closure is
/// one.
pub trait Task: Send {
    /// Run the job, on whichever thread gets to it.
    fn run(&mut self);

    /// Run the job on a resident worker: [`run`](Self::run), for any job
    /// that does not count where it ran.
    fn run_on_worker(&mut self) {
        self.run();
    }
}

impl<F: FnMut() + Send> Task for F {
    fn run(&mut self) {
        self();
    }
}

/// A lent job, its lifetime erased (see [`Resident::scope`]).
type Lent = &'static mut dyn Task;

/// One worker's job slot. The lender moves it `Idle → Posted` and, taking
/// the job back, `Posted → Idle`; the worker `Posted → Running → Done` (or
/// `Lost`); the lender collects `Done → Idle`.
enum State {
    Idle,
    /// A job nobody has started. While `held`, the worker leaves it alone
    /// (test pins only).
    Posted { job: Lent, held: bool },
    /// The worker has the job, and is the only one who does.
    Running,
    /// The worker is finished with the job and holds nothing of it.
    Done,
    /// The worker panicked with the job (and dropped it unwinding); its
    /// thread is gone.
    Lost,
    /// The executor is being dropped.
    Exit,
}

struct Slot {
    state: Mutex<State>,
    /// Signalled on every change of `state`.
    changed: Condvar,
    /// Test hook: jobs the worker still finishes before it panics holding
    /// the next one it claims; negative for never.
    #[cfg(test)]
    doomed: std::sync::atomic::AtomicIsize,
}

impl Slot {
    /// The state, poisoned or not: every update is one assignment, so
    /// there is no half-made state to find, and a lender must be able to
    /// wait for its jobs whatever else went wrong.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.changed.wait(state).unwrap_or_else(PoisonError::into_inner)
    }

    fn set(&self, state: State) {
        *self.lock() = state;
        self.changed.notify_all();
    }
}

/// A worker thread: parked on its slot between jobs, gone when the
/// executor drops or a job panics.
fn work(slot: &Slot) {
    loop {
        let job = {
            let mut state = slot.lock();
            loop {
                match &*state {
                    State::Posted { held: false, .. } => {
                        if let State::Posted { job, .. } =
                            std::mem::replace(&mut *state, State::Running)
                        {
                            break job;
                        }
                    }
                    State::Exit => return,
                    _ => state = slot.wait(state),
                }
            }
        };
        // `job` moves into the call and is gone when that returns or
        // unwinds; `Done` and `Lost` are written after.
        let ran = catch_unwind(AssertUnwindSafe(move || {
            #[cfg(test)]
            if slot.doomed.fetch_sub(1, std::sync::atomic::Ordering::Relaxed) == 0 {
                panic!("test: the worker dies holding its job");
            }
            job.run_on_worker();
        }));
        if ran.is_err() {
            slot.set(State::Lost);
            return;
        }
        slot.set(State::Done);
    }
}

/// Test pin on where a scope's lent jobs run, read from the lending
/// thread. No result may depend on it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Whoever gets to a job first (no pin).
    Free,
    /// The workers are held off: the lender takes every job back.
    TakeAll,
    /// The lender takes nothing back: it waits for the workers.
    TakeNone,
    /// The workers are held off until the lender has finished its own
    /// share, then run everything lent while it waits.
    Stalled,
}

impl Placement {
    /// Every pin, for tests that run under each.
    pub const ALL: [Placement; 4] =
        [Placement::Free, Placement::TakeAll, Placement::TakeNone, Placement::Stalled];
}

thread_local! {
    static PLACEMENT: Cell<Placement> = const { Cell::new(Placement::Free) };
}

/// Pin every scope this thread lends from until the guard drops. Not
/// `#[cfg(test)]` because the suites that run under it
/// (`tests/pause_parallel.rs`, `tests/fault_soak.rs`) are other crates.
/// Only for scopes whose own share does not wait on a lent job.
#[doc(hidden)]
pub fn pin(placement: Placement) -> Pinned {
    Pinned(PLACEMENT.replace(placement))
}

/// Guard of [`pin`]: restores the previous pin.
#[doc(hidden)]
#[derive(Debug)]
pub struct Pinned(Placement);

impl Drop for Pinned {
    fn drop(&mut self) {
        PLACEMENT.set(self.0);
    }
}

/// The executor. See the [module docs](self).
pub struct Resident {
    slots: Arc<[Slot]>,
    /// One per started worker, in slot order.
    threads: Vec<JoinHandle<()>>,
    started: bool,
    /// A worker died with a job, or a lender's share panicked: nothing is
    /// lent any more.
    lost: bool,
}

impl std::fmt::Debug for Resident {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (started, slots, lost) = (self.threads.len(), self.slots.len(), self.lost);
        write!(f, "Resident({started} of {slots} workers started, lost: {lost})")
    }
}

/// The posted half of one [`Resident::scope`]: what has to be settled
/// before the scope may return or unwind.
struct Lending<'e> {
    /// The slots jobs were posted to.
    posted: &'e [Slot],
    placement: Placement,
    lost: &'e mut bool,
    settled: bool,
}

impl Lending<'_> {
    /// Take back every posted job no worker has started — running it here
    /// if `run`, dropping it unrun if the scope is unwinding — and wait
    /// until no worker holds one. The number taken back.
    fn settle(&mut self, run: bool) -> Result<usize, CheckpointError> {
        let wait_for_workers =
            run && matches!(self.placement, Placement::TakeNone | Placement::Stalled);
        let mut taken = 0;
        for slot in self.posted {
            let mut state = slot.lock();
            if let State::Posted { held, .. } = &mut *state {
                if wait_for_workers {
                    *held = false;
                    slot.changed.notify_all();
                } else if let State::Posted { job, .. } = std::mem::replace(&mut *state, State::Idle)
                {
                    drop(state);
                    taken += 1;
                    if run {
                        job.run();
                    }
                }
            }
        }
        let mut lost = false;
        for slot in self.posted {
            let mut state = slot.lock();
            while matches!(*state, State::Posted { .. } | State::Running) {
                state = slot.wait(state);
            }
            match *state {
                State::Done => *state = State::Idle,
                State::Lost => lost = true,
                _ => {}
            }
        }
        self.settled = true;
        if lost {
            *self.lost = true;
            return Err(CheckpointError::WorkerLost);
        }
        Ok(taken)
    }
}

impl Drop for Lending<'_> {
    fn drop(&mut self) {
        if !self.settled {
            // Unwinding out of the lender's share or a job taken back.
            *self.lost = true;
            let _ = self.settle(false);
        }
    }
}

impl Resident {
    /// An executor of `threads` workers. None is started yet.
    pub fn new(threads: usize) -> Self {
        let slot = |_| Slot {
            state: Mutex::new(State::Idle),
            changed: Condvar::new(),
            #[cfg(test)]
            doomed: std::sync::atomic::AtomicIsize::new(-1),
        };
        Resident {
            slots: (0..threads).map(slot).collect(),
            threads: Vec::new(),
            started: false,
            lost: false,
        }
    }

    /// Start the workers, the first time it is called. Call it where a
    /// thread's start costs nobody anything: before a guest is suspended,
    /// before a round. A worker the host refuses is done without.
    pub fn start(&mut self) {
        if std::mem::replace(&mut self.started, true) {
            return;
        }
        for index in 0..self.slots.len() {
            let slots = Arc::clone(&self.slots);
            let spawned = start_thread(format!("crimes-resident-{index}"), move || {
                if let Some(slot) = slots.get(index) {
                    work(slot);
                }
            });
            match spawned {
                Ok(thread) => self.threads.push(thread),
                Err(_) => break,
            }
        }
    }

    /// Workers a [`scope`](Self::scope) would lend to right now: the
    /// started ones, or none once one was lost.
    pub fn threads(&self) -> usize {
        if self.lost { 0 } else { self.threads.len() }
    }

    /// Run `own` on this thread and each job of `lent` on this thread or
    /// a worker — whichever gets to it first — and return when all are
    /// finished: the number of jobs posted to a worker and taken back
    /// unstarted. With no worker to lend to, `own` and then the jobs run
    /// here, in order.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::WorkerLost`] when a worker panicked with one of
    /// the jobs, once every other job is finished. Whatever that job
    /// borrowed is in the state the panic left it in.
    ///
    /// # Panics
    ///
    /// With `own`, or with a job run here — after every job a worker had
    /// started is finished, jobs not yet started being dropped unrun.
    pub fn scope<'a>(
        &mut self,
        own: impl FnOnce(),
        lent: impl IntoIterator<Item = &'a mut (dyn Task + 'a)>,
    ) -> Result<usize, CheckpointError> {
        let mut lent = lent.into_iter();
        let placement = PLACEMENT.get();
        let workers = self.slots.get(..self.threads()).unwrap_or(&[]);
        let mut lending = Lending {
            posted: &[],
            placement,
            lost: &mut self.lost,
            settled: false,
        };
        for (i, slot) in workers.iter().enumerate() {
            let Some(job) = lent.next() else { break };
            // SAFETY: the transmute changes only the reference's two
            // lifetimes, `'a` to `'static`, so that a slot shared with a
            // thread older than `'a` can hold it. To show: nothing uses
            // the reference once `'a` may have ended, i.e. once this call
            // has returned or unwound.
            //
            // The reference is in one place at a time: the slot's `Posted`
            // state, or moved out of it under the slot's mutex by the
            // worker (leaving `Running`) or by `settle` (leaving `Idle`).
            // The worker's copy moves into the job's call and is dropped
            // when that returns or unwinds; only then does the worker
            // write `Done` or `Lost`, and it keeps nothing. `settle`'s
            // copy is run or dropped inside `settle`.
            //
            // `lending` exists before the first post and covers each slot
            // from the moment it is posted to, and this function cannot be
            // left without `settle` having run to its end: by the call at
            // the bottom, or, on any unwind (out of `lent.next()`, `own`,
            // a surplus job, a job `settle` ran here), by `Lending::drop`,
            // which runs no job and recovers its locks from poisoning, so
            // cannot itself unwind early. `settle` ends only after seeing
            // every posted slot in a state other than `Posted` and
            // `Running`, under the mutex the worker wrote it under: the
            // worker's last use happens-before the return. `Lending` is
            // private to this function's frame and cannot be leaked.
            //
            // Assumed: a worker stops only by returning or unwinding from
            // a job (nothing here kills threads).
            let job = unsafe { std::mem::transmute::<&'a mut (dyn Task + 'a), Lent>(job) };
            lending.posted = workers.get(..=i).unwrap_or(workers);
            slot.set(State::Posted {
                job,
                held: matches!(placement, Placement::TakeAll | Placement::Stalled),
            });
        }
        own();
        for job in lent {
            job.run();
        }
        lending.settle(true)
    }

    /// Test hook: the first worker finishes `after` more jobs, then
    /// panics holding the next one it claims.
    #[cfg(test)]
    pub(crate) fn doom(&self, after: isize) {
        if let Some(slot) = self.slots.first() {
            slot.doomed.store(after, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

/// Start a thread named `name` running `body`: the one place the
/// workspace starts a thread (clippy's `disallowed-methods` holds every
/// other site to it) — the executors' workers and the asynchronous
/// forensics worker.
///
/// # Errors
///
/// When the host refuses the thread.
#[expect(clippy::disallowed_methods, reason = "the one thread start")]
pub fn start_thread(
    name: String,
    body: impl FnOnce() + Send + 'static,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name).spawn(body)
}

/// An executor shared by its pool and the drain that borrows it, for the
/// pool. A lock poisoned by a scope that unwound guards a valid executor:
/// the scope marked it lost before letting go (`Lending::drop`).
pub(crate) fn lock(shared: &Mutex<Resident>) -> MutexGuard<'_, Resident> {
    shared.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The same, for a borrower that may not wait for it: `None` while
/// someone else holds it.
pub(crate) fn try_lock(shared: &Mutex<Resident>) -> Option<MutexGuard<'_, Resident>> {
    match shared.try_lock() {
        Ok(exec) => Some(exec),
        Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

impl Drop for Resident {
    fn drop(&mut self) {
        for slot in self.slots.iter() {
            slot.set(State::Exit);
        }
        for thread in self.threads.drain(..) {
            // A lost worker's thread ended in a panic, reported when it
            // happened.
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run one scope of an own share and five lent jobs, each adding one
    /// to its own cell of a borrowed array.
    fn count_up(exec: &mut Resident) -> (Result<usize, CheckpointError>, [u32; 6]) {
        let mut cells = [0u32; 6];
        let (own, lent) = cells.split_at_mut(1);
        let mut jobs: Vec<_> = lent.iter_mut().map(|cell| move || *cell += 1).collect();
        let ran = exec.scope(
            || own.iter_mut().for_each(|cell| *cell += 1),
            jobs.iter_mut().map(|job| job as &mut dyn Task),
        );
        (ran, cells)
    }

    #[test]
    fn every_job_runs_once_wherever_it_is_placed() {
        for placement in Placement::ALL {
            for threads in [0, 1, 3, 8] {
                let _pin = pin(placement);
                let mut exec = Resident::new(threads);
                exec.start();
                for _ in 0..50 {
                    let (taken_back, cells) = count_up(&mut exec);
                    assert_eq!(cells, [1; 6], "{threads} threads, {placement:?}");
                    let posted = threads.min(5);
                    let taken_back = taken_back.expect("no worker dies");
                    match placement {
                        Placement::Free => assert!(taken_back <= posted),
                        Placement::TakeAll => assert_eq!(taken_back, posted),
                        Placement::TakeNone | Placement::Stalled => assert_eq!(taken_back, 0),
                    }
                }
            }
        }
    }

    #[test]
    fn a_lost_worker_is_reported_once_the_rest_is_done_and_ends_lending() {
        let mut exec = Resident::new(2);
        assert_eq!(exec.threads(), 0, "not started yet");
        exec.start();
        assert_eq!(exec.threads(), 2);
        exec.doom(0);
        let (ran, cells) = {
            let _pin = pin(Placement::TakeNone);
            count_up(&mut exec)
        };
        assert_eq!(ran, Err(CheckpointError::WorkerLost));
        assert_eq!(cells, [1, 0, 1, 1, 1, 1], "only the job the worker died with did not run");
        assert_eq!(exec.threads(), 0);
        assert_eq!(count_up(&mut exec), (Ok(0), [1; 6]), "everything on the lender from now on");
    }
}
