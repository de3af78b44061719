//! The fused pause-window walk: one sharded pass over the epoch's dirty
//! pages instead of three serial ones.
//!
//! The pause window is the whole overhead story (§4, Fig. 4/7): the VM is
//! stopped while the audit scans dirtied memory, Remus-style copy captures
//! dirty pages, and (since the integrity extension) each copied page is
//! re-digested. Serially those are three passes over the same page set.
//! This module **fuses** them — every dirty page is visited exactly once,
//! and each registered [`FusedPageVisitor`] (scan, copy, digest) runs over
//! it in turn — and **shards** the fused pass across a preallocated scoped
//! worker pool (`std::thread::scope`; no new dependencies, hermetic).
//!
//! A pool of two or more workers on a host with a second CPU also keeps
//! one **resident helper** thread (see [`PauseWindowPool::ensure_helper`]),
//! which the deferred pipeline lends the drain's read-only half while the
//! engine sits in the modelled resume. It is resident because a scoped
//! thread cannot do this job: measured on the benchmark host, a freshly
//! spawned thread starts a median 880 µs after `spawn` (p10 ≈ 400 µs) —
//! longer than the whole resume — where a parked one wakes on the other
//! CPU in about 7 µs. The sharded walk keeps its scope: it borrows the
//! guest, the visitors and the image, which a resident thread could only
//! be handed through `unsafe`, and its shards are long enough to carry
//! the start.
//!
//! # Determinism contract
//!
//! Results are bit-identical for any worker count:
//!
//! * pages are sorted by MFN and split into contiguous shards, so the
//!   shard boundaries are a pure function of the dirty set and the worker
//!   count;
//! * per-page digests combine by XOR (order independent) and are applied
//!   in sorted-MFN order anyway;
//! * scan findings carry `(visitor, key)` identifiers and are merged in
//!   shard order then sorted — the canonical order equals a serial scan's;
//! * each worker gets a *forked* fault-injection plan whose seed is a pure
//!   mix of the installed seed, the worker index and the scope's fork
//!   count ([`crimes_faults::fork_for_worker`]), so worker draws never
//!   perturb the installer's schedule and every walk draws a fresh one.
//!
//! `pause_workers = 1` is the same walk with one shard, run inline on the
//! calling thread (no scope, no spawn) under the same forked fault plan.
//!
//! # Why allocation is pre-staged
//!
//! The pause-window purity lint forbids heap growth inside the window.
//! Everything the walk needs — the sort buffer, per-worker undo logs,
//! digest and finding slots, cipher scratch, per-worker syscall models —
//! is allocated at [`PauseWindowPool::new`] time (framework build time)
//! and only `clear()`ed/refilled inside the window, within its preallocated
//! capacity. Worker shards write disjoint contiguous regions of the backup
//! image peeled off with `split_at_mut`, so no locking (and no unsafe) is
//! needed either.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crimes_faults::{FaultCounters, FaultPlan, FaultPoint};
use crimes_vm::{DirtyBitmap, GuestMemory, Mfn, Pfn, Vm, PAGE_SIZE};

use crate::backup::BackupVm;
use crate::copy::CopyStats;
use crate::engine::AuditVerdict;
use crate::error::CheckpointError;
use crate::mapping::{HypercallModel, MappedPage};
use crate::staging::{HeadStart, HeadStartDone};

/// Upper bound on `pause_workers` — a scoped thread costs its start
/// (hundreds of microseconds on a busy two-CPU host, see the module
/// header), the per-worker scratch (undo log, syscall model) is not free,
/// and shards thinner than this stop paying for either.
pub const MAX_WORKERS: usize = 16;

/// Findings a visitor may keep per shard before its slot has to grow.
/// Findings only exist under active attack, so growth past this is the
/// rare case the window is allowed to pay for.
const FINDINGS_CAP: usize = 64;

/// Everything a visitor may look at for one page. The source bytes are the
/// primary VM's frame — after the copy visitor runs, the backup's copy of
/// this page holds exactly these bytes, so digesting `src` and digesting
/// the copied frame are the same computation.
#[derive(Debug)]
pub struct PageCtx<'a> {
    /// Guest page frame number.
    pub pfn: Pfn,
    /// Machine frame number (index into the backup image).
    pub mfn: Mfn,
    /// The page's bytes in the primary VM.
    pub src: &'a [u8],
    /// The paused guest's whole memory, for checks that cross page
    /// boundaries (e.g. a canary spanning two pages).
    pub mem: &'a GuestMemory,
}

/// One page-scoped finding surfaced during the fused walk. Only an
/// identifier — the framework resolves it into a full finding after the
/// walk (guest memory is unchanged while the VM is paused, so anything
/// else can be re-read then, off the workers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageFinding {
    /// Index of the visitor that pushed the finding (its position in the
    /// visitor stack the walk ran).
    pub source: u32,
    /// Visitor-defined identifier (e.g. the canary record index).
    pub key: u64,
    /// The page the finding was made on.
    pub pfn: Pfn,
}

/// A scan/copy/digest pass fused into the sharded page walk.
///
/// Visitors are shared by reference across the worker threads, so they
/// must be [`Sync`] and all per-page *output* flows through the
/// per-worker [`ShardSink`]. Visitor order within a page is the stack
/// order the caller composed; results must not depend on it (the built-in
/// visitors are pairwise independent: copy writes the backup, digest
/// reads `src`, scans read guest memory).
pub trait FusedPageVisitor: Sync {
    /// Visit one dirty page.
    fn visit_page(&self, ctx: &PageCtx<'_>, sink: &mut ShardSink<'_>);

    /// Called once per shard after its last page (e.g. to flush a
    /// partially-filled socket batch). Default: nothing.
    fn finish_shard(&self, _sink: &mut ShardSink<'_>) {}
}

/// A visitor that does nothing — the placeholder when an audit has no
/// page-scoped scan staged.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopVisitor;

impl FusedPageVisitor for NoopVisitor {
    fn visit_page(&self, _ctx: &PageCtx<'_>, _sink: &mut ShardSink<'_>) {}
}

/// The audit half of a fused epoch, as the engine drives it:
///
/// 1. [`stage`](FusedAudit::stage) — refresh introspection state and
///    resolve everything page-scoped scans need (translations, table
///    reads) *before* the walk, on the main thread;
/// 2. [`visitor`](FusedAudit::visitor) — the staged page-scoped scan that
///    rides the walk (or `None` when nothing is page-scoped);
/// 3. [`verdict`](FusedAudit::verdict) — global-structure scans plus the
///    walk's findings decide the epoch's [`AuditVerdict`].
pub trait FusedAudit {
    /// Stage page-scoped scan state for this epoch's dirty set.
    fn stage(&mut self, vm: &Vm, dirty: &DirtyBitmap);

    /// The staged page-scoped visitor, if any.
    fn visitor(&self) -> Option<&dyn FusedPageVisitor>;

    /// Decide the epoch's verdict from the global scans and the walk's
    /// page findings.
    fn verdict(&mut self, vm: &Vm, dirty: &DirtyBitmap, findings: &[PageFinding]) -> AuditVerdict;
}

/// Per-worker result and scratch slots, allocated at pool build time.
#[derive(Debug)]
struct WorkerSlot {
    /// `(page index, digest)` per visited page.
    digests: Vec<(usize, u64)>,
    findings: Vec<PageFinding>,
    /// Pre-walk backup bytes of every page this shard overwrote, appended
    /// page by page; restored if the attempt fails or the verdict rejects
    /// the epoch.
    undo: Vec<u8>,
    undo_tags: Vec<Mfn>,
    /// Serialisation scratch for the fused socket copy path.
    stream: Vec<u8>,
    /// Per-worker syscall cost model (socket path).
    syscalls: HypercallModel,
    stats: CopyStats,
    counters: FaultCounters,
    outcome: Result<(), CheckpointError>,
}

impl WorkerSlot {
    fn new(shard_pages: usize, hypercall_steps: u32) -> Self {
        WorkerSlot {
            digests: Vec::with_capacity(shard_pages),
            findings: Vec::with_capacity(FINDINGS_CAP),
            undo: Vec::with_capacity(shard_pages * PAGE_SIZE),
            undo_tags: Vec::with_capacity(shard_pages),
            stream: Vec::with_capacity(2 * PAGE_SIZE),
            syscalls: HypercallModel::new(hypercall_steps),
            stats: CopyStats::default(),
            counters: FaultCounters::default(),
            outcome: Ok(()),
        }
    }

    fn reset(&mut self) {
        self.digests.clear();
        self.findings.clear();
        self.undo.clear();
        self.undo_tags.clear();
        self.stats = CopyStats::default();
        self.counters = FaultCounters::default();
        self.outcome = Ok(());
    }
}

/// Per-worker output channel for the fused walk. Visitors write pages,
/// digests, findings, and cost-model events here; the pool merges slots
/// deterministically after the scope joins.
#[derive(Debug)]
pub struct ShardSink<'a> {
    /// This shard's contiguous byte region of the destination buffer.
    region: &'a mut [u8],
    /// Current page's offset within `region`.
    cur: usize,
    /// Source tag stamped on pushed findings (the visitor's position in
    /// the walk's visitor stack; set by the pool before each call).
    source: u32,
    /// Pages serialised since the last modelled `writev` (socket path).
    batched: usize,
    stats: &'a mut CopyStats,
    digests: &'a mut Vec<(usize, u64)>,
    findings: &'a mut Vec<PageFinding>,
    stream: &'a mut Vec<u8>,
    syscalls: &'a mut HypercallModel,
}

impl<'a> ShardSink<'a> {
    /// The current page's destination bytes in the backup image.
    pub fn dst(&mut self) -> &mut [u8] {
        self.region
            .get_mut(self.cur..self.cur + PAGE_SIZE)
            .unwrap_or(&mut [])
    }

    /// Cipher scratch and the current page's destination, together (the
    /// socket path encrypts into scratch, then decrypts into place).
    pub fn stream_and_dst(&mut self) -> (&mut Vec<u8>, &mut [u8]) {
        let dst = self
            .region
            .get_mut(self.cur..self.cur + PAGE_SIZE)
            .unwrap_or(&mut []);
        (self.stream, dst)
    }

    /// Record one copied page in the shard's copy statistics.
    pub fn count_page(&mut self, bytes: usize) {
        self.stats.pages += 1;
        self.stats.bytes += bytes;
    }

    /// Record the per-page digest (applied to the image digest after
    /// resume, off the pause window).
    pub fn push_digest(&mut self, index: usize, digest: u64) {
        self.digests.push((index, digest));
    }

    /// Surface a page-scoped finding under the current visitor's source
    /// tag.
    pub fn push_finding(&mut self, key: u64, pfn: Pfn) {
        self.findings.push(PageFinding {
            source: self.source,
            key,
            pfn,
        });
    }

    /// Model one syscall (drives the per-worker hypercall cost model and
    /// counts it in the shard's copy statistics).
    pub fn model_syscall(&mut self) {
        self.syscalls.call();
        self.stats.syscalls += 1;
    }

    /// Count the current page toward a `writev` batch of `batch` pages,
    /// modelling one syscall per full batch.
    pub fn batch_page(&mut self, batch: usize) {
        self.batched += 1;
        if self.batched >= batch {
            self.batched = 0;
            self.model_syscall();
        }
    }

    /// Flush a partially-filled sender batch and model the restore-side
    /// reads (one per batch of `batch` pages) — the socket path's
    /// end-of-shard accounting.
    pub fn finish_batches(&mut self, batch: usize) {
        if self.batched > 0 {
            self.batched = 0;
            self.model_syscall();
        }
        if batch > 0 {
            for _ in 0..self.stats.pages.div_ceil(batch) {
                self.model_syscall();
            }
        }
    }

    /// Stash the current page's pre-copy bytes in the undo log.
    /// Pool-internal: runs on the backup walk before the visitors see the
    /// page (staging walks skip it — the backup is untouched, so there is
    /// nothing to restore).
    fn save_undo(&self, mfn: Mfn, undo: &mut Vec<u8>, undo_tags: &mut Vec<Mfn>) {
        let old = self
            .region
            .get(self.cur..self.cur + PAGE_SIZE)
            .unwrap_or(&[]);
        undo.extend_from_slice(old);
        undo_tags.push(mfn);
    }
}

/// Where a walk's destination pages live in its `frames` buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// The backup image: the page for machine frame `m` is at byte
    /// `m * PAGE_SIZE`, and its pre-copy bytes go to the undo log.
    Image,
    /// A staging slot: page `i` of the MFN-sorted list is at byte
    /// `i * PAGE_SIZE`. Nothing is overwritten that matters, so no undo.
    Packed,
}

/// The pool's resident helper: a parked thread that runs one
/// [`HeadStart`] at a time. Both channels hold one message and are
/// allocated here, so handing a job over and taking it back never grows
/// the heap.
#[derive(Debug)]
struct Helper {
    jobs: Option<SyncSender<HeadStart>>,
    done: Receiver<HeadStartDone>,
    /// Raised by [`PauseWindowPool::reclaim`]; the job reads it per page.
    /// `Relaxed` throughout: the flag publishes no data (the job and its
    /// results cross in the channels, which order everything else), it
    /// only has to become visible soon.
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Helper {
    /// Start the thread; `None` when the host refuses one. `job` is
    /// [`HeadStart::run`] (a parameter so a test can start a helper that
    /// dies with the job in hand).
    fn start(job: fn(HeadStart, &AtomicBool) -> HeadStartDone) -> Option<Helper> {
        let (jobs, inbox) = sync_channel::<HeadStart>(1);
        let (outbox, done) = sync_channel(1);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("crimes-head-start".into())
            .spawn(move || {
                // Parked in `recv` between jobs; leaves when the pool
                // drops its sender.
                while let Ok(head_start) = inbox.recv() {
                    if outbox.send(job(head_start, &flag)).is_err() {
                        break;
                    }
                }
            })
            .ok()?;
        Some(Helper {
            jobs: Some(jobs),
            done,
            stop,
            thread: Some(thread),
        })
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        self.jobs = None;
        if let Some(thread) = self.thread.take() {
            // Joined, so every handle the thread held is dropped by now.
            let _ = thread.join();
        }
    }
}

/// The preallocated scoped worker pool executing fused pause-window walks.
#[derive(Debug)]
pub struct PauseWindowPool {
    workers: usize,
    /// Sort buffer: the epoch's mapped pages ordered by MFN.
    sorted: Vec<MappedPage>,
    slots: Vec<WorkerSlot>,
    /// All shards' findings, merged in shard order and sorted
    /// `(source, key)` — the canonical (serial-equivalent) order.
    merged: Vec<PageFinding>,
    /// Whether this pool may keep a helper: a worker to spare and a
    /// second CPU to run it on; cleared for good if the helper is lost.
    helper_allowed: bool,
    helper: Option<Helper>,
    /// Test pin: cover exactly this many pages, however long the resume.
    pinned: Option<usize>,
}

impl PauseWindowPool {
    /// Build the pool and every buffer the walk will need. `num_pages` is
    /// the VM's total page count — the worst-case dirty set — so nothing
    /// inside the window ever has to grow.
    pub fn new(workers: usize, num_pages: usize, hypercall_steps: u32) -> Self {
        let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self::on_host(workers, num_pages, hypercall_steps, host_cpus)
    }

    /// [`new`](Self::new) with the host's CPU count given.
    pub(crate) fn on_host(
        workers: usize,
        num_pages: usize,
        hypercall_steps: u32,
        host_cpus: usize,
    ) -> Self {
        let workers = workers.clamp(1, MAX_WORKERS);
        let shard_pages = num_pages.div_ceil(workers).max(1);
        PauseWindowPool {
            workers,
            sorted: Vec::with_capacity(num_pages),
            slots: (0..workers)
                .map(|_| WorkerSlot::new(shard_pages, hypercall_steps))
                .collect(),
            merged: Vec::with_capacity(workers * FINDINGS_CAP),
            helper_allowed: workers > 1 && host_cpus > 1,
            helper: None,
            pinned: None,
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Start the resident helper if this pool may have one and has none
    /// yet. The engine calls this before it suspends a guest whose sink
    /// is a staging slot, so the thread is created at most once per pool,
    /// never inside a window, and never for a pool that runs no deferred
    /// boundary.
    pub(crate) fn ensure_helper(&mut self) {
        if self.helper_allowed && self.helper.is_none() {
            self.helper = Helper::start(HeadStart::run);
            self.helper_allowed = self.helper.is_some();
        }
    }

    /// Is a helper running to [`lend`](Self::lend) to?
    pub(crate) fn has_helper(&self) -> bool {
        self.helper.is_some()
    }

    /// The last walk's page list in the MFN order it was packed in.
    pub(crate) fn walked(&self) -> &[MappedPage] {
        &self.sorted
    }

    /// Hand `job` to the parked helper, which starts it on its own CPU.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::HeadStartLost`] when the helper is gone; it is
    /// not replaced.
    // lint: pause-window
    pub(crate) fn lend(&mut self, mut job: HeadStart) -> Result<(), CheckpointError> {
        job.limit = self.pinned.unwrap_or(job.limit);
        let sent = self.helper.as_ref().is_some_and(|helper| {
            helper.stop.store(false, Ordering::Relaxed);
            helper.jobs.as_ref().is_some_and(|jobs| jobs.try_send(job).is_ok())
        });
        if sent {
            Ok(())
        } else {
            self.retire_helper()
        }
    }

    /// Tell the helper to stop after the page it is on and wait for the
    /// job's buffers. The helper dropped its handles on the images before
    /// it answered.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::HeadStartLost`] when the helper died with the
    /// job; the thread is joined first, so its handles are dropped too.
    // lint: pause-window
    pub(crate) fn reclaim(&mut self) -> Result<HeadStartDone, CheckpointError> {
        let done = self.helper.as_ref().and_then(|helper| {
            // A pinned head start runs to its pin instead.
            helper.stop.store(self.pinned.is_none(), Ordering::Relaxed);
            helper.done.recv().ok()
        });
        match done {
            Some(done) => Ok(done),
            None => self.retire_helper(),
        }
    }

    /// Test pin: every head start covers exactly `pages` pages (or all
    /// there are), and [`reclaim`](Self::reclaim) waits for that instead
    /// of stopping it.
    #[cfg(test)]
    pub(crate) fn pin_head_start(&mut self, pages: usize) {
        self.pinned = Some(pages);
    }

    /// Test hook: replace the helper with one whose thread panics on the
    /// first job it is handed.
    #[cfg(test)]
    pub(crate) fn doom_helper(&mut self) {
        self.helper = Helper::start(|_, _| panic!("test: the helper dies holding its job"));
    }

    fn retire_helper<T>(&mut self) -> Result<T, CheckpointError> {
        self.helper = None;
        self.helper_allowed = false;
        Err(CheckpointError::HeadStartLost)
    }

    /// Execute one fused walk over `mapped`: every page is visited once,
    /// by every visitor in `visitors` (stack order), sharded across the
    /// pool's workers.
    ///
    /// On success the backup holds the copied pages; per-page digests and
    /// findings are available from [`page_digests`](Self::page_digests)
    /// and [`findings`](Self::findings), and the undo log can restore the
    /// backup if the verdict later rejects the epoch
    /// ([`rollback_walk`](Self::rollback_walk)).
    ///
    /// # Errors
    ///
    /// The first failing shard's error, in shard order (deterministic).
    /// The backup is restored from the undo log before returning — a
    /// failed attempt leaves the image exactly as it was, so the engine's
    /// retry loop re-runs the walk from a clean slate.
    // lint: pause-window
    pub fn run(
        &mut self,
        mem: &GuestMemory,
        backup: &mut BackupVm,
        mapped: &[MappedPage],
        visitors: &[&dyn FusedPageVisitor],
    ) -> Result<CopyStats, CheckpointError> {
        match self.run_frames(mem, backup.frames_mut(), mapped, visitors, Layout::Image) {
            Ok(stats) => Ok(stats),
            Err(err) => {
                restore_undo(&mut self.slots, backup);
                Err(err)
            }
        }
    }

    /// Execute one fused walk into a **packed** buffer — the deferred
    /// pipeline's staging slot — instead of the backup: page `i` of the
    /// MFN-sorted page list lands at byte `i * PAGE_SIZE`, so a walk over
    /// `n` pages touches exactly the first `n` pages of `frames` however
    /// the guest's dirty set is scattered. Each worker still gets a
    /// contiguous run of the sorted list, hence a contiguous region of
    /// the buffer. No undo log is recorded: the backup is untouched, and
    /// a failed or rejected staging walk is discarded wholesale (the next
    /// attempt overwrites the same prefix).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::ShardGeometry`], before `frames` is touched,
    /// for a duplicate MFN, an MFN past the guest image, or a page list
    /// longer than the buffer.
    /// Otherwise the first failing shard's error, in shard order; the
    /// staged buffer may then hold a partial snapshot, which the caller
    /// discards.
    // lint: pause-window
    pub fn run_staging(
        &mut self,
        mem: &GuestMemory,
        frames: &mut [u8],
        mapped: &[MappedPage],
        visitors: &[&dyn FusedPageVisitor],
    ) -> Result<CopyStats, CheckpointError> {
        self.run_frames(mem, frames, mapped, visitors, Layout::Packed)
    }

    /// The shared walk core: shard `mapped` over `frames` and run the
    /// visitor stack. `layout` says where a page lives in `frames` and
    /// whether its pre-copy bytes are stashed for a restore. On error the
    /// undo log is *not* replayed here — [`run`](Self::run) restores the
    /// backup, staging callers discard.
    // lint: pause-window
    fn run_frames(
        &mut self,
        mem: &GuestMemory,
        frames: &mut [u8],
        mapped: &[MappedPage],
        visitors: &[&dyn FusedPageVisitor],
        layout: Layout,
    ) -> Result<CopyStats, CheckpointError> {
        let PauseWindowPool {
            workers,
            sorted,
            slots,
            merged,
            ..
        } = self;
        merged.clear();
        for slot in slots.iter_mut() {
            slot.reset();
        }
        sorted.clear();
        sorted.extend_from_slice(mapped);
        sorted.sort_unstable_by_key(|&(_, mfn)| mfn);

        let n = sorted.len();
        if n == 0 {
            return Ok(CopyStats::default());
        }
        let used = (*workers).min(n);
        // Contiguous near-equal shards: the first `rem` get one extra page.
        let (base, rem) = (n / used, n % used);

        // Fork the fault plan on the installer's thread (the injector is
        // thread-local); each worker installs its own derived schedule.
        let mut forks: [Option<(FaultPlan, u64)>; MAX_WORKERS] = [None; MAX_WORKERS];
        for (i, f) in forks.iter_mut().enumerate().take(used) {
            *f = crimes_faults::fork_for_worker(i as u64);
        }

        // Fail-closed shard geometry, checked before any worker spawns.
        // The peel below relies on strictly increasing MFNs (a duplicate
        // would make image regions overlap and break the undo log's
        // bit-exact restore, or stage one frame twice) and on every page
        // offset landing inside `frames` without overflowing. A
        // guest-influenced page list violating either is refused with a
        // typed error while `frames` is still untouched — no undo needed.
        for pair in sorted.windows(2) {
            if let [a, b] = pair {
                if a.1 == b.1 {
                    return Err(CheckpointError::ShardGeometry {
                        mfn: b.1 .0,
                        detail: "duplicate MFN in the page list",
                    });
                }
            }
        }
        // The image layout bounds every MFN by the image below; a packed
        // slot's offsets say nothing about where its source frames live,
        // so bound the largest MFN by the guest it is read from.
        if let (Layout::Packed, Some(&(_, last))) = (layout, sorted.last()) {
            if !usize::try_from(last.0).is_ok_and(|m| m < mem.num_pages()) {
                return Err(CheckpointError::ShardGeometry {
                    mfn: last.0,
                    detail: "MFN beyond the guest image",
                });
            }
        }
        let mut ranges: [(usize, usize); MAX_WORKERS] = [(0, 0); MAX_WORKERS];
        {
            let mut next = 0usize;
            let mut prev_hi = 0usize;
            for (i, range) in ranges.iter_mut().enumerate().take(used) {
                let take = base + usize::from(i < rem);
                let pages = sorted.get(next..next + take).unwrap_or(&[]);
                let (Some(&(_, first)), Some(&(_, last))) = (pages.first(), pages.last()) else {
                    continue;
                };
                // The shard's first page slot and the slot past its last:
                // machine frames in the image, list positions when packed.
                let (lo, hi) = match layout {
                    Layout::Image => (
                        usize::try_from(first.0).ok(),
                        usize::try_from(last.0).ok().and_then(|p| p.checked_add(1)),
                    ),
                    Layout::Packed => (Some(next), Some(next + take)),
                };
                next += take;
                let lo = lo.and_then(|p| p.checked_mul(PAGE_SIZE));
                let hi = hi.and_then(|p| p.checked_mul(PAGE_SIZE));
                let (Some(lo), Some(hi)) = (lo, hi) else {
                    return Err(CheckpointError::ShardGeometry {
                        mfn: last.0,
                        detail: "frame byte offset overflows the address space",
                    });
                };
                if hi > frames.len() {
                    return Err(CheckpointError::ShardGeometry {
                        mfn: last.0,
                        detail: match layout {
                            Layout::Image => "MFN beyond the backup image",
                            Layout::Packed => "page list longer than the staging slot",
                        },
                    });
                }
                debug_assert!(lo >= prev_hi, "sorted unique pages shard monotonically");
                prev_hi = hi;
                *range = (lo, hi);
            }
        }

        if used == 1 {
            // One worker means one shard: run it inline and skip the
            // scope. Spawning + joining an OS thread costs tens of
            // microseconds per epoch — real money against a ~3 ms pause —
            // and `run_shard` installs its forked fault plan behind an
            // RAII scope, so the caller's injection schedule is identical
            // either way.
            if let (Some(slot), Some(&(lo, hi))) = (slots.first_mut(), ranges.first()) {
                if hi > lo {
                    let region = frames.get_mut(lo..hi).unwrap_or(&mut []);
                    let fork = forks.first().copied().flatten();
                    run_shard(slot, region, lo, sorted, mem, visitors, fork, layout);
                }
            }
        } else {
            // lint: allow(pause-window) -- the one sanctioned scope: preallocated worker slots, joins before resume
            std::thread::scope(|scope| {
                let mut rest: &mut [u8] = frames;
                let mut consumed = 0usize;
                let mut next = 0usize;
                for (i, slot) in slots.iter_mut().enumerate().take(used) {
                    let take = base + usize::from(i < rem);
                    let pages = sorted.get(next..next + take).unwrap_or(&[]);
                    next += take;
                    let Some(&(lo, hi)) = ranges.get(i) else {
                        continue;
                    };
                    if hi <= lo {
                        // Empty shard (no pages, so no validated range).
                        continue;
                    }
                    // Peel this shard's disjoint byte region off the image.
                    // The saturating subtractions cannot clamp after the
                    // geometry checks above; they keep the window panic-free.
                    let (_, tail) = rest.split_at_mut(lo.saturating_sub(consumed));
                    let (region, tail) = tail.split_at_mut(hi.saturating_sub(lo));
                    rest = tail;
                    consumed = hi;
                    let fork = forks.get(i).copied().flatten();
                    scope.spawn(move || {
                        run_shard(slot, region, lo, pages, mem, visitors, fork, layout)
                    });
                }
            });
        }

        // Deterministic merge: shard order for counters and findings, then
        // the canonical (source, key) sort. The XOR digest fold downstream
        // is order-independent by construction.
        let mut stats = CopyStats::default();
        let mut first_err = None;
        for slot in slots.iter().take(used) {
            crimes_faults::absorb(&slot.counters);
            stats.pages += slot.stats.pages;
            stats.bytes += slot.stats.bytes;
            stats.syscalls += slot.stats.syscalls;
            if first_err.is_none() {
                first_err = slot.outcome.clone().err();
            }
        }
        if let Some(err) = first_err {
            return Err(err);
        }
        for slot in slots.iter().take(used) {
            merged.extend_from_slice(&slot.findings);
        }
        merged.sort_unstable_by_key(|f| (f.source, f.key));
        Ok(stats)
    }

    /// Page-scoped findings from the last successful walk, in canonical
    /// order.
    pub fn findings(&self) -> &[PageFinding] {
        &self.merged
    }

    /// `(worker slot, copy statistics)` for the last walk, one entry per
    /// configured worker. Slots are reset at the start of every walk, so
    /// these are per-walk (per-epoch) values — telemetry accumulates them.
    pub fn worker_stats(&self) -> impl Iterator<Item = (usize, CopyStats)> + '_ {
        self.slots.iter().enumerate().map(|(i, s)| (i, s.stats))
    }

    /// `(page index, digest)` for every page the last successful walk
    /// copied.
    pub fn page_digests(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.slots.iter().flat_map(|s| s.digests.iter().copied())
    }

    /// Restore every page the last walk overwrote from the undo log —
    /// the backup returns bit-exactly to its pre-walk image. Used when
    /// the verdict rejects the epoch (Fail/Inconclusive) after the fused
    /// copy already ran.
    pub fn rollback_walk(&mut self, backup: &mut BackupVm) {
        restore_undo(&mut self.slots, backup);
    }
}

/// The fleet's pause-window walkers: `capacity` preallocated
/// [`PauseWindowPool`]s on a free list, handed out as leases.
///
/// Workers and walk scratch are *host* resources: a fleet of N tenants
/// must not build N private pools (N× the undo buffers — each roughly a
/// full guest image) nor oversubscribe the host CPUs N×. The shared pool
/// is sized once, at fleet level: one worker budget, split evenly across
/// the `capacity` lease slots (`max(1, workers / capacity)` each), and
/// `capacity` walkers each sized for the largest tenant. A scheduler
/// [`lease`](Self::lease)s a walker before entering a tenant's boundary,
/// runs the tenant's walk on [`PoolLease::pool`], and
/// [`release`](Self::release)s it when the tenant's boundary is done.
/// Saturation is refused with a typed error *before* any guest is
/// suspended, so contention shows up as scheduling back-pressure, never
/// as an unbounded pause.
///
/// A lease **is** its walker, moved out of the free list: up to
/// `capacity` tenants can be inside their pause windows at the same
/// time, on different threads, without sharing any walk state, and a
/// stale lease cannot be expressed. Results are bit-identical to a
/// private per-tenant pool because a walk is a pure function of the
/// dirty set, whatever the worker count (see the module docs).
///
/// Memory is `capacity ×` the largest tenant's walk scratch — bounded by
/// the concurrency knob, not by the tenant count — and the scratch is
/// reserved capacity, so pages no walk has written are not resident.
#[derive(Debug)]
pub struct SharedPausePool {
    /// Walkers not currently leased (at most `capacity`).
    free: Vec<PauseWindowPool>,
    capacity: usize,
    /// The fleet-wide worker budget the walkers split.
    workers: usize,
    total_leases: u64,
    peak_active: usize,
}

/// One tenant's occupancy of a [`SharedPausePool`]: the leased walker
/// itself. Not cloneable, and consumed by [`SharedPausePool::release`].
/// Dropping a lease instead of releasing it shrinks the pool for good
/// (the slot keeps counting as leased), which fails closed.
#[derive(Debug)]
pub struct PoolLease {
    pool: PauseWindowPool,
}

impl PoolLease {
    /// The leased walker, for this tenant's pause window.
    pub fn pool(&mut self) -> &mut PauseWindowPool {
        &mut self.pool
    }
}

impl SharedPausePool {
    /// Build the shared pool: a budget of `workers` threads (clamped like
    /// [`PauseWindowPool::new`]) split across `capacity` walkers (minimum
    /// 1), each with buffers sized for `num_pages` — the *largest*
    /// tenant's page count, so every tenant's worst-case dirty set fits.
    pub fn new(workers: usize, num_pages: usize, hypercall_steps: u32, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let workers = workers.clamp(1, MAX_WORKERS);
        let per_lease = (workers / capacity).max(1);
        SharedPausePool {
            free: (0..capacity)
                .map(|_| PauseWindowPool::new(per_lease, num_pages, hypercall_steps))
                .collect(),
            capacity,
            workers,
            total_leases: 0,
            peak_active: 0,
        }
    }

    /// The fleet-wide worker budget (after clamping). Each lease walks
    /// with `max(1, workers / capacity)` of them.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Concurrent leases the pool grants before refusing.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Leases currently outstanding.
    pub fn active_leases(&self) -> usize {
        self.capacity.saturating_sub(self.free.len())
    }

    /// Leases granted over the pool's lifetime.
    pub fn total_leases(&self) -> u64 {
        self.total_leases
    }

    /// High-water mark of concurrent leases.
    pub fn peak_active(&self) -> usize {
        self.peak_active
    }

    /// Lease a walker for one tenant's epoch boundary.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::PoolSaturated`] when `capacity` leases are
    /// already outstanding — refused before anything is paused, so the
    /// caller reschedules the tenant instead of stretching its window.
    pub fn lease(&mut self) -> Result<PoolLease, CheckpointError> {
        let pool = self.free.pop().ok_or(CheckpointError::PoolSaturated {
            capacity: self.capacity,
        })?;
        self.total_leases = self.total_leases.saturating_add(1);
        self.peak_active = self.peak_active.max(self.active_leases());
        Ok(PoolLease { pool })
    }

    /// Put a leased walker back on the free list. A lease from some
    /// other pool cannot grow this one past its capacity; it is dropped.
    pub fn release(&mut self, lease: PoolLease) {
        if self.free.len() < self.capacity {
            self.free.push(lease.pool);
        }
    }
}

fn restore_undo(slots: &mut [WorkerSlot], backup: &mut BackupVm) {
    for slot in slots.iter_mut() {
        for (&mfn, old) in slot.undo_tags.iter().zip(slot.undo.chunks_exact(PAGE_SIZE)) {
            backup.store_frame(mfn, old);
        }
        slot.undo.clear();
        slot.undo_tags.clear();
    }
}

/// One worker's fused pass over its shard. Runs on a scoped thread with a
/// forked fault plan; all output lands in `slot`.
// lint: pause-window
#[allow(clippy::too_many_arguments)]
fn run_shard(
    slot: &mut WorkerSlot,
    region: &mut [u8],
    region_base: usize,
    pages: &[MappedPage],
    mem: &GuestMemory,
    visitors: &[&dyn FusedPageVisitor],
    fork: Option<(FaultPlan, u64)>,
    layout: Layout,
) {
    let _plan = fork.map(|(plan, seed)| crimes_faults::install(plan, seed));
    let WorkerSlot {
        digests,
        findings,
        undo,
        undo_tags,
        stream,
        syscalls,
        stats,
        counters,
        outcome,
    } = slot;
    let mut sink = ShardSink {
        region,
        cur: 0,
        source: 0,
        batched: 0,
        stats,
        digests,
        findings,
        stream,
        syscalls,
    };

    // Shard-level fault points: a copy fault up front, or a backup-write
    // fault part-way through the shard.
    *outcome = (|| {
        if crimes_faults::should_inject(FaultPoint::PageCopy) {
            return Err(CheckpointError::CopyFault { strategy: "fused" });
        }
        let fail_after = crimes_faults::should_inject(FaultPoint::BackupWrite)
            .then(|| crimes_faults::draw_below(pages.len() as u64) as usize);
        for (done, &(pfn, mfn)) in pages.iter().enumerate() {
            if fail_after == Some(done) {
                return Err(CheckpointError::BackupWriteFault {
                    pages_written: done,
                });
            }
            // The geometry checks put every offset below in range; the
            // saturating forms keep the window panic-free regardless.
            match layout {
                Layout::Image => {
                    sink.cur = (mfn.0 as usize)
                        .saturating_mul(PAGE_SIZE)
                        .saturating_sub(region_base);
                    sink.save_undo(mfn, undo, undo_tags);
                }
                Layout::Packed => sink.cur = done.saturating_mul(PAGE_SIZE),
            }
            let ctx = PageCtx {
                pfn,
                mfn,
                src: mem.frame(mfn),
                mem,
            };
            for (i, v) in visitors.iter().enumerate() {
                sink.source = i as u32;
                v.visit_page(&ctx, &mut sink);
            }
        }
        for (i, v) in visitors.iter().enumerate() {
            sink.source = i as u32;
            v.finish_shard(&mut sink);
        }
        Ok(())
    })();
    *counters = crimes_faults::counters();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrity::{chunk_digest, FusedDigest};

    fn vm_with_dirt(pages: usize, dirt: usize, seed: u64) -> (Vm, Vec<MappedPage>) {
        let mut b = Vm::builder();
        b.pages(pages).seed(seed);
        let mut vm = b.build();
        let pid = vm.spawn_process("app", 0, dirt + 8).expect("spawn");
        vm.memory_mut().take_dirty();
        for i in 0..dirt {
            vm.dirty_arena_page(pid, i, i % 100, (i % 251) as u8)
                .expect("dirty");
        }
        let mapped: Vec<MappedPage> = vm
            .memory()
            .dirty()
            .iter()
            .map(|p| (p, vm.memory().pfn_to_mfn(p)))
            .collect();
        (vm, mapped)
    }

    /// A visitor that copies pages and records one finding per page whose
    /// first byte is odd, keyed by MFN.
    #[derive(Debug)]
    struct CopyAndFlagOdd;

    impl FusedPageVisitor for CopyAndFlagOdd {
        fn visit_page(&self, ctx: &PageCtx<'_>, sink: &mut ShardSink<'_>) {
            sink.dst().copy_from_slice(ctx.src);
            sink.count_page(ctx.src.len());
            if ctx.src.first().is_some_and(|b| b % 2 == 1) {
                sink.push_finding(ctx.mfn.0, ctx.pfn);
            }
        }
    }

    fn run_walk(workers: usize, seed: u64) -> (Vec<u8>, Vec<PageFinding>, u64, CopyStats) {
        let (vm, mapped) = vm_with_dirt(512, 60, seed);
        let mut backup = BackupVm::new(&vm);
        for &(_, mfn) in &mapped {
            backup.frame_mut(mfn).fill(0xee);
        }
        let mut pool = PauseWindowPool::new(workers, 512, 2);
        let visitors: [&dyn FusedPageVisitor; 2] = [&CopyAndFlagOdd, &FusedDigest];
        let stats = pool
            .run(vm.memory(), &mut backup, &mapped, &visitors)
            .expect("no faults armed");
        let xor = pool
            .page_digests()
            .fold(0u64, |acc, (_, d)| acc ^ d);
        (
            backup.frames().to_vec(),
            pool.findings().to_vec(),
            xor,
            stats,
        )
    }

    #[test]
    fn any_worker_count_is_bit_identical() {
        let (frames1, findings1, xor1, stats1) = run_walk(1, 9);
        for workers in [2, 4, 7] {
            let (frames, findings, xor, stats) = run_walk(workers, 9);
            assert_eq!(frames, frames1, "{workers} workers: backup image differs");
            assert_eq!(findings, findings1, "{workers} workers: findings differ");
            assert_eq!(xor, xor1, "{workers} workers: digest fold differs");
            assert_eq!(stats.pages, stats1.pages);
            assert_eq!(stats.bytes, stats1.bytes);
        }
    }

    #[test]
    fn digests_match_serial_chunk_digest() {
        let (vm, mapped) = vm_with_dirt(512, 20, 3);
        let mut backup = BackupVm::new(&vm);
        let mut pool = PauseWindowPool::new(4, 512, 2);
        let visitors: [&dyn FusedPageVisitor; 1] = [&FusedDigest];
        pool.run(vm.memory(), &mut backup, &mapped, &visitors)
            .expect("no faults armed");
        let mut got: Vec<(usize, u64)> = pool.page_digests().collect();
        got.sort_unstable();
        let mut want: Vec<(usize, u64)> = mapped
            .iter()
            .map(|&(_, mfn)| {
                (
                    mfn.0 as usize,
                    chunk_digest(mfn.0, vm.memory().frame(mfn)),
                )
            })
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn staging_walk_packs_pages_in_mfn_order_for_any_worker_count() {
        use crate::copy::PageCopier;
        let (vm, mapped) = vm_with_dirt(512, 40, 11);
        // Reference: page `i` of the MFN-sorted list at byte
        // `i * PAGE_SIZE`, and nothing anywhere else.
        let mut by_mfn = mapped.clone();
        by_mfn.sort_unstable_by_key(|&(_, mfn)| mfn);
        assert_ne!(by_mfn, mapped, "the guest's PFN order is not MFN order");
        let mut reference = vec![0u8; 512 * PAGE_SIZE];
        for (dst, &(_, mfn)) in reference.chunks_exact_mut(PAGE_SIZE).zip(&by_mfn) {
            dst.copy_from_slice(vm.memory().frame(mfn));
        }

        let snapshot: [&dyn FusedPageVisitor; 1] = [&PageCopier::memcpy()];
        for workers in [1, 2, 4] {
            let mut pool = PauseWindowPool::new(workers, 512, 2);
            let mut staged = vec![0u8; 512 * PAGE_SIZE];
            let stats = pool
                .run_staging(vm.memory(), &mut staged, &mapped, &snapshot)
                .expect("no faults armed");
            // Equality with the reference also says every byte at or past
            // `n * PAGE_SIZE` of the fresh slot is still zero.
            assert!(staged == reference, "{workers} workers: staged bytes differ");
            assert_eq!(
                pool.page_digests().count(),
                0,
                "the staged walk must not digest inside the window"
            );
            assert_eq!(stats.pages, mapped.len());
            assert_eq!(stats.bytes, mapped.len() * PAGE_SIZE);
        }
    }

    #[test]
    fn staging_walk_refuses_bad_geometry_before_touching_the_slot() {
        use crate::copy::PageCopier;
        let (vm, mapped) = vm_with_dirt(512, 20, 9);
        let snapshot: [&dyn FusedPageVisitor; 1] = [&PageCopier::memcpy()];
        let mut pool = PauseWindowPool::new(4, 512, 2);

        let mut duplicated = mapped.clone();
        duplicated.extend(mapped.first().copied());
        let mut slot = vec![0x77u8; 512 * PAGE_SIZE];
        let err = pool
            .run_staging(vm.memory(), &mut slot, &duplicated, &snapshot)
            .expect_err("duplicate MFN must be refused");
        assert!(
            matches!(err, CheckpointError::ShardGeometry { detail, .. }
                if detail.contains("duplicate")),
            "got {err:?}"
        );
        assert!(slot.iter().all(|&b| b == 0x77), "refused walk wrote the slot");

        // One page short of the list: MFNs are irrelevant to a packed
        // slot, only the count is.
        let mut short = vec![0x77u8; (mapped.len() - 1) * PAGE_SIZE];
        let err = pool
            .run_staging(vm.memory(), &mut short, &mapped, &snapshot)
            .expect_err("a page list longer than the slot must be refused");
        assert!(
            matches!(err, CheckpointError::ShardGeometry { detail, .. }
                if detail.contains("longer than the staging slot")),
            "got {err:?}"
        );
        assert!(short.iter().all(|&b| b == 0x77), "refused walk wrote the slot");
        // A slot offset says nothing about the source frame, so the MFN
        // itself is bounded by the guest it would be read from.
        let mut beyond = mapped.clone();
        beyond.push((Pfn(511), Mfn(512)));
        let err = pool
            .run_staging(vm.memory(), &mut slot, &beyond, &snapshot)
            .expect_err("an MFN past the guest image must be refused");
        assert!(
            matches!(err, CheckpointError::ShardGeometry { mfn: 512, .. }),
            "got {err:?}"
        );
        assert!(slot.iter().all(|&b| b == 0x77), "refused walk wrote the slot");
        // An exact fit is fine, wherever the frames live in the guest.
        let mut exact = vec![0u8; mapped.len() * PAGE_SIZE];
        pool.run_staging(vm.memory(), &mut exact, &mapped, &snapshot)
            .expect("the list fits the slot exactly");
    }

    #[test]
    fn empty_walk_is_a_noop() {
        let (vm, _) = vm_with_dirt(512, 4, 1);
        let mut backup = BackupVm::new(&vm);
        let before = backup.frames().to_vec();
        let mut pool = PauseWindowPool::new(4, 512, 2);
        let visitors: [&dyn FusedPageVisitor; 1] = [&CopyAndFlagOdd];
        let stats = pool
            .run(vm.memory(), &mut backup, &[], &visitors)
            .expect("empty walk");
        assert_eq!(stats, CopyStats::default());
        assert_eq!(backup.frames(), before.as_slice());
        assert!(pool.findings().is_empty());
    }

    #[test]
    fn failed_attempt_restores_backup_bit_exactly() {
        let (vm, mapped) = vm_with_dirt(512, 30, 5);
        let mut backup = BackupVm::new(&vm);
        for &(_, mfn) in &mapped {
            backup.frame_mut(mfn).fill(0x5a);
        }
        let before = backup.frames().to_vec();
        let mut pool = PauseWindowPool::new(3, 512, 2);
        let visitors: [&dyn FusedPageVisitor; 1] = [&CopyAndFlagOdd];
        let plan = FaultPlan::disabled().with_rate(FaultPoint::BackupWrite, crimes_faults::SCALE);
        let _scope = crimes_faults::install(plan, 11);
        let err = pool
            .run(vm.memory(), &mut backup, &mapped, &visitors)
            .expect_err("backup-write fault armed at full rate");
        assert!(matches!(err, CheckpointError::BackupWriteFault { .. }));
        assert_eq!(
            backup.frames(),
            before.as_slice(),
            "undo log must restore the pre-walk image"
        );
        let c = crimes_faults::counters();
        assert!(
            c.draws(FaultPoint::BackupWrite) >= 3,
            "worker draws must be absorbed into the installer's counters"
        );
    }

    #[test]
    fn rollback_walk_undoes_a_successful_walk() {
        let (vm, mapped) = vm_with_dirt(512, 25, 6);
        let mut backup = BackupVm::new(&vm);
        for &(_, mfn) in &mapped {
            backup.frame_mut(mfn).fill(0x11);
        }
        let before = backup.frames().to_vec();
        let mut pool = PauseWindowPool::new(4, 512, 2);
        let visitors: [&dyn FusedPageVisitor; 1] = [&CopyAndFlagOdd];
        pool.run(vm.memory(), &mut backup, &mapped, &visitors)
            .expect("no faults armed");
        assert_ne!(backup.frames(), before.as_slice(), "walk copied pages");
        pool.rollback_walk(&mut backup);
        assert_eq!(backup.frames(), before.as_slice());
    }

    #[test]
    fn the_helper_is_lazy_resident_and_only_for_pools_that_can_use_one() {
        for (workers, host_cpus, may) in [(1, 2, false), (2, 1, false), (2, 2, true), (4, 8, true)] {
            let mut pool = PauseWindowPool::on_host(workers, 64, 2, host_cpus);
            assert!(!pool.has_helper(), "no thread before anything asks for one");
            pool.ensure_helper();
            assert_eq!(pool.has_helper(), may, "{workers} workers on {host_cpus} CPUs");
            // Asking again keeps the thread it has.
            let id = |p: &PauseWindowPool| {
                p.helper
                    .as_ref()
                    .and_then(|h| h.thread.as_ref().map(|t| t.thread().id()))
            };
            let first = id(&pool);
            pool.ensure_helper();
            assert_eq!(id(&pool), first);
        }
    }

    #[test]
    fn a_helper_that_is_gone_is_reported_and_never_replaced() {
        // Gone before the job is sent.
        let (vm, _) = vm_with_dirt(512, 4, 2);
        let backup = BackupVm::new(&vm);
        let mut area = crate::staging::StagingArea::new(512, 1, 1);
        let slot = area.claim().expect("a free slot");
        let mut pool = PauseWindowPool::on_host(2, 512, 2, 2);
        pool.ensure_helper();
        if let Some(helper) = pool.helper.as_mut() {
            helper.jobs = None;
        }
        assert_eq!(area.lend(slot, &backup, &mut pool), Err(CheckpointError::HeadStartLost));
        assert!(!pool.has_helper());
        pool.ensure_helper();
        assert!(!pool.has_helper(), "a lost helper is not replaced");
        assert_eq!(area.lend(slot, &backup, &mut pool), Ok(false), "nothing to lend to");

        // Dead with the job in hand: the handles it held are dropped.
        let mut pool = PauseWindowPool::on_host(2, 512, 2, 2);
        pool.doom_helper();
        assert_eq!(area.lend(slot, &backup, &mut pool), Ok(true));
        assert_eq!(area.reclaim(slot, &mut pool), Err(CheckpointError::HeadStartLost));
        assert!(!pool.has_helper());
        assert_eq!(std::sync::Arc::strong_count(&backup.share_frames()), 2, "ours and the backup's");
        assert!(!area.frames_mut(slot).is_empty(), "the slot's pages are ours alone again");
    }

    #[test]
    fn worker_count_clamps() {
        assert_eq!(PauseWindowPool::new(0, 64, 2).workers(), 1);
        assert_eq!(PauseWindowPool::new(99, 64, 2).workers(), MAX_WORKERS);
    }

    #[test]
    fn out_of_order_page_list_still_walks_correctly() {
        // The pool sorts internally, so a reversed page list must produce
        // the same image as the sorted one.
        let (vm, mapped) = vm_with_dirt(512, 40, 8);
        let sorted_image = {
            let mut backup = BackupVm::new(&vm);
            let mut pool = PauseWindowPool::new(4, 512, 2);
            let visitors: [&dyn FusedPageVisitor; 1] = [&CopyAndFlagOdd];
            pool.run(vm.memory(), &mut backup, &mapped, &visitors)
                .expect("sorted list");
            backup.frames().to_vec()
        };
        let mut reversed = mapped.clone();
        reversed.reverse();
        let mut backup = BackupVm::new(&vm);
        let mut pool = PauseWindowPool::new(4, 512, 2);
        let visitors: [&dyn FusedPageVisitor; 1] = [&CopyAndFlagOdd];
        pool.run(vm.memory(), &mut backup, &reversed, &visitors)
            .expect("reversed list sorts internally");
        assert_eq!(backup.frames(), sorted_image.as_slice());
    }

    #[test]
    fn duplicate_mfn_page_list_is_refused_with_backup_untouched() {
        let (vm, mapped) = vm_with_dirt(512, 20, 9);
        let mut corrupt = mapped.clone();
        if let Some(&dup) = corrupt.first() {
            corrupt.push(dup);
        }
        let mut backup = BackupVm::new(&vm);
        let before = backup.frames().to_vec();
        let mut pool = PauseWindowPool::new(4, 512, 2);
        let visitors: [&dyn FusedPageVisitor; 1] = [&CopyAndFlagOdd];
        let err = pool
            .run(vm.memory(), &mut backup, &corrupt, &visitors)
            .expect_err("duplicate MFN must be refused");
        assert!(
            matches!(err, CheckpointError::ShardGeometry { detail, .. }
                if detail.contains("duplicate")),
            "got {err:?}"
        );
        assert_eq!(
            backup.frames(),
            before.as_slice(),
            "refused walk must not touch the backup"
        );
    }

    #[test]
    fn out_of_range_mfn_is_refused_instead_of_panicking() {
        let (vm, mut mapped) = vm_with_dirt(512, 10, 10);
        // An MFN beyond the 512-page image: previously this made the
        // unchecked `(last + 1) * PAGE_SIZE` peel slice past the image
        // and panic inside the pause window.
        mapped.push((Pfn(511), Mfn(100_000)));
        let mut backup = BackupVm::new(&vm);
        let mut pool = PauseWindowPool::new(4, 512, 2);
        let visitors: [&dyn FusedPageVisitor; 1] = [&CopyAndFlagOdd];
        let err = pool
            .run(vm.memory(), &mut backup, &mapped, &visitors)
            .expect_err("out-of-range MFN must be refused");
        assert!(
            matches!(err, CheckpointError::ShardGeometry { mfn: 100_000, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn overflowing_mfn_is_refused_instead_of_wrapping() {
        let (vm, mut mapped) = vm_with_dirt(512, 10, 11);
        mapped.push((Pfn(511), Mfn(u64::MAX)));
        let mut backup = BackupVm::new(&vm);
        let mut pool = PauseWindowPool::new(4, 512, 2);
        let visitors: [&dyn FusedPageVisitor; 1] = [&CopyAndFlagOdd];
        let err = pool
            .run(vm.memory(), &mut backup, &mapped, &visitors)
            .expect_err("overflowing MFN must be refused");
        assert!(
            matches!(err, CheckpointError::ShardGeometry { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn worker_stats_expose_per_slot_copy_totals() {
        let (vm, mapped) = vm_with_dirt(512, 40, 12);
        let mut backup = BackupVm::new(&vm);
        let mut pool = PauseWindowPool::new(4, 512, 2);
        let visitors: [&dyn FusedPageVisitor; 1] = [&CopyAndFlagOdd];
        let stats = pool
            .run(vm.memory(), &mut backup, &mapped, &visitors)
            .expect("no faults armed");
        let per_slot: Vec<(usize, CopyStats)> = pool.worker_stats().collect();
        assert_eq!(per_slot.len(), 4);
        let total_pages: usize = per_slot.iter().map(|(_, s)| s.pages).sum();
        assert_eq!(total_pages, stats.pages, "slot stats sum to the walk total");
    }

    #[test]
    fn shared_pool_meters_leases_and_refuses_saturation() {
        let mut shared = SharedPausePool::new(2, 512, 2, 2);
        assert_eq!(shared.capacity(), 2);
        assert_eq!(shared.active_leases(), 0);
        let a = shared.lease().expect("slot free");
        let b = shared.lease().expect("slot free");
        assert_eq!(shared.active_leases(), 2);
        assert_eq!(shared.peak_active(), 2);
        // Saturation refuses before a third walker exists to hand out.
        let err = shared.lease().expect_err("pool is saturated");
        assert!(matches!(err, CheckpointError::PoolSaturated { capacity: 2 }));
        shared.release(a);
        assert_eq!(shared.active_leases(), 1);
        let c = shared.lease().expect("slot freed");
        shared.release(b);
        shared.release(c);
        assert_eq!(
            shared.active_leases(),
            0,
            "every walker is back on the free list"
        );
        assert_eq!(shared.free.len(), 2);
        assert_eq!(shared.total_leases(), 3);
        assert_eq!(shared.peak_active(), 2, "high-water mark survives release");
    }

    #[test]
    fn worker_budget_is_split_across_lease_slots() {
        for (workers, capacity, per_lease) in
            [(4, 2, 2), (2, 2, 1), (3, 2, 1), (1, 4, 1), (3, 1, 3)]
        {
            let mut shared = SharedPausePool::new(workers, 64, 2, capacity);
            assert_eq!(shared.workers(), workers, "the budget is reported whole");
            let mut lease = shared.lease().expect("slot free");
            assert_eq!(lease.pool().workers(), per_lease);
            shared.release(lease);
        }
    }

    #[test]
    fn a_foreign_lease_cannot_grow_the_pool_past_its_capacity() {
        let mut shared = SharedPausePool::new(1, 64, 2, 1);
        let mut other = SharedPausePool::new(1, 64, 2, 1);
        let foreign = other.lease().expect("slot free");
        shared.release(foreign);
        assert_eq!(shared.free.len(), 1);
        assert_eq!(shared.active_leases(), 0);
        // The pool it was taken from stays one walker short: fail closed.
        assert!(other.lease().is_err());
    }

    #[test]
    fn two_leases_walked_at_once_each_match_a_private_pool_bit_for_bit() {
        let visitors: [&dyn FusedPageVisitor; 1] = [&CopyAndFlagOdd];
        let guests = [vm_with_dirt(512, 24, 13), vm_with_dirt(512, 31, 14)];

        let private: Vec<(Vec<u8>, Vec<PageFinding>)> = guests
            .iter()
            .map(|(vm, mapped)| {
                let mut backup = BackupVm::new(vm);
                let mut pool = PauseWindowPool::new(3, 512, 2);
                pool.run(vm.memory(), &mut backup, mapped, &visitors)
                    .expect("no faults armed");
                (backup.frames().to_vec(), pool.findings().to_vec())
            })
            .collect();

        let mut shared = SharedPausePool::new(3, 512, 2, 2);
        let leases = [
            shared.lease().expect("slot free"),
            shared.lease().expect("slot free"),
        ];
        // Both windows open before either walk starts.
        let barrier = std::sync::Barrier::new(2);
        let walked: Vec<(PoolLease, Vec<u8>, Vec<PageFinding>)> = std::thread::scope(|s| {
            let handles: Vec<_> = leases
                .into_iter()
                .zip(&guests)
                .map(|(mut lease, (vm, mapped))| {
                    let (barrier, visitors) = (&barrier, &visitors);
                    s.spawn(move || {
                        let mut backup = BackupVm::new(vm);
                        barrier.wait();
                        lease
                            .pool()
                            .run(vm.memory(), &mut backup, mapped, visitors)
                            .expect("no faults armed");
                        let findings = lease.pool().findings().to_vec();
                        (lease, backup.frames().to_vec(), findings)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("walk thread"))
                .collect()
        });
        for ((lease, frames, findings), (want_frames, want_findings)) in
            walked.into_iter().zip(private)
        {
            assert_eq!(frames, want_frames);
            assert_eq!(findings, want_findings);
            shared.release(lease);
        }
        assert_eq!(shared.active_leases(), 0);
    }
}
