//! The fused pause-window walk: one sharded pass over the epoch's dirty
//! pages instead of three serial ones.
//!
//! The pause window is the whole overhead story (§4, Fig. 4/7): the VM is
//! stopped while the audit scans dirtied memory, Remus-style copy captures
//! dirty pages, and (since the integrity extension) each copied page is
//! re-digested. Serially those are three passes over the same page set.
//! This module **fuses** them — every dirty page is visited exactly once,
//! and each registered [`FusedPageVisitor`] (scan, copy, digest) runs over
//! it in turn — and **shards** the fused pass: the calling thread walks
//! shard 0 itself and lends shards 1.. to the pool's resident workers
//! ([`crate::resident`]), taking back any shard no worker has started by
//! the time its own is done.
//!
//! The workers are resident because a walk cannot carry a thread's start
//! (DESIGN.md, *Threads*, has the measurements), and a worker that is late
//! costs nothing, because the caller takes its shard back. The same
//! workers run the deferred pipeline's head start. They are started before
//! the first guest is suspended ([`PauseWindowPool::start_workers`]),
//! never inside a window; a one-worker pool, and any pool on a one-CPU
//! host, has none and walks every shard on the caller, in shard order.
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
//! None of this depends on which thread walks a shard: a shard's slot,
//! region and forked plan go with the shard, and whoever runs it installs
//! the plan for the length of the run. `pause_workers = 1` is the same
//! walk with one shard.
//!
//! # Why allocation is pre-staged
//!
//! Nothing may grow the heap inside the window (`tests/pause_alloc.rs`
//! counts every allocation, the workers' included).
//! Everything the walk needs — the sort buffer, per-worker undo logs,
//! digest and finding slots, cipher scratch, per-worker syscall models —
//! is allocated at [`PauseWindowPool::new`] time (framework build time)
//! and only `clear()`ed/refilled inside the window, within its preallocated
//! capacity; so are the workers' job slots. Shards write disjoint
//! contiguous regions of the backup image peeled off with `split_at_mut`,
//! so the walk itself needs no locking.

// Fail-closed: typed errors, never a panic (DESIGN.md "Static guarantees").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::todo, clippy::unimplemented)]

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use crimes_faults::{FaultCounters, FaultPlan, FaultPoint};
use crimes_vm::{DirtyBitmap, GuestMemory, Mfn, Pfn, Vm, PAGE_SIZE};

use crate::backup::BackupVm;
use crate::copy::CopyStats;
use crate::engine::AuditVerdict;
use crate::error::CheckpointError;
use crate::mapping::{HypercallModel, MappedPage};
use crate::resident::{self, Resident, Task};
use crate::staging::HeadStart;

/// Upper bound on `pause_workers` — each worker past the first is a
/// resident thread and a set of scratch buffers (undo log, syscall model)
/// sized for its share of the guest, and the walk's shard array lives on
/// the caller's stack.
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

/// The preallocated pool executing fused pause-window walks: the buffers
/// of `workers` shards and the `workers − 1` resident threads that walk
/// them alongside the caller.
#[derive(Debug)]
pub struct PauseWindowPool {
    workers: usize,
    /// Sort buffer: the epoch's mapped pages ordered by MFN.
    sorted: Vec<MappedPage>,
    slots: Vec<WorkerSlot>,
    /// All shards' findings, merged in shard order and sorted
    /// `(source, key)` — the canonical (serial-equivalent) order.
    merged: Vec<PageFinding>,
    /// Shared with the drains of the slots this pool staged
    /// ([`executor`](Self::executor)). A drain runs on the thread that
    /// walked, or under the same fleet lease, so the pool never finds it
    /// taken when it locks it.
    exec: Arc<Mutex<Resident>>,
    /// Shards of the last walk lent to a worker and taken back unstarted.
    taken_back: usize,
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
            // On one CPU a second thread only time-shares it.
            exec: Arc::new(Mutex::new(Resident::new(if host_cpus > 1 { workers - 1 } else { 0 }))),
            taken_back: 0,
            pinned: None,
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Start the resident workers, the first time it is called, and
    /// return once they run. The engine calls this before it suspends a
    /// guest, so threads are created once per pool and none of a thread's
    /// start-up lands inside a window; a pool that is never asked walks
    /// on its caller alone.
    pub fn start_workers(&mut self) {
        let mut exec = resident::lock(&self.exec);
        exec.start();
        exec.wait_running();
    }

    /// Resident workers the next walk would lend to: `workers − 1` once
    /// started on a host with a second CPU, 0 after one was lost.
    pub fn resident_workers(&self) -> usize {
        resident::lock(&self.exec).threads()
    }

    /// A handle on the resident workers, for the drain of a slot this
    /// pool staged to lend its cipher shares to. The drain takes them only
    /// if they are free at once: it never waits for them.
    pub(crate) fn executor(&self) -> Arc<Mutex<Resident>> {
        Arc::clone(&self.exec)
    }

    /// Shards of the last walk that were lent to a worker and taken back
    /// because it had not started them when the caller's own was done.
    pub fn shards_taken_back(&self) -> usize {
        self.taken_back
    }

    /// The last walk's page list in the MFN order it was packed in.
    pub(crate) fn walked(&self) -> &[MappedPage] {
        &self.sorted
    }

    /// Lend `job` to a resident worker for as long as `resume` takes on
    /// this thread, then stop it after the page it is on. A job no worker
    /// has started by then is taken back and, finding itself stopped,
    /// covers nothing. Only for a pool with a worker to lend to.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::WorkerLost`] when the worker died with the job.
    pub(crate) fn head_start(
        &mut self,
        resume: impl FnOnce(),
        job: &mut HeadStart<'_>,
    ) -> Result<(), CheckpointError> {
        // A pinned head start runs to its pin instead.
        job.limit = self.pinned.unwrap_or(job.limit);
        let (stop, stopped) = (job.stop, self.pinned.is_none());
        let own = || {
            resume();
            stop.store(stopped, Ordering::Relaxed);
        };
        resident::lock(&self.exec).scope(own, [job as &mut dyn Task]).map(drop)
    }

    /// Test pin: every head start covers exactly `pages` pages (or all
    /// there are), however long the resume.
    #[cfg(test)]
    pub(crate) fn pin_head_start(&mut self, pages: usize) {
        self.pinned = Some(pages);
    }

    /// Test hook: the first worker finishes `after` more jobs, then
    /// panics holding the next one it claims.
    #[cfg(test)]
    pub(crate) fn doom_worker(&mut self, after: isize) {
        resident::lock(&self.exec).doom(after);
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
    /// The first failing shard's error, in shard order (deterministic),
    /// or [`CheckpointError::WorkerLost`] when a worker died holding a
    /// shard (the pool walks on its caller alone from then on). The
    /// backup is restored from the undo log before returning — a failed
    /// attempt leaves the image exactly as it was, so the engine's retry
    /// loop re-runs the walk from a clean slate.
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
    /// Otherwise the first failing shard's error, in shard order, or
    /// [`CheckpointError::WorkerLost`]; the staged buffer may then hold a
    /// partial snapshot, which the caller discards.
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
            exec,
            taken_back,
            ..
        } = self;
        *taken_back = 0;
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
        // thread-local); each shard carries its derived schedule to
        // whichever thread walks it.
        let mut forks: [Option<(FaultPlan, u64)>; MAX_WORKERS] = [None; MAX_WORKERS];
        for (i, f) in forks.iter_mut().enumerate().take(used) {
            *f = crimes_faults::fork_for_worker(i as u64);
        }

        // Fail-closed shard geometry, checked before any shard runs. The
        // carving below relies on strictly increasing MFNs (a duplicate
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
        // Carve the shards: each gets its slot, its forked plan, its pages
        // and its disjoint byte region of `frames` (machine frames in the
        // image, list positions when packed). The array lives on this
        // frame, so nothing is allocated to lend it.
        let frames_len = frames.len();
        let mut shards: [Option<Shard<'_>>; MAX_WORKERS] = std::array::from_fn(|_| None);
        let mut rest: &mut [u8] = frames;
        let (mut consumed, mut next) = (0usize, 0usize);
        for (i, ((slot, fork), shard)) in
            slots.iter_mut().zip(forks).zip(&mut shards).take(used).enumerate()
        {
            let take = base + usize::from(i < rem);
            let pages = sorted.get(next..next + take).unwrap_or(&[]);
            let (Some(&(_, first)), Some(&(_, last))) = (pages.first(), pages.last()) else {
                continue;
            };
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
            if hi > frames_len {
                return Err(CheckpointError::ShardGeometry {
                    mfn: last.0,
                    detail: match layout {
                        Layout::Image => "MFN beyond the backup image",
                        Layout::Packed => "page list longer than the staging slot",
                    },
                });
            }
            debug_assert!(lo >= consumed, "sorted unique pages shard monotonically");
            // The saturating subtractions cannot clamp after the checks
            // above; they keep the window panic-free.
            let (_, tail) = std::mem::take(&mut rest).split_at_mut(lo.saturating_sub(consumed));
            let (region, tail) = tail.split_at_mut(hi.saturating_sub(lo));
            (rest, consumed) = (tail, hi);
            *shard = Some(Shard {
                slot,
                region,
                region_base: lo,
                pages,
                mem,
                visitors,
                fork,
                layout,
            });
        }
        // Shard 0 here, shards 1.. on the resident workers — or here too,
        // for any that no worker has started when shard 0 is done.
        let mut shards = shards.iter_mut().flatten();
        if let Some(first) = shards.next() {
            let lent = shards.map(|shard| shard as &mut dyn Task);
            *taken_back = resident::lock(exec).scope(|| first.run(), lent)?;
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

/// One shard of a walk, with everything it needs to run on any thread:
/// its slot, its region of the destination, its pages, and the fault plan
/// forked for it.
struct Shard<'a> {
    slot: &'a mut WorkerSlot,
    region: &'a mut [u8],
    /// Byte offset of `region` in the destination buffer.
    region_base: usize,
    pages: &'a [MappedPage],
    mem: &'a GuestMemory,
    visitors: &'a [&'a dyn FusedPageVisitor],
    fork: Option<(FaultPlan, u64)>,
    layout: Layout,
}

impl Task for Shard<'_> {
    /// The fused pass over the shard, under its forked fault plan; all
    /// output lands in the shard's slot.
    fn run(&mut self) {
        let _plan = self.fork.map(|(plan, seed)| crimes_faults::install(plan, seed));
        let (pages, mem, visitors) = (self.pages, self.mem, self.visitors);
        let (region_base, layout) = (self.region_base, self.layout);
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
        } = &mut *self.slot;
        let mut sink = ShardSink {
            region: &mut *self.region,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrity::{chunk_digest, FusedDigest};
    use crate::resident::{pin, Placement};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// A pool for a 512-page guest on a two-CPU host, its workers started
    /// (the engine starts them before it suspends a guest).
    fn started(workers: usize) -> PauseWindowPool {
        let mut pool = PauseWindowPool::on_host(workers, 512, 2, 2);
        pool.start_workers();
        pool
    }

    fn vm_with_dirt(pages: usize, dirt: usize, seed: u64) -> (Vm, Vec<MappedPage>) {
        let mut b = Vm::builder();
        b.pages(pages).seed(seed);
        let mut vm = b.build();
        let pid = vm.spawn_process("app", 0, dirt + 8).expect("spawn");
        vm.memory_mut().clear_dirty();
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

    /// Everything a walk leaves behind.
    #[derive(Debug, PartialEq)]
    struct Walked {
        result: Result<CopyStats, CheckpointError>,
        frames: Vec<u8>,
        findings: Vec<PageFinding>,
        /// Per slot, in slot order.
        per_slot: Vec<(usize, CopyStats)>,
        digests: Vec<(usize, u64)>,
        /// `(draws, hits)` per fault point, the walk's forks absorbed.
        faults: Vec<(u64, u64)>,
    }

    fn run_walk(workers: usize, seed: u64, plan: Option<FaultPlan>) -> Walked {
        let (vm, mapped) = vm_with_dirt(512, 60, seed);
        let mut backup = BackupVm::new(&vm);
        for &(_, mfn) in &mapped {
            backup.frame_mut(mfn).fill(0xee);
        }
        let mut pool = started(workers);
        let visitors: [&dyn FusedPageVisitor; 2] = [&CopyAndFlagOdd, &FusedDigest];
        let _scope = plan.map(|plan| crimes_faults::install(plan, seed));
        let result = pool.run(vm.memory(), &mut backup, &mapped, &visitors);
        let counters = crimes_faults::counters();
        Walked {
            result,
            frames: backup.frames().to_vec(),
            findings: pool.findings().to_vec(),
            per_slot: pool.worker_stats().collect(),
            digests: pool.page_digests().collect(),
            faults: FaultPoint::ALL.iter().map(|&p| (counters.draws(p), counters.hits(p))).collect(),
        }
    }

    #[test]
    fn any_worker_count_is_bit_identical() {
        let one = run_walk(1, 9, None);
        let xor = |walk: &Walked| walk.digests.iter().fold(0u64, |acc, (_, d)| acc ^ d);
        let walk_faults = FaultPlan::disabled()
            .with_rate(FaultPoint::PageCopy, crimes_faults::SCALE / 16)
            .with_rate(FaultPoint::BackupWrite, crimes_faults::SCALE / 8);
        let (mut failed, mut passed) = (0, 0);
        for workers in [1, 2, 4, 7] {
            let free = run_walk(workers, 9, None);
            assert_eq!(free.frames, one.frames, "{workers} workers: backup image differs");
            assert_eq!(free.findings, one.findings, "{workers} workers: findings differ");
            assert_eq!(xor(&free), xor(&one), "{workers} workers: digest fold differs");
            assert_eq!(free.result, one.result);
            // Wherever each shard ran, every slot reads the same; and a
            // shard's fault schedule goes with it.
            let faulted: Vec<Walked> =
                (0..6).map(|seed| run_walk(workers, seed, Some(walk_faults))).collect();
            failed += faulted.iter().filter(|walk| walk.result.is_err()).count();
            passed += faulted.iter().filter(|walk| walk.result.is_ok()).count();
            for placement in Placement::ALL {
                let _pin = pin(placement);
                assert!(run_walk(workers, 9, None) == free, "{workers} workers, {placement:?}");
                for (seed, want) in faulted.iter().enumerate() {
                    assert!(
                        run_walk(workers, seed as u64, Some(walk_faults)) == *want,
                        "{workers} workers, {placement:?}, fault seed {seed}"
                    );
                }
            }
        }
        assert!(failed > 0 && passed > 0, "{failed} faulted walks failed, {passed} passed");
    }

    #[test]
    fn the_walk_counts_the_shards_it_takes_back() {
        let (vm, mapped) = vm_with_dirt(512, 60, 9);
        let visitors: [&dyn FusedPageVisitor; 1] = [&CopyAndFlagOdd];
        for (placement, workers, taken_back) in [
            (Placement::TakeAll, 4, 3),
            (Placement::TakeAll, 1, 0),
            (Placement::TakeNone, 4, 0),
            (Placement::Stalled, 4, 0),
        ] {
            let _pin = pin(placement);
            let mut pool = started(workers);
            pool.run(vm.memory(), &mut BackupVm::new(&vm), &mapped, &visitors)
                .expect("no faults armed");
            assert_eq!(pool.shards_taken_back(), taken_back, "{workers} workers, {placement:?}");
        }
        // A pool with nobody to lend to takes nothing back either.
        let mut alone = PauseWindowPool::on_host(4, 512, 2, 1);
        alone.start_workers();
        alone
            .run(vm.memory(), &mut BackupVm::new(&vm), &mapped, &visitors)
            .expect("no faults armed");
        assert_eq!((alone.resident_workers(), alone.shards_taken_back()), (0, 0));
    }

    #[test]
    fn digests_match_serial_chunk_digest() {
        let (vm, mapped) = vm_with_dirt(512, 20, 3);
        let mut backup = BackupVm::new(&vm);
        let mut pool = started(4);
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
        let cases = Placement::ALL.iter().flat_map(|&p| [1, 2, 4, 7].map(|w| (p, w)));
        for (placement, workers) in cases {
            let _pin = pin(placement);
            let mut pool = started(workers);
            let mut staged = vec![0u8; 512 * PAGE_SIZE];
            let stats = pool
                .run_staging(vm.memory(), &mut staged, &mapped, &snapshot)
                .expect("no faults armed");
            // Equality with the reference also says every byte at or past
            // `n * PAGE_SIZE` of the fresh slot is still zero.
            assert!(staged == reference, "{workers} workers, {placement:?}: staged bytes differ");
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
        let mut pool = started(4);

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
        let mut pool = started(4);
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
        let mut pool = started(3);
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
        let mut pool = started(4);
        let visitors: [&dyn FusedPageVisitor; 1] = [&CopyAndFlagOdd];
        pool.run(vm.memory(), &mut backup, &mapped, &visitors)
            .expect("no faults armed");
        assert_ne!(backup.frames(), before.as_slice(), "walk copied pages");
        pool.rollback_walk(&mut backup);
        assert_eq!(backup.frames(), before.as_slice());
    }

    #[test]
    fn workers_are_lazy_resident_and_only_for_pools_that_can_use_them() {
        for (workers, host_cpus, threads) in [(1, 2, 0), (2, 1, 0), (2, 2, 1), (4, 8, 3)] {
            let mut pool = PauseWindowPool::on_host(workers, 64, 2, host_cpus);
            assert_eq!(pool.resident_workers(), 0, "no thread before anything asks for one");
            pool.start_workers();
            assert_eq!(pool.resident_workers(), threads, "{workers} workers on {host_cpus} CPUs");
            // Asking again keeps the threads it has.
            let before = format!("{pool:?}");
            pool.start_workers();
            assert_eq!(format!("{pool:?}"), before);
        }
    }

    #[test]
    fn a_lost_worker_is_reported_and_never_replaced() {
        // Dead with a shard in hand: the walk says so, the backup is as
        // it was, and the next walk runs on the caller alone.
        let (vm, mapped) = vm_with_dirt(512, 30, 5);
        let mut backup = BackupVm::new(&vm);
        for &(_, mfn) in &mapped {
            backup.frame_mut(mfn).fill(0x5a);
        }
        let before = backup.frames().to_vec();
        let visitors: [&dyn FusedPageVisitor; 1] = [&CopyAndFlagOdd];
        let mut pool = started(3);
        pool.doom_worker(0);
        {
            let _pin = pin(Placement::TakeNone);
            let err = pool.run(vm.memory(), &mut backup, &mapped, &visitors);
            assert_eq!(err, Err(CheckpointError::WorkerLost));
        }
        assert_eq!(backup.frames(), before.as_slice(), "the undo log restored the image");
        assert_eq!(pool.resident_workers(), 0);
        pool.start_workers();
        assert_eq!(pool.resident_workers(), 0, "a lost worker is not replaced");
        pool.run(vm.memory(), &mut backup, &mapped, &visitors)
            .expect("the caller walks every shard");
        let mut reference = BackupVm::new(&vm);
        started(3)
            .run(vm.memory(), &mut reference, &mapped, &visitors)
            .expect("no faults armed");
        assert_eq!(backup.frames(), reference.frames());

        // Dead with the head start in hand: nothing is lent again.
        let backup = BackupVm::new(&vm);
        let mut area = crate::staging::StagingArea::new(512, 1, 1);
        let slot = area.claim().expect("a free slot");
        let mut pool = started(2);
        pool.doom_worker(0);
        let stop = AtomicBool::new(false);
        let mut job = area.head_start(slot, &backup, &[], &stop).expect("the one slot in flight");
        let _pin = pin(Placement::TakeNone);
        assert_eq!(pool.head_start(|| {}, &mut job), Err(CheckpointError::WorkerLost));
        assert_eq!(pool.resident_workers(), 0);
    }

    /// Copies like [`CopyAndFlagOdd`]; on the lender's thread it panics
    /// once a worker is inside its own shard. Whatever the worker does
    /// after that, it must do while the visitor still exists.
    struct PanicsOnTheLender {
        lender: std::thread::ThreadId,
        both_inside: std::sync::Barrier,
        met: AtomicBool,
        dropped: Arc<AtomicBool>,
        touched_after_drop: Arc<AtomicBool>,
        worker_finished: Arc<AtomicBool>,
    }

    impl FusedPageVisitor for PanicsOnTheLender {
        fn visit_page(&self, ctx: &PageCtx<'_>, sink: &mut ShardSink<'_>) {
            if std::thread::current().id() == self.lender {
                self.both_inside.wait();
                panic!("test: a visitor panics on the lender's shard");
            }
            if !self.met.swap(true, Ordering::SeqCst) {
                self.both_inside.wait();
            }
            std::thread::yield_now();
            self.touched_after_drop.fetch_or(self.dropped.load(Ordering::SeqCst), Ordering::SeqCst);
            sink.dst().copy_from_slice(ctx.src);
        }

        fn finish_shard(&self, _sink: &mut ShardSink<'_>) {
            self.touched_after_drop.fetch_or(self.dropped.load(Ordering::SeqCst), Ordering::SeqCst);
            self.worker_finished.store(true, Ordering::SeqCst);
        }
    }

    impl Drop for PanicsOnTheLender {
        fn drop(&mut self) {
            self.dropped.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_panic_on_the_lenders_shard_surfaces_only_once_the_worker_is_idle() {
        let (vm, mapped) = vm_with_dirt(512, 60, 9);
        let mut backup = BackupVm::new(&vm);
        let mut pool = started(2);
        let flags = [(); 3].map(|()| Arc::new(AtomicBool::new(false)));
        let [dropped, touched_after_drop, worker_finished] = &flags;
        let walk = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // The visitor lives in the lender's frame: it is gone the
            // moment the walk's panic leaves this closure.
            let visitor = PanicsOnTheLender {
                lender: std::thread::current().id(),
                both_inside: std::sync::Barrier::new(2),
                met: AtomicBool::new(false),
                dropped: Arc::clone(dropped),
                touched_after_drop: Arc::clone(touched_after_drop),
                worker_finished: Arc::clone(worker_finished),
            };
            let visitors: [&dyn FusedPageVisitor; 1] = [&visitor];
            pool.run(vm.memory(), &mut backup, &mapped, &visitors)
        }));
        assert!(walk.is_err(), "the lender's panic is not swallowed");
        assert!(dropped.load(Ordering::SeqCst));
        assert!(worker_finished.load(Ordering::SeqCst), "the walk unwound past a running worker");
        assert!(!touched_after_drop.load(Ordering::SeqCst), "a worker used a dead borrow");
        assert_eq!(pool.resident_workers(), 0, "the pool refuses further lending");
        let visitors: [&dyn FusedPageVisitor; 1] = [&CopyAndFlagOdd];
        pool.run(vm.memory(), &mut backup, &mapped, &visitors)
            .expect("the caller walks every shard");
        assert_eq!(backup.frames(), vm.memory().dump_frames().as_slice());
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
            let mut pool = started(4);
            let visitors: [&dyn FusedPageVisitor; 1] = [&CopyAndFlagOdd];
            pool.run(vm.memory(), &mut backup, &mapped, &visitors)
                .expect("sorted list");
            backup.frames().to_vec()
        };
        let mut reversed = mapped.clone();
        reversed.reverse();
        let mut backup = BackupVm::new(&vm);
        let mut pool = started(4);
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
        let mut pool = started(4);
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
        let mut pool = started(4);
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
        let mut pool = started(4);
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
        let mut pool = started(4);
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
                let mut pool = started(3);
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
                        lease.pool().start_workers();
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
