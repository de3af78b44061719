//! The checkpoint engine: Remus's epoch pipeline with CRIMES' audit hook
//! and the three optimisations, instrumented phase by phase.
//!
//! There is **one** epoch boundary. Every pause window the paper times
//! (§4.1) runs it, whatever the configuration:
//!
//! ```text
//! suspend → stage → bitscan → map → walk(visitors, workers, sink) → verdict
//!    ├─ Pass ────────── sectors → resume → commit            (sink = backup image)
//!    │                       lend → resume → reclaim → seal → ticket ─┄─ drain → commit   (sink = staging slot)
//!    ├─ Inconclusive ── reject sink → re-mark dirty → resume
//!    └─ Fail ────────── reject sink                    (guest stays suspended)
//! ```
//!
//! * The **walk** visits each dirty page once with the copy visitor, the
//!   digest and the audit's page-scoped scan, sharded over
//!   `pause_workers` workers (one worker runs its shard inline). The
//!   audit is split around it: `stage` resolves what the scan needs,
//!   `verdict` decides from the walk's findings and the global scans.
//! * The **sink** is the backup image under the pool's undo log, or —
//!   with `staging_buffers > 0` — a claimed staging slot whose cipher,
//!   socket and digest work runs after resume
//!   ([`Checkpointer::drain_staged`]) — except the drain's read-only
//!   half, which a pool with a resident worker starts on it while this
//!   thread sits in the modelled resume (`staging`'s head start).
//!   Because the copy precedes the
//!   verdict, rejecting an epoch rolls the walk back (image) or frees the
//!   slot (staging); either way the backup is bit-exactly the last
//!   commit's.
//! * The paper's optimisation levels are values the boundary reads:
//!   [`OptLevel::bitmap_scan`], [`OptLevel::mapping_strategy`],
//!   [`OptLevel::copy_strategy`].
//!
//! A passing audit commits the checkpoint (the backup becomes the newest
//! clean snapshot) and resumes the VM. A failing audit leaves the VM
//! suspended with the backup untouched — the clean state the Analyzer rolls
//! back to. An *inconclusive* audit (the deadline overran, or reads were
//! transiently failing) extends speculation instead: the epoch's dirty
//! pages are re-marked, the VM resumes, and nothing commits — outputs stay
//! buffered until a later epoch audits them properly (fail closed).
//!
//! Every commit also folds the copied pages into an incremental
//! [`ImageDigest`]; [`Checkpointer::rollback`] restores only
//! checksum-verified state, falling back through retained history
//! generations when the live backup is silently corrupt.

// Fail-closed: typed errors, never a panic (DESIGN.md "Static guarantees").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::todo, clippy::unimplemented)]

use std::fmt;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use crimes_faults::FaultPoint;
use crimes_telemetry::{Clock, RealClock};
use crimes_vm::{DirtyBitmap, MetaSnapshot, Pfn, Vm};

use crate::backup::BackupVm;
use crate::bitmap::BitmapScan;
use crate::copy::{CopyStats, CopyStrategy, PageCopier};
use crate::error::CheckpointError;
use crate::history::{CheckpointHistory, CheckpointRecord};
use crate::integrity::{image_digest, FusedDigest, ImageDigest};
use crate::mapping::{HypercallModel, MappedPage, Mapper, MappingStrategy};
use crate::pool::{FusedAudit, FusedPageVisitor, NoopVisitor, PageFinding, PauseWindowPool};
use crate::staging::{DrainOpts, DrainTicket, StagingArea};

/// The shared cipher key for every socket-style pipeline (in-window or
/// deferred) — both ends hold it like an ssh session key.
const COPY_KEY: u64 = 0xc1e4_0000_5ec5;

/// Retries after a failed walk attempt (before the boundary gives up with
/// [`CheckpointError::Exhausted`]) and after a failed drain session
/// (before [`Checkpointer::drain_staged`] gives up). Copy faults are
/// transient (socket hiccups, partial backup writes) and the guest stays
/// paused across walk retries, so a re-copy is always safe.
pub const COPY_RETRIES: u32 = 3;

/// The four optimisation levels the evaluation compares (Figures 3, 4, 6a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptLevel {
    /// Unmodified Remus pipeline + VMI scan: socket copy, per-epoch
    /// mapping of the primary, bit-by-bit bitmap scan.
    NoOpt,
    /// Local in-memory copy only ("memcpy"): still maps per epoch — and now
    /// both primary *and* backup.
    Memcpy,
    /// memcpy + global PFN→MFN pre-mapping ("Pre-map").
    PreMap,
    /// All three optimisations ("Full"): adds the word-wise bitmap scan.
    #[default]
    Full,
}

impl OptLevel {
    /// All levels, least to most optimised.
    pub const ALL: [OptLevel; 4] = [
        OptLevel::NoOpt,
        OptLevel::Memcpy,
        OptLevel::PreMap,
        OptLevel::Full,
    ];

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::NoOpt => "No-opt",
            OptLevel::Memcpy => "Memcpy",
            OptLevel::PreMap => "Pre-map",
            OptLevel::Full => "Full",
        }
    }

    /// Bitmap scan strategy at this level.
    pub fn bitmap_scan(self) -> BitmapScan {
        match self {
            OptLevel::Full => BitmapScan::WordWise,
            _ => BitmapScan::BitByBit,
        }
    }

    /// Mapping strategy at this level.
    pub fn mapping_strategy(self) -> MappingStrategy {
        match self {
            OptLevel::NoOpt => MappingStrategy::PerEpochPrimary,
            OptLevel::Memcpy => MappingStrategy::PerEpochPrimaryAndBackup,
            OptLevel::PreMap | OptLevel::Full => MappingStrategy::Global,
        }
    }

    /// Copy strategy at this level.
    pub fn copy_strategy(self) -> CopyStrategy {
        match self {
            OptLevel::NoOpt => CopyStrategy::Socket,
            _ => CopyStrategy::Memcpy,
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Result of the epoch-end security audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditVerdict {
    /// No evidence of attack; commit and continue.
    Pass,
    /// Evidence found; the VM stays suspended for analysis.
    Fail,
    /// The audit could not complete (deadline overrun, transient VMI read
    /// failures). Nothing commits and nothing is released: the epoch's
    /// dirty pages are re-marked, the VM resumes, and speculation extends
    /// into the next epoch, whose audit covers both.
    Inconclusive,
}

/// Checkpointer configuration.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointConfig {
    /// Optimisation level.
    pub opt: OptLevel,
    /// Simulated hypercalls issued by the VM-suspend path (vCPU
    /// descheduling, device-model quiesce, dirty-log retrieval). The
    /// default is calibrated to the ~1 ms suspend the paper's Table 1
    /// measures on Xen; a trivial flag flip would erase that row entirely.
    pub suspend_hypercalls: u32,
    /// Simulated hypercalls issued by the resume path (vCPU reschedule,
    /// device wake; Table 1 measures ~1.5–2 ms).
    pub resume_hypercalls: u32,
    /// Keep the backup on a *remote* host (§4.1: "If users desire both
    /// high availability and security, CRIMES could be configured to
    /// perform remote checkpoints"). Dirty pages then always travel the
    /// socket+cipher pipeline, whatever the optimisation level — the
    /// mapping and bitmap-scan optimisations still apply.
    pub remote_backup: bool,
    /// Verified generations kept for a fallback rollback when the live
    /// backup fails its checksum (see [`Checkpointer::rollback`]). Each
    /// commit then copies the whole image and disk into the history, so
    /// the default keeps none.
    pub history_depth: usize,
    /// Linear backoff between walk retries, in microseconds per attempt,
    /// and the base of the drain's exponential one ([`drain_backoff_us`]).
    pub retry_backoff_us: u64,
    /// Workers for the boundary's page walk (scan + copy + digest in a
    /// single sharded pass; see `pool`). `1` walks the whole dirty set
    /// inline on the calling thread — the same walk, one shard, no
    /// thread. Clamped to [`crate::pool::MAX_WORKERS`].
    pub pause_workers: usize,
    /// Preallocated staging buffers, which select the walk's sink: `0`
    /// copies into the backup image inside the window; `≥ 1` snapshots
    /// dirty pages into a staging buffer instead, and
    /// [`Checkpointer::drain_staged`] ciphers and streams them to the
    /// backup *after* resume. Each buffer reserves a full image's worth
    /// of address space (the worst-case dirty set) but is packed, so only
    /// the largest dirty set staged is ever resident.
    pub staging_buffers: usize,
    /// Deadline for one staged epoch's drain, in milliseconds, measured
    /// on the deterministic retry-backoff model (accumulated
    /// [`CheckpointConfig::retry_backoff_us`] sleeps, not wall clock, so
    /// fault soaks replay bit-exactly). Exceeding it surfaces
    /// [`CheckpointError::DrainTimeout`] and the drain fails closed.
    pub drain_timeout_ms: u64,
    /// The tenant's walks run on an externally-owned
    /// [`SharedPausePool`](crate::pool::SharedPausePool) (a fleet
    /// scheduler's), lent through [`Checkpointer::run_epoch_on`], so the
    /// engine builds no private pool — at fleet scale each one's undo
    /// buffers cost roughly a full guest image. Without this flag the
    /// private pool is built in the constructor, so nothing allocates
    /// inside a window. A boundary run with no lent pool anyway
    /// self-provisions one before it suspends the guest, so a
    /// fleet-configured tenant driven standalone keeps working.
    pub external_pool: bool,
    /// Delta/zero-page encoding threshold, in changed 8-byte words per
    /// page: dirty pages are compared word-wise against the backup's
    /// current generation and travel as compact run-length delta records
    /// (all-zero pages as a 1-word marker) when their churn is at most
    /// this many words; churn beyond it falls back to a full page. `0`
    /// disables encoding — the wire model is then byte-identical to the
    /// raw pipeline. Encoding never changes what the backup holds, what
    /// the digests attest, or what the journal records.
    pub delta_threshold: usize,
    /// Content-addressed page dedup on the deferred drain: the backup
    /// keeps a refcounted `digest → frame` table and the drain ships a
    /// `(digest, refs)` reference instead of page bytes whenever an
    /// identical page is already stored. Same invariants as
    /// [`delta_threshold`](Self::delta_threshold): wire modelling only.
    pub dedup: bool,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            opt: OptLevel::Full,
            suspend_hypercalls: 1_500,
            resume_hypercalls: 2_200,
            remote_backup: false,
            history_depth: 0,
            retry_backoff_us: 50,
            pause_workers: 1,
            staging_buffers: 0,
            drain_timeout_ms: 10,
            external_pool: false,
            delta_threshold: 0,
            dedup: false,
        }
    }
}

/// The six phases of the pause window, in execution order: the rows of
/// the paper's Table 1 and Figure 4, and the index into
/// [`EpochReport::phase_ns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Pause vCPUs and fetch the dirty log.
    Suspend,
    /// The security audit: its staging before the walk and its verdict
    /// after it.
    Vmi,
    /// Scan the dirty bitmap into a page list.
    Bitscan,
    /// Map the frames to copy.
    Map,
    /// The page walk (every attempt) plus the dirty-sector propagation.
    Copy,
    /// Unmap and unpause vCPUs.
    Resume,
}

impl Phase {
    /// All phases in order.
    pub const ALL: [Phase; 6] = [
        Phase::Suspend,
        Phase::Vmi,
        Phase::Bitscan,
        Phase::Map,
        Phase::Copy,
        Phase::Resume,
    ];

    /// The row label the paper uses.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Suspend => "suspend",
            Phase::Vmi => "vmi",
            Phase::Bitscan => "bitscan",
            Phase::Map => "map",
            Phase::Copy => "copy",
            Phase::Resume => "resume",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What happened during one epoch's pause window. Only the engine builds
/// one (`#[non_exhaustive]`): with `verdict == Pass` and `pending == None`
/// it is the framework's receipt that the epoch committed in the window,
/// which is what releasing the epoch's held outputs requires.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct EpochReport {
    /// Epoch number (number of committed checkpoints before this one).
    pub epoch: u64,
    /// Audit outcome.
    pub verdict: AuditVerdict,
    /// Nanoseconds spent in each phase on the engine's clock, indexed by
    /// `Phase as usize`. Their sum is the pause.
    pub phase_ns: [u64; Phase::ALL.len()],
    /// Dirty pages found this epoch.
    pub dirty_pages: usize,
    /// Copy-phase statistics of the walk that was kept: zero when the
    /// verdict rejected the epoch and the walk was rolled back. With a
    /// staging sink these count pages *staged*, not yet durable.
    pub copy: CopyStats,
    /// Walk attempts spent this epoch (1 when the first try succeeded),
    /// whatever the verdict: the copy runs before it.
    pub copy_attempts: u32,
    /// Shards of the last walk attempt that were lent to a resident
    /// worker and taken back unstarted (see
    /// [`PauseWindowPool::shards_taken_back`]). A matter of timing: no
    /// result depends on it.
    pub shards_taken_back: usize,
    /// The drain ticket of a passing epoch whose sink was a staging slot
    /// (`staging_buffers > 0`): nothing has committed, and the epoch's
    /// outputs must stay impounded, until
    /// [`Checkpointer::drain_staged`] acknowledges it. `None` for an
    /// in-window commit and for a rejected epoch.
    pub pending: Option<DrainTicket>,
}

/// The backup's acknowledgement of one drained epoch — the evidence-
/// durability receipt the framework needs before releasing the epoch's
/// impounded outputs. Only [`Checkpointer::drain_staged`]'s `Ok` builds
/// one (`#[non_exhaustive]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct DrainStats {
    /// The staging generation this ack covers (monotonic).
    pub generation: u64,
    /// Pages drained to the backup.
    pub pages: usize,
    /// Payload bytes moved.
    pub bytes: usize,
    /// Simulated syscalls issued by the drain stream.
    pub syscalls: u64,
    /// Drain attempts spent (1 when the first try succeeded).
    pub attempts: u32,
    /// Pages already durable when the successful session connected — a
    /// nonzero value means the session *resynced* from the slot's
    /// progress cursor instead of restarting the stream at page zero.
    pub resumed_from: usize,
    /// All-zero pages in the drained set (knob-independent content fact;
    /// journaled in the epoch's drain profile).
    pub zero_pages: usize,
    /// Total words that differed from the backup's prior generation
    /// across the drained set (knob-independent; journaled).
    pub changed_words: u64,
    /// Pages whose exact bytes the backup already held somewhere
    /// (knob-independent; journaled).
    pub dup_pages: usize,
    /// Wire bytes the encoding saved versus raw full pages (0 with the
    /// knobs off). Telemetry only — never journaled.
    pub bytes_saved: usize,
    /// Records shipped as `(digest, refs)` references because dedup was
    /// on and the content was already stored. Telemetry only.
    pub dedup_hits: usize,
    /// Records that shipped bytes while dedup was on. Telemetry only.
    pub dedup_misses: usize,
    /// Pages whose compare-and-digest pass one of the pool's resident
    /// workers had already made when the guest resumed (0 without one). How far it gets
    /// is a matter of timing, and with `cipher_lent_bytes` the only field
    /// here that may differ between two runs of the same epoch. Telemetry
    /// only.
    pub head_start_pages: usize,
    /// Cipher bytes of the drained records that a resident worker of the
    /// walking pool ran instead of the drain's own thread (0 without one).
    /// A matter of timing, like `head_start_pages`. Telemetry only.
    pub cipher_lent_bytes: usize,
}

/// Deterministic exponential backoff with jitter for drain-session
/// retries: `base_us << (attempt - 1)` (shift capped at 10) plus a
/// seeded jitter draw in `[0, DRAIN_JITTER_SPAN_US)`. The jitter is a
/// pure function of `(generation, attempt)` — independent of `base_us`
/// and of any installed fault plan's RNG — so soaks replay bit-exactly
/// and tests can pre-compute the exact modelled wait.
pub fn drain_backoff_us(base_us: u64, generation: u64, attempt: u32) -> u64 {
    let shift = attempt.saturating_sub(1).min(10);
    let exponential = base_us.saturating_mul(1u64 << shift);
    let mut rng = crimes_rng::ChaCha8Rng::seed_from_u64(
        generation
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ u64::from(attempt),
    );
    exponential.saturating_add(rng.gen_range(0..DRAIN_JITTER_SPAN_US))
}

/// Span of the drain backoff jitter, in microseconds (exclusive upper
/// bound of the seeded draw in [`drain_backoff_us`]).
pub const DRAIN_JITTER_SPAN_US: u64 = 64;

/// What [`Checkpointer::rollback`] actually restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RollbackReport {
    /// Epoch of the restored checkpoint.
    pub restored_epoch: u64,
    /// `true` when the live backup failed verification and an older,
    /// checksum-verified history generation was restored instead.
    pub fell_back: bool,
    /// Corrupt chunks found in the live backup (0 when it verified clean).
    pub corrupt_chunks: usize,
}

/// A bare verdict closure as a [`FusedAudit`]: it stages nothing and
/// lends the walk no visitor.
struct VerdictOnly<'a>(&'a mut dyn FnMut(&Vm, &DirtyBitmap) -> AuditVerdict);

impl FusedAudit for VerdictOnly<'_> {
    fn stage(&mut self, _vm: &Vm, _dirty: &DirtyBitmap) {}

    fn visitor(&self) -> Option<&dyn FusedPageVisitor> {
        None
    }

    fn verdict(&mut self, vm: &Vm, dirty: &DirtyBitmap, _findings: &[PageFinding]) -> AuditVerdict {
        (self.0)(vm, dirty)
    }
}

/// Put an uncommitted epoch's pages back in the dirty log, so a later
/// epoch still audits and commits them.
fn remark_dirty(vm: &mut Vm, dirty: &DirtyBitmap) {
    for pfn in dirty.iter() {
        vm.memory_mut().mark_dirty(pfn);
    }
}

/// The commit tail of an in-window Pass and of an acknowledged drain
/// alike: the backup's image is authoritative and `integrity` already
/// describes it, so count the epoch and record it in the history.
fn commit(
    backup: &mut BackupVm,
    integrity: &ImageDigest,
    history: &mut CheckpointHistory,
    vm: &Vm,
) {
    backup.commit_epoch();
    history.push(|| CheckpointRecord {
        epoch: backup.epoch(),
        checksum: integrity.combined(),
        frames: Arc::new(backup.frames().to_vec()),
        disk: Arc::new(backup.disk().to_vec()),
        meta: vm.meta_snapshot(),
    });
}

/// The CRIMES checkpoint engine for one VM.
#[derive(Debug)]
pub struct Checkpointer {
    config: CheckpointConfig,
    backup: BackupVm,
    mapper: Mapper,
    /// The walk's copy visitor, fixed at build time from the
    /// configuration: the level's wire and the delta threshold for the
    /// in-window sink, the bare memcpy snapshot for the staging sink.
    copier: PageCopier,
    /// Preallocated worker pool for the walk; `None` for an
    /// `external_pool` tenant until a boundary runs with no lent pool.
    pool: Option<PauseWindowPool>,
    /// Preallocated staging slots — the walk's sink when
    /// `staging_buffers > 0`.
    staging: Option<StagingArea>,
    history: CheckpointHistory,
    integrity: ImageDigest,
    /// What the boundary times its phases and sleeps its retries on:
    /// the framework's own clock, virtual under a `TestClock`.
    clock: Arc<dyn Clock>,
    /// Hypercall cost model for the suspend/resume machinery (separate
    /// from the mapper's, which per-epoch strategies drive much harder).
    sched: HypercallModel,
    /// Consecutive failed drain sessions (connection refused, stream
    /// broken, or timed out) since the last successful ack or failover.
    /// The fleet reads this to decide when to reroute the tenant's drain
    /// to a standby backup.
    drain_session_failures: u32,
    /// Per-worker copy statistics cached from the last walk. Kept on the
    /// engine (not read live from the pool) so walks run on a lent pool
    /// report through [`worker_stats`](Self::worker_stats) exactly like
    /// walks on the private one.
    last_walk: Vec<(usize, CopyStats)>,
    /// The window's working set, sized for the whole guest at attach so no
    /// boundary allocates: the epoch's dirty pages and sectors (swapped
    /// out of the guest's logs), its page list and their mapping.
    dirty: DirtyBitmap,
    dirty_sectors: DirtyBitmap,
    dirty_pfns: Vec<Pfn>,
    mapped: Vec<MappedPage>,
}

impl Checkpointer {
    /// Create the engine, performing the initial full synchronisation with
    /// `vm` (and, for pre-mapped levels, the one-time global map load), all
    /// on the calling thread: [`attach`](Self::attach) to a fresh backup
    /// and its digest. A monitor starts up through
    /// [`startup::start_up`](crate::startup::start_up) instead, which copies and
    /// digests on two CPUs.
    pub fn new(vm: &Vm, config: CheckpointConfig) -> Self {
        let backup = BackupVm::new(vm);
        let integrity = ImageDigest::of(backup.frames(), backup.disk());
        Self::attach(vm, config, backup, integrity, 0)
    }

    /// Attach the engine to a VM and a backup image with its finished
    /// digest: a fresh one at start-up, or one that **survived** a monitor
    /// crash. The backup is adopted as-is (its epoch counter and
    /// acked-generation watermark survive with it), `integrity` must be
    /// [`ImageDigest::of`] its image (start-up makes it on two CPUs,
    /// [`startup::start_up`](crate::startup::start_up)), and staging-generation
    /// minting resumes at `resume_generation` so re-staged epochs continue
    /// the monotonic sequence the journal recorded instead of restarting
    /// at 1. History starts empty: retained images died with the monitor
    /// process.
    pub fn attach(
        vm: &Vm,
        config: CheckpointConfig,
        backup: BackupVm,
        integrity: ImageDigest,
        resume_generation: u64,
    ) -> Self {
        // Everything a boundary will need is allocated here, so nothing
        // allocates inside a window.
        let mapper = Mapper::new(
            vm,
            config.opt.mapping_strategy(),
            HypercallModel::default(),
        );
        let num_pages = vm.memory().num_pages();
        let pool = (!config.external_pool).then(|| {
            PauseWindowPool::new(config.pause_workers, num_pages, HypercallModel::DEFAULT_STEPS)
        });
        let staging = (config.staging_buffers > 0).then(|| {
            let mut area = StagingArea::new(
                num_pages,
                backup.disk().len() / crimes_vm::SECTOR_SIZE,
                config.staging_buffers,
            );
            area.resume_generation(resume_generation);
            area
        });
        let copier = if staging.is_some() {
            // The window only snapshots; cipher, socket and encoding are
            // the drain's.
            PageCopier::memcpy()
        } else if config.remote_backup {
            PageCopier::new(CopyStrategy::Socket, COPY_KEY, config.delta_threshold)
        } else {
            PageCopier::new(config.opt.copy_strategy(), COPY_KEY, config.delta_threshold)
        };
        Checkpointer {
            config,
            backup,
            mapper,
            copier,
            pool,
            staging,
            history: CheckpointHistory::new(config.history_depth),
            integrity,
            clock: Arc::new(RealClock::new()),
            sched: HypercallModel::default(),
            drain_session_failures: 0,
            last_walk: Vec::new(),
            dirty: DirtyBitmap::new(num_pages),
            dirty_sectors: DirtyBitmap::new(vm.disk().sectors()),
            dirty_pfns: Vec::with_capacity(num_pages),
            mapped: Vec::with_capacity(num_pages),
        }
    }

    /// Time the boundary's phases and sleep its retries on `clock`
    /// instead of the [`RealClock`] [`new`](Self::new) and
    /// [`attach`](Self::attach) start on.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// The configuration in effect.
    pub fn config(&self) -> &CheckpointConfig {
        &self.config
    }

    /// The current clean backup image.
    pub fn backup(&self) -> &BackupVm {
        &self.backup
    }

    /// The backup image's digest, as maintained since start-up.
    pub fn integrity(&self) -> &ImageDigest {
        &self.integrity
    }

    #[cfg(test)]
    pub(crate) fn backup_mut_for_tests(&mut self) -> &mut BackupVm {
        &mut self.backup
    }

    /// Committed-checkpoint history.
    pub fn history(&self) -> &CheckpointHistory {
        &self.history
    }

    /// Per-worker copy statistics from the last walk (one entry per
    /// worker slot of the pool it ran on, private or lent). Values are
    /// per-walk — callers accumulate across epochs.
    pub fn worker_stats(&self) -> impl Iterator<Item = (usize, CopyStats)> + '_ {
        self.last_walk.iter().copied()
    }

    /// Simulated map/unmap hypercalls issued so far (zero for pre-mapped
    /// levels) — the deterministic counterpart of the map-phase timing.
    pub fn map_hypercalls(&self) -> u64 {
        self.mapper.hypercalls_issued()
    }

    /// Execute one pause window with a bare verdict closure as the audit:
    /// [`run_epoch_on`](Self::run_epoch_on) on the engine's own pool, with
    /// nothing staged and no page-scoped scan riding the walk. `audit`
    /// receives the paused VM and the epoch's dirty bitmap.
    ///
    /// # Errors
    ///
    /// As [`run_epoch_on`](Self::run_epoch_on).
    pub fn run_epoch(
        &mut self,
        vm: &mut Vm,
        audit: &mut dyn FnMut(&Vm, &DirtyBitmap) -> AuditVerdict,
    ) -> Result<EpochReport, CheckpointError> {
        self.run_epoch_on(vm, &mut VerdictOnly(audit), None)
    }

    /// Execute one pause window (see the module header for the phases).
    /// The walk runs on `pool` when one is lent — a fleet scheduler's
    /// leased walker, sized for at least this VM's page count
    /// ([`PauseWindowPool::new`]) — and on the engine's own otherwise; the
    /// results are bit-identical either way and for any worker count
    /// (shard geometry is a pure function of the dirty set and the worker
    /// count, and the merge order is canonical).
    ///
    /// On a passing verdict the VM has resumed and the epoch has either
    /// committed or, with a staging sink, left its drain ticket in
    /// [`EpochReport::pending`]. On a failing verdict the VM is left
    /// suspended; on an inconclusive one the dirty pages are re-marked and
    /// the VM resumes. Both leave the backup exactly as the last commit
    /// left it, registers included.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::StagingBacklog`] when every staging buffer is
    /// still awaiting its drain (refused before anything is copied), or
    /// [`CheckpointError::Exhausted`] when every walk attempt (first try +
    /// [`COPY_RETRIES`]) failed — which, the walk coming
    /// before the verdict, can pre-empt a detection. Both fail closed: the
    /// VM stays suspended, the dirty set is re-marked, nothing committed,
    /// and the backup is clean (a failed walk undoes its own writes; a
    /// staging slot is simply freed).
    pub fn run_epoch_on(
        &mut self,
        vm: &mut Vm,
        audit: &mut dyn FusedAudit,
        pool: Option<&mut PauseWindowPool>,
    ) -> Result<EpochReport, CheckpointError> {
        if let Some(pool) = pool {
            return self.boundary(vm, audit, pool);
        }
        // Take-and-restore: the boundary borrows the engine's fields and
        // the pool simultaneously, which one `&mut self` cannot express.
        let mut own = self.pool.take().unwrap_or_else(|| {
            PauseWindowPool::new(
                self.config.pause_workers,
                self.backup.num_pages(),
                HypercallModel::DEFAULT_STEPS,
            )
        });
        let result = self.boundary(vm, audit, &mut own);
        self.pool = Some(own);
        result
    }

    /// The one epoch boundary. Nothing else in the engine suspends or
    /// resumes a guest.
    fn boundary(
        &mut self,
        vm: &mut Vm,
        audit: &mut dyn FusedAudit,
        pool: &mut PauseWindowPool,
    ) -> Result<EpochReport, CheckpointError> {
        let Checkpointer {
            config,
            backup,
            mapper,
            copier,
            staging,
            history,
            integrity,
            clock,
            sched,
            last_walk,
            dirty,
            dirty_sectors,
            dirty_pfns,
            mapped,
            ..
        } = self;
        let config = *config;
        let clock = &**clock;
        let epoch = backup.epoch();
        // Before the guest stops: a thread's start is no cost to pay
        // inside a window, and this one is paid once per pool.
        pool.start_workers();
        if let Some(area) = staging.as_mut() {
            // The drains that follow this boundary lend their cipher to
            // the workers of the pool that walked it.
            area.lend_cipher_to((pool.resident_workers() > 0).then(|| pool.executor()));
        }

        // Injected silent corruption: rot one bit of the backup image
        // without updating the stored digests, exactly as a DRAM or disk
        // fault would. Nothing notices until rollback verifies.
        if crimes_faults::should_inject(FaultPoint::PageCorrupt) {
            let at = crimes_faults::draw_below(backup.size_bytes() as u64) as usize;
            let bit = 1u8 << crimes_faults::draw_below(8);
            let mfn = crimes_vm::Mfn((at / crimes_vm::PAGE_SIZE) as u64);
            if let Some(byte) = backup.frame_mut(mfn).get_mut(at % crimes_vm::PAGE_SIZE) {
                *byte ^= bit;
            }
        }

        // One clock read per phase edge: each read charges the time since
        // the previous one to the phase that just ended.
        let mut phase_ns = [0u64; Phase::ALL.len()];
        let mut edge_ns = clock.now_ns();
        let mut end = |phase: Phase| {
            let now = clock.now_ns();
            if let Some(ns) = phase_ns.get_mut(phase as usize) {
                *ns += now.saturating_sub(edge_ns);
            }
            edge_ns = now;
        };

        // --- suspend: pause vCPUs, grab the dirty log ---------------------
        for _ in 0..config.suspend_hypercalls + 2 * vm.vcpus().len() as u32 {
            sched.call();
        }
        vm.vcpus_mut().pause_all();
        vm.memory_mut().take_dirty(dirty);
        end(Phase::Suspend);

        // --- vmi, first half: stage the page-scoped scan ------------------
        audit.stage(vm, dirty);
        end(Phase::Vmi);

        // --- bitscan ------------------------------------------------------
        config.opt.bitmap_scan().scan_into(dirty, dirty_pfns);
        end(Phase::Bitscan);

        // --- map ----------------------------------------------------------
        mapper.map_epoch(vm, dirty_pfns, mapped);
        end(Phase::Map);

        // --- walk: copy + digest + scan in one sharded pass ---------------
        // The sink is a claimed staging slot when staging is configured
        // (the walk only snapshots; the digest belongs to the drain) and
        // the backup image under the pool's undo log otherwise. The scan
        // rides last, at source slot 2 — the fixed position audit verdicts
        // filter on — so copy and digest output is identical whether or
        // not a scan is staged.
        let (digest, noop) = (FusedDigest, NoopVisitor);
        let visitors: [&dyn FusedPageVisitor; 3] = [
            &*copier,
            if staging.is_some() { &noop } else { &digest },
            audit.visitor().unwrap_or(&noop),
        ];
        let mut slot = None;
        let mut copy_attempts = 0u32;
        let walked = loop {
            let attempt = match staging.as_mut() {
                Some(area) => {
                    slot = slot.or_else(|| area.claim());
                    let Some(slot) = slot else {
                        // Every buffer still awaits its drain: refuse the
                        // epoch before anything is copied.
                        break Err(CheckpointError::StagingBacklog {
                            in_flight: area.in_flight(),
                        });
                    };
                    pool.run_staging(vm.memory(), area.frames_mut(slot), mapped, &visitors)
                }
                None => pool.run(vm.memory(), backup, mapped, &visitors),
            };
            copy_attempts += 1;
            match attempt {
                Ok(copy) => break Ok(copy),
                // No second try without the worker that died: fail closed.
                Err(lost @ CheckpointError::WorkerLost) => break Err(lost),
                // The guest is paused and a failed attempt left the sink
                // as it found it, so walking the same set again is safe.
                Err(_) if copy_attempts <= COPY_RETRIES => {
                    clock.sleep(Duration::from_micros(
                        config.retry_backoff_us * u64::from(copy_attempts),
                    ));
                }
                Err(_) => {
                    break Err(CheckpointError::Exhausted {
                        attempts: copy_attempts,
                    })
                }
            }
        };
        end(Phase::Copy);

        // --- vmi, second half: the verdict over the walk's findings -------
        let outcome = walked.map(|copy| {
            last_walk.clear();
            last_walk.extend(pool.worker_stats());
            (copy, audit.verdict(vm, dirty, pool.findings()))
        });
        end(Phase::Vmi);

        let passed = match outcome {
            // Pass, guest still paused: the epoch's dirty sectors ride
            // along (the disk-snapshot extension, §3.1) — the guest may
            // overwrite them the instant it resumes — and the registers
            // are saved now that they are known to belong to a clean
            // epoch.
            Ok((_, AuditVerdict::Pass)) => {
                vm.disk_mut().take_dirty(dirty_sectors);
                for sector in dirty_sectors.iter() {
                    let bytes = vm.disk().read_sector(sector.0);
                    match staging.as_mut().zip(slot) {
                        Some((area, slot)) => area.stage_sector(slot, sector.0, bytes),
                        None => backup.apply_sector(sector.0, bytes),
                    }
                }
                backup.save_vcpus(vm.vcpus());
                true
            }
            // Anything else rejects the epoch: free the slot, or roll the
            // walk back from the undo log, so the backup is bit-exactly
            // the last commit's. Unless the guest stays down for analysis
            // (Fail), its pages go back in the dirty log.
            _ => {
                match (staging.as_mut(), slot) {
                    (Some(area), Some(slot)) => area.release(slot),
                    // A backlog refusal claimed nothing.
                    (Some(_), None) => {}
                    (None, _) => pool.rollback_walk(backup),
                }
                if !matches!(outcome, Ok((_, AuditVerdict::Fail))) {
                    remark_dirty(vm, dirty);
                }
                false
            }
        };
        end(Phase::Copy);

        // --- resume (includes the per-epoch unmap on Remus-style paths) ---
        mapper.unmap_epoch(mapped);
        // A walk that never completed fails closed here: guest suspended,
        // nothing committed.
        let (copy, verdict) = outcome?;
        if verdict != AuditVerdict::Fail {
            // A passing staged epoch's slot is complete, and neither it
            // nor the backup is written again before the drain: one of
            // the pool's workers, if it has any, runs the drain's
            // read-only half over them while this thread spins out the
            // resume.
            let mut sealing = staging.as_mut().zip(slot).filter(|_| passed);
            let calls = config.resume_hypercalls + 2 * vm.vcpus().len() as u32;
            let mut resume = || {
                for _ in 0..calls {
                    sched.call();
                }
            };
            let stop = AtomicBool::new(false);
            let head_start = match sealing.as_mut() {
                Some((area, slot)) if pool.resident_workers() > 0 => {
                    area.head_start(*slot, backup, pool.walked(), &stop)
                }
                _ => None,
            };
            let resumed = match head_start {
                Some(mut job) => pool.head_start(resume, &mut job),
                None => {
                    resume();
                    Ok(())
                }
            };
            if let Err(lost) = resumed {
                // Fail closed like an exhausted walk: guest suspended,
                // slot freed, pages and sectors dirty again, nothing
                // committed.
                if let Some((area, slot)) = sealing {
                    area.release(slot);
                }
                remark_dirty(vm, dirty);
                for sector in dirty_sectors.iter().filter(|_| passed) {
                    vm.disk_mut().mark_dirty(sector.0);
                }
                return Err(lost);
            }
            vm.vcpus_mut().resume_all();
        }
        end(Phase::Resume);

        // --- after resume: commit, or seal for the drain ------------------
        let mut pending = None;
        if passed {
            match staging.as_mut().zip(slot) {
                // The page list is walk metadata, not guest state, so
                // copying it after resume is safe and keeps the window to
                // scan + memcpy. Digests are the drain's job.
                Some((area, slot)) => pending = Some(area.seal(slot, mapped)),
                // The copied pages and sectors are authoritative: fold
                // them into the incremental image digest (O(dirty), XOR —
                // so the shard layout cannot change the checksum). The
                // backup is immutable until the next epoch's walk, so
                // this overlaps guest execution.
                None => {
                    for (index, page_digest) in pool.page_digests() {
                        integrity.apply_page_digest(index, page_digest);
                    }
                    for sector in dirty_sectors.iter() {
                        integrity.update_sector(sector.0 as usize, backup.sector(sector.0));
                    }
                    commit(backup, integrity, history, vm);
                }
            }
        }

        Ok(EpochReport {
            epoch,
            verdict,
            phase_ns,
            dirty_pages: dirty_pfns.len(),
            copy: if verdict == AuditVerdict::Pass {
                copy
            } else {
                CopyStats::default()
            },
            copy_attempts,
            shards_taken_back: pool.shards_taken_back(),
            pending,
        })
    }

    /// Staged epochs currently awaiting their drain (0 when the deferred
    /// pipeline is disabled or idle).
    pub fn drains_in_flight(&self) -> usize {
        self.staging.as_ref().map(StagingArea::in_flight).unwrap_or(0)
    }

    /// Consecutive failed drain sessions since the last successful ack
    /// (or the last failover). The fleet's failover policy reads this.
    pub fn drain_session_failures(&self) -> u32 {
        self.drain_session_failures
    }

    /// Abandon a staged epoch: free its slot without draining it. A
    /// failed [`drain_staged`](Self::drain_staged) keeps the slot (and
    /// its progress cursor) so a later session can resync; call this when
    /// recovery has decided the epoch will never be drained — the staged
    /// snapshot is dropped and the backup keeps whatever partial,
    /// uncommitted writes the broken stream left (rollback verifies
    /// against checksums before trusting it).
    pub fn release_staged(&mut self, ticket: DrainTicket) {
        if let Some(staging) = self.staging.as_mut() {
            staging.release(ticket.slot());
        }
    }

    /// Reroute this tenant's drain to a standby backup after repeated
    /// session failures. The standby is modelled as a warm replica fed by
    /// the acked drain stream, so its image equals the primary backup's
    /// acked state; every in-flight slot's progress cursor is zeroed
    /// (partial progress against the failed backup does not exist on the
    /// standby) and the next drain session re-ships those slots from page
    /// zero — which rewrites exactly the frames the broken stream may
    /// have half-written, so the image is byte-exact at every later ack.
    /// Resets the consecutive-failure streak.
    pub fn failover_backup(&mut self) {
        if let Some(staging) = self.staging.as_mut() {
            staging.reset_cursors();
        }
        self.drain_session_failures = 0;
    }

    /// Drain one sealed staging slot to the backup — the out-of-window
    /// half of a boundary whose sink was a staging slot, overlapped with
    /// guest execution.
    /// Digests and encrypts each staged page, streams it through the
    /// modelled socket, decrypts it into the backup, folds the drain's
    /// digests into the image checksum, applies the snapshotted sectors,
    /// commits the epoch, and pushes the history record. The returned [`DrainStats`]
    /// is the backup's acknowledgement: only now may the framework
    /// release outputs impounded under the ticket's generation.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::BackupUnreachable`] /
    /// [`CheckpointError::DrainFault`] when every session attempt (first
    /// try + [`COPY_RETRIES`]) failed, or
    /// [`CheckpointError::DrainTimeout`] when the deterministic backoff
    /// budget ([`CheckpointConfig::drain_timeout_ms`]) ran out first. The
    /// backup may hold a partial copy and nothing was committed. The
    /// staging slot is **kept** (with its progress cursor) so a later
    /// session — possibly against a standby after
    /// [`failover_backup`](Self::failover_backup) — can resync; call
    /// [`release_staged`](Self::release_staged) to abandon the epoch
    /// instead, after which only a checksum-verified rollback is
    /// trustworthy and the epoch's outputs must stay impounded forever.
    pub fn drain_staged(
        &mut self,
        vm: &Vm,
        ticket: DrainTicket,
    ) -> Result<DrainStats, CheckpointError> {
        let Checkpointer {
            config,
            backup,
            staging,
            history,
            integrity,
            clock,
            sched,
            drain_session_failures,
            ..
        } = self;
        let config = *config;
        let Some(staging) = staging.as_mut() else {
            return Err(CheckpointError::DrainFault { pages_drained: 0 });
        };
        let mut attempts = 0u32;
        // The deterministic drain clock: accumulated modelled backoff, not
        // wall time, so fault soaks replay bit-exactly.
        let mut waited_us = 0u64;
        let mut resumed_from;
        let copy = loop {
            attempts += 1;
            // Session handshake: connect and exchange the last-acked
            // generation. The cursor tells the session where the previous
            // stream died; a nonzero cursor on the attempt that succeeds
            // makes this drain a *resync* rather than a restart. An
            // injected outage refuses the connection before any page moves.
            resumed_from = staging.drained(ticket.slot());
            let attempt = if crimes_faults::should_inject(FaultPoint::BackupOutage) {
                Err(CheckpointError::BackupUnreachable { attempt: attempts })
            } else {
                debug_assert!(
                    backup.acked_generation() < ticket.generation(),
                    "draining a generation the backup already acked"
                );
                let opts = DrainOpts {
                    delta_threshold: config.delta_threshold,
                    dedup: config.dedup,
                };
                staging.drain_slot(ticket.slot(), backup, COPY_KEY, sched, opts)
            };
            match attempt {
                Ok(copy) => break copy,
                Err(err) => {
                    *drain_session_failures = drain_session_failures.saturating_add(1);
                    if attempts > COPY_RETRIES {
                        return Err(err);
                    }
                    let backoff =
                        drain_backoff_us(config.retry_backoff_us, ticket.generation(), attempts);
                    waited_us = waited_us.saturating_add(backoff);
                    if waited_us > config.drain_timeout_ms.saturating_mul(1_000) {
                        return Err(CheckpointError::DrainTimeout {
                            attempts,
                            waited_us,
                            budget_ms: config.drain_timeout_ms,
                        });
                    }
                    clock.sleep(Duration::from_micros(backoff));
                }
            }
        };
        // The drained pages and snapshotted sectors are authoritative now:
        // fold them into the incremental image digest, then commit.
        for (sector, bytes) in staging.sectors(ticket.slot()) {
            backup.apply_sector(sector, bytes);
            integrity.update_sector(sector as usize, bytes);
        }
        for (index, page_digest) in staging.digests(ticket.slot()) {
            integrity.apply_page_digest(index, page_digest);
        }
        commit(backup, integrity, history, vm);
        // The second half of the handshake: the backup records the
        // generation as acked, so a post-crash session (or a standby
        // promotion) knows where the durable stream ends.
        backup.acknowledge_generation(ticket.generation());
        *drain_session_failures = 0;
        // The ack covers the whole slot: pages resumed past plus pages
        // this session shipped. The content profile folds over the
        // slot's per-record facts, which span every completed record
        // across attempts — the zero/changed/dup facts are knob-
        // independent (they go to the evidence journal), the wire
        // tallies are modelling (telemetry only).
        let pages = staging.entry_count(ticket.slot());
        let mut zero_pages = 0usize;
        let mut changed_words = 0u64;
        let mut dup_pages = 0usize;
        let mut bytes_saved = 0usize;
        let mut dedup_hits = 0usize;
        let mut dedup_misses = 0usize;
        for fact in staging.facts(ticket.slot()) {
            zero_pages += usize::from(fact.zero);
            changed_words = changed_words.saturating_add(u64::from(fact.changed_words));
            dup_pages += usize::from(fact.dup);
            bytes_saved =
                bytes_saved.saturating_add(crimes_vm::PAGE_SIZE.saturating_sub(fact.wire));
            dedup_hits += usize::from(fact.dedup_hit);
            dedup_misses += usize::from(config.dedup && !fact.dedup_hit);
        }
        let head_start_pages = staging.head_started(ticket.slot());
        let cipher_lent_bytes = staging.cipher_lent(ticket.slot());
        staging.release(ticket.slot());
        Ok(DrainStats {
            generation: ticket.generation(),
            pages,
            bytes: copy.bytes,
            syscalls: copy.syscalls,
            attempts,
            resumed_from,
            zero_pages,
            changed_words,
            dup_pages,
            bytes_saved,
            dedup_hits,
            dedup_misses,
            head_start_pages,
            cipher_lent_bytes,
        })
    }

    /// Verify the live backup against its incrementally-maintained digest.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] when any page or sector has silently
    /// diverged from its commit-time checksum.
    pub fn verify_backup(&self) -> Result<(), CheckpointError> {
        self.integrity
            .verify(self.backup.frames(), self.backup.disk())
            .map_err(|bad_chunks| CheckpointError::Corrupt {
                epoch: self.backup.epoch(),
                bad_chunks,
            })
    }

    /// Whether *some* checksum-verified state exists to roll back to: the
    /// live backup, or any retained history generation.
    pub fn has_verified_checkpoint(&self) -> bool {
        self.verify_backup().is_ok() || self.verified_fallback().is_some()
    }

    /// Newest retained history generation whose image still matches its
    /// commit-time checksum.
    fn verified_fallback(&self) -> Option<&CheckpointRecord> {
        self.history
            .iter()
            .rev()
            .find(|rec| image_digest(&rec.frames, &rec.disk) == rec.checksum)
    }

    /// Roll the VM back to the newest **checksum-verified** checkpoint.
    ///
    /// The live backup is verified first; if clean, it is restored with the
    /// caller-provided bookkeeping snapshot captured at the same commit
    /// (exactly the pre-fault behaviour). If the backup is silently
    /// corrupt, retained history generations are walked newest-first and
    /// the first one whose image still matches its commit-time checksum is
    /// restored instead — into both the VM and the backup, which becomes
    /// that verified generation.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::NoVerifiedCheckpoint`] when the backup is corrupt
    /// and no retained generation verifies. The VM is left untouched.
    pub fn rollback(
        &mut self,
        vm: &mut Vm,
        meta: &MetaSnapshot,
    ) -> Result<RollbackReport, CheckpointError> {
        match self.verify_backup() {
            Ok(()) => {
                vm.restore_with_frames(self.backup.frames(), meta);
                self.backup.restore_disk_into(vm.disk_mut());
                Ok(RollbackReport {
                    restored_epoch: self.backup.epoch(),
                    fell_back: false,
                    corrupt_chunks: 0,
                })
            }
            Err(CheckpointError::Corrupt { bad_chunks, .. }) => {
                // Cloned (two `Arc`s and the bookkeeping) so the restore
                // can overwrite the backup the record was found beside.
                let Some(CheckpointRecord {
                    epoch,
                    frames,
                    disk,
                    meta: rec_meta,
                    ..
                }) = self.verified_fallback().cloned()
                else {
                    return Err(CheckpointError::NoVerifiedCheckpoint {
                        newest_epoch: self.backup.epoch(),
                    });
                };
                vm.restore_with_frames(&frames, &rec_meta);
                self.backup.overwrite_image(&frames, &disk);
                self.backup.restore_disk_into(vm.disk_mut());
                self.integrity = ImageDigest::of(&frames, &disk);
                Ok(RollbackReport {
                    restored_epoch: epoch,
                    fell_back: true,
                    corrupt_chunks: bad_chunks,
                })
            }
            Err(other) => Err(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm() -> Vm {
        let mut b = Vm::builder();
        b.pages(2048).seed(77);
        b.build()
    }

    fn pass_audit() -> impl FnMut(&Vm, &DirtyBitmap) -> AuditVerdict {
        |_vm, _d| AuditVerdict::Pass
    }

    #[test]
    fn opt_level_strategy_matrix_matches_paper() {
        use crate::bitmap::BitmapScan;
        assert_eq!(OptLevel::NoOpt.copy_strategy(), CopyStrategy::Socket);
        assert_eq!(OptLevel::Memcpy.copy_strategy(), CopyStrategy::Memcpy);
        assert_eq!(
            OptLevel::NoOpt.mapping_strategy(),
            MappingStrategy::PerEpochPrimary
        );
        assert_eq!(
            OptLevel::Memcpy.mapping_strategy(),
            MappingStrategy::PerEpochPrimaryAndBackup
        );
        assert_eq!(OptLevel::PreMap.mapping_strategy(), MappingStrategy::Global);
        assert_eq!(OptLevel::Full.bitmap_scan(), BitmapScan::WordWise);
        assert_eq!(OptLevel::PreMap.bitmap_scan(), BitmapScan::BitByBit);
    }

    #[test]
    fn passing_epoch_commits_and_resumes() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 16).expect("spawn");
        let mut cp = Checkpointer::new(&vm, CheckpointConfig::default());
        for i in 0..4 {
            vm.dirty_arena_page(pid, i, 0, 1).expect("dirty");
        }
        let report = cp
            .run_epoch(&mut vm, &mut pass_audit())
            .expect("no faults armed");
        assert_eq!(report.verdict, AuditVerdict::Pass);
        assert!(report.dirty_pages >= 4);
        assert_eq!(report.copy.pages, report.dirty_pages);
        assert_eq!(report.copy_attempts, 1);
        assert!(!vm.vcpus().all_paused(), "VM resumes after a pass");
        assert_eq!(cp.backup().epoch(), 1);
        assert!(vm.memory().dirty().is_empty(), "dirty log consumed");
    }

    #[test]
    fn backup_matches_primary_after_each_epoch() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 32).expect("spawn");
        for opt in OptLevel::ALL {
            let mut cp = Checkpointer::new(
                &vm,
                CheckpointConfig {
                    opt,
                    ..CheckpointConfig::default()
                },
            );
            for e in 0..3 {
                for i in 0..8 {
                    vm.dirty_arena_page(pid, (e * 8 + i) % 32, i, e as u8)
                        .expect("dirty");
                }
                cp.run_epoch(&mut vm, &mut pass_audit())
                    .expect("no faults armed");
                assert_eq!(
                    cp.backup().frames(),
                    vm.memory().dump_frames().as_slice(),
                    "backup diverged at {opt} epoch {e}"
                );
            }
        }
    }

    #[test]
    fn copy_retries_rescue_epochs_from_transient_faults() {
        use crimes_faults::{FaultPlan, FaultPoint, SCALE};

        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 16).expect("spawn");
        let mut cp = Checkpointer::new(&vm, CheckpointConfig::default());
        // Roughly half the attempts fail: retries absorb the faults and
        // most epochs still commit.
        let mut committed = 0;
        {
            let plan = FaultPlan::disabled().with_rate(FaultPoint::PageCopy, SCALE / 2);
            let _scope = crimes_faults::install(plan, 12);
            for i in 0..8 {
                vm.dirty_arena_page(pid, i, 0, 2).expect("dirty");
                if let Ok(report) = cp.run_epoch(&mut vm, &mut pass_audit()) {
                    committed += 1;
                    assert!(report.copy_attempts >= 1);
                } else {
                    vm.vcpus_mut().resume_all();
                }
            }
        }
        assert!(committed > 0, "retries should rescue some epochs");
        assert_eq!(cp.backup().epoch(), committed);
    }

    #[test]
    fn rollback_restores_clean_state() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 16).expect("spawn");
        let obj = vm.malloc(pid, 32).expect("malloc");
        vm.write_user(pid, obj, b"clean!", 0).expect("write");
        let mut cp = Checkpointer::new(&vm, CheckpointConfig::default());
        let meta = vm.meta_snapshot();
        cp.run_epoch(&mut vm, &mut pass_audit())
            .expect("no faults armed");

        // Attack epoch.
        vm.write_user(pid, obj, b"PWNED!", 0xbad).expect("write");
        let report = cp
            .run_epoch(&mut vm, &mut |_, _| AuditVerdict::Fail)
            .expect("no faults armed");
        assert_eq!(report.verdict, AuditVerdict::Fail);

        let rb = cp.rollback(&mut vm, &meta).expect("backup verifies clean");
        assert!(!rb.fell_back);
        let mut buf = [0u8; 6];
        vm.read_user(pid, obj, &mut buf).expect("read");
        assert_eq!(&buf, b"clean!");
    }

    #[test]
    fn rollback_under_corruption_falls_back_to_verified_generation() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 16).expect("spawn");
        let obj = vm.malloc(pid, 32).expect("malloc");
        let mut cp = Checkpointer::new(
            &vm,
            CheckpointConfig {
                history_depth: 3,
                ..CheckpointConfig::default()
            },
        );

        // Two clean generations.
        vm.write_user(pid, obj, b"gen-1!", 0).expect("write");
        cp.run_epoch(&mut vm, &mut pass_audit())
            .expect("no faults armed");
        vm.write_user(pid, obj, b"gen-2!", 0).expect("write");
        cp.run_epoch(&mut vm, &mut pass_audit())
            .expect("no faults armed");
        let meta = vm.meta_snapshot();
        assert!(cp.verify_backup().is_ok());

        // Silently rot a bit of the live backup, then detect an attack.
        cp.backup_mut_for_tests().frame_mut(crimes_vm::Mfn(3))[7] ^= 0x10;
        assert!(matches!(
            cp.verify_backup(),
            Err(CheckpointError::Corrupt { bad_chunks: 1, .. })
        ));
        assert!(cp.has_verified_checkpoint(), "history still holds gen-2");

        let rb = cp.rollback(&mut vm, &meta).expect("fallback must succeed");
        assert!(rb.fell_back);
        assert_eq!(rb.corrupt_chunks, 1);
        assert_eq!(rb.restored_epoch, 2);
        // The restored state is gen-2, and the repaired backup verifies.
        let mut buf = [0u8; 6];
        vm.read_user(pid, obj, &mut buf).expect("read");
        assert_eq!(&buf, b"gen-2!");
        assert!(cp.verify_backup().is_ok(), "backup repaired from history");

        // The default keeps no generation: there is nothing to fall back to.
        let mut cp = Checkpointer::new(&vm, CheckpointConfig::default());
        cp.run_epoch(&mut vm, &mut pass_audit())
            .expect("no faults armed");
        let meta = vm.meta_snapshot();
        cp.backup_mut_for_tests().frame_mut(crimes_vm::Mfn(0))[0] ^= 0x01;
        assert!(!cp.has_verified_checkpoint());
        let before = vm.memory().dump_frames();
        assert!(matches!(
            cp.rollback(&mut vm, &meta),
            Err(CheckpointError::NoVerifiedCheckpoint { .. })
        ));
        assert_eq!(vm.memory().dump_frames(), before, "VM untouched on failure");
    }

    #[test]
    fn audit_sees_the_epoch_dirty_bitmap() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 16).expect("spawn");
        let mut cp = Checkpointer::new(&vm, CheckpointConfig::default());
        vm.dirty_arena_page(pid, 7, 0, 1).expect("dirty");
        let phys = vm.processes().get(pid).expect("pid").mapping.phys_base;
        let expect = Pfn(phys.0 / crimes_vm::PAGE_SIZE as u64 + 7);
        let mut seen = 0usize;
        cp.run_epoch(&mut vm, &mut |_vm, dirty| {
            seen = dirty.count();
            assert!(dirty.is_dirty(expect));
            AuditVerdict::Pass
        })
        .expect("no faults armed");
        assert!(seen >= 1);
    }

    #[test]
    fn history_records_commits() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 16).expect("spawn");
        let mut cp = Checkpointer::new(
            &vm,
            CheckpointConfig {
                history_depth: 2,
                ..CheckpointConfig::default()
            },
        );
        for e in 0..3u64 {
            vm.advance_time(10);
            vm.dirty_arena_page(pid, e as usize, 0, 1).expect("dirty");
            cp.run_epoch(&mut vm, &mut pass_audit())
                .expect("no faults armed");
        }
        assert_eq!(cp.history().len(), 2);
        assert_eq!(cp.history().latest().expect("latest").epoch, 3);
    }

    #[test]
    fn history_keeps_verifiable_generations_only_when_asked() {
        let mut vm = vm();
        let mut cp = Checkpointer::new(
            &vm,
            CheckpointConfig {
                history_depth: 1,
                ..CheckpointConfig::default()
            },
        );
        cp.run_epoch(&mut vm, &mut pass_audit())
            .expect("no faults armed");
        let rec = cp.history().latest().expect("latest");
        assert_eq!(rec.frames.as_slice(), vm.memory().dump_frames().as_slice());
        assert_eq!(rec.disk.as_slice(), vm.disk().dump().as_slice());
        assert_eq!(rec.checksum, image_digest(&rec.frames, &rec.disk));

        let mut cp = Checkpointer::new(&vm, CheckpointConfig::default());
        for _ in 0..3 {
            cp.run_epoch(&mut vm, &mut pass_audit())
                .expect("no faults armed");
        }
        assert_eq!(cp.backup().epoch(), 3);
        assert!(cp.history().is_empty(), "the default retains no generation");
    }

    #[test]
    fn opt_labels_match_figures() {
        let labels: Vec<&str> = OptLevel::ALL.iter().map(|o| o.label()).collect();
        assert_eq!(labels, vec!["No-opt", "Memcpy", "Pre-map", "Full"]);
    }

    #[test]
    fn phase_labels_match_paper_rows() {
        let labels: Vec<&str> = Phase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            vec!["suspend", "vmi", "bitscan", "map", "copy", "resume"]
        );
        // `phase_ns` is indexed by `Phase as usize` and the framework labels
        // its histograms by position in `ALL`: the two orders must agree.
        assert!(Phase::ALL.iter().enumerate().all(|(i, p)| *p as usize == i));
    }

    #[test]
    fn remote_backup_forces_socket_copy_but_keeps_other_opts() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 32).expect("spawn");
        let mk = |remote| CheckpointConfig {
            opt: OptLevel::Full,
            remote_backup: remote,
            ..CheckpointConfig::default()
        };
        let run = |vm: &mut Vm, cfg| {
            let mut cp = Checkpointer::new(vm, cfg);
            for i in 0..32 {
                vm.dirty_arena_page(pid, i, 0, 1).expect("dirty");
            }
            let report = cp
                .run_epoch(vm, &mut |_, _| AuditVerdict::Pass)
                .expect("no faults armed");
            // Backup stays consistent over either path.
            assert_eq!(cp.backup().frames(), vm.memory().dump_frames().as_slice());
            // The pre-map optimisation still applies remotely.
            assert_eq!(cp.map_hypercalls(), 0);
            report
        };
        let local = run(&mut vm, mk(false));
        let remote = run(&mut vm, mk(true));
        assert!(
            remote.copy.syscalls > 0,
            "remote copies must travel the socket"
        );
        assert_eq!(local.copy.syscalls, 0, "local Full path is pure memcpy");
    }

    fn fused_config(workers: usize) -> CheckpointConfig {
        CheckpointConfig {
            pause_workers: workers,
            ..CheckpointConfig::default()
        }
    }

    fn dirty_some(vm: &mut Vm, pid: u32, salt: u8) {
        for i in 0..24 {
            vm.dirty_arena_page(pid, i, i % 60, salt.wrapping_add(i as u8))
                .expect("dirty");
        }
    }

    /// The reference that is not the pipeline under test: after a commit
    /// the backup must equal the guest's own memory and disk, pass its own
    /// verification, and carry the checksum of exactly that image,
    /// recomputed from scratch.
    fn assert_committed_image(cp: &Checkpointer, vm: &Vm, what: &str) {
        assert_eq!(
            cp.backup().frames(),
            vm.memory().dump_frames().as_slice(),
            "{what}: backup frames are not the guest's"
        );
        assert_eq!(
            cp.backup().disk(),
            vm.disk().dump().as_slice(),
            "{what}: backup disk is not the guest's"
        );
        assert!(cp.verify_backup().is_ok(), "{what}: backup fails verification");
        assert_eq!(
            cp.integrity().combined(),
            image_digest(cp.backup().frames(), cp.backup().disk()),
            "{what}: commit checksum is not the image's"
        );
    }

    #[test]
    fn fused_pass_matches_serial_backup_and_checksum() {
        // Two identical VMs, one walked by one worker and one by four:
        // committed state must be indistinguishable, and each must equal
        // its guest.
        let mk = || {
            let mut b = Vm::builder();
            b.pages(2048).seed(77);
            let mut vm = b.build();
            let pid = vm.spawn_process("app", 0, 64).expect("spawn");
            (vm, pid)
        };
        let (mut vm_a, pid_a) = mk();
        let (mut vm_b, pid_b) = mk();
        let mut serial = Checkpointer::new(&vm_a, CheckpointConfig::default());
        let mut fused = Checkpointer::new(&vm_b, fused_config(4));

        for epoch in 0..3u8 {
            dirty_some(&mut vm_a, pid_a, epoch);
            dirty_some(&mut vm_b, pid_b, epoch);
            let a = serial
                .run_epoch(&mut vm_a, &mut pass_audit())
                .expect("no faults armed");
            let b = fused
                .run_epoch(&mut vm_b, &mut |_, _| AuditVerdict::Pass)
                .expect("no faults armed");
            assert_eq!(a.verdict, b.verdict);
            assert_eq!(a.dirty_pages, b.dirty_pages);
            assert_eq!(a.copy.pages, b.copy.pages);
            assert_eq!(a.copy.bytes, b.copy.bytes);
            assert_eq!(
                serial.backup().frames(),
                fused.backup().frames(),
                "fused backup image diverged at epoch {epoch}"
            );
            assert_eq!(
                serial.integrity.combined(),
                fused.integrity.combined(),
                "fused checksum diverged at epoch {epoch}"
            );
            assert_committed_image(&serial, &vm_a, "one worker");
            assert_committed_image(&fused, &vm_b, "four workers");
        }
        assert!(!vm_b.vcpus().all_paused());
        assert_eq!(fused.backup().epoch(), 3);
        assert!(fused.verify_backup().is_ok());
    }

    #[test]
    fn fused_remote_backup_travels_the_socket() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 64).expect("spawn");
        let mut cp = Checkpointer::new(
            &vm,
            CheckpointConfig {
                remote_backup: true,
                ..fused_config(4)
            },
        );
        dirty_some(&mut vm, pid, 1);
        let report = cp
            .run_epoch(&mut vm, &mut |_, _| AuditVerdict::Pass)
            .expect("no faults armed");
        assert!(report.copy.syscalls > 0, "remote copies model the socket");
        assert_eq!(cp.backup().frames(), vm.memory().dump_frames().as_slice());
        assert!(cp.verify_backup().is_ok());
    }

    #[test]
    fn a_failing_verdict_rolls_the_walk_back_and_stays_suspended() {
        for workers in [1, 4] {
            let mut vm = vm();
            let pid = vm.spawn_process("app", 0, 64).expect("spawn");
            let mut cp = Checkpointer::new(&vm, fused_config(workers));
            let clean = cp.backup().frames().to_vec();
            dirty_some(&mut vm, pid, 2);
            let report = cp
                .run_epoch(&mut vm, &mut |_, _| AuditVerdict::Fail)
                .expect("no faults armed");
            assert_eq!(report.verdict, AuditVerdict::Fail);
            assert!(vm.vcpus().all_paused(), "VM must stay paused on failure");
            assert_eq!(cp.backup().epoch(), 0, "no commit on failure");
            assert_eq!(
                cp.backup().frames(),
                clean.as_slice(),
                "the walk must be undone on a failing verdict"
            );
            assert_eq!(report.copy.pages, 0);
            assert!(cp.verify_backup().is_ok(), "digest state never advanced");
        }
    }

    #[test]
    fn an_inconclusive_verdict_extends_speculation() {
        for workers in [1, 4] {
            let mut vm = vm();
            let pid = vm.spawn_process("app", 0, 64).expect("spawn");
            let mut cp = Checkpointer::new(&vm, fused_config(workers));
            let clean = cp.backup().frames().to_vec();
            dirty_some(&mut vm, pid, 3);
            let report = cp
                .run_epoch(&mut vm, &mut |_, _| AuditVerdict::Inconclusive)
                .expect("no faults armed");
            assert_eq!(report.verdict, AuditVerdict::Inconclusive);
            assert!(!vm.vcpus().all_paused(), "VM resumes");
            assert_eq!(cp.backup().epoch(), 0, "no commit while inconclusive");
            assert_eq!(cp.backup().frames(), clean.as_slice(), "walk undone");

            // The deferred pages are still dirty: the next conclusive epoch
            // audits and commits them.
            let next = cp
                .run_epoch(&mut vm, &mut |_, _| AuditVerdict::Pass)
                .expect("no faults armed");
            assert_eq!(next.verdict, AuditVerdict::Pass);
            assert!(next.dirty_pages >= report.dirty_pages);
            assert_eq!(cp.backup().epoch(), 1);
            assert_eq!(cp.backup().frames(), vm.memory().dump_frames().as_slice());
            assert!(cp.verify_backup().is_ok());
        }
    }

    #[test]
    fn exhaustion_leaves_the_backup_clean() {
        use crimes_faults::{FaultPlan, FaultPoint, SCALE};

        for workers in [1, 4] {
            let mut vm = vm();
            let pid = vm.spawn_process("app", 0, 64).expect("spawn");
            let mut cp = Checkpointer::new(&vm, fused_config(workers));
            let clean = cp.backup().frames().to_vec();
            dirty_some(&mut vm, pid, 4);
            {
                let plan = FaultPlan::disabled().with_rate(FaultPoint::PageCopy, SCALE);
                let _scope = crimes_faults::install(plan, 21);
                let err = cp
                    .run_epoch(&mut vm, &mut |_, _| AuditVerdict::Pass)
                    .expect_err("every walk attempt faults");
                assert_eq!(err, CheckpointError::Exhausted { attempts: 4 });
            }
            assert!(vm.vcpus().all_paused(), "fail closed: VM stays suspended");
            assert_eq!(cp.backup().epoch(), 0);
            assert_eq!(
                cp.backup().frames(),
                clean.as_slice(),
                "undo log leaves no partial copy behind"
            );
            vm.vcpus_mut().resume_all();

            // The dirty set was re-marked, so a fault-free epoch still commits.
            let report = cp
                .run_epoch(&mut vm, &mut |_, _| AuditVerdict::Pass)
                .expect("no faults armed");
            assert_eq!(report.verdict, AuditVerdict::Pass);
            assert_eq!(cp.backup().epoch(), 1);
            assert_eq!(cp.backup().frames(), vm.memory().dump_frames().as_slice());
        }
    }

    fn staged_config(buffers: usize) -> CheckpointConfig {
        CheckpointConfig {
            pause_workers: 2,
            staging_buffers: buffers,
            ..CheckpointConfig::default()
        }
    }

    #[test]
    fn staged_pass_matches_serial_backup_and_checksum() {
        // Two identical VMs, one copied in the window and one deferred:
        // after each staged epoch's drain acks, the committed state must
        // be indistinguishable — the cipher detour through staging cannot
        // change a single byte — and each must equal its guest.
        let mk = || {
            let mut b = Vm::builder();
            b.pages(2048).seed(77);
            let mut vm = b.build();
            let pid = vm.spawn_process("app", 0, 64).expect("spawn");
            (vm, pid)
        };
        let (mut vm_a, pid_a) = mk();
        let (mut vm_b, pid_b) = mk();
        let mut serial = Checkpointer::new(&vm_a, CheckpointConfig::default());
        let mut staged = Checkpointer::new(&vm_b, staged_config(2));

        for epoch in 0..3u8 {
            dirty_some(&mut vm_a, pid_a, epoch);
            dirty_some(&mut vm_b, pid_b, epoch);
            let a = serial
                .run_epoch(&mut vm_a, &mut pass_audit())
                .expect("no faults armed");
            let b = staged
                .run_epoch(&mut vm_b, &mut |_, _| AuditVerdict::Pass)
                .expect("no faults armed");
            assert_eq!(a.verdict, b.verdict);
            assert_eq!(a.dirty_pages, b.dirty_pages);
            assert_eq!(a.copy.pages, b.copy.pages);
            assert_eq!(
                b.copy.syscalls, 0,
                "the pause window must not touch the socket"
            );
            assert!(
                !vm_b.vcpus().all_paused(),
                "the guest runs while the drain is pending"
            );
            assert_eq!(
                staged.backup().epoch(),
                u64::from(epoch),
                "nothing commits before the drain acks"
            );
            assert_eq!(staged.drains_in_flight(), 1);

            let ticket = b.pending.expect("passing verdict yields a ticket");
            assert_eq!(ticket.generation(), u64::from(epoch) + 1);
            let ack = staged
                .drain_staged(&vm_b, ticket)
                .expect("no faults armed");
            assert_eq!(ack.generation, u64::from(epoch) + 1);
            assert_eq!(ack.pages, a.copy.pages);
            assert!(ack.syscalls > 0, "the drain models the socket stream");
            assert_eq!(ack.attempts, 1);
            assert_eq!(staged.drains_in_flight(), 0);

            assert_eq!(
                serial.backup().frames(),
                staged.backup().frames(),
                "staged backup image diverged at epoch {epoch}"
            );
            assert_eq!(
                serial.integrity.combined(),
                staged.integrity.combined(),
                "staged checksum diverged at epoch {epoch}"
            );
            assert_committed_image(&serial, &vm_a, "in-window");
            assert_committed_image(&staged, &vm_b, "staged + drain");
        }
        assert_eq!(staged.backup().epoch(), 3);
        assert!(staged.verify_backup().is_ok());
        assert_eq!(staged.backup().epoch(), serial.backup().epoch());
    }

    #[test]
    fn staged_fail_and_inconclusive_discard_without_rollback() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 64).expect("spawn");
        let mut cp = Checkpointer::new(&vm, staged_config(1));
        let clean = cp.backup().frames().to_vec();

        // Fail: the backup never saw the walk, so dropping the slot is the
        // whole rollback; the VM stays suspended for analysis.
        dirty_some(&mut vm, pid, 5);
        let failed = cp
            .run_epoch(&mut vm, &mut |_, _| AuditVerdict::Fail)
            .expect("no faults armed");
        assert_eq!(failed.verdict, AuditVerdict::Fail);
        assert!(failed.pending.is_none());
        assert!(vm.vcpus().all_paused(), "VM must stay paused on failure");
        assert_eq!(cp.backup().epoch(), 0);
        assert_eq!(cp.backup().frames(), clean.as_slice(), "backup untouched");
        assert_eq!(cp.drains_in_flight(), 0, "slot released on failure");
        vm.vcpus_mut().resume_all();

        // Inconclusive: slot discarded, dirty set kept, speculation extends.
        dirty_some(&mut vm, pid, 6);
        let inconclusive = cp
            .run_epoch(&mut vm, &mut |_, _| AuditVerdict::Inconclusive)
            .expect("no faults armed");
        assert_eq!(inconclusive.verdict, AuditVerdict::Inconclusive);
        assert!(inconclusive.pending.is_none());
        assert!(!vm.vcpus().all_paused(), "VM resumes");
        assert_eq!(cp.backup().epoch(), 0, "no commit while inconclusive");
        assert_eq!(cp.drains_in_flight(), 0);

        // The deferred pages are still dirty: the next conclusive epoch
        // stages, drains, and commits them.
        let next = cp
            .run_epoch(&mut vm, &mut |_, _| AuditVerdict::Pass)
            .expect("no faults armed");
        assert!(next.dirty_pages >= inconclusive.dirty_pages);
        let ticket = next.pending.expect("passing verdict yields a ticket");
        cp.drain_staged(&vm, ticket).expect("no faults armed");
        assert_eq!(cp.backup().epoch(), 1);
        assert_eq!(cp.backup().frames(), vm.memory().dump_frames().as_slice());
        assert!(cp.verify_backup().is_ok());
    }

    #[test]
    fn staged_drain_fault_fails_closed_with_verified_fallback() {
        use crimes_faults::{FaultPlan, FaultPoint, SCALE};

        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 64).expect("spawn");
        let mut cp = Checkpointer::new(
            &vm,
            CheckpointConfig {
                history_depth: 2,
                ..staged_config(1)
            },
        );

        // One clean acknowledged generation to fall back to.
        dirty_some(&mut vm, pid, 7);
        let first = cp
            .run_epoch(&mut vm, &mut |_, _| AuditVerdict::Pass)
            .expect("no faults armed");
        cp.drain_staged(&vm, first.pending.expect("ticket"))
            .expect("no faults armed");
        let meta = vm.meta_snapshot();

        // Second epoch stages cleanly, but every drain attempt faults.
        dirty_some(&mut vm, pid, 8);
        let second = cp
            .run_epoch(&mut vm, &mut |_, _| AuditVerdict::Pass)
            .expect("no faults armed");
        let ticket = second.pending.expect("ticket");
        let err = {
            let plan = FaultPlan::disabled().with_rate(FaultPoint::BackupDrain, SCALE);
            let _scope = crimes_faults::install(plan, 13);
            cp.drain_staged(&vm, ticket)
                .expect_err("every drain attempt faults")
        };
        assert!(
            matches!(err, CheckpointError::DrainFault { .. }),
            "unexpected error: {err}"
        );
        assert_eq!(cp.backup().epoch(), 1, "failed drain commits nothing");
        assert_eq!(
            cp.drains_in_flight(),
            1,
            "the slot (and its cursor) survives the give-up for a resync"
        );
        assert!(cp.drain_session_failures() > 0);
        // Recovery abandons the epoch: the slot is freed explicitly.
        cp.release_staged(ticket);
        assert_eq!(cp.drains_in_flight(), 0, "slot released on abandonment");

        // A partial drain leaves the backup untrustworthy; recovery must
        // go through checksum verification, falling back to the retained
        // generation when the live image fails it.
        if cp.verify_backup().is_err() {
            assert!(cp.has_verified_checkpoint(), "history still holds gen 1");
            let rb = cp.rollback(&mut vm, &meta).expect("fallback succeeds");
            assert!(rb.fell_back);
            assert_eq!(rb.restored_epoch, 1);
            assert!(cp.verify_backup().is_ok(), "backup repaired from history");
        }
    }

    #[test]
    fn staged_drain_timeout_fails_closed() {
        use crimes_faults::{FaultPlan, FaultPoint, SCALE};

        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 64).expect("spawn");
        let mut cp = Checkpointer::new(
            &vm,
            CheckpointConfig {
                drain_timeout_ms: 0,
                ..staged_config(1)
            },
        );
        dirty_some(&mut vm, pid, 9);
        let staged = cp
            .run_epoch(&mut vm, &mut |_, _| AuditVerdict::Pass)
            .expect("no faults armed");
        let ticket = staged.pending.expect("ticket");
        let err = {
            let plan = FaultPlan::disabled().with_rate(FaultPoint::BackupDrain, SCALE);
            let _scope = crimes_faults::install(plan, 14);
            cp.drain_staged(&vm, ticket)
                .expect_err("zero budget times out on the first retry")
        };
        assert!(
            matches!(err, CheckpointError::DrainTimeout { budget_ms: 0, .. }),
            "unexpected error: {err}"
        );
        assert_eq!(cp.backup().epoch(), 0);
        assert_eq!(cp.drains_in_flight(), 1, "slot kept for a later resync");
        cp.release_staged(ticket);
        assert_eq!(cp.drains_in_flight(), 0);
    }

    #[test]
    fn staged_backlog_refuses_new_epochs_until_a_drain_acks() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 64).expect("spawn");
        let mut cp = Checkpointer::new(&vm, staged_config(1));

        dirty_some(&mut vm, pid, 10);
        let first = cp
            .run_epoch(&mut vm, &mut |_, _| AuditVerdict::Pass)
            .expect("no faults armed");
        let ticket = first.pending.expect("ticket");
        assert_eq!(cp.drains_in_flight(), 1);

        // The only buffer is still awaiting its drain: the next epoch is
        // refused before anything is copied, and fails closed.
        dirty_some(&mut vm, pid, 11);
        let err = cp
            .run_epoch(&mut vm, &mut |_, _| AuditVerdict::Pass)
            .expect_err("no free staging buffer");
        assert_eq!(err, CheckpointError::StagingBacklog { in_flight: 1 });
        assert!(vm.vcpus().all_paused(), "fail closed: VM stays suspended");
        assert_eq!(cp.backup().epoch(), 0);
        vm.vcpus_mut().resume_all();

        // Draining the ticket frees the buffer; the re-marked dirty set
        // commits on the next epoch and generations stay monotonic.
        cp.drain_staged(&vm, ticket).expect("no faults armed");
        assert_eq!(cp.backup().epoch(), 1);
        let next = cp
            .run_epoch(&mut vm, &mut |_, _| AuditVerdict::Pass)
            .expect("buffer free again");
        let ticket = next.pending.expect("ticket");
        assert_eq!(ticket.generation(), 2);
        cp.drain_staged(&vm, ticket).expect("no faults armed");
        assert_eq!(cp.backup().epoch(), 2);
        assert_eq!(cp.backup().frames(), vm.memory().dump_frames().as_slice());
        assert!(cp.verify_backup().is_ok());
    }

    #[test]
    fn broken_drain_session_resyncs_from_its_cursor() {
        use crimes_faults::{FaultPlan, FaultPoint, SCALE};

        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 64).expect("spawn");
        let mut cp = Checkpointer::new(&vm, staged_config(1));
        dirty_some(&mut vm, pid, 3);
        let staged = cp
            .run_epoch(&mut vm, &mut |_, _| AuditVerdict::Pass)
            .expect("no faults armed");
        let ticket = staged.pending.expect("ticket");

        // Every attempt's stream breaks: the session gives up, leaving a
        // partial copy *and* a progress cursor behind.
        let err = {
            let plan = FaultPlan::disabled().with_rate(FaultPoint::BackupDrain, SCALE);
            let _scope = crimes_faults::install(plan, 21);
            cp.drain_staged(&vm, ticket)
                .expect_err("every drain attempt faults")
        };
        assert!(matches!(err, CheckpointError::DrainFault { .. }));
        assert_eq!(cp.drains_in_flight(), 1, "slot kept for the resync");

        // The next session (faults cleared) resyncs instead of restarting
        // — cursors survive give-up across drain_staged calls.
        let ack = cp.drain_staged(&vm, ticket).expect("no faults armed");
        assert!(
            ack.resumed_from > 0,
            "the successful session resumed from the cursor, not page zero"
        );
        assert_eq!(ack.generation, 1);
        assert_eq!(cp.backup().acked_generation(), 1, "handshake watermark");
        assert_eq!(cp.drain_session_failures(), 0, "ack resets the streak");
        assert_eq!(cp.backup().epoch(), 1);
        assert_eq!(cp.backup().frames(), vm.memory().dump_frames().as_slice());
        assert!(cp.verify_backup().is_ok(), "resynced image passes checksums");
    }

    #[test]
    fn backup_outage_fails_sessions_without_touching_pages_then_failover_redrains() {
        use crimes_faults::{FaultPlan, FaultPoint, SCALE};

        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 64).expect("spawn");
        let mut cp = Checkpointer::new(&vm, staged_config(1));
        let clean = cp.backup().frames().to_vec();
        dirty_some(&mut vm, pid, 4);
        let staged = cp
            .run_epoch(&mut vm, &mut |_, _| AuditVerdict::Pass)
            .expect("no faults armed");
        let ticket = staged.pending.expect("ticket");

        let err = {
            let plan = FaultPlan::disabled().with_rate(FaultPoint::BackupOutage, SCALE);
            let _scope = crimes_faults::install(plan, 22);
            cp.drain_staged(&vm, ticket)
                .expect_err("connection refused on every attempt")
        };
        assert!(
            matches!(err, CheckpointError::BackupUnreachable { .. }),
            "unexpected error: {err}"
        );
        assert_eq!(
            cp.backup().frames(),
            clean.as_slice(),
            "an outage refuses the session before any page moves"
        );
        assert!(cp.drain_session_failures() >= 4, "first try + retries all failed");

        // Reroute to the standby and re-drain: cursors are zeroed, the
        // full slot ships, and the image converges.
        cp.failover_backup();
        assert_eq!(cp.drain_session_failures(), 0);
        let ack = cp.drain_staged(&vm, ticket).expect("standby reachable");
        assert_eq!(ack.resumed_from, 0, "failover re-drains from page zero");
        assert_eq!(cp.backup().epoch(), 1);
        assert_eq!(cp.backup().frames(), vm.memory().dump_frames().as_slice());
        assert!(cp.verify_backup().is_ok());
    }

    /// A two-worker pool for [`vm`]'s guest on a host of `host_cpus` CPUs;
    /// where that gives it a resident worker, every head start covers
    /// every page.
    fn lent_pool(host_cpus: usize) -> PauseWindowPool {
        let steps = HypercallModel::DEFAULT_STEPS;
        let mut pool = PauseWindowPool::on_host(2, 2048, steps, host_cpus);
        pool.pin_head_start(usize::MAX);
        pool
    }

    fn staged_epoch(
        cp: &mut Checkpointer,
        vm: &mut Vm,
        pool: &mut PauseWindowPool,
    ) -> Result<DrainTicket, CheckpointError> {
        cp.run_epoch_on(vm, &mut VerdictOnly(&mut pass_audit()), Some(pool))
            .map(|report| report.pending.expect("ticket"))
    }

    /// Run `scenario` with a worker that finishes every head start and
    /// takes cipher shares, and on a one-CPU host, which has none: the
    /// acks may differ in `head_start_pages` and `cipher_lent_bytes` only,
    /// and the backups not at all. The first run's coverage comes back,
    /// one `(covered, pages)` per ack.
    fn head_start_changes_nothing(
        buffers: usize,
        scenario: impl Fn(&mut Checkpointer, &mut Vm, u32, &mut PauseWindowPool) -> Vec<DrainStats>,
    ) -> Vec<(usize, usize)> {
        let [with, without] = [2, 1].map(|host_cpus| {
            let mut vm = vm();
            let pid = vm.spawn_process("app", 0, 64).expect("spawn");
            let mut cp = Checkpointer::new(&vm, staged_config(buffers));
            let acks = scenario(&mut cp, &mut vm, pid, &mut lent_pool(host_cpus));
            (acks, cp.backup().clone())
        });
        assert_eq!(with.1.frames(), without.1.frames());
        assert_eq!(with.1.disk(), without.1.disk());
        assert!(
            without.0.iter().all(|ack| (ack.head_start_pages, ack.cipher_lent_bytes) == (0, 0)),
            "no worker, no head start and nothing lent"
        );
        let rest = |acks: &[DrainStats]| -> Vec<DrainStats> {
            let timing = |ack| DrainStats { head_start_pages: 0, cipher_lent_bytes: 0, ..ack };
            acks.iter().copied().map(timing).collect()
        };
        assert_eq!(rest(&with.0), rest(&without.0));
        with.0.iter().map(|ack| (ack.head_start_pages, ack.pages)).collect()
    }

    #[test]
    fn head_start_kernels_die_with_the_backup_they_describe() {
        use crimes_faults::{FaultPlan, FaultPoint, SCALE};

        // Undisturbed: the whole drain was made before the guest resumed.
        let covered = head_start_changes_nothing(1, |cp, vm, pid, pool| {
            dirty_some(vm, pid, 1);
            let ticket = staged_epoch(cp, vm, pool).expect("no faults armed");
            let ack = cp.drain_staged(vm, ticket).expect("no faults armed");
            assert_committed_image(cp, vm, "head start");
            vec![ack]
        });
        assert_eq!(covered, [(26, 26)]);

        // An older slot in flight: the newer one is not lent (the older
        // drain will rewrite the frames its kernels would describe), and
        // the older one's kernels hold, nothing having written since.
        let covered = head_start_changes_nothing(2, |cp, vm, pid, pool| {
            dirty_some(vm, pid, 1);
            let older = staged_epoch(cp, vm, pool).expect("no faults armed");
            dirty_some(vm, pid, 2);
            let newer = staged_epoch(cp, vm, pool).expect("no faults armed");
            let acks = [older, newer].map(|t| cp.drain_staged(vm, t).expect("no faults armed"));
            assert_committed_image(cp, vm, "two in flight");
            acks.to_vec()
        });
        assert_eq!(covered, [(26, 26), (0, 24)]);

        // The same, with the second boundary rotting a bit of the backup
        // first: that is a write, and the older slot's kernels go too.
        let covered = head_start_changes_nothing(2, |cp, vm, pid, pool| {
            dirty_some(vm, pid, 1);
            let older = staged_epoch(cp, vm, pool).expect("no faults armed");
            dirty_some(vm, pid, 2);
            let newer = {
                let plan = FaultPlan::disabled().with_rate(FaultPoint::PageCorrupt, SCALE);
                let _scope = crimes_faults::install(plan, 5);
                staged_epoch(cp, vm, pool).expect("corruption is silent")
            };
            [older, newer]
                .map(|t| cp.drain_staged(vm, t).expect("no faults armed"))
                .to_vec()
        });
        assert_eq!(covered, [(0, 26), (0, 24)]);

        // A failover: the standby is another image.
        let covered = head_start_changes_nothing(1, |cp, vm, pid, pool| {
            dirty_some(vm, pid, 1);
            let ticket = staged_epoch(cp, vm, pool).expect("no faults armed");
            cp.failover_backup();
            let ack = cp.drain_staged(vm, ticket).expect("no faults armed");
            assert_committed_image(cp, vm, "failover");
            vec![ack]
        });
        assert_eq!(covered, [(0, 26)]);

        // A broken stream: the sessions up to the first that wrote used
        // their kernels, every later one compared inline against the
        // frames as they then stood. The fault draws are the one-CPU
        // run's (same cursor, same ack), the head start drawing none.
        let covered = head_start_changes_nothing(1, |cp, vm, pid, pool| {
            dirty_some(vm, pid, 3);
            let ticket = staged_epoch(cp, vm, pool).expect("no faults armed");
            {
                let plan = FaultPlan::disabled().with_rate(FaultPoint::BackupDrain, SCALE);
                let _scope = crimes_faults::install(plan, 21);
                cp.drain_staged(vm, ticket).expect_err("every drain attempt faults");
            }
            let ack = cp.drain_staged(vm, ticket).expect("no faults armed");
            assert!(0 < ack.resumed_from && ack.resumed_from < ack.pages);
            assert!(ack.head_start_pages <= ack.resumed_from);
            assert_committed_image(cp, vm, "resync");
            vec![ack]
        });
        assert!(covered[0].0 > 0, "the first session had its kernels");
    }

    #[test]
    fn a_lost_worker_fails_the_boundary_closed_and_the_next_one_runs_without() {
        use crate::resident::{pin, Placement};
        // The worker dies holding: the head start (having walked its
        // shard); a shard of a staging walk; a shard of an in-window walk.
        for (buffers, after) in [(1, 1), (1, 0), (0, 0)] {
            let what = format!("{buffers} staging buffers, dies holding job {after}");
            let mut vm = vm();
            let pid = vm.spawn_process("app", 0, 64).expect("spawn");
            let mut cp = Checkpointer::new(&vm, staged_config(buffers));
            let mut pool = lent_pool(2);
            pool.start_workers();
            pool.doom_worker(after);
            dirty_some(&mut vm, pid, 1);
            vm.write_disk(3, &[9; crimes_vm::SECTOR_SIZE]).expect("disk write");
            let before = cp.backup().clone();
            let dirty_pages = vm.memory().dirty().count();

            let err = {
                let _pin = pin(Placement::TakeNone);
                cp.run_epoch_on(&mut vm, &mut VerdictOnly(&mut pass_audit()), Some(&mut pool))
                    .expect_err("the worker dies")
            };
            assert_eq!(err, CheckpointError::WorkerLost, "{what}: typed, and not retried");
            assert!(vm.vcpus().all_paused(), "{what}: fail closed, VM stays suspended");
            assert_eq!(cp.drains_in_flight(), 0, "{what}: slot freed");
            assert_eq!(cp.backup().epoch(), before.epoch(), "{what}: nothing commits");
            assert_eq!(cp.backup().frames(), before.frames(), "{what}: the image is as it was");
            assert_eq!(cp.backup().disk(), before.disk(), "{what}");
            assert_eq!(vm.memory().dirty().count(), dirty_pages, "{what}: pages dirty again");
            assert_eq!(vm.disk().dirty().count(), 1, "{what}: sectors dirty again");
            assert_eq!(pool.resident_workers(), 0, "{what}: and it is not replaced");

            vm.vcpus_mut().resume_all();
            let report = cp
                .run_epoch_on(&mut vm, &mut VerdictOnly(&mut pass_audit()), Some(&mut pool))
                .expect("no worker to lose");
            assert_eq!(report.dirty_pages, dirty_pages, "{what}");
            if let Some(ticket) = report.pending {
                let ack = cp.drain_staged(&vm, ticket).expect("no faults armed");
                assert_eq!((ack.pages, ack.head_start_pages), (dirty_pages, 0), "{what}");
            }
            assert_committed_image(&cp, &vm, &what);
        }
    }

    /// A worker that dies holding its cipher share fails that drain
    /// session like a broken stream: the records the pass completed are
    /// durable behind the cursor, the retry runs on the lender alone, and
    /// the ack — the only receipt that releases anything — is an unbroken
    /// drain's but for the session that failed.
    #[test]
    fn a_worker_lost_with_its_cipher_share_costs_a_session_and_no_evidence() {
        use crate::resident::{pin, Placement};
        let run = |doomed: bool| {
            let mut vm = vm();
            let pid = vm.spawn_process("app", 0, 64).expect("spawn");
            let mut cp = Checkpointer::new(&vm, staged_config(1));
            let mut pool = lent_pool(2);
            pool.start_workers();
            if doomed {
                // Its walk shard and the head start, then the cipher share.
                pool.doom_worker(2);
            }
            dirty_some(&mut vm, pid, 1);
            let _pin = pin(Placement::TakeNone);
            let ticket = staged_epoch(&mut cp, &mut vm, &mut pool).expect("no faults armed");
            let ack = cp.drain_staged(&vm, ticket).expect("the retry needs no worker");
            assert_committed_image(&cp, &vm, &format!("doomed: {doomed}"));
            let checksum = cp.integrity().combined();
            (ack, cp.backup().clone(), checksum, pool.resident_workers())
        };
        let (clean, clean_backup, clean_checksum, workers) = run(false);
        assert_eq!((clean.attempts, workers), (1, 1));
        assert!(clean.cipher_lent_bytes > 0, "the worker took its share");
        let (ack, backup, checksum, workers) = run(true);
        assert_eq!(workers, 0, "the executor lends nothing any more");
        assert_eq!(ack.attempts, 2, "the session the worker died in, then one more");
        assert_eq!(ack.resumed_from, ack.pages, "the cursor stayed where the pass left it");
        assert_eq!(ack.cipher_lent_bytes, 0);
        // The journal's profile (generation, pages, zero, changed, dup),
        // the wire tallies, the image and its digests: all the clean run's.
        let evidence = |ack: DrainStats| DrainStats {
            bytes: 0,
            syscalls: 0,
            attempts: 0,
            resumed_from: 0,
            cipher_lent_bytes: 0,
            ..ack
        };
        assert_eq!(evidence(ack), evidence(clean));
        assert_eq!(backup.frames(), clean_backup.frames());
        assert_eq!(backup.disk(), clean_backup.disk());
        assert_eq!(checksum, clean_checksum);
    }

    #[test]
    fn a_pool_has_resident_workers_only_with_a_worker_and_a_cpu_to_spare() {
        let steps = HypercallModel::DEFAULT_STEPS;
        for (workers, host_cpus, buffers, threads) in
            [(1, 2, 1, 0), (2, 1, 1, 0), (2, 2, 0, 1), (2, 2, 1, 1), (4, 2, 1, 3)]
        {
            let what = format!("{workers} workers, {host_cpus} CPUs, {buffers} staging buffers");
            let mut vm = vm();
            let pid = vm.spawn_process("app", 0, 64).expect("spawn");
            let mut cp = Checkpointer::new(&vm, staged_config(buffers));
            let mut pool = PauseWindowPool::on_host(workers, 2048, steps, host_cpus);
            pool.pin_head_start(usize::MAX);
            assert_eq!(pool.resident_workers(), 0, "{what}: none before the first boundary");
            for salt in 0..2 {
                dirty_some(&mut vm, pid, salt);
                let report = cp
                    .run_epoch_on(&mut vm, &mut VerdictOnly(&mut pass_audit()), Some(&mut pool))
                    .expect("no faults armed");
                assert_eq!(pool.resident_workers(), threads, "{what}");
                if let Some(ticket) = report.pending {
                    let ack = cp.drain_staged(&vm, ticket).expect("no faults armed");
                    assert_eq!(ack.head_start_pages, if threads > 0 { ack.pages } else { 0 }, "{what}");
                }
                assert_committed_image(&cp, &vm, &what);
            }
        }
    }

    #[test]
    fn rejected_epochs_leave_the_backup_registers_at_the_last_commit() {
        for staged in [false, true] {
            let mut vm = vm();
            let pid = vm.spawn_process("app", 0, 64).expect("spawn");
            let mut cp = Checkpointer::new(
                &vm,
                CheckpointConfig {
                    staging_buffers: usize::from(staged),
                    ..CheckpointConfig::default()
                },
            );
            let step = |cp: &mut Checkpointer, vm: &mut Vm, rip: u64, verdict| {
                dirty_some(vm, pid, rip as u8);
                vm.vcpus_mut().get_mut(0).expect("vcpu 0").rip = rip;
                let report = cp
                    .run_epoch(vm, &mut |_, _| verdict)
                    .expect("no faults armed");
                if let Some(ticket) = report.pending {
                    cp.drain_staged(vm, ticket).expect("no faults armed");
                }
                vm.vcpus_mut().resume_all();
                cp.backup().vcpus().get(0).expect("vcpu 0").rip
            };
            assert_eq!(step(&mut cp, &mut vm, 0x1000, AuditVerdict::Pass), 0x1000);
            assert_eq!(
                step(&mut cp, &mut vm, 0x2000, AuditVerdict::Inconclusive),
                0x1000,
                "staged={staged}: an inconclusive epoch's registers reached the backup"
            );
            assert_eq!(
                step(&mut cp, &mut vm, 0x3000, AuditVerdict::Fail),
                0x1000,
                "staged={staged}: a failed epoch's registers reached the backup"
            );
            assert_eq!(step(&mut cp, &mut vm, 0x4000, AuditVerdict::Pass), 0x4000);
        }
    }

    /// `report.copy` of the two passing epochs of
    /// [`every_configuration_commits_the_guest_image`], as the five fused
    /// copy visitors this one replaced reported them for the same script
    /// (recorded at the parent commit). They feed worker telemetry and the
    /// bench's wire counters, so they must not move.
    fn pinned_copy(socket: bool, threshold: usize, workers: usize, staged: bool) -> [CopyStats; 2] {
        // 27 then 25 dirty pages. Raw, each is a page on the wire; encoded,
        // the 100-word page ships whole (8 + 4096) and the rest as
        // one-run records. Staging only snapshots, whatever the config.
        let bytes = if !staged && threshold > 0 {
            [4_680, 4_680]
        } else {
            [27 * 4096, 25 * 4096]
        };
        // One writev and one restore read per shard of < 64 pages.
        let syscalls = if staged || !socket { 0 } else { 2 * workers as u64 };
        [(27, bytes[0]), (25, bytes[1])].map(|(pages, bytes)| CopyStats {
            pages,
            bytes,
            syscalls,
        })
    }

    #[test]
    fn every_configuration_commits_the_guest_image() {
        use crate::resident::{pin, Placement};
        let script = [
            AuditVerdict::Pass,
            AuditVerdict::Inconclusive,
            AuditVerdict::Pass,
            AuditVerdict::Fail,
        ];
        for opt in OptLevel::ALL {
            for remote_backup in [false, true] {
                for delta_threshold in [0usize, 64] {
                    for pause_workers in [1usize, 2, 4, 7] {
                        for staged in [false, true] {
                            let config = CheckpointConfig {
                                opt,
                                remote_backup,
                                delta_threshold,
                                pause_workers,
                                staging_buffers: usize::from(staged),
                                // The modelled suspend/resume cost is not
                                // under test.
                                suspend_hypercalls: 0,
                                resume_hypercalls: 0,
                                ..CheckpointConfig::default()
                            };
                            let what = format!(
                                "{opt} remote={remote_backup} delta={delta_threshold} \
                                 workers={pause_workers} staged={staged}"
                            );
                            let socket = remote_backup || opt == OptLevel::NoOpt;
                            let pinned = pinned_copy(socket, delta_threshold, pause_workers, staged);
                            let acks = drive_script(config, &script, &pinned, None, &what);
                            // The same script under a head start stopped
                            // after no page, one, half of them and all,
                            // and wherever the walk's lent shards and the
                            // drain's cipher shares ran: every check above
                            // again, and the same acks.
                            let placed = [0, 1, 12, usize::MAX]
                                .map(|stop| (stop, Placement::Free))
                                .into_iter()
                                .chain(Placement::ALL.map(|placement| (12, placement)));
                            for (stop, placement) in placed {
                                let what = format!("{what} head start={stop} {placement:?}");
                                let _pin = pin(placement);
                                let head_started =
                                    drive_script(config, &script, &pinned, Some(stop), &what);
                                assert_eq!(head_started.len(), acks.len(), "{what}");
                                let lends = staged && pause_workers > 1;
                                for (got, want) in head_started.iter().zip(&acks) {
                                    let covered = if lends { stop.min(want.pages) } else { 0 };
                                    assert_eq!(got.head_start_pages, covered, "{what}");
                                    let lent = got.cipher_lent_bytes;
                                    match placement {
                                        _ if !lends => assert_eq!(lent, 0, "{what}"),
                                        Placement::TakeAll => assert_eq!(lent, 0, "{what}"),
                                        Placement::TakeNone | Placement::Stalled => {
                                            assert!(lent > 0, "{what}")
                                        }
                                        Placement::Free => {}
                                    }
                                    let rest = DrainStats {
                                        head_start_pages: 0,
                                        cipher_lent_bytes: 0,
                                        ..*got
                                    };
                                    assert_eq!(rest, *want, "{what}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// One epoch of guest activity for the matrix: 24 one-byte page
    /// writes (delta records), one page with 100 changed words (past the
    /// threshold: a full page), and one disk sector.
    fn matrix_activity(vm: &mut Vm, pid: u32, step: u8) {
        dirty_some(vm, pid, step.wrapping_mul(31));
        for word in 0..100 {
            vm.dirty_arena_page(pid, 40, word * 8, step + 1).expect("dirty");
        }
        vm.write_disk(u64::from(step), &[step + 1; crimes_vm::SECTOR_SIZE])
            .expect("disk write");
    }

    /// Run `script` under `config` and check every boundary; the drains'
    /// acks come back. `head_start: None` walks on the engine's own pool
    /// with no resident worker; `Some(pages)` lends a pool on a two-CPU host whose
    /// head starts cover exactly `pages` pages (where there is one: a
    /// staging sink and a worker to spare).
    fn drive_script(
        config: CheckpointConfig,
        script: &[AuditVerdict],
        pinned: &[CopyStats; 2],
        head_start: Option<usize>,
        what: &str,
    ) -> Vec<DrainStats> {
        // A small guest: every step re-digests the whole image.
        let mut b = Vm::builder();
        b.pages(512).seed(77);
        let mut vm = b.build();
        let pid = vm.spawn_process("app", 0, 64).expect("spawn");
        let mut cp = Checkpointer::new(&vm, config);
        let host_cpus = if head_start.is_some() { 2 } else { 1 };
        let steps = HypercallModel::DEFAULT_STEPS;
        let mut pool = PauseWindowPool::on_host(config.pause_workers, 512, steps, host_cpus);
        pool.pin_head_start(head_start.unwrap_or(0));
        let mut pinned = pinned.iter();
        let mut acks = Vec::new();
        for (step, &verdict) in script.iter().enumerate() {
            matrix_activity(&mut vm, pid, step as u8);
            let before = cp.backup().clone();
            let report = cp
                .run_epoch_on(&mut vm, &mut VerdictOnly(&mut |_, _| verdict), Some(&mut pool))
                .expect("no faults armed");
            assert_eq!(report.verdict, verdict, "{what}");
            assert_eq!(report.copy_attempts, 1, "{what}: the walk runs before the verdict");
            if verdict == AuditVerdict::Pass {
                assert_eq!(Some(&report.copy), pinned.next(), "{what}: step {step} copy stats");
                assert_eq!(report.pending.is_some(), config.staging_buffers > 0, "{what}");
                if let Some(ticket) = report.pending {
                    assert_eq!(cp.backup().frames(), before.frames(), "{what}: staged, not copied");
                    let ack = cp.drain_staged(&vm, ticket).expect("no faults armed");
                    assert_eq!(ack.pages, report.copy.pages, "{what}");
                    acks.push(ack);
                }
                assert_eq!(cp.backup().epoch(), before.epoch() + 1, "{what}");
                assert_committed_image(&cp, &vm, what);
            } else {
                assert_eq!(report.copy, CopyStats::default(), "{what}");
                assert!(report.pending.is_none(), "{what}");
                assert_eq!(cp.drains_in_flight(), 0, "{what}: slot freed");
                assert_eq!(cp.backup().epoch(), before.epoch(), "{what}: nothing commits");
                assert_eq!(cp.backup().frames(), before.frames(), "{what}: walk undone");
                assert_eq!(cp.backup().disk(), before.disk(), "{what}: sectors untouched");
                assert!(cp.verify_backup().is_ok(), "{what}: digest never advanced");
                assert_eq!(
                    vm.vcpus().all_paused(),
                    verdict == AuditVerdict::Fail,
                    "{what}: only a failed audit keeps the guest down"
                );
            }
        }
        acks
    }

    #[test]
    fn attach_adopts_a_surviving_backup_and_resumes_generations() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 64).expect("spawn");
        let mut cp = Checkpointer::new(&vm, staged_config(1));
        for e in 0..2u8 {
            dirty_some(&mut vm, pid, e);
            let staged = cp
                .run_epoch(&mut vm, &mut |_, _| AuditVerdict::Pass)
                .expect("no faults armed");
            cp.drain_staged(&vm, staged.pending.expect("ticket"))
                .expect("no faults armed");
        }
        let backup = cp.backup().clone();
        let acked = backup.acked_generation();
        assert_eq!(acked, 2);
        drop(cp);

        // The monitor process died; re-attach to the surviving image.
        let integrity = ImageDigest::of(backup.frames(), backup.disk());
        let mut cp = Checkpointer::attach(&vm, staged_config(1), backup, integrity, acked);
        assert!(cp.verify_backup().is_ok(), "recomputed digest matches");
        assert_eq!(cp.backup().epoch(), 2);
        dirty_some(&mut vm, pid, 9);
        let staged = cp
            .run_epoch(&mut vm, &mut |_, _| AuditVerdict::Pass)
            .expect("no faults armed");
        let ticket = staged.pending.expect("ticket");
        assert_eq!(
            ticket.generation(),
            acked + 1,
            "generation minting resumes after the last acked generation"
        );
        cp.drain_staged(&vm, ticket).expect("no faults armed");
        assert_eq!(cp.backup().frames(), vm.memory().dump_frames().as_slice());
        assert!(cp.verify_backup().is_ok());
    }

    #[test]
    fn drain_backoff_is_exponential_jittered_and_deterministic() {
        let base = 100;
        for attempt in 1..=4u32 {
            let b = drain_backoff_us(base, 7, attempt);
            let expo = base << (attempt - 1);
            assert!(
                (expo..expo + DRAIN_JITTER_SPAN_US).contains(&b),
                "attempt {attempt}: {b} outside [{expo}, {expo}+jitter)"
            );
            assert_eq!(b, drain_backoff_us(base, 7, attempt), "deterministic");
        }
        assert_ne!(
            drain_backoff_us(base, 7, 1) - base,
            drain_backoff_us(base, 8, 1) - base,
            "different generations draw different jitter (for these seeds)"
        );
    }

    /// Find a seed whose first outage draw refuses the drain session and
    /// whose second lets it through — a deterministic fail-exactly-once
    /// outage for deadline-boundary tests.
    fn fail_once_outage_seed(plan: crimes_faults::FaultPlan) -> u64 {
        use crimes_faults::FaultPoint;
        (0..1024u64)
            .find(|&s| {
                let _scope = crimes_faults::install(plan, s);
                crimes_faults::should_inject(FaultPoint::BackupOutage)
                    && !crimes_faults::should_inject(FaultPoint::BackupOutage)
            })
            .expect("a fail-once seed exists in the first 1024")
    }

    #[test]
    fn drain_ack_exactly_at_the_deadline_is_within_budget() {
        use crimes_faults::{FaultPlan, FaultPoint, SCALE};

        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 64).expect("spawn");
        // One failed session accumulates exactly the 1 ms budget: backoff
        // for (generation 1, attempt 1) is `base + jitter`, so pick the
        // base that lands the wait on 1000 us. The timeout check is
        // strictly-greater, so the retry proceeds and acks at the line.
        let jitter = drain_backoff_us(0, 1, 1);
        let mut cp = Checkpointer::new(
            &vm,
            CheckpointConfig {
                drain_timeout_ms: 1,
                retry_backoff_us: 1_000 - jitter,
                ..staged_config(1)
            },
        );
        dirty_some(&mut vm, pid, 3);
        let staged = cp
            .run_epoch(&mut vm, &mut |_, _| AuditVerdict::Pass)
            .expect("no faults armed");
        let ticket = staged.pending.expect("ticket");
        assert_eq!(ticket.generation(), 1, "jitter was derived for gen 1");
        let plan = FaultPlan::disabled().with_rate(FaultPoint::BackupOutage, SCALE / 2);
        let _scope = crimes_faults::install(plan, fail_once_outage_seed(plan));
        let ack = cp
            .drain_staged(&vm, ticket)
            .expect("a wait equal to the budget is within it");
        assert_eq!(ack.attempts, 2, "first session refused, second acked");
        assert_eq!(cp.backup().acked_generation(), 1);
        assert_eq!(cp.drain_session_failures(), 0, "ack resets the streak");
    }

    #[test]
    fn drain_wait_one_tick_past_the_deadline_times_out() {
        use crimes_faults::{FaultPlan, FaultPoint, SCALE};

        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 64).expect("spawn");
        // Same shape as the at-the-line test, one microsecond further:
        // the accumulated wait is 1001 us against a 1000 us budget.
        let jitter = drain_backoff_us(0, 1, 1);
        let mut cp = Checkpointer::new(
            &vm,
            CheckpointConfig {
                drain_timeout_ms: 1,
                retry_backoff_us: 1_001 - jitter,
                ..staged_config(1)
            },
        );
        dirty_some(&mut vm, pid, 3);
        let staged = cp
            .run_epoch(&mut vm, &mut |_, _| AuditVerdict::Pass)
            .expect("no faults armed");
        let ticket = staged.pending.expect("ticket");
        assert_eq!(ticket.generation(), 1, "jitter was derived for gen 1");
        let plan = FaultPlan::disabled().with_rate(FaultPoint::BackupOutage, SCALE / 2);
        let _scope = crimes_faults::install(plan, fail_once_outage_seed(plan));
        let err = cp
            .drain_staged(&vm, ticket)
            .expect_err("one tick over the budget fails");
        let CheckpointError::DrainTimeout {
            attempts,
            waited_us,
            budget_ms,
        } = err
        else {
            panic!("expected a drain timeout, got {err}");
        };
        assert_eq!(attempts, 1, "the first session's backoff crossed the line");
        assert_eq!(waited_us, 1_001);
        assert_eq!(budget_ms, 1);
        assert_eq!(cp.backup().acked_generation(), 0, "nothing became durable");
        assert_eq!(cp.drains_in_flight(), 1, "the slot survives for a resync");
        cp.release_staged(ticket);
    }
}
