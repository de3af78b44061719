//! The deferred backup pipeline's staging area: snapshot inside the pause
//! window, cipher and copy-out after it.
//!
//! The fused pause window (see `pool`) still pays for the Remus copy
//! pipeline inside the window when the backup is remote: every dirty page
//! is encrypted and pushed through the modelled socket while the guest is
//! stopped. Remus itself solved this with *deferred* copy-out — snapshot
//! the dirty pages into a local buffer during the pause, then stream them
//! to the backup while the guest already runs the next epoch. CRIMES can
//! adopt the same split **only** if the output-commit guarantee survives:
//! no buffered output may escape until its epoch's evidence is durable on
//! the backup. This module supplies the mechanics; the framework gates
//! `OutputBuffer::release` on the drain's acknowledgement.
//!
//! * In-window ([`StagingArea::claim`] + `pool::run_staging` +
//!   [`StagingArea::stage_sector`]): dirty pages are `memcpy`d into a
//!   preallocated staging slot — **no cipher, no socket, no undo log,
//!   and no digest on the thread the guest waits for** (the backup is
//!   untouched, so a rejected epoch just drops the slot). The slot is
//!   **densely packed**: page `i` of the MFN-sorted dirty list sits at
//!   byte `i * PAGE_SIZE`, wherever its frame lives in the guest image.
//! * Across the resume ([`StagingArea::head_start`], the **head start**):
//!   once the verdict has passed, the slot is complete and nothing writes
//!   it or the backup until the drain. While the engine sits in the
//!   modelled resume, one of the pool's resident workers — another CPU,
//!   which nobody is waiting for — runs the drain's read-only half
//!   (`delta::page_kernel`: facts, changed-word mask, both digests) over
//!   the slot in drain order, and stops when the resume ends. It borrows
//!   the slot's pages and the backup image and writes neither; the
//!   kernels it finished are stored with the backup's write stamp, and
//!   the drain uses them only if that stamp still reads the same (see
//!   [`HeadStart`]).
//! * Out-of-window ([`StagingArea::drain_slot`], driven by the engine's
//!   retry loop): the drain reads the slot front to back. Each staged
//!   page goes through **one** pass (`delta::page_kernel`, unless the
//!   head start already made it) that compares it with the backup's copy
//!   of its frame and digests it twice on the same loaded words; then
//!   the dedup probe, the record built from the
//!   kernel's changed-word mask, the modelled socket, and the apply into
//!   the backup frame. The cipher over exactly the bytes that ship runs
//!   once that pass is over, in shares lent to the walking pool's
//!   resident workers alongside the drain's own thread (`CipherShare`).
//!   Digesting here instead of in the window is sound because the slot
//!   is engine-private, single-writer, and immutable from seal to drain,
//!   and nothing commits (so no output releases) until the drain
//!   acknowledges — the digest still covers exactly the bytes the
//!   backup receives, before they become authoritative. Success is the
//!   backup's acknowledgement; the engine then folds digests, commits,
//!   and mints [`DrainStats`] so the framework can release the epoch's
//!   impounded outputs.
//!
//! Slots are preallocated at [`StagingArea::new`] time for the worst
//! case — every page of the guest dirty — so the in-window half never
//! allocates. Packing keeps that cheap: only the prefix an epoch
//! actually stages is ever written, so a slot's resident memory is the
//! largest dirty set seen, not the union of every frame ever dirtied,
//! and the drain's reads are sequential however scattered the guest's
//! writes were. Drain-side scratch may allocate freely — it runs after
//! resume.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crimes_faults::FaultPoint;
use crimes_vm::{Mfn, PAGE_SIZE, SECTOR_SIZE};

use crate::backup::BackupVm;
use crate::copy::{decrypt_in_place, encrypt_in_place, CopyStats, WRITEV_BATCH};
use crate::delta::{page_kernel, wire_len, PageEncoding, PageKernel};
use crate::error::CheckpointError;
use crate::integrity::Lanes;
use crate::mapping::{HypercallModel, MappedPage};
use crate::pool::MAX_WORKERS;
use crate::resident::{self, Resident, Task};

/// Content-aware drain knobs, plumbed from `CheckpointConfig`. Both
/// default off, which keeps the drain's wire model byte-identical to
/// the raw pipeline; neither changes what the backup ends up holding or
/// what the evidence journal records (see [`RecordFacts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainOpts {
    /// Delta-encode pages whose churn is at most this many changed
    /// 8-byte words; `0` disables encoding (full pages on the wire).
    pub delta_threshold: usize,
    /// Content-addressed dedup: ship `(digest, refs)` instead of bytes
    /// when the backup already holds an identical page.
    pub dedup: bool,
}

/// Wire cost of a dedup-hit record: record header + content digest +
/// refcount word. The bytes never ship; the receiver copies its local
/// exemplar.
const DEDUP_WIRE_LEN: usize = 24;

/// Content facts about one drained record, accumulated per completed
/// record across drain attempts (truncated to the cursor on retry, like
/// the digest list, so every record counts exactly once). The
/// `zero`/`dup`/`changed_words` facts are pure functions of the staged
/// page and the backup's prior generation — independent of every
/// encoding knob — which is what lets the framework journal them while
/// keeping journals bit-identical with encoding on or off. The
/// `dedup_hit`/`wire` fields are knob-dependent wire modelling and feed
/// telemetry only, never the journal.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RecordFacts {
    pub(crate) zero: bool,
    pub(crate) dup: bool,
    pub(crate) dedup_hit: bool,
    pub(crate) changed_words: u32,
    pub(crate) wire: usize,
}

/// Claim on one sealed staging slot: the engine's IOU that
/// [`drain_slot`](StagingArea::drain_slot) (via
/// `Checkpointer::drain_staged`) will make the staged epoch durable.
/// Generations are minted monotonically, so the framework can
/// acknowledge output-buffer generations in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainTicket {
    slot: usize,
    generation: u64,
}

impl DrainTicket {
    /// The staging slot this ticket drains.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// The monotonic staging generation this drain acknowledges.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// The drain's one pass over a staged page and the backup's copy of its
/// frame: facts, changed-word mask, content digest, page digest.
type DrainKernel = PageKernel<2>;

fn drain_kernel(old: &[u8], staged: &[u8], mfn: Mfn) -> Option<DrainKernel> {
    page_kernel(old, staged, [Lanes::content(), Lanes::seeded(mfn.0)])
}

/// The drain's read-only half, as a job the engine lends a resident
/// worker for the length of the resume: it borrows the backup image, a
/// sealed slot's pages and page list, and the slot's preallocated kernel
/// buffer, and fills `kernels[i]` for page `i`, front to back like the
/// drain, until it is told to stop.
///
/// A kernel is a statement about the backup frame *as it stood when the
/// head start ran*. [`StagingArea::head_start`] records the backup's write
/// stamp next to the buffer and builds one only while this is the one slot
/// in flight; a drain session consults the kernels only if the stamp still
/// reads the same, so anything that wrote a frame in between — an older
/// slot's drain, an injected corruption, this slot's own earlier session
/// — makes them unusable rather than wrong.
#[derive(Debug)]
pub(crate) struct HeadStart<'a> {
    backup: &'a [u8],
    staged: &'a [u8],
    pages: &'a [MappedPage],
    kernels: &'a mut Vec<DrainKernel>,
    /// Pages to cover at most; the pool's test pin lowers it.
    pub(crate) limit: usize,
    /// Raised by the lender when the resume is over; read before every
    /// page, so it waits for at most one kernel. `Relaxed`: the flag
    /// publishes no data (the kernels cross under the executor's lock),
    /// it only has to become visible soon.
    pub(crate) stop: &'a AtomicBool,
}

/// Pages the worker covers between two offers of its CPU. The kernel may
/// wake the worker on the CPU the engine is spinning out the resume on
/// (this guest does whenever its second vCPU is halted) and let it run
/// there; without the offer the whole head start would then sit inside
/// the pause (measured: resume 0.86 → 1.6 ms), with it at most this many
/// pages do. On a CPU of its own a yield returns at once.
const YIELD_EVERY: usize = 16;

impl Task for HeadStart<'_> {
    /// On a resident worker — or on the lender, which took the job back
    /// unstarted once the resume was over and finds `stop` raised.
    fn run(&mut self) {
        let room = self.kernels.capacity();
        let pages = self.pages.iter().zip(self.staged.chunks_exact(PAGE_SIZE));
        for (i, (&(_, mfn), page)) in pages.take(self.limit.min(room)).enumerate() {
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            if i % YIELD_EVERY == 0 {
                std::thread::yield_now();
            }
            let old = usize::try_from(mfn.0)
                .ok()
                .and_then(|m| m.checked_mul(PAGE_SIZE))
                .and_then(|base| self.backup.get(base..base.checked_add(PAGE_SIZE)?));
            let Some(kernel) = old.and_then(|old| drain_kernel(old, page, mfn)) else {
                // The drain refuses this page itself; leave it to it.
                break;
            };
            self.kernels.push(kernel);
        }
    }
}

/// One preallocated staging slot: a worst-case-sized frame buffer the
/// walk packs densely (entry `i`'s page at byte `i * PAGE_SIZE`), this
/// epoch's page list in that same MFN order, drain-computed digests, and
/// snapshotted dirty sectors.
#[derive(Debug)]
struct StagingSlot {
    frames: Vec<u8>,
    entries: Vec<MappedPage>,
    /// `kernels[i]` is entry `i`'s, from a head start made while the
    /// backup's write stamp read `kernels_stamp`.
    kernels: Vec<DrainKernel>,
    kernels_stamp: u64,
    /// Completed records whose kernel came from the head start.
    head_started: usize,
    /// Cipher bytes of this slot's records that a resident worker ran.
    cipher_lent: usize,
    digests: Vec<(usize, u64)>,
    facts: Vec<RecordFacts>,
    sector_ids: Vec<u64>,
    sector_bytes: Vec<u8>,
    occupied: bool,
    /// Progress cursor, in **completed records**: staged pages whose
    /// full record — frame write, digest, facts, refcounts — is durable
    /// on the backup. Records are variable length on the wire (zero
    /// marker / delta runs / full page / dedup reference), so the cursor
    /// never points inside one: a broken drain session leaves it at the
    /// last record boundary and the next session resumes there instead
    /// of restarting the slot.
    drained: usize,
}

impl StagingSlot {
    fn new(num_pages: usize, num_sectors: usize) -> Self {
        StagingSlot {
            frames: vec![0u8; num_pages * PAGE_SIZE],
            entries: Vec::with_capacity(num_pages),
            kernels: Vec::with_capacity(num_pages),
            kernels_stamp: 0,
            head_started: 0,
            cipher_lent: 0,
            digests: Vec::with_capacity(num_pages),
            facts: Vec::with_capacity(num_pages),
            sector_ids: Vec::with_capacity(num_sectors),
            sector_bytes: Vec::with_capacity(num_sectors * SECTOR_SIZE),
            occupied: false,
            drained: 0,
        }
    }
}

/// The preallocated staging slots of one deferred pipeline, plus the
/// monotonic generation counter drains acknowledge against.
#[derive(Debug)]
pub struct StagingArea {
    slots: Vec<StagingSlot>,
    generation: u64,
    /// The resident workers the drains lend cipher shares to: the pool's
    /// that walked the latest boundary, if it had any.
    exec: Option<Arc<Mutex<Resident>>>,
}

impl StagingArea {
    /// Preallocate `buffers` staging slots (minimum one) for a VM of
    /// `num_pages` pages and `num_sectors` disk sectors — the worst-case
    /// dirty set, so nothing inside the window ever grows.
    pub fn new(num_pages: usize, num_sectors: usize, buffers: usize) -> Self {
        StagingArea {
            slots: (0..buffers.max(1))
                .map(|_| StagingSlot::new(num_pages, num_sectors))
                .collect(),
            generation: 0,
            exec: None,
        }
    }

    /// Number of preallocated slots.
    pub fn buffers(&self) -> usize {
        self.slots.len()
    }

    /// Staged epochs currently awaiting their drain.
    pub fn in_flight(&self) -> usize {
        self.slots.iter().filter(|s| s.occupied).count()
    }

    /// Generations minted so far (the newest sealed ticket's generation).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Claim a free slot for this epoch's staged snapshot, or `None` when
    /// every buffer is still in flight (the caller fails closed). Clears
    /// only bookkeeping vectors, within their preallocated capacity.
    // lint: pause-window
    pub fn claim(&mut self) -> Option<usize> {
        let slot = self.slots.iter().position(|s| !s.occupied)?;
        if let Some(s) = self.slots.get_mut(slot) {
            s.entries.clear();
            s.kernels.clear();
            s.head_started = 0;
            s.cipher_lent = 0;
            s.digests.clear();
            s.facts.clear();
            s.sector_ids.clear();
            s.sector_bytes.clear();
            s.occupied = true;
            s.drained = 0;
        }
        Some(slot)
    }

    /// The slot's packed staging frames, for `pool::run_staging`; empty
    /// for an unknown slot (the walk then refuses the geometry).
    // lint: pause-window
    pub fn frames_mut(&mut self, slot: usize) -> &mut [u8] {
        self.slots
            .get_mut(slot)
            .map(|s| s.frames.as_mut_slice())
            .unwrap_or(&mut [])
    }

    /// Snapshot one dirty sector's bytes into the slot. Sector contents
    /// must be captured while the guest is paused — after resume the
    /// guest may overwrite them before the drain runs.
    // lint: pause-window
    pub fn stage_sector(&mut self, slot: usize, sector: u64, bytes: &[u8]) {
        let Some(s) = self.slots.get_mut(slot) else {
            return;
        };
        s.sector_ids.push(sector);
        s.sector_bytes.extend_from_slice(bytes);
    }

    /// The head start over `slot`, for the engine to lend while it spins
    /// out the resume: lists the slot's pages (`walked`: the walk's page
    /// list, in the MFN order it packed them in) and notes the backup's
    /// write stamp. Call it after a passing verdict, with the slot
    /// complete. `None` when an older slot is still in flight: its drain
    /// will rewrite the frames the kernels would describe.
    // lint: pause-window
    pub(crate) fn head_start<'a>(
        &'a mut self,
        slot: usize,
        backup: &'a BackupVm,
        walked: &[MappedPage],
        stop: &'a AtomicBool,
    ) -> Option<HeadStart<'a>> {
        if self.in_flight() != 1 {
            return None;
        }
        let s = self.slots.get_mut(slot)?;
        s.entries.clear();
        s.entries.extend_from_slice(walked);
        s.kernels.clear();
        s.kernels_stamp = backup.write_stamp();
        Some(HeadStart {
            backup: backup.frames(),
            staged: &s.frames,
            pages: &s.entries,
            kernels: &mut s.kernels,
            limit: usize::MAX,
            stop,
        })
    }

    /// Name the resident workers the drains that follow lend their
    /// cipher shares to: the walking pool's, or `None` for a pool without
    /// any. The engine replaces it at every boundary.
    pub(crate) fn lend_cipher_to(&mut self, exec: Option<Arc<Mutex<Resident>>>) {
        self.exec = exec;
    }

    /// Seal a staged slot after a passing verdict: record the page list
    /// (walk metadata — safe to copy after resume) in the MFN order the
    /// walk packed the pages in — unless a head start already listed it —
    /// mint the next generation, and return the drain ticket. Per-page
    /// digests are computed later, by the drain itself.
    pub fn seal(&mut self, slot: usize, mapped: &[MappedPage]) -> DrainTicket {
        self.generation += 1;
        if let Some(s) = self.slots.get_mut(slot) {
            if s.entries.is_empty() {
                s.entries.extend_from_slice(mapped);
                // The walk refused duplicate MFNs, so this is the one
                // order `run_staging` sorted into: entry `i` owns page `i`.
                s.entries.sort_unstable_by_key(|&(_, mfn)| mfn);
            }
            debug_assert_eq!(s.entries.len(), mapped.len(), "the head start listed this walk");
        }
        DrainTicket {
            slot,
            generation: self.generation,
        }
    }

    /// Free a slot without draining it — the verdict rejected the epoch,
    /// or the drain gave up and recovery owns the backup now.
    pub fn release(&mut self, slot: usize) {
        if let Some(s) = self.slots.get_mut(slot) {
            s.occupied = false;
            s.drained = 0;
        }
    }

    /// The slot's progress cursor: staged pages already durable on the
    /// backup from a previous (broken) drain session.
    pub(crate) fn drained(&self, slot: usize) -> usize {
        self.slots.get(slot).map(|s| s.drained).unwrap_or(0)
    }

    /// Zero every slot's progress cursor — a failover moved the drain to
    /// a standby backup, so partial progress against the old backup no
    /// longer counts and each in-flight slot re-drains from page zero
    /// (idempotent: the slot is immutable until released).
    pub(crate) fn reset_cursors(&mut self) {
        for s in &mut self.slots {
            s.drained = 0;
            s.digests.clear();
            s.facts.clear();
            // Comparisons against the old backup, like the cursor.
            s.kernels.clear();
            s.head_started = 0;
        }
    }

    /// Resume generation minting after a crash: recovery replays the
    /// journal up to the last acked generation and new tickets must
    /// continue the monotonic sequence, not restart at 1.
    pub(crate) fn resume_generation(&mut self, generation: u64) {
        self.generation = self.generation.max(generation);
    }

    /// The slot's per-page digests, for the post-ack integrity fold.
    pub(crate) fn digests(&self, slot: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.slots
            .get(slot)
            .into_iter()
            .flat_map(|s| s.digests.iter().copied())
    }

    /// The slot's per-record content facts, for the engine's post-ack
    /// profile fold (one entry per completed record, across attempts).
    pub(crate) fn facts(&self, slot: usize) -> impl Iterator<Item = RecordFacts> + '_ {
        self.slots
            .get(slot)
            .into_iter()
            .flat_map(|s| s.facts.iter().copied())
    }

    /// The slot's snapshotted dirty sectors as `(sector, bytes)`.
    pub(crate) fn sectors(&self, slot: usize) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        self.slots.get(slot).into_iter().flat_map(|s| {
            s.sector_ids
                .iter()
                .copied()
                .zip(s.sector_bytes.chunks_exact(SECTOR_SIZE))
        })
    }

    /// Completed records of the slot whose compare-and-digest pass was
    /// made by the head start, before the guest resumed.
    pub(crate) fn head_started(&self, slot: usize) -> usize {
        self.slots.get(slot).map(|s| s.head_started).unwrap_or(0)
    }

    /// Cipher bytes of the slot's records, over every drain session, that
    /// a resident worker ran instead of the drain's own thread.
    pub(crate) fn cipher_lent(&self, slot: usize) -> usize {
        self.slots.get(slot).map(|s| s.cipher_lent).unwrap_or(0)
    }

    /// Pages staged in the slot.
    pub(crate) fn entry_count(&self, slot: usize) -> usize {
        self.slots.get(slot).map(|s| s.entries.len()).unwrap_or(0)
    }

    /// One drain attempt: run each staged page through the page kernel
    /// (facts, changed-word mask and both digests in one pass; taken from
    /// the head start where it got that far and nothing has written the
    /// backup since), push the record it ships as through the modelled
    /// socket, and apply it to the backup frame — the same `writev`
    /// batching as the in-window socket copier, running *after* resume,
    /// overlapped with guest execution. Once that pass ends, the records
    /// it completed are ciphered, in contiguous shares balanced by bytes:
    /// one on this thread and one on each resident worker the last
    /// boundary named ([`lend_cipher_to`](Self::lend_cipher_to)) that is
    /// free at once. The digests are taken from the staged plaintext, so
    /// the pause window pays for none of it; see the module header for
    /// why that is sound. This is deliberately **not** pause-window code:
    /// no cipher or socket call is reachable from the window's roots on
    /// the deferred path, and the only digest call that is runs on a
    /// resident worker, which the guest does not wait for.
    ///
    /// # Errors
    ///
    /// Under fault injection ([`FaultPoint::BackupDrain`]) the stream
    /// breaks after a seeded number of further pages landed, surfacing as
    /// [`CheckpointError::DrainFault`] with the partial write left in the
    /// backup **and the progress cursor advanced past it**: the pages
    /// that landed were fully decrypted into their backup frames and
    /// digested, so the next session resumes after them instead of
    /// re-shipping the whole slot (the slot is immutable until released,
    /// which keeps the resume byte-identical to a restart).
    /// [`CheckpointError::WorkerLost`] when a worker died holding its
    /// cipher share: the session fails like a broken stream, with the
    /// cursor where the pass left it.
    pub(crate) fn drain_slot(
        &mut self,
        slot: usize,
        backup: &mut BackupVm,
        key: u64,
        syscalls: &mut HypercallModel,
        opts: DrainOpts,
    ) -> Result<CopyStats, CheckpointError> {
        self.drain_slot_inner(slot, backup, key, syscalls, opts, None)
    }

    /// [`drain_slot`](Self::drain_slot) with a test hook: `stop_after`
    /// breaks the stream cleanly after that many further records land,
    /// exactly where an injected fault would — the regression tests use
    /// it to break a drain at *every* record boundary and prove the
    /// resume never splits a record.
    fn drain_slot_inner(
        &mut self,
        slot: usize,
        backup: &mut BackupVm,
        key: u64,
        syscalls: &mut HypercallModel,
        opts: DrainOpts,
        stop_after: Option<usize>,
    ) -> Result<CopyStats, CheckpointError> {
        let StagingArea { slots, exec, .. } = self;
        let Some(s) = slots.get_mut(slot) else {
            return Err(CheckpointError::DrainFault { pages_drained: 0 });
        };
        // The dup facts below probe the content index, so it must be
        // fresh; with the deferred pipeline's coherent writes this
        // rebuilds at most once per drain session.
        backup.ensure_content_index();
        // Head-start kernels compare against the backup as it stood when
        // they were made: good for this session only if no frame has been
        // written since (this session's own writes land on other frames).
        if backup.write_stamp() != s.kernels_stamp {
            s.kernels.clear();
        }
        let first = s.drained;
        let remaining = s.entries.len().saturating_sub(first);
        // The out-of-window stream breaking mid-drain: pick how many
        // further records land first from the fault plan's seeded draws.
        let fail_after = crimes_faults::should_inject(FaultPoint::BackupDrain)
            .then(|| crimes_faults::draw_below(remaining.max(1) as u64) as usize);
        let mut stats = CopyStats::default();
        let mut batched = 0usize;
        // Digests and facts before the cursor cover records already
        // durable; anything past it belongs to a broken attempt and is
        // recomputed here. Keeping both lists exactly cursor-long is
        // what makes the cursor record-aligned: every side effect of a
        // record (frame write, refcounts, digest, facts) lands in the
        // same loop iteration, before the cursor may advance past it.
        s.digests.truncate(first);
        s.facts.truncate(first);
        // Entry `i`'s page is the slot's `i`-th: a sequential read. The
        // staging walk refuses a page list longer than the slot, so a
        // short slot here means the seal did not come from that walk.
        if s.frames.len() / PAGE_SIZE < s.entries.len() {
            return Err(CheckpointError::DrainFault { pages_drained: 0 });
        }
        let mut broken = false;
        let staged = s.entries.iter().zip(s.frames.chunks_exact(PAGE_SIZE));
        for (i, (&(_, mfn), src)) in staged.enumerate().skip(first) {
            if fail_after == Some(stats.pages) || stop_after == Some(stats.pages) {
                broken = true;
                break;
            }
            // Content facts against the backup's current generation —
            // computed unconditionally (they are knob-independent
            // evidence), then the knobs decide only what the wire ships.
            let head_start = s.kernels.get(i).copied();
            let Some(kernel) = head_start.or_else(|| drain_kernel(backup.frame(mfn), src, mfn))
            else {
                broken = true;
                break;
            };
            let scan = kernel.scan;
            let [digest, page_digest] = kernel.digests;
            let dup = backup.probe_duplicate(digest, src);
            let dedup_hit = opts.dedup && dup;
            let enc = if dedup_hit {
                PageEncoding::Full
            } else {
                kernel.encode(src, opts.delta_threshold)
            };
            let wire = if dedup_hit {
                // `(digest, refs)` reference — the bytes stay home.
                DEDUP_WIRE_LEN
            } else if opts.delta_threshold > 0 {
                wire_len(&enc)
            } else {
                PAGE_SIZE
            };
            // Record the digest of the plaintext the backup is about to
            // receive, and the wire length the cipher will pay for.
            s.digests.push((mfn.0 as usize, page_digest));
            s.facts.push(RecordFacts {
                zero: scan.zero,
                dup,
                dedup_hit,
                changed_words: scan.changed_words,
                wire,
            });
            // Receiver side: apply the record to the backup frame through
            // the content-index-coherent path (delta records rewrite only
            // the changed words; dedup hits and full records copy the
            // staged plaintext).
            backup.store_frame_encoded(mfn, &enc, src, digest);
            s.head_started += usize::from(head_start.is_some());
            stats.pages += 1;
            stats.bytes = stats.bytes.saturating_add(wire);
            batched += 1;
            if batched >= WRITEV_BATCH {
                batched = 0;
                syscalls.call();
                stats.syscalls += 1;
            }
        }
        if !broken {
            if batched > 0 {
                syscalls.call();
                stats.syscalls += 1;
            }
            // One read syscall per batch on the restore side.
            for _ in 0..remaining.div_ceil(WRITEV_BATCH) {
                syscalls.call();
                stats.syscalls += 1;
            }
        }
        s.drained = first + stats.pages;
        // Every record the pass completed pays its cipher, once; the
        // staged plaintext is what reached the backup, so nothing reads
        // the ciphertext and the split cannot change a byte of evidence.
        let records = CipherShare {
            facts: &s.facts[first..],
            entries: &s.entries[first..s.drained],
            staged: &s.frames[first * PAGE_SIZE..s.drained * PAGE_SIZE],
            key,
            on_worker: false,
        };
        s.cipher_lent += records.lend(exec.as_deref())?;
        if broken {
            return Err(CheckpointError::DrainFault {
                pages_drained: stats.pages,
            });
        }
        Ok(stats)
    }
}

/// Cipher bytes of one record: what crosses the wire, at most a page and
/// its 8-byte header.
fn cipher_len(fact: &RecordFacts) -> usize {
    fact.wire.min(PAGE_SIZE + 8)
}

/// Consecutive records of one drain session, as a cipher job: record `i`
/// is [`cipher_len`] bytes of staged page `i`, keyed by entry `i`'s PFN —
/// a stand-in for a per-record AEAD. Records are independent, so splitting them changes
/// which CPU pays, never how much. A share reads the slot, writes only a
/// buffer on the stack of the thread that runs it, and draws no fault.
#[derive(Debug, Default)]
struct CipherShare<'a> {
    facts: &'a [RecordFacts],
    entries: &'a [MappedPage],
    staged: &'a [u8],
    key: u64,
    /// A resident worker ran it.
    on_worker: bool,
}

impl<'a> CipherShare<'a> {
    fn bytes(&self) -> usize {
        self.facts.iter().map(cipher_len).sum()
    }

    /// The records at the front whose cipher bytes come nearest to
    /// `bytes`, split off as a share of their own.
    fn split_front(&mut self, bytes: usize) -> Self {
        let mut sum = 0;
        let at = self
            .facts
            .iter()
            .position(|fact| {
                let len = cipher_len(fact);
                sum += len;
                // Past `bytes` by more than it was short of it before.
                2 * sum > 2 * bytes + len
            })
            .unwrap_or(self.facts.len());
        // One fact, entry and staged page per record.
        let (facts, entries, staged);
        (facts, self.facts) = self.facts.split_at(at);
        (entries, self.entries) = self.entries.split_at(at);
        (staged, self.staged) = self.staged.split_at(at * PAGE_SIZE);
        CipherShare {
            facts,
            entries,
            staged,
            key: self.key,
            on_worker: false,
        }
    }

    /// Cipher every record: one share on each resident worker of
    /// `exec`, if nobody holds it, and the rest on this thread, balanced
    /// by bytes. The cipher bytes the workers ran.
    fn lend(mut self, exec: Option<&Mutex<Resident>>) -> Result<usize, CheckpointError> {
        let mut exec = exec.and_then(resident::try_lock);
        let workers = exec.as_ref().map_or(0, |exec| exec.threads()).min(MAX_WORKERS);
        let Some(exec) = exec.as_mut().filter(|_| workers > 0) else {
            self.run();
            return Ok(0);
        };
        // Share `k` ends at the record boundary nearest `k + 1` shares'
        // worth: one record larger than a share leaves a neighbour empty
        // instead of pushing every later cut along.
        let total = self.bytes();
        let mut lent: [CipherShare<'_>; MAX_WORKERS] = Default::default();
        let mut cut = 0;
        for (k, job) in lent.iter_mut().take(workers).enumerate() {
            *job = self.split_front((total * (k + 1) / (workers + 1)).saturating_sub(cut));
            cut += job.bytes();
        }
        let jobs = lent.iter_mut().filter(|job| !job.facts.is_empty());
        exec.scope(|| self.run(), jobs.map(|job| job as &mut dyn Task))?;
        Ok(lent.iter().filter(|job| job.on_worker).map(CipherShare::bytes).sum())
    }
}

impl Task for CipherShare<'_> {
    fn run(&mut self) {
        // One record at a time through one buffer, as over the wire: the
        // plaintext (padded past the page), encrypted, then decrypted.
        let mut buf = [0u8; PAGE_SIZE + 8];
        let pages = self.entries.iter().zip(self.staged.chunks_exact(PAGE_SIZE));
        for (fact, (&(pfn, _), page)) in self.facts.iter().zip(pages) {
            let (record, _) = buf.split_at_mut(cipher_len(fact));
            let (body, pad) = record.split_at_mut(record.len().min(PAGE_SIZE));
            body.copy_from_slice(&page[..body.len()]);
            pad.fill(0);
            encrypt_in_place(record, self.key, pfn.0);
            decrypt_in_place(record, self.key, pfn.0);
            // Nothing reads the result: keep the optimiser from deleting
            // the modelled cost.
            std::hint::black_box(&*record);
        }
    }

    fn run_on_worker(&mut self) {
        self.run();
        self.on_worker = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::copy::PageCopier;
    use crate::integrity::{chunk_digest, content_digest};
    use crate::pool::PauseWindowPool;
    use std::sync::atomic::AtomicBool;
    use crimes_vm::Vm;

    fn vm_with_writes() -> (Vm, Vec<MappedPage>) {
        let mut b = Vm::builder();
        b.pages(1024).seed(31);
        let mut vm = b.build();
        let pid = vm.spawn_process("app", 0, 32).expect("spawn");
        vm.memory_mut().take_dirty();
        for i in 0..20 {
            vm.dirty_arena_page(pid, i, i * 3, i as u8).expect("dirty");
        }
        let mapped: Vec<MappedPage> = vm
            .memory()
            .dirty()
            .iter()
            .map(|p| (p, vm.memory().pfn_to_mfn(p)))
            .collect();
        (vm, mapped)
    }

    /// Stage `mapped` into a free slot with the pool's staging walk (so
    /// the tests drain the layout production packs) and seal it.
    fn stage(area: &mut StagingArea, vm: &Vm, mapped: &[MappedPage]) -> DrainTicket {
        stage_with_head_start(area, vm, mapped, None)
    }

    /// [`stage`], with a head start over exactly `pages` pages against
    /// `backup` between the walk and the seal, as the engine orders them.
    fn stage_with_head_start(
        area: &mut StagingArea,
        vm: &Vm,
        mapped: &[MappedPage],
        head_start: Option<(&BackupVm, usize)>,
    ) -> DrainTicket {
        let slot = area.claim().expect("a free slot");
        let mut pool = PauseWindowPool::on_host(2, vm.memory().num_pages(), 2, 2);
        pool.run_staging(vm.memory(), area.frames_mut(slot), mapped, &[&PageCopier::memcpy()])
            .expect("no faults armed");
        if let Some((backup, pages)) = head_start {
            pool.start_workers();
            pool.pin_head_start(pages);
            let stop = AtomicBool::new(false);
            let mut job = area
                .head_start(slot, backup, pool.walked(), &stop)
                .expect("the one slot in flight");
            pool.head_start(|| {}, &mut job).expect("the worker answers");
        }
        area.seal(slot, mapped)
    }

    #[test]
    fn drain_reproduces_the_staged_pages_in_the_backup() {
        let (vm, mapped) = vm_with_writes();
        let mut backup = BackupVm::new(&vm);
        for &(_p, mfn) in &mapped {
            backup.frame_mut(mfn).fill(0xee);
        }
        let mut area = StagingArea::new(1024, backup.disk().len() / SECTOR_SIZE, 1);
        let ticket = stage(&mut area, &vm, &mapped);
        assert_eq!(ticket.generation(), 1);
        assert_eq!(area.in_flight(), 1);
        let mut syscalls = HypercallModel::new(2);
        let stats = area
            .drain_slot(ticket.slot(), &mut backup, 0xfeed, &mut syscalls, DrainOpts::default())
            .expect("no faults armed");
        assert_eq!(stats.pages, mapped.len());
        assert_eq!(stats.bytes, mapped.len() * PAGE_SIZE);
        assert!(stats.syscalls >= 2, "writev + restore read modelled");
        assert_eq!(backup.frames(), vm.memory().dump_frames().as_slice());
        // The drain digests what it ships: one digest per staged page,
        // each matching a recompute over the frame the backup now holds.
        let digests: Vec<(usize, u64)> = area.digests(ticket.slot()).collect();
        assert_eq!(digests.len(), mapped.len());
        for &(index, digest) in &digests {
            let mfn = crimes_vm::Mfn(index as u64);
            assert_eq!(digest, chunk_digest(index as u64, backup.frame(mfn)));
        }
        area.release(ticket.slot());
        assert_eq!(area.in_flight(), 0);
    }

    #[test]
    fn a_fresh_slot_is_touched_only_in_its_packed_prefix() {
        let (vm, mapped) = vm_with_writes();
        let mut area = StagingArea::new(1024, 8, 1);
        let ticket = stage(&mut area, &vm, &mapped);
        let staged = mapped.len() * PAGE_SIZE;
        let frames = area.frames_mut(ticket.slot());
        assert_eq!(frames.len(), 1024 * PAGE_SIZE, "capacity stays the worst case");
        assert!(
            frames[staged..].iter().all(|&b| b == 0),
            "bytes past the staged pages were written"
        );
        // The prefix holds the dirty pages in MFN order.
        let mut by_mfn = mapped.clone();
        by_mfn.sort_unstable_by_key(|&(_, mfn)| mfn);
        for (page, &(_, mfn)) in frames[..staged].chunks_exact(PAGE_SIZE).zip(&by_mfn) {
            assert!(page == vm.memory().frame(mfn), "slot page for {mfn:?}");
        }
    }

    #[test]
    fn sealing_more_pages_than_the_slot_holds_fails_the_drain_closed() {
        let (vm, mapped) = vm_with_writes();
        let mut backup = BackupVm::new(&vm);
        let before = backup.frames().to_vec();
        let mut area = StagingArea::new(mapped.len() - 1, 8, 1);
        let slot = area.claim().expect("a free slot");
        // No walk would stage this list (it refuses the geometry), so
        // the seal is the only place the mismatch can enter.
        let ticket = area.seal(slot, &mapped);
        let mut syscalls = HypercallModel::new(2);
        assert!(matches!(
            area.drain_slot(ticket.slot(), &mut backup, 1, &mut syscalls, DrainOpts::default()),
            Err(CheckpointError::DrainFault { pages_drained: 0 })
        ));
        assert_eq!(area.drained(ticket.slot()), 0);
        assert_eq!(backup.frames(), before.as_slice(), "nothing reached the backup");
    }

    #[test]
    fn generations_are_monotonic_and_slots_recycle() {
        let (vm, mapped) = vm_with_writes();
        let mut area = StagingArea::new(1024, 8, 2);
        let t1 = stage(&mut area, &vm, &mapped);
        let t2 = stage(&mut area, &vm, &mapped);
        assert_eq!((t1.generation(), t2.generation()), (1, 2));
        assert!(area.claim().is_none(), "both buffers in flight");
        area.release(t1.slot());
        let slot = area.claim().expect("released slot is reusable");
        assert_eq!(slot, t1.slot());
    }

    #[test]
    fn injected_drain_fault_leaves_a_partial_copy_and_a_cursor() {
        let (vm, mapped) = vm_with_writes();
        let mut backup = BackupVm::new(&vm);
        for &(_p, mfn) in &mapped {
            backup.frame_mut(mfn).fill(0xaa);
        }
        let before = backup.frames().to_vec();
        let mut area = StagingArea::new(1024, 8, 1);
        let ticket = stage(&mut area, &vm, &mapped);
        let plan = crimes_faults::FaultPlan::disabled()
            .with_rate(FaultPoint::BackupDrain, crimes_faults::SCALE);
        let _scope = crimes_faults::install(plan, 13);
        let mut syscalls = HypercallModel::new(2);
        let err = area
            .drain_slot(ticket.slot(), &mut backup, 0xfeed, &mut syscalls, DrainOpts::default())
            .expect_err("drain fault armed at full rate");
        let landed = match err {
            CheckpointError::DrainFault { pages_drained } => pages_drained,
            other => panic!("unexpected error {other:?}"),
        };
        assert!(landed < mapped.len());
        assert_eq!(
            area.drained(ticket.slot()),
            landed,
            "the cursor records exactly the pages that became durable"
        );
        drop(_scope);
        // The retry *resumes* from the cursor: only the remaining pages
        // ship, yet the backup and the digest list end up complete.
        let stats = area
            .drain_slot(ticket.slot(), &mut backup, 0xfeed, &mut syscalls, DrainOpts::default())
            .expect("no faults armed on the retry");
        assert_eq!(stats.pages, mapped.len() - landed, "resume skips drained pages");
        assert_eq!(area.drained(ticket.slot()), mapped.len());
        assert_eq!(backup.frames(), vm.memory().dump_frames().as_slice());
        assert_ne!(backup.frames(), before.as_slice());
        let digests: Vec<(usize, u64)> = area.digests(ticket.slot()).collect();
        assert_eq!(digests.len(), mapped.len(), "digest list covers the whole slot");
    }

    #[test]
    fn reset_cursors_forces_a_full_redrain() {
        let (vm, mapped) = vm_with_writes();
        let mut backup = BackupVm::new(&vm);
        let mut area = StagingArea::new(1024, 8, 1);
        let ticket = stage(&mut area, &vm, &mapped);
        let plan = crimes_faults::FaultPlan::disabled()
            .with_rate(FaultPoint::BackupDrain, crimes_faults::SCALE);
        let scope = crimes_faults::install(plan, 13);
        let mut syscalls = HypercallModel::new(2);
        let _ = area
            .drain_slot(ticket.slot(), &mut backup, 0xfeed, &mut syscalls, DrainOpts::default())
            .expect_err("drain fault armed at full rate");
        drop(scope);
        // Failover: partial progress against the old backup is void.
        area.reset_cursors();
        assert_eq!(area.drained(ticket.slot()), 0);
        let stats = area
            .drain_slot(ticket.slot(), &mut backup, 0xfeed, &mut syscalls, DrainOpts::default())
            .expect("no faults armed on the re-drain");
        assert_eq!(stats.pages, mapped.len(), "full slot re-drained");
        assert_eq!(backup.frames(), vm.memory().dump_frames().as_slice());
    }

    #[test]
    fn staged_sectors_round_trip() {
        let mut area = StagingArea::new(1024, 8, 1);
        let slot = area.claim().expect("free slot");
        let sector = vec![0x5au8; SECTOR_SIZE];
        area.stage_sector(slot, 3, &sector);
        let ticket = area.seal(slot, &[]);
        let got: Vec<(u64, Vec<u8>)> = area
            .sectors(ticket.slot())
            .map(|(id, b)| (id, b.to_vec()))
            .collect();
        assert_eq!(got, vec![(3, sector)]);
        assert_eq!(area.entry_count(ticket.slot()), 0);
    }

    /// All four record kinds with the knobs on: the backup ends
    /// bit-identical to a raw drain, the digest list is unchanged, the
    /// knob-independent facts match, and the wire shrinks.
    #[test]
    fn encoded_drain_matches_raw_on_the_backup_and_shrinks_the_wire() {
        let (vm, mapped) = vm_with_writes();
        let mut raw_backup = BackupVm::new(&vm);
        // Make the backup hold a previous generation of the dirty pages
        // so deltas have something to diff against.
        for &(_p, mfn) in &mapped {
            raw_backup.frame_mut(mfn)[0] ^= 0x1;
        }
        let mut enc_backup = raw_backup.clone();
        let opts = DrainOpts {
            delta_threshold: 64,
            dedup: true,
        };
        let mut syscalls = HypercallModel::new(2);

        let mut raw_area = StagingArea::new(1024, 8, 1);
        let raw_ticket = stage(&mut raw_area, &vm, &mapped);
        let raw = raw_area
            .drain_slot(raw_ticket.slot(), &mut raw_backup, 7, &mut syscalls, DrainOpts::default())
            .expect("no faults armed");

        let mut enc_area = StagingArea::new(1024, 8, 1);
        let enc_ticket = stage(&mut enc_area, &vm, &mapped);
        let enc = enc_area
            .drain_slot(enc_ticket.slot(), &mut enc_backup, 7, &mut syscalls, opts)
            .expect("no faults armed");

        assert_eq!(raw_backup.frames(), enc_backup.frames());
        assert_eq!(enc.pages, raw.pages);
        assert_eq!(enc.syscalls, raw.syscalls);
        assert!(
            enc.bytes < raw.bytes,
            "one-byte-per-page churn must delta well: {} vs {}",
            enc.bytes,
            raw.bytes
        );
        let raw_digests: Vec<_> = raw_area.digests(raw_ticket.slot()).collect();
        let enc_digests: Vec<_> = enc_area.digests(enc_ticket.slot()).collect();
        assert_eq!(raw_digests, enc_digests, "digests cover plaintext, not wire");
        // The knob-independent facts agree between the two drains.
        let raw_facts: Vec<_> = raw_area.facts(raw_ticket.slot()).collect();
        let enc_facts: Vec<_> = enc_area.facts(enc_ticket.slot()).collect();
        assert_eq!(raw_facts.len(), enc_facts.len());
        for (r, e) in raw_facts.iter().zip(enc_facts.iter()) {
            assert_eq!((r.zero, r.dup, r.changed_words), (e.zero, e.dup, e.changed_words));
            assert!(r.changed_words >= 1, "every staged page was dirtied");
        }
        assert!(
            enc_facts.iter().any(|f| (f.changed_words as usize) <= 64 && f.wire < PAGE_SIZE),
            "sparse pages must price below a raw page"
        );
    }

    /// Satellite regression: break the encoded drain at **every** record
    /// boundary and resume. The cursor must stay record-aligned — no
    /// resume may split a delta record, double-apply a refcount, or drop
    /// a digest/fact — so the backup, digest list, and facts end up
    /// identical to an unbroken drain no matter where the stream died,
    /// whichever thread ran which cipher share.
    #[test]
    fn resume_at_every_record_boundary_is_exact() {
        use crate::resident::{pin, Placement};
        let (vm, mapped) = vm_with_writes();
        let opts = DrainOpts {
            delta_threshold: 64,
            dedup: true,
        };
        let mut syscalls = HypercallModel::new(2);

        // Reference: one unbroken encoded drain.
        let mut clean_backup = BackupVm::new(&vm);
        for &(_p, mfn) in &mapped {
            clean_backup.frame_mut(mfn)[0] ^= 0x1;
        }
        let broken_seed = clean_backup.clone();
        let mut clean_area = StagingArea::new(1024, 8, 1);
        let clean_ticket = stage(&mut clean_area, &vm, &mapped);
        clean_area
            .drain_slot(clean_ticket.slot(), &mut clean_backup, 7, &mut syscalls, opts)
            .expect("no faults armed");
        let clean_digests: Vec<_> = clean_area.digests(clean_ticket.slot()).collect();
        let clean_facts: Vec<_> = clean_area.facts(clean_ticket.slot()).collect();

        // Every break point, under every head start (none, stopped after
        // 0, 1 and half the pages, and run to the end), with the cipher
        // on the drain's thread alone and lent under every pin.
        let n = mapped.len();
        let head_starts = [None, Some(0), Some(1), Some(n / 2), Some(usize::MAX)];
        let [free, take_all, take_none, stalled] = Placement::ALL.map(Some);
        let lenders = [None, free, take_all, take_none, stalled];
        let mut workers = PauseWindowPool::on_host(2, 1024, 2, 2);
        workers.start_workers();
        let cases =
            (0..=n).flat_map(|b| head_starts.iter().flat_map(move |&h| lenders.map(|l| (b, h, l))));
        for (boundary, head_start, lender) in cases {
            let _pin = pin(lender.unwrap_or(Placement::Free));
            let mut backup = broken_seed.clone();
            let mut area = StagingArea::new(1024, 8, 1);
            let ticket =
                stage_with_head_start(&mut area, &vm, &mapped, head_start.map(|h| (&backup, h)));
            area.lend_cipher_to(lender.map(|_| workers.executor()));
            if boundary < mapped.len() {
                let err = area
                    .drain_slot_inner(
                        ticket.slot(),
                        &mut backup,
                        7,
                        &mut syscalls,
                        opts,
                        Some(boundary),
                    )
                    .expect_err("stream broken at the boundary");
                assert!(matches!(
                    err,
                    CheckpointError::DrainFault { pages_drained } if pages_drained == boundary
                ));
                assert_eq!(area.drained(ticket.slot()), boundary, "cursor at the boundary");
            }
            area.drain_slot(ticket.slot(), &mut backup, 7, &mut syscalls, opts)
                .expect("resume completes");
            let lent = area.cipher_lent(ticket.slot());
            match lender {
                None | Some(Placement::TakeAll) => assert_eq!(lent, 0, "{lender:?}"),
                Some(Placement::TakeNone | Placement::Stalled) => assert!(lent > 0, "{lender:?}"),
                Some(Placement::Free) => {}
            }
            // The first session consumed the kernels the head start had
            // for the records it completed; its writes then voided the
            // rest, so the resumed session recomputed. A session that
            // broke before writing anything voided nothing.
            let covered = head_start.map_or(0, |h| h.min(n));
            let first_session = if boundary == 0 { n } else { boundary };
            assert_eq!(
                area.head_started(ticket.slot()),
                covered.min(first_session),
                "boundary {boundary}, head start {head_start:?}"
            );
            assert_eq!(
                backup.frames(),
                clean_backup.frames(),
                "resume after boundary {boundary} diverged from the unbroken drain"
            );
            let digests: Vec<_> = area.digests(ticket.slot()).collect();
            assert_eq!(digests, clean_digests, "digests after boundary {boundary}");
            let facts: Vec<_> = area.facts(ticket.slot()).collect();
            assert_eq!(facts.len(), clean_facts.len(), "facts after boundary {boundary}");
            for (got, want) in facts.iter().zip(clean_facts.iter()) {
                assert_eq!(
                    (got.zero, got.dup, got.changed_words, got.dedup_hit, got.wire),
                    (want.zero, want.dup, want.changed_words, want.dedup_hit, want.wire),
                    "facts after boundary {boundary}"
                );
            }
            // Refcount coherence survived the break: rebuilding the
            // index from scratch yields the same refs for every frame's
            // content as the incrementally-maintained one.
            let incremental: Vec<u32> = (0..mapped.len())
                .map(|i| backup.content_refs(content_digest(backup.frame(mapped[i].1))))
                .collect();
            let mut rebuilt = backup.clone();
            rebuilt.frame_mut(crimes_vm::Mfn(0)); // stale the index
            rebuilt.ensure_content_index();
            let fresh: Vec<u32> = (0..mapped.len())
                .map(|i| rebuilt.content_refs(content_digest(rebuilt.frame(mapped[i].1))))
                .collect();
            assert_eq!(incremental, fresh, "refcounts after boundary {boundary}");
        }
    }

    /// Kernels are statements about the backup at the time of the head
    /// start: a frame write in between — even to a frame the slot does not
    /// cover, by a path that goes round the drain — voids them all. (What
    /// the engine can do to a backup between head start and drain is in its
    /// `head_start_kernels_die_with_the_backup_they_describe`.)
    #[test]
    fn a_raw_backup_write_voids_the_head_start() {
        let (vm, mapped) = vm_with_writes();
        let opts = DrainOpts {
            delta_threshold: 64,
            dedup: true,
        };
        let mut seed = BackupVm::new(&vm);
        for &(_p, mfn) in &mapped {
            seed.frame_mut(mfn)[0] ^= 0x1;
        }
        let drained = |disturb: &dyn Fn(&mut BackupVm)| {
            let mut backup = seed.clone();
            let mut area = StagingArea::new(1024, 8, 1);
            let ticket =
                stage_with_head_start(&mut area, &vm, &mapped, Some((&backup, usize::MAX)));
            disturb(&mut backup);
            area.drain_slot(ticket.slot(), &mut backup, 7, &mut HypercallModel::new(2), opts)
                .expect("no faults armed");
            (area.head_started(ticket.slot()), backup.frames().to_vec())
        };
        let (covered, want) = drained(&|_| {});
        assert_eq!(covered, mapped.len(), "undisturbed, every kernel is used");
        let (covered, got) = drained(&|backup| {
            let spare = backup.frame(Mfn(0)).to_vec();
            backup.store_frame(Mfn(0), &spare);
        });
        assert_eq!(covered, 0);
        assert_eq!(got, want);
    }

    #[test]
    fn out_of_range_slot_indices_are_harmless() {
        let mut area = StagingArea::new(4, 2, 1);
        assert!(area.frames_mut(9).is_empty());
        area.stage_sector(9, 0, &[0u8; SECTOR_SIZE]);
        area.release(9);
        let mut backup = {
            let mut b = Vm::builder();
            b.pages(1024).seed(1);
            BackupVm::new(&b.build())
        };
        let mut syscalls = HypercallModel::new(2);
        assert!(matches!(
            area.drain_slot(9, &mut backup, 1, &mut syscalls, DrainOpts::default()),
            Err(CheckpointError::DrainFault { pages_drained: 0 })
        ));
    }
}
