//! The backup VM image.
//!
//! Remus keeps a full copy of the protected VM on a backup host; CRIMES
//! repurposes it as "the most recent clean snapshot" kept on the *local*
//! host (§4). [`BackupVm`] is that copy: a frame-for-frame image of guest
//! memory (machine-frame order) plus saved vCPU state, updated
//! incrementally with each epoch's dirty pages.

use std::collections::BTreeMap;

use crimes_vm::{GuestMemory, Mfn, VcpuSet, VirtualDisk, Vm, PAGE_SIZE, SECTOR_SIZE};

use crate::delta::{apply_page, PageEncoding};
use crate::integrity::content_digest;

/// One digest's standing in the content-addressed index: the frame the
/// drain may compare wire-hit candidates against, and how many frames
/// currently claim these bytes.
#[derive(Debug, Clone, Copy)]
struct ContentEntry {
    exemplar: u32,
    refs: u32,
}

/// The local backup image of one VM.
#[derive(Debug, Clone)]
pub struct BackupVm {
    frames: Vec<u8>,
    /// Bumped by every path that can write a frame. A comparison of a
    /// staged page against "the backup's copy of its frame" made ahead of
    /// the drain records the stamp it was made under, and is only used
    /// while the stamp still reads the same.
    write_stamp: u64,
    disk: Vec<u8>,
    num_pages: usize,
    vcpus: VcpuSet,
    /// Number of checkpoints applied since creation.
    epoch: u64,
    /// Highest drain generation this backup has acknowledged (deferred
    /// pipeline). The drain-session handshake reads this to decide
    /// whether a reconnect may resync from a progress cursor or must
    /// restart the slot; 0 means "nothing acked yet".
    acked_generation: u64,
    /// Content-addressed index: digest → (exemplar frame, refcount).
    /// Keys are [`content_digest`] values (fixed domain tag, so equal
    /// bytes hash equal wherever they live). Maintained coherently by
    /// [`store_frame_encoded`](Self::store_frame_encoded); any other
    /// frame mutation sets [`content_stale`](Self::content_stale) and the
    /// next [`ensure_content_index`](Self::ensure_content_index) rebuilds
    /// from scratch. A `BTreeMap` keeps every walk deterministic.
    content: BTreeMap<u64, ContentEntry>,
    /// Per-frame content digests backing the refcounts (the reverse view
    /// of `content`, frame-indexed).
    frame_digests: Vec<u64>,
    /// The raw-write paths (`store_frame`, `frame_mut`, shard splits,
    /// image overwrite) bypass the index; this flag makes the next
    /// content probe rebuild instead of trusting stale refcounts.
    content_stale: bool,
}

impl BackupVm {
    /// Create the backup by fully synchronising with `vm` (the initial
    /// full-memory copy Remus performs before entering the epoch loop).
    pub fn new(vm: &Vm) -> Self {
        BackupVm {
            frames: vm.memory().dump_frames(),
            write_stamp: 0,
            disk: vm.disk().dump(),
            num_pages: vm.memory().num_pages(),
            vcpus: vm.vcpus().clone(),
            epoch: 0,
            acked_generation: 0,
            content: BTreeMap::new(),
            frame_digests: Vec::new(),
            content_stale: true,
        }
    }

    /// The one way to the image's bytes for writing: bumps the write
    /// stamp.
    fn image_mut(&mut self) -> &mut [u8] {
        self.write_stamp = self.write_stamp.wrapping_add(1);
        &mut self.frames
    }

    /// The image's write stamp: equal readings mean no frame was written
    /// in between.
    pub(crate) fn write_stamp(&self) -> u64 {
        self.write_stamp
    }

    /// Does the content index describe the frames as they are now?
    fn content_coherent(&self) -> bool {
        !self.content_stale && self.frame_digests.len() == self.num_pages
    }

    /// (Re)build the content-addressed index from the frame image. Cheap
    /// when already fresh; `O(pages)` digesting after any raw-write path
    /// touched frames. The deferred drain calls this once per session
    /// start, and because its per-record writes go through
    /// [`store_frame_encoded`](Self::store_frame_encoded) the index then
    /// stays fresh across epochs.
    pub fn ensure_content_index(&mut self) {
        if self.content_coherent() {
            return;
        }
        self.frame_digests.clear();
        self.content.clear();
        self.frame_digests.reserve(self.num_pages);
        for (i, page) in self.frames.chunks_exact(PAGE_SIZE).enumerate() {
            let digest = content_digest(page);
            self.frame_digests.push(digest);
            let entry = self.content.entry(digest).or_insert(ContentEntry {
                exemplar: i as u32,
                refs: 0,
            });
            entry.refs = entry.refs.saturating_add(1);
        }
        self.content_stale = false;
    }

    /// Does the backup already hold a page with exactly these bytes?
    /// `digest` must be [`content_digest`]`(bytes)`. The digest lookup is
    /// guarded by a byte compare against the exemplar frame, so an FNV
    /// collision degrades to a miss (bytes ship), never to corruption.
    /// Returns `false` when the index is stale — callers decide when the
    /// rebuild is worth paying for via
    /// [`ensure_content_index`](Self::ensure_content_index).
    pub fn probe_duplicate(&self, digest: u64, bytes: &[u8]) -> bool {
        if self.content_stale {
            return false;
        }
        self.content.get(&digest).is_some_and(|entry| {
            let base = entry.exemplar as usize * PAGE_SIZE;
            self.frames
                .get(base..base + PAGE_SIZE)
                .is_some_and(|exemplar| exemplar == bytes)
        })
    }

    /// How many frames currently claim `digest`'s bytes (0 when absent or
    /// the index is stale) — the `refs` half of the drain's
    /// `(digest, refs)` wire record.
    pub fn content_refs(&self, digest: u64) -> u32 {
        if self.content_stale {
            return 0;
        }
        self.content.get(&digest).map_or(0, |entry| entry.refs)
    }

    /// Apply one drained record to frame `mfn` while keeping the content
    /// index coherent: the old digest's refcount drops (evicting the
    /// table entry at zero, repointing the exemplar if this frame was
    /// it), the page is reconstructed via [`apply_page`] (`full` is the
    /// staged plaintext; delta records rewrite only the changed words),
    /// and the new digest's refcount rises with this frame as a
    /// candidate exemplar. `digest` must be [`content_digest`]`(full)`.
    /// Unlike the raw-write paths this does **not** mark the index
    /// stale — it is the drain's coherent write.
    pub(crate) fn store_frame_encoded(
        &mut self,
        mfn: Mfn,
        enc: &PageEncoding,
        full: &[u8],
        digest: u64,
    ) {
        let idx = mfn.0 as usize;
        let base = self.offset(mfn);
        if !self.content_coherent() {
            // No coherent index to maintain; plain apply.
            apply_page(&mut self.image_mut()[base..base + PAGE_SIZE], enc, full);
            return;
        }
        let old_digest = self.frame_digests[idx];
        if old_digest != digest {
            let evict = if let Some(entry) = self.content.get_mut(&old_digest) {
                entry.refs = entry.refs.saturating_sub(1);
                if entry.refs == 0 {
                    true
                } else {
                    if entry.exemplar as usize == idx {
                        // This frame was the compare target for its old
                        // bytes and other frames still claim them:
                        // repoint to the first surviving claimant
                        // (ascending scan keeps the choice
                        // deterministic).
                        if let Some(next) = self
                            .frame_digests
                            .iter()
                            .enumerate()
                            .position(|(j, &d)| j != idx && d == old_digest)
                        {
                            entry.exemplar = next as u32;
                        }
                    }
                    false
                }
            } else {
                false
            };
            if evict {
                self.content.remove(&old_digest);
            }
        }
        apply_page(&mut self.image_mut()[base..base + PAGE_SIZE], enc, full);
        if old_digest != digest {
            self.frame_digests[idx] = digest;
            let entry = self.content.entry(digest).or_insert(ContentEntry {
                exemplar: idx as u32,
                refs: 0,
            });
            entry.refs = entry.refs.saturating_add(1);
        }
    }

    /// Highest drain generation this backup has acknowledged (0 before
    /// any deferred drain completes).
    pub fn acked_generation(&self) -> u64 {
        self.acked_generation
    }

    /// Record the backup's acknowledgement of drain `generation` — the
    /// second half of the drain-session handshake. Monotonic: an older
    /// generation never regresses the ack watermark.
    pub fn acknowledge_generation(&mut self, generation: u64) {
        self.acked_generation = self.acked_generation.max(generation);
    }

    /// Number of guest pages covered.
    pub fn num_pages(&self) -> usize {
        self.num_pages
    }

    /// Total image size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.frames.len()
    }

    /// Checkpoints applied so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// One frame of the backup image.
    ///
    /// # Panics
    ///
    /// Panics if `mfn` is out of range.
    pub fn frame(&self, mfn: Mfn) -> &[u8] {
        let base = self.offset(mfn);
        &self.frames[base..base + PAGE_SIZE]
    }

    /// Overwrite one frame (the memcpy copy path writes here directly).
    ///
    /// # Panics
    ///
    /// Panics if `mfn` is out of range or `data` is not one page.
    pub fn store_frame(&mut self, mfn: Mfn, data: &[u8]) {
        assert_eq!(data.len(), PAGE_SIZE, "backup frames are page sized");
        let base = self.offset(mfn);
        self.content_stale = true;
        self.image_mut()[base..base + PAGE_SIZE].copy_from_slice(data);
    }

    /// Mutable view of one frame, for zero-copy decrypt-into-place on the
    /// socket restore path.
    ///
    /// # Panics
    ///
    /// Panics if `mfn` is out of range.
    pub fn frame_mut(&mut self, mfn: Mfn) -> &mut [u8] {
        let base = self.offset(mfn);
        self.content_stale = true;
        &mut self.image_mut()[base..base + PAGE_SIZE]
    }

    /// Mutable view of the whole frame image, in machine-frame order. The
    /// parallel pause window peels disjoint per-shard regions off this
    /// slice with `split_at_mut` so workers write their shards without
    /// aliasing (see `pool`).
    pub(crate) fn frames_mut(&mut self) -> &mut [u8] {
        self.content_stale = true;
        self.image_mut()
    }

    /// Record the vCPU state captured at suspend time.
    pub fn save_vcpus(&mut self, vcpus: &VcpuSet) {
        self.vcpus.clone_from(vcpus);
    }

    /// The saved vCPU state.
    pub fn vcpus(&self) -> &VcpuSet {
        &self.vcpus
    }

    /// Mark one checkpoint as committed.
    pub fn commit_epoch(&mut self) {
        self.epoch += 1;
    }

    /// The whole image (machine-frame order), for rollback and forensic
    /// dumps.
    pub fn frames(&self) -> &[u8] {
        &self.frames
    }

    /// Roll the primary VM's memory back to this image. Host bookkeeping
    /// must be restored separately via `Vm::restore_with_frames` /
    /// `MetaSnapshot` — this method only handles raw frames.
    ///
    /// # Panics
    ///
    /// Panics if the backup does not match the VM's memory size.
    pub fn restore_into(&self, mem: &mut GuestMemory) {
        mem.restore_frames(&self.frames);
    }

    /// The backup disk image (§3.1's disk-snapshot extension).
    pub fn disk(&self) -> &[u8] {
        &self.disk
    }

    /// One sector of the backup disk image.
    ///
    /// # Panics
    ///
    /// Panics if `sector` is out of range.
    pub fn sector(&self, sector: u64) -> &[u8] {
        let base = sector as usize * SECTOR_SIZE;
        assert!(
            base + SECTOR_SIZE <= self.disk.len(),
            "sector {sector} out of range for backup disk"
        );
        &self.disk[base..base + SECTOR_SIZE]
    }

    /// Apply one committed sector to the backup disk.
    ///
    /// # Panics
    ///
    /// Panics if the sector is out of range or `data` is not one sector.
    pub fn apply_sector(&mut self, sector: u64, data: &[u8]) {
        assert_eq!(data.len(), SECTOR_SIZE, "whole sectors only");
        let base = sector as usize * SECTOR_SIZE;
        assert!(
            base + SECTOR_SIZE <= self.disk.len(),
            "sector {sector} out of range for backup disk"
        );
        self.disk[base..base + SECTOR_SIZE].copy_from_slice(data);
    }

    /// Roll the primary's disk back to the backup image.
    ///
    /// # Panics
    ///
    /// Panics if the backup does not match the disk size.
    pub fn restore_disk_into(&self, disk: &mut VirtualDisk) {
        disk.restore(&self.disk);
    }

    /// Replace the whole image with an older, verified one — the repair
    /// step when the live backup fails checksum verification and rollback
    /// falls back to a retained history generation.
    ///
    /// # Panics
    ///
    /// Panics if `frames` or `disk` do not match the image sizes.
    pub fn overwrite_image(&mut self, frames: &[u8], disk: &[u8]) {
        assert_eq!(frames.len(), self.frames.len(), "frame image size mismatch");
        assert_eq!(disk.len(), self.disk.len(), "disk image size mismatch");
        self.content_stale = true;
        self.image_mut().copy_from_slice(frames);
        self.disk.copy_from_slice(disk);
    }

    fn offset(&self, mfn: Mfn) -> usize {
        let base = mfn.0 as usize * PAGE_SIZE;
        assert!(
            base + PAGE_SIZE <= self.frames.len(),
            "{mfn} out of range for backup of {} pages",
            self.num_pages
        );
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crimes_vm::Vm;

    fn vm() -> Vm {
        let mut b = Vm::builder();
        b.pages(2048).seed(5);
        b.build()
    }

    #[test]
    fn new_backup_matches_primary() {
        let vm = vm();
        let backup = BackupVm::new(&vm);
        assert_eq!(backup.frames(), vm.memory().dump_frames().as_slice());
        assert_eq!(backup.num_pages(), 2048);
        assert_eq!(backup.epoch(), 0);
    }

    #[test]
    fn store_frame_updates_image() {
        let vm = vm();
        let mut backup = BackupVm::new(&vm);
        let page = vec![0xabu8; PAGE_SIZE];
        backup.store_frame(Mfn(3), &page);
        assert_eq!(backup.frame(Mfn(3)), page.as_slice());
    }

    #[test]
    fn restore_into_rolls_memory_back() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 4).unwrap();
        let obj = vm.malloc(pid, 16).unwrap();
        vm.write_user(pid, obj, b"clean", 0).unwrap();
        let backup = BackupVm::new(&vm);

        vm.write_user(pid, obj, b"dirty", 0).unwrap();
        backup.restore_into(vm.memory_mut());

        let mut buf = [0u8; 5];
        vm.read_user(pid, obj, &mut buf).unwrap();
        assert_eq!(&buf, b"clean");
    }

    #[test]
    fn epochs_count_commits() {
        let vm = vm();
        let mut backup = BackupVm::new(&vm);
        backup.commit_epoch();
        backup.commit_epoch();
        assert_eq!(backup.epoch(), 2);
    }

    #[test]
    fn save_vcpus_copies_registers() {
        let mut vm = vm();
        vm.vcpus_mut().get_mut(0).unwrap().rip = 0x1234;
        let mut backup = BackupVm::new(&vm);
        vm.vcpus_mut().get_mut(0).unwrap().rip = 0x5678;
        backup.save_vcpus(vm.vcpus());
        assert_eq!(backup.vcpus().get(0).unwrap().rip, 0x5678);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn frame_out_of_range_panics() {
        let vm = vm();
        let backup = BackupVm::new(&vm);
        backup.frame(Mfn(2048));
    }

    #[test]
    fn frame_mut_allows_in_place_write() {
        let vm = vm();
        let mut backup = BackupVm::new(&vm);
        backup.frame_mut(Mfn(0))[0] = 0x7f;
        assert_eq!(backup.frame(Mfn(0))[0], 0x7f);
    }

    #[test]
    fn content_index_finds_duplicates_and_tracks_refs() {
        let vm = vm();
        let mut backup = BackupVm::new(&vm);
        let page = vec![0x5au8; PAGE_SIZE];
        backup.store_frame(Mfn(1), &page);
        backup.store_frame(Mfn(7), &page);
        backup.ensure_content_index();
        let digest = content_digest(&page);
        assert!(backup.probe_duplicate(digest, &page));
        assert_eq!(backup.content_refs(digest), 2);
        // A digest hit with different bytes (a collision stand-in) must
        // degrade to a miss via the exemplar byte compare.
        let other = vec![0xa5u8; PAGE_SIZE];
        assert!(!backup.probe_duplicate(digest, &other));
    }

    #[test]
    fn encoded_store_keeps_the_index_coherent() {
        use crate::delta::encode_page;

        let vm = vm();
        let mut backup = BackupVm::new(&vm);
        let a = vec![0x11u8; PAGE_SIZE];
        let b = vec![0x22u8; PAGE_SIZE];
        backup.store_frame(Mfn(2), &a);
        backup.store_frame(Mfn(3), &a);
        backup.ensure_content_index();
        let (da, db) = (content_digest(&a), content_digest(&b));
        assert_eq!(backup.content_refs(da), 2);

        // Rewrite frame 2 (the likely exemplar) to new bytes through the
        // coherent path: old refcount drops, exemplar repoints to frame
        // 3, new digest appears — all without a rebuild.
        let enc = encode_page(backup.frame(Mfn(2)), &b, PAGE_SIZE / 8);
        backup.store_frame_encoded(Mfn(2), &enc, &b, db);
        assert_eq!(backup.frame(Mfn(2)), b.as_slice());
        assert_eq!(backup.content_refs(da), 1);
        assert_eq!(backup.content_refs(db), 1);
        assert!(backup.probe_duplicate(da, &a));
        assert!(backup.probe_duplicate(db, &b));

        // Rewrite the last claimant: the old entry is evicted outright.
        let enc = encode_page(backup.frame(Mfn(3)), &b, PAGE_SIZE / 8);
        backup.store_frame_encoded(Mfn(3), &enc, &b, db);
        assert_eq!(backup.content_refs(da), 0);
        assert_eq!(backup.content_refs(db), 2);
        assert!(!backup.probe_duplicate(da, &a));
    }

    #[test]
    fn raw_writes_stale_the_index_until_rebuilt() {
        let vm = vm();
        let mut backup = BackupVm::new(&vm);
        backup.ensure_content_index();
        let page = vec![0x33u8; PAGE_SIZE];
        backup.store_frame(Mfn(4), &page);
        // Stale: probes answer conservatively until the rebuild.
        assert!(!backup.probe_duplicate(content_digest(&page), &page));
        backup.ensure_content_index();
        assert!(backup.probe_duplicate(content_digest(&page), &page));
    }
}
