//! The page copier (§4.1, Optimization 1: "memcpy, not write").
//!
//! Remus ships dirty pages to the backup through an ssh-wrapped socket:
//! the checkpointer serialises each page, `writev`s it into the stream, the
//! stream cipher encrypts it, and a Restore process on the far side
//! decrypts and deserialises into the backup image. CRIMES notices that a
//! *local* backup needs none of that and replaces the whole pipeline with a
//! `memcpy` into the (pre-mapped) backup frames.
//!
//! Both are values of one page visitor, [`PageCopier`], which rides the
//! sharded pause-window walk (see `pool`):
//!
//! * **wire** ([`CopyStrategy`]): `Memcpy` is a frame-to-frame copy;
//!   `Socket` is serialise → encrypt (ChaCha-flavoured xorshift keystream,
//!   standing in for ssh's cipher) → the worker's scratch stream (the
//!   "socket") → decrypt → apply to the backup frame, with a simulated
//!   syscall per `writev` batch on each side;
//! * **encoding** (a delta threshold in changed words, `0` = raw): with a
//!   threshold set the page is first compared word-wise against the
//!   frame's old generation — the walk's undo snapshot runs before the
//!   visitors, so the destination still holds exactly the bytes a remote
//!   backup would diff against — and the statistics count the compact
//!   record's wire cost; the socket wire also ciphers and ships only that
//!   record.
//!
//! Whatever the values, the destination frame ends byte-for-byte equal to
//! the source: encoding changes what the wire ships, never what the backup
//! holds. Fault points live at the shard level, in the pool.

// Fail-closed: typed errors, never a panic (DESIGN.md "Static guarantees").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::todo, clippy::unimplemented)]

use crimes_vm::PAGE_SIZE;

use crate::delta::{page_kernel, scan_page, wire_len_for};
use crate::pool::{FusedPageVisitor, PageCtx, ShardSink};

/// Which wire dirty pages travel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CopyStrategy {
    /// Remus-style socket + cipher pipeline.
    Socket,
    /// CRIMES-style direct memcpy.
    #[default]
    Memcpy,
}

/// Pages per `writev` batch (Remus groups writes; each batch costs one
/// simulated syscall on each side). The deferred drain path batches its
/// out-of-window stream the same way.
pub(crate) const WRITEV_BATCH: usize = 64;

/// Per-run wire header inside a delta record: `start_word` + word count.
const RUN_HEADER: usize = 8;

/// Statistics from one copy phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CopyStats {
    /// Pages copied.
    pub pages: usize,
    /// Payload bytes moved.
    pub bytes: usize,
    /// Simulated syscalls issued (socket path only).
    pub syscalls: u64,
}

/// The copy pass of the pause-window walk: one visitor, parameterised by
/// wire and encoding (see the module header). `Copy` and immutable, so
/// every worker shares it by reference; all output goes through the
/// worker's [`ShardSink`], and the only scratch it uses is the sink's
/// preallocated stream, so the window stays heap-free.
#[derive(Debug, Clone, Copy)]
pub struct PageCopier {
    wire: CopyStrategy,
    key: u64,
    threshold_words: usize,
}

impl PageCopier {
    /// A copier for `wire`. `key` is the socket wire's cipher key (both
    /// ends share it like an ssh session key; the memcpy wire ignores
    /// it). Pages whose churn exceeds `threshold_words` changed words
    /// travel (and price) as full pages; `0` disables encoding.
    pub fn new(wire: CopyStrategy, key: u64, threshold_words: usize) -> Self {
        PageCopier {
            wire,
            key,
            threshold_words,
        }
    }

    /// The bare frame-to-frame copy: what a local backup costs per page,
    /// and all the deferred pipeline's staging snapshot does inside the
    /// window.
    pub fn memcpy() -> Self {
        PageCopier::new(CopyStrategy::Memcpy, 0, 0)
    }

    /// The socket wire for one page: header (plaintext) plus the
    /// encrypted record into the worker's scratch stream, then the
    /// receiver side decrypts the record and applies it to the frame's
    /// old generation — so with a threshold set the cipher and the wire
    /// pay for the changed words, not the page.
    fn socket(&self, ctx: &PageCtx<'_>, sink: &mut ShardSink<'_>) {
        let (stream, dst) = sink.stream_and_dst();
        let kernel = if self.threshold_words > 0 {
            page_kernel(dst, ctx.src, [])
        } else {
            None
        };
        let wire = kernel.map_or(PAGE_SIZE, |k| wire_len_for(&k.scan, self.threshold_words));
        // `None` ships the whole page: the raw wire, or churn past the
        // threshold.
        let delta =
            kernel.filter(|k| k.scan.zero || k.scan.changed_words as usize <= self.threshold_words);
        let payload = match &delta {
            None => PAGE_SIZE,
            Some(k) if k.scan.zero => 0,
            Some(k) => k.scan.runs as usize * RUN_HEADER + k.scan.changed_words as usize * 8,
        };
        // Sender side.
        stream.clear();
        stream.extend_from_slice(&ctx.pfn.0.to_le_bytes());
        stream.extend_from_slice(&ctx.mfn.0.to_le_bytes());
        stream.extend_from_slice(&(payload as u32).to_le_bytes());
        let start = stream.len();
        match &delta {
            None => stream.extend_from_slice(ctx.src),
            Some(k) if k.scan.zero => {}
            // Each run as [start_word u32][words u32][words...].
            Some(k) => k.for_each_run(|word, words| {
                stream.extend_from_slice(&(word as u32).to_le_bytes());
                stream.extend_from_slice(&(words as u32).to_le_bytes());
                stream.extend_from_slice(ctx.src.get(word * 8..(word + words) * 8).unwrap_or(&[]));
            }),
        }
        // `start` was the stream length a moment ago, so the split point
        // is always in range.
        let (_, fresh) = stream.split_at_mut(start);
        encrypt_in_place(fresh, self.key, ctx.pfn.0);
        // Receiver side.
        decrypt_in_place(fresh, self.key, ctx.pfn.0);
        match &delta {
            None => {
                if dst.len() == fresh.len() {
                    dst.copy_from_slice(fresh);
                }
            }
            Some(k) if k.scan.zero => dst.fill(0),
            Some(_) => apply_runs(dst, fresh),
        }
        sink.count_page(wire);
        sink.batch_page(WRITEV_BATCH);
    }
}

/// Replay a decrypted run list onto the frame's old generation. A
/// truncated or out-of-range run is skipped rather than panicking; the
/// digest fold downstream would flag the divergence.
fn apply_runs(dst: &mut [u8], record: &[u8]) {
    let mut rest = record;
    while let Some((word, tail)) = rest.split_first_chunk::<4>() {
        let Some((words, tail)) = tail.split_first_chunk::<4>() else {
            break;
        };
        let at = u32::from_le_bytes(*word) as usize * 8;
        let len = u32::from_le_bytes(*words) as usize * 8;
        let Some((body, tail)) = tail.split_at_checked(len) else {
            break;
        };
        if let Some(window) = dst.get_mut(at..at + len) {
            window.copy_from_slice(body);
        }
        rest = tail;
    }
}

impl FusedPageVisitor for PageCopier {
    fn visit_page(&self, ctx: &PageCtx<'_>, sink: &mut ShardSink<'_>) {
        match (self.wire, self.threshold_words) {
            // The per-page cost of a local backup: no scan, no cipher.
            (CopyStrategy::Memcpy, 0) => {
                sink.dst().copy_from_slice(ctx.src);
                sink.count_page(PAGE_SIZE);
            }
            (CopyStrategy::Memcpy, threshold) => {
                let dst = sink.dst();
                let scan = scan_page(dst, ctx.src);
                dst.copy_from_slice(ctx.src);
                sink.count_page(wire_len_for(&scan, threshold));
            }
            (CopyStrategy::Socket, _) => self.socket(ctx, sink),
        }
    }

    fn finish_shard(&self, sink: &mut ShardSink<'_>) {
        if self.wire == CopyStrategy::Socket {
            sink.finish_batches(WRITEV_BATCH);
        }
    }
}

/// Rounds of state mixing per 8-byte keystream block. Calibrated so the
/// whole encrypt→copy→decrypt pipeline moves pages at roughly the
/// ~100 MB/s a pre-AES-NI ssh session achieved on the paper's 2010-era
/// Xeons — the throughput that makes Remus's copy phase dominate its pause
/// window (Table 1: ~70% of paused time). One round would model a modern
/// vectorised cipher and make the baseline unrealistically cheap.
const CIPHER_ROUNDS: usize = 10;

/// Symmetric stream cipher standing in for ssh: multi-round xorshift64*
/// keystream seeded from `(key, nonce)`. Not cryptographically serious —
/// it only has to cost what the era's cipher+MAC cost per byte and be
/// invertible.
fn keystream_xor(data: &mut [u8], key: u64, nonce: u64) {
    let mut state = key ^ nonce.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for chunk in data.chunks_mut(8) {
        for _ in 0..CIPHER_ROUNDS {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
        }
        let ks = state.wrapping_mul(0x2545_f491_4f6c_dd1d).to_le_bytes();
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
    }
}

pub(crate) fn encrypt_in_place(data: &mut [u8], key: u64, nonce: u64) {
    keystream_xor(data, key, nonce);
}

pub(crate) fn decrypt_in_place(data: &mut [u8], key: u64, nonce: u64) {
    keystream_xor(data, key, nonce);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backup::BackupVm;
    use crate::mapping::MappedPage;
    use crate::pool::PauseWindowPool;
    use crimes_vm::{Gpa, Pfn, Vm};

    /// A guest with an old generation in `BackupVm` and 16 pages dirtied
    /// one byte each since — the fig7-style churn deltas exist to exploit.
    fn vm_with_writes() -> (Vm, BackupVm, Vec<MappedPage>) {
        let mut b = Vm::builder();
        b.pages(2048).seed(21);
        let mut vm = b.build();
        let pid = vm.spawn_process("app", 0, 32).unwrap();
        let old_gen = BackupVm::new(&vm);
        vm.memory_mut().clear_dirty();
        for i in 0..16 {
            vm.dirty_arena_page(pid, i, i * 7, i as u8).unwrap();
        }
        let mapped = mapped_of(&vm);
        (vm, old_gen, mapped)
    }

    fn mapped_of(vm: &Vm) -> Vec<MappedPage> {
        vm.memory()
            .dirty()
            .iter()
            .map(|p| (p, vm.memory().pfn_to_mfn(p)))
            .collect()
    }

    fn walk(
        copier: PageCopier,
        workers: usize,
        vm: &Vm,
        backup: &mut BackupVm,
        mapped: &[MappedPage],
    ) -> CopyStats {
        PauseWindowPool::new(workers, vm.memory().num_pages(), 2)
            .run(vm.memory(), backup, mapped, &[&copier])
            .expect("no faults armed")
    }

    #[test]
    fn cipher_round_trips() {
        let mut data = vec![7u8; 100];
        let orig = data.clone();
        encrypt_in_place(&mut data, 42, 7);
        assert_ne!(data, orig, "cipher must actually change the bytes");
        decrypt_in_place(&mut data, 42, 7);
        assert_eq!(data, orig);
    }

    #[test]
    fn cipher_nonce_separates_pages() {
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        encrypt_in_place(&mut a, 42, 1);
        encrypt_in_place(&mut b, 42, 2);
        assert_ne!(a, b);
    }

    /// Every (wire, encoding) pair must leave the backup equal to the
    /// guest; encoding only changes what the wire is charged.
    #[test]
    fn every_wire_and_encoding_syncs_the_backup_and_prices_its_record() {
        let (vm, old_gen, mapped) = vm_with_writes();
        let guest = vm.memory().dump_frames();
        let run = |wire, threshold| {
            let mut backup = old_gen.clone();
            let stats = walk(
                PageCopier::new(wire, 9, threshold),
                2,
                &vm,
                &mut backup,
                &mapped,
            );
            assert_eq!(backup.frames(), guest.as_slice(), "{wire:?}/{threshold}");
            assert_eq!(stats.pages, mapped.len());
            stats
        };
        let raw_memcpy = run(CopyStrategy::Memcpy, 0);
        let raw_socket = run(CopyStrategy::Socket, 0);
        let enc_memcpy = run(CopyStrategy::Memcpy, 64);
        let enc_socket = run(CopyStrategy::Socket, 64);
        assert_eq!(raw_memcpy.bytes, mapped.len() * PAGE_SIZE);
        assert_eq!(raw_socket.bytes, raw_memcpy.bytes);
        assert_eq!(raw_memcpy.syscalls, 0, "a local copy makes no syscall");
        assert_eq!(enc_memcpy.syscalls, 0);
        assert!(raw_socket.syscalls >= 2, "writev + restore read modelled");
        assert_eq!(enc_socket.syscalls, raw_socket.syscalls);
        assert!(
            enc_socket.bytes < raw_socket.bytes,
            "one-byte churn must delta: {} vs {}",
            enc_socket.bytes,
            raw_socket.bytes
        );
        assert_eq!(
            enc_memcpy.bytes, enc_socket.bytes,
            "both price the same records"
        );
    }

    /// The socket wire's delta records against the scan's own facts, on
    /// every record shape: a zeroed page, an unchanged page, a run that
    /// crosses a 64-word mask element, scattered single words, and churn
    /// past the threshold (full-page fallback).
    #[test]
    fn socket_delta_records_rebuild_every_page_shape() {
        let mut b = Vm::builder();
        b.pages(2048).seed(5);
        let mut vm = b.build();
        let pid = vm.spawn_process("app", 0, 8).unwrap();
        for i in 0..5 {
            vm.dirty_arena_page(pid, i, 0, 0xa5).unwrap();
        }
        let old_gen = BackupVm::new(&vm);
        let pages: Vec<Pfn> = vm.memory().dirty().iter().collect();
        vm.memory_mut().clear_dirty();
        let [zeroed, same, crossing, scattered, churned] = pages[..5] else {
            panic!("five arena pages were dirtied");
        };
        let base = |pfn: Pfn| pfn.0 * PAGE_SIZE as u64;
        vm.memory_mut().write(Gpa(base(zeroed)), &[0u8; PAGE_SIZE]);
        vm.memory_mut().mark_dirty(same);
        vm.memory_mut()
            .write(Gpa(base(crossing) + 60 * 8), &[0x11u8; 7 * 8]);
        for word in [3u64, 100, 101, 300, 511] {
            vm.memory_mut()
                .write(Gpa(base(scattered) + word * 8 + 1), &[0x22]);
        }
        for word in (0..512u64).step_by(2) {
            vm.memory_mut()
                .write(Gpa(base(churned) + word * 8), &[0x33]);
        }
        let mapped = mapped_of(&vm);
        assert_eq!(mapped.len(), 5);
        let want: usize = mapped
            .iter()
            .map(|&(_, mfn)| {
                wire_len_for(&scan_page(old_gen.frame(mfn), vm.memory().frame(mfn)), 64)
            })
            .sum();

        let mut backup = old_gen.clone();
        let stats = walk(
            PageCopier::new(CopyStrategy::Socket, 7, 64),
            1,
            &vm,
            &mut backup,
            &mapped,
        );
        assert_eq!(backup.frames(), vm.memory().dump_frames().as_slice());
        assert_eq!(stats.bytes, want);
        assert!(stats.bytes > PAGE_SIZE, "the churned page ships whole");
        assert!(
            stats.bytes < 2 * PAGE_SIZE,
            "the other four ship as small records"
        );
    }

    #[test]
    fn socket_wire_counts_syscalls_per_writev_batch() {
        let (vm, old_gen, _) = vm_with_writes();
        let mapped: Vec<MappedPage> = (0..WRITEV_BATCH as u64 + 1)
            .map(|i| (Pfn(i), vm.memory().pfn_to_mfn(Pfn(i))))
            .collect();
        let mut backup = old_gen.clone();
        let stats = walk(
            PageCopier::new(CopyStrategy::Socket, 1, 0),
            1,
            &vm,
            &mut backup,
            &mapped,
        );
        // 2 writev batches + 2 restore reads.
        assert_eq!(stats.syscalls, 4);
    }
}
