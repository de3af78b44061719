//! The guest-side canary-placing heap allocator — the paper's "simple
//! malloc wrapper inside the VM" (§4.2, Buffer Overflow Detection).
//!
//! Every allocation gets an 8-byte canary written immediately after the
//! object, with a value derived from a per-VM secret generated outside the
//! attacker's control. The wrapper also maintains a lookup table of canary
//! addresses *in guest kernel memory* at the `crimes_canary_table` symbol,
//! which the hypervisor-level scanning module reads to know where to look.
//!
//! A heap overflow that writes past its object necessarily tramples the
//! canary; the CRIMES detector finds the mismatch at the next epoch scan.

use std::collections::BTreeMap;

use crate::addr::{Gva, PAGE_SIZE};
use crate::layout::{canary_offsets, KernelLayout, CANARY_LEN};
use crate::mem::GuestMemory;
use crate::process::ProcessTable;

/// Alignment of heap objects.
const ALIGN: u64 = 16;

/// Poison byte written over freed objects (quarantine-style, like
/// DoubleTake/ASan) so use-after-free reads are recognisable in dumps.
pub const FREE_POISON: u8 = 0xdd;

/// Errors from the canary heap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeapError {
    /// The process arena has no room for the request.
    OutOfMemory {
        /// The pid whose arena is full.
        pid: u32,
        /// Requested payload size in bytes.
        requested: u64,
    },
    /// `free` of an address that is not a live allocation of that process.
    BadFree {
        /// The pid attempting the free.
        pid: u32,
        /// The address passed to free.
        gva: Gva,
    },
    /// Unknown pid.
    NoSuchProcess(u32),
    /// The shared canary table is out of record slots.
    CanaryTableFull,
    /// Zero-byte allocations are rejected (they would place the canary at
    /// the object address itself).
    ZeroSizedAlloc,
}

impl std::fmt::Display for HeapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeapError::OutOfMemory { pid, requested } => {
                write!(f, "pid {pid}: arena exhausted allocating {requested} bytes")
            }
            HeapError::BadFree { pid, gva } => write!(f, "pid {pid}: bad free of {gva}"),
            HeapError::NoSuchProcess(pid) => write!(f, "no such process {pid}"),
            HeapError::CanaryTableFull => write!(f, "canary table is full"),
            HeapError::ZeroSizedAlloc => write!(f, "zero-sized allocation"),
        }
    }
}

impl std::error::Error for HeapError {}

/// A live allocation, as known to the guest-side wrapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// Owning process.
    pub pid: u32,
    /// Object start (user GVA).
    pub gva: Gva,
    /// Payload size in bytes.
    pub size: u64,
    /// GVA of the canary (always `gva + size`).
    pub canary_gva: Gva,
    /// Index of the record in the guest canary table.
    pub record_idx: usize,
}

/// Guest-side allocator state shared by all processes in one VM.
#[derive(Debug, Clone)]
pub struct CanaryHeap {
    secret: [u8; CANARY_LEN],
    /// `(pid, object gva)` → allocation.
    live: BTreeMap<(u32, u64), Allocation>,
    free_records: Vec<usize>,
    /// One past the highest record index ever used; mirrored into the
    /// table's count header so hypervisor scans know how far to read.
    high_water: usize,
    table_capacity: usize,
    /// Size-class free lists: `(pid, block size)` → reusable object GVAs.
    /// Real allocators recycle freed blocks; without this the bump cursor
    /// grows without bound under churn.
    free_blocks: BTreeMap<(u32, u64), Vec<u64>>,
}

impl CanaryHeap {
    /// Create the allocator for a VM whose canary table capacity comes from
    /// `layout`, with the given per-VM secret.
    pub fn new(layout: &KernelLayout, secret: [u8; CANARY_LEN]) -> Self {
        CanaryHeap {
            secret,
            live: BTreeMap::new(),
            free_records: Vec::new(),
            high_water: 0,
            table_capacity: layout.canary_capacity,
            free_blocks: BTreeMap::new(),
        }
    }

    /// The per-VM canary secret. The cloud provider shares this with the
    /// hypervisor-side scanner; the attacker never sees it.
    pub fn secret(&self) -> [u8; CANARY_LEN] {
        self.secret
    }

    /// Number of live allocations.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Records in use (live + high-water slack), i.e. how many table slots a
    /// scan must consider.
    pub fn table_len(&self) -> usize {
        self.high_water
    }

    /// Allocate `size` bytes in `pid`'s arena, writing the canary and
    /// registering it in the guest canary table.
    ///
    /// # Errors
    ///
    /// Fails on zero-size requests, arena exhaustion, unknown pids, or a
    /// full canary table.
    pub fn malloc(
        &mut self,
        mem: &mut GuestMemory,
        procs: &mut ProcessTable,
        layout: &KernelLayout,
        pid: u32,
        size: u64,
    ) -> Result<Gva, HeapError> {
        if size == 0 {
            return Err(HeapError::ZeroSizedAlloc);
        }
        let proc = procs.get_mut(pid).ok_or(HeapError::NoSuchProcess(pid))?;
        let need = align_up(size + CANARY_LEN as u64, ALIGN);
        // Recycle a freed block of the same size class when available;
        // fall back to bumping the cursor.
        let recycled = self.free_blocks.get_mut(&(pid, need)).and_then(Vec::pop);
        let gva = match recycled {
            Some(addr) => Gva(addr),
            None => {
                let cursor = proc.heap_cursor;
                if cursor + need > proc.mapping.len {
                    return Err(HeapError::OutOfMemory {
                        pid,
                        requested: size,
                    });
                }
                proc.heap_cursor = cursor + need;
                proc.mapping.virt_base.add(cursor)
            }
        };
        let record_idx = match self.free_records.pop() {
            Some(idx) => idx,
            None if self.high_water < self.table_capacity => {
                let idx = self.high_water;
                self.high_water += 1;
                idx
            }
            None => {
                // Give the block back before failing.
                self.free_blocks.entry((pid, need)).or_default().push(gva.0);
                return Err(HeapError::CanaryTableFull);
            }
        };
        let canary_gva = gva.add(size);
        let canary_gpa = proc
            .mapping
            .translate(canary_gva)
            .expect("canary lies inside the arena by construction");

        // Guest library writes: canary bytes in user space, record in the
        // kernel-resident table.
        mem.set_exec_rip(MALLOC_RIP);
        mem.write(canary_gpa, &self.secret);
        let rec = layout.canary_record(record_idx);
        mem.write_u64(rec.add(canary_offsets::CANARY_GVA), canary_gva.0);
        mem.write_u64(rec.add(canary_offsets::OBJECT_GVA), gva.0);
        mem.write_u64(rec.add(canary_offsets::SIZE), size);
        mem.write_u32(rec.add(canary_offsets::LIVE), 1);
        mem.write_u32(rec.add(canary_offsets::PID), pid);
        mem.write_u64(layout.canary_table, self.high_water as u64);

        self.live.insert(
            (pid, gva.0),
            Allocation {
                pid,
                gva,
                size,
                canary_gva,
                record_idx,
            },
        );
        Ok(gva)
    }

    /// Free a live allocation: mark its table record dead, poison the
    /// object, and recycle the record slot.
    ///
    /// # Errors
    ///
    /// Fails if `gva` is not a live allocation of `pid`.
    pub fn free(
        &mut self,
        mem: &mut GuestMemory,
        procs: &ProcessTable,
        layout: &KernelLayout,
        pid: u32,
        gva: Gva,
    ) -> Result<(), HeapError> {
        let alloc = self
            .live
            .remove(&(pid, gva.0))
            .ok_or(HeapError::BadFree { pid, gva })?;
        let proc = procs.get(pid).ok_or(HeapError::NoSuchProcess(pid))?;
        mem.set_exec_rip(FREE_RIP);
        mem.write_u32(
            layout
                .canary_record(alloc.record_idx)
                .add(canary_offsets::LIVE),
            0,
        );
        // Poison the payload (page-sized chunks to bound stack buffers).
        let gpa = proc
            .mapping
            .translate(gva)
            .expect("live allocation must translate");
        let poison = [FREE_POISON; PAGE_SIZE];
        let mut left = alloc.size;
        let mut at = gpa;
        while left > 0 {
            let n = left.min(PAGE_SIZE as u64);
            mem.write(at, &poison[..n as usize]);
            at = at.add(n);
            left -= n;
        }
        self.free_records.push(alloc.record_idx);
        let need = align_up(alloc.size + CANARY_LEN as u64, ALIGN);
        self.free_blocks
            .entry((pid, need))
            .or_default()
            .push(alloc.gva.0);
        Ok(())
    }

    /// Look up a live allocation by `(pid, object gva)`.
    pub fn allocation(&self, pid: u32, gva: Gva) -> Option<&Allocation> {
        self.live.get(&(pid, gva.0))
    }

    /// All live allocations of `pid`, in address order.
    pub fn allocations_of(&self, pid: u32) -> Vec<Allocation> {
        self.live
            .range((pid, 0)..=(pid, u64::MAX))
            .map(|(_, a)| *a)
            .collect()
    }

    /// Drop all records owned by `pid` (process exit). Table records are
    /// marked dead so scans skip them.
    pub fn release_process(&mut self, mem: &mut GuestMemory, layout: &KernelLayout, pid: u32) {
        let keys: Vec<(u32, u64)> = self
            .live
            .range((pid, 0)..=(pid, u64::MAX))
            .map(|(k, _)| *k)
            .collect();
        mem.set_exec_rip(FREE_RIP);
        for k in keys {
            let alloc = self.live.remove(&k).expect("key just enumerated");
            mem.write_u32(
                layout
                    .canary_record(alloc.record_idx)
                    .add(canary_offsets::LIVE),
                0,
            );
            self.free_records.push(alloc.record_idx);
        }
        // The process's arena dies with it; its free lists are garbage.
        self.free_blocks.retain(|(p, _), _| *p != pid);
    }
}

/// Synthetic rip for the malloc wrapper's own writes.
const MALLOC_RIP: u64 = 0x0000_7fff_f7a0_0000;
/// Synthetic rip for the free path.
const FREE_RIP: u64 = 0x0000_7fff_f7a0_0100;

fn align_up(v: u64, a: u64) -> u64 {
    v.div_ceil(a) * a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Gpa;
    use crate::layout::KernelLayout;

    fn setup() -> (GuestMemory, ProcessTable, KernelLayout, CanaryHeap) {
        let mem = GuestMemory::new(4096, 3);
        let layout = KernelLayout::for_pages(4096);
        let procs = ProcessTable::new(layout.user_start, Gpa(4096 * PAGE_SIZE as u64));
        let heap = CanaryHeap::new(&layout, *b"SECRET!!");
        (mem, procs, layout, heap)
    }

    #[test]
    fn malloc_writes_canary_after_object() {
        let (mut mem, mut procs, layout, mut heap) = setup();
        procs.register(1, "app", 16).unwrap();
        let gva = heap.malloc(&mut mem, &mut procs, &layout, 1, 100).unwrap();
        let mapping = procs.get(1).unwrap().mapping;
        let canary_gpa = mapping.translate(gva.add(100)).unwrap();
        let mut buf = [0u8; CANARY_LEN];
        mem.read(canary_gpa, &mut buf);
        assert_eq!(&buf, b"SECRET!!");
    }

    #[test]
    fn malloc_registers_record_in_guest_table() {
        let (mut mem, mut procs, layout, mut heap) = setup();
        procs.register(1, "app", 16).unwrap();
        let gva = heap.malloc(&mut mem, &mut procs, &layout, 1, 64).unwrap();
        assert_eq!(mem.read_u64(layout.canary_table), 1, "count header");
        let rec = layout.canary_record(0);
        assert_eq!(mem.read_u64(rec.add(canary_offsets::OBJECT_GVA)), gva.0);
        assert_eq!(
            mem.read_u64(rec.add(canary_offsets::CANARY_GVA)),
            gva.0 + 64
        );
        assert_eq!(mem.read_u64(rec.add(canary_offsets::SIZE)), 64);
        assert_eq!(mem.read_u32(rec.add(canary_offsets::LIVE)), 1);
        assert_eq!(mem.read_u32(rec.add(canary_offsets::PID)), 1);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let (mut mem, mut procs, layout, mut heap) = setup();
        procs.register(1, "app", 64).unwrap();
        let mut prev_end = 0u64;
        for _ in 0..20 {
            let gva = heap.malloc(&mut mem, &mut procs, &layout, 1, 100).unwrap();
            assert!(gva.0 >= prev_end, "allocation overlaps previous");
            prev_end = gva.0 + 100 + CANARY_LEN as u64;
        }
    }

    #[test]
    fn free_marks_record_dead_and_poisons() {
        let (mut mem, mut procs, layout, mut heap) = setup();
        procs.register(1, "app", 16).unwrap();
        let gva = heap.malloc(&mut mem, &mut procs, &layout, 1, 32).unwrap();
        heap.free(&mut mem, &procs, &layout, 1, gva).unwrap();
        let rec = layout.canary_record(0);
        assert_eq!(mem.read_u32(rec.add(canary_offsets::LIVE)), 0);
        let gpa = procs.get(1).unwrap().mapping.translate(gva).unwrap();
        assert!(mem.peek_array::<1>(gpa).unwrap() == [FREE_POISON]);
        assert_eq!(heap.live_count(), 0);
    }

    #[test]
    fn double_free_is_rejected() {
        let (mut mem, mut procs, layout, mut heap) = setup();
        procs.register(1, "app", 16).unwrap();
        let gva = heap.malloc(&mut mem, &mut procs, &layout, 1, 32).unwrap();
        heap.free(&mut mem, &procs, &layout, 1, gva).unwrap();
        assert_eq!(
            heap.free(&mut mem, &procs, &layout, 1, gva),
            Err(HeapError::BadFree { pid: 1, gva })
        );
    }

    #[test]
    fn free_of_other_process_allocation_is_rejected() {
        let (mut mem, mut procs, layout, mut heap) = setup();
        procs.register(1, "a", 16).unwrap();
        procs.register(2, "b", 16).unwrap();
        let gva = heap.malloc(&mut mem, &mut procs, &layout, 1, 32).unwrap();
        assert!(heap.free(&mut mem, &procs, &layout, 2, gva).is_err());
    }

    #[test]
    fn record_slots_are_recycled() {
        let (mut mem, mut procs, layout, mut heap) = setup();
        procs.register(1, "app", 16).unwrap();
        let a = heap.malloc(&mut mem, &mut procs, &layout, 1, 8).unwrap();
        heap.free(&mut mem, &procs, &layout, 1, a).unwrap();
        let b = heap.malloc(&mut mem, &mut procs, &layout, 1, 8).unwrap();
        assert_eq!(heap.allocation(1, b).unwrap().record_idx, 0);
        assert_eq!(heap.table_len(), 1, "high water should not grow");
    }

    #[test]
    fn zero_sized_alloc_is_rejected() {
        let (mut mem, mut procs, layout, mut heap) = setup();
        procs.register(1, "app", 16).unwrap();
        assert_eq!(
            heap.malloc(&mut mem, &mut procs, &layout, 1, 0),
            Err(HeapError::ZeroSizedAlloc)
        );
    }

    #[test]
    fn arena_exhaustion_is_reported() {
        let (mut mem, mut procs, layout, mut heap) = setup();
        procs.register(1, "app", 1).unwrap();
        assert!(matches!(
            heap.malloc(&mut mem, &mut procs, &layout, 1, 2 * PAGE_SIZE as u64),
            Err(HeapError::OutOfMemory { pid: 1, .. })
        ));
    }

    #[test]
    fn unknown_pid_is_rejected() {
        let (mut mem, mut procs, layout, mut heap) = setup();
        assert_eq!(
            heap.malloc(&mut mem, &mut procs, &layout, 9, 8),
            Err(HeapError::NoSuchProcess(9))
        );
    }

    #[test]
    fn release_process_kills_all_records() {
        let (mut mem, mut procs, layout, mut heap) = setup();
        procs.register(1, "app", 16).unwrap();
        for _ in 0..5 {
            heap.malloc(&mut mem, &mut procs, &layout, 1, 16).unwrap();
        }
        heap.release_process(&mut mem, &layout, 1);
        assert_eq!(heap.live_count(), 0);
        for i in 0..5 {
            let rec = layout.canary_record(i);
            assert_eq!(mem.read_u32(rec.add(canary_offsets::LIVE)), 0);
        }
    }

    #[test]
    fn allocations_of_lists_only_that_pid() {
        let (mut mem, mut procs, layout, mut heap) = setup();
        procs.register(1, "a", 16).unwrap();
        procs.register(2, "b", 16).unwrap();
        heap.malloc(&mut mem, &mut procs, &layout, 1, 8).unwrap();
        heap.malloc(&mut mem, &mut procs, &layout, 2, 8).unwrap();
        heap.malloc(&mut mem, &mut procs, &layout, 2, 8).unwrap();
        assert_eq!(heap.allocations_of(1).len(), 1);
        assert_eq!(heap.allocations_of(2).len(), 2);
    }

    #[test]
    fn heap_errors_display_nonempty() {
        for e in [
            HeapError::OutOfMemory {
                pid: 1,
                requested: 8,
            },
            HeapError::BadFree {
                pid: 1,
                gva: Gva(0),
            },
            HeapError::NoSuchProcess(1),
            HeapError::CanaryTableFull,
            HeapError::ZeroSizedAlloc,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
