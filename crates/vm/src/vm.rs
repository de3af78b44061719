//! The [`Vm`] facade: one simulated guest, tying together memory, vCPUs,
//! the kernel, the process table, the canary heap, and the execution trace.
//!
//! All guest-visible mutations funnel through [`Vm::apply`], so recording a
//! trace and replaying it are guaranteed to exercise identical code paths —
//! the property CRIMES' rollback-and-replay analysis relies on.

use crimes_rng::ChaCha8Rng;

use crate::addr::{Gpa, Gva, PAGE_SIZE};
use crate::disk::VirtualDisk;
use crate::heap::{CanaryHeap, HeapError};
use crate::kernel::{FileId, Kernel, KernelError, SocketId, TcpState};
use crate::layout::{KernelLayout, CANARY_LEN};
use crate::mem::GuestMemory;
use crate::process::{ProcessError, ProcessTable};
use crate::symbols::SystemMap;
use crate::trace::{GuestOp, Trace, TraceMark};
use crate::vcpu::VcpuSet;

/// Errors surfaced by VM operations.
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    /// A kernel operation failed.
    Kernel(KernelError),
    /// A process-table operation failed.
    Process(ProcessError),
    /// A heap operation failed.
    Heap(HeapError),
    /// A user address did not translate in the process's mapping.
    BadUserAddress {
        /// The pid whose mapping was consulted.
        pid: u32,
        /// The failing address.
        gva: Gva,
    },
    /// An arena page index was out of range.
    BadArenaPage {
        /// The pid whose arena was indexed.
        pid: u32,
        /// The out-of-range page index.
        page_idx: usize,
    },
    /// A disk write was out of range or oversized.
    BadDiskWrite {
        /// Target sector.
        sector: u64,
        /// Write length.
        len: usize,
    },
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::Kernel(e) => write!(f, "kernel: {e}"),
            VmError::Process(e) => write!(f, "process: {e}"),
            VmError::Heap(e) => write!(f, "heap: {e}"),
            VmError::BadUserAddress { pid, gva } => {
                write!(f, "pid {pid}: unmapped user address {gva}")
            }
            VmError::BadArenaPage { pid, page_idx } => {
                write!(f, "pid {pid}: arena page {page_idx} out of range")
            }
            VmError::BadDiskWrite { sector, len } => {
                write!(f, "invalid disk write: sector {sector}, {len} bytes")
            }
        }
    }
}

impl std::error::Error for VmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VmError::Kernel(e) => Some(e),
            VmError::Process(e) => Some(e),
            VmError::Heap(e) => Some(e),
            _ => None,
        }
    }
}

impl From<KernelError> for VmError {
    fn from(e: KernelError) -> Self {
        VmError::Kernel(e)
    }
}

impl From<ProcessError> for VmError {
    fn from(e: ProcessError) -> Self {
        VmError::Process(e)
    }
}

impl From<HeapError> for VmError {
    fn from(e: HeapError) -> Self {
        VmError::Heap(e)
    }
}

/// Outcome of applying one [`GuestOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutcome {
    /// No interesting return value.
    Unit,
    /// A spawn returned this pid.
    Pid(u32),
    /// A malloc returned this object address.
    Alloc(Gva),
    /// A socket was opened at this slot.
    Socket(SocketId),
    /// A file was opened at this slot.
    File(FileId),
}

/// Builder for [`Vm`]. Construct via [`Vm::builder`].
#[derive(Debug, Clone)]
pub struct VmBuilder {
    pages: usize,
    vcpus: usize,
    seed: u64,
    disk_sectors: usize,
}

impl VmBuilder {
    /// Guest memory size in pages (default 8192 = 32 MiB).
    pub fn pages(&mut self, pages: usize) -> &mut Self {
        self.pages = pages;
        self
    }

    /// Guest memory size in MiB.
    pub fn memory_mib(&mut self, mib: usize) -> &mut Self {
        self.pages = mib * (1024 * 1024 / PAGE_SIZE);
        self
    }

    /// Number of vCPUs (default 2).
    pub fn vcpus(&mut self, n: usize) -> &mut Self {
        self.vcpus = n;
        self
    }

    /// Seed for all in-VM randomness (canary secret, PFN permutation).
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Virtual-disk size in 512-byte sectors (default 4096 = 2 MiB).
    pub fn disk_sectors(&mut self, sectors: usize) -> &mut Self {
        self.disk_sectors = sectors;
        self
    }

    /// Boot the guest: install the kernel and return a clean VM (dirty
    /// bitmap cleared, trace empty).
    pub fn build(&self) -> Vm {
        let mut mem = GuestMemory::new(self.pages, self.seed);
        let layout = KernelLayout::for_pages(self.pages);
        let kernel = Kernel::install(&mut mem, layout.clone());
        let system_map = SystemMap::for_layout(&layout);
        let procs = ProcessTable::new(layout.user_start, Gpa(self.pages as u64 * PAGE_SIZE as u64));
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0x5ca1_ab1e);
        let mut secret = [0u8; CANARY_LEN];
        rng.fill(&mut secret);
        let heap = CanaryHeap::new(&layout, secret);
        // Boot writes are not part of any epoch.
        mem.take_dirty();
        Vm {
            mem,
            vcpus: VcpuSet::new(self.vcpus),
            kernel,
            procs,
            heap,
            disk: VirtualDisk::new(self.disk_sectors),
            layout,
            system_map,
            trace: Trace::new(),
            now_ns: 0,
        }
    }
}

/// A full snapshot of guest *and* guest-resident library state, used for
/// rollback. In a real VM the host-side bookkeeping captured here lives in
/// guest memory and would be restored by the page copy alone; cloning it
/// alongside is the simulation-equivalent.
#[derive(Debug, Clone)]
pub struct VmSnapshot {
    frames: Vec<u8>,
    disk: Vec<u8>,
    kernel: Kernel,
    procs: ProcessTable,
    heap: CanaryHeap,
    vcpus: VcpuSet,
    now_ns: u64,
}

/// Host-side bookkeeping snapshot (no memory image). See
/// [`Vm::meta_snapshot`].
#[derive(Debug, Clone)]
pub struct MetaSnapshot {
    kernel: Kernel,
    procs: ProcessTable,
    heap: CanaryHeap,
    vcpus: VcpuSet,
    now_ns: u64,
}

impl MetaSnapshot {
    /// Simulated guest time at capture.
    pub fn captured_at_ns(&self) -> u64 {
        self.now_ns
    }
}

impl VmSnapshot {
    /// Size of the captured memory image in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.frames.len()
    }

    /// The bookkeeping portion of this snapshot.
    pub fn meta(&self) -> MetaSnapshot {
        MetaSnapshot {
            kernel: self.kernel.clone(),
            procs: self.procs.clone(),
            heap: self.heap.clone(),
            vcpus: self.vcpus.clone(),
            now_ns: self.now_ns,
        }
    }

    /// Simulated guest time at capture.
    pub fn captured_at_ns(&self) -> u64 {
        self.now_ns
    }

    /// The raw frame image (machine-frame order), for building forensic
    /// memory dumps without another copy.
    pub fn frames(&self) -> &[u8] {
        &self.frames
    }
}

/// One simulated guest VM.
#[derive(Debug, Clone)]
pub struct Vm {
    mem: GuestMemory,
    vcpus: VcpuSet,
    kernel: Kernel,
    procs: ProcessTable,
    heap: CanaryHeap,
    disk: VirtualDisk,
    layout: KernelLayout,
    system_map: SystemMap,
    trace: Trace,
    now_ns: u64,
}

impl Vm {
    /// Start configuring a VM.
    pub fn builder() -> VmBuilder {
        VmBuilder {
            pages: 8192,
            vcpus: 2,
            seed: 0,
            disk_sectors: 4096,
        }
    }

    // ---- introspection surface (hypervisor-visible) ----------------------

    /// Guest memory (hypervisor view).
    pub fn memory(&self) -> &GuestMemory {
        &self.mem
    }

    /// Mutable guest memory, for the checkpointer (dirty bitmap) and the
    /// replay engine (watchpoints).
    pub fn memory_mut(&mut self) -> &mut GuestMemory {
        &mut self.mem
    }

    /// The `System.map` the provider holds for this guest's kernel.
    pub fn system_map(&self) -> &SystemMap {
        &self.system_map
    }

    /// Mutable `System.map`, for a provider whose file for this guest
    /// differs from the stock build's (extra or moved symbols): every guest
    /// this substrate builds runs the same kernel, so this is how a second
    /// kernel build is named.
    pub fn system_map_mut(&mut self) -> &mut SystemMap {
        &mut self.system_map
    }

    /// The kernel layout (tests and dump tooling; VMI uses `System.map`).
    pub fn layout(&self) -> &KernelLayout {
        &self.layout
    }

    /// The per-VM canary secret, shared with the provider's scanner.
    pub fn canary_secret(&self) -> [u8; CANARY_LEN] {
        self.heap.secret()
    }

    /// vCPU set.
    pub fn vcpus(&self) -> &VcpuSet {
        &self.vcpus
    }

    /// Mutable vCPU set (checkpointer saves/restores registers).
    pub fn vcpus_mut(&mut self) -> &mut VcpuSet {
        &mut self.vcpus
    }

    /// Simulated guest time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// The guest's virtual disk.
    pub fn disk(&self) -> &VirtualDisk {
        &self.disk
    }

    /// Mutable virtual disk (checkpoint engine: dirty-sector log).
    pub fn disk_mut(&mut self) -> &mut VirtualDisk {
        &mut self.disk
    }

    // ---- ground truth for tests ------------------------------------------

    /// Host-side kernel bookkeeping (ground truth; not visible to VMI).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Host-side process table (ground truth; not visible to VMI).
    pub fn processes(&self) -> &ProcessTable {
        &self.procs
    }

    /// Guest-side allocator state (ground truth; not visible to VMI).
    pub fn heap(&self) -> &CanaryHeap {
        &self.heap
    }

    // ---- trace / replay ----------------------------------------------------

    /// Enable or disable op recording.
    pub fn set_recording(&mut self, on: bool) {
        self.trace.set_enabled(on);
    }

    /// Current trace position (take at checkpoint boundaries).
    pub fn trace_mark(&self) -> TraceMark {
        self.trace.mark()
    }

    /// Ops recorded since `mark` (the failed epoch's oplog).
    pub fn trace_since(&self, mark: TraceMark) -> Vec<GuestOp> {
        self.trace.ops_since(mark).to_vec()
    }

    /// Drop trace entries before `mark` (after a committed checkpoint).
    pub fn trace_truncate_before(&mut self, mark: TraceMark) -> usize {
        self.trace.truncate_before(mark)
    }

    /// Apply one operation *without* recording it — the replay path.
    ///
    /// # Errors
    ///
    /// Propagates the underlying kernel/process/heap error; replaying a
    /// trace onto the snapshot it was recorded from cannot fail.
    pub fn apply(&mut self, op: &GuestOp) -> Result<OpOutcome, VmError> {
        self.apply_inner(op)
    }

    // ---- guest operations --------------------------------------------------

    /// Spawn a process with a `heap_pages`-page user arena.
    ///
    /// # Errors
    ///
    /// Fails when user memory or kernel slots are exhausted.
    pub fn spawn_process(
        &mut self,
        name: &str,
        uid: u32,
        heap_pages: usize,
    ) -> Result<u32, VmError> {
        let op = GuestOp::Spawn {
            name: name.to_owned(),
            uid,
            heap_pages,
        };
        match self.run(op)? {
            OpOutcome::Pid(pid) => Ok(pid),
            other => unreachable!("spawn returned {other:?}"),
        }
    }

    /// Exit a process, releasing its kernel objects and heap records.
    ///
    /// # Errors
    ///
    /// Fails if `pid` is not a live user process.
    pub fn exit_process(&mut self, pid: u32) -> Result<(), VmError> {
        self.run(GuestOp::Exit { pid }).map(|_| ())
    }

    /// Allocate via the guest's canary malloc wrapper.
    ///
    /// # Errors
    ///
    /// Fails on unknown pid, arena exhaustion, or a full canary table.
    pub fn malloc(&mut self, pid: u32, size: u64) -> Result<Gva, VmError> {
        match self.run(GuestOp::Malloc { pid, size })? {
            OpOutcome::Alloc(gva) => Ok(gva),
            other => unreachable!("malloc returned {other:?}"),
        }
    }

    /// Free a canary-tracked allocation.
    ///
    /// # Errors
    ///
    /// Fails on bad frees (wrong pid, double free, never allocated).
    pub fn free(&mut self, pid: u32, gva: Gva) -> Result<(), VmError> {
        self.run(GuestOp::Free { pid, gva: gva.0 }).map(|_| ())
    }

    /// Store `data` at `gva` in `pid`'s address space, attributing the write
    /// to instruction `rip`. Bounds are checked against the *mapping*, not
    /// the allocation — a heap overflow is a perfectly valid store as far as
    /// the MMU is concerned, which is exactly why evidence-based detection
    /// is needed.
    ///
    /// # Errors
    ///
    /// Fails only if the range leaves the process's mapping entirely.
    pub fn write_user(&mut self, pid: u32, gva: Gva, data: &[u8], rip: u64) -> Result<(), VmError> {
        self.run(GuestOp::WriteUser {
            pid,
            gva: gva.0,
            data: data.to_vec(),
            rip,
        })
        .map(|_| ())
    }

    /// Read guest user memory (hypervisor-style read; not traced).
    ///
    /// # Errors
    ///
    /// Fails if the range is not fully mapped.
    pub fn read_user(&self, pid: u32, gva: Gva, buf: &mut [u8]) -> Result<(), VmError> {
        let proc = self
            .procs
            .get(pid)
            .ok_or(VmError::Process(ProcessError::NoSuchProcess(pid)))?;
        let gpa = self.translate_user(proc.mapping, pid, gva, buf.len())?;
        self.mem.read(gpa, buf);
        Ok(())
    }

    /// Dirty one byte of an arena page — the workload engine's primitive
    /// for generating realistic per-epoch dirty-page volumes.
    ///
    /// # Errors
    ///
    /// Fails on unknown pid or out-of-range page index.
    pub fn dirty_arena_page(
        &mut self,
        pid: u32,
        page_idx: usize,
        offset: usize,
        val: u8,
    ) -> Result<(), VmError> {
        self.run(GuestOp::DirtyArena {
            pid,
            page_idx,
            offset,
            val,
        })
        .map(|_| ())
    }

    /// DKOM-hide a process (rootkit attack primitive).
    ///
    /// # Errors
    ///
    /// Fails if `pid` is unknown or already hidden.
    pub fn hide_process(&mut self, pid: u32) -> Result<(), VmError> {
        self.run(GuestOp::Hide { pid }).map(|_| ())
    }

    /// Hijack a syscall-table entry (kernel attack primitive).
    ///
    /// # Errors
    ///
    /// Fails if `idx` is out of range.
    pub fn hijack_syscall(&mut self, idx: usize, handler: u64) -> Result<(), VmError> {
        self.run(GuestOp::HijackSyscall { idx, handler })
            .map(|_| ())
    }

    /// Load a kernel module.
    ///
    /// # Errors
    ///
    /// Fails when the module slab is full.
    pub fn load_module(&mut self, name: &str, size: u64) -> Result<(), VmError> {
        self.run(GuestOp::LoadModule {
            name: name.to_owned(),
            size,
        })
        .map(|_| ())
    }

    /// Unload a kernel module by name.
    ///
    /// # Errors
    ///
    /// Fails if the module is not loaded.
    pub fn unload_module(&mut self, name: &str) -> Result<(), VmError> {
        self.run(GuestOp::UnloadModule {
            name: name.to_owned(),
        })
        .map(|_| ())
    }

    /// DKOM-hide a kernel module (rootkit LKM attack primitive).
    ///
    /// # Errors
    ///
    /// Fails if the module is unknown or already hidden.
    pub fn hide_module(&mut self, name: &str) -> Result<(), VmError> {
        self.run(GuestOp::HideModule {
            name: name.to_owned(),
        })
        .map(|_| ())
    }

    /// DKOM credential patch (privilege-escalation attack primitive).
    ///
    /// # Errors
    ///
    /// Fails if `pid` is unknown.
    pub fn escalate_privileges(&mut self, pid: u32) -> Result<(), VmError> {
        self.run(GuestOp::EscalatePrivileges { pid }).map(|_| ())
    }

    /// Open a socket owned by `pid`.
    ///
    /// # Errors
    ///
    /// Fails on unknown pid or a full socket table.
    #[allow(clippy::too_many_arguments)]
    pub fn open_socket(
        &mut self,
        pid: u32,
        proto: u16,
        laddr: u32,
        lport: u16,
        faddr: u32,
        fport: u16,
        state: TcpState,
    ) -> Result<SocketId, VmError> {
        match self.run(GuestOp::OpenSocket {
            pid,
            proto,
            laddr,
            lport,
            faddr,
            fport,
            state,
        })? {
            OpOutcome::Socket(id) => Ok(id),
            other => unreachable!("open_socket returned {other:?}"),
        }
    }

    /// Change a socket's TCP state.
    ///
    /// # Errors
    ///
    /// Fails if the slot is not in use.
    pub fn set_socket_state(&mut self, id: SocketId, state: TcpState) -> Result<(), VmError> {
        self.run(GuestOp::SetSocketState { slot: id.0, state })
            .map(|_| ())
    }

    /// Close a socket.
    ///
    /// # Errors
    ///
    /// Fails if the slot is not in use.
    pub fn close_socket(&mut self, id: SocketId) -> Result<(), VmError> {
        self.run(GuestOp::CloseSocket { slot: id.0 }).map(|_| ())
    }

    /// Open a file handle owned by `pid`.
    ///
    /// # Errors
    ///
    /// Fails on unknown pid or a full file table.
    pub fn open_file(&mut self, pid: u32, path: &str) -> Result<FileId, VmError> {
        match self.run(GuestOp::OpenFile {
            pid,
            path: path.to_owned(),
        })? {
            OpOutcome::File(id) => Ok(id),
            other => unreachable!("open_file returned {other:?}"),
        }
    }

    /// Close a file handle.
    ///
    /// # Errors
    ///
    /// Fails if the slot is not in use.
    pub fn close_file(&mut self, id: FileId) -> Result<(), VmError> {
        self.run(GuestOp::CloseFile { slot: id.0 }).map(|_| ())
    }

    /// Write up to one sector to the guest's virtual disk (speculative
    /// state: checkpointed and rolled back with memory).
    ///
    /// # Errors
    ///
    /// Fails if the sector is out of range or the data exceeds a sector.
    pub fn write_disk(&mut self, sector: u64, data: &[u8]) -> Result<(), VmError> {
        self.run(GuestOp::WriteDisk {
            sector,
            data: data.to_vec(),
        })
        .map(|_| ())
    }

    /// Advance simulated guest time.
    pub fn advance_time(&mut self, ns: u64) {
        self.run(GuestOp::AdvanceTime { ns })
            .expect("advance_time cannot fail");
    }

    // ---- snapshot / rollback -----------------------------------------------

    /// Capture a full snapshot (memory + guest-library + kernel state).
    pub fn snapshot(&self) -> VmSnapshot {
        VmSnapshot {
            frames: self.mem.dump_frames(),
            disk: self.disk.dump(),
            kernel: self.kernel.clone(),
            procs: self.procs.clone(),
            heap: self.heap.clone(),
            vcpus: self.vcpus.clone(),
            now_ns: self.now_ns,
        }
    }

    /// Roll the VM back to `snap`. Dirty tracking and watchpoints are
    /// cleared; the trace is left untouched so the caller can still replay.
    pub fn restore(&mut self, snap: &VmSnapshot) {
        self.restore_with_frames(&snap.frames, &snap.meta());
        self.disk.restore(&snap.disk);
    }

    /// Capture only the host-side bookkeeping (kernel/process/heap mirrors,
    /// vCPUs, clock) *without* copying memory. Pair with the checkpointer's
    /// incrementally-maintained backup frames to roll back at dirty-page
    /// cost instead of full-memory cost. In a real VM this state lives in
    /// guest memory and the page restore alone would recover it; the
    /// simulation keeps redundant host-side mirrors, so they are snapshotted
    /// alongside.
    pub fn meta_snapshot(&self) -> MetaSnapshot {
        MetaSnapshot {
            kernel: self.kernel.clone(),
            procs: self.procs.clone(),
            heap: self.heap.clone(),
            vcpus: self.vcpus.clone(),
            now_ns: self.now_ns,
        }
    }

    /// Roll back to a frame image (machine-frame order, as produced by
    /// [`GuestMemory::dump_frames`] or a backup VM) plus the matching
    /// bookkeeping snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `frames` does not match this VM's memory size.
    pub fn restore_with_frames(&mut self, frames: &[u8], meta: &MetaSnapshot) {
        self.mem.restore_frames(frames);
        self.mem.take_dirty();
        self.mem.watches_mut().clear();
        self.kernel = meta.kernel.clone();
        self.procs = meta.procs.clone();
        self.heap = meta.heap.clone();
        self.vcpus = meta.vcpus.clone();
        self.now_ns = meta.now_ns;
    }

    // ---- internals -----------------------------------------------------------

    /// Record (if enabled) and apply.
    fn run(&mut self, op: GuestOp) -> Result<OpOutcome, VmError> {
        let outcome = self.apply_inner(&op)?;
        self.trace.record(op);
        Ok(outcome)
    }

    fn apply_inner(&mut self, op: &GuestOp) -> Result<OpOutcome, VmError> {
        match op {
            GuestOp::Spawn {
                name,
                uid,
                heap_pages,
            } => {
                let mapping = self.procs.reserve(*heap_pages)?;
                // If the kernel spawn fails, the reserved arena stays leaked
                // — acceptable for the bump allocator this simulation uses.
                let pid = self.kernel.spawn(
                    &mut self.mem,
                    name,
                    *uid,
                    mapping.virt_base,
                    mapping.phys_base,
                    mapping.len,
                    self.now_ns,
                )?;
                self.procs.insert(crate::process::Process {
                    pid,
                    name: name.clone(),
                    mapping,
                    heap_cursor: 0,
                });
                Ok(OpOutcome::Pid(pid))
            }
            GuestOp::Exit { pid } => {
                self.kernel.exit(&mut self.mem, *pid)?;
                self.heap.release_process(&mut self.mem, &self.layout, *pid);
                self.procs.remove(*pid)?;
                Ok(OpOutcome::Unit)
            }
            GuestOp::Malloc { pid, size } => {
                let gva =
                    self.heap
                        .malloc(&mut self.mem, &mut self.procs, &self.layout, *pid, *size)?;
                Ok(OpOutcome::Alloc(gva))
            }
            GuestOp::Free { pid, gva } => {
                self.heap
                    .free(&mut self.mem, &self.procs, &self.layout, *pid, Gva(*gva))?;
                Ok(OpOutcome::Unit)
            }
            GuestOp::WriteUser {
                pid,
                gva,
                data,
                rip,
            } => {
                let proc = self
                    .procs
                    .get(*pid)
                    .ok_or(VmError::Process(ProcessError::NoSuchProcess(*pid)))?;
                let gpa = self.translate_user(proc.mapping, *pid, Gva(*gva), data.len())?;
                self.mem.set_exec_rip(*rip);
                self.mem.write(gpa, data);
                if let Some(cpu) = self.vcpus.get_mut(0) {
                    cpu.rip = *rip;
                }
                Ok(OpOutcome::Unit)
            }
            GuestOp::DirtyArena {
                pid,
                page_idx,
                offset,
                val,
            } => {
                let proc = self
                    .procs
                    .get(*pid)
                    .ok_or(VmError::Process(ProcessError::NoSuchProcess(*pid)))?;
                let pages = (proc.mapping.len as usize) / PAGE_SIZE;
                if *page_idx >= pages {
                    return Err(VmError::BadArenaPage {
                        pid: *pid,
                        page_idx: *page_idx,
                    });
                }
                let gpa = proc
                    .mapping
                    .phys_base
                    .add((*page_idx * PAGE_SIZE + (offset % PAGE_SIZE)) as u64);
                self.mem.set_exec_rip(WORKLOAD_RIP);
                self.mem.write(gpa, &[*val]);
                Ok(OpOutcome::Unit)
            }
            GuestOp::Hide { pid } => {
                self.kernel.hide_process(&mut self.mem, *pid)?;
                Ok(OpOutcome::Unit)
            }
            GuestOp::HijackSyscall { idx, handler } => {
                self.kernel.hijack_syscall(&mut self.mem, *idx, *handler)?;
                Ok(OpOutcome::Unit)
            }
            GuestOp::LoadModule { name, size } => {
                self.kernel.load_module(&mut self.mem, name, *size)?;
                Ok(OpOutcome::Unit)
            }
            GuestOp::UnloadModule { name } => {
                self.kernel.unload_module(&mut self.mem, name)?;
                Ok(OpOutcome::Unit)
            }
            GuestOp::HideModule { name } => {
                self.kernel.hide_module(&mut self.mem, name)?;
                Ok(OpOutcome::Unit)
            }
            GuestOp::EscalatePrivileges { pid } => {
                self.kernel.escalate_privileges(&mut self.mem, *pid)?;
                Ok(OpOutcome::Unit)
            }
            GuestOp::OpenSocket {
                pid,
                proto,
                laddr,
                lport,
                faddr,
                fport,
                state,
            } => {
                let id = self.kernel.open_socket(
                    &mut self.mem,
                    *pid,
                    *proto,
                    *laddr,
                    *lport,
                    *faddr,
                    *fport,
                    *state,
                )?;
                Ok(OpOutcome::Socket(id))
            }
            GuestOp::SetSocketState { slot, state } => {
                self.kernel
                    .set_socket_state(&mut self.mem, SocketId(*slot), *state)?;
                Ok(OpOutcome::Unit)
            }
            GuestOp::CloseSocket { slot } => {
                self.kernel.close_socket(&mut self.mem, SocketId(*slot))?;
                Ok(OpOutcome::Unit)
            }
            GuestOp::OpenFile { pid, path } => {
                let id = self.kernel.open_file(&mut self.mem, *pid, path)?;
                Ok(OpOutcome::File(id))
            }
            GuestOp::CloseFile { slot } => {
                self.kernel.close_file(&mut self.mem, FileId(*slot))?;
                Ok(OpOutcome::Unit)
            }
            GuestOp::WriteDisk { sector, data } => {
                if *sector >= self.disk.sectors() as u64 || data.len() > crate::disk::SECTOR_SIZE {
                    return Err(VmError::BadDiskWrite {
                        sector: *sector,
                        len: data.len(),
                    });
                }
                self.disk.write_sector(*sector, data);
                Ok(OpOutcome::Unit)
            }
            GuestOp::AdvanceTime { ns } => {
                self.now_ns += ns;
                Ok(OpOutcome::Unit)
            }
        }
    }

    fn translate_user(
        &self,
        mapping: crate::process::UserMapping,
        pid: u32,
        gva: Gva,
        len: usize,
    ) -> Result<Gpa, VmError> {
        let start = mapping
            .translate(gva)
            .ok_or(VmError::BadUserAddress { pid, gva })?;
        if len > 1 {
            let last = gva.add(len as u64 - 1);
            mapping
                .translate(last)
                .ok_or(VmError::BadUserAddress { pid, gva: last })?;
        }
        Ok(start)
    }
}

/// Synthetic rip attributed to ordinary workload stores.
pub const WORKLOAD_RIP: u64 = 0x0000_4000_0000_0000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Pfn;

    fn vm() -> Vm {
        let mut b = Vm::builder();
        b.pages(4096).seed(11);
        b.build()
    }

    #[test]
    fn builder_produces_clean_vm() {
        let vm = vm();
        assert!(vm.memory().dirty().is_empty(), "boot writes must not leak");
        assert_eq!(vm.now_ns(), 0);
        assert_eq!(vm.vcpus().len(), 2);
    }

    #[test]
    fn spawn_allocates_arena_and_pid() {
        let mut vm = vm();
        let pid = vm.spawn_process("nginx", 33, 64).unwrap();
        assert_eq!(pid, 1);
        let proc = vm.processes().get(pid).unwrap();
        assert_eq!(proc.name, "nginx");
        assert_eq!(proc.mapping.len, 64 * PAGE_SIZE as u64);
    }

    #[test]
    fn malloc_write_read_round_trip() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 64).unwrap();
        let obj = vm.malloc(pid, 128).unwrap();
        vm.write_user(pid, obj, b"payload", 0x1000).unwrap();
        let mut buf = [0u8; 7];
        vm.read_user(pid, obj, &mut buf).unwrap();
        assert_eq!(&buf, b"payload");
    }

    #[test]
    fn overflow_tramples_canary() {
        let mut vm = vm();
        let pid = vm.spawn_process("victim", 0, 64).unwrap();
        let obj = vm.malloc(pid, 16).unwrap();
        // Write 24 bytes into a 16-byte object: classic heap overflow.
        vm.write_user(pid, obj, &[0x41u8; 24], 0xbad).unwrap();
        let mut canary = [0u8; CANARY_LEN];
        vm.read_user(pid, obj.add(16), &mut canary).unwrap();
        assert_eq!(canary, [0x41u8; CANARY_LEN]);
        assert_ne!(canary, vm.canary_secret());
    }

    #[test]
    fn write_user_beyond_mapping_fails() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 1).unwrap();
        let end = vm.processes().get(pid).unwrap().mapping.virt_end();
        assert!(matches!(
            vm.write_user(pid, end, &[0], 0),
            Err(VmError::BadUserAddress { .. })
        ));
    }

    #[test]
    fn dirty_arena_page_dirties_one_page() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 8).unwrap();
        vm.memory_mut().take_dirty(); // discard the spawn's kernel writes
        vm.dirty_arena_page(pid, 3, 100, 7).unwrap();
        let phys = vm.processes().get(pid).unwrap().mapping.phys_base;
        let pfn = Pfn(phys.0 / PAGE_SIZE as u64 + 3);
        assert!(vm.memory().dirty().is_dirty(pfn));
        assert_eq!(vm.memory().dirty().count(), 1);
    }

    #[test]
    fn dirty_arena_out_of_range_fails() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 2).unwrap();
        assert!(matches!(
            vm.dirty_arena_page(pid, 2, 0, 0),
            Err(VmError::BadArenaPage { .. })
        ));
    }

    #[test]
    fn snapshot_restore_round_trips_memory_and_state() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 8).unwrap();
        let obj = vm.malloc(pid, 32).unwrap();
        vm.write_user(pid, obj, b"before", 0).unwrap();
        vm.advance_time(500);
        let snap = vm.snapshot();

        vm.write_user(pid, obj, b"AFTER!", 0).unwrap();
        let evil = vm.spawn_process("evil", 0, 1).unwrap();
        vm.advance_time(500);
        vm.restore(&snap);

        let mut buf = [0u8; 6];
        vm.read_user(pid, obj, &mut buf).unwrap();
        assert_eq!(&buf, b"before");
        assert!(vm.processes().get(evil).is_none());
        assert_eq!(vm.now_ns(), 500);
        assert!(vm.memory().dirty().is_empty());
    }

    #[test]
    fn trace_replay_reproduces_memory_exactly() {
        let mut vm = vm();
        vm.set_recording(true);
        let pid = vm.spawn_process("app", 0, 16).unwrap();
        let snap = vm.snapshot();
        let mark = vm.trace_mark();

        // "Epoch": mixed legitimate work plus an attack.
        let a = vm.malloc(pid, 64).unwrap();
        vm.write_user(pid, a, &[1u8; 80], 0xdead_0001).unwrap(); // overflow
        vm.dirty_arena_page(pid, 5, 9, 3).unwrap();
        vm.advance_time(1000);
        let final_image = vm.memory().dump_frames();
        let ops = vm.trace_since(mark);

        // Roll back and replay.
        vm.restore(&snap);
        for op in &ops {
            vm.apply(op).unwrap();
        }
        assert_eq!(vm.memory().dump_frames(), final_image);
        assert_eq!(vm.now_ns(), 1000);
    }

    #[test]
    fn replay_does_not_append_to_trace() {
        let mut vm = vm();
        vm.set_recording(true);
        vm.advance_time(1);
        let before = vm.trace_since(TraceMark(0)).len();
        vm.apply(&GuestOp::AdvanceTime { ns: 1 }).unwrap();
        assert_eq!(vm.trace_since(TraceMark(0)).len(), before);
    }

    #[test]
    fn exit_releases_canaries_and_kernel_state() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 8).unwrap();
        vm.malloc(pid, 32).unwrap();
        vm.open_file(pid, "/tmp/x").unwrap();
        vm.exit_process(pid).unwrap();
        assert_eq!(vm.heap().live_count(), 0);
        assert!(vm.processes().get(pid).is_none());
        assert!(vm.kernel().task_slot_of(pid).is_none());
    }

    #[test]
    fn pids_are_deterministic_across_builds() {
        let mk = || {
            let mut b = Vm::builder();
            b.pages(4096).seed(5);
            let mut vm = b.build();
            (
                vm.spawn_process("a", 0, 1).unwrap(),
                vm.spawn_process("b", 0, 1).unwrap(),
            )
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn canary_secret_differs_across_seeds() {
        let mut b1 = Vm::builder();
        b1.pages(4096).seed(1);
        let mut b2 = Vm::builder();
        b2.pages(4096).seed(2);
        assert_ne!(b1.build().canary_secret(), b2.build().canary_secret());
    }

    #[test]
    fn memory_mib_builder_sets_pages() {
        let mut b = Vm::builder();
        b.memory_mib(16).seed(0);
        let vm = b.build();
        assert_eq!(vm.memory().num_pages(), 4096);
    }

    #[test]
    fn vm_errors_display_and_chain() {
        let mut vm = vm();
        let err = vm.exit_process(999).unwrap_err();
        assert!(!err.to_string().is_empty());
        assert!(std::error::Error::source(&err).is_some());
    }
}
