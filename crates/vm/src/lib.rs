//! # crimes-vm — simulated guest VM substrate
//!
//! This crate is the foundation of the [CRIMES] reproduction: a simulated
//! guest virtual machine whose memory, kernel data structures, processes,
//! and heap allocations are all real bytes in page-backed storage, so that
//! checkpointing, introspection, and forensics built on top pay genuine
//! memory-system costs and can be benchmarked meaningfully.
//!
//! The paper's artifact patches Xen and introspects real OpenSUSE/Windows
//! guests; no hypervisor is available here, so this substrate provides the
//! closest synthetic equivalent (see `DESIGN.md` for the substitution
//! table). Hypervisor-side crates (`crimes-vmi`, `crimes-checkpoint`,
//! `crimes-forensics`) interact with a [`Vm`] only through:
//!
//! * raw memory reads/writes ([`GuestMemory`]); every host-side read goes
//!   through [`GuestMemory::peek`] and returns a [`Guest<T>`],
//! * the PFN→MFN table and dirty bitmap (what Xen exposes to Remus),
//! * the [`SystemMap`] symbol file a provider holds for a known kernel,
//! * page watchpoints ([`watch`]) standing in for Xen memory events.
//!
//! # Example
//!
//! ```
//! use crimes_vm::Vm;
//!
//! # fn main() -> Result<(), crimes_vm::VmError> {
//! let mut builder = Vm::builder();
//! builder.pages(4096).seed(7);
//! let mut vm = builder.build();
//!
//! // Run a guest process that allocates through the canary wrapper.
//! let pid = vm.spawn_process("webapp", 1000, 64)?;
//! let obj = vm.malloc(pid, 256)?;
//! vm.write_user(pid, obj, b"hello", 0x40_1000)?;
//!
//! // The hypervisor side sees dirty pages accumulate.
//! assert!(vm.memory().dirty().count() > 0);
//! # Ok(())
//! # }
//! ```
//!
//! [CRIMES]: https://doi.org/10.1145/3274808.3274812

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod dirty;
pub mod disk;
pub mod guest;
pub mod heap;
pub mod kernel;
pub mod layout;
pub mod mem;
pub mod process;
#[cfg(test)]
mod proptests;
pub mod symbols;
pub mod trace;
pub mod vcpu;
pub mod vm;
pub mod watch;

pub use addr::{Gpa, Gva, Mfn, Pfn, KERNEL_VIRT_BASE, PAGE_SIZE};
pub use dirty::DirtyBitmap;
pub use disk::{VirtualDisk, SECTOR_SIZE};
pub use guest::{Guest, OutOfRange};
pub use heap::{Allocation, CanaryHeap, HeapError};
pub use kernel::{FileId, Kernel, KernelError, SocketId, TaskState, TcpState};
pub use layout::{KernelLayout, CANARY_LEN};
pub use mem::GuestMemory;
pub use process::{Process, ProcessError, ProcessTable, UserMapping};
pub use symbols::SystemMap;
pub use trace::{GuestOp, Trace, TraceMark};
pub use vcpu::{Vcpu, VcpuSet, VcpuState};
pub use vm::{MetaSnapshot, OpOutcome, Vm, VmBuilder, VmError, VmSnapshot, WORKLOAD_RIP};
pub use watch::{MemoryEvent, WatchSet};
