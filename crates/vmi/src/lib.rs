//! # crimes-vmi — virtual machine introspection
//!
//! A from-scratch LibVMI equivalent over the `crimes-vm` substrate. The
//! hypervisor side sees a guest only through raw memory reads plus the
//! provider's `System.map` — the same contract LibVMI has with a real Xen
//! guest — and reconstructs typed views of kernel state:
//!
//! * [`VmiSession`] — one-time expensive init (symbol parse, kernel
//!   detection, translation caches), then cheap per-checkpoint scans; the
//!   phase split Table 3 measures,
//! * [`linux`] — `process-list`, `module-list`, syscall-table, and pid-hash
//!   readers (the unaided scan modules of §4.2),
//! * [`CanaryScanner`] — the hypervisor half of the guest-aided
//!   buffer-overflow module, with dirty-page-scoped scanning,
//! * [`MemEventMonitor`] — the `VMI_EVENT_MEMORY` stand-in used during
//!   attack replay.
//!
//! # Example
//!
//! ```
//! use crimes_vm::Vm;
//! use crimes_vmi::{linux, VmiSession};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut builder = Vm::builder();
//! builder.pages(2048);
//! let mut vm = builder.build();
//! vm.spawn_process("nginx", 33, 8)?;
//!
//! let session = VmiSession::init(&vm)?;
//! let tasks = linux::process_list(&session, vm.memory())?;
//! assert!(tasks.iter().any(|t| t.comm == "nginx"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod canary;
pub mod error;
pub mod events;
pub mod linux;
#[cfg(test)]
mod proptests;
pub mod session;

pub use canary::{
    CanaryScanReport, CanaryScanner, CanaryViolation, PreparedCanaries, PreparedCheck,
};
pub use error::VmiError;
pub use events::MemEventMonitor;
pub use linux::{ModuleInfo, PidHashEntry, ScannedModule, TaskInfo};
pub use session::{AddressSpace, InitTimings, VmiSession};
