//! # crimes-checkpoint — continuous checkpointing with security audits
//!
//! A from-scratch reimplementation of the checkpointing layer CRIMES builds
//! on Xen's Remus, over the `crimes-vm` substrate:
//!
//! * a local [`BackupVm`] image updated with each epoch's dirty pages,
//! * the unoptimised Remus pipeline (socket + cipher copy, per-epoch
//!   PFN→MFN mapping, bit-by-bit dirty scans), and
//! * the paper's three optimisations — in-memory `memcpy`, global
//!   pre-mapping, and word-wise bitmap scanning (§4.1) — selectable via
//!   [`OptLevel`] so every figure comparing them can be regenerated,
//! * per-phase pause timings matching Table 1 / Figure 4's rows, on an
//!   injectable clock ([`Checkpointer::with_clock`]),
//! * a checkpoint [`history`] ring (the paper's proposed extension).
//!
//! # Example
//!
//! ```
//! use crimes_checkpoint::{AuditVerdict, CheckpointConfig, Checkpointer};
//! use crimes_vm::Vm;
//!
//! # fn main() -> Result<(), crimes_vm::VmError> {
//! let mut builder = Vm::builder();
//! builder.pages(2048);
//! let mut vm = builder.build();
//! let pid = vm.spawn_process("app", 0, 16)?;
//!
//! let mut cp = Checkpointer::new(&vm, CheckpointConfig::default());
//! vm.dirty_arena_page(pid, 0, 0, 1)?;
//! let report = cp
//!     .run_epoch(&mut vm, &mut |_vm, _dirty| AuditVerdict::Pass)
//!     .expect("no fault injection armed");
//! assert_eq!(report.verdict, AuditVerdict::Pass);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// The workspace's one `unsafe` block is in `resident` (see its header);
// every other crate forbids the keyword outright.
#![deny(unsafe_code)]

pub mod backup;
pub mod bitmap;
pub mod copy;
pub mod delta;
pub mod engine;
pub mod error;
pub mod history;
pub mod integrity;
pub mod mapping;
pub mod pool;
#[allow(unsafe_code)]
pub mod resident;
pub mod staging;
pub mod startup;

pub use backup::BackupVm;
pub use bitmap::{scan_bit_by_bit, scan_wordwise, BitmapScan};
pub use copy::{CopyStats, CopyStrategy, PageCopier};
pub use delta::{
    apply_page, encode_page, scan_page, wire_len, wire_len_for, DeltaRun, PageEncoding, PageScan,
};
pub use engine::{
    AuditVerdict, CheckpointConfig, Checkpointer, DrainStats, EpochReport, OptLevel, Phase,
    RollbackReport, COPY_RETRIES,
};
pub use error::CheckpointError;
pub use history::{CheckpointHistory, CheckpointRecord};
pub use integrity::{chunk_digest, content_digest, image_digest, FusedDigest, ImageDigest};
pub use mapping::{HypercallModel, MappedPage, Mapper, MappingStrategy};
pub use pool::{
    FusedAudit, FusedPageVisitor, NoopVisitor, PageCtx, PageFinding, PauseWindowPool, PoolLease,
    ShardSink, SharedPausePool, MAX_WORKERS,
};
pub use resident::{Resident, Task};
pub use staging::{DrainTicket, StagingArea};
