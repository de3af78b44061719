//! # crimes — evidence-based security for cloud VMs
//!
//! A full reproduction of **CRIMES: Using Evidence to Secure the Cloud**
//! (Middleware '18) as a Rust library. CRIMES protects a VM by running it
//! *speculatively* in short epochs with all external outputs buffered;
//! at each epoch boundary the VM is paused and VMI-based scan modules
//! audit its memory for evidence of attacks (trampled heap canaries,
//! blacklisted processes, hijacked syscall tables, hidden tasks). A
//! passing audit commits a Remus-style checkpoint and releases the
//! buffered outputs; a failing audit leaves the attack contained —
//! the Analyzer rolls back, deterministically replays the epoch under
//! memory-event monitoring to pinpoint the corrupting instruction, and
//! renders an automated forensic report.
//!
//! The hypervisor substrate (guest VM, checkpointing, introspection,
//! forensics, buffering, workloads) lives in the sibling `crimes-*`
//! crates; this crate is the framework that composes them: [`Crimes`],
//! [`Detector`]/[`ScanModule`], and [`Analyzer`].
//!
//! # Quickstart
//!
//! ```
//! use crimes::modules::CanaryScanModule;
//! use crimes::{Crimes, CrimesConfig, EpochOutcome};
//! use crimes_vm::Vm;
//! use crimes_workloads::attacks;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Boot a guest and protect it with 50 ms epochs.
//! let mut builder = Vm::builder();
//! builder.pages(4096).seed(1);
//! let vm = builder.build();
//! let mut config = CrimesConfig::builder();
//! config.epoch_interval_ms(50);
//! let mut crimes = Crimes::protect(vm, config.build()?)?;
//! let secret = crimes.vm().canary_secret();
//! crimes.register_module(Box::new(CanaryScanModule::new(secret)));
//!
//! // A clean epoch commits…
//! let pid = crimes.vm_mut().spawn_process("app", 0, 16)?;
//! assert!(crimes.run_epoch(|_vm, _ms| Ok(()))?.is_committed());
//!
//! // …an epoch containing a heap overflow is detected and contained.
//! let outcome = crimes.run_epoch(|vm, _ms| {
//!     attacks::inject_heap_overflow(vm, pid, 64, 16)?;
//!     Ok(())
//! })?;
//! assert!(matches!(outcome, EpochOutcome::AttackDetected { .. }));
//! let analysis = crimes.investigate()?;
//! assert!(analysis.pinpoint.is_some()); // the exact faulting instruction
//! crimes.rollback_and_resume()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// The pause window runs in this crate: no console I/O (the allocation
// test, tests/pause_alloc.rs, holds it to no heap growth either).
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod analyzer;
pub mod async_scan;
pub mod config;
pub mod detector;
pub mod error;
mod evidence;
pub mod fleet;
pub mod framework;
pub mod modules;
pub mod replay;
pub mod scheduler;

pub use analyzer::{Analysis, AnalysisDumps, Analyzer};
pub use async_scan::{AsyncScanResult, AsyncScanStats, AsyncScanner};
pub use config::{CrimesConfig, CrimesConfigBuilder};
pub use detector::{
    AuditReport, Detection, Detector, ModuleTiming, ScanContext, ScanFinding, ScanModule,
};
pub use error::CrimesError;
pub use evidence::{RecentEvents, FLIGHT_RECORDER_EVENTS};
pub use fleet::{Fleet, FleetEpochSummary, FleetStats};
pub use framework::{BoundaryProgress, Crimes, EpochOutcome, PendingBoundary, RobustnessStats};
pub use replay::{AttackPinpoint, ReplayEngine};
pub use scheduler::{FleetScheduler, FleetSchedulerConfig, SchedulerStats};
