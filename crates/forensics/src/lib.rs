//! # crimes-forensics — Volatility-style memory forensics
//!
//! The post-mortem half of CRIMES: everything the Analyzer runs once the
//! Detector has flagged an epoch. Works entirely on [`MemoryDump`]
//! artifacts (clean checkpoint, audit-failure state, attack instant), so
//! analysis never needs the live VM:
//!
//! * [`plugins`] — `pslist`, `psscan`, `psxview`, `procdump`, `netscan`,
//!   `handles`, `modscan` reimplementations, called directly by the
//!   Analyzer and the async scans,
//! * [`DumpDiff`] — clean-vs-attacked dump differencing (§3.3),
//! * [`ReportBuilder`] — the §5.6-style security report.
//!
//! # Example
//!
//! ```
//! use crimes_forensics::{DumpKind, MemoryDump};
//! use crimes_vm::Vm;
//! use crimes_vmi::Symbols;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut builder = Vm::builder();
//! builder.pages(2048);
//! let mut vm = builder.build();
//! let evil = vm.spawn_process("rootkit", 0, 2)?;
//! vm.hide_process(evil)?;
//!
//! let symbols = Symbols::parse(vm.system_map())?;
//! let dump = MemoryDump::from_vm(&vm, &symbols, DumpKind::AuditFailure);
//! let session = dump.open_session()?;
//! let rows = crimes_forensics::plugins::psxview(&session, &dump)?;
//! assert!(rows.iter().any(|r| r.pid == evil && r.is_suspicious()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod diff;
pub mod dump;
pub mod plugins;
pub mod report;

pub use diff::DumpDiff;
pub use dump::{DumpKind, MemoryDump};
pub use plugins::{FileHandleInfo, PsxviewRow, ScannedTask, SocketInfo};
pub use report::{ReportBuilder, SecurityReport};
