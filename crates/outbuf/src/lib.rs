//! # crimes-outbuf — speculative-execution output buffering
//!
//! CRIMES lets a VM run *speculatively* inside each epoch: all external
//! outputs (network packets, disk writes) are held in the hypervisor and
//! only released once the end-of-epoch security audit passes. If the audit
//! fails, the buffered outputs are discarded with the rollback, so an
//! attacker's exfiltration never leaves the machine — the zero window of
//! vulnerability guarantee (§3.1).
//!
//! [`OutputBuffer`] implements both safety modes the evaluation compares
//! (Figure 7): [`SafetyMode::Synchronous`] (hold everything) and
//! [`SafetyMode::BestEffort`] (pass through, detect-only).
//!
//! # Example
//!
//! ```
//! use crimes_outbuf::{NetPacket, Output, OutputBuffer, SafetyMode};
//!
//! let mut buf = OutputBuffer::new(SafetyMode::Synchronous);
//! buf.submit(Output::Net(NetPacket::new(1, b"secret".as_slice())), 0)
//!     .expect("unbounded buffer");
//! // ... audit fails → rollback:
//! assert_eq!(buf.discard(), 1); // the packet never escaped
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod buffer;
pub mod output;
pub mod scan;

#[cfg(test)]
mod proptests;

pub use buffer::{BufferError, BufferStats, OutputBuffer, SafetyMode};
pub use output::{DiskWrite, NetPacket, Output};
pub use scan::{OutputMatch, OutputScanner, OutputSignature};
