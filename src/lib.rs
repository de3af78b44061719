//! # crimes-repro — umbrella crate for the CRIMES reproduction
//!
//! Re-exports the whole stack under one roof so examples and integration
//! tests can `use crimes_repro::...`. See the individual crates for the
//! real documentation:
//!
//! * [`crimes`] — the framework (Checkpointer + Detector + Analyzer),
//! * [`vm`] — the simulated guest substrate,
//! * [`checkpoint`] — Remus-style continuous checkpointing,
//! * [`vmi`] — LibVMI-style introspection,
//! * [`forensics`] — Volatility-style post-mortem analysis,
//! * [`outbuf`] — speculative-execution output buffering,
//! * [`workloads`] — PARSEC/web workloads, the ASan baseline, attacks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use crimes;
pub use crimes_checkpoint as checkpoint;
pub use crimes_forensics as forensics;
pub use crimes_outbuf as outbuf;
pub use crimes_vm as vm;
pub use crimes_vmi as vmi;
pub use crimes_workloads as workloads;
