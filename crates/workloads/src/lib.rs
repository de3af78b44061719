//! # crimes-workloads — workloads, baselines, and attack injectors
//!
//! Everything the CRIMES evaluation runs *inside* (or against) the guest:
//!
//! * [`mod@profile`] / [`parsec`] — the eleven PARSEC 3.0 benchmark profiles
//!   and the driver that turns them into real guest page writes and
//!   canary-heap churn (Figures 3–6),
//! * [`asan`] — an AddressSanitizer-style shadow-memory baseline whose
//!   slowdown is *measured*, not assumed (the `AS` bars of Figure 3),
//! * [`web`] — the closed-loop `wrk`/NGINX simulation (Figure 7) and the
//!   Light/Medium/High guest loads behind Table 1,
//! * [`attacks`] — reproducible injectors for the heap-overflow (§5.5),
//!   malware (§5.6), rootkit-hide, and syscall-hijack attacks,
//! * [`blacklist`] — the stand-in for the McAfee malware registry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod asan;
pub mod attacks;
pub mod blacklist;
pub mod parsec;
pub mod profile;
pub mod web;

pub use asan::{measure_slowdown, workload_slowdown, AsanArena, AsanSlowdown, AsanViolation};
pub use attacks::{
    inject_heap_overflow, inject_malware_launch, inject_privilege_escalation,
    inject_rootkit_hide, inject_syscall_hijack, AttackRecord,
};
pub use blacklist::{Blacklist, DEFAULT_BLACKLIST};
pub use parsec::ParsecWorkload;
pub use profile::{profile, ParsecProfile, FIG5_BENCHMARKS, PROFILES};
pub use web::{WebIntensity, WebMode, WebServerWorkload, WebSim, WebSimConfig, WebSimResult};
