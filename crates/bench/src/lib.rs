//! # crimes-bench — the reproduction harness
//!
//! Experiment runners regenerating **every table and figure** in the
//! CRIMES paper's evaluation (§5), plus the shared machinery they use.
//! The `repro` binary drives them; the timing benches under `benches/`
//! (built on the in-tree [`harness`]) measure the same code paths
//! statistically.
//!
//! | Experiment | Module |
//! |---|---|
//! | Table 1 (pause breakdown by web intensity) | [`experiments::table1`] |
//! | Figure 3 (PARSEC overhead by scheme + ASan) | [`experiments::fig3`] |
//! | Figure 4 (swaptions phase breakdown) | [`experiments::fig4`] |
//! | Figure 5 (interval sweep) | [`experiments::fig5`] |
//! | Figure 6a/6b (fluidanimate + bitmap scan) | [`experiments::fig6`] |
//! | Table 3 (VMI cost split) | [`experiments::table3`] |
//! | Figure 7 (web latency/throughput) | [`experiments::fig7`] |
//! | §5.5 / §5.6 case studies | [`experiments::cases`] |
//! | Robustness soak (degraded-mode counters) | [`experiments::robustness`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod harness;
pub mod runtime;
pub mod text;

/// Serialise wall-clock measurements across this crate's tests.
///
/// The experiment tests assert on measured phase timings; running a dozen
/// of them in parallel threads (the test harness default) makes them
/// measure each other's CPU contention instead of the code under test.
/// Timing-sensitive tests take this guard first.
pub fn measurement_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| std::sync::Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Run a wall-clock-sensitive assertion body at increasing sample sizes,
/// stopping at the first size whose assertions hold.
///
/// Some experiment tests assert *orderings* of measured phase durations
/// (pause grows with interval, copy dominates No-opt, …). The orderings
/// are real, but at small epoch counts a scheduler hiccup on a loaded CI
/// box can flip a sub-millisecond comparison. Escalating the epoch count
/// shrinks noise relative to signal — the statistically sound response —
/// while a genuine regression keeps failing at every size: the final
/// attempt runs unprotected, so its panic fails the test.
///
/// # Panics
///
/// Propagates the body's panic on the last attempt. Panics if `sizes` is
/// empty.
pub fn assert_with_escalating_samples(name: &str, sizes: &[u32], body: impl Fn(u32)) {
    assert!(!sizes.is_empty(), "need at least one sample size");
    for (attempt, &n) in sizes.iter().enumerate() {
        if attempt + 1 == sizes.len() {
            body(n);
            return;
        }
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(n))).is_ok() {
            return;
        }
        eprintln!(
            "{name}: timing assertions failed at {n} epochs (attempt {}); \
             retrying with a larger sample",
            attempt + 1
        );
    }
}

pub use runtime::{geometric_mean, run_parsec, run_web, RunStats, PARSEC_GUEST_PAGES};
pub use text::TextTable;
