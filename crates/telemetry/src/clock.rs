//! Injectable monotonic time.
//!
//! The framework's deadline logic ("did the audit overrun?") and its
//! retry backoff used to call `Instant::now` / `thread::sleep` directly,
//! which made the extension/quarantine state machine testable only via
//! real sleeps. Production code now takes a [`Clock`]; tests inject a
//! [`TestClock`] and advance virtual time explicitly.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic time source measured in nanoseconds since an arbitrary
/// origin. Implementations must be monotone: `now_ns` never decreases.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Nanoseconds since this clock's origin.
    fn now_ns(&self) -> u64;

    /// Block (or, for virtual clocks, advance) for `d`.
    fn sleep(&self, d: Duration);
}

/// The production clock: wraps [`Instant`], anchored at construction so
/// `now_ns` fits comfortably in a `u64` for centuries.
pub struct RealClock {
    origin: Instant,
}

impl RealClock {
    /// A clock anchored at "now".
    #[expect(clippy::disallowed_methods, reason = "the one wall-clock read")]
    pub fn new() -> Self {
        RealClock {
            origin: Instant::now(),
        }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        RealClock::new()
    }
}

impl fmt::Debug for RealClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RealClock").finish_non_exhaustive()
    }
}

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    #[expect(clippy::disallowed_methods, reason = "the one real sleep")]
    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A deterministic virtual clock for tests. Cloning shares the same
/// underlying counter, so a handle kept by the test observes (and can
/// advance past) time consumed by the code under test; `sleep` advances
/// virtual time instead of blocking.
#[derive(Debug, Clone, Default)]
pub struct TestClock {
    ns: Arc<AtomicU64>,
}

impl TestClock {
    /// A virtual clock starting at 0 ns.
    pub fn new() -> Self {
        TestClock::default()
    }

    /// Advance virtual time by `d`.
    pub fn advance(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.ns.fetch_add(ns, Ordering::SeqCst);
    }

    /// Advance virtual time by `ns` nanoseconds.
    pub fn advance_ns(&self, ns: u64) {
        self.ns.fetch_add(ns, Ordering::SeqCst);
    }
}

impl Clock for TestClock {
    fn now_ns(&self) -> u64 {
        self.ns.load(Ordering::SeqCst)
    }

    fn sleep(&self, d: Duration) {
        self.advance(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_clock_advances_and_shares_state_across_clones() {
        let c = TestClock::new();
        let shared = c.clone();
        assert_eq!(c.now_ns(), 0);
        c.advance(Duration::from_millis(3));
        assert_eq!(shared.now_ns(), 3_000_000);
        shared.sleep(Duration::from_micros(7));
        assert_eq!(c.now_ns(), 3_007_000);
        c.advance_ns(13);
        assert_eq!(c.now_ns(), 3_007_013);
    }

    #[test]
    fn real_clock_is_monotone_through_the_trait() {
        let c = RealClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a, "monotonicity: {b} >= {a}");
    }

    #[test]
    fn clocks_are_object_safe() {
        let real: Arc<dyn Clock> = Arc::new(RealClock::new());
        let test: Arc<dyn Clock> = Arc::new(TestClock::new());
        let _ = real.now_ns();
        test.sleep(Duration::from_nanos(5));
        assert_eq!(test.now_ns(), 5);
    }
}
