//! crimes-telemetry: the reproduction's zero-dependency observability
//! layer.
//!
//! CRIMES' pitch is *evidence* — so the pipeline's own behaviour (phase
//! timings, retries, extensions, rollbacks, quarantines) must itself be
//! observable, deterministic to test, and cheap enough to record inside
//! the fused pause window. This crate provides the four pieces:
//!
//! * [`Clock`] — an injectable monotonic time source. Production code
//!   takes `&dyn Clock` (or an `Arc<dyn Clock>`) instead of calling
//!   `Instant::now` directly, so the deadline/extension/quarantine state
//!   machine runs under a [`TestClock`] in virtual time.
//! * [`Telemetry`] — preallocated counters and log₂-bucketed
//!   [`Histogram`]s with deterministic, order-independent aggregation
//!   ([`Telemetry::merge`]); recording never allocates.
//! * [`FlightRecorder`] — a bounded ring of structured [`Event`]s
//!   covering the last N epochs. Recording is alloc-free (fixed-payload
//!   [`EventKind`], preallocated ring); rendering the timeline for a
//!   forensics report is the only allocating path and runs off the
//!   pause window.
//! * [`export`]/[`schema`] — hand-rolled JSON/CSV emitters plus a small
//!   JSON parser used to validate exports against the documented schema
//!   (the `scripts/verify.sh` telemetry smoke goes through it).
//!
//! Everything here is hermetic: no dependencies, no I/O, no wall-clock
//! reads outside [`RealClock`].

#![forbid(unsafe_code)]

pub mod clock;
pub mod export;
pub mod metrics;
pub mod recorder;
pub mod schema;

pub use clock::{Clock, RealClock, TestClock};
pub use metrics::{
    Counter, Histogram, Telemetry, WorkerStats, HISTOGRAM_BUCKETS, MAX_PHASES, MAX_WORKER_SLOTS,
};
pub use recorder::{Event, EventKind, FlightRecorder, EVENTS_PER_EPOCH};
