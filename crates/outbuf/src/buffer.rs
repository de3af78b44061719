//! The hypervisor-side output buffer.
//!
//! In **Synchronous Safety** mode every external output is held until the
//! epoch's security audit passes, giving a zero window of vulnerability —
//! an attack's outputs are discarded at rollback and never reach the
//! outside world. In **Best Effort Safety** mode outputs pass through
//! immediately: attacks are still *detected* within an epoch, but their
//! outputs may escape (§3.1, §5.4).

use std::collections::VecDeque;

use crimes_faults::FaultPoint;

use crate::output::Output;

/// Why a submission was refused.
///
/// Deliberately *not* `#[non_exhaustive]`: callers convert these into
/// their own error types and must be able to match exhaustively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferError {
    /// The buffer is at capacity (or an injected overflow fired). The
    /// output was **not** accepted and **not** released — fail closed; the
    /// guest sees backpressure, never an unaudited escape.
    Overflow {
        /// Outputs held when the submission was refused.
        held: usize,
        /// Bytes held when the submission was refused.
        held_bytes: usize,
    },
}

impl std::fmt::Display for BufferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BufferError::Overflow { held, held_bytes } => write!(
                f,
                "output buffer overflow ({held} outputs / {held_bytes} bytes held)"
            ),
        }
    }
}

impl std::error::Error for BufferError {}

/// The two safety modes CRIMES offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SafetyMode {
    /// Hold all outputs until the audit passes: zero window of
    /// vulnerability.
    #[default]
    Synchronous,
    /// Release outputs immediately: higher performance, millisecond-scale
    /// vulnerability window.
    BestEffort,
}

impl SafetyMode {
    /// Label used in the evaluation figures.
    pub fn label(self) -> &'static str {
        match self {
            SafetyMode::Synchronous => "Synchronous Safety",
            SafetyMode::BestEffort => "Best Effort Safety",
        }
    }
}

/// Lifetime statistics of a buffer.
///
/// All accumulators saturate (like `telemetry::Histogram`): a soak long
/// enough to overflow a `u64` must pin at the maximum, not wrap into a
/// small number that hides the history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferStats {
    /// Outputs released to the outside world after their epoch's audit
    /// (and, in the deferred pipeline, its backup ack).
    pub released: u64,
    /// Bytes released.
    pub released_bytes: u64,
    /// Outputs that bypassed buffering entirely (Best Effort mode only).
    /// Distinct from `released` so a soak can prove no Synchronous-mode
    /// output ever took the unaudited path.
    pub bypassed: u64,
    /// Bytes bypassed.
    pub bypassed_bytes: u64,
    /// Outputs discarded at rollback — attack traffic that never escaped.
    pub discarded: u64,
    /// Bytes discarded.
    pub discarded_bytes: u64,
    /// Outputs that were held (Synchronous mode) before release.
    pub held_releases: u64,
    /// Total hold time across held releases, in nanoseconds.
    pub total_hold_ns: u64,
    /// Longest single hold, in nanoseconds.
    pub max_hold_ns: u64,
    /// Submissions refused because the buffer was full (backpressure —
    /// these outputs never entered the system).
    pub rejected: u64,
    /// Bytes refused.
    pub rejected_bytes: u64,
}

impl BufferStats {
    /// Mean hold latency over held releases (rounded half-up), or `None`
    /// if nothing was held.
    pub fn mean_hold_ns(&self) -> Option<u64> {
        (self.held_releases > 0)
            .then(|| (self.total_hold_ns.saturating_add(self.held_releases / 2)) / self.held_releases)
    }
}

/// The output buffer for one VM.
#[derive(Debug, Clone)]
pub struct OutputBuffer {
    mode: SafetyMode,
    held: VecDeque<(Output, u64)>,
    /// Outputs whose epoch's audit passed but whose staged evidence has
    /// not yet been acknowledged by the backup (deferred pipeline only).
    /// Tagged with the drain generation that must be acked before they
    /// may leave; generations are monotonic, so the queue stays sorted.
    ack_pending: VecDeque<(Output, u64, u64)>,
    held_bytes: usize,
    max_held: usize,
    max_held_bytes: usize,
    stats: BufferStats,
}

impl Default for OutputBuffer {
    fn default() -> Self {
        OutputBuffer::new(SafetyMode::default())
    }
}

impl OutputBuffer {
    /// Create a buffer in the given mode, with unbounded capacity.
    pub fn new(mode: SafetyMode) -> Self {
        OutputBuffer::with_limits(mode, usize::MAX, usize::MAX)
    }

    /// Create a buffer that refuses submissions once `max_held` outputs or
    /// `max_held_bytes` bytes are pending — the real hypervisor's buffer
    /// memory is finite, and a long speculation extension must hit
    /// backpressure rather than unbounded growth.
    pub fn with_limits(mode: SafetyMode, max_held: usize, max_held_bytes: usize) -> Self {
        OutputBuffer {
            mode,
            held: VecDeque::new(),
            ack_pending: VecDeque::new(),
            held_bytes: 0,
            max_held,
            max_held_bytes,
            stats: BufferStats::default(),
        }
    }

    /// The buffer's mode.
    pub fn mode(&self) -> SafetyMode {
        self.mode
    }

    /// Submit an output at guest time `now_ns`.
    ///
    /// Returns `Ok(Some(output))` when it leaves the system immediately
    /// (Best Effort), `Ok(None)` when it is held for the next release
    /// (Synchronous).
    ///
    /// # Errors
    ///
    /// [`BufferError::Overflow`] when accepting the output would exceed
    /// the buffer's limits (or an injected overflow fires). The output is
    /// neither held nor released.
    pub fn submit(&mut self, output: Output, now_ns: u64) -> Result<Option<Output>, BufferError> {
        match self.mode {
            SafetyMode::BestEffort => {
                self.stats.bypassed = self.stats.bypassed.saturating_add(1);
                self.stats.bypassed_bytes =
                    self.stats.bypassed_bytes.saturating_add(output.len() as u64);
                Ok(Some(output))
            }
            SafetyMode::Synchronous => {
                let pending = self.held.len().saturating_add(self.ack_pending.len());
                let overflows = pending >= self.max_held
                    || self.held_bytes.saturating_add(output.len()) > self.max_held_bytes
                    || crimes_faults::should_inject(FaultPoint::OutbufOverflow);
                if overflows {
                    self.stats.rejected = self.stats.rejected.saturating_add(1);
                    self.stats.rejected_bytes =
                        self.stats.rejected_bytes.saturating_add(output.len() as u64);
                    return Err(BufferError::Overflow {
                        held: pending,
                        held_bytes: self.held_bytes,
                    });
                }
                self.held_bytes = self.held_bytes.saturating_add(output.len());
                self.held.push_back((output, now_ns));
                Ok(None)
            }
        }
    }

    /// Commit the epoch: release everything held, in submission order.
    /// `now_ns` is the release time used for hold-latency accounting.
    /// Ack-pending outputs are *not* released here — they leave only via
    /// [`release_acked`](Self::release_acked).
    pub fn release(&mut self, now_ns: u64) -> Vec<Output> {
        let mut out = Vec::with_capacity(self.held.len());
        while let Some((o, enq)) = self.held.pop_front() {
            self.account_release(&o, enq, now_ns);
            out.push(o);
        }
        out
    }

    fn account_release(&mut self, o: &Output, enqueued_ns: u64, now_ns: u64) {
        let hold = now_ns.saturating_sub(enqueued_ns);
        self.held_bytes = self.held_bytes.saturating_sub(o.len());
        self.stats.released = self.stats.released.saturating_add(1);
        self.stats.released_bytes = self.stats.released_bytes.saturating_add(o.len() as u64);
        self.stats.held_releases = self.stats.held_releases.saturating_add(1);
        self.stats.total_hold_ns = self.stats.total_hold_ns.saturating_add(hold);
        self.stats.max_hold_ns = self.stats.max_hold_ns.max(hold);
    }

    /// Deferred pipeline: the epoch's audit passed, but its staged pages
    /// are not yet durable on the backup. Move everything held to the
    /// ack-pending queue, tagged with drain `generation`; the outputs
    /// stay impounded until [`release_acked`](Self::release_acked) sees
    /// that generation. Returns how many outputs moved.
    pub fn mark_ack_pending(&mut self, generation: u64) -> usize {
        let n = self.held.len();
        while let Some((o, enq)) = self.held.pop_front() {
            self.ack_pending.push_back((o, enq, generation));
        }
        n
    }

    /// The backup acknowledged every drain generation up to and including
    /// `generation`: release the ack-pending outputs those generations
    /// gated, in submission order. Later generations stay impounded.
    ///
    /// The whole queue is scanned, not just a prefix: after a crash
    /// recovery the re-staged (re-used) generation numbers sit *behind*
    /// impounds inherited from the crashed run's later generations, so
    /// generations are not monotonic front-to-back. Journal replay has
    /// the same retain semantics. One partition pass: there is no loop
    /// here to leave early.
    pub fn release_acked(&mut self, generation: u64, now_ns: u64) -> Vec<Output> {
        let (acked, kept): (VecDeque<_>, VecDeque<_>) = std::mem::take(&mut self.ack_pending)
            .into_iter()
            .partition(|&(_, _, gen)| gen <= generation);
        self.ack_pending = kept;
        acked
            .into_iter()
            .map(|(o, enq, _)| {
                self.account_release(&o, enq, now_ns);
                o
            })
            .collect()
    }

    /// Roll back the epoch: drop everything held *and* everything still
    /// awaiting a backup ack. Returns how many outputs were prevented
    /// from escaping.
    pub fn discard(&mut self) -> usize {
        let n = self.held.len().saturating_add(self.ack_pending.len());
        self.held_bytes = 0;
        for (o, _) in self.held.drain(..) {
            self.stats.discarded = self.stats.discarded.saturating_add(1);
            self.stats.discarded_bytes = self.stats.discarded_bytes.saturating_add(o.len() as u64);
        }
        for (o, _, _) in self.ack_pending.drain(..) {
            self.stats.discarded = self.stats.discarded.saturating_add(1);
            self.stats.discarded_bytes = self.stats.discarded_bytes.saturating_add(o.len() as u64);
        }
        n
    }

    /// Recovery path: re-impound an output that was held when the monitor
    /// crashed. Bypasses the capacity check — the output was already
    /// accepted by the pre-crash buffer, so refusing it now would drop
    /// evidence the journal promised to keep. Order of restore calls must
    /// follow journal (= submission) order.
    pub fn restore_held(&mut self, output: Output, enqueued_ns: u64) {
        self.held_bytes = self.held_bytes.saturating_add(output.len());
        self.held.push_back((output, enqueued_ns));
    }

    /// Recovery path: re-impound an output that was awaiting its drain
    /// generation's backup ack when the monitor crashed. Same contract as
    /// [`restore_held`](Self::restore_held); callers must restore in
    /// journal order so the generation tags stay monotone.
    pub fn restore_ack_pending(&mut self, output: Output, enqueued_ns: u64, generation: u64) {
        self.held_bytes = self.held_bytes.saturating_add(output.len());
        self.ack_pending.push_back((output, enqueued_ns, generation));
    }

    /// Outputs currently held (not yet audited).
    pub fn held_count(&self) -> usize {
        self.held.len()
    }

    /// Outputs whose audit passed but whose backup ack is still pending.
    pub fn ack_pending_count(&self) -> usize {
        self.ack_pending.len()
    }

    /// Iterate the held outputs in submission order (the output-scanning
    /// module's view).
    pub fn held_outputs(&self) -> impl Iterator<Item = &Output> {
        self.held.iter().map(|(o, _)| o)
    }

    /// Iterate the held entries with their enqueue times, in submission
    /// order (the journal's view — what recovery must re-impound).
    pub fn held_entries(&self) -> impl Iterator<Item = (&Output, u64)> {
        self.held.iter().map(|(o, enq)| (o, *enq))
    }

    /// Iterate the ack-pending entries with their enqueue times and
    /// gating drain generations, in submission order.
    pub fn ack_pending_entries(&self) -> impl Iterator<Item = (&Output, u64, u64)> {
        self.ack_pending.iter().map(|(o, enq, gen)| (o, *enq, *gen))
    }

    /// Bytes currently held (cached; maintained across submit/release/
    /// discard rather than recounted).
    pub fn held_bytes(&self) -> usize {
        self.held_bytes
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::{DiskWrite, NetPacket};

    fn pkt(n: usize) -> Output {
        Output::Net(NetPacket::new(1, vec![0; n]))
    }

    #[test]
    fn synchronous_holds_until_release() {
        let mut buf = OutputBuffer::new(SafetyMode::Synchronous);
        assert!(buf.submit(pkt(10), 100).expect("unbounded").is_none());
        assert!(buf.submit(pkt(20), 200).expect("unbounded").is_none());
        assert_eq!(buf.held_count(), 2);
        assert_eq!(buf.held_bytes(), 30);
        let released = buf.release(1000);
        assert_eq!(released.len(), 2);
        assert_eq!(buf.held_count(), 0);
        let stats = buf.stats();
        assert_eq!(stats.released, 2);
        assert_eq!(stats.released_bytes, 30);
        assert_eq!(stats.max_hold_ns, 900);
        assert_eq!(stats.mean_hold_ns(), Some((900 + 800) / 2));
    }

    #[test]
    fn release_preserves_submission_order() {
        let mut buf = OutputBuffer::new(SafetyMode::Synchronous);
        buf.submit(Output::Disk(DiskWrite::new(1, vec![1])), 0)
            .expect("unbounded");
        buf.submit(Output::Disk(DiskWrite::new(2, vec![2])), 0)
            .expect("unbounded");
        let out = buf.release(10);
        match (&out[0], &out[1]) {
            (Output::Disk(a), Output::Disk(b)) => {
                assert_eq!(a.sector, 1);
                assert_eq!(b.sector, 2);
            }
            other => panic!("unexpected outputs {other:?}"),
        }
    }

    #[test]
    fn best_effort_passes_through_immediately() {
        let mut buf = OutputBuffer::new(SafetyMode::BestEffort);
        let out = buf.submit(pkt(5), 42).expect("best effort never overflows");
        assert!(out.is_some());
        assert_eq!(buf.held_count(), 0);
        let stats = buf.stats();
        assert_eq!(stats.bypassed, 1, "unaudited escapes count as bypassed");
        assert_eq!(stats.bypassed_bytes, 5);
        assert_eq!(stats.released, 0, "released is reserved for audited exits");
        assert_eq!(stats.mean_hold_ns(), None, "nothing is ever held");
    }

    #[test]
    fn synchronous_mode_never_counts_bypassed() {
        let mut buf = OutputBuffer::new(SafetyMode::Synchronous);
        buf.submit(pkt(10), 0).expect("unbounded");
        buf.release(5);
        buf.submit(pkt(10), 6).expect("unbounded");
        buf.discard();
        let stats = buf.stats();
        assert_eq!(stats.bypassed, 0);
        assert_eq!(stats.bypassed_bytes, 0);
    }

    #[test]
    fn stats_saturate_instead_of_wrapping() {
        let mut buf = OutputBuffer::new(SafetyMode::Synchronous);
        // Pre-load the accumulators near the top and push them over.
        buf.stats.released_bytes = u64::MAX - 1;
        buf.stats.total_hold_ns = u64::MAX - 1;
        buf.stats.discarded_bytes = u64::MAX - 1;
        buf.stats.rejected_bytes = u64::MAX - 1;
        buf.submit(pkt(100), 0).expect("unbounded");
        buf.release(u64::MAX);
        assert_eq!(buf.stats().released_bytes, u64::MAX, "byte total pins");
        assert_eq!(buf.stats().total_hold_ns, u64::MAX, "hold total pins");
        buf.submit(pkt(100), 0).expect("unbounded");
        buf.discard();
        assert_eq!(buf.stats().discarded_bytes, u64::MAX);
        let mut buf = OutputBuffer::with_limits(SafetyMode::Synchronous, 0, 0);
        buf.stats.rejected_bytes = u64::MAX - 1;
        assert!(buf.submit(pkt(100), 0).is_err());
        assert_eq!(buf.stats().rejected_bytes, u64::MAX);
    }

    #[test]
    fn mean_hold_rounds_half_up_and_tolerates_saturated_sums() {
        let stats = BufferStats {
            held_releases: 2,
            total_hold_ns: 3, // 1.5 ns mean rounds to 2, not truncates to 1
            ..BufferStats::default()
        };
        assert_eq!(stats.mean_hold_ns(), Some(2));
        let stats = BufferStats {
            held_releases: 2,
            total_hold_ns: u64::MAX,
            ..BufferStats::default()
        };
        // The rounding addend must not wrap the saturated sum back to 0.
        assert_eq!(stats.mean_hold_ns(), Some(u64::MAX / 2));
    }

    #[test]
    fn ack_pending_outputs_stay_impounded_until_their_generation_acks() {
        let mut buf = OutputBuffer::new(SafetyMode::Synchronous);
        buf.submit(pkt(10), 100).expect("unbounded");
        buf.submit(pkt(20), 200).expect("unbounded");
        assert_eq!(buf.mark_ack_pending(7), 2);
        assert_eq!(buf.held_count(), 0, "held queue drained into ack-pending");
        assert_eq!(buf.ack_pending_count(), 2);
        assert_eq!(buf.held_bytes(), 30, "bytes still impounded");
        // A plain release must not leak ack-pending outputs.
        assert!(buf.release(300).is_empty());
        // An ack for an older generation releases nothing.
        assert!(buf.release_acked(6, 300).is_empty());
        assert_eq!(buf.ack_pending_count(), 2);
        // The matching ack releases everything, in submission order.
        let out = buf.release_acked(7, 1_000);
        assert_eq!(out.len(), 2);
        assert_eq!(buf.ack_pending_count(), 0);
        assert_eq!(buf.held_bytes(), 0);
        let stats = buf.stats();
        assert_eq!(stats.released, 2);
        assert_eq!(stats.max_hold_ns, 900, "hold time spans the ack wait");
    }

    #[test]
    fn release_acked_leaves_newer_generations_impounded() {
        let mut buf = OutputBuffer::new(SafetyMode::Synchronous);
        buf.submit(pkt(1), 0).expect("unbounded");
        buf.mark_ack_pending(1);
        buf.submit(pkt(2), 0).expect("unbounded");
        buf.mark_ack_pending(2);
        assert_eq!(buf.release_acked(1, 10).len(), 1, "only generation 1");
        assert_eq!(buf.ack_pending_count(), 1);
        assert_eq!(buf.release_acked(2, 20).len(), 1);
    }

    #[test]
    fn release_acked_scans_past_inherited_newer_generations() {
        // Post-recovery shape: an impound inherited from the crashed
        // run's generation 5 sits ahead of the re-staged generation 4.
        let mut buf = OutputBuffer::new(SafetyMode::Synchronous);
        buf.restore_ack_pending(pkt(1), 0, 4);
        buf.restore_ack_pending(pkt(2), 0, 5);
        buf.submit(pkt(3), 0).expect("unbounded");
        buf.mark_ack_pending(4);
        let released = buf.release_acked(4, 10);
        assert_eq!(released.len(), 2, "generation 4 releases both its outputs");
        assert_eq!(buf.ack_pending_count(), 1, "generation 5 stays impounded");
        assert_eq!(buf.release_acked(5, 20).len(), 1);
    }

    #[test]
    fn discard_covers_ack_pending_outputs() {
        let mut buf = OutputBuffer::new(SafetyMode::Synchronous);
        buf.submit(pkt(10), 0).expect("unbounded");
        buf.mark_ack_pending(1);
        buf.submit(pkt(20), 0).expect("unbounded");
        assert_eq!(buf.discard(), 2, "held and ack-pending both impounded");
        assert_eq!(buf.ack_pending_count(), 0);
        assert_eq!(buf.held_bytes(), 0);
        assert_eq!(buf.stats().discarded, 2);
        assert_eq!(buf.stats().released, 0);
    }

    #[test]
    fn ack_pending_outputs_still_count_against_capacity() {
        let mut buf = OutputBuffer::with_limits(SafetyMode::Synchronous, 2, usize::MAX);
        buf.submit(pkt(1), 0).expect("below limit");
        buf.mark_ack_pending(1);
        buf.submit(pkt(1), 0).expect("at limit");
        let err = buf.submit(pkt(1), 0).expect_err("ack-pending occupies a slot");
        assert!(matches!(err, BufferError::Overflow { held: 2, .. }));
    }

    #[test]
    fn discard_prevents_escape_and_counts() {
        let mut buf = OutputBuffer::new(SafetyMode::Synchronous);
        buf.submit(pkt(100), 0).expect("unbounded");
        buf.submit(pkt(200), 0).expect("unbounded");
        assert_eq!(buf.discard(), 2);
        assert_eq!(buf.held_count(), 0);
        let stats = buf.stats();
        assert_eq!(stats.discarded, 2);
        assert_eq!(stats.discarded_bytes, 300);
        assert_eq!(stats.released, 0);
        // Releasing after a discard yields nothing.
        assert!(buf.release(10).is_empty());
    }

    #[test]
    fn empty_release_and_discard_are_noops() {
        let mut buf = OutputBuffer::new(SafetyMode::Synchronous);
        assert!(buf.release(0).is_empty());
        assert_eq!(buf.discard(), 0);
        assert_eq!(buf.stats(), BufferStats::default());
    }

    #[test]
    fn hold_time_saturates_on_clock_skew() {
        let mut buf = OutputBuffer::new(SafetyMode::Synchronous);
        buf.submit(pkt(1), 100).expect("unbounded");
        buf.release(50); // release "before" enqueue: clamp, don't underflow
        assert_eq!(buf.stats().max_hold_ns, 0);
    }

    #[test]
    fn capacity_limits_reject_without_holding_or_releasing() {
        let mut buf = OutputBuffer::with_limits(SafetyMode::Synchronous, 2, usize::MAX);
        buf.submit(pkt(10), 0).expect("below limit");
        buf.submit(pkt(10), 0).expect("at limit");
        let err = buf.submit(pkt(10), 0).expect_err("over the count limit");
        assert_eq!(
            err,
            BufferError::Overflow {
                held: 2,
                held_bytes: 20
            }
        );
        assert_eq!(buf.held_count(), 2, "rejected output was not held");
        assert_eq!(buf.stats().rejected, 1);
        assert_eq!(buf.stats().rejected_bytes, 10);

        let mut buf = OutputBuffer::with_limits(SafetyMode::Synchronous, usize::MAX, 25);
        buf.submit(pkt(20), 0).expect("below byte limit");
        assert!(buf.submit(pkt(10), 0).is_err(), "20 + 10 > 25");
        assert_eq!(buf.held_bytes(), 20);
        // Release drains and resets the byte accounting.
        assert_eq!(buf.release(1).len(), 1);
        assert_eq!(buf.held_bytes(), 0);
        buf.submit(pkt(10), 2).expect("space again after release");
    }

    #[test]
    fn injected_overflow_rejects_submission() {
        let plan = crimes_faults::FaultPlan::disabled().with_rate(
            crimes_faults::FaultPoint::OutbufOverflow,
            crimes_faults::SCALE,
        );
        let _scope = crimes_faults::install(plan, 3);
        let mut buf = OutputBuffer::new(SafetyMode::Synchronous);
        assert!(matches!(
            buf.submit(pkt(1), 0),
            Err(BufferError::Overflow { held: 0, .. })
        ));
        // Fail closed: nothing escaped, nothing held.
        assert_eq!(buf.held_count(), 0);
        assert_eq!(buf.stats().released, 0);
    }

    #[test]
    fn restore_rebuilds_the_impound_set_with_byte_accounting() {
        // What a pre-crash buffer held...
        let mut before = OutputBuffer::new(SafetyMode::Synchronous);
        before.submit(pkt(10), 100).expect("unbounded");
        before.mark_ack_pending(3);
        before.submit(pkt(20), 200).expect("unbounded");

        // ...recovery re-impounds from the journal, even into a buffer
        // whose limits a live submit would trip.
        let mut after = OutputBuffer::with_limits(SafetyMode::Synchronous, 1, 15);
        for (o, enq, gen) in before.ack_pending_entries() {
            after.restore_ack_pending(o.clone(), enq, gen);
        }
        for (o, enq) in before.held_entries() {
            after.restore_held(o.clone(), enq);
        }
        assert_eq!(after.held_count(), 1);
        assert_eq!(after.ack_pending_count(), 1);
        assert_eq!(after.held_bytes(), 30, "byte accounting follows restores");
        // The restored queues behave like the originals.
        assert_eq!(after.release_acked(3, 1_000).len(), 1);
        assert_eq!(after.release(1_000).len(), 1);
        assert_eq!(after.held_bytes(), 0);
        // And the restored entries still count against capacity for the
        // *next* live submission.
        let mut after = OutputBuffer::with_limits(SafetyMode::Synchronous, 1, usize::MAX);
        after.restore_held(pkt(1), 0);
        assert!(matches!(
            after.submit(pkt(1), 1),
            Err(BufferError::Overflow { held: 1, .. })
        ));
    }

    #[test]
    fn mode_labels_match_paper() {
        assert_eq!(SafetyMode::Synchronous.label(), "Synchronous Safety");
        assert_eq!(SafetyMode::BestEffort.label(), "Best Effort Safety");
        assert_eq!(SafetyMode::default(), SafetyMode::Synchronous);
    }
}
