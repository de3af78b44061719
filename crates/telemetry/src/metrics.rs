//! Preallocated counters and log₂-bucketed histograms.
//!
//! Everything is fixed-size and `record` never allocates, so the fused
//! pause window may feed these directly (the `telemetry-purity` lint
//! rule enforces that only non-allocating telemetry calls are reachable
//! from pause-window roots). Aggregation is deterministic: merging is
//! element-wise and commutative, so any merge order produces the same
//! aggregate — the fleet-level roll-up relies on this.

/// Upper bound on distinct pipeline phases a [`Telemetry`] tracks.
pub const MAX_PHASES: usize = 8;

/// Upper bound on per-worker shard slots (mirrors the pause-window
/// pool's `MAX_WORKERS`; kept as a local constant so this crate stays
/// dependency-free).
pub const MAX_WORKER_SLOTS: usize = 16;

/// Number of log₂ buckets a [`Histogram`] keeps. Bucket `i` counts
/// values whose bit length is `i` (so bucket 0 is exactly zero, bucket
/// 1 is 1, bucket 2 is 2–3, …); everything of bit length ≥ 31 lands in
/// the last bucket.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// The framework's named event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Epochs that committed and released their outputs.
    EpochsCommitted,
    /// Epochs whose audit failed (attack detected).
    AttacksDetected,
    /// Epochs that extended speculation on an inconclusive audit.
    SpeculationExtensions,
    /// Transient VMI faults retried during audits.
    VmiRetries,
    /// Epoch boundaries whose checkpoint copy exhausted its retries.
    CommitFailures,
    /// Recoveries that fell back to an older verified checkpoint.
    FallbackRollbacks,
    /// Tenants quarantined.
    Quarantines,
    /// Audits that reached their verdict without a recorded start time
    /// (the fail-closed anomaly PR 5 surfaces instead of zeroing).
    MissingAuditStarts,
    /// Buffered outputs released at committed boundaries.
    OutputsReleased,
    /// Buffered outputs discarded during incident response.
    OutputsDiscarded,
    /// Staged epochs drained to the backup and acknowledged.
    DrainAcks,
    /// Staged-epoch drains that failed or timed out (fail-closed: the
    /// epoch's outputs stay held).
    DrainFailures,
    /// Configured `pause_workers` values clamped to host parallelism at
    /// protect time.
    PauseWorkerClamps,
    /// Fleet rounds that skipped an already-quarantined tenant (stale
    /// incidents, as opposed to fresh `Quarantines`).
    FleetSkips,
    /// Epochs that ran in degraded mode: the backup was unreachable, the
    /// guest kept speculating, and the epoch's outputs stayed impounded.
    DegradedEpochs,
    /// Drain sessions that resumed a partially-drained slot from its
    /// progress cursor instead of restarting from page zero.
    DrainResyncs,
    /// Drains rerouted to a standby backup after consecutive session
    /// failures crossed the failover threshold.
    BackupFailovers,
    /// Fleet-wide epoch rounds driven by the fleet scheduler over its
    /// shared pause-window pool.
    FleetRounds,
    /// Leases granted against a shared pause-window pool (one per tenant
    /// boundary that suspended a guest under the scheduler).
    SharedPoolLeases,
    /// Fleet-level clamps of the shared pool's worker count to the host's
    /// CPU budget — the one clamp that replaces N per-tenant clamps.
    FleetWorkerClamps,
    /// Wire bytes the delta/zero-page encoder avoided shipping, relative
    /// to raw full-page drains.
    BytesSavedDelta,
    /// Drained pages whose content already existed in the backup's
    /// content-addressed store (shipped as a digest reference).
    DedupHits,
    /// Drained pages probed against the content-addressed store that had
    /// to ship their bytes (dedup enabled, no matching digest).
    DedupMisses,
    /// Drained pages whose compare-and-digest pass a resident pause
    /// worker had already made when the guest resumed. Against
    /// `drain_acks` × dirty pages it says how much of the drain ran
    /// before anyone was waiting for it; how far the worker gets is a
    /// matter of timing, so unlike the other counters this one is not
    /// reproducible run to run.
    DrainHeadStartPages,
    /// Cipher bytes of acked drains that a resident pause worker ran
    /// instead of the drain's own thread. Against the drained wire bytes
    /// it says how much of the drain's cipher the second CPU carried,
    /// and it stays 0 on a one-CPU host and for a one-worker pool. Like
    /// the head start, a matter of timing and not reproducible run to run.
    DrainCipherLentBytes,
    /// Walk shards lent to a resident pause worker and taken back by the
    /// boundary's own thread because the worker had not started them when
    /// that thread's shard was done. Against epochs × (`pause_workers` −
    /// 1) it says how often the second CPU is not delivering; like the
    /// head start, a matter of timing and not reproducible run to run.
    WalkShardsTakenBack,
    /// Image pages a resident worker digested while `protect` or `recover`
    /// started the tenant up (the backup's digest, shared with the thread
    /// that parsed System.map). Against the guest's pages it says how much
    /// of start-up's digest the second CPU carried; it stays 0 on a
    /// one-CPU host, and like the head start is a matter of timing and not
    /// reproducible run to run.
    StartupDigestLentPages,
}

impl Counter {
    /// Every counter, in export order.
    pub const ALL: [Counter; 27] = [
        Counter::EpochsCommitted,
        Counter::AttacksDetected,
        Counter::SpeculationExtensions,
        Counter::VmiRetries,
        Counter::CommitFailures,
        Counter::FallbackRollbacks,
        Counter::Quarantines,
        Counter::MissingAuditStarts,
        Counter::OutputsReleased,
        Counter::OutputsDiscarded,
        Counter::DrainAcks,
        Counter::DrainFailures,
        Counter::PauseWorkerClamps,
        Counter::FleetSkips,
        Counter::DegradedEpochs,
        Counter::DrainResyncs,
        Counter::BackupFailovers,
        Counter::FleetRounds,
        Counter::SharedPoolLeases,
        Counter::FleetWorkerClamps,
        Counter::BytesSavedDelta,
        Counter::DedupHits,
        Counter::DedupMisses,
        Counter::DrainHeadStartPages,
        Counter::DrainCipherLentBytes,
        Counter::WalkShardsTakenBack,
        Counter::StartupDigestLentPages,
    ];

    /// The counter's stable export name (snake_case; part of the
    /// documented JSON/CSV schema).
    pub fn name(self) -> &'static str {
        match self {
            Counter::EpochsCommitted => "epochs_committed",
            Counter::AttacksDetected => "attacks_detected",
            Counter::SpeculationExtensions => "speculation_extensions",
            Counter::VmiRetries => "vmi_retries",
            Counter::CommitFailures => "commit_failures",
            Counter::FallbackRollbacks => "fallback_rollbacks",
            Counter::Quarantines => "quarantines",
            Counter::MissingAuditStarts => "missing_audit_starts",
            Counter::OutputsReleased => "outputs_released",
            Counter::OutputsDiscarded => "outputs_discarded",
            Counter::DrainAcks => "drain_acks",
            Counter::DrainFailures => "drain_failures",
            Counter::PauseWorkerClamps => "pause_worker_clamps",
            Counter::FleetSkips => "fleet_skips",
            Counter::DegradedEpochs => "degraded_epochs",
            Counter::DrainResyncs => "drain_resyncs",
            Counter::BackupFailovers => "backup_failovers",
            Counter::FleetRounds => "fleet_rounds",
            Counter::SharedPoolLeases => "shared_pool_leases",
            Counter::FleetWorkerClamps => "fleet_worker_clamps",
            Counter::BytesSavedDelta => "bytes_saved_delta",
            Counter::DedupHits => "dedup_hits",
            Counter::DedupMisses => "dedup_misses",
            Counter::DrainHeadStartPages => "drain_head_start_pages",
            Counter::DrainCipherLentBytes => "drain_cipher_lent_bytes",
            Counter::WalkShardsTakenBack => "walk_shards_taken_back",
            Counter::StartupDigestLentPages => "startup_digest_lent_pages",
        }
    }

    fn index(self) -> usize {
        Counter::ALL
            .iter()
            .position(|&c| c == self)
            .unwrap_or_default()
    }
}

/// A fixed-size log₂-bucketed histogram. Recording is O(1) and
/// alloc-free; merging is element-wise, so aggregation order never
/// changes the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let bit_len = (u64::BITS - v.leading_zeros()) as usize;
        let idx = bit_len.min(HISTOGRAM_BUCKETS - 1);
        if let Some(b) = self.buckets.get_mut(idx) {
            *b = b.saturating_add(1);
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.sum / self.count
        }
    }

    /// The raw bucket array. Bucket `i` holds samples of bit length `i`
    /// (`i = 0` ⇒ the sample was zero); the last bucket absorbs
    /// everything larger.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Fold another histogram into this one (element-wise, commutative
    /// and associative up to `sum` saturation).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// Per-worker shard totals (pages/bytes/modelled syscalls), mirroring
/// the pause-window pool's per-worker copy statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Pages this worker slot copied, summed over walks.
    pub pages: u64,
    /// Bytes this worker slot moved, summed over walks.
    pub bytes: u64,
    /// Modelled syscalls this worker slot issued, summed over walks.
    pub syscalls: u64,
}

/// The framework's preallocated metrics bundle: named counters, one
/// histogram per pipeline phase, dirty-page and audit-duration
/// histograms, and per-worker shard totals. Construction allocates
/// nothing on the heap; recording is alloc-free by design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Telemetry {
    counters: [u64; Counter::ALL.len()],
    phase_labels: [&'static str; MAX_PHASES],
    phases_used: usize,
    phase_ns: [Histogram; MAX_PHASES],
    dirty_pages: Histogram,
    audit_ns: Histogram,
    workers: [WorkerStats; MAX_WORKER_SLOTS],
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new(&[])
    }
}

impl Telemetry {
    /// A telemetry bundle tracking the given phases (at most
    /// [`MAX_PHASES`]; extras are ignored).
    pub fn new(phase_labels: &[&'static str]) -> Self {
        let mut labels = [""; MAX_PHASES];
        let used = phase_labels.len().min(MAX_PHASES);
        for (slot, &l) in labels.iter_mut().zip(phase_labels.iter()) {
            *slot = l;
        }
        Telemetry {
            counters: [0; Counter::ALL.len()],
            phase_labels: labels,
            phases_used: used,
            phase_ns: [Histogram::default(); MAX_PHASES],
            dirty_pages: Histogram::default(),
            audit_ns: Histogram::default(),
            workers: [WorkerStats::default(); MAX_WORKER_SLOTS],
        }
    }

    /// Bump `counter` by `n`. Saturates: a pathological guest that
    /// inflates a counter (e.g. byte tallies fed by guest-sized pages)
    /// pegs it at `u64::MAX` rather than wrapping back to small values.
    pub fn add(&mut self, counter: Counter, n: u64) {
        if let Some(c) = self.counters.get_mut(counter.index()) {
            *c = c.saturating_add(n);
        }
    }

    /// Current value of `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters.get(counter.index()).copied().unwrap_or(0)
    }

    /// Record one sample for phase `idx` (nanoseconds).
    pub fn record_phase_ns(&mut self, idx: usize, ns: u64) {
        if idx < self.phases_used {
            if let Some(h) = self.phase_ns.get_mut(idx) {
                h.record(ns);
            }
        }
    }

    /// Record one epoch's dirty-page count.
    pub fn record_dirty_pages(&mut self, pages: u64) {
        self.dirty_pages.record(pages);
    }

    /// Record one audit's measured duration (nanoseconds).
    pub fn record_audit_ns(&mut self, ns: u64) {
        self.audit_ns.record(ns);
    }

    /// Fold one worker slot's copy statistics into slot `idx`.
    pub fn record_worker(&mut self, idx: usize, pages: u64, bytes: u64, syscalls: u64) {
        if let Some(w) = self.workers.get_mut(idx) {
            w.pages = w.pages.saturating_add(pages);
            w.bytes = w.bytes.saturating_add(bytes);
            w.syscalls = w.syscalls.saturating_add(syscalls);
        }
    }

    /// The tracked phases, in registration order.
    pub fn phases(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.phase_labels
            .iter()
            .zip(self.phase_ns.iter())
            .take(self.phases_used)
            .map(|(&l, h)| (l, h))
    }

    /// The dirty-page-count histogram.
    pub fn dirty_pages(&self) -> &Histogram {
        &self.dirty_pages
    }

    /// The audit-duration histogram (nanoseconds).
    pub fn audit_ns(&self) -> &Histogram {
        &self.audit_ns
    }

    /// Per-worker shard totals; index is the worker slot.
    pub fn workers(&self) -> &[WorkerStats; MAX_WORKER_SLOTS] {
        &self.workers
    }

    /// Fold another bundle into this one. Counters and worker slots add
    /// element-wise and histograms merge bucket-wise, so fleet-level
    /// aggregation is deterministic regardless of merge order. The
    /// other bundle's phase labels are adopted when this one tracks
    /// none (the aggregate starts blank).
    pub fn merge(&mut self, other: &Telemetry) {
        if self.phases_used == 0 {
            self.phase_labels = other.phase_labels;
            self.phases_used = other.phases_used;
        }
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.phase_ns.iter_mut().zip(other.phase_ns.iter()) {
            a.merge(b);
        }
        self.dirty_pages.merge(&other.dirty_pages);
        self.audit_ns.merge(&other.audit_ns);
        for (a, b) in self.workers.iter_mut().zip(other.workers.iter()) {
            a.pages = a.pages.saturating_add(b.pages);
            a.bytes = a.bytes.saturating_add(b.bytes);
            a.syscalls = a.syscalls.saturating_add(b.syscalls);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1 << 40] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.buckets()[0], 1, "zero lands in bucket 0");
        assert_eq!(h.buckets()[1], 1, "one lands in bucket 1");
        assert_eq!(h.buckets()[2], 2, "2..=3 land in bucket 2");
        assert_eq!(h.buckets()[3], 2, "4..=7 land in bucket 3");
        assert_eq!(h.buckets()[4], 1, "8..=15 land in bucket 4");
        assert_eq!(
            h.buckets()[HISTOGRAM_BUCKETS - 1],
            1,
            "huge samples land in the last bucket"
        );
        assert_eq!(h.max(), 1 << 40);
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [5, 9, 1000] {
            a.record(v);
        }
        for v in [0, 17, 1 << 20] {
            b.record(v);
        }
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 6);
        assert_eq!(ab.sum(), a.sum() + b.sum());
    }

    #[test]
    fn telemetry_counters_and_phases_round_trip() {
        let mut t = Telemetry::new(&["suspend", "copy"]);
        t.add(Counter::VmiRetries, 3);
        t.add(Counter::VmiRetries, 2);
        t.record_phase_ns(0, 100);
        t.record_phase_ns(1, 200);
        t.record_phase_ns(7, 999); // unused phase: ignored
        t.record_dirty_pages(64);
        t.record_worker(1, 10, 40_960, 2);
        assert_eq!(t.counter(Counter::VmiRetries), 5);
        assert_eq!(t.counter(Counter::Quarantines), 0);
        let phases: Vec<_> = t.phases().collect();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].0, "suspend");
        assert_eq!(phases[0].1.count(), 1);
        assert_eq!(t.dirty_pages().max(), 64);
        assert_eq!(t.workers()[1].bytes, 40_960);
    }

    #[test]
    fn telemetry_merge_aggregates_deterministically() {
        let mut a = Telemetry::new(&["suspend"]);
        let mut b = Telemetry::new(&["suspend"]);
        a.add(Counter::EpochsCommitted, 4);
        b.add(Counter::EpochsCommitted, 6);
        a.record_phase_ns(0, 10);
        b.record_phase_ns(0, 30);
        b.record_worker(0, 1, 4096, 0);
        let mut blank = Telemetry::default();
        blank.merge(&a);
        blank.merge(&b);
        assert_eq!(blank.counter(Counter::EpochsCommitted), 10);
        let phases: Vec<_> = blank.phases().collect();
        assert_eq!(phases[0].0, "suspend", "aggregate adopts phase labels");
        assert_eq!(phases[0].1.count(), 2);
        assert_eq!(blank.workers()[0].pages, 1);
    }
}
