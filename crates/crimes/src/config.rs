//! Framework configuration.
//!
//! The epoch interval and safety mode are the two knobs the paper tells
//! operators to tune per workload (§3.1, §5.4): CPU-bound VMs want long
//! intervals (~200 ms); latency-sensitive VMs want 10–20 ms intervals or
//! Best-Effort safety. The robustness knobs (audit deadline, retry
//! budgets, extension limit) govern the fail-closed degraded modes.
//!
//! Validation happens at [`CrimesConfigBuilder::build`], which rejects
//! impossible configurations (zero-length epochs, audit deadlines longer
//! than the epoch) instead of panicking mid-run.

use crimes_checkpoint::{CheckpointConfig, OptLevel};
use crimes_outbuf::SafetyMode;

use crate::error::CrimesError;

/// The largest [`CrimesConfig::vmi_retries`] that
/// [`CrimesConfigBuilder::build`] accepts. The retries' own backoff
/// (20 µs × attempt) already sums to ≈ 10 s at this count, longer than
/// any audit deadline worth setting, and each retry takes an event slot
/// reserved up front for the pause window.
pub const MAX_VMI_RETRIES: u32 = 1_024;

/// Configuration of one CRIMES-protected VM.
#[derive(Debug, Clone, Copy)]
pub struct CrimesConfig {
    /// Speculative-execution epoch length in milliseconds.
    pub epoch_interval_ms: u64,
    /// Wall-clock budget for the end-of-epoch audit, in milliseconds,
    /// measured from the audit's staging to its verdict — the page walk
    /// (copy included) runs between the two and counts against it, for
    /// every worker count. `None` means the whole epoch interval. When
    /// the audit overruns, the epoch is *inconclusive*: nothing commits,
    /// outputs stay buffered, and speculation extends into the next epoch.
    pub audit_deadline_ms: Option<u64>,
    /// Retries for transient VMI read faults during an audit before the
    /// epoch is declared inconclusive (validated at
    /// [`CrimesConfigBuilder::build`]: at most [`MAX_VMI_RETRIES`]). Each
    /// retry records an event inside the pause window, into a buffer
    /// reserved for this many.
    pub vmi_retries: u32,
    /// Consecutive inconclusive epochs tolerated before the VM is
    /// quarantined (suspended, outputs impounded).
    pub max_consecutive_extensions: u32,
    /// Output-buffer capacity in outputs (`usize::MAX` = unbounded).
    pub max_held_outputs: usize,
    /// Output-buffer capacity in bytes (`usize::MAX` = unbounded).
    pub max_held_bytes: usize,
    /// Output-buffering policy.
    pub safety: SafetyMode,
    /// Staged epochs allowed to await their backup ack before the fleet
    /// stops speculating (deferred pipeline only). `0` (the default)
    /// disables degraded mode: the first failed drain rolls the epoch
    /// back, exactly as before. `n ≥ 1` lets the guest keep running with
    /// outputs impounded while the backup is unreachable, up to `n`
    /// epochs of backlog; the next failed drain past that quarantines
    /// the VM. Requires `staging_buffers > max_staged_backlog` so a slot
    /// is always free for the epoch that trips the limit.
    pub max_staged_backlog: u64,
    /// Consecutive drain-session failures before the fleet reroutes a
    /// tenant's drain to its standby backup. `0` (the default) disables
    /// failover.
    pub failover_threshold: u32,
    /// The pause-worker count the operator asked for, before
    /// [`CrimesConfigBuilder::build`] clamped it to the host's available
    /// parallelism. Differs from `checkpoint.pause_workers` only when the
    /// clamp fired (surfaced through the `pause_worker_clamps` telemetry
    /// counter at protect time).
    pub requested_pause_workers: usize,
    /// Checkpoint engine configuration.
    pub checkpoint: CheckpointConfig,
}

impl Default for CrimesConfig {
    fn default() -> Self {
        CrimesConfig {
            epoch_interval_ms: 200,
            audit_deadline_ms: None,
            vmi_retries: 3,
            max_consecutive_extensions: 3,
            max_held_outputs: usize::MAX,
            max_held_bytes: usize::MAX,
            safety: SafetyMode::Synchronous,
            max_staged_backlog: 0,
            failover_threshold: 0,
            requested_pause_workers: 1,
            checkpoint: CheckpointConfig::default(),
        }
    }
}

impl CrimesConfig {
    /// Start building a configuration.
    pub fn builder() -> CrimesConfigBuilder {
        CrimesConfigBuilder {
            config: CrimesConfig::default(),
        }
    }

    /// The paper's latency-sensitive preset: 20 ms epochs, synchronous
    /// safety, full optimisations.
    pub fn latency_sensitive() -> Self {
        CrimesConfig {
            epoch_interval_ms: 20,
            ..CrimesConfig::default()
        }
    }

    /// The paper's CPU-bound preset: 200 ms epochs.
    pub fn cpu_bound() -> Self {
        CrimesConfig::default()
    }

    /// The audit deadline actually in effect (explicit value, or the whole
    /// epoch interval).
    pub fn effective_audit_deadline_ms(&self) -> u64 {
        self.audit_deadline_ms.unwrap_or(self.epoch_interval_ms)
    }
}

/// Builder for [`CrimesConfig`].
#[derive(Debug, Clone)]
pub struct CrimesConfigBuilder {
    config: CrimesConfig,
}

impl CrimesConfigBuilder {
    /// Epoch interval in milliseconds (validated at [`build`](Self::build)).
    pub fn epoch_interval_ms(&mut self, ms: u64) -> &mut Self {
        self.config.epoch_interval_ms = ms;
        self
    }

    /// Audit deadline in milliseconds (validated at [`build`](Self::build):
    /// must be positive and no longer than the epoch interval).
    pub fn audit_deadline_ms(&mut self, ms: u64) -> &mut Self {
        self.config.audit_deadline_ms = Some(ms);
        self
    }

    /// Retries for transient VMI read faults per audit (validated at
    /// [`build`](Self::build): at most [`MAX_VMI_RETRIES`]).
    pub fn vmi_retries(&mut self, retries: u32) -> &mut Self {
        self.config.vmi_retries = retries;
        self
    }

    /// Consecutive speculation extensions tolerated before quarantine.
    pub fn max_consecutive_extensions(&mut self, max: u32) -> &mut Self {
        self.config.max_consecutive_extensions = max;
        self
    }

    /// Bound the output buffer (outputs, bytes). Submissions beyond either
    /// limit are refused with backpressure rather than held.
    pub fn buffer_limits(&mut self, max_outputs: usize, max_bytes: usize) -> &mut Self {
        self.config.max_held_outputs = max_outputs;
        self.config.max_held_bytes = max_bytes;
        self
    }

    /// Output-buffering policy.
    pub fn safety(&mut self, mode: SafetyMode) -> &mut Self {
        self.config.safety = mode;
        self
    }

    /// Checkpoint optimisation level.
    pub fn opt_level(&mut self, opt: OptLevel) -> &mut Self {
        self.config.checkpoint.opt = opt;
        self
    }

    /// Verified checkpoint generations kept for a fallback rollback when
    /// the live backup fails its checksum. Each costs a full image and
    /// disk copy per commit; the default, 0, keeps none.
    pub fn history_depth(&mut self, depth: usize) -> &mut Self {
        self.config.checkpoint.history_depth = depth;
        self
    }

    /// Worker threads for the pause window (validated at
    /// [`build`](Self::build): 1 ..= [`crimes_checkpoint::MAX_WORKERS`]).
    /// The boundary is one walk (scan, copy and digest fused) whatever the
    /// count: `1` (the default) runs it inline on the calling thread,
    /// higher values shard it across workers. [`build`](Self::build)
    /// additionally clamps the count to the host's available parallelism
    /// (never below 2): oversubscribed shard workers time-slice one core
    /// and *lengthen* the pause window they exist to shorten.
    pub fn pause_workers(&mut self, workers: usize) -> &mut Self {
        self.config.checkpoint.pause_workers = workers;
        self
    }

    /// Preallocated staging buffers for the deferred backup pipeline.
    /// `0` (the default) keeps the in-window copy-out; `≥ 1` moves the
    /// cipher/stream copy past resume: the pause window only snapshots
    /// dirty pages into staging, and each epoch's outputs stay impounded
    /// until its out-of-window drain is acknowledged by the backup.
    pub fn staging_buffers(&mut self, buffers: usize) -> &mut Self {
        self.config.checkpoint.staging_buffers = buffers;
        self
    }

    /// Deadline for one staged epoch's drain, in milliseconds (validated
    /// at [`build`](Self::build): must be positive when staging is
    /// enabled). Measured on the deterministic retry-backoff model, not
    /// wall clock.
    pub fn drain_timeout_ms(&mut self, ms: u64) -> &mut Self {
        self.config.checkpoint.drain_timeout_ms = ms;
        self
    }

    /// Staged-epoch backlog tolerated while the backup is unreachable
    /// before quarantine (validated at [`build`](Self::build): when
    /// positive, `staging_buffers` must exceed it). `0` disables
    /// degraded mode.
    pub fn max_staged_backlog(&mut self, epochs: u64) -> &mut Self {
        self.config.max_staged_backlog = epochs;
        self
    }

    /// Consecutive drain-session failures before the fleet reroutes the
    /// tenant's drain to a standby backup. `0` disables failover.
    pub fn failover_threshold(&mut self, failures: u32) -> &mut Self {
        self.config.failover_threshold = failures;
        self
    }

    /// Word-churn threshold (in changed words per page) above which the
    /// drain ships a full page instead of a run-length delta record.
    /// `0` disables delta/zero-page encoding entirely (raw full pages).
    /// Wire modelling only: backup bytes, image digests, and journal
    /// bytes are identical at every threshold.
    pub fn delta_threshold(&mut self, words: usize) -> &mut Self {
        self.config.checkpoint.delta_threshold = words;
        self
    }

    /// Enable content-addressed dedup on the drain wire: pages whose
    /// tagged digest (and bytes) already live in the backup's store ship
    /// as a `(digest, refs)` reference instead of their bytes. Wire
    /// modelling only, like [`delta_threshold`](Self::delta_threshold).
    pub fn dedup(&mut self, enabled: bool) -> &mut Self {
        self.config.checkpoint.dedup = enabled;
        self
    }

    /// Mark the tenant as served by an externally owned pause-window pool
    /// (the fleet scheduler's shared pool). Suppresses the per-tenant pool
    /// built at protect time — whose undo buffers rival the guest image in
    /// size — so a thousand-tenant fleet pays for the scheduler's few
    /// leased walkers, not a thousand pools. A boundary run with no leased
    /// pool ([`Crimes::epoch_boundary`](crate::Crimes)) self-provisions
    /// one before suspending the guest, so the tenant keeps working
    /// standalone.
    pub fn external_pool(&mut self, external: bool) -> &mut Self {
        self.config.checkpoint.external_pool = external;
        self
    }

    /// The largest pause-worker count worth running on this host:
    /// `max(available_parallelism, 2)`. The floor of 2 keeps the sharded
    /// walk reachable (and its bit-identical-for-any-worker-count
    /// guarantee testable) even on a single-core host, where the second
    /// worker costs little; beyond that, workers past the core count only
    /// time-slice and lengthen the pause window.
    pub fn host_pause_worker_cap() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .max(2)
    }

    /// Validate and finish.
    ///
    /// Worker counts above [`host_pause_worker_cap`](Self::host_pause_worker_cap)
    /// are clamped, not rejected: the configuration is portable across
    /// hosts, and the clamp is observable via
    /// [`CrimesConfig::requested_pause_workers`] and the
    /// `pause_worker_clamps` telemetry counter.
    ///
    /// # Errors
    ///
    /// [`CrimesError::InvalidConfig`] when the configuration is impossible:
    /// a zero-length epoch, a zero audit deadline,
    /// an audit deadline longer than the epoch interval, more than
    /// [`MAX_VMI_RETRIES`] VMI retries, a zero drain
    /// timeout with staging enabled, or a staged backlog that the staging
    /// buffers cannot hold.
    pub fn build(&self) -> Result<CrimesConfig, CrimesError> {
        let c = &self.config;
        if c.epoch_interval_ms == 0 {
            return Err(CrimesError::InvalidConfig(
                "epoch interval must be positive".into(),
            ));
        }
        if c.checkpoint.pause_workers == 0 {
            return Err(CrimesError::InvalidConfig(
                "pause_workers must be at least 1".into(),
            ));
        }
        if c.checkpoint.pause_workers > crimes_checkpoint::MAX_WORKERS {
            return Err(CrimesError::InvalidConfig(format!(
                "pause_workers ({}) exceeds the pool limit ({})",
                c.checkpoint.pause_workers,
                crimes_checkpoint::MAX_WORKERS
            )));
        }
        if c.vmi_retries > MAX_VMI_RETRIES {
            return Err(CrimesError::InvalidConfig(format!(
                "vmi_retries ({}) exceeds {MAX_VMI_RETRIES}",
                c.vmi_retries
            )));
        }
        if c.checkpoint.staging_buffers > 0 && c.checkpoint.drain_timeout_ms == 0 {
            return Err(CrimesError::InvalidConfig(
                "drain timeout must be positive when staging is enabled".into(),
            ));
        }
        if c.max_staged_backlog > 0 {
            if c.checkpoint.staging_buffers == 0 {
                return Err(CrimesError::InvalidConfig(
                    "max_staged_backlog requires the deferred pipeline \
                     (staging_buffers >= 1)"
                        .into(),
                ));
            }
            if c.checkpoint.staging_buffers as u64 <= c.max_staged_backlog {
                return Err(CrimesError::InvalidConfig(format!(
                    "max_staged_backlog ({}) must be smaller than staging_buffers \
                     ({}) — degraded mode needs a free slot for the epoch that \
                     trips the limit",
                    c.max_staged_backlog, c.checkpoint.staging_buffers
                )));
            }
        }
        if let Some(deadline) = c.audit_deadline_ms {
            if deadline == 0 {
                return Err(CrimesError::InvalidConfig(
                    "audit deadline must be positive".into(),
                ));
            }
            if deadline > c.epoch_interval_ms {
                return Err(CrimesError::InvalidConfig(format!(
                    "audit deadline ({deadline} ms) exceeds the epoch interval \
                     ({} ms) — the audit could never finish inside its epoch",
                    c.epoch_interval_ms
                )));
            }
        }
        let mut config = self.config;
        config.requested_pause_workers = config.checkpoint.pause_workers;
        let cap = Self::host_pause_worker_cap();
        if config.checkpoint.pause_workers > cap {
            config.checkpoint.pause_workers = cap;
        }
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_cpu_bound_preset() {
        let c = CrimesConfig::default();
        assert_eq!(c.epoch_interval_ms, 200);
        assert_eq!(c.safety, SafetyMode::Synchronous);
        assert_eq!(c.checkpoint.opt, OptLevel::Full);
        assert_eq!(c.effective_audit_deadline_ms(), 200);
    }

    #[test]
    fn builder_sets_all_fields() {
        let mut b = CrimesConfig::builder();
        b.epoch_interval_ms(20)
            .audit_deadline_ms(10)
            .vmi_retries(5)
            .max_consecutive_extensions(2)
            .buffer_limits(64, 1 << 20)
            .safety(SafetyMode::BestEffort)
            .opt_level(OptLevel::NoOpt)
            .history_depth(3)
            .pause_workers(4)
            .staging_buffers(4)
            .drain_timeout_ms(25)
            .max_staged_backlog(2)
            .failover_threshold(3);
        let c = b.build().expect("valid config");
        assert_eq!(c.epoch_interval_ms, 20);
        assert_eq!(c.effective_audit_deadline_ms(), 10);
        assert_eq!(c.vmi_retries, 5);
        assert_eq!(c.max_consecutive_extensions, 2);
        assert_eq!(c.max_held_outputs, 64);
        assert_eq!(c.max_held_bytes, 1 << 20);
        assert_eq!(c.safety, SafetyMode::BestEffort);
        assert_eq!(c.checkpoint.opt, OptLevel::NoOpt);
        assert_eq!(c.checkpoint.history_depth, 3);
        assert_eq!(c.checkpoint.staging_buffers, 4);
        assert_eq!(c.checkpoint.drain_timeout_ms, 25);
        assert_eq!(c.max_staged_backlog, 2);
        assert_eq!(c.failover_threshold, 3);
        // The effective worker count is host-dependent (clamped to the
        // available parallelism); the request is recorded verbatim.
        assert_eq!(c.requested_pause_workers, 4);
        assert_eq!(
            c.checkpoint.pause_workers,
            4.min(CrimesConfigBuilder::host_pause_worker_cap())
        );
    }

    #[test]
    fn pause_workers_clamp_to_host_parallelism_but_never_below_two() {
        let cap = CrimesConfigBuilder::host_pause_worker_cap();
        assert!(cap >= 2, "the cap keeps the sharded walk reachable");
        // A request at the cap passes through untouched.
        let c = {
            let mut b = CrimesConfig::builder();
            b.pause_workers(cap);
            b.build().expect("valid config")
        };
        assert_eq!(c.checkpoint.pause_workers, cap);
        assert_eq!(c.requested_pause_workers, cap);
        // A request beyond the cap (but within the pool limit) is clamped,
        // and the clamp is observable through the requested count.
        if cap < crimes_checkpoint::MAX_WORKERS {
            let mut b = CrimesConfig::builder();
            b.pause_workers(cap + 1);
            let c = b.build().expect("clamped, not rejected");
            assert_eq!(c.checkpoint.pause_workers, cap);
            assert_eq!(c.requested_pause_workers, cap + 1);
        }
        // The pool limit is still a hard error, not a clamp: the request
        // is beyond what the engine can ever allocate.
        let mut b = CrimesConfig::builder();
        b.pause_workers(crimes_checkpoint::MAX_WORKERS + 1);
        assert!(matches!(b.build(), Err(CrimesError::InvalidConfig(_))));
    }

    #[test]
    fn presets_differ_in_interval() {
        assert_eq!(CrimesConfig::latency_sensitive().epoch_interval_ms, 20);
        assert_eq!(CrimesConfig::cpu_bound().epoch_interval_ms, 200);
    }

    #[test]
    fn impossible_configs_are_rejected_at_build() {
        let reject = |f: &dyn Fn(&mut CrimesConfigBuilder)| {
            let mut b = CrimesConfig::builder();
            f(&mut b);
            match b.build() {
                Err(CrimesError::InvalidConfig(msg)) => msg,
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        };
        assert!(reject(&|b| {
            b.epoch_interval_ms(0);
        })
        .contains("epoch interval"));
        assert!(reject(&|b| {
            b.audit_deadline_ms(0);
        })
        .contains("audit deadline"));
        assert!(reject(&|b| {
            b.pause_workers(0);
        })
        .contains("pause_workers"));
        assert!(reject(&|b| {
            b.vmi_retries(MAX_VMI_RETRIES + 1);
        })
        .contains("vmi_retries"));
        assert!(reject(&|b| {
            b.pause_workers(crimes_checkpoint::MAX_WORKERS + 1);
        })
        .contains("pool limit"));
        assert!(reject(&|b| {
            b.staging_buffers(1).drain_timeout_ms(0);
        })
        .contains("drain timeout"));
        // Degraded mode without the deferred pipeline is meaningless.
        assert!(reject(&|b| {
            b.max_staged_backlog(1);
        })
        .contains("staging_buffers"));
        // The backlog must leave a slot free for the epoch that trips it.
        assert!(reject(&|b| {
            b.staging_buffers(2).max_staged_backlog(2);
        })
        .contains("smaller than staging_buffers"));
        // Boundary: backlog one below the buffer count is valid.
        {
            let mut b = CrimesConfig::builder();
            b.staging_buffers(2).max_staged_backlog(1);
            b.build().expect("backlog < buffers is valid");
        }
        // Deadline longer than the epoch can never be met.
        assert!(reject(&|b| {
            b.epoch_interval_ms(20).audit_deadline_ms(30);
        })
        .contains("exceeds the epoch interval"));
        // Boundary: deadline equal to the interval is fine.
        CrimesConfig::builder()
            .epoch_interval_ms(20)
            .audit_deadline_ms(20)
            .build()
            .expect("deadline == interval is valid");
    }
}
