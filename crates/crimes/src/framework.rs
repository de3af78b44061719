//! The [`Crimes`] framework: one protected VM's full lifecycle —
//! speculative epochs, end-of-epoch audits, output release/discard, and
//! incident handling (Figures 1 and 2).
//!
//! The epoch pipeline is **fail closed**: whatever goes wrong — the audit
//! overrunning its deadline, transient VMI read faults, copy retries
//! exhausting, a corrupt backup at rollback — no output is ever released
//! from an epoch whose audit did not pass. Degraded modes, in escalating
//! order: retry (transient VMI faults), speculation extension (outputs
//! stay buffered across an inconclusive audit), verified-fallback rollback
//! (a silently corrupt backup is repaired from history), and finally
//! quarantine (the VM suspends with outputs impounded until an operator
//! intervenes).

// Fail-closed: typed errors, never a panic (DESIGN.md "Static guarantees").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::todo, clippy::unimplemented)]

use std::sync::Arc;
use std::time::Duration;

use crimes_checkpoint::startup::{self, StartUp};
use crimes_checkpoint::{
    AuditVerdict, BackupVm, CheckpointError, Checkpointer, EpochReport, FusedAudit,
    FusedPageVisitor, PageFinding, PauseWindowPool, Phase, Resident, COPY_RETRIES,
};
use crimes_faults::FaultPoint;
use crimes_journal::{EvidenceJournal, RecoveredState};
use crimes_outbuf::{BufferStats, Output, OutputBuffer, OutputScanner};
use crimes_telemetry::{render_timeline, Clock, Counter, EventKind, RealClock, Telemetry};
use crimes_vm::{DirtyBitmap, MetaSnapshot, TraceMark, Vm, VmError};
use crimes_vmi::{Symbols, VmiError, VmiSession};

use crate::analyzer::{Analysis, Analyzer};
use crate::async_scan::{AsyncScanResult, AsyncScanner};
use crate::config::CrimesConfig;
use crate::detector::{AuditReport, Detector, ScanModule};
use crate::error::CrimesError;
use crate::evidence::{Evidence, RecentEvents};

/// What an epoch boundary produced.
#[derive(Debug)]
pub enum EpochOutcome {
    /// The audit passed: the checkpoint committed and buffered outputs
    /// were released.
    Committed {
        /// Checkpoint-engine report (phase timings, dirty pages).
        report: EpochReport,
        /// The audit details.
        audit: AuditReport,
        /// Outputs released to the outside world.
        released: Vec<Output>,
    },
    /// The audit failed: the VM is suspended, outputs are still held, and
    /// an incident is pending — call [`Crimes::investigate`] and then
    /// [`Crimes::rollback_and_resume`].
    AttackDetected {
        /// Checkpoint-engine report for the failed window.
        report: EpochReport,
        /// The audit details (contains the findings).
        audit: AuditReport,
    },
    /// The audit was inconclusive (deadline overrun or persistent
    /// transient read faults): nothing committed, nothing released, and
    /// the VM keeps running speculatively with outputs still buffered.
    /// The next conclusive audit covers this epoch's writes too.
    Extended {
        /// Checkpoint-engine report for the inconclusive window.
        report: EpochReport,
        /// Why speculation extended.
        cause: &'static str,
        /// Consecutive extensions so far (quarantine triggers when this
        /// exceeds [`CrimesConfig::max_consecutive_extensions`]).
        consecutive: u32,
    },
    /// The audit passed but the backup could not be reached within the
    /// drain budget, and the staged backlog is still within
    /// [`CrimesConfig::max_staged_backlog`]: the guest keeps speculating
    /// with this epoch's outputs impounded. They release when a later
    /// drain session acks their generation.
    Degraded {
        /// Checkpoint-engine report for the window (audit passed).
        report: EpochReport,
        /// The audit details.
        audit: AuditReport,
        /// Staged epochs now awaiting their deferred drain.
        backlog: u32,
    },
}

impl EpochOutcome {
    /// `true` for a committed epoch.
    pub fn is_committed(&self) -> bool {
        matches!(self, EpochOutcome::Committed { .. })
    }
}

/// Progress of one epoch boundary split at the guest's resume — the
/// fleet scheduler's overlap seam. The pause half (suspend, sharded
/// walk, verdict, ticket bookkeeping) needs the pause-window pool; the
/// drain half ([`Crimes::finish_boundary`]) streams staged evidence to
/// the backup and needs **no** pool, so a scheduler runs it concurrently
/// with other tenants' in-window walks. [`Crimes::epoch_boundary`] is
/// exactly the two halves run back to back, so a split boundary is
/// bit-identical to an unsplit one.
#[derive(Debug)]
pub enum BoundaryProgress {
    /// The boundary completed inside the pause half: an in-window
    /// commit, an incident, an extension — anything that left no deferred
    /// drain.
    Done(EpochOutcome),
    /// The guest has resumed with a drain ticket pending. The epoch's
    /// outputs are impounded under the ticket's generation and stay
    /// impounded until [`Crimes::finish_boundary`] runs — dropping this
    /// value without finishing never releases anything (fail closed; the
    /// backlog re-drains at the tenant's next boundary).
    NeedsDrain(PendingBoundary),
}

/// The deferred half of a split epoch boundary (see
/// [`BoundaryProgress::NeedsDrain`]): the pause half's report and audit,
/// carried opaquely to [`Crimes::finish_boundary`].
#[derive(Debug)]
pub struct PendingBoundary {
    report: EpochReport,
    audit: AuditReport,
    epoch: u64,
}

/// Counters for the framework's degraded modes — how often each
/// robustness mechanism actually fired. A view of [`Telemetry`]'s counters
/// of the same meaning (see [`Crimes::robustness_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RobustnessStats {
    /// Transient-VMI-fault retries performed inside audits.
    pub vmi_retries: u64,
    /// Epochs whose audit was inconclusive (speculation extended).
    pub speculation_extensions: u64,
    /// Epochs whose checkpoint copy exhausted its retries.
    pub commit_failures: u64,
    /// Rollbacks that fell back to an older checksum-verified generation
    /// because the live backup was silently corrupt.
    pub fallback_rollbacks: u64,
    /// Times the VM entered quarantine.
    pub quarantines: u64,
    /// Audits that reached their verdict without a recorded start time.
    /// Zero in a healthy pipeline: each occurrence means the deadline
    /// clock was never started, and the audit was conservatively treated
    /// as overrun instead of silently timed at zero.
    pub missing_audit_starts: u64,
}

/// What [`Crimes::protect`]'s start-up makes: the session and the fresh
/// backup on the calling thread, the digest on both.
type ProtectionStart = StartUp<(Result<VmiSession, VmiError>, BackupVm), ()>;

/// What [`Crimes::recover`]'s start-up makes: the session on the calling
/// thread, the replayed journal on a worker, the digest on both.
type RecoveryStart = StartUp<Result<VmiSession, VmiError>, (EvidenceJournal, RecoveredState)>;

/// Histogram slot for the deferred pipeline's out-of-window drain. The
/// in-window phases occupy `0..Phase::ALL.len()`; the drain rides after
/// them and is only registered when staging is enabled, so the paper's
/// six-row phase tables are unchanged for the in-window pipelines.
const DRAIN_PHASE: usize = Phase::ALL.len();

/// Export label of the drain phase histogram.
const DRAIN_PHASE_LABEL: &str = "drain";

/// Bounded linear backoff between retries of a restartable step (audit
/// passes and forensics analyses are both retry-safe while the relevant
/// state is frozen). Sleeps through the injected clock so virtual-time
/// tests never block.
fn backoff_sleep(clock: &dyn Clock, attempt: u32) {
    clock.sleep(Duration::from_micros(20 * u64::from(attempt)));
}

/// `true` when every recorded introspection error is a retryable
/// transient read fault.
fn all_transient(errors: &[(String, VmiError)]) -> bool {
    !errors.is_empty()
        && errors
            .iter()
            .all(|(_, e)| matches!(e, VmiError::TransientReadFault))
}

/// The tail of the audit: the output-content scan joins the report, then
/// the verdict falls out of the evidence — findings or hard introspection
/// errors fail closed, persistent transient faults or a deadline overrun
/// extend speculation.
fn finish_audit(
    audit: &mut AuditReport,
    buffer: &OutputBuffer,
    output_scanner: Option<&OutputScanner>,
    elapsed_ns: u64,
    deadline: Duration,
) -> AuditVerdict {
    // Output-content scan: part of the same audit window, over the
    // still-held outputs.
    if let Some(scanner) = output_scanner {
        for m in scanner.scan_buffer(buffer) {
            audit.findings.push(crate::detector::ScanFinding {
                module: "output-scan".to_owned(),
                detection: crate::detector::Detection::SuspiciousOutput {
                    signature: m.signature,
                    output_index: m.output_index,
                    offset: m.offset,
                },
            });
        }
    }
    let transient_only = all_transient(&audit.errors);
    let deadline_ns = u64::try_from(deadline.as_nanos()).unwrap_or(u64::MAX);
    let overrun =
        elapsed_ns > deadline_ns || crimes_faults::should_inject(FaultPoint::AuditOverrun);
    if !audit.findings.is_empty() || (!audit.errors.is_empty() && !transient_only) {
        // Conclusive: real evidence (or a hard introspection failure we
        // cannot retry away) — fail closed.
        AuditVerdict::Fail
    } else if transient_only || overrun {
        AuditVerdict::Inconclusive
    } else {
        AuditVerdict::Pass
    }
}

/// The end-of-epoch audit, as the engine's boundary drives it: stages the
/// detector's page-scoped work before the walk, lends the staged visitor
/// to the walk, and renders the verdict from the walk's finding keys plus
/// the ordinary global scans. The deadline clock runs from `stage` to
/// `verdict`, walk included.
struct BoundaryAudit<'a> {
    detector: &'a mut Detector,
    session: &'a mut VmiSession,
    /// Read for the held outputs the verdict scans; written only by
    /// [`Evidence::record`], into its reserved buffer.
    evidence: &'a mut Evidence,
    output_scanner: Option<&'a OutputScanner>,
    deadline: Duration,
    vmi_retries: u32,
    retries_used: &'a mut u32,
    epoch: u64,
    clock: &'a Arc<dyn Clock>,
    telemetry: &'a mut Telemetry,
    /// Set by [`stage`](FusedAudit::stage); the deadline clock starts there.
    started_ns: Option<u64>,
    /// Index of the module whose visitor rides the walk.
    staged: Option<usize>,
    stage_errors: Vec<(String, VmiError)>,
    /// The report the verdict fills: made before the window
    /// ([`Detector::blank_report`]), so a passing audit allocates nothing.
    audit: &'a mut AuditReport,
    /// Set once the verdict has run.
    audited: &'a mut bool,
}

impl FusedAudit for BoundaryAudit<'_> {
    fn stage(&mut self, vm: &Vm, dirty: &DirtyBitmap) {
        let now = self.clock.now_ns();
        self.started_ns = Some(now);
        self.evidence.record(self.epoch, now, EventKind::AuditStaged);
        let (mut staged, mut errors) =
            self.detector
                .stage_fused(vm.memory(), self.session, dirty, self.epoch);
        // Bounded retry with backoff: transient VMI read faults are
        // retry-safe while the guest is paused, and staging must succeed
        // for the walk to carry the scan.
        while *self.retries_used < self.vmi_retries && all_transient(&errors) {
            *self.retries_used += 1;
            self.evidence.record(
                self.epoch,
                self.clock.now_ns(),
                EventKind::VmiRetry {
                    attempt: *self.retries_used,
                },
            );
            backoff_sleep(&**self.clock, *self.retries_used);
            (staged, errors) =
                self.detector
                    .stage_fused(vm.memory(), self.session, dirty, self.epoch);
        }
        self.staged = staged;
        self.stage_errors = errors;
    }

    fn visitor(&self) -> Option<&dyn FusedPageVisitor> {
        self.detector.fused_visitor(self.staged)
    }

    fn verdict(
        &mut self,
        vm: &Vm,
        dirty: &DirtyBitmap,
        findings: &[PageFinding],
    ) -> AuditVerdict {
        // Source 2 is the scan visitor's fixed slot in the fused walk's
        // visitor stack; its keys are whatever the staged module pushed.
        // Only a trampled canary leaves a key, so only a failing audit
        // allocates this list.
        let keys: Vec<u64> = findings
            .iter()
            .filter(|f| f.source == 2)
            .map(|f| f.key)
            .collect();
        self.detector.audit_after_walk(
            vm.memory(),
            self.session,
            dirty,
            self.epoch,
            self.staged,
            &keys,
            &self.stage_errors,
            self.audit,
        );
        // Staging errors are carried into every attempt, so once staging
        // has burned the retry budget this loop will not spin further.
        while *self.retries_used < self.vmi_retries && all_transient(&self.audit.errors) {
            *self.retries_used += 1;
            self.evidence.record(
                self.epoch,
                self.clock.now_ns(),
                EventKind::VmiRetry {
                    attempt: *self.retries_used,
                },
            );
            backoff_sleep(&**self.clock, *self.retries_used);
            self.detector.audit_after_walk(
                vm.memory(),
                self.session,
                dirty,
                self.epoch,
                self.staged,
                &keys,
                &self.stage_errors,
                self.audit,
            );
        }
        let now = self.clock.now_ns();
        let elapsed_ns = match self.started_ns.take() {
            Some(t0) => {
                let elapsed = now.saturating_sub(t0);
                self.telemetry.record_audit_ns(elapsed);
                elapsed
            }
            None => {
                // The deadline clock was never started: count the anomaly
                // and treat the audit as having consumed the whole budget
                // (fail closed) rather than none of it. Silently timing it
                // at zero would let an untimed audit fast-pass its deadline.
                self.telemetry.add(Counter::MissingAuditStarts, 1);
                self.evidence
                    .record(self.epoch, now, EventKind::MissingAuditStart);
                u64::MAX
            }
        };
        let verdict = finish_audit(
            self.audit,
            self.evidence.buffer(),
            self.output_scanner,
            elapsed_ns,
            self.deadline,
        );
        *self.audited = true;
        verdict
    }
}

impl std::fmt::Debug for BoundaryAudit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundaryAudit")
            .field("epoch", &self.epoch)
            .field("staged", &self.staged)
            .finish_non_exhaustive()
    }
}

/// One CRIMES-protected VM.
#[derive(Debug)]
pub struct Crimes {
    vm: Vm,
    config: CrimesConfig,
    checkpointer: Checkpointer,
    /// Journal, output buffer, pending drain tickets and quarantine
    /// latch: mutated only through [`Evidence`]'s transitions, each of
    /// which journals before it takes effect.
    evidence: Evidence,
    session: VmiSession,
    detector: Detector,
    analyzer: Analyzer,
    last_good_meta: MetaSnapshot,
    epoch_start_mark: TraceMark,
    committed_epochs: u64,
    /// Optional exfiltration-signature scanner over the held outputs.
    output_scanner: Option<OutputScanner>,
    /// Optional asynchronous deep-forensics pipeline (§5.3 future work).
    async_forensics: Option<(AsyncScanner, u64)>,
    /// Deferred findings collected from the async pipeline.
    deferred: Vec<AsyncScanResult>,
    /// Findings of an unresolved failed audit.
    pending: Option<AuditReport>,
    /// Injectable monotonic time source (virtual in deterministic tests).
    clock: Arc<dyn Clock>,
    /// Preallocated counters and histograms.
    telemetry: Telemetry,
    /// Inconclusive audits in a row (reset by any conclusive epoch).
    consecutive_extensions: u32,
}

impl Crimes {
    /// Start protecting `vm` with `config`. Performs the initial full
    /// backup sync and introspection init, and turns on op recording (the
    /// substrate's deterministic-replay support).
    ///
    /// The initial checkpoint is taken *here*: guest mutations made after
    /// `protect` are only durable against rollback once a subsequent epoch
    /// commits over them, so perform tenant setup either before calling
    /// `protect` or followed by one committed epoch.
    ///
    /// # Errors
    ///
    /// Fails if introspection cannot initialise against the guest.
    pub fn protect(vm: Vm, config: CrimesConfig) -> Result<Self, CrimesError> {
        Self::protect_with_clock(vm, config, Arc::new(RealClock::new()))
    }

    /// Like [`protect`](Self::protect), but timing the audit pipeline and
    /// the checkpoint engine's phases and retry sleeps against an
    /// injected [`Clock`]. Tests pass a [`crimes_telemetry::TestClock`] to
    /// drive the deadline/extension/quarantine state machine, and whole
    /// boundaries, in virtual time.
    ///
    /// # Errors
    ///
    /// Fails if introspection cannot initialise against the guest.
    pub fn protect_with_clock(
        vm: Vm,
        config: CrimesConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, CrimesError> {
        Self::protect_on(vm, config, clock, None)
    }

    /// [`protect_with_clock`](Self::protect_with_clock) with introspection
    /// opened on `symbols` when given, which the caller parsed for a
    /// System.map equal to `vm`'s: a fleet's tenants on one kernel build
    /// share one parse. The guest's banner is checked all the same.
    pub(crate) fn protect_on(
        vm: Vm,
        config: CrimesConfig,
        clock: Arc<dyn Clock>,
        symbols: Option<&Symbols>,
    ) -> Result<Self, CrimesError> {
        let started = Self::start_protection(startup::executor().as_mut(), &vm, symbols);
        Self::protected(vm, config, clock, started)
    }

    /// Start-up's pieces for [`protect`](Self::protect): this thread
    /// initialises introspection (parsing System.map unless `symbols` are
    /// given) and copies the guest into a fresh backup while `exec`'s
    /// worker, if any, digests the guest's image, which is the copy's.
    fn start_protection(
        exec: Option<&mut Resident>,
        vm: &Vm,
        symbols: Option<&Symbols>,
    ) -> ProtectionStart {
        let (frames, disk) = (vm.memory().frames(), vm.disk().image());
        let session = || match symbols {
            Some(symbols) => VmiSession::open(symbols, vm.memory()),
            None => VmiSession::init(vm),
        };
        startup::start_up(exec, frames, disk, || (session(), BackupVm::new(vm)), &|| ())
    }

    /// A protected VM from [`start_protection`](Self::start_protection)'s
    /// pieces.
    fn protected(
        vm: Vm,
        config: CrimesConfig,
        clock: Arc<dyn Clock>,
        started: ProtectionStart,
    ) -> Result<Self, CrimesError> {
        let StartUp { own: (session, backup), digest, lent_pages, .. } = started;
        let session = session?;
        let checkpointer =
            Checkpointer::attach(&vm, config.checkpoint, backup, digest, 0).with_clock(clock.clone());
        let evidence = Evidence::new(&config);
        let mut crimes = Self::assemble(
            vm,
            config,
            clock,
            session,
            checkpointer,
            evidence,
            0,
            lent_pages,
        );
        if config.requested_pause_workers > config.checkpoint.pause_workers {
            crimes.telemetry.add(Counter::PauseWorkerClamps, 1);
        }
        Ok(crimes)
    }

    /// Resume protection after a monitor crash from the surviving pieces:
    /// the guest, the backup replica, and the journal image. The journal
    /// is replayed (truncating a torn tail), the impound state and
    /// committed-epoch count are rebuilt, the checkpoint engine adopts
    /// the backup resuming drain generations after the last acked one,
    /// and a fresh journal continues from the verified prefix.
    ///
    /// Conservative by construction: tickets staged but never acked are
    /// abandoned (their staging slots died with the monitor) and their
    /// ack-pending outputs stay impounded until the re-staged generation
    /// with the same number acks. A recorded quarantine is re-entered. An
    /// incident that was pending at the crash quarantines the VM — the
    /// in-memory forensic context did not survive, and releasing or
    /// rolling back without it would guess.
    ///
    /// # Errors
    ///
    /// Fails if introspection cannot initialise against the guest.
    pub fn recover(
        vm: Vm,
        backup: BackupVm,
        config: CrimesConfig,
        clock: Arc<dyn Clock>,
        journal_bytes: &[u8],
    ) -> Result<Self, CrimesError> {
        let started =
            Self::start_recovery(startup::executor().as_mut(), &vm, &backup, journal_bytes);
        Self::recovered(vm, backup, config, clock, started)
    }

    /// Start-up's pieces for [`recover`](Self::recover): this thread
    /// initialises introspection while `exec`'s worker, if any, replays
    /// the journal, and then both digest the surviving backup.
    fn start_recovery(
        exec: Option<&mut Resident>,
        vm: &Vm,
        backup: &BackupVm,
        journal_bytes: &[u8],
    ) -> RecoveryStart {
        startup::start_up(
            exec,
            backup.frames(),
            backup.disk(),
            || VmiSession::init(vm),
            &|| EvidenceJournal::recover_from(journal_bytes),
        )
    }

    /// A recovered VM from [`start_recovery`](Self::start_recovery)'s
    /// pieces.
    fn recovered(
        vm: Vm,
        backup: BackupVm,
        config: CrimesConfig,
        clock: Arc<dyn Clock>,
        started: RecoveryStart,
    ) -> Result<Self, CrimesError> {
        let StartUp { own: session, lent: (journal, state), digest, lent_pages } = started;
        let session = session?;
        let checkpointer = Checkpointer::attach(
            &vm,
            config.checkpoint,
            backup,
            digest,
            state.last_acked_generation,
        )
        .with_clock(clock.clone());
        let evidence = Evidence::recovered(journal, &state, &config);
        // Telemetry is process-local and starts fresh; the journal is the
        // durable record, counters are observability.
        let mut crimes = Self::assemble(
            vm,
            config,
            clock,
            session,
            checkpointer,
            evidence,
            state.committed_epochs,
            lent_pages,
        );
        if crimes.is_quarantined() {
            // The recorded quarantine is latched again already; the guest
            // has to be suspended again too.
            crimes.vm.vcpus_mut().pause_all();
        } else if state.pending_incident.is_some() {
            let _ = crimes.quarantine("incident was pending across a monitor crash");
        }
        Ok(crimes)
    }

    /// The one constructor body: a protected VM around pieces
    /// [`protect_with_clock`](Self::protect_with_clock) made fresh or
    /// [`recover`](Self::recover) rebuilt from the journal,
    /// `startup_lent_pages` being the image pages a resident worker
    /// digested at start-up.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        mut vm: Vm,
        config: CrimesConfig,
        clock: Arc<dyn Clock>,
        session: VmiSession,
        checkpointer: Checkpointer,
        mut evidence: Evidence,
        committed_epochs: u64,
        startup_lent_pages: usize,
    ) -> Self {
        vm.set_recording(true);
        let last_good_meta = vm.meta_snapshot();
        let epoch_start_mark = vm.trace_mark();
        let mut labels: Vec<&'static str> = Phase::ALL.map(Phase::label).to_vec();
        if config.checkpoint.staging_buffers > 0 {
            // The deferred pipeline times its out-of-window drain as an
            // extra phase after the paper's six in-window rows.
            labels.push(DRAIN_PHASE_LABEL);
        }
        // The event buffer is reserved here, after the snapshots above:
        // an allocation made before them moved the benchmark's peak RSS
        // by -2.5 to +1.9 MiB, by workload (heap placement, not use).
        evidence.reserve_events(config.vmi_retries);
        let mut telemetry = Telemetry::new(&labels);
        telemetry.add(
            Counter::StartupDigestLentPages,
            u64::try_from(startup_lent_pages).unwrap_or(u64::MAX),
        );
        telemetry.add(Counter::SymbolParses, u64::from(session.parsed_symbols()));
        Crimes {
            vm,
            config,
            checkpointer,
            evidence,
            analyzer: Analyzer::new(session.symbols()),
            session,
            detector: Detector::with_clock(clock.clone()),
            last_good_meta,
            epoch_start_mark,
            committed_epochs,
            output_scanner: None,
            async_forensics: None,
            deferred: Vec::new(),
            pending: None,
            clock,
            telemetry,
            consecutive_extensions: 0,
        }
    }

    /// Register a scan module.
    pub fn register_module(&mut self, module: Box<dyn ScanModule>) {
        self.detector.register(module);
    }

    /// Enable asynchronous deep forensics (§5.3's future work): every
    /// `every_n_epochs` committed checkpoints, the backup image is shipped
    /// to a worker thread that runs the heavy cross-view sweeps
    /// (psscan/psxview, modscan, deep blacklist) while the VM keeps
    /// running. Results surface through [`Crimes::take_deferred_findings`]
    /// — detection is delayed by the sweep time, the Best-Effort-style
    /// trade-off the paper describes.
    ///
    /// # Panics
    ///
    /// Panics if `every_n_epochs` is zero.
    pub fn enable_async_forensics(
        &mut self,
        every_n_epochs: u64,
        blacklist: crimes_workloads::Blacklist,
    ) {
        assert!(every_n_epochs > 0, "cadence must be at least 1");
        self.async_forensics = Some((AsyncScanner::spawn(blacklist), every_n_epochs));
    }

    /// Take the asynchronous sweeps collected so far (clean and suspicious
    /// alike). Suspicious results name checkpoints that already committed;
    /// operators typically pause the VM and investigate from the history.
    pub fn take_deferred_findings(&mut self) -> Vec<AsyncScanResult> {
        if let Some((scanner, _)) = self.async_forensics.as_mut() {
            self.deferred.extend(scanner.poll());
        }
        std::mem::take(&mut self.deferred)
    }

    /// Block until the async pipeline drains, then take everything
    /// (orderly shutdown and tests).
    pub fn drain_deferred_findings(&mut self) -> Vec<AsyncScanResult> {
        if let Some((scanner, _)) = self.async_forensics.as_mut() {
            self.deferred.extend(scanner.drain());
        }
        std::mem::take(&mut self.deferred)
    }

    /// Install an output-content scanner (§3.2's "scanning outgoing
    /// network packets for suspicious content"). Held outputs matching a
    /// signature fail the audit before anything is released; under
    /// Best-Effort safety outputs bypass the buffer, so only disk-bound
    /// stragglers are covered.
    pub fn set_output_scanner(&mut self, scanner: OutputScanner) {
        self.output_scanner = Some(scanner);
    }

    /// The protected guest (for workloads to drive between boundaries).
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    /// Mutable access to the guest.
    pub fn vm_mut(&mut self) -> &mut Vm {
        &mut self.vm
    }

    /// The parsed System.map introspection resolves through: the
    /// session's, which the incident path's dumps, replay and report
    /// share.
    pub fn symbols(&self) -> &Symbols {
        self.session.symbols()
    }

    /// The active configuration.
    pub fn config(&self) -> &CrimesConfig {
        &self.config
    }

    /// The checkpoint engine (stats, history, backup).
    pub fn checkpointer(&self) -> &Checkpointer {
        &self.checkpointer
    }

    /// Output-buffer statistics.
    pub fn buffer_stats(&self) -> BufferStats {
        self.evidence.buffer().stats()
    }

    /// The output buffer itself — the impound set is evidence, and crash
    /// harnesses fingerprint it directly.
    pub fn output_buffer(&self) -> &OutputBuffer {
        self.evidence.buffer()
    }

    /// Epochs committed so far.
    pub fn committed_epochs(&self) -> u64 {
        self.committed_epochs
    }

    /// `true` while a failed audit awaits [`Crimes::investigate`] /
    /// [`Crimes::rollback_and_resume`].
    pub fn has_pending_incident(&self) -> bool {
        self.pending.is_some()
    }

    /// Degraded-mode counters: how often retries, extensions, fallback
    /// rollbacks, and quarantines actually fired. Read out of
    /// [`telemetry`](Self::telemetry), which is where they are counted.
    pub fn robustness_stats(&self) -> RobustnessStats {
        let count = |counter| self.telemetry.counter(counter);
        RobustnessStats {
            vmi_retries: count(Counter::VmiRetries),
            speculation_extensions: count(Counter::SpeculationExtensions),
            commit_failures: count(Counter::CommitFailures),
            fallback_rollbacks: count(Counter::FallbackRollbacks),
            quarantines: count(Counter::Quarantines),
            missing_audit_starts: count(Counter::MissingAuditStarts),
        }
    }

    /// Telemetry accumulated so far: named counters, per-phase pause
    /// histograms, dirty-page and audit-duration distributions, and
    /// per-worker shard totals. Copy it out for export or fleet-level
    /// [`Telemetry::merge`] aggregation.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The epoch flight recorder: the newest structured boundary events,
    /// read back from the evidence journal (see [`RecentEvents`]).
    pub fn flight_recorder(&self) -> RecentEvents<'_> {
        self.evidence.recent_events()
    }

    /// `true` once the VM has been quarantined (suspended, outputs
    /// impounded). Terminal until an operator replaces the instance.
    pub fn is_quarantined(&self) -> bool {
        self.evidence.quarantined().is_some()
    }

    /// The durable evidence journal (its bytes are what a crash-recovery
    /// harness feeds back into [`Crimes::recover`]).
    pub fn journal(&self) -> &EvidenceJournal {
        self.evidence.journal()
    }

    /// Drain tickets awaiting a backup ack — non-zero only while the VM
    /// runs in degraded mode with the backup unreachable.
    pub fn pending_drain_count(&self) -> usize {
        self.evidence.pending().len()
    }

    /// Fleet bookkeeping: counts a round that skipped this VM because it
    /// was already quarantined.
    pub(crate) fn note_fleet_skip(&mut self) {
        self.telemetry.add(Counter::FleetSkips, 1);
    }

    /// Reroute draining to the standby backup (a warm replica of the
    /// current backup image) after repeated drain-session failures. Drain
    /// cursors restart from zero against the standby and the failure
    /// streak resets; un-acked generations re-drain in full.
    pub fn failover_backup(&mut self) {
        self.evidence
            .failover(u64::from(self.checkpointer.drain_session_failures()));
        self.checkpointer.failover_backup();
        self.telemetry.add(Counter::BackupFailovers, 1);
        let epoch = self.checkpointer.backup().epoch();
        self.evidence
            .record(epoch, self.clock.now_ns(), EventKind::BackupFailover);
        self.evidence.flush_events();
    }

    /// Enter quarantine: suspend the guest, impound the held outputs
    /// (neither released nor discarded — they are evidence), and make
    /// every subsequent operation fail with the returned error.
    pub(crate) fn quarantine(&mut self, reason: &'static str) -> CrimesError {
        self.vm.vcpus_mut().pause_all();
        let epoch = self.checkpointer.backup().epoch();
        self.evidence.quarantine(reason, epoch);
        self.telemetry.add(Counter::Quarantines, 1);
        self.evidence
            .record(epoch, self.clock.now_ns(), EventKind::Quarantined);
        self.evidence.flush_events();
        CrimesError::Quarantined { reason, epoch }
    }

    fn ensure_active(&self) -> Result<(), CrimesError> {
        match self.evidence.quarantined() {
            Some((reason, epoch)) => Err(CrimesError::Quarantined { reason, epoch }),
            None => Ok(()),
        }
    }

    /// Submit an external output from the guest. Under Synchronous safety
    /// it is held until the next committed boundary (`Ok(None)`); under
    /// Best Effort it is returned immediately for delivery.
    ///
    /// # Errors
    ///
    /// [`CrimesError::BufferOverflow`] when the buffer's configured
    /// capacity is exhausted (backpressure: the output never entered the
    /// system), or [`CrimesError::Quarantined`] — a quarantined VM may not
    /// emit anything.
    pub fn submit_output(&mut self, output: Output) -> Result<Option<Output>, CrimesError> {
        self.ensure_active()?;
        Ok(self.evidence.hold(output, self.vm.now_ns())?)
    }

    /// Run one full epoch: `work` drives the guest for the configured
    /// interval, then the boundary (suspend → audit → checkpoint/commit or
    /// incident) executes.
    ///
    /// # Errors
    ///
    /// Fails if an incident is pending, the VM is quarantined, or
    /// `work`/introspection fails.
    pub fn run_epoch<W>(&mut self, work: W) -> Result<EpochOutcome, CrimesError>
    where
        W: FnOnce(&mut Vm, u64) -> Result<(), VmError>,
    {
        self.begin_epoch(work)?;
        self.epoch_boundary()
    }

    /// Execute the end-of-epoch boundary on the guest as-is.
    ///
    /// The audit inside the boundary is hardened: transient VMI read
    /// faults are retried up to [`CrimesConfig::vmi_retries`] times; if
    /// they persist, or the audit overruns its deadline, the epoch is
    /// declared inconclusive and speculation extends
    /// ([`EpochOutcome::Extended`]) with outputs still buffered. If the
    /// checkpoint copy exhausts its retries the epoch cannot commit: the
    /// speculation is discarded, the VM rolls back to the newest verified
    /// checkpoint and resumes, and the copy error is returned.
    ///
    /// # Errors
    ///
    /// [`CrimesError::InvalidState`] if an incident is pending;
    /// [`CrimesError::Exhausted`] when the checkpoint copy kept failing
    /// (the VM has already been rolled back and resumed);
    /// [`CrimesError::Quarantined`] when repeated inconclusive audits or
    /// an unrecoverable rollback forced quarantine.
    pub fn epoch_boundary(&mut self) -> Result<EpochOutcome, CrimesError> {
        match self.boundary_pause_half(None)? {
            BoundaryProgress::Done(outcome) => Ok(outcome),
            BoundaryProgress::NeedsDrain(pending) => self.finish_boundary(pending),
        }
    }

    /// Run one full epoch with the sharded walk on a **leased external
    /// pool**: [`begin_epoch`](Self::begin_epoch) and
    /// [`pause_half_leased`](Self::pause_half_leased) back to back. The
    /// fleet scheduler calls the two steps itself, so the guest's work
    /// can run on one thread and its pause window on another.
    ///
    /// # Errors
    ///
    /// As [`run_epoch`](Self::run_epoch).
    pub fn run_epoch_leased<W>(
        &mut self,
        pool: &mut PauseWindowPool,
        work: W,
    ) -> Result<BoundaryProgress, CrimesError>
    where
        W: FnOnce(&mut Vm, u64) -> Result<(), VmError>,
    {
        self.begin_epoch(work)?;
        self.pause_half_leased(pool)
    }

    /// The first step of a leased epoch: `work` drives the guest for the
    /// configured interval. Nothing is suspended yet.
    ///
    /// # Errors
    ///
    /// Fails if an incident is pending, the VM is quarantined, or `work`
    /// fails.
    pub fn begin_epoch<W>(&mut self, work: W) -> Result<(), CrimesError>
    where
        W: FnOnce(&mut Vm, u64) -> Result<(), VmError>,
    {
        self.ensure_active()?;
        if self.pending.is_some() {
            return Err(CrimesError::InvalidState(
                "an incident is pending; investigate and roll back first",
            ));
        }
        work(&mut self.vm, self.config.epoch_interval_ms)?;
        Ok(())
    }

    /// The second step of a leased epoch: the boundary's pause half on
    /// `pool` — a fleet scheduler's leased walker — instead of the
    /// engine's private pool (bit-identical results; see
    /// [`run_epoch_on`](Checkpointer::run_epoch_on)).
    /// Returns [`BoundaryProgress`] instead of an outcome: when the
    /// deferred pipeline leaves a drain ticket, the caller finishes the
    /// boundary with [`finish_boundary`](Self::finish_boundary), which
    /// needs no pool.
    ///
    /// # Errors
    ///
    /// As [`epoch_boundary`](Self::epoch_boundary).
    pub fn pause_half_leased(
        &mut self,
        pool: &mut PauseWindowPool,
    ) -> Result<BoundaryProgress, CrimesError> {
        self.boundary_pause_half(Some(pool))
    }

    /// The pause half of the boundary: suspend, sharded walk (on the
    /// engine's pool, or on `pool` when leased from a fleet scheduler),
    /// verdict, and — for the deferred pipeline — drain-ticket
    /// bookkeeping up to the guest's resume.
    fn boundary_pause_half(
        &mut self,
        pool: Option<&mut PauseWindowPool>,
    ) -> Result<BoundaryProgress, CrimesError> {
        self.ensure_active()?;
        if self.pending.is_some() {
            return Err(CrimesError::InvalidState(
                "an incident is pending; investigate and roll back first",
            ));
        }
        let deadline = Duration::from_millis(self.config.effective_audit_deadline_ms());
        let vmi_retries = self.config.vmi_retries;
        let mut retries_used = 0u32;
        let epoch = self.checkpointer.backup().epoch();
        self.evidence
            .record(epoch, self.clock.now_ns(), EventKind::EpochStart);
        let Crimes {
            vm,
            checkpointer,
            session,
            detector,
            evidence,
            output_scanner,
            clock,
            telemetry,
            ..
        } = self;
        let mut audit = detector.blank_report();
        let mut audited = false;
        // One engine call, whatever the configuration: the audit is split
        // around the walk, whose sink (the backup, or a staging slot that
        // leaves a drain ticket) and worker count are the engine's values.
        let report = checkpointer.run_epoch_on(
            vm,
            &mut BoundaryAudit {
                detector,
                session,
                evidence,
                output_scanner: output_scanner.as_ref(),
                deadline,
                vmi_retries,
                retries_used: &mut retries_used,
                epoch,
                clock,
                telemetry,
                started_ns: None,
                staged: None,
                stage_errors: Vec::new(),
                audit: &mut audit,
                audited: &mut audited,
            },
            pool,
        );
        self.telemetry.add(Counter::VmiRetries, u64::from(retries_used));
        let mut report = match report {
            Ok(r) => r,
            Err(e) => {
                self.telemetry.add(Counter::CommitFailures, 1);
                self.evidence
                    .record(epoch, self.clock.now_ns(), EventKind::CommitFailure);
                return self.recover_failed_commit(e.into()).map(BoundaryProgress::Done);
            }
        };
        if !audited {
            return Err(CrimesError::InvalidState("audit hook did not run"));
        }

        // Feed the boundary's measurements into the histograms. This runs
        // after the engine resumed the guest, i.e. off the pause window.
        for (i, &ns) in report.phase_ns.iter().enumerate() {
            self.telemetry.record_phase_ns(i, ns);
        }
        self.telemetry
            .record_dirty_pages(u64::try_from(report.dirty_pages).unwrap_or(u64::MAX));
        self.telemetry.add(
            Counter::WalkShardsTakenBack,
            u64::try_from(report.shards_taken_back).unwrap_or(u64::MAX),
        );
        for (slot, stats) in self.checkpointer.worker_stats() {
            self.telemetry.record_worker(
                slot,
                u64::try_from(stats.pages).unwrap_or(u64::MAX),
                u64::try_from(stats.bytes).unwrap_or(u64::MAX),
                stats.syscalls,
            );
        }

        match report.verdict {
            AuditVerdict::Pass => {
                self.consecutive_extensions = 0;
                if let Some(ticket) = report.pending.take() {
                    // Deferred pipeline: the audit passed but the staged
                    // pages are not yet durable on the backup. Impound the
                    // epoch's outputs under the ticket's generation; the
                    // drain half streams the slot out and releases only on
                    // the backup's ack — the CRIMES guarantee (no output
                    // precedes its epoch's evidence) survives moving the
                    // copy past resume.
                    let held = self.evidence.stage_ticket(ticket, epoch);
                    self.evidence.record(
                        epoch,
                        self.clock.now_ns(),
                        EventKind::AckPending {
                            held: u32::try_from(held).unwrap_or(u32::MAX),
                        },
                    );
                    return Ok(BoundaryProgress::NeedsDrain(PendingBoundary {
                        report,
                        audit,
                        epoch,
                    }));
                }
                let released = self.evidence.release_held(&report, self.vm.now_ns())?;
                self.commit_epoch_tail(epoch, report, audit, released)
                    .map(BoundaryProgress::Done)
            }
            AuditVerdict::Fail => {
                self.consecutive_extensions = 0;
                self.telemetry.add(Counter::AttacksDetected, 1);
                self.evidence.record(
                    epoch,
                    self.clock.now_ns(),
                    EventKind::AttackDetected {
                        findings: u32::try_from(audit.findings.len()).unwrap_or(u32::MAX),
                    },
                );
                self.evidence.incident(epoch, audit.findings.len());
                self.pending = Some(audit.clone());
                self.evidence.flush_events();
                Ok(BoundaryProgress::Done(EpochOutcome::AttackDetected {
                    report,
                    audit,
                }))
            }
            AuditVerdict::Inconclusive => {
                // Fail closed by extending speculation: nothing committed,
                // nothing released — the next conclusive audit covers this
                // window too. The engine already re-marked the dirty pages
                // and resumed the guest.
                self.consecutive_extensions += 1;
                let consecutive = self.consecutive_extensions;
                self.telemetry.add(Counter::SpeculationExtensions, 1);
                self.evidence.record(
                    epoch,
                    self.clock.now_ns(),
                    EventKind::Extended { consecutive },
                );
                if consecutive > self.config.max_consecutive_extensions {
                    return Err(self.quarantine("repeated inconclusive audits"));
                }
                let cause = if audit
                    .errors
                    .iter()
                    .any(|(_, e)| matches!(e, VmiError::TransientReadFault))
                {
                    "transient VMI faults persisted through retries"
                } else {
                    "audit overran its deadline"
                };
                self.evidence.flush_events();
                Ok(BoundaryProgress::Done(EpochOutcome::Extended {
                    report,
                    cause,
                    consecutive,
                }))
            }
        }
    }

    /// The drain half of a split boundary: flush the pending drain queue
    /// oldest-first, release outputs on each ack, and commit — or
    /// degrade, quarantine, or recover when the backup stays unreachable.
    /// Needs no pause-window pool (the guest already resumed), which is
    /// what lets a fleet scheduler overlap this work with other tenants'
    /// in-window walks. [`epoch_boundary`](Self::epoch_boundary) calls it
    /// immediately after the pause half, so a split boundary and an
    /// unsplit one produce identical journals, outputs, and telemetry.
    ///
    /// # Errors
    ///
    /// The drain-failure half of
    /// [`epoch_boundary`](Self::epoch_boundary)'s error surface:
    /// [`CrimesError::Checkpoint`] after an unrecoverable drain with
    /// degraded mode disabled (the VM was rolled back and resumed), or
    /// [`CrimesError::Quarantined`] when the staged backlog outgrew its
    /// budget.
    pub fn finish_boundary(
        &mut self,
        pending: PendingBoundary,
    ) -> Result<EpochOutcome, CrimesError> {
        let PendingBoundary {
            report,
            audit,
            epoch,
        } = pending;
        // Drain sessions run oldest ticket first: a backlog accumulated
        // during a backup outage flushes in generation order before this
        // epoch's ticket.
        let drain_t0 = self.clock.now_ns();
        let mut released = Vec::new();
        let mut failed: Option<(CheckpointError, u64)> = None;
        while let Some(&next) = self.evidence.pending().front() {
            match self.checkpointer.drain_staged(&self.vm, next) {
                Ok(ack) => {
                    self.telemetry.add(Counter::DrainAcks, 1);
                    if ack.resumed_from > 0 {
                        // The session reconnected mid-stream and
                        // resynced from the slot's cursor.
                        self.telemetry.add(Counter::DrainResyncs, 1);
                        self.evidence.record(
                            epoch,
                            self.clock.now_ns(),
                            EventKind::DrainResync {
                                pages: u32::try_from(ack.resumed_from).unwrap_or(u32::MAX),
                            },
                        );
                    }
                    self.evidence.record(
                        epoch,
                        self.clock.now_ns(),
                        EventKind::DrainAcked {
                            pages: u32::try_from(ack.pages).unwrap_or(u32::MAX),
                        },
                    );
                    self.telemetry.add(
                        Counter::BytesSavedDelta,
                        u64::try_from(ack.bytes_saved).unwrap_or(u64::MAX),
                    );
                    self.telemetry.add(
                        Counter::DedupHits,
                        u64::try_from(ack.dedup_hits).unwrap_or(u64::MAX),
                    );
                    self.telemetry.add(
                        Counter::DedupMisses,
                        u64::try_from(ack.dedup_misses).unwrap_or(u64::MAX),
                    );
                    self.telemetry.add(
                        Counter::DrainHeadStartPages,
                        u64::try_from(ack.head_start_pages).unwrap_or(u64::MAX),
                    );
                    self.telemetry.add(
                        Counter::DrainCipherLentBytes,
                        u64::try_from(ack.cipher_lent_bytes).unwrap_or(u64::MAX),
                    );
                    released.extend(self.evidence.ack(&ack, self.vm.now_ns()));
                }
                Err(e) => {
                    failed = Some((e, next.generation()));
                    break;
                }
            }
        }
        self.telemetry
            .record_phase_ns(DRAIN_PHASE, self.clock.now_ns().saturating_sub(drain_t0));
        if let Some((e, stuck_generation)) = failed {
            self.telemetry.add(Counter::DrainFailures, 1);
            // The sessions the drain actually tried: a timeout can end it
            // before the last retry.
            let attempts = match e {
                CheckpointError::DrainTimeout { attempts, .. }
                | CheckpointError::BackupUnreachable { attempt: attempts } => attempts,
                _ => COPY_RETRIES + 1,
            };
            self.evidence
                .record(epoch, self.clock.now_ns(), EventKind::DrainFailed { attempts });
            let backlog = u64::try_from(self.evidence.pending().len()).unwrap_or(u64::MAX);
            if self.config.max_staged_backlog == 0 {
                // Degraded mode disabled: the epoch's evidence
                // never became durable, so its impounded
                // outputs must never escape. Recover exactly
                // as a failed commit: discard the speculation,
                // roll back to checksum-verified state, or
                // quarantine.
                self.telemetry.add(Counter::CommitFailures, 1);
                self.evidence
                    .record(epoch, self.clock.now_ns(), EventKind::CommitFailure);
                return self.recover_failed_commit(e.into());
            }
            if backlog > self.config.max_staged_backlog {
                // The outage outlasted the budget. Everything
                // staged stays impounded as evidence; the VM
                // suspends until an operator intervenes.
                return Err(self.quarantine("backup unreachable beyond the staged backlog"));
            }
            // Degraded mode: the audit passed, so the guest
            // keeps speculating with this window's outputs
            // impounded under their generations. Nothing is
            // committed — the backlog re-drains (and releases)
            // at a later boundary or after a failover.
            self.evidence.degraded(stuck_generation, backlog);
            self.telemetry.add(Counter::DegradedEpochs, 1);
            self.evidence.record(
                epoch,
                self.clock.now_ns(),
                EventKind::Degraded {
                    backlog: u32::try_from(backlog).unwrap_or(u32::MAX),
                },
            );
            self.evidence.flush_events();
            return Ok(EpochOutcome::Degraded {
                report,
                audit,
                backlog: u32::try_from(backlog).unwrap_or(u32::MAX),
            });
        }
        self.commit_epoch_tail(epoch, report, audit, released)
    }

    /// The shared commit tail of a passing boundary: async forensics
    /// dispatch, commit counters and events, replay-trace truncation, the
    /// journal's commit record, and the final outcome.
    fn commit_epoch_tail(
        &mut self,
        epoch: u64,
        report: EpochReport,
        audit: AuditReport,
        released: Vec<Output>,
    ) -> Result<EpochOutcome, CrimesError> {
        // Async deep forensics: ship the fresh checkpoint (for the
        // deferred pipeline, only durable now that the drain
        // acked) and collect anything the worker finished.
        if let Some((scanner, every)) = self.async_forensics.as_mut() {
            let epoch = self.committed_epochs + 1;
            if epoch.is_multiple_of(*every) {
                let dump = crimes_forensics::MemoryDump::from_frames(
                    self.checkpointer.backup().frames(),
                    &self.vm,
                    self.session.symbols(),
                    crimes_forensics::DumpKind::Adhoc,
                    self.vm.now_ns(),
                );
                scanner.dispatch(epoch, dump);
            }
            self.deferred.extend(scanner.poll());
        }
        self.telemetry.add(Counter::EpochsCommitted, 1);
        self.telemetry
            .add(Counter::OutputsReleased, u64::try_from(released.len()).unwrap_or(0));
        self.evidence.record(
            epoch,
            self.clock.now_ns(),
            EventKind::Committed {
                released: u32::try_from(released.len()).unwrap_or(u32::MAX),
            },
        );
        self.last_good_meta = self.vm.meta_snapshot();
        // The committed epoch's ops are no longer needed for replay.
        let mark = self.vm.trace_mark();
        self.vm.trace_truncate_before(mark);
        self.epoch_start_mark = self.vm.trace_mark();
        self.evidence.committed(self.committed_epochs);
        self.committed_epochs += 1;
        self.evidence.flush_events();
        Ok(EpochOutcome::Committed {
            report,
            audit,
            released,
        })
    }

    /// The checkpoint copy exhausted its retries: this epoch's writes can
    /// never be made durable, so the speculation is discarded (held
    /// outputs were never audited against committed state) and the VM
    /// rolls back to the newest checksum-verified checkpoint and resumes.
    /// Returns `Err(cause)` on success — the epoch still failed — and
    /// quarantines if no verified checkpoint remains.
    fn recover_failed_commit(
        &mut self,
        cause: CrimesError,
    ) -> Result<EpochOutcome, CrimesError> {
        self.discard_and_roll_back("commit failed with no verified checkpoint left")?;
        Err(cause)
    }

    /// The rollback tail a failed commit and a resolved incident share:
    /// discard the speculation — its impounded outputs, and any
    /// staged-but-unacked tickets, whose pages describe state that is
    /// being rolled away — restore the newest checksum-verified
    /// checkpoint, and resume the guest. Returns how many outputs were
    /// discarded.
    ///
    /// # Errors
    ///
    /// Quarantines, for the reason `no_checkpoint`, when no verified
    /// checkpoint remains.
    fn discard_and_roll_back(&mut self, no_checkpoint: &'static str) -> Result<usize, CrimesError> {
        let epoch = self.checkpointer.backup().epoch();
        let discarded = self.evidence.discard_all(&mut self.checkpointer);
        self.telemetry
            .add(Counter::OutputsDiscarded, u64::try_from(discarded).unwrap_or(0));
        match self.checkpointer.rollback(&mut self.vm, &self.last_good_meta) {
            Ok(rb) => {
                if rb.fell_back {
                    self.telemetry.add(Counter::FallbackRollbacks, 1);
                    self.evidence.record(
                        epoch,
                        self.clock.now_ns(),
                        EventKind::FallbackRollback,
                    );
                }
            }
            Err(_) => return Err(self.quarantine(no_checkpoint)),
        }
        // A fallback may have restored a generation older than
        // `last_good_meta`; re-snapshot the state actually restored.
        self.last_good_meta = self.vm.meta_snapshot();
        // Drop the discarded epoch's trace; recording stays on.
        let mark = self.vm.trace_mark();
        self.vm.trace_truncate_before(mark);
        self.epoch_start_mark = self.vm.trace_mark();
        self.consecutive_extensions = 0;
        self.vm.vcpus_mut().resume_all();
        self.evidence.record(
            epoch,
            self.clock.now_ns(),
            EventKind::RollbackResumed {
                discarded: u32::try_from(discarded).unwrap_or(u32::MAX),
            },
        );
        self.evidence.flush_events();
        Ok(discarded)
    }

    /// Run the automated §3.3 response for the pending incident: dumps,
    /// optional rollback-and-replay pinpointing, diffing, and the security
    /// report. The incident stays pending (the VM is left wherever the
    /// deepest analysis step needed it); finish with
    /// [`Crimes::rollback_and_resume`].
    ///
    /// # Errors
    ///
    /// Fails when no incident is pending, or on introspection errors.
    /// Transient VMI read faults are retried up to
    /// [`CrimesConfig::vmi_retries`] times — an analysis pass is
    /// restartable (replay re-restores from the backup, and the dumps are
    /// captured once, before the first replay) — before the residual
    /// error surfaces. Even then the incident stays pending and
    /// [`Crimes::rollback_and_resume`] still contains it: forensics is
    /// best-effort, containment is not.
    pub fn investigate(&mut self) -> Result<Analysis, CrimesError> {
        let audit = self
            .pending
            .clone()
            .ok_or(CrimesError::InvalidState("no incident pending"))?;
        let ops = self.vm.trace_since(self.epoch_start_mark);
        let mut attempt = 0u32;
        let mut analysis = self.analyzer.analyze(
            &mut self.vm,
            self.checkpointer.backup().frames(),
            self.checkpointer.backup().disk(),
            &self.last_good_meta,
            &ops,
            audit.findings,
            |e| {
                let again = matches!(e, CrimesError::Vmi(VmiError::TransientReadFault))
                    && attempt < self.config.vmi_retries;
                if again {
                    attempt += 1;
                    self.telemetry.add(Counter::VmiRetries, 1);
                    backoff_sleep(&*self.clock, attempt);
                }
                again
            },
        )?;
        // The flight recorder's timeline is evidence too: what the
        // framework itself did in the epochs leading up to the incident
        // rides along in the report.
        analysis.report.push_section(
            "Framework flight recorder",
            &render_timeline(self.flight_recorder().events()),
        );
        Ok(analysis)
    }

    /// Resolve the pending incident: discard the attack epoch's buffered
    /// outputs (they never escaped), roll the VM back to the last clean
    /// checkpoint, and resume execution. Returns how many outputs were
    /// discarded.
    ///
    /// # Errors
    ///
    /// [`CrimesError::InvalidState`] when no incident is pending, or
    /// [`CrimesError::Quarantined`] when the backup image is corrupt and
    /// no older checksum-verified generation exists to fall back to (the
    /// VM stays suspended with outputs impounded).
    pub fn rollback_and_resume(&mut self) -> Result<usize, CrimesError> {
        self.ensure_active()?;
        if self.pending.take().is_none() {
            return Err(CrimesError::InvalidState("no incident pending"));
        }
        self.discard_and_roll_back("rollback found no verified checkpoint")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modules::{BlacklistScanModule, CanaryScanModule, NoopScanModule};
    use crimes_checkpoint::resident::{pin, Placement};
    use crimes_faults::{install, FaultPlan, SCALE};
    use crimes_outbuf::NetPacket;
    use crimes_outbuf::SafetyMode;
    use crimes_telemetry::Event;
    use crimes_vm::symbols::names;
    use crimes_vm::Gpa;
    use crimes_workloads::attacks;

    fn protected(interval_ms: u64) -> Crimes {
        protected_with(interval_ms, |_| {})
    }

    fn protected_with(
        interval_ms: u64,
        tweak: impl FnOnce(&mut crate::config::CrimesConfigBuilder),
    ) -> Crimes {
        let mut b = Vm::builder();
        b.pages(4096).seed(66);
        let vm = b.build();
        let mut cfg = CrimesConfig::builder();
        cfg.epoch_interval_ms(interval_ms);
        tweak(&mut cfg);
        Crimes::protect(vm, cfg.build().expect("valid config")).expect("protect")
    }

    #[test]
    fn clean_epochs_commit_and_release_outputs() {
        let mut c = protected(50);
        c.register_module(Box::new(NoopScanModule::new()));
        let pid = c.vm_mut().spawn_process("app", 0, 8).expect("spawn");
        assert!(c
            .submit_output(Output::Net(NetPacket::new(1, vec![1, 2, 3])))
            .expect("within limits")
            .is_none());
        let outcome = c
            .run_epoch(|vm, ms| {
                vm.dirty_arena_page(pid, 0, 0, 1)?;
                vm.advance_time(ms * 1_000_000);
                Ok(())
            })
            .expect("clean epoch");
        let EpochOutcome::Committed {
            released,
            audit,
            report,
        } = outcome
        else {
            panic!("clean epoch must commit");
        };
        assert!(audit.passed());
        assert_eq!(released.len(), 1);
        assert!(report.dirty_pages >= 1);
        assert_eq!(c.committed_epochs(), 1);
        assert!(!c.has_pending_incident());
    }

    #[test]
    fn overflow_is_detected_and_rolled_back() {
        let mut c = protected(50);
        let secret = c.vm().canary_secret();
        c.register_module(Box::new(CanaryScanModule::new(secret)));
        let pid = c.vm_mut().spawn_process("victim", 0, 16).expect("spawn");

        // Clean epoch so state is checkpointed post-spawn.
        let outcome = c.run_epoch(|_vm, _| Ok(())).expect("clean epoch");
        assert!(outcome.is_committed());

        // Attack epoch: exfiltration attempt + overflow.
        c.submit_output(Output::Net(NetPacket::new(9, b"loot".to_vec())))
            .expect("within limits");
        let outcome = c
            .run_epoch(|vm, _| {
                attacks::inject_heap_overflow(vm, pid, 64, 16)?;
                Ok(())
            })
            .expect("attack epoch completes the boundary");
        let EpochOutcome::AttackDetected { audit, .. } = outcome else {
            panic!("overflow must be detected");
        };
        assert_eq!(audit.findings.len(), 1);
        assert!(c.has_pending_incident());
        assert!(c.vm().vcpus().all_paused());

        // No epoch may run while the incident is pending.
        assert!(matches!(
            c.epoch_boundary(),
            Err(CrimesError::InvalidState(_))
        ));

        // Investigate: full analysis with pinpoint.
        let analysis = c.investigate().expect("analysis");
        assert!(analysis.pinpoint.is_some());

        // Rollback: the loot packet is discarded, the VM is clean.
        let discarded = c.rollback_and_resume().expect("rollback");
        assert_eq!(discarded, 1, "the exfiltration packet never escaped");
        assert!(!c.has_pending_incident());
        assert!(!c.vm().vcpus().all_paused());
        assert_eq!(c.buffer_stats().discarded, 1);
        assert_eq!(c.buffer_stats().released, 0);

        // The overflow's effects are gone: the heap has no live object.
        assert_eq!(c.vm().heap().allocations_of(pid).len(), 0);

        // The system keeps running clean epochs afterwards.
        let outcome = c.run_epoch(|_vm, _| Ok(())).expect("clean epoch");
        assert!(outcome.is_committed());
    }

    #[test]
    fn a_retried_investigation_reports_the_failed_boundary_not_the_replay() {
        // A pinpointing replay leaves the VM at the attack instant; the
        // writes after the overflow make that differ from the boundary.
        // Under transient read faults some seed retries the analysis after
        // a replay: its failure dump must still be the boundary's state.
        for seed in 0..64u64 {
            let mut c = protected(50);
            let secret = c.vm().canary_secret();
            c.register_module(Box::new(CanaryScanModule::new(secret)));
            let pid = c.vm_mut().spawn_process("victim", 0, 16).expect("spawn");
            assert!(c.run_epoch(|_vm, _| Ok(())).expect("clean").is_committed());
            let outcome = c
                .run_epoch(|vm, _| {
                    attacks::inject_heap_overflow(vm, pid, 64, 16)?;
                    for page in 8..12 {
                        vm.dirty_arena_page(pid, page, 0, 0xEE)?;
                    }
                    Ok(())
                })
                .expect("attack epoch completes the boundary");
            assert!(matches!(outcome, EpochOutcome::AttackDetected { .. }));
            let boundary = c.vm().memory().dump_frames();

            let analysis = {
                let _scope = install(
                    FaultPlan::disabled().with_rate(FaultPoint::VmiRead, 200),
                    seed,
                );
                c.investigate()
            };
            let retried = c.robustness_stats().vmi_retries > 0;
            let Ok(analysis) = analysis else { continue };
            if !retried || analysis.pinpoint.is_none() {
                continue;
            }
            assert!(
                analysis.dumps.audit_failure.memory().dump_frames() == boundary,
                "seed {seed}: the retried failure dump is not the boundary's frames"
            );
            return;
        }
        panic!("no seed retried a pinpointed investigation");
    }

    #[test]
    fn malware_detection_without_replay() {
        let mut c = protected(50);
        c.register_module(Box::new(BlacklistScanModule::bundled()));
        let outcome = c
            .run_epoch(|vm, _| {
                attacks::inject_malware_launch(vm, "xmrig")?;
                Ok(())
            })
            .expect("attack epoch completes the boundary");
        assert!(!outcome.is_committed());
        let analysis = c.investigate().expect("analysis");
        assert!(analysis.pinpoint.is_none());
        assert!(analysis.report.to_text().contains("xmrig"));
        c.rollback_and_resume().expect("rollback");
        // The malware process is gone after rollback.
        use crimes_vmi::{linux, VmiSession};
        let s = VmiSession::init(c.vm()).expect("init");
        assert!(!linux::process_list(&s, c.vm().memory())
            .expect("process list")
            .iter()
            .any(|t| t.comm == "xmrig"));
    }

    #[test]
    fn best_effort_outputs_escape_immediately() {
        let mut b = Vm::builder();
        b.pages(4096).seed(9);
        let vm = b.build();
        let mut cfg = CrimesConfig::builder();
        cfg.epoch_interval_ms(20).safety(SafetyMode::BestEffort);
        let mut c = Crimes::protect(vm, cfg.build().expect("valid config")).expect("protect");
        let out = c
            .submit_output(Output::Net(NetPacket::new(1, vec![0])))
            .expect("best effort never overflows");
        assert!(out.is_some(), "best effort does not hold outputs");
    }

    #[test]
    fn investigate_without_incident_fails() {
        let mut c = protected(50);
        assert!(matches!(c.investigate(), Err(CrimesError::InvalidState(_))));
        assert!(matches!(
            c.rollback_and_resume(),
            Err(CrimesError::InvalidState(_))
        ));
    }

    #[test]
    fn multiple_clean_epochs_accumulate_stats() {
        let mut c = protected(20);
        c.register_module(Box::new(NoopScanModule::new()));
        let pid = c.vm_mut().spawn_process("app", 0, 8).expect("spawn");
        for e in 0..5 {
            let outcome = c
                .run_epoch(|vm, ms| {
                    vm.dirty_arena_page(pid, e % 8, 0, e as u8)?;
                    vm.advance_time(ms * 1_000_000);
                    Ok(())
                })
                .expect("clean epoch");
            assert!(outcome.is_committed());
        }
        assert_eq!(c.committed_epochs(), 5);
        assert_eq!(c.checkpointer().backup().epoch(), 5);
        assert_eq!(c.robustness_stats(), RobustnessStats::default());
    }

    #[test]
    fn trace_is_truncated_at_commits() {
        let mut c = protected(20);
        c.register_module(Box::new(NoopScanModule::new()));
        let pid = c.vm_mut().spawn_process("app", 0, 8).expect("spawn");
        for _ in 0..3 {
            c.run_epoch(|vm, _| {
                for i in 0..100 {
                    vm.dirty_arena_page(pid, i % 8, i, 0)?;
                }
                Ok(())
            })
            .expect("clean epoch");
        }
        // Only the current (empty) epoch remains in the trace.
        assert!(c.vm().trace_since(crimes_vm::TraceMark(0)).is_empty());
    }

    #[test]
    fn audit_overrun_extends_speculation_then_commits() {
        let mut c = protected(50);
        c.register_module(Box::new(NoopScanModule::new()));
        let pid = c.vm_mut().spawn_process("app", 0, 8).expect("spawn");
        c.submit_output(Output::Net(NetPacket::new(1, vec![7])))
            .expect("within limits");

        // Epoch under a guaranteed audit-deadline overrun: inconclusive.
        let scope = install(
            FaultPlan::disabled().with_rate(FaultPoint::AuditOverrun, SCALE),
            7,
        );
        let outcome = c
            .run_epoch(|vm, _| {
                vm.dirty_arena_page(pid, 0, 0, 0xEE)?;
                Ok(())
            })
            .expect("overrun extends, not errors");
        drop(scope);
        let EpochOutcome::Extended {
            cause, consecutive, ..
        } = outcome
        else {
            panic!("expected Extended, got {outcome:?}");
        };
        assert_eq!(consecutive, 1);
        assert_eq!(cause, "audit overran its deadline");
        // Fail closed: nothing escaped, nothing committed.
        assert_eq!(c.buffer_stats().released, 0);
        assert_eq!(c.committed_epochs(), 0);
        assert!(!c.vm().vcpus().all_paused(), "speculation continues");

        // Next epoch is conclusive: the extended window commits and the
        // held output finally releases.
        let outcome = c.run_epoch(|_vm, _| Ok(())).expect("clean epoch");
        let EpochOutcome::Committed { released, report, .. } = outcome else {
            panic!("expected commit after extension");
        };
        assert_eq!(released.len(), 1);
        // The extended epoch's dirty page carried over into this commit.
        assert!(report.dirty_pages >= 1);
        let stats = c.robustness_stats();
        assert_eq!(stats.speculation_extensions, 1);
        assert_eq!(stats.quarantines, 0);
    }

    #[test]
    fn persistent_vmi_faults_retry_then_extend_then_quarantine() {
        let mut c = protected_with(50, |cfg| {
            cfg.vmi_retries(2).max_consecutive_extensions(1);
        });
        c.register_module(Box::new(NoopScanModule::new()));
        c.submit_output(Output::Net(NetPacket::new(3, b"held".to_vec())))
            .expect("within limits");

        let _scope = install(
            FaultPlan::disabled().with_rate(FaultPoint::VmiRead, SCALE),
            11,
        );
        // First inconclusive epoch: retried, then extended.
        let outcome = c.run_epoch(|_vm, _| Ok(())).expect("first extension");
        let EpochOutcome::Extended {
            cause, consecutive, ..
        } = outcome
        else {
            panic!("expected Extended, got {outcome:?}");
        };
        assert_eq!(consecutive, 1);
        assert_eq!(cause, "transient VMI faults persisted through retries");
        assert_eq!(c.robustness_stats().vmi_retries, 2);

        // Second inconclusive epoch exceeds the limit: quarantine.
        let err = c.run_epoch(|_vm, _| Ok(())).expect_err("quarantine");
        assert!(matches!(err, CrimesError::Quarantined { .. }));
        assert!(c.is_quarantined());
        assert!(c.vm().vcpus().all_paused(), "quarantined VM is suspended");
        // Outputs are impounded: never released, never discarded.
        assert_eq!(c.buffer_stats().released, 0);
        assert_eq!(c.buffer_stats().discarded, 0);
        // Everything else now refuses to run.
        assert!(matches!(
            c.run_epoch(|_vm, _| Ok(())),
            Err(CrimesError::Quarantined { .. })
        ));
        assert!(matches!(
            c.submit_output(Output::Net(NetPacket::new(4, vec![0]))),
            Err(CrimesError::Quarantined { .. })
        ));
        let stats = c.robustness_stats();
        assert_eq!(stats.speculation_extensions, 2);
        assert_eq!(stats.quarantines, 1);
        // The stats are the telemetry counters of the same meaning.
        let counter = |k| c.telemetry().counter(k);
        assert_eq!(
            stats,
            RobustnessStats {
                vmi_retries: counter(Counter::VmiRetries),
                speculation_extensions: counter(Counter::SpeculationExtensions),
                commit_failures: counter(Counter::CommitFailures),
                fallback_rollbacks: counter(Counter::FallbackRollbacks),
                quarantines: counter(Counter::Quarantines),
                missing_audit_starts: counter(Counter::MissingAuditStarts),
            }
        );
    }

    #[test]
    fn copy_exhaustion_rolls_back_and_resumes() {
        let mut c = protected(50);
        c.register_module(Box::new(NoopScanModule::new()));
        let pid = c.vm_mut().spawn_process("app", 0, 8).expect("spawn");
        let outcome = c.run_epoch(|_vm, _| Ok(())).expect("baseline commit");
        assert!(outcome.is_committed());

        c.submit_output(Output::Net(NetPacket::new(5, b"spec".to_vec())))
            .expect("within limits");
        let scope = install(
            FaultPlan::disabled().with_rate(FaultPoint::PageCopy, SCALE),
            13,
        );
        let err = c
            .run_epoch(|vm, _| {
                vm.dirty_arena_page(pid, 1, 0, 0xAB)?;
                Ok(())
            })
            .expect_err("copy can never succeed");
        drop(scope);
        assert!(matches!(
            err,
            CrimesError::Exhausted {
                what: "checkpoint copy",
                ..
            }
        ));
        // Fail closed: the speculation was discarded, nothing released.
        assert_eq!(c.buffer_stats().released, 0);
        assert_eq!(c.buffer_stats().discarded, 1);
        // The VM auto-recovered: rolled back, resumed, not quarantined.
        assert!(!c.is_quarantined());
        assert!(!c.vm().vcpus().all_paused());
        assert_eq!(c.robustness_stats().commit_failures, 1);

        // And keeps committing clean epochs afterwards.
        let outcome = c.run_epoch(|_vm, _| Ok(())).expect("clean epoch");
        assert!(outcome.is_committed());
    }

    #[test]
    fn fused_boundary_commits_clean_epochs() {
        let mut c = protected_with(50, |cfg| {
            cfg.pause_workers(4);
        });
        let secret = c.vm().canary_secret();
        c.register_module(Box::new(CanaryScanModule::new(secret)));
        let pid = c.vm_mut().spawn_process("app", 0, 8).expect("spawn");
        c.submit_output(Output::Net(NetPacket::new(1, vec![1, 2, 3])))
            .expect("within limits");
        let outcome = c
            .run_epoch(|vm, ms| {
                vm.dirty_arena_page(pid, 0, 0, 1)?;
                vm.advance_time(ms * 1_000_000);
                Ok(())
            })
            .expect("clean epoch");
        let EpochOutcome::Committed {
            released,
            audit,
            report,
        } = outcome
        else {
            panic!("clean fused epoch must commit");
        };
        assert!(audit.passed());
        assert_eq!(released.len(), 1);
        assert!(report.dirty_pages >= 1);
        assert_eq!(c.committed_epochs(), 1);
    }

    #[test]
    fn fused_boundary_detects_overflow_and_rolls_back() {
        let mut c = protected_with(50, |cfg| {
            cfg.pause_workers(4);
        });
        let secret = c.vm().canary_secret();
        c.register_module(Box::new(CanaryScanModule::new(secret)));
        let pid = c.vm_mut().spawn_process("victim", 0, 16).expect("spawn");

        let outcome = c.run_epoch(|_vm, _| Ok(())).expect("clean epoch");
        assert!(outcome.is_committed());

        c.submit_output(Output::Net(NetPacket::new(9, b"loot".to_vec())))
            .expect("within limits");
        let outcome = c
            .run_epoch(|vm, _| {
                attacks::inject_heap_overflow(vm, pid, 64, 16)?;
                Ok(())
            })
            .expect("attack epoch completes the boundary");
        let EpochOutcome::AttackDetected { audit, .. } = outcome else {
            panic!("overflow must be detected through the fused walk");
        };
        assert_eq!(audit.findings.len(), 1);
        assert_eq!(audit.findings[0].detection.category(), "buffer-overflow");
        assert!(c.has_pending_incident());
        assert!(c.vm().vcpus().all_paused());

        // The walk rolled its copies back, so forensics and rollback see
        // exactly the last commit's state.
        let analysis = c.investigate().expect("analysis");
        assert!(analysis.pinpoint.is_some());
        let discarded = c.rollback_and_resume().expect("rollback");
        assert_eq!(discarded, 1, "the exfiltration packet never escaped");
        assert_eq!(c.vm().heap().allocations_of(pid).len(), 0);

        let outcome = c.run_epoch(|_vm, _| Ok(())).expect("clean epoch");
        assert!(outcome.is_committed());
    }

    #[test]
    fn fused_boundary_matches_serial_commits() {
        // The same guest driven through the same epochs must commit the
        // same state whether the boundary walks with one worker or four.
        let drive = |workers: usize| -> (u64, Vec<u8>) {
            let mut c = protected_with(50, |cfg| {
                cfg.pause_workers(workers);
            });
            let secret = c.vm().canary_secret();
            c.register_module(Box::new(CanaryScanModule::new(secret)));
            let pid = c.vm_mut().spawn_process("app", 0, 16).expect("spawn");
            for e in 0..4u64 {
                let outcome = c
                    .run_epoch(|vm, ms| {
                        for i in 0..6 {
                            vm.dirty_arena_page(pid, (e as usize + i) % 16, i, e as u8)?;
                        }
                        vm.advance_time(ms * 1_000_000);
                        Ok(())
                    })
                    .expect("clean epoch");
                assert!(outcome.is_committed());
            }
            (
                c.committed_epochs(),
                c.checkpointer().backup().frames().to_vec(),
            )
        };
        let (serial_epochs, serial_frames) = drive(1);
        let (fused_epochs, fused_frames) = drive(4);
        assert_eq!(serial_epochs, fused_epochs);
        assert_eq!(serial_frames, fused_frames, "committed images must be bit-identical");
    }

    #[test]
    fn deferred_boundary_gates_release_on_the_backup_ack() {
        let mut c = protected_with(50, |cfg| {
            cfg.pause_workers(2).staging_buffers(2);
        });
        let secret = c.vm().canary_secret();
        c.register_module(Box::new(CanaryScanModule::new(secret)));
        let pid = c.vm_mut().spawn_process("app", 0, 8).expect("spawn");
        c.submit_output(Output::Net(NetPacket::new(1, vec![1, 2, 3])))
            .expect("within limits");
        let outcome = c
            .run_epoch(|vm, ms| {
                vm.dirty_arena_page(pid, 0, 0, 1)?;
                vm.advance_time(ms * 1_000_000);
                Ok(())
            })
            .expect("clean epoch");
        let EpochOutcome::Committed { released, audit, report } = outcome else {
            panic!("clean deferred epoch must commit");
        };
        assert!(audit.passed());
        assert_eq!(released.len(), 1);
        assert_eq!(
            report.copy.syscalls, 0,
            "the deferred pause window never touches the socket"
        );
        assert_eq!(c.committed_epochs(), 1);
        assert_eq!(c.checkpointer().backup().epoch(), 1, "drain committed");
        assert_eq!(c.checkpointer().drains_in_flight(), 0);

        // The boundary's event sequence shows the ack protocol: outputs
        // move to ack-pending before the drain, and release after it.
        let kinds: Vec<&'static str> = c
            .flight_recorder()
            .events_for_epoch(0)
            .map(|e| e.kind.label())
            .collect();
        assert_eq!(
            kinds,
            vec![
                "epoch_start",
                "audit_staged",
                "ack_pending",
                "drain_acked",
                "committed"
            ]
        );
        assert_eq!(c.telemetry().counter(Counter::DrainAcks), 1);
        assert_eq!(c.telemetry().counter(Counter::DrainFailures), 0);
        // The drain is timed as its own (seventh) phase.
        let (label, h) = c
            .telemetry()
            .phases()
            .last()
            .expect("drain phase registered");
        assert_eq!(label, DRAIN_PHASE_LABEL);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn deferred_boundary_matches_serial_commits() {
        // The same guest driven through the same epochs must commit the
        // same state whether the copy-out runs inside the window or as a
        // deferred drain.
        let drive = |buffers: usize| -> (u64, Vec<u8>) {
            let mut c = protected_with(50, |cfg| {
                if buffers > 0 {
                    cfg.pause_workers(2).staging_buffers(buffers);
                }
            });
            let secret = c.vm().canary_secret();
            c.register_module(Box::new(CanaryScanModule::new(secret)));
            let pid = c.vm_mut().spawn_process("app", 0, 16).expect("spawn");
            for e in 0..4u64 {
                let outcome = c
                    .run_epoch(|vm, ms| {
                        for i in 0..6 {
                            vm.dirty_arena_page(pid, (e as usize + i) % 16, i, e as u8)?;
                        }
                        vm.advance_time(ms * 1_000_000);
                        Ok(())
                    })
                    .expect("clean epoch");
                assert!(outcome.is_committed());
            }
            (
                c.committed_epochs(),
                c.checkpointer().backup().frames().to_vec(),
            )
        };
        let (serial_epochs, serial_frames) = drive(0);
        let (deferred_epochs, deferred_frames) = drive(2);
        assert_eq!(serial_epochs, deferred_epochs);
        assert_eq!(
            serial_frames, deferred_frames,
            "committed images must be bit-identical"
        );
    }

    #[test]
    fn deferred_boundary_detects_attack_and_rolls_back() {
        let mut c = protected_with(50, |cfg| {
            cfg.pause_workers(2).staging_buffers(1);
        });
        let secret = c.vm().canary_secret();
        c.register_module(Box::new(CanaryScanModule::new(secret)));
        let pid = c.vm_mut().spawn_process("victim", 0, 16).expect("spawn");
        assert!(c.run_epoch(|_vm, _| Ok(())).expect("clean").is_committed());

        c.submit_output(Output::Net(NetPacket::new(9, b"loot".to_vec())))
            .expect("within limits");
        let outcome = c
            .run_epoch(|vm, _| {
                attacks::inject_heap_overflow(vm, pid, 64, 16)?;
                Ok(())
            })
            .expect("attack epoch completes the boundary");
        let EpochOutcome::AttackDetected { audit, .. } = outcome else {
            panic!("overflow must be detected through the staged walk");
        };
        assert_eq!(audit.findings.len(), 1);
        assert_eq!(c.checkpointer().drains_in_flight(), 0, "slot discarded");
        let discarded = c.rollback_and_resume().expect("rollback");
        assert_eq!(discarded, 1, "the exfiltration packet never escaped");
        assert_eq!(c.buffer_stats().released, 0);
        assert!(c.run_epoch(|_vm, _| Ok(())).expect("clean").is_committed());
    }

    #[test]
    fn deferred_drain_failure_never_releases_outputs() {
        let mut c = protected_with(50, |cfg| {
            cfg.pause_workers(2).staging_buffers(1).history_depth(2);
        });
        c.register_module(Box::new(NoopScanModule::new()));
        let pid = c.vm_mut().spawn_process("app", 0, 8).expect("spawn");
        assert!(c.run_epoch(|_vm, _| Ok(())).expect("clean").is_committed());

        c.submit_output(Output::Net(NetPacket::new(5, b"gated".to_vec())))
            .expect("within limits");
        let scope = install(
            FaultPlan::disabled().with_rate(FaultPoint::BackupDrain, SCALE),
            17,
        );
        let err = c
            .run_epoch(|vm, _| {
                vm.dirty_arena_page(pid, 1, 0, 0xCD)?;
                Ok(())
            })
            .expect_err("the drain can never succeed");
        drop(scope);
        assert!(
            matches!(err, CrimesError::Checkpoint(_) | CrimesError::Timeout { .. }),
            "unexpected error: {err}"
        );
        // Fail closed: the gated output was impounded under a generation
        // whose evidence never became durable, and was destroyed with the
        // speculation — zero released, ever.
        assert_eq!(c.buffer_stats().released, 0);
        assert_eq!(c.buffer_stats().discarded, 1);
        assert_eq!(c.telemetry().counter(Counter::DrainFailures), 1);
        assert_eq!(c.robustness_stats().commit_failures, 1);
        // The VM recovered onto checksum-verified state and keeps going.
        assert!(!c.is_quarantined());
        assert!(!c.vm().vcpus().all_paused());
        // Captured before the recovery epoch below re-uses epoch index 1.
        let kinds: Vec<&'static str> = c
            .flight_recorder()
            .events_for_epoch(1)
            .map(|e| e.kind.label())
            .collect();
        assert!(kinds.contains(&"ack_pending"));
        assert!(kinds.contains(&"drain_failed"));
        assert!(!kinds.contains(&"committed"));
        assert!(c.run_epoch(|_vm, _| Ok(())).expect("clean").is_committed());
    }

    #[test]
    fn degraded_mode_impounds_outputs_until_a_later_drain_acks() {
        let mut c = protected_with(50, |cfg| {
            cfg.pause_workers(2).staging_buffers(3).max_staged_backlog(2);
        });
        c.register_module(Box::new(NoopScanModule::new()));
        let pid = c.vm_mut().spawn_process("app", 0, 8).expect("spawn");

        // Backup unreachable: audits pass, so the guest keeps running
        // with its outputs impounded instead of rolling back.
        let scope = install(
            FaultPlan::disabled().with_rate(FaultPoint::BackupOutage, SCALE),
            23,
        );
        for round in 0..2u32 {
            c.submit_output(Output::Net(NetPacket::new(
                u64::from(round),
                vec![round as u8; 3],
            )))
            .expect("within limits");
            let outcome = c
                .run_epoch(|vm, _| {
                    vm.dirty_arena_page(pid, round as usize, 0, round as u8)?;
                    Ok(())
                })
                .expect("a budgeted outage is not an error");
            let EpochOutcome::Degraded { backlog, audit, .. } = outcome else {
                panic!("outage within the backlog budget must degrade");
            };
            assert!(audit.passed());
            assert_eq!(backlog, round + 1);
        }
        drop(scope);
        assert_eq!(c.committed_epochs(), 0, "degraded epochs do not commit");
        assert_eq!(c.buffer_stats().released, 0, "everything stays impounded");
        assert_eq!(c.pending_drain_count(), 2);
        assert_eq!(c.telemetry().counter(Counter::DegradedEpochs), 2);
        assert!(c.checkpointer().drain_session_failures() > 0);

        // Backup reachable again: the next boundary flushes the backlog
        // oldest-first and releases every impounded generation.
        c.submit_output(Output::Net(NetPacket::new(9, vec![9])))
            .expect("within limits");
        let outcome = c
            .run_epoch(|vm, _| {
                vm.dirty_arena_page(pid, 3, 0, 9)?;
                Ok(())
            })
            .expect("clean epoch");
        let EpochOutcome::Committed { released, .. } = outcome else {
            panic!("the backlog must flush and commit");
        };
        assert_eq!(
            released.len(),
            3,
            "both degraded epochs' outputs release with this one's"
        );
        assert_eq!(c.pending_drain_count(), 0);
        assert_eq!(c.telemetry().counter(Counter::DrainAcks), 3);
        assert_eq!(c.checkpointer().drain_session_failures(), 0);
        assert!(c.checkpointer().verify_backup().is_ok());
        // The journal saw the whole arc: two degraded records, then all
        // three generations acked.
        let state = crimes_journal::EvidenceJournal::replay(c.journal().bytes());
        assert_eq!(state.truncated_at, None);
        assert_eq!(state.degraded_epochs, 2);
        assert_eq!(state.last_acked_generation, 3);
        assert!(state.held.is_empty());
        assert!(state.ack_pending.is_empty());
    }

    #[test]
    fn outage_beyond_the_staged_backlog_quarantines() {
        let mut c = protected_with(50, |cfg| {
            cfg.pause_workers(2).staging_buffers(2).max_staged_backlog(1);
        });
        c.register_module(Box::new(NoopScanModule::new()));
        let pid = c.vm_mut().spawn_process("app", 0, 8).expect("spawn");
        c.submit_output(Output::Net(NetPacket::new(1, b"evidence".to_vec())))
            .expect("within limits");

        let scope = install(
            FaultPlan::disabled().with_rate(FaultPoint::BackupOutage, SCALE),
            29,
        );
        let outcome = c
            .run_epoch(|vm, _| {
                vm.dirty_arena_page(pid, 0, 0, 1)?;
                Ok(())
            })
            .expect("first outage is within the backlog budget");
        assert!(matches!(
            outcome,
            EpochOutcome::Degraded { backlog: 1, .. }
        ));
        let err = c
            .run_epoch(|vm, _| {
                vm.dirty_arena_page(pid, 1, 0, 2)?;
                Ok(())
            })
            .expect_err("second outage exceeds the backlog");
        drop(scope);
        assert!(matches!(err, CrimesError::Quarantined { .. }));
        assert!(c.is_quarantined());
        assert!(c.vm().vcpus().all_paused());
        // Fail closed: impounded as evidence — never released, and (unlike
        // a rollback) never discarded either.
        assert_eq!(c.buffer_stats().released, 0);
        assert_eq!(c.buffer_stats().discarded, 0);
        let state = crimes_journal::EvidenceJournal::replay(c.journal().bytes());
        assert!(state.quarantined.is_some());
        assert_eq!(state.degraded_epochs, 1);
        assert_eq!(state.ack_pending.len(), 1, "the impound set survives in the journal");
    }

    #[test]
    fn pause_worker_clamp_is_counted_at_protect() {
        let cap = crate::config::CrimesConfigBuilder::host_pause_worker_cap();
        if cap >= crimes_checkpoint::MAX_WORKERS {
            // Host wide enough that no in-range request can clamp.
            return;
        }
        let mut c = protected_with(50, |cfg| {
            cfg.pause_workers(cap + 1);
        });
        assert_eq!(c.config().requested_pause_workers, cap + 1);
        assert_eq!(c.config().checkpoint.pause_workers, cap);
        assert_eq!(c.telemetry().counter(Counter::PauseWorkerClamps), 1);
        // The clamped pipeline still commits.
        c.register_module(Box::new(NoopScanModule::new()));
        assert!(c.run_epoch(|_vm, _| Ok(())).expect("clean").is_committed());
    }

    #[test]
    fn bounded_buffer_applies_backpressure() {
        let mut c = protected_with(50, |cfg| {
            cfg.buffer_limits(1, usize::MAX);
        });
        assert!(c
            .submit_output(Output::Net(NetPacket::new(1, vec![1])))
            .expect("first fits")
            .is_none());
        let err = c
            .submit_output(Output::Net(NetPacket::new(2, vec![2])))
            .expect_err("second overflows");
        assert_eq!(
            err,
            CrimesError::BufferOverflow {
                held: 1,
                held_bytes: 1
            }
        );
        // The rejected output never entered the system.
        assert_eq!(c.buffer_stats().rejected, 1);
        // A committed epoch releases only the held output.
        c.register_module(Box::new(NoopScanModule::new()));
        let outcome = c.run_epoch(|_vm, _| Ok(())).expect("clean epoch");
        let EpochOutcome::Committed { released, .. } = outcome else {
            panic!("expected commit");
        };
        assert_eq!(released.len(), 1);
    }

    use crimes_telemetry::TestClock;

    /// A scan module that consumes virtual audit time by advancing the
    /// shared [`TestClock`] — a deterministic stand-in for a slow
    /// introspection pass. Advances on the first `slow_scans` scans only,
    /// so a test can follow an overrun with a fast, committing audit.
    #[derive(Debug)]
    struct SlowScanModule {
        clock: TestClock,
        advance: Duration,
        slow_scans: u32,
    }

    impl ScanModule for SlowScanModule {
        fn name(&self) -> &str {
            "slow-scan"
        }

        fn scan(
            &mut self,
            _ctx: &crate::detector::ScanContext<'_>,
        ) -> Result<Vec<crate::detector::ScanFinding>, VmiError> {
            if self.slow_scans > 0 {
                self.slow_scans -= 1;
                self.clock.advance(self.advance);
            }
            Ok(Vec::new())
        }
    }

    fn protected_with_clock(
        clock: TestClock,
        tweak: impl FnOnce(&mut crate::config::CrimesConfigBuilder),
    ) -> Crimes {
        let mut b = Vm::builder();
        b.pages(4096).seed(66);
        let vm = b.build();
        let mut cfg = CrimesConfig::builder();
        cfg.epoch_interval_ms(50);
        tweak(&mut cfg);
        Crimes::protect_with_clock(vm, cfg.build().expect("valid config"), Arc::new(clock))
            .expect("protect")
    }

    #[test]
    fn deadline_overrun_is_measured_on_the_injected_clock() {
        let clock = TestClock::new();
        let mut c = protected_with_clock(clock.clone(), |cfg| {
            cfg.audit_deadline_ms(10);
        });
        // The first audit burns 11 virtual ms against a 10 ms deadline.
        c.register_module(Box::new(SlowScanModule {
            clock: clock.clone(),
            advance: Duration::from_millis(11),
            slow_scans: 1,
        }));
        c.submit_output(Output::Net(NetPacket::new(1, vec![7])))
            .expect("within limits");
        let outcome = c.run_epoch(|_vm, _| Ok(())).expect("overrun extends");
        let EpochOutcome::Extended {
            cause, consecutive, ..
        } = outcome
        else {
            panic!("expected Extended, got {outcome:?}");
        };
        assert_eq!(cause, "audit overran its deadline");
        assert_eq!(consecutive, 1);
        assert_eq!(c.buffer_stats().released, 0, "fail closed: output held");
        // The audit histogram saw the virtual 11 ms.
        assert_eq!(c.telemetry().audit_ns().count(), 1);
        assert_eq!(c.telemetry().audit_ns().max(), 11_000_000);
        // The next audit is fast in virtual time: commits, releases.
        let outcome = c.run_epoch(|_vm, _| Ok(())).expect("clean epoch");
        let EpochOutcome::Committed { released, .. } = outcome else {
            panic!("expected commit after the extension");
        };
        assert_eq!(released.len(), 1);
        assert_eq!(c.robustness_stats().speculation_extensions, 1);
    }

    #[test]
    fn repeated_virtual_overruns_escalate_to_quarantine() {
        let clock = TestClock::new();
        let mut c = protected_with_clock(clock.clone(), |cfg| {
            cfg.audit_deadline_ms(5).max_consecutive_extensions(1);
        });
        // Every audit overruns: extension, then quarantine — all in
        // virtual time, no real sleeping anywhere.
        c.register_module(Box::new(SlowScanModule {
            clock: clock.clone(),
            advance: Duration::from_millis(6),
            slow_scans: u32::MAX,
        }));
        let outcome = c.run_epoch(|_vm, _| Ok(())).expect("first extension");
        assert!(matches!(outcome, EpochOutcome::Extended { consecutive: 1, .. }));
        let err = c.run_epoch(|_vm, _| Ok(())).expect_err("quarantine");
        assert!(matches!(err, CrimesError::Quarantined { .. }));
        assert!(c.is_quarantined());
        assert_eq!(c.telemetry().counter(Counter::SpeculationExtensions), 2);
        assert_eq!(c.telemetry().counter(Counter::Quarantines), 1);
        assert!(c
            .flight_recorder()
            .events()
            .any(|e| e.kind.label() == "quarantined"));
    }

    /// A seed under which `plan`'s first outage draw refuses the drain
    /// session and its second lets it through.
    fn fail_once_outage_seed(plan: FaultPlan) -> u64 {
        (0..1024u64)
            .find(|&s| {
                let _scope = install(plan, s);
                crimes_faults::should_inject(FaultPoint::BackupOutage)
                    && !crimes_faults::should_inject(FaultPoint::BackupOutage)
            })
            .expect("a fail-once seed exists in the first 1024")
    }

    #[test]
    fn the_boundary_times_its_phases_and_sleeps_its_retries_on_the_injected_clock() {
        use crimes_checkpoint::engine::drain_backoff_us;

        let clock = TestClock::new();
        let mut c = protected_with_clock(clock.clone(), |cfg| {
            cfg.staging_buffers(1);
        });
        c.register_module(Box::new(NoopScanModule::new()));
        let plan = FaultPlan::disabled().with_rate(FaultPoint::BackupOutage, SCALE / 2);
        let scope = install(plan, fail_once_outage_seed(plan));
        let outcome = c.run_epoch(|_vm, _| Ok(())).expect("the second session acks");
        drop(scope);
        assert!(outcome.is_committed());

        // Nothing inside the window advanced the clock: every in-window
        // phase took exactly 0 ns.
        let phases: Vec<(&str, u64, u64)> = c
            .telemetry()
            .phases()
            .map(|(label, h)| (label, h.count(), h.sum()))
            .collect();
        let (in_window, drain) = phases.split_at(Phase::ALL.len());
        for &(label, count, sum) in in_window {
            assert_eq!((count, sum), (1, 0), "phase {label}");
        }
        // The drain slept its one backoff on the clock, in virtual time:
        // that is all the time that passed, and all of it is the drain's.
        let backoff_ns = drain_backoff_us(c.config().checkpoint.retry_backoff_us, 1, 1) * 1_000;
        assert_eq!(drain, [(DRAIN_PHASE_LABEL, 1, backoff_ns)]);
        assert_eq!(clock.now_ns(), backoff_ns);
    }

    #[test]
    fn a_drain_that_times_out_journals_the_sessions_it_tried() {
        let mut b = Vm::builder();
        b.pages(4096).seed(66);
        let mut cfg = CrimesConfig::builder();
        cfg.epoch_interval_ms(50).staging_buffers(1).drain_timeout_ms(1);
        let mut cfg = cfg.build().expect("valid config");
        // The first session's backoff alone overruns the 1 ms budget.
        cfg.checkpoint.retry_backoff_us = 1_001;
        let mut c = Crimes::protect(b.build(), cfg).expect("protect");
        c.register_module(Box::new(NoopScanModule::new()));
        let scope = install(
            FaultPlan::disabled().with_rate(FaultPoint::BackupOutage, SCALE),
            31,
        );
        let err = c.run_epoch(|_vm, _| Ok(())).expect_err("the drain times out");
        drop(scope);
        assert!(matches!(err, CrimesError::Timeout { .. }), "unexpected error: {err}");
        let failed: Vec<EventKind> = c
            .journal()
            .recent_events(usize::MAX)
            .map(|e| e.kind)
            .filter(|kind| matches!(kind, EventKind::DrainFailed { .. }))
            .collect();
        assert_eq!(failed, [EventKind::DrainFailed { attempts: 1 }]);
    }

    #[test]
    fn flight_recorder_captures_the_clean_epoch_sequence() {
        let mut c = protected(50);
        c.register_module(Box::new(NoopScanModule::new()));
        c.submit_output(Output::Net(NetPacket::new(1, vec![1])))
            .expect("within limits");
        let outcome = c.run_epoch(|_vm, _| Ok(())).expect("clean epoch");
        assert!(outcome.is_committed());
        let kinds: Vec<&'static str> = c
            .flight_recorder()
            .events_for_epoch(0)
            .map(|e| e.kind.label())
            .collect();
        assert_eq!(kinds, vec!["epoch_start", "audit_staged", "committed"]);
        // The committed event carries the released-output count.
        let released = c
            .flight_recorder()
            .events_for_epoch(0)
            .find_map(|e| match e.kind {
                EventKind::Committed { released } => Some(released),
                _ => None,
            });
        assert_eq!(released, Some(1));
        // Timestamps within the epoch are monotone.
        let times: Vec<u64> = c
            .flight_recorder()
            .events_for_epoch(0)
            .map(|e| e.at_ns)
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn attack_report_embeds_the_flight_recorder_timeline() {
        let mut c = protected(50);
        let secret = c.vm().canary_secret();
        c.register_module(Box::new(CanaryScanModule::new(secret)));
        let pid = c.vm_mut().spawn_process("victim", 0, 16).expect("spawn");
        assert!(c.run_epoch(|_vm, _| Ok(())).expect("clean").is_committed());
        let outcome = c
            .run_epoch(|vm, _| {
                attacks::inject_heap_overflow(vm, pid, 64, 16)?;
                Ok(())
            })
            .expect("attack epoch completes the boundary");
        assert!(!outcome.is_committed());
        let analysis = c.investigate().expect("analysis");
        let timeline = analysis
            .report
            .section("Framework flight recorder")
            .expect("the report embeds the recorder timeline");
        assert!(timeline.contains("epoch_start"));
        assert!(timeline.contains("attack_detected"));
        c.rollback_and_resume().expect("rollback");
        let kinds: Vec<&'static str> = c
            .flight_recorder()
            .events_for_epoch(1)
            .map(|e| e.kind.label())
            .collect();
        assert_eq!(
            kinds,
            vec![
                "epoch_start",
                "audit_staged",
                "attack_detected",
                "rollback_resumed"
            ]
        );
        assert_eq!(c.telemetry().counter(Counter::AttacksDetected), 1);
        assert_eq!(c.telemetry().counter(Counter::OutputsDiscarded), 0);
    }

    #[test]
    fn telemetry_accumulates_counters_and_histograms() {
        let mut c = protected(50);
        c.register_module(Box::new(NoopScanModule::new()));
        let pid = c.vm_mut().spawn_process("app", 0, 8).expect("spawn");
        c.submit_output(Output::Net(NetPacket::new(1, vec![1, 2])))
            .expect("within limits");
        for e in 0..3 {
            let outcome = c
                .run_epoch(|vm, _| {
                    vm.dirty_arena_page(pid, e % 8, 0, e as u8)?;
                    Ok(())
                })
                .expect("clean epoch");
            assert!(outcome.is_committed());
        }
        let t = c.telemetry();
        assert_eq!(t.counter(Counter::EpochsCommitted), 3);
        assert_eq!(t.counter(Counter::OutputsReleased), 1);
        assert_eq!(t.counter(Counter::AttacksDetected), 0);
        assert_eq!(t.counter(Counter::Quarantines), 0);
        assert_eq!(t.audit_ns().count(), 3);
        assert_eq!(t.dirty_pages().count(), 3);
        assert!(t.dirty_pages().max() >= 1);
        for (label, h) in t.phases() {
            assert_eq!(h.count(), 3, "phase {label} must time every boundary");
        }
    }

    #[test]
    fn fused_boundary_populates_worker_shard_stats() {
        let mut c = protected_with(50, |cfg| {
            cfg.pause_workers(4);
        });
        c.register_module(Box::new(NoopScanModule::new()));
        let pid = c.vm_mut().spawn_process("app", 0, 16).expect("spawn");
        let outcome = c
            .run_epoch(|vm, _| {
                for i in 0..12 {
                    vm.dirty_arena_page(pid, i % 16, i, 3)?;
                }
                Ok(())
            })
            .expect("clean epoch");
        assert!(outcome.is_committed());
        let total_pages: u64 = c.telemetry().workers().iter().map(|w| w.pages).sum();
        assert!(total_pages >= 12, "shards must cover the dirty pages");
    }

    #[test]
    fn flight_recorder_window_is_bounded_and_keeps_the_newest_epochs() {
        let mut c = protected(50);
        c.register_module(Box::new(NoopScanModule::new()));
        // 3 events per epoch: 50 epochs overrun the window.
        for _ in 0..50 {
            assert!(c.run_epoch(|_vm, _| Ok(())).expect("clean").is_committed());
        }
        let r = c.flight_recorder();
        assert_eq!(r.events().count(), crate::FLIGHT_RECORDER_EVENTS, "the window is full, no more");
        assert_eq!(c.journal().recent_events(usize::MAX).count(), 150, "the journal keeps all 150");
        assert!(r.events_for_epoch(49).count() > 0, "newest epoch shown");
        assert_eq!(r.events_for_epoch(0).count(), 0, "oldest epoch out of the window");
        // The window is the journal's newest events, in order.
        let newest: Vec<Event> = c.journal().recent_events(usize::MAX).skip(150 - crate::FLIGHT_RECORDER_EVENTS).collect();
        assert!(r.events().eq(newest));
    }

    #[test]
    fn verdict_without_stage_counts_a_missing_start_and_fails_closed() {
        // Drive the fused-audit hook out of protocol: `verdict` without
        // `stage`. The deadline clock never started, so the audit must be
        // treated as overrun (Inconclusive), never fast-passed at zero.
        let mut c = protected(50);
        let dirty = c.vm().memory().dirty().clone();
        let Crimes {
            vm,
            session,
            detector,
            evidence,
            clock,
            telemetry,
            ..
        } = &mut c;
        let mut retries_used = 0u32;
        let (mut audit, mut audited) = (AuditReport::default(), false);
        let mut hook = BoundaryAudit {
            detector,
            session,
            evidence,
            output_scanner: None,
            deadline: Duration::from_millis(50),
            vmi_retries: 0,
            retries_used: &mut retries_used,
            epoch: 0,
            clock,
            telemetry,
            started_ns: None,
            staged: None,
            stage_errors: Vec::new(),
            audit: &mut audit,
            audited: &mut audited,
        };
        let verdict = hook.verdict(vm, &dirty, &[]);
        assert_eq!(verdict, AuditVerdict::Inconclusive);
        assert_eq!(c.robustness_stats().missing_audit_starts, 1);
        assert_eq!(c.telemetry().counter(Counter::MissingAuditStarts), 1);
        assert!(c
            .flight_recorder()
            .events()
            .any(|e| e.kind.label() == "missing_audit_start"));
    }

    /// A started one-worker executor. It lends on any host, so the pins
    /// below place real work even where `startup::executor` finds one CPU.
    fn one_worker() -> Resident {
        let mut exec = Resident::new(1);
        exec.start();
        exec
    }

    /// What the session resolved: every hot symbol, and the banner.
    fn introspection(session: &Result<VmiSession, VmiError>) -> (Vec<Gpa>, String) {
        let session = session.as_ref().expect("introspection initialises");
        let hot = [
            names::SYS_CALL_TABLE,
            names::INIT_TASK,
            names::MODULES,
            names::PID_HASH,
            names::TASK_SLAB,
            names::MODULE_SLAB,
            names::SOCKET_TABLE,
            names::FILE_TABLE,
            names::CANARY_TABLE,
        ];
        let gpas = hot.map(|name| session.hot_symbol(name).expect("a hot symbol"));
        (gpas.to_vec(), session.kernel_banner().to_owned())
    }

    /// The pages `placement` must have lent: none taken back, some when
    /// the lender takes nothing back or waits.
    fn assert_lent(placement: Placement, lent_pages: usize) {
        match placement {
            Placement::TakeAll => assert_eq!(lent_pages, 0, "everything was taken back"),
            Placement::TakeNone | Placement::Stalled => assert!(lent_pages > 0, "{placement:?}"),
            Placement::Free => {}
        }
    }

    /// A deferred tenant with a journal of several MiB, crashed either
    /// with a drain ticket pending or, with `incident`, after an audit
    /// failed and nobody investigated: its guest, backup and journal.
    fn crash_image(incident: bool) -> (Vm, BackupVm, Vec<u8>, CrimesConfig) {
        let mut c = protected_with(50, |cfg| {
            cfg.pause_workers(2).staging_buffers(2);
        });
        let secret = c.vm().canary_secret();
        c.register_module(Box::new(CanaryScanModule::new(secret)));
        let pid = c.vm_mut().spawn_process("app", 0, 16).expect("spawn");
        for epoch in 0..3u64 {
            for id in 0..8u8 {
                let output = NetPacket::new(epoch * 8 + u64::from(id), vec![id; 128 << 10]);
                c.submit_output(Output::Net(output)).expect("within limits");
            }
            let outcome = c
                .run_epoch(|vm, _| vm.dirty_arena_page(pid, epoch as usize, 0, 1))
                .expect("clean epoch");
            assert!(outcome.is_committed());
        }
        c.submit_output(Output::Net(NetPacket::new(99, b"held".to_vec())))
            .expect("within limits");
        if incident {
            let outcome = c
                .run_epoch(|vm, _| attacks::inject_heap_overflow(vm, pid, 64, 16).map(drop))
                .expect("attack epoch completes the boundary");
            assert!(matches!(outcome, EpochOutcome::AttackDetected { .. }));
        } else {
            c.begin_epoch(|vm, _| vm.dirty_arena_page(pid, 5, 0, 2)).expect("work");
            let progress = c.boundary_pause_half(None).expect("pause half");
            // The drain never runs: its ticket is pending at the crash.
            assert!(matches!(progress, BoundaryProgress::NeedsDrain(_)));
        }
        let backup = c.checkpointer().backup().clone();
        (c.vm().clone(), backup, c.journal().bytes().to_vec(), *c.config())
    }

    #[test]
    fn recovery_start_up_is_bit_identical_under_every_placement() {
        for incident in [false, true] {
            let (vm, backup, journal, config) = crash_image(incident);
            assert!(journal.len() > 3 << 20, "{} journal bytes", journal.len());
            let serial = Crimes::start_recovery(None, &vm, &backup, &journal);
            let (serial_journal, state) = &serial.lent;
            assert_eq!(state.pending_incident.is_some(), incident);
            assert_eq!(state.open_tickets.is_empty(), incident);
            assert_eq!(serial.lent_pages, 0);
            for placement in Placement::ALL {
                let _pin = pin(placement);
                let started = Crimes::start_recovery(Some(&mut one_worker()), &vm, &backup, &journal);
                assert_eq!(started.lent.0.bytes(), serial_journal.bytes(), "{placement:?}");
                assert_eq!(started.lent.0.record_bounds(), serial_journal.record_bounds());
                assert_eq!(&started.lent.1, state, "{placement:?}");
                assert_eq!(started.digest, serial.digest, "{placement:?}");
                assert_eq!(introspection(&started.own), introspection(&serial.own));
                let lent_pages = started.lent_pages;
                assert_lent(placement, lent_pages);
                let clock = Arc::new(RealClock::new());
                let mut c = Crimes::recovered(vm.clone(), backup.clone(), config, clock, started)
                    .expect("recover");
                assert_eq!(c.checkpointer().integrity(), &serial.digest);
                assert!(c.checkpointer().verify_backup().is_ok());
                let counted = c.telemetry().counter(Counter::StartupDigestLentPages);
                assert_eq!(counted, lent_pages as u64);
                if incident {
                    assert!(c.is_quarantined(), "a pending incident quarantines");
                } else {
                    let before = c.committed_epochs();
                    assert!(c.run_epoch(|_, _| Ok(())).expect("epoch").is_committed());
                    assert_eq!(c.committed_epochs(), before + 1);
                }
            }
        }
    }

    #[test]
    fn protection_start_up_is_bit_identical_under_every_placement() {
        let mut b = Vm::builder();
        b.pages(4096).seed(66);
        let vm = b.build();
        let mut cfg = CrimesConfig::builder();
        cfg.epoch_interval_ms(50).pause_workers(2).staging_buffers(2);
        let config = cfg.build().expect("valid config");
        let serial = Crimes::start_protection(None, &vm, None);
        let (serial_session, serial_backup) = &serial.own;
        assert_eq!(serial_backup.frames(), vm.memory().frames());
        assert_eq!(serial.lent_pages, 0);
        // A fleet's later tenants start up on an earlier tenant's parse.
        let shared = Symbols::parse(vm.system_map()).expect("parse");
        for placement in Placement::ALL {
            let _pin = pin(placement);
            for symbols in [None, Some(&shared)] {
                let what = format!("{placement:?}, shared {}", symbols.is_some());
                let started = Crimes::start_protection(Some(&mut one_worker()), &vm, symbols);
                let (session, backup) = &started.own;
                assert_eq!(backup.frames(), serial_backup.frames(), "{what}");
                assert_eq!(backup.disk(), serial_backup.disk(), "{what}");
                assert_eq!(started.digest, serial.digest, "{what}");
                assert_eq!(introspection(session), introspection(serial_session), "{what}");
                let lent_pages = started.lent_pages;
                assert_lent(placement, lent_pages);
                let clock = Arc::new(RealClock::new());
                let mut c = Crimes::protected(vm.clone(), config, clock, started).expect("protect");
                assert_eq!(c.checkpointer().integrity(), &serial.digest);
                assert!(c.checkpointer().verify_backup().is_ok());
                let counted = c.telemetry().counter(Counter::StartupDigestLentPages);
                assert_eq!(counted, lent_pages as u64);
                let parses = c.telemetry().counter(Counter::SymbolParses);
                assert_eq!(parses, u64::from(symbols.is_none()), "{what}");
                assert_eq!(
                    Symbols::ptr_eq(c.symbols(), &shared),
                    symbols.is_some(),
                    "{what}"
                );
                assert!(c.run_epoch(|_, _| Ok(())).expect("epoch").is_committed());
            }
        }
    }

    #[test]
    fn start_up_draws_the_serial_fault_schedule_under_every_placement() {
        let (vm, backup, journal, config) = crash_image(false);
        let clock = || -> Arc<dyn Clock> { Arc::new(RealClock::new()) };
        // What a start-up under the plan left: its outcome and every draw.
        let seen = |outcome: Result<Crimes, CrimesError>| {
            let outcome = outcome.map(|c| c.committed_epochs()).map_err(|e| e.to_string());
            (outcome, crimes_faults::counters())
        };
        // Every draw a hit, then about half of them.
        for rate in [SCALE, SCALE / 2] {
            let plan = FaultPlan::disabled().with_rate(FaultPoint::VmiRead, rate);
            let faults = |exec: Option<&mut Resident>, recover: bool| {
                let _faults = install(plan, 11);
                seen(if recover {
                    let started = Crimes::start_recovery(exec, &vm, &backup, &journal);
                    Crimes::recovered(vm.clone(), backup.clone(), config, clock(), started)
                } else {
                    let started = Crimes::start_protection(exec, &vm, None);
                    Crimes::protected(vm.clone(), config, clock(), started)
                })
            };
            for recover in [false, true] {
                let what = format!("rate {rate}, recover {recover}");
                let serial = faults(None, recover);
                assert!(serial.1.draws(FaultPoint::VmiRead) > 0, "{what}");
                if rate == SCALE {
                    assert!(serial.0.is_err(), "{what}: every read faults");
                }
                for placement in Placement::ALL {
                    let _pin = pin(placement);
                    let started = faults(Some(&mut one_worker()), recover);
                    assert_eq!(started, serial, "{what}, {placement:?}");
                }
                let _faults = install(plan, 11);
                let public = seen(if recover {
                    Crimes::recover(vm.clone(), backup.clone(), config, clock(), &journal)
                } else {
                    Crimes::protect_with_clock(vm.clone(), config, clock())
                });
                assert_eq!(public, serial, "{what}, on this host's executor");
            }
        }
    }
}
