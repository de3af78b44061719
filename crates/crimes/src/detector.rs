//! The Detector: a modular registry of VMI-based security scans, run at
//! the end of every epoch while the VM is paused (§3.2).
//!
//! Scan modules implement [`ScanModule`]; the [`Detector`] runs every
//! registered module over a [`ScanContext`] (the paused VM's memory, the
//! epoch's dirty bitmap, and a warm introspection session) and collects
//! [`ScanFinding`]s. Any finding fails the audit.

use std::sync::Arc;
use std::time::Duration;

use crimes_checkpoint::FusedPageVisitor;
use crimes_telemetry::{Clock, RealClock};
use crimes_vm::{DirtyBitmap, GuestMemory, Gva};
use crimes_vmi::{CanaryViolation, TaskInfo, VmiError, VmiSession};

/// What a scan module found.
#[derive(Debug, Clone, PartialEq)]
pub enum Detection {
    /// One or more heap canaries were trampled.
    CanaryViolations(Vec<CanaryViolation>),
    /// A blacklisted process is running.
    BlacklistedProcess(TaskInfo),
    /// Syscall-table entries differ from the known-good baseline:
    /// `(index, expected, found)`.
    SyscallTableTampered(Vec<(usize, u64, u64)>),
    /// A kernel module outside the approved set is loaded.
    UnknownModule(String),
    /// A process is visible in the pid hash but not the task list.
    HiddenProcess {
        /// The hidden pid.
        pid: u32,
        /// Its command name.
        comm: String,
    },
    /// A kernel module present in the slab but unlinked from the module
    /// list — LKM rootkit hiding.
    HiddenModule {
        /// The hidden module's name.
        name: String,
    },
    /// A task's credential marker says root while its uid does not — DKOM
    /// privilege escalation.
    PrivilegeEscalation {
        /// The escalated pid.
        pid: u32,
        /// Its command name.
        comm: String,
        /// The declared uid.
        uid: u32,
    },
    /// A buffered output matched an exfiltration signature before release.
    SuspiciousOutput {
        /// The matching signature's name.
        signature: String,
        /// Index of the output in the held queue.
        output_index: usize,
        /// Byte offset of the match.
        offset: usize,
    },
}

impl Detection {
    /// Short category tag for reports.
    pub fn category(&self) -> &'static str {
        match self {
            Detection::CanaryViolations(_) => "buffer-overflow",
            Detection::BlacklistedProcess(_) => "malware",
            Detection::SyscallTableTampered(_) => "syscall-hijack",
            Detection::UnknownModule(_) => "rogue-module",
            Detection::HiddenProcess { .. } => "hidden-process",
            Detection::HiddenModule { .. } => "hidden-module",
            Detection::PrivilegeEscalation { .. } => "privilege-escalation",
            Detection::SuspiciousOutput { .. } => "suspicious-output",
        }
    }

    /// For canary findings, the first trampled canary's user GVA and
    /// owning pid (what the replay engine needs to pinpoint the write).
    pub fn first_canary_target(&self) -> Option<(u32, Gva)> {
        match self {
            Detection::CanaryViolations(v) => v.first().map(|c| (c.pid, c.canary_gva)),
            _ => None,
        }
    }
}

/// One module's finding.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanFinding {
    /// The reporting module's name.
    pub module: String,
    /// What it found.
    pub detection: Detection,
}

/// Everything a scan module may look at. Mirrors what Xen offers LibVMI:
/// guest memory, the dirty log, and the warm session — never host-side
/// ground truth.
#[derive(Debug)]
pub struct ScanContext<'a> {
    /// The paused guest's memory.
    pub memory: &'a GuestMemory,
    /// The introspection session (address-space cache freshly rebuilt).
    pub session: &'a VmiSession,
    /// Pages dirtied during the epoch being audited.
    pub dirty: &'a DirtyBitmap,
    /// The epoch number being audited.
    pub epoch: u64,
}

/// A pluggable security scan (§3.2's Scan Modules).
pub trait ScanModule: std::fmt::Debug + Send {
    /// Stable module name, used in findings and reports.
    fn name(&self) -> &str;

    /// Inspect the paused VM; return every piece of evidence found.
    ///
    /// # Errors
    ///
    /// Introspection failures abort the audit conservatively (treated as a
    /// failed audit by the framework).
    fn scan(&mut self, ctx: &ScanContext<'_>) -> Result<Vec<ScanFinding>, VmiError>;

    /// Stage this module's page-scoped work for a **fused** pause-window
    /// walk (resolve translations, read guest tables — everything that
    /// must happen on the main thread, before the sharded walk). Return
    /// `Ok(true)` when the module staged a visitor; the default declines,
    /// which keeps the module on the ordinary [`scan`](Self::scan) path.
    ///
    /// # Errors
    ///
    /// Introspection failures, exactly as [`scan`](Self::scan).
    fn stage_fused(&mut self, _ctx: &ScanContext<'_>) -> Result<bool, VmiError> {
        Ok(false)
    }

    /// The visitor staged by the last [`stage_fused`](Self::stage_fused),
    /// if any. It rides the fused walk and surfaces finding *keys*; the
    /// module resolves them afterwards.
    fn fused_visitor(&self) -> Option<&dyn FusedPageVisitor> {
        None
    }

    /// Resolve the fused walk's finding keys (this module's
    /// [`crimes_checkpoint::PageFinding::key`]s, in canonical order) into
    /// full findings. Runs after the walk, on the main thread, with the
    /// guest still paused — anything page-scoped can be re-read here.
    ///
    /// # Errors
    ///
    /// Introspection failures, exactly as [`scan`](Self::scan).
    fn resolve_fused(
        &mut self,
        _keys: &[u64],
        _ctx: &ScanContext<'_>,
    ) -> Result<Vec<ScanFinding>, VmiError> {
        Ok(Vec::new())
    }
}

/// Per-module timing from one audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleTiming {
    /// Module name.
    pub module: String,
    /// Time spent in its scan.
    pub elapsed: Duration,
}

/// Result of one full audit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// All findings across modules (empty = audit passed).
    pub findings: Vec<ScanFinding>,
    /// Per-module scan times.
    pub timings: Vec<ModuleTiming>,
    /// Introspection errors (also fail the audit, conservatively).
    pub errors: Vec<(String, VmiError)>,
}

impl AuditReport {
    /// `true` when the audit found nothing and no module errored.
    pub fn passed(&self) -> bool {
        self.findings.is_empty() && self.errors.is_empty()
    }

    /// Total scan time across modules.
    pub fn total_scan_time(&self) -> Duration {
        self.timings.iter().map(|t| t.elapsed).sum()
    }
}

/// The module registry.
#[derive(Debug)]
pub struct Detector {
    modules: Vec<Box<dyn ScanModule>>,
    /// Time source for per-module timings. Injectable so audits (and the
    /// framework's deadline logic downstream) run under virtual time in
    /// tests; reading it is alloc-free, so the per-module timings cost the
    /// pause window no allocation.
    clock: Arc<dyn Clock>,
}

impl Default for Detector {
    fn default() -> Self {
        Detector {
            modules: Vec::new(),
            clock: Arc::new(RealClock::new()),
        }
    }
}

impl Detector {
    /// An empty detector (audits trivially pass) on the real clock.
    pub fn new() -> Self {
        Detector::default()
    }

    /// An empty detector timing its scans with `clock`.
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Detector {
            modules: Vec::new(),
            clock,
        }
    }

    /// Register a module. Modules run in registration order.
    pub fn register(&mut self, module: Box<dyn ScanModule>) {
        self.modules.push(module);
    }

    /// An empty report with one timing per registered module, for
    /// [`audit_after_walk`](Self::audit_after_walk) to fill in place.
    pub fn blank_report(&self) -> AuditReport {
        let timing = |m: &dyn ScanModule| ModuleTiming {
            module: m.name().to_owned(),
            elapsed: Duration::ZERO,
        };
        let timings = self.modules.iter().map(|m| timing(m.as_ref())).collect();
        AuditReport { timings, ..AuditReport::default() }
    }

    /// Registered module names.
    pub fn module_names(&self) -> Vec<&str> {
        self.modules.iter().map(|m| m.name()).collect()
    }

    /// Number of registered modules.
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// `true` when no module is registered.
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// Run every module's full [`scan`](ScanModule::scan) over the paused
    /// VM, with nothing staged and no walk: the **reference** audit. The
    /// boundary itself always goes through
    /// [`stage_fused`](Self::stage_fused) and
    /// [`audit_after_walk`](Self::audit_after_walk); this is what tests
    /// compare that staged path against, and the harness module tests
    /// drive a single module with. The session's address-space cache is
    /// refreshed once, up front (process churn during the epoch would
    /// otherwise break user-address translation).
    pub fn audit(
        &mut self,
        memory: &GuestMemory,
        session: &mut VmiSession,
        dirty: &DirtyBitmap,
        epoch: u64,
    ) -> AuditReport {
        if let Err(e) = session.refresh_address_spaces(memory) {
            let mut report = AuditReport::default();
            report.errors.push(("<session-refresh>".to_owned(), e));
            return report;
        }
        let mut report = self.blank_report();
        self.audit_after_walk(memory, session, dirty, epoch, None, &[], &[], &mut report);
        report
    }

    /// Stage the fused pause-window walk: refresh the session once and let
    /// the **first** module that accepts stage its page-scoped visitor.
    /// Returns that module's index (fed back to
    /// [`audit_after_walk`](Self::audit_after_walk)) and any staging
    /// errors, which fail the audit conservatively downstream.
    pub fn stage_fused(
        &mut self,
        memory: &GuestMemory,
        session: &mut VmiSession,
        dirty: &DirtyBitmap,
        epoch: u64,
    ) -> (Option<usize>, Vec<(String, VmiError)>) {
        let mut errors = Vec::new();
        if let Err(e) = session.refresh_address_spaces(memory) {
            errors.push(("<session-refresh>".to_owned(), e));
            return (None, errors);
        }
        let ctx = ScanContext {
            memory,
            session,
            dirty,
            epoch,
        };
        for (index, module) in self.modules.iter_mut().enumerate() {
            match module.stage_fused(&ctx) {
                Ok(true) => return (Some(index), errors),
                Ok(false) => {}
                Err(e) => errors.push((module.name().to_owned(), e)),
            }
        }
        (None, errors)
    }

    /// The visitor staged at `staged`'s module, ready to ride the fused
    /// walk.
    pub fn fused_visitor(&self, staged: Option<usize>) -> Option<&dyn FusedPageVisitor> {
        staged.and_then(|i| self.modules.get(i)?.fused_visitor())
    }

    /// The verdict half of the boundary's audit, written over `report`:
    /// every module runs as in [`audit`](Self::audit), except the staged
    /// module — its page-scoped pass already rode the walk, so it only
    /// resolves the walk's finding `keys` into full findings. The session
    /// is *not* re-refreshed (the guest is still paused;
    /// [`stage_fused`](Self::stage_fused) refreshed it this epoch) and
    /// `prior_errors` (from staging) carry over into the report. On a
    /// [`blank_report`](Self::blank_report) a passing audit allocates
    /// nothing; findings and errors do.
    #[allow(clippy::too_many_arguments)]
    pub fn audit_after_walk(
        &mut self,
        memory: &GuestMemory,
        session: &VmiSession,
        dirty: &DirtyBitmap,
        epoch: u64,
        staged: Option<usize>,
        keys: &[u64],
        prior_errors: &[(String, VmiError)],
        report: &mut AuditReport,
    ) {
        report.findings.clear();
        report.errors.clear();
        report.errors.extend_from_slice(prior_errors);
        let ctx = ScanContext {
            memory,
            session,
            dirty,
            epoch,
        };
        let clock = &self.clock;
        for (index, module) in self.modules.iter_mut().enumerate() {
            let t0 = clock.now_ns();
            let result = if staged == Some(index) {
                module.resolve_fused(keys, &ctx)
            } else {
                module.scan(&ctx)
            };
            match result {
                Ok(mut findings) => report.findings.append(&mut findings),
                Err(e) => report.errors.push((module.name().to_owned(), e)),
            }
            let elapsed = Duration::from_nanos(clock.now_ns().saturating_sub(t0));
            match report.timings.get_mut(index) {
                Some(timing) if timing.module == module.name() => timing.elapsed = elapsed,
                _ => {
                    report.timings.truncate(index);
                    let module = module.name().to_owned();
                    report.timings.push(ModuleTiming { module, elapsed });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crimes_telemetry::TestClock;
    use crimes_vm::Vm;

    #[derive(Debug)]
    struct FixedModule {
        name: &'static str,
        findings: Vec<ScanFinding>,
        fail: bool,
    }

    impl ScanModule for FixedModule {
        fn name(&self) -> &str {
            self.name
        }
        fn scan(&mut self, _ctx: &ScanContext<'_>) -> Result<Vec<ScanFinding>, VmiError> {
            if self.fail {
                Err(VmiError::NoSuchTask(0))
            } else {
                Ok(self.findings.clone())
            }
        }
    }

    fn setup() -> (Vm, VmiSession) {
        let mut b = Vm::builder();
        b.pages(2048).seed(2);
        let vm = b.build();
        let s = VmiSession::init(&vm).unwrap();
        (vm, s)
    }

    fn finding(module: &str) -> ScanFinding {
        ScanFinding {
            module: module.to_owned(),
            detection: Detection::UnknownModule("evil.ko".to_owned()),
        }
    }

    #[test]
    fn empty_detector_passes() {
        let (vm, mut s) = setup();
        let mut d = Detector::new();
        assert!(d.is_empty());
        let dirty = DirtyBitmap::new(2048);
        let report = d.audit(vm.memory(), &mut s, &dirty, 0);
        assert!(report.passed());
        assert!(report.timings.is_empty());
    }

    #[test]
    fn findings_fail_the_audit() {
        let (vm, mut s) = setup();
        let mut d = Detector::new();
        d.register(Box::new(FixedModule {
            name: "fixed",
            findings: vec![finding("fixed")],
            fail: false,
        }));
        let dirty = DirtyBitmap::new(2048);
        let report = d.audit(vm.memory(), &mut s, &dirty, 1);
        assert!(!report.passed());
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.timings.len(), 1);
    }

    #[test]
    fn module_errors_fail_conservatively() {
        let (vm, mut s) = setup();
        let mut d = Detector::new();
        d.register(Box::new(FixedModule {
            name: "broken",
            findings: vec![],
            fail: true,
        }));
        let dirty = DirtyBitmap::new(2048);
        let report = d.audit(vm.memory(), &mut s, &dirty, 0);
        assert!(!report.passed());
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.errors[0].0, "broken");
    }

    #[test]
    fn modules_run_in_registration_order() {
        let (vm, mut s) = setup();
        let mut d = Detector::new();
        d.register(Box::new(FixedModule {
            name: "first",
            findings: vec![finding("first")],
            fail: false,
        }));
        d.register(Box::new(FixedModule {
            name: "second",
            findings: vec![finding("second")],
            fail: false,
        }));
        assert_eq!(d.module_names(), vec!["first", "second"]);
        let dirty = DirtyBitmap::new(2048);
        let report = d.audit(vm.memory(), &mut s, &dirty, 0);
        assert_eq!(report.findings[0].module, "first");
        assert_eq!(report.findings[1].module, "second");
        assert!(report.total_scan_time() > Duration::ZERO);
    }

    /// A module that consumes a fixed amount of *virtual* time per scan.
    #[derive(Debug)]
    struct SlowModule {
        clock: TestClock,
        cost: Duration,
    }

    impl ScanModule for SlowModule {
        fn name(&self) -> &str {
            "slow"
        }
        fn scan(&mut self, _ctx: &ScanContext<'_>) -> Result<Vec<ScanFinding>, VmiError> {
            self.clock.advance(self.cost);
            Ok(Vec::new())
        }
    }

    #[test]
    fn timings_follow_the_injected_clock_exactly() {
        let (vm, mut s) = setup();
        let clock = TestClock::new();
        let mut d = Detector::with_clock(Arc::new(clock.clone()));
        d.register(Box::new(SlowModule {
            clock: clock.clone(),
            cost: Duration::from_millis(2),
        }));
        d.register(Box::new(SlowModule {
            clock,
            cost: Duration::from_millis(5),
        }));
        let dirty = DirtyBitmap::new(2048);
        let report = d.audit(vm.memory(), &mut s, &dirty, 0);
        assert!(report.passed());
        assert_eq!(report.timings[0].elapsed, Duration::from_millis(2));
        assert_eq!(report.timings[1].elapsed, Duration::from_millis(5));
        assert_eq!(report.total_scan_time(), Duration::from_millis(7));
    }

    #[test]
    fn detection_categories_are_stable() {
        assert_eq!(
            Detection::CanaryViolations(vec![]).category(),
            "buffer-overflow"
        );
        assert_eq!(
            Detection::SyscallTableTampered(vec![]).category(),
            "syscall-hijack"
        );
        assert_eq!(
            Detection::UnknownModule(String::new()).category(),
            "rogue-module"
        );
        assert_eq!(
            Detection::HiddenProcess {
                pid: 1,
                comm: String::new()
            }
            .category(),
            "hidden-process"
        );
    }

    #[test]
    fn first_canary_target_only_for_canary_findings() {
        assert!(Detection::UnknownModule(String::new())
            .first_canary_target()
            .is_none());
        assert!(Detection::CanaryViolations(vec![])
            .first_canary_target()
            .is_none());
    }
}
