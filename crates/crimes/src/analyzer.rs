//! The Analyzer: automated post-detection response (§3.3).
//!
//! On a failed audit the Analyzer (1) captures dumps at the last clean
//! checkpoint and at the failure point, (2) for memory-evidence attacks,
//! rolls back and replays the epoch under event monitoring to pinpoint the
//! corrupting instruction and captures a third dump there, (3) diffs the
//! dumps, runs the Volatility-style plugin sweep, and (4) renders the
//! §5.6-style security report — fully automated, "zero-touch".

use std::fmt::Write as _;

use crimes_forensics::{plugins, DumpDiff, DumpKind, MemoryDump, ReportBuilder, SecurityReport};
use crimes_vm::{GuestOp, MetaSnapshot, Vm};
use crimes_vmi::Symbols;

use crate::detector::{Detection, ScanFinding};
use crate::error::CrimesError;
use crate::replay::{AttackPinpoint, ReplayEngine};

/// The dump set an incident produces.
#[derive(Debug, Clone)]
pub struct AnalysisDumps {
    /// State at the last committed clean checkpoint.
    pub last_good: MemoryDump,
    /// State at the end of the failed epoch.
    pub audit_failure: MemoryDump,
    /// State at the pinpointed attack instruction (replayed attacks only).
    pub attack_instant: Option<MemoryDump>,
}

/// The complete result of automated post-detection analysis.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The findings that failed the audit.
    pub findings: Vec<ScanFinding>,
    /// Replay pinpoint, when the evidence was a canary violation.
    pub pinpoint: Option<AttackPinpoint>,
    /// Why replay-based pinpointing was skipped, when it was attempted
    /// but degraded (divergence or transient introspection faults). The
    /// rest of the analysis — dumps, diff, report — is still produced.
    pub replay_degraded: Option<String>,
    /// The captured dumps.
    pub dumps: AnalysisDumps,
    /// Clean-vs-failed dump differences.
    pub diff: DumpDiff,
    /// The rendered security report.
    pub report: SecurityReport,
}

/// The Analyzer.
#[derive(Debug)]
pub struct Analyzer {
    replay: ReplayEngine,
}

impl Analyzer {
    /// An analyzer for guests of the kernel build `symbols` was parsed
    /// for: its dumps, replay and report sessions all open on them, so an
    /// incident makes no symbol parse of its own.
    pub fn new(symbols: &Symbols) -> Self {
        Analyzer {
            replay: ReplayEngine::new(symbols),
        }
    }

    /// Run the full §3.3 response for a failed epoch.
    ///
    /// `vm` must be the suspended, attacked VM; `backup_frames`/`meta` the
    /// last clean checkpoint; `epoch_ops` the failed epoch's trace. On
    /// return the VM is left wherever the deepest analysis step put it
    /// (the attack instant if replay ran) — callers roll back afterwards.
    ///
    /// The dumps are captured once, on entry. When a later step fails,
    /// `retry` sees the error and decides whether steps (2)–(4) run again
    /// (replay re-restores from the backup, so they are restartable); a
    /// retried attempt still diffs and reports the failure state captured
    /// before the first replay moved `vm`.
    ///
    /// # Errors
    ///
    /// Fails if introspection over a dump fails or replay faults, and
    /// `retry` declines another attempt.
    #[allow(clippy::too_many_arguments)]
    pub fn analyze(
        &self,
        vm: &mut Vm,
        backup_frames: &[u8],
        backup_disk: &[u8],
        meta: &MetaSnapshot,
        epoch_ops: &[GuestOp],
        findings: Vec<ScanFinding>,
        mut retry: impl FnMut(&CrimesError) -> bool,
    ) -> Result<Analysis, CrimesError> {
        // (1) Dumps around the attack.
        let symbols = self.replay.symbols();
        let audit_failure = MemoryDump::from_vm(vm, symbols, DumpKind::AuditFailure);
        let last_good = MemoryDump::from_frames(
            backup_frames,
            vm,
            symbols,
            DumpKind::LastGoodCheckpoint,
            meta.captured_at_ns(),
        );

        let mut attempt = || -> Result<_, CrimesError> {
            // (2) Replay to pinpoint memory-evidence attacks. Replay is a
            // refinement, not the evidence itself: when it diverges or
            // hits transient introspection faults, the analysis degrades
            // to a no-pinpoint report instead of failing the whole
            // response.
            let canary_target = findings
                .iter()
                .find_map(|f| f.detection.first_canary_target());
            let (pinpoint, attack_instant, replay_degraded) = match canary_target {
                Some((pid, canary_gva)) => {
                    match self.replay.pinpoint_canary_attack(
                        vm,
                        backup_frames,
                        backup_disk,
                        meta,
                        epoch_ops,
                        pid,
                        canary_gva,
                    ) {
                        Ok(pin) => {
                            let dump = pin
                                .is_some()
                                .then(|| MemoryDump::from_vm(vm, symbols, DumpKind::AttackInstant));
                            (pin, dump, None)
                        }
                        Err(CrimesError::ReplayDiverged { op_index }) => (
                            None,
                            None,
                            Some(format!("replay diverged at trace op {op_index}")),
                        ),
                        Err(CrimesError::Vmi(crimes_vmi::VmiError::TransientReadFault)) => (
                            None,
                            None,
                            Some("transient VMI read fault during replay".to_owned()),
                        ),
                        Err(e) => return Err(e),
                    }
                }
                None => (None, None, None),
            };

            // (3) Diff + plugin sweep.
            let diff = DumpDiff::between(&last_good, &audit_failure)?;

            // (4) The report.
            let report = self.render_report(
                &findings,
                pinpoint.as_ref(),
                replay_degraded.as_deref(),
                &audit_failure,
                &diff,
            )?;
            Ok((pinpoint, attack_instant, replay_degraded, diff, report))
        };
        let (pinpoint, attack_instant, replay_degraded, diff, report) = loop {
            match attempt() {
                Ok(done) => break done,
                Err(e) if retry(&e) => {}
                Err(e) => return Err(e),
            }
        };

        Ok(Analysis {
            findings,
            pinpoint,
            replay_degraded,
            dumps: AnalysisDumps {
                last_good,
                audit_failure,
                attack_instant,
            },
            diff,
            report,
        })
    }

    fn render_report(
        &self,
        findings: &[ScanFinding],
        pinpoint: Option<&AttackPinpoint>,
        replay_degraded: Option<&str>,
        failure_dump: &MemoryDump,
        diff: &DumpDiff,
    ) -> Result<SecurityReport, CrimesError> {
        let mut b = ReportBuilder::new("CRIMES Incident Report");
        if let Some(reason) = replay_degraded {
            b.section("Degraded Analysis", reason);
        }

        let mut summary = String::new();
        for f in findings {
            let _ = writeln!(summary, "[{}] {}", f.module, describe(&f.detection));
        }
        b.section("Findings", &summary);

        for f in findings {
            match &f.detection {
                Detection::BlacklistedProcess(task) => {
                    b.malware_process(task);
                    b.open_sockets(failure_dump, Some(task.pid))?;
                    b.open_files(failure_dump, Some(task.pid))?;
                }
                Detection::CanaryViolations(violations) => {
                    let mut body = String::new();
                    for v in violations {
                        let _ = writeln!(
                            body,
                            "pid {}: object {} ({} bytes), canary {} found {:02x?}",
                            v.pid, v.object_gva, v.size, v.canary_gva, v.found
                        );
                    }
                    if let Some(p) = pinpoint {
                        let _ = writeln!(
                            body,
                            "pinpointed: rip {:#x}, op #{}, write {} (+{} bytes)",
                            p.rip, p.op_index, p.write_gpa, p.write_len
                        );
                    }
                    b.section("Buffer Overflow", &body);
                }
                Detection::SyscallTableTampered(entries) => {
                    let mut body = String::new();
                    for (idx, good, found) in entries {
                        let _ =
                            writeln!(body, "syscall {idx}: expected {good:#x}, found {found:#x}");
                    }
                    b.section("Syscall Table Tampering", &body);
                }
                Detection::UnknownModule(name) => {
                    b.section("Rogue Kernel Module", name);
                }
                Detection::HiddenProcess { pid, comm } => {
                    b.section("Hidden Process", &format!("pid {pid} ({comm})"));
                }
                Detection::HiddenModule { name } => {
                    b.section("Hidden Kernel Module", name);
                }
                Detection::PrivilegeEscalation { pid, comm, uid } => {
                    b.section(
                        "Privilege Escalation",
                        &format!("pid {pid} ({comm}): uid {uid} but root credentials"),
                    );
                }
                Detection::SuspiciousOutput {
                    signature,
                    output_index,
                    offset,
                } => {
                    b.section(
                        "Suspicious Output",
                        &format!(
                            "buffered output #{output_index} matched signature \
                             '{signature}' at byte {offset} (never released)"
                        ),
                    );
                }
            }
        }

        // Deep sweep: cross-view anomalies on the failure dump.
        let session = failure_dump.open_session()?;
        let rows = plugins::psxview(&session, failure_dump)?;
        if rows.iter().any(|r| r.is_suspicious()) {
            b.psxview_anomalies(&rows);
        }
        b.diff_summary(diff);
        Ok(b.build())
    }
}

fn describe(d: &Detection) -> String {
    match d {
        Detection::CanaryViolations(v) => format!("{} trampled canar(ies)", v.len()),
        Detection::BlacklistedProcess(t) => {
            format!("blacklisted process {} (pid {})", t.comm, t.pid)
        }
        Detection::SyscallTableTampered(e) => format!("{} hijacked syscall entr(ies)", e.len()),
        Detection::UnknownModule(n) => format!("unknown kernel module {n}"),
        Detection::HiddenProcess { pid, comm } => format!("hidden process {comm} (pid {pid})"),
        Detection::HiddenModule { name } => format!("hidden kernel module {name}"),
        Detection::PrivilegeEscalation { pid, comm, .. } => {
            format!("privilege escalation in {comm} (pid {pid})")
        }
        Detection::SuspiciousOutput { signature, .. } => {
            format!("exfiltration signature {signature} in buffered output")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crimes_workloads::attacks::{self, attack_rips};
    use crimes_workloads::AttackRecord;

    fn vm() -> Vm {
        let mut b = Vm::builder();
        b.pages(4096).seed(55);
        b.build()
    }

    fn analyzer(vm: &Vm) -> Analyzer {
        Analyzer::new(&Symbols::parse(vm.system_map()).expect("parse"))
    }

    fn canary_finding(vm: &Vm, pid: u32) -> Vec<ScanFinding> {
        use crimes_vmi::{CanaryScanner, VmiSession};
        let mut s = VmiSession::init(vm).unwrap();
        s.refresh_address_spaces(vm.memory()).unwrap();
        let report = CanaryScanner::new(vm.canary_secret())
            .scan_all(&s, vm.memory())
            .unwrap();
        assert!(!report.violations.is_empty());
        let _ = pid;
        vec![ScanFinding {
            module: "canary".to_owned(),
            detection: Detection::CanaryViolations(report.violations),
        }]
    }

    #[test]
    fn overflow_incident_produces_three_dumps_and_pinpoint() {
        let mut vm = vm();
        vm.set_recording(true);
        let pid = vm.spawn_process("victim", 0, 16).unwrap();
        let frames = vm.memory().dump_frames();
        let disk = vm.disk().dump();
        let meta = vm.meta_snapshot();
        let mark = vm.trace_mark();
        attacks::inject_heap_overflow(&mut vm, pid, 64, 8).unwrap();
        let findings = canary_finding(&vm, pid);
        let ops = vm.trace_since(mark);

        let analysis = analyzer(&vm)
            .analyze(&mut vm, &frames, &disk, &meta, &ops, findings, |_| false)
            .unwrap();

        let pin = analysis.pinpoint.expect("pinpoint");
        assert_eq!(pin.rip, attack_rips::HEAP_OVERFLOW);
        assert!(analysis.dumps.attack_instant.is_some());
        assert_eq!(
            analysis.dumps.last_good.kind(),
            DumpKind::LastGoodCheckpoint
        );
        assert_eq!(analysis.dumps.audit_failure.kind(), DumpKind::AuditFailure);
        let text = analysis.report.to_text();
        assert!(text.contains("Buffer Overflow"));
        assert!(text.contains("pinpointed"));
        assert!(!analysis.diff.changed_pages.is_empty());
    }

    #[test]
    fn diverged_replay_degrades_to_no_pinpoint_analysis() {
        let mut vm = vm();
        vm.set_recording(true);
        let pid = vm.spawn_process("victim", 0, 16).unwrap();
        let frames = vm.memory().dump_frames();
        let disk = vm.disk().dump();
        let meta = vm.meta_snapshot();
        let mark = vm.trace_mark();
        attacks::inject_heap_overflow(&mut vm, pid, 64, 8).unwrap();
        let findings = canary_finding(&vm, pid);
        let ops = vm.trace_since(mark);

        let _scope = crimes_faults::install(
            crimes_faults::FaultPlan::disabled()
                .with_rate(crimes_faults::FaultPoint::ReplayDiverge, crimes_faults::SCALE),
            9,
        );
        let analysis = analyzer(&vm)
            .analyze(&mut vm, &frames, &disk, &meta, &ops, findings, |_| false)
            .expect("analysis degrades instead of failing");
        assert!(analysis.pinpoint.is_none());
        assert!(analysis.dumps.attack_instant.is_none());
        let reason = analysis.replay_degraded.expect("degraded");
        assert!(reason.contains("diverged"));
        let text = analysis.report.to_text();
        assert!(text.contains("Degraded Analysis"));
        assert!(text.contains("Buffer Overflow"));
    }

    #[test]
    fn malware_incident_renders_case_study_report() {
        let mut vm = vm();
        vm.set_recording(true);
        let frames = vm.memory().dump_frames();
        let disk = vm.disk().dump();
        let meta = vm.meta_snapshot();
        let mark = vm.trace_mark();
        let rec = attacks::inject_malware_launch(&mut vm, "reg_read.exe").unwrap();
        let AttackRecord::MalwareLaunch { pid, .. } = rec else {
            panic!()
        };
        // Build the finding VMI-side.
        use crimes_vmi::{linux, VmiSession};
        let s = VmiSession::init(&vm).unwrap();
        let task = linux::task_by_pid(&s, vm.memory(), pid).unwrap();
        let findings = vec![ScanFinding {
            module: "malware-blacklist".to_owned(),
            detection: Detection::BlacklistedProcess(task),
        }];
        let ops = vm.trace_since(mark);

        let analysis = analyzer(&vm)
            .analyze(&mut vm, &frames, &disk, &meta, &ops, findings, |_| false)
            .unwrap();

        assert!(analysis.pinpoint.is_none(), "no replay for malware (§5.6)");
        assert!(analysis.dumps.attack_instant.is_none());
        let text = analysis.report.to_text();
        assert!(text.contains("reg_read.exe"));
        assert!(text.contains("104.28.18.89:8080"));
        assert!(text.contains("CLOSE_WAIT"));
        assert!(text.contains("write_file.txt"));
        assert_eq!(analysis.diff.new_tasks.len(), 1);
    }

    #[test]
    fn hidden_process_incident_gets_psxview_section() {
        let mut vm = vm();
        vm.set_recording(true);
        let frames = vm.memory().dump_frames();
        let disk = vm.disk().dump();
        let meta = vm.meta_snapshot();
        let mark = vm.trace_mark();
        let rec = attacks::inject_rootkit_hide(&mut vm, "rootkitd").unwrap();
        let AttackRecord::RootkitHide { pid } = rec else {
            panic!()
        };
        let findings = vec![ScanFinding {
            module: "hidden-process".to_owned(),
            detection: Detection::HiddenProcess {
                pid,
                comm: "rootkitd".to_owned(),
            },
        }];
        let ops = vm.trace_since(mark);
        let analysis = analyzer(&vm)
            .analyze(&mut vm, &frames, &disk, &meta, &ops, findings, |_| false)
            .unwrap();
        let text = analysis.report.to_text();
        assert!(text.contains("Hidden Process Anomalies"));
        assert!(text.contains("rootkitd"));
    }

    #[test]
    fn syscall_incident_lists_entries() {
        let mut vm = vm();
        vm.set_recording(true);
        let frames = vm.memory().dump_frames();
        let disk = vm.disk().dump();
        let meta = vm.meta_snapshot();
        let mark = vm.trace_mark();
        attacks::inject_syscall_hijack(&mut vm, 99).unwrap();
        let findings = vec![ScanFinding {
            module: "syscall-table".to_owned(),
            detection: Detection::SyscallTableTampered(vec![(99, 1, 2)]),
        }];
        let ops = vm.trace_since(mark);
        let analysis = analyzer(&vm)
            .analyze(&mut vm, &frames, &disk, &meta, &ops, findings, |_| false)
            .unwrap();
        assert!(analysis.report.to_text().contains("syscall 99"));
    }
}
