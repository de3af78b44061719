//! Asynchronous deep forensics on the prior checkpoint.
//!
//! §5.3: Volatility-class scans cost hundreds of milliseconds — "infeasible
//! for running synchronously at every checkpoint interval, but … CRIMES's
//! maintenance of a prior checkpoint means that complex security tools …
//! could be used asynchronously on the last checkpoint as the VM continues
//! to run. We leave investigation of such techniques as future work."
//!
//! This module implements that future work: committed checkpoints are
//! shipped (as self-contained [`MemoryDump`]s) to a worker thread that runs
//! the heavy cross-view sweeps — `psscan`-vs-`pslist`, `modscan`-vs-module
//! list, and a blacklist pass over *scanned* (including hidden) tasks —
//! while the VM keeps executing. Findings surface at a later epoch
//! boundary, so this path trades the zero-window guarantee for coverage the
//! synchronous scans cannot afford, exactly the trade-off the paper
//! describes for Best-Effort detection.

use std::collections::BTreeSet;
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crimes_forensics::{plugins, MemoryDump};
use crimes_workloads::Blacklist;

use crate::detector::{Detection, ScanFinding};

/// One shipped checkpoint.
struct Job {
    epoch: u64,
    dump: MemoryDump,
}

/// Findings from one asynchronous sweep.
#[derive(Debug, Clone)]
pub struct AsyncScanResult {
    /// The checkpoint epoch the sweep inspected.
    pub epoch: u64,
    /// Evidence found (empty = the checkpoint looked clean).
    pub findings: Vec<ScanFinding>,
    /// Wall-clock the sweep took on the worker.
    pub elapsed: Duration,
}

impl AsyncScanResult {
    /// `true` when the sweep found nothing.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Statistics about the async pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AsyncScanStats {
    /// Checkpoints shipped to the worker.
    pub dispatched: u64,
    /// Checkpoints skipped because the worker was still busy.
    pub skipped_busy: u64,
    /// Results collected so far.
    pub collected: u64,
}

/// The asynchronous deep scanner.
#[derive(Debug)]
pub struct AsyncScanner {
    job_tx: Option<SyncSender<Job>>,
    result_rx: Receiver<AsyncScanResult>,
    worker: Option<JoinHandle<()>>,
    stats: AsyncScanStats,
}

impl AsyncScanner {
    /// Spawn the worker. `blacklist` drives the deep malware pass (it also
    /// sees DKOM-hidden processes, which the synchronous blacklist scan
    /// cannot).
    pub fn spawn(blacklist: Blacklist) -> Self {
        // Capacity 1: at most one checkpoint in flight; a busy worker makes
        // dispatch skip rather than queue stale work.
        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(1);
        let (result_tx, result_rx) = mpsc::channel::<AsyncScanResult>();
        let worker = std::thread::Builder::new()
            .name("crimes-async-forensics".to_owned())
            .spawn(move || {
                while let Ok(job) = job_rx.recv() {
                    let t0 = Instant::now();
                    let findings = deep_sweep(&job.dump, &blacklist);
                    let result = AsyncScanResult {
                        epoch: job.epoch,
                        findings,
                        elapsed: t0.elapsed(),
                    };
                    if result_tx.send(result).is_err() {
                        return; // receiver gone: shut down
                    }
                }
            })
            .expect("spawning the forensics worker cannot fail");
        AsyncScanner {
            job_tx: Some(job_tx),
            result_rx,
            worker: Some(worker),
            stats: AsyncScanStats::default(),
        }
    }

    /// Ship a checkpoint to the worker. Returns `false` (and counts a
    /// skip) when the worker is still busy with the previous one.
    pub fn dispatch(&mut self, epoch: u64, dump: MemoryDump) -> bool {
        let Some(tx) = self.job_tx.as_ref() else {
            return false;
        };
        // Injected overrun: the deep-sweep worker is "still busy" past its
        // deadline — same degradation as a genuinely full queue.
        if crimes_faults::should_inject(crimes_faults::FaultPoint::AuditOverrun) {
            self.stats.skipped_busy += 1;
            return false;
        }
        match tx.try_send(Job { epoch, dump }) {
            Ok(()) => {
                self.stats.dispatched += 1;
                true
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.stats.skipped_busy += 1;
                false
            }
        }
    }

    /// Collect every finished sweep without blocking.
    pub fn poll(&mut self) -> Vec<AsyncScanResult> {
        let mut results = Vec::new();
        while let Ok(r) = self.result_rx.try_recv() {
            self.stats.collected += 1;
            results.push(r);
        }
        results
    }

    /// Block until the worker has drained all dispatched jobs and return
    /// everything (tests and orderly shutdown).
    pub fn drain(&mut self) -> Vec<AsyncScanResult> {
        let mut results = self.poll();
        while self.stats.collected < self.stats.dispatched {
            match self.result_rx.recv() {
                Ok(r) => {
                    self.stats.collected += 1;
                    results.push(r);
                }
                Err(_) => break,
            }
        }
        results
    }

    /// Pipeline statistics.
    pub fn stats(&self) -> AsyncScanStats {
        self.stats
    }
}

impl Drop for AsyncScanner {
    fn drop(&mut self) {
        // Close the job channel so the worker's recv() ends, then join.
        self.job_tx.take();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// The heavy sweep itself: cross-view process and module checks plus a
/// blacklist pass over heuristically scanned tasks.
fn deep_sweep(dump: &MemoryDump, blacklist: &Blacklist) -> Vec<ScanFinding> {
    let mut findings = Vec::new();
    let Ok(session) = dump.open_session() else {
        // A checkpoint too damaged to introspect is itself suspicious,
        // but without a session there is nothing structured to report.
        return findings;
    };

    // psscan vs pslist cross-view (sees DKOM-hidden processes).
    if let Ok(rows) = plugins::psxview(&session, dump) {
        for row in rows.into_iter().filter(|r| r.is_suspicious()) {
            findings.push(ScanFinding {
                module: "async-psxview".to_owned(),
                detection: Detection::HiddenProcess {
                    pid: row.pid,
                    comm: row.comm,
                },
            });
        }
    }

    // modscan vs module-list cross-view (sees hidden LKMs).
    let listed: BTreeSet<String> = plugins::pslist(&session, dump)
        .ok()
        .map(|_| ()) // keep the happy path flat; module list handled below
        .and_then(|()| crimes_vmi::linux::module_list(&session, dump.memory()).ok())
        .map(|mods| mods.into_iter().map(|m| m.name).collect())
        .unwrap_or_default();
    if let Ok(scanned) = plugins::modscan(&session, dump) {
        for m in scanned
            .into_iter()
            .filter(|m| !listed.contains(&m.module.name))
        {
            findings.push(ScanFinding {
                module: "async-modscan".to_owned(),
                detection: Detection::HiddenModule {
                    name: m.module.name,
                },
            });
        }
    }

    // Blacklist over *scanned* tasks: catches blacklisted processes even
    // after they hide from the task list.
    for s in plugins::psscan(dump).into_iter().filter(|s| !s.freed) {
        if blacklist.contains(&s.task.comm) {
            findings.push(ScanFinding {
                module: "async-blacklist".to_owned(),
                detection: Detection::BlacklistedProcess(s.task),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crimes_forensics::DumpKind;
    use crimes_vm::Vm;
    use crimes_workloads::attacks;

    fn vm() -> Vm {
        let mut b = Vm::builder();
        b.pages(2048).seed(88);
        b.build()
    }

    fn dump(vm: &Vm) -> MemoryDump {
        let symbols = crimes_vmi::Symbols::parse(vm.system_map()).expect("parse");
        MemoryDump::from_vm(vm, &symbols, DumpKind::Adhoc)
    }

    #[test]
    fn clean_checkpoint_sweeps_clean() {
        let mut vm = vm();
        vm.spawn_process("nginx", 33, 2).unwrap();
        let mut scanner = AsyncScanner::spawn(Blacklist::bundled());
        assert!(scanner.dispatch(1, dump(&vm)));
        let results = scanner.drain();
        assert_eq!(results.len(), 1);
        assert!(results[0].is_clean());
        assert_eq!(results[0].epoch, 1);
        assert!(results[0].elapsed > Duration::ZERO);
    }

    #[test]
    fn hidden_process_is_found_asynchronously() {
        let mut vm = vm();
        attacks::inject_rootkit_hide(&mut vm, "rk_proc").unwrap();
        let mut scanner = AsyncScanner::spawn(Blacklist::bundled());
        scanner.dispatch(7, dump(&vm));
        let results = scanner.drain();
        assert_eq!(results.len(), 1);
        assert!(results[0]
            .findings
            .iter()
            .any(|f| f.module == "async-psxview"));
    }

    #[test]
    fn hidden_blacklisted_process_is_caught_by_deep_blacklist() {
        // The synchronous blacklist scan walks the task list, so a hidden
        // blacklisted process evades it; the async psscan pass does not.
        let mut vm = vm();
        let rec = attacks::inject_malware_launch(&mut vm, "xmrig").unwrap();
        let crimes_workloads::AttackRecord::MalwareLaunch { pid, .. } = rec else {
            panic!()
        };
        vm.hide_process(pid).unwrap();
        let mut scanner = AsyncScanner::spawn(Blacklist::bundled());
        scanner.dispatch(3, dump(&vm));
        let results = scanner.drain();
        assert!(results[0]
            .findings
            .iter()
            .any(|f| f.module == "async-blacklist"));
    }

    #[test]
    fn hidden_module_is_found_asynchronously() {
        let mut vm = vm();
        vm.load_module("rk_lkm", 0x666).unwrap();
        vm.hide_module("rk_lkm").unwrap();
        let mut scanner = AsyncScanner::spawn(Blacklist::bundled());
        scanner.dispatch(2, dump(&vm));
        let results = scanner.drain();
        assert!(results[0]
            .findings
            .iter()
            .any(|f| f.module == "async-modscan"));
    }

    #[test]
    fn busy_worker_skips_rather_than_queues() {
        let vm = vm();
        let mut scanner = AsyncScanner::spawn(Blacklist::bundled());
        // Flood with dispatches; with a single worker and capacity-1
        // channel, at least one must be skipped.
        let dump = dump(&vm);
        let mut sent = 0;
        for epoch in 0..16 {
            if scanner.dispatch(epoch, dump.clone()) {
                sent += 1;
            }
        }
        let stats = scanner.stats();
        assert_eq!(stats.dispatched, sent);
        assert!(stats.skipped_busy > 0, "some dispatches must be skipped");
        let results = scanner.drain();
        assert_eq!(results.len() as u64, sent);
    }

    #[test]
    fn drop_joins_the_worker() {
        let vm = vm();
        let mut scanner = AsyncScanner::spawn(Blacklist::bundled());
        scanner.dispatch(1, dump(&vm));
        drop(scanner); // must not hang or panic
    }
}
