//! Telemetry export report — drives the seeded fault soak's tenant for a
//! bounded number of epochs and publishes the framework's own evidence
//! about the run: the counter/histogram bundle and the flight recorder's
//! events, read back from the evidence journal, through the documented
//! JSON and CSV schema
//! (`crimes_telemetry::export`). Every export is round-tripped through
//! [`crimes_telemetry::schema::validate_telemetry_json`] before it is
//! written, so a drifting emitter fails the experiment rather than
//! producing an unreadable artifact.
//!
//! The counters are deterministic in the seed (timestamps are not — they
//! come from the real monotonic clock), so the counter CSV is a
//! reproducible fingerprint of the degraded-mode pipeline.
//!
//! Every detected attack is investigated before it is rolled back, and
//! the run checks that `symbol_parses` still reads 1 at the end: the
//! tenant's start-up parsed System.map and no incident parsed it again.
//!
//! The run also holds the recording budget: the telemetry call sequence
//! of one committed boundary, timed over a long loop, may cost at most
//! [`RECORDING_BUDGET_PCT`] of the tenant's mean boundary as its own
//! phase histograms report it (recording is never compiled out, so that
//! is the instrumented number). Recording is fixed-slot arithmetic plus
//! the boundary's events pushed into a reserved buffer, held to no
//! allocation in the pause window by `tests/pause_alloc.rs`, and the
//! buffer's flush into the journal after it.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use crimes::modules::CanaryScanModule;
use crimes::{Crimes, CrimesConfig, CrimesError, EpochOutcome};
use crimes_faults::{install, FaultPlan, FaultPoint};
use crimes_outbuf::{NetPacket, Output};
use crimes_rng::ChaCha8Rng;
use crimes_telemetry::export::{counters_csv, events_csv, phases_csv, telemetry_json};
use crimes_telemetry::schema::validate_telemetry_json;
use crimes_journal::EvidenceJournal;
use crimes_telemetry::{Counter, Event, EventKind, Telemetry};
use crimes_vm::Vm;
use crimes_workloads::attacks;

use crate::text::TextTable;

/// The telemetry bundle harvested from one seeded soak.
#[derive(Debug, Clone)]
pub struct TelemetryExport {
    /// Seed driving the fault injector and the attack schedule.
    pub seed: u64,
    /// Boundaries actually driven (the run ends early if the tenant is
    /// quarantined — the terminal timeline is itself the artifact).
    pub epochs: u64,
    /// The tenant's counters and histograms at the end of the run.
    pub telemetry: Telemetry,
    /// The flight recorder's events at the end of the run, oldest first.
    pub events: Vec<Event>,
    /// Events the tenant's journal holds: every one it recorded.
    pub journaled_events: usize,
    /// The schema-validated JSON export of both.
    pub json: String,
    /// Mean cost of one boundary's telemetry calls, in nanoseconds.
    pub recording_ns: f64,
    /// Mean boundary of the run, in nanoseconds: the phase histograms'
    /// sums over the count of the busiest phase.
    pub boundary_ns: f64,
    /// Incidents whose analysis completed before their rollback.
    pub investigated: u64,
}

/// Share of a boundary that recording it may cost, in percent.
pub const RECORDING_BUDGET_PCT: f64 = 5.0;

/// Time the telemetry calls a committed four-worker boundary makes (three
/// events pushed into a reserved buffer and flushed into the journal, six
/// phase samples, the dirty-page and audit samples, four worker shards,
/// three counter adds), averaged over a long loop.
fn recording_ns_per_boundary() -> f64 {
    const ITERS: u64 = 50_000;
    let mut t = Telemetry::new(&["suspend", "vmi", "bitscan", "map", "copy", "resume"]);
    let mut events: Vec<Event> = Vec::with_capacity(16);
    let mut journal = EvidenceJournal::new();
    let t0 = Instant::now();
    for i in 0..ITERS {
        let now = black_box(i * 1_000);
        events.push(Event { epoch: i, at_ns: now, kind: EventKind::EpochStart });
        events.push(Event { epoch: i, at_ns: now + 1, kind: EventKind::AuditStaged });
        for phase in 0..6 {
            t.record_phase_ns(phase, black_box(now + phase as u64));
        }
        t.record_dirty_pages(black_box(900 + (i & 63)));
        t.record_audit_ns(black_box(250_000 + i));
        for slot in 0..4 {
            t.record_worker(slot, black_box(225), black_box(225 * 4096), 2);
        }
        t.add(Counter::VmiRetries, black_box(i) & 1);
        t.add(Counter::EpochsCommitted, 1);
        t.add(Counter::OutputsReleased, 2);
        events.push(Event { epoch: i, at_ns: now + 2, kind: EventKind::Committed { released: 2 } });
        for event in events.drain(..) {
            journal.append_event(event);
        }
    }
    let elapsed = t0.elapsed().as_nanos();
    // Keep the accumulators live so the loop cannot be optimised away.
    black_box((t.counter(Counter::EpochsCommitted), journal.record_count()));
    elapsed as f64 / ITERS as f64
}

/// Moderate fault rates (per 1024): every degraded path fires over a few
/// hundred epochs without tipping the tenant into quarantine most runs.
fn plan() -> FaultPlan {
    FaultPlan::disabled()
        .with_rate(FaultPoint::VmiRead, 30)
        .with_rate(FaultPoint::PageCopy, 15)
        .with_rate(FaultPoint::BackupWrite, 15)
        .with_rate(FaultPoint::PageCorrupt, 8)
        .with_rate(FaultPoint::AuditOverrun, 25)
        .with_rate(FaultPoint::OutbufOverflow, 15)
}

fn tenant(seed: u64) -> (Crimes, u32) {
    let mut cfg = CrimesConfig::builder();
    cfg.epoch_interval_ms(10);
    cfg.history_depth(3);
    cfg.pause_workers(4);
    let cfg = cfg.build().expect("valid config");
    let mut c = loop {
        let mut b = Vm::builder();
        b.pages(1024).seed(seed);
        let vm = b.build();
        match Crimes::protect(vm, cfg) {
            Ok(c) => break c,
            Err(CrimesError::Vmi(crimes_vmi::VmiError::TransientReadFault)) => continue,
            Err(e) => panic!("protect failed hard: {e}"),
        }
    };
    let secret = c.vm().canary_secret();
    c.register_module(Box::new(CanaryScanModule::new(secret)));
    let pid = c
        .vm_mut()
        .spawn_process("workload", 700, 16)
        .expect("spawn victim");
    (c, pid)
}

/// Drive `epochs` boundaries with `seed` and harvest the telemetry.
///
/// # Panics
///
/// Panics when a fail-closed invariant breaks (an unexpected error from
/// the pipeline), when an incident parses System.map again, when the
/// JSON export fails schema validation, or when recording costs more than
/// [`RECORDING_BUDGET_PCT`] of the boundary.
pub fn run(epochs: u64, seed: u64) -> TelemetryExport {
    let _scope = install(plan(), seed);
    let mut driver = ChaCha8Rng::seed_from_u64(seed ^ 0x7e1e);
    let (mut c, pid) = tenant(seed);
    let mut attack_pending = false;
    let mut driven = 0u64;
    let mut investigated = 0u64;

    for epoch in 0..epochs {
        driven = epoch + 1;
        if driver.gen_range(0..4) != 0 {
            match c.submit_output(Output::Net(NetPacket::new(epoch, vec![epoch as u8; 24]))) {
                Ok(_) | Err(CrimesError::BufferOverflow { .. }) => {}
                Err(e) => panic!("epoch {epoch}: unexpected submit error: {e}"),
            }
        }
        let attack = !attack_pending && driver.gen_range(0..100) < 5;
        let result = c.run_epoch(|vm, ms| {
            let obj = vm.malloc(pid, 48)?;
            vm.write_user(pid, obj, &[epoch as u8; 48], 0x1000)?;
            vm.free(pid, obj)?;
            if attack {
                attacks::inject_heap_overflow(vm, pid, 32, 8)?;
            }
            vm.advance_time(ms * 1_000_000);
            Ok(())
        });
        if attack {
            attack_pending = true;
        }
        match result {
            Ok(EpochOutcome::Committed { .. })
            | Ok(EpochOutcome::Extended { .. })
            | Ok(EpochOutcome::Degraded { .. }) => {}
            Ok(EpochOutcome::AttackDetected { .. }) => {
                // Forensics is best-effort under injected faults;
                // containment below is not.
                investigated += u64::from(c.investigate().is_ok());
                match c.rollback_and_resume() {
                    Ok(_) => attack_pending = false,
                    // Terminal: the quarantined recorder is itself the artifact.
                    Err(CrimesError::Quarantined { .. }) => break,
                    Err(e) => panic!("epoch {epoch}: rollback failed: {e}"),
                }
            }
            Err(CrimesError::Exhausted { .. }) => attack_pending = false,
            Err(CrimesError::Quarantined { .. }) => break,
            Err(e) => panic!("epoch {epoch}: unexpected epoch error: {e}"),
        }
    }

    let telemetry = *c.telemetry();
    assert_eq!(
        telemetry.counter(Counter::SymbolParses),
        1,
        "start-up parses System.map once, and {investigated} incidents never again"
    );
    let events: Vec<Event> = c.flight_recorder().events().collect();
    let journaled_events = c.journal().recent_events(usize::MAX).count();
    let json = telemetry_json(&telemetry, events.iter().copied());
    validate_telemetry_json(&json).expect("export matches the documented schema");

    let (sum_ns, boundaries) = telemetry
        .phases()
        .fold((0, 0), |(sum, count), (_, h)| (sum + h.sum(), count.max(h.count())));
    let boundary_ns = sum_ns as f64 / boundaries as f64;
    let recording_ns = recording_ns_per_boundary();
    assert!(
        recording_ns * 100.0 <= RECORDING_BUDGET_PCT * boundary_ns,
        "recording a boundary costs {recording_ns:.0} ns, \
         over {RECORDING_BUDGET_PCT} % of its {boundary_ns:.0} ns"
    );
    TelemetryExport {
        seed,
        epochs: driven,
        telemetry,
        events,
        journaled_events,
        json,
        recording_ns,
        boundary_ns,
        investigated,
    }
}

impl TelemetryExport {
    /// Render the counter table (and persist the JSON plus the three CSV
    /// exports when `out` is given).
    pub fn render(&self, out: Option<&Path>) -> String {
        let mut t = TextTable::new(["counter", "value"]);
        for c in Counter::ALL {
            t.row([c.name().to_owned(), self.telemetry.counter(c).to_string()]);
        }
        if let Some(dir) = out {
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(dir.join("telemetry.json"), &self.json);
            let _ = std::fs::write(dir.join("telemetry_counters.csv"), counters_csv(&self.telemetry));
            let _ = std::fs::write(dir.join("telemetry_phases.csv"), phases_csv(&self.telemetry));
            let _ = std::fs::write(dir.join("telemetry_events.csv"), events_csv(self.events.iter().copied()));
        }
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Telemetry export: {} epochs under seeded faults (seed {:#x})",
            self.epochs, self.seed
        );
        let _ = writeln!(
            s,
            "  events: {} journaled, the newest {} exported",
            self.journaled_events,
            self.events.len()
        );
        let _ = writeln!(
            s,
            "  incidents investigated: {}, System.map parses: {} (start-up's only)",
            self.investigated,
            self.telemetry.counter(Counter::SymbolParses)
        );
        for (label, h) in self.telemetry.phases() {
            let _ = writeln!(
                s,
                "  phase {label:<8} count {} mean {} ns max {} ns",
                h.count(),
                h.mean(),
                h.max()
            );
        }
        let _ = writeln!(
            s,
            "  recording: {:.0} ns per boundary, {:.4} % of the {:.3} ms mean boundary \
             (budget {RECORDING_BUDGET_PCT} %)",
            self.recording_ns,
            self.recording_ns / self.boundary_ns * 100.0,
            self.boundary_ns / 1e6
        );
        s.push('\n');
        s.push_str(&t.render());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_validates_and_reports_the_soak() {
        let r = run(300, 0x7e1e_5eed);
        let committed = r.telemetry.counter(Counter::EpochsCommitted);
        assert!(committed > 30, "epochs commit before any quarantine: {committed}");
        assert!(!r.events.is_empty(), "the recorder saw the run");
        assert!(r.journaled_events >= r.events.len(), "the journal holds what is exported");
        for key in ["\"schema_version\":1", "\"counters\"", "\"events\""] {
            assert!(r.json.contains(key), "missing {key}");
        }
        let text = r.render(None);
        assert!(text.contains(&format!("Telemetry export: {} epochs", r.epochs)));
        assert!(text.contains("epochs_committed"));
    }

    #[test]
    fn same_seed_reproduces_the_same_counters_and_event_kinds() {
        let a = run(120, 42);
        let b = run(120, 42);
        // All but the ones that count a race (which thread got to a lent
        // walk shard, or to a start-up digest chunk, first; no staging
        // here, so no head start).
        let seeded = |r: &TelemetryExport| -> Vec<String> {
            let timing = [Counter::WalkShardsTakenBack, Counter::StartupDigestLentPages].map(Counter::name);
            counters_csv(&r.telemetry)
                .lines()
                .filter(|l| !timing.iter().any(|name| l.contains(name)))
                .map(str::to_owned)
                .collect()
        };
        assert_eq!(seeded(&a), seeded(&b));
        let kinds = |r: &TelemetryExport| -> Vec<String> {
            r.events.iter().map(|e| e.kind.to_string()).collect()
        };
        assert_eq!(kinds(&a), kinds(&b), "event kinds are seed-deterministic");
    }
}
