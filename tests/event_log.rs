//! The evidence journal is the one event stream, and it keeps every
//! event: with 200 VMI retries an audit, far more than the flight
//! recorder shows, the journal's events of each counted kind equal the
//! telemetry counter. Also pinned here: every [`EventKind`] survives the
//! JSON export and its schema check, the CSV export and the journal; a
//! retry budget too large to reserve event slots for is refused at build.

use std::sync::Arc;

use crimes::config::MAX_VMI_RETRIES;
use crimes::modules::CanaryScanModule;
use crimes::{Crimes, CrimesConfig, CrimesError, EpochOutcome};
use crimes_faults::{install, FaultPlan, FaultPoint, SCALE};
use crimes_journal::{EvidenceJournal, Record};
use crimes_telemetry::export::{events_csv, telemetry_json};
use crimes_telemetry::schema::validate_telemetry_json;
use crimes_telemetry::{Counter, Event, EventKind, Telemetry, TestClock};
use crimes_vm::Vm;

/// The journal's events, replayed from its bytes.
fn replayed(journal: &EvidenceJournal) -> Vec<Event> {
    let records = EvidenceJournal::records(journal.bytes()).into_iter();
    records
        .filter_map(|r| match r {
            Record::Event { epoch, at_ns, kind } => Some(Event { epoch, at_ns, kind }),
            _ => None,
        })
        .collect()
}

#[test]
fn the_journal_keeps_every_event_the_counters_count() {
    let cfg = CrimesConfig::builder().vmi_retries(200).build().expect("valid config");
    let vm = Vm::builder().pages(1024).seed(46).build();
    let mut c = Crimes::protect_with_clock(vm, cfg, Arc::new(TestClock::new())).expect("protect");
    let secret = c.vm().canary_secret();
    c.register_module(Box::new(CanaryScanModule::new(secret)));
    // Every read faults from here on: each audit spends its retries and
    // extends, until the extensions quarantine.
    let _faults = install(FaultPlan::disabled().with_rate(FaultPoint::VmiRead, SCALE), 46);
    for boundary in 1.. {
        match c.run_epoch(|_vm, _| Ok(())) {
            Ok(EpochOutcome::Extended { .. }) if boundary < 16 => {}
            Err(CrimesError::Quarantined { .. }) => break,
            other => panic!("boundary {boundary}: {other:?}"),
        }
    }
    let events = replayed(c.journal());
    for (label, counter) in [
        ("vmi_retry", Counter::VmiRetries),
        ("extended", Counter::SpeculationExtensions),
        ("quarantined", Counter::Quarantines),
    ] {
        let journaled = events.iter().filter(|e| e.kind.label() == label).count() as u64;
        assert_eq!(journaled, c.telemetry().counter(counter), "`{label}` events");
    }
    let retries = c.telemetry().counter(Counter::VmiRetries);
    assert!(retries > crimes::FLIGHT_RECORDER_EVENTS as u64, "{retries} retries overflow the recorder");
}

#[test]
fn every_event_kind_exports_validates_and_journals() {
    let events: Vec<Event> = (EventKind::ALL.iter().enumerate())
        .map(|(i, &kind)| Event { epoch: i as u64, at_ns: 10 * i as u64, kind })
        .collect();
    let json = telemetry_json(&Telemetry::default(), events.iter().copied());
    validate_telemetry_json(&json).expect("every kind is part of the schema");
    let csv = events_csv(events.iter().copied());
    for (row, e) in csv.lines().skip(1).zip(&events) {
        let arg = e.kind.arg().map(|a| a.to_string()).unwrap_or_default();
        assert_eq!(row, format!("{},{},{},{arg}", e.epoch, e.at_ns, e.kind.label()));
    }
    assert_eq!(csv.lines().count(), 1 + events.len());
    let mut journal = EvidenceJournal::new();
    events.iter().for_each(|&e| journal.append_event(e));
    assert_eq!(replayed(&journal), events);
}

#[test]
fn a_retry_budget_past_the_reservable_is_refused_at_build() {
    for retries in [u32::MAX, MAX_VMI_RETRIES + 1] {
        match CrimesConfig::builder().vmi_retries(retries).build() {
            Err(CrimesError::InvalidConfig(msg)) => assert!(msg.contains("vmi_retries"), "{msg}"),
            other => panic!("vmi_retries({retries}) built: {other:?}"),
        }
    }
    // The largest accepted budget protects a guest, its slots reserved.
    let cfg = CrimesConfig::builder().vmi_retries(MAX_VMI_RETRIES).build().expect("builds");
    let c = Crimes::protect(Vm::builder().pages(1024).seed(46).build(), cfg).expect("protect");
    assert_eq!(c.flight_recorder().events().count(), 0, "nothing recorded before a boundary");
}
