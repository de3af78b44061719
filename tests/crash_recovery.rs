//! Crash-recovery harness for the durable evidence journal.
//!
//! Three layers of kill-testing:
//!
//! 1. **Record level** — the journal image is cut at every record
//!    boundary *and at every byte in between*: replay must be
//!    deterministic, a mid-record cut must recover exactly the state of
//!    the last complete record (the torn tail is dropped, never
//!    guessed), and the decoded record stream must never show an output
//!    release that precedes its backup ack.
//! 2. **Epoch level** — a live run is snapshotted (guest + backup +
//!    journal) after every epoch boundary; [`Crimes::recover`] from each
//!    snapshot must reproduce the live fingerprint bit-for-bit, resume
//!    committing afterwards, and release conservatively-impounded
//!    outputs only as the re-staged generations ack.
//! 3. **Fleet soak** — a backup-outage window plus a lossy drain link:
//!    the fleet must resync at least one broken stream, fail over to the
//!    standby at least once, and the journal must prove that not one
//!    output was released before its generation was acked.

use std::sync::Arc;

use crimes::{Crimes, CrimesConfig, EpochOutcome, Fleet};
use crimes_faults::{install, FaultPlan, FaultPoint, SCALE};
use crimes_journal::{EvidenceJournal, Record};
use crimes_outbuf::{NetPacket, Output};
use crimes_checkpoint::BackupVm;
use crimes_telemetry::{Counter, RealClock, TestClock};
use crimes_vm::Vm;

fn guest(seed: u64) -> Vm {
    let mut b = Vm::builder();
    b.pages(4096).seed(seed);
    b.build()
}

/// The deferred pipeline with room for a three-epoch outage: four
/// staging slots, a backlog budget of three, failover after nine
/// consecutive session failures (each fully-failed drain burns four
/// attempts, so the third failed epoch crosses the threshold).
fn deferred_config() -> CrimesConfig {
    deferred_config_with(2)
}

/// [`deferred_config`] at another worker count. With one worker the
/// engine's pool has no resident worker, so no drain gets a head start.
fn deferred_config_with(pause_workers: usize) -> CrimesConfig {
    let mut b = CrimesConfig::builder();
    b.epoch_interval_ms(20)
        .pause_workers(pause_workers)
        .staging_buffers(4)
        .max_staged_backlog(3)
        .failover_threshold(9);
    b.build().expect("valid config")
}

fn packet(id: u64) -> Output {
    Output::Net(NetPacket::new(id, vec![id as u8; 6]))
}

/// Everything that must survive a monitor crash, in comparable form.
/// Process-local observability (telemetry counters, timing stats) is
/// deliberately absent: the journal is the durable record.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    committed_epochs: u64,
    backup_epoch: u64,
    acked_generation: u64,
    backup_frames: Vec<u8>,
    backup_disk: Vec<u8>,
    held: Vec<(Output, u64)>,
    ack_pending: Vec<(Output, u64, u64)>,
    events: Vec<(u64, u64, &'static str, Option<u64>)>,
    quarantined: bool,
}

fn fingerprint(c: &Crimes) -> Fingerprint {
    let backup = c.checkpointer().backup();
    Fingerprint {
        committed_epochs: c.committed_epochs(),
        backup_epoch: backup.epoch(),
        acked_generation: backup.acked_generation(),
        backup_frames: backup.frames().to_vec(),
        backup_disk: backup.disk().to_vec(),
        held: c
            .output_buffer()
            .held_entries()
            .map(|(o, t)| (o.clone(), t))
            .collect(),
        ack_pending: c
            .output_buffer()
            .ack_pending_entries()
            .map(|(o, t, g)| (o.clone(), t, g))
            .collect(),
        events: c
            .flight_recorder()
            .events()
            .map(|e| (e.epoch, e.at_ns, e.kind.label(), e.kind.arg()))
            .collect(),
        quarantined: c.is_quarantined(),
    }
}

/// Drive one epoch that dirties a few arena pages and (optionally)
/// submits an output first.
fn drive_epoch(
    c: &mut Crimes,
    pid: u32,
    round: u64,
    with_output: bool,
) -> Result<EpochOutcome, crimes::CrimesError> {
    if with_output {
        c.submit_output(packet(round)).expect("within limits");
    }
    c.run_epoch(|vm, ms| {
        for page in 0..4usize {
            vm.dirty_arena_page(pid, (round as usize + page) % 16, page, round as u8)?;
        }
        vm.advance_time(ms * 1_000_000);
        Ok(())
    })
}

/// A ten-epoch run whose journal exercises every record type on the
/// deferred path: clean commits, a three-epoch degraded window with
/// impounded outputs, a failover, and the flush that releases the
/// backlog. Returns the instance plus per-epoch crash snapshots.
type Snapshot = (Vm, BackupVm, Vec<u8>, Fingerprint);

fn eventful_run() -> (Crimes, Vec<Snapshot>) {
    eventful_run_on(2, Arc::new(RealClock::new()))
}

fn eventful_run_on(
    pause_workers: usize,
    clock: Arc<dyn crimes_telemetry::Clock>,
) -> (Crimes, Vec<Snapshot>) {
    let config = deferred_config_with(pause_workers);
    let mut c = Crimes::protect_with_clock(guest(42), config, clock).expect("protect");
    let pid = c.vm_mut().spawn_process("app", 0, 16).expect("spawn");
    let mut snapshots = Vec::new();
    for epoch in 0..10u64 {
        let outage = (3..6).contains(&epoch);
        let scope = outage.then(|| {
            install(
                FaultPlan::disabled().with_rate(FaultPoint::BackupOutage, SCALE),
                7,
            )
        });
        let outcome = drive_epoch(&mut c, pid, epoch, true).expect("no hard failures");
        drop(scope);
        if outage {
            assert!(
                matches!(outcome, EpochOutcome::Degraded { .. }),
                "epoch {epoch}: outage within budget must degrade"
            );
            // The third failed epoch crosses the failover threshold;
            // reroute to the standby exactly as the fleet supervisor would.
            if c.checkpointer().drain_session_failures() >= c.config().failover_threshold {
                c.failover_backup();
            }
        } else {
            assert!(
                outcome.is_committed(),
                "epoch {epoch}: fault-free epochs commit"
            );
        }
        snapshots.push((
            c.vm().clone(),
            c.checkpointer().backup().clone(),
            c.journal().bytes().to_vec(),
            fingerprint(&c),
        ));
    }
    assert_eq!(c.telemetry().counter(Counter::DegradedEpochs), 3);
    assert!(c.telemetry().counter(Counter::BackupFailovers) >= 1);
    assert_eq!(c.pending_drain_count(), 0, "epoch 6 flushed the backlog");
    (c, snapshots)
}

fn recover_from(snapshot: &Snapshot) -> Crimes {
    Crimes::recover(
        snapshot.0.clone(),
        snapshot.1.clone(),
        deferred_config(),
        Arc::new(RealClock::new()),
        &snapshot.2,
    )
    .expect("recover")
}

/// Walk a decoded record stream and assert no release ever ran ahead of
/// the backup's acknowledgement — the journal-level statement of "zero
/// unacked bytes released". `DiscardAll` is a rollback: impounds are
/// destroyed, not released, so it needs no ack.
fn assert_no_unacked_release(records: &[Record]) {
    let mut acked_max = 0u64;
    for (i, record) in records.iter().enumerate() {
        match record {
            Record::TicketAcked { generation, .. } => acked_max = acked_max.max(*generation),
            Record::ReleaseAcked { generation } => assert!(
                *generation <= acked_max,
                "record {i}: released generation {generation} before ack (acked max {acked_max})"
            ),
            Record::ReleaseHeld => {
                panic!("record {i}: a deferred pipeline must never release without an ack")
            }
            _ => {}
        }
    }
}

#[test]
fn replay_is_deterministic_at_every_record_boundary() {
    let (c, _) = eventful_run();
    let bytes = c.journal().bytes().to_vec();
    let bounds = c.journal().record_bounds().to_vec();
    assert!(
        bounds.len() > 40,
        "the run must journal a meaningful record stream, got {}",
        bounds.len()
    );
    assert_no_unacked_release(&EvidenceJournal::records(&bytes));

    let mut prev_bound = 0usize;
    for &bound in &bounds {
        // Kill exactly at the record boundary: replay is deterministic
        // and clean (no torn tail).
        let at_bound = EvidenceJournal::replay(&bytes[..bound]);
        assert_eq!(at_bound, EvidenceJournal::replay(&bytes[..bound]));
        assert_eq!(at_bound.truncated_at, None);
        // Kill at every byte inside the record: the torn tail is
        // discarded and recovery lands on the previous boundary's state.
        let before = EvidenceJournal::replay(&bytes[..prev_bound]);
        for cut in prev_bound + 1..bound {
            let mut torn = EvidenceJournal::replay(&bytes[..cut]);
            assert_eq!(
                torn.truncated_at,
                Some(prev_bound),
                "cut {cut}: a torn record must truncate at the last boundary"
            );
            torn.truncated_at = None;
            assert_eq!(
                torn, before,
                "cut {cut}: a torn tail must not change recovered state"
            );
        }
        // The verified prefix is re-adopted verbatim.
        let (journal, _) = EvidenceJournal::recover_from(&bytes[..bound]);
        assert_eq!(journal.bytes(), &bytes[..bound]);
        prev_bound = bound;
    }
    // The full image replays the complete run.
    let full = EvidenceJournal::replay(&bytes);
    assert_eq!(full.records_replayed as usize, bounds.len());
    assert_eq!(full.committed_epochs, 7);
    assert_eq!(full.degraded_epochs, 3);
    assert_eq!(full.failovers, 1);
}

#[test]
fn recovery_at_every_epoch_kill_point_matches_the_live_run() {
    let (_, snapshots) = eventful_run();
    for (epoch, snapshot) in snapshots.iter().enumerate() {
        let recovered = recover_from(snapshot);
        assert_eq!(
            fingerprint(&recovered),
            snapshot.3,
            "kill after epoch {epoch}: recovery must reproduce the live fingerprint"
        );
        assert_eq!(
            recovered.journal().bytes(),
            &snapshot.2[..],
            "kill after epoch {epoch}: the verified journal is adopted verbatim"
        );
        assert_eq!(recovered.pending_drain_count(), 0);
    }

    // Torn tail at the monitor level: a crash mid-append of the final
    // record recovers exactly like a crash just before the append.
    let last = snapshots.last().expect("ten snapshots");
    let bounds = EvidenceJournal::recover_from(&last.2).0.record_bounds().to_vec();
    let prev = bounds[bounds.len() - 2];
    for cut in [prev + 1, prev + (last.2.len() - prev) / 2, last.2.len() - 1] {
        let torn = Crimes::recover(
            last.0.clone(),
            last.1.clone(),
            deferred_config(),
            Arc::new(RealClock::new()),
            &last.2[..cut],
        )
        .expect("recover from torn tail");
        let clean = Crimes::recover(
            last.0.clone(),
            last.1.clone(),
            deferred_config(),
            Arc::new(RealClock::new()),
            &last.2[..prev],
        )
        .expect("recover from boundary");
        assert_eq!(
            fingerprint(&torn),
            fingerprint(&clean),
            "cut {cut}: a torn final record equals a kill at the previous boundary"
        );
    }

    // The recovered monitor is live, not a museum piece: it keeps
    // committing and draining from where the journal stopped.
    let mut resumed = recover_from(last);
    let pid = resumed.vm_mut().spawn_process("post", 1, 16).expect("spawn");
    for round in 20..22u64 {
        let outcome = drive_epoch(&mut resumed, pid, round, true).expect("clean epoch");
        let EpochOutcome::Committed { released, .. } = outcome else {
            panic!("round {round}: the recovered monitor must commit");
        };
        assert_eq!(released.len(), 1);
    }
    assert_eq!(resumed.committed_epochs(), last.3.committed_epochs + 2);
    assert!(resumed.checkpointer().verify_backup().is_ok());
    assert_no_unacked_release(&EvidenceJournal::records(resumed.journal().bytes()));
}

/// The drain's head start (a two-worker pool's resident worker runs the
/// drain's read-only half while the guest resumes) and its lent cipher
/// shares are not a second way to drain: the eventful run — outage,
/// backlog of staged slots, failover, flush — on a one-worker pool, which
/// has no such worker, leaves
/// the same journal, the same backup and the same fingerprint at every
/// kill point as on the two-worker pool every other test here uses.
#[test]
fn the_drain_head_start_leaves_no_trace_in_journal_or_backup() {
    let run = |pause_workers| eventful_run_on(pause_workers, Arc::new(TestClock::new()));
    let ((one, one_snapshots), (two, two_snapshots)) = (run(1), run(2));
    for (epoch, (a, b)) in one_snapshots.iter().zip(&two_snapshots).enumerate() {
        assert!(a.2 == b.2, "epoch {epoch}: journal bytes");
        assert!(a.3 == b.3, "epoch {epoch}: fingerprint (backup image, impounds, events)");
    }
    assert_eq!(one.journal().bytes(), two.journal().bytes());
    assert_eq!(
        one.telemetry().counter(Counter::DrainAcks),
        two.telemetry().counter(Counter::DrainAcks)
    );
    assert_eq!(one.telemetry().counter(Counter::DrainHeadStartPages), 0);
    assert_eq!(one.telemetry().counter(Counter::DrainCipherLentBytes), 0);
}

/// The content-aware copy path journals one knob-independent
/// `DrainProfile` record per acked drain: the journal bytes are
/// identical with encoding on or off (the profile states content facts,
/// not wire decisions), replay accumulates the profile aggregates, the
/// wire savings stay telemetry-only, and [`Crimes::recover`] replays a
/// profile-bearing journal bit-for-bit.
#[test]
fn drain_profiles_replay_identically_with_encoding_on_or_off() {
    let run = |encoded: bool| {
        let mut b = CrimesConfig::builder();
        b.epoch_interval_ms(20)
            .pause_workers(2)
            .staging_buffers(4)
            .max_staged_backlog(3)
            .failover_threshold(9);
        if encoded {
            b.delta_threshold(64).dedup(true);
        }
        let mut c = Crimes::protect_with_clock(
            guest(42),
            b.build().expect("valid config"),
            Arc::new(TestClock::new()),
        )
        .expect("protect");
        let pid = c.vm_mut().spawn_process("app", 0, 16).expect("spawn");
        for epoch in 0..6u64 {
            assert!(
                drive_epoch(&mut c, pid, epoch, false)
                    .expect("clean epoch")
                    .is_committed(),
                "fault-free epochs commit"
            );
        }
        c
    };
    let raw = run(false);
    let enc = run(true);
    assert_eq!(
        raw.journal().bytes(),
        enc.journal().bytes(),
        "journal bytes must not depend on the encoding knobs"
    );

    let records = EvidenceJournal::records(raw.journal().bytes());
    let profiles = records
        .iter()
        .filter(|r| matches!(r, Record::DrainProfile { .. }))
        .count();
    let acks = records
        .iter()
        .filter(|r| matches!(r, Record::TicketAcked { .. }))
        .count();
    assert!(acks >= 6, "every epoch drains");
    assert_eq!(profiles, acks, "one content profile per acked drain");

    let replay = EvidenceJournal::replay(raw.journal().bytes());
    assert_eq!(replay.truncated_at, None);
    assert!(
        replay.drain_changed_words > 0,
        "dirtied pages must surface changed words in the replayed profiles"
    );

    // The wire savings are observability, never evidence: the encoded
    // run saved bytes, the raw run saved none, and neither shows in the
    // (identical) journals above.
    assert!(enc.telemetry().counter(Counter::BytesSavedDelta) > 0);
    assert_eq!(raw.telemetry().counter(Counter::BytesSavedDelta), 0);
    assert!(
        enc.telemetry().counter(Counter::DedupHits)
            + enc.telemetry().counter(Counter::DedupMisses)
            > 0,
        "dedup probes ran on the encoded drain"
    );

    // A monitor crash after the run recovers through the profile-bearing
    // journal: the records replay (not truncate) and the fingerprint and
    // journal bytes are adopted bit-for-bit.
    let mut enc_cfg = CrimesConfig::builder();
    enc_cfg
        .epoch_interval_ms(20)
        .pause_workers(2)
        .staging_buffers(4)
        .max_staged_backlog(3)
        .failover_threshold(9);
    enc_cfg.delta_threshold(64).dedup(true);
    let recovered = Crimes::recover(
        enc.vm().clone(),
        enc.checkpointer().backup().clone(),
        enc_cfg.build().expect("valid config"),
        Arc::new(RealClock::new()),
        enc.journal().bytes(),
    )
    .expect("recover through DrainProfile records");
    assert_eq!(fingerprint(&recovered), fingerprint(&enc));
    assert_eq!(recovered.journal().bytes(), enc.journal().bytes());
}

#[test]
fn recovery_mid_outage_impounds_until_restaged_generations_ack() {
    let (_, snapshots) = eventful_run();
    // Snapshot 4 sits inside the outage window: generations 1-3 acked,
    // the epoch-3 output gated on dead generation 4, the epoch-4 output
    // on dead generation 5.
    let mid = &snapshots[4];
    assert_eq!(mid.3.acked_generation, 3);
    assert_eq!(mid.3.ack_pending.len(), 2);

    let mut c = recover_from(mid);
    let pid = c.vm_mut().spawn_process("post", 1, 16).expect("spawn");

    // First clean epoch re-stages generation 4; its ack releases the
    // crashed run's generation-4 output together with this epoch's own.
    let EpochOutcome::Committed { released, .. } =
        drive_epoch(&mut c, pid, 30, true).expect("clean epoch")
    else {
        panic!("the recovered monitor must commit");
    };
    assert_eq!(
        released.len(),
        2,
        "generation 4 acks: one inherited impound plus this epoch's output"
    );
    assert!(released.contains(&packet(3)), "epoch 3's impounded packet");
    assert_eq!(
        c.output_buffer().ack_pending_entries().count(),
        1,
        "the generation-5 impound stays until generation 5 acks"
    );

    // The second epoch acks generation 5 and clears the last impound.
    let EpochOutcome::Committed { released, .. } =
        drive_epoch(&mut c, pid, 31, true).expect("clean epoch")
    else {
        panic!("the recovered monitor must commit");
    };
    assert_eq!(released.len(), 2);
    assert!(released.contains(&packet(4)), "epoch 4's impounded packet");
    assert_eq!(c.output_buffer().ack_pending_entries().count(), 0);
    assert_no_unacked_release(&EvidenceJournal::records(c.journal().bytes()));
}

#[test]
fn outage_soak_resyncs_fails_over_and_never_releases_unacked_outputs() {
    let mut fleet = Fleet::new();
    for (i, name) in ["alpha", "bravo"].iter().enumerate() {
        fleet
            .add_vm(name, guest(50 + i as u64), deferred_config())
            .expect("add");
    }
    let mut pids = std::collections::HashMap::new();
    for name in ["alpha", "bravo"] {
        let pid = fleet
            .get_mut(name)
            .expect("present")
            .vm_mut()
            .spawn_process("svc", 0, 16)
            .expect("spawn");
        pids.insert(name, pid);
    }

    // A lossy drain link for the whole soak (streams break mid-copy and
    // must resync), plus a hard three-round backup outage window that
    // pushes both tenants through degraded mode into failover.
    let lossy = FaultPlan::disabled().with_rate(FaultPoint::BackupDrain, 200);
    let outage = lossy.with_rate(FaultPoint::BackupOutage, SCALE);
    let mut degraded_rounds = 0u64;
    for round in 0..16u64 {
        let in_window = (6..9).contains(&round);
        let scope = install(if in_window { outage } else { lossy }, 90 + round);
        for name in ["alpha", "bravo"] {
            let c = fleet.get_mut(name).expect("present");
            if !c.is_quarantined() {
                c.submit_output(packet(round)).expect("within limits");
            }
        }
        let summary = fleet
            .run_epoch_round(|name, vm, ms| {
                let pid = pids[name];
                for page in 0..6usize {
                    vm.dirty_arena_page(pid, (round as usize + page) % 16, page, round as u8)?;
                }
                vm.advance_time(ms * 1_000_000);
                Ok(())
            })
            .expect("round");
        drop(scope);
        degraded_rounds += summary.degraded.len() as u64;
        assert!(
            summary.quarantined.is_empty(),
            "round {round}: the outage window fits the backlog budget"
        );
    }
    // Two fault-free rounds guarantee any lossy-link stragglers flush.
    for _ in 0..2 {
        fleet
            .run_epoch_round(|_, vm, ms| {
                vm.advance_time(ms * 1_000_000);
                Ok(())
            })
            .expect("flush round");
    }

    let mut resyncs = 0u64;
    let mut failovers = 0u64;
    let mut released = 0u64;
    for name in ["alpha", "bravo"] {
        let c = fleet.get(name).expect("present");
        resyncs += c.telemetry().counter(Counter::DrainResyncs);
        failovers += c.telemetry().counter(Counter::BackupFailovers);
        released += c.buffer_stats().released as u64;
        assert!(!c.is_quarantined(), "{name}: soak must not quarantine");
        assert_eq!(c.pending_drain_count(), 0, "{name}: backlog flushed");
        assert!(c.checkpointer().verify_backup().is_ok(), "{name}: backup intact");
        // The durable record proves every release waited for its ack.
        let records = EvidenceJournal::records(c.journal().bytes());
        assert_no_unacked_release(&records);
        let replay = EvidenceJournal::replay(c.journal().bytes());
        assert_eq!(replay.truncated_at, None);
        assert!(replay.held.is_empty(), "{name}: nothing held at rest");
        assert!(replay.ack_pending.is_empty(), "{name}: nothing unacked at rest");
        assert_eq!(replay.committed_epochs, c.committed_epochs());
    }
    assert!(degraded_rounds >= 2, "the outage window degrades both tenants");
    assert!(resyncs >= 1, "a broken drain stream must resync, not restart");
    assert!(failovers >= 1, "the failure streak must reroute to a standby");
    assert_eq!(released, 32, "every impounded output eventually released");
}
