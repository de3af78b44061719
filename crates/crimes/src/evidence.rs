//! The evidence state of one protected VM, owned in one place: the
//! durable journal, the output buffer, the drain tickets awaiting a backup
//! ack, the quarantine latch, and the boundary events not yet journalled.
//!
//! The paper's one safety property — no output leaves the host unless its
//! epoch's audit passed *and* its evidence is durable — rests on two
//! orderings, and this module holds both by construction instead of by
//! convention:
//!
//! * **Journal first.** Every field of [`Evidence`] is private and its
//!   only `&mut` methods are the transitions themselves. Each is a short
//!   straight-line body that appends its [`Record`]s and then applies the
//!   effect, so an effect without its record, an effect before its record,
//!   or a helper nobody journals for cannot be written outside this file.
//!   [`EvidenceJournal::replay`] folds the same records into the same
//!   state, which is what makes [`Evidence::recovered`] equal to the live
//!   value it replaces (the property test below checks exactly that).
//! * **Release on receipt.** The two releasing transitions take the
//!   engine's receipt for what they release: [`Evidence::release_held`]
//!   the [`EpochReport`] of an in-window commit, [`Evidence::ack`] the
//!   [`DrainStats`] only a successful `Checkpointer::drain_staged`
//!   returns. Both structs are `#[non_exhaustive]` in `crimes-checkpoint`,
//!   so this crate cannot mint one. A receipt is `Clone`: a stale one is
//!   not caught by type. That is the residual assumption, and the driver
//!   in `framework.rs` never keeps one past the call it was made for.
//!
//! Boundary events go through [`Evidence::record`] into a buffer reserved
//! for one boundary and reach the journal, their only store, at
//! [`Evidence::flush_events`]; [`RecentEvents`] reads them back.
//!
//! Two transitions look like exceptions and are not:
//!
//! * [`Evidence::hold`] journals *after* the buffer accepts. A refused
//!   submission must leave no phantom impound for recovery to resurrect,
//!   and a crash between the accept and the append loses at most an
//!   output that was never released — the conservative direction.
//! * [`Evidence::recovered`] restores the quarantine latch from the
//!   replayed journal without appending a second `Quarantined`: the latch
//!   is read back, not newly decided, and a second record would
//!   double-count the epoch.
//!
//! The module is fail-closed: it runs between
//! "outputs buffered" and "audit decided", so it must never panic.

// Fail-closed: typed errors, never a panic (DESIGN.md "Static guarantees").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::todo, clippy::unimplemented)]

use std::collections::VecDeque;

use crimes_checkpoint::{AuditVerdict, Checkpointer, DrainStats, DrainTicket, EpochReport};
use crimes_journal::{EvidenceJournal, Record, RecoveredState};
use crimes_outbuf::{BufferError, Output, OutputBuffer};
use crimes_telemetry::{Event, EventKind};

use crate::config::CrimesConfig;
use crate::error::CrimesError;

/// Events the flight recorder shows: the newest this many, about eight
/// epochs of boundaries.
pub const FLIGHT_RECORDER_EVENTS: usize = 128;

/// Events a boundary records besides its VMI retries, with room to spare.
/// The pause window records only the stage, the retries and a missing
/// start; a boundary with more (a drain backlog) grows the buffer later.
const BOUNDARY_EVENTS: usize = 16;

/// Lossless-or-saturating widening for journal payloads.
fn wide(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// See the [module docs](self).
#[derive(Debug)]
pub(crate) struct Evidence {
    /// Durable write-ahead journal: [`Crimes::recover`](crate::Crimes::recover)
    /// rebuilds everything below from its bytes.
    journal: EvidenceJournal,
    buffer: OutputBuffer,
    /// Drain tickets whose sessions have not acked yet, oldest first.
    /// Longer than one only in degraded mode (backup unreachable within
    /// the drain budget, backlog within
    /// [`CrimesConfig::max_staged_backlog`]).
    pending: VecDeque<DrainTicket>,
    /// Set once the VM is quarantined: `(reason, epoch)`. Terminal.
    quarantined: Option<(&'static str, u64)>,
    /// The boundary's events not yet journalled, in record order.
    events: Vec<Event>,
}

impl Evidence {
    /// Empty evidence for a freshly protected VM.
    pub(crate) fn new(config: &CrimesConfig) -> Self {
        Evidence {
            journal: EvidenceJournal::new(),
            buffer: OutputBuffer::with_limits(
                config.safety,
                config.max_held_outputs,
                config.max_held_bytes,
            ),
            pending: VecDeque::new(),
            quarantined: None,
            events: Vec::new(),
        }
    }

    /// Reserve the event buffer for one boundary with `vmi_retries`
    /// retries (see `Crimes::assemble` for where).
    pub(crate) fn reserve_events(&mut self, vmi_retries: u32) {
        let retries = vmi_retries.min(crate::config::MAX_VMI_RETRIES);
        self.events
            .reserve_exact(BOUNDARY_EVENTS + usize::try_from(retries).unwrap_or(usize::MAX));
    }

    /// The evidence a crashed monitor's journal proves: `journal` is the
    /// verified prefix and `state` its replay. Impounds are restored in
    /// journal order; tickets staged but never acked are abandoned (their
    /// staging slots died with the monitor), so their outputs stay
    /// ack-pending until the re-staged generation of the same number acks.
    /// A recorded quarantine latches again without a second record (see
    /// the module docs).
    pub(crate) fn recovered(
        journal: EvidenceJournal,
        state: &RecoveredState,
        config: &CrimesConfig,
    ) -> Self {
        let mut evidence = Evidence::new(config);
        evidence.journal = journal;
        for (output, enqueued_ns, generation) in &state.ack_pending {
            evidence
                .buffer
                .restore_ack_pending(output.clone(), *enqueued_ns, *generation);
        }
        for (output, enqueued_ns) in &state.held {
            evidence.buffer.restore_held(output.clone(), *enqueued_ns);
        }
        evidence.quarantined = state
            .quarantined
            .map(|epoch| ("quarantined before the crash", epoch));
        evidence
    }

    /// The durable journal.
    pub(crate) fn journal(&self) -> &EvidenceJournal {
        &self.journal
    }

    /// The impound set.
    pub(crate) fn buffer(&self) -> &OutputBuffer {
        &self.buffer
    }

    /// Drain tickets awaiting a backup ack, oldest first.
    pub(crate) fn pending(&self) -> &VecDeque<DrainTicket> {
        &self.pending
    }

    /// `(reason, epoch)` once quarantined.
    pub(crate) fn quarantined(&self) -> Option<(&'static str, u64)> {
        self.quarantined
    }

    /// Submit a guest output at guest time `now_ns`: `Ok(None)` when it
    /// was impounded, `Ok(Some(_))` when Best-Effort safety lets it
    /// through. Journals after the accept (see the module docs).
    ///
    /// # Errors
    ///
    /// [`BufferError::Overflow`]: the output never entered the system and
    /// nothing was journalled.
    pub(crate) fn hold(
        &mut self,
        output: Output,
        now_ns: u64,
    ) -> Result<Option<Output>, BufferError> {
        let journalled = output.clone();
        let passed = self.buffer.submit(output, now_ns)?;
        if passed.is_none() {
            self.journal.append(&Record::OutputHeld {
                output: journalled,
                submitted_ns: now_ns,
            });
        }
        Ok(passed)
    }

    /// A passing epoch sealed into `ticket` instead of committing in the
    /// window: everything held moves to ack-pending under the ticket's
    /// generation and the ticket joins the drain queue. Returns how many
    /// outputs moved.
    pub(crate) fn stage_ticket(&mut self, ticket: DrainTicket, epoch: u64) -> usize {
        let generation = ticket.generation();
        self.journal.append(&Record::TicketStaged {
            slot: wide(ticket.slot()),
            generation,
            epoch,
        });
        self.journal.append(&Record::MarkAckPending { generation });
        self.pending.push_back(ticket);
        self.buffer.mark_ack_pending(generation)
    }

    /// Release everything held, on the engine's receipt for an in-window
    /// commit.
    ///
    /// # Errors
    ///
    /// [`CrimesError::InvalidState`] unless `report` attests a passing
    /// audit with nothing left to drain; nothing is released or appended.
    pub(crate) fn release_held(
        &mut self,
        report: &EpochReport,
        now_ns: u64,
    ) -> Result<Vec<Output>, CrimesError> {
        if report.verdict != AuditVerdict::Pass || report.pending.is_some() {
            return Err(CrimesError::InvalidState(
                "held outputs release only on an in-window commit",
            ));
        }
        self.journal.append(&Record::ReleaseHeld);
        Ok(self.buffer.release(now_ns))
    }

    /// The backup acknowledged a drain: close every ticket the ack covers,
    /// journal the ack and the drain's content profile (knob-independent
    /// facts, so replay sees the same profile whether or not encoding was
    /// on), and release the outputs those generations gated.
    pub(crate) fn ack(&mut self, ack: &DrainStats, now_ns: u64) -> Vec<Output> {
        let generation = ack.generation;
        self.journal.append(&Record::TicketAcked {
            generation,
            pages: wide(ack.pages),
        });
        self.journal.append(&Record::DrainProfile {
            generation,
            pages: wide(ack.pages),
            zero_pages: wide(ack.zero_pages),
            changed_words: ack.changed_words,
            dup_pages: wide(ack.dup_pages),
        });
        self.journal.append(&Record::ReleaseAcked { generation });
        self.pending.retain(|t| t.generation() > generation);
        self.buffer.release_acked(generation, now_ns)
    }

    /// The speculation died (rollback or failed commit): every impound is
    /// dropped and every open ticket's slot freed. Returns how many
    /// outputs were prevented from escaping.
    pub(crate) fn discard_all(&mut self, checkpointer: &mut Checkpointer) -> usize {
        self.journal.append(&Record::DiscardAll);
        for ticket in self.pending.drain(..) {
            checkpointer.release_staged(ticket);
        }
        self.buffer.discard()
    }

    /// Latch quarantine. Impounds stay where they are: neither released
    /// nor discarded, they are evidence.
    pub(crate) fn quarantine(&mut self, reason: &'static str, epoch: u64) {
        self.journal.append(&Record::Quarantined { epoch });
        self.quarantined = Some((reason, epoch));
    }

    /// An audit failed; an incident is pending investigation.
    pub(crate) fn incident(&mut self, epoch: u64, findings: usize) {
        self.journal.append(&Record::Incident {
            epoch,
            findings: wide(findings),
        });
    }

    /// The drain of `generation` could not complete but the backlog is
    /// within budget: the guest keeps speculating, outputs impounded.
    pub(crate) fn degraded(&mut self, generation: u64, backlog: u64) {
        self.journal.append(&Record::Degraded {
            generation,
            backlog,
        });
    }

    /// The drain is being rerouted to the standby backup.
    pub(crate) fn failover(&mut self, failures: u64) {
        self.journal.append(&Record::Failover { failures });
    }

    /// Epoch `epoch` (0-based ordinal) committed.
    pub(crate) fn committed(&mut self, epoch: u64) {
        self.journal.append(&Record::Committed { epoch });
    }

    /// Record a boundary event, alloc-free within the reserved buffer,
    /// for the next [`flush_events`](Self::flush_events).
    pub(crate) fn record(&mut self, epoch: u64, at_ns: u64, kind: EventKind) {
        self.events.push(Event { epoch, at_ns, kind });
    }

    /// Journal the recorded events, in record order. Called at every
    /// boundary exit, after the transitions the boundary made.
    pub(crate) fn flush_events(&mut self) {
        for event in self.events.drain(..) {
            self.journal.append_event(event);
        }
    }

    /// The flight recorder: the newest boundary events, journalled or not.
    pub(crate) fn recent_events(&self) -> RecentEvents<'_> {
        RecentEvents {
            journal: &self.journal,
            unflushed: &self.events,
        }
    }
}

/// The flight recorder: the newest [`FLIGHT_RECORDER_EVENTS`] boundary
/// events, read back from the journal's tail, then those of a boundary
/// still in progress, not journalled until it finishes.
#[derive(Debug, Clone, Copy)]
pub struct RecentEvents<'a> {
    journal: &'a EvidenceJournal,
    unflushed: &'a [Event],
}

impl<'a> RecentEvents<'a> {
    /// The events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = Event> + 'a {
        let skip = self.unflushed.len().saturating_sub(FLIGHT_RECORDER_EVENTS);
        let unflushed = self.unflushed.get(skip..).unwrap_or_default();
        let journalled = FLIGHT_RECORDER_EVENTS.saturating_sub(unflushed.len());
        self.journal
            .recent_events(journalled)
            .chain(unflushed.iter().copied())
    }

    /// The events of one epoch, oldest first.
    pub fn events_for_epoch(&self, epoch: u64) -> impl Iterator<Item = Event> + 'a {
        self.events().filter(move |e| e.epoch == epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crimes_checkpoint::CheckpointConfig;
    use crimes_outbuf::NetPacket;
    use crimes_rng::prop::{check, Config, Gen};
    use crimes_vm::Vm;

    const SLOTS: usize = 4;

    fn config() -> CrimesConfig {
        let mut b = CrimesConfig::builder();
        b.staging_buffers(SLOTS).max_staged_backlog(3);
        b.build().expect("valid config")
    }

    /// A small guest and an engine for it: one that commits in the window
    /// (`staging_buffers == 0`) or one that leaves drain tickets.
    fn engine(staging_buffers: usize) -> (Vm, Checkpointer) {
        let mut b = Vm::builder();
        b.pages(512).seed(17);
        let vm = b.build();
        let checkpoint = CheckpointConfig {
            staging_buffers,
            ..config().checkpoint
        };
        let checkpointer = Checkpointer::new(&vm, checkpoint);
        (vm, checkpointer)
    }

    /// One boundary whose audit renders `verdict`: the engine's report.
    fn boundary(vm: &mut Vm, engine: &mut Checkpointer, verdict: AuditVerdict) -> EpochReport {
        let report = engine
            .run_epoch(vm, &mut |_, _| verdict)
            .expect("fault-free boundary");
        vm.vcpus_mut().resume_all(); // a failing verdict leaves it paused
        report
    }

    type Held = Vec<(Output, u64)>;
    type AckPending = Vec<(Output, u64, u64)>;

    /// What recovery must rebuild, in comparable form.
    fn impounds(e: &Evidence) -> (Held, AckPending, Option<u64>) {
        (
            e.buffer()
                .held_entries()
                .map(|(o, at)| (o.clone(), at))
                .collect(),
            e.buffer()
                .ack_pending_entries()
                .map(|(o, at, generation)| (o.clone(), at, generation))
                .collect(),
            e.quarantined().map(|(_, epoch)| epoch),
        )
    }

    #[test]
    fn live_state_equals_replayed_state_after_every_transition() {
        check(
            "live_state_equals_replayed_state_after_every_transition",
            Config::with_cases(24),
            |g: &mut Gen| {
                let steps = g.vec(0..40, |g| (g.int(0u8..6), g.any_u16()));
                let config = config();
                let (mut in_window_vm, mut in_window) = engine(0);
                let (mut staged_vm, mut staged) = engine(SLOTS);
                let mut live = Evidence::new(&config);
                let mut last_acked = 0u64;
                for (i, (step, arg)) in steps.into_iter().enumerate() {
                    let now = i as u64 * 10;
                    match step {
                        0 => {
                            let payload = vec![arg as u8; usize::from(arg % 9)];
                            let held = live
                                .hold(Output::Net(NetPacket::new(u64::from(arg), payload)), now)
                                .expect("within limits");
                            assert!(held.is_none(), "synchronous safety impounds");
                        }
                        1 if staged.drains_in_flight() < SLOTS => {
                            let mut report =
                                boundary(&mut staged_vm, &mut staged, AuditVerdict::Pass);
                            let ticket = report.pending.take().expect("staging sink");
                            live.stage_ticket(ticket, report.epoch);
                        }
                        2 => {
                            if let Some(&ticket) = live.pending().front() {
                                let ack = staged
                                    .drain_staged(&staged_vm, ticket)
                                    .expect("reachable backup");
                                last_acked = ack.generation;
                                live.ack(&ack, now);
                            }
                        }
                        3 => {
                            let report =
                                boundary(&mut in_window_vm, &mut in_window, AuditVerdict::Pass);
                            live.release_held(&report, now).expect("in-window commit");
                        }
                        4 => {
                            live.discard_all(&mut staged);
                            assert_eq!(staged.drains_in_flight(), 0, "every slot freed");
                        }
                        5 => live.quarantine("test", u64::from(arg)),
                        _ => {}
                    }

                    let replayed = EvidenceJournal::replay(live.journal().bytes());
                    assert_eq!(replayed.truncated_at, None);
                    assert_eq!(
                        (
                            replayed.held.clone(),
                            replayed.ack_pending.clone(),
                            replayed.quarantined
                        ),
                        impounds(&live)
                    );
                    assert_eq!(
                        replayed
                            .open_tickets
                            .iter()
                            .map(|t| (t.slot, t.generation))
                            .collect::<Vec<_>>(),
                        live.pending()
                            .iter()
                            .map(|t| (wide(t.slot()), t.generation()))
                            .collect::<Vec<_>>()
                    );
                    assert_eq!(replayed.last_acked_generation, last_acked);

                    let (journal, state) = EvidenceJournal::recover_from(live.journal().bytes());
                    let recovered = Evidence::recovered(journal, &state, &config);
                    assert_eq!(impounds(&recovered), impounds(&live));
                    assert_eq!(recovered.journal().bytes(), live.journal().bytes());
                    assert!(recovered.pending().is_empty(), "open tickets are abandoned");
                }
            },
        );
    }

    #[test]
    fn release_held_refuses_anything_but_an_in_window_commit() {
        let (mut vm, mut in_window) = engine(0);
        let (mut staged_vm, mut staged) = engine(SLOTS);
        let mut live = Evidence::new(&config());
        live.hold(Output::Net(NetPacket::new(1, b"held".to_vec())), 5)
            .expect("within limits");
        let records = live.journal().record_count();
        let ticketed = boundary(&mut staged_vm, &mut staged, AuditVerdict::Pass);
        assert!(ticketed.pending.is_some(), "not durable yet");
        for report in [
            boundary(&mut vm, &mut in_window, AuditVerdict::Inconclusive),
            boundary(&mut vm, &mut in_window, AuditVerdict::Fail),
            ticketed,
        ] {
            let refused = live.release_held(&report, 9);
            assert!(matches!(refused, Err(CrimesError::InvalidState(_))));
            assert_eq!(live.buffer().held_count(), 1, "nothing released");
            assert_eq!(live.journal().record_count(), records, "nothing appended");
        }
        let report = boundary(&mut vm, &mut in_window, AuditVerdict::Pass);
        assert_eq!(live.release_held(&report, 9).expect("receipt").len(), 1);
    }
}
