//! Record encoding, the append-only journal, and crash-recovery replay.
//!
//! ## Record layout
//!
//! ```text
//! [len: u32 LE] [body: len bytes] [crc: u64 LE]
//! body = [schema: u16 LE] [tag: u8] [payload]
//! crc  = chunk_digest(record_index, body)
//! ```
//!
//! The CRC is keyed by the record's ordinal, so a journal spliced from
//! two valid journals (or with a record deleted) fails verification at
//! the splice point. Replay stops at the first record it cannot prove
//! intact — a short length prefix, a short body, a CRC mismatch, an
//! unknown schema version, an unknown tag, or a malformed payload — and
//! reports the byte offset it truncated at. Everything before that point
//! is applied; nothing after it is trusted. This is the torn-tail rule:
//! a crash mid-append damages only the final record, and recovery
//! resumes from the last fully-written decision.
//!
//! This module is on the lint's fail-closed list: replay runs while
//! impounded outputs hang in the balance, so it must never panic — every
//! read is bounds-checked and every conversion explicit.

use crimes_checkpoint::chunk_digest;
use crimes_outbuf::{DiskWrite, NetPacket, Output};
use crimes_telemetry::EventKind;

/// Version stamped into every record. Bump when the payload layout of
/// any tag changes; replay refuses records from a different version
/// (fail closed — guessing at a layout could release evidence).
pub const SCHEMA_VERSION: u16 = 1;

const TAG_EVENT: u8 = 1;
const TAG_OUTPUT_HELD: u8 = 2;
const TAG_MARK_ACK_PENDING: u8 = 3;
const TAG_RELEASE_HELD: u8 = 4;
const TAG_RELEASE_ACKED: u8 = 5;
const TAG_DISCARD_ALL: u8 = 6;
const TAG_TICKET_STAGED: u8 = 7;
const TAG_TICKET_ACKED: u8 = 8;
const TAG_INCIDENT: u8 = 9;
const TAG_QUARANTINED: u8 = 10;
const TAG_DEGRADED: u8 = 11;
const TAG_FAILOVER: u8 = 12;
const TAG_COMMITTED: u8 = 13;
const TAG_DRAIN_PROFILE: u8 = 14;

const OUTPUT_NET: u8 = 0;
const OUTPUT_DISK: u8 = 1;

/// One journalled decision. Appended *before* the action it describes
/// takes effect (write-ahead), so recovery never sees an effect whose
/// record is missing — at worst a record whose effect never happened,
/// which replay resolves conservatively (outputs stay impounded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A flight-recorder event, mirrored durably. The ring overwrites;
    /// the journal does not.
    Event {
        /// Epoch the event belongs to.
        epoch: u64,
        /// Monotonic timestamp from the injected clock.
        at_ns: u64,
        /// What happened.
        kind: EventKind,
    },
    /// An output entered the held (impounded) queue.
    OutputHeld {
        /// The output, payload and all — it *is* the evidence.
        output: Output,
        /// Guest time at submission (hold-latency accounting).
        submitted_ns: u64,
    },
    /// Everything held moved to ack-pending under this drain generation.
    MarkAckPending {
        /// The gating drain generation.
        generation: u64,
    },
    /// Everything held was released (a non-deferred commit).
    ReleaseHeld,
    /// Every ack-pending output gated by a generation `<= generation`
    /// was released (the backup acked).
    ReleaseAcked {
        /// Highest acknowledged generation.
        generation: u64,
    },
    /// Held and ack-pending outputs were all discarded and any open
    /// drain tickets abandoned (rollback / failed commit).
    DiscardAll,
    /// A staged epoch sealed into a drain ticket.
    TicketStaged {
        /// Staging slot index.
        slot: u64,
        /// Monotonic drain generation.
        generation: u64,
        /// Epoch the ticket covers.
        epoch: u64,
    },
    /// The backup acknowledged a drain generation.
    TicketAcked {
        /// The acknowledged generation.
        generation: u64,
        /// Pages made durable by the drain.
        pages: u64,
    },
    /// An audit failed; an incident is pending investigation.
    Incident {
        /// Epoch of the failing audit.
        epoch: u64,
        /// Findings in the audit report.
        findings: u64,
    },
    /// The VM was quarantined (terminal).
    Quarantined {
        /// Epoch at quarantine.
        epoch: u64,
    },
    /// The backup was unreachable but the backlog is within budget; the
    /// guest keeps speculating with outputs impounded.
    Degraded {
        /// Generation of the drain that could not complete.
        generation: u64,
        /// Staged epochs now awaiting their drain.
        backlog: u64,
    },
    /// The drain was rerouted to a standby backup.
    Failover {
        /// Consecutive session failures that triggered the reroute.
        failures: u64,
    },
    /// An epoch committed.
    Committed {
        /// The committed epoch's ordinal (0-based).
        epoch: u64,
    },
    /// Content profile of a completed drain: what the staged pages
    /// looked like against the backup's prior generation. Pure facts —
    /// independent of the encoding knobs — so replay reconstructs the
    /// same delta/dedup evidence whether or not encoding was enabled.
    DrainProfile {
        /// The drain generation the profile describes.
        generation: u64,
        /// Pages the drain carried.
        pages: u64,
        /// Pages that were entirely zero.
        zero_pages: u64,
        /// Words that differed from the backup's prior generation.
        changed_words: u64,
        /// Pages whose content already existed in the backup store.
        dup_pages: u64,
    },
}

/// A drain ticket that was staged but not yet acked when the journal
/// ends — work recovery must either resume or abandon (never release).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenTicket {
    /// Staging slot index.
    pub slot: u64,
    /// Drain generation.
    pub generation: u64,
    /// Epoch the ticket covers.
    pub epoch: u64,
}

/// What replay reconstructed. All fields are derived purely from the
/// journal bytes — same bytes, same state, every time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveredState {
    /// Flight-recorder events, in journal order: `(epoch, at_ns, kind)`.
    pub events: Vec<(u64, u64, EventKind)>,
    /// Outputs that were held (impounded, audit not yet passed).
    pub held: Vec<(Output, u64)>,
    /// Outputs awaiting a backup ack: `(output, submitted_ns, generation)`.
    pub ack_pending: Vec<(Output, u64, u64)>,
    /// Highest drain generation the backup acknowledged (0 if none).
    pub last_acked_generation: u64,
    /// Tickets staged but never acked or abandoned.
    pub open_tickets: Vec<OpenTicket>,
    /// Epochs committed before the crash.
    pub committed_epochs: u64,
    /// Set when the journal records a quarantine: the epoch.
    pub quarantined: Option<u64>,
    /// Set when an incident was pending at the crash: `(epoch, findings)`.
    pub pending_incident: Option<(u64, u64)>,
    /// Degraded epochs recorded.
    pub degraded_epochs: u64,
    /// Failovers recorded.
    pub failovers: u64,
    /// All-zero pages across every drain profile recorded.
    pub drain_zero_pages: u64,
    /// Changed words across every drain profile recorded.
    pub drain_changed_words: u64,
    /// Duplicate (content-addressed) pages across every drain profile.
    pub drain_dup_pages: u64,
    /// Records applied before replay stopped.
    pub records_replayed: usize,
    /// Byte offset of the first record replay refused (torn tail, bad
    /// CRC, unknown schema/tag), or `None` for a fully clean journal.
    pub truncated_at: Option<usize>,
}

/// The append-only evidence journal. In this reproduction the backing
/// store is an in-memory byte vector standing in for an fsynced
/// append-only file (and grows like one, see `reserve`); the byte format
/// is what recovery is tested against, byte-for-byte.
#[derive(Debug, Clone, Default)]
pub struct EvidenceJournal {
    bytes: Vec<u8>,
    /// Byte offset *after* each complete record — the crash harness
    /// kills at exactly these boundaries (and between them).
    bounds: Vec<usize>,
}

/// Journal size past which the backing vector leaves `Vec`'s doubling
/// for the reserved extent.
const EXTENT_AT: usize = 1 << 20;

/// Capacity of the reserved extent. Larger than any size an allocator
/// serves from its shared heap, so it gets a mapping of its own:
/// capacity never written is not resident, and growth past it remaps
/// instead of copying.
const EXTENT: usize = 64 << 20;

/// Make room for `additional` more journal bytes. An append-only file
/// grows without rewriting what is already durable; a doubling vector
/// copies the whole log at every step and holds it twice while it does,
/// so the monitor's peak footprint would jump by the journal's size at a
/// moment set only by how many epochs the host got through. Small
/// journals (tests, short-lived fleet tenants) keep `Vec`'s growth; the
/// first growth past [`EXTENT_AT`] is one hop to the [`EXTENT`], copying
/// less than twice that much.
fn reserve(bytes: &mut Vec<u8>, additional: usize) {
    let need = bytes.len().saturating_add(additional);
    if need > bytes.capacity() && (EXTENT_AT..=EXTENT).contains(&need) {
        bytes.reserve_exact(EXTENT.saturating_sub(bytes.len()));
    }
}

fn push_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn read_u8(bytes: &[u8], off: usize) -> Option<u8> {
    bytes.get(off).copied()
}

fn read_u16(bytes: &[u8], off: usize) -> Option<u16> {
    let s = bytes.get(off..off.checked_add(2)?)?;
    <[u8; 2]>::try_from(s).ok().map(u16::from_le_bytes)
}

fn read_u32(bytes: &[u8], off: usize) -> Option<u32> {
    let s = bytes.get(off..off.checked_add(4)?)?;
    <[u8; 4]>::try_from(s).ok().map(u32::from_le_bytes)
}

fn read_u64(bytes: &[u8], off: usize) -> Option<u64> {
    let s = bytes.get(off..off.checked_add(8)?)?;
    <[u8; 8]>::try_from(s).ok().map(u64::from_le_bytes)
}

/// Stable numeric code for each [`EventKind`], with its argument (0 for
/// argless kinds). Codes are part of the journal schema: appending new
/// kinds is compatible, renumbering is not.
fn event_code(kind: EventKind) -> (u16, u64) {
    match kind {
        EventKind::EpochStart => (0, 0),
        EventKind::AuditStaged => (1, 0),
        EventKind::VmiRetry { attempt } => (2, u64::from(attempt)),
        EventKind::MissingAuditStart => (3, 0),
        EventKind::Committed { released } => (4, u64::from(released)),
        EventKind::AttackDetected { findings } => (5, u64::from(findings)),
        EventKind::Extended { consecutive } => (6, u64::from(consecutive)),
        EventKind::CommitFailure => (7, 0),
        EventKind::FallbackRollback => (8, 0),
        EventKind::RollbackResumed { discarded } => (9, u64::from(discarded)),
        EventKind::AckPending { held } => (10, u64::from(held)),
        EventKind::DrainAcked { pages } => (11, u64::from(pages)),
        EventKind::DrainFailed { attempts } => (12, u64::from(attempts)),
        EventKind::Quarantined => (13, 0),
        EventKind::Degraded { backlog } => (14, u64::from(backlog)),
        EventKind::DrainResync { pages } => (15, u64::from(pages)),
        EventKind::BackupFailover => (16, 0),
    }
}

/// Inverse of [`event_code`]. `None` for codes this build does not know
/// (a journal written by a newer monitor) — replay stops there rather
/// than misattribute an event.
fn event_from_code(code: u16, arg: u64) -> Option<EventKind> {
    let narrow = u32::try_from(arg).ok();
    Some(match code {
        0 => EventKind::EpochStart,
        1 => EventKind::AuditStaged,
        2 => EventKind::VmiRetry { attempt: narrow? },
        3 => EventKind::MissingAuditStart,
        4 => EventKind::Committed { released: narrow? },
        5 => EventKind::AttackDetected { findings: narrow? },
        6 => EventKind::Extended { consecutive: narrow? },
        7 => EventKind::CommitFailure,
        8 => EventKind::FallbackRollback,
        9 => EventKind::RollbackResumed { discarded: narrow? },
        10 => EventKind::AckPending { held: narrow? },
        11 => EventKind::DrainAcked { pages: narrow? },
        12 => EventKind::DrainFailed { attempts: narrow? },
        13 => EventKind::Quarantined,
        14 => EventKind::Degraded { backlog: narrow? },
        15 => EventKind::DrainResync { pages: narrow? },
        16 => EventKind::BackupFailover,
        _ => return None,
    })
}

fn encode_output(buf: &mut Vec<u8>, output: &Output) {
    match output {
        Output::Net(p) => {
            buf.push(OUTPUT_NET);
            push_u64(buf, p.conn_id);
            push_u32(buf, u32::try_from(p.payload.len()).unwrap_or(u32::MAX));
            buf.extend_from_slice(&p.payload);
        }
        Output::Disk(w) => {
            buf.push(OUTPUT_DISK);
            push_u64(buf, w.sector);
            push_u32(buf, u32::try_from(w.data.len()).unwrap_or(u32::MAX));
            buf.extend_from_slice(&w.data);
        }
    }
}

/// Decode one output at `off`; returns the output and the offset after
/// it. `None` on any malformed byte — the caller truncates replay.
fn decode_output(bytes: &[u8], off: usize) -> Option<(Output, usize)> {
    let kind = read_u8(bytes, off)?;
    let channel = read_u64(bytes, off.checked_add(1)?)?;
    let len = read_u32(bytes, off.checked_add(9)?)? as usize;
    let data_off = off.checked_add(13)?;
    let data = bytes.get(data_off..data_off.checked_add(len)?)?.to_vec();
    let end = data_off.checked_add(len)?;
    let output = match kind {
        OUTPUT_NET => Output::Net(NetPacket::new(channel, data)),
        OUTPUT_DISK => Output::Disk(DiskWrite::new(channel, data)),
        _ => return None,
    };
    Some((output, end))
}

impl Record {
    /// Encode the record body: `[schema][tag][payload]`.
    fn encode_body(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(32);
        push_u16(&mut body, SCHEMA_VERSION);
        match self {
            Record::Event { epoch, at_ns, kind } => {
                let (code, arg) = event_code(*kind);
                body.push(TAG_EVENT);
                push_u64(&mut body, *epoch);
                push_u64(&mut body, *at_ns);
                push_u16(&mut body, code);
                push_u64(&mut body, arg);
            }
            Record::OutputHeld {
                output,
                submitted_ns,
            } => {
                body.push(TAG_OUTPUT_HELD);
                push_u64(&mut body, *submitted_ns);
                encode_output(&mut body, output);
            }
            Record::MarkAckPending { generation } => {
                body.push(TAG_MARK_ACK_PENDING);
                push_u64(&mut body, *generation);
            }
            Record::ReleaseHeld => body.push(TAG_RELEASE_HELD),
            Record::ReleaseAcked { generation } => {
                body.push(TAG_RELEASE_ACKED);
                push_u64(&mut body, *generation);
            }
            Record::DiscardAll => body.push(TAG_DISCARD_ALL),
            Record::TicketStaged {
                slot,
                generation,
                epoch,
            } => {
                body.push(TAG_TICKET_STAGED);
                push_u64(&mut body, *slot);
                push_u64(&mut body, *generation);
                push_u64(&mut body, *epoch);
            }
            Record::TicketAcked { generation, pages } => {
                body.push(TAG_TICKET_ACKED);
                push_u64(&mut body, *generation);
                push_u64(&mut body, *pages);
            }
            Record::Incident { epoch, findings } => {
                body.push(TAG_INCIDENT);
                push_u64(&mut body, *epoch);
                push_u64(&mut body, *findings);
            }
            Record::Quarantined { epoch } => {
                body.push(TAG_QUARANTINED);
                push_u64(&mut body, *epoch);
            }
            Record::Degraded {
                generation,
                backlog,
            } => {
                body.push(TAG_DEGRADED);
                push_u64(&mut body, *generation);
                push_u64(&mut body, *backlog);
            }
            Record::Failover { failures } => {
                body.push(TAG_FAILOVER);
                push_u64(&mut body, *failures);
            }
            Record::Committed { epoch } => {
                body.push(TAG_COMMITTED);
                push_u64(&mut body, *epoch);
            }
            Record::DrainProfile {
                generation,
                pages,
                zero_pages,
                changed_words,
                dup_pages,
            } => {
                body.push(TAG_DRAIN_PROFILE);
                push_u64(&mut body, *generation);
                push_u64(&mut body, *pages);
                push_u64(&mut body, *zero_pages);
                push_u64(&mut body, *changed_words);
                push_u64(&mut body, *dup_pages);
            }
        }
        body
    }
}

/// Decode one record body (past the schema word) into a [`Record`].
/// `None` on unknown tag or malformed payload.
fn decode_body(body: &[u8]) -> Option<Record> {
    let tag = read_u8(body, 2)?;
    let p = 3usize; // payload start
    Some(match tag {
        TAG_EVENT => {
            let epoch = read_u64(body, p)?;
            let at_ns = read_u64(body, p.checked_add(8)?)?;
            let code = read_u16(body, p.checked_add(16)?)?;
            let arg = read_u64(body, p.checked_add(18)?)?;
            Record::Event {
                epoch,
                at_ns,
                kind: event_from_code(code, arg)?,
            }
        }
        TAG_OUTPUT_HELD => {
            let submitted_ns = read_u64(body, p)?;
            let (output, end) = decode_output(body, p.checked_add(8)?)?;
            if end != body.len() {
                return None; // trailing garbage: not a record we wrote
            }
            Record::OutputHeld {
                output,
                submitted_ns,
            }
        }
        TAG_MARK_ACK_PENDING => Record::MarkAckPending {
            generation: read_u64(body, p)?,
        },
        TAG_RELEASE_HELD => Record::ReleaseHeld,
        TAG_RELEASE_ACKED => Record::ReleaseAcked {
            generation: read_u64(body, p)?,
        },
        TAG_DISCARD_ALL => Record::DiscardAll,
        TAG_TICKET_STAGED => Record::TicketStaged {
            slot: read_u64(body, p)?,
            generation: read_u64(body, p.checked_add(8)?)?,
            epoch: read_u64(body, p.checked_add(16)?)?,
        },
        TAG_TICKET_ACKED => Record::TicketAcked {
            generation: read_u64(body, p)?,
            pages: read_u64(body, p.checked_add(8)?)?,
        },
        TAG_INCIDENT => Record::Incident {
            epoch: read_u64(body, p)?,
            findings: read_u64(body, p.checked_add(8)?)?,
        },
        TAG_QUARANTINED => Record::Quarantined {
            epoch: read_u64(body, p)?,
        },
        TAG_DEGRADED => Record::Degraded {
            generation: read_u64(body, p)?,
            backlog: read_u64(body, p.checked_add(8)?)?,
        },
        TAG_FAILOVER => Record::Failover {
            failures: read_u64(body, p)?,
        },
        TAG_COMMITTED => Record::Committed {
            epoch: read_u64(body, p)?,
        },
        TAG_DRAIN_PROFILE => Record::DrainProfile {
            generation: read_u64(body, p)?,
            pages: read_u64(body, p.checked_add(8)?)?,
            zero_pages: read_u64(body, p.checked_add(16)?)?,
            changed_words: read_u64(body, p.checked_add(24)?)?,
            dup_pages: read_u64(body, p.checked_add(32)?)?,
        },
        _ => return None,
    })
}

impl EvidenceJournal {
    /// A fresh, empty journal.
    pub fn new() -> Self {
        EvidenceJournal::default()
    }

    /// Append one record. Write-ahead discipline is the caller's job:
    /// append *before* performing the action the record describes (the
    /// monitor's one caller is `crimes::evidence`, which does).
    pub fn append(&mut self, record: &Record) {
        let index = self.bounds.len() as u64;
        let body = record.encode_body();
        let Ok(len) = u32::try_from(body.len()) else {
            // A >4 GiB record cannot come from the bounded output
            // buffer; refusing it beats writing a length the parser
            // cannot trust.
            return;
        };
        let crc = chunk_digest(index, &body);
        reserve(&mut self.bytes, body.len().saturating_add(12));
        push_u32(&mut self.bytes, len);
        self.bytes.extend_from_slice(&body);
        push_u64(&mut self.bytes, crc);
        self.bounds.push(self.bytes.len());
    }

    /// Shorthand for the most common record: a flight-recorder event.
    pub fn append_event(&mut self, epoch: u64, at_ns: u64, kind: EventKind) {
        self.append(&Record::Event { epoch, at_ns, kind });
    }

    /// The raw journal bytes (what would be on disk).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Byte offset after each complete record, in append order — the
    /// crash harness's kill points.
    pub fn record_bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// Records appended so far.
    pub fn record_count(&self) -> usize {
        self.bounds.len()
    }

    /// Replay a journal image into the state it proves. Infallible:
    /// replay applies every record it can verify and stops at the first
    /// it cannot (recording the offset in
    /// [`RecoveredState::truncated_at`]) — corrupt or torn evidence is
    /// never guessed at.
    pub fn replay(bytes: &[u8]) -> RecoveredState {
        Self::replay_with(bytes, |_| {})
    }

    /// The one replay loop: verify, decode and apply each record in
    /// turn, handing `on_boundary` the byte offset after every record
    /// applied.
    fn replay_with(bytes: &[u8], mut on_boundary: impl FnMut(usize)) -> RecoveredState {
        let mut state = RecoveredState::default();
        let mut off = 0usize;
        let mut index = 0u64;
        while off < bytes.len() {
            let parsed = Self::parse_record_at(bytes, off, index);
            let Some((record, next_off)) = parsed else {
                state.truncated_at = Some(off);
                return state;
            };
            Self::apply(&mut state, record);
            state.records_replayed = state.records_replayed.saturating_add(1);
            on_boundary(next_off);
            off = next_off;
            index = index.saturating_add(1);
        }
        state
    }

    /// Decode the verified record prefix of a journal image — the same
    /// records [`replay`](Self::replay) would apply, as data. Crash
    /// harnesses use this to check ordering invariants (e.g. no release
    /// precedes its ack) record by record.
    pub fn records(bytes: &[u8]) -> Vec<Record> {
        let mut out = Vec::new();
        let mut off = 0usize;
        let mut index = 0u64;
        while off < bytes.len() {
            let Some((record, next)) = Self::parse_record_at(bytes, off, index) else {
                break;
            };
            out.push(record);
            off = next;
            index = index.saturating_add(1);
        }
        out
    }

    /// Recover a journal from a crash image: replay it, adopt the
    /// verified prefix as the live journal (the torn tail, if any, is
    /// dropped — its record never finished, so its action never
    /// happened), and return both so the monitor can keep appending
    /// where the crashed one stopped.
    pub fn recover_from(bytes: &[u8]) -> (EvidenceJournal, RecoveredState) {
        // The adopted log lives where a live journal of its size would: a
        // long one goes straight into a reserved extent of its own, a
        // short one into an exact allocation. Were a long log copied into
        // the allocator's shared heap, what the copy costs would turn on
        // whether that heap had this many resident pages to recycle — the
        // process's allocation history, not the journal — and recovery
        // time would step by the log's page faults from one run to the
        // next.
        let mut adopted = Vec::new();
        reserve(&mut adopted, bytes.len());
        adopted.reserve_exact(bytes.len());
        let mut bounds = Vec::new();
        // Each record is copied as it verifies, while it is still in
        // cache; a torn tail is never copied at all.
        let state = Self::replay_with(bytes, |next| {
            adopted.extend_from_slice(bytes.get(adopted.len()..next).unwrap_or_default());
            bounds.push(next);
        });
        let journal = EvidenceJournal {
            bytes: adopted,
            bounds,
        };
        (journal, state)
    }

    /// Verify and decode the record at `off` (ordinal `index`); returns
    /// the record and the offset after it, or `None` if anything about
    /// it fails verification.
    fn parse_record_at(bytes: &[u8], off: usize, index: u64) -> Option<(Record, usize)> {
        let len = read_u32(bytes, off)? as usize;
        let body_off = off.checked_add(4)?;
        let body = bytes.get(body_off..body_off.checked_add(len)?)?;
        let crc_off = body_off.checked_add(len)?;
        let crc = read_u64(bytes, crc_off)?;
        if crc != chunk_digest(index, body) {
            return None;
        }
        if read_u16(body, 0)? != SCHEMA_VERSION {
            return None;
        }
        let record = decode_body(body)?;
        Some((record, crc_off.checked_add(8)?))
    }

    /// Fold one verified record into the recovered state.
    fn apply(state: &mut RecoveredState, record: Record) {
        match record {
            Record::Event { epoch, at_ns, kind } => {
                state.events.push((epoch, at_ns, kind));
            }
            Record::OutputHeld {
                output,
                submitted_ns,
            } => state.held.push((output, submitted_ns)),
            Record::MarkAckPending { generation } => {
                for (output, submitted_ns) in state.held.drain(..) {
                    state.ack_pending.push((output, submitted_ns, generation));
                }
            }
            Record::ReleaseHeld => state.held.clear(),
            Record::ReleaseAcked { generation } => {
                state.ack_pending.retain(|&(_, _, gen)| gen > generation);
            }
            Record::DiscardAll => {
                // Rollback / failed commit: the speculation died, its
                // outputs with it, and any open tickets were abandoned.
                state.held.clear();
                state.ack_pending.clear();
                state.open_tickets.clear();
                state.pending_incident = None;
            }
            Record::TicketStaged {
                slot,
                generation,
                epoch,
            } => state.open_tickets.push(OpenTicket {
                slot,
                generation,
                epoch,
            }),
            Record::TicketAcked { generation, .. } => {
                state.last_acked_generation = state.last_acked_generation.max(generation);
                state.open_tickets.retain(|t| t.generation > generation);
            }
            Record::Incident { epoch, findings } => {
                state.pending_incident = Some((epoch, findings));
            }
            Record::Quarantined { epoch } => state.quarantined = Some(epoch),
            Record::Degraded { .. } => {
                state.degraded_epochs = state.degraded_epochs.saturating_add(1);
            }
            Record::Failover { .. } => {
                state.failovers = state.failovers.saturating_add(1);
            }
            Record::Committed { .. } => {
                state.committed_epochs = state.committed_epochs.saturating_add(1);
            }
            Record::DrainProfile {
                zero_pages,
                changed_words,
                dup_pages,
                ..
            } => {
                state.drain_zero_pages = state.drain_zero_pages.saturating_add(zero_pages);
                state.drain_changed_words =
                    state.drain_changed_words.saturating_add(changed_words);
                state.drain_dup_pages = state.drain_dup_pages.saturating_add(dup_pages);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Event {
                epoch: 0,
                at_ns: 10,
                kind: EventKind::EpochStart,
            },
            Record::OutputHeld {
                output: Output::Net(NetPacket::new(7, b"held".to_vec())),
                submitted_ns: 20,
            },
            Record::TicketStaged {
                slot: 0,
                generation: 1,
                epoch: 0,
            },
            Record::MarkAckPending { generation: 1 },
            Record::TicketAcked {
                generation: 1,
                pages: 6,
            },
            Record::DrainProfile {
                generation: 1,
                pages: 6,
                zero_pages: 2,
                changed_words: 17,
                dup_pages: 1,
            },
            Record::ReleaseAcked { generation: 1 },
            Record::Committed { epoch: 0 },
            Record::Event {
                epoch: 1,
                at_ns: 30,
                kind: EventKind::Degraded { backlog: 2 },
            },
            Record::OutputHeld {
                output: Output::Disk(DiskWrite::new(3, vec![0xAA; 16])),
                submitted_ns: 40,
            },
            Record::Degraded {
                generation: 2,
                backlog: 1,
            },
            Record::Failover { failures: 3 },
            Record::Incident {
                epoch: 2,
                findings: 1,
            },
        ]
    }

    fn journal_of(records: &[Record]) -> EvidenceJournal {
        let mut j = EvidenceJournal::new();
        for r in records {
            j.append(r);
        }
        j
    }

    #[test]
    fn clean_replay_reconstructs_the_full_state() {
        let j = journal_of(&sample_records());
        let state = EvidenceJournal::replay(j.bytes());
        assert_eq!(state.truncated_at, None);
        assert_eq!(state.records_replayed, 13);
        assert_eq!(state.drain_zero_pages, 2);
        assert_eq!(state.drain_changed_words, 17);
        assert_eq!(state.drain_dup_pages, 1);
        assert_eq!(state.committed_epochs, 1);
        assert_eq!(state.last_acked_generation, 1);
        assert!(state.open_tickets.is_empty(), "gen 1 acked");
        assert_eq!(state.held.len(), 1, "the disk write is still impounded");
        assert!(state.ack_pending.is_empty(), "gen 1 released");
        assert_eq!(state.degraded_epochs, 1);
        assert_eq!(state.failovers, 1);
        assert_eq!(state.pending_incident, Some((2, 1)));
        assert_eq!(state.quarantined, None);
        assert_eq!(state.events.len(), 2);
        assert_eq!(
            state.events[1],
            (1, 30, EventKind::Degraded { backlog: 2 })
        );
    }

    #[test]
    fn every_event_kind_round_trips() {
        let kinds = [
            EventKind::EpochStart,
            EventKind::AuditStaged,
            EventKind::VmiRetry { attempt: 2 },
            EventKind::MissingAuditStart,
            EventKind::Committed { released: 3 },
            EventKind::AttackDetected { findings: 1 },
            EventKind::Extended { consecutive: 4 },
            EventKind::CommitFailure,
            EventKind::FallbackRollback,
            EventKind::RollbackResumed { discarded: 5 },
            EventKind::AckPending { held: 6 },
            EventKind::DrainAcked { pages: 7 },
            EventKind::DrainFailed { attempts: 8 },
            EventKind::Quarantined,
            EventKind::Degraded { backlog: 9 },
            EventKind::DrainResync { pages: 10 },
            EventKind::BackupFailover,
        ];
        let mut j = EvidenceJournal::new();
        for (i, k) in kinds.iter().enumerate() {
            j.append_event(i as u64, i as u64 * 100, *k);
        }
        let state = EvidenceJournal::replay(j.bytes());
        assert_eq!(state.truncated_at, None);
        let replayed: Vec<EventKind> = state.events.iter().map(|&(_, _, k)| k).collect();
        assert_eq!(replayed, kinds);
        // The codes themselves are pinned: renumbering them would break
        // every existing journal.
        for (i, k) in kinds.iter().enumerate() {
            assert_eq!(event_code(*k).0, i as u16, "{k:?} must keep code {i}");
        }
    }

    #[test]
    fn replay_truncates_at_a_torn_tail() {
        let j = journal_of(&sample_records());
        let full = EvidenceJournal::replay(j.bytes());
        // Cut the journal at every byte length: replay of a prefix equals
        // replay of the longest whole-record prefix inside it.
        for cut in 0..=j.bytes().len() {
            let state = EvidenceJournal::replay(&j.bytes()[..cut]);
            let whole = j.record_bounds().iter().filter(|&&b| b <= cut).count();
            assert_eq!(
                state.records_replayed, whole,
                "cut at byte {cut} must replay exactly the complete records"
            );
            let at_boundary = cut == 0 || j.record_bounds().contains(&cut);
            assert_eq!(
                state.truncated_at.is_none(),
                at_boundary,
                "cut at byte {cut}: truncation flagged iff mid-record"
            );
            // Recovery is the same pass: same state, the verified prefix
            // as its bytes, and exactly that prefix's boundaries.
            let (recovered, recovered_state) = EvidenceJournal::recover_from(&j.bytes()[..cut]);
            assert_eq!(recovered_state, state, "cut at byte {cut}");
            assert_eq!(recovered.record_bounds(), &j.record_bounds()[..whole]);
            assert_eq!(
                recovered.bytes(),
                &j.bytes()[..whole.checked_sub(1).map_or(0, |i| j.record_bounds()[i])]
            );
        }
        assert_eq!(full.records_replayed, j.record_count());
    }

    #[test]
    fn replay_stops_at_a_corrupt_record_and_keeps_the_prefix() {
        let j = journal_of(&sample_records());
        let bounds = j.record_bounds();
        // Flip one byte inside the third record's body.
        let start = bounds[1];
        let mut bytes = j.bytes().to_vec();
        bytes[start + 5] ^= 0xFF;
        let state = EvidenceJournal::replay(&bytes);
        assert_eq!(state.records_replayed, 2, "the intact prefix replays");
        assert_eq!(state.truncated_at, Some(start));
        // Nothing past the corruption leaked into the state.
        assert_eq!(state.committed_epochs, 0);
        assert_eq!(state.held.len(), 1);
    }

    #[test]
    fn spliced_records_fail_the_position_keyed_crc() {
        // Drop the first record and start the journal at the second:
        // every record is individually intact, but its CRC was keyed by
        // its original ordinal, so replay refuses the splice.
        let j = journal_of(&sample_records());
        let spliced = &j.bytes()[j.record_bounds()[0]..];
        let state = EvidenceJournal::replay(spliced);
        assert_eq!(state.records_replayed, 0);
        assert_eq!(state.truncated_at, Some(0));
    }

    #[test]
    fn unknown_schema_version_stops_replay() {
        let mut j = EvidenceJournal::new();
        j.append(&Record::Committed { epoch: 0 });
        let mut bytes = j.bytes().to_vec();
        // Rewrite the schema word and re-seal the CRC so only the
        // version check can object.
        bytes[4] = 0xFF;
        bytes[5] = 0xFF;
        let body_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let crc = chunk_digest(0, &bytes[4..4 + body_len]);
        bytes[4 + body_len..4 + body_len + 8].copy_from_slice(&crc.to_le_bytes());
        let state = EvidenceJournal::replay(&bytes);
        assert_eq!(state.records_replayed, 0);
        assert_eq!(state.truncated_at, Some(0));
    }

    #[test]
    fn discard_clears_impound_state_and_open_tickets() {
        let j = journal_of(&[
            Record::OutputHeld {
                output: Output::Net(NetPacket::new(1, vec![1])),
                submitted_ns: 0,
            },
            Record::MarkAckPending { generation: 4 },
            Record::OutputHeld {
                output: Output::Net(NetPacket::new(2, vec![2])),
                submitted_ns: 1,
            },
            Record::TicketStaged {
                slot: 1,
                generation: 4,
                epoch: 3,
            },
            Record::Incident {
                epoch: 3,
                findings: 2,
            },
            Record::DiscardAll,
        ]);
        let state = EvidenceJournal::replay(j.bytes());
        assert!(state.held.is_empty());
        assert!(state.ack_pending.is_empty());
        assert!(state.open_tickets.is_empty());
        assert_eq!(state.pending_incident, None, "rollback resolved it");
    }

    #[test]
    fn release_acked_is_a_watermark_not_an_exact_match() {
        let j = journal_of(&[
            Record::OutputHeld {
                output: Output::Net(NetPacket::new(1, vec![1])),
                submitted_ns: 0,
            },
            Record::MarkAckPending { generation: 2 },
            Record::OutputHeld {
                output: Output::Net(NetPacket::new(2, vec![2])),
                submitted_ns: 1,
            },
            Record::MarkAckPending { generation: 5 },
            Record::ReleaseAcked { generation: 3 },
        ]);
        let state = EvidenceJournal::replay(j.bytes());
        assert_eq!(state.ack_pending.len(), 1, "gen 5 still gated");
        assert_eq!(state.ack_pending[0].2, 5);
    }

    #[test]
    fn replay_is_deterministic() {
        let j = journal_of(&sample_records());
        let a = EvidenceJournal::replay(j.bytes());
        let b = EvidenceJournal::replay(j.bytes());
        assert_eq!(a, b);
    }

    #[test]
    fn recover_from_adopts_the_verified_prefix_and_keeps_appending() {
        let j = journal_of(&sample_records());
        // Torn tail: half of the final record survived the crash.
        let bounds = j.record_bounds();
        let cut = (bounds[bounds.len() - 2] + bounds[bounds.len() - 1]) / 2;
        let (mut recovered, state) = EvidenceJournal::recover_from(&j.bytes()[..cut]);
        assert_eq!(state.truncated_at, Some(bounds[bounds.len() - 2]));
        assert_eq!(recovered.record_count(), j.record_count() - 1);
        assert_eq!(recovered.bytes(), &j.bytes()[..bounds[bounds.len() - 2]]);
        // Appends continue with the correct record index, so the new
        // journal replays cleanly end to end.
        recovered.append(&Record::Committed { epoch: 9 });
        let replayed = EvidenceJournal::replay(recovered.bytes());
        assert_eq!(replayed.truncated_at, None);
        assert_eq!(replayed.records_replayed, recovered.record_count());
        assert_eq!(replayed.committed_epochs, 2);
    }

    #[test]
    fn a_long_journal_hops_once_to_the_reserved_extent() {
        let mut j = journal_of(&sample_records());
        assert!(j.bytes.capacity() < EXTENT_AT);
        let packet = Record::OutputHeld {
            output: Output::Net(NetPacket::new(7, vec![0xa5; 4096])),
            submitted_ns: 20,
        };
        // The first growth past the threshold is the hop; doubling from
        // below it cannot carry the log past twice the threshold.
        while j.bytes.len() < 2 * EXTENT_AT {
            j.append(&packet);
        }
        assert!(j.bytes.capacity() >= EXTENT);
        // From there the log stays put.
        let home = (j.bytes.as_ptr(), j.bytes.capacity());
        while j.bytes.len() < 3 * EXTENT_AT {
            j.append(&packet);
        }
        assert_eq!((j.bytes.as_ptr(), j.bytes.capacity()), home);
        // A recovered journal of that size is adopted straight into an
        // extent of its own and appends in place.
        let (mut recovered, state) = EvidenceJournal::recover_from(j.bytes());
        assert_eq!(state.truncated_at, None);
        assert!(recovered.bytes.capacity() >= EXTENT);
        let adopted_at = recovered.bytes.as_ptr();
        j.append(&packet);
        recovered.append(&packet);
        assert_eq!(recovered.bytes.as_ptr(), adopted_at);
        assert_eq!(recovered.bytes(), j.bytes());
        assert_eq!(recovered.record_bounds(), j.record_bounds());
    }

    #[test]
    fn empty_journal_replays_to_default_state() {
        assert_eq!(
            EvidenceJournal::replay(&[]),
            RecoveredState::default()
        );
        assert_eq!(EvidenceJournal::new().record_count(), 0);
    }
}
