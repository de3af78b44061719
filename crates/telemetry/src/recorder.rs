//! The flight recorder's vocabulary: structured boundary events.
//!
//! Every boundary decision the framework makes (stage, retry, commit,
//! extension, rollback, quarantine…) is recorded as a fixed-payload
//! [`Event`], small and `Copy`, so recording one into a preallocated
//! buffer never allocates and may happen inside the pause window. The
//! events themselves live in the evidence journal (`crimes-journal`);
//! the framework's flight recorder is a bounded reader over its tail,
//! and [`render_timeline`] turns what it reads into the forensics
//! report's timeline block.

use std::fmt;

/// What happened. Fixed payloads only — recording must not allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An epoch boundary began (audit about to be staged).
    EpochStart,
    /// The audit's page-scoped scans were staged and timing started.
    AuditStaged,
    /// A transient VMI fault forced an audit retry (`attempt` is the
    /// retry ordinal, starting at 1).
    VmiRetry {
        /// Retry ordinal, starting at 1.
        attempt: u32,
    },
    /// The audit reached its verdict without a recorded start time —
    /// the anomaly is counted and the audit treated as overrun.
    MissingAuditStart,
    /// The epoch committed; `released` buffered outputs escaped.
    Committed {
        /// Outputs released at this boundary.
        released: u32,
    },
    /// The audit failed: an attack was detected this epoch.
    AttackDetected {
        /// Findings in the failing audit report.
        findings: u32,
    },
    /// The audit was inconclusive; speculation extended.
    Extended {
        /// Consecutive extensions including this one.
        consecutive: u32,
    },
    /// The checkpoint copy exhausted its retries at this boundary.
    CommitFailure,
    /// Recovery fell back to an older verified checkpoint.
    FallbackRollback,
    /// Incident response rolled back and resumed; `discarded` buffered
    /// outputs were destroyed.
    RollbackResumed {
        /// Outputs discarded with the speculation.
        discarded: u32,
    },
    /// The epoch's audit passed but its staged pages are not yet durable
    /// on the backup; `held` outputs moved to the ack-pending state.
    AckPending {
        /// Outputs awaiting the backup ack.
        held: u32,
    },
    /// The out-of-window drain streamed the staged epoch to the backup
    /// and the backup acknowledged it.
    DrainAcked {
        /// Pages drained to the backup.
        pages: u32,
    },
    /// The out-of-window drain failed or timed out; the epoch's outputs
    /// stay held and recovery begins.
    DrainFailed {
        /// Drain attempts made before giving up.
        attempts: u32,
    },
    /// The tenant was quarantined (terminal).
    Quarantined,
    /// The backup was unreachable at this boundary but the staged
    /// backlog is still within budget: the guest keeps speculating with
    /// the epoch's outputs impounded.
    Degraded {
        /// Staged epochs awaiting their drain, including this one.
        backlog: u32,
    },
    /// A drain session reconnected and resumed a partially-drained slot
    /// from its progress cursor instead of restarting.
    DrainResync {
        /// Pages already durable before the resync (the cursor).
        pages: u32,
    },
    /// The tenant's drain was rerouted to a standby backup after
    /// consecutive session failures crossed the failover threshold.
    BackupFailover,
}

impl EventKind {
    /// Every kind, in the order of their journal codes, payloads zero.
    pub const ALL: [EventKind; 17] = [
        EventKind::EpochStart,
        EventKind::AuditStaged,
        EventKind::VmiRetry { attempt: 0 },
        EventKind::MissingAuditStart,
        EventKind::Committed { released: 0 },
        EventKind::AttackDetected { findings: 0 },
        EventKind::Extended { consecutive: 0 },
        EventKind::CommitFailure,
        EventKind::FallbackRollback,
        EventKind::RollbackResumed { discarded: 0 },
        EventKind::AckPending { held: 0 },
        EventKind::DrainAcked { pages: 0 },
        EventKind::DrainFailed { attempts: 0 },
        EventKind::Quarantined,
        EventKind::Degraded { backlog: 0 },
        EventKind::DrainResync { pages: 0 },
        EventKind::BackupFailover,
    ];

    /// Stable export label (part of the documented schema).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::EpochStart => "epoch_start",
            EventKind::AuditStaged => "audit_staged",
            EventKind::VmiRetry { .. } => "vmi_retry",
            EventKind::MissingAuditStart => "missing_audit_start",
            EventKind::Committed { .. } => "committed",
            EventKind::AttackDetected { .. } => "attack_detected",
            EventKind::Extended { .. } => "extended",
            EventKind::CommitFailure => "commit_failure",
            EventKind::FallbackRollback => "fallback_rollback",
            EventKind::RollbackResumed { .. } => "rollback_resumed",
            EventKind::AckPending { .. } => "ack_pending",
            EventKind::DrainAcked { .. } => "drain_acked",
            EventKind::DrainFailed { .. } => "drain_failed",
            EventKind::Quarantined => "quarantined",
            EventKind::Degraded { .. } => "degraded",
            EventKind::DrainResync { .. } => "drain_resync",
            EventKind::BackupFailover => "backup_failover",
        }
    }

    /// The variant's numeric payload, when it carries one.
    pub fn arg(self) -> Option<u64> {
        match self {
            EventKind::VmiRetry { attempt } => Some(u64::from(attempt)),
            EventKind::Committed { released } => Some(u64::from(released)),
            EventKind::AttackDetected { findings } => Some(u64::from(findings)),
            EventKind::Extended { consecutive } => Some(u64::from(consecutive)),
            EventKind::RollbackResumed { discarded } => Some(u64::from(discarded)),
            EventKind::AckPending { held } => Some(u64::from(held)),
            EventKind::DrainAcked { pages } => Some(u64::from(pages)),
            EventKind::DrainFailed { attempts } => Some(u64::from(attempts)),
            EventKind::Degraded { backlog } => Some(u64::from(backlog)),
            EventKind::DrainResync { pages } => Some(u64::from(pages)),
            _ => None,
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.arg() {
            Some(n) => write!(f, "{}({n})", self.label()),
            None => f.write_str(self.label()),
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The epoch the event belongs to.
    pub epoch: u64,
    /// Caller-supplied monotonic timestamp ([`crate::Clock::now_ns`]).
    pub at_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Render `events` (oldest first) as indented text, one event per line,
/// grouped by epoch — the block the forensics report embeds. Allocates;
/// never call this adjacent to the pause window.
pub fn render_timeline(events: impl IntoIterator<Item = Event>) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut cur: Option<u64> = None;
    for e in events {
        if cur != Some(e.epoch) {
            cur = Some(e.epoch);
            let _ = writeln!(out, "epoch {}:", e.epoch);
        }
        let _ = writeln!(out, "  [{:>12} ns] {}", e.at_ns, e.kind);
    }
    if out.is_empty() {
        out.push_str("(no recorded epochs)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(epoch: u64, at_ns: u64, kind: EventKind) -> Event {
        Event { epoch, at_ns, kind }
    }

    #[test]
    fn every_kind_has_its_own_label() {
        let mut labels: Vec<&str> = EventKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), EventKind::ALL.len());
    }

    #[test]
    fn timeline_groups_by_epoch_and_shows_payloads() {
        let text = render_timeline([
            event(3, 100, EventKind::EpochStart),
            event(3, 200, EventKind::AttackDetected { findings: 2 }),
            event(4, 300, EventKind::Quarantined),
        ]);
        assert!(text.contains("epoch 3:"), "{text}");
        assert!(text.contains("attack_detected(2)"), "{text}");
        assert!(text.contains("epoch 4:"), "{text}");
        assert!(text.contains("quarantined"), "{text}");
    }

    #[test]
    fn empty_timeline_renders_a_placeholder() {
        assert_eq!(render_timeline([]), "(no recorded epochs)\n");
    }
}
