//! Framework-level errors.
//!
//! The framework is fail-closed: every error path either retries, extends
//! speculation (outputs stay buffered), rolls back to verified state, or
//! quarantines the VM — a [`CrimesError`] never means "an unaudited output
//! escaped".

use crimes_checkpoint::CheckpointError;
use crimes_outbuf::BufferError;
use crimes_vm::VmError;
use crimes_vmi::VmiError;

/// Errors surfaced by the CRIMES framework.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum CrimesError {
    /// A guest operation failed.
    Vm(VmError),
    /// Introspection failed.
    Vmi(VmiError),
    /// The checkpoint engine failed.
    Checkpoint(CheckpointError),
    /// The framework was asked to act in an invalid state (e.g. resume a
    /// VM that has no pending incident).
    InvalidState(&'static str),
    /// A configuration was rejected at construction.
    InvalidConfig(String),
    /// An operation overran its deadline.
    Timeout {
        /// What overran (e.g. `"epoch audit"`).
        what: &'static str,
        /// The deadline that was missed, in milliseconds.
        deadline_ms: u64,
    },
    /// A checkpoint image failed checksum verification.
    CheckpointCorrupt {
        /// Epoch of the corrupt image.
        epoch: u64,
        /// Pages/sectors whose digest mismatched.
        bad_chunks: usize,
    },
    /// Bounded retries were exhausted without success.
    Exhausted {
        /// What kept failing (e.g. `"checkpoint copy"`, `"vmi refresh"`).
        what: &'static str,
        /// Attempts made before giving up.
        retries: u32,
    },
    /// The VM is quarantined: suspended with outputs impounded, after
    /// repeated audit or rollback failures made continued speculation
    /// unsafe. Terminal until an operator intervenes.
    Quarantined {
        /// Why the VM was quarantined.
        reason: &'static str,
        /// Epoch at which quarantine began.
        epoch: u64,
    },
    /// Deterministic replay diverged from the recorded trace.
    ReplayDiverged {
        /// Index of the trace operation that diverged.
        op_index: usize,
    },
    /// The output buffer refused a submission (backpressure — the output
    /// never entered the system).
    BufferOverflow {
        /// Outputs held when the submission was refused.
        held: usize,
        /// Bytes held when the submission was refused.
        held_bytes: usize,
    },
}

impl std::fmt::Display for CrimesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrimesError::Vm(e) => write!(f, "vm: {e}"),
            CrimesError::Vmi(e) => write!(f, "vmi: {e}"),
            CrimesError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            CrimesError::InvalidState(s) => write!(f, "invalid state: {s}"),
            CrimesError::InvalidConfig(s) => write!(f, "invalid config: {s}"),
            CrimesError::Timeout { what, deadline_ms } => {
                write!(f, "{what} overran its {deadline_ms} ms deadline")
            }
            CrimesError::CheckpointCorrupt { epoch, bad_chunks } => {
                write!(
                    f,
                    "checkpoint for epoch {epoch} is corrupt ({bad_chunks} bad chunk(s))"
                )
            }
            CrimesError::Exhausted { what, retries } => {
                write!(f, "{what} still failing after {retries} retries")
            }
            CrimesError::Quarantined { reason, epoch } => {
                write!(f, "VM quarantined at epoch {epoch}: {reason}")
            }
            CrimesError::ReplayDiverged { op_index } => {
                write!(f, "replay diverged at trace op {op_index}")
            }
            CrimesError::BufferOverflow { held, held_bytes } => {
                write!(
                    f,
                    "output buffer overflow ({held} outputs / {held_bytes} bytes held)"
                )
            }
        }
    }
}

impl std::error::Error for CrimesError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CrimesError::Vm(e) => Some(e),
            CrimesError::Vmi(e) => Some(e),
            CrimesError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VmError> for CrimesError {
    fn from(e: VmError) -> Self {
        CrimesError::Vm(e)
    }
}

impl From<VmiError> for CrimesError {
    fn from(e: VmiError) -> Self {
        CrimesError::Vmi(e)
    }
}

impl From<CheckpointError> for CrimesError {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Corrupt { epoch, bad_chunks } => {
                CrimesError::CheckpointCorrupt { epoch, bad_chunks }
            }
            CheckpointError::Exhausted { attempts } => CrimesError::Exhausted {
                what: "checkpoint copy",
                retries: attempts,
            },
            CheckpointError::DrainTimeout { budget_ms, .. } => CrimesError::Timeout {
                what: "backup drain",
                deadline_ms: budget_ms,
            },
            other => CrimesError::Checkpoint(other),
        }
    }
}

impl From<BufferError> for CrimesError {
    fn from(e: BufferError) -> Self {
        match e {
            BufferError::Overflow { held, held_bytes } => {
                CrimesError::BufferOverflow { held, held_bytes }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_and_chain() {
        let e = CrimesError::Vmi(VmiError::NoSuchTask(3));
        assert!(!e.to_string().is_empty());
        assert!(std::error::Error::source(&e).is_some());
        let e = CrimesError::InvalidState("nope");
        assert!(std::error::Error::source(&e).is_none());
        for e in [
            CrimesError::InvalidConfig("bad".into()),
            CrimesError::Timeout {
                what: "epoch audit",
                deadline_ms: 20,
            },
            CrimesError::CheckpointCorrupt {
                epoch: 4,
                bad_chunks: 2,
            },
            CrimesError::Exhausted {
                what: "vmi refresh",
                retries: 3,
            },
            CrimesError::Quarantined {
                reason: "no verified checkpoint",
                epoch: 9,
            },
            CrimesError::ReplayDiverged { op_index: 17 },
            CrimesError::BufferOverflow {
                held: 5,
                held_bytes: 80,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn checkpoint_errors_convert_to_specific_variants() {
        let e: CrimesError = CheckpointError::Exhausted { attempts: 4 }.into();
        assert_eq!(
            e,
            CrimesError::Exhausted {
                what: "checkpoint copy",
                retries: 4
            }
        );
        let e: CrimesError = CheckpointError::Corrupt {
            epoch: 2,
            bad_chunks: 1,
        }
        .into();
        assert_eq!(
            e,
            CrimesError::CheckpointCorrupt {
                epoch: 2,
                bad_chunks: 1
            }
        );
        let e: CrimesError = BufferError::Overflow {
            held: 1,
            held_bytes: 2,
        }
        .into();
        assert!(matches!(e, CrimesError::BufferOverflow { .. }));
        let e: CrimesError = CheckpointError::DrainTimeout {
            attempts: 2,
            waited_us: 1_500,
            budget_ms: 1,
        }
        .into();
        assert_eq!(
            e,
            CrimesError::Timeout {
                what: "backup drain",
                deadline_ms: 1
            }
        );
        // Drain faults and staging backlogs keep their checkpoint detail.
        let e: CrimesError = CheckpointError::DrainFault { pages_drained: 3 }.into();
        assert!(matches!(e, CrimesError::Checkpoint(_)));
    }
}
