//! Checkpoint-layer failures.
//!
//! The engine's contract is fail-closed: a failure here never silently
//! commits or silently restores — it either retries, falls back to a
//! checksum-verified generation, or surfaces one of these errors so the
//! framework can quarantine the VM.

/// Errors from the checkpoint engine and copy pipelines.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// One page-copy attempt failed before touching the backup (transient;
    /// the engine retries — source frames are unchanged while the VM is
    /// paused).
    CopyFault {
        /// The copy strategy that failed (`"socket"` or `"memcpy"`).
        strategy: &'static str,
    },
    /// A write into the backup image failed mid-copy, leaving a partial
    /// copy behind. Retryable: a full re-copy overwrites the partial
    /// state.
    BackupWriteFault {
        /// Pages written before the fault.
        pages_written: usize,
    },
    /// Copy retries exhausted without a committed checkpoint. The backup
    /// may hold a partial copy; only a checksum-verified generation is
    /// trustworthy now.
    Exhausted {
        /// Attempts made (first try + retries).
        attempts: u32,
    },
    /// The backup image no longer matches its commit-time checksum
    /// (silent corruption detected at rollback).
    Corrupt {
        /// Epoch of the corrupt image.
        epoch: u64,
        /// Pages/sectors whose digest mismatched.
        bad_chunks: usize,
    },
    /// Neither the backup nor any retained history generation passes
    /// checksum verification — there is nothing safe to restore.
    NoVerifiedCheckpoint {
        /// Newest epoch examined.
        newest_epoch: u64,
    },
    /// The fused walk's page list cannot be sharded safely: a duplicate
    /// MFN, a frame beyond the backup image, or a byte offset that
    /// overflows. Refused before any worker touches the backup, so the
    /// image is untouched.
    ShardGeometry {
        /// The offending machine frame number.
        mfn: u64,
        /// Which invariant the page list violated.
        detail: &'static str,
    },
    /// One out-of-window drain attempt of a staged epoch failed
    /// mid-stream, leaving a partial copy in the backup. Retryable: the
    /// staging slot is immutable until released, so a full re-drain
    /// overwrites the partial state.
    DrainFault {
        /// Pages drained to the backup before the fault.
        pages_drained: usize,
    },
    /// The staged epoch's drain exceeded its deadline (measured on the
    /// deterministic retry-backoff model, not wall clock). The backup may
    /// hold a partial copy; only a checksum-verified generation is
    /// trustworthy now, and the epoch's outputs stay impounded.
    DrainTimeout {
        /// Sessions tried before the deadline passed (starting at 1).
        attempts: u32,
        /// Modelled time spent backing off across retries, in
        /// microseconds.
        waited_us: u64,
        /// The configured deadline, in milliseconds.
        budget_ms: u64,
    },
    /// Every staging buffer is still awaiting its drain. The epoch is
    /// refused before anything is staged (fail closed) — nothing escaped
    /// and nothing was copied.
    StagingBacklog {
        /// Staged epochs currently awaiting their backup ack.
        in_flight: usize,
    },
    /// The backup host refused the drain session's connection handshake —
    /// no page moved at all. Retryable with backoff; the slot's progress
    /// cursor is untouched, so a later session resyncs where the last
    /// one stopped.
    BackupUnreachable {
        /// The session attempt that failed to connect (starting at 1).
        attempt: u32,
    },
    /// Every lease slot of a shared pause-window pool is already granted
    /// to another tenant's boundary. The epoch is refused before the
    /// guest is suspended (fail closed) — the scheduler admits the
    /// tenant once a lease comes back.
    PoolSaturated {
        /// Concurrent leases the pool is configured to grant.
        capacity: usize,
    },
    /// A resident worker died holding a job it was lent: a shard of the
    /// walk, or the drain's head start. A shard's writes are undone from
    /// the undo log (a staging slot is freed); the head start only ever
    /// held shared handles. Either way the boundary fails closed — dirty
    /// set re-marked, guest left suspended, nothing committed, not
    /// retried — and the pool lends nothing from then on: it walks on its
    /// caller alone.
    WorkerLost,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::CopyFault { strategy } => {
                write!(f, "{strategy} page-copy attempt failed")
            }
            CheckpointError::BackupWriteFault { pages_written } => {
                write!(f, "backup write failed after {pages_written} page(s)")
            }
            CheckpointError::Exhausted { attempts } => {
                write!(f, "checkpoint copy failed after {attempts} attempt(s)")
            }
            CheckpointError::Corrupt { epoch, bad_chunks } => {
                write!(f, "backup for epoch {epoch} is corrupt ({bad_chunks} bad chunk(s))")
            }
            CheckpointError::NoVerifiedCheckpoint { newest_epoch } => {
                write!(f, "no checksum-verified checkpoint at or before epoch {newest_epoch}")
            }
            CheckpointError::ShardGeometry { mfn, detail } => {
                write!(f, "cannot shard page list at MFN {mfn}: {detail}")
            }
            CheckpointError::DrainFault { pages_drained } => {
                write!(f, "staged-epoch drain failed after {pages_drained} page(s)")
            }
            CheckpointError::DrainTimeout {
                attempts,
                waited_us,
                budget_ms,
            } => {
                write!(
                    f,
                    "staged-epoch drain timed out after {attempts} session(s) \
                     ({waited_us} us waited, {budget_ms} ms budget)"
                )
            }
            CheckpointError::StagingBacklog { in_flight } => {
                write!(f, "no free staging buffer ({in_flight} drain(s) in flight)")
            }
            CheckpointError::BackupUnreachable { attempt } => {
                write!(f, "backup unreachable on drain-session attempt {attempt}")
            }
            CheckpointError::PoolSaturated { capacity } => {
                write!(f, "shared pause pool saturated ({capacity} lease(s) outstanding)")
            }
            CheckpointError::WorkerLost => {
                write!(f, "a resident pause worker died holding a job it was lent")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_nonempty() {
        for e in [
            CheckpointError::CopyFault { strategy: "socket" },
            CheckpointError::BackupWriteFault { pages_written: 3 },
            CheckpointError::Exhausted { attempts: 4 },
            CheckpointError::Corrupt { epoch: 7, bad_chunks: 1 },
            CheckpointError::NoVerifiedCheckpoint { newest_epoch: 9 },
            CheckpointError::ShardGeometry {
                mfn: 12,
                detail: "duplicate MFN in the page list",
            },
            CheckpointError::DrainFault { pages_drained: 5 },
            CheckpointError::DrainTimeout {
                attempts: 2,
                waited_us: 1_500,
                budget_ms: 1,
            },
            CheckpointError::StagingBacklog { in_flight: 2 },
            CheckpointError::BackupUnreachable { attempt: 1 },
            CheckpointError::PoolSaturated { capacity: 4 },
            CheckpointError::WorkerLost,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
