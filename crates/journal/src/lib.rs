//! crimes-journal: the durable evidence journal.
//!
//! CRIMES' guarantees are stated over crash-free monitor executions; this
//! crate extends them across monitor crashes. Every decision that affects
//! what may leave the system — outputs impounded, drain tickets minted
//! and acked, incidents, quarantines, degraded epochs, failovers — is
//! appended to a write-ahead [`EvidenceJournal`] *before* the action
//! takes effect. Recovery replays the journal, truncating at the first
//! record whose checksum fails (a torn tail from the crash), and rebuilds
//! the impound state so `Crimes::recover` can resume from the last acked
//! drain generation instead of releasing — or losing — evidence.
//!
//! The format is deliberately primitive: length-prefixed records, a
//! schema version per record, and the checkpoint engine's tagged FNV-1a
//! [`chunk_digest`](crimes_checkpoint::chunk_digest) keyed by record
//! index so records cannot be spliced or reordered undetected. Replay is
//! infallible by construction — anything it cannot prove intact it
//! ignores, because releasing an output on the strength of a corrupt
//! record would break the fail-closed contract.

#![forbid(unsafe_code)]

mod journal;

pub use journal::{
    EvidenceJournal, OpenTicket, Record, RecoveredState, SCHEMA_VERSION,
};
