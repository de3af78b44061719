//! Errors surfaced by introspection.

use crimes_vm::{Guest, Gva, OutOfRange};

/// Errors from VMI operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmiError {
    /// A required symbol is missing from `System.map`.
    UnknownSymbol(String),
    /// A guest virtual address could not be translated: a user address
    /// where a kernel one was due, or an address outside its task's
    /// mapping.
    TranslationFault(Guest<Gva>),
    /// A guest-supplied pointer, mapping or length reaches outside the
    /// guest image. Nothing a consistent kernel writes does this, so it
    /// is evidence of a forged structure, never a reason to skip one.
    OutOfImage(OutOfRange),
    /// `System.map` text could not be parsed.
    BadSystemMap(String),
    /// The guest banner does not describe a kernel this profile supports.
    UnsupportedKernel(String),
    /// A kernel linked list did not terminate within its slab capacity —
    /// either corruption or an attack mangled the pointers.
    MalformedList {
        /// Which list (e.g. `"task"`, `"module"`).
        what: &'static str,
        /// Steps taken before giving up.
        steps: usize,
    },
    /// No task with this pid is visible to introspection.
    NoSuchTask(u32),
    /// A guest-memory read transiently failed (the mapping churned under
    /// the reader, or an injected fault). Safe to retry: the guest is
    /// paused during audits, so nothing is lost by asking again.
    TransientReadFault,
    /// A guest-published table header claims more records than its region
    /// of guest memory could possibly hold. The header is guest-writable,
    /// so an implausible count is treated as evidence of tampering and the
    /// scan fails closed instead of sizing buffers from a forged value.
    ImplausibleTableHeader {
        /// Which table (e.g. `"canary"`).
        what: &'static str,
        /// Record count the header claimed.
        claimed: u64,
        /// Most records the table's addressable extent could hold.
        max: u64,
    },
}

impl std::fmt::Display for VmiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmiError::UnknownSymbol(s) => write!(f, "unknown symbol {s}"),
            VmiError::TranslationFault(gva) => write!(f, "cannot translate {gva}"),
            VmiError::BadSystemMap(e) => write!(f, "malformed System.map: {e}"),
            VmiError::UnsupportedKernel(b) => write!(f, "unsupported kernel: {b}"),
            VmiError::MalformedList { what, steps } => {
                write!(f, "{what} list did not terminate after {steps} steps")
            }
            VmiError::NoSuchTask(pid) => write!(f, "no task with pid {pid}"),
            VmiError::OutOfImage(e) => e.fmt(f),
            VmiError::TransientReadFault => write!(f, "transient VMI read fault (retryable)"),
            VmiError::ImplausibleTableHeader { what, claimed, max } => write!(
                f,
                "{what} table header claims {claimed} record(s) but at most {max} fit in guest memory"
            ),
        }
    }
}

impl std::error::Error for VmiError {}

impl From<OutOfRange> for VmiError {
    fn from(e: OutOfRange) -> Self {
        VmiError::OutOfImage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_nonempty() {
        for e in [
            VmiError::UnknownSymbol("x".into()),
            VmiError::TranslationFault(Guest::new(Gva(1))),
            VmiError::OutOfImage(OutOfRange {
                value: 1 << 40,
                len: 8,
                limit: 4096,
            }),
            VmiError::BadSystemMap("line 1".into()),
            VmiError::UnsupportedKernel("DOS".into()),
            VmiError::MalformedList {
                what: "task",
                steps: 3,
            },
            VmiError::NoSuchTask(9),
            VmiError::TransientReadFault,
            VmiError::ImplausibleTableHeader {
                what: "canary",
                claimed: u64::MAX,
                max: 64,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
