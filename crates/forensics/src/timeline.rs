//! Time-travel forensics over a checkpoint history.
//!
//! §3.1 motivates keeping "a history of checkpoints that would facilitate
//! forensic analysis"; the `crimes-checkpoint` history ring implements the
//! retention, and this module implements the analysis: given a
//! chronological series of dumps, find *when* an attack artifact first
//! appeared — the forensic question an investigator actually asks ("which
//! epoch let this in?").

use crimes_vmi::VmiError;

use crate::dump::MemoryDump;
use crate::plugins;

/// A predicate over one dump.
pub trait DumpPredicate {
    /// Human-readable description for reports.
    fn describe(&self) -> String;

    /// Evaluate against a dump.
    ///
    /// # Errors
    ///
    /// Introspection failures propagate; the caller decides whether a
    /// damaged dump counts as a hit.
    fn holds(&self, dump: &MemoryDump) -> Result<bool, VmiError>;
}

/// "A process with this name is visible (task list or slab)."
#[derive(Debug, Clone)]
pub struct ProcessNamed(pub String);

impl DumpPredicate for ProcessNamed {
    fn describe(&self) -> String {
        format!("process named '{}' exists", self.0)
    }

    fn holds(&self, dump: &MemoryDump) -> Result<bool, VmiError> {
        // The slab scan also sees hidden processes.
        Ok(plugins::psscan(dump)
            .iter()
            .any(|s| !s.freed && s.task.comm == self.0))
    }
}

/// "A kernel module with this name is present in the slab."
#[derive(Debug, Clone)]
pub struct ModuleNamed(pub String);

impl DumpPredicate for ModuleNamed {
    fn describe(&self) -> String {
        format!("kernel module '{}' exists", self.0)
    }

    fn holds(&self, dump: &MemoryDump) -> Result<bool, VmiError> {
        let session = dump.open_session()?;
        Ok(plugins::modscan(&session, dump)?
            .iter()
            .any(|m| m.module.name == self.0))
    }
}

/// "A socket to this foreign endpoint is open."
#[derive(Debug, Clone, Copy)]
pub struct SocketTo {
    /// Foreign IPv4 address.
    pub faddr: u32,
    /// Foreign port.
    pub fport: u16,
}

impl DumpPredicate for SocketTo {
    fn describe(&self) -> String {
        let b = self.faddr.to_be_bytes();
        format!(
            "socket to {}.{}.{}.{}:{} open",
            b[0], b[1], b[2], b[3], self.fport
        )
    }

    fn holds(&self, dump: &MemoryDump) -> Result<bool, VmiError> {
        let session = dump.open_session()?;
        Ok(plugins::netscan(&session, dump)?
            .iter()
            .any(|s| s.faddr == self.faddr && s.fport == self.fport))
    }
}

/// Where in a history an artifact first appeared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FirstAppearance {
    /// Index into the supplied history (oldest = 0).
    pub index: usize,
    /// Guest time of that dump.
    pub guest_time_ns: u64,
    /// The predicate's description.
    pub what: String,
}

/// Find the earliest dump (in a chronological, oldest-first series) where
/// `predicate` holds. Uses binary search when the predicate is monotone
/// (absent → present and stays present), falling back to the verified
/// boundary: the returned index holds the predicate and its predecessor
/// does not.
///
/// Returns `None` when the predicate never holds.
///
/// # Errors
///
/// Propagates introspection failures from predicate evaluation.
pub fn first_appearance(
    history: &[MemoryDump],
    predicate: &dyn DumpPredicate,
) -> Result<Option<FirstAppearance>, VmiError> {
    if history.is_empty() {
        return Ok(None);
    }
    // Binary search for the false→true boundary.
    let (mut lo, mut hi) = (0usize, history.len() - 1);
    if !predicate.holds(&history[hi])? {
        return Ok(None);
    }
    if predicate.holds(&history[lo])? {
        return Ok(Some(FirstAppearance {
            index: 0,
            guest_time_ns: history[0].guest_time_ns(),
            what: predicate.describe(),
        }));
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if predicate.holds(&history[mid])? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    // Verify the boundary really is a boundary (guards against
    // non-monotone predicates, e.g. an artifact that came and went).
    debug_assert!(predicate.holds(&history[hi])?);
    Ok(Some(FirstAppearance {
        index: hi,
        guest_time_ns: history[hi].guest_time_ns(),
        what: predicate.describe(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dump::DumpKind;
    use crimes_vm::{TcpState, Vm};

    fn history_with_malware_at(epoch: usize, total: usize) -> Vec<MemoryDump> {
        let mut b = Vm::builder();
        b.pages(2048).seed(61);
        let mut vm = b.build();
        let symbols = crimes_vmi::Symbols::parse(vm.system_map()).expect("parse");
        let mut dumps = Vec::new();
        for e in 0..total {
            if e == epoch {
                let pid = vm.spawn_process("implant", 0, 2).unwrap();
                vm.open_socket(pid, 6, 0, 4444, 0x0808_0808, 53, TcpState::Established)
                    .unwrap();
                vm.load_module("implant_lkm", 0x100).unwrap();
            }
            vm.advance_time(50_000_000);
            dumps.push(MemoryDump::from_vm(&vm, &symbols, DumpKind::Adhoc));
        }
        dumps
    }

    #[test]
    fn bisect_finds_the_infection_epoch() {
        let history = history_with_malware_at(5, 9);
        let hit = first_appearance(&history, &ProcessNamed("implant".into()))
            .unwrap()
            .expect("present in later dumps");
        assert_eq!(hit.index, 5);
        assert!(hit.what.contains("implant"));
        assert_eq!(hit.guest_time_ns, history[5].guest_time_ns());
    }

    #[test]
    fn module_and_socket_predicates_agree() {
        let history = history_with_malware_at(3, 6);
        let m = first_appearance(&history, &ModuleNamed("implant_lkm".into()))
            .unwrap()
            .unwrap();
        let s = first_appearance(
            &history,
            &SocketTo {
                faddr: 0x0808_0808,
                fport: 53,
            },
        )
        .unwrap()
        .unwrap();
        assert_eq!(m.index, 3);
        assert_eq!(s.index, 3);
        assert!(s.what.contains("8.8.8.8:53"));
    }

    #[test]
    fn absent_artifact_returns_none() {
        let history = history_with_malware_at(2, 4);
        assert!(first_appearance(&history, &ProcessNamed("ghost".into()))
            .unwrap()
            .is_none());
    }

    #[test]
    fn artifact_present_from_the_start() {
        let history = history_with_malware_at(0, 4);
        let hit = first_appearance(&history, &ProcessNamed("implant".into()))
            .unwrap()
            .unwrap();
        assert_eq!(hit.index, 0);
    }

    #[test]
    fn empty_history_is_none() {
        assert!(
            first_appearance(&[], &ProcessNamed("x".into()))
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn single_dump_histories_work() {
        let history = history_with_malware_at(0, 1);
        assert!(first_appearance(&history, &ProcessNamed("implant".into()))
            .unwrap()
            .is_some());
        let clean = history_with_malware_at(5, 1); // never infected
        assert!(first_appearance(&clean, &ProcessNamed("implant".into()))
            .unwrap()
            .is_none());
    }
}
