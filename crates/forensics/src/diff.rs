//! Dump differencing.
//!
//! "Having two memory dumps around the attack significantly simplifies
//! attack analysis. CRIMES can determine the differences between the two
//! dumps and highlight them for an investigator" (§3.3). [`DumpDiff`]
//! computes exactly that: changed pages, plus semantic deltas over
//! processes, sockets, and file handles.

use crimes_vm::Pfn;
use crimes_vmi::{TaskInfo, VmiError};

use crate::dump::MemoryDump;
use crate::plugins::{self, FileHandleInfo, SocketInfo};

/// Differences between two dumps (conventionally: clean checkpoint →
/// audit-failure state).
#[derive(Debug, Clone, PartialEq)]
pub struct DumpDiff {
    /// Pages whose content differs.
    pub changed_pages: Vec<Pfn>,
    /// Processes present only in the newer dump.
    pub new_tasks: Vec<TaskInfo>,
    /// Processes present only in the older dump.
    pub gone_tasks: Vec<TaskInfo>,
    /// Sockets present only in the newer dump.
    pub new_sockets: Vec<SocketInfo>,
    /// Sockets present only in the older dump.
    pub gone_sockets: Vec<SocketInfo>,
    /// File handles present only in the newer dump.
    pub new_files: Vec<FileHandleInfo>,
    /// File handles present only in the older dump.
    pub gone_files: Vec<FileHandleInfo>,
}

impl DumpDiff {
    /// Compute `old → new` differences.
    ///
    /// # Errors
    ///
    /// Fails if either dump cannot be introspected.
    ///
    /// # Panics
    ///
    /// Panics if the dumps cover different memory sizes.
    pub fn between(old: &MemoryDump, new: &MemoryDump) -> Result<DumpDiff, VmiError> {
        assert_eq!(
            old.num_pages(),
            new.num_pages(),
            "dumps must cover the same guest"
        );
        let mut changed_pages = Vec::new();
        for pfn in 0..old.num_pages() as u64 {
            if old.page(Pfn(pfn)) != new.page(Pfn(pfn)) {
                changed_pages.push(Pfn(pfn));
            }
        }

        let old_session = old.open_session()?;
        let new_session = new.open_session()?;
        let old_tasks = plugins::pslist(&old_session, old)?;
        let new_tasks = plugins::pslist(&new_session, new)?;
        let old_socks = plugins::netscan(&old_session, old)?;
        let new_socks = plugins::netscan(&new_session, new)?;
        let old_files = plugins::handles(&old_session, old, None)?;
        let new_files = plugins::handles(&new_session, new, None)?;

        Ok(DumpDiff {
            changed_pages,
            new_tasks: only_in(&new_tasks, &old_tasks, |t| t.pid),
            gone_tasks: only_in(&old_tasks, &new_tasks, |t| t.pid),
            new_sockets: only_in_by(&new_socks, &old_socks),
            gone_sockets: only_in_by(&old_socks, &new_socks),
            new_files: only_in_by(&new_files, &old_files),
            gone_files: only_in_by(&old_files, &new_files),
        })
    }

    /// `true` when nothing differs.
    pub fn is_empty(&self) -> bool {
        self.changed_pages.is_empty()
            && self.new_tasks.is_empty()
            && self.gone_tasks.is_empty()
            && self.new_sockets.is_empty()
            && self.gone_sockets.is_empty()
            && self.new_files.is_empty()
            && self.gone_files.is_empty()
    }

    /// One-line summary for reports.
    pub fn summary(&self) -> String {
        format!(
            "{} changed pages, +{}/-{} tasks, +{}/-{} sockets, +{}/-{} files",
            self.changed_pages.len(),
            self.new_tasks.len(),
            self.gone_tasks.len(),
            self.new_sockets.len(),
            self.gone_sockets.len(),
            self.new_files.len(),
            self.gone_files.len(),
        )
    }
}

fn only_in<T: Clone, K: PartialEq>(a: &[T], b: &[T], key: impl Fn(&T) -> K) -> Vec<T> {
    a.iter()
        .filter(|x| !b.iter().any(|y| key(y) == key(x)))
        .cloned()
        .collect()
}

fn only_in_by<T: Clone + PartialEq>(a: &[T], b: &[T]) -> Vec<T> {
    a.iter().filter(|x| !b.contains(x)).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dump::DumpKind;
    use crimes_vm::{TcpState, Vm};
    use crimes_vmi::Symbols;

    fn vm() -> Vm {
        let mut b = Vm::builder();
        b.pages(2048).seed(23);
        b.build()
    }

    fn symbols(vm: &Vm) -> Symbols {
        Symbols::parse(vm.system_map()).expect("parse")
    }

    #[test]
    fn identical_dumps_diff_empty() {
        let mut vm = vm();
        vm.spawn_process("app", 0, 2).unwrap();
        let symbols = symbols(&vm);
        let a = MemoryDump::from_vm(&vm, &symbols, DumpKind::LastGoodCheckpoint);
        let b = MemoryDump::from_vm(&vm, &symbols, DumpKind::AuditFailure);
        let diff = DumpDiff::between(&a, &b).unwrap();
        assert!(diff.is_empty());
        assert!(diff.summary().starts_with("0 changed pages"));
    }

    #[test]
    fn diff_surfaces_malware_artifacts() {
        let mut vm = vm();
        vm.spawn_process("desktop", 1000, 2).unwrap();
        let symbols = symbols(&vm);
        let before = MemoryDump::from_vm(&vm, &symbols, DumpKind::LastGoodCheckpoint);

        // The §5.6 malware: new process, socket, and loot file.
        let evil = vm.spawn_process("reg_read.exe", 1000, 2).unwrap();
        vm.open_socket(
            evil,
            6,
            u32::from_be_bytes([192, 168, 1, 76]),
            49164,
            u32::from_be_bytes([104, 28, 18, 89]),
            8080,
            TcpState::CloseWait,
        )
        .unwrap();
        vm.open_file(evil, "/Users/root/Desktop/write_file.txt")
            .unwrap();
        let after = MemoryDump::from_vm(&vm, &symbols, DumpKind::AuditFailure);

        let diff = DumpDiff::between(&before, &after).unwrap();
        assert_eq!(diff.new_tasks.len(), 1);
        assert_eq!(diff.new_tasks[0].comm, "reg_read.exe");
        assert_eq!(diff.new_sockets.len(), 1);
        assert_eq!(diff.new_sockets[0].foreign_endpoint(), "104.28.18.89:8080");
        assert_eq!(diff.new_files.len(), 1);
        assert!(diff.gone_tasks.is_empty());
        assert!(!diff.changed_pages.is_empty());
    }

    #[test]
    fn diff_sees_exited_process() {
        let mut vm = vm();
        let p = vm.spawn_process("victim", 0, 2).unwrap();
        let symbols = symbols(&vm);
        let before = MemoryDump::from_vm(&vm, &symbols, DumpKind::LastGoodCheckpoint);
        vm.exit_process(p).unwrap();
        let after = MemoryDump::from_vm(&vm, &symbols, DumpKind::AuditFailure);
        let diff = DumpDiff::between(&before, &after).unwrap();
        assert_eq!(diff.gone_tasks.len(), 1);
        assert_eq!(diff.gone_tasks[0].pid, p);
    }

    #[test]
    fn changed_pages_track_single_write() {
        let mut vm = vm();
        let pid = vm.spawn_process("app", 0, 4).unwrap();
        let symbols = symbols(&vm);
        let before = MemoryDump::from_vm(&vm, &symbols, DumpKind::LastGoodCheckpoint);
        vm.dirty_arena_page(pid, 1, 5, 0x7e).unwrap();
        let after = MemoryDump::from_vm(&vm, &symbols, DumpKind::AuditFailure);
        let diff = DumpDiff::between(&before, &after).unwrap();
        assert_eq!(diff.changed_pages.len(), 1);
    }

    #[test]
    #[should_panic(expected = "same guest")]
    fn mismatched_dumps_panic() {
        let mut b1 = Vm::builder();
        b1.pages(2048).seed(1);
        let mut b2 = Vm::builder();
        b2.pages(4096).seed(1);
        let (vm1, vm2) = (b1.build(), b2.build());
        let a = MemoryDump::from_vm(&vm1, &symbols(&vm1), DumpKind::Adhoc);
        let b = MemoryDump::from_vm(&vm2, &symbols(&vm2), DumpKind::Adhoc);
        let _ = DumpDiff::between(&a, &b);
    }
}
