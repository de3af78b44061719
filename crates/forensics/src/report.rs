//! Security-report generation.
//!
//! After detection, CRIMES' Analyzer "generates a comprehensive security
//! report to aid administrators" (§3.3); §5.6 shows the malware report
//! format (process row, open sockets, open file handles). [`ReportBuilder`]
//! assembles that report from dumps, plugin output, and diffs, rendering
//! text shaped like the paper's listing.

use std::fmt::Write as _;

use crimes_vmi::TaskInfo;

use crate::diff::DumpDiff;
use crate::dump::MemoryDump;
use crate::plugins::{self, PsxviewRow};

/// A finished security report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecurityReport {
    title: String,
    sections: Vec<(String, String)>,
}

impl SecurityReport {
    /// The report's title line.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Section headers, in order.
    pub fn section_names(&self) -> Vec<&str> {
        self.sections.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Append a free-form section to an already-built report (e.g. the
    /// framework's flight-recorder timeline, which only the framework —
    /// not the analyzer — can supply).
    pub fn push_section(&mut self, name: &str, body: &str) {
        self.sections.push((name.to_owned(), body.to_owned()));
    }

    /// Body of a named section.
    pub fn section(&self, name: &str) -> Option<&str> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_str())
    }

    /// Render the full report as text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "==== {} ====", self.title);
        for (name, body) in &self.sections {
            let _ = writeln!(out, "\n{name}:");
            out.push_str(body);
            if !body.ends_with('\n') {
                out.push('\n');
            }
        }
        out
    }
}

/// Incremental builder for a [`SecurityReport`].
#[derive(Debug, Clone)]
pub struct ReportBuilder {
    title: String,
    sections: Vec<(String, String)>,
}

impl ReportBuilder {
    /// Start a report.
    pub fn new(title: &str) -> Self {
        ReportBuilder {
            title: title.to_owned(),
            sections: Vec::new(),
        }
    }

    /// Add a free-form section.
    pub fn section(&mut self, name: &str, body: &str) -> &mut Self {
        self.sections.push((name.to_owned(), body.to_owned()));
        self
    }

    /// Add the "Malware detected" process row (§5.6 format).
    pub fn malware_process(&mut self, task: &TaskInfo) -> &mut Self {
        let body = format!(
            "{:<16} {:<6} {}\n{:<16} {:<6} t+{}ns",
            "Name", "PID", "Start", task.comm, task.pid, task.start_time_ns
        );
        self.section("Malware detected", &body)
    }

    /// Add the "Open Sockets" section from a `netscan` sweep of `dump`,
    /// scoped to `pid` when given.
    ///
    /// # Errors
    ///
    /// Fails if the dump cannot be introspected.
    pub fn open_sockets(
        &mut self,
        dump: &MemoryDump,
        pid: Option<u32>,
    ) -> Result<&mut Self, crimes_vmi::VmiError> {
        let session = dump.open_session()?;
        let socks = plugins::netscan(&session, dump)?;
        let mut body = format!(
            "{:<10} {:<24} {:<24} State\n",
            "Protocol", "Local Address", "Foreign Address"
        );
        for s in socks.iter().filter(|s| pid.is_none_or(|p| p == s.pid)) {
            let _ = writeln!(
                body,
                "{:<10} {:<24} {:<24} {}",
                s.proto_name(),
                s.local_endpoint(),
                s.foreign_endpoint(),
                s.state.name()
            );
        }
        Ok(self.section("Open Sockets", &body))
    }

    /// Add the "Open File Handles" section.
    ///
    /// # Errors
    ///
    /// Fails if the dump cannot be introspected.
    pub fn open_files(
        &mut self,
        dump: &MemoryDump,
        pid: Option<u32>,
    ) -> Result<&mut Self, crimes_vmi::VmiError> {
        let session = dump.open_session()?;
        let files = plugins::handles(&session, dump, pid)?;
        let mut body = String::new();
        for f in files {
            let _ = writeln!(body, "{}", f.path);
        }
        Ok(self.section("Open File Handles", &body))
    }

    /// Add a `psxview` anomaly section listing suspicious rows.
    pub fn psxview_anomalies(&mut self, rows: &[PsxviewRow]) -> &mut Self {
        let mut body = format!(
            "{:<8} {:<16} {:<8} {:<8} {:<8}\n",
            "PID", "Name", "pslist", "psscan", "pid_hash"
        );
        for r in rows.iter().filter(|r| r.is_suspicious()) {
            let _ = writeln!(
                body,
                "{:<8} {:<16} {:<8} {:<8} {:<8}",
                r.pid, r.comm, r.in_pslist, r.in_psscan, r.in_pid_hash
            );
        }
        self.section("Hidden Process Anomalies (psxview)", &body)
    }

    /// Add a dump-diff summary section.
    pub fn diff_summary(&mut self, diff: &DumpDiff) -> &mut Self {
        let mut body = format!("{}\n", diff.summary());
        for t in &diff.new_tasks {
            let _ = writeln!(body, "new process: {} (pid {})", t.comm, t.pid);
        }
        for s in &diff.new_sockets {
            let _ = writeln!(
                body,
                "new socket: {} -> {} ({})",
                s.local_endpoint(),
                s.foreign_endpoint(),
                s.state.name()
            );
        }
        for f in &diff.new_files {
            let _ = writeln!(body, "new file handle: {} (pid {})", f.path, f.pid);
        }
        self.section("Checkpoint Diff", &body)
    }

    /// Finish the report.
    pub fn build(&self) -> SecurityReport {
        SecurityReport {
            title: self.title.clone(),
            sections: self.sections.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dump::DumpKind;
    use crimes_vm::{TcpState, Vm};
    use crimes_vmi::Symbols;

    fn symbols(vm: &Vm) -> Symbols {
        Symbols::parse(vm.system_map()).expect("parse")
    }

    fn malware_vm() -> (Vm, u32) {
        let mut b = Vm::builder();
        b.pages(2048).seed(6);
        let mut vm = b.build();
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
        (vm, evil)
    }

    #[test]
    fn malware_report_has_paper_sections() {
        let (vm, evil) = malware_vm();
        let dump = MemoryDump::from_vm(&vm, &symbols(&vm), DumpKind::AuditFailure);
        let session = dump.open_session().unwrap();
        let task = crimes_vmi::linux::task_by_pid(&session, dump.memory(), evil).unwrap();

        let mut b = ReportBuilder::new("CRIMES Malware Report");
        b.malware_process(&task);
        b.open_sockets(&dump, Some(evil)).unwrap();
        b.open_files(&dump, Some(evil)).unwrap();
        let report = b.build();

        assert_eq!(
            report.section_names(),
            vec!["Malware detected", "Open Sockets", "Open File Handles"]
        );
        let text = report.to_text();
        assert!(text.contains("reg_read.exe"));
        assert!(text.contains("192.168.1.76:49164"));
        assert!(text.contains("104.28.18.89:8080"));
        assert!(text.contains("CLOSE_WAIT"));
        assert!(text.contains("write_file.txt"));
    }

    #[test]
    fn socket_scoping_excludes_other_pids() {
        let (mut vm, evil) = malware_vm();
        let other = vm.spawn_process("nginx", 33, 1).unwrap();
        vm.open_socket(other, 6, 0, 80, 0, 0, TcpState::Listen)
            .unwrap();
        let dump = MemoryDump::from_vm(&vm, &symbols(&vm), DumpKind::Adhoc);
        let mut b = ReportBuilder::new("r");
        b.open_sockets(&dump, Some(evil)).unwrap();
        let text = b.build().to_text();
        assert!(text.contains("104.28.18.89"));
        assert!(!text.contains(":80 "), "other pid's socket leaked in");
    }

    #[test]
    fn psxview_section_lists_only_suspicious() {
        let rows = vec![
            PsxviewRow {
                pid: 1,
                comm: "good".into(),
                in_pslist: true,
                in_psscan: true,
                in_pid_hash: true,
            },
            PsxviewRow {
                pid: 2,
                comm: "hidden".into(),
                in_pslist: false,
                in_psscan: true,
                in_pid_hash: true,
            },
        ];
        let mut b = ReportBuilder::new("r");
        b.psxview_anomalies(&rows);
        let text = b.build().to_text();
        assert!(text.contains("hidden"));
        assert!(!text.contains("good"));
    }

    #[test]
    fn section_lookup_and_missing() {
        let mut b = ReportBuilder::new("t");
        b.section("A", "alpha");
        let r = b.build();
        assert_eq!(r.title(), "t");
        assert_eq!(r.section("A"), Some("alpha"));
        assert!(r.section("B").is_none());
    }
}
