//! A Volatility-style command front end.
//!
//! The paper drives forensics by invoking Volatility plugins by name
//! (`psscan`, `psxview`, `procdump`, `netscan`, `handles`, …). This module
//! offers the same surface: [`run_plugin`] dispatches a plugin name (plus
//! an optional pid argument) over a dump and returns rendered text, so
//! automated post-mortem pipelines can be written as plugin scripts —
//! "we run a plethora of Volatility commands to generate a comprehensive
//! security report" (§3.3).

use std::fmt::Write as _;

use crimes_vmi::VmiError;

use crate::dump::MemoryDump;
use crate::plugins;

/// Plugin names understood by [`run_plugin`].
pub const PLUGIN_NAMES: [&str; 8] = [
    "pslist",
    "psscan",
    "psxview",
    "procdump",
    "netscan",
    "handles",
    "linux_proc_map",
    "modscan",
];

/// Errors from the command front end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PluginError {
    /// The plugin name is not registered.
    UnknownPlugin(String),
    /// The plugin requires a pid argument.
    MissingPid(&'static str),
    /// Introspection failed.
    Vmi(VmiError),
}

impl std::fmt::Display for PluginError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PluginError::UnknownPlugin(n) => write!(f, "unknown plugin {n}"),
            PluginError::MissingPid(n) => write!(f, "plugin {n} requires a pid"),
            PluginError::Vmi(e) => write!(f, "vmi: {e}"),
        }
    }
}

impl std::error::Error for PluginError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PluginError::Vmi(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VmiError> for PluginError {
    fn from(e: VmiError) -> Self {
        PluginError::Vmi(e)
    }
}

/// Run a plugin by name over `dump`, rendering its output as text.
///
/// # Errors
///
/// Fails for unknown plugin names, missing pid arguments, or introspection
/// failures.
pub fn run_plugin(dump: &MemoryDump, name: &str, pid: Option<u32>) -> Result<String, PluginError> {
    let session = dump.open_session()?;
    let mut out = String::new();
    match name {
        "pslist" => {
            let _ = writeln!(
                out,
                "{:<8} {:<16} {:<6} {:<10} Start",
                "PID", "Name", "UID", "State"
            );
            for t in plugins::pslist(&session, dump)? {
                let _ = writeln!(
                    out,
                    "{:<8} {:<16} {:<6} {:<10} t+{}ns",
                    t.pid,
                    t.comm,
                    t.uid,
                    format!("{:?}", t.state),
                    t.start_time_ns
                );
            }
        }
        "psscan" => {
            let _ = writeln!(out, "{:<8} {:<16} {:<8} Found-at", "PID", "Name", "Freed");
            for s in plugins::psscan(dump) {
                let _ = writeln!(
                    out,
                    "{:<8} {:<16} {:<8} {}",
                    s.task.pid, s.task.comm, s.freed, s.found_at
                );
            }
        }
        "psxview" => {
            let _ = writeln!(
                out,
                "{:<8} {:<16} {:<8} {:<8} {:<10} Suspicious",
                "PID", "Name", "pslist", "psscan", "pid_hash"
            );
            for r in plugins::psxview(&session, dump)? {
                let _ = writeln!(
                    out,
                    "{:<8} {:<16} {:<8} {:<8} {:<10} {}",
                    r.pid,
                    r.comm,
                    r.in_pslist,
                    r.in_psscan,
                    r.in_pid_hash,
                    r.is_suspicious()
                );
            }
        }
        "procdump" => {
            let pid = pid.ok_or(PluginError::MissingPid("procdump"))?;
            let image = plugins::procdump(&session, dump, pid)?;
            let _ = writeln!(out, "dumped pid {pid}: {} bytes", image.len());
        }
        "netscan" => {
            let _ = writeln!(
                out,
                "{:<10} {:<24} {:<24} {:<14} PID",
                "Protocol", "Local Address", "Foreign Address", "State"
            );
            for s in plugins::netscan(&session, dump)? {
                if pid.is_some_and(|p| p != s.pid) {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "{:<10} {:<24} {:<24} {:<14} {}",
                    s.proto_name(),
                    s.local_endpoint(),
                    s.foreign_endpoint(),
                    s.state.name(),
                    s.pid
                );
            }
        }
        "handles" => {
            let _ = writeln!(out, "{:<8} Path", "PID");
            for f in plugins::handles(&session, dump, pid)? {
                let _ = writeln!(out, "{:<8} {}", f.pid, f.path);
            }
        }
        "linux_proc_map" => {
            let pid = pid.ok_or(PluginError::MissingPid("linux_proc_map"))?;
            let _ = writeln!(out, "{:<20} {:<20} Size", "Start", "End");
            for m in plugins::proc_maps(&session, dump, pid)? {
                let _ = writeln!(
                    out,
                    "{:<20} {:<20} {:#x}",
                    m.start.to_string(),
                    m.end.to_string(),
                    m.len
                );
            }
        }
        "modscan" => {
            let _ = writeln!(out, "{:<32} {:<10} Found-at", "Name", "Size");
            for m in plugins::modscan(&session, dump)? {
                let _ = writeln!(
                    out,
                    "{:<32} {:<#10x} {}",
                    m.module.name, m.module.size, m.found_at
                );
            }
        }
        other => return Err(PluginError::UnknownPlugin(other.to_owned())),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dump::DumpKind;
    use crimes_vm::Vm;

    fn dump() -> MemoryDump {
        let mut b = Vm::builder();
        b.pages(2048).seed(3);
        let mut vm = b.build();
        let pid = vm.spawn_process("suspect", 0, 2).unwrap();
        vm.open_file(pid, "/tmp/x").unwrap();
        let symbols = crimes_vmi::Symbols::parse(vm.system_map()).expect("parse");
        MemoryDump::from_vm(&vm, &symbols, DumpKind::Adhoc)
    }

    #[test]
    fn every_registered_plugin_runs() {
        let d = dump();
        for name in PLUGIN_NAMES {
            let out = run_plugin(&d, name, Some(1)).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!out.is_empty(), "{name} produced no output");
        }
    }

    #[test]
    fn unknown_plugin_is_rejected() {
        let d = dump();
        assert!(matches!(
            run_plugin(&d, "malfind", None),
            Err(PluginError::UnknownPlugin(_))
        ));
    }

    #[test]
    fn pid_requiring_plugins_enforce_it() {
        let d = dump();
        assert!(matches!(
            run_plugin(&d, "procdump", None),
            Err(PluginError::MissingPid(_))
        ));
        assert!(matches!(
            run_plugin(&d, "linux_proc_map", None),
            Err(PluginError::MissingPid(_))
        ));
    }

    #[test]
    fn pslist_output_names_processes() {
        let d = dump();
        let out = run_plugin(&d, "pslist", None).unwrap();
        assert!(out.contains("suspect"));
        assert!(out.contains("swapper"));
    }

    #[test]
    fn handles_output_scopes_by_pid() {
        let d = dump();
        let out = run_plugin(&d, "handles", Some(99)).unwrap();
        assert!(!out.contains("/tmp/x"));
        let out = run_plugin(&d, "handles", Some(1)).unwrap();
        assert!(out.contains("/tmp/x"));
    }

    #[test]
    fn errors_display_nonempty() {
        for e in [
            PluginError::UnknownPlugin("x".into()),
            PluginError::MissingPid("y"),
            PluginError::Vmi(VmiError::NoSuchTask(1)),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
