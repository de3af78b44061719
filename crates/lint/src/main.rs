//! The `crimes-lint` binary: lint the workspace (or the tree given as an
//! argument), print rustc-style diagnostics and the suppression ledger,
//! and exit with a code CI can dispatch on:
//!
//! * `0` — clean tree (no findings, no stale allows, every rule ran),
//! * `1` — findings or stale allows,
//! * `2` — the analyzer itself is broken (unreadable tree, or a rule
//!   panicked mid-run) — a dirty tree and a broken lint must never be
//!   confused.
//!
//! `--json` writes the machine-readable report to stdout (the human
//! rendering moves to stderr), which `scripts/verify.sh` captures as
//! `LINT_REPORT.json`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    for arg in std::env::args().skip(1) {
        if arg == "--json" {
            json = true;
        } else {
            root = Some(PathBuf::from(arg));
        }
    }
    let root = root.unwrap_or_else(workspace_root);
    match crimes_lint::run(&root) {
        Ok(report) => {
            if json {
                print!("{}", report.to_json());
                eprint!("{}", report.render());
            } else {
                print!("{}", report.render());
            }
            if !report.aborted.is_empty() {
                ExitCode::from(2)
            } else if report.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("crimes-lint: cannot read {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}

/// Walk up from the current directory to the first `Cargo.toml` declaring
/// `[workspace]`, so `cargo run -p crimes-lint` works from any subdir.
fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}
