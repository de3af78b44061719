//! crimes-lint: an in-tree static analyzer for the CRIMES reproduction.
//!
//! The paper's security argument rests on properties rustc cannot see:
//! the audit/checkpoint pause window must stay tiny and side-effect-free,
//! fail-closed modules must never panic past a buffered output, public
//! errors must stay typed, and the build must stay hermetic. This crate
//! encodes those as five mechanical rules over a token-level model of the
//! workspace:
//!
//! * `panic-freedom` — no `unwrap`/`expect`/`panic!`-family/indexing in
//!   the fail-closed modules ([`LintConfig::fail_closed`]),
//! * `pause-window` — functions reachable from `// lint: pause-window`
//!   roots stay free of wall clocks, I/O, sleeps, thread spawns, and
//!   heap-growing constructors,
//! * `error-taxonomy` — no `Box<dyn Error>` erasure in public library
//!   signatures,
//! * `hermeticity` — no registry dependencies; no wall clocks in tests,
//! * `telemetry-purity` — pause-window-reachable code only uses the
//!   alloc-free telemetry recording APIs: no telemetry construction
//!   (preallocation belongs at protect time) and no rendering/export.
//!
//! What is *not* here: that every fault point is wired and soaked —
//! `tests/fault_soak.rs` arms every `FaultPoint::ALL` variant and asserts
//! each one fired, which a rule over tokens could only approximate. Nor
//! that every evidence effect is journalled before it happens and that
//! outputs release only on an audit pass or a drain ack.
//! `crates/crimes/src/evidence.rs` owns that state behind private fields,
//! so those orderings hold by construction and need no rule. Nor that
//! guest-controlled bytes never size an allocation or index a slice
//! unchecked: every host read of guest memory returns a
//! `crimes_vm::Guest<T>`, which has no unchecked way to do either.
//!
//! Exceptions are visible, never silent: a line can carry
//! `// lint: allow(<rule>) -- reason`, and the binary counts and prints
//! every suppression it honoured (and flags the stale ones).

#![forbid(unsafe_code)]

mod callgraph;
mod lexer;
mod model;
mod rules;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use model::{Allow, SourceFile};
pub use rules::ALL_RULES;

/// One finding, attributed rustc-style to `path:line:col`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

impl Diagnostic {
    fn render(&self) -> String {
        format!(
            "error[{}]: {}\n  --> {}:{}:{}",
            self.rule, self.message, self.path, self.line, self.col
        )
    }
}

/// A manifest kept as raw text (rule 4 works line-wise).
#[derive(Debug)]
pub struct Manifest {
    pub rel_path: String,
    pub text: String,
}

/// What the rules check and where. [`LintConfig::default`] is the single
/// source of truth for the CRIMES tree — `scripts/verify.sh` and CI both
/// go through it.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Modules that must never panic: everything that runs between
    /// "outputs buffered" and "audit decided / state restored".
    pub fail_closed: Vec<String>,
    /// Path prefixes allowed to read wall clocks in test code.
    pub blessed_timing: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            fail_closed: [
                "crates/crimes/src/framework.rs",
                "crates/crimes/src/evidence.rs",
                "crates/crimes/src/replay.rs",
                "crates/crimes/src/scheduler.rs",
                "crates/checkpoint/src/engine.rs",
                "crates/checkpoint/src/copy.rs",
                "crates/checkpoint/src/integrity.rs",
                "crates/checkpoint/src/pool.rs",
                "crates/checkpoint/src/delta.rs",
                "crates/journal/src/journal.rs",
            ]
            .map(String::from)
            .to_vec(),
            blessed_timing: vec!["crates/bench/".into()],
        }
    }
}

/// A suppressed diagnostic, with the reason given in the allow comment.
#[derive(Debug, Clone)]
pub struct Suppressed {
    pub diagnostic: Diagnostic,
    pub reason: String,
}

/// The outcome of one lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    pub diagnostics: Vec<Diagnostic>,
    pub suppressed: Vec<Suppressed>,
    /// Allows that matched no diagnostic (stale exceptions). These fail
    /// the run: an allow that suppresses nothing is drift in the ledger.
    pub unused_allows: Vec<(String, Allow)>,
    /// Rules that panicked instead of finishing, as (rule, panic
    /// message). Any entry means the run's "clean" verdict is
    /// meaningless — the binary maps this to its own exit code.
    pub aborted: Vec<(String, String)>,
}

impl LintReport {
    /// `true` when nothing unsuppressed was found, no allow is stale,
    /// and every rule ran to completion.
    pub fn ok(&self) -> bool {
        self.diagnostics.is_empty() && self.unused_allows.is_empty() && self.aborted.is_empty()
    }

    /// Human-readable rendering: every error, then stale allows and
    /// aborted rules (both errors), then the suppression ledger and the
    /// verdict line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{}", d.render());
        }
        for (path, allow) in &self.unused_allows {
            let _ = writeln!(
                out,
                "error[stale-allow]: `lint: allow({})` matches no diagnostic; remove it or restore what it excused\n  --> {}:{}",
                allow.rule, path, allow.line
            );
        }
        for (rule, msg) in &self.aborted {
            let _ = writeln!(
                out,
                "error[internal]: rule `{rule}` aborted before finishing: {msg}"
            );
        }
        let mut per_rule: BTreeMap<&str, usize> = BTreeMap::new();
        for s in &self.suppressed {
            *per_rule.entry(s.diagnostic.rule).or_default() += 1;
        }
        let ledger = if per_rule.is_empty() {
            String::from("0 suppressed")
        } else {
            let parts: Vec<String> = per_rule
                .iter()
                .map(|(rule, n)| format!("{rule}: {n}"))
                .collect();
            format!("{} suppressed ({})", self.suppressed.len(), parts.join(", "))
        };
        let _ = writeln!(
            out,
            "crimes-lint: {} error{}, {}, {} stale allow{}{}",
            self.diagnostics.len(),
            if self.diagnostics.len() == 1 { "" } else { "s" },
            ledger,
            self.unused_allows.len(),
            if self.unused_allows.len() == 1 { "" } else { "s" },
            if self.aborted.is_empty() {
                String::new()
            } else {
                format!(", {} rule(s) aborted", self.aborted.len())
            },
        );
        out
    }

    /// Machine-readable rendering: diagnostics, per-rule counts over all
    /// known rules, the honoured allow ledger, stale allows, and aborted
    /// rules. Hand-rolled (the workspace is dependency-free), schema
    /// versioned for CI consumers.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": 1,\n");
        let _ = writeln!(out, "  \"ok\": {},", self.ok());
        let mut counts: BTreeMap<&str, usize> = ALL_RULES.iter().map(|r| (*r, 0)).collect();
        for d in &self.diagnostics {
            *counts.entry(d.rule).or_default() += 1;
        }
        out.push_str("  \"counts\": {");
        let parts: Vec<String> = counts
            .iter()
            .map(|(rule, n)| format!("\"{rule}\": {n}"))
            .collect();
        out.push_str(&parts.join(", "));
        out.push_str("},\n  \"diagnostics\": [");
        let parts: Vec<String> = self
            .diagnostics
            .iter()
            .map(|d| {
                format!(
                    "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\"}}",
                    d.rule,
                    json_escape(&d.path),
                    d.line,
                    d.col,
                    json_escape(&d.message)
                )
            })
            .collect();
        out.push_str(&parts.join(","));
        if !parts.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"suppressed\": [");
        let parts: Vec<String> = self
            .suppressed
            .iter()
            .map(|s| {
                format!(
                    "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"reason\": \"{}\"}}",
                    s.diagnostic.rule,
                    json_escape(&s.diagnostic.path),
                    s.diagnostic.line,
                    json_escape(&s.reason)
                )
            })
            .collect();
        out.push_str(&parts.join(","));
        if !parts.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"stale_allows\": [");
        let parts: Vec<String> = self
            .unused_allows
            .iter()
            .map(|(path, a)| {
                format!(
                    "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}}}",
                    json_escape(&a.rule),
                    json_escape(path),
                    a.line
                )
            })
            .collect();
        out.push_str(&parts.join(","));
        if !parts.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"aborted\": [");
        let parts: Vec<String> = self
            .aborted
            .iter()
            .map(|(rule, msg)| {
                format!(
                    "\n    {{\"rule\": \"{}\", \"error\": \"{}\"}}",
                    json_escape(rule),
                    json_escape(msg)
                )
            })
            .collect();
        out.push_str(&parts.join(","));
        if !parts.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Lint the tree rooted at `root` with the default CRIMES configuration.
pub fn run(root: &Path) -> io::Result<LintReport> {
    run_with(root, &LintConfig::default())
}

/// Lint the tree rooted at `root` with an explicit configuration.
///
/// Every rule runs under `catch_unwind`: a rule that panics contributes
/// no diagnostics but is recorded in [`LintReport::aborted`], so a
/// broken analyzer can never masquerade as a clean tree.
pub fn run_with(root: &Path, config: &LintConfig) -> io::Result<LintReport> {
    let (files, manifests) = load_tree(root)?;
    let mut diagnostics = Vec::new();
    let mut aborted = Vec::new();
    let mut run_rule = |name: &'static str, f: &mut dyn FnMut() -> Vec<Diagnostic>| {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(found) => diagnostics.extend(found),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| String::from("non-string panic payload"));
                aborted.push((name.to_string(), msg));
            }
        }
    };
    run_rule("panic-freedom", &mut || rules::panic_freedom(&files, config));
    run_rule("pause-window", &mut || rules::pause_window(&files));
    run_rule("error-taxonomy", &mut || rules::error_taxonomy(&files));
    run_rule("hermeticity", &mut || {
        rules::hermeticity(&files, &manifests, config)
    });
    run_rule("telemetry-purity", &mut || rules::telemetry_purity(&files));
    let mut report = apply_allows(diagnostics, &files);
    report.aborted = aborted;
    Ok(report)
}

/// Split raw findings into kept and suppressed using the files' allow
/// comments. An allow matches a diagnostic of its rule on the same line
/// (trailing comment) or the line directly below (comment above).
fn apply_allows(raw: Vec<Diagnostic>, files: &[SourceFile]) -> LintReport {
    let mut report = LintReport::default();
    let mut used = vec![Vec::new(); files.len()];
    for (fi, file) in files.iter().enumerate() {
        used[fi] = vec![false; file.allows.len()];
    }
    for d in raw {
        let matched = files.iter().enumerate().find_map(|(fi, file)| {
            if file.rel_path != d.path {
                return None;
            }
            file.allows
                .iter()
                .position(|a| a.rule == d.rule && (a.line == d.line || a.line + 1 == d.line))
                .map(|ai| (fi, ai))
        });
        match matched {
            Some((fi, ai)) => {
                used[fi][ai] = true;
                report.suppressed.push(Suppressed {
                    reason: files[fi].allows[ai].reason.clone(),
                    diagnostic: d,
                });
            }
            None => report.diagnostics.push(d),
        }
    }
    for (fi, file) in files.iter().enumerate() {
        for (ai, allow) in file.allows.iter().enumerate() {
            if !used[fi][ai] {
                report
                    .unused_allows
                    .push((file.rel_path.clone(), allow.clone()));
            }
        }
    }
    report
}

/// Walk the tree, lexing every `.rs` file and collecting every manifest.
/// `target`, `.git`, and fixture directories are skipped.
fn load_tree(root: &Path) -> io::Result<(Vec<SourceFile>, Vec<Manifest>)> {
    let mut rs_paths = Vec::new();
    let mut manifests = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !matches!(name.as_ref(), "target" | ".git" | "fixtures") {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                rs_paths.push(path);
            } else if name == "Cargo.toml" {
                manifests.push(Manifest {
                    rel_path: rel(root, &path),
                    text: fs::read_to_string(&path)?,
                });
            }
        }
    }
    rs_paths.sort();
    manifests.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    let mut files = Vec::with_capacity(rs_paths.len());
    for path in rs_paths {
        let rel_path = rel(root, &path);
        let crate_key = crate_key_of(&rel_path);
        let text = fs::read_to_string(&path)?;
        files.push(SourceFile::parse(rel_path, crate_key, &text));
    }
    Ok((files, manifests))
}

fn rel(root: &Path, path: &PathBuf) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// `crates/<name>/…` → `crates/<name>`; anything else belongs to the
/// workspace package (key `""`).
fn crate_key_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            return format!("crates/{name}");
        }
    }
    String::new()
}
