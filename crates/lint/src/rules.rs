//! The rules. Each walks the token-level model and returns plain
//! diagnostics; suppression handling lives in the driver.

use std::collections::HashSet;

use crate::callgraph::reachable_from_roots;
use crate::lexer::{Token, TokenKind};
use crate::model::{matches_seq, SourceFile};
use crate::{Diagnostic, LintConfig, Manifest};

pub(crate) const PANIC_FREEDOM: &str = "panic-freedom";
pub(crate) const PAUSE_WINDOW: &str = "pause-window";
pub(crate) const FAULT_COVERAGE: &str = "fault-coverage";
pub(crate) const ERROR_TAXONOMY: &str = "error-taxonomy";
pub(crate) const HERMETICITY: &str = "hermeticity";
pub(crate) const TELEMETRY_PURITY: &str = "telemetry-purity";

/// Every rule name the suppression syntax accepts.
pub const ALL_RULES: [&str; 6] = [
    PANIC_FREEDOM,
    PAUSE_WINDOW,
    FAULT_COVERAGE,
    ERROR_TAXONOMY,
    HERMETICITY,
    TELEMETRY_PURITY,
];

pub(crate) fn diag(rule: &'static str, file: &SourceFile, tok: &Token, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        path: file.rel_path.clone(),
        line: tok.line,
        col: tok.col,
        message,
    }
}

/// Rust keywords that can directly precede `[` without it being an index
/// expression (`let [a, b] = …`, `for x in …`, `return [..]`, …).
pub(crate) fn is_keyword(text: &str) -> bool {
    matches!(
        text,
        "as" | "async" | "await" | "box" | "break" | "const" | "continue" | "crate" | "do"
            | "dyn" | "else" | "enum" | "extern" | "fn" | "for" | "if" | "impl" | "in" | "let"
            | "loop" | "match" | "mod" | "move" | "mut" | "pub" | "ref" | "return" | "static"
            | "struct" | "trait" | "type" | "unsafe" | "use" | "where" | "while" | "yield"
    )
}

/// Rule 1: no panic paths in fail-closed modules. A panic between "outputs
/// buffered" and "audit decided" would tear down the tenant with evidence
/// and speculation in flight, so these modules must return typed errors.
pub(crate) fn panic_freedom(files: &[SourceFile], config: &LintConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in files {
        if !config.fail_closed.iter().any(|m| m == &file.rel_path) {
            continue;
        }
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if file.test_mask[i] {
                continue;
            }
            let t = &toks[i];
            let prev = i.checked_sub(1).map(|p| &toks[p]);
            let next = toks.get(i + 1);
            if (t.is("unwrap") || t.is("expect"))
                && prev.is_some_and(|p| p.is_punct("."))
                && next.is_some_and(|n| n.is_punct("("))
            {
                out.push(diag(
                    PANIC_FREEDOM,
                    file,
                    t,
                    format!("`.{}()` in fail-closed module; return a typed error", t.text),
                ));
            } else if (t.is("panic") || t.is("todo") || t.is("unimplemented"))
                && next.is_some_and(|n| n.is_punct("!"))
            {
                out.push(diag(
                    PANIC_FREEDOM,
                    file,
                    t,
                    format!("`{}!` in fail-closed module; return a typed error", t.text),
                ));
            } else if t.is_punct("[") {
                let indexes = prev.is_some_and(|p| {
                    p.is_punct(")")
                        || p.is_punct("]")
                        || (p.kind == TokenKind::Ident && !is_keyword(&p.text))
                });
                // `[..]` takes the whole slice and cannot panic.
                let full_range = matches_seq(toks, i + 1, &[".", ".", "]"]);
                if indexes && !full_range {
                    out.push(diag(
                        PANIC_FREEDOM,
                        file,
                        t,
                        "slice/array indexing can panic in fail-closed module; use `.get()` or a checked helper".into(),
                    ));
                }
            }
        }
    }
    out
}

/// Rule 2: pause-window purity. Everything reachable from a
/// `// lint: pause-window` root runs while the guest is suspended — the
/// paper's headline metric — so it must not block, do I/O, read wall
/// clocks, or grow the heap.
pub(crate) fn pause_window(files: &[SourceFile]) -> Vec<Diagnostic> {
    const CONTAINERS: [&str; 10] = [
        "Vec", "String", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "VecDeque", "Box", "Rc",
        "Arc",
    ];
    let reachable = reachable_from_roots(files);
    let mut out = Vec::new();
    let mut flagged: HashSet<(usize, usize)> = HashSet::new(); // (file, token) dedup
    for &(fi, fj) in &reachable {
        let file = &files[fi];
        let f = &file.fns[fj];
        let Some((start, end)) = f.body else { continue };
        let toks = &file.tokens;
        for i in start..end.min(toks.len()) {
            let t = &toks[i];
            let found: Option<String> = if matches_seq(toks, i, &["Instant", ":", ":", "now"])
                || matches_seq(toks, i, &["SystemTime", ":", ":", "now"])
            {
                Some(format!("`{}::now` reads the wall clock", t.text))
            } else if matches_seq(toks, i, &["std", ":", ":", "fs"])
                || matches_seq(toks, i, &["std", ":", ":", "net"])
            {
                Some(format!("`std::{}` does I/O", toks[i + 3].text))
            } else if matches_seq(toks, i, &["thread", ":", ":", "sleep"]) {
                Some("`thread::sleep` blocks".into())
            } else if matches_seq(toks, i, &["thread", ":", ":", "spawn"]) {
                Some("`thread::spawn` launches an unscoped thread (allocates, may outlive the window)".into())
            } else if matches_seq(toks, i, &["thread", ":", ":", "scope"]) {
                Some("`thread::scope` spawns worker threads".into())
            } else if (t.is("println") || t.is("eprintln") || t.is("print") || t.is("eprint")
                || t.is("dbg"))
                && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
            {
                Some(format!("`{}!` does console I/O", t.text))
            } else if CONTAINERS.contains(&t.text.as_str())
                && matches_seq(toks, i + 1, &[":", ":"])
                && toks
                    .get(i + 3)
                    .is_some_and(|n| n.is("new") || n.is("with_capacity"))
                // `Vec::new` and friends are lazy (no allocation until the
                // first push); only `with_capacity` and the pointer
                // containers (`Box`/`Rc`/`Arc`, which always heap-place)
                // allocate at the call itself. Growth past the prepared
                // capacity *inside* the window is a known blind spot,
                // documented in DESIGN.md.
                && (toks[i + 3].is("with_capacity")
                    || matches!(t.text.as_str(), "Box" | "Rc" | "Arc"))
            {
                Some(format!(
                    "`{}::{}` allocates",
                    t.text,
                    toks[i + 3].text
                ))
            } else if t.is("vec")
                && matches_seq(toks, i + 1, &["!", "["])
                && !toks.get(i + 3).is_some_and(|n| n.is_punct("]"))
            {
                Some("non-empty `vec![…]` allocates".into())
            } else {
                None
            };
            if let Some(what) = found {
                if flagged.insert((fi, i)) {
                    out.push(diag(
                        PAUSE_WINDOW,
                        file,
                        t,
                        format!("{what} inside the pause window (fn `{}`)", f.name),
                    ));
                }
            }
        }
    }
    out.sort_by(|a, b| (&a.path, a.line, a.col).cmp(&(&b.path, b.line, b.col)));
    out
}

/// Rule 6: telemetry purity. The observability layer must observe the
/// pause window, not perturb it: code reachable from a
/// `// lint: pause-window` root may call the preallocated alloc-free
/// recording APIs (`record*`, `add`), but must not construct telemetry
/// objects (preallocation belongs at protect time) or render/export them
/// (string building allocates inside the measured window).
pub(crate) fn telemetry_purity(files: &[SourceFile]) -> Vec<Diagnostic> {
    const TYPES: [&str; 3] = ["Telemetry", "FlightRecorder", "Histogram"];
    const RENDERERS: [&str; 5] = [
        "render_timeline",
        "telemetry_json",
        "counters_csv",
        "phases_csv",
        "events_csv",
    ];
    let reachable = reachable_from_roots(files);
    let mut out = Vec::new();
    let mut flagged: HashSet<(usize, usize)> = HashSet::new(); // (file, token) dedup
    for &(fi, fj) in &reachable {
        let file = &files[fi];
        let f = &file.fns[fj];
        let Some((start, end)) = f.body else { continue };
        let toks = &file.tokens;
        for i in start..end.min(toks.len()) {
            let t = &toks[i];
            let found: Option<String> = if TYPES.contains(&t.text.as_str())
                && matches_seq(toks, i + 1, &[":", ":"])
                && toks
                    .get(i + 3)
                    .is_some_and(|n| n.is("new") || n.is("with_capacity"))
            {
                Some(format!(
                    "`{}::{}` preallocates telemetry; construct it at protect time",
                    t.text,
                    toks[i + 3].text
                ))
            } else if RENDERERS.contains(&t.text.as_str())
                && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            {
                Some(format!("`{}` renders telemetry (allocates strings)", t.text))
            } else {
                None
            };
            if let Some(what) = found {
                if flagged.insert((fi, i)) {
                    out.push(diag(
                        TELEMETRY_PURITY,
                        file,
                        t,
                        format!("{what} inside the pause window (fn `{}`)", f.name),
                    ));
                }
            }
        }
    }
    out.sort_by(|a, b| (&a.path, a.line, a.col).cmp(&(&b.path, b.line, b.col)));
    out
}

/// Rule 3: every named fault point is wired (a `should_inject` call site
/// outside `crates/faults`) and soaked (mentioned in the soak test) —
/// otherwise the soak's "all points fired" assertion is vacuous for it.
pub(crate) fn fault_coverage(files: &[SourceFile], config: &LintConfig) -> Vec<Diagnostic> {
    let Some(faults) = files.iter().find(|f| f.rel_path == config.faults_lib) else {
        return Vec::new(); // no fault crate in this tree: nothing to check
    };
    let soak = files.iter().find(|f| f.rel_path == config.soak_test);
    let mut out = Vec::new();
    for variant in fault_variants(faults) {
        let injected = files.iter().any(|f| {
            f.rel_path.starts_with("crates/")
                && !f.rel_path.starts_with("crates/faults/")
                && has_injection_site(f, &variant.text)
        });
        if !injected {
            out.push(diag(
                FAULT_COVERAGE,
                faults,
                variant,
                format!(
                    "fault point `{}` has no `should_inject` call site outside crates/faults",
                    variant.text
                ),
            ));
        }
        let soaked = soak.is_some_and(|s| s.tokens.iter().any(|t| t.is(&variant.text)));
        if !soaked {
            out.push(diag(
                FAULT_COVERAGE,
                faults,
                variant,
                format!(
                    "fault point `{}` is never exercised in {}",
                    variant.text, config.soak_test
                ),
            ));
        }
    }
    out
}

/// The variant tokens inside `pub const ALL: [FaultPoint; N] = [ … ];`.
fn fault_variants(file: &SourceFile) -> Vec<&Token> {
    let toks = &file.tokens;
    let Some(all_at) = toks
        .iter()
        .position(|t| t.is("ALL"))
        .filter(|&i| i > 0 && toks[i - 1].is("const"))
    else {
        return Vec::new();
    };
    let Some(open) = (all_at..toks.len()).find(|&i| toks[i].is_punct("=")) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for i in open..toks.len() {
        if toks[i].is_punct(";") {
            break;
        }
        if matches_seq(toks, i, &["FaultPoint", ":", ":"]) {
            if let Some(v) = toks.get(i + 3).filter(|t| t.kind == TokenKind::Ident) {
                out.push(v);
            }
        }
    }
    out
}

/// A production `should_inject(… FaultPoint::Variant …)` site in `file`.
fn has_injection_site(file: &SourceFile, variant: &str) -> bool {
    let toks = &file.tokens;
    (0..toks.len()).any(|i| {
        toks[i].is("should_inject")
            && !file.test_mask[i]
            && (i..(i + 8).min(toks.len())).any(|j| {
                matches_seq(toks, j, &["FaultPoint", ":", ":"])
                    && toks.get(j + 3).is_some_and(|t| t.is(variant))
            })
    })
}

/// Rule 4: typed errors only in public library signatures. `Box<dyn
/// Error>` (and `.into()` conversions to it) erase which failure happened
/// — exactly what the fail-closed dispatch in the framework switches on.
pub(crate) fn error_taxonomy(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in files {
        if !file.is_lib_source() {
            continue;
        }
        for f in &file.fns {
            if !f.is_pub || f.is_test {
                continue;
            }
            let toks = &file.tokens;
            let mut erased = false;
            for i in f.sig.0..f.sig.1.min(toks.len()) {
                if matches_seq(toks, i, &["Box", "<", "dyn"])
                    && toks[i..(i + 10).min(toks.len())]
                        .iter()
                        .any(|t| t.kind == TokenKind::Ident && t.text.ends_with("Error"))
                {
                    erased = true;
                    out.push(diag(
                        ERROR_TAXONOMY,
                        file,
                        &toks[i],
                        format!(
                            "`Box<dyn Error>` in public signature of `{}`; use the crate's typed error enum",
                            f.name
                        ),
                    ));
                }
            }
            if erased {
                if let Some((start, end)) = f.body {
                    for i in start..end.min(toks.len()) {
                        if toks[i].is("into")
                            && matches_seq(toks, i + 1, &["(", ")"])
                            && i > 0
                            && toks[i - 1].is_punct(".")
                        {
                            out.push(diag(
                                ERROR_TAXONOMY,
                                file,
                                &toks[i],
                                format!(
                                    "bare `.into()` erases the error type in `{}`",
                                    f.name
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
    out
}

/// Rule 5: hermeticity. No registry dependencies in any manifest, and no
/// wall-clock reads in test code outside the blessed timing harness.
pub(crate) fn hermeticity(
    files: &[SourceFile],
    manifests: &[Manifest],
    config: &LintConfig,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for m in manifests {
        let mut in_deps = false;
        for (ln, raw) in m.text.lines().enumerate() {
            let line = raw.trim();
            if line.starts_with('[') {
                in_deps = line.trim_matches(['[', ']']).ends_with("dependencies");
                continue;
            }
            if !in_deps || line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            let hermetic = value.contains("path") && value.contains('=')
                || value.replace(' ', "").contains("workspace=true")
                || key.trim().ends_with(".workspace"); // `foo.workspace = true`
            if !hermetic {
                out.push(Diagnostic {
                    rule: HERMETICITY,
                    path: m.rel_path.clone(),
                    line: ln as u32 + 1,
                    col: 1,
                    message: format!(
                        "dependency `{}` does not come from the workspace; registry deps break the offline build",
                        key.trim()
                    ),
                });
            }
        }
    }
    for file in files {
        if config
            .blessed_timing
            .iter()
            .any(|p| file.rel_path.starts_with(p.as_str()))
        {
            continue;
        }
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if !file.test_mask[i] {
                continue;
            }
            if matches_seq(toks, i, &["Instant", ":", ":", "now"])
                || matches_seq(toks, i, &["SystemTime", ":", ":", "now"])
            {
                out.push(diag(
                    HERMETICITY,
                    file,
                    &toks[i],
                    format!(
                        "`{}::now` in test code; tests must be deterministic (timing belongs in the bench harness)",
                        toks[i].text
                    ),
                ));
            }
        }
    }
    out
}
