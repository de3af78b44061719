//! End-to-end checks: each fixture under `tests/fixtures/` is a miniature
//! workspace tree whose paths mirror the default [`crimes_lint::LintConfig`]
//! (so `crates/checkpoint/src/engine.rs` is fail-closed there too). Every
//! rule gets a known-bad and a known-good tree, suppression accounting is
//! exercised, and the live workspace itself must lint clean.

use std::path::PathBuf;
use std::process::Command;

use crimes_lint::{run, LintReport};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint(name: &str) -> LintReport {
    run(&fixture(name)).expect("fixture tree is readable")
}

#[test]
fn panic_freedom_flags_unwrap_and_indexing_in_fail_closed_modules() {
    let report = lint("panic-bad");
    assert_eq!(report.diagnostics.len(), 2, "{}", report.render());
    for d in &report.diagnostics {
        assert_eq!(d.rule, "panic-freedom");
        assert_eq!(d.path, "crates/checkpoint/src/engine.rs");
    }
    let lines: Vec<u32> = report.diagnostics.iter().map(|d| d.line).collect();
    assert_eq!(lines, [2, 6]);
}

#[test]
fn panic_freedom_passes_a_clean_fail_closed_module() {
    let report = lint("panic-good");
    assert!(report.ok(), "{}", report.render());
    assert!(report.diagnostics.is_empty());
}

#[test]
fn panic_freedom_covers_the_journal_module() {
    let report = lint("journal-bad");
    assert_eq!(report.diagnostics.len(), 3, "{}", report.render());
    for d in &report.diagnostics {
        assert_eq!(d.rule, "panic-freedom");
        assert_eq!(d.path, "crates/journal/src/journal.rs");
    }
    let lines: Vec<u32> = report.diagnostics.iter().map(|d| d.line).collect();
    assert_eq!(lines, [2, 2, 7], "the indexing, the expect, and the unchecked bound");
}

#[test]
fn panic_freedom_passes_a_checked_journal_module() {
    let report = lint("journal-good");
    assert!(report.ok(), "{}", report.render());
}

#[test]
fn panic_freedom_covers_the_fleet_scheduler_module() {
    // The scheduler leases the shared pause pool while guests are
    // suspended; a panic there strands every tenant in the wave, so it
    // joins the fail-closed set like the framework it drives.
    let report = lint("sched-bad");
    assert_eq!(report.diagnostics.len(), 2, "{}", report.render());
    for d in &report.diagnostics {
        assert_eq!(d.rule, "panic-freedom");
        assert_eq!(d.path, "crates/crimes/src/scheduler.rs");
    }
    let lines: Vec<u32> = report.diagnostics.iter().map(|d| d.line).collect();
    assert_eq!(lines, [2, 6], "the wave indexing and the lease expect");
}

#[test]
fn panic_freedom_passes_a_checked_fleet_scheduler_module() {
    let report = lint("sched-good");
    assert!(report.ok(), "{}", report.render());
}

#[test]
fn pause_window_flags_wall_clocks_reached_transitively() {
    let report = lint("pause-bad");
    assert_eq!(report.diagnostics.len(), 1, "{}", report.render());
    let d = &report.diagnostics[0];
    assert_eq!(d.rule, "pause-window");
    assert_eq!(d.path, "crates/x/src/lib.rs");
    assert_eq!(d.line, 7, "anchored at the Instant::now call in `helper`");
    assert!(d.message.contains("helper"), "{}", d.message);
}

#[test]
fn pause_window_ignores_functions_outside_the_root_set() {
    let report = lint("pause-good");
    assert!(report.ok(), "{}", report.render());
}

#[test]
fn pause_window_traverses_worker_pool_closures() {
    let report = lint("pause-par-bad");
    assert_eq!(report.diagnostics.len(), 2, "{}", report.render());
    let clock = &report.diagnostics[0];
    assert_eq!(clock.rule, "pause-window");
    assert_eq!(clock.line, 7, "anchored at the clock read inside the spawned closure");
    assert!(clock.message.contains("fused_walk"), "{}", clock.message);
    let spawn = &report.diagnostics[1];
    assert_eq!(spawn.line, 15);
    assert!(spawn.message.contains("thread::spawn"), "{}", spawn.message);
    // The reasoned scope allow is honoured even in the bad tree.
    assert_eq!(report.suppressed.len(), 1);
    assert!(report.suppressed[0].diagnostic.message.contains("thread::scope"));
}

#[test]
fn pause_window_accepts_a_reasoned_scope_over_pure_worker_closures() {
    let report = lint("pause-par-good");
    assert!(report.ok(), "{}", report.render());
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].diagnostic.rule, "pause-window");
    assert!(report.suppressed[0].reason.contains("preallocated"));
    assert!(report.unused_allows.is_empty(), "{}", report.render());
}

#[test]
fn pause_window_flags_a_drain_wired_into_the_window() {
    // The deferred backup pipeline's contract: staging is the only part
    // of the copy-out inside the pause window; the cipher and the backup
    // socket belong to the post-resume drain. Reaching them from a
    // window root is exactly the regression this pair pins.
    let report = lint("drain-bad");
    assert_eq!(report.diagnostics.len(), 2, "{}", report.render());
    assert!(report.diagnostics.iter().all(|d| d.rule == "pause-window"));
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.message.contains("encrypt_in_place")),
        "the cipher's sleep is flagged: {}",
        report.render()
    );
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.message.contains("stream_to_backup")),
        "the backup socket is flagged: {}",
        report.render()
    );
}

#[test]
fn pause_window_accepts_a_drain_kept_after_resume() {
    let report = lint("drain-good");
    assert!(report.ok(), "{}", report.render());
}

#[test]
fn fault_coverage_flags_variants_without_injection_or_soak() {
    let report = lint("fault-bad");
    // PageCopy has neither an injection site nor a soak mention.
    assert_eq!(report.diagnostics.len(), 2, "{}", report.render());
    for d in &report.diagnostics {
        assert_eq!(d.rule, "fault-coverage");
        assert_eq!(d.path, "crates/faults/src/lib.rs");
        assert!(d.message.contains("PageCopy"), "{}", d.message);
    }
}

#[test]
fn fault_coverage_passes_when_every_variant_is_wired() {
    let report = lint("fault-good");
    assert!(report.ok(), "{}", report.render());
}

#[test]
fn error_taxonomy_flags_boxed_dyn_error_in_public_signatures() {
    let report = lint("taxonomy-bad");
    assert!(!report.ok(), "{}", report.render());
    assert!(report.diagnostics.iter().all(|d| d.rule == "error-taxonomy"));
    assert!(
        report.diagnostics.iter().any(|d| d.line == 1),
        "the erased signature itself is flagged: {}",
        report.render()
    );
}

#[test]
fn error_taxonomy_passes_typed_errors() {
    let report = lint("taxonomy-good");
    assert!(report.ok(), "{}", report.render());
}

#[test]
fn hermeticity_flags_registry_deps_and_test_wall_clocks() {
    let report = lint("hermetic-bad");
    assert_eq!(report.diagnostics.len(), 2, "{}", report.render());
    assert!(report.diagnostics.iter().all(|d| d.rule == "hermeticity"));
    assert!(
        report.diagnostics.iter().any(|d| d.path == "Cargo.toml"),
        "the registry dependency is flagged: {}",
        report.render()
    );
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.path == "crates/x/src/lib.rs"),
        "the test wall clock is flagged: {}",
        report.render()
    );
}

#[test]
fn hermeticity_passes_path_and_workspace_deps() {
    let report = lint("hermetic-good");
    assert!(report.ok(), "{}", report.render());
}

#[test]
fn allows_suppress_matching_diagnostics_and_stale_allows_fail_the_run() {
    let report = lint("suppressed");
    assert!(
        !report.ok(),
        "a stale allow is an error, not a footnote:\n{}",
        report.render()
    );
    assert!(report.diagnostics.is_empty(), "{}", report.render());
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].diagnostic.rule, "panic-freedom");
    assert!(report.suppressed[0].reason.contains("caller guarantees Some"));
    assert_eq!(report.unused_allows.len(), 1);
    assert_eq!(report.unused_allows[0].1.rule, "pause-window");
    assert!(
        report.render().contains("error[stale-allow]"),
        "{}",
        report.render()
    );
}

#[test]
fn telemetry_purity_flags_construction_and_rendering_in_the_window() {
    let report = lint("telemetry-bad");
    assert_eq!(report.diagnostics.len(), 2, "{}", report.render());
    assert!(report
        .diagnostics
        .iter()
        .all(|d| d.rule == "telemetry-purity"));
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.message.contains("FlightRecorder::new")),
        "{}",
        report.render()
    );
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.message.contains("render_timeline")),
        "{}",
        report.render()
    );
    // Both findings anchor in the transitively reached helper.
    assert!(report.diagnostics.iter().all(|d| d.message.contains("helper")));
}

#[test]
fn telemetry_purity_accepts_alloc_free_recording() {
    let report = lint("telemetry-good");
    assert!(report.ok(), "{}", report.render());
}

#[test]
fn the_live_workspace_lints_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = run(&root).expect("workspace tree is readable");
    assert!(
        report.ok(),
        "the workspace must be free of lint errors:\n{}",
        report.render()
    );
    assert!(
        !report.suppressed.is_empty(),
        "the tree documents its known exceptions inline"
    );
    assert!(
        report.unused_allows.is_empty(),
        "no stale allow comments:\n{}",
        report.render()
    );
}

#[test]
fn the_binary_exits_nonzero_with_rustc_style_diagnostics() {
    let out = Command::new(env!("CARGO_BIN_EXE_crimes-lint"))
        .arg(fixture("panic-bad"))
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[panic-freedom]"), "{stdout}");
    assert!(
        stdout.contains("crates/checkpoint/src/engine.rs:2:"),
        "{stdout}"
    );
}

#[test]
fn the_binary_exits_zero_on_a_clean_tree() {
    let out = Command::new(env!("CARGO_BIN_EXE_crimes-lint"))
        .arg(fixture("panic-good"))
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn the_binary_distinguishes_findings_from_analyzer_errors() {
    // Findings exit 1; an unreadable tree is an analyzer error, exit 2 —
    // CI must never confuse "dirty tree" with "broken lint".
    let findings = Command::new(env!("CARGO_BIN_EXE_crimes-lint"))
        .arg(fixture("panic-bad"))
        .output()
        .expect("binary runs");
    assert_eq!(findings.status.code(), Some(1));
    let broken = Command::new(env!("CARGO_BIN_EXE_crimes-lint"))
        .arg(fixture("no-such-tree"))
        .output()
        .expect("binary runs");
    assert_eq!(broken.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&broken.stderr).contains("cannot read"));
}

#[test]
fn json_output_reports_every_rule_with_counts_and_the_allow_ledger() {
    let out = Command::new(env!("CARGO_BIN_EXE_crimes-lint"))
        .arg("--json")
        .arg(fixture("panic-bad"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"ok\": false"), "{json}");
    assert!(json.contains("\"panic-freedom\": 2"), "{json}");
    // Rules with nothing to say still appear, pinned to zero.
    assert!(json.contains("\"pause-window\": 0"), "{json}");
    assert!(json.contains("\"stale_allows\""), "{json}");
    assert!(json.contains("\"aborted\""), "{json}");
    // The human rendering moves to stderr so stdout stays parseable.
    assert!(String::from_utf8_lossy(&out.stderr).contains("error[panic-freedom]"));
}
