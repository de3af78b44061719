//! Telemetry recording overhead: what the preallocated counters,
//! log-bucketed histograms, and flight-recorder ring cost per epoch
//! boundary, as a fraction of the boundary itself. Emits
//! `BENCH_telemetry_overhead.json`; `scripts/verify.sh` fails the build
//! when `overhead_pct` exceeds the 5% budget.
//!
//! Two sections:
//!
//! * **boundary** — a protected tenant runs the fig7-style web workload
//!   (8192-page guest, medium intensity, 20 ms slices, fused 4-worker
//!   boundary) and the mean epoch-boundary cost is read back from the
//!   framework's own phase histograms (recording is always on — it is
//!   not compiled out, so this is the instrumented number).
//! * **recording** — the exact telemetry call sequence a committed
//!   boundary performs (three flight-recorder events, six phase
//!   samples, dirty-page and audit-time samples, four worker-shard
//!   updates, three counter adds), amortised over a large loop.
//!
//! `overhead_pct = recording_ns_per_boundary / boundary_ns_per_epoch`.
//! The recording side is alloc-free fixed-slot arithmetic (that is what
//! the `telemetry-purity` lint rule enforces), so the ratio stays far
//! under the budget on any host.
//!
//! Env:
//! * `CRIMES_BENCH_EPOCHS`  measured epochs for the boundary section (default 30)
//! * `CRIMES_BENCH_OUT`     output path (default `BENCH_telemetry_overhead.json`)

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use crimes::modules::CanaryScanModule;
use crimes::{Crimes, CrimesConfig, EpochOutcome};
use crimes_telemetry::{Counter, EventKind, FlightRecorder, Telemetry};
use crimes_vm::Vm;
use crimes_workloads::{WebIntensity, WebServerWorkload};

/// Iterations for the amortised recording loop — large enough that the
/// per-iteration cost is stable to sub-nanosecond resolution.
const RECORD_ITERS: u64 = 200_000;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Drive the web workload under full protection and return the mean
/// epoch-boundary cost in nanoseconds, as accumulated by the telemetry
/// layer itself (sum of every phase histogram over committed epochs).
fn boundary_ns_per_epoch(epochs: u64) -> f64 {
    let mut b = Vm::builder();
    b.pages(8192).seed(5);
    let mut vm = b.build();
    let mut workload =
        WebServerWorkload::launch(&mut vm, WebIntensity::Medium, 5).expect("launch workload");
    let mut cfg = CrimesConfig::builder();
    cfg.epoch_interval_ms(20);
    cfg.pause_workers(4);
    let cfg = cfg.build().expect("valid config");
    let mut c = Crimes::protect(vm, cfg).expect("protect");
    let secret = c.vm().canary_secret();
    c.register_module(Box::new(CanaryScanModule::new(secret)));

    let mut driven = 0u64;
    while driven < epochs {
        match c.run_epoch(|vm, ms| workload.run_ms(vm, ms)) {
            Ok(EpochOutcome::Committed { .. }) => driven += 1,
            Ok(other) => panic!("clean workload must commit, got {other:?}"),
            Err(e) => panic!("epoch failed: {e}"),
        }
    }

    let (mut sum_ns, mut count) = (0u64, 0u64);
    for (_, h) in c.telemetry().phases() {
        sum_ns += h.sum();
        count = count.max(h.count());
    }
    assert!(count >= epochs, "every boundary fed the histograms");
    sum_ns as f64 / count as f64
}

/// Time the per-committed-boundary telemetry sequence, amortised.
fn recording_ns_per_boundary() -> f64 {
    let mut t = Telemetry::new(&["suspend", "vmi", "bitscan", "map", "copy", "resume"]);
    let mut r = FlightRecorder::new(64);
    let t0 = Instant::now();
    for i in 0..RECORD_ITERS {
        let now = black_box(i * 1_000);
        r.record(i, now, EventKind::EpochStart);
        r.record(i, now + 1, EventKind::AuditStaged);
        for phase in 0..6 {
            t.record_phase_ns(phase, black_box(now + phase as u64));
        }
        t.record_dirty_pages(black_box(900 + (i & 63)));
        t.record_audit_ns(black_box(250_000 + i));
        for slot in 0..4 {
            t.record_worker(slot, black_box(225), black_box(225 * 4096), 2);
        }
        t.add(Counter::VmiRetries, black_box(i) & 1);
        t.add(Counter::EpochsCommitted, 1);
        t.add(Counter::OutputsReleased, 2);
        r.record(i, now + 2, EventKind::Committed { released: 2 });
    }
    let elapsed = t0.elapsed().as_nanos();
    // Keep the accumulators live so the loop cannot be optimised away.
    black_box((t.counter(Counter::EpochsCommitted), r.recorded()));
    elapsed as f64 / RECORD_ITERS as f64
}

fn main() {
    let epochs = env_u64("CRIMES_BENCH_EPOCHS", 30);
    let out = std::env::var("CRIMES_BENCH_OUT")
        .unwrap_or_else(|_| "BENCH_telemetry_overhead.json".to_owned());
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let boundary_ns = boundary_ns_per_epoch(epochs);
    let recording_ns = recording_ns_per_boundary();
    let overhead_pct = recording_ns / boundary_ns * 100.0;

    println!("boundary (fused 4-worker, web-medium-20ms-8192p, {epochs} epochs):");
    println!("  mean epoch boundary: {:.3} ms", boundary_ns / 1e6);
    println!("recording (per committed boundary, amortised over {RECORD_ITERS} iters):");
    println!("  telemetry + flight recorder: {recording_ns:.1} ns");
    println!("overhead: {overhead_pct:.4}% of the pause window (budget 5%)");

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"workload\": \"web-medium-20ms-8192p\",");
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(json, "  \"epochs\": {epochs},");
    let _ = writeln!(json, "  \"record_iters\": {RECORD_ITERS},");
    json.push_str(
        "  \"methodology\": \"boundary_ns_per_epoch is the framework's own phase histograms \
         (recording always on); recording_ns_per_boundary amortises the exact telemetry call \
         sequence of a committed boundary; overhead_pct is their ratio\",\n",
    );
    let _ = writeln!(json, "  \"boundary_ns_per_epoch\": {boundary_ns:.1},");
    let _ = writeln!(json, "  \"recording_ns_per_boundary\": {recording_ns:.1},");
    let _ = writeln!(json, "  \"overhead_budget_pct\": 5.0,");
    let _ = writeln!(json, "  \"overhead_pct\": {overhead_pct:.4}");
    json.push_str("}\n");
    std::fs::write(&out, json).expect("write json");
    println!("wrote {out}");

    assert!(
        overhead_pct <= 5.0,
        "telemetry recording overhead {overhead_pct:.4}% exceeds the 5% budget"
    );
}
