//! Fleet-scale baseline: staggered, concurrent-window epoch rounds
//! ([`FleetScheduler`]) against the serial per-tenant round
//! ([`Fleet::run_epoch_round`]) at 10 / 100 / 500 tenants. Emits
//! `BENCH_fleet.json`; `scripts/bench_fleet.sh` is the wrapper that pins
//! the output location.
//!
//! Measurements per scale (the serial and the scheduled rounds each run
//! untimed for [`WARM_UP`] first):
//!
//! * **serial** — `Fleet::run_epoch_round`, every tenant on its own
//!   private pause-window pool, drains inline. Wall-clock per round
//!   set, tenant-epochs/sec, dirty pages/sec.
//! * **scheduled** — `FleetScheduler::run_round` over one
//!   [`SharedPausePool`] of leased walkers (staggered, up to
//!   `min(max_concurrent_pauses, host CPUs)` tenants inside their pause
//!   windows at once, each on its own pause lane). Same workload, same
//!   metrics, plus the fleet-level worker clamp lineage. On a
//!   single-CPU host a round runs inline with no lanes, so this section
//!   shows parity there and speedup only with real parallelism — the
//!   `speedup_scheduled_vs_serial` field is honest wall-clock either
//!   way.
//! * **mean in-window pause** — for the serial and the scheduled rounds
//!   alike, the tenants' own in-window phase histograms summed
//!   (`Histogram::sum`, exact) over the tenant-epochs recorded: whether
//!   running windows concurrently inflates the pause a guest sees.
//! * **pause under contention** — per-boundary wall-clock of
//!   [`Crimes::run_epoch_leased`] (guest work + suspend + fused walk +
//!   verdict) in a serial loop over leased walkers; p50/p99/max. Drain
//!   halves run after the timed window.
//!
//! Env:
//! * `CRIMES_BENCH_ROUNDS` rounds per scale per variant (default 4)
//! * `CRIMES_BENCH_OUT`    output path (default `BENCH_fleet.json`)
//! * `CRIMES_BENCH_SCALES` comma-separated tenant counts (default
//!   `10,100,500`)

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crimes::modules::BlacklistScanModule;
use crimes::{
    BoundaryProgress, CrimesConfig, Fleet, FleetScheduler, FleetSchedulerConfig,
};
use crimes_checkpoint::{CheckpointConfig, SharedPausePool};
use crimes_vm::Vm;

const DEFAULT_SCALES: [u64; 3] = [10, 100, 500];
/// Leases the shared pool grants concurrently (pause lanes, capped by
/// the host's CPUs).
const CONCURRENT_PAUSES: usize = 4;
/// Worker budget requested for the shared pool (clamped once at fleet
/// level, then split across the lease slots).
const POOL_WORKERS: usize = 4;
/// Guest size: small on purpose (just past the kernel's fixed page
/// floor) — the scale axis is the tenant count.
const TENANT_PAGES: usize = 320;
const TENANT_DISK_SECTORS: usize = 64;
/// Untimed rounds each side runs before its timed ones, criterion-style.
/// A host that has sat idle is slow to put a second CPU to use (a halted
/// vCPU is passed over for wake-ups until the guest kernel's balancer has
/// run: 1.1 - 1.2 s here), and a short timed window would read that, not
/// the scheduler.
const WARM_UP: Duration = Duration::from_secs(2);
/// The `work` round index of every warm-up round.
const WARM_UP_ROUND: u64 = u64::MAX;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn scales() -> Vec<u64> {
    std::env::var("CRIMES_BENCH_SCALES")
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .filter(|v: &Vec<u64>| !v.is_empty())
        .unwrap_or_else(|| DEFAULT_SCALES.to_vec())
}

/// Tenant `i`'s config: fused 2-worker walks, every fourth tenant on the
/// deferred (staged) pipeline so rounds carry real drain work to
/// overlap. `external` = served by the scheduler's shared pool.
fn tenant_config(i: u64, external: bool) -> CrimesConfig {
    let mut b = CrimesConfig::builder();
    b.epoch_interval_ms(10).pause_workers(2).external_pool(external);
    if i % 4 == 3 {
        b.staging_buffers(2);
    }
    b.build().expect("valid config")
}

fn build_fleet(tenants: u64, external: bool) -> (Fleet, BTreeMap<String, u32>) {
    let mut fleet = Fleet::new();
    let mut pids = BTreeMap::new();
    for i in 0..tenants {
        let name = format!("tenant-{i:04}");
        let mut b = Vm::builder();
        b.pages(TENANT_PAGES).disk_sectors(TENANT_DISK_SECTORS).seed(9_000 + i);
        let crimes = fleet
            .add_vm(&name, b.build(), tenant_config(i, external))
            .expect("add tenant");
        crimes.register_module(Box::new(BlacklistScanModule::bundled()));
        let pid = crimes
            .vm_mut()
            .spawn_process("svc", 0, 8)
            .expect("spawn tenant service");
        pids.insert(name, pid);
    }
    (fleet, pids)
}

/// Per-(tenant, round) guest activity: a fixed budget of dirty pages
/// plus a disk write, deterministic across variants.
fn work(
    pids: &BTreeMap<String, u32>,
    round: u64,
    name: &str,
    vm: &mut Vm,
    ms: u64,
) -> Result<(), crimes_vm::VmError> {
    let pid = *pids.get(name).expect("tenant pid");
    for k in 0..10u64 {
        let mix = round.wrapping_mul(31).wrapping_add(k);
        vm.dirty_arena_page(pid, (mix % 8) as usize, (mix % 4096) as usize, mix as u8)?;
    }
    vm.write_disk(round % u64::try_from(TENANT_DISK_SECTORS).unwrap_or(1), &[round as u8; 32])?;
    vm.advance_time(ms * 1_000_000);
    Ok(())
}

struct ScaleResult {
    tenants: u64,
    serial_s: f64,
    serial_tenants_per_sec: f64,
    serial_pages_per_sec: f64,
    scheduled_s: f64,
    scheduled_tenants_per_sec: f64,
    scheduled_pages_per_sec: f64,
    speedup: f64,
    serial_mean_pause_ms: f64,
    scheduled_mean_pause_ms: f64,
    p50_pause_ms: f64,
    p99_pause_ms: f64,
    max_pause_ms: f64,
    peak_leases: usize,
    total_leases: u64,
}

fn dirty_pages_total(fleet: &Fleet) -> u64 {
    fleet
        .aggregate_telemetry()
        .map(|t| t.dirty_pages().sum())
        .unwrap_or(0)
}

/// Mean in-window pause per tenant-epoch, from the tenants' own phase
/// histograms: every phase but the post-resume drain, summed exactly,
/// over the boundaries recorded.
fn mean_in_window_pause_ms(fleet: &Fleet) -> f64 {
    let Some(telemetry) = fleet.aggregate_telemetry() else {
        return 0.0;
    };
    let (mut ns, mut epochs) = (0u64, 0u64);
    for (label, histogram) in telemetry.phases() {
        if label != "drain" {
            ns += histogram.sum();
            epochs = epochs.max(histogram.count());
        }
    }
    ns as f64 / epochs.max(1) as f64 / 1e6
}

/// Run `round` untimed for [`WARM_UP`].
fn warm_up(mut round: impl FnMut()) {
    let until = Instant::now() + WARM_UP;
    while Instant::now() < until {
        round();
    }
}

fn percentile_ms(sorted_ns: &[u128], pct: u128) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as u128 - 1) * pct / 100) as usize;
    sorted_ns.get(idx).copied().unwrap_or(0) as f64 / 1e6
}

fn run_scale(tenants: u64, rounds: u64) -> ScaleResult {
    // Serial reference: private pools, inline drains.
    let (mut serial, pids) = build_fleet(tenants, false);
    warm_up(|| {
        serial
            .run_epoch_round(|n, vm, ms| work(&pids, WARM_UP_ROUND, n, vm, ms))
            .expect("serial warm-up round");
    });
    let warm_pages = dirty_pages_total(&serial);
    let t0 = Instant::now();
    for round in 0..rounds {
        let summary = serial
            .run_epoch_round(|n, vm, ms| work(&pids, round, n, vm, ms))
            .expect("serial round");
        assert_eq!(summary.committed.len() as u64, tenants, "clean rounds commit everywhere");
    }
    let serial_s = t0.elapsed().as_secs_f64();
    let serial_pages = dirty_pages_total(&serial) - warm_pages;
    let serial_mean_pause_ms = mean_in_window_pause_ms(&serial);
    drop(serial);

    // Scheduled: leased walkers, staggered order, concurrent windows.
    let (mut fleet, pids) = build_fleet(tenants, true);
    let mut sched = FleetScheduler::for_fleet(
        &fleet,
        FleetSchedulerConfig {
            max_concurrent_pauses: CONCURRENT_PAUSES,
            pool_workers: POOL_WORKERS,
            overlap_drains: true,
        },
    );
    warm_up(|| {
        sched
            .run_round(&mut fleet, |n, vm, ms| work(&pids, WARM_UP_ROUND, n, vm, ms))
            .expect("scheduled warm-up round");
    });
    let warm_pages = dirty_pages_total(&fleet);
    let warm_leases = sched.stats().total_leases;
    let t0 = Instant::now();
    for round in 0..rounds {
        let summary = sched
            .run_round(&mut fleet, |n, vm, ms| work(&pids, round, n, vm, ms))
            .expect("scheduled round");
        assert_eq!(summary.committed.len() as u64, tenants, "clean rounds commit everywhere");
    }
    let scheduled_s = t0.elapsed().as_secs_f64();
    let scheduled_pages = dirty_pages_total(&fleet) - warm_pages;
    let scheduled_mean_pause_ms = mean_in_window_pause_ms(&fleet);
    let stats = sched.stats();

    // Pause under contention: each boundary's leased half timed
    // individually in a serial loop over the pool's walkers; the drain
    // half runs after the timed window.
    let mut pool = SharedPausePool::new(
        stats.workers,
        TENANT_PAGES,
        CheckpointConfig::default().hypercall_steps,
        CONCURRENT_PAUSES,
    );
    let mut samples: Vec<u128> = Vec::with_capacity((tenants * rounds) as usize);
    let names: Vec<String> = fleet.names().into_iter().map(str::to_owned).collect();
    for round in 0..rounds {
        for name in &names {
            let crimes = fleet.get_mut(name).expect("tenant");
            let mut lease = pool.lease().expect("lease");
            let t0 = Instant::now();
            let progress = crimes
                .run_epoch_leased(lease.pool(), |vm, ms| work(&pids, round, name, vm, ms))
                .expect("leased boundary");
            samples.push(t0.elapsed().as_nanos());
            pool.release(lease);
            if let BoundaryProgress::NeedsDrain(pending) = progress {
                crimes.finish_boundary(pending).expect("drain");
            }
        }
    }
    samples.sort_unstable();

    let epochs = (tenants * rounds) as f64;
    ScaleResult {
        tenants,
        serial_s,
        serial_tenants_per_sec: epochs / serial_s,
        serial_pages_per_sec: serial_pages as f64 / serial_s,
        scheduled_s,
        scheduled_tenants_per_sec: epochs / scheduled_s,
        scheduled_pages_per_sec: scheduled_pages as f64 / scheduled_s,
        speedup: serial_s / scheduled_s,
        serial_mean_pause_ms,
        scheduled_mean_pause_ms,
        p50_pause_ms: percentile_ms(&samples, 50),
        p99_pause_ms: percentile_ms(&samples, 99),
        max_pause_ms: percentile_ms(&samples, 100),
        peak_leases: stats.peak_leases,
        total_leases: stats.total_leases - warm_leases,
    }
}

fn main() {
    let rounds = env_u64("CRIMES_BENCH_ROUNDS", 4);
    let out =
        std::env::var("CRIMES_BENCH_OUT").unwrap_or_else(|_| "BENCH_fleet.json".to_owned());
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Clamp lineage: build a probe scheduler once to report what the
    // fleet-level clamp grants on this host.
    let (probe_fleet, _) = build_fleet(1, true);
    let probe = FleetScheduler::for_fleet(
        &probe_fleet,
        FleetSchedulerConfig {
            max_concurrent_pauses: CONCURRENT_PAUSES,
            pool_workers: POOL_WORKERS,
            overlap_drains: true,
        },
    );
    let granted_workers = probe.stats().workers;
    let clamped = granted_workers < POOL_WORKERS;
    drop(probe);
    drop(probe_fleet);

    println!(
        "fleet baseline: {rounds} rounds/scale, shared pool {granted_workers} worker(s) \
         (requested {POOL_WORKERS}), {CONCURRENT_PAUSES} concurrent pauses, {host_cpus}-cpu host"
    );
    let mut results = Vec::new();
    for tenants in scales() {
        let r = run_scale(tenants, rounds);
        println!(
            "  {:>4} tenants: serial {:.3}s ({:.0} tenant-epochs/s, {:.0} pages/s) | \
             scheduled {:.3}s ({:.0} tenant-epochs/s, {:.0} pages/s) | speedup {:.2}x | \
             mean in-window pause serial {:.3} ms scheduled {:.3} ms | \
             leased p50 {:.3} ms p99 {:.3} ms max {:.3} ms | leases peak {} total {}",
            r.tenants,
            r.serial_s,
            r.serial_tenants_per_sec,
            r.serial_pages_per_sec,
            r.scheduled_s,
            r.scheduled_tenants_per_sec,
            r.scheduled_pages_per_sec,
            r.speedup,
            r.serial_mean_pause_ms,
            r.scheduled_mean_pause_ms,
            r.p50_pause_ms,
            r.p99_pause_ms,
            r.max_pause_ms,
            r.peak_leases,
            r.total_leases,
        );
        results.push(r);
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"workload\": \"fleet-{TENANT_PAGES}p-tenants-10-dirty-pages-per-epoch\","
    );
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    json.push_str(
        "  \"host_cpus_note\": \"the fleet scheduler clamps the shared pool's worker budget to \
         the host's CPUs once, fleet-wide, instead of letting every tenant clamp privately and \
         oversubscribe the host N-fold, and splits the granted count across the lease slots; a \
         round runs min(max_concurrent_pauses, host_cpus) pause lanes, so on a single-CPU host it \
         runs inline and speedup there reads as parity rather than gain\",\n",
    );
    let _ = writeln!(json, "  \"rounds_per_scale\": {rounds},");
    json.push_str("  \"scheduler\": {\n");
    let _ = writeln!(json, "    \"max_concurrent_pauses\": {CONCURRENT_PAUSES},");
    let _ = writeln!(json, "    \"requested_pool_workers\": {POOL_WORKERS},");
    let _ = writeln!(json, "    \"granted_pool_workers\": {granted_workers},");
    let _ = writeln!(json, "    \"fleet_worker_clamp_engaged\": {clamped}");
    json.push_str("  },\n");
    json.push_str(
        "  \"pause_metric\": \"p50/p99/max: run_epoch_leased wall-clock (guest work + suspend + \
         fused walk + verdict) per tenant boundary in a serial loop over leased walkers, drain \
         halves after the timed window; *_mean_in_window_pause_ms: the tenants' own in-window \
         phase histograms (exact sums) per tenant-epoch of the serial and of the scheduled \
         rounds\",\n",
    );
    json.push_str("  \"scales\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"tenants\": {}, \"serial_s\": {:.4}, \"scheduled_s\": {:.4}, \
             \"tenants_per_sec\": {:.1}, \"pages_per_sec\": {:.1}, \
             \"serial_tenants_per_sec\": {:.1}, \"serial_pages_per_sec\": {:.1}, \
             \"speedup_scheduled_vs_serial\": {:.3}, \
             \"serial_mean_in_window_pause_ms\": {:.4}, \
             \"scheduled_mean_in_window_pause_ms\": {:.4}, \"p50_pause_ms\": {:.4}, \
             \"p99_pause_ms\": {:.4}, \"max_pause_ms\": {:.4}, \
             \"peak_leases\": {}, \"total_leases\": {}}}",
            r.tenants,
            r.serial_s,
            r.scheduled_s,
            r.scheduled_tenants_per_sec,
            r.scheduled_pages_per_sec,
            r.serial_tenants_per_sec,
            r.serial_pages_per_sec,
            r.speedup,
            r.serial_mean_pause_ms,
            r.scheduled_mean_pause_ms,
            r.p50_pause_ms,
            r.p99_pause_ms,
            r.max_pause_ms,
            r.peak_leases,
            r.total_leases,
        );
        json.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, json).expect("write json");
    println!("wrote {out}");
}
