//! What one benchmark run accumulates, and how it becomes metrics.
//!
//! Both the single-tenant and the fleet driver fill a [`Run`]; every
//! metric definition lives here so the two cannot drift apart.

use std::collections::BTreeMap;

use crimes_telemetry::{Counter, Telemetry};

use crate::shadow;
use crate::stats::{age_drift, median, percentile, pick_tail, sorted, supported};
use crate::trace::Tracer;

/// Epochs (or fleet rounds) run before anything is timed, so caches,
/// lazy pools and the first full-image dirty set are out of the way.
const WARMUP_EPOCHS: u64 = 50;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// `Crimes::recover` calls per run; `recover_ms` is their median.
const RECOVER_REPS: usize = 5;
/// Share of non-committed-but-safe (`Extended`) epochs past which a run
/// says more about the host's stalls than about the code.
const MAX_EXTENDED_SHARE: f64 = 0.005;

#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `--smoke` pass: one set-up, one recovery, a tenth of the
    /// warm-up. Checks everything, measures nothing worth keeping.
    pub smoke: bool,
}

impl Opts {
    pub fn warmup_epochs(&self) -> u64 {
        if self.smoke {
            WARMUP_EPOCHS / 10
        } else {
            WARMUP_EPOCHS
        }
    }

    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUP_REPS
        }
    }

    pub fn recover_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            RECOVER_REPS
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind a timing; epochs behind a count or ratio.
    pub samples: usize,
}

/// One timing of the detail file: its median and the highest percentile
/// that has ten samples beyond it (percentile, value), all in ms.
#[derive(Debug, Clone)]
pub struct TimingDetail {
    pub name: &'static str,
    pub samples: usize,
    pub p50: f64,
    pub tail: Option<(u32, f64)>,
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
}

/// Exact counts read from the program's own counters after the run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub epochs_committed: u64,
    pub dirty_pages: u64,
    pub bytes_saved: u64,
    pub dedup_hits: u64,
    pub dedup_misses: u64,
    pub zero_pages: u64,
    pub dup_pages: u64,
    pub journal_bytes: u64,
    pub peak_leases: u64,
    pub total_leases: u64,
    /// `suspend_hypercalls + resume_hypercalls` of the tenant config.
    pub modelled_hypercalls: u64,
}

impl Counts {
    /// Page and wire counters of one tenant, or of a merged fleet.
    pub fn absorb_telemetry(&mut self, telemetry: &Telemetry) {
        self.dirty_pages += telemetry.dirty_pages().sum();
        self.bytes_saved += telemetry.counter(Counter::BytesSavedDelta);
        self.dedup_hits += telemetry.counter(Counter::DedupHits);
        self.dedup_misses += telemetry.counter(Counter::DedupMisses);
    }
}

#[derive(Debug)]
pub struct Run {
    pub workload: &'static str,
    pub opts: Opts,
    pub tracer: Tracer,
    /// The `run` span every other span hangs under.
    pub root: Option<usize>,
    /// Shadow kernels that run inside this workload's pause and drain.
    pub pause_kernels: &'static [&'static str],
    pub drain_kernels: &'static [&'static str],
    pub setup_ns: Vec<u64>,
    pub pause_ns: Vec<u64>,
    /// Release lag, and whether spans were being recorded at the time.
    pub lag_ns: Vec<(u64, bool)>,
    pub round_ns: Vec<u64>,
    pub drain_ns: Vec<u64>,
    pub recover_ns: Vec<u64>,
    pub replay_ns: u64,
    pub peak_rss_mib: f64,
    /// Simulated guest time behind `pause_ns`, one interval per sample.
    pub interval_ns: u64,
    /// Tenant-epochs committed in the timed section, and its wall-clock.
    pub committed_timed: u64,
    pub timed_wall_ns: u64,
    /// Tenant-epochs run, failed, and safely extended (whole run).
    pub attempted: u64,
    pub failed: u64,
    pub extended: u64,
    pub attacks_launched: u64,
    pub attacks_detected: u64,
    pub checks: Vec<Check>,
    pub fingerprint: Option<u64>,
    pub counts: Counts,
}

impl Run {
    pub fn new(workload: &'static str, opts: Opts) -> Self {
        let mut tracer = Tracer::new();
        tracer.set_recording(opts.trace);
        let root = tracer.span(None, "run", 0, 0, 0);
        Run {
            workload,
            opts,
            tracer,
            root,
            pause_kernels: &[],
            drain_kernels: &[],
            setup_ns: Vec::new(),
            pause_ns: Vec::new(),
            lag_ns: Vec::new(),
            round_ns: Vec::new(),
            drain_ns: Vec::new(),
            recover_ns: Vec::new(),
            replay_ns: 0,
            peak_rss_mib: 0.0,
            interval_ns: 0,
            committed_timed: 0,
            timed_wall_ns: 0,
            attempted: 0,
            failed: 0,
            extended: 0,
            attacks_launched: 0,
            attacks_detected: 0,
            checks: Vec::new(),
            fingerprint: None,
            counts: Counts::default(),
        }
    }

    /// Set up several times and keep the last: one set-up is a few
    /// page-faulting allocations, too short for a single reading. Each
    /// earlier one is dropped first, so only one is ever resident.
    pub fn timed_setups<T>(&mut self, mut build: impl FnMut() -> T) -> T {
        let mut kept = None;
        for rep in 0..self.opts.setup_reps() {
            drop(kept.take());
            let t0 = self.tracer.now_ns();
            kept = Some(build());
            let t1 = self.tracer.now_ns();
            self.tracer.span(self.root, "setup", rep as u64, t0, t1);
            self.setup_ns.push(t1 - t0);
        }
        kept.expect("there is at least one set-up")
    }

    /// Read the process's peak resident set. Called before the recovery
    /// phase: that phase holds clones of the guest, backup and journal
    /// next to the live monitor, which says nothing about the monitor and
    /// makes the peak depend on the allocator's reuse of freed blocks.
    pub fn note_peak_rss(&mut self) {
        self.peak_rss_mib = peak_rss_mib();
    }

    /// Record a named check; a miss is one failed op.
    pub fn check(&mut self, name: &'static str, ok: bool) {
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check { name, ok });
    }

    /// Spans are recorded in alternating blocks of a traced run, so the
    /// same process yields both sides of the trace-overhead comparison.
    pub fn set_block_recording(&mut self, index: u64, block: u64) -> bool {
        let on = self.opts.trace && (index / block).is_multiple_of(2);
        self.tracer.set_recording(on);
        on
    }

    pub fn finish(&mut self) {
        self.tracer.set_recording(self.opts.trace);
        let end = self.tracer.now_ns();
        self.tracer.close(self.root, end);
    }

    pub fn extended_share(&self) -> f64 {
        ratio(self.extended, self.attempted)
    }

    /// A run is valid when the host stalled rarely enough for its tails
    /// to describe the code.
    pub fn valid(&self) -> bool {
        self.extended_share() <= MAX_EXTENDED_SHARE
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The end-to-end metrics, measured with tracing off.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let pause = sorted(&ms(&self.pause_ns));
        let lag = sorted(&ms(&self
            .lag_ns
            .iter()
            .map(|&(ns, _)| ns)
            .collect::<Vec<_>>()));
        let round = sorted(&ms(&self.round_ns));
        let pause_total: u64 = self.pause_ns.iter().sum();
        let timing = |name, sorted: &[f64], pct| Metric {
            name,
            unit: "ms",
            value: percentile(sorted, pct),
            samples: sorted.len(),
        };
        vec![
            Metric {
                name: "setup_s",
                unit: "s",
                value: median(
                    &self
                        .setup_ns
                        .iter()
                        .map(|&ns| ns as f64 / 1e9)
                        .collect::<Vec<_>>(),
                ),
                samples: self.setup_ns.len(),
            },
            timing("pause_ms_p50", &pause, 50),
            timing("pause_ms_p95", &pause, 95),
            timing("release_lag_ms_p50", &lag, 50),
            timing("release_lag_ms_p95", &lag, 95),
            Metric {
                name: "norm_runtime",
                unit: "ratio",
                value: ratio(self.interval_ns + pause_total, self.interval_ns),
                samples: self.pause_ns.len(),
            },
            Metric {
                name: "tenant_epochs_per_s",
                unit: "1/s",
                value: self.committed_timed as f64 / (self.timed_wall_ns.max(1) as f64 / 1e9),
                samples: usize::try_from(self.committed_timed).unwrap_or(usize::MAX),
            },
            timing("round_ms_p50", &round, 50),
            timing("round_ms_p90", &round, 90),
            Metric {
                name: "recover_ms",
                unit: "ms",
                value: median(&ms(&self.recover_ns)),
                samples: self.recover_ns.len(),
            },
            Metric {
                name: "peak_rss_mb",
                unit: "MiB",
                value: self.peak_rss_mib,
                samples: 1,
            },
        ]
    }

    /// Tail percentiles that lack ten samples beyond them at this run
    /// length (reported anyway, but flagged).
    pub fn unsupported_tails(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if !supported(self.pause_ns.len(), 95) {
            out.push("pause_ms_p95");
        }
        if !supported(self.lag_ns.len(), 95) {
            out.push("release_lag_ms_p95");
        }
        if !supported(self.round_ns.len(), 90) {
            out.push("round_ms_p90");
        }
        out
    }

    /// Every timing with the tail the guide asks for, whatever the fixed
    /// percentiles of the metric names are.
    pub fn timing_detail(&self) -> Vec<TimingDetail> {
        let lag: Vec<u64> = self.lag_ns.iter().map(|&(ns, _)| ns).collect();
        [
            ("pause_ms", &self.pause_ns),
            ("release_lag_ms", &lag),
            ("round_ms", &self.round_ns),
            ("drain_ms", &self.drain_ns),
            ("recover_ms", &self.recover_ns),
        ]
        .into_iter()
        .map(|(name, ns)| {
            let s = sorted(&ms(ns));
            let tail = pick_tail(s.len()).map(|pct| (pct, percentile(&s, pct)));
            TimingDetail {
                name,
                samples: s.len(),
                p50: percentile(&s, 50),
                tail,
            }
        })
        .collect()
    }

    /// The per-layer metrics of a traced run, from the span tree and the
    /// program's own counters.
    pub fn per_layer(&self) -> Vec<Metric> {
        let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for span in self.tracer.spans() {
            by_name
                .entry(span.name)
                .or_default()
                .push(span.duration_ns());
        }
        let spans = |name: &str| by_name.get(name).cloned().unwrap_or_default();
        let scaled = |name: &'static str, span: &str, unit: &'static str, per_ns: f64| {
            let ns = spans(span);
            Metric {
                name,
                unit,
                value: median(&ns.iter().map(|&n| n as f64 / per_ns).collect::<Vec<_>>()),
                samples: ns.len(),
            }
        };
        let kernel = |name: &'static str, span: &'static str, unit: &'static str, per_ns: f64| {
            scaled(name, span, unit, per_ns * shadow::reps(span))
        };
        let count = |name: &'static str, unit: &'static str, value: f64| Metric {
            name,
            unit,
            value,
            samples: usize::try_from(self.counts.epochs_committed).unwrap_or(usize::MAX),
        };

        let pause_p50 = median(&ms(&spans("pause")));
        let drain_ns = spans("drain");
        let drain_ms = sorted(&ms(&drain_ns));
        let drain_p50 = percentile(&drain_ms, 50);
        let hypercall = kernel("checkpoint.hypercall_ns", "checkpoint.hypercall", "ns", 1.0);
        let modelled_ms = self.counts.modelled_hypercalls as f64 * hypercall.value / 1e6;
        let kernel_ms =
            |names: &[&str]| -> f64 { names.iter().map(|n| median(&ms(&spans(n)))).sum() };
        let epochs = self.counts.epochs_committed;
        let wire_bytes = (self.counts.dirty_pages * crimes_vm::PAGE_SIZE as u64)
            .saturating_sub(self.counts.bytes_saved);

        let (traced, control): (Vec<_>, Vec<_>) = self.lag_ns.iter().partition(|&&(_, rec)| rec);
        let lag_of =
            |side: &[(u64, bool)]| median(&ms(&side.iter().map(|&(ns, _)| ns).collect::<Vec<_>>()));
        let (lag_traced, lag_control) = (lag_of(&traced), lag_of(&control));
        let overhead = if lag_control > 0.0 {
            (lag_traced / lag_control - 1.0) * 100.0
        } else {
            0.0
        };

        vec![
            scaled("crimes.work_ms_p50", "work", "ms", 1e6),
            scaled("crimes.submit_us_p50", "submit", "us", 1e3),
            Metric {
                name: "crimes.drain_ms_p50",
                unit: "ms",
                value: drain_p50,
                samples: drain_ms.len(),
            },
            Metric {
                name: "crimes.drain_ms_p95",
                unit: "ms",
                value: percentile(&drain_ms, 95),
                samples: drain_ms.len(),
            },
            Metric {
                name: "crimes.drain_age_drift",
                unit: "ratio",
                value: age_drift(&ms(&drain_ns)),
                samples: drain_ns.len(),
            },
            count("crimes.extended_share", "ratio", self.extended_share()),
            scaled("crimes.incident_ms_p50", "incident", "ms", 1e6),
            hypercall,
            count("checkpoint.modelled_pause_ms", "ms", modelled_ms),
            count(
                "checkpoint.modelled_pause_share",
                "ratio",
                if pause_p50 > 0.0 {
                    modelled_ms / pause_p50
                } else {
                    0.0
                },
            ),
            kernel("checkpoint.bitscan_us", "checkpoint.bitscan", "us", 1e3),
            kernel(
                "checkpoint.chunk_digest_us",
                "checkpoint.chunk_digest",
                "us",
                1e3,
            ),
            kernel(
                "checkpoint.content_digest_us",
                "checkpoint.content_digest",
                "us",
                1e3,
            ),
            kernel("checkpoint.scan_page_us", "checkpoint.scan_page", "us", 1e3),
            kernel(
                "checkpoint.encode_page_us",
                "checkpoint.encode_page",
                "us",
                1e3,
            ),
            count(
                "crimes.pause_unattributed_ms",
                "ms",
                pause_p50 - modelled_ms - kernel_ms(self.pause_kernels),
            ),
            count(
                "crimes.drain_unattributed_ms",
                "ms",
                drain_p50 - kernel_ms(self.drain_kernels),
            ),
            kernel("vmi.init_ms", "vmi.init", "ms", 1e6),
            kernel("vmi.process_list_us", "vmi.process_list", "us", 1e3),
            kernel("vmi.canary_scan_us", "vmi.canary_scan", "us", 1e3),
            kernel(
                "outbuf.submit_release_ns",
                "outbuf.submit_release",
                "ns",
                1.0,
            ),
            kernel("journal.append_ns", "journal.append", "ns", 1.0),
            count("journal.replay_ms", "ms", self.replay_ns as f64 / 1e6),
            count(
                "journal.bytes_per_epoch",
                "B",
                ratio(self.counts.journal_bytes, epochs),
            ),
            count(
                "checkpoint.dirty_pages_per_epoch",
                "count",
                ratio(self.counts.dirty_pages, epochs),
            ),
            count(
                "checkpoint.wire_bytes_per_epoch",
                "B",
                ratio(wire_bytes, epochs),
            ),
            count(
                "checkpoint.zero_page_ratio",
                "ratio",
                ratio(self.counts.zero_pages, self.counts.dirty_pages),
            ),
            count(
                "checkpoint.dedup_hit_ratio",
                "ratio",
                ratio(
                    self.counts.dedup_hits,
                    self.counts.dedup_hits + self.counts.dedup_misses,
                ),
            ),
            count(
                "scheduler.peak_leases",
                "count",
                self.counts.peak_leases as f64,
            ),
            count(
                "scheduler.total_leases",
                "count",
                self.counts.total_leases as f64,
            ),
            Metric {
                name: "trace_overhead_pct",
                unit: "%",
                value: overhead,
                samples: traced.len().min(control.len()),
            },
        ]
    }
}

fn ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

/// `a / b`, 0 when `b` is 0 (a layer that was not exercised).
fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB; 0 where the
/// kernel does not report it.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
