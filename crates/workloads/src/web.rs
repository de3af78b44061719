//! Web-server workloads: the `wrk`/NGINX experiment of §5.4 (Figure 7) and
//! the Light/Medium/High intensities behind Table 1.
//!
//! Two pieces:
//!
//! * [`WebSim`] — a discrete-event simulation of a closed-loop HTTP
//!   benchmark against a server whose outputs are buffered by CRIMES.
//!   Clients open a TCP connection per request (the paper notes the
//!   three-way handshake dominates for small files), the server pauses
//!   during checkpoint windows, and — under Synchronous Safety — every
//!   server→client message is held until the end-of-epoch release.
//!   Latency and throughput come out of the event timeline.
//! * [`WebServerWorkload`] — drives real dirty pages on a `crimes-vm`
//!   guest at Light/Medium/High request intensity, producing the
//!   checkpoint-phase load Table 1 breaks down.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crimes_rng::ChaCha8Rng;

use crimes_vm::{Vm, VmError, PAGE_SIZE};

/// Output-release policy of the simulated hypervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WebMode {
    /// No checkpointing at all (the normalisation baseline).
    Baseline,
    /// Checkpoint pauses + buffered outputs released after each audit.
    Synchronous,
    /// Checkpoint pauses, but outputs pass through immediately.
    BestEffort,
}

/// Configuration of one web-benchmark run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WebSimConfig {
    /// Concurrent closed-loop connections.
    pub connections: usize,
    /// Server capacity in requests per second.
    pub server_rate_rps: f64,
    /// Client↔server round-trip time in milliseconds.
    pub rtt_ms: f64,
    /// Epoch interval in milliseconds (ignored for `Baseline`).
    pub epoch_interval_ms: f64,
    /// Checkpoint pause (suspend+audit+copy) per epoch in milliseconds.
    pub pause_ms: f64,
    /// Release policy.
    pub mode: WebMode,
    /// Reuse connections across requests (HTTP keep-alive). The paper's
    /// clients open a connection per request ("the three-way handshake at
    /// the start of new TCP connections" dominates, §5.4); keep-alive
    /// halves the buffered round-trips per request and is exposed as a
    /// sensitivity knob.
    pub keepalive: bool,
    /// Simulated duration in milliseconds.
    pub sim_ms: f64,
}

impl WebSimConfig {
    /// The paper's baseline setup: NGINX at ~17 k req/s, 2.83 ms latency.
    pub fn baseline() -> Self {
        WebSimConfig {
            connections: 48,
            server_rate_rps: 17_094.0,
            rtt_ms: 1.0,
            epoch_interval_ms: 0.0,
            pause_ms: 0.0,
            mode: WebMode::Baseline,
            keepalive: false,
            sim_ms: 20_000.0,
        }
    }

    /// The baseline with checkpointing at `interval_ms`/`pause_ms` in
    /// `mode`.
    pub fn with_checkpointing(interval_ms: f64, pause_ms: f64, mode: WebMode) -> Self {
        WebSimConfig {
            epoch_interval_ms: interval_ms,
            pause_ms,
            mode,
            ..WebSimConfig::baseline()
        }
    }
}

/// Results of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WebSimResult {
    /// Completed requests.
    pub completed: u64,
    /// Mean request latency in milliseconds.
    pub mean_latency_ms: f64,
    /// Maximum request latency in milliseconds.
    pub max_latency_ms: f64,
    /// Achieved throughput in requests per second.
    pub throughput_rps: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// SYN arrives at the server.
    SynArrive(usize),
    /// GET arrives at the server.
    GetArrive(usize),
    /// A server→client message reaches the client.
    SynAckAtClient(usize),
    /// The response reaches the client: request complete.
    ResponseAtClient(usize),
}

/// The discrete-event web benchmark.
#[derive(Debug)]
pub struct WebSim {
    cfg: WebSimConfig,
    events: BinaryHeap<Reverse<(u64, usize, Ev)>>,
    /// Per-connection start time of the in-flight request (ns).
    started: Vec<u64>,
    /// Whether each connection already completed its handshake.
    connected: Vec<bool>,
    server_free_at: u64,
    seq: usize,
    completed: u64,
    latency_sum_ns: u64,
    latency_max_ns: u64,
}

const MS: f64 = 1_000_000.0; // ns per ms

impl WebSim {
    /// Run the benchmark to completion and report results.
    ///
    /// # Panics
    ///
    /// Panics on non-positive rates or an empty connection pool.
    pub fn run(cfg: WebSimConfig) -> WebSimResult {
        assert!(cfg.connections > 0, "need at least one connection");
        assert!(cfg.server_rate_rps > 0.0, "server rate must be positive");
        let mut sim = WebSim {
            cfg,
            events: BinaryHeap::new(),
            started: vec![0; cfg.connections],
            connected: vec![false; cfg.connections],
            server_free_at: 0,
            seq: 0,
            completed: 0,
            latency_sum_ns: 0,
            latency_max_ns: 0,
        };
        for conn in 0..cfg.connections {
            sim.start_request(conn, (conn as u64) * 1_000); // staggered µs
        }
        let horizon = (cfg.sim_ms * MS) as u64;
        while let Some(Reverse((t, _, ev))) = sim.events.pop() {
            if t > horizon {
                break;
            }
            sim.handle(t, ev);
        }
        let sim_s = cfg.sim_ms / 1_000.0;
        WebSimResult {
            completed: sim.completed,
            mean_latency_ms: if sim.completed > 0 {
                sim.latency_sum_ns as f64 / sim.completed as f64 / MS
            } else {
                f64::INFINITY
            },
            max_latency_ms: sim.latency_max_ns as f64 / MS,
            throughput_rps: sim.completed as f64 / sim_s,
        }
    }

    fn handle(&mut self, t: u64, ev: Ev) {
        let half_rtt = (self.cfg.rtt_ms / 2.0 * MS) as u64;
        match ev {
            Ev::SynArrive(conn) => {
                // SYN-ACK is control-plane: sent immediately, but it is an
                // external output, so it obeys the release policy.
                let sent = self.release_time(t);
                self.push(sent + half_rtt, Ev::SynAckAtClient(conn));
            }
            Ev::SynAckAtClient(conn) => {
                // Handshake complete; client sends ACK+GET.
                self.connected[conn] = true;
                self.push(t + half_rtt, Ev::GetArrive(conn));
            }
            Ev::GetArrive(conn) => {
                // FIFO single-server queue; the server only works outside
                // checkpoint pause windows.
                let service_ns = (1_000.0 / self.cfg.server_rate_rps * MS) as u64;
                let start = self.next_running_instant(self.server_free_at.max(t));
                let done = self.advance_running(start, service_ns);
                self.server_free_at = done;
                let sent = self.release_time(done);
                self.push(sent + half_rtt, Ev::ResponseAtClient(conn));
            }
            Ev::ResponseAtClient(conn) => {
                let latency = t - self.started[conn];
                self.completed += 1;
                self.latency_sum_ns += latency;
                self.latency_max_ns = self.latency_max_ns.max(latency);
                // Closed loop: issue the next request immediately, reusing
                // the connection under keep-alive, reconnecting otherwise.
                if !self.cfg.keepalive {
                    self.connected[conn] = false;
                }
                self.start_request(conn, t);
            }
        }
    }

    fn start_request(&mut self, conn: usize, t: u64) {
        self.started[conn] = t;
        let half_rtt = (self.cfg.rtt_ms / 2.0 * MS) as u64;
        if self.connected[conn] {
            // Keep-alive: the GET goes straight out.
            self.push(t + half_rtt, Ev::GetArrive(conn));
        } else {
            self.push(t + half_rtt, Ev::SynArrive(conn));
        }
    }

    fn push(&mut self, t: u64, ev: Ev) {
        self.seq += 1;
        self.events.push(Reverse((t, self.seq, ev)));
    }

    /// Cycle period in ns, or `None` when not checkpointing.
    fn cycle(&self) -> Option<(u64, u64)> {
        if self.cfg.mode == WebMode::Baseline || self.cfg.epoch_interval_ms <= 0.0 {
            return None;
        }
        let run = (self.cfg.epoch_interval_ms * MS) as u64;
        let pause = (self.cfg.pause_ms * MS) as u64;
        Some((run, pause))
    }

    /// When an output generated at `t` actually leaves the machine.
    fn release_time(&self, t: u64) -> u64 {
        match (self.cfg.mode, self.cycle()) {
            (WebMode::Synchronous, Some((run, pause))) => {
                let period = run + pause;
                let k = t / period;
                // Outputs of epoch k are released once its audit completes.
                k * period + run + pause
            }
            _ => t,
        }
    }

    /// Earliest instant ≥ `t` at which the server is running.
    fn next_running_instant(&self, t: u64) -> u64 {
        match self.cycle() {
            None => t,
            Some((run, pause)) => {
                let period = run + pause;
                let pos = t % period;
                if pos < run {
                    t
                } else {
                    t + (period - pos)
                }
            }
        }
    }

    /// Advance `work` ns of server time starting at `t`, skipping pauses.
    fn advance_running(&self, mut t: u64, mut work: u64) -> u64 {
        match self.cycle() {
            None => t + work,
            Some((run, pause)) => {
                let period = run + pause;
                loop {
                    t = self.next_running_instant(t);
                    let pos = t % period;
                    let window = run - pos;
                    if work <= window {
                        return t + work;
                    }
                    work -= window;
                    t += window;
                }
            }
        }
    }
}

/// The three web-workload intensities of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WebIntensity {
    /// Light request load.
    Light,
    /// Medium request load.
    Medium,
    /// High request load.
    High,
}

impl WebIntensity {
    /// All intensities, in the table's order.
    pub const ALL: [WebIntensity; 3] = [
        WebIntensity::Light,
        WebIntensity::Medium,
        WebIntensity::High,
    ];

    /// The row label used in Table 1.
    pub fn label(self) -> &'static str {
        match self {
            WebIntensity::Light => "Light",
            WebIntensity::Medium => "Medium",
            WebIntensity::High => "High",
        }
    }

    /// Requests per second driven against the guest, calibrated so the
    /// per-epoch dirty volumes scale like the paper's copy-time rows
    /// (12.58 : 14.63 : 19.98).
    pub fn requests_per_sec(self) -> f64 {
        match self {
            WebIntensity::Light => 3_000.0,
            WebIntensity::Medium => 3_600.0,
            WebIntensity::High => 5_200.0,
        }
    }
}

/// Pages dirtied per served request (socket buffers, access log, response
/// assembly).
const PAGES_PER_REQUEST: usize = 16;

/// Arena pages of the simulated NGINX worker.
const SERVER_FOOTPRINT_PAGES: usize = 3000;

/// A web-server process driving real dirty pages on a guest.
#[derive(Debug, Clone)]
pub struct WebServerWorkload {
    pid: u32,
    intensity: WebIntensity,
    rng: ChaCha8Rng,
    request_debt: f64,
    total_requests: u64,
}

impl WebServerWorkload {
    /// Launch the server process in `vm`.
    ///
    /// # Errors
    ///
    /// Fails if the guest lacks memory for the server footprint.
    pub fn launch(vm: &mut Vm, intensity: WebIntensity, seed: u64) -> Result<Self, VmError> {
        let pid = vm.spawn_process("nginx", 33, SERVER_FOOTPRINT_PAGES)?;
        Ok(WebServerWorkload {
            pid,
            intensity,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x3b97),
            request_debt: 0.0,
            total_requests: 0,
        })
    }

    /// The server's guest pid.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Requests served so far.
    pub fn total_requests(&self) -> u64 {
        self.total_requests
    }

    /// Serve `ms` milliseconds of traffic: each request dirties
    /// a fixed number of pages of the worker arena.
    ///
    /// # Errors
    ///
    /// Propagates guest faults (cannot occur with in-range pages).
    pub fn run_ms(&mut self, vm: &mut Vm, ms: u64) -> Result<(), VmError> {
        self.request_debt += self.intensity.requests_per_sec() * ms as f64 / 1_000.0;
        let requests = self.request_debt as u64;
        self.request_debt -= requests as f64;
        for _ in 0..requests {
            for _ in 0..PAGES_PER_REQUEST {
                let page = self.rng.gen_range(0..SERVER_FOOTPRINT_PAGES);
                let offset = self.rng.gen_range(0..PAGE_SIZE);
                vm.dirty_arena_page(self.pid, page, offset, self.rng.gen())?;
            }
        }
        self.total_requests += requests;
        vm.advance_time(ms * 1_000_000);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper_scale() {
        let r = WebSim::run(WebSimConfig::baseline());
        // Closed loop at server capacity: throughput near 17 k req/s and
        // latency in the low milliseconds.
        assert!(r.throughput_rps > 10_000.0, "throughput {r:?}");
        assert!(r.mean_latency_ms > 1.0 && r.mean_latency_ms < 10.0, "{r:?}");
        assert!(r.completed > 100_000);
    }

    #[test]
    fn synchronous_latency_grows_with_interval() {
        let lat = |interval| {
            WebSim::run(WebSimConfig::with_checkpointing(
                interval,
                3.0,
                WebMode::Synchronous,
            ))
            .mean_latency_ms
        };
        let l20 = lat(20.0);
        let l200 = lat(200.0);
        let base = WebSim::run(WebSimConfig::baseline()).mean_latency_ms;
        assert!(l20 > base, "buffering must add latency: {l20} vs {base}");
        assert!(l200 > 2.0 * l20, "latency must grow with interval");
    }

    #[test]
    fn synchronous_throughput_collapses_with_interval() {
        let tput = |interval| {
            WebSim::run(WebSimConfig::with_checkpointing(
                interval,
                3.0,
                WebMode::Synchronous,
            ))
            .throughput_rps
        };
        let base = WebSim::run(WebSimConfig::baseline()).throughput_rps;
        let t20 = tput(20.0);
        let t200 = tput(200.0);
        assert!(t20 < base);
        assert!(
            t200 < t20 / 2.0,
            "closed-loop throughput must fall with interval: {t20} -> {t200}"
        );
    }

    #[test]
    fn best_effort_stays_near_baseline() {
        let base = WebSim::run(WebSimConfig::baseline());
        let be = WebSim::run(WebSimConfig::with_checkpointing(
            100.0,
            2.0,
            WebMode::BestEffort,
        ));
        // Only the pause windows cost anything: a few percent.
        assert!(be.throughput_rps > 0.85 * base.throughput_rps, "{be:?}");
        assert!(be.mean_latency_ms < 2.5 * base.mean_latency_ms, "{be:?}");
    }

    #[test]
    fn best_effort_beats_synchronous() {
        let sync = WebSim::run(WebSimConfig::with_checkpointing(
            100.0,
            2.0,
            WebMode::Synchronous,
        ));
        let be = WebSim::run(WebSimConfig::with_checkpointing(
            100.0,
            2.0,
            WebMode::BestEffort,
        ));
        assert!(be.throughput_rps > sync.throughput_rps);
        assert!(be.mean_latency_ms < sync.mean_latency_ms);
    }

    #[test]
    fn release_time_lands_on_epoch_boundaries() {
        let cfg = WebSimConfig::with_checkpointing(10.0, 2.0, WebMode::Synchronous);
        let sim = WebSim {
            cfg,
            events: BinaryHeap::new(),
            started: vec![0; 1],
            connected: vec![false; 1],
            server_free_at: 0,
            seq: 0,
            completed: 0,
            latency_sum_ns: 0,
            latency_max_ns: 0,
        };
        let period = (12.0 * MS) as u64;
        // An output at t=1ms (epoch 0) releases at 12ms.
        assert_eq!(sim.release_time((1.0 * MS) as u64), period);
        // An output at t=13ms (epoch 1) releases at 24ms.
        assert_eq!(sim.release_time((13.0 * MS) as u64), 2 * period);
    }

    #[test]
    fn server_skips_pause_windows() {
        let cfg = WebSimConfig::with_checkpointing(10.0, 5.0, WebMode::Synchronous);
        let sim = WebSim {
            cfg,
            events: BinaryHeap::new(),
            started: vec![0; 1],
            connected: vec![false; 1],
            server_free_at: 0,
            seq: 0,
            completed: 0,
            latency_sum_ns: 0,
            latency_max_ns: 0,
        };
        // t=11ms is inside the pause [10,15); next running instant is 15ms.
        let t = (11.0 * MS) as u64;
        assert_eq!(sim.next_running_instant(t), (15.0 * MS) as u64);
        // 12ms of work starting at 0 crosses one pause: finishes at 17ms.
        let done = sim.advance_running(0, (12.0 * MS) as u64);
        assert_eq!(done, (17.0 * MS) as u64);
    }

    #[test]
    fn intensities_scale_dirty_volume() {
        let unique_for = |intensity| {
            let mut b = Vm::builder();
            b.pages(8192).seed(77);
            let mut vm = b.build();
            let mut w = WebServerWorkload::launch(&mut vm, intensity, 5).unwrap();
            vm.memory_mut().clear_dirty();
            w.run_ms(&mut vm, 20).unwrap();
            vm.memory().dirty().count()
        };
        let light = unique_for(WebIntensity::Light);
        let medium = unique_for(WebIntensity::Medium);
        let high = unique_for(WebIntensity::High);
        assert!(light < medium && medium < high, "{light} {medium} {high}");
        // The paper's copy rows scale ~1 : 1.16 : 1.59.
        let ratio = high as f64 / light as f64;
        assert!(
            (1.3..2.1).contains(&ratio),
            "high/light unique-page ratio {ratio}"
        );
    }

    #[test]
    fn web_workload_counts_requests() {
        let mut b = Vm::builder();
        b.pages(8192).seed(1);
        let mut vm = b.build();
        let mut w = WebServerWorkload::launch(&mut vm, WebIntensity::Light, 3).unwrap();
        w.run_ms(&mut vm, 1000).unwrap();
        assert_eq!(w.total_requests(), 3000);
    }

    #[test]
    fn keepalive_roughly_doubles_synchronous_throughput() {
        // One buffered hop per request instead of two.
        let base = WebSimConfig::with_checkpointing(100.0, 2.0, WebMode::Synchronous);
        let no_ka = WebSim::run(base);
        let ka = WebSim::run(WebSimConfig { keepalive: true, ..base });
        let ratio = ka.throughput_rps / no_ka.throughput_rps;
        assert!(
            (1.5..2.5).contains(&ratio),
            "keep-alive throughput ratio {ratio} (expected ~2x)"
        );
        assert!(ka.mean_latency_ms < no_ka.mean_latency_ms);
    }

    #[test]
    fn keepalive_does_not_change_the_baseline_much() {
        let no_ka = WebSim::run(WebSimConfig::baseline());
        let ka = WebSim::run(WebSimConfig { keepalive: true, ..WebSimConfig::baseline() });
        // Without buffering the handshake is a sub-ms cost.
        assert!(ka.throughput_rps >= no_ka.throughput_rps);
        assert!(ka.throughput_rps < no_ka.throughput_rps * 2.0);
    }

    #[test]
    fn intensity_labels_match_table() {
        let labels: Vec<&str> = WebIntensity::ALL.iter().map(|i| i.label()).collect();
        assert_eq!(labels, vec!["Light", "Medium", "High"]);
    }
}
