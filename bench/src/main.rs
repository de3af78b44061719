//! The repo benchmark: end-to-end epoch, drain and fleet workloads,
//! driven through public API only and measured from outside.
//!
//! ```text
//! crimes-e2e-bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! crimes-e2e-bench --smoke
//! ```
//!
//! One workload per process. The last line of standard output is one JSON
//! object `{correct, attempted, failed, metrics}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The same
//! numbers, with sample counts, checks and the fingerprint, are written
//! to `bench/out/<workload>.json`, and a traced run also writes its span
//! tree to `bench/out/trace-<workload>.json`. The harness takes no other
//! knobs and reads no environment variables.

mod fleet;
mod ledger;
mod run;
mod shadow;
mod single;
mod stats;
mod tenant;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use run::{Metric, Opts, Run};

const DEFAULT_SEED: u64 = 11;
const DEFAULT_SECONDS: f64 = 10.0;
/// `--smoke` runs every workload, untraced and traced, this much shorter.
const SMOKE_DIVISOR: f64 = 50.0;

const WORKLOADS: [&str; 5] = [
    "web_inline",
    "parsec_inline",
    "web_drain",
    "bulk_drain",
    fleet::NAME,
];

/// Fingerprints recorded when the benchmark was defined, per (workload,
/// seed). A change that only makes things faster must leave them as they
/// are; other seeds are not checked.
const FINGERPRINTS: [(&str, u64, u64); 10] = [
    ("web_inline", 11, 0x53ee_8a68_b6d3_a3f1),
    ("parsec_inline", 11, 0xa4a3_816b_3e12_2cce),
    ("web_drain", 11, 0xcc21_0d68_fd0e_0b90),
    ("bulk_drain", 11, 0xe89c_5934_f502_ee41),
    (fleet::NAME, 11, 0xb593_b447_6fb4_6519),
    ("web_inline", 12, 0xa3d3_505c_a955_8fcf),
    ("parsec_inline", 12, 0xd784_5469_f996_0fcc),
    ("web_drain", 12, 0x5ff9_375c_80dc_9bce),
    ("bulk_drain", 12, 0x5d85_4779_c4bc_0196),
    (fleet::NAME, 12, 0x5e34_631b_0e1a_bc94),
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: crimes-e2e-bench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       \
         crimes-e2e-bench --smoke",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn run_workload(name: &str, opts: Opts) -> Option<Run> {
    if name == fleet::NAME {
        return Some(fleet::run(opts));
    }
    let spec = single::SPECS.iter().find(|s| s.name == name)?;
    Some(single::run(spec, opts))
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let samples = if with_samples {
                format!(", \"samples\": {}", m.samples)
            } else {
                String::new()
            };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"{samples}}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Check the run's fingerprint against the recorded one, if this
/// (workload, seed) has one and the run got far enough to take it.
fn check_fingerprint(run: &mut Run) {
    let recorded = FINGERPRINTS
        .iter()
        .find(|&&(w, seed, _)| w == run.workload && seed == run.opts.seed)
        .map(|&(_, _, fp)| fp);
    if let (Some(recorded), Some(seen)) = (recorded, run.fingerprint) {
        run.check("the fingerprint repeats the recorded one", recorded == seen);
    }
}

/// The detail file: everything the run measured, for people and for
/// `run.sh` / `agree.sh`.
fn detail_json(run: &Run, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"workload\": \"{}\",", run.workload);
    let _ = writeln!(out, "  \"seed\": {},", run.opts.seed);
    let _ = writeln!(out, "  \"seconds\": {},", number(run.opts.seconds));
    let _ = writeln!(out, "  \"traced\": {},", run.opts.trace);
    let _ = writeln!(
        out,
        "  \"host_cpus\": {},",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let _ = writeln!(out, "  \"correct\": {},", run.correct());
    let _ = writeln!(out, "  \"valid\": {},", run.valid());
    let _ = writeln!(out, "  \"attempted\": {},", run.attempted);
    let _ = writeln!(out, "  \"failed\": {},", run.failed);
    let _ = writeln!(out, "  \"extended\": {},", run.extended);
    let _ = writeln!(out, "  \"attacks_launched\": {},", run.attacks_launched);
    let _ = writeln!(out, "  \"attacks_detected\": {},", run.attacks_detected);
    let fingerprint = run
        .fingerprint
        .map_or("null".to_owned(), |fp| format!("\"{fp:016x}\""));
    let _ = writeln!(out, "  \"fingerprint\": {fingerprint},");
    let checks: Vec<String> = run
        .checks
        .iter()
        .map(|c| format!("    {{\"name\": \"{}\", \"ok\": {}}}", c.name, c.ok))
        .collect();
    let _ = writeln!(out, "  \"checks\": [\n{}\n  ],", checks.join(",\n"));
    let timings: Vec<String> = run
        .timing_detail()
        .into_iter()
        .map(|t| {
            let tail = t.tail.map_or("null".to_owned(), |(pct, v)| {
                format!("{{\"percentile\": {pct}, \"value\": {}}}", number(v))
            });
            format!(
                "    {{\"name\": \"{}\", \"samples\": {}, \"p50\": {}, \"highest_supported_tail\": {tail}}}",
                t.name,
                t.samples,
                number(t.p50)
            )
        })
        .collect();
    let _ = writeln!(out, "  \"timings\": [\n{}\n  ],", timings.join(",\n"));
    let unsupported: Vec<String> = run
        .unsupported_tails()
        .iter()
        .map(|n| format!("\"{n}\""))
        .collect();
    let _ = writeln!(
        out,
        "  \"unsupported_tails\": [{}],",
        unsupported.join(", ")
    );
    let _ = writeln!(out, "  \"metrics\": {}", metrics_json(metrics, true));
    let _ = writeln!(out, "}}");
    out
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn write_out(file: &str, body: &str) {
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(file), body));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", dir.join(file).display());
    }
}

/// Run one workload, print its table and result line, write its files.
/// Returns whether every check passed.
fn report(name: &str, opts: Opts) -> Option<bool> {
    let mut run = run_workload(name, opts)?;
    check_fingerprint(&mut run);
    let metrics = if opts.trace {
        run.per_layer()
    } else {
        run.end_to_end()
    };

    println!(
        "== {} seed {} {} s {} ==",
        run.workload,
        opts.seed,
        opts.seconds,
        if opts.trace { "traced" } else { "untraced" }
    );
    for m in &metrics {
        println!(
            "{:<36} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    if opts.trace {
        let unattributed = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        println!(
            "unattributed: pause {:.4} ms, drain {:.4} ms (seam p50 - modelled - shadow kernels)",
            unattributed("crimes.pause_unattributed_ms"),
            unattributed("crimes.drain_unattributed_ms")
        );
    }
    for check in &run.checks {
        println!(
            "check {:<60} {}",
            check.name,
            if check.ok { "ok" } else { "FAILED" }
        );
    }
    if let Some(fp) = run.fingerprint {
        println!("fingerprint {fp:016x}");
    }
    if !opts.smoke {
        for tail in run.unsupported_tails() {
            eprintln!("warning: {tail} has fewer than ten samples beyond it at this run length");
        }
    }
    if !run.valid() {
        eprintln!(
            "warning: {:.3} % of epochs were extended by host stalls; rerun for trustworthy tails",
            run.extended_share() * 100.0
        );
    }

    let stem = if opts.trace {
        format!("trace-{name}")
    } else {
        name.to_owned()
    };
    if opts.trace {
        write_out(
            &format!("{stem}.json"),
            &run.tracer.to_json(run.workload, opts.seed),
        );
        write_out(&format!("layers-{name}.json"), &detail_json(&run, &metrics));
    } else {
        write_out(&format!("{stem}.json"), &detail_json(&run, &metrics));
    }

    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.correct(),
        run.attempted.max(1),
        run.failed,
        metrics_json(&metrics, false)
    );
    Some(run.correct())
}

fn main() -> ExitCode {
    let mut workload: Option<String> = None;
    let mut opts = Opts {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = if flag == "--smoke" { None } else { args.next() };
        match (flag.as_str(), value.as_deref()) {
            ("--smoke", _) => opts.smoke = true,
            ("--workload", Some(name)) => workload = Some(name.to_owned()),
            ("--trace", Some("0")) => opts.trace = false,
            ("--trace", Some("1")) => opts.trace = true,
            ("--seed", Some(v)) => match v.parse() {
                Ok(seed) => opts.seed = seed,
                Err(_) => return usage(),
            },
            ("--seconds", Some(v)) => match v.parse::<f64>() {
                Ok(s) if s.is_finite() && s > 0.0 => opts.seconds = s,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }

    if opts.smoke {
        opts.seconds /= SMOKE_DIVISOR;
        let mut all_ok = true;
        for name in WORKLOADS {
            for trace in [false, true] {
                all_ok &= report(name, Opts { trace, ..opts }).unwrap_or(false);
            }
        }
        return if all_ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(name) = workload else { return usage() };
    match report(&name, opts) {
        // A failed check is reported in the result line, not the exit
        // code: the run itself completed.
        Some(_) => ExitCode::SUCCESS,
        None => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repo root must name exactly the workloads
    /// and metrics this harness emits.
    #[test]
    fn benchmark_json_names_what_the_harness_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let run = Run::new(
            "web_inline",
            Opts {
                seed: 1,
                seconds: 1.0,
                trace: true,
                smoke: false,
            },
        );
        let names = WORKLOADS
            .iter()
            .map(|w| (*w).to_owned())
            .chain(run.end_to_end().into_iter().map(|m| m.name.to_owned()))
            .chain(run.per_layer().into_iter().map(|m| m.name.to_owned()));
        let mut expected = 0;
        for name in names {
            assert!(
                text.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
            expected += 1;
        }
        assert_eq!(
            text.matches("\"name\": ").count(),
            expected,
            "BENCHMARK.json names something extra"
        );
    }

    #[test]
    fn result_numbers_keep_all_their_digits() {
        assert_eq!(number(1.203_456_789_012), "1.203456789012");
        assert_eq!(number(f64::NAN), "null");
        let m = [Metric {
            name: "setup_s",
            unit: "s",
            value: 0.5,
            samples: 5,
        }];
        assert_eq!(
            metrics_json(&m, false),
            "{\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}"
        );
    }
}
