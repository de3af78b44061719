//! `repro` — regenerate every table and figure of the CRIMES paper.
//!
//! ```text
//! repro [--quick] [--out DIR] [EXPERIMENT...]
//!
//! EXPERIMENT: table1 fig3 fig4 fig5 fig6a fig6b table3 fig7 case1 case2
//!             ablation robustness telemetry (default: all)
//! --quick     fewer epochs/iterations per configuration
//! --out DIR   CSV output directory (default target/repro)
//! ```

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use crimes_bench::experiments::{
    ablation, cases, fig3, fig4, fig5, fig6, fig7, robustness, table1, table3, telemetry,
};

const ALL: [&str; 13] = [
    "table1", "fig3", "fig4", "fig5", "fig6a", "fig6b", "table3", "fig7", "case1", "case2",
    "ablation", "robustness", "telemetry",
];

fn main() -> ExitCode {
    let mut quick = false;
    let mut out_dir = PathBuf::from("target/repro");
    let mut selected: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: repro [--quick] [--out DIR] [{}]", ALL.join("|"));
                return ExitCode::SUCCESS;
            }
            name if ALL.contains(&name.trim_start_matches("--")) => {
                selected.push(name.trim_start_matches("--").to_owned());
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    if selected.is_empty() {
        selected = ALL.iter().map(|s| (*s).to_owned()).collect();
    }

    // Epoch counts: enough for stable means, small enough to finish fast.
    let (epochs, iters) = if quick { (4, 3) } else { (12, 10) };
    let out = Some(out_dir.as_path());

    println!(
        "CRIMES reproduction harness ({} mode); CSVs -> {}\n",
        if quick { "quick" } else { "full" },
        out_dir.display()
    );
    for name in &selected {
        let t0 = Instant::now();
        let text = match name.as_str() {
            "table1" => table1::run(epochs).render(out),
            "fig3" => fig3::run(epochs).render(out),
            "fig4" => fig4::run(epochs).render(out),
            "fig5" => fig5::run(epochs).render(out),
            "fig6a" => fig6::run_a(epochs).render(out),
            "fig6b" => fig6::run_b(iters, 0.01).render(out),
            "table3" => table3::run(iters, iters * 10).render(out),
            "fig7" => fig7::run(epochs.min(6)).render(out),
            "case1" => cases::run_case1().render(),
            "case2" => cases::run_case2().render(),
            "ablation" => ablation::render(epochs, out),
            "robustness" => {
                robustness::run(if quick { 200 } else { 800 }, 0x5eed_fa11).render(out)
            }
            "telemetry" => {
                telemetry::run(if quick { 150 } else { 600 }, 0x7e1e_5eed).render(out)
            }
            other => unreachable!("filtered above: {other}"),
        };
        println!("{text}");
        println!("[{name} completed in {:.1}s]\n", t0.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}
