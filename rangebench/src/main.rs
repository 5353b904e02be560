//! `rangebench`: the SG-ML cyber range benchmark.
//!
//! ```text
//! cargo run --release --manifest-path rangebench/Cargo.toml -- \
//!     --workload <s5-paper|epic-class> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path rangebench/Cargo.toml -- --self-check
//! ```
//!
//! An untraced run (`--trace 0`) writes the workload's seeded inputs, sets
//! the range up from the bundle directory, runs the workload closed loop
//! for `--seconds`, checks every output it can, and prints the end-to-end
//! metrics. A traced run (`--trace 1`) prints the per-layer metrics and
//! writes the benchmark's spans to `rangebench/out/` as a Chrome trace.
//! The last line of standard output is always the JSON result.

mod alloc;
mod bench;
mod e2e;
mod gen;
mod layers;
mod report;
mod selfcheck;
mod spans;
mod stats;

use bench::{Ctx, Fatal, Tally, Workload};
use report::Metric;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: rangebench --workload <s5-paper|epic-class> --seed <n> --seconds <s> --trace <0|1>\n       rangebench --self-check";

enum Command {
    Run {
        workload: Workload,
        seed: u64,
        seconds: f64,
        traced: bool,
    },
    SelfCheck,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    if args == ["--self-check"] {
        return Ok(Command::SelfCheck);
    }
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Command::Run {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
    })
}

/// What one run produced.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    pub trace_file: Option<PathBuf>,
}

/// Runs one workload; `quick` shrinks every run length for the self-check.
pub fn run_workload(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
) -> Result<Outcome, Fatal> {
    let mut ctx = Ctx::new(workload, seed, quick, traced)?;
    let measured = if traced {
        layers::run(&mut ctx)
    } else {
        e2e::run(&mut ctx, seconds)
    };
    ctx.cleanup();
    let metrics = measured?;
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} measured no value", bad.name));
    }
    let trace_file = if traced {
        let dir = bench::package_dir().join("out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}-seed{seed}.trace.json", workload.name()));
        ctx.spans
            .write_chrome(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        Some(path)
    } else {
        None
    };
    Ok(Outcome {
        metrics,
        tally: ctx.tally,
        trace_file,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("rangebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (workload, seed, seconds, traced) = match command {
        Command::SelfCheck => {
            return match selfcheck::run() {
                Ok(()) => {
                    println!("self-check passed");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("rangebench self-check failed: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Command::Run {
            workload,
            seed,
            seconds,
            traced,
        } => (workload, seed, seconds, traced),
    };
    let outcome = match run_workload(workload, seed, seconds, traced, false) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("rangebench: {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    for message in &outcome.tally.messages {
        eprintln!("rangebench: check failed: {message}");
    }
    println!(
        "workload {} (seed {seed}, {} run, {} threads available)\n  why: {}",
        workload.name(),
        if traced { "traced" } else { "untraced" },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        workload.why()
    );
    print!("{}", report::table(&outcome.metrics));
    let Tally {
        attempted, failed, ..
    } = outcome.tally;
    println!(
        "  {:<30} {:>14.6} {:<8} ({failed} failed of {attempted} attempted)",
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
        "ratio"
    );
    if let Some(path) = &outcome.trace_file {
        println!("  spans: {}", path.display());
    }
    println!("{}", report::result_json(&outcome.metrics, &outcome.tally));
    ExitCode::SUCCESS
}
