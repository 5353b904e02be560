//! `sgml_processor` — the command-line face of the SG-ML Processor: loads a
//! bundle directory of SG-ML model files, compiles it into an operational
//! cyber range, reports the generated inventory, and optionally runs it.
//!
//! ```text
//! sgml_processor build <bundle-dir> [--dot]
//! sgml_processor run   <bundle-dir> [--seconds <n>] [--dot] [--no-check]
//!                      [--metrics <file>] [--journal <file>]
//!                      [--trace <file>] [--spans <file>] [--fault-seed <n>]
//! sgml_processor lint  <bundle-dir> [--format text|json|sarif]
//!                      [--cache <dir>] [--deny-warnings]
//! sgml_processor exercise <bundle-dir> [--scenario <file>] [--report <file>]
//!                      [--journal <file>] [--trace <file>] [--fault-seed <n>]
//!                      [--no-check]
//! sgml_processor serve <bundle-dir> [--tenants <n>] [--threads <n>]
//!                      [--seconds <n>] [--scenario <file>] [--out <dir>]
//!                      [--report <file>] [--step-budget-ms <n>]
//!                      [--max-overruns <n>] [--max-restarts <n>]
//!                      [--restart-backoff-ms <n>] [--admit-max <n>]
//!                      [--fault-seed <n>] [--status-addr <host:port>]
//!                      [--no-check]
//! sgml_processor watch <host:port> [--interval-ms <n>] [--iterations <n>]
//! ```
//!
//! `build` compiles the bundle and prints the generated inventory without
//! advancing simulated time. `run` additionally co-simulates `--seconds` of
//! range time (default 10); with `--metrics` it enables the telemetry
//! subsystem and writes a JSON metrics snapshot to the given file, and with
//! `--journal` it writes the typed event journal as JSON Lines. `--trace`
//! enables causal tracing and writes a Chrome trace-event JSON file (loadable
//! in Perfetto, one track per plane); `--spans` writes the raw span log as
//! JSON Lines.
//!
//! `lint` runs the `sgcr-lint` static analyzer over the bundle *without*
//! constructing a cyber range: files are parsed leniently, cross-file
//! references, network addressing, power topology, protection sanity,
//! PLC control-logic semantics, and bundle hygiene are checked, and
//! findings are printed as coded, span-carrying diagnostics. Exit codes:
//! `0` when clean or warnings-only, `1` for warnings under
//! `--deny-warnings`, `2` when any finding is an error. `--format sarif`
//! emits SARIF 2.1.0 for CI ingestion. `--cache <dir>` routes the analysis
//! through the incremental query engine: per-file results are memoized on
//! disk behind content fingerprints, reuse statistics go to stderr, and
//! stdout stays byte-identical to the uncached run.
//!
//! `run` and `exercise` front-gate the bundle through the same analyzer:
//! lint *errors* abort before the range starts (exit 2), warnings are
//! reported on stderr but do not block. `--no-check` skips the gate.
//!
//! `exercise` compiles the bundle and runs a declarative exercise scenario
//! (`*.scenario.xml`) against it via `sgcr-scenario`: stages fire on
//! schedule, objectives are polled each step, and the scored after-action
//! report is printed as text (and written as deterministic JSON with
//! `--report`). `--scenario` may be omitted when the bundle ships exactly
//! one scenario file. A failed objective is a scored *result*, not an
//! error — the exit code is nonzero only when the exercise cannot run.
//!
//! `--fault-seed` (on `run` and `exercise`) seeds the deterministic
//! fault-injection PRNG (`sgcr-faults`): identical seeds replay identical
//! loss/jitter/corruption patterns. On `exercise` the flag overrides any
//! `faultSeed=` attribute in the scenario XML.
//!
//! `serve` is the multi-tenant **range farm**: the bundle is compiled
//! *once* into an immutable shared model, then `--tenants` independent
//! ranges (or scored exercises, with `--scenario`) run concurrently across
//! a worker thread pool. Tenant `i` uses fault seed `--fault-seed + i`, so
//! every tenant is individually byte-replayable. With `--out <dir>` each
//! tenant streams its own `tenant-NNNN.journal.jsonl` and
//! `tenant-NNNN.metrics.json`; `--step-budget-ms` enforces a per-tenant
//! wall-clock step budget (`--max-overruns` halts repeat offenders), and
//! `--report` writes the farm throughput/latency report (ranges/sec, p50,
//! p99, max step latency) as JSON — the schema `BENCH_farm.json` tracks.
//! `--status-addr <host:port>` additionally serves the farm's live state
//! over HTTP while it runs: `/metrics` is the bucket-merged farm metric
//! registry in Prometheus text exposition format, `/status` is
//! deterministic per-tenant JSON, `/healthz` is a liveness probe — and the
//! same endpoint is the dynamic lifecycle API (`POST /tenants` admits a
//! tenant mid-run, `DELETE /tenants/<id>` drains one gracefully).
//! `--max-restarts` turns on the farm supervisor: halted or crashed
//! tenants restart from their last mid-run checkpoint with exponential
//! backoff (base `--restart-backoff-ms`, default 100) until the restart
//! budget is exhausted; `--admit-max` caps how many extra tenants the
//! lifecycle API may admit beyond the initial fleet.
//!
//! `watch` is the companion dashboard: it polls a running farm's
//! `--status-addr` endpoint every `--interval-ms` (default 1000) and
//! redraws a per-tenant state table until the farm finishes (or
//! `--iterations` polls have been made). Transient scrape failures are
//! retried with capped exponential backoff instead of killing the
//! dashboard; only repeated consecutive failures end it.

use sgcr_adversary::AttackGraph;
use sgcr_core::{CompiledModel, RangeBuilder, SgmlBundle};
use sgcr_farm::{run_farm, FarmConfig};
use sgcr_lint::source::LoadedBundle;
use sgcr_lint::{engine, json, lint_bundle, report, sarif};
use sgcr_net::SimDuration;
use sgcr_obs::Telemetry;
use sgcr_scenario::{run_exercise, Scenario};
use std::process::ExitCode;

const USAGE: &str = "usage: sgml_processor build <bundle-dir> [--dot]\n       \
                     sgml_processor run <bundle-dir> [--seconds <n>] [--dot] \
                     [--no-check] [--metrics <file>] [--journal <file>] \
                     [--trace <file>] [--spans <file>] [--fault-seed <n>]\n       \
                     sgml_processor lint <bundle-dir> [--format text|json|sarif] \
                     [--cache <dir>] [--deny-warnings]\n       \
                     sgml_processor exercise <bundle-dir> [--scenario <file>] \
                     [--report <file>] [--journal <file>] [--trace <file>] \
                     [--fault-seed <n>] [--no-check]\n       \
                     sgml_processor attack-graph <bundle-dir> \
                     [--format json|dot]\n       \
                     sgml_processor serve <bundle-dir> [--tenants <n>] \
                     [--threads <n>] [--seconds <n>] [--scenario <file>] \
                     [--out <dir>] [--report <file>] [--step-budget-ms <n>] \
                     [--max-overruns <n>] [--max-restarts <n>] \
                     [--restart-backoff-ms <n>] [--admit-max <n>] \
                     [--fault-seed <n>] [--status-addr <host:port>] \
                     [--no-check]\n       \
                     sgml_processor watch <host:port> [--interval-ms <n>] \
                     [--iterations <n>]";

/// Default co-simulated duration for `run` when `--seconds` is omitted.
const DEFAULT_RUN_SECONDS: u64 = 10;

/// Default tenant count for `serve` when `--tenants` is omitted.
const DEFAULT_SERVE_TENANTS: usize = 8;

/// Default co-simulated seconds per tenant for `serve`.
const DEFAULT_SERVE_SECONDS: u64 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

/// Output format for `attack-graph` (no SARIF — it is a graph, not a
/// diagnostic list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GraphFormat {
    Json,
    Dot,
}

/// A fully parsed invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Cmd {
    Build {
        dir: String,
        dot: bool,
    },
    Run {
        dir: String,
        seconds: u64,
        dot: bool,
        no_check: bool,
        metrics: Option<String>,
        journal: Option<String>,
        trace: Option<String>,
        spans: Option<String>,
        fault_seed: Option<u64>,
    },
    Lint {
        dir: String,
        format: Format,
        cache: Option<String>,
        deny_warnings: bool,
    },
    Exercise {
        dir: String,
        scenario: Option<String>,
        report: Option<String>,
        journal: Option<String>,
        trace: Option<String>,
        fault_seed: Option<u64>,
        no_check: bool,
    },
    Serve {
        dir: String,
        tenants: usize,
        threads: usize,
        seconds: u64,
        scenario: Option<String>,
        out: Option<String>,
        report: Option<String>,
        step_budget_ms: Option<u64>,
        max_overruns: u64,
        max_restarts: u64,
        restart_backoff_ms: u64,
        admit_max: usize,
        fault_seed: u64,
        status_addr: Option<String>,
        no_check: bool,
    },
    Watch {
        addr: String,
        interval_ms: u64,
        iterations: Option<u64>,
    },
    AttackGraph {
        dir: String,
        format: GraphFormat,
    },
}

/// Parses command-line arguments (without the program name). Pure so the
/// whole surface — subcommands and flags — is unit-testable.
fn parse_args(args: &[String]) -> Result<Cmd, String> {
    let Some(first) = args.first().map(String::as_str) else {
        return Err(String::from("missing subcommand"));
    };
    match first {
        "build" => parse_build(&args[1..]),
        "run" => parse_run(&args[1..]),
        "lint" => parse_lint(&args[1..]),
        "exercise" => parse_exercise(&args[1..]),
        "serve" => parse_serve(&args[1..]),
        "watch" => parse_watch(&args[1..]),
        "attack-graph" => parse_attack_graph(&args[1..]),
        "-h" | "--help" | "help" => Err(String::new()),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn take_dir(args: &[String]) -> Result<(String, &[String]), String> {
    match args.first() {
        Some(dir) if !dir.starts_with('-') => Ok((dir.clone(), &args[1..])),
        Some(flag) => Err(format!("expected <bundle-dir>, found `{flag}`")),
        None => Err(String::from("missing <bundle-dir>")),
    }
}

/// Returns the value of a `--flag <value>` pair at `args[i]`, advancing `i`.
fn flag_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("`{flag}` requires a value"))
}

fn parse_build(args: &[String]) -> Result<Cmd, String> {
    let (dir, rest) = take_dir(args)?;
    let mut dot = false;
    for arg in rest {
        match arg.as_str() {
            "--dot" => dot = true,
            other => return Err(format!("unknown argument `{other}` for `build`")),
        }
    }
    Ok(Cmd::Build { dir, dot })
}

/// Parses the value of `--fault-seed` as an unsigned 64-bit integer.
fn parse_fault_seed(value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("`--fault-seed` expects an unsigned integer, found `{value}`"))
}

fn parse_run(args: &[String]) -> Result<Cmd, String> {
    let (dir, rest) = take_dir(args)?;
    let mut seconds = DEFAULT_RUN_SECONDS;
    let mut dot = false;
    let mut no_check = false;
    let mut metrics = None;
    let mut journal = None;
    let mut trace = None;
    let mut spans = None;
    let mut fault_seed = None;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--seconds" => {
                let value = flag_value(rest, &mut i, "--seconds")?;
                seconds = value
                    .parse()
                    .map_err(|_| format!("`--seconds` expects an integer, found `{value}`"))?;
            }
            "--dot" => dot = true,
            "--no-check" => no_check = true,
            "--metrics" => metrics = Some(flag_value(rest, &mut i, "--metrics")?.to_string()),
            "--journal" => journal = Some(flag_value(rest, &mut i, "--journal")?.to_string()),
            "--trace" => trace = Some(flag_value(rest, &mut i, "--trace")?.to_string()),
            "--spans" => spans = Some(flag_value(rest, &mut i, "--spans")?.to_string()),
            "--fault-seed" => {
                fault_seed = Some(parse_fault_seed(flag_value(rest, &mut i, "--fault-seed")?)?);
            }
            other => return Err(format!("unknown argument `{other}` for `run`")),
        }
        i += 1;
    }
    Ok(Cmd::Run {
        dir,
        seconds,
        dot,
        no_check,
        metrics,
        journal,
        trace,
        spans,
        fault_seed,
    })
}

fn parse_format(value: &str) -> Result<Format, String> {
    match value {
        "text" => Ok(Format::Text),
        "json" => Ok(Format::Json),
        "sarif" => Ok(Format::Sarif),
        other => Err(format!(
            "`--format` expects text|json|sarif, found `{other}`"
        )),
    }
}

fn parse_lint(args: &[String]) -> Result<Cmd, String> {
    let (dir, rest) = take_dir(args)?;
    let mut format = Format::Text;
    let mut cache = None;
    let mut deny_warnings = false;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--format" => format = parse_format(flag_value(rest, &mut i, "--format")?)?,
            "--cache" => cache = Some(flag_value(rest, &mut i, "--cache")?.to_string()),
            "--deny-warnings" => deny_warnings = true,
            other => return Err(format!("unknown argument `{other}` for `lint`")),
        }
        i += 1;
    }
    Ok(Cmd::Lint {
        dir,
        format,
        cache,
        deny_warnings,
    })
}

fn parse_exercise(args: &[String]) -> Result<Cmd, String> {
    let (dir, rest) = take_dir(args)?;
    let mut scenario = None;
    let mut report = None;
    let mut journal = None;
    let mut trace = None;
    let mut fault_seed = None;
    let mut no_check = false;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--scenario" => scenario = Some(flag_value(rest, &mut i, "--scenario")?.to_string()),
            "--report" => report = Some(flag_value(rest, &mut i, "--report")?.to_string()),
            "--journal" => journal = Some(flag_value(rest, &mut i, "--journal")?.to_string()),
            "--trace" => trace = Some(flag_value(rest, &mut i, "--trace")?.to_string()),
            "--fault-seed" => {
                fault_seed = Some(parse_fault_seed(flag_value(rest, &mut i, "--fault-seed")?)?);
            }
            "--no-check" => no_check = true,
            other => return Err(format!("unknown argument `{other}` for `exercise`")),
        }
        i += 1;
    }
    Ok(Cmd::Exercise {
        dir,
        scenario,
        report,
        journal,
        trace,
        fault_seed,
        no_check,
    })
}

/// Parses a `--flag <n>` unsigned integer value.
fn parse_uint(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("`{flag}` expects an unsigned integer, found `{value}`"))
}

fn parse_serve(args: &[String]) -> Result<Cmd, String> {
    let (dir, rest) = take_dir(args)?;
    let mut tenants = DEFAULT_SERVE_TENANTS;
    let mut threads = 0;
    let mut seconds = DEFAULT_SERVE_SECONDS;
    let mut scenario = None;
    let mut out = None;
    let mut report = None;
    let mut step_budget_ms = None;
    let mut max_overruns = 0;
    let mut max_restarts = 0;
    let mut restart_backoff_ms = 0;
    let mut admit_max = 0;
    let mut fault_seed = 0;
    let mut status_addr = None;
    let mut no_check = false;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--tenants" => {
                tenants = parse_uint("--tenants", flag_value(rest, &mut i, "--tenants")?)? as usize;
            }
            "--threads" => {
                threads = parse_uint("--threads", flag_value(rest, &mut i, "--threads")?)? as usize;
            }
            "--seconds" => {
                seconds = parse_uint("--seconds", flag_value(rest, &mut i, "--seconds")?)?;
            }
            "--scenario" => scenario = Some(flag_value(rest, &mut i, "--scenario")?.to_string()),
            "--out" => out = Some(flag_value(rest, &mut i, "--out")?.to_string()),
            "--report" => report = Some(flag_value(rest, &mut i, "--report")?.to_string()),
            "--step-budget-ms" => {
                step_budget_ms = Some(parse_uint(
                    "--step-budget-ms",
                    flag_value(rest, &mut i, "--step-budget-ms")?,
                )?);
            }
            "--max-overruns" => {
                max_overruns = parse_uint(
                    "--max-overruns",
                    flag_value(rest, &mut i, "--max-overruns")?,
                )?;
            }
            "--max-restarts" => {
                max_restarts = parse_uint(
                    "--max-restarts",
                    flag_value(rest, &mut i, "--max-restarts")?,
                )?;
            }
            "--restart-backoff-ms" => {
                restart_backoff_ms = parse_uint(
                    "--restart-backoff-ms",
                    flag_value(rest, &mut i, "--restart-backoff-ms")?,
                )?;
            }
            "--admit-max" => {
                admit_max =
                    parse_uint("--admit-max", flag_value(rest, &mut i, "--admit-max")?)? as usize;
            }
            "--fault-seed" => {
                fault_seed = parse_fault_seed(flag_value(rest, &mut i, "--fault-seed")?)?;
            }
            "--status-addr" => {
                status_addr = Some(flag_value(rest, &mut i, "--status-addr")?.to_string());
            }
            "--no-check" => no_check = true,
            other => return Err(format!("unknown argument `{other}` for `serve`")),
        }
        i += 1;
    }
    if tenants == 0 {
        return Err(String::from("`--tenants` must be at least 1"));
    }
    Ok(Cmd::Serve {
        dir,
        tenants,
        threads,
        seconds,
        scenario,
        out,
        report,
        step_budget_ms,
        max_overruns,
        max_restarts,
        restart_backoff_ms,
        admit_max,
        fault_seed,
        status_addr,
        no_check,
    })
}

fn parse_watch(args: &[String]) -> Result<Cmd, String> {
    let (addr, rest) = take_dir(args).map_err(|e| e.replace("<bundle-dir>", "<host:port>"))?;
    let mut interval_ms = 1000;
    let mut iterations = None;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--interval-ms" => {
                interval_ms =
                    parse_uint("--interval-ms", flag_value(rest, &mut i, "--interval-ms")?)?;
            }
            "--iterations" => {
                iterations = Some(parse_uint(
                    "--iterations",
                    flag_value(rest, &mut i, "--iterations")?,
                )?);
            }
            other => return Err(format!("unknown argument `{other}` for `watch`")),
        }
        i += 1;
    }
    Ok(Cmd::Watch {
        addr,
        interval_ms,
        iterations,
    })
}

fn parse_attack_graph(args: &[String]) -> Result<Cmd, String> {
    let (dir, rest) = take_dir(args)?;
    let mut format = GraphFormat::Json;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--format" => {
                format = match flag_value(rest, &mut i, "--format")? {
                    "json" => GraphFormat::Json,
                    "dot" => GraphFormat::Dot,
                    other => {
                        return Err(format!("`--format` expects json|dot, found `{other}`"));
                    }
                };
            }
            other => return Err(format!("unknown argument `{other}` for `attack-graph`")),
        }
        i += 1;
    }
    Ok(Cmd::AttackGraph { dir, format })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&args) {
        Ok(cmd) => cmd,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cmd {
        Cmd::Build { dir, dot } => generate(&dir, None, dot, &Sinks::default(), None),
        Cmd::Run {
            dir,
            seconds,
            dot,
            no_check,
            metrics,
            journal,
            trace,
            spans,
            fault_seed,
        } => {
            if let Some(code) = front_gate(&dir, no_check) {
                return code;
            }
            generate(
                &dir,
                Some(seconds),
                dot,
                &Sinks {
                    metrics,
                    journal,
                    trace,
                    spans,
                },
                fault_seed,
            )
        }
        Cmd::Lint {
            dir,
            format,
            cache,
            deny_warnings,
        } => lint(&dir, format, cache.as_deref(), deny_warnings),
        Cmd::Exercise {
            dir,
            scenario,
            report,
            journal,
            trace,
            fault_seed,
            no_check,
        } => {
            if let Some(code) = front_gate(&dir, no_check) {
                return code;
            }
            exercise(
                &dir,
                scenario.as_deref(),
                report.as_deref(),
                &Sinks {
                    journal,
                    trace,
                    ..Sinks::default()
                },
                fault_seed,
            )
        }
        Cmd::Serve {
            dir,
            tenants,
            threads,
            seconds,
            scenario,
            out,
            report,
            step_budget_ms,
            max_overruns,
            max_restarts,
            restart_backoff_ms,
            admit_max,
            fault_seed,
            status_addr,
            no_check,
        } => {
            if let Some(code) = front_gate(&dir, no_check) {
                return code;
            }
            serve(
                &dir,
                ServeOptions {
                    tenants,
                    threads,
                    seconds,
                    scenario,
                    out,
                    report,
                    step_budget_ms,
                    max_overruns,
                    max_restarts,
                    restart_backoff_ms,
                    admit_max,
                    fault_seed,
                    status_addr,
                },
            )
        }
        Cmd::Watch {
            addr,
            interval_ms,
            iterations,
        } => watch(&addr, interval_ms, iterations),
        Cmd::AttackGraph { dir, format } => attack_graph(&dir, format),
    }
}

/// Output files requested for a `run`: each enables the corresponding part of
/// the observability subsystem only when set.
#[derive(Debug, Default)]
struct Sinks {
    metrics: Option<String>,
    journal: Option<String>,
    trace: Option<String>,
    spans: Option<String>,
}

impl Sinks {
    /// True when any telemetry sink (metrics or journal) was requested.
    fn wants_telemetry(&self) -> bool {
        self.metrics.is_some() || self.journal.is_some()
    }

    /// True when any tracing sink (Chrome trace or span log) was requested.
    fn wants_tracing(&self) -> bool {
        self.trace.is_some() || self.spans.is_some()
    }
}

/// Lint exit code for a finished report under the documented contract:
/// clean and warnings-only exit 0 (1 with `--deny-warnings`), errors exit 2.
fn lint_exit_code(lint_report: &sgcr_lint::LintReport, deny_warnings: bool) -> ExitCode {
    if lint_report.has_errors() {
        ExitCode::from(2)
    } else if deny_warnings && lint_report.warning_count() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Statically analyzes the bundle; never constructs a `CyberRange`.
///
/// With `--cache <dir>` the incremental query engine answers from memoized
/// per-file results where file contents are unchanged; reuse statistics go
/// to stderr so stdout stays byte-identical to an uncached run.
fn lint(dir: &str, format: Format, cache: Option<&str>, deny_warnings: bool) -> ExitCode {
    let (lint_report, bundle) = if let Some(cache_dir) = cache {
        match engine::lint_dir_incremental(dir, std::path::Path::new(cache_dir)) {
            Ok(outcome) => {
                eprintln!(
                    "lint cache: {} reused, {} recomputed queries",
                    outcome.stats.reused, outcome.stats.recomputed
                );
                (outcome.report, outcome.bundle)
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let bundle = match LoadedBundle::from_dir(dir) {
            Ok(bundle) => bundle,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let lint_report = lint_bundle(&bundle);
        (lint_report, bundle)
    };
    match format {
        Format::Text => print!("{}", report::render_text(&lint_report, &bundle)),
        Format::Json => print!("{}", json::to_json(&lint_report)),
        Format::Sarif => print!("{}", sarif::to_sarif(&lint_report)),
    }
    lint_exit_code(&lint_report, deny_warnings)
}

/// The pre-flight static check `run` and `exercise` perform before building
/// the range. Lint errors abort with exit 2 and the findings on stderr;
/// warnings are reported but do not block. Returns `None` when the range
/// may start. `--no-check` (or an unreadable directory, which the builder
/// will report properly) skips the gate.
fn front_gate(dir: &str, no_check: bool) -> Option<ExitCode> {
    if no_check {
        return None;
    }
    let bundle = LoadedBundle::from_dir(dir).ok()?;
    let lint_report = lint_bundle(&bundle);
    if lint_report.diagnostics.is_empty() {
        return None;
    }
    eprint!("{}", report::render_text(&lint_report, &bundle));
    if lint_report.has_errors() {
        eprintln!(
            "error: bundle fails static checks ({} error(s)); \
             fix them or pass --no-check to start the range anyway",
            lint_report.error_count()
        );
        return Some(ExitCode::from(2));
    }
    None
}

/// Runs a declarative exercise scenario against a freshly generated range
/// and prints the scored after-action report.
fn exercise(
    dir: &str,
    scenario_path: Option<&str>,
    report_path: Option<&str>,
    sinks: &Sinks,
    fault_seed: Option<u64>,
) -> ExitCode {
    let bundle = match SgmlBundle::from_dir(dir) {
        Ok(bundle) => bundle,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let xml = match scenario_path {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: reading {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => match bundle.scenarios.as_slice() {
            [only] => only.clone(),
            [] => {
                eprintln!("error: {dir} ships no *.scenario.xml; pass --scenario <file>");
                return ExitCode::FAILURE;
            }
            many => {
                eprintln!(
                    "error: {dir} ships {} scenario files; pass --scenario <file>",
                    many.len()
                );
                return ExitCode::FAILURE;
            }
        },
    };
    let mut scenario = match Scenario::parse(&xml) {
        Ok(scenario) => scenario,
        Err(e) => {
            eprintln!("error: invalid scenario: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The command line wins over the scenario's own faultSeed= attribute.
    if fault_seed.is_some() {
        scenario.fault_seed = fault_seed;
    }

    let telemetry = if sinks.wants_tracing() {
        Telemetry::with_tracing()
    } else {
        Telemetry::new()
    };
    let model = match CompiledModel::shared(&bundle) {
        Ok(model) => model,
        Err(e) => {
            eprintln!("error: model set does not compile:\n{e}");
            return ExitCode::FAILURE;
        }
    };
    for d in &model.diagnostics {
        eprintln!("  {d}");
    }
    let mut range = match RangeBuilder::from_model(model)
        .telemetry(telemetry.clone())
        .build()
    {
        Ok(range) => range,
        Err(e) => {
            eprintln!("error: range cannot be instantiated:\n{e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "running exercise {:?} ({} stages, {} objectives, {} ms)…",
        scenario.name,
        scenario.stages.len(),
        scenario.objectives.len(),
        scenario.duration_ms
    );
    let exercise_report = match run_exercise(&mut range, &scenario) {
        Ok(exercise_report) => exercise_report,
        Err(e) => {
            eprintln!("error: exercise cannot run: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", exercise_report.to_text());
    if let Some(path) = report_path {
        if let Err(e) = std::fs::write(path, exercise_report.to_json()) {
            eprintln!("error: cannot write report to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("JSON report written to {path}");
    }
    if !write_sinks(sinks, &telemetry) {
        return ExitCode::FAILURE;
    }
    // Failed objectives are scored results, not tool failures.
    ExitCode::SUCCESS
}

/// Derives the attack graph from the compiled model and prints it — the
/// adversary plane's view of the bundle, for inspection and tooling.
fn attack_graph(dir: &str, format: GraphFormat) -> ExitCode {
    let bundle = match SgmlBundle::from_dir(dir) {
        Ok(bundle) => bundle,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let model = match CompiledModel::compile(&bundle) {
        Ok(model) => model,
        Err(e) => {
            eprintln!("error: model set does not compile:\n{e}");
            return ExitCode::FAILURE;
        }
    };
    let graph = AttackGraph::derive(&model);
    match format {
        GraphFormat::Json => println!("{}", graph.to_json()),
        GraphFormat::Dot => print!("{}", graph.to_dot()),
    }
    ExitCode::SUCCESS
}

/// The `serve` subcommand's flag surface, bundled so it can grow without
/// the function signature sprawling.
struct ServeOptions {
    tenants: usize,
    threads: usize,
    seconds: u64,
    scenario: Option<String>,
    out: Option<String>,
    report: Option<String>,
    step_budget_ms: Option<u64>,
    max_overruns: u64,
    max_restarts: u64,
    restart_backoff_ms: u64,
    admit_max: usize,
    fault_seed: u64,
    status_addr: Option<String>,
}

/// The multi-tenant range farm: compiles the bundle once, then multiplexes
/// `tenants` independent ranges (or exercises) across a worker pool via
/// `sgcr-farm`, streaming per-tenant journals/metrics and reporting farm
/// throughput and step-latency percentiles.
fn serve(dir: &str, opts: ServeOptions) -> ExitCode {
    let ServeOptions {
        tenants,
        threads,
        seconds,
        scenario,
        out,
        report,
        step_budget_ms,
        max_overruns,
        max_restarts,
        restart_backoff_ms,
        admit_max,
        fault_seed,
        status_addr,
    } = opts;
    let (scenario_path, out, report_path) =
        (scenario.as_deref(), out.as_deref(), report.as_deref());
    let bundle = match SgmlBundle::from_dir(dir) {
        Ok(bundle) => bundle,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scenario = match scenario_path {
        Some(path) => {
            let xml = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("error: reading {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match Scenario::parse(&xml) {
                Ok(scenario) => Some(scenario),
                Err(e) => {
                    eprintln!("error: invalid scenario: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };

    let compile_start = std::time::Instant::now();
    let model = match CompiledModel::shared(&bundle) {
        Ok(model) => model,
        Err(e) => {
            eprintln!("error: model set does not compile:\n{e}");
            return ExitCode::FAILURE;
        }
    };
    for d in &model.diagnostics {
        eprintln!("  {d}");
    }
    eprintln!(
        "compiled once in {:.1} ms: {}",
        compile_start.elapsed().as_secs_f64() * 1e3,
        model.summary()
    );
    eprintln!(
        "serving {tenants} tenants x {seconds} s{}…",
        match &scenario {
            Some(s) => format!(" of exercise {:?}", s.name),
            None => String::new(),
        }
    );
    if let Some(addr) = &status_addr {
        eprintln!(
            "live status endpoint on http://{addr}/ (/metrics /status /healthz; \
             POST /tenants, DELETE /tenants/<id>)"
        );
    }
    if max_restarts > 0 {
        eprintln!("supervisor on: up to {max_restarts} restart(s)/tenant from mid-run checkpoints");
    }

    let config = FarmConfig {
        tenants,
        threads,
        sim_seconds: seconds,
        step_budget_ms,
        max_overruns,
        base_fault_seed: fault_seed,
        interval: None,
        scenario,
        out_dir: out.map(std::path::PathBuf::from),
        status_addr,
        collect_interval_ms: 0,
        restart_max: max_restarts,
        restart_backoff_ms,
        admit_max,
    };
    let farm_report = run_farm(model, &config);
    print!("{}", farm_report.to_text());
    if let Some(dir) = out {
        eprintln!("per-tenant journals/metrics written to {dir}/");
    }
    if let Some(path) = report_path {
        if let Err(e) = std::fs::write(path, farm_report.to_json()) {
            eprintln!("error: cannot write report to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("farm report written to {path}");
    }
    if farm_report.tenants_failed > 0 {
        eprintln!("error: {} tenant(s) failed", farm_report.tenants_failed);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// How many consecutive failed scrapes `watch` tolerates (each retried
/// with capped exponential backoff) before concluding the endpoint is gone.
const WATCH_MAX_FAILURES: u32 = 6;

/// The `watch` retry backoff before attempt number `failures`: doubling
/// from 100 ms, capped at 2 s.
fn watch_backoff(failures: u32) -> std::time::Duration {
    std::time::Duration::from_millis((100u64 << failures.saturating_sub(1).min(5)).min(2000))
}

/// Polls a running farm's `--status-addr` endpoint and redraws a per-tenant
/// dashboard until the endpoint goes away (the farm finished) or
/// `--iterations` polls have been made.
///
/// A failed scrape does not kill the dashboard: it is retried with capped
/// exponential backoff, and only [`WATCH_MAX_FAILURES`] consecutive
/// failures end the session — success if the farm was ever reached (it
/// finished and closed the endpoint), failure if it never was.
fn watch(addr: &str, interval_ms: u64, iterations: Option<u64>) -> ExitCode {
    let mut polled = 0u64;
    let mut ever_connected = false;
    let mut failures = 0u32;
    loop {
        match sgcr_farm::http_get(addr, "/status") {
            Ok(body) => {
                ever_connected = true;
                failures = 0;
                match render_watch(&body) {
                    Ok(frame) => {
                        // ANSI clear-screen + cursor-home, then the frame.
                        print!("\x1b[2J\x1b[H{frame}");
                        use std::io::Write as _;
                        let _ = std::io::stdout().flush();
                    }
                    Err(e) => {
                        eprintln!("error: malformed /status response from {addr}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            Err(e) => {
                failures += 1;
                if failures >= WATCH_MAX_FAILURES {
                    if ever_connected {
                        println!("status endpoint {addr} closed — farm finished");
                        return ExitCode::SUCCESS;
                    }
                    eprintln!("error: cannot reach {addr} after {failures} attempts: {e}");
                    return ExitCode::FAILURE;
                }
                let backoff = watch_backoff(failures);
                eprintln!(
                    "warning: scrape of {addr} failed ({e}); retry {failures}/{} in {} ms",
                    WATCH_MAX_FAILURES - 1,
                    backoff.as_millis()
                );
                std::thread::sleep(backoff);
                continue;
            }
        }
        polled += 1;
        if let Some(max) = iterations {
            if polled >= max {
                return ExitCode::SUCCESS;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(50)));
    }
}

/// Renders one `/status` JSON document as a watch dashboard frame. Pure, so
/// the dashboard is unit-testable without a live farm.
fn render_watch(body: &str) -> Result<String, String> {
    use sgcr_obs::json::{self as obs_json, Value};
    let doc = obs_json::parse(body)?;
    let uint = |v: &Value, key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
    let mut out = String::new();
    out.push_str(&format!(
        "farm: {} tenants on {} threads x {} s sim{}\n",
        uint(&doc, "tenants"),
        uint(&doc, "threads"),
        uint(&doc, "sim_seconds"),
        match doc.get("step_budget_ms").and_then(Value::as_u64) {
            Some(ms) => format!(" | budget {ms} ms/step"),
            None => String::new(),
        }
    ));
    out.push_str(&format!(
        "running {} | completed {} | halted {} | failed {} | given up {} | drained {}\n\n",
        uint(&doc, "tenants_running"),
        uint(&doc, "tenants_completed"),
        uint(&doc, "tenants_halted"),
        uint(&doc, "tenants_failed"),
        uint(&doc, "tenants_given_up"),
        uint(&doc, "tenants_drained"),
    ));
    out.push_str("tenant  state      steps      overruns  solve_errs  restarts  score\n");
    let tenants = doc
        .get("per_tenant")
        .and_then(Value::as_array)
        .ok_or("missing per_tenant array")?;
    for t in tenants {
        let score = match t.get("score") {
            Some(score) if score.get("earned").is_some() => format!(
                "{}/{}",
                score.get("earned").and_then(Value::as_u64).unwrap_or(0),
                score.get("total").and_then(Value::as_u64).unwrap_or(0)
            ),
            _ => String::from("-"),
        };
        out.push_str(&format!(
            "{:>6}  {:<9}  {:>9}  {:>8}  {:>10}  {:>8}  {score}\n",
            uint(t, "tenant"),
            t.get("state").and_then(Value::as_str).unwrap_or("?"),
            uint(t, "steps"),
            uint(t, "budget_overruns"),
            uint(t, "solve_errors"),
            uint(t, "restarts"),
        ));
    }
    Ok(out)
}

/// Writes whichever observability sinks were requested; false on I/O error.
fn write_sinks(sinks: &Sinks, telemetry: &Telemetry) -> bool {
    if let Some(path) = &sinks.metrics {
        if let Err(e) = std::fs::write(path, telemetry.snapshot().to_json()) {
            eprintln!("error: cannot write metrics to {path}: {e}");
            return false;
        }
        eprintln!("metrics snapshot written to {path}");
    }
    if let Some(path) = &sinks.journal {
        if let Err(e) = std::fs::write(path, telemetry.journal_jsonl()) {
            eprintln!("error: cannot write journal to {path}: {e}");
            return false;
        }
        eprintln!(
            "event journal written to {path} ({} events, {} evicted)",
            telemetry.events().len(),
            telemetry.events_dropped()
        );
    }
    if let Some(path) = &sinks.trace {
        if let Err(e) = std::fs::write(path, telemetry.tracer().chrome_trace_json()) {
            eprintln!("error: cannot write trace to {path}: {e}");
            return false;
        }
        eprintln!(
            "Chrome trace written to {path} ({} spans, {} evicted) — open in ui.perfetto.dev",
            telemetry.spans().len(),
            telemetry.spans_dropped()
        );
    }
    if let Some(path) = &sinks.spans {
        if let Err(e) = std::fs::write(path, telemetry.tracer().spans_jsonl()) {
            eprintln!("error: cannot write span log to {path}: {e}");
            return false;
        }
        eprintln!("span log written to {path}");
    }
    true
}

/// Generates (and for `run`, co-simulates) the cyber range. Telemetry is
/// enabled only when a `--metrics` or `--journal` sink was requested, and
/// causal tracing only when `--trace` or `--spans` was given, so a plain run
/// keeps the zero-overhead disabled path.
fn generate(
    dir: &str,
    run_seconds: Option<u64>,
    dot: bool,
    sinks: &Sinks,
    fault_seed: Option<u64>,
) -> ExitCode {
    let bundle = match SgmlBundle::from_dir(dir) {
        Ok(bundle) => bundle,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "loaded {}: {} SSD, {} SCD, {} ICD, {} SED, supplementary: ied={} scada={} plc={} power={}",
        dir,
        bundle.ssds.len(),
        bundle.scds.len(),
        bundle.icds.len(),
        bundle.seds.len(),
        bundle.ied_config.is_some(),
        bundle.scada_config.is_some(),
        bundle.plc_config.is_some(),
        bundle.power_extra.is_some(),
    );

    let telemetry = if sinks.wants_tracing() {
        Telemetry::with_tracing()
    } else if sinks.wants_telemetry() {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };
    let model = match CompiledModel::shared(&bundle) {
        Ok(model) => model,
        Err(e) => {
            eprintln!("error: model set does not compile:\n{e}");
            return ExitCode::FAILURE;
        }
    };
    for d in &model.diagnostics {
        eprintln!("  {d}");
    }
    let mut builder = RangeBuilder::from_model(model).telemetry(telemetry.clone());
    if let Some(seed) = fault_seed {
        builder = builder.fault_seed(seed);
    }
    let mut range = match builder.build() {
        Ok(range) => range,
        Err(e) => {
            eprintln!("error: range cannot be instantiated:\n{e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", range.summary());
    if dot {
        println!("{}", range.plan().to_dot());
    }
    if let Some(seconds) = run_seconds {
        eprintln!("running {seconds} s of co-simulated time…");
        let wall = std::time::Instant::now();
        range.run_for(SimDuration::from_secs(seconds));
        eprintln!(
            "done: {} power-flow steps ({} solve errors) in {:.2} s wall clock",
            range.steps_total(),
            range.solve_errors().len(),
            wall.elapsed().as_secs_f64()
        );
        if let Some(scada) = &range.scada {
            println!("SCADA tags:");
            for tag in scada.tag_names() {
                println!("  {:20} = {:?}", tag, scada.tag_value(&tag));
            }
            for (point, message) in scada.active_alarms() {
                println!("  ALARM {point}: {message}");
            }
        }
        for (name, handle) in &range.ieds {
            let trips = handle.trip_count();
            if trips > 0 {
                println!("  IED {name}: {trips} protection trip(s)");
            }
        }
    }
    if !write_sinks(sinks, &telemetry) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn build_subcommand_parses() {
        let cmd = parse_args(&argv("build bundles/epic --dot")).unwrap();
        assert_eq!(
            cmd,
            Cmd::Build {
                dir: "bundles/epic".into(),
                dot: true
            }
        );
    }

    #[test]
    fn run_subcommand_parses_all_flags() {
        let cmd = parse_args(&argv(
            "run bundles/epic --seconds 30 --metrics m.json --journal j.jsonl \
             --trace t.json --spans s.jsonl --fault-seed 99",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Cmd::Run {
                dir: "bundles/epic".into(),
                seconds: 30,
                dot: false,
                no_check: false,
                metrics: Some("m.json".into()),
                journal: Some("j.jsonl".into()),
                trace: Some("t.json".into()),
                spans: Some("s.jsonl".into()),
                fault_seed: Some(99),
            }
        );
    }

    #[test]
    fn run_accepts_no_check() {
        let cmd = parse_args(&argv("run bundles/epic --no-check")).unwrap();
        match cmd {
            Cmd::Run { no_check, .. } => assert!(no_check),
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn run_defaults_seconds() {
        let cmd = parse_args(&argv("run bundles/epic")).unwrap();
        match cmd {
            Cmd::Run {
                seconds,
                metrics,
                journal,
                trace,
                spans,
                fault_seed,
                ..
            } => {
                assert_eq!(seconds, DEFAULT_RUN_SECONDS);
                assert!(metrics.is_none());
                assert!(journal.is_none());
                assert!(trace.is_none());
                assert!(spans.is_none());
                assert!(fault_seed.is_none());
            }
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn lint_subcommand_parses_format() {
        let cmd = parse_args(&argv("lint bundles/epic --format json")).unwrap();
        assert_eq!(
            cmd,
            Cmd::Lint {
                dir: "bundles/epic".into(),
                format: Format::Json,
                cache: None,
                deny_warnings: false,
            }
        );
    }

    #[test]
    fn lint_subcommand_parses_sarif_cache_and_deny_warnings() {
        let cmd = parse_args(&argv(
            "lint bundles/epic --format sarif --cache .lint-cache --deny-warnings",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Cmd::Lint {
                dir: "bundles/epic".into(),
                format: Format::Sarif,
                cache: Some(".lint-cache".into()),
                deny_warnings: true,
            }
        );
    }

    #[test]
    fn lint_exit_codes_follow_the_contract() {
        use sgcr_lint::LintReport;
        use sgcr_scl::{codes, Diagnostic};
        let clean = LintReport::default();
        assert_eq!(lint_exit_code(&clean, false), ExitCode::SUCCESS);
        assert_eq!(lint_exit_code(&clean, true), ExitCode::SUCCESS);
        let warning = LintReport {
            diagnostics: vec![Diagnostic::warning(codes::ORPHAN_ICD, "orphan", "x")],
        };
        assert_eq!(lint_exit_code(&warning, false), ExitCode::SUCCESS);
        assert_eq!(lint_exit_code(&warning, true), ExitCode::FAILURE);
        let error = LintReport {
            diagnostics: vec![Diagnostic::error(codes::ST_PARSE_FAILED, "bad", "x")],
        };
        assert_eq!(lint_exit_code(&error, false), ExitCode::from(2));
        assert_eq!(lint_exit_code(&error, true), ExitCode::from(2));
    }

    #[test]
    fn exercise_subcommand_parses_all_flags() {
        let cmd = parse_args(&argv(
            "exercise bundles/epic --scenario s.scenario.xml --report r.json \
             --journal j.jsonl --trace t.json --fault-seed 7",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Cmd::Exercise {
                dir: "bundles/epic".into(),
                scenario: Some("s.scenario.xml".into()),
                report: Some("r.json".into()),
                journal: Some("j.jsonl".into()),
                trace: Some("t.json".into()),
                fault_seed: Some(7),
                no_check: false,
            }
        );
    }

    #[test]
    fn exercise_accepts_no_check() {
        let cmd = parse_args(&argv("exercise bundles/epic --no-check")).unwrap();
        match cmd {
            Cmd::Exercise { no_check, .. } => assert!(no_check),
            other => panic!("expected exercise, got {other:?}"),
        }
    }

    #[test]
    fn exercise_scenario_and_report_are_optional() {
        let cmd = parse_args(&argv("exercise bundles/epic")).unwrap();
        assert_eq!(
            cmd,
            Cmd::Exercise {
                dir: "bundles/epic".into(),
                scenario: None,
                report: None,
                journal: None,
                trace: None,
                fault_seed: None,
                no_check: false,
            }
        );
    }

    #[test]
    fn attack_graph_subcommand_parses() {
        let cmd = parse_args(&argv("attack-graph bundles/epic")).unwrap();
        assert_eq!(
            cmd,
            Cmd::AttackGraph {
                dir: "bundles/epic".into(),
                format: GraphFormat::Json,
            }
        );
        let cmd = parse_args(&argv("attack-graph bundles/epic --format dot")).unwrap();
        assert_eq!(
            cmd,
            Cmd::AttackGraph {
                dir: "bundles/epic".into(),
                format: GraphFormat::Dot,
            }
        );
    }

    #[test]
    fn attack_graph_rejects_bad_format() {
        assert!(parse_args(&argv("attack-graph bundles/epic --format sarif")).is_err());
        assert!(parse_args(&argv("attack-graph bundles/epic --dot")).is_err());
        assert!(parse_args(&argv("attack-graph")).is_err());
    }

    #[test]
    fn serve_subcommand_parses_all_flags() {
        let cmd = parse_args(&argv(
            "serve bundles/epic --tenants 128 --threads 4 --seconds 30 \
             --scenario s.scenario.xml --out /tmp/farm --report farm.json \
             --step-budget-ms 100 --max-overruns 5 --max-restarts 3 \
             --restart-backoff-ms 50 --admit-max 16 --fault-seed 42 \
             --status-addr 127.0.0.1:9644 --no-check",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Cmd::Serve {
                dir: "bundles/epic".into(),
                tenants: 128,
                threads: 4,
                seconds: 30,
                scenario: Some("s.scenario.xml".into()),
                out: Some("/tmp/farm".into()),
                report: Some("farm.json".into()),
                step_budget_ms: Some(100),
                max_overruns: 5,
                max_restarts: 3,
                restart_backoff_ms: 50,
                admit_max: 16,
                fault_seed: 42,
                status_addr: Some("127.0.0.1:9644".into()),
                no_check: true,
            }
        );
    }

    #[test]
    fn serve_status_addr_is_optional() {
        let cmd = parse_args(&argv("serve bundles/epic")).unwrap();
        match cmd {
            Cmd::Serve { status_addr, .. } => assert!(status_addr.is_none()),
            other => panic!("expected serve, got {other:?}"),
        }
    }

    #[test]
    fn watch_subcommand_parses_flags_and_defaults() {
        let cmd = parse_args(&argv(
            "watch 127.0.0.1:9644 --interval-ms 250 --iterations 3",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Cmd::Watch {
                addr: "127.0.0.1:9644".into(),
                interval_ms: 250,
                iterations: Some(3),
            }
        );
        let cmd = parse_args(&argv("watch 127.0.0.1:9644")).unwrap();
        assert_eq!(
            cmd,
            Cmd::Watch {
                addr: "127.0.0.1:9644".into(),
                interval_ms: 1000,
                iterations: None,
            }
        );
        assert!(parse_args(&argv("watch")).is_err());
        assert!(parse_args(&argv("watch 127.0.0.1:9644 --bogus")).is_err());
    }

    #[test]
    fn watch_dashboard_renders_status_json() {
        let body = r#"{"tenants":2,"threads":2,"sim_seconds":5,"scenario":false,
            "step_budget_ms":100,"tenants_running":1,"tenants_completed":1,
            "tenants_halted":0,"tenants_failed":0,"per_tenant":[
            {"tenant":0,"state":"completed","steps":50,"budget_overruns":0,
             "solve_errors":0,"score":{"earned":3,"total":4}},
            {"tenant":1,"state":"running","steps":12,"budget_overruns":2,
             "solve_errors":1,"score":null}]}"#;
        let frame = render_watch(body).unwrap();
        assert!(frame.contains("farm: 2 tenants on 2 threads x 5 s sim | budget 100 ms/step"));
        assert!(frame.contains("running 1 | completed 1 | halted 0 | failed 0"));
        assert!(frame.contains("completed"));
        assert!(frame.contains("3/4"));
        assert!(frame.lines().count() >= 6);
        assert!(render_watch("not json").is_err());
    }

    #[test]
    fn serve_defaults_are_sensible() {
        let cmd = parse_args(&argv("serve bundles/epic")).unwrap();
        match cmd {
            Cmd::Serve {
                tenants,
                threads,
                seconds,
                fault_seed,
                max_restarts,
                restart_backoff_ms,
                admit_max,
                ..
            } => {
                assert_eq!(tenants, DEFAULT_SERVE_TENANTS);
                assert_eq!(threads, 0); // one per core
                assert_eq!(seconds, DEFAULT_SERVE_SECONDS);
                assert_eq!(fault_seed, 0);
                assert_eq!(max_restarts, 0); // supervision off by default
                assert_eq!(restart_backoff_ms, 0); // 0 = library default
                assert_eq!(admit_max, 0); // no dynamic headroom by default
            }
            other => panic!("expected serve, got {other:?}"),
        }
    }

    #[test]
    fn watch_backoff_doubles_and_caps() {
        assert_eq!(watch_backoff(1).as_millis(), 100);
        assert_eq!(watch_backoff(2).as_millis(), 200);
        assert_eq!(watch_backoff(3).as_millis(), 400);
        assert_eq!(watch_backoff(5).as_millis(), 1600);
        assert_eq!(watch_backoff(6).as_millis(), 2000);
        assert_eq!(watch_backoff(60).as_millis(), 2000);
    }

    #[test]
    fn serve_rejects_zero_tenants() {
        assert!(parse_args(&argv("serve bundles/epic --tenants 0")).is_err());
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&argv("run")).is_err());
        assert!(parse_args(&argv("run bundles/epic --seconds abc")).is_err());
        assert!(parse_args(&argv("run bundles/epic --metrics")).is_err());
        assert!(parse_args(&argv("run bundles/epic --trace")).is_err());
        assert!(parse_args(&argv("run bundles/epic --spans")).is_err());
        assert!(parse_args(&argv("run bundles/epic --fault-seed")).is_err());
        assert!(parse_args(&argv("run bundles/epic --fault-seed abc")).is_err());
        assert!(parse_args(&argv("exercise bundles/epic --fault-seed -1")).is_err());
        assert!(parse_args(&argv("lint bundles/epic --format yaml")).is_err());
        assert!(parse_args(&argv("lint bundles/epic --cache")).is_err());
        assert!(parse_args(&argv("exercise")).is_err());
        assert!(parse_args(&argv("exercise bundles/epic --scenario")).is_err());
        assert!(parse_args(&argv("exercise bundles/epic --bogus")).is_err());
        assert!(parse_args(&argv("build bundles/epic --bogus")).is_err());
        assert!(parse_args(&argv("bundles/epic --bogus")).is_err());
        assert!(parse_args(&argv("bundles/epic")).is_err());
    }
}
