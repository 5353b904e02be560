//! The traced run: per-layer metrics, each measured from outside by timing
//! calls into the layer's public functions on the workload's own model,
//! plus the program's own telemetry (`step.plane.*`, `net.frames_*`,
//! spans) where a layer only reports from inside.

use crate::alloc;
use crate::bench::{self, Ctx, Fatal, Workload};
use crate::e2e;
use crate::report::Metric;
use crate::stats::{mean, median};
use sg_cyber_range::adversary::{plan, AttackGraph, PlanRequest};
use sg_cyber_range::core::{CompiledModel, CyberRange};
use sg_cyber_range::farm::{run_farm, FarmConfig};
use sg_cyber_range::obs::{MetricsSnapshot, Plane, Telemetry, TraceCtx};
use sg_cyber_range::scenario::run_exercise;
use sg_cyber_range::scl::{parse_icd, parse_scd, parse_sed, parse_ssd};
use std::sync::Arc;
use std::time::Instant;

/// Probe sizes for one workload.
struct Sizes {
    /// Steps run before any window is measured.
    warmup: u64,
    /// Steps in the plane/counter window.
    window: u64,
    /// Steps in the allocation window.
    alloc_window: u64,
    /// Steps each of the two ranges runs for the tracing overhead.
    overhead_window: u64,
}

fn sizes(ctx: &Ctx) -> Sizes {
    match (ctx.quick, ctx.workload) {
        // One s5 load day, so the iteration count sees the seed.
        (true, _) => Sizes {
            warmup: 3,
            window: 50,
            alloc_window: 5,
            overhead_window: 10,
        },
        (false, Workload::S5Paper) => Sizes {
            warmup: 10,
            window: 100,
            alloc_window: 20,
            overhead_window: 60,
        },
        (false, _) => Sizes {
            warmup: 50,
            window: 2000,
            alloc_window: 200,
            overhead_window: 2000,
        },
    }
}

/// Repeats `f` at least `min` times and until `budget_s` has passed;
/// returns the median seconds.
fn repeat(min: usize, budget_s: f64, mut f: impl FnMut() -> f64) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min
        || (started.elapsed().as_secs_f64() < budget_s && samples.len() < 1000)
    {
        samples.push(f());
    }
    median(&samples)
}

pub fn run(ctx: &mut Ctx) -> Result<Vec<Metric>, Fatal> {
    let sizes = sizes(ctx);
    let (reps, budget) = if ctx.quick { (2, 0.0) } else { (5, 1.5) };
    let (model, setups) = bench::setup(ctx, reps, budget)?;
    let pick =
        |f: fn(&bench::SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>()) * 1e3;
    let mut out = vec![
        Metric::new("scl.parse_ms", scl_parse(ctx, budget)? * 1e3, 0),
        Metric::new("compile.ms", pick(|t| t.compile), setups.len()),
        Metric::new("instantiate.ms", pick(|t| t.instantiate), setups.len()),
        Metric::new("lint.cold_ms", pick(|t| t.lint), setups.len()),
    ];
    bench::prime_lint_cache(ctx)?;
    let (_, reuse) = bench::edit_and_relint(ctx, 0, None)?;
    out.push(Metric::new("lint.reuse_ratio", reuse, 1));
    out.extend(planes(ctx, &model, &sizes)?);
    out.extend(allocations(ctx, &model, &sizes)?);
    out.extend(checkpoints(ctx, &model)?);
    out.extend(exercise_layers(ctx, &model, budget)?);
    out.extend(farm(ctx, &model)?);
    out.extend(tracing_overhead(ctx, &model, &sizes)?);
    Ok(out)
}

/// Every SCL file of the bundle through `sgcr_scl::parse_*`.
fn scl_parse(ctx: &mut Ctx, budget: f64) -> Result<f64, Fatal> {
    let mut files = Vec::new();
    let entries = std::fs::read_dir(&ctx.bundle).map_err(|e| format!("reading bundle: {e}"))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        files.push((name, text));
    }
    files.sort();
    let span = ctx.spans.open("scl.parse", Plane::Range, None);
    let mut failures = 0;
    let seconds = repeat(3, budget / 3.0, || {
        let start = Instant::now();
        for (name, text) in &files {
            let parsed = if name.ends_with(".ssd.xml") {
                parse_ssd(text).map(drop)
            } else if name.ends_with(".scd.xml") {
                parse_scd(text).map(drop)
            } else if name.ends_with(".icd.xml") {
                parse_icd(text).map(drop)
            } else if name.ends_with(".sed.xml") {
                parse_sed(text).map(drop)
            } else {
                Ok(())
            };
            failures += usize::from(parsed.is_err());
        }
        start.elapsed().as_secs_f64()
    });
    ctx.spans.close(span);
    ctx.tally.check(failures == 0, || {
        format!("{failures} SCL files failed to parse")
    });
    Ok(seconds)
}

fn hist_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> (f64, u64) {
    let get = |s: &MetricsSnapshot| s.histogram(name).map_or((0.0, 0), |h| (h.sum, h.count));
    let (s0, c0) = get(before);
    let (s1, c1) = get(after);
    (s1 - s0, c1 - c0)
}

/// Plane times, coupling counters and solver work over a steady window of a
/// range with metrics on (no spans).
fn planes(ctx: &mut Ctx, model: &Arc<CompiledModel>, sizes: &Sizes) -> Result<Vec<Metric>, Fatal> {
    let telemetry = Telemetry::new();
    let mut range = ctx.tenant_with(model, telemetry.clone())?;
    let root = ctx.spans.open("probe.planes", Plane::Range, None);
    let parent = root.ctx();
    for _ in 0..sizes.warmup {
        range.step();
    }
    let before = telemetry.snapshot();
    let version = range.store.version();
    let mut solve = Vec::new();
    for _ in 0..sizes.window {
        step_span(ctx, &mut range, parent);
        // Re-solve the step's inputs from outside: the solver's share of
        // the power plane, on exactly the steps the plane time covers.
        let power = range.power.clone();
        let (solved, seconds) = ctx
            .spans
            .timed("powerflow.solve", Plane::Power, parent, || {
                sg_cyber_range::powerflow::solve(&power)
            });
        ctx.tally.check(solved.is_ok(), || {
            format!("re-solve at step {}", range.steps_total())
        });
        solve.push(seconds);
    }
    let after = telemetry.snapshot();
    ctx.spans.close(root);
    let n = sizes.window as f64;
    let iterations: Vec<f64> = range
        .step_stats()
        .skip(range.step_stats().len() - sizes.window as usize)
        .map(|s| s.iterations as f64)
        .collect();
    let plane_us = |plane: &str| {
        let (sum, count) = hist_delta(&before, &after, &format!("step.plane.{plane}_seconds"));
        sum / count.max(1) as f64 * 1e6
    };
    let frames = after.counter("net.frames_delivered").unwrap_or(0)
        - before.counter("net.frames_delivered").unwrap_or(0);
    let solve_us = mean(&solve) * 1e6;
    let power_us = plane_us("power");
    Ok(vec![
        Metric::new("powerflow.solve_us", solve_us, solve.len()),
        Metric::new(
            "powerflow.nr_iterations",
            mean(&iterations),
            iterations.len(),
        ),
        Metric::new("core.publish_us", power_us - solve_us, iterations.len()),
        Metric::new(
            "kvstore.writes_per_step",
            (range.store.version() - version) as f64 / n,
            iterations.len(),
        ),
        Metric::new("plane.ied_us", plane_us("ied"), iterations.len()),
        Metric::new("plane.plc_us", plane_us("plc"), iterations.len()),
        Metric::new("plane.scada_us", plane_us("scada"), iterations.len()),
        Metric::new("plane.net_us", plane_us("net"), iterations.len()),
        Metric::new("plane.power_us", power_us, iterations.len()),
        Metric::new("net.frames_per_step", frames as f64 / n, iterations.len()),
    ])
}

fn step_span(ctx: &Ctx, range: &mut CyberRange, parent: Option<TraceCtx>) {
    ctx.spans
        .timed("range.step", Plane::Range, parent, || range.step());
}

/// Heap allocations per steady-state step of a range with telemetry off.
fn allocations(
    ctx: &mut Ctx,
    model: &Arc<CompiledModel>,
    sizes: &Sizes,
) -> Result<Vec<Metric>, Fatal> {
    let mut range = ctx.tenant(model)?;
    for _ in 0..sizes.warmup {
        range.step();
    }
    let span = ctx.spans.open("probe.alloc", Plane::Range, None);
    let ((), tally) = alloc::count(|| {
        for _ in 0..sizes.alloc_window {
            range.step();
        }
    });
    ctx.spans.close(span);
    let n = sizes.alloc_window as f64;
    Ok(vec![
        Metric::new(
            "alloc.per_step",
            tally.allocs as f64 / n,
            sizes.alloc_window as usize,
        ),
        Metric::new(
            "alloc.bytes_per_step",
            tally.bytes as f64 / n,
            sizes.alloc_window as usize,
        ),
    ])
}

fn checkpoints(ctx: &mut Ctx, model: &Arc<CompiledModel>) -> Result<Vec<Metric>, Fatal> {
    let probe = bench::checkpoint_probe(ctx, model)?;
    Ok(vec![
        Metric::new("checkpoint.capture_us", probe.capture * 1e6, 1),
        Metric::new("checkpoint.json_bytes", probe.json_bytes as f64, 1),
        Metric::new("checkpoint.resume_young_ms", probe.resume_young * 1e3, 1),
        Metric::new("checkpoint.resume_old_ms", probe.resume_old * 1e3, 1),
        Metric::new(
            "checkpoint.resume_age_ratio",
            probe.resume_old / probe.resume_young,
            1,
        ),
    ])
}

/// Attack-graph derivation and campaign planning on the compiled model, and
/// one whole exercise on a fresh tenant.
fn exercise_layers(
    ctx: &mut Ctx,
    model: &Arc<CompiledModel>,
    budget: f64,
) -> Result<Vec<Metric>, Fatal> {
    let adversary = ctx
        .scenario
        .adversary
        .clone()
        .ok_or("the workload exercise declares no adversary")?;
    let root = ctx.spans.open("probe.adversary", Plane::Range, None);
    let parent = root.ctx();
    let derive = repeat(5, budget / 6.0, || {
        ctx.spans
            .timed("adversary.derive", Plane::Range, parent, || {
                AttackGraph::derive(model)
            })
            .1
    });
    let graph = AttackGraph::derive(model);
    let request = PlanRequest {
        goal: &adversary.goal,
        budget: adversary.budget,
        seed: adversary.seed,
        ..PlanRequest::default()
    };
    let mut planned = true;
    let plan_s = repeat(5, budget / 6.0, || {
        let (result, seconds) = ctx.spans.timed("adversary.plan", Plane::Range, parent, || {
            plan(&graph, &request)
        });
        planned &= result.is_ok();
        seconds
    });
    ctx.tally.check(planned, || {
        format!("adversary plan for {} failed", adversary.goal)
    });
    ctx.spans.close(root);

    let mut range = ctx.tenant(model)?;
    let (report, exercise) = ctx
        .spans
        .timed("scenario.exercise", Plane::Range, None, || {
            run_exercise(&mut range, &ctx.scenario)
        });
    ctx.tally
        .check(report.is_ok(), || format!("exercise: {:?}", report.err()));
    Ok(vec![
        Metric::new("adversary.derive_us", derive * 1e6, 5),
        Metric::new("adversary.plan_us", plan_s * 1e6, 5),
        Metric::new("scenario.exercise_ms", exercise * 1e3, 1),
    ])
}

/// One farm run with per-tenant sinks on disk: the class round on
/// `epic-class`, a small soak fleet elsewhere.
fn farm(ctx: &mut Ctx, model: &Arc<CompiledModel>) -> Result<Vec<Metric>, Fatal> {
    let out_dir = ctx.work.join("farm");
    let (config, references) = match ctx.workload {
        Workload::EpicClass => {
            let config = e2e::class_config(ctx);
            let references = e2e::class_references(ctx, model, config.tenants)?;
            (config, Some(references))
        }
        Workload::S5Paper => (soak(2, if ctx.quick { 1 } else { 3 }), None),
    };
    let config = FarmConfig {
        out_dir: Some(out_dir),
        base_fault_seed: ctx.fault_base,
        ..config
    };
    let (report, _) = ctx.spans.timed("farm.run", Plane::Range, None, || {
        run_farm(model.clone(), &config)
    });
    for tenant in &report.per_tenant {
        match &references {
            Some(refs) => {
                e2e::check_tenant(ctx, tenant, refs.get(tenant.tenant).copied().flatten())
            }
            None => ctx.tally.check(
                tenant.error.is_none()
                    && !tenant.halted
                    && !tenant.given_up
                    && tenant.solve_errors == 0,
                || format!("soak tenant {}: {:?}", tenant.tenant, tenant.error),
            ),
        }
    }
    Ok(vec![
        Metric::new("farm.ranges_per_s", report.ranges_per_sec, report.tenants),
        Metric::new(
            "farm.journal_bytes_per_step",
            report.journal_bytes_written as f64 / report.steps_total.max(1) as f64,
            report.steps_total as usize,
        ),
    ])
}

fn soak(tenants: usize, sim_seconds: u64) -> FarmConfig {
    FarmConfig {
        tenants,
        threads: 0,
        sim_seconds,
        ..FarmConfig::default()
    }
}

/// Tracing cost: a range with spans on against one with telemetry off,
/// stepped alternately so both see the same host conditions.
fn tracing_overhead(
    ctx: &mut Ctx,
    model: &Arc<CompiledModel>,
    sizes: &Sizes,
) -> Result<Vec<Metric>, Fatal> {
    let telemetry = Telemetry::with_tracing();
    let mut traced = ctx.tenant_with(model, telemetry.clone())?;
    let mut plain = ctx.tenant(model)?;
    let span = ctx.spans.open("probe.tracing", Plane::Range, None);
    let (mut t_traced, mut t_plain) = (0.0, 0.0);
    for _ in 0..sizes.overhead_window {
        let start = Instant::now();
        plain.step();
        t_plain += start.elapsed().as_secs_f64();
        let start = Instant::now();
        traced.step();
        t_traced += start.elapsed().as_secs_f64();
    }
    ctx.spans.close(span);
    let same = plain.store.dump() == traced.store.dump();
    ctx.tally
        .check(same, || "tracing changed the simulation".to_string());
    let spans = telemetry.spans().len() as u64 + telemetry.spans_dropped();
    Ok(vec![
        Metric::new(
            "obs.trace_overhead",
            t_traced / t_plain,
            sizes.overhead_window as usize,
        ),
        Metric::new(
            "obs.spans_per_step",
            spans as f64 / sizes.overhead_window as f64,
            sizes.overhead_window as usize,
        ),
    ])
}
