//! The untraced run: end-to-end metrics with telemetry off wherever the API
//! allows (the farm keeps its own default telemetry).

use crate::bench::{self, AgedTenant, Ctx, Fatal, Side, Workload, AGED_TENANTS, S5_ROUND_STEPS};
use crate::report::Metric;
use crate::stats::{max, median, min, quantile};
use sg_cyber_range::core::{CompiledModel, CyberRange, RangeBuilder};
use sg_cyber_range::farm::{run_farm, FarmConfig, TenantReport};
use sg_cyber_range::obs::Plane;
use sg_cyber_range::scenario::run_exercise;
use std::sync::Arc;
use std::time::Instant;

/// Host seconds of main work between two side rounds (see [`Side`]).
const SLICE_S: f64 = 1.0;

/// Bus voltage band every `s5-paper` solution must respect.
const VOLTAGE_BAND_PU: (f64, f64) = (0.9, 1.1);

/// Fewest step samples a p99 may rest on.
const P99_MIN_SAMPLES: usize = 1000;

/// What a main phase measured, window by window.
#[derive(Default)]
struct Phase {
    /// Real-time factor of each window (simulated seconds per host second):
    /// a slice on `s5-paper`, a farm round on `epic-class`.
    rtf: Vec<f64>,
    /// The step latency samples of each window, in seconds: a slice on
    /// `s5-paper`, an aging slice on `epic-class`.
    windows: Vec<Vec<f64>>,
}

impl Phase {
    /// The smallest window median.
    fn best_p50(&self) -> f64 {
        min(&self.windows.iter().map(|w| median(w)).collect::<Vec<_>>())
    }

    /// The p99 of every step sample of the run, and the sample count.
    fn p99(&self) -> (f64, usize) {
        let all: Vec<f64> = self.windows.concat();
        (quantile(&all, 0.99), all.len())
    }
}

/// Neighbours on a shared host slow everything down 1.3-1.7x for seconds
/// to minutes at a time. The best window of a run and the best sample of
/// each one-shot operation track the program's own cost rather than the
/// neighbours'. The p99 pools every step of the run: a tail taken from
/// a few selected windows moved more between runs than one over the
/// whole run.
pub fn run(ctx: &mut Ctx, seconds: f64) -> Result<Vec<Metric>, Fatal> {
    let mut side = Side::default();
    let (model, first) = bench::setup_once(ctx)?;
    side.setup.push(first);
    bench::prime_lint_cache(ctx)?;
    let phase = match ctx.workload {
        Workload::S5Paper => s5_phase(ctx, &model, seconds, &mut side)?,
        Workload::EpicClass => class_phase(ctx, &model, seconds, &mut side)?,
    };
    let setup: Vec<f64> = side.setup.iter().map(|t| t.total()).collect();
    let rss = bench::rss_peak_mb().ok_or("no /proc/self/status")?;
    let floor = if ctx.quick { 1 } else { P99_MIN_SAMPLES };
    let (p99, pooled) = phase.p99();
    ctx.tally.check(pooled >= floor, || {
        format!("step_p99_ms rests on {pooled} samples, fewer than {floor}")
    });
    Ok(vec![
        Metric::new("setup_s", min(&setup), setup.len()),
        Metric::new("rtf", max(&phase.rtf), phase.rtf.len()),
        Metric::new("step_p50_ms", phase.best_p50() * 1e3, phase.windows.len()),
        Metric::new("step_p99_ms", p99 * 1e3, pooled),
        Metric::new("relint_ms", min(&side.relint) * 1e3, side.relint.len()),
        Metric::new(
            "checkpoint_ms",
            side.checkpoint_s() * 1e3,
            side.checkpoint.len(),
        ),
        Metric::new("resume_ms", min(&side.resume) * 1e3, side.resume.len()),
        Metric::new("rss_peak_mb", rss, 1),
    ])
}

/// Runs `slice` (about `SLICE_S` of main work each call) until `seconds`
/// have passed, with one [`Side::round`] after every slice.
fn sliced(
    ctx: &mut Ctx,
    model: &Arc<CompiledModel>,
    seconds: f64,
    side: &mut Side,
    mut slice: impl FnMut(&mut Ctx, f64) -> Result<(), Fatal>,
) -> Result<(), Fatal> {
    let olds = (0..AGED_TENANTS)
        .map(|_| AgedTenant::new(ctx, model, ctx.old))
        .collect::<Result<Vec<_>, _>>()?;
    let slice_s = if ctx.quick { 0.05 } else { SLICE_S };
    let started = Instant::now();
    let mut k = 0;
    while started.elapsed().as_secs_f64() < seconds || k == 0 {
        slice(ctx, slice_s)?;
        side.round(ctx, &olds[k % AGED_TENANTS], k as u64)?;
        k += 1;
    }
    Ok(())
}

/// Power balance of the last solution: sources minus loads equals the
/// losses, and the losses are not negative.
fn power_balances(range: &CyberRange) -> bool {
    let (net, r) = (&range.power, &range.last_result);
    let energized = |bus: usize| r.bus.get(bus).is_some_and(|b| b.energized);
    let sgen: f64 = net
        .sgen
        .iter()
        .filter(|s| s.in_service && energized(s.bus.index()))
        .map(|s| s.p_mw * s.scaling)
        .sum();
    let load: f64 = net
        .load
        .iter()
        .filter(|l| l.in_service && energized(l.bus.index()))
        .map(|l| l.p_mw * l.scaling)
        .sum();
    let source = r.total_ext_grid_p_mw() + r.gen.iter().map(|g| g.p_mw).sum::<f64>() + sgen;
    let residual = source - load - r.total_losses_mw;
    residual.abs() <= 1e-6 * source.abs().max(1.0) && r.total_losses_mw >= -1e-9
}

/// Steps `range` once, timed, and checks that its solve converged.
fn timed_step(ctx: &mut Ctx, range: &mut CyberRange) -> f64 {
    let errors_before = range.solve_errors_total();
    let t = Instant::now();
    range.step();
    let seconds = t.elapsed().as_secs_f64();
    let errors = range.solve_errors_total() - errors_before;
    ctx.tally.check(errors == 0, || {
        format!("step {}: power flow did not converge", range.steps_total())
    });
    seconds
}

/// Checks that every energized bus of an `s5-paper` step sits inside the
/// voltage band.
fn check_voltage_band(ctx: &mut Ctx, range: &CyberRange) {
    let (lo, hi) = VOLTAGE_BAND_PU;
    let in_band = range
        .last_result
        .bus
        .iter()
        .filter(|b| b.energized)
        .all(|b| (lo..=hi).contains(&b.vm_pu));
    ctx.tally.check(in_band, || {
        format!(
            "step {}: bus voltage outside [{lo}, {hi}] pu",
            range.steps_total()
        )
    });
}

/// `s5-paper`: one range steps back to back; every `S5_ROUND_STEPS` it
/// restarts from the model, so the load profiles never run out.
fn s5_phase(
    ctx: &mut Ctx,
    model: &Arc<CompiledModel>,
    seconds: f64,
    side: &mut Side,
) -> Result<Phase, Fatal> {
    let interval = model_interval_s(model);
    let mut phase = Phase::default();
    let mut range = ctx.tenant(model)?;
    sliced(ctx, model, seconds, side, |ctx, slice_s| {
        let mut window = Vec::new();
        let slice_start = Instant::now();
        while slice_start.elapsed().as_secs_f64() < slice_s {
            if range.steps_total() == S5_ROUND_STEPS {
                let balanced = power_balances(&range);
                ctx.tally.check(balanced, || {
                    "round end: power balance does not close".to_string()
                });
                range = ctx.tenant(model)?;
            }
            window.push(timed_step(ctx, &mut range));
            check_voltage_band(ctx, &range);
        }
        let stepped = window.len() as f64;
        phase
            .rtf
            .push(stepped * interval / slice_start.elapsed().as_secs_f64());
        phase.windows.push(window);
        Ok(())
    })?;
    let balanced = power_balances(&range);
    ctx.tally.check(balanced, || {
        "run end: power balance does not close".to_string()
    });
    Ok(phase)
}

fn model_interval_s(model: &CompiledModel) -> f64 {
    model.interval.as_secs_f64()
}

/// The farm configuration of one `epic-class` round: many more tenants
/// than worker threads.
pub fn class_config(ctx: &Ctx) -> FarmConfig {
    FarmConfig {
        tenants: if ctx.quick { 3 } else { 48 },
        threads: 0,
        sim_seconds: ctx.scenario.duration_ms.div_ceil(1000),
        base_fault_seed: ctx.fault_base,
        scenario: Some(ctx.scenario.clone()),
        ..FarmConfig::default()
    }
}

/// Each class tenant's score from an untimed direct `run_exercise` with
/// telemetry off: the reference every farm tenant must match.
pub fn class_references(
    ctx: &mut Ctx,
    model: &Arc<CompiledModel>,
    tenants: usize,
) -> Result<Vec<Option<(u32, u32)>>, Fatal> {
    let mut scores = Vec::with_capacity(tenants);
    for i in 0..tenants {
        let mut range = RangeBuilder::from_model(model.clone())
            .fault_seed(ctx.fault_base + i as u64)
            .build()
            .map_err(|e| format!("instantiate: {e}"))?;
        match run_exercise(&mut range, &ctx.scenario) {
            Ok(report) => {
                let s = report.score();
                scores.push(Some((s.earned, s.total)));
            }
            Err(e) => {
                ctx.tally
                    .check(false, || format!("reference exercise {i}: {e}"));
                scores.push(None);
            }
        }
    }
    Ok(scores)
}

/// Checks one farm tenant against its reference score.
pub fn check_tenant(ctx: &mut Ctx, tenant: &TenantReport, reference: Option<(u32, u32)>) {
    let ok = tenant.error.is_none()
        && !tenant.given_up
        && !tenant.halted
        && tenant.solve_errors == 0
        && reference.is_some()
        && tenant.score == reference;
    ctx.tally.check(ok, || {
        format!(
            "tenant {}: score {:?} (reference {:?}), error {:?}, given up {}, halted {}, solve errors {}",
            tenant.tenant, tenant.score, reference, tenant.error, tenant.given_up, tenant.halted, tenant.solve_errors
        )
    });
}

/// Steps of one `epic-class` aging slice.
const AGING_STEPS: usize = 2000;

/// `epic-class`: farm rounds of exercise tenants back to back, one `rtf`
/// window per round. The farm owns its step loop, so step latency comes
/// from an aging slice after each slice of rounds: the benchmark times
/// every `step()` of one directly stepped EPIC tenant, which restarts from
/// the model at the old age.
fn class_phase(
    ctx: &mut Ctx,
    model: &Arc<CompiledModel>,
    seconds: f64,
    side: &mut Side,
) -> Result<Phase, Fatal> {
    let config = class_config(ctx);
    let references = class_references(ctx, model, config.tenants)?;
    let interval = model_interval_s(model);
    let aging_steps = if ctx.quick { 20 } else { AGING_STEPS };
    let mut phase = Phase::default();
    let mut aging = ctx.tenant(model)?;
    sliced(ctx, model, seconds, side, |ctx, slice_s| {
        let slice_start = Instant::now();
        while slice_start.elapsed().as_secs_f64() < slice_s {
            let (report, wall) = ctx.spans.timed("farm.run", Plane::Range, None, || {
                run_farm(model.clone(), &config)
            });
            for tenant in &report.per_tenant {
                check_tenant(
                    ctx,
                    tenant,
                    references.get(tenant.tenant).copied().flatten(),
                );
            }
            phase.rtf.push(report.steps_total as f64 * interval / wall);
        }
        let mut window = Vec::with_capacity(aging_steps);
        for _ in 0..aging_steps {
            if aging.steps_total() == ctx.old {
                aging = ctx.tenant(model)?;
            }
            window.push(timed_step(ctx, &mut aging));
        }
        phase.windows.push(window);
        Ok(())
    })?;
    Ok(phase)
}
