//! The deterministic exercise engine: drives scenario stages into a running
//! [`CyberRange`] and polls objectives after every co-simulation step.
//!
//! Scheduling is **event-quantized**: stage eligibility is re-checked after
//! each step, so stage start times land on the range's step grid (default
//! 100 ms) — the same quantization the power plane already has. Stage
//! dependencies (`after="stage-id"`) resolve against the dependency's
//! *completion*: a power or link stage completes instantly, an `fci` stage
//! when its forged command round-trips, a `mitm` stage when its hold window
//! ends, a `scan` stage when its sweep finishes. Dependency chains whose
//! members complete at the same instant cascade within one poll, so purely
//! instantaneous sequences do not consume extra steps.
//!
//! Everything the engine does is derived from simulation time and
//! declaration order — no wall clock, no randomness — so a scenario's
//! after-action report is byte-identical run after run.

use crate::check::{check, Targets};
use crate::report::{ExerciseReport, ObjectiveOutcome, StageOutcome};
use crate::spec::{
    Adversary, AttackerHost, Check, LinkEffect, Objective, Scenario, Stage, StageAction,
    StageStart, TransformSpec,
};
use sgcr_adversary::{
    AttackGraph, CampaignPlan, Goal, PlanRequest, PlannedAction, PlannedStart, PlannedTransform,
};
use sgcr_attack::{
    FciAttackApp, FciHandle, FciPlan, MitmApp, MitmHandle, MitmPlan, ScanHandle, ScanPlan,
    ScannerApp, Transform,
};
use sgcr_core::CyberRange;
use sgcr_net::{Ipv4Addr, NodeId, SimDuration};
use sgcr_obs::{Event, OpenSpan, Plane};
use sgcr_powerflow::{ScenarioEvent, SimulationSchedule};
use std::collections::BTreeSet;
use std::fmt;

/// Interval between scanner probes (fast enough that a /28 sweep finishes
/// within a couple of range steps).
const SCAN_PROBE_INTERVAL: SimDuration = SimDuration::from_millis(20);

/// An error preparing or running an exercise.
#[derive(Debug, Clone, PartialEq)]
pub struct ExerciseError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ExerciseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ExerciseError {}

fn err(message: impl Into<String>) -> ExerciseError {
    ExerciseError {
        message: message.into(),
    }
}

/// How a running stage's completion is observed.
enum Probe {
    /// Completes the instant it starts (power, link).
    Instant,
    /// Completes when the forged command round-trips.
    Fci(FciHandle),
    /// Completes when the hold window ends (absolute sim ms).
    Mitm {
        handle: MitmHandle,
        stop_abs_ms: u64,
    },
    /// Completes when the sweep reports finished.
    Scan(ScanHandle),
}

struct StageRt {
    started_ms: Option<u64>,
    ended_ms: Option<u64>,
    detail: String,
    probe: Probe,
    span: Option<OpenSpan>,
}

enum Resolution {
    Pending,
    Done {
        passed: bool,
        at_ms: u64,
        detail: String,
    },
}

struct ObjectiveRt {
    resolution: Resolution,
    /// Trip count at exercise start, so [`Check::IedTrip`] only counts
    /// trips that happen *during* the exercise.
    baseline_trips: usize,
}

struct Engine {
    base_ms: u64,
    stages: Vec<StageRt>,
    objectives: Vec<ObjectiveRt>,
    /// Ids of planner-emitted campaign stages, when an `<Adversary>` was
    /// declared — they journal as adversary actions, not scenario stages.
    adversary_stages: BTreeSet<String>,
}

/// Runs a parsed scenario against a running range and returns the scored
/// after-action report.
///
/// Attacker hosts declared by the scenario are added to the range first;
/// the exercise then advances the range step by step for the scenario's
/// duration, starting stages as they become eligible and polling every
/// objective in between. Exercise times in the report are relative to the
/// range's clock when this call was made (normally zero on a fresh range).
///
/// # Errors
///
/// Returns [`ExerciseError`] when the scenario does not fit the range: the
/// first [`check`] finding (the same `SG5xxx` rules `sgcr-lint` applies),
/// led by its code and `line:column`. A *failed objective is not an
/// error* — it is a scored result.
pub fn run_exercise(
    range: &mut CyberRange,
    scenario: &Scenario,
) -> Result<ExerciseReport, ExerciseError> {
    // An <Adversary> declaration expands into ordinary hosts, stages, and a
    // goal objective before validation, so everything downstream — scoring,
    // journal, report — treats the campaign like a hand-written scenario.
    let mut adversary_stages = BTreeSet::new();
    let expanded: Option<Scenario> = match &scenario.adversary {
        Some(adv) => {
            let plan = plan_adversary(range, scenario, adv)?;
            adversary_stages = plan.steps.iter().map(|s| s.id.clone()).collect();
            Some(expand_adversary(scenario, &plan))
        }
        None => None,
    };
    let scenario: &Scenario = expanded.as_ref().unwrap_or(scenario);
    validate(range, scenario)?;

    if let Some(seed) = scenario.fault_seed {
        range.set_fault_seed(seed);
    }
    if let Some(stale) = scenario.stale_ms {
        range.set_scada_stale_window(Some(stale));
    }

    for host in &scenario.hosts {
        // `check` refused unparsable addresses above.
        if let Ok(ip) = host.ip.parse::<Ipv4Addr>() {
            range.add_host(&host.name, ip, &host.switch);
        }
    }

    let base_ms = range.now().as_millis();
    let mut engine = Engine {
        base_ms,
        stages: scenario
            .stages
            .iter()
            .map(|_| StageRt {
                started_ms: None,
                ended_ms: None,
                detail: String::new(),
                probe: Probe::Instant,
                span: None,
            })
            .collect(),
        objectives: scenario
            .objectives
            .iter()
            .map(|objective| ObjectiveRt {
                resolution: Resolution::Pending,
                baseline_trips: match &objective.check {
                    Check::IedTrip { ied } => range.ied_trip_count(ied).unwrap_or(0),
                    _ => 0,
                },
            })
            .collect(),
        adversary_stages,
    };

    loop {
        let now_rel = range.now().as_millis().saturating_sub(base_ms);
        engine.poll(range, scenario, now_rel, false);
        if now_rel >= scenario.duration_ms {
            break;
        }
        range.step();
    }
    let end_rel = range.now().as_millis().saturating_sub(base_ms);
    engine.poll(range, scenario, end_rel, true);
    Ok(engine.into_report(range, scenario, end_rel))
}

/// Derives the attack graph and runs the seeded planner for an
/// `<Adversary>` declaration, under an `adversary.plan` span.
fn plan_adversary(
    range: &CyberRange,
    scenario: &Scenario,
    adv: &Adversary,
) -> Result<CampaignPlan, ExerciseError> {
    let now = range.now();
    let mut span = range
        .telemetry()
        .tracer()
        .open("adversary.plan", Plane::Range, None, now);
    if span.is_recording() {
        span.attr("goal", adv.goal.clone());
        span.attr("seed", adv.seed.to_string());
        span.attr("budget", adv.budget.to_string());
    }

    let graph = AttackGraph::derive(range.model());
    let reserved_names: Vec<String> = scenario.hosts.iter().map(|h| h.name.clone()).collect();
    let reserved_ips: Vec<Ipv4Addr> = scenario
        .hosts
        .iter()
        .filter_map(|h| h.ip.parse().ok())
        .collect();
    let result = sgcr_adversary::plan(
        &graph,
        &PlanRequest {
            goal: &adv.goal,
            budget: adv.budget,
            seed: adv.seed,
            reserved_names: &reserved_names,
            reserved_ips: &reserved_ips,
        },
    );
    span.end(range.now());
    let plan = result.map_err(|e| err(format!("adversary: {e}")))?;
    range.telemetry().record(now, || Event::AdversaryPlanned {
        goal: adv.goal.clone(),
        seed: adv.seed,
        stages: plan.steps.len() as u64,
    });
    Ok(plan)
}

/// Rewrites the scenario with the campaign's hosts, stages, and goal
/// objective appended, so the ordinary engine machinery runs it.
fn expand_adversary(scenario: &Scenario, plan: &CampaignPlan) -> Scenario {
    let mut expanded = scenario.clone();
    let pos = scenario
        .adversary
        .as_ref()
        .map(|a| a.pos)
        .unwrap_or_default();
    for host in &plan.hosts {
        expanded.hosts.push(AttackerHost {
            name: host.name.clone(),
            ip: host.ip.to_string(),
            switch: host.switch.clone(),
            pos,
        });
    }
    for step in &plan.steps {
        let start = match &step.start {
            PlannedStart::At(t) => StageStart::At(*t),
            PlannedStart::After { step, delay_ms } => StageStart::After {
                stage: step.clone(),
                delay_ms: *delay_ms,
            },
        };
        let action = match &step.action {
            PlannedAction::Scan {
                host,
                first,
                last,
                ports,
            } => StageAction::Scan {
                host: host.clone(),
                first: first.to_string(),
                last: last.to_string(),
                ports: ports.clone(),
            },
            PlannedAction::Mitm {
                host,
                victim_a,
                victim_b,
                duration_ms,
                transform,
            } => StageAction::Mitm {
                host: host.clone(),
                victim_a: victim_a.clone(),
                victim_b: victim_b.clone(),
                duration_ms: *duration_ms,
                transform: match transform {
                    PlannedTransform::PassThrough => TransformSpec::PassThrough,
                    PlannedTransform::ScaleModbusRegisters(f) => {
                        TransformSpec::ScaleModbusRegisters(*f)
                    }
                    PlannedTransform::ScaleMmsFloats(f) => TransformSpec::ScaleMmsFloats(*f),
                },
            },
            PlannedAction::Fci {
                host,
                victim,
                item,
                value,
            } => StageAction::Fci {
                host: host.clone(),
                victim: victim.clone(),
                item: item.clone(),
                value: *value,
                interrogate: true,
            },
        };
        expanded.stages.push(Stage {
            id: step.id.clone(),
            start,
            action,
            pos,
        });
    }
    expanded.objectives.push(Objective {
        id: CampaignPlan::OBJECTIVE_ID.to_string(),
        points: 1,
        after: Some(plan.objective_after.clone()),
        within_ms: i64::try_from(plan.objective_within_ms).unwrap_or(i64::MAX),
        check: match &plan.goal {
            Goal::BreakerOpen { switch } => Check::BreakerOpen {
                switch: switch.clone(),
            },
            Goal::BreakerClosed { switch } => Check::BreakerClosed {
                switch: switch.clone(),
            },
            Goal::ScadaAlarm { point } => Check::ScadaAlarm {
                point: point.clone(),
            },
        },
        pos,
    });
    expanded
}

/// Rejects scenarios that do not fit the range before anything mutates:
/// the first [`check`] finding, led by its code and `line:column`.
fn validate(range: &CyberRange, scenario: &Scenario) -> Result<(), ExerciseError> {
    let Some(finding) = check(scenario, &range_targets(range), "")
        .into_iter()
        .next()
    else {
        return Ok(());
    };
    let (line, column) = finding.span.map_or((1, 1), |s| (s.line, s.column));
    Err(err(format!(
        "{} {line}:{column}: {} ({})",
        finding.code, finding.message, finding.context
    )))
}

/// What a scenario may reference on this range, including attacker hosts
/// earlier exercises added.
fn range_targets(range: &CyberRange) -> Targets {
    fn names<'a>(items: impl IntoIterator<Item = &'a String>) -> BTreeSet<String> {
        items.into_iter().cloned().collect()
    }
    let power = &range.power;
    Targets {
        hosts: names(range.plan().hosts.iter().map(|h| &h.name)),
        nodes: range
            .net
            .node_names()
            .into_iter()
            .map(String::from)
            .collect(),
        ips: (0..range.net.node_count())
            .map(NodeId)
            .filter(|&node| range.net.is_host(node))
            .map(|node| {
                (
                    range.net.host_ip(node),
                    range.net.node_name(node).to_string(),
                )
            })
            .collect(),
        subnetworks: names(range.plan().switches.iter().map(|s| &s.name)),
        ieds: names(range.ieds.keys()),
        switches: names(power.switch.iter().map(|s| &s.name)),
        lines: names(power.line.iter().map(|l| &l.name)),
        gens: names((power.gen.iter().map(|g| &g.name)).chain(power.sgen.iter().map(|g| &g.name))),
        loads: names(power.load.iter().map(|l| &l.name)),
        buses: names(power.bus.iter().map(|b| &b.name)),
        points: names(
            range
                .model()
                .scada
                .iter()
                .flat_map(|s| &s.config.sources)
                .flat_map(|source| &source.points)
                .map(|p| &p.name),
        ),
    }
}

impl Engine {
    /// One evaluation pass at exercise time `now_rel`: advance stages to a
    /// fixed point (instantaneous chains cascade), then poll objectives.
    /// With `finalize` set, everything still pending is resolved.
    fn poll(&mut self, range: &mut CyberRange, scenario: &Scenario, now_rel: u64, finalize: bool) {
        loop {
            let mut changed = false;
            for i in 0..scenario.stages.len() {
                changed |= self.advance_stage(range, scenario, i, now_rel);
            }
            if !changed {
                break;
            }
        }
        if finalize {
            for i in 0..scenario.stages.len() {
                self.close_stage_at_end(range, scenario, i);
            }
        }
        for i in 0..scenario.objectives.len() {
            self.eval_objective(range, scenario, i, now_rel, finalize);
        }
    }

    fn advance_stage(
        &mut self,
        range: &mut CyberRange,
        scenario: &Scenario,
        i: usize,
        now_rel: u64,
    ) -> bool {
        if self.stages[i].started_ms.is_none() {
            let eligible = match &scenario.stages[i].start {
                StageStart::At(t) => now_rel >= *t,
                StageStart::After { stage, delay_ms } => scenario
                    .stages
                    .iter()
                    .position(|s| &s.id == stage)
                    .and_then(|dep| self.stages[dep].ended_ms)
                    .is_some_and(|ended| now_rel >= ended + delay_ms),
            };
            if eligible {
                self.start_stage(range, scenario, i, now_rel);
                return true;
            }
            return false;
        }
        if self.stages[i].ended_ms.is_none() {
            let complete = match &self.stages[i].probe {
                Probe::Instant => true,
                Probe::Fci(handle) => handle.lock().completed_at_ms.is_some(),
                Probe::Mitm { stop_abs_ms, .. } => self.base_ms + now_rel >= *stop_abs_ms,
                Probe::Scan(handle) => handle.lock().finished,
            };
            if complete {
                self.end_stage(range, scenario, i, now_rel);
                return true;
            }
        }
        false
    }

    fn start_stage(&mut self, range: &mut CyberRange, scenario: &Scenario, i: usize, now_rel: u64) {
        let stage = &scenario.stages[i];
        let abs_now_ms = self.base_ms + now_rel;
        let mut detail = String::new();
        let probe = match &stage.action {
            StageAction::Power(action) => {
                // Reuse the power plane's own event executor for a one-shot
                // action; the new state takes effect at the next solve.
                let schedule = SimulationSchedule {
                    profiles: Vec::new(),
                    events: vec![ScenarioEvent {
                        at_ms: 1,
                        action: action.clone(),
                    }],
                };
                let touched = schedule.apply(&mut range.power, 0, 1);
                detail = touched.join("; ");
                Probe::Instant
            }
            StageAction::Fci {
                victim,
                item,
                value,
                interrogate,
                host,
            } => {
                // Victim resolution was validated; a race would only lose
                // the stage, not the exercise.
                let Some(victim_ip) = range.plan().host_ip(victim) else {
                    self.stages[i].detail = format!("victim {victim:?} vanished");
                    self.stages[i].started_ms = Some(now_rel);
                    self.stages[i].ended_ms = Some(now_rel);
                    return;
                };
                let (app, handle) = FciAttackApp::new(FciPlan {
                    victim: victim_ip,
                    item: item.clone(),
                    value: *value,
                    at_ms: abs_now_ms,
                    interrogate: *interrogate,
                });
                range.attach_app(host, Box::new(app));
                Probe::Fci(handle)
            }
            StageAction::Mitm {
                host,
                victim_a,
                victim_b,
                duration_ms,
                transform,
            } => {
                let (Some(a), Some(b)) = (
                    range.plan().host_ip(victim_a),
                    range.plan().host_ip(victim_b),
                ) else {
                    self.stages[i].detail = "victim vanished".to_string();
                    self.stages[i].started_ms = Some(now_rel);
                    self.stages[i].ended_ms = Some(now_rel);
                    return;
                };
                let stop_abs_ms = if *duration_ms == 0 {
                    u64::MAX
                } else {
                    abs_now_ms + duration_ms
                };
                let (app, handle) = MitmApp::new(MitmPlan {
                    victim_a: a,
                    victim_b: b,
                    start_ms: abs_now_ms,
                    stop_ms: stop_abs_ms,
                    transform: match transform {
                        TransformSpec::PassThrough => Transform::PassThrough,
                        TransformSpec::ScaleModbusRegisters(f) => {
                            Transform::ScaleModbusRegisters(*f)
                        }
                        TransformSpec::SetModbusRegisters(v) => Transform::SetModbusRegisters(*v),
                        TransformSpec::ScaleMmsFloats(f) => Transform::ScaleMmsFloats(*f),
                        TransformSpec::Drop => Transform::Drop,
                    },
                });
                range.attach_app(host, Box::new(app));
                Probe::Mitm {
                    handle,
                    stop_abs_ms,
                }
            }
            StageAction::Scan {
                host,
                first,
                last,
                ports,
            } => {
                let (Ok(first), Ok(last)) = (first.parse(), last.parse()) else {
                    self.stages[i].detail = "unparsable sweep range".to_string();
                    self.stages[i].started_ms = Some(now_rel);
                    self.stages[i].ended_ms = Some(now_rel);
                    return;
                };
                let (app, handle) = ScannerApp::new(ScanPlan {
                    first,
                    last,
                    ports: ports.clone(),
                    probe_interval: SCAN_PROBE_INTERVAL,
                });
                range.attach_app(host, Box::new(app));
                Probe::Scan(handle)
            }
            StageAction::Link { a, b, effect } => {
                let applied = match effect {
                    LinkEffect::Down => range.set_link_state(a, b, false),
                    LinkEffect::Up => range.set_link_state(a, b, true),
                    LinkEffect::Delay { latency_ms } => {
                        range.set_link_latency(a, b, SimDuration::from_millis(*latency_ms))
                    }
                };
                detail = if applied {
                    match effect {
                        LinkEffect::Down => format!("link {a} — {b} taken down"),
                        LinkEffect::Up => format!("link {a} — {b} restored"),
                        LinkEffect::Delay { latency_ms } => {
                            format!("link {a} — {b} latency set to {latency_ms} ms")
                        }
                    }
                } else {
                    format!("no direct link {a} — {b}")
                };
                Probe::Instant
            }
            StageAction::LinkFault { a, b, fault } => {
                let applied = range.set_link_fault(a, b, *fault);
                detail = if applied {
                    let target = format!("link {a} — {b}");
                    let summary = fault.summary();
                    range
                        .telemetry()
                        .record(range.now(), || Event::FaultInjected {
                            target: target.clone(),
                            detail: summary.clone(),
                        });
                    format!("{target} impaired: {summary}")
                } else {
                    format!("no direct link {a} — {b}")
                };
                Probe::Instant
            }
            StageAction::Crash {
                host,
                restart_after_ms,
            } => {
                // crash_host journals DeviceCrashed (and the watchdog later
                // journals DeviceRestarted) by itself.
                let applied = range.crash_host(host, *restart_after_ms);
                detail = if applied {
                    let summary = match restart_after_ms {
                        Some(ms) => format!("crashed, restart in {ms} ms"),
                        None => "crashed, stays down".to_string(),
                    };
                    range
                        .telemetry()
                        .record(range.now(), || Event::FaultInjected {
                            target: host.clone(),
                            detail: summary.clone(),
                        });
                    format!("host {host} {summary}")
                } else {
                    format!("host {host} cannot crash (unknown or a switch)")
                };
                Probe::Instant
            }
            StageAction::Sensor { ied, key, fault } => {
                let (applied, summary) = match fault {
                    Some(fault) => (
                        range.set_sensor_fault(ied, key, *fault),
                        format!("sensor {key} {}", fault.summary()),
                    ),
                    None => (
                        range.clear_sensor_fault(ied, key),
                        format!("sensor {key} cleared"),
                    ),
                };
                detail = if applied {
                    range
                        .telemetry()
                        .record(range.now(), || Event::FaultInjected {
                            target: ied.clone(),
                            detail: summary.clone(),
                        });
                    format!("{ied}: {summary}")
                } else {
                    format!("{ied}: {summary} not applied")
                };
                Probe::Instant
            }
        };

        let now = range.now();
        let is_adversary = self.adversary_stages.contains(&stage.id);
        if is_adversary {
            range
                .telemetry()
                .record(now, || Event::AdversaryActionStarted {
                    stage: stage.id.clone(),
                });
        } else {
            range.telemetry().record(now, || Event::StageStarted {
                stage: stage.id.clone(),
            });
        }
        let mut span = range.telemetry().tracer().open(
            if is_adversary {
                "adversary.action"
            } else {
                "scenario.stage"
            },
            Plane::Range,
            None,
            now,
        );
        if span.is_recording() {
            span.attr("stage", stage.id.clone());
            span.attr("kind", stage.action.kind());
        }
        self.stages[i].span = Some(span);
        self.stages[i].started_ms = Some(now_rel);
        self.stages[i].detail = detail;
        self.stages[i].probe = probe;
    }

    fn end_stage(&mut self, range: &mut CyberRange, scenario: &Scenario, i: usize, now_rel: u64) {
        let detail = match &self.stages[i].probe {
            Probe::Instant => self.stages[i].detail.clone(),
            Probe::Fci(handle) => {
                let report = handle.lock();
                format!(
                    "{} items discovered, command accepted: {}",
                    report.discovered_items.len(),
                    match report.command_accepted {
                        Some(true) => "yes",
                        Some(false) => "no",
                        None => "never answered",
                    }
                )
            }
            Probe::Mitm { handle, .. } => {
                let report = handle.lock();
                format!(
                    "position established: {}, {} frames forwarded, {} modified, {} dropped",
                    if report.position_established {
                        "yes"
                    } else {
                        "no"
                    },
                    report.forwarded,
                    report.modified,
                    report.dropped
                )
            }
            Probe::Scan(handle) => {
                let report = handle.lock();
                let open: usize = report.open_ports.values().map(Vec::len).sum();
                format!(
                    "{} hosts discovered, {} open ports",
                    report.hosts.len(),
                    open
                )
            }
        };
        self.stages[i].detail = detail;
        self.stages[i].ended_ms = Some(now_rel);
        let now = range.now();
        range.telemetry().record(now, || Event::StageEnded {
            stage: scenario.stages[i].id.clone(),
        });
        if let Some(span) = self.stages[i].span.take() {
            span.end(now);
        }
    }

    /// Closes the trace span of a stage still running at exercise end (its
    /// `ended_ms` stays `None` — the report shows it as unfinished).
    fn close_stage_at_end(&mut self, range: &CyberRange, scenario: &Scenario, i: usize) {
        if self.stages[i].started_ms.is_some() && self.stages[i].ended_ms.is_none() {
            // Summarize whatever the attack achieved by the cut-off.
            let summary = match &self.stages[i].probe {
                Probe::Mitm { handle, .. } => {
                    let report = handle.lock();
                    Some(format!(
                        "cut off at exercise end: {} frames forwarded, {} modified, {} dropped",
                        report.forwarded, report.modified, report.dropped
                    ))
                }
                Probe::Fci(handle) => {
                    let report = handle.lock();
                    Some(format!(
                        "cut off at exercise end: {} items discovered, no command round-trip",
                        report.discovered_items.len()
                    ))
                }
                Probe::Scan(handle) => {
                    let report = handle.lock();
                    Some(format!(
                        "cut off at exercise end: {} hosts discovered",
                        report.hosts.len()
                    ))
                }
                Probe::Instant => None,
            };
            if let Some(summary) = summary {
                self.stages[i].detail = summary;
            }
            if let Some(span) = self.stages[i].span.take() {
                span.end(range.now());
            }
            let _ = scenario;
        }
    }

    fn eval_objective(
        &mut self,
        range: &CyberRange,
        scenario: &Scenario,
        i: usize,
        now_rel: u64,
        finalize: bool,
    ) {
        if matches!(self.objectives[i].resolution, Resolution::Done { .. }) {
            return;
        }
        let objective = &scenario.objectives[i];

        if let Check::VoltageBand {
            bus,
            min_pu,
            max_pu,
            from_ms,
            to_ms,
        } = &objective.check
        {
            if now_rel >= *from_ms && now_rel <= *to_ms {
                let vm = range.bus_voltage_pu(bus).unwrap_or(0.0);
                if vm < *min_pu || vm > *max_pu {
                    self.resolve(
                        range,
                        scenario,
                        i,
                        false,
                        now_rel,
                        format!(
                            "voltage {vm:.4} pu outside [{min_pu}, {max_pu}] at t={now_rel} ms"
                        ),
                    );
                    return;
                }
            }
            if now_rel > *to_ms || finalize {
                let at = (*to_ms).min(now_rel);
                self.resolve(
                    range,
                    scenario,
                    i,
                    true,
                    at,
                    "no violation observed".to_string(),
                );
            }
            return;
        }

        // Reach objective: the condition must hold within the deadline
        // window anchored at the referenced stage's start.
        let anchor = match &objective.after {
            None => Some(0),
            Some(stage) => scenario
                .stages
                .iter()
                .position(|s| &s.id == stage)
                .and_then(|dep| self.stages[dep].started_ms),
        };
        let Some(anchor) = anchor else {
            if finalize {
                let stage = objective.after.as_deref().unwrap_or("?");
                self.resolve(
                    range,
                    scenario,
                    i,
                    false,
                    now_rel,
                    format!("anchor stage {stage:?} never started"),
                );
            }
            return;
        };
        // within_ms > 0 was validated.
        let deadline = anchor + u64::try_from(objective.within_ms).unwrap_or(0);
        if now_rel >= anchor && now_rel <= deadline {
            if let Some(detail) = self.check_holds(range, i, &objective.check) {
                self.resolve(range, scenario, i, true, now_rel, detail);
                return;
            }
            if finalize {
                self.resolve(
                    range,
                    scenario,
                    i,
                    false,
                    now_rel,
                    format!("exercise ended before deadline t={deadline} ms"),
                );
            }
            return;
        }
        if now_rel > deadline {
            self.resolve(
                range,
                scenario,
                i,
                false,
                now_rel,
                format!("deadline t={deadline} ms passed"),
            );
        } else if finalize {
            self.resolve(
                range,
                scenario,
                i,
                false,
                now_rel,
                format!("window never opened (anchor t={anchor} ms)"),
            );
        }
    }

    /// Whether a reach condition currently holds; `Some(detail)` on success.
    fn check_holds(&self, range: &CyberRange, i: usize, check: &Check) -> Option<String> {
        match check {
            Check::BreakerOpen { switch } => (range.switch_is_closed(switch) == Some(false))
                .then(|| format!("{switch} observed open")),
            Check::BreakerClosed { switch } => (range.switch_is_closed(switch) == Some(true))
                .then(|| format!("{switch} observed closed")),
            Check::ScadaAlarm { point } => range
                .scada_alarm_active(point)
                .then(|| format!("alarm on {point} active")),
            Check::IedTrip { ied } => {
                let trips = range.ied_trip_count(ied).unwrap_or(0);
                (trips > self.objectives[i].baseline_trips)
                    .then(|| format!("{ied} tripped ({trips} total)"))
            }
            Check::TagAbove { point, value } => {
                let shown = range.scada_tag(point)?;
                (shown > *value).then(|| format!("{point} displayed as {shown:.4}"))
            }
            Check::TagBelow { point, value } => {
                let shown = range.scada_tag(point)?;
                (shown < *value).then(|| format!("{point} displayed as {shown:.4}"))
            }
            Check::VoltageBand { .. } => None,
        }
    }

    fn resolve(
        &mut self,
        range: &CyberRange,
        scenario: &Scenario,
        i: usize,
        passed: bool,
        at_ms: u64,
        detail: String,
    ) {
        let id = &scenario.objectives[i].id;
        let now = range.now();
        range.telemetry().record(now, || Event::ObjectiveResolved {
            objective: id.clone(),
            passed,
        });
        let tracer = range.telemetry().tracer();
        let mut span = tracer.open("scenario.objective", Plane::Range, None, now);
        if span.is_recording() {
            span.attr("objective", id.clone());
            span.attr("outcome", if passed { "pass" } else { "fail" });
        }
        span.end(now);
        // The campaign's goal objective passing IS the adversary reaching
        // its declared goal.
        if passed && !self.adversary_stages.is_empty() && id == CampaignPlan::OBJECTIVE_ID {
            range
                .telemetry()
                .record(now, || Event::AdversaryGoalReached {
                    objective: id.clone(),
                });
        }
        self.objectives[i].resolution = Resolution::Done {
            passed,
            at_ms,
            detail,
        };
    }

    fn into_report(
        self,
        _range: &CyberRange,
        scenario: &Scenario,
        _end_rel: u64,
    ) -> ExerciseReport {
        let stages = scenario
            .stages
            .iter()
            .zip(&self.stages)
            .map(|(stage, rt)| StageOutcome {
                id: stage.id.clone(),
                kind: stage.action.kind(),
                started_ms: rt.started_ms,
                ended_ms: rt.ended_ms,
                detail: rt.detail.clone(),
            })
            .collect();
        let objectives = scenario
            .objectives
            .iter()
            .zip(&self.objectives)
            .map(|(objective, rt)| {
                let (passed, at_ms, detail) = match &rt.resolution {
                    Resolution::Done {
                        passed,
                        at_ms,
                        detail,
                    } => (*passed, *at_ms, detail.clone()),
                    // Unreachable: the finalize pass resolves everything.
                    Resolution::Pending => (false, 0, "unresolved".to_string()),
                };
                ObjectiveOutcome {
                    id: objective.id.clone(),
                    description: objective.describe(),
                    passed,
                    resolved_at_ms: at_ms,
                    detail,
                    points: objective.points,
                    earned: if passed { objective.points } else { 0 },
                }
            })
            .collect();
        ExerciseReport {
            scenario: scenario.name.clone(),
            description: scenario.description.clone(),
            duration_ms: scenario.duration_ms,
            stages,
            objectives,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::spec::Scenario;
    use sgcr_core::CompiledModel;
    use sgcr_models::epic_bundle;

    fn scenario(xml: &str) -> Scenario {
        Scenario::parse(xml).unwrap()
    }

    #[test]
    fn power_stage_with_reach_and_band_objectives() {
        let mut range =
            CyberRange::instantiate(CompiledModel::shared(&epic_bundle()).unwrap()).unwrap();
        let s = scenario(
            r#"<Scenario name="t" durationMs="1500">
  <Stage id="open" t="300" kind="power" action="openSwitch" target="EPIC/CB_HOME"/>
  <Objective id="opened" kind="breakerOpen" target="EPIC/CB_HOME" after="open" withinMs="500"/>
  <Objective id="too-tight" kind="breakerOpen" target="EPIC/CB_GEN" withinMs="1" points="3"/>
  <Objective id="band" kind="voltageBand" bus="EPIC/LV/GenBay/CN_GEN" min="0.5" max="1.5" fromMs="0" toMs="1000"/>
</Scenario>"#,
        );
        let report = run_exercise(&mut range, &s).unwrap();
        assert_eq!(report.stages.len(), 1);
        assert_eq!(report.stages[0].started_ms, Some(300));
        assert_eq!(report.stages[0].ended_ms, Some(300));
        let by_id = |id: &str| report.objectives.iter().find(|o| o.id == id).unwrap();
        assert!(by_id("opened").passed);
        assert!(by_id("band").passed);
        // CB_GEN never opens, so the 1 ms deadline cannot be met: the
        // objective fails and is still listed in the report.
        let tight = by_id("too-tight");
        assert!(!tight.passed);
        assert_eq!(tight.earned, 0);
        assert_eq!(tight.points, 3);
        let score = report.score();
        assert_eq!(score.earned, 2);
        assert_eq!(score.total, 5);
    }

    #[test]
    fn fault_stages_apply_and_stale_alarm_fires() {
        let mut range =
            CyberRange::instantiate(CompiledModel::shared(&epic_bundle()).unwrap()).unwrap();
        // Crash the MMS source of MicroVolt_pu after its first poll lands;
        // with a 1.5 s stale window the tag flips to quality `old` and the
        // staleness alarm raises long before the host restarts.
        let s = scenario(
            r#"<Scenario name="faults" durationMs="6000" faultSeed="7" staleMs="1500">
  <Stage id="impair" t="200" kind="linkFault" a="SCADA" b="ControlBus" loss="0.05" jitterMs="2"/>
  <Stage id="crash" t="1500" kind="crash" host="MIED1" restartAfterMs="2000"/>
  <Stage id="stick" t="300" kind="sensor" ied="GIED1" key="meas/EPIC/branch/LGen/i_ka" mode="stuck"/>
  <Stage id="unstick" after="stick" delayMs="2000" kind="sensor" ied="GIED1" key="meas/EPIC/branch/LGen/i_ka" mode="clear"/>
  <Objective id="stale" kind="scadaAlarm" point="stale:MicroVolt_pu" withinMs="5500"/>
</Scenario>"#,
        );
        let report = run_exercise(&mut range, &s).unwrap();
        let by_id = |id: &str| report.stages.iter().find(|st| st.id == id).unwrap();
        assert!(by_id("impair").detail.contains("loss=5%"));
        assert!(by_id("crash").detail.contains("restart in 2000 ms"));
        assert!(by_id("stick").detail.contains("stuck"));
        assert!(by_id("unstick").detail.contains("cleared"));
        let stale = report.objectives.iter().find(|o| o.id == "stale").unwrap();
        assert!(
            stale.passed,
            "stale-tag alarm never fired: {}",
            stale.detail
        );
    }

    #[test]
    fn dependent_stage_waits_for_completion() {
        let mut range =
            CyberRange::instantiate(CompiledModel::shared(&epic_bundle()).unwrap()).unwrap();
        let s = scenario(
            r#"<Scenario name="t" durationMs="1000">
  <Stage id="first" t="200" kind="power" action="openSwitch" target="EPIC/CB_HOME"/>
  <Stage id="second" after="first" delayMs="300" kind="power" action="closeSwitch" target="EPIC/CB_HOME"/>
</Scenario>"#,
        );
        let report = run_exercise(&mut range, &s).unwrap();
        assert_eq!(report.stages[0].started_ms, Some(200));
        assert_eq!(report.stages[1].started_ms, Some(500));
        assert_eq!(range.switch_is_closed("EPIC/CB_HOME"), Some(true));
    }
}
