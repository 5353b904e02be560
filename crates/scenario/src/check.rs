//! The scenario checker (`SG5xxx`): does a scenario fit the model it runs
//! against?
//!
//! One set of rules serves both consumers. `sgcr-lint` fills [`Targets`]
//! from the bundle files and reports every finding with its
//! `file:line:column`; the exercise engine fills it from the live range
//! and refuses the scenario on the first finding.

use crate::spec::{Check, Pos, Scenario, StageAction, StageStart};
use sgcr_net::Ipv4Addr;
use sgcr_powerflow::ScenarioAction;
use sgcr_scl::{codes, Diagnostic, Span};
use std::collections::{btree_map, BTreeMap, BTreeSet, HashMap};

/// Everything a scenario can legally reference, as plain name sets.
#[derive(Debug, Clone, Default)]
pub struct Targets {
    /// Generated hosts (IEDs, PLCs, SCADA): the possible stage victims.
    pub hosts: BTreeSet<String>,
    /// Every named network node: generated hosts, switches and, on a live
    /// range, attacker hosts added by earlier exercises.
    pub nodes: BTreeSet<String>,
    /// The IPv4 address of every host on the network, with the host's name:
    /// generated hosts and, on a live range, attacker hosts added by
    /// earlier exercises.
    pub ips: BTreeMap<Ipv4Addr, String>,
    /// Subnetwork switches an attacker host can attach to.
    pub subnetworks: BTreeSet<String>,
    /// IED names.
    pub ieds: BTreeSet<String>,
    /// Scoped (`Substation/Name`) power switches: breakers and disconnectors.
    pub switches: BTreeSet<String>,
    /// Scoped line names.
    pub lines: BTreeSet<String>,
    /// Scoped generator names (batteries and static generators included).
    pub gens: BTreeSet<String>,
    /// Scoped load names.
    pub loads: BTreeSet<String>,
    /// Connectivity-node paths (`Substation/VoltageLevel/Bay/Name`).
    pub buses: BTreeSet<String>,
    /// SCADA point (tag) names; empty without SCADA.
    pub points: BTreeSet<String>,
}

/// Checks `scenario` against `targets` and returns every finding as an
/// error diagnostic anchored at the offending element in `file`.
pub fn check(scenario: &Scenario, targets: &Targets, file: &str) -> Vec<Diagnostic> {
    let mut findings = Findings {
        file,
        out: Vec::new(),
    };
    check_ids(scenario, &mut findings);
    check_dependencies(scenario, &mut findings);
    check_hosts(scenario, targets, &mut findings);
    check_stages(scenario, targets, &mut findings);
    check_objectives(scenario, targets, &mut findings);
    findings.out
}

struct Findings<'a> {
    file: &'a str,
    out: Vec<Diagnostic>,
}

impl Findings<'_> {
    fn push(&mut self, code: &'static str, pos: Pos, context: String, message: String) {
        let span = if pos.line > 0 {
            Span::new(self.file, pos.line, pos.column)
        } else {
            Span::new(self.file, 1, 1)
        };
        self.out
            .push(Diagnostic::error(code, message, context).with_span(span));
    }

    fn unknown(&mut self, what: &str, target: &str, context: String, pos: Pos) {
        self.push(
            codes::SCENARIO_UNKNOWN_TARGET,
            pos,
            context,
            format!("{what} {target:?} is not defined by the bundle"),
        );
    }
}

/// SG5004: two stages or two objectives sharing one id.
fn check_ids(scenario: &Scenario, findings: &mut Findings<'_>) {
    let mut stage_ids = BTreeSet::new();
    for stage in &scenario.stages {
        if !stage_ids.insert(stage.id.as_str()) {
            findings.push(
                codes::SCENARIO_DUPLICATE_ID,
                stage.pos,
                format!("Stage {}", stage.id),
                format!("stage id {:?} is declared more than once", stage.id),
            );
        }
    }
    let mut objective_ids = BTreeSet::new();
    for objective in &scenario.objectives {
        if !objective_ids.insert(objective.id.as_str()) {
            findings.push(
                codes::SCENARIO_DUPLICATE_ID,
                objective.pos,
                format!("Objective {}", objective.id),
                format!("objective id {:?} is declared more than once", objective.id),
            );
        }
    }
}

/// SG5002: `after=` references that point at no stage, at the stage
/// itself, or around a cycle.
fn check_dependencies(scenario: &Scenario, findings: &mut Findings<'_>) {
    let stages = &scenario.stages;
    // References resolve to the first stage declaring an id, as in the engine.
    let mut index: HashMap<&str, usize> = HashMap::with_capacity(stages.len());
    for (i, stage) in stages.iter().enumerate() {
        index.entry(stage.id.as_str()).or_insert(i);
    }
    let mut parent = vec![None; stages.len()];
    for (i, stage) in stages.iter().enumerate() {
        let StageStart::After { stage: dep, .. } = &stage.start else {
            continue;
        };
        let message = if dep == &stage.id {
            format!("stage {:?} waits for itself", stage.id)
        } else if let Some(&p) = index.get(dep.as_str()) {
            parent[i] = Some(p);
            continue;
        } else {
            format!("stage {:?} waits for undefined stage {dep:?}", stage.id)
        };
        findings.push(
            codes::SCENARIO_UNDEFINED_STAGE,
            stage.pos,
            format!("Stage {}", stage.id),
            message,
        );
    }

    // Each stage has at most one parent, so every walk ends at a root, at
    // a stage an earlier walk settled, or back on itself: a cycle. Marks
    // make the whole pass linear in the number of stages.
    const SETTLED: u8 = 2;
    const ON_WALK: u8 = 1;
    let mut mark = vec![0u8; stages.len()];
    let mut walk = Vec::new();
    for start in 0..stages.len() {
        let mut cursor = Some(start);
        while let Some(i) = cursor {
            match mark[i] {
                0 => {
                    mark[i] = ON_WALK;
                    walk.push(i);
                    cursor = parent[i];
                }
                ON_WALK => {
                    // The walk from `i` on is the cycle in `after=` order;
                    // report it once, at its first-declared stage.
                    let cycle = &walk[walk.iter().position(|&w| w == i).unwrap_or(0)..];
                    let k = (0..cycle.len()).min_by_key(|&k| cycle[k]).unwrap_or(0);
                    let path: Vec<&str> = (cycle[k..].iter().chain(&cycle[..=k]))
                        .map(|&s| stages[s].id.as_str())
                        .collect();
                    let first = &stages[cycle[k]];
                    findings.push(
                        codes::SCENARIO_UNDEFINED_STAGE,
                        first.pos,
                        format!("Stage {}", first.id),
                        format!(
                            "stage {:?} is in a dependency cycle ({})",
                            first.id,
                            path.join(" -> ")
                        ),
                    );
                    break;
                }
                _ => break,
            }
        }
        for i in walk.drain(..) {
            mark[i] = SETTLED;
        }
    }

    for objective in &scenario.objectives {
        if let Some(dep) = &objective.after {
            if !index.contains_key(dep.as_str()) {
                findings.push(
                    codes::SCENARIO_UNDEFINED_STAGE,
                    objective.pos,
                    format!("Objective {}", objective.id),
                    format!(
                        "objective {:?} is anchored to undefined stage {dep:?}",
                        objective.id
                    ),
                );
            }
        }
    }
}

/// Attacker hosts: fresh names (SG5004) with a parsable, fresh address
/// (SG5008) on a known subnetwork (SG5001).
fn check_hosts(scenario: &Scenario, targets: &Targets, findings: &mut Findings<'_>) {
    let mut declared = BTreeSet::new();
    // Who holds each address so far: range hosts, then declared attackers.
    let mut owners: BTreeMap<Ipv4Addr, &str> = targets
        .ips
        .iter()
        .map(|(ip, host)| (*ip, host.as_str()))
        .collect();
    for host in &scenario.hosts {
        let context = format!("Host {}", host.name);
        if !declared.insert(host.name.as_str()) {
            findings.push(
                codes::SCENARIO_DUPLICATE_ID,
                host.pos,
                context.clone(),
                format!("host {:?} is declared more than once", host.name),
            );
        } else if targets.nodes.contains(&host.name) {
            findings.push(
                codes::SCENARIO_DUPLICATE_ID,
                host.pos,
                context.clone(),
                format!("host {:?} clashes with an existing network node", host.name),
            );
        }
        match host.ip.parse::<Ipv4Addr>() {
            Err(_) => findings.push(
                codes::SCENARIO_BAD_ATTACKER_HOST,
                host.pos,
                context.clone(),
                format!("host {:?} has unparsable ip {:?}", host.name, host.ip),
            ),
            Ok(ip) => match owners.entry(ip) {
                btree_map::Entry::Occupied(owner) => findings.push(
                    codes::SCENARIO_BAD_ATTACKER_HOST,
                    host.pos,
                    context.clone(),
                    format!(
                        "host {:?} reuses ip {ip} of host {:?}; an attacker ip must be fresh",
                        host.name,
                        owner.get()
                    ),
                ),
                btree_map::Entry::Vacant(slot) => {
                    slot.insert(&host.name);
                }
            },
        }
        if !targets.subnetworks.contains(&host.switch) {
            findings.push(
                codes::SCENARIO_UNKNOWN_TARGET,
                host.pos,
                context,
                format!(
                    "host {:?} attaches to unknown subnetwork {:?}",
                    host.name, host.switch
                ),
            );
        }
    }
}

/// Stage targets (SG5001, SG5005, SG5006), link-fault probabilities
/// (SG5007), and attacker hosts that cannot run the stage (SG5008).
fn check_stages(scenario: &Scenario, targets: &Targets, findings: &mut Findings<'_>) {
    let declared: BTreeSet<&str> = scenario.hosts.iter().map(|h| h.name.as_str()).collect();
    let is_node = |name: &str| targets.nodes.contains(name) || declared.contains(name);
    // A host runs at most one app, so it carries at most one cyber stage.
    let mut busy = BTreeSet::new();
    for stage in &scenario.stages {
        let context = || format!("Stage {}", stage.id);
        let attacker = match &stage.action {
            StageAction::Fci { host, .. }
            | StageAction::Mitm { host, .. }
            | StageAction::Scan { host, .. } => Some(host),
            _ => None,
        };
        if let Some(host) = attacker {
            if !declared.contains(host.as_str()) {
                findings.unknown("attacker host", host, context(), stage.pos);
            } else if !busy.insert(host.as_str()) {
                findings.push(
                    codes::SCENARIO_BAD_ATTACKER_HOST,
                    stage.pos,
                    context(),
                    format!(
                        "stage {:?} reuses attacker host {host:?} (a host runs at most one app)",
                        stage.id
                    ),
                );
            }
        }
        match &stage.action {
            StageAction::Power(action) => {
                let (set, target, what) = match action {
                    ScenarioAction::OpenSwitch(t) | ScenarioAction::CloseSwitch(t) => {
                        (&targets.switches, t, "switch")
                    }
                    ScenarioAction::LineOutage(t) | ScenarioAction::LineRestore(t) => {
                        (&targets.lines, t, "line")
                    }
                    ScenarioAction::GenLoss(t) | ScenarioAction::GenRestore(t) => {
                        (&targets.gens, t, "generator")
                    }
                    ScenarioAction::SetLoadP(t, _) => (&targets.loads, t, "load"),
                };
                if !set.contains(target) {
                    findings.unknown(what, target, context(), stage.pos);
                }
            }
            StageAction::Fci { victim, .. } => {
                if !targets.hosts.contains(victim) {
                    findings.unknown("victim", victim, context(), stage.pos);
                }
            }
            StageAction::Mitm {
                victim_a, victim_b, ..
            } => {
                for victim in [victim_a, victim_b] {
                    if !targets.hosts.contains(victim) {
                        findings.unknown("victim", victim, context(), stage.pos);
                    }
                }
            }
            StageAction::Scan { first, last, .. } => {
                for addr in [first, last] {
                    if addr.parse::<Ipv4Addr>().is_err() {
                        findings.push(
                            codes::SCENARIO_BAD_ATTACKER_HOST,
                            stage.pos,
                            context(),
                            format!("stage {:?} has unparsable address {addr:?}", stage.id),
                        );
                    }
                }
            }
            StageAction::Link { a, b, .. } => {
                for end in [a, b] {
                    if !is_node(end) {
                        findings.unknown("link endpoint", end, context(), stage.pos);
                    }
                }
            }
            StageAction::LinkFault { a, b, fault } => {
                for end in [a, b] {
                    if !is_node(end) {
                        findings.push(
                            codes::SCENARIO_UNKNOWN_FAULT_TARGET,
                            stage.pos,
                            context(),
                            format!("link endpoint {end:?} is not defined by the bundle"),
                        );
                    }
                }
                for (what, p) in [
                    ("loss", fault.loss),
                    ("corrupt", fault.corrupt),
                    ("duplicate", fault.duplicate),
                ] {
                    if !(0.0..=1.0).contains(&p) {
                        findings.push(
                            codes::SCENARIO_BAD_FAULT_PROBABILITY,
                            stage.pos,
                            context(),
                            format!("stage {:?} has {what}={p} outside [0, 1]", stage.id),
                        );
                    }
                }
            }
            StageAction::Crash { host, .. } => {
                // Switches are nodes too, but only hosts can crash.
                if !is_node(host) || targets.subnetworks.contains(host) {
                    findings.push(
                        codes::SCENARIO_UNKNOWN_FAULT_TARGET,
                        stage.pos,
                        context(),
                        format!("crashed host {host:?} is not defined by the bundle"),
                    );
                }
            }
            StageAction::Sensor { ied, .. } => {
                if !targets.ieds.contains(ied) {
                    findings.push(
                        codes::SCENARIO_UNKNOWN_FAULT_IED,
                        stage.pos,
                        context(),
                        format!("sensor fault IED {ied:?} is not defined by the bundle"),
                    );
                }
            }
        }
    }
}

/// Objective targets (SG5001) and deadlines that can never be met (SG5003).
fn check_objectives(scenario: &Scenario, targets: &Targets, findings: &mut Findings<'_>) {
    for objective in &scenario.objectives {
        let context = || format!("Objective {}", objective.id);
        let pos = objective.pos;
        match &objective.check {
            Check::BreakerOpen { switch } | Check::BreakerClosed { switch } => {
                if !targets.switches.contains(switch) {
                    findings.unknown("switch", switch, context(), pos);
                }
            }
            Check::IedTrip { ied } => {
                if !targets.ieds.contains(ied) {
                    findings.unknown("IED", ied, context(), pos);
                }
            }
            Check::ScadaAlarm { point } => {
                // The HMI's stale-tag sweep raises `stale:<tag>` alarms.
                let tag = point.strip_prefix("stale:").unwrap_or(point);
                if !targets.points.contains(tag) {
                    findings.unknown("SCADA point", point, context(), pos);
                }
            }
            Check::TagAbove { point, .. } | Check::TagBelow { point, .. } => {
                if !targets.points.contains(point) {
                    findings.unknown("SCADA point", point, context(), pos);
                }
            }
            Check::VoltageBand { bus, .. } => {
                if !targets.buses.contains(bus) {
                    findings.unknown("bus", bus, context(), pos);
                }
            }
        }
        let message = match &objective.check {
            Check::VoltageBand { from_ms, to_ms, .. } => (to_ms <= from_ms).then(|| {
                format!(
                    "objective {:?} has an empty window (fromMs={from_ms}, toMs={to_ms})",
                    objective.id
                )
            }),
            _ => (objective.within_ms <= 0).then(|| {
                format!(
                    "objective {:?} has a zero or negative deadline (withinMs={})",
                    objective.id, objective.within_ms
                )
            }),
        };
        if let Some(message) = message {
            findings.push(codes::SCENARIO_BAD_DEADLINE, pos, context(), message);
        }
    }
}
