//! Exercise-scenario checks (`SG5xxx`): does every scenario file fit the
//! bundle it ships with?
//!
//! The scenario schema is deliberately lenient at parse time — dangling
//! references are this pass's job, anchored to the offending element's
//! `file:line:column` so a broken exercise is caught before anyone boots a
//! range to run it.

use crate::pass::LintPass;
use crate::passes::{known_host_names, known_ied_names, substation_sources};
use crate::source::LoadedBundle;
use sgcr_scenario::{Check, Pos, Scenario, StageAction, StageStart};
use sgcr_scl::{codes, Diagnostic, EquipmentType, Span};
use std::collections::BTreeSet;

/// Validates `*.scenario.xml` files against the rest of the bundle.
pub struct ScenarioPass;

impl LintPass for ScenarioPass {
    fn name(&self) -> &'static str {
        "scenario"
    }

    fn run(&self, bundle: &LoadedBundle, out: &mut Vec<Diagnostic>) {
        let names = BundleNames::collect(bundle);
        for (file, scenario) in &bundle.scenarios {
            check_duplicate_ids(file, scenario, out);
            check_stage_refs(file, scenario, out);
            check_targets(file, scenario, &names, out);
            check_deadlines(file, scenario, out);
        }
    }
}

/// Everything a scenario can legally reference, harvested once per bundle.
struct BundleNames {
    /// Hosts with a network presence (IEDs, PLCs, SCADA).
    hosts: BTreeSet<String>,
    /// Subnetwork (switch) names.
    subnetworks: BTreeSet<String>,
    /// IED names.
    ieds: BTreeSet<String>,
    /// Scoped power-equipment names (`Substation/Name`) by type code.
    switches: BTreeSet<String>,
    /// Scoped line names.
    lines: BTreeSet<String>,
    /// Scoped generator/battery names.
    gens: BTreeSet<String>,
    /// Scoped load names.
    loads: BTreeSet<String>,
    /// Connectivity-node paths (`Substation/VoltageLevel/Bay/Name`).
    buses: BTreeSet<String>,
    /// SCADA point (tag) names.
    points: BTreeSet<String>,
}

impl BundleNames {
    fn collect(bundle: &LoadedBundle) -> BundleNames {
        let mut names = BundleNames {
            hosts: known_host_names(bundle),
            subnetworks: BTreeSet::new(),
            ieds: known_ied_names(bundle),
            switches: BTreeSet::new(),
            lines: BTreeSet::new(),
            gens: BTreeSet::new(),
            loads: BTreeSet::new(),
            buses: BTreeSet::new(),
            points: BTreeSet::new(),
        };
        names.hosts.insert(bundle.scada_host.clone());
        for file in &bundle.scds {
            if let Some(comm) = &file.doc.communication {
                for subnet in &comm.subnetworks {
                    names.subnetworks.insert(subnet.name.clone());
                }
            }
        }
        for (file, i) in substation_sources(bundle) {
            let substation = &file.doc.substations[i];
            for vl in &substation.voltage_levels {
                for bay in &vl.bays {
                    for cn in &bay.connectivity_nodes {
                        names.buses.insert(format!(
                            "{}/{}/{}/{}",
                            substation.name, vl.name, bay.name, cn.name
                        ));
                    }
                    for eq in &bay.equipment {
                        let scoped = format!("{}/{}", substation.name, eq.name);
                        match eq.eq_type {
                            EquipmentType::CircuitBreaker | EquipmentType::Disconnector => {
                                names.switches.insert(scoped);
                            }
                            EquipmentType::Line => {
                                names.lines.insert(scoped);
                            }
                            EquipmentType::Generator | EquipmentType::Battery => {
                                names.gens.insert(scoped);
                            }
                            EquipmentType::Load => {
                                names.loads.insert(scoped);
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
        if let Some((_, config)) = &bundle.scada_config {
            for source in &config.sources {
                for point in &source.points {
                    names.points.insert(point.name.clone());
                }
            }
        }
        names
    }
}

fn span(file: &str, pos: Pos) -> Option<Span> {
    (pos.line > 0).then(|| Span::new(file, pos.line, pos.column))
}

fn push(
    out: &mut Vec<Diagnostic>,
    code: &'static str,
    message: String,
    context: String,
    file: &str,
    pos: Pos,
) {
    let mut d = Diagnostic::error(code, message, context);
    if let Some(span) = span(file, pos) {
        d = d.with_span(span);
    } else {
        d = d.with_span(Span::new(file, 1, 1));
    }
    out.push(d);
}

/// SG5004: two stages or two objectives sharing one id.
fn check_duplicate_ids(file: &str, scenario: &Scenario, out: &mut Vec<Diagnostic>) {
    let mut stage_ids = BTreeSet::new();
    for stage in &scenario.stages {
        if !stage_ids.insert(stage.id.as_str()) {
            push(
                out,
                codes::SCENARIO_DUPLICATE_ID,
                format!("stage id {:?} is declared more than once", stage.id),
                format!("Stage {}", stage.id),
                file,
                stage.pos,
            );
        }
    }
    let mut objective_ids = BTreeSet::new();
    for objective in &scenario.objectives {
        if !objective_ids.insert(objective.id.as_str()) {
            push(
                out,
                codes::SCENARIO_DUPLICATE_ID,
                format!("objective id {:?} is declared more than once", objective.id),
                format!("Objective {}", objective.id),
                file,
                objective.pos,
            );
        }
    }
}

/// SG5002: `after=` references that point at no stage (or at themselves).
fn check_stage_refs(file: &str, scenario: &Scenario, out: &mut Vec<Diagnostic>) {
    let stage_ids: BTreeSet<&str> = scenario.stages.iter().map(|s| s.id.as_str()).collect();
    for stage in &scenario.stages {
        if let StageStart::After { stage: dep, .. } = &stage.start {
            let message = if dep == &stage.id {
                Some(format!("stage {:?} waits for itself", stage.id))
            } else if !stage_ids.contains(dep.as_str()) {
                Some(format!(
                    "stage {:?} waits for undefined stage {dep:?}",
                    stage.id
                ))
            } else {
                None
            };
            if let Some(message) = message {
                push(
                    out,
                    codes::SCENARIO_UNDEFINED_STAGE,
                    message,
                    format!("Stage {}", stage.id),
                    file,
                    stage.pos,
                );
            }
        }
    }
    for objective in &scenario.objectives {
        if let Some(dep) = &objective.after {
            if !stage_ids.contains(dep.as_str()) {
                push(
                    out,
                    codes::SCENARIO_UNDEFINED_STAGE,
                    format!(
                        "objective {:?} is anchored to undefined stage {dep:?}",
                        objective.id
                    ),
                    format!("Objective {}", objective.id),
                    file,
                    objective.pos,
                );
            }
        }
    }
}

/// SG5001: stage and objective targets the bundle does not define.
fn check_targets(file: &str, scenario: &Scenario, names: &BundleNames, out: &mut Vec<Diagnostic>) {
    let declared: BTreeSet<&str> = scenario.hosts.iter().map(|h| h.name.as_str()).collect();
    for host in &scenario.hosts {
        if !names.subnetworks.contains(&host.switch) {
            push(
                out,
                codes::SCENARIO_UNKNOWN_TARGET,
                format!(
                    "host {:?} attaches to unknown subnetwork {:?}",
                    host.name, host.switch
                ),
                format!("Host {}", host.name),
                file,
                host.pos,
            );
        }
    }

    let unknown = |what: &str, target: &str, ctx: String, pos: Pos, out: &mut Vec<Diagnostic>| {
        push(
            out,
            codes::SCENARIO_UNKNOWN_TARGET,
            format!("{what} {target:?} is not defined by the bundle"),
            ctx,
            file,
            pos,
        );
    };

    for stage in &scenario.stages {
        let ctx = format!("Stage {}", stage.id);
        match &stage.action {
            StageAction::Power(action) => {
                use sgcr_scenario::ScenarioAction as A;
                let (set, target, what) = match action {
                    A::OpenSwitch(t) | A::CloseSwitch(t) => (&names.switches, t, "switch"),
                    A::LineOutage(t) | A::LineRestore(t) => (&names.lines, t, "line"),
                    A::GenLoss(t) | A::GenRestore(t) => (&names.gens, t, "generator"),
                    A::SetLoadP(t, _) => (&names.loads, t, "load"),
                };
                if !set.contains(target) {
                    unknown(what, target, ctx, stage.pos, out);
                }
            }
            StageAction::Fci { host, victim, .. } => {
                if !declared.contains(host.as_str()) {
                    unknown("attacker host", host, ctx.clone(), stage.pos, out);
                }
                if !names.hosts.contains(victim) {
                    unknown("victim", victim, ctx, stage.pos, out);
                }
            }
            StageAction::Mitm {
                host,
                victim_a,
                victim_b,
                ..
            } => {
                if !declared.contains(host.as_str()) {
                    unknown("attacker host", host, ctx.clone(), stage.pos, out);
                }
                for victim in [victim_a, victim_b] {
                    if !names.hosts.contains(victim) {
                        unknown("victim", victim, ctx.clone(), stage.pos, out);
                    }
                }
            }
            StageAction::Scan { host, .. } => {
                if !declared.contains(host.as_str()) {
                    unknown("attacker host", host, ctx, stage.pos, out);
                }
            }
            StageAction::Link { a, b, .. } => {
                for end in [a, b] {
                    let known = names.hosts.contains(end)
                        || names.subnetworks.contains(end)
                        || declared.contains(end.as_str());
                    if !known {
                        unknown("link endpoint", end, ctx.clone(), stage.pos, out);
                    }
                }
            }
            StageAction::LinkFault { a, b, fault } => {
                for end in [a, b] {
                    let known = names.hosts.contains(end)
                        || names.subnetworks.contains(end)
                        || declared.contains(end.as_str());
                    if !known {
                        push(
                            out,
                            codes::SCENARIO_UNKNOWN_FAULT_TARGET,
                            format!("link endpoint {end:?} is not defined by the bundle"),
                            ctx.clone(),
                            file,
                            stage.pos,
                        );
                    }
                }
                for (what, p) in [
                    ("loss", fault.loss),
                    ("corrupt", fault.corrupt),
                    ("duplicate", fault.duplicate),
                ] {
                    if !(0.0..=1.0).contains(&p) {
                        push(
                            out,
                            codes::SCENARIO_BAD_FAULT_PROBABILITY,
                            format!("stage {:?} has {what}={p} outside [0, 1]", stage.id),
                            ctx.clone(),
                            file,
                            stage.pos,
                        );
                    }
                }
            }
            StageAction::Crash { host, .. } => {
                if !names.hosts.contains(host) && !declared.contains(host.as_str()) {
                    push(
                        out,
                        codes::SCENARIO_UNKNOWN_FAULT_TARGET,
                        format!("crashed host {host:?} is not defined by the bundle"),
                        ctx,
                        file,
                        stage.pos,
                    );
                }
            }
            StageAction::Sensor { ied, .. } => {
                if !names.ieds.contains(ied) {
                    push(
                        out,
                        codes::SCENARIO_UNKNOWN_FAULT_IED,
                        format!("sensor fault IED {ied:?} is not defined by the bundle"),
                        ctx,
                        file,
                        stage.pos,
                    );
                }
            }
        }
    }

    for objective in &scenario.objectives {
        let ctx = format!("Objective {}", objective.id);
        match &objective.check {
            Check::BreakerOpen { switch } | Check::BreakerClosed { switch } => {
                if !names.switches.contains(switch) {
                    unknown("switch", switch, ctx, objective.pos, out);
                }
            }
            Check::IedTrip { ied } => {
                if !names.ieds.contains(ied) {
                    unknown("IED", ied, ctx, objective.pos, out);
                }
            }
            Check::ScadaAlarm { point } => {
                // The HMI's stale-tag sweep raises `stale:<tag>` alarms.
                let tag = point.strip_prefix("stale:").unwrap_or(point);
                if !names.points.contains(tag) {
                    unknown("SCADA point", point, ctx, objective.pos, out);
                }
            }
            Check::TagAbove { point, .. } | Check::TagBelow { point, .. } => {
                if !names.points.contains(point) {
                    unknown("SCADA point", point, ctx, objective.pos, out);
                }
            }
            Check::VoltageBand { bus, .. } => {
                if !names.buses.contains(bus) {
                    unknown("bus", bus, ctx, objective.pos, out);
                }
            }
        }
    }
}

/// SG5003: deadlines that can never be met.
fn check_deadlines(file: &str, scenario: &Scenario, out: &mut Vec<Diagnostic>) {
    for objective in &scenario.objectives {
        match &objective.check {
            Check::VoltageBand { from_ms, to_ms, .. } => {
                if to_ms <= from_ms {
                    push(
                        out,
                        codes::SCENARIO_BAD_DEADLINE,
                        format!(
                            "objective {:?} has an empty window (fromMs={from_ms}, toMs={to_ms})",
                            objective.id
                        ),
                        format!("Objective {}", objective.id),
                        file,
                        objective.pos,
                    );
                }
            }
            _ => {
                if objective.within_ms <= 0 {
                    push(
                        out,
                        codes::SCENARIO_BAD_DEADLINE,
                        format!(
                            "objective {:?} has a zero or negative deadline (withinMs={})",
                            objective.id, objective.within_ms
                        ),
                        format!("Objective {}", objective.id),
                        file,
                        objective.pos,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use sgcr_models::epic_bundle;

    fn diags_for(scenario_xml: &str) -> Vec<Diagnostic> {
        let mut bundle = epic_bundle();
        bundle.scenarios = vec![scenario_xml.to_string()];
        let loaded = LoadedBundle::from_bundle(&bundle);
        let mut out = Vec::new();
        ScenarioPass.run(&loaded, &mut out);
        out
    }

    #[test]
    fn shipped_epic_scenario_is_clean() {
        let loaded = LoadedBundle::from_bundle(&epic_bundle());
        assert_eq!(loaded.scenarios.len(), 1);
        let mut out = Vec::new();
        ScenarioPass.run(&loaded, &mut out);
        assert!(out.is_empty(), "unexpected diagnostics: {out:?}");
    }

    #[test]
    fn unknown_targets_are_flagged_with_spans() {
        let out = diags_for(
            r#"<Scenario name="bad" durationMs="1000">
  <Host name="box" ip="10.0.1.66" switch="NoSuchBus"/>
  <Stage id="s1" kind="power" action="openSwitch" target="EPIC/CB_GHOST"/>
  <Stage id="s2" kind="fci" host="box" victim="GHOST1" item="x"/>
  <Stage id="s3" kind="link" a="SCADA" b="GhostBus" action="down"/>
  <Objective id="o1" kind="breakerOpen" target="EPIC/CB_GHOST" withinMs="10"/>
  <Objective id="o2" kind="iedTrip" ied="GHOSTIED" withinMs="10"/>
  <Objective id="o3" kind="scadaAlarm" point="Ghost_pt" withinMs="10"/>
  <Objective id="o4" kind="voltageBand" bus="EPIC/LV/GhostBay/CN_X" min="0.9" max="1.1" toMs="100"/>
  <Objective id="o5" kind="scadaAlarm" point="stale:MicroVolt_pu" withinMs="10"/>
  <Objective id="o6" kind="scadaAlarm" point="stale:Ghost_pt" withinMs="10"/>
  <Objective id="o7" kind="tagAbove" point="stale:MicroVolt_pu" value="1.0" withinMs="10"/>
</Scenario>"#,
        );
        let unknown: Vec<_> = out
            .iter()
            .filter(|d| d.code == codes::SCENARIO_UNKNOWN_TARGET)
            .collect();
        // o5 is known: the stale sweep alarms on a configured point. The
        // `stale:` namespace applies to scadaAlarm only, so o7 is unknown.
        assert_eq!(unknown.len(), 10, "{out:?}");
        assert!(
            !unknown.iter().any(|d| d.context == "Objective o5"),
            "{out:?}"
        );
        // Findings are anchored to the offending element, not the file top.
        assert!(unknown.iter().all(|d| d.span.as_ref().unwrap().line > 1));
    }

    #[test]
    fn fault_stages_are_checked_with_spans() {
        let out = diags_for(
            r#"<Scenario name="bad" durationMs="1000">
  <Stage id="f1" kind="linkFault" a="SCADA" b="GhostBus" loss="0.5"/>
  <Stage id="f2" kind="linkFault" a="SCADA" b="ControlBus" loss="1.5" corrupt="-0.1"/>
  <Stage id="f3" kind="crash" host="GhostIED"/>
  <Stage id="f4" kind="sensor" ied="GhostIED" key="meas/x" mode="stuck"/>
  <Stage id="ok1" kind="linkFault" a="SCADA" b="ControlBus" loss="0.25" jitterMs="3"/>
  <Stage id="ok2" kind="crash" host="MIED1" restartAfterMs="500"/>
  <Stage id="ok3" kind="sensor" ied="GIED1" key="meas/EPIC/branch/LGen/i_ka" mode="drift" perSec="0.1"/>
</Scenario>"#,
        );
        let count = |code: &str| out.iter().filter(|d| d.code == code).count();
        assert_eq!(count(codes::SCENARIO_UNKNOWN_FAULT_TARGET), 2, "{out:?}"); // GhostBus, GhostIED
        assert_eq!(count(codes::SCENARIO_UNKNOWN_FAULT_IED), 1, "{out:?}");
        assert_eq!(count(codes::SCENARIO_BAD_FAULT_PROBABILITY), 2, "{out:?}"); // loss, corrupt
                                                                                // Findings are anchored to the offending element, not the file top.
        assert!(out.iter().all(|d| d.span.as_ref().unwrap().line > 1));
    }

    #[test]
    fn undefined_stages_duplicates_and_deadlines_are_flagged() {
        let out = diags_for(
            r#"<Scenario name="bad" durationMs="1000">
  <Stage id="a" after="ghost" kind="power" action="openSwitch" target="EPIC/CB_GEN"/>
  <Stage id="a" kind="power" action="closeSwitch" target="EPIC/CB_GEN"/>
  <Stage id="b" after="b" kind="power" action="openSwitch" target="EPIC/CB_GEN"/>
  <Objective id="o" kind="breakerOpen" target="EPIC/CB_GEN" after="ghost" withinMs="0"/>
  <Objective id="o" kind="voltageBand" bus="EPIC/LV/GenBay/CN_GEN" min="0.9" max="1.1" fromMs="500" toMs="500"/>
</Scenario>"#,
        );
        let count = |code: &str| out.iter().filter(|d| d.code == code).count();
        assert_eq!(count(codes::SCENARIO_UNDEFINED_STAGE), 3); // a->ghost, b->b, o->ghost
        assert_eq!(count(codes::SCENARIO_DUPLICATE_ID), 2); // stage a, objective o
        assert_eq!(count(codes::SCENARIO_BAD_DEADLINE), 2); // withinMs=0, empty band
    }
}
