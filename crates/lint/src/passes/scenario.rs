//! Exercise-scenario checks (`SG5xxx`): does every scenario file fit the
//! bundle it ships with?
//!
//! The scenario schema is deliberately lenient at parse time — dangling
//! references are caught here, anchored to the offending element's
//! `file:line:column` so a broken exercise is caught before anyone boots a
//! range to run it. The rules are [`sgcr_scenario::check`], the same ones
//! the exercise engine applies; this pass only harvests the names a
//! scenario may reference from the bundle files, without compiling them.

use crate::pass::LintPass;
use crate::passes::{known_host_names, known_ied_names, substation_sources};
use crate::source::LoadedBundle;
use sgcr_scenario::{check, Targets};
use sgcr_scl::{Diagnostic, EquipmentType};

/// Validates `*.scenario.xml` files against the rest of the bundle.
pub struct ScenarioPass;

impl LintPass for ScenarioPass {
    fn run(&self, bundle: &LoadedBundle, out: &mut Vec<Diagnostic>) {
        let targets = harvest(bundle);
        for (file, scenario) in &bundle.scenarios {
            out.extend(check(scenario, &targets, file));
        }
    }
}

/// Everything a scenario can legally reference, harvested from the bundle.
fn harvest(bundle: &LoadedBundle) -> Targets {
    let mut targets = Targets {
        hosts: known_host_names(bundle),
        ieds: known_ied_names(bundle),
        ..Targets::default()
    };
    targets.hosts.insert(bundle.scada_host.clone());
    for file in &bundle.scds {
        if let Some(comm) = &file.doc.communication {
            for subnet in &comm.subnetworks {
                targets.subnetworks.insert(subnet.name.clone());
                for ap in &subnet.connected_aps {
                    if let Ok(ip) = ap.ip.parse() {
                        targets.ips.insert(ip, ap.ied_name.clone());
                    }
                }
            }
        }
    }
    targets.nodes = targets.hosts.union(&targets.subnetworks).cloned().collect();
    for (file, i) in substation_sources(bundle) {
        let substation = &file.doc.substations[i];
        for vl in &substation.voltage_levels {
            for bay in &vl.bays {
                for cn in &bay.connectivity_nodes {
                    targets.buses.insert(format!(
                        "{}/{}/{}/{}",
                        substation.name, vl.name, bay.name, cn.name
                    ));
                }
                for eq in &bay.equipment {
                    let set = match eq.eq_type {
                        EquipmentType::CircuitBreaker | EquipmentType::Disconnector => {
                            &mut targets.switches
                        }
                        EquipmentType::Line => &mut targets.lines,
                        EquipmentType::Generator | EquipmentType::Battery => &mut targets.gens,
                        EquipmentType::Load => &mut targets.loads,
                        _ => continue,
                    };
                    set.insert(format!("{}/{}", substation.name, eq.name));
                }
            }
        }
    }
    if let Some((_, config)) = &bundle.scada_config {
        for source in &config.sources {
            for point in &source.points {
                targets.points.insert(point.name.clone());
            }
        }
    }
    targets
}
