//! Cross-file reference checks (`SG01xx`): every name one file uses must be
//! declared by another file of the bundle.

use super::{known_host_names, known_ied_names};
use crate::pass::LintPass;
use crate::source::LoadedBundle;
use sgcr_scl::{codes, Diagnostic};
use std::collections::BTreeSet;

/// Resolves IED names, SED tie endpoints, and supplementary-config hosts.
pub struct XrefPass;

impl LintPass for XrefPass {
    fn run(&self, bundle: &LoadedBundle, out: &mut Vec<Diagnostic>) {
        let ieds = known_ied_names(bundle);
        let hosts = known_host_names(bundle);

        check_connected_aps(bundle, &ieds, out);
        check_lnodes(bundle, &ieds, out);
        check_sed_ties(bundle, &ieds, out);
        check_configs(bundle, &ieds, &hosts, out);
    }
}

/// SG0101 + SG0102: access points vs. IED declarations, per SCD.
fn check_connected_aps(bundle: &LoadedBundle, ieds: &BTreeSet<String>, out: &mut Vec<Diagnostic>) {
    let mut ap_owners = BTreeSet::new();
    for file in &bundle.scds {
        if let Some(comm) = &file.doc.communication {
            for subnet in &comm.subnetworks {
                for ap in &subnet.connected_aps {
                    ap_owners.insert(ap.ied_name.clone());
                    // SCADA and PLC hosts legitimately have an access point
                    // without an <IED> server section, hence only a warning.
                    if !ieds.contains(&ap.ied_name) && ap.ied_name != bundle.scada_host {
                        let is_plc = bundle
                            .plc_config
                            .as_ref()
                            .is_some_and(|(_, c)| c.plcs.iter().any(|p| p.name == ap.ied_name));
                        if !is_plc {
                            out.push(
                                Diagnostic::warning(
                                    codes::CONNECTED_AP_UNDECLARED_IED,
                                    format!(
                                        "ConnectedAP references IED {:?} but no <IED> declares it",
                                        ap.ied_name
                                    ),
                                    format!("SubNetwork {}", subnet.name),
                                )
                                .with_pos(&file.name, Some(ap.pos)),
                            );
                        }
                    }
                }
            }
        }
    }
    // SG0102: a declared IED that no access point puts on the network.
    for file in &bundle.scds {
        if file.doc.communication.is_none() {
            continue; // structure-only SCD; absence of APs is not informative
        }
        for ied in &file.doc.ieds {
            if !ap_owners.contains(&ied.name) {
                out.push(
                    Diagnostic::warning(
                        codes::IED_NO_CONNECTED_AP,
                        format!("IED {:?} has no ConnectedAP on any subnetwork", ied.name),
                        format!("IED {}", ied.name),
                    )
                    .with_pos(&file.name, Some(ied.pos)),
                );
            }
        }
    }
}

/// SG0103: `<LNode>` references in single-line diagrams.
fn check_lnodes(bundle: &LoadedBundle, ieds: &BTreeSet<String>, out: &mut Vec<Diagnostic>) {
    for (file, idx) in super::substation_sources(bundle) {
        let substation = &file.doc.substations[idx];
        for vl in &substation.voltage_levels {
            for bay in &vl.bays {
                for lnode in &bay.lnodes {
                    if !lnode.ied_name.is_empty() && !ieds.contains(&lnode.ied_name) {
                        out.push(
                            Diagnostic::warning(
                                codes::LNODE_UNKNOWN_IED,
                                format!(
                                    "LNode references IED {:?} which no SCD, ICD, or IED Config declares",
                                    lnode.ied_name
                                ),
                                format!("{}/{}/{}", substation.name, vl.name, bay.name),
                            )
                            .with_pos(&file.name, Some(lnode.pos)),
                        );
                    }
                }
            }
        }
    }
}

/// SG0104/SG0105/SG0106: SED tie endpoints.
fn check_sed_ties(bundle: &LoadedBundle, ieds: &BTreeSet<String>, out: &mut Vec<Diagnostic>) {
    let mut substations = BTreeSet::new();
    let mut node_paths = BTreeSet::new();
    for file in bundle.substation_files() {
        for substation in &file.doc.substations {
            substations.insert(substation.name.clone());
        }
        node_paths.extend(file.doc.connectivity_node_paths());
    }

    for file in &bundle.seds {
        for tie in &file.doc.inter_substation_lines {
            for (side, substation, node) in [
                ("from", &tie.from_substation, &tie.from_node),
                ("to", &tie.to_substation, &tie.to_node),
            ] {
                if !substations.contains(substation) {
                    out.push(
                        Diagnostic::error(
                            codes::SED_UNKNOWN_SUBSTATION,
                            format!(
                                "tie {} endpoint references substation {substation:?} which no SSD declares",
                                side
                            ),
                            format!("InterSubstationLine {}", tie.name),
                        )
                        .with_pos(&file.name, Some(tie.pos)),
                    );
                } else if !node_paths.contains(node) {
                    out.push(
                        Diagnostic::error(
                            codes::SED_UNKNOWN_NODE,
                            format!(
                                "tie {side} endpoint references connectivity node {node:?} which {substation} does not contain"
                            ),
                            format!("InterSubstationLine {}", tie.name),
                        )
                        .with_pos(&file.name, Some(tie.pos)),
                    );
                }
            }
            for ied in &tie.protection_ieds {
                if !ieds.contains(ied) {
                    out.push(
                        Diagnostic::warning(
                            codes::SED_UNKNOWN_PROTECTION_IED,
                            format!("tie names protection IED {ied:?} which the bundle does not declare"),
                            format!("InterSubstationLine {}", tie.name),
                        )
                        .with_pos(&file.name, Some(tie.pos)),
                    );
                }
            }
        }
    }
}

/// SG0107/SG0108/SG0109: supplementary configs vs. the model.
fn check_configs(
    bundle: &LoadedBundle,
    ieds: &BTreeSet<String>,
    hosts: &BTreeSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    // With no SCD at all there is nothing to resolve against.
    let have_model = bundle.scds.iter().any(|f| !f.doc.ieds.is_empty());

    if let Some((config_file, config)) = &bundle.ied_config {
        if have_model {
            for spec in &config.ieds {
                let declared = bundle
                    .scds
                    .iter()
                    .chain(bundle.icds.iter())
                    .any(|f| f.doc.ied(&spec.name).is_some());
                if !declared && !hosts.contains(&spec.name) {
                    out.push(Diagnostic::error(
                        codes::CONFIG_UNKNOWN_HOST,
                        format!(
                            "IED Config configures IED {:?} which no SCD or ICD declares",
                            spec.name
                        ),
                        format!("{config_file}: IED {}", spec.name),
                    ));
                }
            }
        }
    }

    if let Some((config_file, config)) = &bundle.plc_config {
        for plc in &config.plcs {
            for (kind, server) in plc
                .reads
                .iter()
                .map(|r| ("read", &r.server))
                .chain(plc.writes.iter().map(|w| ("write", &w.server)))
            {
                if !ieds.contains(server) && !hosts.contains(server) {
                    out.push(Diagnostic::error(
                        codes::PLC_BINDING_UNRESOLVED,
                        format!("PLC {kind} binding targets MMS server {server:?} which the bundle does not declare"),
                        format!("{config_file}: PLC {}", plc.name),
                    ));
                }
            }
        }
    }

    if let Some((config_file, config)) = &bundle.scada_config {
        let comm_present = bundle.scds.iter().any(|f| f.doc.communication.is_some());
        if comm_present && !hosts.contains(&bundle.scada_host) {
            out.push(Diagnostic::error(
                codes::SCADA_UNKNOWN_HOST,
                format!(
                    "SCADA workstation host {:?} has no ConnectedAP in any SCD",
                    bundle.scada_host
                ),
                format!("{config_file}: ScadaConfig {}", config.name),
            ));
        }
        // An MMS source must point at an IP some access point owns; Modbus
        // sources target PLC soft-hosts which have no AP, so they are exempt.
        let ap_ips: BTreeSet<&str> = bundle
            .scds
            .iter()
            .flat_map(|f| f.doc.communication.iter())
            .flat_map(|c| c.subnetworks.iter())
            .flat_map(|s| s.connected_aps.iter())
            .map(|ap| ap.ip.as_str())
            .collect();
        if comm_present {
            for source in &config.sources {
                if source.protocol == sgcr_scada::SourceProtocol::Mms
                    && !ap_ips.contains(source.ip.as_str())
                {
                    out.push(Diagnostic::warning(
                        codes::CONFIG_UNKNOWN_HOST,
                        format!(
                            "SCADA data source {:?} polls MMS server {} which no ConnectedAP owns",
                            source.name, source.ip
                        ),
                        format!("{config_file}: DataSource {}", source.name),
                    ));
                }
            }
        }
    }
}
