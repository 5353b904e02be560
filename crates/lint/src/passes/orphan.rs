//! Bundle-hygiene checks (`SG05xx`): files that contribute nothing and
//! declarations that collide across files.

use crate::pass::LintPass;
use crate::source::LoadedBundle;
use sgcr_scl::{codes, Diagnostic};
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Flags orphan ICDs, dead files, and duplicate substations.
pub struct OrphanPass;

impl LintPass for OrphanPass {
    fn run(&self, bundle: &LoadedBundle, out: &mut Vec<Diagnostic>) {
        check_orphan_icds(bundle, out);
        check_dead_files(bundle, out);
        check_duplicate_substations(bundle, out);
    }
}

/// SG0501: an ICD whose IED nothing in the bundle instantiates.
fn check_orphan_icds(bundle: &LoadedBundle, out: &mut Vec<Diagnostic>) {
    let mut referenced = BTreeSet::new();
    for file in &bundle.scds {
        for ied in &file.doc.ieds {
            referenced.insert(ied.name.clone());
        }
        if let Some(comm) = &file.doc.communication {
            for subnet in &comm.subnetworks {
                for ap in &subnet.connected_aps {
                    referenced.insert(ap.ied_name.clone());
                }
            }
        }
    }
    for file in bundle.substation_files() {
        for substation in &file.doc.substations {
            for vl in &substation.voltage_levels {
                for bay in &vl.bays {
                    for lnode in &bay.lnodes {
                        referenced.insert(lnode.ied_name.clone());
                    }
                }
            }
        }
    }
    if let Some((_, config)) = &bundle.ied_config {
        for spec in &config.ieds {
            referenced.insert(spec.name.clone());
        }
    }

    for file in &bundle.icds {
        let orphaned = !file.doc.ieds.is_empty()
            && file
                .doc
                .ieds
                .iter()
                .all(|ied| !referenced.contains(&ied.name));
        if orphaned {
            let names: Vec<&str> = file.doc.ieds.iter().map(|i| i.name.as_str()).collect();
            let first = &file.doc.ieds[0];
            out.push(
                Diagnostic::warning(
                    codes::ORPHAN_ICD,
                    format!(
                        "ICD describes IED {} which no SCD, diagram, or IED Config references",
                        names.join(", ")
                    ),
                    format!("ICD {}", file.name),
                )
                .with_pos(&file.name, Some(first.pos)),
            );
        }
    }
}

/// SG0502: model files that carry none of the content their kind exists for.
fn check_dead_files(bundle: &LoadedBundle, out: &mut Vec<Diagnostic>) {
    for file in &bundle.ssds {
        if file.doc.substations.is_empty() {
            out.push(
                Diagnostic::warning(
                    codes::UNUSED_FILE,
                    "SSD file declares no substation".to_string(),
                    format!("SSD {}", file.name),
                )
                .with_span(sgcr_scl::Span::new(&file.name, 1, 1)),
            );
        }
    }
    for file in &bundle.seds {
        if file.doc.inter_substation_lines.is_empty() {
            out.push(
                Diagnostic::warning(
                    codes::UNUSED_FILE,
                    "SED file declares no inter-substation tie".to_string(),
                    format!("SED {}", file.name),
                )
                .with_span(sgcr_scl::Span::new(&file.name, 1, 1)),
            );
        }
    }
    for file in &bundle.scds {
        if file.doc.ieds.is_empty() && file.doc.communication.is_none() {
            out.push(
                Diagnostic::warning(
                    codes::UNUSED_FILE,
                    "SCD file carries neither IEDs nor a Communication section".to_string(),
                    format!("SCD {}", file.name),
                )
                .with_span(sgcr_scl::Span::new(&file.name, 1, 1)),
            );
        }
    }
}

/// SG0504: one substation name declared by two SSD files.
fn check_duplicate_substations(bundle: &LoadedBundle, out: &mut Vec<Diagnostic>) {
    let mut first_file: BTreeMap<&str, &str> = BTreeMap::new();
    for file in &bundle.ssds {
        for substation in &file.doc.substations {
            match first_file.get(substation.name.as_str()) {
                None => {
                    first_file.insert(&substation.name, &file.name);
                }
                Some(original) => {
                    out.push(
                        Diagnostic::error(
                            codes::DUPLICATE_SUBSTATION,
                            format!(
                                "substation {:?} is already declared in {original}",
                                substation.name
                            ),
                            format!("Substation {}", substation.name),
                        )
                        .with_pos(&file.name, Some(substation.pos)),
                    );
                }
            }
        }
    }
}
