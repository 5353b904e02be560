//! Power-topology checks (`SG0110`, `SG03xx`): every terminal must land on a
//! declared connectivity node, and the resulting graph must be energizable.
//!
//! Two graphs are analyzed:
//!
//! * the **all-closed** graph (every switch treated as closed) answers
//!   "*could* this island ever be fed?" — an island with neither an
//!   external-grid infeed nor a generator (the solver promotes one to slack)
//!   is dead however the operators switch ([`codes::ISLAND_NO_SLACK`]);
//! * the **normal-state** graph (normally-open switches removed) answers
//!   "is it fed *as drawn*?" — a load that the all-closed graph supplies but
//!   the normal state does not is a switching mistake
//!   ([`codes::SWITCH_ISOLATES_LOAD`]).

use crate::pass::LintPass;
use crate::source::LoadedBundle;
use sgcr_scl::{codes, Diagnostic, EquipmentType, SourcePos};
use std::collections::BTreeMap;

/// Checks bus connectivity, islands, and terminal counts.
pub struct TopologyPass;

impl LintPass for TopologyPass {
    fn run(&self, bundle: &LoadedBundle, out: &mut Vec<Diagnostic>) {
        let mut graph = Graph::default();
        collect_nodes(bundle, &mut graph, out);
        collect_edges(bundle, &mut graph, out);
        report_islands(&graph, out);
    }
}

/// One connectivity node (bus) of the bundle-wide graph.
struct Bus {
    file: String,
    pos: SourcePos,
    substation: String,
    degree: usize,
    /// Index of the load attached here, if any (name, file, pos).
    load: Option<(String, String, SourcePos)>,
    /// Whether an external-grid infeed attaches here.
    has_slack: bool,
}

#[derive(Default)]
struct Graph {
    /// Bus index by connectivity-node path name.
    index: BTreeMap<String, usize>,
    buses: Vec<Bus>,
    /// Edges that exist whatever the switch states are.
    all_closed: Vec<(usize, usize)>,
    /// Edges present in the normally-drawn switching state.
    normal: Vec<(usize, usize)>,
}

impl Graph {
    fn bus(&self, path: &str) -> Option<usize> {
        self.index.get(path).copied()
    }
}

/// Registers every declared connectivity node; SG0304 on duplicates.
fn collect_nodes(bundle: &LoadedBundle, graph: &mut Graph, out: &mut Vec<Diagnostic>) {
    for (file, idx) in super::substation_sources(bundle) {
        let substation = &file.doc.substations[idx];
        for vl in &substation.voltage_levels {
            for bay in &vl.bays {
                for cn in &bay.connectivity_nodes {
                    if graph.index.contains_key(&cn.path_name) {
                        out.push(
                            Diagnostic::warning(
                                codes::DUPLICATE_NODE_PATH,
                                format!(
                                    "connectivity node path {:?} is declared twice",
                                    cn.path_name
                                ),
                                format!("{}/{}/{}", substation.name, vl.name, bay.name),
                            )
                            .with_pos(&file.name, Some(cn.pos)),
                        );
                        continue;
                    }
                    graph.index.insert(cn.path_name.clone(), graph.buses.len());
                    graph.buses.push(Bus {
                        file: file.name.clone(),
                        pos: cn.pos,
                        substation: substation.name.clone(),
                        degree: 0,
                        load: None,
                        has_slack: false,
                    });
                }
            }
        }
    }
}

/// Wires equipment, transformers, and SED ties into the graph.
/// Emits SG0110 (unknown node) and SG0306 (wrong terminal count) on the way.
fn collect_edges(bundle: &LoadedBundle, graph: &mut Graph, out: &mut Vec<Diagnostic>) {
    for (file, idx) in super::substation_sources(bundle) {
        let substation = &file.doc.substations[idx];
        for vl in &substation.voltage_levels {
            for bay in &vl.bays {
                for eq in &bay.equipment {
                    let context =
                        format!("{}/{}/{}/{}", substation.name, vl.name, bay.name, eq.name);
                    let mut buses = Vec::new();
                    for terminal in &eq.terminals {
                        match graph.bus(&terminal.connectivity_node) {
                            Some(bus) => buses.push(bus),
                            None => out.push(
                                Diagnostic::error(
                                    codes::TERMINAL_UNKNOWN_NODE,
                                    format!(
                                        "terminal {} references connectivity node {:?} which is not declared",
                                        terminal.name, terminal.connectivity_node
                                    ),
                                    context.clone(),
                                )
                                .with_pos(&file.name, Some(eq.pos)),
                            ),
                        }
                    }
                    for &bus in &buses {
                        graph.buses[bus].degree += 1;
                    }
                    check_terminal_count(
                        eq.eq_type,
                        eq.terminals.len(),
                        &context,
                        &file.name,
                        eq.pos,
                        out,
                    );
                    match eq.eq_type {
                        EquipmentType::CircuitBreaker | EquipmentType::Disconnector => {
                            if let [a, b] = buses[..] {
                                graph.all_closed.push((a, b));
                                if !eq.normally_open {
                                    graph.normal.push((a, b));
                                }
                            }
                        }
                        EquipmentType::Line | EquipmentType::Other => {
                            if let [a, b] = buses[..] {
                                graph.all_closed.push((a, b));
                                graph.normal.push((a, b));
                            }
                        }
                        // The solver promotes a generator to slack when an
                        // island has no external grid, so both types make an
                        // island energizable. Batteries compile to static
                        // generators and cannot hold an island up alone.
                        EquipmentType::IncomingFeeder | EquipmentType::Generator => {
                            if let [bus] = buses[..] {
                                graph.buses[bus].has_slack = true;
                            }
                        }
                        EquipmentType::Load => {
                            if let [bus] = buses[..] {
                                graph.buses[bus].load =
                                    Some((eq.name.clone(), file.name.clone(), eq.pos));
                            }
                        }
                        EquipmentType::Battery
                        | EquipmentType::CurrentTransformer
                        | EquipmentType::VoltageTransformer => {}
                    }
                }
            }
        }
        for transformer in &substation.transformers {
            let context = format!("{}/{}", substation.name, transformer.name);
            let mut buses = Vec::new();
            for winding in &transformer.windings {
                match graph.bus(&winding.terminal.connectivity_node) {
                    Some(bus) => buses.push(bus),
                    None => out.push(
                        Diagnostic::error(
                            codes::TERMINAL_UNKNOWN_NODE,
                            format!(
                                "winding {} references connectivity node {:?} which is not declared",
                                winding.name, winding.terminal.connectivity_node
                            ),
                            context.clone(),
                        )
                        .with_pos(&file.name, Some(transformer.pos)),
                    ),
                }
            }
            if transformer.windings.len() != 2 {
                out.push(
                    Diagnostic::warning(
                        codes::WRONG_TERMINAL_COUNT,
                        format!(
                            "power transformer has {} windings, expected 2",
                            transformer.windings.len()
                        ),
                        context,
                    )
                    .with_pos(&file.name, Some(transformer.pos)),
                );
            }
            for &bus in &buses {
                graph.buses[bus].degree += 1;
            }
            if let [a, b] = buses[..] {
                graph.all_closed.push((a, b));
                graph.normal.push((a, b));
            }
        }
    }

    // SED ties join substations; endpoint validity is the xref pass's job,
    // here unresolvable endpoints are simply skipped.
    for file in &bundle.seds {
        for tie in &file.doc.inter_substation_lines {
            if let (Some(a), Some(b)) = (graph.bus(&tie.from_node), graph.bus(&tie.to_node)) {
                graph.buses[a].degree += 1;
                graph.buses[b].degree += 1;
                graph.all_closed.push((a, b));
                graph.normal.push((a, b));
            }
        }
    }
}

/// SG0306 for conducting equipment.
fn check_terminal_count(
    eq_type: EquipmentType,
    terminals: usize,
    context: &str,
    file: &str,
    pos: SourcePos,
    out: &mut Vec<Diagnostic>,
) {
    let expected = match eq_type {
        EquipmentType::CircuitBreaker | EquipmentType::Disconnector | EquipmentType::Line => 2,
        EquipmentType::IncomingFeeder
        | EquipmentType::Load
        | EquipmentType::Generator
        | EquipmentType::Battery => 1,
        _ => return,
    };
    if terminals != expected {
        out.push(
            Diagnostic::warning(
                codes::WRONG_TERMINAL_COUNT,
                format!(
                    "{} equipment has {terminals} terminals, expected {expected}",
                    eq_type.code()
                ),
                context.to_string(),
            )
            .with_pos(file, Some(pos)),
        );
    }
}

/// SG0301 (isolated bus), SG0302 (island without slack), SG0303 (normal
/// switch state isolates a load the all-closed graph supplies).
fn report_islands(graph: &Graph, out: &mut Vec<Diagnostic>) {
    let n = graph.buses.len();
    for (i, bus) in graph.buses.iter().enumerate() {
        if bus.degree == 0 {
            let path = graph
                .index
                .iter()
                .find(|(_, &idx)| idx == i)
                .map(|(p, _)| p.as_str())
                .unwrap_or("?");
            out.push(
                Diagnostic::warning(
                    codes::ISOLATED_BUS,
                    format!("connectivity node {path:?} has no connected equipment"),
                    format!("Substation {}", bus.substation),
                )
                .with_pos(&bus.file, Some(bus.pos)),
            );
        }
    }

    let closed = components(n, &graph.all_closed);
    let normal = components(n, &graph.normal);

    // Which components (in each graph) contain a slack source?
    let mut closed_fed = vec![false; n];
    let mut normal_fed = vec![false; n];
    for (i, bus) in graph.buses.iter().enumerate() {
        if bus.has_slack {
            closed_fed[closed[i]] = true;
            normal_fed[normal[i]] = true;
        }
    }

    // SG0302: one finding per dead island, anchored at its first bus.
    let mut reported = vec![false; n];
    for (i, bus) in graph.buses.iter().enumerate() {
        if bus.degree == 0 || closed_fed[closed[i]] || reported[closed[i]] {
            continue;
        }
        reported[closed[i]] = true;
        let members = closed.iter().filter(|&&c| c == closed[i]).count();
        out.push(
            Diagnostic::error(
                codes::ISLAND_NO_SLACK,
                format!(
                    "electrical island of {members} bus(es) has no external-grid infeed or generator even with every switch closed"
                ),
                format!("Substation {}", bus.substation),
            )
            .with_pos(&bus.file, Some(bus.pos)),
        );
    }

    // SG0303: loads the drawn switch states cut off from every source.
    for (i, bus) in graph.buses.iter().enumerate() {
        let Some((load, file, pos)) = &bus.load else {
            continue;
        };
        if closed_fed[closed[i]] && !normal_fed[normal[i]] {
            out.push(
                Diagnostic::warning(
                    codes::SWITCH_ISOLATES_LOAD,
                    format!(
                        "load {load:?} is unsupplied in the normal switching state (closing open switches would supply it)"
                    ),
                    format!("Substation {}", bus.substation),
                )
                .with_pos(file, Some(*pos)),
            );
        }
    }
}

/// Connected components by union-find; returns each node's root index.
fn components(n: usize, edges: &[(usize, usize)]) -> Vec<usize> {
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]]; // path halving
            x = parent[x];
        }
        x
    }
    for &(a, b) in edges {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            parent[ra.max(rb)] = ra.min(rb);
        }
    }
    (0..n).map(|i| find(&mut parent, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_find_components() {
        let roots = components(5, &[(0, 1), (1, 2), (3, 4)]);
        assert_eq!(roots[0], roots[1]);
        assert_eq!(roots[1], roots[2]);
        assert_eq!(roots[3], roots[4]);
        assert_ne!(roots[0], roots[3]);
    }
}
