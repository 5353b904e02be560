//! Newton–Raphson AC power flow over the processed topology.

use crate::complex::Complex;
use crate::error::PowerFlowError;
use crate::linalg::{Lu, Matrix};
use crate::network::PowerNetwork;
use crate::results::{BranchResult, BusResult, ExtGridResult, GenResult, PowerFlowResult};
use crate::topology::{SlackSource, Topology};
use std::collections::HashMap;

/// Convergence tolerance on the largest power mismatch, in per-unit.
const TOLERANCE: f64 = 1e-8;
/// Maximum Newton–Raphson iterations per island.
const MAX_ITERATIONS: usize = 30;

/// Solves the AC power flow.
///
/// # Errors
///
/// Returns [`PowerFlowError`] if an energized island fails to converge or its
/// Jacobian is singular. De-energized islands are reported with zero voltage,
/// not as errors.
pub fn solve(net: &PowerNetwork) -> Result<PowerFlowResult, PowerFlowError> {
    validate(net)?;
    let topo = Topology::build(net);
    let state = solve_state(net, &topo)?;
    Ok(extract_results(net, &topo, &state))
}

/// Per-node complex voltages keyed by representative node index.
struct SolvedState {
    voltage: HashMap<usize, Complex>,
    iterations: usize,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum NodeKind {
    Slack,
    Pv,
    Pq,
}

fn validate(net: &PowerNetwork) -> Result<(), PowerFlowError> {
    let nb = net.bus.len();
    let check = |b: usize, what: &str, name: &str| {
        if b >= nb {
            Err(PowerFlowError::InvalidReference {
                element: format!("{what} {name:?}"),
            })
        } else {
            Ok(())
        }
    };
    for l in &net.line {
        check(l.from_bus.index(), "line", &l.name)?;
        check(l.to_bus.index(), "line", &l.name)?;
        if l.length_km <= 0.0 {
            return Err(PowerFlowError::InvalidParameter {
                detail: format!("line {:?} has non-positive length", l.name),
            });
        }
    }
    for t in &net.trafo {
        check(t.hv_bus.index(), "trafo", &t.name)?;
        check(t.lv_bus.index(), "trafo", &t.name)?;
        if t.sn_mva <= 0.0 || t.vk_percent <= 0.0 {
            return Err(PowerFlowError::InvalidParameter {
                detail: format!("trafo {:?} has non-positive rating", t.name),
            });
        }
        if t.vkr_percent > t.vk_percent {
            return Err(PowerFlowError::InvalidParameter {
                detail: format!("trafo {:?} has vkr_percent > vk_percent", t.name),
            });
        }
    }
    for l in &net.load {
        check(l.bus.index(), "load", &l.name)?;
    }
    for s in &net.sgen {
        check(s.bus.index(), "sgen", &s.name)?;
    }
    for g in &net.gen {
        check(g.bus.index(), "gen", &g.name)?;
    }
    for e in &net.ext_grid {
        check(e.bus.index(), "ext_grid", &e.name)?;
    }
    for s in &net.shunt {
        check(s.bus.index(), "shunt", &s.name)?;
    }
    Ok(())
}

/// Branch admittance data in per-unit, for Ybus assembly and flow extraction.
struct BranchPu {
    from_node: usize,
    to_node: usize,
    /// Series admittance.
    ys: Complex,
    /// Total charging susceptance (split half per end). Lines only.
    b_charge: f64,
    /// Off-nominal tap ratio on the from (HV) side. 1.0 for lines.
    tap: f64,
}

fn line_pu(net: &PowerNetwork, lid: usize, topo: &Topology) -> BranchPu {
    let l = &net.line[lid];
    let vn_kv = net.bus[l.from_bus.index()].vn_kv;
    let z_base = vn_kv * vn_kv / net.sn_mva_base;
    let r = l.r_ohm_per_km * l.length_km / z_base;
    let x = l.x_ohm_per_km * l.length_km / z_base;
    let b_siemens = 2.0 * std::f64::consts::PI * net.f_hz * l.c_nf_per_km * 1e-9 * l.length_km;
    let b_charge = b_siemens * z_base;
    BranchPu {
        from_node: topo.bus_to_node[l.from_bus.index()],
        to_node: topo.bus_to_node[l.to_bus.index()],
        ys: Complex::new(r, x).recip(),
        b_charge,
        tap: 1.0,
    }
}

fn trafo_pu(net: &PowerNetwork, tid: usize, topo: &Topology) -> BranchPu {
    let t = &net.trafo[tid];
    // Impedance in per-unit on the system base, referred to the LV side.
    let z = t.vk_percent / 100.0 * net.sn_mva_base / t.sn_mva;
    let r = t.vkr_percent / 100.0 * net.sn_mva_base / t.sn_mva;
    let x = (z * z - r * r).max(0.0).sqrt();
    // Off-nominal ratio: rated voltages vs connected-bus nominals, plus tap.
    let vn_hv_bus = net.bus[t.hv_bus.index()].vn_kv;
    let vn_lv_bus = net.bus[t.lv_bus.index()].vn_kv;
    let ratio_nominal = (t.vn_hv_kv / vn_hv_bus) / (t.vn_lv_kv / vn_lv_bus);
    let tap = ratio_nominal * (1.0 + f64::from(t.tap_pos) * t.tap_step_percent / 100.0);
    BranchPu {
        from_node: topo.bus_to_node[t.hv_bus.index()],
        to_node: topo.bus_to_node[t.lv_bus.index()],
        ys: Complex::new(r, x).recip(),
        b_charge: 0.0,
        tap,
    }
}

fn solve_state(net: &PowerNetwork, topo: &Topology) -> Result<SolvedState, PowerFlowError> {
    let s_base = net.sn_mva_base;
    let mut voltage: HashMap<usize, Complex> = HashMap::new();
    let mut iterations_max = 0usize;

    // Precompute per-unit branches once.
    let line_branches: Vec<BranchPu> = topo
        .active_lines
        .iter()
        .map(|l| line_pu(net, l.index(), topo))
        .collect();
    let trafo_branches: Vec<BranchPu> = topo
        .active_trafos
        .iter()
        .map(|t| trafo_pu(net, t.index(), topo))
        .collect();

    for (island_index, island) in topo.islands.iter().enumerate() {
        let Some(slack) = island.slack else {
            // De-energized: zero voltage for all nodes of the island.
            for &node in &island.nodes {
                voltage.insert(node, Complex::ZERO);
            }
            continue;
        };
        let n = island.nodes.len();
        let local: HashMap<usize, usize> = island
            .nodes
            .iter()
            .enumerate()
            .map(|(i, &node)| (node, i))
            .collect();

        // --- Ybus assembly -------------------------------------------------
        let mut y = vec![Complex::ZERO; n * n];
        let add = |i: usize, j: usize, v: Complex, y: &mut Vec<Complex>| {
            y[i * n + j] += v;
        };
        for b in line_branches.iter().chain(trafo_branches.iter()) {
            let (Some(&i), Some(&j)) = (local.get(&b.from_node), local.get(&b.to_node)) else {
                continue;
            };
            let t = b.tap;
            let half_charge = Complex::new(0.0, b.b_charge / 2.0);
            add(i, i, b.ys / (t * t) + half_charge, &mut y);
            add(j, j, b.ys + half_charge, &mut y);
            add(i, j, -(b.ys / t), &mut y);
            add(j, i, -(b.ys / t), &mut y);
        }
        for sh in net.shunt.iter() {
            if !sh.in_service || !net.bus[sh.bus.index()].in_service {
                continue;
            }
            let node = topo.bus_to_node[sh.bus.index()];
            if let Some(&i) = local.get(&node) {
                add(
                    i,
                    i,
                    Complex::new(sh.p_mw / s_base, -sh.q_mvar / s_base),
                    &mut y,
                );
            }
        }

        // --- Specified injections and node kinds ---------------------------
        let mut p_spec = vec![0.0f64; n];
        let mut q_spec = vec![0.0f64; n];
        let mut kind = vec![NodeKind::Pq; n];
        let mut v_set = vec![1.0f64; n];
        let mut theta_set = vec![0.0f64; n];

        for l in net.load.iter().filter(|l| l.in_service) {
            if !net.bus[l.bus.index()].in_service {
                continue;
            }
            if let Some(&i) = local.get(&topo.bus_to_node[l.bus.index()]) {
                p_spec[i] -= l.p_mw * l.scaling / s_base;
                q_spec[i] -= l.q_mvar * l.scaling / s_base;
            }
        }
        for s in net.sgen.iter().filter(|s| s.in_service) {
            if !net.bus[s.bus.index()].in_service {
                continue;
            }
            if let Some(&i) = local.get(&topo.bus_to_node[s.bus.index()]) {
                p_spec[i] += s.p_mw * s.scaling / s_base;
                q_spec[i] += s.q_mvar * s.scaling / s_base;
            }
        }
        for g in net.gen.iter().filter(|g| g.in_service) {
            if !net.bus[g.bus.index()].in_service {
                continue;
            }
            if let Some(&i) = local.get(&topo.bus_to_node[g.bus.index()]) {
                p_spec[i] += g.p_mw / s_base;
                if kind[i] == NodeKind::Pq {
                    kind[i] = NodeKind::Pv;
                }
                v_set[i] = g.vm_pu;
            }
        }

        let slack_node = match slack {
            SlackSource::ExtGrid(eid) => {
                let eg = &net.ext_grid[eid.index()];
                let node = topo.bus_to_node[eg.bus.index()];
                let i = local[&node];
                v_set[i] = eg.vm_pu;
                theta_set[i] = eg.va_degree.to_radians();
                i
            }
            SlackSource::Gen(gid) => {
                let g = &net.gen[gid.index()];
                let node = topo.bus_to_node[g.bus.index()];
                let i = local[&node];
                v_set[i] = g.vm_pu;
                theta_set[i] = 0.0;
                i
            }
        };
        kind[slack_node] = NodeKind::Slack;

        // --- Newton–Raphson -------------------------------------------------
        let mut vm: Vec<f64> = (0..n).map(|i| v_set[i]).collect();
        let mut va: Vec<f64> = (0..n).map(|i| theta_set[i]).collect();
        // Flat start for PQ nodes.
        for i in 0..n {
            if kind[i] == NodeKind::Pq {
                vm[i] = 1.0;
                va[i] = theta_set[slack_node];
            }
        }

        let g = |i: usize, j: usize| y[i * n + j].re;
        let b = |i: usize, j: usize| y[i * n + j].im;

        // Unknown ordering: angles for non-slack nodes, then magnitudes for PQ.
        let angle_nodes: Vec<usize> = (0..n).filter(|&i| kind[i] != NodeKind::Slack).collect();
        let mag_nodes: Vec<usize> = (0..n).filter(|&i| kind[i] == NodeKind::Pq).collect();
        let unknowns = angle_nodes.len() + mag_nodes.len();

        let mut converged = unknowns == 0;
        let mut iterations = 0usize;
        let mut max_mismatch = 0.0f64;
        while !converged && iterations < MAX_ITERATIONS {
            iterations += 1;
            // Calculated injections.
            let mut p_calc = vec![0.0f64; n];
            let mut q_calc = vec![0.0f64; n];
            for i in 0..n {
                for j in 0..n {
                    let th = va[i] - va[j];
                    let (s, c) = th.sin_cos();
                    p_calc[i] += vm[i] * vm[j] * (g(i, j) * c + b(i, j) * s);
                    q_calc[i] += vm[i] * vm[j] * (g(i, j) * s - b(i, j) * c);
                }
            }
            // Mismatch vector.
            let mut f = vec![0.0f64; unknowns];
            for (r, &i) in angle_nodes.iter().enumerate() {
                f[r] = p_spec[i] - p_calc[i];
            }
            for (r, &i) in mag_nodes.iter().enumerate() {
                f[angle_nodes.len() + r] = q_spec[i] - q_calc[i];
            }
            max_mismatch = f.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            // A non-finite mismatch (NaN injections, runaway divergence) must
            // never count as converged: `f64::max` ignores NaN operands, so an
            // all-NaN mismatch vector would otherwise fold to 0.0.
            if !f.iter().all(|v| v.is_finite()) {
                max_mismatch = f64::INFINITY;
                break;
            }
            if max_mismatch < TOLERANCE {
                converged = true;
                break;
            }

            // Jacobian.
            let mut jac = Matrix::zeros(unknowns, unknowns);
            for (r, &i) in angle_nodes.iter().enumerate() {
                // dP/dtheta
                for (c, &j) in angle_nodes.iter().enumerate() {
                    jac[(r, c)] = if i == j {
                        -q_calc[i] - b(i, i) * vm[i] * vm[i]
                    } else {
                        let th = va[i] - va[j];
                        vm[i] * vm[j] * (g(i, j) * th.sin() - b(i, j) * th.cos())
                    };
                }
                // dP/dV
                for (c, &j) in mag_nodes.iter().enumerate() {
                    jac[(r, angle_nodes.len() + c)] = if i == j {
                        p_calc[i] / vm[i] + g(i, i) * vm[i]
                    } else {
                        let th = va[i] - va[j];
                        vm[i] * (g(i, j) * th.cos() + b(i, j) * th.sin())
                    };
                }
            }
            for (r, &i) in mag_nodes.iter().enumerate() {
                // dQ/dtheta
                for (c, &j) in angle_nodes.iter().enumerate() {
                    jac[(angle_nodes.len() + r, c)] = if i == j {
                        p_calc[i] - g(i, i) * vm[i] * vm[i]
                    } else {
                        let th = va[i] - va[j];
                        -vm[i] * vm[j] * (g(i, j) * th.cos() + b(i, j) * th.sin())
                    };
                }
                // dQ/dV
                for (c, &j) in mag_nodes.iter().enumerate() {
                    jac[(angle_nodes.len() + r, angle_nodes.len() + c)] = if i == j {
                        q_calc[i] / vm[i] - b(i, i) * vm[i]
                    } else {
                        let th = va[i] - va[j];
                        vm[i] * (g(i, j) * th.sin() - b(i, j) * th.cos())
                    };
                }
            }

            let lu = Lu::factorize(&jac).map_err(|_| PowerFlowError::SingularJacobian {
                island: island_index,
            })?;
            let dx = lu.solve(&f);
            for (r, &i) in angle_nodes.iter().enumerate() {
                va[i] += dx[r];
            }
            for (r, &i) in mag_nodes.iter().enumerate() {
                vm[i] += dx[angle_nodes.len() + r];
            }
        }

        if !converged {
            return Err(PowerFlowError::DidNotConverge {
                iterations,
                max_mismatch,
            });
        }
        iterations_max = iterations_max.max(iterations);
        for (&node, &i) in &local {
            voltage.insert(node, Complex::from_polar(vm[i], va[i]));
        }
    }

    Ok(SolvedState {
        voltage,
        iterations: iterations_max,
    })
}

fn extract_results(net: &PowerNetwork, topo: &Topology, state: &SolvedState) -> PowerFlowResult {
    let s_base = net.sn_mva_base;
    let v_of = |node: usize| state.voltage.get(&node).copied().unwrap_or(Complex::ZERO);

    let mut result = PowerFlowResult {
        bus: vec![BusResult::default(); net.bus.len()],
        line: vec![BranchResult::default(); net.line.len()],
        trafo: vec![BranchResult::default(); net.trafo.len()],
        ext_grid: vec![ExtGridResult::default(); net.ext_grid.len()],
        gen: vec![GenResult::default(); net.gen.len()],
        iterations: state.iterations,
        total_losses_mw: 0.0,
    };

    for (bi, bus) in net.bus.iter().enumerate() {
        let v = v_of(topo.bus_to_node[bi]);
        result.bus[bi] = BusResult {
            vm_pu: v.abs(),
            va_degree: v.arg().to_degrees(),
            p_mw: 0.0,
            q_mvar: 0.0,
            energized: bus.in_service && v.abs() > 1e-6,
        };
    }

    // Branch flows. Net injection accumulators per node for bus p/q reporting.
    let mut node_p: HashMap<usize, f64> = HashMap::new();
    let mut node_q: HashMap<usize, f64> = HashMap::new();

    let mut branch_flow = |bpu: &BranchPu, vn_from_kv: f64, vn_to_kv: f64| -> BranchResult {
        let vf = v_of(bpu.from_node);
        let vt = v_of(bpu.to_node);
        if vf.abs() < 1e-9 || vt.abs() < 1e-9 {
            return BranchResult::default();
        }
        let t = bpu.tap;
        let half_charge = Complex::new(0.0, bpu.b_charge / 2.0);
        // Current leaving the from bus into the branch (pi model with tap).
        let i_from = (vf / t - vt) * (bpu.ys / t) + vf * half_charge;
        let i_to = (vt - vf / t) * bpu.ys + vt * half_charge;
        let s_from = vf * i_from.conj() * s_base;
        let s_to = vt * i_to.conj() * s_base;
        let i_base_from = s_base / (3f64.sqrt() * vn_from_kv);
        let i_base_to = s_base / (3f64.sqrt() * vn_to_kv);
        let pl = s_from.re + s_to.re;
        *node_p.entry(bpu.from_node).or_default() += s_from.re;
        *node_q.entry(bpu.from_node).or_default() += s_from.im;
        *node_p.entry(bpu.to_node).or_default() += s_to.re;
        *node_q.entry(bpu.to_node).or_default() += s_to.im;
        BranchResult {
            p_from_mw: s_from.re,
            q_from_mvar: s_from.im,
            p_to_mw: s_to.re,
            q_to_mvar: s_to.im,
            pl_mw: pl,
            i_from_ka: i_from.abs() * i_base_from,
            i_to_ka: i_to.abs() * i_base_to,
            loading_percent: 0.0,
            in_service: true,
        }
    };

    for &lid in &topo.active_lines {
        let l = &net.line[lid.index()];
        let bpu = line_pu(net, lid.index(), topo);
        let vn_from = net.bus[l.from_bus.index()].vn_kv;
        let vn_to = net.bus[l.to_bus.index()].vn_kv;
        let mut br = branch_flow(&bpu, vn_from, vn_to);
        if l.max_i_ka > 0.0 {
            br.loading_percent = br.i_from_ka.max(br.i_to_ka) / l.max_i_ka * 100.0;
        }
        result.total_losses_mw += br.pl_mw;
        result.line[lid.index()] = br;
    }
    for &tid in &topo.active_trafos {
        let t = &net.trafo[tid.index()];
        let bpu = trafo_pu(net, tid.index(), topo);
        let vn_hv = net.bus[t.hv_bus.index()].vn_kv;
        let vn_lv = net.bus[t.lv_bus.index()].vn_kv;
        let mut br = branch_flow(&bpu, vn_hv, vn_lv);
        // Transformer loading against its MVA rating.
        let s_mva = br.p_from_mw.hypot(br.q_from_mvar);
        if t.sn_mva > 0.0 {
            br.loading_percent = s_mva / t.sn_mva * 100.0;
        }
        result.total_losses_mw += br.pl_mw;
        result.trafo[tid.index()] = br;
    }

    // Shunt power consumption contributes to node injections.
    for sh in net.shunt.iter().filter(|s| s.in_service) {
        let node = topo.bus_to_node[sh.bus.index()];
        let v = v_of(node);
        let v2 = v.norm_sqr();
        *node_p.entry(node).or_default() += sh.p_mw * v2;
        *node_q.entry(node).or_default() += sh.q_mvar * v2;
    }

    // Bus net injection: sum of powers flowing out into branches/shunts.
    for (bi, _) in net.bus.iter().enumerate() {
        let node = topo.bus_to_node[bi];
        // Report the node totals only on the representative bus to avoid
        // double counting across merged buses.
        if node == bi {
            result.bus[bi].p_mw = node_p.get(&node).copied().unwrap_or(0.0);
            result.bus[bi].q_mvar = node_q.get(&node).copied().unwrap_or(0.0);
        }
    }

    // Slack / PV source powers: balance at their nodes.
    let mut slack_gens: Vec<usize> = Vec::new();
    for island in topo.islands.iter() {
        match island.slack {
            Some(SlackSource::ExtGrid(eid)) => {
                let eg = &net.ext_grid[eid.index()];
                let node = topo.bus_to_node[eg.bus.index()];
                let (p, q) = node_balance(net, topo, node, &node_p, &node_q);
                result.ext_grid[eid.index()] = ExtGridResult { p_mw: p, q_mvar: q };
            }
            Some(SlackSource::Gen(gid)) => {
                let g = &net.gen[gid.index()];
                let node = topo.bus_to_node[g.bus.index()];
                let (p, q) = node_balance(net, topo, node, &node_p, &node_q);
                result.gen[gid.index()] = GenResult {
                    p_mw: p,
                    q_mvar: q,
                    vm_pu: v_of(node).abs(),
                };
                slack_gens.push(gid.index());
            }
            None => {}
        }
    }
    // PV generator reactive power: Q needed to hold the set-point.
    for (gi, g) in net.gen.iter().enumerate() {
        if !g.in_service || slack_gens.contains(&gi) {
            continue;
        }
        let node = topo.bus_to_node[g.bus.index()];
        let (_, q) = node_balance(net, topo, node, &node_p, &node_q);
        result.gen[gi] = GenResult {
            p_mw: g.p_mw,
            q_mvar: q,
            vm_pu: v_of(node).abs(),
        };
    }

    result
}

/// Power that must be injected at `node` by its voltage-controlling source:
/// branch outflow at the node plus local load minus local non-slack injection.
fn node_balance(
    net: &PowerNetwork,
    topo: &Topology,
    node: usize,
    node_p: &HashMap<usize, f64>,
    node_q: &HashMap<usize, f64>,
) -> (f64, f64) {
    let mut p = node_p.get(&node).copied().unwrap_or(0.0);
    let mut q = node_q.get(&node).copied().unwrap_or(0.0);
    for l in net.load.iter().filter(|l| l.in_service) {
        if topo.bus_to_node[l.bus.index()] == node {
            p += l.p_mw * l.scaling;
            q += l.q_mvar * l.scaling;
        }
    }
    for s in net.sgen.iter().filter(|s| s.in_service) {
        if topo.bus_to_node[s.bus.index()] == node {
            p -= s.p_mw * s.scaling;
            q -= s.q_mvar * s.scaling;
        }
    }
    (p, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SwitchTarget;

    /// Two-bus network with a known analytic solution region.
    fn two_bus() -> PowerNetwork {
        let mut net = PowerNetwork::new("two-bus");
        let b1 = net.add_bus("b1", 110.0);
        let b2 = net.add_bus("b2", 110.0);
        net.add_ext_grid("grid", b1, 1.0, 0.0);
        net.add_line("l1", b1, b2, 10.0, 0.06, 0.12, 0.0, 1.0);
        net.add_load("load", b2, 30.0, 10.0);
        net
    }

    #[test]
    fn two_bus_converges_and_balances() {
        let net = two_bus();
        let res = solve(&net).unwrap();
        assert!(res.iterations <= 10);
        // Voltage drops below the slack under load.
        assert!(res.bus[1].vm_pu < 1.0);
        assert!(res.bus[1].vm_pu > 0.9);
        // Slack supplies load + losses.
        let supplied = res.total_ext_grid_p_mw();
        assert!(supplied > 30.0);
        assert!((supplied - 30.0 - res.total_losses_mw).abs() < 1e-6);
    }

    #[test]
    fn no_load_means_flat_voltage() {
        let mut net = two_bus();
        net.load[0].in_service = false;
        let res = solve(&net).unwrap();
        assert!((res.bus[1].vm_pu - 1.0).abs() < 1e-9);
        assert!(res.total_losses_mw.abs() < 1e-9);
    }

    #[test]
    fn nan_load_is_nonconvergence_not_success() {
        let mut net = two_bus();
        net.load[0].p_mw = f64::NAN;
        // NaN poisons the mismatch vector; `f64::max` would silently fold it
        // to 0.0 and report a NaN voltage profile as converged.
        match solve(&net) {
            Err(PowerFlowError::DidNotConverge { max_mismatch, .. }) => {
                assert!(!max_mismatch.is_finite());
            }
            other => panic!("expected DidNotConverge, got {other:?}"),
        }
    }

    #[test]
    fn heavier_load_lower_voltage() {
        let mut net = two_bus();
        let res1 = solve(&net).unwrap();
        net.load[0].p_mw = 60.0;
        let res2 = solve(&net).unwrap();
        assert!(res2.bus[1].vm_pu < res1.bus[1].vm_pu);
        assert!(res2.line[0].loading_percent > res1.line[0].loading_percent);
    }

    #[test]
    fn open_breaker_deenergizes_load_bus() {
        let mut net = two_bus();
        let b1 = net.bus_by_name("b1").unwrap();
        net.add_switch(
            "cb",
            b1,
            SwitchTarget::Line(crate::network::LineId(0)),
            true,
        );
        let res = solve(&net).unwrap();
        assert!(res.bus[1].energized);
        net.set_switch("cb", false);
        let res = solve(&net).unwrap();
        assert!(!res.bus[1].energized);
        assert_eq!(res.bus[1].vm_pu, 0.0);
        assert!(!res.line[0].in_service);
        assert!(res.total_ext_grid_p_mw().abs() < 1e-9);
    }

    #[test]
    fn pv_generator_holds_voltage() {
        let mut net = two_bus();
        let b2 = net.bus_by_name("b2").unwrap();
        net.add_gen("g1", b2, 10.0, 1.02);
        let res = solve(&net).unwrap();
        assert!((res.bus[1].vm_pu - 1.02).abs() < 1e-6);
        // Generator absorbs/produces Q to hold the set-point.
        assert!(res.gen[0].q_mvar.abs() > 0.0);
    }

    #[test]
    fn trafo_network_converges() {
        let mut net = PowerNetwork::new("hv-lv");
        let hv = net.add_bus("hv", 110.0);
        let lv = net.add_bus("lv", 20.0);
        net.add_ext_grid("grid", hv, 1.0, 0.0);
        net.add_trafo("t1", hv, lv, 25.0, 110.0, 20.0, 12.0, 0.6);
        net.add_load("load", lv, 15.0, 5.0);
        let res = solve(&net).unwrap();
        assert!(res.bus[1].vm_pu < 1.0 && res.bus[1].vm_pu > 0.85);
        assert!(res.trafo[0].loading_percent > 50.0);
        assert!(res.trafo[0].pl_mw > 0.0);
    }

    #[test]
    fn sgen_reduces_grid_supply() {
        let mut net = two_bus();
        let b2 = net.bus_by_name("b2").unwrap();
        let base = solve(&net).unwrap().total_ext_grid_p_mw();
        net.add_sgen("pv", b2, 10.0, 0.0);
        let with_pv = solve(&net).unwrap().total_ext_grid_p_mw();
        assert!(with_pv < base - 9.0, "PV injection offsets grid supply");
    }

    #[test]
    fn shunt_consumes_reactive_power() {
        let mut net = two_bus();
        let b2 = net.bus_by_name("b2").unwrap();
        let base_q = solve(&net).unwrap().ext_grid[0].q_mvar;
        net.add_shunt("reactor", b2, 0.0, 5.0);
        let with_shunt_q = solve(&net).unwrap().ext_grid[0].q_mvar;
        assert!(with_shunt_q > base_q + 3.0);
    }

    #[test]
    fn meshed_network_converges() {
        // Triangle grid with two loads.
        let mut net = PowerNetwork::new("mesh");
        let b1 = net.add_bus("b1", 110.0);
        let b2 = net.add_bus("b2", 110.0);
        let b3 = net.add_bus("b3", 110.0);
        net.add_ext_grid("grid", b1, 1.01, 0.0);
        net.add_line("l12", b1, b2, 15.0, 0.06, 0.12, 250.0, 0.6);
        net.add_line("l23", b2, b3, 10.0, 0.06, 0.12, 250.0, 0.6);
        net.add_line("l13", b1, b3, 20.0, 0.06, 0.12, 250.0, 0.6);
        net.add_load("ld2", b2, 25.0, 8.0);
        net.add_load("ld3", b3, 15.0, 4.0);
        let res = solve(&net).unwrap();
        assert!(res.iterations < 10);
        let supplied = res.total_ext_grid_p_mw();
        assert!((supplied - 40.0 - res.total_losses_mw).abs() < 1e-6);
        // Kirchhoff check at b2: line flows into b2 equal load.
        let into_b2 = -res.line[0].p_to_mw - res.line[1].p_from_mw;
        assert!((into_b2 - 25.0).abs() < 1e-6);
    }

    #[test]
    fn invalid_reference_rejected() {
        let mut net = PowerNetwork::new("bad");
        let b1 = net.add_bus("b1", 110.0);
        net.add_ext_grid("grid", b1, 1.0, 0.0);
        net.add_load("ld", crate::network::BusId(7), 1.0, 0.0);
        assert!(matches!(
            solve(&net),
            Err(PowerFlowError::InvalidReference { .. })
        ));
    }

    #[test]
    fn overload_does_not_converge_or_collapses() {
        let mut net = two_bus();
        net.load[0].p_mw = 5000.0; // far beyond the line's transfer capacity
        match solve(&net) {
            Err(PowerFlowError::DidNotConverge { .. }) => {}
            Ok(res) => {
                assert!(res.bus[1].vm_pu < 0.5, "voltage collapse expected");
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
}
