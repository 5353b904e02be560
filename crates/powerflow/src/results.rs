//! Power-flow result tables, mirroring the element tables of
//! [`PowerNetwork`](crate::PowerNetwork).

/// Result for one bus.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BusResult {
    /// Voltage magnitude in per-unit (0.0 when de-energized).
    pub vm_pu: f64,
    /// Voltage angle in degrees.
    pub va_degree: f64,
    /// Net active power injection in MW (generation positive).
    pub p_mw: f64,
    /// Net reactive power injection in Mvar.
    pub q_mvar: f64,
    /// Whether the bus belongs to an energized island.
    pub energized: bool,
}

/// Result for one branch (line or transformer).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BranchResult {
    /// Active power entering at the from/HV side in MW.
    pub p_from_mw: f64,
    /// Reactive power entering at the from/HV side in Mvar.
    pub q_from_mvar: f64,
    /// Active power entering at the to/LV side in MW.
    pub p_to_mw: f64,
    /// Reactive power entering at the to/LV side in Mvar.
    pub q_to_mvar: f64,
    /// Active power losses in MW.
    pub pl_mw: f64,
    /// Current at the from side in kA.
    pub i_from_ka: f64,
    /// Current at the to side in kA.
    pub i_to_ka: f64,
    /// Loading relative to the thermal limit, in percent (lines only).
    pub loading_percent: f64,
    /// Whether the branch carried power in this solution.
    pub in_service: bool,
}

/// Result for one external grid: the power it supplies.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExtGridResult {
    /// Active power supplied in MW.
    pub p_mw: f64,
    /// Reactive power supplied in Mvar.
    pub q_mvar: f64,
}

/// Result for one generator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GenResult {
    /// Active power dispatched in MW (may differ from set-point for slack).
    pub p_mw: f64,
    /// Reactive power produced in Mvar.
    pub q_mvar: f64,
    /// Voltage magnitude at the terminal in per-unit.
    pub vm_pu: f64,
}

/// The complete solution of one power-flow run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PowerFlowResult {
    /// Per-bus results, indexed like the bus table.
    pub bus: Vec<BusResult>,
    /// Per-line results, indexed like the line table.
    pub line: Vec<BranchResult>,
    /// Per-transformer results, indexed like the trafo table.
    pub trafo: Vec<BranchResult>,
    /// Per-external-grid results.
    pub ext_grid: Vec<ExtGridResult>,
    /// Per-generator results.
    pub gen: Vec<GenResult>,
    /// Newton–Raphson iterations taken (maximum across islands).
    pub iterations: usize,
    /// Total active losses in MW.
    pub total_losses_mw: f64,
}

impl PowerFlowResult {
    /// Total active power supplied by all external grids, in MW.
    pub fn total_ext_grid_p_mw(&self) -> f64 {
        self.ext_grid.iter().map(|e| e.p_mw).sum()
    }

    /// The highest line loading in percent, with its line index.
    pub fn max_line_loading(&self) -> Option<(usize, f64)> {
        self.line
            .iter()
            .enumerate()
            .filter(|(_, l)| l.in_service)
            .map(|(i, l)| (i, l.loading_percent))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}
