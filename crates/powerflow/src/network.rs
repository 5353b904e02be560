//! The power network element model (Pandapower-style element tables).
//!
//! A [`PowerNetwork`] is a collection of buses and the elements attached to
//! them. Parameter names and units deliberately mirror pandapower's so that
//! models generated from IEC 61850 SSD files read the same in both systems:
//! `vn_kv`, `r_ohm_per_km`, `sn_mva`, `vk_percent`, `p_mw`, …

macro_rules! element_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub usize);

        impl $name {
            /// The raw table index.
            pub fn index(self) -> usize {
                self.0
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}({})", stringify!($name), self.0)
            }
        }
    };
}

element_id!(
    /// Index into the bus table.
    BusId
);
element_id!(
    /// Index into the line table.
    LineId
);
element_id!(
    /// Index into the transformer table.
    TrafoId
);
element_id!(
    /// Index into the load table.
    LoadId
);
element_id!(
    /// Index into the static-generator table.
    SgenId
);
element_id!(
    /// Index into the (voltage-controlled) generator table.
    GenId
);
element_id!(
    /// Index into the external-grid table.
    ExtGridId
);
element_id!(
    /// Index into the shunt table.
    ShuntId
);
element_id!(
    /// Index into the switch table.
    SwitchId
);

/// A network bus (node) at a nominal voltage level.
#[derive(Debug, Clone, PartialEq)]
pub struct Bus {
    /// Human-readable name (unique within a network by convention).
    pub name: String,
    /// Nominal voltage in kV.
    pub vn_kv: f64,
    /// Whether the bus participates in the calculation.
    pub in_service: bool,
}

/// An overhead line or cable (pi-model).
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    /// Human-readable name.
    pub name: String,
    /// From-side bus.
    pub from_bus: BusId,
    /// To-side bus.
    pub to_bus: BusId,
    /// Length in km.
    pub length_km: f64,
    /// Series resistance in ohm per km.
    pub r_ohm_per_km: f64,
    /// Series reactance in ohm per km.
    pub x_ohm_per_km: f64,
    /// Shunt capacitance in nF per km.
    pub c_nf_per_km: f64,
    /// Thermal current limit in kA.
    pub max_i_ka: f64,
    /// Whether the line is energized.
    pub in_service: bool,
}

/// A two-winding transformer.
#[derive(Debug, Clone, PartialEq)]
pub struct Trafo {
    /// Human-readable name.
    pub name: String,
    /// High-voltage side bus.
    pub hv_bus: BusId,
    /// Low-voltage side bus.
    pub lv_bus: BusId,
    /// Rated apparent power in MVA.
    pub sn_mva: f64,
    /// Rated HV voltage in kV.
    pub vn_hv_kv: f64,
    /// Rated LV voltage in kV.
    pub vn_lv_kv: f64,
    /// Short-circuit voltage in percent.
    pub vk_percent: f64,
    /// Real part of the short-circuit voltage in percent.
    pub vkr_percent: f64,
    /// Tap position (integer steps, 0 = neutral).
    pub tap_pos: i32,
    /// Voltage change per tap step in percent.
    pub tap_step_percent: f64,
    /// Whether the transformer is energized.
    pub in_service: bool,
}

/// A PQ load.
#[derive(Debug, Clone, PartialEq)]
pub struct Load {
    /// Human-readable name.
    pub name: String,
    /// Bus the load is connected to.
    pub bus: BusId,
    /// Active power demand in MW.
    pub p_mw: f64,
    /// Reactive power demand in Mvar.
    pub q_mvar: f64,
    /// Scaling factor applied to both powers (load profiles write here).
    pub scaling: f64,
    /// Whether the load draws power.
    pub in_service: bool,
}

/// A static generator (PQ injection: PV panels, batteries, wind).
#[derive(Debug, Clone, PartialEq)]
pub struct Sgen {
    /// Human-readable name.
    pub name: String,
    /// Bus the generator is connected to.
    pub bus: BusId,
    /// Active power injection in MW.
    pub p_mw: f64,
    /// Reactive power injection in Mvar.
    pub q_mvar: f64,
    /// Scaling factor (generation profiles write here).
    pub scaling: f64,
    /// Whether the generator injects power.
    pub in_service: bool,
}

/// A voltage-controlled (PV) generator.
#[derive(Debug, Clone, PartialEq)]
pub struct Gen {
    /// Human-readable name.
    pub name: String,
    /// Bus the generator is connected to.
    pub bus: BusId,
    /// Active power set-point in MW.
    pub p_mw: f64,
    /// Voltage set-point in per-unit.
    pub vm_pu: f64,
    /// Whether the generator is online.
    pub in_service: bool,
}

/// An external grid connection (slack bus).
#[derive(Debug, Clone, PartialEq)]
pub struct ExtGrid {
    /// Human-readable name.
    pub name: String,
    /// Bus the grid connects at.
    pub bus: BusId,
    /// Voltage magnitude set-point in per-unit.
    pub vm_pu: f64,
    /// Voltage angle set-point in degrees.
    pub va_degree: f64,
    /// Whether the connection is active.
    pub in_service: bool,
}

/// A shunt element (capacitor bank / reactor), powers at 1.0 pu voltage.
#[derive(Debug, Clone, PartialEq)]
pub struct Shunt {
    /// Human-readable name.
    pub name: String,
    /// Bus the shunt is connected to.
    pub bus: BusId,
    /// Active power at v=1 pu in MW (losses).
    pub p_mw: f64,
    /// Reactive power at v=1 pu in Mvar (positive = inductive).
    pub q_mvar: f64,
    /// Whether the shunt is connected.
    pub in_service: bool,
}

/// What a switch connects the bus to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchTarget {
    /// Bus-to-bus coupler / busbar section switch.
    Bus(BusId),
    /// Bus-to-line breaker (disconnects the line when open).
    Line(LineId),
    /// Bus-to-transformer breaker.
    Trafo(TrafoId),
}

/// A switch or circuit breaker.
#[derive(Debug, Clone, PartialEq)]
pub struct Switch {
    /// Human-readable name (circuit breakers referenced by SG-ML use this).
    pub name: String,
    /// Bus side of the switch.
    pub bus: BusId,
    /// What the switch connects the bus to.
    pub target: SwitchTarget,
    /// Whether the switch is closed (conducting).
    pub closed: bool,
}

/// A complete power network: element tables plus the MVA base.
///
/// # Examples
///
/// ```
/// use sgcr_powerflow::PowerNetwork;
///
/// let mut net = PowerNetwork::new("demo");
/// let b1 = net.add_bus("hv", 110.0);
/// let b2 = net.add_bus("lv", 110.0);
/// net.add_ext_grid("grid", b1, 1.0, 0.0);
/// net.add_line("l1", b1, b2, 10.0, 0.06, 0.12, 300.0, 0.5);
/// net.add_load("city", b2, 20.0, 5.0);
/// let result = sgcr_powerflow::solve(&net)?;
/// assert!(result.bus[b2.index()].vm_pu < 1.0);
/// # Ok::<(), sgcr_powerflow::PowerFlowError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerNetwork {
    /// Network name (substation or system identifier).
    pub name: String,
    /// System MVA base for the per-unit conversion.
    pub sn_mva_base: f64,
    /// Nominal system frequency in Hz.
    pub f_hz: f64,
    /// Bus table.
    pub bus: Vec<Bus>,
    /// Line table.
    pub line: Vec<Line>,
    /// Transformer table.
    pub trafo: Vec<Trafo>,
    /// Load table.
    pub load: Vec<Load>,
    /// Static generator table.
    pub sgen: Vec<Sgen>,
    /// Generator table.
    pub gen: Vec<Gen>,
    /// External grid table.
    pub ext_grid: Vec<ExtGrid>,
    /// Shunt table.
    pub shunt: Vec<Shunt>,
    /// Switch table.
    pub switch: Vec<Switch>,
}

impl PowerNetwork {
    /// Creates an empty network with a 100 MVA base at 50 Hz.
    pub fn new(name: &str) -> PowerNetwork {
        PowerNetwork {
            name: name.to_string(),
            sn_mva_base: 100.0,
            f_hz: 50.0,
            bus: Vec::new(),
            line: Vec::new(),
            trafo: Vec::new(),
            load: Vec::new(),
            sgen: Vec::new(),
            gen: Vec::new(),
            ext_grid: Vec::new(),
            shunt: Vec::new(),
            switch: Vec::new(),
        }
    }

    /// Adds a bus and returns its id.
    pub fn add_bus(&mut self, name: &str, vn_kv: f64) -> BusId {
        self.bus.push(Bus {
            name: name.to_string(),
            vn_kv,
            in_service: true,
        });
        BusId(self.bus.len() - 1)
    }

    /// Adds a line and returns its id.
    #[allow(clippy::too_many_arguments)]
    pub fn add_line(
        &mut self,
        name: &str,
        from_bus: BusId,
        to_bus: BusId,
        length_km: f64,
        r_ohm_per_km: f64,
        x_ohm_per_km: f64,
        c_nf_per_km: f64,
        max_i_ka: f64,
    ) -> LineId {
        self.line.push(Line {
            name: name.to_string(),
            from_bus,
            to_bus,
            length_km,
            r_ohm_per_km,
            x_ohm_per_km,
            c_nf_per_km,
            max_i_ka,
            in_service: true,
        });
        LineId(self.line.len() - 1)
    }

    /// Adds a transformer (neutral tap) and returns its id.
    #[allow(clippy::too_many_arguments)]
    pub fn add_trafo(
        &mut self,
        name: &str,
        hv_bus: BusId,
        lv_bus: BusId,
        sn_mva: f64,
        vn_hv_kv: f64,
        vn_lv_kv: f64,
        vk_percent: f64,
        vkr_percent: f64,
    ) -> TrafoId {
        self.trafo.push(Trafo {
            name: name.to_string(),
            hv_bus,
            lv_bus,
            sn_mva,
            vn_hv_kv,
            vn_lv_kv,
            vk_percent,
            vkr_percent,
            tap_pos: 0,
            tap_step_percent: 0.0,
            in_service: true,
        });
        TrafoId(self.trafo.len() - 1)
    }

    /// Adds a PQ load and returns its id.
    pub fn add_load(&mut self, name: &str, bus: BusId, p_mw: f64, q_mvar: f64) -> LoadId {
        self.load.push(Load {
            name: name.to_string(),
            bus,
            p_mw,
            q_mvar,
            scaling: 1.0,
            in_service: true,
        });
        LoadId(self.load.len() - 1)
    }

    /// Adds a static (PQ) generator and returns its id.
    pub fn add_sgen(&mut self, name: &str, bus: BusId, p_mw: f64, q_mvar: f64) -> SgenId {
        self.sgen.push(Sgen {
            name: name.to_string(),
            bus,
            p_mw,
            q_mvar,
            scaling: 1.0,
            in_service: true,
        });
        SgenId(self.sgen.len() - 1)
    }

    /// Adds a PV generator and returns its id.
    pub fn add_gen(&mut self, name: &str, bus: BusId, p_mw: f64, vm_pu: f64) -> GenId {
        self.gen.push(Gen {
            name: name.to_string(),
            bus,
            p_mw,
            vm_pu,
            in_service: true,
        });
        GenId(self.gen.len() - 1)
    }

    /// Adds an external grid (slack) and returns its id.
    pub fn add_ext_grid(
        &mut self,
        name: &str,
        bus: BusId,
        vm_pu: f64,
        va_degree: f64,
    ) -> ExtGridId {
        self.ext_grid.push(ExtGrid {
            name: name.to_string(),
            bus,
            vm_pu,
            va_degree,
            in_service: true,
        });
        ExtGridId(self.ext_grid.len() - 1)
    }

    /// Adds a shunt and returns its id.
    pub fn add_shunt(&mut self, name: &str, bus: BusId, p_mw: f64, q_mvar: f64) -> ShuntId {
        self.shunt.push(Shunt {
            name: name.to_string(),
            bus,
            p_mw,
            q_mvar,
            in_service: true,
        });
        ShuntId(self.shunt.len() - 1)
    }

    /// Adds a switch and returns its id.
    pub fn add_switch(
        &mut self,
        name: &str,
        bus: BusId,
        target: SwitchTarget,
        closed: bool,
    ) -> SwitchId {
        self.switch.push(Switch {
            name: name.to_string(),
            bus,
            target,
            closed,
        });
        SwitchId(self.switch.len() - 1)
    }

    /// Finds a bus id by name.
    pub fn bus_by_name(&self, name: &str) -> Option<BusId> {
        self.bus.iter().position(|b| b.name == name).map(BusId)
    }

    /// Finds a line id by name.
    pub fn line_by_name(&self, name: &str) -> Option<LineId> {
        self.line.iter().position(|l| l.name == name).map(LineId)
    }

    /// Finds a switch id by name.
    pub fn switch_by_name(&self, name: &str) -> Option<SwitchId> {
        self.switch
            .iter()
            .position(|s| s.name == name)
            .map(SwitchId)
    }

    /// Finds a load id by name.
    pub fn load_by_name(&self, name: &str) -> Option<LoadId> {
        self.load.iter().position(|l| l.name == name).map(LoadId)
    }

    /// Finds a generator id by name.
    pub fn gen_by_name(&self, name: &str) -> Option<GenId> {
        self.gen.iter().position(|g| g.name == name).map(GenId)
    }

    /// Finds a static generator id by name.
    pub fn sgen_by_name(&self, name: &str) -> Option<SgenId> {
        self.sgen.iter().position(|s| s.name == name).map(SgenId)
    }

    /// Finds a transformer id by name.
    pub fn trafo_by_name(&self, name: &str) -> Option<TrafoId> {
        self.trafo.iter().position(|t| t.name == name).map(TrafoId)
    }

    /// Opens or closes a named switch. Returns `false` if no such switch.
    pub fn set_switch(&mut self, name: &str, closed: bool) -> bool {
        match self.switch_by_name(name) {
            Some(id) => {
                self.switch[id.index()].closed = closed;
                true
            }
            None => false,
        }
    }

    /// Total connected in-service load, after scaling, in MW.
    pub fn total_load_mw(&self) -> f64 {
        self.load
            .iter()
            .filter(|l| l.in_service)
            .map(|l| l.p_mw * l.scaling)
            .sum()
    }

    /// A short structural summary (used by the Figure 5 regeneration binary).
    pub fn summary(&self) -> String {
        format!(
            "{}: {} buses, {} lines, {} trafos, {} loads, {} sgens, {} gens, {} ext_grids, {} switches",
            self.name,
            self.bus.len(),
            self.line.len(),
            self.trafo.len(),
            self.load.len(),
            self.sgen.len(),
            self.gen.len(),
            self.ext_grid.len(),
            self.switch.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_lookup() {
        let mut net = PowerNetwork::new("t");
        let b1 = net.add_bus("b1", 110.0);
        let b2 = net.add_bus("b2", 20.0);
        let t = net.add_trafo("t1", b1, b2, 40.0, 110.0, 20.0, 10.0, 0.5);
        let l = net.add_load("ld", b2, 10.0, 2.0);
        assert_eq!(net.bus_by_name("b2"), Some(b2));
        assert_eq!(net.trafo_by_name("t1"), Some(t));
        assert_eq!(net.load_by_name("ld"), Some(l));
        assert_eq!(net.bus_by_name("zz"), None);
        assert_eq!(net.total_load_mw(), 10.0);
    }

    #[test]
    fn switch_toggling() {
        let mut net = PowerNetwork::new("t");
        let b1 = net.add_bus("b1", 20.0);
        let b2 = net.add_bus("b2", 20.0);
        net.add_switch("cb1", b1, SwitchTarget::Bus(b2), true);
        assert!(net.set_switch("cb1", false));
        assert!(!net.switch[0].closed);
        assert!(!net.set_switch("nope", true));
    }

    #[test]
    fn scaling_affects_total_load() {
        let mut net = PowerNetwork::new("t");
        let b = net.add_bus("b", 20.0);
        let l = net.add_load("ld", b, 10.0, 0.0);
        net.load[l.index()].scaling = 0.5;
        assert_eq!(net.total_load_mw(), 5.0);
        net.load[l.index()].in_service = false;
        assert_eq!(net.total_load_mw(), 0.0);
    }
}
