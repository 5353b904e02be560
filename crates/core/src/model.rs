//! The immutable, shareable output of SG-ML compilation: a [`CompiledModel`].
//!
//! The SG-ML Processor is a compiler, and like any compiler its output is an
//! artifact that can be *executed many times*: one IEC 61850 model set is
//! compiled once — XML parsing, SED consolidation, power-model generation,
//! network planning, ICD feature gating, Structured-Text parsing — and the
//! resulting [`CompiledModel`] is wrapped in an [`Arc`] and instantiated
//! into any number of independent [`CyberRange`](crate::CyberRange)s. No
//! per-tenant work re-touches XML or ST source text; instantiation only
//! clones the pristine power model and stamps out fresh virtual devices
//! from the compiled blueprints.
//!
//! This is the model/state split behind the multi-tenant range farm: the
//! compiled model is the paper's "generated cyber range" as a reusable
//! artifact, while [`RangeState`](crate::state::RangeState) is one
//! exercise's mutable world.

use crate::compile::ied::compile_ied;
use crate::compile::network::{compile_network, NetworkPlan};
use crate::compile::power::{compile_power, PowerCompilation};
use crate::range::{RangeError, SgmlBundle};
use crate::sgml::ied_config::IedConfig;
use crate::sgml::plc_config::{PlcConfig, PlcLogic};
use crate::sgml::power_extra::PowerExtraConfig;
use sgcr_ied::IedSpec;
use sgcr_net::{Ipv4Addr, SimDuration};
use sgcr_plc::{GooseBinding, MmsReadBinding, MmsWriteBinding, Program};
use sgcr_powerflow::{PowerNetwork, SimulationSchedule};
use sgcr_scada::ScadaConfig;
use sgcr_scl::{
    consolidate_scd, consolidate_ssd, parse_icd, parse_scd, parse_sed, parse_ssd, Diagnostic,
    SclDocument,
};
use std::sync::Arc;

/// A PLC ready to instantiate: parsed program plus fully resolved bindings
/// (server names already mapped to IPs against the network plan).
#[derive(Debug, Clone)]
pub struct CompiledPlc {
    /// Host name (a ConnectedAP in the SCD).
    pub name: String,
    /// Scan period.
    pub scan_ms: u64,
    /// The parsed IEC 61131-3 program (ST or imported PLCopen XML).
    pub program: Program,
    /// MMS read bindings with resolved server IPs.
    pub reads: Vec<MmsReadBinding>,
    /// MMS write bindings with resolved server IPs.
    pub writes: Vec<MmsWriteBinding>,
    /// GOOSE subscription bindings.
    pub gooses: Vec<GooseBinding>,
}

/// The SCADA HMI blueprint: which host runs it and its tag/alarm config.
#[derive(Debug, Clone)]
pub struct CompiledScada {
    /// Host name of the workstation in the SCD.
    pub host: String,
    /// The parsed HMI configuration.
    pub config: ScadaConfig,
}

/// The immutable output of compiling an [`SgmlBundle`] — everything the
/// SG-ML Processor derives from the model files, and nothing that changes
/// while a range runs.
///
/// Wrap it in an [`Arc`] (see [`CompiledModel::shared`]) and hand clones of
/// the handle to [`RangeBuilder::from_model`](crate::RangeBuilder::from_model)
/// to stamp out tenants:
///
/// ```no_run
/// use sgcr_core::{CompiledModel, RangeBuilder, SgmlBundle};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let bundle = SgmlBundle::from_dir("examples/epic_bundle")?;
/// let model = CompiledModel::shared(&bundle)?;
/// let tenant_a = RangeBuilder::from_model(model.clone()).build()?;
/// let tenant_b = RangeBuilder::from_model(model.clone()).build()?;
/// # let _ = (tenant_a, tenant_b);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledModel {
    /// The pristine physical model; every tenant starts from a clone of it.
    pub power: PowerNetwork,
    /// The cyber network plan (host IPs, switches, Figure-4 dot rendering).
    pub plan: NetworkPlan,
    /// Load profiles and scheduled disturbances from the Power Extra config.
    pub schedule: SimulationSchedule,
    /// Power-flow step interval from the Power Extra config (100 ms default).
    pub interval: SimDuration,
    /// Compiled virtual-IED specs (ICD-gated), in config order.
    pub ieds: Vec<IedSpec>,
    /// Compiled virtual PLCs, in config order.
    pub plcs: Vec<CompiledPlc>,
    /// The SCADA HMI blueprint, when configured.
    pub scada: Option<CompiledScada>,
    /// All diagnostics accumulated while compiling (warnings only — an
    /// error-severity diagnostic fails compilation).
    pub diagnostics: Vec<Diagnostic>,
    fingerprint: u64,
}

impl CompiledModel {
    /// Finds a compiled IED spec by name.
    pub fn ied(&self, name: &str) -> Option<&IedSpec> {
        self.ieds.iter().find(|i| i.name == name)
    }

    /// Finds a compiled PLC by host name.
    pub fn plc(&self, name: &str) -> Option<&CompiledPlc> {
        self.plcs.iter().find(|p| p.name == name)
    }

    /// Compiles an SG-ML bundle into an immutable model — the complete
    /// parse/consolidate/generate pipeline of the paper's Figures 2–3, run
    /// exactly once per bundle.
    ///
    /// # Errors
    ///
    /// Returns [`RangeError`] when any model file fails to parse, cross-file
    /// validation produces an error-severity diagnostic, or a supplementary
    /// config references a host absent from the SCD.
    pub fn compile(bundle: &SgmlBundle) -> Result<CompiledModel, RangeError> {
        let mut diagnostics: Vec<Diagnostic> = Vec::new();

        // --- 1. Parse all SCL files ---------------------------------------
        let model = |what: &'static str| {
            move |e: sgcr_scl::SclError| RangeError::Model {
                what,
                detail: e.to_string(),
            }
        };
        let ssds: Vec<SclDocument> = bundle
            .ssds
            .iter()
            .map(|t| parse_ssd(t).map_err(model("SSD")))
            .collect::<Result<_, _>>()?;
        let scds: Vec<SclDocument> = bundle
            .scds
            .iter()
            .map(|t| parse_scd(t).map_err(model("SCD")))
            .collect::<Result<_, _>>()?;
        let icds: Vec<SclDocument> = bundle
            .icds
            .iter()
            .map(|t| parse_icd(t).map_err(model("ICD")))
            .collect::<Result<_, _>>()?;
        let seds: Vec<SclDocument> = bundle
            .seds
            .iter()
            .map(|t| parse_sed(t).map_err(model("SED")))
            .collect::<Result<_, _>>()?;

        // --- 2. SED-driven consolidation -----------------------------------
        let consolidated_ssd = consolidate_ssd(&ssds, &seds).map_err(model("consolidated SSD"))?;
        let consolidated_scd = consolidate_scd(&scds).map_err(model("consolidated SCD"))?;

        // --- 3. Compile the physical and cyber models ----------------------
        let PowerCompilation {
            network: power,
            bus_by_path: _,
            diagnostics: power_diags,
        } = compile_power(&consolidated_ssd);
        diagnostics.extend(power_diags);

        let plan = compile_network(&consolidated_scd);
        diagnostics.extend(plan.diagnostics.clone());
        if diagnostics
            .iter()
            .any(|d| d.severity == sgcr_scl::Severity::Error)
        {
            return Err(RangeError::Validation(diagnostics));
        }

        // --- 4. Simulation schedule ----------------------------------------
        let (interval, schedule) = match &bundle.power_extra {
            Some(text) => {
                let extra = PowerExtraConfig::parse(text).map_err(|e| RangeError::Model {
                    what: "Power System Extra Config XML",
                    detail: e.to_string(),
                })?;
                (SimDuration::from_millis(extra.interval_ms), extra.schedule)
            }
            None => (SimDuration::from_millis(100), SimulationSchedule::new()),
        };

        // --- 5. Virtual-IED specs (ICD feature gating) ---------------------
        let mut ieds: Vec<IedSpec> = Vec::new();
        if let Some(text) = &bundle.ied_config {
            let config = IedConfig::parse(text).map_err(|e| RangeError::Model {
                what: "IED Config XML",
                detail: e.to_string(),
            })?;
            for config_spec in &config.ieds {
                let icd = icds.iter().find(|d| d.ied(&config_spec.name).is_some());
                let spec = match icd {
                    Some(icd) => {
                        let compiled = compile_ied(config_spec, icd);
                        diagnostics.extend(compiled.diagnostics);
                        compiled.spec
                    }
                    None => {
                        diagnostics.push(Diagnostic::warning(
                            sgcr_scl::codes::ORPHAN_ICD,
                            format!(
                                "no ICD describes IED {:?}; instantiating from config alone",
                                config_spec.name
                            ),
                            "generate".to_string(),
                        ));
                        config_spec.clone()
                    }
                };
                if plan.host(&spec.name).is_none() {
                    return Err(RangeError::UnknownHost {
                        host: spec.name.clone(),
                        referenced_by: "IED Config XML",
                    });
                }
                ieds.push(spec);
            }
        }

        // --- 6. Virtual-PLC programs and bindings --------------------------
        let mut plcs: Vec<CompiledPlc> = Vec::new();
        if let Some(text) = &bundle.plc_config {
            let config = PlcConfig::parse(text).map_err(|e| RangeError::Model {
                what: "PLC Config XML",
                detail: e.to_string(),
            })?;
            for def in &config.plcs {
                if plan.host(&def.name).is_none() {
                    return Err(RangeError::UnknownHost {
                        host: def.name.clone(),
                        referenced_by: "PLC Config XML",
                    });
                }
                let program = match &def.logic {
                    PlcLogic::StructuredText(st) => {
                        sgcr_plc::parse_program(st).map_err(|e| RangeError::Model {
                            what: "PLC Structured Text",
                            detail: e.to_string(),
                        })?
                    }
                    PlcLogic::PlcOpenXml(xml) => {
                        sgcr_plc::parse_plcopen(xml).map_err(|e| RangeError::Model {
                            what: "PLCopen XML",
                            detail: e.to_string(),
                        })?
                    }
                };
                // Validate the program against the runtime once at compile
                // time, so instantiation cannot trip over it per tenant.
                let probe_registers = sgcr_modbus::SharedRegisters::with_size(1024);
                sgcr_plc::PlcRuntime::new(program.clone(), probe_registers).map_err(|e| {
                    RangeError::Model {
                        what: "PLC program",
                        detail: e.message,
                    }
                })?;
                let resolve_ip = |server: &str| -> Result<Ipv4Addr, RangeError> {
                    plan.host_ip(server).ok_or(RangeError::UnknownHost {
                        host: server.to_string(),
                        referenced_by: "PLC Config XML binding",
                    })
                };
                let reads = def
                    .reads
                    .iter()
                    .map(|r| {
                        Ok(MmsReadBinding {
                            server: resolve_ip(&r.server)?,
                            item: r.item.clone(),
                            variable: r.variable.clone(),
                            scale: r.scale,
                        })
                    })
                    .collect::<Result<Vec<_>, RangeError>>()?;
                let writes = def
                    .writes
                    .iter()
                    .map(|w| {
                        Ok(MmsWriteBinding {
                            server: resolve_ip(&w.server)?,
                            item: w.item.clone(),
                            variable: w.variable.clone(),
                        })
                    })
                    .collect::<Result<Vec<_>, RangeError>>()?;
                let gooses = def
                    .gooses
                    .iter()
                    .map(|g| GooseBinding {
                        gocb_ref: g.gocb_ref.clone(),
                        index: g.index,
                        variable: g.variable.clone(),
                    })
                    .collect();
                plcs.push(CompiledPlc {
                    name: def.name.clone(),
                    scan_ms: def.scan_ms,
                    program,
                    reads,
                    writes,
                    gooses,
                });
            }
        }

        // --- 7. SCADA HMI blueprint ----------------------------------------
        let mut scada = None;
        if let Some(text) = &bundle.scada_config {
            let config = ScadaConfig::parse(text).map_err(|e| RangeError::Model {
                what: "SCADA Config XML",
                detail: e.to_string(),
            })?;
            let host = bundle
                .scada_host
                .clone()
                .unwrap_or_else(|| "SCADA".to_string());
            if plan.host(&host).is_none() {
                return Err(RangeError::UnknownHost {
                    host,
                    referenced_by: "SCADA Config XML",
                });
            }
            scada = Some(CompiledScada { host, config });
        }

        Ok(CompiledModel {
            power,
            plan,
            schedule,
            interval,
            ieds,
            plcs,
            scada,
            diagnostics,
            fingerprint: bundle.fingerprint(),
        })
    }

    /// Compiles a bundle straight into an [`Arc`] handle — the form every
    /// multi-tenant consumer wants.
    ///
    /// # Errors
    ///
    /// See [`CompiledModel::compile`].
    pub fn shared(bundle: &SgmlBundle) -> Result<Arc<CompiledModel>, RangeError> {
        Ok(Arc::new(CompiledModel::compile(bundle)?))
    }

    /// The content fingerprint ([`SgmlBundle::fingerprint`]) of the bundle
    /// this model was compiled from. A [`Checkpoint`](crate::Checkpoint)
    /// records it and refuses to resume against a model whose fingerprint
    /// differs — any edit to any model file counts.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// One-line inventory of the compiled artifact.
    pub fn summary(&self) -> String {
        format!(
            "compiled model: {} hosts, {} switches | {} | {} IEDs, {} PLCs, SCADA: {} | interval {} ms",
            self.plan.hosts.len(),
            self.plan.switches.len(),
            self.power.summary(),
            self.ieds.len(),
            self.plcs.len(),
            self.scada.is_some(),
            self.interval.as_millis(),
        )
    }
}
