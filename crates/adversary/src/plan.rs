//! The seeded goal-driven campaign planner.
//!
//! Given a derived [`AttackGraph`] and a declared goal
//! (`breakerOpen:EPIC/CB_GEN`, `scadaAlarm:MicroVolt_pu`), the planner
//! searches the graph for a multi-stage campaign — scan → ARP MitM →
//! FCI/transform — that reaches the goal within an action budget, and
//! emits the chosen stages as a neutral [`CampaignPlan`] the exercise
//! engine converts into ordinary scenario stages.
//!
//! All choice points (victim among equivalent control paths, attacker
//! addresses, stage timing) draw from the SplitMix64 [`FaultRng`] seeded
//! by the scenario's `<Adversary seed=…>`, never from a wall clock or OS
//! RNG — the same seed replays the same campaign byte-identically, and
//! [`CampaignPlan::to_json`] is the byte-stable witness.

use crate::graph::{with_float, AlarmDir, AttackGraph, EdgeKind, HostRole, Node, PointAddr};
use sgcr_faults::FaultRng;
use sgcr_net::Ipv4Addr;
use sgcr_obs::json;
use std::collections::BTreeSet;
use std::fmt;

/// A parsed adversary goal (`<kind>:<target>`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Goal {
    /// Open a named power-model breaker (`breakerOpen:EPIC/CB_GEN`).
    BreakerOpen {
        /// Scoped switch name.
        switch: String,
    },
    /// Close a named power-model breaker.
    BreakerClosed {
        /// Scoped switch name.
        switch: String,
    },
    /// Raise a SCADA alarm on a named HMI point
    /// (`scadaAlarm:MicroVolt_pu`).
    ScadaAlarm {
        /// Alarmed point (tag) name.
        point: String,
    },
}

impl Goal {
    /// Parses the `goal=` attribute grammar.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::BadGoal`] when the text is not
    /// `breakerOpen:<switch>`, `breakerClosed:<switch>`, or
    /// `scadaAlarm:<point>`.
    pub fn parse(text: &str) -> Result<Goal, PlanError> {
        let bad = || PlanError::BadGoal {
            goal: text.to_string(),
        };
        let (kind, target) = text.split_once(':').ok_or_else(bad)?;
        if target.is_empty() {
            return Err(bad());
        }
        Ok(match kind {
            "breakerOpen" => Goal::BreakerOpen {
                switch: target.to_string(),
            },
            "breakerClosed" => Goal::BreakerClosed {
                switch: target.to_string(),
            },
            "scadaAlarm" => Goal::ScadaAlarm {
                point: target.to_string(),
            },
            _ => return Err(bad()),
        })
    }
}

impl fmt::Display for Goal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Goal::BreakerOpen { switch } => write!(f, "breakerOpen:{switch}"),
            Goal::BreakerClosed { switch } => write!(f, "breakerClosed:{switch}"),
            Goal::ScadaAlarm { point } => write!(f, "scadaAlarm:{point}"),
        }
    }
}

/// Why no campaign could be planned.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The goal text does not parse (`<kind>:<target>` grammar).
    BadGoal {
        /// The offending text.
        goal: String,
    },
    /// The goal's target names nothing in the derived attack graph.
    UnknownTarget {
        /// The goal as declared.
        goal: String,
        /// Targets of the right kind that *do* exist, for the message.
        known: Vec<String>,
    },
    /// The target exists but no attack-primitive path reaches it.
    Unreachable {
        /// The goal as declared.
        goal: String,
        /// Why the graph offers no path.
        reason: String,
    },
    /// A path exists but needs more actions than the declared budget.
    BudgetTooSmall {
        /// The goal as declared.
        goal: String,
        /// Minimum actions any path needs.
        needed: u32,
        /// The declared budget.
        budget: u32,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::BadGoal { goal } => write!(
                f,
                "goal {goal:?} does not parse; expected breakerOpen:<switch>, \
                 breakerClosed:<switch>, or scadaAlarm:<point>"
            ),
            PlanError::UnknownTarget { goal, known } => {
                write!(f, "goal {goal:?} names an unknown target")?;
                if !known.is_empty() {
                    write!(f, "; known: {}", known.join(", "))?;
                }
                Ok(())
            }
            PlanError::Unreachable { goal, reason } => {
                write!(f, "goal {goal:?} is unreachable: {reason}")
            }
            PlanError::BudgetTooSmall {
                goal,
                needed,
                budget,
            } => write!(
                f,
                "goal {goal:?} needs at least {needed} actions, budget is {budget}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// An attacker host the campaign adds to the range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedHost {
    /// Host name (`red-1`, `red-2`, …).
    pub name: String,
    /// Chosen IPv4 address on the target segment.
    pub ip: Ipv4Addr,
    /// Switch (segment) the host attaches to.
    pub switch: String,
}

/// When a planned step starts, mirroring scenario stage scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlannedStart {
    /// At an absolute exercise time (ms).
    At(u64),
    /// After another planned step completes, plus a delay.
    After {
        /// Id of the step waited on.
        step: String,
        /// Extra delay in ms.
        delay_ms: u64,
    },
}

/// The MitM payload transform a planned step applies.
#[derive(Debug, Clone, PartialEq)]
pub enum PlannedTransform {
    /// Forward unmodified (eavesdrop).
    PassThrough,
    /// Scale Modbus register values by a factor.
    ScaleModbusRegisters(f64),
    /// Scale floats inside MMS read responses by a factor.
    ScaleMmsFloats(f32),
}

/// One action of the planned campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum PlannedAction {
    /// ARP sweep + port scan of the target segment.
    Scan {
        /// Attacker host running the scanner.
        host: String,
        /// First swept address.
        first: Ipv4Addr,
        /// Last swept address (inclusive).
        last: Ipv4Addr,
        /// Probed TCP ports.
        ports: Vec<u16>,
    },
    /// ARP-spoofing man-in-the-middle between two victims.
    Mitm {
        /// Attacker host running the MitM.
        host: String,
        /// First victim host name.
        victim_a: String,
        /// Second victim host name.
        victim_b: String,
        /// Hold window in ms.
        duration_ms: u64,
        /// Payload transform while in position.
        transform: PlannedTransform,
    },
    /// False command injection against an MMS server.
    Fci {
        /// Attacker host running the injection.
        host: String,
        /// Victim host name.
        victim: String,
        /// MMS item written.
        item: String,
        /// Forged boolean value.
        value: bool,
    },
}

impl PlannedAction {
    /// The action kind name (matches scenario stage `kind=`).
    pub fn kind(&self) -> &'static str {
        match self {
            PlannedAction::Scan { .. } => "scan",
            PlannedAction::Mitm { .. } => "mitm",
            PlannedAction::Fci { .. } => "fci",
        }
    }

    /// The attacker host the action runs on.
    pub fn host(&self) -> &str {
        match self {
            PlannedAction::Scan { host, .. }
            | PlannedAction::Mitm { host, .. }
            | PlannedAction::Fci { host, .. } => host,
        }
    }

    /// The victim host names the action touches.
    pub fn victims(&self) -> Vec<&str> {
        match self {
            PlannedAction::Scan { .. } => Vec::new(),
            PlannedAction::Mitm {
                victim_a, victim_b, ..
            } => vec![victim_a, victim_b],
            PlannedAction::Fci { victim, .. } => vec![victim],
        }
    }
}

/// One scheduled step of the campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedStep {
    /// Unique step id (`adv-scan`, `adv-mitm`, `adv-strike`).
    pub id: String,
    /// When the step starts.
    pub start: PlannedStart,
    /// What the step does.
    pub action: PlannedAction,
}

/// The complete deterministic campaign a seed produces.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPlan {
    /// The goal as declared in the scenario.
    pub goal: Goal,
    /// The planner seed.
    pub seed: u64,
    /// The declared action budget.
    pub budget: u32,
    /// Attacker hosts to add before the exercise starts.
    pub hosts: Vec<PlannedHost>,
    /// Campaign steps in execution order.
    pub steps: Vec<PlannedStep>,
    /// Step id whose *start* anchors the goal objective's deadline.
    pub objective_after: String,
    /// Goal objective deadline, ms after the anchor step starts.
    pub objective_within_ms: u64,
}

impl CampaignPlan {
    /// The id the goal objective is registered under in the exercise.
    pub const OBJECTIVE_ID: &'static str = "adv-goal";

    /// Serializes the plan as deterministic JSON — the replay witness:
    /// same graph + same goal + same seed ⇒ byte-identical output.
    pub fn to_json(&self) -> String {
        json::object_string(1024, |o| {
            o.field("goal", format_args!("{}", self.goal))
                .field("seed", self.seed)
                .field("budget", self.budget);
            o.array("hosts", |hosts| {
                for host in &self.hosts {
                    hosts.object(|o| {
                        o.field("name", &host.name)
                            .field("ip", format_args!("{}", host.ip))
                            .field("switch", &host.switch);
                    });
                }
            });
            o.array("steps", |steps| {
                for step in &self.steps {
                    steps.object(|o| write_step(o, step));
                }
            });
            o.object("objective", |o| {
                o.field("id", Self::OBJECTIVE_ID)
                    .field("after", &self.objective_after)
                    .field("withinMs", self.objective_within_ms);
            });
        })
    }
}

/// The members of one planned step in [`CampaignPlan::to_json`].
fn write_step(o: &mut json::Object<'_>, step: &PlannedStep) {
    o.field("id", &step.id).field("kind", step.action.kind());
    match &step.start {
        PlannedStart::At(t) => o.field("t", t),
        PlannedStart::After { step, delay_ms } => o.field("after", step).field("delayMs", delay_ms),
    };
    match &step.action {
        PlannedAction::Scan {
            host,
            first,
            last,
            ports,
        } => {
            let ports: Vec<String> = ports.iter().map(u16::to_string).collect();
            o.field("host", host)
                .field("first", format_args!("{first}"))
                .field("last", format_args!("{last}"))
                .field("ports", ports.join(","))
        }
        PlannedAction::Mitm {
            host,
            victim_a,
            victim_b,
            duration_ms,
            transform,
        } => o
            .field("host", host)
            .field("victimA", victim_a)
            .field("victimB", victim_b)
            .field("durationMs", duration_ms)
            .field(
                "transform",
                match transform {
                    PlannedTransform::PassThrough => "passThrough".to_string(),
                    PlannedTransform::ScaleModbusRegisters(f) => {
                        with_float("scaleModbusRegisters:", *f)
                    }
                    PlannedTransform::ScaleMmsFloats(f) => {
                        with_float("scaleMmsFloats:", f64::from(*f))
                    }
                },
            ),
        PlannedAction::Fci {
            host,
            victim,
            item,
            value,
        } => o
            .field("host", host)
            .field("victim", victim)
            .field("item", item)
            .field("value", value),
    };
}

/// Inputs to [`plan`] beyond the graph itself.
#[derive(Debug, Clone, Default)]
pub struct PlanRequest<'a> {
    /// The declared goal text (`breakerOpen:EPIC/CB_GEN`).
    pub goal: &'a str,
    /// Maximum number of campaign actions.
    pub budget: u32,
    /// Planner seed (SplitMix64).
    pub seed: u64,
    /// Host names already taken (range hosts are read off the graph;
    /// these are *additional* reservations, e.g. manual `<Host>`s).
    pub reserved_names: &'a [String],
    /// IPv4 addresses already taken beyond the graph's hosts.
    pub reserved_ips: &'a [Ipv4Addr],
}

/// Minimum actions any campaign needs: a recon scan plus the strike.
const MIN_ACTIONS: u32 = 2;

/// How long a recon (pass-through) MitM holds its position.
const RECON_MITM_MS: u64 = 1200;

/// How long a transforming MitM holds its position — long enough for
/// several SCADA poll cycles to ingest the transformed values.
const TRANSFORM_MITM_MS: u64 = 4000;

/// Deadline slack granted to the goal objective beyond the strike itself.
const OBJECTIVE_SLACK_MS: u64 = 3000;

/// Plans a campaign over the derived graph.
///
/// Deterministic: every choice draws from the seeded [`FaultRng`] in a
/// fixed order, so the same `(graph, goal, budget, seed)` quadruple always
/// returns the same plan.
///
/// # Errors
///
/// Returns [`PlanError`] when the goal does not parse, names an unknown
/// target, is unreachable with the available attack primitives, or needs
/// more actions than the budget allows.
pub fn plan(graph: &AttackGraph, request: &PlanRequest<'_>) -> Result<CampaignPlan, PlanError> {
    let goal = Goal::parse(request.goal)?;
    let mut rng = FaultRng::new(request.seed);
    let mut ctx = Ctx::new(graph, request);

    // Draw order is part of the replay contract: t0 first, then per-goal
    // choices, then per-host addresses, then inter-step delays.
    let t0 = 200 + rng.below(4) * 100;

    let (hosts, steps) = match &goal {
        Goal::BreakerOpen { switch } => {
            breaker_campaign(&mut ctx, &mut rng, &goal, switch, false, t0)?
        }
        Goal::BreakerClosed { switch } => {
            breaker_campaign(&mut ctx, &mut rng, &goal, switch, true, t0)?
        }
        Goal::ScadaAlarm { point } => alarm_campaign(&mut ctx, &mut rng, &goal, point, t0)?,
    };

    let last = steps
        .last()
        .map(|s| s.id.clone())
        .unwrap_or_else(|| "adv-strike".to_string());
    let objective_within_ms = match &goal {
        Goal::ScadaAlarm { .. } => TRANSFORM_MITM_MS + OBJECTIVE_SLACK_MS,
        _ => OBJECTIVE_SLACK_MS,
    };
    Ok(CampaignPlan {
        goal,
        seed: request.seed,
        budget: request.budget,
        hosts,
        steps,
        objective_after: last,
        objective_within_ms,
    })
}

/// Shared planning context: budget plus name/address reservations over
/// the graph.
struct Ctx<'a> {
    graph: &'a AttackGraph,
    budget: u32,
    taken_names: BTreeSet<String>,
    taken_ips: BTreeSet<Ipv4Addr>,
}

impl<'a> Ctx<'a> {
    fn new(graph: &'a AttackGraph, request: &PlanRequest<'_>) -> Ctx<'a> {
        let mut taken_names: BTreeSet<String> = request.reserved_names.iter().cloned().collect();
        let mut taken_ips: BTreeSet<Ipv4Addr> = request.reserved_ips.iter().copied().collect();
        for node in &graph.nodes {
            if let Node::Host { name, ip, .. } = node {
                taken_names.insert(name.clone());
                taken_ips.insert(*ip);
            }
        }
        Ctx {
            graph,
            budget: request.budget,
            taken_names,
            taken_ips,
        }
    }

    /// The host node fields for a host name.
    fn host_info(&self, name: &str) -> Option<(Ipv4Addr, String)> {
        self.graph.nodes.iter().find_map(|n| match n {
            Node::Host {
                name: n,
                ip,
                switch,
                ..
            } if n == name => Some((*ip, switch.clone())),
            _ => None,
        })
    }

    /// IPs of all planned hosts on a segment, for the recon sweep range.
    fn segment_ips(&self, switch: &str) -> Vec<Ipv4Addr> {
        self.graph
            .nodes
            .iter()
            .filter_map(|n| match n {
                Node::Host { ip, switch: sw, .. } if sw == switch => Some(*ip),
                _ => None,
            })
            .collect()
    }

    /// Reserves a fresh attacker host on `switch`, seeding the address
    /// from the segment's subnet with an RNG-chosen high host octet.
    fn alloc_host(
        &mut self,
        rng: &mut FaultRng,
        switch: &str,
        segment_ip: Ipv4Addr,
    ) -> PlannedHost {
        let mut index = 1;
        let name = loop {
            let candidate = format!("red-{index}");
            if !self.taken_names.contains(&candidate) {
                break candidate;
            }
            index += 1;
        };
        self.taken_names.insert(name.clone());

        let octets = segment_ip.octets();
        #[allow(clippy::cast_possible_truncation)] // below(40) < 256
        let mut last = 200u8 + rng.below(40) as u8;
        let ip = loop {
            let candidate = Ipv4Addr::new(octets[0], octets[1], octets[2], last);
            if !self.taken_ips.contains(&candidate) {
                break candidate;
            }
            last = last.wrapping_add(1).max(2);
        };
        self.taken_ips.insert(ip);
        PlannedHost {
            name,
            ip,
            switch: switch.to_string(),
        }
    }
}

/// scan → (recon MitM) → forged-CSWI FCI against an IED controlling the
/// target breaker.
fn breaker_campaign(
    ctx: &mut Ctx<'_>,
    rng: &mut FaultRng,
    goal: &Goal,
    switch: &str,
    close: bool,
    t0: u64,
) -> Result<(Vec<PlannedHost>, Vec<PlannedStep>), PlanError> {
    let breaker_id = format!("breaker:{switch}");
    if ctx.graph.node(&breaker_id).is_none() {
        let known = ctx
            .graph
            .nodes
            .iter()
            .filter_map(|n| match n {
                Node::Breaker { name } => Some(name.clone()),
                _ => None,
            })
            .collect();
        return Err(PlanError::UnknownTarget {
            goal: goal.to_string(),
            known,
        });
    }

    // Control paths: IEDs exposing a CSWI operate item over the breaker.
    let controls: Vec<&crate::graph::Edge> = ctx
        .graph
        .edges_of(EdgeKind::BreakerControl)
        .filter(|e| e.to == breaker_id)
        .collect();
    if controls.is_empty() {
        return Err(PlanError::Unreachable {
            goal: goal.to_string(),
            reason: format!("no IED exposes operate control over {switch}"),
        });
    }
    let chosen = controls[usize::try_from(rng.below(controls.len() as u64)).unwrap_or(0)];
    let victim = chosen.from.trim_start_matches("host:").to_string();
    let item = chosen.via.clone().unwrap_or_default();
    let (victim_ip, victim_switch) =
        ctx.host_info(&victim)
            .ok_or_else(|| PlanError::Unreachable {
                goal: goal.to_string(),
                reason: format!("controlling IED {victim} is not on the network plan"),
            })?;

    // A recon MitM peer: someone who already talks MMS/GOOSE to the victim.
    let peer = ctx
        .graph
        .edges
        .iter()
        .find(|e| {
            matches!(e.kind, EdgeKind::MmsRead | EdgeKind::MmsWrite)
                && e.to == format!("host:{victim}")
        })
        .map(|e| e.from.trim_start_matches("host:").to_string());

    let include_mitm = ctx.budget_check(goal, peer.is_some())?;

    let mut hosts = Vec::new();
    let mut steps = Vec::new();

    // Recon sweep of the victim's segment.
    let segment_ips = ctx.segment_ips(&victim_switch);
    let first = segment_ips.iter().copied().min().unwrap_or(victim_ip);
    let last = segment_ips.iter().copied().max().unwrap_or(victim_ip);
    let scan_host = ctx.alloc_host(rng, &victim_switch, victim_ip);
    steps.push(PlannedStep {
        id: "adv-scan".to_string(),
        start: PlannedStart::At(t0),
        action: PlannedAction::Scan {
            host: scan_host.name.clone(),
            first,
            last,
            ports: vec![102, 502],
        },
    });
    hosts.push(scan_host);
    let mut prev = "adv-scan".to_string();

    if include_mitm {
        // Eavesdrop the victim's existing control traffic before striking.
        if let Some(peer) = peer {
            let mitm_host = ctx.alloc_host(rng, &victim_switch, victim_ip);
            let delay = 300 + rng.below(3) * 100;
            steps.push(PlannedStep {
                id: "adv-mitm".to_string(),
                start: PlannedStart::After {
                    step: prev,
                    delay_ms: delay,
                },
                action: PlannedAction::Mitm {
                    host: mitm_host.name.clone(),
                    victim_a: victim.clone(),
                    victim_b: peer,
                    duration_ms: RECON_MITM_MS,
                    transform: PlannedTransform::PassThrough,
                },
            });
            hosts.push(mitm_host);
            prev = "adv-mitm".to_string();
        }
    }

    let fci_host = ctx.alloc_host(rng, &victim_switch, victim_ip);
    let delay = 300 + rng.below(3) * 100;
    steps.push(PlannedStep {
        id: "adv-strike".to_string(),
        start: PlannedStart::After {
            step: prev,
            delay_ms: delay,
        },
        action: PlannedAction::Fci {
            host: fci_host.name.clone(),
            victim,
            item,
            value: close,
        },
    });
    hosts.push(fci_host);
    Ok((hosts, steps))
}

/// scan → transforming MitM between SCADA and the point's source, chosen
/// to push the displayed value across the alarm limit.
fn alarm_campaign(
    ctx: &mut Ctx<'_>,
    rng: &mut FaultRng,
    goal: &Goal,
    point: &str,
    t0: u64,
) -> Result<(Vec<PlannedHost>, Vec<PlannedStep>), PlanError> {
    let Some(Node::ScadaPoint {
        source,
        address,
        alarm,
        ..
    }) = ctx.graph.node(&format!("point:{point}")).cloned()
    else {
        let known = ctx
            .graph
            .nodes
            .iter()
            .filter_map(|n| match n {
                Node::ScadaPoint { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        return Err(PlanError::UnknownTarget {
            goal: goal.to_string(),
            known,
        });
    };

    let direction = match alarm {
        None => {
            return Err(PlanError::Unreachable {
                goal: goal.to_string(),
                reason: format!("no alarm rule watches point {point}"),
            })
        }
        Some(AlarmDir::BecomesTrue | AlarmDir::BecomesFalse) => {
            return Err(PlanError::Unreachable {
                goal: goal.to_string(),
                reason: format!(
                    "the alarm on {point} is edge-triggered by a protection/breaker \
                     state bit; no traffic transform can force it"
                ),
            })
        }
        Some(AlarmDir::High(_)) => true,
        Some(AlarmDir::Low(_)) => false,
    };
    // Push displayed values far across the limit in the alarmed direction.
    let transform = match &address {
        PointAddr::Modbus { kind, .. } => {
            if *kind != "holding" && *kind != "input" {
                return Err(PlanError::Unreachable {
                    goal: goal.to_string(),
                    reason: format!(
                        "point {point} is a {kind} bit; register transforms cannot move it"
                    ),
                });
            }
            PlannedTransform::ScaleModbusRegisters(if direction { 1000.0 } else { 0.0 })
        }
        PointAddr::Mms { .. } => {
            PlannedTransform::ScaleMmsFloats(if direction { 1000.0 } else { 0.0 })
        }
    };

    let scada = ctx
        .graph
        .nodes
        .iter()
        .find_map(|n| match n {
            Node::Host {
                name,
                role: HostRole::Scada,
                ..
            } => Some(name.clone()),
            _ => None,
        })
        .ok_or_else(|| PlanError::Unreachable {
            goal: goal.to_string(),
            reason: "the model has no SCADA host to deceive".to_string(),
        })?;
    let (scada_ip, scada_switch) = ctx
        .host_info(&scada)
        .ok_or_else(|| PlanError::Unreachable {
            goal: goal.to_string(),
            reason: format!("SCADA host {scada} is not on the network plan"),
        })?;

    ctx.budget_check(goal, false)?;

    let mut hosts = Vec::new();
    let mut steps = Vec::new();

    // Recon sweep of the SCADA segment (where the MitM will sit).
    let segment_ips = ctx.segment_ips(&scada_switch);
    let first = segment_ips.iter().copied().min().unwrap_or(scada_ip);
    let last = segment_ips.iter().copied().max().unwrap_or(scada_ip);
    let scan_host = ctx.alloc_host(rng, &scada_switch, scada_ip);
    steps.push(PlannedStep {
        id: "adv-scan".to_string(),
        start: PlannedStart::At(t0),
        action: PlannedAction::Scan {
            host: scan_host.name.clone(),
            first,
            last,
            ports: vec![102, 502],
        },
    });
    hosts.push(scan_host);

    let mitm_host = ctx.alloc_host(rng, &scada_switch, scada_ip);
    let delay = 300 + rng.below(3) * 100;
    steps.push(PlannedStep {
        id: "adv-strike".to_string(),
        start: PlannedStart::After {
            step: "adv-scan".to_string(),
            delay_ms: delay,
        },
        action: PlannedAction::Mitm {
            host: mitm_host.name.clone(),
            victim_a: scada,
            victim_b: source,
            duration_ms: TRANSFORM_MITM_MS,
            transform,
        },
    });
    hosts.push(mitm_host);
    Ok((hosts, steps))
}

impl Ctx<'_> {
    /// Enforces the action budget; returns whether an optional recon MitM
    /// step fits (three-action campaigns when the budget allows).
    fn budget_check(&self, goal: &Goal, mitm_available: bool) -> Result<bool, PlanError> {
        // Budget accounting is resolved before any per-step RNG draws so
        // tightening the budget never shifts the surviving steps' choices.
        let budget = self.budget;
        if budget < MIN_ACTIONS {
            return Err(PlanError::BudgetTooSmall {
                goal: goal.to_string(),
                needed: MIN_ACTIONS,
                budget,
            });
        }
        Ok(mitm_available && budget >= 3)
    }
}
