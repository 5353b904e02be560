//! The event journal: a bounded ring buffer of typed simulation events.
//!
//! Unlike the metric registry (aggregates), the journal keeps *individual*
//! occurrences — which packet was dropped, which relay tripped when — so an
//! experiment can be reconstructed after the fact. The buffer is bounded:
//! when full, the oldest records are evicted and counted in
//! [`crate::Telemetry::events_dropped`].

use crate::json;
use parking_lot::Mutex;
use std::collections::VecDeque;

/// A typed simulation event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A host handed a frame to its link.
    PacketSent {
        /// Sending host name.
        host: String,
        /// Frame length on the wire, in bytes.
        bytes: u64,
    },
    /// A frame arrived at the host it was addressed to.
    PacketDelivered {
        /// Receiving host name.
        host: String,
        /// Frame length on the wire, in bytes.
        bytes: u64,
    },
    /// A frame was discarded before delivery.
    PacketDropped {
        /// Host that attempted the send.
        host: String,
        /// Frame length on the wire, in bytes.
        bytes: u64,
        /// Why it was dropped (`link-down`, `no-link`).
        reason: String,
    },
    /// A power-flow solve finished successfully.
    SolveCompleted {
        /// Newton–Raphson iterations used.
        iters: u64,
        /// Wall-clock solve time in seconds.
        seconds: f64,
    },
    /// A power-flow solve failed; the range keeps running on stale state.
    SolveFailed {
        /// The solver error text.
        detail: String,
    },
    /// A protection element operated and tripped its breaker.
    ProtectionTrip {
        /// The IED that tripped.
        ied: String,
        /// LN and breaker detail.
        detail: String,
    },
    /// An MMS control was executed by an IED.
    ControlExecuted {
        /// The IED executing the control.
        ied: String,
        /// Command detail.
        detail: String,
    },
    /// An MMS control was rejected (e.g. interlock).
    ControlRejected {
        /// The IED rejecting the control.
        ied: String,
        /// Rejection detail.
        detail: String,
    },
    /// An IED published a GOOSE message.
    GooseSent {
        /// The publishing IED.
        ied: String,
    },
    /// The SCADA HMI raised an alarm.
    ScadaAlarm {
        /// The alarmed point.
        point: String,
        /// Alarm message.
        message: String,
    },
    /// The SCADA HMI cleared an alarm.
    ScadaAlarmCleared {
        /// The cleared point.
        point: String,
        /// Alarm message.
        message: String,
    },
    /// An operator command left the SCADA HMI.
    ScadaCommand {
        /// Target tag.
        tag: String,
        /// Commanded value.
        value: f64,
    },
    /// A PLC issued an MMS control towards an IED.
    PlcControl {
        /// The PLC variable that changed.
        variable: String,
        /// The commanded boolean.
        value: bool,
    },
    /// A co-simulation step took longer than its real-time budget.
    StepOverrun {
        /// Step ordinal.
        step: u64,
        /// Wall time over interval (1.0 = exactly on budget).
        ratio: f64,
    },
    /// An exercise scenario stage began executing.
    StageStarted {
        /// Stage id from the scenario file.
        stage: String,
    },
    /// An exercise scenario stage finished executing.
    StageEnded {
        /// Stage id from the scenario file.
        stage: String,
    },
    /// An exercise objective was resolved (pass or fail).
    ObjectiveResolved {
        /// Objective id from the scenario file.
        objective: String,
        /// Whether the objective passed.
        passed: bool,
    },
    /// The adversary planner produced a campaign for a declared goal.
    AdversaryPlanned {
        /// The declared goal (`breakerOpen:EPIC/CB_GEN`).
        goal: String,
        /// The planner seed.
        seed: u64,
        /// Number of campaign stages planned.
        stages: u64,
    },
    /// A planner-emitted campaign stage began executing.
    AdversaryActionStarted {
        /// Planned stage id (`adv-scan`, `adv-mitm`, `adv-strike`).
        stage: String,
    },
    /// The adversary's goal objective passed — the campaign reached its
    /// declared goal.
    AdversaryGoalReached {
        /// The goal objective's id.
        objective: String,
    },
    /// A fault was injected (or cleared) on a range element.
    FaultInjected {
        /// The link, host, or IED the fault applies to.
        target: String,
        /// Human description of the fault profile (`loss=30% jitter<=5ms`,
        /// `stuck`, `clear`, …).
        detail: String,
    },
    /// A simulated device (IED/PLC host) crashed and went silent.
    DeviceCrashed {
        /// The crashed host.
        host: String,
    },
    /// A crashed device came back after its restart delay.
    DeviceRestarted {
        /// The restarted host.
        host: String,
    },
    /// The power flow failed to converge; the range is serving the
    /// last-good solution and has flipped measurement quality to invalid.
    MeasurementsHeld {
        /// The solver error that triggered the hold.
        detail: String,
    },
    /// The power flow converged again after one or more held steps;
    /// measurement quality is good again.
    MeasurementsRecovered {
        /// How many consecutive steps served the held solution.
        held_steps: u64,
    },
    /// A SCADA tag stopped updating within the stale window; its quality
    /// degraded to `old`.
    TagStale {
        /// The stale tag.
        tag: String,
        /// Milliseconds since the last update when staleness was declared.
        age_ms: u64,
    },
    /// A GOOSE subscription's time-allowed-to-live expired; the subscriber
    /// stopped trusting the last frame.
    GooseExpired {
        /// The subscribing IED.
        ied: String,
        /// The silent publisher.
        publisher: String,
    },
    /// A range farm began a batch run.
    FarmStarted {
        /// Tenants requested.
        tenants: u64,
        /// Worker threads in the pool.
        threads: u64,
        /// Simulated seconds each tenant will run.
        sim_seconds: u64,
    },
    /// A range farm finished its batch run.
    FarmFinished {
        /// Tenants that completed their full simulation.
        tenants_completed: u64,
        /// Tenants halted early by the step-budget overrun limit.
        tenants_halted: u64,
        /// Tenants that failed outright.
        tenants_failed: u64,
    },
    /// The farm supervisor captured a mid-run checkpoint of a tenant.
    TenantCheckpointed {
        /// The checkpointed tenant's index.
        tenant: u64,
        /// Co-simulation steps the tenant had executed at capture.
        steps: u64,
    },
    /// The farm supervisor restarted a halted/crashed tenant from its last
    /// checkpoint.
    TenantRestarted {
        /// The restarted tenant's index.
        tenant: u64,
        /// Restart count for this tenant, including this one.
        restarts: u64,
        /// Steps recovered from the checkpoint (0: restarted from scratch).
        from_steps: u64,
    },
    /// The farm supervisor's circuit breaker opened: the tenant exhausted
    /// its restart budget and will not be retried.
    TenantGivenUp {
        /// The abandoned tenant's index.
        tenant: u64,
        /// How many restarts were attempted before giving up.
        restarts: u64,
    },
    /// An event from outside the built-in instrumentation.
    Custom {
        /// Event name.
        name: String,
        /// Free-form detail.
        detail: String,
    },
}

impl Event {
    /// The event's type tag, as emitted in the JSON journal.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::PacketSent { .. } => "PacketSent",
            Event::PacketDelivered { .. } => "PacketDelivered",
            Event::PacketDropped { .. } => "PacketDropped",
            Event::SolveCompleted { .. } => "SolveCompleted",
            Event::SolveFailed { .. } => "SolveFailed",
            Event::ProtectionTrip { .. } => "ProtectionTrip",
            Event::ControlExecuted { .. } => "ControlExecuted",
            Event::ControlRejected { .. } => "ControlRejected",
            Event::GooseSent { .. } => "GooseSent",
            Event::ScadaAlarm { .. } => "ScadaAlarm",
            Event::ScadaAlarmCleared { .. } => "ScadaAlarmCleared",
            Event::ScadaCommand { .. } => "ScadaCommand",
            Event::PlcControl { .. } => "PlcControl",
            Event::StepOverrun { .. } => "StepOverrun",
            Event::StageStarted { .. } => "StageStarted",
            Event::StageEnded { .. } => "StageEnded",
            Event::ObjectiveResolved { .. } => "ObjectiveResolved",
            Event::AdversaryPlanned { .. } => "AdversaryPlanned",
            Event::AdversaryActionStarted { .. } => "AdversaryActionStarted",
            Event::AdversaryGoalReached { .. } => "AdversaryGoalReached",
            Event::FaultInjected { .. } => "FaultInjected",
            Event::DeviceCrashed { .. } => "DeviceCrashed",
            Event::DeviceRestarted { .. } => "DeviceRestarted",
            Event::MeasurementsHeld { .. } => "MeasurementsHeld",
            Event::MeasurementsRecovered { .. } => "MeasurementsRecovered",
            Event::TagStale { .. } => "TagStale",
            Event::GooseExpired { .. } => "GooseExpired",
            Event::FarmStarted { .. } => "FarmStarted",
            Event::FarmFinished { .. } => "FarmFinished",
            Event::TenantCheckpointed { .. } => "TenantCheckpointed",
            Event::TenantRestarted { .. } => "TenantRestarted",
            Event::TenantGivenUp { .. } => "TenantGivenUp",
            Event::Custom { .. } => "Custom",
        }
    }
}

/// One journal entry: an [`Event`] stamped with simulation time and a
/// monotonic sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Sequence number (monotonic across the journal's lifetime, including
    /// evicted records).
    pub seq: u64,
    /// Simulation time in nanoseconds.
    pub t_ns: u64,
    /// The event.
    pub event: Event,
}

impl EventRecord {
    /// Serializes the record as one JSON object (one JSONL journal line).
    pub fn to_json(&self) -> String {
        json::object_string(96, |o| {
            o.field("seq", self.seq)
                .field("t_ns", self.t_ns)
                .field("type", self.event.kind());
            match &self.event {
                Event::PacketSent { host, bytes } | Event::PacketDelivered { host, bytes } => {
                    o.field("host", host).field("bytes", bytes)
                }
                Event::PacketDropped {
                    host,
                    bytes,
                    reason,
                } => o
                    .field("host", host)
                    .field("bytes", bytes)
                    .field("reason", reason),
                Event::SolveCompleted { iters, seconds } => {
                    o.field("iters", iters).field("seconds", seconds)
                }
                Event::SolveFailed { detail } | Event::MeasurementsHeld { detail } => {
                    o.field("detail", detail)
                }
                Event::ProtectionTrip { ied, detail }
                | Event::ControlExecuted { ied, detail }
                | Event::ControlRejected { ied, detail } => {
                    o.field("ied", ied).field("detail", detail)
                }
                Event::GooseSent { ied } => o.field("ied", ied),
                Event::ScadaAlarm { point, message }
                | Event::ScadaAlarmCleared { point, message } => {
                    o.field("point", point).field("message", message)
                }
                Event::ScadaCommand { tag, value } => o.field("tag", tag).field("value", value),
                Event::PlcControl { variable, value } => {
                    o.field("variable", variable).field("value", value)
                }
                Event::StepOverrun { step, ratio } => o.field("step", step).field("ratio", ratio),
                Event::StageStarted { stage }
                | Event::StageEnded { stage }
                | Event::AdversaryActionStarted { stage } => o.field("stage", stage),
                Event::ObjectiveResolved { objective, passed } => {
                    o.field("objective", objective).field("passed", passed)
                }
                Event::AdversaryPlanned { goal, seed, stages } => o
                    .field("goal", goal)
                    .field("seed", seed)
                    .field("stages", stages),
                Event::AdversaryGoalReached { objective } => o.field("objective", objective),
                Event::FaultInjected { target, detail } => {
                    o.field("target", target).field("detail", detail)
                }
                Event::DeviceCrashed { host } | Event::DeviceRestarted { host } => {
                    o.field("host", host)
                }
                Event::MeasurementsRecovered { held_steps } => o.field("held_steps", held_steps),
                Event::TagStale { tag, age_ms } => o.field("tag", tag).field("age_ms", age_ms),
                Event::GooseExpired { ied, publisher } => {
                    o.field("ied", ied).field("publisher", publisher)
                }
                Event::FarmStarted {
                    tenants,
                    threads,
                    sim_seconds,
                } => o
                    .field("tenants", tenants)
                    .field("threads", threads)
                    .field("sim_seconds", sim_seconds),
                Event::FarmFinished {
                    tenants_completed,
                    tenants_halted,
                    tenants_failed,
                } => o
                    .field("tenants_completed", tenants_completed)
                    .field("tenants_halted", tenants_halted)
                    .field("tenants_failed", tenants_failed),
                Event::TenantCheckpointed { tenant, steps } => {
                    o.field("tenant", tenant).field("steps", steps)
                }
                Event::TenantRestarted {
                    tenant,
                    restarts,
                    from_steps,
                } => o
                    .field("tenant", tenant)
                    .field("restarts", restarts)
                    .field("from_steps", from_steps),
                Event::TenantGivenUp { tenant, restarts } => {
                    o.field("tenant", tenant).field("restarts", restarts)
                }
                Event::Custom { name, detail } => o.field("name", name).field("detail", detail),
            };
        })
    }
}

#[derive(Debug, Default)]
struct JournalState {
    events: VecDeque<EventRecord>,
    next_seq: u64,
    dropped: u64,
}

/// The bounded ring buffer behind an enabled [`crate::Telemetry`].
#[derive(Debug)]
pub(crate) struct Journal {
    capacity: usize,
    state: Mutex<JournalState>,
}

impl Journal {
    pub(crate) fn new(capacity: usize) -> Journal {
        Journal {
            capacity: capacity.max(1),
            state: Mutex::new(JournalState::default()),
        }
    }

    pub(crate) fn push(&self, t_ns: u64, event: Event) {
        let mut state = self.state.lock();
        let seq = state.next_seq;
        state.next_seq += 1;
        if state.events.len() == self.capacity {
            state.events.pop_front();
            state.dropped += 1;
        }
        state.events.push_back(EventRecord { seq, t_ns, event });
    }

    pub(crate) fn snapshot(&self) -> Vec<EventRecord> {
        self.state.lock().events.iter().cloned().collect()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.state.lock().dropped
    }
}
