//! `sgcr-scenario` — declarative cross-plane exercise orchestration.
//!
//! The paper positions the cyber range as a platform for *cybersecurity
//! experiments and training* (§IV-B, §V), but hand-coding every exercise in
//! Rust does not scale to "as many scenarios as you can imagine". This crate
//! makes exercises **data**: a fourth SG-ML supplementary schema — the
//! *Exercise Scenario XML* (`*.scenario.xml`) — describes a multi-staged,
//! cross-plane exercise, and the engine here runs it against a generated
//! [`sgcr_core::CyberRange`] and scores the outcome.
//!
//! An exercise has three ingredient kinds:
//!
//! * **Stages** — timed or dependency-ordered actions on any plane: power
//!   disturbances (reusing the [`sgcr_powerflow::ScenarioAction`]
//!   vocabulary), cyber attacks (`fci`, `mitm`, `scan` mapped onto
//!   [`sgcr_attack`] apps attached to declared attacker hosts), and network
//!   degradation (link down/up, added latency).
//! * **Objectives** — declarative assertions with deadlines ("breaker opens
//!   within 500 ms of stage `strike`", "SCADA alarm raised", "bus voltage
//!   stays in band"), polled against live IED/SCADA/power-flow state after
//!   every co-simulation step.
//! * **A scored after-action report** — per-objective pass/fail with
//!   timestamps, per-stage timing, and a points total, as text and as JSON
//!   (via [`sgcr_obs::json`]). Reports are byte-deterministic: the same
//!   scenario on the same bundle produces the same bytes, run after run.
//!
//! Stage starts/ends and objective resolutions are journaled and traced
//! (`scenario.stage` / `scenario.objective` spans on the `Range` plane), so
//! a whole exercise can be inspected in the existing Perfetto export.
//!
//! ```no_run
//! use sgcr_scenario::{run_exercise, Scenario};
//!
//! let xml = std::fs::read_to_string("exercise01.scenario.xml")?;
//! let scenario = Scenario::parse(&xml)?;
//! let model = sgcr_core::CompiledModel::shared(&sgcr_models::epic_bundle())?;
//! let mut range = sgcr_core::CyberRange::instantiate(model)?;
//! let report = run_exercise(&mut range, &scenario)?;
//! println!("{}", report.to_text());
//! std::fs::write("report.json", report.to_json())?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod check;
pub mod engine;
pub mod report;
pub mod spec;

pub use check::{check, Targets};
pub use engine::{run_exercise, ExerciseError};
pub use report::{ExerciseReport, ObjectiveOutcome, Score, StageOutcome};
pub use sgcr_powerflow::ScenarioAction;
pub use spec::{
    Adversary, AttackerHost, Check, LinkEffect, Objective, Pos, Scenario, ScenarioError, Stage,
    StageAction, StageStart, TransformSpec,
};
