//! The scored after-action report: what the exercise produced, as plain
//! text for the terminal and as JSON (via [`sgcr_obs::json`]) for tooling.
//!
//! Reports are **byte-deterministic**: every field derives from simulation
//! time and declaration order — no wall clock, no hash-map iteration — so
//! running the same scenario on the same bundle twice yields identical
//! bytes. A failed objective is always *reported* as failed, never dropped.

use sgcr_obs::json;
use std::fmt::Write as _;

/// What happened to one stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageOutcome {
    /// Stage id from the scenario file.
    pub id: String,
    /// Stage kind (`power`, `fci`, `mitm`, `scan`, `link`).
    pub kind: &'static str,
    /// When the stage started, ms from exercise start (`None` = never ran).
    pub started_ms: Option<u64>,
    /// When the stage completed (`None` = still running at exercise end).
    pub ended_ms: Option<u64>,
    /// Free-form outcome detail (attack report summary, action applied, …).
    pub detail: String,
}

/// What happened to one objective. Every declared objective appears in the
/// report exactly once, resolved one way or the other.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveOutcome {
    /// Objective id from the scenario file.
    pub id: String,
    /// Human-readable statement of the objective.
    pub description: String,
    /// Whether the objective passed.
    pub passed: bool,
    /// When the objective resolved, ms from exercise start.
    pub resolved_at_ms: u64,
    /// Why it resolved the way it did.
    pub detail: String,
    /// Points at stake.
    pub points: u32,
    /// Points awarded (`points` on pass, 0 on fail).
    pub earned: u32,
}

/// The aggregate score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    /// Points earned across all objectives.
    pub earned: u32,
    /// Points at stake across all objectives.
    pub total: u32,
}

impl Score {
    /// Earned over total as a percentage (100.0 when nothing was at stake).
    pub fn percent(&self) -> f64 {
        if self.total == 0 {
            100.0
        } else {
            f64::from(self.earned) * 100.0 / f64::from(self.total)
        }
    }
}

/// The full after-action report of one exercise run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExerciseReport {
    /// Scenario name.
    pub scenario: String,
    /// Scenario description.
    pub description: String,
    /// Exercise length in ms.
    pub duration_ms: u64,
    /// Per-stage outcomes, in declaration order.
    pub stages: Vec<StageOutcome>,
    /// Per-objective outcomes, in declaration order.
    pub objectives: Vec<ObjectiveOutcome>,
}

impl ExerciseReport {
    /// The aggregate score over all objectives.
    pub fn score(&self) -> Score {
        Score {
            earned: self.objectives.iter().map(|o| o.earned).sum(),
            total: self.objectives.iter().map(|o| o.points).sum(),
        }
    }

    /// How many objectives passed.
    pub fn passed_count(&self) -> usize {
        self.objectives.iter().filter(|o| o.passed).count()
    }

    /// How many objectives failed.
    pub fn failed_count(&self) -> usize {
        self.objectives.len() - self.passed_count()
    }

    /// Serializes the report as a single deterministic JSON object.
    pub fn to_json(&self) -> String {
        json::object_string(1024, |o| {
            o.field("scenario", &self.scenario)
                .field("description", &self.description)
                .field("duration_ms", self.duration_ms);
            o.array("stages", |stages| {
                for stage in &self.stages {
                    stages.object(|o| {
                        o.field("id", &stage.id)
                            .field("kind", stage.kind)
                            .field("started_ms", stage.started_ms)
                            .field("ended_ms", stage.ended_ms)
                            .field("detail", &stage.detail);
                    });
                }
            });
            o.array("objectives", |objectives| {
                for objective in &self.objectives {
                    objectives.object(|o| {
                        o.field("id", &objective.id)
                            .field("description", &objective.description)
                            .field("passed", objective.passed)
                            .field("resolved_at_ms", objective.resolved_at_ms)
                            .field("detail", &objective.detail)
                            .field("points", objective.points)
                            .field("earned", objective.earned);
                    });
                }
            });
            let score = self.score();
            o.object("score", |o| {
                o.field("earned", score.earned)
                    .field("total", score.total)
                    .field("percent", score.percent());
            });
        })
    }

    /// Renders the report as terminal-friendly text.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = writeln!(out, "== After-action report: {} ==", self.scenario);
        if !self.description.is_empty() {
            let _ = writeln!(out, "{}", self.description);
        }
        let _ = writeln!(out, "exercise length: {} ms", self.duration_ms);
        let _ = writeln!(out, "\nstages:");
        for stage in &self.stages {
            let timing = match (stage.started_ms, stage.ended_ms) {
                (Some(s), Some(e)) => format!("t={s}..{e} ms"),
                (Some(s), None) => format!("t={s} ms.. (unfinished)"),
                _ => "never started".to_string(),
            };
            let _ = write!(out, "  [{:<5}] {:<16} {timing}", stage.kind, stage.id);
            if stage.detail.is_empty() {
                out.push('\n');
            } else {
                let _ = writeln!(out, " — {}", stage.detail);
            }
        }
        let _ = writeln!(out, "\nobjectives:");
        for objective in &self.objectives {
            let verdict = if objective.passed { "PASS" } else { "FAIL" };
            let _ = writeln!(
                out,
                "  [{verdict}] {:<16} {} (t={} ms, {}/{} pts) — {}",
                objective.id,
                objective.description,
                objective.resolved_at_ms,
                objective.earned,
                objective.points,
                objective.detail
            );
        }
        let score = self.score();
        let _ = writeln!(
            out,
            "\nscore: {}/{} points ({:.1}%) — {} passed, {} failed",
            score.earned,
            score.total,
            score.percent(),
            self.passed_count(),
            self.failed_count()
        );
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn sample() -> ExerciseReport {
        ExerciseReport {
            scenario: "demo".into(),
            description: "a \"demo\"".into(),
            duration_ms: 5000,
            stages: vec![StageOutcome {
                id: "strike".into(),
                kind: "fci",
                started_ms: Some(2000),
                ended_ms: Some(2400),
                detail: "command accepted".into(),
            }],
            objectives: vec![
                ObjectiveOutcome {
                    id: "open".into(),
                    description: "breaker opens".into(),
                    passed: true,
                    resolved_at_ms: 2500,
                    detail: "observed open".into(),
                    points: 2,
                    earned: 2,
                },
                ObjectiveOutcome {
                    id: "tight".into(),
                    description: "impossible".into(),
                    passed: false,
                    resolved_at_ms: 1,
                    detail: "deadline passed".into(),
                    points: 1,
                    earned: 0,
                },
            ],
        }
    }

    #[test]
    fn score_and_counts() {
        let report = sample();
        assert_eq!(
            report.score(),
            Score {
                earned: 2,
                total: 3
            }
        );
        assert_eq!(report.passed_count(), 1);
        assert_eq!(report.failed_count(), 1);
    }

    #[test]
    fn json_has_score_and_every_objective() {
        let json = sample().to_json();
        assert!(json.contains("\"score\":{\"earned\":2,\"total\":3"));
        assert!(json.contains("\"id\":\"tight\""));
        assert!(json.contains("\"passed\":false"));
        assert!(json.contains("\"resolved_at_ms\":2500"));
        // Escaping went through the shared helper.
        assert!(json.contains(r#""description":"a \"demo\"""#));
    }

    #[test]
    fn text_mentions_pass_and_fail() {
        let text = sample().to_text();
        assert!(text.contains("[PASS]"));
        assert!(text.contains("[FAIL]"));
        assert!(text.contains("score: 2/3"));
    }
}
