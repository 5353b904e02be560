//! The metric catalog and the result printer.

use crate::bench::Tally;
use sg_cyber_range::obs::json;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rtf", "sim-s/s"),
    ("step_p50_ms", "ms"),
    ("step_p99_ms", "ms"),
    ("relint_ms", "ms"),
    ("checkpoint_ms", "ms"),
    ("resume_ms", "ms"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scl.parse_ms", "ms"),
    ("compile.ms", "ms"),
    ("instantiate.ms", "ms"),
    ("lint.cold_ms", "ms"),
    ("lint.reuse_ratio", "count"),
    ("powerflow.solve_us", "us"),
    ("powerflow.nr_iterations", "count"),
    ("core.publish_us", "us"),
    ("kvstore.writes_per_step", "count"),
    ("plane.ied_us", "us"),
    ("plane.plc_us", "us"),
    ("plane.scada_us", "us"),
    ("plane.net_us", "us"),
    ("plane.power_us", "us"),
    ("net.frames_per_step", "count"),
    ("alloc.per_step", "count"),
    ("alloc.bytes_per_step", "count"),
    ("checkpoint.capture_us", "us"),
    ("checkpoint.json_bytes", "count"),
    ("checkpoint.resume_young_ms", "ms"),
    ("checkpoint.resume_old_ms", "ms"),
    ("checkpoint.resume_age_ratio", "x"),
    ("adversary.derive_us", "us"),
    ("adversary.plan_us", "us"),
    ("scenario.exercise_ms", "ms"),
    ("farm.ranges_per_s", "1/s"),
    ("farm.journal_bytes_per_step", "B/step"),
    ("obs.trace_overhead", "x"),
    ("obs.spans_per_step", "count"),
];

/// Per-layer counters that repeat exactly for a given seed.
pub const DETERMINISTIC: &[&str] = &[
    "powerflow.nr_iterations",
    "kvstore.writes_per_step",
    "net.frames_per_step",
    "alloc.per_step",
    "alloc.bytes_per_step",
    "checkpoint.json_bytes",
    "lint.reuse_ratio",
];

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// How many samples the value summarises.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            value,
            samples,
        }
    }
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("?", |(_, unit)| unit)
}

/// The human-readable table, one metric per line.
pub fn table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let tag = if DETERMINISTIC.contains(&m.name) {
            " [count: repeats exactly per seed]"
        } else {
            ""
        };
        out.push_str(&format!(
            "  {:<30} {:>14.6} {:<8} (n={}){tag}\n",
            m.name,
            m.value,
            unit_of(m.name),
            m.samples
        ));
    }
    out
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(metrics: &[Metric], tally: &Tally) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                json::number(m.value),
                json::quote(unit_of(m.name))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}
