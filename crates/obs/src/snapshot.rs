//! Point-in-time exports of the metric registry: a structured snapshot with
//! text and JSON renderings.
//!
//! The JSON schema (documented in `docs/observability.md`):
//!
//! ```json
//! {
//!   "counters": {
//!     "net.frames_delivered": 123
//!   },
//!   "gauges": {
//!     "range.step_overrun_ratio": 0.02
//!   },
//!   "histograms": {
//!     "powerflow.solve_seconds": {"count": 20, "sum": 0.0042, "buckets": [{"le": 0.000001, "count": 0}, {"le": "+Inf", "count": 20}]}
//!   },
//!   "journal_dropped": 0,
//!   "spans_dropped": 0
//! }
//! ```
//!
//! Bucket counts are per-bucket (not cumulative); the `+Inf` bucket is
//! always present, so the bucket counts of a histogram sum to its `count`.

use crate::json;
use std::fmt::Write as _;

/// A snapshot of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// `(upper_bound, count)` per bucket; the last bound is `f64::INFINITY`.
    pub buckets: Vec<(f64, u64)>,
}

/// A point-in-time copy of every registered instrument, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: Vec<(String, u64)>,
    /// Gauge values.
    pub gauges: Vec<(String, f64)>,
    /// Histogram states.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Journal records evicted because the ring buffer was full.
    pub journal_dropped: u64,
    /// Spans evicted because the span buffer was full (0 unless tracing).
    pub spans_dropped: u64,
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Renders the snapshot as the documented JSON object, in the shared
    /// [`json::pretty`] layout.
    pub fn to_json(&self) -> String {
        json::pretty(&json::object_string(256, |o| {
            o.object("counters", |counters| {
                for (name, value) in &self.counters {
                    counters.field(name, value);
                }
            });
            o.object("gauges", |gauges| {
                for (name, value) in &self.gauges {
                    gauges.field(name, value);
                }
            });
            o.object("histograms", |histograms| {
                for (name, h) in &self.histograms {
                    histograms.object(name, |o| {
                        o.field("count", h.count).field("sum", h.sum);
                        o.array("buckets", |buckets| {
                            for (bound, count) in &h.buckets {
                                buckets.object(|b| {
                                    if bound.is_finite() {
                                        b.field("le", bound);
                                    } else {
                                        b.field("le", "+Inf");
                                    }
                                    b.field("count", count);
                                });
                            }
                        });
                    });
                }
            });
            o.field("journal_dropped", self.journal_dropped)
                .field("spans_dropped", self.spans_dropped);
        }))
    }

    /// Renders the snapshot as aligned human-readable text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.gauges.iter().map(|(n, _)| n.len()))
            .chain(self.histograms.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(0);
        for (name, value) in &self.counters {
            let _ = writeln!(out, "{name:width$}  {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "{name:width$}  {value:.6}");
        }
        for (name, h) in &self.histograms {
            let mean = if h.count > 0 {
                h.sum / h.count as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{name:width$}  count {}  sum {:.6}  mean {:.6}",
                h.count, h.sum, mean
            );
        }
        out
    }
}
