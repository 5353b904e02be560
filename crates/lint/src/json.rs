//! JSON output for `--format json`, plus the decoder that round-trips it.
//!
//! Both directions go through the workspace's one JSON module: the emitter
//! builds with [`sgcr_obs::json::object`] and lays the text out with
//! [`sgcr_obs::json::pretty`], and the decoder reads through
//! [`sgcr_obs::json::parse`]. The schema is deliberately small:
//!
//! ```json
//! {
//!   "errors": 1,
//!   "warnings": 0,
//!   "diagnostics": [
//!     {"code": "SG0201", "severity": "error", "message": "...", "context": "...", "span": {"file": "s.scd.xml", "line": 14, "column": 7}}
//!   ]
//! }
//! ```
//!
//! `span` is omitted for findings with no source anchor. Parsing maps `code`
//! strings back through [`codes::lookup`], so only registered codes
//! round-trip — which is the point of having a registry.

use crate::LintReport;
use sgcr_obs::json::{self, parse, Value};
use sgcr_scl::{codes, Diagnostic, Severity, Span};

/// Serializes a report to JSON, in the shared [`json::pretty`] layout (one
/// diagnostic per line).
pub fn to_json(report: &LintReport) -> String {
    let capacity = 64 + report.diagnostics.len() * 160;
    json::pretty(&json::object_string(capacity, |o| {
        o.field("errors", report.error_count())
            .field("warnings", report.warning_count());
        o.array("diagnostics", |diagnostics| {
            for d in &report.diagnostics {
                diagnostics.object(|o| {
                    o.field("code", d.code)
                        .field("severity", d.severity.label())
                        .field("message", &d.message)
                        .field("context", &d.context);
                    if let Some(span) = &d.span {
                        o.object("span", |o| {
                            o.field("file", &span.file)
                                .field("line", span.line)
                                .field("column", span.column);
                        });
                    }
                });
            }
        });
    }))
}

/// An error while parsing report JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for JsonError {}

fn err(message: impl Into<String>) -> JsonError {
    JsonError {
        message: message.into(),
    }
}

/// Parses report JSON produced by [`to_json`] back into a [`LintReport`].
///
/// # Errors
///
/// Returns [`JsonError`] on malformed JSON, an unregistered diagnostic code,
/// or an unknown severity label.
pub fn from_json(text: &str) -> Result<LintReport, JsonError> {
    let root = parse(text).map_err(err)?;
    if !matches!(root, Value::Object(_)) {
        return Err(err("root is not an object"));
    }
    let list = root
        .get("diagnostics")
        .and_then(Value::as_array)
        .ok_or_else(|| err("missing \"diagnostics\" array"))?;

    let mut diagnostics = Vec::new();
    for item in list {
        if !matches!(item, Value::Object(_)) {
            return Err(err("diagnostic is not an object"));
        }
        let get_str = |key: &str| -> Result<&str, JsonError> {
            item.get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| err(format!("diagnostic missing string field {key:?}")))
        };
        let code_str = get_str("code")?;
        let code = codes::lookup(code_str)
            .ok_or_else(|| err(format!("unregistered diagnostic code {code_str:?}")))?
            .code;
        let severity = match get_str("severity")? {
            "error" => Severity::Error,
            "warning" => Severity::Warning,
            "info" => Severity::Info,
            other => return Err(err(format!("unknown severity {other:?}"))),
        };
        let mut diagnostic = Diagnostic::new(
            code,
            severity,
            get_str("message")?.to_string(),
            get_str("context")?.to_string(),
        );
        if let Some(span) = item.get("span") {
            if !matches!(span, Value::Object(_)) {
                return Err(err("span is not an object"));
            }
            let file = span
                .get("file")
                .and_then(Value::as_str)
                .ok_or_else(|| err("span missing file"))?;
            let line = span
                .get("line")
                .and_then(as_u32)
                .ok_or_else(|| err("span missing line"))?;
            let column = span
                .get("column")
                .and_then(as_u32)
                .ok_or_else(|| err("span missing column"))?;
            diagnostic = diagnostic.with_span(Span::new(file, line, column));
        }
        diagnostics.push(diagnostic);
    }
    Ok(LintReport { diagnostics })
}

/// A number that is an exact `u32` (line and column numbers).
fn as_u32(value: &Value) -> Option<u32> {
    value
        .as_f64()
        .filter(|n| *n >= 0.0 && n.fract() == 0.0 && *n <= f64::from(u32::MAX))
        .map(|n| n as u32)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips() {
        let report = LintReport {
            diagnostics: vec![
                Diagnostic::error(
                    codes::DUPLICATE_IP,
                    "IP \"10.0.1.5\" reused\nsecond line",
                    "SubNetwork bus",
                )
                .with_span(Span::new("s.scd.xml", 14, 7)),
                Diagnostic::warning(codes::ORPHAN_ICD, "orphan", "ICD x.icd.xml"),
            ],
        };
        let json = to_json(&report);
        let parsed = from_json(&json).expect("round trip");
        assert_eq!(parsed.diagnostics, report.diagnostics);
        assert_eq!(parsed.error_count(), 1);
        assert_eq!(parsed.warning_count(), 1);
    }

    #[test]
    fn empty_report_round_trips() {
        let report = LintReport {
            diagnostics: Vec::new(),
        };
        let parsed = from_json(&to_json(&report)).expect("round trip");
        assert!(parsed.diagnostics.is_empty());
    }

    #[test]
    fn unregistered_code_is_rejected() {
        let json = r#"{"diagnostics": [{"code": "SG9999", "severity": "error",
            "message": "m", "context": "c"}]}"#;
        assert!(from_json(json).is_err());
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(from_json("{").is_err());
        assert!(from_json("[]").is_err());
        assert!(from_json("{\"diagnostics\": 3}").is_err());
    }
}
