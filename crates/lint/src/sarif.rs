//! SARIF 2.1.0 output for `--format sarif`, so CI systems (GitHub code
//! scanning, Azure DevOps, VS Code SARIF viewers) can ingest lint findings
//! natively.
//!
//! The emitter writes the minimal valid subset: one run, a driver with one
//! `reportingDescriptor` per distinct code (summary text from the
//! [`codes`] registry), and one `result` per diagnostic with a physical
//! location when the finding carries a span. Severities map
//! `Error → error`, `Warning → warning`, `Info → note`. Output is fully
//! deterministic: rules are sorted by code and results keep report order,
//! so golden-file tests can compare bytes.

use crate::LintReport;
use sgcr_obs::json;
use sgcr_scl::{codes, Diagnostic, Severity};
use std::collections::BTreeSet;

/// Serializes a report as a SARIF 2.1.0 log, in the shared
/// [`json::pretty`] layout.
pub fn to_sarif(report: &LintReport) -> String {
    let used: BTreeSet<&str> = report.diagnostics.iter().map(|d| d.code).collect();
    let capacity = 512 + report.diagnostics.len() * 256;
    json::pretty(&json::object_string(capacity, |o| {
        o.field("$schema", "https://json.schemastore.org/sarif-2.1.0.json")
            .field("version", "2.1.0");
        o.array("runs", |runs| {
            runs.object(|run| {
                run.object("tool", |tool| {
                    tool.object("driver", |driver| {
                        driver
                            .field("name", "sgcr-lint")
                            .field("version", env!("CARGO_PKG_VERSION"));
                        driver.array("rules", |rules| {
                            for code in &used {
                                let summary =
                                    codes::lookup(code).map(|c| c.summary).unwrap_or_default();
                                rules.object(|rule| {
                                    rule.field("id", code).object("shortDescription", |d| {
                                        d.field("text", summary);
                                    });
                                });
                            }
                        });
                    });
                });
                run.array("results", |results| {
                    for d in &report.diagnostics {
                        results.object(|result| write_result(result, d));
                    }
                });
            });
        });
    }))
}

/// The members of one SARIF `result`: rule, level, message, the context as
/// a property, and a physical location when the finding carries a span.
fn write_result(result: &mut json::Object<'_>, d: &Diagnostic) {
    let level = match d.severity {
        Severity::Error => "error",
        Severity::Warning => "warning",
        Severity::Info => "note",
    };
    result
        .field("ruleId", d.code)
        .field("level", level)
        .object("message", |m| {
            m.field("text", &d.message);
        });
    if !d.context.is_empty() {
        result.object("properties", |p| {
            p.field("context", &d.context);
        });
    }
    if let Some(span) = &d.span {
        result.array("locations", |locations| {
            locations.object(|location| {
                location.object("physicalLocation", |physical| {
                    physical
                        .object("artifactLocation", |artifact| {
                            artifact.field("uri", &span.file);
                        })
                        .object("region", |region| {
                            region
                                .field("startLine", span.line.max(1))
                                .field("startColumn", span.column.max(1));
                        });
                });
            });
        });
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use sgcr_scl::Span;

    #[test]
    fn sarif_structure_is_valid_json_with_rules_and_locations() {
        let report = LintReport {
            diagnostics: vec![
                Diagnostic::error(
                    codes::ST_DIVISION_BY_ZERO,
                    "division by a literal zero always faults",
                    "PLC CPLC",
                )
                .with_span(Span::new("plc_config.xml", 6, 10)),
                Diagnostic::warning(codes::ORPHAN_ICD, "orphan \"x\"", "ICD x.icd.xml"),
            ],
        };
        let sarif = to_sarif(&report);
        assert!(json::parse(&sarif).is_ok(), "{sarif}");
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("\"id\": \"SG0501\""));
        assert!(sarif.contains("\"id\": \"SG6013\""));
        assert!(sarif.contains("\"ruleId\": \"SG6013\", \"level\": \"error\""));
        assert!(sarif.contains("\"startLine\": 6, \"startColumn\": 10"));
        assert!(sarif.contains("orphan \\\"x\\\""));
        // Deterministic output.
        assert_eq!(sarif, to_sarif(&report));
    }

    #[test]
    fn empty_report_is_an_empty_run() {
        let sarif = to_sarif(&LintReport::default());
        assert!(sarif.contains("\"rules\": []"));
        assert!(sarif.contains("\"results\": []"));
    }
}
