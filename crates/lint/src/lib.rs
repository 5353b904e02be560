//! # sgcr-lint
//!
//! Cross-file static analyzer for SG-ML bundles: loads every file of a bundle
//! (SCL models plus the SG-ML supplementary configs), runs a roster of
//! [`LintPass`]es over the combined model, and reports findings as coded,
//! span-carrying [`Diagnostic`]s — without generating the cyber range.
//!
//! The paper's pipeline validates a bundle by *building* it; that conflates
//! "is this model well-formed?" with "can this host run it?". This crate
//! answers the first question alone, so a model can be checked in CI, in an
//! editor, or before shipping it to a range host.
//!
//! ```no_run
//! use sgcr_lint::{lint_bundle, report::render_text, source::LoadedBundle};
//!
//! let bundle = LoadedBundle::from_dir("bundles/demo")?;
//! let report = lint_bundle(&bundle);
//! print!("{}", render_text(&report, &bundle));
//! std::process::exit(if report.has_errors() { 1 } else { 0 });
//! # Ok::<(), sgcr_lint::source::LoadError>(())
//! ```
//!
//! Every code is registered in [`sgcr_scl::codes`] and catalogued in
//! `docs/diagnostics.md`; `--format json` output round-trips through
//! [`json::from_json`].

pub mod engine;
pub mod json;
mod pass;
pub mod passes;
pub mod report;
pub mod sarif;
pub mod source;

pub use pass::LintPass;

use sgcr_scl::{Diagnostic, Severity};
use source::LoadedBundle;

/// The outcome of linting one bundle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LintReport {
    /// Every finding, ordered by file, line, then code.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Number of `Severity::Error` findings.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of `Severity::Warning` findings.
    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether any finding is an error (the bundle cannot be generated).
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The worst severity present, `None` for a clean report.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// All findings carrying the given code.
    pub fn with_code<'a>(&'a self, code: &'a str) -> impl Iterator<Item = &'a Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }
}

/// Runs the default pass roster over a loaded bundle.
///
/// The report starts from the diagnostics the loader already collected
/// (parse failures, intra-file SCL structure), then appends each pass's
/// findings, and finally orders everything by file, line, and code so output
/// is stable across pass-roster changes.
pub fn lint_bundle(bundle: &LoadedBundle) -> LintReport {
    let mut diagnostics = bundle.diagnostics.clone();
    for (_, pass) in pass::ROSTER {
        pass.run(bundle, &mut diagnostics);
    }
    sorted_report(diagnostics)
}

/// Final report assembly: the stable (file, position, code) ordering every
/// producer — the full roster and the incremental engine — must share.
pub(crate) fn sorted_report(mut diagnostics: Vec<Diagnostic>) -> LintReport {
    diagnostics.sort_by(|a, b| {
        let key = |d: &Diagnostic| {
            (
                d.span.as_ref().map(|s| s.file.clone()).unwrap_or_default(),
                d.span
                    .as_ref()
                    .map(|s| (s.line, s.column))
                    .unwrap_or((0, 0)),
                d.code,
            )
        };
        key(a).cmp(&key(b))
    });
    LintReport { diagnostics }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::source::FileRole;
    use sgcr_scl::codes;

    const CLEAN_SSD: &str = r#"<SCL xmlns="http://www.iec.ch/61850/2003/SCL">
  <Header id="demo"/>
  <Substation name="S1">
    <VoltageLevel name="VL1">
      <Voltage multiplier="k">110</Voltage>
      <Bay name="B1">
        <ConnectivityNode name="bus1" pathName="S1/VL1/B1/bus1"/>
        <ConductingEquipment name="GRID" type="IFL">
          <Terminal name="T1" connectivityNode="S1/VL1/B1/bus1"/>
        </ConductingEquipment>
        <ConductingEquipment name="LOAD1" type="LOD">
          <Terminal name="T1" connectivityNode="S1/VL1/B1/bus1"/>
        </ConductingEquipment>
      </Bay>
    </VoltageLevel>
  </Substation>
</SCL>"#;

    fn load(files: &[(&str, FileRole, &str)]) -> LoadedBundle {
        let mut bundle = LoadedBundle::default();
        for (name, role, text) in files {
            bundle.add_file(name.to_string(), *role, text.to_string());
        }
        bundle
    }

    #[test]
    fn clean_bundle_yields_no_findings() {
        let bundle = load(&[("s1.ssd.xml", FileRole::Ssd, CLEAN_SSD)]);
        let report = lint_bundle(&bundle);
        assert!(
            report.diagnostics.is_empty(),
            "unexpected findings: {:#?}",
            report.diagnostics
        );
    }

    #[test]
    fn generator_fed_island_is_clean() {
        // The solver promotes a generator to slack, so a generator-only
        // island (the EPIC microgrid shape) must not be flagged.
        let ssd = CLEAN_SSD.replace("type=\"IFL\"", "type=\"GEN\"");
        let bundle = load(&[("s1.ssd.xml", FileRole::Ssd, &ssd)]);
        let report = lint_bundle(&bundle);
        assert!(
            report.diagnostics.is_empty(),
            "unexpected findings: {:#?}",
            report.diagnostics
        );
    }

    #[test]
    fn island_without_infeed_is_an_error() {
        let ssd = CLEAN_SSD.replace("type=\"IFL\"", "type=\"BAT\"");
        let bundle = load(&[("s1.ssd.xml", FileRole::Ssd, &ssd)]);
        let report = lint_bundle(&bundle);
        assert!(report.has_errors());
        assert_eq!(report.with_code(codes::ISLAND_NO_SLACK).count(), 1);
        let finding = report
            .with_code(codes::ISLAND_NO_SLACK)
            .next()
            .expect("finding");
        let span = finding.span.as_ref().expect("span");
        assert_eq!(span.file, "s1.ssd.xml");
        assert!(span.line > 1, "island finding should carry a real line");
    }

    #[test]
    fn report_ordering_is_stable() {
        let ssd = CLEAN_SSD.replace("type=\"IFL\"", "type=\"BAT\"");
        let bundle = load(&[("s1.ssd.xml", FileRole::Ssd, &ssd)]);
        let a = lint_bundle(&bundle);
        let b = lint_bundle(&bundle);
        assert_eq!(a, b);
    }
}
