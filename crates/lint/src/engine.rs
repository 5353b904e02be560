//! The incremental query engine behind `sgml_processor lint --cache`.
//!
//! [`crate::lint_bundle`] reparses and reanalyzes the whole bundle on every
//! run. This module restructures the same work as memoized *queries* keyed
//! on content fingerprints:
//!
//! * one **per-file query** per model file — the loader's parse/structure
//!   diagnostics for that file, plus (for `plc_config.xml`) the semantic ST
//!   analysis, all of which depend on that file's bytes alone;
//! * one **cross-file query** — every pass that looks across files (xref,
//!   addressing, topology, protection, hygiene, scenarios, SCADA↔PLC
//!   bindings), keyed on the fingerprint of the entire file set.
//!
//! Query results are `Vec<Diagnostic>` stored as JSON, one file per query,
//! under a caller-supplied cache directory. On a warm run with one edited
//! file, only that file's query and the cross-file query recompute; the
//! final report is assembled from per-query results and is byte-identical
//! to what [`crate::lint_bundle`] produces — the differential test in the
//! crate enforces that equivalence.
//!
//! Timestamps are ignored on purpose: keys hash `(engine version, file
//! name, file bytes)`, so `touch` changes nothing and a revert restores the
//! cached result.

use crate::pass::{Scope, ROSTER};
use crate::source::{role_of, FileRole, LoadError, LoadedBundle, SourceFile};
use crate::{json, LintReport};
use sgcr_core::Fingerprint;
use sgcr_scl::Diagnostic;
use std::fs;
use std::path::{Path, PathBuf};

/// Cache-effectiveness counters for one engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Queries answered from the on-disk cache.
    pub reused: usize,
    /// Queries that had to run.
    pub recomputed: usize,
}

impl EngineStats {
    /// Total queries the run needed.
    pub fn total(&self) -> usize {
        self.reused + self.recomputed
    }
}

/// The outcome of an incremental lint: the report (identical to
/// [`crate::lint_bundle`] on the same inputs), the sources (for snippet
/// rendering), and the cache counters.
#[derive(Debug)]
pub struct IncrementalOutcome {
    /// The assembled report.
    pub report: LintReport,
    /// A sources-only bundle for [`crate::report::render_text`].
    pub bundle: LoadedBundle,
    /// Reused/recomputed counters.
    pub stats: EngineStats,
}

/// Salt mixed into every query key so a new engine (new passes, changed
/// semantics) never reads results written by an old one.
const ENGINE_VERSION: &str = concat!("sgcr-lint-engine-v2/", env!("CARGO_PKG_VERSION"));

/// Lints a bundle directory through the query cache at `cache_dir`
/// (created on demand).
///
/// # Errors
///
/// Returns [`LoadError`] on I/O failures or when the directory holds no SCL
/// model files — the same contract as [`LoadedBundle::from_dir`]. Cache
/// read problems are never errors: an unreadable or corrupt entry just
/// recomputes.
pub fn lint_dir_incremental(
    dir: impl AsRef<Path>,
    cache_dir: impl AsRef<Path>,
) -> Result<IncrementalOutcome, LoadError> {
    let dir = dir.as_ref();
    let cache_dir = cache_dir.as_ref();
    let _ = fs::create_dir_all(cache_dir);

    // Enumerate model files exactly like LoadedBundle::from_dir.
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| LoadError {
            message: format!("reading {}: {e}", dir.display()),
        })?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    paths.sort();

    let mut sources: Vec<SourceFile> = Vec::new();
    for path in paths {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(role) = role_of(name) else {
            continue;
        };
        let text = fs::read_to_string(&path).map_err(|e| LoadError {
            message: format!("reading {}: {e}", path.display()),
        })?;
        sources.push(SourceFile {
            name: name.to_string(),
            role,
            text,
        });
    }
    if !sources
        .iter()
        .any(|f| matches!(f.role, FileRole::Ssd | FileRole::Scd))
    {
        return Err(LoadError {
            message: format!(
                "{} contains no SCL model files (*.ssd.xml / *.scd.xml)",
                dir.display()
            ),
        });
    }

    let mut stats = EngineStats::default();
    let mut diagnostics: Vec<Diagnostic> = Vec::new();

    // Per-file queries.
    let mut file_keys = Vec::with_capacity(sources.len());
    for file in &sources {
        let key = file_query_key(file);
        file_keys.push(key);
        let cached = read_cached(cache_dir, key);
        let result = match cached {
            Some(diags) => {
                stats.reused += 1;
                diags
            }
            None => {
                let diags = run_file_query(file);
                stats.recomputed += 1;
                write_cached(cache_dir, key, &diags);
                diags
            }
        };
        diagnostics.extend(result);
    }

    // Cross-file query, keyed on the whole file set.
    let cross_key = {
        let mut fp = Fingerprint::new();
        fp.update(ENGINE_VERSION.as_bytes());
        fp.update(b"cross");
        for key in &file_keys {
            fp.update(&key.to_le_bytes());
        }
        fp.finish()
    };
    match read_cached(cache_dir, cross_key) {
        Some(diags) => {
            stats.reused += 1;
            diagnostics.extend(diags);
        }
        None => {
            let full = build_bundle(&sources);
            let mut diags = Vec::new();
            for (_, pass) in ROSTER.iter().filter(|(scope, _)| *scope == Scope::Bundle) {
                pass.run(&full, &mut diags);
            }
            stats.recomputed += 1;
            write_cached(cache_dir, cross_key, &diags);
            diagnostics.extend(diags);
        }
    }

    // Same final ordering as lint_bundle.
    let report = crate::sorted_report(diagnostics);
    // Snippet rendering needs raw text only, so skip reparsing: hand the
    // renderer a sources-only bundle.
    let bundle = LoadedBundle {
        files: sources,
        scada_host: "SCADA".to_string(),
        ..LoadedBundle::default()
    };
    Ok(IncrementalOutcome {
        report,
        bundle,
        stats,
    })
}

/// Runs the per-file portion of the roster for one file: the loader's
/// parse/structure diagnostics plus every pass scoped to that file's role.
fn run_file_query(file: &SourceFile) -> Vec<Diagnostic> {
    let mut mini = LoadedBundle::default();
    mini.add_file(file.name.clone(), file.role, file.text.clone());
    let mut diags = std::mem::take(&mut mini.diagnostics);
    for (_, pass) in ROSTER
        .iter()
        .filter(|(scope, _)| *scope == Scope::File(file.role))
    {
        pass.run(&mini, &mut diags);
    }
    diags
}

fn build_bundle(sources: &[SourceFile]) -> LoadedBundle {
    let mut bundle = LoadedBundle {
        scada_host: "SCADA".to_string(),
        ..LoadedBundle::default()
    };
    for file in sources {
        bundle.add_file(file.name.clone(), file.role, file.text.clone());
    }
    bundle
}

fn file_query_key(file: &SourceFile) -> u64 {
    let mut fp = Fingerprint::new();
    fp.update(ENGINE_VERSION.as_bytes());
    fp.update(b"file");
    fp.update(file.name.as_bytes());
    fp.update(file.text.as_bytes());
    fp.finish()
}

fn cache_path(cache_dir: &Path, key: u64) -> PathBuf {
    cache_dir.join(format!("{key:016x}.json"))
}

/// Reads one cached query result; any problem (missing, unreadable,
/// malformed, unregistered code) falls back to recomputing.
fn read_cached(cache_dir: &Path, key: u64) -> Option<Vec<Diagnostic>> {
    let text = fs::read_to_string(cache_path(cache_dir, key)).ok()?;
    json::from_json(&text).ok().map(|r| r.diagnostics)
}

fn write_cached(cache_dir: &Path, key: u64, diags: &[Diagnostic]) {
    let report = LintReport {
        diagnostics: diags.to_vec(),
    };
    // Cache writes are best-effort: a read-only cache just disables reuse.
    let _ = fs::write(cache_path(cache_dir, key), json::to_json(&report));
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::lint_bundle;

    const SSD: &str = r#"<SCL xmlns="http://www.iec.ch/61850/2003/SCL">
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

    const PLC: &str = r#"<PLCConfig>
  <PLC name="CPLC">
    <Logic type="st"><![CDATA[
PROGRAM p
VAR x : INT; y : INT; END_VAR
y := x / 0;
END_PROGRAM
]]></Logic>
  </PLC>
</PLCConfig>"#;

    fn write_bundle(dir: &Path) {
        fs::create_dir_all(dir).unwrap();
        fs::write(dir.join("s1.ssd.xml"), SSD).unwrap();
        fs::write(dir.join("plc_config.xml"), PLC).unwrap();
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sgcr-lint-engine-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn incremental_report_matches_lint_bundle_and_reuses_queries() {
        let dir = temp_dir("match");
        let cache = dir.join("cache");
        write_bundle(&dir);

        let cold = lint_dir_incremental(&dir, &cache).unwrap();
        assert_eq!(cold.stats.reused, 0);
        assert_eq!(cold.stats.recomputed, 3); // 2 files + cross

        let full = lint_bundle(&LoadedBundle::from_dir(&dir).unwrap());
        assert_eq!(cold.report, full, "incremental must equal full lint");
        assert!(cold.report.has_errors(), "fixture divides by zero");

        // Warm run: everything reused, identical bytes out.
        let warm = lint_dir_incremental(&dir, &cache).unwrap();
        assert_eq!(warm.stats.reused, 3);
        assert_eq!(warm.stats.recomputed, 0);
        assert_eq!(
            json::to_json(&warm.report),
            json::to_json(&cold.report),
            "warm report must be byte-identical"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn editing_one_file_recomputes_only_its_queries() {
        let dir = temp_dir("edit");
        let cache = dir.join("cache");
        write_bundle(&dir);
        let _ = lint_dir_incremental(&dir, &cache).unwrap();

        // Fix the PLC logic; the SSD query must be served from cache.
        fs::write(
            dir.join("plc_config.xml"),
            PLC.replace("y := x / 0;", "y := x / 2;"),
        )
        .unwrap();
        let edited = lint_dir_incremental(&dir, &cache).unwrap();
        assert_eq!(edited.stats.reused, 1, "SSD query should be cached");
        assert_eq!(edited.stats.recomputed, 2, "PLC file + cross query rerun");
        assert!(!edited
            .report
            .diagnostics
            .iter()
            .any(|d| d.code == sgcr_scl::codes::ST_DIVISION_BY_ZERO));

        let full = lint_bundle(&LoadedBundle::from_dir(&dir).unwrap());
        assert_eq!(edited.report, full);

        // Reverting restores the original cached result.
        fs::write(dir.join("plc_config.xml"), PLC).unwrap();
        let reverted = lint_dir_incremental(&dir, &cache).unwrap();
        assert_eq!(reverted.stats.reused, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_entries_recompute() {
        let dir = temp_dir("corrupt");
        let cache = dir.join("cache");
        write_bundle(&dir);
        let _ = lint_dir_incremental(&dir, &cache).unwrap();
        for entry in fs::read_dir(&cache).unwrap() {
            fs::write(entry.unwrap().path(), "{ not json").unwrap();
        }
        let rerun = lint_dir_incremental(&dir, &cache).unwrap();
        assert_eq!(rerun.stats.reused, 0);
        assert_eq!(rerun.stats.recomputed, 3);
        let full = lint_bundle(&LoadedBundle::from_dir(&dir).unwrap());
        assert_eq!(rerun.report, full);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directory_is_rejected() {
        let dir = temp_dir("empty");
        let err = lint_dir_incremental(&dir, dir.join("cache")).unwrap_err();
        assert!(err.message.contains("no SCL model files"));
        let _ = fs::remove_dir_all(&dir);
    }
}
