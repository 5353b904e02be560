//! The lint-pass abstraction and the pass roster.

use crate::passes;
use crate::source::{FileRole, LoadedBundle};
use sgcr_scl::Diagnostic;

/// One analysis over a loaded bundle.
///
/// Passes are stateless: they read the [`LoadedBundle`] and append
/// [`Diagnostic`]s. The driver runs them in roster order; each finding's
/// position comes from the model's `pos` metadata, so passes stay pure
/// cross-file logic with no XML in sight.
pub trait LintPass {
    /// Runs the pass, appending findings to `out`.
    fn run(&self, bundle: &LoadedBundle, out: &mut Vec<Diagnostic>);
}

/// What a pass reads, which decides how the incremental engine memoizes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scope {
    /// One file of this role at a time: part of that file's query.
    File(FileRole),
    /// The whole bundle: part of the cross-file query.
    Bundle,
}

/// Every pass, in execution order, with what it reads. [`crate::lint_bundle`]
/// runs them all over the whole bundle; the incremental engine splits them
/// by scope.
pub(crate) const ROSTER: &[(Scope, &dyn LintPass)] = &[
    (Scope::Bundle, &passes::xref::XrefPass),
    (Scope::Bundle, &passes::addr::AddrPass),
    (Scope::Bundle, &passes::topology::TopologyPass),
    (Scope::Bundle, &passes::protection::ProtectionPass),
    (Scope::Bundle, &passes::orphan::OrphanPass),
    (Scope::Bundle, &passes::scenario::ScenarioPass),
    (Scope::Bundle, &passes::adversary::AdversaryPass),
    (
        Scope::File(FileRole::PlcConfig),
        &passes::st_logic::StLogicPass,
    ),
    (Scope::Bundle, &passes::st_logic::ScadaBindingPass),
];
