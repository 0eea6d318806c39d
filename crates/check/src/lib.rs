#![warn(missing_docs)]
#![deny(unsafe_code)]

//! # dekg-check
//!
//! Static analysis over DEKG datasets: the knowledge-graph counterpart
//! to tape analysis in [`dekg_tensor::tapecheck`]. Both report through
//! the same [`Diagnostic`] type (defined in [`dekg_tensor::check`]), so
//! the CLI can print tape and KG findings uniformly.
//!
//! The validators never panic on malformed data — that is the point.
//! [`dekg_datasets::DekgDataset::validate`] asserts and is right for
//! generator self-checks; [`validate`] instead *collects* every broken
//! invariant so a user can see all of them at once:
//!
//! * **Disconnectedness** (Definitions 1–2 of the paper): no triple of
//!   the original KG `G` may touch an unseen entity, no triple of the
//!   emerging KG `G'` may touch a seen one. A single crossing edge
//!   silently turns the inductive benchmark transductive.
//! * **Split leakage**: held-out links must not appear in `G` or `G'`,
//!   and must carry the link class their endpoints imply.
//! * **Id hygiene**: every entity/relation id must fall inside the
//!   vocabulary, and the seen/unseen partition must be well formed.
//! * **Coverage**: entities with no triples at all (warning — they can
//!   never be ranked or represented).
//!
//! Two further validators cover derived structures:
//!
//! * [`validate_component_table`] recomputes relation-component rows
//!   (Eq. 2) from a store and reports divergent entries,
//! * [`validate_profile`] compares dataset statistics against a
//!   [`dekg_datasets::DatasetProfile`] and warns on wild deviations.
//!
//! ```
//! use dekg_check::validate;
//! use dekg_datasets::DekgDataset;
//! use dekg_kg::{Triple, TripleStore, Vocab};
//!
//! let mut vocab = Vocab::new();
//! for n in ["a", "b", "x", "y"] {
//!     vocab.intern_entity(n);
//! }
//! vocab.intern_relation("r");
//! let mut data = DekgDataset {
//!     name: "tiny".into(),
//!     vocab,
//!     num_original_entities: 2,
//!     num_relations: 1,
//!     original: TripleStore::from_triples([Triple::from_raw(0, 0, 1)]),
//!     emerging: TripleStore::from_triples([Triple::from_raw(2, 0, 3)]),
//!     valid: vec![Triple::from_raw(1, 0, 0)],
//!     test_enclosing: vec![Triple::from_raw(3, 0, 2)],
//!     test_bridging: vec![Triple::from_raw(0, 0, 2)],
//! };
//! assert!(validate(&data).is_empty());
//!
//! // An edge crossing the G/G' boundary breaks the DEKG setting.
//! data.emerging.insert(Triple::from_raw(0, 0, 3));
//! let diags = validate(&data);
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].code, "cross-boundary-triple");
//! ```

mod components;
mod dataset;
mod profile;

pub use components::validate_component_table;
pub use dataset::validate;
pub use dekg_tensor::{Diagnostic, Severity};
pub use profile::validate_profile;

/// Runs the full per-op gradient-check suite from
/// [`dekg_tensor::gradcheck`]: every `Op` variant's finite-difference
/// check plus the coverage audit that fails when a variant has no
/// registered check. This is the semantic counterpart to the static
/// passes of [`dekg_tensor::tapecheck`] — invoked by
/// `dekg check --grads`.
pub fn validate_grads(seed: u64) -> Vec<Diagnostic> {
    dekg_tensor::gradcheck::run_all(seed)
}

/// Counts of findings by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Summary {
    /// Broken invariants — the dataset must not be used.
    pub errors: usize,
    /// Suspicious but survivable findings.
    pub warnings: usize,
}

impl Summary {
    /// True when nothing was found.
    pub fn is_clean(self) -> bool {
        self.errors == 0 && self.warnings == 0
    }
}

/// Tallies a diagnostic list by severity.
pub fn summarize(diags: &[Diagnostic]) -> Summary {
    let mut s = Summary::default();
    for d in diags {
        match d.severity {
            Severity::Error => s.errors += 1,
            Severity::Warning => s.warnings += 1,
        }
    }
    s
}

/// How many findings of one code are reported individually before the
/// remainder collapses into a single count.
pub(crate) const CAP: usize = 5;

/// Emits `findings` as diagnostics of one `(severity, code, area)`,
/// collapsing everything past [`CAP`] into a final "… and N more"
/// entry so a thoroughly broken dataset stays readable.
pub(crate) fn emit_capped(
    out: &mut Vec<Diagnostic>,
    severity: Severity,
    code: &'static str,
    area: &str,
    findings: Vec<String>,
) {
    let extra = findings.len().saturating_sub(CAP);
    for message in findings.into_iter().take(CAP) {
        out.push(Diagnostic { severity, code, node: None, op: area.to_owned(), message });
    }
    if extra > 0 {
        out.push(Diagnostic {
            severity,
            code,
            node: None,
            op: area.to_owned(),
            message: format!("… and {extra} more finding(s) of this kind"),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_tallies_by_severity() {
        let diags = vec![
            Diagnostic::error("a", None, "x", "m"),
            Diagnostic::warning("b", None, "x", "m"),
            Diagnostic::error("a", None, "x", "m"),
        ];
        let s = summarize(&diags);
        assert_eq!(s, Summary { errors: 2, warnings: 1 });
        assert!(!s.is_clean());
        assert!(summarize(&[]).is_clean());
    }

    #[test]
    fn validate_grads_is_clean() {
        let diags = validate_grads(7);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn capped_emission_collapses_overflow() {
        let mut out = Vec::new();
        let findings = (0..CAP + 3).map(|i| format!("finding {i}")).collect();
        emit_capped(&mut out, Severity::Error, "code", "area", findings);
        assert_eq!(out.len(), CAP + 1);
        assert!(out.last().unwrap().message.contains("3 more"));
    }
}
