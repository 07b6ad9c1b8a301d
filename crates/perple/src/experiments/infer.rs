//! Model inference (§II-B1: outcome statistics "can aid attempts at
//! formulating a formal description" of a machine's model).
//!
//! The audit counts every convertible suite test's target on the machine
//! under test; the solver's per-model verdicts on each observed target
//! place it in the SC ⊆ TSO ⊆ PSO ⊆ relaxed lattice. The inferred model is
//! the strongest one allowing every observed target. `perple audit` reads
//! its violations off the same [`Inference`] ([`Evidence::violates`]), so
//! one loop decides what was observed and what each model allows.

use std::fmt::Write as _;

use perple_model::{suite, ModelId};

use super::resilient::{AuditRow, SuiteReport};
use crate::forbidden_under;

/// One observed target: a suite test whose target outcome fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evidence {
    /// Test name.
    pub name: String,
    /// Target occurrences: the larger of the heuristic count and the
    /// configured counter's ([`super::ExperimentConfig::counter`]).
    /// Heuristic hits are real frames, so a frame-capped exhaustive scan
    /// that missed them still leaves the target observed.
    pub count: u64,
    /// The strongest model allowing the target; `None` when every model
    /// forbids it (a machine fault or an unsound conversion).
    pub strongest: Option<ModelId>,
}

impl Evidence {
    /// True iff `model` forbids this observed target. The lattice is
    /// monotone, so a model forbids it exactly when it is stronger than
    /// the strongest model allowing it.
    pub fn violates(&self, model: ModelId) -> bool {
        self.strongest.is_none_or(|s| s > model)
    }
}

/// What one audit says about the machine's model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inference {
    /// Observed targets, suite order.
    pub evidence: Vec<Evidence>,
    /// Tests the audit quarantined: they have no count, so no evidence.
    pub quarantined: Vec<String>,
}

impl Inference {
    /// The strongest model allowing every observed target (SC when no
    /// target fired), or `None` when some observed target violates every
    /// model.
    pub fn model(&self) -> Option<ModelId> {
        self.evidence
            .iter()
            .try_fold(ModelId::Sc, |acc, e| Some(acc.max(e.strongest?)))
    }

    /// Renders the inferred model, one evidence line per observed target,
    /// the targets no model allows, and the quarantined tests.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = match self.model() {
            Some(m) => writeln!(s, "inferred model: {}", m.name()),
            None => writeln!(
                s,
                "inferred model: none (observed targets violate every model)"
            ),
        };
        let allowed: Vec<_> = self
            .evidence
            .iter()
            .filter_map(|e| Some((e, e.strongest?)))
            .collect();
        let _ = writeln!(
            s,
            "evidence: {} observed targets (test, hits, strongest model allowing it)",
            allowed.len()
        );
        for (e, m) in allowed {
            let _ = writeln!(s, "  {:<12} {:>9}  {}", e.name, e.count, m.name());
        }
        let violating: Vec<_> = self
            .evidence
            .iter()
            .filter(|e| e.strongest.is_none())
            .collect();
        if !violating.is_empty() {
            let _ = writeln!(
                s,
                "violates every model (machine fault or unsound conversion):"
            );
            for e in violating {
                let _ = writeln!(s, "  {:<12} {:>9}", e.name, e.count);
            }
        }
        if !self.quarantined.is_empty() {
            let _ = writeln!(s, "quarantined: {}", self.quarantined.join(", "));
        }
        s
    }

    /// Places every observed target of an audit of the convertible suite
    /// ([`super::resilient::resilient_audit`]) in the model lattice.
    pub fn from_report(report: &SuiteReport<AuditRow>) -> Inference {
        let evidence = suite::convertible()
            .iter()
            .zip(&report.results)
            .filter_map(|(test, row)| {
                let row = row.as_ref()?;
                let count = row.heuristic.max(row.exhaustive);
                (count > 0).then(|| Evidence {
                    name: row.name.clone(),
                    count,
                    strongest: ModelId::ALL
                        .into_iter()
                        .find(|&m| !forbidden_under(test, m)),
                })
            })
            .collect();
        let quarantined = report
            .quarantined()
            .iter()
            .map(|item| item.name.clone())
            .collect();
        Inference {
            evidence,
            quarantined,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::resilient::resilient_audit;
    use crate::experiments::ExperimentConfig;

    fn evidence(name: &str, strongest: Option<ModelId>) -> Evidence {
        Evidence {
            name: name.to_owned(),
            count: 1,
            strongest,
        }
    }

    #[test]
    fn the_weakest_observed_target_names_the_model() {
        let mut inf = Inference {
            evidence: Vec::new(),
            quarantined: Vec::new(),
        };
        assert_eq!(inf.model(), Some(ModelId::Sc), "nothing fired");
        inf.evidence.push(evidence("sb", Some(ModelId::Tso)));
        inf.evidence.push(evidence("mp", Some(ModelId::Pso)));
        assert_eq!(inf.model(), Some(ModelId::Pso));
        assert!(inf.evidence[1].violates(ModelId::Tso));
        assert!(!inf.evidence[1].violates(ModelId::Pso));
        assert!(!inf.evidence[1].violates(ModelId::Relaxed));
        inf.evidence.push(evidence("amd5", None));
        assert_eq!(inf.model(), None, "one violation names no model");
        assert!(inf.evidence[2].violates(ModelId::Relaxed));
        inf.quarantined.push("lb".to_owned());
        let text = inf.render();
        assert!(text.starts_with("inferred model: none"), "{text}");
        assert!(text.contains("violates every model"), "{text}");
        assert!(text.contains("quarantined: lb"), "{text}");
    }

    #[test]
    fn a_conforming_machine_is_never_named_weaker_than_it_is() {
        let cfg = ExperimentConfig::default()
            .with_iterations(150)
            .with_workers(4);
        for machine in ModelId::ALL {
            let inf = Inference::from_report(&resilient_audit(&cfg.clone().with_model(machine)));
            let named = inf.model().expect("a conforming machine violates no model");
            assert!(named <= machine, "{machine} machine named {named}");
            assert!(inf.quarantined.is_empty());
        }
    }
}
