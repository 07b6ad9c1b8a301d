//! Memory-model identity and policy: the one value type every layer of the
//! stack (simulator, enumerator, constraint solver, converter, campaign
//! cache, CLI) uses to name the consistency model under test.
//!
//! [`ModelId`] is the *name* — parseable from the CLI/spec grammar, stable
//! in JSON envelopes and cache descriptors. [`ModelPolicy`] is the
//! *operational semantics summary* derived from it: store-buffer shape,
//! drain order, forwarding, and which program-order edges the model
//! preserves (the axiomatic `ppo` filter). Both live in `perple-model` so
//! that crates lower in the dependency graph than the enumerator (the
//! simulator in particular) can be model-parametric without a cycle.
//!
//! The model lattice, weakest-to-strongest:
//!
//! | model | stores | drain order | ppo relaxations |
//! |---|---|---|---|
//! | `sc` | direct to memory | — | none |
//! | `tso` | FIFO buffer | total per-thread FIFO | W→R |
//! | `pso` | per-location FIFO | oldest-per-location | W→R, W→W (diff loc) |
//! | `relaxed` | per-location FIFO + out-of-order issue | oldest-per-location | all but same-location (minus W→R) and fenced |

use std::fmt;

/// Identifies a memory consistency model, ordered strongest → weakest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ModelId {
    /// Sequential consistency: stores hit memory in program order.
    Sc,
    /// x86-TSO: per-thread FIFO store buffer with forwarding (the default,
    /// matching the paper's machine).
    #[default]
    Tso,
    /// PSO-style: store buffer drains oldest-per-location, so stores to
    /// different locations reach memory out of order.
    Pso,
    /// ARM/Power-flavoured relaxed: PSO drains plus out-of-order
    /// instruction issue — only same-location order, fences, and locked
    /// operations constrain execution.
    Relaxed,
}

impl ModelId {
    /// Every model, strongest first (the `--model` matrix order).
    pub const ALL: [ModelId; 4] = [ModelId::Sc, ModelId::Tso, ModelId::Pso, ModelId::Relaxed];

    /// Parses the lowercase CLI / `model =` spec-key name.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "sc" => Some(ModelId::Sc),
            "tso" | "x86-tso" => Some(ModelId::Tso),
            "pso" => Some(ModelId::Pso),
            "relaxed" | "rmo" => Some(ModelId::Relaxed),
            _ => None,
        }
    }

    /// The canonical lowercase name (CLI flag value, spec key value, cache
    /// descriptor component, JSON field value).
    pub fn name(self) -> &'static str {
        match self {
            ModelId::Sc => "sc",
            ModelId::Tso => "tso",
            ModelId::Pso => "pso",
            ModelId::Relaxed => "relaxed",
        }
    }

    /// The operational policy this model executes under.
    pub fn policy(self) -> ModelPolicy {
        match self {
            ModelId::Sc => ModelPolicy {
                buffered_stores: false,
                per_location_drain: false,
                out_of_order_issue: false,
            },
            ModelId::Tso => ModelPolicy {
                buffered_stores: true,
                per_location_drain: false,
                out_of_order_issue: false,
            },
            ModelId::Pso => ModelPolicy {
                buffered_stores: true,
                per_location_drain: true,
                out_of_order_issue: false,
            },
            ModelId::Relaxed => ModelPolicy {
                buffered_stores: true,
                per_location_drain: true,
                out_of_order_issue: true,
            },
        }
    }

    /// True iff every execution allowed under `self` is allowed under
    /// `other` (the SC ⊆ TSO ⊆ PSO ⊆ relaxed chain).
    pub fn at_most_as_weak_as(self, other: ModelId) -> bool {
        self <= other
    }

    /// The axiomatic `ppo` filter: does this model's global-happens-before
    /// keep the program-order edge from an `earlier` access to a `later`
    /// access of the same thread? Fence and locked-instruction edges are
    /// handled separately by the solver and always order; this only
    /// decides *bare* po pairs.
    pub fn preserves_po(self, earlier: AccessKind, later: AccessKind, same_loc: bool) -> bool {
        match self {
            ModelId::Sc => true,
            // TSO relaxes only write→read.
            ModelId::Tso => !(earlier == AccessKind::Write && later == AccessKind::Read),
            // PSO additionally relaxes write→write to different locations.
            ModelId::Pso => match (earlier, later) {
                (AccessKind::Write, AccessKind::Read) => false,
                (AccessKind::Write, AccessKind::Write) => same_loc,
                _ => true,
            },
            // Relaxed keeps only same-location order — and even there not
            // write→read, because every buffered model forwards a
            // same-location load from the store buffer before the store is
            // globally visible (exactly the TSO/PSO relaxation).
            ModelId::Relaxed => {
                same_loc && !(earlier == AccessKind::Write && later == AccessKind::Read)
            }
        }
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Uppercase display matches the historical enumerator Display
        // ("SC"/"TSO"/"PSO") that reports and tests already print.
        match self {
            ModelId::Sc => f.write_str("SC"),
            ModelId::Tso => f.write_str("TSO"),
            ModelId::Pso => f.write_str("PSO"),
            ModelId::Relaxed => f.write_str("RELAXED"),
        }
    }
}

/// Kind of a shared-memory access, as the `ppo` filter sees it (a locked
/// RMW contributes both a `Read` and a `Write`, ordered by its lock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Operational policy of a [`ModelId`]: what the simulated machine and the
/// explicit-state enumerator actually do with stores and instruction issue.
/// Forwarding (loads reading the thread's own youngest buffered store) is
/// common to every buffered model and not a separate switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelPolicy {
    /// Stores enter a store buffer (false = SC: stores write memory
    /// directly and the buffer stays empty).
    pub buffered_stores: bool,
    /// Drains pick the oldest store *per location* instead of the buffer
    /// head, letting different-location stores reach memory out of order.
    pub per_location_drain: bool,
    /// Instruction issue may leave program order: any instruction whose
    /// same-location predecessors and fence predecessors have issued is
    /// eligible (fences and locked ops still wait for everything earlier).
    pub out_of_order_issue: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_canonical_and_alias_names() {
        assert_eq!(ModelId::parse("sc"), Some(ModelId::Sc));
        assert_eq!(ModelId::parse("TSO"), Some(ModelId::Tso));
        assert_eq!(ModelId::parse("x86-tso"), Some(ModelId::Tso));
        assert_eq!(ModelId::parse("pso"), Some(ModelId::Pso));
        assert_eq!(ModelId::parse("relaxed"), Some(ModelId::Relaxed));
        assert_eq!(ModelId::parse("rmo"), Some(ModelId::Relaxed));
        assert_eq!(ModelId::parse("weak"), None);
        assert_eq!(ModelId::parse(""), None);
    }

    #[test]
    fn parse_rejects_near_misses_not_just_garbage() {
        // The rejection path matters as much as the accept path: every
        // caller (CLI flags, `model =` spec keys, JSON envelopes) turns
        // `None` into a user-facing error, so near-miss spellings must
        // not silently alias to a model.
        for s in [
            "all",     // CLI matrix sentinel, never a model name
            "x86",     // alias prefix
            "x86tso",  // alias with the hyphen dropped
            "tso ",    // trailing whitespace
            " tso",    // leading whitespace
            "t s o",   // interior whitespace
            "ts0",     // digit confusable
            "sc,tso",  // list where one name is expected
            "seq-cst", // plausible synonym, deliberately unsupported
            "total-store-order",
            "relaxed!", // trailing punctuation
            "söc",      // non-ASCII never matches (lowercasing is ASCII-only)
            "psò",
        ] {
            assert_eq!(ModelId::parse(s), None, "{s:?} must not parse");
        }
        // Case-insensitivity is exact-name-only: mixed case of a real
        // name parses, mixed case of a near miss still does not.
        assert_eq!(ModelId::parse("X86-TSO"), Some(ModelId::Tso));
        assert_eq!(ModelId::parse("RMO"), Some(ModelId::Relaxed));
        assert_eq!(ModelId::parse("RMO2"), None);
    }

    #[test]
    fn names_round_trip_and_default_is_tso() {
        for m in ModelId::ALL {
            assert_eq!(ModelId::parse(m.name()), Some(m));
        }
        assert_eq!(ModelId::default(), ModelId::Tso);
        assert_eq!(ModelId::Tso.to_string(), "TSO");
        assert_eq!(ModelId::Relaxed.to_string(), "RELAXED");
    }

    #[test]
    fn lattice_order_is_strongest_to_weakest() {
        assert!(ModelId::Sc.at_most_as_weak_as(ModelId::Tso));
        assert!(ModelId::Tso.at_most_as_weak_as(ModelId::Pso));
        assert!(ModelId::Pso.at_most_as_weak_as(ModelId::Relaxed));
        assert!(!ModelId::Relaxed.at_most_as_weak_as(ModelId::Tso));
        assert!(ModelId::Tso.at_most_as_weak_as(ModelId::Tso));
    }

    #[test]
    fn policies_weaken_monotonically() {
        let sc = ModelId::Sc.policy();
        assert!(!sc.buffered_stores && !sc.out_of_order_issue);
        let tso = ModelId::Tso.policy();
        assert!(tso.buffered_stores && !tso.per_location_drain);
        let pso = ModelId::Pso.policy();
        assert!(pso.per_location_drain && !pso.out_of_order_issue);
        let relaxed = ModelId::Relaxed.policy();
        assert!(relaxed.per_location_drain && relaxed.out_of_order_issue);
    }

    #[test]
    fn ppo_filters_nest_along_the_lattice() {
        use AccessKind::{Read, Write};
        // Any po edge a weaker model keeps, every stronger model keeps too.
        let pairs = [(Read, Read), (Read, Write), (Write, Read), (Write, Write)];
        for (i, weak) in ModelId::ALL.iter().enumerate() {
            for strong in &ModelId::ALL[..i] {
                for &(e, l) in &pairs {
                    for same_loc in [false, true] {
                        if weak.preserves_po(e, l, same_loc) {
                            assert!(
                                strong.preserves_po(e, l, same_loc),
                                "{strong} must keep every edge {weak} keeps ({e:?}->{l:?}, same_loc={same_loc})"
                            );
                        }
                    }
                }
            }
        }
        // Spot checks: the classic relaxations.
        assert!(!ModelId::Tso.preserves_po(Write, Read, false));
        assert!(ModelId::Tso.preserves_po(Write, Write, false));
        assert!(!ModelId::Pso.preserves_po(Write, Write, false));
        assert!(ModelId::Pso.preserves_po(Write, Write, true));
        assert!(ModelId::Pso.preserves_po(Read, Read, false));
        assert!(!ModelId::Relaxed.preserves_po(Read, Read, false));
        assert!(ModelId::Relaxed.preserves_po(Read, Read, true));
        assert!(!ModelId::Relaxed.preserves_po(Write, Read, true));
        assert!(ModelId::Relaxed.preserves_po(Write, Write, true));
        assert!(ModelId::Sc.preserves_po(Write, Read, false));
    }
}
