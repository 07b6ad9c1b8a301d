//! Test conditions and register-valuation outcomes.

use std::collections::BTreeMap;
use std::fmt;

use crate::ids::{LocId, RegId, ThreadId};

/// Quantifier of a litmus condition, as written in the litmus7 format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quantifier {
    /// `exists (...)` — the valuation is reachable in at least one run.
    Exists,
    /// `~exists (...)` — the valuation should never be observed.
    NotExists,
}

impl fmt::Display for Quantifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Quantifier::Exists => write!(f, "exists"),
            Quantifier::NotExists => write!(f, "~exists"),
        }
    }
}

/// One conjunct of a litmus condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CondAtom {
    /// `t:reg = value` — final register content.
    RegEq {
        /// Thread owning the register.
        thread: ThreadId,
        /// Register inspected.
        reg: RegId,
        /// Expected final value.
        value: u32,
    },
    /// `[loc] = value` — final shared-memory content. Conditions containing
    /// such atoms make a test **non-convertible** to a perpetual litmus test
    /// (paper §V-C).
    MemEq {
        /// Location inspected.
        loc: LocId,
        /// Expected final value.
        value: u32,
    },
}

/// Conjunction of [`CondAtom`]s under a [`Quantifier`]: the test's condition
/// of interest (its *target outcome* when `Exists`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Condition {
    quantifier: Quantifier,
    atoms: Vec<CondAtom>,
}

impl Condition {
    /// Creates a condition from its conjuncts.
    pub fn new(quantifier: Quantifier, atoms: Vec<CondAtom>) -> Self {
        Self { quantifier, atoms }
    }

    /// The condition's quantifier.
    pub fn quantifier(&self) -> Quantifier {
        self.quantifier
    }

    /// The conjuncts.
    pub fn atoms(&self) -> &[CondAtom] {
        &self.atoms
    }

    /// True if any conjunct inspects final shared memory, which makes the
    /// owning test non-convertible (paper §V-C).
    pub fn inspects_memory(&self) -> bool {
        self.mem_atoms().next().is_some()
    }

    /// Returns the register conjuncts only.
    pub fn reg_atoms(&self) -> impl Iterator<Item = (ThreadId, RegId, u32)> + '_ {
        self.atoms.iter().filter_map(|a| match *a {
            CondAtom::RegEq { thread, reg, value } => Some((thread, reg, value)),
            CondAtom::MemEq { .. } => None,
        })
    }

    /// Returns the final-memory conjuncts only.
    pub fn mem_atoms(&self) -> impl Iterator<Item = (LocId, u32)> + '_ {
        self.atoms.iter().filter_map(|a| match *a {
            CondAtom::MemEq { loc, value } => Some((loc, value)),
            CondAtom::RegEq { .. } => None,
        })
    }

    /// Evaluates the conjunction against a register valuation and a final
    /// memory valuation (`mem[loc.index()]`).
    pub fn matches(&self, outcome: &Outcome, mem: &[u32]) -> bool {
        self.atoms.iter().all(|a| match *a {
            CondAtom::RegEq { thread, reg, value } => outcome.get(thread, reg) == Some(value),
            CondAtom::MemEq { loc, value } => mem.get(loc.index()).copied() == Some(value),
        })
    }
}

/// A full valuation of the observed (loaded-into) registers at the end of one
/// litmus-test iteration.
///
/// Ordered map keyed by `(thread, register)` so that outcomes have a
/// canonical ordering and a stable [label](Outcome::label).
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Outcome(BTreeMap<(ThreadId, RegId), u32>);

impl Outcome {
    /// Creates an empty outcome.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the final value of a register.
    pub fn set(&mut self, thread: ThreadId, reg: RegId, value: u32) {
        self.0.insert((thread, reg), value);
    }

    /// Reads the recorded value of a register, if present.
    pub fn get(&self, thread: ThreadId, reg: RegId) -> Option<u32> {
        self.0.get(&(thread, reg)).copied()
    }

    /// Number of registers recorded.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if no register is recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates over `((thread, reg), value)` in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (ThreadId, RegId, u32)> + '_ {
        self.0.iter().map(|(&(t, r), &v)| (t, r, v))
    }

    /// Compact digit label in canonical register order, e.g. `"00"` for the
    /// sb target outcome, matching the labels of Figure 13 of the paper.
    /// Values ≥ 10 are bracketed to stay unambiguous.
    pub fn label(&self) -> String {
        let mut s = String::with_capacity(self.0.len());
        for (_, v) in self.0.iter() {
            if *v < 10 {
                s.push(char::from_digit(*v, 10).expect("digit"));
            } else {
                s.push_str(&format!("[{v}]"));
            }
        }
        s
    }

    /// Builds an outcome from `(thread, reg, value)` triples.
    pub fn from_triples<I: IntoIterator<Item = (ThreadId, RegId, u32)>>(iter: I) -> Self {
        let mut o = Self::new();
        for (t, r, v) in iter {
            o.set(t, r, v);
        }
        o
    }
}

impl FromIterator<(ThreadId, RegId, u32)> for Outcome {
    fn from_iter<I: IntoIterator<Item = (ThreadId, RegId, u32)>>(iter: I) -> Self {
        Self::from_triples(iter)
    }
}

impl Extend<(ThreadId, RegId, u32)> for Outcome {
    fn extend<I: IntoIterator<Item = (ThreadId, RegId, u32)>>(&mut self, iter: I) {
        for (t, r, v) in iter {
            self.set(t, r, v);
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for ((t, r), v) in &self.0 {
            if !first {
                write!(f, " && ")?;
            }
            first = false;
            write!(f, "{}:{}={v}", t.0, r)?;
        }
        if first {
            write!(f, "(empty)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u8) -> ThreadId {
        ThreadId(i)
    }
    fn r(i: u8) -> RegId {
        RegId(i)
    }

    #[test]
    fn outcome_ordering_is_canonical() {
        let mut o = Outcome::new();
        o.set(t(1), r(0), 1);
        o.set(t(0), r(0), 0);
        let keys: Vec<_> = o.iter().map(|(t, r, _)| (t, r)).collect();
        assert_eq!(keys, vec![(ThreadId(0), RegId(0)), (ThreadId(1), RegId(0))]);
        assert_eq!(o.label(), "01");
    }

    #[test]
    fn label_brackets_large_values() {
        let mut o = Outcome::new();
        o.set(t(0), r(0), 12);
        assert_eq!(o.label(), "[12]");
    }

    #[test]
    fn condition_matches_registers_and_memory() {
        let cond = Condition::new(
            Quantifier::Exists,
            vec![
                CondAtom::RegEq {
                    thread: t(0),
                    reg: r(0),
                    value: 0,
                },
                CondAtom::MemEq {
                    loc: LocId(0),
                    value: 2,
                },
            ],
        );
        let mut o = Outcome::new();
        o.set(t(0), r(0), 0);
        assert!(cond.matches(&o, &[2]));
        assert!(!cond.matches(&o, &[1]));
        o.set(t(0), r(0), 1);
        assert!(!cond.matches(&o, &[2]));
        assert!(cond.inspects_memory());
    }

    #[test]
    fn register_only_condition_does_not_inspect_memory() {
        let cond = Condition::new(
            Quantifier::Exists,
            vec![CondAtom::RegEq {
                thread: t(0),
                reg: r(0),
                value: 0,
            }],
        );
        assert!(!cond.inspects_memory());
        assert_eq!(cond.reg_atoms().count(), 1);
    }

    #[test]
    fn display_forms() {
        let mut o = Outcome::new();
        assert_eq!(o.to_string(), "(empty)");
        o.set(t(0), r(0), 1);
        o.set(t(1), r(1), 0);
        assert_eq!(o.to_string(), "0:r0=1 && 1:r1=0");
        assert_eq!(Quantifier::Exists.to_string(), "exists");
        assert_eq!(Quantifier::NotExists.to_string(), "~exists");
    }

    #[test]
    fn from_iterator_and_extend() {
        let o: Outcome = vec![(t(0), r(0), 1)].into_iter().collect();
        assert_eq!(o.get(t(0), r(0)), Some(1));
        let mut o2 = Outcome::new();
        o2.extend(vec![(t(1), r(0), 2)]);
        assert_eq!(o2.get(t(1), r(0)), Some(2));
        assert_eq!(o2.len(), 1);
        assert!(!o2.is_empty());
    }
}
