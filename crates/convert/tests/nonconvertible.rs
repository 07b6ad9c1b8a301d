//! Table-driven classification of the non-convertible suite complement.
//!
//! Pins, per test, which [`ConvertError`] variant rejects it — and that the
//! complement is exactly the paper's 54 tests (§V-C). Every entry today is
//! `MemoryClause`: all 54 carry a final-memory clause, which is the
//! paper's sole source of non-convertibility in this suite. The table keeps
//! the variant explicit anyway so a reordering of the obstruction list
//! (e.g. store obstructions surfacing first) shows up as a reviewed diff,
//! not a silent change.

use perple_convert::{obstructions, Conversion, ConvertError};
use perple_model::suite;

/// Which variant a conversion error is, ignoring payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    MemoryClause,
    DuplicateStoreValue,
    NonZeroInit,
    UnloadedRegister,
    NoWriterForValue,
}

fn variant_of(e: &ConvertError) -> Variant {
    match e {
        ConvertError::MemoryClause { .. } => Variant::MemoryClause,
        ConvertError::DuplicateStoreValue { .. } => Variant::DuplicateStoreValue,
        ConvertError::NonZeroInit { .. } => Variant::NonZeroInit,
        ConvertError::UnloadedRegister { .. } => Variant::UnloadedRegister,
        ConvertError::NoWriterForValue { .. } => Variant::NoWriterForValue,
    }
}

/// `(test name, expected rejection variant)` for every non-convertible
/// test, in name order.
const EXPECTED: &[(&str, Variant)] = &[
    ("2+2w", Variant::MemoryClause),
    ("2+2w+mfence+po", Variant::MemoryClause),
    ("2+2w+mfences", Variant::MemoryClause),
    ("2+2w+po+mfence", Variant::MemoryClause),
    ("3+3w", Variant::MemoryClause),
    ("3+3w+mfence+mfence+po", Variant::MemoryClause),
    ("3+3w+mfence+po+po", Variant::MemoryClause),
    ("3+3w+mfences", Variant::MemoryClause),
    ("3w+final1", Variant::MemoryClause),
    ("3w+final2", Variant::MemoryClause),
    ("3w+final3", Variant::MemoryClause),
    ("3w+xchgs", Variant::MemoryClause),
    ("co-2w", Variant::MemoryClause),
    ("co-2w+po+xchg", Variant::MemoryClause),
    ("co-2w+xchg+po", Variant::MemoryClause),
    ("co-2w+xchgs", Variant::MemoryClause),
    ("co-lb+final1", Variant::MemoryClause),
    ("co-lb+final1+mfences", Variant::MemoryClause),
    ("co-lb+final2", Variant::MemoryClause),
    ("co-lb+final2+mfences", Variant::MemoryClause),
    ("co-mp", Variant::MemoryClause),
    ("co-mp+mfence+po", Variant::MemoryClause),
    ("co-mp+mfences", Variant::MemoryClause),
    ("co-mp+po+mfence", Variant::MemoryClause),
    ("co-rr", Variant::MemoryClause),
    ("co-rr+mfence+po", Variant::MemoryClause),
    ("co-rr+mfences", Variant::MemoryClause),
    ("co-rr+po+mfence", Variant::MemoryClause),
    ("co-sb", Variant::MemoryClause),
    ("co-sb+mfence+po", Variant::MemoryClause),
    ("co-sb+mfences", Variant::MemoryClause),
    ("co-sb+po+mfence", Variant::MemoryClause),
    ("iriw+final", Variant::MemoryClause),
    ("iriw+final+mfence+po", Variant::MemoryClause),
    ("iriw+final+mfences", Variant::MemoryClause),
    ("iriw+final+po+mfence", Variant::MemoryClause),
    ("mp+final", Variant::MemoryClause),
    ("mp+final+mfence+po", Variant::MemoryClause),
    ("mp+final+mfences", Variant::MemoryClause),
    ("mp+final+po+mfence", Variant::MemoryClause),
    ("r", Variant::MemoryClause),
    ("r+mfence+po", Variant::MemoryClause),
    ("r+mfences", Variant::MemoryClause),
    ("r+po+mfence", Variant::MemoryClause),
    ("s", Variant::MemoryClause),
    ("s+mfence+po", Variant::MemoryClause),
    ("s+mfences", Variant::MemoryClause),
    ("s+po+mfence", Variant::MemoryClause),
    ("sb+final", Variant::MemoryClause),
    ("sb+final+mfence+po", Variant::MemoryClause),
    ("sb+final+mfences", Variant::MemoryClause),
    ("sb+final+po+mfence", Variant::MemoryClause),
    ("wrc+final", Variant::MemoryClause),
    ("wrc+final+mfence", Variant::MemoryClause),
];

#[test]
fn non_convertible_complement_is_exactly_the_54_expected_tests() {
    assert_eq!(EXPECTED.len(), 54);
    let mut rejected = Vec::new();
    for t in suite::full() {
        match Conversion::convert(&t) {
            Ok(_) => {
                assert!(
                    !EXPECTED.iter().any(|(n, _)| *n == t.name()),
                    "{}: listed as non-convertible but converts",
                    t.name()
                );
            }
            Err(e) => rejected.push((t.name().to_owned(), e)),
        }
    }
    rejected.sort_by(|(a, _), (b, _)| a.cmp(b));
    assert_eq!(rejected.len(), 54, "non-convertible complement size");
    for ((name, err), (want_name, want_variant)) in rejected.iter().zip(EXPECTED) {
        assert_eq!(name, want_name, "complement membership changed");
        assert_eq!(
            variant_of(err),
            *want_variant,
            "{name}: rejected by {err} instead of {want_variant:?}"
        );
    }
}

#[test]
fn rejection_variant_agrees_with_the_obstruction_list() {
    // Every MemoryClause rejection must show up in obstructions() as at
    // least one MemoryClause obstruction pointing at a real atom.
    for (name, variant) in EXPECTED {
        let t = suite::by_name(name).unwrap_or_else(|| panic!("{name}: not in suite"));
        assert_eq!(*variant, Variant::MemoryClause);
        let mem_clauses: Vec<_> = obstructions(&t)
            .into_iter()
            .filter(|o| matches!(o, ConvertError::MemoryClause { .. }))
            .collect();
        assert!(
            !mem_clauses.is_empty(),
            "{name}: no MemoryClause obstruction"
        );
        for o in mem_clauses {
            let ConvertError::MemoryClause { atom, .. } = o else {
                unreachable!()
            };
            assert!(atom < t.target().atoms().len(), "{name}: atom out of range");
        }
    }
}

#[test]
fn display_of_each_rejection_names_the_problem() {
    for (name, _) in EXPECTED {
        let t = suite::by_name(name).unwrap();
        let msg = Conversion::convert(&t).unwrap_err().to_string();
        assert!(
            msg.contains("not convertible"),
            "{name}: uninformative message {msg:?}"
        );
    }
}
