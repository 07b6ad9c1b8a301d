//! The perpetual litmus suite (paper Table II) and the surrounding 88-test
//! x86-TSO suite.
//!
//! The 34 tests whose target outcome is register-only (and hence convertible
//! to perpetual form, paper §V-C) are reconstructed here to match every
//! property Table II reports: test name, thread count `T`, load-performing
//! thread count `T_L`, and whether the target outcome is allowed or
//! forbidden under x86-TSO. Where the paper does not give a test's
//! instruction stream (the `safe0xx`/`rfi0xx` families come from Sewell et
//! al.'s supplementary material), the programs are reconstructed to match
//! those reported properties; `perple-enumerate` verifies the
//! allowed/forbidden split mechanically (see DESIGN.md, substitutions).
//!
//! The remaining 54 tests of the full 88-test suite are **non-convertible**:
//! their conditions inspect final shared memory (coherence/write-serialization
//! families such as `co-2w`, `2+2w`, `S`, `R`), generated in the `extra` submodule.

mod allowed;
mod extra;
mod forbidden;

pub use allowed::*;
pub use extra::non_convertible;
pub use forbidden::*;

use std::sync::OnceLock;

use crate::test::LitmusTest;

/// One row of Table II: name, `T`, `T_L`, and whether x86-TSO allows the
/// target outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableIiEntry {
    /// Test name as printed in the paper.
    pub name: &'static str,
    /// Total thread count `T`.
    pub threads: usize,
    /// Load-performing thread count `T_L`.
    pub load_threads: usize,
    /// True if x86-TSO allows the target outcome.
    pub allowed: bool,
}

/// Table II of the paper: the 34-test perpetual litmus suite for x86-TSO.
pub const TABLE_II: &[TableIiEntry] = &[
    // Target outcome allowed by x86-TSO.
    TableIiEntry {
        name: "amd3",
        threads: 2,
        load_threads: 2,
        allowed: true,
    },
    TableIiEntry {
        name: "iwp23b",
        threads: 2,
        load_threads: 2,
        allowed: true,
    },
    TableIiEntry {
        name: "iwp24",
        threads: 2,
        load_threads: 2,
        allowed: true,
    },
    TableIiEntry {
        name: "n1",
        threads: 3,
        load_threads: 2,
        allowed: true,
    },
    TableIiEntry {
        name: "podwr000",
        threads: 2,
        load_threads: 2,
        allowed: true,
    },
    TableIiEntry {
        name: "podwr001",
        threads: 3,
        load_threads: 3,
        allowed: true,
    },
    TableIiEntry {
        name: "rfi009",
        threads: 2,
        load_threads: 2,
        allowed: true,
    },
    TableIiEntry {
        name: "rfi013",
        threads: 2,
        load_threads: 2,
        allowed: true,
    },
    TableIiEntry {
        name: "rfi015",
        threads: 3,
        load_threads: 2,
        allowed: true,
    },
    TableIiEntry {
        name: "rfi017",
        threads: 2,
        load_threads: 2,
        allowed: true,
    },
    TableIiEntry {
        name: "rwc-unfenced",
        threads: 3,
        load_threads: 2,
        allowed: true,
    },
    TableIiEntry {
        name: "sb",
        threads: 2,
        load_threads: 2,
        allowed: true,
    },
    // Target outcome forbidden by x86-TSO.
    TableIiEntry {
        name: "amd10",
        threads: 2,
        load_threads: 2,
        allowed: false,
    },
    TableIiEntry {
        name: "amd5",
        threads: 2,
        load_threads: 2,
        allowed: false,
    },
    TableIiEntry {
        name: "amd5+staleld",
        threads: 2,
        load_threads: 2,
        allowed: false,
    },
    TableIiEntry {
        name: "co-iriw",
        threads: 4,
        load_threads: 2,
        allowed: false,
    },
    TableIiEntry {
        name: "iriw",
        threads: 4,
        load_threads: 2,
        allowed: false,
    },
    TableIiEntry {
        name: "lb",
        threads: 2,
        load_threads: 2,
        allowed: false,
    },
    TableIiEntry {
        name: "mp",
        threads: 2,
        load_threads: 1,
        allowed: false,
    },
    TableIiEntry {
        name: "mp+staleld",
        threads: 2,
        load_threads: 1,
        allowed: false,
    },
    TableIiEntry {
        name: "mp+fences",
        threads: 2,
        load_threads: 1,
        allowed: false,
    },
    TableIiEntry {
        name: "n4",
        threads: 2,
        load_threads: 2,
        allowed: false,
    },
    TableIiEntry {
        name: "n5",
        threads: 2,
        load_threads: 2,
        allowed: false,
    },
    TableIiEntry {
        name: "rwc-fenced",
        threads: 3,
        load_threads: 2,
        allowed: false,
    },
    TableIiEntry {
        name: "safe006",
        threads: 2,
        load_threads: 2,
        allowed: false,
    },
    TableIiEntry {
        name: "safe007",
        threads: 3,
        load_threads: 3,
        allowed: false,
    },
    TableIiEntry {
        name: "safe012",
        threads: 3,
        load_threads: 2,
        allowed: false,
    },
    TableIiEntry {
        name: "safe018",
        threads: 3,
        load_threads: 2,
        allowed: false,
    },
    TableIiEntry {
        name: "safe022",
        threads: 2,
        load_threads: 1,
        allowed: false,
    },
    TableIiEntry {
        name: "safe024",
        threads: 3,
        load_threads: 2,
        allowed: false,
    },
    TableIiEntry {
        name: "safe027",
        threads: 4,
        load_threads: 2,
        allowed: false,
    },
    TableIiEntry {
        name: "safe028",
        threads: 3,
        load_threads: 2,
        allowed: false,
    },
    TableIiEntry {
        name: "safe036",
        threads: 2,
        load_threads: 2,
        allowed: false,
    },
    TableIiEntry {
        name: "wrc",
        threads: 3,
        load_threads: 2,
        allowed: false,
    },
];

/// The 34 convertible tests of Table II, in table order.
pub fn convertible() -> Vec<LitmusTest> {
    vec![
        amd3(),
        iwp23b(),
        iwp24(),
        n1(),
        podwr000(),
        podwr001(),
        rfi009(),
        rfi013(),
        rfi015(),
        rfi017(),
        rwc_unfenced(),
        sb(),
        amd10(),
        amd5(),
        amd5_staleld(),
        co_iriw(),
        iriw(),
        lb(),
        mp(),
        mp_staleld(),
        mp_fences(),
        n4(),
        n5(),
        rwc_fenced(),
        safe006(),
        safe007(),
        safe012(),
        safe018(),
        safe022(),
        safe024(),
        safe027(),
        safe028(),
        safe036(),
        wrc(),
    ]
}

/// The convertible tests whose target outcome x86-TSO allows (the group the
/// paper's detection-rate metrics average over).
pub fn allowed_targets() -> Vec<LitmusTest> {
    let allowed: Vec<&str> = TABLE_II
        .iter()
        .filter(|e| e.allowed)
        .map(|e| e.name)
        .collect();
    convertible()
        .into_iter()
        .filter(|t| allowed.contains(&t.name()))
        .collect()
}

/// The full 88-test x86-TSO suite: 34 convertible plus 54 non-convertible
/// tests (§VII-G).
pub fn full() -> Vec<LitmusTest> {
    let mut tests = convertible();
    tests.extend(non_convertible());
    tests
}

/// Looks up a test of the full suite by name.
///
/// The suite is built once per process and each lookup clones one test
/// from it, so expanding N names costs N clones rather than N suite
/// builds.
pub fn by_name(name: &str) -> Option<LitmusTest> {
    static SUITE: OnceLock<Vec<LitmusTest>> = OnceLock::new();
    SUITE
        .get_or_init(full)
        .iter()
        .find(|t| t.name() == name)
        .cloned()
}

/// Writes the full suite as individual `.litmus` files (litmus7 format)
/// into `dir`, creating it if needed. Returns the number of files written.
/// `/` in test names (none currently) would be rejected by the filesystem;
/// `+` is kept as-is.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_corpus(dir: &std::path::Path) -> std::io::Result<usize> {
    std::fs::create_dir_all(dir)?;
    let tests = full();
    for t in &tests {
        let path = dir.join(format!("{}.litmus", t.name()));
        std::fs::write(path, crate::printer::print(t))?;
    }
    Ok(tests.len())
}

/// Loads every `.litmus` file in `dir` (sorted by file name). Files that
/// fail to parse are returned as errors with their paths.
///
/// # Errors
/// Returns the first filesystem or parse error encountered.
pub fn load_corpus(dir: &std::path::Path) -> Result<Vec<LitmusTest>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "litmus"))
        .collect();
    paths.sort();
    let mut tests = Vec::with_capacity(paths.len());
    for path in paths {
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let test = crate::parser::parse(&src).map_err(|e| format!("{}: {e}", path.display()))?;
        tests.push(test);
    }
    Ok(tests)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_has_34_entries_12_allowed() {
        assert_eq!(TABLE_II.len(), 34);
        assert_eq!(TABLE_II.iter().filter(|e| e.allowed).count(), 12);
    }

    #[test]
    fn convertible_matches_table_ii_names_in_order() {
        let tests = convertible();
        assert_eq!(tests.len(), TABLE_II.len());
        for (t, e) in tests.iter().zip(TABLE_II) {
            assert_eq!(t.name(), e.name);
        }
    }

    #[test]
    fn thread_counts_match_table_ii() {
        for (t, e) in convertible().iter().zip(TABLE_II) {
            assert_eq!(t.thread_count(), e.threads, "{}: T", e.name);
            assert_eq!(t.load_thread_count(), e.load_threads, "{}: T_L", e.name);
        }
    }

    #[test]
    fn convertible_tests_have_register_only_conditions() {
        for t in convertible() {
            assert!(
                !t.target().inspects_memory(),
                "{} must be convertible",
                t.name()
            );
            assert!(t.target_outcome().is_some(), "{}", t.name());
        }
    }

    #[test]
    fn convertible_tests_have_unique_store_values_per_location() {
        // Required by the arithmetic-sequence conversion: each stored value
        // maps to a unique instruction.
        for t in convertible() {
            for loc_idx in 0..t.location_count() {
                let loc = crate::LocId(loc_idx as u8);
                for v in t.distinct_store_values(loc) {
                    assert!(
                        t.unique_store_of(loc, v).is_some(),
                        "{}: duplicate store of {v} to {}",
                        t.name(),
                        t.location_name(loc)
                    );
                }
            }
        }
    }

    #[test]
    fn full_suite_counts_88() {
        let tests = full();
        assert_eq!(tests.len(), 88);
        let nonconv = tests
            .iter()
            .filter(|t| t.target().inspects_memory())
            .count();
        assert_eq!(nonconv, 54);
    }

    #[test]
    fn names_are_unique_across_full_suite() {
        let tests = full();
        let mut names: Vec<&str> = tests.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate test names");
    }

    #[test]
    fn by_name_finds_every_test() {
        let tests = full();
        assert_eq!(tests.len(), 88);
        // Twice over: the second pass is served by the same process-wide
        // suite and must still hand out equal, independent clones.
        for _ in 0..2 {
            for t in &tests {
                assert_eq!(by_name(t.name()).as_ref(), Some(t), "{}", t.name());
            }
        }
        for unknown in ["no-such-test", "", "SB", "sb "] {
            assert!(by_name(unknown).is_none(), "{unknown:?}");
        }
    }

    #[test]
    fn allowed_targets_returns_the_12_allowed_tests() {
        let ts = allowed_targets();
        assert_eq!(ts.len(), 12);
        assert!(ts.iter().any(|t| t.name() == "sb"));
        assert!(ts.iter().all(|t| t.name() != "mp"));
    }

    #[test]
    fn corpus_roundtrips_through_the_filesystem() {
        let dir = std::env::temp_dir().join(format!("perple-corpus-test-{}", std::process::id()));
        let written = write_corpus(&dir).unwrap();
        assert_eq!(written, 88);
        let loaded = load_corpus(&dir).unwrap();
        assert_eq!(loaded.len(), 88);
        // Same set of tests, independent of file ordering.
        let mut original = full();
        original.sort_by(|a, b| a.name().cmp(b.name()));
        let mut back = loaded;
        back.sort_by(|a, b| a.name().cmp(b.name()));
        assert_eq!(original, back);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_corpus_reports_missing_dir_and_bad_files() {
        assert!(load_corpus(std::path::Path::new("/nonexistent-xyz")).is_err());
        let dir = std::env::temp_dir().join(format!("perple-corpus-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("broken.litmus"), "not a litmus test").unwrap();
        let err = load_corpus(&dir).unwrap_err();
        assert!(err.contains("broken.litmus"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_suite_test_roundtrips_through_text() {
        for t in full() {
            let text = crate::printer::print(&t);
            let back =
                crate::parser::parse(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", t.name()));
            assert_eq!(t, back, "{}", t.name());
        }
    }
}
