//! Pins every converted outcome: for each test of the hand-written suite
//! and of the generated corpus that [`Conversion::convert`] accepts, the
//! `Debug` rendering of its target and of the exhaustive form of every
//! [`Conversion::all_outcomes`] entry is folded into one FNV-1a digest. Conds order, existential-thread
//! order and the `infeasible` flag are all part of the rendering, so any
//! drift in the conversion — and hence in the generated C, the heuristic
//! plans and the reads-from counter's compiled features — changes it.
//!
//! A change that moves the digest changed what the converter emits; it is
//! not a golden to update.

use perple_convert::Conversion;
use perple_model::generate::generate_corpus;
use perple_model::{suite, LitmusTest};

/// FNV-1a 64 over `bytes`, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// (convertible tests, digest) over `tests`.
fn digest(tests: &[LitmusTest]) -> (usize, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut count = 0;
    for test in tests {
        let Ok(conv) = Conversion::convert(test) else {
            continue;
        };
        count += 1;
        h = fnv(h, test.name().as_bytes());
        h = fnv(h, format!("{:?}", conv.target_exhaustive).as_bytes());
        let all = conv.all_outcomes(test);
        let exhaustive: Vec<_> = all.iter().map(|(o, _)| o).collect();
        // The digests were pinned over the `Ok(..)` rendering of a
        // `Result`-returning outcome list; the wrapper keeps those bytes.
        h = fnv(h, format!("Ok({exhaustive:?})").as_bytes());
    }
    (count, h)
}

#[test]
fn suite_conversions_are_pinned() {
    let tests = suite::full();
    assert_eq!(tests.len(), 88);
    assert_eq!(digest(&tests), (34, 0x72c8_e3bb_18fc_0377));
}

#[test]
fn generated_corpus_conversions_are_pinned() {
    let tests = generate_corpus(6, 4);
    assert_eq!(tests.len(), 1228);
    assert_eq!(digest(&tests), (536, 0x089b_8834_7784_ee2a));
}
