//! A tiny, fast, seedable PRNG for the simulator's hot loop.
//!
//! The simulator draws several random numbers per simulated cycle and runs
//! for up to hundreds of millions of cycles, so it uses an inlined
//! xorshift64* generator instead of `rand`'s ChaCha-based `StdRng` (roughly
//! an order of magnitude faster, and deterministic across platforms, which
//! experiment reproducibility requires). Quality is far beyond what
//! scheduling noise needs.
//!
//! **Exact integer thresholds.** [`XorShiftStar::chance`] compares the top
//! 53 bits of a draw, scaled by `2⁻⁵³`, against `p`. The scaling is exact
//! (a 53-bit integer times a power of two), and so is `p · 2⁵³`, so
//! `top53 · 2⁻⁵³ < p` holds exactly when `top53 < ceil(p · 2⁵³)`. A
//! [`Threshold`] precomputes that integer once per probability, and
//! [`XorShiftStar::hits`] then makes the same draws and returns the same
//! answers as `chance(p)` with one integer compare and no float work —
//! including the no-draw cases `p ≤ 0` and `p ≥ 1`, and NaN, which draws
//! and never hits.

/// `2⁵³`, the scale of the 53-bit uniform behind [`XorShiftStar::chance`].
const TWO_POW_53: f64 = (1u64 << 53) as f64;

/// A Bernoulli probability precomputed for [`XorShiftStar::hits`] (see the
/// module docs): draw-for-draw the same as [`XorShiftStar::chance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threshold {
    /// `p ≤ 0`: never hits, draws nothing.
    Never,
    /// `p ≥ 1`: always hits, draws nothing.
    Always,
    /// Draws once and hits iff the draw's top 53 bits are below the bound
    /// `ceil(p · 2⁵³)`.
    Below(u64),
}

impl Threshold {
    /// The threshold of probability `p`.
    pub fn new(p: f64) -> Self {
        if p <= 0.0 {
            Threshold::Never
        } else if p >= 1.0 {
            Threshold::Always
        } else {
            // NaN reaches here too and casts to 0: a draw that never hits,
            // exactly like `chance(NaN)`.
            Threshold::Below((p * TWO_POW_53).ceil() as u64)
        }
    }
}

/// xorshift64* pseudo-random generator (Vigna 2016).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorShiftStar {
    state: u64,
}

impl XorShiftStar {
    /// Creates a generator from a seed; a zero seed is remapped (xorshift
    /// state must be non-zero).
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // Compare against the top 53 bits as a uniform in [0,1).
        let u = (self.next_u64() >> 11) as f64 * (1.0 / TWO_POW_53);
        u < p
    }

    /// Bernoulli draw against a precomputed [`Threshold`]: the same draws
    /// and results as [`XorShiftStar::chance`] of its probability.
    #[inline]
    pub fn hits(&mut self, threshold: Threshold) -> bool {
        match threshold {
            Threshold::Never => false,
            Threshold::Always => true,
            Threshold::Below(bound) => self.next_u64() >> 11 < bound,
        }
    }

    /// Uniform draw in `[0, n)`; returns 0 when `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            // Multiply-shift range reduction (Lemire); bias is negligible
            // for scheduling noise.
            ((self.next_u64() as u128 * n as u128) >> 64) as u64
        }
    }

    /// Geometric-ish duration with the given mean: uniform in
    /// `[1, 2*mean]`, cheap and sufficient for scheduling noise.
    #[inline]
    pub fn duration(&mut self, mean: u64) -> u64 {
        if mean == 0 {
            0
        } else {
            1 + self.below(2 * mean)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = XorShiftStar::new(7);
        let mut b = XorShiftStar::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = XorShiftStar::new(1);
        let mut b = XorShiftStar::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut r = XorShiftStar::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = XorShiftStar::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_mean_is_roughly_p() {
        let mut r = XorShiftStar::new(11);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn thresholds_agree_with_chance_draw_for_draw() {
        let ps = [
            0.0,
            1.0,
            -0.5,
            1.5,
            f64::NAN,
            2f64.powi(-60),
            1.0 - 2f64.powi(-53),
            0.35,
            0.12,
            4e-3,
            2e-4,
        ];
        for p in ps {
            let threshold = Threshold::new(p);
            let mut by_float = XorShiftStar::new(0x5EED);
            let mut by_int = by_float.clone();
            for draw in 0..20_000 {
                assert_eq!(
                    by_float.chance(p),
                    by_int.hits(threshold),
                    "p={p} draw {draw}: answers differ"
                );
                assert_eq!(by_float, by_int, "p={p} draw {draw}: draws differ");
            }
            // The bound is the exact boundary: its predecessor passes the
            // float compare and the bound itself does not.
            if let Threshold::Below(bound) = threshold {
                let scaled = |top53: u64| top53 as f64 * (1.0 / TWO_POW_53);
                assert!(
                    p.is_nan() || scaled(bound) >= p,
                    "p={p}: bound {bound} hits"
                );
                if bound > 0 {
                    assert!(scaled(bound - 1) < p, "p={p}: bound {bound} too low");
                }
            }
        }
        assert_eq!(Threshold::new(0.0), Threshold::Never);
        assert_eq!(Threshold::new(-0.5), Threshold::Never);
        assert_eq!(Threshold::new(1.0), Threshold::Always);
        assert_eq!(Threshold::new(1.5), Threshold::Always);
        assert_eq!(Threshold::new(f64::NAN), Threshold::Below(0));
        assert_eq!(Threshold::new(2f64.powi(-60)), Threshold::Below(1));
        assert_eq!(
            Threshold::new(1.0 - 2f64.powi(-53)),
            Threshold::Below((1 << 53) - 1)
        );
    }

    #[test]
    fn below_stays_in_range_and_covers() {
        let mut r = XorShiftStar::new(5);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = r.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn duration_bounds() {
        let mut r = XorShiftStar::new(9);
        for _ in 0..1_000 {
            let d = r.duration(100);
            assert!((1..=200).contains(&d));
        }
        assert_eq!(r.duration(0), 0);
    }
}
