//! Integer-only requantization of accumulator values (paper Eq. 5).
//!
//! After the integer matrix multiply, the int32 accumulator (plus int32 bias)
//! must be rescaled to the next layer's 8-bit activation grid:
//!
//! ```text
//! y_I = round((Σ a_I·w_I + b_I) · s_f),   s_f = s_y / (s_a · s_w)
//! ```
//!
//! On the accelerator this is done without floating point: `s_f` is encoded
//! as a 32-bit fixed-point multiplier and a right shift. [`Requantizer`]
//! reproduces that datapath bit-exactly and is what both the integer
//! inference engine and the accelerator simulator use.
//!
//! Integer side of the crate (see the crate docs): this file holds the
//! encoded multiplier/shift pair and its application; the one place `s_f`
//! exists as a real number, [`Requantizer::from_scale`], is in
//! [`crate::fold`].

/// Number of fractional bits used for the fixed-point requantization
/// multiplier (the paper stores `s_f` as a 32-bit integer; we use a Q1.30
/// normalised-mantissa encoding, the common HLS implementation).
pub(crate) const MULTIPLIER_FRAC_BITS: u32 = 30;

/// Largest representable right shift. Capped below 63 so that the rounding
/// term `1 << (shift - 1)` and the shift itself always stay inside the
/// product's integer width; scales too small for this shift fold the excess
/// into the multiplier instead (see [`Requantizer::from_scale`]).
pub(crate) const MAX_SHIFT: i32 = 62;

/// Fixed-point requantizer implementing Eq. 5 with integer arithmetic only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Requantizer {
    /// Normalised multiplier in Q1.30 (in `[2^29, 2^30]` for scales inside
    /// the normalised range; denormalised — possibly zero — for scales below
    /// `2^-32`, where the excess shift is folded in).
    pub(crate) multiplier: i64,
    /// Total right shift applied after the multiplication, always in
    /// `0..=MAX_SHIFT`.
    pub(crate) shift: i32,
    /// Output saturation bound (`2^(bits-1) - 1`).
    pub(crate) out_max: i32,
}

impl Requantizer {
    /// Requantizes one accumulator value to the output grid, using only
    /// integer multiply, add and shift (round-half-away-from-zero, saturating).
    ///
    /// The `accumulator · multiplier` product is formed in 128-bit integer
    /// arithmetic (a 64×33-bit product cannot overflow i128), so the full
    /// `i64` accumulator range is handled exactly — the previous 64-bit
    /// product overflowed for `|accumulator| ≳ 2^33` with a Q1.30 multiplier.
    pub fn apply(&self, accumulator: i64) -> i32 {
        let product = i128::from(accumulator) * i128::from(self.multiplier);
        // `shift` is clamped to 0..=MAX_SHIFT at construction, so both the
        // rounding term and the shift are always in range.
        let rounded = if self.shift > 0 {
            let half = 1i128 << (self.shift - 1);
            if product >= 0 {
                (product + half) >> self.shift
            } else {
                -((-product + half) >> self.shift)
            }
        } else {
            product
        };
        rounded.clamp(-i128::from(self.out_max), i128::from(self.out_max)) as i32
    }

    /// Requantizes a slice of accumulator values.
    pub fn apply_slice(&self, accumulators: &[i64]) -> Vec<i32> {
        accumulators.iter().map(|&a| self.apply(a)).collect()
    }

    /// Output saturation bound.
    pub fn out_max(&self) -> i32 {
        self.out_max
    }

    /// The fixed-point multiplier (Q1.30-normalised, always in
    /// `[0, 2^30]` — denormal folding for tiny scales only shrinks it).
    /// Together with [`Requantizer::shift`] this exposes the encoded
    /// datapath so a fused GEMM epilogue (e.g.
    /// `fqbert_tensor::gemm::gemm_i8_requant`) can reproduce
    /// [`Requantizer::apply`] bit-exactly without holding a `Requantizer`.
    pub fn multiplier(&self) -> i64 {
        self.multiplier
    }

    /// The post-multiply right shift, always in `0..=62`.
    pub fn shift(&self) -> i32 {
        self.shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_float_reference_within_one_lsb() {
        for &scale in &[0.0123f64, 0.37, 0.0009, 1.7, 5.3e-4] {
            let rq = Requantizer::from_scale(scale, 8).unwrap();
            for acc in [-100_000i64, -1234, -1, 0, 1, 999, 54_321, 1_000_000] {
                let float_ref = (acc as f64 * scale).round();
                let clamped = float_ref.clamp(-127.0, 127.0) as i32;
                let got = rq.apply(acc);
                assert!(
                    (got - clamped).abs() <= 1,
                    "scale {scale}, acc {acc}: {got} vs {clamped}"
                );
            }
        }
    }

    #[test]
    fn saturates_at_output_bounds() {
        let rq = Requantizer::from_scale(1.0, 8).unwrap();
        assert_eq!(rq.apply(1_000_000), 127);
        assert_eq!(rq.apply(-1_000_000), -127);
        assert_eq!(rq.out_max(), 127);
    }

    #[test]
    fn encoded_scale_is_close_to_requested() {
        for &scale in &[0.01f64, 0.5, 2.0, 1e-4] {
            let rq = Requantizer::from_scale(scale, 8).unwrap();
            let encoded = rq.multiplier() as f64 / f64::powi(2.0, rq.shift());
            let rel_err = (encoded - scale).abs() / scale;
            assert!(rel_err < 1e-6, "scale {scale}: rel err {rel_err}");
        }
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert!(Requantizer::from_scale(0.0, 8).is_err());
        assert!(Requantizer::from_scale(-1.0, 8).is_err());
        assert!(Requantizer::from_scale(f64::NAN, 8).is_err());
        assert!(Requantizer::from_scale(0.5, 1).is_err());
        assert!(Requantizer::from_scale(0.5, 32).is_err());
    }

    #[test]
    fn rounding_is_symmetric_around_zero() {
        let rq = Requantizer::from_scale(0.1, 8).unwrap();
        for acc in 1..500i64 {
            assert_eq!(rq.apply(acc), -rq.apply(-acc), "asymmetric at {acc}");
        }
    }

    #[test]
    fn four_bit_output_range() {
        let rq = Requantizer::from_scale(0.05, 4).unwrap();
        for acc in [-10_000i64, -500, 0, 500, 10_000] {
            let out = rq.apply(acc);
            assert!((-7..=7).contains(&out));
        }
    }

    #[test]
    fn tiny_scales_at_the_shift_boundary_do_not_panic() {
        // shift = 30 - exp; exp = -32 puts shift exactly at MAX_SHIFT = 62,
        // one octave below crosses the old panic threshold (shift > 63).
        for &scale in &[
            2.0f64.powi(-32),
            2.0f64.powi(-33),
            2.0f64.powi(-34),
            2.0f64.powi(-40),
            2.0f64.powi(-63),
            2.0f64.powi(-64),
            1e-300,
            f64::MIN_POSITIVE,
            5e-324, // smallest positive subnormal
        ] {
            let rq = Requantizer::from_scale(scale, 8).unwrap();
            for acc in [i64::MIN, -(1 << 40), -1, 0, 1, 1 << 40, i64::MAX] {
                let got = rq.apply(acc);
                let expected = (acc as f64 * scale).round().clamp(-127.0, 127.0) as i32;
                assert!(
                    (got - expected).abs() <= 1,
                    "scale {scale:e}, acc {acc}: {got} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn tiny_scale_still_requantizes_large_accumulators_accurately() {
        // 2^-40 · 2^48 = 256 → saturates at 127; 2^-40 · 3·2^45 = 96.
        let rq = Requantizer::from_scale(2.0f64.powi(-40), 8).unwrap();
        assert_eq!(rq.apply(1 << 48), 127);
        assert_eq!(rq.apply(3 << 45), 96);
        assert_eq!(rq.apply(-(3 << 45)), -96);
        assert_eq!(rq.apply(0), 0);
    }

    #[test]
    fn huge_scales_saturate_instead_of_overflowing_the_left_shift() {
        for &scale in &[2.0f64.powi(31), 1e30, 1e300, f64::MAX] {
            let rq = Requantizer::from_scale(scale, 8).unwrap();
            assert_eq!(rq.apply(1), 127, "scale {scale:e}");
            assert_eq!(rq.apply(-1), -127, "scale {scale:e}");
            assert_eq!(rq.apply(i64::MAX), 127);
            assert_eq!(rq.apply(0), 0);
        }
    }

    #[test]
    fn wide_accumulators_no_longer_overflow_the_product() {
        // With a Q1.30 multiplier the old i64 product overflowed for
        // |acc| ≳ 2^33; these must saturate cleanly instead.
        let rq = Requantizer::from_scale(0.5, 8).unwrap();
        for acc in [1i64 << 33, 1 << 40, i64::MAX, -(1 << 33), i64::MIN] {
            let expected = if acc > 0 { 127 } else { -127 };
            assert_eq!(rq.apply(acc), expected, "acc {acc}");
        }
        // Full int32-accumulator range at a scale small enough not to
        // saturate: compare against the float reference.
        let rq = Requantizer::from_scale(2.0f64.powi(-26), 8).unwrap();
        for acc in [
            i64::from(i32::MAX),
            i64::from(i32::MIN),
            1 << 30,
            -(1 << 30),
        ] {
            let expected = (acc as f64 * 2.0f64.powi(-26)).round().clamp(-127.0, 127.0) as i32;
            assert!((rq.apply(acc) - expected).abs() <= 1, "acc {acc}");
        }
    }

    #[test]
    fn apply_slice_matches_scalar() {
        let rq = Requantizer::from_scale(0.02, 8).unwrap();
        let accs = vec![-3000i64, -1, 0, 17, 2500];
        let out = rq.apply_slice(&accs);
        for (i, &a) in accs.iter().enumerate() {
            assert_eq!(out[i], rq.apply(a));
        }
    }
}
