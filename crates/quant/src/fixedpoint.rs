//! Signed fixed-point arithmetic shared by the softmax and layer-norm cores.
//!
//! The paper quantizes the softmax numerator/output and the layer-norm
//! parameters to 8-bit fixed point. [`Fixed`] models a signed fixed-point
//! value with a configurable number of fractional bits and saturating
//! arithmetic, which is how the HLS implementation behaves.
//!
//! Integer side of the crate (see the crate docs): this file holds the
//! integer operations and [`fixed_inv_sqrt`]; the conversions from and to
//! a real number are in [`crate::fold`].

use fqbert_tensor::gemm::kernels::scalar::inv_sqrt_fixed;

/// A signed fixed-point number: `value = raw / 2^frac_bits`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fixed {
    pub(crate) raw: i32,
    pub(crate) frac_bits: u32,
}

/// `wide / 2^shift`, rounded half away from zero and saturated to `i32`.
/// In `i64` neither the rounding add nor the negation can overflow for an
/// `i32`-ranged or `i32 × i32` operand.
fn round_shift(wide: i64, shift: u32) -> i32 {
    let half = if shift > 0 { 1i64 << (shift - 1) } else { 0 };
    let rounded = if wide >= 0 {
        (wide + half) >> shift
    } else {
        -((-wide + half) >> shift)
    };
    rounded.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32
}

impl Fixed {
    /// Creates a fixed-point value from its raw integer representation.
    pub fn from_raw(raw: i32, frac_bits: u32) -> Self {
        Self { raw, frac_bits }
    }

    /// Raw integer representation.
    pub fn raw(self) -> i32 {
        self.raw
    }

    /// Number of fractional bits.
    pub fn frac_bits(self) -> u32 {
        self.frac_bits
    }

    /// Saturating addition. Both operands must share the same format.
    ///
    /// # Panics
    ///
    /// Panics if the fractional bit counts differ.
    pub fn saturating_add(self, other: Fixed) -> Fixed {
        assert_eq!(
            self.frac_bits, other.frac_bits,
            "fixed-point formats must match for addition"
        );
        Fixed {
            raw: self.raw.saturating_add(other.raw),
            frac_bits: self.frac_bits,
        }
    }

    /// Saturating subtraction. Both operands must share the same format.
    ///
    /// # Panics
    ///
    /// Panics if the fractional bit counts differ.
    pub fn saturating_sub(self, other: Fixed) -> Fixed {
        assert_eq!(
            self.frac_bits, other.frac_bits,
            "fixed-point formats must match for subtraction"
        );
        Fixed {
            raw: self.raw.saturating_sub(other.raw),
            frac_bits: self.frac_bits,
        }
    }

    /// Fixed-point multiplication, keeping the left operand's format and
    /// rounding the dropped fraction bits.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Fixed) -> Fixed {
        Fixed {
            raw: round_shift(i64::from(self.raw) * i64::from(other.raw), other.frac_bits),
            frac_bits: self.frac_bits,
        }
    }

    /// Re-encodes the value with a different number of fractional bits,
    /// saturating when widening and rounding half away from zero when
    /// narrowing.
    pub fn rescale(self, frac_bits: u32) -> Fixed {
        let raw = if frac_bits >= self.frac_bits {
            self.raw.saturating_mul(1 << (frac_bits - self.frac_bits))
        } else {
            round_shift(i64::from(self.raw), self.frac_bits - frac_bits)
        };
        Fixed { raw, frac_bits }
    }
}

/// Integer inverse square root via Newton–Raphson on fixed-point values,
/// used by the quantized layer-norm core. Returns `1/sqrt(x)` for `x > 0`
/// encoded with `frac_bits` fractional bits. The iteration itself lives
/// beside the `Add & LN` kernels that run it once per row
/// (`fqbert_tensor::gemm::kernels::scalar::inv_sqrt_fixed`); this is its
/// [`Fixed`]-typed form.
///
/// # Panics
///
/// Panics if `x` is not strictly positive.
pub fn fixed_inv_sqrt(x: Fixed, iterations: u32) -> Fixed {
    let frac = x.frac_bits();
    Fixed::from_raw(inv_sqrt_fixed(x.raw(), frac, iterations), frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_conversion() {
        for &v in &[0.0f32, 1.5, -2.25, 0.125, 100.0, -0.0625] {
            let f = Fixed::from_f32(v, 12);
            assert!((f.to_f32() - v).abs() < 1.0 / 4096.0);
        }
    }

    #[test]
    fn addition_and_subtraction() {
        let a = Fixed::from_f32(1.25, 8);
        let b = Fixed::from_f32(0.5, 8);
        assert!((a.saturating_add(b).to_f32() - 1.75).abs() < 1e-3);
        assert!((a.saturating_sub(b).to_f32() - 0.75).abs() < 1e-3);
    }

    #[test]
    fn multiplication_accuracy() {
        let a = Fixed::from_f32(1.5, 12);
        let b = Fixed::from_f32(-2.25, 12);
        assert!((a.mul(b).to_f32() + 3.375).abs() < 1e-2);
    }

    #[test]
    fn saturation_does_not_wrap() {
        let a = Fixed::from_raw(i32::MAX, 8);
        let b = Fixed::from_raw(1, 8);
        assert_eq!(a.saturating_add(b).raw(), i32::MAX);
        let c = Fixed::from_raw(i32::MIN, 8);
        assert_eq!(c.saturating_sub(b).raw(), i32::MIN);
    }

    #[test]
    fn rescale_preserves_value() {
        let a = Fixed::from_f32(3.75, 8);
        let b = a.rescale(12);
        assert!((b.to_f32() - 3.75).abs() < 1e-3);
        let c = b.rescale(4);
        assert!((c.to_f32() - 3.75).abs() < 0.07);
    }

    #[test]
    fn rescale_rounds_away_from_zero_over_the_whole_raw_range() {
        // `i32::MIN` is what `mul` saturates a downward overflow to; its
        // negation does not fit `i32`, and used to come back positive.
        assert_eq!(Fixed::from_raw(i32::MIN, 16).rescale(0).raw(), -32_768);
        assert_eq!(Fixed::from_raw(i32::MAX, 16).rescale(0).raw(), 32_768);
        assert_eq!(Fixed::from_raw(i32::MIN, 31).rescale(30).raw(), -(1 << 30));
        for &(raw, want) in &[(98_304, 2), (-98_304, -2), (32_767, 0), (-32_768, -1)] {
            assert_eq!(Fixed::from_raw(raw, 16).rescale(0).raw(), want, "{raw}");
        }
    }

    #[test]
    fn three_halves_is_the_same_integer_on_every_grid() {
        assert_eq!(Fixed::from_raw(3, 1).rescale(16).raw(), 98_304);
        for frac in 0..32 {
            assert_eq!(
                Fixed::from_raw(3, 1).rescale(frac),
                Fixed::from_f32(1.5, frac),
                "Q{frac}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "formats must match")]
    fn mismatched_formats_panic_on_add() {
        let _ = Fixed::from_f32(1.0, 8).saturating_add(Fixed::from_f32(1.0, 10));
    }

    #[test]
    fn inv_sqrt_matches_float_reference() {
        for &v in &[0.25f32, 1.0, 2.0, 4.0, 9.0, 16.0, 100.0] {
            let x = Fixed::from_f32(v, 16);
            let y = fixed_inv_sqrt(x, 12);
            let expected = 1.0 / v.sqrt();
            let rel = (y.to_f32() - expected).abs() / expected;
            assert!(
                rel < 0.02,
                "1/sqrt({v}): got {} want {expected}",
                y.to_f32()
            );
        }
    }

    /// The Newton iteration as it was first written — [`Fixed`] operations,
    /// every one of `iterations` steps taken — against which the kernels'
    /// raw-integer, early-stopping form is checked.
    fn newton_every_step(x: Fixed, iterations: u32) -> Fixed {
        let frac = x.frac_bits();
        let value_log2 = 31 - x.raw().leading_zeros() as i32 - frac as i32;
        let guess_log2 = -(value_log2 + 1).div_euclid(2);
        let mut y = Fixed::from_raw(1i32 << (frac as i32 + guess_log2).clamp(0, 30), frac);
        let three_halves = Fixed::from_raw(3, 1).rescale(frac);
        let half_x = Fixed::from_raw(x.raw() / 2, frac);
        for _ in 0..iterations {
            let correction = three_halves.saturating_sub(half_x.mul(y.mul(y)));
            y = if correction.raw() <= 0 {
                Fixed::from_raw(y.raw() / 2, frac)
            } else {
                y.mul(correction)
            };
        }
        y
    }

    #[test]
    fn stopping_at_a_repeated_iterate_changes_no_result() {
        let check = |raw: i32| {
            let x = Fixed::from_raw(raw, 16);
            assert_eq!(fixed_inv_sqrt(x, 20), newton_every_step(x, 20), "x = {raw}");
        };
        // A strided sweep of the whole positive range at the layer norm's
        // Q16 (56 k points), the small inputs densely, and the inputs whose
        // truncated first guess used to converge to the negative root:
        // x in [3, 4) and [12, 16).
        (1..=i32::MAX).step_by(38_347).for_each(check);
        (1..=4_096).for_each(check);
        (3 << 16..4 << 16).step_by(97).for_each(check);
        (12 << 16..16 << 16).step_by(97).for_each(check);
        check(i32::MAX);
        // Fewer steps than convergence takes, and other grids, agree too.
        for frac in [0u32, 1, 8, 12, 24, 30] {
            for iterations in [0u32, 1, 2, 5, 20] {
                for raw in [1, 2, 3, 1 << 10, 12_345_678, i32::MAX] {
                    let x = Fixed::from_raw(raw, frac);
                    assert_eq!(
                        fixed_inv_sqrt(x, iterations),
                        newton_every_step(x, iterations),
                        "x = {raw} at Q{frac}, {iterations} steps"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive input")]
    fn inv_sqrt_rejects_non_positive() {
        let _ = fixed_inv_sqrt(Fixed::from_f32(0.0, 16), 4);
    }

    #[test]
    fn display_contains_format() {
        let s = Fixed::from_f32(1.5, 8).to_string();
        assert!(s.contains("Q.8"));
    }
}
