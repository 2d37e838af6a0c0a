//! The float side of the executed path: every place a real number — a
//! calibrated scale, an exponential, a float parameter — is folded, once,
//! into the integers the datapath is applied with.
//!
//! | here (float by nature) | applied in (integers only) |
//! |---|---|
//! | [`Requantizer::from_scale`] | [`crate::requant`]: `apply`, `apply_slice` |
//! | [`SoftmaxLut::new`] | [`crate::softmax_lut`]: the oracle `apply_row` / `apply_matrix`; the engine's rows are the `softmax` entry of a kernel row of `fqbert_tensor::gemm::kernels`, computed from the `SoftmaxParams` it stores |
//! | [`QuantizedLayerNorm`] and its [`QuantizedLayerNorm::fold`] | [`crate::layernorm_q`]: [`AddLayerNorm::apply`], dispatching to a kernel row of `fqbert_tensor::gemm::kernels` |
//! | [`Fixed::from_f32`], [`Fixed::to_f32`], `Display` | [`crate::fixedpoint`]: the arithmetic, `fixed_inv_sqrt` (a wrapper over the kernels' `inv_sqrt_fixed`) |
//!
//! [`QuantizedLayerNorm::apply_residual`], the one-row oracle of `Add & LN`,
//! is here too because it takes the scales; it folds and then runs the
//! scalar kernel row unconditionally.
//!
//! fqlint's `float-escape` rule covers the four files on the right and not
//! this one, so a float on the apply side is a finding with no suppression
//! to hide behind, and none is needed here.

use crate::fixedpoint::Fixed;
use crate::layernorm_q::{AddLayerNorm, INTERNAL_FRAC_BITS};
use crate::requant::{Requantizer, MAX_SHIFT, MULTIPLIER_FRAC_BITS};
use crate::softmax_lut::{SoftmaxLut, LUT_ENTRIES};
use crate::{QuantError, Result};
use fqbert_tensor::gemm::kernels::scalar;
use fqbert_tensor::gemm::{AddNormParams, SoftmaxParams};
use std::fmt;

impl Fixed {
    /// Converts a real number, rounding to the nearest representable value
    /// and saturating at the `i32` raw range.
    pub fn from_f32(value: f32, frac_bits: u32) -> Self {
        // fqlint::allow(narrowing-cast): `frac_bits` is a bit-shift
        // amount, always < 32.
        let scaled = (value as f64 * f64::powi(2.0, frac_bits as i32)).round();
        let raw = scaled.clamp(i32::MIN as f64, i32::MAX as f64) as i32;
        Self { raw, frac_bits }
    }

    /// Converts back to `f32`.
    pub fn to_f32(self) -> f32 {
        // fqlint::allow(narrowing-cast): `frac_bits` is a bit-shift
        // amount, always < 32.
        self.raw as f32 / f32::powi(2.0, self.frac_bits as i32)
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (Q.{})", self.to_f32(), self.frac_bits)
    }
}

impl Requantizer {
    /// Builds a requantizer for the effective scale
    /// `s_f = s_y / (s_a · s_w)` and an output bit-width.
    ///
    /// Every positive finite scale is representable: for scales so small
    /// that the normalised shift would exceed `MAX_SHIFT = 62` (below
    /// roughly `2^-32`) the excess is folded into the multiplier with rounded
    /// halving — down to a zero multiplier for scales under `~2^-63`, where
    /// rounding every representable accumulator to zero *is* the correct
    /// result. For huge scales whose normalised shift would go negative
    /// (scale ≥ `2^30`), the shift is clamped to zero; the multiplier alone
    /// then already exceeds every supported output bound, so all non-zero
    /// accumulators saturate exactly as they would with the true scale.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidScale`] if `effective_scale` is not a
    /// positive finite number, or [`QuantError::UnsupportedBitWidth`] for an
    /// output width outside `2..=16`.
    pub fn from_scale(effective_scale: f64, out_bits: u32) -> Result<Self> {
        if !(effective_scale.is_finite() && effective_scale > 0.0) {
            return Err(QuantError::InvalidScale(effective_scale as f32));
        }
        if !(2..=16).contains(&out_bits) {
            return Err(QuantError::UnsupportedBitWidth(out_bits));
        }
        // Normalise the scale into [0.5, 1.0) × 2^exp.
        let mut scale = effective_scale;
        let mut exp = 0i32;
        while scale >= 1.0 {
            scale /= 2.0;
            exp += 1;
        }
        while scale < 0.5 {
            scale *= 2.0;
            exp -= 1;
        }
        let mut multiplier = (scale * f64::from(1u32 << MULTIPLIER_FRAC_BITS)).round() as i64;
        // fqlint::allow(narrowing-cast): `MULTIPLIER_FRAC_BITS` is a
        // bit-shift amount < 32.
        let mut shift = MULTIPLIER_FRAC_BITS as i32 - exp;
        if shift > MAX_SHIFT {
            // Tiny scale: fold the unrepresentable part of the shift into
            // the multiplier (rounded halving; underflows to 0 for scales
            // below ~2^-63, which maps every accumulator to the correctly
            // rounded output 0).
            let excess = shift - MAX_SHIFT;
            multiplier = if excess >= 63 {
                0
            } else {
                (multiplier + (1i64 << (excess - 1))) >> excess
            };
            shift = MAX_SHIFT;
        } else if shift < 0 {
            // Huge scale: with the Q1.30 multiplier ≥ 2^29 > out_max, every
            // non-zero accumulator saturates whether the product is shifted
            // left or not, so clamping the shift to 0 changes no output.
            shift = 0;
        }
        Ok(Self {
            multiplier,
            shift,
            out_max: (1i32 << (out_bits - 1)) - 1,
        })
    }
}

impl SoftmaxLut {
    /// Builds the lookup table for input scores quantized with
    /// `input_scale` levels per unit, producing probabilities quantized to
    /// `out_levels` levels (so an output code `c` represents `c / out_levels`).
    /// The exponential is evaluated once per entry here; inference only
    /// indexes the table.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidScale`] for a non-positive input scale or
    /// [`QuantError::InvalidArgument`] for `out_levels` outside `1..=255`.
    pub fn new(input_scale: f32, out_levels: u32) -> Result<Self> {
        if !(input_scale.is_finite() && input_scale > 0.0) {
            return Err(QuantError::InvalidScale(input_scale));
        }
        if !(1..=255).contains(&out_levels) {
            return Err(QuantError::InvalidArgument(format!(
                "out_levels must be in 1..=255, got {out_levels}"
            )));
        }
        let table: [u8; LUT_ENTRIES] = std::array::from_fn(|d| {
            let x = -(d as f32) / input_scale;
            (x.exp() * 255.0).round().clamp(0.0, 255.0) as u8
        });
        // `table[0]` is `exp(0) · 255 = 255` and `out_levels` was checked
        // above, so the plain-integer form accepts both.
        Ok(Self {
            params: SoftmaxParams::new(table, out_levels)?,
        })
    }
}

/// Fractional bits used to store the 8-bit gamma/beta parameters.
pub(crate) const PARAM_FRAC_BITS: u32 = 6;

/// The parameters of a layer-norm layer as the paper stores them: `gamma`
/// and `beta` as 8-bit fixed-point codes, and the epsilon. Folded with the
/// scales of one `Add & LN` block ([`QuantizedLayerNorm::fold`]) it becomes
/// the integer-only [`AddLayerNorm`] the datapath applies.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedLayerNorm {
    gamma: Vec<i8>,
    beta: Vec<i8>,
    eps: f32,
}

/// Parameter codes re-encoded on the internal fixed-point grid.
fn to_internal(codes: &[i8]) -> Vec<i32> {
    let on_grid = |c| Fixed::from_raw(i32::from(c), PARAM_FRAC_BITS).rescale(INTERNAL_FRAC_BITS);
    codes.iter().map(|&c| on_grid(c).raw()).collect()
}

impl QuantizedLayerNorm {
    /// Quantizes float `gamma`/`beta` parameters into the 8-bit fixed-point
    /// representation used on the accelerator.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidArgument`] if the parameter vectors have
    /// different lengths or are empty.
    pub fn from_float(gamma: &[f32], beta: &[f32], eps: f32) -> Result<Self> {
        // fqlint::allow(narrowing-cast): `PARAM_FRAC_BITS` is a bit-shift
        // amount < 32.
        let quantize = |v: f32| -> i8 {
            (v * f32::powi(2.0, PARAM_FRAC_BITS as i32))
                .round()
                .clamp(i8::MIN as f32, i8::MAX as f32) as i8
        };
        Self::from_codes(
            gamma.iter().copied().map(quantize).collect(),
            beta.iter().copied().map(quantize).collect(),
            eps,
        )
    }

    /// Reassembles a layer norm from stored parameter codes (the inverse of
    /// [`QuantizedLayerNorm::gamma_codes`]/[`QuantizedLayerNorm::beta_codes`]
    /// plus [`QuantizedLayerNorm::eps`]), used when loading model artifacts.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidArgument`] if the code vectors have
    /// different lengths or are empty.
    pub fn from_codes(gamma: Vec<i8>, beta: Vec<i8>, eps: f32) -> Result<Self> {
        if gamma.len() != beta.len() || gamma.is_empty() {
            return Err(QuantError::InvalidArgument(format!(
                "gamma ({}) and beta ({}) must be equal-length and non-empty",
                gamma.len(),
                beta.len()
            )));
        }
        Ok(Self { gamma, beta, eps })
    }

    /// The epsilon added to the variance.
    pub fn eps(&self) -> f32 {
        self.eps
    }

    /// Hidden size normalised over.
    pub fn hidden(&self) -> usize {
        self.gamma.len()
    }

    /// The quantized gamma codes (Q2.5 fixed point).
    pub fn gamma_codes(&self) -> &[i8] {
        &self.gamma
    }

    /// The quantized beta codes (Q2.5 fixed point).
    pub fn beta_codes(&self) -> &[i8] {
        &self.beta
    }

    /// Folds these parameters with the scales of one `Add & LN` block into
    /// its integer-only form: operand `a` arrives as int8 codes with
    /// `scale_a` levels per unit (value = code / scale), operand `b` with
    /// `scale_b`, and the output is requantized to int8 codes with
    /// `out_scale` levels per unit. This is the only place the three scales
    /// are looked at, so it is where an invalid one is refused.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidScale`] for a scale that is not a
    /// positive finite number.
    pub fn fold(&self, scale_a: f32, scale_b: f32, out_scale: f32) -> Result<AddLayerNorm> {
        for &s in &[scale_a, scale_b, out_scale] {
            if !(s.is_finite() && s > 0.0) {
                return Err(QuantError::InvalidScale(s));
            }
        }
        // An operand code dequantizes to `code · (1 / scale)` on the
        // internal grid: `Fixed::from_raw(code, 0).rescale(Q).mul(inv)`
        // shifts the code up by `Q` bits and the product back down by as
        // many, dropping no bit, so it is `code.saturating_mul(inv.raw())` —
        // one grid step per operand is the whole dequantization.
        let step = |scale: f32| Fixed::from_f32(1.0 / scale, INTERNAL_FRAC_BITS).raw();
        // At least one step of the grid, so `var + eps` is positive.
        let eps = self.eps.max(1.0 / (1 << INTERNAL_FRAC_BITS) as f32);
        let params = AddNormParams::new(
            step(scale_a),
            step(scale_b),
            to_internal(&self.gamma),
            to_internal(&self.beta),
            Fixed::from_f32(eps, INTERNAL_FRAC_BITS).raw(),
            Fixed::from_f32(out_scale, INTERNAL_FRAC_BITS).raw(),
        )?;
        Ok(AddLayerNorm { params })
    }

    /// The one-row oracle of the `Add & LN` block: folds the three scales
    /// and applies the result to rows `a` and `b`, returning the output
    /// codes. The encoder layer folds once at assembly and applies whole
    /// matrices on the selected kernel row; this is one row and one fold
    /// per call on the **scalar** row, whatever kernel is selected, so a
    /// test that compares the two never compares a kernel with itself.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidArgument`] if the row lengths do not match
    /// the parameter length, or [`QuantError::InvalidScale`] for non-positive
    /// scales.
    pub fn apply_residual(
        &self,
        a: &[i8],
        scale_a: f32,
        b: &[i8],
        scale_b: f32,
        out_scale: f32,
    ) -> Result<Vec<i8>> {
        let folded = self.fold(scale_a, scale_b, out_scale)?;
        // One output row: operands of any other length are refused.
        let mut out = vec![0i8; self.hidden()];
        let hidden = folded.check_rows(&out, a, b)?;
        scalar::add_norm_rows(&folded.params, &mut vec![0; hidden], a, b, &mut out);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The operand table `fold` used to build: every code multiplied out
    /// through [`Fixed`].
    fn table(scale: f32) -> [i32; 256] {
        let inv = Fixed::from_f32(1.0 / scale, INTERNAL_FRAC_BITS);
        std::array::from_fn(|i| {
            let code = i as i32 - 128;
            Fixed::from_raw(code, 0)
                .rescale(INTERNAL_FRAC_BITS)
                .mul(inv)
                .raw()
        })
    }

    /// Operand scales from 1e-3 to 1e3 levels per unit, eight per decade;
    /// below about 0.0039 a step is past `2³¹ / 128` and `±128 · step`
    /// saturates.
    fn scales() -> impl Iterator<Item = f32> {
        (-24..=24).map(|e| 10f32.powf(e as f32 / 8.0))
    }

    #[test]
    fn an_operand_table_is_its_code_times_one_step() {
        let mut saturated = 0;
        for scale in scales() {
            let step = Fixed::from_f32(1.0 / scale, INTERNAL_FRAC_BITS).raw();
            for (i, &value) in table(scale).iter().enumerate() {
                let code = i as i32 - 128;
                assert_eq!(
                    value,
                    code.saturating_mul(step),
                    "scale {scale}, code {code}"
                );
            }
            saturated += usize::from(step.checked_mul(-128).is_none());
        }
        assert!(saturated > 0, "the sweep must reach saturating steps");
    }

    /// The SIMD envelope `AddNormParams::new` computes from two steps is the
    /// one the two tables gave: `S = max |table_a| + max |table_b|`, inside
    /// when `2·S ≤ i32::MAX` and `hidden · (2·S)² ≤ i64::MAX`.
    #[test]
    fn the_envelope_from_steps_is_the_envelope_from_tables() {
        let ln = |hidden: usize| {
            QuantizedLayerNorm::from_codes(vec![32; hidden], vec![0; hidden], 1e-5).expect("ln")
        };
        let reach = |scale: f32| {
            let max = table(scale).iter().map(|v| v.unsigned_abs()).max();
            u128::from(max.expect("256 entries"))
        };
        let (mut inside, mut outside) = (0, 0);
        for hidden in [1usize, 256, 768, 4096] {
            let ln = ln(hidden);
            for scale_a in scales() {
                for scale_b in scales().step_by(5) {
                    let spread = 2 * (reach(scale_a) + reach(scale_b));
                    let from_tables = spread <= i32::MAX as u128
                        && spread.pow(2) * hidden as u128 <= i64::MAX as u128;
                    let folded = ln.fold(scale_a, scale_b, 25.0).expect("fold");
                    assert_eq!(
                        folded.params.simd_exact(),
                        from_tables,
                        "scales {scale_a}, {scale_b} at hidden {hidden}"
                    );
                    if from_tables {
                        inside += 1;
                    } else {
                        outside += 1;
                    }
                }
            }
        }
        assert!(
            inside > 0 && outside > 0,
            "{inside} inside, {outside} outside"
        );
    }
}
