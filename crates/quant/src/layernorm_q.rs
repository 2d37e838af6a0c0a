//! Integer / fixed-point layer normalization (paper §III-B, LN Core).
//!
//! The accelerator's LN core is a coarse-grained, 3-stage SIMD pipeline:
//!
//! 1. consume **two** input vectors with their scaling factors (the residual
//!    and the sub-layer output of the `Add & LN` block), produce their sum
//!    and its mean;
//! 2. subtract the mean and compute the variance;
//! 3. apply the element-wise `gamma * (x - mean) / sqrt(var + eps) + beta`
//!    multiplication and requantize to 8-bit.
//!
//! [`QuantizedLayerNorm`] reproduces those three stages with fixed-point
//! arithmetic only ([`Fixed`] values and the Newton–Raphson
//! [`fixed_inv_sqrt`]); `gamma` and `beta` are stored as the 8-bit
//! fixed-point parameters the paper describes.

use crate::fixedpoint::{fixed_inv_sqrt, Fixed};
use crate::{QuantError, Result};

/// Fractional bits used for the internal fixed-point pipeline.
const INTERNAL_FRAC_BITS: u32 = 16;
/// Fractional bits used to store the 8-bit gamma/beta parameters.
const PARAM_FRAC_BITS: u32 = 6;

/// A layer-norm layer whose parameters and arithmetic are fully quantized.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedLayerNorm {
    gamma: Vec<i8>,
    beta: Vec<i8>,
    /// `gamma` / `beta` on the internal Q16 grid, as stage 3 consumes them.
    gamma_q16: Vec<Fixed>,
    beta_q16: Vec<Fixed>,
    eps: f32,
}

/// Parameter codes re-encoded on the internal fixed-point grid.
fn to_internal(codes: &[i8]) -> Vec<Fixed> {
    codes
        .iter()
        .map(|&c| Fixed::from_raw(i32::from(c), PARAM_FRAC_BITS).rescale(INTERNAL_FRAC_BITS))
        .collect()
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
        if gamma.len() != beta.len() || gamma.is_empty() {
            return Err(QuantError::InvalidArgument(format!(
                "gamma ({}) and beta ({}) must be equal-length and non-empty",
                gamma.len(),
                beta.len()
            )));
        }
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
                "gamma ({}) and beta ({}) codes must be equal-length and non-empty",
                gamma.len(),
                beta.len()
            )));
        }
        Ok(Self {
            gamma_q16: to_internal(&gamma),
            beta_q16: to_internal(&beta),
            gamma,
            beta,
            eps,
        })
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

    /// Dequantized gamma values (for comparison against the float reference).
    pub fn gamma_f32(&self) -> Vec<f32> {
        // fqlint::allow(narrowing-cast): `PARAM_FRAC_BITS` is a bit-shift
        // amount < 32.
        self.gamma
            .iter()
            .map(|&g| g as f32 / f32::powi(2.0, PARAM_FRAC_BITS as i32))
            .collect()
    }

    /// Dequantized beta values.
    pub fn beta_f32(&self) -> Vec<f32> {
        // fqlint::allow(narrowing-cast): `PARAM_FRAC_BITS` is a bit-shift
        // amount < 32.
        self.beta
            .iter()
            .map(|&b| b as f32 / f32::powi(2.0, PARAM_FRAC_BITS as i32))
            .collect()
    }

    /// Runs the 3-stage `Add & LN` pipeline on two quantized input rows.
    ///
    /// `a` and `b` are int8 codes with scales `scale_a` / `scale_b`
    /// (values = code / scale). The output is requantized to int8 codes with
    /// `out_scale` levels per unit.
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
        if a.len() != self.hidden() || b.len() != self.hidden() {
            return Err(QuantError::InvalidArgument(format!(
                "input rows of {} / {} elements do not match hidden size {}",
                a.len(),
                b.len(),
                self.hidden()
            )));
        }
        let mut out = vec![0i8; self.hidden()];
        self.apply_residual_into(&mut out, a, scale_a, b, scale_b, out_scale)?;
        Ok(out)
    }

    /// [`QuantizedLayerNorm::apply_residual`] over whole matrices, into a
    /// caller-owned buffer: `a`, `b` and `out` hold the same number of
    /// `hidden`-wide rows, and row `i` of `out` is the `Add & LN` of rows
    /// `i` of `a` and `b`. The scale constants are folded once per call and
    /// nothing is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidArgument`] if the three buffers differ
    /// in length or are not whole rows, or [`QuantError::InvalidScale`] for
    /// non-positive scales.
    pub fn apply_residual_into(
        &self,
        out: &mut [i8],
        a: &[i8],
        scale_a: f32,
        b: &[i8],
        scale_b: f32,
        out_scale: f32,
    ) -> Result<()> {
        let hidden = self.hidden();
        if a.len() != out.len() || b.len() != out.len() || !out.len().is_multiple_of(hidden) {
            return Err(QuantError::InvalidArgument(format!(
                "inputs of {} / {} elements and an output of {} are not equal \
                 numbers of {hidden}-wide rows",
                a.len(),
                b.len(),
                out.len()
            )));
        }
        for &s in &[scale_a, scale_b, out_scale] {
            if !(s.is_finite() && s > 0.0) {
                return Err(QuantError::InvalidScale(s));
            }
        }
        let n = hidden as i64;
        let eps = Fixed::from_f32(
            self.eps.max(1.0 / (1 << INTERNAL_FRAC_BITS) as f32),
            INTERNAL_FRAC_BITS,
        );
        let out_scale = Fixed::from_f32(out_scale, INTERNAL_FRAC_BITS);
        // An operand code takes 256 values, so its dequantized value on the
        // internal grid is tabulated once per call instead of multiplied
        // out per element.
        let dequantized = |scale: f32| -> [Fixed; 256] {
            let inv = Fixed::from_f32(1.0 / scale, INTERNAL_FRAC_BITS);
            let mut code = i32::from(i8::MIN);
            [(); 256].map(|()| {
                let value = Fixed::from_raw(code, 0)
                    .rescale(INTERNAL_FRAC_BITS)
                    .mul(inv);
                code += 1;
                value
            })
        };
        let (values_a, values_b) = (dequantized(scale_a), dequantized(scale_b));
        let at = |code: i8| usize::from((i16::from(code) - i16::from(i8::MIN)).unsigned_abs());
        let summed = |xa: i8, xb: i8| values_a[at(xa)].saturating_add(values_b[at(xb)]);

        let rows = a.chunks_exact(hidden).zip(b.chunks_exact(hidden));
        for (out, (a, b)) in out.chunks_exact_mut(hidden).zip(rows) {
            // Stage 1: add the two operands and accumulate the mean.
            let total: i64 = a
                .iter()
                .zip(b)
                .map(|(&xa, &xb)| i64::from(summed(xa, xb).raw()))
                .sum();
            // fqlint::allow(narrowing-cast): the mean of `i32`-ranged raw
            // values is itself in `i32` range.
            let mean = Fixed::from_raw((total / n) as i32, INTERNAL_FRAC_BITS);

            // Stage 2: subtract the mean and accumulate the variance in a
            // wide integer with 2*frac bits, renormalised once at the end.
            let var_acc: i64 = a
                .iter()
                .zip(b)
                .map(|(&xa, &xb)| {
                    let c = i64::from(summed(xa, xb).saturating_sub(mean).raw());
                    c * c
                })
                .sum();
            let var_raw = (var_acc / n) >> INTERNAL_FRAC_BITS;
            let var = Fixed::from_raw(
                var_raw.clamp(0, i64::from(i32::MAX)) as i32,
                INTERNAL_FRAC_BITS,
            );
            let inv_std = fixed_inv_sqrt(var.saturating_add(eps), 20);

            // Stage 3: element-wise gamma/beta and output requantization.
            let params = self.gamma_q16.iter().zip(&self.beta_q16);
            for ((code, (&xa, &xb)), (&gamma, &beta)) in
                out.iter_mut().zip(a.iter().zip(b)).zip(params)
            {
                let centered = summed(xa, xb).saturating_sub(mean);
                let normalised = centered.mul(inv_std).mul(gamma).saturating_add(beta);
                // Round the fixed-point value to the nearest integer code.
                *code = normalised
                    .mul(out_scale)
                    .rescale(0)
                    .raw()
                    .clamp(i8::MIN as i32, i8::MAX as i32) as i8;
            }
        }
        Ok(())
    }

    /// Runs layer normalization on a single quantized row (no residual).
    ///
    /// # Errors
    ///
    /// Propagates the same errors as [`Self::apply_residual`].
    pub fn apply(&self, x: &[i8], scale_x: f32, out_scale: f32) -> Result<Vec<i8>> {
        let zeros = vec![0i8; x.len()];
        self.apply_residual(x, scale_x, &zeros, 1.0, out_scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fqbert_tensor::Tensor;

    fn float_layer_norm(x: &[f32], gamma: &[f32], beta: &[f32], eps: f32) -> Vec<f32> {
        let n = x.len() as f32;
        let mean = x.iter().sum::<f32>() / n;
        let var = x.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
        let inv = 1.0 / (var + eps).sqrt();
        x.iter()
            .enumerate()
            .map(|(i, &v)| (v - mean) * inv * gamma[i] + beta[i])
            .collect()
    }

    #[test]
    fn parameters_roundtrip_within_fixed_point_step() {
        let gamma = vec![1.0f32, 0.5, -1.25, 2.0];
        let beta = vec![0.1f32, -0.3, 0.0, 1.5];
        let ln = QuantizedLayerNorm::from_float(&gamma, &beta, 1e-5).unwrap();
        for (a, b) in gamma.iter().zip(ln.gamma_f32().iter()) {
            assert!((a - b).abs() <= 1.0 / 32.0 + 1e-6);
        }
        for (a, b) in beta.iter().zip(ln.beta_f32().iter()) {
            assert!((a - b).abs() <= 1.0 / 32.0 + 1e-6);
        }
    }

    #[test]
    fn matches_float_reference_on_residual_add() {
        let hidden = 32;
        let mut rng = fqbert_tensor::RngSource::seed_from_u64(5);
        let a_f = rng.normal_tensor(&[hidden], 0.0, 1.0);
        let b_f = rng.normal_tensor(&[hidden], 0.0, 1.0);
        let gamma: Vec<f32> = (0..hidden).map(|i| 0.8 + 0.01 * i as f32).collect();
        let beta: Vec<f32> = (0..hidden).map(|i| -0.2 + 0.01 * i as f32).collect();
        let ln = QuantizedLayerNorm::from_float(&gamma, &beta, 1e-5).unwrap();

        // Quantize the inputs to int8.
        let scale_a = 127.0 / a_f.abs_max().unwrap();
        let scale_b = 127.0 / b_f.abs_max().unwrap();
        let a_q: Vec<i8> = a_f
            .as_slice()
            .iter()
            .map(|&v| (v * scale_a).round() as i8)
            .collect();
        let b_q: Vec<i8> = b_f
            .as_slice()
            .iter()
            .map(|&v| (v * scale_b).round() as i8)
            .collect();

        let out_scale = 32.0;
        let out = ln
            .apply_residual(&a_q, scale_a, &b_q, scale_b, out_scale)
            .unwrap();

        let sum: Vec<f32> = a_f
            .as_slice()
            .iter()
            .zip(b_f.as_slice())
            .map(|(&x, &y)| x + y)
            .collect();
        let reference = float_layer_norm(&sum, &ln.gamma_f32(), &ln.beta_f32(), 1e-5);
        let mut max_err = 0.0f32;
        for (o, r) in out.iter().zip(reference.iter()) {
            let approx = *o as f32 / out_scale;
            max_err = max_err.max((approx - r).abs());
        }
        assert!(
            max_err < 0.15,
            "quantized layer norm deviates from reference by {max_err}"
        );
    }

    #[test]
    fn single_input_normalisation_has_near_zero_mean() {
        let hidden = 64;
        let mut rng = fqbert_tensor::RngSource::seed_from_u64(6);
        let x_f = rng.normal_tensor(&[hidden], 3.0, 2.0);
        let gamma = vec![1.0f32; hidden];
        let beta = vec![0.0f32; hidden];
        let ln = QuantizedLayerNorm::from_float(&gamma, &beta, 1e-5).unwrap();
        let scale_x = 127.0 / x_f.abs_max().unwrap();
        let x_q: Vec<i8> = x_f
            .as_slice()
            .iter()
            .map(|&v| (v * scale_x).round() as i8)
            .collect();
        let out = ln.apply(&x_q, scale_x, 32.0).unwrap();
        let vals =
            Tensor::from_vec(out.iter().map(|&c| c as f32 / 32.0).collect(), &[hidden]).unwrap();
        assert!(vals.mean().unwrap().abs() < 0.1);
        let var = vals.map(|v| v * v).mean().unwrap();
        assert!((var - 1.0).abs() < 0.2, "variance {var} should be near 1");
    }

    /// The pipeline as first written: one row, every stage multiplied out
    /// through [`Fixed`] into per-stage vectors. Kept as the oracle for the
    /// tabulated, allocation-free form.
    fn reference_residual(
        ln: &QuantizedLayerNorm,
        a: &[i8],
        scale_a: f32,
        b: &[i8],
        scale_b: f32,
        out_scale: f32,
    ) -> Vec<i8> {
        let n = ln.hidden() as i64;
        let inv_a = Fixed::from_f32(1.0 / scale_a, INTERNAL_FRAC_BITS);
        let inv_b = Fixed::from_f32(1.0 / scale_b, INTERNAL_FRAC_BITS);
        let dequant = |x: i8, inv: Fixed| {
            Fixed::from_raw(i32::from(x), 0)
                .rescale(INTERNAL_FRAC_BITS)
                .mul(inv)
        };
        let summed: Vec<Fixed> = a
            .iter()
            .zip(b)
            .map(|(&xa, &xb)| dequant(xa, inv_a).saturating_add(dequant(xb, inv_b)))
            .collect();
        let total: i64 = summed.iter().map(|v| i64::from(v.raw())).sum();
        let mean = Fixed::from_raw((total / n) as i32, INTERNAL_FRAC_BITS);
        let centered: Vec<Fixed> = summed.iter().map(|v| v.saturating_sub(mean)).collect();
        let var_acc: i64 = centered
            .iter()
            .map(|c| i64::from(c.raw()) * i64::from(c.raw()))
            .sum();
        let var_raw = (var_acc / n) >> INTERNAL_FRAC_BITS;
        let var = Fixed::from_raw(
            var_raw.clamp(0, i64::from(i32::MAX)) as i32,
            INTERNAL_FRAC_BITS,
        );
        let eps = Fixed::from_f32(
            ln.eps.max(1.0 / (1 << INTERNAL_FRAC_BITS) as f32),
            INTERNAL_FRAC_BITS,
        );
        let inv_std = fixed_inv_sqrt(var.saturating_add(eps), 20);
        let out_scale = Fixed::from_f32(out_scale, INTERNAL_FRAC_BITS);
        centered
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let gamma = Fixed::from_raw(i32::from(ln.gamma[i]), PARAM_FRAC_BITS)
                    .rescale(INTERNAL_FRAC_BITS);
                let beta = Fixed::from_raw(i32::from(ln.beta[i]), PARAM_FRAC_BITS)
                    .rescale(INTERNAL_FRAC_BITS);
                let normalised = c.mul(inv_std).mul(gamma).saturating_add(beta);
                normalised
                    .mul(out_scale)
                    .rescale(0)
                    .raw()
                    .clamp(i8::MIN as i32, i8::MAX as i32) as i8
            })
            .collect()
    }

    #[test]
    fn matrix_form_matches_the_row_reference_bit_for_bit() {
        let mut rng = fqbert_tensor::RngSource::seed_from_u64(11);
        for &(hidden, rows) in &[(1usize, 3usize), (7, 4), (64, 5), (256, 2)] {
            let gamma = rng.normal_tensor(&[hidden], 1.0, 0.6);
            let beta = rng.normal_tensor(&[hidden], 0.0, 0.7);
            let ln =
                QuantizedLayerNorm::from_float(gamma.as_slice(), beta.as_slice(), 1e-5).unwrap();
            for &(sa, sb, so) in &[
                (20.0f32, 30.0f32, 25.0f32),
                (3.5, 90.0, 12.0),
                (0.5, 0.7, 40.0),
            ] {
                let codes = |rng: &mut fqbert_tensor::RngSource| -> Vec<i8> {
                    rng.normal_tensor(&[rows * hidden], 0.0, 60.0)
                        .as_slice()
                        .iter()
                        .map(|&v| v.round().clamp(-128.0, 127.0) as i8)
                        .collect()
                };
                let (a, b) = (codes(&mut rng), codes(&mut rng));
                let mut out = vec![0i8; rows * hidden];
                ln.apply_residual_into(&mut out, &a, sa, &b, sb, so)
                    .unwrap();
                for r in 0..rows {
                    let span = r * hidden..(r + 1) * hidden;
                    let expected =
                        reference_residual(&ln, &a[span.clone()], sa, &b[span.clone()], sb, so);
                    assert_eq!(
                        &out[span.clone()],
                        expected.as_slice(),
                        "hidden {hidden} row {r}"
                    );
                    assert_eq!(
                        ln.apply_residual(&a[span.clone()], sa, &b[span], sb, so)
                            .unwrap(),
                        expected
                    );
                }
            }
        }
    }

    #[test]
    fn input_validation() {
        let ln = QuantizedLayerNorm::from_float(&[1.0, 1.0], &[0.0, 0.0], 1e-5).unwrap();
        assert!(ln.apply(&[1, 2, 3], 1.0, 1.0).is_err());
        assert!(ln.apply(&[1, 2], 0.0, 1.0).is_err());
        assert!(ln.apply(&[1, 2], 1.0, -1.0).is_err());
        assert!(QuantizedLayerNorm::from_float(&[1.0], &[0.0, 0.0], 1e-5).is_err());
        assert!(QuantizedLayerNorm::from_float(&[], &[], 1e-5).is_err());
        // The matrix form takes whole rows of equal count only.
        let mut out = [0i8; 4];
        assert!(ln
            .apply_residual_into(&mut out, &[1, 2, 3, 4], 1.0, &[0; 4], 1.0, 1.0)
            .is_ok());
        assert!(ln
            .apply_residual_into(&mut out[..3], &[1, 2, 3], 1.0, &[0; 3], 1.0, 1.0)
            .is_err());
        assert!(ln
            .apply_residual_into(&mut out, &[1, 2], 1.0, &[0; 4], 1.0, 1.0)
            .is_err());
    }
}
