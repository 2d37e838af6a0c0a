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
//! [`AddLayerNorm`] is that block with its three scales folded in: plain
//! Q16 integers ([`AddNormParams`] — the accelerator's parameter buffer)
//! handed, like every GEMM stage's parameters, to a kernel row of
//! `fqbert_tensor::gemm::kernels`. An operand code dequantizes to the code
//! times one grid step per operand, so stage 1 is `a · step_a + b · step_b`
//! and, inside the SIMD envelope, the row's mean and variance are exact
//! integer functions of the code moments `Σa`, `Σb`, `Σa²`, `Σab`, `Σb²` —
//! which is how the `avx512` row runs stages 1 and 2 as one pass. The
//! arithmetic of the three stages lives in the kernel rows and nowhere
//! else: the scalar row (`kernels::scalar::add_norm_rows`, with the
//! Newton–Raphson inverse square root beside it) is the reference, the
//! SIMD rows are bit-identical to it inside [`AddNormParams::simd_exact`].
//!
//! Integer side of the crate (see the crate docs): this file holds the
//! folded block and its dispatching [`AddLayerNorm::apply`]; the stored
//! 8-bit parameters ([`crate::QuantizedLayerNorm`]), the one place the
//! three scales exist as real numbers, [`crate::QuantizedLayerNorm::fold`],
//! and the one-row oracle `apply_residual` — which runs the scalar row
//! whatever kernel is selected — are in [`crate::fold`].

use crate::{QuantError, Result};
use fqbert_tensor::gemm::{AddNormParams, AddNormRow, ADD_NORM_FRAC_BITS};

/// Fractional bits used for the internal fixed-point pipeline.
pub(crate) const INTERNAL_FRAC_BITS: u32 = ADD_NORM_FRAC_BITS;

/// One `Add & LN` block with its three scales folded in: what
/// [`crate::QuantizedLayerNorm::fold`] makes, once, of the layer-norm
/// parameters, the scales of the two operands and the output scale — the
/// grid step of each operand's code (`1 / scale`), `gamma` / `beta`, the
/// epsilon and the output scale, all raw integers on the Q16 grid. It is
/// applied any number of times and holds no state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddLayerNorm {
    pub(crate) params: AddNormParams,
}

impl AddLayerNorm {
    /// Runs the 3-stage pipeline over whole matrices, into a caller-owned
    /// buffer, on the process-selected kernel row
    /// ([`AddNormParams::kernel`]): `a`, `b` and `out` hold the same number
    /// of `hidden`-wide rows of int8 codes, and row `i` of `out` is the
    /// `Add & LN` of rows `i` of `a` and `b`. `row` is the kernel's one row
    /// of scratch (a [`fqbert_tensor::GemmScratch`] owns one); nothing is
    /// allocated once it has served this width.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidArgument`] if the three buffers differ
    /// in length or are not whole rows.
    pub fn apply(&self, out: &mut [i8], a: &[i8], b: &[i8], row: &mut AddNormRow) -> Result<()> {
        let hidden = self.check_rows(out, a, b)?;
        (self.params.kernel())(&self.params, row.sized(hidden), a, b, out);
        Ok(())
    }

    /// The row width, after checking that `a`, `b` and `out` are the same
    /// number of whole rows.
    pub(crate) fn check_rows(&self, out: &[i8], a: &[i8], b: &[i8]) -> Result<usize> {
        let hidden = self.params.hidden();
        if a.len() != out.len() || b.len() != out.len() || !out.len().is_multiple_of(hidden) {
            return Err(QuantError::InvalidArgument(format!(
                "inputs of {} / {} elements and an output of {} are not equal \
                 numbers of {hidden}-wide rows",
                a.len(),
                b.len(),
                out.len()
            )));
        }
        Ok(hidden)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixedpoint::{fixed_inv_sqrt, Fixed};
    use crate::fold::PARAM_FRAC_BITS;
    use crate::QuantizedLayerNorm;
    use fqbert_tensor::gemm::kernels;
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

    /// The values the stored parameter codes stand for.
    fn dequantized(codes: &[i8]) -> Vec<f32> {
        let step = f32::powi(2.0, PARAM_FRAC_BITS as i32);
        codes.iter().map(|&c| f32::from(c) / step).collect()
    }

    #[test]
    fn parameters_roundtrip_within_fixed_point_step() {
        let gamma = vec![1.0f32, 0.5, -1.25, 2.0];
        let beta = vec![0.1f32, -0.3, 0.0, 1.5];
        let ln = QuantizedLayerNorm::from_float(&gamma, &beta, 1e-5).unwrap();
        for (a, b) in gamma.iter().zip(dequantized(ln.gamma_codes()).iter()) {
            assert!((a - b).abs() <= 1.0 / 32.0 + 1e-6);
        }
        for (a, b) in beta.iter().zip(dequantized(ln.beta_codes()).iter()) {
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
        let reference = float_layer_norm(
            &sum,
            &dequantized(ln.gamma_codes()),
            &dequantized(ln.beta_codes()),
            1e-5,
        );
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
        let out = ln
            .apply_residual(&x_q, scale_x, &vec![0; hidden], 1.0, 32.0)
            .unwrap();
        let vals =
            Tensor::from_vec(out.iter().map(|&c| c as f32 / 32.0).collect(), &[hidden]).unwrap();
        assert!(vals.mean().unwrap().abs() < 0.1);
        let var = vals.map(|v| v * v).mean().unwrap();
        assert!((var - 1.0).abs() < 0.2, "variance {var} should be near 1");
    }

    /// The pipeline as first written: one row, every stage multiplied out
    /// through [`Fixed`] into per-stage vectors. Kept as the oracle for the
    /// folded, allocation-free kernels — it shares no arithmetic
    /// with them but the Newton iteration. The variance sum is `i128`: at
    /// operand scales far below 1 it does not fit `i64`.
    fn reference_residual(
        ln: &QuantizedLayerNorm,
        a: &[i8],
        scale_a: f32,
        b: &[i8],
        scale_b: f32,
        out_scale: f32,
    ) -> Vec<i8> {
        let n = ln.hidden() as i128;
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
        let total: i128 = summed.iter().map(|v| i128::from(v.raw())).sum();
        let mean = Fixed::from_raw((total / n) as i32, INTERNAL_FRAC_BITS);
        let centered: Vec<Fixed> = summed.iter().map(|v| v.saturating_sub(mean)).collect();
        let var_acc: i128 = centered
            .iter()
            .map(|c| i128::from(c.raw()) * i128::from(c.raw()))
            .sum();
        let var_raw = (var_acc / n) >> INTERNAL_FRAC_BITS;
        let var = Fixed::from_raw(
            var_raw.clamp(0, i128::from(i32::MAX)) as i32,
            INTERNAL_FRAC_BITS,
        );
        let eps = Fixed::from_f32(
            ln.eps().max(1.0 / (1 << INTERNAL_FRAC_BITS) as f32),
            INTERNAL_FRAC_BITS,
        );
        let inv_std = fixed_inv_sqrt(var.saturating_add(eps), 20);
        let out_scale = Fixed::from_f32(out_scale, INTERNAL_FRAC_BITS);
        centered
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let gamma = Fixed::from_raw(i32::from(ln.gamma_codes()[i]), PARAM_FRAC_BITS)
                    .rescale(INTERNAL_FRAC_BITS);
                let beta = Fixed::from_raw(i32::from(ln.beta_codes()[i]), PARAM_FRAC_BITS)
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

    /// One row each of: both operands at the bottom of the code range, both
    /// at the top, constant rows (zero variance), opposed extremes and
    /// aligned extremes.
    fn extreme_rows(hidden: usize) -> (Vec<i8>, Vec<i8>) {
        let zigzag: Vec<i8> = (0..hidden)
            .map(|i| if i % 2 == 0 { i8::MIN } else { i8::MAX })
            .collect();
        let opposed: Vec<i8> = zigzag.iter().map(|&c| !c).collect();
        (
            [
                vec![i8::MIN; hidden],
                vec![i8::MAX; hidden],
                vec![17; hidden],
                zigzag.clone(),
                zigzag.clone(),
            ]
            .concat(),
            [
                vec![i8::MIN; hidden],
                vec![i8::MAX; hidden],
                vec![-3; hidden],
                opposed,
                zigzag,
            ]
            .concat(),
        )
    }

    #[test]
    fn matrix_form_matches_the_row_reference_bit_for_bit() {
        let mut rng = fqbert_tensor::RngSource::seed_from_u64(11);
        let mut row = AddNormRow::default();
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
                let random = (codes(&mut rng), codes(&mut rng));
                let extremes = extreme_rows(hidden);
                // One folded value serves every matrix: it holds no state,
                // so the third application repeats the first, and on every
                // kernel row each agrees with the oracle and with a fresh
                // fold per row on the scalar one.
                let folded = ln.fold(sa, sb, so).unwrap();
                assert!(folded.params.simd_exact());
                for (a, b) in [&random, &extremes, &random] {
                    let expected: Vec<i8> = (0..a.len() / hidden)
                        .flat_map(|r| {
                            let span = r * hidden..(r + 1) * hidden;
                            reference_residual(&ln, &a[span.clone()], sa, &b[span], sb, so)
                        })
                        .collect();
                    let mut out = vec![0i8; a.len()];
                    folded.apply(&mut out, a, b, &mut row).unwrap();
                    assert_eq!(out, expected, "hidden {hidden}");
                    // Every row by its table entry: forcing the process
                    // default would race the other tests of this binary.
                    for kind in kernels::available() {
                        let add_norm = kernels::dispatch_for(kind).add_norm;
                        let mut out = vec![0i8; a.len()];
                        add_norm(&folded.params, row.sized(hidden), a, b, &mut out);
                        assert_eq!(out, expected, "hidden {hidden} on {}", kind.name());
                    }
                    for (r, expected) in expected.chunks_exact(hidden).enumerate() {
                        let span = r * hidden..(r + 1) * hidden;
                        assert_eq!(
                            ln.apply_residual(&a[span.clone()], sa, &b[span], sb, so)
                                .unwrap(),
                            expected,
                            "hidden {hidden} row {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn small_operand_scales_do_not_overflow_the_variance() {
        // At 0.01 levels per unit a code dequantizes to ~2^30 on the grid:
        // a zigzag row's squared deviations sum past `i64`. The fold puts
        // such a block outside the SIMD envelope and the scalar row
        // accumulates in `i128` — an `i64` sum panics here in the
        // overflow-checked profile and is a garbage variance in release.
        let hidden = 256;
        let ln =
            QuantizedLayerNorm::from_float(&vec![1.0; hidden], &vec![0.25; hidden], 1e-5).unwrap();
        let (a, b) = extreme_rows(hidden);
        let mut row = AddNormRow::default();
        for scale in [1e-2f32, 1e-3, 1e-4, 1e-5, 1e-6] {
            let folded = ln.fold(scale, scale, 25.0).unwrap();
            assert!(!folded.params.simd_exact(), "scale {scale}");
            let mut out = vec![0i8; a.len()];
            folded.apply(&mut out, &a, &b, &mut row).unwrap();
            for (r, got) in out.chunks_exact(hidden).enumerate() {
                let span = r * hidden..(r + 1) * hidden;
                let (a, b) = (&a[span.clone()], &b[span]);
                let expected = reference_residual(&ln, a, scale, b, scale, 25.0);
                assert_eq!(got, expected, "scale {scale} row {r}");
                let oracle = ln.apply_residual(a, scale, b, scale, 25.0).unwrap();
                assert_eq!(oracle, expected, "scale {scale} row {r}");
            }
            // The variance itself saturates at `i32::MAX` on the aligned
            // zigzag, so its deviations stay huge and the codes saturate —
            // each with the sign of its element.
            assert_eq!(&out[4 * hidden..], &a[4 * hidden..], "scale {scale}");
        }
    }

    #[test]
    fn a_product_saturating_downward_keeps_its_sign() {
        // Element 0 normalises to about -5 and the output scale takes it
        // far below the `i32` raw range: `mul` saturates to `i32::MIN`,
        // which the final `rescale(0)` used to negate with overflow.
        let ln = QuantizedLayerNorm::from_float(&[1.9; 8], &[-1.9; 8], 1e-5).unwrap();
        let mut a = [10i8; 8];
        a[0] = i8::MIN;
        let out = ln
            .apply_residual(&a, 20.0, &[0; 8], 30.0, 20_000.0)
            .unwrap();
        assert_eq!(out[0], i8::MIN);
    }

    #[test]
    fn input_validation() {
        let ln = QuantizedLayerNorm::from_float(&[1.0, 1.0], &[0.0, 0.0], 1e-5).unwrap();
        assert!(ln
            .apply_residual(&[1, 2, 3], 1.0, &[0; 3], 1.0, 1.0)
            .is_err());
        assert!(ln.apply_residual(&[1, 2], 0.0, &[0; 2], 1.0, 1.0).is_err());
        assert!(ln.apply_residual(&[1, 2], 1.0, &[0; 2], 1.0, -1.0).is_err());
        assert!(QuantizedLayerNorm::from_float(&[1.0], &[0.0, 0.0], 1e-5).is_err());
        assert!(QuantizedLayerNorm::from_float(&[], &[], 1e-5).is_err());
        // A scale is refused where it is folded, whichever of the three.
        for bad in [0.0, -1.0, f32::NAN, f32::INFINITY] {
            for scales in [[bad, 1.0, 1.0], [1.0, bad, 1.0], [1.0, 1.0, bad]] {
                let [a, b, out] = scales;
                assert!(matches!(
                    ln.fold(a, b, out),
                    Err(QuantError::InvalidScale(_))
                ));
            }
        }
        // The matrix form takes whole rows of equal count only.
        let folded = ln.fold(1.0, 1.0, 1.0).unwrap();
        let mut out = [0i8; 4];
        let mut row = AddNormRow::default();
        assert!(folded
            .apply(&mut out, &[1, 2, 3, 4], &[0; 4], &mut row)
            .is_ok());
        let short = folded.apply(&mut out[..3], &[1, 2, 3], &[0; 3], &mut row);
        assert!(short.is_err());
        assert!(folded.apply(&mut out, &[1, 2], &[0; 4], &mut row).is_err());
    }
}
