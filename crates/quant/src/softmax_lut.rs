//! Lookup-table softmax with max-subtraction (paper §III-B, Softmax Core).
//!
//! The accelerator replaces the exponential with a 256-entry lookup table.
//! Because softmax is invariant to subtracting a constant, every element is
//! first reduced by the row maximum; the argument of `exp` is then confined
//! to `(-∞, 0]` and its value to `(0, 1]`, so an 8-bit table indexed by the
//! (integer) difference from the maximum suffices. The numerator and the
//! softmax output are both quantized to 8 bits, exactly as in the paper.
//!
//! Integer side of the crate (see the crate docs): this file holds the
//! table — as the plain-integer `fqbert_tensor::gemm::SoftmaxParams` the
//! kernel rows compute with — and the per-element-division oracle; the one
//! place the exponential is evaluated, [`SoftmaxLut::new`], is in
//! [`crate::fold`].
//!
//! The row form the engine runs is the `softmax` entry of the selected
//! kernel row (`fqbert_tensor::gemm::kernels`; [`SoftmaxLut::apply_row_into`]
//! is a call of it): it divides once per row — a `2⁴⁸ / denom` reciprocal,
//! then a multiply and a shift per element, exact up to the attention bound
//! (`RowReciprocal`, beside the scalar row). [`SoftmaxLut::apply_row`] keeps
//! the accelerator's division per element and is the reference the rows are
//! tested against.

use fqbert_tensor::gemm::{kernels, SoftmaxParams};

/// Number of entries in the exponential lookup table.
pub const LUT_ENTRIES: usize = fqbert_tensor::gemm::SOFTMAX_ENTRIES;

/// An integer-only softmax evaluator backed by a 256-entry exponential LUT.
///
/// # Examples
///
/// ```
/// use fqbert_quant::SoftmaxLut;
///
/// // Scores quantized with 4 levels per unit.
/// let lut = SoftmaxLut::new(4.0, 127)?;
/// let probs = lut.apply_row(&[8, 4, 0, -4]);
/// assert_eq!(probs.len(), 4);
/// assert!(probs[0] > probs[1] && probs[1] > probs[2]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SoftmaxLut {
    /// `table[d] ≈ exp(-d / input_scale) · 255`, for the integer difference
    /// `d` between an element and its row maximum, and the maximum output
    /// level (e.g. 127 for signed 8-bit probabilities).
    pub(crate) params: SoftmaxParams,
}

impl SoftmaxLut {
    /// The 256-entry exponential table (for the accelerator's parameter
    /// buffer initialisation).
    pub fn table(&self) -> &[u8] {
        self.params.table()
    }

    /// Maximum output level (the quantized value representing probability 1).
    pub fn out_levels(&self) -> u32 {
        self.params.out_levels()
    }

    /// The table and output level as the kernel rows take them — what
    /// `AttentionScratch::attend_head` is handed.
    pub fn params(&self) -> &SoftmaxParams {
        &self.params
    }

    /// Looks up `exp(-(d)/s)` for an integer difference `d ≥ 0`, saturating
    /// to the last entry for differences beyond the table.
    pub fn exp_lookup(&self, diff: i64) -> u32 {
        debug_assert!(
            diff >= 0,
            "difference from the row maximum must be non-negative"
        );
        let idx = diff.clamp(0, (LUT_ENTRIES - 1) as i64) as usize;
        u32::from(self.params.table()[idx])
    }

    /// Applies the integer softmax to one row of quantized scores, returning
    /// probabilities quantized to `out_levels` levels.
    ///
    /// The computation uses only integer comparisons, table lookups, adds and
    /// one integer division per element — the same operations as the
    /// accelerator's Softmax Core.
    pub fn apply_row(&self, scores: &[i32]) -> Vec<i32> {
        if scores.is_empty() {
            return Vec::new();
        }
        let max = scores.iter().copied().max().expect("non-empty row");
        let numerators: Vec<u32> = scores
            .iter()
            .map(|&s| self.exp_lookup(i64::from(max) - i64::from(s)))
            .collect();
        let denom: u64 = numerators.iter().map(|&n| u64::from(n)).sum();
        let denom = denom.max(1);
        let levels = u64::from(self.out_levels());
        numerators
            .iter()
            .map(|&n| {
                // Rounded integer division: (n * out_levels + denom/2) / denom.
                // fqlint::allow(narrowing-cast): `n <= denom`, so the
                // quotient is at most `out_levels`, which fits `i32`.
                ((u64::from(n) * levels + denom / 2) / denom) as i32
            })
            .collect()
    }

    /// [`SoftmaxLut::apply_row`] for a row of `i8` scores — what the
    /// attention requantizer produces — into a caller-owned row of `u8`
    /// codes, through the `softmax` entry of the process-selected kernel
    /// row: what `attend_head` runs per query row. Bit-identical to
    /// `apply_row` on the same scores on every kernel row.
    ///
    /// For `i8` scores the difference from the row maximum lies in
    /// `[0, 255]`, inside the table, so the saturation in
    /// [`SoftmaxLut::exp_lookup`] cannot fire; the maximum itself looks up
    /// `table[0] = 255`, so the denominator is never zero.
    ///
    /// # Panics
    ///
    /// Panics if `scores` and `out` differ in length, or for a row longer
    /// than `MAX_ATTN_SEQ`, the attention bound of the engine and the range
    /// the row reciprocal is exact on.
    pub fn apply_row_into(&self, scores: &[i8], out: &mut [u8]) {
        (kernels::selected().softmax)(&self.params, scores, out);
    }

    /// Applies the integer softmax to every row of a matrix stored row-major.
    ///
    /// A `0 × 0` matrix (`cols == 0` with empty data) is valid and yields an
    /// empty output, so zero-length attention segments can flow through
    /// without a special case upstream.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `cols` (including any
    /// non-empty `data` with `cols == 0`).
    pub fn apply_matrix(&self, data: &[i32], cols: usize) -> Vec<i32> {
        if cols == 0 {
            assert!(data.is_empty(), "data must be rectangular");
            return Vec::new();
        }
        assert!(data.len().is_multiple_of(cols), "data must be rectangular");
        data.chunks(cols)
            .flat_map(|row| self.apply_row(row))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fqbert_tensor::gemm::kernels::scalar::RowReciprocal;
    use fqbert_tensor::gemm::MAX_ATTN_SEQ;

    fn float_softmax(scores: &[f32]) -> Vec<f32> {
        let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = scores.iter().map(|&s| (s - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        exps.iter().map(|&e| e / sum).collect()
    }

    #[test]
    fn table_is_monotonically_decreasing() {
        let lut = SoftmaxLut::new(8.0, 127).unwrap();
        let t = lut.table();
        assert_eq!(t.len(), LUT_ENTRIES);
        assert_eq!(t[0], 255);
        for w in t.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn outputs_approximately_sum_to_one() {
        let lut = SoftmaxLut::new(4.0, 255).unwrap();
        let probs = lut.apply_row(&[12, 7, 3, -5, 0, 2]);
        let sum: i32 = probs.iter().sum();
        // Rounding can move the sum slightly away from out_levels.
        assert!((sum - 255).abs() <= 6, "sum of quantized probs = {sum}");
    }

    #[test]
    fn matches_float_softmax_closely() {
        let lut = SoftmaxLut::new(8.0, 255).unwrap();
        let scores = [20i32, 10, 0, -10, -30, 5];
        let quantized = lut.apply_row(&scores);
        let float_scores: Vec<f32> = scores.iter().map(|&s| s as f32 / 8.0).collect();
        let reference = float_softmax(&float_scores);
        for (q, r) in quantized.iter().zip(reference.iter()) {
            let approx = *q as f32 / lut.out_levels() as f32;
            assert!(
                (approx - r).abs() < 0.02,
                "quantized softmax {approx} deviates from float {r}"
            );
        }
    }

    #[test]
    fn shift_invariance_is_exact_in_integer_domain() {
        let lut = SoftmaxLut::new(4.0, 127).unwrap();
        let a = lut.apply_row(&[5, 2, -3, 7]);
        let b = lut.apply_row(&[105, 102, 97, 107]);
        assert_eq!(a, b);
    }

    #[test]
    fn saturates_for_very_negative_scores() {
        let lut = SoftmaxLut::new(2.0, 127).unwrap();
        let probs = lut.apply_row(&[0, -10_000]);
        assert_eq!(probs[1], 0);
        assert_eq!(probs[0], 127);
    }

    #[test]
    fn apply_matrix_processes_each_row_independently() {
        let lut = SoftmaxLut::new(4.0, 127).unwrap();
        let data = vec![1, 2, 3, 4, 10, 0, -10, 5];
        let out = lut.apply_matrix(&data, 4);
        assert_eq!(out.len(), 8);
        assert_eq!(&out[..4], lut.apply_row(&data[..4]).as_slice());
        assert_eq!(&out[4..], lut.apply_row(&data[4..]).as_slice());
    }

    #[test]
    fn apply_row_into_matches_apply_row_on_i8_scores() {
        let lut = SoftmaxLut::new(6.0, 255).unwrap();
        for scores in [vec![], vec![-128i8], vec![127, -128, 0, 127], vec![-5; 9]] {
            let wide: Vec<i32> = scores.iter().map(|&s| i32::from(s)).collect();
            let mut got = vec![99u8; scores.len()];
            lut.apply_row_into(&scores, &mut got);
            let got: Vec<i32> = got.into_iter().map(i32::from).collect();
            assert_eq!(got, lut.apply_row(&wide));
        }
    }

    #[test]
    fn the_row_reciprocal_is_the_division_for_every_denominator_a_row_can_have() {
        let check = |denom: u64| {
            let divide = RowReciprocal::new(denom);
            for levels in [1u64, 127, 255] {
                for n in 0..=255u64 {
                    let exact = (n * levels + denom / 2) / denom;
                    assert_eq!(
                        u64::from(divide.rounded(n * levels)),
                        exact,
                        "n {n} levels {levels} denom {denom}"
                    );
                }
            }
        };
        // Every denominator of a row of up to 512 scores (the maximum
        // alone contributes 255), then a sweep up to the attention bound
        // with its end points.
        (255..=255 * 512).for_each(check);
        let bound = 255 * MAX_ATTN_SEQ as u64;
        (255 * 512..=bound).step_by(4_099).for_each(check);
        (bound - 300..=bound).for_each(check);
        assert_eq!(bound, (1 << 24) - 1);
    }

    #[test]
    fn a_row_at_the_attention_bound_divides_exactly_and_a_longer_one_is_refused() {
        // All-equal scores: every numerator is 255 and the denominator is
        // the largest a row can have.
        let lut = SoftmaxLut::new(4.0, 255).unwrap();
        let row = vec![7i8; MAX_ATTN_SEQ];
        let mut codes = vec![0u8; row.len()];
        lut.apply_row_into(&row, &mut codes);
        let uniform = ((255 * 255 + (255 * row.len() as u64) / 2) / (255 * row.len() as u64)) as u8;
        assert!(codes.iter().all(|&p| p == uniform));
        let too_long = vec![7i8; MAX_ATTN_SEQ + 1];
        let refused = std::panic::catch_unwind(|| {
            lut.apply_row_into(&too_long, &mut vec![0u8; too_long.len()]);
        });
        assert!(refused.is_err());
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(SoftmaxLut::new(0.0, 127).is_err());
        assert!(SoftmaxLut::new(-1.0, 127).is_err());
        assert!(SoftmaxLut::new(4.0, 0).is_err());
        assert!(SoftmaxLut::new(4.0, 256).is_err());
    }

    #[test]
    fn empty_row_yields_empty_output() {
        let lut = SoftmaxLut::new(4.0, 127).unwrap();
        assert!(lut.apply_row(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "rectangular")]
    fn ragged_matrix_panics() {
        let lut = SoftmaxLut::new(4.0, 127).unwrap();
        let _ = lut.apply_matrix(&[1, 2, 3], 2);
    }

    #[test]
    fn empty_matrix_with_zero_cols_is_valid() {
        let lut = SoftmaxLut::new(4.0, 127).unwrap();
        assert!(lut.apply_matrix(&[], 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "rectangular")]
    fn zero_cols_with_data_panics() {
        let lut = SoftmaxLut::new(4.0, 127).unwrap();
        let _ = lut.apply_matrix(&[1], 0);
    }
}
