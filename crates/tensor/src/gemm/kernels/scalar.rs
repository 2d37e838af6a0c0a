//! Portable scalar micro-kernels — the bit-exactness reference every SIMD
//! path is property-tested against, and the fallback when no SIMD kernel is
//! available (or `FQBERT_KERNEL=scalar` forces it).
//!
//! The wide loop keeps the pmaddwd shape: two k-steps at a time, `i16 × i16`
//! products (|i8·i8| ≤ 128² fits `i16`) summed pairwise into the `i32`
//! accumulator — exactly what one `_mm256_madd_epi16` / `smlal` lane
//! computes — so the auto-vectorizer can profitably lower even this
//! reference kernel on the baseline target. The nibble loop walks the
//! biased-nibble k-quad panels four k-steps at a time. All panel rows are
//! fixed-size arrays and `as_chunks` splits them into compile-time-sized
//! pieces, so the hot loops contain no fallible chunking and no panic
//! paths.
//!
//! [`add_norm_rows`] is the `Add & LN` reference: the accelerator's 3-stage
//! LN pipeline over raw Q16 integers, exact for every [`AddNormParams`].
//! Its per-element pieces are what a SIMD row finishes a row's tail with,
//! `RowMoments` is the exact algebra that turns one pass of integer
//! moments into the reference's mean and variance, and [`inv_sqrt_fixed`]
//! is the one Newton inverse square root of the workspace.
//!
//! [`softmax_row`] is the softmax reference: the row maximum, one table
//! pass for the numerators and their sum, one [`RowReciprocal`] and a
//! multiply-shift per element. A SIMD row evaluates the same integer
//! expressions in its lanes, so it is bit-identical for every
//! [`SoftmaxParams`] and needs no envelope.
//!
//! [`table_row`] is the byte-table reference (GELU): one lookup per code.

use crate::gemm::{
    AccTile, AddNormParams, RequantEpilogue, SoftmaxParams, ADD_NORM_FRAC_BITS, MAX_ATTN_SEQ, NR,
    QUAD_A, QUAD_B, WIDE_A, WIDE_B,
};

/// Accumulates one tile from wide (`i16`-pair) panels.
pub fn tile_wide(a: &[[i16; WIDE_A]], b: &[[i16; WIDE_B]], acc: &mut AccTile) {
    for (ap, bp) in a.iter().zip(b) {
        let (a_pairs, _) = ap.as_chunks::<2>();
        let (b_pairs, _) = bp.as_chunks::<2>();
        for (pair, row) in a_pairs.iter().zip(acc.iter_mut()) {
            let (a0, a1) = (pair[0], pair[1]);
            for (dst, bw) in row.iter_mut().zip(b_pairs) {
                *dst += i32::from(a0 * bw[0]) + i32::from(a1 * bw[1]);
            }
        }
    }
}

/// Requantizes one accumulator row segment: per element,
/// `out = clamp(round((acc + bias) · multiplier / 2^shift), ±min(clamp, 127))`
/// with round-half-away-from-zero, the product formed in 128-bit arithmetic
/// exactly like `fqbert_quant::Requantizer::apply` — this is the
/// bit-exactness reference the SIMD requant kernels are property-tested
/// against, and the fallback for parameters outside the `i64` SIMD envelope
/// (`RequantParams::simd_exact`). It reads the parameters only, not the
/// epilogue's saturation start.
pub fn requant_row(acc: &[i32], bias: &[i32], epilogue: &RequantEpilogue, out: &mut [i8]) {
    let params = epilogue.params;
    let bound = i128::from(params.clamp.clamp(0, i32::from(i8::MAX)));
    // A shift of 126 already maps every representable product to 0, so
    // clamping keeps the `1 << (shift - 1)` rounding term in range without
    // changing any output for out-of-envelope parameter sets.
    let shift = params.shift.clamp(0, 126);
    for ((&a, &b), o) in acc.iter().zip(bias).zip(out.iter_mut()) {
        let sum = i64::from(a) + i64::from(b);
        let product = i128::from(sum) * i128::from(params.multiplier);
        let rounded = if shift > 0 {
            let half = 1i128 << (shift - 1);
            if product >= 0 {
                (product + half) >> shift
            } else {
                -((-product + half) >> shift)
            }
        } else {
            product
        };
        // fqlint::allow(narrowing-cast): clamped to ±127 just above.
        *o = rounded.clamp(-bound, bound) as i8;
    }
}

/// Accumulates one tile from biased-nibble (int4) panels and a byte
/// activation block: `acc[r][c] += Σ_t a[r][t] · u[t][c]` per k-quad, with
/// `u = w + 8 ∈ [0, 15]` read straight from the panel (no sign extension —
/// the driver's `−8 · Σ a` start value cancels the bias). A product fits
/// `i16` (`|a · u| ≤ 128 · 15`).
pub fn tile_nibble(a: &[[i8; QUAD_A]], b: &[[u8; QUAD_B]], acc: &mut AccTile) {
    for (aq, bq) in a.iter().zip(b) {
        let (a_rows, _) = aq.as_chunks::<4>();
        // Two half rows of 32 bytes; byte `4j + t` of half `h` carries
        // columns `16h + j` (low nibble) and `16h + 8 + j` (high nibble).
        let (b_halves, _) = bq.as_chunks::<NR>();
        for (quad, row) in a_rows.iter().zip(acc.iter_mut()) {
            let (row_halves, _) = row.as_chunks_mut::<16>();
            for (cols, bytes) in row_halves.iter_mut().zip(b_halves) {
                let (lo_cols, hi_cols) = cols.split_at_mut(8);
                let (col_quads, _) = bytes.as_chunks::<4>();
                for ((lo, hi), w) in lo_cols.iter_mut().zip(hi_cols).zip(col_quads) {
                    for (&x, &byte) in quad.iter().zip(w) {
                        *lo += i32::from(i16::from(x) * i16::from(byte & 0x0f));
                        *hi += i32::from(i16::from(x) * i16::from(byte >> 4));
                    }
                }
            }
        }
    }
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

/// Fixed-point product of two values with `frac_bits` fractional bits,
/// rounded and saturated.
fn mul_fixed(a: i32, b: i32, frac_bits: u32) -> i32 {
    round_shift(i64::from(a) * i64::from(b), frac_bits)
}

/// `1/sqrt(x)` for a fixed-point `x > 0` with `frac_bits` fractional bits,
/// by at most `iterations` Newton–Raphson steps `y ← y · (1.5 − 0.5·x·y²)`
/// in saturating fixed-point arithmetic. A step is a function of `y`
/// alone, so once an iterate repeats every later one is identical: the
/// loop stops there, and the result is bit for bit the one the full count
/// gives.
///
/// # Panics
///
/// Panics if `x` is not strictly positive.
pub fn inv_sqrt_fixed(x: i32, frac_bits: u32, iterations: u32) -> i32 {
    assert!(x > 0, "inverse square root requires a positive input");
    // Start from a floating-point-free initial guess y0 = 2^(-ceil(log2(x)/2)).
    //
    // The ceiling matters: with x = 2^e·m (m in [1, 2)) this guarantees
    // 0.5·x·y0² < 1, so the first Newton correction `1.5 - 0.5·x·y0²` stays
    // positive, and every later iterate lands in (0, 1/sqrt(x)] — the basin
    // of the positive root. A truncating `e/2` guess overshoots for odd
    // positive e (e.g. x in [3,4) or [12,16)) and Newton then converges to
    // the *negative* root -1/sqrt(x), sign-flipping the caller's output.
    // fqlint::allow(narrowing-cast): `leading_zeros()` is at most 32 and
    // `frac_bits` is a bit-shift amount < 32 — both fit `i32`.
    let value_log2 = 31 - x.leading_zeros() as i32 - frac_bits as i32;
    let guess_log2 = -(value_log2 + 1).div_euclid(2);
    // fqlint::allow(narrowing-cast): `frac_bits` is a bit-shift amount < 32.
    let mut y = 1i32 << (frac_bits as i32 + guess_log2).clamp(0, 30);
    // 1.5 is 3 on the one-fraction-bit grid: 98 304 at the layer norm's
    // Q16, and the integer grid rounds it half away from zero, to 2.
    let three_halves = match frac_bits.checked_sub(1) {
        Some(up) => 3i32.saturating_mul(1 << up),
        None => 2,
    };
    let half_x = x / 2;
    for _ in 0..iterations {
        let term = mul_fixed(half_x, mul_fixed(y, y, frac_bits), frac_bits);
        let correction = three_halves.saturating_sub(term);
        let next = if correction > 0 {
            mul_fixed(y, correction, frac_bits)
        } else {
            // Defensive guard (unreachable with the guess above): back off
            // towards zero rather than crossing into the negative basin.
            y / 2
        };
        if next == y {
            break;
        }
        y = next;
    }
    y
}

/// Width of the rows an `Add & LN` kernel was handed, after checking what
/// every kernel relies on: `sums` is one row, and `a`, `b` and `out` are
/// the same number of whole rows.
///
/// # Panics
///
/// Panics if they are not — the caller (`AddLayerNorm::apply`) validates
/// its operands and sizes the row first.
pub(super) fn add_norm_hidden(
    params: &AddNormParams,
    sums: &[i32],
    a: &[i8],
    b: &[i8],
    out: &[i8],
) -> usize {
    let hidden = params.gamma.len();
    assert!(
        sums.len() == hidden
            && a.len() == out.len()
            && b.len() == out.len()
            && out.len().is_multiple_of(hidden),
        "add_norm: operands of {} / {} codes, an output of {} and a sum row of {} \
         are not equal numbers of {hidden}-wide rows",
        a.len(),
        b.len(),
        out.len(),
        sums.len()
    );
    hidden
}

/// Stage 1, one element: the sum of the two dequantized operands, each
/// its code times its step.
pub(super) fn add_norm_sum(params: &AddNormParams, a: i8, b: i8) -> i32 {
    let value = |code: i8, step: i32| i32::from(code).saturating_mul(step);
    value(a, params.step_a).saturating_add(value(b, params.step_b))
}

/// Stages 1 and 2 of one row as integer moments: the sums `Σa`, `Σb`,
/// `Σa²`, `Σab`, `Σb²` over the row's two code rows, and the largest and
/// smallest element of its sum row `s = a · step_a + b · step_b`. Every
/// field is an exact integer, so a pass may accumulate them in any order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct RowMoments {
    pub(super) sum_a: i64,
    pub(super) sum_b: i64,
    pub(super) sum_aa: i64,
    pub(super) sum_ab: i64,
    pub(super) sum_bb: i64,
    pub(super) s_max: i32,
    pub(super) s_min: i32,
}

/// What stage 3 needs of a row: the reference's mean, its inverse
/// deviation and `max |s − mean|` — the bound that decides whether a SIMD
/// row's stage-3 lanes can saturate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct RowStats {
    pub(super) mean: i32,
    pub(super) inv_std: i32,
    pub(super) max_c: i64,
}

impl RowMoments {
    /// The row's statistics, exactly as [`add_norm_rows`] computes them,
    /// for a block inside [`AddNormParams::simd_exact`] — there no operand,
    /// sum or deviation saturates, so `Σs = step_a·Σa + step_b·Σb`, the
    /// mean is the reference's truncating division of it, and
    /// `Σ(s − mean)² = Σs² − 2·mean·Σs + n·mean²` with `Σs²` expanded over
    /// the three code moments. With `|step| < 2³¹` and `|Σab| < 2³⁵` at
    /// [`crate::gemm::MAX_ADD_NORM_HIDDEN`] every term is below `2¹⁰⁰`, far
    /// inside `i128`.
    pub(super) fn stats(&self, params: &AddNormParams, hidden: usize) -> RowStats {
        let n = hidden as i128;
        let (step_a, step_b) = (i128::from(params.step_a), i128::from(params.step_b));
        let total = step_a * i128::from(self.sum_a) + step_b * i128::from(self.sum_b);
        let mean = total / n;
        let squares_of_sums = step_a * step_a * i128::from(self.sum_aa)
            + 2 * step_a * step_b * i128::from(self.sum_ab)
            + step_b * step_b * i128::from(self.sum_bb);
        let squares = squares_of_sums - 2 * mean * total + n * mean * mean;
        let reach = (i128::from(self.s_max) - mean).max(mean - i128::from(self.s_min));
        RowStats {
            // fqlint::allow(narrowing-cast): the mean of `i32` values is
            // itself in `i32` range.
            mean: mean as i32,
            inv_std: add_norm_inv_std(params, squares / n),
            // Inside the envelope a deviation is at most `i32::MAX`.
            max_c: i64::try_from(reach).unwrap_or(i64::MAX),
        }
    }
}

/// Between stages 2 and 3, once per row: `1/sqrt(var + eps)` from the mean
/// of the squared deviations on the doubled grid (`Σ c² / hidden`).
pub(super) fn add_norm_inv_std(params: &AddNormParams, mean_square: i128) -> i32 {
    let var = (mean_square >> ADD_NORM_FRAC_BITS).clamp(0, i128::from(i32::MAX)) as i32;
    inv_sqrt_fixed(var.saturating_add(params.eps), ADD_NORM_FRAC_BITS, 20)
}

/// Stage 3, one element: `gamma · c / std + beta` requantized to its
/// output code, every product rounded and saturated.
pub(super) fn add_norm_code(c: i32, inv_std: i32, gamma: i32, beta: i32, out_scale: i32) -> i8 {
    let q = ADD_NORM_FRAC_BITS;
    let normalised = mul_fixed(mul_fixed(c, inv_std, q), gamma, q).saturating_add(beta);
    // Round the fixed-point value to the nearest integer code.
    let code = round_shift(i64::from(mul_fixed(normalised, out_scale, q)), q);
    code.clamp(i32::from(i8::MIN), i32::from(i8::MAX)) as i8
}

/// `Add & LN` over whole matrices — the reference every SIMD row is
/// property-tested against, and what runs outside
/// [`AddNormParams::simd_exact`]: row `i` of `out` is the layer norm of
/// the sum of rows `i` of `a` and `b` (see [`super::AddNormKernel`] for the
/// contract). Every add saturates and the variance is accumulated in
/// `i128`, so it is exact for every parameter set.
///
/// # Panics
///
/// Panics unless `sums` is one row and `a`, `b`, `out` are equal numbers
/// of whole rows.
pub fn add_norm_rows(params: &AddNormParams, sums: &mut [i32], a: &[i8], b: &[i8], out: &mut [i8]) {
    let hidden = add_norm_hidden(params, sums, a, b, out);
    let n = hidden as i64;
    let rows = a.chunks_exact(hidden).zip(b.chunks_exact(hidden));
    for (out, (a, b)) in out.chunks_exact_mut(hidden).zip(rows) {
        // Stage 1: add the two operands and accumulate the mean (a sum of
        // `i32` values: it would take 2^32 of them to leave `i64`).
        let mut total = 0i64;
        for (sum, (&xa, &xb)) in sums.iter_mut().zip(a.iter().zip(b)) {
            *sum = add_norm_sum(params, xa, xb);
            total += i64::from(*sum);
        }
        // fqlint::allow(narrowing-cast): the mean of `i32` values is itself
        // in `i32` range.
        let mean = (total / n) as i32;

        // Stage 2: subtract the mean and accumulate the variance in a wide
        // integer with 2*frac bits, renormalised once at the end.
        let mut squares = 0i128;
        for c in sums.iter_mut() {
            *c = c.saturating_sub(mean);
            squares += i128::from(i64::from(*c) * i64::from(*c));
        }
        let inv_std = add_norm_inv_std(params, squares / i128::from(n));

        // Stage 3: element-wise gamma/beta and output requantization.
        let scaled = sums.iter().zip(params.gamma.iter().zip(&params.beta));
        for (code, (&c, (&gamma, &beta))) in out.iter_mut().zip(scaled) {
            *code = add_norm_code(c, inv_std, gamma, beta, params.out_scale);
        }
    }
}

/// The byte-table reference (see [`super::TableKernel`]): every code
/// becomes `table[code + 128]`. The index is a byte and the table has 256
/// entries, so the lookup carries no bounds check.
pub fn table_row(table: &[i8; 256], codes: &mut [i8]) {
    for code in codes {
        *code = table[usize::from(code.cast_unsigned() ^ 0x80)];
    }
}

/// The one division of a softmax row: `round(p / denom)` for every scaled
/// numerator `p = n · levels` of the row as `(p + denom/2) · m >> 48` with
/// `m = ⌊2⁴⁸ / denom⌋ + 1`.
///
/// Exact for `x = p + denom/2 < 2²⁴` and `denom < 2²⁴`: `m · denom = 2⁴⁸ + e`
/// with `0 < e ≤ denom`, so `x · m / 2⁴⁸` exceeds `x / denom` by
/// `x · e / (denom · 2⁴⁸) < 1 / denom` — too little to reach the next
/// integer — as `x · e ≤ x · denom < 2⁴⁸`. A row of `i8` scores has
/// `1 ≤ denom ≤ 255 ·`[`MAX_ATTN_SEQ`]` = 2²⁴ − 1` (`255 ≤ denom` with a
/// real exponential table, whose first entry is 255) and
/// `x ≤ 255 · 255 + denom/2 < 2²⁴`; and `x · m ≤ (x / denom) · 2⁴⁸ + x <
/// 2⁵⁶` stays inside a `u64` lane, since a numerator is one of the terms of
/// the denominator and so `x / denom ≤ 255.5`.
#[derive(Debug, Clone, Copy)]
pub struct RowReciprocal {
    /// `denom / 2`, the rounding term.
    pub half: u64,
    /// `⌊2⁴⁸ / denom⌋ + 1`.
    pub reciprocal: u64,
}

impl RowReciprocal {
    /// The reciprocal of a row's denominator.
    ///
    /// # Panics
    ///
    /// Panics if `denom` is zero.
    pub fn new(denom: u64) -> Self {
        Self {
            half: denom >> 1,
            reciprocal: (1u64 << 48) / denom + 1,
        }
    }

    /// `round(scaled / denom)` for `scaled = n · levels`, `n ≤ denom`.
    pub fn rounded(&self, scaled: u64) -> u8 {
        // fqlint::allow(narrowing-cast): the numerator is at most `denom`,
        // so the quotient is at most `out_levels <= 255`.
        (((scaled + self.half) * self.reciprocal) >> 48) as u8
    }
}

/// Checks what every softmax kernel relies on: one output slot per score
/// and a row inside the attention bound, the range [`RowReciprocal`] is
/// exact on.
///
/// # Panics
///
/// Panics if they differ in length or the row is longer than
/// [`MAX_ATTN_SEQ`] — `attend_head` sizes both and refuses longer
/// sequences first.
pub(super) fn softmax_len(scores: &[i8], out: &[u8]) -> usize {
    assert!(
        scores.len() == out.len() && scores.len() <= MAX_ATTN_SEQ,
        "softmax: a row of {} scores into {} slots (the attention bound is {MAX_ATTN_SEQ})",
        scores.len(),
        out.len()
    );
    scores.len()
}

/// The numerator of score `s` in a row whose maximum is `max`: for `i8`
/// scores the distance lies in `[0, 255]`, inside the table.
pub(super) fn softmax_numerator(params: &SoftmaxParams, max: i8, s: i8) -> u8 {
    let distance = i16::from(max) - i16::from(s);
    params.table[usize::from(distance.unsigned_abs())]
}

/// The softmax of one row of `i8` scores as `u8` probability codes — the
/// reference every SIMD row is tested against (see
/// [`super::SoftmaxKernel`] for the contract): numerators out of the table
/// by distance from the row maximum, then every
/// `round(n · out_levels / Σ n)` through the row's one [`RowReciprocal`] —
/// bit for bit the division per element the accelerator's Softmax Core
/// does. The maximum itself looks up `table[0] ≠ 0`, so the denominator is
/// never zero. An empty row is left alone.
///
/// # Panics
///
/// Panics if `scores` and `out` differ in length or are longer than
/// [`MAX_ATTN_SEQ`].
pub fn softmax_row(params: &SoftmaxParams, scores: &[i8], out: &mut [u8]) {
    softmax_len(scores, out);
    let Some(&max) = scores.iter().max() else {
        return;
    };
    let mut denom = 0u64;
    for (n, &s) in out.iter_mut().zip(scores) {
        *n = softmax_numerator(params, max, s);
        denom += u64::from(*n);
    }
    let divide = RowReciprocal::new(denom);
    let levels = u64::from(params.out_levels);
    for n in out.iter_mut() {
        *n = divide.rounded(u64::from(*n) * levels);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The moments of one row, summed element by element.
    fn moments(params: &AddNormParams, a: &[i8], b: &[i8]) -> RowMoments {
        let mut m = RowMoments {
            sum_a: 0,
            sum_b: 0,
            sum_aa: 0,
            sum_ab: 0,
            sum_bb: 0,
            s_max: i32::MIN,
            s_min: i32::MAX,
        };
        for (&x, &y) in a.iter().zip(b) {
            let (x, y) = (i64::from(x), i64::from(y));
            m.sum_a += x;
            m.sum_b += y;
            m.sum_aa += x * x;
            m.sum_ab += x * y;
            m.sum_bb += y * y;
        }
        for (&x, &y) in a.iter().zip(b) {
            let s = add_norm_sum(params, x, y);
            m.s_max = m.s_max.max(s);
            m.s_min = m.s_min.min(s);
        }
        m
    }

    /// The reference's own stages 1 and 2 on one row.
    fn direct(params: &AddNormParams, a: &[i8], b: &[i8]) -> RowStats {
        let n = a.len() as i64;
        let sums: Vec<i32> = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| add_norm_sum(params, x, y))
            .collect();
        let mean = (sums.iter().map(|&s| i64::from(s)).sum::<i64>() / n) as i32;
        let centred: Vec<i32> = sums.iter().map(|s| s.saturating_sub(mean)).collect();
        let squares: i128 = centred.iter().map(|&c| i128::from(c) * i128::from(c)).sum();
        RowStats {
            mean,
            inv_std: add_norm_inv_std(params, squares / i128::from(n)),
            max_c: centred
                .iter()
                .map(|c| i64::from(c.unsigned_abs()))
                .max()
                .unwrap_or(0),
        }
    }

    /// One pass of moments gives the reference's mean, inverse deviation
    /// and `max |c|` on every row inside the envelope: rows whose mean is
    /// far from zero (so `n · mean²` matters), rows whose widest deviation
    /// is below the mean (so `s_min` matters), constant rows, and steps of
    /// both signs up to the envelope's edge.
    #[test]
    fn one_pass_of_moments_gives_the_reference_statistics() {
        let byte = |i: usize| (i.wrapping_mul(2_654_435_761) >> 13) as u8 as i8;
        for hidden in [1usize, 2, 17, 256, 768] {
            let rows: Vec<(Vec<i8>, Vec<i8>)> = vec![
                (
                    (0..hidden).map(byte).collect(),
                    (0..hidden).map(|i| byte(i + 7)).collect(),
                ),
                (
                    vec![100; hidden],
                    (0..hidden).map(|i| byte(i) / 8 + 90).collect(),
                ),
                (
                    (0..hidden)
                        .map(|i| if i == 3 % hidden { -128 } else { 1 })
                        .collect(),
                    vec![0; hidden],
                ),
                (vec![-128; hidden], vec![127; hidden]),
            ];
            let edge = i32::try_from(((i64::MAX / hidden as i64) as f64).sqrt() as i64 / 1024)
                .expect("step")
                .min(i32::MAX / 1024);
            for (step_a, step_b) in [(3277, 2185), (-5000, 700), (edge, -edge), (1, 0)] {
                let params =
                    AddNormParams::new(step_a, step_b, vec![1; hidden], vec![0; hidden], 1, 1)
                        .expect("parameters");
                assert!(params.simd_exact(), "steps {step_a}, {step_b} at {hidden}");
                for (a, b) in &rows {
                    assert_eq!(
                        moments(&params, a, b).stats(&params, hidden),
                        direct(&params, a, b),
                        "steps {step_a}, {step_b} at {hidden}"
                    );
                }
            }
        }
    }
}
