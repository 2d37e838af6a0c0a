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

use crate::gemm::{AccTile, RequantParams, NR, QUAD_A, QUAD_B, WIDE_A, WIDE_B};

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
/// (`RequantParams::simd_exact`).
pub fn requant_row(acc: &[i32], bias: &[i32], params: RequantParams, out: &mut [i8]) {
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
