//! aarch64 NEON micro-kernels: `smlal`-shaped widening multiply-accumulate
//! over the k-pair-interleaved panels.
//!
//! Unlike the x86 `pmaddwd` path, NEON de-interleaves the stored weight
//! pairs (`vld2q_s16`) back into a `b0` and a `b1` vector per eight columns
//! and issues two `vmlal_n_s16` per accumulator: `acc += b0·a0` then
//! `acc += b1·a1`. The association differs from the scalar reference's
//! `(a0·b0 + a1·b1)` pair sum, but absent `i32` overflow — excluded by the
//! `MAX_K` pack bound — integer addition is exact and associative, so the
//! result is bit-identical. The int4 path reads the biased-nibble k-quad
//! panels as unsigned bytes (`and 0x0F` / `ushr 4`), widens them and the
//! byte activation quads to `i16`, multiplies four reduction steps of one
//! column per `smull` and folds them with pairwise adds — `Σ a·(w + 8)`
//! on top of the `−8 · Σ a` the driver started the tile at.
//!
//! # Safety
//!
//! This module is one of the designated unsafe-kernel modules (fqlint R5
//! `unsafe-outside-kernels`): the only unsafety is calling
//! `#[target_feature(enable = "neon")]` functions — NEON is part of the
//! aarch64 baseline this module is compile-gated to — and SIMD
//! loads/stores through pointers into fixed-size arrays, in-bounds by
//! construction.

use crate::gemm::{AccTile, MR, QUAD_A, QUAD_B, WIDE_A, WIDE_B};
use core::arch::aarch64::{
    int16x8_t, uint8x16_t, vaddq_s32, vandq_u8, vdupq_n_s32, vdupq_n_u8, vget_high_s16,
    vget_high_s8, vget_high_u8, vget_low_s16, vget_low_s8, vget_low_u8, vld1q_s32, vld1q_s8,
    vld1q_u8, vld2q_s16, vmlal_n_s16, vmovl_s8, vmovl_u8, vmull_s16, vpaddq_s32,
    vreinterpretq_s16_u16, vshrq_n_u8, vst1q_s32,
};

/// NEON tile kernel over wide (`i16`-pair) panels. NEON is baseline on
/// aarch64, so this is always sound to install on this target.
// fqlint::allow(unsafe-outside-kernels): designated kernel module; NEON is
// baseline on aarch64 and the loads/stores are in-bounds by the fixed
// array types.
pub(super) fn tile_wide(a: &[[i16; WIDE_A]], b: &[[i16; WIDE_B]], acc: &mut AccTile) {
    unsafe { wide_neon(a, b, acc) }
}

/// NEON tile kernel over biased-nibble (int4) panels.
// fqlint::allow(unsafe-outside-kernels): designated kernel module; NEON is
// baseline on aarch64 and the loads/stores are in-bounds by the fixed
// array types.
pub(super) fn tile_nibble(a: &[[i8; QUAD_A]], b: &[[u8; QUAD_B]], acc: &mut AccTile) {
    unsafe { nibble_neon(a, b, acc) }
}

/// One accumulator row stays resident in eight 128-bit registers while the
/// reduction streams past; `vld2q_s16` de-interleaves each eight-column
/// pair group into `b0`/`b1` vectors for the two widening accumulates.
// fqlint::allow(unsafe-outside-kernels): loads/stores bounded by the fixed
// array types; NEON is baseline on aarch64.
#[target_feature(enable = "neon")]
unsafe fn wide_neon(a: &[[i16; WIDE_A]], b: &[[i16; WIDE_B]], acc: &mut AccTile) {
    for (r, out) in acc.iter_mut().enumerate() {
        let p = out.as_mut_ptr();
        let mut v = [vdupq_n_s32(0); 8];
        for (i, slot) in v.iter_mut().enumerate() {
            *slot = vld1q_s32(p.add(4 * i));
        }
        for (ap, bp) in a.iter().zip(b) {
            let a0 = ap[2 * r];
            let a1 = ap[2 * r + 1];
            let bq = bp.as_ptr();
            for i in 0..4 {
                let d = vld2q_s16(bq.add(16 * i));
                v[2 * i] = vmlal_n_s16(v[2 * i], vget_low_s16(d.0), a0);
                v[2 * i] = vmlal_n_s16(v[2 * i], vget_low_s16(d.1), a1);
                v[2 * i + 1] = vmlal_n_s16(v[2 * i + 1], vget_high_s16(d.0), a0);
                v[2 * i + 1] = vmlal_n_s16(v[2 * i + 1], vget_high_s16(d.1), a1);
            }
        }
        for (i, slot) in v.iter().enumerate() {
            vst1q_s32(p.add(4 * i), *slot);
        }
    }
}

/// Widens 16 decoded weight bytes — four columns × four reduction steps,
/// column-major — to `i16`: columns 0, 1 and columns 2, 3.
// fqlint::allow(unsafe-outside-kernels): register-only widening; NEON is
// baseline on aarch64.
#[target_feature(enable = "neon")]
unsafe fn widen_columns(bytes: uint8x16_t) -> [int16x8_t; 2] {
    [
        vreinterpretq_s16_u16(vmovl_u8(vget_low_u8(bytes))),
        vreinterpretq_s16_u16(vmovl_u8(vget_high_u8(bytes))),
    ]
}

/// The int4 NEON kernel: one pass per 16-byte quarter of the k-quad rows,
/// i.e. per four low-nibble and four high-nibble columns, with their
/// `MR × 2` accumulators in registers. Each column's four products
/// `u[t] · a[t]` come from one `smull`; two rounds of pairwise adds fold
/// four columns' products into one `[c0, c1, c2, c3]` vector.
// fqlint::allow(unsafe-outside-kernels): loads/stores at offsets the fixed
// array types bound (`16·quarter < 64` panel bytes, `first + 12 ≤ NR`
// tile columns); NEON is baseline on aarch64.
#[target_feature(enable = "neon")]
unsafe fn nibble_neon(a: &[[i8; QUAD_A]], b: &[[u8; QUAD_B]], acc: &mut AccTile) {
    let mask = vdupq_n_u8(0x0F);
    for quarter in 0..4 {
        // Bytes `16·quarter ..` of a k-quad row: low nibbles are columns
        // `first .. first+4`, high nibbles columns `first+8 .. first+12`.
        let first = 16 * (quarter / 2) + 4 * (quarter % 2);
        let mut v = [[vdupq_n_s32(0); 2]; MR];
        for (row, out) in v.iter_mut().zip(acc.iter()) {
            row[0] = vld1q_s32(out.as_ptr().add(first));
            row[1] = vld1q_s32(out.as_ptr().add(first + 8));
        }
        for (aq, bq) in a.iter().zip(b) {
            let bytes = vld1q_u8(bq.as_ptr().add(16 * quarter));
            let w = [
                widen_columns(vandq_u8(bytes, mask)),
                widen_columns(vshrq_n_u8::<4>(bytes)),
            ];
            // Rows 0, 1 and rows 2, 3 of the activation quad, as `i16`.
            let quads = vld1q_s8(aq.as_ptr());
            let (a01, a23) = (vmovl_s8(vget_low_s8(quads)), vmovl_s8(vget_high_s8(quads)));
            let a_rows = [
                vget_low_s16(a01),
                vget_high_s16(a01),
                vget_low_s16(a23),
                vget_high_s16(a23),
            ];
            for (row, &ar) in v.iter_mut().zip(&a_rows) {
                for (slot, [c01, c23]) in row.iter_mut().zip(w) {
                    let p01 = vpaddq_s32(
                        vmull_s16(vget_low_s16(c01), ar),
                        vmull_s16(vget_high_s16(c01), ar),
                    );
                    let p23 = vpaddq_s32(
                        vmull_s16(vget_low_s16(c23), ar),
                        vmull_s16(vget_high_s16(c23), ar),
                    );
                    *slot = vaddq_s32(*slot, vpaddq_s32(p01, p23));
                }
            }
        }
        for (row, out) in v.iter().zip(acc.iter_mut()) {
            vst1q_s32(out.as_mut_ptr().add(first), row[0]);
            vst1q_s32(out.as_mut_ptr().add(first + 8), row[1]);
        }
    }
}
