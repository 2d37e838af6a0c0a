//! x86_64 micro-kernels: AVX2 (`_mm256_madd_epi16`) and SSE2 (`pmaddwd`)
//! accumulator tiles over the k-pair-interleaved wide panels and their
//! fused `vpdpwssd` forms (256-bit VNNI, 512-bit AVX-512), the byte-operand
//! tiles (`vpmaddubsw`, `vpdpbusd`) over the biased-nibble k-quad panels,
//! the requantize epilogues, the AVX2 `Add & LN` and the AVX2 / AVX-512
//! softmax rows; the `amx` row's projection and attention drivers are the
//! submodule `amx`.
//!
//! The AVX-512 requantize ([`requant_row_avx512`], which the `amx` row
//! shares) runs sixteen elements in `i32` lanes: with `x = acc + bias` it
//! forms `sign · min(clamp, (min(|x|, x_lim) · M + half) >> shift)`, where
//! `x_lim` — the first `|x|` that saturates, computed once per GEMM or head
//! by `RequantEpilogue` — keeps the product of each lane pair's
//! `vpmuludq` below 2⁶² and the shifted value below 2³². A vector in which
//! `acc + bias` leaves `i32` (an operand sign the sum lacks) takes eight
//! `i64` lanes at a time instead; SSE2 and AVX2 always do.
//!
//! The wide paths broadcast one activation pair `(a0, a1)` into every
//! 32-bit lane and `madd` it against the panel's interleaved weight pairs:
//! lane `j` computes `a0·W[2pp][c+j] + a1·W[2pp+1][c+j]` with exact 32-bit
//! intermediate products — the identical value the scalar reference sums
//! for that column, so accumulation is bit-identical (no overflow by the
//! `MAX_K` pack bound). **VNNI** and **AVX-512** fuse the `madd` and the
//! add into `vpdpwssd` — the non-saturating form (never `vpdpwssds`), so a
//! lane is the same wrapping `i32` sum — and keep the whole tile in
//! registers while the panel streams past once: a `[i16; 64]` k-pair row
//! is two `zmm` (columns `0..16 | 16..32`) against eight accumulators, or
//! four `ymm` against sixteen (EVEX; two passes of eight in VEX).
//!
//! The int4 paths never widen a weight. A 32-byte half row of a nibble
//! panel decodes with `and 0x0F` and `srli 4` + `and` into two vectors of
//! unsigned bytes whose 32-bit lane `j` is one column's four consecutive
//! reduction steps, and the broadcast activation quad `(a0, a1, a2, a3)` of
//! a row supplies the signed bytes:
//!
//! * **AVX2** multiplies with `_mm256_maddubs_epi16(u, a)`. Its `i16`
//!   lanes hold `u0·a0 + u1·a1` and `u2·a2 + u3·a3`; the instruction
//!   saturates, but with `u ≤ 15` a lane is at most `2 · 15 · 128 = 3 840`
//!   in magnitude, so it never does. The lanes of up to `I16_QUADS = 8`
//!   consecutive k-quads are summed in `i16` (`8 · 3 840 = 30 720 ≤
//!   i16::MAX`) before one `_mm256_madd_epi16(·, 1)` widens the pair of
//!   lanes of each column into the `i32` tile.
//! * **VNNI** issues `vpdpbusd`, the non-saturating form that adds all
//!   four byte products of a lane straight into the `i32` accumulator.
//! * **AVX-512** loads the whole 64-byte k-quad row — both half rows — in
//!   one `zmm` and decodes it with the same three operations, so the low
//!   nibbles are columns `0..8 | 16..24` (one 256-bit half each) and the
//!   high nibbles columns `8..16 | 24..32`: two `vpdpbusd` per row and
//!   k-quad into eight accumulators that hold the tile in that column
//!   order, un-permuted with 256-bit inserts / extracts once per tile, at
//!   its load and its store. No lane can saturate: `vpdpbusd` is again the
//!   non-saturating form, and a lane's true sum fits `i32` by `MAX_K`.
//!
//! All compute `Σ a·(w + 8)` exactly; the driver started the tile at
//! `−8 · Σ a` (see the `gemm` module docs). They are the software image of
//! the accelerator's 8b×4b mode, where one Bit-split Inner-product Module
//! fits two 4-bit-weight products in the slot of one 8b×8b product
//! (`crates/accel/src/bim.rs`). **SSE2** has neither instruction: it
//! zero-extends the decoded bytes to `i16`, regroups them into k-pairs per
//! column and runs `pmaddwd` against sign-extended activation pairs.
//!
//! `Add & LN` ([`add_norm_rows_avx2`]) is the accelerator's 3-stage LN
//! pipeline eight elements at a time: stage 1 sign-extends both operands'
//! codes, multiplies them by their grid steps (`vpmulld`) and adds them in
//! `i32` lanes; stage 2 subtracts the mean and squares the deviations with
//! `vpmuldq` over the even and the odd elements into `i64` lanes; the
//! Newton inverse square root runs once per row in scalar code; stage 3 is
//! three `vpmuldq` products, each rounded half away from zero to Q16, on
//! sign-extended `i64` lanes, and `packs` does the final `i8` clamp. The
//! reference saturates every product to `i32` and the lanes do not: a
//! per-row bound (`stage3_fits`) shows no product of the row can, and a row
//! that fails it — none with calibrated scales — runs stage 3 through the
//! scalar element function. SSE2 has no signed 32-bit multiply or 64-bit
//! compare, so that row runs the scalar one.
//!
//! The AVX-512 `Add & LN` ([`add_norm_rows_avx512`], which the `amx` row
//! shares) makes stages 1 and 2 one pass over the codes: per 32 codes of
//! each operand, sign-extended to words, five `vpdpwssd` accumulate `Σa`,
//! `Σb` (against ones), `Σa²`, `Σab` and `Σb²`, while `vpmulld` writes the
//! sum row `s = a · step_a + b · step_b` and `vpmaxsd` / `vpminsd` track its
//! extremes. The reference's mean, `Σ(s − mean)²` and `max |s − mean|`
//! follow from those in exact `i128` algebra (`scalar::RowMoments`), so no
//! pass re-reads the row for the variance. Stage 3 is the AVX2 row's three
//! rounded products on eight `i64` lanes per `zmm`, rounding with the
//! arithmetic `vpsraq` and narrowing with the saturating `vpmovsqb`, under a
//! mask for the row's tail.
//!
//! The softmax rows ([`softmax_row_avx2`], [`softmax_row_avx512`]) are the
//! scalar row's three passes on lanes: the signed byte maximum; the
//! numerators `table[max − s]` — the distance is a wrapping byte
//! subtraction, looked up with `vpgatherdd` on the dword-widened table, or
//! with two `vpermi2b` over the byte table held in four `zmm` and a blend
//! on the index's top bit — written to the output row and summed; and
//! `(n · levels + denom/2) · m >> 48` in `u64` lanes over the even and the
//! odd elements, the reference's own expression (`x · m < 2⁵⁶` fits a
//! lane), so no envelope is needed. The AVX-512 table row
//! ([`table_row_avx512`], GELU) is the same `vpermi2b` lookup over 64
//! codes per step, indexed by `code ^ 0x80`.
//!
//! # Safety
//!
//! This module and `amx` are the designated unsafe-kernel modules of
//! x86_64 (fqlint R5 `unsafe-outside-kernels`): the only unsafety is (a)
//! calling `#[target_feature]` functions, sound because the dispatch table
//! installs them only after `is_x86_feature_detected!` confirms the feature
//! (the AVX-512 kernels all enable the one feature set `avx512_detected`
//! checks), and `_xgetbv` only after CPUID reports OSXSAVE; (b) unaligned
//! SIMD loads/stores (and one unaligned 4-byte read per activation quad or
//! pair) through raw pointers derived from fixed-size array references,
//! in-bounds by construction — or, in `Add & LN`, the requantize epilogues,
//! the softmax rows and the table lookup, from slices whose lengths the
//! safe wrapper asserts or the loop bounds first, with AVX-512 tails read
//! and written under a mask of the remaining elements (masked-off bytes are
//! not accessed) — and the AVX2 softmax's gathers, which index a 256-entry
//! table with zero-extended bytes; and (c)
//! the AMX drivers' `asm!`: tile instructions, which run only between the
//! `ldtilecfg` and the `tilerelease` of a guard that is created after an
//! assertion that the `amx` row is available, whose loads read 16 rows of
//! 64 bytes that a checked constructor placed inside one live slice and
//! whose stores write 16 or 32 rows of 128 bytes that an assertion placed
//! inside one `i32` slice; and one raw `arch_prctl` system call (x86-64
//! Linux ABI: rax, rdi, rsi in, rax out, rcx and r11 clobbered) that asks
//! for the tile data and writes no user memory.

pub(in crate::gemm) mod amx;

use super::scalar;
use crate::gemm::{
    AccTile, AddNormParams, RequantEpilogue, SoftmaxParams, ADD_NORM_FRAC_BITS, MR, QUAD_A, QUAD_B,
    WIDE_A, WIDE_B,
};
use core::arch::x86_64::{
    __m128i, __m256i, __m512i, __mmask16, __mmask32, __mmask64, __mmask8, _mm256_abs_epi32,
    _mm256_add_epi16, _mm256_add_epi32, _mm256_add_epi64, _mm256_and_si256, _mm256_andnot_si256,
    _mm256_castsi256_si128, _mm256_cmpgt_epi32, _mm256_cmpgt_epi64, _mm256_cvtepi32_epi64,
    _mm256_cvtepi8_epi32, _mm256_cvtepu8_epi32, _mm256_dpbusd_avx_epi32, _mm256_dpbusd_epi32,
    _mm256_dpwssd_avx_epi32, _mm256_dpwssd_epi32, _mm256_extracti128_si256, _mm256_i32gather_epi32,
    _mm256_loadu_si256, _mm256_madd_epi16, _mm256_maddubs_epi16, _mm256_maskz_loadu_epi32,
    _mm256_maskz_loadu_epi8, _mm256_max_epi32, _mm256_max_epi8, _mm256_max_epu32, _mm256_min_epi32,
    _mm256_mul_epi32, _mm256_mul_epu32, _mm256_mullo_epi32, _mm256_or_si256,
    _mm256_permute4x64_epi64, _mm256_set1_epi16, _mm256_set1_epi32, _mm256_set1_epi64x,
    _mm256_set1_epi8, _mm256_setzero_si256, _mm256_shuffle_epi32, _mm256_slli_epi64,
    _mm256_srai_epi32, _mm256_srl_epi64, _mm256_srli_epi16, _mm256_srli_epi64, _mm256_storeu_si256,
    _mm256_sub_epi32, _mm256_sub_epi64, _mm256_unpacklo_epi64, _mm256_xor_si256, _mm512_abs_epi32,
    _mm512_abs_epi64, _mm512_add_epi32, _mm512_add_epi64, _mm512_and_si512, _mm512_castsi256_si512,
    _mm512_castsi512_si256, _mm512_cvtepi16_epi32, _mm512_cvtepi32_epi64, _mm512_cvtepi32_epi8,
    _mm512_cvtepi64_epi8, _mm512_cvtepi8_epi16, _mm512_cvtepu8_epi32, _mm512_cvtsepi64_epi8,
    _mm512_dpbusd_epi32, _mm512_dpwssd_epi32, _mm512_extracti64x4_epi64, _mm512_inserti64x4,
    _mm512_loadu_si512, _mm512_mask_blend_epi8, _mm512_mask_loadu_epi8, _mm512_mask_max_epi32,
    _mm512_mask_min_epi32, _mm512_mask_storeu_epi32, _mm512_mask_storeu_epi8,
    _mm512_mask_sub_epi32, _mm512_mask_sub_epi64, _mm512_maskz_loadu_epi32,
    _mm512_maskz_loadu_epi8, _mm512_maskz_mov_epi8, _mm512_max_epi8, _mm512_min_epu32,
    _mm512_min_epu64, _mm512_movepi32_mask, _mm512_movepi64_mask, _mm512_movepi8_mask,
    _mm512_mul_epi32, _mm512_mul_epu32, _mm512_mullo_epi32, _mm512_mullo_epi64, _mm512_or_si512,
    _mm512_permutex2var_epi8, _mm512_reduce_add_epi64, _mm512_reduce_max_epi32,
    _mm512_reduce_min_epi32, _mm512_sad_epu8, _mm512_set1_epi16, _mm512_set1_epi32,
    _mm512_set1_epi64, _mm512_set1_epi8, _mm512_setzero_si512, _mm512_slli_epi64,
    _mm512_srai_epi64, _mm512_srl_epi64, _mm512_srli_epi16, _mm512_srli_epi64, _mm512_storeu_si512,
    _mm512_sub_epi64, _mm512_sub_epi8, _mm512_xor_si512, _mm_add_epi32, _mm_add_epi64,
    _mm_and_si128, _mm_andnot_si128, _mm_cmpgt_epi32, _mm_cmpgt_epi8, _mm_cvtsi128_si32,
    _mm_cvtsi128_si64, _mm_cvtsi32_si128, _mm_loadl_epi64, _mm_loadu_si128, _mm_madd_epi16,
    _mm_mask_storeu_epi8, _mm_maskz_loadu_epi8, _mm_max_epi8, _mm_mul_epu32, _mm_or_si128,
    _mm_packs_epi16, _mm_packs_epi32, _mm_packus_epi16, _mm_packus_epi32, _mm_set1_epi32,
    _mm_set1_epi64x, _mm_set1_epi8, _mm_setzero_si128, _mm_shuffle_epi32, _mm_slli_epi64,
    _mm_srai_epi32, _mm_srl_epi64, _mm_srli_epi16, _mm_srli_epi64, _mm_srli_si128,
    _mm_storel_epi64, _mm_storeu_si128, _mm_sub_epi64, _mm_sub_epi8, _mm_unpackhi_epi32,
    _mm_unpackhi_epi64, _mm_unpackhi_epi8, _mm_unpacklo_epi32, _mm_unpacklo_epi64,
    _mm_unpacklo_epi8, _mm_xor_si128,
};

/// Row `r`'s activation pair `(a0, a1)` packed into one `i32` lane image:
/// `a0` in bits 0..16, `a1` in bits 16..32 — broadcast by `set1_epi32`,
/// consumed 16 bits at a time by `madd_epi16` (little-endian lane order).
#[inline(always)]
fn pair_lanes(ap: &[i16; WIDE_A], r: usize) -> i32 {
    (i32::from(ap[2 * r + 1]) << 16) | (i32::from(ap[2 * r]) & 0xFFFF)
}

/// AVX2 tile kernel over wide (`i16`-pair) panels.
///
/// Must only be installed in the dispatch table when
/// `is_x86_feature_detected!("avx2")` holds — [`super::dispatch_for`] and
/// [`super::force`] guarantee that.
// fqlint::allow(unsafe-outside-kernels): designated kernel module; the
// target-feature call is guarded by runtime AVX2 detection at dispatch
// installation.
pub fn tile_wide_avx2(a: &[[i16; WIDE_A]], b: &[[i16; WIDE_B]], acc: &mut AccTile) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
    unsafe { wide_avx2(a, b, acc) }
}

/// AVX2 tile kernel over biased-nibble (int4) panels: `vpmaddubsw`.
///
/// Same installation contract as [`tile_wide_avx2`].
// fqlint::allow(unsafe-outside-kernels): designated kernel module; the
// target-feature call is guarded by runtime AVX2 detection at dispatch
// installation.
pub fn tile_nibble_avx2(a: &[[i8; QUAD_A]], b: &[[u8; QUAD_B]], acc: &mut AccTile) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
    unsafe { nibble_avx2(a, b, acc) }
}

/// Whether this CPU has the EVEX `vpdpbusd` on 256-bit registers.
fn evex_vnni_detected() -> bool {
    std::arch::is_x86_feature_detected!("avx512vnni")
        && std::arch::is_x86_feature_detected!("avx512vl")
}

/// Whether this CPU has a 256-bit `vpdpbusd` in either encoding.
pub(super) fn vnni_detected() -> bool {
    evex_vnni_detected() || std::arch::is_x86_feature_detected!("avxvnni")
}

/// VNNI tile kernel over biased-nibble (int4) panels: `vpdpbusd` in its
/// EVEX encoding where the CPU has it (32 vector registers hold the whole
/// tile), in its VEX encoding otherwise.
///
/// Installed in the dispatch table only when AVX2 and `vnni_detected`
/// hold ([`super::dispatch_for`] and [`super::force`] guarantee that);
/// called anywhere else it computes the same tile on the scalar kernel.
// fqlint::allow(unsafe-outside-kernels): designated kernel module; each
// target-feature call sits directly behind the runtime detection of its
// VNNI features, and no CPU has either of them without AVX2.
pub fn tile_nibble_vnni(a: &[[i8; QUAD_A]], b: &[[u8; QUAD_B]], acc: &mut AccTile) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx2") && vnni_detected());
    if evex_vnni_detected() {
        unsafe { nibble_vnni_evex(a, b, acc) }
    } else if std::arch::is_x86_feature_detected!("avxvnni") {
        unsafe { nibble_vnni_vex(a, b, acc) }
    } else {
        scalar::tile_nibble(a, b, acc);
    }
}

/// VNNI tile kernel over wide (`i16`-pair) panels: `vpdpwssd`, in the same
/// two encodings and under the same installation contract as
/// [`tile_nibble_vnni`].
// fqlint::allow(unsafe-outside-kernels): designated kernel module; each
// target-feature call sits directly behind the runtime detection of its
// VNNI features, and no CPU has either of them without AVX2.
pub fn tile_wide_vnni(a: &[[i16; WIDE_A]], b: &[[i16; WIDE_B]], acc: &mut AccTile) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx2") && vnni_detected());
    if evex_vnni_detected() {
        unsafe { wide_vnni_evex(a, b, acc) }
    } else if std::arch::is_x86_feature_detected!("avxvnni") {
        unsafe { wide_vnni_vex(a, b, acc) }
    } else {
        scalar::tile_wide(a, b, acc);
    }
}

/// Whether this CPU has everything the AVX-512 row uses — 512-bit
/// `vpdpbusd` / `vpdpwssd` (VNNI), byte and word lanes and byte masks (BW),
/// 64-bit multiplies and sign masks (DQ), masked 128- / 256-bit tails (VL)
/// and the two-table byte permute (VBMI) on top of F. One check for the
/// whole row: a part that lacks any of them stays on the `vnni` row.
pub(super) fn avx512_detected() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512bw")
        && std::arch::is_x86_feature_detected!("avx512dq")
        && std::arch::is_x86_feature_detected!("avx512vl")
        && std::arch::is_x86_feature_detected!("avx512vnni")
        && std::arch::is_x86_feature_detected!("avx512vbmi")
}

/// AVX-512 tile kernel over wide (`i16`-pair) panels: `zmm` `vpdpwssd`.
///
/// Must only be installed in the dispatch table when `avx512_detected`
/// holds — [`super::dispatch_for`] and [`super::force`] guarantee that.
// fqlint::allow(unsafe-outside-kernels): designated kernel module; the
// target-feature call is guarded by runtime detection of the whole AVX-512
// feature set at dispatch installation.
pub fn tile_wide_avx512(a: &[[i16; WIDE_A]], b: &[[i16; WIDE_B]], acc: &mut AccTile) {
    debug_assert!(avx512_detected());
    unsafe { wide_avx512(a, b, acc) }
}

/// AVX-512 tile kernel over biased-nibble (int4) panels: `zmm` `vpdpbusd`.
///
/// Same installation contract as [`tile_wide_avx512`].
// fqlint::allow(unsafe-outside-kernels): designated kernel module; the
// target-feature call is guarded by runtime detection of the whole AVX-512
// feature set at dispatch installation.
pub fn tile_nibble_avx512(a: &[[i8; QUAD_A]], b: &[[u8; QUAD_B]], acc: &mut AccTile) {
    debug_assert!(avx512_detected());
    unsafe { nibble_avx512(a, b, acc) }
}

/// SSE2 tile kernel over wide (`i16`-pair) panels. SSE2 is part of the
/// x86_64 baseline, so this is always sound to install on this target.
// fqlint::allow(unsafe-outside-kernels): designated kernel module; SSE2 is
// baseline on x86_64 and the loads/stores are in-bounds by the fixed array
// types.
pub fn tile_wide_sse2(a: &[[i16; WIDE_A]], b: &[[i16; WIDE_B]], acc: &mut AccTile) {
    unsafe { wide_sse2(a, b, acc) }
}

/// SSE2 tile kernel over biased-nibble (int4) panels.
// fqlint::allow(unsafe-outside-kernels): designated kernel module; SSE2 is
// baseline on x86_64 and the loads/stores are in-bounds by the fixed array
// types.
pub fn tile_nibble_sse2(a: &[[i8; QUAD_A]], b: &[[u8; QUAD_B]], acc: &mut AccTile) {
    unsafe { nibble_sse2(a, b, acc) }
}

/// One row of the accumulator tile stays resident in four 256-bit
/// registers while the whole reduction streams past it; the weight panel
/// re-streams once per row (`MR` passes over L1-resident panel bytes).
// fqlint::allow(unsafe-outside-kernels): loads/stores read and write
// `[i16; WIDE_B]` / `[i32; NR]` array interiors at constant offsets that
// the types bound; `target_feature` is guaranteed by the safe wrapper's
// installation contract.
#[target_feature(enable = "avx2")]
unsafe fn wide_avx2(a: &[[i16; WIDE_A]], b: &[[i16; WIDE_B]], acc: &mut AccTile) {
    for (r, out) in acc.iter_mut().enumerate() {
        let p = out.as_mut_ptr();
        let mut v0 = _mm256_loadu_si256(p.cast());
        let mut v1 = _mm256_loadu_si256(p.add(8).cast());
        let mut v2 = _mm256_loadu_si256(p.add(16).cast());
        let mut v3 = _mm256_loadu_si256(p.add(24).cast());
        for (ap, bp) in a.iter().zip(b) {
            let pair = _mm256_set1_epi32(pair_lanes(ap, r));
            let bq = bp.as_ptr();
            v0 = _mm256_add_epi32(v0, _mm256_madd_epi16(pair, _mm256_loadu_si256(bq.cast())));
            v1 = _mm256_add_epi32(
                v1,
                _mm256_madd_epi16(pair, _mm256_loadu_si256(bq.add(16).cast())),
            );
            v2 = _mm256_add_epi32(
                v2,
                _mm256_madd_epi16(pair, _mm256_loadu_si256(bq.add(32).cast())),
            );
            v3 = _mm256_add_epi32(
                v3,
                _mm256_madd_epi16(pair, _mm256_loadu_si256(bq.add(48).cast())),
            );
        }
        _mm256_storeu_si256(p.cast(), v0);
        _mm256_storeu_si256(p.add(8).cast(), v1);
        _mm256_storeu_si256(p.add(16).cast(), v2);
        _mm256_storeu_si256(p.add(24).cast(), v3);
    }
}

/// Consecutive k-quads whose `vpmaddubsw` lanes [`nibble_avx2`] sums in
/// `i16` before widening: a lane is at most `2 · 15 · 128 = 3 840` in
/// magnitude, and `8 · 3 840 = 30 720` is the largest multiple inside `i16`.
const I16_QUADS: usize = 8;
const _: () = assert!(I16_QUADS * 2 * 15 * 128 <= i16::MAX as usize);

/// Row `r`'s activation quad `(a0, a1, a2, a3)` broadcast into every
/// 32-bit lane, in memory order — the signed-byte operand of `vpmaddubsw`
/// and `vpdpbusd`.
// fqlint::allow(unsafe-outside-kernels): one unaligned 4-byte read at
// offset `4r ≤ 12` of a 16-byte array; AVX2 guaranteed by the callers'
// installation contract.
#[target_feature(enable = "avx2")]
unsafe fn quad_lanes(aq: &[i8; QUAD_A], r: usize) -> __m256i {
    debug_assert!(r < MR);
    _mm256_set1_epi32(aq.as_ptr().add(4 * r).cast::<i32>().read_unaligned())
}

/// Decodes half row `half` of a nibble-panel k-quad into its two vectors of
/// unsigned weight bytes `u ∈ [0, 15]`: columns `16·half + 0..8` from the
/// low nibbles and `16·half + 8..16` from the high ones, 32-bit lane `j`
/// holding reduction steps `4q .. 4q+4` of column `j`.
// fqlint::allow(unsafe-outside-kernels): one 32-byte load at offset 0 or 32
// of a 64-byte array; AVX2 guaranteed by the callers' installation
// contract.
#[target_feature(enable = "avx2")]
unsafe fn decode_quad_half(bq: &[u8; QUAD_B], half: usize) -> [__m256i; 2] {
    debug_assert!(half < 2);
    let mask = _mm256_set1_epi8(0x0F);
    let bytes = _mm256_loadu_si256(bq.as_ptr().add(32 * half).cast());
    [
        _mm256_and_si256(bytes, mask),
        _mm256_and_si256(_mm256_srli_epi16::<4>(bytes), mask),
    ]
}

/// The int4 AVX2 kernel. Per block of [`I16_QUADS`] k-quads and per
/// 16-column half, the `vpmaddubsw` lanes of all `MR` rows are summed in
/// eight `i16` registers, then widened by `madd_epi16(·, 1)` into the
/// `i32` tile — one decode feeds all `MR` rows, and the panel streams past
/// once.
// fqlint::allow(unsafe-outside-kernels): loads/stores at constant offsets
// below `NR` of `[i32; NR]` rows; AVX2 guaranteed by the wrapper's
// installation contract.
#[target_feature(enable = "avx2")]
unsafe fn nibble_avx2(a: &[[i8; QUAD_A]], b: &[[u8; QUAD_B]], acc: &mut AccTile) {
    let ones = _mm256_set1_epi16(1);
    for (a_block, b_block) in a.chunks(I16_QUADS).zip(b.chunks(I16_QUADS)) {
        for half in 0..2 {
            let mut sums = [[_mm256_setzero_si256(); 2]; MR];
            for (aq, bq) in a_block.iter().zip(b_block) {
                let w = decode_quad_half(bq, half);
                for (r, row) in sums.iter_mut().enumerate() {
                    let quad = quad_lanes(aq, r);
                    row[0] = _mm256_add_epi16(row[0], _mm256_maddubs_epi16(w[0], quad));
                    row[1] = _mm256_add_epi16(row[1], _mm256_maddubs_epi16(w[1], quad));
                }
            }
            for (row, out) in sums.iter().zip(acc.iter_mut()) {
                for (i, sum) in row.iter().enumerate() {
                    let p = out.as_mut_ptr().add(16 * half + 8 * i);
                    let wide = _mm256_madd_epi16(*sum, ones);
                    _mm256_storeu_si256(
                        p.cast(),
                        _mm256_add_epi32(_mm256_loadu_si256(p.cast()), wide),
                    );
                }
            }
        }
    }
}

/// The int4 `vpdpbusd` kernels: `$halves` half rows (`2 · $halves` column
/// vectors) of all `MR` rows stay in `i32` registers while the whole
/// reduction streams past, one `vpdpbusd` per vector, row and k-quad.
macro_rules! nibble_vnni {
    ($name:ident, $features:literal, $dpbusd:ident, $halves:literal) => {
        // fqlint::allow(unsafe-outside-kernels): loads/stores at constant
        // offsets below `NR` of `[i32; NR]` rows; the features are
        // guaranteed by `tile_nibble_vnni`'s detection.
        #[target_feature(enable = $features)]
        unsafe fn $name(a: &[[i8; QUAD_A]], b: &[[u8; QUAD_B]], acc: &mut AccTile) {
            const HALVES: usize = $halves;
            for pass in 0..2 / HALVES {
                let mut v = [[[_mm256_setzero_si256(); 2]; HALVES]; MR];
                for (row, out) in v.iter_mut().zip(acc.iter()) {
                    for (i, slot) in row.as_flattened_mut().iter_mut().enumerate() {
                        *slot =
                            _mm256_loadu_si256(out.as_ptr().add(16 * HALVES * pass + 8 * i).cast());
                    }
                }
                for (aq, bq) in a.iter().zip(b) {
                    let mut w = [[_mm256_setzero_si256(); 2]; HALVES];
                    for (h, half) in w.iter_mut().enumerate() {
                        *half = decode_quad_half(bq, HALVES * pass + h);
                    }
                    for (r, row) in v.iter_mut().enumerate() {
                        let quad = quad_lanes(aq, r);
                        for (slot, u) in row.as_flattened_mut().iter_mut().zip(w.as_flattened()) {
                            *slot = $dpbusd(*slot, *u, quad);
                        }
                    }
                }
                for (row, out) in v.iter().zip(acc.iter_mut()) {
                    for (i, slot) in row.as_flattened().iter().enumerate() {
                        _mm256_storeu_si256(
                            out.as_mut_ptr().add(16 * HALVES * pass + 8 * i).cast(),
                            *slot,
                        );
                    }
                }
            }
        }
    };
}

// VEX has 16 vector registers: one half row (8 accumulators) per pass.
nibble_vnni!(nibble_vnni_vex, "avx2,avxvnni", _mm256_dpbusd_avx_epi32, 1);
// EVEX has 32: the whole tile (16 accumulators) in one pass.
nibble_vnni!(
    nibble_vnni_evex,
    "avx2,avx512vnni,avx512vl",
    _mm256_dpbusd_epi32,
    2
);

/// Row `r`'s activation pair `(a0, a1)` as one dword, in memory order —
/// [`pair_lanes`] as a load, the operand `vpdpwssd` broadcasts.
// fqlint::allow(unsafe-outside-kernels): one unaligned 4-byte read at
// offset `4r ≤ 12` of a 16-byte array.
#[inline(always)]
unsafe fn pair_dword(ap: &[i16; WIDE_A], r: usize) -> i32 {
    debug_assert!(r < MR);
    ap.as_ptr().add(2 * r).cast::<i32>().read_unaligned()
}

/// The `i16` `vpdpwssd` kernels: `$vectors` 8-column vectors of all `MR`
/// rows stay in `i32` registers while the whole reduction streams past —
/// the panel is read once per tile instead of once per row — one fused
/// multiply-add per vector, row and k-pair.
macro_rules! wide_vnni {
    ($name:ident, $features:literal, $dpwssd:ident, $vectors:literal) => {
        // fqlint::allow(unsafe-outside-kernels): loads/stores at constant
        // offsets below `NR` of `[i32; NR]` rows and below `WIDE_B` of
        // `[i16; WIDE_B]` panel rows; the features are guaranteed by
        // `tile_wide_vnni`'s detection.
        #[target_feature(enable = $features)]
        unsafe fn $name(a: &[[i16; WIDE_A]], b: &[[i16; WIDE_B]], acc: &mut AccTile) {
            const VECTORS: usize = $vectors;
            for pass in 0..4 / VECTORS {
                let first = 8 * VECTORS * pass;
                let mut v = [[_mm256_setzero_si256(); VECTORS]; MR];
                for (row, out) in v.iter_mut().zip(acc.iter()) {
                    for (i, slot) in row.iter_mut().enumerate() {
                        *slot = _mm256_loadu_si256(out.as_ptr().add(first + 8 * i).cast());
                    }
                }
                for (ap, bp) in a.iter().zip(b) {
                    let mut w = [_mm256_setzero_si256(); VECTORS];
                    for (i, pairs) in w.iter_mut().enumerate() {
                        *pairs = _mm256_loadu_si256(bp.as_ptr().add(2 * (first + 8 * i)).cast());
                    }
                    for (r, row) in v.iter_mut().enumerate() {
                        let pair = _mm256_set1_epi32(pair_dword(ap, r));
                        for (slot, pairs) in row.iter_mut().zip(w) {
                            *slot = $dpwssd(*slot, pair, pairs);
                        }
                    }
                }
                for (row, out) in v.iter().zip(acc.iter_mut()) {
                    for (i, slot) in row.iter().enumerate() {
                        _mm256_storeu_si256(out.as_mut_ptr().add(first + 8 * i).cast(), *slot);
                    }
                }
            }
        }
    };
}

// VEX has 16 vector registers: half the columns (8 accumulators) per pass.
wide_vnni!(wide_vnni_vex, "avx2,avxvnni", _mm256_dpwssd_avx_epi32, 2);
// EVEX has 32: the whole tile (16 accumulators) in one pass.
wide_vnni!(
    wide_vnni_evex,
    "avx2,avx512vnni,avx512vl",
    _mm256_dpwssd_epi32,
    4
);

/// The `i16` AVX-512 kernel: the tile is eight `zmm` (columns `0..16` and
/// `16..32` of each row), a k-pair row of the panel is two, and every row
/// and k-pair costs one broadcast and two `vpdpwssd`.
// fqlint::allow(unsafe-outside-kernels): 64-byte loads/stores at offsets 0
// and 16 of `[i32; NR]` rows and 0 and 32 of `[i16; WIDE_B]` panel rows;
// the features are guaranteed by the wrapper's installation contract.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl,avx512vnni,avx512vbmi")]
unsafe fn wide_avx512(a: &[[i16; WIDE_A]], b: &[[i16; WIDE_B]], acc: &mut AccTile) {
    let mut v = [[_mm512_setzero_si512(); 2]; MR];
    for (row, out) in v.iter_mut().zip(acc.iter()) {
        row[0] = _mm512_loadu_si512(out.as_ptr().cast());
        row[1] = _mm512_loadu_si512(out.as_ptr().add(16).cast());
    }
    for (ap, bp) in a.iter().zip(b) {
        let w0 = _mm512_loadu_si512(bp.as_ptr().cast());
        let w1 = _mm512_loadu_si512(bp.as_ptr().add(32).cast());
        for (r, row) in v.iter_mut().enumerate() {
            let pair = _mm512_set1_epi32(pair_dword(ap, r));
            row[0] = _mm512_dpwssd_epi32(row[0], pair, w0);
            row[1] = _mm512_dpwssd_epi32(row[1], pair, w1);
        }
    }
    for (row, out) in v.iter().zip(acc.iter_mut()) {
        _mm512_storeu_si512(out.as_mut_ptr().cast(), row[0]);
        _mm512_storeu_si512(out.as_mut_ptr().add(16).cast(), row[1]);
    }
}

/// The int4 AVX-512 kernel. One `zmm` load takes both half rows of a
/// k-quad; its low nibbles are columns `0..8 | 16..24` and its high nibbles
/// columns `8..16 | 24..32` (one 256-bit half each), so the tile lives in
/// eight accumulators in that column order — `v[r][0]` and `v[r][1]` —
/// joined from and split back into the row-major tile once per call.
// fqlint::allow(unsafe-outside-kernels): 32-byte loads/stores at offsets 0,
// 8, 16 and 24 of `[i32; NR]` rows, one 64-byte load of a `[u8; QUAD_B]`
// and one unaligned 4-byte read at offset `4r ≤ 12` of a `[i8; QUAD_A]`;
// the features are guaranteed by the wrapper's installation contract.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl,avx512vnni,avx512vbmi")]
unsafe fn nibble_avx512(a: &[[i8; QUAD_A]], b: &[[u8; QUAD_B]], acc: &mut AccTile) {
    let mask = _mm512_set1_epi8(0x0F);
    let mut v = [[_mm512_setzero_si512(); 2]; MR];
    for (row, out) in v.iter_mut().zip(acc.iter()) {
        let columns = |first: usize| _mm256_loadu_si256(out.as_ptr().add(first).cast());
        let join = |low, high| _mm512_inserti64x4::<1>(_mm512_castsi256_si512(low), high);
        row[0] = join(columns(0), columns(16));
        row[1] = join(columns(8), columns(24));
    }
    for (aq, bq) in a.iter().zip(b) {
        let bytes = _mm512_loadu_si512(bq.as_ptr().cast());
        let low = _mm512_and_si512(bytes, mask);
        let high = _mm512_and_si512(_mm512_srli_epi16::<4>(bytes), mask);
        for (r, row) in v.iter_mut().enumerate() {
            let quad = _mm512_set1_epi32(aq.as_ptr().add(4 * r).cast::<i32>().read_unaligned());
            row[0] = _mm512_dpbusd_epi32(row[0], low, quad);
            row[1] = _mm512_dpbusd_epi32(row[1], high, quad);
        }
    }
    for (row, out) in v.iter().zip(acc.iter_mut()) {
        let p = out.as_mut_ptr();
        _mm256_storeu_si256(p.cast(), _mm512_castsi512_si256(row[0]));
        _mm256_storeu_si256(p.add(8).cast(), _mm512_castsi512_si256(row[1]));
        _mm256_storeu_si256(p.add(16).cast(), _mm512_extracti64x4_epi64::<1>(row[0]));
        _mm256_storeu_si256(p.add(24).cast(), _mm512_extracti64x4_epi64::<1>(row[1]));
    }
}

/// 128-bit variant of [`wide_avx2`]: eight `pmaddwd` lanes per row.
// fqlint::allow(unsafe-outside-kernels): loads/stores bounded by the fixed
// array types; SSE2 is baseline on x86_64.
#[target_feature(enable = "sse2")]
unsafe fn wide_sse2(a: &[[i16; WIDE_A]], b: &[[i16; WIDE_B]], acc: &mut AccTile) {
    for (r, out) in acc.iter_mut().enumerate() {
        let p = out.as_mut_ptr();
        let mut v = [_mm_setzero_si128(); 8];
        for (i, slot) in v.iter_mut().enumerate() {
            *slot = _mm_loadu_si128(p.add(4 * i).cast());
        }
        for (ap, bp) in a.iter().zip(b) {
            let pair = _mm_set1_epi32(pair_lanes(ap, r));
            let bq = bp.as_ptr();
            for (i, slot) in v.iter_mut().enumerate() {
                *slot = _mm_add_epi32(
                    *slot,
                    _mm_madd_epi16(pair, _mm_loadu_si128(bq.add(8 * i).cast())),
                );
            }
        }
        for (i, slot) in v.iter().enumerate() {
            _mm_storeu_si128(p.add(4 * i).cast(), *slot);
        }
    }
}

/// SSE2 requantize epilogue over one accumulator row segment.
///
/// Bit-identical to [`scalar::requant_row`] for parameter sets inside
/// [`crate::gemm::RequantParams::simd_exact`] (the caller's contract —
/// [`RequantEpilogue::kernel`] routes anything else to the scalar
/// reference): with
/// `multiplier ∈ [0, 2^30]` the 64-bit product of `|acc + bias| ≤ 2^32`
/// never exceeds `2^62`, so adding the rounding half (`≤ 2^61`) stays below
/// `2^63` and `i64` arithmetic is exact.
// fqlint::allow(unsafe-outside-kernels): designated kernel module; SSE2 is
// baseline on x86_64 and all loads/stores are bounded by the slice lengths.
pub fn requant_row_sse2(acc: &[i32], bias: &[i32], epilogue: &RequantEpilogue, out: &mut [i8]) {
    debug_assert!(epilogue.params.simd_exact());
    unsafe { requant_sse2(acc, bias, epilogue, out) }
}

/// AVX2 requantize epilogue over one accumulator row segment.
///
/// Same exactness contract as [`requant_row_sse2`]; must only be installed
/// when `is_x86_feature_detected!("avx2")` holds.
// fqlint::allow(unsafe-outside-kernels): designated kernel module; the
// target-feature call is guarded by runtime AVX2 detection at dispatch
// installation.
pub fn requant_row_avx2(acc: &[i32], bias: &[i32], epilogue: &RequantEpilogue, out: &mut [i8]) {
    debug_assert!(epilogue.params.simd_exact());
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
    unsafe { requant_avx2(acc, bias, epilogue, out) }
}

/// Requantizes one vector of two non-negative-envelope `i64` sums:
/// multiply by the Q1.30 multiplier on the absolute value (32×32 unsigned
/// partial products — the high dword of `|sum| ≤ 2^32` is 0 or 1), add the
/// rounding half, logical-shift right, clamp against the output bound and
/// re-apply the sign. All lane selects are and/andnot/or masks, so only
/// SSE2 instructions are used (no SSE4.x compares or blends).
// fqlint::allow(unsafe-outside-kernels): register-only arithmetic; SSE2 is
// baseline on x86_64.
#[target_feature(enable = "sse2")]
unsafe fn requant2_sse2(
    sum: __m128i,
    mult: __m128i,
    half: __m128i,
    count: __m128i,
    bound64: __m128i,
    bound_x: __m128i,
    xormin: __m128i,
) -> __m128i {
    // Per-i64-lane sign mask: replicate each lane's high dword, then
    // arithmetic-shift every dword down to its sign.
    let sgn = _mm_srai_epi32::<31>(_mm_shuffle_epi32::<0xF5>(sum));
    let abs = _mm_sub_epi64(_mm_xor_si128(sum, sgn), sgn);
    let prod_lo = _mm_mul_epu32(abs, mult);
    let prod_hi = _mm_mul_epu32(_mm_srli_epi64::<32>(abs), mult);
    let prod = _mm_add_epi64(prod_lo, _mm_slli_epi64::<32>(prod_hi));
    // Round half away from zero on the non-negative product; the logical
    // shift equals the arithmetic one here.
    let rounded = _mm_srl_epi64(_mm_add_epi64(prod, half), count);
    // rounded > bound, as an unsigned per-dword compare against the
    // [bound, 0] dword image of each i64 lane: the high dwords test
    // `hi != 0`, the low dwords `lo >u bound`; OR-ing a dword-swapped copy
    // widens the verdict to the full lane.
    let gt = _mm_cmpgt_epi32(_mm_xor_si128(rounded, xormin), bound_x);
    let over = _mm_or_si128(gt, _mm_shuffle_epi32::<0xB1>(gt));
    let clamped = _mm_or_si128(
        _mm_and_si128(over, bound64),
        _mm_andnot_si128(over, rounded),
    );
    _mm_sub_epi64(_mm_xor_si128(clamped, sgn), sgn)
}

/// SSE2 requantize loop: four accumulators per iteration, scalar tail.
// fqlint::allow(unsafe-outside-kernels): loads/stores stay inside
// `acc`/`bias`/`out` by the `i + 4 <= len` guard; SSE2 is baseline.
#[target_feature(enable = "sse2")]
unsafe fn requant_sse2(acc: &[i32], bias: &[i32], epilogue: &RequantEpilogue, out: &mut [i8]) {
    let params = epilogue.params;
    let len = acc.len().min(bias.len()).min(out.len());
    let mult = _mm_set1_epi64x(params.multiplier);
    let half = _mm_set1_epi64x(if params.shift > 0 {
        1i64 << (params.shift - 1)
    } else {
        0
    });
    let count = _mm_cvtsi32_si128(params.shift);
    let bound64 = _mm_set1_epi64x(i64::from(params.clamp));
    let xormin = _mm_set1_epi32(i32::MIN);
    let bound_x = _mm_xor_si128(bound64, xormin);
    let mut i = 0;
    while i + 4 <= len {
        let v = _mm_loadu_si128(acc.as_ptr().add(i).cast());
        let bv = _mm_loadu_si128(bias.as_ptr().add(i).cast());
        // Sign-extend both i32 quads to i64 pairs and add.
        let vs = _mm_srai_epi32::<31>(v);
        let bs = _mm_srai_epi32::<31>(bv);
        let sum_lo = _mm_add_epi64(_mm_unpacklo_epi32(v, vs), _mm_unpacklo_epi32(bv, bs));
        let sum_hi = _mm_add_epi64(_mm_unpackhi_epi32(v, vs), _mm_unpackhi_epi32(bv, bs));
        let r_lo = requant2_sse2(sum_lo, mult, half, count, bound64, bound_x, xormin);
        let r_hi = requant2_sse2(sum_hi, mult, half, count, bound64, bound_x, xormin);
        // Narrow the four i64 results (each in [-127, 127]) back to i32,
        // then saturating-pack to i8 — exact for this range.
        let lo32 = _mm_shuffle_epi32::<0x88>(r_lo);
        let hi32 = _mm_shuffle_epi32::<0x88>(r_hi);
        let res = _mm_unpacklo_epi64(lo32, hi32);
        let packed = _mm_packs_epi16(_mm_packs_epi32(res, res), _mm_setzero_si128());
        out.as_mut_ptr()
            .add(i)
            .cast::<i32>()
            .write_unaligned(_mm_cvtsi128_si32(packed));
        i += 4;
    }
    scalar::requant_row(&acc[i..len], &bias[i..len], epilogue, &mut out[i..len]);
}

/// 256-bit variant of [`requant2_sse2`]: four i64 lanes per call.
// fqlint::allow(unsafe-outside-kernels): register-only arithmetic;
// inherits the wrapper-installation contract for AVX2.
#[target_feature(enable = "avx2")]
unsafe fn requant4_avx2(
    sum: __m256i,
    mult: __m256i,
    half: __m256i,
    count: __m128i,
    bound64: __m256i,
    bound_x: __m256i,
    xormin: __m256i,
) -> __m256i {
    let sgn = _mm256_srai_epi32::<31>(_mm256_shuffle_epi32::<0xF5>(sum));
    let abs = _mm256_sub_epi64(_mm256_xor_si256(sum, sgn), sgn);
    let prod_lo = _mm256_mul_epu32(abs, mult);
    let prod_hi = _mm256_mul_epu32(_mm256_srli_epi64::<32>(abs), mult);
    let prod = _mm256_add_epi64(prod_lo, _mm256_slli_epi64::<32>(prod_hi));
    let rounded = _mm256_srl_epi64(_mm256_add_epi64(prod, half), count);
    let gt = _mm256_cmpgt_epi32(_mm256_xor_si256(rounded, xormin), bound_x);
    let over = _mm256_or_si256(gt, _mm256_shuffle_epi32::<0xB1>(gt));
    let clamped = _mm256_or_si256(
        _mm256_and_si256(over, bound64),
        _mm256_andnot_si256(over, rounded),
    );
    _mm256_sub_epi64(_mm256_xor_si256(clamped, sgn), sgn)
}

/// AVX2 requantize loop: eight accumulators per iteration, scalar tail.
// fqlint::allow(unsafe-outside-kernels): loads/stores stay inside
// `acc`/`bias`/`out` by the `i + 8 <= len` guard; AVX2 guaranteed by the
// wrapper's installation contract.
#[target_feature(enable = "avx2")]
unsafe fn requant_avx2(acc: &[i32], bias: &[i32], epilogue: &RequantEpilogue, out: &mut [i8]) {
    let params = epilogue.params;
    let len = acc.len().min(bias.len()).min(out.len());
    let mult = _mm256_set1_epi64x(params.multiplier);
    let half = _mm256_set1_epi64x(if params.shift > 0 {
        1i64 << (params.shift - 1)
    } else {
        0
    });
    let count = _mm_cvtsi32_si128(params.shift);
    let bound64 = _mm256_set1_epi64x(i64::from(params.clamp));
    let xormin = _mm256_set1_epi32(i32::MIN);
    let bound_x = _mm256_xor_si256(bound64, xormin);
    let mut i = 0;
    while i + 8 <= len {
        let v = _mm256_loadu_si256(acc.as_ptr().add(i).cast());
        let bv = _mm256_loadu_si256(bias.as_ptr().add(i).cast());
        let sum_lo = _mm256_add_epi64(
            _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v)),
            _mm256_cvtepi32_epi64(_mm256_castsi256_si128(bv)),
        );
        let sum_hi = _mm256_add_epi64(
            _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(v)),
            _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(bv)),
        );
        let r_lo = requant4_avx2(sum_lo, mult, half, count, bound64, bound_x, xormin);
        let r_hi = requant4_avx2(sum_hi, mult, half, count, bound64, bound_x, xormin);
        // Per-lane dword gather of the low halves, cross-lane permute to
        // drop them into the bottom 128 bits in ascending element order.
        let lo32 = _mm256_castsi256_si128(_mm256_permute4x64_epi64::<0x08>(
            _mm256_shuffle_epi32::<0x88>(r_lo),
        ));
        let hi32 = _mm256_castsi256_si128(_mm256_permute4x64_epi64::<0x08>(
            _mm256_shuffle_epi32::<0x88>(r_hi),
        ));
        let packed = _mm_packs_epi16(_mm_packs_epi32(lo32, hi32), _mm_setzero_si128());
        _mm_storel_epi64(out.as_mut_ptr().add(i).cast(), packed);
        i += 8;
    }
    scalar::requant_row(&acc[i..len], &bias[i..len], epilogue, &mut out[i..len]);
}

/// AVX-512 requantize epilogue over one accumulator row segment, shared by
/// the `avx512` and `amx` rows.
///
/// Same exactness contract as [`requant_row_sse2`]; must only be installed
/// when `avx512_detected` holds.
// fqlint::allow(unsafe-outside-kernels): designated kernel module; the
// target-feature call is guarded by runtime detection of the whole AVX-512
// feature set at dispatch installation.
pub fn requant_row_avx512(acc: &[i32], bias: &[i32], epilogue: &RequantEpilogue, out: &mut [i8]) {
    debug_assert!(epilogue.params.simd_exact());
    debug_assert!(avx512_detected());
    unsafe { requant_avx512(acc, bias, epilogue, out) }
}

/// AVX-512 requantize loop: sixteen accumulators per iteration in `i32`
/// lanes. `x = acc + bias` wraps nowhere in a vector whose lanes all pass
/// the sign test below; there `|x|` (`vpabsd`, `2³¹` read unsigned for
/// `i32::MIN`) is capped at the epilogue's `x_lim`, so one `vpmuludq` per
/// lane pair forms `min(|x|, x_lim) · multiplier < 2⁶²` exactly, the
/// rounding half and the shift leave a value below `clamp + 2³⁰ + 1 <
/// 2³²`, and `vpminud`, a masked negation and `vpmovdb` finish the code. A
/// vector where `acc + bias` left `i32` runs eight `i64` lanes at a time
/// instead — `|acc + bias| · multiplier` (below 2⁶², so `vpmullq` is
/// exact), the rounding half, the shift, `vpminuq` for the clamp, a masked
/// negation, `vpmovqb`. Whole vectors run under the all-ones mask, which
/// folds away; the tail runs the same lanes under a mask of the elements
/// that remain.
// fqlint::allow(unsafe-outside-kernels): every load and store is masked to
// the `min(16, len − i)` elements left in `acc`/`bias`/`out` (the `i64`
// halves to the same elements); the features are guaranteed by the
// wrapper's installation contract.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl,avx512vnni,avx512vbmi")]
unsafe fn requant_avx512(acc: &[i32], bias: &[i32], epilogue: &RequantEpilogue, out: &mut [i8]) {
    let params = epilogue.params;
    let len = acc.len().min(bias.len()).min(out.len());
    let mult = _mm512_set1_epi64(params.multiplier);
    let half = _mm512_set1_epi64(if params.shift > 0 {
        1i64 << (params.shift - 1)
    } else {
        0
    });
    let count = _mm_cvtsi32_si128(params.shift);
    let bound = _mm512_set1_epi64(i64::from(params.clamp));
    let bound32 = _mm512_set1_epi32(params.clamp);
    let limit = _mm512_set1_epi32(epilogue.saturates_from().cast_signed());
    let zero = _mm512_setzero_si512();
    let codes = out.as_mut_ptr();
    // Round half away from zero on a non-negative product; the logical
    // shift equals the arithmetic one here.
    let round = |product: __m512i| _mm512_srl_epi64(_mm512_add_epi64(product, half), count);
    let eight = |i: usize, k: __mmask8| {
        let v = _mm256_maskz_loadu_epi32(k, acc.as_ptr().add(i));
        let bv = _mm256_maskz_loadu_epi32(k, bias.as_ptr().add(i));
        let sum = _mm512_add_epi64(_mm512_cvtepi32_epi64(v), _mm512_cvtepi32_epi64(bv));
        let rounded = round(_mm512_mullo_epi64(_mm512_abs_epi64(sum), mult));
        let clamped = _mm512_min_epu64(rounded, bound);
        let signed = _mm512_mask_sub_epi64(clamped, _mm512_movepi64_mask(sum), zero, clamped);
        _mm_mask_storeu_epi8(
            codes.add(i),
            __mmask16::from(k),
            _mm512_cvtepi64_epi8(signed),
        );
    };
    let sixteen = |i: usize, k: __mmask16| {
        let a = _mm512_maskz_loadu_epi32(k, acc.as_ptr().add(i));
        let b = _mm512_maskz_loadu_epi32(k, bias.as_ptr().add(i));
        let x = _mm512_add_epi32(a, b);
        // `acc + bias` wrapped where both operands share a sign the sum
        // lacks.
        let wrapped = _mm512_and_si512(_mm512_xor_si512(a, x), _mm512_xor_si512(b, x));
        if _mm512_movepi32_mask(wrapped) != 0 {
            let [low, high] = k.to_le_bytes();
            eight(i, low);
            eight(i + 8, high);
            return;
        }
        let magnitude = _mm512_min_epu32(_mm512_abs_epi32(x), limit);
        let even = round(_mm512_mul_epu32(magnitude, mult));
        let odd = round(_mm512_mul_epu32(_mm512_srli_epi64::<32>(magnitude), mult));
        // Both are below 2³²: the odd ones slot into the empty high dwords,
        // which puts all sixteen back in element order.
        let rounded = _mm512_or_si512(even, _mm512_slli_epi64::<32>(odd));
        let clamped = _mm512_min_epu32(rounded, bound32);
        let signed = _mm512_mask_sub_epi32(clamped, _mm512_movepi32_mask(x), zero, clamped);
        _mm_mask_storeu_epi8(codes.add(i), k, _mm512_cvtepi32_epi8(signed));
    };
    let mut i = 0;
    while i + 16 <= len {
        sixteen(i, !0);
        i += 16;
    }
    if i < len {
        sixteen(i, (1 << (len - i)) - 1);
    }
}

/// AVX2 `Add & LN` over whole matrices (see [`super::AddNormKernel`]).
///
/// Bit-identical to [`scalar::add_norm_rows`] for parameter sets inside
/// [`AddNormParams::simd_exact`] (the caller's contract —
/// [`AddNormParams::kernel`] routes anything else to the scalar reference):
/// there neither the operand add nor the mean subtraction can leave `i32`,
/// so plain lanes equal the saturating reference, and the squared
/// deviations sum exactly in `i64` lanes in any order. Stage 3 reproduces
/// the reference's three rounded, saturating Q16 products on lanes that
/// cannot saturate when the row's `max |c|` and inverse deviation bound
/// every intermediate inside `i32` (`stage3_fits`), and through the
/// scalar element function otherwise. Must only be installed when
/// `is_x86_feature_detected!("avx2")` holds.
///
/// # Panics
///
/// Panics unless `sums` is one row and `a`, `b`, `out` are equal numbers
/// of whole rows.
// fqlint::allow(unsafe-outside-kernels): designated kernel module; the
// target-feature call is guarded by runtime AVX2 detection at dispatch
// installation, and the lengths its loads and stores rely on are asserted
// by `add_norm_hidden` on the line before.
pub fn add_norm_rows_avx2(
    params: &AddNormParams,
    sums: &mut [i32],
    a: &[i8],
    b: &[i8],
    out: &mut [i8],
) {
    debug_assert!(params.simd_exact());
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
    let hidden = scalar::add_norm_hidden(params, sums, a, b, out);
    let rows = a.chunks_exact(hidden).zip(b.chunks_exact(hidden));
    for (out, (a, b)) in out.chunks_exact_mut(hidden).zip(rows) {
        unsafe { add_norm_row_avx2(params, sums, a, b, out) }
    }
}

/// Sum of the four `i64` lanes.
#[target_feature(enable = "avx2")]
fn hsum_epi64(v: __m256i) -> i64 {
    let pair = _mm_add_epi64(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
    _mm_cvtsi128_si64(_mm_add_epi64(pair, _mm_unpackhi_epi64(pair, pair)))
}

/// Whether no stage-3 intermediate of a row can saturate: every `|c|` of
/// the row is at most `max_c`, a rounded Q16 product is at most
/// `(|x|·|y| + 2^15) >> 16` in magnitude and grows with either factor, so
/// the four bounds below cover every element.
fn stage3_fits(params: &AddNormParams, max_c: i64, inv_std: i32) -> bool {
    let limit = i64::from(i32::MAX);
    let product = |x: i64, y: i64| (x * y + (1 << 15)) >> ADD_NORM_FRAC_BITS;
    let scaled = product(max_c, i64::from(inv_std.unsigned_abs()));
    if scaled > limit {
        return false;
    }
    let weighted = product(scaled, params.gamma_max);
    if weighted > limit {
        return false;
    }
    let shifted = weighted + params.beta_max;
    shifted <= limit && product(shifted, i64::from(params.out_scale.unsigned_abs())) <= limit
}

/// `p / 2^16` rounded half away from zero, for `i64` lanes whose quotient
/// fits `i32`: `(p + 2^15 − [p < 0]) >> 16`, read from the low dword of
/// each lane — there the logical shift AVX2 has equals the arithmetic one
/// it lacks. The high dwords are garbage; `vpmuldq` and the final narrowing
/// read low dwords only.
#[target_feature(enable = "avx2")]
fn round16(p: __m256i) -> __m256i {
    let half = _mm256_set1_epi64x(1 << 15);
    let negative = _mm256_cmpgt_epi64(_mm256_setzero_si256(), p);
    _mm256_srli_epi64::<16>(_mm256_add_epi64(_mm256_add_epi64(p, half), negative))
}

/// Stage 3 up to the output-scale product for four elements in
/// sign-extended `i64` lanes: `((c · inv_std) · gamma + beta) · out_scale`,
/// each product rounded to Q16. The caller has shown no step can saturate
/// ([`stage3_fits`]); only the low dword of a lane is meaningful.
#[target_feature(enable = "avx2")]
fn scale4(
    c: __m256i,
    inv_std: __m256i,
    gamma: __m256i,
    beta: __m256i,
    out_scale: __m256i,
) -> __m256i {
    let scaled = round16(_mm256_mul_epi32(c, inv_std));
    let weighted = round16(_mm256_mul_epi32(scaled, gamma));
    round16(_mm256_mul_epi32(
        _mm256_add_epi64(weighted, beta),
        out_scale,
    ))
}

/// Stage 3 over the vector part of a row: eight codes per step from the
/// centred values in `c`; returns how many elements it covered.
// fqlint::allow(unsafe-outside-kernels): every load reads four `i32` at
// `i` or `i + 4` and the store writes eight `i8` at `i`, with
// `i + 8 <= hidden` and all four slices `hidden` long (the caller's
// contract); AVX2 guaranteed by the wrapper's installation contract.
#[target_feature(enable = "avx2")]
unsafe fn add_norm_stage3_avx2(
    params: &AddNormParams,
    c: &[i32],
    inv_std: i32,
    out: &mut [i8],
) -> usize {
    let hidden = out.len();
    debug_assert!(c.len() == hidden && params.gamma.len() == hidden);
    debug_assert!(params.beta.len() == hidden);
    let inv = _mm256_set1_epi64x(i64::from(inv_std));
    let out_scale = _mm256_set1_epi64x(i64::from(params.out_scale));
    // Past ±2^24 a value rounds to a code beyond ±128 whatever it is:
    // clamping there first keeps the rounding add inside `i32` lanes.
    let (max, min) = (_mm256_set1_epi32(1 << 24), _mm256_set1_epi32(-(1 << 24)));
    let half = _mm256_set1_epi32(1 << 15);
    let quad = |i: usize| {
        let wide =
            |values: &[i32]| _mm256_cvtepi32_epi64(_mm_loadu_si128(values.as_ptr().add(i).cast()));
        scale4(
            wide(c),
            inv,
            wide(&params.gamma),
            wide(&params.beta),
            out_scale,
        )
    };
    let mut i = 0;
    while i + 8 <= hidden {
        // The low dwords of both quads, back in element order.
        let lo = _mm256_shuffle_epi32::<0x88>(quad(i));
        let hi = _mm256_shuffle_epi32::<0x88>(quad(i + 4));
        let scaled = _mm256_permute4x64_epi64::<0xD8>(_mm256_unpacklo_epi64(lo, hi));
        // Round the fixed-point value to the nearest integer code.
        let scaled = _mm256_max_epi32(_mm256_min_epi32(scaled, max), min);
        let negative = _mm256_srai_epi32::<31>(scaled);
        let codes =
            _mm256_srai_epi32::<16>(_mm256_add_epi32(_mm256_add_epi32(scaled, half), negative));
        // Both packs saturate, the second to the `i8` code range.
        let codes = _mm_packs_epi32(
            _mm256_castsi256_si128(codes),
            _mm256_extracti128_si256::<1>(codes),
        );
        _mm_storel_epi64(
            out.as_mut_ptr().add(i).cast(),
            _mm_packs_epi16(codes, codes),
        );
        i += 8;
    }
    i
}

/// One row of [`add_norm_rows_avx2`]: each stage runs eight elements per
/// step and finishes the row's tail with the scalar row's element
/// functions.
// fqlint::allow(unsafe-outside-kernels): loads and stores touch eight
// codes / sums at `i` with `i + 8 <= hidden`, and `a`, `b`, `out` and
// `sums` are all `hidden` long (asserted by the wrapper); AVX2 guaranteed
// by the wrapper's installation contract.
#[target_feature(enable = "avx2")]
unsafe fn add_norm_row_avx2(
    params: &AddNormParams,
    sums: &mut [i32],
    a: &[i8],
    b: &[i8],
    out: &mut [i8],
) {
    let hidden = sums.len();
    debug_assert!(a.len() == hidden && b.len() == hidden && out.len() == hidden);
    let n = hidden as i64;

    // Stage 1: add the two operands and accumulate the mean.
    let operand = |codes: &[i8], step: i32, i: usize| {
        let codes = _mm256_cvtepi8_epi32(_mm_loadl_epi64(codes.as_ptr().add(i).cast()));
        _mm256_mullo_epi32(codes, _mm256_set1_epi32(step))
    };
    let mut totals = _mm256_setzero_si256();
    let mut i = 0;
    while i + 8 <= hidden {
        let sum = _mm256_add_epi32(operand(a, params.step_a, i), operand(b, params.step_b, i));
        _mm256_storeu_si256(sums.as_mut_ptr().add(i).cast(), sum);
        let low = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(sum));
        let high = _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(sum));
        totals = _mm256_add_epi64(totals, _mm256_add_epi64(low, high));
        i += 8;
    }
    let mut total = hsum_epi64(totals);
    for ((sum, &xa), &xb) in sums[i..].iter_mut().zip(&a[i..]).zip(&b[i..]) {
        *sum = scalar::add_norm_sum(params, xa, xb);
        total += i64::from(*sum);
    }
    // fqlint::allow(narrowing-cast): the mean of `i32` values is itself in
    // `i32` range.
    let mean = (total / n) as i32;

    // Stage 2: subtract the mean, accumulate the squares (`vpmuldq` over
    // the even and the odd elements) and track `max |c|` for stage 3.
    let mean_lanes = _mm256_set1_epi32(mean);
    let mut squares = _mm256_setzero_si256();
    let mut max_lanes = _mm256_setzero_si256();
    let mut i = 0;
    while i + 8 <= hidden {
        let at = sums.as_mut_ptr().add(i);
        let c = _mm256_sub_epi32(_mm256_loadu_si256(at.cast()), mean_lanes);
        _mm256_storeu_si256(at.cast(), c);
        let odd = _mm256_srli_epi64::<32>(c);
        let pair = _mm256_add_epi64(_mm256_mul_epi32(c, c), _mm256_mul_epi32(odd, odd));
        squares = _mm256_add_epi64(squares, pair);
        max_lanes = _mm256_max_epu32(max_lanes, _mm256_abs_epi32(c));
        i += 8;
    }
    let mut square_sum = hsum_epi64(squares);
    let mut lanes = [0u32; 8];
    _mm256_storeu_si256(lanes.as_mut_ptr().cast(), max_lanes);
    let mut max_c = lanes.into_iter().max().unwrap_or(0);
    for c in &mut sums[i..] {
        *c = c.saturating_sub(mean);
        square_sum += i64::from(*c) * i64::from(*c);
        max_c = max_c.max(c.unsigned_abs());
    }
    let inv_std = scalar::add_norm_inv_std(params, i128::from(square_sum / n));

    // Stage 3: element-wise gamma/beta and output requantization.
    // A row whose bound fails takes the scalar element function throughout.
    let done = if stage3_fits(params, i64::from(max_c), inv_std) {
        add_norm_stage3_avx2(params, sums, inv_std, out)
    } else {
        0
    };
    let scaled = sums[done..]
        .iter()
        .zip(params.gamma[done..].iter().zip(&params.beta[done..]));
    for (code, (&c, (&gamma, &beta))) in out[done..].iter_mut().zip(scaled) {
        *code = scalar::add_norm_code(c, inv_std, gamma, beta, params.out_scale);
    }
}

/// AVX-512 `Add & LN` over whole matrices (see [`super::AddNormKernel`]),
/// shared by the `avx512` and `amx` rows.
///
/// Same exactness contract as [`add_norm_rows_avx2`]: inside
/// [`AddNormParams::simd_exact`] no operand, sum or deviation saturates, so
/// the integer moments of a row's codes give the reference's mean and
/// variance exactly ([`scalar::RowMoments::stats`]), and stage 3 runs on
/// lanes wherever `stage3_fits` says none of its products can saturate.
/// Must only be installed when `avx512_detected` holds.
///
/// # Panics
///
/// Panics unless `sums` is one row and `a`, `b`, `out` are equal numbers
/// of whole rows.
// fqlint::allow(unsafe-outside-kernels): designated kernel module; the
// target-feature call is guarded by runtime detection of the whole AVX-512
// feature set at dispatch installation, and the lengths its loads and
// stores rely on are asserted by `add_norm_hidden` on the line before.
pub fn add_norm_rows_avx512(
    params: &AddNormParams,
    sums: &mut [i32],
    a: &[i8],
    b: &[i8],
    out: &mut [i8],
) {
    debug_assert!(params.simd_exact());
    debug_assert!(avx512_detected());
    let hidden = scalar::add_norm_hidden(params, sums, a, b, out);
    let rows = a.chunks_exact(hidden).zip(b.chunks_exact(hidden));
    for (out, (a, b)) in out.chunks_exact_mut(hidden).zip(rows) {
        unsafe { add_norm_row_avx512(params, sums, a, b, out) }
    }
}

/// The sum of sixteen `i32` lanes, in `i64`.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl,avx512vnni,avx512vbmi")]
fn hsum_epi32_wide(v: __m512i) -> i64 {
    let low = _mm512_cvtepi32_epi64(_mm512_castsi512_si256(v));
    let high = _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64::<1>(v));
    _mm512_reduce_add_epi64(_mm512_add_epi64(low, high))
}

/// One row of [`add_norm_rows_avx512`]: the moment pass, the row's
/// statistics, then stage 3 on lanes or, for a row whose bound fails,
/// through the scalar element function.
// fqlint::allow(unsafe-outside-kernels): `a`, `b`, `out` and `sums` are all
// `hidden` long (asserted by the wrapper), which is what the two passes'
// masked loads and stores rely on; the features are guaranteed by the
// wrapper's installation contract.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl,avx512vnni,avx512vbmi")]
unsafe fn add_norm_row_avx512(
    params: &AddNormParams,
    sums: &mut [i32],
    a: &[i8],
    b: &[i8],
    out: &mut [i8],
) {
    let hidden = sums.len();
    debug_assert!(a.len() == hidden && b.len() == hidden && out.len() == hidden);
    let stats = add_norm_moments_avx512(params, sums, a, b).stats(params, hidden);
    if stage3_fits(params, stats.max_c, stats.inv_std) {
        add_norm_stage3_avx512(params, sums, stats, out);
    } else {
        let scaled = sums.iter().zip(params.gamma.iter().zip(&params.beta));
        for (code, (&s, (&gamma, &beta))) in out.iter_mut().zip(scaled) {
            let c = s.saturating_sub(stats.mean);
            *code = scalar::add_norm_code(c, stats.inv_std, gamma, beta, params.out_scale);
        }
    }
}

/// Stages 1 and 2 of one row in one pass over its codes, 32 per step (the
/// last step under a mask of the codes that remain, masked-off codes read
/// as zero and add nothing): the sum row into `sums`, its extremes, and the
/// five code moments by `vpdpwssd` over sign-extended words. A moment lane
/// takes two products of at most `2¹⁴` per step, which
/// [`crate::gemm::MAX_ADD_NORM_HIDDEN`] keeps inside `i32`; `|a · step_a +
/// b · step_b| ≤ i32::MAX / 2` inside the envelope, so `vpmulld` and the
/// add are exact.
// fqlint::allow(unsafe-outside-kernels): every load of `a` / `b` and store
// of `sums` — all `hidden` long, asserted by the public wrapper — is masked
// to the `min(32, hidden − i)` elements left; the features are guaranteed
// by the wrapper's installation contract.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl,avx512vnni,avx512vbmi")]
unsafe fn add_norm_moments_avx512(
    params: &AddNormParams,
    sums: &mut [i32],
    a: &[i8],
    b: &[i8],
) -> scalar::RowMoments {
    let hidden = sums.len();
    let (step_a, step_b) = (
        _mm512_set1_epi32(params.step_a),
        _mm512_set1_epi32(params.step_b),
    );
    let ones = _mm512_set1_epi16(1);
    let [mut sum_a, mut sum_b, mut sum_aa, mut sum_ab, mut sum_bb] = [_mm512_setzero_si512(); 5];
    let (mut s_max, mut s_min) = (_mm512_set1_epi32(i32::MIN), _mm512_set1_epi32(i32::MAX));
    for i in (0..hidden).step_by(32) {
        let left = hidden - i;
        let k: __mmask32 = if left >= 32 { !0 } else { (1 << left) - 1 };
        let wa = _mm512_cvtepi8_epi16(_mm256_maskz_loadu_epi8(k, a.as_ptr().add(i)));
        let wb = _mm512_cvtepi8_epi16(_mm256_maskz_loadu_epi8(k, b.as_ptr().add(i)));
        sum_a = _mm512_dpwssd_epi32(sum_a, wa, ones);
        sum_b = _mm512_dpwssd_epi32(sum_b, wb, ones);
        sum_aa = _mm512_dpwssd_epi32(sum_aa, wa, wa);
        sum_ab = _mm512_dpwssd_epi32(sum_ab, wa, wb);
        sum_bb = _mm512_dpwssd_epi32(sum_bb, wb, wb);
        // The sum row, sixteen dwords at a time.
        let low = |words: __m512i| _mm512_cvtepi16_epi32(_mm512_castsi512_si256(words));
        let high = |words: __m512i| _mm512_cvtepi16_epi32(_mm512_extracti64x4_epi64::<1>(words));
        for (first, ea, eb) in [(0, low(wa), low(wb)), (16, high(wa), high(wb))] {
            if first >= left {
                break;
            }
            let kh: __mmask16 = if left - first >= 16 {
                !0
            } else {
                (1 << (left - first)) - 1
            };
            let s = _mm512_add_epi32(
                _mm512_mullo_epi32(ea, step_a),
                _mm512_mullo_epi32(eb, step_b),
            );
            _mm512_mask_storeu_epi32(sums.as_mut_ptr().add(i + first), kh, s);
            s_max = _mm512_mask_max_epi32(s_max, kh, s_max, s);
            s_min = _mm512_mask_min_epi32(s_min, kh, s_min, s);
        }
    }
    scalar::RowMoments {
        sum_a: hsum_epi32_wide(sum_a),
        sum_b: hsum_epi32_wide(sum_b),
        sum_aa: hsum_epi32_wide(sum_aa),
        sum_ab: hsum_epi32_wide(sum_ab),
        sum_bb: hsum_epi32_wide(sum_bb),
        s_max: _mm512_reduce_max_epi32(s_max),
        s_min: _mm512_reduce_min_epi32(s_min),
    }
}

/// Stage 3 of one row on eight sign-extended `i64` lanes per step (the
/// last under a mask): `c = s − mean`, then `((c · inv_std) · gamma + beta)
/// · out_scale` with each `vpmuldq` product rounded half away from zero to
/// Q16 as `(p + 2¹⁵ − [p < 0]) >> 16` on the arithmetic `vpsraq`, the code
/// rounded the same way and narrowed by the saturating `vpmovsqb` — the
/// reference's `i8` clamp. The caller has shown no product can saturate
/// ([`stage3_fits`]), so every factor `vpmuldq` reads is the exact value
/// in the low dword.
// fqlint::allow(unsafe-outside-kernels): every load of `sums`, `gamma`,
// `beta` and store of `out` — all `hidden` long (the wrapper's assertion
// and `AddNormParams::new`'s) — is masked to the `min(8, hidden − i)`
// elements left; the features are guaranteed by the wrapper's installation
// contract.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl,avx512vnni,avx512vbmi")]
unsafe fn add_norm_stage3_avx512(
    params: &AddNormParams,
    sums: &[i32],
    stats: scalar::RowStats,
    out: &mut [i8],
) {
    let hidden = out.len();
    debug_assert!(sums.len() == hidden && params.gamma.len() == hidden);
    debug_assert!(params.beta.len() == hidden);
    let mean = _mm512_set1_epi64(i64::from(stats.mean));
    let inv = _mm512_set1_epi64(i64::from(stats.inv_std));
    let out_scale = _mm512_set1_epi64(i64::from(params.out_scale));
    let half = _mm512_set1_epi64(1 << 15);
    let round = |p: __m512i| {
        let negative = _mm512_srai_epi64::<63>(p);
        _mm512_srai_epi64::<16>(_mm512_add_epi64(_mm512_add_epi64(p, half), negative))
    };
    for i in (0..hidden).step_by(8) {
        let left = hidden - i;
        let k: __mmask8 = if left >= 8 { !0 } else { (1 << left) - 1 };
        let wide = |values: &[i32]| {
            _mm512_cvtepi32_epi64(_mm256_maskz_loadu_epi32(k, values.as_ptr().add(i)))
        };
        let c = _mm512_sub_epi64(wide(sums), mean);
        let scaled = round(_mm512_mul_epi32(c, inv));
        let weighted = round(_mm512_mul_epi32(scaled, wide(&params.gamma)));
        let shifted = _mm512_add_epi64(weighted, wide(&params.beta));
        let code = round(round(_mm512_mul_epi32(shifted, out_scale)));
        _mm_mask_storeu_epi8(
            out.as_mut_ptr().add(i),
            __mmask16::from(k),
            _mm512_cvtsepi64_epi8(code),
        );
    }
}

/// AVX2 softmax over one row of scores (see [`super::SoftmaxKernel`]):
/// bit-identical to [`scalar::softmax_row`] for every [`SoftmaxParams`].
/// Must only be installed when `is_x86_feature_detected!("avx2")` holds.
///
/// # Panics
///
/// Panics if `scores` and `out` differ in length or are longer than
/// `MAX_ATTN_SEQ`.
// fqlint::allow(unsafe-outside-kernels): designated kernel module; the
// target-feature call is guarded by runtime AVX2 detection at dispatch
// installation, and the equal lengths its loads and stores rely on are
// asserted by `softmax_len` on the line before.
pub fn softmax_row_avx2(params: &SoftmaxParams, scores: &[i8], out: &mut [u8]) {
    debug_assert!(std::arch::is_x86_feature_detected!("avx2"));
    if scalar::softmax_len(scores, out) > 0 {
        unsafe { softmax_avx2(params, scores, out) }
    }
}

/// AVX-512 softmax over one row of scores: same contract as
/// [`softmax_row_avx2`]; must only be installed when `avx512_detected`
/// holds.
///
/// # Panics
///
/// Panics if `scores` and `out` differ in length or are longer than
/// `MAX_ATTN_SEQ`.
// fqlint::allow(unsafe-outside-kernels): designated kernel module; the
// target-feature call is guarded by runtime detection of the whole AVX-512
// feature set at dispatch installation, and the equal lengths its loads and
// stores rely on are asserted by `softmax_len` on the line before.
pub fn softmax_row_avx512(params: &SoftmaxParams, scores: &[i8], out: &mut [u8]) {
    debug_assert!(avx512_detected());
    if scalar::softmax_len(scores, out) > 0 {
        unsafe { softmax_avx512(params, scores, out) }
    }
}

/// The largest of the sixteen signed bytes.
#[target_feature(enable = "sse4.1")]
fn hmax_epi8(v: __m128i) -> i8 {
    // Byte 0 only ever meets bytes of `v`: the zeros the shifts bring in
    // stay above it.
    let v = _mm_max_epi8(v, _mm_srli_si128::<8>(v));
    let v = _mm_max_epi8(v, _mm_srli_si128::<4>(v));
    let v = _mm_max_epi8(v, _mm_srli_si128::<2>(v));
    let v = _mm_max_epi8(v, _mm_srli_si128::<1>(v));
    _mm_cvtsi128_si32(v).to_le_bytes()[0].cast_signed()
}

/// One non-empty row of [`softmax_row_avx2`]: each pass runs eight
/// elements per step (the maximum thirty-two) and finishes the row's tail
/// with the scalar row's element functions.
// fqlint::allow(unsafe-outside-kernels): loads and stores touch thirty-two
// scores or eight scores / numerators at `i` with `i + 32 <= len` /
// `i + 8 <= len`, and `scores` and `out` are both `len` long (asserted by
// the wrapper); the gather indexes the 256-entry dword table with
// zero-extended bytes; AVX2 guaranteed by the wrapper's installation
// contract.
#[target_feature(enable = "avx2")]
unsafe fn softmax_avx2(params: &SoftmaxParams, scores: &[i8], out: &mut [u8]) {
    let len = scores.len();
    debug_assert!(len > 0 && out.len() == len);

    // Pass 1: the row maximum.
    let mut max_lanes = _mm256_set1_epi8(i8::MIN);
    let mut i = 0;
    while i + 32 <= len {
        let s = _mm256_loadu_si256(scores.as_ptr().add(i).cast());
        max_lanes = _mm256_max_epi8(max_lanes, s);
        i += 32;
    }
    let mut max = hmax_epi8(_mm_max_epi8(
        _mm256_castsi256_si128(max_lanes),
        _mm256_extracti128_si256::<1>(max_lanes),
    ));
    for &s in &scores[i..] {
        max = max.max(s);
    }

    // Pass 2: the numerators, into `out`, and their sum. The distance
    // `max − s` is in `[0, 255]`: the wrapping byte difference is it.
    let max_bytes = _mm_set1_epi8(max);
    let mut sums = _mm256_setzero_si256();
    let mut i = 0;
    while i + 8 <= len {
        let s = _mm_loadl_epi64(scores.as_ptr().add(i).cast());
        let distance = _mm256_cvtepu8_epi32(_mm_sub_epi8(max_bytes, s));
        let n = _mm256_i32gather_epi32::<4>(params.wide.as_ptr().cast(), distance);
        sums = _mm256_add_epi32(sums, n);
        // At most 255 each, so neither pack saturates.
        let n = _mm_packus_epi32(_mm256_castsi256_si128(n), _mm256_extracti128_si256::<1>(n));
        _mm_storel_epi64(out.as_mut_ptr().add(i).cast(), _mm_packus_epi16(n, n));
        i += 8;
    }
    // A lane sums at most `len / 8` numerators: far inside a dword.
    let mut lanes = [0u32; 8];
    _mm256_storeu_si256(lanes.as_mut_ptr().cast(), sums);
    let mut denom: u64 = lanes.into_iter().map(u64::from).sum();
    for (n, &s) in out[i..].iter_mut().zip(&scores[i..]) {
        *n = scalar::softmax_numerator(params, max, s);
        denom += u64::from(*n);
    }

    // Pass 3: `(n · levels + denom/2) · m >> 48` over the even and the odd
    // elements in `u64` lanes. `vpmuludq` reads low dwords only, so the
    // product with `m < 2⁴⁹` is two partial products; their sum is
    // `x · m < 2⁵⁶`.
    let divide = scalar::RowReciprocal::new(denom);
    let levels = _mm256_set1_epi64x(i64::from(params.out_levels));
    let half = _mm256_set1_epi64x(divide.half.cast_signed());
    let m_low = _mm256_set1_epi64x(divide.reciprocal.cast_signed());
    let m_high = _mm256_srli_epi64::<32>(m_low);
    let quotient = |n: __m256i| {
        let x = _mm256_add_epi64(_mm256_mul_epu32(n, levels), half);
        let product = _mm256_add_epi64(
            _mm256_mul_epu32(x, m_low),
            _mm256_slli_epi64::<32>(_mm256_mul_epu32(x, m_high)),
        );
        _mm256_srli_epi64::<48>(product)
    };
    let mut i = 0;
    while i + 8 <= len {
        let n = _mm256_cvtepu8_epi32(_mm_loadl_epi64(out.as_ptr().add(i).cast()));
        let even = quotient(n);
        let odd = quotient(_mm256_srli_epi64::<32>(n));
        // Quotients are at most 255: the odd ones slot into the empty high
        // dwords, which puts all eight back in element order.
        let q = _mm256_or_si256(even, _mm256_slli_epi64::<32>(odd));
        let q = _mm_packus_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256::<1>(q));
        _mm_storel_epi64(out.as_mut_ptr().add(i).cast(), _mm_packus_epi16(q, q));
        i += 8;
    }
    let levels = u64::from(params.out_levels);
    for n in &mut out[i..] {
        *n = divide.rounded(u64::from(*n) * levels);
    }
}

/// The mask of the first `min(64, left)` byte lanes.
fn mask64(left: usize) -> __mmask64 {
    if left >= 64 {
        !0
    } else {
        (1 << left) - 1
    }
}

/// A 256-byte table in four `zmm`, 64 entries each — the operands of
/// [`lookup_bytes`].
// fqlint::allow(unsafe-outside-kernels): four 64-byte loads at offsets 0,
// 64, 128 and 192 of `table`, which every caller takes from a 256-byte
// array; the features are guaranteed by the callers' installation
// contract.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl,avx512vnni,avx512vbmi")]
unsafe fn byte_quarters(table: *const u8) -> [__m512i; 4] {
    [0, 1, 2, 3].map(|quarter| _mm512_loadu_si512(table.add(64 * quarter).cast()))
}

/// `table[index]` for 64 byte indices at once, the table held in four
/// `zmm` ([`byte_quarters`]): bit 6 of an index picks the table of a
/// `vpermi2b`, bit 7 the pair.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl,avx512vnni,avx512vbmi")]
fn lookup_bytes(quarters: &[__m512i; 4], index: __m512i) -> __m512i {
    let near = _mm512_permutex2var_epi8(quarters[0], index, quarters[1]);
    let far = _mm512_permutex2var_epi8(quarters[2], index, quarters[3]);
    _mm512_mask_blend_epi8(_mm512_movepi8_mask(index), near, far)
}

/// One non-empty row of [`softmax_row_avx512`]: sixty-four scores per step
/// for the maximum and the numerators, sixteen per step for the quotients,
/// the last step of each under a mask of the elements that remain.
// fqlint::allow(unsafe-outside-kernels): every load and store of `scores`
// and `out` — both `len` long, asserted by the wrapper — is masked to the
// `min(64, len − i)` / `min(16, len − i)` elements left; the table is a
// 256-byte array; the features are guaranteed by the wrapper's
// installation contract.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl,avx512vnni,avx512vbmi")]
unsafe fn softmax_avx512(params: &SoftmaxParams, scores: &[i8], out: &mut [u8]) {
    let len = scores.len();
    debug_assert!(len > 0 && out.len() == len);

    // Pass 1: the row maximum; lanes past the row read as the minimum.
    let floor = _mm512_set1_epi8(i8::MIN);
    let mut max_lanes = floor;
    for i in (0..len).step_by(64) {
        let s = _mm512_mask_loadu_epi8(floor, mask64(len - i), scores.as_ptr().add(i));
        max_lanes = _mm512_max_epi8(max_lanes, s);
    }
    let halves = _mm256_max_epi8(
        _mm512_castsi512_si256(max_lanes),
        _mm512_extracti64x4_epi64::<1>(max_lanes),
    );
    let max = hmax_epi8(_mm_max_epi8(
        _mm256_castsi256_si128(halves),
        _mm256_extracti128_si256::<1>(halves),
    ));

    // Pass 2: the numerators, into `out`, and their sum. The distance
    // `max − s` is in `[0, 255]`: the wrapping byte difference is it.
    let tables = byte_quarters(params.table.as_ptr());
    let max_bytes = _mm512_set1_epi8(max);
    let mut sums = _mm512_setzero_si512();
    for i in (0..len).step_by(64) {
        let k = mask64(len - i);
        let s = _mm512_maskz_loadu_epi8(k, scores.as_ptr().add(i));
        let n = lookup_bytes(&tables, _mm512_sub_epi8(max_bytes, s));
        // Lanes past the row add nothing to the denominator.
        let n = _mm512_maskz_mov_epi8(k, n);
        sums = _mm512_add_epi64(sums, _mm512_sad_epu8(n, _mm512_setzero_si512()));
        _mm512_mask_storeu_epi8(out.as_mut_ptr().add(i).cast(), k, n);
    }
    let denom = _mm512_reduce_add_epi64(sums).cast_unsigned();

    // Pass 3: `(n · levels + denom/2) · m >> 48` over the even and the odd
    // elements in `u64` lanes; `x · m < 2⁵⁶`, so `vpmullq` is exact.
    let divide = scalar::RowReciprocal::new(denom);
    let levels = _mm512_set1_epi64(i64::from(params.out_levels));
    let half = _mm512_set1_epi64(divide.half.cast_signed());
    let m = _mm512_set1_epi64(divide.reciprocal.cast_signed());
    let quotient = |n: __m512i| {
        let x = _mm512_add_epi64(_mm512_mul_epu32(n, levels), half);
        _mm512_srli_epi64::<48>(_mm512_mullo_epi64(x, m))
    };
    for i in (0..len).step_by(16) {
        let left = len - i;
        let k: __mmask16 = if left >= 16 { !0 } else { (1 << left) - 1 };
        let at = out.as_mut_ptr().add(i).cast::<i8>();
        let n = _mm512_cvtepu8_epi32(_mm_maskz_loadu_epi8(k, at));
        let even = quotient(n);
        let odd = quotient(_mm512_srli_epi64::<32>(n));
        // Quotients are at most 255: the odd ones slot into the empty high
        // dwords, which puts all sixteen back in element order.
        let q = _mm512_or_si512(even, _mm512_slli_epi64::<32>(odd));
        _mm_mask_storeu_epi8(at, k, _mm512_cvtepi32_epi8(q));
    }
}

/// AVX-512 byte-table lookup in place (see [`super::TableKernel`]), shared
/// by the `avx512` and `amx` rows: bit-identical to [`scalar::table_row`]
/// for every table and length. Must only be installed when
/// `avx512_detected` holds.
// fqlint::allow(unsafe-outside-kernels): designated kernel module; the
// target-feature call is guarded by runtime detection of the whole AVX-512
// feature set at dispatch installation.
pub fn table_row_avx512(table: &[i8; 256], codes: &mut [i8]) {
    debug_assert!(avx512_detected());
    unsafe { table_avx512(table, codes) }
}

/// [`table_row_avx512`]: 64 codes per step, `code ^ 0x80` as the index of
/// [`lookup_bytes`], the last step under a mask of the codes that remain.
// fqlint::allow(unsafe-outside-kernels): every load and store of `codes` is
// masked to the `min(64, len − i)` codes left at `i < len` (masked-off
// bytes are not accessed); the table is a 256-byte array; the features are
// guaranteed by the wrapper's installation contract.
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl,avx512vnni,avx512vbmi")]
unsafe fn table_avx512(table: &[i8; 256], codes: &mut [i8]) {
    let quarters = byte_quarters(table.as_ptr().cast());
    let bias = _mm512_set1_epi8(i8::MIN);
    let len = codes.len();
    for i in (0..len).step_by(64) {
        let k = mask64(len - i);
        let at = codes.as_mut_ptr().add(i);
        let index = _mm512_xor_si512(_mm512_maskz_loadu_epi8(k, at), bias);
        _mm512_mask_storeu_epi8(at, k, lookup_bytes(&quarters, index));
    }
}

/// Regroups 16 decoded weight bytes — four columns × four reduction steps,
/// column-major — into the two `pmaddwd` operands of those columns: `i16`
/// pairs `(k0, k1)` and `(k2, k3)`, one 32-bit lane per column.
// fqlint::allow(unsafe-outside-kernels): register-only shuffle; SSE2 is
// baseline on x86_64.
#[target_feature(enable = "sse2")]
unsafe fn k_pairs_sse2(bytes: __m128i) -> [__m128i; 2] {
    let zero = _mm_setzero_si128();
    // 32-bit lanes: [c0(k0k1), c0(k2k3), c1(k0k1), c1(k2k3)] and c2, c3.
    let c01 = _mm_unpacklo_epi8(bytes, zero);
    let c23 = _mm_unpackhi_epi8(bytes, zero);
    let even = _mm_unpacklo_epi32(c01, c23); // c0(k0k1) c2(k0k1) c0(k2k3) c2(k2k3)
    let odd = _mm_unpackhi_epi32(c01, c23); // c1(k0k1) c3(k0k1) c1(k2k3) c3(k2k3)
    [_mm_unpacklo_epi32(even, odd), _mm_unpackhi_epi32(even, odd)]
}

/// The int4 SSE2 kernel: one pass per 16-byte quarter of the k-quad rows,
/// i.e. per four low-nibble and four high-nibble columns, with their
/// `MR × 2` accumulators in registers.
// fqlint::allow(unsafe-outside-kernels): loads/stores at offsets the fixed
// array types bound (`16·quarter < 64` panel bytes, all 16 activation
// bytes, `first + 12 ≤ NR` tile columns); SSE2 is baseline on x86_64.
#[target_feature(enable = "sse2")]
unsafe fn nibble_sse2(a: &[[i8; QUAD_A]], b: &[[u8; QUAD_B]], acc: &mut AccTile) {
    let mask = _mm_set1_epi8(0x0F);
    for quarter in 0..4 {
        // Bytes `16·quarter ..` of a k-quad row: low nibbles are columns
        // `first .. first+4`, high nibbles columns `first+8 .. first+12`.
        let first = 16 * (quarter / 2) + 4 * (quarter % 2);
        let mut v = [[_mm_setzero_si128(); 2]; MR];
        for (row, out) in v.iter_mut().zip(acc.iter()) {
            row[0] = _mm_loadu_si128(out.as_ptr().add(first).cast());
            row[1] = _mm_loadu_si128(out.as_ptr().add(first + 8).cast());
        }
        for (aq, bq) in a.iter().zip(b) {
            let bytes = _mm_loadu_si128(bq.as_ptr().add(16 * quarter).cast());
            let lo = k_pairs_sse2(_mm_and_si128(bytes, mask));
            let hi = k_pairs_sse2(_mm_and_si128(_mm_srli_epi16::<4>(bytes), mask));
            // The activation quads sign-extended to `i16`: 32-bit lanes
            // `[r(k0k1), r(k2k3), r'(k0k1), r'(k2k3)]` for rows 0, 1 and 2, 3.
            let quads = _mm_loadu_si128(aq.as_ptr().cast());
            let sign = _mm_cmpgt_epi8(_mm_setzero_si128(), quads);
            let (r01, r23) = (
                _mm_unpacklo_epi8(quads, sign),
                _mm_unpackhi_epi8(quads, sign),
            );
            let pairs = [
                [
                    _mm_shuffle_epi32::<0x00>(r01),
                    _mm_shuffle_epi32::<0x55>(r01),
                ],
                [
                    _mm_shuffle_epi32::<0xAA>(r01),
                    _mm_shuffle_epi32::<0xFF>(r01),
                ],
                [
                    _mm_shuffle_epi32::<0x00>(r23),
                    _mm_shuffle_epi32::<0x55>(r23),
                ],
                [
                    _mm_shuffle_epi32::<0xAA>(r23),
                    _mm_shuffle_epi32::<0xFF>(r23),
                ],
            ];
            for (row, [a01, a23]) in v.iter_mut().zip(pairs) {
                row[0] = _mm_add_epi32(
                    row[0],
                    _mm_add_epi32(_mm_madd_epi16(lo[0], a01), _mm_madd_epi16(lo[1], a23)),
                );
                row[1] = _mm_add_epi32(
                    row[1],
                    _mm_add_epi32(_mm_madd_epi16(hi[0], a01), _mm_madd_epi16(hi[1], a23)),
                );
            }
        }
        for (row, out) in v.iter().zip(acc.iter_mut()) {
            _mm_storeu_si128(out.as_mut_ptr().add(first).cast(), row[0]);
            _mm_storeu_si128(out.as_mut_ptr().add(first + 8).cast(), row[1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `i16` headroom of `nibble_avx2`: a `vpmaddubsw` lane is at most
    /// `2 · 15 · 128 = 3 840` in magnitude, 8 of them fit `i16`, 9 do not.
    #[test]
    fn eight_k_quads_is_the_largest_i16_block() {
        let lane = 2 * 15 * 128;
        assert_eq!(I16_QUADS * lane, 30_720);
        assert!(I16_QUADS * lane <= i16::MAX as usize);
        assert!((I16_QUADS + 1) * lane > i16::MAX as usize);
    }

    /// Whether a row's stage 3 runs on the lanes is decided per row; pin the
    /// verdict on both regimes.
    #[test]
    fn stage3_lanes_are_chosen_by_the_row_bound() {
        let one = 1i32 << ADD_NORM_FRAC_BITS;
        let hidden = 24usize;
        let spread = |i: usize| (i as i32 * 37 % 256 - 128) * (one / 64);
        let new = |out_scale| {
            let gamma = (0..hidden).map(spread).collect();
            let beta = (0..hidden).map(|i| spread(i + 11)).collect();
            AddNormParams::new(one / 20, one / 30, gamma, beta, 1, out_scale).expect("parameters")
        };
        let calibrated = new(25 * one);
        // One outlier in a 768-wide row of calibrated operands: a deviation
        // of `√768` standard deviations at the largest operand sum.
        let max_c = i64::from(128 * (one / 20) + 128 * (one / 30));
        let inv_std = 171_000;
        assert!(stage3_fits(&calibrated, max_c, inv_std));
        // A zero-variance row: `1/sqrt(eps)` is 256, its deviations are 0.
        assert!(stage3_fits(&calibrated, 0, 256 * one));
        // An output scale that saturated at fold time never fits.
        assert!(!stage3_fits(&new(i32::MAX), max_c, inv_std));
        assert!(!stage3_fits(&calibrated, max_c, i32::MAX));
    }

    /// The dispatch row prefers the EVEX encoding, so on a CPU with both
    /// the VEX kernel would otherwise never run under test: drive each
    /// detected encoding of both VNNI tiles, and the `zmm` tiles beside
    /// them, directly against the scalar tiles — at the depths that
    /// straddle the 8-k-quad boundary and the k-quad tail, on pseudo-random
    /// codes and on the extreme ones (all-(−128) / all-(+127) activations
    /// against all-(+7) / all-(−8) nibbles, `u = 15 / 0` in the panel).
    #[test]
    fn both_vnni_encodings_match_the_scalar_tile() {
        type Nibble = unsafe fn(&[[i8; QUAD_A]], &[[u8; QUAD_B]], &mut AccTile);
        type Wide = unsafe fn(&[[i16; WIDE_A]], &[[i16; WIDE_B]], &mut AccTile);
        type NibbleOperands = (Vec<[i8; QUAD_A]>, Vec<[u8; QUAD_B]>);
        type WideOperands = (Vec<[i16; WIDE_A]>, Vec<[i16; WIDE_B]>);
        let avx2 = is_x86_feature_detected!("avx2");
        let vex = avx2 && is_x86_feature_detected!("avxvnni");
        let evex = avx2 && evex_vnni_detected();
        let nibble_tiles: [(&str, bool, Nibble); 3] = [
            ("vex", vex, nibble_vnni_vex),
            ("evex", evex, nibble_vnni_evex),
            ("zmm", avx512_detected(), nibble_avx512),
        ];
        let wide_tiles: [(&str, bool, Wide); 3] = [
            ("vex", vex, wide_vnni_vex),
            ("evex", evex, wide_vnni_evex),
            ("zmm", avx512_detected(), wide_avx512),
        ];
        let byte = |i: usize| (i.wrapping_mul(2_654_435_761) >> 11) as u8;
        let start: AccTile = std::array::from_fn(|r| [-1000 * r as i32; crate::gemm::NR]);
        for depth in [
            1,
            I16_QUADS - 1,
            I16_QUADS,
            I16_QUADS + 1,
            2 * I16_QUADS + 3,
        ] {
            let random_a = (0..depth).map(|q| std::array::from_fn(|i| byte(q * QUAD_A + i) as i8));
            let random_b = (0..depth).map(|q| std::array::from_fn(|i| byte(7 + q * QUAD_B + i)));
            let mut cases: Vec<NibbleOperands> = vec![(random_a.collect(), random_b.collect())];
            for activation in [i8::MIN, i8::MAX] {
                for nibbles in [0xFFu8, 0x00] {
                    cases.push((
                        vec![[activation; QUAD_A]; depth],
                        vec![[nibbles; QUAD_B]; depth],
                    ));
                }
            }
            for (a, b) in &cases {
                let mut want = start;
                scalar::tile_nibble(a, b, &mut want);
                for (name, detected, kernel) in nibble_tiles {
                    if detected {
                        let mut got = start;
                        // fqlint::allow(unsafe-outside-kernels): the
                        // kernel's features were detected above.
                        unsafe { kernel(a, b, &mut got) };
                        assert_eq!(got, want, "{name} nibble tile, {depth} k-quads");
                    }
                }
            }

            // The same depths in k-pairs: pseudo-random `i8`-ranged pairs,
            // then the attention extremes `255 · −128` and `−128 · −128`.
            let word = |i: usize| i16::from(byte(i) as i8);
            let random_a = (0..depth).map(|p| std::array::from_fn(|i| word(3 + p * WIDE_A + i)));
            let random_b = (0..depth).map(|p| std::array::from_fn(|i| word(11 + p * WIDE_B + i)));
            let cases: [WideOperands; 3] = [
                (random_a.collect(), random_b.collect()),
                (vec![[255; WIDE_A]; depth], vec![[-128; WIDE_B]; depth]),
                (vec![[-128; WIDE_A]; depth], vec![[-128; WIDE_B]; depth]),
            ];
            for (a, b) in &cases {
                let mut want = start;
                scalar::tile_wide(a, b, &mut want);
                for (name, detected, kernel) in wide_tiles {
                    if detected {
                        let mut got = start;
                        // fqlint::allow(unsafe-outside-kernels): the
                        // kernel's features were detected above.
                        unsafe { kernel(a, b, &mut got) };
                        assert_eq!(got, want, "{name} wide tile, {depth} k-pairs");
                    }
                }
            }
        }
    }
}
