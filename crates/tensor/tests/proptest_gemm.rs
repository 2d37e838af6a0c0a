//! Property tests pinning the blocked int8 GEMM kernel to the naive
//! `matmul_i32` + scalar epilogue path: same shapes, same accumulators, same
//! fused outputs, across random shapes including non-multiple-of-block
//! dimensions, empty matrices and int4-range weights — and, since the SIMD
//! dispatch landed, across **every kernel available on this host**
//! (scalar/sse2/avx2/vnni/neon × wide/int4-nibble panels).
//!
//! Kernel selection is process-global, so tests that force a kernel
//! serialise on [`kernel_lock`] and restore the auto-detected default
//! before releasing it. (Even a mid-test switch would be benign — every
//! kernel is bit-identical — but serialising keeps each run's coverage
//! deterministic.)

use fqbert_tensor::gemm::kernels::{self, KernelKind};
use fqbert_tensor::gemm::{
    gemm_i8_i32, gemm_i8_requant, GemmScratch, PackedWeights, RequantEpilogue, RequantParams, MR,
    NR,
};
use fqbert_tensor::{pack4, IntTensor};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

fn kernel_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn i8_full() -> impl Strategy<Value = i8> {
    -128i8..=127
}

fn i4() -> impl Strategy<Value = i8> {
    -8i8..=7
}

fn i2() -> impl Strategy<Value = i8> {
    -2i8..=1
}

fn build(seed: &[i8], rows: usize, cols: usize) -> IntTensor<i8> {
    let data: Vec<i8> = (0..rows * cols)
        .map(|i| {
            if seed.is_empty() {
                0
            } else {
                seed[i % seed.len()]
            }
        })
        .collect();
    IntTensor::from_vec(data, &[rows, cols]).expect("shape")
}

proptest! {
    #[test]
    fn blocked_accumulators_match_naive_matmul(
        m in 0usize..33,
        k in 0usize..70,
        n in 0usize..50,
        seed_x in proptest::collection::vec(i8_full(), 1..64),
        seed_w in proptest::collection::vec(i8_full(), 1..64),
    ) {
        let x = build(&seed_x, m, k);
        let w = build(&seed_w, k, n);
        let packed = PackedWeights::pack(&w).expect("pack");
        let mut scratch = GemmScratch::new();
        let blocked = gemm_i8_i32(&x, &packed, &mut scratch).expect("blocked");
        let naive = x.matmul_i32(&w).expect("naive");
        prop_assert_eq!(blocked, naive);
    }

    #[test]
    fn blocked_kernel_is_exact_for_int4_weights(
        m in 1usize..20,
        k in 1usize..120,
        n in 1usize..40,
        seed_x in proptest::collection::vec(i8_full(), 1..64),
        seed_w in proptest::collection::vec(i4(), 1..64),
    ) {
        let x = build(&seed_x, m, k);
        let w = build(&seed_w, k, n);
        let packed = PackedWeights::pack(&w).expect("pack");
        let mut scratch = GemmScratch::new();
        let blocked = gemm_i8_i32(&x, &packed, &mut scratch).expect("blocked");
        let naive = x.matmul_i32(&w).expect("naive");
        prop_assert_eq!(blocked, naive);
    }

    // The tentpole property: every kernel available on this host produces
    // accumulators bit-identical to the naive reduction, over both wide
    // `i16` panels (int8 weights) and direct-compute nibble panels (int4
    // and int2 weight codes), across shapes with odd-k remainders and
    // partial row/column tiles.
    #[test]
    fn every_available_kernel_is_bit_identical_to_naive(
        m in 0usize..18,
        k in 0usize..80,
        n in 0usize..70,
        seed_x in proptest::collection::vec(i8_full(), 1..64),
        seed_w8 in proptest::collection::vec(i8_full(), 1..64),
        seed_w4 in proptest::collection::vec(i4(), 1..64),
        seed_w2 in proptest::collection::vec(i2(), 1..64),
    ) {
        let _guard = kernel_lock();
        let x = build(&seed_x, m, k);
        let w8 = build(&seed_w8, k, n);
        let w4 = build(&seed_w4, k, n);
        let w2 = build(&seed_w2, k, n);
        let wide = PackedWeights::pack(&w8).expect("pack wide");
        let nib4 = PackedWeights::pack_nibble(&w4).expect("pack nibble w4");
        let nib2 = PackedWeights::pack_nibble(&w2).expect("pack nibble w2");
        let naive8 = x.matmul_i32(&w8).expect("naive w8");
        let naive4 = x.matmul_i32(&w4).expect("naive w4");
        let naive2 = x.matmul_i32(&w2).expect("naive w2");
        let mut scratch = GemmScratch::new();
        for kind in kernels::available() {
            prop_assert_eq!(kernels::force(kind), kind);
            let name = kind.name();
            let got8 = gemm_i8_i32(&x, &wide, &mut scratch).expect("wide gemm");
            prop_assert_eq!(&got8, &naive8, "wide panels diverge on {}", name);
            let got4 = gemm_i8_i32(&x, &nib4, &mut scratch).expect("nibble w4 gemm");
            prop_assert_eq!(&got4, &naive4, "int4 nibble panels diverge on {}", name);
            let got2 = gemm_i8_i32(&x, &nib2, &mut scratch).expect("nibble w2 gemm");
            prop_assert_eq!(&got2, &naive2, "int2 nibble panels diverge on {}", name);
        }
        kernels::force(kernels::best_available());
    }

    // Nibble panels gathered straight from the v2 `pack_i4` byte stream
    // must equal the unpack-then-pack panels bit for bit (the zero-copy
    // load path's correctness contract), and compute the same GEMM.
    #[test]
    fn panels_from_v2_bytes_match_unpacked_packing(
        m in 1usize..10,
        k in 1usize..70,
        n in 1usize..40,
        seed_x in proptest::collection::vec(i8_full(), 1..64),
        seed_w in proptest::collection::vec(i4(), 1..64),
    ) {
        let x = build(&seed_x, m, k);
        let w = build(&seed_w, k, n);
        let bytes = pack4::pack_i4(w.as_slice()).expect("pack_i4");
        let from_bytes = PackedWeights::from_v2_nibble_bytes(&bytes, k, n).expect("from bytes");
        prop_assert_eq!(&from_bytes, &PackedWeights::pack_nibble(&w).expect("pack_nibble"));
        let wide_bytes: Vec<u8> = w.as_slice().iter().map(|&c| c as u8).collect();
        let wide = PackedWeights::pack_wide_from_bytes(&wide_bytes, k, n).expect("wide bytes");
        prop_assert_eq!(&wide, &PackedWeights::pack(&w).expect("pack"));
        let mut scratch = GemmScratch::new();
        let naive = x.matmul_i32(&w).expect("naive");
        prop_assert_eq!(&gemm_i8_i32(&x, &from_bytes, &mut scratch).expect("gemm"), &naive);
        prop_assert_eq!(&gemm_i8_i32(&x, &wide, &mut scratch).expect("gemm wide"), &naive);
    }

    // Every host kernel's requantize epilogue is bit-identical to the
    // 128-bit scalar reference over the whole SIMD-exact envelope
    // (Q1.30 multipliers, shifts 0..=62, clamps 0..=127), including the
    // extreme accumulator/bias corners where the i64 product peaks.
    #[test]
    fn requant_kernels_match_scalar_reference(
        accs in proptest::collection::vec(proptest::num::i32::ANY, 0..70),
        biases in proptest::collection::vec(proptest::num::i32::ANY, 1..70),
        multiplier in 0i64..=(1i64 << 30),
        shift in 0i32..=62,
        clamp in 0i32..=127,
    ) {
        let params = RequantParams { multiplier, shift, clamp };
        prop_assert!(params.simd_exact());
        let len = accs.len();
        let bias: Vec<i32> = (0..len).map(|i| biases[i % biases.len()]).collect();
        // Splice in the worst-case corners so every run stresses them.
        let mut accs = accs;
        for (i, v) in [i32::MIN, i32::MAX, 0].into_iter().enumerate() {
            if let Some(slot) = accs.get_mut(i) {
                *slot = v;
            }
        }
        let epilogue = RequantEpilogue::new(params);
        let mut reference = vec![0i8; len];
        kernels::scalar::requant_row(&accs, &bias, &epilogue, &mut reference);
        for kind in kernels::available() {
            let mut got = vec![0i8; len];
            (kernels::dispatch_for(kind).requant)(&accs, &bias, &epilogue, &mut got);
            prop_assert_eq!(&got, &reference, "requant diverges on {}", kind.name());
        }
    }

    // The fused requant GEMM equals applying the scalar reference to the
    // raw accumulators, on every kernel.
    #[test]
    fn fused_requant_gemm_matches_reference_across_kernels(
        m in 1usize..8,
        k in 1usize..50,
        n in 1usize..40,
        seed_x in proptest::collection::vec(i8_full(), 1..64),
        seed_w in proptest::collection::vec(i8_full(), 1..64),
        seed_b in proptest::collection::vec(-100_000i32..100_000, 1..64),
        multiplier in 0i64..=(1i64 << 30),
        shift in 0i32..=62,
        clamp in 1i32..=127,
    ) {
        let _guard = kernel_lock();
        let params = RequantParams { multiplier, shift, clamp };
        let x = build(&seed_x, m, k);
        let w = build(&seed_w, k, n);
        let bias: Vec<i32> = (0..n).map(|i| seed_b[i % seed_b.len()]).collect();
        let packed = PackedWeights::pack(&w).expect("pack");
        let mut scratch = GemmScratch::new();
        let raw = gemm_i8_i32(&x, &packed, &mut scratch).expect("raw");
        let mut expected = vec![0i8; m * n];
        for r in 0..m {
            kernels::scalar::requant_row(
                raw.row(r),
                &bias,
                &RequantEpilogue::new(params),
                &mut expected[r * n..(r + 1) * n],
            );
        }
        for kind in kernels::available() {
            kernels::force(kind);
            let got = gemm_i8_requant(&x, &packed, &bias, params, &mut scratch).expect("fused");
            prop_assert_eq!(got.as_slice(), expected.as_slice(), "diverges on {}", kind.name());
        }
        kernels::force(kernels::best_available());
    }

    #[test]
    fn exact_block_multiples_are_also_exact(
        mb in 1usize..5,
        kb in 1usize..4,
        nb in 1usize..4,
        seed in proptest::collection::vec(i8_full(), 1..64),
    ) {
        // Shapes that are exact multiples of the MR × NR tile.
        let (m, k, n) = (mb * MR, kb * 32, nb * NR);
        let x = build(&seed, m, k);
        let w = build(&seed, k, n);
        let packed = PackedWeights::pack(&w).unwrap();
        let mut scratch = GemmScratch::new();
        prop_assert_eq!(
            gemm_i8_i32(&x, &packed, &mut scratch).expect("blocked"),
            x.matmul_i32(&w).expect("naive")
        );
    }
}

/// Deterministic cross-kernel edge cases: empty shapes in every dimension,
/// odd-k remainders with single rows/columns, and all-padding (all-zero)
/// activation blocks such as fully-masked sequence tails.
#[test]
fn cross_kernel_edge_shapes_and_all_padding_blocks() {
    let _guard = kernel_lock();
    let shapes = [
        (0usize, 0usize, 0usize),
        (0, 4, 4),
        (4, 0, 4),
        (4, 4, 0),
        (1, 1, 1),
        (1, 7, 1),
        (MR, 9, NR),
        (MR + 1, 31, NR + 1),
        (2 * MR, 64, 2 * NR),
        (3, 33, 65),
    ];
    for &(m, k, n) in &shapes {
        let x = IntTensor::from_vec(
            (0..m * k).map(|i| ((i % 251) as i64 - 125) as i8).collect(),
            &[m, k],
        )
        .expect("x");
        // All-padding activations: a fully masked row block must still be
        // bit-identical (and produce all-zero accumulators).
        let zeros = IntTensor::<i8>::zeros(&[m, k]);
        let w8 = IntTensor::from_vec(
            (0..k * n).map(|i| ((i % 255) as i64 - 127) as i8).collect(),
            &[k, n],
        )
        .expect("w8");
        let w4 = IntTensor::from_vec(
            (0..k * n).map(|i| ((i % 16) as i64 - 8) as i8).collect(),
            &[k, n],
        )
        .expect("w4");
        let wide = PackedWeights::pack(&w8).expect("pack");
        let nib = PackedWeights::pack_nibble(&w4).expect("pack nibble");
        let mut scratch = GemmScratch::new();
        for kind in kernels::available() {
            kernels::force(kind);
            for x in [&x, &zeros] {
                assert_eq!(
                    gemm_i8_i32(x, &wide, &mut scratch).expect("wide"),
                    x.matmul_i32(&w8).expect("naive"),
                    "wide ({m},{k},{n}) on {}",
                    kind.name()
                );
                assert_eq!(
                    gemm_i8_i32(x, &nib, &mut scratch).expect("nibble"),
                    x.matmul_i32(&w4).expect("naive"),
                    "nibble ({m},{k},{n}) on {}",
                    kind.name()
                );
            }
        }
    }
    kernels::force(kernels::best_available());
}

/// The byte-operand int4 path at its arithmetic edges, on every kernel row:
/// extreme activations against extreme nibbles (and w2 codes) make every
/// `vpmaddubsw` lane as large as it can get, and the depths straddle the
/// 8-k-quad block after which the AVX2 kernel must leave `i16` (`k = 32`
/// fills one block exactly, `33` opens the next, `255..=257` is eight
/// blocks and a tail) as well as the k-quad tail (`k % 4 != 0`), where the
/// zero-padded activations must cancel the panel's padding. The row-sum
/// correction is largest here too: `−8 · k · (−128)`.
#[test]
fn extreme_codes_at_the_widening_boundary_and_k_quad_tail() {
    let _guard = kernel_lock();
    let depths = [1usize, 3, 4, 5, 31, 32, 33, 63, 64, 65, 255, 256, 257];
    let heights = [1usize, MR - 1, MR, MR + 1];
    let widths = [1usize, 15, 16, 17, NR - 1, NR, NR + 1];
    let mut scratch = GemmScratch::new();
    for &k in &depths {
        for &n in &widths {
            for weight in [7i8, -8, 1, -2] {
                let w = build(&[weight], k, n);
                let packed = PackedWeights::pack_nibble(&w).expect("pack nibble");
                for &m in &heights {
                    for activation in [-128i8, 127] {
                        let x = build(&[activation], m, k);
                        let naive = x.matmul_i32(&w).expect("naive");
                        for kind in kernels::available() {
                            kernels::force(kind);
                            assert_eq!(
                                gemm_i8_i32(&x, &packed, &mut scratch).expect("nibble gemm"),
                                naive,
                                "{activation} x {weight} at ({m},{k},{n}) on {}",
                                kind.name()
                            );
                        }
                    }
                }
            }
        }
    }
    kernels::force(kernels::best_available());
}

/// One layout serves every kernel: `kernels::force` switches kernels over
/// panels that already exist, so the panel bytes must not depend on which
/// kernel was selected when they were built.
#[test]
fn nibble_panels_do_not_depend_on_the_selected_kernel() {
    let _guard = kernel_lock();
    let (k, n) = (37usize, 45usize);
    let w = IntTensor::from_vec(
        (0..k * n)
            .map(|i| ((i * 7 % 16) as i64 - 8) as i8)
            .collect(),
        &[k, n],
    )
    .expect("w4");
    let bytes = pack4::pack_i4(w.as_slice()).expect("pack_i4");
    let build_both = || {
        (
            PackedWeights::pack_nibble(&w).expect("pack nibble"),
            PackedWeights::from_v2_nibble_bytes(&bytes, k, n).expect("from bytes"),
        )
    };
    kernels::force(KernelKind::Scalar);
    let reference = build_both();
    for kind in kernels::available() {
        kernels::force(kind);
        assert_eq!(
            build_both(),
            reference,
            "panels differ under {}",
            kind.name()
        );
    }
    kernels::force(kernels::best_available());
}

/// This container/CI lane must actually exercise what it claims: scalar is
/// always present, and on x86_64 the SSE2 baseline path must be available.
/// Prints the rows the cross-kernel properties ran on (visible with
/// `--nocapture`), so a CI log shows whether `avx2` / `vnni` were covered.
#[test]
fn expected_kernels_are_available() {
    let available = kernels::available();
    let names: Vec<&str> = available.iter().map(|k| k.name()).collect();
    println!(
        "kernels::available() = {names:?}, default = {}",
        kernels::selected().name
    );
    assert!(available.contains(&KernelKind::Scalar));
    if cfg!(target_arch = "x86_64") {
        assert!(available.contains(&KernelKind::Sse2));
    }
}
