//! The edges of the AMX driver, on every available kernel row: row counts
//! around its 16-row tile halves and 32-row blocks (`m` 15/16/17,
//! 31/32/33, 48 — a block and a half), depths around its 64-step `tdpbssd`
//! and the k-quad (`k` 1, 4, 63, 64, 65, 256), widths around the 16-column
//! `B` tiles and the 32-column panel, over nibble and wide panels, with the
//! activations and the output starting at odd byte offsets (the driver
//! loads `A` tiles straight from the caller's rows and stages only what a
//! load would read past them). Inputs are the extremes — all −128 / all
//! +127 activations against all −8 / all +7 weights, where a staged tail
//! that is not zero meets a padding nibble that decodes to −8 — and one
//! pseudo-random set that a permuted row or column would not survive.
//!
//! Beside it, the requantize entry every row carries against the scalar
//! reference at the points the `i32`-lane epilogue of the `avx512` / `amx`
//! rows turns on: `|acc + bias|` at its saturation start `x_lim` and one
//! either side, and `acc + bias` outside `i32`, where a vector leaves the
//! `i32` lanes.
//!
//! And attention, every row against the scalar row byte for byte: `seq`
//! around the AMX driver's 16-row halves, 32-row blocks and 64-key steps,
//! `head_dim` around its 16-column tiles and 64-step scores, the head the
//! middle window of a three-head matrix (so in-place `Q` tiles read the
//! next head's bytes, and the output beside the head must keep its
//! sentinels), all −128 `Q` / `K` against −128 and +127 `V`, and a one-hot
//! softmax whose probability 255 is −1 to a signed `A` operand.

use fqbert_tensor::gemm::{
    gemm_i8_i32, gemm_i8_requant_into, kernels, AttentionScratch, GemmScratch, PackedWeights,
    RequantEpilogue, RequantParams, SoftmaxParams, StridedView,
};
use fqbert_tensor::IntTensor;
use proptest::prelude::*;

/// `round-half-away((acc + bias) · multiplier / 2^shift)` clamped to
/// `±clamp`, in `i128`.
fn naive_requant(acc: i32, bias: i32, params: RequantParams) -> i8 {
    let product = (i128::from(acc) + i128::from(bias)) * i128::from(params.multiplier);
    let half = if params.shift > 0 {
        1i128 << (params.shift - 1)
    } else {
        0
    };
    let magnitude = (product.abs() + half) >> params.shift;
    let bound = i128::from(params.clamp);
    i8::try_from(product.signum() * magnitude.min(bound)).expect("clamped to an i8")
}

fn pseudo(i: usize, salt: usize) -> usize {
    (i.wrapping_add(salt)).wrapping_mul(2_654_435_761) >> 9
}

#[test]
fn every_row_is_exact_at_the_amx_tile_edges() {
    // Accumulators reach `256 · 128 · 8`; `/ 4096` keeps them distinct codes.
    let params = RequantParams {
        multiplier: 1 << 30,
        shift: 42,
        clamp: 127,
    };
    let mut scratch = GemmScratch::new();
    for m in [1usize, 15, 16, 17, 31, 32, 33, 48] {
        for k in [1usize, 4, 63, 64, 65, 256] {
            for n in [1usize, 31, 32, 33] {
                let bias: Vec<i32> = (0..n).map(|c| (c as i32 - 16) * 3001).collect();
                let inputs: [(Vec<i8>, Vec<i8>); 5] = [
                    (vec![-128; m * k], vec![-8; k * n]),
                    (vec![-128; m * k], vec![7; k * n]),
                    (vec![127; m * k], vec![-8; k * n]),
                    (vec![127; m * k], vec![7; k * n]),
                    (
                        (0..m * k).map(|i| pseudo(i, 1) as i8).collect(),
                        (0..k * n).map(|i| (pseudo(i, 7) % 16) as i8 - 8).collect(),
                    ),
                ];
                for (x, w) in inputs {
                    let w = IntTensor::from_vec(w, &[k, n]).expect("weights");
                    let x = IntTensor::from_vec(x, &[m, k]).expect("activations");
                    let want = x.matmul_i32(&w).expect("naive");
                    let codes: Vec<i8> = want
                        .as_slice()
                        .iter()
                        .enumerate()
                        .map(|(i, &acc)| naive_requant(acc, bias[i % n], params))
                        .collect();
                    // The activations and the output one byte past an
                    // allocation's start.
                    let mut shifted = vec![0i8; m * k + 1];
                    shifted[1..].copy_from_slice(x.as_slice());
                    let panels = [
                        PackedWeights::pack_nibble(&w).expect("nibble"),
                        PackedWeights::pack(&w).expect("wide"),
                    ];
                    for kind in kernels::available() {
                        kernels::force(kind);
                        for panel in &panels {
                            let shape = format!(
                                "({m},{k},{n}) on {}, nibble {}",
                                kind.name(),
                                panel.is_nibble()
                            );
                            let got = gemm_i8_i32(&x, panel, &mut scratch).expect("gemm");
                            assert_eq!(got, want, "{shape}");
                            let mut out = vec![99i8; m * n + 1];
                            let pack = &mut scratch.pack;
                            let x = &shifted[1..];
                            gemm_i8_requant_into(x, m, panel, &bias, params, pack, &mut out[1..])
                                .expect("fused");
                            assert_eq!(out[0], 99, "{shape}: wrote before the output");
                            assert_eq!(&out[1..], &codes[..], "{shape}");
                        }
                    }
                }
            }
        }
    }
    kernels::force(kernels::best_available());
}

proptest! {
    #[test]
    fn requant_entries_match_the_reference_at_the_saturation_start(
        multiplier in 0i64..=(1i64 << 30),
        shift in 0i32..=62,
        clamp in 0i32..=127,
        biases in proptest::collection::vec(proptest::num::i32::ANY, 1..40),
        accs in proptest::collection::vec(proptest::num::i32::ANY, 0..40),
        wrap_at in 0usize..40,
    ) {
        let params = RequantParams { multiplier, shift, clamp };
        prop_assert!(params.simd_exact());
        let epilogue = RequantEpilogue::new(params);
        let limit = i64::from(epilogue.saturates_from());
        // `|acc + bias|` at `x_lim − 1`, `x_lim`, `x_lim + 1`, both signs,
        // with and without a bias to reach it through.
        let mut pairs: Vec<(i32, i32)> = Vec::new();
        for d in [-1i64, 0, 1] {
            for x in [limit + d, -(limit + d)] {
                let Ok(x) = i32::try_from(x) else { continue };
                let b = biases[pairs.len() % biases.len()] / 2;
                pairs.push((x, 0));
                if let Ok(acc) = i32::try_from(i64::from(x) - i64::from(b)) {
                    pairs.push((acc, b));
                }
            }
        }
        // A magnitude just short of saturating beside the largest ones, in
        // both halves of a lane pair: a product the cap let through would
        // spill into its neighbour's dword.
        if let Ok(below) = i32::try_from(limit - 1) {
            for (acc, bias) in [(i32::MAX, 0), (below, 0), (-below, 0), (-i32::MAX, -1)] {
                pairs.push((acc, bias));
            }
        }
        // Random pairs, and one whose sum leaves `i32` at a random place.
        pairs.extend(accs.iter().zip(biases.iter().cycle()).map(|(&a, &b)| (a, b)));
        let wrap = if wrap_at % 2 == 0 { (i32::MAX, 1) } else { (i32::MIN, -7) };
        pairs.insert(wrap_at.min(pairs.len()), wrap);
        let (acc, bias): (Vec<i32>, Vec<i32>) = pairs.into_iter().unzip();
        let mut reference = vec![0i8; acc.len()];
        kernels::scalar::requant_row(&acc, &bias, &epilogue, &mut reference);
        let naive: Vec<i8> = acc.iter().zip(&bias).map(|(&a, &b)| naive_requant(a, b, params)).collect();
        prop_assert_eq!(&reference, &naive);
        for kind in kernels::available() {
            let mut got = vec![0i8; acc.len()];
            (kernels::dispatch_for(kind).requant)(&acc, &bias, &epilogue, &mut got);
            prop_assert_eq!(&got, &reference, "requant diverges on {}", kind.name());
        }
    }
}

/// `x_lim` is the first saturating magnitude: one below it is not.
#[test]
fn the_saturation_start_is_the_first_saturating_magnitude() {
    let epilogue = |multiplier, shift, clamp| {
        RequantEpilogue::new(RequantParams {
            multiplier,
            shift,
            clamp,
        })
    };
    // `x · 2/3` rounded reaches 127 at `x = 190` (126.67 → 127).
    assert_eq!(epilogue(715_827_883, 30, 127).saturates_from(), 190);
    assert_eq!(epilogue(1 << 30, 30, 0).saturates_from(), 0);
    assert_eq!(epilogue(0, 30, 127).saturates_from(), u32::MAX);
    assert_eq!(epilogue(1 << 30, 0, 127).saturates_from(), 1);
    // Out of the SIMD envelope nothing but the scalar row reads it.
    assert_eq!(epilogue(-1, 30, 127).saturates_from(), u32::MAX);
}

#[test]
fn every_row_attends_like_the_scalar_row_at_the_amx_block_edges() {
    const HEADS: usize = 3;
    const SENTINEL: i8 = 99;
    // Scores of random codes land around ±127 after `/ 2^9`; a context
    // accumulator (`|Σ p·v| ≤ 255 · 128`) after `/ 2^8`.
    let score_params = RequantParams {
        multiplier: 1 << 30,
        shift: 39,
        clamp: 127,
    };
    let context_params = RequantParams {
        multiplier: 1 << 30,
        shift: 38,
        clamp: 127,
    };
    let exponential = std::array::from_fn(|d| (255.0 * (-(d as f64) / 8.0).exp()).round() as u8);
    let exponential = SoftmaxParams::new(exponential, 255).expect("softmax");
    // The row maximum takes everything: 255 where it is unique.
    let mut one_hot = [0u8; 256];
    one_hot[0] = 255;
    let one_hot = SoftmaxParams::new(one_hot, 255).expect("softmax");
    let mut scratch = AttentionScratch::default();
    for seq in [1usize, 15, 16, 17, 31, 32, 33, 63, 64, 65, 128, 129] {
        for head_dim in [1usize, 15, 16, 17, 33, 63, 64, 65, 128] {
            let width = HEADS * head_dim;
            let head = head_dim..2 * head_dim;
            let random =
                |salt| -> Vec<i8> { (0..seq * width).map(|i| pseudo(i, salt) as i8).collect() };
            // The middle head at `code`, the others random.
            let with_head = |code: i8, salt| {
                let mut m = random(salt);
                for row in m.chunks_exact_mut(width) {
                    row[head.clone()].fill(code);
                }
                m
            };
            let cases = [
                ("random", random(1), random(2), random(3), &exponential),
                (
                    "-128 by -128",
                    with_head(-128, 1),
                    with_head(-128, 2),
                    with_head(-128, 3),
                    &exponential,
                ),
                (
                    "-128 by +127",
                    with_head(-128, 1),
                    with_head(-128, 2),
                    with_head(127, 3),
                    &exponential,
                ),
                (
                    "one-hot by -128",
                    random(1),
                    random(2),
                    with_head(-128, 3),
                    &one_hot,
                ),
                ("one-hot", random(1), random(2), random(3), &one_hot),
            ];
            for (what, q, k, v, softmax) in cases {
                let shape = format!("{what} at seq {seq}, head_dim {head_dim}");
                let view = |m| StridedView::new(m, width, 0..seq, head.clone()).expect("head");
                let mut attend = |kind| {
                    kernels::force(kind);
                    let mut out = vec![SENTINEL; seq * width];
                    scratch
                        .attend_head(
                            view(&q),
                            view(&k),
                            view(&v),
                            score_params,
                            context_params,
                            softmax,
                            &mut out[head.start..],
                            width,
                        )
                        .expect("attend");
                    out
                };
                let reference = attend(kernels::KernelKind::Scalar);
                for (i, &code) in reference.iter().enumerate() {
                    let inside = head.contains(&(i % width));
                    assert!(
                        inside || code == SENTINEL,
                        "{shape}: wrote beside the head at {i}"
                    );
                }
                for kind in kernels::available() {
                    assert!(attend(kind) == reference, "{shape} on {}", kind.name());
                }
            }
        }
    }
    kernels::force(kernels::best_available());
}
