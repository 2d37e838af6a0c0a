use super::*;
use crate::{FqBertError, Result};
use fqbert_quant::LayerBits;
use fqbert_tensor::gemm::GemmScratch;
use fqbert_tensor::ops::gelu_scalar;
use fqbert_tensor::{IntTensor, RngSource, Tensor};

#[test]
fn int_linear_matches_float_reference() {
    let mut rng = RngSource::seed_from_u64(1);
    let weight = rng.normal_tensor(&[16, 8], 0.0, 0.3);
    let bias = rng.normal_tensor(&[8], 0.0, 0.1);
    let x_f = rng.normal_tensor(&[4, 16], 0.0, 1.0);

    let in_scale = 127.0 / x_f.abs_max().unwrap();
    let float_out = x_f.matmul(&weight).unwrap().add_bias(&bias).unwrap();
    let out_scale = 127.0 / float_out.abs_max().unwrap();

    let layer = IntLinear::from_float(&weight, &bias, 8, None, in_scale, out_scale).unwrap();
    let x_q = IntTensor::from_vec(
        x_f.as_slice()
            .iter()
            .map(|&v| (v * in_scale).round() as i8)
            .collect(),
        &[4, 16],
    )
    .unwrap();
    let out_q = layer
        .forward_with_scratch(&x_q, &mut GemmScratch::new())
        .unwrap();
    let back = out_q.dequantize(1.0 / out_scale);
    assert!(
        back.allclose(&float_out, 0.08),
        "int8 linear deviates from float reference"
    );
}

#[test]
fn int_linear_four_bit_weights_are_coarser_but_close() {
    let mut rng = RngSource::seed_from_u64(2);
    let weight = rng.normal_tensor(&[32, 16], 0.0, 0.2);
    let bias = Tensor::zeros(&[16]);
    let x_f = rng.normal_tensor(&[2, 32], 0.0, 1.0);
    let in_scale = 127.0 / x_f.abs_max().unwrap();
    let float_out = x_f.matmul(&weight).unwrap();
    let out_scale = 127.0 / float_out.abs_max().unwrap().max(1e-6);

    let l8 = IntLinear::from_float(&weight, &bias, 8, None, in_scale, out_scale).unwrap();
    let l4 = IntLinear::from_float(&weight, &bias, 4, None, in_scale, out_scale).unwrap();
    let x_q = IntTensor::from_vec(
        x_f.as_slice()
            .iter()
            .map(|&v| (v * in_scale).round() as i8)
            .collect(),
        &[2, 32],
    )
    .unwrap();
    let scratch = &mut GemmScratch::new();
    let [e8, e4] = [&l8, &l4].map(|layer| {
        layer
            .forward_with_scratch(&x_q, scratch)
            .unwrap()
            .dequantize(1.0 / out_scale)
            .mse(&float_out)
            .unwrap()
    });
    assert!(
        e4 >= e8,
        "4-bit error {e4} should not beat 8-bit error {e8}"
    );
    assert!(e4 < 0.05, "4-bit error {e4} unexpectedly large");
}

#[test]
fn gelu_lut_matches_float_gelu() {
    let lut = IntGelu::new(32.0, 32.0);
    for code in -127i8..=127 {
        let x = code as f32 / 32.0;
        let expected = gelu_scalar(x);
        let got = lut.apply(code) as f32 / 32.0;
        assert!(
            (got - expected).abs() < 0.05,
            "gelu({x}): {got} vs {expected}"
        );
    }
}

#[test]
fn gelu_lut_zero_is_zero_and_monotone_positive() {
    let lut = IntGelu::new(16.0, 16.0);
    assert_eq!(lut.apply(0), 0);
    let mut prev = lut.apply(0);
    for code in 1..=127i8 {
        let cur = lut.apply(code);
        assert!(cur >= prev);
        prev = cur;
    }
}

#[test]
fn blocked_forward_is_bit_identical_to_naive_reference() {
    let mut rng = RngSource::seed_from_u64(7);
    let mut scratch = GemmScratch::new();
    // Deliberately non-multiple-of-block shapes, both bit-widths.
    for &(inf, outf, rows, bits) in &[(19usize, 23usize, 5usize, 8u32), (33, 17, 9, 4)] {
        let weight = rng.normal_tensor(&[inf, outf], 0.0, 0.3);
        let bias = rng.normal_tensor(&[outf], 0.0, 0.2);
        let layer = IntLinear::from_float(&weight, &bias, bits, None, 9.0, 11.0).unwrap();
        let x = IntTensor::from_vec(
            (0..rows * inf)
                .map(|i| ((i * 37 + 11) % 255) as i8)
                .collect(),
            &[rows, inf],
        )
        .unwrap();
        let blocked = layer.forward_with_scratch(&x, &mut scratch).unwrap();
        let naive = layer.forward_naive(&x).unwrap();
        assert_eq!(blocked, naive, "({inf},{outf},{rows},{bits})");
    }
}

const TEST_SCALES: LayerScales = LayerScales {
    input: 16.0,
    q: 16.0,
    k: 16.0,
    v: 16.0,
    scores: 8.0,
    attn_output: 16.0,
    layer_norm: 16.0,
    ffn_hidden: 16.0,
    ffn_output: 16.0,
};

/// A hidden-8 layer built by the float converter with the given head
/// geometry.
fn converted(heads: usize, head_dim: usize) -> Result<IntEncoderLayer> {
    let mut rng = RngSource::seed_from_u64(3);
    let params = fqbert_bert::layers::EncoderLayerParams::new(&mut rng, 8, 16);
    let bits = LayerBits::uniform(8);
    IntEncoderLayer::from_float_mixed(&params, heads, head_dim, &bits, false, &TEST_SCALES, 1e-5)
}

/// The parts of a sound 2×4 layer, reassembled with another geometry.
fn reassembled(heads: usize, head_dim: usize) -> Result<IntEncoderLayer> {
    let l = converted(2, 4).unwrap();
    IntEncoderLayer::from_quantized_parts(
        l.query.clone(),
        l.key.clone(),
        l.value.clone(),
        l.attn_output.clone(),
        l.ffn1.clone(),
        l.ffn2.clone(),
        heads,
        head_dim,
        &TEST_SCALES,
        l.attn_layer_norm().clone(),
        l.ffn_layer_norm().clone(),
    )
}

fn assert_geometry_rejected(result: Result<IntEncoderLayer>) {
    match result {
        Err(FqBertError::InvalidArgument(msg)) => {
            assert!(
                msg.contains("heads of dimension"),
                "unexpected message: {msg}"
            )
        }
        other => panic!("expected InvalidArgument, got {other:?}"),
    }
}

#[test]
fn zero_length_sequence_is_rejected_not_panicking() {
    let layer = converted(2, 4).unwrap();
    let x = IntTensor::<i8>::from_vec(vec![1; 3 * 8], &[3, 8]).unwrap();
    let err = layer
        .forward_batch_with_scratch(&x, &[3, 0], &mut GemmScratch::new())
        .unwrap_err();
    match err {
        FqBertError::InvalidArgument(msg) => {
            assert!(msg.contains("zero-length"), "unexpected message: {msg}")
        }
        other => panic!("expected InvalidArgument, got {other:?}"),
    }
}

#[test]
fn zero_heads_are_rejected_not_dividing_by_zero() {
    assert_geometry_rejected(converted(0, 4));
    assert_geometry_rejected(reassembled(0, 4));
    assert_geometry_rejected(reassembled(2, 0));
}

#[test]
fn heads_that_do_not_tile_the_hidden_width_are_rejected() {
    // 3 heads of 8 / 3 = 2 would leave context columns 6..8 unwritten.
    assert_geometry_rejected(converted(3, 2));
    assert_geometry_rejected(reassembled(3, 2));
}

#[test]
fn head_dim_disagreeing_with_the_projection_width_is_rejected() {
    // 2 heads over 8 columns are 4 wide; 2 would scale scores by √2.
    assert_geometry_rejected(converted(2, 2));
    assert_geometry_rejected(reassembled(2, 8));
    assert_eq!(reassembled(2, 4).unwrap(), converted(2, 4).unwrap());
    assert_eq!(reassembled(4, 2).unwrap().heads(), 4);
}

#[test]
fn projections_of_different_widths_are_rejected() {
    let l = converted(2, 4).unwrap();
    let mut rng = RngSource::seed_from_u64(9);
    let narrow = IntLinear::from_float(
        &rng.normal_tensor(&[8, 6], 0.0, 0.3),
        &rng.normal_tensor(&[6], 0.0, 0.1),
        8,
        None,
        16.0,
        16.0,
    )
    .unwrap();
    assert_geometry_rejected(IntEncoderLayer::from_quantized_parts(
        l.query.clone(),
        narrow,
        l.value.clone(),
        l.attn_output.clone(),
        l.ffn1.clone(),
        l.ffn2.clone(),
        2,
        4,
        &TEST_SCALES,
        l.attn_layer_norm().clone(),
        l.ffn_layer_norm().clone(),
    ));
}
