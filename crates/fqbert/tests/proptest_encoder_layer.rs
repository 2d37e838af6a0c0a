//! Identity properties of the integer encoder layer: the allocation-free,
//! row-block fused `forward_batch_with_scratch` must equal, bit for bit and
//! on **every kernel available on this host**, an oracle assembled only from
//! the public scalar pieces — `IntLinear::forward_naive`,
//! `matmul_transposed_i32`, `Requantizer::apply`, `SoftmaxLut::apply_matrix`
//! / `apply_row` (a division per element),
//! an `i64` `P · V` loop, `QuantizedLayerNorm::apply_residual` and
//! `IntGelu::apply` — plus the worst-case vectors the `i32` overflow
//! argument of the two attention reductions rests on (`gemm` module docs).
//! One level up, `IntBertModel::forward_logits` must equal its sequence's
//! row of `logits_batch_with_scratch` the same way, and both must refuse
//! the same inputs.
//!
//! Kernel selection is process-global, so every test serialises on
//! [`harness`], which also hands out the one [`GemmScratch`] all of them
//! share: each forward pass runs on a scratch that earlier cases left sized
//! for other — larger and smaller — shapes.

use fqbert_bert::layers::EncoderLayerParams;
use fqbert_bert::{BertConfig, BertModel};
use fqbert_core::int_model::{IntEncoderLayer, IntGelu, LayerScales};
use fqbert_core::{convert, IntBertModel, QatHook};
use fqbert_nlp::Example;
use fqbert_quant::QuantConfig;
use fqbert_quant::{LayerBits, QuantizedLayerNorm, Requantizer, SoftmaxLut};
use fqbert_tensor::gemm::kernels;
use fqbert_tensor::gemm::{
    AttentionScratch, GemmScratch, RequantParams, StridedView, MAX_ATTN_SEQ, MAX_K, MR, NR, WIDE_A,
    WIDE_B,
};
use fqbert_tensor::{IntTensor, RngSource};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Probability levels of the attention softmax (`c / 255`).
const PROB_LEVELS: u32 = 255;

const HEAD_DIMS: [usize; 5] = [1, 3, 8, 33, 64];
const WEIGHT_BITS: [u32; 3] = [2, 4, 8];
/// 1, `MR ± 1`, `NR ± 1` and the block sizes themselves.
const SEQ_LENS: [usize; 7] = [1, MR - 1, MR, MR + 1, NR - 1, NR, NR + 1];

const SCALES: LayerScales = LayerScales {
    input: 18.0,
    q: 14.0,
    k: 15.0,
    v: 17.0,
    scores: 9.0,
    attn_output: 16.0,
    layer_norm: 21.0,
    ffn_hidden: 19.0,
    ffn_output: 13.0,
};

fn harness() -> MutexGuard<'static, GemmScratch> {
    static SHARED: OnceLock<Mutex<GemmScratch>> = OnceLock::new();
    SHARED
        .get_or_init(|| Mutex::new(GemmScratch::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn requant_params(requant: &Requantizer) -> RequantParams {
    RequantParams {
        multiplier: requant.multiplier(),
        shift: requant.shift(),
        clamp: requant.out_max(),
    }
}

fn layer(seed: u64, heads: usize, head_dim: usize, bits: u32) -> IntEncoderLayer {
    let hidden = heads * head_dim;
    let mut rng = RngSource::seed_from_u64(seed);
    let params = EncoderLayerParams::new(&mut rng, hidden, hidden + 5);
    let bits = LayerBits::uniform(bits);
    IntEncoderLayer::from_float_mixed(&params, heads, head_dim, &bits, false, &SCALES, 1e-5)
        .expect("layer")
}

fn codes(seed: u64, rows: usize, cols: usize) -> IntTensor<i8> {
    let mut rng = RngSource::seed_from_u64(seed);
    let data = rng
        .normal_tensor(&[rows * cols], 0.0, 45.0)
        .as_slice()
        .iter()
        .map(|&v| v.round().clamp(-127.0, 127.0) as i8)
        .collect();
    IntTensor::from_vec(data, &[rows, cols]).expect("codes")
}

/// Rows `rows` × columns `cols` of `t`, copied out.
fn block(
    t: &IntTensor<i8>,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
) -> IntTensor<i8> {
    let data: Vec<i8> = rows
        .clone()
        .flat_map(|r| t.row(r)[cols.clone()].to_vec())
        .collect();
    IntTensor::from_vec(data, &[rows.len(), cols.len()]).expect("block")
}

/// Row-wise `Add & LN` through the allocating single-row entry point.
fn add_ln(
    norm: &QuantizedLayerNorm,
    (a, scale_a): (&IntTensor<i8>, f32),
    (b, scale_b): (&IntTensor<i8>, f32),
    out_scale: f32,
) -> IntTensor<i8> {
    let (rows, hidden) = a.as_matrix_dims().expect("matrix");
    let data: Vec<i8> = (0..rows)
        .flat_map(|i| {
            norm.apply_residual(a.row(i), scale_a, b.row(i), scale_b, out_scale)
                .expect("Add&LN")
        })
        .collect();
    IntTensor::from_vec(data, &[rows, hidden]).expect("normed")
}

/// The layer as the scalar pieces compute it, one stage after the other,
/// every intermediate materialised.
fn oracle(layer: &IntEncoderLayer, x: &IntTensor<i8>, seq_lens: &[usize]) -> IntTensor<i8> {
    let scales = layer.scales();
    let (total, _hidden) = x.as_matrix_dims().expect("input");
    let width = layer.query.out_features();
    let head_dim = width / layer.heads();
    let q = layer.query.forward_naive(x).expect("q");
    let k = layer.key.forward_naive(x).expect("k");
    let v = layer.value.forward_naive(x).expect("v");

    let score_requant = Requantizer::from_scale(
        f64::from(scales.scores)
            / (f64::from(scales.q) * f64::from(scales.k) * (head_dim as f64).sqrt()),
        8,
    )
    .expect("score requantizer");
    let softmax = SoftmaxLut::new(scales.scores, PROB_LEVELS).expect("softmax LUT");
    let context_requant =
        Requantizer::from_scale(1.0 / f64::from(PROB_LEVELS), 8).expect("context requantizer");
    let mut context = IntTensor::<i8>::zeros(&[total, width]);
    let mut start = 0usize;
    for &seq in seq_lens {
        for lo in (0..width).step_by(head_dim) {
            let head = |t| block(t, start..start + seq, lo..lo + head_dim);
            let (qh, kh, vh) = (head(&q), head(&k), head(&v));
            let scores: Vec<i32> = qh
                .matmul_transposed_i32(&kh)
                .expect("scores")
                .as_slice()
                .iter()
                .map(|&acc| score_requant.apply(i64::from(acc)))
                .collect();
            let probs = softmax.apply_matrix(&scores, seq);
            for i in 0..seq {
                for d in 0..head_dim {
                    let acc: i64 = (0..seq)
                        .map(|j| i64::from(probs[i * seq + j]) * i64::from(vh.row(j)[d]))
                        .sum();
                    let code = context_requant.apply(acc).clamp(-127, 127) as i8;
                    context.as_mut_slice()[(start + i) * width + lo + d] = code;
                }
            }
        }
        start += seq;
    }

    let attn_out = layer
        .attn_output
        .forward_naive(&context)
        .expect("attn_output");
    let normed = add_ln(
        layer.attn_layer_norm(),
        (x, scales.input),
        (&attn_out, scales.attn_output),
        scales.layer_norm,
    );
    let ffn_pre = layer.ffn1.forward_naive(&normed).expect("ffn1");
    let gelu = IntGelu::new(scales.ffn_hidden, scales.ffn_hidden);
    let ffn_hidden: Vec<i8> = ffn_pre.as_slice().iter().map(|&c| gelu.apply(c)).collect();
    let ffn_hidden = IntTensor::from_vec(ffn_hidden, ffn_pre.dims()).expect("ffn hidden");
    let ffn_out = layer.ffn2.forward_naive(&ffn_hidden).expect("ffn2");
    add_ln(
        layer.ffn_layer_norm(),
        (&normed, scales.layer_norm),
        (&ffn_out, scales.ffn_output),
        scales.layer_norm,
    )
}

/// Asserts the fused layer equals the oracle under every available kernel,
/// on the shared scratch.
fn assert_layer_matches_oracle(layer: &IntEncoderLayer, x: &IntTensor<i8>, seq_lens: &[usize]) {
    let expected = oracle(layer, x, seq_lens);
    let mut scratch = harness();
    for kind in kernels::available() {
        kernels::force(kind);
        let got = layer
            .forward_batch_with_scratch(x, seq_lens, &mut scratch)
            .expect("fused layer");
        assert_eq!(
            got,
            expected,
            "kernel {} on seq_lens {seq_lens:?}",
            kind.name()
        );
    }
    kernels::force(kernels::best_available());
}

/// Vocabulary and position-table sizes of [`model`].
const VOCAB: usize = 48;
const MAX_LEN: usize = 20;

/// `len` real tokens derived from `seed`, then `padding` masked-out slots
/// whose ids would be out of vocabulary if anything read them.
fn example(seed: u64, len: usize, padding: usize) -> Example {
    let padded = |real: Vec<usize>, fill: usize| [real, vec![fill; padding]].concat();
    let token = |i: usize| (seed as usize).wrapping_mul(31).wrapping_add(i * 7) % VOCAB;
    Example {
        token_ids: padded((0..len).map(token).collect(), VOCAB),
        segment_ids: padded((0..len).map(|i| usize::from(i > len / 2)).collect(), 0),
        attention_mask: padded(vec![1; len], 0),
        label: 0,
    }
}

/// A small converted model (3 heads of 8, two w4 layers), built once.
fn model() -> &'static IntBertModel {
    static MODEL: OnceLock<IntBertModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let config = BertConfig {
            hidden: 24,
            heads: 3,
            intermediate: 40,
            ..BertConfig::tiny(VOCAB, MAX_LEN, 3)
        };
        let float = BertModel::new(config, 17);
        let calibration: Vec<Example> = (0..4).map(|seed| example(seed, 9, 0)).collect();
        let hook =
            QatHook::calibrated(&float, QuantConfig::fq_bert(), &calibration).expect("calibration");
        convert(&float, &hook).expect("convert")
    })
}

proptest! {
    #[test]
    fn fused_layer_equals_the_scalar_oracle_on_every_kernel(
        heads in 1usize..=4,
        head_dim_index in 0usize..HEAD_DIMS.len(),
        bits_index in 0usize..WEIGHT_BITS.len(),
        seq_indices in collection::vec(0usize..SEQ_LENS.len(), 1..=4),
        seed in 0u64..1_000_000,
    ) {
        let head_dim = HEAD_DIMS[head_dim_index];
        let layer = layer(seed, heads, head_dim, WEIGHT_BITS[bits_index]);
        let seq_lens: Vec<usize> = seq_indices.iter().map(|&i| SEQ_LENS[i]).collect();
        let x = codes(seed + 1, seq_lens.iter().sum(), heads * head_dim);
        assert_layer_matches_oracle(&layer, &x, &seq_lens);
    }

    #[test]
    fn forward_logits_equals_its_row_of_the_batch_on_every_kernel(
        shapes in collection::vec((1usize..=MAX_LEN, 0usize..=3), 1..=5),
        seed in 0u64..1_000_000,
    ) {
        let model = model();
        let examples: Vec<Example> = shapes
            .iter()
            .zip(seed..)
            .map(|(&(len, padding), seed)| example(seed, len, padding))
            .collect();
        let mut scratch = harness();
        for kind in kernels::available() {
            kernels::force(kind);
            let batch = model
                .logits_batch_with_scratch(&examples, &mut scratch)
                .expect("batch");
            prop_assert_eq!(batch.len(), examples.len());
            for ((ex, row), &(len, _)) in examples.iter().zip(&batch).zip(&shapes) {
                let alone = model
                    .forward_logits(&ex.token_ids[..len], &ex.segment_ids[..len])
                    .expect("one sequence");
                // Bit for bit: compare the floats' representations.
                let bits = |logits: &[f32]| logits.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&alone), bits(row), "kernel {}", kind.name());
            }
        }
        kernels::force(kernels::best_available());
    }

    #[test]
    fn softmax_into_equals_the_allocating_row_form(
        scores in collection::vec(-128i8..=127, 0..=300),
        scale in 0.5f32..40.0,
        levels in 1u32..=255,
    ) {
        let lut = SoftmaxLut::new(scale, levels).expect("LUT");
        let wide: Vec<i32> = scores.iter().map(|&s| i32::from(s)).collect();
        let expected = lut.apply_row(&wide);
        let widened = |codes: Vec<u8>| codes.into_iter().map(i32::from).collect::<Vec<_>>();
        for kind in kernels::available() {
            let mut got = vec![99u8; scores.len()];
            (kernels::dispatch_for(kind).softmax)(lut.params(), &scores, &mut got);
            prop_assert_eq!(&widened(got), &expected, "kernel {}", kind.name());
        }
        // ... and the selected row, through the LUT's own entry point.
        let mut got = vec![99u8; scores.len()];
        lut.apply_row_into(&scores, &mut got);
        prop_assert_eq!(widened(got), expected);
    }

    #[test]
    fn layer_norm_matrix_form_equals_the_row_form(
        hidden in 1usize..80,
        rows in 0usize..6,
        seed in 0u64..1_000_000,
        scale_a in 2.0f32..60.0,
        scale_b in 2.0f32..60.0,
        out_scale in 2.0f32..60.0,
    ) {
        let mut rng = RngSource::seed_from_u64(seed);
        let gamma = rng.normal_tensor(&[hidden], 1.0, 0.5);
        let beta = rng.normal_tensor(&[hidden], 0.0, 0.5);
        let norm = QuantizedLayerNorm::from_float(gamma.as_slice(), beta.as_slice(), 1e-5)
            .expect("layer norm");
        let (a, b) = (codes(seed + 1, rows, hidden), codes(seed + 2, rows, hidden));
        let folded = norm.fold(scale_a, scale_b, out_scale).expect("fold");
        // The row form runs the scalar row whatever is forced.
        let expected = add_ln(&norm, (&a, scale_a), (&b, scale_b), out_scale);
        let mut scratch = harness();
        for kind in kernels::available() {
            kernels::force(kind);
            let mut got = vec![0i8; rows * hidden];
            folded
                .apply(&mut got, a.as_slice(), b.as_slice(), &mut scratch.norm)
                .expect("matrix form");
            prop_assert_eq!(got.as_slice(), expected.as_slice(), "kernel {}", kind.name());
        }
        kernels::force(kernels::best_available());
    }
}

#[test]
fn every_block_boundary_and_a_128_token_sequence_in_one_batch() {
    // The paper's shape (4 heads of 64 over 128 tokens) next to the shortest
    // and every block-straddling length — of the `MR`-row tiles, the
    // `NR`-wide panels and the AMX driver's 16-row halves and 64-key steps —
    // low-bit and 8-bit weights, and an odd head dimension that pads both
    // panel directions.
    let tiles = [1, MR - 1, 128, MR + 1, NR - 1, NR + 1];
    let seq_lens = [tiles, [15, 16, 17, 63, 64, 65]].concat();
    for &(heads, head_dim, bits) in &[(4usize, 64usize, 4u32), (3, 33, 8), (2, 1, 2)] {
        let layer = layer(7, heads, head_dim, bits);
        let x = codes(8, seq_lens.iter().sum(), heads * head_dim);
        assert_layer_matches_oracle(&layer, &x, &seq_lens);
    }
}

fn dense_view(t: &IntTensor<i8>, rows: usize, cols: usize) -> StridedView<'_> {
    StridedView::dense(t.as_slice(), rows, cols).expect("dense view")
}

/// One head through `attend_head` on every available kernel against the
/// scalar composition: `matmul_transposed_i32` → `Requantizer::apply` →
/// `SoftmaxLut::apply_row` (a division per element) → `i64` `P · V` →
/// `Requantizer::apply`.
fn assert_head_matches_scalar(
    attn: &mut AttentionScratch,
    (q, k, v): (&IntTensor<i8>, &IntTensor<i8>, &IntTensor<i8>),
    (score_requant, context_requant): (&Requantizer, &Requantizer),
    softmax: &SoftmaxLut,
) {
    let (seq, head_dim) = q.as_matrix_dims().expect("head");
    let view = |t| dense_view(t, seq, head_dim);
    let scores = q.matmul_transposed_i32(k).expect("scores");
    let mut expected = vec![0i8; seq * head_dim];
    for i in 0..seq {
        let row = scores.row(i).iter();
        let row: Vec<i32> = row.map(|&s| score_requant.apply(i64::from(s))).collect();
        let probs = softmax.apply_row(&row);
        for d in 0..head_dim {
            let products = probs.iter().zip(0..seq);
            let acc: i64 = products
                .map(|(&p, j)| i64::from(p) * i64::from(v.row(j)[d]))
                .sum();
            expected[i * head_dim + d] = context_requant.apply(acc).clamp(-127, 127) as i8;
        }
    }
    for kind in kernels::available() {
        kernels::force(kind);
        let mut got = vec![0i8; seq * head_dim];
        attn.attend_head(
            view(q),
            view(k),
            view(v),
            requant_params(score_requant),
            requant_params(context_requant),
            softmax.params(),
            &mut got,
            head_dim,
        )
        .expect("attend_head");
        assert_eq!(got, expected, "kernel {}", kind.name());
    }
    kernels::force(kernels::best_available());
}

#[test]
fn scores_of_all_minus_128_at_the_deepest_head_do_not_overflow() {
    // MAX_K · 128² is the largest score accumulator an i8 head can produce;
    // `matmul_transposed_i32`'s i64→i32 saturation must not be what makes
    // the two sides agree, so check the oracle's value is the exact one.
    let mut scratch = harness();
    let seq = MR + 1;
    // The first row at `first`, the others zero.
    let head = |first: i8| {
        let codes = [vec![first; MAX_K], vec![0; (seq - 1) * MAX_K]].concat();
        IntTensor::from_vec(codes, &[seq, MAX_K]).expect("head")
    };
    let q = IntTensor::from_vec(vec![-128i8; seq * MAX_K], &[seq, MAX_K]).expect("head");
    let exact = MAX_K as i64 * 128 * 128;
    assert!(exact <= i64::from(i32::MAX));
    assert_eq!(
        q.matmul_transposed_i32(&q).expect("scores").as_slice()[0],
        exact as i32
    );
    // A scale that lands the extreme accumulator inside the code range —
    // every query scores 100 against key 0 and 0 against the zero keys — on
    // a table steep enough there that a score one off is another numerator,
    // and values and a context scale that carry key 0's probability to the
    // output unsaturated, so an off-by-anything in the accumulator shows.
    let score_requant = Requantizer::from_scale(100.0 / exact as f64, 8).expect("requantizer");
    let softmax = SoftmaxLut::new(64.0, PROB_LEVELS).expect("softmax LUT");
    assert_ne!(softmax.table()[99], softmax.table()[100]);
    let context_requant = Requantizer::from_scale(0.9 / 127.0, 8).expect("requantizer");
    assert_head_matches_scalar(
        &mut scratch.attn,
        (&q, &head(-128), &head(127)),
        (&score_requant, &context_requant),
        &softmax,
    );
    // One past the bound is refused rather than computed inexactly.
    let deep = vec![0i8; MAX_K + 1];
    let view = StridedView::dense(&deep, 1, MAX_K + 1).expect("view");
    let params = requant_params(&score_requant);
    let refused = scratch.attn.attend_head(
        view,
        view,
        view,
        params,
        params,
        softmax.params(),
        &mut [0; 0],
        0,
    );
    assert!(refused.is_err());
}

#[test]
fn context_of_full_probabilities_times_minus_128_does_not_overflow() {
    let mut scratch = harness();
    // A softmax steep enough that a key four codes ahead of the rest takes
    // the whole probability, 255 — a code that is −1 if anything widens it
    // as an `i8` — against values of −128, over a sequence that straddles
    // many panels and k-pairs. (A row of probabilities sums to about 255, so
    // no softmax puts two extreme products in one k-pair; the tile below
    // does.)
    let (seq, head_dim) = (8 * NR + 3, 3);
    let q = codes(3, seq, head_dim);
    let v = IntTensor::from_vec(vec![-128i8; seq * head_dim], &[seq, head_dim]).expect("v");
    let score_requant = Requantizer::from_scale(0.01, 8).expect("requantizer");
    let softmax = SoftmaxLut::new(0.5, PROB_LEVELS).expect("softmax LUT");
    let one_hot = [100, 96, -128, 96];
    assert_eq!(softmax.apply_row(&one_hot), [255, 0, 0, 0]);
    // A scale that keeps −255·128 inside the code range.
    let context_requant = Requantizer::from_scale(100.0 / (255.0 * 128.0), 8).expect("requantizer");
    assert_head_matches_scalar(
        &mut scratch.attn,
        (&q, &q, &v),
        (&score_requant, &context_requant),
        &softmax,
    );

    // The reduction bound itself: MAX_ATTN_SEQ extreme products into one
    // accumulator, on every tile kernel. (A whole head of that length is
    // seq² work; one tile reaches the same accumulator.)
    let pairs = MAX_ATTN_SEQ.div_ceil(2);
    let mut probs = vec![[255i16; WIDE_A]; pairs];
    let mut values = vec![[-128i16; WIDE_B]; pairs];
    if MAX_ATTN_SEQ % 2 == 1 {
        // The zero padding of an odd reduction depth.
        probs[pairs - 1]
            .iter_mut()
            .skip(1)
            .step_by(2)
            .for_each(|p| *p = 0);
        values[pairs - 1]
            .iter_mut()
            .skip(1)
            .step_by(2)
            .for_each(|v| *v = 0);
    }
    let exact = -(MAX_ATTN_SEQ as i64) * 255 * 128;
    assert!(exact >= i64::from(i32::MIN));
    assert!(
        exact - 255 * 128 < i64::from(i32::MIN),
        "MAX_ATTN_SEQ is the last exact length"
    );
    for kind in kernels::available() {
        let mut acc = [[0i32; NR]; MR];
        (kernels::dispatch_for(kind).wide)(&probs, &values, &mut acc);
        assert!(
            acc.iter().flatten().all(|&a| i64::from(a) == exact),
            "kernel {}",
            kind.name()
        );
    }
    let long = vec![0i8; MAX_ATTN_SEQ + 1];
    let view = StridedView::dense(&long, MAX_ATTN_SEQ + 1, 1).expect("view");
    let params = requant_params(&score_requant);
    let refused = scratch.attn.attend_head(
        view,
        view,
        view,
        params,
        params,
        softmax.params(),
        &mut [0; 0],
        1,
    );
    assert!(refused.is_err());
}

#[test]
fn overlong_sequences_are_rejected_by_the_layer() {
    let layer = layer(5, 1, 1, 8);
    let x = IntTensor::<i8>::zeros(&[MAX_ATTN_SEQ + 1, 1]);
    let err = layer
        .forward_batch_with_scratch(&x, &[MAX_ATTN_SEQ + 1], &mut harness())
        .expect_err("beyond the attention bound");
    assert!(err.to_string().contains("attention bound"), "{err}");
}

#[test]
fn both_logits_entry_points_refuse_the_same_sequences() {
    let model = model();
    let mut scratch = harness();
    let mut out_of_vocabulary = example(1, 5, 0);
    out_of_vocabulary.token_ids[3] = VOCAB;
    let refused = [
        ("empty", example(2, 0, 4)),
        ("overlong", example(3, MAX_LEN + 1, 0)),
        ("out of vocabulary", out_of_vocabulary),
    ];
    for (what, bad) in refused {
        let len = bad.attention_mask.iter().filter(|&&m| m == 1).count();
        let alone = model.forward_logits(&bad.token_ids[..len], &bad.segment_ids[..len]);
        assert!(alone.is_err(), "forward_logits accepted an {what} sequence");
        // Alone and buried in an otherwise sound batch.
        let buried = vec![example(4, 7, 1), bad.clone(), example(5, 2, 0)];
        for batch in [vec![bad], buried] {
            let batched = model.logits_batch_with_scratch(&batch, &mut scratch);
            assert!(
                batched.is_err(),
                "the batch path accepted an {what} sequence"
            );
        }
    }
}
