//! The integer embedding against a scalar oracle, bit for bit, under every
//! available kernel row.
//!
//! `IntBertModel::embed` (and the forward path's body it wraps) gathers each
//! token's word and position×segment code rows into two buffers and applies
//! the embedding's folded `Add & LN` to the whole batch at once, on the
//! selected kernel row. The oracle here is one token at a time: the same two
//! rows picked out of the tables by hand, then
//! `QuantizedLayerNorm::apply_residual` — fold the three scales, then the
//! **scalar** row, whatever kernel is selected. Every code must be equal,
//! for every sequence length of every width and under every row of
//! `kernels::available()`, on random tables and on hand-built ones: constant
//! rows (zero variance), rows at both ends of the code range, and scales so
//! small that the operand sums saturate `i32` (outside the SIMD envelope, so
//! the scalar row runs). Batch logits go through the forward path's arena
//! and are checked against the float head applied to the oracle's `[CLS]`
//! codes.

use fqbert_bert::BertConfig;
use fqbert_core::int_model::{HostSide, IntEmbedding};
use fqbert_core::IntBertModel;
use fqbert_nlp::Example;
use fqbert_quant::QuantizedLayerNorm;
use fqbert_tensor::gemm::kernels;
use fqbert_tensor::{GemmScratch, IntTensor, RngSource, Tensor};
use std::sync::Arc;

const EPS: f32 = 1e-5;

/// The embedding one token at a time: gather, then the one-row oracle of
/// `Add & LN` on the scalar row.
fn oracle(model: &IntBertModel, tokens: &[usize], segments: &[usize]) -> Vec<i8> {
    let embedding = &model.host.embedding;
    let [word_scale, position_segment_scale] = embedding.table_scales();
    let type_vocab = model.config().type_vocab_size;
    let mut codes = Vec::new();
    for (position, (&token, &segment)) in tokens.iter().zip(segments).enumerate() {
        let row = embedding
            .layer_norm()
            .apply_residual(
                embedding.word.row(token),
                word_scale,
                embedding
                    .position_segment
                    .row(position * type_vocab + segment),
                position_segment_scale,
                model.embedding_out_scale(),
            )
            .expect("oracle row");
        codes.extend(row);
    }
    codes
}

/// The float head the engine's classifier replaced, on one `[CLS]` row.
fn oracle_head(model: &IntBertModel, cls: &[i8]) -> Vec<f32> {
    let row = cls
        .iter()
        .map(|&c| c as f32 / model.embedding_out_scale())
        .collect();
    Tensor::from_vec(row, &[1, cls.len()])
        .and_then(|row| row.matmul(model.classifier_weight()))
        .and_then(|logits| logits.add_bias(model.classifier_bias()))
        .expect("head")
        .into_vec()
}

/// The tables of one embedding: `[vocab, hidden]` word codes,
/// `[max_len · segments, hidden]` position×segment codes, and the scales.
struct Tables {
    word: Vec<i8>,
    position_segment: Vec<i8>,
    max_len: usize,
    segments: usize,
    /// Word, position×segment and output scale.
    scales: [f32; 3],
}

/// A model of no encoder layers over `tables` and a layer norm of
/// `gamma` / `beta`: its logits are the head on each sequence's embedded
/// `[CLS]` row.
fn model(tables: Tables, gamma: &[f32], beta: &[f32]) -> IntBertModel {
    let hidden = gamma.len();
    let Tables {
        word,
        position_segment,
        max_len,
        segments,
        scales: [word_scale, position_segment_scale, output_scale],
    } = tables;
    let vocab = word.len() / hidden;
    let codes = |codes: Vec<i8>, rows: usize| {
        Arc::new(IntTensor::from_vec(codes, &[rows, hidden]).expect("table"))
    };
    let layer_norm = QuantizedLayerNorm::from_float(gamma, beta, EPS).expect("layer norm");
    let embedding = IntEmbedding::from_quantized_parts(
        codes(word, vocab),
        word_scale,
        codes(position_segment, max_len * segments),
        position_segment_scale,
        segments,
        layer_norm,
        output_scale,
    )
    .expect("embedding");
    let mut rng = RngSource::seed_from_u64(hidden as u64);
    let host = HostSide {
        embedding,
        classifier_weight: Arc::new(rng.normal_tensor(&[hidden, 3], 0.0, 0.1)),
        classifier_bias: Arc::new(rng.normal_tensor(&[3], 0.0, 0.1)),
    };
    let config = BertConfig {
        vocab_size: vocab,
        hidden,
        layers: 0,
        heads: 1,
        intermediate: 1,
        max_len,
        type_vocab_size: segments,
        num_classes: 3,
        layer_norm_eps: EPS,
    };
    IntBertModel::from_parts(config, host, Vec::new(), 4)
}

/// `n` codes spread over the whole `i8` range.
fn random_codes(rng: &mut RngSource, n: usize) -> Vec<i8> {
    (0..n).map(|_| rng.next_u64() as i8).collect()
}

/// Random code tables of the given width: `vocab` words, `max_len`
/// positions and `segments` segment ids.
fn random_tables(
    rng: &mut RngSource,
    hidden: usize,
    [vocab, max_len, segments]: [usize; 3],
    scales: [f32; 3],
) -> Tables {
    Tables {
        word: random_codes(rng, vocab * hidden),
        position_segment: random_codes(rng, max_len * segments * hidden),
        max_len,
        segments,
        scales,
    }
}

/// Layer-norm parameters around `γ = 1`, `β = 0`.
fn random_norm(rng: &mut RngSource, hidden: usize) -> (Vec<f32>, Vec<f32>) {
    let gamma = rng.normal_tensor(&[hidden], 1.0, 0.3).into_vec();
    let beta = rng.normal_tensor(&[hidden], 0.0, 0.2).into_vec();
    (gamma, beta)
}

/// Token and segment ids of one sequence: a walk over the vocabulary and
/// a mix of every segment.
fn ids(len: usize, vocab: usize, segments: usize) -> (Vec<usize>, Vec<usize>) {
    let tokens = (0..len).map(|i| (i * 5 + len * 3) % vocab).collect();
    let segs = (0..len).map(|i| (i * 7 + len) % segments).collect();
    (tokens, segs)
}

/// Under every available kernel row: every length `1..=max_len` through
/// `embed` against the oracle, then the whole set as one batch through the
/// forward path's arena (twice, in two orders, on one scratch) against the
/// oracle head on the oracle's `[CLS]` rows.
fn assert_identical(name: &str, model: &IntBertModel) {
    let config = model.config();
    let mut examples = Vec::new();
    let mut want_codes = Vec::new();
    for len in 1..=config.max_len {
        let (tokens, segs) = ids(len, config.vocab_size, config.type_vocab_size);
        want_codes.push(oracle(model, &tokens, &segs));
        examples.push(Example {
            attention_mask: vec![1; len],
            token_ids: tokens,
            segment_ids: segs,
            label: 0,
        });
    }
    let want_logits: Vec<Vec<u32>> = want_codes
        .iter()
        .map(|codes| {
            let logits = oracle_head(model, &codes[..config.hidden]);
            logits.iter().map(|v| v.to_bits()).collect()
        })
        .collect();
    let mut scratch = GemmScratch::new();
    for kind in kernels::available() {
        kernels::force(kind);
        let kernel = kind.name();
        for (ex, want) in examples.iter().zip(&want_codes) {
            let (len, hidden) = (ex.token_ids.len(), config.hidden);
            let got = model.embed(&ex.token_ids, &ex.segment_ids).expect("embed");
            assert_eq!(got.dims(), [len, hidden]);
            if let Some(at) = want.iter().zip(got.as_slice()).position(|(w, g)| w != g) {
                panic!(
                    "{name}, {kernel}, hidden {hidden}, length {len}: code {at} \
                     (row {}, column {}) is {} not {}",
                    at / hidden,
                    at % hidden,
                    got.as_slice()[at],
                    want[at]
                );
            }
        }
        for reversed in [false, true] {
            let (mut batch, mut want) = (examples.clone(), want_logits.clone());
            if reversed {
                batch.reverse();
                want.reverse();
            }
            let got: Vec<Vec<u32>> = model
                .logits_batch_with_scratch(&batch, &mut scratch)
                .expect("logits")
                .iter()
                .map(|logits| logits.iter().map(|v| v.to_bits()).collect())
                .collect();
            let hidden = config.hidden;
            assert_eq!(got, want, "{name}, {kernel}, hidden {hidden}: batch logits");
        }
    }
    kernels::force(kernels::best_available());
}

#[test]
fn random_tables_of_every_width_and_length() {
    let mut rng = RngSource::seed_from_u64(29);
    for hidden in [1usize, 7, 8, 9, 16, 17, 64, 256, 768] {
        // Table scales of converted models (hundreds of levels per unit)
        // and of calibrated activations (tens); an output scale of 7.3
        // saturates no code, one of 40 saturates many.
        for scales in [[600.0f32, 350.0, 7.3], [40.0, 25.0, 40.0]] {
            let (gamma, beta) = random_norm(&mut rng, hidden);
            let tables = random_tables(&mut rng, hidden, [50, 40, 3], scales);
            assert_identical("random", &model(tables, &gamma, &beta));
        }
    }
}

#[test]
fn constant_rows_huge_rows_and_overflowing_sums() {
    for hidden in [9usize, 256] {
        let mut rng = RngSource::seed_from_u64(17);
        let constant = |c: i8| vec![c; hidden];
        let alternating = |c: i8| {
            (0..hidden)
                .map(|j| if j % 2 == 0 { c } else { c.saturating_neg() })
                .collect::<Vec<i8>>()
        };
        let mut spike = vec![0i8; hidden];
        spike[hidden / 2] = 127;
        // Word rows: zero variance (constant, and a constant sum with a
        // constant position row), both ends of the code range, a lone
        // outlier.
        let rows = [
            constant(0),
            constant(3),
            constant(-128),
            constant(127),
            alternating(127),
            alternating(-128),
            spike,
        ];
        let word = rows.concat();
        let (gamma, beta) = random_norm(&mut rng, hidden);
        for position_segment in [vec![0i8; 16 * 2 * hidden], vec![-128; 16 * 2 * hidden]] {
            // Scales of converted tables; tens of levels per unit; and
            // scales so small that a code's grid step saturates `i32`.
            for scales in [
                [600.0f32, 350.0, 40.0],
                [20.0, 30.0, 7.3],
                [1e-6, 1e-5, 40.0],
            ] {
                let tables = Tables {
                    word: word.clone(),
                    position_segment: position_segment.clone(),
                    max_len: 16,
                    segments: 2,
                    scales,
                };
                let model = model(tables, &gamma, &beta);
                assert_identical("constant and extreme rows", &model);
            }
        }
    }
}

#[test]
fn tokens_segments_and_lengths_outside_the_tables_are_refused() {
    let mut rng = RngSource::seed_from_u64(3);
    let (gamma, beta) = random_norm(&mut rng, 8);
    let tables = random_tables(&mut rng, 8, [10, 6, 2], [600.0, 350.0, 40.0]);
    let model = model(tables, &gamma, &beta);
    for (tokens, segments) in [
        (vec![1, 10], vec![0, 0]),
        (vec![1, 2], vec![0, 2]),
        (vec![1, 2], vec![0, usize::MAX]),
        (vec![1; 7], vec![0; 7]),
        (vec![], vec![]),
        (vec![1, 2], vec![0]),
    ] {
        assert!(
            model.embed(&tokens, &segments).is_err(),
            "{tokens:?} / {segments:?}"
        );
    }
}
