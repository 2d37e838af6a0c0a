//! The embedding against the float composition it replaced, bit for bit.
//!
//! `IntBertModel::embed` (and the forward path's body it wraps) sums the
//! three tables, folds each row's layer-norm statistics eight rows side by
//! side, and quantizes without a libm call. The oracle here is the old
//! composition verbatim: a zeroed `Tensor` of sums, `Tensor::layer_norm`,
//! then `(v * scale).round().clamp(-127.0, 127.0) as i8`. Every code must
//! be equal, for every sequence length of every width, on random tables
//! and on hand-built ones that put `y` on each rounding tie, past both
//! clamps, on `±0.49999997`, `−0.0`, constant rows, rows of `±1e30` and
//! sums that overflow to infinity. The per-row `mean` / `inv_std` bits are
//! pinned by the unit tests of `int_model` (`row_stats`).

use fqbert_bert::BertConfig;
use fqbert_core::int_model::HostSide;
use fqbert_core::IntBertModel;
use fqbert_nlp::Example;
use fqbert_tensor::{GemmScratch, RngSource, Tensor};
use std::sync::Arc;

const EPS: f32 = 1e-5;

/// The float composition the embedding replaced.
fn oracle(host: &HostSide, tokens: &[usize], segments: &[usize]) -> Vec<i8> {
    let hidden = host.embedding_gamma.numel();
    let mut emb = Tensor::zeros(&[tokens.len(), hidden]);
    for (i, (&tok, &seg)) in tokens.iter().zip(segments).enumerate() {
        let word = host.word_embeddings.row(tok);
        let position = host.position_embeddings.row(i);
        let segment = host.segment_embeddings.row(seg);
        for (e, ((&w, &p), &s)) in emb
            .row_mut(i)
            .iter_mut()
            .zip(word.iter().zip(position).zip(segment))
        {
            *e = w + p + s;
        }
    }
    let normed = emb
        .layer_norm(&host.embedding_gamma, &host.embedding_beta, EPS)
        .expect("layer norm");
    let scale = host.embedding_out_scale;
    normed
        .as_slice()
        .iter()
        .map(|&v| (v * scale).round().clamp(-127.0, 127.0) as i8)
        .collect()
}

/// The float head the engine's classifier replaced, on one `[CLS]` row.
fn oracle_head(host: &HostSide, cls: &[i8]) -> Vec<f32> {
    let row = cls
        .iter()
        .map(|&c| c as f32 / host.embedding_out_scale)
        .collect();
    Tensor::from_vec(row, &[1, cls.len()])
        .and_then(|row| row.matmul(&host.classifier_weight))
        .and_then(|logits| logits.add_bias(&host.classifier_bias))
        .expect("head")
        .into_vec()
}

/// A model of no encoder layers over `host`: its logits are the head on
/// each sequence's embedded `[CLS]` row.
fn model(host: HostSide, max_len: usize, type_vocab_size: usize) -> IntBertModel {
    let config = BertConfig {
        vocab_size: host.word_embeddings.dims()[0],
        hidden: host.embedding_gamma.numel(),
        layers: 0,
        heads: 1,
        intermediate: 1,
        max_len,
        type_vocab_size,
        num_classes: host.classifier_bias.numel(),
        layer_norm_eps: EPS,
    };
    IntBertModel::from_parts(config, host, Vec::new(), 4)
}

/// Random tables of the given width, rows of `vocab` words, `max_len`
/// positions and `segments` segment embeddings, and a head of 3 classes.
fn random_host(
    rng: &mut RngSource,
    hidden: usize,
    [vocab, max_len, segments]: [usize; 3],
    scale: f32,
) -> HostSide {
    let mut table =
        |dims: &[usize], mean: f32, std: f32| Arc::new(rng.normal_tensor(dims, mean, std));
    HostSide {
        word_embeddings: table(&[vocab, hidden], 0.0, 0.5),
        position_embeddings: table(&[max_len, hidden], 0.0, 0.3),
        segment_embeddings: table(&[segments, hidden], 0.0, 0.2),
        embedding_gamma: table(&[hidden], 1.0, 0.3),
        embedding_beta: table(&[hidden], 0.0, 0.2),
        classifier_weight: table(&[hidden, 3], 0.0, 0.1),
        classifier_bias: table(&[3], 0.0, 0.1),
        embedding_out_scale: scale,
    }
}

/// Token and segment ids of one sequence: a walk over the vocabulary and
/// a mix of every segment.
fn ids(len: usize, vocab: usize, segments: usize) -> (Vec<usize>, Vec<usize>) {
    let tokens = (0..len).map(|i| (i * 5 + len * 3) % vocab).collect();
    let segs = (0..len).map(|i| (i * 7 + len) % segments).collect();
    (tokens, segs)
}

/// Every length `1..=max_len` through `embed` against the oracle, then the
/// whole set as one batch through the forward path's arena (twice, in two
/// orders, on one scratch) against the oracle head on the oracle's
/// `[CLS]` rows.
fn assert_identical(name: &str, model: &IntBertModel) {
    let config = model.config();
    let host = model.host();
    let mut examples = Vec::new();
    for len in 1..=config.max_len {
        let (tokens, segs) = ids(len, config.vocab_size, config.type_vocab_size);
        let want = oracle(host, &tokens, &segs);
        let got = model.embed(&tokens, &segs).expect("embed");
        assert_eq!(got.dims(), [len, config.hidden]);
        if let Some(at) = want.iter().zip(got.as_slice()).position(|(w, g)| w != g) {
            panic!(
                "{name}, hidden {}, length {len}: code {at} (row {}, column {}) is {} not {}",
                config.hidden,
                at / config.hidden,
                at % config.hidden,
                got.as_slice()[at],
                want[at]
            );
        }
        examples.push(Example {
            attention_mask: vec![1; len],
            token_ids: tokens,
            segment_ids: segs,
            label: 0,
        });
    }
    let want: Vec<Vec<u32>> = examples
        .iter()
        .map(|ex| {
            let codes = oracle(host, &ex.token_ids, &ex.segment_ids);
            let logits = oracle_head(host, &codes[..config.hidden]);
            logits.iter().map(|v| v.to_bits()).collect()
        })
        .collect();
    let mut scratch = GemmScratch::new();
    for reversed in [false, true] {
        let (mut batch, mut want) = (examples.clone(), want.clone());
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
        assert_eq!(got, want, "{name}, hidden {}: batch logits", config.hidden);
    }
}

#[test]
fn random_tables_of_every_width_and_length() {
    let mut rng = RngSource::seed_from_u64(29);
    for hidden in [1usize, 7, 8, 9, 16, 17, 64, 256, 768] {
        // 7.3: no code saturates; 40: both clamps are common.
        for scale in [7.3f32, 40.0] {
            let host = random_host(&mut rng, hidden, [50, 40, 3], scale);
            assert_identical("random", &model(host, 40, 3));
        }
    }
}

#[test]
fn rows_far_from_zero_pin_the_fold_order() {
    // Word rows of 1000 + N(0, 0.01): a row's sum rounds at ulp(1000 ·
    // hidden), so a fold in any other order lands on another mean, an
    // ulp of which is a visible share of σ — and the codes move with it.
    let mut rng = RngSource::seed_from_u64(41);
    for hidden in [16usize, 64, 256, 768] {
        let mut host = random_host(&mut rng, hidden, [50, 40, 3], 40.0);
        host.word_embeddings = Arc::new(rng.normal_tensor(&[50, hidden], 1000.0, 0.01));
        assert_identical("far from zero", &model(host, 40, 3));
    }
}

/// Hand-built tables of width 256 and 2 segments over random sums: every
/// code is `β · scale` rounded when `γ = 0`, whatever the statistics.
fn hand_built(gamma: Vec<f32>, beta: Vec<f32>, scale: f32) -> IntBertModel {
    let mut rng = RngSource::seed_from_u64(5);
    let hidden = gamma.len();
    let mut host = random_host(&mut rng, hidden, [8, 16, 2], scale);
    host.embedding_gamma = Arc::new(Tensor::from_vec(gamma, &[hidden]).expect("gamma"));
    host.embedding_beta = Arc::new(Tensor::from_vec(beta, &[hidden]).expect("beta"));
    model(host, 16, 2)
}

#[test]
fn every_rounding_tie_and_the_values_beside_one_half() {
    let below_half = 0.5f32.next_down();
    assert_eq!(below_half, 0.499_999_97);
    // y = k + 0.5 for every k in -127..=126, then y = ±0.49999997.
    let ties = |step: f32| {
        let mut beta: Vec<f32> = (-127i16..=126)
            .map(|k| (f32::from(k) + 0.5) / step)
            .collect();
        beta.extend([below_half / step, -below_half / step]);
        beta
    };
    // One grid step of 1 (β is y itself) and of ½ (β · 0.5 is y exactly).
    for step in [1.0f32, 0.5] {
        let model = hand_built(vec![0.0; 256], ties(step), step);
        assert_identical("ties", &model);
    }
    // The ties on every other column, normalized values between them.
    let gamma = (0..256)
        .map(|j| if j % 2 == 0 { 0.0 } else { 0.75 })
        .collect();
    assert_identical("ties, live gamma", &hand_built(gamma, ties(1.0), 1.0));
}

#[test]
fn both_clamps_infinities_and_negative_zero() {
    let edges = [
        1000.0f32,
        -1000.0,
        127.5,
        -127.5,
        127.499_99,
        -127.499_99,
        126.5,
        -126.5,
        3e38,
        -3e38,
        f32::MAX,
        -0.0,
        -0.3,
        0.3,
    ];
    let beta: Vec<f32> = (0..256).map(|j| edges[j % edges.len()]).collect();
    // A scale of 10 takes ±3e38 and f32::MAX to ±∞.
    for scale in [1.0f32, 10.0] {
        assert_identical("clamps", &hand_built(vec![0.0; 256], beta.clone(), scale));
    }
    // −0.0 as the result of `(x − mean) · inv_std · γ + β` itself: a −0
    // product plus a −0 β, on a negative γ as well.
    let gamma = (0..256)
        .map(|j| if j % 3 == 0 { -0.0 } else { 0.0 })
        .collect();
    assert_identical("negative zero", &hand_built(gamma, vec![-0.0; 256], 3.0));
}

/// A model whose word rows are `rows` (each of one repeated value or a
/// listed pattern), over position and segment tables of `filler`.
fn table_rows(rows: &[Vec<f32>], filler: f32, scale: f32) -> IntBertModel {
    let mut rng = RngSource::seed_from_u64(17);
    let hidden = rows[0].len();
    let mut host = random_host(&mut rng, hidden, [rows.len(), 16, 2], scale);
    let word: Vec<f32> = rows.concat();
    host.word_embeddings = Arc::new(Tensor::from_vec(word, &[rows.len(), hidden]).expect("word"));
    host.position_embeddings = Arc::new(Tensor::full(&[16, hidden], filler));
    host.segment_embeddings = Arc::new(Tensor::full(&[2, hidden], filler));
    model(host, 16, 2)
}

#[test]
fn constant_rows_huge_rows_and_overflowing_sums() {
    for hidden in [9usize, 256] {
        let constant = |c: f32| vec![c; hidden];
        let alternating = |c: f32| {
            (0..hidden)
                .map(|j| if j % 2 == 0 { c } else { -c })
                .collect::<Vec<f32>>()
        };
        let mut spike = vec![0.0f32; hidden];
        spike[hidden / 2] = 1e30;
        let rows = vec![
            // var = 0 exactly: the sum of `hidden` copies is exact.
            constant(3.0),
            constant(-0.0),
            constant(0.0),
            // var tiny but not zero: the sum rounds.
            constant(0.1),
            constant(1e-30),
            constant(12_345.678),
            // Σ (x − mean)² overflows: inv_std = 0.
            constant(1e30),
            constant(-1e30),
            alternating(1e30),
            spike,
        ];
        // Position and segment rows of −0.0 keep an all −0.0 word row
        // all −0.0, and leave every other sum at its word value.
        assert_identical("constant and huge rows", &table_rows(&rows, -0.0, 40.0));

        // Sums past f32::MAX: an infinite mean, NaN differences, codes 0.
        let rows = vec![
            constant(3e38),
            constant(-3e38),
            alternating(3e38),
            constant(1.0),
        ];
        assert_identical("overflowing sums", &table_rows(&rows, 3e38, 40.0));
    }
}
