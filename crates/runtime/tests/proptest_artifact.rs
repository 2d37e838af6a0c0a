//! Property tests of the model-artifact format: `save → load` must
//! reproduce bit-identical logits, and any tampering must be rejected.

use fqbert_bert::{BertConfig, BertModel};
use fqbert_core::{convert, CompressionReport, IntBertModel, QatHook};
use fqbert_nlp::{Example, TaskKind, Tokenizer, Vocab};
use fqbert_quant::QuantConfig;
use fqbert_runtime::{EncodedBatch, InferenceBackend, IntBackend, ModelArtifact};
use fqbert_tensor::GemmScratch;
use proptest::prelude::*;
use std::sync::OnceLock;

const MAX_LEN: usize = 12;

/// Logits of `examples`, on a scratch of the call's own.
fn logits(model: &IntBertModel, examples: &[Example]) -> Vec<Vec<f32>> {
    model
        .logits_batch_with_scratch(examples, &mut GemmScratch::new())
        .expect("logits")
}

/// Builds a calibrated quantized artifact for an arbitrary architecture and
/// quantization configuration.
fn build_artifact(quant: QuantConfig, config: BertConfig, seed: u64) -> ModelArtifact {
    let words: Vec<String> = (0..config.vocab_size - 4)
        .map(|i| format!("w{i}"))
        .collect();
    let vocab = Vocab::from_tokens(&words);
    assert_eq!(vocab.len(), config.vocab_size);
    let model = BertModel::new(config, seed);
    let calibration: Vec<Example> = (0..8usize)
        .map(|i| {
            let tokens = vec![2, 4 + i, 9 + (i * 3) % 12, 6, 3];
            Example {
                segment_ids: vec![0; tokens.len()],
                attention_mask: vec![1; tokens.len()],
                token_ids: tokens,
                label: 0,
            }
        })
        .collect();
    let hook = QatHook::calibrated(&model, quant, &calibration).expect("calibration forward");
    let int_model = convert(&model, &hook).expect("conversion");
    ModelArtifact::new(TaskKind::Sst2, int_model, Tokenizer::new(vocab, MAX_LEN))
}

/// A calibrated w4/a8 quantized model, built once and shared across cases.
fn artifact() -> &'static (ModelArtifact, Vec<u8>) {
    static CELL: OnceLock<(ModelArtifact, Vec<u8>)> = OnceLock::new();
    CELL.get_or_init(|| {
        let artifact = build_artifact(QuantConfig::fq_bert(), BertConfig::tiny(28, MAX_LEN, 2), 11);
        let bytes = artifact.to_bytes();
        (artifact, bytes)
    })
}

/// A random batch of encoded examples valid for the test model.
fn batch_strategy() -> impl Strategy<Value = Vec<Example>> {
    proptest::collection::vec(
        (1usize..=MAX_LEN - 2, 0u64..u64::MAX).prop_map(|(len, seed)| {
            let mut ids = vec![2usize]; // [CLS]
            let mut s = seed;
            for _ in 0..len {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ids.push(4 + (s >> 33) as usize % 24);
            }
            ids.push(3); // [SEP]
            Example {
                segment_ids: vec![0; ids.len()],
                attention_mask: vec![1; ids.len()],
                token_ids: ids,
                label: 0,
            }
        }),
        1..6,
    )
}

proptest! {
    #[test]
    fn reloaded_model_is_bit_identical(examples in batch_strategy()) {
        let (original, bytes) = artifact();
        let reloaded = ModelArtifact::from_bytes(bytes).expect("round trip");
        let a = logits(&original.model, &examples);
        let b = logits(&reloaded.model, &examples);
        prop_assert_eq!(a.len(), b.len());
        for (la, lb) in a.iter().zip(b.iter()) {
            for (x, y) in la.iter().zip(lb.iter()) {
                // Bitwise, not approximate: the artifact must reconstruct
                // the exact integer engine.
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // The backends built from both models agree prediction-for-prediction.
        let batch = EncodedBatch::from_examples(examples);
        let pa = IntBackend::new(original.model.clone()).classify_batch(&batch).unwrap();
        let pb = IntBackend::new(reloaded.model.clone()).classify_batch(&batch).unwrap();
        prop_assert_eq!(pa.predictions, pb.predictions);
    }

    #[test]
    fn corrupted_payload_is_rejected(offset_seed in 0u64..u64::MAX, flip in 1u8..=255) {
        let (_, bytes) = artifact();
        // Corrupt one payload byte (past magic+version, before the stored
        // CRC so the mismatch is detectable).
        let lo = 8usize;
        let hi = bytes.len() - 4;
        let offset = lo + (offset_seed as usize) % (hi - lo);
        let mut corrupted = bytes.clone();
        corrupted[offset] ^= flip;
        let err = ModelArtifact::from_bytes(&corrupted).err();
        prop_assert!(err.is_some(), "corruption at offset {} went undetected", offset);
    }
}

#[test]
fn version_mismatch_is_rejected_with_versions_named() {
    let (_, bytes) = artifact();
    // A future version (v4 for the current v3 writer), the retired
    // versions 2 (float embedding tables) and 1 and the never-issued
    // version 0 must all trip the gate; the version word sits outside the
    // checksummed payload, so this specifically exercises the version gate
    // rather than the CRC.
    assert_eq!(fqbert_runtime::artifact::VERSION, 3);
    for bad_version in [fqbert_runtime::artifact::VERSION + 1, 2, 1, 0] {
        let mut wrong = bytes.clone();
        wrong[4..8].copy_from_slice(&bad_version.to_le_bytes());
        let msg = ModelArtifact::from_bytes(&wrong)
            .expect_err("unsupported version must be rejected")
            .to_string();
        assert!(
            msg.contains(&format!("version {bad_version}")),
            "unhelpful error: {msg}"
        );
    }
}

#[test]
fn compression_report_counts_the_embedding_tables_the_artifact_ships() {
    let (original, bytes) = artifact();
    let model = BertModel::new(original.model.config().clone(), 11);
    let report = CompressionReport::for_model(&model, &QuantConfig::fq_bert());
    let embedding = &original.model.host.embedding;
    let tables = [&embedding.word, &embedding.position_segment];
    let mut shipped = 0;
    for (scale, table) in embedding.table_scales().into_iter().zip(tables) {
        // The section as the writer encodes it: the scale, the rank and
        // dims (shape, fixed by the config), then one byte per code.
        let mut section = scale.to_le_bytes().to_vec();
        section.extend_from_slice(&(table.dims().len() as u32).to_le_bytes());
        for &d in table.dims() {
            section.extend_from_slice(&(d as u64).to_le_bytes());
        }
        section.extend(table.as_slice().iter().map(|&c| c as u8));
        assert!(bytes.windows(section.len()).any(|w| w == section));
        shipped += 4 + table.numel();
    }
    assert_eq!(report.embedding_bytes, shipped as u64);
}

#[test]
fn w4_artifacts_are_at_most_55_percent_of_the_unpacked_encoding() {
    // An encoder-dominated architecture (the regime real checkpoints live
    // in — BERT-base encoder weights dwarf the embedding tables at this
    // vocabulary size). The tiny shared fixture keeps the proptests fast
    // but its embedding tables blunt the ratio; this one isolates it.
    let artifact = build_artifact(
        QuantConfig::fq_bert(),
        BertConfig {
            vocab_size: 28,
            hidden: 128,
            layers: 2,
            heads: 2,
            intermediate: 512,
            max_len: MAX_LEN,
            type_vocab_size: 2,
            num_classes: 2,
            layer_norm_eps: 1e-5,
        },
        13,
    );
    let packed = artifact.to_bytes();
    // Storing one byte per code would cost every ≤4-bit linear
    // another ⌊k·n/2⌋ bytes on top of its nibble-packed encoding.
    let unpacked_extra: usize = artifact
        .model
        .layers
        .iter()
        .flat_map(|l| [&l.query, &l.key, &l.value, &l.attn_output, &l.ffn1, &l.ffn2])
        .filter(|linear| linear.weight_bits() <= 4)
        .map(|linear| linear.in_features() * linear.out_features() / 2)
        .sum();
    assert!(unpacked_extra > 0);
    let unpacked = packed.len() + unpacked_extra;
    assert!(
        (packed.len() as f64) <= 0.55 * unpacked as f64,
        "w4 artifact ({} bytes) must be at most 55% of its unpacked encoding ({unpacked} bytes)",
        packed.len(),
    );
    // The packed encoding still reconstructs the model bit-identically.
    let reloaded = ModelArtifact::from_bytes(&packed).expect("packed round trip");
    let examples = vec![Example {
        token_ids: vec![2, 7, 11, 6, 3],
        segment_ids: vec![0; 5],
        attention_mask: vec![1; 5],
        label: 0,
    }];
    let a = logits(&artifact.model, &examples);
    let b = logits(&reloaded.model, &examples);
    for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn w8_artifacts_round_trip_through_the_unpacked_path() {
    // 8-bit weights stay one code per byte; the round trip must be just as
    // bit-exact as the packed 4-bit path.
    let artifact = build_artifact(QuantConfig::w8a8(), BertConfig::tiny(28, MAX_LEN, 2), 17);
    let reloaded = ModelArtifact::from_bytes(&artifact.to_bytes()).expect("round trip");
    assert_eq!(reloaded.model.weight_bits(), 8);
    let examples = vec![Example {
        token_ids: vec![2, 4, 8, 3],
        segment_ids: vec![0; 4],
        attention_mask: vec![1; 4],
        label: 0,
    }];
    let a = logits(&artifact.model, &examples);
    let b = logits(&reloaded.model, &examples);
    for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn bad_magic_and_truncation_are_rejected() {
    let (_, bytes) = artifact();
    let mut wrong = bytes.clone();
    wrong[0] = b'X';
    assert!(ModelArtifact::from_bytes(&wrong).is_err());
    assert!(ModelArtifact::from_bytes(&bytes[..bytes.len() / 2]).is_err());
    assert!(ModelArtifact::from_bytes(&[]).is_err());
}

#[test]
fn a_crc_valid_artifact_with_an_invalid_add_ln_scale_is_refused_at_load() {
    use fqbert_core::int_model::{IntEncoderLayer, LayerScales};
    let (original, bytes) = artifact();
    let layer = &original.model.layers[0];
    let scales = layer.scales();
    let stored = [
        scales.input,
        scales.q,
        scales.k,
        scales.v,
        scales.scores,
        scales.attn_output,
        scales.layer_norm,
        scales.ffn_hidden,
        scales.ffn_output,
    ];
    // Layer 0's nine scales sit in the file as consecutive `f32`s.
    let block: Vec<u8> = stored.iter().flat_map(|s| s.to_le_bytes()).collect();
    let at = bytes
        .windows(block.len())
        .position(|w| w == block)
        .expect("layer 0 scale block");
    // The four scales only `Add & LN` computes with (index in the block),
    // then the four no fold looks at on its own: `ffn_hidden`, which the
    // GELU table is tabulated from (a zero or non-finite one used to load
    // and serve an all-zero FFN hidden activation), `v`, which nothing
    // computes with, and `q` and `k`, which reach the score requantizer
    // only as a product.
    type Patch = fn(&mut LayerScales, f32);
    let checked_scales: [(usize, Patch); 8] = [
        (0, |s, v| s.input = v),
        (5, |s, v| s.attn_output = v),
        (6, |s, v| s.layer_norm = v),
        (8, |s, v| s.ffn_output = v),
        (7, |s, v| s.ffn_hidden = v),
        (3, |s, v| s.v = v),
        (1, |s, v| s.q = v),
        (2, |s, v| s.k = v),
    ];
    let mut cases: Vec<(Vec<(usize, Patch)>, f32)> = Vec::new();
    for field in checked_scales {
        for bad in [0.0f32, -1.0, f32::NAN, f32::INFINITY] {
            cases.push((vec![field], bad));
        }
    }
    // Two negative ones cancel in that product: the layer used to load.
    cases.push((checked_scales[6..].to_vec(), -1.0));
    let payload_end = bytes.len() - 4;
    for (fields, bad) in cases {
        let index: Vec<usize> = fields.iter().map(|&(index, _)| index).collect();
        let mut hostile = bytes.clone();
        for &i in &index {
            hostile[at + 4 * i..at + 4 * i + 4].copy_from_slice(&bad.to_le_bytes());
        }
        let crc = fqbert_runtime::artifact::crc32(&hostile[8..payload_end]);
        hostile[payload_end..].copy_from_slice(&crc.to_le_bytes());
        let msg = ModelArtifact::from_bytes(&hostile)
            .err()
            .unwrap_or_else(|| panic!("scales {index:?} = {bad} loaded"))
            .to_string();
        assert!(
            msg.contains("invalid scale"),
            "scales {index:?} = {bad}: {msg}"
        );

        let mut scales = scales;
        for (_, patch) in &fields {
            patch(&mut scales, bad);
        }
        let assembled = IntEncoderLayer::from_quantized_parts(
            layer.query.clone(),
            layer.key.clone(),
            layer.value.clone(),
            layer.attn_output.clone(),
            layer.ffn1.clone(),
            layer.ffn2.clone(),
            layer.heads(),
            layer.query.out_features() / layer.heads(),
            &scales,
            layer.attn_layer_norm().clone(),
            layer.ffn_layer_norm().clone(),
        );
        let msg = assembled
            .err()
            .unwrap_or_else(|| panic!("scales {index:?} = {bad} assembled"))
            .to_string();
        assert!(
            msg.contains("invalid scale"),
            "scales {index:?} = {bad}: {msg}"
        );
    }
}

/// `bytes` with the `f32` at `at` replaced by `value` and the CRC
/// recomputed, so only a check of the value itself can refuse it.
fn patched(bytes: &[u8], at: usize, value: f32) -> Vec<u8> {
    let mut hostile = bytes.to_vec();
    hostile[at..at + 4].copy_from_slice(&value.to_le_bytes());
    let payload_end = hostile.len() - 4;
    let crc = fqbert_runtime::artifact::crc32(&hostile[8..payload_end]);
    hostile[payload_end..].copy_from_slice(&crc.to_le_bytes());
    hostile
}

fn assert_refused(hostile: &[u8], name: &str, what: &str) {
    let msg = ModelArtifact::from_bytes(hostile)
        .err()
        .unwrap_or_else(|| panic!("{name} = {what} loaded"))
        .to_string();
    assert!(msg.contains(name), "{name} = {what}: {msg}");
}

#[test]
fn a_crc_valid_artifact_with_a_non_finite_host_value_is_refused_at_load() {
    let (original, bytes) = artifact();
    let host = &original.model.host;
    let head = [
        ("classifier weight", &host.classifier_weight),
        ("classifier bias", &host.classifier_bias),
    ];
    for (name, tensor) in head {
        // The tensor as the writer encodes it: rank, dims, then values.
        let mut block = (tensor.dims().len() as u32).to_le_bytes().to_vec();
        for &d in tensor.dims() {
            block.extend_from_slice(&(d as u64).to_le_bytes());
        }
        let header = block.len();
        block.extend(tensor.as_slice().iter().flat_map(|v| v.to_le_bytes()));
        let at = bytes
            .windows(block.len())
            .position(|w| w == block)
            .unwrap_or_else(|| panic!("{name} in the file"))
            + header;
        for element in [0, tensor.numel() - 1] {
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let hostile = patched(bytes, at + 4 * element, bad);
                assert_refused(&hostile, name, &format!("{bad} at {element}"));
            }
        }
    }

    // The payload opens with the task tag and the config's eight `u64`s;
    // the config's `eps`, the embedding output scale and the weight width
    // follow, then the word table (its scale, rank, two dims, one byte per
    // code) and the position×segment table's scale.
    let config = original.model.config();
    let eps_at = 8 + 1 + 8 * 8;
    let scale_at = eps_at + 4;
    let word_scale_at = scale_at + 8;
    let position_segment_scale_at = word_scale_at + 4 + 4 + 16 + host.embedding.word.numel();
    let [word_scale, position_segment_scale] = host.embedding.table_scales();
    for (at, value) in [
        (eps_at, config.layer_norm_eps),
        (scale_at, original.model.embedding_out_scale()),
        (word_scale_at, word_scale),
        (position_segment_scale_at, position_segment_scale),
    ] {
        assert_eq!(bytes[at..at + 4], value.to_le_bytes());
    }
    for (name, at) in [
        ("layer norm eps", eps_at),
        ("embedding output scale", scale_at),
        ("word code scale", word_scale_at),
        ("position x segment code scale", position_segment_scale_at),
    ] {
        for bad in [
            0.0f32,
            -0.0,
            -1.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ] {
            assert_refused(&patched(bytes, at, bad), name, &bad.to_string());
        }
    }
}

#[test]
fn file_round_trip_via_engine() {
    use fqbert_runtime::{BackendKind, EngineBuilder};
    let (original, _) = artifact();
    let dir = std::env::temp_dir().join("fqbert_runtime_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("roundtrip.fqbt");
    original.save(&path).expect("save");
    let engine = EngineBuilder::new(TaskKind::Sst2)
        .backend(BackendKind::Int)
        .load(&path)
        .expect("load");
    assert_eq!(engine.task(), TaskKind::Sst2);
    assert_eq!(engine.backend().name(), "int");
    let out = engine
        .classify_texts(&["w0 w1 w2", "w3"])
        .expect("classify");
    assert_eq!(out.len(), 2);
    std::fs::remove_file(&path).ok();
}
