//! Property tests of the artifact load path: a loaded model must be
//! bit-identical to the converter-built model that produced its bytes at
//! every weight bit-width, every loaded projection must agree with the
//! naive reference, dedup must actually share the embedding code tables
//! and the float head across variants, residency must grow by exactly the panels a forward pass
//! builds, and `save ∘ load ∘ save` must be byte-identical.

use fqbert_bert::{BertConfig, BertModel};
use fqbert_core::{convert_mixed, IntBertModel, QatHook};
use fqbert_nlp::{Example, TaskKind, Tokenizer, Vocab};
use fqbert_quant::{LayerBits, QuantConfig};
use fqbert_runtime::{ModelArtifact, TensorCache};
use fqbert_tensor::{GemmScratch, IntTensor, PackedWeights};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

const MAX_LEN: usize = 12;

/// Logits of `examples`, on a scratch of the call's own.
fn logits(model: &IntBertModel, examples: &[Example]) -> Vec<Vec<f32>> {
    model
        .logits_batch_with_scratch(examples, &mut GemmScratch::new())
        .expect("logits")
}

/// Builds a calibrated quantized artifact with per-layer bit-widths from
/// one shared float model, so every variant carries identical tables
/// (embedding codes, float classifier head) — exactly the multi-variant
/// serving scenario the dedup cache exists for.
fn build_artifact(bits: &[LayerBits]) -> ModelArtifact {
    let config = BertConfig::tiny(28, MAX_LEN, 2);
    let words: Vec<String> = (0..config.vocab_size - 4)
        .map(|i| format!("w{i}"))
        .collect();
    let vocab = Vocab::from_tokens(&words);
    let model = BertModel::new(config, 23);
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
    let hook = QatHook::calibrated(&model, QuantConfig::fq_bert(), &calibration)
        .expect("calibration forward");
    let int_model = convert_mixed(&model, &hook, bits).expect("conversion");
    ModelArtifact::new(TaskKind::Sst2, int_model, Tokenizer::new(vocab, MAX_LEN))
}

/// Converter-built artifacts and their byte streams for w2, w4, w8 and a
/// mixed-precision stack, built once from one float model and shared
/// across cases.
fn artifacts() -> &'static Vec<(&'static str, ModelArtifact, Vec<u8>)> {
    static CELL: OnceLock<Vec<(&'static str, ModelArtifact, Vec<u8>)>> = OnceLock::new();
    CELL.get_or_init(|| {
        let layers = BertConfig::tiny(28, MAX_LEN, 2).layers;
        let mut mixed = vec![LayerBits::uniform(4); layers];
        mixed[0] = LayerBits {
            q: 8,
            k: 2,
            v: 4,
            attn_output: 8,
            ffn1: 2,
            ffn2: 8,
        };
        [
            ("w2", vec![LayerBits::uniform(2); layers]),
            ("w4", vec![LayerBits::uniform(4); layers]),
            ("w8", vec![LayerBits::uniform(8); layers]),
            ("mixed", mixed),
        ]
        .into_iter()
        .map(|(name, bits)| {
            let built = build_artifact(&bits);
            let bytes = built.to_bytes();
            (name, built, bytes)
        })
        .collect()
    })
}

/// Loads `bytes` through the shared-buffer decoder with a fresh cache.
fn load(bytes: &[u8]) -> ModelArtifact {
    let shared: Arc<[u8]> = bytes.into();
    ModelArtifact::from_shared_bytes(&shared, &mut TensorCache::new())
        .expect("load")
        .0
}

/// The six projections of every layer of `model`.
fn projections(model: &fqbert_core::IntBertModel) -> impl Iterator<Item = &fqbert_core::IntLinear> {
    model
        .layers
        .iter()
        .flat_map(|l| [&l.query, &l.key, &l.value, &l.attn_output, &l.ffn1, &l.ffn2])
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
        1..5,
    )
}

proptest! {
    // The heart of the load contract: logits from a loaded model equal
    // those of the converter-built model that produced the bytes, bit for
    // bit, at every supported bit-width and for a mixed-precision stack.
    // Both sides build their panels with the same packer, so the packer
    // itself is pinned separately: every projection of every *loaded*
    // layer must equal `forward_naive` — a plain `matmul_i32` over
    // `unpack_i4`-decoded codes that shares no code with the panel shuffle.
    #[test]
    fn loaded_model_is_bit_identical_to_converter_built(
        examples in batch_strategy(),
        rows in 1usize..4,
        input_seed in 0u64..u64::MAX,
    ) {
        for (name, built, bytes) in artifacts() {
            let loaded = load(bytes);
            let a = logits(&built.model, &examples);
            let b = logits(&loaded.model, &examples);
            prop_assert_eq!(a.len(), b.len());
            for (la, lb) in a.iter().zip(b.iter()) {
                for (x, y) in la.iter().zip(lb.iter()) {
                    prop_assert_eq!(
                        x.to_bits(), y.to_bits(),
                        "{} loaded logits diverge from the converter-built model", name
                    );
                }
            }
            let mut s = input_seed;
            for linear in projections(&loaded.model) {
                let codes: Vec<i8> = (0..rows * linear.in_features())
                    .map(|_| {
                        s = s
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (s >> 56) as i8
                    })
                    .collect();
                let x = IntTensor::from_vec(codes, &[rows, linear.in_features()]).expect("input");
                prop_assert_eq!(
                    linear
                        .forward_with_scratch(&x, &mut GemmScratch::new())
                        .expect("blocked"),
                    linear.forward_naive(&x).expect("naive"),
                    "{} w{} projection diverges from the naive reference",
                    name, linear.weight_bits()
                );
            }
        }
    }
}

#[test]
fn variants_of_one_task_share_their_float_tensors() {
    let all = artifacts();
    let w4: Arc<[u8]> = all[1].2.clone().into();
    let w8: Arc<[u8]> = all[2].2.clone().into();
    let mut cache = TensorCache::new();
    let (first, stats_first) = ModelArtifact::from_shared_bytes(&w4, &mut cache).expect("w4");
    assert_eq!(stats_first.shared_tensors, 0);
    let (second, stats_second) = ModelArtifact::from_shared_bytes(&w8, &mut cache).expect("w8");
    // Both variants came from one float model: the two embedding code
    // tables and the two float head tensors dedup onto the copies the w4
    // load interned.
    assert_eq!(stats_second.shared_tensors, 4);
    let (a, b) = (&first.model.host, &second.model.host);
    let tables = [&a.embedding.word, &a.embedding.position_segment]
        .into_iter()
        .zip([&b.embedding.word, &b.embedding.position_segment]);
    let head = [&a.classifier_weight, &a.classifier_bias]
        .into_iter()
        .zip([&b.classifier_weight, &b.classifier_bias]);
    let mut bytes = 0;
    for (x, y) in tables {
        assert!(Arc::ptr_eq(x, y), "variants must share one code table");
        bytes += x.numel();
    }
    for (x, y) in head {
        assert!(Arc::ptr_eq(x, y), "variants must share one head tensor");
        bytes += 4 * x.numel();
    }
    assert_eq!(stats_second.shared_bytes, bytes);
    // What the sharing buys: per-model sums count the interned tensors
    // twice, so the pair's true footprint is the sum minus the shared
    // bytes, and it stays under 0.8x of two independent loads.
    let independent = load(&w4).model.resident_bytes() + load(&w8).model.resident_bytes();
    let pair =
        first.model.resident_bytes() + second.model.resident_bytes() - stats_second.shared_bytes;
    assert!(
        pair * 5 < independent * 4,
        "dedup pair ({pair} B) must reside under 0.8x of independent loads ({independent} B)"
    );
}

#[test]
fn residency_stays_lazy_until_first_forward() {
    let (_, _, bytes) = &artifacts()[1]; // w4
    let loaded = load(bytes);
    let before = loaded.model.resident_bytes();
    let examples = vec![Example {
        token_ids: vec![2, 7, 11, 3],
        segment_ids: vec![0; 4],
        attention_mask: vec![1; 4],
        label: 0,
    }];
    logits(&loaded.model, &examples);
    // The forward pass builds every projection's GEMM panels and nothing
    // else — there is no decoded code copy to materialize — so residency
    // grows by exactly the panels' bytes.
    let panels: usize = projections(&loaded.model)
        .map(|l| {
            let [k, n] = l.weight_dims();
            PackedWeights::from_v2_nibble_bytes(l.weight_bytes(), k, n)
                .expect("w4 panels")
                .resident_bytes()
        })
        .sum();
    assert!(panels > 0);
    assert_eq!(loaded.model.resident_bytes(), before + panels);
    // A second forward builds nothing more.
    logits(&loaded.model, &examples);
    assert_eq!(loaded.model.resident_bytes(), before + panels);
}

#[test]
fn zero_copy_loaded_model_saves_identical_bytes() {
    // The writer copies each linear's encoded weight bytes verbatim —
    // whether they sit in a converted layer's private buffer or in a loaded
    // file's shared one — so `save → load → save` moves no byte at any
    // width, starting from the converter-built model (`bytes` is its save)
    // and, one more turn, from the loaded one.
    for (name, built, bytes) in artifacts() {
        let loaded = load(bytes);
        assert_eq!(built.model, loaded.model, "{name}");
        let resaved = loaded.to_bytes();
        assert_eq!(&resaved, bytes, "{name}: converter-built round trip");
        assert_eq!(
            load(&resaved).to_bytes(),
            resaved,
            "{name}: loaded round trip"
        );
    }
}

#[test]
fn load_reads_files_and_clones_share_state() {
    let (_, _, bytes) = &artifacts()[0]; // w2
    let dir = std::env::temp_dir().join("fqbert_lazy_load_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("w2.fqbt");
    std::fs::write(&path, bytes).expect("write artifact");
    let artifact = ModelArtifact::load(&path).expect("load");
    // Clones share the lazily built panels: a clone taken before the first
    // forward still sees the original's panels.
    let clone = artifact.model.clone();
    let examples = vec![Example {
        token_ids: vec![2, 5, 3],
        segment_ids: vec![0; 3],
        attention_mask: vec![1; 3],
        label: 0,
    }];
    logits(&artifact.model, &examples);
    assert_eq!(
        clone.resident_bytes(),
        artifact.model.resident_bytes(),
        "clones must share panel storage"
    );
    std::fs::remove_file(&path).ok();
}
