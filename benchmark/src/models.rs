//! The two benchmark models and their set-up: random float weights from a
//! fixed seed, four calibration passes, conversion with the paper's
//! `QuantConfig::fq_bert()` (w4/a8) and a saved v2 artifact.
//!
//! Neither the weights nor the calibration inputs depend on `--seed`: the
//! model is part of the system under test, the seed only drives its inputs.

use fqbert_autograd::Graph;
use fqbert_bert::{BertConfig, BertModel};
use fqbert_core::QatHook;
use fqbert_nlp::{Example, TaskKind, Tokenizer, Vocab};
use fqbert_quant::QuantConfig;
use fqbert_runtime::{BackendKind, Engine, EngineBuilder, ExecPolicy};
use fqbert_tensor::RngSource;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

/// Tokenizer length of both models (the paper's sequence length).
pub const MAX_LEN: usize = 128;
/// Words `w0…w994`; with the four specials the vocabulary has 999 entries.
pub const VOCAB_WORDS: usize = 995;
/// Classes of the (SST-2 shaped) classification head.
pub const NUM_CLASSES: usize = 2;
/// Id of the first real word (after `[PAD] [UNK] [CLS] [SEP]`).
pub const FIRST_WORD_ID: usize = 4;
const WEIGHT_SEED: u64 = 7;
const CALIBRATION_SEED: u64 = 11;
const CALIBRATION_PASSES: usize = 4;
const CALIBRATION_TOKENS: usize = 32;

/// Architecture of one benchmark model.
#[derive(Debug, Clone, Copy)]
pub struct ModelSpec {
    /// Routing and file name.
    pub name: &'static str,
    pub hidden: usize,
    pub layers: usize,
    pub heads: usize,
    pub intermediate: usize,
}

/// Four layers at head_dim 64, the paper's per-head attention shape; small
/// enough to convert in about two seconds.
pub const ENC4X256: ModelSpec = ModelSpec {
    name: "enc4x256",
    hidden: 256,
    layers: 4,
    heads: 4,
    intermediate: 1024,
};

/// One encoder layer at BERT-base width: the paper's 768×768 and 768×3072
/// projection shapes. Full BERT-base would spend the whole time budget on
/// conversion (~40 s, ~0.5 GB).
pub const WIDE768X1: ModelSpec = ModelSpec {
    name: "wide768x1",
    hidden: 768,
    layers: 1,
    heads: 12,
    intermediate: 3072,
};

/// The shared vocabulary.
pub fn vocab() -> Vocab {
    Vocab::from_tokens((0..VOCAB_WORDS).map(|i| format!("w{i}")))
}

/// The shared tokenizer (identical to the one stored in every artifact),
/// built once.
pub fn tokenizer() -> &'static Tokenizer {
    static TOKENIZER: OnceLock<Tokenizer> = OnceLock::new();
    TOKENIZER.get_or_init(|| Tokenizer::new(vocab(), MAX_LEN))
}

/// An encoded sequence of exactly `real_len` tokens (`[CLS]`, random words,
/// `[SEP]`) padded to [`MAX_LEN`].
pub fn random_example(rng: &mut RngSource, real_len: usize) -> Example {
    assert!((3..=MAX_LEN).contains(&real_len));
    let vocab_size = FIRST_WORD_ID + VOCAB_WORDS;
    let mut token_ids = Vec::with_capacity(MAX_LEN);
    token_ids.push(2);
    token_ids.extend((0..real_len - 2).map(|_| rng.usize_in(FIRST_WORD_ID, vocab_size)));
    token_ids.push(3);
    token_ids.resize(MAX_LEN, 0);
    let mut attention_mask = vec![1usize; real_len];
    attention_mask.resize(MAX_LEN, 0);
    Example {
        token_ids,
        segment_ids: vec![0; MAX_LEN],
        attention_mask,
        label: 0,
    }
}

/// Builder every engine in the benchmark starts from: integer backend,
/// serial execution.
pub fn engine_builder() -> EngineBuilder {
    EngineBuilder::new(TaskKind::Sst2)
        .backend(BackendKind::Int)
        .exec(ExecPolicy::serial())
}

/// A converted model: the float original, the in-memory integer engine
/// (the verification reference: it never touched the artifact) and the
/// saved artifact the system under test is loaded from.
pub struct Prepared {
    pub spec: ModelSpec,
    pub float: BertModel,
    pub reference: Engine,
    pub artifact: PathBuf,
    pub artifact_bytes: u64,
    pub convert_ns: f64,
    pub save_ns: f64,
}

/// Builds, calibrates, converts and saves `spec`. `tag` keeps artifact file
/// names of concurrent runs apart.
pub fn prepare(spec: ModelSpec, out_dir: &Path, tag: &str) -> Prepared {
    let vocab = vocab();
    let config = BertConfig {
        vocab_size: vocab.len(),
        hidden: spec.hidden,
        layers: spec.layers,
        heads: spec.heads,
        intermediate: spec.intermediate,
        max_len: MAX_LEN,
        type_vocab_size: 2,
        num_classes: NUM_CLASSES,
        layer_norm_eps: 1e-5,
    };
    let float = BertModel::new(config, WEIGHT_SEED);

    let mut rng = RngSource::seed_from_u64(CALIBRATION_SEED);
    let mut hook = QatHook::calibration_only(QuantConfig::fq_bert());
    for _ in 0..CALIBRATION_PASSES {
        let example = random_example(&mut rng, CALIBRATION_TOKENS);
        let mut graph = Graph::new();
        let bound = float.bind(&mut graph);
        bound
            .forward(&mut graph, &example, &mut hook)
            .expect("calibration pass");
    }

    let start = Instant::now();
    let reference = engine_builder()
        .vocab(vocab, MAX_LEN)
        .quant(QuantConfig::fq_bert())
        .build_with_hook(&float, &hook)
        .expect("convert");
    let convert_ns = start.elapsed().as_nanos() as f64;

    std::fs::create_dir_all(out_dir).expect("create output directory");
    let artifact = out_dir.join(format!("{}_{tag}.fqbt", spec.name));
    let start = Instant::now();
    reference.save(&artifact).expect("save artifact");
    let save_ns = start.elapsed().as_nanos() as f64;
    let artifact_bytes = std::fs::metadata(&artifact)
        .expect("artifact written")
        .len();

    Prepared {
        spec,
        float,
        reference,
        artifact,
        artifact_bytes,
        convert_ns,
        save_ns,
    }
}

impl Drop for Prepared {
    fn drop(&mut self) {
        // The artifact is scratch: loaders hold its bytes, not the file.
        let _ = std::fs::remove_file(&self.artifact);
    }
}
