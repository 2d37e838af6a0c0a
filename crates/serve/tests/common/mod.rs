//! Shared helpers for the serve tests: a small calibrated integer engine
//! built without training (deterministic logits are all the queue and
//! protocol tests need).

use fqbert_bert::{BertConfig, BertModel};
use fqbert_core::QatHook;
use fqbert_nlp::{Example, TaskKind, Vocab};
use fqbert_quant::QuantConfig;
use fqbert_runtime::{BackendKind, Engine, EngineBuilder};
use std::sync::Arc;

pub const MAX_LEN: usize = 16;

/// A deterministic sequence of valid token ids.
pub fn example(i: usize) -> Example {
    let len = 4 + i % (MAX_LEN - 6);
    let mut token_ids = vec![2usize];
    token_ids.extend((0..len).map(|d| 4 + (i * 7 + d * 3) % 40));
    token_ids.push(3);
    Example {
        segment_ids: vec![0; token_ids.len()],
        attention_mask: vec![1; token_ids.len()],
        token_ids,
        label: 0,
    }
}

/// Builds a calibrated engine over an untrained tiny model.
pub fn engine(kind: BackendKind) -> Arc<Engine> {
    engine_with_quant(kind, QuantConfig::fq_bert())
}

/// As [`engine`], with an explicit quantization profile (e.g.
/// [`QuantConfig::w8a8`] for a second bit-width of the same task).
pub fn engine_with_quant(kind: BackendKind, quant: QuantConfig) -> Arc<Engine> {
    engine_for_task(TaskKind::Sst2, kind, quant)
}

/// As [`engine_with_quant`], for any task: the classifier head gets the
/// task's class count (three for the paper's second task, MNLI).
pub fn engine_for_task(task: TaskKind, kind: BackendKind, quant: QuantConfig) -> Arc<Engine> {
    let words: Vec<String> = (0..40).map(|i| format!("w{i}")).collect();
    let vocab = Vocab::from_tokens(&words);
    let model = BertModel::new(
        BertConfig::tiny(vocab.len(), MAX_LEN, task.num_classes()),
        5,
    );
    let calibration: Vec<Example> = (0..6).map(example).collect();
    let hook = QatHook::calibrated(&model, quant, &calibration).expect("calibration");
    Arc::new(
        EngineBuilder::new(task)
            .vocab(vocab, MAX_LEN)
            .backend(kind)
            .batch_size(64)
            .build_with_hook(&model, &hook)
            .expect("engine"),
    )
}
