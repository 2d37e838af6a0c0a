//! End-to-end integration test of the algorithmic pipeline: synthetic data →
//! float training → QAT fine-tuning → integer conversion → integer-only
//! evaluation, spanning the nlp, bert, quant, autograd and fqbert-core crates.

use fqbert_bert::{BertConfig, BertModel, NoopHook, Trainer, TrainerConfig};
use fqbert_core::{convert, evaluate_int_model, CompressionReport, QatHook};
use fqbert_nlp::{Sst2Config, Sst2Generator};
use fqbert_quant::QuantConfig;
use fqbert_tensor::ops::argmax_slice;
use fqbert_tensor::GemmScratch;

fn small_trainer(epochs: usize, lr: f32) -> Trainer {
    Trainer::new(TrainerConfig {
        epochs,
        batch_size: 8,
        learning_rate: lr,
        seed: 1,
        max_train_examples: None,
    })
}

#[test]
fn full_fq_bert_pipeline_preserves_accuracy() {
    // A small but non-trivial task and model, sized so the whole pipeline
    // runs in a few seconds in release mode.
    let dataset = Sst2Generator::new(Sst2Config {
        train_size: 300,
        dev_size: 80,
        sentiment_words: 8,
        neutral_words: 12,
        min_words: 3,
        max_words: 7,
        negation_prob: 0.1,
        label_noise: 0.0,
        max_len: 14,
    })
    .generate(3);

    let mut model = BertModel::new(
        BertConfig {
            hidden: 32,
            layers: 2,
            heads: 2,
            intermediate: 64,
            ..BertConfig::tiny(dataset.vocab_size, dataset.max_len, dataset.num_classes)
        },
        5,
    );

    // 1. Float training must clearly beat chance.
    small_trainer(5, 3e-3)
        .train(&mut model, &dataset, &mut NoopHook)
        .expect("float training");
    let float_acc = Trainer::evaluate_float(&model, &dataset.dev)
        .expect("float evaluation")
        .accuracy;
    assert!(float_acc > 70.0, "float accuracy too low: {float_acc}%");

    // 2. QAT fine-tuning with the paper's w4/a8 configuration.
    let quant = QuantConfig::fq_bert();
    let mut hook = QatHook::new(quant);
    small_trainer(2, 1e-3)
        .train(&mut model, &dataset, &mut hook)
        .expect("QAT fine-tuning");

    // 3. Conversion to the integer-only engine and evaluation.
    let int_model = convert(&model, &hook).expect("conversion");
    let int_acc = evaluate_int_model(&int_model, &dataset.dev)
        .expect("integer evaluation")
        .accuracy;
    // Known limitation (see DESIGN.md "Known gaps"): the integer engine
    // shares one activation scale across Q/K/V, which costs several points on
    // trained models whose value projections have a much smaller range than
    // their query/key projections. The engine must still stay clearly above
    // chance and within a band of the float model.
    assert!(
        int_acc >= float_acc - 35.0,
        "integer-engine accuracy {int_acc}% collapsed relative to float {float_acc}%"
    );
    assert!(
        int_acc > 55.0,
        "integer-engine accuracy too low: {int_acc}%"
    );

    // 4. Compression accounting: 4-bit encoder weights give close to 8x.
    let report = CompressionReport::for_model(&model, &quant);
    let ratio = report.encoder_ratio(&model);
    assert!(
        (6.5..8.0).contains(&ratio),
        "encoder compression ratio {ratio} outside the expected band"
    );
}

#[test]
fn int_engine_and_float_model_agree_on_most_predictions() {
    let dataset = Sst2Generator::new(Sst2Config::tiny()).generate(9);
    let mut model = BertModel::new(
        BertConfig {
            hidden: 32,
            layers: 1,
            heads: 2,
            intermediate: 64,
            ..BertConfig::tiny(dataset.vocab_size, dataset.max_len, dataset.num_classes)
        },
        2,
    );
    small_trainer(2, 3e-3)
        .train(&mut model, &dataset, &mut NoopHook)
        .expect("float training");

    // Calibrate (8-bit weights for a near-lossless comparison).
    let calibration = &dataset.dev[..dataset.dev.len().min(16)];
    let hook =
        QatHook::calibrated(&model, QuantConfig::w8a8(), calibration).expect("calibration forward");
    let int_model = convert(&model, &hook).expect("conversion");

    let mut agree = 0usize;
    let sample = &dataset.dev[..dataset.dev.len().min(40)];
    let int_logits = int_model
        .logits_batch_with_scratch(sample, &mut GemmScratch::new())
        .expect("int logits");
    for (example, int_logits) in sample.iter().zip(&int_logits) {
        let mut graph = fqbert_autograd::Graph::new();
        let bound = model.bind(&mut graph);
        let logits = bound
            .forward(&mut graph, example, &mut NoopHook)
            .expect("forward");
        let float_pred = graph.value(logits).argmax().expect("argmax");
        if float_pred == argmax_slice(int_logits) {
            agree += 1;
        }
    }
    // See DESIGN.md "Known gaps": with the shared Q/K/V scale the 8-bit
    // engine tracks the float model on a clear majority of inputs rather
    // than nearly all of them.
    assert!(
        agree as f64 >= sample.len() as f64 * 0.6,
        "8-bit integer engine agrees on only {agree}/{} predictions",
        sample.len()
    );
}
