//! Integration tests of the bit-width search: seeded reproducibility, the
//! beats-uniform-w8 guarantee, and artifact round-trips of searched models.

use fqbert_accel::AcceleratorConfig;
use fqbert_autotune::{search, Autotuner, BitConfig, SearchSettings};
use fqbert_bert::{BertConfig, BertModel};
use fqbert_core::QatHook;
use fqbert_nlp::{Example, TaskKind, Tokenizer, Vocab};
use fqbert_quant::QuantConfig;
use fqbert_runtime::{BackendKind, EngineBuilder, ModelArtifact};
use fqbert_tensor::GemmScratch;
use std::sync::Arc;

const MAX_LEN: usize = 12;

fn example(i: usize) -> Example {
    let tokens = vec![2, 4 + i % 10, 5 + (i * 3) % 10, 7 + (i * 5) % 9, 3];
    Example {
        segment_ids: vec![0; tokens.len()],
        attention_mask: vec![1; tokens.len()],
        token_ids: tokens,
        label: i % 2,
    }
}

/// A tiny calibrated setup: untrained model (accuracy is meaningless but
/// deterministic, which is all these tests need) plus a dev set.
fn tuner(seed: u64) -> Autotuner {
    let model = BertModel::new(BertConfig::tiny(30, MAX_LEN, 2), seed);
    let examples: Vec<Example> = (0..10).map(example).collect();
    let hook =
        QatHook::calibrated(&model, QuantConfig::fq_bert(), &examples[..6]).expect("calibration");
    Autotuner::new(
        &model,
        &hook,
        examples,
        AcceleratorConfig::zcu111_n16_m16(),
        MAX_LEN,
    )
    .expect("tuner")
}

#[test]
fn same_seed_reproduces_the_search_exactly() {
    let settings = SearchSettings {
        budget: 16,
        seed: 42,
        ..SearchSettings::default()
    };
    let a = search(&tuner(3), &settings).expect("first run");
    let b = search(&tuner(3), &settings).expect("second run");
    assert_eq!(a.best.config, b.best.config);
    assert_eq!(a.best.cycles, b.best.cycles);
    assert_eq!(a.best.accuracy, b.best.accuracy);
    let configs = |outcome: &fqbert_autotune::SearchOutcome| -> Vec<String> {
        outcome
            .evaluated
            .iter()
            .map(|c| c.config.to_string())
            .collect()
    };
    assert_eq!(
        configs(&a),
        configs(&b),
        "the evaluation trajectory must be a pure function of the seed"
    );
}

#[test]
fn search_beats_uniform_w8_cycles_at_the_floor() {
    let t = tuner(5);
    let outcome = search(
        &t,
        &SearchSettings {
            budget: 12,
            seed: 1,
            ..SearchSettings::default()
        },
    )
    .expect("search");
    assert!(outcome.best.accuracy >= outcome.floor);
    assert!(
        outcome.best.cycles < outcome.uniform(8).cycles,
        "best {} cycles must beat uniform w8 {}",
        outcome.best.cycles,
        outcome.uniform(8).cycles
    );
    assert!(outcome.speedup_vs_w8() > 1.0);
    assert_eq!(outcome.uniforms.len(), 3);
    assert!(outcome.evaluated.len() >= 3);
    assert!(!outcome.front.is_empty());
    // The front is sorted by cycles with strictly increasing accuracy.
    for pair in outcome.front.windows(2) {
        assert!(pair[0].cycles <= pair[1].cycles);
        assert!(pair[0].accuracy < pair[1].accuracy);
    }
    // Uniform narrowing must price strictly cheaper: w2 < w4 < w8 cycles.
    assert!(outcome.uniform(2).cycles < outcome.uniform(4).cycles);
    assert!(outcome.uniform(4).cycles < outcome.uniform(8).cycles);
}

#[test]
fn assembled_models_match_direct_conversion_and_report_their_bits() {
    let t = tuner(7);
    let config: BitConfig = "284448/444444".parse().expect("parse");
    let model = t.assemble(&config).expect("assembly");
    assert_eq!(model.weight_bits(), 8, "headline width is the widest site");
    assert_eq!(model.layer_bit_widths(), config.layers);
    assert_eq!(model.bit_summary(), "w2-8[0]/w4[1]");
    // Uniform assembly equals the uniform bank exactly.
    let uniform = t.assemble(&BitConfig::uniform(2, 4)).expect("uniform");
    assert_eq!(uniform.bit_summary(), "w4");
    assert_eq!(uniform.weight_bits(), 4);
}

#[test]
fn assembled_candidates_share_the_banks_float_tensors() {
    // The embedding code tables are a large share of a small model's
    // bytes; a search assembles hundreds of candidates and must not copy
    // them, or the float head, once each.
    let t = tuner(7);
    let mixed = t.assemble(&"284448/444444".parse().expect("parse"));
    let uniform = t.assemble(&BitConfig::uniform(2, 8));
    let (mixed, uniform) = (mixed.expect("mixed"), uniform.expect("uniform"));
    let (a, b) = (&mixed.host, &uniform.host);
    assert!(Arc::ptr_eq(&a.embedding.word, &b.embedding.word));
    assert!(Arc::ptr_eq(
        &a.embedding.position_segment,
        &b.embedding.position_segment
    ));
    assert!(Arc::ptr_eq(&a.classifier_weight, &b.classifier_weight));
    assert!(Arc::ptr_eq(&a.classifier_bias, &b.classifier_bias));
}

#[test]
fn searched_artifact_round_trips_bit_identically_on_every_backend() {
    let t = tuner(11);
    let outcome = search(
        &t,
        &SearchSettings {
            budget: 8,
            seed: 9,
            ..SearchSettings::default()
        },
    )
    .expect("search");
    let model = t.assemble(&outcome.best.config).expect("assembly");
    let examples: Vec<Example> = (0..10).map(example).collect();
    let scratch = &mut GemmScratch::new();
    let reference = model
        .logits_batch_with_scratch(&examples, scratch)
        .expect("reference logits");

    let words: Vec<String> = (0..26).map(|i| format!("w{i}")).collect();
    let tokenizer = Tokenizer::new(Vocab::from_tokens(&words), MAX_LEN);
    let dir = std::env::temp_dir().join("fqbert_autotune_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("mixed.fqb");
    ModelArtifact::new(TaskKind::Sst2, model.clone(), tokenizer)
        .save(&path)
        .expect("save");

    // The loaded model is bit-identical, and both artifact-loadable
    // backends (int and sim; the float backend holds no quantized model by
    // design) reproduce the in-memory logits exactly.
    let loaded = ModelArtifact::load(&path).expect("load");
    assert_eq!(loaded.model, model);
    for kind in [BackendKind::Int, BackendKind::Sim] {
        let engine = EngineBuilder::new(TaskKind::Sst2)
            .backend(kind)
            .load(&path)
            .expect("engine");
        let served = engine
            .backend()
            .int_model()
            .expect("quantized backend")
            .logits_batch_with_scratch(&examples, scratch)
            .expect("served logits");
        assert_eq!(served, reference, "{kind:?} logits must be bit-identical");
    }
    std::fs::remove_file(&path).ok();
}
