//! Integration tests of the unified runtime: one `InferenceBackend` trait
//! over the float, integer and accelerator-simulated engines, batched
//! inference equal to one-at-a-time inference, and artifact round trips.

use fqbert_bench::ExperimentConfig;
use fqbert_quant::QuantConfig;
use fqbert_runtime::{BackendKind, EncodedBatch, EngineBuilder, InferenceBackend};
use fqbert_tensor::GemmScratch;
use std::sync::OnceLock;

/// The trained SST-2 task and its QAT hook, trained once per test binary
/// and shared by every test (each only reads it).
fn quick_task() -> &'static (fqbert_bench::TrainedTask, fqbert_core::QatHook) {
    static TASK: OnceLock<(fqbert_bench::TrainedTask, fqbert_core::QatHook)> = OnceLock::new();
    TASK.get_or_init(train_quick_task)
}

fn train_quick_task() -> (fqbert_bench::TrainedTask, fqbert_core::QatHook) {
    let mut config = ExperimentConfig::quick();
    config.sst2.train_size = 280;
    config.sst2.dev_size = 80;
    config.sst2.sentiment_words = 6;
    config.sst2.neutral_words = 10;
    config.sst2.min_words = 3;
    config.sst2.max_words = 6;
    config.sst2.negation_prob = 0.0;
    config.sst2.label_noise = 0.0;
    config.sst2.max_len = 12;
    config.float_trainer.epochs = 4;
    config.float_trainer.batch_size = 8;
    config.float_trainer.learning_rate = 3e-3;
    config.qat_trainer.epochs = 1;
    let mut task = config.train_sst2();
    let hook = config.qat_finetune(&mut task, QuantConfig::fq_bert());
    (task, hook)
}

#[test]
fn all_three_backends_serve_through_one_trait() {
    let (task, hook) = quick_task();
    let dev = &task.dataset.dev;

    let float_engine = task
        .engine_with_hook(BackendKind::Float, hook)
        .expect("float engine");
    let int_engine = task
        .engine_with_hook(BackendKind::Int, hook)
        .expect("int engine");
    let sim_engine = task
        .engine_with_hook(BackendKind::Sim, hook)
        .expect("sim engine");

    // Trait-object access: every backend is driven identically.
    let backends: Vec<&dyn InferenceBackend> = vec![
        float_engine.backend(),
        int_engine.backend(),
        sim_engine.backend(),
    ];
    assert_eq!(backends[0].name(), "float");
    assert_eq!(backends[1].name(), "int");
    assert_eq!(backends[2].name(), "sim");
    assert_eq!(backends[0].precision().to_string(), "fp32");
    assert_eq!(backends[1].precision().to_string(), "w4/a8");
    assert!(backends[0].cost_model().is_none());
    assert!(backends[2].cost_model().is_some());

    let batch = EncodedBatch::from_examples(dev[..40.min(dev.len())].to_vec());
    let float_out = backends[0].classify_batch(&batch).expect("float batch");
    let int_out = backends[1].classify_batch(&batch).expect("int batch");
    let sim_out = backends[2].classify_batch(&batch).expect("sim batch");

    // The simulated backend IS the integer engine functionally...
    assert_eq!(int_out.logits, sim_out.logits);
    assert_eq!(int_out.predictions, sim_out.predictions);
    // ...but it charges an accelerator cost.
    assert!(int_out.cost.is_none());
    let cost = sim_out.cost.expect("sim cost");
    assert!(cost.total_cycles > 0);
    assert!(cost.latency_ms > 0.0);

    // Quantization preserves most decisions of the float baseline.
    let agree = float_out
        .predictions
        .iter()
        .zip(&int_out.predictions)
        .filter(|(a, b)| a == b)
        .count();
    assert!(
        agree * 10 >= batch.len() * 7,
        "int backend agrees with float on only {agree}/{} predictions",
        batch.len()
    );

    // Accuracy through the engine wrapper, all above chance.
    for engine in [&float_engine, &int_engine, &sim_engine] {
        let summary = engine.evaluate(dev).expect("evaluate");
        assert_eq!(summary.num_examples, dev.len());
        assert!(
            summary.accuracy > 55.0,
            "{} accuracy {}",
            engine.backend().name(),
            summary.accuracy
        );
    }
}

#[test]
fn batched_inference_is_bit_identical_to_one_at_a_time() {
    let (task, hook) = quick_task();
    let dev = &task.dataset.dev[..24];
    for kind in [BackendKind::Float, BackendKind::Int] {
        let engine = task.engine_with_hook(kind, hook).expect("engine");
        let batched = engine
            .classify_batch(&EncodedBatch::from_examples(dev.to_vec()))
            .expect("batched");
        let mut singly = Vec::new();
        for ex in dev {
            let out = engine
                .classify_batch(&EncodedBatch::from_examples(vec![ex.clone()]))
                .expect("single");
            singly.extend(out.logits);
        }
        for (i, (a, b)) in batched.logits.iter().zip(&singly).enumerate() {
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "batched and single logits diverge on example {i} ({:?} backend)",
                    engine.backend().name()
                );
            }
        }
    }
}

#[test]
fn sharded_execution_matches_serial_on_a_trained_model() {
    // End-to-end version of the runtime's parallel property test, on a
    // genuinely trained model: engines sharding across a worker pool return
    // bit-identical logits and identical accuracy to the serial engine.
    let (task, hook) = quick_task();
    let dev = &task.dataset.dev;
    for kind in BackendKind::ALL {
        let serial = task
            .engine_builder()
            .backend(kind)
            .threads(1)
            .build_with_hook(&task.model, hook)
            .expect("serial engine");
        let parallel = task
            .engine_builder()
            .backend(kind)
            .threads(4)
            .build_with_hook(&task.model, hook)
            .expect("parallel engine");
        assert_eq!(serial.threads(), 1);
        assert_eq!(parallel.threads(), 4);

        let batch = EncodedBatch::from_examples(dev[..32.min(dev.len())].to_vec());
        let a = serial.classify_batch(&batch).expect("serial batch");
        let b = parallel.classify_batch(&batch).expect("parallel batch");
        for (x, y) in a.logits.iter().flatten().zip(b.logits.iter().flatten()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{kind} logits diverge");
        }
        assert_eq!(a.predictions, b.predictions);
        if kind == BackendKind::Sim {
            assert_eq!(a.sequence_costs, b.sequence_costs, "sim costs diverge");
            assert_eq!(
                a.cost.expect("serial cost").total_cycles,
                b.cost.expect("parallel cost").total_cycles
            );
        }

        let sa = serial.evaluate(dev).expect("serial eval");
        let sb = parallel.evaluate(dev).expect("parallel eval");
        assert_eq!(sa.accuracy, sb.accuracy, "{kind} eval accuracy diverges");
        assert_eq!(sa.simulated_latency_ms, sb.simulated_latency_ms);
    }
}

#[test]
fn all_padding_sequence_is_a_clean_error_not_a_panic() {
    let (task, hook) = quick_task();
    let int_engine = task
        .engine_with_hook(BackendKind::Int, hook)
        .expect("int engine");
    let sim_engine = task
        .engine_with_hook(BackendKind::Sim, hook)
        .expect("sim engine");

    // One valid example plus one whose attention mask is all padding —
    // a zero-length sequence that used to panic inside the softmax LUT.
    let mut empty = task.dataset.dev[0].clone();
    for m in empty.attention_mask.iter_mut() {
        *m = 0;
    }
    let batch = EncodedBatch::from_examples(vec![task.dataset.dev[1].clone(), empty]);
    assert_eq!(batch.seq_lens()[1], 0);

    for engine in [&int_engine, &sim_engine] {
        let err = engine
            .classify_batch(&batch)
            .expect_err("all-padding example must be rejected");
        let msg = err.to_string();
        assert!(
            msg.contains("all-padding") || msg.contains("zero-length"),
            "unhelpful error for {}: {msg}",
            engine.backend().name()
        );
    }

    // The valid examples still classify once the empty one is dropped.
    let ok = int_engine
        .classify_batch(&EncodedBatch::from_examples(vec![
            task.dataset.dev[1].clone()
        ]))
        .expect("valid example");
    assert_eq!(ok.predictions.len(), 1);
}

#[test]
fn blocked_gemm_logits_match_naive_projection_path() {
    // The engine's int backend runs every projection through the blocked
    // packed-weight kernel; replaying the encoder with the naive
    // `forward_naive` reference on each projection must give bit-identical
    // logits (the requantizer datapath is shared, so any divergence would
    // come from the GEMM itself).
    let (task, hook) = quick_task();
    let dev = &task.dataset.dev[..8];
    let int_engine = task
        .engine_with_hook(BackendKind::Int, hook)
        .expect("int engine");
    let model = int_engine
        .backend()
        .int_model()
        .expect("int backend has a model");

    for layer in &model.layers {
        for linear in [
            &layer.query,
            &layer.key,
            &layer.value,
            &layer.attn_output,
            &layer.ffn1,
            &layer.ffn2,
        ] {
            // Probe each projection with a deterministic activation pattern.
            let rows = 5usize;
            let inf = linear.in_features();
            let x = fqbert_tensor::IntTensor::from_vec(
                (0..rows * inf)
                    .map(|i| ((i * 131 + 17) % 255) as i8)
                    .collect(),
                &[rows, inf],
            )
            .expect("probe shape");
            assert_eq!(
                linear
                    .forward_with_scratch(&x, &mut GemmScratch::new())
                    .expect("blocked"),
                linear.forward_naive(&x).expect("naive"),
                "blocked kernel diverges from naive reference"
            );
        }
    }

    // End to end: batched logits through the blocked path are stable and
    // bit-identical across repeated runs (packing is deterministic).
    let batch = EncodedBatch::from_examples(dev.to_vec());
    let a = int_engine.classify_batch(&batch).expect("first run");
    let b = int_engine.classify_batch(&batch).expect("second run");
    assert_eq!(a.logits, b.logits);
}

#[test]
fn artifact_round_trip_preserves_predictions_exactly() {
    let (task, hook) = quick_task();
    let dev = &task.dataset.dev;
    let int_engine = task
        .engine_with_hook(BackendKind::Int, hook)
        .expect("int engine");

    let path = std::env::temp_dir().join("fqbert_integration_runtime.fqbt");
    int_engine.save(&path).expect("save");
    let served = EngineBuilder::new(task.dataset.task)
        .backend(BackendKind::Int)
        .load(&path)
        .expect("load");
    std::fs::remove_file(&path).ok();

    let batch = EncodedBatch::from_examples(dev.to_vec());
    let a = int_engine.classify_batch(&batch).expect("in-memory");
    let b = served.classify_batch(&batch).expect("reloaded");
    assert_eq!(
        a.logits, b.logits,
        "artifact round trip must be bit-identical"
    );
    assert_eq!(a.predictions, b.predictions);

    // The reloaded engine serves raw text with the persisted vocabulary.
    let texts = ["pos0 filler1", "neg0 neg1"];
    let in_mem = int_engine.classify_texts(&texts).expect("in-memory text");
    let from_disk = served.classify_texts(&texts).expect("artifact text");
    assert_eq!(
        in_mem.iter().map(|c| c.prediction).collect::<Vec<_>>(),
        from_disk.iter().map(|c| c.prediction).collect::<Vec<_>>()
    );
}

#[test]
fn builder_rejects_inconsistent_configurations() {
    let (task, hook) = quick_task();
    // Missing tokenizer.
    let err = EngineBuilder::new(task.dataset.task)
        .build_with_hook(&task.model, hook)
        .expect_err("missing tokenizer must fail");
    assert!(err.to_string().contains("tokenizer"), "{err}");
    // Integer backend without calibration or hook.
    let err = EngineBuilder::new(task.dataset.task)
        .vocab(task.dataset.vocab.clone(), task.dataset.max_len)
        .backend(BackendKind::Int)
        .build(&task.model)
        .expect_err("missing calibration must fail");
    assert!(err.to_string().contains("calibration"), "{err}");
    // Task/head mismatch.
    let err = EngineBuilder::new(fqbert_nlp::TaskKind::MnliMatched)
        .vocab(task.dataset.vocab.clone(), task.dataset.max_len)
        .backend(BackendKind::Float)
        .build(&task.model)
        .expect_err("class mismatch must fail");
    assert!(err.to_string().contains("classes"), "{err}");
    // Float backend from an artifact.
    let err = EngineBuilder::new(task.dataset.task)
        .backend(BackendKind::Float)
        .load(std::path::Path::new("/nonexistent.fqbt"))
        .expect_err("float-from-artifact must fail");
    assert!(!err.to_string().is_empty());
}

#[test]
fn scored_classification_adds_labels_scores_and_costs_without_touching_logits() {
    let (task, hook) = quick_task();
    let dev = &task.dataset.dev[..12];
    let sim_engine = std::sync::Arc::new(
        task.engine_with_hook(BackendKind::Sim, hook)
            .expect("sim engine"),
    );
    let batch = EncodedBatch::from_examples(dev.to_vec());
    let scored = sim_engine.classify_scored(&batch).expect("scored");
    let plain = sim_engine.classify_batch(&batch).expect("plain");

    assert_eq!(scored.results.len(), plain.logits.len());
    let mut cost_sum = 0u64;
    for (result, (logits, prediction)) in scored
        .results
        .iter()
        .zip(plain.logits.iter().zip(&plain.predictions))
    {
        // The scored view decorates, never perturbs: identical bits.
        assert_eq!(&result.prediction, prediction);
        for (a, b) in result.logits.iter().zip(logits) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            result.label,
            task.dataset.task.class_name(result.prediction)
        );
        assert!((result.scores.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert_eq!(
            fqbert_tensor::ops::argmax_slice(&result.scores),
            result.prediction
        );
        cost_sum += result.cost.expect("per-sequence sim cost").total_cycles;
    }
    // Per-sequence costs decompose the batch total exactly.
    assert_eq!(cost_sum, plain.cost.expect("batch cost").total_cycles);
    assert_eq!(
        scored.cost.expect("scored total").total_cycles,
        plain.cost.expect("batch cost").total_cycles
    );

    // One engine behind an Arc serves concurrent callers bit-identically.
    let mut threads = Vec::new();
    for _ in 0..4 {
        let engine = std::sync::Arc::clone(&sim_engine);
        let batch = batch.clone();
        threads.push(std::thread::spawn(move || {
            engine.classify_scored(&batch).expect("concurrent scored")
        }));
    }
    for thread in threads {
        let concurrent = thread.join().expect("thread");
        for (a, b) in concurrent.results.iter().zip(&scored.results) {
            assert_eq!(a.logits, b.logits);
            assert_eq!(a.prediction, b.prediction);
        }
    }
}

#[test]
fn backend_kind_strings_match_backend_names() {
    // The FromStr/Display pair uses exactly the names the backends report,
    // so config files, CLI flags and wire responses all agree.
    let (task, hook) = quick_task();
    for kind in BackendKind::ALL {
        let engine = task.engine_with_hook(kind, hook).expect("engine");
        assert_eq!(engine.backend().name(), kind.to_string());
        assert_eq!(
            kind.to_string().parse::<BackendKind>().expect("parse"),
            kind
        );
    }
}
