//! Property tests of the parallel (sharded) execution path: for every
//! backend, classifying a batch through a worker pool of any size is
//! bit-identical to serial execution — same logits bits, same predictions,
//! and (for the simulated backend) the same per-sequence cycle costs in
//! the same order. Also pins the empty-batch rejection contract of
//! `Engine::classify_batch`.

use fqbert_bert::{BertConfig, BertModel};
use fqbert_core::QatHook;
use fqbert_nlp::{Example, TaskKind, Vocab};
use fqbert_quant::QuantConfig;
use fqbert_runtime::{BackendKind, EncodedBatch, Engine, EngineBuilder};
use proptest::prelude::*;
use std::sync::OnceLock;

const MAX_LEN: usize = 16;
const WORDS: usize = 40;

/// Thread counts the parallel engines are built with; deliberately includes
/// counts larger than most generated batches (threads > batch must shard to
/// one sequence per worker and still be exact).
const THREADS: [usize; 3] = [2, 3, 5];

fn example_from(ids: &[usize]) -> Example {
    let mut token_ids = vec![2usize];
    token_ids.extend(ids.iter().map(|i| 4 + i % WORDS));
    token_ids.push(3);
    Example {
        segment_ids: vec![0; token_ids.len()],
        attention_mask: vec![1; token_ids.len()],
        token_ids,
        label: 0,
    }
}

/// One serial engine plus one engine per entry of [`THREADS`], all over the
/// same calibrated model.
struct BackendEngines {
    kind: BackendKind,
    serial: Engine,
    parallel: Vec<Engine>,
}

fn engines() -> &'static Vec<BackendEngines> {
    static ENGINES: OnceLock<Vec<BackendEngines>> = OnceLock::new();
    ENGINES.get_or_init(|| {
        let words: Vec<String> = (0..WORDS).map(|i| format!("w{i}")).collect();
        let vocab = Vocab::from_tokens(&words);
        let model = BertModel::new(BertConfig::tiny(vocab.len(), MAX_LEN, 2), 11);
        let calibration: Vec<Example> = (0..6).map(|i| example_from(&[i, i + 3, i + 5])).collect();
        let hook =
            QatHook::calibrated(&model, QuantConfig::fq_bert(), &calibration).expect("calibration");
        BackendKind::ALL
            .iter()
            .map(|&kind| {
                let build = |threads: usize| {
                    EngineBuilder::new(TaskKind::Sst2)
                        .vocab(vocab.clone(), MAX_LEN)
                        .backend(kind)
                        .batch_size(64)
                        .threads(threads)
                        .build_with_hook(&model, &hook)
                        .expect("engine")
                };
                BackendEngines {
                    kind,
                    serial: build(1),
                    parallel: THREADS.iter().map(|&t| build(t)).collect(),
                }
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn sharded_classification_is_bit_identical_to_serial(
        word_seeds in collection::vec(collection::vec(0usize..1000, 1..=(MAX_LEN - 2)), 1..=10),
        thread_index in 0usize..THREADS.len(),
        backend_index in 0usize..3,
    ) {
        let examples: Vec<Example> =
            word_seeds.iter().map(|ids| example_from(ids)).collect();
        let batch = EncodedBatch::from_examples(examples);
        let engines = &engines()[backend_index];
        let parallel_engine = &engines.parallel[thread_index];
        prop_assert_eq!(parallel_engine.threads(), THREADS[thread_index]);

        let serial = engines.serial.classify_batch(&batch).expect("serial");
        let parallel = parallel_engine.classify_batch(&batch).expect("parallel");

        prop_assert_eq!(&serial.predictions, &parallel.predictions);
        prop_assert_eq!(serial.logits.len(), parallel.logits.len());
        for (i, (a, b)) in serial.logits.iter().zip(&parallel.logits).enumerate() {
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                prop_assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{} logits diverge on sequence {} at {} threads",
                    engines.kind,
                    i,
                    THREADS[thread_index]
                );
            }
        }

        match engines.kind {
            BackendKind::Sim => {
                // Per-sequence costs must be a permutation-free match: the
                // same cost for the same sequence at the same position.
                let serial_costs = serial.sequence_costs.expect("serial sim costs");
                let parallel_costs = parallel.sequence_costs.expect("parallel sim costs");
                prop_assert_eq!(&serial_costs, &parallel_costs);
                // And the batch totals fold to identical bits (same
                // left-to-right summation order).
                let a = serial.cost.expect("serial total");
                let b = parallel.cost.expect("parallel total");
                prop_assert_eq!(a.total_cycles, b.total_cycles);
                prop_assert_eq!(a.latency_ms.to_bits(), b.latency_ms.to_bits());
            }
            _ => {
                prop_assert!(serial.cost.is_none() && parallel.cost.is_none());
                prop_assert!(
                    serial.sequence_costs.is_none() && parallel.sequence_costs.is_none()
                );
            }
        }
    }
}

#[test]
fn empty_batches_are_rejected_on_every_backend_and_thread_count() {
    let empty = EncodedBatch::from_examples(Vec::new());
    assert!(empty.is_empty());
    for engines in engines() {
        for engine in std::iter::once(&engines.serial).chain(&engines.parallel) {
            let err = engine
                .classify_batch(&empty)
                .expect_err("empty batch must be rejected");
            let msg = err.to_string();
            assert!(
                msg.contains("empty batch"),
                "{} ({} threads): unhelpful error: {msg}",
                engines.kind,
                engine.threads()
            );
            // The scored wrapper inherits the rejection.
            assert!(engine.classify_scored(&empty).is_err());
        }
    }
}

#[test]
fn more_threads_than_sequences_still_exact() {
    // Deterministic pin of the threads > batch corner: a 2-sequence batch
    // on a 5-worker pool (three workers idle).
    let batch = EncodedBatch::from_examples(vec![
        example_from(&[1, 2, 3]),
        example_from(&[4, 5, 6, 7, 8]),
    ]);
    for engines in engines() {
        let five = engines
            .parallel
            .iter()
            .find(|e| e.threads() == 5)
            .expect("5-thread engine");
        let serial = engines.serial.classify_batch(&batch).expect("serial");
        let parallel = five.classify_batch(&batch).expect("parallel");
        assert_eq!(serial.logits, parallel.logits, "{}", engines.kind);
        assert_eq!(serial.predictions, parallel.predictions);
    }
}

#[test]
fn shard_errors_surface_instead_of_wedging_the_pool() {
    // An all-padding sequence buried in a larger batch must fail cleanly
    // through the sharded path, and the engine must keep serving afterwards.
    let mut bad = example_from(&[1, 2, 3]);
    for m in bad.attention_mask.iter_mut() {
        *m = 0;
    }
    let engines = &engines()[1]; // int backend
    let four: Vec<Example> = (0..4).map(|i| example_from(&[i, i + 1])).collect();
    let mut with_bad = four.clone();
    with_bad.insert(2, bad);
    let parallel = &engines.parallel[0];
    let err = parallel
        .classify_batch(&EncodedBatch::from_examples(with_bad))
        .expect_err("all-padding sequence must be rejected");
    assert!(err.to_string().contains("all-padding"), "{err}");
    let ok = parallel
        .classify_batch(&EncodedBatch::from_examples(four))
        .expect("pool must survive a failed shard");
    assert_eq!(ok.predictions.len(), 4);
}
