//! Quickstart: train a tiny BERT on synthetic SST-2, quantize it to FQ-BERT
//! (4-bit weights / 8-bit activations), and serve it through the unified
//! runtime — the same `InferenceBackend` API drives the float baseline, the
//! integer-only engine, and the accelerator-simulated engine.
//!
//! Run with `cargo run -p fqbert-bench --example quickstart --release`.

use fqbert_bert::{BertConfig, BertModel, NoopHook, Trainer, TrainerConfig};
use fqbert_core::{CompressionReport, QatHook};
use fqbert_nlp::{Sst2Config, Sst2Generator, TaskKind};
use fqbert_quant::QuantConfig;
use fqbert_runtime::{BackendKind, EngineBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Synthetic data: a small SST-2-like sentiment task.
    let dataset = Sst2Generator::new(Sst2Config {
        train_size: 600,
        dev_size: 150,
        ..Sst2Config::default()
    })
    .generate(42);
    println!(
        "generated {} training / {} dev sentences over a {}-word vocabulary",
        dataset.train.len(),
        dataset.dev.len(),
        dataset.vocab_size
    );

    // 2. Train the float baseline for a few epochs.
    let mut model = BertModel::new(
        BertConfig::tiny(dataset.vocab_size, dataset.max_len, dataset.num_classes),
        7,
    );
    let trainer = Trainer::new(TrainerConfig {
        epochs: 3,
        batch_size: 16,
        learning_rate: 2e-3,
        ..TrainerConfig::default()
    });
    trainer.train(&mut model, &dataset, &mut NoopHook)?;

    // 3. Fine-tune with the quantization function in the loop (w4/a8).
    let quant = QuantConfig::fq_bert();
    let mut hook = QatHook::new(quant);
    let finetune = Trainer::new(TrainerConfig {
        epochs: 1,
        batch_size: 16,
        learning_rate: 5e-4,
        ..TrainerConfig::default()
    });
    finetune.train(&mut model, &dataset, &mut hook)?;

    // 4. One builder, three backends: float, integer-only, and the integer
    //    engine with latency charged through the FPGA cycle model.
    let builder = || {
        EngineBuilder::new(TaskKind::Sst2)
            .vocab(dataset.vocab.clone(), dataset.max_len)
            .batch_size(16)
    };
    let float_engine = builder().backend(BackendKind::Float).build(&model)?;
    let int_engine = builder()
        .backend(BackendKind::Int)
        .build_with_hook(&model, &hook)?;
    let sim_engine = builder()
        .backend(BackendKind::Sim)
        .build_with_hook(&model, &hook)?;

    for engine in [&float_engine, &int_engine, &sim_engine] {
        let summary = engine.evaluate(&dataset.dev)?;
        let backend = engine.backend();
        print!(
            "{:<6} backend ({}): dev accuracy {:.2}%",
            backend.name(),
            backend.precision(),
            summary.accuracy
        );
        match summary.simulated_latency_ms {
            Some(ms) => println!(", simulated accelerator latency {ms:.3} ms"),
            None => println!(),
        }
    }
    let compression = CompressionReport::for_model(&model, &quant);
    println!(
        "encoder weight compression: {:.2}x (whole model with 8-bit embedding tables {:.2}x; \
         paper: 7.94x)",
        compression.encoder_ratio(&model),
        compression.ratio()
    );

    // 5. Quantize once, serve many: persist the artifact and reload it
    //    without the float model or any recalibration.
    let path = std::env::temp_dir().join("fqbert_quickstart.fqbt");
    int_engine.save(&path)?;
    let served = EngineBuilder::new(TaskKind::Sst2).load(&path)?;
    let verdicts = served.classify_texts(&["pos0 pos1 filler0", "neg0 neg2"])?;
    println!(
        "reloaded artifact ({} KiB) classifies: {:?}",
        std::fs::metadata(&path)?.len() / 1024,
        verdicts.iter().map(|c| c.prediction).collect::<Vec<_>>()
    );
    std::fs::remove_file(&path).ok();

    // 6. What would deploying BERT-base on the FPGA cost? Ask the sim
    //    backend's cost model (ZCU111, 12 PUs, N=16, M=16).
    let cost = sim_engine
        .backend()
        .cost_model()
        .expect("sim has a cost model");
    println!(
        "accelerator cost model: {} @ {:.0} MHz, {} PUs x {} PEs, M={}",
        cost.platform,
        cost.clock_mhz,
        cost.processing_units,
        cost.pes_per_pu,
        cost.multipliers_per_bim
    );
    Ok(())
}
