//! Mixed-precision bit-width search end to end: train a tiny SST-2 model,
//! search per-site weight widths under an accuracy floor, and serve the
//! winning model through the standard engine.
//!
//! Run with `FQBERT_QUICK=1 cargo run --release --example autotune_search`.

use fqbert_accel::AcceleratorConfig;
use fqbert_autotune::{search, Autotuner, SearchSettings};
use fqbert_bench::ExperimentConfig;
use fqbert_core::QatHook;
use fqbert_nlp::Tokenizer;
use fqbert_quant::QuantConfig;
use fqbert_runtime::{BackendKind, EngineBuilder, ModelArtifact};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train the float baseline (FQBERT_QUICK=1 shrinks the run).
    let experiment = ExperimentConfig::from_env();
    let task = experiment.train_sst2();
    println!("float dev accuracy: {:.2}%", task.float_accuracy);

    // 2. Calibrate activation scales on a few dev examples.
    let calib = task.dataset.dev.len().min(16);
    let hook = QatHook::calibrated(
        &task.model,
        QuantConfig::fq_bert(),
        &task.dataset.dev[..calib],
    )?;

    // 3. Search: greedy descent from uniform w8 plus seeded refinement.
    let tuner = Autotuner::new(
        &task.model,
        &hook,
        task.dataset.dev.clone(),
        AcceleratorConfig::zcu111_n16_m16(),
        task.dataset.max_len,
    )?;
    let outcome = search(
        &tuner,
        &SearchSettings {
            budget: 24,
            seed: 7,
            ..SearchSettings::default()
        },
    )?;
    println!(
        "best {} — {:.2}% at {} cycles ({:.2}x vs uniform w8)",
        outcome.best.config,
        outcome.best.accuracy,
        outcome.best.cycles,
        outcome.speedup_vs_w8()
    );

    // 4. The winner is a standard artifact: save, load, serve — the
    //    registry needs no changes for mixed-precision models.
    let model = tuner.assemble(&outcome.best.config)?;
    println!("bit summary: {}", model.bit_summary());
    let tokenizer = Tokenizer::new(task.dataset.vocab.clone(), task.dataset.max_len);
    let path = std::env::temp_dir().join("fqbert_autotune_example.fqb");
    ModelArtifact::new(task.dataset.task, model, tokenizer).save(&path)?;
    let engine = EngineBuilder::new(task.dataset.task)
        .backend(BackendKind::Sim)
        .load(&path)?;
    let summary = engine.evaluate(&task.dataset.dev)?;
    println!(
        "served accuracy: {:.2}% ({} examples, simulated {:.2} ms)",
        summary.accuracy,
        summary.num_examples,
        summary.simulated_latency_ms.unwrap_or(0.0)
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}
