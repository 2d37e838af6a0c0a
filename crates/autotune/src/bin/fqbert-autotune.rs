//! `fqbert-autotune` — search per-layer/per-projection weight bit-widths
//! minimizing simulated accelerator cycles under an accuracy floor.
//!
//! ```text
//! fqbert-autotune [--task sst2|mnli] [--floor auto|PCT] [--budget N]
//!                 [--seed N] [--out PATH] [--no-refine]
//! ```
//!
//! Trains the task baseline (honouring `FQBERT_QUICK`), calibrates it on
//! dev examples, runs the mixed-precision search, prints the accuracy ×
//! cycles Pareto front, and (with `--out`) saves the winning model as a
//! standard artifact that `fqbert-serve` loads unchanged.

use fqbert_accel::AcceleratorConfig;
use fqbert_autotune::{search, Autotuner, SearchSettings};
use fqbert_bench::{markdown_table, ExperimentConfig};
use fqbert_core::QatHook;
use fqbert_nlp::Tokenizer;
use fqbert_quant::QuantConfig;
use fqbert_runtime::ModelArtifact;
use std::path::PathBuf;

/// Dev examples used for post-training calibration (matches the engine
/// builder pipeline).
const CALIBRATION_EXAMPLES: usize = 16;

fn usage() -> ! {
    eprintln!(
        "usage: fqbert-autotune [--task sst2|mnli] [--floor auto|PCT] [--budget N] \
         [--seed N] [--out PATH] [--no-refine]"
    );
    std::process::exit(2);
}

fn main() {
    let mut task_name = "sst2".to_string();
    let mut settings = SearchSettings::default();
    let mut out: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut flag_value = |flag: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--task" => task_name = flag_value("--task").to_lowercase(),
            "--floor" => {
                let value = flag_value("--floor");
                if value != "auto" {
                    let pct: f64 = value.parse().unwrap_or_else(|_| {
                        eprintln!("--floor must be `auto` or an accuracy percentage");
                        usage()
                    });
                    settings.floor = Some(pct);
                }
            }
            "--budget" => {
                settings.budget = flag_value("--budget").parse().unwrap_or_else(|_| {
                    eprintln!("--budget must be a non-negative integer");
                    usage()
                })
            }
            "--seed" => {
                settings.seed = flag_value("--seed").parse().unwrap_or_else(|_| {
                    eprintln!("--seed must be an integer");
                    usage()
                })
            }
            "--out" => out = Some(PathBuf::from(flag_value("--out"))),
            "--no-refine" => settings.refine = false,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
            }
        }
    }

    let experiment = ExperimentConfig::from_env();
    println!("training `{task_name}` baseline...");
    let task = match task_name.as_str() {
        "sst2" => experiment.train_sst2(),
        "mnli" => experiment.train_mnli().0,
        other => {
            eprintln!("unknown task `{other}` (supported: sst2, mnli)");
            usage();
        }
    };
    println!(
        "float dev accuracy: {:.2}% over {} examples",
        task.float_accuracy,
        task.dataset.dev.len()
    );

    // Post-training calibration on dev examples, the same scales the engine
    // builder would derive.
    let calib = task.dataset.dev.len().min(CALIBRATION_EXAMPLES);
    let hook = QatHook::calibrated(
        &task.model,
        QuantConfig::fq_bert(),
        &task.dataset.dev[..calib],
    )
    .expect("calibration forward");

    let tuner = Autotuner::new(
        &task.model,
        &hook,
        task.dataset.dev.clone(),
        AcceleratorConfig::zcu111_n16_m16(),
        task.dataset.max_len,
    )
    .expect("tuner construction");

    println!(
        "searching {} sites (budget {}, seed {})...",
        tuner.num_sites(),
        settings.budget,
        settings.seed
    );
    let outcome = search(&tuner, &settings).expect("search");

    let rows: Vec<Vec<String>> = outcome
        .front
        .iter()
        .map(|c| {
            vec![
                c.config.to_string(),
                format!("{:.2}", c.accuracy),
                c.cycles.to_string(),
                format!("{:.2}x", outcome.uniform(8).cycles as f64 / c.cycles as f64),
            ]
        })
        .collect();
    println!("\nPareto front (floor {:.2}%):", outcome.floor);
    println!(
        "{}",
        markdown_table(&["config", "accuracy %", "cycles", "speedup vs w8"], &rows)
    );
    println!(
        "best: {} — {:.2}% at {} cycles ({:.2}x vs uniform w8, {} configs evaluated)",
        outcome.best.config,
        outcome.best.accuracy,
        outcome.best.cycles,
        outcome.speedup_vs_w8(),
        outcome.evaluated.len()
    );

    if let Some(path) = out {
        let model = tuner.assemble(&outcome.best.config).expect("assembly");
        let tokenizer = Tokenizer::new(task.dataset.vocab.clone(), task.dataset.max_len);
        ModelArtifact::new(task.dataset.task, model, tokenizer)
            .save(&path)
            .expect("artifact save");
        println!("saved mixed-precision artifact to {}", path.display());
    }
}
