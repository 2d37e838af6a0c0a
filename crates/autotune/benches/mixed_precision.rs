//! Mixed-precision search over the quick-eval tasks, emitting the accuracy
//! × simulated-cycles Pareto front.
//!
//! For each task (synthetic SST-2 and MNLI) this trains the float baseline
//! (honouring `FQBERT_QUICK`), calibrates it, runs the bit-width search,
//! and records the uniform w2/w4/w8 baselines, every front member, and the
//! feasible optimum. Besides the console output it emits machine-readable
//! `results/BENCH_mixed_precision.json` and the markdown table
//! `results/MIXED_PRECISION.md`; CI runs this in quick mode and asserts the
//! searched config beats uniform w8 cycles at no accuracy loss below the
//! floor.

use fqbert_accel::AcceleratorConfig;
use fqbert_autotune::{search, Autotuner, Candidate, SearchOutcome, SearchSettings};
use fqbert_bench::{impl_to_json, markdown_table, save_json_in, ExperimentConfig};
use fqbert_core::QatHook;
use fqbert_quant::QuantConfig;
use std::path::Path;

/// Candidate evaluations allowed beyond baselines and sensitivity probes.
const BUDGET: usize = 32;

/// Search seed — fixed so the committed results regenerate bit-for-bit.
const SEED: u64 = 7;

struct FrontRow {
    config: String,
    accuracy: f64,
    cycles: u64,
    speedup_vs_w8: f64,
    feasible: bool,
}

impl_to_json!(FrontRow {
    config,
    accuracy,
    cycles,
    speedup_vs_w8,
    feasible
});

struct TaskReport {
    task: String,
    float_accuracy: f64,
    eval_examples: u64,
    floor: f64,
    budget: u64,
    seed: u64,
    evaluated: u64,
    uniforms: Vec<FrontRow>,
    best: FrontRow,
    front: Vec<FrontRow>,
}

impl_to_json!(TaskReport {
    task,
    float_accuracy,
    eval_examples,
    floor,
    budget,
    seed,
    evaluated,
    uniforms,
    best,
    front
});

struct Report {
    bench: String,
    quick: bool,
    tasks: Vec<TaskReport>,
}

impl_to_json!(Report {
    bench,
    quick,
    tasks
});

fn row(candidate: &Candidate, outcome: &SearchOutcome) -> FrontRow {
    FrontRow {
        config: candidate.config.to_string(),
        accuracy: candidate.accuracy,
        cycles: candidate.cycles,
        speedup_vs_w8: outcome.uniform(8).cycles as f64 / candidate.cycles as f64,
        feasible: candidate.accuracy >= outcome.floor,
    }
}

fn tune_task(name: &str, experiment: &ExperimentConfig) -> TaskReport {
    println!("[{name}] training float baseline...");
    let task = match name {
        "sst2" => experiment.train_sst2(),
        "mnli" => experiment.train_mnli().0,
        other => panic!("unknown task `{other}`"),
    };
    let calib = task.dataset.dev.len().min(16);
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
    .expect("tuner");
    let settings = SearchSettings {
        budget: BUDGET,
        seed: SEED,
        ..SearchSettings::default()
    };
    let outcome = search(&tuner, &settings).expect("search");
    println!(
        "[{name}] best {} — {:.2}% at {} cycles ({:.2}x vs w8, floor {:.2}%)",
        outcome.best.config,
        outcome.best.accuracy,
        outcome.best.cycles,
        outcome.speedup_vs_w8(),
        outcome.floor
    );
    TaskReport {
        task: task.dataset.task.to_string(),
        float_accuracy: task.float_accuracy,
        eval_examples: task.dataset.dev.len() as u64,
        floor: outcome.floor,
        budget: BUDGET as u64,
        seed: SEED,
        evaluated: outcome.evaluated.len() as u64,
        uniforms: outcome.uniforms.iter().map(|c| row(c, &outcome)).collect(),
        best: row(&outcome.best, &outcome),
        front: outcome.front.iter().map(|c| row(c, &outcome)).collect(),
    }
}

fn markdown(report: &Report) -> String {
    let mut out = String::from("# Mixed-precision bit-width search\n\n");
    out.push_str(
        "Accuracy × simulated-cycles Pareto fronts of the per-layer/per-projection \
         weight bit-width search (`fqbert-autotune`), per quick-eval task. Cycles are \
         one ZCU111 inference at the task's sequence length; the floor is the worse \
         of the uniform w4/w8 accuracies unless overridden.\n\n",
    );
    for task in &report.tasks {
        out.push_str(&format!(
            "## {} (floor {:.2}%, float baseline {:.2}%)\n\n",
            task.task, task.floor, task.float_accuracy
        ));
        let rows: Vec<Vec<String>> = task
            .front
            .iter()
            .map(|r| {
                vec![
                    format!("`{}`", r.config),
                    format!("{:.2}", r.accuracy),
                    r.cycles.to_string(),
                    format!("{:.2}x", r.speedup_vs_w8),
                    if r.config == task.best.config {
                        "**best**".to_string()
                    } else if r.feasible {
                        "yes".to_string()
                    } else {
                        "below floor".to_string()
                    },
                ]
            })
            .collect();
        out.push_str(&markdown_table(
            &[
                "config",
                "accuracy %",
                "cycles",
                "speedup vs w8",
                "feasible",
            ],
            &rows,
        ));
        out.push('\n');
    }
    out
}

fn main() {
    let experiment = ExperimentConfig::from_env();
    let quick = std::env::var("FQBERT_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let report = Report {
        bench: "mixed_precision".to_string(),
        quick,
        tasks: vec![
            tune_task("sst2", &experiment),
            tune_task("mnli", &experiment),
        ],
    };

    for task in &report.tasks {
        assert!(
            task.uniforms.len() + task.front.len() >= 3 && task.evaluated >= 3,
            "{}: the report must record at least 3 evaluated configs",
            task.task
        );
        assert!(
            task.best.speedup_vs_w8 > 1.0,
            "{}: the searched config must beat uniform w8 cycles",
            task.task
        );
        assert!(
            task.best.accuracy >= task.floor,
            "{}: the searched config must hold the accuracy floor",
            task.task
        );
    }

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let path =
        save_json_in(&dir, "BENCH_mixed_precision", &report).expect("write BENCH_mixed_precision");
    println!("wrote {}", path.display());
    let md = dir.join("MIXED_PRECISION.md");
    std::fs::write(&md, markdown(&report)).expect("write MIXED_PRECISION.md");
    println!("wrote {}", md.display());
}
