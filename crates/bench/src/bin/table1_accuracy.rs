//! Table I: accuracy of FQ-BERT (w4/a8, quantization-aware fine-tuned,
//! integer-only inference) against the FP32 baseline on SST-2, MNLI and
//! MNLI-m, together with the weight compression ratio.
//!
//! Run with `cargo run -p fqbert-bench --bin table1_accuracy --release`
//! (set `FQBERT_QUICK=1` for a fast smoke run).

use fqbert_bench::{markdown_table, save_json, ExperimentConfig};
use fqbert_core::CompressionReport;
use fqbert_quant::QuantConfig;
use fqbert_runtime::BackendKind;

#[derive(Debug)]
struct Table1Row {
    model: String,
    bits: String,
    sst2: f64,
    mnli: f64,
    mnli_m: f64,
    compression: f64,
}

fqbert_bench::impl_to_json!(Table1Row {
    model,
    bits,
    sst2,
    mnli,
    mnli_m,
    compression
});

fn main() {
    let config = ExperimentConfig::from_env();
    println!("== Table I reproduction: FQ-BERT accuracy and compression ==\n");

    println!("training float baseline on synthetic SST-2 ...");
    let mut sst2 = config.train_sst2();
    println!("training float baseline on synthetic MNLI ...");
    let (mut mnli, splits) = config.train_mnli();
    let mnli_m_float = fqbert_bert::Trainer::evaluate_float(&mnli.model, &splits.mismatched.dev)
        .expect("evaluation failed")
        .accuracy;

    println!("quantization-aware fine-tuning (w4/a8) ...");
    let quant = QuantConfig::fq_bert();
    let sst2_hook = config.qat_finetune(&mut sst2, quant);
    let mnli_hook = config.qat_finetune(&mut mnli, quant);

    println!("building integer engines and evaluating through the unified runtime ...\n");
    let sst2_engine = sst2
        .engine_with_hook(BackendKind::Int, &sst2_hook)
        .expect("sst2 engine");
    let mnli_engine = mnli
        .engine_with_hook(BackendKind::Int, &mnli_hook)
        .expect("mnli engine");
    let sst2_acc = sst2_engine
        .evaluate(&sst2.dataset.dev)
        .expect("int evaluation failed")
        .accuracy;
    let mnli_acc = mnli_engine
        .evaluate(&splits.matched.dev)
        .expect("int evaluation failed")
        .accuracy;
    let mnli_m_acc = mnli_engine
        .evaluate(&splits.mismatched.dev)
        .expect("int evaluation failed")
        .accuracy;

    let compression = CompressionReport::for_model(&sst2.model, &quant);
    let ratio = compression.encoder_ratio(&sst2.model);

    let rows_data = vec![
        Table1Row {
            model: "BERT (float baseline)".to_string(),
            bits: "32/32".to_string(),
            sst2: sst2.float_accuracy,
            mnli: mnli.float_accuracy,
            mnli_m: mnli_m_float,
            compression: 1.0,
        },
        Table1Row {
            model: "FQ-BERT (integer engine)".to_string(),
            bits: "4/8".to_string(),
            sst2: sst2_acc,
            mnli: mnli_acc,
            mnli_m: mnli_m_acc,
            compression: ratio,
        },
    ];
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                r.bits.clone(),
                format!("{:.2}", r.sst2),
                format!("{:.2}", r.mnli),
                format!("{:.2}", r.mnli_m),
                format!("{:.2}x", r.compression),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &["model", "w/a", "SST-2", "MNLI", "MNLI-m", "comp. ratio"],
            &rows
        )
    );
    match save_json("table1_accuracy", &rows_data) {
        Ok(path) => println!("saved raw results to {}", path.display()),
        Err(e) => eprintln!("could not save results: {e}"),
    }
    println!(
        "whole-model compression (8-bit embedding tables, float head): {:.2}x \
         (paper: 7.94x)",
        compression.ratio()
    );
    println!(
        "\nExpected shape (paper Table I): the 4/8 FQ-BERT stays within ~1 point of the\n\
         float baseline on SST-2 and within ~3-4 points on MNLI/MNLI-m, at an encoder\n\
         weight compression ratio of ~7.9x."
    );
}
