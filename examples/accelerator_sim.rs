//! Drive the bit-accurate accelerator datapath on a real quantized layer and
//! report the deployment estimates (latency, resources, power) for BERT-base.
//!
//! Run with `cargo run -p fqbert-bench --example accelerator_sim --release`.

use fqbert_accel::dataflow::EncoderShape;
use fqbert_accel::pe::OperandMode;
use fqbert_accel::{cycle_model, AcceleratorConfig, PowerModel, ProcessingUnit, ResourceModel};
use fqbert_bert::{BertConfig, BertModel};
use fqbert_core::{convert, IntLinear, QatHook};
use fqbert_nlp::Example;
use fqbert_quant::{QuantConfig, Requantizer};
use fqbert_tensor::{GemmScratch, IntTensor};

/// Runs an [`IntLinear`] matrix–vector product through the PU datapath and
/// checks it against the integer reference engine.
fn run_layer_on_pu(
    layer: &IntLinear,
    x_row: &[i8],
    pu: &ProcessingUnit,
) -> (Vec<i8>, Vec<i8>, u64) {
    // Reference: the integer engine.
    let x = IntTensor::from_vec(x_row.to_vec(), &[1, x_row.len()]).expect("valid shape");
    let reference = layer
        .forward_with_scratch(&x, &mut GemmScratch::new())
        .expect("reference forward");

    // Accelerator datapath: one weight column per PE.
    let weight = layer.weight_codes();
    let (in_features, out_features) = (layer.in_features(), layer.out_features());
    let columns: Vec<Vec<i8>> = (0..out_features)
        .map(|c| (0..in_features).map(|r| weight.row(r)[c]).collect())
        .collect();
    let effective = f64::from(layer.output_scale())
        / (f64::from(layer.input_scale()) * f64::from(layer.weight_scale()));
    let requant = Requantizer::from_scale(effective, 8).expect("valid scale");
    let (codes, cycles) = pu.matvec(
        x_row,
        &columns,
        layer.bias_codes().as_slice(),
        &requant,
        OperandMode::Act8Weight4,
    );
    (reference.as_slice().to_vec(), codes, cycles)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Build a small calibrated FQ-BERT so we have a real quantized layer.
    let model = BertModel::new(BertConfig::tiny(60, 24, 2), 5);
    let calibration: Vec<Example> = (0..8usize)
        .map(|i| {
            let tokens = vec![2, 4 + i, 10 + i, 7, 3];
            Example {
                segment_ids: vec![0; tokens.len()],
                attention_mask: vec![1; tokens.len()],
                token_ids: tokens,
                label: 0,
            }
        })
        .collect();
    let hook = QatHook::calibrated(&model, QuantConfig::fq_bert(), &calibration)?;
    let int_model = convert(&model, &hook)?;

    // Feed the first encoder layer's query projection through the PU array.
    let config = AcceleratorConfig::zcu102_n8_m16();
    let pu = ProcessingUnit::new(
        config.pes_per_pu,
        config.multipliers_per_bim,
        config.bim_variant,
    );
    let embedded = int_model.embed(&[2, 5, 11, 7, 3], &[0, 0, 0, 0, 0])?;
    let query = &int_model.layers[0].query;
    let (reference, datapath, cycles) = run_layer_on_pu(query, embedded.row(0), &pu);
    let matches = reference == datapath;
    println!(
        "PU datapath vs integer engine on the layer-0 query projection: {} ({} outputs, {} cycles on one PU)",
        if matches { "bit-exact match" } else { "MISMATCH" },
        reference.len(),
        cycles
    );
    assert!(
        matches,
        "accelerator datapath deviated from the reference engine"
    );

    // Deployment estimates for BERT-base on both boards.
    println!("\nBERT-base (12 layers, seq 128) deployment estimates:");
    let resource_model = ResourceModel::new();
    let power_model = PowerModel::new();
    for config in AcceleratorConfig::table_iii_configs() {
        let report = cycle_model::estimate_latency(&config, &EncoderShape::bert_base(), 12);
        let resources = resource_model.estimate(&config);
        println!(
            "  {} (N={}, M={}): {:.2} ms, {:.2} fps, {:.1} W, {:.2} fps/W, {} DSP, {} BRAM18K",
            config.device.name(),
            config.pes_per_pu,
            config.multipliers_per_bim,
            report.latency_ms,
            report.fps(),
            power_model.board_watts(&config),
            power_model.fps_per_watt(&config, report.latency_ms),
            resources.dsp48,
            resources.bram18k,
        );
    }
    Ok(())
}
