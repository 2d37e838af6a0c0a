//! Integration tests spanning the quantization stack and the accelerator
//! simulator: the PU datapath must reproduce the integer reference engine
//! bit-for-bit, and the system-level models must reproduce the paper's
//! deployment numbers.

use fqbert_accel::dataflow::EncoderShape;
use fqbert_accel::pe::OperandMode;
use fqbert_accel::{
    cycle_model, AcceleratorConfig, PowerModel, ProcessingUnit, ResourceModel, Scheduler,
};
use fqbert_bert::{BertConfig, BertModel};
use fqbert_core::{convert, QatHook};
use fqbert_nlp::Example;
use fqbert_quant::{QuantConfig, Requantizer};
use fqbert_tensor::{GemmScratch, IntTensor};

fn calibrated_int_model() -> fqbert_core::IntBertModel {
    let model = BertModel::new(BertConfig::tiny(40, 16, 2), 21);
    let calibration: Vec<Example> = (0..6usize)
        .map(|i| {
            let tokens = vec![2, 4 + i, 9 + i, 6, 3];
            Example {
                segment_ids: vec![0; tokens.len()],
                attention_mask: vec![1; tokens.len()],
                token_ids: tokens,
                label: 0,
            }
        })
        .collect();
    let hook = QatHook::calibrated(&model, QuantConfig::fq_bert(), &calibration)
        .expect("calibration forward");
    convert(&model, &hook).expect("conversion")
}

#[test]
fn pu_datapath_matches_integer_engine_bit_exactly() {
    let int_model = calibrated_int_model();
    let embedded = int_model
        .embed(&[2, 5, 11, 7, 3], &[0, 0, 0, 0, 0])
        .expect("embedding");
    let config = AcceleratorConfig::zcu102_n8_m16();
    let pu = ProcessingUnit::new(
        config.pes_per_pu,
        config.multipliers_per_bim,
        config.bim_variant,
    );

    for (name, layer) in [
        ("query", &int_model.layers[0].query),
        ("key", &int_model.layers[0].key),
        ("ffn1", &int_model.layers[0].ffn1),
    ] {
        let weight = layer.weight_codes();
        let columns: Vec<Vec<i8>> = (0..layer.out_features())
            .map(|c| (0..layer.in_features()).map(|r| weight.row(r)[c]).collect())
            .collect();
        let effective = f64::from(layer.output_scale())
            / (f64::from(layer.input_scale()) * f64::from(layer.weight_scale()));
        let requant = Requantizer::from_scale(effective, 8).expect("scale");
        for row in 0..embedded.dims()[0] {
            let x_row = embedded.row(row);
            let x = IntTensor::from_vec(x_row.to_vec(), &[1, x_row.len()]).expect("shape");
            let reference = layer
                .forward_with_scratch(&x, &mut GemmScratch::new())
                .expect("reference forward");

            let (codes, cycles) = pu.matvec(
                x_row,
                &columns,
                layer.bias_codes().as_slice(),
                &requant,
                OperandMode::Act8Weight4,
            );
            assert_eq!(
                codes,
                reference.as_slice(),
                "PU datapath deviates from the integer engine on {name}, row {row}"
            );
            assert!(cycles > 0);
        }
    }
}

#[test]
fn deployment_models_reproduce_the_published_numbers() {
    let shape = EncoderShape::bert_base();
    let resource_model = ResourceModel::new();
    let power_model = PowerModel::new();
    let published = [
        (AcceleratorConfig::zcu102_n8_m16(), 43.89, 1751u64, 9.8),
        (AcceleratorConfig::zcu102_n16_m8(), 45.35, 1671, 9.8),
        (AcceleratorConfig::zcu111_n16_m16(), 23.79, 3287, 13.2),
    ];
    for (config, latency_ref, dsp_ref, power_ref) in published {
        let latency = cycle_model::estimate_latency(&config, &shape, 12).latency_ms;
        let resources = resource_model.estimate(&config);
        let power = power_model.board_watts(&config);
        assert!(
            (latency - latency_ref).abs() / latency_ref < 0.05,
            "latency {latency} vs {latency_ref} for {config:?}"
        );
        assert_eq!(resources.dsp48, dsp_ref);
        assert!(resources.fits(config.device));
        assert!((power - power_ref).abs() < 0.1);
    }
}

#[test]
fn weight_streaming_is_overlapped_at_published_bandwidths() {
    for config in AcceleratorConfig::table_iii_configs() {
        let trace = Scheduler::new(config).schedule_layer(&EncoderShape::bert_base());
        assert_eq!(
            trace.dma_stall_cycles, 0,
            "DMA must be hidden behind compute"
        );
        assert!(trace.pe_utilization() > 0.9);
    }
}

#[test]
fn fpga_beats_cpu_and_gpu_on_energy_efficiency() {
    let rows = fqbert_bench::platforms::comparison_table(&BertConfig::bert_base(), 128);
    assert_eq!(rows.len(), 4);
    let cpu = &rows[0];
    let gpu = &rows[1];
    let zcu102 = &rows[2];
    let zcu111 = &rows[3];
    assert!(zcu111.fps_per_watt > 10.0 * gpu.fps_per_watt);
    assert!(zcu111.fps_per_watt > 25.0 * cpu.fps_per_watt);
    assert!(zcu102.fps_per_watt > gpu.fps_per_watt);
    assert!(gpu.latency_ms < cpu.latency_ms);
    assert!(zcu111.latency_ms < gpu.latency_ms);
}
