//! Cost of the accelerator cycle model itself (it is evaluated thousands of
//! times by design-space sweeps, so its own cost matters), plus the
//! scheduler over the three published configurations. Run with
//! `cargo bench -p fqbert-bench --bench accelerator_sweep`.

use fqbert_accel::dataflow::EncoderShape;
use fqbert_accel::{cycle_model, AcceleratorConfig, ResourceModel, Scheduler};
use fqbert_bench::time_ns;
use std::hint::black_box;

fn main() {
    let shape = EncoderShape::bert_base();
    for config in AcceleratorConfig::table_iii_configs() {
        let label = format!(
            "{}_{}x{}",
            config.device.name(),
            config.pes_per_pu,
            config.multipliers_per_bim
        );
        let estimate = time_ns(|| cycle_model::estimate_latency(black_box(&config), &shape, 12));
        println!("accelerator_models latency_estimate/{label}: {estimate:.1} ns");
        let scheduler = Scheduler::new(config.clone());
        let schedule = time_ns(|| scheduler.schedule_layer(black_box(&shape)));
        println!("accelerator_models layer_schedule/{label}: {schedule:.1} ns");
    }
    let resource_model = ResourceModel::new();
    let config = AcceleratorConfig::zcu111_n16_m16();
    let resources = time_ns(|| resource_model.estimate(black_box(&config)));
    println!("accelerator_models resource_estimate: {resources:.1} ns");
}
