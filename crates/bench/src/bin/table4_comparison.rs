//! Table IV: latency, power and energy efficiency (fps/W) of the CPU, GPU
//! and the two FPGA deployments on BERT-base, batch 1, sequence length 128.
//!
//! Run with `cargo run -p fqbert-bench --bin table4_comparison --release`.

use fqbert_bench::platforms::comparison_table;
use fqbert_bench::{markdown_table, save_json};
use fqbert_bert::BertConfig;

fn main() {
    println!(
        "== Table IV reproduction: CPU / GPU / FPGA comparison (BERT-base, batch 1, seq 128) ==\n"
    );
    let rows_data = comparison_table(&BertConfig::bert_base(), 128);
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.platform.clone(),
                format!("{:.2}", r.latency_ms),
                format!("{:.1}", r.power_watts),
                format!("{:.2}", r.fps_per_watt),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(&["platform", "latency (ms)", "power (W)", "fps/W"], &rows)
    );

    let cpu = &rows_data[0];
    let gpu = &rows_data[1];
    let zcu111 = &rows_data[3];
    println!(
        "\nZCU111 vs CPU: {:.2}x latency, {:.2}x fps/W   (paper: 6.10x, 28.91x)",
        zcu111.speedup_over(cpu),
        zcu111.efficiency_gain_over(cpu)
    );
    println!(
        "ZCU111 vs GPU: {:.2}x latency, {:.2}x fps/W   (paper: 1.17x, 12.72x)",
        zcu111.speedup_over(gpu),
        zcu111.efficiency_gain_over(gpu)
    );
    match save_json("table4_comparison", &rows_data) {
        Ok(path) => println!("\nsaved raw results to {}", path.display()),
        Err(e) => eprintln!("could not save results: {e}"),
    }
    println!(
        "\nPaper reference: CPU 145.06 ms / 65 W / 0.11 fps/W, GPU 27.84 ms / 143 W / 0.25 fps/W,\n\
         ZCU102 43.89 ms / 9.8 W / 2.32 fps/W, ZCU111 23.79 ms / 13.2 W / 3.18 fps/W."
    );
}
