//! The CPU / GPU / FPGA comparison of Table IV.

use crate::baseline::{cpu_i7_8700, gpu_k80};
use crate::fpga::FpgaPlatform;
use fqbert_bert::{BertConfig, ModelProfile};

/// One row of the Table IV comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformResult {
    /// Platform name.
    pub platform: String,
    /// Inference latency in milliseconds (batch 1).
    pub latency_ms: f64,
    /// Board / package power in watts.
    pub power_watts: f64,
    /// Frames per second per watt.
    pub fps_per_watt: f64,
}

impl PlatformResult {
    /// Energy-efficiency improvement of this platform over `other`.
    pub fn efficiency_gain_over(&self, other: &PlatformResult) -> f64 {
        self.fps_per_watt / other.fps_per_watt
    }

    /// Latency improvement (speed-up) of this platform over `other`.
    pub fn speedup_over(&self, other: &PlatformResult) -> f64 {
        other.latency_ms / self.latency_ms
    }
}

/// Produces the four rows of Table IV (CPU, GPU, ZCU102, ZCU111) for a BERT
/// configuration at the given sequence length.
pub fn comparison_table(bert: &BertConfig, seq_len: usize) -> Vec<PlatformResult> {
    let profile = ModelProfile::new(bert, seq_len);
    let mut rows = Vec::with_capacity(4);
    for device in [cpu_i7_8700(), gpu_k80()] {
        rows.push(PlatformResult {
            platform: device.name.clone(),
            latency_ms: device.latency_ms(&profile),
            power_watts: device.power_watts,
            fps_per_watt: device.fps_per_watt(&profile),
        });
    }
    for fpga in [FpgaPlatform::zcu102(), FpgaPlatform::zcu111()] {
        rows.push(PlatformResult {
            platform: fpga.name(),
            latency_ms: fpga.latency_ms(bert, seq_len),
            power_watts: fpga.power_watts(),
            fps_per_watt: fpga.fps_per_watt(bert, seq_len),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Vec<PlatformResult> {
        comparison_table(&BertConfig::bert_base(), 128)
    }

    #[test]
    fn table_has_four_rows_in_order() {
        let rows = table();
        assert_eq!(rows.len(), 4);
        assert!(rows[0].platform.contains("i7"));
        assert!(rows[1].platform.contains("K80"));
        assert_eq!(rows[2].platform, "ZCU102");
        assert_eq!(rows[3].platform, "ZCU111");
    }

    #[test]
    fn headline_ratios_match_the_paper_within_ten_percent() {
        let rows = table();
        let cpu = &rows[0];
        let gpu = &rows[1];
        let zcu111 = &rows[3];
        // Paper: 28.91× over CPU and 12.72× over GPU in fps/W.
        let vs_cpu = zcu111.efficiency_gain_over(cpu);
        let vs_gpu = zcu111.efficiency_gain_over(gpu);
        assert!(
            (vs_cpu - 28.91).abs() / 28.91 < 0.10,
            "efficiency gain over CPU {vs_cpu} deviates from 28.91×"
        );
        assert!(
            (vs_gpu - 12.72).abs() / 12.72 < 0.10,
            "efficiency gain over GPU {vs_gpu} deviates from 12.72×"
        );
        // Paper: 6.10× latency improvement over the CPU and 1.17× over the GPU.
        let speed_cpu = zcu111.speedup_over(cpu);
        let speed_gpu = zcu111.speedup_over(gpu);
        assert!(
            (speed_cpu - 6.10).abs() / 6.10 < 0.10,
            "speed-up {speed_cpu}"
        );
        assert!(
            (speed_gpu - 1.17).abs() / 1.17 < 0.10,
            "speed-up {speed_gpu}"
        );
    }

    #[test]
    fn fpga_rows_win_on_efficiency_gpu_wins_cpu_on_latency() {
        let rows = table();
        assert!(rows[3].fps_per_watt > rows[2].fps_per_watt);
        assert!(rows[2].fps_per_watt > rows[1].fps_per_watt);
        assert!(rows[1].fps_per_watt > rows[0].fps_per_watt);
        assert!(rows[1].latency_ms < rows[0].latency_ms);
        assert!(rows[3].latency_ms < rows[1].latency_ms);
    }
}
