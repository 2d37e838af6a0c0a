//! Roofline-style CPU and GPU baseline models.

use fqbert_bert::ModelProfile;

/// An analytical model of a general-purpose device running the float BERT.
///
/// Latency is the roofline maximum of the compute time (FLOPs over the
/// *effective* throughput, i.e. peak × batch-1 efficiency) and the memory
/// time (weight bytes over the sustained bandwidth). The efficiency constants
/// are calibrated against the latencies reported in Table IV and documented
/// as such.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceModel {
    /// Device name as it appears in the comparison table.
    pub name: String,
    /// Peak single-precision throughput in GFLOP/s.
    pub peak_gflops: f64,
    /// Fraction of peak achieved on batch-1 BERT inference (calibrated).
    pub batch1_efficiency: f64,
    /// Sustained memory bandwidth in GB/s.
    pub memory_bandwidth_gbps: f64,
    /// Board / package power in watts (taken from the paper's Table IV).
    pub power_watts: f64,
}

impl DeviceModel {
    /// Latency of one inference of the profiled model, in milliseconds.
    pub fn latency_ms(&self, profile: &ModelProfile) -> f64 {
        let flops = profile.total_flops() as f64;
        let compute_ms = flops / (self.peak_gflops * 1e9 * self.batch1_efficiency) * 1e3;
        // Batch-1 inference has to stream every FP32 weight at least once.
        let bytes = profile.weight_bytes_fp32() as f64;
        let memory_ms = bytes / (self.memory_bandwidth_gbps * 1e9) * 1e3;
        compute_ms.max(memory_ms)
    }

    /// Frames (inferences) per second.
    pub fn fps(&self, profile: &ModelProfile) -> f64 {
        1e3 / self.latency_ms(profile)
    }

    /// Frames per second per watt, the energy-efficiency metric of Table IV.
    pub fn fps_per_watt(&self, profile: &ModelProfile) -> f64 {
        self.fps(profile) / self.power_watts
    }
}

/// The Intel Core i7-8700 model used as the CPU baseline.
///
/// Peak: 6 cores × 3.2 GHz × 2 AVX2 FMA ports × 8 lanes × 2 ops ≈ 614 GFLOP/s.
/// The batch-1 efficiency is calibrated so that BERT-base at sequence length
/// 128 lands on the paper's 145.06 ms.
pub fn cpu_i7_8700() -> DeviceModel {
    DeviceModel {
        name: "Intel Core i7-8700".to_string(),
        peak_gflops: 614.0,
        batch1_efficiency: 0.251,
        memory_bandwidth_gbps: 41.6,
        power_watts: 65.0,
    }
}

/// The NVIDIA K80 model used as the GPU baseline (one GK210 die, as used for
/// single-stream inference).
///
/// Peak: ≈ 4 370 GFLOP/s FP32. The batch-1 efficiency is calibrated so that
/// BERT-base at sequence length 128 lands on the paper's 27.84 ms — batch-1
/// transformer inference leaves most of a K80 idle, hence the low fraction.
pub fn gpu_k80() -> DeviceModel {
    DeviceModel {
        name: "NVIDIA K80".to_string(),
        peak_gflops: 4_370.0,
        batch1_efficiency: 0.184,
        memory_bandwidth_gbps: 240.0,
        power_watts: 143.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fqbert_bert::BertConfig;

    fn bert_base_profile() -> ModelProfile {
        ModelProfile::new(&BertConfig::bert_base(), 128)
    }

    #[test]
    fn cpu_latency_matches_table_iv() {
        let ms = cpu_i7_8700().latency_ms(&bert_base_profile());
        assert!(
            (ms - 145.06).abs() / 145.06 < 0.05,
            "CPU latency {ms} ms deviates from 145.06 ms"
        );
    }

    #[test]
    fn gpu_latency_matches_table_iv() {
        let ms = gpu_k80().latency_ms(&bert_base_profile());
        assert!(
            (ms - 27.84).abs() / 27.84 < 0.05,
            "GPU latency {ms} ms deviates from 27.84 ms"
        );
    }

    #[test]
    fn fps_per_watt_matches_table_iv() {
        let profile = bert_base_profile();
        let cpu = cpu_i7_8700().fps_per_watt(&profile);
        let gpu = gpu_k80().fps_per_watt(&profile);
        assert!((cpu - 0.11).abs() < 0.02, "CPU fps/W {cpu}");
        assert!((gpu - 0.25).abs() < 0.03, "GPU fps/W {gpu}");
    }

    #[test]
    fn gpu_is_faster_but_less_efficient_than_fpga_band() {
        let profile = bert_base_profile();
        assert!(gpu_k80().latency_ms(&profile) < cpu_i7_8700().latency_ms(&profile));
        // Both general-purpose devices stay below 1 fps/W, far from the
        // accelerator's 2–3 fps/W band.
        assert!(gpu_k80().fps_per_watt(&profile) < 1.0);
        assert!(cpu_i7_8700().fps_per_watt(&profile) < 1.0);
    }

    #[test]
    fn latency_grows_with_sequence_length() {
        let cfg = BertConfig::bert_base();
        let short = ModelProfile::new(&cfg, 64);
        let long = ModelProfile::new(&cfg, 128);
        let model = cpu_i7_8700();
        assert!(model.latency_ms(&long) > model.latency_ms(&short));
    }
}
