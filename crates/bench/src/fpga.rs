//! FPGA platform wrapper bridging the accelerator simulator into the
//! platform comparison.

use fqbert_accel::dataflow::EncoderShape;
use fqbert_accel::{cycle_model, AcceleratorConfig, PowerModel};
use fqbert_bert::BertConfig;

/// One FPGA deployment of the FQ-BERT accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaPlatform {
    /// Accelerator configuration (device, PU/PE/BIM dimensions, clock).
    pub config: AcceleratorConfig,
    /// Power model used for the energy-efficiency column.
    pub power: PowerModel,
}

impl FpgaPlatform {
    /// Creates a platform from an accelerator configuration with the default
    /// calibrated power model.
    pub fn new(config: AcceleratorConfig) -> Self {
        Self {
            config,
            power: PowerModel::new(),
        }
    }

    /// The ZCU102 deployment of Table IV ((N, M) = (8, 16)).
    pub fn zcu102() -> Self {
        Self::new(AcceleratorConfig::zcu102_n8_m16())
    }

    /// The ZCU111 deployment of Table IV ((N, M) = (16, 16)).
    pub fn zcu111() -> Self {
        Self::new(AcceleratorConfig::zcu111_n16_m16())
    }

    /// Display name (the device name).
    pub fn name(&self) -> String {
        self.config.device.name().to_string()
    }

    /// Converts a BERT configuration + sequence length into the encoder
    /// shape consumed by the cycle model.
    pub fn shape_for(config: &BertConfig, seq_len: usize) -> EncoderShape {
        EncoderShape {
            seq_len,
            hidden: config.hidden,
            intermediate: config.intermediate,
            heads: config.heads,
        }
    }

    /// Inference latency in milliseconds for a BERT configuration.
    pub fn latency_ms(&self, bert: &BertConfig, seq_len: usize) -> f64 {
        let shape = Self::shape_for(bert, seq_len);
        cycle_model::estimate_latency(&self.config, &shape, bert.layers).latency_ms
    }

    /// Board power in watts.
    pub fn power_watts(&self) -> f64 {
        self.power.board_watts(&self.config)
    }

    /// Frames per second per watt for a BERT configuration.
    pub fn fps_per_watt(&self, bert: &BertConfig, seq_len: usize) -> f64 {
        self.power
            .fps_per_watt(&self.config, self.latency_ms(bert, seq_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zcu111_reaches_published_efficiency() {
        let platform = FpgaPlatform::zcu111();
        let fpw = platform.fps_per_watt(&BertConfig::bert_base(), 128);
        assert!((fpw - 3.18).abs() < 0.2, "ZCU111 fps/W {fpw}");
    }

    #[test]
    fn zcu102_latency_and_power() {
        let platform = FpgaPlatform::zcu102();
        let ms = platform.latency_ms(&BertConfig::bert_base(), 128);
        assert!((ms - 43.89).abs() / 43.89 < 0.05);
        assert!((platform.power_watts() - 9.8).abs() < 0.1);
    }

    #[test]
    fn shape_conversion_preserves_dimensions() {
        let shape = FpgaPlatform::shape_for(&BertConfig::bert_base(), 128);
        assert_eq!(shape.hidden, 768);
        assert_eq!(shape.heads, 12);
        assert_eq!(shape.seq_len, 128);
    }
}
