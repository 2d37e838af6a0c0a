//! Accelerator and FPGA-device configuration.

/// The FPGA devices the paper evaluates on, with their available resources
/// (from Table III's device rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpgaDevice {
    /// Xilinx ZCU102 MPSoC board.
    Zcu102,
    /// Xilinx ZCU111 MPSoC board.
    Zcu111,
}

impl FpgaDevice {
    /// Device name as printed in the experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            FpgaDevice::Zcu102 => "ZCU102",
            FpgaDevice::Zcu111 => "ZCU111",
        }
    }

    /// Available BRAM18K blocks.
    pub fn bram18k(self) -> u64 {
        match self {
            FpgaDevice::Zcu102 => 1824,
            FpgaDevice::Zcu111 => 2160,
        }
    }

    /// Available DSP48E slices.
    pub fn dsp48(self) -> u64 {
        match self {
            FpgaDevice::Zcu102 => 2520,
            FpgaDevice::Zcu111 => 4272,
        }
    }

    /// Available flip-flops.
    pub fn ff(self) -> u64 {
        match self {
            FpgaDevice::Zcu102 => 548_160,
            FpgaDevice::Zcu111 => 850_560,
        }
    }

    /// Available LUTs.
    pub fn lut(self) -> u64 {
        match self {
            FpgaDevice::Zcu102 => 274_080,
            FpgaDevice::Zcu111 => 425_280,
        }
    }

    /// Whether the device has UltraRAM (used by the ZCU111 configuration to
    /// offload some buffers, per the footnote of Table III).
    pub fn has_uram(self) -> bool {
        matches!(self, FpgaDevice::Zcu111)
    }

    /// Effective processing-side DDR bandwidth in bytes per second assumed by
    /// the memory model (PS DDR4 through the AXI HP ports).
    pub fn ddr_bandwidth_bytes_per_sec(self) -> f64 {
        match self {
            FpgaDevice::Zcu102 => 12.0e9,
            FpgaDevice::Zcu111 => 17.0e9,
        }
    }
}

impl std::fmt::Display for FpgaDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The variant of the Bit-split Inner-product Module (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BimVariant {
    /// Type A: the shift-add sits after the adder tree (cheaper, requires
    /// rearranged input data).
    #[default]
    TypeA,
    /// Type B: every multiplier has its own shift before the adder tree.
    TypeB,
}

/// Full configuration of one accelerator instance.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorConfig {
    /// Target device.
    pub device: FpgaDevice,
    /// Number of Processing Units (12 in every configuration of Table III).
    pub num_pus: usize,
    /// Number of Processing Elements per PU (the `N` of Table III).
    pub pes_per_pu: usize,
    /// Number of 8b×4b multipliers per BIM (the `M` of Table III).
    pub multipliers_per_bim: usize,
    /// Which BIM variant is instantiated.
    pub bim_variant: BimVariant,
    /// Clock frequency of the programmable-logic part in Hz (214 MHz in the
    /// paper).
    pub frequency_hz: f64,
    /// Weight bit-width streamed from DDR (4 for FQ-BERT).
    pub weight_bits: u32,
    /// Activation bit-width held in the on-chip buffers (8 for FQ-BERT).
    pub activation_bits: u32,
    /// SIMD width of the LN core's pipeline stages.
    pub ln_simd_width: usize,
    /// Number of rows the softmax core processes in parallel.
    pub softmax_lanes: usize,
}

impl AcceleratorConfig {
    /// The ZCU102 configuration with `(N, M) = (8, 16)` — the first row of
    /// Table III.
    pub fn zcu102_n8_m16() -> Self {
        Self {
            device: FpgaDevice::Zcu102,
            num_pus: 12,
            pes_per_pu: 8,
            multipliers_per_bim: 16,
            bim_variant: BimVariant::TypeA,
            frequency_hz: 214.0e6,
            weight_bits: 4,
            activation_bits: 8,
            ln_simd_width: 16,
            softmax_lanes: 8,
        }
    }

    /// The ZCU102 configuration with `(N, M) = (16, 8)` — the second row of
    /// Table III.
    pub fn zcu102_n16_m8() -> Self {
        Self {
            pes_per_pu: 16,
            multipliers_per_bim: 8,
            ..Self::zcu102_n8_m16()
        }
    }

    /// The ZCU111 configuration with `(N, M) = (16, 16)` — the third row of
    /// Table III (double the multipliers of the ZCU102 builds).
    pub fn zcu111_n16_m16() -> Self {
        Self {
            device: FpgaDevice::Zcu111,
            pes_per_pu: 16,
            multipliers_per_bim: 16,
            ..Self::zcu102_n8_m16()
        }
    }

    /// All three published configurations, in Table III order.
    pub fn table_iii_configs() -> Vec<Self> {
        vec![
            Self::zcu102_n8_m16(),
            Self::zcu102_n16_m8(),
            Self::zcu111_n16_m16(),
        ]
    }

    /// Total number of physical 8b×4b multipliers in the PE array.
    pub fn total_multipliers(&self) -> usize {
        self.num_pus * self.pes_per_pu * self.multipliers_per_bim
    }

    /// Peak 8b×4b multiply–accumulate operations per cycle.
    pub fn peak_macs_8x4_per_cycle(&self) -> usize {
        self.total_multipliers()
    }

    /// Peak 8b×8b multiply–accumulate operations per cycle (two 8b×4b
    /// multipliers are fused per product).
    pub fn peak_macs_8x8_per_cycle(&self) -> usize {
        self.total_multipliers() / 2
    }

    /// Validates structural consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_pus == 0 || self.pes_per_pu == 0 || self.multipliers_per_bim == 0 {
            return Err("PU/PE/multiplier counts must be non-zero".to_string());
        }
        if !self.multipliers_per_bim.is_multiple_of(2) {
            return Err(
                "the BIM needs an even number of multipliers to fuse 8b×8b products".to_string(),
            );
        }
        if self.softmax_lanes == 0 || self.ln_simd_width == 0 {
            // The cycle model divides a stage's elements by these.
            return Err("softmax lanes and LN SIMD width must be non-zero".to_string());
        }
        if !(self.frequency_hz.is_finite() && self.frequency_hz > 0.0) {
            return Err("frequency must be positive and finite".to_string());
        }
        if !(2..=8).contains(&self.weight_bits) || self.activation_bits != 8 {
            return Err(format!(
                "unsupported bit-widths: weights {} activations {}",
                self.weight_bits, self.activation_bits
            ));
        }
        Ok(())
    }
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        Self::zcu102_n8_m16()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_configurations_are_valid() {
        for cfg in AcceleratorConfig::table_iii_configs() {
            assert!(cfg.validate().is_ok());
            assert_eq!(cfg.num_pus, 12);
        }
    }

    #[test]
    fn multiplier_counts_match_table_iii() {
        assert_eq!(AcceleratorConfig::zcu102_n8_m16().total_multipliers(), 1536);
        assert_eq!(AcceleratorConfig::zcu102_n16_m8().total_multipliers(), 1536);
        assert_eq!(
            AcceleratorConfig::zcu111_n16_m16().total_multipliers(),
            3072
        );
    }

    #[test]
    fn peak_rates() {
        let cfg = AcceleratorConfig::zcu102_n8_m16();
        assert_eq!(cfg.peak_macs_8x4_per_cycle(), 1536);
        assert_eq!(cfg.peak_macs_8x8_per_cycle(), 768);
    }

    #[test]
    fn device_resources_match_table_iii_header() {
        assert_eq!(FpgaDevice::Zcu102.dsp48(), 2520);
        assert_eq!(FpgaDevice::Zcu102.bram18k(), 1824);
        assert_eq!(FpgaDevice::Zcu111.dsp48(), 4272);
        assert_eq!(FpgaDevice::Zcu111.lut(), 425_280);
        assert!(FpgaDevice::Zcu111.has_uram());
        assert!(!FpgaDevice::Zcu102.has_uram());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let default = AcceleratorConfig::default;
        for cfg in [
            AcceleratorConfig {
                multipliers_per_bim: 7,
                ..default()
            },
            AcceleratorConfig {
                num_pus: 0,
                ..default()
            },
            AcceleratorConfig {
                weight_bits: 16,
                ..default()
            },
            // What the cycle model divides by, and the clock it divides
            // cycles by.
            AcceleratorConfig {
                softmax_lanes: 0,
                ..default()
            },
            AcceleratorConfig {
                ln_simd_width: 0,
                ..default()
            },
            AcceleratorConfig {
                frequency_hz: f64::NAN,
                ..default()
            },
            AcceleratorConfig {
                frequency_hz: f64::INFINITY,
                ..default()
            },
        ] {
            assert!(cfg.validate().is_err(), "{cfg:?}");
        }
    }
}
