//! Processing Element and Processing Unit (paper §III-B, Fig. 2).
//!
//! A [`ProcessingElement`] wraps one BIM with an accumulator and the
//! requantization step: it computes complete dot products over arbitrarily
//! long vectors, accumulating the BIM's partial sums in int32 and finally
//! pushing the accumulator (plus bias) through the fixed-point requantizer —
//! exactly the PE → Accu → Quant pipeline of Fig. 2. A [`ProcessingUnit`]
//! groups `N` PEs that share the same input vector and produce `N` output
//! elements in parallel (one output column each).
//!
//! Besides being cycle-counted, the datapath is bit-accurate: the
//! workspace-level integration tests check that a matrix–vector product run
//! through a PU equals the integer reference engine of `fqbert-core`.

use crate::bim::Bim;
use crate::config::BimVariant;
use fqbert_quant::Requantizer;

/// Operand bit-width mode of a matrix–vector operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperandMode {
    /// 8-bit activations × 4-bit weights.
    Act8Weight4,
    /// 8-bit activations × 8-bit operands (attention matrices).
    Act8Act8,
}

/// One dot-product Processing Element: a BIM, an accumulator and the output
/// quantization stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessingElement {
    bim: Bim,
    /// Pipeline latency (cycles) of the quantization module; the psum buffer
    /// is double-buffered so this only matters for drain accounting.
    quant_latency: u64,
}

/// Result of one PE dot-product: the requantized output code and the cycles
/// spent in the multiply–accumulate loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeOutput {
    /// Requantized int8 output code.
    pub code: i8,
    /// Raw int32 accumulator value before requantization.
    pub accumulator: i64,
    /// Cycles spent accumulating (excluding the hidden quantization latency).
    pub cycles: u64,
}

impl ProcessingElement {
    /// Creates a PE with `multipliers` 8b×4b multipliers in its BIM.
    pub fn new(multipliers: usize, variant: BimVariant) -> Self {
        Self {
            bim: Bim::new(multipliers, variant),
            quant_latency: 4,
        }
    }

    /// The underlying BIM.
    pub fn bim(&self) -> &Bim {
        &self.bim
    }

    /// Latency of the quantization stage in cycles.
    pub fn quant_latency(&self) -> u64 {
        self.quant_latency
    }

    /// Computes one output element: dot product of `activations` and
    /// `weights`, plus `bias`, requantized with `requant`.
    ///
    /// # Panics
    ///
    /// Panics if the operand lengths differ, or (in debug builds) if a weight
    /// exceeds the 4-bit range in [`OperandMode::Act8Weight4`] mode.
    pub fn dot(
        &self,
        activations: &[i8],
        weights: &[i8],
        bias: i32,
        requant: &Requantizer,
        mode: OperandMode,
    ) -> PeOutput {
        let (sum, cycles) = match mode {
            OperandMode::Act8Weight4 => self.bim.dot_8x4(activations, weights),
            OperandMode::Act8Act8 => self.bim.dot_8x8(activations, weights),
        };
        let accumulator = sum + i64::from(bias);
        let code = requant.apply(accumulator).clamp(-127, 127) as i8;
        PeOutput {
            code,
            accumulator,
            cycles,
        }
    }
}

/// A Processing Unit: `N` PEs sharing the same input vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessingUnit {
    pes: Vec<ProcessingElement>,
}

impl ProcessingUnit {
    /// Creates a PU with `n_pes` PEs of `multipliers` multipliers each.
    pub fn new(n_pes: usize, multipliers: usize, variant: BimVariant) -> Self {
        Self {
            pes: (0..n_pes)
                .map(|_| ProcessingElement::new(multipliers, variant))
                .collect(),
        }
    }

    /// Computes a matrix–vector product `W · x` where `weights` holds one row
    /// per output element (row-major `[out][len]`) — the PU processes the
    /// output elements in groups of `N` PEs working in lock step.
    ///
    /// Returns the output codes and the total cycle count (the slowest PE of
    /// each group determines the group's cycles; quantization is overlapped
    /// except for the final drain).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != biases.len()` or any row length differs
    /// from `x.len()`.
    pub fn matvec(
        &self,
        x: &[i8],
        weights: &[Vec<i8>],
        biases: &[i32],
        requant: &Requantizer,
        mode: OperandMode,
    ) -> (Vec<i8>, u64) {
        assert_eq!(
            weights.len(),
            biases.len(),
            "one bias is required per output element"
        );
        let mut out = Vec::with_capacity(weights.len());
        let mut cycles: u64 = 0;
        for group in weights.chunks(self.pes.len()) {
            let mut group_cycles = 0u64;
            for (pe, row) in self.pes.iter().zip(group.iter()) {
                assert_eq!(row.len(), x.len(), "weight row length must match input");
                let result = pe.dot(x, row, biases[out.len()], requant, mode);
                out.push(result.code);
                group_cycles = group_cycles.max(result.cycles);
            }
            cycles += group_cycles;
        }
        // One final quantization drain that cannot be hidden by the
        // double-buffered psum buffer.
        cycles += self.pes.first().map_or(0, |pe| pe.quant_latency());
        (out, cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bim::exact_dot;

    fn requant_unit() -> Requantizer {
        Requantizer::from_scale(1.0, 8).expect("valid scale")
    }

    #[test]
    fn pe_dot_matches_exact_arithmetic() {
        let pe = ProcessingElement::new(8, BimVariant::TypeA);
        let a: Vec<i8> = (0..64).map(|i| (i % 23 - 11) as i8).collect();
        let w: Vec<i8> = (0..64).map(|i| (i % 15 - 7) as i8).collect();
        let out = pe.dot(&a, &w, 5, &requant_unit(), OperandMode::Act8Weight4);
        assert_eq!(out.accumulator, exact_dot(&a, &w) + 5);
        assert_eq!(out.cycles, 8);
        assert_eq!(i64::from(out.code), out.accumulator.clamp(-127, 127));
    }

    #[test]
    fn pe_8x8_mode_costs_twice_the_cycles() {
        let pe = ProcessingElement::new(16, BimVariant::TypeB);
        let a = vec![3i8; 128];
        let w4 = vec![2i8; 128];
        let w8 = vec![100i8; 128];
        let narrow = pe.dot(&a, &w4, 0, &requant_unit(), OperandMode::Act8Weight4);
        let wide = pe.dot(&a, &w8, 0, &requant_unit(), OperandMode::Act8Act8);
        assert_eq!(narrow.cycles, 8);
        assert_eq!(wide.cycles, 16);
        assert_eq!(wide.accumulator, 128 * 3 * 100);
    }

    #[test]
    fn pu_matvec_matches_scalar_reference() {
        let pu = ProcessingUnit::new(4, 8, BimVariant::TypeA);
        let x: Vec<i8> = (0..32).map(|i| (i as i8) - 16).collect();
        let weights: Vec<Vec<i8>> = (0..10)
            .map(|r| (0..32).map(|c| ((r * 7 + c * 3) % 15 - 7) as i8).collect())
            .collect();
        let biases: Vec<i32> = (0..10).map(|r| r * 3 - 5).collect();
        let requant = Requantizer::from_scale(0.05, 8).unwrap();
        let (codes, cycles) = pu.matvec(&x, &weights, &biases, &requant, OperandMode::Act8Weight4);
        assert_eq!(codes.len(), 10);
        for (r, row) in weights.iter().enumerate() {
            let acc = exact_dot(&x, row) + i64::from(biases[r]);
            let expected = requant.apply(acc).clamp(-127, 127) as i8;
            assert_eq!(codes[r], expected, "output element {r}");
        }
        // 10 outputs over 4 PEs → 3 groups of ceil(32/8)=4 cycles, plus the
        // quantization drain.
        assert_eq!(cycles, 3 * 4 + 4);
    }

    #[test]
    fn pu_cycles_shrink_with_more_pes() {
        let x = vec![1i8; 64];
        let weights: Vec<Vec<i8>> = (0..16).map(|_| vec![1i8; 64]).collect();
        let biases = vec![0i32; 16];
        let requant = requant_unit();
        let small = ProcessingUnit::new(4, 8, BimVariant::TypeA);
        let large = ProcessingUnit::new(16, 8, BimVariant::TypeA);
        let (_, c_small) = small.matvec(&x, &weights, &biases, &requant, OperandMode::Act8Weight4);
        let (_, c_large) = large.matvec(&x, &weights, &biases, &requant, OperandMode::Act8Weight4);
        assert!(c_large < c_small);
    }

    #[test]
    #[should_panic(expected = "one bias is required")]
    fn mismatched_bias_count_panics() {
        let pu = ProcessingUnit::new(2, 4, BimVariant::TypeA);
        let _ = pu.matvec(
            &[1, 2],
            &[vec![1i8, 2]],
            &[],
            &requant_unit(),
            OperandMode::Act8Weight4,
        );
    }
}
