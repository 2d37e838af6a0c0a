//! The Bit-split Inner-product Module (BIM) — paper §III-B and Fig. 4.
//!
//! Each BIM contains `M = 2m` physical 8-bit × 4-bit multipliers, two
//! m-input adder trees and shift-add logic, and supports two operating modes
//! that are selected at run time:
//!
//! * **8b×4b** (activations × 4-bit weights, the `X·W` projections and FFN
//!   matrices): all `M` multipliers produce independent products, giving `M`
//!   MACs per cycle.
//! * **8b×8b** (activations × 8-bit operands, the `Q·Kᵀ` and `Attn·V`
//!   products): every 8-bit operand is split into a signed high nibble and an
//!   unsigned low nibble, each handled by one multiplier; the two partial
//!   products are recombined with a left shift by 4, giving `M/2` MACs per
//!   cycle.
//!
//! The shift can be placed **after the adder tree** (Type A — a single shifter
//! per BIM, but the operands must be rearranged so all high-nibble products
//! land in one tree) or **per multiplier** (Type B — `m` shifters and wider
//! adders). Both produce bit-identical results; Type A is cheaper, which is
//! exactly the trade-off Fig. 4 illustrates.
//!
//! The CPU engine has the same primitive in software: for 4-bit weights
//! `fqbert_tensor::gemm` keeps both operands bytes and multiplies 8b × 4b
//! products four to a 32-bit lane (`vpmaddubsw` / `vpdpbusd` in
//! `crates/tensor/src/gemm/kernels/x86.rs`, over the biased-nibble k-quad
//! panels described in the `gemm` module docs), where 8-bit weights take
//! the `i16 × i16` path at half the products per instruction — the
//! `w4_over_w8` column of the `kernel_rows` bench
//! (`crates/bench/benches/kernel_rows.rs`) is that ratio measured.

use crate::config::BimVariant;

/// Re-export of the BIM variant selector.
pub type BimType = BimVariant;

/// Resource cost of one BIM instance (used by Fig. 4 and the resource model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BimResources {
    /// Number of 8b×4b multipliers.
    pub multipliers: usize,
    /// Number of two-input adders across the adder trees.
    pub adders: usize,
    /// Number of 4-bit left shifters.
    pub shifters: usize,
    /// Total adder bit-width (a proxy for LUT cost: Type B shifts before
    /// adding, so its adders are 4 bits wider).
    pub adder_bits: usize,
}

/// A bit-accurate model of one BIM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bim {
    m_total: usize,
    variant: BimVariant,
}

impl Bim {
    /// Creates a BIM with `m_total` 8b×4b multipliers of the given variant.
    ///
    /// # Panics
    ///
    /// Panics if `m_total` is zero or odd (8b×8b fusion needs multiplier
    /// pairs).
    pub fn new(m_total: usize, variant: BimVariant) -> Self {
        assert!(
            m_total > 0 && m_total.is_multiple_of(2),
            "BIM needs a positive, even multiplier count, got {m_total}"
        );
        Self { m_total, variant }
    }

    /// Number of physical 8b×4b multipliers.
    pub fn multipliers(&self) -> usize {
        self.m_total
    }

    /// The structural variant (Type A or Type B).
    pub fn variant(&self) -> BimVariant {
        self.variant
    }

    /// One signed 8-bit × signed 4-bit product (the primitive DSP operation).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `weight` is outside the signed 4-bit range.
    pub fn multiply_8x4(activation: i8, weight: i8) -> i32 {
        debug_assert!(
            (-8..=7).contains(&weight),
            "4-bit weight {weight} out of range"
        );
        i32::from(activation) * i32::from(weight)
    }

    /// Splits a signed 8-bit operand into `(high_nibble_signed, low_nibble_unsigned)`
    /// such that `value = high * 16 + low`.
    pub fn split_nibbles(value: i8) -> (i8, u8) {
        let low = (value as u8) & 0x0F;
        let high = value as i32 - i32::from(low);
        ((high >> 4) as i8, low)
    }

    /// Dot product in 8b×4b mode. Returns the signed partial sum and the
    /// number of cycles consumed (`ceil(len / M)`).
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or a weight exceeds the
    /// 4-bit range (debug builds).
    pub fn dot_8x4(&self, activations: &[i8], weights: &[i8]) -> (i64, u64) {
        assert_eq!(
            activations.len(),
            weights.len(),
            "operand vectors must have equal length"
        );
        let mut sum: i64 = 0;
        let mut cycles: u64 = 0;
        for (a_chunk, w_chunk) in activations
            .chunks(self.m_total)
            .zip(weights.chunks(self.m_total))
        {
            // One cycle: M parallel multipliers feeding the two adder trees.
            let mut tree_lo: i64 = 0;
            let mut tree_hi: i64 = 0;
            for (i, (&a, &w)) in a_chunk.iter().zip(w_chunk.iter()).enumerate() {
                let p = i64::from(Self::multiply_8x4(a, w));
                if i % 2 == 0 {
                    tree_lo += p;
                } else {
                    tree_hi += p;
                }
            }
            sum += tree_lo + tree_hi;
            cycles += 1;
        }
        (sum, cycles)
    }

    /// Dot product in 8b×8b mode (both operands signed 8-bit). Returns the
    /// signed partial sum and the number of cycles (`ceil(len / (M/2))`).
    ///
    /// The arithmetic follows the selected variant exactly; both variants are
    /// proven equal to the exact product by the property tests.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn dot_8x8(&self, activations: &[i8], operands: &[i8]) -> (i64, u64) {
        assert_eq!(
            activations.len(),
            operands.len(),
            "operand vectors must have equal length"
        );
        let pairs_per_cycle = self.m_total / 2;
        let mut sum: i64 = 0;
        let mut cycles: u64 = 0;
        for (a_chunk, w_chunk) in activations
            .chunks(pairs_per_cycle)
            .zip(operands.chunks(pairs_per_cycle))
        {
            match self.variant {
                BimVariant::TypeA => {
                    // Operands are rearranged so every low-nibble product goes
                    // to one tree and every high-nibble product to the other;
                    // a single shift is applied to the high tree's output.
                    let mut tree_low: i64 = 0;
                    let mut tree_high: i64 = 0;
                    for (&a, &w) in a_chunk.iter().zip(w_chunk.iter()) {
                        let (hi, lo) = Self::split_nibbles(w);
                        // Low-nibble multiplier runs unsigned (sign signal 0).
                        tree_low += i64::from(i32::from(a) * i32::from(lo));
                        tree_high += i64::from(Self::multiply_8x4(a, hi));
                    }
                    sum += (tree_high << 4) + tree_low;
                }
                BimVariant::TypeB => {
                    // Each high-nibble product is shifted before entering the
                    // shared adder tree.
                    let mut tree: i64 = 0;
                    for (&a, &w) in a_chunk.iter().zip(w_chunk.iter()) {
                        let (hi, lo) = Self::split_nibbles(w);
                        let p_lo = i64::from(i32::from(a) * i32::from(lo));
                        let p_hi = i64::from(Self::multiply_8x4(a, hi)) << 4;
                        tree += p_hi + p_lo;
                    }
                    sum += tree;
                }
            }
            cycles += 1;
        }
        (sum, cycles)
    }

    /// Structural resource cost of this BIM instance.
    pub fn resources(&self) -> BimResources {
        let m = self.m_total / 2;
        match self.variant {
            BimVariant::TypeA => BimResources {
                multipliers: self.m_total,
                // Two m-input adder trees plus the final combining adder.
                adders: 2 * m.saturating_sub(1) + 1,
                shifters: 1,
                // Tree adders stay at the 12-bit product width; only the
                // final adder is widened by the shift.
                adder_bits: 2 * m.saturating_sub(1) * 16 + 20,
            },
            BimVariant::TypeB => BimResources {
                multipliers: self.m_total,
                adders: 2 * m.saturating_sub(1) + 1,
                shifters: m,
                // Every adder after the per-multiplier shift is 4 bits wider.
                adder_bits: (2 * m.saturating_sub(1) + 1) * 20,
            },
        }
    }

    /// Peak MACs per cycle in 8b×4b mode.
    pub fn peak_macs_8x4(&self) -> usize {
        self.m_total
    }

    /// Peak MACs per cycle in 8b×8b mode.
    pub fn peak_macs_8x8(&self) -> usize {
        self.m_total / 2
    }
}

/// Exact signed dot product used as the reference in tests.
pub fn exact_dot(a: &[i8], b: &[i8]) -> i64 {
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| i64::from(x) * i64::from(y))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nibble_split_recomposes() {
        for v in i8::MIN..=i8::MAX {
            let (hi, lo) = Bim::split_nibbles(v);
            assert!((-8..=7).contains(&hi), "high nibble {hi} out of range");
            assert!(lo <= 15);
            assert_eq!(i32::from(hi) * 16 + i32::from(lo), i32::from(v));
        }
    }

    #[test]
    fn dot_8x4_matches_exact_product() {
        let bim = Bim::new(16, BimVariant::TypeA);
        let a: Vec<i8> = (0..100).map(|i| ((i * 37) % 255 - 127) as i8).collect();
        let w: Vec<i8> = (0..100).map(|i| ((i * 13) % 15 - 7) as i8).collect();
        let (sum, cycles) = bim.dot_8x4(&a, &w);
        assert_eq!(sum, exact_dot(&a, &w));
        assert_eq!(cycles, 100u64.div_ceil(16));
    }

    #[test]
    fn dot_8x8_both_variants_match_exact_product() {
        let a: Vec<i8> = (0..77).map(|i| ((i * 91) % 255 - 127) as i8).collect();
        let w: Vec<i8> = (0..77).map(|i| ((i * 53) % 255 - 127) as i8).collect();
        for variant in [BimVariant::TypeA, BimVariant::TypeB] {
            let bim = Bim::new(8, variant);
            let (sum, cycles) = bim.dot_8x8(&a, &w);
            assert_eq!(sum, exact_dot(&a, &w), "variant {variant:?}");
            assert_eq!(cycles, 77u64.div_ceil(4));
        }
    }

    #[test]
    fn cycle_counts_scale_with_multipliers() {
        let a = vec![1i8; 256];
        let w = vec![1i8; 256];
        let small = Bim::new(8, BimVariant::TypeA);
        let large = Bim::new(32, BimVariant::TypeA);
        assert_eq!(small.dot_8x4(&a, &w).1, 32);
        assert_eq!(large.dot_8x4(&a, &w).1, 8);
        assert_eq!(small.dot_8x8(&a, &w).1, 64);
        assert_eq!(large.dot_8x8(&a, &w).1, 16);
    }

    #[test]
    fn type_a_uses_fewer_shifters_than_type_b() {
        let a = Bim::new(16, BimVariant::TypeA).resources();
        let b = Bim::new(16, BimVariant::TypeB).resources();
        assert_eq!(a.multipliers, b.multipliers);
        assert_eq!(a.adders, b.adders);
        assert!(a.shifters < b.shifters, "Type A must need fewer shifters");
        assert!(a.adder_bits < b.adder_bits, "Type A adders are narrower");
    }

    #[test]
    fn peak_rates() {
        let bim = Bim::new(16, BimVariant::TypeA);
        assert_eq!(bim.peak_macs_8x4(), 16);
        assert_eq!(bim.peak_macs_8x8(), 8);
    }

    #[test]
    #[should_panic(expected = "even multiplier count")]
    fn odd_multiplier_count_panics() {
        let _ = Bim::new(3, BimVariant::TypeA);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let bim = Bim::new(4, BimVariant::TypeA);
        let _ = bim.dot_8x4(&[1, 2], &[1]);
    }
}
