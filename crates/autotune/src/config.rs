//! The searchable bit-width assignment: one weight width per layer per
//! matrix site.
//!
//! [`BitConfig`] is the genome of the search and the unit every oracle
//! consumes: the cycle model prices it, the accuracy evaluator assembles an
//! integer model from it, and the CLI round-trips it as text (`Display` /
//! `FromStr`), e.g. `448888/444444` for a two-layer model whose first layer
//! keeps Q/K at 4 bits and everything else at 8.

use crate::error::{AutotuneError, Result};
use fqbert_quant::{LayerBits, LAYER_SITES};
use std::fmt;
use std::str::FromStr;

/// Per-layer, per-site weight bit-width assignment for a whole encoder
/// stack.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitConfig {
    /// One [`LayerBits`] per encoder layer, in layer order.
    pub layers: Vec<LayerBits>,
}

impl BitConfig {
    /// Every site of every layer at the same width.
    pub fn uniform(layers: usize, bits: u32) -> Self {
        Self {
            layers: vec![LayerBits::uniform(bits); layers],
        }
    }

    /// Number of encoder layers covered.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total number of independently searchable sites.
    pub fn num_sites(&self) -> usize {
        self.layers.len() * LAYER_SITES
    }

    /// The width of flat site `index` (layer-major, site order of
    /// [`fqbert_quant::LAYER_SITE_NAMES`]).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.num_sites()`.
    pub fn get(&self, index: usize) -> u32 {
        self.layers[index / LAYER_SITES].get(index % LAYER_SITES)
    }

    /// Sets the width of flat site `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.num_sites()`.
    pub fn set(&mut self, index: usize, bits: u32) {
        self.layers[index / LAYER_SITES].set(index % LAYER_SITES, bits);
    }

    /// Widest site anywhere in the stack (the artifact's headline width).
    pub fn max_bits(&self) -> u32 {
        self.layers
            .iter()
            .map(LayerBits::max_bits)
            .max()
            .unwrap_or(0)
    }

    /// `Some(bits)` when every site of every layer shares one width.
    pub fn uniform_bits(&self) -> Option<u32> {
        let first = self.layers.first()?.uniform_bits()?;
        self.layers
            .iter()
            .all(|l| l.uniform_bits() == Some(first))
            .then_some(first)
    }

    /// Total weight bits across the stack, the storage-cost tiebreaker used
    /// by the search when two configs price identically in cycles.
    pub fn total_bits(&self) -> u64 {
        self.layers
            .iter()
            .flat_map(|l| l.as_array())
            .map(u64::from)
            .sum()
    }

    /// Checks the assignment is non-empty and every width representable.
    ///
    /// # Errors
    ///
    /// Returns [`AutotuneError::InvalidConfig`] describing the first
    /// violation.
    pub fn validate(&self) -> Result<()> {
        if self.layers.is_empty() {
            return Err(AutotuneError::InvalidConfig(
                "a bit configuration needs at least one layer".to_string(),
            ));
        }
        for (l, bits) in self.layers.iter().enumerate() {
            bits.validate()
                .map_err(|e| AutotuneError::InvalidConfig(format!("layer {l}: {e}")))?;
        }
        Ok(())
    }
}

impl fmt::Display for BitConfig {
    /// One digit per site, six digits per layer, layers joined with `/`:
    /// `448888/444444`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (l, layer) in self.layers.iter().enumerate() {
            if l > 0 {
                f.write_str("/")?;
            }
            for bits in layer.as_array() {
                write!(f, "{bits}")?;
            }
        }
        Ok(())
    }
}

impl FromStr for BitConfig {
    type Err = AutotuneError;

    fn from_str(s: &str) -> Result<Self> {
        let mut layers = Vec::new();
        for (l, part) in s.split('/').enumerate() {
            let digits: Vec<u32> = part
                .chars()
                .map(|c| {
                    c.to_digit(10).ok_or_else(|| {
                        AutotuneError::InvalidConfig(format!(
                            "layer {l}: `{c}` is not a bit-width digit"
                        ))
                    })
                })
                .collect::<Result<_>>()?;
            if digits.len() != LAYER_SITES {
                return Err(AutotuneError::InvalidConfig(format!(
                    "layer {l}: `{part}` has {} digits, expected {LAYER_SITES}",
                    digits.len()
                )));
            }
            let mut array = [0u32; LAYER_SITES];
            array.copy_from_slice(&digits);
            layers.push(LayerBits::from_array(array));
        }
        let config = Self { layers };
        config.validate()?;
        Ok(config)
    }
}

impl fqbert_bench::ToJson for BitConfig {
    fn to_json(&self) -> fqbert_bench::Json {
        fqbert_bench::Json::str(self.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_round_trip() {
        let mut cfg = BitConfig::uniform(2, 4);
        cfg.set(2, 8); // layer 0, site v
        cfg.set(9, 2); // layer 1, site attn_output
        let text = cfg.to_string();
        assert_eq!(text, "448444/444244");
        assert_eq!(text.parse::<BitConfig>().unwrap(), cfg);
        assert_eq!(cfg.max_bits(), 8);
        assert_eq!(cfg.uniform_bits(), None);
        assert_eq!(BitConfig::uniform(3, 4).uniform_bits(), Some(4));
    }

    #[test]
    fn flat_indexing_is_layer_major() {
        let mut cfg = BitConfig::uniform(2, 4);
        cfg.set(7, 8);
        assert_eq!(cfg.layers[1].k, 8);
        assert_eq!(cfg.get(7), 8);
        assert_eq!(cfg.num_sites(), 12);
        assert_eq!(cfg.total_bits(), 11 * 4 + 8);
    }

    #[test]
    fn malformed_texts_are_rejected() {
        assert!("44844".parse::<BitConfig>().is_err(), "five digits");
        assert!("44x444".parse::<BitConfig>().is_err(), "non-digit");
        assert!("444444/44".parse::<BitConfig>().is_err(), "short layer");
        assert!("944444".parse::<BitConfig>().is_err(), "out of range");
        assert!("414444".parse::<BitConfig>().is_err(), "below range");
        assert!("".parse::<BitConfig>().is_err(), "empty");
    }
}
