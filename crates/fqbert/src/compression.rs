//! Model-size accounting and the compression ratio of Table I.
//!
//! The paper reports a 7.94× compression of the weights when the linear-layer
//! weights go to 4 bits while biases, layer-norm parameters and scale factors
//! stay at higher precision. [`CompressionReport`] reproduces that accounting
//! for any model/bit-width combination, counting every parameter category
//! explicitly — the embedding as the integer engine ships it: an 8-bit word
//! table and an 8-bit table of every position×segment sum, one scale each.

use fqbert_bert::BertModel;
use fqbert_quant::QuantConfig;

/// Byte-level size accounting of a BERT model before and after quantization.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressionReport {
    /// Weight bit-width applied to the linear-layer matrices.
    pub weight_bits: u32,
    /// Activation bit-width (affects runtime buffers, not model size).
    pub activation_bits: u32,
    /// Bytes of the FP32 baseline (all parameters at 32 bits).
    pub fp32_bytes: u64,
    /// Bytes of the quantized model.
    pub quantized_bytes: u64,
    /// Bytes of the quantized encoder matrices alone.
    pub quantized_matrix_bytes: u64,
    /// Bytes of parameters kept at high precision (biases, layer norms,
    /// classifier, per-tensor scale factors) plus the embedding.
    pub high_precision_bytes: u64,
    /// Bytes of the embedding tables: the word and position×segment code
    /// tables and their two scales when weights are quantized (what the
    /// artifact stores), the three `f32` tables otherwise.
    pub embedding_bytes: u64,
    /// Number of per-tensor scale factors stored.
    pub scale_factors: usize,
}

impl CompressionReport {
    /// Computes the report for `model` quantized according to `config`.
    ///
    /// With weights quantized, the embedding is a `vocab × hidden` table of
    /// 8-bit word codes and a `(max_len · type_vocab) × hidden` table of
    /// 8-bit codes of the position + segment sums, one 32-bit scale each;
    /// the classifier stays in float; encoder matrices take `weight_bits`
    /// bits each; biases take 32 bits; layer-norm parameters take
    /// `layer_norm_bits`; every quantized tensor carries one 32-bit scale.
    pub fn for_model(model: &BertModel, config: &QuantConfig) -> Self {
        let cfg = model.config();
        let h = cfg.hidden as u64;
        let i = cfg.intermediate as u64;
        let layers = cfg.layers as u64;

        let matrix_params = layers * (4 * h * h + h * i + i * h);
        let bias_params = layers * (4 * h + i + h);
        let ln_params = layers * 4 * h + 2 * h; // per-layer LNs + embedding LN
        let embedding_params = ((cfg.vocab_size + cfg.max_len + cfg.type_vocab_size) as u64) * h;
        let classifier_params = h * cfg.num_classes as u64 + cfg.num_classes as u64;

        let total_params =
            matrix_params + bias_params + ln_params + embedding_params + classifier_params;
        let fp32_bytes = 4 * total_params;

        let weight_bits = if config.quantize_weights_activations {
            config.weight_bits
        } else {
            32
        };
        let ln_bits = if config.quantize_layer_norm {
            config.layer_norm_bits
        } else {
            32
        };
        // One scale per quantized matrix (Q, K, V, O, FFN1, FFN2) and one per
        // activation tensor feeding it; stored as 32-bit values.
        let scale_factors = if config.quantize_weights_activations {
            (layers * 6 * 2) as usize
        } else {
            0
        };

        let quantized_matrix_bytes = (matrix_params * u64::from(weight_bits)).div_ceil(8);
        let bias_bytes = bias_params * 4;
        let ln_bytes = (ln_params * u64::from(ln_bits)).div_ceil(8);
        let embedding_bytes = if config.quantize_weights_activations {
            let position_segment = (cfg.max_len * cfg.type_vocab_size) as u64 * h;
            cfg.vocab_size as u64 * h + position_segment + 2 * 4
        } else {
            embedding_params * 4
        };
        let classifier_bytes = classifier_params * 4;
        let scale_bytes = scale_factors as u64 * 4;
        let high_precision_bytes =
            bias_bytes + ln_bytes + embedding_bytes + classifier_bytes + scale_bytes;
        let quantized_bytes = quantized_matrix_bytes + high_precision_bytes;

        Self {
            weight_bits,
            activation_bits: config.activation_bits,
            fp32_bytes,
            quantized_bytes,
            quantized_matrix_bytes,
            high_precision_bytes,
            embedding_bytes,
            scale_factors,
        }
    }

    /// Whole-model compression ratio (FP32 bytes / quantized bytes).
    pub fn ratio(&self) -> f64 {
        self.fp32_bytes as f64 / self.quantized_bytes as f64
    }

    /// Compression ratio of the encoder weight matrices alone — the quantity
    /// the paper's 7.94× refers to (weights only, excluding the embeddings).
    pub fn encoder_weight_ratio(&self) -> f64 {
        let matrix_params_fp32 =
            self.quantized_matrix_bytes as f64 * 32.0 / self.weight_bits as f64;
        matrix_params_fp32 / self.quantized_matrix_bytes as f64
    }

    /// Encoder-level compression ratio including the high-precision
    /// parameters that must ship with the encoder (biases, layer norms,
    /// scale factors) but excluding the embeddings and the classifier.
    pub fn encoder_ratio(&self, model: &BertModel) -> f64 {
        let cfg = model.config();
        let h = cfg.hidden as u64;
        let i = cfg.intermediate as u64;
        let layers = cfg.layers as u64;
        let matrix_params = layers * (4 * h * h + h * i + i * h);
        let bias_params = layers * (4 * h + i + h);
        let ln_params = layers * 4 * h;
        let fp32 = 4 * (matrix_params + bias_params + ln_params);
        let quant = (matrix_params * u64::from(self.weight_bits)).div_ceil(8)
            + bias_params * 4
            + ln_params
            + self.scale_factors as u64 * 4;
        fp32 as f64 / quant as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fqbert_bert::BertConfig;

    #[test]
    fn four_bit_encoder_ratio_is_near_eight() {
        // Use the BERT-base shape for the headline number; the model weights
        // themselves are irrelevant to the byte accounting, so a tiny vocab
        // keeps construction fast.
        let mut cfg = BertConfig::bert_base();
        cfg.vocab_size = 100;
        cfg.max_len = 16;
        let model = BertModel::new(cfg, 0);
        let report = CompressionReport::for_model(&model, &QuantConfig::fq_bert());
        let ratio = report.encoder_ratio(&model);
        assert!(
            (7.5..8.0).contains(&ratio),
            "encoder compression ratio {ratio} not in the expected 7.5–8.0 band"
        );
        assert_eq!(report.encoder_weight_ratio(), 8.0);
    }

    #[test]
    fn eight_bit_ratio_is_near_four() {
        let model = BertModel::new(BertConfig::tiny(50, 16, 2), 0);
        let report = CompressionReport::for_model(&model, &QuantConfig::w8a8());
        let ratio = report.encoder_ratio(&model);
        assert!((3.7..4.0).contains(&ratio), "8-bit encoder ratio {ratio}");
    }

    #[test]
    fn float_baseline_has_ratio_one() {
        let model = BertModel::new(BertConfig::tiny(50, 16, 2), 0);
        let report = CompressionReport::for_model(&model, &QuantConfig::float_baseline());
        assert!((report.ratio() - 1.0).abs() < 0.01);
        assert_eq!(report.scale_factors, 0);
    }

    #[test]
    fn whole_model_ratio_is_below_encoder_ratio() {
        // Embeddings are 8-bit and the head float, so the whole-model ratio
        // must be lower than the 4-bit encoder-only ratio.
        let model = BertModel::new(BertConfig::tiny(500, 32, 2), 0);
        let report = CompressionReport::for_model(&model, &QuantConfig::fq_bert());
        assert!(report.ratio() < report.encoder_ratio(&model));
        assert!(report.ratio() > 1.0);
    }

    #[test]
    fn quantized_bytes_decompose() {
        let model = BertModel::new(BertConfig::tiny(50, 16, 2), 0);
        let report = CompressionReport::for_model(&model, &QuantConfig::fq_bert());
        assert_eq!(
            report.quantized_bytes,
            report.quantized_matrix_bytes + report.high_precision_bytes
        );
    }
}
