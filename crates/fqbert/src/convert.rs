//! Float → integer model conversion.
//!
//! [`convert`] takes the (QAT-fine-tuned) float [`BertModel`] together with
//! the calibration record accumulated by the [`QatHook`] and produces the
//! [`IntBertModel`] executed by the integer engine and the accelerator
//! simulator. All activation scales come from the hook's EMA observers
//! (Eq. 3); weight scales and clips are recomputed from the final weights
//! (Eq. 2).

use crate::int_model::{HostSide, IntBertModel, IntEmbedding, IntEncoderLayer, LayerScales};
use crate::qat::QatHook;
use crate::{FqBertError, Result};
use fqbert_bert::{BertModel, Site, SiteKind};
use fqbert_quant::LayerBits;
use std::sync::Arc;

/// Converts a calibrated float model into the integer-only FQ-BERT model.
///
/// # Errors
///
/// Returns [`FqBertError::MissingCalibration`] if the hook has not observed
/// one of the required activation sites (run at least one calibration or QAT
/// forward pass first), or a quantization error if a weight tensor is
/// degenerate.
pub fn convert(model: &BertModel, hook: &QatHook) -> Result<IntBertModel> {
    let bits = vec![LayerBits::uniform(hook.config().weight_bits); model.config().layers];
    convert_mixed(model, hook, &bits)
}

/// Converts a calibrated float model into an integer model whose layer `l`
/// uses the per-site weight bit-widths `bits[l]` (the mixed-precision
/// counterpart of [`convert`]). The model-level headline width is the widest
/// site anywhere in the stack.
///
/// # Errors
///
/// As for [`convert`], plus [`FqBertError::InvalidArgument`] when `bits` does
/// not have one entry per encoder layer or contains an unsupported width.
pub fn convert_mixed(
    model: &BertModel,
    hook: &QatHook,
    bits: &[LayerBits],
) -> Result<IntBertModel> {
    let cfg = model.config().clone();
    let quant_cfg = hook.config();
    if bits.len() != cfg.layers {
        return Err(FqBertError::InvalidArgument(format!(
            "bit assignment covers {} layers, model has {}",
            bits.len(),
            cfg.layers
        )));
    }
    let scale_at = |site: Site| -> Result<f32> {
        hook.activation_scale(site)
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or_else(|| FqBertError::MissingCalibration(site.to_string()))
    };

    let embedding_out_scale = scale_at(Site::global(SiteKind::EmbeddingOutput))?;
    let mut layers = Vec::with_capacity(cfg.layers);
    for (l, layer_bits) in bits.iter().enumerate() {
        let input = if l == 0 {
            embedding_out_scale
        } else {
            scale_at(Site::layer(l - 1, SiteKind::LayerNormOutput))?
        };
        let scales = LayerScales {
            input,
            q: scale_at(Site::layer(l, SiteKind::QActivation))?,
            k: scale_at(Site::layer(l, SiteKind::KActivation))?,
            v: scale_at(Site::layer(l, SiteKind::VActivation))?,
            scores: scale_at(Site::layer(l, SiteKind::AttentionScores))?,
            attn_output: scale_at(Site::layer(l, SiteKind::AttentionOutput))?,
            layer_norm: scale_at(Site::layer(l, SiteKind::LayerNormOutput))?,
            ffn_hidden: scale_at(Site::layer(l, SiteKind::FfnHidden))?,
            ffn_output: scale_at(Site::layer(l, SiteKind::FfnOutput))?,
        };
        layers.push(IntEncoderLayer::from_float_mixed(
            &model.encoder_layers[l],
            cfg.heads,
            cfg.head_dim(),
            layer_bits,
            quant_cfg.tune_weight_clip,
            &scales,
            cfg.layer_norm_eps,
        )?);
    }

    let headline_bits = bits
        .iter()
        .map(LayerBits::max_bits)
        .max()
        .unwrap_or(quant_cfg.weight_bits);
    let host = HostSide {
        embedding: IntEmbedding::from_float(
            &model.word_embeddings,
            &model.position_embeddings,
            &model.segment_embeddings,
            &model.embedding_layer_norm,
            cfg.layer_norm_eps,
            embedding_out_scale,
        )?,
        classifier_weight: Arc::new(model.classifier.weight.clone()),
        classifier_bias: Arc::new(model.classifier.bias.clone()),
    };
    Ok(IntBertModel::from_parts(cfg, host, layers, headline_bits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fqbert_autograd::Graph;
    use fqbert_bert::{BertConfig, NoopHook};
    use fqbert_nlp::Example;
    use fqbert_quant::QuantConfig;
    use fqbert_tensor::gemm::GemmScratch;
    use fqbert_tensor::ops::argmax_slice;

    fn example(tokens: &[usize]) -> Example {
        Example {
            token_ids: tokens.to_vec(),
            segment_ids: vec![0; tokens.len()],
            attention_mask: vec![1; tokens.len()],
            label: 0,
        }
    }

    #[test]
    fn conversion_requires_calibration() {
        let model = BertModel::new(BertConfig::tiny(30, 12, 2), 0);
        let hook = QatHook::new(QuantConfig::fq_bert());
        assert!(matches!(
            convert(&model, &hook),
            Err(FqBertError::MissingCalibration(_))
        ));
    }

    #[test]
    fn converted_model_agrees_with_float_model_on_predictions() {
        let model = BertModel::new(BertConfig::tiny(30, 12, 2), 4);
        let examples: Vec<Example> = (0..8)
            .map(|i| example(&[2, 4 + i % 10, 5 + (i * 3) % 10, 7, 3]))
            .collect();
        let hook = QatHook::calibrated(&model, QuantConfig::w8a8(), &examples).unwrap();
        let int_model = convert(&model, &hook).expect("conversion succeeds");
        assert_eq!(int_model.layers.len(), model.config().layers);
        assert_eq!(int_model.weight_bits(), 8);

        let int_logits = int_model
            .logits_batch_with_scratch(&examples, &mut GemmScratch::new())
            .unwrap();
        let mut agreement = 0usize;
        for (ex, int_logits) in examples.iter().zip(&int_logits) {
            let mut graph = Graph::new();
            let bound = model.bind(&mut graph);
            let logits = bound.forward(&mut graph, ex, &mut NoopHook).unwrap();
            let float_pred = graph.value(logits).argmax().unwrap();
            if float_pred == argmax_slice(int_logits) {
                agreement += 1;
            }
        }
        assert!(
            agreement >= examples.len() - 1,
            "integer engine disagrees with float model on {} of {} inputs",
            examples.len() - agreement,
            examples.len()
        );
    }

    #[test]
    fn int_logits_track_float_logits() {
        let model = BertModel::new(BertConfig::tiny(30, 12, 2), 6);
        let examples: Vec<Example> = (0..6).map(|i| example(&[2, 4 + i, 6 + i, 3])).collect();
        let hook = QatHook::calibrated(&model, QuantConfig::w8a8(), &examples).unwrap();
        let int_model = convert(&model, &hook).unwrap();
        for ex in &examples {
            let mut graph = Graph::new();
            let bound = model.bind(&mut graph);
            let logits_id = bound.forward(&mut graph, ex, &mut NoopHook).unwrap();
            let float_logits = graph.value(logits_id).clone().into_vec();
            let real_len = ex.attention_mask.iter().filter(|&&m| m == 1).count();
            let int_logits = int_model
                .forward_logits(&ex.token_ids[..real_len], &ex.segment_ids[..real_len])
                .unwrap();
            for (f, q) in float_logits.iter().zip(int_logits.iter()) {
                assert!(
                    (f - q).abs() < 0.6,
                    "integer logit {q} far from float logit {f}"
                );
            }
        }
    }

    #[test]
    fn mixed_conversion_assigns_per_site_widths() {
        let model = BertModel::new(BertConfig::tiny(30, 12, 2), 4);
        let examples: Vec<Example> = (0..8)
            .map(|i| example(&[2, 4 + i % 10, 5 + (i * 3) % 10, 7, 3]))
            .collect();
        let hook = QatHook::calibrated(&model, QuantConfig::fq_bert(), &examples).unwrap();

        let mut wide = LayerBits::uniform(4);
        wide.ffn1 = 8;
        let bits = vec![wide, LayerBits::uniform(4)];
        let int_model = convert_mixed(&model, &hook, &bits).expect("mixed conversion");

        assert_eq!(int_model.layer_bit_widths(), bits);
        assert_eq!(
            int_model.weight_bits(),
            8,
            "headline width is the widest site"
        );
        assert_eq!(int_model.bit_summary(), "w4-8[0]/w4[1]");

        let uniform = convert(&model, &hook).unwrap();
        assert_eq!(uniform.bit_summary(), "w4");
        assert_eq!(
            convert_mixed(&model, &hook, &[LayerBits::uniform(4); 2]).unwrap(),
            uniform,
            "uniform assignment matches the uniform converter"
        );

        // Wrong layer count and out-of-range widths are rejected.
        assert!(convert_mixed(&model, &hook, &[wide]).is_err());
        let mut bad = LayerBits::uniform(4);
        bad.k = 1;
        assert!(convert_mixed(&model, &hook, &[bad, bad]).is_err());
    }

    #[test]
    fn invalid_inputs_to_int_model_are_rejected() {
        let model = BertModel::new(BertConfig::tiny(30, 12, 2), 4);
        let examples = vec![example(&[2, 4, 3])];
        let hook = QatHook::calibrated(&model, QuantConfig::fq_bert(), &examples).unwrap();
        let int_model = convert(&model, &hook).unwrap();
        assert!(int_model.forward_logits(&[], &[]).is_err());
        assert!(int_model.forward_logits(&[2, 99], &[0, 0]).is_err());
        let too_long: Vec<usize> = vec![2; 13];
        let segs = vec![0usize; 13];
        assert!(int_model.forward_logits(&too_long, &segs).is_err());
    }
}
