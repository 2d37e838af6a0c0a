//! Quantization-aware training hook (paper §II and §IV-A).
//!
//! [`QatHook`] plugs into the float model's forward pass
//! (`fqbert_bert::ForwardHook`):
//!
//! * every **weight** is fake-quantized to `weight_bits` with a clip
//!   threshold tuned by an MSE-optimal search (re-tuned periodically as the
//!   weights move during fine-tuning);
//! * every **activation** is observed by an exponential moving average and
//!   fake-quantized to `activation_bits` using the EMA-derived scale (Eq. 3);
//! * the attention probabilities (softmax output) and the `Add & LN` outputs
//!   are only quantized when the corresponding ablation switches of Table II
//!   are enabled;
//! * scale factors themselves are optionally rounded to an 8-bit mantissa
//!   (the "scale" row of Table II).
//!
//! After fine-tuning, the hook doubles as the calibration record: the
//! float→integer converter reads the per-site activation scales from it.

use crate::Result;
use fqbert_autograd::{FakeQuantSpec, Graph, VarId};
use fqbert_bert::{BertModel, ForwardHook, Site, SiteKind};
use fqbert_nlp::Example;
use fqbert_quant::{tune_clip_threshold, EmaObserver, QuantConfig};
use std::collections::HashMap;

/// EMA decay used for activation observers.
const ACTIVATION_EMA_DECAY: f32 = 0.95;
/// How many hook invocations a tuned weight-clip threshold stays valid for.
const CLIP_REFRESH_INTERVAL: u64 = 64;
/// Grid resolution of the clip-threshold search.
const CLIP_SEARCH_STEPS: usize = 40;

/// Quantization-aware-training hook and calibration record.
#[derive(Debug, Clone)]
pub struct QatHook {
    config: QuantConfig,
    weight_clips: HashMap<Site, (f32, u64)>,
    observers: HashMap<Site, EmaObserver>,
    calls: u64,
    /// When `false`, weights/activations pass through unchanged but the
    /// observers keep running (pure calibration mode).
    quantize_in_forward: bool,
}

impl QatHook {
    /// Creates a hook for the given quantization configuration.
    pub fn new(config: QuantConfig) -> Self {
        Self {
            config,
            weight_clips: HashMap::new(),
            observers: HashMap::new(),
            calls: 0,
            quantize_in_forward: true,
        }
    }

    /// Creates a hook that only calibrates (observes activations) without
    /// changing the forward computation — post-training calibration mode.
    pub fn calibration_only(config: QuantConfig) -> Self {
        Self {
            quantize_in_forward: false,
            ..Self::new(config)
        }
    }

    /// Post-training calibration in one call: a
    /// [`QatHook::calibration_only`] hook that has observed one float
    /// forward pass of `model` over each of `examples` — the record
    /// [`crate::convert()`] reads its activation scales from.
    ///
    /// # Errors
    ///
    /// Returns an error if a forward pass fails (an empty or overlong
    /// example, or one with out-of-vocabulary ids).
    pub fn calibrated(
        model: &BertModel,
        config: QuantConfig,
        examples: &[Example],
    ) -> Result<Self> {
        let mut hook = Self::calibration_only(config);
        for example in examples {
            let mut graph = Graph::new();
            model
                .bind(&mut graph)
                .forward(&mut graph, example, &mut hook)?;
        }
        Ok(hook)
    }

    /// The quantization configuration in effect.
    pub fn config(&self) -> &QuantConfig {
        &self.config
    }

    /// The EMA-calibrated maximum absolute activation for a site, if that
    /// site has been observed.
    pub fn activation_range(&self, site: Site) -> Option<f32> {
        self.observers.get(&site).map(|o| o.running_max())
    }

    /// The activation scale (levels per unit) for a site at the configured
    /// activation bit-width, if calibrated.
    pub fn activation_scale(&self, site: Site) -> Option<f32> {
        let range = self.activation_range(site)?;
        if range <= 0.0 {
            return None;
        }
        let levels = ((1u32 << (self.config.activation_bits - 1)) - 1) as f32;
        Some(self.maybe_quantize_scale(levels / range))
    }

    /// Number of distinct activation sites observed so far.
    pub fn observed_sites(&self) -> usize {
        self.observers.len()
    }

    /// Rounds a scale factor to an 8-bit mantissa when the "quantize scales"
    /// ablation switch is on (Table II, second column).
    pub fn maybe_quantize_scale(&self, scale: f32) -> f32 {
        if !self.config.quantize_scales || scale <= 0.0 || !scale.is_finite() {
            return scale;
        }
        // Keep 8 significant bits of mantissa: scale = m * 2^e with m in
        // [128, 256).
        let exp = scale.log2().floor() as i32 - 7;
        let mantissa = (scale / f32::powi(2.0, exp)).round();
        mantissa * f32::powi(2.0, exp)
    }

    /// Which bit-width (if any) an activation site should be quantized to
    /// under the current ablation switches.
    fn activation_bits_for(&self, site: Site) -> Option<u32> {
        let cfg = &self.config;
        match site.kind {
            SiteKind::AttentionProbs | SiteKind::AttentionScores => {
                cfg.quantize_softmax.then_some(cfg.softmax_bits)
            }
            SiteKind::LayerNormOutput | SiteKind::EmbeddingOutput => {
                cfg.quantize_layer_norm.then_some(cfg.layer_norm_bits)
            }
            SiteKind::Logits => None,
            _ => cfg
                .quantize_weights_activations
                .then_some(cfg.activation_bits),
        }
    }

    /// Whether a weight site should be quantized, and to how many bits.
    fn weight_bits_for(&self, site: Site) -> Option<u32> {
        if !self.config.quantize_weights_activations {
            return None;
        }
        match site.kind {
            // The embedding tables train in float; conversion quantizes
            // them to 8-bit codes at one scale per table (and their output,
            // like every activation, to the calibrated scale).
            SiteKind::EmbeddingTable => None,
            _ => Some(self.config.weight_bits),
        }
    }

    fn tuned_clip(&mut self, graph: &Graph, id: VarId, site: Site, bits: u32) -> Option<f32> {
        if !self.config.tune_weight_clip {
            return None;
        }
        if let Some(&(clip, stamp)) = self.weight_clips.get(&site) {
            if self.calls.saturating_sub(stamp) < CLIP_REFRESH_INTERVAL {
                return Some(clip);
            }
        }
        let tensor = graph.value(id);
        let clip = tune_clip_threshold(tensor, bits, CLIP_SEARCH_STEPS)
            .ok()
            .map(|r| r.clip)?;
        self.weight_clips.insert(site, (clip, self.calls));
        Some(clip)
    }
}

impl ForwardHook for QatHook {
    fn on_weight(&mut self, graph: &mut Graph, id: VarId, site: Site) -> VarId {
        self.calls += 1;
        let Some(bits) = self.weight_bits_for(site) else {
            return id;
        };
        if !self.quantize_in_forward {
            return id;
        }
        let clip = self.tuned_clip(graph, id, site, bits);
        let spec = match clip {
            Some(c) => FakeQuantSpec::with_clip(bits, c),
            None => FakeQuantSpec::no_clip(bits),
        };
        graph.fake_quant(id, spec).unwrap_or(id)
    }

    fn on_activation(&mut self, graph: &mut Graph, id: VarId, site: Site) -> VarId {
        self.calls += 1;
        // Always observe, even in calibration-only mode.
        let value_max = graph.value(id).abs_max().unwrap_or(0.0);
        self.observers
            .entry(site)
            .or_insert_with(|| EmaObserver::new(ACTIVATION_EMA_DECAY))
            .observe_value(value_max);

        let Some(bits) = self.activation_bits_for(site) else {
            return id;
        };
        if !self.quantize_in_forward {
            return id;
        }
        let Some(range) = self.activation_range(site).filter(|&r| r > 0.0) else {
            return id;
        };
        // Quantizing the scale factor (Table II, "scale" column) slightly
        // perturbs the effective clip used during training.
        let levels = ((1u32 << (bits - 1)) - 1) as f32;
        let scale = self.maybe_quantize_scale(levels / range);
        let effective_range = levels / scale;
        let spec = FakeQuantSpec::with_clip(bits, effective_range);
        graph.fake_quant(id, spec).unwrap_or(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fqbert_bert::{BertConfig, BertModel, NoopHook, Trainer};
    use fqbert_nlp::{Example, Sst2Config, Sst2Generator};

    fn example(tokens: &[usize]) -> Example {
        Example {
            token_ids: tokens.to_vec(),
            segment_ids: vec![0; tokens.len()],
            attention_mask: vec![1; tokens.len()],
            label: 0,
        }
    }

    #[test]
    fn hook_observes_every_activation_site_once_per_layer_kind() {
        let model = BertModel::new(BertConfig::tiny(40, 16, 2), 1);
        let mut graph = Graph::new();
        let bound = model.bind(&mut graph);
        let mut hook = QatHook::new(QuantConfig::fq_bert());
        bound
            .forward(&mut graph, &example(&[2, 5, 9, 3]), &mut hook)
            .unwrap();
        // Embedding output, logits, and per-layer sites must all be present.
        assert!(hook
            .activation_range(Site::global(SiteKind::EmbeddingOutput))
            .is_some());
        assert!(hook
            .activation_range(Site::layer(0, SiteKind::AttentionScores))
            .is_some());
        assert!(hook
            .activation_range(Site::layer(1, SiteKind::FfnHidden))
            .is_some());
        assert!(hook.observed_sites() > 10);
    }

    #[test]
    fn quantized_forward_stays_close_to_float_forward() {
        let model = BertModel::new(BertConfig::tiny(40, 16, 2), 2);
        let ex = example(&[2, 7, 11, 6, 3]);

        let run_float = || {
            let mut graph = Graph::new();
            let bound = model.bind(&mut graph);
            let logits = bound.forward(&mut graph, &ex, &mut NoopHook).unwrap();
            graph.value(logits).clone()
        };
        let float_logits = run_float();

        // Calibrate the hook once, then run with quantization enabled.
        let mut hook = QatHook::new(QuantConfig::w8a8());
        for _ in 0..3 {
            let mut graph = Graph::new();
            let bound = model.bind(&mut graph);
            bound.forward(&mut graph, &ex, &mut hook).unwrap();
        }
        let mut graph = Graph::new();
        let bound = model.bind(&mut graph);
        let logits = bound.forward(&mut graph, &ex, &mut hook).unwrap();
        let q_logits = graph.value(logits).clone();
        assert!(
            float_logits.allclose(&q_logits, 0.35),
            "8/8 fake-quantized logits {q_logits} deviate too far from float {float_logits}"
        );
    }

    #[test]
    fn calibration_only_mode_does_not_change_forward() {
        let model = BertModel::new(BertConfig::tiny(40, 16, 2), 3);
        let ex = example(&[2, 8, 3]);
        let mut calib = QatHook::calibration_only(QuantConfig::fq_bert());
        let run = |hook: &mut dyn ForwardHook| {
            let mut graph = Graph::new();
            let bound = model.bind(&mut graph);
            let logits = bound.forward(&mut graph, &ex, hook).unwrap();
            graph.value(logits).clone()
        };
        let float_logits = run(&mut NoopHook);
        let calib_logits = run(&mut calib);
        assert_eq!(float_logits, calib_logits);
        assert!(calib.observed_sites() > 0);
    }

    #[test]
    fn scale_quantization_keeps_eight_significant_bits() {
        let hook = QatHook::new(QuantConfig::fq_bert());
        for &s in &[0.0123f32, 1.7, 200.0, 3.3e-4] {
            let q = hook.maybe_quantize_scale(s);
            let rel = (q - s).abs() / s;
            assert!(rel < 1.0 / 256.0 + 1e-6, "scale {s} quantized to {q}");
        }
        let mut cfg = QuantConfig::fq_bert();
        cfg.quantize_scales = false;
        let hook = QatHook::new(cfg);
        assert_eq!(hook.maybe_quantize_scale(0.37), 0.37);
    }

    #[test]
    fn qat_fine_tuning_recovers_accuracy() {
        // End-to-end miniature of the paper's procedure: train float, then
        // fine-tune with the quantizer in the loop; QAT accuracy should stay
        // within a few points of the float accuracy.
        let dataset = Sst2Generator::new(Sst2Config {
            train_size: 240,
            dev_size: 60,
            sentiment_words: 6,
            neutral_words: 10,
            min_words: 3,
            max_words: 6,
            negation_prob: 0.0,
            label_noise: 0.0,
            max_len: 12,
        })
        .generate(5);
        let mut model = BertModel::new(
            BertConfig {
                hidden: 32,
                layers: 1,
                heads: 2,
                intermediate: 64,
                ..BertConfig::tiny(dataset.vocab_size, dataset.max_len, dataset.num_classes)
            },
            9,
        );
        let trainer = Trainer::new(fqbert_bert::TrainerConfig {
            epochs: 5,
            batch_size: 8,
            learning_rate: 3e-3,
            seed: 1,
            max_train_examples: None,
        });
        trainer.train(&mut model, &dataset, &mut NoopHook).unwrap();
        let float_acc = Trainer::evaluate_float(&model, &dataset.dev)
            .unwrap()
            .accuracy;

        let mut qat_hook = QatHook::new(QuantConfig::fq_bert());
        let finetune = Trainer::new(fqbert_bert::TrainerConfig {
            epochs: 2,
            batch_size: 8,
            learning_rate: 1e-3,
            seed: 2,
            max_train_examples: None,
        });
        finetune.train(&mut model, &dataset, &mut qat_hook).unwrap();
        let qat_acc = Trainer::evaluate(&model, &dataset.dev, &mut qat_hook)
            .unwrap()
            .accuracy;
        assert!(
            qat_acc >= float_acc - 12.0,
            "QAT accuracy {qat_acc}% collapsed relative to float {float_acc}%"
        );
    }
}
