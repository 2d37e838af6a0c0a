//! Candidate assembly and evaluation.
//!
//! The expensive part of mixed-precision search is *not* trying a candidate
//! — it is quantizing weights. [`Autotuner`] therefore quantizes every site
//! once per supported width up front (three uniform conversions through
//! [`fqbert_core::convert_mixed`], sharing one calibrated hook) and
//! assembles each candidate by cloning the pre-quantized [`IntLinear`]s into
//! [`IntEncoderLayer::from_quantized_parts`]. Accuracy comes from running
//! the assembled integer model over a held-out evaluation set; cycles come
//! analytically from [`fqbert_accel::cycle_model::estimate_latency_mixed`],
//! which needs no model at all.

use crate::config::BitConfig;
use crate::error::{AutotuneError, Result};
use fqbert_accel::cycle_model::estimate_latency_mixed;
use fqbert_accel::dataflow::EncoderShape;
use fqbert_accel::AcceleratorConfig;
use fqbert_bert::{BertConfig, BertModel};
use fqbert_core::{
    convert_mixed, evaluate_int_model, IntBertModel, IntEncoderLayer, IntLinear, QatHook,
};
use fqbert_nlp::Example;
use fqbert_quant::LAYER_SITES;

/// The weight widths the search explores, narrowest first. These are the
/// widths the artifact format packs natively (≤ 4 bits nibble-packed,
/// 8 bits byte-per-code) and the BIM executes (≤ 4 bits at full rate,
/// wider nibble-split at half rate).
pub const SEARCH_WIDTHS: [u32; 3] = [2, 4, 8];

/// One evaluated bit assignment: the point the Pareto front is built from.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The evaluated assignment.
    pub config: BitConfig,
    /// Accuracy in percent on the tuner's evaluation set.
    pub accuracy: f64,
    /// Simulated accelerator cycles for one evaluation-length sequence.
    pub cycles: u64,
}

/// Prices a [`BitConfig`] in simulated accelerator cycles.
#[derive(Debug, Clone)]
pub struct CycleOracle {
    accel: AcceleratorConfig,
    shape: EncoderShape,
}

impl CycleOracle {
    /// Builds an oracle for sequences of `seq_len` tokens through the given
    /// model architecture on the given accelerator.
    pub fn new(accel: AcceleratorConfig, config: &BertConfig, seq_len: usize) -> Self {
        Self {
            accel,
            shape: EncoderShape {
                seq_len,
                hidden: config.hidden,
                intermediate: config.intermediate,
                heads: config.heads,
            },
        }
    }

    /// Total simulated cycles of one inference under `config`.
    pub fn cycles(&self, config: &BitConfig) -> u64 {
        estimate_latency_mixed(&self.accel, &self.shape, &config.layers).total_cycles
    }
}

/// Pre-quantized site bank plus evaluation set: everything needed to turn a
/// [`BitConfig`] into a [`Candidate`].
pub struct Autotuner {
    /// One fully quantized model per entry of [`SEARCH_WIDTHS`]; the site
    /// bank candidates are assembled from.
    banks: Vec<IntBertModel>,
    eval: Vec<Example>,
    oracle: CycleOracle,
}

impl Autotuner {
    /// Quantizes `model` once per supported width using the calibrated
    /// `hook` (per-site clip tuning runs at each site's width) and keeps
    /// `eval` as the accuracy oracle's dataset.
    ///
    /// # Errors
    ///
    /// Returns an error when `eval` is empty, the hook lacks calibration, or
    /// quantization fails.
    pub fn new(
        model: &BertModel,
        hook: &QatHook,
        eval: Vec<Example>,
        accel: AcceleratorConfig,
        seq_len: usize,
    ) -> Result<Self> {
        if eval.is_empty() {
            return Err(AutotuneError::Search(
                "the evaluation set must not be empty".to_string(),
            ));
        }
        let layers = model.config().layers;
        let banks = SEARCH_WIDTHS
            .iter()
            .map(|&bits| {
                let uniform = BitConfig::uniform(layers, bits);
                convert_mixed(model, hook, &uniform.layers).map_err(AutotuneError::from)
            })
            .collect::<Result<Vec<_>>>()?;
        let oracle = CycleOracle::new(accel, model.config(), seq_len);
        Ok(Self {
            banks,
            eval,
            oracle,
        })
    }

    /// Number of encoder layers of the tuned model.
    pub fn num_layers(&self) -> usize {
        self.banks[0].config().layers
    }

    /// Number of independently searchable sites.
    pub fn num_sites(&self) -> usize {
        self.num_layers() * LAYER_SITES
    }

    /// The cycle oracle candidates are priced with.
    pub fn oracle(&self) -> &CycleOracle {
        &self.oracle
    }

    fn bank_for(&self, bits: u32) -> Result<&IntBertModel> {
        SEARCH_WIDTHS
            .iter()
            .position(|&w| w == bits)
            .map(|i| &self.banks[i])
            .ok_or_else(|| {
                AutotuneError::InvalidConfig(format!(
                    "weight width {bits} is not searchable (supported: {SEARCH_WIDTHS:?})"
                ))
            })
    }

    /// Assembles the integer model realising `config` from the
    /// pre-quantized site bank. The result is bit-identical to converting
    /// the float model directly with the same assignment.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid configurations (wrong layer count,
    /// unsupported width).
    pub fn assemble(&self, config: &BitConfig) -> Result<IntBertModel> {
        config.validate()?;
        if config.num_layers() != self.num_layers() {
            return Err(AutotuneError::InvalidConfig(format!(
                "configuration covers {} layers, model has {}",
                config.num_layers(),
                self.num_layers()
            )));
        }
        let base = &self.banks[0];
        let cfg = base.config().clone();
        let mut layers = Vec::with_capacity(cfg.layers);
        for (l, bits) in config.layers.iter().enumerate() {
            let pick = |site_bits: u32, select: fn(&IntEncoderLayer) -> &IntLinear| {
                self.bank_for(site_bits)
                    .map(|bank| select(&bank.layers[l]).clone())
            };
            let reference = &base.layers[l];
            layers.push(IntEncoderLayer::from_quantized_parts(
                pick(bits.q, |layer| &layer.query)?,
                pick(bits.k, |layer| &layer.key)?,
                pick(bits.v, |layer| &layer.value)?,
                pick(bits.attn_output, |layer| &layer.attn_output)?,
                pick(bits.ffn1, |layer| &layer.ffn1)?,
                pick(bits.ffn2, |layer| &layer.ffn2)?,
                cfg.heads,
                cfg.head_dim(),
                &reference.scales(),
                reference.attn_layer_norm().clone(),
                reference.ffn_layer_norm().clone(),
            )?);
        }
        // Every candidate shares the bank's tables: cloning the host side
        // clones four `Arc`s and the small layer norm, not the embedding
        // tables.
        Ok(IntBertModel::from_parts(
            cfg,
            base.host.clone(),
            layers,
            config.max_bits(),
        ))
    }

    /// Evaluates one assignment: assembles the model, measures accuracy on
    /// the evaluation set, and prices the assignment in simulated cycles.
    ///
    /// # Errors
    ///
    /// Propagates assembly and inference errors.
    pub fn evaluate(&self, config: &BitConfig) -> Result<Candidate> {
        let model = self.assemble(config)?;
        Ok(Candidate {
            config: config.clone(),
            accuracy: evaluate_int_model(&model, &self.eval)?.accuracy,
            cycles: self.oracle.cycles(config),
        })
    }
}
