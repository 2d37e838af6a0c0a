//! The backend-agnostic inference abstraction and its three first-class
//! implementations: float, integer-only, and accelerator-simulated.

use crate::batch::{BatchCost, BatchOutput, EncodedBatch};
use crate::{Result, RuntimeError};
use fqbert_accel::dataflow::EncoderShape;
use fqbert_accel::{cycle_model, AcceleratorConfig};
use fqbert_autograd::Graph;
use fqbert_bert::{BertConfig, BertModel, NoopHook};
use fqbert_core::IntBertModel;
use fqbert_tensor::GemmScratch;
use std::sync::{Mutex, TryLockError};

/// Numeric precision a backend computes at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// IEEE-754 single precision (the float baseline).
    Float32,
    /// Integer-only: quantized weights and 8-bit activations.
    Integer {
        /// Encoder weight bit-width (4 for FQ-BERT, 8 for the W8/A8 variant).
        weight_bits: u32,
    },
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Precision::Float32 => write!(f, "fp32"),
            Precision::Integer { weight_bits } => write!(f, "w{weight_bits}/a8"),
        }
    }
}

/// Static description of the hardware cost model a backend charges latency
/// through (only the simulated backend has one).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Target platform name (e.g. `ZCU102`).
    pub platform: String,
    /// Accelerator clock in MHz.
    pub clock_mhz: f64,
    /// Number of processing units.
    pub processing_units: usize,
    /// PEs per processing unit (the paper's `N`).
    pub pes_per_pu: usize,
    /// Multipliers per BIM (the paper's `M`).
    pub multipliers_per_bim: usize,
}

/// A deployable inference backend over a classification BERT.
///
/// This is the single entry point every workload goes through: the float
/// baseline, the integer-only FQ-BERT engine and the accelerator-simulated
/// engine all classify the same [`EncodedBatch`] and return the same
/// [`BatchOutput`], so callers can swap backends without touching their
/// pipeline.
///
/// Backends are `Send + Sync`: inference is a pure function of the
/// immutable model state, so one backend (or the [`crate::Engine`] wrapping
/// it) is shared cheaply behind an `Arc` across server worker threads.
pub trait InferenceBackend: Send + Sync {
    /// Classifies every sequence in the batch.
    ///
    /// # Errors
    ///
    /// Returns an error if a sequence is invalid for the underlying model
    /// (empty, overlong, out-of-vocabulary ids).
    fn classify_batch(&self, batch: &EncodedBatch) -> Result<BatchOutput>;

    /// Classifies one shard of a larger batch using a caller-owned GEMM
    /// scratch buffer — the entry point of the parallel engine, whose
    /// worker threads each keep one scratch alive across every shard they
    /// serve. Must be bit-identical to [`InferenceBackend::classify_batch`]
    /// over the same sequences (the scratch holds packing capacity, never
    /// numeric state); backends without an integer GEMM simply ignore the
    /// scratch, which is what the default implementation does.
    ///
    /// # Errors
    ///
    /// As for [`InferenceBackend::classify_batch`].
    fn classify_shard(
        &self,
        batch: &EncodedBatch,
        scratch: &mut GemmScratch,
    ) -> Result<BatchOutput> {
        let _ = scratch;
        self.classify_batch(batch)
    }

    /// Short human-readable backend name (`float`, `int`, `sim`).
    fn name(&self) -> &str;

    /// The numeric precision this backend computes at.
    fn precision(&self) -> Precision;

    /// The hardware cost model charged by this backend, if any.
    fn cost_model(&self) -> Option<CostModel> {
        None
    }

    /// The architecture configuration of the underlying model.
    fn config(&self) -> &BertConfig;

    /// The quantized model, for backends that own one (used to persist
    /// artifacts).
    fn int_model(&self) -> Option<&IntBertModel> {
        None
    }
}

/// The float (FP32) baseline backend wrapping `fqbert-bert`.
///
/// Batching amortizes graph construction: the model's parameters are bound
/// onto one autograd tape per batch and every sequence's forward pass reuses
/// those nodes, instead of re-registering all parameters per example as the
/// old per-crate entry points did.
#[derive(Debug, Clone)]
pub struct FloatBackend {
    model: BertModel,
}

impl FloatBackend {
    /// Wraps a trained float model.
    pub fn new(model: BertModel) -> Self {
        Self { model }
    }

    /// The wrapped model.
    pub fn model(&self) -> &BertModel {
        &self.model
    }
}

impl InferenceBackend for FloatBackend {
    fn classify_batch(&self, batch: &EncodedBatch) -> Result<BatchOutput> {
        if batch.is_empty() {
            return Ok(BatchOutput::from_logits(Vec::new(), None));
        }
        // One parameter binding for the whole batch.
        let mut graph = Graph::new();
        let bound = self.model.bind(&mut graph);
        let mut logits = Vec::with_capacity(batch.len());
        for example in batch.examples() {
            let id = bound.forward(&mut graph, example, &mut NoopHook)?;
            logits.push(graph.value(id).clone().into_vec());
        }
        Ok(BatchOutput::from_logits(logits, None))
    }

    fn name(&self) -> &str {
        "float"
    }

    fn precision(&self) -> Precision {
        Precision::Float32
    }

    fn config(&self) -> &BertConfig {
        self.model.config()
    }
}

/// The integer-only FQ-BERT backend wrapping `fqbert-core`'s
/// [`IntBertModel`].
///
/// Batching packs all sequences into one matrix so every linear projection
/// runs as a single blocked integer GEMM over panel-packed weights with the
/// requantize fused into the kernel epilogue (see
/// `IntEncoderLayer::forward_batch_with_scratch` and `fqbert_tensor::gemm`);
/// one scratch holds the packing buffer, the attention panels and every
/// layer intermediate, and is reused across all encoder layers of a batch.
/// Batches containing an all-padding (zero-length) sequence are rejected
/// with an `InvalidArgument` error rather than panicking.
#[derive(Debug)]
pub struct IntBackend {
    model: IntBertModel,
    /// The serial path's scratch, kept across calls so a shape served once
    /// is served again without re-growing the arena. (Pool workers bring
    /// their own through [`InferenceBackend::classify_shard`].)
    scratch: Mutex<GemmScratch>,
}

/// A clone serves the same model from a scratch of its own.
impl Clone for IntBackend {
    fn clone(&self) -> Self {
        Self::new(self.model.clone())
    }
}

impl IntBackend {
    /// Wraps a converted integer model.
    pub fn new(model: IntBertModel) -> Self {
        Self {
            model,
            scratch: Mutex::new(GemmScratch::new()),
        }
    }

    /// The wrapped integer model.
    pub fn model(&self) -> &IntBertModel {
        &self.model
    }
}

impl InferenceBackend for IntBackend {
    fn classify_batch(&self, batch: &EncodedBatch) -> Result<BatchOutput> {
        // Callers that overlap on one backend do not wait for each other:
        // the one that finds the scratch taken runs on a fresh one. A
        // scratch holds no numeric state, so one left behind by a panicked
        // call is as good as any.
        match self.scratch.try_lock() {
            Ok(mut kept) => self.classify_shard(batch, &mut kept),
            Err(TryLockError::Poisoned(kept)) => self.classify_shard(batch, &mut kept.into_inner()),
            Err(TryLockError::WouldBlock) => self.classify_shard(batch, &mut GemmScratch::new()),
        }
    }

    fn classify_shard(
        &self,
        batch: &EncodedBatch,
        scratch: &mut GemmScratch,
    ) -> Result<BatchOutput> {
        let logits = self
            .model
            .logits_batch_with_scratch(batch.examples(), scratch)?;
        Ok(BatchOutput::from_logits(logits, None))
    }

    fn name(&self) -> &str {
        "int"
    }

    fn precision(&self) -> Precision {
        Precision::Integer {
            weight_bits: self.model.weight_bits(),
        }
    }

    fn config(&self) -> &BertConfig {
        self.model.config()
    }

    fn int_model(&self) -> Option<&IntBertModel> {
        Some(&self.model)
    }
}

/// The accelerator-simulated backend: functionally identical to
/// [`IntBackend`] (it runs the same integer engine, which the bit-accurate
/// datapath tests prove equal to the hardware), while charging latency
/// through the `fqbert-accel` cycle model.
#[derive(Debug, Clone)]
pub struct SimBackend {
    int: IntBackend,
    accel: AcceleratorConfig,
}

impl SimBackend {
    /// Wraps an integer model together with an accelerator configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] if the accelerator
    /// configuration is internally inconsistent.
    pub fn new(model: IntBertModel, accel: AcceleratorConfig) -> Result<Self> {
        accel.validate().map_err(RuntimeError::InvalidConfig)?;
        Ok(Self {
            int: IntBackend::new(model),
            accel,
        })
    }

    /// The accelerator configuration charged for latency.
    pub fn accelerator(&self) -> &AcceleratorConfig {
        &self.accel
    }

    /// Cycle-model latency of one sequence of `seq_len` tokens, charged at
    /// the per-layer, per-site weight bit-widths the wrapped model actually
    /// carries (so mixed-precision artifacts are priced faithfully).
    pub fn latency_of(&self, seq_len: usize) -> cycle_model::LatencyReport {
        let cfg = self.int.config();
        let shape = EncoderShape {
            seq_len,
            hidden: cfg.hidden,
            intermediate: cfg.intermediate,
            heads: cfg.heads,
        };
        let bits = self.int.model.layer_bit_widths();
        cycle_model::estimate_latency_mixed(&self.accel, &shape, &bits)
    }

    /// Attaches the cycle-model cost of every sequence in `batch` to `out`.
    ///
    /// The per-sequence cost is a pure function of the sequence length
    /// (cached once per distinct length within the call), so a batch split
    /// into shards charges exactly the same per-sequence costs as the
    /// unsharded batch — the parallel engine relies on this when it
    /// reassembles shard outputs.
    fn charge_costs(&self, out: &mut BatchOutput, batch: &EncodedBatch) {
        let mut total_cycles = 0u64;
        let mut latency_ms = 0.0f64;
        let mut cached: Vec<(usize, u64, f64)> = Vec::new();
        let mut sequence_costs = Vec::with_capacity(batch.len());
        for seq_len in batch.seq_lens() {
            let (cycles, ms) = match cached.iter().find(|(s, _, _)| *s == seq_len) {
                Some(&(_, cycles, ms)) => (cycles, ms),
                None => {
                    let report = self.latency_of(seq_len);
                    cached.push((seq_len, report.total_cycles, report.latency_ms));
                    (report.total_cycles, report.latency_ms)
                }
            };
            sequence_costs.push(BatchCost {
                total_cycles: cycles,
                latency_ms: ms,
            });
            total_cycles += cycles;
            latency_ms += ms;
        }
        out.cost = Some(BatchCost {
            total_cycles,
            latency_ms,
        });
        out.sequence_costs = Some(sequence_costs);
    }
}

impl InferenceBackend for SimBackend {
    fn classify_batch(&self, batch: &EncodedBatch) -> Result<BatchOutput> {
        let mut out = self.int.classify_batch(batch)?;
        self.charge_costs(&mut out, batch);
        Ok(out)
    }

    fn classify_shard(
        &self,
        batch: &EncodedBatch,
        scratch: &mut GemmScratch,
    ) -> Result<BatchOutput> {
        let mut out = self.int.classify_shard(batch, scratch)?;
        self.charge_costs(&mut out, batch);
        Ok(out)
    }

    fn name(&self) -> &str {
        "sim"
    }

    fn precision(&self) -> Precision {
        self.int.precision()
    }

    fn cost_model(&self) -> Option<CostModel> {
        Some(CostModel {
            platform: self.accel.device.name().to_string(),
            clock_mhz: self.accel.frequency_hz / 1e6,
            processing_units: self.accel.num_pus,
            pes_per_pu: self.accel.pes_per_pu,
            multipliers_per_bim: self.accel.multipliers_per_bim,
        })
    }

    fn config(&self) -> &BertConfig {
        self.int.config()
    }

    fn int_model(&self) -> Option<&IntBertModel> {
        self.int.int_model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fqbert_core::QatHook;
    use fqbert_nlp::Example;
    use fqbert_quant::QuantConfig;

    fn example(ids: &[usize]) -> Example {
        Example {
            token_ids: ids.to_vec(),
            segment_ids: vec![0; ids.len()],
            attention_mask: vec![1; ids.len()],
            label: 0,
        }
    }

    fn int_model() -> IntBertModel {
        let model = BertModel::new(BertConfig::tiny(24, 12, 2), 5);
        let calibration: Vec<Example> = (0..4).map(|i| example(&[2, 4 + i, 9, 3])).collect();
        let hook =
            QatHook::calibrated(&model, QuantConfig::fq_bert(), &calibration).expect("calibration");
        fqbert_core::convert(&model, &hook).expect("convert")
    }

    #[test]
    fn sim_backend_refuses_a_configuration_the_cycle_model_would_divide_by() {
        // Each of these used to validate and then panic (zero lanes / SIMD
        // width) or price every batch at NaN / zero latency.
        let model = int_model();
        let default = AcceleratorConfig::default;
        for accel in [
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
            let refused = SimBackend::new(model.clone(), accel);
            assert!(matches!(refused, Err(RuntimeError::InvalidConfig(_))));
        }
        let batch = EncodedBatch::from_examples(vec![example(&[2, 5, 6, 7, 3])]);
        let sim = SimBackend::new(model, default()).expect("published configuration");
        assert!(sim.classify_batch(&batch).is_ok());
    }

    #[test]
    fn serial_int_path_answers_the_same_whoever_holds_its_scratch() {
        let backend = IntBackend::new(int_model());
        let batch =
            EncodedBatch::from_examples(vec![example(&[2, 5, 6, 7, 3]), example(&[2, 11, 3])]);
        let kept = backend.classify_batch(&batch).expect("kept scratch");
        // A second call reuses the kept scratch; a caller that finds it
        // taken, or poisoned by a panicked holder, still gets the same bits.
        assert_eq!(backend.classify_batch(&batch).expect("reused"), kept);
        {
            let _held = backend.scratch.lock().expect("unpoisoned");
            assert_eq!(backend.classify_batch(&batch).expect("contended"), kept);
        }
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _held = backend.scratch.lock().expect("unpoisoned");
                panic!("poison the scratch lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(backend.scratch.is_poisoned());
        assert_eq!(backend.classify_batch(&batch).expect("poisoned"), kept);
        assert_eq!(backend.clone().classify_batch(&batch).expect("clone"), kept);
    }
}
