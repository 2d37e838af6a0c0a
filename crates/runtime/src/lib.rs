//! `fqbert-runtime` — the unified inference engine over every FQ-BERT
//! execution substrate.
//!
//! The paper's central claim is that *the same model* runs as a float
//! baseline, as an integer-only engine, and on the FPGA accelerator. This
//! crate turns that claim into an API: one [`InferenceBackend`] trait with
//! three first-class implementations, one [`EngineBuilder`] that wires
//! task → tokenizer → backend → batch size → calibration, and one binary
//! [`ModelArtifact`] format so a model is quantized once and served many
//! times.
//!
//! # The backend trait
//!
//! [`InferenceBackend::classify_batch`] maps an [`EncodedBatch`] to a
//! [`BatchOutput`] (logits + predictions + optional simulated hardware
//! cost). The accessors [`InferenceBackend::name`],
//! [`InferenceBackend::precision`] and [`InferenceBackend::cost_model`]
//! describe the backend without running it:
//!
//! | backend | wraps | precision | cost model |
//! |---|---|---|---|
//! | [`FloatBackend`] | `fqbert-bert` [`BertModel`](fqbert_bert::BertModel) | fp32 | — |
//! | [`IntBackend`] | `fqbert-core` [`IntBertModel`](fqbert_core::IntBertModel) | w4–w8 / a8 | — |
//! | [`SimBackend`] | the integer engine + `fqbert-accel` | w4–w8 / a8 | FPGA cycle model |
//!
//! [`SimBackend`] is *functionally* the integer engine (the bit-accurate
//! datapath tests prove the accelerator equal to it), so it returns the same
//! logits while charging latency through the cycle model — deploy-time
//! numbers from a laptop.
//!
//! # Batching
//!
//! [`EncodedBatch`] tokenizes once per batch. The float backend binds model
//! parameters onto a single autograd tape per batch; the integer backends
//! pack all sequences into one matrix so each linear projection runs as a
//! single integer GEMM (`IntEncoderLayer::forward_batch_with_scratch`).
//! Batched and one-at-a-time execution are bit-identical.
//!
//! # Parallel execution
//!
//! An engine built with [`ExecPolicy`] threads > 1 (or with
//! `FQBERT_THREADS` set in the environment) shards every batch across a
//! fixed in-process [`WorkerPool`] — up to one contiguous shard per worker,
//! each worker reusing its own GEMM scratch buffer. Per-sequence arithmetic
//! is independent in every backend, so sharded execution is bit-identical
//! to serial execution at every thread count (property-tested), including
//! the simulated backend's per-sequence cycle costs.
//!
//! # Telemetry
//!
//! Every [`Engine`] records into a
//! [`fqbert_telemetry::Registry`] (re-exported as [`telemetry`]): batch and
//! sequence counters, a `classify_us` latency histogram with
//! p50/p95/p99 estimation, per-shard timings and an in-flight-shard gauge.
//! The registry is private per engine by default; a serving layer shares or
//! merges registries to expose per-model metrics over the wire.
//!
//! # Artifacts
//!
//! [`ModelArtifact`] persists the quantized model (weight/bias codes,
//! activation scales, layer-norm codes, bit-widths), the task and the
//! vocabulary in a checksummed binary format with one version, one writer
//! and one decoder (see [`artifact`]). A loaded file stays resident as one
//! shared byte buffer: every quantized linear refers to its encoded weight
//! bytes inside it (≤4-bit codes two per byte) and builds its GEMM panels
//! from them on first use — the same form, and the same constructor, a
//! freshly converted model uses — while float tensors are interned through
//! a [`TensorCache`] so variants of one task share them. Loading rebuilds
//! all derived state (requantizers, LUTs) deterministically, so a reloaded
//! model produces bit-identical logits and re-saves byte-identical files —
//! guaranteed by property tests.
//!
//! # Example
//!
//! ```no_run
//! use fqbert_runtime::{BackendKind, EngineBuilder};
//! use fqbert_bert::{BertConfig, BertModel};
//! use fqbert_nlp::{Sst2Config, Sst2Generator, TaskKind};
//!
//! let dataset = Sst2Generator::new(Sst2Config::tiny()).generate(1);
//! let model = BertModel::new(
//!     BertConfig::tiny(dataset.vocab_size, dataset.max_len, dataset.num_classes),
//!     7,
//! );
//! // (train `model` here)
//! let engine = EngineBuilder::new(TaskKind::Sst2)
//!     .vocab(dataset.vocab.clone(), dataset.max_len)
//!     .backend(BackendKind::Int)
//!     .batch_size(16)
//!     .calibrate_with(&dataset.dev[..8])
//!     .build(&model)?;
//! engine.save(std::path::Path::new("sst2.fqbt"))?;
//! let answers = engine.classify_texts(&["a good movie", "a bad movie"])?;
//! # Ok::<(), fqbert_runtime::RuntimeError>(())
//! ```

pub mod artifact;
pub mod backend;
pub mod batch;
pub mod engine;
pub mod error;
pub mod pool;
pub mod tensor_cache;

pub use artifact::ModelArtifact;
pub use backend::{CostModel, FloatBackend, InferenceBackend, IntBackend, Precision, SimBackend};
pub use batch::{BatchCost, BatchOutput, EncodedBatch};
pub use engine::{
    BackendKind, Classification, Engine, EngineBuilder, EvalSummary, ExecPolicy, Scored,
    ScoredOutput,
};
pub use error::RuntimeError;
pub use fqbert_telemetry as telemetry;
pub use pool::{PoolError, WorkerPool};
pub use tensor_cache::{LoadStats, TensorCache};

/// Convenience result alias for runtime operations.
pub type Result<T> = std::result::Result<T, RuntimeError>;
