//! The unified inference engine and its builder.

use crate::artifact::ModelArtifact;
use crate::backend::{FloatBackend, InferenceBackend, IntBackend, SimBackend};
use crate::batch::{BatchCost, BatchOutput, EncodedBatch};
use crate::pool::WorkerPool;
use crate::tensor_cache::{LoadStats, TensorCache};
use crate::{Result, RuntimeError};
use fqbert_accel::AcceleratorConfig;
use fqbert_bert::BertModel;
use fqbert_core::{convert, FqBertError, QatHook};
use fqbert_nlp::{accuracy, Example, TaskKind, Tokenizer, Vocab};
use fqbert_quant::QuantConfig;
use fqbert_telemetry::{Counter, Gauge, Histogram, Registry};
use fqbert_tensor::gemm::kernels as gemm_kernels;
use fqbert_tensor::GemmScratch;
use std::path::Path;
use std::sync::Arc;

/// Which backend an [`EngineBuilder`] should construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The FP32 float baseline.
    Float,
    /// The integer-only FQ-BERT engine (default).
    #[default]
    Int,
    /// The integer engine with latency charged through the accelerator
    /// cycle model.
    Sim,
}

impl BackendKind {
    /// All backend kinds, in declaration order.
    pub const ALL: [BackendKind; 3] = [BackendKind::Float, BackendKind::Int, BackendKind::Sim];

    /// The canonical config/CLI spelling (`float`, `int`, `sim`) — the same
    /// string the matching backend returns from
    /// [`crate::InferenceBackend::name`].
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Float => "float",
            BackendKind::Int => "int",
            BackendKind::Sim => "sim",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for BackendKind {
    type Err = RuntimeError;

    /// Parses the canonical spellings `float`, `int` and `sim`
    /// (case-insensitively, ignoring surrounding whitespace), so registry
    /// entries and CLI flags come from plain config strings.
    fn from_str(s: &str) -> Result<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "float" => Ok(BackendKind::Float),
            "int" => Ok(BackendKind::Int),
            "sim" => Ok(BackendKind::Sim),
            other => Err(RuntimeError::InvalidConfig(format!(
                "unknown backend kind `{other}` (expected `float`, `int` or `sim`)"
            ))),
        }
    }
}

/// How an engine executes a batch: on the caller's thread (`threads == 1`,
/// the default) or sharded across a fixed worker pool.
///
/// With `threads > 1` the engine splits every [`EncodedBatch`] into up to
/// `threads` contiguous shards and classifies them concurrently, one shard
/// per pool worker, each worker reusing its own
/// [`fqbert_tensor::GemmScratch`]. Sequences never share accumulators
/// across shards (every backend's per-sequence arithmetic is independent),
/// so sharded execution is bit-identical to serial execution at every
/// thread count — a property test pins this for all three backends.
///
/// `threads == 0` means "ask the OS" ([`std::thread::available_parallelism`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecPolicy {
    /// Worker threads for batch execution: `1` = serial on the calling
    /// thread, `0` = auto-detect from the host's available parallelism.
    pub threads: usize,
}

impl ExecPolicy {
    /// Serial execution on the calling thread (no pool).
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// Sharded execution across `threads` pool workers (`0` = auto).
    pub fn with_threads(threads: usize) -> Self {
        Self { threads }
    }

    /// Reads the policy from the `FQBERT_THREADS` environment variable
    /// (`0` = auto-detect), falling back to serial when unset or
    /// unparsable. This is the builder default, so one environment variable
    /// switches every engine in a process — tests, benches and the serving
    /// stack — onto the worker pool.
    pub fn from_env() -> Self {
        let threads = std::env::var("FQBERT_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(1);
        Self { threads }
    }

    /// The concrete worker count this policy resolves to on this host
    /// (auto-detection applied, minimum 1).
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        }
    }
}

impl Default for ExecPolicy {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Classification result for one input text.
#[derive(Debug, Clone, PartialEq)]
pub struct Classification {
    /// Predicted class index.
    pub prediction: usize,
    /// Class logits.
    pub logits: Vec<f32>,
}

/// Request-level classification result for one sequence: the predicted
/// class index *and* its task label name, raw logits, softmax scores, and
/// (for the simulated backend) the cycle-model cost of exactly this
/// sequence.
///
/// This is the unit a serving front-end returns per request, where the bare
/// [`Classification`] (index + logits) is not enough to render a response.
#[derive(Debug, Clone, PartialEq)]
pub struct Scored {
    /// Predicted class index.
    pub prediction: usize,
    /// Human-readable label of the predicted class (e.g. `positive`).
    pub label: &'static str,
    /// Raw class logits.
    pub logits: Vec<f32>,
    /// Softmax of the logits (sums to 1).
    pub scores: Vec<f32>,
    /// Simulated accelerator cost of this sequence, if the backend charges
    /// one.
    pub cost: Option<BatchCost>,
}

/// Result of [`Engine::classify_scored`] over one batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredOutput {
    /// Per-sequence scored classifications, in input order.
    pub results: Vec<Scored>,
    /// Total simulated cost of the batch, if the backend charges one.
    pub cost: Option<BatchCost>,
}

/// Splits `len` items into up to `parts` contiguous, near-equal ranges
/// (the first `len % parts` ranges get one extra item). Never returns an
/// empty range: with fewer items than parts, each item gets its own shard.
fn shard_ranges(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.clamp(1, len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let size = base + usize::from(p < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Numerically stable softmax over a logit slice.
fn softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        return vec![1.0 / logits.len().max(1) as f32; logits.len()];
    }
    let exps: Vec<f32> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Accuracy summary of an evaluation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalSummary {
    /// Classification accuracy in percent.
    pub accuracy: f64,
    /// Number of evaluated examples.
    pub num_examples: usize,
    /// Simulated accelerator latency charged for the run, if the backend
    /// has a cost model.
    pub simulated_latency_ms: Option<f64>,
}

/// Cached handles to the engine's own metrics, all named under `engine.`
/// in its telemetry registry. Handles are resolved once at assembly so the
/// classify hot path never touches the registry lock — recording is a few
/// relaxed atomic adds per batch.
#[derive(Debug)]
struct EngineMetrics {
    /// Batches classified (`engine.calls`), including failed calls.
    calls: Arc<Counter>,
    /// Sequences classified (`engine.sequences`).
    sequences: Arc<Counter>,
    /// Wall-clock microseconds per `classify_batch` call
    /// (`engine.classify_us`).
    classify_us: Arc<Histogram>,
    /// Wall-clock microseconds per pool shard (`engine.shard_us`); empty
    /// under the serial policy.
    shard_us: Arc<Histogram>,
    /// Shards currently executing on pool workers
    /// (`engine.inflight_shards`).
    inflight_shards: Arc<Gauge>,
}

impl EngineMetrics {
    fn new(registry: &Registry) -> Self {
        Self {
            calls: registry.counter("engine.calls"),
            sequences: registry.counter("engine.sequences"),
            classify_us: registry.histogram("engine.classify_us"),
            shard_us: registry.histogram("engine.shard_us"),
            inflight_shards: registry.gauge("engine.inflight_shards"),
        }
    }
}

/// A task-aware serving engine: tokenizer + backend + batch size.
///
/// Built by [`EngineBuilder`]; every workload (examples, experiment
/// binaries, the `fqbert-serve` server) funnels through
/// [`Engine::classify_texts`] / [`Engine::classify_batch`] /
/// [`Engine::classify_scored`] regardless of which backend is loaded.
///
/// Every engine carries a telemetry [`Registry`] (private by default,
/// shareable via [`EngineBuilder::telemetry`]) recording call counts,
/// classify latency and per-shard timings under `engine.*` — see
/// [`Engine::telemetry`].
pub struct Engine {
    task: TaskKind,
    tokenizer: Tokenizer,
    backend: Arc<dyn InferenceBackend>,
    batch_size: usize,
    /// Present iff the execution policy resolved to more than one thread.
    /// Each worker owns one GEMM scratch it keeps across every shard it
    /// serves, so the integer hot path neither contends on a shared buffer
    /// nor reallocates per shard.
    pool: Option<WorkerPool<GemmScratch>>,
    telemetry: Arc<Registry>,
    metrics: EngineMetrics,
    /// Dedup statistics of the artifact load that produced this engine
    /// (all-zero for engines built from in-memory models).
    load_stats: LoadStats,
}

impl Engine {
    /// Assembles an engine, spinning up the worker pool when the policy
    /// asks for more than one thread.
    fn assemble(
        task: TaskKind,
        tokenizer: Tokenizer,
        backend: Arc<dyn InferenceBackend>,
        batch_size: usize,
        exec: ExecPolicy,
        telemetry: Option<Arc<Registry>>,
    ) -> Self {
        let threads = exec.effective_threads();
        let pool = (threads > 1).then(|| WorkerPool::new(threads, |_| GemmScratch::new()));
        let telemetry = telemetry.unwrap_or_else(|| Arc::new(Registry::new()));
        let metrics = EngineMetrics::new(&telemetry);
        // Resolve the GEMM kernel dispatch now (first call latches the
        // FQBERT_KERNEL / feature-detection choice) and record it so every
        // snapshot of this engine says which micro-kernel served it.
        telemetry
            .label("engine.kernel")
            .set(gemm_kernels::selected().name);
        Self {
            task,
            tokenizer,
            backend,
            batch_size,
            pool,
            telemetry,
            metrics,
            load_stats: LoadStats::default(),
        }
    }

    /// The task this engine serves.
    pub fn task(&self) -> TaskKind {
        self.task
    }

    /// The tokenizer used to encode inputs.
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// The backend in use.
    pub fn backend(&self) -> &dyn InferenceBackend {
        self.backend.as_ref()
    }

    /// Sequences per backend call.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Worker threads batches are sharded across (1 = serial execution).
    pub fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, WorkerPool::threads)
    }

    /// Name of the GEMM micro-kernel serving this process: `vnni`, `avx2`,
    /// `sse2`, `neon` or `scalar` — whatever the runtime dispatch selected
    /// (or `FQBERT_KERNEL` forced) at first use.
    pub fn kernel(&self) -> &'static str {
        gemm_kernels::selected().name
    }

    /// Bytes of model weight storage currently resident for this engine's
    /// quantized model (0 for the float backend): the embedding's code
    /// tables and folded layer norm, the float head, plus every layer's
    /// bias and GEMM panel storage. Grows as layers
    /// build their panels on first use.
    pub fn resident_bytes(&self) -> usize {
        self.backend
            .int_model()
            .map_or(0, fqbert_core::IntBertModel::resident_bytes)
    }

    /// Dedup statistics of the artifact load that produced this engine:
    /// how many tensors (and bytes) were shared with previously loaded
    /// models instead of being loaded privately. All-zero for engines
    /// built from in-memory models.
    pub fn load_stats(&self) -> LoadStats {
        self.load_stats
    }

    /// The engine's telemetry registry: `engine.calls` / `engine.sequences`
    /// counters, `engine.classify_us` / `engine.shard_us` latency
    /// histograms and the `engine.inflight_shards` gauge. Private to this
    /// engine unless one was shared via [`EngineBuilder::telemetry`].
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    /// Classifies raw texts, batching them `batch_size` at a time.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn classify_texts(&self, texts: &[&str]) -> Result<Vec<Classification>> {
        let mut out = Vec::with_capacity(texts.len());
        for chunk in texts.chunks(self.batch_size.max(1)) {
            let batch = EncodedBatch::from_texts(&self.tokenizer, chunk);
            let result = self.classify_batch(&batch)?;
            for (prediction, logits) in result.predictions.into_iter().zip(result.logits) {
                out.push(Classification { prediction, logits });
            }
        }
        Ok(out)
    }

    /// Classifies sentence pairs (premise, hypothesis), batching them
    /// `batch_size` at a time.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn classify_pairs(&self, pairs: &[(&str, &str)]) -> Result<Vec<Classification>> {
        let mut out = Vec::with_capacity(pairs.len());
        for chunk in pairs.chunks(self.batch_size.max(1)) {
            let batch = EncodedBatch::from_pairs(&self.tokenizer, chunk);
            let result = self.classify_batch(&batch)?;
            for (prediction, logits) in result.predictions.into_iter().zip(result.logits) {
                out.push(Classification { prediction, logits });
            }
        }
        Ok(out)
    }

    /// Classifies one pre-encoded batch: in a single backend call under the
    /// serial policy, or sharded across the worker pool when the engine was
    /// built with [`ExecPolicy`] threads > 1 (bit-identical either way —
    /// shards never share accumulators).
    ///
    /// # Errors
    ///
    /// Returns `InvalidArgument` for an empty batch (there is nothing to
    /// classify, and backends differ in how they would handle it);
    /// propagates backend errors and worker-pool failures otherwise.
    pub fn classify_batch(&self, batch: &EncodedBatch) -> Result<BatchOutput> {
        if batch.is_empty() {
            return Err(RuntimeError::Core(FqBertError::InvalidArgument(
                "empty batch: classify_batch needs at least one sequence".to_string(),
            )));
        }
        self.metrics.calls.inc();
        self.metrics.sequences.add(batch.len() as u64);
        let timer = self.metrics.classify_us.start_timer();
        let result = match &self.pool {
            Some(pool) if batch.len() > 1 => self.classify_sharded(pool, batch),
            _ => self.backend.classify_batch(batch),
        };
        // Failed calls are timed too: a backend that errors slowly is a
        // latency problem the histogram should show.
        timer.observe();
        result
    }

    /// Splits `batch` into up to `pool.threads()` contiguous shards, runs
    /// them concurrently (one per worker, each with its own scratch) and
    /// reassembles the outputs in input order.
    fn classify_sharded(
        &self,
        pool: &WorkerPool<GemmScratch>,
        batch: &EncodedBatch,
    ) -> Result<BatchOutput> {
        let tasks: Vec<_> = shard_ranges(batch.len(), pool.threads())
            .into_iter()
            .map(|range| {
                let backend = Arc::clone(&self.backend);
                // A shard is a range view sharing the batch's storage — no
                // examples are copied onto the workers.
                let shard = batch.shard(range);
                let shard_us = Arc::clone(&self.metrics.shard_us);
                let inflight = Arc::clone(&self.metrics.inflight_shards);
                move |scratch: &mut GemmScratch| {
                    inflight.inc();
                    let timer = shard_us.start_timer();
                    let out = backend.classify_shard(&shard, scratch);
                    timer.observe();
                    inflight.dec();
                    out
                }
            })
            .collect();
        let mut logits = Vec::with_capacity(batch.len());
        let mut predictions = Vec::with_capacity(batch.len());
        let mut sequence_costs: Vec<BatchCost> = Vec::new();
        let mut costed_shards = 0usize;
        let mut shards = 0usize;
        for outcome in pool.run(tasks) {
            let shard = outcome.map_err(|e| RuntimeError::Execution(e.to_string()))??;
            shards += 1;
            logits.extend(shard.logits);
            predictions.extend(shard.predictions);
            if let Some(costs) = shard.sequence_costs {
                costed_shards += 1;
                sequence_costs.extend(costs);
            }
        }
        // Either every shard charges per-sequence costs (sim) or none does
        // (float/int) — a single backend serves all shards.
        debug_assert!(costed_shards == 0 || costed_shards == shards);
        // Re-derive the batch total from the concatenated per-sequence
        // costs in input order, exactly as the serial path folds them, so
        // the f64 latency sum is bit-identical at every thread count.
        let cost = (costed_shards > 0).then(|| {
            let mut total = BatchCost {
                total_cycles: 0,
                latency_ms: 0.0,
            };
            for c in &sequence_costs {
                total.total_cycles += c.total_cycles;
                total.latency_ms += c.latency_ms;
            }
            total
        });
        Ok(BatchOutput {
            logits,
            predictions,
            cost,
            sequence_costs: (costed_shards > 0).then_some(sequence_costs),
        })
    }

    /// Classifies one pre-encoded batch and returns request-level results:
    /// label names, softmax scores and per-sequence simulated costs on top
    /// of the raw predictions and logits.
    ///
    /// The logits are exactly those of [`Engine::classify_batch`] — the
    /// scored view adds derived data without touching the datapath, so
    /// serving through this API stays bit-identical to calling the backend
    /// directly.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn classify_scored(&self, batch: &EncodedBatch) -> Result<ScoredOutput> {
        let out = self.classify_batch(batch)?;
        let mut sequence_costs = out
            .sequence_costs
            .map(|costs| costs.into_iter().map(Some).collect::<Vec<_>>())
            .unwrap_or_else(|| vec![None; out.logits.len()]);
        let results = out
            .predictions
            .into_iter()
            .zip(out.logits)
            .zip(sequence_costs.iter_mut())
            .map(|((prediction, logits), cost)| Scored {
                prediction,
                label: self.task.class_name(prediction),
                scores: softmax(&logits),
                logits,
                cost: cost.take(),
            })
            .collect();
        Ok(ScoredOutput {
            results,
            cost: out.cost,
        })
    }

    /// Evaluates accuracy over pre-encoded examples, batching internally.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn evaluate(&self, examples: &[Example]) -> Result<EvalSummary> {
        if examples.is_empty() {
            return Ok(EvalSummary {
                accuracy: 0.0,
                num_examples: 0,
                simulated_latency_ms: None,
            });
        }
        let mut predictions = Vec::with_capacity(examples.len());
        let mut simulated_ms: Option<f64> = None;
        for chunk in examples.chunks(self.batch_size.max(1)) {
            let batch = EncodedBatch::from_examples(chunk.to_vec());
            let result = self.classify_batch(&batch)?;
            predictions.extend(result.predictions);
            if let Some(cost) = result.cost {
                *simulated_ms.get_or_insert(0.0) += cost.latency_ms;
            }
        }
        let labels: Vec<usize> = examples.iter().map(|e| e.label).collect();
        Ok(EvalSummary {
            accuracy: accuracy(&predictions, &labels),
            num_examples: examples.len(),
            simulated_latency_ms: simulated_ms,
        })
    }

    /// Persists the engine's quantized model (plus tokenizer and task) as a
    /// versioned binary artifact.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for the float backend (there
    /// is no quantized model to save) and I/O errors from writing.
    pub fn save(&self, path: &Path) -> Result<()> {
        let model = self.backend.int_model().ok_or_else(|| {
            RuntimeError::InvalidConfig(format!(
                "the `{}` backend holds no quantized model to save",
                self.backend.name()
            ))
        })?;
        ModelArtifact::new(self.task, model.clone(), self.tokenizer.clone()).save(path)
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("task", &self.task)
            .field("backend", &self.backend.name())
            .field("precision", &self.backend.precision().to_string())
            .field("batch_size", &self.batch_size)
            .field("threads", &self.threads())
            .finish()
    }
}

/// Fluent constructor for [`Engine`]: task → tokenizer → backend →
/// batch size → calibration options.
///
/// Replaces the hand-rolled wiring the examples and the bench pipeline used
/// to duplicate (train → build hook → calibrate → convert → evaluate, each
/// slightly differently).
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    task: TaskKind,
    tokenizer: Option<Tokenizer>,
    backend: BackendKind,
    batch_size: usize,
    quant: QuantConfig,
    calibration: Vec<Example>,
    accel: AcceleratorConfig,
    exec: ExecPolicy,
    telemetry: Option<Arc<Registry>>,
}

/// Default sequences per backend call.
pub const DEFAULT_BATCH_SIZE: usize = 8;

impl EngineBuilder {
    /// Starts a builder for `task` with the FQ-BERT defaults (integer
    /// backend, w4/a8 quantization, ZCU111 accelerator, batch size
    /// [`DEFAULT_BATCH_SIZE`]).
    pub fn new(task: TaskKind) -> Self {
        Self {
            task,
            tokenizer: None,
            backend: BackendKind::Int,
            batch_size: DEFAULT_BATCH_SIZE,
            quant: QuantConfig::fq_bert(),
            calibration: Vec::new(),
            accel: AcceleratorConfig::zcu111_n16_m16(),
            exec: ExecPolicy::default(),
            telemetry: None,
        }
    }

    /// Uses an existing tokenizer.
    pub fn tokenizer(mut self, tokenizer: Tokenizer) -> Self {
        self.tokenizer = Some(tokenizer);
        self
    }

    /// Builds a tokenizer from a vocabulary and maximum sequence length.
    pub fn vocab(self, vocab: Vocab, max_len: usize) -> Self {
        self.tokenizer(Tokenizer::new(vocab, max_len))
    }

    /// Selects which backend to construct.
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.backend = kind;
        self
    }

    /// Sets the number of sequences per backend call.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Sets the quantization configuration used when converting a float
    /// model (ignored by the float backend).
    pub fn quant(mut self, quant: QuantConfig) -> Self {
        self.quant = quant;
        self
    }

    /// Provides calibration examples: when building an integer backend
    /// without a QAT hook, the engine runs these through the float model in
    /// calibration-only mode to derive activation scales.
    pub fn calibrate_with(mut self, examples: &[Example]) -> Self {
        self.calibration = examples.to_vec();
        self
    }

    /// Sets the accelerator configuration charged by the simulated backend.
    pub fn accelerator(mut self, accel: AcceleratorConfig) -> Self {
        self.accel = accel;
        self
    }

    /// Sets the batch execution policy (serial or sharded across a worker
    /// pool). The default comes from the `FQBERT_THREADS` environment
    /// variable (serial when unset).
    pub fn exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// Shorthand for [`EngineBuilder::exec`] with an explicit thread count
    /// (`0` = auto-detect, `1` = serial).
    pub fn threads(self, threads: usize) -> Self {
        self.exec(ExecPolicy::with_threads(threads))
    }

    /// Registers the engine's metrics in an existing telemetry registry
    /// instead of a private one — how a server pools several engines'
    /// metrics. Note the metric names are fixed (`engine.*`), so engines
    /// sharing one registry share counters; give each engine its own
    /// registry and merge snapshots with a prefix
    /// ([`fqbert_telemetry::Snapshot::merge_prefixed`]) to keep them apart.
    pub fn telemetry(mut self, registry: Arc<Registry>) -> Self {
        self.telemetry = Some(registry);
        self
    }

    fn take_tokenizer(&mut self) -> Result<Tokenizer> {
        self.tokenizer.take().ok_or_else(|| {
            RuntimeError::InvalidConfig("a tokenizer (or vocab + max_len) is required".to_string())
        })
    }

    fn check_classes(&self, num_classes: usize) -> Result<()> {
        if num_classes != self.task.num_classes() {
            return Err(RuntimeError::InvalidConfig(format!(
                "model has {num_classes} classes but task {} needs {}",
                self.task,
                self.task.num_classes()
            )));
        }
        Ok(())
    }

    /// Builds the engine from a trained float model.
    ///
    /// For the integer and simulated backends the model is calibrated with
    /// the examples from [`EngineBuilder::calibrate_with`] (in
    /// calibration-only mode — the model itself is never perturbed) and then
    /// converted with this builder's quantization configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] if no tokenizer was supplied,
    /// the model's head does not match the task, or (for integer backends)
    /// no calibration examples were provided; propagates conversion errors.
    pub fn build(mut self, model: &BertModel) -> Result<Engine> {
        self.check_classes(model.config().num_classes)?;
        let tokenizer = self.take_tokenizer()?;
        let backend: Arc<dyn InferenceBackend> = match self.backend {
            BackendKind::Float => Arc::new(FloatBackend::new(model.clone())),
            BackendKind::Int | BackendKind::Sim => {
                if self.calibration.is_empty() {
                    return Err(RuntimeError::InvalidConfig(
                        "integer backends need calibration examples \
                         (EngineBuilder::calibrate_with) or a QAT hook \
                         (EngineBuilder::build_with_hook)"
                            .to_string(),
                    ));
                }
                let hook = QatHook::calibrated(model, self.quant, &self.calibration)?;
                let int_model = convert(model, &hook)?;
                match self.backend {
                    BackendKind::Sim => Arc::new(SimBackend::new(int_model, self.accel.clone())?),
                    _ => Arc::new(IntBackend::new(int_model)),
                }
            }
        };
        Ok(Engine::assemble(
            self.task,
            tokenizer,
            backend,
            self.batch_size,
            self.exec,
            self.telemetry,
        ))
    }

    /// Builds the engine from a float model plus an already-calibrated QAT
    /// hook (the fine-tuning path: scales come from the hook's EMA
    /// observers instead of fresh calibration passes).
    ///
    /// # Errors
    ///
    /// As for [`EngineBuilder::build`]; additionally propagates
    /// missing-calibration errors from the converter.
    pub fn build_with_hook(mut self, model: &BertModel, hook: &QatHook) -> Result<Engine> {
        self.check_classes(model.config().num_classes)?;
        let tokenizer = self.take_tokenizer()?;
        let backend: Arc<dyn InferenceBackend> = match self.backend {
            BackendKind::Float => Arc::new(FloatBackend::new(model.clone())),
            BackendKind::Int => Arc::new(IntBackend::new(convert(model, hook)?)),
            BackendKind::Sim => {
                Arc::new(SimBackend::new(convert(model, hook)?, self.accel.clone())?)
            }
        };
        Ok(Engine::assemble(
            self.task,
            tokenizer,
            backend,
            self.batch_size,
            self.exec,
            self.telemetry,
        ))
    }

    /// Builds the engine by loading a saved artifact (`quantize once →
    /// serve many`): no float model, no retraining, no recalibration.
    ///
    /// The file is read once into a shared buffer; weight tensors stay in
    /// their on-disk encoding behind it and each linear builds its GEMM
    /// panels on first use, so cold start does not pay for packing every
    /// layer up front. Use [`EngineBuilder::load_shared_bytes`] to share
    /// the buffer, and dedup the embedding and head tables, across several
    /// loaded models.
    ///
    /// The artifact supplies the task and tokenizer; the builder's task is
    /// overridden by the artifact's. The float backend cannot be built from
    /// an artifact.
    ///
    /// # Errors
    ///
    /// Propagates artifact I/O and validation errors; returns
    /// [`RuntimeError::InvalidConfig`] for [`BackendKind::Float`].
    pub fn load(self, path: &Path) -> Result<Engine> {
        let bytes: Arc<[u8]> = std::fs::read(path)?.into();
        self.load_shared_bytes(&bytes, &mut TensorCache::new())
    }

    /// As [`EngineBuilder::load`], from an already-loaded artifact byte
    /// buffer — so several registry entries pointing at the same artifact
    /// file share one read and one backing buffer — interning the tables
    /// around the encoder through a caller-owned [`TensorCache`] so
    /// identical ones across models loaded with the same cache (embedding
    /// code tables and classifier heads of w4/w8 variants of one task)
    /// share one allocation. The
    /// engine's [`Engine::load_stats`] reports what was shared.
    ///
    /// # Errors
    ///
    /// Propagates artifact validation errors; returns
    /// [`RuntimeError::InvalidConfig`] for [`BackendKind::Float`].
    pub fn load_shared_bytes(self, bytes: &Arc<[u8]>, cache: &mut TensorCache) -> Result<Engine> {
        let (artifact, stats) = ModelArtifact::from_shared_bytes(bytes, cache)?;
        let mut engine = self.from_artifact(artifact)?;
        engine.load_stats = stats;
        Ok(engine)
    }

    /// Builds the engine from an in-memory artifact.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for [`BackendKind::Float`].
    pub fn from_artifact(self, artifact: ModelArtifact) -> Result<Engine> {
        let backend: Arc<dyn InferenceBackend> = match self.backend {
            BackendKind::Float => {
                return Err(RuntimeError::InvalidConfig(
                    "artifacts store quantized models; the float backend \
                     must be built from a float model"
                        .to_string(),
                ))
            }
            BackendKind::Int => Arc::new(IntBackend::new(artifact.model)),
            BackendKind::Sim => Arc::new(SimBackend::new(artifact.model, self.accel.clone())?),
        };
        Ok(Engine::assemble(
            artifact.task,
            artifact.tokenizer,
            backend,
            self.batch_size,
            self.exec,
            self.telemetry,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_round_trips_through_strings() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.to_string().parse::<BackendKind>().unwrap(), kind);
        }
        assert_eq!("float".parse::<BackendKind>().unwrap(), BackendKind::Float);
        assert_eq!("int".parse::<BackendKind>().unwrap(), BackendKind::Int);
        assert_eq!("sim".parse::<BackendKind>().unwrap(), BackendKind::Sim);
    }

    #[test]
    fn backend_kind_parsing_is_forgiving_about_case_and_whitespace() {
        assert_eq!(
            " Float ".parse::<BackendKind>().unwrap(),
            BackendKind::Float
        );
        assert_eq!("INT".parse::<BackendKind>().unwrap(), BackendKind::Int);
        assert_eq!("Sim\n".parse::<BackendKind>().unwrap(), BackendKind::Sim);
    }

    #[test]
    fn backend_kind_rejects_unknown_spellings() {
        for bad in ["", "fp32", "integer", "cpu", "f loat"] {
            let err = bad.parse::<BackendKind>().expect_err("must reject");
            assert!(err.to_string().contains("backend kind"), "{err}");
        }
    }

    #[test]
    fn shard_ranges_cover_everything_in_order() {
        for &(len, parts) in &[
            (1usize, 1usize),
            (10, 1),
            (10, 3),
            (16, 4),
            (3, 8), // more threads than sequences: one item per shard
            (7, 7),
        ] {
            let ranges = shard_ranges(len, parts);
            assert!(ranges.len() <= parts.max(1));
            assert!(ranges.iter().all(|r| !r.is_empty()), "{len}/{parts}");
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "{len}/{parts}");
                next = r.end;
            }
            assert_eq!(next, len, "{len}/{parts}");
            let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "unbalanced shards {sizes:?}");
        }
    }

    #[test]
    fn exec_policy_resolves_thread_counts() {
        assert_eq!(ExecPolicy::serial().effective_threads(), 1);
        assert_eq!(ExecPolicy::with_threads(3).effective_threads(), 3);
        // Auto-detection always lands on at least one thread.
        assert!(ExecPolicy::with_threads(0).effective_threads() >= 1);
    }

    #[test]
    fn softmax_is_stable_and_normalised() {
        let scores = softmax(&[1.0, 2.0, 3.0]);
        assert!((scores.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(scores[2] > scores[1] && scores[1] > scores[0]);
        // Large logits must not overflow to NaN.
        let big = softmax(&[1000.0, 1001.0]);
        assert!(big.iter().all(|s| s.is_finite()));
        assert!((big.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }
}
