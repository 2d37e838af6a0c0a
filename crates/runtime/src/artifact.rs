//! Versioned binary model artifacts: `quantize once → serve many`.
//!
//! An artifact captures everything needed to serve a quantized model without
//! retraining or recalibrating: the integer embedding (8-bit word and
//! position×segment code tables with their scales, the embedding
//! layer-norm parameter codes), the integer encoder (weight codes, bias
//! codes, per-layer activation scales, layer-norm parameter codes), the
//! float classifier head, the task, and the tokenizer vocabulary. Loading
//! reconstructs an [`IntBertModel`] whose outputs are **bit-identical** to
//! the saved model: all derived state (requantizers, softmax LUT, GELU
//! table, the folded `Add & LN` blocks of the embedding and the encoder) is
//! a deterministic function of the stored scales and is rebuilt by the same
//! constructors the converter uses.
//!
//! # Format (version 3, the only version)
//!
//! Little-endian throughout:
//!
//! ```text
//! magic      b"FQBT"
//! version    u32              (3; anything else is rejected by number)
//! payload    ...              (task, config, embedding, head, layers, vocab)
//! checksum   u32              CRC-32 (IEEE) of the payload bytes
//! ```
//!
//! Scalars are `u64`/`u32`/`f32-as-bits`; tensors are a rank-prefixed dim
//! list followed by raw element data; strings are length-prefixed UTF-8.
//! After the config come the embedding output scale and the headline weight
//! width, then the embedding: the word table (its scale, then `[vocab,
//! hidden]` codes, one byte each), the position×segment table (its scale,
//! then `[max_len · type_vocab, hidden]` codes; row `p · type_vocab + s`
//! holds position `p` plus segment `s`) and the embedding layer norm; then
//! the classifier weight and bias as `f32` tensors.
//! Each encoder layer stores its head count, **nine** per-layer activation
//! scales — `input`, `q`, `k`, `v` (one per attention projection), `scores`,
//! `attn_output`, `layer_norm`, `ffn_hidden`, `ffn_output` — six quantized
//! linears and two quantized layer norms. A linear is encoded as its weight
//! bit-width, three scales (weight/input/output), the weight code tensor and
//! the `i32` bias tensor; weight tensors of **at most 4 bits** store two
//! codes per byte (low nibble first, see [`fqbert_tensor::pack4`]), while
//! wider weights stay one code per byte. On a model of vocabulary 999,
//! hidden 256, 128 positions and 2 segments the embedding is 321 280 bytes
//! of codes; the three float tables would be 1 157 120.
//!
//! # One decoder, and where the bytes live after load
//!
//! There is one writer ([`ModelArtifact::to_bytes`]) and one decoder behind
//! [`ModelArtifact::from_shared_bytes`]; [`ModelArtifact::load`] and
//! [`ModelArtifact::from_bytes`] only put the bytes into an `Arc<[u8]>`
//! first. The whole file stays resident in that one buffer: every
//! [`IntLinear`] keeps `(buffer, offset)` of its encoded weight matrix —
//! that encoding is the only form weights take outside the GEMM panels,
//! which each linear builds from it on first forward pass — and the writer
//! copies those encoded bytes back out verbatim. The embedding code tables
//! and the head's float tensors are decoded into owned storage and
//! interned through a [`TensorCache`], so artifacts loaded with one cache
//! share identical tables. Any truncation, bit flip or unsupported version
//! is rejected at load time ([`RuntimeError::Artifact`]) — and so is a
//! CRC-valid file whose contents do not fit together: shapes that disagree
//! with the config, a `NaN` or infinite value in the head, an embedding
//! output scale, code-table scale or layer-norm `eps` that is not finite
//! and positive, and every scale a stage is folded from (a projection's
//! three, the attention score scales, the four `Add & LN` computes with).
//! Each scale is looked at exactly once, by the constructor that folds it,
//! so a zero, negative, `NaN` or infinite one fails the load, never a
//! request.

use crate::tensor_cache::{LoadStats, TensorCache};
use crate::{Result, RuntimeError};
use fqbert_bert::BertConfig;
use fqbert_core::int_model::{HostSide, IntEmbedding, LayerScales};
use fqbert_core::{IntBertModel, IntEncoderLayer, IntLinear};
use fqbert_nlp::{TaskKind, Tokenizer, Vocab};
use fqbert_quant::QuantizedLayerNorm;
use fqbert_tensor::{IntTensor, Tensor};
use std::path::Path;
use std::sync::Arc;

/// Artifact magic bytes.
pub const MAGIC: &[u8; 4] = b"FQBT";
/// Byte offset of the payload inside the artifact (magic + version).
const PAYLOAD_OFFSET: usize = 8;
/// The artifact format version: what [`ModelArtifact::to_bytes`] emits and
/// the only one the loader accepts.
pub const VERSION: u32 = 3;

/// A deserialized model artifact: the quantized model plus everything needed
/// to serve it.
#[derive(Debug, Clone)]
pub struct ModelArtifact {
    /// The task the model was trained for.
    pub task: TaskKind,
    /// The reconstructed integer model.
    pub model: IntBertModel,
    /// Tokenizer over the training vocabulary, padded to the model's
    /// maximum sequence length.
    pub tokenizer: Tokenizer,
}

impl ModelArtifact {
    /// Bundles a quantized model with its tokenizer and task.
    pub fn new(task: TaskKind, model: IntBertModel, tokenizer: Tokenizer) -> Self {
        Self {
            task,
            model,
            tokenizer,
        }
    }

    /// Serialises the artifact to `path`.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file cannot be written.
    pub fn save(&self, path: &Path) -> Result<()> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Loads an artifact from `path`: the file is read once into a shared
    /// buffer and decoded by [`ModelArtifact::from_shared_bytes`] with a
    /// fresh private [`TensorCache`]. Use `from_shared_bytes` with a
    /// longer-lived cache to dedup tensors *across* artifacts.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Artifact`] for wrong magic, unsupported
    /// version, corruption (checksum mismatch) or truncation, and an I/O
    /// error if the file cannot be read.
    pub fn load(path: &Path) -> Result<Self> {
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// Deserialises an artifact from a byte slice by copying it into a
    /// shared buffer of its own — a convenience for tests and tools that
    /// hold plain bytes; loaders that already own the file's bytes use
    /// [`ModelArtifact::from_shared_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Artifact`] on any structural problem.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Ok(Self::from_shared_bytes(&Arc::from(bytes), &mut TensorCache::new())?.0)
    }

    /// Deserialises an artifact from a shared byte buffer without copying
    /// or unpacking weight tensors: each encoder linear holds
    /// `(buffer, offset)` into `bytes` and builds its GEMM panels straight
    /// from the encoded nibbles/codes on first forward pass. The embedding
    /// code tables and the classifier head are interned through `cache`, so
    /// identical tables across artifacts loaded with the same cache share
    /// one allocation; the returned [`LoadStats`] says how much was shared.
    ///
    /// # Errors
    ///
    /// As for [`ModelArtifact::from_bytes`].
    pub fn from_shared_bytes(
        bytes: &Arc<[u8]>,
        cache: &mut TensorCache,
    ) -> Result<(Self, LoadStats)> {
        Self::parse(bytes, cache)
    }

    /// Serialises the artifact into a byte vector (format [`VERSION`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Writer::default();
        payload.u8(task_tag(self.task));
        write_config(&mut payload, self.model.config());
        payload.f32(self.model.embedding_out_scale());
        payload.u32(self.model.weight_bits());
        let host = &self.model.host;
        let embedding = &host.embedding;
        let [word_scale, position_segment_scale] = embedding.table_scales();
        write_code_table(&mut payload, word_scale, &embedding.word);
        write_code_table(
            &mut payload,
            position_segment_scale,
            &embedding.position_segment,
        );
        write_layer_norm(&mut payload, embedding.layer_norm());
        write_tensor(&mut payload, &host.classifier_weight);
        write_tensor(&mut payload, &host.classifier_bias);
        payload.u64(self.model.layers.len() as u64);
        for layer in &self.model.layers {
            write_layer(&mut payload, layer);
        }
        write_vocab(&mut payload, self.tokenizer.vocab());
        payload.u64(self.tokenizer.max_len() as u64);

        let mut out = Vec::with_capacity(payload.buf.len() + 12);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&payload.buf);
        out.extend_from_slice(&crc32(&payload.buf).to_le_bytes());
        out
    }

    /// The one decoder: weight tensors become references into `bytes`,
    /// the tables around the encoder are interned through `cache`.
    fn parse(bytes: &Arc<[u8]>, cache: &mut TensorCache) -> Result<(Self, LoadStats)> {
        if bytes.len() < 12 {
            return Err(RuntimeError::Artifact("file too short".to_string()));
        }
        let magic = bytes.get(..4).unwrap_or_default();
        if magic != MAGIC {
            return Err(RuntimeError::Artifact(format!(
                "bad magic {magic:02x?} (expected {MAGIC:02x?})"
            )));
        }
        let version = u32::from_le_bytes(fixed_bytes(bytes, 4)?);
        if version != VERSION {
            return Err(RuntimeError::Artifact(format!(
                "unsupported artifact version {version} (this build reads {VERSION})"
            )));
        }
        let payload = bytes.get(8..bytes.len() - 4).unwrap_or_default();
        let stored_crc = u32::from_le_bytes(fixed_bytes(bytes, bytes.len() - 4)?);
        let actual_crc = crc32(payload);
        if stored_crc != actual_crc {
            return Err(RuntimeError::Artifact(format!(
                "checksum mismatch: stored {stored_crc:08x}, computed {actual_crc:08x}"
            )));
        }

        let mut r = Reader {
            buf: payload,
            pos: 0,
        };
        let task = parse_task(r.u8()?)?;
        let config = read_config(&mut r)?;
        let embedding_out_scale = r.f32()?;
        let weight_bits = r.u32()?;
        let (word_scale, word) = read_code_table(&mut r)?;
        let (position_segment_scale, position_segment) = read_code_table(&mut r)?;
        let layer_norm = read_layer_norm(&mut r)?;
        let cls_w = read_tensor(&mut r)?;
        let cls_b = read_tensor(&mut r)?;
        // Shape-check every table around the encoder against the config
        // so a CRC-valid but structurally inconsistent artifact is rejected
        // here instead of failing later inside the inference engine. The
        // head computes with every value of its two tensors, so a
        // non-finite one is refused here too, as are the scalars the
        // embedding's `Add & LN` is folded from.
        let (v, h, c) = (config.vocab_size, config.hidden, config.num_classes);
        let positions = config
            .max_len
            .checked_mul(config.type_vocab_size)
            .ok_or_else(|| {
                RuntimeError::Artifact(format!(
                    "{} positions x {} segments overflow usize",
                    config.max_len, config.type_vocab_size
                ))
            })?;
        let layer_norm_width = [layer_norm.hidden()];
        for (name, dims, expected) in [
            ("word codes", word.dims(), vec![v, h]),
            (
                "position x segment codes",
                position_segment.dims(),
                vec![positions, h],
            ),
            ("embedding layer norm", layer_norm_width.as_slice(), vec![h]),
            ("classifier weight", cls_w.dims(), vec![h, c]),
            ("classifier bias", cls_b.dims(), vec![c]),
        ] {
            if dims != expected.as_slice() {
                return Err(RuntimeError::Artifact(format!(
                    "{name} shape {dims:?} disagrees with config (expected {expected:?})"
                )));
            }
        }
        for (name, tensor) in [("classifier weight", &cls_w), ("classifier bias", &cls_b)] {
            let values = tensor.as_slice().iter();
            if let Some((at, value)) = values.enumerate().find(|(_, v)| !v.is_finite()) {
                return Err(RuntimeError::Artifact(format!(
                    "{name}: non-finite value {value} at element {at}"
                )));
            }
        }
        for (name, value) in [
            ("embedding output scale", embedding_out_scale),
            ("word code scale", word_scale),
            ("position x segment code scale", position_segment_scale),
            ("layer norm eps", config.layer_norm_eps),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return Err(RuntimeError::Artifact(format!(
                    "{name} {value} is not finite and positive"
                )));
            }
        }
        // Intern the tables around the encoder through the dedup cache:
        // identical tables across artifacts — the embedding codes and
        // classifier heads of w4/w8 variants of one task — collapse onto
        // one shared allocation.
        let mut stats = LoadStats::default();
        let sizes = [v * h, positions * h, 4 * cls_w.numel(), 4 * cls_b.numel()];
        let (word, word_shared) = cache.intern_codes(word);
        let (position_segment, position_segment_shared) = cache.intern_codes(position_segment);
        let (classifier_weight, weight_shared) = cache.intern(cls_w);
        let (classifier_bias, bias_shared) = cache.intern(cls_b);
        let shared = [
            word_shared,
            position_segment_shared,
            weight_shared,
            bias_shared,
        ];
        for (nbytes, _) in sizes.into_iter().zip(shared).filter(|(_, shared)| *shared) {
            stats.shared_tensors += 1;
            stats.shared_bytes += nbytes;
        }
        let embedding = IntEmbedding::from_quantized_parts(
            word,
            word_scale,
            position_segment,
            position_segment_scale,
            config.type_vocab_size,
            layer_norm,
            embedding_out_scale,
        )
        .map_err(|e| RuntimeError::Artifact(format!("invalid embedding: {e}")))?;
        let host = HostSide {
            embedding,
            classifier_weight,
            classifier_bias,
        };
        let num_layers = r.u64()? as usize;
        if num_layers != config.layers {
            return Err(RuntimeError::Artifact(format!(
                "layer count {num_layers} disagrees with config ({})",
                config.layers
            )));
        }
        // No capacity up front: the count is only as trustworthy as the
        // config it matched, and each layer below must parse first.
        let mut layers = Vec::new();
        for _ in 0..num_layers {
            layers.push(read_layer(&mut r, &config, bytes)?);
        }
        let vocab = read_vocab(&mut r)?;
        let max_len = r.u64()? as usize;
        if !(3..=config.max_len).contains(&max_len) {
            return Err(RuntimeError::Artifact(format!(
                "tokenizer max_len {max_len} outside 3..={} (position table size)",
                config.max_len
            )));
        }
        if !r.at_end() {
            return Err(RuntimeError::Artifact(format!(
                "{} trailing payload bytes",
                r.buf.len() - r.pos
            )));
        }
        if vocab.len() != config.vocab_size {
            return Err(RuntimeError::Artifact(format!(
                "vocabulary size {} disagrees with config ({})",
                vocab.len(),
                config.vocab_size
            )));
        }

        let model = IntBertModel::from_parts(config, host, layers, weight_bits);
        let tokenizer = Tokenizer::new(vocab, max_len);
        Ok((
            Self {
                task,
                model,
                tokenizer,
            },
            stats,
        ))
    }
}

fn task_tag(task: TaskKind) -> u8 {
    match task {
        TaskKind::Sst2 => 0,
        TaskKind::MnliMatched => 1,
        TaskKind::MnliMismatched => 2,
    }
}

fn parse_task(tag: u8) -> Result<TaskKind> {
    match tag {
        0 => Ok(TaskKind::Sst2),
        1 => Ok(TaskKind::MnliMatched),
        2 => Ok(TaskKind::MnliMismatched),
        other => Err(RuntimeError::Artifact(format!("unknown task tag {other}"))),
    }
}

// --- primitive writer / reader ---------------------------------------------

#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }
}

/// Reads the `N` bytes at `offset` as a fixed array, failing with an
/// artifact error (never a panic) if the file is too short.
fn fixed_bytes<const N: usize>(bytes: &[u8], offset: usize) -> Result<[u8; N]> {
    bytes
        .get(offset..offset.saturating_add(N))
        .and_then(|s| <[u8; N]>::try_from(s).ok())
        .ok_or_else(|| {
            RuntimeError::Artifact(format!("file too short for {N} bytes at offset {offset}"))
        })
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        // Compare against the remaining length rather than computing
        // `pos + n`, which a crafted u64 length prefix could overflow.
        if n > self.buf.len() - self.pos {
            return Err(RuntimeError::Artifact(format!(
                "truncated payload: wanted {n} bytes at offset {}, {} available",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let end = self.pos + n;
        let Some(s) = self.buf.get(self.pos..end) else {
            return Err(RuntimeError::Artifact(format!(
                "reader out of bounds at offset {}",
                self.pos
            )));
        };
        self.pos = end;
        Ok(s)
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        <[u8; N]>::try_from(self.take(N)?)
            .map_err(|_| RuntimeError::Artifact(format!("reader cannot take {N} bytes")))
    }
    fn u8(&mut self) -> Result<u8> {
        let [b] = self.array::<1>()?;
        Ok(b)
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array::<4>()?))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array::<8>()?))
    }
    fn f32(&mut self) -> Result<f32> {
        Ok(f32::from_bits(self.u32()?))
    }
    fn len_prefixed(&mut self) -> Result<&'a [u8]> {
        let n = self.u64()? as usize;
        self.take(n)
    }
    fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// --- compound encodings -----------------------------------------------------

fn write_config(w: &mut Writer, cfg: &BertConfig) {
    for v in [
        cfg.vocab_size,
        cfg.hidden,
        cfg.layers,
        cfg.heads,
        cfg.intermediate,
        cfg.max_len,
        cfg.type_vocab_size,
        cfg.num_classes,
    ] {
        w.u64(v as u64);
    }
    w.f32(cfg.layer_norm_eps);
}

fn read_config(r: &mut Reader<'_>) -> Result<BertConfig> {
    let cfg = BertConfig {
        vocab_size: r.u64()? as usize,
        hidden: r.u64()? as usize,
        layers: r.u64()? as usize,
        heads: r.u64()? as usize,
        intermediate: r.u64()? as usize,
        max_len: r.u64()? as usize,
        type_vocab_size: r.u64()? as usize,
        num_classes: r.u64()? as usize,
        layer_norm_eps: r.f32()?,
    };
    cfg.validate().map_err(RuntimeError::Artifact)?;
    Ok(cfg)
}

fn write_tensor(w: &mut Writer, t: &Tensor) {
    w.u32(t.dims().len() as u32);
    for &d in t.dims() {
        w.u64(d as u64);
    }
    for &v in t.as_slice() {
        w.f32(v);
    }
}

/// Reads a rank-prefixed dim list and validates that the encoded byte count
/// (`bytes_for(numel)`) neither overflows nor exceeds the remaining payload.
fn read_dims_checked(
    r: &mut Reader<'_>,
    bytes_for: impl Fn(usize) -> Option<usize>,
) -> Result<(Vec<usize>, usize)> {
    let rank = r.u32()? as usize;
    if rank > 8 {
        return Err(RuntimeError::Artifact(format!(
            "implausible tensor rank {rank}"
        )));
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        dims.push(r.u64()? as usize);
    }
    let numel = dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or_else(|| RuntimeError::Artifact(format!("tensor dims {dims:?} overflow usize")))?;
    let bytes = bytes_for(numel)
        .ok_or_else(|| RuntimeError::Artifact(format!("tensor dims {dims:?} overflow usize")))?;
    if bytes > r.buf.len() - r.pos {
        return Err(RuntimeError::Artifact(format!(
            "tensor of {numel} elements ({bytes} bytes) cannot fit the {} remaining payload bytes",
            r.buf.len() - r.pos
        )));
    }
    Ok((dims, numel))
}

/// [`read_dims_checked`] for one-code-per-element encodings.
fn read_dims(r: &mut Reader<'_>, elem_bytes: usize) -> Result<(Vec<usize>, usize)> {
    read_dims_checked(r, |numel| numel.checked_mul(elem_bytes))
}

fn read_tensor(r: &mut Reader<'_>) -> Result<Tensor> {
    let (dims, numel) = read_dims(r, 4)?;
    let mut data = Vec::with_capacity(numel);
    for _ in 0..numel {
        data.push(r.f32()?);
    }
    Tensor::from_vec(data, &dims)
        .map_err(|e| RuntimeError::Artifact(format!("inconsistent tensor: {e}")))
}

/// Writes one 8-bit code table: its scale, then the tensor — rank, dims
/// and one byte per code.
fn write_code_table(w: &mut Writer, scale: f32, t: &IntTensor<i8>) {
    w.f32(scale);
    w.u32(t.dims().len() as u32);
    for &d in t.dims() {
        w.u64(d as u64);
    }
    w.buf.extend(t.as_slice().iter().map(|&c| c as u8));
}

fn read_code_table(r: &mut Reader<'_>) -> Result<(f32, IntTensor<i8>)> {
    let scale = r.f32()?;
    let (dims, numel) = read_dims(r, 1)?;
    let codes = r.take(numel)?.iter().map(|&b| b as i8).collect();
    let table = IntTensor::from_vec(codes, &dims)
        .map_err(|e| RuntimeError::Artifact(format!("inconsistent code table: {e}")))?;
    Ok((scale, table))
}

fn write_i32_tensor(w: &mut Writer, t: &IntTensor<i32>) {
    w.u32(t.dims().len() as u32);
    for &d in t.dims() {
        w.u64(d as u64);
    }
    for &v in t.as_slice() {
        w.u32(v as u32);
    }
}

fn read_i32_tensor(r: &mut Reader<'_>) -> Result<IntTensor<i32>> {
    let (dims, numel) = read_dims(r, 4)?;
    let mut data = Vec::with_capacity(numel);
    for _ in 0..numel {
        data.push(r.u32()? as i32);
    }
    IntTensor::from_vec(data, &dims)
        .map_err(|e| RuntimeError::Artifact(format!("inconsistent int32 tensor: {e}")))
}

/// Writes one quantized linear: bit-width and scales first (so the reader
/// knows how the weight codes are stored), then the weight tensor — its
/// encoded bytes copied verbatim from the layer, nibble-packed for
/// bit-widths of at most 4, raw `i8` otherwise — then the bias.
fn write_linear(w: &mut Writer, l: &IntLinear) {
    w.u32(l.weight_bits());
    w.f32(l.weight_scale());
    w.f32(l.input_scale());
    w.f32(l.output_scale());
    w.u32(2);
    for d in l.weight_dims() {
        w.u64(d as u64);
    }
    w.buf.extend_from_slice(l.weight_bytes());
    write_i32_tensor(w, l.bias_codes());
}

/// Reads one quantized linear. The weight tensor is **not** decoded: the
/// layer keeps a `(buffer, offset)` reference to the encoded bytes inside
/// `shared` (the artifact buffer this reader's payload slice came from) and
/// builds its GEMM panels from them on first use — nibble-packed low-bit
/// weights never round-trip through unpacked `i8` codes, let alone `i16`
/// panels.
fn read_linear(r: &mut Reader<'_>, shared: &Arc<[u8]>) -> Result<IntLinear> {
    let weight_bits = r.u32()?;
    let weight_scale = r.f32()?;
    let input_scale = r.f32()?;
    let output_scale = r.f32()?;
    let encoded_len = |numel| IntLinear::encoded_len(weight_bits, numel);
    let (dims, numel) = read_dims_checked(r, |numel| Some(encoded_len(numel)))?;
    let &[rows, cols] = dims.as_slice() else {
        return Err(RuntimeError::Artifact(format!(
            "weight tensor rank {} (expected a matrix)",
            dims.len()
        )));
    };
    // The payload slice starts PAYLOAD_OFFSET bytes into the artifact
    // buffer, so the reader position maps to an absolute offset there.
    let offset = PAYLOAD_OFFSET + r.pos;
    r.take(encoded_len(numel))?;
    let bias = read_i32_tensor(r)?;
    IntLinear::from_v2_bytes(
        Arc::clone(shared),
        offset,
        rows,
        cols,
        bias,
        weight_scale,
        input_scale,
        output_scale,
        weight_bits,
    )
    .map_err(|e| RuntimeError::Artifact(format!("invalid quantized linear: {e}")))
}

fn write_layer_norm(w: &mut Writer, ln: &QuantizedLayerNorm) {
    let gamma: Vec<u8> = ln.gamma_codes().iter().map(|&v| v as u8).collect();
    let beta: Vec<u8> = ln.beta_codes().iter().map(|&v| v as u8).collect();
    w.bytes(&gamma);
    w.bytes(&beta);
    w.f32(ln.eps());
}

fn read_layer_norm(r: &mut Reader<'_>) -> Result<QuantizedLayerNorm> {
    let gamma: Vec<i8> = r.len_prefixed()?.iter().map(|&b| b as i8).collect();
    let beta: Vec<i8> = r.len_prefixed()?.iter().map(|&b| b as i8).collect();
    let eps = r.f32()?;
    QuantizedLayerNorm::from_codes(gamma, beta, eps)
        .map_err(|e| RuntimeError::Artifact(format!("invalid layer norm: {e}")))
}

fn write_layer(w: &mut Writer, layer: &IntEncoderLayer) {
    let scales = layer.scales();
    w.u64(layer.heads() as u64);
    for s in [
        scales.input,
        scales.q,
        scales.k,
        scales.v,
        scales.scores,
        scales.attn_output,
        scales.layer_norm,
        scales.ffn_hidden,
        scales.ffn_output,
    ] {
        w.f32(s);
    }
    for linear in [
        &layer.query,
        &layer.key,
        &layer.value,
        &layer.attn_output,
        &layer.ffn1,
        &layer.ffn2,
    ] {
        write_linear(w, linear);
    }
    write_layer_norm(w, layer.attn_layer_norm());
    write_layer_norm(w, layer.ffn_layer_norm());
}

fn read_layer(r: &mut Reader<'_>, cfg: &BertConfig, shared: &Arc<[u8]>) -> Result<IntEncoderLayer> {
    let heads = r.u64()? as usize;
    let scales = LayerScales {
        input: r.f32()?,
        q: r.f32()?,
        k: r.f32()?,
        v: r.f32()?,
        scores: r.f32()?,
        attn_output: r.f32()?,
        layer_norm: r.f32()?,
        ffn_hidden: r.f32()?,
        ffn_output: r.f32()?,
    };
    let query = read_linear(r, shared)?;
    let key = read_linear(r, shared)?;
    let value = read_linear(r, shared)?;
    let attn_output = read_linear(r, shared)?;
    let ffn1 = read_linear(r, shared)?;
    let ffn2 = read_linear(r, shared)?;
    let attn_ln = read_layer_norm(r)?;
    let ffn_ln = read_layer_norm(r)?;
    // The config was validated: its head count divides the hidden width.
    if heads != cfg.heads {
        return Err(RuntimeError::Artifact(format!(
            "layer of {heads} heads in a config of {} heads",
            cfg.heads
        )));
    }
    // Shape-check the quantized parts against the config before assembling
    // the layer, so inconsistency surfaces as an artifact error.
    let (h, i) = (cfg.hidden, cfg.intermediate);
    for (name, linear, expected) in [
        ("query", &query, [h, h]),
        ("key", &key, [h, h]),
        ("value", &value, [h, h]),
        ("attention output", &attn_output, [h, h]),
        ("ffn1", &ffn1, [h, i]),
        ("ffn2", &ffn2, [i, h]),
    ] {
        if linear.weight_dims() != expected {
            return Err(RuntimeError::Artifact(format!(
                "{name} weight shape {:?} disagrees with config (expected {expected:?})",
                linear.weight_dims()
            )));
        }
    }
    for (name, ln) in [("attention", &attn_ln), ("ffn", &ffn_ln)] {
        if ln.hidden() != h {
            return Err(RuntimeError::Artifact(format!(
                "{name} layer norm width {} disagrees with hidden {h}",
                ln.hidden()
            )));
        }
    }
    IntEncoderLayer::from_quantized_parts(
        query,
        key,
        value,
        attn_output,
        ffn1,
        ffn2,
        heads,
        cfg.hidden / heads,
        &scales,
        attn_ln,
        ffn_ln,
    )
    .map_err(|e| RuntimeError::Artifact(format!("invalid encoder layer: {e}")))
}

fn write_vocab(w: &mut Writer, vocab: &Vocab) {
    // Skip the four special tokens; `Vocab::from_tokens` re-inserts them
    // with the same ids.
    // fqlint::allow(panic-path): `Vocab` keeps a dense id -> token table
    // by construction; silently skipping an id would shift every later
    // token id in the artifact, corrupting it undetectably.
    let words: Vec<&str> = (4..vocab.len())
        .map(|id| vocab.id_to_token(id).expect("dense vocabulary"))
        .collect();
    w.u64(words.len() as u64);
    for word in words {
        w.bytes(word.as_bytes());
    }
}

fn read_vocab(r: &mut Reader<'_>) -> Result<Vocab> {
    let n = r.u64()? as usize;
    // Every word takes at least its 8-byte length prefix.
    if n > (r.buf.len() - r.pos) / 8 {
        return Err(RuntimeError::Artifact(format!(
            "vocabulary of {n} words cannot fit the remaining payload"
        )));
    }
    let mut words = Vec::with_capacity(n);
    for _ in 0..n {
        let raw = r.len_prefixed()?;
        words.push(
            std::str::from_utf8(raw)
                .map_err(|e| RuntimeError::Artifact(format!("non-UTF-8 vocab entry: {e}")))?,
        );
    }
    Ok(Vocab::from_tokens(words))
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) over a byte slice,
/// table-driven: the checksum runs over every byte of the file — megabytes
/// on a BERT-base-width model — on the serving startup path.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            }
            *entry = crc;
        }
        table
    });
    let mut crc = 0xffff_ffffu32;
    for &byte in data {
        // fqlint::allow(panic-path): `& 0xff` masks the index into the
        // 256-entry table.
        crc = (crc >> 8) ^ table[((crc ^ u32::from(byte)) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn reader_rejects_truncation() {
        let mut r = Reader {
            buf: &[1, 2, 3],
            pos: 0,
        };
        assert!(r.u64().is_err());
    }

    #[test]
    fn task_tags_round_trip() {
        for task in [
            TaskKind::Sst2,
            TaskKind::MnliMatched,
            TaskKind::MnliMismatched,
        ] {
            assert_eq!(parse_task(task_tag(task)).unwrap(), task);
        }
        assert!(parse_task(9).is_err());
    }
}
