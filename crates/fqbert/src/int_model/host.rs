//! The CPU side of §III-A, float by the paper's design: the embedding
//! lookup quantizes once into the encoder, the task head dequantizes one
//! `[CLS]` row per sequence. In between [`IntBertModel`] only moves int8
//! codes through [`IntEncoderLayer`]s, in one model-level forward body that
//! both logits entry points call.
//!
//! The embedding is one pass per sequence that writes codes straight into
//! the caller's buffer (the scratch arena's hidden state, on the forward
//! path), in three phases:
//!
//! 1. *Sums.* `word + position + segment` per element, into the scratch's
//!    one float buffer (`GemmScratch::embed`).
//! 2. *Statistics.* The mean and `Σ (x − mean)²` of [`LANES`] rows side by
//!    side, one lane per row. A lane is the sequential left fold
//!    `Iterator::sum` performs on its row, from the same start value and in
//!    the same order, so every lane ends on the bits a one-row fold would;
//!    the lanes only break the one dependency chain a row's fold is into
//!    eight independent ones. The last rows of a sequence (fewer than
//!    [`LANES`]) take the one-lane fold.
//! 3. *Normalize and quantize.* `((x − mean) · inv_std · γ + β) · scale`
//!    per element in [`Tensor::layer_norm`]'s operation order, with no
//!    fused multiply-add, then [`code_of`]: `round`, `clamp` and `as i8`
//!    without a libm call, exact on every `f32`.
//!
//! So the codes are bit-identical to the float composition this replaced —
//! a zeroed [`Tensor`] of sums, [`Tensor::layer_norm`], then
//! `(v * scale).round().clamp(-127.0, 127.0) as i8` per element — while
//! the reductions run as eight independent chains instead of one, and
//! phase 3 vectorizes on the baseline x86-64 target.

use super::encoder::IntEncoderLayer;
use crate::{FqBertError, Result};
use fqbert_bert::BertConfig;
use fqbert_quant::LayerBits;
use fqbert_tensor::gemm::{GemmScratch, LineArena};
use fqbert_tensor::{IntTensor, Tensor};
use std::sync::Arc;

/// Rows whose layer-norm statistics phase 2 folds side by side.
pub(super) const LANES: usize = 8;

/// The float state of the model's CPU side: the three embedding tables and
/// their layer norm, the classifier head, and the scale at which the
/// embedding output crosses into the encoder.
///
/// The tensors are held behind [`Arc`] so identical tensors can be shared
/// across models — w4 and w8 variants of one task reuse one copy of the
/// embeddings via the loader's content-hash dedup, the autotuner's
/// candidates share their base model's — and so cloning never copies them.
/// Equality still compares tensor contents (`Arc<T>: PartialEq` compares
/// the pointees).
#[derive(Debug, Clone, PartialEq)]
pub struct HostSide {
    /// Word-embedding table `[vocab, hidden]`.
    pub word_embeddings: Arc<Tensor>,
    /// Positional-embedding table `[max_len, hidden]`.
    pub position_embeddings: Arc<Tensor>,
    /// Segment-embedding table `[type_vocab, hidden]`.
    pub segment_embeddings: Arc<Tensor>,
    /// Gamma of the embedding layer norm.
    pub embedding_gamma: Arc<Tensor>,
    /// Beta of the embedding layer norm.
    pub embedding_beta: Arc<Tensor>,
    /// Classifier weight `[hidden, classes]`.
    pub classifier_weight: Arc<Tensor>,
    /// Classifier bias `[classes]`.
    pub classifier_bias: Arc<Tensor>,
    /// Scale at which the embedding output is handed to the encoder.
    pub embedding_out_scale: f32,
}

/// The complete integer FQ-BERT model: float CPU-side embedding/classifier
/// ([`HostSide`]) plus the integer encoder stack.
#[derive(Debug, Clone, PartialEq)]
pub struct IntBertModel {
    config: BertConfig,
    host: HostSide,
    /// Quantized encoder layers.
    pub layers: Vec<IntEncoderLayer>,
    weight_bits: u32,
}

impl IntBertModel {
    /// Assembles an integer model from its parts — the one constructor,
    /// used by the converter, by artifact loading and by the autotuner.
    pub fn from_parts(
        config: BertConfig,
        host: HostSide,
        layers: Vec<IntEncoderLayer>,
        weight_bits: u32,
    ) -> Self {
        Self {
            config,
            host,
            layers,
            weight_bits,
        }
    }

    /// The float CPU side of the model.
    pub fn host(&self) -> &HostSide {
        &self.host
    }

    /// The model's seven float tensors (embedding tables, embedding
    /// layer-norm parameters, classifier weight and bias), as shared
    /// handles in the order the artifact stores them. Used by loaders for
    /// content-hash dedup accounting.
    pub fn shared_float_tensors(&self) -> [&Arc<Tensor>; 7] {
        [
            &self.host.word_embeddings,
            &self.host.position_embeddings,
            &self.host.segment_embeddings,
            &self.host.embedding_gamma,
            &self.host.embedding_beta,
            &self.host.classifier_weight,
            &self.host.classifier_bias,
        ]
    }

    /// Bytes of weight storage currently resident for this model: the seven
    /// float tensors (each counted once per model, even when the `Arc` is
    /// shared with another model — cross-model sharing is accounted at the
    /// registry level via [`IntBertModel::shared_float_tensors`]) plus the
    /// integer storage of every encoder layer, whose GEMM panels count
    /// from the first forward pass that builds them (see
    /// [`super::IntLinear::resident_bytes`]).
    pub fn resident_bytes(&self) -> usize {
        let floats: usize = self
            .shared_float_tensors()
            .iter()
            .map(|t| std::mem::size_of_val(t.as_slice()))
            .sum();
        floats
            + self
                .layers
                .iter()
                .map(IntEncoderLayer::resident_bytes)
                .sum::<usize>()
    }

    /// The architecture configuration.
    pub fn config(&self) -> &BertConfig {
        &self.config
    }

    /// Weight bit-width of the encoder matrices. For a mixed-precision model
    /// this is the widest site anywhere in the stack (the storage-format
    /// headline width); see [`IntBertModel::layer_bit_widths`] for the
    /// per-site truth.
    pub fn weight_bits(&self) -> u32 {
        self.weight_bits
    }

    /// Per-layer, per-site weight bit-widths of the encoder stack.
    pub fn layer_bit_widths(&self) -> Vec<LayerBits> {
        self.layers
            .iter()
            .map(IntEncoderLayer::weight_bit_widths)
            .collect()
    }

    /// Compact human-readable summary of the weight bit-widths, e.g. `w4`
    /// for a uniform model or `w4[0-5]/w8[6-11]` when runs of consecutive
    /// layers differ. A layer whose sites are themselves mixed is labelled
    /// with its width range (`w4-8`).
    pub fn bit_summary(&self) -> String {
        let labels: Vec<String> = self
            .layers
            .iter()
            .map(|layer| {
                let bits = layer.weight_bit_widths();
                match bits.uniform_bits() {
                    Some(b) => format!("w{b}"),
                    None => format!("w{}-{}", bits.min_bits(), bits.max_bits()),
                }
            })
            .collect();
        if labels.is_empty() {
            return format!("w{}", self.weight_bits);
        }
        if labels.iter().all(|l| l == &labels[0]) {
            return labels[0].clone();
        }
        let mut groups: Vec<String> = Vec::new();
        let mut start = 0;
        for end in 1..=labels.len() {
            if end == labels.len() || labels[end] != labels[start] {
                let range = if end - start == 1 {
                    format!("[{start}]")
                } else {
                    format!("[{start}-{}]", end - 1)
                };
                groups.push(format!("{}{range}", labels[start]));
                start = end;
            }
        }
        groups.join("/")
    }

    /// Scale at which the embedding output is handed to the encoder.
    pub fn embedding_out_scale(&self) -> f32 {
        self.host.embedding_out_scale
    }

    /// Classifier weight `[hidden, classes]` (float, CPU-side).
    pub fn classifier_weight(&self) -> &Tensor {
        &self.host.classifier_weight
    }

    /// Classifier bias `[classes]`.
    pub fn classifier_bias(&self) -> &Tensor {
        &self.host.classifier_bias
    }

    /// Computes the float (CPU-side) embeddings and quantizes them to int8
    /// codes for the encoder — the float→int8 entry point of the model.
    ///
    /// A wrapper over the forward path's embedding body (the three phases
    /// of the module docs): it allocates the tensor it returns and one
    /// sequence's float sums, nothing per row. The codes are bit-identical
    /// to `layer_norm` over the summed tables followed by
    /// `(v * scale).round().clamp(-127.0, 127.0) as i8`.
    ///
    /// # Errors
    ///
    /// Returns an error for empty or overlong sequences or out-of-vocabulary
    /// ids.
    pub fn embed(&self, token_ids: &[usize], segment_ids: &[usize]) -> Result<IntTensor<i8>> {
        let seq = self.checked_len(token_ids, segment_ids)?;
        let mut codes = vec![0i8; seq * self.config.hidden];
        self.embed_into(
            token_ids,
            segment_ids,
            &mut LineArena::default(),
            &mut codes,
        )?;
        Ok(IntTensor::from_vec(codes, &[seq, self.config.hidden])?)
    }

    /// Length of a sequence the embedding accepts.
    fn checked_len(&self, token_ids: &[usize], segment_ids: &[usize]) -> Result<usize> {
        if token_ids.is_empty() || token_ids.len() > self.config.max_len {
            return Err(FqBertError::InvalidArgument(format!(
                "sequence length {} out of range 1..={}",
                token_ids.len(),
                self.config.max_len
            )));
        }
        if segment_ids.len() != token_ids.len() {
            return Err(FqBertError::InvalidArgument(
                "segment ids must match token ids in length".to_string(),
            ));
        }
        Ok(token_ids.len())
    }

    /// The one embedding body: writes the codes of one sequence into
    /// `codes[..seq · hidden]`, its table sums into `sums`.
    fn embed_into(
        &self,
        token_ids: &[usize],
        segment_ids: &[usize],
        sums: &mut LineArena<f32>,
        codes: &mut [i8],
    ) -> Result<()> {
        let seq = self.checked_len(token_ids, segment_ids)?;
        let hidden = self.config.hidden;
        let host = &self.host;
        let (gamma, beta) = (
            host.embedding_gamma.as_slice(),
            host.embedding_beta.as_slice(),
        );
        if gamma.len() != hidden || beta.len() != hidden {
            return Err(FqBertError::InvalidArgument(format!(
                "embedding layer norm of widths {} / {} on hidden {hidden}",
                gamma.len(),
                beta.len()
            )));
        }
        let [sums] = sums.slices([seq * hidden]);
        let codes = &mut codes[..seq * hidden];

        // Phase 1: the table sums.
        let ids = token_ids.iter().zip(segment_ids);
        for (i, ((&tok, &seg), row)) in ids.zip(sums.chunks_exact_mut(hidden)).enumerate() {
            if tok >= self.config.vocab_size || seg >= self.config.type_vocab_size {
                return Err(FqBertError::InvalidArgument(format!(
                    "token id {tok} or segment id {seg} out of range"
                )));
            }
            let word = host.word_embeddings.row(tok);
            let position = host.position_embeddings.row(i);
            let segment = host.segment_embeddings.row(seg);
            for (e, ((&w, &p), &s)) in row.iter_mut().zip(word.iter().zip(position).zip(segment)) {
                *e = w + p + s;
            }
        }

        // Phases 2 and 3, `LANES` rows at a time, then the rest one by one.
        let norm = EmbedNorm {
            gamma,
            beta,
            eps: self.config.layer_norm_eps,
            scale: host.embedding_out_scale,
        };
        let whole = seq / LANES * LANES * hidden;
        let block = LANES * hidden;
        for (rows, out) in sums[..whole]
            .chunks_exact(block)
            .zip(codes.chunks_exact_mut(block))
        {
            norm.rows::<LANES>(rows, out);
        }
        let tail = sums[whole..].chunks_exact(hidden);
        for (row, out) in tail.zip(codes[whole..].chunks_exact_mut(hidden)) {
            norm.rows::<1>(row, out);
        }
        Ok(())
    }

    /// The CPU-side task head — the int8→float exit point of the model:
    /// dequantizes one `[CLS]` row and runs the float classifier on it,
    /// straight into the returned logits. Bit-identical to
    /// `Tensor::matmul` then `add_bias` on the dequantized row: sums start
    /// at `+0.0`, a zero input is skipped as `matmul` skips it, the inputs
    /// are taken in `k` order, and the bias comes last.
    fn classify(&self, cls: &[i8]) -> Result<Vec<f32>> {
        let out_scale = self
            .layers
            .last()
            .map_or(self.host.embedding_out_scale, |l| l.output_scale());
        let (weight, bias) = (&self.host.classifier_weight, &self.host.classifier_bias);
        let (k, classes) = weight.as_matrix_dims()?;
        if k != cls.len() || classes == 0 || bias.numel() != classes {
            return Err(FqBertError::InvalidArgument(format!(
                "classifier {:?} + {:?} on a {}-wide row",
                weight.dims(),
                bias.dims(),
                cls.len()
            )));
        }
        let mut logits = vec![0.0f32; classes];
        for (&c, w_row) in cls.iter().zip(weight.as_slice().chunks_exact(classes)) {
            let a = f32::from(c) / out_scale;
            if a == 0.0 {
                continue;
            }
            for (o, &w) in logits.iter_mut().zip(w_row) {
                *o += a * w;
            }
        }
        for (o, &b) in logits.iter_mut().zip(bias.as_slice()) {
            *o += b;
        }
        Ok(logits)
    }

    /// The one model-level forward body: embeds every `(token_ids,
    /// segment_ids)` sequence into the scratch arena, packed row-wise, runs
    /// the encoder layers over the whole pack — the hidden state
    /// ping-ponging between two arena buffers, the eight layer
    /// intermediates shared by every layer — and classifies the `[CLS]` row
    /// of each sequence.
    fn logits_of<'a>(
        &self,
        sequences: impl Iterator<Item = (&'a [usize], &'a [usize])> + Clone,
        scratch: &mut GemmScratch,
    ) -> Result<Vec<Vec<f32>>> {
        let seq_lens: Vec<usize> = sequences.clone().map(|(tokens, _)| tokens.len()).collect();
        if let Some(i) = seq_lens.iter().position(|&len| len == 0) {
            return Err(FqBertError::InvalidArgument(format!(
                "example {i} has an all-padding attention mask \
                 (zero-length sequence)"
            )));
        }
        if seq_lens.is_empty() {
            return Ok(Vec::new());
        }
        let hidden = self.config.hidden;
        let total: usize = seq_lens.iter().sum();

        let GemmScratch {
            pack,
            attn,
            arena,
            norm,
            embed,
        } = scratch;
        let mut sizes = [0usize; 10];
        sizes[..2].fill(total * hidden);
        for layer in &self.layers {
            for (size, need) in sizes[2..].iter_mut().zip(layer.buffer_sizes(total)) {
                *size = need.max(*size);
            }
        }
        let [mut hidden_states, mut next, mut buffers @ ..] = arena.slices(sizes);
        let mut start = 0usize;
        for (token_ids, segment_ids) in sequences {
            let codes = &mut hidden_states[start * hidden..];
            self.embed_into(token_ids, segment_ids, embed, codes)?;
            start += token_ids.len();
        }
        for layer in &self.layers {
            layer.forward_rows(
                hidden_states,
                &seq_lens,
                pack,
                attn,
                norm,
                &mut buffers,
                next,
            )?;
            std::mem::swap(&mut hidden_states, &mut next);
        }

        let mut logits = Vec::with_capacity(seq_lens.len());
        let mut start = 0usize;
        for &seq in &seq_lens {
            logits.push(self.classify(&hidden_states[start * hidden..][..hidden])?);
            start += seq;
        }
        Ok(logits)
    }

    /// Runs the integer encoder and the float classifier over one sequence
    /// of already-trimmed ids, returning its class logits: a one-sequence
    /// call of the batch path on a scratch of its own, so bit-identical to
    /// that sequence's row of [`IntBertModel::logits_batch_with_scratch`].
    ///
    /// # Errors
    ///
    /// Returns an error for empty or overlong sequences or out-of-vocabulary
    /// ids.
    pub fn forward_logits(&self, token_ids: &[usize], segment_ids: &[usize]) -> Result<Vec<f32>> {
        let sequence = std::iter::once((token_ids, segment_ids));
        let mut logits = self.logits_of(sequence, &mut GemmScratch::new())?;
        Ok(logits.pop().expect("one sequence in, one logits row out"))
    }

    /// Runs the integer encoder over a batch of encoded examples at once,
    /// returning per-example class logits.
    ///
    /// Sequences are trimmed to their attention mask and packed row-wise
    /// into one matrix, so every linear projection runs as a single integer
    /// GEMM over the whole batch. The caller owns the GEMM scratch — each
    /// worker thread of the parallel runtime keeps one alive across every
    /// batch shard it serves — and it holds no numeric state, only
    /// capacity: logits do not depend on what it served before.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid inputs, including examples whose
    /// attention mask is all padding — a zero-length sequence has no tokens
    /// to attend over (empty batch is fine and returns an empty vector).
    pub fn logits_batch_with_scratch(
        &self,
        examples: &[fqbert_nlp::Example],
        scratch: &mut GemmScratch,
    ) -> Result<Vec<Vec<f32>>> {
        let trimmed = examples.iter().map(|ex| {
            let len = real_length(ex);
            (&ex.token_ids[..len], &ex.segment_ids[..len])
        });
        self.logits_of(trimmed, scratch)
    }
}

/// Mean and inverse standard deviation of one row, as
/// [`Tensor::layer_norm`] computes them.
#[derive(Debug, Clone, Copy)]
pub(super) struct RowStats {
    pub(super) mean: f32,
    pub(super) inv_std: f32,
}

/// Phase 2 over the `R` rows of `rows` (row-major, each `rows.len() / R`
/// wide), side by side: lane `r` folds row `r` left to right from the start
/// value of `Iterator::sum`, so its `mean` and `inv_std` carry the bits of
/// `row.iter().sum::<f32>() / n`, `Σ (x − mean)² / n` summed the same way,
/// and `1 / (var + eps).sqrt()`.
pub(super) fn row_stats<const R: usize>(rows: &[f32], eps: f32) -> [RowStats; R] {
    let hidden = rows.len() / R;
    let rows: [&[f32]; R] = std::array::from_fn(|r| &rows[r * hidden..][..hidden]);
    let start: f32 = std::iter::empty::<f32>().sum();
    let n = hidden as f32;
    let mut sum = [start; R];
    for j in 0..hidden {
        for (acc, row) in sum.iter_mut().zip(&rows) {
            *acc += row[j];
        }
    }
    let mean = sum.map(|s| s / n);
    let mut squares = [start; R];
    for j in 0..hidden {
        for ((acc, row), &m) in squares.iter_mut().zip(&rows).zip(&mean) {
            let d = row[j] - m;
            *acc += d * d;
        }
    }
    std::array::from_fn(|r| RowStats {
        mean: mean[r],
        inv_std: 1.0 / (squares[r] / n + eps).sqrt(),
    })
}

/// The embedding layer norm's parameters and the scale its output is
/// quantized at.
struct EmbedNorm<'a> {
    gamma: &'a [f32],
    beta: &'a [f32],
    eps: f32,
    scale: f32,
}

impl EmbedNorm<'_> {
    /// Phases 2 and 3 over `R` rows of sums: their statistics, then their
    /// codes.
    fn rows<const R: usize>(&self, rows: &[f32], codes: &mut [i8]) {
        let hidden = self.gamma.len();
        let stats = row_stats::<R>(rows, self.eps);
        let rows = rows
            .chunks_exact(hidden)
            .zip(codes.chunks_exact_mut(hidden));
        for ((row, out), RowStats { mean, inv_std }) in rows.zip(stats) {
            let params = self.gamma.iter().zip(self.beta);
            for ((code, &x), (&g, &b)) in out.iter_mut().zip(row).zip(params) {
                *code = code_of(((x - mean) * inv_std * g + b) * self.scale);
            }
        }
    }
}

/// `y.round().clamp(-127.0, 127.0) as i8` — round half away from zero,
/// saturate, `NaN` to 0 — on every `f32`, with no libm call, so a loop of
/// it vectorizes on SSE2:
///
/// * clamping first changes nothing: rounding is monotone and ±127 are
///   integers;
/// * `round(y)` is `trunc(|y| + 0.49999997)` with `y`'s sign, LLVM's own
///   lowering of `llvm.round` (adding ½ itself would carry `0.49999997`
///   up to 1: `0.99999997` is a tie that rounds to even);
/// * below 2²³, `a + 2²³` holds `a` rounded to the nearest integer in its
///   low mantissa bits, and one compare turns that into `trunc(a)`;
/// * the sign goes on as two's complement of a mask, not a select.
pub(super) fn code_of(y: f32) -> i8 {
    const TWO_23: f32 = 8_388_608.0;
    let y = if y.is_nan() {
        0.0
    } else {
        y.clamp(-127.0, 127.0)
    };
    let a = y.abs() + 0.5f32.next_down();
    let biased = a + TWO_23;
    let nearest = (biased.to_bits() - TWO_23.to_bits()) as i32;
    let whole = nearest - i32::from(biased - TWO_23 > a);
    let negative = (y.to_bits() as i32) >> 31;
    ((whole ^ negative) - negative) as i8
}

/// Number of non-padding tokens of an encoded example.
fn real_length(example: &fqbert_nlp::Example) -> usize {
    example
        .attention_mask
        .iter()
        .take_while(|&&m| m == 1)
        .count()
}
