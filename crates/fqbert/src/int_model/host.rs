//! The model around the encoder: [`IntBertModel`] joins the integer
//! embedding ([`IntEmbedding`], `embedding.rs`), the encoder layers and the
//! task head in one model-level forward body that both logits entry points
//! call. Token ids go in and int8 codes come out of the embedding; the
//! encoder moves only int8 codes; the head dequantizes one `[CLS]` row per
//! sequence and stays float: `hidden × classes` weights, the one float
//! stage of a request.

use super::embedding::IntEmbedding;
use super::encoder::IntEncoderLayer;
use crate::{FqBertError, Result};
use fqbert_bert::BertConfig;
use fqbert_quant::LayerBits;
use fqbert_tensor::gemm::{AddNormRow, ByteArena, GemmScratch};
use fqbert_tensor::{IntTensor, Tensor};
use std::sync::Arc;

/// What runs around the encoder: the integer embedding and the float
/// classifier head.
///
/// The tables and tensors are held behind [`Arc`] so identical ones can be
/// shared across models — w4 and w8 variants of one task reuse one copy
/// via the loader's content-hash dedup, the autotuner's candidates share
/// their base model's — and so cloning never copies them. Equality still
/// compares contents (`Arc<T>: PartialEq` compares the pointees).
#[derive(Debug, Clone, PartialEq)]
pub struct HostSide {
    /// The integer embedding: code tables and their folded `Add & LN`.
    pub embedding: IntEmbedding,
    /// Classifier weight `[hidden, classes]`.
    pub classifier_weight: Arc<Tensor>,
    /// Classifier bias `[classes]`.
    pub classifier_bias: Arc<Tensor>,
}

/// The complete integer FQ-BERT model: the integer embedding and the
/// float classifier head ([`HostSide`]) around the integer encoder stack.
#[derive(Debug, Clone, PartialEq)]
pub struct IntBertModel {
    config: BertConfig,
    /// The embedding and the classifier head.
    pub host: HostSide,
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

    /// Bytes of weight storage currently resident for this model, every
    /// table a request reads: the embedding's two code tables and its
    /// folded `Add & LN` block, the float head, and the integer storage of
    /// every encoder layer, whose GEMM panels count from the first forward
    /// pass that builds them (see [`super::IntLinear::resident_bytes`]).
    /// Tables shared with another model are counted once per model;
    /// cross-model sharing is accounted by the loader's dedup statistics.
    pub fn resident_bytes(&self) -> usize {
        let head = [&self.host.classifier_weight, &self.host.classifier_bias]
            .map(|t| std::mem::size_of_val(t.as_slice()));
        self.host.embedding.resident_bytes()
            + head.iter().sum::<usize>()
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
        self.host.embedding.scales.output
    }

    /// Classifier weight `[hidden, classes]` (float, CPU-side).
    pub fn classifier_weight(&self) -> &Tensor {
        &self.host.classifier_weight
    }

    /// Classifier bias `[classes]`.
    pub fn classifier_bias(&self) -> &Tensor {
        &self.host.classifier_bias
    }

    /// Embeds one sequence into int8 codes for the encoder — the entry
    /// point of the model: each token's word and position×segment code
    /// rows through the folded embedding `Add & LN`.
    ///
    /// A wrapper over the forward path's embedding body: it allocates the
    /// tensor it returns and the two gathered operands, which the forward
    /// path keeps in its scratch arena.
    ///
    /// # Errors
    ///
    /// Returns an error for empty or overlong sequences or out-of-vocabulary
    /// ids.
    pub fn embed(&self, token_ids: &[usize], segment_ids: &[usize]) -> Result<IntTensor<i8>> {
        let n = self.checked_len(token_ids, segment_ids)? * self.config.hidden;
        let mut codes = vec![0i8; n];
        self.host.embedding.embed_into(
            std::iter::once((token_ids, segment_ids)),
            ByteArena::default().slices([n, n]),
            &mut AddNormRow::default(),
            &mut codes,
        )?;
        Ok(IntTensor::from_vec(
            codes,
            &[token_ids.len(), self.config.hidden],
        )?)
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
            .map_or(self.embedding_out_scale(), |l| l.output_scale());
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
    /// segment_ids)` sequence into the scratch arena, packed row-wise, in
    /// one `Add & LN` call — its two gathered operands in arena buffers the
    /// layers use later — runs the encoder layers over the whole pack — the
    /// hidden state ping-ponging between two arena buffers, the eight layer
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
        for (token_ids, segment_ids) in sequences.clone() {
            self.checked_len(token_ids, segment_ids)?;
        }
        let hidden = self.config.hidden;
        let total: usize = seq_lens.iter().sum();

        let GemmScratch {
            pack,
            attn,
            arena,
            norm,
        } = scratch;
        // The hidden state, the next one and the first layer intermediate
        // each hold the whole pack: the embedding gathers its two operands
        // into the latter two.
        let mut sizes = [0usize; 10];
        sizes[..3].fill(total * hidden);
        for layer in &self.layers {
            for (size, need) in sizes[2..].iter_mut().zip(layer.buffer_sizes(total)) {
                *size = need.max(*size);
            }
        }
        let [mut hidden_states, mut next, mut buffers @ ..] = arena.slices(sizes);
        let operands = [&mut *next, &mut *buffers[0]];
        self.host
            .embedding
            .embed_into(sequences, operands, norm, hidden_states)?;
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

/// Number of non-padding tokens of an encoded example.
fn real_length(example: &fqbert_nlp::Example) -> usize {
    example
        .attention_mask
        .iter()
        .take_while(|&&m| m == 1)
        .count()
}
