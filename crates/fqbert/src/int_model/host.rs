//! The CPU side of §III-A, float by the paper's design: the embedding
//! lookup quantizes once into the encoder, the task head dequantizes one
//! `[CLS]` row per sequence. In between [`IntBertModel`] only moves int8
//! codes through [`IntEncoderLayer`]s, in one model-level forward body that
//! both logits entry points call.

use super::encoder::IntEncoderLayer;
use crate::{FqBertError, Result};
use fqbert_bert::BertConfig;
use fqbert_quant::LayerBits;
use fqbert_tensor::gemm::GemmScratch;
use fqbert_tensor::{IntTensor, Tensor};
use std::sync::Arc;

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
    /// # Errors
    ///
    /// Returns an error for empty or overlong sequences or out-of-vocabulary
    /// ids.
    pub fn embed(&self, token_ids: &[usize], segment_ids: &[usize]) -> Result<IntTensor<i8>> {
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
        let hidden = self.config.hidden;
        let seq = token_ids.len();
        let mut emb = Tensor::zeros(&[seq, hidden]);
        for (i, (&tok, &seg)) in token_ids.iter().zip(segment_ids.iter()).enumerate() {
            if tok >= self.config.vocab_size || seg >= self.config.type_vocab_size {
                return Err(FqBertError::InvalidArgument(format!(
                    "token id {tok} or segment id {seg} out of range"
                )));
            }
            let word = self.host.word_embeddings.row(tok);
            let position = self.host.position_embeddings.row(i);
            let segment = self.host.segment_embeddings.row(seg);
            let sums = word.iter().zip(position).zip(segment);
            for (e, ((&w, &p), &s)) in emb.row_mut(i).iter_mut().zip(sums) {
                *e = w + p + s;
            }
        }
        let normed = emb.layer_norm(
            &self.host.embedding_gamma,
            &self.host.embedding_beta,
            self.config.layer_norm_eps,
        )?;
        let scale = self.host.embedding_out_scale;
        let data: Vec<i8> = normed
            .as_slice()
            .iter()
            .map(|&v| (v * scale).round().clamp(-127.0, 127.0) as i8)
            .collect();
        Ok(IntTensor::from_vec(data, &[seq, hidden])?)
    }

    /// The CPU-side task head — the int8→float exit point of the model:
    /// dequantizes one `[CLS]` row once and runs the float classifier on it.
    fn classify(&self, cls: &[i8]) -> Result<Vec<f32>> {
        let out_scale = self
            .layers
            .last()
            .map_or(self.host.embedding_out_scale, |l| l.output_scale());
        let cls: Vec<f32> = cls.iter().map(|&c| c as f32 / out_scale).collect();
        let logits = Tensor::from_vec(cls, &[1, self.config.hidden])?
            .matmul(&self.host.classifier_weight)?
            .add_bias(&self.host.classifier_bias)?;
        Ok(logits.into_vec())
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
            let emb = self.embed(token_ids, segment_ids)?;
            hidden_states[start * hidden..][..emb.numel()].copy_from_slice(emb.as_slice());
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

/// Number of non-padding tokens of an encoded example.
fn real_length(example: &fqbert_nlp::Example) -> usize {
    example
        .attention_mask
        .iter()
        .take_while(|&&m| m == 1)
        .count()
}
