//! Batched inputs and outputs of the inference engine.

use fqbert_nlp::{Example, Tokenizer};
use std::sync::Arc;

/// A batch of encoded sequences ready for any [`crate::InferenceBackend`].
///
/// Construction amortizes tokenization across the batch: texts are encoded
/// once, padded to the tokenizer's fixed length, and reused across
/// backends. The examples live behind an `Arc` with a range view, so
/// [`EncodedBatch::shard`] (and `Clone`) share the encoded storage instead
/// of copying it — the parallel engine hands each worker a view of its
/// shard for free.
#[derive(Debug, Clone)]
pub struct EncodedBatch {
    examples: Arc<Vec<Example>>,
    start: usize,
    end: usize,
}

/// Batches compare by the sequences they view, not by how the backing
/// storage is shared (a shard equals an identically-encoded standalone
/// batch).
impl PartialEq for EncodedBatch {
    fn eq(&self, other: &Self) -> bool {
        self.examples() == other.examples()
    }
}

impl Eq for EncodedBatch {}

impl EncodedBatch {
    /// Encodes a batch of single sentences.
    pub fn from_texts(tokenizer: &Tokenizer, texts: &[&str]) -> Self {
        let examples = texts
            .iter()
            .map(|t| {
                let enc = tokenizer.encode_single(t);
                Example {
                    token_ids: enc.token_ids,
                    segment_ids: enc.segment_ids,
                    attention_mask: enc.attention_mask,
                    label: 0,
                }
            })
            .collect();
        Self::from_examples(examples)
    }

    /// Encodes a batch of sentence pairs (premise, hypothesis).
    pub fn from_pairs(tokenizer: &Tokenizer, pairs: &[(&str, &str)]) -> Self {
        let examples = pairs
            .iter()
            .map(|(a, b)| {
                let enc = tokenizer.encode_pair(a, b);
                Example {
                    token_ids: enc.token_ids,
                    segment_ids: enc.segment_ids,
                    attention_mask: enc.attention_mask,
                    label: 0,
                }
            })
            .collect();
        Self::from_examples(examples)
    }

    /// Wraps already-encoded examples (e.g. a dataset split).
    pub fn from_examples(examples: Vec<Example>) -> Self {
        let end = examples.len();
        Self {
            examples: Arc::new(examples),
            start: 0,
            end,
        }
    }

    /// A view of the sequences at `range` (relative to this batch) sharing
    /// this batch's encoded storage — no examples are copied. Used by the
    /// parallel engine to hand each pool worker its shard.
    ///
    /// # Panics
    ///
    /// Panics if `range` exceeds the batch length.
    pub fn shard(&self, range: std::ops::Range<usize>) -> Self {
        // fqlint::allow(panic-path): documented `# Panics` precondition —
        // shard ranges are computed by the engine from `len()`, and a
        // caller bug here must fail loudly, not silently mis-shard.
        assert!(range.end <= self.len(), "shard range out of bounds");
        Self {
            examples: Arc::clone(&self.examples),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// The encoded examples.
    pub fn examples(&self) -> &[Example] {
        // `start <= end <= len` is a constructor invariant; an empty slice
        // is the graceful answer if it were ever broken.
        self.examples.get(self.start..self.end).unwrap_or(&[])
    }

    /// The encoded examples by value: moved out when this batch is the only
    /// owner of its storage, copied when the storage is shared.
    pub fn into_examples(self) -> Vec<Example> {
        let len = self.len();
        match Arc::try_unwrap(self.examples) {
            Ok(examples) => examples.into_iter().skip(self.start).take(len).collect(),
            Err(shared) => shared.get(self.start..self.end).unwrap_or(&[]).to_vec(),
        }
    }

    /// Number of sequences in the batch.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Gold labels of the batch (zero for text-constructed batches).
    pub fn labels(&self) -> Vec<usize> {
        self.examples().iter().map(|e| e.label).collect()
    }

    /// Non-padding token count of every sequence.
    pub fn seq_lens(&self) -> Vec<usize> {
        self.examples()
            .iter()
            .map(|e| e.attention_mask.iter().take_while(|&&m| m == 1).count())
            .collect()
    }
}

/// Simulated accelerator cost of running a batch (produced by the simulated
/// backend; `None` elsewhere).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchCost {
    /// Total accelerator cycles charged for the batch.
    pub total_cycles: u64,
    /// Total latency in milliseconds at the accelerator clock (sequences are
    /// processed back to back at batch size 1, as in the paper).
    pub latency_ms: f64,
}

/// Result of classifying one batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutput {
    /// Per-sequence class logits.
    pub logits: Vec<Vec<f32>>,
    /// Per-sequence argmax predictions.
    pub predictions: Vec<usize>,
    /// Total simulated hardware cost of the batch, if the backend charges
    /// one.
    pub cost: Option<BatchCost>,
    /// Per-sequence simulated cost breakdown (same order as the logits),
    /// if the backend charges one. Summing these gives [`BatchOutput::cost`];
    /// a dynamic-batching server uses them to bill each request for exactly
    /// its own sequences rather than a share of the merged batch.
    pub sequence_costs: Option<Vec<BatchCost>>,
}

impl BatchOutput {
    /// Assembles an output from logits, deriving predictions.
    pub fn from_logits(logits: Vec<Vec<f32>>, cost: Option<BatchCost>) -> Self {
        let predictions = logits
            .iter()
            .map(|l| fqbert_tensor::ops::argmax_slice(l))
            .collect();
        Self {
            logits,
            predictions,
            cost,
            sequence_costs: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fqbert_nlp::Vocab;

    fn tokenizer() -> Tokenizer {
        Tokenizer::new(Vocab::from_tokens(["good", "bad", "movie"]), 8)
    }

    #[test]
    fn text_batch_is_padded_and_masked() {
        let batch = EncodedBatch::from_texts(&tokenizer(), &["good movie", "bad"]);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.examples()[0].token_ids.len(), 8);
        assert_eq!(batch.seq_lens(), vec![4, 3]);
        assert!(!batch.is_empty());
    }

    #[test]
    fn pair_batch_sets_segments() {
        let batch = EncodedBatch::from_pairs(&tokenizer(), &[("good", "bad movie")]);
        assert!(batch.examples()[0].segment_ids.contains(&1));
    }

    #[test]
    fn shards_view_without_copying_and_compare_by_content() {
        let batch = EncodedBatch::from_texts(&tokenizer(), &["good movie", "bad", "movie"]);
        let shard = batch.shard(1..3);
        assert_eq!(shard.len(), 2);
        assert_eq!(shard.examples(), &batch.examples()[1..3]);
        assert_eq!(shard.seq_lens(), batch.seq_lens()[1..3]);
        // A sub-shard of a shard is relative to the shard's own view.
        let inner = shard.shard(1..2);
        assert_eq!(inner.examples(), &batch.examples()[2..3]);
        // Equality is by viewed content, not by storage identity.
        let standalone = EncodedBatch::from_examples(batch.examples()[1..3].to_vec());
        assert_eq!(shard, standalone);
        assert_ne!(shard, batch);
        // Empty views are representable and report empty.
        assert!(batch.shard(1..1).is_empty());
    }

    #[test]
    fn into_examples_moves_sole_storage_and_copies_shared_views() {
        let batch = EncodedBatch::from_texts(&tokenizer(), &["good movie", "bad", "movie"]);
        let expected = batch.examples().to_vec();
        // A view into shared storage copies exactly its own sequences.
        let shard = batch.shard(1..3);
        assert_eq!(shard.clone().into_examples(), &expected[1..3]);
        drop(batch);
        // Once a shard is the only owner, its view moves out.
        assert_eq!(shard.into_examples(), &expected[1..3]);
        // A whole batch with one owner hands its examples over uncopied.
        let batch = EncodedBatch::from_examples(expected.clone());
        let tokens = batch.examples()[0].token_ids.as_ptr();
        let moved = batch.into_examples();
        assert_eq!(moved, expected);
        assert_eq!(moved[0].token_ids.as_ptr(), tokens);
    }

    #[test]
    #[should_panic(expected = "shard range out of bounds")]
    fn oversized_shard_ranges_panic() {
        let batch = EncodedBatch::from_texts(&tokenizer(), &["good"]);
        let _ = batch.shard(0..2);
    }

    #[test]
    fn output_derives_predictions() {
        let out = BatchOutput::from_logits(vec![vec![0.1, 0.9], vec![2.0, -1.0]], None);
        assert_eq!(out.predictions, vec![1, 0]);
        assert!(out.cost.is_none());
    }

    #[test]
    fn argmax_first_wins_on_ties() {
        assert_eq!(fqbert_tensor::ops::argmax_slice(&[1.0, 1.0, 0.0]), 0);
    }
}
