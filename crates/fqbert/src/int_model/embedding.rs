//! The embedding in integers: two 8-bit code tables and one `Add & LN`.
//!
//! FQ-BERT quantizes every parameter, the embedding tables included. The
//! word table is stored as 8-bit codes at one scale; position and segment
//! are summed at conversion into one `(max_len · type_vocab) × hidden`
//! table of 8-bit codes at another (row `position · type_vocab +
//! segment`). The embedding layer norm over `word + position + segment` is
//! then exactly an encoder `Add & LN` block over two 8-bit operands: it is
//! folded once, at assembly, with the two table scales and the encoder's
//! input scale into an [`AddLayerNorm`] (`assemble.rs`), and this file only
//! gathers each token's two code rows and applies that block.
//!
//! fqlint's `float-escape` rule covers this file and it carries no
//! suppression: the scales are held as one scale *type*
//! ([`EmbeddingScales`]) that the artifact writer reads, never computed
//! with here.

use super::assemble::EmbeddingScales;
use crate::{FqBertError, Result};
use fqbert_quant::{AddLayerNorm, QuantizedLayerNorm};
use fqbert_tensor::gemm::AddNormRow;
use fqbert_tensor::IntTensor;
use std::sync::Arc;

/// The integer embedding: the word and position×segment code tables and
/// the embedding layer norm folded with their scales.
///
/// The tables are held behind [`Arc`] so identical tables are shared
/// across models — w4 and w8 variants of one task reuse one copy via the
/// loader's content-hash dedup, the autotuner's candidates share their base
/// model's — and so cloning never copies them.
#[derive(Debug, Clone, PartialEq)]
pub struct IntEmbedding {
    /// Word codes `[vocab, hidden]`.
    pub word: Arc<IntTensor<i8>>,
    /// Position×segment codes `[max_len · type_vocab, hidden]`: row
    /// `position · type_vocab + segment` holds the codes of the sum of
    /// that position's and that segment's embedding.
    pub position_segment: Arc<IntTensor<i8>>,
    /// Segment ids the position×segment table was built over.
    pub(super) segments: usize,
    /// The stored layer-norm parameters (what the artifact writer reads)
    /// and the block the embedding applies: the same parameters folded
    /// with the three scales at assembly.
    pub(super) layer_norm: QuantizedLayerNorm,
    pub(super) add_norm: AddLayerNorm,
    /// The scales the block was folded from: metadata for the artifact
    /// writer.
    pub(super) scales: EmbeddingScales,
}

impl IntEmbedding {
    /// The embedding layer norm's stored parameters.
    pub fn layer_norm(&self) -> &QuantizedLayerNorm {
        &self.layer_norm
    }

    /// Width of an embedded token.
    pub(super) fn hidden(&self) -> usize {
        self.layer_norm.hidden()
    }

    /// Bytes the embedding reads per request: both code tables and the
    /// folded block's `gamma` and `beta` (one `i32` each per column).
    pub(super) fn resident_bytes(&self) -> usize {
        self.word.numel()
            + self.position_segment.numel()
            + 2 * self.hidden() * std::mem::size_of::<i32>()
    }

    /// Embeds a packed batch: gathers every token's word row into `word`
    /// and its position×segment row into `position_segment` (sequence
    /// after sequence, positions restarting at 0 in each), then applies the
    /// folded `Add & LN` to the whole batch at once, on the selected kernel
    /// row, into `codes`. All three buffers hold at least `tokens · hidden`
    /// codes; nothing is allocated once `row` has served this width.
    ///
    /// # Errors
    ///
    /// Returns an error for a token, segment or position outside its table
    /// or buffers shorter than the batch.
    pub(super) fn embed_into<'a>(
        &self,
        sequences: impl Iterator<Item = (&'a [usize], &'a [usize])>,
        [word, position_segment]: [&mut [i8]; 2],
        row: &mut AddNormRow,
        codes: &mut [i8],
    ) -> Result<()> {
        let hidden = self.hidden();
        let rows = |table: &IntTensor<i8>| match *table.dims() {
            [rows, width] if width == hidden => Ok(rows),
            _ => Err(FqBertError::InvalidArgument(format!(
                "embedding table {:?} is not {hidden} wide",
                table.dims()
            ))),
        };
        let (vocab, positions) = (rows(&self.word)?, rows(&self.position_segment)?);
        let mut slots = word
            .chunks_exact_mut(hidden)
            .zip(position_segment.chunks_exact_mut(hidden));
        let mut tokens = 0usize;
        for (token_ids, segment_ids) in sequences {
            for (position, (&token, &segment)) in token_ids.iter().zip(segment_ids).enumerate() {
                let at = position
                    .saturating_mul(self.segments)
                    .saturating_add(segment);
                let in_range = token < vocab && segment < self.segments && at < positions;
                let Some((w, ps)) = slots.next().filter(|_| in_range) else {
                    return Err(FqBertError::InvalidArgument(format!(
                        "token id {token}, segment id {segment} at position {position} \
                         out of range, or more tokens than the embedding buffers hold"
                    )));
                };
                w.copy_from_slice(self.word.row(token));
                ps.copy_from_slice(self.position_segment.row(at));
                tokens += 1;
            }
        }
        let (n, room) = (tokens * hidden, codes.len());
        let out = codes.get_mut(..n).ok_or_else(|| {
            FqBertError::InvalidArgument(format!("{n} embedding codes into {room}"))
        })?;
        self.add_norm
            .apply(out, &word[..n], &position_segment[..n], row)?;
        Ok(())
    }
}
