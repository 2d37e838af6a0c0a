//! The accelerator side of §III-A: everything between int8 codes in and
//! int8 codes out. fqlint's `float-escape` rule covers this file and it
//! carries no suppression: every stage arrives here already folded into
//! integers by `assemble.rs` — requantizers, the softmax and GELU tables,
//! both `Add & LN` blocks — and the forward pass reads no scale at all.
//! The calibrated scales are held as whole scale *types* ([`LayerScales`],
//! `LinearScales`): metadata that is stored, compared and written back to
//! artifacts, never computed with here.

use super::assemble::{LayerScales, LinearScales};
use crate::{FqBertError, Result};
use fqbert_quant::{AddLayerNorm, LayerBits, QuantizedLayerNorm, Requantizer, SoftmaxLut};
use fqbert_tensor::gemm::{
    gemm_i8_requant, gemm_i8_requant_into, kernels, ActivationBlock, AddNormRow, AttentionScratch,
    GemmScratch, PackedWeights, RequantParams, StridedView, MAX_ATTN_SEQ,
};
use fqbert_tensor::{unpack_i4, IntTensor};
use std::sync::{Arc, OnceLock};

/// A fully quantized dense layer: int4/int8 weight codes, int32 bias,
/// fixed-point requantization to int8 outputs.
///
/// The weight matrix has exactly one stored form: its **v2 artifact
/// encoding** — row-major `[in, out]` codes, two per byte (low nibble
/// first, see [`fqbert_tensor::pack4`]) when `weight_bits ≤ 4`, one
/// two's-complement byte per code otherwise — held as `(buffer, offset)`.
/// A layer loaded from an artifact points into the file's shared buffer; a
/// layer quantized from float ([`IntLinear::from_float`]) encodes its codes
/// into a private buffer and goes through the same constructor, so both
/// behave identically from there on. The only other copy a layer ever makes
/// is its GEMM panels ([`fqbert_tensor::gemm`]), built straight from the
/// encoded bytes on first forward pass — biased-nibble k-quad panels for
/// low-bit layers (multiplied as unsigned bytes against byte activations by
/// the int4 kernels — `vpmaddubsw` / `vpdpbusd` on x86, the CPU image of
/// the paper's 8b×4b multiplier — a quarter of the wide panels' bytes),
/// wide `i16` panels otherwise. Everything is validated at
/// construction so that deferred build cannot fail. Clones share the
/// buffer and the panels.
#[derive(Debug, Clone)]
pub struct IntLinear {
    /// Buffer holding the encoded weight matrix at `offset..end`.
    pub(super) bytes: Arc<[u8]>,
    pub(super) offset: usize,
    pub(super) end: usize,
    /// `[in_features, out_features]`.
    pub(super) dims: [usize; 2],
    pub(super) packed: Arc<OnceLock<PackedWeights>>,
    pub(super) bias: IntTensor<i32>,
    /// Calibration metadata the requantizer was folded from; the forward
    /// path never reads it.
    pub(super) scales: LinearScales,
    pub(super) weight_bits: u32,
    pub(super) requant: Requantizer,
}

/// Layer equality compares the logical layer — codes, bias, scales and
/// bit-width — not which buffer holds the codes or whether the panels are
/// built. Equal codes at equal bit-width have equal encodings (the padding
/// nibble of an odd-sized low-bit matrix is validated to be zero).
impl PartialEq for IntLinear {
    fn eq(&self, other: &Self) -> bool {
        self.dims == other.dims
            && self.weight_bits == other.weight_bits
            && self.scales == other.scales
            && self.bias == other.bias
            && self.weight_bytes() == other.weight_bytes()
    }
}

/// Whether weights of this bit-width are stored two codes per byte (and run
/// on nibble panels) rather than one.
pub(super) fn nibble_packed(weight_bits: u32) -> bool {
    weight_bits <= 4
}

impl IntLinear {
    /// Bytes the v2 encoding takes for `numel` weight codes at
    /// `weight_bits`: two codes per byte up to 4 bits, one per byte above.
    pub fn encoded_len(weight_bits: u32, numel: usize) -> usize {
        if nibble_packed(weight_bits) {
            numel.div_ceil(2)
        } else {
            numel
        }
    }

    /// The weight matrix in its v2 artifact encoding — what the artifact
    /// writer copies out verbatim.
    pub fn weight_bytes(&self) -> &[u8] {
        &self.bytes[self.offset..self.end]
    }

    /// The GEMM panels, built from the encoded bytes on first use.
    fn packed_panels(&self) -> &PackedWeights {
        self.packed.get_or_init(|| {
            let [k, n] = self.dims;
            if nibble_packed(self.weight_bits) {
                PackedWeights::from_v2_nibble_bytes(self.weight_bytes(), k, n)
            } else {
                PackedWeights::pack_wide_from_bytes(self.weight_bytes(), k, n)
            }
            .expect("validated at construction")
        })
    }

    /// Decodes the weight codes (row-major `[in, out]`) into an owned
    /// tensor. The forward path never calls this — it runs on the packed
    /// panels; this is for the naive reference and for inspection.
    pub fn weight_codes(&self) -> IntTensor<i8> {
        let [k, n] = self.dims;
        let codes = if nibble_packed(self.weight_bits) {
            unpack_i4(self.weight_bytes(), k * n).expect("validated at construction")
        } else {
            self.weight_bytes().iter().map(|&b| b as i8).collect()
        };
        IntTensor::from_vec(codes, &[k, n]).expect("validated at construction")
    }

    /// Weight matrix shape `[in_features, out_features]`.
    pub fn weight_dims(&self) -> [usize; 2] {
        self.dims
    }

    /// Bytes of private weight storage currently resident for this layer:
    /// the GEMM panels once built, plus the int32 bias. The buffer holding
    /// the encoded weight bytes is deliberately excluded — for a loaded
    /// model it is the artifact file's one shared buffer, counted once per
    /// file at the engine/registry level, not once per layer.
    pub fn resident_bytes(&self) -> usize {
        let panels = self.packed.get().map_or(0, PackedWeights::resident_bytes);
        panels + self.bias.numel() * std::mem::size_of::<i32>()
    }

    /// Bias codes.
    pub fn bias_codes(&self) -> &IntTensor<i32> {
        &self.bias
    }

    /// Weight bit-width used for storage accounting.
    pub fn weight_bits(&self) -> u32 {
        self.weight_bits
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.dims[0]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.dims[1]
    }

    /// Integer forward pass through the blocked GEMM kernel, into a
    /// caller-owned buffer: `x` is `rows` rows of `in_features` codes, `out`
    /// receives `rows × out_features` codes. The packed weight panels are
    /// built from the encoded bytes on first use, the activations are
    /// packed into `pack`, and the bias add + fixed-point requantization
    /// are fused into the kernel's SIMD epilogue. Bit-identical to
    /// [`IntLinear::forward_naive`] (the property tests pin this).
    ///
    /// # Errors
    ///
    /// Returns an error if `x` or `out` does not hold `rows` rows of the
    /// layer's input / output width.
    pub(crate) fn forward_into(
        &self,
        x: &[i8],
        rows: usize,
        pack: &mut ActivationBlock,
        out: &mut [i8],
    ) -> Result<()> {
        let (panels, bias) = (self.packed_panels(), self.bias.as_slice());
        let params = requant_params(&self.requant);
        Ok(gemm_i8_requant_into(
            x, rows, panels, bias, params, pack, out,
        )?)
    }

    /// Integer forward pass: `requant(x · W + b)` over tensors, allocating
    /// the output — the same kernel call the encoder layer makes per
    /// projection, with the activations packed into `scratch`.
    ///
    /// # Errors
    ///
    /// Returns an error if the input width does not match the layer.
    pub fn forward_with_scratch(
        &self,
        x: &IntTensor<i8>,
        scratch: &mut GemmScratch,
    ) -> Result<IntTensor<i8>> {
        let (panels, bias) = (self.packed_panels(), self.bias.as_slice());
        let params = requant_params(&self.requant);
        Ok(gemm_i8_requant(x, panels, bias, params, scratch)?)
    }

    /// The naive reference datapath: `matmul_i32` over the decoded weight
    /// codes followed by a scalar per-element requantize. It shares no code
    /// with the panel packers or the kernels, which makes it the
    /// bit-exactness oracle for both — the blocked
    /// [`IntLinear::forward_with_scratch`] must produce identical codes.
    ///
    /// # Errors
    ///
    /// Returns an error if the input width does not match the layer.
    pub fn forward_naive(&self, x: &IntTensor<i8>) -> Result<IntTensor<i8>> {
        let acc = x.matmul_i32(&self.weight_codes())?;
        let (rows, cols) = acc.as_matrix_dims()?;
        let mut out = IntTensor::<i8>::zeros(&[rows, cols]);
        for r in 0..rows {
            for c in 0..cols {
                let with_bias = i64::from(acc.row(r)[c]) + i64::from(self.bias.as_slice()[c]);
                let code = self.requant.apply(with_bias);
                out.as_mut_slice()[r * cols + c] = code.clamp(-127, 127) as i8;
            }
        }
        Ok(out)
    }
}

/// The kernel-epilogue form of a requantizer: the same multiplier and shift,
/// saturating at the `i8` code range.
fn requant_params(requant: &Requantizer) -> RequantParams {
    RequantParams {
        multiplier: requant.multiplier(),
        shift: requant.shift(),
        clamp: requant.out_max().min(127),
    }
}

/// 256-entry int8→int8 GELU lookup table.
#[derive(Debug, Clone, PartialEq)]
pub struct IntGelu {
    /// Indexed by `code + 128`.
    pub(super) table: [i8; 256],
}

impl IntGelu {
    /// Applies the table to one code. The index is a byte and the table
    /// has 256 entries, so the lookup carries no bounds check.
    pub fn apply(&self, code: i8) -> i8 {
        self.table[usize::from(code.cast_unsigned() ^ 0x80)]
    }

    /// Applies the table to every code of `codes`, in place, on the
    /// `table` entry of the process-selected kernel row (64 codes per
    /// `vpermi2b` step on `avx512` and `amx`, bit-identical to the scalar
    /// row's byte loop).
    pub fn apply_in_place(&self, codes: &mut [i8]) {
        (kernels::selected().table)(&self.table, codes);
    }

    /// Applies the table element-wise.
    pub fn apply_tensor(&self, x: &IntTensor<i8>) -> IntTensor<i8> {
        let mut out = x.clone();
        self.apply_in_place(out.as_mut_slice());
        out
    }
}

/// One fully quantized encoder layer.
#[derive(Debug, Clone, PartialEq)]
pub struct IntEncoderLayer {
    /// Query projection (8×4-bit matrix–vector work on the accelerator).
    pub query: IntLinear,
    /// Key projection.
    pub key: IntLinear,
    /// Value projection.
    pub value: IntLinear,
    /// Attention output projection.
    pub attn_output: IntLinear,
    /// First FFN projection.
    pub ffn1: IntLinear,
    /// Second FFN projection.
    pub ffn2: IntLinear,
    pub(super) gelu: IntGelu,
    pub(super) score_requant: Requantizer,
    pub(super) softmax: SoftmaxLut,
    pub(super) context_requant: Requantizer,
    /// The stored `Add & LN` parameters (what the artifact writer reads)
    /// and, next to each, the block the forward pass applies: the same
    /// parameters folded with their three scales at assembly.
    pub(super) attn_layer_norm: QuantizedLayerNorm,
    pub(super) attn_add_norm: AddLayerNorm,
    pub(super) ffn_layer_norm: QuantizedLayerNorm,
    pub(super) ffn_add_norm: AddLayerNorm,
    pub(super) heads: usize,
    pub(super) head_dim: usize,
    /// The calibrated activation scales the layer was assembled from:
    /// metadata for the artifact writer; the forward path never reads it.
    pub(super) scales: LayerScales,
}

impl IntEncoderLayer {
    /// The weight bit-widths of the six matrix sites of this layer.
    pub fn weight_bit_widths(&self) -> LayerBits {
        LayerBits {
            q: self.query.weight_bits(),
            k: self.key.weight_bits(),
            v: self.value.weight_bits(),
            attn_output: self.attn_output.weight_bits(),
            ffn1: self.ffn1.weight_bits(),
            ffn2: self.ffn2.weight_bits(),
        }
    }

    /// Bytes of private weight storage currently resident across this
    /// layer's six projections (see [`IntLinear::resident_bytes`]).
    pub fn resident_bytes(&self) -> usize {
        [
            &self.query,
            &self.key,
            &self.value,
            &self.attn_output,
            &self.ffn1,
            &self.ffn2,
        ]
        .iter()
        .map(|l| l.resident_bytes())
        .sum()
    }

    /// The `Add & LN` parameters of the attention residual.
    pub fn attn_layer_norm(&self) -> &QuantizedLayerNorm {
        &self.attn_layer_norm
    }

    /// The `Add & LN` parameters of the FFN residual.
    pub fn ffn_layer_norm(&self) -> &QuantizedLayerNorm {
        &self.ffn_layer_norm
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Integer forward pass over a batch of sequences packed row-wise into a
    /// `[Σ seq_lens, hidden]` tensor of int8 codes at this layer's input
    /// scale (one sequence is the batch `&[seq]`).
    ///
    /// The linear projections (Q/K/V, attention output, both FFN matrices)
    /// run as single blocked integer GEMMs over the whole pack — the
    /// batching win — attention runs per (sequence, head) as one fused
    /// row-block pass on the same tile kernels, and `Add & LN` is row-wise.
    /// Every intermediate lives in `scratch`, which the engine also reuses
    /// across every encoder layer of a forward pass; on a shape the scratch
    /// has served before, the returned tensor is the only allocation.
    ///
    /// # Errors
    ///
    /// Returns an error if `seq_lens` does not sum to the number of rows,
    /// contains a zero-length sequence (an all-padding attention mask must
    /// be rejected before attention, which is undefined over zero tokens)
    /// or one longer than [`MAX_ATTN_SEQ`], or on shape inconsistencies.
    pub fn forward_batch_with_scratch(
        &self,
        x: &IntTensor<i8>,
        seq_lens: &[usize],
        scratch: &mut GemmScratch,
    ) -> Result<IntTensor<i8>> {
        let (total, hidden) = x.as_matrix_dims()?;
        let mut out = IntTensor::<i8>::zeros(&[total, hidden]);
        let GemmScratch {
            pack,
            attn,
            arena,
            norm,
            ..
        } = scratch;
        let mut buffers = arena.slices(self.buffer_sizes(total));
        let (x, out_rows) = (x.as_slice(), out.as_mut_slice());
        self.forward_rows(x, seq_lens, pack, attn, norm, &mut buffers, out_rows)?;
        Ok(out)
    }

    /// Lengths of the eight intermediates of a forward pass over `total`
    /// rows, in the order [`IntEncoderLayer::forward_rows`] takes them: Q,
    /// K, V, context, attention output, first `Add & LN`, FFN hidden, FFN
    /// output.
    pub(super) fn buffer_sizes(&self, total: usize) -> [usize; 8] {
        let attn = total * self.heads * self.head_dim;
        let hidden = total * self.attn_output.out_features();
        let ffn = total * self.ffn1.out_features();
        [attn, attn, attn, attn, hidden, hidden, ffn, hidden]
    }

    /// The forward pass proper, over row-major codes: `x` and `out` are
    /// `Σ seq_lens` rows of the hidden width, `buffers` are at least
    /// [`IntEncoderLayer::buffer_sizes`] long each. Allocates nothing once
    /// `pack`, `attn` and `norm` have served the shape.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn forward_rows(
        &self,
        x: &[i8],
        seq_lens: &[usize],
        pack: &mut ActivationBlock,
        attn: &mut AttentionScratch,
        norm: &mut AddNormRow,
        buffers: &mut [&mut [i8]; 8],
        out: &mut [i8],
    ) -> Result<()> {
        let hidden = self.query.in_features();
        let total: usize = seq_lens.iter().sum();
        if x.len() != total * hidden || out.len() != x.len() {
            return Err(FqBertError::InvalidArgument(format!(
                "seq_lens sum to {total} rows of {hidden} codes but the input \
                 holds {} codes and the output {}",
                x.len(),
                out.len()
            )));
        }
        if seq_lens.contains(&0) {
            return Err(FqBertError::InvalidArgument(
                "zero-length sequence in batch: attention is undefined over \
                 zero tokens (all-padding attention mask?)"
                    .to_string(),
            ));
        }
        if let Some(seq) = seq_lens.iter().find(|&&seq| seq > MAX_ATTN_SEQ) {
            return Err(FqBertError::InvalidArgument(format!(
                "sequence of {seq} tokens exceeds the attention bound {MAX_ATTN_SEQ}"
            )));
        }
        let mut sizes = self.buffer_sizes(total).into_iter();
        let [q, k, v, context, attn_out, normed, ffn_hidden, ffn_out] = buffers
            .each_mut()
            .map(|buffer| &mut buffer[..sizes.next().expect("one size per buffer")]);

        // One packed GEMM each for Q, K and V across the whole batch.
        self.query.forward_into(x, total, pack, q)?;
        self.key.forward_into(x, total, pack, k)?;
        self.value.forward_into(x, total, pack, v)?;

        // Per-sequence, per-head scaled dot-product attention, each head
        // read in place out of Q/K/V and written in place into `context`.
        let width = self.heads * self.head_dim;
        let score_params = requant_params(&self.score_requant);
        let context_params = requant_params(&self.context_requant);
        let mut start = 0usize;
        for &seq in seq_lens {
            let rows = start..start + seq;
            for lo in (0..width).step_by(self.head_dim) {
                let cols = lo..lo + self.head_dim;
                let [qh, kh, vh] =
                    [&*q, &*k, &*v].map(|m| StridedView::new(m, width, rows.clone(), cols.clone()));
                attn.attend_head(
                    qh?,
                    kh?,
                    vh?,
                    score_params,
                    context_params,
                    self.softmax.params(),
                    &mut context[start * width + lo..],
                    width,
                )?;
            }
            start += seq;
        }

        self.attn_output
            .forward_into(context, total, pack, attn_out)?;
        // Add & LN (attention residual) — row-wise, so batch-oblivious.
        self.attn_add_norm.apply(normed, x, attn_out, norm)?;

        // FFN with LUT GELU, again as packed GEMMs.
        self.ffn1.forward_into(normed, total, pack, ffn_hidden)?;
        self.gelu.apply_in_place(ffn_hidden);
        self.ffn2.forward_into(ffn_hidden, total, pack, ffn_out)?;
        // Add & LN (FFN residual).
        self.ffn_add_norm.apply(out, normed, ffn_out, norm)?;
        Ok(())
    }
}
