//! Conversion and load time, float by nature: float weights and calibrated
//! scales enter here once — from the QAT converter or from an artifact —
//! and leave as integer codes, fixed-point requantizers, lookup tables and
//! folded `Add & LN` blocks. [`IntEncoderLayer::from_quantized_parts`] is
//! the one place a layer's scales are folded, so it is also where an
//! invalid one is refused: at assembly or load, never per request. The
//! scale structs `encoder.rs` stores whole, and their accessors, live here
//! so that file never has to name a float.

use super::embedding::IntEmbedding;
use super::encoder::{nibble_packed, IntEncoderLayer, IntGelu, IntLinear};
use crate::{FqBertError, Result};
use fqbert_bert::layers::{EncoderLayerParams, LayerNormParams, Linear};
use fqbert_quant::{
    quantize_bias, tune_clip_threshold, LayerBits, QuantParams, QuantizedLayerNorm, Requantizer,
    SoftmaxLut,
};
use fqbert_tensor::gemm::MAX_K;
use fqbert_tensor::ops::gelu_scalar;
use fqbert_tensor::{pack_i4, IntTensor, Tensor};
use std::sync::{Arc, OnceLock};

/// Output levels used for quantized attention probabilities.
const PROB_LEVELS: u32 = 255;

/// The three calibrated scales (levels per unit) of one projection: the
/// metadata its requantizer is folded from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct LinearScales {
    weight: f32,
    input: f32,
    output: f32,
}

impl IntLinear {
    /// Quantizes a float linear layer.
    ///
    /// `input_scale` and `output_scale` are the activation scales (levels per
    /// unit) of the layer's input and output, taken from QAT calibration.
    ///
    /// # Errors
    ///
    /// Returns an error if the weight tensor has no dynamic range or a scale
    /// is invalid.
    pub fn from_float(
        weight: &Tensor,
        bias: &Tensor,
        weight_bits: u32,
        weight_clip: Option<f32>,
        input_scale: f32,
        output_scale: f32,
    ) -> Result<Self> {
        let wp = QuantParams::for_weights(weight, weight_bits, weight_clip)?;
        let ap = QuantParams::new(8, input_scale)?;
        let weight_q = wp.quantize_tensor_i8(weight);
        let bias_q = quantize_bias(bias, &ap, &wp)?;
        let (in_features, out_features) = weight_q.as_matrix_dims()?;
        let encoded: Vec<u8> = if nibble_packed(weight_bits) {
            pack_i4(weight_q.as_slice())?
        } else {
            weight_q.as_slice().iter().map(|&c| c as u8).collect()
        };
        Self::from_v2_bytes(
            encoded.into(),
            0,
            in_features,
            out_features,
            bias_q,
            wp.scale(),
            input_scale,
            output_scale,
            weight_bits,
        )
    }

    /// Builds a layer over the v2 artifact encoding of its weight matrix,
    /// without unpacking or copying it: `offset` is where this tensor's
    /// weight bytes start in `bytes` — nibble-packed (two codes per byte,
    /// row-major, low nibble first) when `weight_bits ≤ 4`, raw
    /// `i8`-as-`u8` codes otherwise. The requantizer is rebuilt
    /// deterministically from the three scales.
    ///
    /// # Errors
    ///
    /// Returns an error if the encoded region falls outside `bytes`, an
    /// odd-element nibble encoding has a nonzero trailing high nibble,
    /// `in_features` exceeds the GEMM depth bound, the bias length does not
    /// match `out_features`, or a scale is invalid.
    #[allow(clippy::too_many_arguments)]
    pub fn from_v2_bytes(
        bytes: Arc<[u8]>,
        offset: usize,
        in_features: usize,
        out_features: usize,
        bias: IntTensor<i32>,
        weight_scale: f32,
        input_scale: f32,
        output_scale: f32,
        weight_bits: u32,
    ) -> Result<Self> {
        if bias.numel() != out_features {
            return Err(FqBertError::InvalidArgument(format!(
                "bias has {} entries for {} output features",
                bias.numel(),
                out_features
            )));
        }
        if in_features > MAX_K {
            return Err(FqBertError::InvalidArgument(format!(
                "in_features {in_features} exceeds the GEMM depth bound {MAX_K}"
            )));
        }
        let numel = in_features.checked_mul(out_features).ok_or_else(|| {
            FqBertError::InvalidArgument(format!(
                "weight element count {in_features}×{out_features} overflows"
            ))
        })?;
        let encoded_len = Self::encoded_len(weight_bits, numel);
        let end = offset
            .checked_add(encoded_len)
            .filter(|&end| end <= bytes.len())
            .ok_or_else(|| {
                FqBertError::InvalidArgument(format!(
                    "weight bytes {offset}..{offset}+{encoded_len} exceed the \
                     {}-byte artifact buffer",
                    bytes.len()
                ))
            })?;
        if nibble_packed(weight_bits) && numel % 2 == 1 && bytes[end - 1] & 0xf0 != 0 {
            return Err(FqBertError::InvalidArgument(
                "odd-element nibble encoding has a nonzero trailing high nibble".to_string(),
            ));
        }
        let effective =
            f64::from(output_scale) / (f64::from(input_scale) * f64::from(weight_scale));
        let requant = Requantizer::from_scale(effective, 8)?;
        Ok(Self {
            bytes,
            offset,
            end,
            dims: [in_features, out_features],
            packed: Arc::new(OnceLock::new()),
            bias,
            scales: LinearScales {
                weight: weight_scale,
                input: input_scale,
                output: output_scale,
            },
            weight_bits,
            requant,
        })
    }

    /// Activation scale expected at the input.
    pub fn input_scale(&self) -> f32 {
        self.scales.input
    }

    /// Activation scale produced at the output.
    pub fn output_scale(&self) -> f32 {
        self.scales.output
    }

    /// Weight scale (levels per unit).
    pub fn weight_scale(&self) -> f32 {
        self.scales.weight
    }
}

impl IntGelu {
    /// Builds a GELU table mapping int8 codes at `input_scale` to int8 codes
    /// at `output_scale`: the float GELU is evaluated once per code here,
    /// inference only indexes the table.
    pub fn new(input_scale: f32, output_scale: f32) -> Self {
        let table = std::array::from_fn(|index| {
            let x = (index as f32 - 128.0) / input_scale;
            (gelu_scalar(x) * output_scale).round().clamp(-127.0, 127.0) as i8
        });
        Self { table }
    }
}

/// Scales needed to build one integer encoder layer (taken from QAT
/// calibration by the converter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerScales {
    /// Scale of the activations entering the layer.
    pub input: f32,
    /// Scale of the query projection output.
    pub q: f32,
    /// Scale of the key projection output.
    pub k: f32,
    /// Scale of the value projection output.
    pub v: f32,
    /// Scale of the attention scores (`QKᵀ/√d`).
    pub scores: f32,
    /// Scale of the attention output projection.
    pub attn_output: f32,
    /// Scale of the `Add & LN` outputs.
    pub layer_norm: f32,
    /// Scale of the FFN hidden activation (post-GELU).
    pub ffn_hidden: f32,
    /// Scale of the FFN output projection.
    pub ffn_output: f32,
}

impl IntEncoderLayer {
    /// Quantizes one float encoder layer using calibrated activation scales
    /// and per-site weight bit-widths ([`LayerBits::uniform`] for a
    /// single-width layer). Clip tuning, when enabled, is performed per
    /// site at that site's width.
    ///
    /// # Errors
    ///
    /// Returns an error if any scale is invalid, a weight has no range, or
    /// `bits` contains an unsupported width.
    #[allow(clippy::too_many_arguments)]
    pub fn from_float_mixed(
        layer: &EncoderLayerParams,
        heads: usize,
        head_dim: usize,
        bits: &LayerBits,
        tune_clip: bool,
        scales: &LayerScales,
        layer_norm_eps: f32,
    ) -> Result<Self> {
        bits.validate().map_err(FqBertError::InvalidArgument)?;
        // One projection: clip tuned (when enabled) at its own width, then
        // quantized between its input and output activation scales.
        let linear = |float: &Linear, weight_bits: u32, input: f32, output: f32| {
            let clip = if tune_clip {
                Some(tune_clip_threshold(&float.weight, weight_bits, 40)?.clip)
            } else {
                None
            };
            IntLinear::from_float(&float.weight, &float.bias, weight_bits, clip, input, output)
        };
        let query = linear(&layer.query, bits.q, scales.input, scales.q)?;
        let key = linear(&layer.key, bits.k, scales.input, scales.k)?;
        let value = linear(&layer.value, bits.v, scales.input, scales.v)?;
        // The attention context is a convex combination of V rows, so reusing
        // the V scale for the context keeps the code range sound.
        let attn_output = linear(
            &layer.attn_output,
            bits.attn_output,
            scales.v,
            scales.attn_output,
        )?;
        let ffn1 = linear(&layer.ffn1, bits.ffn1, scales.layer_norm, scales.ffn_hidden)?;
        let ffn2 = linear(&layer.ffn2, bits.ffn2, scales.ffn_hidden, scales.ffn_output)?;
        let attn_layer_norm = QuantizedLayerNorm::from_float(
            layer.attn_layer_norm.gamma.as_slice(),
            layer.attn_layer_norm.beta.as_slice(),
            layer_norm_eps,
        )?;
        let ffn_layer_norm = QuantizedLayerNorm::from_float(
            layer.ffn_layer_norm.gamma.as_slice(),
            layer.ffn_layer_norm.beta.as_slice(),
            layer_norm_eps,
        )?;
        Self::from_quantized_parts(
            query,
            key,
            value,
            attn_output,
            ffn1,
            ffn2,
            heads,
            head_dim,
            scales,
            attn_layer_norm,
            ffn_layer_norm,
        )
    }

    /// Assembles an encoder layer from quantized parts (the inverse of the
    /// accessors on this type) — the one place a layer is put together,
    /// used by the float converter and when loading model artifacts.
    ///
    /// All derived state (GELU table, softmax LUT, requantizers, the two
    /// folded `Add & LN` blocks) is built deterministically from `scales`,
    /// so a layer reconstructed from its own accessors computes
    /// bit-identical outputs.
    ///
    /// # Errors
    ///
    /// Returns an error if a scale is invalid or the head geometry does not
    /// fit the projections: `heads` must be non-zero and `heads · head_dim`
    /// must be the output width of `query`, `key` and `value` and the input
    /// width of `attn_output`; Q, K and V must read the same input width.
    #[allow(clippy::too_many_arguments)]
    pub fn from_quantized_parts(
        query: IntLinear,
        key: IntLinear,
        value: IntLinear,
        attn_output: IntLinear,
        ffn1: IntLinear,
        ffn2: IntLinear,
        heads: usize,
        head_dim: usize,
        scales: &LayerScales,
        attn_layer_norm: QuantizedLayerNorm,
        ffn_layer_norm: QuantizedLayerNorm,
    ) -> Result<Self> {
        let width = heads.checked_mul(head_dim).filter(|&w| w > 0);
        let projections_agree = [&key, &value].iter().all(|p| {
            p.out_features() == query.out_features() && p.in_features() == query.in_features()
        });
        if width != Some(query.out_features())
            || width != Some(attn_output.in_features())
            || !projections_agree
        {
            return Err(FqBertError::InvalidArgument(format!(
                "{heads} heads of dimension {head_dim} do not fit Q/K/V projections \
                 {}x{} / {}x{} / {}x{} feeding an attention output of {} inputs",
                query.in_features(),
                query.out_features(),
                key.in_features(),
                key.out_features(),
                value.in_features(),
                value.out_features(),
                attn_output.in_features()
            )));
        }
        // The scales no fold below would refuse: `IntGelu::new` tabulates
        // whatever `ffn_hidden` it is given (zero or non-finite makes every
        // entry 0), the context requantizer is scale-free, so nothing
        // computes with `v` at all, and `q` and `k` reach the score
        // requantizer only as a product, in which two negative ones cancel.
        let unfolded = [
            ("q", scales.q),
            ("k", scales.k),
            ("ffn_hidden", scales.ffn_hidden),
            ("v", scales.v),
        ];
        for (field, scale) in unfolded {
            if !(scale.is_finite() && scale > 0.0) {
                return Err(FqBertError::InvalidArgument(format!(
                    "invalid scale: {field} = {scale} (must be positive and finite)"
                )));
            }
        }
        let gelu = IntGelu::new(scales.ffn_hidden, scales.ffn_hidden);
        // Attention scores: real = acc / (s_q · s_k · √d); codes at s_scores.
        let score_effective = f64::from(scales.scores)
            / (f64::from(scales.q) * f64::from(scales.k) * (head_dim as f64).sqrt());
        let score_requant = Requantizer::from_scale(score_effective, 8)?;
        let softmax = SoftmaxLut::new(scales.scores, PROB_LEVELS)?;
        // Attention context: real = acc / (PROB_LEVELS · s_v); codes at s_v,
        // so the effective requantization scale is scale-free.
        let context_requant = Requantizer::from_scale(1.0 / f64::from(PROB_LEVELS), 8)?;
        // Add & LN: the layer input plus the attention output, then that
        // sum plus the FFN output; both land on the `layer_norm` grid.
        let attn_add_norm =
            attn_layer_norm.fold(scales.input, scales.attn_output, scales.layer_norm)?;
        let ffn_add_norm =
            ffn_layer_norm.fold(scales.layer_norm, scales.ffn_output, scales.layer_norm)?;
        Ok(Self {
            query,
            key,
            value,
            attn_output,
            ffn1,
            ffn2,
            gelu,
            score_requant,
            softmax,
            context_requant,
            attn_layer_norm,
            attn_add_norm,
            ffn_layer_norm,
            ffn_add_norm,
            heads,
            head_dim,
            scales: *scales,
        })
    }

    /// The calibrated activation scales this layer was built from.
    pub fn scales(&self) -> LayerScales {
        self.scales
    }

    /// Scale of the activations produced by this layer — what chains it to
    /// the next layer at conversion time and dequantizes the classifier
    /// input.
    pub fn output_scale(&self) -> f32 {
        self.scales.layer_norm
    }
}

/// The three scales (levels per unit) the embedding's `Add & LN` is folded
/// from: the word table's, the position×segment table's and the encoder
/// input's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct EmbeddingScales {
    word: f32,
    position_segment: f32,
    pub(super) output: f32,
}

impl IntEmbedding {
    /// Quantizes the float embedding: the word table to 8-bit codes at one
    /// scale (`127 / max |w|`), the sums `position[p] + segment[s]` to one
    /// `(max_len · type_vocab) × hidden` table of 8-bit codes at another,
    /// and the layer norm to its stored codes ([`QuantizedLayerNorm`]),
    /// folded with both table scales and `output_scale` — the encoder's
    /// input scale — as every encoder `Add & LN` is.
    ///
    /// # Errors
    ///
    /// Returns an error if a table has no dynamic range, the tables and
    /// the layer norm disagree in width, or `output_scale` is invalid.
    pub(crate) fn from_float(
        word: &Tensor,
        position: &Tensor,
        segment: &Tensor,
        layer_norm: &LayerNormParams,
        eps: f32,
        output_scale: f32,
    ) -> Result<Self> {
        let (_, hidden) = word.as_matrix_dims()?;
        let (max_len, position_hidden) = position.as_matrix_dims()?;
        let (segments, segment_hidden) = segment.as_matrix_dims()?;
        if position_hidden != hidden || segment_hidden != hidden {
            return Err(FqBertError::InvalidArgument(format!(
                "embedding tables of widths {hidden} / {position_hidden} / {segment_hidden}"
            )));
        }
        let mut sums = Vec::with_capacity(max_len * segments * hidden);
        for p in 0..max_len {
            for s in 0..segments {
                let rows = position.row(p).iter().zip(segment.row(s));
                sums.extend(rows.map(|(&x, &y)| x + y));
            }
        }
        let position_segment = Tensor::from_vec(sums, &[max_len * segments, hidden])?;
        let codes = |table: &Tensor| -> Result<(Arc<IntTensor<i8>>, f32)> {
            let params = QuantParams::for_weights(table, 8, None)?;
            Ok((Arc::new(params.quantize_tensor_i8(table)), params.scale()))
        };
        let (word, word_scale) = codes(word)?;
        let (position_segment, position_segment_scale) = codes(&position_segment)?;
        let layer_norm = QuantizedLayerNorm::from_float(
            layer_norm.gamma.as_slice(),
            layer_norm.beta.as_slice(),
            eps,
        )?;
        Self::from_quantized_parts(
            word,
            word_scale,
            position_segment,
            position_segment_scale,
            segments,
            layer_norm,
            output_scale,
        )
    }

    /// Assembles the embedding from its stored parts (the inverse of its
    /// tables and accessors) — the one place it is put together, used by
    /// the converter and when loading model artifacts: `word` is `[vocab,
    /// hidden]` codes at `word_scale` levels per unit, `position_segment`
    /// `[max_len · segments, hidden]` codes at `position_segment_scale`.
    /// The `Add & LN` block is folded here, deterministically, so an
    /// embedding rebuilt from its own accessors computes bit-identical
    /// codes.
    ///
    /// # Errors
    ///
    /// Returns an error if the tables are not matrices as wide as the layer
    /// norm, the position×segment rows are not a whole number of
    /// `segments`, or a scale is not positive and finite.
    pub fn from_quantized_parts(
        word: Arc<IntTensor<i8>>,
        word_scale: f32,
        position_segment: Arc<IntTensor<i8>>,
        position_segment_scale: f32,
        segments: usize,
        layer_norm: QuantizedLayerNorm,
        output_scale: f32,
    ) -> Result<Self> {
        let hidden = layer_norm.hidden();
        let fits = |table: &IntTensor<i8>, whole: usize| match *table.dims() {
            [rows, width] => width == hidden && rows > 0 && rows % whole == 0,
            _ => false,
        };
        if segments == 0 || !fits(&word, 1) || !fits(&position_segment, segments) {
            return Err(FqBertError::InvalidArgument(format!(
                "embedding tables {:?} (word) and {:?} (position x {segments} segments) \
                 do not fit a layer norm of width {hidden}",
                word.dims(),
                position_segment.dims()
            )));
        }
        let add_norm = layer_norm.fold(word_scale, position_segment_scale, output_scale)?;
        Ok(Self {
            word,
            position_segment,
            segments,
            layer_norm,
            add_norm,
            scales: EmbeddingScales {
                word: word_scale,
                position_segment: position_segment_scale,
                output: output_scale,
            },
        })
    }

    /// Levels per unit of the word codes and of the position×segment
    /// codes, in that order.
    pub fn table_scales(&self) -> [f32; 2] {
        [self.scales.word, self.scales.position_segment]
    }
}
