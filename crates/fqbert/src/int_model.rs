//! The integer-only FQ-BERT inference engine.
//!
//! Following the paper's system partitioning (§III-A), the embedding lookup
//! and the small task head run in floating point "on the CPU", while the
//! whole encoder stack runs on integers only — the part the FPGA accelerator
//! executes:
//!
//! * weights are int4/int8 codes, activations int8 codes, biases int32;
//! * every matrix multiply accumulates in int32 and is requantized back to
//!   int8 with a fixed-point [`Requantizer`] (Eq. 5);
//! * attention is fused per `MR`-row block of queries on the GEMM tile
//!   kernels ([`fqbert_tensor::gemm::attention`]): score tile → requantize →
//!   the 256-entry [`SoftmaxLut`] with max-subtraction → context tile →
//!   requantize, so the `seq × seq` score matrix never exists;
//! * `Add & LN` uses the fixed-point [`QuantizedLayerNorm`];
//! * GELU uses a 256-entry int8→int8 lookup table (the paper fuses it with
//!   FFN1; a table is the standard HLS realisation).
//!
//! The engine is the functional reference executed by the accelerator
//! simulator in `fqbert-accel`.
//!
//! A layer keeps its intermediates in the caller's [`GemmScratch`] — every
//! stage writes into a buffer the scratch owns (GELU in place), and the
//! model ping-pongs the hidden state between two such buffers across
//! layers — so a forward pass on a shape the scratch has seen allocates
//! only what it returns.

use crate::{FqBertError, Result};
use fqbert_bert::BertConfig;
use fqbert_quant::{
    quantize_bias, LayerBits, QuantParams, QuantizedLayerNorm, Requantizer, SoftmaxLut,
};
use fqbert_tensor::gemm::{
    gemm_i8_requant, gemm_i8_requant_into, ActivationBlock, AttentionScratch, GemmScratch,
    PackedWeights, RequantParams, StridedView, MAX_ATTN_SEQ, MAX_K,
};
use fqbert_tensor::ops::{argmax_slice, gelu_scalar};
use fqbert_tensor::{pack_i4, unpack_i4, IntTensor, Tensor};
use std::sync::{Arc, OnceLock};

/// Output levels used for quantized attention probabilities.
const PROB_LEVELS: u32 = 255;

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
// fqlint::allow(float-escape): the stored scales are per-tensor calibration
// metadata carried for conversion and inspection; `forward` is integer-only.
#[derive(Debug, Clone)]
pub struct IntLinear {
    /// Buffer holding the encoded weight matrix at `offset..end`.
    bytes: Arc<[u8]>,
    offset: usize,
    end: usize,
    /// `[in_features, out_features]`.
    dims: [usize; 2],
    packed: Arc<OnceLock<PackedWeights>>,
    bias: IntTensor<i32>,
    weight_scale: f32,
    input_scale: f32,
    output_scale: f32,
    weight_bits: u32,
    requant: Requantizer,
}

/// Layer equality compares the logical layer — codes, bias, scales and
/// bit-width — not which buffer holds the codes or whether the panels are
/// built. Equal codes at equal bit-width have equal encodings (the padding
/// nibble of an odd-sized low-bit matrix is validated to be zero).
impl PartialEq for IntLinear {
    fn eq(&self, other: &Self) -> bool {
        self.dims == other.dims
            && self.weight_bits == other.weight_bits
            && self.weight_scale == other.weight_scale
            && self.input_scale == other.input_scale
            && self.output_scale == other.output_scale
            && self.bias == other.bias
            && self.weight_bytes() == other.weight_bytes()
    }
}

/// Whether weights of this bit-width are stored two codes per byte (and run
/// on nibble panels) rather than one.
fn nibble_packed(weight_bits: u32) -> bool {
    weight_bits <= 4
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
    // fqlint::allow(float-escape): conversion-time boundary — float weights
    // enter here once and leave as integer codes plus a fixed-point requant.
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
    // fqlint::allow(float-escape): load-time boundary — rebuilds the layer
    // from encoded bytes and float scale metadata read from the artifact.
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
            weight_scale,
            input_scale,
            output_scale,
            weight_bits,
            requant,
        })
    }

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

    /// Activation scale expected at the input.
    // fqlint::allow(float-escape): scale-metadata accessor for conversion
    // and artifact serialization; not on the forward path.
    pub fn input_scale(&self) -> f32 {
        self.input_scale
    }

    /// Activation scale produced at the output.
    // fqlint::allow(float-escape): scale-metadata accessor for conversion
    // and artifact serialization; not on the forward path.
    pub fn output_scale(&self) -> f32 {
        self.output_scale
    }

    /// Weight scale (levels per unit).
    // fqlint::allow(float-escape): scale-metadata accessor for conversion
    // and artifact serialization; not on the forward path.
    pub fn weight_scale(&self) -> f32 {
        self.weight_scale
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.dims[0]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.dims[1]
    }

    /// Integer forward pass: `requant(x · W + b)`, via the blocked kernel
    /// with a one-shot scratch buffer. Prefer
    /// [`IntLinear::forward_with_scratch`] when running many projections so
    /// the packing buffer is reused.
    ///
    /// # Errors
    ///
    /// Returns an error if the input width does not match the layer.
    pub fn forward(&self, x: &IntTensor<i8>) -> Result<IntTensor<i8>> {
        self.forward_with_scratch(x, &mut GemmScratch::new())
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
    pub fn forward_into(
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

    /// [`IntLinear::forward_into`] over tensors, allocating the output.
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
    /// bit-exactness oracle for both — the blocked [`IntLinear::forward`]
    /// must produce identical codes.
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
// fqlint::allow(float-escape): the stored scales are calibration metadata;
// `apply` is a pure int8 table lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct IntGelu {
    table: Vec<i8>,
    input_scale: f32,
    output_scale: f32,
}

impl IntGelu {
    /// Builds a GELU table mapping int8 codes at `input_scale` to int8 codes
    /// at `output_scale`.
    // fqlint::allow(float-escape): construction-time boundary — the table is
    // built once from float GELU; inference only indexes it.
    pub fn new(input_scale: f32, output_scale: f32) -> Self {
        let table = (-128i32..=127)
            .map(|code| {
                let x = code as f32 / input_scale;
                (gelu_scalar(x) * output_scale).round().clamp(-127.0, 127.0) as i8
            })
            .collect();
        Self {
            table,
            input_scale,
            output_scale,
        }
    }

    /// Applies the table to one code.
    pub fn apply(&self, code: i8) -> i8 {
        self.table[(code as i32 + 128) as usize]
    }

    /// Applies the table to every code of `codes`, in place.
    pub fn apply_in_place(&self, codes: &mut [i8]) {
        for code in codes {
            *code = self.apply(*code);
        }
    }

    /// Applies the table element-wise.
    pub fn apply_tensor(&self, x: &IntTensor<i8>) -> IntTensor<i8> {
        let mut out = x.clone();
        self.apply_in_place(out.as_mut_slice());
        out
    }

    /// Output activation scale.
    // fqlint::allow(float-escape): scale-metadata accessor; not on the
    // lookup path.
    pub fn output_scale(&self) -> f32 {
        self.output_scale
    }
}

/// One fully quantized encoder layer.
// fqlint::allow(float-escape): the per-tensor scale fields are calibration
// metadata carried for serialization and chaining; `forward` is integer-only.
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
    gelu: IntGelu,
    score_requant: Requantizer,
    score_scale: f32,
    softmax: SoftmaxLut,
    context_requant: Requantizer,
    attn_layer_norm: QuantizedLayerNorm,
    ffn_layer_norm: QuantizedLayerNorm,
    heads: usize,
    head_dim: usize,
    input_scale: f32,
    q_scale: f32,
    k_scale: f32,
    v_scale: f32,
    attn_out_scale: f32,
    ln_out_scale: f32,
    ffn_out_scale: f32,
}

/// Scales needed to build one integer encoder layer (taken from QAT
/// calibration by the converter).
// fqlint::allow(float-escape): pure calibration metadata — the float scales
// QAT hands to the converter; never read during integer inference.
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
    /// Quantizes one float encoder layer using calibrated activation scales.
    ///
    /// # Errors
    ///
    /// Returns an error if any scale is invalid or a weight has no range.
    // fqlint::allow(float-escape): conversion-time boundary from float QAT
    // parameters to the integer layer.
    #[allow(clippy::too_many_arguments)]
    pub fn from_float(
        layer: &fqbert_bert::layers::EncoderLayerParams,
        heads: usize,
        head_dim: usize,
        weight_bits: u32,
        tune_clip: bool,
        scales: &LayerScales,
        layer_norm_eps: f32,
    ) -> Result<Self> {
        Self::from_float_mixed(
            layer,
            heads,
            head_dim,
            &LayerBits::uniform(weight_bits),
            tune_clip,
            scales,
            layer_norm_eps,
        )
    }

    /// Quantizes one float encoder layer with per-site weight bit-widths
    /// (the mixed-precision counterpart of [`IntEncoderLayer::from_float`]).
    /// Clip tuning, when enabled, is performed per site at that site's
    /// width.
    ///
    /// # Errors
    ///
    /// Returns an error if any scale is invalid, a weight has no range, or
    /// `bits` contains an unsupported width.
    // fqlint::allow(float-escape): conversion-time boundary — folds float
    // scales into requantizers and LUTs; the built layer is integer-only.
    #[allow(clippy::too_many_arguments)]
    pub fn from_float_mixed(
        layer: &fqbert_bert::layers::EncoderLayerParams,
        heads: usize,
        head_dim: usize,
        bits: &LayerBits,
        tune_clip: bool,
        scales: &LayerScales,
        layer_norm_eps: f32,
    ) -> Result<Self> {
        bits.validate().map_err(FqBertError::InvalidArgument)?;
        let clip = |w: &Tensor, weight_bits: u32| -> Result<Option<f32>> {
            if tune_clip {
                Ok(Some(
                    fqbert_quant::tune_clip_threshold(w, weight_bits, 40)?.clip,
                ))
            } else {
                Ok(None)
            }
        };
        let query = IntLinear::from_float(
            &layer.query.weight,
            &layer.query.bias,
            bits.q,
            clip(&layer.query.weight, bits.q)?,
            scales.input,
            scales.q,
        )?;
        let key = IntLinear::from_float(
            &layer.key.weight,
            &layer.key.bias,
            bits.k,
            clip(&layer.key.weight, bits.k)?,
            scales.input,
            scales.k,
        )?;
        let value = IntLinear::from_float(
            &layer.value.weight,
            &layer.value.bias,
            bits.v,
            clip(&layer.value.weight, bits.v)?,
            scales.input,
            scales.v,
        )?;
        // The attention context is a convex combination of V rows, so reusing
        // the V scale for the context keeps the code range sound.
        let attn_output = IntLinear::from_float(
            &layer.attn_output.weight,
            &layer.attn_output.bias,
            bits.attn_output,
            clip(&layer.attn_output.weight, bits.attn_output)?,
            scales.v,
            scales.attn_output,
        )?;
        let ffn1 = IntLinear::from_float(
            &layer.ffn1.weight,
            &layer.ffn1.bias,
            bits.ffn1,
            clip(&layer.ffn1.weight, bits.ffn1)?,
            scales.layer_norm,
            scales.ffn_hidden,
        )?;
        let ffn2 = IntLinear::from_float(
            &layer.ffn2.weight,
            &layer.ffn2.bias,
            bits.ffn2,
            clip(&layer.ffn2.weight, bits.ffn2)?,
            scales.ffn_hidden,
            scales.ffn_output,
        )?;
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
    /// All derived state (GELU table, softmax LUT, requantizers) is built
    /// deterministically from `scales`, so a layer reconstructed from its
    /// own accessors computes bit-identical outputs.
    ///
    /// # Errors
    ///
    /// Returns an error if a scale is invalid or the head geometry does not
    /// fit the projections: `heads` must be non-zero and `heads · head_dim`
    /// must be the output width of `query`, `key` and `value` and the input
    /// width of `attn_output`; Q, K and V must read the same input width.
    // fqlint::allow(float-escape): assembly boundary — folds float scale
    // metadata into requantizers and LUTs; the built layer is integer-only.
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
        let gelu = IntGelu::new(scales.ffn_hidden, scales.ffn_hidden);
        // Attention scores: real = acc / (s_q · s_k · √d); codes at s_scores.
        let score_effective = f64::from(scales.scores)
            / (f64::from(scales.q) * f64::from(scales.k) * (head_dim as f64).sqrt());
        let score_requant = Requantizer::from_scale(score_effective, 8)?;
        let softmax = SoftmaxLut::new(scales.scores, PROB_LEVELS)?;
        // Attention context: real = acc / (PROB_LEVELS · s_v); codes at s_v,
        // so the effective requantization scale is scale-free.
        let context_requant = Requantizer::from_scale(1.0 / f64::from(PROB_LEVELS), 8)?;
        Ok(Self {
            query,
            key,
            value,
            attn_output,
            ffn1,
            ffn2,
            gelu,
            score_requant,
            score_scale: scales.scores,
            softmax,
            context_requant,
            attn_layer_norm,
            ffn_layer_norm,
            heads,
            head_dim,
            input_scale: scales.input,
            q_scale: scales.q,
            k_scale: scales.k,
            v_scale: scales.v,
            attn_out_scale: scales.attn_output,
            ln_out_scale: scales.layer_norm,
            ffn_out_scale: scales.ffn_output,
        })
    }

    /// The calibrated activation scales this layer was built from.
    pub fn scales(&self) -> LayerScales {
        LayerScales {
            input: self.input_scale,
            q: self.q_scale,
            k: self.k_scale,
            v: self.v_scale,
            scores: self.score_scale,
            attn_output: self.attn_out_scale,
            layer_norm: self.ln_out_scale,
            ffn_hidden: self.gelu.output_scale(),
            ffn_output: self.ffn_out_scale,
        }
    }

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

    /// Scale of the activations produced by this layer.
    // fqlint::allow(float-escape): scale-metadata accessor used to chain
    // layers at conversion time and dequantize the classifier input.
    pub fn output_scale(&self) -> f32 {
        self.ln_out_scale
    }

    /// Scale of the activations expected at the input of this layer.
    // fqlint::allow(float-escape): scale-metadata accessor for conversion
    // and artifact serialization.
    pub fn input_scale(&self) -> f32 {
        self.input_scale
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Integer forward pass over a `[seq, hidden]` tensor of int8 codes at
    /// this layer's input scale.
    ///
    /// # Errors
    ///
    /// Returns an error on shape inconsistencies.
    pub fn forward(&self, x: &IntTensor<i8>) -> Result<IntTensor<i8>> {
        let (seq, _hidden) = x.as_matrix_dims()?;
        self.forward_batch(x, &[seq])
    }

    /// Integer forward pass over a batch of sequences packed row-wise into a
    /// `[Σ seq_lens, hidden]` tensor, with a one-shot GEMM scratch buffer.
    ///
    /// # Errors
    ///
    /// As for [`IntEncoderLayer::forward_batch_with_scratch`].
    pub fn forward_batch(&self, x: &IntTensor<i8>, seq_lens: &[usize]) -> Result<IntTensor<i8>> {
        self.forward_batch_with_scratch(x, seq_lens, &mut GemmScratch::new())
    }

    /// Integer forward pass over a batch of sequences packed row-wise into a
    /// `[Σ seq_lens, hidden]` tensor.
    ///
    /// The linear projections (Q/K/V, attention output, both FFN matrices)
    /// run as single blocked integer GEMMs over the whole pack — the
    /// batching win — attention runs per (sequence, head) as one fused
    /// row-block pass on the same tile kernels, and `Add & LN` is row-wise.
    /// Every intermediate lives in `scratch`, which the engine also reuses
    /// across every encoder layer of a forward pass; on a shape the scratch
    /// has served before, the returned tensor is the only allocation. For a
    /// single segment this is bit-identical to [`IntEncoderLayer::forward`].
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
        let GemmScratch { pack, attn, arena } = scratch;
        let mut buffers = arena.slices(self.buffer_sizes(total));
        let out_rows = out.as_mut_slice();
        self.forward_rows(x.as_slice(), seq_lens, pack, attn, &mut buffers, out_rows)?;
        Ok(out)
    }

    /// Lengths of the eight intermediates of a forward pass over `total`
    /// rows, in the order [`IntEncoderLayer::forward_rows`] takes them: Q,
    /// K, V, context, attention output, first `Add & LN`, FFN hidden, FFN
    /// output.
    fn buffer_sizes(&self, total: usize) -> [usize; 8] {
        let attn = total * self.heads * self.head_dim;
        let hidden = total * self.attn_output.out_features();
        let ffn = total * self.ffn1.out_features();
        [attn, attn, attn, attn, hidden, hidden, ffn, hidden]
    }

    /// The forward pass proper, over row-major codes: `x` and `out` are
    /// `Σ seq_lens` rows of the hidden width, `buffers` are at least
    /// [`IntEncoderLayer::buffer_sizes`] long each. Allocates nothing once
    /// `pack` and `attn` have served the shape.
    fn forward_rows(
        &self,
        x: &[i8],
        seq_lens: &[usize],
        pack: &mut ActivationBlock,
        attn: &mut AttentionScratch,
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
                    |scores, mut probs| {
                        self.softmax
                            .apply_row_into(scores, |j, prob| probs.set(j, prob));
                    },
                    &mut context[start * width + lo..],
                    width,
                )?;
            }
            start += seq;
        }

        self.attn_output
            .forward_into(context, total, pack, attn_out)?;
        // Add & LN (attention residual) — row-wise, so batch-oblivious.
        self.attn_layer_norm.apply_residual_into(
            normed,
            x,
            self.input_scale,
            attn_out,
            self.attn_out_scale,
            self.ln_out_scale,
        )?;

        // FFN with LUT GELU, again as packed GEMMs.
        self.ffn1.forward_into(normed, total, pack, ffn_hidden)?;
        self.gelu.apply_in_place(ffn_hidden);
        self.ffn2.forward_into(ffn_hidden, total, pack, ffn_out)?;
        // Add & LN (FFN residual).
        self.ffn_layer_norm.apply_residual_into(
            out,
            normed,
            self.ln_out_scale,
            ffn_out,
            self.ffn_out_scale,
            self.ln_out_scale,
        )?;
        Ok(())
    }
}

/// The complete integer FQ-BERT model: float CPU-side embedding/classifier
/// plus the integer encoder stack.
///
/// The float tensors (embedding tables, layer-norm parameters, classifier)
/// are held behind [`Arc`] so identical tensors can be shared across models
/// — w4 and w8 variants of one task reuse one copy of the embeddings via
/// the loader's content-hash dedup — and so cloning a model never copies
/// them. Equality still compares tensor contents ([`Arc<T>: PartialEq`]
/// compares the pointees).
// fqlint::allow(float-escape): the embedding output scale is the documented
// float↔integer boundary of the paper's model (embeddings and classifier
// stay float; the encoder stack is integer-only).
#[derive(Debug, Clone, PartialEq)]
pub struct IntBertModel {
    config: BertConfig,
    word_embeddings: Arc<Tensor>,
    position_embeddings: Arc<Tensor>,
    segment_embeddings: Arc<Tensor>,
    embedding_gamma: Arc<Tensor>,
    embedding_beta: Arc<Tensor>,
    classifier_weight: Arc<Tensor>,
    classifier_bias: Arc<Tensor>,
    embedding_out_scale: f32,
    /// Quantized encoder layers.
    pub layers: Vec<IntEncoderLayer>,
    weight_bits: u32,
}

impl IntBertModel {
    /// Assembles an integer model from its parts (used by the converter and
    /// by artifact loading).
    // fqlint::allow(float-escape): assembly boundary — accepts the float
    // embedding tables, classifier and embedding scale.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        config: BertConfig,
        word_embeddings: Tensor,
        position_embeddings: Tensor,
        segment_embeddings: Tensor,
        embedding_gamma: Tensor,
        embedding_beta: Tensor,
        classifier_weight: Tensor,
        classifier_bias: Tensor,
        embedding_out_scale: f32,
        layers: Vec<IntEncoderLayer>,
        weight_bits: u32,
    ) -> Self {
        Self::from_shared_parts(
            config,
            Arc::new(word_embeddings),
            Arc::new(position_embeddings),
            Arc::new(segment_embeddings),
            Arc::new(embedding_gamma),
            Arc::new(embedding_beta),
            Arc::new(classifier_weight),
            Arc::new(classifier_bias),
            embedding_out_scale,
            layers,
            weight_bits,
        )
    }

    /// As [`IntBertModel::from_parts`], but accepting already-shared float
    /// tensors — the loader's content-hash dedup path, where identical
    /// tensors (embedding tables, classifier heads) across model variants
    /// resolve to one shared allocation.
    // fqlint::allow(float-escape): assembly boundary — accepts the float
    // embedding tables, classifier and embedding scale.
    #[allow(clippy::too_many_arguments)]
    pub fn from_shared_parts(
        config: BertConfig,
        word_embeddings: Arc<Tensor>,
        position_embeddings: Arc<Tensor>,
        segment_embeddings: Arc<Tensor>,
        embedding_gamma: Arc<Tensor>,
        embedding_beta: Arc<Tensor>,
        classifier_weight: Arc<Tensor>,
        classifier_bias: Arc<Tensor>,
        embedding_out_scale: f32,
        layers: Vec<IntEncoderLayer>,
        weight_bits: u32,
    ) -> Self {
        Self {
            config,
            word_embeddings,
            position_embeddings,
            segment_embeddings,
            embedding_gamma,
            embedding_beta,
            classifier_weight,
            classifier_bias,
            embedding_out_scale,
            layers,
            weight_bits,
        }
    }

    /// The model's seven float tensors (embedding tables, embedding
    /// layer-norm parameters, classifier weight and bias), as shared
    /// handles in a fixed order. Used by loaders for content-hash dedup
    /// accounting.
    pub fn shared_float_tensors(&self) -> [&Arc<Tensor>; 7] {
        [
            &self.word_embeddings,
            &self.position_embeddings,
            &self.segment_embeddings,
            &self.embedding_gamma,
            &self.embedding_beta,
            &self.classifier_weight,
            &self.classifier_bias,
        ]
    }

    /// Bytes of weight storage currently resident for this model: the seven
    /// float tensors (each counted once per model, even when the `Arc` is
    /// shared with another model — cross-model sharing is accounted at the
    /// registry level via [`IntBertModel::shared_float_tensors`]) plus the
    /// integer storage of every encoder layer, whose GEMM panels count
    /// from the first forward pass that builds them (see
    /// [`IntLinear::resident_bytes`]).
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
    // fqlint::allow(float-escape): scale-metadata accessor for artifact
    // serialization.
    pub fn embedding_out_scale(&self) -> f32 {
        self.embedding_out_scale
    }

    /// Word-embedding table `[vocab, hidden]` (float, CPU-side).
    pub fn word_embeddings(&self) -> &Tensor {
        &self.word_embeddings
    }

    /// Positional-embedding table `[max_len, hidden]`.
    pub fn position_embeddings(&self) -> &Tensor {
        &self.position_embeddings
    }

    /// Segment-embedding table `[type_vocab, hidden]`.
    pub fn segment_embeddings(&self) -> &Tensor {
        &self.segment_embeddings
    }

    /// Gamma of the embedding layer norm.
    pub fn embedding_gamma(&self) -> &Tensor {
        &self.embedding_gamma
    }

    /// Beta of the embedding layer norm.
    pub fn embedding_beta(&self) -> &Tensor {
        &self.embedding_beta
    }

    /// Classifier weight `[hidden, classes]` (float, CPU-side).
    pub fn classifier_weight(&self) -> &Tensor {
        &self.classifier_weight
    }

    /// Classifier bias `[classes]`.
    pub fn classifier_bias(&self) -> &Tensor {
        &self.classifier_bias
    }

    /// Computes the float (CPU-side) embeddings and quantizes them to int8
    /// codes for the encoder.
    ///
    /// # Errors
    ///
    /// Returns an error for empty or overlong sequences or out-of-vocabulary
    /// ids.
    // fqlint::allow(float-escape): the float→int8 entry point — embeddings
    // run in float per the paper, then quantize once for the encoder.
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
            for d in 0..hidden {
                emb.row_mut(i)[d] = self.word_embeddings.row(tok)[d]
                    + self.position_embeddings.row(i)[d]
                    + self.segment_embeddings.row(seg)[d];
            }
        }
        let normed = emb.layer_norm(
            &self.embedding_gamma,
            &self.embedding_beta,
            self.config.layer_norm_eps,
        )?;
        let data: Vec<i8> = normed
            .as_slice()
            .iter()
            .map(|&v| (v * self.embedding_out_scale).round().clamp(-127.0, 127.0) as i8)
            .collect();
        Ok(IntTensor::from_vec(data, &[seq, hidden])?)
    }

    /// Runs the full integer encoder and float classifier, returning the
    /// class logits.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid inputs.
    // fqlint::allow(float-escape): the int8→float exit point — dequantizes
    // the [CLS] row once for the float classifier, per the paper.
    pub fn forward_logits(&self, token_ids: &[usize], segment_ids: &[usize]) -> Result<Vec<f32>> {
        let mut hidden = self.embed(token_ids, segment_ids)?;
        for layer in &self.layers {
            hidden = layer.forward(&hidden)?;
        }
        let out_scale = self
            .layers
            .last()
            .map(|l| l.output_scale())
            .unwrap_or(self.embedding_out_scale);
        // CPU-side classifier on the dequantized [CLS] representation.
        let cls: Vec<f32> = hidden
            .row(0)
            .iter()
            .map(|&c| c as f32 / out_scale)
            .collect();
        let cls = Tensor::from_vec(cls, &[1, self.config.hidden])?;
        let logits = cls
            .matmul(&self.classifier_weight)?
            .add_bias(&self.classifier_bias)?;
        Ok(logits.into_vec())
    }

    /// Runs the integer encoder over a batch of encoded examples at once,
    /// returning per-example class logits.
    ///
    /// Sequences are trimmed to their attention mask, packed row-wise into
    /// one matrix and pushed through [`IntEncoderLayer::forward_batch`], so
    /// every linear projection runs as a single integer GEMM over the whole
    /// batch. Logits are bit-identical to running
    /// [`IntBertModel::forward_logits`] example by example.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid inputs, including examples whose
    /// attention mask is all padding — a zero-length sequence has no tokens
    /// to attend over (empty batch is fine and returns an empty vector).
    // fqlint::allow(float-escape): returns float logits from the classifier
    // exit point; the encoder pass underneath is integer-only.
    pub fn logits_batch(&self, examples: &[fqbert_nlp::Example]) -> Result<Vec<Vec<f32>>> {
        self.logits_batch_with_scratch(examples, &mut GemmScratch::new())
    }

    /// As [`IntBertModel::logits_batch`], with a caller-owned GEMM scratch
    /// buffer — the shard entry point of the parallel runtime, where each
    /// worker thread keeps one scratch alive across every batch shard it
    /// serves instead of allocating a fresh one per call. Bit-identical to
    /// [`IntBertModel::logits_batch`] (the scratch holds no numeric state,
    /// only packing capacity).
    ///
    /// # Errors
    ///
    /// As for [`IntBertModel::logits_batch`].
    // fqlint::allow(float-escape): batched embedding entry and classifier
    // exit — the same two float boundaries as the single-sequence path.
    pub fn logits_batch_with_scratch(
        &self,
        examples: &[fqbert_nlp::Example],
        scratch: &mut GemmScratch,
    ) -> Result<Vec<Vec<f32>>> {
        if examples.is_empty() {
            return Ok(Vec::new());
        }
        let hidden = self.config.hidden;
        let mut seq_lens = Vec::with_capacity(examples.len());
        for (i, ex) in examples.iter().enumerate() {
            let real_len = real_length(ex);
            if real_len == 0 {
                return Err(FqBertError::InvalidArgument(format!(
                    "example {i} has an all-padding attention mask \
                     (zero-length sequence)"
                )));
            }
            seq_lens.push(real_len);
        }
        let total: usize = seq_lens.iter().sum();

        // The hidden state ping-pongs between two arena buffers; the eight
        // layer intermediates are shared by every layer.
        let GemmScratch { pack, attn, arena } = scratch;
        let mut sizes = [0usize; 10];
        sizes[..2].fill(total * hidden);
        for layer in &self.layers {
            for (size, need) in sizes[2..].iter_mut().zip(layer.buffer_sizes(total)) {
                *size = need.max(*size);
            }
        }
        let [mut hidden_states, mut next, mut buffers @ ..] = arena.slices(sizes);
        let mut start = 0usize;
        for (ex, &len) in examples.iter().zip(&seq_lens) {
            let emb = self.embed(&ex.token_ids[..len], &ex.segment_ids[..len])?;
            hidden_states[start * hidden..][..len * hidden].copy_from_slice(emb.as_slice());
            start += len;
        }
        for layer in &self.layers {
            layer.forward_rows(hidden_states, &seq_lens, pack, attn, &mut buffers, next)?;
            std::mem::swap(&mut hidden_states, &mut next);
        }
        let out_scale = self
            .layers
            .last()
            .map(|l| l.output_scale())
            .unwrap_or(self.embedding_out_scale);

        // CPU-side classifier over the [CLS] row of every sequence.
        let mut logits = Vec::with_capacity(examples.len());
        let mut start = 0usize;
        for &seq in &seq_lens {
            let cls: Vec<f32> = hidden_states[start * hidden..][..hidden]
                .iter()
                .map(|&c| c as f32 / out_scale)
                .collect();
            let cls = Tensor::from_vec(cls, &[1, hidden])?;
            let row = cls
                .matmul(&self.classifier_weight)?
                .add_bias(&self.classifier_bias)?;
            logits.push(row.into_vec());
            start += seq;
        }
        Ok(logits)
    }

    /// Predicts the class of one encoded example.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid inputs.
    pub fn predict(&self, example: &fqbert_nlp::Example) -> Result<usize> {
        let real_len = real_length(example);
        let logits = self.forward_logits(
            &example.token_ids[..real_len],
            &example.segment_ids[..real_len],
        )?;
        Ok(argmax_slice(&logits))
    }

    /// Predicts classes for a batch of encoded examples via
    /// [`IntBertModel::logits_batch`].
    ///
    /// # Errors
    ///
    /// Returns an error for invalid inputs.
    pub fn predict_batch(&self, examples: &[fqbert_nlp::Example]) -> Result<Vec<usize>> {
        Ok(self
            .logits_batch(examples)?
            .iter()
            .map(|l| argmax_slice(l))
            .collect())
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

#[cfg(test)]
mod tests {
    use super::*;
    use fqbert_tensor::RngSource;

    #[test]
    fn int_linear_matches_float_reference() {
        let mut rng = RngSource::seed_from_u64(1);
        let weight = rng.normal_tensor(&[16, 8], 0.0, 0.3);
        let bias = rng.normal_tensor(&[8], 0.0, 0.1);
        let x_f = rng.normal_tensor(&[4, 16], 0.0, 1.0);

        let in_scale = 127.0 / x_f.abs_max().unwrap();
        let float_out = x_f.matmul(&weight).unwrap().add_bias(&bias).unwrap();
        let out_scale = 127.0 / float_out.abs_max().unwrap();

        let layer = IntLinear::from_float(&weight, &bias, 8, None, in_scale, out_scale).unwrap();
        let x_q = IntTensor::from_vec(
            x_f.as_slice()
                .iter()
                .map(|&v| (v * in_scale).round() as i8)
                .collect(),
            &[4, 16],
        )
        .unwrap();
        let out_q = layer.forward(&x_q).unwrap();
        let back = out_q.dequantize(1.0 / out_scale);
        assert!(
            back.allclose(&float_out, 0.08),
            "int8 linear deviates from float reference"
        );
    }

    #[test]
    fn int_linear_four_bit_weights_are_coarser_but_close() {
        let mut rng = RngSource::seed_from_u64(2);
        let weight = rng.normal_tensor(&[32, 16], 0.0, 0.2);
        let bias = Tensor::zeros(&[16]);
        let x_f = rng.normal_tensor(&[2, 32], 0.0, 1.0);
        let in_scale = 127.0 / x_f.abs_max().unwrap();
        let float_out = x_f.matmul(&weight).unwrap();
        let out_scale = 127.0 / float_out.abs_max().unwrap().max(1e-6);

        let l8 = IntLinear::from_float(&weight, &bias, 8, None, in_scale, out_scale).unwrap();
        let l4 = IntLinear::from_float(&weight, &bias, 4, None, in_scale, out_scale).unwrap();
        let x_q = IntTensor::from_vec(
            x_f.as_slice()
                .iter()
                .map(|&v| (v * in_scale).round() as i8)
                .collect(),
            &[2, 32],
        )
        .unwrap();
        let e8 = l8
            .forward(&x_q)
            .unwrap()
            .dequantize(1.0 / out_scale)
            .mse(&float_out)
            .unwrap();
        let e4 = l4
            .forward(&x_q)
            .unwrap()
            .dequantize(1.0 / out_scale)
            .mse(&float_out)
            .unwrap();
        assert!(
            e4 >= e8,
            "4-bit error {e4} should not beat 8-bit error {e8}"
        );
        assert!(e4 < 0.05, "4-bit error {e4} unexpectedly large");
    }

    #[test]
    fn gelu_lut_matches_float_gelu() {
        let lut = IntGelu::new(32.0, 32.0);
        for code in -127i8..=127 {
            let x = code as f32 / 32.0;
            let expected = gelu_scalar(x);
            let got = lut.apply(code) as f32 / 32.0;
            assert!(
                (got - expected).abs() < 0.05,
                "gelu({x}): {got} vs {expected}"
            );
        }
    }

    #[test]
    fn gelu_lut_zero_is_zero_and_monotone_positive() {
        let lut = IntGelu::new(16.0, 16.0);
        assert_eq!(lut.apply(0), 0);
        let mut prev = lut.apply(0);
        for code in 1..=127i8 {
            let cur = lut.apply(code);
            assert!(cur >= prev);
            prev = cur;
        }
    }

    #[test]
    fn blocked_forward_is_bit_identical_to_naive_reference() {
        let mut rng = RngSource::seed_from_u64(7);
        // Deliberately non-multiple-of-block shapes, both bit-widths.
        for &(inf, outf, rows, bits) in &[(19usize, 23usize, 5usize, 8u32), (33, 17, 9, 4)] {
            let weight = rng.normal_tensor(&[inf, outf], 0.0, 0.3);
            let bias = rng.normal_tensor(&[outf], 0.0, 0.2);
            let layer = IntLinear::from_float(&weight, &bias, bits, None, 9.0, 11.0).unwrap();
            let x = IntTensor::from_vec(
                (0..rows * inf)
                    .map(|i| ((i * 37 + 11) % 255) as i8)
                    .collect(),
                &[rows, inf],
            )
            .unwrap();
            let blocked = layer.forward(&x).unwrap();
            let naive = layer.forward_naive(&x).unwrap();
            assert_eq!(blocked, naive, "({inf},{outf},{rows},{bits})");

            let mut scratch = fqbert_tensor::gemm::GemmScratch::new();
            assert_eq!(layer.forward_with_scratch(&x, &mut scratch).unwrap(), naive);
        }
    }

    const TEST_SCALES: LayerScales = LayerScales {
        input: 16.0,
        q: 16.0,
        k: 16.0,
        v: 16.0,
        scores: 8.0,
        attn_output: 16.0,
        layer_norm: 16.0,
        ffn_hidden: 16.0,
        ffn_output: 16.0,
    };

    /// A hidden-8 layer built by the float converter with the given head
    /// geometry.
    fn converted(heads: usize, head_dim: usize) -> Result<IntEncoderLayer> {
        let mut rng = RngSource::seed_from_u64(3);
        let params = fqbert_bert::layers::EncoderLayerParams::new(&mut rng, 8, 16);
        IntEncoderLayer::from_float(&params, heads, head_dim, 8, false, &TEST_SCALES, 1e-5)
    }

    /// The parts of a sound 2×4 layer, reassembled with another geometry.
    fn reassembled(heads: usize, head_dim: usize) -> Result<IntEncoderLayer> {
        let l = converted(2, 4).unwrap();
        IntEncoderLayer::from_quantized_parts(
            l.query.clone(),
            l.key.clone(),
            l.value.clone(),
            l.attn_output.clone(),
            l.ffn1.clone(),
            l.ffn2.clone(),
            heads,
            head_dim,
            &TEST_SCALES,
            l.attn_layer_norm.clone(),
            l.ffn_layer_norm.clone(),
        )
    }

    fn assert_geometry_rejected(result: Result<IntEncoderLayer>) {
        match result {
            Err(FqBertError::InvalidArgument(msg)) => {
                assert!(
                    msg.contains("heads of dimension"),
                    "unexpected message: {msg}"
                )
            }
            other => panic!("expected InvalidArgument, got {other:?}"),
        }
    }

    #[test]
    fn zero_length_sequence_is_rejected_not_panicking() {
        let layer = converted(2, 4).unwrap();
        let x = IntTensor::<i8>::from_vec(vec![1; 3 * 8], &[3, 8]).unwrap();
        let err = layer.forward_batch(&x, &[3, 0]).unwrap_err();
        match err {
            FqBertError::InvalidArgument(msg) => {
                assert!(msg.contains("zero-length"), "unexpected message: {msg}")
            }
            other => panic!("expected InvalidArgument, got {other:?}"),
        }
    }

    #[test]
    fn zero_heads_are_rejected_not_dividing_by_zero() {
        assert_geometry_rejected(converted(0, 4));
        assert_geometry_rejected(reassembled(0, 4));
        assert_geometry_rejected(reassembled(2, 0));
    }

    #[test]
    fn heads_that_do_not_tile_the_hidden_width_are_rejected() {
        // 3 heads of 8 / 3 = 2 would leave context columns 6..8 unwritten.
        assert_geometry_rejected(converted(3, 2));
        assert_geometry_rejected(reassembled(3, 2));
    }

    #[test]
    fn head_dim_disagreeing_with_the_projection_width_is_rejected() {
        // 2 heads over 8 columns are 4 wide; 2 would scale scores by √2.
        assert_geometry_rejected(converted(2, 2));
        assert_geometry_rejected(reassembled(2, 8));
        assert_eq!(reassembled(2, 4).unwrap(), converted(2, 4).unwrap());
        assert_eq!(reassembled(4, 2).unwrap().heads(), 4);
    }

    #[test]
    fn projections_of_different_widths_are_rejected() {
        let l = converted(2, 4).unwrap();
        let mut rng = RngSource::seed_from_u64(9);
        let narrow = IntLinear::from_float(
            &rng.normal_tensor(&[8, 6], 0.0, 0.3),
            &rng.normal_tensor(&[6], 0.0, 0.1),
            8,
            None,
            16.0,
            16.0,
        )
        .unwrap();
        assert_geometry_rejected(IntEncoderLayer::from_quantized_parts(
            l.query.clone(),
            narrow,
            l.value.clone(),
            l.attn_output.clone(),
            l.ffn1.clone(),
            l.ffn2.clone(),
            2,
            4,
            &TEST_SCALES,
            l.attn_layer_norm.clone(),
            l.ffn_layer_norm.clone(),
        ));
    }
}
