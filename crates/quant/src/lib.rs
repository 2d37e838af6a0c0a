//! Quantization primitives for FQ-BERT (paper §II).
//!
//! The paper quantizes *everything*: weights (4-bit), activations (8-bit),
//! biases (32-bit integers), scale factors, the softmax numerator and output,
//! layer-normalization parameters, and every intermediate result. This crate
//! implements each of those mechanisms as a standalone, testable component:
//!
//! * [`scheme`] — symmetric linear quantization (Eq. 1–3): clamping, scale
//!   computation for weights and activations, quantize/dequantize.
//! * [`observer`] — min/max and exponential-moving-average activation
//!   observers used to calibrate activation scales during fine-tuning.
//! * [`clip`] — clip-threshold tuning (the CLIP configuration of Fig. 3),
//!   implemented as an MSE-optimal grid search.
//! * [`bias`] — 32-bit integer bias quantization with `s_bias = s_a·s_w`
//!   (Eq. 4).
//! * [`requant`] — integer-only requantization of the int32 accumulator back
//!   to int8 using a fixed-point multiplier (Eq. 5).
//! * [`fixedpoint`] — the signed fixed-point value type shared by the softmax
//!   and layer-norm cores.
//! * [`softmax_lut`] — the 256-entry lookup-table softmax with
//!   max-subtraction (paper §III-B, Softmax Core).
//! * [`layernorm_q`] — integer/fixed-point layer normalization (paper §III-B,
//!   LN Core): the folded block, applied by the `Add & LN` kernels of
//!   `fqbert_tensor::gemm::kernels`.
//! * [`fold`] — where the four above get their constants from real numbers.
//! * [`bitwidth`] — the per-part bit-width configuration of FQ-BERT.
//!
//! # Fold once, apply in integers
//!
//! The paper keeps the scale factors in the accelerator's parameter buffer
//! as fixed-point constants (§III-A/B): a real number is seen once, when
//! the constant is made, never while the datapath runs. The crate draws
//! that line with files, the way `fqbert-core`'s `int_model/` does:
//!
//! * **Integer side** — [`requant`], [`softmax_lut`], [`layernorm_q`] and
//!   [`fixedpoint`] hold the values a forward pass is *applied* with
//!   ([`Requantizer`], [`SoftmaxLut`], [`AddLayerNorm`], [`Fixed`]'s
//!   arithmetic and [`fixedpoint::fixed_inv_sqrt`]). Outside their
//!   `#[cfg(test)]` modules they contain no float type, literal or method;
//!   fqlint's `float-escape` rule covers all four and none carries a
//!   suppression. [`AddLayerNorm`] stores raw Q16 integers
//!   (`fqbert_tensor::gemm::AddNormParams`) and its `apply` dispatches to
//!   the selected kernel row; the three stages' arithmetic and the one
//!   Newton inverse square root ([`fixedpoint::fixed_inv_sqrt`] wraps it)
//!   live with those kernels, which the rule covers too. [`SoftmaxLut`]
//!   likewise stores a `fqbert_tensor::gemm::SoftmaxParams`; the row the
//!   engine runs is the `softmax` entry of the selected kernel row, and
//!   what stays here is the table and the per-element-division oracle.
//! * **Float side** — [`fold`] holds every constructor that takes a real
//!   number ([`Requantizer::from_scale`], [`SoftmaxLut::new`],
//!   [`QuantizedLayerNorm`] with its [`QuantizedLayerNorm::fold`] and the
//!   one-row oracle [`QuantizedLayerNorm::apply_residual`], which folds and
//!   then runs the scalar kernel row whatever kernel is selected,
//!   [`Fixed::from_f32`] / [`Fixed::to_f32`]); the rule does not cover it.
//!   So are the calibration-time modules ([`scheme`], [`observer`],
//!   [`clip`], [`bias`]), which no forward pass executes.
//!
//! # Examples
//!
//! ```
//! use fqbert_quant::QuantParams;
//! use fqbert_tensor::Tensor;
//!
//! let w = Tensor::from_vec(vec![0.5, -1.0, 0.25, 0.75], &[2, 2])?;
//! let params = QuantParams::for_weights(&w, 4, None)?;
//! let q = params.quantize_tensor_i8(&w);
//! let back = q.dequantize(1.0 / params.scale());
//! assert!(w.allclose(&back, 0.5 / params.scale() + 1e-6));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod bias;
pub mod bitwidth;
pub mod clip;
pub mod error;
pub mod fixedpoint;
pub mod fold;
pub mod layernorm_q;
pub mod observer;
pub mod requant;
pub mod scheme;
pub mod softmax_lut;

pub use bias::quantize_bias;
pub use bitwidth::{LayerBits, PartBits, QuantConfig, LAYER_SITES, LAYER_SITE_NAMES};
pub use clip::tune_clip_threshold;
pub use error::QuantError;
pub use fixedpoint::Fixed;
pub use fold::QuantizedLayerNorm;
pub use layernorm_q::AddLayerNorm;
pub use observer::{EmaObserver, MinMaxObserver};
pub use requant::Requantizer;
pub use scheme::QuantParams;
pub use softmax_lut::SoftmaxLut;

/// Convenience result alias for quantization operations.
pub type Result<T> = std::result::Result<T, QuantError>;
