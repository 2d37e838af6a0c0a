//! Dense tensor substrate for the FQ-BERT reproduction.
//!
//! This crate provides the two storage types everything else is built on:
//!
//! * [`Tensor`] — a dense, row-major `f32` tensor with the linear-algebra and
//!   element-wise operations needed by a transformer (matmul, softmax,
//!   layer-norm statistics, GELU, …).
//! * [`IntTensor`] — a dense integer tensor generic over the element type,
//!   used by the integer-only inference engine and the accelerator simulator.
//!
//! The implementation is deliberately simple (no views with strides beyond
//! row-major contiguity) so that the numerical behaviour is easy to audit;
//! the accelerator simulator depends on bit-exact integer arithmetic rather
//! than on raw speed. The one performance-tuned exception is the [`gemm`]
//! module: a blocked int8 GEMM with packed weights, a fused requantize
//! epilogue, and runtime-dispatched SIMD micro-kernels
//! (VNNI/AVX2/SSE2/NEON/scalar, selectable via `FQBERT_KERNEL` — see
//! [`gemm::kernels`]) — every path proven bit-identical to the naive
//! [`IntTensor::matmul_i32`] reduction order. See `README.md` in this crate
//! for the panel layouts and how to add a kernel.
//!
//! # Examples
//!
//! ```
//! use fqbert_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), a.as_slice());
//! # Ok::<(), fqbert_tensor::TensorError>(())
//! ```

pub mod error;
pub mod gemm;
pub mod init;
pub mod itensor;
pub mod ops;
pub mod pack4;
pub mod shape;
pub mod tensor;

pub use error::TensorError;
pub use gemm::{GemmScratch, PackedWeights};
pub use init::{xavier_uniform, RngSource};
pub use itensor::IntTensor;
pub use pack4::{pack_i4, unpack_i4};
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenience result alias used across the tensor crate.
pub type Result<T> = std::result::Result<T, TensorError>;
