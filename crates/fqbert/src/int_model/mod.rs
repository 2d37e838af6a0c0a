//! The integer-only FQ-BERT inference engine.
//!
//! The paper partitions the system in §III-A: the embedding lookup and the
//! small task head run "on the CPU", while the whole encoder stack — every
//! intermediate result included — runs on integers only, the part the FPGA
//! accelerator executes. FQ-BERT quantizes every parameter, so here the
//! embedding is integer too: from token id to the `[CLS]` codes a request
//! touches no float, and only the `hidden × classes` task head
//! dequantizes. The files of
//! this module draw that line:
//!
//! * `encoder.rs` — **the accelerator side.** [`IntLinear`], [`IntGelu`],
//!   [`IntEncoderLayer`] and everything that runs between codes in and
//!   codes out. The forward pass reads no scale at all: the structs hold
//!   scale *types* ([`LayerScales`]) as metadata, never a float.
//! * `embedding.rs` — **the embedding, in integers.** [`IntEmbedding`]:
//!   each token's row of the 8-bit word table and of the 8-bit
//!   position×segment table, gathered into two scratch buffers, then one
//!   call of the embedding's folded `Add & LN` over the whole batch — the
//!   encoder's own block, on the selected kernel row.
//! * `assemble.rs` — **conversion and load time, float by nature.** The
//!   constructors that fold float weights and calibrated scales, once,
//!   into codes, requantizers, lookup tables and `Add & LN` blocks (and
//!   refuse an invalid scale there), the scale structs and their accessors.
//! * `host.rs` — [`IntBertModel`], its [`HostSide`] (the embedding and the
//!   float classifier head), the head itself and the two logits entry
//!   points.
//!
//! fqlint's `float-escape` rule covers `encoder.rs` and `embedding.rs`,
//! neither with a suppression, so a float on the request path before the
//! head is a finding with no precedent near it.
//!
//! What the encoder computes:
//!
//! * weights are int4/int8 codes, activations int8 codes, biases int32;
//! * every matrix multiply accumulates in int32 and is requantized back to
//!   int8 with a fixed-point [`fqbert_quant::Requantizer`] (Eq. 5);
//! * attention is fused per `MR`-row block of queries on the GEMM tile
//!   kernels ([`fqbert_tensor::gemm::attention`]): score tile → requantize →
//!   the 256-entry [`fqbert_quant::SoftmaxLut`] with max-subtraction, as
//!   the `softmax` entry of the selected kernel row → context tile →
//!   requantize, so the `seq × seq` score matrix never exists;
//! * `Add & LN` applies the fixed-point [`fqbert_quant::AddLayerNorm`] its
//!   [`fqbert_quant::QuantizedLayerNorm`] was folded into at assembly: raw
//!   Q16 integers handed, like a GEMM's requantizer, to the `add_norm`
//!   entry of the selected kernel row (`fqbert_tensor::gemm::kernels` —
//!   eight elements per step on AVX2, stages 1 and 2 as one pass of integer
//!   code moments on AVX-512, bit-identical to the scalar row);
//! * GELU uses a 256-entry int8→int8 lookup table (the paper fuses it with
//!   FFN1; a table is the standard HLS realisation), applied in place over
//!   FFN1's output by the `table` entry of the selected kernel row — 64
//!   codes per two `vpermi2b` on AVX-512, bit-identical to the scalar row's
//!   byte loop. (Fusing it into FFN1's requantize was measured slower than
//!   the two passes.)
//!
//! The engine is the functional reference executed by the accelerator
//! simulator in `fqbert-accel`.
//!
//! Every module has one way in, and it takes the caller's
//! [`fqbert_tensor::gemm::GemmScratch`]: a layer keeps its intermediates in
//! buffers the scratch owns (GELU in place, `Add & LN`'s operand sums in
//! the scratch's one `i32` row), and the model ping-pongs the
//! hidden state between two such buffers across layers. The embedding
//! gathers its two operands into two more of them and writes its codes
//! straight into the first, and the classifier writes each sequence's
//! logits straight into the row it returns — so a forward pass on a shape
//! the scratch has seen allocates only its outer `Vec`, one logits row per
//! sequence and the list of sequence lengths.

mod assemble;
mod embedding;
mod encoder;
mod host;
#[cfg(test)]
mod tests;

pub use assemble::LayerScales;
pub use embedding::IntEmbedding;
pub use encoder::{IntEncoderLayer, IntGelu, IntLinear};
pub use host::{HostSide, IntBertModel};
