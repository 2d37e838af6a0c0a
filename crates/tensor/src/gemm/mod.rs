//! Blocked, cache-friendly int8 GEMM with packed weights, a fused epilogue
//! and runtime-dispatched SIMD micro-kernels — the software hot path behind
//! every integer linear projection (Q/K/V, attention output, FFN1/FFN2).
//!
//! # Packed layout
//!
//! A weight matrix `W` of shape `[k, n]` (row-major `[in, out]`, as stored by
//! `IntLinear`) is packed **once**, at layer construction or artifact-load
//! time, into column panels of width [`NR`]. Within a panel the reduction
//! dimension is walked **two steps at a time** and the two weights of each
//! column's k-pair sit adjacent in memory:
//!
//! ```text
//! panel p, k-pair pp  (columns p·NR .. p·NR+NR, zero-padded past n and
//! for the odd-k tail):
//!     wide[p·k_pairs + pp][2j + t] = W[2pp + t][p·NR + j]      (t = 0, 1)
//! ```
//!
//! where `k_pairs = ceil(k / 2)`. One `[i16; 2·NR]` row of the panel is
//! exactly what one dispatch step of the micro-kernel consumes: the pair
//! `(W[2pp][c], W[2pp+1][c])` forms the 32-bit lane that x86 `pmaddwd`
//! (`_mm256_madd_epi16`) multiplies against a broadcast activation pair.
//! Weights are stored pre-widened to `i16` — the kernels' multiply operand
//! width — so no sign-extension happens in the hot loop.
//!
//! Low-bit weights (4-bit and 2-bit codes, `[-8, 7]`) are instead packed
//! with [`PackedWeights::pack_nibble`] into **biased-nibble k-quad panels**
//! that the int4 kernels consume as *bytes*, never widening a weight — the
//! CPU image of the paper's 8-bit × 4-bit multiplier. The reduction
//! dimension is walked **four steps at a time**; per panel and k-quad `q`
//! there are two 32-byte half rows (`h = 0, 1`, [`QUAD_B`]` = 64` bytes
//! together), and with `u(w) = w + 8 ∈ [0, 15]`:
//!
//! ```text
//!     nib[p·k_quads + q][32h + 4j + t] = u(W[4q+t][c0 + 16h + j])
//!                                      | u(W[4q+t][c0 + 16h + 8 + j]) << 4
//!     (c0 = p·NR,  j = 0..8,  t = 0..4,  k_quads = ceil(k / 4))
//! ```
//!
//! The whole decode of a half row is `and 0x0F` for columns `16h + 0..8`
//! and `srli 4` + `and 0x0F` for columns `16h + 8..16` — four vector
//! operations per 64 weights — and each 32-bit lane of a decoded vector is
//! one column's `(k, k+1, k+2, k+3)` as unsigned bytes: exactly the operand
//! shape of `vpdpbusd` and of `vpmaddubsw` → `vpmaddwd(ones)`. Half a byte
//! per weight is a quarter of the wide panel's resident bytes. Bytes past
//! `n` and past `k` are zero. The panel bytes do not depend on the selected
//! kernel: every kernel row reads this one layout.
//!
//! Both layouts can also be built **directly from the v2 artifact byte
//! stream** without materialising an intermediate `IntTensor`:
//! [`PackedWeights::from_v2_nibble_bytes`] gathers nibble panels straight
//! from the `pack_i4` encoding (element `e = kk·n + c` lives in nibble
//! `e % 2` of byte `e / 2`; biasing a two's-complement nibble is `^ 8`), and [`PackedWeights::pack_wide_from_bytes`]
//! widens raw two's-complement `i8` code bytes in place. This is how every
//! quantized linear builds its panels: w4 weights go from artifact bytes to
//! compute-ready panels without ever round-tripping through unpacked `i8`
//! codes or `i16` widening.
//!
//! Activations are packed per call into row blocks of height [`MR`] in the
//! layout of the panels they meet: against wide panels the same k-pair
//! interleave widened to `i16` (`a[pp][2r + t] = X[r0 + r][2pp + t]`),
//! against nibble panels a **byte block** of k-quads
//! (`a[q][4r + t] = X[r0 + r][4q + t]`, [`QUAD_A`] bytes per k-quad) whose
//! row `r` is the signed-byte operand of the same instructions. Either
//! lives inside a caller-provided [`GemmScratch`] that is reused across
//! layers instead of re-allocated per projection. Because every panel row
//! is a fixed-size array and missing rows and k-tails are zero-padded at
//! pack time, the micro-kernels iterate full tiles only — no partial-panel
//! or remainder special cases, and no fallible slice chunking in the hot
//! loop.
//!
//! The `+8` bias is taken out again without touching the kernels or the
//! epilogue: while packing a byte block the driver sums each row, and
//! starts row `r` of every accumulator tile of that block at
//! `−8 · Σ_k X[r0 + r][k]` instead of zero, so that a nibble kernel adding
//! `Σ a·(w + 8)` leaves `Σ a·w`.
//!
//! # Strided views and the attention panels
//!
//! Attention multiplies activations by activations, so its "weight" side
//! cannot be packed ahead of time. The [`attention`] module packs one
//! head's `Kᵀ` and `V` per call into the same wide panels, reading the head
//! in place through a [`StridedView`] — a `rows × cols` window of a
//! row-major matrix addressed by row stride, so the `[seq, head_dim]` block
//! of head `h` inside the packed `[Σ seq, heads · head_dim]` projection
//! output needs no copy:
//!
//! ```text
//! Kᵀ (k = head_dim, n = seq):  kt[p·k_pairs + pp][2j + t] = K[p·NR + j][2pp + t]
//! V  (k = seq, n = head_dim):   v[p·k_pairs + pp][2j + t] = V[2pp + t][p·NR + j]
//! ```
//!
//! A `Kᵀ` k-pair is two adjacent bytes of one K row. The activation packer
//! reads through the same view type (a dense matrix is the view whose
//! stride equals its width), and the softmax probabilities — `u8` codes in
//! `[0, 255]`, one contiguous row per query row out of the `softmax`
//! kernel — are interleaved into the activation-block layout row by row,
//! so both attention products run on the unchanged `wide` tile kernels and
//! the requantize kernels (with a zero bias). The `amx` row lays the same
//! head out as byte tiles instead (see [AMX](#amx)).
//! [`GemmScratch`] owns those panels and tiles, the score and probability
//! blocks, in its [`ByteArena`] every `i8` intermediate of an encoder layer
//! and, in its [`AddNormRow`], the one row of `i32` operand sums `Add & LN`
//! works in: its four parts are separate public fields so a caller can
//! borrow them disjointly.
//!
//! # Add & LN
//!
//! The stage between the GEMMs that is not a GEMM has the same shape as
//! one: [`AddNormParams`] carries a folded `Add & LN` block as plain Q16
//! integers (the grid step of each operand's code, `gamma`, `beta`, `eps`,
//! the output scale) the way [`RequantParams`] carries a requantizer, and
//! the fourth entry of a kernel row ([`kernels::AddNormKernel`]) runs the
//! accelerator's three LN stages over whole matrices — sum and mean,
//! centre and variance, then `gamma · c / std + beta` requantized — with
//! the Newton inverse square root once per row. The scalar row is the
//! reference and is exact for every parameter set (saturating multiplies
//! and adds, an `i128` variance sum); a SIMD row is bit-identical to it
//! inside [`AddNormParams::simd_exact`], which [`AddNormParams::kernel`]
//! checks. There the `avx512` row runs stages 1 and 2 as one pass: the sum
//! row, its extremes and the integer moments `Σa`, `Σb`, `Σa²`, `Σab`,
//! `Σb²` of the codes, from which the mean and `Σ(s − mean)²` follow
//! exactly in `i128`.
//!
//! # Table lookups
//!
//! GELU is a 256-entry `i8 → i8` table, and the sixth entry of a kernel
//! row ([`kernels::TableKernel`]) applies one in place to a run of codes:
//! the scalar row indexes it per byte, the `avx512` row looks up 64 codes
//! per step with two `vpermi2b` and a blend, as its softmax does.
//!
//! # Softmax
//!
//! The other stage between the GEMMs has the same shape again:
//! [`SoftmaxParams`] carries the softmax of an attention head as plain
//! integers (the 256-entry exponential table and the output level count),
//! and the fifth entry of a kernel row ([`kernels::SoftmaxKernel`]) turns
//! one row of `i8` scores into one contiguous row of `u8` probabilities —
//! the row maximum, a table pass for the numerators and their sum, one
//! `2⁴⁸ / denom` reciprocal and a multiply-shift per element. The scalar
//! row is the reference, itself bit-identical to the division per element
//! the accelerator's Softmax Core does; a SIMD row evaluates the same
//! integer expressions in `u64` lanes, so there is no envelope.
//!
//! # Kernel dispatch
//!
//! The kernel row is selected once per process by the [`kernels`] module:
//! on x86_64 an AMX row (the AVX-512 row with every projection and both
//! attention products on AMX tiles, below), an AVX-512 row (both tiles on
//! `zmm` `vpdpbusd` / `vpdpwssd`, an `i32`-lane `zmm` requantize, a
//! one-pass-moment `Add & LN`, `vpermi2b` softmax and table rows), a VNNI
//! row (the same two fused dot products on 256-bit registers, everything
//! else shared with AVX2), an AVX2 row (`_mm256_madd_epi16` wide tiles,
//! `_mm256_maddubs_epi16` int4 tiles, `vpmulld` / `vpmuldq` `Add & LN`
//! lanes, a `vpgatherdd` softmax row) and an SSE2
//! fallback, a NEON (`smlal`-shaped) path on aarch64, and a portable scalar
//! kernel that doubles as the property-test reference. Selection uses
//! `is_x86_feature_detected!` / CPUID / compile-target gating and can be
//! overridden with `FQBERT_KERNEL=scalar|sse2|avx2|vnni|avx512|amx|neon`;
//! see [`kernels::selected`].
//!
//! A row names its product engine in one entry, [`kernels::Products`]:
//! `Tiles { wide, nibble }` or `Amx`. Both engines keep one contract, so
//! `gemm_drive` and `attend_head` each validate once, build their stage
//! closures once and `match` once, per projection or head:
//!
//! * **`drive(x, m, weights, scratch, sink)`** — a projection; every
//!   accumulator row segment goes to `sink(row, c0, accs)` exactly once,
//!   `c0` a multiple of [`NR`] and `accs` its `min(NR, n − c0)` columns. The
//!   tile engine also takes the row's `wide` and `nibble` kernels and walks
//!   [`MR`]-row blocks against every panel; the AMX engine is below.
//! * **`attend(scratch, [q, k, v], probabilities, sink)`** — one head;
//!   `probabilities(accs, probs)` runs once per query row, in order, and
//!   turns its `seq` score accumulators into its `seq` probability codes,
//!   and every context segment goes to `sink` exactly once under the same
//!   rule. The tile engine also takes the `wide` kernel.
//!
//! The tile engine writes its panel loop once — start the tile, call the
//! tile kernel, hand its rows to the sink — and runs the projection and
//! both attention products through it. A unit test drives both engines of
//! every available row through this contract directly.
//!
//! # AMX
//!
//! On the `amx` row `gemm_drive` does not walk `MR × NR` tiles: it hands
//! the whole projection to `kernels::x86::amx::drive`, which runs it as
//! `tdpbssd` tile products (16 × 64 signed bytes by 16 k-quads × 16
//! columns into 16 × 16 `i32`) — the CPU's own 2-D multiplier array. Both panel layouts
//! stay what they are in memory (`resident_bytes` and the artifact do not
//! change): a panel is decoded once per call into signed-byte `B` tiles —
//! a nibble k-quad row is `and` / `srli` / `and`, two `vshufi64x2` and `− 8`
//! away from the two 16-column tiles' rows, so there is no `+8` bias and
//! no row-sum start on this row; a wide panel narrows to the same rows —
//! and the `A` tiles are loaded straight from the row-major activations
//! with stride `k`, so nothing is packed. A block is 2 × 2 `C` tiles (32
//! rows × 32 columns, one 16-row block at the end of an odd number of
//! 16-row halves), a k-step of 64 is four `tdpbssd`, and the block goes to
//! the sink row by row, panel after panel.
//!
//! `attend_head` hands a whole head, with its `probabilities` and sink, to
//! the same module's `attend`, in blocks of 32 query rows, with no byte
//! widened to `i16`:
//!
//! * **Scores** are `tdpbssd` with `Q`'s rows as the `A` tiles, read in
//!   place with the projection output's row stride wherever a whole 16 ×
//!   64-byte window lies inside the head's view (else staged zero-padded).
//!   A `B` tile is a dword transpose of 16 `K` rows: `B[q][4j + t] =
//!   K[j][4q + t]`. The block's accumulators for every key are stored with
//!   `tilestored` into a grow-only, 64-byte-aligned `i32` block, and
//!   `probabilities` runs over its whole rows.
//! * **Context** is `tdpbusd`: the softmax's contiguous `u8` rows, padded
//!   with zeros to a multiple of 64 keys, are its unsigned `A` tiles as they
//!   stand, and `V` becomes `B` tiles by a 4-row byte interleave, `B[q][4c
//!   + t] = V[4q + t][c]`.
//! * **Zero operands.** Every padded product has a zero operand: `B` rows
//!   past `head_dim` or past `seq`, and probability columns past `seq`, are
//!   zero, so an in-place `Q` tile may read the next head's bytes.
//!
//! Both drivers share the rest:
//!
//! * **Tile configuration.** Palette 1, all eight tiles 16 rows × 64 bytes
//!   (four `C`, two `A`, two `B`), loaded with `ldtilecfg` when a call
//!   starts. `tilerelease` runs when the call's tile guard drops — on every
//!   exit, a panicking sink included — so no tile state outlives a call
//!   and a thread that is not inside a projection or a head carries none.
//! * **Permission.** Linux gives a process tile data only after
//!   `arch_prctl(ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA)`; the row is
//!   available only where that raw system call succeeded, the CPU reports
//!   AMX-TILE and AMX-INT8 (CPUID leaf 7, EDX bits 24 / 25) and XCR0 has
//!   the tile state (bits 17 / 18) — checked once per process, by a pure
//!   function of those four answers that a unit test drives through every
//!   refusal. Anywhere else (another OS, a refused request, no AMX) the
//!   `avx512` row is the default, with the same output bits.
//! * **Padding.** What a projection's 16 × 64-byte tile load would read
//!   past a row or past the matrix — the k-tail of every whole 16-row half,
//!   the last ragged half — is staged zero-padded in the
//!   [`ActivationBlock`]. It must be zero, not merely finite: a padding
//!   nibble decodes to `−8`. The attention driver stages `Q`'s last halves
//!   the same way, in the [`AttentionScratch`].
//! * **Alignment.** The decoded panel, the attention tiles, the staged
//!   rows, the probability rows and the score block come out of
//!   [`LineArena`]s and the 32 × 32 `C` block is a 64-byte-aligned stack
//!   array: tile loads and stores that straddle cache lines made the sizing
//!   prototype of this driver 1.2–4× slower and unstable between runs.
//!   Activation rows are read where they are (unaligned rows cost it 2–8
//!   %); every intermediate of an encoder layer starts on a cache line
//!   because [`LineArena::slices`] aligns every slice.
//!
//! # Bit-exactness contract
//!
//! For every output element the reduction runs over `kk = 0, 1, …, k-1` in
//! ascending order, exactly like the naive [`IntTensor::matmul_i32`] triple
//! loop. The naive loop saturates the `i32` accumulator after every partial
//! product while these kernels accumulate without saturation; for `i8`
//! operands the two are nevertheless bit-identical because `|a·w| ≤ 128²`
//! bounds every partial sum by `k · 128²`, which stays inside `i32` for all
//! `k ≤` [`MAX_K`] — packing rejects larger `k`. Absent overflow, integer
//! addition is exact and associative, so the SIMD kernels' lane-parallel
//! accumulation produces the same bits as the sequential reduction. The
//! property tests in `tests/proptest_gemm.rs` pin every available kernel to
//! the naive loop across random shapes (including empty matrices,
//! non-multiple-of-block dimensions and int4/int2 nibble panels).
//!
//! The byte-operand int4 path computes `Σ a·(w + 8) − 8·Σ a`. Both terms
//! are sums of exact integer products, and even taken separately they stay
//! inside `i32` for `k ≤` [`MAX_K`] (`k · 128 · 15 + 8 · k · 128 < k ·
//! 128²`), so the identity `Σ a·(w + 8) − 8·Σ a = Σ a·w` holds bit for bit
//! in whatever order a kernel adds — and it would hold in wrapping `i32`
//! arithmetic regardless. What a kernel must not do is *saturate*:
//! `vpmaddubsw` saturates its `i16` lanes, but a lane is `u0·a0 + u1·a1`
//! with `u ≤ 15`, at most `2 · 15 · 128 = 3 840` in magnitude, so it cannot;
//! the AVX2 kernel adds at most 8 such lanes in `i16` (`8 · 3 840 =
//! 30 720 ≤ i16::MAX`; 9 would not fit) before widening to `i32`; and the
//! VNNI and AVX-512 kernels use `vpdpbusd` — and, on wide panels,
//! `vpdpwssd` — the non-saturating forms (not `vpdpbusds` / `vpdpwssds`).
//! The AMX driver multiplies the weights themselves (`tdpbssd`, which does
//! not saturate either), so its sums are the plain `Σ a·w` of the naive
//! loop. `tests/proptest_gemm.rs` drives every kernel through all-(−128)
//! and all-(+127) activations against all-(+7) and all-(−8) weights at the
//! depths that straddle the 8-k-quad boundary and the k-quad tail, and
//! `tests/amx_edges.rs` does the same around the AMX tiles' 16 rows, 64
//! reduction steps and 16 columns.
//!
//! The two attention reductions rest on the same argument with their own
//! bounds:
//!
//! * **Scores** `Q · Kᵀ` reduce over `head_dim` with `i8 × i8` products, so
//!   `head_dim · 128² ≤ i32::MAX` for `head_dim ≤` [`MAX_K`]. The scalar
//!   reference [`IntTensor::matmul_transposed_i32`] accumulates in `i64`
//!   and saturates to `i32` at the end; under this bound that saturation
//!   never fires, so the tile kernels reproduce it bit for bit — on the
//!   `amx` row `tdpbssd`, with the same non-saturating sum.
//! * **Context** `P · V` reduces over `seq` with `u8 × i8` products
//!   (`|p·v| ≤ 255 · 128 = 32 640`, which also fits the `i16` product the
//!   scalar kernel forms), so `seq · 255 · 128 ≤ i32::MAX` for `seq ≤`
//!   [`MAX_ATTN_SEQ`]` = 65 793`; the scalar reference sums the same
//!   products in `i64` without saturation. On the `amx` row this product
//!   is `tdpbusd`, which does not saturate either (AMX has no saturating
//!   form), and `P` must be its **unsigned** operand: a probability of 255
//!   read as a signed byte is −1. `tests/amx_edges.rs` pins that with a
//!   one-hot softmax, and a unit test of the driver sums `MAX_ATTN_SEQ`
//!   products of 255 × −128 on the tiles to exactly `−MAX_ATTN_SEQ · 255 ·
//!   128`.
//!
//! [`attention::AttentionScratch::attend_head`] rejects shapes beyond
//! either bound. The requantized scores are `i8` codes, so the softmax
//! lookup index `max − s` lies in `[0, 255)` and the 256-entry table's
//! clamp is dead as well.

pub mod attention;
pub mod kernels;

pub use attention::AttentionScratch;

use crate::{IntTensor, Result, TensorError};
use kernels::{NibbleKernel, Products, WideKernel};
use std::ops::Range;

/// Width (output columns) of one packed weight panel and of the micro-kernel
/// accumulator tile.
pub const NR: usize = 32;

/// Height (input rows) of one packed activation block and of the
/// micro-kernel accumulator tile.
pub const MR: usize = 4;

/// Length of one k-pair row of a wide weight panel: an interleaved
/// `(W[2pp][c], W[2pp+1][c])` pair per column.
pub const WIDE_B: usize = 2 * NR;

/// Length of one k-pair row of a packed activation block: an interleaved
/// `(X[r][2pp], X[r][2pp+1])` pair per row.
pub const WIDE_A: usize = 2 * MR;

/// Bytes of one k-quad row of a nibble weight panel: four reduction steps ×
/// [`NR`] columns × 4 bits, as two 32-byte half rows (see the module docs).
pub const QUAD_B: usize = 2 * NR;

/// Bytes of one k-quad row of a byte activation block: the four codes
/// `X[r][4q .. 4q+4]` of each of the [`MR`] rows.
pub const QUAD_A: usize = 4 * MR;

/// The `MR × NR` accumulator tile every micro-kernel updates in place.
pub type AccTile = [[i32; NR]; MR];

/// Largest reduction depth for which unsaturated `i32` accumulation of
/// int8×int8 products cannot overflow (`k · 128² ≤ 2³¹ - 1`, using the
/// worst-case product `(-128)·(-128)`), and therefore the largest `k`
/// [`PackedWeights::pack`] accepts.
pub const MAX_K: usize = i32::MAX as usize / (128 * 128);

/// Longest attention sequence for which unsaturated `i32` accumulation of
/// the context product cannot overflow (`seq · 255 · 128 ≤ 2³¹ - 1`:
/// probabilities are `u8` codes, values `i8` codes).
pub const MAX_ATTN_SEQ: usize = i32::MAX as usize / (255 * 128);

/// A `rows × cols` window of a row-major `i8` matrix, read in place: row
/// `r` of the view is `cols` contiguous codes starting `r · stride` past
/// the window's first element. This is how one attention head's
/// `[seq, head_dim]` block is read out of the packed Q/K/V projection
/// outputs without copying it.
#[derive(Debug, Clone, Copy)]
pub struct StridedView<'a> {
    data: &'a [i8],
    stride: usize,
    rows: usize,
    cols: usize,
}

impl<'a> StridedView<'a> {
    /// The window `rows × cols` of a row-major matrix whose rows are
    /// `stride` codes apart.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if a range is reversed, the
    /// column range exceeds `stride`, or `matrix` holds fewer than
    /// `rows.end` full rows.
    pub fn new(
        matrix: &'a [i8],
        stride: usize,
        rows: Range<usize>,
        cols: Range<usize>,
    ) -> Result<Self> {
        let fits = rows.start <= rows.end
            && cols.start <= cols.end
            && cols.end <= stride
            && rows
                .end
                .checked_mul(stride)
                .is_some_and(|end| end <= matrix.len());
        if !fits {
            return Err(TensorError::ShapeMismatch {
                op: "strided_view (window exceeds the matrix)",
                lhs: vec![rows.end, cols.end],
                rhs: vec![matrix.len(), stride],
            });
        }
        let data = if rows.is_empty() || cols.is_empty() {
            &matrix[..0]
        } else {
            &matrix[rows.start * stride + cols.start..rows.end * stride]
        };
        Ok(Self {
            data,
            // An empty window has no row to step to.
            stride: if data.is_empty() { 0 } else { stride },
            rows: rows.len(),
            cols: cols.len(),
        })
    }

    /// The view of a whole dense `rows × cols` matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `matrix` holds fewer than
    /// `rows · cols` codes.
    pub fn dense(matrix: &'a [i8], rows: usize, cols: usize) -> Result<Self> {
        Self::new(matrix, cols, 0..rows, 0..cols)
    }

    /// Rows in the window.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns in the window.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `r` of the window.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not below [`StridedView::rows`].
    pub fn row(&self, r: usize) -> &'a [i8] {
        assert!(r < self.rows, "row {r} of a {}-row view", self.rows);
        &self.data[r * self.stride..][..self.cols]
    }
}

/// Panel storage of a packed weight matrix: pre-widened `i16` pairs, or
/// biased nibbles for low-bit weights (consumed as unsigned bytes by the
/// byte-operand kernel path).
#[derive(Debug, Clone, PartialEq, Eq)]
enum PanelStore {
    /// `panels · k_pairs` rows of interleaved `i16` pairs.
    Wide(Vec<[i16; WIDE_B]>),
    /// `panels · k_quads` rows of biased nibbles, two columns per byte.
    Nibble(Vec<[u8; QUAD_B]>),
}

/// An int8 weight matrix re-laid-out into [`NR`]-wide, k-pair-interleaved
/// column panels (see the module docs). Built once per layer; read-only
/// afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedWeights {
    store: PanelStore,
    k: usize,
    n: usize,
}

impl PackedWeights {
    /// Packs a `[k, n]` row-major weight matrix into wide (`i16`) column
    /// panels.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if `weight` is not rank 2 and
    /// [`TensorError::ShapeMismatch`] if `k` exceeds [`MAX_K`] (the depth
    /// beyond which unsaturated `i32` accumulation could overflow and the
    /// bit-exactness contract with `matmul_i32` would break).
    pub fn pack(weight: &IntTensor<i8>) -> Result<Self> {
        let (k, n) = Self::checked_dims(weight)?;
        let mut data = Vec::new();
        pack_wide_panels(&mut data, StridedView::dense(weight.as_slice(), k, n)?);
        Ok(Self {
            store: PanelStore::Wide(data),
            k,
            n,
        })
    }

    /// Packs a `[k, n]` weight matrix of low-bit codes (each in `[-8, 7]`,
    /// i.e. 4-bit or 2-bit quantized weights) into biased-nibble k-quad
    /// panels consumed directly by the byte-operand kernel path — half a
    /// byte per weight, a quarter of the resident bytes of
    /// [`PackedWeights::pack`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ValueOutOfRange`] if any code does not fit a
    /// signed nibble, plus the same rank/depth errors as
    /// [`PackedWeights::pack`].
    pub fn pack_nibble(weight: &IntTensor<i8>) -> Result<Self> {
        let (k, n) = Self::checked_dims(weight)?;
        // Biasing a two's-complement nibble by 8 flips its top bit.
        let biased = weight
            .as_slice()
            .iter()
            .map(|&code| Ok(crate::pack4::nibble(code)? ^ 8))
            .collect::<Result<Vec<u8>>>()?;
        let data = gather_nibble_panels(k, n, |kk, c0, row| {
            row.copy_from_slice(&biased[kk * n + c0..][..row.len()]);
        });
        Ok(Self {
            store: PanelStore::Nibble(data),
            k,
            n,
        })
    }

    /// Packs wide (`i16`) column panels directly from a `[k, n]` row-major
    /// stream of two's-complement `i8` code bytes — the v2 artifact
    /// encoding of 8-bit weights — without materialising an intermediate
    /// `IntTensor`. Produces panels bit-identical to
    /// [`PackedWeights::pack`] over the same codes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `bytes` is not exactly
    /// `k · n` bytes or `k` exceeds [`MAX_K`].
    pub fn pack_wide_from_bytes(bytes: &[u8], k: usize, n: usize) -> Result<Self> {
        Self::checked_depth(k, n)?;
        if bytes.len() != k * n {
            return Err(TensorError::ShapeMismatch {
                op: "gemm_pack_wide_from_bytes (byte count)",
                lhs: vec![bytes.len()],
                rhs: vec![k * n],
            });
        }
        let panels = n.div_ceil(NR);
        let k_pairs = k.div_ceil(2);
        let mut data = vec![[0i16; WIDE_B]; panels * k_pairs];
        for p in 0..panels {
            let c0 = p * NR;
            let width = NR.min(n - c0);
            for (pp, dst) in data[p * k_pairs..(p + 1) * k_pairs].iter_mut().enumerate() {
                for t in 0..2 {
                    let kk = 2 * pp + t;
                    if kk >= k {
                        break;
                    }
                    let row = &bytes[kk * n + c0..kk * n + c0 + width];
                    for (j, &s) in row.iter().enumerate() {
                        // fqlint::allow(narrowing-cast): same-width
                        // `u8 -> i8` reinterpretation — the byte stream
                        // stores two's-complement codes.
                        dst[2 * j + t] = i16::from(s as i8);
                    }
                }
            }
        }
        Ok(Self {
            store: PanelStore::Wide(data),
            k,
            n,
        })
    }

    /// Builds nibble panels directly from the v2 artifact's `pack_i4` byte
    /// stream for a `[k, n]` weight matrix: flat element `e = kk·n + c`
    /// occupies nibble `e % 2` of byte `e / 2` (low nibble first). The
    /// panel gather is one pass of nibble moves with no widening, producing
    /// panels bit-identical to [`PackedWeights::pack_nibble`] over the
    /// unpacked codes. Every nibble is a valid two's-complement code, so
    /// unlike the unpack path no per-element range check is needed.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `bytes` is not exactly
    /// `ceil(k·n / 2)` bytes or `k` exceeds [`MAX_K`], and
    /// [`TensorError::ValueOutOfRange`] if an odd `k·n` leaves a non-zero
    /// final high nibble (corrupt encoding — the packer zeroes it).
    pub fn from_v2_nibble_bytes(bytes: &[u8], k: usize, n: usize) -> Result<Self> {
        Self::checked_depth(k, n)?;
        let numel = k * n;
        if bytes.len() != numel.div_ceil(2) {
            return Err(TensorError::ShapeMismatch {
                op: "gemm_from_v2_nibble_bytes (byte count)",
                lhs: vec![bytes.len()],
                rhs: vec![numel.div_ceil(2)],
            });
        }
        if numel % 2 == 1 {
            let last = bytes[bytes.len() - 1];
            if last >> 4 != 0 {
                return Err(TensorError::ValueOutOfRange {
                    what: "trailing int4 high nibble (must be zero padding)",
                    value: i64::from(last >> 4),
                });
            }
        }
        let data = gather_nibble_panels(k, n, |kk, c0, row| {
            for (i, u) in row.iter_mut().enumerate() {
                let e = kk * n + c0 + i;
                *u = ((bytes[e / 2] >> (4 * (e % 2))) & 0x0f) ^ 8;
            }
        });
        Ok(Self {
            store: PanelStore::Nibble(data),
            k,
            n,
        })
    }

    /// Shared rank / depth validation for both packers.
    fn checked_dims(weight: &IntTensor<i8>) -> Result<(usize, usize)> {
        let (k, n) = weight.as_matrix_dims()?;
        Self::checked_depth(k, n)?;
        Ok((k, n))
    }

    /// Depth validation shared with the from-bytes constructors.
    fn checked_depth(k: usize, n: usize) -> Result<()> {
        if k > MAX_K {
            return Err(TensorError::ShapeMismatch {
                op: "gemm_pack (k exceeds MAX_K)",
                lhs: vec![k, n],
                rhs: vec![MAX_K, n],
            });
        }
        Ok(())
    }

    /// Reduction depth (input features) of the packed matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output columns of the packed matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether the panels hold biased nibbles (byte-operand compute path)
    /// rather than pre-widened `i16` pairs.
    pub fn is_nibble(&self) -> bool {
        matches!(self.store, PanelStore::Nibble(_))
    }

    /// Bytes resident in the packed panel storage.
    pub fn resident_bytes(&self) -> usize {
        match &self.store {
            PanelStore::Wide(data) => data.len() * WIDE_B * std::mem::size_of::<i16>(),
            PanelStore::Nibble(data) => data.len() * QUAD_B,
        }
    }
}

/// Packs the `[k, n]` matrix behind `src` into wide column panels in `data`
/// (cleared first, capacity kept): `data[p·k_pairs + pp][2j + t] =
/// src[2pp + t][p·NR + j]`, zero-padded past `n` and for the odd-`k` tail.
fn pack_wide_panels(data: &mut Vec<[i16; WIDE_B]>, src: StridedView<'_>) {
    let (k, n) = (src.rows(), src.cols());
    let k_pairs = k.div_ceil(2);
    data.clear();
    data.resize(n.div_ceil(NR) * k_pairs, [0i16; WIDE_B]);
    if k_pairs == 0 {
        return;
    }
    for (p, panel) in data.chunks_exact_mut(k_pairs).enumerate() {
        let c0 = p * NR;
        let width = NR.min(n - c0);
        for kk in 0..k {
            let dst = &mut panel[kk / 2];
            for (j, &s) in src.row(kk)[c0..c0 + width].iter().enumerate() {
                dst[2 * j + kk % 2] = i16::from(s);
            }
        }
    }
}

/// Gathers the biased-nibble k-quad panels of a `[k, n]` matrix.
/// `biased_row(kk, c0, row)` writes `u(W[kk][c0 + i]) = W[kk][c0 + i] + 8`
/// to `row[i]`; for panel `p`, k-quad `q` and 16-column half `h`,
/// `data[p·k_quads + q][32h + 4j + t]` then holds `u(W[4q+t][c0+16h+j])` in
/// its low and `u(W[4q+t][c0+16h+8+j])` in its high nibble, `c0 = p·NR`.
/// Bytes past `n` and past `k` stay zero: they only ever meet zero
/// activations or columns the driver drops.
fn gather_nibble_panels(
    k: usize,
    n: usize,
    biased_row: impl Fn(usize, usize, &mut [u8]),
) -> Vec<[u8; QUAD_B]> {
    let k_quads = k.div_ceil(4);
    let mut data = vec![[0u8; QUAD_B]; n.div_ceil(NR) * k_quads];
    for (p, c0) in (0..n).step_by(NR).enumerate() {
        let width = NR.min(n - c0);
        let panel = &mut data[p * k_quads..(p + 1) * k_quads];
        let mut row = [0u8; NR];
        for kk in 0..k {
            biased_row(kk, c0, &mut row[..width]);
            let (src_halves, _) = row.as_chunks::<16>();
            let (dst_halves, _) = panel[kk / 4].as_chunks_mut::<NR>();
            for (dst, src) in dst_halves.iter_mut().zip(src_halves) {
                for j in 0..8 {
                    dst[4 * j + kk % 4] = src[j] | src[j + 8] << 4;
                }
            }
        }
    }
    data
}

/// The activation side of one tile step: an [`MR`]-row block of a matrix in
/// the layout of the panels it meets. Against wide panels the block is
/// k-pair-interleaved and widened to the kernels' `i16` operand width
/// (`rows[pp][2r + t] = X[r0 + r][2pp + t]`); against nibble panels it
/// stays bytes, one k-quad of every row per entry
/// (`quads[q][4r + t] = X[r0 + r][4q + t]`). The `amx` row reads the
/// activations in place instead and keeps its decoded panel and its
/// zero-padded staging rows here, on cache lines. No buffer ever shrinks,
/// so a block reused across projections settles at the deepest one.
#[derive(Debug, Default)]
pub struct ActivationBlock {
    rows: Vec<[i16; WIDE_A]>,
    quads: Vec<[i8; QUAD_A]>,
    lines: ByteArena,
}

impl ActivationBlock {
    /// Packs rows `r0 .. r0+rows` of `x` into the k-pair-interleaved
    /// layout, zero-padding missing rows up to [`MR`] and the odd-`k` tail.
    fn pack_rows(&mut self, x: StridedView<'_>, r0: usize, rows: usize) -> &[[i16; WIDE_A]] {
        self.rows.clear();
        self.rows.resize(x.cols().div_ceil(2), [0i16; WIDE_A]);
        for r in 0..rows {
            interleave_pairs(x.row(r0 + r), &mut self.rows, r);
        }
        &self.rows
    }

    /// Packs rows `r0 .. r0+rows` of `x` into the byte k-quad layout,
    /// zero-padding missing rows up to [`MR`] and the k-tail, and returns
    /// the value every accumulator of tile row `r` starts from:
    /// `−8 · Σ_k X[r0 + r][k]`, the term that cancels the `+8` bias of the
    /// nibble panels (`Σ a·(w + 8) − 8·Σ a = Σ a·w`).
    fn pack_quads(&mut self, x: StridedView<'_>, r0: usize, rows: usize) -> [i32; MR] {
        self.quads.clear();
        self.quads.resize(x.cols().div_ceil(4), [0i8; QUAD_A]);
        let mut start = [0i32; MR];
        for (r, start) in start.iter_mut().enumerate().take(rows) {
            let src = x.row(r0 + r);
            let (quads, tail) = src.as_chunks::<4>();
            for (quad, dst) in quads.iter().zip(&mut self.quads) {
                dst[4 * r..4 * r + 4].copy_from_slice(quad);
            }
            if let Some(dst) = self.quads.get_mut(quads.len()) {
                dst[4 * r..4 * r + tail.len()].copy_from_slice(tail);
            }
            *start = -8 * src.iter().map(|&a| i32::from(a)).sum::<i32>();
        }
        start
    }
}

/// Spreads `src` over lane `lane` of consecutive k-pair rows, widened to
/// `i16`: `block[pp][2·lane + t] = src[2pp + t]`. An odd tail leaves its
/// second slot untouched.
fn interleave_pairs<T: Copy + Into<i16>, const W: usize>(
    src: &[T],
    block: &mut [[i16; W]],
    lane: usize,
) {
    let (pairs, tail) = src.as_chunks::<2>();
    for (&[even, odd], dst) in pairs.iter().zip(&mut *block) {
        dst[2 * lane] = even.into();
        dst[2 * lane + 1] = odd.into();
    }
    if let (Some(&last), Some(dst)) = (tail.first(), block.get_mut(pairs.len())) {
        dst[2 * lane] = last.into();
    }
}

/// Bytes of a cache line: every slice a [`LineArena`] hands out starts on
/// one.
const LINE: usize = 64;

/// Grow-only backing store of plain numbers (`i8`, `u8`, `i32`, and the
/// embedding's float sums): one call hands
/// out disjoint slices of the sizes asked for, each starting on a 64-byte
/// cache line, and a store that has served a shape once serves it again
/// without allocating.
#[derive(Debug, Default)]
pub struct LineArena<T> {
    items: Vec<T>,
}

/// The arena of the `i8` intermediates of a forward pass.
pub type ByteArena = LineArena<i8>;

impl<T: Copy + Default> LineArena<T> {
    /// Elements of one cache line.
    const PER_LINE: usize = LINE / std::mem::size_of::<T>();

    /// `N` disjoint mutable slices of the given lengths (in elements), each
    /// 64-byte aligned. Their contents are whatever an earlier use left
    /// there — callers overwrite before they read.
    pub fn slices<const N: usize>(&mut self, sizes: [usize; N]) -> [&mut [T]; N] {
        let per_line = Self::PER_LINE;
        let lines: usize = sizes.iter().map(|len| len.next_multiple_of(per_line)).sum();
        // One line of slack: the backing need not start on a line.
        let need = lines + per_line - 1;
        if self.items.len() < need {
            self.items.resize(need, T::default());
        }
        // An element is as aligned as it is long, so the distance to the
        // next line is a whole number of elements.
        let skew = self.items.as_ptr().addr().wrapping_neg() % LINE / std::mem::size_of::<T>();
        let mut rest = &mut self.items[skew..];
        sizes.map(|len| {
            let (head, tail) =
                std::mem::take(&mut rest).split_at_mut(len.next_multiple_of(per_line));
            rest = tail;
            &mut head[..len]
        })
    }
}

/// Grow-only row of `i32` operand sums for the `Add & LN` kernels
/// ([`kernels::AddNormKernel`]): stage 1 writes every element of the row
/// before a later stage reads it, so a row that served a wider block
/// carries nothing over.
#[derive(Debug, Default)]
pub struct AddNormRow {
    sums: Vec<i32>,
}

impl AddNormRow {
    /// The first `hidden` slots. Their contents are whatever an earlier
    /// use left there — the kernels overwrite before they read.
    pub fn sized(&mut self, hidden: usize) -> &mut [i32] {
        if self.sums.len() < hidden {
            self.sums.resize(hidden, 0);
        }
        &mut self.sums[..hidden]
    }
}

/// Every reusable buffer of the integer forward pass, in five
/// independently borrowable parts: the activation block of the linear
/// GEMMs, the per-head state of the fused attention pass, the arena
/// holding a layer's `i8` intermediates, the operand-sum row of
/// `Add & LN`, and the embedding's table sums.
///
/// One scratch serves every projection and every attention head of every
/// encoder layer in a forward pass. Nothing in it ever shrinks, so after
/// the first call on a shape the forward pass allocates nothing it will
/// need again — a long-lived owner (a pool worker, a serial backend) keeps
/// one alive across all the batches it serves. It holds no numeric state:
/// outputs do not depend on what a scratch served before.
#[derive(Debug, Default)]
pub struct GemmScratch {
    /// Activation row block of the linear GEMMs.
    pub pack: ActivationBlock,
    /// K/V panels and score/probability row block of the attention pass.
    pub attn: AttentionScratch,
    /// Layer intermediates (projection outputs, context, FFN hidden, …).
    pub arena: ByteArena,
    /// One row of `Add & LN` operand sums.
    pub norm: AddNormRow,
    /// One sequence's embedding table sums (`word + position + segment`
    /// per element), the input of the CPU-side embedding layer norm. The
    /// model embeds one sequence at a time, so it grows to `max_len ×
    /// hidden` at most, whatever the batch.
    pub embed: crate::tensor::FloatArena,
}

impl GemmScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Drives the blocked GEMM `x (m×k) · W (k×n)` over the row-major codes
/// `x` and feeds every finished accumulator row segment to
/// `sink(row, c0, accs)` exactly once (`accs[j]` is the accumulator for
/// column `c0 + j`, `c0` a multiple of [`NR`]), on the product engine of
/// the process-selected kernel row: [`drive_tiles`] or the AMX driver (see
/// the module docs). Handing the epilogue a contiguous segment instead of
/// one element at a time is what lets [`gemm_i8_requant_into`] run a SIMD
/// fixup over it.
fn gemm_drive<F: FnMut(usize, usize, &[i32])>(
    x: &[i8],
    m: usize,
    weights: &PackedWeights,
    pack: &mut ActivationBlock,
    sink: F,
) -> Result<()> {
    let (k, n) = (weights.k, weights.n);
    if m.checked_mul(k) != Some(x.len()) {
        return Err(TensorError::ShapeMismatch {
            op: "gemm_i8",
            lhs: vec![m, x.len()],
            rhs: vec![k, n],
        });
    }
    match kernels::selected().products {
        Products::Tiles { wide, nibble } => drive_tiles(x, m, weights, pack, wide, nibble, sink),
        #[cfg(target_arch = "x86_64")]
        Products::Amx => kernels::x86::amx::drive(x, m, weights, &mut pack.lines, sink),
    }
    Ok(())
}

/// The tile engine's projection, under the contract of [`gemm_drive`]:
/// every [`MR`]-row block of `x`, packed into `pack`, against every panel
/// on the `wide` or the `nibble` tile kernel.
///
/// # Panics
///
/// Panics unless `x` holds `m · weights.k()` codes.
fn drive_tiles(
    x: &[i8],
    m: usize,
    weights: &PackedWeights,
    pack: &mut ActivationBlock,
    wide: WideKernel,
    nibble: NibbleKernel,
    mut sink: impl FnMut(usize, usize, &[i32]),
) {
    let n = weights.n;
    let x = StridedView::dense(x, m, weights.k).expect("m rows of k codes");
    for r0 in (0..m).step_by(MR) {
        let rows = MR.min(m - r0);
        let block_rows = r0..r0 + rows;
        match &weights.store {
            PanelStore::Wide(data) => {
                let block = pack.pack_rows(x, r0, rows);
                tile_panels(wide, block, data, n, [0; MR], block_rows, &mut sink);
            }
            PanelStore::Nibble(data) => {
                let start = pack.pack_quads(x, r0, rows);
                tile_panels(nibble, &pack.quads, data, n, start, block_rows, &mut sink);
            }
        }
    }
}

/// One activation block `a` against every panel of an `n`-column operand,
/// `a.len()` rows per panel: each tile starts at `start[r]` in row `r`,
/// runs `tile`, and hands its first `rows.len()` rows to
/// `sink(row, c0, accs)`, numbered from `rows.start`, `accs` the
/// `min(NR, n − c0)` columns from `c0`. The one panel loop of the tile
/// engine — projections and both attention products.
fn tile_panels<A, B>(
    tile: fn(&[A], &[B], &mut AccTile),
    a: &[A],
    panels: &[B],
    n: usize,
    start: [i32; MR],
    rows: Range<usize>,
    mut sink: impl FnMut(usize, usize, &[i32]),
) {
    for (p, c0) in (0..n).step_by(NR).enumerate() {
        let mut acc = start.map(|s| [s; NR]);
        tile(a, &panels[p * a.len()..][..a.len()], &mut acc);
        let cols = NR.min(n - c0);
        for (r, row) in rows.clone().zip(&acc) {
            sink(r, c0, &row[..cols]);
        }
    }
}

/// Rows of the matrix `x`, after checking its width against the packed `k`.
fn checked_rows(x: &IntTensor<i8>, weights: &PackedWeights) -> Result<usize> {
    let (m, k) = x.as_matrix_dims()?;
    if k != weights.k {
        return Err(TensorError::ShapeMismatch {
            op: "gemm_i8",
            lhs: x.dims().to_vec(),
            rhs: vec![weights.k, weights.n],
        });
    }
    Ok(m)
}

/// Blocked GEMM returning the raw `i32` accumulators,
/// bit-identical to [`IntTensor::matmul_i32`] (see the module docs for the
/// contract). Mostly useful for tests and diagnostics — the engine uses the
/// fused [`gemm_i8_requant_into`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `x`'s width differs from the
/// packed `k`, or a rank error for non-matrix inputs.
pub fn gemm_i8_i32(
    x: &IntTensor<i8>,
    weights: &PackedWeights,
    scratch: &mut GemmScratch,
) -> Result<IntTensor<i32>> {
    let m = checked_rows(x, weights)?;
    let n = weights.n;
    let mut out = IntTensor::<i32>::zeros(&[m, n]);
    let (slice, pack) = (out.as_mut_slice(), &mut scratch.pack);
    gemm_drive(x.as_slice(), m, weights, pack, |r, c0, accs| {
        slice[r * n + c0..][..accs.len()].copy_from_slice(accs)
    })?;
    Ok(out)
}

/// Fixed-point requantization parameters for the fused GEMM epilogue:
/// `out = clamp(round(  (acc + bias) · multiplier / 2^shift ), ±clamp)`
/// with round-half-away-from-zero — exactly
/// `fqbert_quant::Requantizer::apply` followed by the `i8` clamp, expressed
/// as plain fields so the tensor crate needs no quant dependency.
///
/// The effective output bound is `min(clamp, 127)`: the epilogue produces
/// `i8` codes, so wider bounds are meaningless and are capped rather than
/// wrapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequantParams {
    /// Fixed-point multiplier (Q1.30-normalised by `Requantizer`, but any
    /// `i64` is accepted — out-of-envelope values take the exact scalar
    /// path).
    pub multiplier: i64,
    /// Right shift applied after the multiply; values `<= 0` mean no shift.
    pub shift: i32,
    /// Symmetric output saturation bound (capped at 127).
    pub clamp: i32,
}

impl RequantParams {
    /// Whether the SIMD requantize kernels compute this parameter set
    /// exactly in `i64` arithmetic: `multiplier ∈ [0, 2^30]` (the Q1.30
    /// normalised-mantissa range, denormal folding included), `shift ∈
    /// [0, 62]` and `clamp ∈ [0, 127]`. Every `Requantizer` produces
    /// parameters inside this envelope; anything outside falls back to the
    /// 128-bit scalar reference.
    ///
    /// Inside the envelope `|acc + bias| ≤ 2^32`, so `|product| ≤ 2^62` and
    /// `product + half ≤ 2^62 + 2^61 < 2^63` — `i64` arithmetic is exact
    /// and the SIMD path is bit-identical to the `i128` reference.
    pub fn simd_exact(&self) -> bool {
        (0..=1i64 << 30).contains(&self.multiplier)
            && (0..=62).contains(&self.shift)
            && (0..=i32::from(i8::MAX)).contains(&self.clamp)
    }
}

/// The requantize epilogue of one GEMM or attention head: its
/// [`RequantParams`] and what a kernel derives from them once per call
/// rather than once per row segment — the smallest `|acc + bias|` whose
/// code is already `±clamp` ([`RequantEpilogue::saturates_from`]).
///
/// With it a kernel computes `sign · min(clamp, (min(|x|, x_lim) · M +
/// half) >> shift)` for `x = acc + bias`, which equals the reference for
/// every `x` — the rounded quotient grows with `|x|`, so every `|x| ≥ x_lim`
/// saturates — and keeps the product of a 32-bit lane inside 64 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequantEpilogue {
    params: RequantParams,
    saturates_from: u32,
}

impl RequantEpilogue {
    /// Prepares `params` for the requantize kernels.
    pub fn new(params: RequantParams) -> Self {
        Self {
            params,
            saturates_from: saturation_start(params),
        }
    }

    /// `x_lim`, the smallest `|acc + bias|` whose code is `±clamp` inside
    /// [`RequantParams::simd_exact`]: `0` for a zero clamp, `u32::MAX` when
    /// no `|x| < 2³²` saturates (a zero multiplier among them). Outside the
    /// envelope, where only the scalar reference runs, it is `u32::MAX`.
    pub fn saturates_from(&self) -> u32 {
        self.saturates_from
    }

    /// The requantize kernel for these parameters: the process-selected
    /// SIMD kernel inside [`RequantParams::simd_exact`], the 128-bit scalar
    /// reference outside it.
    pub fn kernel(&self) -> kernels::RequantKernel {
        if self.params.simd_exact() {
            kernels::selected().requant
        } else {
            kernels::scalar::requant_row
        }
    }
}

/// The smallest `|x|` with `(|x| · multiplier + half) >> shift ≥ clamp`,
/// capped at `u32::MAX` (see [`RequantEpilogue::saturates_from`]).
fn saturation_start(params: RequantParams) -> u32 {
    if !params.simd_exact() {
        return u32::MAX;
    }
    let clamp = u128::from(params.clamp.unsigned_abs());
    let multiplier = u128::from(params.multiplier.unsigned_abs());
    if clamp == 0 {
        return 0;
    }
    if multiplier == 0 {
        return u32::MAX;
    }
    let shift = params.shift.unsigned_abs();
    let half = if shift > 0 { 1u128 << (shift - 1) } else { 0 };
    // `clamp ≥ 1`, so the target is at least `half + 1`.
    let target = (clamp << shift) - half;
    u32::try_from(target.div_ceil(multiplier)).unwrap_or(u32::MAX)
}

/// Fractional bits of every fixed-point value of an `Add & LN` block
/// ([`AddNormParams`]): `value = raw / 2^16`.
pub const ADD_NORM_FRAC_BITS: u32 = 16;

/// The widest row an `Add & LN` block normalises. The `avx512` row sums the
/// squares and cross products of a row's codes with `vpdpwssd` over 32
/// sign-extended codes per step, so an `i32` lane takes two products of at
/// most `128² = 2¹⁴` per step: `2 · ⌈hidden / 32⌉ · 2¹⁴ ≤ i32::MAX` holds
/// up to `2²¹ − 32` and a lane wraps one step later.
/// [`AddNormParams::new`] refuses wider blocks.
pub const MAX_ADD_NORM_HIDDEN: usize = (1 << 21) - 32;

/// One `Add & LN` block (paper §III-B, LN core) as the plain integers its
/// kernels ([`kernels::AddNormKernel`]) compute with — every value on the
/// Q16 grid ([`ADD_NORM_FRAC_BITS`]) — the way [`RequantParams`] carries a
/// requantizer, so the tensor crate needs no quant dependency:
/// `fqbert_quant::QuantizedLayerNorm::fold` makes one from the layer-norm
/// parameters and the three scales of the block.
///
/// The fields are private because the kernels rely on what
/// [`AddNormParams::new`] checked (`gamma` and `beta` equally long, at most
/// [`MAX_ADD_NORM_HIDDEN`] wide, a positive `eps`) and on the envelope it
/// computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddNormParams {
    /// The grid value of one code step of operand `a`: code `c` stands for
    /// `c.saturating_mul(step_a)`, so an operand is one multiply.
    step_a: i32,
    /// The same step for operand `b`.
    step_b: i32,
    gamma: Vec<i32>,
    beta: Vec<i32>,
    /// Added to the variance; at least one step of the grid.
    eps: i32,
    /// Output levels per unit.
    out_scale: i32,
    /// [`AddNormParams::simd_exact`], computed once.
    simd_exact: bool,
    /// `max |gamma|` and `max |beta|`: with a row's `max |x − mean|` and
    /// its inverse deviation they bound every stage-3 intermediate, which
    /// is how a SIMD row knows that nothing in that row can saturate.
    gamma_max: i64,
    beta_max: i64,
}

impl AddNormParams {
    /// Assembles a block from raw Q16 integers. Any `i32` is accepted for
    /// the two operand steps, `gamma`, `beta` and `out_scale`: the scalar
    /// row is exact for all of them and [`AddNormParams::simd_exact`] says
    /// whether a SIMD row is too.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `gamma` and `beta` differ
    /// in length or are empty, and [`TensorError::ValueOutOfRange`] for a
    /// width past [`MAX_ADD_NORM_HIDDEN`] or an `eps` below one grid step
    /// (the variance may be zero, and the inverse square root needs a
    /// positive argument).
    pub fn new(
        step_a: i32,
        step_b: i32,
        gamma: Vec<i32>,
        beta: Vec<i32>,
        eps: i32,
        out_scale: i32,
    ) -> Result<Self> {
        if gamma.len() != beta.len() || gamma.is_empty() {
            return Err(TensorError::ShapeMismatch {
                op: "add_norm (gamma and beta must be equal-length, non-empty)",
                lhs: vec![gamma.len()],
                rhs: vec![beta.len()],
            });
        }
        if gamma.len() > MAX_ADD_NORM_HIDDEN {
            return Err(TensorError::ValueOutOfRange {
                what: "add_norm hidden (at most MAX_ADD_NORM_HIDDEN = 2^21 - 32)",
                value: i64::try_from(gamma.len()).unwrap_or(i64::MAX),
            });
        }
        if eps < 1 {
            return Err(TensorError::ValueOutOfRange {
                what: "add_norm eps (at least one Q16 step)",
                value: i64::from(eps),
            });
        }
        let abs_max = |values: &[i32]| {
            let max = values.iter().map(|v| v.unsigned_abs()).max();
            i64::from(max.unwrap_or(0))
        };
        // The largest operand magnitude: `|c · step|` grows with `|c|` and
        // saturating keeps the order, so the two ends of the code range
        // cover all 256 codes.
        let reach =
            |step: i32| abs_max(&[i8::MIN, i8::MAX].map(|c| i32::from(c).saturating_mul(step)));
        // |a + b| <= S and |mean| <= S, so |a + b - mean| <= 2S.
        let spread = 2 * (reach(step_a) + reach(step_b));
        // `spread <= 2^33`, so its square fits `u128` with room to spare.
        let squares = u128::from(spread.unsigned_abs())
            .pow(2)
            .saturating_mul(gamma.len() as u128);
        Ok(Self {
            simd_exact: spread <= i64::from(i32::MAX) && squares <= i64::MAX as u128,
            gamma_max: abs_max(&gamma),
            beta_max: abs_max(&beta),
            step_a,
            step_b,
            gamma,
            beta,
            eps,
            out_scale,
        })
    }

    /// Width of the rows this block normalises.
    pub fn hidden(&self) -> usize {
        self.gamma.len()
    }

    /// Whether the SIMD `Add & LN` rows compute this block exactly. With
    /// `S = max |c · step_a| + max |c · step_b|` over the codes `c`:
    /// `2·S ≤ i32::MAX`, so neither the operand sum `a · step_a + b ·
    /// step_b` nor the mean subtraction can saturate and plain `i32` lanes
    /// equal the saturating reference; and `hidden · (2·S)² ≤ i64::MAX`, so
    /// the `avx2` row's variance sum is exact in `i64` lanes in any order
    /// (the `avx512` row forms it from exact integer moments in `i128`).
    /// Calibrated scales of 15–30 leave about 2²⁰ of margin; the edge is an
    /// operand scale near 0.3 at hidden 768. Anything outside runs
    /// [`kernels::scalar::add_norm_rows`], which is exact for every
    /// parameter set.
    pub fn simd_exact(&self) -> bool {
        self.simd_exact
    }

    /// The `Add & LN` kernel for this block: the process-selected row
    /// inside its exactness envelope, the scalar reference outside it.
    pub fn kernel(&self) -> kernels::AddNormKernel {
        if self.simd_exact {
            kernels::selected().add_norm
        } else {
            kernels::scalar::add_norm_rows
        }
    }
}

/// Entries of the exponential lookup table of a softmax row: one per
/// distance `max − s` between the row maximum and an `i8` score.
pub const SOFTMAX_ENTRIES: usize = 256;

/// The softmax of one attention head (paper §III-B, Softmax Core) as the
/// plain integers its kernels ([`kernels::SoftmaxKernel`]) compute with,
/// the way [`RequantParams`] carries a requantizer, so the tensor crate
/// needs no quant dependency: `fqbert_quant::SoftmaxLut::new` tabulates
/// the exponential and stores one of these.
///
/// The fields are private because the kernels rely on what
/// [`SoftmaxParams::new`] checked: the row maximum looks up `table[0]`, so
/// a non-zero first entry keeps every denominator positive, and
/// `out_levels ≤ 255` keeps every probability inside a byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoftmaxParams {
    /// `table[d]`: the exponential's 8-bit numerator for a score `d` below
    /// its row maximum.
    table: [u8; SOFTMAX_ENTRIES],
    /// The same table one dword per entry — what a `vpgatherdd` row
    /// indexes, widened once here instead of once per row.
    wide: Box<[u32; SOFTMAX_ENTRIES]>,
    /// The code that stands for probability 1.
    out_levels: u32,
}

impl SoftmaxParams {
    /// Assembles a softmax from its numerator table and output level
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ValueOutOfRange`] for `out_levels` outside
    /// `1..=255` or a zero `table[0]` (the numerator of the row maximum:
    /// with it a row's denominator could be zero).
    pub fn new(table: [u8; SOFTMAX_ENTRIES], out_levels: u32) -> Result<Self> {
        if !(1..=255).contains(&out_levels) {
            return Err(TensorError::ValueOutOfRange {
                what: "softmax out_levels (1..=255)",
                value: i64::from(out_levels),
            });
        }
        if table[0] == 0 {
            return Err(TensorError::ValueOutOfRange {
                what: "softmax table[0] (the row maximum's numerator, non-zero)",
                value: 0,
            });
        }
        Ok(Self {
            wide: Box::new(table.map(u32::from)),
            table,
            out_levels,
        })
    }

    /// The 256-entry numerator table.
    pub fn table(&self) -> &[u8; SOFTMAX_ENTRIES] {
        &self.table
    }

    /// The code that stands for probability 1.
    pub fn out_levels(&self) -> u32 {
        self.out_levels
    }
}

/// Blocked GEMM with the requantization epilogue fused and SIMD-accelerated,
/// written into a caller-owned buffer: `x` is `m` rows of `k` row-major
/// codes, `out` receives the `m × n` output codes. Every accumulator row
/// segment gets `+ bias[col]`, the fixed-point multiply/shift/round and the
/// symmetric clamp applied by the process-selected requantize kernel —
/// bit-identical to applying `Requantizer::apply(acc + bias).clamp(-127,
/// 127)` per element (the cross-kernel property tests pin this). Allocates
/// nothing once `pack` has reached depth `k`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `bias` is not one entry per
/// output column, `x` is not `m · k` codes or `out` is not `m · n` codes.
pub fn gemm_i8_requant_into(
    x: &[i8],
    m: usize,
    weights: &PackedWeights,
    bias: &[i32],
    params: RequantParams,
    pack: &mut ActivationBlock,
    out: &mut [i8],
) -> Result<()> {
    let n = weights.n;
    if bias.len() != n {
        return Err(TensorError::ShapeMismatch {
            op: "gemm_i8_requant (bias length)",
            lhs: vec![bias.len()],
            rhs: vec![n],
        });
    }
    if m.checked_mul(n) != Some(out.len()) {
        return Err(TensorError::ShapeMismatch {
            op: "gemm_i8_requant (output length)",
            lhs: vec![out.len()],
            rhs: vec![m, n],
        });
    }
    let epilogue = RequantEpilogue::new(params);
    let kernel = epilogue.kernel();
    gemm_drive(x, m, weights, pack, |r, c0, accs| {
        let cols = c0..c0 + accs.len();
        kernel(
            accs,
            &bias[cols.clone()],
            &epilogue,
            &mut out[r * n..][cols],
        );
    })
}

/// [`gemm_i8_requant_into`] over tensors, allocating the output.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `bias` is not one entry per
/// output column or `x`'s width differs from the packed `k`, or a rank
/// error for non-matrix inputs.
pub fn gemm_i8_requant(
    x: &IntTensor<i8>,
    weights: &PackedWeights,
    bias: &[i32],
    params: RequantParams,
    scratch: &mut GemmScratch,
) -> Result<IntTensor<i8>> {
    let m = checked_rows(x, weights)?;
    let mut out = IntTensor::<i8>::zeros(&[m, weights.n]);
    let (x, pack) = (x.as_slice(), &mut scratch.pack);
    gemm_i8_requant_into(x, m, weights, bias, params, pack, out.as_mut_slice())?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor_i8(data: Vec<i8>, dims: &[usize]) -> IntTensor<i8> {
        IntTensor::from_vec(data, dims).expect("shape")
    }

    pub(super) fn pseudo(i: usize) -> i8 {
        (((i as i64 * 2654435761) >> 7) % 255 - 127) as i8
    }

    pub(super) fn pseudo4(i: usize) -> i8 {
        (((i as i64 * 2654435761) >> 9) % 16 - 8) as i8
    }

    /// `round-half-away(acc · multiplier / 2^shift)` clamped to ±127, in
    /// `i128`.
    pub(super) fn requant(acc: i64, params: RequantParams) -> i8 {
        let product = i128::from(acc) * i128::from(params.multiplier);
        let half = 1i128 << (params.shift - 1);
        let rounded = if product >= 0 {
            (product + half) >> params.shift
        } else {
            -((-product + half) >> params.shift)
        };
        rounded.clamp(-127, 127) as i8
    }

    #[test]
    fn matches_naive_matmul_on_non_block_multiple_shapes() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 16, 16),
            (9, 33, 21),
        ] {
            let x = tensor_i8((0..m * k).map(pseudo).collect(), &[m, k]);
            let w = tensor_i8((0..k * n).map(|i| pseudo(i + 99)).collect(), &[k, n]);
            let packed = PackedWeights::pack(&w).unwrap();
            let mut scratch = GemmScratch::new();
            let blocked = gemm_i8_i32(&x, &packed, &mut scratch).unwrap();
            let naive = x.matmul_i32(&w).unwrap();
            assert_eq!(blocked, naive, "mismatch at ({m},{k},{n})");
        }
    }

    #[test]
    fn nibble_panels_match_naive_matmul() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 16, 16),
            (9, 33, 21),
            (2, 63, 40),
        ] {
            let x = tensor_i8((0..m * k).map(pseudo).collect(), &[m, k]);
            let w = tensor_i8((0..k * n).map(|i| pseudo4(i + 99)).collect(), &[k, n]);
            let packed = PackedWeights::pack_nibble(&w).unwrap();
            assert!(packed.is_nibble());
            let mut scratch = GemmScratch::new();
            let blocked = gemm_i8_i32(&x, &packed, &mut scratch).unwrap();
            let naive = x.matmul_i32(&w).unwrap();
            assert_eq!(blocked, naive, "mismatch at ({m},{k},{n})");
        }
    }

    #[test]
    fn nibble_packing_rejects_wide_codes() {
        let w = tensor_i8(vec![8, 0, 0, 0], &[2, 2]);
        assert!(PackedWeights::pack_nibble(&w).is_err());
        let w = tensor_i8(vec![0, -9, 0, 0], &[2, 2]);
        assert!(PackedWeights::pack_nibble(&w).is_err());
    }

    #[test]
    fn nibble_panels_quarter_resident_bytes() {
        let w = tensor_i8((0..64 * 64).map(pseudo4).collect(), &[64, 64]);
        let wide = PackedWeights::pack(&w).unwrap();
        let nib = PackedWeights::pack_nibble(&w).unwrap();
        assert_eq!(nib.resident_bytes() * 4, wide.resident_bytes());
    }

    /// Nibble panels take `panels · ceil(k/4) · 64` bytes, which is exactly
    /// half a byte per weight of a full panel (`panels · ceil(k/2) · 32`)
    /// whenever `k % 4 == 0` — every BERT and benchmark shape.
    #[test]
    fn nibble_panel_bytes_are_k_quads_of_64() {
        for &(k, n) in &[(1usize, 1usize), (5, 33), (6, 64), (256, 256), (768, 100)] {
            let nib = PackedWeights::pack_nibble(&tensor_i8(vec![0; k * n], &[k, n])).unwrap();
            let panels = n.div_ceil(NR);
            assert_eq!(nib.resident_bytes(), panels * k.div_ceil(4) * QUAD_B);
            if k % 4 == 0 {
                assert_eq!(nib.resident_bytes(), panels * k.div_ceil(2) * NR);
            }
        }
    }

    /// The documented byte: `32h + 4j + t` of k-quad `q` holds
    /// `u(W[4q+t][c0+16h+j]) | u(W[4q+t][c0+16h+8+j]) << 4`, zero past the
    /// matrix.
    #[test]
    fn nibble_panels_follow_the_documented_layout() {
        let (k, n) = (6usize, 40usize);
        let w = tensor_i8((0..k * n).map(pseudo4).collect(), &[k, n]);
        let packed = PackedWeights::pack_nibble(&w).unwrap();
        let PanelStore::Nibble(data) = &packed.store else {
            panic!("pack_nibble builds nibble panels");
        };
        let k_quads = k.div_ceil(4);
        assert_eq!(data.len(), n.div_ceil(NR) * k_quads);
        let u = |kk: usize, c: usize| -> u8 {
            if kk < k && c < n {
                (w.as_slice()[kk * n + c] + 8) as u8
            } else {
                0
            }
        };
        for (row, bytes) in data.iter().enumerate() {
            let (p, q) = (row / k_quads, row % k_quads);
            for (i, &byte) in bytes.iter().enumerate() {
                let (h, j, t) = (i / 32, i % 32 / 4, i % 4);
                let c = p * NR + 16 * h + j;
                let want = u(4 * q + t, c) | u(4 * q + t, c + 8) << 4;
                assert_eq!(byte, want, "panel {p} k-quad {q} byte {i}");
            }
        }
    }

    #[test]
    fn empty_matrices_produce_empty_outputs() {
        let mut scratch = GemmScratch::new();
        for &(m, k, n) in &[(0usize, 4usize, 4usize), (4, 0, 4), (4, 4, 0), (0, 0, 0)] {
            let x = tensor_i8(vec![0; m * k], &[m, k]);
            let w = tensor_i8(vec![0; k * n], &[k, n]);
            let packed = PackedWeights::pack(&w).unwrap();
            let blocked = gemm_i8_i32(&x, &packed, &mut scratch).unwrap();
            assert_eq!(blocked, x.matmul_i32(&w).unwrap(), "({m},{k},{n})");
            assert_eq!(blocked.dims(), &[m, n]);
        }
    }

    #[test]
    fn scratch_is_reusable_across_shapes() {
        let mut scratch = GemmScratch::new();
        for &(m, k, n) in &[(5usize, 40usize, 12usize), (2, 3, 2), (7, 19, 31)] {
            let x = tensor_i8((0..m * k).map(pseudo).collect(), &[m, k]);
            let w = tensor_i8((0..k * n).map(|i| pseudo(i + 7)).collect(), &[k, n]);
            let packed = PackedWeights::pack(&w).unwrap();
            assert_eq!(
                gemm_i8_i32(&x, &packed, &mut scratch).unwrap(),
                x.matmul_i32(&w).unwrap()
            );
        }
    }

    #[test]
    fn rejects_mismatched_k_and_oversized_k() {
        let x = tensor_i8(vec![0; 6], &[2, 3]);
        let w = tensor_i8(vec![0; 8], &[4, 2]);
        let packed = PackedWeights::pack(&w).unwrap();
        assert!(gemm_i8_i32(&x, &packed, &mut GemmScratch::new()).is_err());
        assert!(PackedWeights::pack(&tensor_i8(vec![0; 3], &[3])).is_err());
    }

    #[test]
    fn nibble_panels_from_v2_bytes_match_pack_nibble() {
        for &(k, n) in &[(1usize, 1usize), (3, 5), (16, 16), (33, 21), (63, 40)] {
            let codes: Vec<i8> = (0..k * n).map(pseudo4).collect();
            let w = tensor_i8(codes.clone(), &[k, n]);
            let bytes = crate::pack4::pack_i4(&codes).unwrap();
            let from_bytes = PackedWeights::from_v2_nibble_bytes(&bytes, k, n).unwrap();
            assert_eq!(
                from_bytes,
                PackedWeights::pack_nibble(&w).unwrap(),
                "({k},{n})"
            );
            assert!(from_bytes.is_nibble());
        }
    }

    #[test]
    fn wide_panels_from_bytes_match_pack() {
        for &(k, n) in &[(1usize, 1usize), (3, 5), (16, 16), (33, 21)] {
            let codes: Vec<i8> = (0..k * n).map(pseudo).collect();
            let w = tensor_i8(codes.clone(), &[k, n]);
            // fqlint::allow(narrowing-cast): same-width i8 -> u8 test setup.
            let bytes: Vec<u8> = codes.iter().map(|&c| c as u8).collect();
            let from_bytes = PackedWeights::pack_wide_from_bytes(&bytes, k, n).unwrap();
            assert_eq!(from_bytes, PackedWeights::pack(&w).unwrap(), "({k},{n})");
        }
    }

    #[test]
    fn from_bytes_constructors_reject_bad_encodings() {
        // Wrong byte counts.
        assert!(PackedWeights::from_v2_nibble_bytes(&[0u8; 3], 2, 2).is_err());
        assert!(PackedWeights::pack_wide_from_bytes(&[0u8; 3], 2, 2).is_err());
        // Odd element count with dirty trailing high nibble.
        assert!(PackedWeights::from_v2_nibble_bytes(&[0x00, 0x10], 1, 3).is_err());
        assert!(PackedWeights::from_v2_nibble_bytes(&[0x00, 0x01], 1, 3).is_ok());
        // Depth beyond MAX_K.
        assert!(PackedWeights::from_v2_nibble_bytes(&vec![0u8; MAX_K + 1], MAX_K + 1, 2).is_err());
    }

    #[test]
    fn requant_epilogue_matches_reference_per_element() {
        let params = RequantParams {
            multiplier: 715_827_883, // ~ 2/3 in Q1.30
            shift: 31,
            clamp: 127,
        };
        assert!(params.simd_exact());
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (3, 5, 7), (9, 33, 21)] {
            let x = tensor_i8((0..m * k).map(pseudo).collect(), &[m, k]);
            let w = tensor_i8((0..k * n).map(|i| pseudo(i + 99)).collect(), &[k, n]);
            let bias: Vec<i32> = (0..n).map(|c| (c as i32 - 3) * 1000).collect();
            let packed = PackedWeights::pack(&w).unwrap();
            let mut scratch = GemmScratch::new();
            let fused = gemm_i8_requant(&x, &packed, &bias, params, &mut scratch).unwrap();
            let raw = gemm_i8_i32(&x, &packed, &mut scratch).unwrap();
            for r in 0..m {
                for (c, &b) in bias.iter().enumerate() {
                    assert_eq!(
                        fused.as_slice()[r * n + c],
                        requant(i64::from(raw.as_slice()[r * n + c]) + i64::from(b), params),
                        "({m},{k},{n}) at ({r},{c})"
                    );
                }
            }
        }
    }

    #[test]
    fn requant_rejects_mismatched_bias() {
        let x = tensor_i8(vec![1, 2], &[1, 2]);
        let w = tensor_i8(vec![1, 0, 0, 1], &[2, 2]);
        let packed = PackedWeights::pack(&w).unwrap();
        let params = RequantParams {
            multiplier: 1 << 30,
            shift: 30,
            clamp: 127,
        };
        let err = gemm_i8_requant(&x, &packed, &[0], params, &mut GemmScratch::new());
        assert!(err.is_err());
    }

    /// Every slice starts on a cache line, whatever the sizes before it and
    /// however the backing grew, and the slices are disjoint and as long
    /// as asked.
    #[test]
    fn arena_slices_start_on_cache_lines() {
        let mut arena = ByteArena::default();
        for sizes in [[1usize, 63, 64], [0, 0, 1], [200, 7, 4096], [65, 1, 0]] {
            let slices = arena.slices(sizes);
            for (slice, len) in slices.iter().zip(sizes) {
                assert_eq!(slice.len(), len);
                assert_eq!(slice.as_ptr().addr() % LINE, 0, "sizes {sizes:?}");
            }
            let [a, b, c] = slices;
            a.fill(1);
            b.fill(2);
            c.fill(3);
            assert!(a.iter().all(|&v| v == 1) && b.iter().all(|&v| v == 2));
        }
        // Wider elements: sizes count elements, lines stay 64 bytes.
        let mut words = LineArena::<i32>::default();
        for sizes in [[1usize, 15, 17], [0, 3, 1024], [16, 1, 0]] {
            let slices = words.slices(sizes);
            for (slice, len) in slices.iter().zip(sizes) {
                assert_eq!(slice.len(), len);
                assert_eq!(slice.as_ptr().addr() % LINE, 0, "sizes {sizes:?}");
            }
        }
    }

    #[test]
    fn packed_accessors_report_shape() {
        let w = tensor_i8((0..6).map(|i| i as i8).collect(), &[2, 3]);
        let packed = PackedWeights::pack(&w).unwrap();
        assert_eq!(packed.k(), 2);
        assert_eq!(packed.n(), 3);
        assert!(!packed.is_nibble());
    }
}
