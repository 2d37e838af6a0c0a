//! Row-block fused attention on the GEMM tile kernels, or on AMX tiles.
//!
//! One call to [`AttentionScratch::attend_head`] computes one head's
//! `requant(softmax(requant(Q · Kᵀ)) · V)` for one sequence — the software
//! image of the accelerator's Softmax Core sitting between two PE passes.
//! The head is read in place through [`StridedView`]s of the packed
//! projection outputs (no head copies), and it runs in one of two block
//! shapes:
//!
//! * **[`MR`]-row blocks on the `wide` tile entry** (every row but `amx`):
//!   `Kᵀ` and `V` are packed once into wide (`i16`) panels; then for every
//!   `MR`-row block of `Q`: score tiles on the `wide` kernel → the
//!   requantize kernel (zero bias) straight to `i8` scores → the `softmax`
//!   entry of the selected kernel row, one contiguous row of `u8`
//!   probabilities per query row → the block's rows interleaved once into
//!   the activation-block layout → context tiles against the `V` panels →
//!   the requantize kernel → `i8` codes at their final position of the
//!   context matrix. At most `MR × seq` scores and probabilities exist at
//!   any time.
//! * **32-row blocks on AMX tiles** (the `amx` row, `kernels::x86::amx`):
//!   no byte is widened. `Kᵀ` becomes signed-byte `B` tiles (a dword
//!   transpose of 16 key rows) and `V` byte `B` tiles (a 4-row interleave)
//!   once per head; per block of 32 query rows, `tdpbssd` over `Q`'s rows
//!   as they lie gives the block's scores for every key in one aligned
//!   `i32` block, the same requantize and softmax entries turn each row
//!   into `u8` probabilities, and `tdpbusd` takes those rows as its
//!   unsigned `A` operand against `V`. At most `32 × seq` scores and
//!   probabilities exist at any time.
//!
//! The `seq × seq` matrix is never materialised. The softmax arrives as a
//! plain-integer [`SoftmaxParams`] like the two requantizers, so every
//! stage of the pass is an entry of one kernel row or a tile product. The
//! bounds that keep both reductions exact in `i32` are derived in the
//! [`super`] module docs.

use super::{
    interleave_pairs, kernels, pack_wide_panels, ActivationBlock, RequantEpilogue, RequantParams,
    SoftmaxParams, StridedView, MAX_ATTN_SEQ, MAX_K, MR, NR, WIDE_A, WIDE_B,
};
use crate::{Result, TensorError};

/// Bias operand of the requantize kernels for the two attention products,
/// which have none: as long as the longest row either requantizes.
static ZERO_BIAS: [i32; MAX_ATTN_SEQ] = [0; MAX_ATTN_SEQ];

/// Reusable state of the fused attention pass: one head's `Kᵀ` and `V`
/// panels, the `Q` row block, and the `MR`-row score and probability
/// blocks — or, on the `amx` row, the head's tiles and 32-row blocks.
/// Nothing shrinks, so a scratch that has served a `(seq, head_dim)` once
/// serves it again without allocating.
#[derive(Debug, Default)]
pub struct AttentionScratch {
    /// `Kᵀ` panels: reduction over `head_dim`, one column per key row.
    kt: Vec<[i16; WIDE_B]>,
    /// `V` panels: reduction over `seq`, one column per head dimension.
    v: Vec<[i16; WIDE_B]>,
    q_block: ActivationBlock,
    /// Requantized scores of the current row block, `MR × seq` row-major
    /// (one row on the `amx` row).
    scores: Vec<i8>,
    /// Probabilities of the current row block, `MR × seq` row-major.
    probs: Vec<u8>,
    /// The same probabilities in activation-block layout.
    prob_pairs: Vec<[i16; WIDE_A]>,
    /// The `amx` row's tiles and blocks.
    #[cfg(target_arch = "x86_64")]
    amx: kernels::x86::amx::HeadTiles,
}

/// Interleaves the `MR` probability rows of a block (`probs`, `MR × seq`
/// row-major) into the activation-block layout in one pass, every slot
/// written: `block[pp][2r + t] = probs[r · seq + 2pp + t]`, zero past the
/// end of an odd-length row.
fn interleave_rows(probs: &[u8], seq: usize, block: &mut [[i16; WIDE_A]]) {
    let rows: [&[u8]; MR] = std::array::from_fn(|r| &probs[r * seq..][..seq]);
    let (pairs, tail) = block.split_at_mut(seq / 2);
    for (pp, dst) in pairs.iter_mut().enumerate() {
        for (lane, row) in rows.iter().enumerate() {
            let pair = &row[2 * pp..2 * pp + 2];
            dst[2 * lane] = i16::from(pair[0]);
            dst[2 * lane + 1] = i16::from(pair[1]);
        }
    }
    if let Some(dst) = tail.first_mut() {
        for (lane, row) in rows.iter().enumerate() {
            dst[2 * lane] = i16::from(row[seq - 1]);
            dst[2 * lane + 1] = 0;
        }
    }
}

impl AttentionScratch {
    /// Attention of one head over one sequence. `q`, `k` and `v` are the
    /// head's `[seq, head_dim]` windows; every query row's `seq`
    /// requantized scores go through the `softmax` entry of the selected
    /// kernel row; `out` starts at the head's first context code and is
    /// written at `out[r · out_stride + c]` for every query row `r` and
    /// head dimension `c`.
    ///
    /// Bit-identical on every kernel — the `amx` row's tile driver
    /// included — to the scalar composition `matmul_transposed_i32` →
    /// `Requantizer::apply` → the per-element division softmax
    /// (`SoftmaxLut::apply_row`) → `i64` `P · V` → `Requantizer::apply` for
    /// parameters produced by a `Requantizer` (see the [`super`] module
    /// docs).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the three windows differ in
    /// shape, `head_dim` exceeds [`MAX_K`], `seq` exceeds [`MAX_ATTN_SEQ`],
    /// or `out` is too short for the last row.
    #[allow(clippy::too_many_arguments)]
    pub fn attend_head(
        &mut self,
        q: StridedView<'_>,
        k: StridedView<'_>,
        v: StridedView<'_>,
        score_params: RequantParams,
        context_params: RequantParams,
        softmax: &SoftmaxParams,
        out: &mut [i8],
        out_stride: usize,
    ) -> Result<()> {
        let (seq, head_dim) = (q.rows(), q.cols());
        if let Some(other) = [k, v]
            .iter()
            .find(|t| (t.rows(), t.cols()) != (seq, head_dim))
        {
            return Err(TensorError::ShapeMismatch {
                op: "attend_head (q/k/v windows)",
                lhs: vec![seq, head_dim],
                rhs: vec![other.rows(), other.cols()],
            });
        }
        if head_dim > MAX_K || seq > MAX_ATTN_SEQ {
            return Err(TensorError::ShapeMismatch {
                op: "attend_head (exceeds MAX_ATTN_SEQ x MAX_K)",
                lhs: vec![seq, head_dim],
                rhs: vec![MAX_ATTN_SEQ, MAX_K],
            });
        }
        if seq == 0 || head_dim == 0 {
            return Ok(());
        }
        if head_dim > out_stride || (seq - 1) * out_stride + head_dim > out.len() {
            return Err(TensorError::ShapeMismatch {
                op: "attend_head (context window)",
                lhs: vec![out.len(), out_stride],
                rhs: vec![seq, head_dim],
            });
        }

        let kernel = kernels::selected();
        let (scores_epilogue, context_epilogue) = (
            RequantEpilogue::new(score_params),
            RequantEpilogue::new(context_params),
        );
        let requant_scores = scores_epilogue.kernel();
        let requant_context = context_epilogue.kernel();
        // The `amx` row runs the whole head on tiles, handing this pass the
        // score rows and the context segments for the same entries.
        #[cfg(target_arch = "x86_64")]
        if kernel.kind == kernels::KernelKind::Amx {
            self.scores.resize(seq, 0);
            let scores = &mut self.scores;
            let probabilities = |accs: &[i32], probs: &mut [u8]| {
                requant_scores(accs, &ZERO_BIAS[..seq], &scores_epilogue, scores);
                (kernel.softmax)(softmax, scores, probs);
            };
            let sink = |r: usize, c0: usize, accs: &[i32]| {
                let at = r * out_stride + c0;
                let (bias, out) = (&ZERO_BIAS[..accs.len()], &mut out[at..at + accs.len()]);
                requant_context(accs, bias, &context_epilogue, out);
            };
            kernels::x86::amx::attend(&mut self.amx, [q, k, v], probabilities, sink);
            return Ok(());
        }

        // Kᵀ as a [head_dim, seq] matrix: its k-pair (2pp, 2pp+1) for key
        // row j is two adjacent bytes of that row.
        let (dim_pairs, seq_pairs) = (head_dim.div_ceil(2), seq.div_ceil(2));
        self.kt.clear();
        self.kt.resize(seq.div_ceil(NR) * dim_pairs, [0i16; WIDE_B]);
        for (p, panel) in self.kt.chunks_exact_mut(dim_pairs).enumerate() {
            for j in 0..NR.min(seq - p * NR) {
                interleave_pairs(k.row(p * NR + j), panel, j);
            }
        }
        pack_wide_panels(&mut self.v, v);
        self.scores.resize(MR * seq, 0);
        self.probs.resize(MR * seq, 0);
        self.prob_pairs.resize(seq_pairs, [0i16; WIDE_A]);

        for r0 in (0..seq).step_by(MR) {
            let rows = MR.min(seq - r0);
            let q_block = self.q_block.pack_rows(q, r0, rows);
            for (p, panel) in self.kt.chunks_exact(dim_pairs).enumerate() {
                let c0 = p * NR;
                let cols = NR.min(seq - c0);
                let mut acc = [[0i32; NR]; MR];
                (kernel.wide)(q_block, panel, &mut acc);
                let score_rows = self.scores.chunks_exact_mut(seq);
                for (row, scores) in acc.iter().zip(score_rows).take(rows) {
                    requant_scores(
                        &row[..cols],
                        &ZERO_BIAS[..cols],
                        &scores_epilogue,
                        &mut scores[c0..c0 + cols],
                    );
                }
            }
            let score_rows = self.scores.chunks_exact(seq);
            let prob_rows = self.probs.chunks_exact_mut(seq);
            for (scores, probs) in score_rows.zip(prob_rows).take(rows) {
                (kernel.softmax)(softmax, scores, probs);
            }
            // The rows a short last block lacks read as zero.
            self.probs[rows * seq..].fill(0);
            interleave_rows(&self.probs, seq, &mut self.prob_pairs);
            for (p, panel) in self.v.chunks_exact(seq_pairs).enumerate() {
                let c0 = p * NR;
                let cols = NR.min(head_dim - c0);
                let mut acc = [[0i32; NR]; MR];
                (kernel.wide)(&self.prob_pairs, panel, &mut acc);
                for (r, row) in acc.iter().enumerate().take(rows) {
                    let at = (r0 + r) * out_stride + c0;
                    requant_context(
                        &row[..cols],
                        &ZERO_BIAS[..cols],
                        &context_epilogue,
                        &mut out[at..at + cols],
                    );
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IntTensor;
    use std::ops::Range;

    fn pseudo(i: usize) -> i8 {
        (((i as i64 * 2654435761) >> 7) % 255 - 127) as i8
    }

    /// `round-half-away(acc · multiplier / 2^shift)` clamped to ±127.
    fn requant(acc: i64, params: RequantParams) -> i64 {
        let product = i128::from(acc) * i128::from(params.multiplier);
        let half = 1i128 << (params.shift - 1);
        let rounded = if product >= 0 {
            (product + half) >> params.shift
        } else {
            -((-product + half) >> params.shift)
        };
        rounded.clamp(-127, 127) as i64
    }

    /// A softmax over an exponential table at 8 levels per unit.
    fn softmax_params() -> SoftmaxParams {
        let table = std::array::from_fn(|d| (255.0 * (-(d as f64) / 8.0).exp()).round() as u8);
        SoftmaxParams::new(table, 255).expect("softmax")
    }

    /// The accelerator's softmax of one row: a division per element.
    fn softmax_by_division(params: &SoftmaxParams, scores: &[i64]) -> Vec<i64> {
        let max = *scores.iter().max().expect("non-empty row");
        let numerator = |s: i64| i64::from(params.table()[usize::try_from(max - s).unwrap()]);
        let denom: i64 = scores.iter().map(|&s| numerator(s)).sum();
        let levels = i64::from(params.out_levels());
        scores
            .iter()
            .map(|&s| (numerator(s) * levels + denom / 2) / denom)
            .collect()
    }

    fn head_view(m: &[i8], width: usize, seq: usize, cols: Range<usize>) -> StridedView<'_> {
        StridedView::new(m, width, 0..seq, cols).expect("head window")
    }

    #[test]
    fn head_inside_a_wider_matrix_matches_the_scalar_composition() {
        let score_params = RequantParams {
            multiplier: 715_827_883,
            shift: 38,
            clamp: 127,
        };
        let context_params = RequantParams {
            multiplier: 1 << 29,
            shift: 37,
            clamp: 127,
        };
        let softmax = softmax_params();
        let mut scratch = AttentionScratch::default();
        // A scratch that served a larger head first must not leak into a
        // smaller one; odd and block-straddling shapes exercise the padding
        // (the short last block after a full one, the odd last k-pair).
        for &(seq, head_dim, heads, head) in &[
            (37usize, 33usize, 3usize, 1usize),
            (5, 8, 2, 1),
            (1, 1, 1, 0),
            (33, 3, 4, 3),
            (70, 2, 1, 0),
        ] {
            let width = heads * head_dim;
            let fill =
                |salt: usize| -> Vec<i8> { (0..seq * width).map(|i| pseudo(i + salt)).collect() };
            let (qm, km, vm) = (fill(1), fill(77), fill(191));
            let lo = head * head_dim;
            let view = |m| head_view(m, width, seq, lo..lo + head_dim);
            let block = |m| {
                let rows: Vec<i8> = (0..seq).flat_map(|r| view(m).row(r).to_vec()).collect();
                IntTensor::from_vec(rows, &[seq, head_dim]).expect("head block")
            };
            let (qh, kh, vh) = (block(&qm), block(&km), block(&vm));
            let scores = qh.matmul_transposed_i32(&kh).expect("scores");
            let probs: Vec<Vec<i64>> = (0..seq)
                .map(|i| {
                    let row = scores.row(i).iter();
                    let row: Vec<i64> = row.map(|&s| requant(i64::from(s), score_params)).collect();
                    softmax_by_division(&softmax, &row)
                })
                .collect();
            // On the process-selected kernel row; `proptest_encoder_layer`
            // drives every available one (forcing a row here would race the
            // other unit tests of this process).
            let mut out = vec![99i8; seq * width];
            scratch
                .attend_head(
                    view(&qm),
                    view(&km),
                    view(&vm),
                    score_params,
                    context_params,
                    &softmax,
                    &mut out[lo..],
                    width,
                )
                .expect("attend");
            for (i, probs) in probs.iter().enumerate() {
                for d in 0..head_dim {
                    let products = probs.iter().zip(0..seq);
                    let acc: i64 = products.map(|(p, j)| p * i64::from(vh.row(j)[d])).sum();
                    assert_eq!(
                        i64::from(out[i * width + lo + d]),
                        requant(acc, context_params),
                        "({seq},{head_dim}) at ({i},{d})"
                    );
                }
            }
            // Nothing outside the head's columns was touched.
            for (i, &code) in out.iter().enumerate() {
                let c = i % width;
                assert!((lo..lo + head_dim).contains(&c) || code == 99);
            }
        }
    }

    #[test]
    fn rejects_mismatched_windows_and_short_outputs() {
        let m = vec![0i8; 6 * 4];
        let a = StridedView::dense(&m, 6, 4).unwrap();
        let b = StridedView::dense(&m[..20], 5, 4).unwrap();
        let params = RequantParams {
            multiplier: 1 << 30,
            shift: 30,
            clamp: 127,
        };
        let softmax = softmax_params();
        let mut scratch = AttentionScratch::default();
        let mut out = vec![0i8; 6 * 4];
        let mut run = |q, k, v, out: &mut [i8], stride| {
            scratch.attend_head(q, k, v, params, params, &softmax, out, stride)
        };
        assert!(run(a, b, a, &mut out, 4).is_err());
        assert!(run(a, a, b, &mut out, 4).is_err());
        assert!(run(a, a, a, &mut out[..23], 4).is_err());
        assert!(run(a, a, a, &mut out, 3).is_err());
        assert!(run(a, a, a, &mut out, 4).is_ok());
    }
}
