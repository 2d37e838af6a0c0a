//! Row-block fused attention on the GEMM tile kernels.
//!
//! One call to [`AttentionScratch::attend_head`] computes one head's
//! `requant(softmax(requant(Q · Kᵀ)) · V)` for one sequence — the software
//! image of the accelerator's Softmax Core sitting between two PE passes:
//!
//! 1. `Kᵀ` and `V` are packed once into wide panels, read in place through
//!    [`StridedView`]s of the packed projection outputs (no head copies);
//! 2. for every [`MR`]-row block of `Q`: score tiles on the `wide` kernel →
//!    the requantize kernel (zero bias) straight to `i8` scores → the
//!    caller's softmax, one row at a time, writing `u8` probabilities
//!    directly in the activation-block layout → context tiles against the
//!    `V` panels → the requantize kernel → `i8` codes at their final
//!    position of the context matrix.
//!
//! At most `MR × seq` scores exist at any time; the `seq × seq` matrix is
//! never materialised. The softmax is a parameter because the lookup table
//! lives in `fqbert-quant`, which depends on this crate. The bounds that
//! keep both reductions exact in `i32` are derived in the [`super`] module
//! docs.

use super::{
    interleave_pairs, kernels, pack_wide_panels, requant_kernel, ActivationBlock, RequantParams,
    StridedView, MAX_ATTN_SEQ, MAX_K, MR, NR, WIDE_A, WIDE_B,
};
use crate::{Result, TensorError};

/// Bias operand of the requantize kernels for the two attention products,
/// which have none.
const ZERO_BIAS: [i32; NR] = [0; NR];

/// Reusable state of the fused attention pass: one head's `Kᵀ` and `V`
/// panels, the `Q` row block, and the `MR`-row score and probability
/// blocks. Nothing shrinks, so a scratch that has served a
/// `(seq, head_dim)` once serves it again without allocating.
#[derive(Debug, Default)]
pub struct AttentionScratch {
    /// `Kᵀ` panels: reduction over `head_dim`, one column per key row.
    kt: Vec<[i16; WIDE_B]>,
    /// `V` panels: reduction over `seq`, one column per head dimension.
    v: Vec<[i16; WIDE_B]>,
    q_block: ActivationBlock,
    /// Requantized scores of the current row block, `MR × seq` row-major.
    scores: Vec<i8>,
    /// Probabilities of the current row block in activation-block layout.
    probs: Vec<[i16; WIDE_A]>,
}

/// One row of the probability block, handed to the softmax to fill.
#[derive(Debug)]
pub struct ProbRow<'a> {
    block: &'a mut [[i16; WIDE_A]],
    lane: usize,
}

impl ProbRow<'_> {
    /// Stores the probability code of key position `col`.
    ///
    /// # Panics
    ///
    /// Panics if `col` is not below the sequence length.
    pub fn set(&mut self, col: usize, prob: u8) {
        self.block[col / 2][2 * self.lane + col % 2] = i16::from(prob);
    }
}

impl AttentionScratch {
    /// Attention of one head over one sequence. `q`, `k` and `v` are the
    /// head's `[seq, head_dim]` windows; `softmax(scores, probs)` is called
    /// once per query row with that row's `seq` requantized scores and must
    /// [`ProbRow::set`] the probability of every key position (positions it
    /// skips read as zero); `out` starts at the head's first context code
    /// and is written at `out[r · out_stride + c]` for every query row `r`
    /// and head dimension `c`.
    ///
    /// Bit-identical on every kernel to the scalar composition
    /// `matmul_transposed_i32` → `Requantizer::apply` → softmax → `i64`
    /// `P · V` → `Requantizer::apply` for parameters produced by a
    /// `Requantizer` (see the [`super`] module docs).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the three windows differ in
    /// shape, `head_dim` exceeds [`MAX_K`], `seq` exceeds [`MAX_ATTN_SEQ`],
    /// or `out` is too short for the last row.
    #[allow(clippy::too_many_arguments)]
    pub fn attend_head<S: FnMut(&[i8], ProbRow<'_>)>(
        &mut self,
        q: StridedView<'_>,
        k: StridedView<'_>,
        v: StridedView<'_>,
        score_params: RequantParams,
        context_params: RequantParams,
        mut softmax: S,
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
        self.probs.resize(seq_pairs, [0i16; WIDE_A]);

        let kernel = kernels::selected();
        let requant_scores = requant_kernel(score_params);
        let requant_context = requant_kernel(context_params);
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
                        score_params,
                        &mut scores[c0..c0 + cols],
                    );
                }
            }
            // Lanes of a short last block and skipped positions read as zero.
            self.probs.fill([0i16; WIDE_A]);
            for (lane, scores) in self.scores.chunks_exact(seq).take(rows).enumerate() {
                let block = &mut self.probs;
                softmax(scores, ProbRow { block, lane });
            }
            for (p, panel) in self.v.chunks_exact(seq_pairs).enumerate() {
                let c0 = p * NR;
                let cols = NR.min(head_dim - c0);
                let mut acc = [[0i32; NR]; MR];
                (kernel.wide)(&self.probs, panel, &mut acc);
                for (r, row) in acc.iter().enumerate().take(rows) {
                    let at = (r0 + r) * out_stride + c0;
                    requant_context(
                        &row[..cols],
                        &ZERO_BIAS[..cols],
                        context_params,
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

    /// A stand-in softmax with the real one's range: `128 + score`.
    fn shifted(score: i8) -> u8 {
        (i16::from(score) + 128) as u8
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
        let mut scratch = AttentionScratch::default();
        // A scratch that served a larger head first must not leak into a
        // smaller one; odd and block-straddling shapes exercise the padding.
        for &(seq, head_dim, heads, head) in &[
            (37usize, 33usize, 3usize, 1usize),
            (5, 8, 2, 1),
            (1, 1, 1, 0),
            (33, 3, 4, 3),
        ] {
            let width = heads * head_dim;
            let fill =
                |salt: usize| -> Vec<i8> { (0..seq * width).map(|i| pseudo(i + salt)).collect() };
            let (qm, km, vm) = (fill(1), fill(77), fill(191));
            let lo = head * head_dim;
            let view = |m| head_view(m, width, seq, lo..lo + head_dim);
            let mut out = vec![99i8; seq * width];
            scratch
                .attend_head(
                    view(&qm),
                    view(&km),
                    view(&vm),
                    score_params,
                    context_params,
                    |scores, mut probs| {
                        for (j, &s) in scores.iter().enumerate() {
                            probs.set(j, shifted(s));
                        }
                    },
                    &mut out[lo..],
                    width,
                )
                .expect("attend");

            let block = |m| {
                let rows: Vec<i8> = (0..seq).flat_map(|r| view(m).row(r).to_vec()).collect();
                IntTensor::from_vec(rows, &[seq, head_dim]).expect("head block")
            };
            let (qh, kh, vh) = (block(&qm), block(&km), block(&vm));
            let scores = qh.matmul_transposed_i32(&kh).expect("scores");
            for i in 0..seq {
                for d in 0..head_dim {
                    let acc: i64 = (0..seq)
                        .map(|j| {
                            let s = requant(i64::from(scores.row(i)[j]), score_params);
                            i64::from(shifted(s as i8)) * i64::from(vh.row(j)[d])
                        })
                        .sum();
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
        let mut scratch = AttentionScratch::default();
        let mut out = vec![0i8; 6 * 4];
        let mut run = |q, k, v, out: &mut [i8], stride| {
            scratch.attend_head(q, k, v, params, params, |_, _| {}, out, stride)
        };
        assert!(run(a, b, a, &mut out, 4).is_err());
        assert!(run(a, a, b, &mut out, 4).is_err());
        assert!(run(a, a, a, &mut out[..23], 4).is_err());
        assert!(run(a, a, a, &mut out, 3).is_err());
        assert!(run(a, a, a, &mut out, 4).is_ok());
    }
}
