//! Row-block fused attention on the GEMM tile kernels, or on AMX tiles.
//!
//! One call to [`AttentionScratch::attend_head`] computes one head's
//! `requant(softmax(requant(Q · Kᵀ)) · V)` for one sequence — the software
//! image of the accelerator's Softmax Core sitting between two PE passes.
//! The head is read in place through [`StridedView`]s of the packed
//! projection outputs (no head copies). `attend_head` builds the pass's
//! two stages once — `probabilities`, which requantizes one query row's
//! `seq` score accumulators to `i8` and runs the selected row's `softmax`
//! entry over them into one contiguous row of `u8` codes, and the sink,
//! which requantizes a context segment to `i8` codes at their final
//! position of the context matrix — and hands both to the product engine
//! of the selected kernel row, which runs the head in one of two block
//! shapes:
//!
//! * **[`MR`]-row blocks on the `wide` tile kernel** (every tile row):
//!   `Kᵀ` and `V` are packed once into wide (`i16`) panels; then for every
//!   `MR`-row block of `Q`: score tiles on the `wide` kernel into an
//!   `MR × seq` block of `i32` accumulators → `probabilities` over each of
//!   its rows, each row's codes interleaved into its lane of the
//!   activation-block layout → context tiles against the `V` panels → the
//!   sink. At most `MR × seq` scores and probabilities exist at any time.
//! * **32-row blocks on AMX tiles** (the `amx` row, `kernels::x86::amx`):
//!   no byte is widened. `Kᵀ` becomes signed-byte `B` tiles (a dword
//!   transpose of 16 key rows) and `V` byte `B` tiles (a 4-row interleave)
//!   once per head; per block of 32 query rows, `tdpbssd` over `Q`'s rows
//!   as they lie gives the block's scores for every key in one aligned
//!   `i32` block, `probabilities` turns each row into `u8` codes, and
//!   `tdpbusd` takes those rows as its unsigned `A` operand against `V`.
//!   At most `32 × seq` scores and probabilities exist at any time.
//!
//! The `seq × seq` matrix is never materialised. The softmax arrives as a
//! plain-integer [`SoftmaxParams`] like the two requantizers, so every
//! stage of the pass is an entry of one kernel row or a tile product. The
//! bounds that keep both reductions exact in `i32` are derived in the
//! [`super`] module docs.

use super::kernels::{self, Products, WideKernel};
use super::{
    interleave_pairs, pack_wide_panels, tile_panels, ActivationBlock, RequantEpilogue,
    RequantParams, SoftmaxParams, StridedView, MAX_ATTN_SEQ, MAX_K, MR, NR, WIDE_A, WIDE_B,
};
use crate::{Result, TensorError};

/// Bias operand of the requantize kernels for the two attention products,
/// which have none: as long as the longest row either requantizes.
static ZERO_BIAS: [i32; MAX_ATTN_SEQ] = [0; MAX_ATTN_SEQ];

/// Reusable state of the fused attention pass: one query row's requantized
/// scores and the buffers of both product engines. Nothing shrinks, so a
/// scratch that has served a `(seq, head_dim)` once serves it again without
/// allocating.
#[derive(Debug, Default)]
pub struct AttentionScratch {
    /// The requantized scores of one query row, the softmax's input.
    scores: Vec<i8>,
    /// The tile engine's panels and blocks.
    tiles: HeadPanels,
    /// The `amx` row's tiles and blocks.
    #[cfg(target_arch = "x86_64")]
    amx: kernels::x86::amx::HeadTiles,
}

/// The grow-only buffers of [`attend_tiles`]. What one head leaves in
/// them never reaches the next head's output: the probability lanes a
/// later row does not overwrite only meet discarded rows or zero `V`
/// padding.
#[derive(Debug, Default)]
struct HeadPanels {
    /// `Kᵀ` panels: reduction over `head_dim`, one column per key row.
    kt: Vec<[i16; WIDE_B]>,
    /// `V` panels: reduction over `seq`, one column per head dimension.
    v: Vec<[i16; WIDE_B]>,
    q_block: ActivationBlock,
    /// Score accumulators of the current row block, `MR × seq` row-major.
    scores: Vec<i32>,
    /// The probabilities of one query row.
    probs: Vec<u8>,
    /// The current row block's probabilities in activation-block layout.
    prob_pairs: Vec<[i16; WIDE_A]>,
}

/// The tile engine's attention of one non-empty head, under the contract of
/// `x86::amx::attend`: `q`, `k` and `v` are the head's `[seq, head_dim]`
/// windows; for every query row, in order, `probabilities(accs, probs)`
/// turns its `seq` score accumulators into its `seq` probability codes, and
/// every context accumulator row segment goes to `sink(row, c0, accs)` once
/// (`accs[j]` is head dimension `c0 + j`, `c0` a multiple of [`NR`]). Both
/// products run on `wide`.
fn attend_tiles(
    scratch: &mut HeadPanels,
    [q, k, v]: [StridedView<'_>; 3],
    wide: WideKernel,
    mut probabilities: impl FnMut(&[i32], &mut [u8]),
    mut sink: impl FnMut(usize, usize, &[i32]),
) {
    let (seq, head_dim) = (q.rows(), q.cols());
    // Kᵀ as a [head_dim, seq] matrix: its k-pair (2pp, 2pp+1) for key
    // row j is two adjacent bytes of that row.
    let (kt, dim_pairs) = (&mut scratch.kt, head_dim.div_ceil(2));
    kt.clear();
    kt.resize(seq.div_ceil(NR) * dim_pairs, [0i16; WIDE_B]);
    for (p, panel) in kt.chunks_exact_mut(dim_pairs).enumerate() {
        for j in 0..NR.min(seq - p * NR) {
            interleave_pairs(k.row(p * NR + j), panel, j);
        }
    }
    pack_wide_panels(&mut scratch.v, v);
    scratch.scores.resize(MR * seq, 0);
    scratch.probs.resize(seq, 0);
    scratch.prob_pairs.resize(seq.div_ceil(2), [0i16; WIDE_A]);

    for r0 in (0..seq).step_by(MR) {
        let rows = MR.min(seq - r0);
        let block = scratch.q_block.pack_rows(q, r0, rows);
        let (kt, scores) = (&scratch.kt, &mut scratch.scores);
        tile_panels(wide, block, kt, seq, [0; MR], 0..rows, |r, c0, accs| {
            scores[r * seq + c0..][..accs.len()].copy_from_slice(accs)
        });
        // Lanes past `rows`, and the second slot of an odd row's last
        // pair, keep what an earlier row left: probabilities, which only
        // meet discarded rows or zero `V` padding.
        for (r, accs) in scratch.scores.chunks_exact(seq).take(rows).enumerate() {
            probabilities(accs, &mut scratch.probs);
            interleave_pairs(&scratch.probs, &mut scratch.prob_pairs, r);
        }
        let (pairs, v) = (&scratch.prob_pairs, &scratch.v);
        tile_panels(wide, pairs, v, head_dim, [0; MR], r0..r0 + rows, &mut sink);
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
        // Where the last row's context ends; `None` is past any slice.
        let end = (seq - 1)
            .checked_mul(out_stride)
            .and_then(|start| start.checked_add(head_dim));
        if head_dim > out_stride || end.is_none_or(|end| end > out.len()) {
            return Err(TensorError::ShapeMismatch {
                op: "attend_head (context window)",
                lhs: vec![out.len(), out_stride],
                rhs: vec![seq, head_dim],
            });
        }

        let kernel = kernels::selected();
        let scores_epilogue = RequantEpilogue::new(score_params);
        let context_epilogue = RequantEpilogue::new(context_params);
        let requant_scores = scores_epilogue.kernel();
        let requant_context = context_epilogue.kernel();
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
        let head = [q, k, v];
        match kernel.products {
            Products::Tiles { wide, .. } => {
                attend_tiles(&mut self.tiles, head, wide, probabilities, sink)
            }
            #[cfg(target_arch = "x86_64")]
            Products::Amx => kernels::x86::amx::attend(&mut self.amx, head, probabilities, sink),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(target_arch = "x86_64")]
    use crate::gemm::kernels::x86::amx;
    use crate::gemm::tests::{pseudo, pseudo4, requant};
    use crate::gemm::PackedWeights;
    use crate::IntTensor;
    use std::ops::Range;

    /// A softmax over an exponential table at 8 levels per unit.
    fn softmax_params() -> SoftmaxParams {
        let table = std::array::from_fn(|d| (255.0 * (-(d as f64) / 8.0).exp()).round() as u8);
        SoftmaxParams::new(table, 255).expect("softmax")
    }

    /// The accelerator's softmax of one row: a division per element.
    fn softmax_by_division(params: &SoftmaxParams, scores: &[i8]) -> Vec<i64> {
        let max = *scores.iter().max().expect("non-empty row");
        let numerator = |s: i8| i64::from(params.table()[usize::from(max.abs_diff(s))]);
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
                    let row: Vec<i8> = row.map(|&s| requant(i64::from(s), score_params)).collect();
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
                        out[i * width + lo + d],
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
        let two_rows = StridedView::dense(&[0; 2 * 64], 2, 64).unwrap();
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
        // A stride that puts the last row past any slice is refused, not
        // wrapped around to an index inside `out`.
        assert!(run(two_rows, two_rows, two_rows, &mut [0; 100], usize::MAX).is_err());
    }

    /// The contract both product engines share, on every engine a row of
    /// this host names (called directly: forcing a row would race the other
    /// unit tests of this process): the sink sees every `(row, c0)` exactly
    /// once, `c0` a multiple of `NR`, with `min(NR, n − c0)` accumulators,
    /// and `probabilities` runs once per query row, in order, with `seq`
    /// accumulators.
    #[test]
    fn both_engines_hand_every_segment_over_once() {
        const SIZES: [usize; 11] = [1, 3, 4, 5, 15, 16, 17, 31, 32, 33, 65];
        const WIDTHS: [usize; 5] = [1, 31, 32, 33, 64];
        // The projections' depth: a whole AMX k-step and a tail, an odd
        // number of k-pairs and a k-quad tail.
        const K: usize = 70;
        // Zeroes `seen`, then checks every segment's shape and counts it in
        // `seen[row · ⌈n / NR⌉ + c0 / NR]`.
        fn counting(seen: &mut [u32], n: usize) -> impl FnMut(usize, usize, &[i32]) + '_ {
            seen.fill(0);
            move |row, c0, accs| {
                assert_eq!((c0 % NR, accs.len()), (0, NR.min(n - c0)), "({row}, {c0})");
                seen[row * n.div_ceil(NR) + c0 / NR] += 1;
            }
        }
        let mut scratch = crate::gemm::GemmScratch::new();
        for kind in kernels::available() {
            let products = kernels::dispatch_for(kind).products;
            for (m, n) in SIZES.into_iter().flat_map(|m| WIDTHS.map(|n| (m, n))) {
                let shape = format!("{} at ({m}, {n})", kind.name());
                let x: Vec<i8> = (0..m * K).map(pseudo).collect();
                let w = IntTensor::from_vec((0..K * n).map(pseudo4).collect(), &[K, n]).unwrap();
                let mut seen = vec![0; m * n.div_ceil(NR)];
                for weights in [PackedWeights::pack(&w), PackedWeights::pack_nibble(&w)] {
                    let (weights, pack) = (weights.expect("panels"), &mut scratch.pack);
                    let sink = counting(&mut seen, n);
                    match products {
                        Products::Tiles { wide, nibble } => {
                            crate::gemm::drive_tiles(&x, m, &weights, pack, wide, nibble, sink)
                        }
                        #[cfg(target_arch = "x86_64")]
                        Products::Amx => amx::drive(&x, m, &weights, &mut pack.lines, sink),
                    }
                    assert!(seen.iter().all(|&c| c == 1), "drive {shape}: {seen:?}");
                }

                // Query row `r`'s every score is `r`: `q[r] = (r, 0, …)` and
                // `k[j] = (1, 0, …)`, which serves as `v` too.
                let first = |i: usize| i8::from(i.is_multiple_of(n));
                let q: Vec<i8> = (0..m * n).map(|i| (i / n) as i8 * first(i)).collect();
                let k: Vec<i8> = (0..m * n).map(first).collect();
                let (q, k) = (head_view(&q, n, m, 0..n), head_view(&k, n, m, 0..n));
                let mut next = 0;
                let probabilities = |accs: &[i32], probs: &mut [u8]| {
                    assert_eq!((accs.len(), probs.len()), (m, m), "{shape}");
                    assert!(accs.iter().all(|&acc| acc == next), "{shape}: row {next}");
                    probs.fill(1);
                    next += 1;
                };
                let (attn, sink) = (&mut scratch.attn, counting(&mut seen, n));
                match products {
                    Products::Tiles { wide, .. } => {
                        attend_tiles(&mut attn.tiles, [q, k, k], wide, probabilities, sink)
                    }
                    #[cfg(target_arch = "x86_64")]
                    Products::Amx => amx::attend(&mut attn.amx, [q, k, k], probabilities, sink),
                }
                assert_eq!(next, m as i32, "attend {shape}: query rows");
                assert!(seen.iter().all(|&c| c == 1), "attend {shape}: {seen:?}");
            }
        }
    }
}
