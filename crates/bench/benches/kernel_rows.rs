//! Row against row: every GEMM dispatch row available on this host
//! (`kernels::available()`) against the scalar row, on whole int8
//! (wide-panel) and int4 (nibble-panel) projections and on the requantize
//! epilogue alone — the one comparison `benchmark/` (fqbench) cannot make,
//! because it refuses to run with `FQBERT_KERNEL` set.
//!
//! Each output is asserted bit-identical to the scalar row's before it is
//! timed. Prints one table per shape, nanoseconds per call, with each
//! row's speedup over scalar and `w4_over_w8` (w8 ns / w4 ns within one
//! row — the CPU counterpart of a BIM fitting two 8b×4b products in one
//! 8b×8b slot), then one table of `Add & LN` nanoseconds per 256- and
//! 768-wide row at calibrated parameters, one of byte-table (GELU)
//! nanoseconds per 128 × 1024 block, one of softmax nanoseconds per
//! 128- and 512-wide row and one of attention nanoseconds per head
//! (`attend_head`) at 16, 32 and 128 tokens of 64 head dimensions. Run with
//! `cargo bench -p fqbert-bench --bench kernel_rows`.

use fqbert_bench::{markdown_table, time_ns};
use fqbert_core::IntLinear;
use fqbert_tensor::gemm::kernels::{self, KernelKind};
use fqbert_tensor::gemm::{
    gemm_i8_requant_into, AddNormParams, AttentionScratch, RequantEpilogue, RequantParams,
    SoftmaxParams, StridedView, ADD_NORM_FRAC_BITS,
};
use fqbert_tensor::{GemmScratch, IntTensor, PackedWeights, RngSource};
use std::hint::black_box;

/// Projection shapes swept: rows are packed batch tokens, in/out features
/// are hidden/intermediate sized. The last two are BERT-base's FFN
/// projections over 256 tokens, where the panels no longer fit L2.
const SHAPES: [(usize, usize, usize); 4] = [
    (64, 128, 512),
    (128, 256, 256),
    (256, 768, 3072),
    (256, 3072, 768),
];

/// Nanoseconds per forward of `layer` on each available row, after
/// checking the row's output against the scalar row's.
fn time_projection(layer: &IntLinear, x: &IntTensor<i8>) -> Vec<f64> {
    let mut scratch = GemmScratch::new();
    kernels::force(KernelKind::Scalar);
    let reference = layer
        .forward_with_scratch(x, &mut scratch)
        .expect("scalar reference");
    let times = kernels::available()
        .into_iter()
        .map(|kind| {
            kernels::force(kind);
            assert_eq!(
                layer
                    .forward_with_scratch(x, &mut scratch)
                    .expect("forward"),
                reference,
                "w{} outputs must stay bit-identical on {}",
                layer.weight_bits(),
                kind.name()
            );
            time_ns(|| {
                layer
                    .forward_with_scratch(black_box(x), &mut scratch)
                    .expect("forward")
            })
        })
        .collect();
    kernels::force(kernels::best_available());
    times
}

/// Nanoseconds per `rows × outf` block of each available row's requantize
/// epilogue, checked against the scalar row first. The parameters sit
/// inside the SIMD-exact envelope, the regime `gemm_i8_requant` routes to
/// these kernels.
fn time_requant(rows: usize, outf: usize) -> Vec<f64> {
    let acc: Vec<i32> = (0..rows * outf)
        .map(|i| ((i as i64 * 2654435761 + 12345) % 200_000 - 100_000) as i32)
        .collect();
    let bias: Vec<i32> = (0..outf).map(|i| (i as i32 * 977) % 3000 - 1500).collect();
    let params = RequantParams {
        multiplier: (1 << 30) / 3,
        shift: 38,
        clamp: 127,
    };
    assert!(params.simd_exact());
    let epilogue = RequantEpilogue::new(params);
    let run = |kind: KernelKind, out: &mut [i8]| {
        let requant = kernels::dispatch_for(kind).requant;
        for (acc_row, out_row) in acc.chunks_exact(outf).zip(out.chunks_exact_mut(outf)) {
            requant(black_box(acc_row), &bias, &epilogue, out_row);
        }
    };
    let mut reference = vec![0i8; rows * outf];
    run(KernelKind::Scalar, &mut reference);
    kernels::available()
        .into_iter()
        .map(|kind| {
            let mut out = vec![0i8; rows * outf];
            run(kind, &mut out);
            assert_eq!(
                out,
                reference,
                "requant epilogue must stay bit-identical on {}",
                kind.name()
            );
            time_ns(|| run(kind, &mut out))
        })
        .collect()
}

/// Nanoseconds per `rows × inf × outf` w4 projection including its
/// requantize epilogue — `gemm_i8_requant_into` into a buffer that already
/// exists, the call the encoder makes per projection — on each available
/// row, checked against the scalar row first.
fn time_projection_into(rows: usize, inf: usize, outf: usize) -> Vec<f64> {
    let codes = |len: usize, salt: usize| (0..len).map(move |i| (i * 2_654_435_761 + salt) >> 9);
    let weights: Vec<i8> = codes(inf * outf, 3).map(|c| (c % 16) as i8 - 8).collect();
    let weights = IntTensor::from_vec(weights, &[inf, outf]).expect("weights");
    let panels = PackedWeights::pack_nibble(&weights).expect("nibble panels");
    let x: Vec<i8> = codes(rows * inf, 11).map(|c| c as i8).collect();
    let bias: Vec<i32> = (0..outf).map(|i| (i as i32 * 977) % 3000 - 1500).collect();
    let params = RequantParams {
        multiplier: (1 << 30) / 3,
        shift: 38,
        clamp: 127,
    };
    let mut scratch = GemmScratch::new();
    let mut run = |out: &mut [i8]| {
        let (x, pack) = (black_box(&x[..]), &mut scratch.pack);
        gemm_i8_requant_into(x, rows, &panels, &bias, params, pack, out).expect("projection");
    };
    let mut reference = vec![0i8; rows * outf];
    kernels::force(KernelKind::Scalar);
    run(&mut reference);
    let times = kernels::available()
        .into_iter()
        .map(|kind| {
            kernels::force(kind);
            let mut out = vec![0i8; rows * outf];
            run(&mut out);
            assert_eq!(
                out,
                reference,
                "projections must stay bit-identical on {}",
                kind.name()
            );
            time_ns(|| run(&mut out))
        })
        .collect();
    kernels::force(kernels::best_available());
    times
}

/// Nanoseconds per `hidden`-wide row of each available row's `Add & LN`
/// over 128 rows, checked against the scalar row first: operands at 20 and
/// 30 levels per unit, 25 output levels per unit, parameters on the stored
/// 6-bit grid.
fn time_add_norm(hidden: usize) -> Vec<f64> {
    const ROWS: usize = 128;
    let one = 1i32 << ADD_NORM_FRAC_BITS;
    let param = |i: usize, salt: usize| ((i * 37 + salt) % 256) as i32 - 128;
    let params = AddNormParams::new(
        one / 20,
        one / 30,
        (0..hidden).map(|i| param(i, 3) * (one / 64)).collect(),
        (0..hidden).map(|i| param(i, 101) * (one / 64)).collect(),
        1,
        25 * one,
    )
    .expect("Add & LN parameters");
    assert!(params.simd_exact());
    let codes = |salt: usize| -> Vec<i8> {
        (0..ROWS * hidden)
            .map(|i| ((i * 2_654_435_761 + salt) >> 7) as i8)
            .collect()
    };
    let (a, b) = (codes(1), codes(99));
    let mut sums = vec![0i32; hidden];
    let mut reference = vec![0i8; ROWS * hidden];
    (kernels::dispatch_for(KernelKind::Scalar).add_norm)(
        &params,
        &mut sums,
        &a,
        &b,
        &mut reference,
    );
    kernels::available()
        .into_iter()
        .map(|kind| {
            let add_norm = kernels::dispatch_for(kind).add_norm;
            let mut out = vec![0i8; ROWS * hidden];
            add_norm(&params, &mut sums, &a, &b, &mut out);
            assert_eq!(
                out,
                reference,
                "Add & LN must stay bit-identical on {}",
                kind.name()
            );
            time_ns(|| add_norm(&params, &mut sums, black_box(&a), &b, &mut out)) / ROWS as f64
        })
        .collect()
}

/// Nanoseconds per `rows × cols` block of each available row's byte-table
/// lookup (the GELU pass over an FFN1 output), checked against the scalar
/// row first: a table that is no simple function of its index, every code
/// in the block.
fn time_table(rows: usize, cols: usize) -> Vec<f64> {
    let table: [i8; 256] = std::array::from_fn(|i| ((i * 167 + 91) % 256) as u8 as i8);
    let codes: Vec<i8> = (0..rows * cols)
        .map(|i| ((i * 2_654_435_761) >> 9) as i8)
        .collect();
    let mut reference = codes.clone();
    (kernels::dispatch_for(KernelKind::Scalar).table)(&table, &mut reference);
    kernels::available()
        .into_iter()
        .map(|kind| {
            let lookup = kernels::dispatch_for(kind).table;
            let mut block = codes.clone();
            lookup(&table, &mut block);
            assert_eq!(
                block,
                reference,
                "the table lookup must stay bit-identical on {}",
                kind.name()
            );
            // In place: every timed call maps the block through the table
            // once more, which costs what the first call did.
            time_ns(|| lookup(&table, black_box(&mut block)))
        })
        .collect()
}

/// Nanoseconds per `seq`-wide row of each available row's softmax over 128
/// rows of scores, checked against the scalar row first: the exponential
/// table at 8 levels per unit, 255 probability levels.
fn time_softmax(seq: usize) -> Vec<f64> {
    const ROWS: usize = 128;
    let table = std::array::from_fn(|d| ((-(d as f32) / 8.0).exp() * 255.0).round() as u8);
    let params = SoftmaxParams::new(table, 255).expect("softmax parameters");
    let scores: Vec<i8> = (0..ROWS * seq)
        .map(|i| (((i * 2_654_435_761) >> 9) % 97) as i8 - 60)
        .collect();
    let run = |kind: KernelKind, out: &mut [u8]| {
        let softmax = kernels::dispatch_for(kind).softmax;
        for (scores, probs) in scores.chunks_exact(seq).zip(out.chunks_exact_mut(seq)) {
            softmax(&params, black_box(scores), probs);
        }
    };
    let mut reference = vec![0u8; ROWS * seq];
    run(KernelKind::Scalar, &mut reference);
    kernels::available()
        .into_iter()
        .map(|kind| {
            let mut out = vec![0u8; ROWS * seq];
            run(kind, &mut out);
            assert_eq!(
                out,
                reference,
                "softmax must stay bit-identical on {}",
                kind.name()
            );
            time_ns(|| run(kind, &mut out)) / ROWS as f64
        })
        .collect()
}

/// Nanoseconds per `attend_head` of one `seq × head_dim` head on each
/// available row, checked against the scalar row first: the score and
/// context scales of a calibrated layer, the exponential table at 8 levels
/// per unit.
fn time_attention(seq: usize, head_dim: usize) -> Vec<f64> {
    let table = std::array::from_fn(|d| ((-(d as f32) / 8.0).exp() * 255.0).round() as u8);
    let softmax = SoftmaxParams::new(table, 255).expect("softmax parameters");
    let score_params = RequantParams {
        multiplier: 1 << 30,
        shift: 39,
        clamp: 127,
    };
    let context_params = RequantParams {
        multiplier: 1 << 30,
        shift: 38,
        clamp: 127,
    };
    let codes = |salt: usize| -> Vec<i8> {
        (0..seq * head_dim)
            .map(|i| ((i * 2_654_435_761 + salt) >> 9) as i8)
            .collect()
    };
    let (q, k, v) = (codes(1), codes(2), codes(3));
    let mut scratch = AttentionScratch::default();
    let mut run = |out: &mut [i8]| {
        let [q, k, v] =
            [black_box(&q), &k, &v].map(|m| StridedView::dense(m, seq, head_dim).expect("head"));
        scratch
            .attend_head(
                q,
                k,
                v,
                score_params,
                context_params,
                &softmax,
                out,
                head_dim,
            )
            .expect("attention");
    };
    let mut reference = vec![0i8; seq * head_dim];
    kernels::force(KernelKind::Scalar);
    run(&mut reference);
    let times = kernels::available()
        .into_iter()
        .map(|kind| {
            kernels::force(kind);
            let mut out = vec![0i8; seq * head_dim];
            run(&mut out);
            assert_eq!(
                out,
                reference,
                "attention must stay bit-identical on {}",
                kind.name()
            );
            time_ns(|| run(&mut out))
        })
        .collect();
    kernels::force(kernels::best_available());
    times
}

/// One table of per-row nanoseconds: a pair of columns (time, speedup over
/// the scalar row) per entry of `columns`.
fn print_row_table<const N: usize>(title: &str, names: [&str; N], columns: [Vec<f64>; N]) {
    let available = kernels::available();
    let scalar = available
        .iter()
        .position(|&kind| kind == KernelKind::Scalar)
        .expect("the scalar row is always available");
    let table: Vec<Vec<String>> = available
        .iter()
        .enumerate()
        .map(|(row, kind)| {
            let mut cells = vec![kind.name().to_string()];
            for column in &columns {
                cells.push(format!("{:.0}", column[row]));
                cells.push(format!("{:.2}", column[scalar] / column[row]));
            }
            cells
        })
        .collect();
    println!("{title}");
    let mut headers = vec!["kernel"];
    for name in names {
        headers.extend([name, "speedup_vs_scalar"]);
    }
    println!("{}", markdown_table(&headers, &table));
}

fn main() {
    let mut rng = RngSource::seed_from_u64(7);
    let available = kernels::available();
    let scalar = available
        .iter()
        .position(|&kind| kind == KernelKind::Scalar)
        .expect("the scalar row is always available");
    for (rows, inf, outf) in SHAPES {
        let bias = rng.normal_tensor(&[outf], 0.0, 0.1);
        let mut layer = |bits: u32| {
            let weight = rng.normal_tensor(&[inf, outf], 0.0, 0.3);
            IntLinear::from_float(&weight, &bias, bits, None, 16.0, 16.0).expect("layer")
        };
        let (w8_layer, w4_layer) = (layer(8), layer(4));
        let codes = (0..rows * inf).map(|i| ((i * 37 + 5) % 255) as i8);
        let x = IntTensor::<i8>::from_vec(codes.collect(), &[rows, inf]).expect("activations");
        let w8 = time_projection(&w8_layer, &x);
        let w4 = time_projection(&w4_layer, &x);
        let requant = time_requant(rows, outf);

        let table: Vec<Vec<String>> = available
            .iter()
            .enumerate()
            .map(|(row, kind)| {
                let mut cells = vec![kind.name().to_string()];
                for column in [&w8, &w4, &requant] {
                    cells.push(format!("{:.0}", column[row]));
                    cells.push(format!("{:.2}", column[scalar] / column[row]));
                }
                cells.push(format!("{:.2}", w8[row] / w4[row]));
                cells
            })
            .collect();
        println!("kernel_rows {rows}x{inf}x{outf} (rows x in x out), ns per call:");
        let speedup = "speedup_vs_scalar";
        let headers = [
            "kernel",
            "w8_ns",
            speedup,
            "w4_ns",
            speedup,
            "requant_ns",
            speedup,
            "w4_over_w8",
        ];
        println!("{}", markdown_table(&headers, &table));
    }

    print_row_table(
        "kernel_rows w4 projection incl. requantize (gemm_i8_requant_into), ns per call:",
        ["128x256x1024_ns", "256x768x3072_ns"],
        [
            time_projection_into(128, 256, 1024),
            time_projection_into(256, 768, 3072),
        ],
    );
    print_row_table(
        "kernel_rows Add & LN, ns per row:",
        ["ln256_ns", "ln768_ns"],
        [time_add_norm(256), time_add_norm(768)],
    );
    print_row_table(
        "kernel_rows table lookup (GELU), ns per 128 x 1024 block:",
        ["table_128x1024_ns"],
        [time_table(128, 1024)],
    );
    print_row_table(
        "kernel_rows softmax, ns per row:",
        ["softmax128_ns", "softmax512_ns"],
        [time_softmax(128), time_softmax(512)],
    );
    print_row_table(
        "kernel_rows attention (attend_head), ns per head of 64 dimensions:",
        ["seq16_ns", "seq32_ns", "seq128_ns"],
        [
            time_attention(16, 64),
            time_attention(32, 64),
            time_attention(128, 64),
        ],
    );
}
