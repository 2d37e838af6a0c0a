//! The `softmax` entry of every kernel row against the scalar row, byte for
//! byte: every available [`KernelKind`] through [`kernels::dispatch_for`]
//! (nothing is forced, so these tests need no serialisation), every length
//! around every vector boundary so that the lanes and the tails both run,
//! rows at the ends of the score range, and tables from the real exponential
//! to the degenerate. The scalar row itself is checked against the division
//! per element the accelerator's Softmax Core does.

use fqbert_tensor::gemm::kernels::{self, scalar};
use fqbert_tensor::gemm::{SoftmaxParams, MAX_ATTN_SEQ, SOFTMAX_ENTRIES};
use fqbert_tensor::RngSource;

/// Every length up to two 64-byte vectors and a bit, then the longer rows
/// of the attention shapes and their neighbours.
fn lengths() -> impl Iterator<Item = usize> {
    (1..=130).chain([255, 256, 257, 512, 1000])
}

/// `round(255 · exp(−d / scale))`, the table `SoftmaxLut::new` tabulates.
fn exponential(scale: f32) -> [u8; SOFTMAX_ENTRIES] {
    std::array::from_fn(|d| ((-(d as f32) / scale).exp() * 255.0).round() as u8)
}

/// Named tables: the real exponential at three score scales, a flat one
/// (every denominator at its largest), one where only the maximum counts
/// and one whose maximum counts 1 (the smallest denominators a row has).
fn tables() -> Vec<(&'static str, [u8; SOFTMAX_ENTRIES])> {
    let only = |first: u8| std::array::from_fn(|d| if d == 0 { first } else { 0 });
    vec![
        ("exp(-d/1)", exponential(1.0)),
        ("exp(-d/8)", exponential(8.0)),
        ("exp(-d/64)", exponential(64.0)),
        ("all 255", [255; SOFTMAX_ENTRIES]),
        ("[255, 0, ...]", only(255)),
        ("[1, 0, ...]", only(1)),
    ]
}

/// Named rows of `len` scores: random, constant, both ends of the range
/// (a distance of 255, the last table entry) and one maximum alone.
fn rows(rng: &mut RngSource, len: usize) -> Vec<(&'static str, Vec<i8>)> {
    let random = rng
        .normal_tensor(&[len], 0.0, 50.0)
        .as_slice()
        .iter()
        .map(|&v| v.round().clamp(-128.0, 127.0) as i8)
        .collect();
    let ends = (0..len)
        .map(|i| if i % 3 == 1 { i8::MAX } else { i8::MIN })
        .collect();
    let mut lone = vec![i8::MIN; len];
    lone[len * 2 / 3] = i8::MAX;
    vec![
        ("random", random),
        ("all equal", vec![-7; len]),
        ("-128 and 127", ends),
        ("a single 127", lone),
    ]
}

/// The accelerator's softmax of one row: a division per element
/// (`SoftmaxLut::apply_row`, which lives a crate above this one).
fn by_division(params: &SoftmaxParams, scores: &[i8]) -> Vec<u8> {
    let max = i32::from(*scores.iter().max().expect("non-empty row"));
    let numerator = |s: i8| u64::from(params.table()[usize::try_from(max - i32::from(s)).unwrap()]);
    let denom: u64 = scores.iter().map(|&s| numerator(s)).sum();
    let levels = u64::from(params.out_levels());
    let quotient = |s: i8| (numerator(s) * levels + denom / 2) / denom;
    scores
        .iter()
        .map(|&s| u8::try_from(quotient(s)).expect("a probability code"))
        .collect()
}

#[test]
fn every_softmax_row_equals_the_scalar_row_byte_for_byte() {
    let available = kernels::available();
    let names: Vec<_> = available.iter().map(|k| k.name()).collect();
    println!("kernels::available() = {names:?}");
    for (table_name, table) in tables() {
        for out_levels in [1, 127, 255] {
            let params = SoftmaxParams::new(table, out_levels).expect("parameters");
            for len in lengths() {
                let mut rng = RngSource::seed_from_u64(len as u64);
                for (row_name, scores) in rows(&mut rng, len) {
                    let what = format!("{table_name}, {out_levels} levels, {row_name} x {len}");
                    let mut expected = vec![0u8; len];
                    scalar::softmax_row(&params, &scores, &mut expected);
                    assert_eq!(expected, by_division(&params, &scores), "scalar: {what}");
                    for &kind in &available {
                        // One slot of margin on either side, poisoned: a
                        // row must write its `len` slots and nothing else.
                        let mut got = vec![0xA5u8; len + 2];
                        let kernel = kernels::dispatch_for(kind).softmax;
                        kernel(&params, &scores, &mut got[1..=len]);
                        assert_eq!(got[1..=len], expected, "{}: {what}", kind.name());
                        assert_eq!((got[0], got[len + 1]), (0xA5, 0xA5), "{}", kind.name());
                    }
                }
            }
        }
    }
}

#[test]
fn empty_rows_are_left_alone_and_malformed_calls_panic() {
    let params = SoftmaxParams::new(exponential(8.0), 255).expect("parameters");
    for kind in kernels::available() {
        let kernel = kernels::dispatch_for(kind).softmax;
        kernel(&params, &[], &mut []);
        let short = std::panic::catch_unwind(|| kernel(&params, &[0; 9], &mut [0; 8]));
        assert!(short.is_err(), "{}", kind.name());
        let long = std::panic::catch_unwind(|| kernel(&params, &[0; 8], &mut [0; 9]));
        assert!(long.is_err(), "{}", kind.name());
        let scores = vec![0i8; MAX_ATTN_SEQ + 1];
        let beyond = std::panic::catch_unwind(|| {
            kernel(&params, &scores, &mut vec![0u8; MAX_ATTN_SEQ + 1]);
        });
        assert!(beyond.is_err(), "{}", kind.name());
    }
}

#[test]
fn a_row_at_the_attention_bound_is_exact_on_every_kernel() {
    // All-equal scores over a flat table: every numerator is 255 and the
    // denominator is the largest a row can have, `2^24 − 1`.
    let params = SoftmaxParams::new([255; SOFTMAX_ENTRIES], 255).expect("parameters");
    let scores = vec![3i8; MAX_ATTN_SEQ];
    let expected = by_division(&params, &scores);
    for kind in kernels::available() {
        let mut got = vec![0u8; scores.len()];
        (kernels::dispatch_for(kind).softmax)(&params, &scores, &mut got);
        assert_eq!(got, expected, "{}", kind.name());
    }
}

#[test]
fn malformed_parameters_are_refused() {
    let table = exponential(8.0);
    assert!(SoftmaxParams::new(table, 1).is_ok());
    assert!(SoftmaxParams::new(table, 255).is_ok());
    assert!(SoftmaxParams::new(table, 0).is_err());
    assert!(SoftmaxParams::new(table, 256).is_err());
    let mut dead = table;
    dead[0] = 0;
    assert!(SoftmaxParams::new(dead, 255).is_err());
}
