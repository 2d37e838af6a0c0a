//! The `add_norm` entry of every kernel row against the scalar row, bit for
//! bit: every available [`KernelKind`] through [`kernels::dispatch_for`]
//! (nothing is forced, so these tests need no serialisation), widths on
//! both sides of every vector boundary so that the lanes and the scalar
//! tail both run, rows at the ends of the code range, parameter sets whose
//! stage 3 saturates, sets whose stage 3 does not, a set whose stage 3
//! fits on some rows and not on others, and parameter sets at the edge of
//! the exactness envelope; and the widest block, whose moment lanes are
//! the fullest an `i32` holds.

use fqbert_tensor::gemm::kernels::{self, scalar};
use fqbert_tensor::gemm::{AddNormParams, AddNormRow, ADD_NORM_FRAC_BITS, MAX_ADD_NORM_HIDDEN};
use fqbert_tensor::{RngSource, TensorError};

const ONE: i32 = 1 << ADD_NORM_FRAC_BITS;
/// Both sides of the 8-, 16-, 32- and 64-lane boundaries, and BERT's
/// widths.
const WIDTHS: [usize; 14] = [1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 255, 256, 257, 768];

/// `hidden` parameter values on the stored 6-bit grid, spread over about
/// `±2.0` around `centre`.
fn on_param_grid(rng: &mut RngSource, hidden: usize, centre: f32) -> Vec<i32> {
    rng.normal_tensor(&[hidden], centre, 0.7)
        .as_slice()
        .iter()
        .map(|&v| (v * 64.0).round().clamp(-128.0, 127.0) as i32 * (ONE / 64))
        .collect()
}

/// The largest `S = 128 · (|step_a| + |step_b|)` inside the envelope at
/// this width: `2·S ≤ i32::MAX` and `hidden · (2·S)² ≤ i64::MAX`.
fn envelope_spread(hidden: usize) -> i64 {
    let by_squares = ((i64::MAX / hidden as i64) as f64).sqrt() as i64;
    // The float root may be one too large: step down until the square fits.
    let by_squares = (by_squares - 2..=by_squares)
        .rev()
        .find(|s| (*s as i128).pow(2) * hidden as i128 <= i64::MAX as i128)
        .expect("a root within two of the float estimate");
    by_squares.min(i64::from(i32::MAX)) / 2
}

/// The largest `|step_a| + |step_b|` inside the envelope at this width.
fn envelope_steps(hidden: usize) -> i32 {
    i32::try_from(envelope_spread(hidden) / 128).expect("step")
}

/// Named parameter sets inside the envelope at width `hidden`.
fn parameter_sets(hidden: usize) -> Vec<(&'static str, AddNormParams)> {
    let mut rng = RngSource::seed_from_u64(hidden as u64);
    let new = |a, b, gamma, beta, out_scale| {
        AddNormParams::new(a, b, gamma, beta, 1, out_scale).expect("parameters")
    };
    // Calibrated scales (20, 30 and 25 levels per unit): no product of
    // stage 3 comes near `i32`.
    let calibrated = new(
        ONE / 20,
        ONE / 30,
        on_param_grid(&mut rng, hidden, 1.0),
        on_param_grid(&mut rng, hidden, 0.0),
        25 * ONE,
    );
    // `a_product_saturating_downward_keeps_its_sign`: an output scale that
    // saturated when it was folded takes every normalised value past `i32`.
    let huge_scale = new(
        ONE / 20,
        ONE / 30,
        vec![122 * (ONE / 64); hidden],
        vec![-122 * (ONE / 64); hidden],
        i32::MAX,
    );
    // Every saturation of stage 3 in both directions: the gamma product,
    // the beta add and the output-scale product.
    let ends = [i32::MAX, i32::MIN, ONE, -3 * ONE, 0];
    let extreme = new(
        2 * ONE,
        ONE / 3,
        (0..hidden).map(|i| ends[i % 5]).collect(),
        (0..hidden).map(|i| ends[(i / 5 + i) % 5]).collect(),
        -40 * ONE,
    );
    // The envelope's edge: the widest steps `simd_exact` admits here.
    let steps = envelope_steps(hidden);
    let edge = new(
        steps / 2,
        -(steps - steps / 2),
        on_param_grid(&mut rng, hidden, 1.0),
        on_param_grid(&mut rng, hidden, 0.0),
        25 * ONE,
    );
    // The largest gamma: stage 3 fits a row whose deviations are all below
    // one standard deviation and no row with a deviation of a few — so on
    // the lone-outlier rows of `extreme_rows` the verdict hangs on which
    // side of the mean the outlier lies, and a wrong `max |c|` shows.
    let row_bound = new(
        ONE / 20,
        ONE / 30,
        vec![i32::MAX; hidden],
        vec![0; hidden],
        ONE,
    );
    vec![
        ("calibrated", calibrated),
        ("huge_scale", huge_scale),
        ("extreme", extreme),
        ("edge", edge),
        ("row_bound", row_bound),
    ]
}

fn random_codes(rng: &mut RngSource, len: usize) -> Vec<i8> {
    rng.normal_tensor(&[len], 0.0, 60.0)
        .as_slice()
        .iter()
        .map(|&v| v.round().clamp(-128.0, 127.0) as i8)
        .collect()
}

/// One row each of: both operands at the bottom of the code range, both at
/// the top, constant rows (zero variance), a zigzag against its complement,
/// a zigzag against itself, and one outlier below and one above a row of
/// zeros.
fn extreme_rows(hidden: usize) -> (Vec<i8>, Vec<i8>) {
    let zigzag: Vec<i8> = (0..hidden)
        .map(|i| if i % 2 == 0 { i8::MIN } else { i8::MAX })
        .collect();
    let opposed: Vec<i8> = zigzag.iter().map(|&c| !c).collect();
    let lone = |code: i8| -> Vec<i8> {
        let mut row = vec![0; hidden];
        row[hidden / 2] = code;
        row
    };
    let a = [
        vec![i8::MIN; hidden],
        vec![i8::MAX; hidden],
        vec![17; hidden],
        zigzag.clone(),
        zigzag.clone(),
        lone(i8::MIN),
        vec![0; hidden],
    ];
    let b = [
        vec![i8::MIN; hidden],
        vec![i8::MAX; hidden],
        vec![-3; hidden],
        opposed,
        zigzag,
        vec![0; hidden],
        lone(i8::MAX),
    ];
    (a.concat(), b.concat())
}

#[test]
fn every_add_norm_row_equals_the_scalar_row_bit_for_bit() {
    let available = kernels::available();
    let names: Vec<_> = available.iter().map(|k| k.name()).collect();
    println!("kernels::available() = {names:?}");
    // One sum row for the whole test, served at the widest width first and
    // poisoned before every call: a kernel that read a slot it had not
    // written would see the poison.
    let mut row = AddNormRow::default();
    let widest = *WIDTHS.iter().max().expect("widths");
    for hidden in WIDTHS {
        let mut rng = RngSource::seed_from_u64(1_000 + hidden as u64);
        let mut matrices = vec![extreme_rows(hidden)];
        for rows in [0usize, 1, 5] {
            let len = rows * hidden;
            matrices.push((random_codes(&mut rng, len), random_codes(&mut rng, len)));
        }
        for (name, params) in parameter_sets(hidden) {
            assert!(params.simd_exact(), "{name} at hidden {hidden}");
            assert_eq!(params.hidden(), hidden);
            for (a, b) in &matrices {
                let mut expected = vec![0i8; a.len()];
                scalar::add_norm_rows(&params, &mut vec![0; hidden], a, b, &mut expected);
                for &kind in &available {
                    row.sized(widest).fill(i32::MAX);
                    let mut got = vec![0i8; a.len()];
                    let kernel = kernels::dispatch_for(kind).add_norm;
                    kernel(&params, row.sized(hidden), a, b, &mut got);
                    assert_eq!(
                        got,
                        expected,
                        "{} row, {name} parameters, hidden {hidden}, {} rows",
                        kind.name(),
                        a.len() / hidden
                    );
                }
            }
        }
    }
}

#[test]
fn the_envelope_is_where_the_sums_stop_fitting() {
    for hidden in WIDTHS {
        let steps = envelope_steps(hidden);
        let params = |step_a: i32, step_b: i32| {
            AddNormParams::new(step_a, step_b, vec![ONE; hidden], vec![0; hidden], 1, ONE)
                .expect("parameters")
        };
        let half = steps / 2;
        for sign in [1, -1] {
            let (a, b) = (sign * half, sign * (steps - half));
            assert!(params(a, b).simd_exact(), "hidden {hidden}");
            assert!(!params(a + sign, b).simd_exact(), "hidden {hidden}");
            assert!(!params(a, b + sign).simd_exact(), "hidden {hidden}");
        }
    }
    // Steps whose `−128 · step` saturates; `i32::MIN` has no `i32`
    // magnitude, and the envelope must not trip on it.
    for step in [i32::MIN, i32::MAX, i32::MAX / 100] {
        let params = AddNormParams::new(step, 0, vec![ONE], vec![0], 1, ONE).expect("parameters");
        assert!(!params.simd_exact(), "step {step}");
    }
}

#[test]
fn the_scalar_row_is_exact_on_both_sides_of_the_envelope() {
    // At the envelope's edge the selected row is a SIMD one and equals the
    // scalar row; one step past it the selected row is the scalar row,
    // whose variance sum leaves `i64` on rows of large deviations — it
    // accumulates in `i128` (the debug profile would panic on a narrower
    // accumulator).
    let hidden = 256;
    let steps = envelope_steps(hidden);
    let gamma = vec![ONE; hidden];
    let beta = vec![ONE / 4; hidden];
    let new = |step_a| {
        AddNormParams::new(
            step_a,
            -(steps - steps / 2),
            gamma.clone(),
            beta.clone(),
            1,
            25 * ONE,
        )
    };
    let inside = new(steps / 2).expect("inside");
    let outside = new(steps / 2 + 1).expect("outside");
    assert!(inside.simd_exact() && !outside.simd_exact());

    let mut rng = RngSource::seed_from_u64(77);
    let (mut a, mut b) = extreme_rows(hidden);
    a.extend(random_codes(&mut rng, 3 * hidden));
    b.extend(random_codes(&mut rng, 3 * hidden));
    let apply = |params: &AddNormParams, a: &[i8], b: &[i8]| {
        let mut out = vec![0i8; a.len()];
        scalar::add_norm_rows(params, &mut vec![0; hidden], a, b, &mut out);
        out
    };
    for params in [&inside, &outside] {
        let mut via_kernel = vec![0i8; a.len()];
        (params.kernel())(params, &mut vec![0; hidden], &a, &b, &mut via_kernel);
        assert_eq!(via_kernel, apply(params, &a, &b));
    }

    // Far outside: operands near `±i32::MAX / 2 · 2`, so on a zigzag row
    // both sums saturate, `Σ c²` is about `256 · 2^62` and the variance
    // clamps at `i32::MAX`: the deviations of `±2^15` units normalise to
    // about `±181` and the codes saturate with their sign.
    let far = AddNormParams::new(
        i32::MAX / 128,
        i32::MAX / 128,
        gamma.clone(),
        vec![0; hidden],
        1,
        25 * ONE,
    )
    .expect("far outside");
    assert!(!far.simd_exact());
    let zigzag: Vec<i8> = (0..hidden)
        .map(|i| if i % 2 == 0 { i8::MIN } else { i8::MAX })
        .collect();
    let codes = apply(&far, &zigzag, &zigzag);
    for (i, &code) in codes.iter().enumerate() {
        assert_eq!(code, zigzag[i], "element {i}");
    }
    // The selected kernel for such a block is the scalar reference.
    let mut via_kernel = vec![0i8; hidden];
    (far.kernel())(
        &far,
        &mut vec![0; hidden],
        &zigzag,
        &zigzag,
        &mut via_kernel,
    );
    assert_eq!(via_kernel, codes);
}

/// The `avx512` row sums squares and cross products of 32 codes per step
/// with `vpdpwssd`, two products of at most `2¹⁴` into each `i32` lane per
/// step. At `MAX_ADD_NORM_HIDDEN` all −128 codes fill the `Σa²` lanes of
/// one row and the `Σb²` lanes of the next to `2³¹ − 2¹⁵`, one step more
/// would wrap them, and the block one code wider is refused by name.
#[test]
fn the_widest_block_keeps_every_moment_lane_inside_i32() {
    let hidden = MAX_ADD_NORM_HIDDEN;
    let per_lane = |hidden: usize| 2 * hidden.div_ceil(32) as i64 * (1 << 14);
    assert!(per_lane(hidden) <= i64::from(i32::MAX));
    assert!(per_lane(hidden + 1) > i64::from(i32::MAX));

    let params = AddNormParams::new(
        ONE / 20,
        ONE / 30,
        vec![ONE; hidden],
        vec![ONE / 4; hidden],
        1,
        25 * ONE,
    )
    .expect("the widest block");
    assert!(params.simd_exact());
    // The variance must matter: the other operand zigzags.
    let zigzag = (0..hidden).map(|i| if i % 2 == 0 { i8::MIN } else { i8::MAX });
    let a: Vec<i8> = std::iter::repeat_n(i8::MIN, hidden)
        .chain(zigzag.clone())
        .collect();
    let b: Vec<i8> = zigzag.chain(std::iter::repeat_n(i8::MIN, hidden)).collect();
    let mut expected = vec![0i8; a.len()];
    scalar::add_norm_rows(&params, &mut vec![0; hidden], &a, &b, &mut expected);
    let mut row = AddNormRow::default();
    for kind in kernels::available() {
        let mut got = vec![0i8; a.len()];
        (kernels::dispatch_for(kind).add_norm)(&params, row.sized(hidden), &a, &b, &mut got);
        assert!(got == expected, "{} row at hidden {hidden}", kind.name());
    }

    let wider = AddNormParams::new(1, 1, vec![ONE; hidden + 1], vec![0; hidden + 1], 1, ONE);
    match wider {
        Err(TensorError::ValueOutOfRange { what, value }) => {
            assert!(what.contains("MAX_ADD_NORM_HIDDEN"), "{what}");
            assert_eq!(value, (hidden + 1) as i64);
        }
        other => panic!("a block past the bound must be refused, got {other:?}"),
    }
}

#[test]
fn malformed_blocks_are_refused_and_malformed_calls_panic() {
    let ok =
        |gamma: Vec<i32>, beta: Vec<i32>, eps| AddNormParams::new(ONE, ONE, gamma, beta, eps, ONE);
    assert!(ok(vec![ONE; 4], vec![0; 4], 1).is_ok());
    assert!(ok(vec![ONE; 4], vec![0; 3], 1).is_err());
    assert!(ok(vec![], vec![], 1).is_err());
    assert!(ok(vec![ONE; 4], vec![0; 4], 0).is_err());
    assert!(ok(vec![ONE; 4], vec![0; 4], -1).is_err());
    let params = ok(vec![ONE; 4], vec![0; 4], 1).expect("parameters");
    for kind in kernels::available() {
        let kernel = kernels::dispatch_for(kind).add_norm;
        let short_row = std::panic::catch_unwind(|| {
            kernel(&params, &mut [0; 3], &[0; 4], &[0; 4], &mut [0; 4]);
        });
        assert!(short_row.is_err(), "{}", kind.name());
        let ragged = std::panic::catch_unwind(|| {
            kernel(&params, &mut [0; 4], &[0; 8], &[0; 4], &mut [0; 8]);
        });
        assert!(ragged.is_err(), "{}", kind.name());
    }
}
