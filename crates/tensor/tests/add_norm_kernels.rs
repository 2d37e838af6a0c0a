//! The `add_norm` entry of every kernel row against the scalar row, bit for
//! bit: every available [`KernelKind`] through [`kernels::dispatch_for`]
//! (nothing is forced, so these tests need no serialisation), widths on
//! both sides of every vector boundary so that the lanes and the scalar
//! tail both run, rows at the ends of the code range, parameter sets whose
//! stage 3 saturates and sets whose stage 3 does not, and parameter sets at
//! the edge of the exactness envelope.

use fqbert_tensor::gemm::kernels::{self, scalar};
use fqbert_tensor::gemm::{AddNormParams, AddNormRow, ADD_NORM_FRAC_BITS};
use fqbert_tensor::RngSource;

const ONE: i32 = 1 << ADD_NORM_FRAC_BITS;
const WIDTHS: [usize; 9] = [1, 7, 8, 9, 64, 255, 256, 257, 768];

/// The table of an operand whose code `c` stands for `c · step` on the grid.
fn table(step: i32) -> Box<[i32; 256]> {
    Box::new(std::array::from_fn(|i| (i as i32 - 128) * step))
}

/// `hidden` parameter values on the stored 6-bit grid, spread over about
/// `±2.0` around `centre`.
fn on_param_grid(rng: &mut RngSource, hidden: usize, centre: f32) -> Vec<i32> {
    rng.normal_tensor(&[hidden], centre, 0.7)
        .as_slice()
        .iter()
        .map(|&v| (v * 64.0).round().clamp(-128.0, 127.0) as i32 * (ONE / 64))
        .collect()
}

/// The largest `S = max |values_a| + max |values_b|` inside the envelope at
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

/// Named parameter sets inside the envelope at width `hidden`.
fn parameter_sets(hidden: usize) -> Vec<(&'static str, AddNormParams)> {
    let mut rng = RngSource::seed_from_u64(hidden as u64);
    let new = |a, b, gamma, beta, out_scale| {
        AddNormParams::new(a, b, gamma, beta, 1, out_scale).expect("parameters")
    };
    // Calibrated scales (20, 30 and 25 levels per unit): no product of
    // stage 3 comes near `i32`.
    let calibrated = new(
        table(ONE / 20),
        table(ONE / 30),
        on_param_grid(&mut rng, hidden, 1.0),
        on_param_grid(&mut rng, hidden, 0.0),
        25 * ONE,
    );
    // `a_product_saturating_downward_keeps_its_sign`: an output scale that
    // saturated when it was folded takes every normalised value past `i32`.
    let huge_scale = new(
        table(ONE / 20),
        table(ONE / 30),
        vec![122 * (ONE / 64); hidden],
        vec![-122 * (ONE / 64); hidden],
        i32::MAX,
    );
    // Every saturation of stage 3 in both directions: the gamma product,
    // the beta add and the output-scale product.
    let ends = [i32::MAX, i32::MIN, ONE, -3 * ONE, 0];
    let extreme = new(
        table(2 * ONE),
        table(ONE / 3),
        (0..hidden).map(|i| ends[i % 5]).collect(),
        (0..hidden).map(|i| ends[(i / 5 + i) % 5]).collect(),
        -40 * ONE,
    );
    // The envelope's edge: the widest tables `simd_exact` admits here.
    let step = i32::try_from(envelope_spread(hidden) / 2 / 128).expect("step");
    let edge = new(
        table(step),
        table(-step),
        on_param_grid(&mut rng, hidden, 1.0),
        on_param_grid(&mut rng, hidden, 0.0),
        25 * ONE,
    );
    vec![
        ("calibrated", calibrated),
        ("huge_scale", huge_scale),
        ("extreme", extreme),
        ("edge", edge),
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
/// the top, constant rows (zero variance), a zigzag against its complement
/// and a zigzag against itself.
fn extreme_rows(hidden: usize) -> (Vec<i8>, Vec<i8>) {
    let zigzag: Vec<i8> = (0..hidden)
        .map(|i| if i % 2 == 0 { i8::MIN } else { i8::MAX })
        .collect();
    let opposed: Vec<i8> = zigzag.iter().map(|&c| !c).collect();
    let a = [
        vec![i8::MIN; hidden],
        vec![i8::MAX; hidden],
        vec![17; hidden],
        zigzag.clone(),
        zigzag.clone(),
    ];
    let b = [
        vec![i8::MIN; hidden],
        vec![i8::MAX; hidden],
        vec![-3; hidden],
        opposed,
        zigzag,
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
        let spread = envelope_spread(hidden);
        let params = |max_a: i64, max_b: i64| {
            let (mut a, mut b) = (table(0), table(0));
            a[0] = i32::try_from(max_a).expect("table value");
            b[255] = -i32::try_from(max_b).expect("table value");
            AddNormParams::new(a, b, vec![ONE; hidden], vec![0; hidden], 1, ONE)
                .expect("parameters")
        };
        let half = spread / 2;
        assert!(params(half, spread - half).simd_exact(), "hidden {hidden}");
        assert!(
            !params(half + 1, spread - half).simd_exact(),
            "hidden {hidden}"
        );
        assert!(
            !params(half, spread - half + 1).simd_exact(),
            "hidden {hidden}"
        );
    }
    // `i32::MIN` has no `i32` magnitude; the envelope must not trip on it.
    let mut a = table(0);
    a[7] = i32::MIN;
    let params = AddNormParams::new(a, table(0), vec![ONE], vec![0], 1, ONE).expect("parameters");
    assert!(!params.simd_exact());
}

#[test]
fn the_scalar_row_is_exact_on_both_sides_of_the_envelope() {
    // Two parameter sets that differ in one table entry — the one that
    // takes the second outside the envelope — give the same codes on rows
    // that never look that entry up; and rows that do look it up overflow
    // `i64` in the variance sum, which the reference accumulates in `i128`
    // (the debug profile would panic on a narrower accumulator).
    let hidden = 256;
    let step = i32::try_from(envelope_spread(hidden) / 2 / 128).expect("step");
    let gamma = vec![ONE; hidden];
    let beta = vec![ONE / 4; hidden];
    let new = |a| AddNormParams::new(a, table(-step), gamma.clone(), beta.clone(), 1, 25 * ONE);
    let inside = new(table(step)).expect("inside");
    let mut wide = table(step);
    wide[0] = i32::MIN;
    let outside = new(wide).expect("outside");
    assert!(inside.simd_exact() && !outside.simd_exact());

    let mut rng = RngSource::seed_from_u64(77);
    let without_minimum = |rng: &mut RngSource| -> Vec<i8> {
        random_codes(rng, 3 * hidden)
            .into_iter()
            .map(|c| c.max(i8::MIN + 1))
            .collect()
    };
    let (a, b) = (
        without_minimum(&mut rng),
        random_codes(&mut rng, 3 * hidden),
    );
    let apply = |params: &AddNormParams, a: &[i8], b: &[i8]| {
        let mut out = vec![0i8; a.len()];
        scalar::add_norm_rows(params, &mut vec![0; hidden], a, b, &mut out);
        out
    };
    assert_eq!(apply(&inside, &a, &b), apply(&outside, &a, &b));

    // Far outside: operands near `±i32::MAX / 2 · 2`, so on a zigzag row
    // both sums saturate, `Σ c²` is about `256 · 2^62` and the variance
    // clamps at `i32::MAX`: the deviations of `±2^15` units normalise to
    // about `±181` and the codes saturate with their sign.
    let far = AddNormParams::new(
        table(i32::MAX / 128),
        table(i32::MAX / 128),
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

#[test]
fn malformed_blocks_are_refused_and_malformed_calls_panic() {
    let ok = |gamma: Vec<i32>, beta: Vec<i32>, eps| {
        AddNormParams::new(table(ONE), table(ONE), gamma, beta, eps, ONE)
    };
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
