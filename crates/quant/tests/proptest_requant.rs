//! Property tests pinning the fixed-point requantizer to the float
//! reference across the full int32 accumulator range and a wide band of
//! effective scales — including the tiny-scale region that used to panic on
//! shift overflow and the wide-accumulator region that used to overflow the
//! 64-bit product.

use fqbert_quant::Requantizer;
use proptest::prelude::*;

/// Float reference for Eq. 5: round-half-away-from-zero, saturating.
fn float_reference(acc: i64, scale: f64, out_max: i32) -> i32 {
    let exact = acc as f64 * scale;
    let rounded = if exact >= 0.0 {
        (exact + 0.5).floor()
    } else {
        (exact - 0.5).ceil()
    };
    rounded.clamp(-f64::from(out_max), f64::from(out_max)) as i32
}

proptest! {
    #[test]
    fn matches_float_reference_over_full_i32_accumulator_range(
        acc in i32::MIN..=i32::MAX,
        scale_exp in -40i32..8,
        mantissa in 0.5f64..1.0,
    ) {
        let scale = mantissa * 2.0f64.powi(scale_exp);
        let rq = Requantizer::from_scale(scale, 8).expect("valid scale");
        let got = rq.apply(i64::from(acc));
        let expected = float_reference(i64::from(acc), scale, 127);
        // The Q1.30 multiplier carries ~2^-30 relative error, so allow one
        // output LSB of slack around the float reference.
        prop_assert!(
            (got - expected).abs() <= 1,
            "scale {} acc {}: {} vs {}", scale, acc, got, expected
        );
    }

    #[test]
    fn any_positive_finite_scale_is_accepted_and_panic_free(
        scale_exp in -1080i32..1020,
        mantissa in 0.5f64..1.0,
        acc in proptest::num::i64::ANY,
    ) {
        let scale = mantissa * 2.0f64.powi(scale_exp);
        prop_assume!(scale.is_finite() && scale > 0.0);
        let rq = Requantizer::from_scale(scale, 8).expect("valid scale");
        let out = rq.apply(acc);
        prop_assert!((-127..=127).contains(&out));
        // Sign discipline survives the clamped encodings.
        if acc == 0 {
            prop_assert_eq!(out, 0);
        } else if acc != i64::MIN {
            prop_assert_eq!(out, -rq.apply(-acc));
        }
    }

    #[test]
    fn wide_accumulators_match_reference_at_moderate_scales(
        acc_shifted in -(1i64 << 44)..(1i64 << 44),
        scale_exp in -44i32..-20,
    ) {
        let scale = 2.0f64.powi(scale_exp);
        let rq = Requantizer::from_scale(scale, 8).expect("valid scale");
        let got = rq.apply(acc_shifted);
        let expected = float_reference(acc_shifted, scale, 127);
        prop_assert!(
            (got - expected).abs() <= 1,
            "scale 2^{} acc {}: {} vs {}", scale_exp, acc_shifted, got, expected
        );
    }

    #[test]
    fn sixteen_bit_outputs_respect_their_bound(
        acc in proptest::num::i64::ANY,
        scale_exp in -60i32..20,
    ) {
        let rq = Requantizer::from_scale(2.0f64.powi(scale_exp), 16).expect("valid scale");
        let out = rq.apply(acc);
        prop_assert!((-32767..=32767).contains(&out));
    }

    // Every requantizer's encoded (multiplier, shift) pair sits inside the
    // SIMD epilogue's exact-in-i64 envelope, and the GEMM requant kernels
    // driven with those parameters are bit-identical to
    // `apply(acc + bias).clamp(-127, 127)` — the contract that lets
    // `IntLinear` fuse the epilogue into the GEMM.
    #[test]
    fn gemm_requant_kernels_are_bit_identical_to_apply(
        accs in proptest::collection::vec(proptest::num::i32::ANY, 1..80),
        biases in proptest::collection::vec(proptest::num::i32::ANY, 1..80),
        scale_exp in -70i32..34,
        mantissa in 0.5f64..1.0,
        out_bits in 2u32..=8,
    ) {
        use fqbert_tensor::gemm::kernels;
        use fqbert_tensor::gemm::{RequantEpilogue, RequantParams};

        let scale = mantissa * 2.0f64.powi(scale_exp);
        prop_assume!(scale.is_finite() && scale > 0.0);
        let rq = Requantizer::from_scale(scale, out_bits).expect("valid scale");
        let params = RequantParams {
            multiplier: rq.multiplier(),
            shift: rq.shift(),
            clamp: rq.out_max().min(127),
        };
        prop_assert!(params.simd_exact(), "out of envelope: {:?}", params);
        let len = accs.len();
        let bias: Vec<i32> = (0..len).map(|i| biases[i % biases.len()]).collect();
        // Splice in the corners that maximise |acc + bias|.
        let mut accs = accs;
        accs[0] = i32::MIN;
        if let Some(slot) = accs.get_mut(1) {
            *slot = i32::MAX;
        }
        let expected: Vec<i8> = accs
            .iter()
            .zip(&bias)
            .map(|(&a, &b)| {
                rq.apply(i64::from(a) + i64::from(b)).clamp(-127, 127) as i8
            })
            .collect();
        let epilogue = RequantEpilogue::new(params);
        for kind in kernels::available() {
            let mut got = vec![0i8; len];
            (kernels::dispatch_for(kind).requant)(&accs, &bias, &epilogue, &mut got);
            prop_assert_eq!(&got, &expected, "requant diverges on {}", kind.name());
        }
    }
}
