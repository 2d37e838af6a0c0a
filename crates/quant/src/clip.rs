//! Clip-threshold tuning (the CLIP configuration of Fig. 3).
//!
//! The paper notes that the clip thresholds `MIN = -MAX` "need to be
//! carefully tuned during training". We implement the tuning as a
//! deterministic grid search that picks the symmetric threshold minimising
//! the mean squared quantization error of the tensor — the standard
//! MSE-optimal clipping rule. At low bit-widths the optimal threshold is
//! noticeably smaller than `max|x|`, which is exactly why the CLIP curves of
//! Fig. 3 degrade more gracefully than the NO_CLIP curves.

use crate::{QuantParams, Result};
use fqbert_tensor::Tensor;

/// Result of a clip-threshold search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClipSearchResult {
    /// The selected symmetric clip threshold `MAX`.
    pub clip: f32,
    /// Mean squared quantization error at the selected threshold.
    pub mse: f32,
    /// Mean squared quantization error with no clipping (threshold =
    /// `max|x|`), for comparison.
    pub mse_no_clip: f32,
}

/// Searches for the MSE-optimal symmetric clip threshold for quantizing
/// `tensor` at `bits` bits.
///
/// The search evaluates `steps` thresholds spaced uniformly between
/// `max|x| / steps` and `max|x|` and returns the best.
///
/// # Errors
///
/// Returns an error for an unsupported bit-width or a tensor with no dynamic
/// range.
///
/// # Examples
///
/// ```
/// use fqbert_quant::tune_clip_threshold;
/// use fqbert_tensor::{RngSource, Tensor};
///
/// let mut rng = RngSource::seed_from_u64(0);
/// let w = rng.normal_tensor(&[512], 0.0, 1.0);
/// let result = tune_clip_threshold(&w, 2, 64)?;
/// assert!(result.mse <= result.mse_no_clip);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn tune_clip_threshold(tensor: &Tensor, bits: u32, steps: usize) -> Result<ClipSearchResult> {
    let abs_max = tensor.abs_max()?;
    let no_clip = QuantParams::for_weights(tensor, bits, None)?;
    let mse_no_clip = no_clip.quantization_mse(tensor);
    let mut best = ClipSearchResult {
        clip: abs_max,
        mse: mse_no_clip,
        mse_no_clip,
    };
    let steps = steps.max(1);
    for i in 1..=steps {
        let clip = abs_max * i as f32 / steps as f32;
        if clip <= 0.0 {
            continue;
        }
        let params = QuantParams::for_weights(tensor, bits, Some(clip))?;
        let mse = params.quantization_mse(tensor);
        if mse < best.mse {
            best.clip = clip;
            best.mse = mse;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fqbert_tensor::RngSource;

    #[test]
    fn tuned_clip_never_worse_than_no_clip() {
        let mut rng = RngSource::seed_from_u64(3);
        let w = rng.normal_tensor(&[1024], 0.0, 0.5);
        for bits in [2, 4, 6, 8] {
            let r = tune_clip_threshold(&w, bits, 50).unwrap();
            assert!(r.mse <= r.mse_no_clip + 1e-9, "bits={bits}");
            assert!(r.clip > 0.0 && r.clip <= w.abs_max().unwrap() + 1e-6);
        }
    }

    #[test]
    fn low_bitwidth_benefits_more_from_clipping() {
        // Heavy-tailed data: clipping should help a lot at 2 bits and barely
        // matter at 8 bits. This is the mechanism behind the CLIP/NO_CLIP gap
        // in Fig. 3 of the paper.
        let mut rng = RngSource::seed_from_u64(4);
        let mut data = rng.normal_tensor(&[2048], 0.0, 0.2).into_vec();
        // Inject a few large outliers.
        data[0] = 4.0;
        data[1] = -4.0;
        data[2] = 3.5;
        let w = Tensor::from_vec(data, &[2048]).unwrap();

        let r2 = tune_clip_threshold(&w, 2, 100).unwrap();
        let r8 = tune_clip_threshold(&w, 8, 100).unwrap();
        let gain2 = r2.mse_no_clip / r2.mse.max(1e-12);
        let gain8 = r8.mse_no_clip / r8.mse.max(1e-12);
        assert!(
            gain2 > gain8,
            "clipping should help more at 2 bits (gain {gain2}) than at 8 bits (gain {gain8})"
        );
        assert!(r2.clip < w.abs_max().unwrap() * 0.8);
    }

    #[test]
    fn degenerate_tensor_is_error() {
        let w = Tensor::zeros(&[16]);
        assert!(tune_clip_threshold(&w, 4, 10).is_err());
    }

    #[test]
    fn single_step_falls_back_to_abs_max() {
        let w = Tensor::from_vec(vec![0.5, -1.5, 1.0], &[3]).unwrap();
        let r = tune_clip_threshold(&w, 8, 1).unwrap();
        assert!((r.clip - 1.5).abs() < 1e-6);
    }
}
