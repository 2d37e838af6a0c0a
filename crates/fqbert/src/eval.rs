//! Accuracy evaluation helpers for the quantization experiments.

use crate::int_model::IntBertModel;
use crate::Result;
use fqbert_bert::{BertModel, ForwardHook, Trainer};
use fqbert_nlp::{accuracy, Example};
use fqbert_tensor::gemm::GemmScratch;
use fqbert_tensor::ops::argmax_slice;

/// Accuracy of a model variant on one evaluation split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyReport {
    /// Classification accuracy in percent.
    pub accuracy: f64,
    /// Number of evaluated examples.
    pub num_examples: usize,
}

/// Evaluates the integer-only FQ-BERT engine on a set of examples.
///
/// # Errors
///
/// Propagates integer-engine errors (invalid examples).
pub fn evaluate_int_model(model: &IntBertModel, examples: &[Example]) -> Result<AccuracyReport> {
    if examples.is_empty() {
        return Ok(AccuracyReport {
            accuracy: 0.0,
            num_examples: 0,
        });
    }
    let predictions: Vec<usize> = model
        .logits_batch_with_scratch(examples, &mut GemmScratch::new())?
        .iter()
        .map(|logits| argmax_slice(logits))
        .collect();
    let labels: Vec<usize> = examples.iter().map(|e| e.label).collect();
    Ok(AccuracyReport {
        accuracy: accuracy(&predictions, &labels),
        num_examples: examples.len(),
    })
}

/// Evaluates the float model under an arbitrary forward hook (used for the
/// fake-quantized ablations of Table II and the bit-width sweep of Fig. 3).
///
/// # Errors
///
/// Propagates graph-construction errors.
pub fn evaluate_with_hook(
    model: &BertModel,
    examples: &[Example],
    hook: &mut dyn ForwardHook,
) -> Result<AccuracyReport> {
    let report = Trainer::evaluate(model, examples, hook)?;
    Ok(AccuracyReport {
        accuracy: report.accuracy,
        num_examples: report.num_examples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::convert;
    use crate::qat::QatHook;
    use fqbert_bert::{BertConfig, NoopHook};
    use fqbert_quant::QuantConfig;

    fn example(tokens: &[usize], label: usize) -> Example {
        Example {
            token_ids: tokens.to_vec(),
            segment_ids: vec![0; tokens.len()],
            attention_mask: vec![1; tokens.len()],
            label,
        }
    }

    #[test]
    fn int_and_hook_evaluations_run_end_to_end() {
        let model = BertModel::new(BertConfig::tiny(30, 12, 2), 8);
        let examples: Vec<Example> = (0..6).map(|i| example(&[2, 4 + i, 6, 3], i % 2)).collect();
        let hook = QatHook::calibrated(&model, QuantConfig::w8a8(), &examples).unwrap();
        let int_model = convert(&model, &hook).unwrap();
        let int_report = evaluate_int_model(&int_model, &examples).unwrap();
        assert_eq!(int_report.num_examples, examples.len());
        assert!((0.0..=100.0).contains(&int_report.accuracy));

        let float_report = evaluate_with_hook(&model, &examples, &mut NoopHook).unwrap();
        assert_eq!(float_report.num_examples, examples.len());
    }

    #[test]
    fn empty_evaluation_is_zero() {
        let model = BertModel::new(BertConfig::tiny(30, 12, 2), 8);
        let hook =
            QatHook::calibrated(&model, QuantConfig::w8a8(), &[example(&[2, 4, 3], 0)]).unwrap();
        let int_model = convert(&model, &hook).unwrap();
        let report = evaluate_int_model(&int_model, &[]).unwrap();
        assert_eq!(report.num_examples, 0);
    }
}
