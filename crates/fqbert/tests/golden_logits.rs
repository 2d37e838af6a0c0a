//! Golden digests of the integer model's logits.
//!
//! Every identity property compares the engine with an oracle in the same
//! process, so a change that moves both together — a fold, a quantization
//! rule, a tokenizer or calibration change — passes all of them. This test
//! pins the logits themselves: two models built from a fixed seed with no
//! training (w4/a8 and w8/a8), calibrated and converted, run fixed inputs,
//! and the FNV-1a digest of their logits' `f32` bit patterns must equal the
//! line committed in `golden_logits.txt`, under every row of
//! `kernels::available()` forced in turn. A change that moves the logits on
//! purpose writes the new lines, printed by the failing assertion, into that
//! file in the same diff.

use fqbert_bert::{BertConfig, BertModel};
use fqbert_core::{convert, IntBertModel, QatHook};
use fqbert_nlp::Example;
use fqbert_quant::QuantConfig;
use fqbert_tensor::gemm::kernels;
use fqbert_tensor::GemmScratch;

const GOLDEN: &str = include_str!("golden_logits.txt");

/// A sequence of `len` tokens: `[CLS]`, a walk over the vocabulary,
/// `[SEP]`; the second half in segment 1.
fn example(len: usize, salt: usize) -> Example {
    let mut token_ids = vec![2usize];
    token_ids.extend((0..len - 2).map(|i| 4 + (i * 11 + salt * 7) % 60));
    token_ids.push(3);
    Example {
        segment_ids: (0..len).map(|i| usize::from(2 * i >= len)).collect(),
        attention_mask: vec![1; len],
        token_ids,
        label: 0,
    }
}

/// The fixed inputs: lengths around the attention blocks, one of them the
/// full position table.
fn inputs() -> Vec<Example> {
    [3usize, 5, 16, 17, 33, 48]
        .iter()
        .enumerate()
        .map(|(salt, &len)| example(len, salt))
        .collect()
}

/// A 2-layer, 128-wide model (two heads of the paper's 64) from a fixed
/// seed, calibrated on fixed inputs and converted under `quant`.
fn model(quant: QuantConfig) -> IntBertModel {
    let config = BertConfig {
        vocab_size: 64,
        hidden: 128,
        layers: 2,
        heads: 2,
        intermediate: 256,
        max_len: 48,
        type_vocab_size: 2,
        num_classes: 3,
        layer_norm_eps: 1e-5,
    };
    let float = BertModel::new(config, 2024);
    let calibration: Vec<Example> = (0..6).map(|salt| example(12 + salt, salt + 10)).collect();
    let hook = QatHook::calibrated(&float, quant, &calibration).expect("calibration");
    convert(&float, &hook).expect("conversion")
}

/// FNV-1a (64-bit) over the little-endian bit patterns of every logit.
fn digest(logits: &[Vec<f32>]) -> u64 {
    let bytes = logits
        .iter()
        .flatten()
        .flat_map(|v| v.to_bits().to_le_bytes());
    bytes.fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn logits_reproduce_the_committed_digests_on_every_kernel_row() {
    let inputs = inputs();
    let models = [
        ("w4a8", QuantConfig::fq_bert()),
        ("w8a8", QuantConfig::w8a8()),
    ]
    .map(|(name, quant)| (name, model(quant)));
    let mut scratch = GemmScratch::new();
    for kind in kernels::available() {
        kernels::force(kind);
        let lines: Vec<String> = models
            .iter()
            .map(|(name, model)| {
                let logits = model
                    .logits_batch_with_scratch(&inputs, &mut scratch)
                    .expect("logits");
                format!("{name} {:016x}", digest(&logits))
            })
            .collect();
        let want: Vec<&str> = GOLDEN
            .lines()
            .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
            .collect();
        assert_eq!(
            lines,
            want,
            "kernel {}: the logits moved; if on purpose, commit these lines:\n{}",
            kind.name(),
            lines.join("\n")
        );
    }
    kernels::force(kernels::best_available());
}
