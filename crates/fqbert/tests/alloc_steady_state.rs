//! Steady-state allocation counts of the integer forward pass.
//!
//! Every intermediate of `IntEncoderLayer::forward_batch_with_scratch` lives
//! in the caller's `GemmScratch`, so once a scratch has served a shape the
//! layer allocates only the tensor it returns. The embedding writes its
//! codes straight into the scratch arena and the classifier its logits
//! straight into the returned rows, so
//! `IntBertModel::logits_batch_with_scratch` allocates exactly its outer
//! `Vec`, the sequence lengths and one logits `Vec` per example — never per
//! layer, head or row. A counting global allocator pins both; it counts
//! this thread's calls only, so the test harness's own threads cannot
//! disturb it.

use fqbert_bert::{BertConfig, BertModel};
use fqbert_core::{convert, IntBertModel, QatHook};
use fqbert_nlp::Example;
use fqbert_quant::QuantConfig;
use fqbert_tensor::{GemmScratch, IntTensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Heap blocks this thread has obtained (fresh or by growing one).
    static OBTAINED: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when there is nothing left to count into.
    let _ = OBTAINED.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Heap blocks obtained by this thread while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = OBTAINED.with(Cell::get);
    let out = f();
    (OBTAINED.with(Cell::get) - before, out)
}

fn example(len: usize, salt: usize) -> Example {
    let mut token_ids = vec![2usize];
    token_ids.extend((0..len - 2).map(|i| 4 + (i * 7 + salt) % 40));
    token_ids.push(3);
    Example {
        segment_ids: vec![0; len],
        attention_mask: vec![1; len],
        token_ids,
        label: 0,
    }
}

fn model(hidden: usize, layers: usize, heads: usize) -> IntBertModel {
    let config = BertConfig {
        vocab_size: 48,
        hidden,
        layers,
        heads,
        intermediate: 2 * hidden,
        max_len: 40,
        type_vocab_size: 2,
        num_classes: 2,
        layer_norm_eps: 1e-5,
    };
    let float = BertModel::new(config, 13);
    let calibration: Vec<Example> = (0..4).map(|salt| example(9, salt)).collect();
    let hook =
        QatHook::calibrated(&float, QuantConfig::fq_bert(), &calibration).expect("calibration");
    convert(&float, &hook).expect("convert")
}

#[test]
fn a_warm_layer_allocates_only_the_tensor_it_returns() {
    // Heads of 8 and the paper's heads of 64.
    for (hidden, heads) in [(32usize, 4usize), (128, 2)] {
        let model = model(hidden, 1, heads);
        let layer = &model.layers[0];
        let seq_lens = [1usize, 5, 33, 12];
        let total: usize = seq_lens.iter().sum();
        let x = {
            let data = (0..total * hidden)
                .map(|i| ((i * 37 + 11) % 255) as i8)
                .collect();
            IntTensor::from_vec(data, &[total, hidden]).expect("input")
        };
        let mut scratch = GemmScratch::new();
        let (cold, first) =
            allocations(|| layer.forward_batch_with_scratch(&x, &seq_lens, &mut scratch));
        let first = first.expect("cold call");
        let (warm, second) =
            allocations(|| layer.forward_batch_with_scratch(&x, &seq_lens, &mut scratch));
        assert_eq!(second.expect("warm call"), first);
        // An `IntTensor` is its codes plus its dims: the tensor handed back
        // is all a warm call may allocate.
        let (tensor, _) = allocations(|| IntTensor::<i8>::zeros(&[total, hidden]));
        assert_eq!(
            warm, tensor,
            "warm call at hidden {hidden} allocated beyond its return value"
        );
        assert!(
            cold > warm,
            "the cold call is the one that grows the scratch"
        );
        // A smaller batch afterwards fits what is there.
        let fewer = x.as_slice()[..34 * hidden].to_vec();
        let fewer = IntTensor::from_vec(fewer, &[34, hidden]).expect("input");
        let (smaller, out) =
            allocations(|| layer.forward_batch_with_scratch(&fewer, &[33, 1], &mut scratch));
        out.expect("smaller batch");
        assert_eq!(smaller, tensor);
    }
}

#[test]
fn a_warm_model_allocates_per_example_only() {
    // (hidden, layers, heads), and two batches of three examples with
    // different row counts: none of it may show in the count.
    let shapes = [
        (32usize, 1usize, 2usize),
        (32, 3, 4),
        (64, 2, 8),
        (128, 1, 2),
    ];
    let short = [example(4, 0), example(6, 1), example(3, 2)];
    let long = [example(33, 3), example(17, 4), example(40, 5)];
    let mut counts = Vec::new();
    for &(hidden, layers, heads) in &shapes {
        let model = model(hidden, layers, heads);
        let mut scratch = GemmScratch::new();
        for batch in [&long[..], &short[..]] {
            model
                .logits_batch_with_scratch(batch, &mut scratch)
                .expect("warm-up");
            let (count, logits) =
                allocations(|| model.logits_batch_with_scratch(batch, &mut scratch));
            assert_eq!(logits.expect("warm call").len(), 3);
            counts.push(count);
        }
    }
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "counts {counts:?} vary with the model or rows"
    );

    // … and it is exactly the outer `Vec`, the body's `seq_lens` and one
    // logits `Vec` per example.
    let model = model(32, 2, 2);
    let mut scratch = GemmScratch::new();
    model
        .logits_batch_with_scratch(&long, &mut scratch)
        .expect("warm-up");
    let per = |n: usize, scratch: &mut GemmScratch| {
        allocations(|| {
            model
                .logits_batch_with_scratch(&long[..n], scratch)
                .expect("call")
        })
        .0
    };
    let (one, two, three) = (
        per(1, &mut scratch),
        per(2, &mut scratch),
        per(3, &mut scratch),
    );
    assert_eq!(three, counts[0]);
    assert_eq!(
        [one, two, three],
        [3, 4, 5],
        "warm calls over 1, 2 and 3 examples"
    );
}
