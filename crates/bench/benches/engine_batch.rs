//! Benchmark of the unified runtime's batched inference: one
//! `classify_batch` call over N sequences versus N batch-of-one calls on
//! the integer backend, the float backend for reference, the blocked
//! packed-weight GEMM kernel against the naive `matmul_i32` + scalar
//! requantize path it replaced, and every SIMD micro-kernel available on
//! this host against the scalar reference (`kernel_comparison`, with
//! derived speedups over scalar and the int4-over-int8 ratio of each kernel
//! in the JSON report).
//!
//! Besides the console output, the run emits machine-readable
//! `results/BENCH_engine_batch.json` (perf trajectory) and
//! `results/BENCH_thread_scaling.json` (sharded batch execution across
//! worker-pool sizes, with speedups over the serial engine and the host's
//! CPU count so a 1-core box's flat curve is interpretable) via the
//! fqbert-bench JSON emitter; CI runs this in quick mode
//! (`FQBERT_BENCH_MS`).

use criterion::{BenchmarkId, Criterion};
use fqbert_autograd::Graph;
use fqbert_bench::impl_to_json;
use fqbert_bert::{BertConfig, BertModel};
use fqbert_core::{convert, IntLinear, QatHook};
use fqbert_nlp::{Example, TaskKind, Tokenizer, Vocab};
use fqbert_quant::QuantConfig;
use fqbert_runtime::{BackendKind, EncodedBatch, Engine, EngineBuilder, ModelArtifact};
use fqbert_tensor::gemm::{kernels, RequantParams};
use fqbert_tensor::{GemmScratch, IntTensor, RngSource};
use std::hint::black_box;
use std::path::Path;

const MAX_LEN: usize = 24;
const SEQ_LEN: usize = 16;

fn example(i: usize) -> Example {
    let mut tokens = vec![2usize];
    tokens.extend((0..SEQ_LEN - 2).map(|d| 4 + (i * 7 + d * 3) % 40));
    tokens.push(3);
    Example {
        segment_ids: vec![0; tokens.len()],
        attention_mask: vec![1; tokens.len()],
        token_ids: tokens,
        label: 0,
    }
}

fn engines() -> (Engine, Engine) {
    let words: Vec<String> = (0..40).map(|i| format!("w{i}")).collect();
    let vocab = Vocab::from_tokens(&words);
    let model = BertModel::new(BertConfig::tiny(vocab.len(), MAX_LEN, 2), 3);
    let mut hook = QatHook::calibration_only(QuantConfig::fq_bert());
    for i in 0..8 {
        let mut graph = Graph::new();
        let bound = model.bind(&mut graph);
        bound
            .forward(&mut graph, &example(i), &mut hook)
            .expect("calibration");
    }
    let builder = || {
        EngineBuilder::new(TaskKind::Sst2)
            .vocab(vocab.clone(), MAX_LEN)
            .batch_size(64)
    };
    let int = builder()
        .backend(BackendKind::Int)
        .build_with_hook(&model, &hook)
        .expect("int engine");
    let float = builder()
        .backend(BackendKind::Float)
        .build(&model)
        .expect("float engine");
    (int, float)
}

fn bench_engine_batching(c: &mut Criterion) {
    let (int_engine, float_engine) = engines();
    let mut group = c.benchmark_group("engine_batch");
    for &batch in &[4usize, 16, 32] {
        let examples: Vec<Example> = (0..batch).map(example).collect();
        let encoded = EncodedBatch::from_examples(examples.clone());
        let singles: Vec<EncodedBatch> = examples
            .iter()
            .map(|e| EncodedBatch::from_examples(vec![e.clone()]))
            .collect();

        group.bench_with_input(BenchmarkId::new("int_batched", batch), &batch, |b, _| {
            b.iter(|| {
                int_engine
                    .classify_batch(black_box(&encoded))
                    .expect("batched")
            })
        });
        group.bench_with_input(
            BenchmarkId::new("int_one_at_a_time", batch),
            &batch,
            |b, _| {
                b.iter(|| {
                    for single in &singles {
                        int_engine
                            .classify_batch(black_box(single))
                            .expect("single");
                    }
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("float_batched", batch), &batch, |b, _| {
            b.iter(|| {
                float_engine
                    .classify_batch(black_box(&encoded))
                    .expect("batched")
            })
        });
        group.bench_with_input(
            BenchmarkId::new("float_one_at_a_time", batch),
            &batch,
            |b, _| {
                b.iter(|| {
                    for single in &singles {
                        float_engine
                            .classify_batch(black_box(single))
                            .expect("single");
                    }
                })
            },
        );
    }
    group.finish();
}

/// The blocked packed-weight kernel against the naive
/// `matmul_i32` + scalar-requantize path it replaced, on BERT-shaped
/// projections (rows = packed batch tokens, in/out = hidden/intermediate).
fn bench_blocked_vs_naive(c: &mut Criterion) {
    let mut rng = RngSource::seed_from_u64(42);
    let mut group = c.benchmark_group("int_linear_kernel");
    for &(rows, inf, outf) in &[
        (64usize, 128usize, 128usize),
        (64, 128, 512),
        (128, 256, 256),
    ] {
        let weight = rng.normal_tensor(&[inf, outf], 0.0, 0.3);
        let bias = rng.normal_tensor(&[outf], 0.0, 0.1);
        let layer = IntLinear::from_float(&weight, &bias, 8, None, 16.0, 16.0).expect("layer");
        let x = IntTensor::<i8>::from_vec(
            (0..rows * inf)
                .map(|i| ((i * 37 + 5) % 255) as i8)
                .collect(),
            &[rows, inf],
        )
        .expect("activations");
        assert_eq!(
            layer.forward(&x).expect("blocked"),
            layer.forward_naive(&x).expect("naive"),
            "kernels must stay bit-identical"
        );

        let shape = format!("{rows}x{inf}x{outf}");
        let mut scratch = GemmScratch::new();
        group.bench_with_input(BenchmarkId::new("blocked", &shape), &rows, |b, _| {
            b.iter(|| {
                layer
                    .forward_with_scratch(black_box(&x), &mut scratch)
                    .expect("blocked")
            })
        });
        group.bench_with_input(BenchmarkId::new("naive", &shape), &rows, |b, _| {
            b.iter(|| layer.forward_naive(black_box(&x)).expect("naive"))
        });
    }
    group.finish();
}

/// Projection shapes the kernel comparison sweeps: rows are packed batch
/// tokens, in/out features are hidden/intermediate sized.
const KERNEL_SHAPES: [(usize, usize, usize); 2] = [(64, 128, 512), (128, 256, 256)];

/// Every GEMM micro-kernel available on this host against the scalar
/// reference, on int8 (wide-panel) and int4 (nibble-panel) projections,
/// plus each dispatch row's requantize epilogue on its own
/// (`requant_<kernel>` rows — the SSE2/AVX2 epilogues serve parameter sets
/// inside [`RequantParams::simd_exact`]). Outputs are asserted
/// bit-identical across kernels before timing; the derived
/// `kernel_comparison` section of `BENCH_engine_batch.json` adds speedups
/// over scalar.
fn bench_kernel_comparison(c: &mut Criterion) {
    let mut rng = RngSource::seed_from_u64(7);
    let mut group = c.benchmark_group("kernel_comparison");
    for &(rows, inf, outf) in &KERNEL_SHAPES {
        let bias = rng.normal_tensor(&[outf], 0.0, 0.1);
        let layers = [
            (
                "w8",
                IntLinear::from_float(
                    &rng.normal_tensor(&[inf, outf], 0.0, 0.3),
                    &bias,
                    8,
                    None,
                    16.0,
                    16.0,
                )
                .expect("w8 layer"),
            ),
            (
                "w4",
                IntLinear::from_float(
                    &rng.normal_tensor(&[inf, outf], 0.0, 0.3),
                    &bias,
                    4,
                    None,
                    16.0,
                    16.0,
                )
                .expect("w4 layer"),
            ),
        ];
        let x = IntTensor::<i8>::from_vec(
            (0..rows * inf)
                .map(|i| ((i * 37 + 5) % 255) as i8)
                .collect(),
            &[rows, inf],
        )
        .expect("activations");
        let shape = format!("{rows}x{inf}x{outf}");
        let mut scratch = GemmScratch::new();
        for (panel, layer) in &layers {
            assert_eq!(kernels::force(kernels::KernelKind::Scalar).name(), "scalar");
            let reference = layer.forward(&x).expect("scalar reference");
            for kind in kernels::available() {
                kernels::force(kind);
                assert_eq!(
                    layer.forward(&x).expect("forward"),
                    reference,
                    "{panel} outputs must stay bit-identical on {}",
                    kind.name()
                );
                group.bench_with_input(
                    BenchmarkId::new(format!("{panel}_{}", kind.name()), &shape),
                    &rows,
                    |b, _| {
                        b.iter(|| {
                            layer
                                .forward_with_scratch(black_box(&x), &mut scratch)
                                .expect("forward")
                        })
                    },
                );
            }
        }
        kernels::force(kernels::best_available());

        // The requantize epilogue in isolation: every dispatch row's
        // kernel over the same accumulator block, checked against the
        // scalar row before timing. Parameters sit inside the SIMD-exact
        // envelope, the regime `gemm_i8_requant` routes to these kernels.
        let acc: Vec<i32> = (0..rows * outf)
            .map(|i| ((i as i64 * 2654435761 + 12345) % 200_000 - 100_000) as i32)
            .collect();
        let requant_bias: Vec<i32> = (0..outf).map(|i| (i as i32 * 977) % 3000 - 1500).collect();
        let params = RequantParams {
            multiplier: (1 << 30) / 3,
            shift: 38,
            clamp: 127,
        };
        assert!(params.simd_exact());
        let mut reference = vec![0i8; rows * outf];
        for (row, out) in reference.chunks_exact_mut(outf).enumerate() {
            (kernels::dispatch_for(kernels::KernelKind::Scalar).requant)(
                &acc[row * outf..(row + 1) * outf],
                &requant_bias,
                params,
                out,
            );
        }
        for kind in kernels::available() {
            let requant = kernels::dispatch_for(kind).requant;
            let mut out = vec![0i8; rows * outf];
            for (row, chunk) in out.chunks_exact_mut(outf).enumerate() {
                requant(
                    &acc[row * outf..(row + 1) * outf],
                    &requant_bias,
                    params,
                    chunk,
                );
            }
            assert_eq!(
                out,
                reference,
                "requant epilogue must stay bit-identical on {}",
                kind.name()
            );
            group.bench_with_input(
                BenchmarkId::new(format!("requant_{}", kind.name()), &shape),
                &rows,
                |b, _| {
                    b.iter(|| {
                        for (row, chunk) in out.chunks_exact_mut(outf).enumerate() {
                            requant(
                                black_box(&acc[row * outf..(row + 1) * outf]),
                                &requant_bias,
                                params,
                                chunk,
                            );
                        }
                    })
                },
            );
        }
    }
    group.finish();
}

struct KernelComparisonRow {
    id: String,
    kernel: String,
    panel: String,
    shape: String,
    mean_ns: f64,
    speedup_vs_scalar: f64,
    /// On `w4` rows: how many times faster the int4 projection runs than
    /// the `w8` one of the same kernel and shape (`w8 ns / w4 ns`) — the CPU
    /// counterpart of a BIM fitting two 8b×4b products in one 8b×8b slot.
    w4_over_w8: Option<f64>,
}

impl_to_json!(KernelComparisonRow {
    id,
    kernel,
    panel,
    shape,
    mean_ns,
    speedup_vs_scalar,
    w4_over_w8
});

/// Derives per-kernel speedups over the scalar reference, and the int4
/// over int8 ratio within each kernel, from the raw `kernel_comparison`
/// bench rows (ids look like `w4_avx2/64x128x512`).
fn kernel_comparison_report(rows: &[criterion::BenchResult]) -> Vec<KernelComparisonRow> {
    let mut results = Vec::new();
    for row in rows {
        let Some((bench, shape)) = row.id.split_once('/') else {
            continue;
        };
        let Some((panel, kernel)) = bench.split_once('_') else {
            continue;
        };
        let mean_ns_of = |id: String| rows.iter().find(|r| r.id == id).map(|r| r.mean_ns);
        let scalar_ns = mean_ns_of(format!("{panel}_scalar/{shape}"));
        let w8_ns = mean_ns_of(format!("w8_{kernel}/{shape}")).filter(|_| panel == "w4");
        results.push(KernelComparisonRow {
            id: row.id.clone(),
            kernel: kernel.to_string(),
            panel: panel.to_string(),
            shape: shape.to_string(),
            mean_ns: row.mean_ns,
            speedup_vs_scalar: scalar_ns.map_or(1.0, |s| s / row.mean_ns),
            w4_over_w8: w8_ns.map(|w8| w8 / row.mean_ns),
        });
    }
    results
}

/// Thread counts the scaling group sweeps (1 = the serial baseline).
const SCALING_THREADS: [usize; 3] = [1, 2, 4];

/// Batch sizes the scaling group sweeps.
const SCALING_BATCHES: [usize; 2] = [16, 32];

/// Sharded batch classification on the int backend across worker-pool
/// sizes, on an encoder-dominated model (enough integer GEMM work per
/// sequence that sharding overhead is negligible). All engines load the
/// same artifact, so every variant computes bit-identical logits — asserted
/// before timing.
fn bench_thread_scaling(c: &mut Criterion) {
    let config = BertConfig {
        vocab_size: 44,
        hidden: 128,
        layers: 2,
        heads: 4,
        intermediate: 256,
        max_len: MAX_LEN,
        type_vocab_size: 2,
        num_classes: 2,
        layer_norm_eps: 1e-5,
    };
    let artifact = w4_artifact(config, 9);
    let engine_for = |threads: usize| {
        EngineBuilder::new(TaskKind::Sst2)
            .backend(BackendKind::Int)
            .batch_size(64)
            .threads(threads)
            .from_artifact(artifact.clone())
            .expect("scaling engine")
    };
    let engines: Vec<(usize, Engine)> = SCALING_THREADS
        .iter()
        .map(|&t| (t, engine_for(t)))
        .collect();

    let mut group = c.benchmark_group("thread_scaling");
    for &batch in &SCALING_BATCHES {
        let encoded = EncodedBatch::from_examples((0..batch).map(example).collect());
        let baseline = engines[0].1.classify_batch(&encoded).expect("serial");
        for (threads, engine) in &engines {
            assert_eq!(
                engine.classify_batch(&encoded).expect("parallel").logits,
                baseline.logits,
                "sharded execution must stay bit-identical before it is timed"
            );
            group.bench_with_input(
                BenchmarkId::new(format!("int_t{threads}"), batch),
                &batch,
                |b, _| b.iter(|| engine.classify_batch(black_box(&encoded)).expect("batch")),
            );
        }
    }
    group.finish();
}

struct ThreadScalingRow {
    id: String,
    threads: u64,
    batch: u64,
    mean_ns: f64,
    seq_per_s: f64,
    speedup_vs_serial: f64,
}

impl_to_json!(ThreadScalingRow {
    id,
    threads,
    batch,
    mean_ns,
    seq_per_s,
    speedup_vs_serial
});

struct ThreadScalingReport {
    bench: String,
    budget_ms: u64,
    host_cpus: u64,
    results: Vec<ThreadScalingRow>,
}

impl_to_json!(ThreadScalingReport {
    bench,
    budget_ms,
    host_cpus,
    results
});

/// Derives the thread-scaling report (throughput and speedup over the
/// serial engine per batch size) from the raw `thread_scaling` bench rows.
fn thread_scaling_report(rows: &[criterion::BenchResult]) -> ThreadScalingReport {
    let mean_of = |threads: usize, batch: usize| -> Option<f64> {
        rows.iter()
            .find(|r| r.id == format!("int_t{threads}/{batch}"))
            .map(|r| r.mean_ns)
    };
    let mut results = Vec::new();
    for &batch in &SCALING_BATCHES {
        let serial_ns = mean_of(1, batch);
        for &threads in &SCALING_THREADS {
            let Some(mean_ns) = mean_of(threads, batch) else {
                continue;
            };
            results.push(ThreadScalingRow {
                id: format!("int_t{threads}/{batch}"),
                threads: threads as u64,
                batch: batch as u64,
                mean_ns,
                seq_per_s: batch as f64 / (mean_ns / 1e9),
                speedup_vs_serial: serial_ns.map_or(1.0, |s| s / mean_ns),
            });
        }
    }
    ThreadScalingReport {
        bench: "thread_scaling".to_string(),
        budget_ms: criterion::budget_ms(),
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        results,
    }
}

/// Builds a calibrated w4 artifact for an arbitrary architecture, the same
/// convert path the serving engines use.
fn w4_artifact(config: BertConfig, seed: u64) -> ModelArtifact {
    let words: Vec<String> = (0..config.vocab_size - 4)
        .map(|i| format!("w{i}"))
        .collect();
    let vocab = Vocab::from_tokens(&words);
    let max_len = config.max_len;
    let model = BertModel::new(config, seed);
    let mut hook = QatHook::calibration_only(QuantConfig::fq_bert());
    for i in 0..4 {
        let mut graph = Graph::new();
        let bound = model.bind(&mut graph);
        bound
            .forward(&mut graph, &example(i), &mut hook)
            .expect("calibration");
    }
    let int_model = convert(&model, &hook).expect("conversion");
    ModelArtifact::new(TaskKind::Sst2, int_model, Tokenizer::new(vocab, max_len))
}

struct BenchRow {
    group: String,
    id: String,
    mean_ns: f64,
    iterations: u64,
}

impl_to_json!(BenchRow {
    group,
    id,
    mean_ns,
    iterations
});

struct BenchReport {
    bench: String,
    budget_ms: u64,
    kernel: String,
    results: Vec<BenchRow>,
    kernel_comparison: Vec<KernelComparisonRow>,
}

impl_to_json!(BenchReport {
    bench,
    budget_ms,
    kernel,
    results,
    kernel_comparison
});

fn main() {
    let mut criterion = Criterion::default();
    bench_engine_batching(&mut criterion);
    bench_blocked_vs_naive(&mut criterion);
    bench_kernel_comparison(&mut criterion);
    bench_thread_scaling(&mut criterion);

    // The thread-scaling and kernel-comparison rows feed their own derived
    // reports; everything else stays in the engine_batch trajectory.
    let (scaling_rows, other_rows): (Vec<_>, Vec<_>) = criterion
        .take_results()
        .into_iter()
        .partition(|r| r.group == "thread_scaling");
    let (kernel_rows, other_rows): (Vec<_>, Vec<_>) = other_rows
        .into_iter()
        .partition(|r| r.group == "kernel_comparison");
    let results: Vec<BenchRow> = other_rows
        .into_iter()
        .map(|r| BenchRow {
            group: r.group,
            id: r.id,
            mean_ns: r.mean_ns,
            iterations: r.iterations,
        })
        .collect();
    let kernel_comparison = kernel_comparison_report(&kernel_rows);
    for row in &kernel_comparison {
        let w4_over_w8 = row
            .w4_over_w8
            .map_or(String::new(), |ratio| format!(", {ratio:.2}x vs w8"));
        println!(
            "kernel_comparison {}: {:.3} ms, {:.2}x vs scalar{w4_over_w8}",
            row.id,
            row.mean_ns / 1e6,
            row.speedup_vs_scalar
        );
    }
    let report = BenchReport {
        bench: "engine_batch".to_string(),
        budget_ms: criterion::budget_ms(),
        kernel: kernels::selected().name.to_string(),
        results,
        kernel_comparison,
    };
    // Benches run with the package directory as CWD; aim at the workspace
    // results/ directory so the perf trajectory lives next to the tables.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let path = fqbert_bench::save_json_in(&dir, "BENCH_engine_batch", &report)
        .expect("write BENCH_engine_batch.json");
    println!("wrote {}", path.display());

    let scaling = thread_scaling_report(&scaling_rows);
    for row in &scaling.results {
        println!(
            "thread_scaling {}: {:.2} ms/batch, {:.0} seq/s, {:.2}x vs serial",
            row.id,
            row.mean_ns / 1e6,
            row.seq_per_s,
            row.speedup_vs_serial
        );
    }
    println!(
        "(host exposes {} CPU(s) — speedups flatten at the core count)",
        scaling.host_cpus
    );
    let path = fqbert_bench::save_json_in(&dir, "BENCH_thread_scaling", &scaling)
        .expect("write BENCH_thread_scaling.json");
    println!("wrote {}", path.display());
}
