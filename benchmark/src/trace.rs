//! The traced run: per-layer metrics timed from outside, around calls into
//! each crate's public functions. No product code is instrumented — spans
//! inside the program are a later change.
//!
//! A traced run of a workload does four things inside its `--seconds`:
//!
//! 1. **Workload pass** — the workload's own timed window on the system
//!    under test, with telemetry read before and after, so every count is
//!    a delta over exactly that window (`serve.*`, `runtime.engine_*`).
//! 2. **Engine pass** — on the workload's own batches, alternate
//!    `Engine::classify_batch` with the same forward pass driven from here
//!    (`IntBertModel::embed`, each `layers[i].forward_batch_with_scratch`,
//!    the float classifier), one span per call; the logits of the two must
//!    agree bit for bit.
//! 3. **Stage replay** — the public stage functions on the tensors the
//!    engine pass captured, so the shapes are exactly the workload's.
//!    What the stages do not cover (context P·V loop, head slicing,
//!    allocation) is the derived `fqbert.attn_residual_ns`.
//! 4. **Fixed-shape micro timings** of `tensor`, `quant`, `nlp`, `bert`,
//!    `serve`, `telemetry` and the `accel` cycle model.
//!
//! Spans are kept in memory and written to `trace_<workload>.json` at the
//! end as name / start / end / parent / operation id.

use crate::measure::{median, metric, quantile, time_median_ns, Metric};
use crate::models::{self, Prepared};
use crate::workloads::{self, Inputs, System, Workload};
use crate::{set_up_segment, Report, RunOptions, Segment};
use fqbert_accel::dataflow::EncoderShape;
use fqbert_accel::{cycle_model, AcceleratorConfig};
use fqbert_core::int_model::IntGelu;
use fqbert_core::IntBertModel;
use fqbert_nlp::Example;
use fqbert_quant::{QuantizedLayerNorm, Requantizer, SoftmaxLut};
use fqbert_runtime::{EncodedBatch, Engine, FloatBackend, InferenceBackend};
use fqbert_serve::telemetry::{Histogram, Scope, Snapshot};
use fqbert_serve::{protocol, CacheKey, Json, RequestInputs, ResponseCache, TicketResponse};
use fqbert_tensor::gemm::{gemm_i8_requant, RequantParams};
use fqbert_tensor::{GemmScratch, IntTensor, PackedWeights, RngSource, Tensor};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Probability levels of the softmax LUT, as `fqbert-core` builds it
/// (`PROB_LEVELS`, private there).
const PROB_LEVELS: u32 = 255;
/// Shares of `--seconds` given to each part of the traced run.
const WORKLOAD_SHARE: f64 = 0.35;
const ENGINE_SHARE: f64 = 0.25;
const REPLAY_SHARE: f64 = 0.25;
const MICRO_SHARE: f64 = 0.15;
/// Forward passes of the engine pass kept for the stage replay.
const REPLAY_FORWARDS: usize = 4;
/// Fixed-shape micro timings sharing the micro budget.
const MICRO_BENCHES: f64 = 20.0;

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span and returns its result and the span's id.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce(&mut Tracer, usize) -> T,
    ) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            op,
        });
        let out = f(self, id);
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// A span whose start and end were measured elsewhere (ms offsets).
    fn record(&mut self, name: &'static str, op: u64, start_ms: f64, latency_ms: f64) {
        self.spans.push(Span {
            name,
            start_ns: (start_ms * 1e6) as u64,
            end_ns: ((start_ms + latency_ms) * 1e6) as u64,
            parent: None,
            op,
        });
    }

    /// Per operation, the summed duration (ns) of the spans called `name`.
    fn per_op(&self, name: &str) -> Vec<f64> {
        let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *sums.entry(span.op).or_default() += (span.end_ns - span.start_ns) as f64;
        }
        sums.into_values().collect()
    }

    fn write(&self, path: &std::path::Path) {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("op", Json::Num(s.op as f64)),
                ])
            })
            .collect();
        let _ = std::fs::write(path, Json::Arr(spans).render());
    }
}

/// The forward pass of `IntBertModel::logits_batch_with_scratch`, driven
/// from outside through public functions, one span per call.
struct Forward {
    logits: Vec<f32>,
    /// Input of each encoder layer, when captured for the stage replay.
    layer_inputs: Vec<IntTensor<i8>>,
    seq_lens: Vec<usize>,
}

fn real_len(example: &Example) -> usize {
    example
        .attention_mask
        .iter()
        .take_while(|&&m| m == 1)
        .count()
}

fn outside_forward(
    model: &IntBertModel,
    examples: &[Example],
    tracer: &mut Tracer,
    op: u64,
    capture: bool,
) -> Forward {
    let hidden = model.config().hidden;
    tracer.span("outside.forward", None, op, |tracer, root| {
        // As the engine does: one fresh scratch per call, each layer's
        // input freed as soon as its output exists — so both sides of the
        // comparison put the allocator through the same sequence.
        let scratch = &mut GemmScratch::new();
        let (packed, seq_lens) = tracer.span("fqbert.embed", Some(root), op, |_, _| {
            let mut packed: Vec<i8> = Vec::new();
            let mut seq_lens = Vec::with_capacity(examples.len());
            for example in examples {
                let len = real_len(example);
                let codes = model
                    .embed(&example.token_ids[..len], &example.segment_ids[..len])
                    .expect("embed");
                packed.extend_from_slice(codes.as_slice());
                seq_lens.push(len);
            }
            (packed, seq_lens)
        });
        let total: usize = seq_lens.iter().sum();
        let mut states = IntTensor::from_vec(packed, &[total, hidden]).expect("packed states");
        let mut layer_inputs = Vec::new();
        for layer in &model.layers {
            if capture {
                layer_inputs.push(states.clone());
            }
            states = tracer.span("fqbert.layer", Some(root), op, |_, _| {
                layer
                    .forward_batch_with_scratch(&states, &seq_lens, scratch)
                    .expect("encoder layer")
            });
        }
        let logits = tracer.span("fqbert.classifier", Some(root), op, |_, _| {
            let out_scale = model
                .layers
                .last()
                .map_or(model.embedding_out_scale(), |l| l.output_scale());
            let mut logits = Vec::new();
            let mut start = 0usize;
            for &len in &seq_lens {
                let cls: Vec<f32> = states
                    .row(start)
                    .iter()
                    .map(|&c| c as f32 / out_scale)
                    .collect();
                let row = Tensor::from_vec(cls, &[1, hidden])
                    .and_then(|cls| cls.matmul(model.classifier_weight()))
                    .and_then(|x| x.add_bias(model.classifier_bias()))
                    .expect("classifier");
                logits.extend(row.into_vec());
                start += len;
            }
            logits
        });
        Forward {
            logits,
            layer_inputs,
            seq_lens,
        }
    })
}

/// Median time (ns) per forward pass of each replayed stage, summed over
/// layers, in [`STAGES`] order; then the whole layers
/// (`forward_batch_with_scratch`) on the same tensors; then the residual
/// (whole layers − Σ stages, taken within each iteration so a slow moment
/// of the host hits both sides). Every iteration replays all captured
/// forward passes, so on workloads whose shapes vary the figures are those
/// of the mix.
fn replay_stages(model: &IntBertModel, forwards: &[Forward], budget: Duration) -> [f64; 10] {
    const QKV: usize = 0;
    const ATTN_OUT: usize = 1;
    const FFN1: usize = 2;
    const FFN2: usize = 3;
    const LN: usize = 4;
    const GELU: usize = 5;
    const SCORES: usize = 6;
    const SOFTMAX: usize = 7;
    const LAYER: usize = 8;
    /// Runs `f`, adding its duration (ns) to `slot`.
    fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        *slot += start.elapsed().as_nanos() as f64;
        out
    }
    let scratch = &mut GemmScratch::new();
    let mut samples: [Vec<f64>; 10] = Default::default();
    let begin = Instant::now();
    while samples[0].len() < 2 || begin.elapsed() < budget {
        let mut sums = [0.0f64; 9];
        let layers = forwards.iter().flat_map(|forward| {
            model
                .layers
                .iter()
                .zip(&forward.layer_inputs)
                .map(move |pair| (forward, pair))
        });
        for (forward, (layer, x)) in layers {
            timed(&mut sums[LAYER], || {
                black_box(
                    layer
                        .forward_batch_with_scratch(x, &forward.seq_lens, scratch)
                        .expect("encoder layer"),
                )
            });
            let scales = layer.scales();
            let (total, hidden) = x.as_matrix_dims().expect("layer input");
            let head_dim = hidden / layer.heads();
            let (q, k, v) = timed(&mut sums[QKV], || {
                [&layer.query, &layer.key, &layer.value]
                    .map(|linear| linear.forward_with_scratch(x, scratch).expect("q/k/v"))
                    .into()
            });

            let score_requant = Requantizer::from_scale(
                f64::from(scales.scores)
                    / (f64::from(scales.q) * f64::from(scales.k) * (head_dim as f64).sqrt()),
                8,
            )
            .expect("score requantizer");
            let softmax = SoftmaxLut::new(scales.scores, PROB_LEVELS).expect("softmax LUT");
            let mut row0 = 0usize;
            for &seq in &forward.seq_lens {
                for head in 0..layer.heads() {
                    // Head slicing is not a stage: it lands in the residual.
                    let slice = |t: &IntTensor<i8>| {
                        let mut out = Vec::with_capacity(seq * head_dim);
                        for r in row0..row0 + seq {
                            out.extend_from_slice(
                                &t.row(r)[head * head_dim..(head + 1) * head_dim],
                            );
                        }
                        IntTensor::from_vec(out, &[seq, head_dim]).expect("head block")
                    };
                    let (qh, kh) = (slice(&q), slice(&k));
                    let scores: Vec<i32> = timed(&mut sums[SCORES], || {
                        qh.matmul_transposed_i32(&kh)
                            .expect("scores")
                            .as_slice()
                            .iter()
                            .map(|&acc| score_requant.apply(i64::from(acc)))
                            .collect()
                    });
                    timed(&mut sums[SOFTMAX], || {
                        black_box(softmax.apply_matrix(&scores, seq))
                    });
                }
                row0 += seq;
            }

            // The attention context has V's shape and scale; V stands in for
            // it (GEMM time does not depend on the values).
            let attn_out = timed(&mut sums[ATTN_OUT], || {
                layer
                    .attn_output
                    .forward_with_scratch(&v, scratch)
                    .expect("attn_output")
            });
            let add_ln = |norm: &QuantizedLayerNorm,
                          (a, scale_a): (&IntTensor<i8>, f32),
                          (b, scale_b): (&IntTensor<i8>, f32)| {
                let mut out = Vec::with_capacity(total * hidden);
                for i in 0..total {
                    let row = norm
                        .apply_residual(a.row(i), scale_a, b.row(i), scale_b, scales.layer_norm)
                        .expect("Add&LN");
                    out.extend_from_slice(&row);
                }
                IntTensor::from_vec(out, &[total, hidden]).expect("normed")
            };
            let normed = timed(&mut sums[LN], || {
                add_ln(
                    layer.attn_layer_norm(),
                    (x, scales.input),
                    (&attn_out, scales.attn_output),
                )
            });
            let ffn_pre = timed(&mut sums[FFN1], || {
                layer
                    .ffn1
                    .forward_with_scratch(&normed, scratch)
                    .expect("ffn1")
            });
            let gelu = IntGelu::new(scales.ffn_hidden, scales.ffn_hidden);
            let ffn_hidden = timed(&mut sums[GELU], || gelu.apply_tensor(&ffn_pre));
            let ffn_out = timed(&mut sums[FFN2], || {
                layer
                    .ffn2
                    .forward_with_scratch(&ffn_hidden, scratch)
                    .expect("ffn2")
            });
            timed(&mut sums[LN], || {
                black_box(add_ln(
                    layer.ffn_layer_norm(),
                    (&normed, scales.layer_norm),
                    (&ffn_out, scales.ffn_output),
                ))
            });
        }
        let residual = sums[LAYER] - sums[..LAYER].iter().sum::<f64>();
        for (stage, sum) in sums.into_iter().chain([residual]).enumerate() {
            samples[stage].push(sum / forwards.len() as f64);
        }
    }
    samples.map(|s| median(&s))
}

/// Replayed stage names, in the order [`replay_stages`] returns them.
const STAGES: [&str; 8] = [
    "qkv", "attn_out", "ffn1", "ffn2", "ln", "gelu", "scores", "softmax",
];

/// Counters and histogram totals of the system under test under
/// canonical names (`engine.*`, `queue.*`, `cache.*`, `server.*`,
/// `request_us`), whichever layer owns the registry.
struct Telemetry {
    counters: BTreeMap<String, u64>,
    /// (count, sum) per histogram.
    histograms: BTreeMap<String, (u64, u64)>,
}

impl Telemetry {
    fn read(system: &System) -> Telemetry {
        let mut telemetry = Telemetry {
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
        };
        let mut absorb = |snapshot: &Snapshot, strip: &str| {
            let rename = |name: &str| name.strip_prefix(strip).unwrap_or(name).to_string();
            for (name, value) in &snapshot.counters {
                telemetry.counters.insert(rename(name), *value);
            }
            for (name, histogram) in &snapshot.histograms {
                telemetry
                    .histograms
                    .insert(rename(name), (histogram.count, histogram.sum));
            }
        };
        match system {
            System::Engine(engine) => absorb(&engine.telemetry().snapshot(), ""),
            System::Queue(queue) => {
                absorb(&queue.telemetry().snapshot(), "");
                absorb(&queue.engine().telemetry().snapshot(), "");
            }
            System::Wire { server, .. } => absorb(
                &server.stats_snapshot(),
                &format!("model.{}.", models::ENC4X256.name),
            ),
        }
        telemetry
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn histogram(&self, name: &str) -> (u64, u64) {
        self.histograms.get(name).copied().unwrap_or((0, 0))
    }
}

/// Telemetry change over the workload pass.
struct Delta {
    before: Telemetry,
    after: Telemetry,
}

impl Delta {
    fn count(&self, name: &str) -> f64 {
        (self.after.counter(name) - self.before.counter(name)) as f64
    }

    fn sum(&self, name: &str) -> f64 {
        (self.after.histogram(name).1 - self.before.histogram(name).1) as f64
    }

    fn mean(&self, name: &str) -> f64 {
        let samples = self.after.histogram(name).0 - self.before.histogram(name).0;
        if samples == 0 {
            0.0
        } else {
            self.sum(name) / samples as f64
        }
    }
}

/// A request frame as `Client` writes it.
fn request_line(id: usize, texts: &[String]) -> String {
    Json::obj([
        ("id", Json::str(format!("c{id}"))),
        ("model", Json::str(models::ENC4X256.name)),
        (
            "texts",
            Json::Arr(texts.iter().map(|t| Json::str(t.as_str())).collect()),
        ),
    ])
    .render()
}

/// Fixed-shape timings of the leaf crates.
fn micro_benches(
    prepared: &Prepared,
    batch: &EncodedBatch,
    texts: &[Vec<String>],
    classify_ns: f64,
    budget: Duration,
    out: &mut Vec<Metric>,
) {
    let each = budget.div_f64(MICRO_BENCHES);
    let mut rng = RngSource::seed_from_u64(5);
    let mut codes = |n: usize, lo: i32, hi: i32| -> Vec<i8> {
        (0..n)
            .map(|_| (rng.usize_in(0, (hi - lo + 1) as usize) as i32 + lo) as i8)
            .collect()
    };
    let params = {
        let requant = Requantizer::from_scale(0.004, 8).expect("requantizer");
        RequantParams {
            multiplier: requant.multiplier(),
            shift: requant.shift(),
            clamp: 127,
        }
    };
    let mut scratch = GemmScratch::new();

    // tensor: GEMM at the paper's FFN shape (w4 and w8) and at enc4x256's.
    const ROWS: usize = 256;
    let mut gemm = |name: &str, k: usize, n: usize, nibble: bool, out: &mut Vec<Metric>| -> f64 {
        let bound = if nibble { 7 } else { 127 };
        let weight = IntTensor::from_vec(codes(k * n, -bound, bound), &[k, n]).expect("weight");
        let packed = if nibble {
            PackedWeights::pack_nibble(&weight)
        } else {
            PackedWeights::pack(&weight)
        }
        .expect("pack");
        let x = IntTensor::from_vec(codes(ROWS * k, -127, 127), &[ROWS, k]).expect("x");
        let bias = vec![0i32; n];
        let ns = time_median_ns(each, 3, || {
            black_box(gemm_i8_requant(&x, &packed, &bias, params, &mut scratch).expect("gemm"));
        });
        out.push(metric(name, ns, "ns"));
        ns
    };
    let w4_ns = gemm("tensor.gemm.w4_768x3072_ns", 768, 3072, true, out);
    gemm("tensor.gemm.w8_768x3072_ns", 768, 3072, false, out);
    gemm("tensor.gemm.w4_256x1024_ns", 256, 1024, true, out);
    let macs = (ROWS * 768 * 3072) as f64;
    out.push(metric("tensor.gemm.macs_per_call", macs, "count"));
    out.push(metric("tensor.gemm.w4_gmacs_per_s", macs / w4_ns, "GMAC/s"));
    let head = IntTensor::from_vec(codes(128 * 64, -127, 127), &[128, 64]).expect("head");
    out.push(metric(
        "tensor.matmul_transposed_ns",
        time_median_ns(each, 3, || {
            black_box(
                head.matmul_transposed_i32(&head)
                    .expect("matmul_transposed"),
            );
        }),
        "ns",
    ));
    let nibbles: Vec<u8> = codes(768 * 3072 / 2, -128, 127)
        .into_iter()
        .map(|c| c as u8)
        .collect();
    out.push(metric(
        "tensor.pack_w4_ns",
        time_median_ns(each, 3, || {
            black_box(PackedWeights::from_v2_nibble_bytes(&nibbles, 768, 3072).expect("pack"));
        }),
        "ns",
    ));

    // quant
    let softmax = SoftmaxLut::new(16.0, PROB_LEVELS).expect("softmax LUT");
    let scores: Vec<i32> = codes(128 * 128, -127, 127)
        .into_iter()
        .map(i32::from)
        .collect();
    out.push(metric(
        "quant.softmax_ns",
        time_median_ns(each, 3, || {
            black_box(softmax.apply_matrix(&scores, 128));
        }),
        "ns",
    ));
    for hidden in [256usize, 768] {
        let gamma = vec![1.0f32; hidden];
        let beta = vec![0.0f32; hidden];
        let ln = QuantizedLayerNorm::from_float(&gamma, &beta, 1e-5).expect("LN");
        let (a, b) = (codes(hidden, -127, 127), codes(hidden, -127, 127));
        let name = format!("quant.layernorm_ns_per_row_{hidden}");
        let ns = time_median_ns(each, 3, || {
            for _ in 0..64 {
                black_box(ln.apply_residual(&a, 20.0, &b, 30.0, 25.0).expect("LN row"));
            }
        });
        out.push(metric(&name, ns / 64.0, "ns"));
    }
    let requant = Requantizer::from_scale(0.004, 8).expect("requantizer");
    let accumulators: Vec<i64> = codes(1024, -127, 127)
        .into_iter()
        .map(|c| i64::from(c) * 913)
        .collect();
    out.push(metric(
        "quant.requant_ns_per_kelem",
        time_median_ns(each, 3, || {
            black_box(requant.apply_slice(&accumulators));
        }),
        "ns",
    ));

    // nlp / bert
    let tokenizer = models::tokenizer();
    let first = &texts[0];
    out.push(metric(
        "nlp.encode_ns_per_text",
        time_median_ns(each, 3, || {
            for text in first {
                black_box(tokenizer.encode_single(text));
            }
        }) / first.len() as f64,
        "ns",
    ));
    let float = FloatBackend::new(prepared.float.clone());
    let float_ns = time_median_ns(each, 2, || {
        black_box(float.classify_batch(batch).expect("float forward"));
    });
    out.push(metric("bert.float_forward_ns", float_ns, "ns"));
    out.push(metric(
        "bert.int_over_float",
        classify_ns / float_ns,
        "ratio",
    ));

    // serve: protocol and cache, on this workload's request lines
    let lines: Vec<String> = texts
        .iter()
        .enumerate()
        .map(|(i, t)| request_line(i, t))
        .collect();
    out.push(metric(
        "serve.parse_ns_per_req",
        time_median_ns(each, 3, || {
            for line in &lines {
                black_box(protocol::parse_command(line).expect("parse"));
            }
        }) / lines.len() as f64,
        "ns",
    ));
    let scored = prepared
        .reference
        .classify_scored(&EncodedBatch::from_examples(workloads::encode(first)))
        .expect("scored");
    let response = TicketResponse {
        results: scored.results,
        cost: None,
        flushed_batch: first.len(),
        wait: Duration::ZERO,
        cached: false,
    };
    out.push(metric(
        "serve.render_ns_per_resp",
        time_median_ns(each, 3, || {
            for _ in 0..16 {
                black_box(
                    protocol::response_frame("c0", models::ENC4X256.name, &response, 1.25).render(),
                );
            }
        }) / 16.0,
        "ns",
    ));
    let key = |texts: &[String]| CacheKey {
        model: models::ENC4X256.name.to_string(),
        inputs: RequestInputs::Texts(texts.to_vec()),
    };
    let cache = ResponseCache::new(128, &Scope::detached(""));
    cache
        .get_or_serve(key(first), None, || Ok(response.clone()))
        .expect("insert");
    out.push(metric(
        "serve.cache_hit_ns",
        time_median_ns(each, 3, || {
            for _ in 0..16 {
                black_box(
                    cache
                        .get_or_serve(key(first), None, || unreachable!("hit"))
                        .expect("hit"),
                );
            }
        }) / 16.0,
        "ns",
    ));
    // Misses need fresh keys: the counter prefix makes each key new, and
    // past 128 entries every insert also evicts.
    let mut fresh = 0usize;
    let mut miss_texts = first.clone();
    out.push(metric(
        "serve.cache_miss_overhead_ns",
        time_median_ns(each, 3, || {
            for _ in 0..16 {
                fresh += 1;
                miss_texts[0] = format!("w{} w{}", fresh / 995 % 995, fresh % 995);
                black_box(
                    cache
                        .get_or_serve(key(&miss_texts), None, || Ok(response.clone()))
                        .expect("miss"),
                );
            }
        }) / 16.0,
        "ns",
    ));

    // telemetry
    let histogram = Histogram::new();
    out.push(metric(
        "telemetry.timer_ns",
        time_median_ns(each, 3, || {
            for _ in 0..1000 {
                histogram.start_timer().observe();
            }
        }) / 1000.0,
        "ns",
    ));
    let registry = prepared.reference.telemetry();
    out.push(metric(
        "telemetry.snapshot_ns",
        time_median_ns(each, 3, || {
            for _ in 0..16 {
                black_box(registry.snapshot());
            }
        }) / 16.0,
        "ns",
    ));

    // accel: simulated time of one 128-token sequence on this model. Exact
    // and host-independent, but unvalidated against hardware beyond the
    // paper's Table IV constants.
    let model = prepared.reference.backend().int_model().expect("int model");
    let accel = AcceleratorConfig::zcu111_n16_m16();
    let shape = EncoderShape {
        seq_len: 128,
        hidden: prepared.spec.hidden,
        intermediate: prepared.spec.intermediate,
        heads: prepared.spec.heads,
    };
    let bits = model.layer_bit_widths();
    let report = cycle_model::estimate_latency_mixed(&accel, &shape, &bits);
    out.push(metric(
        "accel.sim_cycles_per_seq",
        report.total_cycles as f64,
        "cycles",
    ));
    out.push(metric("accel.sim_latency_ms", report.latency_ms, "ms"));
    out.push(metric("accel.sim_fps", report.fps(), "1/s"));
    out.push(metric(
        "accel.pe_cycles",
        report.breakdown.pe_cycles as f64,
        "cycles",
    ));
    out.push(metric(
        "accel.softmax_cycles",
        report.breakdown.softmax_cycles as f64,
        "cycles",
    ));
    out.push(metric(
        "accel.ln_cycles",
        report.breakdown.ln_cycles as f64,
        "cycles",
    ));
    out.push(metric(
        "accel.dma_stall_cycles",
        report.breakdown.dma_stall_cycles as f64,
        "cycles",
    ));
    out.push(metric(
        "accel.estimate_ns",
        time_median_ns(each, 3, || {
            black_box(cycle_model::estimate_latency_mixed(&accel, &shape, &bits));
        }),
        "ns",
    ));
}

/// Cold-start costs of the artifact path: `EngineBuilder::load` and the
/// first call after it (which materialises the lazy weight panels).
fn load_timings(prepared: &Prepared, batch: &EncodedBatch, out: &mut Vec<Metric>) {
    let (mut loads, mut firsts) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let start = Instant::now();
        let engine = models::engine_builder()
            .load(&prepared.artifact)
            .expect("load artifact");
        loads.push(start.elapsed().as_nanos() as f64);
        let start = Instant::now();
        black_box(engine.classify_batch(batch).expect("first call"));
        firsts.push(start.elapsed().as_nanos() as f64);
    }
    out.push(metric("runtime.save_ns", prepared.save_ns, "ns"));
    out.push(metric("runtime.load_ns", median(&loads), "ns"));
    out.push(metric("runtime.first_call_ns", median(&firsts), "ns"));
    out.push(metric("fqbert.convert_ns", prepared.convert_ns, "ns"));
}

/// The batch operation `index` of the workload hands the engine.
fn engine_batch(inputs: &Inputs, index: usize) -> EncodedBatch {
    let index = match inputs {
        Inputs::Queue(requests) => index % requests.len().max(1),
        _ => index,
    };
    EncodedBatch::from_examples(inputs.operation(0, index))
}

/// Part 1 of a traced run: the workload's own window on the system under
/// test, with telemetry read on both sides. Pushes the `serve.*` and
/// `runtime.engine_*` metrics and the counting checks.
fn workload_pass(
    workload: Workload,
    segment: &mut Segment,
    seconds: f64,
    tracer: &mut Tracer,
    metrics: &mut Vec<Metric>,
    problems: &mut Vec<String>,
) -> (workloads::Outcome, workloads::Verdict) {
    let before = Telemetry::read(&segment.system);
    let outcome = workloads::run(
        workload,
        &mut segment.system,
        &segment.inputs,
        segment.seed,
        seconds,
    );
    let delta = Delta {
        before,
        after: Telemetry::read(&segment.system),
    };
    let verdict = workloads::verify(
        &outcome,
        &segment.inputs,
        &segment.prepared.reference,
        segment.seed,
    );
    let latencies = workloads::latencies(&outcome);
    for (stream, ops) in outcome.streams.iter().enumerate() {
        for (index, op) in ops.iter().enumerate() {
            let id = (index * outcome.streams.len() + stream) as u64;
            tracer.record("workload.operation", id, op.start_ms, op.latency_ms);
        }
    }
    let wire = matches!(segment.system, System::Wire { .. });
    let cache_total =
        delta.count("cache.hits") + delta.count("cache.misses") + delta.count("cache.coalesced");
    let hit_share = if cache_total > 0.0 {
        delta.count("cache.hits") / cache_total
    } else {
        0.0
    };
    // Client-side round trips exist on the wire workloads only.
    let (rtt_p50_us, wire_overhead_us) = if wire && !latencies.is_empty() {
        let mean_us = latencies.iter().sum::<f64>() / latencies.len() as f64 * 1e3;
        (
            quantile(&latencies, 0.5) * 1e3,
            mean_us - delta.mean("request_us"),
        )
    } else {
        (0.0, 0.0)
    };
    let count = |metric_name: &str, telemetry_name: &str| {
        metric(metric_name, delta.count(telemetry_name), "count")
    };
    metrics.extend([
        count("runtime.engine_calls", "engine.calls"),
        count("runtime.engine_sequences", "engine.sequences"),
        count("serve.requests", "server.requests"),
        count("serve.errors", "server.errors"),
        count("serve.cache_hits", "cache.hits"),
        count("serve.cache_misses", "cache.misses"),
        count("serve.cache_coalesced", "cache.coalesced"),
        metric("serve.cache_hit_share", hit_share, "ratio"),
        count("serve.flushes", "queue.flushes"),
        metric(
            "serve.flush_size_mean",
            delta.mean("queue.flush_size"),
            "seq",
        ),
        metric("serve.flush_us_mean", delta.mean("queue.flush_us"), "us"),
        metric(
            "serve.queue_wait_us_mean",
            delta.mean("queue.wait_us"),
            "us",
        ),
        count("serve.queue_shed", "queue.shed"),
        count("serve.queue_expired", "queue.expired"),
        metric("serve.request_us_mean", delta.mean("request_us"), "us"),
        metric("serve.client_rtt_p50_us", rtt_p50_us, "us"),
        metric("serve.wire_overhead_us", wire_overhead_us, "us"),
        metric(
            "serve.engine_busy_share",
            delta.sum("engine.classify_us") / (outcome.window_s * 1e6),
            "ratio",
        ),
    ]);
    let sent = verdict.attempted as f64;
    let expected_engine_sequences = match workload {
        Workload::WireHot => 0.0,
        _ => verdict.sequences_ok as f64,
    };
    if delta.count("engine.sequences") != expected_engine_sequences {
        problems.push(format!(
            "engine saw {} sequences, {} missed the cache",
            delta.count("engine.sequences"),
            expected_engine_sequences
        ));
    }
    if wire && cache_total != sent {
        problems.push(format!(
            "cache hits+misses+coalesced = {cache_total}, {sent} classify requests sent"
        ));
    }
    match workload {
        Workload::WireHot if hit_share != 1.0 => {
            problems.push(format!("wire_hot cache_hit_share is {hit_share}, not 1"));
        }
        Workload::WireUnique if hit_share != 0.0 => {
            problems.push(format!("wire_unique cache_hit_share is {hit_share}, not 0"));
        }
        _ => {}
    }
    (outcome, verdict)
}

/// What the engine pass hands on.
struct EnginePass {
    /// The first [`REPLAY_FORWARDS`] forward passes, for the stage replay.
    forwards: Vec<Forward>,
    operations: u64,
    /// Operations whose outside-driven logits differ from `classify_batch`'s.
    mismatches: u64,
    classify_ns: f64,
}

/// Part 2 of a traced run: `classify_batch` against the same forward pass
/// driven from outside, alternating, on the workload's own batches.
fn engine_pass(
    engine: &Engine,
    inputs: &Inputs,
    seconds: f64,
    tracer: &mut Tracer,
    metrics: &mut Vec<Metric>,
) -> EnginePass {
    let model = engine.backend().int_model().expect("int model");
    let mut classify_ns = Vec::new();
    let mut mismatches = 0u64;
    let mut forwards = Vec::new();
    let begin = Instant::now();
    while classify_ns.len() < 2 || begin.elapsed().as_secs_f64() < seconds {
        let op = classify_ns.len();
        let batch = engine_batch(inputs, op);
        let start = Instant::now();
        let direct = engine.classify_batch(&batch).expect("classify_batch");
        classify_ns.push(start.elapsed().as_nanos() as f64);
        let capture = forwards.len() < REPLAY_FORWARDS;
        let forward = outside_forward(model, batch.examples(), tracer, op as u64, capture);
        let same = direct
            .logits
            .iter()
            .flatten()
            .map(|l| l.to_bits())
            .eq(forward.logits.iter().map(|l| l.to_bits()));
        mismatches += u64::from(!same);
        if capture {
            forwards.push(forward);
        }
    }
    // Operation i's classify_batch and outside-driven pass ran back to
    // back on the same batch, so differences are taken pair by pair: host
    // drift between pairs cancels.
    let embed = tracer.per_op("fqbert.embed");
    let layers = tracer.per_op("fqbert.layer");
    let classifier = tracer.per_op("fqbert.classifier");
    let outside = tracer.per_op("outside.forward");
    let paired =
        |f: &dyn Fn(usize) -> f64| median(&(0..classify_ns.len()).map(f).collect::<Vec<_>>());
    let classify = median(&classify_ns);
    metrics.extend([
        metric("runtime.classify_ns", classify, "ns"),
        metric(
            "runtime.overhead_ns",
            paired(&|i| classify_ns[i] - (embed[i] + layers[i] + classifier[i])),
            "ns",
        ),
        metric(
            "trace_overhead_share",
            paired(&|i| outside[i] / classify_ns[i] - 1.0),
            "ratio",
        ),
        metric("fqbert.embed_ns", median(&embed), "ns"),
        metric("fqbert.classifier_ns", median(&classifier), "ns"),
    ]);
    EnginePass {
        forwards,
        operations: classify_ns.len() as u64,
        mismatches,
        classify_ns: classify,
    }
}

/// One traced run (`--trace 1`): every per-layer metric of the workload.
pub fn traced_run(options: &RunOptions) -> Report {
    let workload = options.workload;
    let share = |part: f64| options.seconds * part;
    let mut metrics: Vec<Metric> = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    let mut tracer = Tracer::new();

    // 1. Workload pass: segment 0 of the untraced run (same seed, same
    //    inputs), over a shorter window.
    let mut segment = set_up_segment(options, 0, share(WORKLOAD_SHARE));
    let (outcome, verdict) = workload_pass(
        workload,
        &mut segment,
        share(WORKLOAD_SHARE),
        &mut tracer,
        &mut metrics,
        &mut problems,
    );
    let (inputs, prepared) = (&segment.inputs, &segment.prepared);

    // 2. Engine pass, on the in-memory reference engine.
    let pass = engine_pass(
        &prepared.reference,
        inputs,
        share(ENGINE_SHARE),
        &mut tracer,
        &mut metrics,
    );

    // 3. Stage replay on the captured tensors.
    let model = prepared.reference.backend().int_model().expect("int model");
    let replayed = replay_stages(
        model,
        &pass.forwards,
        Duration::from_secs_f64(share(REPLAY_SHARE)),
    );
    let (stages, layer_ns, residual) = (&replayed[..8], replayed[8], replayed[9]);
    metrics.push(metric("fqbert.layer_ns", layer_ns, "ns"));
    for (name, ns) in STAGES
        .iter()
        .zip(stages.iter().copied())
        .chain([(&"attn_residual", residual)])
    {
        metrics.push(metric(&format!("fqbert.{name}_ns"), ns, "ns"));
        metrics.push(metric(
            &format!("fqbert.stage_share.{name}"),
            ns / layer_ns,
            "ratio",
        ));
    }
    // The residual is reported as measured and never fails the run. It is
    // a difference of timings, and a stage replayed on its own is not quite
    // the stage inside the layer (its input is colder, its output freshly
    // allocated): it has read from +19 % to -6 % of the layer on
    // `wide768_b8_s32` as the host's speed drifted, and -27 % on a 2 s
    // window with two replay iterations.

    // 4. Fixed-shape micro timings and cold-start costs.
    let batch = engine_batch(inputs, 0);
    let texts: Vec<Vec<String>> = match inputs {
        Inputs::WireHot(requests) => requests.clone(),
        _ => (0..16)
            .map(|k| workloads::unique_texts(segment.seed, 0, k))
            .collect(),
    };
    micro_benches(
        prepared,
        &batch,
        &texts,
        pass.classify_ns,
        Duration::from_secs_f64(share(MICRO_SHARE)),
        &mut metrics,
    );
    load_timings(prepared, &batch, &mut metrics);

    tracer.write(
        &options
            .out_dir
            .join(format!("trace_{}.json", workload.name())),
    );
    let mut notes = outcome.notes;
    notes.push(metric(
        "engine_pass_operations",
        pass.operations as f64,
        "count",
    ));
    notes.push(metric("spans", tracer.spans.len() as f64, "count"));
    Report {
        metrics,
        notes,
        attempted: verdict.attempted + pass.operations,
        failed: verdict.failed + pass.mismatches,
        verified: verdict.verified + pass.operations,
        output_digest: verdict.output_digest,
        problems,
    }
}
