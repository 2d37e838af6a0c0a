//! Model-loading benchmark: artifact cold start, cross-variant
//! float-tensor dedup, and the serving stack's response-cache hit path
//! against a full engine round trip.
//!
//! Emits `results/BENCH_model_load.json` with, per variant, cold-start
//! time and resident bytes before and after the first forward builds the
//! weight panels, the dedup savings of co-loading the w4 + w8 variants of
//! one task through a shared [`TensorCache`], and the
//! cache-hit-over-engine speedup. The cache comparison asserts
//! bit-identity before any timing, so its numbers can never come from
//! diverging outputs.

use fqbert_autograd::Graph;
use fqbert_bench::impl_to_json;
use fqbert_bert::{BertConfig, BertModel};
use fqbert_core::QatHook;
use fqbert_nlp::{TaskKind, Vocab};
use fqbert_quant::QuantConfig;
use fqbert_runtime::{BackendKind, EncodedBatch, Engine, EngineBuilder, TensorCache};
use fqbert_serve::telemetry::Scope;
use fqbert_serve::{BatchPolicy, BatchQueue, CacheKey, RequestInputs, ResponseCache};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const MAX_LEN: usize = 24;
const TEXTS: [&str; 3] = ["w1 w2 w3 w4", "w5 w6", "w7 w8 w9"];

fn builder() -> EngineBuilder {
    EngineBuilder::new(TaskKind::Sst2).backend(BackendKind::Int)
}

/// Saves calibrated w4 and w8 artifacts of one float model (identical
/// float tensors — the multi-variant serving scenario) and returns their
/// paths.
fn save_artifacts(dir: &Path) -> (PathBuf, PathBuf) {
    let words: Vec<String> = (0..40).map(|i| format!("w{i}")).collect();
    let vocab = Vocab::from_tokens(&words);
    let model = BertModel::new(BertConfig::tiny(vocab.len(), MAX_LEN, 2), 3);
    let mut paths = Vec::new();
    for (name, quant) in [("w4", QuantConfig::fq_bert()), ("w8", QuantConfig::w8a8())] {
        let mut hook = QatHook::calibration_only(quant);
        for i in 0..8 {
            let tokens: Vec<usize> = std::iter::once(2)
                .chain((0..5).map(|d| 4 + (i * 7 + d * 3) % 40))
                .chain(std::iter::once(3))
                .collect();
            let example = fqbert_nlp::Example {
                segment_ids: vec![0; tokens.len()],
                attention_mask: vec![1; tokens.len()],
                token_ids: tokens,
                label: 0,
            };
            let mut graph = Graph::new();
            let bound = model.bind(&mut graph);
            bound
                .forward(&mut graph, &example, &mut hook)
                .expect("calibration");
        }
        let engine = EngineBuilder::new(TaskKind::Sst2)
            .vocab(vocab.clone(), MAX_LEN)
            .backend(BackendKind::Int)
            .build_with_hook(&model, &hook)
            .expect("build engine");
        let path = dir.join(format!("model_load_{name}.fqbt"));
        engine.save(&path).expect("save artifact");
        paths.push(path);
    }
    (paths.remove(0), paths.remove(0))
}

/// Best-of-`reps` wall time of `load`, in microseconds, together with the
/// last engine it produced.
fn time_load(reps: usize, load: impl Fn() -> Engine) -> (f64, Engine) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let engine = load();
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
        last = Some(engine);
    }
    (best, last.expect("at least one rep"))
}

struct VariantRow {
    id: String,
    cold_start_us: f64,
    resident_bytes: u64,
    resident_after_forward_bytes: u64,
}

impl_to_json!(VariantRow {
    id,
    cold_start_us,
    resident_bytes,
    resident_after_forward_bytes,
});

struct Report {
    bench: String,
    budget_ms: u64,
    independent_resident_bytes: u64,
    dedup_resident_bytes: u64,
    dedup_fraction: f64,
    dedup_shared_tensors: u64,
    cache_hit_us: f64,
    engine_round_trip_us: f64,
    cache_hit_speedup: f64,
    results: Vec<VariantRow>,
}

impl_to_json!(Report {
    bench,
    budget_ms,
    independent_resident_bytes,
    dedup_resident_bytes,
    dedup_fraction,
    dedup_shared_tensors,
    cache_hit_us,
    engine_round_trip_us,
    cache_hit_speedup,
    results,
});

fn main() {
    let dir = std::env::temp_dir().join("fqbert_model_load_bench");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (w4_path, w8_path) = save_artifacts(&dir);
    let reps = (criterion::budget_ms() / 10).clamp(3, 20) as usize;

    // Phase 1: cold start. A load reads, CRC-checks and validates the
    // file but builds no panels; the first forward pays for those.
    let mut rows = Vec::new();
    for (name, path) in [("w4", &w4_path), ("w8", &w8_path)] {
        let (cold_start_us, engine) = time_load(reps, || builder().load(path).expect("load"));
        let before = engine.resident_bytes();
        engine.classify_texts(&TEXTS).expect("first forward");
        let after = engine.resident_bytes();
        assert!(after > before, "{name}: first forward must build panels");
        println!(
            "{name}: cold start {cold_start_us:>8.0} us; resident {before} B cold / \
             {after} B after first forward"
        );
        rows.push(VariantRow {
            id: name.to_string(),
            cold_start_us,
            resident_bytes: before as u64,
            resident_after_forward_bytes: after as u64,
        });
    }

    // Phase 2: dedup. Loading both variants through one TensorCache shares
    // their float tensors (embeddings, layer norms, classifier); loading
    // them independently duplicates every one.
    let independent = builder().load(&w4_path).expect("w4").resident_bytes()
        + builder().load(&w8_path).expect("w8").resident_bytes();
    let mut cache = TensorCache::new();
    let mut load_shared = |path: &Path| {
        let bytes: Arc<[u8]> = std::fs::read(path).expect("read artifact").into();
        builder()
            .load_shared_bytes(&bytes, &mut cache)
            .expect("shared load")
    };
    let first = load_shared(&w4_path);
    let second = load_shared(&w8_path);
    let shared = second.load_stats();
    // Naive per-engine sums double-count the tensors the second load
    // interned onto the first's allocations; subtracting the shared bytes
    // yields the pair's true footprint.
    let dedup = first.resident_bytes() + second.resident_bytes() - shared.shared_bytes;
    let fraction = dedup as f64 / independent as f64;
    assert_eq!(shared.shared_tensors, 7, "w8 must share all float tensors");
    assert!(
        fraction < 0.8,
        "dedup pair ({dedup} B) must reside under 0.8x of independent loads ({independent} B)"
    );
    println!(
        "dedup: independent {independent} B, shared {dedup} B ({:.2}x, {} tensor(s) interned)",
        fraction, shared.shared_tensors
    );

    // Phase 3: response-cache hit against a full engine round trip through
    // the batch queue. Bit-identity is asserted before any timing.
    let engine = Arc::new(builder().load(&w4_path).expect("serving engine"));
    // Immediate flushes: the engine-side number measures the engine, not
    // the batching delay window.
    let queue = Arc::new(BatchQueue::start(
        Arc::clone(&engine),
        BatchPolicy::immediate(),
    ));
    let response_cache = ResponseCache::new(32, &Scope::detached(""));
    let texts: Vec<String> = TEXTS.iter().map(|t| t.to_string()).collect();
    let key = CacheKey {
        model: "w4".to_string(),
        inputs: RequestInputs::Texts(texts),
    };
    let submit = || {
        let batch = EncodedBatch::from_texts(engine.tokenizer(), &TEXTS);
        queue.submit(batch.examples().to_vec()).wait()
    };
    let direct = submit().expect("direct round trip");
    let seeded = response_cache
        .get_or_serve(key.clone(), None, submit)
        .expect("seed the cache");
    let replay = response_cache
        .get_or_serve(key.clone(), None, || panic!("must replay"))
        .expect("replay");
    assert!(replay.cached, "repeat must be served from the cache");
    let bits = |r: &fqbert_serve::TicketResponse| -> Vec<u32> {
        r.results
            .iter()
            .flat_map(|s| s.logits.iter().map(|x| x.to_bits()))
            .collect()
    };
    assert_eq!(bits(&direct), bits(&seeded), "seed diverges from queue");
    assert_eq!(bits(&direct), bits(&replay), "replay diverges from queue");

    let timed_reps = reps.max(10);
    let mut engine_us = f64::INFINITY;
    for _ in 0..timed_reps {
        let start = Instant::now();
        submit().expect("engine round trip");
        engine_us = engine_us.min(start.elapsed().as_secs_f64() * 1e6);
    }
    let mut hit_us = f64::INFINITY;
    for _ in 0..timed_reps {
        let start = Instant::now();
        response_cache
            .get_or_serve(key.clone(), None, || panic!("must replay"))
            .expect("cache hit");
        hit_us = hit_us.min(start.elapsed().as_secs_f64() * 1e6);
    }
    let cache_speedup = engine_us / hit_us.max(f64::MIN_POSITIVE);
    assert!(
        cache_speedup >= 5.0,
        "cache hit ({hit_us:.1} us) must be at least 5x faster than the \
         engine round trip ({engine_us:.1} us)"
    );
    println!("response cache: engine {engine_us:.1} us, hit {hit_us:.1} us ({cache_speedup:.0}x)");
    queue.shutdown();

    let report = Report {
        bench: "model_load".to_string(),
        budget_ms: criterion::budget_ms(),
        independent_resident_bytes: independent as u64,
        dedup_resident_bytes: dedup as u64,
        dedup_fraction: fraction,
        dedup_shared_tensors: shared.shared_tensors as u64,
        cache_hit_us: hit_us,
        engine_round_trip_us: engine_us,
        cache_hit_speedup: cache_speedup,
        results: rows,
    };
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let path = fqbert_bench::save_json_in(&dir, "BENCH_model_load", &report)
        .expect("write BENCH_model_load.json");
    println!("wrote {}", path.display());

    std::fs::remove_file(&w4_path).ok();
    std::fs::remove_file(&w8_path).ok();
}
