//! Integration tests of the zero-copy loading + dedup + response-cache
//! stack above the real engine: registry loads that alias one artifact
//! file, cross-variant float-tensor sharing, and cache/coalescing paths
//! that must stay bit-identical to direct queue round trips.

mod common;

use common::{engine, engine_with_quant};
use fqbert_quant::QuantConfig;
use fqbert_runtime::{BackendKind, EncodedBatch};
use fqbert_serve::telemetry::Scope;
use fqbert_serve::{
    BatchPolicy, BatchQueue, CacheKey, ModelRegistry, ModelSpec, RequestInputs, ResponseCache,
    TicketResponse,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Flattened logit bit patterns of a response, for exact comparisons.
fn logit_bits(response: &TicketResponse) -> Vec<u32> {
    response
        .results
        .iter()
        .flat_map(|r| r.logits.iter().map(|x| x.to_bits()))
        .collect()
}

#[test]
fn registry_collapses_shared_paths_and_dedups_float_tensors() {
    let dir = std::env::temp_dir().join("fqbert_registry_dedup_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let w4_path = dir.join("sst2_w4.fqbt");
    let w8_path = dir.join("sst2_w8.fqbt");
    engine(BackendKind::Int).save(&w4_path).expect("save w4");
    engine_with_quant(BackendKind::Int, QuantConfig::w8a8())
        .save(&w8_path)
        .expect("save w8");

    // The second spec spells the same file with a redundant `.` component:
    // path canonicalization must collapse both onto one file read, and the
    // registry-wide dedup cache must then share every interned table: the
    // two embedding code tables and the two float head tensors. The w8
    // variant lives in its own file but derives from the same float model,
    // so its tables dedup too.
    let alias = dir.join(".").join("sst2_w4.fqbt");
    let specs = [
        ModelSpec {
            name: "w4".to_string(),
            backend: BackendKind::Int,
            path: w4_path.clone(),
            threads: None,
        },
        ModelSpec {
            name: "w4-alias".to_string(),
            backend: BackendKind::Int,
            path: alias,
            threads: None,
        },
        ModelSpec {
            name: "w8".to_string(),
            backend: BackendKind::Int,
            path: w8_path.clone(),
            threads: None,
        },
    ];
    let registry = ModelRegistry::load(&specs).expect("load registry");
    let infos: BTreeMap<String, _> = registry
        .infos()
        .into_iter()
        .map(|info| (info.name.clone(), info))
        .collect();
    assert_eq!(infos.len(), 3);
    assert_eq!(
        infos["w4"].shared_tensors, 0,
        "the first load has nothing to share against"
    );
    assert_eq!(
        infos["w4-alias"].shared_tensors, 4,
        "an aliased path must share both code tables and both head tensors"
    );
    assert_eq!(
        infos["w8"].shared_tensors, 4,
        "a second bit-width of one float model must share its tables"
    );
    for info in infos.values() {
        assert!(
            info.resident_bytes > 0,
            "{} must report resident bytes",
            info.name
        );
    }

    std::fs::remove_file(&w4_path).ok();
    std::fs::remove_file(&w8_path).ok();
}

#[test]
fn cached_and_coalesced_responses_are_bit_identical_to_the_queue() {
    let engine = engine(BackendKind::Int);
    let queue = Arc::new(BatchQueue::start(
        Arc::clone(&engine),
        BatchPolicy {
            max_batch: 4,
            max_delay: Duration::from_millis(2),
            max_queue: usize::MAX,
        },
    ));
    let cache = Arc::new(ResponseCache::new(32, &Scope::detached("")));
    let texts = vec!["w1 w2 w3".to_string(), "w4 w5".to_string()];
    let key = CacheKey {
        model: "sst2".to_string(),
        inputs: RequestInputs::Texts(texts.clone()),
    };
    let submit = {
        let queue = Arc::clone(&queue);
        let engine = Arc::clone(&engine);
        let texts = texts.clone();
        move || {
            let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
            let batch = EncodedBatch::from_texts(engine.tokenizer(), &refs);
            queue.submit(batch.examples().to_vec()).wait()
        }
    };

    // The oracle: a direct queue round trip with no cache in the path.
    let direct = submit().expect("direct queue round trip");
    let direct_bits = logit_bits(&direct);

    // Eight threads race the same key. Exactly one becomes the leader and
    // reaches the queue; everyone else coalesces onto it or replays the
    // stored answer — and every response carries identical logits.
    let barrier = Arc::new(Barrier::new(8));
    let mut workers = Vec::new();
    for _ in 0..8 {
        let cache = Arc::clone(&cache);
        let key = key.clone();
        let submit = submit.clone();
        let barrier = Arc::clone(&barrier);
        workers.push(std::thread::spawn(move || {
            barrier.wait();
            cache.get_or_serve(key, None, submit).expect("serve")
        }));
    }
    let responses: Vec<TicketResponse> = workers
        .into_iter()
        .map(|w| w.join().expect("worker"))
        .collect();
    for response in &responses {
        assert_eq!(
            logit_bits(response),
            direct_bits,
            "cached/coalesced responses must be bit-identical to the queue"
        );
    }
    let stats = cache.stats();
    assert_eq!(stats.misses, 1, "exactly one racer reaches the engine");
    assert_eq!(
        stats.hits + stats.coalesced,
        7,
        "the other seven replay or coalesce"
    );
    // The direct oracle plus the one leader: the queue never saw the
    // repeats.
    assert_eq!(queue.stats().requests, 2);

    // A later repeat replays from the LRU, flagged as cached, still
    // bit-identical, without reaching the queue.
    let replay = cache
        .get_or_serve(key, None, || panic!("must not serve"))
        .expect("replay");
    assert!(replay.cached);
    assert_eq!(logit_bits(&replay), direct_bits);
    assert_eq!(queue.stats().requests, 2);

    queue.shutdown();
}

#[test]
fn cache_hit_is_at_least_5x_faster_than_an_engine_round_trip() {
    let engine = engine(BackendKind::Int);
    // Immediate flushes: the engine-side number measures the engine, not
    // the batching delay window.
    let queue = BatchQueue::start(Arc::clone(&engine), BatchPolicy::immediate());
    let cache = ResponseCache::new(32, &Scope::detached(""));
    let texts = ["w1 w2 w3 w4", "w5 w6", "w7 w8 w9"];
    let key = CacheKey {
        model: "sst2".to_string(),
        inputs: RequestInputs::Texts(texts.iter().map(|t| t.to_string()).collect()),
    };
    let submit = || {
        let batch = EncodedBatch::from_texts(engine.tokenizer(), &texts);
        queue.submit(batch.examples().to_vec()).wait()
    };
    cache
        .get_or_serve(key.clone(), None, submit)
        .expect("seed the cache");

    // Best of ten each; measured ~500x, so 5x holds on a busy host too.
    let best_of_10 = |op: &dyn Fn() -> TicketResponse| {
        (0..10)
            .map(|_| {
                let start = Instant::now();
                op();
                start.elapsed()
            })
            .min()
            .expect("ten repetitions")
    };
    let round_trip = best_of_10(&|| submit().expect("engine round trip"));
    let hit = best_of_10(&|| {
        let replay = cache
            .get_or_serve(key.clone(), None, || panic!("must replay"))
            .expect("cache hit");
        assert!(replay.cached);
        replay
    });
    assert!(
        round_trip >= 5 * hit,
        "a cache hit ({hit:?}) must be at least 5x faster than the engine round trip \
         ({round_trip:?})"
    );
    queue.shutdown();
}
