//! End-to-end server smoke test: spin up the TCP server with several
//! models (two bit-widths of the same task plus a simulated-hardware
//! variant), run concurrent client round trips, exercise the error frames
//! and assert a clean graceful shutdown. This is the test the CI server
//! smoke job runs.

mod common;

use common::{engine, engine_for_task, engine_with_quant};
use fqbert_nlp::TaskKind;
use fqbert_quant::QuantConfig;
use fqbert_runtime::{BackendKind, EncodedBatch};
use fqbert_serve::{BatchPolicy, Client, ModelRegistry, ServeError, Server, ServerConfig};
use fqbert_tensor::gemm::kernels;
use std::io::{BufRead, BufReader, Write};
use std::time::Duration;

fn test_server() -> Server {
    let mut registry = ModelRegistry::new();
    registry
        .register("sst2-w4", engine(BackendKind::Int))
        .expect("register w4");
    registry
        .register(
            "sst2-w8",
            engine_with_quant(BackendKind::Int, QuantConfig::w8a8()),
        )
        .expect("register w8");
    registry
        .register("sst2-sim", engine(BackendKind::Sim))
        .expect("register sim");
    Server::spawn(
        registry,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            policy: BatchPolicy {
                max_batch: 4,
                max_delay: Duration::from_millis(5),
                max_queue: usize::MAX,
            },
            ..ServerConfig::default()
        },
    )
    .expect("spawn server")
}

#[test]
fn server_round_trip_with_concurrent_clients_and_graceful_shutdown() {
    let server = test_server();
    let addr = server.local_addr();

    // Liveness + model listing.
    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("ping");
    let models = client.list_models().expect("list_models");
    let names: Vec<&str> = models.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, vec!["sst2-sim", "sst2-w4", "sst2-w8"]);
    let precisions: Vec<&str> = models.iter().map(|m| m.precision.as_str()).collect();
    assert!(precisions.contains(&"w4/a8") && precisions.contains(&"w8/a8"));
    // The per-layer bit summary collapses to a single label for uniform
    // models; mixed-precision artifacts report runs like `w4[0-5]/w8[6-11]`.
    let bits: Vec<&str> = models.iter().map(|m| m.bits.as_str()).collect();
    assert!(bits.contains(&"w4") && bits.contains(&"w8"));
    // Every model reports the process-wide GEMM kernel the dispatch chose,
    // and every engine holds some resident weight bytes.
    let expected_kernel = kernels::selected().name;
    for model in &models {
        assert!(
            model.resident_bytes > 0,
            "{} has no resident bytes",
            model.name
        );
        let kernel = &model.kernel;
        assert_eq!(kernel, expected_kernel);
    }

    // Concurrent clients across the two bit-widths: every request must be
    // answered on the model it addressed.
    let texts = ["w1 w2 w3", "w4 w5", "w6 w7 w8 w9"];
    let mut workers = Vec::new();
    for worker in 0..4 {
        let model = if worker % 2 == 0 {
            "sst2-w4"
        } else {
            "sst2-w8"
        };
        workers.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let mut responses = Vec::new();
            for _ in 0..3 {
                let response = client.classify_texts(model, &texts).expect("classify");
                assert_eq!(response.model, model);
                assert_eq!(response.results.len(), texts.len());
                assert!(response.latency_ms >= 0.0);
                responses.push(response);
            }
            responses
        }));
    }
    let mut by_model: std::collections::BTreeMap<String, Vec<Vec<f32>>> = Default::default();
    for worker in workers {
        for response in worker.join().expect("worker") {
            for result in &response.results {
                assert_eq!(result.logits.len(), 2);
                assert!((result.scores.iter().sum::<f32>() - 1.0).abs() < 1e-5);
            }
            by_model.entry(response.model.clone()).or_default().push(
                response
                    .results
                    .iter()
                    .flat_map(|r| r.logits.clone())
                    .collect(),
            );
        }
    }
    // Same inputs on the same model always produce identical logits, and
    // the two bit-widths produce different ones (they are different
    // quantizations of the same weights).
    for logits in by_model.values() {
        assert!(logits.windows(2).all(|w| w[0] == w[1]));
    }
    assert_ne!(
        by_model["sst2-w4"][0], by_model["sst2-w8"][0],
        "w4 and w8 models must actually differ"
    );

    // The simulated model reports its cycle-model cost.
    let sim_response = client
        .classify_texts("sst2-sim", &["w1 w2 w3"])
        .expect("sim classify");
    let sim = sim_response.sim.expect("sim cost in response");
    assert!(sim.total_cycles > 0 && sim.latency_ms > 0.0);
    assert!(sim_response.flushed_batch >= 1);

    // Pipelining: many requests in flight on one connection, responses
    // drained in submission order with ids echoed — including a
    // client-supplied id and a mid-stream failure that must not poison its
    // neighbours.
    let mut pipelined = Client::connect(addr).expect("pipelined connect");
    let first = pipelined.submit("sst2-w4", &texts).expect("submit 1");
    pipelined
        .submit_as("my-own-id", "sst2-w8", &["w1 w2"])
        .expect("submit 2");
    let doomed = pipelined
        .submit("no-such-model", &["w3"])
        .expect("submit 3");
    let last = pipelined
        .submit("sst2-w4", &["w4 w5 w6"])
        .expect("submit 4");
    assert_eq!(pipelined.pending(), 4);
    let drained = pipelined.drain().expect("drain");
    assert_eq!(pipelined.pending(), 0);
    let ids: Vec<&str> = drained.iter().map(|(id, _)| id.as_str()).collect();
    assert_eq!(
        ids,
        vec![first.as_str(), "my-own-id", doomed.as_str(), last.as_str()]
    );
    let ok_first = drained[0].1.as_ref().expect("first response");
    assert_eq!(ok_first.id, first);
    assert_eq!(ok_first.model, "sst2-w4");
    assert_eq!(ok_first.results.len(), texts.len());
    // These exact inputs were served during the concurrency section, so
    // the response cache replays them without another engine call.
    assert!(ok_first.cached, "repeat inputs must replay from the cache");
    // Pipelined and round-trip classification agree bit for bit.
    assert_eq!(
        ok_first
            .results
            .iter()
            .flat_map(|r| r.logits.clone())
            .collect::<Vec<f32>>(),
        by_model["sst2-w4"][0]
    );
    assert_eq!(
        drained[1].1.as_ref().expect("own id response").id,
        "my-own-id"
    );
    let failure = drained[2].1.as_ref().expect_err("unknown model mid-stream");
    assert!(matches!(failure, ServeError::UnknownModel(_)), "{failure}");
    assert!(
        drained[3].1.is_ok(),
        "request after the failure still served"
    );
    // A drained connection is immediately usable for round trips again.
    pipelined.ping().expect("ping after drain");
    // An undrained connection refuses blocking round trips.
    pipelined.submit("sst2-w4", &["w1"]).expect("submit 5");
    let err = pipelined.ping().expect_err("round trip with pending");
    assert!(err.to_string().contains("drain"), "{err}");
    let tail = pipelined.drain().expect("final drain");
    assert_eq!(tail.len(), 1);
    assert!(tail[0].1.is_ok());

    // Error frames: unknown model, then a malformed line on a raw socket.
    let err = client
        .classify_texts("nope", &["w1"])
        .expect_err("unknown model");
    assert!(matches!(err, ServeError::UnknownModel(_)), "{err}");

    let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
    raw.write_all(b"this is not json\n").expect("write");
    raw.flush().expect("flush");
    let mut line = String::new();
    BufReader::new(raw.try_clone().expect("clone"))
        .read_line(&mut line)
        .expect("error frame");
    assert!(line.contains("\"error\""), "{line}");
    assert!(line.contains("protocol"), "{line}");

    // Graceful shutdown via the wire protocol.
    client.shutdown_server().expect("shutdown ack");
    server.join();
    assert!(server.is_shutting_down());
    // The queues saw exactly one engine call per distinct (model, inputs)
    // pair — every repeat either coalesced onto the in-flight leader or
    // replayed from the cache. Distinct work: the three-text batch once on
    // each int model (3 + 3), the sim request (1), and the pipelined
    // section's novel inputs `w1 w2` on w8 (1) plus `w4 w5 w6` and `w1` on
    // w4 (1 + 1); the unknown-model submission never reaches a queue.
    let total_sequences: u64 = server.queue_stats().iter().map(|(_, s)| s.sequences).sum();
    assert_eq!(total_sequences, 3 + 3 + 1 + 1 + 1 + 1);
    // The listener is gone: new connections are refused (allow a beat for
    // the OS to tear the socket down).
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(250)).is_err(),
        "listener must be closed after shutdown"
    );
}

#[test]
fn sentence_pairs_round_trip_through_the_three_class_task() {
    // The paper's second task: (premise, hypothesis) pairs into a
    // three-class head, over the wire and through both engine entry points.
    let task = TaskKind::MnliMatched;
    let mnli = engine_for_task(task, BackendKind::Int, QuantConfig::fq_bert());
    let mut registry = ModelRegistry::new();
    registry
        .register("mnli-w4", mnli.clone())
        .expect("register mnli");
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    };
    let server = Server::spawn(registry, config).expect("spawn server");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let pairs = [
        ("w1 w2 w3", "w4 w5"),
        ("w6 w7", "w8 w9 w10 w11"),
        ("w12", "w13"),
    ];
    let bits = |logits: &[Vec<f32>]| -> Vec<u32> {
        logits.iter().flatten().map(|l| l.to_bits()).collect()
    };
    let served = client.classify_pairs("mnli-w4", &pairs).expect("pairs");
    let served_logits: Vec<Vec<f32>> = served.results.iter().map(|r| r.logits.clone()).collect();
    let batch = mnli
        .classify_batch(&EncodedBatch::from_pairs(mnli.tokenizer(), &pairs))
        .expect("classify_batch");
    let direct = mnli.classify_pairs(&pairs).expect("classify_pairs");
    let direct_logits: Vec<Vec<f32>> = direct.iter().map(|c| c.logits.clone()).collect();
    assert_eq!(bits(&served_logits), bits(&batch.logits));
    assert_eq!(bits(&served_logits), bits(&direct_logits));
    for (result, prediction) in served.results.iter().zip(&batch.predictions) {
        assert_eq!(result.logits.len(), 3);
        assert_eq!(result.prediction, *prediction);
        assert_eq!(result.label, task.class_name(*prediction));
    }

    // The segment ids matter: hypothesis first is a different input.
    let swapped: Vec<(&str, &str)> = pairs.iter().map(|&(a, b)| (b, a)).collect();
    let swapped = client.classify_pairs("mnli-w4", &swapped).expect("swapped");
    for (there, back) in served.results.iter().zip(&swapped.results) {
        assert_ne!(there.logits, back.logits);
    }

    server.shutdown();
    server.join();
}

#[test]
fn deeply_nested_frame_gets_a_protocol_error_and_the_connection_survives() {
    let server = test_server();
    let raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let mut writer = raw;
    // 10 000 unclosed arrays: ~10 kB, far under the frame cap, and enough
    // recursion to overflow a connection thread's stack (and with it the
    // whole process) if the parser followed it down.
    let mut hostile = "[".repeat(10_000);
    hostile.push('\n');
    writer.write_all(hostile.as_bytes()).expect("write");
    writer.write_all(b"{\"cmd\":\"ping\"}\n").expect("write");
    writer.flush().expect("flush");

    let mut line = String::new();
    reader.read_line(&mut line).expect("error frame");
    assert!(line.contains("\"kind\":\"protocol\""), "{line}");
    assert!(line.contains("nesting deeper than 64"), "{line}");
    // Exactly one frame per hostile line: the next line is the pong.
    line.clear();
    reader.read_line(&mut line).expect("pong");
    assert_eq!(line.trim(), "{\"ok\":true,\"pong\":true}");

    server.shutdown();
    server.join();
}

#[test]
fn stats_command_reports_live_per_model_telemetry() {
    let server = test_server();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");

    // Drive known traffic: five distinct single-text requests on w4 (so
    // none of them alias in the response cache), one on w8, none on sim.
    // Queue counters are recorded before the response frame is written, so
    // once `classify_texts` returns the stats are settled.
    for text in ["w1 w2 w3", "w2 w3 w4", "w3 w4 w5", "w4 w5 w6", "w5 w6 w7"] {
        client
            .classify_texts("sst2-w4", &[text])
            .expect("classify w4");
    }
    client
        .classify_texts("sst2-w8", &["w1 w2"])
        .expect("classify w8");

    let stats = client.stats().expect("stats");

    // Server totals: the six classify frames plus this stats frame itself.
    assert!(
        stats.counters.get("server.requests").copied().unwrap_or(0) >= 7,
        "server.requests missing or too small: {:?}",
        stats.counters.get("server.requests")
    );
    assert_eq!(stats.counters.get("server.errors"), Some(&0));
    assert_eq!(stats.gauges.get("server.connections"), Some(&1));

    // Per-model queue counters carry the exact traffic.
    assert_eq!(stats.counters.get("model.sst2-w4.queue.requests"), Some(&5));
    assert_eq!(
        stats.counters.get("model.sst2-w4.queue.sequences"),
        Some(&5)
    );
    assert_eq!(stats.counters.get("model.sst2-w8.queue.requests"), Some(&1));
    assert_eq!(stats.counters.get("model.sst2-w4.queue.shed"), Some(&0));
    assert_eq!(stats.counters.get("model.sst2-w4.queue.expired"), Some(&0));
    assert_eq!(stats.gauges.get("model.sst2-w4.queue.depth"), Some(&0));

    // End-to-end latency percentiles per model, ordered and bounded.
    let latency = stats
        .histograms
        .get("model.sst2-w4.request_us")
        .expect("w4 latency histogram");
    assert_eq!(latency.count, 5);
    assert!(latency.p50 <= latency.p95 && latency.p95 <= latency.p99);
    assert!(latency.min <= latency.max);
    assert!(latency.p99 <= latency.max as f64 + 1e-9);
    assert_eq!(
        stats
            .histograms
            .get("model.sst2-w8.request_us")
            .expect("w8 latency histogram")
            .count,
        1
    );

    // Queue wait and flush-shape histograms exist and saw the flushes.
    let wait = stats
        .histograms
        .get("model.sst2-w4.queue.wait_us")
        .expect("wait histogram");
    assert_eq!(wait.count, 5);
    assert!(stats
        .histograms
        .contains_key("model.sst2-w4.queue.flush_size"));

    // Engine-internal metrics are merged under the same model prefix.
    assert!(
        stats
            .counters
            .get("model.sst2-w4.engine.calls")
            .copied()
            .unwrap_or(0)
            >= 1,
        "engine metrics must merge into the model prefix"
    );

    // The selected GEMM kernel rides along as a label under each model's
    // prefix, matching the in-process dispatch.
    assert_eq!(
        stats
            .labels
            .get("model.sst2-w4.engine.kernel")
            .map(String::as_str),
        Some(kernels::selected().name)
    );

    // Untouched models still report, at zero — the registry registers
    // every metric eagerly at spawn.
    assert_eq!(
        stats.counters.get("model.sst2-sim.queue.requests"),
        Some(&0)
    );

    // All six classify frames carried distinct inputs: six cache misses,
    // no hits, nothing coalesced.
    assert_eq!(stats.counters.get("cache.hits"), Some(&0));
    assert_eq!(stats.counters.get("cache.misses"), Some(&6));
    assert_eq!(stats.counters.get("cache.coalesced"), Some(&0));

    // Resident weight bytes ride as a per-model gauge in the same frame.
    for model in ["sst2-w4", "sst2-w8", "sst2-sim"] {
        assert!(
            stats
                .gauges
                .get(&format!("model.{model}.resident_bytes"))
                .copied()
                .unwrap_or(0)
                > 0,
            "{model} must report resident bytes"
        );
    }

    // A repeat of already-served inputs replays from the cache: the frame
    // is flagged, the hit counter moves, and the queue never sees it.
    let repeat = client
        .classify_texts("sst2-w4", &["w1 w2 w3"])
        .expect("repeat w4");
    assert!(repeat.cached, "repeat inputs must be served from the cache");
    let after = client.stats().expect("stats after repeat");
    assert_eq!(after.counters.get("cache.hits"), Some(&1));
    assert_eq!(after.counters.get("model.sst2-w4.queue.requests"), Some(&5));

    // Opting out with no_cache forces a fresh engine round trip that is
    // still bit-identical to the cached replay.
    let fresh = client
        .classify_texts_uncached("sst2-w4", &["w1 w2 w3"])
        .expect("uncached w4");
    assert!(!fresh.cached, "no_cache must bypass the response cache");
    let repeat_logits: Vec<u32> = repeat
        .results
        .iter()
        .flat_map(|r| r.logits.iter().map(|x| x.to_bits()))
        .collect();
    let fresh_logits: Vec<u32> = fresh
        .results
        .iter()
        .flat_map(|r| r.logits.iter().map(|x| x.to_bits()))
        .collect();
    assert_eq!(
        repeat_logits, fresh_logits,
        "cached replay must be bit-identical to a fresh engine call"
    );
    let uncached_stats = client.stats().expect("stats after no_cache");
    assert_eq!(
        uncached_stats.counters.get("model.sst2-w4.queue.requests"),
        Some(&6),
        "no_cache requests must reach the queue"
    );
    assert_eq!(
        uncached_stats.counters.get("cache.hits"),
        Some(&1),
        "no_cache requests must not touch cache counters"
    );

    // Stats are live: a second snapshot reflects the frames in between.
    let before = stats.counters["server.requests"];
    client.ping().expect("ping");
    let again = client.stats().expect("second stats");
    assert!(
        again.counters["server.requests"] >= before + 2,
        "second snapshot must count the ping and itself"
    );

    client.shutdown_server().expect("shutdown ack");
    server.join();
}
