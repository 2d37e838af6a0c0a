//! The five workloads: seeded inputs, set-up (with warm-up), the timed
//! window and output verification.
//!
//! Every size below is frozen here rather than in `BENCHMARK.json`, whose
//! keys are fixed by the benchmark contract. Later changes cite the
//! workloads by name; changing a constant here is a change to the
//! benchmark, not to the program.

use crate::measure::{cpu_seconds, metric, quantile, sorted, Block, Digest, Metric};
use crate::models::{self, ModelSpec, Prepared, ENC4X256, WIDE768X1};
use fqbert_nlp::Example;
use fqbert_runtime::{BackendKind, EncodedBatch, Engine};
use fqbert_serve::{
    BatchPolicy, BatchQueue, Client, ModelRegistry, ModelSpec as ServedSpec, ServeError, Server,
    ServerConfig,
};
use fqbert_tensor::RngSource;
use std::borrow::Cow;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Distinct pre-generated batches an engine workload cycles through.
const ENGINE_POOL: usize = 64;
/// Offered rate of `queue_open_s16`, requests per second. Closed-loop
/// capacity of `enc4x256` on single 10–26-token sequences measured on the
/// seed commit is ≈ 170 seq/s, so 80 req/s is ≈ 47 % utilisation: busy
/// enough that queue wait and merging matter, far from a growing backlog.
const QUEUE_RATE_PER_S: f64 = 80.0;
/// Admission bound of the queue workload (sequences), as `fqbert-serve`
/// defaults to.
const QUEUE_BOUND: usize = 1024;
/// Words per generated text: 8–24 words, 10–26 tokens with `[CLS]`/`[SEP]`.
const TEXT_WORDS: std::ops::Range<usize> = 8..25;
/// Texts per wire request. A connection handler serves one frame at a
/// time, so with no more connections than cores, batching can only come
/// from multi-text requests.
const TEXTS_PER_REQUEST: usize = 8;
/// Connections of `wire_unique` (= `nproc` of the sizing host).
const WIRE_UNIQUE_CONNECTIONS: usize = 2;
/// Connections of `wire_hot`. With one, client and handler take turns
/// sleeping and the round trip is mostly the wake-up of an idle virtual
/// CPU (85–130 µs from run to run on the sizing host); with one per core
/// the cores stay busy and the server's own work is what is timed
/// (75–79 µs, 2.6× the throughput).
const WIRE_HOT_CONNECTIONS: usize = 2;
/// Distinct requests `wire_hot` cycles through: well below the cache's
/// 128 entries, and few enough that pre-loading them (256 sequences through
/// the engine, three times per run) does not dominate set-up. (8 requests
/// of 32 texts were tried, to shrink the share of thread wake-ups in a
/// round trip: p50 and p90 spreads stayed at 3 % and 18 %.)
const HOT_KEYS: usize = 32;
/// Length of one block of a timed window. The timed metrics come from the
/// quietest blocks of a run ([`crate::measure::quiet`]). Half a second holds
/// 6–9 calls of the engine workloads, enough to rank a block by its median;
/// a neighbour's pause shorter than a block goes unused, so blocks of one and
/// two seconds repeated worse.
const BLOCK_S: f64 = 0.5;
/// One operation in this many is recomputed on the reference path.
const VERIFY_ONE_IN: usize = 16;
/// Operations per stream the `output_digest` covers: a fixed prefix, so a
/// time-based run gives the same digest however many operations it fits.
const DIGEST_OPS: usize = 8;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Seq128B1,
    Wide768B8S32,
    QueueOpenS16,
    WireUnique,
    WireHot,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Seq128B1,
        Workload::Wide768B8S32,
        Workload::QueueOpenS16,
        Workload::WireUnique,
        Workload::WireHot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Seq128B1 => "seq128_b1",
            Workload::Wide768B8S32 => "wide768_b8_s32",
            Workload::QueueOpenS16 => "queue_open_s16",
            Workload::WireUnique => "wire_unique",
            Workload::WireHot => "wire_hot",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn model(self) -> ModelSpec {
        match self {
            Workload::Wide768B8S32 => WIDE768X1,
            _ => ENC4X256,
        }
    }

    /// Whether cached responses are what the workload expects.
    fn expects_cached(self) -> bool {
        self == Workload::WireHot
    }
}

/// One open-loop request: due time from the start of the window and the
/// pre-encoded sequence.
pub struct QueueRequest {
    pub due: Duration,
    pub examples: Vec<Example>,
}

/// Everything generated from `--seed`. The program under test only ever
/// sees these inputs, never the seed.
pub enum Inputs {
    /// Closed-loop engine calls cycling a pool of batches.
    Engine(Vec<EncodedBatch>),
    /// Open-loop arrivals of single-sequence requests.
    Queue(Vec<QueueRequest>),
    /// Never-repeated multi-text requests, generated per (stream, index).
    WireUnique(u64),
    /// A fixed set of multi-text requests, cycled.
    WireHot(Vec<Vec<String>>),
}

fn random_text(rng: &mut RngSource, unique: Option<usize>) -> String {
    let words = rng.usize_in(TEXT_WORDS.start, TEXT_WORDS.end);
    let mut text = String::new();
    let mut push = |index: usize| {
        if !text.is_empty() {
            text.push(' ');
        }
        text.push_str(&format!("w{index}"));
    };
    let mut drawn = 0;
    if let Some(counter) = unique {
        // Two leading words spell a counter, so no two texts can collide.
        push(counter / models::VOCAB_WORDS % models::VOCAB_WORDS);
        push(counter % models::VOCAB_WORDS);
        drawn = 2;
    }
    for _ in drawn..words {
        push(rng.usize_in(0, models::VOCAB_WORDS));
    }
    text
}

/// The texts of request `index` on connection `stream` of `wire_unique`.
pub fn unique_texts(seed: u64, stream: usize, index: usize) -> Vec<String> {
    let request = index * WIRE_UNIQUE_CONNECTIONS + stream;
    let mut rng = RngSource::seed_from_u64(seed.wrapping_mul(0x9e37_79b9) ^ request as u64);
    (0..TEXTS_PER_REQUEST)
        .map(|j| random_text(&mut rng, Some(request * TEXTS_PER_REQUEST + j)))
        .collect()
}

pub fn encode(texts: &[String]) -> Vec<Example> {
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    EncodedBatch::from_texts(models::tokenizer(), &refs)
        .examples()
        .to_vec()
}

impl Inputs {
    /// Generates the inputs of `workload` for a window of `seconds`.
    pub fn generate(workload: Workload, seed: u64, seconds: f64) -> Inputs {
        let mut rng = RngSource::seed_from_u64(seed);
        let engine_pool = |rng: &mut RngSource, batch: usize, tokens: usize| {
            (0..ENGINE_POOL)
                .map(|_| {
                    EncodedBatch::from_examples(
                        (0..batch)
                            .map(|_| models::random_example(rng, tokens))
                            .collect(),
                    )
                })
                .collect()
        };
        match workload {
            Workload::Seq128B1 => Inputs::Engine(engine_pool(&mut rng, 1, 128)),
            Workload::Wide768B8S32 => Inputs::Engine(engine_pool(&mut rng, 8, 32)),
            Workload::QueueOpenS16 => {
                // A Poisson process conditioned on its count is that many
                // uniform arrival times, sorted: the offered load is the
                // same on every seed, the pattern is not. Times come from
                // their own stream so the texts do not depend on the
                // window length (a shorter window sends a prefix).
                let count = (QUEUE_RATE_PER_S * seconds).round().max(1.0) as usize;
                let mut clock = RngSource::seed_from_u64(seed ^ 0x5eed_c10c);
                let mut due: Vec<f64> = (0..count)
                    .map(|_| f64::from(clock.uniform(0.0, 1.0)) * seconds)
                    .collect();
                due.sort_by(f64::total_cmp);
                Inputs::Queue(
                    due.into_iter()
                        .map(|due| QueueRequest {
                            due: Duration::from_secs_f64(due),
                            examples: encode(&[random_text(&mut rng, None)]),
                        })
                        .collect(),
                )
            }
            Workload::WireUnique => Inputs::WireUnique(seed),
            Workload::WireHot => Inputs::WireHot(
                (0..HOT_KEYS)
                    .map(|_| {
                        (0..TEXTS_PER_REQUEST)
                            .map(|_| random_text(&mut rng, None))
                            .collect()
                    })
                    .collect(),
            ),
        }
    }

    /// The texts of wire request `index` on connection `stream`.
    fn texts(&self, stream: usize, index: usize) -> Cow<'_, [String]> {
        match self {
            Inputs::WireUnique(seed) => Cow::Owned(unique_texts(*seed, stream, index)),
            Inputs::WireHot(requests) => Cow::Borrowed(&requests[index % requests.len()]),
            _ => unreachable!("only wire workloads send texts"),
        }
    }

    /// A key of operation `index` of `stream` that is equal for equal
    /// inputs, so reference logits are computed once per distinct input.
    fn operation_key(&self, stream: usize, index: usize) -> usize {
        match self {
            Inputs::Engine(pool) => index % pool.len(),
            Inputs::Queue(_) => index,
            Inputs::WireUnique(_) => index * WIRE_UNIQUE_CONNECTIONS + stream,
            Inputs::WireHot(requests) => index % requests.len(),
        }
    }

    /// The encoded sequences of operation `index` of `stream`.
    pub fn operation(&self, stream: usize, index: usize) -> Vec<Example> {
        match self {
            Inputs::Engine(pool) => pool[index % pool.len()].examples().to_vec(),
            Inputs::Queue(requests) => requests[index].examples.clone(),
            Inputs::WireUnique(_) | Inputs::WireHot(_) => encode(&self.texts(stream, index)),
        }
    }
}

/// The system under test, loaded from the saved artifact and warmed up.
pub enum System {
    Engine(Engine),
    Queue(BatchQueue),
    Wire {
        server: Server,
        clients: Vec<Client>,
    },
}

impl System {
    /// `Engine::resident_bytes()` of the served engine.
    pub fn resident_bytes(&self) -> f64 {
        match self {
            System::Engine(engine) => engine.resident_bytes() as f64,
            System::Queue(queue) => queue.engine().resident_bytes() as f64,
            System::Wire { server, .. } => server
                .stats_snapshot()
                .gauge(&format!("model.{}.resident_bytes", ENC4X256.name))
                .unwrap_or(0) as f64,
        }
    }
}

/// One full set-up: build, calibrate, convert, save, load the artifact the
/// way the workload serves it, and warm up with a fixed number of
/// operations (so set-up is the same work on every run; the conversion
/// that precedes it has already brought the CPU up to speed).
pub fn set_up(
    workload: Workload,
    inputs: &Inputs,
    out_dir: &Path,
    tag: &str,
) -> (Prepared, System) {
    let prepared = models::prepare(workload.model(), out_dir, tag);
    let load_engine = || {
        models::engine_builder()
            .load(&prepared.artifact)
            .expect("load artifact")
    };
    let system = match inputs {
        Inputs::Engine(pool) => {
            let engine = load_engine();
            for batch in pool.iter().take(3) {
                engine.classify_batch(batch).expect("warm-up call");
            }
            System::Engine(engine)
        }
        Inputs::Queue(requests) => {
            let policy = BatchPolicy::default().bounded(QUEUE_BOUND);
            let queue = BatchQueue::start(Arc::new(load_engine()), policy);
            for request in requests.iter().take(16) {
                queue
                    .classify(request.examples.clone())
                    .expect("warm-up request");
            }
            System::Queue(queue)
        }
        Inputs::WireUnique(_) | Inputs::WireHot(_) => {
            let registry = ModelRegistry::load(&[ServedSpec {
                name: ENC4X256.name.to_string(),
                backend: BackendKind::Int,
                path: prepared.artifact.clone(),
                threads: None,
            }])
            .expect("load registry");
            let server = Server::spawn(registry, ServerConfig::default()).expect("spawn server");
            let connections = match inputs {
                Inputs::WireUnique(_) => WIRE_UNIQUE_CONNECTIONS,
                _ => WIRE_HOT_CONNECTIONS,
            };
            let mut clients: Vec<Client> = (0..connections)
                .map(|_| Client::connect(server.local_addr()).expect("connect"))
                .collect();
            // `wire_hot` pre-loads every key it will ask for; `wire_unique`
            // warms up on requests the timed window never sends again.
            let warm_ups = match inputs {
                Inputs::WireHot(requests) => requests.len(),
                _ => 3,
            };
            for (stream, client) in clients.iter_mut().enumerate() {
                for k in 0..warm_ups {
                    let index = match inputs {
                        Inputs::WireUnique(_) => (1 << 40) + k,
                        _ => k,
                    };
                    let texts = inputs.texts(stream, index);
                    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
                    client
                        .classify_texts(ENC4X256.name, &refs)
                        .expect("warm-up request");
                }
            }
            System::Wire { server, clients }
        }
    };
    (prepared, system)
}

/// One timed operation.
pub struct Op {
    /// Start (due time on the open loop), ms from the start of the window.
    pub start_ms: f64,
    pub latency_ms: f64,
    /// Sequences answered; 0 when the operation failed.
    pub sequences: u32,
    /// The answer, kept only where the output check or the digest will
    /// read it — so the benchmark's own memory does not grow with the
    /// throughput it measures.
    pub logits: Option<Vec<f32>>,
}

/// Which operations of a stream are recomputed on the reference path: a
/// seeded one in [`VERIFY_ONE_IN`], and always the first.
#[derive(Clone, Copy)]
struct Sample {
    offset: usize,
}

impl Sample {
    fn new(seed: u64) -> Self {
        Self {
            offset: seed as usize % VERIFY_ONE_IN,
        }
    }

    fn verifies(self, index: usize) -> bool {
        index == 0 || index % VERIFY_ONE_IN == self.offset
    }

    /// Builds the record of operation `index` from its answer.
    fn op(self, index: usize, start_ms: f64, latency_ms: f64, answer: Option<Vec<f32>>) -> Op {
        let sequences = answer.as_ref().map_or(0, |l| l.len() / models::NUM_CLASSES) as u32;
        let keep = index < DIGEST_OPS || self.verifies(index);
        Op {
            start_ms,
            latency_ms,
            sequences,
            logits: answer.filter(|_| keep),
        }
    }
}

/// A block boundary: time since the start of the window and the process
/// CPU time at that moment.
pub struct Mark {
    at_ms: f64,
    cpu_s: f64,
}

/// Marks the block boundaries of a window. One thread of the load generator
/// owns it and ticks it between its operations, so a boundary never cuts
/// that thread's operation in two.
struct BlockClock {
    begin: Instant,
    marks: Vec<Mark>,
}

impl BlockClock {
    fn new(begin: Instant) -> Self {
        let mut clock = Self {
            begin,
            marks: Vec::new(),
        };
        clock.mark();
        clock
    }

    fn mark(&mut self) {
        self.marks.push(Mark {
            at_ms: ms_since(self.begin, Instant::now()),
            cpu_s: cpu_seconds(),
        });
    }

    /// Closes the current block if it has lasted [`BLOCK_S`].
    fn tick(&mut self) {
        let open_since_ms = self.marks.last().map_or(0.0, |mark| mark.at_ms);
        if ms_since(self.begin, Instant::now()) - open_since_ms >= BLOCK_S * 1e3 {
            self.mark();
        }
    }

    /// Closes the last block, at the end of the window.
    fn finish(mut self) -> Vec<Mark> {
        self.mark();
        self.marks
    }
}

/// What a timed window produced.
pub struct Outcome {
    /// Operations per stream (one per generator thread or connection).
    pub streams: Vec<Vec<Op>>,
    /// Block boundaries, the start and the end of the window included.
    pub marks: Vec<Mark>,
    pub window_s: f64,
    pub cpu_s: f64,
    /// Workload-specific hygiene numbers, printed but not part of the
    /// contract (generator lateness, shed/expired counts, backlog).
    pub notes: Vec<Metric>,
}

fn flatten(logits: Vec<Vec<f32>>) -> Vec<f32> {
    logits.into_iter().flatten().collect()
}

fn ms_since(begin: Instant, at: Instant) -> f64 {
    at.saturating_duration_since(begin).as_secs_f64() * 1e3
}

/// Runs the workload's timed window for `seconds`; `seed` picks the
/// operations whose answers are kept for [`verify`].
pub fn run(
    workload: Workload,
    system: &mut System,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
) -> Outcome {
    let sample = Sample::new(seed);
    let begin = Instant::now();
    let mut clock = BlockClock::new(begin);
    let (streams, notes) = match (system, inputs) {
        (System::Engine(engine), Inputs::Engine(pool)) => (
            vec![run_engine(engine, pool, sample, &mut clock, seconds)],
            Vec::new(),
        ),
        (System::Queue(queue), Inputs::Queue(requests)) => {
            run_queue(queue, requests, sample, &mut clock)
        }
        (System::Wire { clients, .. }, inputs) => (
            run_wire(
                clients,
                inputs,
                workload.expects_cached(),
                sample,
                &mut clock,
                seconds,
            ),
            Vec::new(),
        ),
        _ => unreachable!("system and inputs come from the same workload"),
    };
    let marks = clock.finish();
    let (first, last) = (&marks[0], &marks[marks.len() - 1]);
    Outcome {
        streams,
        window_s: (last.at_ms - first.at_ms) * 1e-3,
        cpu_s: last.cpu_s - first.cpu_s,
        marks,
        notes,
    }
}

fn run_engine(
    engine: &Engine,
    pool: &[EncodedBatch],
    sample: Sample,
    clock: &mut BlockClock,
    seconds: f64,
) -> Vec<Op> {
    let begin = clock.begin;
    let mut ops = Vec::new();
    while begin.elapsed().as_secs_f64() < seconds {
        clock.tick();
        let batch = &pool[ops.len() % pool.len()];
        let start = Instant::now();
        let out = engine.classify_batch(batch);
        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
        ops.push(sample.op(
            ops.len(),
            ms_since(begin, start),
            latency_ms,
            out.ok().map(|o| flatten(o.logits)),
        ));
    }
    ops
}

/// Sleeps until `due`. A sleeping thread preempts on wake-up, so it is
/// late only by the timer's overshoot (~0.1 ms here); spinning up to the
/// due time instead loses the CPU to the queue worker for whole time
/// slices on a two-core host and runs milliseconds late.
fn wait_until(due: Instant) {
    loop {
        let left = due.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left);
    }
}

fn run_queue(
    queue: &BatchQueue,
    requests: &[QueueRequest],
    sample: Sample,
    clock: &mut BlockClock,
) -> (Vec<Vec<Op>>, Vec<Metric>) {
    let begin = clock.begin;
    let (tx, rx) = mpsc::channel();
    let completed = AtomicUsize::new(0);
    let mut payloads: Vec<Vec<Example>> = requests.iter().map(|r| r.examples.clone()).collect();
    let mut ops = Vec::with_capacity(requests.len());
    let (mut shed, mut expired) = (0u64, 0u64);
    let (late_ms, backlog) = std::thread::scope(|scope| {
        let completed = &completed;
        let generator = scope.spawn(move || {
            let mut late_ms = Vec::with_capacity(requests.len());
            for (request, examples) in requests.iter().zip(payloads.drain(..)) {
                let due = begin + request.due;
                wait_until(due);
                late_ms.push(ms_since(due, Instant::now()));
                // The collector only ever goes away after this loop ends.
                let _ = tx.send(queue.submit(examples));
            }
            let backlog = requests.len() - completed.load(Ordering::SeqCst);
            (late_ms, backlog)
        });
        // Collector: tickets resolve in flush order, which is submission
        // order, so waiting on them in turn observes each completion as
        // it happens.
        for (request, ticket) in requests.iter().zip(rx) {
            let outcome = ticket.wait();
            let done = Instant::now();
            completed.fetch_add(1, Ordering::SeqCst);
            clock.tick();
            match &outcome {
                Err(ServeError::ServerOverloaded) => shed += 1,
                Err(ServeError::DeadlineExceeded) => expired += 1,
                _ => {}
            }
            ops.push(
                sample.op(
                    ops.len(),
                    request.due.as_secs_f64() * 1e3,
                    ms_since(begin + request.due, done),
                    outcome
                        .ok()
                        .map(|r| r.results.into_iter().flat_map(|s| s.logits).collect()),
                ),
            );
        }
        generator.join().expect("generator thread")
    });
    let succeeded = ops.iter().filter(|op| op.sequences > 0).count();
    let late_ms = sorted(late_ms);
    let notes = vec![
        metric("gen_late_p50_ms", quantile(&late_ms, 0.5), "ms"),
        metric("gen_late_p95_ms", quantile(&late_ms, 0.95), "ms"),
        // A generator more than 1 ms late at p95 measured itself, not the
        // queue: the run is invalid, not slow. (Latency is timed from the
        // due time, so lateness is never hidden — it counts against the
        // system.)
        metric(
            "open_loop_valid",
            f64::from(u8::from(quantile(&late_ms, 0.95) <= 1.0)),
            "bool",
        ),
        metric("sent", requests.len() as f64, "count"),
        metric("succeeded", succeeded as f64, "count"),
        metric("shed", shed as f64, "count"),
        metric("expired", expired as f64, "count"),
        metric("backlog_at_end", backlog as f64, "count"),
    ];
    (vec![ops], notes)
}

fn run_wire(
    clients: &mut [Client],
    inputs: &Inputs,
    expect_cached: bool,
    sample: Sample,
    clock: &mut BlockClock,
    seconds: f64,
) -> Vec<Vec<Op>> {
    let begin = clock.begin;
    // The first connection's thread keeps the block clock.
    let mut clock = Some(clock);
    std::thread::scope(|scope| {
        let connections: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(stream, client)| {
                let mut clock = clock.take();
                scope.spawn(move || {
                    let mut ops = Vec::new();
                    while begin.elapsed().as_secs_f64() < seconds {
                        if let Some(clock) = clock.as_mut() {
                            clock.tick();
                        }
                        let texts = inputs.texts(stream, ops.len());
                        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
                        let start = Instant::now();
                        let response = client.classify_texts(ENC4X256.name, &refs);
                        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
                        let logits = response.ok().and_then(|r| {
                            (r.results.len() == refs.len() && r.cached == expect_cached)
                                .then(|| r.results.into_iter().flat_map(|s| s.logits).collect())
                        });
                        ops.push(sample.op(ops.len(), ms_since(begin, start), latency_ms, logits));
                    }
                    ops
                })
            })
            .collect();
        connections
            .into_iter()
            .map(|c| c.join().expect("connection thread"))
            .collect()
    })
}

/// Logits of `examples` on the one-at-a-time reference path
/// (`IntBertModel::forward_logits` per sequence).
pub fn reference_logits(reference: &Engine, examples: &[Example]) -> Vec<f32> {
    let model = reference
        .backend()
        .int_model()
        .expect("integer reference engine");
    examples
        .iter()
        .flat_map(|example| {
            let real_len = example
                .attention_mask
                .iter()
                .take_while(|&&m| m == 1)
                .count();
            model
                .forward_logits(
                    &example.token_ids[..real_len],
                    &example.segment_ids[..real_len],
                )
                .expect("reference forward")
        })
        .collect()
}

/// Output check of a finished window.
pub struct Verdict {
    pub attempted: u64,
    /// Failed operations plus verified operations whose logits differ.
    pub failed: u64,
    pub verified: u64,
    /// Sequences of operations that succeeded.
    pub sequences_ok: u64,
    pub output_digest: String,
}

/// Recomputes a seeded 1-in-16 sample of operations (and the first of
/// every stream) on the reference path and compares logits bit for bit —
/// on the wire workloads after the JSON round trip.
pub fn verify(outcome: &Outcome, inputs: &Inputs, reference: &Engine, seed: u64) -> Verdict {
    let sample = Sample::new(seed);
    let mut expected: HashMap<usize, Vec<f32>> = HashMap::new();
    let mut verdict = Verdict {
        attempted: 0,
        failed: 0,
        verified: 0,
        sequences_ok: 0,
        output_digest: String::new(),
    };
    let mut digest = Digest::new();
    for (stream, ops) in outcome.streams.iter().enumerate() {
        for (index, op) in ops.iter().enumerate() {
            verdict.attempted += 1;
            if op.sequences == 0 {
                verdict.failed += 1;
                continue;
            }
            verdict.sequences_ok += u64::from(op.sequences);
            // `Sample::op` kept the answer of exactly these operations.
            let Some(logits) = &op.logits else {
                continue;
            };
            if index < DIGEST_OPS {
                digest.update(logits);
            }
            if !sample.verifies(index) {
                continue;
            }
            let want = expected
                .entry(inputs.operation_key(stream, index))
                .or_insert_with(|| reference_logits(reference, &inputs.operation(stream, index)));
            verdict.verified += 1;
            let same = want.len() == logits.len()
                && want
                    .iter()
                    .zip(logits)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                verdict.failed += 1;
            }
        }
    }
    verdict.output_digest = digest.hex();
    verdict
}

/// The window cut into its blocks: every operation belongs to the block it
/// completed in. A last block shorter than half of [`BLOCK_S`] is dropped.
pub fn blocks(outcome: &Outcome) -> Vec<Block> {
    let marks = &outcome.marks;
    let mut blocks: Vec<Block> = marks
        .windows(2)
        .map(|pair| Block {
            latencies: Vec::new(),
            sequences: 0,
            wall_s: (pair[1].at_ms - pair[0].at_ms) * 1e-3,
            cpu_s: pair[1].cpu_s - pair[0].cpu_s,
        })
        .collect();
    for op in outcome.streams.iter().flatten() {
        let done_ms = op.start_ms + op.latency_ms;
        let after = marks.partition_point(|mark| mark.at_ms <= done_ms);
        if let Some(block) = blocks.get_mut(after.saturating_sub(1).min(marks.len() - 2)) {
            block.latencies.push(op.latency_ms);
            block.sequences += u64::from(op.sequences);
        }
    }
    if blocks.len() > 1 && blocks.last().is_some_and(|b| b.wall_s < BLOCK_S / 2.0) {
        blocks.pop();
    }
    blocks
}

/// All latencies of a window, sorted.
pub fn latencies(outcome: &Outcome) -> Vec<f64> {
    sorted(
        outcome
            .streams
            .iter()
            .flatten()
            .map(|op| op.latency_ms)
            .collect(),
    )
}
