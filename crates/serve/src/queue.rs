//! Dynamic batching: per-model request queues flushed through one
//! `classify_scored` call.
//!
//! A [`BatchQueue`] owns one worker thread. Callers submit pre-encoded
//! examples and get a [`Ticket`] back. By default the queue is
//! work-conserving: the moment the worker is free it flushes whatever is
//! pending, up to `max_batch` sequences, so a lone request on an idle queue
//! is served at once, and requests that arrive while a flush runs merge
//! into the next window. [`BatchPolicy::max_delay`] is an opt-in hold: with
//! it set, a window stays open until `max_batch` sequences are queued or
//! the oldest request has waited `max_delay`. Either way the window's
//! requests are moved into a single [`EncodedBatch`] and served by one
//! engine call. Results are split back per request and delivered through
//! each ticket's channel. A request may carry a deadline
//! ([`BatchQueue::submit_with_deadline`]): if it expires while the request
//! is still queued, the request resolves to
//! [`ServeError::DeadlineExceeded`] instead of occupying a flush slot.
//!
//! Batched and one-at-a-time inference are bit-identical in every backend
//! (a property the runtime crate tests), so dynamic batching changes
//! throughput and latency but never a single logit bit.

use crate::{lock_clean, Result, ServeError};
use fqbert_nlp::Example;
use fqbert_runtime::{BatchCost, EncodedBatch, Engine, Scored};
use fqbert_telemetry::{Counter, Gauge, Histogram, Registry, Scope};
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// When a queue flushes. By default the queue is work-conserving: a free
/// worker flushes whatever is pending, up to `max_batch` sequences. With an
/// opt-in `max_delay` hold it flushes after `max_batch` sequences are
/// waiting, or once the oldest request has waited `max_delay`, whichever
/// comes first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Flush as soon as this many sequences are queued. A single request
    /// larger than `max_batch` flushes alone (requests are never split).
    pub max_batch: usize,
    /// An opt-in hold: keep a window open until the oldest queued request
    /// has waited this long (or `max_batch` sequences are queued). Zero, the
    /// default, means flush as soon as the worker is free; requests that
    /// arrive while a flush runs still merge, up to `max_batch`, into the
    /// next window.
    pub max_delay: Duration,
    /// Admission bound: a submission that would push the queue past this
    /// many queued sequences is shed immediately with
    /// [`ServeError::ServerOverloaded`] instead of growing the backlog
    /// (counted in [`QueueStats::shed`]). `usize::MAX` (the default) means
    /// unbounded. Requests are never split, so a bound below a request's
    /// own size rejects that request even on an empty queue — keep
    /// `max_queue` ≥ the largest request you accept (in practice a small
    /// multiple of `max_batch`).
    pub max_queue: usize,
}

impl BatchPolicy {
    /// Serve each request the moment it arrives (batch size 1) — the
    /// no-batching baseline the throughput bench compares against.
    pub fn immediate() -> Self {
        Self {
            max_batch: 1,
            max_delay: Duration::ZERO,
            max_queue: usize::MAX,
        }
    }

    /// This policy with the admission bound set to `max_queue` sequences
    /// (`usize::MAX` = unbounded).
    pub fn bounded(self, max_queue: usize) -> Self {
        Self { max_queue, ..self }
    }
}

/// Work-conserving: up to 16 sequences per flush, no hold, unbounded queue.
impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 16,
            max_delay: Duration::ZERO,
            max_queue: usize::MAX,
        }
    }
}

/// What a [`Ticket`] resolves to: the request's scored classifications
/// plus how the queue served it.
#[derive(Debug, Clone, PartialEq)]
pub struct TicketResponse {
    /// Scored classification of each submitted sequence, in input order.
    pub results: Vec<Scored>,
    /// Simulated accelerator cost of exactly this request's sequences, if
    /// the backend charges one.
    pub cost: Option<BatchCost>,
    /// Total sequences in the flush window this request was served in
    /// (≥ the request's own size when batching kicked in).
    pub flushed_batch: usize,
    /// Time the request spent queued before its flush started.
    pub wait: Duration,
    /// Whether this response was replayed from the serving layer's
    /// response cache instead of an engine flush. Always `false` on
    /// responses produced by the queue itself; the
    /// [`crate::ResponseCache`] sets it on LRU hits.
    pub cached: bool,
}

/// Pending-response handle returned by [`BatchQueue::submit`].
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<TicketResponse>>,
}

impl Ticket {
    /// Blocks until the request is served (or fails).
    ///
    /// # Errors
    ///
    /// Propagates engine errors for this request; returns
    /// [`ServeError::ShuttingDown`] if the queue stopped before serving it.
    pub fn wait(self) -> Result<TicketResponse> {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }
}

/// Counters describing how a queue has batched its traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Requests served (including failed ones).
    pub requests: u64,
    /// Sequences classified.
    pub sequences: u64,
    /// Engine flushes performed.
    pub flushes: u64,
    /// Largest number of sequences merged into one flush.
    pub largest_flush: u64,
    /// Requests whose deadline expired before a flush could serve them.
    pub expired: u64,
    /// Requests shed at admission because the queue was at
    /// [`BatchPolicy::max_queue`]. Shed requests never enter the queue and
    /// are not counted in [`QueueStats::requests`].
    pub shed: u64,
    /// Times the worker thread died and was respawned by a submitter.
    pub restarts: u64,
}

impl QueueStats {
    /// Mean sequences per engine call — the batching win over serving each
    /// request alone.
    pub fn mean_flush(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.sequences as f64 / self.flushes as f64
        }
    }
}

struct PendingRequest {
    examples: Vec<Example>,
    enqueued: Instant,
    /// Latest instant a flush may still start serving this request; past
    /// it the request resolves to [`ServeError::DeadlineExceeded`].
    deadline: Option<Instant>,
    reply: mpsc::Sender<Result<TicketResponse>>,
}

impl PendingRequest {
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|deadline| now >= deadline)
    }
}

struct QueueState {
    pending: VecDeque<PendingRequest>,
    queued_sequences: usize,
    shutdown: bool,
}

/// Cached telemetry handles for one queue, named `<scope>.queue.*`.
/// Resolved once at queue start so the submit/flush paths never touch the
/// registry lock.
struct QueueMetrics {
    /// `queue.requests`: requests resolved by the worker (served, failed
    /// or expired — not shed).
    requests: Arc<Counter>,
    /// `queue.sequences`: sequences classified.
    sequences: Arc<Counter>,
    /// `queue.flushes`: merged engine calls performed.
    flushes: Arc<Counter>,
    /// `queue.largest_flush`: high-water sequences in one flush.
    largest_flush: Arc<Gauge>,
    /// `queue.expired`: requests whose deadline passed while queued.
    expired: Arc<Counter>,
    /// `queue.shed`: requests rejected at admission (`max_queue`).
    shed: Arc<Counter>,
    /// `queue.restarts`: worker threads respawned after a death.
    restarts: Arc<Counter>,
    /// `queue.depth`: sequences currently queued.
    depth: Arc<Gauge>,
    /// `queue.wait_us`: time from submission to flush start, per request.
    wait_us: Arc<Histogram>,
    /// `queue.flush_size`: sequences merged per flush.
    flush_size: Arc<Histogram>,
    /// `queue.flush_occupancy_pct`: flush size as a percentage of
    /// `max_batch` (can exceed 100 for an oversized single request).
    flush_occupancy_pct: Arc<Histogram>,
    /// `queue.flush_us`: wall-clock time of one whole flush, engine call
    /// plus result routing (and any single-request retries).
    flush_us: Arc<Histogram>,
}

impl QueueMetrics {
    fn new(scope: &Scope) -> Self {
        let queue = scope.child("queue");
        Self {
            requests: queue.counter("requests"),
            sequences: queue.counter("sequences"),
            flushes: queue.counter("flushes"),
            largest_flush: queue.gauge("largest_flush"),
            expired: queue.counter("expired"),
            shed: queue.counter("shed"),
            restarts: queue.counter("restarts"),
            depth: queue.gauge("depth"),
            wait_us: queue.histogram("wait_us"),
            flush_size: queue.histogram("flush_size"),
            flush_occupancy_pct: queue.histogram("flush_occupancy_pct"),
            flush_us: queue.histogram("flush_us"),
        }
    }
}

struct QueueInner {
    engine: Arc<Engine>,
    policy: BatchPolicy,
    state: Mutex<QueueState>,
    cond: Condvar,
    metrics: QueueMetrics,
    telemetry: Arc<Registry>,
}

impl QueueInner {
    fn new(engine: Arc<Engine>, policy: BatchPolicy, scope: &Scope) -> Self {
        Self {
            engine,
            policy: BatchPolicy {
                max_batch: policy.max_batch.max(1),
                ..policy
            },
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                queued_sequences: 0,
                shutdown: false,
            }),
            cond: Condvar::new(),
            metrics: QueueMetrics::new(scope),
            telemetry: Arc::clone(scope.registry()),
        }
    }

    /// Queues one request and wakes the worker, returning `true`; or
    /// answers it through `reply` at once and returns `false` — an empty
    /// request with an empty response, one after shutdown with
    /// [`ServeError::ShuttingDown`], one past `max_queue` with
    /// [`ServeError::ServerOverloaded`].
    fn admit(
        &self,
        examples: Vec<Example>,
        deadline: Option<Duration>,
        reply: mpsc::Sender<Result<TicketResponse>>,
    ) -> bool {
        if examples.is_empty() {
            let _ = reply.send(Ok(TicketResponse {
                results: Vec::new(),
                cost: None,
                flushed_batch: 0,
                wait: Duration::ZERO,
                cached: false,
            }));
            return false;
        }
        let mut state = lock_clean(&self.state);
        if state.shutdown {
            drop(state);
            let _ = reply.send(Err(ServeError::ShuttingDown));
            return false;
        }
        // Admission control: a request that would push the backlog past
        // `max_queue` sequences is shed now, while it is cheap — before
        // encoding work, queue growth, or a doomed multi-window wait.
        if state.queued_sequences.saturating_add(examples.len()) > self.policy.max_queue {
            drop(state);
            self.metrics.shed.inc();
            let _ = reply.send(Err(ServeError::ServerOverloaded));
            return false;
        }
        let enqueued = Instant::now();
        state.queued_sequences += examples.len();
        self.metrics.depth.add(examples.len() as i64);
        state.pending.push_back(PendingRequest {
            examples,
            enqueued,
            deadline: deadline.map(|d| enqueued + d),
            reply,
        });
        drop(state);
        self.cond.notify_all();
        true
    }
}

/// A dynamic batching queue over one engine, with one worker thread.
pub struct BatchQueue {
    inner: Arc<QueueInner>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl BatchQueue {
    /// Starts the worker thread for `engine` under `policy`, recording
    /// telemetry into a private registry (`queue.*`).
    pub fn start(engine: Arc<Engine>, policy: BatchPolicy) -> Self {
        Self::start_scoped(engine, policy, &Scope::detached(""))
    }

    /// Starts the worker thread with telemetry registered under `scope`
    /// (metric names become `<scope>.queue.*`) — how a server pools several
    /// model queues into one registry.
    pub fn start_scoped(engine: Arc<Engine>, policy: BatchPolicy, scope: &Scope) -> Self {
        let inner = Arc::new(QueueInner::new(engine, policy, scope));
        // If the OS refuses a thread the queue starts in degraded mode:
        // submissions are served inline on the caller's thread (see
        // `ensure_worker`) instead of failing construction.
        let worker = spawn_worker(&inner).ok();
        Self {
            inner,
            worker: Mutex::new(worker),
        }
    }

    /// The engine this queue flushes into.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.inner.engine
    }

    /// The flush policy.
    pub fn policy(&self) -> BatchPolicy {
        self.inner.policy
    }

    /// The telemetry registry this queue records into: counters mirrored by
    /// [`BatchQueue::stats`] plus `queue.depth`, `queue.wait_us`,
    /// `queue.flush_size`, `queue.flush_occupancy_pct` and `queue.flush_us`
    /// distributions.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.inner.telemetry
    }

    /// Enqueues one request (any number of pre-encoded sequences) and
    /// returns its [`Ticket`]. Requests submitted after
    /// [`BatchQueue::shutdown`] resolve immediately to
    /// [`ServeError::ShuttingDown`]; requests already queued at shutdown
    /// are drained, not dropped.
    pub fn submit(&self, examples: Vec<Example>) -> Ticket {
        self.submit_with_deadline(examples, None)
    }

    /// Enqueues one request with an optional deadline, counted from
    /// submission. A request whose deadline passes before the worker starts
    /// a flush over it resolves to [`ServeError::DeadlineExceeded`] without
    /// occupying a slot in that flush window — and promptly while the
    /// worker is waiting: it wakes at the earliest pending deadline, so
    /// the error arrives at the deadline rather than at the next window
    /// close (a worker busy inside an engine flush delivers it when that
    /// flush returns). A flush that already started runs to completion
    /// (the deadline bounds queue wait, not engine time).
    pub fn submit_with_deadline(
        &self,
        examples: Vec<Example>,
        deadline: Option<Duration>,
    ) -> Ticket {
        let (tx, rx) = mpsc::channel();
        if self.inner.admit(examples, deadline, tx) {
            self.ensure_worker();
        }
        Ticket { rx }
    }

    /// Respawns the worker thread if it died (a panic escaped the flush
    /// path — engine panics are caught, so this is a last line of defence,
    /// counted in [`QueueStats::restarts`]). If no thread can be spawned
    /// at all, serves everything queued inline on this thread so the queue
    /// degrades to slower, unbatched — but correct — service.
    fn ensure_worker(&self) {
        let mut worker = lock_clean(&self.worker);
        if worker.as_ref().is_some_and(|handle| !handle.is_finished()) {
            return;
        }
        if let Some(dead) = worker.take() {
            let _ = dead.join();
            self.inner.metrics.restarts.inc();
        }
        *worker = spawn_worker(&self.inner).ok();
        if worker.is_none() {
            drop(worker);
            drain_inline(&self.inner);
        }
    }

    /// Convenience wrapper: submit and block until served.
    ///
    /// # Errors
    ///
    /// As for [`Ticket::wait`].
    pub fn classify(&self, examples: Vec<Example>) -> Result<TicketResponse> {
        self.submit(examples).wait()
    }

    /// Batching counters since start (a view over the queue's telemetry).
    pub fn stats(&self) -> QueueStats {
        let metrics = &self.inner.metrics;
        QueueStats {
            requests: metrics.requests.get(),
            sequences: metrics.sequences.get(),
            flushes: metrics.flushes.get(),
            largest_flush: u64::try_from(metrics.largest_flush.get()).unwrap_or(0),
            expired: metrics.expired.get(),
            shed: metrics.shed.get(),
            restarts: metrics.restarts.get(),
        }
    }

    /// Stops accepting new requests, drains everything already queued and
    /// joins the worker. Idempotent; called automatically on drop.
    pub fn shutdown(&self) {
        {
            let mut state = lock_clean(&self.inner.state);
            state.shutdown = true;
        }
        self.inner.cond.notify_all();
        let mut worker_slot = lock_clean(&self.worker);
        let worker = worker_slot.take();
        drop(worker_slot);
        if let Some(worker) = worker {
            let _ = worker.join();
        }
        // The worker drains the queue before exiting; if it died instead
        // (join error above, or it could never be spawned) fail whatever
        // it left behind so no ticket blocks forever.
        let leftovers: Vec<PendingRequest> = {
            let mut state = lock_clean(&self.inner.state);
            state.queued_sequences = 0;
            self.inner.metrics.depth.set(0);
            state.pending.drain(..).collect()
        };
        for request in leftovers {
            let _ = request.reply.send(Err(ServeError::ShuttingDown));
        }
    }
}

impl Drop for BatchQueue {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for BatchQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchQueue")
            .field("engine", &self.inner.engine.backend().name())
            .field("policy", &self.inner.policy)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Spawns the queue's worker thread.
fn spawn_worker(inner: &Arc<QueueInner>) -> std::io::Result<JoinHandle<()>> {
    let worker_inner = Arc::clone(inner);
    std::thread::Builder::new()
        .name(format!("fqbert-queue-{}", inner.engine.backend().name()))
        .spawn(move || worker_loop(&worker_inner))
}

/// Removes one expired request's sequence accounting and bumps the expiry
/// counters. The caller delivers [`ServeError::DeadlineExceeded`] through
/// the request's ticket *after* releasing the state lock — a reply
/// receiver must never rendezvous with a thread that holds queue state.
fn retire_expired(inner: &QueueInner, state: &mut QueueState, request: &PendingRequest) {
    state.queued_sequences -= request.examples.len();
    inner.metrics.depth.add(-(request.examples.len() as i64));
    inner.metrics.expired.inc();
    inner.metrics.requests.inc();
}

/// Removes every pending request whose deadline has passed — anywhere in
/// the queue, since a request behind a large neighbour can expire first —
/// and pushes them onto `expired` for delivery outside the lock.
fn expire_pending(
    inner: &QueueInner,
    state: &mut QueueState,
    now: Instant,
    expired: &mut Vec<PendingRequest>,
) {
    let mut index = 0;
    while let Some(request) = state.pending.get(index) {
        if request.expired(now) {
            if let Some(request) = state.pending.remove(index) {
                retire_expired(inner, state, &request);
                expired.push(request);
            }
        } else {
            index += 1;
        }
    }
}

/// Drains whole requests off the queue front up to `max_batch` sequences;
/// the first request always goes even if it alone exceeds the cap
/// (requests are never split).
fn drain_window(inner: &QueueInner, state: &mut QueueState) -> Vec<PendingRequest> {
    let mut window: Vec<PendingRequest> = Vec::new();
    let mut sequences = 0usize;
    while let Some(front) = state.pending.front() {
        if !window.is_empty() && sequences + front.examples.len() > inner.policy.max_batch {
            break;
        }
        let Some(request) = state.pending.pop_front() else {
            break;
        };
        sequences += request.examples.len();
        state.queued_sequences -= request.examples.len();
        inner.metrics.depth.add(-(request.examples.len() as i64));
        window.push(request);
        if sequences >= inner.policy.max_batch {
            break;
        }
    }
    window
}

/// What one pass under the state lock decided: requests to fail with
/// `DeadlineExceeded`, and either a window to flush or an exit signal.
/// All channel sends happen after the lock is released.
struct WorkerStep {
    expired: Vec<PendingRequest>,
    /// `None` means shutdown with an empty queue: the worker exits.
    window: Option<Vec<PendingRequest>>,
}

/// Waits for the next flush window (or expiry batch) under the state lock.
///
/// The window stays open until the batch fills, the oldest request's delay
/// budget expires (at once under the default zero `max_delay`, so a free
/// worker takes whatever is pending), or shutdown asks for an immediate
/// drain. Waits are cut short at the earliest per-request deadline; when
/// requests expire the step returns at once with an empty window so the
/// caller can deliver their errors promptly — at the deadline, not at the
/// next window close — and then re-enter.
fn next_step(inner: &QueueInner) -> WorkerStep {
    let mut expired = Vec::new();
    let mut state = lock_clean(&inner.state);
    // Sleep until there is work (or shutdown).
    while state.pending.is_empty() && !state.shutdown {
        state = inner
            .cond
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner);
    }
    if state.pending.is_empty() {
        return WorkerStep {
            expired,
            window: None,
        };
    }
    loop {
        let now = Instant::now();
        expire_pending(inner, &mut state, now, &mut expired);
        if !expired.is_empty() {
            // Deliver the expiries first; the worker loops straight back.
            return WorkerStep {
                expired,
                window: Some(Vec::new()),
            };
        }
        let Some(front) = state.pending.front() else {
            // Everything queued expired while the window was open.
            return WorkerStep {
                expired,
                window: Some(Vec::new()),
            };
        };
        let window_deadline = front.enqueued + inner.policy.max_delay;
        if state.queued_sequences >= inner.policy.max_batch
            || state.shutdown
            || now >= window_deadline
        {
            return WorkerStep {
                expired,
                window: Some(drain_window(inner, &mut state)),
            };
        }
        let mut wake = window_deadline;
        for request in &state.pending {
            if let Some(deadline) = request.deadline {
                wake = wake.min(deadline);
            }
        }
        let (next, _timeout) = inner
            .cond
            .wait_timeout(state, wake.saturating_duration_since(now))
            .unwrap_or_else(PoisonError::into_inner);
        state = next;
    }
}

fn worker_loop(inner: &QueueInner) {
    loop {
        let step = next_step(inner);
        for request in step.expired {
            let _ = request.reply.send(Err(ServeError::DeadlineExceeded));
        }
        let Some(window) = step.window else {
            // Shutdown with an empty queue: done.
            return;
        };
        if window.is_empty() {
            // Expiries only; nothing to flush.
            continue;
        }
        flush_window(inner, window);
    }
}

/// Degraded mode: no worker thread exists and none could be spawned.
/// Serves everything queued right now on the calling thread — requests
/// still resolve correctly, they just forfeit cross-request concurrency.
fn drain_inline(inner: &QueueInner) {
    loop {
        let mut expired = Vec::new();
        let window = {
            let mut state = lock_clean(&inner.state);
            expire_pending(inner, &mut state, Instant::now(), &mut expired);
            drain_window(inner, &mut state)
        };
        for request in expired {
            let _ = request.reply.send(Err(ServeError::DeadlineExceeded));
        }
        if window.is_empty() {
            return;
        }
        flush_window(inner, window);
    }
}

/// Runs one merged engine call for `window` and routes the split results
/// back through each request's channel.
fn flush_window(inner: &QueueInner, mut window: Vec<PendingRequest>) {
    let flush_start = Instant::now();
    let flushed_batch: usize = window.iter().map(|r| r.examples.len()).sum();
    let metrics = &inner.metrics;
    metrics.flushes.inc();
    metrics.requests.add(window.len() as u64);
    metrics.sequences.add(flushed_batch as u64);
    metrics.largest_flush.set_max(flushed_batch as i64);
    metrics.flush_size.record(flushed_batch as u64);
    metrics
        .flush_occupancy_pct
        .record((flushed_batch as u64).saturating_mul(100) / inner.policy.max_batch.max(1) as u64);
    for request in &window {
        metrics
            .wait_us
            .record_duration(flush_start.duration_since(request.enqueued));
    }
    // Records the whole flush — engine call, result routing and any
    // single-request retries — when this function returns.
    let _flush_span = metrics.flush_us.start_timer();

    // Move every request's examples into the one merged batch; `spans[i]`
    // is request `i`'s range of it.
    let mut examples = Vec::with_capacity(flushed_batch);
    let spans: Vec<Range<usize>> = window
        .iter_mut()
        .map(|request| {
            let start = examples.len();
            examples.append(&mut request.examples);
            start..examples.len()
        })
        .collect();
    let merged = EncodedBatch::from_examples(examples);
    // A panic inside the engine must cost exactly this window, not the
    // worker thread: catch it and turn it into per-request
    // `internal_error` responses.
    let outcome = catch_unwind(AssertUnwindSafe(|| inner.engine.classify_scored(&merged)));
    let result = match outcome {
        Ok(result) => result,
        Err(_) => {
            for request in window {
                let _ = request.reply.send(Err(ServeError::Internal(
                    "engine panicked during batch flush".into(),
                )));
            }
            return;
        }
    };
    match result {
        Ok(output) => {
            let mut results = output.results.into_iter();
            for (request, span) in window.into_iter().zip(spans) {
                let own: Vec<Scored> = results.by_ref().take(span.len()).collect();
                let cost = sum_costs(&own);
                let _ = request.reply.send(Ok(TicketResponse {
                    results: own,
                    cost,
                    flushed_batch,
                    wait: flush_start.duration_since(request.enqueued),
                    cached: false,
                }));
            }
        }
        Err(_) if window.len() > 1 => {
            // One bad sequence (e.g. all-padding) must not poison the
            // window: retry each request alone so only the offender fails.
            for (request, span) in window.into_iter().zip(spans) {
                let batch = merged.shard(span);
                let retry = catch_unwind(AssertUnwindSafe(|| inner.engine.classify_scored(&batch)));
                let response = match retry {
                    Ok(result) => result.map_err(ServeError::from).map(|output| {
                        let cost = sum_costs(&output.results);
                        TicketResponse {
                            results: output.results,
                            cost,
                            flushed_batch: batch.len(),
                            wait: flush_start.duration_since(request.enqueued),
                            cached: false,
                        }
                    }),
                    Err(_) => Err(ServeError::Internal(
                        "engine panicked during single-request retry".into(),
                    )),
                };
                let _ = request.reply.send(response);
            }
        }
        Err(err) => {
            if let Some(request) = window.into_iter().next() {
                let _ = request.reply.send(Err(ServeError::from(err)));
            }
        }
    }
}

/// Sums the per-sequence simulated costs of a request, if present.
fn sum_costs(results: &[Scored]) -> Option<BatchCost> {
    let mut total: Option<BatchCost> = None;
    for scored in results {
        if let Some(cost) = scored.cost {
            let entry = total.get_or_insert(BatchCost {
                total_cycles: 0,
                latency_ms: 0.0,
            });
            entry.total_cycles += cost.total_cycles;
            entry.latency_ms += cost.latency_ms;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    //! `next_step` driven directly on a queue with no worker thread: no
    //! sleep or wall-clock bound decides these.

    use super::*;
    use fqbert_bert::{BertConfig, BertModel};
    use fqbert_nlp::{TaskKind, Vocab};
    use fqbert_runtime::{BackendKind, EngineBuilder};

    /// A queue under `policy` whose worker never runs; `next_step` never
    /// reaches its engine, so the cheapest one (float, untrained) serves.
    fn idle_queue(policy: BatchPolicy) -> QueueInner {
        let vocab = Vocab::from_tokens(["a", "b"]);
        let model = BertModel::new(
            BertConfig::tiny(vocab.len(), 8, TaskKind::Sst2.num_classes()),
            1,
        );
        let engine = EngineBuilder::new(TaskKind::Sst2)
            .vocab(vocab, 8)
            .backend(BackendKind::Float)
            .build(&model)
            .expect("float engine");
        QueueInner::new(Arc::new(engine), policy, &Scope::detached(""))
    }

    /// Queues one request of `sequences` sequences without a deadline.
    fn admit(queue: &QueueInner, sequences: usize) {
        let example = Example {
            token_ids: vec![2, 3],
            segment_ids: vec![0, 0],
            attention_mask: vec![1, 1],
            label: 0,
        };
        let (reply, _rx) = mpsc::channel();
        assert!(queue.admit(vec![example; sequences], None, reply));
    }

    /// The request sizes of the next window `next_step` hands out.
    fn next_window(queue: &QueueInner) -> Vec<usize> {
        let step = next_step(queue);
        assert!(step.expired.is_empty());
        step.window
            .expect("a window, not an exit")
            .iter()
            .map(|request| request.examples.len())
            .collect()
    }

    #[test]
    fn default_policy_serves_a_lone_request_on_the_first_pass() {
        assert_eq!(BatchPolicy::default().max_delay, Duration::ZERO);
        let queue = idle_queue(BatchPolicy::default());
        admit(&queue, 1);
        assert_eq!(next_window(&queue), vec![1]);
        assert_eq!(lock_clean(&queue.state).queued_sequences, 0);
    }

    #[test]
    fn pending_requests_merge_up_to_max_batch() {
        let queue = idle_queue(BatchPolicy::default());
        assert_eq!(queue.policy.max_batch, 16);
        for _ in 0..5 {
            admit(&queue, 4);
        }
        assert_eq!(next_window(&queue), vec![4, 4, 4, 4]);
        assert_eq!(next_window(&queue), vec![4]);
        assert!(lock_clean(&queue.state).pending.is_empty());
    }

    #[test]
    fn a_request_larger_than_max_batch_flushes_alone() {
        let queue = idle_queue(BatchPolicy::default());
        admit(&queue, 20);
        admit(&queue, 1);
        assert_eq!(next_window(&queue), vec![20]);
        assert_eq!(next_window(&queue), vec![1]);
    }
}
