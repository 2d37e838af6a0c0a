//! The line-delimited-JSON TCP server: accept loop, per-connection
//! handlers, per-model dynamic batching queues and graceful shutdown.

use crate::cache::{CacheKey, ResponseCache};
use crate::protocol::{self, Command, RequestInputs};
use crate::queue::{BatchPolicy, BatchQueue, TicketResponse};
use crate::registry::ModelRegistry;
use crate::{lock_clean, Result, ServeError};
use fqbert_runtime::EncodedBatch;
use fqbert_telemetry::{Counter, Gauge, Histogram, Registry, Scope, Snapshot};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked socket operations re-check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Server configuration: listen address plus the per-model flush policy.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port — query it with
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Dynamic batching policy applied to every model queue.
    pub policy: BatchPolicy,
    /// Responses retained by the idempotent response cache
    /// ([`ResponseCache`]): repeats of a recent `(model, inputs)` request
    /// replay the stored answer (bit-identical) without touching the
    /// engine, and identical in-flight requests coalesce onto one engine
    /// call. `0` disables replay (coalescing still applies); requests can
    /// opt out individually with `"no_cache": true`.
    pub cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            policy: BatchPolicy::default(),
            cache_capacity: 128,
        }
    }
}

/// Server-wide telemetry handles (`server.*` in the server registry).
struct ServerMetrics {
    /// `server.connections`: client connections currently open.
    connections: Arc<Gauge>,
    /// `server.requests`: frames answered (all commands, all outcomes).
    requests: Arc<Counter>,
    /// `server.errors`: frames answered with an error frame.
    errors: Arc<Counter>,
}

struct Shared {
    registry: ModelRegistry,
    queues: BTreeMap<String, BatchQueue>,
    shutdown: AtomicBool,
    connections: Mutex<Vec<JoinHandle<()>>>,
    /// One registry pooling `server.*`, every queue's `model.<name>.queue.*`
    /// and each model's `model.<name>.request_us` end-to-end histogram.
    /// Engine-internal metrics live in each engine's own registry and are
    /// merged in (prefixed) by [`stats_snapshot`].
    telemetry: Arc<Registry>,
    metrics: ServerMetrics,
    /// End-to-end latency histogram per model (`model.<name>.request_us`):
    /// frame receipt → response framed, including queue wait and flush.
    request_us: BTreeMap<String, Arc<Histogram>>,
    /// The idempotent response cache in front of every queue (`cache.*`
    /// counters in the pooled registry).
    cache: ResponseCache,
    /// `model.<name>.resident_bytes` gauge per model — refreshed on every
    /// stats snapshot, since lazily loaded models grow as panels
    /// materialize.
    resident_bytes: BTreeMap<String, Arc<Gauge>>,
}

/// A running multi-model server.
///
/// Spawned with [`Server::spawn`]; stops when a client sends the
/// `shutdown` command or the process calls [`Server::shutdown`]. Shutdown
/// is graceful: the listener closes, connection handlers finish their
/// in-flight request, and every queue drains what it already accepted
/// before the workers exit.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Mutex<Option<JoinHandle<()>>>,
    cleaned: Mutex<bool>,
}

impl Server {
    /// Binds `config.addr`, starts one [`BatchQueue`] per registered model
    /// and the accept loop, and returns immediately.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Protocol`] for an empty registry and I/O
    /// errors from binding the listener.
    pub fn spawn(registry: ModelRegistry, config: ServerConfig) -> Result<Server> {
        if registry.is_empty() {
            return Err(ServeError::Protocol(
                "cannot serve an empty model registry".to_string(),
            ));
        }
        let telemetry = Arc::new(Registry::new());
        let mut queues: BTreeMap<String, BatchQueue> = BTreeMap::new();
        let mut request_us: BTreeMap<String, Arc<Histogram>> = BTreeMap::new();
        let mut resident_bytes: BTreeMap<String, Arc<Gauge>> = BTreeMap::new();
        for (name, engine) in registry.iter() {
            let scope = Scope::new(Arc::clone(&telemetry), format!("model.{name}"));
            request_us.insert(name.to_string(), scope.histogram("request_us"));
            let resident = scope.gauge("resident_bytes");
            resident.set(engine.resident_bytes() as i64);
            resident_bytes.insert(name.to_string(), resident);
            queues.insert(
                name.to_string(),
                BatchQueue::start_scoped(Arc::clone(engine), config.policy, &scope),
            );
        }
        let cache = ResponseCache::new(
            config.cache_capacity,
            &Scope::new(Arc::clone(&telemetry), ""),
        );
        let server_scope = Scope::new(Arc::clone(&telemetry), "server");
        let metrics = ServerMetrics {
            connections: server_scope.gauge("connections"),
            requests: server_scope.counter("requests"),
            errors: server_scope.counter("errors"),
        };
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            registry,
            queues,
            shutdown: AtomicBool::new(false),
            connections: Mutex::new(Vec::new()),
            telemetry,
            metrics,
            request_us,
            cache,
            resident_bytes,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("fqbert-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(Server {
            shared,
            local_addr,
            accept: Mutex::new(Some(accept)),
            cleaned: Mutex::new(false),
        })
    }

    /// The bound listen address (with the real port when `:0` was asked).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Batching statistics per model queue.
    pub fn queue_stats(&self) -> Vec<(String, crate::queue::QueueStats)> {
        self.shared
            .queues
            .iter()
            .map(|(name, queue)| (name.clone(), queue.stats()))
            .collect()
    }

    /// The server's pooled telemetry registry (`server.*`,
    /// `model.<name>.queue.*`, `model.<name>.request_us`). Engine-internal
    /// metrics are *not* in here — use [`Server::stats_snapshot`] for the
    /// complete merged view.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.shared.telemetry
    }

    /// The complete telemetry snapshot the `stats` wire command returns:
    /// the server registry plus every engine's private registry merged in
    /// under `model.<name>.` (so `engine.classify_us` becomes
    /// `model.<name>.engine.classify_us`).
    pub fn stats_snapshot(&self) -> Snapshot {
        stats_snapshot(&self.shared)
    }

    /// Requests shutdown and blocks until the accept loop, every
    /// connection handler and every queue worker have exited. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.cleanup();
    }

    /// Blocks until a shutdown is requested (e.g. by a client's `shutdown`
    /// command), then performs the same cleanup as [`Server::shutdown`].
    pub fn join(&self) {
        while !self.is_shutting_down() {
            std::thread::sleep(POLL_INTERVAL);
        }
        self.cleanup();
    }

    fn cleanup(&self) {
        let mut cleaned = lock_clean(&self.cleaned);
        if *cleaned {
            return;
        }
        // Join errors mean a thread panicked; it is already gone, and
        // shutdown must still run to completion for the threads that are
        // not.
        if let Some(accept) = lock_clean(&self.accept).take() {
            let _ = accept.join();
        }
        // Handlers finish their in-flight request against still-running
        // queues, then observe the flag on their next read timeout.
        let connections = std::mem::take(&mut *lock_clean(&self.shared.connections));
        for handle in connections {
            let _ = handle.join();
        }
        // Only now drain and stop the queues.
        for queue in self.shared.queues.values() {
            queue.shutdown();
        }
        *cleaned = true;
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.local_addr)
            .field("models", &self.shared.registry.names())
            .field("shutting_down", &self.is_shutting_down())
            .finish()
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("fqbert-serve-conn".to_string())
                    .spawn(move || handle_connection(stream, &conn_shared));
                // If the OS refuses a thread, the dropped closure closes
                // the stream — the client sees a hangup, the server keeps
                // accepting.
                let Ok(handle) = spawned else {
                    continue;
                };
                let mut connections = lock_clean(&shared.connections);
                // Reap exited handlers so a long-lived server's handle list
                // tracks live connections, not every connection ever made.
                let mut index = 0;
                while index < connections.len() {
                    let finished = connections
                        .get(index)
                        .is_some_and(|handle| handle.is_finished());
                    if finished {
                        let _ = connections.swap_remove(index).join();
                    } else {
                        index += 1;
                    }
                }
                connections.push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Hard cap on one request frame. Far above any real batch of texts, and
/// bounds the per-connection buffer against a client streaming bytes that
/// never contain a newline.
const MAX_FRAME_BYTES: usize = 4 << 20;

/// How long a response write may block before the connection is dropped: a
/// client that stops reading must not pin a handler thread (and with it
/// graceful shutdown) forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// The merged snapshot served over the wire: server-wide metrics plus each
/// engine's private registry prefixed with its model name.
fn stats_snapshot(shared: &Shared) -> Snapshot {
    // Lazily loaded models materialize weight panels on first use, so the
    // residency gauges are refreshed at snapshot time rather than frozen
    // at spawn.
    for (name, gauge) in &shared.resident_bytes {
        if let Some(queue) = shared.queues.get(name) {
            gauge.set(queue.engine().resident_bytes() as i64);
        }
    }
    let mut snapshot = shared.telemetry.snapshot();
    for (name, queue) in &shared.queues {
        snapshot.merge_prefixed(
            &queue.engine().telemetry().snapshot(),
            &format!("model.{name}"),
        );
    }
    snapshot
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    shared.metrics.connections.inc();
    connection_loop(stream, shared);
    shared.metrics.connections.dec();
}

fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    // Accepted sockets must block with a read timeout so the handler can
    // re-check the shutdown flag without busy-waiting.
    if stream.set_nonblocking(false).is_err()
        || stream.set_read_timeout(Some(POLL_INTERVAL)).is_err()
        || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // `read_until` keeps partially read bytes in `buf` across timeouts
    // (unlike `read_line`, which truncates its String on error), so a
    // frame split across poll intervals is reassembled, not dropped. The
    // `Read::take` cap bounds how far `read_until` can run inside one call
    // even against a sender that streams newline-free bytes full speed.
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let budget = (MAX_FRAME_BYTES + 1).saturating_sub(buf.len()) as u64;
        match (&mut reader).take(budget).read_until(b'\n', &mut buf) {
            Ok(0) => break, // EOF
            Ok(_) => {
                if buf.len() > MAX_FRAME_BYTES {
                    let err =
                        ServeError::Protocol(format!("frame exceeds {MAX_FRAME_BYTES} bytes"));
                    let mut payload = protocol::error_frame(None, &err).render();
                    payload.push('\n');
                    let _ = writer.write_all(payload.as_bytes());
                    break;
                }
                if buf.last() != Some(&b'\n') {
                    continue; // EOF mid-line surfaces as Ok(0) next turn
                }
                let line = String::from_utf8_lossy(&buf).into_owned();
                let stop = respond(&line, &mut writer, shared);
                buf.clear();
                if stop {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Handles one frame; returns `true` when the connection should close.
fn respond(line: &str, writer: &mut TcpStream, shared: &Arc<Shared>) -> bool {
    let line = line.trim();
    if line.is_empty() {
        return false;
    }
    let received = Instant::now();
    shared.metrics.requests.inc();
    let (frame, stop) = match protocol::parse_command(line) {
        Ok(Command::Classify(request)) => {
            let response = serve_request(&request, shared, received);
            (response, false)
        }
        Ok(Command::ListModels) => (protocol::models_frame(&shared.registry.infos()), false),
        Ok(Command::Ping) => (protocol::pong_frame(), false),
        Ok(Command::Stats) => (protocol::stats_frame(&stats_snapshot(shared)), false),
        Ok(Command::Shutdown) => {
            shared.shutdown.store(true, Ordering::SeqCst);
            (protocol::shutdown_frame(), true)
        }
        Err(err) => {
            shared.metrics.errors.inc();
            (protocol::error_frame(None, &err), false)
        }
    };
    let mut payload = frame.render();
    payload.push('\n');
    if writer.write_all(payload.as_bytes()).is_err() || writer.flush().is_err() {
        return true;
    }
    stop
}

fn serve_request(
    request: &crate::protocol::Request,
    shared: &Arc<Shared>,
    received: Instant,
) -> crate::json::Json {
    let result = (|| -> Result<crate::json::Json> {
        // One queue per registry entry (spawn builds them together), so the
        // queue lookup is also the model-existence check.
        let queue = shared
            .queues
            .get(&request.model)
            .ok_or_else(|| ServeError::UnknownModel(request.model.clone()))?;
        let deadline = request.deadline_ms.map(Duration::from_millis);
        let response = if request.no_cache {
            classify_on_queue(queue, &request.inputs, deadline)?
        } else {
            // A cache hit replays the stored (bit-identical) response
            // without tokenizing; identical in-flight requests coalesce
            // onto one queue submission. The leader submits with its own
            // deadline; a follower bounds its wait by its own.
            let key = CacheKey {
                model: request.model.clone(),
                inputs: request.inputs.clone(),
            };
            shared.cache.get_or_serve(key, deadline, || {
                classify_on_queue(queue, &request.inputs, deadline)
            })?
        };
        let latency_ms = received.elapsed().as_secs_f64() * 1e3;
        Ok(protocol::response_frame(
            &request.id,
            &request.model,
            &response,
            latency_ms,
        ))
    })();
    // End-to-end latency per model, recorded for every answered request —
    // slow failures (deadline expiries, engine errors) shape the tail too.
    // Shed requests are excluded: they fail in microseconds before any
    // serving work, so under overload they would drag the percentiles to
    // the fast-fail floor and mask the latency of requests actually
    // served (`queue.shed` already counts them). Unknown models have no
    // histogram and are skipped.
    if !matches!(result, Err(ServeError::ServerOverloaded)) {
        if let Some(histogram) = shared.request_us.get(&request.model) {
            histogram.record_duration(received.elapsed());
        }
    }
    match result {
        Ok(frame) => frame,
        Err(err) => {
            shared.metrics.errors.inc();
            protocol::error_frame(Some(&request.id), &err)
        }
    }
}

/// The real serve path behind the response cache: tokenize the inputs on
/// the queue's engine, submit with the request's deadline and block for
/// the ticket.
fn classify_on_queue(
    queue: &BatchQueue,
    inputs: &RequestInputs,
    deadline: Option<Duration>,
) -> Result<TicketResponse> {
    let engine = queue.engine();
    let batch = match inputs {
        RequestInputs::Texts(texts) => {
            let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
            EncodedBatch::from_texts(engine.tokenizer(), &refs)
        }
        RequestInputs::Pairs(pairs) => {
            let refs: Vec<(&str, &str)> = pairs
                .iter()
                .map(|(a, b)| (a.as_str(), b.as_str()))
                .collect();
            EncodedBatch::from_pairs(engine.tokenizer(), &refs)
        }
    };
    queue
        .submit_with_deadline(batch.into_examples(), deadline)
        .wait()
}
