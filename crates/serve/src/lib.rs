//! `fqbert-serve` — the multi-model serving layer over the
//! [`fqbert_runtime`] engine.
//!
//! The runtime crate answers *how* to classify a batch on one backend; this
//! crate answers how to serve *many concurrent requests against many
//! models* from one process, in four layers:
//!
//! 1. [`ModelRegistry`] loads several [`fqbert_runtime::ModelArtifact`]s
//!    (different tasks and/or bit-widths) into per-model engines and routes
//!    requests by model name. Registry entries come from plain config
//!    strings ([`ModelSpec`]: `name=backend:path`, with
//!    `BackendKind: FromStr` parsing the backend).
//! 2. [`BatchQueue`] implements dynamic batching: one worker thread per
//!    model takes in-flight requests the moment it is free, up to a
//!    max-batch window (work-conserving; a max-delay hold is opt-in,
//!    [`BatchPolicy`]), and flushes them through a single
//!    `classify_scored` call, returning results through per-request
//!    response channels ([`Ticket`]). Queued results are bit-identical to
//!    calling `classify_batch` directly on the same inputs.
//! 3. [`ResponseCache`] sits in front of each queue and makes identical
//!    requests idempotent: repeats of a recently answered `(model,
//!    inputs)` pair replay the stored response (bit-identical, flagged
//!    `"cached":true`), and identical requests *in flight at the same
//!    time* coalesce onto one engine call. Requests can opt out with
//!    `"no_cache":true`.
//! 4. [`Server`] speaks a hand-rolled line-delimited-JSON protocol over
//!    TCP (the repository is offline — no HTTP dependencies): one JSON
//!    object per line in each direction, with error frames, per-request
//!    latency reporting and the simulated backend's cycle-model cost in
//!    responses. [`Client`] is the matching blocking client.
//!
//! Every layer records telemetry ([`fqbert_telemetry`], re-exported as
//! [`telemetry`]): queues count requests/flushes/sheds and time queue wait
//! and flush latency, the server tracks connections and per-model
//! end-to-end latency percentiles, and the whole merged snapshot is served
//! live over the wire by the `{"cmd":"stats"}` command (decoded by
//! [`Client::stats`] into a [`StatsReport`]). Admission control rides on
//! the same machinery: [`BatchPolicy::max_queue`] bounds each queue, and
//! submissions past the bound are shed with a `server_overloaded` error
//! frame instead of growing the backlog.
//!
//! See `crates/serve/README.md` for the wire-protocol specification.

pub mod cache;
pub mod client;
pub mod error;
pub mod protocol;
pub mod queue;
pub mod registry;
pub mod server;

pub use cache::{CacheKey, CacheStats, ResponseCache};
pub use client::{
    Client, ClientModelInfo, ClientResponse, ClientResult, HistogramStats, StatsReport,
};
pub use error::ServeError;
pub use fqbert_telemetry as telemetry;
// The JSON value model, parser and writer live in `fqbert-telemetry` (the
// workspace's one copy); the old paths stay valid.
pub use fqbert_telemetry::json::{self, Json};
pub use protocol::{Command, Request, RequestInputs};
pub use queue::{BatchPolicy, BatchQueue, QueueStats, Ticket, TicketResponse};
pub use registry::{ModelInfo, ModelRegistry, ModelSpec};
pub use server::{Server, ServerConfig};

/// Convenience result alias for serving operations.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Locks a mutex, recovering from poisoning. A poisoned mutex means some
/// thread panicked mid-update; the serving stack's contract is that a
/// panic costs at most the request that triggered it, so the state — which
/// every locked section leaves structurally valid — keeps serving rather
/// than cascading the panic into every future request.
pub(crate) fn lock_clean<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
