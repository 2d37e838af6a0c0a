//! Offline, dependency-free process metrics for the fqbert serving stack.
//!
//! The crate provides five primitives and a registry:
//!
//! - [`Counter`] — monotonically increasing `u64` (requests, errors, sheds);
//! - [`Gauge`] — signed instantaneous level (queue depth, in-flight shards);
//! - [`Histogram`] — fixed log2-bucket value distribution with
//!   p50/p95/p99 estimation, sized for microsecond latencies but exact for
//!   any `u64` stream's count/sum/min/max;
//! - [`Timer`] — a scoped span that records its elapsed microseconds into a
//!   histogram on drop (or explicitly via [`Timer::observe`]);
//! - [`Label`] — a string-valued annotation (selected GEMM kernel, build
//!   id), set rarely and exported verbatim;
//! - [`Registry`] — a named get-or-create map of the above, exported as a
//!   consistent [`Snapshot`] renderable to one line of JSON;
//!
//! plus [`json`], the workspace's one JSON value model, depth-bounded
//! parser and writer (it lives here because this crate has no dependencies
//! and every JSON producer — the wire protocol, the experiment reports,
//! fqlint — can therefore reach it).
//!
//! Everything on the record path is a handful of `Relaxed` atomic adds —
//! no locks, no allocation, no syscalls — so instrumentation stays cheap
//! enough to leave on in benchmarks. The registry itself takes a mutex only
//! to look up or create metrics; callers cache the returned `Arc`s.
//! Consistent with the serving crates' invariants, nothing in this crate
//! panics on any input (fqlint rules R3/R4 are enforced over this tree).
//!
//! Naming convention: dot-separated lowercase paths, unit-suffixed where it
//! matters (`model.sst2.queue.wait_us`, `server.connections`). [`Scope`]
//! carries a prefix so components name metrics locally and compose
//! hierarchically; [`Snapshot::merge_prefixed`] folds private registries
//! (e.g. one per engine) into a single wire snapshot.

pub mod json;
mod metrics;
mod registry;

pub use metrics::{
    bucket_bounds, bucket_index, BucketCount, Counter, Gauge, Histogram, HistogramSnapshot, Label,
    Timer, NUM_BUCKETS,
};
pub use registry::{Registry, Scope, Snapshot};
