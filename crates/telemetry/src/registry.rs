//! The named-metric [`Registry`], hierarchical [`Scope`]s and the
//! exportable [`Snapshot`].
//!
//! The registry's mutex guards only metric *creation and lookup*: callers
//! hold the returned `Arc` and record through lock-free atomics, so the
//! hot path never takes a lock. Snapshots read every metric once and come
//! back in deterministic (sorted-name) order, so two snapshots of the same
//! quiescent registry render byte-identical JSON.

use crate::json::Json;
use crate::metrics::{BucketCount, Counter, Gauge, Histogram, HistogramSnapshot, Label};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks the registry map, recovering from poisoning: every locked section
/// leaves the map structurally valid, so a panicking registrant must not
/// take metrics away from every other thread.
fn lock_clean<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    Label(Arc<Label>),
}

/// A name → metric map shared by everything that instruments one process
/// (or one server).
///
/// Metric names are dot-separated lowercase paths (`model.sst2.queue.wait_us`);
/// the convention is `<scope>.<metric>[_<unit>]` with `_us` marking
/// microsecond histograms. [`Registry::counter`] and friends get-or-create,
/// so any component may name a metric without coordinating creation order.
/// Asking for an existing name with a *different* metric type returns a
/// fresh detached instance (recordable, but invisible to snapshots) rather
/// than panicking — name collisions are a bug the snapshot makes visible by
/// omission, not a crash.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = lock_clean(&self.metrics);
        let entry = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())));
        match entry {
            Metric::Counter(counter) => Arc::clone(counter),
            _ => Arc::new(Counter::new()),
        }
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut metrics = lock_clean(&self.metrics);
        let entry = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())));
        match entry {
            Metric::Gauge(gauge) => Arc::clone(gauge),
            _ => Arc::new(Gauge::new()),
        }
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut metrics = lock_clean(&self.metrics);
        let entry = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())));
        match entry {
            Metric::Histogram(histogram) => Arc::clone(histogram),
            _ => Arc::new(Histogram::new()),
        }
    }

    /// The label registered under `name`, created on first use.
    pub fn label(&self, name: &str) -> Arc<Label> {
        let mut metrics = lock_clean(&self.metrics);
        let entry = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Label(Arc::new(Label::new())));
        match entry {
            Metric::Label(label) => Arc::clone(label),
            _ => Arc::new(Label::new()),
        }
    }

    /// Registered metric names, sorted.
    pub fn names(&self) -> Vec<String> {
        lock_clean(&self.metrics).keys().cloned().collect()
    }

    /// A consistent view of every registered metric, in sorted-name order.
    pub fn snapshot(&self) -> Snapshot {
        // Clone the Arcs out so metric reads happen outside the lock.
        let metrics: Vec<(String, Metric)> = lock_clean(&self.metrics)
            .iter()
            .map(|(name, metric)| (name.clone(), metric.clone()))
            .collect();
        let mut snapshot = Snapshot::default();
        for (name, metric) in metrics {
            match metric {
                Metric::Counter(counter) => snapshot.counters.push((name, counter.get())),
                Metric::Gauge(gauge) => snapshot.gauges.push((name, gauge.get())),
                Metric::Histogram(histogram) => {
                    snapshot.histograms.push((name, histogram.snapshot()));
                }
                Metric::Label(label) => snapshot.labels.push((name, label.get())),
            }
        }
        snapshot
    }
}

/// A name prefix over a shared registry, so one component can hand
/// sub-components their own namespace (`model.sst2` → `model.sst2.queue.*`)
/// without threading strings everywhere.
#[derive(Debug, Clone)]
pub struct Scope {
    registry: Arc<Registry>,
    prefix: String,
}

impl Scope {
    /// A scope over `registry`; an empty `prefix` scopes nothing.
    pub fn new(registry: Arc<Registry>, prefix: impl Into<String>) -> Self {
        Self {
            registry,
            prefix: prefix.into(),
        }
    }

    /// A scope over a fresh private registry — for components used
    /// standalone, outside any shared telemetry.
    pub fn detached(prefix: impl Into<String>) -> Self {
        Self::new(Arc::new(Registry::new()), prefix)
    }

    /// The underlying registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// A child scope: `self.prefix + "." + name`.
    pub fn child(&self, name: &str) -> Scope {
        Scope {
            registry: Arc::clone(&self.registry),
            prefix: self.scoped(name),
        }
    }

    /// The full metric name `prefix.name` (or bare `name` when unscoped).
    pub fn scoped(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}.{name}", self.prefix)
        }
    }

    /// The counter `prefix.name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.registry.counter(&self.scoped(name))
    }

    /// The gauge `prefix.name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.registry.gauge(&self.scoped(name))
    }

    /// The histogram `prefix.name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.registry.histogram(&self.scoped(name))
    }

    /// The label `prefix.name`, created on first use.
    pub fn label(&self, name: &str) -> Arc<Label> {
        self.registry.label(&self.scoped(name))
    }
}

/// A point-in-time export of a registry: every metric by name, sorted, with
/// histograms pre-summarised for quantile queries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, count)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, view)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// `(name, text)` for every string-valued label.
    pub labels: Vec<(String, String)>,
}

impl Snapshot {
    /// The counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The gauge named `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// The label named `name`, if present.
    pub fn label(&self, name: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Folds `other`'s metrics in with every name prefixed by
    /// `prefix.` — how a server merges per-engine private registries into
    /// one wire snapshot. Re-sorts so rendering stays deterministic.
    pub fn merge_prefixed(&mut self, other: &Snapshot, prefix: &str) {
        let scoped = |name: &str| -> String {
            if prefix.is_empty() {
                name.to_string()
            } else {
                format!("{prefix}.{name}")
            }
        };
        for (name, value) in &other.counters {
            self.counters.push((scoped(name), *value));
        }
        for (name, value) in &other.gauges {
            self.gauges.push((scoped(name), *value));
        }
        for (name, view) in &other.histograms {
            self.histograms.push((scoped(name), view.clone()));
        }
        for (name, text) in &other.labels {
            self.labels.push((scoped(name), text.clone()));
        }
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        self.labels.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// The snapshot as a [`Json`] tree (the body of the server's `stats`
    /// frame), which renders as one line:
    ///
    /// ```json
    /// {"counters":{"name":1},"gauges":{"name":-2},
    ///  "histograms":{"name":{"buckets":[[8,15,3]],"count":3,"max":11,
    ///    "mean":10,"min":9,"p50":10,"p95":11,"p99":11,"sum":30}},
    ///  "labels":{"name":"text"}}
    /// ```
    ///
    /// Buckets are `[lower, upper, count]` triples of the non-empty log2
    /// buckets. Every object renders its keys sorted, so the output is
    /// deterministic. Counter/gauge
    /// values ride as JSON numbers (`f64`): exact up to 2^53, plenty for
    /// live monitoring.
    pub fn to_json(&self) -> Json {
        fn object<T>(entries: &[(String, T)], value: impl Fn(&T) -> Json) -> Json {
            Json::Obj(
                entries
                    .iter()
                    .map(|(name, v)| (name.clone(), value(v)))
                    .collect(),
            )
        }
        let histogram = |view: &HistogramSnapshot| {
            let bucket = |b: &BucketCount| {
                Json::Arr(vec![
                    Json::Num(b.lower as f64),
                    Json::Num(b.upper as f64),
                    Json::Num(b.count as f64),
                ])
            };
            Json::obj([
                ("count", Json::Num(view.count as f64)),
                ("sum", Json::Num(view.sum as f64)),
                ("min", Json::Num(view.min as f64)),
                ("max", Json::Num(view.max as f64)),
                ("mean", Json::Num(view.mean())),
                ("p50", Json::Num(view.p50())),
                ("p95", Json::Num(view.p95())),
                ("p99", Json::Num(view.p99())),
                (
                    "buckets",
                    Json::Arr(view.buckets.iter().map(bucket).collect()),
                ),
            ])
        };
        Json::obj([
            ("counters", object(&self.counters, |v| Json::Num(*v as f64))),
            ("gauges", object(&self.gauges, |v| Json::Num(*v as f64))),
            ("histograms", object(&self.histograms, histogram)),
            ("labels", object(&self.labels, |text| Json::str(text))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_the_same_metric() {
        let registry = Registry::new();
        registry.counter("requests").add(3);
        registry.counter("requests").add(4);
        assert_eq!(registry.counter("requests").get(), 7);
        registry.gauge("depth").set(9);
        assert_eq!(registry.gauge("depth").get(), 9);
        registry.histogram("wait_us").record(5);
        assert_eq!(registry.histogram("wait_us").count(), 1);
        registry.label("kernel").set("avx2");
        assert_eq!(registry.label("kernel").get(), "avx2");
        assert_eq!(
            registry.names(),
            vec![
                "depth".to_string(),
                "kernel".into(),
                "requests".into(),
                "wait_us".into()
            ]
        );
    }

    #[test]
    fn type_clashes_yield_detached_metrics_not_panics() {
        let registry = Registry::new();
        registry.counter("x").inc();
        // Asking for `x` as a gauge must not panic or corrupt the counter.
        registry.gauge("x").set(99);
        registry.histogram("x").record(1);
        registry.label("x").set("detached");
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("x"), Some(1));
        assert_eq!(snapshot.gauge("x"), None);
        assert!(snapshot.histogram("x").is_none());
        assert_eq!(snapshot.label("x"), None);
    }

    #[test]
    fn scopes_prefix_names_hierarchically() {
        let registry = Arc::new(Registry::new());
        let root = Scope::new(Arc::clone(&registry), "");
        assert_eq!(root.scoped("requests"), "requests");
        let model = Scope::new(Arc::clone(&registry), "model.sst2");
        model.counter("requests").inc();
        let queue = model.child("queue");
        queue.histogram("wait_us").record(10);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("model.sst2.requests"), Some(1));
        assert_eq!(
            snapshot
                .histogram("model.sst2.queue.wait_us")
                .map(|h| h.count),
            Some(1)
        );
    }

    #[test]
    fn snapshots_merge_with_prefixes_and_stay_sorted() {
        let server = Registry::new();
        server.counter("server.requests").add(5);
        let engine = Registry::new();
        engine.histogram("engine.classify_us").record(100);
        engine.counter("engine.calls").inc();
        engine.label("engine.kernel").set("avx2");
        let mut merged = server.snapshot();
        merged.merge_prefixed(&engine.snapshot(), "model.sst2");
        assert_eq!(merged.counter("server.requests"), Some(5));
        assert_eq!(merged.counter("model.sst2.engine.calls"), Some(1));
        assert_eq!(merged.label("model.sst2.engine.kernel"), Some("avx2"));
        assert_eq!(
            merged
                .histogram("model.sst2.engine.classify_us")
                .map(|h| h.count),
            Some(1)
        );
        let names: Vec<&str> = merged.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn snapshot_json_is_deterministic_single_line() {
        let registry = Registry::new();
        registry.counter("b").add(2);
        registry.counter("a").add(1);
        registry.gauge("depth").set(-3);
        let hist = registry.histogram("lat_us");
        for v in [9u64, 10, 11] {
            hist.record(v);
        }
        registry.label("kernel").set("avx2");
        let json = registry.snapshot().to_json().render();
        assert!(!json.contains('\n'));
        assert_eq!(json, registry.snapshot().to_json().render());
        assert!(json.contains("\"a\":1"));
        assert!(json.contains("\"b\":2"));
        assert!(json.contains("\"depth\":-3"));
        assert!(json.contains("\"count\":3"));
        assert!(json.contains("\"buckets\":[[8,15,3]]"));
        assert!(json.contains("\"kernel\":\"avx2\""));
        // Sorted keys: counters before gauges before histograms before labels.
        let (ci, gi, hi, li) = (
            json.find("counters").expect("counters"),
            json.find("gauges").expect("gauges"),
            json.find("histograms").expect("histograms"),
            json.find("labels").expect("labels"),
        );
        assert!(ci < gi && gi < hi && hi < li);
    }

    #[test]
    fn label_values_are_escaped_in_json() {
        let registry = Registry::new();
        registry.label("build").set("a\"b\\c\nd");
        let json = registry.snapshot().to_json().render();
        assert!(json.contains("\"build\":\"a\\\"b\\\\c\\nd\""));
        assert!(!json.contains('\n'));
    }

    #[test]
    fn concurrent_registration_and_snapshotting_hold_up() {
        let registry = Arc::new(Registry::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let registry = Arc::clone(&registry);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        registry.counter("shared").inc();
                        registry.histogram("h").record(i);
                        if i % 100 == 0 {
                            let _ = registry.snapshot();
                        }
                        registry.counter(&format!("thread.{t}")).inc();
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().expect("worker");
        }
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("shared"), Some(4000));
        assert_eq!(snapshot.histogram("h").map(|h| h.count), Some(4000));
        for t in 0..8 {
            assert_eq!(snapshot.counter(&format!("thread.{t}")), Some(500));
        }
    }
}
