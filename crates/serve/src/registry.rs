//! Multi-model registry: named engines loaded from artifact specs.

use crate::{Result, ServeError};
use fqbert_runtime::{BackendKind, Engine, EngineBuilder, TensorCache};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::Arc;

/// One registry entry parsed from plain config:
/// `name=backend:path[#threads=N]`.
///
/// `name` is the routing key requests address the model by; `backend` is a
/// [`BackendKind`] spelling (`int` or `sim` — the float baseline cannot be
/// loaded from a quantized artifact); `path` points at a saved
/// [`fqbert_runtime::ModelArtifact`]; the optional `#threads=N` suffix
/// shards this model's batches across `N` worker threads (`0` =
/// auto-detect the host's parallelism). Without the suffix the model uses
/// the process default (the server's `--threads` flag, else
/// `FQBERT_THREADS`, else serial).
///
/// ```text
/// sst2-w4=int:models/sst2_w4.fqbt
/// sst2-w8=sim:models/sst2_w8.fqbt#threads=4
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSpec {
    /// Routing name of the model.
    pub name: String,
    /// Backend the artifact is served on.
    pub backend: BackendKind,
    /// Path of the saved artifact.
    pub path: PathBuf,
    /// Worker threads for this model's batch execution (`Some(0)` =
    /// auto-detect); `None` defers to the process default.
    pub threads: Option<usize>,
}

impl std::fmt::Display for ModelSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={}:{}", self.name, self.backend, self.path.display())?;
        if let Some(threads) = self.threads {
            write!(f, "#threads={threads}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for ModelSpec {
    type Err = ServeError;

    fn from_str(s: &str) -> Result<Self> {
        let (name, rest) = s.split_once('=').ok_or_else(|| {
            ServeError::Protocol(format!(
                "model spec `{s}` must look like `name=backend:path[#threads=N]`"
            ))
        })?;
        let (backend, path) = rest.split_once(':').ok_or_else(|| {
            ServeError::Protocol(format!(
                "model spec `{s}` must name a backend: `name=backend:path[#threads=N]`"
            ))
        })?;
        let name = name.trim();
        if name.is_empty() {
            return Err(ServeError::Protocol(format!(
                "model spec `{s}` has an empty model name"
            )));
        }
        // An optional execution suffix after the last `#`; artifact paths
        // containing a literal `#threads=` are not representable (rename
        // the file).
        let (path, threads) = match path.rsplit_once('#') {
            Some((path, suffix)) if suffix.trim().starts_with("threads=") => {
                let value = suffix.trim().trim_start_matches("threads=");
                let threads = value.parse::<usize>().map_err(|_| {
                    ServeError::Protocol(format!(
                        "model spec `{s}` has a bad thread count `{value}` \
                         (expected an integer, 0 = auto)"
                    ))
                })?;
                (path, Some(threads))
            }
            _ => (path, None),
        };
        let path = path.trim();
        if path.is_empty() {
            return Err(ServeError::Protocol(format!(
                "model spec `{s}` has an empty artifact path"
            )));
        }
        Ok(ModelSpec {
            name: name.to_string(),
            backend: backend.parse::<BackendKind>()?,
            path: PathBuf::from(path),
            threads,
        })
    }
}

/// Parses a plain-text registry config: one [`ModelSpec`] per line, blank
/// lines and `#` comments ignored.
///
/// # Errors
///
/// Returns the first malformed line as a [`ServeError::Protocol`].
pub fn parse_config(text: &str) -> Result<Vec<ModelSpec>> {
    text.lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(str::parse)
        .collect()
}

/// Metadata describing one registered model without running it.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelInfo {
    /// Routing name.
    pub name: String,
    /// Task the engine serves (e.g. `SST-2`).
    pub task: String,
    /// Backend name (`float`, `int`, `sim`).
    pub backend: String,
    /// Numeric precision (e.g. `w4/a8`).
    pub precision: String,
    /// Per-layer weight bit-width summary (e.g. `w4[0-5]/w8[6-11]`, or a
    /// bare `w4` when every layer matches); `fp32` for the float backend.
    pub bits: String,
    /// Number of output classes.
    pub num_classes: usize,
    /// Worker threads the engine shards batches across (1 = serial).
    pub threads: usize,
    /// GEMM micro-kernel serving the engine (`vnni`, `avx2`, `sse2`, `neon`,
    /// `scalar`) — the runtime-dispatch choice, or the `FQBERT_KERNEL`
    /// override.
    pub kernel: String,
    /// Bytes of model state currently resident for this engine: the
    /// embedding and head tables (counted once per model even when
    /// deduped) plus every weight panel and bias materialized so far. Grows as lazily loaded
    /// layers run their first forward.
    pub resident_bytes: usize,
    /// Tensors this model shares with previously loaded ones through the
    /// registry's content-hash dedup (0 for the first variant of a task
    /// and for engines registered in-process).
    pub shared_tensors: usize,
}

/// A name → engine map serving several models (different tasks and/or
/// bit-widths) from one process.
///
/// Engines are held behind `Arc` so the server's per-model worker threads
/// and any in-process caller share them without copying model weights.
#[derive(Default)]
pub struct ModelRegistry {
    models: BTreeMap<String, Arc<Engine>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads every spec'd artifact into an engine and registers it. A
    /// spec's `threads` suffix selects that engine's execution policy;
    /// without one the engine keeps the builder default (`FQBERT_THREADS`,
    /// else serial).
    ///
    /// Artifact bytes are loaded **once per file**: paths are canonicalized
    /// so two specs naming the same artifact (even through different
    /// spellings or symlinks) share one read and one backing buffer. On top
    /// of that, all specs load through one registry-wide [`TensorCache`],
    /// so bit-identical tables *across different* artifacts (the embedding
    /// code tables and classifier heads of w4/w8 variants of one task)
    /// dedup onto a single allocation — each engine's
    /// [`Engine::load_stats`] records what it shared.
    ///
    /// # Errors
    ///
    /// Fails on duplicate names, artifact I/O/validation errors, and specs
    /// naming the float backend (artifacts hold quantized models only).
    pub fn load(specs: &[ModelSpec]) -> Result<Self> {
        let mut registry = Self::new();
        let mut cache = TensorCache::new();
        let mut buffers: HashMap<PathBuf, Arc<[u8]>> = HashMap::new();
        for spec in specs {
            // Canonicalization requires the file to exist; a missing file
            // falls through to the read below, which reports the real
            // I/O error with the spec's own spelling.
            let canonical = std::fs::canonicalize(&spec.path).unwrap_or_else(|_| spec.path.clone());
            let bytes = match buffers.get(&canonical) {
                Some(bytes) => Arc::clone(bytes),
                None => {
                    let bytes: Arc<[u8]> = std::fs::read(&spec.path)?.into();
                    buffers.insert(canonical, Arc::clone(&bytes));
                    bytes
                }
            };
            let mut builder = EngineBuilder::new(fqbert_nlp::TaskKind::Sst2).backend(spec.backend);
            if let Some(threads) = spec.threads {
                builder = builder.threads(threads);
            }
            let engine = builder.load_shared_bytes(&bytes, &mut cache)?;
            registry.register(&spec.name, engine)?;
        }
        Ok(registry)
    }

    /// Registers an already-built engine under `name` (the in-process
    /// path: QAT-calibrated or float engines that never touched disk).
    /// Accepts a bare [`Engine`] or an `Arc<Engine>` already shared with
    /// other callers.
    ///
    /// # Errors
    ///
    /// Fails if `name` is already taken.
    pub fn register(&mut self, name: &str, engine: impl Into<Arc<Engine>>) -> Result<()> {
        if self.models.contains_key(name) {
            return Err(ServeError::Protocol(format!(
                "duplicate model name `{name}` in registry"
            )));
        }
        self.models.insert(name.to_string(), engine.into());
        Ok(())
    }

    /// The engine registered under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] when absent.
    pub fn get(&self, name: &str) -> Result<Arc<Engine>> {
        self.models
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))
    }

    /// Registered model names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.models.keys().cloned().collect()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Iterates over `(name, engine)` pairs, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<Engine>)> {
        self.models.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Metadata for every registered model, sorted by name.
    pub fn infos(&self) -> Vec<ModelInfo> {
        self.models
            .iter()
            .map(|(name, engine)| ModelInfo {
                name: name.clone(),
                task: engine.task().to_string(),
                backend: engine.backend().name().to_string(),
                precision: engine.backend().precision().to_string(),
                bits: engine
                    .backend()
                    .int_model()
                    .map(|model| model.bit_summary())
                    .unwrap_or_else(|| "fp32".to_string()),
                num_classes: engine.task().num_classes(),
                threads: engine.threads(),
                kernel: engine.kernel().to_string(),
                resident_bytes: engine.resident_bytes(),
                shared_tensors: engine.load_stats().shared_tensors,
            })
            .collect()
    }
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("models", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_and_round_trip() {
        let spec: ModelSpec = "sst2-w4=int:models/sst2_w4.fqbt".parse().unwrap();
        assert_eq!(spec.name, "sst2-w4");
        assert_eq!(spec.backend, BackendKind::Int);
        assert_eq!(spec.path, PathBuf::from("models/sst2_w4.fqbt"));
        assert_eq!(spec.threads, None);
        assert_eq!(spec.to_string().parse::<ModelSpec>().unwrap(), spec);

        // Paths may contain further colons (only the first separates).
        let spec: ModelSpec = "m=sim:dir:with:colons/a.fqbt".parse().unwrap();
        assert_eq!(spec.backend, BackendKind::Sim);
        assert_eq!(spec.path, PathBuf::from("dir:with:colons/a.fqbt"));
    }

    #[test]
    fn specs_parse_thread_suffixes() {
        let spec: ModelSpec = "sst2=int:models/a.fqbt#threads=4".parse().unwrap();
        assert_eq!(spec.path, PathBuf::from("models/a.fqbt"));
        assert_eq!(spec.threads, Some(4));
        assert_eq!(spec.to_string(), "sst2=int:models/a.fqbt#threads=4");
        assert_eq!(spec.to_string().parse::<ModelSpec>().unwrap(), spec);

        // 0 = auto-detect; still round-trips.
        let spec: ModelSpec = "sst2=sim:a.fqbt#threads=0".parse().unwrap();
        assert_eq!(spec.threads, Some(0));

        // A `#` without the threads key stays part of the path.
        let spec: ModelSpec = "m=int:weird#name.fqbt".parse().unwrap();
        assert_eq!(spec.path, PathBuf::from("weird#name.fqbt"));
        assert_eq!(spec.threads, None);
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        for bad in [
            "no-equals",
            "name=int",               // missing path separator
            "=int:path",              // empty name
            "name=turbo:path",        // unknown backend
            "name=int:",              // empty path
            "name=int:   ",           // whitespace path
            "name=int:a#threads=",    // empty thread count
            "name=int:a#threads=two", // non-numeric thread count
            "name=int:#threads=2",    // empty path before the suffix
        ] {
            let err = bad.parse::<ModelSpec>().expect_err("must reject");
            assert!(!err.to_string().is_empty(), "{bad}");
        }
    }

    #[test]
    fn config_text_skips_comments_and_blanks() {
        let specs =
            parse_config("# registry\n\n  sst2-w4=int:a.fqbt  \n# another\nsst2-w8=sim:b.fqbt\n")
                .unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].name, "sst2-w4");
        assert_eq!(specs[1].backend, BackendKind::Sim);
        assert!(parse_config("good=int:a\nbad line\n").is_err());
    }

    #[test]
    fn empty_registry_routes_nothing() {
        let registry = ModelRegistry::new();
        assert!(registry.is_empty());
        assert_eq!(registry.len(), 0);
        let err = registry.get("missing").expect_err("unknown model");
        assert_eq!(err.kind(), "unknown_model");
    }
}
