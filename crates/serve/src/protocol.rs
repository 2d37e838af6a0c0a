//! The line-delimited-JSON wire protocol: request parsing and response
//! framing.
//!
//! Every frame is one JSON object on one line (see `crates/serve/README.md`
//! for the full specification). This module is pure — parsing and
//! rendering only — so the protocol is testable without sockets.

use crate::json::Json;
use crate::queue::TicketResponse;
use crate::registry::ModelInfo;
use crate::{Result, ServeError};
use fqbert_telemetry::Snapshot;

/// Inputs of one classification request.
///
/// `Hash` + `Eq` let the response cache key directly on the submitted
/// payload ([`crate::cache::CacheKey`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RequestInputs {
    /// Single sentences (e.g. SST-2).
    Texts(Vec<String>),
    /// (premise, hypothesis) pairs (e.g. MNLI).
    Pairs(Vec<(String, String)>),
}

impl RequestInputs {
    /// Number of sequences in the request.
    pub fn len(&self) -> usize {
        match self {
            RequestInputs::Texts(texts) => texts.len(),
            RequestInputs::Pairs(pairs) => pairs.len(),
        }
    }

    /// Whether the request carries no sequences.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One classification request addressed to a registered model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Caller-chosen request id, echoed back in the response.
    pub id: String,
    /// Routing name of the target model.
    pub model: String,
    /// The sequences to classify.
    pub inputs: RequestInputs,
    /// Optional queue-wait budget in milliseconds: if the request is still
    /// waiting in the batching queue when it elapses, the server answers
    /// with a `deadline_exceeded` error frame instead of serving it.
    pub deadline_ms: Option<u64>,
    /// `true` bypasses the server's response cache entirely: the request
    /// neither replays a cached answer nor coalesces with identical
    /// in-flight requests, and its response is not stored. Defaults to
    /// `false`.
    pub no_cache: bool,
}

/// Every frame a client may send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Classify sequences on a named model.
    Classify(Request),
    /// List the registered models.
    ListModels,
    /// Liveness check.
    Ping,
    /// A live telemetry snapshot: per-model latency percentiles, queue
    /// counters and histograms, server totals.
    Stats,
    /// Ask the server to shut down gracefully (drain queues, then exit).
    Shutdown,
}

/// Parses one request line into a [`Command`].
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] with a human-readable reason for
/// malformed JSON, unknown commands, or missing/ill-typed fields.
pub fn parse_command(line: &str) -> Result<Command> {
    let value = crate::json::parse(line).map_err(ServeError::Protocol)?;
    if let Some(cmd) = value.get("cmd") {
        return match cmd.as_str() {
            Some("list_models") => Ok(Command::ListModels),
            Some("ping") => Ok(Command::Ping),
            Some("stats") => Ok(Command::Stats),
            Some("shutdown") => Ok(Command::Shutdown),
            Some(other) => Err(ServeError::Protocol(format!(
                "unknown command `{other}` (expected `list_models`, `ping`, `stats` or `shutdown`)"
            ))),
            None => Err(ServeError::Protocol("`cmd` must be a string".to_string())),
        };
    }
    let id = match value.get("id") {
        Some(id) => id
            .as_str()
            .ok_or_else(|| ServeError::Protocol("`id` must be a string".to_string()))?
            .to_string(),
        None => String::new(),
    };
    let model = value
        .get("model")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::Protocol("request needs a string `model` field".to_string()))?
        .to_string();
    let deadline_ms = match value.get("deadline_ms") {
        None => None,
        Some(raw) => {
            let ms = raw
                .as_f64()
                .filter(|ms| ms.is_finite() && *ms > 0.0)
                .ok_or_else(|| {
                    ServeError::Protocol(
                        "`deadline_ms` must be a positive number of milliseconds".to_string(),
                    )
                })?;
            // Ceil, not round: a fractional budget below 0.5 ms must stay a
            // (1 ms) budget rather than collapse to an instantly-expired 0.
            Some(ms.ceil() as u64)
        }
    };
    let no_cache = match value.get("no_cache") {
        None => false,
        Some(Json::Bool(flag)) => *flag,
        Some(_) => {
            return Err(ServeError::Protocol(
                "`no_cache` must be a boolean".to_string(),
            ))
        }
    };
    let inputs = match (value.get("texts"), value.get("pairs")) {
        (Some(_), Some(_)) => {
            return Err(ServeError::Protocol(
                "request must carry either `texts` or `pairs`, not both".to_string(),
            ))
        }
        (Some(texts), None) => RequestInputs::Texts(parse_string_array(texts, "texts")?),
        (None, Some(pairs)) => RequestInputs::Pairs(parse_pair_array(pairs)?),
        (None, None) => {
            return Err(ServeError::Protocol(
                "request needs a `texts` or `pairs` array".to_string(),
            ))
        }
    };
    Ok(Command::Classify(Request {
        id,
        model,
        inputs,
        deadline_ms,
        no_cache,
    }))
}

fn parse_string_array(value: &Json, field: &str) -> Result<Vec<String>> {
    let items = value
        .as_arr()
        .ok_or_else(|| ServeError::Protocol(format!("`{field}` must be an array")))?;
    items
        .iter()
        .map(|item| {
            item.as_str()
                .map(str::to_string)
                .ok_or_else(|| ServeError::Protocol(format!("`{field}` entries must be strings")))
        })
        .collect()
}

fn parse_pair_array(value: &Json) -> Result<Vec<(String, String)>> {
    let items = value
        .as_arr()
        .ok_or_else(|| ServeError::Protocol("`pairs` must be an array".to_string()))?;
    items
        .iter()
        .map(|item| {
            let pair = item.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                ServeError::Protocol("`pairs` entries must be two-element arrays".to_string())
            })?;
            let first = pair.first().and_then(Json::as_str);
            let second = pair.get(1).and_then(Json::as_str);
            match (first, second) {
                (Some(a), Some(b)) => Ok((a.to_string(), b.to_string())),
                _ => Err(ServeError::Protocol(
                    "`pairs` entries must hold two strings".to_string(),
                )),
            }
        })
        .collect()
}

/// Renders the success response for one served request.
///
/// `latency_ms` is the server-side wall time from frame receipt to
/// response framing; the queue's own wait and the flush batch size are
/// reported under `batch`, and the simulated backend's cycle-model cost
/// (for exactly this request's sequences) under `sim`.
pub fn response_frame(id: &str, model: &str, response: &TicketResponse, latency_ms: f64) -> Json {
    let results = response
        .results
        .iter()
        .map(|scored| {
            Json::obj([
                ("prediction", Json::Num(scored.prediction as f64)),
                ("label", Json::str(scored.label)),
                ("scores", Json::num_array(&scored.scores)),
                ("logits", Json::num_array(&scored.logits)),
            ])
        })
        .collect();
    let mut frame = vec![
        ("id", Json::str(id)),
        ("model", Json::str(model)),
        ("results", Json::Arr(results)),
        ("latency_ms", Json::Num(latency_ms)),
        ("cached", Json::Bool(response.cached)),
        (
            "batch",
            Json::obj([
                ("flushed", Json::Num(response.flushed_batch as f64)),
                ("wait_ms", Json::Num(response.wait.as_secs_f64() * 1e3)),
            ]),
        ),
    ];
    if let Some(cost) = response.cost {
        frame.push((
            "sim",
            Json::obj([
                ("total_cycles", Json::Num(cost.total_cycles as f64)),
                ("latency_ms", Json::Num(cost.latency_ms)),
            ]),
        ));
    }
    Json::obj(frame)
}

/// Renders an error frame; `id` is echoed when the failing request carried
/// one.
pub fn error_frame(id: Option<&str>, err: &ServeError) -> Json {
    let mut frame = Vec::new();
    if let Some(id) = id {
        frame.push(("id", Json::str(id)));
    }
    frame.push((
        "error",
        Json::obj([
            ("kind", Json::str(err.kind())),
            ("message", Json::str(err.to_string())),
        ]),
    ));
    Json::obj(frame)
}

/// Renders the `list_models` response.
pub fn models_frame(infos: &[ModelInfo]) -> Json {
    Json::obj([(
        "models",
        Json::Arr(
            infos
                .iter()
                .map(|info| {
                    Json::obj([
                        ("name", Json::str(&info.name)),
                        ("task", Json::str(&info.task)),
                        ("backend", Json::str(&info.backend)),
                        ("precision", Json::str(&info.precision)),
                        ("bits", Json::str(&info.bits)),
                        ("num_classes", Json::Num(info.num_classes as f64)),
                        ("threads", Json::Num(info.threads as f64)),
                        ("kernel", Json::str(&info.kernel)),
                        ("resident_bytes", Json::Num(info.resident_bytes as f64)),
                        ("shared_tensors", Json::Num(info.shared_tensors as f64)),
                    ])
                })
                .collect(),
        ),
    )])
}

/// Renders the `stats` response, `{"ok":true,"stats":{...}}`: the merged
/// telemetry snapshot's `counters` / `gauges` / `histograms` / `labels`
/// maps as [`Snapshot::to_json`] builds them.
pub fn stats_frame(snapshot: &Snapshot) -> Json {
    Json::obj([("ok", Json::Bool(true)), ("stats", snapshot.to_json())])
}

/// Renders the `ping` acknowledgement.
pub fn pong_frame() -> Json {
    Json::obj([("ok", Json::Bool(true)), ("pong", Json::Bool(true))])
}

/// Renders the `shutdown` acknowledgement (sent before the drain starts).
pub fn shutdown_frame() -> Json {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("shutting_down", Json::Bool(true)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_text_and_pair_requests() {
        let cmd = parse_command(r#"{"id":"r1","model":"sst2","texts":["good","bad"]}"#).unwrap();
        match cmd {
            Command::Classify(req) => {
                assert_eq!(req.id, "r1");
                assert_eq!(req.model, "sst2");
                assert_eq!(
                    req.inputs,
                    RequestInputs::Texts(vec!["good".into(), "bad".into()])
                );
                assert_eq!(req.inputs.len(), 2);
            }
            other => panic!("expected classify, got {other:?}"),
        }
        let cmd =
            parse_command(r#"{"model":"mnli","pairs":[["a premise","a hypothesis"]]}"#).unwrap();
        match cmd {
            Command::Classify(req) => {
                assert_eq!(req.id, "");
                assert_eq!(
                    req.inputs,
                    RequestInputs::Pairs(vec![("a premise".into(), "a hypothesis".into())])
                );
            }
            other => panic!("expected classify, got {other:?}"),
        }
    }

    #[test]
    fn parses_and_validates_deadlines() {
        let cmd = parse_command(r#"{"model":"sst2","texts":["x"],"deadline_ms":150}"#).unwrap();
        match cmd {
            Command::Classify(req) => assert_eq!(req.deadline_ms, Some(150)),
            other => panic!("expected classify, got {other:?}"),
        }
        let cmd = parse_command(r#"{"model":"sst2","texts":["x"]}"#).unwrap();
        match cmd {
            Command::Classify(req) => assert_eq!(req.deadline_ms, None),
            other => panic!("expected classify, got {other:?}"),
        }
        for bad in [
            r#"{"model":"m","texts":["x"],"deadline_ms":"soon"}"#,
            r#"{"model":"m","texts":["x"],"deadline_ms":0}"#,
            r#"{"model":"m","texts":["x"],"deadline_ms":-5}"#,
        ] {
            let err = parse_command(bad).expect_err(bad);
            assert!(err.to_string().contains("deadline_ms"), "{err}");
        }
    }

    #[test]
    fn parses_and_validates_no_cache() {
        let cmd = parse_command(r#"{"model":"sst2","texts":["x"],"no_cache":true}"#).unwrap();
        match cmd {
            Command::Classify(req) => assert!(req.no_cache),
            other => panic!("expected classify, got {other:?}"),
        }
        let cmd = parse_command(r#"{"model":"sst2","texts":["x"],"no_cache":false}"#).unwrap();
        match cmd {
            Command::Classify(req) => assert!(!req.no_cache),
            other => panic!("expected classify, got {other:?}"),
        }
        // Absent defaults to false.
        let cmd = parse_command(r#"{"model":"sst2","texts":["x"]}"#).unwrap();
        match cmd {
            Command::Classify(req) => assert!(!req.no_cache),
            other => panic!("expected classify, got {other:?}"),
        }
        for bad in [
            r#"{"model":"m","texts":["x"],"no_cache":"yes"}"#,
            r#"{"model":"m","texts":["x"],"no_cache":1}"#,
        ] {
            let err = parse_command(bad).expect_err(bad);
            assert!(err.to_string().contains("no_cache"), "{err}");
        }
    }

    #[test]
    fn parses_control_commands() {
        assert_eq!(
            parse_command(r#"{"cmd":"list_models"}"#).unwrap(),
            Command::ListModels
        );
        assert_eq!(parse_command(r#"{"cmd":"ping"}"#).unwrap(), Command::Ping);
        assert_eq!(parse_command(r#"{"cmd":"stats"}"#).unwrap(), Command::Stats);
        assert_eq!(
            parse_command(r#"{"cmd":"shutdown"}"#).unwrap(),
            Command::Shutdown
        );
    }

    #[test]
    fn stats_frames_render_and_reparse() {
        let registry = fqbert_telemetry::Registry::new();
        registry.counter("model.sst2.queue.requests").add(3);
        registry.gauge("model.sst2.queue.depth").set(2);
        for us in [100u64, 200, 400] {
            registry.histogram("model.sst2.request_us").record(us);
        }
        registry.label("model.sst2.engine.kernel").set("avx2");
        let frame = stats_frame(&registry.snapshot());
        let line = frame.render();
        // Clients and dashboards parse this frame; its bytes are pinned so a
        // change to the JSON writer or to `Snapshot::to_json` cannot move
        // them unnoticed.
        assert_eq!(
            line,
            concat!(
                r#"{"ok":true,"stats":{"counters":{"model.sst2.queue.requests":3},"#,
                r#""gauges":{"model.sst2.queue.depth":2},"#,
                r#""histograms":{"model.sst2.request_us":{"#,
                r#""buckets":[[64,127,1],[128,255,1],[256,511,1]],"count":3,"max":400,"#,
                r#""mean":233.33333333333334,"min":100,"p50":255,"p95":400,"p99":400,"#,
                r#""sum":700}},"labels":{"model.sst2.engine.kernel":"avx2"}}}"#,
            )
        );
        assert!(!line.contains('\n'), "stats frame must be one line");
        let parsed = crate::json::parse(&line).expect("stats frame must re-parse");
        assert_eq!(
            parsed.get("ok").and_then(|v| match v {
                Json::Bool(b) => Some(*b),
                _ => None,
            }),
            Some(true)
        );
        let stats = parsed.get("stats").expect("stats object");
        assert_eq!(
            stats
                .get("counters")
                .and_then(|c| c.get("model.sst2.queue.requests"))
                .and_then(Json::as_f64),
            Some(3.0)
        );
        assert_eq!(
            stats
                .get("gauges")
                .and_then(|g| g.get("model.sst2.queue.depth"))
                .and_then(Json::as_f64),
            Some(2.0)
        );
        let hist = stats
            .get("histograms")
            .and_then(|h| h.get("model.sst2.request_us"))
            .expect("request_us histogram");
        assert_eq!(hist.get("count").and_then(Json::as_f64), Some(3.0));
        let p50 = hist.get("p50").and_then(Json::as_f64).expect("p50");
        let p99 = hist.get("p99").and_then(Json::as_f64).expect("p99");
        assert!(p50 <= p99, "p50 {p50} must not exceed p99 {p99}");
        assert!(hist.get("buckets").and_then(Json::as_arr).is_some());
        assert_eq!(
            stats
                .get("labels")
                .and_then(|l| l.get("model.sst2.engine.kernel"))
                .and_then(Json::as_str),
            Some("avx2")
        );
    }

    #[test]
    fn rejects_malformed_requests_with_reasons() {
        for (line, needle) in [
            ("not json", "protocol error"),
            (r#"{"cmd":"reboot"}"#, "unknown command"),
            (r#"{"texts":["x"]}"#, "model"),
            (r#"{"model":"m"}"#, "`texts` or `pairs`"),
            (r#"{"model":"m","texts":["a"],"pairs":[]}"#, "not both"),
            (r#"{"model":"m","texts":[1]}"#, "strings"),
            (r#"{"model":"m","pairs":[["only-one"]]}"#, "two-element"),
            (r#"{"id":7,"model":"m","texts":[]}"#, "`id`"),
        ] {
            let err = parse_command(line).expect_err(line);
            assert!(
                err.to_string().contains(needle),
                "error for {line} should mention {needle}: {err}"
            );
        }
    }

    #[test]
    fn frames_render_as_single_lines() {
        let response = TicketResponse {
            results: vec![],
            cost: Some(fqbert_runtime::BatchCost {
                total_cycles: 42,
                latency_ms: 0.5,
            }),
            flushed_batch: 4,
            wait: std::time::Duration::from_micros(250),
            cached: false,
        };
        for frame in [
            response_frame("r1", "sst2", &response, 1.25),
            error_frame(Some("r2"), &ServeError::UnknownModel("x".into())),
            error_frame(None, &ServeError::ShuttingDown),
            models_frame(&[]),
            pong_frame(),
            shutdown_frame(),
        ] {
            let line = frame.render();
            assert!(!line.contains('\n'), "frame must be one line: {line}");
            assert!(crate::json::parse(&line).is_ok(), "frame must re-parse");
        }
        let rendered = response_frame("r1", "sst2", &response, 1.25).render();
        assert!(rendered.contains("\"sim\""));
        assert!(rendered.contains("\"total_cycles\":42"));
        assert!(rendered.contains("\"flushed\":4"));
        assert!(rendered.contains("\"cached\":false"));
        let cached = TicketResponse {
            cached: true,
            ..response
        };
        assert!(response_frame("r1", "sst2", &cached, 0.01)
            .render()
            .contains("\"cached\":true"));
    }
}
