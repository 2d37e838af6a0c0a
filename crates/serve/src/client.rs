//! Blocking client for the line-delimited-JSON protocol.
//!
//! Two usage styles share one connection type:
//!
//! * **Round trips** — [`Client::classify_texts`] and friends write one
//!   request and block for its response.
//! * **Pipelining** — [`Client::submit`] writes a request *without*
//!   waiting, so any number of requests are in flight on one connection;
//!   [`Client::drain`] then collects the responses. The server answers
//!   frames in order per connection, so responses pair with submissions
//!   by position, and every request carries an id (client-supplied via
//!   [`Client::submit_as`], else generated) that the server echoes back —
//!   the drain verifies the echo to catch any desynchronization.

use crate::json::Json;
use crate::{Result, ServeError};
use fqbert_runtime::BatchCost;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// One classified sequence as decoded from a response frame.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientResult {
    /// Predicted class index.
    pub prediction: usize,
    /// Label name of the predicted class.
    pub label: String,
    /// Softmax scores.
    pub scores: Vec<f32>,
    /// Raw logits.
    pub logits: Vec<f32>,
}

/// One decoded classification response.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientResponse {
    /// Echoed request id.
    pub id: String,
    /// Model that served the request.
    pub model: String,
    /// Per-sequence results, in request order.
    pub results: Vec<ClientResult>,
    /// Server-side wall latency (frame receipt → response framing) in ms.
    pub latency_ms: f64,
    /// Sequences in the dynamic-batching flush that served this request.
    pub flushed_batch: usize,
    /// Time the request waited in the queue, in ms.
    pub wait_ms: f64,
    /// Simulated accelerator cost of this request, when served by the
    /// `sim` backend.
    pub sim: Option<BatchCost>,
    /// Whether the response was replayed from the server's idempotent
    /// response cache instead of running the engine. Defaults to `false`
    /// on frames from servers predating the cache.
    pub cached: bool,
}

/// One registered model as decoded from a `list_models` frame.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientModelInfo {
    /// Registry name the model is addressed by.
    pub name: String,
    /// Task the model was trained for (e.g. `sst2`).
    pub task: String,
    /// Backend kind serving the model (`int` or `sim`).
    pub backend: String,
    /// Precision summary (e.g. `w4/a8`).
    pub precision: String,
    /// Per-layer weight bit-width summary (e.g. `w4[0-5]/w8[6-11]`).
    pub bits: String,
    /// Number of output classes.
    pub num_classes: usize,
    /// Worker threads serving the model's batches.
    pub threads: usize,
    /// GEMM micro-kernel serving the engine (`vnni`, `avx2`, `sse2`, `neon`,
    /// `scalar`).
    pub kernel: String,
    /// Bytes of materialized weight panels plus the shared embedding and
    /// head tables resident for this model.
    pub resident_bytes: usize,
    /// Tables (embedding codes, head tensors) this model shares with
    /// previously loaded models via the registry's content-hash dedup
    /// cache.
    pub shared_tensors: usize,
}

/// One histogram's summary as decoded from a `stats` frame. Values come
/// from the server's log2-bucket histograms: `count`/`sum`/`min`/`max` are
/// exact, the percentiles are bucket-interpolated estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramStats {
    /// Recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

/// A decoded `stats` snapshot: every metric by full name
/// (`model.<name>.request_us`, `model.<name>.queue.shed`,
/// `server.connections`, ...).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsReport {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Instantaneous gauges.
    pub gauges: BTreeMap<String, i64>,
    /// Latency/size distributions.
    pub histograms: BTreeMap<String, HistogramStats>,
    /// String-valued annotations (e.g. `model.<name>.engine.kernel`).
    pub labels: BTreeMap<String, String>,
}

/// A blocking protocol client over one TCP connection.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    /// Ids of pipelined requests whose responses have not been drained
    /// yet, in submission (= response) order.
    pending: VecDeque<String>,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            next_id: 0,
            pending: VecDeque::new(),
        })
    }

    fn send_frame(&mut self, frame: &Json) -> Result<()> {
        let mut payload = frame.render();
        payload.push('\n');
        self.writer.write_all(payload.as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    fn read_frame(&mut self) -> Result<Json> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        crate::json::parse(line.trim()).map_err(ServeError::Protocol)
    }

    fn roundtrip(&mut self, frame: &Json) -> Result<Json> {
        if !self.pending.is_empty() {
            return Err(ServeError::Protocol(format!(
                "{} pipelined request(s) in flight: drain() before issuing \
                 a blocking round trip (responses arrive in order)",
                self.pending.len()
            )));
        }
        self.send_frame(frame)?;
        let value = self.read_frame()?;
        if let Some(error) = value.get("error") {
            return Err(decode_error(error));
        }
        Ok(value)
    }

    /// Classifies single sentences on `model`.
    ///
    /// # Errors
    ///
    /// Surfaces server error frames (unknown model, engine errors) and
    /// socket failures.
    pub fn classify_texts(&mut self, model: &str, texts: &[&str]) -> Result<ClientResponse> {
        self.classify_texts_with_deadline(model, texts, None)
    }

    /// Classifies single sentences on `model` with an optional queue-wait
    /// budget: if the request is still queued server-side when
    /// `deadline_ms` elapses, the server answers
    /// [`ServeError::DeadlineExceeded`] instead of serving it.
    ///
    /// # Errors
    ///
    /// As for [`Client::classify_texts`], plus
    /// [`ServeError::DeadlineExceeded`] for an expired request.
    pub fn classify_texts_with_deadline(
        &mut self,
        model: &str,
        texts: &[&str],
        deadline_ms: Option<u64>,
    ) -> Result<ClientResponse> {
        self.classify_texts_request(model, texts, deadline_ms, false)
    }

    /// As [`Client::classify_texts`], with `no_cache: true` set on the
    /// request frame so the server bypasses its response cache entirely —
    /// no replay, no coalescing with identical in-flight requests.
    ///
    /// # Errors
    ///
    /// As for [`Client::classify_texts`].
    pub fn classify_texts_uncached(
        &mut self,
        model: &str,
        texts: &[&str],
    ) -> Result<ClientResponse> {
        self.classify_texts_request(model, texts, None, true)
    }

    fn classify_texts_request(
        &mut self,
        model: &str,
        texts: &[&str],
        deadline_ms: Option<u64>,
        no_cache: bool,
    ) -> Result<ClientResponse> {
        let mut fields = vec![
            ("id", Json::str(self.fresh_id())),
            ("model", Json::str(model)),
            (
                "texts",
                Json::Arr(texts.iter().map(|t| Json::str(*t)).collect()),
            ),
        ];
        if let Some(ms) = deadline_ms {
            fields.push(("deadline_ms", Json::Num(ms as f64)));
        }
        if no_cache {
            fields.push(("no_cache", Json::Bool(true)));
        }
        let value = self.roundtrip(&Json::obj(fields))?;
        decode_response(&value)
    }

    /// Classifies (premise, hypothesis) pairs on `model`.
    ///
    /// # Errors
    ///
    /// As for [`Client::classify_texts`].
    pub fn classify_pairs(
        &mut self,
        model: &str,
        pairs: &[(&str, &str)],
    ) -> Result<ClientResponse> {
        let frame = Json::obj([
            ("id", Json::str(self.fresh_id())),
            ("model", Json::str(model)),
            (
                "pairs",
                Json::Arr(
                    pairs
                        .iter()
                        .map(|(a, b)| Json::Arr(vec![Json::str(*a), Json::str(*b)]))
                        .collect(),
                ),
            ),
        ]);
        let value = self.roundtrip(&frame)?;
        decode_response(&value)
    }

    /// Pipelines one single-sentence classification request: the frame is
    /// written immediately with a generated id, no response is awaited, and
    /// the id is returned so the caller can match it against
    /// [`Client::drain`]'s results. Any number of submissions may be in
    /// flight on one connection.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from writing the frame.
    pub fn submit(&mut self, model: &str, texts: &[&str]) -> Result<String> {
        let id = self.fresh_id();
        self.submit_as(&id, model, texts)?;
        Ok(id)
    }

    /// As [`Client::submit`], with a caller-chosen request id (echoed
    /// verbatim in the response frame).
    ///
    /// # Errors
    ///
    /// Propagates socket errors from writing the frame.
    pub fn submit_as(&mut self, id: &str, model: &str, texts: &[&str]) -> Result<()> {
        let frame = Json::obj([
            ("id", Json::str(id)),
            ("model", Json::str(model)),
            (
                "texts",
                Json::Arr(texts.iter().map(|t| Json::str(*t)).collect()),
            ),
        ]);
        self.send_frame(&frame)?;
        self.pending.push_back(id.to_string());
        Ok(())
    }

    /// Number of pipelined requests whose responses are still unread.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Collects the responses of every pipelined request, in submission
    /// order, as `(id, per-request result)` pairs. A request that failed
    /// server-side (unknown model, engine error, expired deadline) yields
    /// its error at its own position without aborting the drain.
    ///
    /// # Errors
    ///
    /// Fails wholesale only on transport problems (socket errors, a closed
    /// connection, malformed frames) or if a response's echoed id does not
    /// match the expected submission — both mean the connection state is no
    /// longer trustworthy.
    pub fn drain(&mut self) -> Result<Vec<(String, Result<ClientResponse>)>> {
        let mut responses = Vec::with_capacity(self.pending.len());
        while let Some(expected) = self.pending.pop_front() {
            let value = match self.read_frame() {
                Ok(value) => value,
                Err(e) => {
                    // The connection is broken; leave the id unpopped state
                    // consistent (already popped — push back) and surface.
                    self.pending.push_front(expected);
                    return Err(e);
                }
            };
            if let Some(echoed) = value.get("id").and_then(Json::as_str) {
                if echoed != expected {
                    return Err(ServeError::Protocol(format!(
                        "pipelined response id `{echoed}` does not match the \
                         expected submission `{expected}`"
                    )));
                }
            }
            let outcome = match value.get("error") {
                Some(error) => Err(decode_error(error)),
                None => decode_response(&value),
            };
            responses.push((expected, outcome));
        }
        Ok(responses)
    }

    /// Lists the server's registered models, one [`ClientModelInfo`] per
    /// registry entry.
    ///
    /// # Errors
    ///
    /// Propagates socket and protocol errors.
    pub fn list_models(&mut self) -> Result<Vec<ClientModelInfo>> {
        let value = self.roundtrip(&Json::obj([("cmd", Json::str("list_models"))]))?;
        let models = value
            .get("models")
            .and_then(Json::as_arr)
            .ok_or_else(|| ServeError::Protocol("response lacks `models`".to_string()))?;
        models
            .iter()
            .map(|m| {
                let field = |key: &str| -> Result<String> {
                    m.get(key)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| ServeError::Protocol(format!("model entry lacks `{key}`")))
                };
                Ok(ClientModelInfo {
                    name: field("name")?,
                    task: field("task")?,
                    backend: field("backend")?,
                    precision: field("precision")?,
                    bits: field("bits")?,
                    num_classes: num_field(m, "num_classes")? as usize,
                    threads: num_field(m, "threads")? as usize,
                    kernel: field("kernel")?,
                    resident_bytes: num_field(m, "resident_bytes")? as usize,
                    shared_tensors: num_field(m, "shared_tensors")? as usize,
                })
            })
            .collect()
    }

    /// Liveness check.
    ///
    /// # Errors
    ///
    /// Propagates socket and protocol errors.
    pub fn ping(&mut self) -> Result<()> {
        let value = self.roundtrip(&Json::obj([("cmd", Json::str("ping"))]))?;
        match value.get("pong") {
            Some(Json::Bool(true)) => Ok(()),
            _ => Err(ServeError::Protocol("expected pong".to_string())),
        }
    }

    /// Fetches the server's live telemetry snapshot: per-model latency
    /// percentiles and queue metrics plus server-wide totals.
    ///
    /// # Errors
    ///
    /// Propagates socket and protocol errors.
    pub fn stats(&mut self) -> Result<StatsReport> {
        let value = self.roundtrip(&Json::obj([("cmd", Json::str("stats"))]))?;
        decode_stats(&value)
    }

    /// Asks the server to shut down gracefully; returns once the server
    /// acknowledged (the drain happens after the ack).
    ///
    /// # Errors
    ///
    /// Propagates socket and protocol errors.
    pub fn shutdown_server(&mut self) -> Result<()> {
        let value = self.roundtrip(&Json::obj([("cmd", Json::str("shutdown"))]))?;
        match value.get("shutting_down") {
            Some(Json::Bool(true)) => Ok(()),
            _ => Err(ServeError::Protocol("expected shutdown ack".to_string())),
        }
    }

    fn fresh_id(&mut self) -> String {
        self.next_id += 1;
        format!("c{}", self.next_id)
    }
}

fn decode_error(error: &Json) -> ServeError {
    let kind = error.get("kind").and_then(Json::as_str).unwrap_or("");
    let message = error
        .get("message")
        .and_then(Json::as_str)
        .unwrap_or("server error")
        .to_string();
    match kind {
        "unknown_model" => {
            // The server renders `unknown model `name``; recover the bare
            // name so the client-side variant carries (and displays) the
            // model, not the whole sentence.
            let name = message
                .split('`')
                .nth(1)
                .unwrap_or(message.as_str())
                .to_string();
            ServeError::UnknownModel(name)
        }
        "shutting_down" => ServeError::ShuttingDown,
        "deadline_exceeded" => ServeError::DeadlineExceeded,
        "server_overloaded" => ServeError::ServerOverloaded,
        "internal_error" => ServeError::Internal(message),
        _ => ServeError::Protocol(format!("server reported `{kind}`: {message}")),
    }
}

fn num_field(value: &Json, key: &str) -> Result<f64> {
    value
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| ServeError::Protocol(format!("response lacks numeric `{key}`")))
}

fn f32_array(value: &Json, key: &str) -> Result<Vec<f32>> {
    let arr = value
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| ServeError::Protocol(format!("result lacks `{key}` array")))?;
    arr.iter()
        .map(|x| {
            x.as_f64()
                .map(|v| v as f32)
                .ok_or_else(|| ServeError::Protocol(format!("`{key}` entries must be numbers")))
        })
        .collect()
}

fn decode_response(value: &Json) -> Result<ClientResponse> {
    let str_field = |key: &str| -> Result<String> {
        value
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ServeError::Protocol(format!("response lacks `{key}`")))
    };
    let results = value
        .get("results")
        .and_then(Json::as_arr)
        .ok_or_else(|| ServeError::Protocol("response lacks `results`".to_string()))?
        .iter()
        .map(|item| {
            Ok(ClientResult {
                prediction: num_field(item, "prediction")? as usize,
                label: item
                    .get("label")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                scores: f32_array(item, "scores")?,
                logits: f32_array(item, "logits")?,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let batch = value
        .get("batch")
        .ok_or_else(|| ServeError::Protocol("response lacks `batch`".to_string()))?;
    let sim = match value.get("sim") {
        Some(sim) => Some(BatchCost {
            total_cycles: num_field(sim, "total_cycles")? as u64,
            latency_ms: num_field(sim, "latency_ms")?,
        }),
        None => None,
    };
    Ok(ClientResponse {
        id: str_field("id")?,
        model: str_field("model")?,
        results,
        latency_ms: num_field(value, "latency_ms")?,
        flushed_batch: num_field(batch, "flushed")? as usize,
        wait_ms: num_field(batch, "wait_ms")?,
        sim,
        cached: matches!(value.get("cached"), Some(Json::Bool(true))),
    })
}

fn decode_stats(value: &Json) -> Result<StatsReport> {
    let stats = value
        .get("stats")
        .ok_or_else(|| ServeError::Protocol("response lacks `stats`".to_string()))?;
    let mut report = StatsReport::default();
    if let Some(counters) = stats.get("counters").and_then(Json::as_obj) {
        for (name, raw) in counters {
            let count = raw.as_f64().ok_or_else(|| {
                ServeError::Protocol(format!("counter `{name}` must be a number"))
            })?;
            report.counters.insert(name.clone(), count as u64);
        }
    }
    if let Some(gauges) = stats.get("gauges").and_then(Json::as_obj) {
        for (name, raw) in gauges {
            let level = raw
                .as_f64()
                .ok_or_else(|| ServeError::Protocol(format!("gauge `{name}` must be a number")))?;
            report.gauges.insert(name.clone(), level as i64);
        }
    }
    if let Some(histograms) = stats.get("histograms").and_then(Json::as_obj) {
        for (name, hist) in histograms {
            report.histograms.insert(
                name.clone(),
                HistogramStats {
                    count: num_field(hist, "count")? as u64,
                    sum: num_field(hist, "sum")? as u64,
                    min: num_field(hist, "min")? as u64,
                    max: num_field(hist, "max")? as u64,
                    mean: num_field(hist, "mean")?,
                    p50: num_field(hist, "p50")?,
                    p95: num_field(hist, "p95")?,
                    p99: num_field(hist, "p99")?,
                },
            );
        }
    }
    // Absent on frames from servers predating the labels section.
    if let Some(labels) = stats.get("labels").and_then(Json::as_obj) {
        for (name, raw) in labels {
            let text = raw
                .as_str()
                .ok_or_else(|| ServeError::Protocol(format!("label `{name}` must be a string")))?;
            report.labels.insert(name.clone(), text.to_string());
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_a_response_frame() {
        let line = concat!(
            "{\"id\":\"c1\",\"model\":\"sst2\",",
            "\"results\":[{\"prediction\":1,\"label\":\"positive\",",
            "\"scores\":[0.25,0.75],\"logits\":[-1,1]}],",
            "\"latency_ms\":1.5,",
            "\"batch\":{\"flushed\":8,\"wait_ms\":0.4},",
            "\"sim\":{\"total_cycles\":99,\"latency_ms\":0.2}}"
        );
        let response = decode_response(&crate::json::parse(line).unwrap()).unwrap();
        assert_eq!(response.id, "c1");
        assert_eq!(response.results.len(), 1);
        assert_eq!(response.results[0].prediction, 1);
        assert_eq!(response.results[0].label, "positive");
        assert_eq!(response.results[0].scores, vec![0.25, 0.75]);
        assert_eq!(response.flushed_batch, 8);
        assert_eq!(response.sim.unwrap().total_cycles, 99);
        // A frame without `cached` (pre-cache server) defaults to false.
        assert!(!response.cached);
        let cached = line.replace("\"latency_ms\":1.5,", "\"latency_ms\":1.5,\"cached\":true,");
        let response = decode_response(&crate::json::parse(&cached).unwrap()).unwrap();
        assert!(response.cached);
    }

    #[test]
    fn decodes_error_frames_by_kind() {
        let frame = crate::json::parse("{\"kind\":\"unknown_model\",\"message\":\"m\"}").unwrap();
        assert_eq!(decode_error(&frame).kind(), "unknown_model");
        // The bare model name is recovered from the server's sentence, so
        // Display does not double-wrap it.
        let frame =
            crate::json::parse("{\"kind\":\"unknown_model\",\"message\":\"unknown model `foo`\"}")
                .unwrap();
        let err = decode_error(&frame);
        assert!(matches!(&err, ServeError::UnknownModel(name) if name == "foo"));
        assert_eq!(err.to_string(), "unknown model `foo`");
        let shutting = decode_error(
            &crate::json::parse("{\"kind\":\"shutting_down\",\"message\":\"x\"}").unwrap(),
        );
        assert!(matches!(shutting, ServeError::ShuttingDown));
        let other = decode_error(
            &crate::json::parse("{\"kind\":\"runtime\",\"message\":\"boom\"}").unwrap(),
        );
        assert!(other.to_string().contains("boom"));
    }

    #[test]
    fn decodes_a_stats_frame() {
        let line = concat!(
            "{\"ok\":true,\"stats\":{",
            "\"counters\":{\"model.sst2.queue.shed\":4,\"server.requests\":9},",
            "\"gauges\":{\"model.sst2.queue.depth\":0},",
            "\"histograms\":{\"model.sst2.request_us\":{",
            "\"count\":3,\"sum\":700,\"min\":100,\"max\":400,",
            "\"mean\":233.3,\"p50\":200,\"p95\":380,\"p99\":400,",
            "\"buckets\":[[64,127,1],[128,255,1],[256,511,1]]}},",
            "\"labels\":{\"model.sst2.engine.kernel\":\"avx2\"}}}"
        );
        let report = decode_stats(&crate::json::parse(line).unwrap()).unwrap();
        assert_eq!(report.counters.get("model.sst2.queue.shed"), Some(&4));
        assert_eq!(report.counters.get("server.requests"), Some(&9));
        assert_eq!(report.gauges.get("model.sst2.queue.depth"), Some(&0));
        let hist = report.histograms.get("model.sst2.request_us").unwrap();
        assert_eq!(hist.count, 3);
        assert_eq!(hist.min, 100);
        assert_eq!(hist.max, 400);
        assert!(hist.p50 <= hist.p95 && hist.p95 <= hist.p99);
        assert_eq!(
            report
                .labels
                .get("model.sst2.engine.kernel")
                .map(String::as_str),
            Some("avx2")
        );
        // An empty-section frame still decodes — including frames from
        // servers predating the `labels` section.
        let empty = decode_stats(
            &crate::json::parse(
                "{\"ok\":true,\"stats\":{\"counters\":{},\"gauges\":{},\"histograms\":{}}}",
            )
            .unwrap(),
        )
        .unwrap();
        assert!(empty.counters.is_empty() && empty.histograms.is_empty());
    }

    #[test]
    fn decodes_overload_error_frames() {
        let frame = crate::json::parse(
            "{\"kind\":\"server_overloaded\",\"message\":\"server overloaded\"}",
        )
        .unwrap();
        assert!(matches!(decode_error(&frame), ServeError::ServerOverloaded));
    }

    #[test]
    fn incomplete_responses_are_protocol_errors() {
        for line in [
            "{}",
            "{\"id\":\"a\",\"model\":\"m\"}",
            "{\"id\":\"a\",\"model\":\"m\",\"results\":[],\"latency_ms\":1}",
        ] {
            let value = crate::json::parse(line).unwrap();
            assert!(decode_response(&value).is_err(), "{line}");
        }
    }
}
