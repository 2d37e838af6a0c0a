//! `fqbert-serve` — serve saved FQ-BERT artifacts over the line-delimited
//! JSON protocol.
//!
//! ```text
//! fqbert-serve [--listen ADDR] [--max-batch N] [--max-delay-ms MS]
//!              [--max-queue N] [--cache N] [--stats-interval SECS]
//!              [--threads N] [--config FILE]
//!              [name=backend:path[#threads=N] ...]
//! ```
//!
//! Models come from `name=backend:path[#threads=N]` specs (backend is `int`
//! or `sim`) given as arguments and/or one per line in `--config FILE` (`#`
//! comments allowed). Batching is work-conserving: a model's free worker
//! flushes whatever is pending, up to `--max-batch N` sequences (default
//! 16). `--max-delay-ms MS` (default 0) opts into holding a window open
//! until the oldest request has waited `MS` ms. `--threads N` shards every
//! model's batches across `N` worker threads (`0` = auto-detect); a
//! per-spec `#threads=` suffix overrides it for that model. `--max-queue N`
//! bounds each model's request queue to `N` sequences (default 1024, `0` =
//! unbounded): submissions past the bound are answered with a
//! `server_overloaded` error frame instead of growing the backlog.
//! `--stats-interval SECS` prints a telemetry summary line per model every
//! `SECS` seconds (`0`, the default, disables it); the same data is live
//! over the wire via `{"cmd":"stats"}`. `--cache N` sizes the idempotent
//! response cache (default 128 responses, `0` turns replay off; identical
//! in-flight requests still coalesce). The server runs until a client sends
//! `{"cmd":"shutdown"}`.

use fqbert_serve::{registry, BatchPolicy, ModelRegistry, ModelSpec, Server, ServerConfig};
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: fqbert-serve [--listen ADDR] [--max-batch N] [--max-delay-ms MS] \
         [--max-queue N] [--cache N] [--stats-interval SECS] [--threads N] \
         [--config FILE] [name=backend:path[#threads=N] ...]\n\
         \n  --max-batch N      sequences per flush (default 16)\
         \n  --max-delay-ms MS  hold a window open up to MS ms \
         (default 0: flush as soon as the worker is free)"
    );
    std::process::exit(2);
}

fn main() {
    let mut listen = "127.0.0.1:7878".to_string();
    // Serving over a socket defaults to a bounded queue: an unreachable
    // backlog helps nobody, and 1024 sequences is far beyond any flush
    // window. Library users opt in via `BatchPolicy::max_queue` instead.
    let mut policy = BatchPolicy::default().bounded(1024);
    let mut stats_interval = Duration::ZERO;
    let mut default_threads: Option<usize> = None;
    let mut cache_capacity = ServerConfig::default().cache_capacity;
    let mut specs: Vec<ModelSpec> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut flag_value = |flag: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--listen" => listen = flag_value("--listen"),
            "--max-batch" => {
                policy.max_batch = flag_value("--max-batch").parse().unwrap_or_else(|_| {
                    eprintln!("--max-batch must be a positive integer");
                    usage()
                })
            }
            "--max-delay-ms" => {
                let ms: u64 = flag_value("--max-delay-ms").parse().unwrap_or_else(|_| {
                    eprintln!("--max-delay-ms must be an integer");
                    usage()
                });
                policy.max_delay = Duration::from_millis(ms);
            }
            "--max-queue" => {
                let bound: usize = flag_value("--max-queue").parse().unwrap_or_else(|_| {
                    eprintln!("--max-queue must be an integer (0 = unbounded)");
                    usage()
                });
                policy.max_queue = if bound == 0 { usize::MAX } else { bound };
            }
            "--cache" => {
                cache_capacity = flag_value("--cache").parse().unwrap_or_else(|_| {
                    eprintln!("--cache must be an integer (0 = replay off)");
                    usage()
                });
            }
            "--stats-interval" => {
                let secs: u64 = flag_value("--stats-interval").parse().unwrap_or_else(|_| {
                    eprintln!("--stats-interval must be an integer number of seconds (0 = off)");
                    usage()
                });
                stats_interval = Duration::from_secs(secs);
            }
            "--threads" => {
                let threads: usize = flag_value("--threads").parse().unwrap_or_else(|_| {
                    eprintln!("--threads must be an integer (0 = auto-detect)");
                    usage()
                });
                default_threads = Some(threads);
            }
            "--config" => {
                let path = flag_value("--config");
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("cannot read config `{path}`: {e}");
                    std::process::exit(1);
                });
                match registry::parse_config(&text) {
                    Ok(parsed) => specs.extend(parsed),
                    Err(e) => {
                        eprintln!("bad config `{path}`: {e}");
                        std::process::exit(1);
                    }
                }
            }
            "--help" | "-h" => usage(),
            spec => match spec.parse::<ModelSpec>() {
                Ok(parsed) => specs.push(parsed),
                Err(e) => {
                    eprintln!("bad model spec: {e}");
                    usage();
                }
            },
        }
    }

    if specs.is_empty() {
        eprintln!("no models to serve");
        usage();
    }

    // The --threads default applies to every spec without its own suffix.
    if let Some(threads) = default_threads {
        for spec in &mut specs {
            spec.threads.get_or_insert(threads);
        }
    }

    let registry = ModelRegistry::load(&specs).unwrap_or_else(|e| {
        eprintln!("failed to load models: {e}");
        std::process::exit(1);
    });
    let infos = registry.infos();
    let server = Server::spawn(
        registry,
        ServerConfig {
            addr: listen,
            policy,
            cache_capacity,
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("failed to start server: {e}");
        std::process::exit(1);
    });

    println!("fqbert-serve listening on {}", server.local_addr());
    if policy.max_delay.is_zero() {
        println!(
            "batching: work-conserving, up to {} sequences per flush",
            policy.max_batch
        );
    } else {
        println!(
            "batching: up to {} sequences per flush, holding a window up to {:.1} ms",
            policy.max_batch,
            policy.max_delay.as_secs_f64() * 1e3
        );
    }
    for info in infos {
        println!(
            "  model {:<16} task {:<7} backend {:<5} precision {:<6} bits {:<12} threads {} \
             kernel {} resident {:.1} KiB ({} shared tensor(s))",
            info.name,
            info.task,
            info.backend,
            info.precision,
            info.bits,
            info.threads,
            info.kernel,
            info.resident_bytes as f64 / 1024.0,
            info.shared_tensors,
        );
    }
    println!("send {{\"cmd\":\"shutdown\"}} to stop");
    let names: Vec<String> = server
        .queue_stats()
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    if stats_interval.is_zero() {
        server.join();
    } else {
        let mut last = Instant::now();
        while !server.is_shutting_down() {
            std::thread::sleep(Duration::from_millis(100));
            if last.elapsed() >= stats_interval {
                last = Instant::now();
                print_stats(&server, &names);
            }
        }
        // Same graceful drain as `join`: shutdown is idempotent.
        server.shutdown();
    }
    println!("drained and stopped");
}

/// One periodic `--stats-interval` summary: server totals plus one line per
/// model with queue counters and end-to-end latency percentiles.
fn print_stats(server: &Server, names: &[String]) {
    let snapshot = server.stats_snapshot();
    println!(
        "stats: {} frame(s) answered, {} error(s), {} connection(s) open, \
         cache {} hit(s) / {} miss(es) / {} coalesced",
        snapshot.counter("server.requests").unwrap_or(0),
        snapshot.counter("server.errors").unwrap_or(0),
        snapshot.gauge("server.connections").unwrap_or(0),
        snapshot.counter("cache.hits").unwrap_or(0),
        snapshot.counter("cache.misses").unwrap_or(0),
        snapshot.counter("cache.coalesced").unwrap_or(0),
    );
    for name in names {
        let counter = |metric: &str| {
            snapshot
                .counter(&format!("model.{name}.queue.{metric}"))
                .unwrap_or(0)
        };
        let latency = match snapshot.histogram(&format!("model.{name}.request_us")) {
            Some(hist) if hist.count > 0 => format!(
                "p50 {:.0} us, p95 {:.0} us, p99 {:.0} us",
                hist.p50(),
                hist.p95(),
                hist.p99()
            ),
            _ => "no requests yet".to_string(),
        };
        println!(
            "  {name}: {} req, {} flushes, depth {}, shed {}, expired {}, latency {latency}",
            counter("requests"),
            counter("flushes"),
            snapshot
                .gauge(&format!("model.{name}.queue.depth"))
                .unwrap_or(0),
            counter("shed"),
            counter("expired"),
        );
    }
}
