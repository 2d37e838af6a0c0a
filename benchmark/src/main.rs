//! `fqbench` — the repository's benchmark.
//!
//! ```text
//! fqbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! fqbench suite   [--seed n] [--seconds s] [--repeat N] [--workload name]... [--no-trace] [--out file]
//! fqbench compare <A.json> <B.json> [--spec BENCHMARK.json]
//! ```
//!
//! The first form is the benchmark contract: one workload, one fresh
//! process, one JSON object as the last line of standard output. `suite`
//! runs that form once per workload (and per repeat) as child processes
//! and tabulates medians and quartiles; `compare` judges two suite files
//! against the bounds in `BENCHMARK.json`. See `benchmark/README.md`.

mod measure;
mod models;
mod suite;
mod trace;
mod workloads;

use measure::{metric, peak_rss_mb, quantile, result_line, Metric};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Inputs, Workload};

/// Environment switches that would change what is measured; the benchmark
/// refuses to start under any of them.
const FORBIDDEN_ENV: [&str; 4] = [
    "FQBERT_THREADS",
    "FQBERT_KERNEL",
    "FQBERT_QUICK",
    "FQBERT_BENCH_MS",
];

/// Where artifacts, traces and suite results go, relative to the working
/// directory (the root of the checkout), unless `--out-dir` says otherwise.
pub const DEFAULT_OUT_DIR: &str = "benchmark/out";

/// Segments of an untraced run: the whole set-up is repeated this many
/// times (`setup_s` is the fastest), each followed by an equal share of the
/// measurement window.
const SEGMENTS: usize = 3;

/// Options of one contract run.
pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub segments: usize,
    pub out_dir: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: fqbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         fqbench suite [--seed n] [--seconds s] [--repeat N] [--workload name]... [--no-trace] [--out file]\n       \
         fqbench compare <A.json> <B.json> [--spec BENCHMARK.json]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

/// `(flag, value)` pairs and positional arguments of a command line.
pub type Flags = (Vec<(String, String)>, Vec<String>);

/// `--flag value` pairs after the optional subcommand; `None` on a
/// malformed command line.
pub fn parse_flags(args: &[String], switches: &[&str]) -> Option<Flags> {
    let mut flags = Vec::new();
    let mut positional = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.strip_prefix("--") {
            Some(name) if switches.contains(&name) => flags.push((name.to_string(), String::new())),
            Some(name) => flags.push((name.to_string(), iter.next()?.clone())),
            None => positional.push(arg.clone()),
        }
    }
    Some((flags, positional))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("fqbench: refusing to run with {var} set: it changes what is measured");
        return ExitCode::from(2);
    }
    match args.first().map(String::as_str) {
        Some("suite") => suite::suite(&args[1..]),
        Some("compare") => suite::compare(&args[1..]),
        Some(_) => match parse_run(&args) {
            Some(options) => run(&options),
            None => usage(),
        },
        None => usage(),
    }
}

fn parse_run(args: &[String]) -> Option<RunOptions> {
    let (flags, positional) = parse_flags(args, &[])?;
    if !positional.is_empty() {
        return None;
    }
    let workload = flags.iter().find(|(flag, _)| flag == "workload")?;
    let mut options = RunOptions {
        workload: Workload::parse(&workload.1)?,
        seed: 1,
        seconds: 15.0,
        trace: false,
        segments: SEGMENTS,
        out_dir: PathBuf::from(DEFAULT_OUT_DIR),
    };
    for (flag, value) in &flags {
        match flag.as_str() {
            "workload" => {}
            "seed" => options.seed = value.parse().ok()?,
            "seconds" => options.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "trace" => options.trace = matches!(value.as_str(), "1" | "true"),
            "segments" => options.segments = value.parse().ok().filter(|n| *n > 0)?,
            "out-dir" => options.out_dir = PathBuf::from(value),
            _ => return None,
        }
    }
    Some(options)
}

/// One contract run: human-readable detail on standard error, the result
/// object as the last line of standard output.
fn run(options: &RunOptions) -> ExitCode {
    eprintln!(
        "fqbench {} seed={} seconds={} trace={} nproc={} kernel={}",
        options.workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
        fqbert_tensor::gemm::kernels::selected().name,
    );
    let report = if options.trace {
        trace::traced_run(options)
    } else {
        untraced_run(options)
    };
    for (name, value, unit) in report.notes.iter().chain(&report.metrics) {
        eprintln!("  {name:<34} {value:>16.4} {unit}");
    }
    eprintln!(
        "  attempted={} failed={} verified={} output_digest={}",
        report.attempted, report.failed, report.verified, report.output_digest
    );
    let correct = report.failed == 0 && report.problems.is_empty();
    for problem in &report.problems {
        eprintln!("  CHECK FAILED: {problem}");
    }
    // The digest rides along for `suite`; the contract reads the last line.
    println!("output_digest {}", report.output_digest);
    println!(
        "{}",
        result_line(
            report.attempted.max(1),
            report.failed,
            correct,
            &report.metrics
        )
    );
    ExitCode::SUCCESS
}

/// What one run reports.
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Printed, not part of the contract's metric set.
    pub notes: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub verified: u64,
    pub output_digest: String,
    /// Failed consistency checks; any makes the run incorrect.
    pub problems: Vec<String>,
}

/// Seed of segment `index` of a run: distinct for every (`--seed`,
/// segment) pair, so the segments of one run see different inputs.
fn segment_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(index as u64)
}

/// One independently set-up slice of a run, ready to measure: inputs from
/// its own seed and a full, timed set-up.
pub struct Segment {
    pub seed: u64,
    pub inputs: Inputs,
    pub prepared: models::Prepared,
    pub system: workloads::System,
    pub set_up_s: f64,
}

/// Generates the inputs of segment `index` for a window of `seconds` and
/// sets the system up for them.
pub fn set_up_segment(options: &RunOptions, index: usize, seconds: f64) -> Segment {
    let seed = segment_seed(options.seed, index);
    let inputs = Inputs::generate(options.workload, seed, seconds);
    let tag = format!("{}_{}_{index}", options.workload.name(), std::process::id());
    let start = Instant::now();
    let (prepared, system) = workloads::set_up(options.workload, &inputs, &options.out_dir, &tag);
    Segment {
        seed,
        inputs,
        prepared,
        system,
        set_up_s: start.elapsed().as_secs_f64(),
    }
}

/// An untraced run measures in `segments` segments, each behind its own
/// full set-up, and pools their blocks. Set-up time is thereby measured
/// several times per run (`setup_s` is the fastest: the same work every
/// time, so the least disturbed), and process-lifetime accidents — where the
/// allocator put the weights, which core a thread landed on — are drawn
/// afresh for every segment instead of once per run. The timed metrics come
/// from the quietest blocks of all segments ([`measure::quiet`]).
fn untraced_run(options: &RunOptions) -> Report {
    let segments = options.segments;
    let mut latencies = Vec::new();
    let mut blocks = Vec::new();
    let mut set_ups = Vec::new();
    let mut notes: Vec<Metric> = Vec::new();
    let (mut attempted, mut failed, mut verified, mut sequences) = (0u64, 0u64, 0u64, 0u64);
    let (mut window_s, mut cpu_s) = (0.0f64, 0.0f64);
    let mut output_digest = String::new();
    let (mut resident_bytes, mut artifact_bytes, mut peak_rss) = (0.0f64, 0.0f64, 0.0f64);
    for index in 0..segments {
        // The previous segment's server, engines and models are gone by
        // now, so peak memory is that of one set-up.
        let seconds = options.seconds / segments as f64;
        let mut segment = set_up_segment(options, index, seconds);
        // Read when the system is first ready to serve: set-up (float
        // model, calibration graphs, conversion) is where the process
        // peaks, and what comes after is the benchmark's own per-operation
        // records, which grow with the very throughput being measured.
        if index == 0 {
            peak_rss = peak_rss_mb();
        }
        let outcome = workloads::run(
            options.workload,
            &mut segment.system,
            &segment.inputs,
            segment.seed,
            seconds,
        );
        let verdict = workloads::verify(
            &outcome,
            &segment.inputs,
            &segment.prepared.reference,
            segment.seed,
        );
        let segment_latencies = workloads::latencies(&outcome);
        notes.push(metric(
            &format!("segment{index}_p50_ms"),
            quantile(&segment_latencies, 0.5),
            "ms",
        ));
        notes.extend(
            outcome
                .notes
                .iter()
                .map(|(name, value, unit)| (format!("segment{index}_{name}"), *value, *unit)),
        );
        latencies.extend(segment_latencies);
        blocks.extend(workloads::blocks(&outcome));
        set_ups.push(segment.set_up_s);
        attempted += verdict.attempted;
        failed += verdict.failed;
        verified += verdict.verified;
        sequences += verdict.sequences_ok;
        window_s += outcome.window_s;
        cpu_s += outcome.cpu_s;
        if index == 0 {
            output_digest = verdict.output_digest;
        }
        resident_bytes = segment.system.resident_bytes();
        artifact_bytes = segment.prepared.artifact_bytes as f64;
    }
    // The whole window, for the record: what the host let the program do.
    let latencies = measure::sorted(latencies);
    let sequences = sequences.max(1) as f64;
    notes.extend([
        metric("window_s", window_s, "s"),
        metric("window_blocks", blocks.len() as f64, "count"),
        metric("window_latency_samples", latencies.len() as f64, "count"),
        metric("window_latency_p50_ms", quantile(&latencies, 0.5), "ms"),
        metric("window_latency_p90_ms", quantile(&latencies, 0.9), "ms"),
        metric("window_throughput_seq_per_s", sequences / window_s, "seq/s"),
        metric("window_cpu_ms_per_seq", cpu_s * 1e3 / sequences, "ms"),
        metric("setup_median_s", measure::median(&set_ups), "s"),
    ]);
    // The timed metrics: the quietest of the run's blocks, pooled.
    let quiet = measure::quiet(blocks);
    let quiet_latencies = measure::sorted(
        quiet
            .iter()
            .flat_map(|b| b.latencies.iter().copied())
            .collect(),
    );
    let quiet_sequences = quiet.iter().map(|b| b.sequences).sum::<u64>().max(1) as f64;
    let quiet_wall_s: f64 = quiet.iter().map(|b| b.wall_s).sum();
    let quiet_cpu_s: f64 = quiet.iter().map(|b| b.cpu_s).sum();
    notes.extend([
        metric("quiet_blocks", quiet.len() as f64, "count"),
        metric(
            "quiet_latency_samples",
            quiet_latencies.len() as f64,
            "count",
        ),
    ]);
    // An open loop answers what it is offered: its rate over the whole
    // window is exact unless it falls behind, and the arrivals that happen
    // to land in a few blocks are not.
    let throughput = match options.workload {
        Workload::QueueOpenS16 => sequences / window_s,
        _ => quiet_sequences / quiet_wall_s,
    };
    let fastest_set_up = set_ups.iter().copied().fold(f64::INFINITY, f64::min);
    let metrics = vec![
        metric("latency_p50_ms", quantile(&quiet_latencies, 0.5), "ms"),
        metric("latency_p90_ms", quantile(&quiet_latencies, 0.9), "ms"),
        metric("throughput_seq_per_s", throughput, "seq/s"),
        metric("cpu_ms_per_seq", quiet_cpu_s * 1e3 / quiet_sequences, "ms"),
        metric("setup_s", fastest_set_up, "s"),
        metric("peak_rss_mb", peak_rss, "MB"),
        metric("resident_bytes", resident_bytes, "bytes"),
        metric("artifact_bytes", artifact_bytes, "bytes"),
    ];
    Report {
        metrics,
        notes,
        attempted,
        failed,
        verified,
        output_digest,
        problems: Vec::new(),
    }
}
