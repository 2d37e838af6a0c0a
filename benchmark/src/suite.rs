//! `fqbench suite` and `fqbench compare`: many contract runs tabulated,
//! and two such tables judged against the bounds in `BENCHMARK.json`.

use crate::measure::quartiles;
use crate::workloads::Workload;
use crate::{parse_flags, DEFAULT_OUT_DIR};
use fqbert_serve::{json, Json};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// One child run: the contract's result object, decoded, plus the digest
/// line.
struct ChildRun {
    attempted: f64,
    failed: f64,
    correct: bool,
    /// `name → (unit, value)`.
    metrics: BTreeMap<String, (String, f64)>,
    output_digest: String,
}

/// Runs one contract run in a fresh process and parses what it printed.
fn child_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &str,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--out-dir", out_dir])
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "{} exited with {}:\n{}",
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("no output")?;
    let output_digest = stdout
        .lines()
        .find_map(|line| line.strip_prefix("output_digest "))
        .unwrap_or("")
        .to_string();
    let result = json::parse(last)?;
    let number = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    Ok(ChildRun {
        attempted: number("attempted"),
        failed: number("failed"),
        correct: result.get("correct") == Some(&Json::Bool(true)),
        metrics: metrics_of(&result),
        output_digest,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn num(value: f64) -> Json {
    Json::Num(value)
}

/// `(name → (unit, value))` of a result object's metrics.
fn metrics_of(result: &Json) -> BTreeMap<String, (String, f64)> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .map(|metrics| {
            metrics
                .iter()
                .filter_map(|(name, entry)| {
                    let unit = entry.get("unit")?.as_str()?.to_string();
                    Some((name.clone(), (unit, entry.get("value")?.as_f64()?)))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Runs one workload `repeat` times untraced and, if asked, once traced;
/// prints its table and returns its entry of the results file and whether
/// every run was correct.
fn suite_workload(
    workload: Workload,
    seed: u64,
    seconds: f64,
    repeat: usize,
    trace: bool,
    out_dir: &str,
) -> (Json, bool) {
    let mut all_ok = true;
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut first_digest = String::new();
    for rep in 0..repeat {
        match child_run(workload, seed + rep as u64, seconds, false, out_dir) {
            Ok(run) => {
                attempted += run.attempted;
                failed += run.failed;
                all_ok &= run.correct;
                if rep == 0 {
                    first_digest = run.output_digest;
                }
                for (name, (unit, value)) in run.metrics {
                    values
                        .entry(name)
                        .or_insert_with(|| (unit, Vec::new()))
                        .1
                        .push(value);
                }
            }
            Err(error) => {
                eprintln!("fqbench suite: {error}");
                all_ok = false;
            }
        }
    }
    println!(
        "\n{}  attempted={attempted} failed={failed} output_digest={first_digest}",
        workload.name()
    );
    println!(
        "  {:<24} {:>14} {:>14} {:>14} {:>8}  {:<6} n",
        "metric", "median", "q1", "q3", "spread", "unit"
    );
    let mut end_to_end: BTreeMap<String, Json> = BTreeMap::new();
    for (name, (unit, samples)) in &values {
        let [q1, median, q3] = quartiles(samples);
        let spread = if median != 0.0 {
            (q3 - q1) / median
        } else {
            0.0
        };
        println!(
            "  {name:<24} {median:>14.4} {q1:>14.4} {q3:>14.4} {:>7.2}%  {unit:<6} {}",
            spread * 100.0,
            samples.len()
        );
        end_to_end.insert(
            name.clone(),
            Json::obj([
                ("unit", Json::str(unit.as_str())),
                ("median", num(median)),
                ("q1", num(q1)),
                ("q3", num(q3)),
                (
                    "values",
                    Json::Arr(samples.iter().copied().map(num).collect()),
                ),
            ]),
        );
    }
    let mut entry = vec![
        ("end_to_end", Json::Obj(end_to_end)),
        ("attempted", num(attempted)),
        ("failed", num(failed)),
        ("output_digest", Json::str(first_digest.as_str())),
    ];
    if trace {
        match child_run(workload, seed, seconds, true, out_dir) {
            Ok(run) => {
                all_ok &= run.correct;
                // Same seed, same inputs: the traced window is a prefix of
                // the untraced one, and the digest covers a prefix.
                if run.output_digest != first_digest {
                    eprintln!(
                        "fqbench suite: {} traced digest {} != untraced {first_digest}",
                        workload.name(),
                        run.output_digest
                    );
                    all_ok = false;
                }
                println!(
                    "  per-layer (traced run; accel.* is simulated time, \
                     unvalidated against hardware):"
                );
                let mut per_layer: BTreeMap<String, Json> = BTreeMap::new();
                for (name, (unit, value)) in run.metrics {
                    println!("    {name:<34} {value:>16.4} {unit}");
                    per_layer.insert(
                        name,
                        Json::obj([("unit", Json::str(unit)), ("value", num(value))]),
                    );
                }
                entry.push(("per_layer", Json::Obj(per_layer)));
            }
            Err(error) => {
                eprintln!("fqbench suite: traced {error}");
                all_ok = false;
            }
        }
    }
    (Json::obj(entry), all_ok)
}

/// `fqbench suite`: every workload untraced (`--repeat` times, seeds
/// `seed, seed+1, …`) and once traced, each run in a fresh process.
pub fn suite(args: &[String]) -> ExitCode {
    let Some((flags, positional)) = parse_flags(args, &["no-trace"]) else {
        return ExitCode::from(2);
    };
    if !positional.is_empty() {
        return ExitCode::from(2);
    }
    let (mut seed, mut seconds, mut repeat, mut trace) = (1u64, 15.0f64, 1usize, true);
    let mut selected: Vec<Workload> = Vec::new();
    let mut out_dir = DEFAULT_OUT_DIR.to_string();
    let mut out_file: Option<PathBuf> = None;
    for (flag, value) in flags {
        let ok = match flag.as_str() {
            "seed" => value.parse().map(|v| seed = v).is_ok(),
            "seconds" => value.parse().map(|v| seconds = v).is_ok(),
            "repeat" => value.parse().map(|v| repeat = v).is_ok(),
            "workload" => Workload::parse(&value).map(|w| selected.push(w)).is_some(),
            "no-trace" => {
                trace = false;
                true
            }
            "out" => {
                out_file = Some(PathBuf::from(value));
                true
            }
            "out-dir" => {
                out_dir = value;
                true
            }
            _ => false,
        };
        if !ok {
            return ExitCode::from(2);
        }
    }
    if selected.is_empty() {
        selected = Workload::ALL.to_vec();
    }
    let out_file = out_file.unwrap_or_else(|| PathBuf::from(&out_dir).join("results.json"));

    let meta = Json::obj([
        (
            "nproc",
            num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        (
            "kernel",
            Json::str(fqbert_tensor::gemm::kernels::selected().name),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", num(seed as f64)),
        ("seconds", num(seconds)),
        ("repeat", num(repeat as f64)),
    ]);
    println!("fqbench suite {}", meta.render());

    let mut all_ok = true;
    let mut workloads: BTreeMap<String, Json> = BTreeMap::new();
    for workload in selected {
        let (entry, ok) = suite_workload(workload, seed, seconds, repeat, trace, &out_dir);
        all_ok &= ok;
        workloads.insert(workload.name().to_string(), entry);
    }

    let document = Json::obj([("meta", meta), ("workloads", Json::Obj(workloads))]);
    if let Some(parent) = out_file.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(error) = std::fs::write(&out_file, document.render()) {
        eprintln!(
            "fqbench suite: cannot write {}: {error}",
            out_file.display()
        );
        return ExitCode::FAILURE;
    }
    println!("\nresults written to {}", out_file.display());
    if all_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("fqbench suite: at least one run failed or was incorrect");
        ExitCode::FAILURE
    }
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))
}

/// `fqbench compare A.json B.json`: one row per (workload, end-to-end
/// metric) with both medians, the ratio B/A and a verdict against the
/// metric's bound: `worse` when B's median is worse than A's by more than
/// the bound, otherwise `unresolved` when either side's quartile spread is
/// wider than the bound, otherwise `ok`.
pub fn compare(args: &[String]) -> ExitCode {
    let Some((flags, files)) = parse_flags(args, &[]) else {
        return ExitCode::from(2);
    };
    let [a_path, b_path] = files.as_slice() else {
        eprintln!("usage: fqbench compare <A.json> <B.json> [--spec BENCHMARK.json]");
        return ExitCode::from(2);
    };
    let spec_path = flags
        .iter()
        .find(|(flag, _)| flag == "spec")
        .map_or("BENCHMARK.json", |(_, value)| value.as_str());
    let (spec, a, b) = match (read_json(spec_path), read_json(a_path), read_json(b_path)) {
        (Ok(spec), Ok(a), Ok(b)) => (spec, a, b),
        (spec, a, b) => {
            for error in [spec.err(), a.err(), b.err()].into_iter().flatten() {
                eprintln!("fqbench compare: {error}");
            }
            return ExitCode::from(2);
        }
    };
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .cloned()
            .unwrap_or_default()
    };
    let (a_workloads, b_workloads) = (workloads(&a), workloads(&b));
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    let mut worse = 0usize;
    let mut unresolved = 0usize;
    for (workload, a_entry) in &a_workloads {
        let Some(b_entry) = b_workloads.get(workload) else {
            continue;
        };
        let side = |entry: &Json| {
            entry
                .get("end_to_end")
                .and_then(Json::as_obj)
                .cloned()
                .unwrap_or_default()
        };
        let (a_metrics, b_metrics) = (side(a_entry), side(b_entry));
        for metric in spec.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]) {
            let field = |key: &str| metric.get(key).and_then(Json::as_str).unwrap_or("");
            let name = field("name");
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (Some(a_stats), Some(b_stats)) = (a_metrics.get(name), b_metrics.get(name)) else {
                continue;
            };
            let stat =
                |stats: &Json, key: &str| stats.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            let (a_median, b_median) = (stat(a_stats, "median"), stat(b_stats, "median"));
            let spread = |stats: &Json| {
                let median = stat(stats, "median");
                if median == 0.0 {
                    0.0
                } else {
                    (stat(stats, "q3") - stat(stats, "q1")) / median
                }
            };
            let is_worse = if field("better") == "lower" {
                b_median > a_median * (1.0 + bound)
            } else {
                b_median < a_median * (1.0 - bound)
            };
            let verdict = if is_worse {
                worse += 1;
                "worse"
            } else if spread(a_stats).max(spread(b_stats)) > bound {
                unresolved += 1;
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{workload:<16} {name:<22} {a_median:>14.4} {b_median:>14.4} {:>9.4} {:>6.0}%  {verdict}",
                b_median / a_median,
                bound * 100.0
            );
        }
        let digest = |entry: &Json| {
            entry
                .get("output_digest")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string()
        };
        let same_seed =
            a.get("meta").and_then(|m| m.get("seed")) == b.get("meta").and_then(|m| m.get("seed"));
        if same_seed && digest(a_entry) != digest(b_entry) {
            println!(
                "{workload:<16} output_digest differs: {} vs {}",
                digest(a_entry),
                digest(b_entry)
            );
            worse += 1;
        }
    }
    println!("ratios are B/A (base A); {worse} worse, {unresolved} unresolved");
    if worse > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
