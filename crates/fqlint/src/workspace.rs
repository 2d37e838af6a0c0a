//! Workspace walking and per-file rule scoping.
//!
//! Which rules run where is the lint *policy* of this repository:
//!
//! * **R1 `float-escape`** runs on the designated integer-datapath
//!   modules — the integer embedding, the int forward path, the integer
//!   GEMM and nibble packing, and the requantize / softmax-LUT /
//!   `Add & LN` / fixed-point apply paths: every file a forward pass
//!   executes from token ids to the classifier head. The boundary is a
//!   file boundary, not an annotated one, and no covered file carries a
//!   `float-escape` suppression. `fqbert-core`'s `int_model/` keeps the
//!   embedding (token ids in, codes out) in `embedding.rs`, everything
//!   between codes in and codes out in `encoder.rs`, and everything that is
//!   float on purpose (conversion in `assemble.rs`; the model around the
//!   encoder and its float task head in `host.rs`) in files the rule does
//!   not cover; `fqbert-quant` keeps what is applied
//!   in `requant.rs`, `softmax_lut.rs`, `layernorm_q.rs` and
//!   `fixedpoint.rs`, and every constructor that takes a real number in
//!   `fold.rs`.
//! * **R2 `narrowing-cast`** runs on all library code of the datapath
//!   crates (`crates/tensor`, `crates/quant`).
//! * **R3 `panic-path`** and **R4 `lock-hygiene`** run on all library code
//!   of the serving stack (`crates/serve`, `crates/runtime`) and of the
//!   telemetry crate (`crates/telemetry`) its hot paths record into.
//! * **R5 `unsafe-outside-kernels`** runs on *all* library code: `unsafe`
//!   is forbidden everywhere except the designated SIMD kernel modules,
//!   where each occurrence must carry a justified allow comment.
//!
//! Test targets (`tests/`, `benches/`, `examples/`, `src/bin/`,
//! `build.rs`) are lexed — the whole workspace must parse — but exempt
//! from the rules: panicking asserts are what tests are made of.

use crate::report::WorkspaceReport;
use crate::rules::{analyze_source, RuleSet};
use std::path::{Path, PathBuf};

/// Files R1 float-escape applies to (workspace-relative, `/`-separated).
/// The SIMD kernel modules under `gemm/kernels/` are included: they are
/// the innermost integer datapath and must never touch a float.
pub const FLOAT_ESCAPE_FILES: [&str; 9] = [
    "crates/fqbert/src/int_model/embedding.rs",
    "crates/fqbert/src/int_model/encoder.rs",
    "crates/tensor/src/gemm/mod.rs",
    "crates/tensor/src/gemm/attention.rs",
    "crates/tensor/src/pack4.rs",
    "crates/quant/src/requant.rs",
    "crates/quant/src/softmax_lut.rs",
    "crates/quant/src/layernorm_q.rs",
    "crates/quant/src/fixedpoint.rs",
];

/// Module trees where `unsafe` is legitimate — the SIMD micro-kernels,
/// whose intrinsics are inherently unsafe. R5 still demands a justified
/// allow comment on every occurrence inside these trees; everywhere else
/// `unsafe` is a violation outright.
const KERNEL_MODULE_TREES: [&str; 1] = ["crates/tensor/src/gemm/kernels/"];

/// Crate source trees R2 narrowing-cast applies to.
const NARROWING_CAST_TREES: [&str; 2] = ["crates/tensor/src/", "crates/quant/src/"];

/// Crate source trees R3/R4 (panic-free serving, lock hygiene) apply to.
const SERVING_TREES: [&str; 3] = [
    "crates/serve/src/",
    "crates/runtime/src/",
    "crates/telemetry/src/",
];

/// Directories never walked: build output, VCS metadata, and fqlint's own
/// known-bad rule fixtures.
const SKIP_DIRS: [&str; 3] = ["target", ".git", "node_modules"];

/// Path fragments that mark a file as a non-library target.
const AUX_MARKERS: [&str; 4] = ["/tests/", "/benches/", "/examples/", "/src/bin/"];

/// The rule families applicable to `rel` (a `/`-separated
/// workspace-relative path).
pub fn rules_for_path(rel: &str) -> RuleSet {
    if is_aux_target(rel) {
        return RuleSet::default();
    }
    // fqlint's own sources are exempt: its docs and diagnostics spell out
    // deliberately malformed `fqlint::allow` examples, which the directive
    // parser would report as bad suppressions.
    if rel.starts_with("crates/fqlint/") {
        return RuleSet::default();
    }
    let in_kernel_module = KERNEL_MODULE_TREES.iter().any(|t| rel.starts_with(t));
    RuleSet {
        float_escape: FLOAT_ESCAPE_FILES.contains(&rel)
            || (in_kernel_module && rel.ends_with(".rs")),
        narrowing_cast: NARROWING_CAST_TREES.iter().any(|t| rel.starts_with(t)),
        panic_path: SERVING_TREES.iter().any(|t| rel.starts_with(t)),
        lock_hygiene: SERVING_TREES.iter().any(|t| rel.starts_with(t)),
        unsafe_outside_kernels: true,
        in_kernel_module,
    }
}

/// Whether `rel` is a test/bench/example/bin/build target rather than
/// library code.
pub fn is_aux_target(rel: &str) -> bool {
    let slashed = format!("/{rel}");
    AUX_MARKERS.iter().any(|m| slashed.contains(m)) || rel.ends_with("build.rs")
}

/// The crate a workspace-relative path belongs to — everything before its
/// first `src/`, `tests/`, `benches/` or `examples/` component
/// (`crates/devtools/proptest/src/lib.rs` → `crates/devtools/proptest`) —
/// or, for the root-level `tests/` and `examples/`, that directory.
fn crate_of(rel: &str) -> &str {
    ["/src/", "/tests/", "/benches/", "/examples/"]
        .iter()
        .filter_map(|dir| rel.find(dir))
        .min()
        .map_or_else(|| rel.split('/').next().unwrap_or(rel), |at| &rel[..at])
}

/// Recursively collects every `.rs` file under `root`, skipping build
/// output, VCS metadata, fqlint's own rule fixtures and any nested
/// directory that is a Cargo workspace of its own (not this workspace's
/// code, so not this policy's to enforce). Paths come back sorted for
/// deterministic reports.
///
/// # Errors
///
/// Propagates directory-read failures.
pub fn collect_rust_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                    continue;
                }
                // fqlint's golden fixtures are deliberate rule violations.
                if path.ends_with("crates/fqlint/tests/fixtures") || declares_workspace(&path) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Runs the full analysis over the workspace at `root`.
///
/// # Errors
///
/// Propagates I/O failures walking or reading files; lexer failures are
/// collected into the report instead (they fail the run, with context).
pub fn run(root: &Path) -> std::io::Result<WorkspaceReport> {
    let mut report = WorkspaceReport::default();
    for path in collect_rust_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)?;
        report.files_scanned += 1;
        let rules = rules_for_path(&rel);
        if rules.any() {
            report.files_checked += 1;
        }
        match analyze_source(&rel, &src, rules) {
            Ok(mut analysis) => {
                report.findings.extend(analysis.findings);
                report.suppressed.extend(analysis.suppressed);
                if is_aux_target(&rel) {
                    // A test helper's `pub fn` is no public surface.
                    analysis.stats.pub_items = 0;
                }
                *report.crates.entry(crate_of(&rel).to_string()).or_default() += analysis.stats;
            }
            Err(err) => report.lex_errors.push((rel, err.to_string())),
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

/// Finds the workspace root: the nearest ancestor of `start` (inclusive)
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if declares_workspace(&d) {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Whether `dir` holds a `Cargo.toml` declaring `[workspace]`.
fn declares_workspace(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|text| text.contains("[workspace]"))
}
