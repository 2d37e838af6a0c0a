//! Golden-fixture tests: each fixture under `tests/fixtures/` is a small
//! known-bad source file, and the expected findings are the *exact*
//! `(line, rule)` multiset — so a rule that stops firing, fires twice, or
//! fires on the wrong line fails loudly, not quietly.
//!
//! The fixtures directory is excluded from the workspace walk in
//! `workspace::collect_rust_files`, so these deliberately-bad files never
//! show up in the real report.

use fqlint::{analyze_source, RuleId, RuleSet};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()))
}

/// Analyzes a fixture with every rule enabled and asserts the exact
/// sorted `(line, rule)` lists for findings and suppressions.
fn check(name: &str, expect_findings: &[(u32, RuleId)], expect_suppressed: &[(u32, RuleId)]) {
    let src = fixture(name);
    let analysis =
        analyze_source(name, &src, RuleSet::all()).unwrap_or_else(|e| panic!("{name}: {e}"));

    let mut got: Vec<(u32, RuleId)> = analysis.findings.iter().map(|f| (f.line, f.rule)).collect();
    got.sort();
    let mut want = expect_findings.to_vec();
    want.sort();
    assert_eq!(got, want, "{name} findings: {:#?}", analysis.findings);

    let mut got: Vec<(u32, RuleId)> = analysis
        .suppressed
        .iter()
        .map(|s| (s.finding.line, s.finding.rule))
        .collect();
    got.sort();
    let mut want = expect_suppressed.to_vec();
    want.sort();
    assert_eq!(got, want, "{name} suppressed: {:#?}", analysis.suppressed);

    // Every suppression must carry a non-empty justification.
    for s in &analysis.suppressed {
        assert!(
            !s.justification.is_empty(),
            "{name}: empty justification survived at line {}",
            s.finding.line
        );
    }
}

#[test]
fn float_escape_fixture() {
    use RuleId::{BadSuppression, FloatEscape};
    check(
        "float_escape.rs",
        &[
            (1, FloatEscape),     // param `f32`
            (1, FloatEscape),     // return `f32`
            (2, FloatEscape),     // literal `1.5`
            (3, FloatEscape),     // `as f64`
            (3, FloatEscape),     // `.sqrt()`
            (4, FloatEscape),     // `as f32`
            (12, FloatEscape),    // return type NOT covered by the line-13 trailing allow
            (16, BadSuppression), // missing justification
            (19, BadSuppression), // unknown rule name
            (23, FloatEscape),    // `from_f32(` — a float behind an inferred type
        ],
        &[
            (8, FloatEscape),  // item-level boundary: param `f32`
            (8, FloatEscape),  // item-level boundary: return `f32`
            (9, FloatEscape),  // item-level boundary: literal `0.5`
            (13, FloatEscape), // trailing allow on the literal's own line
        ],
    );
}

#[test]
fn narrowing_cast_fixture() {
    use RuleId::NarrowingCast;
    check(
        "narrowing.rs",
        &[
            (2, NarrowingCast),  // i64 -> i32, unguarded
            (10, NarrowingCast), // -200 does not fit i8
            (18, NarrowingCast), // `x as u8` truncates; the chained `as i32` widens and passes
        ],
        &[(26, NarrowingCast)],
    );
    // Not expected above, i.e. proven safe: `255 as i16` (literal fits),
    // `clamp(..) as i16` (range-guarded), `as i32` after `as u8` (chained
    // widening), `i8::MIN as i32` (extreme of a smaller type), and the
    // `#[cfg(test)]` module's cast (exempt).
}

#[test]
fn panic_path_fixture() {
    use RuleId::PanicPath;
    check(
        "panics.rs",
        &[
            (2, PanicPath),  // unwrap()
            (6, PanicPath),  // expect()
            (11, PanicPath), // panic!
            (13, PanicPath), // assert!
            (17, PanicPath), // xs[0]
        ],
        &[(30, PanicPath)], // annotated item: xs[xs.len() - 1]
    );
    // `vec![..]`, array literals/types, slice patterns, `debug_assert!`
    // and `unwrap_or` must not flag, and the `#[cfg(test)]` module with
    // unwrap + indexing is exempt.
}

#[test]
fn lock_hygiene_fixture() {
    use RuleId::{LockHygiene, PanicPath};
    check(
        "locks.rs",
        &[
            (9, LockHygiene),  // .lock().unwrap() poisons-panic the worker
            (9, PanicPath),    // ...and is also a plain unwrap
            (14, LockHygiene), // send while `state` guard is live
        ],
        &[],
    );
    // send-after-drop, and a send after the guard's block closed, are
    // clean; the `drop(state)` / inner-block scoping is what's under test.
}

#[test]
fn unsafe_fixture() {
    use RuleId::UnsafeOutsideKernels;
    check(
        "unsafe_code.rs",
        &[
            (2, UnsafeOutsideKernels), // unsafe block, no justification
            (5, UnsafeOutsideKernels), // unsafe fn, no justification
        ],
        &[
            (12, UnsafeOutsideKernels), // item-level boundary comment
            (16, UnsafeOutsideKernels), // trailing allow on the line
        ],
    );
    // The `#[cfg(test)]` module's unsafe block is exempt.
}

#[test]
fn unsafe_rule_distinguishes_kernel_modules() {
    // Inside a designated kernel module the same `unsafe` tokens fire with
    // a must-justify message rather than a forbidden-outright one, and the
    // justified occurrences suppress identically.
    let src = fixture("unsafe_code.rs");
    let in_kernels = RuleSet {
        in_kernel_module: true,
        ..RuleSet::all()
    };
    let analysis = analyze_source("unsafe_code.rs", &src, in_kernels).expect("analyze");
    let lines: Vec<u32> = analysis.findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![2, 5]);
    for f in &analysis.findings {
        assert!(
            f.message.contains("must carry"),
            "kernel-module message should demand justification: {}",
            f.message
        );
    }
    let outside = analyze_source("unsafe_code.rs", &src, RuleSet::all()).expect("analyze");
    for f in &outside.findings {
        assert!(
            f.message.contains("outside the designated"),
            "non-kernel message should forbid unsafe outright: {}",
            f.message
        );
    }
    assert_eq!(analysis.suppressed.len(), 2);
}

#[test]
fn policy_matches_layout() {
    // The workspace policy map: which rules run where.
    // The integer/float boundary is drawn with files: from token ids to
    // the `[CLS]` codes, the integer embedding and the encoder datapath
    // are covered; conversion and the float task head, in the same module,
    // are not (and so need no suppressions).
    for integer_side in ["embedding.rs", "encoder.rs"] {
        let rs = fqlint::rules_for_path(&format!("crates/fqbert/src/int_model/{integer_side}"));
        assert!(rs.float_escape && !rs.panic_path, "{integer_side}");
    }
    for float_side in ["assemble.rs", "host.rs", "mod.rs"] {
        let rs = fqlint::rules_for_path(&format!("crates/fqbert/src/int_model/{float_side}"));
        assert!(!rs.float_escape && rs.unsafe_outside_kernels);
    }
    // `fqbert-quant` draws the same line: what a forward pass applies is
    // covered, what folds a real number into it is not.
    for applied in [
        "requant.rs",
        "softmax_lut.rs",
        "layernorm_q.rs",
        "fixedpoint.rs",
    ] {
        let rs = fqlint::rules_for_path(&format!("crates/quant/src/{applied}"));
        assert!(rs.float_escape && rs.narrowing_cast, "{applied}");
    }
    for float_side in [
        "fold.rs",
        "scheme.rs",
        "observer.rs",
        "clip.rs",
        "bias.rs",
        "lib.rs",
    ] {
        let rs = fqlint::rules_for_path(&format!("crates/quant/src/{float_side}"));
        assert!(!rs.float_escape && rs.narrowing_cast, "{float_side}");
    }

    for gemm in ["mod.rs", "attention.rs"] {
        let rs = fqlint::rules_for_path(&format!("crates/tensor/src/gemm/{gemm}"));
        assert!(rs.float_escape && rs.narrowing_cast);
        assert!(rs.unsafe_outside_kernels && !rs.in_kernel_module);
    }

    // The SIMD kernel modules: innermost integer datapath (R1 applies),
    // and the only place justified `unsafe` is legitimate.
    let rs = fqlint::rules_for_path("crates/tensor/src/gemm/kernels/x86.rs");
    assert!(rs.float_escape && rs.narrowing_cast);
    assert!(rs.unsafe_outside_kernels && rs.in_kernel_module);

    let rs = fqlint::rules_for_path("crates/tensor/src/shape.rs");
    assert!(!rs.float_escape && rs.narrowing_cast);

    let rs = fqlint::rules_for_path("crates/serve/src/queue.rs");
    assert!(rs.panic_path && rs.lock_hygiene && !rs.float_escape);

    let rs = fqlint::rules_for_path("crates/runtime/src/pool.rs");
    assert!(rs.panic_path && rs.lock_hygiene);

    // Telemetry records on every hot serving path: same panic-free and
    // lock-hygiene bar as the serving stack itself.
    let rs = fqlint::rules_for_path("crates/telemetry/src/registry.rs");
    assert!(rs.panic_path && rs.lock_hygiene && !rs.narrowing_cast);

    // R5 covers every library file; only kernel modules get the
    // must-justify variant.
    let rs = fqlint::rules_for_path("crates/serve/src/server.rs");
    assert!(rs.unsafe_outside_kernels && !rs.in_kernel_module);

    // Aux targets are exempt from everything.
    assert!(!fqlint::rules_for_path("crates/serve/tests/integration.rs").any());
    assert!(!fqlint::rules_for_path("crates/serve/src/bin/serve.rs").any());
    assert!(!fqlint::rules_for_path("crates/tensor/benches/gemm.rs").any());
}

#[test]
fn the_integer_datapath_files_are_float_free_with_no_exception() {
    // The structure, not a claim in a PR description: every file R1 covers
    // is clean *without* a suppression — there is no precedent in any of
    // them for waving a float through — and the rule is live on each, so a
    // float pasted into one is a finding.
    let root = fqlint::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let float_escapes = |rel: &str, src: &str| {
        let analysis =
            analyze_source(rel, src, fqlint::rules_for_path(rel)).unwrap_or_else(|e| panic!("{e}"));
        let is_r1 = |f: &&fqlint::Finding| f.rule == RuleId::FloatEscape;
        (
            analysis.findings.iter().filter(is_r1).count(),
            analysis
                .suppressed
                .iter()
                .map(|s| &s.finding)
                .filter(is_r1)
                .count(),
        )
    };
    for rel in fqlint::workspace::FLOAT_ESCAPE_FILES {
        let src = std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
        assert_eq!(float_escapes(rel, &src), (0, 0), "{rel}");
        let mutated = format!("{src}\nfn _m() {{ let _ = 1.0f32; }}\n");
        assert_eq!(float_escapes(rel, &mutated), (1, 0), "{rel} (mutated)");
    }
}

#[test]
fn nested_workspaces_are_not_walked() {
    // A sub-directory with its own `[workspace]` manifest (the repo's
    // `benchmark/`) is someone else's code: its files are neither checked
    // nor counted. The same tree without that manifest is walked, so the
    // skip is what removes the finding.
    let root = std::env::temp_dir().join(format!("fqlint_nested_ws_{}", std::process::id()));
    let nested = root.join("nested");
    std::fs::create_dir_all(root.join("src")).expect("root src");
    std::fs::create_dir_all(nested.join("src")).expect("nested src");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("root manifest");
    std::fs::write(root.join("src/lib.rs"), "pub fn ok() {}\n").expect("root lib");
    std::fs::write(
        nested.join("src/measure.rs"),
        "pub fn peek(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
    )
    .expect("nested source");

    let report = fqlint::run(&root).expect("walk");
    assert_eq!(report.files_scanned, 2);
    let rules: Vec<RuleId> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec![RuleId::UnsafeOutsideKernels]);

    std::fs::write(nested.join("Cargo.toml"), "[package]\n\n[workspace]\n").expect("manifest");
    let report = fqlint::run(&root).expect("walk");
    assert_eq!(report.files_scanned, 1);
    assert!(report.findings.is_empty(), "{:#?}", report.findings);

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn source_stats_and_the_json_report_carry_per_crate_sizes() {
    let src = "\
//! A module doc line is not code.

/// Nor is an item doc.
pub struct Shape {
    pub rows: usize, // a field is not an item
}

pub(crate) fn hidden() {}
pub use std::fmt; /* nor is a re-export */

impl Shape {
    // fqlint::allow(panic-path): the caller checked the length.
    pub const fn first(xs: &[u8]) -> u8 {
        xs[0]
    }
}

#[cfg(test)]
mod tests {
    pub fn helper() {}
}
";
    let analysis = analyze_source("crates/x/src/lib.rs", src, RuleSet::all()).expect("lexes");
    assert_eq!(analysis.stats.code_lines, 14);
    assert_eq!(analysis.stats.pub_items, 2, "`Shape` and `first`");
    assert_eq!(analysis.stats.allows, 1);
    // Sizes are counted even where no rule runs; allow comments are not.
    let unruled = analyze_source("x.rs", src, RuleSet::default()).expect("lexes");
    assert_eq!(unruled.stats.code_lines, 14);
    assert_eq!(unruled.stats.allows, 0);

    // The walk sums them per crate, drops a test helper's `pub fn`, and the
    // JSON report — written by the workspace's one writer — re-parses.
    let root = std::env::temp_dir().join(format!("fqlint_stats_{}", std::process::id()));
    for dir in ["crates/x/src", "crates/x/tests", "tests"] {
        std::fs::create_dir_all(root.join(dir)).expect("dirs");
    }
    std::fs::write(root.join("crates/x/src/lib.rs"), src).expect("lib");
    std::fs::write(root.join("crates/x/tests/t.rs"), "pub fn common() {}\n").expect("test");
    std::fs::write(root.join("tests/it.rs"), "fn main() {\n}\n").expect("root test");
    let report = fqlint::run(&root).expect("walk");
    std::fs::remove_dir_all(&root).ok();

    let sizes: Vec<(&str, usize, usize)> = report
        .crates
        .iter()
        .map(|(name, s)| (name.as_str(), s.code_lines, s.pub_items))
        .collect();
    assert_eq!(sizes, vec![("crates/x", 15, 2), ("tests", 2, 0)]);
    let json = fqbert_telemetry::json::parse(report.render_json().trim()).expect("valid JSON");
    let x = json
        .get("crates")
        .and_then(|c| c.get("crates/x"))
        .expect("crate entry");
    assert_eq!(x.get("code_lines").and_then(|v| v.as_f64()), Some(15.0));
    assert_eq!(x.get("pub_items").and_then(|v| v.as_f64()), Some(2.0));
    assert!(report
        .render_human()
        .contains("17 code line(s), 2 pub item(s)"));
}
