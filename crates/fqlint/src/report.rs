//! Human and machine-readable rendering of an analysis run.
//!
//! The JSON report is built as a `fqbert_telemetry::json::Json` tree and
//! rendered by the workspace's one JSON writer (the workspace builds fully
//! offline, no serde); the format is stable and consumed by the CI artifact
//! upload.

use crate::rules::{Finding, RuleId, SourceStats, Suppressed};
use fqbert_telemetry::json::Json;
use std::collections::BTreeMap;

/// Outcome of analysing the whole workspace.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// Workspace-relative paths of every `.rs` file the lexer parsed.
    pub files_scanned: usize,
    /// Files each rule family actually ran on.
    pub files_checked: usize,
    /// Unsuppressed findings, ordered by (file, line).
    pub findings: Vec<Finding>,
    /// Findings silenced by justified `fqlint::allow` comments.
    pub suppressed: Vec<Suppressed>,
    /// Files the lexer failed on, with the error message. Always a hard
    /// failure: the tool must be able to read the whole workspace.
    pub lex_errors: Vec<(String, String)>,
    /// Source size per crate (`crates/serve`, …; the root-level `tests` and
    /// `examples` directories count as one entry each), over every scanned
    /// file.
    pub crates: BTreeMap<String, SourceStats>,
}

impl WorkspaceReport {
    /// Whether the run found nothing wrong (no findings, no lexer errors).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.lex_errors.is_empty()
    }

    /// Finding counts per rule name, including zeroes for silent rules.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for rule in RuleId::ALL {
            counts.insert(rule.name(), 0);
        }
        for finding in &self.findings {
            *counts.entry(finding.rule.name()).or_insert(0) += 1;
        }
        counts
    }

    /// Renders the human-readable report.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for (file, err) in &self.lex_errors {
            out.push_str(&format!("error[lexer]: {file}: {err}\n"));
        }
        for finding in &self.findings {
            out.push_str(&format!(
                "{}[{}]: {}:{}: {}\n",
                finding.rule.severity().name(),
                finding.rule.name(),
                finding.file,
                finding.line,
                finding.message
            ));
        }
        let mut total = SourceStats::default();
        for (name, stats) in &self.crates {
            out.push_str(&format!("size: {name}: {stats}\n"));
            total += *stats;
        }
        out.push_str(&format!(
            "fqlint: {} file(s) scanned, {} checked by rules; {} finding(s), \
             {} suppressed with justification, {} lexer error(s); {total}\n",
            self.files_scanned,
            self.files_checked,
            self.findings.len(),
            self.suppressed.len(),
            self.lex_errors.len()
        ));
        out
    }

    /// Renders the machine-readable JSON report (one line, keys sorted).
    pub fn render_json(&self) -> String {
        let num = |n: usize| Json::Num(n as f64);
        let summary = self
            .counts()
            .into_iter()
            .map(|(rule, count)| (rule.to_string(), num(count)))
            .collect();
        let crates = self
            .crates
            .iter()
            .map(|(name, stats)| {
                let stats = Json::obj([
                    ("code_lines", num(stats.code_lines)),
                    ("pub_items", num(stats.pub_items)),
                    ("allows", num(stats.allows)),
                ]);
                (name.clone(), stats)
            })
            .collect();
        let located = |f: &Finding| {
            [
                ("file", Json::str(&f.file)),
                ("line", Json::Num(f64::from(f.line))),
                ("rule", Json::str(f.rule.name())),
            ]
        };
        let findings = self.findings.iter().map(|f| {
            let detail = [
                ("severity", Json::str(f.rule.severity().name())),
                ("message", Json::str(&f.message)),
            ];
            Json::obj(located(f).into_iter().chain(detail))
        });
        let suppressed = self.suppressed.iter().map(|s| {
            let detail = [("justification", Json::str(&s.justification))];
            Json::obj(located(&s.finding).into_iter().chain(detail))
        });
        let lex_errors = self
            .lex_errors
            .iter()
            .map(|(file, err)| Json::obj([("file", Json::str(file)), ("error", Json::str(err))]));
        let mut out = Json::obj([
            ("tool", Json::str("fqlint")),
            ("format_version", Json::Num(1.0)),
            ("files_scanned", num(self.files_scanned)),
            ("files_checked", num(self.files_checked)),
            ("summary", Json::Obj(summary)),
            ("crates", Json::Obj(crates)),
            ("findings", Json::Arr(findings.collect())),
            ("suppressed", Json::Arr(suppressed.collect())),
            ("lex_errors", Json::Arr(lex_errors.collect())),
        ])
        .render();
        out.push('\n');
        out
    }
}
