//! `fqlint` — workspace static analysis for the fully-quantized invariant
//! and panic-free serving.
//!
//! The paper's central claim is that the inference datapath is *fully
//! quantized*, and the serving stack's claim is that edge-case input
//! degrades a request, never a worker thread. Neither property is visible
//! to `rustc` or clippy; both are one careless edit away from silently
//! regressing. This crate turns them into CI-enforced invariants with a
//! dependency-free, hand-rolled Rust lexer ([`lexer`]) and a token-stream
//! rule engine ([`rules`]) in the same offline spirit as the in-tree
//! proptest shim; the JSON report is written by `fqbert-telemetry`,
//! the dependency-free crate that holds the workspace's one JSON writer.
//!
//! Rule families (see [`rules`] for details and `README.md` for the
//! policy rationale):
//!
//! | id | meaning |
//! |----|---------|
//! | `float-escape`   | no `f32`/`f64` in the integer-datapath modules |
//! | `narrowing-cast` | no unguarded truncating `as` casts in datapath crates |
//! | `panic-path`     | no unwrap/expect/panic!/bare indexing in serving libs |
//! | `lock-hygiene`   | no poison-panics, no sends under a held lock |
//!
//! Suppressions are inline comments with a mandatory justification:
//!
//! ```text
//! // fqlint::allow(narrowing-cast): the mean of `i32`-ranged raw values
//! // is itself in `i32` range.
//! ```
//!
//! placed directly above an item (annotating the whole item) or a
//! statement, or trailing the offending line. No `float-escape` finding is
//! suppressed anywhere in the workspace: that boundary is drawn with files
//! ([`workspace`]).

pub mod lexer;
pub mod report;
pub mod rules;
pub mod workspace;

pub use lexer::{lex, LexError, TokKind, Token};
pub use report::WorkspaceReport;
pub use rules::{analyze_source, Finding, RuleId, RuleSet, Severity, SourceStats, Suppressed};
pub use workspace::{find_root, rules_for_path, run};
