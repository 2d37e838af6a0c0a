//! The token-stream rule engine: four rule families over lexed Rust.
//!
//! * **R1 `float-escape`** — `f32`/`f64` idents, idents ending in `_f32` /
//!   `_f64` (a `from_f32(x, 16)` call carries a float behind an inferred
//!   type), float literals and float-only methods inside the designated
//!   integer-datapath modules.
//! * **R2 `narrowing-cast`** — `as` casts to integer types of ≤ 32 bits in
//!   the datapath crates, unless the source is a literal that provably
//!   fits or the value was `clamp`ed immediately before the cast.
//! * **R3 `panic-path`** — `unwrap`/`expect`, panicking macros and bare
//!   slice/array indexing in serving-stack library code.
//! * **R4 `lock-hygiene`** — `.lock().unwrap()`/`.lock().expect(...)`
//!   (a poisoned mutex panics the whole worker) and channel sends issued
//!   while a lock guard is live.
//! * **R5 `unsafe-outside-kernels`** — any `unsafe` keyword. Outside the
//!   designated SIMD kernel modules it is a hard violation; inside them
//!   every occurrence must still carry a justified allow comment, so the
//!   audit trail of soundness arguments stays complete.
//!
//! Findings are suppressed by `// fqlint::allow(rule): justification`
//! comments (justification mandatory). A trailing comment suppresses its
//! own line; a standalone comment before an item (`fn`, `impl`, `struct`,
//! ...) suppresses the rule for the whole item — that is the "annotated
//! boundary" form, which the SIMD kernel modules use on each function that
//! wraps `unsafe` (no `float-escape` finding is suppressed anywhere: that
//! boundary is drawn with files, see `workspace.rs`); anywhere else a
//! standalone comment covers the following line. `#[cfg(test)]` items, and
//! files under `tests/`, `benches/`, `examples/` or `src/bin/`, are exempt
//! from the library-code rules.

use crate::lexer::{lex, LexError, TokKind, Token};

/// Stable identifier of one rule family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// R1: float type/literal/method in an integer-datapath module.
    FloatEscape,
    /// R2: truncating `as` cast in a datapath crate.
    NarrowingCast,
    /// R3: panic source in serving-stack library code.
    PanicPath,
    /// R4: lock poisoning panic or a send under a held lock.
    LockHygiene,
    /// R5: `unsafe` code outside the designated kernel modules, or
    /// unjustified `unsafe` inside them.
    UnsafeOutsideKernels,
    /// A malformed `fqlint::allow` comment (unknown rule or missing
    /// justification). Not suppressible.
    BadSuppression,
}

impl RuleId {
    /// All suppressible rules, in severity order.
    pub const ALL: [RuleId; 5] = [
        RuleId::FloatEscape,
        RuleId::NarrowingCast,
        RuleId::PanicPath,
        RuleId::LockHygiene,
        RuleId::UnsafeOutsideKernels,
    ];

    /// The spelling used in reports and `fqlint::allow(...)` comments.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::FloatEscape => "float-escape",
            RuleId::NarrowingCast => "narrowing-cast",
            RuleId::PanicPath => "panic-path",
            RuleId::LockHygiene => "lock-hygiene",
            RuleId::UnsafeOutsideKernels => "unsafe-outside-kernels",
            RuleId::BadSuppression => "bad-suppression",
        }
    }

    /// Parses a rule name as spelled in an allow comment.
    pub fn parse(name: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.name() == name)
    }

    /// Report severity of this rule's findings.
    pub fn severity(self) -> Severity {
        match self {
            RuleId::FloatEscape
            | RuleId::PanicPath
            | RuleId::UnsafeOutsideKernels
            | RuleId::BadSuppression => Severity::Error,
            RuleId::NarrowingCast | RuleId::LockHygiene => Severity::Warning,
        }
    }
}

/// How serious a finding is. `--deny` fails the run on *any* unsuppressed
/// finding regardless of severity; the distinction is for human triage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Invariant violation.
    Error,
    /// Latent hazard that needs widening, a guard, or a justification.
    Warning,
}

impl Severity {
    /// The spelling used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Which rule fired.
    pub rule: RuleId,
    /// Human explanation of the violation.
    pub message: String,
}

/// A finding that an `fqlint::allow` comment silenced, kept for the report
/// so suppressions stay auditable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppressed {
    /// The silenced finding.
    pub finding: Finding,
    /// The justification written in the allow comment.
    pub justification: String,
}

/// How much source there is — the numbers the roadmap's "design" aim
/// tracks, per file here and summed per crate in the report.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SourceStats {
    /// Lines carrying at least one code token (blank and comment-only
    /// lines do not count; a multi-line literal counts once).
    pub code_lines: usize,
    /// `pub` items (functions, types, traits, modules, constants — not
    /// fields, re-exports or `pub(crate)`) outside `#[cfg(test)]` items.
    pub pub_items: usize,
    /// Well-formed `fqlint::allow` directives in files some rule runs on.
    pub allows: usize,
}

impl std::fmt::Display for SourceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} code line(s), {} pub item(s), {} allow(s)",
            self.code_lines, self.pub_items, self.allows
        )
    }
}

impl std::ops::AddAssign for SourceStats {
    fn add_assign(&mut self, other: Self) {
        self.code_lines += other.code_lines;
        self.pub_items += other.pub_items;
        self.allows += other.allows;
    }
}

/// Outcome of analysing one file.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Unsuppressed findings.
    pub findings: Vec<Finding>,
    /// Findings silenced by a justified allow comment.
    pub suppressed: Vec<Suppressed>,
    /// Size of the file, counted whether or not any rule runs on it.
    pub stats: SourceStats,
}

/// Which rule families to run on a file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleSet {
    /// Run R1 float-escape.
    pub float_escape: bool,
    /// Run R2 narrowing-cast.
    pub narrowing_cast: bool,
    /// Run R3 panic-path.
    pub panic_path: bool,
    /// Run R4 lock-hygiene.
    pub lock_hygiene: bool,
    /// Run R5 unsafe-outside-kernels.
    pub unsafe_outside_kernels: bool,
    /// Whether the file under analysis is inside a designated kernel
    /// module tree, where justified `unsafe` is legitimate (R5 then
    /// demands the justification rather than forbidding `unsafe`).
    pub in_kernel_module: bool,
}

impl RuleSet {
    /// Every rule family enabled (used by fixture tests).
    pub fn all() -> Self {
        Self {
            float_escape: true,
            narrowing_cast: true,
            panic_path: true,
            lock_hygiene: true,
            unsafe_outside_kernels: true,
            in_kernel_module: false,
        }
    }

    /// Whether any rule is enabled.
    pub fn any(self) -> bool {
        self.float_escape
            || self.narrowing_cast
            || self.panic_path
            || self.lock_hygiene
            || self.unsafe_outside_kernels
    }
}

/// Integer types an `as` cast can truncate into (≤ 32 bits). Casts to
/// 64-bit and pointer-sized types are not flagged: every accumulator in
/// this workspace is at most `i64`-valued via `i128` products, and
/// `usize`/`isize` are 64-bit on every supported target.
const NARROW_INT_TYPES: [(&str, u32, bool); 6] = [
    ("i8", 8, true),
    ("u8", 8, false),
    ("i16", 16, true),
    ("u16", 16, false),
    ("i32", 32, true),
    ("u32", 32, false),
];

/// Methods that exist on `f32`/`f64` but not on integer types: calling one
/// proves a float value is live in the datapath.
const FLOAT_ONLY_METHODS: [&str; 22] = [
    "sqrt",
    "powf",
    "powi",
    "exp",
    "exp2",
    "exp_m1",
    "ln",
    "ln_1p",
    "log2",
    "log10",
    "floor",
    "ceil",
    "round",
    "trunc",
    "fract",
    "recip",
    "hypot",
    "to_degrees",
    "to_radians",
    "is_nan",
    "is_infinite",
    "is_finite",
];

/// Macros that unconditionally panic when reached (debug_assert* compiles
/// out of release serving builds and is exempt).
const PANIC_MACROS: [&str; 7] = [
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Keywords that can begin an item declaration; a standalone allow comment
/// directly above one of these covers the whole item.
const ITEM_KEYWORDS: [&str; 12] = [
    "pub", "fn", "struct", "enum", "union", "trait", "impl", "mod", "const", "static", "type",
    "unsafe",
];

/// Keywords that follow `pub` at the head of an item [`SourceStats`] counts.
/// A field is `pub name:`, a re-export `pub use`, a restricted item
/// `pub(...)` — none of them match.
const PUB_ITEM_KEYWORDS: [&str; 12] = [
    "fn", "struct", "enum", "union", "trait", "mod", "const", "static", "type", "unsafe", "async",
    "extern",
];

/// One parsed `fqlint::allow` directive and the line span it covers.
#[derive(Debug)]
struct Allow {
    rule: RuleId,
    justification: String,
    /// Inclusive line range the suppression applies to.
    lines: (u32, u32),
}

/// Analyses one file's source under `rules`, returning findings with
/// `file` set to `path` (workspace-relative).
///
/// # Errors
///
/// Returns the lexer error for source the lexer cannot tokenise.
pub fn analyze_source(path: &str, src: &str, rules: RuleSet) -> Result<FileAnalysis, LexError> {
    let tokens = lex(src)?;
    // Code tokens only; comments drive suppressions and nothing else.
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let test_spans = test_item_spans(&code);
    let in_tests = |line: u32| test_spans.iter().any(|(a, b)| (*a..=*b).contains(&line));

    let mut code_lines: Vec<u32> = code.iter().map(|t| t.line).collect();
    code_lines.dedup();
    let pub_items = code
        .windows(2)
        .filter(|pair| {
            pair[0].text == "pub"
                && PUB_ITEM_KEYWORDS.contains(&pair[1].text.as_str())
                && !in_tests(pair[0].line)
        })
        .count();
    let mut analysis = FileAnalysis {
        stats: SourceStats {
            code_lines: code_lines.len(),
            pub_items,
            allows: 0,
        },
        ..FileAnalysis::default()
    };
    if !rules.any() {
        return Ok(analysis);
    }
    let allows = collect_allows(path, &tokens, &code, &mut analysis.findings);
    analysis.stats.allows = allows.len();

    let mut raw: Vec<Finding> = Vec::new();
    let mut emit = |line: u32, rule: RuleId, message: String| {
        if !in_tests(line) {
            raw.push(Finding {
                file: path.to_string(),
                line,
                rule,
                message,
            });
        }
    };

    if rules.float_escape {
        scan_float_escape(&code, &mut emit);
    }
    if rules.narrowing_cast {
        scan_narrowing_cast(&code, &mut emit);
    }
    if rules.panic_path {
        scan_panic_path(&code, &mut emit);
    }
    if rules.lock_hygiene {
        scan_lock_hygiene(&code, &mut emit);
    }
    if rules.unsafe_outside_kernels {
        scan_unsafe(&code, rules.in_kernel_module, &mut emit);
    }

    for finding in raw {
        let allow = allows
            .iter()
            .find(|a| a.rule == finding.rule && (a.lines.0..=a.lines.1).contains(&finding.line));
        match allow {
            Some(allow) => analysis.suppressed.push(Suppressed {
                finding,
                justification: allow.justification.clone(),
            }),
            None => analysis.findings.push(finding),
        }
    }
    analysis.findings.sort_by_key(|f| (f.line, f.rule));
    Ok(analysis)
}

/// Parses every `fqlint::allow(rule): justification` comment and computes
/// its suppression span. Malformed directives become `bad-suppression`
/// findings (which no allow can silence).
fn collect_allows(
    path: &str,
    tokens: &[Token],
    code: &[&Token],
    findings: &mut Vec<Finding>,
) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (index, tok) in tokens.iter().enumerate() {
        if !matches!(tok.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        let Some(at) = tok.text.find("fqlint::allow") else {
            continue;
        };
        let rest = &tok.text[at + "fqlint::allow".len()..];
        let mut bad = |msg: &str| {
            findings.push(Finding {
                file: path.to_string(),
                line: tok.line,
                rule: RuleId::BadSuppression,
                message: msg.to_string(),
            });
        };
        let Some(open) = rest.find('(') else {
            bad("fqlint::allow must name a rule: `fqlint::allow(rule): justification`");
            continue;
        };
        let Some(close) = rest.find(')') else {
            bad("fqlint::allow has an unclosed rule list");
            continue;
        };
        let rule_name = rest[open + 1..close].trim();
        let Some(rule) = RuleId::parse(rule_name) else {
            bad(&format!(
                "fqlint::allow names unknown rule `{rule_name}` (known: float-escape, \
                 narrowing-cast, panic-path, lock-hygiene, unsafe-outside-kernels)"
            ));
            continue;
        };
        let after = rest[close + 1..].trim_start();
        let justification = after
            .strip_prefix(':')
            .map(|j| j.trim().trim_end_matches("*/").trim())
            .unwrap_or("");
        if justification.is_empty() {
            bad(&format!(
                "fqlint::allow({rule_name}) lacks a justification — write \
                 `fqlint::allow({rule_name}): <why this is sound>`"
            ));
            continue;
        }
        // Trailing comment (code precedes it on the same line) covers its
        // own line; a standalone comment covers the next item or line.
        let trailing = tokens[..index].iter().any(|t| {
            t.line == tok.line && !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
        });
        let lines = if trailing {
            (tok.line, tok.line)
        } else {
            standalone_span(tok.line, code)
        };
        allows.push(Allow {
            rule,
            justification: justification.to_string(),
            lines,
        });
    }
    allows
}

/// Span covered by a standalone allow comment at `line`: the entire next
/// item when one follows (skipping attributes), otherwise the next line.
fn standalone_span(line: u32, code: &[&Token]) -> (u32, u32) {
    let mut i = match code.iter().position(|t| t.line > line) {
        Some(i) => i,
        None => return (line, line + 1),
    };
    // Skip attributes (`#[...]`) between the comment and the item.
    while i < code.len() && code[i].text == "#" {
        if i + 1 < code.len() && code[i + 1].text == "[" {
            let mut depth = 0usize;
            i += 1;
            while i < code.len() {
                match code[i].text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            i += 1;
        } else {
            break;
        }
    }
    if i >= code.len() {
        return (line, line + 1);
    }
    if !ITEM_KEYWORDS.contains(&code[i].text.as_str()) {
        // Not an item: cover the whole statement that follows (a finding
        // on the continuation line of a multi-line expression still counts
        // as annotated).
        return (line, statement_end_line(code, i));
    }
    (line, item_end_line(code, i))
}

/// Last line of the statement starting at `code[start]`: the first `;` at
/// the statement's own nesting depth, or the token before the `}`/`)` that
/// closes the surrounding block.
fn statement_end_line(code: &[&Token], start: usize) -> u32 {
    let mut depth: i64 = 0;
    for tok in &code[start..] {
        match tok.text.as_str() {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                if depth == 0 {
                    return tok.line;
                }
                depth -= 1;
            }
            ";" | "," if depth == 0 => return tok.line,
            _ => {}
        }
    }
    code.last().map_or(0, |t| t.line)
}

/// Last line of the item starting at `code[start]`: the matching `}` of
/// the first item-level brace block, or the first item-level `;` if one
/// comes first. `;` inside parentheses or brackets — array types like
/// `[i16; 8]` in a signature — does not end the item.
fn item_end_line(code: &[&Token], start: usize) -> u32 {
    let mut brace_depth = 0usize;
    let mut group_depth: i64 = 0;
    let mut i = start;
    while i < code.len() {
        match code[i].text.as_str() {
            ";" if brace_depth == 0 && group_depth == 0 => return code[i].line,
            "(" | "[" => group_depth += 1,
            ")" | "]" => group_depth -= 1,
            "{" => brace_depth += 1,
            "}" => {
                brace_depth -= 1;
                if brace_depth == 0 {
                    return code[i].line;
                }
            }
            _ => {}
        }
        i += 1;
    }
    code.last().map_or(0, |t| t.line)
}

/// Line spans of `#[cfg(test)]` items (usually `mod tests { ... }`).
fn test_item_spans(code: &[&Token]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i + 5 < code.len() {
        let is_cfg_test = code[i].text == "#"
            && code[i + 1].text == "["
            && code[i + 2].text == "cfg"
            && code[i + 3].text == "("
            && code[i + 4].text == "test"
            && code[i + 5].text == ")";
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start_line = code[i].line;
        // Find the end of this attribute, skip any further attributes, then
        // measure the item that follows.
        let mut j = i + 6;
        while j < code.len() && code[j].text != "]" {
            j += 1;
        }
        j += 1;
        while j + 1 < code.len() && code[j].text == "#" && code[j + 1].text == "[" {
            let mut depth = 0usize;
            j += 1;
            while j < code.len() {
                match code[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            j += 1;
        }
        if j < code.len() {
            spans.push((start_line, item_end_line(code, j)));
        }
        i = j.max(i + 1);
    }
    spans
}

/// R1: float types, float-converting names, float literals and float-only
/// method calls.
fn scan_float_escape(code: &[&Token], emit: &mut impl FnMut(u32, RuleId, String)) {
    for (i, tok) in code.iter().enumerate() {
        match tok.kind {
            TokKind::Ident if tok.text == "f32" || tok.text == "f64" => {
                emit(
                    tok.line,
                    RuleId::FloatEscape,
                    format!("`{}` in integer-datapath module", tok.text),
                );
            }
            // `Fixed::from_f32(x, 16)`, `v.to_f64()`: no float token of its
            // own, the value's type is inferred.
            TokKind::Ident if tok.text.ends_with("_f32") || tok.text.ends_with("_f64") => {
                emit(
                    tok.line,
                    RuleId::FloatEscape,
                    format!(
                        "`{}` names a float conversion in integer-datapath module",
                        tok.text
                    ),
                );
            }
            TokKind::Ident
                if FLOAT_ONLY_METHODS.contains(&tok.text.as_str())
                    && i > 0
                    && code[i - 1].text == "."
                    && code.get(i + 1).is_some_and(|t| t.text == "(") =>
            {
                emit(
                    tok.line,
                    RuleId::FloatEscape,
                    format!(
                        "float-only method `.{}()` in integer-datapath module",
                        tok.text
                    ),
                );
            }
            TokKind::Float => {
                emit(
                    tok.line,
                    RuleId::FloatEscape,
                    format!("float literal `{}` in integer-datapath module", tok.text),
                );
            }
            _ => {}
        }
    }
}

/// Whether the integer literal `value` (with `negative` sign) fits the
/// narrow target type described by (bits, signed).
fn literal_fits(value: u128, negative: bool, bits: u32, signed: bool) -> bool {
    if negative {
        return signed && value <= 1u128 << (bits - 1);
    }
    let max = if signed {
        (1u128 << (bits - 1)) - 1
    } else {
        (1u128 << bits) - 1
    };
    value <= max
}

/// R2: `as` casts into ≤ 32-bit integer types, minus literals that fit and
/// `clamp(...)` results (two-sided range guard).
fn scan_narrowing_cast(code: &[&Token], emit: &mut impl FnMut(u32, RuleId, String)) {
    for i in 1..code.len() {
        if code[i].kind != TokKind::Ident || code[i].text != "as" {
            continue;
        }
        let Some(target) = code.get(i + 1) else {
            continue;
        };
        let Some(&(name, bits, signed)) = NARROW_INT_TYPES
            .iter()
            .find(|(name, _, _)| *name == target.text)
        else {
            continue;
        };
        let prev = code[i - 1];
        // A literal source whose value provably fits the target is safe.
        if prev.kind == TokKind::Int {
            let negative = i >= 2 && code[i - 2].text == "-";
            if prev
                .int_value()
                .is_some_and(|v| literal_fits(v, negative, bits, signed))
            {
                continue;
            }
        }
        // A chained cast from a provably-smaller type (`x as u8 as i32`)
        // widens; `char as u32` always fits.
        if prev.kind == TokKind::Ident
            && i >= 2
            && code[i - 2].text == "as"
            && widens_into(&prev.text, bits, signed)
        {
            continue;
        }
        // `i8::MIN as i32` and friends: an extreme of a provably-smaller
        // type widens into the target. (`::` lexes as two `:` tokens.)
        if (prev.text == "MIN" || prev.text == "MAX")
            && i >= 4
            && code[i - 2].text == ":"
            && code[i - 3].text == ":"
            && widens_into(&code[i - 4].text, bits, signed)
        {
            continue;
        }
        // `expr.clamp(lo, hi) as T` is range-guarded by construction.
        if prev.text == ")" {
            if let Some(open) = matching_open(code, i - 1) {
                if open >= 1 && code[open - 1].text == "clamp" {
                    continue;
                }
            }
        }
        emit(
            code[i].line,
            RuleId::NarrowingCast,
            format!(
                "narrowing `as {name}` cast — widen, range-guard (`clamp`/`try_into`), or \
                 justify with fqlint::allow"
            ),
        );
    }
}

/// Whether a value of integer type `src` always fits the narrow target
/// described by (bits, signed) — used to pass chained widening casts.
fn widens_into(src: &str, bits: u32, signed: bool) -> bool {
    if src == "char" {
        return !signed && bits == 32;
    }
    let Some(&(_, src_bits, src_signed)) =
        NARROW_INT_TYPES.iter().find(|(name, _, _)| *name == src)
    else {
        return false;
    };
    match (src_signed, signed) {
        (false, false) | (true, true) => src_bits <= bits,
        // Unsigned fits a signed target one size up.
        (false, true) => src_bits < bits,
        // Signed into unsigned never provably fits (negative wraps).
        (true, false) => false,
    }
}

/// Index of the `(` matching the `)` at `close`, if any.
fn matching_open(code: &[&Token], close: usize) -> Option<usize> {
    let mut depth = 0usize;
    for i in (0..=close).rev() {
        match code[i].text.as_str() {
            ")" => depth += 1,
            "(" => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// R3: unwrap/expect, panicking macros, and bare indexing.
fn scan_panic_path(code: &[&Token], emit: &mut impl FnMut(u32, RuleId, String)) {
    for i in 0..code.len() {
        let tok = code[i];
        if tok.kind != TokKind::Ident && tok.text != "[" {
            continue;
        }
        // `.unwrap()` / `.expect(...)` and friends.
        if matches!(
            tok.text.as_str(),
            "unwrap" | "expect" | "unwrap_err" | "expect_err"
        ) && i > 0
            && code[i - 1].text == "."
            && code.get(i + 1).is_some_and(|t| t.text == "(")
        {
            emit(
                tok.line,
                RuleId::PanicPath,
                format!("`.{}()` can panic in serving-path library code", tok.text),
            );
            continue;
        }
        // Panicking macros.
        if PANIC_MACROS.contains(&tok.text.as_str())
            && code.get(i + 1).is_some_and(|t| t.text == "!")
            && (i == 0 || code[i - 1].text != ".")
        {
            emit(
                tok.line,
                RuleId::PanicPath,
                format!(
                    "`{}!` panics when reached in serving-path library code",
                    tok.text
                ),
            );
            continue;
        }
        // Bare indexing: `expr[...]` where expr ends in an identifier,
        // call, or another index. Array literals/types/attributes have a
        // non-postfix token (or `#`) before the bracket and are not
        // flagged.
        if tok.text == "[" && i > 0 {
            let prev = code[i - 1];
            let is_postfix = matches!(prev.kind, TokKind::Ident)
                && !is_keyword_before_bracket(&prev.text)
                || prev.text == ")"
                || prev.text == "]";
            if is_postfix {
                emit(
                    tok.line,
                    RuleId::PanicPath,
                    "bare slice/array indexing can panic — use `.get(..)` or justify the \
                     bound with fqlint::allow"
                        .to_string(),
                );
            }
        }
    }
}

/// Keywords that may directly precede `[` without forming an index
/// expression (`return [..]`, `in [..]`, `else [..]`...).
fn is_keyword_before_bracket(text: &str) -> bool {
    matches!(
        text,
        "return"
            | "in"
            | "if"
            | "else"
            | "match"
            | "break"
            | "mut"
            | "dyn"
            | "as"
            | "where"
            | "let"
            | "for"
            | "loop"
            | "move"
            | "ref"
    )
}

/// R5: every `unsafe` keyword. Outside the designated kernel module trees
/// `unsafe` is forbidden outright (serving code stays safe Rust); inside
/// them each occurrence must still be annotated with a justified
/// `fqlint::allow(unsafe-outside-kernels)` comment — the finding fires
/// unconditionally and the suppression machinery turns a justified one
/// into an auditable `Suppressed` entry.
fn scan_unsafe(
    code: &[&Token],
    in_kernel_module: bool,
    emit: &mut impl FnMut(u32, RuleId, String),
) {
    for tok in code {
        if tok.kind != TokKind::Ident || tok.text != "unsafe" {
            continue;
        }
        let message = if in_kernel_module {
            "`unsafe` in a kernel module must carry a \
             `// fqlint::allow(unsafe-outside-kernels): <soundness argument>` justification"
                .to_string()
        } else {
            "`unsafe` outside the designated GEMM kernel modules — keep serving code safe \
             Rust, or move the kernel under the kernels tree"
                .to_string()
        };
        emit(tok.line, RuleId::UnsafeOutsideKernels, message);
    }
}

/// R4: `.lock().unwrap()`-style poison panics, and channel `send` calls
/// while a `let`-bound lock guard is still live in the enclosing block.
fn scan_lock_hygiene(code: &[&Token], emit: &mut impl FnMut(u32, RuleId, String)) {
    // Poison panics: .lock().unwrap() / .lock().expect(...)
    for i in 0..code.len() {
        if code[i].text == "lock"
            && i > 0
            && code[i - 1].text == "."
            && code.get(i + 1).is_some_and(|t| t.text == "(")
            && code.get(i + 2).is_some_and(|t| t.text == ")")
            && code.get(i + 3).is_some_and(|t| t.text == ".")
            && code
                .get(i + 4)
                .is_some_and(|t| t.text == "unwrap" || t.text == "expect")
        {
            emit(
                code[i].line,
                RuleId::LockHygiene,
                format!(
                    "`.lock().{}()` panics on a poisoned mutex and cascades through the \
                     worker pool — recover with `unwrap_or_else(PoisonError::into_inner)`",
                    code[i + 4].text
                ),
            );
        }
    }
    // Sends under a held guard. Track `let`-bound guards whose initializer
    // contains `.lock(`; a guard lives until its block closes or it is
    // explicitly dropped.
    let mut depth: i64 = 0;
    let mut guards: Vec<(String, i64)> = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        match code[i].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                guards.retain(|(_, d)| *d <= depth);
            }
            "let" => {
                // let [mut] NAME = ... .lock( ... ;   — the scan stops at
                // the first top-level `{` or statement end, so a guard
                // acquired inside a nested block binds that block's own
                // `let`, not this one. The token cursor does not jump:
                // nested statements are processed in their own turn.
                let mut j = i + 1;
                if code.get(j).is_some_and(|t| t.text == "mut") {
                    j += 1;
                }
                if let Some(name_tok) = code.get(j) {
                    if name_tok.kind == TokKind::Ident {
                        let mut k = j + 1;
                        let mut stmt_depth: i64 = 0;
                        let mut locks = false;
                        while k < code.len() {
                            match code[k].text.as_str() {
                                "{" if stmt_depth == 0 => break,
                                "(" | "[" | "{" => stmt_depth += 1,
                                ")" | "]" | "}" => {
                                    if stmt_depth == 0 {
                                        break;
                                    }
                                    stmt_depth -= 1;
                                }
                                ";" if stmt_depth == 0 => break,
                                // `.lock(` — or a lock-wrapping helper
                                // such as `lock_clean(` / `lock_poisoned(`
                                // whose return value is still a guard.
                                text if text.starts_with("lock")
                                    && code.get(k + 1).is_some_and(|t| t.text == "(") =>
                                {
                                    locks = true;
                                }
                                _ => {}
                            }
                            k += 1;
                        }
                        if locks {
                            guards.push((name_tok.text.clone(), depth));
                        }
                    }
                }
            }
            // drop(NAME) releases that guard.
            "drop"
                if code.get(i + 1).is_some_and(|t| t.text == "(")
                    && code.get(i + 3).is_some_and(|t| t.text == ")") =>
            {
                if let Some(name_tok) = code.get(i + 2) {
                    guards.retain(|(name, _)| *name != name_tok.text);
                }
            }
            "send"
                if i > 0
                    && code[i - 1].text == "."
                    && code.get(i + 1).is_some_and(|t| t.text == "(") =>
            {
                if let Some((name, _)) = guards.last() {
                    emit(
                        code[i].line,
                        RuleId::LockHygiene,
                        format!(
                            "channel send while lock guard `{name}` is held — deliver \
                             after releasing the lock"
                        ),
                    );
                }
            }
            _ => {}
        }
        i += 1;
    }
}
