//! Edge cases the lexer must not misread: raw strings, nested block
//! comments, char vs byte vs lifetime quoting, and numeric literal
//! classification — each one a way a naive scanner would misparse real
//! Rust and report phantom findings (or miss real ones hidden in code it
//! skipped as "string").

use fqlint::{lex, TokKind};

fn kinds(src: &str) -> Vec<(TokKind, String)> {
    lex(src)
        .expect("lexes")
        .into_iter()
        .map(|t| (t.kind, t.text))
        .collect()
}

fn kind_of(src: &str) -> TokKind {
    let tokens = lex(src).expect("lexes");
    assert_eq!(
        tokens.len(),
        1,
        "expected one token for {src:?}: {tokens:?}"
    );
    tokens[0].kind
}

#[test]
fn raw_strings_swallow_quotes_and_hashes() {
    // A raw string containing quotes must not terminate early — otherwise
    // its tail would be lexed as code.
    let toks = kinds(r##"let s = r#"contains "quotes" and \ backslash"#;"##);
    assert!(toks
        .iter()
        .any(|(k, t)| *k == TokKind::Str && t.contains("quotes")));
    assert_eq!(toks.last().map(|(_, t)| t.as_str()), Some(";"));

    // More hashes.
    let toks = kinds(r###"r##"inner "# still inside"##"###);
    assert_eq!(toks.len(), 1);
    assert_eq!(toks[0].0, TokKind::Str);

    // Raw byte string.
    assert_eq!(kind_of(r###"br#"bytes "q""#"###), TokKind::Str);

    // An f32 "hidden" inside a raw string is not a code token.
    let toks = kinds(r##"let s = r"f32 1.5 unwrap()";"##);
    assert!(!toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "f32"));
    assert!(!toks.iter().any(|(k, _)| *k == TokKind::Float));
}

#[test]
fn raw_identifiers_are_identifiers_not_strings() {
    let toks = kinds("let r#type = 1;");
    assert!(toks
        .iter()
        .any(|(k, t)| *k == TokKind::Ident && t == "r#type"));
}

#[test]
fn block_comments_nest() {
    let toks = kinds("a /* outer /* inner */ still comment */ b");
    let idents: Vec<&str> = toks
        .iter()
        .filter(|(k, _)| *k == TokKind::Ident)
        .map(|(_, t)| t.as_str())
        .collect();
    assert_eq!(idents, ["a", "b"]);
    // Unterminated nesting is an error, not a hang or a silent truncation.
    assert!(lex("/* /* */").is_err());
}

#[test]
fn char_literals_vs_lifetimes() {
    assert_eq!(kind_of("'a'"), TokKind::Char);
    assert_eq!(kind_of("'_'"), TokKind::Char);
    assert_eq!(kind_of(r"'\n'"), TokKind::Char);
    assert_eq!(kind_of(r"'\''"), TokKind::Char);
    assert_eq!(kind_of(r"'\u{1F600}'"), TokKind::Char);
    assert_eq!(kind_of("'static"), TokKind::Lifetime);
    assert_eq!(kind_of("'a"), TokKind::Lifetime);
    assert_eq!(kind_of("'_"), TokKind::Lifetime);

    // In context: generics with lifetimes followed by char literals.
    let toks = kinds("fn f<'a>(x: &'a str) -> char { 'x' }");
    let lifetimes = toks.iter().filter(|(k, _)| *k == TokKind::Lifetime).count();
    let chars = toks.iter().filter(|(k, _)| *k == TokKind::Char).count();
    assert_eq!((lifetimes, chars), (2, 1));
}

#[test]
fn byte_literals_and_byte_strings() {
    assert_eq!(kind_of("b'x'"), TokKind::Char);
    assert_eq!(kind_of(r"b'\n'"), TokKind::Char);
    assert_eq!(kind_of(r#"b"bytes""#), TokKind::Str);
    // `b` alone is an identifier.
    assert_eq!(kind_of("b"), TokKind::Ident);
}

#[test]
fn numeric_classification() {
    assert_eq!(kind_of("1"), TokKind::Int);
    assert_eq!(kind_of("1_000u32"), TokKind::Int);
    assert_eq!(kind_of("0xff"), TokKind::Int);
    assert_eq!(kind_of("0o77"), TokKind::Int);
    assert_eq!(kind_of("0b1010i64"), TokKind::Int);
    assert_eq!(kind_of("1.0"), TokKind::Float);
    assert_eq!(kind_of("1."), TokKind::Float);
    assert_eq!(kind_of("1e5"), TokKind::Float);
    assert_eq!(kind_of("2.5E-3"), TokKind::Float);
    assert_eq!(kind_of("1f32"), TokKind::Float);
    assert_eq!(kind_of("3f64"), TokKind::Float);

    // Ranges and method calls on integers are not floats.
    let toks = kinds("0..10");
    assert_eq!(toks[0].0, TokKind::Int);
    let toks = kinds("1.max(2)");
    assert_eq!(toks[0].0, TokKind::Int);

    // Values for the narrowing-cast fit check.
    let toks = lex("255 256 0xffff_ffff 127i8").expect("lexes");
    let values: Vec<Option<u128>> = toks.iter().map(|t| t.int_value()).collect();
    assert_eq!(values, [Some(255), Some(256), Some(0xffff_ffff), Some(127)]);
}

#[test]
fn strings_with_escapes_do_not_leak_code() {
    let toks = kinds(r#"let s = "escaped \" quote and \\ and \u{41}"; x"#);
    assert_eq!(
        toks.iter().filter(|(k, _)| *k == TokKind::Str).count(),
        1,
        "{toks:?}"
    );
    assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "x"));
    assert!(lex(r#""unterminated"#).is_err());
}

#[test]
fn line_numbers_track_every_token_form() {
    let src = "a\n\"two\nlines\"\nb /* c\nd */ e\nf";
    let toks = lex(src).expect("lexes");
    let line_of = |text: &str| {
        toks.iter()
            .find(|t| t.text == text)
            .map(|t| t.line)
            .expect("token present")
    };
    assert_eq!(line_of("a"), 1);
    assert_eq!(line_of("\"two\nlines\""), 2); // string starts on line 2
    assert_eq!(line_of("b"), 4);
    assert_eq!(line_of("e"), 5); // after the multi-line block comment
    assert_eq!(line_of("f"), 6);
}

#[test]
fn every_workspace_file_lexes() {
    // The acceptance bar in one test: the lexer must parse every
    // `.rs` file in this repository without error.
    let root = fqlint::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let files = fqlint::workspace::collect_rust_files(&root).expect("walk workspace");
    assert!(files.len() > 50, "workspace walk found too few files");
    for file in files {
        let src = std::fs::read_to_string(&file).expect("read source");
        if let Err(err) = lex(&src) {
            panic!("lexer failed on {}: {err}", file.display());
        }
    }
}
