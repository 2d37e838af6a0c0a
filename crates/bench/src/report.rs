//! Report formatting and result persistence for the experiment binaries.
//!
//! The repository builds without network access and therefore without
//! `serde`: a report type lists its fields through [`ToJson`] (usually via
//! the [`impl_to_json!`](crate::impl_to_json) macro) and becomes a [`Json`] tree, which the
//! workspace's one JSON writer (`fqbert_telemetry::json`) renders.

use fqbert_telemetry::json::Json;
use std::path::Path;

/// Conversion into a [`Json`] value, used by [`save_json`].
///
/// Implement via [`impl_to_json!`](crate::impl_to_json) for plain field structs; enums can
/// implement it manually (usually as a string of the variant name).
pub trait ToJson {
    /// The value as a JSON tree.
    fn to_json(&self) -> Json;
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

/// Numbers ride as `f64` (integers exact up to 2^53); the writer renders
/// non-finite floats as `null`.
macro_rules! to_json_number {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )+};
}

to_json_number!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize, f32);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::str(self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::str(self.as_str())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, ToJson::to_json)
    }
}

/// Implements [`ToJson`] for a struct by listing its fields:
/// `impl_to_json!(Row { name, accuracy });`
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::obj([$(
                    (stringify!($field), $crate::ToJson::to_json(&self.$field)),
                )+])
            }
        }
    };
}

impl ToJson for fqbert_accel::dataflow::StageKind {
    fn to_json(&self) -> Json {
        Json::str(format!("{self:?}"))
    }
}

impl_to_json!(fqbert_accel::StageTiming {
    name,
    kind,
    load_cycles,
    compute_cycles,
    load_start,
    compute_start,
    compute_end,
});

impl_to_json!(fqbert_accel::ScheduleTrace {
    stages,
    total_cycles,
    pe_busy_cycles,
    softmax_cycles,
    ln_cycles,
    dma_cycles,
    dma_stall_cycles,
    pe_critical_cycles,
});

impl_to_json!(crate::platforms::PlatformResult {
    platform,
    latency_ms,
    power_watts,
    fps_per_watt,
});

/// Renders a GitHub-flavoured markdown table.
///
/// # Panics
///
/// Panics if any row has a different number of cells than the header.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(
            row.len(),
            headers.len(),
            "every row must have {} cells",
            headers.len()
        );
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths.iter()) {
            line.push_str(&format!(" {cell:<w$} |"));
        }
        line.push('\n');
        line
    };
    out.push_str(&render_row(
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    sep.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push_str(&render_row(row, &widths));
    }
    out
}

/// Serialises `value` as JSON under `results/<name>.json` (creating
/// the directory if needed) and returns the path written.
///
/// # Errors
///
/// Returns an I/O error if the directory or file cannot be written.
pub fn save_json<T: ToJson + ?Sized>(name: &str, value: &T) -> std::io::Result<std::path::PathBuf> {
    save_json_in(Path::new("results"), name, value)
}

/// Serialises `value` as JSON to `<dir>/<name>.json` (creating the
/// directory if needed) and returns the path written. Used by bench
/// harnesses, which run with the package directory as CWD and therefore
/// resolve the workspace `results/` directory explicitly.
///
/// # Errors
///
/// Returns an I/O error if the directory or file cannot be written.
pub fn save_json_in<T: ToJson + ?Sized>(
    dir: &Path,
    name: &str,
    value: &T,
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, value.to_json().render())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_is_well_formed() {
        let table = markdown_table(
            &["config", "accuracy"],
            &[
                vec!["fp32".to_string(), "92.3".to_string()],
                vec!["w4/a8".to_string(), "91.5".to_string()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("config"));
        assert!(lines[1].starts_with("|--"));
        assert!(lines[3].contains("w4/a8"));
    }

    #[test]
    #[should_panic(expected = "every row must have")]
    fn ragged_rows_panic() {
        let _ = markdown_table(&["a", "b"], &[vec!["only one".to_string()]]);
    }

    #[test]
    fn json_strings_are_escaped_with_valid_json_sequences() {
        let render = |s: &str| s.to_json().render();
        assert_eq!(render("plain"), "\"plain\"");
        assert_eq!(render("say \"hi\"\\"), "\"say \\\"hi\\\"\\\\\"");
        assert_eq!(render("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        // Control characters must use JSON \u00XX, not Rust's \u{..}.
        assert_eq!(render("bell\u{7}"), "\"bell\\u0007\"");
        assert_eq!(render("esc\u{1b}[0m"), "\"esc\\u001b[0m\"");
    }

    #[test]
    fn json_composites_render() {
        assert_eq!(Some(1u32).to_json().render(), "1");
        assert_eq!(Option::<u32>::None.to_json().render(), "null");
        assert_eq!(f64::NAN.to_json().render(), "null");
        assert_eq!(vec![1u32, 2].to_json().render(), "[1,2]");

        struct Row {
            name: String,
            accuracy: f32,
            bits: Option<u8>,
        }
        impl_to_json!(Row {
            name,
            accuracy,
            bits
        });
        let row = Row {
            name: "w4/a8".to_string(),
            accuracy: 0.5,
            bits: None,
        };
        assert_eq!(
            row.to_json().render(),
            r#"{"accuracy":0.5,"bits":null,"name":"w4/a8"}"#
        );
    }
}
