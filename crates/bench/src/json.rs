//! Minimal JSON emission for bench artifacts.
//!
//! The CI bench-smoke step uploads sweep results (`BENCH_*.json`) as
//! workflow artifacts so the serving-perf trajectory is tracked per PR.
//! The build is offline (no serde), so this module hand-renders the tiny
//! subset of JSON the sweeps need: flat objects of numbers/strings plus
//! arrays of such objects.

use std::fmt::Write as _;

/// Version of the bench-artifact schema, stamped into every `BENCH_*.json`
/// document (see [`JsonObject::bench_header`]). Bump it whenever a field
/// is renamed, removed, or changes meaning, so downstream consumers of
/// the CI artifacts can dispatch on it instead of sniffing fields.
///
/// History: 1 = pre-versioning artifacts (no `schema_version` field);
/// 2 = adds `schema_version`, stage-time attribution, and the admission
/// audit export; 3 = the serving sweeps' rows drop wall-clock `host_us`,
/// so their artifacts are pure functions of the code; 4 = the paper bins'
/// trained rows drop wall-clock `wall_s` likewise; 5 = `table3` trains
/// nothing: it drops `quick` and `rows`, and its design rows'
/// `per_degradation` becomes `paper_per_degradation` (published values,
/// `null` for E-RNN); 6 = `table1` / `table2`'s compressed rows add
/// `control_per`, and their `degradation` is measured against it
/// (`per − control_per`) rather than against `baseline_per`; 7 =
/// `table1` / `table2` train every row from several base seeds: the
/// document adds `base_seeds`, and each row keeps its key fields, adds
/// `degradation_min` / `degradation_max` beside `degradation` (now the
/// median over seeds) and moves the rest of its fields into `seeds`, one
/// object per base seed.
pub const BENCH_SCHEMA_VERSION: i64 = 7;

/// A flat JSON object built field by field, rendered in insertion order.
#[derive(Debug, Default, Clone)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        let rendered = format!("\"{}\"", escape(value));
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: i64) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds a float field (`null` for non-finite values, which JSON
    /// cannot represent).
    pub fn num(mut self, key: &str, value: f64) -> Self {
        let rendered = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Adds a pre-rendered JSON value (e.g. an [`array()`]).
    pub fn raw(mut self, key: &str, rendered_json: String) -> Self {
        self.fields.push((key.to_string(), rendered_json));
        self
    }

    /// Renders the object as a JSON document.
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape(key), value);
        }
        out.push('}');
        out
    }
}

/// Renders pre-rendered JSON values as an array.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl JsonObject {
    /// Starts a bench artifact with the standard header fields: the
    /// bench name plus [`BENCH_SCHEMA_VERSION`]. Every `BENCH_*.json`
    /// emitter opens with this so all artifacts carry the same
    /// `schema_version`.
    pub fn bench_header(self, bench: &str) -> Self {
        self.str("bench", bench)
            .int("schema_version", BENCH_SCHEMA_VERSION)
    }

    /// Adds the standard latency-quantile fields (`<prefix>p50_us` …
    /// `<prefix>p999_us`) from a serving [`LatencySummary`](ernn_serve::LatencySummary) — the one
    /// place the bench artifacts' quantile schema is defined, so every
    /// sweep stays in sync with `ServeMetrics` (adding a quantile there
    /// means adding it here, and every artifact picks it up).
    pub fn latency(self, prefix: &str, s: &ernn_serve::LatencySummary) -> Self {
        self.num(&format!("{prefix}p50_us"), s.p50_us)
            .num(&format!("{prefix}p95_us"), s.p95_us)
            .num(&format!("{prefix}p99_us"), s.p99_us)
            .num(&format!("{prefix}p999_us"), s.p999_us)
    }
}

/// Writes a rendered JSON document as a newline-terminated bench
/// artifact and announces the path (the CI artifact-upload step globs
/// these files).
///
/// # Panics
///
/// Panics if the file cannot be written — a bench artifact silently
/// missing from CI would defeat its purpose.
pub fn write_artifact(path: &str, rendered_json: String) {
    std::fs::write(path, rendered_json + "\n").expect("write bench artifact");
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_flat_objects_in_order() {
        let obj = JsonObject::new()
            .str("bench", "sched_sweep")
            .int("devices", 4)
            .num("p99_us", 123.5);
        assert_eq!(
            obj.render(),
            r#"{"bench":"sched_sweep","devices":4,"p99_us":123.5}"#
        );
    }

    #[test]
    fn escapes_strings_and_rejects_non_finite() {
        let obj = JsonObject::new()
            .str("label", "a\"b\\c\nd")
            .num("bad", f64::NAN);
        assert_eq!(obj.render(), r#"{"label":"a\"b\\c\nd","bad":null}"#);
    }

    #[test]
    fn arrays_compose_with_objects() {
        let rows = array([
            JsonObject::new().int("i", 1).render(),
            JsonObject::new().int("i", 2).render(),
        ]);
        let doc = JsonObject::new().raw("rows", rows).render();
        assert_eq!(doc, r#"{"rows":[{"i":1},{"i":2}]}"#);
    }

    #[test]
    fn latency_helper_emits_the_quantile_schema() {
        let mut hist = ernn_serve::LatencyHistogram::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            hist.record(v);
        }
        let s = hist.summary();
        let doc = JsonObject::new().latency("", &s).render();
        for key in ["p50_us", "p95_us", "p99_us", "p999_us"] {
            assert!(doc.contains(&format!("\"{key}\"")), "{doc}");
        }
        let doc = JsonObject::new().latency("queue_", &s).render();
        assert!(doc.contains("\"queue_p999_us\""));
    }

    #[test]
    fn bench_header_stamps_the_schema_version() {
        let doc = JsonObject::new().bench_header("sched_sweep").render();
        assert_eq!(doc, r#"{"bench":"sched_sweep","schema_version":7}"#);
    }
}
