//! Field tables: a telemetry record names each field once more, as a
//! [`Field`] row of a table beside its struct, and every view is written
//! from the rows — the `mesh:` line, the JSON documents, the Prometheus
//! text and the ring words of `super::ring`. Showing a field in a view is
//! adding or extending its row.

use super::ABSENT;
use std::fmt::Display;

/// What a row reads from its record.
#[derive(Debug)]
pub(crate) enum Value<'a> {
    Num(u64),
    /// One number per name: a JSON object, `key_name=` pairs on the
    /// `mesh:` line, a Prometheus family labelled by name.
    Named(&'static [&'static str], &'a [u64]),
    /// A JSON value the row renders itself (JSON documents only).
    Json(String),
}

/// One field of a record `R`.
pub(crate) struct Field<R> {
    /// The JSON member and `mesh:` key (`""`: in neither).
    pub(crate) key: &'static str,
    pub(crate) get: fn(&R) -> Value<'_>,
    /// [`ABSENT`] means the host offers no such reading: `null` in JSON,
    /// no Prometheus series.
    pub(crate) nullable: bool,
    pub(crate) prom: Series,
    /// Place on the `mesh:` line (0: not on it).
    pub(crate) line: u8,
    /// Reads the field back from its ring words (ring records only).
    pub(crate) set: Option<fn(&mut R, &[u64])>,
}

impl<R> Field<R> {
    /// What a [`row!`] leaves unnamed.
    pub(crate) const BLANK: Field<R> = Field {
        key: "",
        get: |_| unreachable!("every row names its get"),
        nullable: false,
        prom: Series::NONE,
        line: 0,
        set: None,
    };
}

/// `row!(key: "…", get: |r| …, …)`: a [`Field`] with the members named.
macro_rules! row {
    ($($member:ident: $value:expr),* $(,)?) => {
        $crate::telemetry::fields::Field { $($member: $value,)* ..$crate::telemetry::fields::Field::BLANK }
    };
}

/// A row showing a number, keyed by its own name: a field
/// (`num!(live_bytes)`), a field under another key
/// (`num!(pairs_meshed = spans_meshed)`) or a method
/// (`num!(heap_bytes())`). More `row!` members may follow.
macro_rules! num {
    ($f:ident() $(, $member:ident: $value:expr)* $(,)?) => {
        $crate::telemetry::fields::num!(@ stringify!($f), |r| r.$f() $(, $member: $value)*)
    };
    ($key:ident = $f:ident $(, $member:ident: $value:expr)* $(,)?) => {
        $crate::telemetry::fields::num!(@ stringify!($key), |r| r.$f $(, $member: $value)*)
    };
    ($f:ident $(, $member:ident: $value:expr)* $(,)?) => {
        $crate::telemetry::fields::num!(@ stringify!($f), |r| r.$f $(, $member: $value)*)
    };
    (@ $key:expr, |$r:ident| $read:expr $(, $member:ident: $value:expr)*) => {
        $crate::telemetry::fields::row!(key: $key,
            get: |$r| $crate::telemetry::fields::Value::Num($read as u64) $(, $member: $value)*)
    };
}

/// A `u64` field of a ring record, as [`num!`], read back from its word.
macro_rules! word {
    ($f:ident $(, $member:ident: $value:expr)* $(,)?) => {
        $crate::telemetry::fields::num!($f, set: Some(|r, w| r.$f = w[0]) $(, $member: $value)*)
    };
}

pub(crate) use {num, row, word};

/// A field's Prometheus series.
pub(crate) struct Series {
    name: &'static str,
    kind: &'static str,
    help: &'static str,
    /// The sample text of a value.
    text: fn(u64) -> String,
    /// The label a [`Value::Named`] field's names go under.
    label: &'static str,
    /// A deprecation notice printed above the headers.
    eol: &'static str,
}

pub(crate) const fn counter(name: &'static str, help: &'static str) -> Series {
    Series { name, kind: "counter", help, ..Series::NONE }
}

pub(crate) const fn gauge(name: &'static str, help: &'static str) -> Series {
    Series { name, kind: "gauge", help, ..Series::NONE }
}

impl Series {
    /// Not exported.
    pub(crate) const NONE: Series =
        Series { name: "", kind: "", help: "", text: |v| v.to_string(), label: "", eol: "" };

    pub(crate) const fn by(self, label: &'static str) -> Series {
        Series { label, ..self }
    }

    /// Milliseconds exported as seconds.
    pub(crate) const fn ms_as_seconds(self) -> Series {
        Series { text: |ms| seconds(ms.saturating_mul(1_000_000)), ..self }
    }

    /// Thousandths of a percent exported as a percentage.
    pub(crate) const fn percent(self) -> Series {
        Series { text: |m| format!("{}.{:03}", m / 1000, m % 1000), ..self }
    }

    pub(crate) const fn eol(self, notice: &'static str) -> Series {
        Series { eol: notice, ..self }
    }
}

/// Formats nanoseconds as a Prometheus seconds value (plain decimal;
/// Rust's `f64` `Display` never uses exponent notation).
pub(crate) fn seconds(ns: u64) -> String {
    format!("{}", ns as f64 / 1e9)
}

/// Appends the `# HELP` and `# TYPE` headers of a Prometheus family.
pub(crate) fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// Appends one Prometheus sample with its headers.
pub(crate) fn metric(out: &mut String, name: &str, kind: &str, help: &str, value: impl Display) {
    header(out, name, kind, help);
    out.push_str(&format!("{name} {value}\n"));
}

/// The exported rows of `r` as Prometheus text, in row order.
pub(crate) fn prom<R>(out: &mut String, rows: &[Field<R>], r: &R) {
    for (f, s) in rows.iter().map(|f| (f, &f.prom)).filter(|(_, s)| !s.name.is_empty()) {
        match (f.get)(r) {
            Value::Num(v) if f.nullable && v == ABSENT => {}
            Value::Num(v) => {
                out.push_str(s.eol);
                metric(out, s.name, s.kind, s.help, (s.text)(v));
            }
            Value::Named(names, values) => {
                header(out, s.name, s.kind, s.help);
                for (n, v) in names.iter().zip(values) {
                    out.push_str(&format!("{}{{{}=\"{n}\"}} {v}\n", s.name, s.label));
                }
            }
            v => unreachable!("no Prometheus form: {v:?}"),
        }
    }
}

/// ` key=value` for every row with a line place, in place order.
pub(crate) fn kv_line<'a, R: 'a>(out: &mut String, rows: impl Iterator<Item = &'a Field<R>>, r: &R) {
    let mut on_line: Vec<&Field<R>> = rows.filter(|f| f.line > 0).collect();
    on_line.sort_by_key(|f| f.line);
    for f in on_line {
        match (f.get)(r) {
            Value::Num(v) => out.push_str(&format!(" {}={v}", f.key)),
            Value::Named(names, values) => {
                for (n, v) in names.iter().zip(values) {
                    out.push_str(&format!(" {}_{n}={v}", f.key));
                }
            }
            v => unreachable!("no mesh: line form: {v:?}"),
        }
    }
}

/// Ring words a row's value takes.
fn width(v: &Value) -> usize {
    if let Value::Named(_, values) = v { values.len() } else { 1 }
}

/// `r` as ring words, row by row.
pub(crate) fn to_words<R, const W: usize>(rows: &[Field<R>], r: &R) -> [u64; W] {
    let (mut words, mut at) = ([0; W], 0);
    for v in rows.iter().map(|f| (f.get)(r)) {
        match v {
            Value::Num(n) => words[at] = n,
            Value::Named(_, values) => words[at..at + values.len()].copy_from_slice(values),
            ref v => unreachable!("not ring words: {v:?}"),
        }
        at += width(&v);
    }
    debug_assert_eq!(at, W, "the rows fill the record");
    words
}

/// The record [`to_words`] wrote as `words`.
pub(crate) fn from_words<R: Default, const W: usize>(rows: &[Field<R>], words: [u64; W]) -> R {
    let (mut r, mut at) = (R::default(), 0);
    for f in rows {
        let n = width(&(f.get)(&r));
        (f.set.expect("ring rows read back"))(&mut r, &words[at..at + n]);
        at += n;
    }
    r
}

/// The keyed rows of `r` as JSON members: `"key":value`, comma-joined.
pub(crate) fn members<R>(rows: &[Field<R>], r: &R) -> String {
    let value = |f: &Field<R>| match (f.get)(r) {
        Value::Num(v) if f.nullable && v == ABSENT => "null".to_string(),
        Value::Num(v) => v.to_string(),
        Value::Json(json) => json,
        Value::Named(names, values) => {
            let named: Vec<String> = names.iter().zip(values).map(|(n, v)| format!("\"{n}\":{v}")).collect();
            format!("{{{}}}", named.join(","))
        }
    };
    let keyed: Vec<String> =
        rows.iter().filter(|f| !f.key.is_empty()).map(|f| format!("\"{}\":{}", f.key, value(f))).collect();
    keyed.join(",")
}

/// The keyed rows of `r` as one JSON object.
pub(crate) fn object<R>(rows: &[Field<R>], r: &R) -> String {
    format!("{{{}}}", members(rows, r))
}

/// Rendered JSON `items` as one array.
pub(crate) fn array(items: impl Iterator<Item = String>) -> String {
    format!("[{}]", items.collect::<Vec<_>>().join(","))
}
