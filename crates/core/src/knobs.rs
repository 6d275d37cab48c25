//! The one knob table (§4.5's `mallctl` analog). A [`MeshConfig`] field is
//! declared once more, as a row of [`KNOBS`], and every text surface is
//! derived from the rows: `MESH_*` parsing, mesh-ctl `set` and `help`,
//! `validate()`'s range checks, and the knob tables in README.md, DESIGN.md
//! §4h and the rustdoc. [`parse`] is the only place a knob's text is parsed
//! and range-checked, so the surfaces cannot disagree. Adding a knob is one
//! field plus one row (`tests::every_field_has_a_row`).

use crate::config::{MeshConfig, CTL_PATH_MAX};
use crate::global_heap::GlobalHeap;
use crate::harden::HardenPolicy;
use crate::size_classes::PAGE_SIZE;
use crate::telemetry::Report;
use std::path::PathBuf;
use std::time::Duration;

/// A knob's value, typed by its row's [`Kind`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Bool(bool),
    /// Bytes, items or milliseconds.
    Num(u64),
    Fraction(f64),
    Path(PathBuf),
    Policy(HardenPolicy),
    /// An unset path or seed. It has no text form: the variable is absent.
    Unset,
}

#[rustfmt::skip]
impl Value {
    fn flag(&self) -> bool { matches!(self, Value::Bool(true)) }
    fn num(&self) -> u64 { if let Value::Num(n) = self { *n } else { 0 } }
}

/// What text a knob accepts and which values are in range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// [`parse_bool`] spellings.
    Bool,
    /// [`parse_size`] syntax, in `min..=max` (`u64::MAX`: no upper bound).
    Num { min: u64, max: u64 },
    /// A non-blank path of at most `max_len` bytes.
    Path { max_len: usize },
    /// [`parse_harden_policy`] spellings.
    Policy,
    /// A fraction in `(0, 1]`.
    Fraction,
}

/// Renders `n` with the largest `K`/`M`/`G`/`T` suffix that divides it.
fn human(n: u64) -> String {
    let suffix = [(40, 'T'), (30, 'G'), (20, 'M'), (10, 'K')];
    match suffix.into_iter().find(|(shift, _)| n != 0 && n.is_multiple_of(1u64 << shift)) {
        Some((shift, unit)) => format!("{}{unit}", n >> shift),
        None => n.to_string(),
    }
}

impl Kind {
    /// What [`parse`] expects, naming the range: the text of every
    /// refusal on every surface.
    pub fn expects(&self) -> String {
        match *self {
            Kind::Bool => "one of 1/0/true/false/yes/no/on/off".into(),
            Kind::Num { min, max: u64::MAX } => format!("a number, {} or more", human(min)),
            Kind::Num { min, max } => format!("a number in {}..={}", human(min), human(max)),
            Kind::Path { max_len } => format!("a path of 1..={max_len} bytes"),
            Kind::Policy => "one of off/count/abort (aliases: full, die, 0/1, on/off)".into(),
            Kind::Fraction => "a fraction in (0, 1]".into(),
        }
    }

    /// Whether `value` is of this kind and in range.
    pub fn admits(&self, value: &Value) -> bool {
        match (*self, value) {
            (Kind::Bool, Value::Bool(_)) | (Kind::Policy, Value::Policy(_)) => true,
            (Kind::Num { min, max }, Value::Num(n)) => (min..=max).contains(n),
            (Kind::Path { max_len }, Value::Path(p)) => (1..=max_len).contains(&p.as_os_str().len()),
            (Kind::Fraction, Value::Fraction(f)) => *f > 0.0 && *f <= 1.0,
            (Kind::Path { .. } | Kind::Num { .. }, Value::Unset) => true,
            _ => false,
        }
    }

    fn read(&self, text: &str) -> Option<Value> {
        let text = text.trim();
        Some(match self {
            Kind::Bool => Value::Bool(parse_bool(text)?),
            Kind::Num { .. } => Value::Num(parse_size(text)? as u64),
            Kind::Path { .. } => Value::Path(PathBuf::from(text)),
            Kind::Policy => Value::Policy(parse_harden_policy(text)?),
            Kind::Fraction => Value::Fraction(text.parse().ok()?),
        })
    }
}

/// Reads and writes one [`MeshConfig`] field as a [`Value`].
pub struct Field {
    pub get: fn(&MeshConfig) -> Value,
    pub set: fn(&mut MeshConfig, Value),
}

/// One knob: everything every surface needs to know about it.
pub struct Knob {
    /// Row name; the mesh-ctl `set` name for rows with a live apply.
    pub name: &'static str,
    pub env: Option<&'static str>,
    pub kind: Kind,
    /// The default as text [`parse`] accepts (`""`: unset).
    pub default: &'static str,
    pub doc: &'static str,
    /// `None`: not a [`MeshConfig`] field; `crates/abi` reads it itself.
    pub field: Option<Field>,
    /// `validate()` enforces the range only while this holds (the
    /// subsystem the knob sizes is on). Text is range-checked regardless.
    pub gate: Option<fn(&MeshConfig) -> bool>,
    /// Applies the value to a running heap. A row has one iff applying it
    /// is one atomic store on state every reader already tolerates
    /// changing between two loads; `Err` when the subsystem was built off.
    pub(crate) live: Option<Live>,
}

type Live = fn(&GlobalHeap, &Value) -> Result<(), &'static str>;

impl Knob {
    /// Range-checks `value` and applies it to a running heap.
    pub(crate) fn apply_live(&self, heap: &GlobalHeap, value: &Value) -> Result<(), String> {
        let live = self.live.ok_or("unknown knob (try: help)")?;
        if !self.kind.admits(value) {
            return Err(format!("{}: expected {}", self.name, self.kind.expects()));
        }
        live(heap, value).map_err(String::from)
    }
}

/// Parses and range-checks `text` for `row`; the error is what
/// [`Kind::expects`] says.
pub fn parse(row: &Knob, text: &str) -> Result<Value, String> {
    let value = row.kind.read(text).filter(|v| row.kind.admits(v));
    value.ok_or_else(|| format!("expected {}", row.kind.expects()))
}

/// The text [`parse`] reads `value` back from (`""` for [`Value::Unset`]).
pub fn render(value: &Value) -> String {
    match value {
        Value::Bool(b) => (*b as u8).to_string(),
        Value::Num(n) => n.to_string(),
        Value::Fraction(f) => f.to_string(),
        Value::Path(p) => p.display().to_string(),
        Value::Policy(p) => format!("{p:?}").to_ascii_lowercase(),
        Value::Unset => String::new(),
    }
}

/// The row called `name`.
pub fn find(name: &str) -> Option<&'static Knob> {
    KNOBS.iter().find(|row| row.name == name)
}

/// The cap's legacy name, read when `MESH_MAX_HEAP_BYTES` is unset or refused.
pub const LEGACY_CAP: &str = "MESH_ARENA_BYTES";

/// Retired names and why, names that share a reason next to each other:
/// ignored, whatever they say, with one stderr line per reason.
pub const RETIRED: [(&str, &str); 4] = [
    ("MESH_TRANSFER_BATCH", "there is no transfer cache to tune"),
    (
        "MESH_TRANSFER_CACHE_SLOTS",
        "there is no transfer cache to tune",
    ),
    ("MESH_BACKGROUND_MESHING", "meshing runs on the free path"),
    ("MESH_SENSE_INTERVAL_MS", "sense polls on demand"),
];

/// Reads `row` from the environment. A value [`parse`] refuses costs one
/// stderr line and is ignored.
pub fn env_value(row: &Knob) -> Option<Value> {
    let legacy = (row.name == "max_heap_bytes").then_some(LEGACY_CAP);
    [row.env, legacy].into_iter().flatten().find_map(|name| {
        let raw = std::env::var(name).ok()?;
        parse(row, &raw).map_err(|why| eprintln!("mesh: ignoring {name}={raw:?} ({why})")).ok()
    })
}

/// [`MeshConfig::apply_env`]: every row with a field and an env name.
pub(crate) fn apply_env(mut config: MeshConfig) -> MeshConfig {
    for row in &KNOBS {
        if let Some(field) = &row.field {
            if let Some(value) = env_value(row) {
                (field.set)(&mut config, value);
            }
        }
    }
    for group in RETIRED.chunk_by(|a, b| a.1 == b.1) {
        let set: Vec<&str> = group
            .iter()
            .map(|&(name, _)| name)
            .filter(|name| std::env::var_os(name).is_some())
            .collect();
        if !set.is_empty() {
            eprintln!(
                "mesh: ignoring {} (retired: {})",
                set.join(" and "),
                group[0].1
            );
        }
    }
    config
}

/// The `knobs:` line of mesh-ctl `help`: every row with a live apply.
pub(crate) fn live_names() -> Vec<&'static str> {
    KNOBS.iter().filter(|row| row.live.is_some()).map(|row| row.name).collect()
}

/// Parses a byte-size string with an optional `K`/`M`/`G`/`T` suffix
/// (case-insensitive, optionally followed by `B`/`iB`): `"64M"`,
/// `"8g"`, `"1073741824"`, `"2GiB"`. Returns `None` for anything else
/// (including overflow).
pub fn parse_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let lower = s.to_ascii_lowercase();
    let body = lower
        .strip_suffix("ib")
        .or_else(|| lower.strip_suffix('b'))
        .unwrap_or(&lower);
    let (digits, shift) = match body.as_bytes().last()? {
        b'k' => (&body[..body.len() - 1], 10),
        b'm' => (&body[..body.len() - 1], 20),
        b'g' => (&body[..body.len() - 1], 30),
        b't' => (&body[..body.len() - 1], 40),
        b'0'..=b'9' => (body, 0),
        _ => return None,
    };
    let n: usize = digits.trim().parse().ok()?;
    n.checked_shl(shift).filter(|v| v >> shift == n)
}

/// Parses a boolean knob: `1`/`true`/`yes`/`on` and `0`/`false`/`no`/`off`
/// (case-insensitive). Returns `None` for anything else.
pub fn parse_bool(s: &str) -> Option<bool> {
    match s.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" | "on" => Some(true),
        "0" | "false" | "no" | "off" => Some(false),
        _ => None,
    }
}

/// Parses a `MESH_HARDEN` policy value: `off`/`0`/`false`/`no`,
/// `count`/`counts`/`1`/`true`/`yes`/`on`/`full`, or `abort`/`die`.
pub fn parse_harden_policy(s: &str) -> Option<HardenPolicy> {
    match s.trim().to_ascii_lowercase().as_str() {
        "off" | "0" | "false" | "no" => Some(HardenPolicy::Off),
        "count" | "counts" | "1" | "true" | "yes" | "on" | "full" => Some(HardenPolicy::Count),
        "abort" | "die" => Some(HardenPolicy::Abort),
        _ => None,
    }
}

/// `get`/`set` for the field shapes: a flag, a `usize`, an optional
/// interval in ms where 0 = off (`None`), an optional path.
#[rustfmt::skip]
macro_rules! field {
    (bool $($f:ident).+) => { Some(Field { get: |c| Value::Bool(c.$($f).+), set: |c, v| c.$($f).+ = v.flag() }) };
    (num $($f:ident).+) => { Some(Field {
        get: |c| Value::Num(c.$($f).+ as u64),
        set: |c, v| c.$($f).+ = v.num() as usize,
    }) };
    (off_or_ms $f:ident) => { Some(Field {
        get: |c| Value::Num(c.$f.map_or(0, |d| d.as_millis() as u64)),
        set: |c, v| c.$f = Some(Duration::from_millis(v.num())).filter(|d| !d.is_zero()),
    }) };
    (path $f:ident) => { Some(Field {
        get: |c| c.$f.clone().map_or(Value::Unset, Value::Path),
        set: |c, v| c.$f = if let Value::Path(p) = v { Some(p) } else { None },
    }) };
}

/// One row; `gate:` and `live:` are optional and come last, in that order.
#[rustfmt::skip]
macro_rules! knob {
    ($name:literal, $env:expr, $kind:expr, $default:literal, $field:expr, $doc:literal
     $(, gate: $gate:expr)? $(, live: $live:expr)?) => { Knob {
        name: $name, env: $env, kind: $kind, default: $default, field: $field, doc: $doc,
        gate: knob!(@opt $($gate)?), live: knob!(@opt $($live)?),
    } };
    (@opt) => { None };
    (@opt $e:expr) => { Some($e) };
}

const FLAG: Kind = Kind::Bool;
const FILE: Kind = Kind::Path { max_len: 4095 };
const ANY: Kind = Kind::Num { min: 0, max: u64::MAX };
/// Milliseconds, up to 49 days: every consumer stores nanoseconds in a `u64`.
const MILLIS: Kind = Kind::Num { min: 0, max: u32::MAX as u64 };
/// The heap cap and both segment sizes: from the largest span up to 1T.
/// Construction allocates a page map of 8 bytes per page under the cap —
/// 16G at an 8T cap, which aborts the process — and pages are `u32`s.
const SEGMENT: Kind = Kind::Num { min: 32 * PAGE_SIZE as u64, max: 1 << 40 };

/// Every knob, in the order the tables print them.
#[rustfmt::skip]
pub static KNOBS: [Knob; 33] = [
    knob!("max_heap_bytes", Some("MESH_MAX_HEAP_BYTES"), SEGMENT, "1G", field!(num max_heap_bytes),
        "hard cap: the virtual reservation segments grow into (8G under `LD_PRELOAD`; legacy name `MESH_ARENA_BYTES`)"),
    knob!("initial_segment_bytes", Some("MESH_INITIAL_SEGMENT_BYTES"), SEGMENT, "64M",
        field!(num initial_segment_bytes), "initial segment size (clamped to the cap)"),
    knob!("segment_bytes", Some("MESH_SEGMENT_BYTES"), SEGMENT, "256M", field!(num segment_bytes),
        "growth segment size (clamped to the cap)"),
    knob!("seed", Some("MESH_SEED"), ANY, "",
        Some(Field {
            get: |c| c.seed.map_or(Value::Unset, Value::Num),
            set: |c, v| c.seed = if let Value::Num(n) = v { Some(n) } else { None },
        }),
        "fix the PRNG seed (unset: seeded from entropy)"),
    knob!("meshing", None, FLAG, "on", field!(bool meshing),
        "master switch for meshing (§6.3 \"no meshing\" when off)",
        live: |h, v| { h.rt.set_meshing(v.flag()); Ok(()) }),
    knob!("randomize", None, FLAG, "on", field!(bool randomize),
        "randomized allocation (§6.3 \"no rand\" when off)"),
    knob!("mesh_period_ms", None, MILLIS, "100",
        Some(Field {
            get: |c| Value::Num(c.mesh_period.as_millis() as u64),
            set: |c, v| c.mesh_period = Duration::from_millis(v.num()),
        }),
        "minimum interval between meshing passes, in ms (§4.5)",
        live: |h, v| { h.rt.set_mesh_period(Duration::from_millis(v.num())); Ok(()) }),
    knob!("min_mesh_gain_bytes", None, ANY, "1M", field!(num min_mesh_gain_bytes),
        "the least a pass must return: freeing less pauses the timer until the next global free (§4.5); a pass purges once this many bytes are dirty (§4.4.1)"),
    knob!("probe_limit", None, Kind::Num { min: 1, max: 4096 }, "64", field!(num probe_limit),
        "SplitMesher probe limit `t` (§3.3)",
        live: |h, v| { h.rt.set_probe_limit(v.num() as usize); Ok(()) }),
    knob!("occupancy_cutoff", None, Kind::Fraction, "0.8",
        Some(Field {
            get: |c| Value::Fraction(c.occupancy_cutoff),
            set: |c, v| if let Value::Fraction(f) = v { c.occupancy_cutoff = f },
        }),
        "spans fuller than this are not mesh candidates"),
    knob!("max_span_count", None, Kind::Num { min: 2, max: u64::MAX }, "4", field!(num max_span_count),
        "most virtual spans aliasing one physical span (at 4, two spans meshed once can mesh again)"),
    knob!("max_dirty_bytes", None, ANY, "64M", field!(num max_dirty_bytes),
        "dirty pages are released to the OS past this many bytes (§4.4.1)"),
    knob!("write_barrier", None, FLAG, "on", field!(bool write_barrier),
        "mprotect/SIGSEGV write barrier during meshing (§4.5.2)"),
    knob!("print_stats_at_exit", Some("MESH_PRINT_STATS_AT_EXIT"), FLAG, "off", None,
        "one-line stats dump at exit (`LD_PRELOAD` only)"),
    knob!("prof", Some("MESH_PROF"), FLAG, "off", field!(bool profiling), "sampled heap profiler (mesh-insight)"),
    knob!("prof_sample_bytes", Some("MESH_PROF_SAMPLE_BYTES"), Kind::Num { min: 1, max: 1 << 40 }, "512K",
        field!(num prof_sample_bytes), "mean bytes between samples",
        gate: |c| c.profiling,
        live: |h, v| h.telemetry.as_ref().ok_or(Report::Profile.off().0)
            .map(|t| t.set_sample_bytes(v.num() as usize))),
    knob!("prof_interval_ms", Some("MESH_PROF_INTERVAL_MS"), MILLIS, "0",
        field!(off_or_ms prof_interval), "periodic profile dumps, in ms (0 = off)"),
    knob!("prof_path", Some("MESH_PROF_PATH"), FILE, "", field!(path prof_path),
        "profile-dump file (unset: one `mesh-prof:` line on stderr)"),
    knob!("trace", Some("MESH_TRACE"), FLAG, "off", field!(bool trace), "slow-path event tracer (mesh-trace)",
        live: |h, v| h.counters.trace_set().ok_or(Report::Trace.off().0).map(|t| t.set_enabled(v.flag()))),
    knob!("trace_buf_events", Some("MESH_TRACE_BUF_EVENTS"), Kind::Num { min: 64, max: 1 << 22 }, "64K",
        field!(num trace_buf_events), "events the trace ring keeps (rounded up to a power of two, overwrite-oldest)",
        gate: |c| c.trace),
    knob!("trace_path", Some("MESH_TRACE_PATH"), FILE, "", field!(path trace_path),
        "trace-dump file (unset: one `mesh-trace:` line on stderr)"),
    knob!("sense_history", Some("MESH_SENSE_HISTORY"), Kind::Num { min: 2, max: 100_000 }, "120",
        field!(num sense_history), "snapshots retained in the sense ring"),
    knob!("sense_mincore_pages", Some("MESH_SENSE_MINCORE_PAGES"), Kind::Num { min: 0, max: 1 << 24 }, "256",
        field!(num sense_mincore_pages), "pages `mincore`-sampled per poll (0 = no sweep)"),
    knob!("sense_path", Some("MESH_SENSE_PATH"), FILE, "", field!(path sense_path),
        "sense-dump file, also written at exit (unset: stderr, on request only)"),
    knob!("ctl", Some("MESH_CTL"), Kind::Path { max_len: CTL_PATH_MAX }, "", field!(path ctl_path),
        "mesh-ctl control-socket path (unset: no socket)"),
    knob!("ctl_max_clients", Some("MESH_CTL_MAX_CLIENTS"), Kind::Num { min: 1, max: 64 }, "4",
        field!(num ctl_max_clients), "concurrent mesh-ctl clients",
        gate: |c| c.ctl_path.is_some()),
    knob!("harden", Some("MESH_HARDEN"), Kind::Policy, "off",
        Some(Field {
            get: |c| Value::Policy(c.harden.policy),
            set: |c, v| if let Value::Policy(p) = v { c.harden.policy = p },
        }),
        "hardened mode: `off` / `count` (alias `full`) / `abort` (alias `die`)"),
    knob!("harden_poison", Some("MESH_HARDEN_POISON"), FLAG, "on", field!(bool harden.poison),
        "free poisoning + reallocation verify"),
    knob!("harden_quarantine", Some("MESH_HARDEN_QUARANTINE"), FLAG, "on", field!(bool harden.quarantine),
        "delayed-reuse quarantine"),
    knob!("harden_guard", Some("MESH_HARDEN_GUARD"), FLAG, "on", field!(bool harden.guard),
        "trailing guard page on large objects"),
    knob!("harden_canary", Some("MESH_HARDEN_CANARY"), FLAG, "on", field!(bool harden.canary),
        "canary sweep during mesh copy windows (needs poisoning)"),
    knob!("harden_quarantine_bytes", Some("MESH_HARDEN_QUARANTINE_BYTES"),
        Kind::Num { min: PAGE_SIZE as u64, max: 1 << 30 }, "256K", field!(num harden.quarantine_bytes),
        "per-thread quarantine byte cap",
        gate: |c| c.harden.quarantine_on()),
    knob!("harden_quarantine_slots", Some("MESH_HARDEN_QUARANTINE_SLOTS"), Kind::Num { min: 1, max: 1 << 20 },
        "512", field!(num harden.quarantine_slots), "per-thread quarantine slot cap",
        gate: |c| c.harden.quarantine_on()),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harden::HardenConfig;

    fn fields() -> impl Iterator<Item = (&'static Knob, &'static Field)> {
        KNOBS.iter().filter_map(|row| Some((row, row.field.as_ref()?)))
    }

    /// A value of `row`'s kind, in range, that is not its default.
    fn probe(row: &Knob, default: &Value) -> Value {
        match (row.kind, default) {
            (Kind::Bool, Value::Bool(b)) => Value::Bool(!b),
            (Kind::Num { max, .. }, Value::Num(n)) => Value::Num(if *n < max { n + 1 } else { n - 1 }),
            (Kind::Num { .. }, Value::Unset) => Value::Num(7),
            (Kind::Path { .. }, Value::Unset) => Value::Path("/tmp/knob".into()),
            (Kind::Policy, _) => Value::Policy(HardenPolicy::Abort),
            (Kind::Fraction, _) => Value::Fraction(0.5),
            other => panic!("{}: no probe for {other:?}", row.name),
        }
    }

    /// A field without a row is a compile error here (no `..`), then a
    /// length mismatch, then a failing count.
    #[test]
    fn every_field_has_a_row() {
        let MeshConfig {
            max_heap_bytes, initial_segment_bytes, segment_bytes, seed, meshing, randomize,
            mesh_period, min_mesh_gain_bytes, probe_limit, occupancy_cutoff, max_span_count,
            max_dirty_bytes, write_barrier, profiling, prof_sample_bytes, prof_interval,
            prof_path, trace, trace_buf_events, trace_path, sense_history,
            sense_mincore_pages, sense_path, ctl_path, ctl_max_clients, harden,
        } = MeshConfig::default();
        let HardenConfig { policy, poison, quarantine, guard, canary, quarantine_bytes, quarantine_slots } =
            harden;
        let all: [&dyn std::fmt::Debug; 32] = [
            &max_heap_bytes, &initial_segment_bytes, &segment_bytes, &seed, &meshing, &randomize,
            &mesh_period, &min_mesh_gain_bytes, &probe_limit, &occupancy_cutoff, &max_span_count,
            &max_dirty_bytes, &write_barrier, &profiling, &prof_sample_bytes, &prof_interval,
            &prof_path, &trace, &trace_buf_events, &trace_path, &sense_history,
            &sense_mincore_pages, &sense_path, &ctl_path, &ctl_max_clients,
            &policy, &poison, &quarantine, &guard, &canary, &quarantine_bytes, &quarantine_slots,
        ];
        assert_eq!(fields().count(), all.len(), "one row per field");
        // …and no two rows share a field: setting one row moves that row
        // and no other.
        let default = MeshConfig::default();
        for (row, field) in fields() {
            let value = probe(row, &(field.get)(&default));
            assert!(row.kind.admits(&value), "{}: probe out of range", row.name);
            let mut config = default.clone();
            (field.set)(&mut config, value.clone());
            assert_eq!((field.get)(&config), value, "{}: set then get", row.name);
            for (other, f) in fields().filter(|(other, _)| other.name != row.name) {
                assert_eq!((f.get)(&config), (f.get)(&default), "{} moved {}", row.name, other.name);
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let unique = |names: Vec<&str>, what: &str| {
            let mut sorted = names.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), names.len(), "duplicate {what} in {names:?}");
        };
        unique(KNOBS.iter().map(|r| r.name).collect(), "row name");
        let mut env: Vec<&str> = KNOBS.iter().filter_map(|r| r.env).collect();
        assert_eq!(
            env.len(),
            23 + 1,
            "23 config variables and MESH_PRINT_STATS_AT_EXIT"
        );
        env.push(LEGACY_CAP);
        env.extend(RETIRED.map(|(name, _)| name));
        unique(env, "env name");
        // A ctl `set` name is its row's name, so those are unique too.
        assert_eq!(
            live_names(),
            ["meshing", "mesh_period_ms", "probe_limit", "prof_sample_bytes", "trace"]
        );
    }

    #[test]
    fn defaults_parse_and_values_round_trip() {
        let default = MeshConfig::default();
        assert!(default.validate().is_ok());
        for row in &KNOBS {
            let Some(field) = &row.field else {
                assert!(parse(row, row.default).is_ok(), "{}", row.name);
                continue;
            };
            let value = (field.get)(&default);
            if row.default.is_empty() {
                assert_eq!(value, Value::Unset, "{}: no printed default", row.name);
            } else {
                assert_eq!(parse(row, row.default), Ok(value.clone()), "{}: printed default", row.name);
            }
            for v in [probe(row, &value), value] {
                if v != Value::Unset {
                    assert_eq!(parse(row, &render(&v)), Ok(v), "{}: round trip", row.name);
                }
            }
        }
    }

    #[test]
    fn refusals_name_the_range() {
        let row = find("probe_limit").unwrap();
        assert_eq!(parse(row, "256"), Ok(Value::Num(256)), "ablation_t's largest t");
        for bad in ["0", "4097", "18446744073709551615", "banana", ""] {
            assert_eq!(parse(row, bad), Err("expected a number in 1..=4K".into()), "{bad:?}");
        }
        assert!(MeshConfig::default().probe_limit(usize::MAX).validate().is_err());
        let cap = find("max_heap_bytes").unwrap();
        assert_eq!(parse(cap, "8G"), Ok(Value::Num(8 << 30)));
        assert_eq!(
            parse(cap, "4096"),
            Err("expected a number in 128K..=1T".into())
        );
        assert_eq!(parse(find("prof_path").unwrap(), "  "), Err("expected a path of 1..=4095 bytes".into()));
    }

    /// The `MESH_*` names `telemetry/report.rs` prints are rows.
    #[test]
    fn report_messages_name_rows() {
        let is_env = |name: &str| KNOBS.iter().any(|row| row.env == Some(name));
        for kind in Report::ALL {
            if let Some(path) = kind.path_knob() {
                assert!(is_env(path), "{path}");
            }
            for word in kind.off().0.split(|c: char| !(c.is_ascii_uppercase() || c == '_')) {
                assert!(!word.starts_with("MESH_") || is_env(word), "{word}");
            }
        }
    }

    fn env_table() -> String {
        let mut out = String::from("| variable | meaning | accepts | default |\n|---|---|---|---|\n");
        for row in KNOBS.iter().filter(|row| row.env.is_some()) {
            let default = if row.default.is_empty() { "unset" } else { row.default };
            out += &format!(
                "| `{}` | {} | {} | {default} |\n",
                row.env.unwrap(),
                row.doc,
                row.kind.expects()
            );
        }
        out
    }

    fn live_list() -> String {
        let mut out = String::new();
        for row in KNOBS.iter().filter(|row| row.live.is_some()) {
            out += &format!("- `{}` — {}: {}\n", row.name, row.doc, row.kind.expects());
        }
        out
    }

    /// The knob tables in the docs are the rows, rendered: the text
    /// between `<!-- knobs:TAG -->` and `<!-- /knobs -->` in each file.
    #[test]
    fn docs_are_rendered_from_the_table() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
        for (file, tag, prefix, want) in [
            ("README.md", "env", "", env_table()),
            ("crates/core/src/config.rs", "env", "    /// ", env_table()),
            ("DESIGN.md", "live", "", live_list()),
            ("crates/core/src/telemetry/ctl.rs", "live", "//! ", live_list()),
        ] {
            let text = std::fs::read_to_string(format!("{root}{file}")).unwrap();
            let want: String = want.lines().map(|l| format!("{prefix}{l}\n")).collect();
            let begin = format!("{prefix}<!-- knobs:{tag} -->\n");
            let end = format!("{prefix}<!-- /knobs -->\n");
            let got = text
                .split_once(&begin)
                .and_then(|(_, rest)| rest.split_once(&end))
                .map(|(block, _)| block)
                .unwrap_or_else(|| panic!("{file}: no {begin:?} … {end:?} block"));
            assert!(got == want, "{file}: the knobs:{tag} block is stale; it should read\n{want}");
        }
    }
}
