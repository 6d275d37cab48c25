//! pprof export of the sampled live-heap (leak) profile: a hand-rolled
//! encoder for the `perftools.profiles.Profile` protobuf (no protobuf
//! dependency — the wire format is varints and length-delimited fields),
//! plus a small in-tree parser used by `mesh-top --check-pprof` and the
//! CI schema check.
//!
//! ## Mapping the Horvitz–Thompson estimator onto pprof
//!
//! The profiler samples allocations geometrically (mean
//! `MESH_PROF_SAMPLE_BYTES` between samples) and weights each sample by
//! the expected bytes it represents, so per-site byte totals are
//! unbiased estimates. The export carries two sample values per site:
//!
//! * `inuse_objects` (unit `count`) — the **raw** number of live sampled
//!   objects at the site, deliberately unscaled (object-count upscaling
//!   would need per-object sizes the table does not keep);
//! * `inuse_space` (unit `bytes`) — the Horvitz–Thompson live-byte
//!   estimate (`alloc_bytes − freed_bytes`), already upscaled.
//!
//! `period` is the sampling rate in bytes (`period_type = space/bytes`),
//! matching what `go tool pprof` expects from heap profiles. Sites whose
//! estimate has returned to zero are dropped: this is an *inuse*
//! profile.
//!
//! Call-site chains are frame-pointer return addresses; each unique
//! address becomes a `Location`, symbolized best-effort through
//! `dladdr(3)` (mangled names — `go tool pprof`/speedscope both demangle
//! Rust/C++ on display). Addresses `dladdr` cannot place keep a
//! synthetic `0x…` function name so the profile never loses a frame.
//!
//! The output is the *uncompressed* proto; every pprof consumer accepts
//! that (gzip is optional per the format spec), and the allocator links
//! no compressor.

use super::profile_table::SiteSnapshot;
use crate::ffi;
use std::collections::HashMap;
use std::fmt;

// ---- protobuf wire primitives ------------------------------------------

const WIRE_VARINT: u64 = 0;
const WIRE_LEN: u64 = 2;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_tag(out: &mut Vec<u8>, field: u64, wire: u64) {
    put_varint(out, (field << 3) | wire);
}

/// `field: <varint>` — skipped entirely when `v == 0` (proto3 default).
fn put_u64(out: &mut Vec<u8>, field: u64, v: u64) {
    if v != 0 {
        put_tag(out, field, WIRE_VARINT);
        put_varint(out, v);
    }
}

/// `field: <len><bytes>` for a nested message or string.
fn put_len(out: &mut Vec<u8>, field: u64, bytes: &[u8]) {
    put_tag(out, field, WIRE_LEN);
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

// ---- encoder -----------------------------------------------------------

/// Interned string table: index 0 is always `""` per the format spec.
struct Strings {
    table: Vec<String>,
    index: HashMap<String, u64>,
}

impl Strings {
    fn new() -> Strings {
        let mut s = Strings {
            table: Vec::new(),
            index: HashMap::new(),
        };
        s.intern("");
        s
    }

    fn intern(&mut self, text: &str) -> u64 {
        if let Some(&i) = self.index.get(text) {
            return i;
        }
        let i = self.table.len() as u64;
        self.table.push(text.to_string());
        self.index.insert(text.to_string(), i);
        i
    }
}

/// `dladdr` lookup of one frame address: `(symbol, object)` — either may
/// be absent.
fn symbolize(addr: usize) -> (Option<String>, Option<String>) {
    let mut info = ffi::Dl_info {
        dli_fname: std::ptr::null(),
        dli_fbase: std::ptr::null_mut(),
        dli_sname: std::ptr::null(),
        dli_saddr: std::ptr::null_mut(),
    };
    let rc = unsafe { ffi::dladdr(addr as *const ffi::c_void, &mut info) };
    if rc == 0 {
        return (None, None);
    }
    let cstr = |p: *const ffi::c_char| -> Option<String> {
        if p.is_null() {
            return None;
        }
        let s = unsafe { std::ffi::CStr::from_ptr(p) };
        let s = s.to_string_lossy();
        (!s.is_empty()).then(|| s.into_owned())
    };
    (cstr(info.dli_sname), cstr(info.dli_fname))
}

/// Encodes the live sites as an uncompressed pprof `Profile`. `period`
/// is the sampler's mean bytes between samples; `time_nanos` stamps the
/// profile (pass 0 to omit). Allocates; callers hold the internal-alloc
/// guard.
pub(crate) fn encode(entries: &[SiteSnapshot], period: u64, time_nanos: u64) -> Vec<u8> {
    let mut strings = Strings::new();
    // ValueType{type=1, unit=2}
    let value_type = |strings: &mut Strings, ty: &str, unit: &str| -> Vec<u8> {
        let mut m = Vec::new();
        let t = strings.intern(ty);
        let u = strings.intern(unit);
        put_u64(&mut m, 1, t);
        put_u64(&mut m, 2, u);
        m
    };
    let st_objects = value_type(&mut strings, "inuse_objects", "count");
    let st_space = value_type(&mut strings, "inuse_space", "bytes");
    let period_type = value_type(&mut strings, "space", "bytes");

    // Locations/functions are shared across samples, keyed by address /
    // by name.
    let mut loc_ids: HashMap<usize, u64> = HashMap::new();
    let mut fn_ids: HashMap<String, u64> = HashMap::new();
    let mut locations: Vec<u8> = Vec::new();
    let mut functions: Vec<u8> = Vec::new();
    let mut samples: Vec<u8> = Vec::new();
    let mut min_addr = u64::MAX;
    let mut max_addr = 0u64;
    let mut mapping_file: Option<String> = None;

    for entry in entries {
        if entry.live_samples() == 0 && entry.live_bytes() == 0 {
            continue;
        }
        // Sample{location_id=1 (repeated), value=2 (repeated)}
        let mut sample = Vec::new();
        let frames: &[usize] = if entry.frames.is_empty() { &[0] } else { &entry.frames };
        for &addr in frames {
            let next_loc = loc_ids.len() as u64 + 1;
            let loc_id = *loc_ids.entry(addr).or_insert_with(|| {
                let (sym, obj) = if addr == 0 { (None, None) } else { symbolize(addr) };
                if mapping_file.is_none() {
                    mapping_file = obj.clone();
                }
                let name = sym.unwrap_or_else(|| format!("{addr:#x}"));
                let next_fn = fn_ids.len() as u64 + 1;
                let fn_id = *fn_ids.entry(name.clone()).or_insert_with(|| {
                    // Function{id=1, name=2, system_name=3, filename=4}
                    let mut f = Vec::new();
                    let n = strings.intern(&name);
                    put_u64(&mut f, 1, next_fn);
                    put_u64(&mut f, 2, n);
                    put_u64(&mut f, 3, n);
                    functions.push(0); // placeholder, replaced below
                    functions.pop();
                    put_len(&mut functions, 5, &f);
                    next_fn
                });
                min_addr = min_addr.min(addr as u64);
                max_addr = max_addr.max(addr as u64);
                // Line{function_id=1}
                let mut line = Vec::new();
                put_u64(&mut line, 1, fn_id);
                // Location{id=1, mapping_id=2, address=3, line=4}
                let mut loc = Vec::new();
                put_u64(&mut loc, 1, next_loc);
                put_u64(&mut loc, 2, 1);
                put_u64(&mut loc, 3, addr as u64);
                put_len(&mut loc, 4, &line);
                put_len(&mut locations, 4, &loc);
                next_loc
            });
            put_u64(&mut sample, 1, loc_id);
        }
        // Repeated int64 `value`: emitted unpacked (one tag per value),
        // which every conforming decoder accepts. Zeros must still be
        // emitted — the two values are positional — so bypass put_u64.
        for v in [entry.live_samples(), entry.live_bytes()] {
            put_tag(&mut sample, 2, WIRE_VARINT);
            put_varint(&mut sample, v);
        }
        put_len(&mut samples, 2, &sample);
    }

    // Mapping{id=1, memory_start=2, memory_limit=3, filename=5}: one
    // synthetic mapping spanning every referenced address — enough for
    // consumers that want locations attributable to *some* mapping.
    let mut mapping = Vec::new();
    put_u64(&mut mapping, 1, 1);
    if min_addr <= max_addr {
        put_u64(&mut mapping, 2, min_addr & !0xfff);
        put_u64(&mut mapping, 3, (max_addr | 0xfff) + 1);
    } else {
        put_u64(&mut mapping, 3, 0x1000);
    }
    let file = mapping_file.unwrap_or_else(|| "[mesh]".to_string());
    let file_idx = strings.intern(&file);
    put_u64(&mut mapping, 5, file_idx);

    // Profile{sample_type=1, sample=2, mapping=3, location=4, function=5,
    //         string_table=6, time_nanos=9, period_type=11, period=12}
    let mut out = Vec::new();
    put_len(&mut out, 1, &st_objects);
    put_len(&mut out, 1, &st_space);
    out.extend_from_slice(&samples);
    put_len(&mut out, 3, &mapping);
    out.extend_from_slice(&locations);
    out.extend_from_slice(&functions);
    for s in &strings.table {
        put_len(&mut out, 6, s.as_bytes());
    }
    put_u64(&mut out, 9, time_nanos);
    put_len(&mut out, 11, &period_type);
    put_u64(&mut out, 12, period);
    out
}

/// Why a buffer failed to parse as a pprof profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PprofParseError {
    /// A varint ran past the end of the buffer (or overflowed 64 bits).
    Truncated,
    /// A length-delimited field claimed more bytes than remain.
    BadLength,
    /// An unsupported wire type appeared.
    BadWireType(u64),
    /// String-table entry 0 must be the empty string.
    BadStringTable,
    /// A sample's value count disagrees with the declared sample types.
    ValueArity { expected: usize, got: usize },
    /// A sample references a `Location` id the profile never defines.
    DanglingLocation(u64),
}

impl fmt::Display for PprofParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PprofParseError::Truncated => write!(f, "truncated varint"),
            PprofParseError::BadLength => write!(f, "length field exceeds buffer"),
            PprofParseError::BadWireType(w) => write!(f, "unsupported wire type {w}"),
            PprofParseError::BadStringTable => {
                write!(f, "string_table[0] must be the empty string")
            }
            PprofParseError::ValueArity { expected, got } => {
                write!(f, "sample has {got} values, sample_type declares {expected}")
            }
            PprofParseError::DanglingLocation(id) => {
                write!(f, "sample references undefined location {id}")
            }
        }
    }
}

/// What [`parse_pprof`] validated and summarized.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PprofSummary {
    /// `(type, unit)` pairs from `sample_type`, resolved through the
    /// string table.
    pub sample_types: Vec<(String, String)>,
    /// Number of samples.
    pub samples: usize,
    /// Per-sample-type totals (summed over all samples).
    pub totals: Vec<u64>,
    /// Number of `Location` records.
    pub locations: usize,
    /// Number of `Function` records.
    pub functions: usize,
    /// Resolved function names (deduplicated, profile order).
    pub function_names: Vec<String>,
    /// `(type, unit)` of `period_type`.
    pub period_type: (String, String),
    /// Sampling period.
    pub period: u64,
    /// `time_nanos` stamp (0 when absent).
    pub time_nanos: u64,
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn varint(&mut self) -> Result<u64, PprofParseError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let &byte = self.buf.get(self.pos).ok_or(PprofParseError::Truncated)?;
            self.pos += 1;
            if shift >= 64 {
                return Err(PprofParseError::Truncated);
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn bytes(&mut self) -> Result<&'a [u8], PprofParseError> {
        let len = self.varint()? as usize;
        let end = self.pos.checked_add(len).ok_or(PprofParseError::BadLength)?;
        if end > self.buf.len() {
            return Err(PprofParseError::BadLength);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Next `(field, wire)` tag, or `None` at end of buffer.
    fn tag(&mut self) -> Result<Option<(u64, u64)>, PprofParseError> {
        if self.pos >= self.buf.len() {
            return Ok(None);
        }
        let tag = self.varint()?;
        Ok(Some((tag >> 3, tag & 7)))
    }

    /// Skips one value of the given wire type.
    fn skip(&mut self, wire: u64) -> Result<(), PprofParseError> {
        match wire {
            0 => self.varint().map(|_| ()),
            2 => self.bytes().map(|_| ()),
            1 => {
                self.pos = (self.pos + 8).min(self.buf.len());
                Ok(())
            }
            5 => {
                self.pos = (self.pos + 4).min(self.buf.len());
                Ok(())
            }
            w => Err(PprofParseError::BadWireType(w)),
        }
    }
}

/// `ValueType{type=1, unit=2}` as raw string-table indices.
fn parse_value_type(buf: &[u8]) -> Result<(u64, u64), PprofParseError> {
    let mut r = Reader { buf, pos: 0 };
    let (mut ty, mut unit) = (0, 0);
    while let Some((field, wire)) = r.tag()? {
        match (field, wire) {
            (1, 0) => ty = r.varint()?,
            (2, 0) => unit = r.varint()?,
            _ => r.skip(wire)?,
        }
    }
    Ok((ty, unit))
}

/// Parses and validates an uncompressed pprof `Profile`, returning a
/// summary. Checks the invariants the schema cannot express: string
/// table entry 0 empty, per-sample value arity matching `sample_type`,
/// and every sample's location id defined.
pub fn parse_pprof(buf: &[u8]) -> Result<PprofSummary, PprofParseError> {
    let mut r = Reader { buf, pos: 0 };
    let mut strings: Vec<String> = Vec::new();
    let mut sample_types_raw: Vec<(u64, u64)> = Vec::new();
    let mut period_type_raw = (0u64, 0u64);
    let mut samples_raw: Vec<(Vec<u64>, Vec<u64>)> = Vec::new(); // (loc ids, values)
    let mut location_ids: Vec<u64> = Vec::new();
    let mut function_names_raw: Vec<u64> = Vec::new();
    let mut summary = PprofSummary::default();
    while let Some((field, wire)) = r.tag()? {
        match (field, wire) {
            (1, 2) => sample_types_raw.push(parse_value_type(r.bytes()?)?),
            (2, 2) => {
                let mut sr = Reader { buf: r.bytes()?, pos: 0 };
                let (mut locs, mut vals) = (Vec::new(), Vec::new());
                while let Some((f, w)) = sr.tag()? {
                    match (f, w) {
                        (1, 0) => locs.push(sr.varint()?),
                        (2, 0) => vals.push(sr.varint()?),
                        (1 | 2, 2) => {
                            // Packed repeated encoding.
                            let mut pr = Reader { buf: sr.bytes()?, pos: 0 };
                            while pr.pos < pr.buf.len() {
                                let v = pr.varint()?;
                                if f == 1 {
                                    locs.push(v);
                                } else {
                                    vals.push(v);
                                }
                            }
                        }
                        _ => sr.skip(w)?,
                    }
                }
                samples_raw.push((locs, vals));
            }
            (3, 2) => {
                r.bytes()?; // mapping: presence is enough for the summary
            }
            (4, 2) => {
                let mut lr = Reader { buf: r.bytes()?, pos: 0 };
                while let Some((f, w)) = lr.tag()? {
                    match (f, w) {
                        (1, 0) => location_ids.push(lr.varint()?),
                        _ => lr.skip(w)?,
                    }
                }
            }
            (5, 2) => {
                let mut fr = Reader { buf: r.bytes()?, pos: 0 };
                summary.functions += 1;
                while let Some((f, w)) = fr.tag()? {
                    match (f, w) {
                        (2, 0) => function_names_raw.push(fr.varint()?),
                        _ => fr.skip(w)?,
                    }
                }
            }
            (6, 2) => strings.push(String::from_utf8_lossy(r.bytes()?).into_owned()),
            (9, 0) => summary.time_nanos = r.varint()?,
            (11, 2) => period_type_raw = parse_value_type(r.bytes()?)?,
            (12, 0) => summary.period = r.varint()?,
            (_, w) => r.skip(w)?,
        }
    }
    if strings.first().map(String::as_str) != Some("") {
        return Err(PprofParseError::BadStringTable);
    }
    let resolve = |i: u64| strings.get(i as usize).cloned().unwrap_or_default();
    summary.sample_types = sample_types_raw
        .iter()
        .map(|&(t, u)| (resolve(t), resolve(u)))
        .collect();
    summary.period_type = (resolve(period_type_raw.0), resolve(period_type_raw.1));
    summary.function_names = function_names_raw.iter().map(|&i| resolve(i)).collect();
    summary.locations = location_ids.len();
    summary.totals = vec![0; summary.sample_types.len()];
    let defined: std::collections::HashSet<u64> = location_ids.iter().copied().collect();
    for (locs, vals) in &samples_raw {
        if vals.len() != summary.sample_types.len() {
            return Err(PprofParseError::ValueArity {
                expected: summary.sample_types.len(),
                got: vals.len(),
            });
        }
        for (slot, v) in summary.totals.iter_mut().zip(vals) {
            *slot += v;
        }
        for id in locs {
            if !defined.contains(id) {
                return Err(PprofParseError::DanglingLocation(*id));
            }
        }
    }
    summary.samples = samples_raw.len();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(frames: Vec<usize>, alloc_bytes: u64, freed: u64) -> SiteSnapshot {
        let freed_all = freed >= alloc_bytes;
        SiteSnapshot {
            site: 1,
            frames,
            alloc_samples: 2,
            alloc_bytes,
            free_samples: if freed_all { 2 } else { 1 },
            freed_bytes: freed,
        }
    }

    #[test]
    fn varints_encode_and_decode() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader { buf: &buf, pos: 0 };
            assert_eq!(r.varint().unwrap(), v);
            assert_eq!(r.pos, buf.len());
        }
    }

    #[test]
    fn encode_parse_round_trip() {
        let entries = vec![
            site(vec![0x0040_1000, 0x0040_2000], 8192, 0),
            site(vec![0x0040_1000], 4096, 4096), // fully freed: dropped
            site(vec![], 100, 0),              // frameless: synthetic frame
        ];
        let bytes = encode(&entries, 4096, 777);
        let p = parse_pprof(&bytes).unwrap();
        assert_eq!(
            p.sample_types,
            vec![
                ("inuse_objects".into(), "count".into()),
                ("inuse_space".into(), "bytes".into())
            ]
        );
        assert_eq!(p.period_type, ("space".into(), "bytes".into()));
        assert_eq!(p.period, 4096);
        assert_eq!(p.time_nanos, 777);
        assert_eq!(p.samples, 2, "the fully-freed site is dropped");
        assert_eq!(p.totals[1], 8192 + 100);
        assert!(p.locations >= 2);
        assert_eq!(p.functions, p.function_names.len());
        assert!(!p.function_names.is_empty());
    }

    #[test]
    fn empty_profile_still_validates() {
        let bytes = encode(&[], 4096, 0);
        let p = parse_pprof(&bytes).unwrap();
        assert_eq!(p.samples, 0);
        assert_eq!(p.sample_types.len(), 2);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_pprof(&[0x80]).is_err(), "dangling varint");
        assert!(
            parse_pprof(&[0x0a, 0xff, 0x01]).is_err(),
            "length past end of buffer"
        );
        // A valid-shaped profile with no string table fails the
        // empty-string invariant.
        let mut no_strings = Vec::new();
        put_u64(&mut no_strings, 12, 1);
        assert_eq!(parse_pprof(&no_strings), Err(PprofParseError::BadStringTable));
    }

    #[test]
    fn symbolize_resolves_own_code() {
        // A function in this very test binary: dladdr must at least find
        // the object; the symbol name is best-effort.
        let addr = symbolize_resolves_own_code as *const () as usize;
        let (_, obj) = symbolize(addr);
        assert!(obj.is_some(), "dladdr should place an address inside us");
    }
}
