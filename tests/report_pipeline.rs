//! The report pipeline's contract: a document does not depend on how it
//! was asked for. For every [`Report`] kind the bytes from
//! `Mesh::report`, the mesh-ctl command of the same name, and (for the
//! kinds with a `MESH_*_PATH` knob) the file `Mesh::write_report` leaves
//! behind have the same shape, and every trigger declines a disabled
//! subsystem with the same message.

mod support;

use mesh::core::{parse_pprof, Mesh, MeshConfig, Report};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use support::{Json, JsonExt, Parser};

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mesh-report-pipeline-{tag}-{}", std::process::id()))
}

/// A mesh-ctl client: one connection, greeting consumed.
struct Ctl(BufReader<UnixStream>);

impl Ctl {
    /// Retries briefly: the listener is bound synchronously but served
    /// by the background thread.
    fn connect(path: &Path) -> Ctl {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(stream) = UnixStream::connect(path) {
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                let mut ctl = Ctl(BufReader::new(stream));
                assert_eq!(ctl.line(), "mesh-ctl 1", "protocol greeting");
                return ctl;
            }
            assert!(Instant::now() < deadline, "ctl socket never came up");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn line(&mut self) -> String {
        let mut line = String::new();
        self.0.read_line(&mut line).expect("ctl read");
        assert!(line.ends_with('\n'), "EOF inside a header line: {line:?}");
        line.pop();
        line
    }

    /// One command; `Err` carries the text of an `err` response.
    fn request(&mut self, cmd: &str) -> Result<Vec<u8>, String> {
        self.0
            .get_mut()
            .write_all(format!("{cmd}\n").as_bytes())
            .unwrap();
        let header = self.line();
        if let Some(msg) = header.strip_prefix("err ") {
            return Err(msg.to_string());
        }
        let len: usize = header
            .strip_prefix("ok ")
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("unexpected response header: {header:?}"));
        let mut payload = vec![0u8; len + 1];
        self.0.read_exact(&mut payload).expect("ctl payload");
        assert_eq!(payload.pop(), Some(b'\n'), "missing frame terminator");
        Ok(payload)
    }
}

fn keys(obj: &Json) -> Vec<String> {
    let mut keys: Vec<String> = obj
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    keys.sort();
    keys
}

/// What must agree between triggers: the kind's version field and the
/// set of keys (JSON), `key=` names (stats), metric families (prom), or
/// sample/period types (pprof) of the document.
fn shape(kind: Report, bytes: &[u8]) -> Vec<String> {
    if kind == Report::Pprof {
        let p = parse_pprof(bytes).expect("valid pprof");
        return vec![format!("{:?} {:?}", p.sample_types, p.period_type)];
    }
    let text = std::str::from_utf8(bytes).expect("text report");
    match kind {
        Report::Stats => {
            assert!(text.starts_with("mesh: "), "{text}");
            let mut names: Vec<String> = text
                .split_whitespace()
                .filter_map(|tok| tok.split_once('=').map(|(k, _)| k.to_string()))
                .collect();
            names.sort();
            names.dedup();
            names
        }
        Report::Prom => text
            .lines()
            .filter(|l| l.starts_with("# TYPE "))
            .map(str::to_string)
            .collect(),
        _ => {
            let doc = Parser::parse(text);
            let versioned = if kind == Report::Trace {
                doc.get("otherData")
            } else {
                &doc
            };
            let field = format!("mesh_{}_version", kind.name());
            let mut shape = keys(&doc);
            shape.extend(keys(versioned));
            shape.push(format!("{field}={}", versioned.get(&field).num()));
            shape
        }
    }
}

/// `text` with every `"uptime_ms":<n>` value blanked.
fn sans_uptime(bytes: &[u8]) -> String {
    let text = std::str::from_utf8(bytes).unwrap();
    let mut out = String::new();
    let mut rest = text;
    while let Some(at) = rest.find("\"uptime_ms\":") {
        let value = at + "\"uptime_ms\":".len();
        out.push_str(&rest[..value]);
        rest = rest[value..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out + rest
}

#[test]
fn every_trigger_renders_the_same_document() {
    let sock = tmp("on.sock");
    let path_of = |kind: Report| tmp(&format!("{}.json", kind.name()));
    let mesh = Mesh::new(
        MeshConfig::default()
            .arena_bytes(64 << 20)
            .seed(11)
            .mesh_period(Duration::from_secs(3600))
            .profiling(true)
            .prof_sample_bytes(4096)
            .prof_path(Some(path_of(Report::Profile)))
            .tracing(true)
            .trace_path(Some(path_of(Report::Trace)))
            .sense_path(Some(path_of(Report::Sense)))
            .ctl(Some(sock.clone())),
    )
    .unwrap();
    // Give every document something to say, then go quiet.
    let ptrs: Vec<*mut u8> = (0..8192).map(|_| mesh.malloc(128)).collect();
    for (i, &p) in ptrs.iter().enumerate() {
        if i % 8 != 0 {
            unsafe { mesh.free(p) };
        }
    }
    let big = mesh.malloc(100_000);
    mesh.mesh_now();

    let mut ctl = Ctl::connect(&sock);
    for kind in Report::ALL {
        let name = kind.name();
        let api = mesh
            .report(kind)
            .unwrap_or_else(|off| panic!("{name}: {off}"));
        let served = ctl
            .request(name)
            .unwrap_or_else(|e| panic!("ctl {name}: {e}"));
        assert_eq!(
            shape(kind, &api),
            shape(kind, &served),
            "{name}: API vs ctl"
        );
        let mut same = vec![api, served];
        assert_eq!(
            mesh.report_path(kind).is_some(),
            kind.path_knob().is_some(),
            "{name}: a path for exactly the kinds with a path knob"
        );
        if let Some(path) = mesh.report_path(kind) {
            std::fs::remove_file(path).ok();
            mesh.write_report(kind, 2).unwrap();
            let mut file = std::fs::read(path).expect("dump file written");
            assert_eq!(file.pop(), Some(b'\n'), "{name}: file is one line");
            assert_eq!(
                shape(kind, &same[0]),
                shape(kind, &file),
                "{name}: API vs file"
            );
            same.push(file);
            std::fs::remove_file(path).ok();
        }
        if matches!(kind, Report::Ledger | Report::Spectrum | Report::Profile) {
            for other in &same[1..] {
                assert_eq!(
                    sans_uptime(&same[0]),
                    sans_uptime(other),
                    "{name}: bytes differ"
                );
            }
        }
    }

    let help = String::from_utf8(ctl.request("help").unwrap()).unwrap();
    let commands: Vec<&str> = help.lines().next().unwrap().split_whitespace().collect();
    let reports: Vec<&str> = Report::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(
        commands[..reports.len()],
        reports[..],
        "help lists the report names first"
    );
    assert_eq!(
        commands[reports.len()..],
        ["mesh_now", "madvise_now", "set", "help"]
    );

    unsafe {
        mesh.free(big);
        for &p in ptrs.iter().step_by(8) {
            mesh.free(p);
        }
    }
}

#[test]
fn every_trigger_declines_a_disabled_subsystem_alike() {
    let sock = tmp("off.sock");
    let mesh = Mesh::new(
        MeshConfig::default()
            .arena_bytes(64 << 20)
            .seed(12)
            .sense_interval(None)
            .ctl(Some(sock.clone())),
    )
    .unwrap();
    let mut ctl = Ctl::connect(&sock);
    let mut declined = Vec::new();
    for kind in Report::ALL {
        let name = kind.name();
        match mesh.report(kind) {
            Ok(_) => {
                assert!(
                    ctl.request(name).is_ok(),
                    "{name}: ctl serves what the API serves"
                );
            }
            Err(off) => {
                assert!(!off.0.is_empty(), "{name}: the reason is spelled out");
                assert_eq!(ctl.request(name), Err(off.0.to_string()), "{name}: ctl");
                assert_eq!(mesh.write_report(kind, 2), Err(off), "{name}: write_report");
                assert_eq!(mesh.report_path(kind), None, "{name}: no destination");
                mesh.request_report(kind); // dropped at the next beat
                declined.push(kind);
            }
        }
    }
    assert_eq!(
        declined,
        [Report::Profile, Report::Pprof, Report::Trace, Report::Sense],
        "exactly the opt-out kinds decline"
    );
    assert_eq!(
        ctl.request("bogus"),
        Err("unknown command (try: help)".to_string())
    );
}
