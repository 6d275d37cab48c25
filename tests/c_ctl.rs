//! mesh-ctl end to end from an interposed C program (`tests/c/ctl.c`):
//! the process runs with `libmesh.so` preloaded and `MESH_CTL` set, then
//! connects to its *own* control socket and drives every envelope plus
//! the mutating commands. The Rust side validates the captured payloads.
//!
//! This is also the reentrancy regression pin for the exposition paths:
//! the C program performs no allocation between its `profile-a` and
//! `profile-b` requests while the server renders every other envelope in
//! between, so any allocation escaping `with_internal_alloc` on those
//! paths shows up as profiler-counter drift between the two envelopes.

mod support;

use std::collections::HashMap;
use std::process::Command;
use support::{build_libmesh, compile_c, have_cc, target_dir, JsonExt, Parser};

/// Extracts every `<<tag rc=..>>\n..\n<<end>>` section from stdout.
fn sections(stdout: &str) -> HashMap<String, (String, String)> {
    let mut out = HashMap::new();
    let mut rest = stdout;
    while let Some(start) = rest.find("<<") {
        let Some(hdr_end) = rest[start..].find(">>\n") else {
            break;
        };
        let header = &rest[start + 2..start + hdr_end];
        let body_start = start + hdr_end + 3;
        let Some(end) = rest[body_start..].find("\n<<end>>") else {
            break;
        };
        let (tag, rc) = header
            .split_once(" rc=")
            .expect("marker header carries an rc");
        out.insert(
            tag.to_string(),
            (rc.to_string(), rest[body_start..body_start + end].to_string()),
        );
        rest = &rest[body_start + end + 8..];
    }
    out
}

/// Looks up a section that must have completed with an `ok` frame.
fn ok_body<'a>(sections: &'a HashMap<String, (String, String)>, tag: &str) -> &'a str {
    let (rc, body) = sections
        .get(tag)
        .unwrap_or_else(|| panic!("missing section {tag:?}"));
    assert_eq!(rc, "ok", "{tag} failed: {body}");
    body
}

#[test]
fn interposed_process_serves_its_own_ctl_socket() {
    if !have_cc() {
        eprintln!("skipping: no `cc` in PATH");
        return;
    }
    let so = build_libmesh();
    let out_dir = target_dir().join("c-ctl-tests");
    std::fs::create_dir_all(&out_dir).unwrap();
    let bin = compile_c("ctl", &out_dir, &["-O1"]);

    let sock = std::env::temp_dir().join(format!("mesh-c-ctl-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let pprof_out = out_dir.join("ctl.pb");
    let _ = std::fs::remove_file(&pprof_out);

    let output = Command::new(&bin)
        .env("LD_PRELOAD", &so)
        .env("MESH_SEED", "17")
        .env("MESH_CTL", &sock)
        .env("MESH_PROF", "1")
        .env("MESH_PROF_SAMPLE_BYTES", "64K")
        .env("MESH_TRACE", "1")
        .env("MESH_PPROF_OUT", &pprof_out)
        .output()
        .expect("failed to run ctl client");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "ctl client failed: {}\nstdout:\n{stdout}\nstderr:\n{stderr}",
        output.status
    );
    assert!(stdout.ends_with("ctl-done\n"), "truncated run:\n{stdout}");
    assert!(
        stdout.contains("greeting=mesh-ctl 1"),
        "protocol greeting missing:\n{stdout}"
    );

    let s = sections(&stdout);

    // Text envelopes over the wire match their in-process shapes.
    let stats = ok_body(&s, "stats");
    assert!(stats.starts_with("mesh: "), "stats envelope: {stats}");
    assert!(stats.contains(" mallocs="), "stats envelope: {stats}");
    let prom = ok_body(&s, "prom");
    assert!(prom.contains("# HELP mesh_"), "prom envelope: {prom}");
    assert!(prom.contains("mesh_live_bytes"), "prom envelope: {prom}");
    assert!(
        ok_body(&s, "sense").contains("\"mesh_sense_version\":1"),
        "sense envelope"
    );
    assert!(
        ok_body(&s, "spectrum").contains("\"mesh_spectrum_version\":1"),
        "spectrum envelope"
    );
    assert!(
        ok_body(&s, "ledger").contains("\"mesh_ledger_version\":1"),
        "ledger envelope"
    );
    assert!(
        ok_body(&s, "trace").starts_with("{\"traceEvents\":["),
        "trace envelope"
    );
    let help = ok_body(&s, "help");
    assert!(help.contains("stats") && help.contains("set "), "help: {help}");

    // Reentrancy pin: the client allocated nothing between profile-a and
    // profile-b while the server rendered every envelope above, so the
    // profiler counters must not move — any drift means an exposition
    // path allocated outside the internal-alloc guard and sampled its
    // own machinery.
    let a = Parser::parse(ok_body(&s, "profile-a"));
    let b = Parser::parse(ok_body(&s, "profile-b"));
    assert!(
        a.get("samples").num() > 0,
        "8 MiB of churn at a 64 KiB rate never sampled"
    );
    for key in ["samples", "sampled_frees", "live_samples", "sites"] {
        assert_eq!(
            a.get(key).num(),
            b.get(key).num(),
            "{key} drifted while the server rendered envelopes: \
             an exposition path allocates outside with_internal_alloc"
        );
    }

    // `set` effects are visible in the very next envelope.
    let ack = Parser::parse(ok_body(&s, "set-sample"));
    assert_eq!(ack.get("knob").str(), "prof_sample_bytes");
    assert_eq!(ack.get("value").num(), 131072);
    let c = Parser::parse(ok_body(&s, "profile-c"));
    assert_eq!(
        c.get("sample_bytes").num(),
        131072,
        "retuned sample rate missing from the next profile envelope"
    );
    let ack = Parser::parse(ok_body(&s, "set-probe"));
    assert_eq!(ack.get("value").num(), 32);
    let (rc, body) = &s["set-err"];
    assert_eq!(rc, "err", "bogus knob must be rejected");
    assert!(body.contains("unknown knob"), "set-err: {body}");
    // The retired transfer-cache knob is a name like any other unknown
    // one: refused, whatever the value (this one used to be accepted).
    let (rc, body) = &s["set-retired"];
    assert_eq!(rc, "err", "retired knob must be rejected");
    assert!(body.contains("unknown knob"), "set-retired: {body}");
    assert!(!help.contains("transfer_batch"), "help still lists it: {help}");
    // Out of range: refused with the range, and the value set before it
    // stands (`prof_sample_bytes 0` used to be clamped to 1 and acked;
    // `probe_limit 2^64-1` used to be accepted, and the next pass spun).
    let (rc, body) = &s["set-sample-zero"];
    assert_eq!(rc, "err", "set prof_sample_bytes 0: {body}");
    assert!(body.contains("1..=1T"), "set-sample-zero names the range: {body}");
    let (rc, body) = &s["set-probe-huge"];
    assert_eq!(rc, "err", "set probe_limit 2^64-1: {body}");
    assert!(body.contains("1..=4K"), "set-probe-huge names the range: {body}");

    // mesh_now over the wire compacts the 7/8-freed bait spans (bare
    // `true`/`false` keeps this envelope out of the mini JSON parser).
    let mesh_now = ok_body(&s, "mesh-now");
    let pairs: u64 = mesh_now
        .split("\"pairs_meshed\":")
        .nth(1)
        .and_then(|t| t.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|d| d.parse().ok())
        .unwrap_or_else(|| panic!("mesh_now envelope: {mesh_now}"));
    assert!(pairs > 0, "mesh_now found no pairs: {mesh_now}");
    assert!(mesh_now.contains("\"meshing_enabled\":true"));
    let after = ok_body(&s, "stats-after-mesh");
    let passes: u64 = after
        .split(" mesh_passes=")
        .nth(1)
        .and_then(|t| t.split_whitespace().next())
        .and_then(|d| d.parse().ok())
        .unwrap_or_else(|| panic!("stats envelope: {after}"));
    assert!(passes > 0, "mesh_now pass missing from stats: {after}");
    assert!(
        ok_body(&s, "madvise-now").contains("\"purged\":true"),
        "madvise_now ack"
    );

    // The pprof dump fetched over the socket parses and carries the
    // retuned period plus the live samples.
    let raw = std::fs::read(&pprof_out).expect("pprof dump written");
    let (rc, body) = &s["pprof"];
    assert_eq!(rc, "ok");
    assert_eq!(*body, format!("bytes={}", raw.len()));
    let summary = mesh::core::parse_pprof(&raw).expect("pprof dump parses");
    assert_eq!(
        summary.sample_types,
        vec![
            ("inuse_objects".to_string(), "count".to_string()),
            ("inuse_space".to_string(), "bytes".to_string()),
        ]
    );
    assert_eq!(summary.period_type, ("space".to_string(), "bytes".to_string()));
    assert_eq!(summary.period, 131072, "pprof period tracks the live retune");
    assert!(summary.samples > 0, "no live sites in the pprof dump");
    assert!(summary.totals[0] > 0 && summary.totals[1] > 0);

    // The socket vanished with the process (atexit shutdown). The pprof
    // dump is left behind deliberately: CI uploads it as an artifact.
    assert!(!sock.exists(), "exited process left its socket behind");
}
