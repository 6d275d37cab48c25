//! `MeshConfig::apply_env` against real process environment — suffix
//! parsing, the boolean/seed knobs, the `MESH_PROF*` profiling knobs,
//! the `MESH_TRACE*` tracing knobs, warn-and-ignore on malformed
//! values, and the retired names (the transfer-cache knobs,
//! `MESH_BACKGROUND_MESHING`, the sense poll interval, `mincore` budget
//! and history, the two segment sizes, and the profile interval, ctl
//! client cap and quarantine caps the heap now fixes), which are ignored
//! whatever they say. A walk over `knobs::KNOBS` feeds every variable a
//! value below its range, above it, garbage and blank: whatever the
//! environment says, `apply_env()` returns a config `validate()` accepts.
//!
//! Own test binary with a single test: `std::env::set_var` is not safe
//! against concurrent `getenv` from other test threads, so the env is
//! written once, up front, and never removed.

mod support;

use mesh::core::knobs::{Kind, Knob, KNOBS};
use mesh::core::{HardenPolicy, MeshConfig, Report};
use support::report_text;

/// Set in the child the test spawns of itself to read its stderr.
const RETIRED_CHILD: &str = "MESH_ENV_KNOBS_RETIRED_CHILD";

/// Set in the children of the hostile walk, to the name of the config
/// `apply_env()` must return there (see [`hostile_expectation`]).
const HOSTILE_CHILD: &str = "MESH_ENV_KNOBS_HOSTILE_CHILD";

fn hostile_expectation(name: &str) -> MeshConfig {
    let counting = MeshConfig::default().harden_policy(HardenPolicy::Count);
    match name {
        "default" => MeshConfig::default(),
        // Canary without poison: the canary sweep is switched off.
        "conflict" => counting.tracing(true).harden_poison(false).harden_canary(false),
        other => panic!("unknown expectation {other}"),
    }
}

/// Runs this test in a child under `env` and asserts that `apply_env()`
/// returned `expect`, that `validate()` accepted it, and that stderr
/// carries exactly one `mesh: ignoring …` line per name in `ignored`.
fn hostile_round(what: &str, expect: &str, env: &[(&str, String)], ignored: &[&str]) {
    let child = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "apply_env_reads_knobs_and_ignores_malformed", "--nocapture"])
        .env(HOSTILE_CHILD, expect)
        .envs(env.iter().map(|(k, v)| (k, v)))
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&child.stderr);
    assert!(child.status.success(), "{what}: {stderr}");
    let warned: Vec<&str> = stderr.lines().filter(|l| l.starts_with("mesh: ")).collect();
    assert_eq!(warned.len(), ignored.len(), "{what}: one line per bad value: {stderr}");
    for name in ignored {
        let about = |l: &&&str| {
            l.strip_prefix("mesh: ignoring ")
                .and_then(|rest| rest.strip_prefix(name))
                .is_some_and(|rest| rest.starts_with(['=', ' ']))
        };
        assert_eq!(warned.iter().filter(about).count(), 1, "{what}: {name}: {stderr}");
    }
}

/// Every variable `apply_env()` reads, with the value `bad` picks for it.
fn hostile_env(bad: impl Fn(&Knob) -> Option<String>) -> Vec<(&'static str, String)> {
    KNOBS
        .iter()
        .filter(|row| row.field.is_some())
        .filter_map(|row| Some((row.env?, bad(row)?)))
        .collect()
}

fn hostile_walk() {
    let below = hostile_env(|row| match row.kind {
        Kind::Num { min, .. } if min > 0 => Some((min - 1).to_string()),
        _ => None,
    });
    let above = hostile_env(|row| match row.kind {
        Kind::Num { max, .. } if max < u64::MAX => Some((max + 1).to_string()),
        Kind::Path { max_len } => Some("x".repeat(max_len + 1)),
        _ => None,
    });
    // Any text is a path, so paths have no garbage; blank covers them.
    let garbage = hostile_env(|row| {
        (!matches!(row.kind, Kind::Path { .. })).then(|| "banana".to_string())
    });
    let blank = hostile_env(|_| Some("   ".to_string()));
    assert_eq!(blank.len(), 15, "every variable apply_env reads");
    assert!(below.len() >= 3 && above.len() >= 7 && garbage.len() == 11);
    for (what, env) in [("min-1", below), ("max+1", above), ("garbage", garbage), ("blank", blank)] {
        let names: Vec<&str> = env.iter().map(|(name, _)| *name).collect();
        hostile_round(what, "default", &env, &names);
    }
    let set = |pairs: &[(&'static str, &str)]| -> Vec<(&'static str, String)> {
        pairs.iter().map(|(k, v)| (*k, v.to_string())).collect()
    };
    // Each of these used to pass apply_env, fail validate() and cost an
    // LD_PRELOADed process its heap.
    hostile_round(
        "cross-field conflict",
        "conflict",
        &set(&[
            ("MESH_TRACE", "1"),
            ("MESH_TRACE_BUF_EVENTS", "10"),
            ("MESH_SENSE_HISTORY", "1"),
            ("MESH_MAX_HEAP_BYTES", "4096"),
            ("MESH_HARDEN", "full"),
            ("MESH_HARDEN_POISON", "0"),
        ]),
        &["MESH_TRACE_BUF_EVENTS", "MESH_SENSE_HISTORY", "MESH_MAX_HEAP_BYTES", "MESH_HARDEN_CANARY"],
    );
}

#[test]
fn apply_env_reads_knobs_and_ignores_malformed() {
    if let Ok(expect) = std::env::var(HOSTILE_CHILD) {
        let c = MeshConfig::default().apply_env();
        assert!(c.validate().is_ok(), "{:?}", c.validate());
        assert_eq!(c, hostile_expectation(&expect));
        return;
    }
    // Retired names: any value — a transfer batch of 100000 failed
    // `validate()`, and with it the whole heap under LD_PRELOAD — costs
    // one stderr line per reason and nothing else.
    if std::env::var_os(RETIRED_CHILD).is_some() {
        let c = MeshConfig::default().apply_env();
        assert_eq!(c, MeshConfig::default(), "retired names change no field");
        let mesh = mesh::core::Mesh::new(c).unwrap();
        let p = mesh.malloc(100);
        assert!(!p.is_null());
        unsafe { mesh.free(p) };
        assert_eq!(mesh.stats().live_bytes, 0);
        return;
    }
    let retired_round = |env: &[(&str, &str)]| -> Vec<String> {
        let child = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "apply_env_reads_knobs_and_ignores_malformed",
                "--nocapture",
            ])
            .env(RETIRED_CHILD, "1")
            .envs(env.iter().copied())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&child.stderr);
        assert!(
            child.status.success(),
            "retired names cost the heap: {stderr}"
        );
        stderr
            .lines()
            .filter(|l| l.starts_with("mesh: "))
            .map(String::from)
            .collect()
    };
    let warned = retired_round(&[
        ("MESH_TRANSFER_BATCH", "100000"),
        ("MESH_TRANSFER_CACHE_SLOTS", "banana"),
    ]);
    assert_eq!(
        warned.len(),
        1,
        "one line for the transfer-cache knobs: {warned:?}"
    );
    assert!(
        warned[0].contains("MESH_TRANSFER_BATCH")
            && warned[0].contains("MESH_TRANSFER_CACHE_SLOTS"),
        "{warned:?}"
    );
    let warned = retired_round(&[("MESH_BACKGROUND_MESHING", "1")]);
    assert_eq!(
        warned,
        ["mesh: ignoring MESH_BACKGROUND_MESHING (retired: meshing runs on the free path)"]
    );
    let warned = retired_round(&[("MESH_SENSE_INTERVAL_MS", "200")]);
    assert_eq!(
        warned,
        ["mesh: ignoring MESH_SENSE_INTERVAL_MS (retired: sense polls on demand)"]
    );
    let warned = retired_round(&[("MESH_SENSE_MINCORE_PAGES", "1K")]);
    assert_eq!(
        warned,
        ["mesh: ignoring MESH_SENSE_MINCORE_PAGES (retired: sense reads what the heap's file holds with fstat)"]
    );
    let warned = retired_round(&[("MESH_SENSE_HISTORY", "30")]);
    assert_eq!(
        warned,
        ["mesh: ignoring MESH_SENSE_HISTORY (retired: a sense document is one reading)"]
    );
    // The segment sizes share a reason, and so a line.
    let warned = retired_round(&[("MESH_INITIAL_SEGMENT_BYTES", "1M")]);
    assert_eq!(
        warned,
        ["mesh: ignoring MESH_INITIAL_SEGMENT_BYTES (retired: the heap is one file)"]
    );
    let warned = retired_round(&[
        ("MESH_INITIAL_SEGMENT_BYTES", "1M"),
        ("MESH_SEGMENT_BYTES", "2M"),
    ]);
    assert_eq!(
        warned,
        ["mesh: ignoring MESH_INITIAL_SEGMENT_BYTES and MESH_SEGMENT_BYTES (retired: the heap is one file)"]
    );
    // The values the heap now fixes share a reason, and so a line.
    let warned = retired_round(&[
        ("MESH_CTL_MAX_CLIENTS", "8"),
        ("MESH_PROF_INTERVAL_MS", "100"),
    ]);
    assert_eq!(
        warned,
        ["mesh: ignoring MESH_PROF_INTERVAL_MS and MESH_CTL_MAX_CLIENTS (retired: the heap uses a fixed value)"]
    );
    let warned = retired_round(&[
        ("MESH_HARDEN_QUARANTINE_BYTES", "16"),
        ("MESH_HARDEN_QUARANTINE_SLOTS", "0"),
    ]);
    assert_eq!(
        warned,
        ["mesh: ignoring MESH_HARDEN_QUARANTINE_BYTES and MESH_HARDEN_QUARANTINE_SLOTS (retired: the heap uses a fixed value)"]
    );

    hostile_walk();

    std::env::set_var("MESH_MAX_HEAP_BYTES", "64M");
    std::env::set_var("MESH_SEED", "99");
    std::env::set_var("MESH_PROF", "1");
    std::env::set_var("MESH_PROF_SAMPLE_BYTES", "64K");
    std::env::set_var("MESH_PROF_PATH", "   "); // malformed (blank)
    std::env::set_var("MESH_TRANSFER_BATCH", "257"); // retired
    std::env::set_var("MESH_TRACE", "1");
    std::env::set_var("MESH_TRACE_BUF_EVENTS", "banana"); // malformed
    std::env::set_var("MESH_TRACE_PATH", "/tmp/mesh-env-knobs-trace.json");
    std::env::set_var("MESH_SENSE_PATH", "/tmp/mesh-env-knobs-sense.json");

    let c = MeshConfig::default().apply_env();
    assert_eq!(c.max_heap_size(), 64 << 20, "suffix-parsed cap");
    assert!(c.is_profiling(), "MESH_PROF=1 enables the profiler");
    assert_eq!(c.prof_sample_size(), 64 << 10, "suffix-parsed sample rate");
    assert_eq!(
        c.prof_dump_path(),
        None,
        "blank path ignored (warned), default kept"
    );
    assert!(c.is_tracing(), "MESH_TRACE=1 enables the tracer");
    assert_eq!(
        c.trace_buf_event_count(),
        MeshConfig::default().trace_buf_event_count(),
        "malformed MESH_TRACE_BUF_EVENTS ignored (warned), default kept"
    );
    assert_eq!(
        c.trace_dump_path().map(|p| p.to_path_buf()),
        Some(std::path::PathBuf::from("/tmp/mesh-env-knobs-trace.json")),
        "MESH_TRACE_PATH parsed"
    );
    assert_eq!(
        c.sense_dump_path().map(|p| p.to_path_buf()),
        Some(std::path::PathBuf::from("/tmp/mesh-env-knobs-sense.json")),
        "MESH_SENSE_PATH parsed"
    );
    assert!(c.validate().is_ok());

    // The parsed config actually drives a heap (seed fixed by MESH_SEED,
    // profiler and tracer live): a sampled churn must produce samples
    // and retire them through free, and the tracer must buffer events.
    let mesh = mesh::core::Mesh::new(c).unwrap();
    assert!(mesh.is_profiling());
    assert!(mesh.is_tracing());
    let mut ptrs = Vec::new();
    for _ in 0..4096 {
        let p = mesh.malloc(100);
        assert!(!p.is_null());
        ptrs.push(p);
    }
    let prof = mesh.profile_stats().expect("profiling on");
    assert!(prof.samples > 0, "400 KB churn at a 64 KiB rate never sampled");
    for p in ptrs {
        unsafe { mesh.free(p) };
    }
    assert_eq!(mesh.stats().live_bytes, 0);
    assert_eq!(mesh.profile_stats().unwrap().live_bytes_estimate, 0);
    let json = report_text(&mesh, Report::Trace).expect("tracing on");
    assert!(
        json.contains("\"name\":\"refill\""),
        "churn produced no refill trace events"
    );
    drop(mesh);

    // A well-formed buffer size (suffix-parsed) reaches the config.
    std::env::set_var("MESH_TRACE_BUF_EVENTS", "4K");
    let c = MeshConfig::default().apply_env();
    assert_eq!(c.trace_buf_event_count(), 4 << 10);
    assert!(c.validate().is_ok());

    // Hardened-mode knobs (set after the first heap ran: MESH_HARDEN
    // changes free semantics, so the unhardened churn above must not see
    // it). `full` is an alias of `count`; per-feature toggles parse with
    // the usual warn-on-malformed contract.
    std::env::set_var("MESH_HARDEN", "full");
    std::env::set_var("MESH_HARDEN_POISON", "1");
    std::env::set_var("MESH_HARDEN_QUARANTINE", "0");
    std::env::set_var("MESH_HARDEN_GUARD", "banana"); // malformed
    std::env::set_var("MESH_HARDEN_CANARY", "1");
    let c = MeshConfig::default().apply_env();
    assert!(c.is_hardened(), "MESH_HARDEN=full activates count mode");
    let h = c.harden_config();
    assert!(!h.aborts(), "full counts, it does not abort");
    assert!(h.poison_on());
    assert!(!h.quarantine_on(), "MESH_HARDEN_QUARANTINE=0 disables");
    assert!(h.guard_on(), "malformed toggle ignored (warned), default kept");
    assert!(h.canary_on());
    assert!(c.validate().is_ok());

    // Every policy spelling lands where documented.
    std::env::set_var("MESH_HARDEN", "abort");
    assert!(MeshConfig::default().apply_env().harden_config().aborts());
    std::env::set_var("MESH_HARDEN", "die");
    assert!(MeshConfig::default().apply_env().harden_config().aborts());
    std::env::set_var("MESH_HARDEN", "banana"); // malformed
    assert!(
        !MeshConfig::default().apply_env().is_hardened(),
        "malformed policy ignored (warned), default Off kept"
    );
    std::env::set_var("MESH_HARDEN", "off");
    assert!(!MeshConfig::default().apply_env().is_hardened());

    // A counting hardened heap built from the environment detects a
    // double free end to end.
    std::env::set_var("MESH_HARDEN", "count");
    std::env::set_var("MESH_HARDEN_QUARANTINE", "1");
    let c = MeshConfig::default().apply_env();
    assert!(c.validate().is_ok());
    let mesh = mesh::core::Mesh::new(c).unwrap();
    let p = mesh.malloc(64);
    assert!(!p.is_null());
    unsafe {
        mesh.free(p);
        mesh.free(p); // quarantined: deterministically caught
    }
    let s = mesh.stats();
    assert_eq!(
        s.harden_violations[mesh::core::HardenKind::DoubleFree as usize],
        1,
        "double free of a quarantined pointer counted under its kind"
    );
    assert_eq!(s.total_harden_violations(), 1);
    drop(mesh);

    // The mesh-ctl path follows the same warn-and-ignore contract: a bad
    // value must never kill an interposed process, it just runs without
    // a control socket.
    std::env::set_var("MESH_CTL", "   "); // malformed (blank)
    let c = MeshConfig::default().apply_env();
    assert!(
        c.ctl_socket_path().is_none(),
        "blank MESH_CTL ignored (warned)"
    );
    std::env::set_var("MESH_CTL", "x".repeat(200)); // longer than sun_path
    let c = MeshConfig::default().apply_env();
    assert!(
        c.ctl_socket_path().is_none(),
        "overlong MESH_CTL ignored (warned)"
    );

    let sock = std::env::temp_dir().join(format!("mesh-env-knobs-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    std::env::set_var("MESH_CTL", &sock);
    let c = MeshConfig::default().apply_env();
    assert_eq!(c.ctl_socket_path(), Some(sock.as_path()), "MESH_CTL parsed");
    assert!(c.validate().is_ok());

    // The parsed knobs drive a live server end to end: a stale socket
    // file on the path is reclaimed, the heap binds and answers the v1
    // greeting plus a `stats` request, and a second heap on the same
    // path stands down without disturbing the owner.
    drop(std::os::unix::net::UnixListener::bind(&sock).unwrap()); // stale file
    assert!(sock.exists());
    let mesh = mesh::core::Mesh::new(c).unwrap();
    assert!(mesh.ctl_active(), "stale socket file reclaimed and re-bound");
    assert_eq!(mesh.ctl_path(), Some(sock.clone()));

    use std::io::{BufRead, BufReader, Read, Write};
    let stream = std::os::unix::net::UnixStream::connect(&sock).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line, "mesh-ctl 1\n", "protocol greeting");
    reader.get_mut().write_all(b"stats\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ok "), "stats response header: {line:?}");
    let len: usize = line[3..].trim().parse().unwrap();
    let mut payload = vec![0u8; len + 1]; // body + trailing newline
    reader.read_exact(&mut payload).unwrap();
    assert_eq!(payload.pop(), Some(b'\n'), "binary-safe frame terminator");
    let text = String::from_utf8(payload).unwrap();
    assert!(text.starts_with("mesh: "), "stats payload: {text:?}");

    let loser = mesh::core::Mesh::new(MeshConfig::default().apply_env()).unwrap();
    assert!(
        !loser.ctl_active(),
        "a second heap must not steal a live socket"
    );
    drop(loser);
    assert!(
        sock.exists(),
        "loser teardown must not unlink the owner's socket"
    );
    drop(reader);
    drop(mesh);
    // The mesher thread holds only a Weak on the heap, so teardown (and
    // with it the unlink) may trail a final in-flight tick briefly.
    let gone = (0..200).any(|_| {
        if sock.exists() {
            std::thread::sleep(std::time::Duration::from_millis(10));
            false
        } else {
            true
        }
    });
    assert!(gone, "heap teardown failed to unlink its socket");
}
