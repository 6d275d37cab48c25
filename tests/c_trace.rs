//! E2E slow-path tracing: compiles `tests/c/trace.c`, runs it under
//! `LD_PRELOAD=libmesh.so` with `MESH_TRACE=1` and a `MESH_TRACE_PATH`,
//! and validates the resulting Chrome trace-event JSON against the
//! schema DESIGN.md documents (and `chrome://tracing` accepts):
//!
//! * the dump parses, is a single line, and carries `traceEvents`,
//!   `displayTimeUnit` and the versioned `otherData` block;
//! * every event is a complete (`"ph":"X"`) event in the `mesh`
//!   category with a known op name, microsecond `ts`/`dur`, and a
//!   numeric `pid`/`tid`/`args.arg`;
//! * the churn workload produced `refill` events from a nonzero tid
//!   (recorded by the mutator threads into the heap's one ring), proving
//!   refill tracing end to end;
//! * the program survived `raise(SIGUSR2)` — the co-dump handler was
//!   installed — and its weak `mesh_trace_dump()` call returned 0.
//!
//! Skips (loudly) when no `cc` is available, like `tests/c_abi.rs`.

mod support;

use std::process::{Command, Stdio};
use support::{build_libmesh, compile_c, have_cc, target_dir, Json, JsonExt, Parser};

/// Every op name the tracer can emit (mirrors `TimedOp::name`).
const KNOWN_OPS: &[&str] = &[
    "refill",
    "class_lock_wait",
    "arena_lock_wait",
    "mutator_pause",
    "mesh_candidates",
    "mesh_copy",
    "mesh_remap",
    "mesh_pass",
    "madvise",
];

#[test]
fn trace_dump_is_valid_chrome_trace_json() {
    if !have_cc() {
        eprintln!("skipping trace preload test: no `cc` in this environment");
        return;
    }
    let so = build_libmesh();
    let out_dir = target_dir().join("c-trace-tests");
    std::fs::create_dir_all(&out_dir).unwrap();
    let bin = compile_c("trace", &out_dir, &["-O1"]);
    let dump_path = out_dir.join("trace.json");
    std::fs::remove_file(&dump_path).ok();

    let out = Command::new(&bin)
        .env("LD_PRELOAD", &so)
        .env("MESH_TRACE", "1")
        .env("MESH_TRACE_BUF_EVENTS", "4096")
        .env("MESH_TRACE_PATH", &dump_path)
        .env("MESH_SEED", "29")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("spawn failed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "trace exited {:?} (SIGUSR2 unhandled?)\nstdout:\n{stdout}\nstderr:\n{stderr}",
        out.status
    );
    assert!(stdout.contains("trace OK"), "missing OK line:\n{stdout}");

    let raw = std::fs::read_to_string(&dump_path)
        .unwrap_or_else(|e| panic!("no dump at {}: {e}\nstderr:\n{stderr}", dump_path.display()));
    assert!(!raw.trim().contains('\n'), "dump is a single line");
    let dump = Parser::parse(raw.trim());

    // --- envelope --------------------------------------------------------
    assert_eq!(dump.get("displayTimeUnit").str(), "ns");
    let other = dump.get("otherData");
    assert_eq!(other.get("mesh_trace_version").num(), 1);
    other.get("uptime_ms").num();

    // --- events ----------------------------------------------------------
    let events = dump.get("traceEvents").arr();
    assert!(!events.is_empty(), "no trace events recorded:\n{raw}");
    let mut saw_refill_from_mutator = false;
    for e in events {
        let name = e.get("name").str();
        assert!(KNOWN_OPS.contains(&name), "unknown op {name:?}");
        assert_eq!(e.get("cat").str(), "mesh");
        assert_eq!(e.get("ph").str(), "X");
        assert!(e.get("ts").float() >= 0.0);
        assert!(e.get("dur").float() >= 0.0);
        e.get("pid").num();
        let tid = e.get("tid").num();
        match e.get("args") {
            Json::Obj(_) => {
                e.get("args").get("arg").num();
            }
            other => panic!("args is not an object: {other:?}"),
        }
        if name == "refill" && tid != 0 {
            saw_refill_from_mutator = true;
        }
    }
    assert!(
        saw_refill_from_mutator,
        "churn produced no refill events from a mutator thread:\n{raw}"
    );
}
