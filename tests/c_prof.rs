//! E20 — sampled heap-profiling end to end: compiles `tests/c/leak.c`
//! (with frame pointers), runs it under `LD_PRELOAD=libmesh.so` with
//! `MESH_PROF=1`, and validates the at-exit JSON dump against the
//! documented schema (DESIGN.md "Telemetry & profiling"):
//!
//! * the dump parses and carries every schema field;
//! * entries are sorted by live bytes, and the top entry attributes
//!   ≥ 90% of leaked bytes to the leaking call site;
//! * the live-byte estimate agrees with the allocator's exact counter;
//! * when frame-pointer capture worked, the leak site and the churn site
//!   intern as distinct fingerprints.
//!
//! The C program also raises SIGUSR2 at itself: with `MESH_PROF=1` the
//! preload installs the dump-request handler, so a zero exit status is
//! the proof the handler was in place (the default action would kill it).
//!
//! Skips (loudly) when no `cc` is available, like `tests/c_abi.rs`.

mod support;

use std::process::{Command, Stdio};
use support::{build_libmesh, compile_c, have_cc, target_dir, JsonExt, Parser};

#[test]
fn leak_profile_attributes_the_leaking_site() {
    if !have_cc() {
        eprintln!("skipping heap-profile preload test: no `cc` in this environment");
        return;
    }
    let so = build_libmesh();
    let out_dir = target_dir().join("c-prof-tests");
    std::fs::create_dir_all(&out_dir).unwrap();
    let bin = compile_c("leak", &out_dir, &["-O1", "-fno-omit-frame-pointer"]);
    let dump_path = out_dir.join("leak-profile.json");
    std::fs::remove_file(&dump_path).ok();

    let out = Command::new(&bin)
        .env("LD_PRELOAD", &so)
        .env("MESH_PROF", "1")
        .env("MESH_PROF_SAMPLE_BYTES", "16K")
        .env("MESH_PROF_PATH", &dump_path)
        .env("MESH_SEED", "17")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("spawn failed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "leak exited {:?} (SIGUSR2 unhandled?)\nstdout:\n{stdout}\nstderr:\n{stderr}",
        out.status
    );
    assert!(stdout.contains("leak OK"), "missing OK line:\n{stdout}");

    // --- schema ---------------------------------------------------------
    let raw = std::fs::read_to_string(&dump_path)
        .unwrap_or_else(|e| panic!("no dump at {}: {e}\nstderr:\n{stderr}", dump_path.display()));
    let dump = Parser::parse(raw.trim());
    assert_eq!(dump.get("mesh_profile_version").num(), 1);
    assert_eq!(dump.get("sample_bytes").num(), 16 << 10, "16K knob honoured");
    for field in [
        "uptime_ms",
        "samples",
        "samples_dropped",
        "sampled_frees",
        "sites",
        "live_samples",
        "live_bytes_exact",
        "live_bytes_estimate",
    ] {
        dump.get(field).num(); // present and numeric
    }
    assert_eq!(dump.get("samples_dropped").num(), 0, "sampled set overflowed");
    let entries = dump.get("entries").arr();
    assert!(!entries.is_empty(), "no profile entries:\n{raw}");
    for e in entries {
        for field in [
            "site",
            "live_bytes",
            "live_samples",
            "alloc_bytes",
            "alloc_samples",
            "freed_bytes",
            "free_samples",
        ] {
            e.get(field).num();
        }
        e.get("frames").arr();
    }

    // --- attribution ----------------------------------------------------
    // ~6.1 MB leaked through one site at a 16 KiB sampling rate: the top
    // entry must hold ≥ 90% of all live sampled bytes (acceptance
    // criterion), and entries must arrive sorted live-first.
    let live: Vec<u64> = entries.iter().map(|e| e.get("live_bytes").num()).collect();
    assert!(live.windows(2).all(|w| w[0] >= w[1]), "not sorted: {live:?}");
    let total: u64 = live.iter().sum();
    let top = &entries[0];
    let top_live = live[0];
    assert!(
        top_live * 10 >= total * 9,
        "top entry holds {top_live} of {total} live bytes (< 90%):\n{raw}"
    );
    assert!(
        top.get("alloc_samples").num() >= 50,
        "leak site barely sampled:\n{raw}"
    );

    // --- estimator vs exact ---------------------------------------------
    // ~370 expected samples on the leak → ~5% standard error; 30% bounds
    // ≈ 6σ while still catching weighting bugs (2× is far outside).
    let exact = dump.get("live_bytes_exact").num() as f64;
    let estimate = dump.get("live_bytes_estimate").num() as f64;
    assert!(exact > 6.0 * 1024.0 * 1024.0 * 0.9, "leak not live at exit: {exact}");
    assert!(
        (estimate - exact).abs() <= exact * 0.30,
        "estimate {estimate} vs exact {exact}: off by more than 30%"
    );

    // --- site distinction -----------------------------------------------
    // When frame-pointer capture produced chains, the leak and churn
    // sites must be distinct fingerprints. (On targets without frame
    // pointers every chain is empty and collapses into one site — the
    // attribution assertions above still ran, so only this refinement is
    // skipped.)
    if !top.get("frames").arr().is_empty() {
        assert!(
            entries.len() >= 2,
            "frames captured but only one site interned:\n{raw}"
        );
        let freed_somewhere = entries
            .iter()
            .any(|e| e.get("free_samples").num() > 0 && e.get("live_bytes").num() < top_live / 10);
        assert!(
            freed_somewhere,
            "churn site (freed allocations) missing from the profile:\n{raw}"
        );
    } else {
        eprintln!("note: empty call chains — frame-pointer capture unavailable here");
    }
}
