//! LD_PRELOAD proof of hardened mode: reruns the clean C gauntlet with
//! `MESH_HARDEN=full` (every detector armed, count policy) asserting the
//! programs still pass with zero violations — and that the deliberately
//! hostile `edge_semantics` frees are now attributed to the hardened
//! counters as well. A deliberate use-after-free C program then runs
//! under `MESH_HARDEN=abort` and must die on SIGABRT with the one-line
//! diagnostic on stderr instead of reaching its final printf, and so must
//! a double free after the program put a file of its own on the number
//! of the heap's stderr dup, which keeps the file intact.
//!
//! Gated on the environment: skips (loudly) when no `cc` is available.

use std::collections::HashMap;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const SIGABRT: i32 = 6;

/// All hardened-violation counter keys in the exit dump (always present,
/// even at zero — the `mesh:` line shows every kind of `HARDEN_FIELDS`).
const HARDEN_KEYS: [&str; 5] = [
    "harden_double_free",
    "harden_invalid_free",
    "harden_poison",
    "harden_guard",
    "harden_canary",
];

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| workspace_root().join("target"))
}

fn have_cc() -> bool {
    Command::new("cc")
        .arg("--version")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok()
}

fn build_libmesh() -> PathBuf {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "-p", "mesh-abi"])
        .current_dir(workspace_root())
        .env_remove("LD_PRELOAD")
        .status()
        .expect("failed to invoke cargo");
    assert!(status.success(), "building libmesh.so failed");
    let so = target_dir().join("release").join("libmesh.so");
    assert!(so.exists(), "missing {}", so.display());
    so
}

fn compile_c(name: &str, out_dir: &Path) -> PathBuf {
    let src = workspace_root().join("tests/c").join(format!("{name}.c"));
    let bin = out_dir.join(name);
    let status = Command::new("cc")
        .arg("-O1")
        .arg("-pthread")
        .arg(&src)
        .arg("-o")
        .arg(&bin)
        .status()
        .expect("failed to invoke cc");
    assert!(status.success(), "cc failed for {name}");
    bin
}

struct RunOutput {
    out: Output,
    stdout: String,
    stderr: String,
    /// Parsed `mesh: key=value …` lines, in order of appearance.
    stats: Vec<HashMap<String, u64>>,
}

/// Runs `bin` under the preload with the given extra `MESH_*` knobs.
/// Does NOT assert success — the abort-mode test expects a signal death.
fn run_preloaded(so: &Path, bin: &Path, env: &[(&str, &str)]) -> RunOutput {
    let mut cmd = Command::new(bin);
    cmd.env("LD_PRELOAD", so)
        .env("MESH_PRINT_STATS_AT_EXIT", "1")
        .env("MESH_SEED", "17")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .stdin(Stdio::null());
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn failed");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let stats = stderr
        .lines()
        .filter_map(|line| line.strip_prefix("mesh: "))
        .map(|line| {
            line.split_whitespace()
                .filter_map(|kv| {
                    let (k, v) = kv.split_once('=')?;
                    Some((k.to_string(), v.parse().ok()?))
                })
                .collect()
        })
        .collect();
    RunOutput {
        out,
        stdout,
        stderr,
        stats,
    }
}

fn assert_ok(name: &str, run: &RunOutput) {
    assert!(
        run.out.status.success(),
        "{name} exited with {:?}\nstdout:\n{}\nstderr:\n{}",
        run.out.status,
        run.stdout,
        run.stderr
    );
}

/// The process's own exit dump (the last stats line emitted).
fn final_stats<'a>(name: &str, run: &'a RunOutput) -> &'a HashMap<String, u64> {
    run.stats
        .last()
        .unwrap_or_else(|| panic!("{name}: no mesh stats line in stderr:\n{}", run.stderr))
}

#[test]
fn c_gauntlet_passes_under_full_hardening() {
    if !have_cc() {
        eprintln!("skipping C harden preload tests: no `cc` in this environment");
        return;
    }
    let so = build_libmesh();
    let out_dir = target_dir().join("c-harden-tests");
    std::fs::create_dir_all(&out_dir).unwrap();
    let full = [("MESH_HARDEN", "full")];

    // Clean programs: every detector armed, zero violations, no behavior
    // change a conforming program could observe.
    for name in ["smoke", "realloc_churn", "mt_churn", "trim_calloc"] {
        let bin = compile_c(name, &out_dir);
        let run = run_preloaded(&so, &bin, &full);
        assert_ok(name, &run);
        assert!(
            run.stdout.contains(&format!("{name} OK")),
            "{name}: missing OK line:\n{}",
            run.stdout
        );
        let stats = final_stats(name, &run);
        assert!(stats["mallocs"] > 0, "{name}: no Mesh mallocs:\n{}", run.stderr);
        for key in HARDEN_KEYS {
            assert_eq!(
                stats[key], 0,
                "{name}: false positive under {key}:\n{}",
                run.stderr
            );
        }
        if name == "mt_churn" {
            // Intact canaries must not block meshing: the hardened sweep
            // runs inside every copy window and the pairs still land.
            assert!(
                stats["pairs_meshed"] > 0,
                "mt_churn under hardening meshed nothing:\n{}",
                run.stderr
            );
        }
    }

    // Hostile frees: the same detections as classic mode, now mirrored
    // into the hardened attribution counters.
    {
        let bin = compile_c("edge_semantics", &out_dir);
        let run = run_preloaded(&so, &bin, &full);
        assert_ok("edge_semantics", &run);
        assert!(
            run.stdout.contains("edge_semantics OK"),
            "{}",
            run.stdout
        );
        let stats = final_stats("edge_semantics", &run);
        assert_eq!(stats["double_frees"], 1, "{}", run.stderr);
        assert_eq!(stats["harden_double_free"], 1, "{}", run.stderr);
        assert!(stats["invalid_frees"] >= 2, "{}", run.stderr);
        assert!(stats["harden_invalid_free"] >= 2, "{}", run.stderr);
        assert_eq!(stats["harden_poison"], 0, "{}", run.stderr);
        assert_eq!(stats["harden_guard"], 0, "{}", run.stderr);
        assert_eq!(stats["harden_canary"], 0, "{}", run.stderr);
    }
}

#[test]
fn uaf_write_aborts_with_diagnostic_under_die_policy() {
    if !have_cc() {
        eprintln!("skipping C harden abort test: no `cc` in this environment");
        return;
    }
    let so = build_libmesh();
    let out_dir = target_dir().join("c-harden-tests");
    std::fs::create_dir_all(&out_dir).unwrap();

    let bin = compile_c("uaf_abort", &out_dir);
    // Quarantine off so the freed slot recycles within the loop and the
    // poison verify on reissue sees the UAF write.
    let run = run_preloaded(
        &so,
        &bin,
        &[("MESH_HARDEN", "abort"), ("MESH_HARDEN_QUARANTINE", "0")],
    );
    assert_eq!(
        run.out.status.signal(),
        Some(SIGABRT),
        "expected SIGABRT, got {:?}\nstdout:\n{}\nstderr:\n{}",
        run.out.status,
        run.stdout,
        run.stderr
    );
    assert!(
        run.stderr.contains("mesh: harden abort kind=poison addr=0x"),
        "missing abort diagnostic:\n{}",
        run.stderr
    );
    assert!(
        !run.stdout.contains("UNEXPECTED"),
        "program survived the UAF:\n{}",
        run.stdout
    );
}

/// The abort line goes to stderr, not into a file of the program's: a
/// process closes every descriptor from 3 up, puts a data file on the
/// number of the heap's stderr dup and frees an object twice
/// (`tests/c/abort_closerange.c`). The heap checks the dup still names
/// stderr before it writes, and falls back to fd 2.
#[test]
fn the_abort_line_skips_a_reused_stderr_dup() {
    if !have_cc() {
        eprintln!("skipping C harden abort test: no `cc` in this environment");
        return;
    }
    let so = build_libmesh();
    let out_dir = target_dir().join("c-harden-tests");
    std::fs::create_dir_all(&out_dir).unwrap();
    let bin = compile_c("abort_closerange", &out_dir);
    let data = out_dir.join("abort-closerange-data");
    let mut cmd = Command::new(&bin);
    cmd.arg(&data)
        .env("LD_PRELOAD", &so)
        .env("MESH_HARDEN", "abort")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .stdin(Stdio::null());
    let out = cmd.output().expect("spawn failed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.signal(),
        Some(SIGABRT),
        "expected SIGABRT, got {:?}\nstdout:\n{}\nstderr:\n{stderr}",
        out.status,
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        stderr.contains("mesh: harden abort kind=double_free addr=0x"),
        "missing abort diagnostic:\n{stderr}"
    );
    assert_eq!(
        std::fs::read(&data).unwrap(),
        b"abort_closerange data: these bytes stay as written\n",
        "the data file changed"
    );
    std::fs::remove_file(&data).unwrap();
}
