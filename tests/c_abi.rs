//! End-to-end proof of the C ABI: builds `libmesh.so` (release), compiles
//! the `tests/c/*.c` programs with the system `cc`, and runs each — plus
//! unmodified system binaries (`ls`, `sort`) — under
//! `LD_PRELOAD=libmesh.so` with `MESH_PRINT_STATS_AT_EXIT=1`, asserting
//! exit status 0 and non-zero Mesh counters in the exit dump. The
//! multithreaded churn program additionally requires `pairs_meshed > 0`
//! and the fork program a child stats line with `forks=1`.
//!
//! Gated on the environment: skips (loudly) when no `cc` is available.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

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

/// Builds the cdylib (cheap when the tier-1 `cargo build --release`
/// already did) and returns its path.
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
    stdout: String,
    stderr: String,
    /// Parsed `mesh: key=value …` lines, in order of appearance (a fork
    /// test emits one per process).
    stats: Vec<HashMap<String, u64>>,
}

fn run_preloaded(so: &Path, bin: &Path, args: &[&str], stdin: Option<&str>) -> RunOutput {
    run_preloaded_env(so, bin, args, stdin, &[])
}

fn run_preloaded_env(
    so: &Path,
    bin: &Path,
    args: &[&str],
    stdin: Option<&str>,
    env: &[(&str, &str)],
) -> RunOutput {
    let mut cmd = Command::new(bin);
    cmd.args(args)
        .env("LD_PRELOAD", so)
        .env("MESH_PRINT_STATS_AT_EXIT", "1")
        .env("MESH_SEED", "17")
        .envs(env.iter().copied())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .stdin(if stdin.is_some() {
            Stdio::piped()
        } else {
            Stdio::null()
        });
    let mut child = cmd.spawn().expect("spawn failed");
    if let Some(input) = stdin {
        use std::io::Write;
        child
            .stdin
            .take()
            .unwrap()
            .write_all(input.as_bytes())
            .unwrap();
    }
    let out = child.wait_with_output().expect("wait failed");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "{} exited with {:?}\nstdout:\n{stdout}\nstderr:\n{stderr}",
        bin.display(),
        out.status
    );
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
        stdout,
        stderr,
        stats,
    }
}

/// The exit dump of the process itself (the last line emitted).
fn final_stats(run: &RunOutput) -> &HashMap<String, u64> {
    run.stats
        .last()
        .unwrap_or_else(|| panic!("no mesh stats line in stderr:\n{}", run.stderr))
}

#[test]
fn c_programs_and_real_binaries_run_on_mesh() {
    if !have_cc() {
        eprintln!("skipping C ABI preload tests: no `cc` in this environment");
        return;
    }
    let so = build_libmesh();
    let out_dir = target_dir().join("c-abi-tests");
    std::fs::create_dir_all(&out_dir).unwrap();

    // --- the C programs -------------------------------------------------
    for name in ["smoke", "edge_semantics", "realloc_churn"] {
        let bin = compile_c(name, &out_dir);
        let run = run_preloaded(&so, &bin, &[], None);
        assert!(
            run.stdout.contains(&format!("{name} OK")),
            "{name}: missing OK line:\n{}",
            run.stdout
        );
        let stats = final_stats(&run);
        assert!(stats["mallocs"] > 0, "{name}: no Mesh mallocs:\n{}", run.stderr);
        assert!(stats["frees"] > 0, "{name}: no Mesh frees:\n{}", run.stderr);
        match name {
            // edge_semantics deliberately throws hostile frees at the
            // page-map routing: misaligned interior pointers, a wild
            // pointer, and one double free — all detected and discarded.
            "edge_semantics" => {
                assert_eq!(stats["double_frees"], 1, "{name}:\n{}", run.stderr);
                assert!(
                    stats["invalid_frees"] >= 2,
                    "{name}: hostile frees not counted:\n{}",
                    run.stderr
                );
            }
            _ => assert_eq!(stats["double_frees"], 0, "{name}"),
        }
        if name == "realloc_churn" {
            assert!(
                stats["reallocs_in_place"] > 0,
                "{name}: in-place realloc fast path never hit:\n{}",
                run.stderr
            );
        }
    }

    // --- a hostile environment costs warnings, never the heap -----------
    // Each of these parses, is out of range (or contradicts another), and
    // used to fail `validate()`: the process then ran on the system
    // allocator without a word in its exit stats.
    {
        let bin = out_dir.join("smoke");
        let hostile = [
            ("MESH_TRACE", "1"),
            ("MESH_TRACE_BUF_EVENTS", "10"),
            ("MESH_SENSE_HISTORY", "1"),
            ("MESH_HARDEN", "full"),
            ("MESH_HARDEN_POISON", "0"),
        ];
        let run = run_preloaded_env(&so, &bin, &[], None, &hostile);
        assert!(run.stdout.contains("smoke OK"), "{}", run.stdout);
        assert!(
            !run.stderr.contains("running on the system allocator"),
            "a bad knob cost the heap:\n{}",
            run.stderr
        );
        assert!(final_stats(&run)["mallocs"] > 0, "smoke ran off Mesh:\n{}", run.stderr);
        for name in ["MESH_TRACE_BUF_EVENTS", "MESH_SENSE_HISTORY", "MESH_HARDEN_CANARY"] {
            assert!(
                run.stderr.contains(&format!("mesh: ignoring {name}")),
                "{name} not reported:\n{}",
                run.stderr
            );
        }
    }

    // --- multithreaded churn must actually mesh (acceptance criterion) --
    {
        let bin = compile_c("mt_churn", &out_dir);
        let run = run_preloaded(&so, &bin, &[], None);
        assert!(run.stdout.contains("mt_churn OK"), "{}", run.stdout);
        let stats = final_stats(&run);
        assert!(stats["mallocs"] >= 40_000, "churn volume:\n{}", run.stderr);
        assert!(
            stats["remote_frees"] > 0,
            "cross-thread frees must take the remote path:\n{}",
            run.stderr
        );
        assert!(
            stats["pairs_meshed"] > 0,
            "multithreaded churn meshed nothing:\n{}",
            run.stderr
        );
    }

    // --- fork: child privatizes, both sides verify integrity ------------
    {
        let bin = compile_c("fork_alloc", &out_dir);
        let run = run_preloaded(&so, &bin, &[], None);
        assert!(run.stdout.contains("fork_alloc OK"), "{}", run.stdout);
        assert!(
            run.stats.iter().any(|s| s.get("forks") == Some(&1)),
            "no child reported a privatized fork:\n{}",
            run.stderr
        );
        // 1 single-threaded fork + 4 forks under a racing allocator
        // thread: five child exit dumps plus the parent's.
        assert!(run.stats.len() >= 6, "expected 6 stats lines:\n{}", run.stderr);
    }

    // --- unmodified system binaries --------------------------------------
    let ls = ["/bin/ls", "/usr/bin/ls"]
        .iter()
        .map(Path::new)
        .find(|p| p.exists())
        .expect("no ls binary");
    let run = run_preloaded(&so, ls, &["-l", "/"], None);
    assert!(!run.stdout.is_empty(), "ls printed nothing");
    assert!(
        final_stats(&run)["mallocs"] > 0,
        "ls ran but not on Mesh:\n{}",
        run.stderr
    );

    let sort = ["/usr/bin/sort", "/bin/sort"]
        .iter()
        .map(Path::new)
        .find(|p| p.exists())
        .expect("no sort binary");
    let run = run_preloaded(&so, sort, &[], Some("pear\napple\nmango\n"));
    assert_eq!(run.stdout, "apple\nmango\npear\n", "sort output wrong");
    assert!(
        final_stats(&run)["mallocs"] > 0,
        "sort ran but not on Mesh:\n{}",
        run.stderr
    );
}
