//! End-to-end proof of the C ABI: builds `libmesh.so` (release), compiles
//! the `tests/c/*.c` programs with the system `cc`, and runs each — plus
//! unmodified system binaries (`ls`, `sort`) — under
//! `LD_PRELOAD=libmesh.so` with `MESH_PRINT_STATS_AT_EXIT=1`, asserting
//! exit status 0 and non-zero Mesh counters in the exit dump. The
//! multithreaded churn program and the trim program (whose `malloc_trim`
//! meshes before it purges) additionally require `pairs_meshed > 0`, and
//! the fork program a child stats line with `forks=1`. A program started
//! with fds 0, 1 and 2 closed checks that the heap's file takes none of
//! them; one that closes the heap's descriptor checks that neither
//! meshing nor a later fork reaches the file that takes its number; and
//! runs under `ulimit -f`, or a limit lowered before a fork, check that
//! the file-size limit caps the heap instead of ending the process.
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
    for name in ["smoke", "edge_semantics", "realloc_churn", "trim_calloc"] {
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
        if name == "trim_calloc" {
            assert!(
                stats["pairs_meshed"] > 0,
                "{name}: malloc_trim meshed nothing:\n{}",
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

/// `program args` under `LD_PRELOAD=libmesh.so`, with every `MESH_*`
/// variable of this environment removed and `env` set instead.
fn preloaded(so: &Path, program: &str, args: &[&str], env: &[(&str, &str)]) -> Command {
    let mut cmd = Command::new(program);
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("MESH_") {
            cmd.env_remove(name);
        }
    }
    cmd.args(args)
        .env("LD_PRELOAD", so)
        .envs(env.iter().copied());
    cmd
}

/// A default preloaded process runs one thread: nothing polls, so there
/// is no `mesh-bg`. Tracing starts it, which shows the count sees it.
#[test]
fn a_default_preloaded_process_runs_one_thread() {
    let so = build_libmesh();
    let tasks = |env: &[(&str, &str)]| {
        let out = preloaded(&so, "ls", &["/proc/self/task"], env)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).lines().count()
    };
    assert_eq!(tasks(&[]), 1, "a default process runs no background thread");
    assert_eq!(tasks(&[("MESH_TRACE", "1")]), 2, "tracing runs mesh-bg");
}

/// A default preloaded process leaves `SIGUSR2` alone: it dies of it, as
/// it would on glibc. (`tests/c_trace.rs` covers the opt-in handler.)
#[test]
fn a_default_preloaded_process_dies_of_sigusr2() {
    use mesh::core::ffi::SIGUSR2;
    use std::os::unix::process::ExitStatusExt;
    let so = build_libmesh();
    let child = preloaded(&so, "sleep", &["5"], &[])
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Once `sleep` sleeps, it has allocated and the heap exists.
    let status = format!("/proc/{}/status", child.id());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !std::fs::read_to_string(&status)
        .unwrap()
        .contains("State:\tS")
    {
        assert!(std::time::Instant::now() < deadline, "sleep never slept");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    assert_eq!(unsafe { kill(child.id() as i32, SIGUSR2) }, 0);
    let out = child.wait_with_output().unwrap();
    assert_eq!(
        out.status.signal(),
        Some(SIGUSR2),
        "SIGUSR2 must end the process: {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A process started with fds 0, 1 and 2 closed: its first three opens
/// get 0, 1 and 2, not the heap's file, so its 4 MiB write to "stdout"
/// lands in its own file and its heap objects keep their stamps
/// (`tests/c/closed_stdio.c` reports through its exit status).
#[test]
fn a_process_without_stdio_keeps_them_for_its_own_files() {
    use std::os::unix::process::CommandExt;
    if !have_cc() {
        eprintln!("skipping closed-stdio preload test: no `cc` in this environment");
        return;
    }
    let so = build_libmesh();
    let out_dir = target_dir().join("c-abi-tests");
    std::fs::create_dir_all(&out_dir).unwrap();
    let bin = compile_c("closed_stdio", &out_dir);
    let files = out_dir.join("closed-stdio-files");
    std::fs::create_dir_all(&files).unwrap();
    let mut cmd = preloaded(&so, bin.to_str().unwrap(), &[files.to_str().unwrap()], &[]);
    // SAFETY: `close` is async-signal-safe, as `pre_exec` requires.
    unsafe {
        cmd.pre_exec(|| {
            for fd in 0..3 {
                mesh::core::ffi::close(fd);
            }
            Ok(())
        });
    }
    let status = cmd.status().expect("spawn failed");
    assert_eq!(status.code(), Some(0), "closed_stdio failed its check {status:?}");
    let out = std::fs::read(files.join("out")).unwrap();
    assert_eq!(out.len(), 4 << 20);
    assert!(out.iter().all(|&b| b == 0x6B), "\"stdout\" holds what was written to it");
}

/// A process that closes every descriptor from 3 up and opens a 64 MiB
/// file, which takes the heap's old number: the heap finds its file gone
/// and stops meshing and purging, so churn, large frees and two
/// `malloc_trim`s leave the file byte-identical and the heap's objects
/// intact (`tests/c/closerange.c`). A `sense` render after the loss
/// reports `file_bytes` as `null`, not the size of the program's file.
#[test]
fn a_process_that_closes_the_heaps_descriptor_keeps_its_file_intact() {
    if !have_cc() {
        eprintln!("skipping closerange preload test: no `cc` in this environment");
        return;
    }
    let so = build_libmesh();
    let out_dir = target_dir().join("c-abi-tests");
    std::fs::create_dir_all(&out_dir).unwrap();
    let bin = compile_c("closerange", &out_dir);
    let data = out_dir.join("closerange-data");
    let run = run_preloaded(&so, &bin, &[data.to_str().unwrap()], None);
    assert!(
        run.stderr.contains("names another file; meshing and purging stop"),
        "no warning line:\n{}",
        run.stderr
    );
    assert_eq!(final_stats(&run)["files_lost"], 1, "{}", run.stderr);
    let sense = run
        .stderr
        .lines()
        .find_map(|line| line.strip_prefix("mesh-sense: "))
        .unwrap_or_else(|| panic!("no sense dump:\n{}", run.stderr));
    let file_bytes: Vec<&str> = sense
        .split("\"file_bytes\":")
        .skip(1)
        .map(|rest| rest.split([',', '}']).next().unwrap())
        .collect();
    // Named once, in the residency, and unknown.
    assert_eq!(file_bytes, ["null"], "{sense}");
    let file = std::fs::read(&data).unwrap();
    assert_eq!(file.len(), 64 << 20);
    let pattern = |i: usize| (i.wrapping_mul(131) + (i >> 12)) as u8;
    assert!(
        file.iter().enumerate().all(|(i, &b)| b == pattern(i)),
        "the data file changed"
    );
    std::fs::remove_file(&data).unwrap();
}

/// A process whose soft `RLIMIT_FSIZE` is below the heap's default cap:
/// the heap's one memory file is sized within the limit, so `ulimit -f
/// 1024` costs the process nothing (it used to die of `SIGXFSZ` at its
/// first malloc, sizing a 64 MiB file). Under a limit below the largest
/// span the heap cannot be built: one stderr line, and the process runs
/// on the system allocator.
#[test]
fn a_low_file_size_limit_caps_the_heap_and_costs_the_process_nothing() {
    if !have_cc() {
        eprintln!("skipping file-size-limit preload test: no `cc` in this environment");
        return;
    }
    let so = build_libmesh();
    let out_dir = target_dir().join("c-abi-tests");
    std::fs::create_dir_all(&out_dir).unwrap();
    let bin = compile_c("fsize_limit", &out_dir);
    let run = |blocks: u32| {
        let (stdout, stderr) = run_under_ulimit(&so, &bin, blocks);
        assert!(stdout.contains("fsize_limit OK"), "{stdout}");
        stderr
    };
    let stderr = run(1024);
    assert!(
        stderr.contains("mesh: mallocs="),
        "the program ran off Mesh:\n{stderr}"
    );
    let stderr = run(100);
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "{stderr}");
    assert!(
        lines[0].contains("File too large") && lines[0].contains("running on the system allocator"),
        "{stderr}"
    );
}

/// Runs `bin` preloaded, with the stats dump, under `ulimit -f blocks`
/// (set by `sh`, in its units), asserts it exits 0 and returns its
/// stdout and stderr.
fn run_under_ulimit(so: &Path, bin: &Path, blocks: u32) -> (String, String) {
    let script = format!("ulimit -f {blocks}; export LD_PRELOAD=\"$0\"; exec \"$1\"");
    let out = preloaded(
        so,
        "sh",
        &["-c", &script],
        &[("MESH_PRINT_STATS_AT_EXIT", "1")],
    )
    .env_remove("LD_PRELOAD")
    .args([so.as_os_str(), bin.as_os_str()])
    .output()
    .expect("spawn failed");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(0),
        "ulimit -f {blocks}: {:?}\n{stdout}\n{stderr}",
        out.status
    );
    (stdout, stderr)
}

/// A process whose soft `RLIMIT_FSIZE` (512 MiB or 1 GiB, by the shell's
/// unit) lies between the largest span and the heap's 8 GiB cap
/// (`tests/c/fsize_cap.c`): the heap's file is held to the limit, so
/// `malloc` returns null once the limit is served, and one `mesh:` line
/// gives the lowered cap when the heap is built.
#[test]
fn a_file_size_limit_below_the_cap_lowers_it_and_says_so() {
    if !have_cc() {
        eprintln!("skipping file-size-cap preload test: no `cc` in this environment");
        return;
    }
    let so = build_libmesh();
    let out_dir = target_dir().join("c-abi-tests");
    std::fs::create_dir_all(&out_dir).unwrap();
    let bin = compile_c("fsize_cap", &out_dir);
    let (stdout, stderr) = run_under_ulimit(&so, &bin, 1 << 20);
    let limit: u64 = stdout
        .strip_prefix("fsize_cap OK limit=")
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("no OK line:\n{stdout}\n{stderr}"));
    let notice = format!(
        "mesh: the soft RLIMIT_FSIZE caps the heap at {} KiB of {} KiB; allocation fails past it",
        limit >> 10,
        8u64 << 20
    );
    let notices: Vec<&str> = stderr
        .lines()
        .filter(|line| line.contains("RLIMIT_FSIZE"))
        .collect();
    assert_eq!(notices, [notice.as_str()], "{stderr}");
}

/// A process that lowers its `RLIMIT_FSIZE` after its heap is built and
/// then forks (`tests/c/fsize_fork.c`): a child under a limit above the
/// frontier copies its heap into a file held to the limit, and one under
/// a limit below it keeps the parent's file, with one `mesh:` line. No
/// child sizes a file past its limit, which would end it with `SIGXFSZ`.
#[test]
fn a_fork_under_a_lowered_file_size_limit_sizes_the_childs_file_within_it() {
    if !have_cc() {
        eprintln!("skipping fork-under-a-limit preload test: no `cc` in this environment");
        return;
    }
    let so = build_libmesh();
    let out_dir = target_dir().join("c-abi-tests");
    std::fs::create_dir_all(&out_dir).unwrap();
    let bin = compile_c("fsize_fork", &out_dir);
    let run = run_preloaded(&so, &bin, &[], None);
    assert!(run.stdout.contains("fsize_fork OK"), "{}", run.stdout);
    let exits: Vec<_> = run.stats.iter().filter(|s| s.contains_key("mallocs")).collect();
    assert_eq!(exits.len(), 2, "the first child and the parent:\n{}", run.stderr);
    assert_eq!(exits[0].get("forks"), Some(&1), "{}", run.stderr);
    let line = |needle: &str| run.stderr.lines().filter(|l| l.contains(needle)).count();
    assert_eq!(
        line("mesh: the soft RLIMIT_FSIZE caps the heap at 65536 KiB of 8388608 KiB"),
        1,
        "{}",
        run.stderr
    );
    assert_eq!(
        line("mesh: fork privatization failed (File too large"),
        1,
        "{}",
        run.stderr
    );
}

/// A process that closes the heap's descriptor, reopens a data file on
/// its number and forks (`tests/c/fork_after_loss.c`): the child's heap
/// is copied through the inherited mapping, not through the number, so
/// the child finds every object and its writes stay out of the parent's
/// heap and out of the data file.
#[test]
fn a_fork_after_the_heaps_file_is_lost_copies_the_heap_not_the_file() {
    if !have_cc() {
        eprintln!("skipping fork-after-loss preload test: no `cc` in this environment");
        return;
    }
    let so = build_libmesh();
    let out_dir = target_dir().join("c-abi-tests");
    std::fs::create_dir_all(&out_dir).unwrap();
    let bin = compile_c("fork_after_loss", &out_dir);
    let data = out_dir.join("fork-after-loss-data");
    let run = run_preloaded(&so, &bin, &[data.to_str().unwrap()], None);
    let exits = run
        .stats
        .iter()
        .filter(|s| s.contains_key("mallocs"))
        .count();
    assert_eq!(exits, 2, "a child and a parent exit line:\n{}", run.stderr);
    assert!(
        run.stats.iter().any(|s| s.get("forks") == Some(&1)),
        "no child reported a privatized fork:\n{}",
        run.stderr
    );
    std::fs::remove_file(&data).unwrap();
}
