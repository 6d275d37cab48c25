//! What the benchmark needs from outside its own binary: `libmesh.so`
//! built from `../crates/abi`, `c/kv.c` compiled with the system `cc`, and
//! the facts about the machine that go into every record.

use crate::json::{obj, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The benchmark's directory (`mesh-bench/` in the repository).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where build outputs go: `CARGO_TARGET_DIR` when set (made absolute),
/// else `mesh-bench/target`.
pub fn target_dir() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => {
            let dir = PathBuf::from(dir);
            if dir.is_absolute() {
                dir
            } else {
                std::env::current_dir().unwrap_or_default().join(dir)
            }
        }
        None => bench_dir().join("target"),
    }
}

/// Scratch outputs of a run (child stderr captures, the latest record).
pub fn out_dir() -> PathBuf {
    target_dir().join("mesh-bench-out")
}

/// The built artefacts `preload_kv` and the `abi.*` rows need.
#[derive(Debug, Clone)]
pub struct Artifacts {
    pub libmesh: PathBuf,
    /// `None` when there is no `cc`: `preload_kv` cannot run.
    pub kv: Option<PathBuf>,
    /// Time the (usually no-op) builds took.
    pub build_s: f64,
}

pub fn have_cc() -> bool {
    Command::new("cc")
        .arg("--version")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

fn newer_than(a: &Path, b: &Path) -> bool {
    let mtime = |p: &Path| std::fs::metadata(p).and_then(|m| m.modified()).ok();
    match (mtime(a), mtime(b)) {
        (Some(a), Some(b)) => a > b,
        _ => true,
    }
}

/// Builds `libmesh.so` (release, the repository's own profile) and `kv`.
/// Both are no-ops when up to date, so every run calls this and whichever
/// run comes first in a checkout pays for the build.
pub fn ensure_built() -> Result<Artifacts, String> {
    let t0 = Instant::now();
    let target = target_dir();
    let abi_manifest = bench_dir().join("../crates/abi/Cargo.toml");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(&abi_manifest)
        .env("CARGO_TARGET_DIR", &target)
        .env_remove("LD_PRELOAD")
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building libmesh.so failed ({status})"));
    }
    let libmesh = target.join("release").join("libmesh.so");
    if !libmesh.exists() {
        return Err(format!("missing {}", libmesh.display()));
    }

    let kv = if have_cc() {
        let src = bench_dir().join("c/kv.c");
        let dir = target.join("mesh-bench-c");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let bin = dir.join("kv");
        if newer_than(&src, &bin) {
            let status = Command::new("cc")
                .args(["-O2", "-g", "-Wall", "-Wextra", "-pthread"])
                .arg(&src)
                .arg("-o")
                .arg(&bin)
                .status()
                .map_err(|e| format!("cannot run cc: {e}"))?;
            if !status.success() {
                return Err(format!("compiling kv.c failed ({status})"));
            }
        }
        Some(bin)
    } else {
        None
    };
    Ok(Artifacts {
        libmesh,
        kv,
        build_s: t0.elapsed().as_secs_f64(),
    })
}

fn first_line_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.stderr(Stdio::null()).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .map(str::to_string)
    })?
}

/// Commit, core count, CPU model and kernel: the header of every record.
pub fn machine() -> Value {
    let root = bench_dir().join("..");
    let commit = first_line_of(
        Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(["rev-parse", "HEAD"]),
    )
    .unwrap_or_else(|| "unknown".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    obj([
        ("commit", commit.into()),
        ("nproc", nproc().into()),
        ("cpu_model", cpu.into()),
        ("kernel", kernel.into()),
    ])
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread to the `k`th CPU it is allowed to run on, when
/// it is allowed at least two; otherwise leaves it alone. The two-thread
/// workloads pin their threads apart: left to the scheduler, the pair
/// sometimes shares one CPU for seconds on end, which serialises them (and
/// makes a lock-bound run several times *faster*, a second mode no
/// allocator change causes).
pub fn pin_to_cpu(k: usize) {
    let mut allowed = [0u64; 16];
    // SAFETY: the mask is 128 writable bytes, as the size says.
    if unsafe { sched_getaffinity(0, 128, allowed.as_mut_ptr()) } != 0 {
        return;
    }
    let cpus: Vec<usize> = (0..1024)
        .filter(|c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if cpus.len() < 2 {
        return;
    }
    let cpu = cpus[k % cpus.len()];
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the mask is 128 readable bytes; failure leaves the thread unpinned.
    unsafe { sched_setaffinity(0, 128, mask.as_ptr()) };
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
