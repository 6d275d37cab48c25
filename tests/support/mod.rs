//! Shared plumbing for the C-preload integration tests (`c_abi.rs`,
//! `c_prof.rs`, `c_trace.rs`): locating the workspace, building
//! `libmesh.so`, compiling C helpers, and panicking accessors over
//! `mesh_core::json` for validating dump schemas. Also the arena as
//! `/proc/self/maps` shows it (`vm_batching.rs`, `fork_safety.rs`), and a
//! thread that meshes beside a test's mutators (`concurrent_stress.rs`,
//! `arena_frontier.rs`, `proptest_invariants.rs`).

#![allow(dead_code)] // each test binary uses its own subset

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| workspace_root().join("target"))
}

pub fn have_cc() -> bool {
    Command::new("cc")
        .arg("--version")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok()
}

/// Builds the interposition library once (cargo dedupes concurrent
/// builds via its own lock) and returns its path.
pub fn build_libmesh() -> PathBuf {
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

/// Compiles `tests/c/<name>.c` to `<out_dir>/<name>` with the given
/// extra flags (frame pointers, optimization level, …).
pub fn compile_c(name: &str, out_dir: &Path, flags: &[&str]) -> PathBuf {
    let src = workspace_root().join(format!("tests/c/{name}.c"));
    let bin = out_dir.join(name);
    let status = Command::new("cc")
        .args(flags)
        .arg(&src)
        .arg("-o")
        .arg(&bin)
        .status()
        .expect("failed to invoke cc");
    assert!(status.success(), "cc failed for {name}.c");
    bin
}

// ---------------------------------------------------------------------
// Panicking accessors over `mesh_core::json`: a test wants a schema
// violation to fail loudly at the lookup, not thread `Option`s.
// ---------------------------------------------------------------------

pub use mesh::core::json::Json;
use mesh::core::{Mesh, Report};

pub struct Parser;

impl Parser {
    pub fn parse(text: &str) -> Json {
        Json::parse(text).unwrap_or_else(|e| panic!("bad JSON ({e}): {text}"))
    }
}

pub trait JsonExt {
    fn get(&self, key: &str) -> &Json;
    fn opt(&self, key: &str) -> Option<&Json>;
    /// The value as a non-negative integer (panics on fractional values:
    /// schema fields documented as integers must serialize as integers).
    fn num(&self) -> u64;
    fn float(&self) -> f64;
    fn str(&self) -> &str;
    fn arr(&self) -> &[Json];
}

impl JsonExt for Json {
    fn get(&self, key: &str) -> &Json {
        self.opt(key)
            .unwrap_or_else(|| panic!("missing key {key:?} in {self:?}"))
    }

    fn opt(&self, key: &str) -> Option<&Json> {
        assert!(
            self.as_object().is_some(),
            "key lookup {key:?} on non-object {self:?}"
        );
        self.field(key)
    }

    fn num(&self) -> u64 {
        match self.as_f64() {
            Some(n) if n.fract() == 0.0 && n >= 0.0 => n as u64,
            _ => panic!("expected integer, got {self:?}"),
        }
    }

    fn float(&self) -> f64 {
        self.as_f64()
            .unwrap_or_else(|| panic!("expected number, got {self:?}"))
    }

    fn str(&self) -> &str {
        self.as_str()
            .unwrap_or_else(|| panic!("expected string, got {self:?}"))
    }

    fn arr(&self) -> &[Json] {
        self.as_array()
            .unwrap_or_else(|| panic!("expected array, got {self:?}"))
    }
}

/// `Mesh::report` as text (`None` when the kind's subsystem is off).
pub fn report_text(mesh: &Mesh, kind: Report) -> Option<String> {
    let bytes = mesh.report(kind).ok()?;
    Some(String::from_utf8(bytes).expect("text report"))
}

// ---------------------------------------------------------------------
// The arena's mappings, as the kernel reports them.
// ---------------------------------------------------------------------

/// The base of the arena of a heap that has carved nothing yet: its first
/// span starts the reservation. Page 0 stays with the 16-byte class.
pub fn arena_base(mesh: &Mesh) -> usize {
    let first = mesh.malloc(16);
    let base = first as usize & !(mesh::core::PAGE_SIZE - 1);
    assert!(mesh.contains(base as *const u8) && !mesh.contains((base - 1) as *const u8));
    unsafe { mesh.free(first) };
    base
}

/// The inode of each `/proc/self/maps` line that starts inside
/// `[base, base + len)`: one entry per mapping the kernel keeps there.
pub fn arena_mappings(base: usize, len: usize) -> Vec<u64> {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs");
    maps.lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (start, _) = fields.next()?.split_once('-')?;
            let start = usize::from_str_radix(start, 16).ok()?;
            let inode = fields.nth(3)?.parse().ok()?;
            (start >= base && start < base + len).then_some(inode)
        })
        .collect()
}

// ---------------------------------------------------------------------
// A second source of passes.
// ---------------------------------------------------------------------

/// A thread running `mesh_now()` passes back to back, a millisecond
/// apart, until [`MeshingThread::stop`]: what a concurrency test races
/// its mutators against.
pub struct MeshingThread {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    thread: std::thread::JoinHandle<u64>,
}

impl MeshingThread {
    pub fn spawn(mesh: &Mesh) -> MeshingThread {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (mesh, flag) = (mesh.clone(), std::sync::Arc::clone(&stop));
        let thread = std::thread::spawn(move || {
            let mut passes = 0;
            while !flag.load(std::sync::atomic::Ordering::Relaxed) {
                mesh.mesh_now();
                passes += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            passes
        });
        MeshingThread { stop, thread }
    }

    /// Stops the thread and returns how many passes it ran.
    pub fn stop(self) -> u64 {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        self.thread.join().expect("the meshing thread panicked")
    }
}
