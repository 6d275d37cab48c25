//! `MeshGlobalAlloc` runs the process runtime's fork protocol and exit
//! dumps, as `libmesh.so` does. A forked child's writes stay in the child
//! (the arena is `MAP_SHARED` memory files, which `fork` does not
//! copy-on-write), and `MESH_PRINT_STATS_AT_EXIT=1 MESH_PROF=1` prints the
//! `mesh:` stats line and the `mesh-prof:` line when the process exits.
//!
//! Own test binary: the adapter is this binary's `#[global_allocator]`.

use mesh::core::ffi;
use mesh::core::MeshGlobalAlloc;
use std::process::Command;

#[global_allocator]
static A: MeshGlobalAlloc = MeshGlobalAlloc;

/// Set in the re-run of this binary that exits with the dumps on.
const EXIT_CHILD: &str = "MESH_TEST_EXIT_CHILD";

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Waits up to 30 s for `pid` and returns its wait status. A child that
/// inherited a heap lock held (no fork protocol) hangs: kill it and fail.
fn wait_bounded(pid: i32) -> i32 {
    const WNOHANG: i32 = 1;
    let mut status = 0;
    for _ in 0..3000 {
        match unsafe { ffi::waitpid(pid, &mut status, WNOHANG) } {
            0 => std::thread::sleep(std::time::Duration::from_millis(10)),
            reaped => {
                assert_eq!(reaped, pid, "waitpid failed");
                return status;
            }
        }
    }
    unsafe { kill(pid, 9) };
    unsafe { ffi::waitpid(pid, &mut status, 0) };
    panic!("the forked child hung (a lock inherited held?) and was killed");
}

#[test]
fn forked_child_writes_stay_in_the_child() {
    let mut buf = vec![1u8; 4096];
    assert!(
        MeshGlobalAlloc::mesh().contains(buf.as_ptr()),
        "the buffer is on the Mesh heap"
    );
    let pid = unsafe { ffi::fork() };
    assert!(pid >= 0, "fork failed");
    if pid == 0 {
        buf.fill(2);
        let churn: Vec<Box<[u8; 256]>> = (0..1024).map(|_| Box::new([3u8; 256])).collect();
        drop(churn);
        let privatized = MeshGlobalAlloc::mesh().stats().forks == 1;
        unsafe { ffi::_exit(if privatized { 0 } else { 1 }) };
    }
    let status = wait_bounded(pid);
    assert!(
        buf.iter().all(|&b| b == 1),
        "the child's write reached the parent's buffer"
    );
    assert_eq!(
        status, 0,
        "the child's heap did not count one privatized fork"
    );
}

#[test]
fn exit_prints_the_stats_and_profile_lines() {
    if std::env::var_os(EXIT_CHILD).is_some() {
        let words: Vec<String> = (0..1000).map(|i| i.to_string()).collect();
        assert_eq!(words.len(), 1000);
        return;
    }
    let out = Command::new(std::env::current_exe().unwrap())
        .args(["exit_prints_the_stats_and_profile_lines", "--exact"])
        .env(EXIT_CHILD, "1")
        .env("MESH_PRINT_STATS_AT_EXIT", "1")
        .env("MESH_PROF", "1")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "child failed:\n{stderr}");
    let lines = |prefix: &str| stderr.lines().filter(|l| l.starts_with(prefix)).count();
    assert_eq!(
        (lines("mesh: mallocs="), lines("mesh-prof: ")),
        (1, 1),
        "child stderr:\n{stderr}"
    );
}
