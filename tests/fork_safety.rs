//! Real `fork()` through the Rust API: `Mesh::fork_prepare` +
//! `MeshForkGuard::{release_parent, release_child}` — the protocol the
//! `libmesh.so` atfork handlers drive, exercised here without the C
//! layer. The child overwrites every shared-looking buffer; because the
//! arena is `MAP_SHARED` memory files, only segment privatization keeps
//! those writes out of the parent.
//!
//! The heap runs with tracing on, so the fork protocol's telemetry
//! contract is exercised too: the child starts with wiped trace rings
//! and zeroed latency histograms (no inherited parent history), records
//! its own events from its own churn, and the parent's trace survives
//! the fork intact.
//!
//! A second fork checks the report pipeline's half of the contract: a
//! dump requested before the fork (a `SIGUSR2` that has not been served
//! yet) is the parent's to write. The child starts with no pending
//! request, so its first telemetry beat leaves the dump file alone.
//!
//! A third fork is taken while the alias spans of dead meshed MiniHeaps
//! are parked (DESIGN.md §2a): the child's whole-segment identity remap
//! is the restore they were waiting for, so both processes go on to
//! allocate over those spans, each in its own file.
//!
//! A fourth is taken while one thread records ledger passes and another
//! sense snapshots. Their rings take no lock, so the fork does not wait
//! for them: the child must still render both reports promptly, with an
//! empty ledger.
//!
//! Own test binary: forking a multi-threaded cargo-test harness is only
//! safe when this file's single test is all that runs in the process.

mod support;

use mesh::core::ffi;
use mesh::core::{Mesh, MeshConfig, Report, TimedOp};
use support::{arena_base, arena_mappings, report_text};

const SLOTS: usize = 384;
const SIZE: usize = 1500;

fn parent_tag(i: usize) -> u8 {
    0x40 | (i as u8 & 0x3F)
}

fn child_tag(i: usize) -> u8 {
    0x80 | (i as u8 & 0x3F)
}

/// Child-side body; returns success instead of panicking (a panic would
/// unwind into the forked copy of the test harness).
fn child_body(mesh: &Mesh, ptrs: &[*mut u8]) -> bool {
    // Telemetry fork contract: the parent's refill history (latency and
    // trace events) must not leak into the child. Refill only fires on
    // mutator threads, so the freshly respawned background thread cannot
    // race these checks the way drain/mesh ops could.
    if mesh.stats().latency.count(TimedOp::Refill) != 0 {
        return false;
    }
    match report_text(mesh, Report::Trace) {
        Some(json) if json.contains("\"name\":\"refill\"") => return false,
        Some(_) => {}
        None => return false, // tracing must survive the fork
    }
    for (i, &p) in ptrs.iter().enumerate() {
        for j in (0..SIZE).step_by(11) {
            if unsafe { *p.add(j) } != parent_tag(i) {
                return false;
            }
        }
    }
    // Overwrite with the child's pattern: must not reach the parent.
    for (i, &p) in ptrs.iter().enumerate() {
        unsafe { std::ptr::write_bytes(p, child_tag(i), SIZE) };
    }
    // Churn the allocator: refills, large objects, frees.
    for round in 0..5_000usize {
        let size = 1 + (round * 37) % 3000;
        let q = mesh.malloc(size);
        if q.is_null() {
            return false;
        }
        unsafe {
            std::ptr::write_bytes(q, 0xEE, size);
            mesh.free(q);
        }
    }
    for (i, &p) in ptrs.iter().enumerate() {
        for j in (0..SIZE).step_by(11) {
            if unsafe { *p.add(j) } != child_tag(i) {
                return false;
            }
        }
    }
    // The child's own churn refilled shuffle vectors: its rings and
    // histograms must now carry child-recorded events.
    if mesh.stats().latency.count(TimedOp::Refill) == 0 {
        return false;
    }
    match report_text(mesh, Report::Trace) {
        Some(json) if !json.contains("\"name\":\"refill\"") => return false,
        Some(_) => {}
        None => return false,
    }
    mesh.stats().forks == 1
}

#[test]
fn fork_preserves_parent_and_child_heaps() {
    let mesh = Mesh::new(
        MeshConfig::default()
            .seed(23)
            .arena_bytes(128 << 20)
            .initial_segment_bytes(4 << 20)
            .segment_bytes(4 << 20)
            .tracing(true)
            .trace_buf_events(1 << 10),
    )
    .unwrap();
    let ptrs: Vec<*mut u8> = (0..SLOTS).map(|_| mesh.malloc(SIZE)).collect();
    for (i, &p) in ptrs.iter().enumerate() {
        assert!(!p.is_null());
        unsafe { std::ptr::write_bytes(p, parent_tag(i), SIZE) };
    }
    // Mesh some spans first so alias restoration is exercised too.
    let small: Vec<*mut u8> = (0..4096).map(|_| mesh.malloc(64)).collect();
    for (i, &p) in small.iter().enumerate() {
        if i % 8 != 0 {
            unsafe { mesh.free(p) };
        } else {
            unsafe { std::ptr::write_bytes(p, 0x3C, 64) };
        }
    }
    mesh.mesh_now();
    assert!(
        mesh.stats().latency.count(TimedOp::Refill) > 0,
        "parent recorded no refills before forking"
    );

    let guard = mesh.fork_prepare();
    let pid = unsafe { ffi::fork() };
    assert!(pid >= 0, "fork failed");
    if pid == 0 {
        guard.release_child();
        let ok = child_body(&mesh, &ptrs)
            && small
                .iter()
                .step_by(8)
                .all(|&p| unsafe { *p } == 0x3C && unsafe { *p.add(63) } == 0x3C);
        // _exit: the forked harness copy must not run its own teardown.
        unsafe { ffi::_exit(if ok { 0 } else { 1 }) };
    }
    guard.release_parent();

    let mut status: i32 = -1;
    let waited = unsafe { ffi::waitpid(pid, &mut status, 0) };
    assert_eq!(waited, pid, "waitpid failed");
    assert!(
        status & 0x7F == 0 && (status >> 8) & 0xFF == 0,
        "child failed: raw status {status:#x}"
    );

    // The child's overwrites and churn must not have reached the parent.
    for (i, &p) in ptrs.iter().enumerate() {
        for j in (0..SIZE).step_by(11) {
            assert_eq!(
                unsafe { *p.add(j) },
                parent_tag(i),
                "slot {i} corrupted by the forked child"
            );
        }
    }
    for &p in small.iter().step_by(8) {
        assert_eq!(unsafe { *p }, 0x3C, "meshed survivor corrupted");
        unsafe { mesh.free(p) };
    }
    for &p in &ptrs {
        unsafe { mesh.free(p) };
    }
    let stats = mesh.stats();
    assert_eq!(stats.forks, 0, "parent never privatizes");
    assert_eq!(stats.double_frees, 0);

    // The parent's telemetry is untouched by the fork: its pre-fork
    // refill history still renders as valid single-line Chrome JSON.
    assert!(
        stats.latency.count(TimedOp::Refill) > 0,
        "fork wiped the parent's latency history"
    );
    let json = report_text(&mesh, Report::Trace).expect("tracing on");
    assert!(json.starts_with("{\"traceEvents\":["), "bad envelope: {json}");
    assert!(json.contains("\"mesh_trace_version\":1"));
    assert!(
        json.contains("\"name\":\"refill\""),
        "fork wiped the parent's trace rings"
    );

    pending_profile_request_stays_with_the_parent();
    parked_aliases_are_clean_spans_in_the_child();
    fork_while_recording();
}

/// Waits for `pid` up to `limit`, killing it past that. Returns its raw
/// wait status, or `None` when it had to be killed.
fn wait_with_timeout(pid: i32, limit: std::time::Duration) -> Option<i32> {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const WNOHANG: i32 = 1;
    const SIGKILL: i32 = 9;
    let deadline = std::time::Instant::now() + limit;
    let mut status: i32 = -1;
    loop {
        match unsafe { ffi::waitpid(pid, &mut status, WNOHANG) } {
            0 if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            0 => {
                unsafe {
                    kill(pid, SIGKILL);
                    ffi::waitpid(pid, &mut status, 0);
                }
                return None;
            }
            waited => {
                assert_eq!(waited, pid, "waitpid failed");
                return Some(status);
            }
        }
    }
}

fn fork_while_recording() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let mesh = Mesh::new(MeshConfig::default().seed(37).arena_bytes(64 << 20)).unwrap();
    assert!(mesh.is_sensing());
    let stop = AtomicBool::new(false);
    let (passes, polls) = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                mesh.mesh_now();
                passes.fetch_add(1, Ordering::Relaxed);
            }
        });
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                report_text(&mesh, Report::Sense).expect("sensing on");
                polls.fetch_add(1, Ordering::Relaxed);
            }
        });
        // Both recorders are past their first push and still looping.
        while passes.load(Ordering::Relaxed) == 0 || polls.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }

        let guard = mesh.fork_prepare();
        let pid = unsafe { ffi::fork() };
        assert!(pid >= 0, "fork failed");
        if pid == 0 {
            guard.release_child();
            let ledger = report_text(&mesh, Report::Ledger).unwrap_or_default();
            let sense = report_text(&mesh, Report::Sense).unwrap_or_default();
            let ok = ledger.contains("\"passes_recorded\":0,")
                && ledger.contains("\"passes\":[]")
                && mesh.ledger_recent().is_empty()
                && sense.starts_with("{\"mesh_sense_version\":1,")
                && mesh.sense_latest().is_some();
            unsafe { ffi::_exit(if ok { 0 } else { 1 }) };
        }
        guard.release_parent();
        let status = wait_with_timeout(pid, std::time::Duration::from_secs(30));
        stop.store(true, Ordering::Relaxed);
        let status = status.expect("the child hung rendering its ledger or sense report");
        assert!(
            status & 0x7F == 0 && (status >> 8) & 0xFF == 0,
            "the child's ledger or sense report was wrong: raw status {status:#x}"
        );
    });
    assert!(
        mesh.ledger_recent().len() > 1,
        "the parent's ledger survives"
    );
}

/// Fills fresh 64-byte objects with their own index until `count` are
/// held, then checks that none shows another's bytes: no two spans they
/// came from share a page.
fn allocate_distinct(mesh: &Mesh, count: usize) -> Option<Vec<*mut u8>> {
    let objects: Vec<*mut u8> = (0..count).map(|_| mesh.malloc(64)).collect();
    for (i, &p) in objects.iter().enumerate() {
        if p.is_null() {
            return None;
        }
        unsafe { (p as *mut [usize; 8]).write([i; 8]) };
    }
    let distinct =
        |(i, &p): (usize, &*mut u8)| unsafe { (p as *const [usize; 8]).read() } == [i; 8];
    objects.iter().enumerate().all(distinct).then_some(objects)
}

fn parked_aliases_are_clean_spans_in_the_child() {
    const ARENA: usize = 32 << 20;
    // The one purge a mesh period allows goes to the first pass below;
    // the second only settles the spans frees emptied.
    let mesh = Mesh::new(
        MeshConfig::default()
            .seed(31)
            .arena_bytes(ARENA)
            .initial_segment_bytes(ARENA)
            .mesh_period(std::time::Duration::from_secs(3600)),
    )
    .unwrap();
    let base = arena_base(&mesh);
    let ptrs: Vec<*mut u8> = (0..SLOTS).map(|_| mesh.malloc(SIZE)).collect();
    for (i, &p) in ptrs.iter().enumerate() {
        unsafe { std::ptr::write_bytes(p, parent_tag(i), SIZE) };
    }
    let tags_intact = |ptrs: &[*mut u8]| {
        let tagged = |(i, &p): (usize, &*mut u8)| unsafe {
            *p == parent_tag(i) && *p.add(SIZE - 1) == parent_tag(i)
        };
        ptrs.iter().enumerate().all(tagged)
    };

    // Mesh sparse spans, then free what is left in them.
    let mut heap = mesh.thread_heap();
    let small: Vec<*mut u8> = (0..8192).map(|_| heap.malloc(64)).collect();
    for (i, &p) in small.iter().enumerate() {
        if i % 8 != 0 {
            unsafe { heap.free(p) };
        }
    }
    drop(heap);
    let unmeshed = arena_mappings(base, ARENA).len();
    let pairs = mesh.mesh_now().pairs_meshed;
    assert!(pairs > 20, "only {pairs} pairs meshed");
    for &p in small.iter().step_by(8) {
        unsafe { mesh.free(p) };
    }
    mesh.mesh_now();
    assert!(
        arena_mappings(base, ARENA).len() > unmeshed + pairs / 2,
        "the dead MiniHeaps' aliases are not parked"
    );

    let guard = mesh.fork_prepare();
    let pid = unsafe { ffi::fork() };
    assert!(pid >= 0, "fork failed");
    if pid == 0 {
        guard.release_child();
        // Enough to take every dead span again, the once-parked included.
        let ok = tags_intact(&ptrs)
            && allocate_distinct(&mesh, 16384).is_some()
            && tags_intact(&ptrs)
            && arena_mappings(base, ARENA).len() <= unmeshed;
        unsafe { ffi::_exit(if ok { 0 } else { 1 }) };
    }
    guard.release_parent();
    let mut status: i32 = -1;
    assert_eq!(
        unsafe { ffi::waitpid(pid, &mut status, 0) },
        pid,
        "waitpid failed"
    );
    assert!(
        status & 0x7F == 0 && (status >> 8) & 0xFF == 0,
        "child failed: raw status {status:#x}"
    );

    // The parent restores its own parked aliases when it needs the room.
    assert!(tags_intact(&ptrs), "the child reached the parent's objects");
    let objects = allocate_distinct(&mesh, 16384).expect("a span was handed out twice");
    assert!(tags_intact(&ptrs));
    for p in objects.into_iter().chain(ptrs) {
        unsafe { mesh.free(p) };
    }
    let stats = mesh.stats();
    assert_eq!(
        (stats.live_bytes, stats.double_frees, stats.invalid_frees),
        (0, 0, 0)
    );
}

/// The profile case of the pending-request contract, next to the trace
/// case above. The request is made with the fork guard held (the
/// parent's background thread cannot serve it: rendering needs the shard
/// locks), so the fork snapshots a heap with the request still pending.
fn pending_profile_request_stays_with_the_parent() {
    let path = std::env::temp_dir().join(format!("mesh-fork-prof-{}.json", std::process::id()));
    std::fs::remove_file(&path).ok();
    let mesh = Mesh::new(
        MeshConfig::default()
            .seed(29)
            .arena_bytes(64 << 20)
            .profiling(true)
            .prof_sample_bytes(4096)
            .prof_path(Some(path.clone())),
    )
    .unwrap();
    let p = mesh.malloc(100_000);
    assert!(!p.is_null());

    let guard = mesh.fork_prepare();
    mesh.request_report(Report::Profile);
    let pid = unsafe { ffi::fork() };
    assert!(pid >= 0, "fork failed");
    if pid == 0 {
        guard.release_child();
        // The respawned background thread beats once as it starts; an
        // inherited request would be served well within this wait.
        std::thread::sleep(std::time::Duration::from_millis(500));
        unsafe { ffi::_exit(if path.exists() { 1 } else { 0 }) };
    }
    // The parent keeps every heap lock until the child is gone, so only
    // the child could have written the file by then.
    let mut status: i32 = -1;
    assert_eq!(unsafe { ffi::waitpid(pid, &mut status, 0) }, pid, "waitpid failed");
    assert!(
        status & 0x7F == 0 && (status >> 8) & 0xFF == 0,
        "the child served the parent's pending profile request: raw status {status:#x}"
    );
    assert!(!path.exists(), "nothing may be written while the fork guard is held");
    guard.release_parent();

    // The request was the parent's all along: it is served here.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !std::fs::read_to_string(&path).is_ok_and(|doc| doc.ends_with("]}\n")) {
        assert!(
            std::time::Instant::now() < deadline,
            "the fork lost the parent's pending profile request"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    std::fs::remove_file(&path).ok();
    unsafe { mesh.free(p) };
}
