//! The background thread: the telemetry beat.
//!
//! Meshing never runs here: passes run inline on the free path when the
//! §4.5 rate limiter says one is due, or on `mesh_now`. A heap that
//! profiles, traces, names a `MESH_SENSE_PATH` or serves a control socket
//! runs one `mesh-bg` thread for the work none of those may do on an
//! allocation path: reports requested by `SIGUSR2` /
//! `Mesh::request_report`, and the mesh-ctl socket
//! (`GlobalHeap::telemetry_tick`). A heap with default settings runs no
//! thread: nothing polls on a clock, and a sense snapshot is taken by the
//! render that shows it.
//!
//! ## Parking
//!
//! The thread parks in [`IDLE_PARK`] slices, so a signal-requested dump
//! waits at most one, or in shorter slices while a control socket is live
//! (`GlobalHeap::next_park`).
//!
//! ## Shutdown handshake
//!
//! The thread holds only a `Weak` reference to the heap, so heap teardown
//! is never blocked on it. Dropping the [`BackgroundThread`] handle
//! (stored inside `MeshInner`, so it drops with the heap) sets the stop
//! flag and unparks the thread; the thread observes the flag — or fails
//! to upgrade its `Weak` — and exits. The thread is deliberately *not*
//! joined: if the final heap handle is dropped by the thread itself
//! (possible when a beat outlives every user handle), a join would be a
//! self-join. Unpark tokens make even an [`IDLE_PARK`] exit immediate.

use crate::alloc_api::{with_internal_alloc, MeshInner};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Park slice when nothing is scheduled (idle heap): long enough that an
/// idle process stays quiet, short enough that a signal-requested dump is
/// honoured promptly.
pub(crate) const IDLE_PARK: Duration = Duration::from_secs(1);

/// Handle to a running background thread. Signals shutdown on drop.
#[derive(Debug)]
pub(crate) struct BackgroundThread {
    stop: Arc<AtomicBool>,
    thread: std::thread::Thread,
}

impl BackgroundThread {
    /// Spawns the background thread for the heap behind `inner`.
    pub fn spawn(inner: Weak<MeshInner>) -> BackgroundThread {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("mesh-bg".into())
            .spawn(move || run(inner, stop2))
            .expect("failed to spawn the background thread");
        BackgroundThread {
            stop,
            thread: handle.thread().clone(),
        }
    }
}

impl Drop for BackgroundThread {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.thread.unpark();
    }
}

fn run(inner: Weak<MeshInner>, stop: Arc<AtomicBool>) {
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        // Upgrade per beat only: holding a strong reference across parks
        // would keep a dead heap's arena mapped forever. A failed upgrade
        // is a race window, not idleness — either spawn-time (we start
        // inside `Arc::new_cyclic`, before the heap's Arc exists) or
        // teardown (the stop flag is about to land) — so park briefly,
        // not for an idle slice.
        let mut park = Duration::from_millis(1);
        if let Some(inner) = inner.upgrade() {
            // Internal-allocation guard: dumps allocate; when this heap is
            // also the process allocator those allocations must go to the
            // system allocator, not recurse into Mesh.
            with_internal_alloc(|| inner.state.telemetry_tick());
            park = inner.state.next_park();
        }
        std::thread::park_timeout(park);
    }
}

#[cfg(test)]
mod tests {
    use crate::{Mesh, MeshConfig};
    use std::time::Duration;

    #[test]
    fn next_park_tracks_deadlines_not_fixed_slices() {
        use crate::global_heap::GlobalHeap;
        use crate::stats::Counters;
        use std::sync::Arc;
        let heap = |cfg: MeshConfig| {
            GlobalHeap::new(
                cfg.arena_bytes(16 << 20).seed(1).write_barrier(false),
                Arc::new(Counters::default()),
            )
            .unwrap()
        };
        // Nothing scheduled: one full idle slice — the ~20× wakeup cut
        // over 50 ms polling.
        let h = heap(MeshConfig::default());
        assert_eq!(h.next_park(), super::IDLE_PARK);
        // Meshing sets no deadline here: passes run on the free path.
        let h = heap(MeshConfig::default().mesh_period(Duration::from_millis(1)));
        assert_eq!(h.next_park(), super::IDLE_PARK);
        // Nor does profiling: its dumps are requested, not timed.
        let h = heap(MeshConfig::default().profiling(true));
        assert_eq!(h.next_park(), super::IDLE_PARK);
        // A listening control socket bounds the park.
        let sock = std::env::temp_dir().join(format!("mesh-park-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let h = heap(MeshConfig::default().ctl(Some(sock.clone())));
        assert_eq!(h.next_park(), crate::telemetry::CTL_PARK);
        drop(h);
        let _ = std::fs::remove_file(&sock);
    }

    /// Fragments a heap while a second thread runs passes back to back,
    /// waits for one to compact, then frees the survivors and checks the
    /// books with the passes still running.
    fn fragment_beside_a_meshing_thread(seed: u64, objects: usize) {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let mesh = Mesh::new(MeshConfig::default().arena_bytes(256 << 20).seed(seed)).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let mesher = {
            let (mesh, stop) = (mesh.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    mesh.mesh_now();
                }
            })
        };
        let mut th = mesh.thread_heap();
        // Fragment: allocate many 64 B objects, free 7 of every 8.
        let ptrs: Vec<usize> = (0..objects).map(|_| th.malloc(64) as usize).collect();
        for (i, &p) in ptrs.iter().enumerate() {
            if i % 8 != 0 {
                unsafe { th.free(p as *mut u8) };
            }
        }
        // Detach so the spans become mesh candidates; only the meshing
        // thread compacts them.
        drop(th);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let s = mesh.stats();
            if s.spans_meshed > 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "the meshing thread never ran a productive pass: {s:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // Survivors still readable and freeable afterwards.
        for (i, &p) in ptrs.iter().enumerate() {
            if i % 8 == 0 {
                unsafe { mesh.free(p as *mut u8) };
            }
        }
        // Every free is accounted for when it returns, whatever the
        // meshing thread is in the middle of: no settling first.
        let s = mesh.stats();
        assert_eq!((s.live_bytes, s.mallocs), (0, s.frees), "seed {seed}");
        stop.store(true, Ordering::Relaxed);
        mesher.join().unwrap();
        mesh.purge_dirty();
        assert_eq!(mesh.stats().live_bytes, 0);
    }

    /// The body above used to fail about once in 45 runs: `stats()` read
    /// `live_bytes` past a queue drain a mesher on another thread had in
    /// flight. There is no queue now; 300 runs against a mesher that is
    /// almost always mid-pass.
    #[test]
    fn stats_never_race_the_background_mesher() {
        for run in 0..300 {
            fragment_beside_a_meshing_thread(1000 + run, 2048);
        }
    }

    #[test]
    fn profiling_heap_serves_dump_requests_via_background_thread() {
        // Profiling alone must spawn the thread, and a requested dump —
        // the SIGUSR2 path minus the signal — must land in MESH_PROF_PATH
        // within one idle slice.
        let path = std::env::temp_dir().join(format!(
            "mesh-mesher-dump-{}.json",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let mesh = Mesh::new(
            MeshConfig::default()
                .arena_bytes(16 << 20)
                .seed(3)
                .profiling(true)
                .prof_sample_bytes(1024)
                .prof_path(Some(path.clone())),
        )
        .unwrap();
        let p = mesh.malloc(100_000); // large: traced exactly
        assert!(!p.is_null());
        mesh.request_report(crate::Report::Profile);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(s) = std::fs::read_to_string(&path) {
                assert!(s.contains("\"mesh_profile_version\":1"), "{s}");
                // Large allocations account page-rounded: 25 pages.
                assert!(s.contains("\"live_bytes_exact\":102400"), "{s}");
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "background thread never served the dump request"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        unsafe { mesh.free(p) };
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn only_a_heap_with_a_dump_to_serve_runs_the_thread() {
        use crate::global_heap::GlobalHeap;
        let runs = |cfg: MeshConfig| {
            GlobalHeap::new(cfg.arena_bytes(16 << 20).seed(4), Default::default())
                .unwrap()
                .background_thread_wanted()
        };
        assert!(!runs(MeshConfig::default()), "a default heap polls nothing");
        assert!(runs(MeshConfig::default().profiling(true)));
        assert!(runs(MeshConfig::default().tracing(true)));
        let path = std::env::temp_dir().join(format!("mesh-bg-{}.json", std::process::id()));
        assert!(runs(MeshConfig::default().sense_path(Some(path))));
    }

    #[test]
    fn dropping_the_heap_stops_the_mesher() {
        let mesh = Mesh::new(
            MeshConfig::default()
                .arena_bytes(16 << 20)
                .seed(5)
                .mesh_period(Duration::from_millis(1)),
        )
        .unwrap();
        let p = mesh.malloc(64);
        unsafe { mesh.free(p) };
        drop(mesh);
        // Nothing to assert beyond "no hang / no crash": the thread holds
        // only a Weak and the drop signalled its stop flag.
        std::thread::sleep(Duration::from_millis(20));
    }
}
