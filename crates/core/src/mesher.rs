//! The background thread (§4.5's mesher, moved off the allocation path,
//! plus the telemetry beat).
//!
//! With [`crate::MeshConfig::background_meshing`] enabled, meshing no
//! longer runs inline on the free path: a dedicated thread does what
//! frees left to lock holders (the spans they emptied or opened up) and
//! runs a pass when the shared
//! [`MeshScheduler`](crate::global_heap) says one is due. The §4.5
//! semantics are unchanged — same rate limiter, same low-yield pause rule
//! (and the pause is still lifted by a free reaching the global heap) —
//! only the executing thread differs. With profiling on (`MESH_PROF`)
//! the same thread also carries the telemetry beat: interval profile
//! dumps and reports requested by `SIGUSR2` / `Mesh::request_report`.
//!
//! ## Parking
//!
//! The thread parks until the *next deadline* — the meshing scheduler's
//! next due time or the next interval dump, whichever is sooner
//! (`GlobalHeap::next_park`) — instead of polling in fixed 50 ms slices
//! as it used to. A fully idle heap (paused timer, no dump interval)
//! parks in [`IDLE_PARK`] slices, ~20× fewer wakeups than the old
//! polling. The §4.5 pause is lifted asynchronously by a free reaching
//! the global heap, so an idle park may overshoot the first pass after a
//! resume by up to one slice — bounded staleness the 100 ms-granularity
//! scheduler already tolerates.
//!
//! ## Shutdown handshake
//!
//! The thread holds only a `Weak` reference to the heap, so heap teardown
//! is never blocked on it. Dropping the [`BackgroundMesher`] handle
//! (stored inside `MeshInner`, so it drops with the heap) sets the stop
//! flag and unparks the thread; the thread observes the flag — or fails
//! to upgrade its `Weak` — and exits. The thread is deliberately *not*
//! joined: if the final heap handle is dropped by the mesher itself
//! (possible when a pass outlives every user handle), a join would be a
//! self-join. Unpark tokens make even an [`IDLE_PARK`] exit immediate.

use crate::alloc_api::{with_internal_alloc, MeshInner};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Park slice when nothing is scheduled (idle heap): long enough that an
/// idle process stays quiet, short enough that a lifted §4.5 pause or a
/// signal-requested dump is honoured promptly.
pub(crate) const IDLE_PARK: Duration = Duration::from_secs(1);

/// Handle to a running background mesher. Signals shutdown on drop.
#[derive(Debug)]
pub(crate) struct BackgroundMesher {
    stop: Arc<AtomicBool>,
    thread: std::thread::Thread,
}

impl BackgroundMesher {
    /// Spawns the mesher for the heap behind `inner`.
    pub fn spawn(inner: Weak<MeshInner>) -> BackgroundMesher {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("mesh-bg-mesher".into())
            .spawn(move || run(inner, stop2))
            .expect("failed to spawn background mesher");
        BackgroundMesher {
            stop,
            thread: handle.thread().clone(),
        }
    }
}

impl Drop for BackgroundMesher {
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
        // Upgrade per tick only: holding a strong reference across parks
        // would keep a dead heap's arena mapped forever. A failed upgrade
        // is a race window, not idleness — either spawn-time (we start
        // inside `Arc::new_cyclic`, before the heap's Arc exists) or
        // teardown (the stop flag is about to land) — so park briefly,
        // not for an idle slice that would delay the first pass by a
        // second.
        let mut park = Duration::from_millis(1);
        if let Some(inner) = inner.upgrade() {
            // Internal-allocation guard: passes and dumps allocate; when
            // this heap is also the process allocator those allocations
            // must go to the system allocator, not recurse into Mesh.
            with_internal_alloc(|| {
                if inner.state.rt.background_meshing {
                    inner.state.tidy_all_classes();
                    inner.state.maybe_mesh();
                }
                inner.state.telemetry_tick();
            });
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
        // Nothing scheduled (no background meshing, no telemetry, sensing
        // off): one full idle slice — the ~20× wakeup cut over 50 ms
        // polling.
        let h = heap(MeshConfig::default().sense_interval(None));
        assert_eq!(h.next_park(), super::IDLE_PARK);
        // Default-on sensing (1 s interval) bounds the park by the poll.
        let h = heap(MeshConfig::default());
        assert!(h.next_park() <= Duration::from_secs(1));
        // Background meshing with a 100 ms period: park to the deadline.
        let h = heap(
            MeshConfig::default()
                .sense_interval(None)
                .background_meshing(true)
                .mesh_period(Duration::from_millis(100)),
        );
        let park = h.next_park();
        assert!(park <= Duration::from_millis(100), "{park:?}");
        assert!(park >= Duration::from_millis(1), "{park:?}");
        // A low-yield pass pauses the timer (§4.5): no deadline remains,
        // so the thread parks idle instead of polling the paused clock.
        h.mesh_now();
        assert!(h.scheduler.is_paused(), "empty heap pass must pause");
        assert_eq!(h.next_park(), super::IDLE_PARK);
        // The telemetry dump interval bounds the park when it is sooner.
        let h = heap(
            MeshConfig::default()
                .background_meshing(true)
                .mesh_period(Duration::from_secs(30))
                .profiling(true)
                .prof_interval(Some(Duration::from_millis(20))),
        );
        assert!(h.next_park() <= Duration::from_millis(20));
    }

    /// Fragments a heap whose only mesher is the background thread, waits
    /// for it to compact, frees the survivors and checks the books.
    fn fragment_and_let_the_background_mesher_compact(seed: u64, objects: usize, period_ms: u64) {
        let mesh = Mesh::new(
            MeshConfig::default()
                .arena_bytes(256 << 20)
                .seed(seed)
                .mesh_period(Duration::from_millis(period_ms))
                .background_meshing(true),
        )
        .unwrap();
        let mut th = mesh.thread_heap();
        // Fragment: allocate many 64 B objects, free 7 of every 8.
        let ptrs: Vec<usize> = (0..objects).map(|_| th.malloc(64) as usize).collect();
        for (i, &p) in ptrs.iter().enumerate() {
            if i % 8 != 0 {
                unsafe { th.free(p as *mut u8) };
            }
        }
        drop(th); // detach so the spans become mesh candidates
        // No mesh_now() anywhere: only the background thread can compact.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let s = mesh.stats();
            if s.spans_meshed > 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "background mesher never ran a productive pass: {s:?}"
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
        // background thread is in the middle of: no settling first.
        let s = mesh.stats();
        assert_eq!((s.live_bytes, s.mallocs), (0, s.frees), "seed {seed}");
        mesh.purge_dirty();
        assert_eq!(mesh.stats().live_bytes, 0);
    }

    #[test]
    fn background_mesher_meshes_without_explicit_calls() {
        fragment_and_let_the_background_mesher_compact(77, 32_768, 5);
    }

    /// The body above used to fail about once in 45 runs: `stats()` read
    /// `live_bytes` past a queue drain the background mesher had in
    /// flight. There is no queue now; 300 runs against a mesher that is
    /// almost always mid-pass.
    #[test]
    fn stats_never_race_the_background_mesher() {
        for run in 0..300 {
            fragment_and_let_the_background_mesher_compact(1000 + run, 2048, 1);
        }
    }

    #[test]
    fn profiling_heap_serves_dump_requests_via_background_thread() {
        // Profiling alone (no background meshing) must still spawn the
        // thread, and a requested dump — the SIGUSR2 path minus the
        // signal — must land in MESH_PROF_PATH within one idle slice.
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
    fn dropping_the_heap_stops_the_mesher() {
        let mesh = Mesh::new(
            MeshConfig::default()
                .arena_bytes(16 << 20)
                .seed(5)
                .mesh_period(Duration::from_millis(1))
                .background_meshing(true),
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
