//! The fork protocol (DESIGN.md "ABI & bootstrap"): `pthread_atfork`'s
//! prepare phase takes every heap lock ([`GlobalHeap::lock_all`]) so the
//! child inherits none held; after `fork()` the parent waits, still
//! holding them, until the child has re-backed the `MAP_SHARED` arena
//! with private copies ([`GlobalHeap::privatize_after_fork`]) and wiped
//! the history that is the parent's.

use crate::alloc_api::{with_internal_alloc, Mesh};
use crate::arena::Arena;
use crate::class_shard::ClassState;
use crate::global_heap::GlobalHeap;
use crate::local_heap::ThreadHeapCore;
use crate::mesher::BackgroundThread;
use crate::miniheap::Slab;
use crate::size_classes::{SizeClass, PAGE_SIZE};
use crate::sync::MutexGuard;
#[cfg(test)]
use crate::sync::Rank;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Every lock of the heap, held at once: the fork-quiescence state (see
/// `Mesh::fork_prepare`). The guards are held purely for their locking
/// effect; dropping the struct releases everything.
pub(crate) struct AllShardGuards<'a> {
    _classes: Vec<MutexGuard<'a, ClassState>>,
    _large: MutexGuard<'a, Slab>,
    _arena: MutexGuard<'a, Arena>,
    _threads: MutexGuard<'a, Vec<Arc<crate::stats::LocalCounters>>>,
    _ctl: Option<MutexGuard<'a, crate::telemetry::CtlIo>>,
}

impl GlobalHeap {
    /// Acquires every heap lock, quiescing the heap for `fork()`: the rows
    /// of the rank table ([`RANKS`](crate::sync::RANKS)) from `classes` to
    /// `ctl`, in rank order — the classes by index, then large, arena, the
    /// thread registry ([`Counters`](crate::stats::Counters)) and the ctl
    /// socket's I/O lock when there is a socket. Debug builds check the
    /// order as they check every acquire.
    ///
    /// Any in-flight refill, meshing pass (so every mesh epoch is even),
    /// thread (un)registration or ctl write completes before this
    /// returns, so a child forked at any moment inherits consistent heap
    /// state and no lock its own recovery takes. Frees hold no lock and
    /// are not waited for: a thread between its clear and its count does
    /// not exist in the child, and the span of one caught between the two
    /// steps of [`SpanBits::list_unsettled`](crate::miniheap::SpanBits)
    /// stays filed as it was in the child (one span's free slots, unused).
    /// Nor are telemetry ring writers: the child wipes every ring.
    pub(crate) fn lock_all(&self) -> AllShardGuards<'_> {
        AllShardGuards {
            _classes: SizeClass::all().map(|c| self.lock_class(c)).collect(),
            _large: self.large.lock(),
            _arena: self.lock_arena(),
            _threads: self.counters.lock_threads(),
            _ctl: self.ctl.as_ref().map(|c| c.lock_io()),
        }
    }

    /// The rows of [`GlobalHeap::lock_all`]'s part of the rank table that
    /// this thread holds every lock of (test hook for the fork-quiescence
    /// protocol).
    #[cfg(test)]
    pub(crate) fn held_lock_kinds(&self) -> Vec<&'static str> {
        crate::sync::tests::held_rows(Rank::class(0), Rank::CTL)
    }

    /// Child-side fork recovery: re-backs every segment with a private
    /// file copy and re-establishes mesh alias mappings (which the
    /// identity remap clobbers; large objects are never meshed, so
    /// identity is already right for them). Runs in the single-threaded
    /// child with no locks held; takes them normally. Returns whether
    /// privatization succeeded.
    pub(crate) fn privatize_after_fork(&self) -> bool {
        if let Err(e) = self.lock_arena().privatize_segments() {
            eprintln!(
                "mesh: fork privatization failed ({e}); child still shares parent heap pages"
            );
            return false;
        }
        let mut ok = true;
        for class in SizeClass::all() {
            let st = self.lock_class(class);
            for (_, mh) in st.slab.iter() {
                if mh.span_count() > 1 {
                    let mut arena = self.lock_arena();
                    for alias in mh.aliases() {
                        // Warn-and-continue, like the copy failure above: a
                        // degraded child beats aborting someone's shell from
                        // an atfork handler. (The alias range then reads its
                        // own identity pages instead of the meshed data.)
                        if let Err(e) = arena.remap_alias(alias, mh.span()) {
                            eprintln!(
                                "mesh: fork alias remap failed ({e}); \
                                 meshed span {alias} left unaliased in the child"
                            );
                            ok = false;
                        }
                    }
                }
            }
        }
        if self.harden.guard_on() && self.harden.aborts() {
            // The identity remap re-backed every page read-write, clobbering
            // the PROT_NONE guard tails of live large objects.
            let large = self.large.lock();
            for (_, mh) in large.iter() {
                if mh.is_guarded() {
                    let span = mh.span();
                    let tail =
                        (self.base + span.byte_offset() + span.byte_len() - PAGE_SIZE) as *mut u8;
                    // Degraded (poison-scan) guards must stay readable —
                    // only registered faulting guards get PROT_NONE back.
                    if !crate::barrier::guard_page_registered(tail as usize) {
                        continue;
                    }
                    if let Err(e) = unsafe { crate::sys::protect_none(tail, PAGE_SIZE) } {
                        eprintln!("mesh: fork guard re-protect failed ({e})");
                        ok = false;
                    }
                }
            }
        }
        ok
    }
}

impl Mesh {
    /// Quiesces the heap for `fork()`: acquires the main handle's lock,
    /// then *every* heap lock in rank order (`GlobalHeap::lock_all`), so
    /// any in-flight refill or meshing pass completes first and the child
    /// cannot inherit a held lock. Also opens the pipe used to hold the
    /// parent until the child has privatized its heap copy.
    ///
    /// This is the *prepare* phase of the `pthread_atfork` protocol the
    /// process runtime installs ([`crate::process`]); after `fork()` the
    /// parent must call [`MeshForkGuard::release_parent`] and the child
    /// [`MeshForkGuard::release_child`] — see DESIGN.md "ABI & bootstrap".
    pub fn fork_prepare(&self) -> MeshForkGuard<'_> {
        with_internal_alloc(|| {
            let mut main = self.inner.main.lock();
            // Drain the main core's hardened-mode quarantine first: parked
            // frees complete through the normal path while every lock is
            // still free to take, so the child never inherits delayed
            // frees it would have to reconstruct.
            main.drain_quarantine(&self.inner.state);
            let all = self.inner.state.lock_all();
            let mut pipe = [-1, -1];
            // A pipe failure (fd exhaustion) degrades to not waiting: the
            // child still privatizes, the parent just races its copy.
            unsafe { crate::ffi::pipe(pipe.as_mut_ptr()) };
            MeshForkGuard {
                mesh: self,
                main,
                all,
                pipe,
            }
        })
    }

    /// Respawns the background thread in a forked child (the parent's
    /// thread does not exist there). No-op unless the heap runs one.
    fn respawn_mesher_after_fork(&self) {
        if !self.inner.state.background_thread_wanted() {
            return;
        }
        let weak = Arc::downgrade(&self.inner);
        let mut slot = self.inner.mesher.lock();
        // Dropping the stale handle only flips a copied stop flag and
        // unparks a thread that does not exist in this process — harmless.
        *slot = Some(BackgroundThread::spawn(weak));
    }
}

/// The heap's fork-quiescence state: every lock held, plus the pipe of
/// the parent↔child handshake. Created by [`Mesh::fork_prepare`]
/// immediately before `fork()`; consumed on exactly one side by
/// [`MeshForkGuard::release_parent`] or [`MeshForkGuard::release_child`]
/// (in an atfork world, on *both* sides — each process owns its copy).
///
/// The handshake exists because the arena's segments are `MAP_SHARED`
/// memory files: fork does **not** copy-on-write them, so the child must
/// re-back every segment with a private copy before either process writes
/// again. `release_child` performs that copy and then signals the pipe;
/// `release_parent` blocks on the pipe until the signal (or EOF if the
/// child died — or never existed, when `fork` itself failed), which is
/// what gives the child a faithful snapshot.
#[must_use = "fork preparation holds every heap lock until released"]
pub struct MeshForkGuard<'a> {
    mesh: &'a Mesh,
    main: MutexGuard<'a, ThreadHeapCore>,
    all: AllShardGuards<'a>,
    pipe: [crate::ffi::c_int; 2],
}

impl MeshForkGuard<'_> {
    /// Parent side (also the fork-failure side): waits for the child's
    /// privatization signal *while still holding every heap lock*, then
    /// releases them. The hold is what actually freezes the snapshot — if
    /// the locks dropped first, any other parent thread could mutate (or
    /// release pages of) the still-`MAP_SHARED` segments mid-copy. The
    /// child never contends with these locks: its copies of the futexes
    /// were released by [`MeshForkGuard::release_child`] in its own
    /// address space.
    pub fn release_parent(self) {
        use crate::ffi;
        with_internal_alloc(|| {
            let MeshForkGuard {
                mesh: _,
                main,
                all,
                pipe: [rd, wr],
            } = self;
            unsafe {
                if wr >= 0 {
                    // Close our write end first: if `fork` failed and no
                    // child exists, the read below sees immediate EOF.
                    ffi::close(wr);
                }
                if rd >= 0 {
                    let mut byte = 0u8;
                    loop {
                        let n = ffi::read(rd, &mut byte as *mut u8 as *mut ffi::c_void, 1);
                        if n >= 0 || ffi::errno() != ffi::EINTR {
                            break;
                        }
                    }
                    ffi::close(rd);
                }
            }
            drop(main);
            drop(all);
        })
    }

    /// Child side: releases every lock (their futex state was inherited
    /// held-by-us), re-backs all segments with private file copies,
    /// restores mesh aliases, respawns the background thread if the heap
    /// runs one, and finally signals the waiting parent.
    pub fn release_child(self) {
        use crate::ffi;
        with_internal_alloc(|| {
            let MeshForkGuard {
                mesh,
                main,
                all,
                pipe: [rd, wr],
            } = self;
            unsafe {
                if rd >= 0 {
                    ffi::close(rd);
                }
            }
            drop(main);
            drop(all);
            mesh.inner.state.privatize_after_fork();
            // The child's latency history and trace buffers describe the
            // *parent's* threads: wipe both so its telemetry starts from
            // zero. The registry was quiesced by `lock_all`, so no
            // orphaned thread can be mid-register here.
            mesh.inner.counters.wipe_for_child();
            // A report requested before the fork is the parent's to
            // write: served here it would overwrite the parent's dump
            // file with (a copy of) the parent's data.
            mesh.inner.state.reports.clear();
            // Likewise the sense ring and meshing ledger: their history is
            // the parent's, and a parent thread may have been mid-push.
            mesh.inner.state.sense.wipe_for_child();
            mesh.inner.state.ledger.wipe_for_child();
            // The inherited listener and connections belong to the parent;
            // the child answers on the same path with a fresh listener
            // (see the ctl module docs on per-process paths).
            if let Some(ctl) = &mesh.inner.state.ctl {
                ctl.rebind_for_child();
            }
            mesh.inner.counters.forks.fetch_add(1, Ordering::Relaxed);
            mesh.respawn_mesher_after_fork();
            unsafe {
                if wr >= 0 {
                    let byte = 1u8;
                    let _ = ffi::write(wr, &byte as *const u8 as *const ffi::c_void, 1);
                    ffi::close(wr);
                }
            }
        })
    }
}
