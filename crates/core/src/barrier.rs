//! The concurrent-meshing write barrier (§4.5.2).
//!
//! Meshing runs concurrently with application threads. Mesh maintains two
//! invariants: reads of objects being relocated always succeed, and objects
//! are never written *while* being copied between physical spans. Reads are
//! safe because `mmap(MAP_FIXED)` swaps mappings atomically; writes are
//! fenced by this barrier: source spans are `mprotect`ed read-only before
//! the copy, so a concurrent write raises SIGSEGV, lands in the handler
//! below, spins until the meshing pass completes (its last step remaps the
//! source span read-write), and then retries the faulting instruction —
//! which now succeeds against the fully relocated object.
//!
//! The handler must be async-signal-safe: it reads a fixed-size lock-free
//! registry of `(arena_start, arena_end, meshing_flag)` triples and spins
//! with `sched_yield`; faults outside any registered arena are forwarded to
//! the previously installed handler (preserving, e.g., Rust's stack-overflow
//! detection).

use crate::ffi as libc;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Once;

/// Maximum number of concurrently registered arenas.
const MAX_ARENAS: usize = 128;

/// Registry slots: `[start, end, flag_ptr]` per arena; all zero = free.
static SLOTS: [[AtomicUsize; 3]; MAX_ARENAS] =
    [const { [AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0)] }; MAX_ARENAS];

static INSTALL: Once = Once::new();
static mut OLD_ACTION: MaybeUninit<libc::sigaction> = MaybeUninit::uninit();

/// Registry of hardened-mode guard pages living *inside* registered
/// arenas. The handler's contract for arena faults is "retry until the
/// meshing pass that protected the span finishes" — but a guard page (the
/// `PROT_NONE` tail of a guarded large object) is unwritable for the
/// object's whole lifetime, so its faults must be forwarded to the
/// default action instead of retried forever. A fixed-size linear-probe
/// table: registrations are mutated from allocation/free paths and read
/// lock-free from the signal handler.
const GUARD_CAP: usize = 1024;
const GUARD_PROBES: usize = 64;
const GUARD_TOMB: usize = usize::MAX;
static GUARD_PAGES: [AtomicUsize; GUARD_CAP] =
    [const { AtomicUsize::new(0) }; GUARD_CAP];

fn guard_probe_seq(page: usize) -> impl Iterator<Item = usize> {
    let h = (page >> 12).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..GUARD_PROBES).map(move |i| h.wrapping_add(i) & (GUARD_CAP - 1))
}

/// Registers the guard page at `page` for fault forwarding. Returns
/// `false` when the probe window is full — the caller must then degrade
/// to a non-faulting (poison-scan) guard for that object.
pub(crate) fn register_guard_page(page: usize) -> bool {
    debug_assert_eq!(page & 0xFFF, 0, "guard registrations are page-aligned");
    for slot in guard_probe_seq(page) {
        let e = &GUARD_PAGES[slot];
        let cur = e.load(Ordering::Relaxed);
        if (cur == 0 || cur == GUARD_TOMB)
            && e.compare_exchange(cur, page, Ordering::Release, Ordering::Relaxed)
                .is_ok()
        {
            return true;
        }
    }
    false
}

/// Removes `page` from the registry; returns whether it was registered
/// (i.e. whether the object carried a faulting guard rather than a
/// degraded poison-scan one).
pub(crate) fn unregister_guard_page(page: usize) -> bool {
    for slot in guard_probe_seq(page) {
        let e = &GUARD_PAGES[slot];
        let cur = e.load(Ordering::Relaxed);
        if cur == page {
            // Tombstone, not zero: later entries in some other page's
            // probe sequence may live past this slot.
            e.store(GUARD_TOMB, Ordering::Release);
            return true;
        }
        if cur == 0 {
            return false;
        }
    }
    false
}

/// Whether `page` is a registered guard page. Async-signal-safe (atomic
/// loads only); also consulted by fork privatization to know which tails
/// to re-protect.
pub(crate) fn guard_page_registered(page: usize) -> bool {
    for slot in guard_probe_seq(page) {
        let cur = GUARD_PAGES[slot].load(Ordering::Acquire);
        if cur == page {
            return true;
        }
        if cur == 0 {
            return false;
        }
    }
    false
}

/// Registration handle for one arena's address range. Deregisters on drop.
#[derive(Debug)]
pub struct BarrierGuard {
    slot: usize,
    flag: &'static AtomicBool,
}

impl BarrierGuard {
    /// Registers `[start, start+len)` with the fault handler and installs
    /// the handler on first use. Returns `None` when the registry is full
    /// (the caller should then disable concurrent meshing).
    pub fn register(start: usize, len: usize) -> Option<BarrierGuard> {
        INSTALL.call_once(install_handler);
        // Flags are intentionally leaked: the handler may race with arena
        // teardown, and one byte per arena is a trivial price for making
        // that race unconditionally safe.
        let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        for (i, slot) in SLOTS.iter().enumerate() {
            if slot[0]
                .compare_exchange(0, start, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                slot[2].store(flag as *const AtomicBool as usize, Ordering::Release);
                slot[1].store(start + len, Ordering::Release);
                return Some(BarrierGuard { slot: i, flag });
            }
        }
        None
    }

    /// Marks the arena as mid-mesh: faults inside it will spin instead of
    /// being forwarded.
    #[inline]
    pub fn begin_meshing(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Clears the mid-mesh mark, releasing any spinning writers.
    #[inline]
    pub fn end_meshing(&self) {
        self.flag.store(false, Ordering::Release);
    }

    /// Whether a meshing pass is currently marked active (test hook).
    #[cfg(test)]
    pub fn is_meshing(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

impl Drop for BarrierGuard {
    fn drop(&mut self) {
        self.flag.store(false, Ordering::Release);
        let slot = &SLOTS[self.slot];
        // Clear end first so concurrent lookups fail the range test before
        // the start word is recycled.
        slot[1].store(0, Ordering::Release);
        slot[2].store(0, Ordering::Release);
        slot[0].store(0, Ordering::Release);
    }
}

fn install_handler() {
    unsafe {
        let mut action: libc::sigaction = std::mem::zeroed();
        action.sa_sigaction = segv_handler
            as extern "C" fn(libc::c_int, *mut libc::siginfo_t, *mut libc::c_void)
            as usize;
        action.sa_flags = libc::SA_SIGINFO | libc::SA_NODEFER | libc::SA_ONSTACK;
        libc::sigemptyset(&mut action.sa_mask);
        let old = std::ptr::addr_of_mut!(OLD_ACTION);
        libc::sigaction(libc::SIGSEGV, &action, (*old).as_mut_ptr());
    }
}

/// The SIGSEGV handler. Async-signal-safe: only atomics, `sched_yield`,
/// and (on the forwarding path) `sigaction`/`raise`.
extern "C" fn segv_handler(
    sig: libc::c_int,
    info: *mut libc::siginfo_t,
    ctx: *mut libc::c_void,
) {
    let addr = unsafe { (*info).si_addr() } as usize;
    // A hardened-mode guard page is permanently unwritable: forward the
    // fault (normally to SIG_DFL, so the process dies with SIGSEGV at
    // the overflowing instruction) instead of entering the retry loop.
    if guard_page_registered(addr & !0xFFF) {
        forward(sig, info, ctx);
        return;
    }
    for slot in &SLOTS {
        let start = slot[0].load(Ordering::Acquire);
        if start == 0 || addr < start {
            continue;
        }
        let end = slot[1].load(Ordering::Acquire);
        if addr >= end {
            continue;
        }
        let flag_ptr = slot[2].load(Ordering::Acquire) as *const AtomicBool;
        if flag_ptr.is_null() {
            continue;
        }
        // Inside a registered arena (and not a guard page): wait out the
        // meshing pass, then return to retry the faulting instruction. If
        // no pass is active the fault raced with pass completion (the
        // remap already made the page writable), so retrying is also
        // correct.
        let flag = unsafe { &*flag_ptr };
        while flag.load(Ordering::Acquire) {
            unsafe { libc::sched_yield() };
        }
        return;
    }
    forward(sig, info, ctx);
}

/// Forwards a non-arena fault to the previously installed handler.
fn forward(sig: libc::c_int, info: *mut libc::siginfo_t, ctx: *mut libc::c_void) {
    unsafe {
        let old = (*std::ptr::addr_of!(OLD_ACTION)).assume_init_ref();
        let handler = old.sa_sigaction;
        if handler == libc::SIG_DFL {
            // Restore the default action and re-raise so the process dies
            // with the expected SIGSEGV semantics (core dump, exit code).
            let mut dfl: libc::sigaction = std::mem::zeroed();
            dfl.sa_sigaction = libc::SIG_DFL;
            libc::sigemptyset(&mut dfl.sa_mask);
            libc::sigaction(libc::SIGSEGV, &dfl, std::ptr::null_mut());
            libc::raise(libc::SIGSEGV);
        } else if handler == libc::SIG_IGN {
            // Ignored: nothing to do.
        } else if old.sa_flags & libc::SA_SIGINFO != 0 {
            let f: extern "C" fn(libc::c_int, *mut libc::siginfo_t, *mut libc::c_void) =
                std::mem::transmute(handler);
            f(sig, info, ctx);
        } else {
            let f: extern "C" fn(libc::c_int) = std::mem::transmute(handler);
            f(sig);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sys::{map_file_shared, protect_read, protect_read_write, unmap, MemFile, PAGE_SIZE};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn guard_page_registry_roundtrip() {
        let page = 0x7f12_3456_7000usize;
        assert!(!guard_page_registered(page));
        assert!(register_guard_page(page));
        assert!(guard_page_registered(page));
        // A colliding-but-different page is not reported.
        assert!(!guard_page_registered(page + 0x1000));
        assert!(unregister_guard_page(page));
        assert!(!guard_page_registered(page));
        assert!(!unregister_guard_page(page), "second remove is a no-op");
        // Tombstoned slots are reusable.
        assert!(register_guard_page(page));
        assert!(unregister_guard_page(page));
    }

    #[test]
    fn register_and_drop_free_slots() {
        let g1 = BarrierGuard::register(0x10_0000, 0x1000).unwrap();
        let g2 = BarrierGuard::register(0x20_0000, 0x1000).unwrap();
        assert!(!g1.is_meshing());
        g1.begin_meshing();
        assert!(g1.is_meshing());
        g1.end_meshing();
        drop(g1);
        drop(g2);
        // Slots must be reusable afterwards.
        let g3 = BarrierGuard::register(0x30_0000, 0x1000).unwrap();
        drop(g3);
    }

    #[test]
    fn writer_blocked_during_meshing_then_proceeds() {
        // End-to-end barrier test: protect a page, start a writer thread,
        // verify it blocks, then unprotect + end meshing and verify the
        // write lands.
        let f = MemFile::create(4 * PAGE_SIZE).unwrap();
        let base = map_file_shared(&f).unwrap();
        let guard = Arc::new(BarrierGuard::register(base as usize, 4 * PAGE_SIZE).unwrap());

        guard.begin_meshing();
        unsafe { protect_read(base, PAGE_SIZE).unwrap() };

        let done = Arc::new(AtomicBool::new(false));
        let writer = {
            let done = Arc::clone(&done);
            let addr = base as usize;
            std::thread::spawn(move || {
                // This write faults, spins in the handler, and completes
                // only after end_meshing().
                unsafe { *(addr as *mut u8) = 0x99 };
                done.store(true, Ordering::SeqCst);
            })
        };

        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !done.load(Ordering::SeqCst),
            "writer should be blocked by the barrier"
        );

        unsafe { protect_read_write(base, PAGE_SIZE).unwrap() };
        guard.end_meshing();
        writer.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
        unsafe {
            assert_eq!(*base, 0x99, "the blocked write must land after meshing");
            unmap(base, 4 * PAGE_SIZE);
        }
    }

    #[test]
    fn fault_with_no_active_pass_retries_after_unprotect() {
        // A racing fault that arrives when the flag is already cleared must
        // simply retry; if the page is writable again the write succeeds.
        let f = MemFile::create(PAGE_SIZE).unwrap();
        let base = map_file_shared(&f).unwrap();
        let guard = BarrierGuard::register(base as usize, PAGE_SIZE).unwrap();
        unsafe { protect_read(base, PAGE_SIZE).unwrap() };
        let addr = base as usize;
        let t = std::thread::spawn(move || {
            unsafe { *(addr as *mut u8) = 7 };
        });
        std::thread::sleep(Duration::from_millis(20));
        unsafe { protect_read_write(base, PAGE_SIZE).unwrap() };
        t.join().unwrap();
        unsafe {
            assert_eq!(*base, 7);
            unmap(base, PAGE_SIZE);
        }
        drop(guard);
    }
}
