//! Poison-transparent, ranked mutex and the re-entrancy flag used
//! throughout the heap.
//!
//! The mutex is a thin wrapper over [`std::sync::Mutex`] (the offline
//! build cannot pull in `parking_lot`) that ignores poisoning: the
//! allocator's invariants are guarded by its own accounting, and a panic
//! while holding a heap lock must not turn every subsequent allocation
//! into a second panic.
//!
//! Every [`Mutex`] has a [`Rank`] from the one table of the heap's locks,
//! [`RANKS`], and a thread takes locks in strictly ascending rank. Debug
//! builds (and this crate's unit tests, whatever the profile) check it:
//! each thread records the ranks it holds, and an acquire whose rank is
//! not above all of them panics, naming both ranks. The record is a
//! `const`-initialized, non-`Drop` thread-local word, for the reasons
//! given below for [`ReentrantFlag`]. Release builds keep no record: their
//! guard is a transparent wrapper of the standard one, with no `Drop` of
//! its own.
//!
//! [`ReentrantFlag`] is the substrate of the internal-allocation guard
//! (`with_internal_alloc`): a per-thread boolean that can be *entered*
//! exactly once per thread at a time. It is deliberately built on a
//! `const`-initialized, non-`Drop` `thread_local!` so that reading or
//! setting it never allocates and never registers a TLS destructor —
//! both would be fatal inside an interposed `malloc`, where the guard is
//! consulted before any heap exists.

use crate::size_classes::NUM_SIZE_CLASSES;
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex as StdMutex, MutexGuard as StdMutexGuard, TryLockError};

/// A per-thread entered/not-entered flag with scoped entry. See
/// [`crate::with_internal_alloc`] for the allocator-facing contract.
pub(crate) struct ReentrantFlag {
    read: fn() -> bool,
    set: fn(bool),
}

impl ReentrantFlag {
    /// Builds a flag over a caller-provided thread-local cell (the macro
    /// cannot be expanded here because `thread_local!` statics must live
    /// in the defining crate's scope).
    pub const fn new(read: fn() -> bool, set: fn(bool)) -> ReentrantFlag {
        ReentrantFlag { read, set }
    }

    /// Whether the current thread has entered the flag.
    #[inline]
    pub fn is_set(&self) -> bool {
        (self.read)()
    }

    /// Runs `f` with the flag set, restoring the previous state afterwards
    /// (including on unwind). Re-entrant calls simply observe the flag
    /// already set and change nothing.
    #[inline]
    pub fn with<T>(&self, f: impl FnOnce() -> T) -> T {
        struct Reset(fn(bool), bool);
        impl Drop for Reset {
            fn drop(&mut self) {
                if self.1 {
                    (self.0)(false);
                }
            }
        }
        let entered = if (self.read)() {
            false
        } else {
            (self.set)(true);
            true
        };
        let _reset = Reset(self.set, entered);
        f()
    }
}

/// The heap's lock-rank table: every kind of [`Mutex`], lowest rank first,
/// and how many there are. A thread holding a lock takes only locks of
/// higher rank, so no two threads can each wait for a lock the other
/// holds. Fork quiescence takes the rows from `classes` to `ctl`
/// (`GlobalHeap::lock_all`).
pub(crate) const RANKS: [(&str, usize); 8] = [
    ("main", 1),                   // `Mesh`'s own thread heap (`Mesh::malloc`)
    ("classes", NUM_SIZE_CLASSES), // by index: a sweep takes them in order
    ("large", 1),                  // the large-object slab
    ("arena", 1),                  // the span sets, remaps, page-map writes
    ("threads", 1),                // the thread registry (`Counters`)
    ("ctl", 1),                    // the ctl socket's listener and connections
    ("mesher", 1),                 // the background thread's handle
    ("small free", 1),             // no lock: a non-local small free holds it,
                                   // so a lock taken inside one panics
];

/// A lock's place in [`RANKS`].
#[derive(Clone, Copy)]
pub struct Rank(u8);

impl Rank {
    pub const MAIN: Rank = Rank::first(0);
    pub const LARGE: Rank = Rank::first(2);
    pub const ARENA: Rank = Rank::first(3);
    pub const THREADS: Rank = Rank::first(4);
    pub const CTL: Rank = Rank::first(5);
    pub const MESHER: Rank = Rank::first(6);
    pub const SMALL_FREE: Rank = Rank::first(7);

    pub const fn class(index: usize) -> Rank {
        Rank(Rank::first(1).0 + index as u8)
    }

    /// The lowest rank of row `row`.
    const fn first(row: usize) -> Rank {
        let (mut rank, mut r) = (0, 0);
        while r < row {
            rank += RANKS[r].1;
            r += 1;
        }
        Rank(rank as u8)
    }
}

// A thread's ranks are the bits of one word; the last row is the top.
const _: () = assert!(
    Rank::SMALL_FREE.0 < 64 && Rank::first(RANKS.len()).0 == Rank::SMALL_FREE.0 + 1
);

#[cfg(any(debug_assertions, test))]
impl std::fmt::Debug for Rank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let row = (1..RANKS.len()).take_while(|&r| Rank::first(r).0 <= self.0).count();
        match RANKS[row] {
            (name, 1) => write!(f, "{name} (rank {})", self.0),
            (name, _) => write!(f, "{name}[{}] (rank {})", self.0 - Rank::first(row).0, self.0),
        }
    }
}

#[cfg(any(debug_assertions, test))]
thread_local! {
    /// Bit `r` is set while this thread holds rank `r`.
    static HELD: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A rank this thread holds until the value drops.
#[cfg(any(debug_assertions, test))]
pub(crate) struct Held(Rank);

/// Records `rank` as held by this thread. Panics unless it is above every
/// rank the thread holds: taking it would break the order.
#[cfg(any(debug_assertions, test))]
pub(crate) fn hold(rank: Rank) -> Held {
    let held = HELD.with(|h| h.get());
    if held >> rank.0 != 0 {
        let top = Rank(63 - held.leading_zeros() as u8);
        panic!("lock order: {rank:?} taken while holding {top:?}");
    }
    HELD.with(|h| h.set(held | 1 << rank.0));
    Held(rank)
}

#[cfg(any(debug_assertions, test))]
impl Drop for Held {
    fn drop(&mut self) {
        HELD.with(|h| h.set(h.get() & !(1 << self.0 .0)));
    }
}

/// A mutual-exclusion lock whose `lock` never fails, ranked in [`RANKS`].
#[derive(Debug)]
pub struct Mutex<T> {
    inner: StdMutex<T>,
    #[cfg(any(debug_assertions, test))]
    rank: Rank,
}

/// Guard returned by [`Mutex::lock`]. Debug builds release its rank when
/// it drops; release builds give it no `Drop` work of its own.
#[cfg_attr(not(any(debug_assertions, test)), repr(transparent))]
pub struct MutexGuard<'a, T> {
    guard: StdMutexGuard<'a, T>,
    #[cfg(any(debug_assertions, test))]
    _held: Held,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Mutex<T> {
    /// Creates a new mutex at `rank` of [`RANKS`], holding `value`.
    pub const fn new(rank: Rank, value: T) -> Self {
        #[cfg(not(any(debug_assertions, test)))]
        let _ = rank;
        Mutex {
            inner: StdMutex::new(value),
            #[cfg(any(debug_assertions, test))]
            rank,
        }
    }

    /// Acquires the lock, blocking until available (poisoned locks are
    /// recovered, not propagated as a second panic).
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(any(debug_assertions, test))]
        let held = hold(self.rank);
        MutexGuard {
            guard: self.inner.lock().unwrap_or_else(|e| e.into_inner()),
            #[cfg(any(debug_assertions, test))]
            _held: held,
        }
    }

    /// Attempts to acquire the lock without blocking; `None` when
    /// contended (poisoned locks are recovered, not treated as
    /// contention).
    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        #[cfg(any(debug_assertions, test))]
        let held = hold(self.rank);
        let guard = match self.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard {
            guard,
            #[cfg(any(debug_assertions, test))]
            _held: held,
        })
    }

    /// Acquires the lock, reporting how long the *contended* wait took:
    /// `None` when the uncontended `try_lock` succeeded (nothing timed —
    /// the fast path pays no clock read), `Some(ns)` when the caller had
    /// to block. This is the substrate of lock-wait and mutator-pause
    /// accounting: only waits are measured, at the boundary where they
    /// happen.
    #[inline]
    pub fn lock_timed(&self) -> (MutexGuard<'_, T>, Option<u64>) {
        if let Some(g) = self.try_lock() {
            return (g, None);
        }
        let t0 = std::time::Instant::now();
        let g = self.lock();
        (g, Some(t0.elapsed().as_nanos() as u64))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The rows of [`RANKS`] from `from` to `to` whose every rank this
    /// thread holds.
    pub(crate) fn held_rows(from: Rank, to: Rank) -> Vec<&'static str> {
        let held = HELD.with(|h| h.get());
        let mut first = 0;
        let mut rows = Vec::new();
        for (name, n) in RANKS {
            let all = (u64::MAX >> (64 - n)) << first;
            if (from.0..=to.0).contains(&(first as u8)) && held & all == all {
                rows.push(name);
            }
            first += n;
        }
        rows
    }

    #[test]
    fn lock_and_try_lock() {
        let m = Mutex::new(Rank::MAIN, 5);
        {
            let mut g = m.lock();
            *g += 1;
            // Another thread's: this one may not try a rank it holds.
            std::thread::scope(|s| {
                s.spawn(|| assert!(m.try_lock().is_none(), "held lock must report contention"));
            });
        }
        assert_eq!(*m.lock(), 6);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn lock_timed_reports_only_contended_waits() {
        let m = std::sync::Arc::new(Mutex::new(Rank::MAIN, 0));
        let (_g, waited) = m.lock_timed();
        assert_eq!(waited, None, "uncontended acquisition is not timed");
        drop(_g);
        let m2 = std::sync::Arc::clone(&m);
        let g = m.lock();
        let h = std::thread::spawn(move || {
            let (_g, waited) = m2.lock_timed();
            waited
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        drop(g);
        let waited = h.join().unwrap();
        assert!(waited.is_some(), "blocked acquisition reports a wait");
    }

    #[test]
    fn reentrant_flag_scopes_and_nests() {
        thread_local! {
            static FLAG: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
        }
        static F: ReentrantFlag =
            ReentrantFlag::new(|| FLAG.with(|c| c.get()), |v| FLAG.with(|c| c.set(v)));
        assert!(!F.is_set());
        F.with(|| {
            assert!(F.is_set());
            // Nested entry is a no-op; the flag survives the inner scope.
            F.with(|| assert!(F.is_set()));
            assert!(F.is_set());
        });
        assert!(!F.is_set());
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = std::sync::Arc::new(Mutex::new(Rank::MAIN, 1));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        })
        .join();
        assert_eq!(*m.lock(), 1, "poisoned mutex still usable");
    }

    #[test]
    fn try_lock_recovers_poison_without_reporting_contention() {
        let m = std::sync::Arc::new(Mutex::new(Rank::MAIN, 7));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        })
        .join();
        // The panicking thread released the (poisoned) lock on unwind:
        // try_lock must hand out the recovered guard, not report the
        // poison as contention.
        let g = m.try_lock().expect("poisoned-but-free lock acquired");
        assert_eq!(*g, 7);
        drop(g);
        // lock_timed's fast path goes through try_lock: a poisoned free
        // lock is still an untimed acquisition.
        let (g, waited) = m.lock_timed();
        assert_eq!(*g, 7);
        assert_eq!(waited, None, "recovered acquisition is uncontended");
    }
}
