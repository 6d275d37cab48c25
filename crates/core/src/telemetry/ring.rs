//! The one record ring behind the telemetry history: trace events, sense
//! snapshots and ledger passes are all a [`Ring`] of fixed-size records.
//!
//! A ring keeps the last `capacity` records of `W` words. A writer claims
//! a ticket with one `fetch_add` on `head`; ticket `t` lives in slot
//! `t % capacity`, whose sequence word names the ticket it holds:
//!
//! | `seq` | the slot holds |
//! |---|---|
//! | 0 | nothing (never written, or wiped) |
//! | `2t + 1` | ticket `t`, mid-write |
//! | `2t + 2` | ticket `t`, complete |
//!
//! A writer takes its slot by one CAS from an empty or complete older
//! record to `2t + 1`, stores its words, and publishes `2t + 2`. It never
//! waits: a slot that is mid-write, holds a newer ticket, or changes under
//! the CAS costs the writer its record. That happens only when the ring
//! laps a writer a whole capacity behind, and no two writers ever store
//! into one slot at once. A reader walks the window `[head - capacity,
//! head)` oldest first and returns a record only when its slot reads
//! `2t + 2` both before and after the words: never a torn, stale or
//! unfinished one.
//!
//! [`Ring::wipe`] resets `head` and every sequence. A forked child calls
//! it, single-threaded: a slot some parent thread was writing at the fork
//! would otherwise stay mid-write in the child for good.

use std::sync::atomic::{fence, AtomicU64, Ordering};

#[derive(Debug)]
struct Slot<const W: usize> {
    seq: AtomicU64,
    words: [AtomicU64; W],
}

/// A fixed-capacity, overwrite-oldest ring of `W`-word records (see the
/// module docs for the sequence protocol).
#[derive(Debug)]
pub(crate) struct Ring<const W: usize> {
    /// Tickets ever claimed.
    head: AtomicU64,
    slots: Box<[Slot<W>]>,
}

impl<const W: usize> Ring<W> {
    /// A ring of `capacity` records (at least one).
    pub(crate) fn new(capacity: usize) -> Ring<W> {
        let slot = |_| Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        };
        Ring {
            head: AtomicU64::new(0),
            slots: (0..capacity.max(1)).map(slot).collect(),
        }
    }

    /// Records the ring keeps.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records ever pushed; the ring keeps the last [`Ring::capacity`].
    pub(crate) fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    fn slot(&self, ticket: u64) -> &Slot<W> {
        &self.slots[(ticket % self.slots.len() as u64) as usize]
    }

    /// Appends one record over the oldest. Lock-free, and never waits for
    /// another writer (see the module docs for when a record is dropped).
    pub(crate) fn push(&self, words: [u64; W]) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let (slot, done) = (self.slot(ticket), 2 * ticket + 2);
        let seq = slot.seq.load(Ordering::Relaxed);
        if seq & 1 == 1 || seq >= done {
            return;
        }
        // Acquire: the previous writer's words are stored before ours.
        let claim = slot
            .seq
            .compare_exchange(seq, done - 1, Ordering::Acquire, Ordering::Relaxed);
        if claim.is_err() {
            return;
        }
        // Pairs with the reader's acquire fence: a reader that loads any of
        // the words below also loads the odd sequence at its second check.
        fence(Ordering::Release);
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(done, Ordering::Release);
    }

    /// The complete records of the window, oldest first.
    pub(crate) fn records(&self) -> impl Iterator<Item = [u64; W]> + '_ {
        self.entries().map(|(_, words)| words)
    }

    /// [`Ring::records`], each with its ticket.
    fn entries(&self) -> impl Iterator<Item = (u64, [u64; W])> + '_ {
        let head = self.head.load(Ordering::Relaxed);
        let window = head.saturating_sub(self.slots.len() as u64)..head;
        window.filter_map(move |ticket| {
            let (slot, done) = (self.slot(ticket), 2 * ticket + 2);
            // Acquire: pairs with the writer's publishing store of `done`.
            if slot.seq.load(Ordering::Acquire) != done {
                return None;
            }
            let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            fence(Ordering::Acquire);
            (slot.seq.load(Ordering::Relaxed) == done).then_some((ticket, words))
        })
    }

    /// Empties the ring. For a single-threaded forked child only: it
    /// resets sequences that a writer may still be using.
    pub(crate) fn wipe(&self) {
        self.head.store(0, Ordering::Relaxed);
        for slot in self.slots.iter() {
            slot.seq.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    /// A self-checking record: `writer`'s `n`-th push. Every word is
    /// derived from the first, so a record mixing two pushes shows.
    fn stamp<const W: usize>(writer: u64, n: u64) -> [u64; W] {
        let first = writer << 32 | n;
        std::array::from_fn(|i| first ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Writers race a reader that keeps draining the ring. Whatever the
    /// interleaving, a read returns whole records that some writer pushed,
    /// in ticket order, and each writer's own records in its push order.
    fn stress(capacity: usize) {
        const WRITERS: u64 = 4;
        const PUSHES: u64 = 20_000;
        let ring = Ring::<8>::new(capacity);
        let start = Barrier::new(WRITERS as usize + 1);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (ring, start) = (&ring, &start);
                    s.spawn(move || {
                        start.wait();
                        (0..PUSHES).for_each(|n| ring.push(stamp(w, n)));
                    })
                })
                .collect();
            let reader = s.spawn(|| {
                start.wait();
                // Drains until one drain after the writers are done.
                let mut finished = false;
                while !finished {
                    finished = done.load(Ordering::Relaxed);
                    let mut last_ticket = None;
                    let mut last_n = [None; WRITERS as usize];
                    for (ticket, words) in ring.entries() {
                        assert!(last_ticket < Some(ticket), "out of ticket order");
                        last_ticket = Some(ticket);
                        let (w, n) = (words[0] >> 32, words[0] & 0xFFFF_FFFF);
                        assert!(w < WRITERS && n < PUSHES, "no writer pushed {words:x?}");
                        assert_eq!(words, stamp(w, n), "torn record");
                        let last = &mut last_n[w as usize];
                        assert!(*last < Some(n), "writer {w}'s records out of order");
                        *last = Some(n);
                    }
                }
            });
            for writer in writers {
                writer.join().expect("writer panicked");
            }
            done.store(true, Ordering::Relaxed);
            reader.join().expect("reader panicked");
        });
        assert_eq!(ring.pushed(), WRITERS * PUSHES);
        assert!(ring.records().count() <= capacity);
    }

    #[test]
    fn stress_capacity_2() {
        stress(2);
    }

    #[test]
    fn stress_capacity_64() {
        stress(64);
    }

    #[test]
    fn wipe_recovers_a_slot_left_mid_write() {
        let ring = Ring::<2>::new(2);
        ring.push([1, 1]);
        // A writer of ticket 1 stopped between its claim and its publish,
        // as a parent thread does when another one forks.
        ring.head.store(2, Ordering::Relaxed);
        ring.slots[1].seq.store(3, Ordering::Relaxed);
        ring.slots[1].words[0].store(99, Ordering::Relaxed);
        assert_eq!(ring.records().collect::<Vec<_>>(), [[1, 1]]);
        ring.push([2, 2]);
        ring.push([3, 3]);
        assert_eq!(
            ring.records().collect::<Vec<_>>(),
            [[2, 2]],
            "the half-written slot refuses every later writer"
        );
        ring.wipe();
        assert_eq!(ring.records().count(), 0);
        ring.push([4, 4]);
        ring.push([5, 5]);
        assert_eq!(ring.records().collect::<Vec<_>>(), [[4, 4], [5, 5]]);
        ring.push([6, 6]);
        assert_eq!(ring.records().collect::<Vec<_>>(), [[5, 5], [6, 6]]);
    }
}
