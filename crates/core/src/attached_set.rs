//! Attached span sets: the spans one thread heap draws on for one size
//! class.
//!
//! A thread heap used to attach exactly one span per class, so under a
//! live set larger than one span most frees of the thread's *own* objects
//! missed the attached span and took the remote route, and every refill
//! handed back a nearly full span good for one or two allocations. Like
//! the reference implementation's shuffle vector, which draws on up to 24
//! MiniHeaps at once, an [`AttachedSet`] keeps up to [`ATTACHED_SPANS`]
//! spans attached per (thread, class):
//!
//! * a free is local when the page-map id matches *any* member — the slot
//!   goes back on that member's [`ShuffleVector`] with no lock or atomic;
//! * malloc pops from the current member and moves to another member that
//!   has free slots before the caller pays for a refill;
//! * [`crate::global_heap::GlobalHeap::refill`] fills the set under the
//!   class lock and is the only place members are attached. It first
//!   releases every member the thread has stopped drawing on
//!   ([`AttachedSet::take_idle`]).
//!
//! The set is thread-private like the vectors it holds. Two rules bound
//! what it keeps from everyone else:
//!
//! * a member that becomes entirely free is released at once unless the
//!   thread would then be short of slots ([`AttachedSet::is_surplus_empty`]),
//!   so a thread keeps at most one empty span per class, as with the
//!   single attached span;
//! * the mesher sees detached spans only, so the idle rule is what gives
//!   it the spans of a thread that fills and moves on — exactly the spans
//!   the single-span design detached at every refill. Only spans the
//!   thread keeps freeing into stay out of the candidate lists.

use crate::miniheap::MiniHeapId;
use crate::rng::Rng;
use crate::shuffle_vector::ShuffleVector;

/// Most spans one thread keeps attached per size class (the reference
/// implementation's bound). With at least 8 objects per span this covers a
/// per-class live set of ~190 objects; the ladder's `local_heap.*` rows
/// and `fastpath_churn` size it, not a knob.
pub(crate) const ATTACHED_SPANS: usize = 24;

/// Frees per member an interval must have seen before a member that got
/// none counts as idle: a member holding an equal share of the thread's
/// objects is missed by that many frees per member with probability
/// e⁻⁴ ≈ 2 %.
const IDLE_EVIDENCE: usize = 4;

/// Intervals without a free of the class, however short, after which the
/// thread counts as only filling: one that frees at all frees in most.
const FILL_STREAK: u8 = 3;

/// Up to [`ATTACHED_SPANS`] attached spans of one size class, each behind
/// its own [`ShuffleVector`].
#[derive(Debug)]
pub(crate) struct AttachedSet {
    /// Raw [`MiniHeapId`] of each member, 0 where the position is vacant.
    /// Held apart from the vectors so [`AttachedSet::find`] scans 96
    /// contiguous bytes instead of one cache line per member.
    ids: [u32; ATTACHED_SPANS],
    /// One bit per member, bit `id % 64`: a free whose id has its bit clear
    /// is no member's, and most frees of other threads' objects (and of
    /// spans this thread handed back) are turned away by this one test.
    filter: u64,
    /// Bit `i` set ⇔ member `i` has a free slot. Kept exact, so a malloc
    /// that finds the current member's bit clear moves on without
    /// touching that member's vector (a cold line, with two dozen vectors
    /// per class).
    nonempty: u32,
    /// Bit `i` set ⇔ this thread freed into member `i` in the current
    /// interval (see [`AttachedSet::take_idle`]).
    touched: u32,
    /// This thread's frees of objects of the class in the current
    /// interval, into the set or not.
    frees: u32,
    /// Free slots the members attached in the current interval brought.
    granted: u32,
    /// Intervals in a row in which this thread freed nothing of the class.
    fill_streak: u8,
    /// The member malloc pops from and `find` checks first.
    cur: u8,
    /// Member vectors, grown on first use of a position: a thread that
    /// keeps one span per class attached pays for one vector per class.
    vectors: Vec<ShuffleVector>,
    randomized: bool,
}

/// The positions of the set bits of `mask`, ascending.
fn bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

impl AttachedSet {
    /// Creates an empty set; `randomized` is passed to every member
    /// vector (see [`ShuffleVector::new`]).
    pub fn new(randomized: bool) -> Self {
        AttachedSet {
            ids: [0; ATTACHED_SPANS],
            filter: 0,
            nonempty: 0,
            touched: 0,
            frees: 0,
            granted: 0,
            fill_streak: 0,
            cur: 0,
            vectors: Vec::new(),
            randomized,
        }
    }

    /// Pops an object from the current member, moving first to the
    /// lowest-numbered member with free slots when the current one has
    /// none. `None` means every member is exhausted (or there is none).
    /// Preferring low positions packs new objects into few members, so
    /// the others drain and are released.
    #[inline]
    pub fn malloc(&mut self) -> Option<usize> {
        if self.nonempty & (1 << self.cur) == 0 {
            // The current member is exhausted (or vacant): move on.
            if self.nonempty == 0 {
                return None;
            }
            self.cur = self.nonempty.trailing_zeros() as u8;
        }
        let sv = &mut self.vectors[self.cur as usize];
        let addr = sv.malloc();
        debug_assert!(addr.is_some(), "nonempty bit set on an exhausted member");
        if sv.is_exhausted() {
            self.nonempty &= !(1 << self.cur);
        }
        addr
    }

    /// The member attached to MiniHeap `id`, if any. Ids are unique within
    /// a class and the page map retargets meshed aliases to the surviving
    /// MiniHeap, so this is exactly "inside any span of any member". The
    /// current member is checked first: the one-span case costs one
    /// compare.
    #[inline]
    pub fn find(&self, id: MiniHeapId) -> Option<usize> {
        let raw = id.to_raw();
        if self.ids[self.cur as usize] == raw {
            return Some(self.cur as usize);
        }
        if self.filter & Self::filter_bit(raw) == 0 {
            return None;
        }
        self.find_elsewhere(raw)
    }

    fn filter_bit(raw: u32) -> u64 {
        1 << (raw % 64)
    }

    /// Out of line, so the free path inlines only the two tests above.
    /// Branch-free over all positions (it vectorizes): a miss that gets
    /// past the filter must not cost a mispredicted exit per member.
    #[inline(never)]
    fn find_elsewhere(&self, raw: u32) -> Option<usize> {
        let mut hits = 0u32;
        for (i, &m) in self.ids.iter().enumerate() {
            hits |= u32::from(m == raw) << i;
        }
        (hits != 0).then(|| hits.trailing_zeros() as usize)
    }

    /// The position malloc currently pops from.
    #[cfg(test)]
    pub fn current(&self) -> usize {
        self.cur as usize
    }

    /// Positions currently holding a member, ascending.
    pub fn members(&self) -> impl Iterator<Item = usize> {
        let ids = self.ids;
        (0..ATTACHED_SPANS).filter(move |&i| ids[i] != 0)
    }

    /// Number of attached members.
    pub fn len(&self) -> usize {
        self.members().count()
    }

    /// Whether every position holds a member.
    pub fn is_full(&self) -> bool {
        self.ids.iter().all(|&m| m != 0)
    }

    /// The MiniHeap attached at `member`.
    ///
    /// # Panics
    ///
    /// Panics if the position is vacant.
    pub fn id(&self, member: usize) -> MiniHeapId {
        MiniHeapId::from_raw(self.ids[member])
    }

    /// The vector of `member` (a vacant position's vector is detached).
    #[inline]
    pub fn vector(&self, member: usize) -> &ShuffleVector {
        &self.vectors[member]
    }

    /// Free slots over all members (zero, without looking at any vector,
    /// when a refill runs with every member exhausted).
    pub fn available(&self) -> usize {
        bits(self.nonempty)
            .map(|i| self.vectors[i].available())
            .sum()
    }

    /// Frees slot `slot` of `member` (see [`ShuffleVector::free_slot`]);
    /// `false` means the slot was already free — a double free.
    ///
    /// # Safety
    ///
    /// `member` must hold a span and `slot` must be one of its slot
    /// indices, resolved from an address inside one of its virtual spans.
    #[inline]
    pub unsafe fn free_slot(&mut self, member: usize, slot: usize, rng: &mut Rng) -> bool {
        let freed = self.vectors[member].free_slot(slot, rng);
        if freed {
            self.nonempty |= 1 << member;
            self.touched |= 1 << member;
            self.frees = self.frees.saturating_add(1);
        }
        freed
    }

    /// Counts a free this thread made of an object of the class that is no
    /// member's. It weighs as evidence like any other: a thread whose
    /// frees all land elsewhere has stopped drawing on its members, and
    /// one non-local free in an interval does not make it a thread that
    /// "is only filling".
    #[inline]
    pub fn note_free_elsewhere(&mut self) {
        self.frees = self.frees.saturating_add(1);
    }

    /// The retention rule: whether `member` is entirely free and the set
    /// can spare it — the other members already hold a span's worth of
    /// free slots (the goal a refill fills to), or one of them is entirely
    /// free too. Such a member is released at once; it is destroyed the
    /// moment it detaches. A thread so keeps at most one empty span per
    /// class, and keeps that one while it is short of slots without it:
    /// a loop of k + 1 mallocs then k + 1 frees over a set with k spare
    /// slots settles on the span it carved first, where "release unless it
    /// is the only source of slots" carved and destroyed one per turn.
    #[inline]
    pub fn is_surplus_empty(&self, member: usize) -> bool {
        let sv = &self.vectors[member];
        sv.available() == sv.object_count() && self.can_spare(member)
    }

    /// Out of line: reached once per emptied span, not once per free.
    #[inline(never)]
    fn can_spare(&self, member: usize) -> bool {
        let goal = self.vectors[member].object_count();
        let mut spare = 0;
        for other in bits(self.nonempty & !(1 << member)) {
            let sv = &self.vectors[other];
            spare += sv.available();
            if spare >= goal || sv.available() == sv.object_count() {
                return true;
            }
        }
        false
    }

    /// Ends the interval that began at the last call and returns the
    /// members this thread stopped drawing on in it, as a mask of
    /// positions: those none of its frees landed in, if the interval can
    /// tell. It can when the thread freed nothing of this class while it
    /// used up a span's worth of slots, or for [`FILL_STREAK`] intervals
    /// running — it is only filling, and every member is idle, as the
    /// single attached span was at every refill — or when it freed
    /// [`IDLE_EVIDENCE`] objects per member, so that a member it does draw
    /// on was almost surely hit. Fewer frees than that name no one, and
    /// neither does one interval that began with a refill that found only
    /// a few slots (what other threads' frees had just given back): the
    /// next refill follows before the thread had anything to free. A
    /// refill releases the idle members (they are
    /// full: a refill runs with every member exhausted) and keeps the ones
    /// whose frees it would otherwise turn into remote frees.
    pub fn take_idle(&mut self) -> u32 {
        let (touched, frees) = (self.touched, self.frees as usize);
        let granted = std::mem::take(&mut self.granted) as usize;
        self.touched = 0;
        self.frees = 0;
        let attached = self.attached();
        if attached == 0 {
            return 0;
        }
        let told = if frees == 0 {
            self.fill_streak = self.fill_streak.saturating_add(1);
            let span = self.vectors[attached.trailing_zeros() as usize].object_count();
            granted >= span || self.fill_streak >= FILL_STREAK
        } else {
            self.fill_streak = 0;
            frees >= IDLE_EVIDENCE * attached.count_ones() as usize
        };
        if told {
            attached & !touched
        } else {
            0
        }
    }

    /// Mask of the positions that hold a member.
    fn attached(&self) -> u32 {
        let mut attached = 0u32;
        for (i, &m) in self.ids.iter().enumerate() {
            attached |= u32::from(m != 0) << i;
        }
        attached
    }

    /// A uniformly chosen member with no free slots — the eviction victim
    /// when a refill needs room — or `None` if every member has some.
    pub fn pick_full(&self, rng: &mut Rng) -> Option<usize> {
        let full = self.attached() & !self.nonempty;
        if full == 0 {
            return None;
        }
        bits(full).nth(rng.below(full.count_ones()) as usize)
    }

    /// Attaches a span at the lowest vacant position: `attach` must attach
    /// the vector it is given (and register any aliases). Returns the
    /// number of free slots the new member brought.
    ///
    /// # Panics
    ///
    /// Panics if the set is full or `attach` left the vector detached.
    pub fn attach_with(&mut self, attach: impl FnOnce(&mut ShuffleVector)) -> usize {
        let member = self
            .ids
            .iter()
            .position(|&m| m == 0)
            .expect("attach into a full set");
        // Vacant positions at or past `len` have never been used; the
        // lowest vacant one is therefore at most `len`.
        if member == self.vectors.len() {
            self.vectors.push(ShuffleVector::new(self.randomized));
        }
        let sv = &mut self.vectors[member];
        attach(sv);
        let raw = sv
            .miniheap()
            .expect("attach left the vector detached")
            .to_raw();
        self.ids[member] = raw;
        self.filter |= Self::filter_bit(raw);
        let gained = sv.available();
        if gained > 0 {
            self.nonempty |= 1 << member;
        }
        self.granted += gained as u32;
        gained
    }

    /// Removes `member` from the set and returns its still-attached
    /// vector, which the caller must detach against the MiniHeap's bitmap
    /// before the set is used again.
    pub fn unlink(&mut self, member: usize) -> &mut ShuffleVector {
        debug_assert!(self.ids[member] != 0, "unlinking a vacant position");
        self.ids[member] = 0;
        // Two members may share a filter bit: rebuild, don't clear.
        let members = self.ids.iter().filter(|&&m| m != 0);
        self.filter = members.fold(0, |f, &m| f | Self::filter_bit(m));
        self.nonempty &= !(1 << member);
        self.touched &= !(1 << member);
        &mut self.vectors[member]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::AtomicBitmap;
    use std::collections::HashSet;

    const SPAN: usize = 0x1000_0000;
    const SLOTS: usize = 16;
    const SIZE: usize = 256;

    /// Attaches span number `n` (id `n + 1`) with `bitmap` to `set`.
    fn attach(set: &mut AttachedSet, n: usize, bitmap: &AtomicBitmap, rng: &mut Rng) -> usize {
        set.attach_with(|sv| {
            sv.attach(
                MiniHeapId::from_raw(n as u32 + 1),
                SPAN + n * 4096,
                4096,
                SLOTS,
                SIZE,
                bitmap,
                rng,
            )
        })
    }

    fn id(n: usize) -> MiniHeapId {
        MiniHeapId::from_raw(n as u32 + 1)
    }

    #[test]
    fn empty_set_allocates_nothing_and_finds_nothing() {
        let mut set = AttachedSet::new(true);
        assert_eq!(set.malloc(), None);
        assert_eq!(set.find(id(0)), None);
        assert_eq!(set.len(), 0);
        assert_eq!(set.available(), 0);
    }

    #[test]
    fn malloc_rotates_through_every_member_before_giving_up() {
        let mut rng = Rng::with_seed(1);
        let mut set = AttachedSet::new(true);
        let bitmaps: Vec<AtomicBitmap> = (0..3).map(|_| AtomicBitmap::new(SLOTS)).collect();
        for (n, bm) in bitmaps.iter().enumerate() {
            assert_eq!(attach(&mut set, n, bm, &mut rng), SLOTS);
        }
        assert_eq!(set.available(), 3 * SLOTS);
        let mut seen = HashSet::new();
        while let Some(addr) = set.malloc() {
            assert!(seen.insert(addr), "duplicate address {addr:#x}");
        }
        assert_eq!(
            seen.len(),
            3 * SLOTS,
            "every slot of every member handed out"
        );
        assert_eq!(set.available(), 0);
    }

    #[test]
    fn free_into_a_non_current_member_is_found_and_reused() {
        let mut rng = Rng::with_seed(2);
        let mut set = AttachedSet::new(true);
        let bitmaps: Vec<AtomicBitmap> = (0..3).map(|_| AtomicBitmap::new(SLOTS)).collect();
        for (n, bm) in bitmaps.iter().enumerate() {
            attach(&mut set, n, bm, &mut rng);
        }
        let addrs: Vec<usize> = std::iter::from_fn(|| set.malloc()).collect();
        // An object of member 0 while malloc last popped member 2.
        let victim = *addrs.iter().find(|&&a| a < SPAN + 4096).unwrap();
        let member = set.find(id(0)).unwrap();
        assert_eq!(member, 0);
        let slot = (victim - SPAN) / SIZE;
        assert!(unsafe { set.free_slot(member, slot, &mut rng) });
        assert!(
            !unsafe { set.free_slot(member, slot, &mut rng) },
            "double free caught"
        );
        assert_eq!(set.malloc(), Some(victim), "malloc moved back to member 0");
        assert_eq!(set.malloc(), None);
    }

    #[test]
    fn empty_member_is_surplus_once_the_others_hold_a_span_of_slots() {
        let mut rng = Rng::with_seed(3);
        let mut set = AttachedSet::new(true);
        let bitmaps: Vec<AtomicBitmap> = (0..3).map(|_| AtomicBitmap::new(SLOTS)).collect();
        attach(&mut set, 0, &bitmaps[0], &mut rng);
        assert!(!set.is_surplus_empty(0), "the sole slot source is kept");
        attach(&mut set, 1, &bitmaps[1], &mut rng);
        assert!(
            set.is_surplus_empty(0) && set.is_surplus_empty(1),
            "two empty members: either can go"
        );
        // Members 0 and 1 full, member 2 empty: it is all the slots the
        // set has, whether or not malloc has moved on to it yet.
        for _ in 0..2 * SLOTS {
            set.malloc().unwrap();
        }
        attach(&mut set, 2, &bitmaps[2], &mut rng);
        assert!(!set.is_surplus_empty(2));
        assert!(!set.is_surplus_empty(0), "a full member is not empty");
        // Slots come back elsewhere: member 2 stays until they add up to
        // a span's worth, over however many members.
        for slot in 0..SLOTS / 2 {
            assert!(unsafe { set.free_slot(0, slot, &mut rng) });
            assert!(!set.is_surplus_empty(2), "{} spare slots", slot + 1);
        }
        for slot in 0..SLOTS / 2 - 1 {
            assert!(unsafe { set.free_slot(1, slot, &mut rng) });
            assert!(!set.is_surplus_empty(2));
        }
        assert!(unsafe { set.free_slot(1, SLOTS - 1, &mut rng) });
        assert!(set.is_surplus_empty(2));
        // Sparse is not empty: member 0 down to its last object stays.
        for slot in SLOTS / 2..SLOTS - 1 {
            assert!(unsafe { set.free_slot(0, slot, &mut rng) });
            assert!(!set.is_surplus_empty(0));
        }
        assert!(unsafe { set.free_slot(0, SLOTS - 1, &mut rng) });
        assert!(set.is_surplus_empty(0), "member 2 is empty as well");
    }

    #[test]
    fn idle_members_are_named_only_by_an_interval_that_can_tell() {
        let mut rng = Rng::with_seed(6);
        let mut set = AttachedSet::new(true);
        let bitmaps: Vec<AtomicBitmap> = (0..3).map(|_| AtomicBitmap::new(SLOTS)).collect();
        for (n, bm) in bitmaps.iter().enumerate() {
            attach(&mut set, n, bm, &mut rng);
        }
        for _ in 0..3 * SLOTS {
            set.malloc().unwrap();
        }
        // No free at all: the thread is only filling, every member is idle.
        assert_eq!(set.take_idle(), 0b111);
        // A few frees say little about the members they missed, and a
        // rejected double free is not one.
        for slot in 0..IDLE_EVIDENCE * 3 - 1 {
            assert!(unsafe { set.free_slot(1, slot, &mut rng) });
        }
        assert!(!unsafe { set.free_slot(1, 0, &mut rng) });
        assert_eq!(set.take_idle(), 0, "not enough frees to tell");
        // Each call starts a new interval: the eleven frees are forgotten.
        assert!(unsafe { set.free_slot(1, SLOTS - 1, &mut rng) });
        assert_eq!(set.take_idle(), 0);
        // An interval without a free tells only if the thread filled a
        // span's worth meanwhile; one slot a refill found does not count.
        assert_eq!(set.take_idle(), 0, "nothing was handed out either");
        let crumbs = AtomicBitmap::new(SLOTS);
        crumbs.try_set(0);
        assert_eq!(attach(&mut set, 3, &crumbs, &mut rng), SLOTS - 1);
        assert_eq!(set.take_idle(), 0, "a refill that found {} slots", SLOTS - 1);
        set.unlink(3).detach(&crumbs);
        crumbs.unset(0);
        assert_eq!(attach(&mut set, 3, &crumbs, &mut rng), SLOTS);
        assert_eq!(set.take_idle(), 0b1111);
        set.unlink(3).detach(&crumbs);
        // Enough frees, all into member 0; the vacated position carries
        // nothing over.
        assert!(unsafe { set.free_slot(2, 0, &mut rng) });
        set.unlink(2).detach(&bitmaps[2]);
        for slot in 0..IDLE_EVIDENCE * 2 {
            assert!(unsafe { set.free_slot(0, slot, &mut rng) });
        }
        assert_eq!(set.take_idle(), 0b010, "member 1 was missed every time");
    }

    #[test]
    fn a_run_of_intervals_without_a_free_is_a_thread_that_only_fills() {
        // Refills that find a slot or two each: no single interval says
        // anything, but a thread that went three of them without freeing
        // an object of the class is not drawing on its members.
        let mut rng = Rng::with_seed(7);
        let mut set = AttachedSet::new(true);
        let crumbs: Vec<AtomicBitmap> = (0..4).map(|_| AtomicBitmap::new(SLOTS)).collect();
        for (n, bm) in crumbs.iter().enumerate() {
            for slot in 1..SLOTS {
                bm.try_set(slot);
            }
            assert_eq!(attach(&mut set, n, bm, &mut rng), 1);
            set.malloc().unwrap();
            let idle = set.take_idle();
            assert_eq!(idle, if n < 2 { 0 } else { (1 << (n + 1)) - 1 }, "interval {n}");
        }
        // One free anywhere in the class, even of another thread's
        // object, and the count starts over.
        set.note_free_elsewhere();
        assert_eq!(set.take_idle(), 0);
        assert_eq!(set.take_idle(), 0);
    }

    #[test]
    fn unlink_vacates_the_lowest_position_for_the_next_attach() {
        let mut rng = Rng::with_seed(4);
        let mut set = AttachedSet::new(true);
        let bitmaps: Vec<AtomicBitmap> = (0..4).map(|_| AtomicBitmap::new(SLOTS)).collect();
        for (n, bm) in bitmaps.iter().enumerate().take(3) {
            attach(&mut set, n, bm, &mut rng);
        }
        let released = set.unlink(1).detach(&bitmaps[1]);
        assert_eq!(released, id(1));
        assert_eq!(set.available(), 2 * SLOTS);
        assert_eq!(bitmaps[1].in_use(), 0, "unconsumed slots returned");
        assert_eq!(set.find(id(1)), None);
        assert_eq!(set.members().collect::<Vec<_>>(), vec![0, 2]);
        attach(&mut set, 3, &bitmaps[3], &mut rng);
        assert_eq!(set.find(id(3)), Some(1), "vacated position reused");
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn pick_full_chooses_among_exhausted_members_only() {
        let mut rng = Rng::with_seed(5);
        let mut set = AttachedSet::new(true);
        let bitmaps: Vec<AtomicBitmap> = (0..3).map(|_| AtomicBitmap::new(SLOTS)).collect();
        for (n, bm) in bitmaps.iter().enumerate() {
            attach(&mut set, n, bm, &mut rng);
        }
        assert_eq!(set.pick_full(&mut rng), None, "every member has slots");
        for _ in 0..2 * SLOTS {
            set.malloc().unwrap();
        }
        let picks: HashSet<usize> = (0..64).filter_map(|_| set.pick_full(&mut rng)).collect();
        assert_eq!(
            picks,
            HashSet::from([0, 1]),
            "members 0 and 1 are full, 2 is not"
        );
    }

    #[test]
    fn set_never_exceeds_its_bound() {
        let mut rng = Rng::with_seed(7);
        let mut set = AttachedSet::new(false);
        let bitmaps: Vec<AtomicBitmap> = (0..ATTACHED_SPANS)
            .map(|_| AtomicBitmap::new(SLOTS))
            .collect();
        for (n, bm) in bitmaps.iter().enumerate() {
            assert!(!set.is_full());
            attach(&mut set, n, bm, &mut rng);
        }
        assert!(set.is_full());
        assert_eq!(set.len(), ATTACHED_SPANS);
        assert_eq!(set.find(id(ATTACHED_SPANS - 1)), Some(ATTACHED_SPANS - 1));
    }
}
