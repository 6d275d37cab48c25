//! Lock-free tables backing the sampled heap profiler: the *fingerprint
//! table* interning call-site chains, and the *sampled set* tracking the
//! live sampled objects through `free`.
//!
//! Both are fixed-capacity open-addressing hash tables whose slots are
//! claimed with a single CAS — no locks anywhere, so the free path's
//! lookup can run from any thread (including under a shard lock) and a
//! `fork()` can never inherit a held table lock. Capacity is fixed at
//! heap construction; overflow degrades gracefully (samples fold into a
//! catch-all site, or are dropped and counted) instead of resizing.
//!
//! ## Slot protocols
//!
//! **Fingerprint table** (one slot per distinct call-site chain, never
//! removed): `state` goes `EMPTY → CLAIMED` by CAS, the claimer writes
//! `hash`/`depth`/`frames`, then publishes with a release store of
//! `READY`. Readers that race a `CLAIMED` slot spin briefly — the window
//! is a bounded run of plain stores. Per-site counters are relaxed
//! `fetch_add`s; the dump reads them individually (cross-counter skew of
//! an in-flight sample is acceptable for reporting).
//!
//! **Sampled set** (one slot per live sampled object): the `addr` word is
//! the whole state machine — `EMPTY`/`TOMBSTONE`/`CLAIMED` sentinels or
//! the object address. Insert CASes a reusable slot to `CLAIMED`, writes
//! the payload (weight + site), then publishes the address with a release
//! store; the only reader that dereferences the payload is the `free` of
//! that same address, which cannot begin before the insert's `malloc`
//! returns. Remove reads the payload, then CASes `addr → TOMBSTONE`; a
//! lost CAS means a racing free already consumed the sample.

use super::fields::{self, num, row, Field, Value::Json};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// Maximum frames kept per call-site fingerprint.
pub const MAX_FRAMES: usize = 16;

/// Site id of the catch-all entry used when the fingerprint table is full.
pub const OVERFLOW_SITE: u32 = u32::MAX;

/// Probe ceiling for both tables: bounds worst-case lookup cost and turns
/// pathological clustering into counted drops instead of long scans.
const PROBE_LIMIT: usize = 64;

// ---------------------------------------------------------------------
// Fingerprint table
// ---------------------------------------------------------------------

const SITE_EMPTY: u32 = 0;
const SITE_CLAIMED: u32 = 1;
const SITE_READY: u32 = 2;

/// One interned call-site chain plus its sampled totals.
#[derive(Debug)]
pub(crate) struct SiteEntry {
    state: AtomicU32,
    depth: AtomicU32,
    hash: AtomicU64,
    frames: [AtomicUsize; MAX_FRAMES],
    /// Sampled allocations attributed to this site.
    pub alloc_samples: AtomicU64,
    /// Unbiased byte estimate of allocations attributed to this site.
    pub alloc_bytes: AtomicU64,
    /// Sampled frees attributed to this site.
    pub free_samples: AtomicU64,
    /// Unbiased byte estimate of frees attributed to this site.
    pub freed_bytes: AtomicU64,
}

impl SiteEntry {
    fn new() -> SiteEntry {
        SiteEntry {
            state: AtomicU32::new(SITE_EMPTY),
            depth: AtomicU32::new(0),
            hash: AtomicU64::new(0),
            frames: std::array::from_fn(|_| AtomicUsize::new(0)),
            alloc_samples: AtomicU64::new(0),
            alloc_bytes: AtomicU64::new(0),
            free_samples: AtomicU64::new(0),
            freed_bytes: AtomicU64::new(0),
        }
    }

    fn matches(&self, hash: u64, frames: &[usize]) -> bool {
        if self.hash.load(Ordering::Relaxed) != hash
            || self.depth.load(Ordering::Relaxed) as usize != frames.len()
        {
            return false;
        }
        frames
            .iter()
            .zip(&self.frames)
            .all(|(&f, slot)| slot.load(Ordering::Relaxed) == f)
    }
}

/// A point-in-time copy of one site's chain and totals, for dumps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteSnapshot {
    /// Site id (index in the fingerprint table, or [`OVERFLOW_SITE`]).
    pub site: u32,
    /// Captured return addresses, innermost first. Empty when
    /// frame-pointer walking found nothing (or for the overflow site).
    pub frames: Vec<usize>,
    /// Sampled allocations attributed to this site.
    pub alloc_samples: u64,
    /// Unbiased allocated-byte estimate.
    pub alloc_bytes: u64,
    /// Sampled frees attributed to this site.
    pub free_samples: u64,
    /// Unbiased freed-byte estimate.
    pub freed_bytes: u64,
}

impl SiteSnapshot {
    /// Estimated bytes still live at this site.
    pub fn live_bytes(&self) -> u64 {
        self.alloc_bytes.saturating_sub(self.freed_bytes)
    }

    /// Sampled objects still live at this site.
    pub fn live_samples(&self) -> u64 {
        self.alloc_samples.saturating_sub(self.free_samples)
    }
}

/// The members of a profile document's entry.
pub(crate) static SITE_FIELDS: [Field<SiteSnapshot>; 8] = [
    num!(site),
    row!(key: "frames", get: |e| Json(fields::array(e.frames.iter().map(|a| format!("\"{a:#x}\""))))),
    num!(live_bytes()),
    num!(live_samples()),
    num!(alloc_bytes),
    num!(alloc_samples),
    num!(freed_bytes),
    num!(free_samples),
];

/// Lock-free interning table of call-site fingerprints.
#[derive(Debug)]
pub(crate) struct FingerprintTable {
    slots: Box<[SiteEntry]>,
    mask: usize,
    /// Catch-all totals once the table is full (chains are not kept).
    overflow: SiteEntry,
}

fn hash_frames(frames: &[usize]) -> u64 {
    // FNV-1a over the frame words; the length is folded in so a chain and
    // its prefix hash apart.
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ frames.len() as u64;
    for &f in frames {
        h = (h ^ f as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl FingerprintTable {
    /// Creates a table with `capacity` slots (rounded up to a power of
    /// two, minimum 64).
    pub fn new(capacity: usize) -> FingerprintTable {
        let cap = capacity.next_power_of_two().max(64);
        FingerprintTable {
            slots: (0..cap).map(|_| SiteEntry::new()).collect(),
            mask: cap - 1,
            overflow: SiteEntry::new(),
        }
    }

    /// Interns `frames`, returning its site id ([`OVERFLOW_SITE`] when the
    /// table — or this chain's probe window — is full).
    pub fn intern(&self, frames: &[usize]) -> u32 {
        let hash = hash_frames(frames);
        let mut idx = hash as usize & self.mask;
        for _ in 0..PROBE_LIMIT.min(self.slots.len()) {
            let entry = &self.slots[idx];
            match entry.state.load(Ordering::Acquire) {
                SITE_READY => {
                    if entry.matches(hash, frames) {
                        return idx as u32;
                    }
                }
                SITE_EMPTY => {
                    if entry
                        .state
                        .compare_exchange(
                            SITE_EMPTY,
                            SITE_CLAIMED,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        entry.hash.store(hash, Ordering::Relaxed);
                        entry.depth.store(frames.len() as u32, Ordering::Relaxed);
                        for (slot, &f) in entry.frames.iter().zip(frames) {
                            slot.store(f, Ordering::Relaxed);
                        }
                        entry.state.store(SITE_READY, Ordering::Release);
                        return idx as u32;
                    }
                    // Lost the claim race: fall through to the spin below.
                    if self.spin_ready(entry) && entry.matches(hash, frames) {
                        return idx as u32;
                    }
                }
                _claimed => {
                    if self.spin_ready(entry) && entry.matches(hash, frames) {
                        return idx as u32;
                    }
                }
            }
            idx = (idx + 1) & self.mask;
        }
        OVERFLOW_SITE
    }

    /// Waits (bounded) for a claimed slot to publish. Returns whether it
    /// became ready; the claim→publish window is a short run of plain
    /// stores, so in practice one or two spins suffice.
    fn spin_ready(&self, entry: &SiteEntry) -> bool {
        for i in 0..1000 {
            if entry.state.load(Ordering::Acquire) == SITE_READY {
                return true;
            }
            if i > 100 {
                unsafe { crate::ffi::sched_yield() };
            } else {
                std::hint::spin_loop();
            }
        }
        false
    }

    fn entry(&self, site: u32) -> &SiteEntry {
        if site == OVERFLOW_SITE {
            &self.overflow
        } else {
            &self.slots[site as usize]
        }
    }

    /// Credits a sampled allocation of unbiased weight `bytes` to `site`.
    pub fn record_alloc(&self, site: u32, bytes: u64) {
        let e = self.entry(site);
        e.alloc_samples.fetch_add(1, Ordering::Relaxed);
        e.alloc_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Credits the free of a sampled object of weight `bytes` to `site`.
    pub fn record_free(&self, site: u32, bytes: u64) {
        let e = self.entry(site);
        e.free_samples.fetch_add(1, Ordering::Relaxed);
        e.freed_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Estimated live bytes across every site (unbiased estimator sum).
    pub fn live_bytes_estimate(&self) -> u64 {
        self.iter_entries()
            .map(|e| {
                e.alloc_bytes
                    .load(Ordering::Relaxed)
                    .saturating_sub(e.freed_bytes.load(Ordering::Relaxed))
            })
            .sum()
    }

    /// Number of distinct interned sites (excluding the overflow entry).
    pub fn site_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|e| e.state.load(Ordering::Acquire) == SITE_READY)
            .count()
    }

    fn iter_entries(&self) -> impl Iterator<Item = &SiteEntry> {
        self.slots
            .iter()
            .filter(|e| e.state.load(Ordering::Acquire) == SITE_READY)
            .chain(
                (self.overflow.alloc_samples.load(Ordering::Relaxed) > 0)
                    .then_some(&self.overflow),
            )
    }

    /// Snapshots every site with at least one sample (allocates; callers
    /// hold the internal-alloc guard).
    pub fn snapshots(&self) -> Vec<SiteSnapshot> {
        let mut out = Vec::new();
        for (idx, e) in self.slots.iter().enumerate() {
            if e.state.load(Ordering::Acquire) != SITE_READY {
                continue;
            }
            if e.alloc_samples.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let depth = (e.depth.load(Ordering::Relaxed) as usize).min(MAX_FRAMES);
            out.push(SiteSnapshot {
                site: idx as u32,
                frames: e.frames[..depth]
                    .iter()
                    .map(|f| f.load(Ordering::Relaxed))
                    .collect(),
                alloc_samples: e.alloc_samples.load(Ordering::Relaxed),
                alloc_bytes: e.alloc_bytes.load(Ordering::Relaxed),
                free_samples: e.free_samples.load(Ordering::Relaxed),
                freed_bytes: e.freed_bytes.load(Ordering::Relaxed),
            });
        }
        if self.overflow.alloc_samples.load(Ordering::Relaxed) > 0 {
            out.push(SiteSnapshot {
                site: OVERFLOW_SITE,
                frames: Vec::new(),
                alloc_samples: self.overflow.alloc_samples.load(Ordering::Relaxed),
                alloc_bytes: self.overflow.alloc_bytes.load(Ordering::Relaxed),
                free_samples: self.overflow.free_samples.load(Ordering::Relaxed),
                freed_bytes: self.overflow.freed_bytes.load(Ordering::Relaxed),
            });
        }
        out.sort_by_key(|s| std::cmp::Reverse(s.live_bytes()));
        out
    }
}

// ---------------------------------------------------------------------
// Sampled set
// ---------------------------------------------------------------------

const ADDR_EMPTY: usize = 0;
const ADDR_TOMBSTONE: usize = 1;
const ADDR_CLAIMED: usize = 2;

#[derive(Debug)]
struct LiveSlot {
    addr: AtomicUsize,
    weight: AtomicU64,
    site: AtomicU32,
}

/// Lock-free address → (weight, site) map of live sampled objects.
#[derive(Debug)]
pub(crate) struct SampledSet {
    slots: Box<[LiveSlot]>,
    mask: usize,
}

#[inline]
fn hash_addr(addr: usize) -> usize {
    // Objects are ≥16-byte aligned; drop dead bits then mix.
    (addr >> 4).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

impl SampledSet {
    /// Creates a set with `capacity` slots (rounded up to a power of two,
    /// minimum 64).
    pub fn new(capacity: usize) -> SampledSet {
        let cap = capacity.next_power_of_two().max(64);
        SampledSet {
            slots: (0..cap)
                .map(|_| LiveSlot {
                    addr: AtomicUsize::new(ADDR_EMPTY),
                    weight: AtomicU64::new(0),
                    site: AtomicU32::new(0),
                })
                .collect(),
            mask: cap - 1,
        }
    }

    /// Records `addr` as a live sampled object. Returns `false` (sample
    /// dropped) when no slot frees up within the probe window.
    pub fn insert(&self, addr: usize, weight: u64, site: u32) -> bool {
        debug_assert!(addr > ADDR_CLAIMED);
        let mut idx = hash_addr(addr) & self.mask;
        for _ in 0..PROBE_LIMIT.min(self.slots.len()) {
            let slot = &self.slots[idx];
            let cur = slot.addr.load(Ordering::Acquire);
            if (cur == ADDR_EMPTY || cur == ADDR_TOMBSTONE)
                && slot
                    .addr
                    .compare_exchange(cur, ADDR_CLAIMED, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                slot.weight.store(weight, Ordering::Relaxed);
                slot.site.store(site, Ordering::Relaxed);
                slot.addr.store(addr, Ordering::Release);
                return true;
            }
            idx = (idx + 1) & self.mask;
        }
        false
    }

    /// Removes `addr` if it is a live sampled object, returning its
    /// `(weight, site)`. Misses (the common case: unsampled objects) cost
    /// one probe run that usually ends on the first empty slot.
    pub fn remove(&self, addr: usize) -> Option<(u64, u32)> {
        let mut idx = hash_addr(addr) & self.mask;
        for _ in 0..PROBE_LIMIT.min(self.slots.len()) {
            let slot = &self.slots[idx];
            let cur = slot.addr.load(Ordering::Acquire);
            if cur == addr {
                // Payload is stable while `addr` is published; read it
                // before the CAS releases the slot for reuse.
                let weight = slot.weight.load(Ordering::Relaxed);
                let site = slot.site.load(Ordering::Relaxed);
                if slot
                    .addr
                    .compare_exchange(addr, ADDR_TOMBSTONE, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    return Some((weight, site));
                }
                // A racing free consumed it first (hostile double free).
                return None;
            }
            if cur == ADDR_EMPTY {
                return None;
            }
            idx = (idx + 1) & self.mask;
        }
        None
    }

    /// Live sampled objects currently tracked (dump diagnostic; O(slots)).
    pub fn len(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.addr.load(Ordering::Relaxed) > ADDR_CLAIMED)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedups_and_distinguishes() {
        let t = FingerprintTable::new(256);
        let a = t.intern(&[0x1000, 0x2000]);
        let b = t.intern(&[0x1000, 0x2000]);
        let c = t.intern(&[0x1000, 0x2001]);
        let d = t.intern(&[0x1000]);
        assert_eq!(a, b, "identical chains intern to one site");
        assert_ne!(a, c);
        assert_ne!(a, d, "prefix chains are distinct sites");
        assert_eq!(t.site_count(), 3);
    }

    #[test]
    fn record_and_estimate() {
        let t = FingerprintTable::new(64);
        let s = t.intern(&[0xabc]);
        t.record_alloc(s, 1000);
        t.record_alloc(s, 500);
        t.record_free(s, 500);
        assert_eq!(t.live_bytes_estimate(), 1000);
        let snaps = t.snapshots();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].alloc_samples, 2);
        assert_eq!(snaps[0].live_bytes(), 1000);
        assert_eq!(snaps[0].live_samples(), 1);
        assert_eq!(snaps[0].frames, vec![0xabc]);
    }

    #[test]
    fn overflow_site_catches_spill() {
        // Capacity 64 with a probe limit of 64: fill it past the brim.
        let t = FingerprintTable::new(1);
        let mut overflowed = false;
        for i in 0..1000usize {
            let site = t.intern(&[0x1000 + i * 16]);
            if site == OVERFLOW_SITE {
                overflowed = true;
                t.record_alloc(site, 64);
            }
        }
        assert!(overflowed, "1000 chains must not fit 64 slots");
        let snaps = t.snapshots();
        let of = snaps.iter().find(|s| s.site == OVERFLOW_SITE).unwrap();
        assert!(of.alloc_samples > 0);
        assert!(of.frames.is_empty());
    }

    #[test]
    fn sampled_set_roundtrip_and_miss() {
        let set = SampledSet::new(128);
        assert!(set.insert(0x7f00_0000_1000, 4096, 3));
        assert_eq!(set.len(), 1);
        assert_eq!(set.remove(0x7f00_0000_2000), None, "miss");
        assert_eq!(set.remove(0x7f00_0000_1000), Some((4096, 3)));
        assert_eq!(set.remove(0x7f00_0000_1000), None, "double free misses");
        assert_eq!(set.len(), 0);
    }

    #[test]
    fn sampled_set_reuses_tombstones() {
        let set = SampledSet::new(64);
        for round in 0..10u64 {
            for i in 0..32usize {
                assert!(
                    set.insert(0x1_0000 + i * 16, round + 1, i as u32),
                    "round {round}: insert {i} (tombstones must be reused)"
                );
            }
            for i in 0..32usize {
                assert_eq!(set.remove(0x1_0000 + i * 16), Some((round + 1, i as u32)));
            }
        }
    }

    #[test]
    fn sampled_set_drops_on_full() {
        let set = SampledSet::new(1); // rounds up to 64
        let mut inserted = 0;
        for i in 0..200usize {
            if set.insert(0x1_0000 + i * 16, 1, 0) {
                inserted += 1;
            }
        }
        assert!(inserted >= 60, "most slots usable");
        assert!(inserted < 200, "overflow must drop, not loop");
    }

    #[test]
    fn concurrent_intern_and_set_churn() {
        let t = std::sync::Arc::new(FingerprintTable::new(512));
        let set = std::sync::Arc::new(SampledSet::new(4096));
        let mut handles = vec![];
        for th in 0..4usize {
            let t = std::sync::Arc::clone(&t);
            let set = std::sync::Arc::clone(&set);
            handles.push(std::thread::spawn(move || {
                for i in 0..2000usize {
                    // Half the chains are shared across threads, half private.
                    let chain = if i % 2 == 0 {
                        [0x4000 + (i % 50) * 8, 0x9000]
                    } else {
                        [0x4000 + th * 0x1_0000 + i * 8, 0x9000]
                    };
                    let site = t.intern(&chain);
                    t.record_alloc(site, 100);
                    let addr = 0x7f00_0000 + th * 0x10_0000 + i * 16;
                    if set.insert(addr, 100, site) {
                        let (w, s) = set.remove(addr).expect("own insert visible");
                        t.record_free(s, w);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.live_bytes_estimate(), 0, "every sampled alloc was freed");
        assert_eq!(set.len(), 0);
    }
}
