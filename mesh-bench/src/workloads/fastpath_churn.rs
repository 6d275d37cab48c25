//! `fastpath_churn` — one thread, a 4096-object live window with
//! random-victim replacement over all 24 small size classes.
//!
//! Why it exists: `local_heap` (with `shuffle_vector` and `page_map` inside
//! it) does the largest share of the work, `global_heap` refills and
//! `remote_free` drains the rest — with ~170 live objects per class, most
//! frees land on a span that is no longer attached. After warm-up `arena`,
//! `segment`, `sys` and `meshing` do none: a slow-path optimisation there
//! must show *no change* here, and a fast-path one shows here first.
//!
//! Each window slot belongs to one size class for the whole run (slots
//! are dealt round-robin over the classes), so the live set has the same
//! class mix under every seed and both sides of the 128 B boundary carry
//! equal object counts. The seed decides which slot is replaced next and
//! the exact request size inside the slot's class.

use super::{rss_kib, Meter, Round, Workload};
use crate::backend::{Backend, ThreadAlloc};
use crate::gen::{self, SplitMix, StreamHash};
use crate::spans::{Recording, SpanName, Tracer};
use mesh_core::NUM_SIZE_CLASSES;
use std::time::Instant;

pub const WINDOW: usize = 4096;

#[derive(Clone, Copy)]
struct Slot {
    ptr: *mut u8,
    id: u64,
    size: u32,
}

pub struct Plan {
    /// Slot replaced by step `i`.
    victims: Vec<u16>,
    /// Request size of the replacement.
    sizes: Vec<u16>,
    /// Request sizes of the initial fill, one per slot.
    fill: Vec<u16>,
}

impl Plan {
    pub fn new(seed: u64, smoke: bool) -> Plan {
        let steps = if smoke { 1 << 15 } else { 1 << 20 };
        let mut rng = SplitMix::new(seed ^ 0xfa57_9a78);
        let class_of = |slot: usize| slot % NUM_SIZE_CLASSES;
        let fill = (0..WINDOW)
            .map(|s| gen::size_in_class(&mut rng, class_of(s)) as u16)
            .collect();
        let mut victims = Vec::with_capacity(steps);
        let mut sizes = Vec::with_capacity(steps);
        for _ in 0..steps {
            let v = rng.below(WINDOW as u64) as usize;
            victims.push(v as u16);
            sizes.push(gen::size_in_class(&mut rng, class_of(v)) as u16);
        }
        Plan {
            victims,
            sizes,
            fill,
        }
    }

    pub fn hash(&self) -> u64 {
        let mut h = StreamHash::default();
        h.words(&self.fill);
        h.words(&self.victims);
        h.words(&self.sizes);
        h.finish()
    }
}

pub struct FastpathChurn<B: Backend, T: Tracer> {
    plan: Plan,
    heap: B::Heap,
    window: Vec<Slot>,
    live_req: u64,
    next_id: u64,
    meter: Meter,
    tracer: T,
}

impl<B: Backend, T: Tracer> Workload<B, T> for FastpathChurn<B, T> {
    const THREADS: usize = 1;

    fn setup(backend: &B, seed: u64, smoke: bool) -> Self {
        let plan = Plan::new(seed, smoke);
        let mut w = FastpathChurn {
            heap: backend.thread_heap(),
            window: Vec::with_capacity(WINDOW),
            live_req: 0,
            next_id: 1,
            meter: Meter::default(),
            tracer: T::fresh(Instant::now()),
            plan,
        };
        for s in 0..WINDOW {
            let size = w.plan.fill[s] as usize;
            let id = w.next_id;
            w.next_id += 1;
            let p = w.meter.malloc(
                backend,
                &mut w.heap,
                &mut w.tracer,
                SpanName::Malloc,
                id,
                size,
            );
            if !p.is_null() {
                // SAFETY: `p` is a fresh allocation of `size` ≥ 16 bytes.
                unsafe { gen::stamp(p, id, size) };
            }
            w.window.push(Slot {
                ptr: p,
                id,
                size: size as u32,
            });
            w.live_req += size as u64;
        }
        w
    }

    fn plan_hash(&self) -> u64 {
        self.plan.hash()
    }

    fn ops_per_round(&self) -> u64 {
        2 * self.plan.victims.len() as u64
    }

    fn reset(&mut self) {
        self.meter = Meter::default();
        self.tracer = T::fresh(Instant::now());
    }

    fn round(&mut self, backend: &B) -> Round {
        let t0 = Instant::now();
        for i in 0..self.plan.victims.len() {
            let v = self.plan.victims[i] as usize;
            let size = self.plan.sizes[i] as usize;
            let id = self.next_id;
            self.next_id += 1;
            self.tracer.enter(SpanName::Op, id);
            let old = self.window[v];
            if !old.ptr.is_null() {
                // SAFETY: `old.ptr` is the live allocation stamped with
                // (`old.id`, `old.size`) when it entered the window.
                unsafe {
                    if !gen::stamp_ok(old.ptr, old.id, old.size as usize) {
                        self.meter.failed += 1;
                    }
                    self.meter.free(
                        &mut self.heap,
                        &mut self.tracer,
                        SpanName::Free,
                        id,
                        old.ptr,
                    );
                }
            }
            let p = self.meter.malloc(
                backend,
                &mut self.heap,
                &mut self.tracer,
                SpanName::Malloc,
                id,
                size,
            );
            if !p.is_null() {
                // SAFETY: fresh allocation of `size` ≥ 16 bytes.
                unsafe { gen::stamp(p, id, size) };
            }
            self.live_req = self.live_req - u64::from(old.size) + size as u64;
            self.window[v] = Slot {
                ptr: p,
                id,
                size: size as u32,
            };
            self.tracer.exit();
        }
        let secs = t0.elapsed().as_secs_f64();
        // Steady point: the window is full and nothing is pending.
        Round {
            ops: self.ops_per_round(),
            secs,
            steady_rss_kib: rss_kib(),
            heap_bytes: backend.mesh().map_or(0, |m| m.heap_bytes() as u64),
            live_req_bytes: self.live_req,
        }
    }

    fn finish(mut self, _backend: &B) -> (Meter, Recording) {
        for slot in std::mem::take(&mut self.window) {
            if !slot.ptr.is_null() {
                // SAFETY: every non-null window entry is live.
                unsafe { self.heap.free(slot.ptr) };
            }
        }
        (self.meter, self.tracer.into_recording())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::GlibcBackend;
    use crate::spans::NoTrace;

    #[test]
    fn a_corrupted_stamp_raises_the_failure_count() {
        let backend = GlibcBackend;
        let mut w: FastpathChurn<GlibcBackend, NoTrace> = Workload::setup(&backend, 5, true);
        w.round(&backend);
        assert_eq!(w.meter.failed, 0, "a healthy round fails nothing");
        let attempted = w.meter.attempted;

        // Flip one bit of the tail stamp of the object the next round
        // replaces first.
        let victim = w.window[w.plan.victims[0] as usize];
        // SAFETY: `victim.ptr` is a live allocation of `victim.size` bytes.
        unsafe { *victim.ptr.add(victim.size as usize - 1) ^= 0x01 };
        w.round(&backend);
        assert_eq!(
            w.meter.failed, 1,
            "exactly the corrupted object is reported"
        );
        assert!(w.meter.failed as f64 / (w.meter.attempted - attempted) as f64 > 0.0);
        w.finish(&backend);
    }
}
