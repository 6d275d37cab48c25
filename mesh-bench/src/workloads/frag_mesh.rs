//! `frag_mesh` — the paper's §6.2.2/§6.3 shape: fill, free a random 88 %
//! so every span is sparse, then let the compactor work while the mutator
//! keeps a light churn going; repeat with a second value size.
//!
//! Why it exists: `meshing` (candidate search, copies, remaps, the write
//! barrier) and the `remote_free` drain of the 88 % frees do most of the
//! allocator's work, `arena`'s purge some, the fast path little. This is
//! where `steady_rss_mib`, `frag_ratio` and `op_p99_ns`-under-meshing live.
//!
//! One round: phase A (keys of 33–48 B, values of 225–256 B), phase B
//! (values of 449–512 B) on top of A's survivors, each followed by
//! [`PASSES`] compaction passes run back to back by a second thread — a
//! fixed count, no timer — with the mutator churning a fixed number of
//! replacements alongside every pass. The steady point follows the last
//! pass; then every survivor is checked byte for byte, freed, and the heap
//! purged so the next round starts empty.

use super::{rss_kib, Meter, Round, Workload};
use crate::backend::{Backend, ThreadAlloc};
use crate::gen::{self, SplitMix, StreamHash};
use crate::spans::{Recording, SpanName, Tracer};
use std::time::Instant;

/// Compaction passes after each phase.
pub const PASSES: usize = 3;
/// Share of each phase's entries freed before compaction, in percent.
pub const FREED_PERCENT: usize = 88;
const CHURN_WINDOW: usize = 256;

const KEY_CLASS: usize = 2; // 48 B
const VALUE_CLASS: [usize; 2] = [11, 15]; // 256 B, 512 B

struct PhasePlan {
    key_sizes: Vec<u16>,
    value_sizes: Vec<u16>,
    /// Entries freed, in order; the rest survive to the end of the round.
    freed: Vec<u32>,
    /// Replacement steps churned alongside each pass: slot and size.
    churn: Vec<(u8, u16)>,
}

pub struct Plan {
    phases: [PhasePlan; 2],
}

impl Plan {
    pub fn new(seed: u64, smoke: bool) -> Plan {
        let fill_bytes: usize = if smoke { 2 << 20 } else { 64 << 20 };
        let churn_steps = if smoke { 1 << 10 } else { 1 << 15 };
        let mut rng = SplitMix::new(seed ^ 0xf4a9_3e57);
        let phases = VALUE_CLASS.map(|vclass| {
            let entry = mesh_core::size_classes::SIZE_CLASSES[vclass]
                + mesh_core::size_classes::SIZE_CLASSES[KEY_CLASS];
            let n = fill_bytes / entry;
            let key_sizes = (0..n)
                .map(|_| gen::size_in_class(&mut rng, KEY_CLASS) as u16)
                .collect();
            let value_sizes = (0..n)
                .map(|_| gen::size_in_class(&mut rng, vclass) as u16)
                .collect();
            let mut order: Vec<u32> = (0..n as u32).collect();
            rng.shuffle(&mut order);
            order.truncate(n * FREED_PERCENT / 100);
            let churn = (0..churn_steps * PASSES)
                .map(|_| {
                    let slot = rng.below(CHURN_WINDOW as u64) as u8;
                    let class = if slot.is_multiple_of(2) {
                        KEY_CLASS
                    } else {
                        vclass
                    };
                    (slot, gen::size_in_class(&mut rng, class) as u16)
                })
                .collect();
            PhasePlan {
                key_sizes,
                value_sizes,
                freed: order,
                churn,
            }
        });
        Plan { phases }
    }

    pub fn hash(&self) -> u64 {
        let mut h = StreamHash::default();
        for p in &self.phases {
            h.words(&p.key_sizes);
            h.words(&p.value_sizes);
            h.words(&p.freed);
            for &(slot, size) in &p.churn {
                h.word(u64::from(slot) << 16 | u64::from(size));
            }
        }
        h.finish()
    }

    fn ops_per_round(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| 4 * p.key_sizes.len() as u64 + 2 * p.churn.len() as u64)
            .sum()
    }
}

#[derive(Clone, Copy)]
struct Obj {
    ptr: *mut u8,
    id: u64,
    size: u32,
}

const DEAD: Obj = Obj {
    ptr: std::ptr::null_mut(),
    id: 0,
    size: 0,
};

pub struct FragMesh<B: Backend, T: Tracer> {
    plan: Plan,
    heap: B::Heap,
    /// Keys then values of each phase's entries (`2 * n` objects).
    objects: [Vec<Obj>; 2],
    churn: Vec<Obj>,
    live_req: u64,
    next_id: u64,
    meter: Meter,
    tracer: T,
}

impl<B: Backend, T: Tracer> FragMesh<B, T> {
    fn alloc_filled(&mut self, backend: &B, size: usize) -> Obj {
        let id = self.next_id;
        self.next_id += 1;
        self.tracer.enter(SpanName::Op, id);
        let ptr = self.meter.malloc(
            backend,
            &mut self.heap,
            &mut self.tracer,
            SpanName::Malloc,
            id,
            size,
        );
        if !ptr.is_null() {
            // SAFETY: fresh allocation of `size` ≥ 16 bytes.
            unsafe { gen::fill(ptr, id, size) };
            self.live_req += size as u64;
        }
        self.tracer.exit();
        Obj {
            ptr,
            id,
            size: size as u32,
        }
    }

    /// Checks the stamps of `obj` and frees it.
    fn release(&mut self, obj: Obj) {
        if obj.ptr.is_null() {
            return;
        }
        self.tracer.enter(SpanName::Op, obj.id);
        // SAFETY: `obj` is live and was filled with (`id`, `size`).
        unsafe {
            if !gen::stamp_ok(obj.ptr, obj.id, obj.size as usize) {
                self.meter.failed += 1;
            }
            self.meter.free(
                &mut self.heap,
                &mut self.tracer,
                SpanName::Free,
                obj.id,
                obj.ptr,
            );
        }
        self.live_req -= u64::from(obj.size);
        self.tracer.exit();
    }

    fn phase(&mut self, backend: &B, ph: usize) {
        let n = self.plan.phases[ph].key_sizes.len();
        let mut objects = std::mem::take(&mut self.objects[ph]);
        objects.clear();
        for i in 0..n {
            let (ks, vs) = {
                let p = &self.plan.phases[ph];
                (p.key_sizes[i] as usize, p.value_sizes[i] as usize)
            };
            let key = self.alloc_filled(backend, ks);
            let value = self.alloc_filled(backend, vs);
            objects.push(key);
            objects.push(value);
        }
        for k in 0..self.plan.phases[ph].freed.len() {
            let e = self.plan.phases[ph].freed[k] as usize;
            for o in [2 * e, 2 * e + 1] {
                let obj = std::mem::replace(&mut objects[o], DEAD);
                self.release(obj);
            }
        }
        self.objects[ph] = objects;

        // Serve: one compaction pass at a time on a second thread, a fixed
        // slice of the churn plan alongside each.
        let steps = self.plan.phases[ph].churn.len() / PASSES;
        for pass in 0..PASSES {
            let (t_start, t_end) = std::thread::scope(|s| {
                let mesher = s.spawn(|| {
                    crate::tools::pin_to_cpu(1);
                    let t0 = Instant::now();
                    backend.compact();
                    (t0, Instant::now())
                });
                for k in pass * steps..(pass + 1) * steps {
                    let (slot, size) = self.plan.phases[ph].churn[k];
                    let old = std::mem::replace(&mut self.churn[slot as usize], DEAD);
                    self.release(old);
                    self.churn[slot as usize] = self.alloc_filled(backend, size as usize);
                }
                mesher.join().expect("compaction thread")
            });
            self.tracer
                .closed(SpanName::MeshNow, pass as u64, t_start, t_end);
        }
    }
}

impl<B: Backend, T: Tracer> Workload<B, T> for FragMesh<B, T> {
    const THREADS: usize = 2;

    fn setup(backend: &B, seed: u64, smoke: bool) -> Self {
        crate::tools::pin_to_cpu(0);
        let plan = Plan::new(seed, smoke);
        let caps = [0, 1].map(|ph| 2 * plan.phases[ph].key_sizes.len());
        FragMesh {
            heap: backend.thread_heap(),
            objects: caps.map(Vec::with_capacity),
            churn: vec![DEAD; CHURN_WINDOW],
            live_req: 0,
            next_id: 1,
            meter: Meter::default(),
            tracer: T::fresh(Instant::now()),
            plan,
        }
    }

    fn plan_hash(&self) -> u64 {
        self.plan.hash()
    }

    fn ops_per_round(&self) -> u64 {
        self.plan.ops_per_round()
    }

    fn reset(&mut self) {
        self.meter = Meter::default();
        self.tracer = T::fresh(Instant::now());
    }

    fn round(&mut self, backend: &B) -> Round {
        let attempted_before = self.meter.attempted;
        let t0 = Instant::now();
        self.phase(backend, 0);
        self.phase(backend, 1);
        let mut secs = t0.elapsed().as_secs_f64();

        // Steady point: after the last pass, before teardown.
        let steady = Round {
            steady_rss_kib: rss_kib(),
            heap_bytes: backend.mesh().map_or(0, |m| m.heap_bytes() as u64),
            live_req_bytes: self.live_req,
            ..Default::default()
        };

        // Every survivor, byte for byte (untimed: it is the check, not load).
        self.tracer.enter(SpanName::Verify, 0);
        for objects in &self.objects {
            for obj in objects.iter().filter(|o| !o.ptr.is_null()) {
                // SAFETY: survivors are live and were filled with (`id`, `size`).
                if !unsafe { gen::fill_ok(obj.ptr, obj.id, obj.size as usize) } {
                    self.meter.failed += 1;
                }
            }
        }
        self.tracer.exit();

        let t1 = Instant::now();
        for ph in 0..2 {
            let mut objects = std::mem::take(&mut self.objects[ph]);
            for obj in objects.drain(..) {
                self.release(obj);
            }
            self.objects[ph] = objects;
        }
        for slot in 0..CHURN_WINDOW {
            let obj = std::mem::replace(&mut self.churn[slot], DEAD);
            self.release(obj);
        }
        self.tracer.span(SpanName::Flush, 0, || self.heap.flush());
        self.tracer.span(SpanName::Purge, 0, || backend.purge());
        secs += t1.elapsed().as_secs_f64();

        Round {
            ops: self.meter.attempted - attempted_before,
            secs,
            ..steady
        }
    }

    fn finish(self, _backend: &B) -> (Meter, Recording) {
        (self.meter, self.tracer.into_recording())
    }
}
