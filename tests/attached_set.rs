//! Attached span sets at the public API: a thread's own frees stay local
//! under a live set of many spans per class, one refill gathers many
//! slots, and what the set may keep stays bounded — at most one empty
//! span per class, no span carved and destroyed per turn at a span
//! boundary, attached spans never meshed.
//!
//! Every drive runs against a shadow model: no two live objects overlap,
//! each object's head and tail stamps survive until its free, and the
//! heap's accounting balances at the end.

use mesh_core::{Mesh, MeshConfig, SizeClass, ThreadHeap, NUM_SIZE_CLASSES};
use std::collections::BTreeMap;
use std::time::Duration;

/// Minimal deterministic RNG (xorshift64*), so the drives are seedable
/// without pulling in a crate.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn heap(seed: u64) -> Mesh {
    Mesh::new(
        MeshConfig::default()
            .arena_bytes(256 << 20)
            .seed(seed)
            .write_barrier(false)
            // No inline pass may fire mid-drive: the counts must repeat.
            .mesh_period(Duration::from_secs(3600)),
    )
    .unwrap()
}

/// The live objects of one drive, by address, with the stamp each one
/// carries in its first and last eight bytes.
#[derive(Default)]
struct Shadow {
    live: BTreeMap<usize, (usize, u64)>,
    next_id: u64,
}

impl Shadow {
    /// Allocates, checks the new object overlaps no live one, stamps it.
    fn malloc(&mut self, th: &mut ThreadHeap, size: usize) -> usize {
        assert!(size >= 16, "stamps need sixteen bytes");
        let p = th.malloc(size) as usize;
        assert_ne!(p, 0, "allocation failed");
        if let Some((&below, &(len, _))) = self.live.range(..=p).next_back() {
            assert!(
                below + len <= p,
                "{p:#x} overlaps live object at {below:#x}"
            );
        }
        if let Some((&above, _)) = self.live.range(p..).next() {
            assert!(
                p + size <= above,
                "{p:#x}+{size} overlaps live object at {above:#x}"
            );
        }
        self.next_id += 1;
        let id = self.next_id;
        // SAFETY: `p` is a fresh allocation of `size` ≥ 16 bytes.
        unsafe {
            (p as *mut u64).write_unaligned(id);
            ((p + size - 8) as *mut u64).write_unaligned(!id);
        }
        self.live.insert(p, (size, id));
        p
    }

    /// Checks both stamps of the live object at `p`.
    fn check(&self, p: usize) {
        let (size, id) = self.live[&p];
        // SAFETY: `p` is live with `size` bytes, stamped by `malloc`.
        let (head, tail) = unsafe {
            (
                (p as *const u64).read_unaligned(),
                ((p + size - 8) as *const u64).read_unaligned(),
            )
        };
        assert_eq!(head, id, "head stamp of {p:#x} damaged");
        assert_eq!(tail, !id, "tail stamp of {p:#x} damaged");
    }

    fn free(&mut self, th: &mut ThreadHeap, p: usize) {
        self.check(p);
        self.live.remove(&p);
        // SAFETY: `p` came from `malloc` above and is freed once.
        unsafe { th.free(p as *mut u8) };
    }

    fn free_all(&mut self, th: &mut ThreadHeap) {
        let all: Vec<usize> = self.live.keys().copied().collect();
        for p in all {
            self.free(th, p);
        }
    }
}

/// Allocates until `objects` objects of `size` bytes are live, replacing
/// one of the newest 128 after every other allocation, and returns them. A
/// thread that keeps freeing into its spans while it fills keeps them
/// attached; one that only fills hands each full span back at the next
/// refill.
fn fill_with_churn(
    shadow: &mut Shadow,
    th: &mut ThreadHeap,
    rng: &mut Lcg,
    size: usize,
    objects: usize,
) -> Vec<usize> {
    let mut ptrs = Vec::with_capacity(objects);
    while ptrs.len() < objects {
        ptrs.push(shadow.malloc(th, size));
        if ptrs.len() % 2 == 0 {
            let victim = ptrs.len() - 1 - rng.below(ptrs.len().min(128) as u64) as usize;
            shadow.free(th, ptrs[victim]);
            ptrs[victim] = shadow.malloc(th, size);
        }
    }
    ptrs
}

/// A request size served by class `idx`: above the class below, at most
/// the class's own size, never under the sixteen bytes the stamps need.
fn size_in_class(rng: &mut Lcg, idx: usize) -> usize {
    let hi = SizeClass::from_index(idx).object_size();
    let lo = if idx == 0 {
        16
    } else {
        SizeClass::from_index(idx - 1).object_size() + 1
    };
    lo + rng.below((hi - lo + 1) as u64) as usize
}

/// What one churn drive measured after warm-up.
#[derive(Debug, PartialEq, Eq)]
struct ChurnCounts {
    frees: u64,
    remote_frees: u64,
    refills: u64,
}

const WINDOW: usize = 4096;
const WARMUP_STEPS: usize = 50_000;
const MEASURED_STEPS: usize = 200_000;

/// `mesh-bench`'s `fastpath_churn` at test size: one thread, a 4096-object
/// window whose slots are dealt round-robin over the 24 classes, each step
/// replacing a random slot's object with a fresh one of the same class.
fn churn(seed: u64) -> ChurnCounts {
    let mesh = heap(seed);
    let mut th = mesh.thread_heap();
    let mut rng = Lcg(seed | 1);
    let mut shadow = Shadow::default();
    let class_of = |slot: usize| slot % NUM_SIZE_CLASSES;
    let mut window: Vec<usize> = (0..WINDOW)
        .map(|slot| {
            let size = size_in_class(&mut rng, class_of(slot));
            shadow.malloc(&mut th, size)
        })
        .collect();
    let mut step = |shadow: &mut Shadow, th: &mut ThreadHeap, rng: &mut Lcg| {
        let slot = rng.below(WINDOW as u64) as usize;
        shadow.free(th, window[slot]);
        window[slot] = shadow.malloc(th, size_in_class(rng, class_of(slot)));
    };
    for _ in 0..WARMUP_STEPS {
        step(&mut shadow, &mut th, &mut rng);
    }
    th.flush();
    let before = mesh.stats();
    for _ in 0..MEASURED_STEPS {
        step(&mut shadow, &mut th, &mut rng);
    }
    th.flush();
    let after = mesh.stats();
    shadow.free_all(&mut th);
    drop(th);
    let end = mesh.stats();
    assert_eq!(
        end.mallocs, end.frees,
        "seed {seed}: every object freed once"
    );
    assert_eq!(end.live_bytes, 0, "seed {seed}");
    assert_eq!(end.invalid_frees + end.double_frees, 0, "seed {seed}");
    ChurnCounts {
        frees: after.frees - before.frees,
        remote_frees: after.remote_frees - before.remote_frees,
        refills: after.refills - before.refills,
    }
}

/// Refills per 1000 malloc+free calls this drive measured with one
/// attached span per class (the parent of the attached-set change), on
/// the seeds below: 164.63, 164.13 and 163.92 (84 % of frees remote).
const SINGLE_SPAN_REFILLS_PER_KOP: f64 = 163.92;

#[test]
fn churn_frees_stay_local_and_refills_are_rare() {
    for seed in [7u64, 0x6d65_7368, 2019] {
        let counts = churn(seed);
        assert_eq!(counts.frees, MEASURED_STEPS as u64);
        let remote_share = counts.remote_frees as f64 / counts.frees as f64;
        let refills_per_kop = counts.refills as f64 * 1000.0 / (2 * MEASURED_STEPS) as f64;
        println!(
            "seed {seed}: {counts:?} remote {remote_share:.4} refills/kop {refills_per_kop:.2}"
        );
        assert!(
            remote_share < 0.10,
            "seed {seed}: {:.1} % of a thread's own frees went remote",
            remote_share * 100.0
        );
        assert!(
            refills_per_kop * 5.0 <= SINGLE_SPAN_REFILLS_PER_KOP,
            "seed {seed}: {refills_per_kop:.1} refills per 1000 ops"
        );
        assert_eq!(
            churn(seed),
            counts,
            "seed {seed}: the counts repeat exactly"
        );
    }
}

#[test]
fn same_thread_mass_free_retains_at_most_one_span() {
    let mesh = heap(31);
    let mut th = mesh.thread_heap();
    let mut shadow = Shadow::default();
    let mut rng = Lcg(31);
    let class = SizeClass::for_size(16 * 1024).unwrap();
    let spans = 40;
    fill_with_churn(
        &mut shadow,
        &mut th,
        &mut rng,
        16 * 1024,
        spans * class.object_count(),
    );
    let rows = |mesh: &Mesh| {
        mesh.span_snapshots()
            .iter()
            .filter(|s| !s.large && s.object_size == class.object_size())
            .count()
    };
    assert!(rows(&mesh) >= spans);
    assert!(mesh.heap_bytes() >= spans * class.span_bytes());
    assert!(th.attached_spans() > 8, "the set is populated");
    // Everything freed by the allocating thread, which stays alive.
    shadow.free_all(&mut th);
    th.flush();
    assert!(rows(&mesh) <= 1, "{} spans retained", rows(&mesh));
    mesh.purge_dirty();
    assert!(
        mesh.heap_bytes() <= class.span_bytes(),
        "{} bytes committed after the mass free",
        mesh.heap_bytes()
    );
    assert!(th.attached_spans() <= 1);
    // The retained span (if any) serves the next allocation.
    let p = shadow.malloc(&mut th, 16 * 1024);
    assert!(rows(&mesh) <= 1);
    shadow.free(&mut th, p);
    drop(th);
    let s = mesh.stats();
    assert_eq!(s.mallocs, s.frees);
    assert_eq!(s.live_bytes, 0);
}

/// A loop of k + 1 mallocs then k + 1 frees over a set with k spare slots
/// crosses a span boundary every turn. It must settle on the span its
/// first turn carved: a retention rule that released the emptied span
/// whenever any other member had a free slot carved and destroyed one per
/// turn.
#[test]
fn span_boundary_loop_settles_after_one_refill() {
    for spare in [1usize, 3, 7] {
        let mesh = heap(61);
        let mut th = mesh.thread_heap();
        let mut shadow = Shadow::default();
        let mut rng = Lcg(61);
        let class = SizeClass::for_size(1024).unwrap();
        // Two full spans the thread is drawing on, then `spare` slots back.
        let ptrs = fill_with_churn(
            &mut shadow,
            &mut th,
            &mut rng,
            1024,
            2 * class.object_count(),
        );
        assert_eq!(th.attached_spans(), 2);
        for &p in &ptrs[..spare] {
            shadow.free(&mut th, p);
        }
        th.flush();
        let before = mesh.stats();
        for _ in 0..10_000 {
            let turn: Vec<usize> = (0..=spare).map(|_| shadow.malloc(&mut th, 1024)).collect();
            for p in turn {
                shadow.free(&mut th, p);
            }
        }
        th.flush();
        let after = mesh.stats();
        assert!(
            after.refills - before.refills <= 1,
            "{spare} spare slots: {} refills in 10000 turns",
            after.refills - before.refills
        );
        assert_eq!(after.remote_frees, before.remote_frees);
        assert!(th.attached_spans() <= 3);
        shadow.free_all(&mut th);
        assert!(th.attached_spans() <= 1, "one empty span at most");
        drop(th);
        let s = mesh.stats();
        assert_eq!(s.mallocs, s.frees);
        assert_eq!(s.live_bytes, 0);
    }
}

#[test]
fn mesh_pass_never_touches_attached_spans() {
    let mesh = heap(47);
    let mut th = mesh.thread_heap();
    let mut shadow = Shadow::default();
    let mut rng = Lcg(47);
    let class = SizeClass::for_size(256).unwrap();
    assert!(class.is_meshable());
    let ptrs = fill_with_churn(
        &mut shadow,
        &mut th,
        &mut rng,
        256,
        64 * class.object_count(),
    );
    assert!(th.attached_spans() > 8, "the set is populated");
    // Free a random three quarters: the spans the set had to evict while
    // filling are sparse mesh candidates; the ones still attached are just
    // as sparse but belong to this thread.
    for &p in &ptrs {
        if rng.below(4) != 0 {
            shadow.free(&mut th, p);
        }
    }
    th.flush();
    let attached = |mesh: &Mesh| {
        let mut rows: Vec<([u64; 4], usize)> = mesh
            .span_snapshots()
            .iter()
            .filter(|s| s.attached)
            .map(|s| (s.bitmap_words, s.virtual_span_count))
            .collect();
        rows.sort_unstable();
        rows
    };
    let before = attached(&mesh);
    assert!(!before.is_empty(), "the pass runs against a populated set");
    let summary = mesh.mesh_now();
    assert!(summary.pairs_meshed > 0, "detached sparse spans must mesh");
    let after = attached(&mesh);
    assert_eq!(before, after, "a pass changed an attached span");
    assert!(
        after.iter().all(|&(_, spans)| spans == 1),
        "attached span meshed"
    );
    for &p in shadow.live.keys() {
        shadow.check(p);
    }
    // The set still allocates correctly beside the meshed spans.
    for _ in 0..4 * class.object_count() {
        shadow.malloc(&mut th, 256);
    }
    shadow.free_all(&mut th);
    drop(th);
    let s = mesh.stats();
    assert_eq!(s.mallocs, s.frees);
    assert_eq!(s.live_bytes, 0);
    assert_eq!(s.invalid_frees + s.double_frees, 0);
}
