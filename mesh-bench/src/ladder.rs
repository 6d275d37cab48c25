//! The per-layer cost ladder: one timed row per public call a layer
//! offers, from the shuffle-vector pop up to a whole mesh pass and down to
//! each raw syscall wrapper in `sys`. Private layers are timed through the
//! public call they dominate (the row's `via` says which).
//!
//! A row hands [`measure`] a closure that performs `iters` operations and
//! returns the time spent in the *timed part* only; untimed set-up lives
//! in the same closure. Each row is calibrated, then repeated; the median
//! and quartiles over the repeats are reported — never a best-of.

use crate::stats::Summary;
use mesh_core::arena::Arena;
use mesh_core::bitmap::AtomicBitmap;
use mesh_core::miniheap::MiniHeapId;
use mesh_core::rng::Rng;
use mesh_core::shuffle_vector::ShuffleVector;
use mesh_core::span::Span;
use mesh_core::stats::Counters;
use mesh_core::sys::{self, MemFile, ReleaseStrategy};
use mesh_core::{Mesh, MeshConfig, ThreadHeap, PAGE_SIZE};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One ladder row.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: &'static str,
    pub layer: &'static str,
    pub unit: &'static str,
    /// The public call timed.
    pub via: &'static str,
    pub summary: Summary,
    /// Operations per repeat.
    pub iters: u64,
}

/// How long each row may take.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Time per repeat.
    pub repeat: Duration,
    pub repeats: usize,
}

impl Budget {
    /// The stand-alone `--ladder`: at least 200 ms per row, seven repeats.
    pub fn full() -> Budget {
        Budget {
            repeat: Duration::from_millis(200),
            repeats: 7,
        }
    }

    /// A ladder squeezed into `total` for `rows` rows (traced contract runs).
    pub fn within(total: Duration, rows: usize) -> Budget {
        let repeats = 7;
        Budget {
            repeat: total / (rows * (repeats + 1)) as u32,
            repeats,
        }
    }
}

/// Nanoseconds per operation of `f`, summarised over `budget.repeats`
/// repeats of about `budget.repeat` each. Returns the operation count too.
fn measure(budget: Budget, mut f: impl FnMut(u64) -> Duration) -> (Summary, u64) {
    // Calibrate: grow the count until one call takes a measurable while.
    let mut iters = 1u64;
    let per_op = loop {
        let t = f(iters);
        if t >= Duration::from_micros(200) || iters >= 1 << 24 {
            break t.as_nanos() as f64 / iters as f64;
        }
        iters *= 4;
    };
    let iters = ((budget.repeat.as_nanos() as f64 / per_op.max(0.1)) as u64).clamp(1, 1 << 28);
    let samples: Vec<f64> = (0..budget.repeats)
        .map(|_| f(iters).as_nanos() as f64 / iters as f64)
        .collect();
    (Summary::of(&samples).expect("at least one repeat"), iters)
}

struct Ladder {
    budget: Budget,
    rows: Vec<Row>,
}

impl Ladder {
    /// Adds a row; `scale` converts nanoseconds to the row's unit.
    fn row(&mut self, name: &'static str, via: &'static str, f: impl FnMut(u64) -> Duration) {
        let (layer, _) = name.split_once('.').expect("row names are layer.metric");
        let (unit, scale) = if name.ends_with("_ms") {
            ("ms", 1e-6)
        } else if name.ends_with("_us") {
            ("us", 1e-3)
        } else {
            ("ns", 1.0)
        };
        let (s, iters) = measure(self.budget, f);
        self.rows.push(Row {
            name,
            layer,
            unit,
            via,
            summary: Summary {
                median: s.median * scale,
                q1: s.q1 * scale,
                q3: s.q3 * scale,
                n: s.n,
            },
            iters,
        });
    }
}

/// Number of rows [`run`] produces (for budgeting).
pub const ROWS: usize = 39;

fn bench_heap() -> Mesh {
    Mesh::new(
        MeshConfig::default()
            .seed(7)
            .mesh_period(Duration::from_secs(3600)),
    )
    .expect("ladder heap")
}

/// Times `timed` over `iters` operations in batches of up to `batch`,
/// with `before`/`after` run untimed around each batch. All three see the
/// row's context and the batch length.
fn batched<C>(
    ctx: &mut C,
    iters: u64,
    batch: u64,
    before: impl Fn(&mut C, u64),
    timed: impl Fn(&mut C, u64),
    after: impl Fn(&mut C, u64),
) -> Duration {
    let mut total = Duration::ZERO;
    let mut left = iters;
    while left > 0 {
        let n = left.min(batch);
        before(ctx, n);
        let t0 = Instant::now();
        timed(ctx, n);
        total += t0.elapsed();
        after(ctx, n);
        left -= n;
    }
    total
}

fn nothing<C>(_: &mut C, _: u64) {}

/// Runs every in-process row.
pub fn run(budget: Budget) -> Vec<Row> {
    let mut l = Ladder {
        budget,
        rows: Vec::with_capacity(ROWS),
    };
    shuffle_vector_rows(&mut l);
    bitmap_rows(&mut l);
    heap_rows(&mut l);
    arena_rows(&mut l);
    sys_rows(&mut l);
    meshing_and_telemetry_rows(&mut l);
    debug_assert_eq!(l.rows.len(), ROWS);
    l.rows
}

// ----- shuffle_vector, bitmap -----------------------------------------------

const SV_SPAN: usize = 0x2000_0000;
const SV_COUNT: usize = 256;

struct SvCtx {
    sv: ShuffleVector,
    bitmap: AtomicBitmap,
    rng: Rng,
    held: Vec<usize>,
}

impl SvCtx {
    fn attach(&mut self) {
        self.sv.attach(
            MiniHeapId::from_raw(1),
            SV_SPAN,
            4096,
            SV_COUNT,
            16,
            &self.bitmap,
            &mut self.rng,
        );
    }

    fn fill(&mut self, n: u64) {
        for _ in 0..n {
            self.held
                .push(black_box(self.sv.malloc()).expect("vector has room"));
        }
    }

    fn drain(&mut self) {
        for addr in self.held.drain(..) {
            // SAFETY: `addr` came from this vector and is freed once.
            unsafe { self.sv.free(black_box(addr), &mut self.rng) };
        }
    }
}

fn shuffle_vector_rows(l: &mut Ladder) {
    let mut c = SvCtx {
        sv: ShuffleVector::new(true),
        bitmap: AtomicBitmap::new(SV_COUNT),
        rng: Rng::with_seed(1),
        held: Vec::with_capacity(SV_COUNT),
    };
    c.attach();
    let n = SV_COUNT as u64;
    l.row(
        "shuffle_vector.malloc_ns",
        "ShuffleVector::malloc",
        |iters| {
            batched(
                &mut c,
                iters,
                n,
                nothing,
                |c, n| c.fill(n),
                |c, _| c.drain(),
            )
        },
    );
    l.row("shuffle_vector.free_ns", "ShuffleVector::free", |iters| {
        batched(
            &mut c,
            iters,
            n,
            |c, n| c.fill(n),
            |c, _| c.drain(),
            nothing,
        )
    });
    c.sv.detach(&c.bitmap);
    l.row(
        "shuffle_vector.attach_ns",
        "ShuffleVector::attach (256 slots)",
        |iters| {
            batched(
                &mut c,
                iters,
                1,
                nothing,
                |c, _| c.attach(),
                |c, _| {
                    c.sv.detach(&c.bitmap);
                },
            )
        },
    );
    l.row(
        "shuffle_vector.detach_ns",
        "ShuffleVector::detach (256 slots)",
        |iters| {
            batched(
                &mut c,
                iters,
                1,
                |c, _| c.attach(),
                |c, _| {
                    black_box(c.sv.detach(&c.bitmap));
                },
                nothing,
            )
        },
    );
}

fn bitmap_rows(l: &mut Ladder) {
    let mut bm = AtomicBitmap::new(SV_COUNT);
    let n = SV_COUNT as u64;
    let set_all = |bm: &mut AtomicBitmap, n: u64| {
        for bit in 0..n as usize {
            black_box(bm.try_set(black_box(bit)));
        }
    };
    let unset_all = |bm: &mut AtomicBitmap, n: u64| {
        for bit in 0..n as usize {
            black_box(bm.unset(black_box(bit)));
        }
    };
    l.row("bitmap.try_set_ns", "AtomicBitmap::try_set", |iters| {
        batched(&mut bm, iters, n, nothing, set_all, |bm, _| bm.clear_all())
    });
    l.row("bitmap.unset_ns", "AtomicBitmap::unset", |iters| {
        batched(&mut bm, iters, n, set_all, unset_all, nothing)
    });
    let (a, b) = (AtomicBitmap::new(SV_COUNT), AtomicBitmap::new(SV_COUNT));
    for bit in 0..SV_COUNT {
        if bit % 8 == 0 {
            a.try_set(bit);
        } else if bit % 8 == 4 {
            b.try_set(bit);
        }
    }
    l.row(
        "bitmap.meshes_with_ns",
        "AtomicBitmap::meshes_with",
        |iters| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(black_box(&a).meshes_with(black_box(&b)));
            }
            t0.elapsed()
        },
    );
}

// ----- local_heap, page_map, remote_free, global_heap -------------------------

struct HeapCtx {
    mesh: Mesh,
    heap: ThreadHeap,
    other: ThreadHeap,
    held: Vec<*mut u8>,
}

impl HeapCtx {
    fn fill(&mut self, n: u64, size: usize) {
        for _ in 0..n {
            self.held.push(black_box(self.heap.malloc(black_box(size))));
        }
    }

    fn drain(&mut self) {
        for p in self.held.drain(..) {
            // SAFETY: `p` is live and from `heap`.
            unsafe { self.heap.free(black_box(p)) };
        }
    }

    fn drain_remote(&mut self) {
        for p in self.held.drain(..) {
            // SAFETY: `p` is live; `other` did not allocate it, which is
            // the remote path under test.
            unsafe { self.other.free(black_box(p)) };
        }
    }
}

fn heap_rows(l: &mut Ladder) {
    let mesh = bench_heap();
    let mut c = HeapCtx {
        heap: mesh.thread_heap(),
        other: mesh.thread_heap(),
        held: Vec::with_capacity(4096),
        mesh,
    };
    const BY_SIZE: [(&str, &str, usize); 4] = [
        ("local_heap.malloc_ns_16", "local_heap.free_ns_16", 16),
        ("local_heap.malloc_ns_128", "local_heap.free_ns_128", 128),
        ("local_heap.malloc_ns_1024", "local_heap.free_ns_1024", 1024),
        (
            "local_heap.malloc_ns_16384",
            "local_heap.free_ns_16384",
            16384,
        ),
    ];
    for (malloc_row, free_row, size) in BY_SIZE {
        l.row(
            malloc_row,
            "ThreadHeap::malloc, LIFO batches of 256",
            |iters| {
                batched(
                    &mut c,
                    iters,
                    256,
                    nothing,
                    |c, n| c.fill(n, size),
                    |c, _| c.drain(),
                )
            },
        );
        l.row(free_row, "ThreadHeap::free, LIFO batches of 256", |iters| {
            batched(
                &mut c,
                iters,
                256,
                |c, n| c.fill(n, size),
                |c, _| c.drain(),
                nothing,
            )
        });
    }

    l.row(
        "local_heap.create_drop_us",
        "Mesh::thread_heap + one malloc/free + drop",
        |iters| {
            let t0 = Instant::now();
            for _ in 0..iters {
                let mut h = c.mesh.thread_heap();
                let p = h.malloc(64);
                // SAFETY: `p` was just allocated from `h`.
                unsafe { h.free(p) };
                drop(black_box(h));
            }
            t0.elapsed()
        },
    );
    l.row(
        "local_heap.flush_us",
        "ThreadHeap::flush of 16 buffered remote frees",
        |iters| {
            batched(
                &mut c,
                iters,
                1,
                |c, _| {
                    c.fill(16, 96);
                    c.drain_remote();
                },
                |c, _| c.other.flush(),
                nothing,
            )
        },
    );
    l.row(
        "local_heap.malloc_aligned_ns",
        "ThreadHeap::malloc_aligned(100, 64)",
        |iters| {
            batched(
                &mut c,
                iters,
                256,
                nothing,
                |c, n| {
                    for _ in 0..n {
                        c.held
                            .push(black_box(c.heap.malloc_aligned(black_box(100), 64)));
                    }
                },
                |c, _| c.drain(),
            )
        },
    );

    let resident: Vec<*mut u8> = (0..1024)
        .map(|i| c.heap.malloc(16 + (i % 64) * 16))
        .collect();
    l.row("page_map.lookup_ns", "Mesh::usable_size", |iters| {
        let t0 = Instant::now();
        for i in 0..iters as usize {
            black_box(c.mesh.usable_size(black_box(resident[i % resident.len()])));
        }
        t0.elapsed()
    });
    c.held.extend(resident);
    c.drain();

    l.row(
        "remote_free.free_ns",
        "ThreadHeap::free of another heap's pointer",
        |iters| {
            batched(
                &mut c,
                iters,
                256,
                |c, n| c.fill(n, 96),
                |c, _| c.drain_remote(),
                |c, _| c.other.flush(),
            )
        },
    );

    const LARGE: usize = 256 << 10;
    l.row(
        "global_heap.large_malloc_us",
        "ThreadHeap::malloc(256 KiB)",
        |iters| {
            batched(
                &mut c,
                iters,
                16,
                nothing,
                |c, n| c.fill(n, LARGE),
                |c, _| c.drain(),
            )
        },
    );
    l.row(
        "global_heap.large_free_us",
        "ThreadHeap::free(256 KiB)",
        |iters| {
            batched(
                &mut c,
                iters,
                16,
                |c, n| c.fill(n, LARGE),
                |c, _| c.drain(),
                nothing,
            )
        },
    );
    l.row("global_heap.free_global_ns", "Mesh::free_global", |iters| {
        batched(
            &mut c,
            iters,
            256,
            |c, n| c.fill(n, 64),
            |c, _| {
                for p in c.held.drain(..) {
                    // SAFETY: `p` is live and from this heap.
                    unsafe { c.mesh.free_global(black_box(p)) };
                }
            },
            // Draining the deferred frees is `stats()`'s side effect.
            |c, _| {
                black_box(c.mesh.stats());
            },
        )
    });
}

// ----- arena ------------------------------------------------------------------

struct ArenaCtx {
    arena: Arena,
    spans: Vec<Span>,
}

impl ArenaCtx {
    fn fill(&mut self, n: u64) {
        for _ in 0..n {
            self.spans.push(
                black_box(self.arena.alloc_span(1))
                    .expect("arena has room")
                    .0,
            );
        }
    }

    fn drain(&mut self) {
        for s in self.spans.drain(..) {
            self.arena.free_span_dirty(black_box(s));
        }
    }
}

fn arena_rows(l: &mut Ladder) {
    let config = MeshConfig::default().write_barrier(false);
    let mut c = ArenaCtx {
        arena: Arena::new(&config, Arc::new(Counters::default())).expect("ladder arena"),
        spans: Vec::with_capacity(1024),
    };
    l.row("arena.alloc_span_ns", "Arena::alloc_span(1)", |iters| {
        batched(
            &mut c,
            iters,
            1024,
            nothing,
            |c, n| c.fill(n),
            |c, _| c.drain(),
        )
    });
    l.row(
        "arena.free_span_dirty_ns",
        "Arena::free_span_dirty",
        |iters| {
            batched(
                &mut c,
                iters,
                1024,
                |c, n| c.fill(n),
                |c, _| c.drain(),
                nothing,
            )
        },
    );
    l.row(
        "arena.purge_dirty_us",
        "Arena::purge_dirty of 64 touched one-page spans",
        |iters| {
            batched(
                &mut c,
                iters,
                1,
                |c, _| {
                    c.fill(64);
                    for s in &c.spans {
                        // SAFETY: the span was just handed out: one writable page.
                        unsafe { (c.arena.addr_of_page(s.offset) as *mut u8).write_volatile(1) };
                    }
                    c.drain();
                },
                |c, _| c.arena.purge_dirty(),
                nothing,
            )
        },
    );
    let a = c.arena.alloc_span(1).expect("arena has room").0;
    let b = c.arena.alloc_span(1).expect("arena has room").0;
    l.row(
        "arena.remap_alias_us",
        "Arena::remap_alias (one page)",
        |iters| {
            batched(
                &mut c,
                iters,
                1,
                nothing,
                |c, _| c.arena.remap_alias(a, b).expect("remap"),
                |c, _| c.arena.restore_identity(a).expect("restore"),
            )
        },
    );
}

// ----- sys ----------------------------------------------------------------------

fn sys_rows(l: &mut Ladder) {
    const FILE_PAGES: usize = 256;
    const FILE_BYTES: usize = FILE_PAGES * PAGE_SIZE;

    let mut slot: Option<MemFile> = None;
    l.row("sys.memfile_create_us", "MemFile::create(1 MiB)", |iters| {
        batched(
            &mut slot,
            iters,
            1,
            nothing,
            |slot, _| *slot = Some(MemFile::create(FILE_BYTES).expect("memfile")),
            |slot, _| *slot = None,
        )
    });

    let file = MemFile::create(FILE_BYTES).expect("memfile");
    let region = sys::reserve_region(FILE_BYTES).expect("reservation");
    let page = |i: usize| region.wrapping_add(i * PAGE_SIZE);
    l.row(
        "sys.map_file_fixed_us",
        "sys::map_file_fixed (1 MiB)",
        |iters| {
            batched(
                &mut (),
                iters,
                1,
                nothing,
                // SAFETY: `region` is our own reservation of exactly the file's length.
                |_, _| unsafe { sys::map_file_fixed(&file, region).expect("map") },
                // SAFETY: same range; nothing else refers to it.
                |_, _| unsafe { sys::unmap_to_reserved(region, FILE_BYTES).expect("unmap") },
            )
        },
    );
    // SAFETY: as above; the mapping stays for the remaining rows.
    unsafe { sys::map_file_fixed(&file, region).expect("map") };

    l.row(
        "sys.remap_fixed_us",
        "sys::remap_fixed (one page)",
        |iters| {
            let t0 = Instant::now();
            for i in 0..iters as usize {
                // SAFETY: page 0 lies in the mapping and the offset in the file.
                unsafe {
                    sys::remap_fixed(page(0), PAGE_SIZE, &file, (i % FILE_PAGES) * PAGE_SIZE)
                }
                .expect("remap");
            }
            t0.elapsed()
        },
    );
    // SAFETY: restores the identity mapping of page 0.
    unsafe { sys::remap_fixed(page(0), PAGE_SIZE, &file, 0).expect("remap") };

    // SAFETY (both): page 1 lies in the live mapping.
    let read_only =
        |_: &mut (), _: u64| unsafe { sys::protect_read(page(1), PAGE_SIZE).expect("mprotect") };
    let read_write = |_: &mut (), _: u64| unsafe {
        sys::protect_read_write(page(1), PAGE_SIZE).expect("mprotect")
    };
    l.row(
        "sys.protect_read_us",
        "sys::protect_read (one page)",
        |iters| batched(&mut (), iters, 1, nothing, read_only, read_write),
    );
    l.row(
        "sys.protect_read_write_us",
        "sys::protect_read_write (one page)",
        |iters| batched(&mut (), iters, 1, read_only, read_write, nothing),
    );

    let strategy = ReleaseStrategy::detect(&file, region);
    let touch = |_: &mut (), n: u64| {
        for i in 0..n as usize {
            // SAFETY: every page of the mapping is writable.
            unsafe { page(i).write_volatile(1) };
        }
    };
    l.row(
        "sys.release_page_us",
        "ReleaseStrategy::release (one touched page)",
        |iters| {
            batched(
                &mut (),
                iters,
                FILE_PAGES as u64,
                touch,
                |_, n| {
                    for i in 0..n as usize {
                        // SAFETY: page `i` holds nothing and maps the file at
                        // the same offset.
                        black_box(unsafe {
                            strategy.release(&file, page(i), PAGE_SIZE, i * PAGE_SIZE)
                        });
                    }
                },
                nothing,
            )
        },
    );
    l.row(
        "sys.refault_us",
        "first write to a released page",
        |iters| {
            batched(
                &mut (),
                iters,
                FILE_PAGES as u64,
                |c, n| {
                    touch(c, n);
                    // SAFETY: the range holds nothing and maps the file from offset 0.
                    unsafe { strategy.release(&file, region, n as usize * PAGE_SIZE, 0) };
                },
                touch,
                nothing,
            )
        },
    );
    touch(&mut (), FILE_PAGES as u64);
    l.row(
        "sys.resident_pages_us",
        "sys::resident_pages (256 pages)",
        |iters| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(sys::resident_pages(region as usize, FILE_PAGES));
            }
            t0.elapsed()
        },
    );
    // SAFETY: the mapping is ours and nothing refers to it any more.
    unsafe { sys::unmap(region, FILE_BYTES) };
}

// ----- meshing, telemetry --------------------------------------------------------

/// A heap whose 256 B spans each hold two of sixteen objects.
fn fragmented_heap() -> Mesh {
    let mesh = bench_heap();
    let ptrs: Vec<*mut u8> = (0..4096).map(|_| mesh.malloc(256)).collect();
    for (i, p) in ptrs.into_iter().enumerate() {
        if i % 8 != 0 {
            // SAFETY: `p` is live and from `mesh`.
            unsafe { mesh.free(p) };
        }
    }
    mesh
}

fn meshing_and_telemetry_rows(l: &mut Ladder) {
    let mut slot: Option<Mesh> = None;
    l.row(
        "meshing.pass_ms",
        "Mesh::mesh_now on 256 sparse one-page spans",
        |iters| {
            batched(
                &mut slot,
                iters,
                1,
                |slot, _| *slot = Some(fragmented_heap()),
                |slot, _| {
                    black_box(slot.as_ref().expect("heap").mesh_now());
                },
                |slot, _| *slot = None,
            )
        },
    );

    let mesh = fragmented_heap();
    l.row("telemetry.stats_us", "Mesh::stats", |iters| {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(mesh.stats());
        }
        t0.elapsed()
    });
    l.row("telemetry.prom_text_us", "Mesh::prom_text", |iters| {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(mesh.prom_text());
        }
        t0.elapsed()
    });
    l.row(
        "telemetry.spectrum_us",
        "Mesh::occupancy_spectrum",
        |iters| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(mesh.occupancy_spectrum());
            }
            t0.elapsed()
        },
    );
}
