//! # mesh-core
//!
//! A from-scratch Rust implementation of **Mesh** — *Compacting Memory
//! Management for C/C++ Applications* (Powers, Tench, Berger, McGregor;
//! PLDI 2019).
//!
//! Mesh is a drop-in `malloc` replacement that performs **compaction
//! without relocation**: it finds pairs of spans whose live objects occupy
//! disjoint slot offsets and *meshes* them — copying one span's objects
//! into the other's holes and remapping both virtual spans onto a single
//! physical span, then returning the freed physical span to the OS. No
//! application pointer ever changes, so the technique works for hostile,
//! address-exposing workloads where garbage-collection-style compaction is
//! impossible.
//!
//! The implementation mirrors the paper's architecture:
//!
//! | Paper | Module |
//! |---|---|
//! | §4.1 MiniHeaps | [`miniheap`] |
//! | §4.2 Shuffle vectors | [`shuffle_vector`] |
//! | §4.3 Thread-local heaps | [`ThreadHeap`] |
//! | §4.4 Global heap (sharded per size class) | [`Mesh`] |
//! | §4.4.1 Meshable arena (segmented, grows on demand) | [`arena`], `segment` (internal), [`sys`] |
//! | §4.4.4 Non-local frees: page-map lookup, atomic bitmap clear | `page_map` (internal), [`bitmap`], [`miniheap`] |
//! | §3.3/§4.5 SplitMesher & meshing | [`meshing`] |
//! | §4.5 Rate-limited meshing on the free path | [`Mesh::set_mesh_period`], [`MeshConfig::mesh_period`] |
//! | Background telemetry beat (this repo's extension) | `mesher` (internal) |
//! | §4.5.2 Write barrier | [`barrier`] |
//! | mesh-insight telemetry (this repo's extension) | [`telemetry`], [`Mesh::report`], [`Mesh::prom_text`] |
//!
//! Unlike the seed implementation's single global mutex, the global heap
//! is sharded: each size class has its own lock, a non-local free clears
//! its bit in the owning MiniHeap's bitmap without one, and a meshing pass
//! holds one class at a time — see DESIGN.md for the locking discipline.
//!
//! The paper's deployment vehicle lives in the sibling `mesh-abi` crate:
//! `cargo build --release` emits `target/release/libmesh.so`, and
//! `LD_PRELOAD=libmesh.so <any C program>` runs that program on this
//! heap ([`with_internal_alloc`] / [`Mesh::fork_prepare`] are the pieces
//! of this crate that interposition layer drives; DESIGN.md "ABI &
//! bootstrap" documents the protocols).
//!
//! ## Quickstart
//!
//! ```
//! use mesh_core::{Mesh, MeshConfig};
//!
//! # fn main() -> Result<(), mesh_core::MeshError> {
//! let mesh = Mesh::new(MeshConfig::default().seed(42).arena_bytes(64 << 20))?;
//!
//! // Allocate a few thousand small objects, then free most of them,
//! // leaving fragmented spans behind…
//! let ptrs: Vec<*mut u8> = (0..4096).map(|_| mesh.malloc(128)).collect();
//! for (i, &p) in ptrs.iter().enumerate() {
//!     if i % 8 != 0 {
//!         unsafe { mesh.free(p) };
//!     }
//! }
//!
//! // …and compact: physically merge spans with disjoint live objects.
//! let before = mesh.heap_bytes();
//! let summary = mesh.mesh_now();
//! assert!(mesh.heap_bytes() <= before);
//! println!("released {} bytes", summary.bytes_released());
//! # Ok(())
//! # }
//! ```

pub mod arena;
pub mod barrier;
pub mod bitmap;
pub mod config;
pub mod error;
pub mod ffi;
mod global_heap;
pub mod harden;
pub mod json;
pub mod knobs;
mod local_heap;
mod mesher;
pub mod meshing;
pub mod miniheap;
mod page_map;
pub mod rng;
mod segment;
pub mod shuffle_vector;
pub mod size_classes;
pub mod span;
pub mod stats;
mod sync;
pub mod sys;
pub mod telemetry;

mod alloc_api;
mod attached_set;

pub use alloc_api::{
    in_internal_alloc, with_internal_alloc, Mesh, MeshForkGuard, MeshGlobalAlloc, ThreadHeap,
};
pub use config::MeshConfig;
pub use error::MeshError;
pub use harden::{
    set_abort_fd, HardenConfig, HardenKind, HardenPolicy, ALL_HARDEN_KINDS,
    HARDEN_KINDS, POISON_BYTE,
};
pub use meshing::MeshSummary;
pub use segment::{SegmentId, SegmentStats};
pub use size_classes::{SizeClass, MAX_SMALL_SIZE, NUM_SIZE_CLASSES, PAGE_SIZE};
pub use stats::{HeapStats, SpanSnapshot};
pub use sys::ReleaseStrategy;
pub use telemetry::{
    bucket_upper_ns, parse_pprof, ClassSpectrum, HeapSpectrum, LatencySnapshot, PassRecord,
    PprofParseError, PprofSummary, PressureReading, ProfileStats, RejectReason, Report,
    ReportOff, ResidencyBreakdown, SegmentResidency, SenseSnapshot, SiteSnapshot, TimedOp, TraceEvent,
    ABSENT, ALL_REJECT_REASONS, ALL_TIMED_OPS, LATENCY_BUCKETS, LEDGER_PASSES, NUM_TIMED_OPS,
    REJECT_REASONS,
};
