//! # mesh-workloads
//!
//! Deterministic in-process drivers for the fragmentation story of *Mesh:
//! Compacting Memory Management for C/C++ Applications* (PLDI 2019): the
//! §1 Robson worst case, the classical-allocator simulators it is framed
//! against, and allocation-trace record/replay.
//!
//! | Paper artifact | Module |
//! |---|---|
//! | §1 Robson worst case + classical baselines | [`robson`], [`firstfit`], [`buddy`] |
//! | Allocation-trace record/replay + generators | [`trace`] |
//! | Allocator-under-test driver | [`driver`] |
//!
//! The §6 end-to-end measurements (Mesh against glibc on the same op
//! stream, RSS and throughput together, a Redis-shaped C program under
//! `LD_PRELOAD`) live in the separate `mesh-bench` package.
//!
//! ## Example: one trace, with and without meshing
//!
//! ```no_run
//! use mesh_workloads::driver::AllocatorKind;
//! use mesh_workloads::trace::{generate, replay};
//!
//! let trace = generate::sawtooth_pinned(8, 20_000, 48, 256, 50, 42);
//! for kind in [AllocatorKind::MeshNoMesh, AllocatorKind::MeshFull] {
//!     let mut alloc = kind.build(1 << 30, 42);
//!     let report = replay(&trace, &mut alloc, 1_000);
//!     println!("{}: {:.1}×", report.allocator, report.peak_fragmentation());
//! }
//! ```

pub mod buddy;
pub mod driver;
pub mod firstfit;
pub mod robson;
pub mod trace;

pub use driver::{AllocatorKind, TestAllocator};
