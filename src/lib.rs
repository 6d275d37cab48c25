//! # mesh
//!
//! Umbrella crate for the Rust reproduction of *Mesh: Compacting Memory
//! Management for C/C++ Applications* (Powers, Tench, Berger, McGregor —
//! PLDI 2019).
//!
//! The implementation lives in three crates, re-exported here:
//!
//! * [`core`] — the Mesh allocator itself: shuffle vectors, MiniHeaps,
//!   thread-local and global heaps, the meshable arena, and the
//!   meshing engine (multi-way first fit, §5.1).
//! * [`graph`] — the paper's §5 theory kit: meshing graphs,
//!   MinCliqueCover/Matching solvers (including Edmonds' blossom
//!   algorithm), Erdős–Renyi contrast models, and the probability
//!   engine.
//! * [`workloads`] — fragmentation drivers: the §1 Robson adversary,
//!   classical-allocator simulators, and allocation-trace
//!   record/replay.
//!
//! The §6 end-to-end measurements (Mesh against glibc on the same op
//! stream) are the separate `mesh-bench` package; the §5 bounds are
//! checked by `tests/paper_bounds.rs`.
//!
//! ## Quickstart
//!
//! ```
//! use mesh::core::{Mesh, MeshConfig};
//!
//! # fn main() -> Result<(), mesh::core::MeshError> {
//! let mesh = Mesh::new(MeshConfig::default().seed(42))?;
//! let p = mesh.malloc(64);
//! assert!(!p.is_null());
//! unsafe { mesh.free(p) };
//! # Ok(())
//! # }
//! ```

pub use mesh_core as core;
pub use mesh_graph as graph;
pub use mesh_workloads as workloads;
