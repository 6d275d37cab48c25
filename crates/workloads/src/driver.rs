//! The allocator-under-test abstraction the trace replayer, the Robson
//! adversary and the examples drive.
//!
//! The paper evaluates Mesh against jemalloc and glibc. Here:
//!
//! * the **non-compacting baseline** is Mesh with meshing disabled —
//!   a segregated-fit allocator the paper itself equates with jemalloc for
//!   these purposes (§6.3: "With meshing disabled, Mesh exhibits similar
//!   runtime and heap size to jemalloc");
//! * the **no-randomization ablation** is Mesh with sequential allocation.
//!
//! The glibc control is `mesh-bench`'s: it replays the same op stream on
//! the process's own malloc and reads RSS from outside.

use mesh_core::{Mesh, MeshConfig, MeshSummary, ThreadHeap};
use std::fmt;

/// Which allocator a workload runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocatorKind {
    /// Full Mesh: meshing + randomized allocation (the paper's default).
    MeshFull,
    /// Meshing disabled — the jemalloc/glibc stand-in (§6.3).
    MeshNoMesh,
    /// Meshing enabled but randomization disabled (§6.3 "Mesh (no rand)").
    MeshNoRand,
}

impl AllocatorKind {
    /// The paper's label for this configuration.
    pub fn label(self) -> &'static str {
        match self {
            AllocatorKind::MeshFull => "Mesh",
            AllocatorKind::MeshNoMesh => "Mesh (no meshing)",
            AllocatorKind::MeshNoRand => "Mesh (no rand)",
        }
    }

    /// Builds the driver with an arena of `arena_bytes` and a fixed seed.
    pub fn build(self, arena_bytes: usize, seed: u64) -> TestAllocator {
        let config = MeshConfig::default()
            .arena_bytes(arena_bytes)
            .seed(seed)
            .meshing(self != AllocatorKind::MeshNoMesh)
            .randomize(self != AllocatorKind::MeshNoRand);
        TestAllocator::mesh(self, config)
    }
}

/// A single-threaded allocator driver for workloads.
pub struct TestAllocator {
    kind: AllocatorKind,
    mesh: Mesh,
    heap: ThreadHeap,
}

impl fmt::Debug for TestAllocator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TestAllocator").field("kind", &self.kind).finish()
    }
}

impl TestAllocator {
    fn mesh(kind: AllocatorKind, config: MeshConfig) -> TestAllocator {
        let mesh = Mesh::new(config).expect("failed to build Mesh under test");
        let heap = mesh.thread_heap();
        TestAllocator { kind, mesh, heap }
    }

    /// Builds a driver from an explicit configuration (for comparisons
    /// that vary one tunable, such as the probe limit).
    pub fn from_config(config: MeshConfig) -> TestAllocator {
        let kind = if !config.is_meshing_enabled() {
            AllocatorKind::MeshNoMesh
        } else if !config.is_randomized() {
            AllocatorKind::MeshNoRand
        } else {
            AllocatorKind::MeshFull
        };
        TestAllocator::mesh(kind, config)
    }

    /// Which configuration this driver runs.
    pub fn kind(&self) -> AllocatorKind {
        self.kind
    }

    /// Allocates `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics on exhaustion — workloads are sized to fit their arenas, so
    /// exhaustion is a harness bug worth failing loudly on.
    pub fn malloc(&mut self, size: usize) -> *mut u8 {
        let p = self.heap.malloc(size);
        assert!(!p.is_null(), "arena exhausted at {size}-byte allocation");
        p
    }

    /// Frees `ptr`.
    ///
    /// # Safety
    ///
    /// `ptr` must come from this driver's `malloc` and not be freed twice.
    pub unsafe fn free(&mut self, ptr: *mut u8) {
        self.heap.free(ptr)
    }

    /// Physical heap footprint in bytes (committed pages).
    pub fn heap_bytes(&self) -> Option<usize> {
        Some(self.mesh.heap_bytes())
    }

    /// Live (allocated, not yet freed) bytes as tracked by the allocator.
    pub fn live_bytes(&self) -> usize {
        self.mesh.stats().live_bytes
    }

    /// Forces a meshing pass (for non-meshing configurations `mesh_now`
    /// runs but finds nothing to do).
    pub fn mesh_now(&mut self) -> MeshSummary {
        self.mesh.mesh_now()
    }

    /// Releases dirty pages (for end-of-phase footprint measurements).
    pub fn purge(&mut self) {
        self.mesh.purge_dirty();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_figures() {
        assert_eq!(AllocatorKind::MeshFull.label(), "Mesh");
        assert_eq!(AllocatorKind::MeshNoMesh.label(), "Mesh (no meshing)");
        assert_eq!(AllocatorKind::MeshNoRand.label(), "Mesh (no rand)");
    }

    #[test]
    fn no_mesh_config_never_meshes() {
        let mut a = AllocatorKind::MeshNoMesh.build(64 << 20, 1);
        let ptrs: Vec<_> = (0..2048).map(|_| a.malloc(256)).collect();
        for (i, &p) in ptrs.iter().enumerate() {
            if i % 4 != 0 {
                unsafe { a.free(p) };
            }
        }
        let summary = a.mesh_now();
        assert_eq!(summary.pairs_meshed, 0);
    }

    #[test]
    fn full_mesh_config_compacts() {
        let mut a = AllocatorKind::MeshFull.build(64 << 20, 1);
        let ptrs: Vec<_> = (0..8192).map(|_| a.malloc(256)).collect();
        for (i, &p) in ptrs.iter().enumerate() {
            if i % 8 != 0 {
                unsafe { a.free(p) };
            }
        }
        let before = a.heap_bytes().unwrap();
        let summary = a.mesh_now();
        assert!(summary.pairs_meshed > 0);
        assert!(a.heap_bytes().unwrap() < before);
    }
}
