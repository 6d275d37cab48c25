//! Quickstart: watch Mesh compact a fragmented heap (Figure 1 in action).
//!
//! Run with: `cargo run --release --example quickstart`

use mesh::core::{Mesh, MeshConfig};

fn main() -> Result<(), mesh::core::MeshError> {
    // A heap with a 256 MiB virtual arena and a fixed seed (deterministic).
    let mesh = Mesh::new(MeshConfig::default().arena_bytes(256 << 20).seed(42))?;

    // Allocate 64k 256-byte objects (~16 MiB across ~4k spans)…
    let ptrs: Vec<*mut u8> = (0..65_536).map(|_| mesh.malloc(256)).collect();
    for (i, &p) in ptrs.iter().enumerate() {
        assert!(!p.is_null());
        unsafe { std::ptr::write_bytes(p, (i % 251) as u8, 256) };
    }
    println!(
        "after allocation: heap = {:.1} MiB, live = {:.1} MiB",
        mesh.heap_bytes() as f64 / (1 << 20) as f64,
        mesh.stats().live_bytes as f64 / (1 << 20) as f64
    );

    // …then free 7 of every 8, leaving each span ~12.5% full. A classical
    // allocator is stuck with every span; none can be returned to the OS.
    for (i, &p) in ptrs.iter().enumerate() {
        if i % 8 != 0 {
            unsafe { mesh.free(p) };
        }
    }
    println!(
        "after frees:      heap = {:.1} MiB, live = {:.1} MiB  (fragmentation {:.1}x)",
        mesh.heap_bytes() as f64 / (1 << 20) as f64,
        mesh.stats().live_bytes as f64 / (1 << 20) as f64,
        mesh.stats().fragmentation_ratio().unwrap_or(1.0)
    );

    // Meshing merges spans whose survivors occupy disjoint offsets —
    // compaction *without relocation*: no pointer below changes.
    let summary = mesh.mesh_now();
    println!(
        "mesh pass:        {} pairs meshed, {:.1} MiB released, {:.1} MiB copied",
        summary.pairs_meshed,
        summary.bytes_released() as f64 / (1 << 20) as f64,
        summary.bytes_copied as f64 / (1 << 20) as f64
    );
    println!(
        "after meshing:    heap = {:.1} MiB (fragmentation {:.1}x)",
        mesh.heap_bytes() as f64 / (1 << 20) as f64,
        mesh.stats().fragmentation_ratio().unwrap_or(1.0)
    );

    // Every surviving object is still readable at its ORIGINAL address
    // with its original contents — virtual addresses never changed.
    for (i, &p) in ptrs.iter().enumerate() {
        if i % 8 == 0 {
            unsafe {
                assert_eq!(*p, (i % 251) as u8, "object {i} corrupted by meshing!");
                mesh.free(p);
            }
        }
    }
    println!("all survivors verified intact and freed — done.");
    Ok(())
}
