//! Apples-to-apples fragmentation comparison on one fixed trace.
//!
//! A recorded allocation trace is the cleanest way to compare placement
//! policies: identical input stream, different allocators. This example
//! generates a fragmentation-heavy sawtooth trace (the §6 Ruby/perlbench
//! shape) whose scattered survivors stay live at the end, prints its
//! signature, round-trips it through the text format, and replays it
//! against Mesh, Mesh-without-meshing, and the simulated classical
//! allocators. The survivors pin a slot in nearly every span, so the
//! final footprint each allocator needs for the same few hundred KiB of
//! live data is exactly the §1 fragmentation story.
//!
//! Run with: `cargo run --release --example trace_replay`

use mesh::workloads::buddy::BuddySim;
use mesh::workloads::driver::{AllocatorKind, TestAllocator};
use mesh::workloads::firstfit::{FitPolicy, FreeListSim};
use mesh::workloads::trace::{generate, Trace, TraceEvent};
use std::collections::HashMap;

fn main() {
    // Eight phases of 48–256 B objects, 5% random survivors per phase.
    let trace = generate::sawtooth_pinned(8, 20_000, 48, 256, 50, 0xace);
    trace.validate().expect("generator produced a well-formed trace");
    let stats = trace.stats();
    println!("trace signature:");
    println!("  events:        {}", stats.events);
    println!("  mallocs/frees: {}/{}", stats.mallocs, stats.frees);
    println!("  peak live:     {:.2} MiB", stats.peak_live_bytes as f64 / (1 << 20) as f64);
    println!("  final live:    {:.2} MiB (pinned survivors)", stats.final_live_bytes as f64 / (1 << 20) as f64);
    println!("  mean size:     {:.0} B", stats.mean_size);

    // The text format round-trips, so traces can be stored and shared.
    let text = trace.to_text();
    assert_eq!(Trace::from_text(&text).expect("round trip"), trace);
    println!("  text size:     {:.1} KiB\n", text.len() as f64 / 1024.0);

    println!(
        "{:<26} {:>14} {:>22}",
        "allocator", "final footprint", "× final live bytes"
    );

    // Real heaps: replay, meshing on a deterministic cadence, then read
    // the survivor-pinned footprint.
    let configs: [(&str, TestAllocator); 2] = [
        (
            "Mesh (no meshing)",
            AllocatorKind::MeshNoMesh.build(1 << 30, 0xace),
        ),
        ("Mesh", AllocatorKind::MeshFull.build(1 << 30, 0xace)),
    ];
    for (label, mut alloc) in configs {
        let mut ptrs: HashMap<u64, usize> = HashMap::new();
        for (at, ev) in trace.events().iter().enumerate() {
            match *ev {
                TraceEvent::Malloc { id, size } => {
                    ptrs.insert(id, alloc.malloc(size) as usize);
                }
                TraceEvent::Free { id } => unsafe {
                    alloc.free(ptrs.remove(&id).expect("live id") as *mut u8);
                },
            }
            if at % 10_000 == 9_999 {
                alloc.mesh_now();
            }
        }
        alloc.mesh_now();
        alloc.purge();
        let footprint = alloc.heap_bytes().unwrap_or(0);
        println!(
            "{:<26} {:>10.2} MiB {:>21.1}×",
            label,
            footprint as f64 / (1 << 20) as f64,
            footprint as f64 / alloc.live_bytes().max(1) as f64,
        );
        for (_, p) in ptrs.drain() {
            unsafe { alloc.free(p as *mut u8) };
        }
    }

    // Simulated classical heaps on the identical stream.
    for policy in [FitPolicy::FirstFit, FitPolicy::BestFit, FitPolicy::NextFit] {
        let mut sim = FreeListSim::new(policy);
        let mut ptrs: HashMap<u64, usize> = HashMap::new();
        for ev in trace.events() {
            match *ev {
                TraceEvent::Malloc { id, size } => {
                    ptrs.insert(id, sim.alloc(size));
                }
                TraceEvent::Free { id } => sim.free(ptrs.remove(&id).expect("live id")),
            }
        }
        println!(
            "{:<26} {:>10.2} MiB {:>21.1}×",
            format!("{policy:?} (simulated)"),
            sim.footprint() as f64 / (1 << 20) as f64,
            sim.fragmentation(),
        );
    }
    {
        let mut sim = BuddySim::new();
        let mut ptrs: HashMap<u64, usize> = HashMap::new();
        for ev in trace.events() {
            match *ev {
                TraceEvent::Malloc { id, size } => {
                    ptrs.insert(id, sim.alloc(size));
                }
                TraceEvent::Free { id } => sim.free(ptrs.remove(&id).expect("live id")),
            }
        }
        println!(
            "{:<26} {:>10.2} MiB {:>21.1}×",
            "BinaryBuddy (simulated)",
            sim.footprint() as f64 / (1 << 20) as f64,
            sim.fragmentation(),
        );
    }
    println!("\nsame stream, different placement: survivors pin a slot in nearly");
    println!("every span, and only meshing merges those spans back together.");
}
