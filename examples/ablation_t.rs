//! **§3.3 ablation** — the probe limit `t`'s space–time trade-off.
//!
//! The paper: "The parameter t … can be increased to improve mesh quality
//! and therefore reduce space, or decreased to improve runtime… We
//! empirically found that t = 64 balances runtime and meshing
//! effectiveness." This example sweeps SplitMesher's `t` on pure random
//! span sets (strings), reporting meshes found, probes spent and time,
//! and sets exact multi-way first fit beside it. The heap has no `t`: a
//! pass runs exact first fit through a transposed occupancy index, bounded
//! by a fixed budget of word operations per candidate (DESIGN.md §3). The
//! last table is one such pass over a real fragmented heap.
//!
//! Run with: `cargo run --release --example ablation_t`

use mesh::core::rng::Rng;
use mesh::core::{Mesh, MeshConfig};
use mesh::graph::first_fit::first_fit;
use mesh::graph::split_mesher::split_mesher_presplit;
use mesh::graph::string::SpanString;
use std::time::Instant;

fn string_sweep() {
    println!("probe-limit sweep on random span sets (b=256 slots, 1024 spans):");
    let mut rng = Rng::with_seed(0xab1a);
    let (n, b, r) = (1024usize, 256usize, 32usize);
    let strings: Vec<SpanString> = (0..n)
        .map(|_| SpanString::random_with_occupancy(b, r, &mut rng))
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let (left, right) = order.split_at(n / 2);

    println!(
        "{:>6} {:>10} {:>10} {:>14} {:>12}",
        "t", "meshed", "probes", "probes/mesh", "time"
    );
    for t in [1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
        let t0 = Instant::now();
        let out = split_mesher_presplit(&strings, left, right, t);
        let dt = t0.elapsed();
        println!(
            "{:>6} {:>10} {:>10} {:>14.1} {:>12.1?}",
            t,
            out.released(),
            out.probes,
            out.probes as f64 / out.released().max(1) as f64,
            dt
        );
    }
    println!("  the paper's default is t = 64 (§3.3).");
    let t0 = Instant::now();
    let out = first_fit(&strings);
    println!(
        "exact first fit, no t: {} released with {} tests in {:.1?} (cliques, not pairs)",
        out.released(),
        out.probes,
        t0.elapsed()
    );
}

fn heap_pass() {
    println!("\none pass over a real fragmented heap (256 B objects, 12.5% survivors):");
    println!(
        "{:>14} {:>14} {:>12} {:>14} {:>12}",
        "heap before", "heap after", "pairs", "chunk queries", "pass time"
    );
    let mesh = Mesh::new(MeshConfig::default().arena_bytes(512 << 20).seed(77)).expect("heap");
    let ptrs: Vec<*mut u8> = (0..32768).map(|_| mesh.malloc(256)).collect();
    for (i, &p) in ptrs.iter().enumerate() {
        if i % 8 != 0 {
            unsafe { mesh.free(p) };
        }
    }
    let before = mesh.heap_bytes();
    let t0 = Instant::now();
    let summary = mesh.mesh_now();
    let dt = t0.elapsed();
    println!(
        "{:>10.1} MiB {:>10.1} MiB {:>12} {:>14} {:>12.1?}",
        before as f64 / (1024.0 * 1024.0),
        mesh.heap_bytes() as f64 / (1024.0 * 1024.0),
        summary.pairs_meshed,
        summary.pairs_probed,
        dt
    );
}

fn main() {
    string_sweep();
    heap_pass();
}
