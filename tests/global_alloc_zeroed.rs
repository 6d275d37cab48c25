//! `vec![0u8; n]` under `MeshGlobalAlloc` costs no memory until it is
//! written: `alloc_zeroed` of a large layout takes fresh file pages, which
//! already read as zero, and leaves them untouched, as the system
//! allocator's fresh `mmap` would.
//!
//! Own test binary: the adapter is this binary's global allocator.

use mesh::core::MeshGlobalAlloc;

#[global_allocator]
static ALLOC: MeshGlobalAlloc = MeshGlobalAlloc;

/// This process's resident set, in KiB (`VmRSS`).
fn rss_kib() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn a_large_zeroed_vec_stays_out_of_memory_until_written() {
    let before = rss_kib();
    let v = vec![0u8; 64 << 20];
    let grown = rss_kib().saturating_sub(before);
    assert!(grown < 4 << 10, "vec![0; 64 MiB] raised RSS by {grown} KiB");
    // One byte a MiB reads zero (and faults in only those pages).
    assert!(v.iter().step_by(1 << 20).all(|&b| b == 0));
    assert!(MeshGlobalAlloc::mesh().contains(v.as_ptr()), "served by Mesh");
}
