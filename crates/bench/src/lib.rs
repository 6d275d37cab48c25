//! # mesh-bench
//!
//! Shared reporting helpers for the benchmark harnesses that regenerate
//! every table and figure of the Mesh paper's evaluation (§6) and
//! analysis (§5). Each `benches/` target corresponds to one artifact —
//! see DESIGN.md's experiment index (E1–E13) for the mapping.

use mesh_core::ffi as libc;
use std::fmt::Display;

/// Prints a section banner so `cargo bench` output reads like the paper's
/// evaluation section.
pub fn banner(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// Prints one aligned table row.
pub fn row(cells: &[&dyn Display], widths: &[usize]) {
    let mut line = String::new();
    for (cell, width) in cells.iter().zip(widths) {
        line.push_str(&format!("{:>width$}  ", cell, width = width));
    }
    println!("{}", line.trim_end());
}

/// Formats bytes as MiB with one decimal.
pub fn mib(bytes: usize) -> String {
    format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0))
}

/// Formats a fractional change as a signed percentage.
pub fn pct(fraction: f64) -> String {
    format!("{:+.1}%", fraction * 100.0)
}

/// Downsamples a timeline to at most `n` evenly spaced points for compact
/// series printing.
pub fn downsample<T: Copy>(points: &[T], n: usize) -> Vec<T> {
    if points.len() <= n || n == 0 {
        return points.to_vec();
    }
    (0..n)
        .map(|i| points[i * (points.len() - 1) / (n - 1).max(1)])
        .collect()
}

/// Renders a heap-size series as a sparkline-style text row (the figures'
/// shapes, terminal edition).
pub fn sparkline(series: &[usize]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = series.iter().copied().max().unwrap_or(1).max(1);
    series
        .iter()
        .map(|&v| BARS[(v * (BARS.len() - 1)) / max])
        .collect()
}

/// Measured cost of the virtual-memory operations one meshed pair needs.
#[derive(Debug, Clone, Copy)]
pub struct VmOpCosts {
    /// Per-pair cost on this host (mprotect + mmap MAP_FIXED + madvise +
    /// one page refault), as measured at startup.
    pub per_pair: std::time::Duration,
    /// The same sequence on bare-metal Linux (used to translate meshing
    /// overheads measured inside syscall-interposing sandboxes into
    /// native-equivalent figures; the paper's testbed pays this cost).
    pub native_per_pair: std::time::Duration,
    /// Cost of faulting one released page back in on this host. Released
    /// pages refault on their next touch *outside* the meshing pass, so
    /// workload-attributed time carries this tax too.
    pub refault: std::time::Duration,
    /// The same minor fault on bare-metal Linux.
    pub native_refault: std::time::Duration,
}

impl VmOpCosts {
    /// How many times more expensive this host's VM operations are than
    /// bare metal.
    pub fn inflation(&self) -> f64 {
        self.per_pair.as_secs_f64() / self.native_per_pair.as_secs_f64()
    }

    /// Rescales a measured meshing duration to its native-equivalent.
    pub fn native_equivalent(&self, measured: std::time::Duration) -> std::time::Duration {
        measured.div_f64(self.inflation().max(1.0))
    }

    /// The *excess* (host minus native) cost of refaulting `pages` pages —
    /// the workload-side share of the substrate tax.
    pub fn refault_excess(&self, pages: u64) -> std::time::Duration {
        self.refault.saturating_sub(self.native_refault) * pages as u32
    }
}

/// Measures the host's cost for the meshing VM-operation sequence
/// (§4.5.1–§4.5.2: mprotect the source, remap it with `mmap(MAP_FIXED)`,
/// release with madvise, fault a page back in). Sandboxed kernels (gVisor
/// and similar) make these 10–100× more expensive than bare metal, which
/// inflates every meshing-time measurement taken inside them; harnesses
/// use this calibration to report native-equivalent numbers alongside raw
/// ones.
pub fn calibrate_vm_ops() -> VmOpCosts {
    // ~2 µs on bare-metal Linux: three short syscalls plus a minor fault.
    const NATIVE_PER_PAIR: std::time::Duration = std::time::Duration::from_micros(6);
    // A minor fault on an existing page-cache page: ~0.5 µs native.
    const NATIVE_REFAULT: std::time::Duration = std::time::Duration::from_nanos(500);
    let trials = 400;
    unsafe {
        let pages = 64usize;
        let len = pages * 4096;
        let fd = libc::memfd_create(c"mesh-calib".as_ptr(), 0);
        assert!(fd >= 0, "memfd_create failed");
        assert_eq!(libc::ftruncate(fd, len as i64), 0);
        let base = libc::mmap(
            std::ptr::null_mut(),
            len,
            libc::PROT_READ | libc::PROT_WRITE,
            libc::MAP_SHARED,
            fd,
            0,
        );
        assert_ne!(base, libc::MAP_FAILED, "mmap failed");
        let base = base as usize;
        for i in 0..pages {
            std::ptr::write_bytes((base + i * 4096) as *mut u8, 1, 1);
        }
        let t = std::time::Instant::now();
        for i in 0..trials {
            let page = i % pages;
            let addr = (base + page * 4096) as *mut libc::c_void;
            libc::mprotect(addr, 4096, libc::PROT_READ);
            libc::mmap(
                addr,
                4096,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_SHARED | libc::MAP_FIXED,
                fd,
                (((page + 1) % pages) * 4096) as i64,
            );
            libc::madvise(addr, 4096, libc::MADV_DONTNEED);
            std::ptr::write_bytes(addr as *mut u8, 2, 1);
        }
        let per_pair = t.elapsed() / trials as u32;

        // Refault-only measurement: release pages, then time first touch.
        for i in 0..pages {
            libc::madvise(
                (base + i * 4096) as *mut libc::c_void,
                4096,
                libc::MADV_DONTNEED,
            );
        }
        let t = std::time::Instant::now();
        for i in 0..pages {
            std::ptr::write_bytes((base + i * 4096) as *mut u8, 3, 1);
        }
        let refault = t.elapsed() / pages as u32;

        libc::munmap(base as *mut libc::c_void, len);
        libc::close(fd);
        VmOpCosts {
            per_pair,
            native_per_pair: NATIVE_PER_PAIR,
            refault,
            native_refault: NATIVE_REFAULT,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mib_and_pct_formats() {
        assert_eq!(mib(1 << 20), "1.0 MiB");
        assert_eq!(pct(-0.16), "-16.0%");
        assert_eq!(pct(0.007), "+0.7%");
    }

    #[test]
    fn downsample_keeps_endpoints() {
        let pts: Vec<usize> = (0..100).collect();
        let ds = downsample(&pts, 5);
        assert_eq!(ds.len(), 5);
        assert_eq!(ds[0], 0);
        assert_eq!(*ds.last().unwrap(), 99);
        assert_eq!(downsample(&pts, 200).len(), 100);
    }

    #[test]
    fn sparkline_scales() {
        let s = sparkline(&[0, 50, 100]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'));
    }
}
