//! Hardened heap mode (`MESH_HARDEN`): poisoning, quarantine, guard
//! pages, and canary-checked meshing.
//!
//! Mesh's page-map-routed free path already *detects* double and invalid
//! frees in O(1) (§4.4.4); this module adds the fail-safe layer on top,
//! following the security-heap reading of the same design (Vintila et
//! al., "MESH: A Memory-Efficient Safe Heap for C/C++"): freed memory is
//! filled with a poison pattern and re-verified on reallocation, reuse is
//! delayed through a randomized per-thread quarantine, large objects get
//! a `PROT_NONE` trailing guard page, and the mesher doubles as a
//! corruption sweep by validating the canaries of free slots inside the
//! copy window. Every detection feeds one policy switch: *count* (bump a
//! `harden_*` counter and keep going) or *abort* (one-line diagnostic on
//! the dup'd stderr fd, then `SIGABRT`).
//!
//! The poison layout of a free small object is one 8-byte canary word at
//! offset 0 (keyed by the heap seed and the size class — *not* the
//! address, which meshing deliberately aliases) followed by
//! [`POISON_BYTE`] fill. Objects smaller than a canary word are pure
//! fill. All free-path transitions write this layout, so verification at
//! the two malloc hand-out points needs no extra state.

use std::sync::atomic::{AtomicI32, Ordering};

/// Fill byte for freed small-object memory (and the count-mode guard
/// tail of large objects). 0xF5 is non-zero, non-pointer-like, and odd
/// enough that a UAF write of zeros or small integers is caught.
pub const POISON_BYTE: u8 = 0xF5;

/// Number of distinct hardening violation kinds.
pub const HARDEN_KINDS: usize = 5;

/// What kind of heap-corruption event hardened mode detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HardenKind {
    /// A free of an object that is already free (or quarantined).
    DoubleFree = 0,
    /// A free of a pointer the heap does not own, or an interior /
    /// misaligned pointer into a span.
    InvalidFree = 1,
    /// Poison or canary bytes of a *free* object were overwritten — a
    /// use-after-free write, caught at reallocation or quarantine drain.
    Poison = 2,
    /// The guard tail of a large object was overwritten — a linear
    /// overflow, caught at free (count mode; abort mode faults instead).
    Guard = 3,
    /// A free slot's canary was found corrupted during the mesh copy
    /// window; the pair is rejected (`canary_trip` in the ledger).
    Canary = 4,
}

/// Every kind, in counter-index order.
pub const ALL_HARDEN_KINDS: [HardenKind; HARDEN_KINDS] = [
    HardenKind::DoubleFree,
    HardenKind::InvalidFree,
    HardenKind::Poison,
    HardenKind::Guard,
    HardenKind::Canary,
];

impl HardenKind {
    /// Stable snake_case name, used as the Prometheus `kind` label, the
    /// `render()` key suffix, and the abort diagnostic.
    pub fn name(self) -> &'static str {
        match self {
            HardenKind::DoubleFree => "double_free",
            HardenKind::InvalidFree => "invalid_free",
            HardenKind::Poison => "poison",
            HardenKind::Guard => "guard",
            HardenKind::Canary => "canary",
        }
    }
}

/// The die-vs-count policy (`MESH_HARDEN`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HardenPolicy {
    /// Hardening fully off: no poisoning, no quarantine, no guards, no
    /// canary sweep — the default, preserving the baseline fast path.
    #[default]
    Off,
    /// Detections bump `harden_*` counters and execution continues
    /// (`MESH_HARDEN=count`/`counts`/`full`).
    Count,
    /// Detections write a one-line diagnostic to the abort fd and raise
    /// `SIGABRT` (`MESH_HARDEN=abort`/`die`).
    Abort,
}

/// The resolved hardening configuration a heap runs with: the policy
/// plus the per-feature switches (each defaulting to "on whenever the
/// policy is not `Off`", individually overridable via
/// `MESH_HARDEN_POISON` / `_QUARANTINE` / `_GUARD` / `_CANARY`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HardenConfig {
    /// Count or die on detection.
    pub policy: HardenPolicy,
    /// Free poisoning + verification on reallocation.
    pub poison: bool,
    /// Delayed-reuse quarantine on the local free path.
    pub quarantine: bool,
    /// Trailing guard page on large objects.
    pub guard: bool,
    /// Canary validation of free slots during mesh copy windows
    /// (requires `poison`, which writes the canaries).
    pub canary: bool,
    /// Byte cap of the per-thread quarantine (`MESH_HARDEN_QUARANTINE_BYTES`).
    pub quarantine_bytes: usize,
    /// Slot cap of the per-thread quarantine (`MESH_HARDEN_QUARANTINE_SLOTS`).
    pub quarantine_slots: usize,
}

impl Default for HardenConfig {
    fn default() -> Self {
        HardenConfig {
            policy: HardenPolicy::Off,
            poison: true,
            quarantine: true,
            guard: true,
            canary: true,
            quarantine_bytes: 256 << 10,
            quarantine_slots: 512,
        }
    }
}

impl HardenConfig {
    /// Whether hardened mode is active at all.
    #[inline]
    pub fn active(&self) -> bool {
        self.policy != HardenPolicy::Off
    }

    /// Whether detections abort the process.
    #[inline]
    pub fn aborts(&self) -> bool {
        self.policy == HardenPolicy::Abort
    }

    /// Whether free poisoning (and verification) is active.
    #[inline]
    pub fn poison_on(&self) -> bool {
        self.active() && self.poison
    }

    /// Whether the delayed-reuse quarantine is active.
    #[inline]
    pub fn quarantine_on(&self) -> bool {
        self.active() && self.quarantine
    }

    /// Whether large-object guard pages are active.
    #[inline]
    pub fn guard_on(&self) -> bool {
        self.active() && self.guard
    }

    /// Whether the mesh-time canary sweep is active (needs poisoning to
    /// have written the canaries).
    #[inline]
    pub fn canary_on(&self) -> bool {
        self.active() && self.canary && self.poison
    }
}

/// The canary word for size class `class_idx` under heap seed `seed`.
///
/// Keyed by *class*, never by address: meshing remaps virtual spans onto
/// shared physical spans, so the same free slot is legitimately read
/// through several addresses — an address-keyed canary would
/// false-positive after the first mesh. One splitmix64 step over
/// `seed ^ class` gives unrelated words per class without any state.
#[inline]
pub fn canary_word(seed: u64, class_idx: usize) -> u64 {
    let mut z = seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(class_idx as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Writes the free-object poison layout over `[addr, addr+size)`: the
/// canary word at offset 0 (when `size >= 8`), [`POISON_BYTE`] fill for
/// the rest.
///
/// # Safety
///
/// `addr..addr+size` must be writable memory owned by the caller with no
/// live object in it.
#[inline]
pub unsafe fn poison_fill(addr: usize, size: usize, canary: u64) {
    let p = addr as *mut u8;
    if size >= 8 {
        (p as *mut u64).write_unaligned(canary);
        std::ptr::write_bytes(p.add(8), POISON_BYTE, size - 8);
    } else {
        std::ptr::write_bytes(p, POISON_BYTE, size);
    }
}

/// Verifies the poison layout written by [`poison_fill`]. Returns `true`
/// when every byte is intact.
///
/// # Safety
///
/// `addr..addr+size` must be readable memory owned by the caller.
#[inline]
pub unsafe fn poison_verify(addr: usize, size: usize, canary: u64) -> bool {
    let p = addr as *const u8;
    let body = if size >= 8 {
        if (p as *const u64).read_unaligned() != canary {
            return false;
        }
        &std::slice::from_raw_parts(p, size)[8..]
    } else {
        std::slice::from_raw_parts(p, size)
    };
    body.iter().all(|&b| b == POISON_BYTE)
}

/// Checks only the canary word of a free slot (the cheap per-slot probe
/// the meshing copy window uses; sub-word slots fall back to the full
/// fill check, which is just as cheap at those sizes). Returns `true`
/// when intact.
///
/// # Safety
///
/// `addr..addr+size` must be readable memory owned by the caller.
#[inline]
pub unsafe fn canary_intact(addr: usize, size: usize, canary: u64) -> bool {
    if size >= 8 {
        (addr as *const u64).read_unaligned() == canary
    } else {
        std::slice::from_raw_parts(addr as *const u8, size)
            .iter()
            .all(|&b| b == POISON_BYTE)
    }
}

/// Fd the abort diagnostic is written to. Defaults to stderr (2); the
/// `LD_PRELOAD` layer points it at its dup'd stderr so the line survives
/// programs that close or redirect fd 2 after startup.
static ABORT_FD: AtomicI32 = AtomicI32::new(2);

/// Points the abort diagnostic at `fd` (the ABI layer's dup'd stderr).
pub fn set_abort_fd(fd: i32) {
    ABORT_FD.store(fd, Ordering::Relaxed);
}

/// Writes the one-line abort diagnostic and terminates with `SIGABRT`.
///
/// Async-signal-safe by construction: the message is formatted into a
/// stack buffer and written with one raw `write(2)` — no allocation, no
/// locks, no stdio — because the violation may be detected inside an
/// interposed `malloc` under arbitrary application state.
pub(crate) fn harden_abort(kind: HardenKind, addr: usize) -> ! {
    let mut buf = [0u8; 96];
    let mut n = 0usize;
    let put = |bytes: &[u8], buf: &mut [u8; 96], n: &mut usize| {
        for &b in bytes {
            if *n < buf.len() {
                buf[*n] = b;
                *n += 1;
            }
        }
    };
    put(b"mesh: harden abort kind=", &mut buf, &mut n);
    put(kind.name().as_bytes(), &mut buf, &mut n);
    put(b" addr=0x", &mut buf, &mut n);
    let mut hex = [0u8; 16];
    let mut len = 0usize;
    let mut v = addr;
    loop {
        hex[len] = b"0123456789abcdef"[v & 0xf];
        len += 1;
        v >>= 4;
        if v == 0 {
            break;
        }
    }
    for i in (0..len).rev() {
        put(&[hex[i]], &mut buf, &mut n);
    }
    put(b"\n", &mut buf, &mut n);
    let fd = ABORT_FD.load(Ordering::Relaxed);
    unsafe {
        crate::ffi::write(fd, buf.as_ptr() as *const crate::ffi::c_void, n);
    }
    // SIGABRT without unwinding or atexit machinery, exactly like
    // glibc's own heap-corruption aborts.
    std::process::abort();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::parse_harden_policy;

    #[test]
    fn kinds_are_stable_and_indexed() {
        for (i, k) in ALL_HARDEN_KINDS.iter().enumerate() {
            assert_eq!(*k as usize, i);
        }
        assert_eq!(HardenKind::DoubleFree.name(), "double_free");
        assert_eq!(HardenKind::Canary.name(), "canary");
    }

    #[test]
    fn policy_parses_all_spellings() {
        for s in ["off", "0", "FALSE", "no"] {
            assert_eq!(parse_harden_policy(s), Some(HardenPolicy::Off), "{s}");
        }
        for s in ["count", "counts", "1", "on", "FULL", "true", "yes"] {
            assert_eq!(parse_harden_policy(s), Some(HardenPolicy::Count), "{s}");
        }
        for s in ["abort", "DIE"] {
            assert_eq!(parse_harden_policy(s), Some(HardenPolicy::Abort), "{s}");
        }
        assert_eq!(parse_harden_policy("sometimes"), None);
        assert_eq!(parse_harden_policy(""), None);
    }

    #[test]
    fn config_gates_features_on_policy() {
        let off = HardenConfig::default();
        assert!(!off.active() && !off.poison_on() && !off.quarantine_on());
        assert!(!off.guard_on() && !off.canary_on() && !off.aborts());
        let count = HardenConfig {
            policy: HardenPolicy::Count,
            ..HardenConfig::default()
        };
        assert!(count.active() && count.poison_on() && count.quarantine_on());
        assert!(count.guard_on() && count.canary_on() && !count.aborts());
        let abort = HardenConfig {
            policy: HardenPolicy::Abort,
            ..HardenConfig::default()
        };
        assert!(abort.aborts());
        // Canary needs poison to have written the canaries.
        let no_poison = HardenConfig {
            policy: HardenPolicy::Count,
            poison: false,
            ..HardenConfig::default()
        };
        assert!(!no_poison.canary_on());
    }

    #[test]
    fn canary_words_differ_by_class_and_seed() {
        let a = canary_word(7, 0);
        assert_eq!(a, canary_word(7, 0), "deterministic");
        assert_ne!(a, canary_word(7, 1), "class-keyed");
        assert_ne!(a, canary_word(8, 0), "seed-keyed");
    }

    #[test]
    fn poison_roundtrip_and_detection() {
        for size in [4usize, 8, 16, 48, 256, 8192] {
            let mut buf = vec![0u8; size];
            let addr = buf.as_mut_ptr() as usize;
            let canary = canary_word(42, 3);
            unsafe {
                poison_fill(addr, size, canary);
                assert!(poison_verify(addr, size, canary), "size {size}");
                // A single flipped byte anywhere must be caught.
                for at in [0, size / 2, size - 1] {
                    let was = buf[at];
                    buf[at] ^= 0xFF;
                    assert!(!poison_verify(addr, size, canary), "size {size} at {at}");
                    buf[at] = was;
                }
                assert!(poison_verify(addr, size, canary));
            }
        }
    }

    #[test]
    fn sub_word_objects_are_pure_fill() {
        let mut buf = [0u8; 4];
        let addr = buf.as_mut_ptr() as usize;
        unsafe {
            poison_fill(addr, 4, canary_word(1, 1));
            assert_eq!(buf, [POISON_BYTE; 4]);
            assert!(poison_verify(addr, 4, canary_word(9, 9)), "no canary below 8 bytes");
        }
    }
}
