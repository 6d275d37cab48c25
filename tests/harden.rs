//! Hardened-mode (`MESH_HARDEN`) end-to-end properties: quarantine
//! delays reuse, clean workloads never trip a detector, each violation
//! class is counted under its kind in count mode, and each aborts the
//! process with a one-line diagnostic in die mode.
//!
//! Abort-mode tests re-exec the current test binary with a marker env
//! var: the child role builds an abort-policy heap and commits the
//! violation, the parent role asserts the death signal and the stderr
//! diagnostic.

use mesh::core::{HardenKind, HardenPolicy, Mesh, MeshConfig, SizeClass, PAGE_SIZE};
use std::collections::HashSet;
use std::os::unix::process::ExitStatusExt;
use std::process::Command;

const SIGABRT: i32 = 6;
const SIGSEGV: i32 = 11;

fn hardened(seed: u64, policy: HardenPolicy) -> MeshConfig {
    MeshConfig::default()
        .arena_bytes(16 << 20)
        .seed(seed)
        .harden_policy(policy)
}

/// Satellite 4 (part 1): no quarantined slot is reissued by malloc
/// before the FIFO caps force a drain, across three seeds.
#[test]
fn quarantine_delays_reuse_until_cap_forces_drain() {
    for seed in [41u64, 42, 43] {
        let mesh = Mesh::new(hardened(seed, HardenPolicy::Count).harden_quarantine_slots(32))
            .expect("hardened heap");
        let mut th = mesh.thread_heap();
        let freed: Vec<usize> = (0..24).map(|_| th.malloc(64) as usize).collect();
        assert!(freed.iter().all(|&p| p != 0));
        for &p in &freed {
            unsafe { th.free(p as *mut u8) };
        }
        // 24 frees sit below both caps (32 slots / 256 KiB): every one is
        // parked, none may come back — not from the shuffle vector, and
        // not from a refill either, because parked slots stay
        // bitmap-claimed.
        let parked: HashSet<usize> = freed.iter().copied().collect();
        let fresh: Vec<usize> = (0..60).map(|_| th.malloc(64) as usize).collect();
        for &p in &fresh {
            assert!(p != 0);
            assert!(
                !parked.contains(&p),
                "seed {seed}: quarantined slot {p:#x} reissued before drain"
            );
        }
        // Push past the slot cap: evictions route the oldest parked
        // slots through the normal free path, so nothing leaks.
        for &p in &fresh {
            unsafe { th.free(p as *mut u8) };
        }
        drop(th); // detach drains the quarantine like the transfer cache
        let s = mesh.stats();
        assert_eq!(s.live_bytes, 0, "seed {seed}: quarantine leaked on detach");
        assert_eq!(s.total_harden_violations(), 0, "seed {seed}: false positive");
        assert_eq!(s.double_frees, 0);
        assert_eq!(s.invalid_frees, 0);
    }
}

/// Satellite 4 (part 2): 30k clean churn operations across three seeds
/// produce zero poison/guard/canary false positives with every hardening
/// feature enabled.
#[test]
fn clean_churn_has_zero_false_positives() {
    const SIZES: [usize; 10] = [24, 64, 100, 256, 300, 1024, 2000, 4096, 8192, 20_000];
    for seed in [7u64, 8, 9] {
        let mesh = Mesh::new(hardened(seed, HardenPolicy::Count)).expect("hardened heap");
        let mut rng = seed | 1;
        let mut step = || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as usize
        };
        let mut live: Vec<*mut u8> = Vec::new();
        for _ in 0..10_000 {
            let r = step();
            if (r % 3 == 0 && !live.is_empty()) || live.len() > 400 {
                let p = live.swap_remove(step() % live.len());
                unsafe { mesh.free(p) };
            } else if r % 17 == 0 && !live.is_empty() {
                let i = step() % live.len();
                let q = unsafe { mesh.realloc(live[i], SIZES[step() % SIZES.len()]) };
                assert!(!q.is_null());
                live[i] = q;
            } else {
                let size = SIZES[r % SIZES.len()];
                let p = mesh.malloc(size);
                assert!(!p.is_null());
                // Write the full usable extent: a hardened heap must let
                // the application use every byte it handed out.
                let usable = mesh.usable_size(p).expect("own pointer");
                unsafe { std::ptr::write_bytes(p, (r & 0xFF) as u8, usable) };
                live.push(p);
            }
        }
        for p in live {
            unsafe { mesh.free(p) };
        }
        let s = mesh.stats();
        assert_eq!(
            s.total_harden_violations(),
            0,
            "seed {seed}: clean churn tripped a detector: {:?}",
            s.harden_violations
        );
        assert_eq!(s.double_frees, 0, "seed {seed}");
        assert_eq!(s.invalid_frees, 0, "seed {seed}");
    }
}

/// Count mode: a same-thread double free of a quarantined pointer is
/// deterministically caught under `kind=double_free`.
#[test]
fn count_mode_double_free_of_quarantined_pointer() {
    let mesh = Mesh::new(hardened(50, HardenPolicy::Count)).unwrap();
    let p = mesh.malloc(128);
    assert!(!p.is_null());
    unsafe {
        mesh.free(p);
        mesh.free(p);
    }
    let s = mesh.stats();
    assert_eq!(s.harden_violations[HardenKind::DoubleFree as usize], 1);
    assert_eq!(s.double_frees, 1, "legacy counter still bumps");
}

/// A back-to-back double free issued by a thread that does *not* own the
/// span, which stays attached to its owner throughout. With the
/// quarantine on the first copy is parked in the freeing thread's
/// quarantine and the second finds it there; with it off the first clears
/// the object's bit and the second finds the bit clear. Either way the
/// verdict is in before the second `free` returns — returned here, read
/// while both heaps are still alive and nothing has been flushed.
fn cross_thread_double_free(mesh: &Mesh) -> u64 {
    let mut owner = mesh.thread_heap();
    let mut other = mesh.thread_heap();
    let p = owner.malloc(64);
    let _keep = owner.malloc(64);
    unsafe {
        other.free(p);
        other.free(p);
    }
    mesh.stats().double_frees
}

/// Count mode: the cross-thread duplicate is a hardened violation like
/// every other double-free site, not just a `double_frees` tick, and it
/// is counted at once, not when some later lock holder gets to it.
#[test]
fn count_mode_cross_thread_double_free() {
    for quarantine in [true, false] {
        let config = hardened(56, HardenPolicy::Count).harden_quarantine(quarantine);
        let mesh = Mesh::new(config).unwrap();
        assert_eq!(
            cross_thread_double_free(&mesh),
            1,
            "quarantine {quarantine}: not counted when the second free returned"
        );
        let s = mesh.stats();
        assert_eq!(s.double_frees, 1, "quarantine {quarantine}");
        assert_eq!(s.harden_violations[HardenKind::DoubleFree as usize], 1);
        assert_eq!(s.frees, 1, "quarantine {quarantine}: the first free still applied");
        assert_eq!(s.remote_frees, 1, "quarantine {quarantine}: by the non-local route");
        assert_eq!(s.invalid_frees, 0);
    }
}

/// Count mode: a non-local free is parked like a local one — in the
/// *freeing* thread's quarantine, its slot still claimed in the owner's
/// span — so a use-after-free write into it is caught under
/// `kind=poison` when that quarantine evicts it, and the slot cannot be
/// handed out meanwhile.
#[test]
fn count_mode_uaf_write_into_remotely_freed_parked_slot() {
    let mesh = Mesh::new(hardened(57, HardenPolicy::Count)).unwrap();
    let class = SizeClass::for_size(64).unwrap();
    let mut owner = mesh.thread_heap();
    let mut other = mesh.thread_heap();
    let p = owner.malloc(64);
    assert!(!p.is_null());
    unsafe {
        other.free(p); // non-local: poisoned and parked in `other`
        *p.add(16) = 0xAA; // dangling write lands in the poison fill
    }
    assert_eq!(mesh.stats().frees, 0, "the parked free is not applied yet");
    // The owner cannot get the slot back while it is parked.
    let refilled: Vec<*mut u8> = (0..2 * class.object_count()).map(|_| owner.malloc(64)).collect();
    assert!(!refilled.contains(&p), "a parked slot was handed out");
    drop(other); // teardown evicts the quarantine, verifying every slot
    let s = mesh.stats();
    assert_eq!(
        s.harden_violations[HardenKind::Poison as usize],
        1,
        "UAF write survived the eviction-time poison check"
    );
    assert_eq!((s.frees, s.remote_frees, s.double_frees), (1, 1, 0));
}

/// Count mode: a use-after-free write into a quarantined slot is caught
/// under `kind=poison` when the quarantine drains.
#[test]
fn count_mode_uaf_write_into_quarantined_slot() {
    let mesh = Mesh::new(hardened(51, HardenPolicy::Count)).unwrap();
    let mut th = mesh.thread_heap();
    let p = th.malloc(64);
    assert!(!p.is_null());
    unsafe {
        th.free(p); // parked and poisoned
        *p.add(16) = 0xAA; // dangling write lands in the poison fill
    }
    drop(th); // detach drains the quarantine, verifying every slot
    let s = mesh.stats();
    assert_eq!(
        s.harden_violations[HardenKind::Poison as usize],
        1,
        "UAF write survived the drain-time poison check"
    );
}

/// Count mode: a UAF write is also caught at reallocation time when the
/// tampered slot is reissued (quarantine off, so the slot can recycle).
#[test]
fn count_mode_uaf_write_caught_on_reissue() {
    let mesh = Mesh::new(hardened(52, HardenPolicy::Count).harden_quarantine(false)).unwrap();
    let p = mesh.malloc(64);
    assert!(!p.is_null());
    unsafe {
        mesh.free(p);
        *p.add(16) = 0xAA;
    }
    // The freed offset went back into the shuffle vector; with a 64-slot
    // class the tampered slot must resurface within a bounded number of
    // allocations, and the malloc-time verify must flag it.
    let mut reissued = false;
    for _ in 0..256 {
        let q = mesh.malloc(64);
        assert!(!q.is_null());
        if q == p {
            reissued = true;
            break;
        }
    }
    assert!(reissued, "tampered slot never reissued — test setup broken");
    assert_eq!(
        mesh.stats().harden_violations[HardenKind::Poison as usize],
        1
    );
}

/// Count mode: a linear overflow off the end of a guarded large object
/// is caught under `kind=guard` when the object is freed.
#[test]
fn count_mode_guarded_large_overflow() {
    let mesh = Mesh::new(hardened(53, HardenPolicy::Count)).unwrap();
    let p = mesh.malloc(20_000);
    assert!(!p.is_null());
    let usable = mesh.usable_size(p).expect("own pointer");
    assert!(usable >= 20_000);
    unsafe {
        std::ptr::write_bytes(p, 0x11, usable); // full extent is fair game
        *p.add(usable) = 0xAA; // one byte past the end: into the tail page
        mesh.free(p);
    }
    let s = mesh.stats();
    assert_eq!(
        s.harden_violations[HardenKind::Guard as usize],
        1,
        "tail-page scribble not detected at free"
    );
    assert_eq!(s.live_bytes, 0);
}

/// Builds two detached, complementary half-full spans of the 256-byte
/// class (even slots freed in one, odd in the other) plus two fully-live
/// spans that are not mesh candidates, and returns one freed slot
/// address from the first span. With exactly two candidates the mesher
/// must probe this pair, so the canary sweep deterministically covers
/// the returned slot.
fn complementary_spans(mesh: &Mesh) -> usize {
    let class = SizeClass::for_size(256).unwrap();
    assert_eq!(class.span_bytes(), PAGE_SIZE, "one-page spans assumed");
    let count = class.object_count();
    let ptrs: Vec<usize> = (0..4 * count).map(|_| mesh.malloc(256) as usize).collect();
    assert!(ptrs.iter().all(|&p| p != 0));
    let span_of = |p: usize| p & !(PAGE_SIZE - 1);
    let spans: HashSet<usize> = ptrs.iter().map(|&p| span_of(p)).collect();
    assert_eq!(spans.len(), 4, "four full spans expected");
    // The shuffle vector serves one span at a time, so each run of
    // `count` pointers shares a span; the first two runs are detached by
    // the later refills.
    let (a, b) = (span_of(ptrs[0]), span_of(ptrs[count]));
    let mut victim = 0usize;
    for &p in &ptrs {
        let slot = (p - span_of(p)) / 256;
        let free = (span_of(p) == a && slot % 2 == 0) || (span_of(p) == b && slot % 2 == 1);
        if free {
            unsafe { mesh.free(p as *mut u8) };
            if span_of(p) == a && victim == 0 {
                victim = p;
            }
        }
    }
    // Detached-span frees travel the remote path; stats() flushes every
    // sender buffer so the poison+canary writes have landed.
    let _ = mesh.stats();
    victim
}

/// Count mode: a corrupted canary in a free slot rejects the mesh (the
/// copy would smear attacker-controlled bytes into the surviving span),
/// counted under `kind=canary` and in the pass ledger as `canary_trip`.
#[test]
fn count_mode_canary_trip_rejects_mesh() {
    let mesh = Mesh::new(hardened(54, HardenPolicy::Count).harden_quarantine(false)).unwrap();
    let victim = complementary_spans(&mesh);
    unsafe { std::ptr::write_bytes(victim as *mut u8, 0xAA, 8) };
    let summary = mesh.mesh_now();
    assert_eq!(summary.pairs_meshed, 0, "corrupted pair must not mesh");
    let s = mesh.stats();
    assert_eq!(s.harden_violations[HardenKind::Canary as usize], 1);
    let prom = mesh.prom_text();
    assert!(
        prom.contains("mesh_pass_rejected_total{reason=\"canary_trip\"} 1"),
        "ledger missing the canary_trip reject:\n{prom}"
    );
    assert!(prom.contains("mesh_harden_violations_total{kind=\"canary\"} 1"));
}

/// Control for the trip test: the same complementary setup with intact
/// canaries meshes fine — the free-path poison writes are not mistaken
/// for corruption.
#[test]
fn intact_canaries_do_not_block_meshing() {
    let mesh = Mesh::new(hardened(55, HardenPolicy::Count).harden_quarantine(false)).unwrap();
    let _ = complementary_spans(&mesh);
    let summary = mesh.mesh_now();
    assert!(summary.pairs_meshed >= 1, "clean pair failed to mesh");
    let s = mesh.stats();
    assert_eq!(s.harden_violations[HardenKind::Canary as usize], 0);
}

// ---------------------------------------------------------------------
// Abort-mode (die) tests: each runs itself as a subprocess.
// ---------------------------------------------------------------------

const CHILD_ENV: &str = "MESH_HARDEN_TEST_CHILD";

fn child_role(name: &str) -> bool {
    std::env::var(CHILD_ENV).as_deref() == Ok(name)
}

fn run_child(name: &str) -> std::process::Output {
    Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", name, "--nocapture", "--test-threads=1"])
        .env(CHILD_ENV, name)
        .output()
        .expect("spawn test binary")
}

fn assert_abort(out: &std::process::Output, kind: &str) {
    assert_eq!(
        out.status.signal(),
        Some(SIGABRT),
        "expected SIGABRT, got {:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let diag = format!("mesh: harden abort kind={kind} addr=0x");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains(&diag),
        "missing diagnostic {diag:?} in stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn abort_mode_double_free_dies_with_diagnostic() {
    if child_role("abort_mode_double_free_dies_with_diagnostic") {
        let mesh = Mesh::new(hardened(60, HardenPolicy::Abort)).unwrap();
        let p = mesh.malloc(64);
        unsafe {
            mesh.free(p);
            mesh.free(p); // aborts here
        }
        unreachable!("double free must abort in die mode");
    }
    let out = run_child("abort_mode_double_free_dies_with_diagnostic");
    assert_abort(&out, "double_free");
}

#[test]
fn abort_mode_cross_thread_double_free_dies_with_diagnostic() {
    if child_role("abort_mode_cross_thread_double_free_dies_with_diagnostic") {
        let mesh = Mesh::new(hardened(64, HardenPolicy::Abort)).unwrap();
        cross_thread_double_free(&mesh); // aborts at the second free
        unreachable!("a cross-thread double free must abort in die mode");
    }
    let out = run_child("abort_mode_cross_thread_double_free_dies_with_diagnostic");
    assert_abort(&out, "double_free");
}

/// The same with the quarantine off: the bitmap is the detector, and it
/// too speaks before the second free returns.
#[test]
fn abort_mode_cross_thread_double_free_dies_without_quarantine() {
    if child_role("abort_mode_cross_thread_double_free_dies_without_quarantine") {
        let config = hardened(65, HardenPolicy::Abort).harden_quarantine(false);
        cross_thread_double_free(&Mesh::new(config).unwrap());
        unreachable!("a cross-thread double free must abort in die mode");
    }
    let out = run_child("abort_mode_cross_thread_double_free_dies_without_quarantine");
    assert_abort(&out, "double_free");
}

#[test]
fn abort_mode_uaf_poison_dies_with_diagnostic() {
    if child_role("abort_mode_uaf_poison_dies_with_diagnostic") {
        let mesh = Mesh::new(hardened(61, HardenPolicy::Abort)).unwrap();
        let mut th = mesh.thread_heap();
        let p = th.malloc(64);
        unsafe {
            th.free(p);
            *p.add(16) = 0xAA;
        }
        drop(th); // drain verifies the tampered slot and aborts
        unreachable!("UAF write must abort on quarantine drain");
    }
    let out = run_child("abort_mode_uaf_poison_dies_with_diagnostic");
    assert_abort(&out, "poison");
}

#[test]
fn abort_mode_canary_trip_dies_with_diagnostic() {
    if child_role("abort_mode_canary_trip_dies_with_diagnostic") {
        let mesh =
            Mesh::new(hardened(62, HardenPolicy::Abort).harden_quarantine(false)).unwrap();
        let victim = complementary_spans(&mesh);
        unsafe { std::ptr::write_bytes(victim as *mut u8, 0xAA, 8) };
        let _ = mesh.mesh_now(); // aborts inside the canary sweep
        unreachable!("canary corruption must abort the mesh");
    }
    let out = run_child("abort_mode_canary_trip_dies_with_diagnostic");
    assert_abort(&out, "canary");
}

#[test]
fn abort_mode_guarded_overflow_faults_deterministically() {
    if child_role("abort_mode_guarded_overflow_faults_deterministically") {
        let mesh = Mesh::new(hardened(63, HardenPolicy::Abort)).unwrap();
        let p = mesh.malloc(20_000);
        let usable = mesh.usable_size(p).expect("own pointer");
        unsafe { *p.add(usable) = 0xAA }; // lands on the PROT_NONE tail
        unreachable!("overflow into the guard page must fault");
    }
    // The kernel delivers the fault, so the death is SIGSEGV with no
    // diagnostic line — the deterministic-fault contract of guard pages.
    let out = run_child("abort_mode_guarded_overflow_faults_deterministically");
    assert_eq!(
        out.status.signal(),
        Some(SIGSEGV),
        "expected SIGSEGV from the guard page, got {:?}",
        out.status
    );
}
