//! Minimal Linux libc bindings for the syscalls Mesh needs.
//!
//! The build environment is offline, so the `libc` crate cannot be a
//! dependency; this module declares exactly the symbols, types, and
//! constants the allocator uses (`mmap`, `mprotect`, `fallocate`,
//! `memfd_create`, `sigaction`, …) against the C library the Rust
//! standard library already links. Layouts and constants are the
//! glibc definitions for `x86_64`/`aarch64` Linux — the only platforms the
//! arena's `memfd`/`MAP_FIXED` machinery targets in the first place.

#![allow(non_camel_case_types, non_upper_case_globals, clippy::upper_case_acronyms)]

pub type c_int = i32;
pub type c_uint = u32;
pub type c_long = i64;
pub type c_char = core::ffi::c_char;
pub type c_void = core::ffi::c_void;
pub type off_t = i64;
pub type size_t = usize;
/// Signal handler address as stored in `sigaction.sa_sigaction`.
pub type sighandler_t = size_t;

// ---- mmap / mprotect -------------------------------------------------

pub const PROT_NONE: c_int = 0x0;
pub const PROT_READ: c_int = 0x1;
pub const PROT_WRITE: c_int = 0x2;
pub const MAP_SHARED: c_int = 0x01;
pub const MAP_PRIVATE: c_int = 0x02;
pub const MAP_FIXED: c_int = 0x10;
pub const MAP_ANONYMOUS: c_int = 0x20;
pub const MAP_NORESERVE: c_int = 0x4000;
pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

// ---- fallocate / memfd -----------------------------------------------

pub const FALLOC_FL_KEEP_SIZE: c_int = 0x01;
pub const FALLOC_FL_PUNCH_HOLE: c_int = 0x02;
pub const MFD_CLOEXEC: c_uint = 0x0001;

#[cfg(target_arch = "x86_64")]
pub const SYS_memfd_create: c_long = 319;
#[cfg(target_arch = "aarch64")]
pub const SYS_memfd_create: c_long = 279;
// Fallback for other Linux targets: the generic asm-generic number.
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
pub const SYS_memfd_create: c_long = 279;

// ---- lseek hole probing (sparse file copy on fork) --------------------

/// `lseek` whence: seek to the next data extent at or after the offset.
pub const SEEK_DATA: c_int = 3;
/// `lseek` whence: seek to the next hole at or after the offset.
pub const SEEK_HOLE: c_int = 4;

pub const EINTR: c_int = 4;
/// Returned by `lseek(SEEK_DATA)` when no data follows the offset.
pub const ENXIO: c_int = 6;
pub const EBADF: c_int = 9;
pub const ENOMEM: c_int = 12;
pub const EINVAL: c_int = 22;
pub const EFBIG: c_int = 27;

/// `open` flag: close the descriptor on `exec`.
pub const O_CLOEXEC: c_int = 0o2_000_000;

/// `fcntl` command: duplicate the fd to the lowest free number ≥ arg,
/// with `O_CLOEXEC` set (Linux generic ABI).
pub const F_DUPFD_CLOEXEC: c_int = 1030;

// ---- signals ----------------------------------------------------------

pub const SIGSEGV: c_int = 11;
/// `SIGUSR2`: the process runtime's opt-in report-dump signal.
pub const SIGUSR2: c_int = 12;
pub const SA_SIGINFO: c_int = 0x0000_0004;
pub const SA_RESTART: c_int = 0x1000_0000;
pub const SA_ONSTACK: c_int = 0x0800_0000;
pub const SA_NODEFER: c_int = 0x4000_0000;
pub const SIG_DFL: sighandler_t = 0;
pub const SIG_IGN: sighandler_t = 1;

// ---- rlimits -----------------------------------------------------------

pub const RLIMIT_FSIZE: c_int = 1;
pub const RLIM_INFINITY: u64 = u64::MAX;

/// glibc `struct rlimit` on 64-bit Linux.
#[repr(C)]
pub struct rlimit {
    pub rlim_cur: u64,
    pub rlim_max: u64,
}

/// glibc `sigset_t`: 1024 bits.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct sigset_t {
    __val: [u64; 16],
}

/// glibc `struct sigaction` (handler, mask, flags, restorer — in that
/// order on both x86_64 and aarch64).
#[repr(C)]
#[derive(Clone, Copy)]
pub struct sigaction {
    pub sa_sigaction: sighandler_t,
    pub sa_mask: sigset_t,
    pub sa_flags: c_int,
    pub sa_restorer: Option<unsafe extern "C" fn()>,
}

/// glibc `siginfo_t`: three `int`s, alignment padding, then the payload
/// union whose first pointer-sized field is `si_addr` for SIGSEGV.
#[repr(C)]
pub struct siginfo_t {
    pub si_signo: c_int,
    pub si_errno: c_int,
    pub si_code: c_int,
    _pad: c_int,
    _data: [usize; 14],
}

impl siginfo_t {
    /// Faulting address of a SIGSEGV/SIGBUS (`si_addr`).
    ///
    /// # Safety
    ///
    /// Only meaningful inside a handler for a fault signal delivered with
    /// `SA_SIGINFO`.
    pub unsafe fn si_addr(&self) -> *mut c_void {
        self._data[0] as *mut c_void
    }
}

extern "C" {
    pub fn syscall(num: c_long, ...) -> c_long;
    pub fn memfd_create(name: *const c_char, flags: c_uint) -> c_int;
    pub fn ftruncate(fd: c_int, length: off_t) -> c_int;
    pub fn close(fd: c_int) -> c_int;
    pub fn mkostemp(template: *mut c_char, flags: c_int) -> c_int;
    pub fn unlink(path: *const c_char) -> c_int;
    pub fn mmap(
        addr: *mut c_void,
        len: size_t,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: off_t,
    ) -> *mut c_void;
    pub fn munmap(addr: *mut c_void, len: size_t) -> c_int;
    pub fn mprotect(addr: *mut c_void, len: size_t, prot: c_int) -> c_int;
    // `sys::resident_pages`: one byte per page, bit 0 set when the page
    // is resident.
    pub fn mincore(addr: *mut c_void, length: size_t, vec: *mut u8) -> c_int;
    pub fn fallocate(fd: c_int, mode: c_int, offset: off_t, len: off_t) -> c_int;
    pub fn sigaction(signum: c_int, act: *const sigaction, oldact: *mut sigaction) -> c_int;
    pub fn sigemptyset(set: *mut sigset_t) -> c_int;
    pub fn sched_yield() -> c_int;
    pub fn raise(sig: c_int) -> c_int;
    // Fork-protocol surface: the sparse file copy probes file extents
    // with lseek, and the parent/child handshake rides a pipe.
    pub fn lseek(fd: c_int, offset: off_t, whence: c_int) -> off_t;
    pub fn pipe(fds: *mut c_int) -> c_int;
    pub fn read(fd: c_int, buf: *mut c_void, count: size_t) -> isize;
    pub fn write(fd: c_int, buf: *const c_void, count: size_t) -> isize;
    pub fn fork() -> c_int;
    pub fn waitpid(pid: c_int, status: *mut c_int, options: c_int) -> c_int;
    pub fn _exit(status: c_int) -> !;
    pub fn __errno_location() -> *mut c_int;
    // Process runtime: thread-heap teardown, the fork protocol, exit
    // hooks, and the private stderr dup the exit dumps write through.
    pub fn pthread_key_create(
        key: *mut c_uint,
        destructor: Option<unsafe extern "C" fn(*mut c_void)>,
    ) -> c_int;
    pub fn pthread_setspecific(key: c_uint, value: *const c_void) -> c_int;
    pub fn pthread_atfork(
        prepare: Option<extern "C" fn()>,
        parent: Option<extern "C" fn()>,
        child: Option<extern "C" fn()>,
    ) -> c_int;
    pub fn atexit(f: extern "C" fn()) -> c_int;
    pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    pub fn getrlimit(resource: c_int, rlim: *mut rlimit) -> c_int;
    // Best-effort symbolization for the pprof export (glibc ≥ 2.34 ships
    // dladdr in libc proper; no -ldl needed).
    pub fn dladdr(addr: *const c_void, info: *mut Dl_info) -> c_int;
}

/// `dladdr(3)`'s result record. Pointers are into loader-owned storage
/// and stay valid for the life of the mapped object; they may be null
/// when no symbol (or no object) covers the address.
#[repr(C)]
#[allow(non_camel_case_types)]
pub struct Dl_info {
    pub dli_fname: *const c_char,
    pub dli_fbase: *mut c_void,
    pub dli_sname: *const c_char,
    pub dli_saddr: *mut c_void,
}

/// The calling thread's `errno` value.
pub fn errno() -> c_int {
    unsafe { *__errno_location() }
}

/// Sets the calling thread's `errno`.
pub fn set_errno(value: c_int) {
    unsafe { *__errno_location() = value };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_match_glibc() {
        assert_eq!(std::mem::size_of::<sigset_t>(), 128);
        assert_eq!(std::mem::size_of::<siginfo_t>(), 128);
        // handler + 128-byte mask + flags (+pad) + restorer.
        assert_eq!(std::mem::size_of::<sigaction>(), 8 + 128 + 8 + 8);
    }

    #[test]
    fn memfd_and_mmap_roundtrip() {
        unsafe {
            let fd = memfd_create(c"ffi-test".as_ptr(), MFD_CLOEXEC);
            assert!(fd >= 0, "memfd_create failed");
            assert_eq!(ftruncate(fd, 4096), 0);
            let p = mmap(
                std::ptr::null_mut(),
                4096,
                PROT_READ | PROT_WRITE,
                MAP_SHARED,
                fd,
                0,
            );
            assert_ne!(p, MAP_FAILED);
            *(p as *mut u8) = 0x5A;
            assert_eq!(*(p as *const u8), 0x5A);
            assert_eq!(munmap(p, 4096), 0);
            assert_eq!(close(fd), 0);
        }
    }
}
