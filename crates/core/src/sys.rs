//! Thin unsafe wrappers over the virtual-memory syscalls Mesh relies on
//! (§4.5.1): `memfd_create`, `mmap`, `mprotect`, `fallocate`.
//!
//! All policy lives above this layer; everything here is a direct, checked
//! syscall wrapper. The arena's backing store is a memory file — obtained
//! via `memfd_create`, falling back to an unlinked temporary file — so the
//! same file offset can be mapped at several virtual addresses, which is
//! the mechanism that makes meshing possible.
//!
//! ## Page release
//!
//! Physical pages go back to the OS one way, the paper's: [`punch_hole`],
//! `fallocate(FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE)` on the memory
//! file. It frees the file's pages whatever maps them, and a later read
//! sees zeros. The arena probes it on its file and refuses to start
//! without it. Dropping the pages with `madvise` is no substitute:
//! on a `MAP_SHARED` mapping that empties the process's RSS while the
//! file keeps every page. What a file holds is read exactly with
//! [`MemFile::held_pages`].

use crate::ffi as libc;
use std::fs::File;
use std::io;
use std::mem::ManuallyDrop;
use std::os::fd::{AsRawFd, FromRawFd};
use std::os::raw::{c_int, c_uint};
use std::os::unix::fs::MetadataExt;

/// Hardware page size required by this allocator.
pub const PAGE_SIZE: usize = crate::size_classes::PAGE_SIZE;

fn last_err() -> io::Error {
    io::Error::last_os_error()
}

/// An in-memory file backing a meshable arena (§4.5.1).
///
/// Created with `memfd_create` where available, else an unlinked temporary
/// file; either way it "only exists in memory or on swap".
///
/// The heap reaches the file through a descriptor number the program can
/// close and reuse; [`MemFile::is_intact`] says whether the number still
/// names this file, and a `MemFile` whose number names another file leaves
/// it open when dropped.
#[derive(Debug)]
pub struct MemFile {
    file: ManuallyDrop<File>,
    len: usize,
    /// `(st_dev, st_ino)` of the file, read when it was created.
    identity: (u64, u64),
}

impl MemFile {
    /// Creates a memory file of `len` bytes (sparse), on a close-on-exec
    /// descriptor of 3 or more.
    ///
    /// A process started with fd 0, 1 or 2 closed would otherwise give the
    /// heap its stdin, stdout or stderr number, and its first `open` of
    /// that stream, or a write to it, would reach the heap's pages.
    ///
    /// # Errors
    ///
    /// Returns an error if both `memfd_create` and the temp-file fallback
    /// fail, if a low descriptor cannot be moved up, or if the file cannot
    /// be sized.
    pub fn create(len: usize) -> io::Result<MemFile> {
        let fd = unsafe {
            libc::syscall(
                libc::SYS_memfd_create,
                c"mesh-arena".as_ptr(),
                libc::MFD_CLOEXEC as c_uint,
            ) as c_int
        };
        let fd = above_stdio(if fd >= 0 { fd } else { Self::tmpfile_fd()? })?;
        // SAFETY: `fd` is a descriptor just opened here and owned by no one else.
        let file = unsafe { File::from_raw_fd(fd) };
        file.set_len(len as u64)?;
        let identity = fd_identity(fd).ok_or_else(last_err)?;
        Ok(MemFile {
            file: ManuallyDrop::new(file),
            len,
            identity,
        })
    }

    /// Whether the descriptor still names the file [`MemFile::create`]
    /// made, by one `fstat` and its `(st_dev, st_ino)`. A program that
    /// closes the heap's descriptor (`closerange(3, …)` in a daemon) and
    /// opens a file of its own, which takes the freed number, fails this,
    /// and so does one that only closed it (`EBADF`): a remap, punch or
    /// identity restore through the number would reach the program's file.
    pub fn is_intact(&self) -> bool {
        fd_identity(self.fd()) == Some(self.identity)
    }

    /// Fallback: an unlinked file in `$TMPDIR`/`/tmp`.
    fn tmpfile_fd() -> io::Result<c_int> {
        let dir = std::env::var_os("TMPDIR")
            .unwrap_or_else(|| std::ffi::OsString::from("/tmp"));
        let template = format!(
            "{}/mesh-arena-XXXXXX\0",
            dir.to_string_lossy().trim_end_matches('/')
        );
        let mut buf: Vec<u8> = template.into_bytes();
        let fd = unsafe { libc::mkostemp(buf.as_mut_ptr() as *mut libc::c_char, libc::O_CLOEXEC) };
        if fd < 0 {
            return Err(last_err());
        }
        // Unlink immediately: the file lives only as long as the fd.
        unsafe { libc::unlink(buf.as_ptr() as *const libc::c_char) };
        Ok(fd)
    }

    /// The raw file descriptor.
    #[inline]
    pub fn fd(&self) -> c_int {
        self.file.as_raw_fd()
    }

    /// The file length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the file is zero-sized (never true for a live arena).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes all of `bytes` at `offset` (one `pwrite` or more).
    ///
    /// # Errors
    ///
    /// Returns the `pwrite` error.
    pub fn write_at(&self, bytes: &[u8], offset: usize) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.write_all_at(bytes, offset as u64)
    }

    /// Pages of physical memory the file holds, from one `fstat`: the
    /// kernel's own count (`st_blocks`) of the pages any mapping has
    /// touched and no hole has since freed.
    ///
    /// # Errors
    ///
    /// Returns the `fstat` error.
    pub fn held_pages(&self) -> io::Result<usize> {
        let bytes = self.file.metadata()?.blocks() * 512;
        Ok(bytes as usize / PAGE_SIZE)
    }
}

impl Drop for MemFile {
    fn drop(&mut self) {
        // A number that names another file is the program's to close.
        if self.is_intact() {
            // SAFETY: `file` is dropped once, here, and not used after.
            unsafe { ManuallyDrop::drop(&mut self.file) };
        }
    }
}

/// `(st_dev, st_ino)` of the file `fd` names, by one `fstat`; `None` if
/// it names none (`EBADF`). A descriptor number the program can close and
/// reopen is only the heap's while this reads what it read when the heap
/// took the number.
pub fn fd_identity(fd: c_int) -> Option<(u64, u64)> {
    if fd < 0 {
        return None;
    }
    // SAFETY: the `File` only lends `fstat` the number: it is never
    // dropped, so it never closes it.
    let file = ManuallyDrop::new(unsafe { File::from_raw_fd(fd) });
    file.metadata().ok().map(|meta| (meta.dev(), meta.ino()))
}

/// `fd` itself if it is 3 or more; else a close-on-exec duplicate of it
/// at 3 or more, closing `fd`.
fn above_stdio(fd: c_int) -> io::Result<c_int> {
    if fd > 2 {
        return Ok(fd);
    }
    // SAFETY: `fd` was just opened here and is closed once, whether or
    // not the move succeeded.
    unsafe {
        let moved = libc::fcntl(fd, libc::F_DUPFD_CLOEXEC, 3);
        let err = last_err();
        libc::close(fd);
        if moved < 0 {
            Err(err)
        } else {
            Ok(moved)
        }
    }
}

/// The soft `RLIMIT_FSIZE` in bytes, or `None` when there is none. A
/// process may not size a file past it: `ftruncate` fails with `EFBIG`
/// and raises `SIGXFSZ`, which ends a process that does not ignore it.
pub fn file_size_limit() -> Option<usize> {
    let mut limit = libc::rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: `getrlimit` writes one `rlimit`, which `limit` is.
    let rc = unsafe { libc::getrlimit(libc::RLIMIT_FSIZE, &mut limit) };
    (rc == 0 && limit.rlim_cur != libc::RLIM_INFINITY)
        .then(|| usize::try_from(limit.rlim_cur).unwrap_or(usize::MAX))
}

/// Reserves `len` bytes of contiguous virtual address space without
/// committing any memory (`PROT_NONE`, `MAP_NORESERVE`). Kept for the
/// benchmark ladder's `sys.map_file_fixed_us` row, which maps a file into
/// such a window; the arena maps its file with [`map_file_shared`].
///
/// # Errors
///
/// Returns the `mmap` error on failure.
#[doc(hidden)]
pub fn reserve_region(len: usize) -> io::Result<*mut u8> {
    let p = unsafe {
        libc::mmap(
            std::ptr::null_mut(),
            len,
            libc::PROT_NONE,
            libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_NORESERVE,
            -1,
            0,
        )
    };
    if p == libc::MAP_FAILED {
        Err(last_err())
    } else {
        Ok(p as *mut u8)
    }
}

/// Maps the whole of `file` read-write at exactly `addr`, replacing what
/// is there: a forked child re-backing the arena with its private copy.
///
/// # Safety
///
/// `addr` must be page-aligned and `[addr, addr + file.len())` must be a
/// range owned by the caller with no live mapping the caller still needs
/// (`MAP_FIXED` replaces whatever is there).
///
/// # Errors
///
/// Returns the `mmap` error on failure (the prior mapping is untouched).
pub unsafe fn map_file_fixed(file: &MemFile, addr: *mut u8) -> io::Result<()> {
    let p = libc::mmap(
        addr as *mut libc::c_void,
        file.len(),
        libc::PROT_READ | libc::PROT_WRITE,
        libc::MAP_SHARED | libc::MAP_FIXED,
        file.fd(),
        0,
    );
    if p == libc::MAP_FAILED {
        Err(last_err())
    } else {
        debug_assert_eq!(p as *mut u8, addr);
        Ok(())
    }
}

/// Returns `[addr, addr+len)` to the reserved (inaccessible, uncommitted)
/// state, atomically replacing the mapping there with a `PROT_NONE`
/// reservation. Kept for the benchmark ladder's `sys.map_file_fixed_us`
/// row; the heap never unmaps its file while it lives.
///
/// # Safety
///
/// `addr`/`len` must denote a range inside a reservation owned by the
/// caller; nothing may access it afterwards until remapped.
#[doc(hidden)]
pub unsafe fn unmap_to_reserved(addr: *mut u8, len: usize) -> io::Result<()> {
    let p = libc::mmap(
        addr as *mut libc::c_void,
        len,
        libc::PROT_NONE,
        libc::MAP_PRIVATE | libc::MAP_ANONYMOUS | libc::MAP_NORESERVE | libc::MAP_FIXED,
        -1,
        0,
    );
    if p == libc::MAP_FAILED {
        Err(last_err())
    } else {
        Ok(())
    }
}

/// Maps the whole of `file` as one shared read-write region.
///
/// # Errors
///
/// Returns the `mmap` error on failure.
pub fn map_file_shared(file: &MemFile) -> io::Result<*mut u8> {
    let p = unsafe {
        libc::mmap(
            std::ptr::null_mut(),
            file.len(),
            libc::PROT_READ | libc::PROT_WRITE,
            libc::MAP_SHARED,
            file.fd(),
            0,
        )
    };
    if p == libc::MAP_FAILED {
        Err(last_err())
    } else {
        Ok(p as *mut u8)
    }
}

/// Maps `len` bytes of `file` starting at `offset` at a kernel-chosen
/// address (the transient mappings of [`copy_file_sparse`]).
///
/// # Errors
///
/// Returns the `mmap` error on failure.
pub fn map_range_shared(file: &MemFile, offset: usize, len: usize) -> io::Result<*mut u8> {
    let p = unsafe {
        libc::mmap(
            std::ptr::null_mut(),
            len,
            libc::PROT_READ | libc::PROT_WRITE,
            libc::MAP_SHARED,
            file.fd(),
            offset as libc::off_t,
        )
    };
    if p == libc::MAP_FAILED {
        Err(last_err())
    } else {
        Ok(p as *mut u8)
    }
}

/// Unmaps a region previously mapped by this module.
///
/// # Safety
///
/// `addr`/`len` must denote a live mapping owned by the caller; nothing may
/// reference it afterwards.
pub unsafe fn unmap(addr: *mut u8, len: usize) {
    let rc = libc::munmap(addr as *mut libc::c_void, len);
    debug_assert_eq!(rc, 0, "munmap failed: {}", last_err());
}

/// Atomically replaces the mapping at `addr` so it aliases `file` at
/// `file_offset` — the core meshing primitive (§4.5.1). Exploits `mmap`'s
/// documented behaviour that `MAP_FIXED` replaces any existing mapping in
/// the range atomically with respect to concurrent faults.
///
/// # Safety
///
/// `addr` must lie within the arena mapping of `file`, be page-aligned, and
/// `[file_offset, file_offset + len)` must be within the file.
///
/// # Errors
///
/// Returns the `mmap` error on failure (the prior mapping is untouched in
/// that case).
pub unsafe fn remap_fixed(
    addr: *mut u8,
    len: usize,
    file: &MemFile,
    file_offset: usize,
) -> io::Result<()> {
    let p = libc::mmap(
        addr as *mut libc::c_void,
        len,
        libc::PROT_READ | libc::PROT_WRITE,
        libc::MAP_SHARED | libc::MAP_FIXED,
        file.fd(),
        file_offset as libc::off_t,
    );
    if p == libc::MAP_FAILED {
        Err(last_err())
    } else {
        debug_assert_eq!(p as *mut u8, addr);
        Ok(())
    }
}

/// Marks `[addr, addr+len)` read-only (the meshing write barrier, §4.5.2).
///
/// # Safety
///
/// `addr`/`len` must denote pages inside a live mapping owned by the caller.
pub unsafe fn protect_read(addr: *mut u8, len: usize) -> io::Result<()> {
    if libc::mprotect(addr as *mut libc::c_void, len, libc::PROT_READ) != 0 {
        Err(last_err())
    } else {
        Ok(())
    }
}

/// Marks `[addr, addr+len)` inaccessible (`PROT_NONE`) — the hardened
/// mode's trailing guard page on large objects: any touch faults
/// deterministically instead of corrupting the neighbour.
///
/// # Safety
///
/// `addr`/`len` must denote pages inside a live mapping owned by the caller.
pub unsafe fn protect_none(addr: *mut u8, len: usize) -> io::Result<()> {
    if libc::mprotect(addr as *mut libc::c_void, len, libc::PROT_NONE) != 0 {
        Err(last_err())
    } else {
        Ok(())
    }
}

/// Restores read-write access to `[addr, addr+len)`.
///
/// # Safety
///
/// `addr`/`len` must denote pages inside a live mapping owned by the caller.
pub unsafe fn protect_read_write(addr: *mut u8, len: usize) -> io::Result<()> {
    let prot = libc::PROT_READ | libc::PROT_WRITE;
    if libc::mprotect(addr as *mut libc::c_void, len, prot) != 0 {
        Err(last_err())
    } else {
        Ok(())
    }
}

/// Copies the first `len` bytes of `src` into `dst` (equal-length memory
/// files), preserving sparseness: only data extents — probed with
/// `lseek(SEEK_DATA/SEEK_HOLE)` — are copied, so holes (never-touched or
/// punched pages) stay holes and the copy commits no more physical memory
/// than `src` held. Kernels whose tmpfs lacks `SEEK_DATA` fall back to
/// copying all `len` bytes. Returns the number of bytes copied.
///
/// This is the heavy half of fork privatization: a forked child re-backs
/// the arena with a fresh file, copying the pages below its frontier, so
/// parent and child stop sharing `MAP_SHARED` pages.
///
/// # Errors
///
/// Returns the first `lseek`/`mmap` error encountered.
pub fn copy_file_sparse(src: &MemFile, dst: &MemFile, len: usize) -> io::Result<usize> {
    use crate::ffi as libc;
    debug_assert_eq!(src.len(), dst.len());
    debug_assert!(len <= src.len() && len.is_multiple_of(PAGE_SIZE));
    if len == 0 {
        return Ok(0);
    }
    let mut copied = 0usize;
    let mut pos = 0usize;
    while pos < len {
        let data = unsafe { libc::lseek(src.fd(), pos as libc::off_t, libc::SEEK_DATA) };
        if data < 0 {
            match libc::errno() {
                libc::ENXIO => break, // no data past `pos`
                _ if pos == 0 && copied == 0 => {
                    // SEEK_DATA unsupported here: degrade to a full copy.
                    copy_file_range_mapped(src, dst, 0, len)?;
                    return Ok(len);
                }
                _ => return Err(last_err()),
            }
        }
        let data = (data as usize).min(len);
        let hole = unsafe { libc::lseek(src.fd(), data as libc::off_t, libc::SEEK_HOLE) };
        let end = if hole < 0 { len } else { (hole as usize).min(len) };
        if end > data {
            copy_file_range_mapped(src, dst, data, end - data)?;
            copied += end - data;
        }
        pos = end.max(data + 1);
    }
    Ok(copied)
}

/// Copies `len` bytes at `offset` from `src` to `dst` through transient
/// shared mappings (extents from SEEK_DATA/SEEK_HOLE are page-granular on
/// tmpfs, and `MemFile` lengths are whole pages).
fn copy_file_range_mapped(
    src: &MemFile,
    dst: &MemFile,
    offset: usize,
    len: usize,
) -> io::Result<()> {
    debug_assert_eq!(offset % PAGE_SIZE, 0, "extents are page-granular");
    debug_assert_eq!(len % PAGE_SIZE, 0, "extents are page-granular");
    let s = map_range_shared(src, offset, len)?;
    let d = match map_range_shared(dst, offset, len) {
        Ok(d) => d,
        Err(e) => {
            unsafe { unmap(s, len) };
            return Err(e);
        }
    };
    unsafe {
        std::ptr::copy_nonoverlapping(s, d, len);
        unmap(s, len);
        unmap(d, len);
    }
    Ok(())
}

/// Returns the physical pages behind `[offset, offset + len)` of `file`
/// to the OS, leaving the file's size alone
/// (`fallocate(FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE)`, §4.5.1). Every
/// mapping of the range reads zeros afterwards, so the range must hold
/// nothing anyone still reads.
///
/// # Errors
///
/// Returns the `fallocate` error: `EOPNOTSUPP` where the file system
/// cannot punch holes.
pub fn punch_hole(file: &MemFile, offset: usize, len: usize) -> io::Result<()> {
    let mode = libc::FALLOC_FL_PUNCH_HOLE | libc::FALLOC_FL_KEEP_SIZE;
    // SAFETY: a plain syscall on a descriptor `file` owns; it touches no
    // memory of this process.
    let rc =
        unsafe { libc::fallocate(file.fd(), mode, offset as libc::off_t, len as libc::off_t) };
    if rc == 0 {
        Ok(())
    } else {
        Err(last_err())
    }
}

/// [`punch_hole`] under its former name, kept only for the benchmark
/// ladder's `sys.release_page_us` and `sys.refault_us` rows until the
/// next benchmark change moves them onto [`punch_hole`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReleaseStrategy;

impl ReleaseStrategy {
    /// The one strategy: [`punch_hole`].
    pub fn detect(_file: &MemFile, _base: *mut u8) -> ReleaseStrategy {
        ReleaseStrategy
    }

    /// [`punch_hole`] on `[file_offset, file_offset + len)`; `addr` is
    /// unused. Returns whether the kernel released the range.
    ///
    /// # Safety
    ///
    /// The released range must contain no live objects.
    pub unsafe fn release(
        self,
        file: &MemFile,
        _addr: *mut u8,
        len: usize,
        file_offset: usize,
    ) -> bool {
        punch_hole(file, file_offset, len).is_ok()
    }
}

/// Reads the process resident-set size in kilobytes from
/// `/proc/self/statm` (the secondary metric; see DESIGN.md).
///
/// Returns `None` if procfs is unavailable.
pub fn process_rss_kb() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = s.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * (PAGE_SIZE as u64 / 1024))
}

/// The most mappings the kernel lets this process hold,
/// `/proc/sys/vm/max_map_count`, or the kernel's default 65 530 where that
/// cannot be read. It allocates, so a heap reads it once, at construction,
/// which the process heap runs under its internal-allocation guard.
pub fn max_map_count() -> usize {
    std::fs::read_to_string("/proc/sys/vm/max_map_count")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(65_530)
}

/// Counts how many of the `pages` pages starting at `addr` are resident
/// in physical memory, via `mincore(2)`. Kept for the benchmark ladder's
/// `sys.resident_pages_us` row only, until the next benchmark change
/// retires it: the heap counts what its files hold with
/// [`MemFile::held_pages`]. `addr` must be page-aligned and inside a live
/// mapping owned by the caller (the arena's mapping qualifies). Returns `None` when the kernel rejects the range
/// (e.g. a race with an unmap) or on non-Linux test stubs.
pub fn resident_pages(addr: usize, pages: usize) -> Option<usize> {
    if pages == 0 {
        return Some(0);
    }
    let mut vec = vec![0u8; pages];
    let rc = unsafe {
        libc::mincore(
            addr as *mut libc::c_void,
            pages * PAGE_SIZE,
            vec.as_mut_ptr(),
        )
    };
    if rc != 0 {
        return None;
    }
    Some(vec.iter().filter(|&&b| b & 1 != 0).count())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tmpfile_fallback_is_close_on_exec() {
        const F_GETFD: c_int = 1;
        const FD_CLOEXEC: c_int = 1;
        let fd = MemFile::tmpfile_fd().unwrap();
        let flags = unsafe { libc::fcntl(fd, F_GETFD, 0) };
        unsafe { libc::close(fd) };
        assert_eq!(flags & FD_CLOEXEC, FD_CLOEXEC);
    }

    #[test]
    fn memfile_create_and_size() {
        let f = MemFile::create(16 * PAGE_SIZE).unwrap();
        assert!(f.fd() >= 0);
        assert_eq!(f.len(), 16 * PAGE_SIZE);
        assert!(!f.is_empty());
    }

    #[test]
    fn map_write_read_roundtrip() {
        let f = MemFile::create(4 * PAGE_SIZE).unwrap();
        let base = map_file_shared(&f).unwrap();
        unsafe {
            *base = 0xAB;
            *base.add(3 * PAGE_SIZE) = 0xCD;
            assert_eq!(*base, 0xAB);
            assert_eq!(*base.add(3 * PAGE_SIZE), 0xCD);
            unmap(base, 4 * PAGE_SIZE);
        }
    }

    #[test]
    fn remap_fixed_aliases_pages() {
        let f = MemFile::create(4 * PAGE_SIZE).unwrap();
        let base = map_file_shared(&f).unwrap();
        unsafe {
            *base = 0x11;
            *base.add(PAGE_SIZE) = 0x22;
            // Alias virtual page 1 onto file page 0.
            remap_fixed(base.add(PAGE_SIZE), PAGE_SIZE, &f, 0).unwrap();
            assert_eq!(*base.add(PAGE_SIZE), 0x11, "alias must read file page 0");
            *base.add(PAGE_SIZE) = 0x33;
            assert_eq!(*base, 0x33, "writes through alias visible at original");
            // Restore the identity mapping.
            remap_fixed(base.add(PAGE_SIZE), PAGE_SIZE, &f, PAGE_SIZE).unwrap();
            assert_eq!(*base.add(PAGE_SIZE), 0x22, "file page 1 data preserved");
            unmap(base, 4 * PAGE_SIZE);
        }
    }

    #[test]
    fn release_is_safe_on_dead_range() {
        let f = MemFile::create(4 * PAGE_SIZE).unwrap();
        assert_eq!(f.held_pages().unwrap(), 0, "a fresh file is all hole");
        let base = map_file_shared(&f).unwrap();
        unsafe {
            std::ptr::write_bytes(base, 0x7F, 3 * PAGE_SIZE);
            assert_eq!(f.held_pages().unwrap(), 3);
            punch_hole(&f, PAGE_SIZE, PAGE_SIZE).unwrap();
            assert_eq!(f.held_pages().unwrap(), 2);
            // Read last: a read through a shared mapping fills the hole.
            assert_eq!(*base.add(PAGE_SIZE), 0, "a punched page reads zero");
            assert_eq!(*base.add(2 * PAGE_SIZE), 0x7F, "its neighbours keep their bytes");
            unmap(base, 4 * PAGE_SIZE);
        }
    }

    #[test]
    fn protect_toggles() {
        let f = MemFile::create(PAGE_SIZE).unwrap();
        let base = map_file_shared(&f).unwrap();
        unsafe {
            *base = 1;
            protect_read(base, PAGE_SIZE).unwrap();
            assert_eq!(*base, 1, "reads still allowed");
            protect_read_write(base, PAGE_SIZE).unwrap();
            *base = 2;
            assert_eq!(*base, 2);
            unmap(base, PAGE_SIZE);
        }
    }

    #[test]
    fn reserve_map_retire_roundtrip() {
        // Reserve a window, map a file into its middle, write through it,
        // return it to PROT_NONE, then map a fresh file over the same
        // range: the benchmark ladder's map/unmap row in miniature.
        let base = reserve_region(8 * PAGE_SIZE).unwrap();
        let seg_at = unsafe { base.add(2 * PAGE_SIZE) };
        let f1 = MemFile::create(2 * PAGE_SIZE).unwrap();
        unsafe {
            map_file_fixed(&f1, seg_at).unwrap();
            *seg_at = 0x41;
            assert_eq!(*seg_at, 0x41);
            unmap_to_reserved(seg_at, 2 * PAGE_SIZE).unwrap();
            let f2 = MemFile::create(2 * PAGE_SIZE).unwrap();
            map_file_fixed(&f2, seg_at).unwrap();
            assert_eq!(*seg_at, 0, "a fresh file reads zero");
            unmap(base, 8 * PAGE_SIZE);
        }
    }

    #[test]
    fn copy_file_sparse_preserves_data_and_holes() {
        let src = MemFile::create(8 * PAGE_SIZE).unwrap();
        let dst = MemFile::create(8 * PAGE_SIZE).unwrap();
        let base = map_file_shared(&src).unwrap();
        unsafe {
            // Touch pages 1 and 5-6; leave the rest as holes.
            std::ptr::write_bytes(base.add(PAGE_SIZE), 0xA1, PAGE_SIZE);
            std::ptr::write_bytes(base.add(5 * PAGE_SIZE), 0xA5, 2 * PAGE_SIZE);
        }
        // Only the first `len` bytes: page 1, sparse or not.
        let first = MemFile::create(8 * PAGE_SIZE).unwrap();
        let copied = copy_file_sparse(&src, &first, 2 * PAGE_SIZE).unwrap();
        assert!(
            copied == PAGE_SIZE || copied == 2 * PAGE_SIZE,
            "copied {copied}"
        );
        assert_eq!(first.held_pages().unwrap(), copied / PAGE_SIZE);
        let copied = copy_file_sparse(&src, &dst, 8 * PAGE_SIZE).unwrap();
        // Either sparse-aware (3 pages) or the full-copy fallback.
        assert!(copied == 3 * PAGE_SIZE || copied == 8 * PAGE_SIZE, "copied {copied}");
        let d = map_file_shared(&dst).unwrap();
        unsafe {
            assert_eq!(*d.add(PAGE_SIZE), 0xA1);
            assert_eq!(*d.add(PAGE_SIZE + PAGE_SIZE - 1), 0xA1);
            assert_eq!(*d.add(5 * PAGE_SIZE), 0xA5);
            assert_eq!(*d.add(7 * PAGE_SIZE - 1), 0xA5);
            assert_eq!(*d, 0, "hole stays zero");
            assert_eq!(*d.add(4 * PAGE_SIZE), 0, "hole stays zero");
            // The copy is a snapshot: later writes to src must not show.
            *base.add(PAGE_SIZE) = 0x77;
            assert_eq!(*d.add(PAGE_SIZE), 0xA1);
            unmap(base, 8 * PAGE_SIZE);
            unmap(d, 8 * PAGE_SIZE);
        }
    }

    #[test]
    fn rss_readable() {
        // Only checks the plumbing; exact values are environment-dependent.
        let r = process_rss_kb();
        assert!(r.is_none() || r.unwrap() > 0);
    }

    #[test]
    fn resident_pages_tracks_touch_and_release() {
        let f = MemFile::create(4 * PAGE_SIZE).unwrap();
        let base = map_file_shared(&f).unwrap();
        unsafe {
            std::ptr::write_bytes(base, 0x5C, 2 * PAGE_SIZE);
        }
        let r = resident_pages(base as usize, 4).expect("mapped range");
        assert!(r >= 2, "touched pages must be resident, got {r}");
        punch_hole(&f, 0, 2 * PAGE_SIZE).unwrap();
        let after = resident_pages(base as usize, 4).expect("mapped range");
        assert!(after <= r, "release must not grow residency");
        unsafe { unmap(base, 4 * PAGE_SIZE) };
        assert_eq!(resident_pages(0x10, 1), None, "unmapped range rejected");
    }
}
