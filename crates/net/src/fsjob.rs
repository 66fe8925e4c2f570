//! The **shared real-filesystem job executor**: one mechanical
//! implementation of [`HelperJob`] execution used by every real
//! driver — the AMPED shards and their helper pool ([`crate::server`])
//! and the thread-per-connection server ([`crate::mt`]) — so they can
//! never drift on tier selection, variant negotiation, or TOCTOU
//! hygiene. The deterministic sim implements the same mechanics
//! against its in-memory filesystem.
//!
//! "Mechanical" means: no policy lives here. The tier threshold rides
//! on the job as [`HelperJob::inline_max`]; the wanted representation
//! rides as [`HelperJob::variant`]. This module just opens files and
//! obeys.
//!
//! The executor runs in two modes:
//!
//! * **Blocking** ([`exec_job`]) — helper threads and MT connection
//!   threads. Every open, stat and read may wait on the disk.
//! * **Nowait** ([`exec_job_nowait`]) — the AMPED shard itself, which
//!   must never block. This is the paper's residency test, run by the
//!   kernel inside the syscalls that do the work: paths resolve only
//!   from the dentry cache (`openat2` with `RESOLVE_CACHED`, opened
//!   `O_NONBLOCK` so a FIFO or device cannot block the open), and
//!   inline bodies are read only from the page cache (`preadv2` with
//!   `RWF_NOWAIT`, for exactly the `fstat` length). Only `ENOENT`,
//!   `ENOTDIR` and `EACCES` are final answers; anything else — an
//!   uncached name, an evicted page, a short read, a non-regular file,
//!   a kernel without the flags — reports "would block" and the job
//!   goes to a helper unchanged. A kernel that lacks either flag
//!   (`RESOLVE_CACHED` needs Linux 5.12) is detected on first use and
//!   the mode switches off process-wide; other platforms always report
//!   "would block".
//!
//! Both modes produce identical results whenever the nowait mode
//! answers at all.
//!
//! TOCTOU rule (inherited from the old helper loop): the file is
//! opened *first* and everything after that — the regular-file check,
//! the length, the bytes read or the fd handed out — comes from the
//! open descriptor (`fstat` semantics). A `fs::metadata` + `fs::read`
//! pair races with path swaps: the metadata could describe one inode
//! and the read return another.

use std::fs::File;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::cache::Variant;
use crate::conn::{DoneData, FileData, HelperJob, JobKind, LoadResult};

/// How the executor may wait on the filesystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Opens, stats and reads may block on the disk.
    Blocking,
    /// Only dentry- and page-cache-resident work; everything else
    /// fails with the [`would_block`] sentinel.
    Nowait,
}

impl Mode {
    /// Passes an error through in blocking mode; in nowait mode any
    /// error that is not a final answer becomes "would block", so the
    /// helper repeats the step and reports whatever it finds.
    fn defer(self, e: io::Error) -> io::Error {
        match self {
            Mode::Blocking => e,
            Mode::Nowait => would_block(),
        }
    }
}

/// The nowait mode's "this needs I/O" sentinel.
fn would_block() -> io::Error {
    io::Error::from(io::ErrorKind::WouldBlock)
}

/// The `.gz` sibling of an identity filesystem path (`a/b.html` →
/// `a/b.html.gz`) — the on-disk layout of the precompressed variant.
pub fn gzip_sibling(p: &Path) -> PathBuf {
    let mut os = p.as_os_str().to_os_string();
    os.push(".gz");
    PathBuf::from(os)
}

/// A file's mtime as unix seconds, if the filesystem reports one that
/// fits (pre-1970 mtimes are reported as `None` rather than lied
/// about — `Last-Modified` simply goes unsent).
pub fn unix_mtime(meta: &std::fs::Metadata) -> Option<i64> {
    let t = meta.modified().ok()?;
    let d = t.duration_since(std::time::UNIX_EPOCH).ok()?;
    Some(d.as_secs() as i64)
}

/// Executes one helper job against the real filesystem, producing the
/// completion payload for [`crate::conn::Done`]. May block on disk.
pub fn exec_job(job: &HelperJob) -> DoneData<Arc<File>> {
    match job.kind {
        JobKind::Load => DoneData::Loaded(exec_load(job)),
        JobKind::Revalidate => DoneData::Stat(exec_stat(job)),
        // Dynamic jobs are multi-event streams run by the worker pool
        // (`crate::appworker`); the helper loop intercepts them before
        // this single-shot executor. Reaching here means a driver
        // forgot that interception — fail the request, don't guess.
        JobKind::Dynamic => DoneData::Loaded(Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "dynamic job reached the filesystem executor",
        ))),
    }
}

/// Executes one filesystem job without blocking: `Some` is the same
/// payload [`exec_job`] would produce, `None` means the answer needs
/// I/O (or the platform lacks the nowait syscalls) and the job must go
/// to a helper. Dynamic jobs always return `None`.
pub fn exec_job_nowait(job: &HelperJob) -> Option<DoneData<Arc<File>>> {
    if !nowait::available() {
        return None;
    }
    let data = match job.kind {
        JobKind::Load => DoneData::Loaded(load(job, Mode::Nowait)),
        JobKind::Revalidate => DoneData::Stat(stat(job, Mode::Nowait)),
        JobKind::Dynamic => return None,
    };
    match &data {
        DoneData::Loaded(Err(e)) | DoneData::Stat(Err(e))
            if e.kind() == io::ErrorKind::WouldBlock =>
        {
            None
        }
        _ => Some(data),
    }
}

/// Opens a regular file, refusing directories and anything unreadable;
/// returns the descriptor with its fstat'ed length and mtime.
fn open_regular(p: &Path, mode: Mode) -> io::Result<(File, u64, Option<i64>)> {
    let file = match mode {
        Mode::Blocking => File::open(p)?,
        Mode::Nowait => nowait::open(p)?,
    };
    // fstat on the open fd — no second path lookup.
    let meta = file.metadata().map_err(|e| mode.defer(e))?;
    if !meta.is_file() {
        return Err(mode.defer(io::Error::new(
            io::ErrorKind::NotFound,
            "not a regular file",
        )));
    }
    let len = meta.len();
    let mtime = unix_mtime(&meta);
    Ok((file, len, mtime))
}

/// Whether a `.gz` sibling exists as a regular file (`stat(2)`
/// semantics). Nowait mode opens it instead, and can only answer
/// "absent" from `ENOENT`/`ENOTDIR`: `EACCES` on the open does not say
/// whether `stat` would see a file, so it defers to a helper.
fn sibling_exists(p: &Path, mode: Mode) -> io::Result<bool> {
    match mode {
        Mode::Blocking => Ok(std::fs::metadata(p).map(|m| m.is_file()).unwrap_or(false)),
        Mode::Nowait => match nowait::open(p) {
            Ok(file) => Ok(file.metadata().map_err(|_| would_block())?.is_file()),
            Err(e) if nowait::absent(&e) => Ok(false),
            Err(_) => Err(would_block()),
        },
    }
}

/// Applies the job's tier rule to an open file: bodies at most
/// `inline_max` bytes come back as bytes (destined for the content
/// cache and the `writev` path), larger ones as the open descriptor
/// for the `sendfile` window path — a multi-gigabyte file never
/// materializes in executor memory.
fn tiered(
    file: File,
    len: u64,
    mtime: Option<i64>,
    inline_max: u64,
    mode: Mode,
) -> io::Result<FileData<Arc<File>>> {
    if len > inline_max {
        return Ok(FileData::Fd {
            file: Arc::new(file),
            len,
            mtime,
        });
    }
    let body = match mode {
        Mode::Blocking => {
            let mut body = Vec::with_capacity(len as usize);
            (&file).read_to_end(&mut body)?;
            body
        }
        Mode::Nowait => nowait::read_resident(&file, len)?,
    };
    Ok(FileData::Bytes { body, mtime })
}

/// Executes a [`JobKind::Load`]: opens the identity file, negotiates
/// the variant, and reports which representation actually loaded.
///
/// The identity file is opened *first* even for a gzip-preference job:
/// a missing resource must `404` identically for gzip-accepting and
/// plain clients, and a sibling-only `.gz` (no original) is
/// deliberately never served. A gzip preference then probes the
/// sibling and serves it when present — under the `.gz` file's **own**
/// length and mtime (its `Content-Length`, `Last-Modified`, and `ETag`
/// describe the bytes actually sent) — falling back to identity when
/// absent. An identity load still stats the sibling so the entry can
/// advertise `Vary: Accept-Encoding` and route future gzip-accepting
/// clients. Sibling discovery happens only here, at load time: a
/// `.gz` added or removed afterwards is picked up by the next
/// revalidation or cache miss, not mid-entry.
pub fn exec_load(job: &HelperJob) -> io::Result<LoadResult<Arc<File>>> {
    load(job, Mode::Blocking)
}

fn load(job: &HelperJob, mode: Mode) -> io::Result<LoadResult<Arc<File>>> {
    let (id_file, id_len, id_mtime) = open_regular(&job.fs_path, mode)?;
    let sibling = gzip_sibling(&job.fs_path);
    if job.variant.is_gzip() {
        match open_regular(&sibling, mode) {
            Ok((gz_file, gz_len, gz_mtime)) => {
                return Ok(LoadResult {
                    data: tiered(gz_file, gz_len, gz_mtime, job.inline_max, mode)?,
                    variant: Variant::Gzip,
                    has_gzip: true,
                });
            }
            Err(e) if mode == Mode::Nowait && e.kind() == io::ErrorKind::WouldBlock => {
                return Err(e)
            }
            Err(_) => {}
        }
        return Ok(LoadResult {
            data: tiered(id_file, id_len, id_mtime, job.inline_max, mode)?,
            variant: Variant::Identity,
            has_gzip: false,
        });
    }
    let has_gzip = sibling_exists(&sibling, mode)?;
    Ok(LoadResult {
        data: tiered(id_file, id_len, id_mtime, job.inline_max, mode)?,
        variant: Variant::Identity,
        has_gzip,
    })
}

/// Executes a [`JobKind::Revalidate`]: the cheap open + `fstat` probe,
/// no bytes read, against the file the entry's variant actually came
/// from (the `.gz` sibling for gzip entries). Returns the current
/// (length, mtime) for comparison against the cached entry.
pub fn exec_stat(job: &HelperJob) -> io::Result<(u64, Option<i64>)> {
    stat(job, Mode::Blocking)
}

fn stat(job: &HelperJob, mode: Mode) -> io::Result<(u64, Option<i64>)> {
    let sibling;
    let p: &Path = if job.variant.is_gzip() {
        sibling = gzip_sibling(&job.fs_path);
        &sibling
    } else {
        &job.fs_path
    };
    let (_file, len, mtime) = open_regular(p, mode)?;
    Ok((len, mtime))
}

/// The nowait syscalls: `openat2(RESOLVE_CACHED)` and
/// `preadv2(RWF_NOWAIT)`, declared against the platform libc like the
/// rest of the crate's FFI. Limited to the 64-bit Linux targets whose
/// syscall number, open flags and errno values are the generic ones
/// written here.
#[cfg(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "aarch64",
        target_arch = "riscv64"
    )
))]
mod nowait {
    use std::ffi::{c_int, c_long, CString};
    use std::fs::File;
    use std::io;
    use std::os::unix::ffi::OsStrExt;
    use std::os::unix::io::{AsRawFd, FromRawFd};
    use std::path::Path;
    use std::sync::atomic::{AtomicBool, Ordering};

    use super::would_block;

    const SYS_OPENAT2: c_long = 437;
    // `syscall(2)` reads every argument as a `long`.
    const AT_FDCWD: c_long = -100;
    const O_RDONLY: u64 = 0;
    const O_NONBLOCK: u64 = 0o4000;
    const O_CLOEXEC: u64 = 0o2000000;
    const RESOLVE_CACHED: u64 = 0x20;
    const RWF_NOWAIT: c_int = 0x8;

    const ENOENT: i32 = 2;
    const EACCES: i32 = 13;
    const ENOTDIR: i32 = 20;
    const EINVAL: i32 = 22;
    const ENOSYS: i32 = 38;
    const EOPNOTSUPP: i32 = 95;

    /// `struct open_how` (Linux 5.6+).
    #[repr(C)]
    struct OpenHow {
        flags: u64,
        mode: u64,
        resolve: u64,
    }

    /// Layout-compatible with `struct iovec`.
    #[repr(C)]
    struct IoVec {
        base: *mut u8,
        len: usize,
    }

    unsafe extern "C" {
        fn syscall(num: c_long, ...) -> c_long;
        fn preadv2(fd: c_int, iov: *const IoVec, iovcnt: c_int, offset: i64, flags: c_int)
            -> isize;
    }

    /// Cleared, for the life of the process, the first time the kernel
    /// rejects either flag as unsupported.
    static SUPPORTED: AtomicBool = AtomicBool::new(true);

    pub(super) fn available() -> bool {
        SUPPORTED.load(Ordering::Relaxed)
    }

    /// Which nowait syscall failed.
    #[derive(Debug, Clone, Copy)]
    pub(super) enum Call {
        Open,
        Read,
    }

    /// What a failed nowait syscall's errno means for the job.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum Verdict {
        /// The answer stands: the same blocking call would fail the
        /// same way.
        Final,
        /// The call needs I/O (or the error needs a closer look): a
        /// helper runs the job.
        WouldBlock,
        /// The kernel lacks the flag or the syscall: switch the mode
        /// off and hand this job to a helper.
        Unsupported,
    }

    pub(super) fn classify(call: Call, errno: i32) -> Verdict {
        match (call, errno) {
            (Call::Open, ENOENT | ENOTDIR | EACCES) => Verdict::Final,
            (Call::Open, ENOSYS | EINVAL) | (Call::Read, ENOSYS | EOPNOTSUPP) => {
                Verdict::Unsupported
            }
            _ => Verdict::WouldBlock,
        }
    }

    /// The error a failed call leaves behind: the kernel's own for a
    /// final answer, the "would block" sentinel otherwise.
    fn failed(call: Call) -> io::Error {
        let err = io::Error::last_os_error();
        match classify(call, err.raw_os_error().unwrap_or(0)) {
            Verdict::Final => err,
            Verdict::WouldBlock => would_block(),
            Verdict::Unsupported => {
                SUPPORTED.store(false, Ordering::Relaxed);
                would_block()
            }
        }
    }

    /// Whether a final open error says the name does not exist.
    pub(super) fn absent(e: &io::Error) -> bool {
        matches!(e.raw_os_error(), Some(ENOENT | ENOTDIR))
    }

    /// Opens `p` read-only, resolving it only from the dentry cache.
    pub(super) fn open(p: &Path) -> io::Result<File> {
        let path = CString::new(p.as_os_str().as_bytes()).map_err(|_| would_block())?;
        let how = OpenHow {
            flags: O_RDONLY | O_NONBLOCK | O_CLOEXEC,
            mode: 0,
            resolve: RESOLVE_CACHED,
        };
        // SAFETY: `path` is NUL-terminated and `how` is a live
        // `open_how` whose size is passed alongside; the kernel only
        // reads both.
        let fd = unsafe {
            syscall(
                SYS_OPENAT2,
                AT_FDCWD,
                path.as_ptr(),
                &how as *const OpenHow,
                std::mem::size_of::<OpenHow>(),
            )
        };
        if fd < 0 {
            return Err(failed(Call::Open));
        }
        // SAFETY: the kernel just returned this descriptor; the `File`
        // becomes its only owner.
        Ok(unsafe { File::from_raw_fd(fd as c_int) })
    }

    /// Reads exactly `len` bytes from the start of `file`, all from the
    /// page cache; a short read means part of the file is not resident.
    pub(super) fn read_resident(file: &File, len: u64) -> io::Result<Vec<u8>> {
        let mut body = Vec::with_capacity(len as usize);
        if len == 0 {
            return Ok(body);
        }
        let iov = IoVec {
            base: body.as_mut_ptr(),
            len: len as usize,
        };
        // SAFETY: `iov` covers `body`'s spare capacity of `len` bytes,
        // which the kernel may write and nothing else aliases.
        let n = unsafe { preadv2(file.as_raw_fd(), &iov, 1, 0, RWF_NOWAIT) };
        if n < 0 {
            return Err(failed(Call::Read));
        }
        if n as u64 != len {
            return Err(would_block());
        }
        // SAFETY: the kernel initialized exactly `len` bytes.
        unsafe { body.set_len(len as usize) };
        Ok(body)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn inline_errno_classification() {
            // Final answers: the blocking call would fail identically.
            for errno in [2, 13, 20] {
                assert_eq!(classify(Call::Open, errno), Verdict::Final, "open {errno}");
            }
            // No RESOLVE_CACHED (pre-5.12: EINVAL) or no openat2 at all.
            for errno in [22, 38] {
                assert_eq!(
                    classify(Call::Open, errno),
                    Verdict::Unsupported,
                    "open {errno}"
                );
            }
            // Filesystem without RWF_NOWAIT, or no preadv2.
            for errno in [95, 38] {
                assert_eq!(
                    classify(Call::Read, errno),
                    Verdict::Unsupported,
                    "read {errno}"
                );
            }
            // EAGAIN (needs I/O), ELOOP, ENAMETOOLONG, EMFILE, EIO: a helper
            // repeats the call and reports what it finds. A read never
            // answers finally — even ENOENT there is not a lookup result.
            for errno in [11, 40, 36, 24, 5] {
                assert_eq!(
                    classify(Call::Open, errno),
                    Verdict::WouldBlock,
                    "open {errno}"
                );
                assert_eq!(
                    classify(Call::Read, errno),
                    Verdict::WouldBlock,
                    "read {errno}"
                );
            }
            for errno in [2, 13, 20, 22] {
                assert_eq!(
                    classify(Call::Read, errno),
                    Verdict::WouldBlock,
                    "read {errno}"
                );
            }
        }
    }
}

/// Platforms without the nowait syscalls: every job would block.
#[cfg(not(all(
    target_os = "linux",
    any(
        target_arch = "x86_64",
        target_arch = "aarch64",
        target_arch = "riscv64"
    )
)))]
mod nowait {
    use std::fs::File;
    use std::io;
    use std::path::Path;

    use super::would_block;

    pub(super) fn available() -> bool {
        false
    }

    pub(super) fn absent(_: &io::Error) -> bool {
        false
    }

    pub(super) fn open(_: &Path) -> io::Result<File> {
        Err(would_block())
    }

    pub(super) fn read_resident(_: &File, _: u64) -> io::Result<Vec<u8>> {
        Err(would_block())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// A throwaway directory under the OS temp root (the workspace has
    /// no tempdir crate), removed on drop.
    struct TestDir(PathBuf);

    impl TestDir {
        fn new(tag: &str) -> TestDir {
            let p = std::env::temp_dir().join(format!("flash-fsjob-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&p);
            std::fs::create_dir_all(&p).unwrap();
            TestDir(p)
        }
        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn job(dir: &Path, name: &str, kind: JobKind, variant: Variant, inline_max: u64) -> HelperJob {
        HelperJob {
            path: format!("/{name}"),
            fs_path: dir.join(name),
            kind,
            variant,
            inline_max,
            epoch: 0,
            token: 1,
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    #[test]
    fn gzip_preference_serves_sibling_and_falls_back() {
        let dir = TestDir::new("gzpref");
        std::fs::write(dir.path().join("a.html"), b"identity-bytes").unwrap();
        std::fs::write(dir.path().join("a.html.gz"), b"gz").unwrap();
        std::fs::write(dir.path().join("b.html"), b"plain-only").unwrap();

        let got = exec_load(&job(
            dir.path(),
            "a.html",
            JobKind::Load,
            Variant::Gzip,
            1024,
        ))
        .unwrap();
        assert_eq!(got.variant, Variant::Gzip);
        assert!(got.has_gzip);
        match got.data {
            FileData::Bytes { body, .. } => assert_eq!(body, b"gz"),
            _ => panic!("2 bytes must come back inline"),
        }

        let got = exec_load(&job(
            dir.path(),
            "b.html",
            JobKind::Load,
            Variant::Gzip,
            1024,
        ))
        .unwrap();
        assert_eq!(
            got.variant,
            Variant::Identity,
            "no sibling: identity fallback"
        );
        assert!(!got.has_gzip);

        // Identity load of a negotiated resource records the sibling.
        let got = exec_load(&job(
            dir.path(),
            "a.html",
            JobKind::Load,
            Variant::Identity,
            1024,
        ))
        .unwrap();
        assert_eq!(got.variant, Variant::Identity);
        assert!(got.has_gzip);
    }

    #[test]
    fn inline_max_decides_the_tier_mechanically() {
        let dir = TestDir::new("tier");
        std::fs::write(dir.path().join("x.bin"), vec![7u8; 100]).unwrap();
        let got = exec_load(&job(
            dir.path(),
            "x.bin",
            JobKind::Load,
            Variant::Identity,
            99,
        ))
        .unwrap();
        match got.data {
            FileData::Fd { len, .. } => assert_eq!(len, 100),
            _ => panic!("100 > 99 must come back as an fd"),
        }
        let got = exec_load(&job(
            dir.path(),
            "x.bin",
            JobKind::Load,
            Variant::Identity,
            100,
        ))
        .unwrap();
        assert!(
            matches!(got.data, FileData::Bytes { .. }),
            "100 <= 100 stays inline"
        );
    }

    #[test]
    fn revalidate_stats_the_variant_file() {
        let dir = TestDir::new("reval");
        std::fs::write(dir.path().join("a.html"), b"0123456789").unwrap();
        std::fs::write(dir.path().join("a.html.gz"), b"123").unwrap();
        let (len, _) = exec_stat(&job(
            dir.path(),
            "a.html",
            JobKind::Revalidate,
            Variant::Gzip,
            0,
        ))
        .unwrap();
        assert_eq!(len, 3, "gzip revalidation must stat the sibling");
        let (len, _) = exec_stat(&job(
            dir.path(),
            "a.html",
            JobKind::Revalidate,
            Variant::Identity,
            0,
        ))
        .unwrap();
        assert_eq!(len, 10);
    }

    #[test]
    fn missing_identity_fails_even_with_sibling_present() {
        let dir = TestDir::new("ghost");
        std::fs::write(dir.path().join("ghost.html.gz"), b"gz").unwrap();
        let err = exec_load(&job(
            dir.path(),
            "ghost.html",
            JobKind::Load,
            Variant::Gzip,
            1024,
        ))
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    /// Everything observable about a completion — bytes, variant,
    /// `has_gzip`, length, mtime, error kind — as one comparable line.
    fn digest(d: &DoneData<Arc<File>>) -> String {
        match d {
            DoneData::Loaded(Ok(r)) => {
                let data = match &r.data {
                    FileData::Bytes { body, mtime } => format!("bytes {body:?} mtime {mtime:?}"),
                    FileData::Fd { len, mtime, .. } => format!("fd len {len} mtime {mtime:?}"),
                };
                format!("load {:?} gz {} {data}", r.variant, r.has_gzip)
            }
            DoneData::Loaded(Err(e)) => format!("load err {:?}", e.kind()),
            DoneData::Stat(Ok((len, mtime))) => format!("stat len {len} mtime {mtime:?}"),
            DoneData::Stat(Err(e)) => format!("stat err {:?}", e.kind()),
            DoneData::Dynamic(_) => "dynamic".to_string(),
        }
    }

    #[cfg(target_os = "linux")]
    fn mkfifo_at(path: &Path) {
        use std::os::unix::ffi::OsStrExt;
        unsafe extern "C" {
            fn mkfifo(path: *const u8, mode: u32) -> i32;
        }
        let mut bytes = path.as_os_str().as_bytes().to_vec();
        bytes.push(0);
        // SAFETY: `bytes` is a NUL-terminated path buffer that outlives
        // the call; mkfifo reads it and touches nothing else.
        let rc = unsafe { mkfifo(bytes.as_ptr(), 0o644) };
        assert_eq!(rc, 0, "mkfifo failed: {}", io::Error::last_os_error());
    }

    #[test]
    fn inline_nowait_matches_blocking_executor() {
        let dir = TestDir::new("inline-diff");
        std::fs::write(dir.path().join("a.html"), b"0123456789").unwrap();
        std::fs::write(dir.path().join("a.html.gz"), b"gz!").unwrap();
        std::fs::write(dir.path().join("b.html"), b"plain-only").unwrap();
        std::fs::write(dir.path().join("x.bin"), vec![7u8; 100]).unwrap();
        std::fs::write(dir.path().join("ghost.html.gz"), b"gz").unwrap();
        let fixtures = [
            // Gzip preference served from the sibling, and its fallback.
            ("a.html", JobKind::Load, Variant::Gzip, 1024),
            ("b.html", JobKind::Load, Variant::Gzip, 1024),
            // Identity loads record whether a sibling exists.
            ("a.html", JobKind::Load, Variant::Identity, 1024),
            ("b.html", JobKind::Load, Variant::Identity, 1024),
            // The inline_max tier boundary, both sides.
            ("x.bin", JobKind::Load, Variant::Identity, 99),
            ("x.bin", JobKind::Load, Variant::Identity, 100),
            ("a.html", JobKind::Load, Variant::Gzip, 2),
            // Revalidation stats the variant's own file.
            ("a.html", JobKind::Revalidate, Variant::Gzip, 0),
            ("a.html", JobKind::Revalidate, Variant::Identity, 0),
            ("b.html", JobKind::Revalidate, Variant::Gzip, 0),
            // A sibling-only `.gz` must 404, for every kind and variant.
            ("ghost.html", JobKind::Load, Variant::Gzip, 1024),
            ("ghost.html", JobKind::Load, Variant::Identity, 1024),
            ("ghost.html", JobKind::Revalidate, Variant::Identity, 0),
        ];
        for (name, kind, variant, inline_max) in fixtures {
            let j = job(dir.path(), name, kind, variant, inline_max);
            let blocking = digest(&exec_job(&j));
            let Some(nowait) = exec_job_nowait(&j) else {
                if !nowait::available() {
                    eprintln!("kernel lacks RESOLVE_CACHED/RWF_NOWAIT; nowait mode is off");
                    return;
                }
                panic!("{name} {kind:?} {variant:?}: warmed job must complete without blocking");
            };
            assert_eq!(
                digest(&nowait),
                blocking,
                "{name} {kind:?} {variant:?} {inline_max}"
            );
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn inline_fifo_would_block_without_a_blocking_open() {
        let dir = TestDir::new("inline-fifo");
        let fifo = dir.path().join("wedge.fifo");
        mkfifo_at(&fifo);
        std::fs::metadata(&fifo).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        for kind in [JobKind::Load, JobKind::Revalidate] {
            let j = job(dir.path(), "wedge.fifo", kind, Variant::Identity, 1024);
            let tx = tx.clone();
            std::thread::spawn(move || {
                let _ = tx.send(exec_job_nowait(&j).is_none());
            });
        }
        for _ in 0..2 {
            // A blocking open of a writerless FIFO never returns: the
            // timeout is the proof that none happened.
            match rx.recv_timeout(std::time::Duration::from_secs(5)) {
                Ok(blocked) => assert!(blocked, "a FIFO is never a final answer"),
                Err(_) => {
                    // Release the wedged thread before failing.
                    drop(std::fs::OpenOptions::new().write(true).open(&fifo));
                    panic!("the nowait executor blocked on a FIFO");
                }
            }
        }
    }

    #[test]
    fn inline_unlooked_name_would_block_until_looked_up() {
        let dir = TestDir::new("inline-lookup");
        let j = job(
            dir.path(),
            "never.html",
            JobKind::Load,
            Variant::Identity,
            1024,
        );
        // No lookup of this name ever happened: answering "absent"
        // would need the directory read from disk.
        assert!(exec_job_nowait(&j).is_none());
        if !nowait::available() {
            eprintln!("kernel lacks RESOLVE_CACHED/RWF_NOWAIT; nowait mode is off");
            return;
        }
        // One blocking lookup leaves a negative dentry behind…
        assert_eq!(digest(&exec_job(&j)), "load err NotFound");
        // …and the same name is now answered on the spot.
        let got = exec_job_nowait(&j).expect("negative dentry answers inline");
        assert_eq!(digest(&got), "load err NotFound");
    }
}
