//! One child process, measured: launch-to-exit wall time, then CPU time
//! and peak resident set size from the kernel's own accounting
//! (`wait4`), plus everything the child wrote — stdout and digests of the
//! files it exported — for the byte-for-byte correctness check. Also
//! the one-processor pinning timed launches run under ([`Pinned`]).
//!
//! Exported files are hashed while they are read, never held whole. A
//! child starts inside the harness's address space (`posix_spawn`
//! shares it until `exec`), and Linux carries that peak over into the
//! child's `ru_maxrss`. So the harness must stay smaller than the
//! children it measures, and the `faults_recover` traces alone are
//! ~11 MB, about its whole peak.

use std::collections::BTreeMap;
use std::fs::File;
use std::hash::{DefaultHasher, Hasher};
use std::io::{self, Read};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Length and 64-bit hash of one exported file. Digests are only ever
/// compared with digests the same process computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Bytes in the file.
    pub len: u64,
    /// SipHash of the contents.
    pub hash: u64,
}

/// What one invocation produced: stdout plus a digest of every exported
/// file, keyed by its `/`-separated path relative to the export
/// directory.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Output {
    /// Standard output, byte for byte.
    pub stdout: Vec<u8>,
    /// Exported files (empty when the invocation exports nothing).
    pub files: BTreeMap<String, Digest>,
}

impl Output {
    /// Total bytes of the exported files.
    pub fn file_bytes(&self) -> u64 {
        self.files.values().map(|d| d.len).sum()
    }

    /// Where `self` first differs from `reference`, for the failure
    /// message; `None` when the two are identical.
    pub fn first_difference(&self, reference: &Output) -> Option<String> {
        if self.stdout != reference.stdout {
            let at = self
                .stdout
                .iter()
                .zip(&reference.stdout)
                .position(|(x, y)| x != y)
                .unwrap_or(self.stdout.len().min(reference.stdout.len()));
            return Some(format!(
                "stdout differs at byte {at} ({} bytes vs {} in the reference)",
                self.stdout.len(),
                reference.stdout.len()
            ));
        }
        if self.files.keys().ne(reference.files.keys()) {
            let ours: Vec<&String> = self.files.keys().collect();
            let theirs: Vec<&String> = reference.files.keys().collect();
            return Some(format!(
                "exported file set {ours:?} differs from the reference {theirs:?}"
            ));
        }
        self.files.iter().zip(&reference.files).find(|(a, b)| a.1 != b.1).map(
            |((path, a), (_, b))| {
                format!(
                    "exported file {path} differs ({} bytes vs {} in the reference)",
                    a.len, b.len
                )
            },
        )
    }
}

/// One finished child.
#[derive(Debug, Clone)]
pub struct Launch {
    /// Launch-to-exit wall time, seconds.
    pub wall_s: f64,
    /// User plus system CPU time of the child, seconds.
    pub cpu_s: f64,
    /// Peak resident set size of the child, MiB.
    pub rss_mb: f64,
    /// The child exited normally with status 0.
    pub success: bool,
    /// Everything it wrote.
    pub output: Output,
}

/// Runs `program args…` to completion. When `export_dir` is given it is
/// emptied first and digested afterwards into [`Output::files`]. The
/// child's stderr goes to `stderr_file`, kept for diagnosing failures.
pub fn launch(
    program: &Path,
    args: &[String],
    export_dir: Option<&Path>,
    stderr_file: &Path,
) -> io::Result<Launch> {
    if let Some(dir) = export_dir {
        remove_tree(dir)?;
    }
    let started = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(File::create(stderr_file)?)
        .spawn()?;
    let mut stdout = Vec::new();
    let read = child.stdout.take().expect("stdout is piped").read_to_end(&mut stdout);
    if let Err(e) = read {
        // Never leave the child behind: stop it and reap it first.
        let _ = child.kill();
        let _ = reap(child.id());
        return Err(e);
    }
    let (status, usage) = reap(child.id())?;
    let wall_s = started.elapsed().as_secs_f64();
    let files = match export_dir {
        Some(dir) => digest_tree(dir)?,
        None => BTreeMap::new(),
    };
    Ok(Launch {
        wall_s,
        cpu_s: usage.utime.secs() + usage.stime.secs(),
        rss_mb: usage.maxrss_kib as f64 / 1024.0,
        success: status == 0,
        output: Output { stdout, files },
    })
}

/// Removes `dir` and everything under it; a missing directory is fine.
pub fn remove_tree(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// A digest of every regular file under `dir`, keyed by relative path.
pub fn digest_tree(dir: &Path) -> io::Result<BTreeMap<String, Digest>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Digest>) -> io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(root, &path, out)?;
            } else {
                let rel = path.strip_prefix(root).expect("walk stays under its root");
                let key =
                    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>();
                out.insert(key.join("/"), digest(&path)?);
            }
        }
        Ok(())
    }
    let mut out = BTreeMap::new();
    if dir.exists() {
        walk(dir, dir, &mut out)?;
    }
    Ok(out)
}

fn digest(path: &Path) -> io::Result<Digest> {
    let mut file = File::open(path)?;
    let mut hasher = DefaultHasher::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut len = 0u64;
    loop {
        let n = file.read(&mut chunk)?;
        if n == 0 {
            return Ok(Digest { len, hash: hasher.finish() });
        }
        hasher.write(&chunk[..n]);
        len += n as u64;
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!(
    "the benchmark reads child CPU time and peak RSS through the 64-bit Linux wait4 ABI, \
     and pins processors through sched_setaffinity"
);

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

impl Timeval {
    fn secs(&self) -> f64 {
        self.sec as f64 + self.usec as f64 * 1e-6
    }
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// of which the first is the peak RSS in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// `cpu_set_t` on Linux: a bit mask over 1024 processors.
#[repr(C)]
#[derive(Clone, Copy)]
struct CpuSet([u64; 16]);

impl CpuSet {
    /// The calling thread's affinity mask.
    fn current() -> io::Result<CpuSet> {
        let mut mask = CpuSet([0; 16]);
        // SAFETY: the kernel writes at most `size_of::<CpuSet>()` bytes
        // through the pointer, which points at a live local of that size.
        let r = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        if r == 0 {
            Ok(mask)
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// Makes this the calling thread's affinity mask.
    fn apply(&self) -> io::Result<()> {
        // SAFETY: the kernel only reads `size_of::<CpuSet>()` bytes
        // through the pointer, which points at a live value of that size.
        let r = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), self) };
        if r == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }
}

/// While alive, the calling thread, and every child it launches, runs
/// on one processor only: the highest-numbered one it was allowed.
/// Dropping it restores the mask it replaced.
///
/// A launch and the calibrations beside it then meet the same processor:
/// on a shared host each virtual processor is slowed by its own
/// neighbours, so a calibration taken on the other one tracks a launch
/// less well (README.md, "Noise").
pub struct Pinned {
    saved: CpuSet,
}

impl Pinned {
    /// Pins the calling thread.
    ///
    /// # Errors
    /// When the affinity mask cannot be read or set.
    pub fn to_one_cpu() -> io::Result<Pinned> {
        let saved = CpuSet::current()?;
        let (word, bits) = saved
            .0
            .iter()
            .enumerate()
            .rev()
            .find(|(_, bits)| **bits != 0)
            .ok_or_else(|| io::Error::other("the affinity mask allows no processor"))?;
        let mut one = CpuSet([0; 16]);
        one.0[word] = 1 << (63 - bits.leading_zeros());
        one.apply()?;
        Ok(Pinned { saved })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        let _ = self.saved.apply();
    }
}

/// Waits for child `pid` to exit and returns its raw wait status (0
/// exactly when it exited normally with code 0) and resource usage.
fn reap(pid: u32) -> io::Result<(i32, Rusage)> {
    let pid = i32::try_from(pid).expect("process ids fit in pid_t");
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `wait4` writes only through its two pointers, which
        // point at live locals of the right size and alignment: `i32`
        // is `int`, and `Rusage` mirrors the 64-bit Linux `struct
        // rusage` layout (checked by the compile_error! above).
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            return Ok((status, usage));
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}
