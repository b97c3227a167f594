//! Child processes and what the kernel knows about them: wall time,
//! CPU time and peak resident memory of one `jsonx` invocation (via
//! `wait4`), and CPU / memory of a live daemon (via `/proc`).
//!
//! The standard library reaps children with `waitpid`, which discards the
//! child's resource usage, so batch commands are reaped here with `wait4`
//! instead. The declarations below are the x86-64 / aarch64 Linux ABI.

use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one finished command cost.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Exit code (`-1` when killed by a signal).
    pub code: i32,
    /// Spawn to reap.
    pub wall: Duration,
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set, bytes.
    pub peak_rss: u64,
}

/// Runs `cmd` to completion with stdout and stderr redirected to files,
/// and returns its exit code, wall time, CPU time and peak RSS.
pub fn run_measured(mut cmd: Command, stdout: &Path, stderr: &Path) -> std::io::Result<Usage> {
    cmd.stdin(Stdio::null())
        .stdout(File::create(stdout)?)
        .stderr(File::create(stderr)?);
    let start = Instant::now();
    let child = cmd.spawn()?;
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are valid, exclusively borrowed
        // out-parameters of the layout wait4 expects.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall = start.elapsed();
    // The child is reaped; dropping the handle neither waits nor kills.
    drop(child);
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -1
    };
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Ok(Usage {
        code,
        wall,
        cpu_s: secs(&usage.utime) + secs(&usage.stime),
        peak_rss: usage.maxrss_kb.max(0) as u64 * 1024,
    })
}

/// CPU time consumed so far by every live thread of process `pid`, from
/// the nanosecond run-time field of `/proc/<pid>/task/*/schedstat`.
pub fn cpu_ns(pid: u32) -> std::io::Result<u64> {
    let mut total = 0u64;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let path = task?.path().join("schedstat");
        // A thread may exit between listing and reading.
        if let Ok(text) = std::fs::read_to_string(path) {
            total += text
                .split_whitespace()
                .next()
                .and_then(|t| t.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    Ok(total)
}

/// Peak resident set (`VmHWM`) of live process `pid`, bytes.
pub fn peak_rss(pid: u32) -> std::io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc status"))
}

/// The machine record every result carries: core count, CPU model and
/// kernel release.
pub fn machine_record() -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!("machine: nproc={nproc} cpu=\"{cpu}\" kernel={kernel}")
}
