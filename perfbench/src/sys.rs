//! The operating-system facilities the standard library does not
//! expose: a child's peak memory after it has been reaped, and a
//! SIGTERM that lets the daemon drain instead of being killed.

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn kill(pid: i32, signal: i32) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;
const SIGTERM: i32 = 15;

/// Peak resident set of the largest child this process has waited for,
/// in MiB.
pub fn children_peak_rss_mb() -> Option<f64> {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of 64-bit Linux (two timevals, then fourteen
    // longs), and getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    (rc == 0).then(|| usage.maxrss as f64 / 1024.0)
}

/// Sends SIGTERM to `pid`; false when the signal could not be sent.
pub fn terminate(pid: u32) -> bool {
    let Ok(pid) = i32::try_from(pid) else {
        return false;
    };
    // SAFETY: kill has no memory-safety preconditions; callers pass the
    // pid of a child they spawned and have not yet reaped.
    unsafe { kill(pid, SIGTERM) == 0 }
}

/// Peak resident set (VmHWM) of a live process, in MiB.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
