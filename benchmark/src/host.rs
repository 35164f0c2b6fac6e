//! What the harness reads from the host: CPU time, peak memory, and the
//! facts recorded beside every result.

use std::ffi::c_long;

/// Environment knobs that change which engine a run uses; the harness
/// removes them from its own environment, which its children inherit.
pub const SCRUBBED_ENV: [&str; 5] = [
    "PFCSIM_SCHED",
    "PFCSIM_THREADS",
    "PFCSIM_PARTITIONS",
    "PFCSIM_HYBRID",
    "PFCSIM_NO_TRAINS",
];

/// Remove every engine-selecting variable. Call before any thread starts.
pub fn scrub_env() {
    for k in SCRUBBED_ENV {
        std::env::remove_var(k);
    }
}

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` of Linux: two timevals, then fourteen longs of which
/// the first is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn rusage(who: i32) -> Rusage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout
    // above, and `who` is one of the two constants getrusage accepts.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    ru
}

fn cpu_seconds(ru: &Rusage) -> f64 {
    (ru.utime.sec + ru.stime.sec) as f64 + (ru.utime.usec + ru.stime.usec) as f64 * 1e-6
}

/// User+system CPU seconds this process has used, all threads.
pub fn cpu_self() -> f64 {
    cpu_seconds(&rusage(RUSAGE_SELF))
}

/// User+system CPU seconds of every child that has been waited for.
pub fn cpu_children() -> f64 {
    cpu_seconds(&rusage(RUSAGE_CHILDREN))
}

/// Largest peak resident set among the children waited for, in MB.
pub fn peak_rss_children_mb() -> f64 {
    rusage(RUSAGE_CHILDREN).maxrss as f64 / 1024.0
}

/// `VmHWM` of a live process in MB.
pub fn peak_rss_of_mb(pid: u32) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_self_mb() -> f64 {
    peak_rss_of_mb(std::process::id()).expect("/proc/self/status has VmHWM")
}

/// User+system CPU seconds of a live child, from `/proc/<pid>/stat`
/// (clock ticks of 10 ms, so only used over blocks of seconds).
pub fn cpu_of(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name is parenthesised and may hold spaces.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut f = rest.split_whitespace().skip(11);
    let utime: f64 = f.next()?.parse().ok()?;
    let stime: f64 = f.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Facts recorded beside every result.
pub struct HostInfo {
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
}

impl HostInfo {
    pub fn read() -> HostInfo {
        HostInfo {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            // A benchmark checkout need not be a git repository.
            commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_and_memory_read_positive() {
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_self() > 0.0);
        assert!(peak_rss_self_mb() > 0.5);
        let pid = std::process::id();
        assert!(cpu_of(pid).is_some());
        assert!(peak_rss_of_mb(pid).is_some());
    }
}
