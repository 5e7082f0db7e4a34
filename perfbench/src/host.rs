//! Process accounting (CPU time, peak resident set) and the host
//! fingerprint every result record carries.

use std::time::Instant;

/// `struct timeval` as Linux lays it out on 64-bit targets.
#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// timevals followed by fourteen `long` counters.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
}

const RUSAGE_SELF: i32 = 0;
const SC_PAGESIZE: i32 = 30;
const SC_PHYS_PAGES: i32 = 85;

fn rusage_self() -> Rusage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the kernel's
    // 64-bit layout, and RUSAGE_SELF is a valid `who`; getrusage writes
    // only inside the struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    ru
}

/// User + system CPU seconds of the whole process, every thread
/// (joined ones included) counted.
pub fn process_cpu_s() -> f64 {
    let ru = rusage_self();
    let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    tv(&ru.utime) + tv(&ru.stime)
}

/// The process's resident-set high-water mark in MB: `ru_maxrss`, the
/// same counter `/proc/self/status` shows as `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    // ru_maxrss is the first of the fourteen counters, in KiB.
    rusage_self().rest[0] as f64 / 1024.0
}

/// Wall and CPU time of one timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Runs `f`, measuring its wall time and the process CPU time it used.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timing) {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    (out, Timing { wall_s, cpu_s })
}

/// Host, toolchain and source revision: what tells a like-with-like
/// comparison from a cross-host one.
pub fn provenance() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // SAFETY: sysconf only reads the configuration value it is asked
    // for; both names are valid on Linux.
    let (page, pages) = unsafe { (sysconf(SC_PAGESIZE), sysconf(SC_PHYS_PAGES)) };
    let mem_total_mb = if page > 0 && pages > 0 {
        format!("{:.0}", page as f64 * pages as f64 / (1024.0 * 1024.0))
    } else {
        "unknown".into()
    };
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu_model()),
        ("mem_total_mb", mem_total_mb),
        ("git_rev", git_rev()),
        ("rustc", env!("PERFBENCH_RUSTC_VERSION").to_string()),
    ]
}

/// The processor's brand string, read with `cpuid`.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    let leaves = [0x8000_0002u32, 0x8000_0003, 0x8000_0004];
    // Leaf 0x8000_0000 reports whether the brand-string leaves exist.
    if __cpuid(0x8000_0000).eax < leaves[2] {
        return "unknown".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in leaves {
        let r = __cpuid(leaf);
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

/// The checked-out commit, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
