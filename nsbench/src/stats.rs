//! Order statistics and the `/proc` readers behind the CPU and memory
//! metrics.

/// Median of an unsorted sample (mean of the middle two when even).
/// Panics on an empty sample: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the rule the acceptance check of this benchmark is written in.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in (1..4).enumerate() {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        out[slot] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The `p`-th percentile (nearest rank) of an ascending sample, or
/// `None` when fewer than ten samples lie beyond it: a tail estimate
/// that rests on a handful of points is one stall, not a percentile.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let idx = ((n as f64 * p).ceil() as usize).clamp(1, n) - 1;
    let beyond = (n - 1 - idx).min(idx);
    (beyond >= 10).then(|| sorted[idx])
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// A `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time of a POSIX CPU-time clock, nanoseconds. `/proc` offers the
/// same figures only at scheduler-tick resolution, too coarse for a
/// four-millisecond call.
fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) and `clock_gettime` writes
    // nothing else; the symbol comes from the C library std links.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User + system CPU nanoseconds of the calling thread.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// User + system CPU nanoseconds of every thread of this process.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// The CPUs the process was allowed when it first asked, ascending
/// (read once: a pinned thread's children inherit its one-CPU mask).
fn allowed_cpus() -> &'static [usize] {
    static CPUS: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    CPUS.get_or_init(read_allowed_cpus)
}

fn read_allowed_cpus() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pin the calling thread: the load generator (and every
/// single-threaded workload) to the first allowed CPU, the wire
/// server's thread to the last. Left to itself the scheduler sometimes
/// runs both on one CPU for seconds at a time, which halves wire
/// throughput in some runs and not in others. Does nothing on a
/// one-CPU machine or where affinity cannot be read.
pub fn pin_thread(server_side: bool) {
    let cpus = allowed_cpus();
    if cpus.len() < 2 {
        return;
    }
    let cpu = if server_side {
        cpus[cpus.len() - 1]
    } else {
        cpus[0]
    };
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 names the calling thread. A refusal leaves the thread
    // unpinned, which only costs steadiness.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
}

/// Undo [`pin_thread`] for the calling thread (and the threads it
/// spawns from here on): the probe of the worker pool's fan-out cost
/// must pay the cross-CPU wake-ups a served batch would.
pub fn unpin_thread() {
    let mut mask: CpuSet = [0; 16];
    for &cpu in allowed_cpus() {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: as in `pin_thread`.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
