//! What the benchmark reads from and sets on its host: the CPU count,
//! the process CPU clock, the host's current speed, peak RSS, one
//! allocator tunable, and the flushing of a filesystem.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux's process CPU clock and /proc; it needs 64-bit Linux");

/// Worker threads for campaigns and client connections: the host's CPU
/// count.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
    fn syncfs(fd: i32) -> i32;
}

/// glibc's `mallopt` parameter for the mmap threshold.
const M_MMAP_THRESHOLD: i32 = -3;

/// Fix glibc's mmap threshold at its 128 KiB default. Left adaptive, it
/// rises whenever a large block is freed, after which large blocks come
/// from the heap and fragment it, so peak RSS depends on the order in
/// which threads happened to free memory. Without it, the median
/// per-pass peak RSS of fab-yield runs that differ only in seed ranged
/// from 6.9 to 11.5 MiB; with it, from 5.7 to 6.0 MiB.
///
/// `flexi` leaves the threshold adaptive, so peak RSS and the CPU-time
/// figures are those of this fixed-threshold allocator.
pub fn pin_mmap_threshold() {
    // SAFETY: mallopt only changes an allocator tunable; it is called
    // first thing in `main`, before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

/// Linux's clock ids for the CPU time of every thread of this process,
/// and of the calling thread.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_seconds(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and clock_gettime writes only through it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time consumed so far by all threads of this process, in seconds.
/// Unlike wall time it does not advance while the hypervisor runs other
/// guests on this machine's CPUs.
pub fn cpu_seconds() -> f64 {
    clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// Words in the host-speed probe's table: 4 MiB, twice one core's L2
/// cache on the 2-vCPU guest the benchmark was tuned on, so that the
/// walk runs from the L3 cache the host's other tenants share.
const PROBE_WORDS: usize = 512 * 1024;
/// Steps of one probe walk (about 1 ms).
const PROBE_STEPS: u64 = 150_000;
/// The probe's speed, in steps per CPU second, that counts as 1.0:
/// about its median on that guest while the benchmark was tuned.
const PROBE_NOMINAL_STEPS_PER_S: f64 = 170e6;

/// A random read-modify-write walk of `steps` steps over `table`.
fn probe_walk(table: &mut [u64], steps: u64) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x % table.len() as u64) as usize;
        acc = acc.wrapping_add(table[i]);
        table[i] = acc;
    }
    acc
}

/// The host's current speed relative to a quiet host: a fixed walk's
/// nominal CPU time over its measured CPU time.
///
/// CPU time per unit of work on a shared host drifts from minute to
/// minute: other tenants compete for the shared cache and the memory
/// bus, and the program's engine is more exposed to that than a loop
/// that stays in its own core's caches. This walk is exposed in a
/// similar way, and it is the benchmark's code, not the program's, so
/// scaling the program's CPU time by it takes much of the drift out
/// while every change to the program's own work stays in the figure
/// (README.md gives the measured spreads).
///
/// The table is allocated, walked once untimed (so that whatever ran
/// before, it starts equally warm), walked again under the thread's CPU
/// clock, and freed, so that it is never part of a pass's peak RSS.
pub fn host_speed() -> f64 {
    let mut table = vec![1u64; PROBE_WORDS];
    std::hint::black_box(probe_walk(&mut table, PROBE_STEPS));
    let start = clock_seconds(CLOCK_THREAD_CPUTIME_ID);
    std::hint::black_box(probe_walk(std::hint::black_box(&mut table), PROBE_STEPS));
    let spent = clock_seconds(CLOCK_THREAD_CPUTIME_ID) - start;
    PROBE_STEPS as f64 / spent / PROBE_NOMINAL_STEPS_PER_S
}

/// Reset this process's peak resident set (`VmHWM`) to its current size.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("cannot reset VmHWM: {e}"))
}

/// Peak resident set size of this process in MiB, from `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Write everything buffered for the filesystem holding `dir` to disk,
/// so that work a teardown left behind (unlinked files, journal entries)
/// is not paid by the next set-up's first `fsync`.
pub fn flush_filesystem(dir: &std::path::Path) -> Result<(), String> {
    use std::os::fd::AsRawFd;
    let handle = std::fs::File::open(dir).map_err(|e| format!("cannot open {dir:?}: {e}"))?;
    // SAFETY: the descriptor stays open for the duration of the call.
    if unsafe { syncfs(handle.as_raw_fd()) } != 0 {
        return Err(format!(
            "syncfs({dir:?}): {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}
