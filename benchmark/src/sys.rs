//! What the operating system and the allocator can tell about one
//! segment process: CPU time, peak resident memory, page faults and
//! allocation counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with two relaxed counters in front. It is on in
/// every run, timed or traced, so its cost is part of every number alike.
pub struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` or `realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System`; the caller's obligations are passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls and requested bytes since process start.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of a CPU mask: room for 1 024 CPUs, the kernel's usual limit.
const MASK_WORDS: usize = 16;

/// Restricts the calling thread — and every thread it starts afterwards —
/// to the highest-numbered CPU it is allowed on, and says whether that
/// worked. A closed loop of one client and one worker never has two
/// runnable threads; left to the scheduler, the pair either shares a CPU
/// or ping-pongs between two, and on a virtual machine the second costs a
/// halted-CPU wake-up per hand-off (2.6x the request time in sizing runs,
/// for minutes at a stretch). It also keeps the machine-speed reference
/// on the CPU the requests run on.
pub fn pin_to_one_cpu() -> bool {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is writable and exactly `size_of_val(&mask)` bytes long;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(word) = mask.iter().rposition(|&w| w != 0) else {
        return false;
    };
    let bit = 63 - mask[word].leading_zeros();
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is readable and `size_of_val(&one)` bytes long; the mask
    // is a subset of the allowed set, so the kernel accepts it.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) == 0 }
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has used on all its threads, at nanosecond
/// resolution (the `/proc` counters tick at 10 ms, a quarter of a short
/// segment's noise budget).
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` of the layout the 64-bit
    // Linux ABI defines, and the clock id is a constant the kernel knows.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Minor page faults of this process so far (`/proc/self/stat` field 10).
pub fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}
