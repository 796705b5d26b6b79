//! Which blocks move the top of the heap between `exec_scale` requests.
//!
//! glibc's `malloc` takes the main arena from the program break. When a
//! `free` leaves more than the trim threshold free at the top, glibc gives
//! it back to the kernel (`sbrk` down), and the next request that grows
//! the heap again faults every page of it back in: that is the allocator
//! cliff of ROADMAP item 11, a few thousand minor faults a benchmark
//! segment on some seeds and a handful on others.
//!
//! This program runs the benchmark's `exec_scale` statements (the Grace
//! join of `fact ⋈ dim`, the external sort of `fact`, the join filtered
//! on both sides; selectivities 0.5–0.9 in eight strata, in the
//! benchmark's shuffled order) through `QueryService` under a global allocator that
//! reads the program break after every allocation and every free. It
//! prints, per request, the minor faults and the bytes the break rose and
//! fell; then, over all requests, the allocations that raised the break
//! and the frees that lowered it, by size and call site (the innermost
//! frames of this workspace's crates).
//!
//! `cargo run --release --example heap_top` (`-- --seed S`, default 7, the
//! request list `dqep-benchmark segment --workload exec_scale --seed S`
//! replays; `-- --quick`: its first 24 requests). It asserts nothing;
//! Linux only.

#[cfg(target_os = "linux")]
mod watch {
    use parking_lot::Mutex;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::backtrace::Backtrace;
    use std::cell::Cell;
    use std::ffi::c_void;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    extern "C" {
        fn sbrk(increment: isize) -> *mut c_void;
        fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    }

    /// Whether break moves are recorded.
    pub static ON: AtomicBool = AtomicBool::new(false);
    /// The break as last seen.
    static BREAK: AtomicUsize = AtomicUsize::new(0);

    /// A move of the break: by how much (up > 0), the size of the block
    /// whose allocation or free moved it, and where that happened.
    pub struct Move {
        pub by: isize,
        pub block: usize,
        pub site: String,
    }

    pub static MOVES: Mutex<Vec<Move>> = Mutex::new(Vec::new());

    thread_local! {
        /// Set while a move is recorded: its own allocations are not.
        static INSIDE: Cell<bool> = const { Cell::new(false) };
    }

    pub struct Watch;

    // SAFETY: every call is forwarded unchanged to `System`, which upholds
    // the `GlobalAlloc` contract; the bookkeeping runs after it.
    unsafe impl GlobalAlloc for Watch {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            // SAFETY: the caller's obligations are passed on as received.
            let p = unsafe { System.alloc(layout) };
            after(layout.size());
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` through `alloc` or `realloc`.
            unsafe { System.dealloc(ptr, layout) };
            after(layout.size());
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // SAFETY: `ptr` came from `System`; obligations are passed on.
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            after(new_size);
            p
        }
    }

    pub fn program_break() -> usize {
        // SAFETY: `sbrk(0)` only reads the current break.
        unsafe { sbrk(0) as usize }
    }

    /// Minor faults of the process so far (`ru_minflt`).
    pub fn minor_faults() -> i64 {
        let mut usage = [0i64; 18];
        // SAFETY: `struct rusage` is two `timeval`s and fourteen longs on
        // x86_64 and aarch64 Linux: 18 words, `ru_minflt` the 9th.
        let done = unsafe { getrusage(0, &mut usage) };
        assert_eq!(done, 0, "getrusage failed");
        usage[8]
    }

    /// Records a move of the break since the last look, if there was one.
    fn after(block: usize) {
        if !ON.load(Ordering::Relaxed) || INSIDE.with(Cell::get) {
            return;
        }
        let now = program_break();
        let before = BREAK.swap(now, Ordering::Relaxed);
        if now == before || before == 0 {
            return;
        }
        INSIDE.with(|inside| inside.set(true));
        let site = call_site(&Backtrace::force_capture().to_string());
        MOVES.lock().push(Move { by: now as isize - before as isize, block, site });
        BREAK.store(program_break(), Ordering::Relaxed);
        INSIDE.with(|inside| inside.set(false));
    }

    /// The innermost three frames of this workspace's crates.
    fn call_site(trace: &str) -> String {
        let frames: Vec<&str> = trace
            .lines()
            .map(str::trim)
            .filter(|line| line.contains("dqep_") && !line.starts_with("at "))
            .filter(|line| !line.contains("heap_top::watch"))
            .map(|line| line.split_once(": ").map_or(line, |(_, name)| name))
            .take(3)
            .collect();
        if frames.is_empty() {
            "(outside the workspace)".to_string()
        } else {
            frames.join(" < ")
        }
    }

    pub fn start() {
        BREAK.store(program_break(), Ordering::Relaxed);
        ON.store(true, Ordering::Relaxed);
    }
}

#[cfg(target_os = "linux")]
#[global_allocator]
static GLOBAL: watch::Watch = watch::Watch;

#[cfg(target_os = "linux")]
fn main() {
    use std::collections::BTreeMap;

    use dqep::catalog::{CatalogBuilder, SystemConfig};
    use dqep::service::{QueryService, Request, ServiceConfig};

    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|at| args.get(at + 1)?.parse().ok())
        .unwrap_or(7u64);
    let (fact_rows, dim_rows) = (12_000u64, 6_000u64);
    // The benchmark's machine-speed reference allocates its buffers before
    // anything else and keeps them: where the heap starts moves with them.
    let reference: (Vec<u64>, Vec<u64>, Vec<u32>) =
        ((0..32 * 1024).collect(), (0..512 * 1024).collect(), vec![0; 2048]);
    std::hint::black_box(&reference);
    let catalog = CatalogBuilder::new(SystemConfig::paper_1994())
        .relation("fact", fact_rows, 256, |r| {
            r.attr("a", fact_rows as f64).attr("j", dim_rows as f64).btree("a", false)
        })
        .relation("dim", dim_rows, 256, |r| {
            r.attr("a", dim_rows as f64).attr("j", dim_rows as f64).btree("j", false)
        })
        .build()
        .expect("the catalog is well-formed");
    let service = QueryService::new(
        catalog,
        ServiceConfig { workers: 1, data_seed: seed, ..ServiceConfig::default() },
    );

    // The benchmark's list: 24 classes — three statements at eight
    // selectivities, the dim side's crossed with the fact side's — five
    // times over in a SplitMix64 shuffle of the seed, its first fifth
    // replayed as warm-up.
    const STRATA: usize = 8;
    let share = |stratum: usize| 0.5 + (stratum as f64 + 0.5) / STRATA as f64 * 0.4;
    let request = |sql: &str, binds: Vec<(String, i64)>| Request { sql: sql.into(), binds, ..Request::default() };
    let mut classes = Vec::new();
    for t in 0..STRATA {
        let x = ("x".to_string(), (share(t) * fact_rows as f64).round() as i64);
        let y = ("y".to_string(), (share(STRATA - 1 - t) * dim_rows as f64).round() as i64);
        classes.push(request("SELECT * FROM fact, dim WHERE fact.j = dim.j AND fact.a < :x", vec![x.clone()]));
        classes.push(request("SELECT * FROM fact WHERE fact.a < :x ORDER BY fact.j", vec![x.clone()]));
        classes.push(request(
            "SELECT * FROM fact, dim WHERE fact.j = dim.j AND fact.a < :x AND dim.a < :y",
            vec![x, y],
        ));
    }
    let mut list: Vec<usize> = (0..classes.len() * 5).map(|i| i % classes.len()).collect();
    let mut state = seed ^ 0xD1CE_5EED;
    for i in (1..list.len()).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        list.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
    }
    for &class in &list[..list.len() / 5] {
        service.execute(classes[class].clone()).expect("fault-free request");
    }
    let order = if quick { &list[..classes.len()] } else { &list[..] };

    println!("request  class  minor faults  break +KiB  break -KiB");
    watch::start();
    let mut faults_total = 0;
    for (at, &class) in order.iter().enumerate() {
        let moves_before = watch::MOVES.lock().len();
        let faults = watch::minor_faults();
        service.execute(classes[class].clone()).expect("fault-free request");
        let faults = watch::minor_faults() - faults;
        faults_total += faults;
        let moves = watch::MOVES.lock();
        let (up, down) = moves[moves_before..].iter().fold((0, 0), |(up, down), m| {
            if m.by > 0 {
                (up + m.by, down)
            } else {
                (up, down - m.by)
            }
        });
        println!("{at:>7}  {class:>5}  {faults:>12}  {:>10}  {:>10}", up / 1024, down / 1024);
    }
    watch::ON.store(false, std::sync::atomic::Ordering::Relaxed);
    println!("{faults_total} minor faults over {} requests", order.len());

    let moves = std::mem::take(&mut *watch::MOVES.lock());
    for (title, up) in [("raised the break (allocations)", true), ("lowered the break (frees)", false)] {
        let mut sites: BTreeMap<(String, usize), (usize, isize)> = BTreeMap::new();
        for m in moves.iter().filter(|m| (m.by > 0) == up) {
            let entry = sites.entry((m.site.clone(), m.block)).or_default();
            *entry = (entry.0 + 1, entry.1 + m.by.abs());
        }
        let mut sites: Vec<_> = sites.into_iter().collect();
        sites.sort_by_key(|(_, (_, bytes))| -bytes);
        println!("\n{title}: times, KiB moved, block bytes, call site");
        for ((site, block), (times, bytes)) in sites.into_iter().take(12) {
            println!("  {times:>5}  {:>7}  {block:>8}  {site}", bytes / 1024);
        }
    }
}

#[cfg(not(target_os = "linux"))]
fn main() {
    println!("heap_top reads the program break on Linux only");
}
