//! A sampling profile of the untraced ad-hoc request loop of
//! `examples/session_split.rs` — `QueryService::execute` over the
//! benchmark's `adhoc_optimize` requests, each new text at a first binding
//! and a second — with no profiler installed. The optimizer's symbols
//! carry the samples of the first visits' run-time optimization and of the
//! second bindings' dynamic-plan compile.
//!
//! `setitimer(ITIMER_PROF)` has the kernel send `SIGPROF` every millisecond
//! of CPU time the process uses (or at its tick, if that is longer); the
//! handler, installed with `sigaction`,
//! records the interrupted instruction pointer and — walking the chain of
//! saved frame pointers up the main thread's stack — the return addresses
//! above it, into a preallocated table (a signal handler may not
//! allocate). After the loop, addresses are resolved to symbols with
//! `nm -C` on the running executable (to library names through
//! `/proc/self/maps`; raw addresses if `nm` is missing), and the program
//! prints:
//!
//! * the symbols that were executing, by share of samples (self);
//! * the symbols on the stack, by share of samples (inclusive) — only when
//!   most frame-pointer chains reach the loop's caller, which takes a build
//!   with frame pointers:
//!   `RUSTFLAGS="-C force-frame-pointers=yes" cargo run --release --example sample_profile`
//!   (code of the standard library and of libc keeps none, so a sample
//!   inside them is credited to the nearest caller that does).
//!
//! `taskset -c 1 cargo run --release --example sample_profile` samples 200
//! passes; `-- --quick` 5 (CI runs it so that it keeps building, and
//! asserts nothing about the profile). Linux on x86_64 only: elsewhere it
//! says so and exits.

#[path = "session_split.rs"]
#[allow(dead_code)]
mod session_split;

fn main() {
    let shape = session_split::Shape::adhoc_optimize(std::env::args().any(|a| a == "--quick"));
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    sampler::profile(&shape);
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    println!("sample_profile samples on Linux x86_64 only ({} passes not run)", shape.passes);
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    use std::collections::HashMap;
    use std::ffi::c_void;
    use std::process::Command;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Samples kept at most (16 s of CPU time), and return addresses kept
    /// per sample.
    const MAX_SAMPLES: usize = 1 << 14;
    const DEPTH: usize = 24;
    /// One sample: the instruction pointer, then return addresses, then 0.
    const SLOT: usize = DEPTH + 1;

    #[allow(clippy::declare_interior_mutable_const)]
    const EMPTY: AtomicUsize = AtomicUsize::new(0);
    /// The samples, written only by the handler, read after the timer is
    /// stopped.
    static SAMPLES: [AtomicUsize; MAX_SAMPLES * SLOT] = [EMPTY; MAX_SAMPLES * SLOT];
    /// Samples taken (may exceed `MAX_SAMPLES`; the excess is dropped).
    static TAKEN: AtomicUsize = AtomicUsize::new(0);
    /// The top of the main thread's stack the frame walk may read: an
    /// address in `profile`'s own frame.
    static STACK_TOP: AtomicUsize = AtomicUsize::new(0);

    // The kernel interface, x86_64 glibc layouts.
    const SIGPROF: i32 = 27;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    const ITIMER_PROF: i32 = 2;
    /// Byte offsets in `ucontext_t` of the saved RBP, RSP and RIP:
    /// `uc_mcontext.gregs` starts at 40, and they are gregs 10, 15, 16.
    const UC_RBP: usize = 40 + 10 * 8;
    const UC_RSP: usize = 40 + 15 * 8;
    const UC_RIP: usize = 40 + 16 * 8;
    /// Main thread's stack size limit assumed by the walk.
    const STACK_BYTES: usize = 8 << 20;

    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct TimeVal {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct ITimerVal {
        interval: TimeVal,
        value: TimeVal,
    }

    extern "C" {
        fn sigaction(signum: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
    }

    /// The `SIGPROF` handler: async-signal-safe, it only reads the
    /// interrupted context and the main thread's stack and stores words.
    extern "C" fn on_sigprof(_signal: i32, _info: *mut c_void, context: *mut c_void) {
        let at = TAKEN.fetch_add(1, Ordering::Relaxed);
        if at >= MAX_SAMPLES {
            return;
        }
        // SAFETY: the kernel passes a valid `ucontext_t` to an SA_SIGINFO
        // handler; the offsets are its x86_64 glibc layout.
        let word = |offset: usize| unsafe { *(context.cast::<u8>().add(offset).cast::<usize>()) };
        let (rip, rsp, mut fp) = (word(UC_RIP), word(UC_RSP), word(UC_RBP));
        let slot = &SAMPLES[at * SLOT..(at + 1) * SLOT];
        slot[0].store(rip, Ordering::Relaxed);
        // Walk only the main thread's stack, below `profile`'s frame: every
        // word read lies between the interrupted stack pointer and there.
        let top = STACK_TOP.load(Ordering::Relaxed);
        let on_main = rsp < top && top - rsp < STACK_BYTES;
        let mut depth = 1;
        while on_main && depth < SLOT && fp >= rsp && fp % 8 == 0 && fp + 16 <= top {
            // SAFETY: `fp .. fp + 16` is inside the live part of the main
            // thread's stack (checked above), which is mapped.
            let (next, ret) = unsafe { (*(fp as *const usize), *((fp + 8) as *const usize)) };
            slot[depth].store(ret, Ordering::Relaxed);
            depth += 1;
            if next <= fp {
                break;
            }
            fp = next;
        }
        if depth < SLOT {
            slot[depth].store(0, Ordering::Relaxed);
        }
    }

    fn set_timer(usec: i64) {
        let every = TimeVal { sec: 0, usec };
        let timer = ITimerVal {
            interval: every,
            value: every,
        };
        // SAFETY: a valid `itimerval`; the old value is not asked for.
        let done = unsafe { setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) };
        assert_eq!(done, 0, "setitimer failed");
    }

    /// Runs the shape's untraced loop under the sampler and prints the
    /// profile. Never inlined: its frame bounds the walk, and a walk that
    /// reaches it proves the frame-pointer chain.
    #[inline(never)]
    pub fn profile(shape: &super::session_split::Shape) {
        let marker = 0u8;
        STACK_TOP.store(std::ptr::addr_of!(marker) as usize, Ordering::Relaxed);
        let action = SigAction {
            handler: on_sigprof as *const () as usize,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        // SAFETY: a valid `sigaction` whose handler has the SA_SIGINFO
        // signature.
        let installed = unsafe { sigaction(SIGPROF, &action, std::ptr::null_mut()) };
        assert_eq!(installed, 0, "sigaction failed");

        set_timer(1_000);
        super::session_split::untraced_loop(shape);
        set_timer(0);
        std::hint::black_box(&marker);
        println!("{} passes of {}'s untraced loop", shape.passes, shape.name);

        let taken = TAKEN.load(Ordering::Relaxed).min(MAX_SAMPLES);
        let samples: Vec<Vec<usize>> = (0..taken)
            .map(|at| {
                SAMPLES[at * SLOT..(at + 1) * SLOT]
                    .iter()
                    .map(|a| a.load(Ordering::Relaxed))
                    .take_while(|&a| a != 0)
                    .collect()
            })
            .collect();
        report(&samples, &Symbols::of_this_executable());
    }

    /// Prints the top symbols by self and, if the walks reached the loop's
    /// caller, inclusive share.
    fn report(samples: &[Vec<usize>], symbols: &Symbols) {
        const TOP: usize = 25;
        let n = samples.len().max(1) as f64;
        println!(
            "\n{} samples (SIGPROF every 1 ms of CPU time, or every tick; {})",
            samples.len(),
            symbols.source
        );
        let mut own: HashMap<String, usize> = HashMap::new();
        let mut on_stack: HashMap<String, usize> = HashMap::new();
        let mut reached_caller = 0;
        for sample in samples {
            *own.entry(symbols.name(sample[0])).or_default() += 1;
            // A return address is one past its call: resolve the call.
            let mut names: Vec<String> = std::iter::once(sample[0])
                .chain(sample[1..].iter().map(|a| a - 1))
                .map(|a| symbols.name(a))
                .collect();
            names.sort();
            names.dedup();
            reached_caller += usize::from(names.iter().any(|s| s.contains("sampler::profile")));
            for name in names {
                *on_stack.entry(name).or_default() += 1;
            }
        }
        let print = |title: &str, counts: HashMap<String, usize>| {
            let mut rows: Vec<(String, usize)> = counts.into_iter().collect();
            rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            println!("\n{title}");
            for (name, count) in rows.into_iter().take(TOP) {
                println!("  {:>5.1} %  {name}", 100.0 * count as f64 / n);
            }
        };
        print("self: executing", own);
        if reached_caller * 2 >= samples.len() && !samples.is_empty() {
            print("inclusive: on the stack", on_stack);
        } else {
            println!(
                "\ninclusive shares need frame pointers ({reached_caller} of {} walks reached the \
                 loop): RUSTFLAGS=\"-C force-frame-pointers=yes\"",
                samples.len()
            );
        }
    }

    /// The executable's function symbols, sorted by runtime address, and
    /// the code mappings of the libraries it loaded.
    struct Symbols {
        starts: Vec<(usize, String)>,
        /// `(start, end, file)` of every library code mapping.
        libraries: Vec<(usize, usize, String)>,
        source: &'static str,
    }

    impl Symbols {
        fn of_this_executable() -> Symbols {
            let exe = std::env::current_exe().expect("the running executable");
            let exe_name = exe.to_string_lossy().into_owned();
            let libraries = code_mappings()
                .into_iter()
                .filter(|(.., file)| *file != exe_name)
                .collect();
            let listed = Command::new("nm")
                .args(["-C", "--defined-only"])
                .arg(&exe)
                .output()
                .ok()
                .filter(|out| out.status.success());
            let Some(listed) = listed else {
                return Symbols {
                    starts: Vec::new(),
                    libraries,
                    source: "nm not found: raw addresses",
                };
            };
            let mut starts: Vec<(usize, String)> = String::from_utf8_lossy(&listed.stdout)
                .lines()
                .filter_map(|line| {
                    let mut fields = line.splitn(3, ' ');
                    let address = usize::from_str_radix(fields.next()?, 16).ok()?;
                    let kind = fields.next()?;
                    let name = fields.next()?;
                    matches!(kind, "t" | "T" | "w" | "W").then(|| (address, name.to_string()))
                })
                .collect();
            // Where the executable was loaded: `profile`'s address now
            // against the one `nm` lists.
            let listed_at = starts
                .iter()
                .find(|(_, name)| name.ends_with("sampler::profile"))
                .map_or(0, |(address, _)| *address);
            let base = (profile as *const () as usize).wrapping_sub(listed_at);
            for (address, _) in &mut starts {
                *address = address.wrapping_add(base);
            }
            starts.sort();
            Symbols {
                starts,
                libraries,
                source: "symbols from nm -C",
            }
        }

        /// The library `address` is in, or the executable's symbol whose
        /// code holds it (the one starting at or below it), or the address.
        fn name(&self, address: usize) -> String {
            let library = self
                .libraries
                .iter()
                .find(|(lo, hi, _)| (*lo..*hi).contains(&address));
            if let Some((.., file)) = library {
                let file = file.rsplit('/').next().unwrap_or(file);
                return format!("[{file}]");
            }
            let at = self.starts.partition_point(|(start, _)| *start <= address);
            match at.checked_sub(1).map(|i| &self.starts[i]) {
                Some((_, name)) => name.clone(),
                None => format!("{address:#x}"),
            }
        }
    }

    /// `(start, end, file)` of every mapping of the process that holds
    /// code.
    fn code_mappings() -> Vec<(usize, usize, String)> {
        let maps = std::fs::read_to_string("/proc/self/maps").unwrap_or_default();
        maps.lines()
            .filter_map(|line| {
                let fields: Vec<&str> = line.split_whitespace().collect();
                let (lo, hi) = fields.first()?.split_once('-')?;
                let file = fields.get(5)?;
                fields.get(1)?.contains('x').then(|| {
                    Some((
                        usize::from_str_radix(lo, 16).ok()?,
                        usize::from_str_radix(hi, 16).ok()?,
                        file.to_string(),
                    ))
                })?
            })
            .collect()
    }
}
