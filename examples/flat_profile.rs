//! Flat profile of one simulation cell, for hosts without `perf`: runs
//! the cell `RUNS` times under a `SIGPROF` interval timer and prints how
//! many samples landed on each instruction address of this binary.
//!
//! ```bash
//! cargo build --release --example flat_profile
//! target/release/examples/flat_profile berti a.btrc,b.btrc,c.btrc,d.btrc 10 > prof.txt
//! # resolve the hottest 40 addresses (inlined frames included):
//! grep '^ *[0-9]' prof.txt | head -40 | awk '{print $2}' \
//!     | addr2line -f -i -C -e target/release/examples/flat_profile
//! ```
//!
//! Arguments: `PREFETCHER WORKLOADS [RUNS [WARMUP INSTRS]]`. `WORKLOADS`
//! is a comma-separated list of builtin names or trace files; more than
//! one is a multi-core mix sharing the LLC and DRAM. `RUNS` defaults to
//! 10, and the phase lengths to 5 000 + 20 000 instructions per core.
//!
//! Output: the load base of the executable, the sample count, then one
//! `count address` line per sampled address, highest count first, with
//! the address relative to the load base (the form `addr2line` takes
//! for a position-independent executable). Samples outside the
//! executable (libc, the kernel's vDSO) are counted on one `outside`
//! line. The timer counts process CPU time at the kernel tick, so a
//! run of a few seconds gives about a thousand samples.
//!
//! Only built for x86-64 Linux: the handler reads the interrupted
//! instruction pointer out of that platform's `ucontext_t`, and the
//! two libc calls are declared by hand (no `libc` crate is available).

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod sampler {
    use std::os::raw::{c_int, c_long, c_void};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    /// Most samples one process keeps (8 MiB of zeroed statics).
    const CAPACITY: usize = 1 << 20;

    static SAMPLES: [AtomicU64; CAPACITY] = [const { AtomicU64::new(0) }; CAPACITY];
    static TAKEN: AtomicUsize = AtomicUsize::new(0);

    const SIGPROF: c_int = 27;
    const ITIMER_PROF: c_int = 2;
    const SA_SIGINFO: c_int = 4;
    const SA_RESTART: c_int = 0x1000_0000;
    /// Byte offset of `uc_mcontext.gregs[REG_RIP]` in x86-64 Linux's
    /// `ucontext_t`: flags and link (16 bytes), `stack_t` (24), then
    /// general register 16 of 8 bytes each.
    const RIP_OFFSET: usize = 168;

    /// glibc's x86-64 `struct sigaction`.
    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: c_int,
        restorer: usize,
    }

    #[repr(C)]
    struct TimeVal {
        sec: c_long,
        usec: c_long,
    }

    #[repr(C)]
    struct ITimerVal {
        interval: TimeVal,
        value: TimeVal,
    }

    extern "C" {
        fn sigaction(sig: c_int, act: *const SigAction, old: *mut SigAction) -> c_int;
        fn setitimer(which: c_int, new: *const ITimerVal, old: *mut ITimerVal) -> c_int;
    }

    /// Records the interrupted instruction pointer. Async-signal-safe:
    /// two atomic operations on statics.
    extern "C" fn on_sigprof(_sig: c_int, _info: *mut c_void, context: *mut c_void) {
        // SAFETY: the kernel passes a valid `ucontext_t` as the third
        // argument of an `SA_SIGINFO` handler, and `RIP_OFFSET` is in
        // bounds of it on this target.
        let rip = unsafe { context.cast::<u8>().add(RIP_OFFSET).cast::<u64>().read() };
        let i = TAKEN.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = SAMPLES.get(i) {
            slot.store(rip, Ordering::Relaxed);
        }
    }

    /// Arms (`usec > 0`) or disarms (`usec == 0`) the profiling timer.
    fn set_timer(usec: c_long) {
        let timer = ITimerVal {
            interval: TimeVal { sec: 0, usec },
            value: TimeVal { sec: 0, usec },
        };
        // SAFETY: `timer` is a valid `itimerval`; the old value is not
        // asked for.
        let rc = unsafe { setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) };
        assert_eq!(
            rc,
            0,
            "setitimer failed: {}",
            std::io::Error::last_os_error()
        );
    }

    /// Runs `work` with the sampler armed and returns the sampled
    /// instruction pointers.
    pub fn profile(work: impl FnOnce()) -> Vec<u64> {
        let action = SigAction {
            handler: on_sigprof as *const () as usize,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        // SAFETY: `action` is a valid `struct sigaction` whose handler
        // has the `SA_SIGINFO` signature.
        let rc = unsafe { sigaction(SIGPROF, &action, std::ptr::null_mut()) };
        assert_eq!(
            rc,
            0,
            "sigaction failed: {}",
            std::io::Error::last_os_error()
        );
        TAKEN.store(0, Ordering::Relaxed);
        // Asks for 1 kHz; the kernel delivers at its tick rate.
        set_timer(1000);
        work();
        set_timer(0);
        let taken = TAKEN.load(Ordering::Relaxed).min(CAPACITY);
        SAMPLES[..taken]
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect()
    }

    /// The address range this executable is mapped at, from
    /// `/proc/self/maps`: the lowest start and highest end of the
    /// mappings of the executable's file.
    pub fn executable_range() -> std::io::Result<(u64, u64)> {
        let exe = std::env::current_exe()?;
        let exe = exe.to_string_lossy();
        let maps = std::fs::read_to_string("/proc/self/maps")?;
        let mut range: Option<(u64, u64)> = None;
        for line in maps.lines().filter(|l| l.ends_with(exe.as_ref())) {
            let Some((start, end)) = line
                .split_whitespace()
                .next()
                .and_then(|r| r.split_once('-'))
            else {
                continue;
            };
            let (Ok(start), Ok(end)) =
                (u64::from_str_radix(start, 16), u64::from_str_radix(end, 16))
            else {
                continue;
            };
            range = Some(match range {
                Some((lo, hi)) => (lo.min(start), hi.max(end)),
                None => (start, end),
            });
        }
        range.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, "executable not in maps")
        })
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn main() {
    use std::collections::HashMap;
    use std::io::Write;
    use std::time::Instant;

    use berti::sim::{simulate_multicore, PrefetcherChoice, SimOptions};
    use berti::traces::{ingest::workload_from_file, workload_by_name, WorkloadDef};
    use berti::types::SystemConfig;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: flat_profile PREFETCHER WORKLOADS [RUNS [WARMUP INSTRS]]";
    let [prefetcher, workloads, rest @ ..] = args.as_slice() else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let number = |i: usize, default: u64| match rest.get(i) {
        Some(s) => s.parse::<u64>().unwrap_or_else(|_| {
            eprintln!("{usage}: `{s}` is not a number");
            std::process::exit(2)
        }),
        None => default,
    };
    let runs = number(0, 10);
    let opts = SimOptions {
        warmup_instructions: number(1, 5_000),
        sim_instructions: number(2, 20_000),
        ..SimOptions::default()
    };
    let Some(l1) = PrefetcherChoice::parse(prefetcher) else {
        eprintln!("unknown prefetcher `{prefetcher}`");
        std::process::exit(2);
    };
    let mix: Vec<WorkloadDef> = workloads
        .split(',')
        .map(|w| {
            workload_by_name(w).unwrap_or_else(|| {
                let path = std::path::Path::new(w);
                let name = path.file_stem().map_or(w.into(), |s| s.to_string_lossy());
                workload_from_file(name.into_owned(), path)
            })
        })
        .collect();
    let cfg = SystemConfig::default();

    let started = Instant::now();
    let samples = sampler::profile(|| {
        for _ in 0..runs {
            std::hint::black_box(simulate_multicore(&cfg, l1.clone(), None, &mix, &opts));
        }
    });
    let elapsed = started.elapsed();
    let (base, end) = sampler::executable_range().expect("read /proc/self/maps");

    let mut counts: HashMap<u64, u64> = HashMap::new();
    let mut outside = 0u64;
    for &ip in &samples {
        if (base..end).contains(&ip) {
            *counts.entry(ip - base).or_default() += 1;
        } else {
            outside += 1;
        }
    }
    let mut ranked: Vec<(u64, u64)> = counts.into_iter().collect();
    ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    // A closed pipe (`| head`) ends the listing, not the process.
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    let _ = (|| -> std::io::Result<()> {
        writeln!(
            out,
            "# {prefetcher} over {workloads}: {runs} runs in {elapsed:.2?}"
        )?;
        writeln!(out, "load_base {base:#x}")?;
        writeln!(out, "samples {}", samples.len())?;
        writeln!(out, "outside {outside}")?;
        for (addr, n) in ranked {
            writeln!(out, "{n:8} {addr:#x}")?;
        }
        out.flush()
    })();
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
fn main() {
    eprintln!("flat_profile samples x86-64 Linux only");
}
