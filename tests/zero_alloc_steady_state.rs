//! Counting-allocator audit: the steady-state simulation loop performs
//! **zero** heap allocations per miss.
//!
//! The SoA cache layout and its presence index, the MSHR and queues
//! sized at construction and the reusable scratch buffers exist so
//! that once warm-up has sized every buffer (trace chunks, prefetcher
//! scratch, first-touch page-table entries), the measurement phase
//! never touches the allocator. This test proves
//! it through the product's own entry point, with a
//! `#[global_allocator]` wrapper counting over whole
//! `simulate_with_engine` calls: set-up, warm-up and report assembly
//! allocate the same number of times however long the measurement
//! runs, so a run that measures two passes of the trace must allocate
//! exactly as often as a run that measures one. Any allocation in the
//! measured loop shows as a difference.
//!
//! The warm-up spans two full passes of the (cyclic) trace, so the
//! measurement phase replays addresses whose pages are all allocated
//! and whose learning structures have reached steady state. The loop
//! is replayed from memory and, for one row, from a `.btrc` file, whose
//! cursor reads every chunk's records from the file into the block it
//! sized on its first chunk, across each rewind of the measured passes.
//!
//! Only the audited thread's allocations count: the simulator runs on
//! the calling thread, while the test harness's own thread allocates
//! whenever it likes (it was seen adding four to a one-pass count as
//! the test started). This file still holds a single `#[test]`, so the
//! one counter is never reset under a running audit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use berti::sim::{simulate_with_engine, Engine, PrefetcherChoice, SimOptions};
use berti::traces::ingest::{open_streaming, write_btrc};
use berti::traces::Trace;
use berti::types::{Instr, Ip, SystemConfig, VAddr};

#[path = "../crates/traces/tests/common/mod.rs"]
mod common;
use common::TempPath;

/// Counts allocations (and growth reallocations) on an armed thread.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread running an audited simulation.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Iterations of the audited loop, and how many lines apart its
/// consecutive accesses fall: eight lines, so one pass touches 256
/// pages a stream — more than MLOP's 128 zones, so zones are replaced
/// in the measured passes too.
const ITERATIONS: u64 = 500;
const SPREAD: u64 = 8;
/// How much the L2 and LLC are shrunk so that the short loop still
/// spills to DRAM.
const SHRINK: usize = 32;

/// A dense two-stream loop: strided loads from two IPs and a strided
/// store stream, so the measurement phase continuously misses, fills,
/// prefetches, and spills to DRAM.
fn dense_loop() -> Vec<Instr> {
    let mut instrs = Vec::with_capacity(4 * ITERATIONS as usize);
    for i in 0..ITERATIONS {
        instrs.push(Instr::load(
            Ip::new(0x400100),
            VAddr::new(0x10_0000 + 64 * SPREAD * i),
        ));
        instrs.push(Instr::alu(Ip::new(0x400104)));
        instrs.push(Instr::load(
            Ip::new(0x400200),
            VAddr::new(0x80_0000 + 128 * SPREAD * i),
        ));
        instrs.push(Instr::store(
            Ip::new(0x400204),
            VAddr::new(0x200_0000 + 64 * SPREAD * i),
        ));
    }
    instrs
}

/// Allocations of one whole run of `pf` over a fresh `trace` of the
/// loop that warms up for two passes of it and measures
/// `measured_passes` more.
fn run_allocs(
    trace: &dyn Fn() -> Trace,
    pf: &PrefetcherChoice,
    engine: Engine,
    measured_passes: u64,
) -> u64 {
    let mut trace = trace();
    let mut cfg = SystemConfig::default();
    cfg.l2.sets /= SHRINK;
    cfg.llc.sets /= SHRINK;
    let pass = trace.len() as u64;
    let opts = SimOptions {
        warmup_instructions: 2 * pass,
        sim_instructions: measured_passes * pass,
        ..SimOptions::default()
    };
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.with(|a| a.set(true));
    let report = simulate_with_engine(&cfg, pf.clone(), None, &mut trace, &opts, engine);
    ARMED.with(|a| a.set(false));
    // Sanity: the measured window did real work (misses and DRAM
    // traffic), so equal counts mean alloc-free work, not no work.
    assert!(
        report.instructions >= opts.sim_instructions,
        "ran the measured phase"
    );
    assert!(report.dram.reads > 0, "the loop must spill to DRAM");
    // The measured passes fill more lines than the L1D holds, so every
    // level evicts there and its presence index drops and re-adds
    // pages, not only sets bits in live ones.
    let l1d_lines = (cfg.l1d.sets * cfg.l1d.ways) as u64;
    assert!(
        report.l1d.demand_misses() + report.l1d.pf_fills > l1d_lines,
        "the loop must churn the L1D"
    );
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn steady_state_simulation_never_allocates() {
    // Allocations depend neither on the loop's length nor on the cache
    // sizes, hence the short loop over shrunk caches. Berti runs both
    // local contexts (per-IP and per-page) under both engines;
    // ip-stride, IPCP and MLOP are the other L1D prefetchers the
    // benchmark's campaign grids run, and their allocations do not
    // depend on the engine. The file-backed row replays the loop the
    // way `--trace-dir` cells replay theirs.
    let file = TempPath::new("dense-loop.btrc");
    write_btrc(&file, &dense_loop()).expect("writes");
    let in_memory = || Trace::new("dense-loop", dense_loop());
    let from_file = || {
        let stream = open_streaming(&file).expect("opens");
        Trace::from_stream("dense-loop", stream).expect("primes")
    };
    let both = [Engine::Naive, Engine::SkipAhead];
    let audits: [(&dyn Fn() -> Trace, _, &[Engine]); 6] = [
        (&in_memory, PrefetcherChoice::Berti, &both),
        (&in_memory, PrefetcherChoice::BertiPage, &both),
        (&in_memory, PrefetcherChoice::IpStride, &both[1..]),
        (&in_memory, PrefetcherChoice::Ipcp, &both[1..]),
        (&in_memory, PrefetcherChoice::Mlop, &both[1..]),
        (&from_file, PrefetcherChoice::Berti, &both[1..]),
    ];
    for (trace, pf, engines) in audits {
        for &engine in engines {
            let one = run_allocs(trace, &pf, engine, 1);
            let two = run_allocs(trace, &pf, engine, 2);
            assert!(one > 0, "set-up and report assembly do allocate");
            assert_eq!(
                one, two,
                "{pf:?}/{engine:?}: measuring a second pass changed the allocation \
                 count ({one} -> {two}); the hot loop must not touch the allocator"
            );
        }
    }
}
