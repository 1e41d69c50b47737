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
//! and whose learning structures have reached steady state.
//!
//! This file holds a single `#[test]` on purpose: the counter is
//! process-global, and a sibling test allocating concurrently would
//! produce false positives.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use berti::sim::{simulate_with_engine, Engine, PrefetcherChoice, SimOptions};
use berti::traces::Trace;
use berti::types::{Instr, Ip, SystemConfig, VAddr};

/// Counts allocations (and growth reallocations) while armed.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ARMED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
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
fn dense_loop_trace() -> Trace {
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
    Trace::new("dense-loop", instrs)
}

/// Allocations of one whole run of `pf` over the loop that warms up
/// for two passes of the trace and measures `measured_passes` more.
fn run_allocs(pf: &PrefetcherChoice, engine: Engine, measured_passes: u64) -> u64 {
    let mut trace = dense_loop_trace();
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
    ARMED.store(true, Ordering::SeqCst);
    let report = simulate_with_engine(&cfg, pf.clone(), None, &mut trace, &opts, engine);
    ARMED.store(false, Ordering::SeqCst);
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
    // depend on the engine.
    let both = [Engine::Naive, Engine::SkipAhead];
    let audits = [
        (PrefetcherChoice::Berti, both.as_slice()),
        (PrefetcherChoice::BertiPage, both.as_slice()),
        (PrefetcherChoice::IpStride, &both[1..]),
        (PrefetcherChoice::Ipcp, &both[1..]),
        (PrefetcherChoice::Mlop, &both[1..]),
    ];
    for (pf, engines) in audits {
        for &engine in engines {
            let one = run_allocs(&pf, engine, 1);
            let two = run_allocs(&pf, engine, 2);
            assert!(one > 0, "set-up and report assembly do allocate");
            assert_eq!(
                one, two,
                "{pf:?}/{engine:?}: measuring a second pass changed the allocation \
                 count ({one} -> {two}); the hot loop must not touch the allocator"
            );
        }
    }
}
