//! The driver matrix: every way into the one simulation driver
//! (`run` in `crates/sim/src/runner.rs`) produces **byte-identical**
//! serialized reports for the same simulated system.
//!
//! A row is one workload × one L1D prefetcher; its cells are
//!
//! - engine {naive, skip-ahead} — skip-ahead and partial quiescence are
//!   pure scheduling optimisations (DESIGN.md §6);
//! - cores: 1 through `simulate_with_engine`, 1 through a one-workload
//!   `simulate_multicore_with_engine` (single-core *is* a one-slot mix,
//!   so the two must not be able to tell each other apart), and a
//!   2-core mix, compared engine against engine;
//! - sampling {off, on} — the interval sampler only reads counters. It
//!   follows a lone slot, so the sampled cells are single-core;
//! - replay path {materialized, streamed} — a slice of the workload
//!   replayed from memory and through the mmap'd `.btrc` cursor, which
//!   is pure replay plumbing (DESIGN.md, "Streaming trace replay"). The
//!   slice is shorter than the run, so the cursor wraps several times;
//!   these two cells are compared with each other, not with the cells
//!   over the whole trace.
//!
//! `tests/soa_layout_golden.rs` pins a handful of these cells to
//! checked-in fixtures; this file pins all of them to each other.

use berti::sim::{
    simulate_instrumented, simulate_multicore_with_engine, simulate_with_engine, Engine,
    IntervalSample, PrefetcherChoice, Sampling, SimOptions,
};
use berti::traces::ingest::{open_streaming, write_btrc};
use berti::traces::{Trace, WorkloadDef};
use berti::types::SystemConfig;

const WORKLOADS: [&str; 3] = ["mcf-1554-like", "lbm-like", "pr-kron"];
const ENGINES: [Engine; 2] = [Engine::Naive, Engine::SkipAhead];

fn opts() -> SimOptions {
    SimOptions {
        warmup_instructions: 20_000,
        sim_instructions: 80_000,
        ..SimOptions::default()
    }
}

fn workload(name: &str) -> WorkloadDef {
    berti::traces::memory_intensive_suite()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("workload {name} exists"))
}

/// The single-core cells of one row, all equal to the naive
/// `simulate_with_engine` cell.
fn assert_single_core_cells_agree(name: &str, l1: &PrefetcherChoice) {
    let cfg = SystemConfig::default();
    let opts = opts();
    let w = workload(name);
    let mut reference = None;
    for engine in ENGINES {
        let direct = simulate_with_engine(&cfg, l1.clone(), None, &mut w.trace(), &opts, engine);
        // Sanity: the cell actually simulated something.
        assert!(direct.instructions >= opts.sim_instructions && direct.cycles > 0);
        let direct = serde::json::to_string(&direct);
        let reference = reference.get_or_insert_with(|| direct.clone());
        assert_eq!(
            *reference, direct,
            "{engine:?} diverges from naive on {name} with {l1:?}"
        );

        let lone = std::slice::from_ref(&w);
        let mix = simulate_multicore_with_engine(&cfg, l1.clone(), None, lone, &opts, engine);
        assert_eq!(mix.cores.len(), 1);
        assert_eq!(
            *reference,
            serde::json::to_string(&mix.cores[0]),
            "a one-workload mix is not a single-core run on {name} with {l1:?} under {engine:?}"
        );

        let mut samples: Vec<IntervalSample> = Vec::new();
        let mut sink = |s| samples.push(s);
        let sampled = simulate_instrumented(
            &cfg,
            l1.clone(),
            None,
            &mut w.trace(),
            &opts,
            engine,
            Some(Sampling {
                interval: opts.sim_instructions / 4,
                sink: &mut sink,
            }),
        );
        assert_eq!(
            *reference,
            serde::json::to_string(&sampled),
            "sampling must be observation-only ({name}, {l1:?}, {engine:?})"
        );
        assert!(samples.len() >= 3, "got {} samples", samples.len());
        let last = samples.last().expect("sampled");
        assert!(last.instructions <= sampled.instructions);
        assert!(last.ipc > 0.0);
        // Cumulative columns are monotone.
        for pair in samples.windows(2) {
            assert!(pair[1].instructions > pair[0].instructions);
            assert!(pair[1].cycles >= pair[0].cycles);
        }
    }
}

/// The replay-path cells of one row: the first `SLICE` instructions of
/// `name`, materialized against streamed from a `.btrc` file.
fn assert_replay_paths_agree(name: &str, l1: &PrefetcherChoice) {
    const SLICE: usize = 30_000;
    let cfg = SystemConfig::default();
    let opts = opts();
    assert!(SLICE as u64 * 3 <= opts.warmup_instructions + opts.sim_instructions);
    let instrs = workload(name).instrs().expect("generates");
    let slice = &instrs[..SLICE.min(instrs.len())];

    // One file per row: the tests of this binary run in parallel.
    let dir = std::env::temp_dir().join(format!("berti-driver-matrix-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(format!("{name}-{}.btrc", l1.name()));
    write_btrc(&path, slice).expect("writes");

    for engine in ENGINES {
        let mut materialized = Trace::new(name.to_string(), slice.to_vec());
        let mut streamed =
            Trace::from_stream(name.to_string(), open_streaming(&path).expect("opens"))
                .expect("primes");
        let [mat, str_] = [&mut materialized, &mut streamed]
            .map(|trace| simulate_with_engine(&cfg, l1.clone(), None, trace, &opts, engine));
        assert!(mat.instructions > 0 && mat.cycles > 0);
        assert_eq!(
            serde::json::to_string(&mat),
            serde::json::to_string(&str_),
            "replay paths diverge on {name} with {l1:?} under {engine:?}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// The 2-core cells of one row: `name` sharing the LLC and DRAM with
/// `partner`, naive against skip-ahead.
fn assert_two_core_cells_agree(name: &str, partner: &str, l1: &PrefetcherChoice) {
    let cfg = SystemConfig::default();
    let opts = opts();
    let mix = [workload(name), workload(partner)];
    let [naive, skip] = ENGINES.map(|engine| {
        let r = simulate_multicore_with_engine(&cfg, l1.clone(), None, &mix, &opts, engine);
        // Every core is reported, as of its own budget crossing.
        assert_eq!(r.cores.len(), mix.len());
        for c in &r.cores {
            assert!(c.instructions >= opts.sim_instructions);
        }
        r
    });
    for (n, s) in naive.cores.iter().zip(&skip.cores) {
        assert_eq!(
            serde::json::to_string(n),
            serde::json::to_string(s),
            "multi-core skip-ahead diverged on {} (mix of {name} and {partner}, {l1:?})",
            n.workload
        );
    }
}

fn assert_rows_agree(l1: PrefetcherChoice) {
    for (i, name) in WORKLOADS.into_iter().enumerate() {
        assert_single_core_cells_agree(name, &l1);
        assert_replay_paths_agree(name, &l1);
        // Each workload is mixed with the next of the list.
        assert_two_core_cells_agree(name, WORKLOADS[(i + 1) % WORKLOADS.len()], &l1);
    }
}

#[test]
fn rows_agree_with_no_prefetcher() {
    // No prefetcher is the stall-heaviest configuration: the cores
    // spend most cycles quiescent on DRAM, so skip-ahead takes its
    // largest jumps here and any bookkeeping drift would surface.
    assert_rows_agree(PrefetcherChoice::None);
}

#[test]
fn rows_agree_with_ip_stride() {
    assert_rows_agree(PrefetcherChoice::IpStride);
}

#[test]
fn rows_agree_with_berti() {
    // Berti keeps the prefetch queues busy, exercising the
    // queue-event bound on the skip target.
    assert_rows_agree(PrefetcherChoice::Berti);
}
