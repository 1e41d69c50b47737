//! Differential test for the streaming trace seam: a cell simulated
//! over a chunked [`InstrStream`] cursor (the mmap'd `.btrc` backend,
//! wrap-around included) must produce **byte-identical** reports to the
//! same cell over a fully materialized in-memory trace, because the
//! cursor is a pure replay-plumbing change (see DESIGN.md, "Streaming
//! trace replay").

use berti::sim::{simulate, PrefetcherChoice, SimOptions};
use berti::traces::ingest::{open_streaming, write_btrc};
use berti::traces::Trace;
use berti::types::SystemConfig;

fn opts() -> SimOptions {
    SimOptions {
        warmup_instructions: 20_000,
        sim_instructions: 80_000,
        ..SimOptions::default()
    }
}

/// Runs one (workload, prefetcher) cell over both replay paths and
/// asserts the serialized reports are byte-for-byte identical. The
/// `.btrc` slice is short enough that `sim_instructions` forces the
/// cursor through several cyclic wrap-arounds.
fn assert_replay_paths_agree(name: &str, l1: PrefetcherChoice) {
    let workload =
        berti::traces::workload_by_name(name).unwrap_or_else(|| panic!("workload {name} exists"));
    let instrs = workload.instrs().expect("generates");
    let slice = &instrs[..30_000.min(instrs.len())];

    let dir = std::env::temp_dir().join(format!("berti-streamed-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    // One file per call: the tests of this binary run in parallel
    // and each removes its file when done.
    let path = dir.join(format!("{name}-{}.btrc", l1.name()));
    write_btrc(&path, slice).expect("writes");

    let cfg = SystemConfig::default();
    let opts = opts();

    let mut materialized = Trace::new(name.to_string(), slice.to_vec());
    let mat = simulate(&cfg, l1.clone(), &mut materialized, &opts);

    let mut streamed = Trace::from_stream(name.to_string(), open_streaming(&path).expect("opens"))
        .expect("primes");
    let str_ = simulate(&cfg, l1.clone(), &mut streamed, &opts);

    assert_eq!(
        serde::json::to_string(&mat),
        serde::json::to_string(&str_),
        "replay paths diverge on {name} with {l1:?}"
    );
    assert!(mat.instructions > 0 && mat.cycles > 0);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn streamed_and_materialized_replay_agree_without_prefetching() {
    assert_replay_paths_agree("lbm-like", PrefetcherChoice::None);
}

#[test]
fn streamed_and_materialized_replay_agree_with_berti() {
    assert_replay_paths_agree("lbm-like", PrefetcherChoice::Berti);
    assert_replay_paths_agree("mcf-1554-like", PrefetcherChoice::Berti);
}

#[test]
fn streamed_and_materialized_replay_agree_with_ip_stride() {
    assert_replay_paths_agree("roms-like", PrefetcherChoice::IpStride);
}
