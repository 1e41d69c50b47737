//! Decode-once sharing across a campaign: every cell of a same-trace
//! campaign replays through the process-wide stream cache, so the
//! trace file is decoded (or mmapped) exactly once per process no
//! matter how many cells or workers touch it. Also pins satellite
//! behavior: a corrupt trace file fails its cell with a *typed* error
//! on the first attempt — no panic, no retry — while healthy cells in
//! the same campaign complete normally.

use berti_harness::{Campaign, JobOutcome, RunOptions};
use berti_sim::{PrefetcherChoice, SimOptions};
use berti_traces::ingest::{decode_records, write_btrc};
use berti_types::RECORD_BYTES;

#[path = "../../traces/tests/common/mod.rs"]
mod common;
use common::TempPath;

/// Writes a slice of a builtin workload as `<dir>/<name>.btrc`.
fn write_slice(dir: &std::path::Path, name: &str, len: usize) -> std::path::PathBuf {
    let btrc = berti_traces::workload_by_name("lbm-like")
        .expect("builtin exists")
        .builtin_body()
        .expect("generates");
    let records = &btrc.body()[..len.min(btrc.record_count()) * RECORD_BYTES];
    let path = dir.join(format!("{name}.btrc"));
    write_btrc(&path, &decode_records(records).expect("decodes")).expect("writes");
    path
}

fn campaign_over(workload: &str, cells: usize) -> Campaign {
    let l1s = [
        PrefetcherChoice::None,
        PrefetcherChoice::IpStride,
        PrefetcherChoice::NextLine,
        PrefetcherChoice::Berti,
    ];
    let mut grid = Campaign::grid("decode-once").workload(workload);
    for l1 in &l1s[..cells] {
        grid = grid.l1(l1.clone());
    }
    grid.opts(SimOptions {
        warmup_instructions: 200,
        sim_instructions: 1_500,
        ..SimOptions::default()
    })
    .build()
}

#[test]
fn four_cells_over_one_trace_decode_it_once() {
    let traces = TempPath::dir("decode-once-shared");
    let path = write_slice(&traces, "shared", 4_000);

    berti_traces::cache::clear();
    let opts = RunOptions {
        jobs: 2,
        cache_dir: None,
        events_path: None,
        progress: false,
        trace_dir: Some(traces.to_path_buf()),
        ..RunOptions::default()
    };
    let campaign = campaign_over("shared", 4);
    let result = berti_harness::run_campaign(&campaign, &opts);
    assert_eq!(result.completed(), 4, "all four cells simulate");

    assert_eq!(
        berti_traces::cache::decode_count(&path),
        1,
        "four cells over the same trace decode it exactly once"
    );
}

#[test]
fn corrupt_trace_fails_typed_without_retry_and_spares_healthy_cells() {
    let traces = TempPath::dir("decode-once-corrupt");
    write_slice(&traces, "good", 2_000);
    // A `.btrc` whose header claims more records than the body holds:
    // a typed `Truncated` error at open, not a panic.
    let good = std::fs::read(traces.join("good.btrc")).expect("reads");
    std::fs::write(traces.join("bad.btrc"), &good[..good.len() - 13]).expect("writes");

    berti_traces::cache::clear();
    let opts = RunOptions {
        jobs: 2,
        cache_dir: None,
        events_path: None,
        progress: false,
        trace_dir: Some(traces.to_path_buf()),
        ..RunOptions::default()
    };
    let campaign = {
        let mut grid = Campaign::grid("corrupt-cell")
            .workload("good")
            .workload("bad")
            .l1(PrefetcherChoice::Berti);
        grid = grid.opts(SimOptions {
            warmup_instructions: 200,
            sim_instructions: 1_500,
            ..SimOptions::default()
        });
        grid.build()
    };
    let result = berti_harness::run_campaign(&campaign, &opts);

    let mut good_done = false;
    let mut bad_failed = false;
    for job in &result.jobs {
        match (&job.spec.workload[..], &job.outcome) {
            ("good", JobOutcome::Done { .. }) => good_done = true,
            ("bad", JobOutcome::Failed { error, attempts }) => {
                assert_eq!(
                    *attempts, 1,
                    "typed trace errors are deterministic: no retry"
                );
                assert!(
                    error.contains("truncated") || error.contains("Truncated"),
                    "error is the typed ingest diagnostic, got: {error}"
                );
                bad_failed = true;
            }
            (w, o) => panic!("unexpected outcome for {w}: {o:?}"),
        }
    }
    assert!(good_done, "healthy cell completes");
    assert!(bad_failed, "corrupt cell fails typed");
}
