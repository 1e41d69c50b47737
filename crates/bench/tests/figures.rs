//! Every row of the figure table prints what the binary of the same
//! name printed before the table existed: `golden/<id>.txt` is the
//! stdout of commit a938e79's `<id>` binary at 2000 + 8000 instructions
//! without the result cache (`fig_real_traces` over a `.btrc` of
//! `tests/fixtures/champsim_500.trace`). A deliberate change to a
//! figure's numbers or layout re-captures its file from `fig <id>`.

use std::path::{Path, PathBuf};

use berti_bench::{Figure, Run, FIGURES};
use berti_harness::RunOptions;
use berti_sim::SimOptions;
use berti_traces::ingest::{decode_champsim, write_btrc};

#[path = "../../traces/tests/common/mod.rs"]
mod common;
use common::TempPath;

/// Rows that generate no memory-intensive suite, so they are quick
/// enough for unoptimized builds.
const NO_SUITE: [&str; 5] = [
    "tab01_storage",
    "tab02_config",
    "tab03_prefetcher_configs",
    "fig03_local_vs_global",
    "fig18_cloudsuite",
];

fn repo_path(relative: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(relative)
}

fn assert_matches_golden(fig: &Figure, trace_dir: Option<&Path>) {
    let sim = SimOptions {
        warmup_instructions: 2_000,
        sim_instructions: 8_000,
        ..SimOptions::default()
    };
    let run = RunOptions {
        cache_dir: None,
        ..RunOptions::default()
    };
    let text = fig
        .render(sim, &run, trace_dir, None)
        .unwrap_or_else(|e| panic!("{}: {e}", fig.id));
    let golden = repo_path(&format!("tests/golden/{}.txt", fig.id));
    let golden =
        std::fs::read_to_string(&golden).unwrap_or_else(|e| panic!("{}: {e}", golden.display()));
    assert_eq!(
        text, golden,
        "`fig {}` no longer prints tests/golden/{}.txt",
        fig.id, fig.id
    );
}

#[test]
fn ids_are_unique_and_fig_list_is_the_table() {
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    let mut unique = ids.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), ids.len(), "duplicate id in {ids:?}");

    let list = std::process::Command::new(env!("CARGO_BIN_EXE_fig"))
        .arg("list")
        .output()
        .expect("fig runs");
    assert!(list.status.success());
    let listed = String::from_utf8(list.stdout).expect("utf-8");
    assert_eq!(listed.lines().collect::<Vec<_>>(), ids);
}

#[test]
fn rows_without_a_suite_match_their_golden_files() {
    for id in NO_SUITE {
        let fig = Figure::by_id(id).unwrap_or_else(|| panic!("no row `{id}`"));
        assert_matches_golden(fig, None);
    }
}

/// Generating the memory-intensive suite alone takes about a minute
/// unoptimized; CI runs this with `cargo test --release -p berti-bench`.
#[test]
#[cfg_attr(debug_assertions, ignore = "needs an optimized build")]
fn every_row_matches_its_golden_file() {
    let trace_dir = TempPath::dir("bench-figures");
    let bytes = std::fs::read(repo_path("../../tests/fixtures/champsim_500.trace")).expect("reads");
    let instrs = decode_champsim(&bytes).expect("fixture decodes");
    write_btrc(&trace_dir.join("champsim_500.btrc"), &instrs).expect("writes");

    for fig in FIGURES {
        let needs_traces = matches!(fig.run, Run::Traces(_));
        assert_matches_golden(fig, needs_traces.then_some(&*trace_dir));
    }
}
