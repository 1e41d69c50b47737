//! Shared harness for the experiment binaries that regenerate the
//! paper's tables and figures (see DESIGN.md §4 for the index).
//!
//! Every binary prints the same rows/series the paper reports, for the
//! synthetic workload suites standing in for SPEC CPU2017 / GAP /
//! CloudSuite. Run lengths default to a laptop-scale budget and can be
//! raised via `BERTI_WARMUP` and `BERTI_INSTR` (instructions).
//!
//! Every single-core simulation routes through the `berti-harness`
//! campaign engine: a figure declares its cells with [`run_grid`]
//! (configurations × workloads on one simulated system — Fig. 16/17
//! declare one grid per DRAM bandwidth), so they run on a worker pool
//! (`BERTI_JOBS`, default: available parallelism) and share one
//! content-addressed result cache (`BERTI_CACHE_DIR`, default
//! `results/cache`; `BERTI_NO_CACHE=1` disables it). Re-running a
//! figure — or another figure that shares cells — is answered from
//! cache. The one exception is Fig. 20: a campaign cell names one
//! workload, so its 4-core mixes call `simulate_multicore` directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::IsTerminal;

use berti_harness::{Campaign, JobOutcome, RunOptions};
use berti_sim::{L2PrefetcherChoice, PrefetcherChoice, Report, SimOptions};
use berti_traces::{Suite, WorkloadDef};
use berti_types::SystemConfig;

/// Simulation options from the environment (`BERTI_WARMUP`,
/// `BERTI_INSTR`), with defaults sized for minutes-scale full runs.
pub fn experiment_options() -> SimOptions {
    let env_num = |k: &str, default: u64| {
        std::env::var(k)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    SimOptions {
        warmup_instructions: env_num("BERTI_WARMUP", 100_000),
        sim_instructions: env_num("BERTI_INSTR", 400_000),
        ..SimOptions::default()
    }
}

/// Campaign-engine options from the environment (`BERTI_JOBS`,
/// `BERTI_CACHE_DIR`, `BERTI_NO_CACHE`, `BERTI_EVENTS`,
/// `BERTI_INTERVAL`).
pub fn harness_options() -> RunOptions {
    let no_cache = std::env::var("BERTI_NO_CACHE").is_ok_and(|v| v == "1");
    RunOptions {
        jobs: std::env::var("BERTI_JOBS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
        cache_dir: (!no_cache).then(|| {
            std::env::var("BERTI_CACHE_DIR")
                .unwrap_or_else(|_| "results/cache".to_string())
                .into()
        }),
        events_path: std::env::var("BERTI_EVENTS").ok().map(Into::into),
        progress: std::io::stderr().is_terminal(),
        interval: std::env::var("BERTI_INTERVAL")
            .ok()
            .and_then(|v| v.parse().ok()),
        trace_dir: None,
    }
}

/// The L1D prefetchers of Fig. 8/10/11 (the baseline IP-stride is the
/// denominator of every speedup).
pub fn l1d_contenders() -> Vec<PrefetcherChoice> {
    berti_harness::registry::l1d_contenders()
}

/// The multi-level combinations of Fig. 12/13 (L1D + L2).
pub fn multilevel_contenders() -> Vec<(PrefetcherChoice, Option<L2PrefetcherChoice>)> {
    berti_harness::registry::multilevel_contenders()
}

/// One prefetcher configuration's results over a workload list, plus
/// the matching baseline runs.
pub struct SuiteRuns {
    /// Configuration label ("berti", "mlop+bingo", ...).
    pub label: String,
    /// Reports, one per workload, same order as the workload list.
    pub runs: Vec<Report>,
}

/// Declares and executes a grid campaign: every configuration ×
/// every workload on the simulated `system`, on the shared worker pool
/// and result cache. Returns one [`SuiteRuns`] per configuration, in
/// order.
///
/// # Panics
///
/// Panics if any cell fails both of its attempts (figure binaries
/// need every report to print their tables).
pub fn run_grid(
    name: &str,
    system: &SystemConfig,
    configs: &[(PrefetcherChoice, Option<L2PrefetcherChoice>)],
    workloads: &[WorkloadDef],
    opts: &SimOptions,
) -> Vec<SuiteRuns> {
    let campaign = Campaign::grid(name)
        .workloads(workloads)
        .configs(configs.iter().cloned())
        .opts(*opts)
        .system(*system)
        .build();
    let result = berti_harness::run_campaign(&campaign, &harness_options());
    // The builder lays cells out configuration-major, so job index
    // ci * W + wi is configuration ci on workload wi.
    let w = workloads.len();
    configs
        .iter()
        .enumerate()
        .map(|(ci, _)| {
            let runs: Vec<Report> = (0..w)
                .map(|wi| {
                    let job = &result.jobs[ci * w + wi];
                    match &job.outcome {
                        JobOutcome::Done { report, .. } => report.clone(),
                        JobOutcome::Failed { error, attempts } => panic!(
                            "campaign `{name}`: cell {}/{} failed after {attempts} attempts: {error}",
                            job.spec.workload,
                            job.spec.label()
                        ),
                    }
                })
                .collect();
            SuiteRuns {
                label: result.jobs[ci * w].spec.label(),
                runs,
            }
        })
        .collect()
}

/// Runs the IP-stride baseline over `workloads`.
pub fn run_baseline(workloads: &[WorkloadDef], opts: &SimOptions) -> Vec<Report> {
    run_grid(
        "baseline",
        &SystemConfig::default(),
        &[(PrefetcherChoice::IpStride, None)],
        workloads,
        opts,
    )
    .remove(0)
    .runs
}

/// Runs one L1D(+L2) configuration over `workloads`.
pub fn run_config(
    l1: PrefetcherChoice,
    l2: Option<L2PrefetcherChoice>,
    workloads: &[WorkloadDef],
    opts: &SimOptions,
) -> SuiteRuns {
    run_grid(
        "config",
        &SystemConfig::default(),
        &[(l1, l2)],
        workloads,
        opts,
    )
    .remove(0)
}

/// Geometric-mean speedup of `runs` over `baseline` restricted to one
/// suite (or all workloads when `suite` is `None`).
pub fn geomean_speedup(
    workloads: &[WorkloadDef],
    runs: &[Report],
    baseline: &[Report],
    suite: Option<Suite>,
) -> f64 {
    let ratios: Vec<f64> = workloads
        .iter()
        .zip(runs.iter().zip(baseline))
        .filter(|(w, _)| suite.is_none_or(|s| w.suite == s))
        .map(|(_, (r, b))| r.speedup_over(b))
        .collect();
    berti_sim::geometric_mean(&ratios)
}

/// Mean of an extracted metric over one suite.
pub fn suite_mean<F: Fn(&Report) -> Option<f64>>(
    workloads: &[WorkloadDef],
    runs: &[Report],
    suite: Option<Suite>,
    f: F,
) -> f64 {
    let vals: Vec<f64> = workloads
        .iter()
        .zip(runs)
        .filter(|(w, _)| suite.is_none_or(|s| w.suite == s))
        .filter_map(|(_, r)| f(r))
        .collect();
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// Prints a horizontal rule and a figure/table header.
pub fn header(title: &str, paper_ref: &str) {
    println!("{}", "=".repeat(78));
    println!("{title}");
    println!("(reproduces {paper_ref}; shapes comparable, absolutes differ — see EXPERIMENTS.md)");
    println!("{}", "=".repeat(78));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_default_and_env_parse() {
        let o = experiment_options();
        assert!(o.sim_instructions >= o.warmup_instructions);
    }

    #[test]
    fn contender_lists_are_nonempty() {
        assert_eq!(l1d_contenders().len(), 3);
        assert_eq!(multilevel_contenders().len(), 5);
    }

    #[test]
    fn grid_runs_come_back_in_workload_order() {
        let workloads = &berti_traces::spec::suite()[..2];
        let opts = SimOptions {
            warmup_instructions: 1_000,
            sim_instructions: 4_000,
            ..SimOptions::default()
        };
        // No cache: unit tests must not write into results/.
        std::env::set_var("BERTI_NO_CACHE", "1");
        let grid = run_grid(
            "bench-test",
            &SystemConfig::default(),
            &[
                (PrefetcherChoice::IpStride, None),
                (PrefetcherChoice::Berti, None),
            ],
            workloads,
            &opts,
        );
        std::env::remove_var("BERTI_NO_CACHE");
        assert_eq!(grid.len(), 2);
        assert_eq!(grid[0].label, "ip-stride");
        assert_eq!(grid[1].label, "berti");
        for sr in &grid {
            assert_eq!(sr.runs.len(), workloads.len());
            for (w, r) in workloads.iter().zip(&sr.runs) {
                assert_eq!(r.workload, w.name);
            }
        }
    }
}
