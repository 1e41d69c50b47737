//! Fig. 11: demand MPKI at L1D/L2/LLC with each L1D prefetcher.

use berti_bench::*;
use berti_sim::PrefetcherChoice;
use berti_traces::{memory_intensive_suite, Suite};
use berti_types::SystemConfig;

fn main() {
    header(
        "Fig. 11 — demand MPKI at L1D/L2/LLC (L1D prefetchers)",
        "paper Fig. 11: Berti lowest at L2/LLC thanks to its line-preloading policy",
    );
    let opts = experiment_options();
    let workloads = memory_intensive_suite();
    println!(
        "{:<12} {:>22} {:>22}",
        "", "SPEC (L1D/L2/LLC)", "GAP (L1D/L2/LLC)"
    );
    let mut configs = vec![(PrefetcherChoice::IpStride, None)];
    configs.extend(l1d_contenders().into_iter().map(|p| (p, None)));
    let system = SystemConfig::default();
    let grid = run_grid("fig11", &system, &configs, &workloads, &opts);
    for cfg in &grid {
        let spec = Some(Suite::Spec);
        let gap = Some(Suite::Gap);
        println!(
            "{:<12} {:>6.1}/{:>6.1}/{:>6.1} {:>8.1}/{:>6.1}/{:>6.1}",
            cfg.label,
            suite_mean(&workloads, &cfg.runs, spec, |r| Some(r.l1d_mpki())),
            suite_mean(&workloads, &cfg.runs, spec, |r| Some(r.l2_mpki())),
            suite_mean(&workloads, &cfg.runs, spec, |r| Some(r.llc_mpki())),
            suite_mean(&workloads, &cfg.runs, gap, |r| Some(r.l1d_mpki())),
            suite_mean(&workloads, &cfg.runs, gap, |r| Some(r.l2_mpki())),
            suite_mean(&workloads, &cfg.runs, gap, |r| Some(r.llc_mpki())),
        );
    }
}
