//! Fig. 13: L2/LLC demand MPKI with multi-level prefetching.

use berti_bench::*;
use berti_sim::PrefetcherChoice;
use berti_traces::{memory_intensive_suite, Suite};
use berti_types::SystemConfig;

fn main() {
    header(
        "Fig. 13 — L2/LLC demand MPKI with multi-level prefetching",
        "paper Fig. 13: Berti-at-L1D alone beats non-Berti combinations at L2/LLC",
    );
    let opts = experiment_options();
    let workloads = memory_intensive_suite();
    println!(
        "{:<16} {:>18} {:>18}",
        "config", "SPEC (L2/LLC)", "GAP (L2/LLC)"
    );
    let mut configs = vec![
        (PrefetcherChoice::Mlop, None),
        (PrefetcherChoice::Ipcp, None),
        (PrefetcherChoice::Berti, None),
    ];
    configs.extend(multilevel_contenders());
    let system = SystemConfig::default();
    let grid = run_grid("fig13", &system, &configs, &workloads, &opts);
    for cfg in &grid {
        let spec = Some(Suite::Spec);
        let gap = Some(Suite::Gap);
        println!(
            "{:<16} {:>8.1}/{:>8.1} {:>9.1}/{:>8.1}",
            cfg.label,
            suite_mean(&workloads, &cfg.runs, spec, |r| Some(r.l2_mpki())),
            suite_mean(&workloads, &cfg.runs, spec, |r| Some(r.llc_mpki())),
            suite_mean(&workloads, &cfg.runs, gap, |r| Some(r.l2_mpki())),
            suite_mean(&workloads, &cfg.runs, gap, |r| Some(r.llc_mpki())),
        );
    }
}
