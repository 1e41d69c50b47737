//! Fig. 12: speedup of multi-level (L1D+L2) prefetching combinations.

use berti_bench::*;
use berti_sim::PrefetcherChoice;
use berti_traces::{memory_intensive_suite, Suite};
use berti_types::SystemConfig;

fn main() {
    header(
        "Fig. 12 — multi-level prefetching speedup over IP-stride",
        "paper Fig. 12: Berti alone beats every combination without Berti",
    );
    let opts = experiment_options();
    let workloads = memory_intensive_suite();
    // One campaign: baseline, Berti alone, then the combinations.
    let mut configs = vec![
        (PrefetcherChoice::IpStride, None),
        (PrefetcherChoice::Berti, None),
    ];
    configs.extend(multilevel_contenders());
    let system = SystemConfig::default();
    let mut grid = run_grid("fig12", &system, &configs, &workloads, &opts);
    let baseline = grid.remove(0).runs;
    println!(
        "{:<16} {:>10} {:>10} {:>10}",
        "config", "SPEC", "GAP", "overall"
    );
    for cfg in &grid {
        let s = |suite| geomean_speedup(&workloads, &cfg.runs, &baseline, suite);
        println!(
            "{:<16} {:>9.1}% {:>9.1}% {:>9.1}%",
            cfg.label,
            (s(Some(Suite::Spec)) - 1.0) * 100.0,
            (s(Some(Suite::Gap)) - 1.0) * 100.0,
            (s(None) - 1.0) * 100.0
        );
    }
}
