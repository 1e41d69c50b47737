//! Fig. 8: speedup of the L1D prefetchers (MLOP, IPCP, Berti) over the
//! IP-stride baseline, per suite and overall.

use berti_bench::*;
use berti_sim::PrefetcherChoice;
use berti_traces::{memory_intensive_suite, Suite};
use berti_types::SystemConfig;

fn main() {
    header(
        "Fig. 8 — L1D prefetcher speedup over IP-stride",
        "paper Fig. 8: Berti +11.6% SPEC / +1.9% GAP / +8.5% overall, best of all",
    );
    let opts = experiment_options();
    let workloads = memory_intensive_suite();
    // One campaign for the whole figure: baseline + contenders.
    let mut configs = vec![(PrefetcherChoice::IpStride, None)];
    configs.extend(l1d_contenders().into_iter().map(|p| (p, None)));
    let system = SystemConfig::default();
    let mut grid = run_grid("fig08", &system, &configs, &workloads, &opts);
    let baseline = grid.remove(0).runs;
    println!(
        "{:<12} {:>10} {:>10} {:>10}",
        "prefetcher", "SPEC", "GAP", "overall"
    );
    for cfg in &grid {
        let spec = geomean_speedup(&workloads, &cfg.runs, &baseline, Some(Suite::Spec));
        let gap = geomean_speedup(&workloads, &cfg.runs, &baseline, Some(Suite::Gap));
        let all = geomean_speedup(&workloads, &cfg.runs, &baseline, None);
        println!(
            "{:<12} {:>9.1}% {:>9.1}% {:>9.1}%",
            cfg.label,
            (spec - 1.0) * 100.0,
            (gap - 1.0) * 100.0,
            (all - 1.0) * 100.0
        );
    }
}
