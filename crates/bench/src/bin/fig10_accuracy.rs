//! Fig. 10: L1D prefetch accuracy (artifact formula), split into
//! timely and late useful prefetches.

use berti_bench::*;
use berti_traces::{memory_intensive_suite, Suite};
use berti_types::SystemConfig;

fn main() {
    header(
        "Fig. 10 — L1D prefetch accuracy (timely + late useful / fills)",
        "paper Fig. 10: Berti 87.2% vs MLOP 62.4% vs IPCP 50.6%, almost all timely",
    );
    let opts = experiment_options();
    let workloads = memory_intensive_suite();
    let configs: Vec<_> = l1d_contenders().into_iter().map(|p| (p, None)).collect();
    let system = SystemConfig::default();
    let grid = run_grid("fig10", &system, &configs, &workloads, &opts);
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "prefetcher", "acc(SPEC)", "acc(GAP)", "acc(all)", "late frac"
    );
    for cfg in &grid {
        let acc = |s| suite_mean(&workloads, &cfg.runs, s, |r| r.l1d_accuracy());
        let late = suite_mean(&workloads, &cfg.runs, None, |r| r.l1d_late_fraction());
        println!(
            "{:<12} {:>11.1}% {:>11.1}% {:>11.1}% {:>11.1}%",
            cfg.label,
            acc(Some(Suite::Spec)) * 100.0,
            acc(Some(Suite::Gap)) * 100.0,
            acc(None) * 100.0,
            late * 100.0
        );
    }
}
