//! Fig. 17: multi-level prefetching speedup under constrained DRAM
//! bandwidth.

use berti_bench::*;
use berti_sim::PrefetcherChoice;
use berti_traces::memory_intensive_suite;
use berti_types::{SystemConfig, DDR3_1600, DDR4_3200, DDR5_6400};

fn main() {
    header(
        "Fig. 17 — multi-level prefetching vs DRAM bandwidth (MTPS)",
        "paper Fig. 17: Berti(+SPP-PPF) degrade most gracefully",
    );
    let opts = experiment_options();
    let workloads = memory_intensive_suite();
    println!(
        "{:<16} {:>10} {:>10} {:>10}",
        "config", "6400", "3200", "1600"
    );
    // One campaign per bandwidth: the IP-stride baseline, Berti alone,
    // then the combinations.
    let mut configs = vec![
        (PrefetcherChoice::IpStride, None),
        (PrefetcherChoice::Berti, None),
    ];
    configs.extend(multilevel_contenders());
    let bands: Vec<_> = [DDR5_6400, DDR4_3200, DDR3_1600]
        .into_iter()
        .map(|dram| {
            let system = SystemConfig {
                dram,
                ..SystemConfig::default()
            };
            run_grid("fig17", &system, &configs, &workloads, &opts)
        })
        .collect();
    for ci in 1..configs.len() {
        print!("{:<16}", bands[0][ci].label);
        for grid in &bands {
            let speedup = geomean_speedup(&workloads, &grid[ci].runs, &grid[0].runs, None);
            print!(" {speedup:>9.3}");
        }
        println!();
    }
}
