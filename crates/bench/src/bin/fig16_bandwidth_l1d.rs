//! Fig. 16: L1D prefetcher speedup under constrained DRAM bandwidth
//! (DDR5-6400 / DDR4-3200 / DDR3-1600).

use berti_bench::*;
use berti_sim::PrefetcherChoice;
use berti_traces::memory_intensive_suite;
use berti_types::{SystemConfig, DDR3_1600, DDR4_3200, DDR5_6400};

fn main() {
    header(
        "Fig. 16 — L1D prefetchers vs DRAM bandwidth (MTPS)",
        "paper Fig. 16: negligible loss for GAP, ≤4.1% loss for SPEC at 1600 MTPS",
    );
    let opts = experiment_options();
    let workloads = memory_intensive_suite();
    println!(
        "{:<12} {:>10} {:>10} {:>10}",
        "prefetcher", "6400", "3200", "1600"
    );
    // One campaign per bandwidth: the IP-stride baseline, then every
    // contender.
    let mut configs = vec![(PrefetcherChoice::IpStride, None)];
    configs.extend(l1d_contenders().into_iter().map(|p| (p, None)));
    let bands: Vec<_> = [DDR5_6400, DDR4_3200, DDR3_1600]
        .into_iter()
        .map(|dram| {
            let system = SystemConfig {
                dram,
                ..SystemConfig::default()
            };
            run_grid("fig16", &system, &configs, &workloads, &opts)
        })
        .collect();
    for ci in 1..configs.len() {
        print!("{:<12}", bands[0][ci].label);
        for grid in &bands {
            let speedup = geomean_speedup(&workloads, &grid[ci].runs, &grid[0].runs, None);
            print!(" {speedup:>9.3}");
        }
        println!();
    }
    println!("(speedups are vs IP-stride at the same bandwidth)");
}
