//! Fig. 18: speedup on CloudSuite-like services.

use berti_bench::*;
use berti_sim::PrefetcherChoice;
use berti_traces::cloud;
use berti_types::SystemConfig;

fn main() {
    header(
        "Fig. 18 — CloudSuite speedup over IP-stride",
        "paper Fig. 18: limited headroom (low data MPKI); Berti wins on Classification",
    );
    let opts = experiment_options();
    let workloads = cloud::suite();
    let mut grid_configs = vec![(PrefetcherChoice::IpStride, None)];
    grid_configs.extend(l1d_contenders().into_iter().map(|p| (p, None)));
    let system = SystemConfig::default();
    let mut grid = run_grid("fig18", &system, &grid_configs, &workloads, &opts);
    let baseline = grid.remove(0).runs;
    let configs = grid;
    print!("{:<22}", "service");
    for c in &configs {
        print!(" {:>8}", c.label);
    }
    println!(" {:>10}", "base MPKI");
    for (i, w) in workloads.iter().enumerate() {
        print!("{:<22}", w.name);
        for c in &configs {
            print!(" {:>8.3}", c.runs[i].speedup_over(&baseline[i]));
        }
        println!(" {:>10.1}", baseline[i].l1d_mpki());
    }
    print!("{:<22}", "geomean");
    for c in &configs {
        print!(
            " {:>8.3}",
            geomean_speedup(&workloads, &c.runs, &baseline, None)
        );
    }
    println!();
}
