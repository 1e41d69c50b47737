//! Cross-crate integration tests: the paper's headline claims hold on
//! the synthetic workloads at small scale, and the simulator's
//! accounting is self-consistent.

use berti::sim::{
    simulate, simulate_with_engine, Engine, L2PrefetcherChoice, PrefetcherChoice, SimOptions,
};
use berti::traces::spec;
use berti::types::SystemConfig;

fn opts() -> SimOptions {
    SimOptions {
        warmup_instructions: 50_000,
        sim_instructions: 200_000,
        ..SimOptions::default()
    }
}

fn workload(name: &str) -> berti::traces::Trace {
    berti::traces::memory_intensive_suite()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("workload {name} exists"))
        .trace()
}

#[test]
fn berti_covers_interleaved_strides_where_ip_stride_fails() {
    // Sec. II-B's lbm pattern: +1/+2 alternation per IP.
    let cfg = SystemConfig::default();
    let base = simulate(
        &cfg,
        PrefetcherChoice::IpStride,
        &mut workload("lbm-like"),
        &opts(),
    );
    let berti = simulate(
        &cfg,
        PrefetcherChoice::Berti,
        &mut workload("lbm-like"),
        &opts(),
    );
    assert!(
        berti.speedup_over(&base) > 1.3,
        "berti {:.3} vs ip-stride {:.3}",
        berti.ipc(),
        base.ipc()
    );
    assert!(berti.l1d_accuracy().expect("prefetched") > 0.85);
}

#[test]
fn berti_wins_on_mcf_like_local_deltas() {
    // Fig. 9's biggest win: per-IP local deltas.
    let cfg = SystemConfig::default();
    let base = simulate(
        &cfg,
        PrefetcherChoice::IpStride,
        &mut workload("mcf-1554-like"),
        &opts(),
    );
    let berti = simulate(
        &cfg,
        PrefetcherChoice::Berti,
        &mut workload("mcf-1554-like"),
        &opts(),
    );
    let mlop = simulate(
        &cfg,
        PrefetcherChoice::Mlop,
        &mut workload("mcf-1554-like"),
        &opts(),
    );
    assert!(
        berti.speedup_over(&base) > 1.3,
        "berti {:.3}",
        berti.speedup_over(&base)
    );
    assert!(
        berti.ipc() > mlop.ipc(),
        "local deltas must beat the global-delta MLOP on mcf"
    );
}

#[test]
fn global_prefetchers_win_on_cactu_like() {
    // Sec. IV-C: hundreds of interleaved strided IPs defeat per-IP
    // tracking; the global +1 stream is MLOP's home turf.
    let cfg = SystemConfig::default();
    let berti = simulate(
        &cfg,
        PrefetcherChoice::Berti,
        &mut workload("cactu-like"),
        &opts(),
    );
    let mlop = simulate(
        &cfg,
        PrefetcherChoice::Mlop,
        &mut workload("cactu-like"),
        &opts(),
    );
    assert!(
        mlop.ipc() > berti.ipc() * 1.02,
        "mlop {:.3} vs berti {:.3}",
        mlop.ipc(),
        berti.ipc()
    );
    // Berti correctly refuses to prefetch without confidence.
    assert!(berti.l1d.pf_fills < 500);
}

#[test]
fn berti_keeps_traffic_near_baseline_on_irregular_graphs() {
    // Sec. IV-E: accuracy translates into traffic.
    let cfg = SystemConfig::default();
    let none = simulate(
        &cfg,
        PrefetcherChoice::None,
        &mut workload("pr-urand"),
        &opts(),
    );
    let berti = simulate(
        &cfg,
        PrefetcherChoice::Berti,
        &mut workload("pr-urand"),
        &opts(),
    );
    let ipcp = simulate(
        &cfg,
        PrefetcherChoice::Ipcp,
        &mut workload("pr-urand"),
        &opts(),
    );
    let dram = |r: &berti::sim::Report| r.traffic().2 as f64;
    assert!(
        dram(&berti) < dram(&none) * 1.15,
        "Berti must stay near baseline traffic"
    );
    assert!(
        dram(&ipcp) > dram(&berti) * 1.3,
        "IPCP floods the irregular gathers"
    );
}

#[test]
fn accounting_is_self_consistent() {
    let cfg = SystemConfig::default();
    let r = simulate(
        &cfg,
        PrefetcherChoice::Berti,
        &mut workload("bwaves-like"),
        &opts(),
    );
    // Retired exactly what was asked (within one retire group).
    assert!(r.instructions >= opts().sim_instructions);
    assert!(r.instructions < opts().sim_instructions + 8);
    // Useful prefetches can't exceed fills plus the lines that were
    // already prefetched and resident when warm-up stats were reset.
    assert!(
        r.l1d.pf_useful_timely + r.l1d.pf_useful_late <= r.l1d.pf_fills + r.l1d.pf_useless + 768
    );
    // Demand misses at L2 can't exceed L1D demand misses (plus
    // prefetch-triggered traffic is accounted separately).
    assert!(r.l2.demand_misses() <= r.l1d.demand_misses());
    // Energy is positive and dominated by DRAM for a streaming run.
    assert!(r.energy.total_nj() > 0.0);
    // Cycles bounded by the runaway guard.
    assert!(r.cycles < opts().sim_instructions * 64 + 1000);
}

#[test]
fn multilevel_combination_runs_and_helps_l2() {
    let cfg = SystemConfig::default();
    let alone = simulate(
        &cfg,
        PrefetcherChoice::Berti,
        &mut workload("bwaves-like"),
        &opts(),
    );
    let with_l2 = simulate_with_engine(
        &cfg,
        PrefetcherChoice::Berti,
        Some(L2PrefetcherChoice::SppPpf),
        &mut workload("bwaves-like"),
        &opts(),
        Engine::default(),
    );
    assert_eq!(with_l2.l2_prefetcher.as_deref(), Some("spp-ppf"));
    // The combination must not be catastrophically worse.
    assert!(with_l2.ipc() > alone.ipc() * 0.85);
}

#[test]
fn cloud_suite_has_low_mpki_and_small_gains() {
    let cfg = SystemConfig::default();
    let w = berti::traces::cloud::suite()
        .into_iter()
        .find(|w| w.name == "nutch-like")
        .expect("exists");
    let base = simulate(&cfg, PrefetcherChoice::IpStride, &mut w.trace(), &opts());
    assert!(base.l1d_mpki() < 20.0, "cloud MPKI {:.1}", base.l1d_mpki());
}

#[test]
fn storage_budget_matches_table_i() {
    let r = simulate(
        &SystemConfig::default(),
        PrefetcherChoice::Berti,
        &mut spec::StridedLoops.generator(),
        &SimOptions {
            warmup_instructions: 1_000,
            sim_instructions: 5_000,
            ..SimOptions::default()
        },
    );
    let kb = r.prefetcher_storage_bits as f64 / 8.0 / 1024.0;
    assert!((kb - 2.55).abs() < 0.02, "{kb} KB");
}
