//! The figure table and how each row simulates and renders.
//!
//! A suite row declares its whole grid once — usually through
//! [`grid_vs`], which puts the reference configuration (IP-stride, or no
//! prefetching for the traffic/energy figures) in front of the row's
//! own — and renders from the returned reports. The contender lists
//! come from `berti_harness::registry`, so a prefetcher added there
//! appears in every row that compares the contenders.

use std::io;
use std::path::Path;

use berti_core::{Berti, BertiConfig};
use berti_harness::registry::{l1d_contenders, multilevel_contenders};
use berti_mem::{AccessEvent, FillEvent, Prefetcher};
use berti_prefetchers::BestOffset;
use berti_sim::{geometric_mean, simulate_multicore, L2PrefetcherChoice, PrefetcherChoice, Report};
use berti_traces::{cloud, memory_intensive_suite, mix::random_mixes};
use berti_traces::{Suite, TraceRegistry, WorkloadDef};
use berti_types::{AccessKind, Cycle, FillLevel, Ip, SystemConfig};
use berti_types::{DDR3_1600, DDR4_3200, DDR5_6400};
use serde::Value;

use crate::{Config, Ctx, Figure, Run, SuiteRuns};

/// One table row per line pair: `<kind> <id>: <title>, <paper_ref>;`.
/// The id is the name of the function that runs the row.
macro_rules! figures {
    ($($kind:ident $run:ident: $title:literal, $paper_ref:literal;)*) => {
        &[$(Figure {
            id: stringify!($run),
            title: $title,
            paper_ref: $paper_ref,
            run: Run::$kind($run),
        }),*]
    };
}

/// The paper's rows in `fig all` order, then the one over user traces.
pub static FIGURES: &[Figure] = figures! {
    Paper tab01_storage: "Table I — storage overhead of Berti",
        "paper Table I: 0.74 + 0.62 + 0.06 + 1.13 = 2.55 KB";
    Paper tab02_config: "Table II — simulation parameters of the baseline system",
        "paper Table II (Intel Sunny Cove-like)";
    Paper tab03_prefetcher_configs: "Table III — evaluated prefetcher configurations",
        "paper Table III; storage budgets drive Fig. 7's x-axis";
    Paper fig01_accuracy_energy: "Fig. 1 — accuracy and dynamic energy vs no prefetching",
        "paper Fig. 1: useless blocks 22-81% for prior art, Berti ~10%; energy +9%/+14% for Berti";
    Paper fig03_local_vs_global: "Fig. 3 — per-IP local deltas (Berti) vs one global delta (BOP) on mcf-like",
        "paper Fig. 3: distinct best deltas per IP; BOP's +62 covers ~2% of accesses";
    Paper fig07_speedup_storage: "Fig. 7 — speedup vs storage (memory-intensive SPEC+GAP)",
        "paper Fig. 7: Berti best speedup at 2.55 KB; multi-level combos cost 18-22x more";
    Paper fig08_l1d_speedup: "Fig. 8 — L1D prefetcher speedup over IP-stride",
        "paper Fig. 8: Berti +11.6% SPEC / +1.9% GAP / +8.5% overall, best of all";
    Paper fig09_per_trace: "Fig. 9 — per-trace L1D prefetcher speedup over IP-stride",
        "paper Fig. 9: Berti best or tied everywhere except CactuBSSN (global deltas win)";
    Paper fig10_accuracy: "Fig. 10 — L1D prefetch accuracy (timely + late useful / fills)",
        "paper Fig. 10: Berti 87.2% vs MLOP 62.4% vs IPCP 50.6%; the paper reports Berti's useful prefetches almost all timely, which the late fraction below does not reproduce (EXPERIMENTS.md, Fig. 10 section)";
    Paper fig11_mpki: "Fig. 11 — demand MPKI at L1D/L2/LLC (L1D prefetchers)",
        "paper Fig. 11: Berti lowest at L2/LLC thanks to its line-preloading policy";
    Paper fig12_multilevel: "Fig. 12 — multi-level prefetching speedup over IP-stride",
        "paper Fig. 12: Berti alone beats every combination without Berti";
    Paper fig13_multilevel_mpki: "Fig. 13 — L2/LLC demand MPKI with multi-level prefetching",
        "paper Fig. 13: Berti-at-L1D alone beats non-Berti combinations at L2/LLC";
    Paper fig14_traffic: "Fig. 14 — traffic between levels normalized to no prefetching",
        "paper Fig. 14: Berti lowest increase at every level (1.0/9.2/13.9% vs ~90% for IPCP)";
    Paper fig15_energy: "Fig. 15 — dynamic energy normalized to no prefetching",
        "paper Fig. 15: Berti +9.0% SPEC / +14.3% GAP, least of all prefetchers";
    Paper fig16_bandwidth_l1d: "Fig. 16 — L1D prefetchers vs DRAM bandwidth (MTPS)",
        "paper Fig. 16: negligible loss for GAP, ≤4.1% loss for SPEC at 1600 MTPS";
    Paper fig17_bandwidth_multilevel: "Fig. 17 — multi-level prefetching vs DRAM bandwidth (MTPS)",
        "paper Fig. 17: Berti(+SPP-PPF) degrade most gracefully";
    Paper fig18_cloudsuite: "Fig. 18 — CloudSuite speedup over IP-stride",
        "paper Fig. 18: limited headroom (low data MPKI); Berti wins on Classification";
    Paper fig19_misb: "Fig. 19 — L1D prefetchers with and without MISB at L2",
        "paper Fig. 19: MISB helps CloudSuite (temporal streams), not SPEC/GAP";
    Paper fig20_multicore: "Fig. 20 — 4-core heterogeneous mixes, speedup over IP-stride",
        "paper Fig. 20: Berti best (+16.2%), beating MLOP+Bingo too";
    Paper fig21_watermarks: "Fig. 21 — speedup vs L1/L2 coverage watermarks",
        "paper Fig. 21: 65%/35% is the sweet spot; extremes hurt";
    Paper fig22_table_sizes: "Fig. 22 — speedup vs Berti table sizes (0.25x..4x)",
        "paper Fig. 22: shrinking the table of deltas hurts most (-12.1% at 0.25x)";
    Paper sens_latency_bits: "Sec. IV-J — latency-counter width sensitivity",
        "paper: 12->32 bits no change; 4 bits drops SPEC 1.16->1.07, GAP 1.02->0.98";
    Paper sens_cross_page: "Sec. IV-J — cross-page prefetching ablation",
        "paper: disabling it drops SPEC 1.16->1.10 and GAP 1.02->1.01";
    Paper sens_local_context: "Extension — local-context ablation: per-IP vs per-page vs global",
        "paper Sec. II-B + ref [46]: IP context finds the deltas page/global contexts miss";
    Traces fig_real_traces: "Real traces — L1D prefetcher speedup over IP-stride",
        "paper Fig. 8/9 per-trace methodology on user traces";
};

// ---- shared pieces ----

/// `first` with no L2 prefetcher, followed by `rest`.
fn prepend(first: PrefetcherChoice, rest: Vec<Config>) -> Vec<Config> {
    let mut configs = vec![(first, None)];
    configs.extend(rest);
    configs
}

/// The L1D contenders of Fig. 8/10/11 as grid configurations.
fn l1d_configs() -> Vec<Config> {
    l1d_contenders().into_iter().map(|p| (p, None)).collect()
}

/// Everything Fig. 7/13/14/15 compare: the L1D contenders, then the
/// multi-level combinations.
fn all_contenders() -> Vec<Config> {
    let mut configs = l1d_configs();
    configs.extend(multilevel_contenders());
    configs
}

/// Storage bits as the KB the paper's tables count in.
fn kb(bits: u64) -> f64 {
    bits as f64 / 8.0 / 1024.0
}

/// Runs `reference` and `configs` over `workloads` as one grid on the
/// Table II system; returns the reference's reports apart from the
/// configurations' runs.
fn grid_vs(
    ctx: &Ctx,
    reference: PrefetcherChoice,
    configs: Vec<Config>,
    workloads: &[WorkloadDef],
) -> (Vec<Report>, Vec<SuiteRuns>) {
    let configs = prepend(reference, configs);
    let mut grid = ctx.run_grid(&SystemConfig::default(), &configs, workloads);
    (grid.remove(0).runs, grid)
}

/// The (run, reference run) pairs of the workloads in `suite` (all
/// workloads when `None`).
fn pairs<'a>(
    workloads: &'a [WorkloadDef],
    runs: &'a [Report],
    reference: &'a [Report],
    suite: Option<Suite>,
) -> impl Iterator<Item = (&'a Report, &'a Report)> {
    let in_suite = move |w: &WorkloadDef| suite.is_none_or(|s| w.suite == s);
    let per_workload = workloads.iter().zip(runs.iter().zip(reference));
    per_workload
        .filter(move |(w, _)| in_suite(w))
        .map(|(_, pair)| pair)
}

/// Arithmetic mean; 0 for no values (an empty `f64` sum is -0.0, which
/// would print as such).
fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let values: Vec<f64> = values.collect();
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Geometric-mean speedup of `runs` over `baseline` within one suite.
fn geomean_speedup(
    workloads: &[WorkloadDef],
    runs: &[Report],
    baseline: &[Report],
    suite: Option<Suite>,
) -> f64 {
    let ratios: Vec<f64> = pairs(workloads, runs, baseline, suite)
        .map(|(r, b)| r.speedup_over(b))
        .collect();
    geometric_mean(&ratios)
}

/// The SPEC, GAP and overall geomean speedups of `runs` over `baseline`.
fn suite_speedups(workloads: &[WorkloadDef], runs: &[Report], baseline: &[Report]) -> [f64; 3] {
    [Some(Suite::Spec), Some(Suite::Gap), None]
        .map(|suite| geomean_speedup(workloads, runs, baseline, suite))
}

/// Mean within one suite of a metric, over the runs that have it.
fn suite_mean(
    workloads: &[WorkloadDef],
    runs: &[Report],
    suite: Option<Suite>,
    metric: impl Fn(&Report) -> Option<f64>,
) -> f64 {
    mean(pairs(workloads, runs, runs, suite).filter_map(|(r, _)| metric(r)))
}

/// Mean demand MPKI at L1D, L2 and LLC within one suite.
fn suite_mpki(workloads: &[WorkloadDef], runs: &[Report], suite: Suite) -> [f64; 3] {
    let levels: [fn(&Report) -> f64; 3] = [Report::l1d_mpki, Report::l2_mpki, Report::llc_mpki];
    levels.map(|mpki| suite_mean(workloads, runs, Some(suite), |r| Some(mpki(r))))
}

/// Mean within SPEC and within GAP of the memory hierarchy's dynamic
/// energy relative to the no-prefetching runs `none` (Fig. 1/15).
fn energy_ratios(workloads: &[WorkloadDef], runs: &[Report], none: &[Report]) -> [f64; 2] {
    [Suite::Spec, Suite::Gap].map(|suite| {
        let of_suite = pairs(workloads, runs, none, Some(suite));
        mean(of_suite.map(|(r, b)| r.energy.normalized_to(&b.energy)))
    })
}

/// Appends one table line: `label` left-aligned in `width` columns,
/// then every cell behind a space.
fn row(ctx: &mut Ctx, label: &str, width: usize, cells: impl IntoIterator<Item = String>) {
    let cells: String = cells.into_iter().map(|cell| format!(" {cell}")).collect();
    ctx.line(format!("{label:<width$}{cells}"));
}

/// Column heads, each right-aligned in `width` columns.
fn heads<const N: usize>(names: [&str; N], width: usize) -> [String; N] {
    names.map(|name| format!("{name:>width$}"))
}

/// Fig. 8/12: SPEC, GAP and overall speedup of `configs` over IP-stride,
/// in percent.
fn speedup_percent_table(ctx: &mut Ctx, first_col: &str, width: usize, configs: Vec<Config>) {
    let workloads = memory_intensive_suite();
    let (baseline, grid) = grid_vs(ctx, PrefetcherChoice::IpStride, configs, &workloads);
    row(ctx, first_col, width, heads(["SPEC", "GAP", "overall"], 10));
    for SuiteRuns { label, runs } in &grid {
        let percents = suite_speedups(&workloads, runs, &baseline)
            .map(|s| format!("{:>9.1}%", (s - 1.0) * 100.0));
        row(ctx, label, width, percents);
    }
}

/// Fig. 16/17: overall speedup of `configs` over IP-stride at the same
/// DRAM bandwidth, for DDR5-6400 / DDR4-3200 / DDR3-1600.
fn bandwidth_sweep(ctx: &mut Ctx, first_col: &str, width: usize, configs: Vec<Config>) {
    let workloads = memory_intensive_suite();
    // One grid per bandwidth: the IP-stride baseline, then `configs`.
    let configs = prepend(PrefetcherChoice::IpStride, configs);
    let bands = [DDR5_6400, DDR4_3200, DDR3_1600].map(|dram| {
        let system = SystemConfig {
            dram,
            ..SystemConfig::default()
        };
        ctx.run_grid(&system, &configs, &workloads)
    });
    row(ctx, first_col, width, heads(["6400", "3200", "1600"], 10));
    for ci in 1..configs.len() {
        let speedups = bands.each_ref().map(|grid| {
            let s = geomean_speedup(&workloads, &grid[ci].runs, &grid[0].runs, None);
            format!("{s:>9.3}")
        });
        row(ctx, &bands[0][ci].label, width, speedups);
    }
}

/// Sec. IV-J: SPEC and GAP speedup over IP-stride of Berti under each
/// labelled configuration.
fn berti_variants_table(
    ctx: &mut Ctx,
    first_col: &str,
    width: usize,
    variants: &[(String, BertiConfig)],
) {
    let workloads = memory_intensive_suite();
    let configs = variants
        .iter()
        .map(|(_, cfg)| (PrefetcherChoice::BertiWith(*cfg), None))
        .collect();
    let (baseline, grid) = grid_vs(ctx, PrefetcherChoice::IpStride, configs, &workloads);
    row(ctx, first_col, width, heads(["SPEC", "GAP"], 10));
    for ((label, _), cfg) in variants.iter().zip(&grid) {
        let [spec, gap, _] = suite_speedups(&workloads, &cfg.runs, &baseline);
        ctx.line(format!("{label:<width$} {spec:>9.3}x {gap:>9.3}x"));
    }
}

// ---- Tables I–III ----

fn tab01_storage(ctx: &mut Ctx) {
    let cfg = BertiConfig::default();
    let s = cfg.storage();
    ctx.line(format!("{:<55} {:>10}", "Structure", "Storage"));
    let rows = [
        (
            format!(
                "History table {}-set, {}-way ({}-entry), FIFO",
                cfg.history_sets,
                cfg.history_ways,
                cfg.history_sets * cfg.history_ways
            ),
            kb(s.history_bits),
        ),
        (
            format!(
                "Table of deltas {}-entry, fully-assoc, {} deltas/entry",
                cfg.delta_table_entries, cfg.deltas_per_entry
            ),
            kb(s.delta_table_bits),
        ),
        (
            "PQ + MSHR 16+16 entries, 16-bit timestamp each".to_string(),
            kb(s.queue_bits),
        ),
        (
            format!("L1D 768 lines, {}-bit latency per line", cfg.latency_bits),
            kb(s.shadow_bits),
        ),
        ("Total".to_string(), s.total_kb()),
    ];
    for (structure, kb) in rows {
        ctx.line(format!("{structure:<55} {kb:>8.2} KB"));
    }
}

fn tab02_config(ctx: &mut Ctx) {
    let c = SystemConfig::default();
    ctx.line(format!(
        "Core      out-of-order, {}-issue, {}-retire, {}-entry ROB, {}-cycle mispredict refill",
        c.core.issue_width, c.core.retire_width, c.core.rob_entries, c.core.mispredict_penalty
    ));
    ctx.line(format!(
        "TLBs      dTLB {} entries {}-way {} cycle; STLB {} entries {}-way {} cycles; walk {} cycles",
        c.tlb.dtlb_entries,
        c.tlb.dtlb_ways,
        c.tlb.dtlb_latency,
        c.tlb.stlb_entries,
        c.tlb.stlb_ways,
        c.tlb.stlb_latency,
        c.tlb.walk_latency
    ));
    for (name, g) in [("L1D", &c.l1d), ("L2", &c.l2), ("LLC", &c.llc)] {
        ctx.line(format!(
            "{:<9} {} KB, {}-way, {} cycles, {} MSHRs, {:?} replacement, PQ {}",
            name,
            g.capacity_bytes() / 1024,
            g.ways,
            g.latency,
            g.mshr_entries,
            g.replacement,
            g.pq_entries
        ));
    }
    ctx.line(format!(
        "DRAM      {} MTPS, {} banks, {} B row buffer, RQ/WQ {}/{}, tRP/tRCD/tCAS {}/{}/{} cycles, watermark {}/{}",
        c.dram.mtps,
        c.dram.banks,
        c.dram.row_buffer_bytes,
        c.dram.rq_entries,
        c.dram.wq_entries,
        c.dram.t_rp,
        c.dram.t_rcd,
        c.dram.t_cas,
        c.dram.write_watermark_num,
        c.dram.write_watermark_den
    ));
    ctx.line("Baseline  24-entry fully-associative IP-stride prefetcher at the L1D".to_string());
}

fn tab03_prefetcher_configs(ctx: &mut Ctx) {
    ctx.line(format!("{:<12} {:>12}  role", "prefetcher", "storage"));
    for (choice, role) in [
        (PrefetcherChoice::IpStride, "baseline L1D"),
        (PrefetcherChoice::NextLine, "fallback class"),
        (PrefetcherChoice::Stream, "classic streams"),
        (PrefetcherChoice::Bop, "DPC-2 winner (global offset)"),
        (PrefetcherChoice::Mlop, "DPC-3 3rd (multi-lookahead)"),
        (PrefetcherChoice::Ipcp, "DPC-3 winner (IP classes)"),
        (PrefetcherChoice::Vldp, "variable-length deltas"),
        (PrefetcherChoice::Berti, "this paper"),
    ] {
        let p = choice.build();
        ctx.line(format!(
            "{:<12} {:>9.2} KB  {role}",
            p.name(),
            kb(p.storage_bits())
        ));
    }
    ctx.line("--- L2-hosted ---".to_string());
    for choice in [
        L2PrefetcherChoice::SppPpf,
        L2PrefetcherChoice::Bingo,
        L2PrefetcherChoice::Ipcp,
        L2PrefetcherChoice::Misb,
    ] {
        let p = choice.build();
        ctx.line(format!(
            "{:<12} {:>9.2} KB  L2 prefetcher",
            p.name(),
            kb(p.storage_bits())
        ));
    }
}

// ---- Figures ----

fn fig01_accuracy_energy(ctx: &mut Ctx) {
    let workloads = memory_intensive_suite();
    let configs = vec![
        (PrefetcherChoice::Ipcp, None),
        (PrefetcherChoice::Mlop, None),
        (PrefetcherChoice::IpStride, Some(L2PrefetcherChoice::SppPpf)),
        (PrefetcherChoice::IpStride, Some(L2PrefetcherChoice::Bingo)),
        (PrefetcherChoice::Berti, None),
    ];
    let (none, grid) = grid_vs(ctx, PrefetcherChoice::None, configs, &workloads);
    ctx.line(format!(
        "{:<20} {:>10} {:>14} {:>14}",
        "prefetcher", "accuracy", "energy(SPEC)", "energy(GAP)"
    ));
    for SuiteRuns { label, runs } in &grid {
        let acc = suite_mean(&workloads, runs, None, |r| r.l1d_accuracy()) * 100.0;
        let [spec, gap] = energy_ratios(&workloads, runs, &none);
        ctx.line(format!(
            "{label:<20} {acc:>9.1}% {spec:>13.2}x {gap:>13.2}x"
        ));
    }
}

/// Demonstrates Sec. II-B on the mcf-like workload: the best delta
/// differs per IP, so one global delta (BOP's) cannot cover the access
/// stream.
fn fig03_local_vs_global(ctx: &mut Ctx) {
    let mut trace = memory_intensive_suite()
        .into_iter()
        .find(|w| w.name == "mcf-1554-like")
        .expect("workload exists")
        .trace();
    let mut berti = Berti::new(BertiConfig::default());
    let mut bop = BestOffset::new(FillLevel::L1);
    let mut out = Vec::new();
    let mut t = 0u64;
    let mut ips: Vec<Ip> = Vec::new();
    // Feed both prefetchers the same miss stream with a synthetic
    // 200-cycle fetch latency; accesses 20 cycles apart.
    for _ in 0..600_000 {
        let i = trace.next_instr();
        let Some(addr) = i.loads[0] else { continue };
        t += 20;
        let line = addr.line();
        let ev = AccessEvent {
            ip: i.ip,
            line,
            at: Cycle::new(t),
            kind: AccessKind::Load,
            hit: false,
            timely_prefetch_hit: false,
            late_prefetch_hit: false,
            stored_latency: 0,
            mshr_occupancy: 0.2,
        };
        out.clear();
        berti.on_access(&ev, &mut out);
        out.clear();
        bop.on_access(&ev, &mut out);
        let fill = FillEvent {
            line,
            ip: i.ip,
            at: Cycle::new(t + 200),
            latency: 200,
            was_prefetch: false,
        };
        berti.on_fill(&fill);
        bop.on_fill(&fill);
        if !ips.contains(&i.ip) {
            ips.push(i.ip);
        }
    }
    ctx.line(format!("BOP global best delta: {:?}\n", bop.best_offset()));
    ctx.line(format!(
        "{:<12} {:<60}",
        "IP", "Berti learned deltas (delta@status)"
    ));
    ips.sort();
    for ip in ips {
        let learned = berti.learned_deltas(ip);
        if learned.is_empty() {
            continue;
        }
        let deltas: String = learned
            .iter()
            .map(|d| format!("{}@{:?} ", d.delta, d.status))
            .collect();
        ctx.line(format!("{:<12} {deltas}", format!("{ip}")));
    }
}

fn fig07_speedup_storage(ctx: &mut Ctx) {
    let workloads = memory_intensive_suite();
    let configs = all_contenders();
    let (baseline, mut grid) = grid_vs(ctx, PrefetcherChoice::IpStride, configs, &workloads);
    ctx.line(format!(
        "{:<16} {:>10} {:>10}  kind",
        "config", "storage", "speedup"
    ));
    grid.sort_by_key(|cfg| cfg.runs[0].prefetcher_storage_bits);
    for cfg in &grid {
        let (label, kb) = (&cfg.label, kb(cfg.runs[0].prefetcher_storage_bits));
        let s = geomean_speedup(&workloads, &cfg.runs, &baseline, None);
        let kind = if label.contains('+') { "L1D+L2" } else { "L1D" };
        ctx.line(format!("{label:<16} {kb:>7.2} KB {s:>9.3}x  {kind}"));
    }
}

fn fig08_l1d_speedup(ctx: &mut Ctx) {
    speedup_percent_table(ctx, "prefetcher", 12, l1d_configs());
}

/// SPEC-like (a) and GAP-like (b) workloads, one line each.
fn fig09_per_trace(ctx: &mut Ctx) {
    let workloads = memory_intensive_suite();
    let (baseline, grid) = grid_vs(ctx, PrefetcherChoice::IpStride, l1d_configs(), &workloads);
    let labels = grid.iter().map(|c| format!("{:>8}", c.label));
    row(ctx, "trace", 18, labels);
    for (i, w) in workloads.iter().enumerate() {
        let speedups = grid.iter().map(|c| c.runs[i].speedup_over(&baseline[i]));
        row(ctx, &w.name, 18, speedups.map(|s| format!("{s:>8.3}")));
    }
}

/// Accuracy by the artifact formula, split into timely and late useful
/// prefetches.
fn fig10_accuracy(ctx: &mut Ctx) {
    let workloads = memory_intensive_suite();
    let grid = ctx.run_grid(&SystemConfig::default(), &l1d_configs(), &workloads);
    let columns = ["acc(SPEC)", "acc(GAP)", "acc(all)", "late frac"];
    row(ctx, "prefetcher", 12, heads(columns, 12));
    for SuiteRuns { label, runs } in &grid {
        let [spec, gap, all] = [Some(Suite::Spec), Some(Suite::Gap), None]
            .map(|s| suite_mean(&workloads, runs, s, |r| r.l1d_accuracy()) * 100.0);
        let late = suite_mean(&workloads, runs, None, |r| r.l1d_late_fraction()) * 100.0;
        ctx.line(format!(
            "{label:<12} {spec:>11.1}% {gap:>11.1}% {all:>11.1}% {late:>11.1}%"
        ));
    }
}

fn fig11_mpki(ctx: &mut Ctx) {
    let workloads = memory_intensive_suite();
    let configs = prepend(PrefetcherChoice::IpStride, l1d_configs());
    let grid = ctx.run_grid(&SystemConfig::default(), &configs, &workloads);
    ctx.line(format!(
        "{:<12} {:>22} {:>22}",
        "", "SPEC (L1D/L2/LLC)", "GAP (L1D/L2/LLC)"
    ));
    for SuiteRuns { label, runs } in &grid {
        let [s1, s2, s3] = suite_mpki(&workloads, runs, Suite::Spec);
        let [g1, g2, g3] = suite_mpki(&workloads, runs, Suite::Gap);
        ctx.line(format!(
            "{label:<12} {s1:>6.1}/{s2:>6.1}/{s3:>6.1} {g1:>8.1}/{g2:>6.1}/{g3:>6.1}"
        ));
    }
}

/// The combinations next to Berti alone.
fn fig12_multilevel(ctx: &mut Ctx) {
    let configs = prepend(PrefetcherChoice::Berti, multilevel_contenders());
    speedup_percent_table(ctx, "config", 16, configs);
}

fn fig13_multilevel_mpki(ctx: &mut Ctx) {
    let workloads = memory_intensive_suite();
    let grid = ctx.run_grid(&SystemConfig::default(), &all_contenders(), &workloads);
    ctx.line(format!(
        "{:<16} {:>18} {:>18}",
        "config", "SPEC (L2/LLC)", "GAP (L2/LLC)"
    ));
    for SuiteRuns { label, runs } in &grid {
        let [_, s2, s3] = suite_mpki(&workloads, runs, Suite::Spec);
        let [_, g2, g3] = suite_mpki(&workloads, runs, Suite::Gap);
        ctx.line(format!(
            "{label:<16} {s2:>8.1}/{s3:>8.1} {g2:>9.1}/{g3:>8.1}"
        ));
    }
}

fn fig14_traffic(ctx: &mut Ctx) {
    let workloads = memory_intensive_suite();
    let configs = prepend(PrefetcherChoice::IpStride, all_contenders());
    let (none, grid) = grid_vs(ctx, PrefetcherChoice::None, configs, &workloads);
    let links = ["L1D->L2", "L2->LLC", "LLC<->DRAM"];
    row(ctx, "config", 16, heads(links, 12));
    let traffic = |r: &Report| <[u64; 3]>::from(r.traffic());
    for SuiteRuns { label, runs } in &grid {
        let ratios = [0, 1, 2].map(|link| {
            let ratio = |(r, b)| traffic(r)[link] as f64 / traffic(b)[link].max(1) as f64;
            mean(runs.iter().zip(&none).map(ratio))
        });
        row(ctx, label, 16, ratios.map(|x| format!("{x:>11.2}x")));
    }
}

fn fig15_energy(ctx: &mut Ctx) {
    let workloads = memory_intensive_suite();
    let configs = prepend(PrefetcherChoice::IpStride, all_contenders());
    let (none, grid) = grid_vs(ctx, PrefetcherChoice::None, configs, &workloads);
    row(ctx, "config", 16, heads(["SPEC", "GAP"], 12));
    for SuiteRuns { label, runs } in &grid {
        let ratios = energy_ratios(&workloads, runs, &none);
        row(ctx, label, 16, ratios.map(|x| format!("{x:>11.2}x")));
    }
}

fn fig16_bandwidth_l1d(ctx: &mut Ctx) {
    bandwidth_sweep(ctx, "prefetcher", 12, l1d_configs());
    ctx.line("(speedups are vs IP-stride at the same bandwidth)".to_string());
}

/// The combinations next to Berti alone.
fn fig17_bandwidth_multilevel(ctx: &mut Ctx) {
    let configs = prepend(PrefetcherChoice::Berti, multilevel_contenders());
    bandwidth_sweep(ctx, "config", 16, configs);
}

fn fig18_cloudsuite(ctx: &mut Ctx) {
    let workloads = cloud::suite();
    let (baseline, grid) = grid_vs(ctx, PrefetcherChoice::IpStride, l1d_configs(), &workloads);
    let labels = grid.iter().map(|c| format!("{:>8}", c.label));
    row(
        ctx,
        "service",
        22,
        labels.chain([format!("{:>10}", "base MPKI")]),
    );
    for (i, w) in workloads.iter().enumerate() {
        let speedups = grid.iter().map(|c| c.runs[i].speedup_over(&baseline[i]));
        let base_mpki = format!("{:>10.1}", baseline[i].l1d_mpki());
        let cells = speedups.map(|s| format!("{s:>8.3}")).chain([base_mpki]);
        row(ctx, &w.name, 22, cells);
    }
    let geomeans = grid
        .iter()
        .map(|c| geomean_speedup(&workloads, &c.runs, &baseline, None));
    row(ctx, "geomean", 22, geomeans.map(|s| format!("{s:>8.3}")));
}

fn fig19_misb(ctx: &mut Ctx) {
    // One grid over both workload lists, CloudSuite first; each
    // contender alone, then with MISB.
    let mut workloads = cloud::suite();
    let n_cloud = workloads.len();
    workloads.extend(memory_intensive_suite());
    let configs = l1d_contenders()
        .into_iter()
        .flat_map(|l1| [(l1.clone(), None), (l1, Some(L2PrefetcherChoice::Misb))])
        .collect();
    let (baseline, grid) = grid_vs(ctx, PrefetcherChoice::IpStride, configs, &workloads);
    for (suite_name, part) in [
        ("CloudSuite", 0..n_cloud),
        ("SPEC+GAP", n_cloud..workloads.len()),
    ] {
        ctx.line(format!("--- {suite_name} ---"));
        row(ctx, "prefetcher", 16, heads(["alone", "+MISB"], 12));
        for pair in grid.chunks(2) {
            let speedups = [&pair[0], &pair[1]].map(|cfg| {
                let (w, b) = (&workloads[part.clone()], &baseline[part.clone()]);
                let s = geomean_speedup(w, &cfg.runs[part.clone()], b, None);
                format!("{s:>11.3}x")
            });
            row(ctx, &pair[0].label, 16, speedups);
        }
    }
}

/// A campaign cell names one workload, so the 4-core mixes call
/// `simulate_multicore` directly.
fn fig20_multicore(ctx: &mut Ctx) {
    let cfg = SystemConfig::default();
    let n_mixes: usize = std::env::var("BERTI_MIXES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let mixes = random_mixes(n_mixes, 4, 0xF1620);
    ctx.line(format!("{:<12} {:>14}", "prefetcher", "geomean speedup"));
    // Every contender is measured against the same baseline run of a mix.
    let baselines: Vec<_> = mixes
        .iter()
        .map(|mix| simulate_multicore(&cfg, PrefetcherChoice::IpStride, None, mix, &ctx.sim))
        .collect();
    for l1 in l1d_contenders() {
        let speedups: Vec<f64> = mixes
            .iter()
            .zip(&baselines)
            .map(|(mix, base)| {
                simulate_multicore(&cfg, l1.clone(), None, mix, &ctx.sim).speedup_over(base)
            })
            .collect();
        let percent = (geometric_mean(&speedups) - 1.0) * 100.0;
        ctx.line(format!("{:<12} {percent:>13.1}%", l1.name()));
    }
    ctx.line(format!(
        "({n_mixes} mixes of 4 workloads; set BERTI_MIXES to widen)"
    ));
}

fn fig21_watermarks(ctx: &mut Ctx) {
    let workloads = memory_intensive_suite();
    let l1_marks = [0.35, 0.50, 0.65, 0.80];
    let l2_marks = [0.05, 0.20, 0.35, 0.50];
    // One configuration per cell of the table that has one (L2 mark at
    // most the L1 mark), row by row.
    let filled = |l1: f64, l2: f64| l2 <= l1;
    let configs = l1_marks
        .iter()
        .flat_map(|&l1| l2_marks.iter().map(move |&l2| (l1, l2)))
        .filter(|&(l1, l2)| filled(l1, l2))
        .map(|(l1, l2)| {
            let cfg = BertiConfig {
                high_watermark: l1,
                medium_watermark: l2,
                low_watermark: l2,
                ..BertiConfig::default()
            };
            (PrefetcherChoice::BertiWith(cfg), None)
        })
        .collect();
    let (baseline, grid) = grid_vs(ctx, PrefetcherChoice::IpStride, configs, &workloads);
    let mut speedups = grid
        .iter()
        .map(|cfg| geomean_speedup(&workloads, &cfg.runs, &baseline, None));
    let heads = l2_marks.map(|l2| format!("{:>7.0}%", l2 * 100.0));
    row(ctx, "L1\\L2", 10, heads);
    for l1 in l1_marks {
        let cells = l2_marks.map(|l2| {
            if !filled(l1, l2) {
                return format!("{:>8}", "-");
            }
            let s = speedups.next().expect("one configuration per filled cell");
            format!("{s:>8.3}")
        });
        row(ctx, &format!("{:>8.0}% ", l1 * 100.0), 0, cells);
    }
}

fn fig22_table_sizes(ctx: &mut Ctx) {
    let workloads = memory_intensive_suite();
    let structures = ["history", "delta-table", "num-deltas"];
    let factors = [0.25, 0.5, 1.0, 2.0, 4.0];
    let scaled = |structure: &str, f: f64| {
        let mut cfg = BertiConfig::default();
        let scale = |n: usize| ((n as f64 * f).round() as usize).max(1);
        match structure {
            "history" => cfg.history_sets = scale(cfg.history_sets),
            "delta-table" => cfg.delta_table_entries = scale(cfg.delta_table_entries),
            _ => cfg.deltas_per_entry = scale(cfg.deltas_per_entry),
        }
        (PrefetcherChoice::BertiWith(cfg), None)
    };
    let configs = structures
        .iter()
        .flat_map(|s| factors.map(|f| scaled(s, f)))
        .collect();
    let (baseline, grid) = grid_vs(ctx, PrefetcherChoice::IpStride, configs, &workloads);
    let columns = ["0.25x", "0.50x", "1x", "2x", "4x"];
    row(ctx, "structure", 14, heads(columns, 8));
    for (structure, sweep) in structures.iter().zip(grid.chunks(factors.len())) {
        let speedups = sweep
            .iter()
            .map(|cfg| geomean_speedup(&workloads, &cfg.runs, &baseline, None));
        row(ctx, structure, 14, speedups.map(|s| format!("{s:>8.3}")));
    }
}

// ---- Sec. IV-J sensitivity studies ----

fn sens_latency_bits(ctx: &mut Ctx) {
    let variants = [4u32, 8, 12, 32].map(|latency_bits| {
        let cfg = BertiConfig {
            latency_bits,
            ..BertiConfig::default()
        };
        (latency_bits.to_string(), cfg)
    });
    berti_variants_table(ctx, "bits", 10, &variants);
}

/// Issue across pages suppressed, training kept.
fn sens_cross_page(ctx: &mut Ctx) {
    let variants = [("on", true), ("off", false)].map(|(label, cross_page)| {
        let cfg = BertiConfig {
            cross_page,
            ..BertiConfig::default()
        };
        (label.to_string(), cfg)
    });
    berti_variants_table(ctx, "cross-page", 14, &variants);
}

/// Per-IP deltas (the MICRO 2022 Berti) vs per-page deltas (the DPC-3
/// predecessor) vs one global delta (BOP) — quantifying Sec. II-B's
/// "why a *local* delta prefetcher, and why the IP as the context".
fn sens_local_context(ctx: &mut Ctx) {
    let workloads = memory_intensive_suite();
    let contexts = [
        ("per-IP", PrefetcherChoice::Berti),
        ("per-page", PrefetcherChoice::BertiPage),
        ("global (BOP)", PrefetcherChoice::Bop),
    ];
    let configs = contexts.iter().map(|(_, l1)| (l1.clone(), None)).collect();
    let (baseline, grid) = grid_vs(ctx, PrefetcherChoice::IpStride, configs, &workloads);
    let columns = ["SPEC", "GAP", "overall", "accuracy"];
    row(ctx, "context", 14, heads(columns, 10));
    for ((label, _), cfg) in contexts.iter().zip(&grid) {
        let [spec, gap, all] = suite_speedups(&workloads, &cfg.runs, &baseline);
        let acc = suite_mean(&workloads, &cfg.runs, None, |r| r.l1d_accuracy()) * 100.0;
        ctx.line(format!(
            "{label:<14} {spec:>9.3}x {gap:>9.3}x {all:>9.3}x {acc:>9.1}%"
        ));
    }
}

// ---- user-supplied traces ----

/// The paper's per-trace evaluation (Fig. 8/9 shape) for real ChampSim
/// or pre-decoded `.btrc` traces instead of the synthetic suites: every
/// trace file discovered in `trace_dir` (`.btrc`, `.trace`,
/// `.champsim[trace]`, optionally `.xz`/`.gz`-compressed) runs under
/// IP-stride and the L1D contenders. `json_out` additionally gets the
/// IPCs and speedups as JSON.
fn fig_real_traces(ctx: &mut Ctx, trace_dir: &Path, json_out: Option<&Path>) -> io::Result<()> {
    let dir = trace_dir.display();
    let registry = TraceRegistry::with_trace_dir(trace_dir)
        .map_err(|e| io::Error::other(format!("scanning {dir}: {e}")))?;
    let traces: Vec<_> = registry.trace_workloads().cloned().collect();
    if traces.is_empty() {
        return Err(io::Error::other(format!(
            "no trace files in {dir} (looked for .btrc/.trace/.champsim[.xz|.gz])"
        )));
    }
    let configs = prepend(PrefetcherChoice::IpStride, l1d_configs());
    let grid = ctx.run_grid(&SystemConfig::default(), &configs, &traces);
    let (baseline, contenders) = (&grid[0].runs, &grid[1..]);
    let percent = |speedup: f64| format!("{:>9.1}%", (speedup - 1.0) * 100.0);

    let labels = contenders.iter().map(|c| format!("{:>10}", c.label));
    row(ctx, "trace", 24, labels);
    for (ti, w) in traces.iter().enumerate() {
        let speedups = contenders
            .iter()
            .map(|c| c.runs[ti].speedup_over(&baseline[ti]));
        row(ctx, &w.name, 24, speedups.map(percent));
    }
    let geomeans = contenders
        .iter()
        .map(|c| geomean_speedup(&traces, &c.runs, baseline, None));
    row(ctx, "geomean", 24, geomeans.map(percent));

    let Some(json_out) = json_out else {
        return Ok(());
    };
    let rows: Vec<(String, Value)> = grid
        .iter()
        .map(|c| {
            let per_trace = traces.iter().zip(c.runs.iter().zip(baseline));
            let per_trace = per_trace.map(|(w, (r, b))| {
                let cell = vec![
                    ("ipc".to_string(), Value::F64(r.ipc())),
                    ("speedup".to_string(), Value::F64(r.speedup_over(b))),
                ];
                (w.name.clone(), Value::Object(cell))
            });
            (c.label.clone(), Value::Object(per_trace.collect()))
        })
        .collect();
    let doc = Value::Object(vec![
        ("trace_dir".to_string(), Value::Str(dir.to_string())),
        ("results".to_string(), Value::Object(rows)),
    ]);
    let body = serde::json::to_string_pretty(&doc) + "\n";
    std::fs::write(json_out, body)
        .map_err(|e| io::Error::new(e.kind(), format!("writing {}: {e}", json_out.display())))?;
    ctx.line(format!("wrote {}", json_out.display()));
    Ok(())
}
