//! Every prefetcher under both engines, as rows of the byte-identity
//! matrix (`matrix/mod.rs`): each row's skip-ahead cell, rotated over
//! the ways into the driver, must equal its naive `Direct` cell.

mod matrix;

use berti_traces::spec;
use matrix::{
    check, Engine, Input, L2PrefetcherChoice, PrefetcherChoice, Row, Way, SKIP_WAYS, SWEEP,
};

/// Every L1D prefetcher × a slice of the suite's pattern families: pure
/// streams, interleaved +1/+2, irregular memory-bound, pointer-heavy.
#[test]
fn every_l1_prefetcher_agrees_across_engines() {
    let l1s = [
        PrefetcherChoice::None,
        PrefetcherChoice::IpStride,
        PrefetcherChoice::NextLine,
        PrefetcherChoice::Stream,
        PrefetcherChoice::Bop,
        PrefetcherChoice::Mlop,
        PrefetcherChoice::Ipcp,
        PrefetcherChoice::Vldp,
        PrefetcherChoice::Berti,
        PrefetcherChoice::BertiPage,
    ];
    let mut rows = Vec::new();
    for name in ["bwaves-like", "lbm-like", "mcf-782-like", "omnetpp-like"] {
        for l1 in &l1s {
            let row = Row::workload(name, l1.clone(), SWEEP);
            rows.push(row.cell(SKIP_WAYS[rows.len() % 4], Engine::SkipAhead));
        }
    }
    check("l1", &rows);
}

/// Berti, the heaviest user of the shadowed structures, over the whole
/// SPEC-like suite.
#[test]
fn berti_agrees_across_engines_on_the_whole_suite() {
    let rows: Vec<Row> = spec::suite()
        .into_iter()
        .enumerate()
        .map(|(i, w)| {
            Row::new(Input::Workload(w), PrefetcherChoice::Berti, SWEEP)
                .cell(SKIP_WAYS[i % 4], Engine::SkipAhead)
        })
        .collect();
    check("berti", &rows);
}

/// Every L2 prefetcher behind Berti on an irregular workload, where the
/// L1D's filtered miss stream keeps it busiest.
#[test]
fn every_l2_prefetcher_agrees_across_engines() {
    let l2s = [
        L2PrefetcherChoice::SppPpf,
        L2PrefetcherChoice::Bingo,
        L2PrefetcherChoice::Ipcp,
        L2PrefetcherChoice::Misb,
        L2PrefetcherChoice::Vldp,
        L2PrefetcherChoice::Sms,
    ];
    let rows: Vec<Row> = l2s
        .into_iter()
        .enumerate()
        .map(|(i, l2)| {
            Row::workload("mcf-782-like", PrefetcherChoice::Berti, SWEEP)
                .l2(l2)
                .cell(SKIP_WAYS[i % 4], Engine::SkipAhead)
        })
        .collect();
    check("l2", &rows);
}

/// The first two SPEC-like workloads sharing the LLC and DRAM.
#[test]
fn multicore_agrees_across_engines() {
    let pair = Input::Mix(spec::suite().into_iter().take(2).collect());
    let row = Row::new(pair, PrefetcherChoice::Berti, SWEEP).cell(Way::Direct, Engine::SkipAhead);
    check("two-core", &[row]);
}
