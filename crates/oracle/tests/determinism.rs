//! Reproducibility, as rows of the byte-identity matrix
//! (`matrix/mod.rs`): a second simulation of the same system in the
//! same process, and a campaign's worker count and cache temperature,
//! change no byte of a report or of the campaign's aggregate.

mod matrix;

use berti_traces::{mix, spec};
use matrix::{check, check_with_jobs, Engine, Input, PrefetcherChoice, Row, Way};

/// The small campaign's budget.
const SMALL: (u64, u64) = (500, 2_000);

/// The naive reference simulated again as a one-slot mix, and the
/// skip-ahead cell.
#[test]
fn single_core_runs_are_bit_identical() {
    let w = Input::Workload(spec::suite().swap_remove(1));
    let row = Row::new(w, PrefetcherChoice::Berti, (10_000, 50_000))
        .cell(Way::OneSlot, Engine::Naive)
        .cell(Way::Direct, Engine::SkipAhead);
    check("repeat", &[row]);
}

/// A mix has only the `Direct` way, so its naive reference is simulated
/// a second time.
#[test]
fn multicore_runs_are_deterministic() {
    let mix0 = Input::Mix(mix::random_mixes(1, 2, 99).swap_remove(0));
    let row = Row::new(mix0, PrefetcherChoice::Ipcp, (2_000, 20_000))
        .cell(Way::Direct, Engine::Naive)
        .cell(Way::Direct, Engine::SkipAhead);
    check("repeat-mix", &[row]);
}

fn small_campaign(l1: PrefetcherChoice) -> Vec<Row> {
    ["lbm-like", "roms-like"]
        .into_iter()
        .map(|name| Row::workload(name, l1.clone(), SMALL).cell(Way::Campaign, Engine::SkipAhead))
        .collect()
}

/// Cold with one worker, warm from the cache with two.
#[test]
fn cold_then_warm_cache_is_byte_identical() {
    check("cold-warm", &small_campaign(PrefetcherChoice::IpStride));
}

/// Cold with two workers simulating at once, warm with one: every cold
/// cell still equals its naive reference.
#[test]
fn worker_count_does_not_change_the_aggregate() {
    check_with_jobs("workers", &small_campaign(PrefetcherChoice::Berti), [2, 1]);
}
