//! Three workloads under one L1D prefetcher each, as rows of the
//! byte-identity matrix (`matrix/mod.rs`): the whole workload with its
//! cells rotated over the ways into the driver, a slice of it streamed
//! from a written `.btrc` against the same slice replayed from memory,
//! and the workload sharing the LLC and DRAM with the next one.

mod matrix;

use matrix::{check, workload, Engine, Input, PrefetcherChoice, Row, Way, FIXTURE, MIX};

const WORKLOADS: [&str; 3] = ["mcf-1554-like", "lbm-like", "pr-kron"];

const L1S: [PrefetcherChoice; 3] = [
    PrefetcherChoice::None,
    PrefetcherChoice::IpStride,
    PrefetcherChoice::Berti,
];

/// The rows of `l1`. The index `i` a workload's rows rotate by runs over
/// every (workload, L1D) pair, so that the three tests cover different
/// columns. The streamed `None` rows keep both engines; the others
/// alternate.
fn rows_agree_with(l1: PrefetcherChoice) {
    let mut rows = Vec::new();
    for (w, name) in WORKLOADS.iter().enumerate() {
        let i = w * L1S.len() + L1S.iter().position(|c| *c == l1).expect("a driver L1D");
        rows.push(Row::workload(name, l1.clone(), FIXTURE).rotated(i));

        let engines: &[Engine] = match (&l1, i % 2) {
            (PrefetcherChoice::None, _) => &[Engine::Naive, Engine::SkipAhead],
            (_, 0) => &[Engine::Naive],
            _ => &[Engine::SkipAhead],
        };
        let slice = Row::new(Input::Slice(workload(name)), l1.clone(), FIXTURE);
        rows.push(
            engines
                .iter()
                .fold(slice, |row, &engine| row.cell(Way::Streamed, engine)),
        );

        let partner = WORKLOADS[(w + 1) % WORKLOADS.len()];
        let mix = Input::Mix(vec![workload(name), workload(partner)]);
        rows.push(Row::new(mix, l1.clone(), MIX).cell(Way::Direct, Engine::SkipAhead));
    }
    check(&format!("driver-{}", l1.name()), &rows);
}

/// The stall-heaviest case: the cores sit quiescent on DRAM, so
/// skip-ahead takes its largest jumps.
#[test]
fn rows_agree_with_no_prefetcher() {
    rows_agree_with(PrefetcherChoice::None);
}

#[test]
fn rows_agree_with_ip_stride() {
    rows_agree_with(PrefetcherChoice::IpStride);
}

/// Berti keeps the prefetch queues busy, exercising the queue-event
/// bound on the skip target.
#[test]
fn rows_agree_with_berti() {
    rows_agree_with(PrefetcherChoice::Berti);
}
