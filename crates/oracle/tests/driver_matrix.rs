//! Three workloads under one L1D prefetcher each, as rows of the
//! byte-identity matrix (`matrix/mod.rs`): the whole workload with its
//! cells rotated over the ways into the driver, a slice of it streamed
//! from a written `.btrc` against the same slice replayed from memory,
//! and the workload sharing the LLC and DRAM with the next one. A
//! 4-core mix shaped like the benchmark's `cell_mc4` closes the file.

mod matrix;

use berti_traces::{Suite, TraceBuilder, WorkloadDef};
use berti_types::Instr;
use matrix::{
    check, file_workload, workload, Engine, Input, PrefetcherChoice, Row, Way, FIXTURE, MIX, SWEEP,
};

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

/// Instructions in each of the 4-core mix's two generated traces.
const MC4_INSTRS: usize = 20_000;

/// Four IPs walking a 16 KiB array in turn: after warm-up every access
/// hits the L1D, and nearly every decision a prefetcher makes on it
/// names a line the L1D holds.
fn l1d_resident_loop() -> Vec<Instr> {
    const LINES: u64 = (16 << 10) / 64;
    let mut b = TraceBuilder::new(0x07);
    let mut i = 0;
    while b.len() < MC4_INSTRS {
        b.load_line(0x40_4000 + (i % 4) * 8, 0x1_0000_0000, i % LINES);
        b.alu(2);
        i += 1;
    }
    b.build()
}

/// A dependent chase over 64 MiB, eight times the 4-core LLC: nearly
/// every load goes to DRAM, so this core finishes last and the others
/// replay their traces alone for most of the run.
fn chase_far_beyond_the_llc() -> Vec<u8> {
    const LINES: u64 = (64 << 20) / 64;
    let mut b = TraceBuilder::new(0xc4);
    let mut k = 0u64;
    while b.len() < MC4_INSTRS {
        k += 1;
        let line = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % LINES;
        b.dep_load_line(0x40_3000, 0x2_0000_0000, line, 0);
        b.alu(6);
    }
    b.into_body()
}

/// A 4-core mix shaped like the benchmark's `cell_mc4`: an L1D-resident
/// loop replayed from a `.btrc` file, a chase far larger than the LLC,
/// and two builtins. The resident core retires far more than its
/// budget while the chase finishes, so the prefetcher's dropped-present
/// path runs through long lone replays; naive and skip-ahead (partial
/// quiescence) must agree on every core's report.
#[test]
fn four_core_mix_agrees_across_engines() {
    let (resident, _file) = file_workload("l1d-resident", &l1d_resident_loop());
    let chase = WorkloadDef::new("chase-64m", Suite::Spec, chase_far_beyond_the_llc);
    let mix = vec![
        resident,
        chase,
        workload("mcf-1554-like"),
        workload("lbm-like"),
    ];
    let rows: Vec<Row> = [PrefetcherChoice::IpStride, PrefetcherChoice::Berti]
        .into_iter()
        .map(|l1| Row::new(Input::Mix(mix.clone()), l1, SWEEP).cell(Way::Direct, Engine::SkipAhead))
        .collect();
    check("driver-mc4", &rows);
}
