//! Seeded trace fixtures.
//!
//! The seed drives [`berti_traces::TraceBuilder`] here, in the
//! benchmark; the program under test only ever sees the `.btrc` files.
//! The bytes are a pure function of the seed. Footprints are chosen
//! against the modelled L1D 48 KiB / L2 512 KiB / LLC 2 MiB. The seed
//! moves region placement, stream phases, stride assignment and
//! interleaving order, not the *shape* of a fixture, so simulated
//! metrics stay within a narrow band across seeds and host-time
//! metrics compare across seeds.

use std::path::Path;

use berti_traces::ingest::{encode_btrc, fnv1a64};
use berti_traces::{TraceBuilder, TraceRegistry, WorkloadDef};
use berti_types::Instr;
use rand::RngExt;

/// The four fixtures, in the order every sweep visits them.
pub const FIXTURES: [&str; 4] = ["t_stride", "t_delta", "t_chase", "t_hot"];

/// Instructions per fixture in a full run.
pub const FULL_INSTRS: usize = 400_000;

const LINES_PER_MIB: u64 = (1 << 20) / 64;

fn builder(seed: u64, tag: u64) -> TraceBuilder {
    // Distinct, well-mixed streams per (seed, fixture).
    TraceBuilder::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag)
}

/// A page-aligned base inside a private 4 GiB window per region, so
/// regions never overlap whatever the seed picks.
fn region_base(b: &mut TraceBuilder, region: u64) -> u64 {
    (region + 1) * 0x1_0000_0000 + b.rng().random_range(0..4096u64) * 4096
}

/// Four IPs with constant strides of 1, 2, 4 and 7 lines (the larger
/// ones cross a page every few accesses) over 7 MiB, plus a unit-stride
/// store stream over 1 MiB that exercises the RFO and write-back path.
/// Four element loads per line with compute in between keep the MPKI in
/// the range of the paper's memory-intensive traces (~30 without
/// prefetching) instead of saturating DRAM, where the model turns
/// chaotic in the start phases the seed picks.
fn t_stride(seed: u64, instrs: usize) -> Vec<Instr> {
    const STRIDES: [u64; 4] = [1, 2, 4, 7];
    const LOAD_LINES: u64 = 7 * LINES_PER_MIB / 4;
    let mut b = builder(seed, 0x57);
    let bases: Vec<u64> = (0..5).map(|r| region_base(&mut b, r)).collect();
    let mut pos: Vec<u64> = (0..5)
        .map(|_| b.rng().random_range(0..LINES_PER_MIB))
        .collect();
    while b.len() < instrs {
        for (k, stride) in STRIDES.iter().enumerate() {
            b.stream_line(
                0x40_1000 + k as u64 * 0x10,
                bases[k],
                pos[k] % LOAD_LINES,
                4,
                9,
            );
            pos[k] += stride;
        }
        b.store_line(0x40_1100, bases[4], pos[4] % LINES_PER_MIB);
        pos[4] += 1;
        b.alu(2);
    }
    finish(b, instrs)
}

/// Per-IP repeating *local* delta sequences, interleaved in seeded
/// random order so the global delta stream looks chaotic: the paper's
/// motivating case (Sec. II-B). No IP has a constant stride, so
/// IP-stride never gains confidence, while each IP's k-back local delta
/// is constant.
fn t_delta(seed: u64, instrs: usize) -> Vec<Instr> {
    const PATTERNS: [&[u64]; 4] = [&[1, 2], &[3, 1, 2], &[2, 5, 1], &[4, 1]];
    let mut b = builder(seed, 0xde);
    let bases: Vec<u64> = (0..4).map(|r| region_base(&mut b, r)).collect();
    let mut pos: Vec<u64> = (0..4)
        .map(|_| b.rng().random_range(0..LINES_PER_MIB))
        .collect();
    let mut step = [0usize; 4];
    while b.len() < instrs {
        let k = b.rng().random_range(0..4usize);
        // Each IP's loads form its own dependence chain, as a loop
        // walking one structure does: that bounds the memory-level
        // parallelism and makes timeliness matter.
        b.dep_load_line(
            0x40_2000 + k as u64 * 0x18,
            bases[k],
            pos[k] % (2 * LINES_PER_MIB),
            k as u8,
        );
        pos[k] += PATTERNS[k][step[k] % PATTERNS[k].len()];
        step[k] += 1;
        b.alu(5);
    }
    finish(b, instrs)
}

/// A dependent pointer chase over 16 MiB: DRAM-bound, IPC ≈ 0.03, the
/// prefetchers find nothing and the skip-ahead engine does the work.
fn t_chase(seed: u64, instrs: usize) -> Vec<Instr> {
    let mut b = builder(seed, 0xc4);
    let base = region_base(&mut b, 0);
    while b.len() < instrs {
        let line = b.rng().random_range(0..16 * LINES_PER_MIB);
        b.dep_load_line(0x40_3000, base, line, 0);
        b.alu(6);
    }
    finish(b, instrs)
}

/// A 16 KiB footprint: after warm-up every access hits the L1D, IPC
/// sits near the issue width, and the core model does nearly all the
/// work.
fn t_hot(seed: u64, instrs: usize) -> Vec<Instr> {
    const LINES: u64 = (16 << 10) / 64;
    let mut b = builder(seed, 0x07);
    let base = region_base(&mut b, 0);
    let mut i = b.rng().random_range(0..LINES);
    while b.len() < instrs {
        b.load_line(0x40_4000 + (i % 4) * 8, base, i % LINES);
        b.alu(2);
        i += 1;
    }
    finish(b, instrs)
}

fn finish(b: TraceBuilder, instrs: usize) -> Vec<Instr> {
    let mut v = b.build();
    v.truncate(instrs);
    v
}

/// Generates fixture `name` for `seed`.
///
/// # Panics
///
/// Panics on a name outside [`FIXTURES`].
pub fn generate(name: &str, seed: u64, instrs: usize) -> Vec<Instr> {
    match name {
        "t_stride" => t_stride(seed, instrs),
        "t_delta" => t_delta(seed, instrs),
        "t_chase" => t_chase(seed, instrs),
        "t_hot" => t_hot(seed, instrs),
        other => panic!("no fixture `{other}`"),
    }
}

/// Encodes every fixture for `seed` into `dir/<name>.btrc` and returns
/// the FNV-1a-64 of each file's bytes, in [`FIXTURES`] order.
pub fn write_all(dir: &Path, seed: u64, instrs: usize) -> std::io::Result<Vec<u64>> {
    std::fs::create_dir_all(dir)?;
    FIXTURES
        .iter()
        .map(|name| {
            let bytes = encode_btrc(&generate(name, seed, instrs));
            std::fs::write(dir.join(format!("{name}.btrc")), &bytes)?;
            Ok(fnv1a64(&bytes))
        })
        .collect()
}

/// The fixture files of `dir` as file-backed workloads (mmap'd
/// `.btrc`), in [`FIXTURES`] order, found the way the program finds
/// them: by a registry scan of the directory.
pub fn discover(dir: &Path) -> Result<Vec<WorkloadDef>, String> {
    let mut reg = TraceRegistry::empty();
    reg.discover(dir).map_err(|e| e.to_string())?;
    FIXTURES
        .iter()
        .map(|n| {
            reg.get(n)
                .cloned()
                .ok_or_else(|| format!("no fixture `{n}` in {}", dir.display()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fnvs(seed: u64) -> Vec<u64> {
        FIXTURES
            .iter()
            .map(|n| fnv1a64(&encode_btrc(&generate(n, seed, 20_000))))
            .collect()
    }

    #[test]
    fn fixture_bytes_are_a_pure_function_of_the_seed() {
        assert_eq!(fnvs(1), fnvs(1));
        assert_eq!(fnvs(77), fnvs(77));
        for (a, b) in fnvs(1).iter().zip(fnvs(2)) {
            assert_ne!(*a, b, "another seed, other bytes");
        }
    }

    #[test]
    fn fixtures_have_the_requested_length_and_footprint() {
        for name in FIXTURES {
            assert_eq!(generate(name, 3, 12_345).len(), 12_345);
        }
        let lines = |name: &str| {
            let mut l: Vec<u64> = generate(name, 1, 100_000)
                .iter()
                .filter_map(|i| i.loads[0].or(i.store))
                .map(|a| a.raw() / 64)
                .collect();
            l.sort_unstable();
            l.dedup();
            l.len() as u64
        };
        assert_eq!(lines("t_hot"), 256, "16 KiB");
        assert!(lines("t_chase") > 10_000, "spread over 16 MiB");
    }
}
