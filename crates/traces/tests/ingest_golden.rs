//! Golden-decode tests for the checked-in ChampSim fixture.
//!
//! `tests/fixtures/champsim_500.trace` (repo root) is 500 deterministic
//! 64-byte `input_instr` records produced by the sibling
//! `gen_champsim_fixture.py`. These tests pin the exact [`Instr`]
//! sequence the decoder emits — count, aggregate shape, the first
//! records field-by-field, and an FNV hash of the canonical `.btrc`
//! encoding — so any change to decode policy (operand spilling, the
//! branch predictor, dependence-chain tagging) shows up as a diff here,
//! not as silently different simulation results.

mod common;

use std::path::PathBuf;

use berti_traces::ingest::{encode_btrc, read_trace_file, write_btrc};
use berti_types::{Instr, Ip, VAddr};
use common::TempPath;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

/// FNV-1a 64 over a byte string (mirrors the `.btrc` body checksum).
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn load(ip: u64, a: u64) -> Instr {
    Instr::load(Ip::new(ip), VAddr::new(a))
}

#[test]
fn fixture_decodes_to_the_pinned_golden_sequence() {
    let instrs = read_trace_file(&fixture("champsim_500.trace")).expect("fixture decodes");

    // 500 source records; multi-operand records spill follow-ups.
    assert_eq!(instrs.len(), 682);
    let loads: usize = instrs
        .iter()
        .map(|i| i.loads.iter().flatten().count())
        .sum();
    let stores = instrs.iter().filter(|i| i.store.is_some()).count();
    let mispredicts = instrs.iter().filter(|i| i.mispredicted_branch).count();
    let chained = instrs.iter().filter(|i| i.dep_chain.is_some()).count();
    assert_eq!(
        (loads, stores, mispredicts, chained),
        (552, 253, 35, 263),
        "aggregate decode shape"
    );

    // The opening of the stream, field by field: plain loads, a
    // 3-operand load spilling a same-ip follow-up, a correctly
    // predicted branch (decodes to a no-op record), and a double
    // store spilling its second operand.
    let mut expected = [
        load(0x40_0000, 0x10_0000),
        load(0x40_0004, 0x10_0048),
        load(0x40_0008, 0x20_0020),
        load(0x40_0008, 0x20_00a0),
        Instr::alu(Ip::new(0x40_000c)),
        Instr::store(Ip::new(0x40_0010), VAddr::new(0x48_0020)),
        Instr::store(Ip::new(0x40_0010), VAddr::new(0x50_0020)),
        load(0x40_0014, 0x10_0168),
    ];
    expected[2].loads[1] = Some(VAddr::new(0x20_0060));
    assert_eq!(&instrs[..expected.len()], &expected[..]);

    // One number pinning every field of all 682 records: the FNV-1a
    // hash of the canonical .btrc encoding.
    let encoded = encode_btrc(&instrs);
    assert_eq!(encoded.len(), 27_312);
    assert_eq!(fnv(&encoded), 0x4129_ec0c_6a72_9ae6);
}

#[test]
fn fixture_survives_btrc_round_trip_byte_identically() {
    let instrs = read_trace_file(&fixture("champsim_500.trace")).expect("fixture decodes");

    let dir = TempPath::dir("golden");
    let btrc = dir.join("champsim_500.btrc");
    write_btrc(&btrc, &instrs).expect("writes");

    // Replaying the .btrc through the same front door yields the same
    // Instr sequence, and re-encoding that replay reproduces the file
    // byte-for-byte.
    let replayed = read_trace_file(&btrc).expect("btrc replays");
    assert_eq!(replayed, instrs, "decode -> .btrc -> replay is lossless");
    let on_disk = std::fs::read(&btrc).expect("reads");
    assert_eq!(
        encode_btrc(&replayed),
        on_disk,
        "re-encoding the replay is byte-identical"
    );
}

#[test]
fn compressed_fixture_decodes_identically() {
    // The .xz sibling streams through `xz -dc`; skip (loudly) if the
    // tool isn't installed rather than fail unrelated test runs.
    let have_xz = std::process::Command::new("xz")
        .arg("--version")
        .output()
        .is_ok();
    if !have_xz {
        eprintln!("skipping: xz not installed");
        return;
    }
    let plain = read_trace_file(&fixture("champsim_500.trace")).expect("plain decodes");
    let xz = read_trace_file(&fixture("champsim_500.trace.xz")).expect("xz decodes");
    assert_eq!(plain, xz, "decompression is transparent");
}
