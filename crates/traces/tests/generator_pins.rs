//! The generators' output, pinned to constants.
//!
//! Every builtin workload is a pure function of fixed seeds, and every
//! result cache, figure golden file and benchmark aggregate downstream
//! assumes its bytes never move. `graph_kernels_are_deterministic` only
//! compares two runs of the same code; the pins compare against the
//! bytes the generators produced when they were written down, so a
//! rewrite of a generator for speed must reproduce them exactly.
//!
//! A deliberate change to a generator's output re-captures the constant
//! from the assertion message (it prints every mismatch at once).

use berti_traces::gap::{Csr, GraphKind};
use berti_traces::ingest::{btrc_header, fnv1a64};
use berti_types::RECORD_BYTES;

/// FNV-1a-64 of the canonical `.btrc` encoding of each builtin, in
/// `all_workloads()` order.
const BUILTIN_PINS: [(&str, u64); 36] = [
    ("bwaves-like", 0xe5af_4496_9bc2_b05c),
    ("lbm-like", 0xe3e1_1e5c_9d8e_525a),
    ("roms-like", 0x4762_b379_2d31_63a5),
    ("fotonik-like", 0x1b4a_ed81_b2c1_d6e3),
    ("mcf-1554-like", 0xb91f_db9a_096b_360c),
    ("mcf-782-like", 0x8d53_6683_cc3b_eb73),
    ("cactu-like", 0x9c90_7d78_17d3_5df0),
    ("gcc-like", 0x2a45_f0c0_fb2b_ca5d),
    ("omnetpp-like", 0x626a_9f01_86b8_e199),
    ("xalanc-like", 0x66e9_9c84_4f7e_b41d),
    ("wrf-like", 0xce8b_8380_6ed5_4a00),
    ("xz-like", 0x4792_acbf_f04c_5062),
    ("parest-like", 0xe95c_5fbc_d144_1ec0),
    ("cam4-like", 0x1baf_64c3_e863_3f7c),
    ("pop2-like", 0x4739_41e7_a0e9_a0a8),
    ("nab-like", 0xfa5b_ae41_2064_ee1b),
    ("deepsjeng-like", 0xd156_a295_5c22_4635),
    ("x264-like", 0x6d6f_2c7f_2fbd_2894),
    ("bfs-kron", 0xb1f2_695a_a2aa_0c78),
    ("bfs-urand", 0xe6db_15f8_c2ad_2b94),
    ("pr-kron", 0xa165_d734_1000_bf67),
    ("pr-urand", 0xadd0_42c1_7e70_5f3c),
    ("cc-kron", 0x4bf2_6fad_2ce0_bb0c),
    ("cc-urand", 0xdcd5_79fd_9afd_81f4),
    ("sssp-kron", 0x1874_4156_bb06_04aa),
    ("sssp-urand", 0xd474_d58f_d9c5_ec6d),
    ("bc-kron", 0x6906_9da4_4270_cfb4),
    ("bc-urand", 0xf6e3_55bd_ddda_b1f6),
    ("tc-kron", 0x7745_1719_7974_18eb),
    ("tc-urand", 0xcd82_c80c_4f8e_bbff),
    ("cassandra-like", 0xbcad_b913_dfab_347e),
    ("classification-like", 0x8e0f_bf3c_d48e_acf3),
    ("cloud9-like", 0xe853_1731_d057_c75a),
    ("nutch-like", 0xc7f5_2255_16d2_bbd2),
    ("streaming-like", 0x8623_86ef_599d_9f97),
    ("webserving-like", 0x230e_4857_42d6_eecc),
];

fn bytes_of(words: &[u32]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// Generating all 36 traces takes seconds optimized and minutes
/// unoptimized; CI runs this with `cargo test --release`.
#[test]
#[cfg_attr(debug_assertions, ignore = "needs an optimized build")]
fn every_builtin_encodes_to_its_pinned_bytes() {
    let workloads = berti_traces::all_workloads();
    let names: Vec<&str> = workloads.iter().map(|w| w.name.as_str()).collect();
    let pinned: Vec<&str> = BUILTIN_PINS.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, pinned, "the pin table lists every builtin, in order");

    let mut wrong = Vec::new();
    for (w, (name, pin)) in workloads.iter().zip(BUILTIN_PINS) {
        let btrc = w.builtin_body().expect("a builtin");
        let body = btrc.body().expect("an owned body");
        let header = btrc_header(btrc.record_count() as u64, fnv1a64(body));
        let got = fnv1a64(&[&header[..], body].concat());
        // Drop the memo: 36 resident traces would hold gigabytes.
        berti_traces::cache::clear();
        if got != pin {
            wrong.push(format!("(\"{name}\", {got:#018x}),"));
        }
    }
    assert!(
        wrong.is_empty(),
        "generator output moved:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn scale_12_graphs_are_pinned() {
    for (kind, seed, offsets_pin, neighbors_pin) in [
        (
            GraphKind::Kron,
            0x6b72,
            0x18fb_b896_958a_2c83,
            0x891b_3c9c_59df_51bb,
        ),
        (
            GraphKind::Urand,
            0x7572,
            0xcc60_03e8_0f7d_41ff,
            0x4c95_0cdb_0193_1352,
        ),
    ] {
        let g = Csr::build(kind, 12, 16, seed);
        assert_eq!((g.num_vertices(), g.num_edges()), (1 << 12, 16 << 12));
        let got = (
            fnv1a64(&bytes_of(&g.offsets)),
            fnv1a64(&bytes_of(&g.neighbors)),
        );
        assert_eq!(
            got,
            (offsets_pin, neighbors_pin),
            "{kind:?}: (offsets, neighbors) = ({:#018x}, {:#018x})",
            got.0,
            got.1
        );
    }
}

#[test]
fn graph_kernels_are_deterministic() {
    let w = &berti_traces::gap::suite()[2]; // pr-kron
    let a = w.builtin_body().expect("a builtin");
    // Generation is memoized per process: drop the memo so the second
    // body comes from running the kernel again.
    berti_traces::cache::clear();
    let b = w.builtin_body().expect("a builtin");
    assert!(!std::sync::Arc::ptr_eq(&a, &b), "regenerated, not reused");
    assert_eq!(a.record_count(), b.record_count());
    let [a, b] = [&a, &b].map(|x| x.body().expect("an owned body"));
    let diverged = a
        .chunks(RECORD_BYTES)
        .zip(b.chunks(RECORD_BYTES))
        .position(|(x, y)| x != y);
    assert_eq!(diverged, None, "first differing record");
}
