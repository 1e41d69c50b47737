//! SPEC CPU2017-like synthetic kernels.
//!
//! Each generator reproduces an access-pattern class the paper calls
//! out by benchmark name (Secs. II-B, IV-C):
//!
//! - `lbm-like`: per-IP interleaved +1/+2 strides — zero coverage for
//!   IP-stride, perfect for timely local deltas (+3/+6);
//! - `mcf-1554-like`: a few dominant IPs with *different* local delta
//!   patterns (Fig. 3) plus pointer chasing;
//! - `mcf-782-like`: three IPs produce 75 % of L1D accesses with
//!   interleaved strides that corrupt global-delta training;
//! - `cactu-like`: hundreds of interleaved strided IPs whose
//!   array-of-structs layout forms a perfect *global* +1 stream —
//!   the one case where global prefetchers beat Berti;
//! - dense floating-point streams (bwaves/roms/fotonik/wrf-like) and
//!   irregular integer codes (omnetpp/xalancbmk/gcc/xz-like).

use rand::RngExt;

use crate::builder::TraceBuilder;
use crate::trace::{Suite, WorkloadDef};

/// Target unique instructions per generated trace.
const TRACE_INSTRS: usize = 1_200_000;

/// The memory-intensive SPEC-like suite.
pub fn suite() -> Vec<WorkloadDef> {
    vec![
        WorkloadDef::new("bwaves-like", Suite::Spec, bwaves_like),
        WorkloadDef::new("lbm-like", Suite::Spec, lbm_like),
        WorkloadDef::new("roms-like", Suite::Spec, roms_like),
        WorkloadDef::new("fotonik-like", Suite::Spec, fotonik_like),
        WorkloadDef::new("mcf-1554-like", Suite::Spec, mcf_1554_like),
        WorkloadDef::new("mcf-782-like", Suite::Spec, mcf_782_like),
        WorkloadDef::new("cactu-like", Suite::Spec, cactu_like),
        WorkloadDef::new("gcc-like", Suite::Spec, gcc_like),
        WorkloadDef::new("omnetpp-like", Suite::Spec, omnetpp_like),
        WorkloadDef::new("xalanc-like", Suite::Spec, xalanc_like),
        WorkloadDef::new("wrf-like", Suite::Spec, wrf_like),
        WorkloadDef::new("xz-like", Suite::Spec, xz_like),
        WorkloadDef::new("parest-like", Suite::Spec, parest_like),
        WorkloadDef::new("cam4-like", Suite::Spec, cam4_like),
        WorkloadDef::new("pop2-like", Suite::Spec, pop2_like),
        WorkloadDef::new("nab-like", Suite::Spec, nab_like),
        WorkloadDef::new("deepsjeng-like", Suite::Spec, deepsjeng_like),
        WorkloadDef::new("x264-like", Suite::Spec, x264_like),
    ]
}

/// A convenience workload used in examples and doctests: a handful of
/// constant-stride streams (the easiest pattern for any prefetcher).
#[derive(Clone, Copy, Debug, Default)]
pub struct StridedLoops;

impl StridedLoops {
    /// Generates the trace.
    pub fn generator(&self) -> crate::Trace {
        WorkloadDef::new("strided-loops", Suite::Spec, bwaves_like).trace()
    }
}

/// Four long unit-stride streams, own IP each (bwaves-like).
fn bwaves_like() -> Vec<u8> {
    let mut b = TraceBuilder::new(0xb1);
    let bases = [
        0x1_0000_0000u64,
        0x2_0000_0000,
        0x3_0000_0000,
        0x4_0000_0000,
    ];
    let mut i = 0u64;
    while b.len() < TRACE_INSTRS {
        for (k, &base) in bases.iter().enumerate() {
            b.stream_line_chained(0x400_100 + k as u64 * 8, base, i, 3, 6, k as u8);
        }
        b.branch(0x400_1f0, 0.002);
        i += 1;
    }
    b.into_body()
}

/// Interleaved +1/+2 per-IP strides plus a store stream (lbm-like,
/// Sec. II-B's IP 0x401cb0 example).
fn lbm_like() -> Vec<u8> {
    let mut b = TraceBuilder::new(0x1b);
    let bases = [0x1_0000_0000u64, 0x2_0000_0000, 0x3_0000_0000];
    let mut pos = [0u64; 3];
    let mut step = 0u64;
    while b.len() < TRACE_INSTRS {
        for (k, base) in bases.iter().enumerate() {
            b.stream_line_chained(0x401cb0 + k as u64 * 8, *base, pos[k], 3, 8, k as u8);
            pos[k] += if step.is_multiple_of(2) { 1 } else { 2 };
        }
        // Result store stream, unit stride.
        b.store_line(0x401d00, 0x5_0000_0000, step);
        b.alu(4);
        step += 1;
    }
    b.into_body()
}

/// Medium strides (+4) over several arrays (roms-like).
fn roms_like() -> Vec<u8> {
    let mut b = TraceBuilder::new(0x05);
    let mut i = 0u64;
    while b.len() < TRACE_INSTRS {
        b.stream_line_chained(0x402_000, 0x1_0000_0000, 4 * i, 3, 6, 0);
        b.stream_line_chained(0x402_008, 0x2_0000_0000, 4 * i + 1, 3, 6, 1);
        b.stream_line_chained(0x402_010, 0x3_0000_0000, i, 2, 6, 2);
        b.branch(0x402_0f0, 0.001);
        i += 1;
    }
    b.into_body()
}

/// Six unit-stride streams (fotonik-like).
fn fotonik_like() -> Vec<u8> {
    let mut b = TraceBuilder::new(0xf0);
    let mut i = 0u64;
    while b.len() < TRACE_INSTRS {
        for k in 0..6u64 {
            b.stream_line_chained(
                0x403_000 + k * 8,
                0x1_0000_0000 + k * 0x1000_0000,
                i,
                2,
                8,
                k as u8,
            );
        }
        i += 1;
    }
    b.into_body()
}

/// A few dominant IPs with distinct local-delta patterns plus pointer
/// chasing (mcf-1554-like, Fig. 3).
fn mcf_1554_like() -> Vec<u8> {
    let mut b = TraceBuilder::new(0x3c);
    // IP A walks downward alternating -1 and -5 line deltas (the
    // paper's 0x402dc7 class): IP-stride never gains confidence, while
    // the 2-back local delta is always -6 — exactly the pattern a
    // local-delta prefetcher owns (Sec. II-B).
    let a_deltas: [i64; 2] = [-1, -5];
    let mut a_pos: i64 = 40_000_000;
    // IP B strides +2; IP C strides +62 (a large but learnable delta).
    let mut b_pos = 0u64;
    let mut c_pos = 0u64;
    let mut k = 0usize;
    while b.len() < TRACE_INSTRS {
        a_pos += a_deltas[k % a_deltas.len()];
        b.dep_load_line(0x402dc7, 0x1_0000_0000, a_pos as u64, 4);
        b.alu(9);
        b.stream_line_chained(0x4049de, 0x2_0000_0000, b_pos, 2, 5, 2);
        b_pos += 2;
        b.dep_load_line(0x4049e5, 0x3_0000_0000, c_pos, 3);
        c_pos += 62;
        b.alu(9);
        // A pointer-chase chain over a large pool (the mcf arcs),
        // interleaved at a lower rate than the delta-regular IPs.
        if k.is_multiple_of(4) {
            let target = b.rng().random_range(0..2_000_000u64);
            // Two rotating chase chains: mcf walks several arc lists.
            b.dep_load_line(0x4049cc, 0x4_0000_0000, target, (k as u8 / 4) % 2 * 5);
            b.alu(9);
        }
        b.branch(0x402e00, 0.004);
        k += 1;
    }
    b.into_body()
}

/// Three IPs produce 75 % of accesses, interleaved strides that break
/// global-delta training (mcf-782-like, Sec. IV-C).
fn mcf_782_like() -> Vec<u8> {
    let mut b = TraceBuilder::new(0x78);
    let mut pos = [0u64, 0, 0];
    let strides = [3u64, 5, 7];
    while b.len() < TRACE_INSTRS {
        for k in 0..3usize {
            b.stream_line_chained(
                0x404_900 + k as u64 * 7,
                0x1_0000_0000 * (k as u64 + 1),
                pos[k],
                2,
                6,
                k as u8,
            );
            pos[k] += strides[k];
        }
        // 25% other traffic: random lines from a big pool.
        let r = b.rng().random_range(0..4_000_000u64);
        b.load_line(0x404_a00, 0x8_0000_0000, r);
        b.alu(8);
    }
    b.into_body()
}

/// Hundreds of interleaved strided IPs in an array-of-structs layout:
/// per-IP tables thrash while the *global* stream is a perfect +1
/// (CactuBSSN-like, Sec. IV-C).
fn cactu_like() -> Vec<u8> {
    let mut b = TraceBuilder::new(0xca);
    const FIELDS: u64 = 256;
    let mut i = 0u64;
    while b.len() < TRACE_INSTRS {
        for k in 0..FIELDS {
            // Field k of struct i: global line index i*FIELDS + k.
            b.load_line(0x410_000 + k * 4, 0x1_0000_0000, i * FIELDS + k);
            b.alu(19);
        }
        b.alu(8);
        i += 1;
    }
    b.into_body()
}

/// Mixed: one strided stream, hot-region reuse, branchy (gcc-like).
fn gcc_like() -> Vec<u8> {
    let mut b = TraceBuilder::new(0x9c);
    let mut i = 0u64;
    while b.len() < TRACE_INSTRS {
        b.stream_line_chained(0x405_000, 0x1_0000_0000, i, 2, 6, 3);
        // Hot region: mostly L1D hits.
        let hot = b.rng().random_range(0..512u64);
        b.load_line(0x405_100, 0x2_0000_0000, hot);
        b.alu(4);
        // Occasional cold pointer dereference.
        if i.is_multiple_of(7) {
            let cold = b.rng().random_range(0..3_000_000u64);
            b.dep_load_line(0x405_200, 0x6_0000_0000, cold, 1);
        }
        b.branch(0x405_2f0, 0.01);
        b.alu(4);
        i += 1;
    }
    b.into_body()
}

/// Pointer chasing over a large heap with several parallel chains
/// (omnetpp-like event queues).
fn omnetpp_like() -> Vec<u8> {
    let mut b = TraceBuilder::new(0x00e);
    while b.len() < TRACE_INSTRS {
        for chain in 0..4u8 {
            let t = b.rng().random_range(0..2_000_000u64);
            b.dep_load_line(0x406_000 + chain as u64 * 16, 0x1_0000_0000, t, chain);
            b.alu(12);
        }
        b.branch(0x406_0f0, 0.008);
        b.alu(6);
    }
    b.into_body()
}

/// Irregular accesses with strong temporal reuse inside a 4 MB working
/// set (xalancbmk-like DOM walks).
fn xalanc_like() -> Vec<u8> {
    let mut b = TraceBuilder::new(0xa1);
    // A repeating tour of pseudo-random lines: irregular spatially but
    // temporally predictable.
    let tour: Vec<u64> = {
        let mut x = 0x9e3779b97f4a7c15u64;
        (0..40_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 65_536
            })
            .collect()
    };
    let mut i = 0usize;
    while b.len() < TRACE_INSTRS {
        b.dep_load_line(0x407_000, 0x1_0000_0000, tour[i % tour.len()], 5);
        b.alu(13);
        b.branch(0x407_0a0, 0.006);
        i += 1;
    }
    b.into_body()
}

/// Two medium-stride streams plus branches (wrf-like).
fn wrf_like() -> Vec<u8> {
    let mut b = TraceBuilder::new(0x3f);
    let mut i = 0u64;
    while b.len() < TRACE_INSTRS {
        b.stream_line_chained(0x408_000, 0x1_0000_0000, 2 * i, 2, 6, 0);
        b.stream_line_chained(0x408_008, 0x2_0000_0000, 3 * i, 2, 6, 1);
        b.store_line(0x408_010, 0x3_0000_0000, i);
        b.alu(4);
        b.branch(0x408_0c0, 0.003);
        i += 1;
    }
    b.into_body()
}

/// Sliding-window random accesses plus one stream (xz-like match
/// finding).
fn xz_like() -> Vec<u8> {
    let mut b = TraceBuilder::new(0x22);
    let mut window_base = 0u64;
    let mut i = 0u64;
    while b.len() < TRACE_INSTRS {
        // Random lookups within a 256 KB sliding window.
        let w = b.rng().random_range(0..4096u64);
        b.load_line(0x409_000, 0x1_0000_0000, window_base + w);
        b.alu(8);
        b.stream_line_chained(0x409_008, 0x2_0000_0000, i, 2, 6, 4);
        if i % 64 == 63 {
            window_base += 64; // window slides
        }
        b.branch(0x409_0b0, 0.005);
        i += 1;
    }
    b.into_body()
}

/// Sparse matrix-vector product (parest-like): streaming row pointers,
/// column indices and values, plus data-dependent gathers `x[col]` —
/// the canonical mixed regular/irregular kernel.
fn parest_like() -> Vec<u8> {
    use berti_types::{Instr, Ip, VAddr};
    let mut b = TraceBuilder::new(0x9a7e);
    // Deterministic sparse structure: ~24 nonzeros per row, columns
    // pseudo-random over a 4 M-column vector (32 MB of x).
    let mut e = 0u64; // running nonzero index
    let mut row = 0u64;
    while b.len() < TRACE_INSTRS {
        // row_ptr[row] — sequential 4 B reads (16 per line).
        b.push(Instr::load(
            Ip::new(0x40a000),
            VAddr::new(0x1_0000_0000 + row * 4),
        ));
        b.alu(2);
        let nnz = 16 + (row % 17);
        for _ in 0..nnz {
            // col[e] and val[e] stream together.
            b.push(Instr::load(
                Ip::new(0x40a010),
                VAddr::new(0x2_0000_0000 + e * 4),
            ));
            b.push(Instr::load(
                Ip::new(0x40a018),
                VAddr::new(0x3_0000_0000 + e * 8),
            ));
            // x[col[e]] — dependent gather over a large vector.
            let col = (e.wrapping_mul(0x9E37_79B9) >> 7) % 4_000_000;
            b.push(Instr::dependent_load(
                Ip::new(0x40a020),
                VAddr::new(0x6_0000_0000 + col * 8),
                (e % 6) as u8,
            ));
            b.alu(5);
            e += 1;
        }
        // y[row] accumulation store.
        b.store_line(0x40a030, 0x7_0000_0000, row / 8);
        b.alu(3);
        b.branch(0x40a0f0, 0.002);
        row += 1;
    }
    b.into_body()
}

/// Climate model physics (cam4-like): several medium-stride field
/// sweeps with a hot lookup table.
fn cam4_like() -> Vec<u8> {
    let mut b = TraceBuilder::new(0xca34);
    let mut i = 0u64;
    while b.len() < TRACE_INSTRS {
        b.stream_line_chained(0x40b000, 0x1_0000_0000, 3 * i, 2, 7, 0);
        b.stream_line_chained(0x40b008, 0x2_0000_0000, 5 * i, 2, 7, 1);
        let hot = b.rng().random_range(0..256u64);
        b.load_line(0x40b010, 0x3_0000_0000, hot);
        b.alu(6);
        b.branch(0x40b0f0, 0.004);
        i += 1;
    }
    b.into_body()
}

/// Ocean model (pop2-like): wide multi-stream stencil with stores.
fn pop2_like() -> Vec<u8> {
    let mut b = TraceBuilder::new(0x9092);
    let mut i = 0u64;
    while b.len() < TRACE_INSTRS {
        for k in 0..4u64 {
            b.stream_line_chained(
                0x40c000 + k * 8,
                0x1_0000_0000 + k * 0x1000_0000,
                i,
                2,
                6,
                k as u8,
            );
        }
        b.store_line(0x40c040, 0x6_0000_0000, i);
        b.alu(4);
        i += 1;
    }
    b.into_body()
}

/// Molecular dynamics (nab-like): strided coordinate reads with a
/// neighbour-list indirection every few iterations.
fn nab_like() -> Vec<u8> {
    let mut b = TraceBuilder::new(0x9ab0);
    let mut i = 0u64;
    while b.len() < TRACE_INSTRS {
        b.stream_line_chained(0x40d000, 0x1_0000_0000, 2 * i, 3, 6, 0);
        if i.is_multiple_of(3) {
            let n = b.rng().random_range(0..1_500_000u64);
            b.dep_load_line(0x40d010, 0x6_0000_0000, n, 2);
            b.alu(5);
        }
        b.branch(0x40d0f0, 0.003);
        i += 1;
    }
    b.into_body()
}

/// Game-tree search (deepsjeng-like): hash-table probes over a large
/// transposition table, heavy branches, little spatial structure.
fn deepsjeng_like() -> Vec<u8> {
    let mut b = TraceBuilder::new(0xdeeb);
    while b.len() < TRACE_INSTRS {
        let probe = b.rng().random_range(0..6_000_000u64);
        b.dep_load_line(0x40e000, 0x6_0000_0000, probe, 3);
        b.alu(9);
        let hot = b.rng().random_range(0..192u64);
        b.load_line(0x40e010, 0x1_0000_0000, hot);
        b.alu(7);
        b.branch(0x40e0f0, 0.02);
    }
    b.into_body()
}

/// Video encoding (x264-like): 2D block accesses — short unit-stride
/// runs at a large row pitch, the classic "stride after N" pattern.
fn x264_like() -> Vec<u8> {
    let mut b = TraceBuilder::new(0x4264);
    const ROW_PITCH: u64 = 120; // lines per frame row
    let mut block = 0u64;
    while b.len() < TRACE_INSTRS {
        // A 4-line block row from the reference frame, then the next
        // row of the same block one pitch away.
        for r in 0..4u64 {
            let base_line = (block % 64) * 4 + (block / 64) * ROW_PITCH * 4 + r * ROW_PITCH;
            b.stream_line_chained(0x40f000, 0x1_0000_0000, base_line, 2, 4, 0);
        }
        b.store_line(0x40f010, 0x6_0000_0000, block);
        b.alu(6);
        b.branch(0x40f0f0, 0.006);
        block += 1;
    }
    b.into_body()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::decode_records;
    use berti_types::LINE_BYTES;
    use std::collections::HashSet;

    #[test]
    fn suite_has_eighteen_memory_intensive_workloads() {
        let s = suite();
        assert_eq!(s.len(), 18);
        let names: HashSet<_> = s.iter().map(|w| w.name.clone()).collect();
        assert_eq!(names.len(), 18, "names must be unique");
        assert!(s.iter().all(|w| w.suite == Suite::Spec));
    }

    #[test]
    fn traces_are_deterministic_and_sized() {
        for w in [&suite()[0], &suite()[4]] {
            let a = w.trace();
            let b = w.trace();
            assert_eq!(a.len(), b.len());
            assert!(a.len() >= TRACE_INSTRS, "{} too short", w.name);
            assert!(a.len() < TRACE_INSTRS + 4096);
        }
    }

    #[test]
    fn lbm_ips_see_alternating_strides() {
        let t = decode_records(&lbm_like()).expect("decodes");
        let mut lines: Vec<u64> = t
            .iter()
            .filter(|i| i.ip.raw() == 0x401cb0)
            .filter_map(|i| i.loads[0])
            .map(|a| a.raw() / LINE_BYTES)
            .take(24)
            .collect();
        lines.dedup(); // several element touches share each line
        let strides: Vec<i64> = lines
            .windows(2)
            .map(|w| w[1] as i64 - w[0] as i64)
            .take(6)
            .collect();
        assert_eq!(strides, vec![1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn cactu_is_globally_sequential_but_per_ip_sparse() {
        let t = decode_records(&cactu_like()).expect("decodes");
        let loads: Vec<(u64, u64)> = t
            .iter()
            .filter_map(|i| i.loads[0].map(|a| (i.ip.raw(), a.raw() / LINE_BYTES)))
            .take(512)
            .collect();
        // Global deltas are exactly +1.
        assert!(loads.windows(2).all(|w| w[1].1 == w[0].1 + 1));
        // But a single IP's consecutive accesses are 256 lines apart.
        let ip0: Vec<u64> = loads
            .iter()
            .filter(|(ip, _)| *ip == 0x410_000)
            .map(|(_, l)| *l)
            .collect();
        assert!(ip0.windows(2).all(|w| w[1] - w[0] == 256));
        // And there are hundreds of distinct IPs.
        let ips: HashSet<u64> = t
            .iter()
            .filter_map(|i| i.loads[0].map(|_| i.ip.raw()))
            .collect();
        assert!(ips.len() >= 256);
    }

    #[test]
    fn mcf_has_dependent_chains() {
        let t = decode_records(&mcf_1554_like()).expect("decodes");
        assert!(t.iter().any(|i| i.dep_chain.is_some()));
    }

    #[test]
    fn memory_intensity_is_realistic() {
        // Roughly 15–40 % of instructions should touch memory, like the
        // paper's memory-intensive traces.
        for w in suite() {
            let t = w.trace();
            let mut mem = 0usize;
            let mut trace = t;
            let n = 100_000;
            for _ in 0..n {
                if trace.next_instr().is_memory() {
                    mem += 1;
                }
            }
            let frac = mem as f64 / n as f64;
            assert!(
                (0.04..=0.60).contains(&frac),
                "{}: memory fraction {frac:.2}",
                trace.name()
            );
        }
    }
}
