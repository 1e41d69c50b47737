//! CloudSuite-like scale-out service workloads (Sec. IV-G, Fig. 18).
//!
//! The paper's CloudSuite traces have a *low* data MPKI (6.9 average
//! vs 42.2/83.6 for SPEC/GAP) and are front-end bound; data prefetching
//! has limited headroom. These generators reproduce that envelope: hot
//! working sets that mostly hit, heavy branch pressure, and only thin
//! streams of cold misses — except `classification-like`, whose
//! regular scans reward an *accurate* prefetcher (the paper: "all the
//! prefetchers fail except Berti").

use rand::RngExt;

use crate::builder::TraceBuilder;
use crate::trace::{Suite, WorkloadDef};

/// Target unique instructions per trace.
const TRACE_INSTRS: usize = 1_000_000;

/// The CloudSuite-like suite.
pub fn suite() -> Vec<WorkloadDef> {
    vec![
        WorkloadDef::new("cassandra-like", Suite::Cloud, cassandra_like),
        WorkloadDef::new("classification-like", Suite::Cloud, classification_like),
        WorkloadDef::new("cloud9-like", Suite::Cloud, cloud9_like),
        WorkloadDef::new("nutch-like", Suite::Cloud, nutch_like),
        WorkloadDef::new("streaming-like", Suite::Cloud, streaming_like),
        WorkloadDef::new("webserving-like", Suite::Cloud, webserving_like),
    ]
}

/// A service skeleton: `hot_lines` mostly-hitting working set,
/// occasional cold misses from a `cold_lines` pool, `branch_every`
/// instructions between branches with mispredict probability `mp`.
fn service(
    seed: u64,
    hot_lines: u64,
    cold_lines: u64,
    cold_every: u64,
    mp: f64,
    alu_pad: usize,
) -> Vec<u8> {
    let mut b = TraceBuilder::new(seed);
    let mut i = 0u64;
    while b.len() < TRACE_INSTRS {
        // Skewed hot set: most touches land in an L1D-resident core
        // (services hit their hottest structures), the rest in the
        // wider working set.
        let hot = if b.rng().random_bool(0.9) {
            b.rng().random_range(0..hot_lines.min(384))
        } else {
            b.rng().random_range(0..hot_lines)
        };
        b.load_line(0x430_000, 0x1_0000_0000, hot);
        b.alu(alu_pad);
        b.branch(0x430_0f0, mp);
        if i.is_multiple_of(cold_every) {
            let cold = b.rng().random_range(0..cold_lines);
            b.dep_load_line(0x430_100, 0x6_0000_0000, cold, 2);
            b.alu(2);
        }
        i += 1;
    }
    b.into_body()
}

/// Key-value store: hot memtable + repeating SSTable scan bursts
/// (temporal streams MISB covers, Fig. 19).
fn cassandra_like() -> Vec<u8> {
    let mut b = TraceBuilder::new(0xca55);
    // A fixed tour of "SSTable" lines replayed on every matching query:
    // a temporal (not spatial) pattern.
    let tour: Vec<u64> = {
        let mut x = 0x1357_9bdfu64;
        (0..4000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 4_000_000
            })
            .collect()
    };
    let mut q = 0usize;
    while b.len() < TRACE_INSTRS {
        // Request parsing: hot region + branches.
        for _ in 0..6 {
            let hot = if b.rng().random_bool(0.9) {
                b.rng().random_range(0..384u64)
            } else {
                b.rng().random_range(0..2048u64)
            };
            b.load_line(0x431_000, 0x1_0000_0000, hot);
            b.alu(5);
            b.branch(0x431_0f0, 0.015);
        }
        // SSTable probe: replay a slice of the tour (temporal chain).
        for k in 0..24 {
            let line = tour[(q * 7 + k) % tour.len()];
            b.dep_load_line(0x431_100, 0x6_0000_0000, line, 3);
            b.alu(3);
        }
        q += 1;
    }
    b.into_body()
}

/// ML classification: long regular scans over feature vectors — the
/// CloudSuite benchmark where accurate prefetching pays (Sec. IV-G).
fn classification_like() -> Vec<u8> {
    let mut b = TraceBuilder::new(0xc1a5);
    let mut i = 0u64;
    while b.len() < TRACE_INSTRS {
        // Two feature streams + a weight stream.
        b.load_line(0x432_000, 0x1_0000_0000, i);
        b.alu(3);
        b.load_line(0x432_008, 0x2_0000_0000, i);
        b.alu(3);
        b.load_line(0x432_010, 0x3_0000_0000, i / 4);
        b.alu(4);
        b.branch(0x432_0f0, 0.004);
        i += 1;
    }
    b.into_body()
}

/// JavaScript server: tiny data footprint, branch-dominated.
fn cloud9_like() -> Vec<u8> {
    service(0xc109, 1024, 500_000, 97, 0.02, 9)
}

/// Web crawler/indexer: small hot set, rare cold bursts.
fn nutch_like() -> Vec<u8> {
    service(0x9a7c, 2048, 1_000_000, 61, 0.018, 8)
}

/// Media streaming: one thin hot stream plus sequential chunk reads.
fn streaming_like() -> Vec<u8> {
    let mut b = TraceBuilder::new(0x57e4);
    let mut chunk = 0u64;
    while b.len() < TRACE_INSTRS {
        // Sequential media chunk (prefetchable, but thin).
        for k in 0..4 {
            b.load_line(0x433_000, 0x6_0000_0000, chunk * 4 + k);
            b.alu(8);
        }
        let hot = b.rng().random_range(0..1024u64);
        b.load_line(0x433_100, 0x1_0000_0000, hot);
        b.alu(6);
        b.branch(0x433_0f0, 0.012);
        chunk += 1;
    }
    b.into_body()
}

/// PHP web serving: hot code/data, modest cold misses.
fn webserving_like() -> Vec<u8> {
    service(0x3eb5, 4096, 2_000_000, 43, 0.016, 7)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::decode_records;

    #[test]
    fn suite_has_six_services() {
        let s = suite();
        assert_eq!(s.len(), 6);
        assert!(s.iter().all(|w| w.suite == Suite::Cloud));
    }

    #[test]
    fn cloud_memory_intensity_is_low() {
        // CloudSuite traces are front-end bound with low data MPKI:
        // fewer memory instructions per kiloinstruction than SPEC-like.
        for w in suite() {
            let mut t = w.trace();
            let n = 50_000;
            let mem = (0..n).filter(|_| t.next_instr().is_memory()).count();
            let frac = mem as f64 / n as f64;
            assert!(
                frac < 0.30,
                "{}: memory fraction {frac:.2} too high for cloud",
                w.name
            );
        }
    }

    #[test]
    fn branches_are_frequent() {
        let mut t = suite()[2].trace(); // cloud9-like
        let n = 50_000;
        let mp = (0..n)
            .filter(|_| t.next_instr().mispredicted_branch)
            .count();
        assert!(mp > 20, "front-end pressure expected, got {mp} mispredicts");
    }

    #[test]
    fn classification_is_stream_regular() {
        let t = decode_records(&classification_like()).expect("decodes");
        let lines: Vec<u64> = t
            .iter()
            .filter(|i| i.ip.raw() == 0x432_000)
            .filter_map(|i| i.loads[0])
            .map(|a| a.raw() / 64)
            .take(10)
            .collect();
        assert!(lines.windows(2).all(|w| w[1] == w[0] + 1));
    }
}
