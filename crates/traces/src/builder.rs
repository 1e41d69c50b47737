//! A small helper for emitting instruction sequences with realistic
//! padding (ALU work between memory operations) and branch behaviour.
//!
//! The builder writes each instruction straight into its canonical
//! 40-byte `.btrc` record, so a generated trace exists only as the
//! record body the trace cache holds and replays — never as an array of
//! 64-byte [`Instr`]s.

use berti_types::{encode_record, Instr, Ip, VAddr, LINE_BYTES, RECORD_BYTES};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::ingest::decode_records;

/// Incrementally builds an instruction trace as a `.btrc` record body.
#[derive(Debug)]
pub struct TraceBuilder {
    body: Vec<u8>,
    rng: SmallRng,
    next_alu_ip: u64,
}

impl TraceBuilder {
    /// Creates a builder with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Self {
            body: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
            next_alu_ip: 0x10_0000,
        }
    }

    /// Instructions emitted so far.
    pub fn len(&self) -> usize {
        self.body.len() / RECORD_BYTES
    }

    /// Whether nothing has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// Access to the builder's deterministic RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Emits `n` ALU instructions (rotating over a few fake IPs).
    pub fn alu(&mut self, n: usize) {
        for _ in 0..n {
            self.next_alu_ip = 0x10_0000 + (self.next_alu_ip + 4) % 0x400;
            self.push(Instr::alu(Ip::new(self.next_alu_ip)));
        }
    }

    /// Emits a load by `ip` of the line-aligned address `line_index`
    /// lines into the region starting at `base`.
    pub fn load_line(&mut self, ip: u64, base: u64, line_index: u64) {
        self.push(Instr::load(
            Ip::new(ip),
            VAddr::new(base + line_index * LINE_BYTES),
        ));
    }

    /// Emits `loads` loads to consecutive 8-byte elements of one cache
    /// line, each followed by `pad` ALU instructions — the natural
    /// shape of a loop streaming through an array (several element
    /// accesses hit the line one miss brought in, with compute in
    /// between). This is what keeps the trace's MPKI in the range of
    /// the paper's memory-intensive workloads rather than saturating
    /// DRAM.
    pub fn stream_line(&mut self, ip: u64, base: u64, line_index: u64, loads: u32, pad: usize) {
        for e in 0..loads {
            self.push(Instr::load(
                Ip::new(ip),
                VAddr::new(base + line_index * LINE_BYTES + u64::from(e % 8) * 8),
            ));
            self.alu(pad);
        }
    }

    /// Like [`TraceBuilder::stream_line`], but the line's first load is
    /// part of dependence chain `chain` — the loop-carried dependence
    /// of a reduction or recurrence, which is what bounds a real
    /// kernel's memory-level parallelism and makes prefetch timeliness
    /// matter (Sec. II of the paper).
    pub fn stream_line_chained(
        &mut self,
        ip: u64,
        base: u64,
        line_index: u64,
        loads: u32,
        pad: usize,
        chain: u8,
    ) {
        self.push(Instr::dependent_load(
            Ip::new(ip),
            VAddr::new(base + line_index * LINE_BYTES),
            chain,
        ));
        self.alu(pad);
        for e in 1..loads {
            self.push(Instr::load(
                Ip::new(ip),
                VAddr::new(base + line_index * LINE_BYTES + u64::from(e % 8) * 8),
            ));
            self.alu(pad);
        }
    }

    /// Emits a dependent load (pointer chasing) in `chain`.
    pub fn dep_load_line(&mut self, ip: u64, base: u64, line_index: u64, chain: u8) {
        self.push(Instr::dependent_load(
            Ip::new(ip),
            VAddr::new(base + line_index * LINE_BYTES),
            chain,
        ));
    }

    /// Emits a store by `ip` to the given line of `base`.
    pub fn store_line(&mut self, ip: u64, base: u64, line_index: u64) {
        self.push(Instr::store(
            Ip::new(ip),
            VAddr::new(base + line_index * LINE_BYTES),
        ));
    }

    /// Emits a branch, mispredicted with probability `p`.
    pub fn branch(&mut self, ip: u64, p: f64) {
        let instr = if self.rng.random_bool(p) {
            Instr::mispredicted_branch(Ip::new(ip))
        } else {
            Instr::alu(Ip::new(ip))
        };
        self.push(instr);
    }

    /// Pushes a raw instruction.
    pub fn push(&mut self, i: Instr) {
        self.body.extend_from_slice(&encode_record(&i));
    }

    /// Finishes the trace as its record body (what the builtin
    /// generators return).
    pub fn into_body(self) -> Vec<u8> {
        self.body
    }

    /// Finishes the trace as decoded instructions.
    pub fn build(self) -> Vec<Instr> {
        decode_records(&self.body).expect("the builder writes canonical records")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_is_deterministic() {
        let mk = || {
            let mut b = TraceBuilder::new(7);
            b.alu(3);
            b.load_line(0x400, 0x1000_0000, 5);
            b.branch(0x404, 0.5);
            b.store_line(0x408, 0x1000_0000, 6);
            b.dep_load_line(0x40c, 0x2000_0000, 0, 1);
            b.build()
        };
        assert_eq!(mk(), mk());
        assert_eq!(mk().len(), 7);
    }

    #[test]
    fn addresses_are_line_aligned() {
        let mut b = TraceBuilder::new(1);
        b.load_line(0x400, 0x1000_0000, 3);
        let v = b.build();
        let a = v[0].loads[0].expect("load");
        assert_eq!(a.raw() % LINE_BYTES, 0);
        assert_eq!(a.raw(), 0x1000_0000 + 3 * 64);
    }
}
