//! The ChampSim binary trace decoder.
//!
//! ChampSim traces are a flat stream of 64-byte little-endian
//! `input_instr` records:
//!
//! ```text
//! offset  size  field
//!      0     8  ip
//!      8     1  is_branch
//!      9     1  branch_taken
//!     10     2  destination_registers[2]   (0 = unused slot)
//!     12     4  source_registers[4]        (0 = unused slot)
//!     16    16  destination_memory[2]      (u64 each; 0 = unused)
//!     32    32  source_memory[4]           (u64 each; 0 = unused)
//! ```
//!
//! Mapping onto [`Instr`] is deterministic and pinned by the golden
//! fixture test:
//!
//! - **loads** — the first two nonzero `source_memory` operands; any
//!   further source operands, and a second destination operand, *spill*
//!   into follow-up synthetic records with the same IP (our `Instr`
//!   carries at most 2 loads + 1 store, ChampSim's can carry 4 + 2);
//! - **store** — the first nonzero `destination_memory` operand;
//! - **mispredicted_branch** — ChampSim traces record the branch
//!   *outcome*, not the prediction, so we run the same kind of
//!   predictor ChampSim's model core does: a table of 2-bit saturating
//!   counters indexed by the IP folded to 12 bits. A branch whose
//!   outcome disagrees with its counter's prediction is marked
//!   mispredicted;
//! - **dep_chain** — register dataflow is collapsed into the core's
//!   [`MAX_DEP_CHAINS`] dependence-chain ids: a load's destination
//!   registers are tagged with a chain (inherited from a tagged source
//!   register, else allocated round-robin), a load reading a tagged
//!   register joins that chain (this is what serializes pointer
//!   chasing), and non-load writes untag their destinations.

use berti_types::{Instr, Ip, VAddr, MAX_DEP_CHAINS};

use super::IngestError;

/// Size of one ChampSim `input_instr` record.
pub const CHAMPSIM_RECORD_BYTES: usize = 64;

/// Branch-predictor table size (IP folded to 12 bits).
const PREDICTOR_BITS: u32 = 12;

/// Decodes a ChampSim binary trace body into an [`Instr`] stream. This
/// is the slice-level reference decoder that tests and the benchmark
/// compare the streaming [`super::ChampsimStream`] against; no trace
/// file is read through it.
///
/// # Errors
///
/// A body whose length is not a whole number of 64-byte records is
/// [`IngestError::Truncated`]. Record contents cannot fail (every bit
/// pattern is a valid `input_instr`), so this is the only error.
pub fn decode_champsim(bytes: &[u8]) -> Result<Vec<Instr>, IngestError> {
    if !bytes.len().is_multiple_of(CHAMPSIM_RECORD_BYTES) {
        let got = (bytes.len() / CHAMPSIM_RECORD_BYTES) as u64;
        return Err(IngestError::Truncated {
            expected_records: got + 1,
            got_records: got,
        });
    }
    let mut out = Vec::with_capacity(bytes.len() / CHAMPSIM_RECORD_BYTES);
    let mut decoder = ChampsimDecoder::new();
    for rec in bytes.chunks_exact(CHAMPSIM_RECORD_BYTES) {
        decoder.decode_record(rec, &mut out);
    }
    Ok(out)
}

/// The sequential decode state a ChampSim trace carries from record to
/// record: the branch predictor (mispredict bits depend on every
/// earlier branch outcome) and the register dependence-chain tracker.
/// The streaming decoder owns one of these and resets it on rewind, so
/// a chunked pass produces the byte-identical sequence a one-shot
/// [`decode_champsim`] does.
pub(crate) struct ChampsimDecoder {
    predictor: BranchPredictor,
    chains: ChainTracker,
}

impl ChampsimDecoder {
    pub(crate) fn new() -> Self {
        Self {
            predictor: BranchPredictor::new(),
            chains: ChainTracker::new(),
        }
    }

    /// Decodes one 64-byte record, appending the 1–4 [`Instr`]s it
    /// expands to (primary plus operand spills) onto `out`.
    pub(crate) fn decode_record(&mut self, rec: &[u8], out: &mut Vec<Instr>) {
        let word = |off: usize| u64::from_le_bytes(rec[off..off + 8].try_into().expect("8 bytes"));
        let ip = Ip::new(word(0));
        let is_branch = rec[8] != 0;
        let taken = rec[9] != 0;
        let dst_regs = [rec[10], rec[11]];
        let src_regs = [rec[12], rec[13], rec[14], rec[15]];
        let dst_mem: Vec<u64> = (0..2)
            .map(|i| word(16 + 8 * i))
            .filter(|&a| a != 0)
            .collect();
        let src_mem: Vec<u64> = (0..4)
            .map(|i| word(32 + 8 * i))
            .filter(|&a| a != 0)
            .collect();

        let is_load = !src_mem.is_empty();
        let dep_chain = if is_load {
            self.chains.incoming(&src_regs)
        } else {
            None
        };
        self.chains.retag(&dst_regs, is_load, dep_chain);

        let mut primary = Instr {
            ip,
            loads: [
                src_mem.first().map(|&a| VAddr::new(a)),
                src_mem.get(1).map(|&a| VAddr::new(a)),
            ],
            store: dst_mem.first().map(|&a| VAddr::new(a)),
            mispredicted_branch: false,
            dep_chain,
        };
        if is_branch {
            primary.mispredicted_branch = self.predictor.mispredicted(ip, taken);
        }
        out.push(primary);

        // Spill records: ChampSim allows 4 source + 2 destination memory
        // operands per instruction; ours carries 2 + 1. Extra operands
        // become follow-up records at the same IP so no access is dropped.
        for pair in src_mem[2.min(src_mem.len())..].chunks(2) {
            out.push(Instr {
                ip,
                loads: [
                    pair.first().map(|&a| VAddr::new(a)),
                    pair.get(1).map(|&a| VAddr::new(a)),
                ],
                store: None,
                mispredicted_branch: false,
                dep_chain,
            });
        }
        if let Some(&extra_store) = dst_mem.get(1) {
            out.push(Instr {
                ip,
                loads: [None, None],
                store: Some(VAddr::new(extra_store)),
                mispredicted_branch: false,
                dep_chain: None,
            });
        }
    }
}

/// How many [`Instr`]s one 64-byte record expands to: 1 primary, plus
/// a spill record per extra pair of source-memory operands, plus one
/// for a second destination-memory operand. Pure — unlike decoding, it
/// needs no predictor or chain state, which is what lets the streaming
/// decoder's counting pass learn a trace's exact length cheaply.
pub(crate) fn instrs_per_record(rec: &[u8]) -> usize {
    let word = |off: usize| u64::from_le_bytes(rec[off..off + 8].try_into().expect("8 bytes"));
    let dst_mem = (0..2).filter(|&i| word(16 + 8 * i) != 0).count();
    let src_mem = (0..4).filter(|&i| word(32 + 8 * i) != 0).count();
    1 + src_mem.saturating_sub(2).div_ceil(2) + usize::from(dst_mem > 1)
}

/// Gshare-less bimodal predictor: 2-bit saturating counters, indexed
/// by the IP folded to [`PREDICTOR_BITS`] bits, initialised weakly
/// taken (2).
struct BranchPredictor {
    counters: Vec<u8>,
}

impl BranchPredictor {
    fn new() -> Self {
        Self {
            counters: vec![2; 1 << PREDICTOR_BITS],
        }
    }

    fn mispredicted(&mut self, ip: Ip, taken: bool) -> bool {
        let idx = ip.fold(PREDICTOR_BITS) as usize;
        let c = &mut self.counters[idx];
        let predicted_taken = *c >= 2;
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        predicted_taken != taken
    }
}

/// Maps register dataflow onto the core's dependence-chain ids.
struct ChainTracker {
    /// Per architectural register: the chain whose load last wrote it.
    reg_chain: [Option<u8>; 256],
    next: u8,
}

impl ChainTracker {
    fn new() -> Self {
        Self {
            reg_chain: [None; 256],
            next: 0,
        }
    }

    /// The chain carried into this instruction by its source registers
    /// (first tagged register wins; register 0 means "no register").
    fn incoming(&self, src_regs: &[u8]) -> Option<u8> {
        src_regs
            .iter()
            .filter(|&&r| r != 0)
            .find_map(|&r| self.reg_chain[r as usize])
    }

    /// Tags/untags destination registers: a load's destinations carry
    /// its chain (inherited, else freshly allocated round-robin);
    /// non-load writes clear the tag.
    fn retag(&mut self, dst_regs: &[u8], is_load: bool, inherited: Option<u8>) {
        let writes = dst_regs.iter().filter(|&&r| r != 0);
        if !is_load {
            for &r in writes {
                self.reg_chain[r as usize] = None;
            }
            return;
        }
        let mut chain = inherited;
        for &r in writes {
            let c = *chain.get_or_insert_with(|| {
                let c = self.next;
                self.next = (self.next + 1) % MAX_DEP_CHAINS as u8;
                c
            });
            self.reg_chain[r as usize] = Some(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(
        ip: u64,
        branch: Option<bool>,
        dst_regs: [u8; 2],
        src_regs: [u8; 4],
        dst_mem: [u64; 2],
        src_mem: [u64; 4],
    ) -> [u8; CHAMPSIM_RECORD_BYTES] {
        let mut r = [0u8; CHAMPSIM_RECORD_BYTES];
        r[0..8].copy_from_slice(&ip.to_le_bytes());
        if let Some(taken) = branch {
            r[8] = 1;
            r[9] = taken as u8;
        }
        r[10..12].copy_from_slice(&dst_regs);
        r[12..16].copy_from_slice(&src_regs);
        for (i, m) in dst_mem.iter().enumerate() {
            r[16 + 8 * i..24 + 8 * i].copy_from_slice(&m.to_le_bytes());
        }
        for (i, m) in src_mem.iter().enumerate() {
            r[32 + 8 * i..40 + 8 * i].copy_from_slice(&m.to_le_bytes());
        }
        r
    }

    #[test]
    fn plain_load_and_store_map_to_operands() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&record(
            0x400,
            None,
            [0; 2],
            [0; 4],
            [0; 2],
            [0x1000, 0, 0, 0],
        ));
        bytes.extend_from_slice(&record(0x408, None, [0; 2], [0; 4], [0x2000, 0], [0; 4]));
        let instrs = decode_champsim(&bytes).expect("decodes");
        assert_eq!(instrs.len(), 2);
        assert_eq!(instrs[0].loads[0], Some(VAddr::new(0x1000)));
        assert!(instrs[0].store.is_none());
        assert_eq!(instrs[1].store, Some(VAddr::new(0x2000)));
        assert!(!instrs[1].is_memory() || instrs[1].loads[0].is_none());
    }

    #[test]
    fn wide_instructions_spill_into_same_ip_records() {
        let rec = record(
            0x400,
            None,
            [0; 2],
            [0; 4],
            [0x9000, 0xa000],
            [0x1000, 0x2000, 0x3000, 0x4000],
        );
        let instrs = decode_champsim(&rec).expect("decodes");
        // primary (2 loads + store) + one spill load pair + one spill store
        assert_eq!(instrs.len(), 3);
        assert!(instrs.iter().all(|i| i.ip == Ip::new(0x400)));
        assert_eq!(instrs[0].loads[1], Some(VAddr::new(0x2000)));
        assert_eq!(instrs[0].store, Some(VAddr::new(0x9000)));
        assert_eq!(
            instrs[1].loads,
            [Some(VAddr::new(0x3000)), Some(VAddr::new(0x4000))]
        );
        assert_eq!(instrs[2].store, Some(VAddr::new(0xa000)));
    }

    #[test]
    fn register_dataflow_becomes_dep_chains() {
        let mut bytes = Vec::new();
        // load r5 <- [0x1000]; load r6 <- [r5]; alu r6 <- r6; load r7 <- [r6]
        bytes.extend_from_slice(&record(
            0x400,
            None,
            [5, 0],
            [0; 4],
            [0; 2],
            [0x1000, 0, 0, 0],
        ));
        bytes.extend_from_slice(&record(
            0x408,
            None,
            [6, 0],
            [5, 0, 0, 0],
            [0; 2],
            [0x2000, 0, 0, 0],
        ));
        bytes.extend_from_slice(&record(0x410, None, [6, 0], [6, 0, 0, 0], [0; 2], [0; 4]));
        bytes.extend_from_slice(&record(
            0x418,
            None,
            [7, 0],
            [6, 0, 0, 0],
            [0; 2],
            [0x3000, 0, 0, 0],
        ));
        let instrs = decode_champsim(&bytes).expect("decodes");
        assert_eq!(
            instrs[0].dep_chain, None,
            "first load starts a chain but does not wait"
        );
        assert_eq!(
            instrs[1].dep_chain,
            Some(0),
            "pointer chase joins the chain"
        );
        assert_eq!(instrs[3].dep_chain, None, "ALU write broke the chain");
    }

    #[test]
    fn branch_outcomes_run_through_the_predictor() {
        let mut bytes = Vec::new();
        // Counter starts weakly-taken: a not-taken branch mispredicts,
        // then the counter learns.
        for _ in 0..3 {
            bytes.extend_from_slice(&record(0x500, Some(false), [0; 2], [0; 4], [0; 2], [0; 4]));
        }
        let instrs = decode_champsim(&bytes).expect("decodes");
        assert!(instrs[0].mispredicted_branch, "cold counter predicts taken");
        assert!(!instrs[1].mispredicted_branch, "counter learned not-taken");
        assert!(!instrs[2].mispredicted_branch);
    }

    #[test]
    fn partial_trailing_record_is_a_typed_error() {
        let rec = record(0x400, None, [0; 2], [0; 4], [0; 2], [0; 4]);
        let mut bytes = rec.to_vec();
        bytes.extend_from_slice(&rec[..10]);
        assert_eq!(
            decode_champsim(&bytes),
            Err(IngestError::Truncated {
                expected_records: 2,
                got_records: 1
            })
        );
    }

    #[test]
    fn missing_file_is_a_typed_error() {
        for path in ["/nonexistent/trace.xz", "/nonexistent/trace.zst"] {
            let e = super::super::open_streaming(std::path::Path::new(path)).err();
            assert!(matches!(e, Some(IngestError::Io { .. })), "{path}: {e:?}");
        }
    }

    #[test]
    fn instrs_per_record_matches_the_decoder() {
        let cases = [
            record(0x400, None, [0; 2], [0; 4], [0; 2], [0; 4]),
            record(0x400, None, [0; 2], [0; 4], [0; 2], [0x1000, 0, 0, 0]),
            record(
                0x400,
                None,
                [0; 2],
                [0; 4],
                [0x9000, 0],
                [0x1000, 0x2000, 0, 0],
            ),
            record(
                0x400,
                None,
                [0; 2],
                [0; 4],
                [0; 2],
                [0x1000, 0x2000, 0x3000, 0],
            ),
            record(
                0x400,
                Some(true),
                [0; 2],
                [0; 4],
                [0x9000, 0xa000],
                [0x1000, 0x2000, 0x3000, 0x4000],
            ),
        ];
        for rec in cases {
            let mut out = Vec::new();
            ChampsimDecoder::new().decode_record(&rec, &mut out);
            assert_eq!(instrs_per_record(&rec), out.len());
        }
    }
}
