//! Fixed-width binary encoding of [`Instr`] — the record layer of the
//! `.btrc` pre-decoded trace format (DESIGN.md §9).
//!
//! Every instruction is exactly [`RECORD_BYTES`] bytes, little-endian:
//!
//! ```text
//! offset  size  field
//!      0     8  ip
//!      8     8  loads[0] byte address (0 unless flag bit 0)
//!     16     8  loads[1] byte address (0 unless flag bit 1)
//!     24     8  store    byte address (0 unless flag bit 2)
//!     32     1  flags: bit0 loads[0] present, bit1 loads[1] present,
//!               bit2 store present, bit3 mispredicted branch,
//!               bit4 dep_chain present
//!     33     1  dep_chain id (0 unless flag bit 4)
//!     34     6  zero padding
//! ```
//!
//! Decoding is *strict*: unknown flag bits, a nonzero address behind an
//! absent-operand flag, a nonzero `dep_chain` without bit 4, a chain id
//! at or above [`MAX_DEP_CHAINS`], and nonzero padding are all typed
//! errors. Strictness makes the encoding canonical — for every valid
//! record `r`, `encode(decode(r)) == r` byte-for-byte, which is what
//! lets the trace layer checksum files and assert replay identity.

use crate::{Instr, VAddr, MAX_DEP_CHAINS};

/// Size of one encoded [`Instr`] record.
pub const RECORD_BYTES: usize = 40;

const FLAG_LOAD0: u8 = 1 << 0;
const FLAG_LOAD1: u8 = 1 << 1;
const FLAG_STORE: u8 = 1 << 2;
const FLAG_MISPREDICT: u8 = 1 << 3;
const FLAG_DEP: u8 = 1 << 4;
const FLAG_MASK: u8 = FLAG_LOAD0 | FLAG_LOAD1 | FLAG_STORE | FLAG_MISPREDICT | FLAG_DEP;

/// Why a 40-byte record failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordError {
    /// The flags byte has bits outside the defined set.
    UnknownFlags(u8),
    /// An operand field is nonzero but its presence flag is clear.
    PhantomOperand(&'static str),
    /// `dep_chain` byte is nonzero without the dep-present flag.
    PhantomDepChain(u8),
    /// Chain id at or above [`MAX_DEP_CHAINS`].
    DepChainOutOfRange(u8),
    /// The trailing padding bytes are not all zero.
    NonZeroPadding,
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::UnknownFlags(b) => write!(f, "unknown flag bits {:#04x}", b & !FLAG_MASK),
            RecordError::PhantomOperand(which) => {
                write!(f, "nonzero {which} address behind an absent-operand flag")
            }
            RecordError::PhantomDepChain(c) => {
                write!(f, "dep_chain byte {c} set without the dep-present flag")
            }
            RecordError::DepChainOutOfRange(c) => {
                write!(f, "dep_chain {c} >= MAX_DEP_CHAINS ({MAX_DEP_CHAINS})")
            }
            RecordError::NonZeroPadding => f.write_str("nonzero padding bytes"),
        }
    }
}

impl std::error::Error for RecordError {}

/// Encodes one instruction into its canonical 40-byte record.
pub fn encode_record(i: &Instr) -> [u8; RECORD_BYTES] {
    let mut buf = [0u8; RECORD_BYTES];
    buf[0..8].copy_from_slice(&i.ip.raw().to_le_bytes());
    let mut flags = 0u8;
    if let Some(a) = i.loads[0] {
        flags |= FLAG_LOAD0;
        buf[8..16].copy_from_slice(&a.raw().to_le_bytes());
    }
    if let Some(a) = i.loads[1] {
        flags |= FLAG_LOAD1;
        buf[16..24].copy_from_slice(&a.raw().to_le_bytes());
    }
    if let Some(a) = i.store {
        flags |= FLAG_STORE;
        buf[24..32].copy_from_slice(&a.raw().to_le_bytes());
    }
    if i.mispredicted_branch {
        flags |= FLAG_MISPREDICT;
    }
    if let Some(c) = i.dep_chain {
        flags |= FLAG_DEP;
        buf[33] = c;
    }
    buf[32] = flags;
    buf
}

/// Decodes one canonical 40-byte record.
///
/// # Errors
///
/// Any deviation from the canonical form returns a [`RecordError`];
/// decoding never panics.
pub fn decode_record(buf: &[u8; RECORD_BYTES]) -> Result<Instr, RecordError> {
    let flags = buf[32];
    if flags & !FLAG_MASK != 0 {
        return Err(RecordError::UnknownFlags(flags));
    }
    let word = |off: usize| u64::from_le_bytes(buf[off..off + 8].try_into().expect("8 bytes"));
    let operand = |flag: u8, off: usize, which: &'static str| {
        let raw = word(off);
        if flags & flag != 0 {
            Ok(Some(VAddr::new(raw)))
        } else if raw != 0 {
            Err(RecordError::PhantomOperand(which))
        } else {
            Ok(None)
        }
    };
    let load0 = operand(FLAG_LOAD0, 8, "loads[0]")?;
    let load1 = operand(FLAG_LOAD1, 16, "loads[1]")?;
    let store = operand(FLAG_STORE, 24, "store")?;
    let dep_chain = if flags & FLAG_DEP != 0 {
        if (buf[33] as usize) >= MAX_DEP_CHAINS {
            return Err(RecordError::DepChainOutOfRange(buf[33]));
        }
        Some(buf[33])
    } else if buf[33] != 0 {
        return Err(RecordError::PhantomDepChain(buf[33]));
    } else {
        None
    };
    // Bytes 34..40 are the top six of the little-endian word at 32.
    if word(32) >> 16 != 0 {
        return Err(RecordError::NonZeroPadding);
    }
    Ok(Instr {
        ip: crate::Ip::new(word(0)),
        loads: [load0, load1],
        store,
        mispredicted_branch: flags & FLAG_MISPREDICT != 0,
        dep_chain,
    })
}

/// Decodes a run of whole records into the front of `out`, returning
/// how many were written. This is the chunk-decode primitive the
/// streaming trace cursors are built on: callers hand in a byte slice
/// that is an exact multiple of [`RECORD_BYTES`] (and no longer than
/// `out`), and get back strict per-record validation without ever
/// materialising more than one chunk.
///
/// # Errors
///
/// The offending record's index *within this chunk* plus its
/// [`RecordError`]; callers add their stream offset to report absolute
/// positions.
///
/// # Panics
///
/// Panics if `bytes` is not whole records or decodes to more records
/// than `out` holds — both are caller bugs, not data corruption.
pub fn decode_record_chunk(bytes: &[u8], out: &mut [Instr]) -> Result<usize, (u64, RecordError)> {
    assert!(
        bytes.len().is_multiple_of(RECORD_BYTES),
        "chunk of {} bytes is not whole records",
        bytes.len()
    );
    let n = bytes.len() / RECORD_BYTES;
    assert!(n <= out.len(), "chunk of {n} records overflows the buffer");
    for (index, (rec, slot)) in bytes
        .chunks_exact(RECORD_BYTES)
        .zip(out.iter_mut())
        .enumerate()
    {
        let rec: &[u8; RECORD_BYTES] = rec.try_into().expect("exact chunk");
        *slot = decode_record(rec).map_err(|e| (index as u64, e))?;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ip;

    #[test]
    fn roundtrips_every_constructor() {
        let cases = [
            Instr::alu(Ip::new(0x401000)),
            Instr::load(Ip::new(0x401008), VAddr::new(0xdead_b000)),
            Instr::store(Ip::new(0x401010), VAddr::new(0xbeef_0040)),
            Instr::mispredicted_branch(Ip::new(0x401018)),
            Instr::dependent_load(Ip::new(0x401020), VAddr::new(0x10), 7),
            Instr {
                ip: Ip::new(1),
                loads: [Some(VAddr::new(0)), Some(VAddr::new(u64::MAX))],
                store: Some(VAddr::new(2)),
                mispredicted_branch: true,
                dep_chain: Some(0),
            },
        ];
        for i in cases {
            let bytes = encode_record(&i);
            assert_eq!(decode_record(&bytes), Ok(i));
            assert_eq!(encode_record(&decode_record(&bytes).unwrap()), bytes);
        }
    }

    #[test]
    fn strictness_rejects_non_canonical_records() {
        let mut ok = encode_record(&Instr::load(Ip::new(4), VAddr::new(64)));
        assert!(decode_record(&ok).is_ok());

        let mut bad = ok;
        bad[32] |= 0x80;
        assert!(matches!(
            decode_record(&bad),
            Err(RecordError::UnknownFlags(_))
        ));

        let mut bad = ok;
        bad[24] = 1; // store address without FLAG_STORE
        assert_eq!(
            decode_record(&bad),
            Err(RecordError::PhantomOperand("store"))
        );

        let mut bad = ok;
        bad[33] = 3; // dep chain byte without FLAG_DEP
        assert_eq!(decode_record(&bad), Err(RecordError::PhantomDepChain(3)));

        let mut bad = encode_record(&Instr::dependent_load(Ip::new(4), VAddr::new(64), 0));
        bad[33] = MAX_DEP_CHAINS as u8;
        assert_eq!(
            decode_record(&bad),
            Err(RecordError::DepChainOutOfRange(MAX_DEP_CHAINS as u8))
        );

        ok[39] = 1;
        assert_eq!(decode_record(&ok), Err(RecordError::NonZeroPadding));
    }

    #[test]
    fn chunk_decode_matches_per_record_decode() {
        let instrs = [
            Instr::alu(Ip::new(1)),
            Instr::load(Ip::new(2), VAddr::new(0x1000)),
            Instr::dependent_load(Ip::new(3), VAddr::new(0x2000), 4),
        ];
        let mut bytes = Vec::new();
        for i in &instrs {
            bytes.extend_from_slice(&encode_record(i));
        }
        let mut out = [Instr::default(); 8];
        assert_eq!(decode_record_chunk(&bytes, &mut out), Ok(3));
        assert_eq!(&out[..3], &instrs);
        assert_eq!(decode_record_chunk(&[], &mut out), Ok(0));

        // A bad record reports its index within the chunk.
        bytes[RECORD_BYTES + 32] |= 0x80;
        assert_eq!(
            decode_record_chunk(&bytes, &mut out),
            Err((1, RecordError::UnknownFlags(bytes[RECORD_BYTES + 32])))
        );
    }
}
