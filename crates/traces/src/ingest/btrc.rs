//! The `.btrc` compact pre-decoded trace format.
//!
//! A `.btrc` file is a 32-byte header followed by `record_count`
//! fixed-width records ([`berti_types::RECORD_BYTES`] each, layout in
//! `berti_types::record`):
//!
//! ```text
//! offset  size  field
//!      0     4  magic "BTRC"
//!      4     2  version (little-endian, currently 1)
//!      6     2  record size in bytes (currently 40)
//!      8     8  record count (little-endian)
//!     16     8  FNV-1a-64 checksum over the record bytes
//!     24     8  reserved, must be zero
//! ```
//!
//! Decoding validates everything — magic, version, record size, exact
//! body length, checksum, and per-record canonical form — and returns
//! typed [`IngestError`]s, never panicking on malformed input. Because
//! both layers are canonical, `encode(decode(file)) == file` holds
//! byte-for-byte for every valid file, which the fixture round-trip
//! test pins.

use std::path::Path;

use berti_types::{decode_record_chunk, encode_record, Instr, RECORD_BYTES};

use super::IngestError;

/// Leading magic of every `.btrc` file.
pub const BTRC_MAGIC: [u8; 4] = *b"BTRC";

/// Current format version.
pub const BTRC_VERSION: u16 = 1;

/// Header size.
pub const BTRC_HEADER_BYTES: usize = 32;

/// FNV-1a-64 offset basis: the running-hash seed for
/// [`fnv1a64_update`].
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a-64 hash. Streaming backends
/// hash a trace body chunk by chunk with this; `fnv1a64(b)` equals
/// `fnv1a64_update(FNV_OFFSET_BASIS, b)` for any split of `b`.
pub fn fnv1a64_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64-bit hash (the header checksum function).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_update(FNV_OFFSET_BASIS, bytes)
}

/// A validated `.btrc` header: what remains after magic, version,
/// record size, and reserved bits have all been checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BtrcHeader {
    /// Records (= instructions) the body holds.
    pub record_count: u64,
    /// FNV-1a-64 checksum the body must hash to.
    pub checksum: u64,
}

impl BtrcHeader {
    /// Checks that a body of `body_len` bytes holds exactly the records
    /// this header promises: a shorter one is [`IngestError::Truncated`],
    /// a longer one [`IngestError::TrailingBytes`]. Every reader that
    /// knows a body's length before reading it checks it here.
    pub fn check_body_len(&self, body_len: u64) -> Result<(), IngestError> {
        // A count whose body would not fit in a u64 promises more than
        // any file holds.
        let want = self.record_count.checked_mul(RECORD_BYTES as u64);
        match want {
            Some(want) if body_len > want => Err(IngestError::TrailingBytes {
                extra: (body_len - want) as usize,
            }),
            Some(want) if body_len == want => Ok(()),
            _ => Err(IngestError::Truncated {
                expected_records: self.record_count,
                got_records: body_len / RECORD_BYTES as u64,
            }),
        }
    }
}

/// Parses and fully validates the fixed 32-byte `.btrc` header. Every
/// reader — the reference decoder, the record cursor, the pipe stream —
/// goes through this one function, so a malformed header is
/// the same typed error no matter which backend saw it.
pub fn parse_btrc_header(header: &[u8; BTRC_HEADER_BYTES]) -> Result<BtrcHeader, IngestError> {
    if header[0..4] != BTRC_MAGIC {
        return Err(IngestError::BadMagic(
            header[0..4].try_into().expect("4 bytes"),
        ));
    }
    let u16_at = |off: usize| u16::from_le_bytes(header[off..off + 2].try_into().expect("2 bytes"));
    let u64_at = |off: usize| u64::from_le_bytes(header[off..off + 8].try_into().expect("8 bytes"));
    let version = u16_at(4);
    if version != BTRC_VERSION {
        return Err(IngestError::UnsupportedVersion(version));
    }
    let record_bytes = u16_at(6);
    if record_bytes as usize != RECORD_BYTES {
        return Err(IngestError::BadRecordSize(record_bytes));
    }
    if u64_at(24) != 0 {
        // Reserved bits are part of the canonical form; a nonzero value
        // means a writer newer than this reader.
        return Err(IngestError::UnsupportedVersion(version));
    }
    Ok(BtrcHeader {
        record_count: u64_at(8),
        checksum: u64_at(16),
    })
}

/// The 32-byte `.btrc` header for a body of `record_count` records
/// hashing to `checksum`. Every writer emits its header through here.
pub fn btrc_header(record_count: u64, checksum: u64) -> [u8; BTRC_HEADER_BYTES] {
    let mut h = [0u8; BTRC_HEADER_BYTES];
    h[0..4].copy_from_slice(&BTRC_MAGIC);
    h[4..6].copy_from_slice(&BTRC_VERSION.to_le_bytes());
    h[6..8].copy_from_slice(&(RECORD_BYTES as u16).to_le_bytes());
    h[8..16].copy_from_slice(&record_count.to_le_bytes());
    h[16..24].copy_from_slice(&checksum.to_le_bytes());
    h
}

/// Encodes instructions into a `.btrc` body: their canonical records,
/// back to back, without a header.
pub fn encode_records(instrs: &[Instr]) -> Vec<u8> {
    let mut body = Vec::with_capacity(instrs.len() * RECORD_BYTES);
    for i in instrs {
        body.extend_from_slice(&encode_record(i));
    }
    body
}

/// Decodes a `.btrc` body (whole records, no header) back into
/// instructions.
///
/// # Errors
///
/// [`IngestError::BadRecord`] for the first non-canonical record.
///
/// # Panics
///
/// Panics if `body` is not whole records (a caller bug: every reader
/// checks the body length against the header first).
pub fn decode_records(body: &[u8]) -> Result<Vec<Instr>, IngestError> {
    let mut out = vec![Instr::default(); body.len() / RECORD_BYTES];
    decode_record_chunk(body, &mut out)
        .map_err(|(index, error)| IngestError::BadRecord { index, error })?;
    Ok(out)
}

/// Encodes an instruction stream into `.btrc` bytes. Like
/// [`decode_btrc`], a slice-level reference: tests and the benchmark
/// compare file readers and writers against it.
pub fn encode_btrc(instrs: &[Instr]) -> Vec<u8> {
    let body = encode_records(instrs);
    let mut out = Vec::with_capacity(BTRC_HEADER_BYTES + body.len());
    out.extend_from_slice(&btrc_header(instrs.len() as u64, fnv1a64(&body)));
    out.extend_from_slice(&body);
    out
}

/// Decodes `.btrc` bytes back into the instruction stream. This is the
/// slice-level reference decoder that tests and the benchmark compare
/// the streaming readers against; no trace file is read through it
/// (files go through [`super::open_streaming`] and
/// [`super::drain_file`]).
///
/// # Errors
///
/// Typed [`IngestError`]s for every malformation; never panics.
pub fn decode_btrc(bytes: &[u8]) -> Result<Vec<Instr>, IngestError> {
    if bytes.len() < BTRC_HEADER_BYTES {
        return Err(IngestError::TruncatedHeader { got: bytes.len() });
    }
    let (header, body) = bytes.split_at(BTRC_HEADER_BYTES);
    let header: &[u8; BTRC_HEADER_BYTES] = header.try_into().expect("split at header size");
    let header = parse_btrc_header(header)?;
    header.check_body_len(body.len() as u64)?;
    let got = fnv1a64(body);
    if got != header.checksum {
        return Err(IngestError::ChecksumMismatch {
            expected: header.checksum,
            got,
        });
    }
    decode_records(body)
}

/// Writes an instruction stream to `path` as `.btrc`.
pub fn write_btrc(path: &Path, instrs: &[Instr]) -> Result<(), IngestError> {
    std::fs::write(path, encode_btrc(instrs)).map_err(|e| IngestError::io(path, &e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use berti_types::{Ip, VAddr};

    fn sample() -> Vec<Instr> {
        vec![
            Instr::alu(Ip::new(0x400000)),
            Instr::load(Ip::new(0x400008), VAddr::new(0x7000_1000)),
            Instr::store(Ip::new(0x400010), VAddr::new(0x7000_2040)),
            Instr::mispredicted_branch(Ip::new(0x400018)),
            Instr::dependent_load(Ip::new(0x400020), VAddr::new(0x7000_3000), 5),
        ]
    }

    #[test]
    fn roundtrips_and_is_byte_canonical() {
        let instrs = sample();
        let bytes = encode_btrc(&instrs);
        assert_eq!(bytes.len(), BTRC_HEADER_BYTES + instrs.len() * RECORD_BYTES);
        let back = decode_btrc(&bytes).expect("decodes");
        assert_eq!(back, instrs);
        assert_eq!(encode_btrc(&back), bytes, "byte-identical re-encode");
    }

    #[test]
    fn empty_stream_is_representable() {
        let bytes = encode_btrc(&[]);
        assert_eq!(decode_btrc(&bytes).expect("decodes"), vec![]);
    }

    #[test]
    fn corruption_is_typed_never_a_panic() {
        let good = encode_btrc(&sample());

        assert_eq!(
            decode_btrc(&good[..10]),
            Err(IngestError::TruncatedHeader { got: 10 })
        );

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(decode_btrc(&bad), Err(IngestError::BadMagic(_))));

        let mut bad = good.clone();
        bad[4] = 99;
        assert_eq!(decode_btrc(&bad), Err(IngestError::UnsupportedVersion(99)));

        let mut bad = good.clone();
        bad[6] = 39;
        assert_eq!(decode_btrc(&bad), Err(IngestError::BadRecordSize(39)));

        let truncated = &good[..good.len() - RECORD_BYTES];
        assert_eq!(
            decode_btrc(truncated),
            Err(IngestError::Truncated {
                expected_records: 5,
                got_records: 4
            })
        );

        let mut padded = good.clone();
        padded.extend_from_slice(&[0; 3]);
        assert_eq!(
            decode_btrc(&padded),
            Err(IngestError::TrailingBytes { extra: 3 })
        );

        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        assert!(matches!(
            decode_btrc(&bad),
            Err(IngestError::ChecksumMismatch { .. })
        ));

        // Flip a body byte *and* fix up the checksum: the per-record
        // canonical check still catches it.
        let mut bad = good.clone();
        bad[BTRC_HEADER_BYTES + 32] = 0xff; // flags byte of record 0
        let sum = fnv1a64(&bad[BTRC_HEADER_BYTES..]);
        bad[16..24].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode_btrc(&bad),
            Err(IngestError::BadRecord { index: 0, .. })
        ));
    }
}
