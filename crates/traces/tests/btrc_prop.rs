//! Property tests of the `.btrc` codec: arbitrary instruction streams
//! survive encode -> decode losslessly, the encoding is canonical, and
//! every corruption (truncation, extension, any single flipped byte)
//! is rejected with a typed [`IngestError`] — never a panic. The file
//! reader behind the trace cache agrees with the reference decoders on
//! arbitrary uncompressed bytes.

mod common;

use berti_traces::ingest::{
    btrc_header, decode_btrc, decode_champsim, encode_btrc, fnv1a64, IngestError,
    BTRC_HEADER_BYTES, CHAMPSIM_RECORD_BYTES,
};
use berti_traces::InstrStream;
use berti_types::{Instr, Ip, VAddr, MAX_DEP_CHAINS, RECORD_BYTES};
use common::TempPath;
use proptest::prelude::*;

/// Maps four raw words to a valid [`Instr`], reaching every encodable
/// shape: 0-2 loads, optional store, mispredict flag, and a dependence
/// chain when (and only when) a load is present.
fn instr_from(seed: u64, a: u64, b: u64, c: u64) -> Instr {
    let mut i = Instr::alu(Ip::new(a & 0x0000_ffff_ffff_ffff));
    let shape = seed & 0x7;
    if shape & 1 != 0 {
        i.loads[0] = Some(VAddr::new(b));
        if seed & 0x8 != 0 {
            i.loads[1] = Some(VAddr::new(b ^ c | 1));
        }
        if seed & 0x10 != 0 {
            i.dep_chain = Some((seed >> 8) as u8 % MAX_DEP_CHAINS as u8);
        }
    }
    if shape & 2 != 0 {
        i.store = Some(VAddr::new(c));
    }
    i.mispredicted_branch = seed & 0x20 != 0;
    i
}

fn stream_from(words: &[(u64, u64, u64, u64)]) -> Vec<Instr> {
    words
        .iter()
        .map(|&(s, a, b, c)| instr_from(s, a, b, c))
        .collect()
}

proptest! {
    /// encode -> decode is the identity on arbitrary valid streams,
    /// and re-encoding the decode reproduces the bytes (canonical
    /// form).
    #[test]
    fn round_trip_is_lossless_and_canonical(
        words in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 0..200),
    ) {
        let instrs = stream_from(&words);
        let bytes = encode_btrc(&instrs);
        prop_assert_eq!(bytes.len(), BTRC_HEADER_BYTES + instrs.len() * RECORD_BYTES);
        let decoded = decode_btrc(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &instrs);
        prop_assert_eq!(encode_btrc(&decoded), bytes);
    }

    /// Truncating an encoding anywhere is rejected with a typed error.
    #[test]
    fn truncation_is_rejected(
        words in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 1..50),
        cut in any::<u64>(),
    ) {
        let bytes = encode_btrc(&stream_from(&words));
        let cut = (cut as usize) % bytes.len();
        match decode_btrc(&bytes[..cut]) {
            Err(
                IngestError::TruncatedHeader { .. }
                | IngestError::Truncated { .. }
                | IngestError::ChecksumMismatch { .. },
            ) => {}
            other => return Err(format!("cut at {cut}: unexpected {other:?}")),
        }
    }

    /// Appending trailing garbage is rejected.
    #[test]
    fn trailing_bytes_are_rejected(
        words in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 0..50),
        extra in 1usize..64,
    ) {
        let mut bytes = encode_btrc(&stream_from(&words));
        bytes.extend(std::iter::repeat_n(0xAA, extra));
        match decode_btrc(&bytes) {
            Err(IngestError::TrailingBytes { .. } | IngestError::ChecksumMismatch { .. }) => {}
            other => return Err(format!("unexpected {other:?}")),
        }
    }

    /// Flipping ANY single byte of an encoding makes decode fail with
    /// some typed error — the header is fully validated and the
    /// checksum covers every body byte — and never panic.
    #[test]
    fn any_single_byte_flip_is_detected(
        words in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 1..50),
        pos in any::<u64>(),
        flip in 1u16..256,
    ) {
        let mut bytes = encode_btrc(&stream_from(&words));
        let pos = (pos as usize) % bytes.len();
        bytes[pos] ^= flip as u8;
        prop_assert!(
            decode_btrc(&bytes).is_err(),
            "flip 0x{:02x} at byte {} (of {}) went undetected",
            flip, pos, bytes.len()
        );
    }
}

/// One full pass of `stream`.
fn drain(mut stream: Box<dyn InstrStream>) -> Result<Vec<Instr>, IngestError> {
    let mut out = vec![Instr::default(); stream.len()];
    let n = stream.next_chunk(&mut out)?;
    assert_eq!(n, out.len(), "one chunk holds the whole pass");
    assert_eq!(
        stream.next_chunk(&mut [Instr::default()])?,
        0,
        "then the pass ends"
    );
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::proptest_cases(64)))]

    /// Arbitrary bytes in an uncompressed file, with and without the
    /// `BTRC` magic, opened through the trace cache and drained: never
    /// a panic, and exactly what the slice-level reference decoder
    /// says — the same instructions, or the same typed error. The
    /// `BTRC` case can also fix the header's version, record size and
    /// reserved bits (`fields`), then its record count (`count`), then
    /// its checksum (`sum`), so each later check is reached too. A
    /// ChampSim body is cut to whole records when `whole` is set.
    #[test]
    fn open_file_on_arbitrary_bytes_matches_the_reference_decoder(
        bytes in prop::collection::vec(any::<u8>(), 0..700),
        btrc in any::<bool>(),
        fields in any::<bool>(),
        count in any::<bool>(),
        sum in any::<bool>(),
        whole in any::<bool>(),
    ) {
        let mut bytes = bytes;
        if btrc {
            bytes.splice(0..0, *b"BTRC");
            if fields && bytes.len() >= BTRC_HEADER_BYTES {
                let body = bytes.len() - BTRC_HEADER_BYTES;
                let mut header = btrc_header(body as u64 / RECORD_BYTES as u64, 0);
                if !count {
                    header[8..16].copy_from_slice(&bytes[8..16]);
                }
                if sum {
                    let checksum = fnv1a64(&bytes[BTRC_HEADER_BYTES..]);
                    header[16..24].copy_from_slice(&checksum.to_le_bytes());
                } else {
                    header[16..24].copy_from_slice(&bytes[16..24]);
                }
                bytes[..BTRC_HEADER_BYTES].copy_from_slice(&header);
            }
        } else if whole {
            bytes.truncate(bytes.len() - bytes.len() % CHAMPSIM_RECORD_BYTES);
        }
        let path = TempPath::file(if btrc { "arb.btrc" } else { "arb.trace" }, &bytes);
        let got = berti_traces::cache::open_file(&path).and_then(drain);
        let want = if bytes.starts_with(b"BTRC") {
            decode_btrc(&bytes)
        } else {
            decode_champsim(&bytes)
        };
        prop_assert_eq!(got, want);
    }
}
