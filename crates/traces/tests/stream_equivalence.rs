//! Equivalence of streamed and materialized trace replay.
//!
//! The streaming refactor's core promise: replaying a trace through an
//! [`InstrStream`] cursor — at *any* chunk size, across rewinds and
//! cyclic wrap-around — yields exactly the instruction sequence the
//! one-shot materializing decoder produces. These property tests pin
//! that promise for the one record cursor ([`MmapStream`]) over both of
//! its handle forms — an owned body built in the process (builtins,
//! [`Trace::new`]) and the plain `.btrc` file of the same bytes — and
//! for the [`Trace`] chunked cursor, and check that file corruption
//! (truncation below what the header claims, at open or after it, and
//! a flipped body byte) is a typed [`IngestError`] — never a panic.

mod common;

use std::path::PathBuf;
use std::sync::{Arc, Barrier};

use berti_traces::ingest::{
    decode_btrc, decode_champsim, encode_btrc, encode_records, open_streaming, write_btrc,
    IngestError, MmapBtrc, MmapStream, BTRC_HEADER_BYTES,
};
use berti_traces::{InstrStream, Trace, STREAM_CHUNK_INSTRS};
use berti_types::{Instr, Ip, VAddr, RECORD_BYTES};
use common::TempPath;
use proptest::prelude::*;

/// A deterministic but shape-diverse instruction stream: strided loads,
/// occasional second load, stores, and mispredicted branches.
fn mixed_instrs(n: usize) -> Vec<Instr> {
    (0..n)
        .map(|i| {
            let i = i as u64;
            let mut instr = Instr::alu(Ip::new(0x40_0000 + i * 4));
            if i % 3 != 2 {
                instr.loads[0] = Some(VAddr::new(0x10_0000 + i * 64));
            }
            if i.is_multiple_of(7) {
                instr.loads[1] = Some(VAddr::new(0x20_0000 + i * 8));
            }
            if i % 5 == 1 {
                instr.store = Some(VAddr::new(0x30_0000 + i * 16));
            }
            instr.mispredicted_branch = i % 11 == 3;
            instr
        })
        .collect()
}

/// Drains one full pass of `stream` using `chunk`-sized reads.
fn drain_pass(stream: &mut dyn InstrStream, chunk: usize) -> Result<Vec<Instr>, IngestError> {
    let mut out = Vec::with_capacity(stream.len());
    let mut buf = vec![Instr::alu(Ip::new(0)); chunk.max(1)];
    loop {
        let n = stream.next_chunk(&mut buf)?;
        if n == 0 {
            return Ok(out);
        }
        out.extend_from_slice(&buf[..n]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(common::proptest_cases(24)))]

    /// One pass of the file's stream equals the one-shot decode for every
    /// chunk size — including 1 (maximal refills), sizes that divide
    /// the trace, sizes that straddle the final partial chunk, and
    /// sizes larger than the trace. A rewound second pass with a
    /// *different* chunking yields the same sequence.
    #[test]
    fn mmap_stream_matches_materialized_at_any_chunk_size(
        len in 1usize..400,
        chunk_a in 1usize..512,
        chunk_b in 1usize..512,
    ) {
        let instrs = mixed_instrs(len);
        let path = TempPath::new("eq.btrc");
        write_btrc(&path, &instrs).expect("writes");

        let materialized = decode_btrc(&std::fs::read(&path).expect("reads")).expect("decodes");
        prop_assert_eq!(&materialized, &instrs);

        let mut stream = open_streaming(&path).expect("opens");
        prop_assert_eq!(stream.len(), len);
        let first = drain_pass(stream.as_mut(), chunk_a).expect("first pass streams");
        prop_assert_eq!(&first, &instrs);

        stream.rewind().expect("rewinds");
        let second = drain_pass(stream.as_mut(), chunk_b).expect("second pass streams");
        prop_assert_eq!(&second, &instrs);
    }

    /// The record cursor over an owned body and over the file of the
    /// same bytes are one replay: the same sequence at any chunk size,
    /// again after a rewind, and from a fork taken mid-pass. The owned
    /// handle never hashes (it starts verified); the file's is verified
    /// by its first pass.
    #[test]
    fn owned_body_replays_like_the_mapped_file(
        len in 1usize..400,
        chunk_a in 1usize..512,
        chunk_b in 1usize..512,
        fork_at in 0usize..400,
    ) {
        let instrs = mixed_instrs(len);
        let path = TempPath::new("owned.btrc");
        write_btrc(&path, &instrs).expect("writes");
        let owned = Arc::new(MmapBtrc::from_body(encode_records(&instrs)));
        let file = Arc::new(MmapBtrc::open(&path).expect("opens"));
        prop_assert_eq!(owned.hashed_bytes(), len * RECORD_BYTES);
        prop_assert_eq!(file.hashed_bytes(), 0);

        let replays = [&owned, &file].map(|btrc| {
            let mut s = MmapStream::new(Arc::clone(btrc));
            let first = drain_pass(&mut s, chunk_a).expect("first pass");
            s.rewind().expect("rewinds");
            let second = drain_pass(&mut s, chunk_b).expect("second pass");
            s.rewind().expect("rewinds");
            let head = pull(&mut s, fork_at.min(len)).expect("streams");
            let mut fork = s.fork().expect("forks");
            let forked = drain_pass(fork.as_mut(), chunk_b).expect("forked pass");
            let tail = drain_pass(&mut s, chunk_a).expect("rest of the pass");
            [first, second, forked, [head, tail].concat()]
        });
        prop_assert_eq!(&replays[0], &replays[1]);
        for pass in &replays[0] {
            prop_assert_eq!(pass, &instrs);
        }
        prop_assert_eq!(owned.hashed_bytes(), len * RECORD_BYTES);
        prop_assert_eq!(file.hashed_bytes(), len * RECORD_BYTES);
    }

    /// The `Trace` cursor replays cyclically: pulling more instructions
    /// than one pass wraps around to position zero, exactly like the
    /// old materialized `Vec` replay did with index arithmetic — over
    /// the file and over `Trace::new`'s owned body alike.
    #[test]
    fn trace_cursor_wraps_identically_to_materialized_replay(
        len in 1usize..200,
        extra in 0usize..150,
    ) {
        let instrs = mixed_instrs(len);
        let path = TempPath::new("wrap.btrc");
        write_btrc(&path, &instrs).expect("writes");

        let stream = open_streaming(&path).expect("opens");
        let mut trace = Trace::from_stream("wrap".to_string(), stream).expect("primes");
        let mut owned = Trace::new("wrap", instrs.clone());
        let pulls = 2 * len + extra;
        for k in 0..pulls {
            prop_assert_eq!(trace.next_instr(), instrs[k % len], "pull {}", k);
            prop_assert_eq!(owned.next_instr(), instrs[k % len], "owned pull {}", k);
        }
    }

    /// Truncating the file below what the header claims is a typed
    /// error at *open* time, before any cursor reads a block, and
    /// truncating inside the header itself is `TruncatedHeader`.
    #[test]
    fn truncated_mmap_is_a_typed_error_at_open(
        len in 1usize..60,
        cut in any::<u64>(),
    ) {
        let instrs = mixed_instrs(len);
        let bytes = encode_btrc(&instrs);

        // Cut strictly inside the body: header intact, body short.
        let body_cut = BTRC_HEADER_BYTES
            + (cut as usize) % (instrs.len() * RECORD_BYTES);
        let path = TempPath::file("cut.btrc", &bytes[..body_cut]);
        match open_streaming(&path) {
            Err(IngestError::Truncated { .. }) => {}
            other => prop_assert!(false, "expected Truncated, got {:?}", other.map(|_| "stream")),
        }

        // Cut inside the header, past the 4-byte magic (shorter files
        // cannot be sniffed as `.btrc` and fall to the ChampSim
        // backend, which reports its own typed framing error).
        let header_cut = 4 + (cut as usize) % (BTRC_HEADER_BYTES - 4);
        std::fs::write(&path, &bytes[..header_cut]).expect("writes");
        match open_streaming(&path) {
            Err(IngestError::TruncatedHeader { .. }) => {}
            other => prop_assert!(
                false,
                "expected TruncatedHeader, got {:?}",
                other.map(|_| "stream")
            ),
        }
    }
}

/// Pulls exactly `records` records through `stream` in 16-record reads.
fn pull(stream: &mut dyn InstrStream, records: usize) -> Result<Vec<Instr>, IngestError> {
    let mut out = Vec::with_capacity(records);
    let mut buf = [Instr::alu(Ip::new(0)); 16];
    while out.len() < records {
        let want = buf.len().min(records - out.len());
        let n = stream.next_chunk(&mut buf[..want])?;
        assert!(n > 0, "stream ended {} records early", records - out.len());
        out.extend_from_slice(&buf[..n]);
    }
    Ok(out)
}

/// A file cut short in place after it was opened: what a cursor has
/// already read and the start of the new length replay, and the first
/// read that reaches past the new end is a typed `Truncated`
/// naming the records left, for the cursor and for a fork. The file is
/// longer than one block read, so the cursor has to read again after
/// the cut. While the body was memory-mapped, touching the cut pages
/// raised SIGBUS and killed the process.
#[test]
fn truncated_after_open_is_a_typed_error_at_the_next_chunk() {
    let instrs = mixed_instrs(8 * STREAM_CHUNK_INSTRS * 20);
    let path = TempPath::new("shrunk.btrc");
    write_btrc(&path, &instrs).expect("writes");
    let mut stream = open_streaming(&path).expect("opens");
    assert_eq!(pull(stream.as_mut(), 100).expect("streams"), instrs[..100]);

    let kept = instrs.len() / 2;
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .and_then(|f| f.set_len((BTRC_HEADER_BYTES + kept * RECORD_BYTES) as u64))
        .expect("truncates");
    let mut fork = stream.fork().expect("forks");
    assert_eq!(
        pull(fork.as_mut(), 100).expect("inside the new length"),
        instrs[..100]
    );
    for cursor in [stream.as_mut(), fork.as_mut()] {
        let err = drain_pass(cursor, 64).expect_err("reads past the new end");
        assert_eq!(
            err,
            IngestError::Truncated {
                expected_records: instrs.len() as u64,
                got_records: kept as u64,
            }
        );
    }
}

/// Partial passes accumulate: cursor A reads three quarters of the body
/// and is dropped, its fork B re-reads what A hashed (the frontier does
/// not move) and then carries it to the end — verified, with every body
/// byte hashed exactly once.
#[test]
fn partial_passes_of_two_cursors_hash_each_byte_once() {
    let instrs = mixed_instrs(400);
    let path = TempPath::new("partial.btrc");
    write_btrc(&path, &instrs).expect("writes");
    let btrc = Arc::new(MmapBtrc::open(&path).expect("opens"));
    let mut a = MmapStream::new(Arc::clone(&btrc));
    assert_eq!(pull(&mut a, 300).expect("streams"), instrs[..300]);
    assert_eq!(btrc.hashed_bytes(), 300 * RECORD_BYTES);
    let mut b = a.fork().expect("forks");
    drop(a);
    assert_eq!(pull(b.as_mut(), 290).expect("streams"), instrs[..290]);
    assert_eq!(btrc.hashed_bytes(), 300 * RECORD_BYTES, "nothing re-hashed");
    assert_eq!(pull(b.as_mut(), 110).expect("streams"), instrs[290..]);
    assert_eq!(btrc.hashed_bytes(), 400 * RECORD_BYTES, "verified");
}

/// The lazy checksum catches body corruption the record decoder cannot:
/// a flipped address byte still decodes as a canonical record, so the
/// error surfaces as `ChecksumMismatch` when the first full coverage of
/// the body completes — the end of the first pass for a lone cursor,
/// and for two cursors sharing the work whichever of them gets there
/// (then the other as well), wherever the flipped byte sits.
#[test]
fn flipped_body_byte_is_a_checksum_mismatch_when_coverage_completes() {
    let instrs = mixed_instrs(40);
    // Records with `loads[0]` (index % 3 != 2) in the first and in the
    // last quarter: flipping an address byte keeps the record canonical
    // but the body no longer matches the header's FNV.
    for record in [3, 18, 36] {
        let mut bytes = encode_btrc(&instrs);
        bytes[BTRC_HEADER_BYTES + record * RECORD_BYTES + 9] ^= 0x40;
        let path = TempPath::file("flip.btrc", &bytes);

        let mut lone = open_streaming(&path).expect("header is intact, open succeeds");
        let err = drain_pass(lone.as_mut(), 16).expect_err("first pass detects corruption");
        assert!(
            matches!(err, IngestError::ChecksumMismatch { .. }),
            "expected ChecksumMismatch, got {err:?}"
        );

        let btrc = Arc::new(MmapBtrc::open(&path).expect("opens"));
        let mut a = MmapStream::new(Arc::clone(&btrc));
        pull(&mut a, 30).expect("three quarters stream");
        let mut b = a.fork().expect("forks");
        for cursor in [b.as_mut(), &mut a as &mut dyn InstrStream] {
            assert!(matches!(
                drain_pass(cursor, 16),
                Err(IngestError::ChecksumMismatch { .. })
            ));
        }
        assert!(btrc.hashed_bytes() < 40 * RECORD_BYTES, "never verified");
    }
}

/// Many short cells over one file, each a fresh cursor that stops well
/// short of a full pass (the shape of a campaign: 300 k-instruction
/// cells on a 400 k-instruction trace): the first cell hashes what it
/// reads, every later one hashes nothing, and a longer cell then only
/// adds the tail — the handle ends verified with every body byte hashed
/// exactly once.
#[test]
fn short_cells_over_one_handle_hash_nothing_after_the_first() {
    let len = 3 * STREAM_CHUNK_INSTRS + 100;
    let instrs = mixed_instrs(len);
    let path = TempPath::new("cells.btrc");
    write_btrc(&path, &instrs).expect("writes");
    let btrc = Arc::new(MmapBtrc::open(&path).expect("opens"));
    let cell = |pulls: usize| {
        let stream = Box::new(MmapStream::new(Arc::clone(&btrc)));
        let mut trace = Trace::from_stream("cell".to_string(), stream).expect("primes");
        for k in 0..pulls {
            assert_eq!(trace.next_instr(), instrs[k % len], "pull {k}");
        }
        btrc.hashed_bytes()
    };
    let short = 2 * STREAM_CHUNK_INSTRS + 1; // pulls three chunks of the four
    let after_first = cell(short);
    assert_eq!(after_first, 3 * STREAM_CHUNK_INSTRS * RECORD_BYTES);
    for _ in 0..5 {
        assert_eq!(cell(short), after_first, "a repeat cell hashed bytes again");
    }
    assert_eq!(cell(len + 10), len * RECORD_BYTES, "the tail completes it");
    assert_eq!(
        cell(2 * len),
        len * RECORD_BYTES,
        "verified: wraps hash nothing"
    );
}

/// Two threads replay one handle with different chunkings, released
/// together by a barrier so both race over the same frontier. The
/// running FNV is order-sensitive: had any byte been hashed twice, out
/// of order, or skipped, the sum could not match and one of the passes
/// would fail — so two clean passes plus a verified handle prove every
/// byte went through the hash exactly once. On a corrupt body neither
/// thread may miss the verdict.
#[test]
fn two_threads_over_one_handle_hash_once_and_both_get_the_verdict() {
    let instrs = mixed_instrs(5_000);
    let mut corrupt = encode_btrc(&instrs);
    corrupt[BTRC_HEADER_BYTES + 4_321 * RECORD_BYTES + 9] ^= 0x40;
    for (tag, bytes, clean) in [
        ("mt-ok.btrc", encode_btrc(&instrs), true),
        ("mt-bad.btrc", corrupt, false),
    ] {
        let path = TempPath::file(tag, &bytes);
        let btrc = Arc::new(MmapBtrc::open(&path).expect("opens"));
        let barrier = Barrier::new(2);
        let passes: Vec<Result<Vec<Instr>, IngestError>> = std::thread::scope(|scope| {
            let workers: Vec<_> = [7usize, 64]
                .into_iter()
                .map(|chunk| {
                    let (btrc, barrier) = (Arc::clone(&btrc), &barrier);
                    scope.spawn(move || {
                        let mut stream = MmapStream::new(btrc);
                        barrier.wait();
                        drain_pass(&mut stream, chunk)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("replay thread panicked"))
                .collect()
        });
        for pass in passes {
            if clean {
                assert_eq!(pass.expect("clean pass"), instrs);
            } else {
                assert!(matches!(pass, Err(IngestError::ChecksumMismatch { .. })));
            }
        }
        assert_eq!(
            btrc.hashed_bytes() == instrs.len() * RECORD_BYTES,
            clean,
            "verified exactly when the body is clean"
        );
    }
}

/// The checked-in ChampSim fixture streams to exactly the sequence the
/// one-shot decoder materializes — both the raw file (incremental
/// `ChampsimStream`) and its `.xz` sibling (subprocess pipe), each
/// across a rewind.
#[test]
fn champsim_fixture_streams_identically_to_materialized_decode() {
    let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    let bytes = std::fs::read(fixtures.join("champsim_500.trace")).expect("reads");
    let materialized = decode_champsim(&bytes).expect("fixture decodes");
    for name in ["champsim_500.trace", "champsim_500.trace.xz"] {
        let mut stream = open_streaming(&fixtures.join(name)).expect("opens");
        assert_eq!(stream.len(), materialized.len(), "{name} len");
        let first = drain_pass(stream.as_mut(), 97).expect("streams");
        assert_eq!(first, materialized, "{name} first pass");
        stream.rewind().expect("rewinds");
        let second = drain_pass(stream.as_mut(), 1000).expect("streams");
        assert_eq!(second, materialized, "{name} second pass");
    }
}

/// Chunk-boundary stress at the production chunk size: a trace exactly
/// at, one under, and one over `STREAM_CHUNK_INSTRS` replays correctly
/// through the `Trace` cursor, including one wrap-around.
#[test]
fn production_chunk_size_boundaries_replay_exactly() {
    for len in [
        STREAM_CHUNK_INSTRS - 1,
        STREAM_CHUNK_INSTRS,
        STREAM_CHUNK_INSTRS + 1,
    ] {
        let instrs = mixed_instrs(len);
        let path = TempPath::new("bound.btrc");
        write_btrc(&path, &instrs).expect("writes");
        let stream = open_streaming(&path).expect("opens");
        let mut trace = Trace::from_stream("bound".to_string(), stream).expect("primes");
        for k in 0..len + 3 {
            assert_eq!(trace.next_instr(), instrs[k % len], "len {len} pull {k}");
        }
    }
}
