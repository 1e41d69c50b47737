//! The streaming trace seam: pull cursors over instruction streams.
//!
//! [`InstrStream`] is the contract every trace backend implements —
//! the one record cursor over a shared `.btrc` body (read from a
//! plain `.btrc` file, or built in memory for builtins, `Trace::new`
//! and small decoded files) and the incremental ChampSim/compressed decoders
//! (`crate::ingest`). A stream produces one *replay period* of
//! instructions chunk by chunk; the consumer ([`crate::Trace`]) rewinds
//! it to replay cyclically, so a multi-GB trace never has to
//! materialise in memory.

use berti_types::Instr;

use crate::ingest::IngestError;

/// Default cursor chunk, in instructions: 16 KiB of `Instr`s, so a
/// chunk is decoded and consumed while still in the host's L1D/L2, and
/// a 4-core mix's round-robin holds 64 KiB of them. A refill every 256
/// instructions costs under 1 % of replaying them; a chunk of 8 Ki
/// instructions (512 KiB) sends every decoded instruction out to the
/// host's L2/L3 and back, and costs a 4-core cell 5 %.
pub const STREAM_CHUNK_INSTRS: usize = 256;

/// A pull cursor over one trace: yields the instruction sequence in
/// chunks, knows its total length up front, and can rewind for cyclic
/// replay.
///
/// ## Contract
///
/// - [`len`](InstrStream::len) is the exact number of instructions one
///   full pass yields, known at open time (backends validate headers /
///   count records eagerly so this never lies).
/// - [`next_chunk`](InstrStream::next_chunk) fills a prefix of `buf`
///   and returns how many instructions it wrote; `Ok(0)` means the
///   current pass is complete (and is repeatable until rewound).
/// - [`rewind`](InstrStream::rewind) restarts the stream at position
///   zero; after it, the stream yields the identical sequence again.
/// - [`fork`](InstrStream::fork) opens an independent cursor at
///   position zero over the same underlying trace (cheap for the
///   shared record cursor; reopens the file for pipe decoders).
///
/// Errors are *typed*: body corruption that can only be detected
/// mid-stream (a non-canonical record, a checksum mismatch at the end
/// of the first full pass) surfaces as an [`IngestError`] from
/// `next_chunk`, never as a panic inside the stream.
pub trait InstrStream: Send {
    /// Instructions in one full pass of the stream.
    fn len(&self) -> usize;

    /// `true` when a full pass yields no instructions.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fills a prefix of `buf` with the next instructions of the
    /// current pass; returns how many were written, `Ok(0)` at the end
    /// of the pass.
    fn next_chunk(&mut self, buf: &mut [Instr]) -> Result<usize, IngestError>;

    /// Restarts the stream at position zero.
    fn rewind(&mut self) -> Result<(), IngestError>;

    /// An independent cursor at position zero over the same trace.
    fn fork(&self) -> Result<Box<dyn InstrStream>, IngestError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{MmapBtrc, MmapStream};
    use std::sync::Arc;

    #[test]
    fn empty_stream_reports_empty() {
        let mut s = MmapStream::new(Arc::new(MmapBtrc::from_body(Vec::new())));
        assert!(s.is_empty());
        assert_eq!(s.next_chunk(&mut [Instr::default(); 2]).unwrap(), 0);
    }
}
