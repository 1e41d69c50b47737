//! The one record cursor: every trace replayed from memory or from a
//! plain `.btrc` file is a `.btrc` body behind an [`MmapBtrc`] handle,
//! and [`MmapStream`] decodes its 40-byte records lazily per chunk. A
//! file's header is validated eagerly at open, including that the file
//! really holds the body the header promises (a shorter file is a typed
//! error at open, not at replay); each cursor then reads the records
//! its chunks need from the handle's open file, 64 KiB at a time, into
//! a buffer it owns. A body built in this process (a generated builtin,
//! a `Trace::new` sequence, a decoded small file) is owned by the
//! handle instead, decoded in place, and has no checksum to verify.
//!
//! ## When the checksum is verified
//!
//! The FNV body checksum belongs to the shared handle, not to a cursor:
//! the handle keeps the length of the body prefix hashed so far and the
//! running FNV over it, and the one cursor whose block covers that
//! frontier extends it from the bytes it just read. Each body byte is
//! therefore hashed at most once per handle per process however many
//! cursors, threads and partial passes replay it, short cells that
//! never finish a pass still accumulate towards the verdict, and the
//! verdict falls when the prefix reaches the end of the body: a
//! mismatch is a typed [`IngestError::ChecksumMismatch`] from the
//! `next_chunk` that completes the coverage (the frontier stays put, so
//! every later cursor to reach the end gets the same error and no
//! record of the last chunk is handed out).
//!
//! ## A file that changes under replay
//!
//! Cursors read through the file the handle opened, so a file replaced
//! by rename keeps replaying the bytes that were validated. One cut
//! short in place after open has no records left where the header said
//! there would be: the first block read that runs past its new end is a
//! typed [`IngestError::Truncated`], never a fault (records a cursor
//! read before the cut are still served from its block).

use std::fs::File;
use std::io::{ErrorKind, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use berti_types::{decode_record_chunk, Instr, RECORD_BYTES};

use super::btrc::{parse_btrc_header, BtrcHeader, FNV_OFFSET_BASIS};
use super::{fnv1a64_update, IngestError, BTRC_HEADER_BYTES};
use crate::stream::InstrStream;

/// Records a cursor reads from a file at once: 64 KiB of them. The
/// read's cost is mostly per record (the kernel's copy), and a block
/// this size takes the rest off it: a scratch 4-core mix over 16 MB
/// fixtures spent 15 % more CPU than with the body memory-mapped when
/// every 256-record chunk was its own read, 10 % at this size, and no
/// less at four times it.
const BLOCK_RECORDS: usize = (64 << 10) / RECORD_BYTES;

/// Where a handle's bytes live.
enum Bytes {
    /// A plain `.btrc` file, read block by block by each cursor.
    File(BodyFile),
    /// A record body built in this process, without a header.
    Owned(Box<[u8]>),
}

/// An open plain `.btrc` file whose header has been validated.
struct BodyFile {
    /// The lock makes a seek and the read after it one step.
    file: Mutex<File>,
    path: PathBuf,
}

impl BodyFile {
    /// Fills `block` with the body's bytes from offset `start`. A file
    /// cut short since open fails typed, as it would have at open.
    fn read(&self, header: &BtrcHeader, start: usize, block: &mut [u8]) -> Result<(), IngestError> {
        let io = |e: std::io::Error| IngestError::io(&self.path, &e);
        // The offset is set before every read, so a panic that poisoned
        // the lock left nothing behind to distrust.
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let read = file
            .seek(SeekFrom::Start((BTRC_HEADER_BYTES + start) as u64))
            .and_then(|_| file.read_exact(block));
        if let Err(e) = read {
            if e.kind() == ErrorKind::UnexpectedEof {
                let len = file.metadata().map_err(io)?.len();
                header.check_body_len(len.saturating_sub(BTRC_HEADER_BYTES as u64))?;
            }
            return Err(io(e));
        }
        Ok(())
    }
}

/// A validated, shareable `.btrc` body: an open plain `.btrc` file, or
/// a body built in this process (a generated builtin, an encoded
/// [`crate::Trace::new`] sequence, a decoded small file). Cheap to
/// clone behind an [`Arc`]; the stream cache hands the same handle to
/// every cell replaying the trace, so the body is opened or built once
/// per process no matter how many cursors replay it.
pub struct MmapBtrc {
    bytes: Bytes,
    header: BtrcHeader,
    /// Bytes of the body prefix hashed so far; the body is verified
    /// once this equals its length. Written only while holding `hash`
    /// (`Release`), read lock-free by every chunk (`Acquire`).
    hashed: AtomicUsize,
    /// Running FNV-1a over the body's first `hashed` bytes; holding the
    /// lock is the right to extend the prefix.
    hash: Mutex<u64>,
}

impl std::fmt::Debug for MmapBtrc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapBtrc")
            .field("owned", &matches!(self.bytes, Bytes::Owned(_)))
            .field("record_count", &self.header.record_count)
            .finish_non_exhaustive()
    }
}

impl MmapBtrc {
    /// Opens `path` and eagerly validates everything that does not
    /// require reading the body: magic, version, record size, reserved
    /// bits, and that the file length matches the header's record
    /// count exactly. A file shorter than its header claims is
    /// [`IngestError::Truncated`] here, not at replay.
    pub fn open(path: &Path) -> Result<Self, IngestError> {
        let io = |e: std::io::Error| IngestError::io(path, &e);
        let mut file = File::open(path).map_err(io)?;
        let file_len = file.metadata().map_err(io)?.len();
        if file_len < BTRC_HEADER_BYTES as u64 {
            return Err(IngestError::TruncatedHeader {
                got: file_len as usize,
            });
        }
        let mut header_bytes = [0; BTRC_HEADER_BYTES];
        file.read_exact(&mut header_bytes).map_err(io)?;
        let header = parse_btrc_header(&header_bytes)?;
        header.check_body_len(file_len - BTRC_HEADER_BYTES as u64)?;
        // An empty body has no chunk to carry its verdict.
        if header.record_count == 0 && header.checksum != FNV_OFFSET_BASIS {
            return Err(IngestError::ChecksumMismatch {
                expected: header.checksum,
                got: FNV_OFFSET_BASIS,
            });
        }
        Ok(Self {
            bytes: Bytes::File(BodyFile {
                file: Mutex::new(file),
                path: path.to_path_buf(),
            }),
            header,
            hashed: AtomicUsize::new(0),
            hash: Mutex::new(FNV_OFFSET_BASIS),
        })
    }

    /// Takes ownership of a record body built in this process (by
    /// [`crate::TraceBuilder`] or [`super::encode_records`]). The `Vec`
    /// becomes the handle's boxed slice in place — no copy. Its bytes
    /// never left the process, so there is no checksum to verify: the
    /// handle starts with its whole body counted as hashed, and no
    /// cursor ever runs FNV over it.
    ///
    /// # Panics
    ///
    /// Panics if `body` is not whole records.
    pub fn from_body(body: Vec<u8>) -> Self {
        assert!(
            body.len().is_multiple_of(RECORD_BYTES),
            "a body of {} bytes is not whole records",
            body.len()
        );
        Self {
            header: BtrcHeader {
                record_count: (body.len() / RECORD_BYTES) as u64,
                // Never compared: nothing is left to hash.
                checksum: FNV_OFFSET_BASIS,
            },
            hashed: AtomicUsize::new(body.len()),
            hash: Mutex::new(FNV_OFFSET_BASIS),
            bytes: Bytes::Owned(body.into_boxed_slice()),
        }
    }

    /// Records (= instructions) in the body.
    pub fn record_count(&self) -> usize {
        self.header.record_count as usize
    }

    /// The record bytes of a body built in this process; `None` for a
    /// file, whose cursors read it block by block.
    pub fn body(&self) -> Option<&[u8]> {
        match &self.bytes {
            Bytes::File(_) => None,
            Bytes::Owned(body) => Some(body),
        }
    }

    /// Body bytes hashed so far by this handle (diagnostics, in the
    /// spirit of `cache::decode_count`): never more than the body
    /// length, and equal to it exactly when the checksum is verified —
    /// from the start for an owned body.
    pub fn hashed_bytes(&self) -> usize {
        self.hashed.load(Ordering::Acquire)
    }

    /// Extends the hashed prefix over `records`, the body's bytes from
    /// `start`, if it currently ends inside them — the caller is about
    /// to hand them out. A frontier outside the range means another
    /// cursor already hashed them, or has yet to hash what precedes
    /// them; either way this call hashes nothing. Reaching the end of
    /// the body with the wrong sum is the checksum verdict.
    fn hash_through(&self, start: usize, records: &[u8]) -> Result<(), IngestError> {
        let end = start + records.len();
        let covers = |frontier: usize| (start..end).contains(&frontier);
        if !covers(self.hashed.load(Ordering::Acquire)) {
            return Ok(());
        }
        let mut hash = self
            .hash
            .lock()
            .expect("nothing panics while extending the hashed prefix");
        let frontier = self.hashed.load(Ordering::Acquire);
        if !covers(frontier) {
            return Ok(()); // a sibling cursor got here first
        }
        let got = fnv1a64_update(*hash, &records[frontier - start..]);
        if end == self.record_count() * RECORD_BYTES && got != self.header.checksum {
            return Err(IngestError::ChecksumMismatch {
                expected: self.header.checksum,
                got,
            });
        }
        *hash = got;
        self.hashed.store(end, Ordering::Release);
        Ok(())
    }
}

/// A cursor over a shared [`MmapBtrc`]: decodes 40-byte records lazily
/// per chunk, straight out of an owned body or out of the block it last
/// read from the handle's file. The cursor is a position and that block;
/// checksum progress lives in the handle.
pub struct MmapStream {
    btrc: Arc<MmapBtrc>,
    /// Next record index of the current pass.
    rec: usize,
    /// The body's records from `block_rec` on, as last read from a
    /// file. Sized by its first read and reused after that, across
    /// rewinds too, so replay does not allocate.
    block: Vec<u8>,
    block_rec: usize,
}

impl MmapStream {
    /// A cursor at record zero over `btrc`.
    pub fn new(btrc: Arc<MmapBtrc>) -> Self {
        Self {
            btrc,
            rec: 0,
            block: Vec::new(),
            block_rec: 0,
        }
    }
}

impl InstrStream for MmapStream {
    fn len(&self) -> usize {
        self.btrc.record_count()
    }

    fn next_chunk(&mut self, buf: &mut [Instr]) -> Result<usize, IngestError> {
        let Self {
            btrc,
            rec,
            block,
            block_rec,
        } = self;
        let left = btrc.record_count() - *rec;
        let mut n = buf.len().min(left);
        if n == 0 {
            return Ok(0);
        }
        let start = *rec * RECORD_BYTES;
        let records = match &btrc.bytes {
            Bytes::Owned(body) => &body[start..start + n * RECORD_BYTES],
            Bytes::File(file) => {
                let held = block.len() / RECORD_BYTES;
                if !(*block_rec..*block_rec + held).contains(rec) {
                    block.resize(BLOCK_RECORDS.max(n).min(left) * RECORD_BYTES, 0);
                    file.read(&btrc.header, start, block)?;
                    *block_rec = *rec;
                }
                let at = *rec - *block_rec;
                n = n.min(block.len() / RECORD_BYTES - at);
                &block[at * RECORD_BYTES..(at + n) * RECORD_BYTES]
            }
        };
        btrc.hash_through(start, records)?;
        decode_record_chunk(records, &mut buf[..n]).map_err(|(index, error)| {
            IngestError::BadRecord {
                index: *rec as u64 + index,
                error,
            }
        })?;
        *rec += n;
        Ok(n)
    }

    fn rewind(&mut self) -> Result<(), IngestError> {
        self.rec = 0;
        Ok(())
    }

    fn fork(&self) -> Result<Box<dyn InstrStream>, IngestError> {
        Ok(Box::new(MmapStream::new(Arc::clone(&self.btrc))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::TempPath;
    use crate::ingest::encode_btrc;
    use berti_types::{Ip, VAddr};

    fn sample(n: usize) -> Vec<Instr> {
        (0..n)
            .map(|i| Instr::load(Ip::new(i as u64), VAddr::new(0x1000 + 64 * i as u64)))
            .collect()
    }

    #[test]
    fn maps_streams_and_verifies_once() {
        let instrs = sample(100);
        let path = TempPath::file("ok.btrc", &encode_btrc(&instrs));
        let btrc = Arc::new(MmapBtrc::open(&path).expect("opens"));
        assert_eq!(btrc.record_count(), 100);
        assert_eq!(btrc.hashed_bytes(), 0, "open hashes nothing");
        let mut s = MmapStream::new(Arc::clone(&btrc));
        let mut got = Vec::new();
        let mut buf = [Instr::default(); 7];
        loop {
            let n = s.next_chunk(&mut buf).expect("decodes");
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
            assert_eq!(btrc.hashed_bytes(), got.len() * RECORD_BYTES);
        }
        assert_eq!(got, instrs);
        // Verified: a fork hashes nothing more.
        let mut f = s.fork().expect("forks");
        assert_eq!(f.len(), 100);
        assert_eq!(f.next_chunk(&mut buf).expect("decodes"), 7);
        assert_eq!(btrc.hashed_bytes(), 100 * RECORD_BYTES);
    }

    #[test]
    fn short_file_is_a_typed_error_at_open() {
        let good = encode_btrc(&sample(10));
        // File shorter than the header's record count promises: the
        // open must fail typed, before any cursor reads a block.
        let path = TempPath::file("short.btrc", &good[..good.len() - 2 * RECORD_BYTES - 3]);
        match MmapBtrc::open(&path) {
            Err(IngestError::Truncated {
                expected_records: 10,
                got_records: 7,
            }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }

        let path = TempPath::file("header.btrc", &good[..10]);
        assert_eq!(
            MmapBtrc::open(&path).err(),
            Some(IngestError::TruncatedHeader { got: 10 })
        );
    }

    #[test]
    fn checksum_mismatch_surfaces_when_coverage_completes() {
        let mut bytes = encode_btrc(&sample(10));
        // Flip a load-address byte of the last record: still canonical,
        // but the body no longer hashes to the header checksum.
        bytes[BTRC_HEADER_BYTES + 9 * RECORD_BYTES + 8] ^= 0x01;
        let path = TempPath::file("sum.btrc", &bytes);
        let btrc = Arc::new(MmapBtrc::open(&path).expect("header is fine"));
        let mut s = MmapStream::new(Arc::clone(&btrc));
        let mut buf = [Instr::default(); 6];
        assert_eq!(s.next_chunk(&mut buf).expect("body decodes"), 6);
        // The chunk that completes the coverage fails, every time.
        for _ in 0..2 {
            assert!(matches!(
                s.next_chunk(&mut buf),
                Err(IngestError::ChecksumMismatch { .. })
            ));
        }
        assert_eq!(btrc.hashed_bytes(), 6 * RECORD_BYTES, "never verified");
    }

    #[test]
    fn empty_body_with_a_wrong_checksum_fails_at_open() {
        let mut bytes = encode_btrc(&[]);
        assert!(MmapBtrc::open(&TempPath::file("empty-ok.btrc", &bytes)).is_ok());
        bytes[16] ^= 0x01; // first byte of the header's checksum field
        assert!(matches!(
            MmapBtrc::open(&TempPath::file("empty-bad.btrc", &bytes)),
            Err(IngestError::ChecksumMismatch { .. })
        ));
    }
}
