//! The one record cursor: every trace replayed from memory is a `.btrc`
//! body behind an [`MmapBtrc`] handle, and [`MmapStream`] decodes its
//! 40-byte records lazily per chunk. A file is mapped read-only, its
//! header validated eagerly (including that the file really holds the
//! body the header promises — a shorter file is a typed error at open,
//! not a fault at replay). A body built in this process (a generated
//! builtin, a `Trace::new` sequence, a decoded small file) is owned by
//! the handle instead, and has no checksum to verify.
//!
//! ## When the checksum is verified
//!
//! The FNV body checksum belongs to the shared handle, not to a cursor:
//! the handle keeps the length of the body prefix hashed so far and the
//! running FNV over it, and the one cursor whose chunk covers that
//! frontier extends it. Each body byte is therefore hashed at most once
//! per handle per process however many cursors, threads and partial
//! passes replay it, short cells that never finish a pass still
//! accumulate towards the verdict, and the verdict falls when the
//! prefix reaches the end of the body: a mismatch is a typed
//! [`IngestError::ChecksumMismatch`] from the `next_chunk` that
//! completes the coverage (the frontier stays put, so every later
//! cursor to reach the end gets the same error and no record of the
//! last chunk is handed out).
//!
//! ## Mapping lifetime and safety
//!
//! A [`MmapBtrc`] owns its mapping for as long as any stream holds the
//! `Arc`; cursors borrow the mapped bytes only inside `next_chunk`, so
//! no reference outlives the handle. The mapping is `PROT_READ` +
//! `MAP_PRIVATE`: nothing in this process can write through it. The
//! one residual hazard inherent to mmap — another process truncating
//! the file *after* we validated its length — is the same fault every
//! mmap consumer accepts; we remove the common case (a file that was
//! already short) by checking `metadata.len()` against the header
//! before the first access.

use std::fs::File;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use berti_types::{decode_record_chunk, Instr, RECORD_BYTES};

use super::btrc::{parse_btrc_header, BtrcHeader, FNV_OFFSET_BASIS};
use super::{fnv1a64_update, IngestError, BTRC_HEADER_BYTES};
use crate::stream::InstrStream;

/// A read-only memory mapping of a whole file. On non-Unix targets
/// (no `mmap`) this degrades to reading the file into memory — same
/// API, no zero-copy.
#[cfg(unix)]
mod map {
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    /// Minimal `mmap(2)` binding: the build environment has no
    /// crates.io access, so the usual `memmap2`/`libc` route is
    /// unavailable; these two symbols come straight from the platform
    /// libc the binary already links.
    #[allow(unsafe_code)]
    mod sys {
        use std::os::raw::{c_int, c_void};

        pub const PROT_READ: c_int = 1;
        pub const MAP_PRIVATE: c_int = 2;

        extern "C" {
            pub fn mmap(
                addr: *mut c_void,
                len: usize,
                prot: c_int,
                flags: c_int,
                fd: c_int,
                offset: i64,
            ) -> *mut c_void;
            pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        }
    }

    pub struct Mmap {
        ptr: *mut u8,
        len: usize,
    }

    // SAFETY: the mapping is read-only (`PROT_READ`) and private; no
    // alias can write through it, so shared references from any thread
    // are sound.
    #[allow(unsafe_code)]
    unsafe impl Send for Mmap {}
    #[allow(unsafe_code)]
    unsafe impl Sync for Mmap {}

    impl Mmap {
        #[allow(unsafe_code)]
        pub fn map(file: &File, len: u64) -> io::Result<Mmap> {
            let len = usize::try_from(len)
                .map_err(|_| io::Error::new(io::ErrorKind::OutOfMemory, "file exceeds usize"))?;
            if len == 0 {
                return Ok(Mmap {
                    ptr: std::ptr::null_mut(),
                    len: 0,
                });
            }
            // SAFETY: fd is a live, readable file descriptor borrowed
            // for the duration of the call; a private read-only
            // mapping of it has no aliasing or mutation hazards. The
            // result is checked against MAP_FAILED before use.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Mmap {
                ptr: ptr.cast(),
                len,
            })
        }

        pub fn bytes(&self) -> &[u8] {
            if self.len == 0 {
                return &[];
            }
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly
            // `len` bytes, valid until `Drop` unmaps it; `&self`
            // borrows guarantee the slice cannot outlive that.
            #[allow(unsafe_code)]
            unsafe {
                std::slice::from_raw_parts(self.ptr, self.len)
            }
        }
    }

    impl Drop for Mmap {
        #[allow(unsafe_code)]
        fn drop(&mut self) {
            if self.len > 0 {
                // SAFETY: this is the unique owner of the mapping; no
                // borrow of `bytes()` can be live here.
                unsafe {
                    sys::munmap(self.ptr.cast(), self.len);
                }
            }
        }
    }
}

#[cfg(not(unix))]
mod map {
    use std::fs::File;
    use std::io::{self, Read};

    /// Portable fallback: same interface, plain heap buffer.
    pub struct Mmap {
        buf: Vec<u8>,
    }

    impl Mmap {
        pub fn map(file: &File, len: u64) -> io::Result<Mmap> {
            let mut buf = Vec::with_capacity(len as usize);
            let mut file = file.try_clone()?;
            file.read_to_end(&mut buf)?;
            Ok(Mmap { buf })
        }

        pub fn bytes(&self) -> &[u8] {
            &self.buf
        }
    }
}

/// Where a handle's bytes live.
enum Bytes {
    /// The whole mapped file, header included.
    Mapped(map::Mmap),
    /// A record body built in this process, without a header.
    Owned(Box<[u8]>),
}

/// A validated, shareable `.btrc` body: a mapping of one file, or a
/// body built in this process (a generated builtin, an encoded
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
    /// Running FNV-1a over `body()[..hashed]`; holding the lock is the
    /// right to extend the prefix.
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
    /// Maps `path` and eagerly validates everything that does not
    /// require reading the body: magic, version, record size, reserved
    /// bits, and that the file length matches the header's record
    /// count exactly. A file shorter than its header claims is
    /// [`IngestError::Truncated`] here — never a fault later.
    pub fn open(path: &Path) -> Result<Self, IngestError> {
        let file = File::open(path).map_err(|e| IngestError::io(path, &e))?;
        let file_len = file
            .metadata()
            .map_err(|e| IngestError::io(path, &e))?
            .len();
        if file_len < BTRC_HEADER_BYTES as u64 {
            return Err(IngestError::TruncatedHeader {
                got: file_len as usize,
            });
        }
        let map = map::Mmap::map(&file, file_len).map_err(|e| IngestError::io(path, &e))?;
        let header_bytes: &[u8; BTRC_HEADER_BYTES] = map.bytes()[..BTRC_HEADER_BYTES]
            .try_into()
            .expect("header slice");
        let header = parse_btrc_header(header_bytes)?;
        header.check_body_len(file_len - BTRC_HEADER_BYTES as u64)?;
        let btrc = Self {
            bytes: Bytes::Mapped(map),
            header,
            hashed: AtomicUsize::new(0),
            hash: Mutex::new(FNV_OFFSET_BASIS),
        };
        // An empty body has no chunk to carry its verdict.
        if btrc.body().is_empty() && btrc.header.checksum != FNV_OFFSET_BASIS {
            return Err(IngestError::ChecksumMismatch {
                expected: btrc.header.checksum,
                got: FNV_OFFSET_BASIS,
            });
        }
        Ok(btrc)
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

    /// The record bytes (everything after a file's header). For a
    /// mapped file they are verified only once [`MmapBtrc::hashed_bytes`]
    /// equals their length.
    pub fn body(&self) -> &[u8] {
        match &self.bytes {
            Bytes::Mapped(map) => &map.bytes()[BTRC_HEADER_BYTES..],
            Bytes::Owned(body) => body,
        }
    }

    /// Body bytes hashed so far by this handle (diagnostics, in the
    /// spirit of `cache::decode_count`): never more than the body
    /// length, and equal to it exactly when the checksum is verified —
    /// from the start for an owned body.
    pub fn hashed_bytes(&self) -> usize {
        self.hashed.load(Ordering::Acquire)
    }

    /// Extends the hashed prefix to `end` if it currently ends inside
    /// `body()[start..end]` — the caller is about to hand out (or
    /// decode) those bytes. A frontier outside the range means another
    /// cursor already hashed them, or has yet to hash what precedes
    /// them; either way this call hashes nothing. Reaching the end of
    /// the body with the wrong sum is the checksum verdict.
    fn hash_through(&self, start: usize, end: usize) -> Result<(), IngestError> {
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
        let body = self.body();
        let got = fnv1a64_update(*hash, &body[frontier..end]);
        if end == body.len() && got != self.header.checksum {
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

/// A zero-copy cursor over a shared [`MmapBtrc`]: decodes 40-byte
/// records lazily per chunk straight out of the mapping. The cursor is
/// only a position; checksum progress lives in the handle.
pub struct MmapStream {
    btrc: Arc<MmapBtrc>,
    /// Next record index of the current pass.
    rec: usize,
}

impl MmapStream {
    /// A cursor at record zero over `btrc`.
    pub fn new(btrc: Arc<MmapBtrc>) -> Self {
        Self { btrc, rec: 0 }
    }
}

impl InstrStream for MmapStream {
    fn len(&self) -> usize {
        self.btrc.record_count()
    }

    fn next_chunk(&mut self, buf: &mut [Instr]) -> Result<usize, IngestError> {
        let n = buf.len().min(self.btrc.record_count() - self.rec);
        if n == 0 {
            return Ok(0);
        }
        let (start, end) = (self.rec * RECORD_BYTES, (self.rec + n) * RECORD_BYTES);
        self.btrc.hash_through(start, end)?;
        decode_record_chunk(&self.btrc.body()[start..end], &mut buf[..n]).map_err(
            |(index, error)| IngestError::BadRecord {
                index: self.rec as u64 + index,
                error,
            },
        )?;
        self.rec += n;
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
        // open must fail typed — mapping it and decoding would walk
        // off the end of the file.
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
