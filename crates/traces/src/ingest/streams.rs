//! Incremental trace decoders: [`InstrStream`] cursors that decode
//! fixed-size chunks straight off a file or a decompressor pipe, so a
//! multi-gigabyte trace replays in bounded memory.
//!
//! Two backends live here: [`ChampsimStream`] (64-byte `input_instr`
//! records through the sequential branch-predictor/dep-chain decoder)
//! and [`BtrcPipeStream`] (`.btrc` bodies arriving through a
//! decompressor, which can only be read front to back). Plain `.btrc`
//! files take the shared record cursor in [`super::mmap`] instead;
//! [`open_streaming`] picks the right backend by extension and content,
//! and [`drain_file`] decodes a whole file once, in order, by the same
//! rule.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;

use berti_types::{decode_record_chunk, Instr, RECORD_BYTES};

use super::btrc::{parse_btrc_header, BtrcHeader, FNV_OFFSET_BASIS};
use super::champsim::{instrs_per_record, ChampsimDecoder, CHAMPSIM_RECORD_BYTES};
use super::mmap::{MmapBtrc, MmapStream};
use super::{compression_tool, fnv1a64_update, IngestError, BTRC_HEADER_BYTES, BTRC_MAGIC};
use crate::stream::{InstrStream, STREAM_CHUNK_INSTRS};

/// Read-side buffer size for files and pipes.
const READ_BUF_BYTES: usize = 1 << 16;

enum Inner {
    File(BufReader<File>),
    Pipe {
        tool: &'static str,
        child: Option<Child>,
        stdout: BufReader<ChildStdout>,
    },
    /// Drained to EOF (pipe child already reaped).
    Done,
}

/// Buffered byte supply for the incremental decoders: a plain file, or
/// the stdout of an `xz`/`gzip`/`zstd -dc` child. Rewinding a stream
/// reopens the file (restarting the child); the decompressor's exit
/// status is checked when EOF is reached, so a corrupt archive is a
/// typed [`IngestError::ToolFailed`], not a silently short trace.
pub(crate) struct ByteReader {
    path: PathBuf,
    inner: Inner,
    /// Bytes peeked for format sniffing, consumed before the source.
    pushback: VecDeque<u8>,
}

impl ByteReader {
    pub(crate) fn open(path: &Path) -> Result<Self, IngestError> {
        let inner = match compression_tool(path) {
            None => {
                let f = File::open(path).map_err(|e| IngestError::io(path, &e))?;
                Inner::File(BufReader::with_capacity(READ_BUF_BYTES, f))
            }
            Some(tool) => {
                if !path.exists() {
                    // The tool would report this itself, but inconsistently;
                    // a missing file should be the same Io error the
                    // uncompressed path produces.
                    return Err(IngestError::Io {
                        path: path.to_path_buf(),
                        error: "no such file".to_string(),
                    });
                }
                let mut child = Command::new(tool)
                    .arg("-dc")
                    .arg(path)
                    .stdin(Stdio::null())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::piped())
                    .spawn()
                    .map_err(|e| {
                        if e.kind() == std::io::ErrorKind::NotFound {
                            IngestError::MissingTool {
                                tool,
                                path: path.to_path_buf(),
                            }
                        } else {
                            IngestError::io(path, &e)
                        }
                    })?;
                let stdout = child.stdout.take().expect("stdout was piped");
                Inner::Pipe {
                    tool,
                    child: Some(child),
                    stdout: BufReader::with_capacity(READ_BUF_BYTES, stdout),
                }
            }
        };
        Ok(Self {
            path: path.to_path_buf(),
            inner,
            pushback: VecDeque::new(),
        })
    }

    /// Reads until `buf` is full or the source hits EOF; returns how
    /// many bytes were written. A short (or zero) count always means
    /// EOF — never a transient partial read.
    pub(crate) fn fill(&mut self, buf: &mut [u8]) -> Result<usize, IngestError> {
        let mut got = 0;
        while got < buf.len() {
            if let Some(b) = self.pushback.pop_front() {
                buf[got] = b;
                got += 1;
                continue;
            }
            let n = match &mut self.inner {
                Inner::File(r) => r
                    .read(&mut buf[got..])
                    .map_err(|e| IngestError::io(&self.path, &e))?,
                Inner::Pipe { stdout, .. } => stdout
                    .read(&mut buf[got..])
                    .map_err(|e| IngestError::io(&self.path, &e))?,
                Inner::Done => 0,
            };
            if n == 0 {
                self.finish()?;
                break;
            }
            got += n;
        }
        Ok(got)
    }

    /// Reads up to `n` bytes and pushes them back, so the next `fill`
    /// sees them again. Used to sniff the format magic.
    pub(crate) fn peek(&mut self, n: usize) -> Result<Vec<u8>, IngestError> {
        let mut tmp = vec![0u8; n];
        let got = self.fill(&mut tmp)?;
        tmp.truncate(got);
        for &b in tmp.iter().rev() {
            self.pushback.push_front(b);
        }
        Ok(tmp)
    }

    /// EOF bookkeeping: reap a pipe child and surface a non-zero exit
    /// as [`IngestError::ToolFailed`].
    fn finish(&mut self) -> Result<(), IngestError> {
        let inner = std::mem::replace(&mut self.inner, Inner::Done);
        if let Inner::Pipe {
            tool,
            child: Some(mut child),
            stdout,
        } = inner
        {
            drop(stdout);
            let mut stderr = String::new();
            if let Some(e) = child.stderr.as_mut() {
                let _ = e.read_to_string(&mut stderr);
            }
            let status = child.wait().map_err(|e| IngestError::io(&self.path, &e))?;
            if !status.success() {
                return Err(IngestError::ToolFailed {
                    tool,
                    path: self.path.clone(),
                    stderr,
                });
            }
        }
        Ok(())
    }
}

impl Drop for ByteReader {
    fn drop(&mut self) {
        // A stream dropped (or rewound) mid-pass leaves the
        // decompressor running; kill and reap it so rewinds don't
        // accumulate zombies.
        if let Inner::Pipe {
            child: Some(child), ..
        } = &mut self.inner
        {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One forward pass of ChampSim decoding: 64-byte `input_instr`
/// records pulled off a byte supply and run through the sequential
/// predictor/dep-chain decoder, a chunk of instructions at a time.
struct ChampsimPass {
    reader: ByteReader,
    decoder: ChampsimDecoder,
    /// Spill instructions from a record that straddled a chunk edge.
    pending: VecDeque<Instr>,
    scratch: Vec<Instr>,
    records_read: u64,
}

impl ChampsimPass {
    fn new(reader: ByteReader) -> Self {
        Self {
            reader,
            decoder: ChampsimDecoder::new(),
            pending: VecDeque::new(),
            scratch: Vec::with_capacity(4),
            records_read: 0,
        }
    }

    /// Fills a prefix of `buf`; `Ok(0)` at the end of the pass. A
    /// partial trailing record is [`IngestError::Truncated`], as in
    /// [`super::decode_champsim`].
    fn next_chunk(&mut self, buf: &mut [Instr]) -> Result<usize, IngestError> {
        let mut written = 0;
        while written < buf.len() {
            if let Some(i) = self.pending.pop_front() {
                buf[written] = i;
                written += 1;
                continue;
            }
            let mut rec = [0u8; CHAMPSIM_RECORD_BYTES];
            let got = self.reader.fill(&mut rec)?;
            if got == 0 {
                break;
            }
            if got < CHAMPSIM_RECORD_BYTES {
                return Err(IngestError::Truncated {
                    expected_records: self.records_read + 1,
                    got_records: self.records_read,
                });
            }
            self.records_read += 1;
            self.scratch.clear();
            self.decoder.decode_record(&rec, &mut self.scratch);
            for &i in &self.scratch {
                if written < buf.len() {
                    buf[written] = i;
                    written += 1;
                } else {
                    self.pending.push_back(i);
                }
            }
        }
        Ok(written)
    }
}

/// An [`InstrStream`] decoding ChampSim `input_instr` records
/// incrementally. Opening runs a *counting pass* — streaming the whole
/// body once to validate record framing and sum how many [`Instr`]s
/// each record expands to — so `len` is exact before replay starts;
/// the replay pass then decodes record by record through the sequential
/// predictor/chain state, which [`InstrStream::rewind`] resets.
pub struct ChampsimStream {
    path: PathBuf,
    pass: ChampsimPass,
    len: usize,
}

impl std::fmt::Debug for ChampsimStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChampsimStream")
            .field("path", &self.path)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

impl ChampsimStream {
    /// Opens `path`, paying the counting pass.
    pub fn open(path: &Path) -> Result<Self, IngestError> {
        Self::from_reader(path, ByteReader::open(path)?)
    }

    /// Opens `path` with its counting pass read from `reader`, a fresh
    /// reader of `path` (peeked bytes included), so a caller that
    /// sniffed the format does not start the decompressor again.
    fn from_reader(path: &Path, reader: ByteReader) -> Result<Self, IngestError> {
        let len = Self::count_instrs(reader)?;
        Self::with_len(path, len)
    }

    fn with_len(path: &Path, len: usize) -> Result<Self, IngestError> {
        Ok(Self {
            path: path.to_path_buf(),
            pass: ChampsimPass::new(ByteReader::open(path)?),
            len,
        })
    }

    /// The counting pass: validates that the body is whole 64-byte
    /// records and sums [`instrs_per_record`] over them — no predictor
    /// or chain state needed, so it touches each byte exactly once.
    fn count_instrs(mut reader: ByteReader) -> Result<usize, IngestError> {
        let mut buf = vec![0u8; CHAMPSIM_RECORD_BYTES * 1024];
        let mut records = 0u64;
        let mut instrs = 0usize;
        loop {
            let got = reader.fill(&mut buf)?;
            if got == 0 {
                return Ok(instrs);
            }
            for rec in buf[..got - got % CHAMPSIM_RECORD_BYTES].chunks_exact(CHAMPSIM_RECORD_BYTES)
            {
                instrs += instrs_per_record(rec);
            }
            records += (got / CHAMPSIM_RECORD_BYTES) as u64;
            if got % CHAMPSIM_RECORD_BYTES != 0 {
                // `fill` only returns short at EOF, so a non-record
                // remainder is a partial trailing record.
                return Err(IngestError::Truncated {
                    expected_records: records + 1,
                    got_records: records,
                });
            }
        }
    }
}

impl InstrStream for ChampsimStream {
    fn len(&self) -> usize {
        self.len
    }

    fn next_chunk(&mut self, buf: &mut [Instr]) -> Result<usize, IngestError> {
        // A partial record here means the file shrank after the
        // counting pass validated it.
        self.pass.next_chunk(buf)
    }

    fn rewind(&mut self) -> Result<(), IngestError> {
        self.pass = ChampsimPass::new(ByteReader::open(&self.path)?);
        Ok(())
    }

    fn fork(&self) -> Result<Box<dyn InstrStream>, IngestError> {
        // The counting pass already ran; a sibling cursor reuses its
        // answer.
        Ok(Box::new(Self::with_len(&self.path, self.len)?))
    }
}

/// An [`InstrStream`] over a `.btrc` body arriving through a
/// decompressor pipe (`.btrc.xz` and friends), which can only be read
/// front to back. The header is parsed eagerly at open; records decode
/// lazily per chunk with a running FNV hash, verified against the
/// header checksum at the end of the first full pass.
pub struct BtrcPipeStream {
    path: PathBuf,
    reader: ByteReader,
    header: BtrcHeader,
    raw: Vec<u8>,
    rec: u64,
    hash: u64,
    verified: bool,
    /// The end-of-pass verdict once it has failed: the probe that found
    /// trailing bytes consumed them, so probing again would read a clean
    /// EOF. Kept and returned to every later call, rewinds included (the
    /// file is what failed).
    failed: Option<IngestError>,
}

impl BtrcPipeStream {
    /// Opens `path` and parses the header.
    pub fn open(path: &Path) -> Result<Self, IngestError> {
        let reader = ByteReader::open(path)?;
        Self::from_reader(path, reader)
    }

    fn from_reader(path: &Path, mut reader: ByteReader) -> Result<Self, IngestError> {
        let header = read_header(&mut reader)?;
        Ok(Self {
            path: path.to_path_buf(),
            reader,
            header,
            raw: Vec::new(),
            rec: 0,
            hash: FNV_OFFSET_BASIS,
            verified: false,
            failed: None,
        })
    }

    /// End of body: drain to EOF (catching trailing bytes and the
    /// decompressor's exit status), then verify the checksum once.
    fn finish_pass(&mut self) -> Result<(), IngestError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        let mut probe = [0u8; 4096];
        let mut extra = 0usize;
        loop {
            let n = self.reader.fill(&mut probe)?;
            if n == 0 {
                break;
            }
            extra += n;
        }
        if extra > 0 {
            let e = IngestError::TrailingBytes { extra };
            self.failed = Some(e.clone());
            return Err(e);
        }
        if !self.verified {
            if self.hash != self.header.checksum {
                return Err(IngestError::ChecksumMismatch {
                    expected: self.header.checksum,
                    got: self.hash,
                });
            }
            self.verified = true;
        }
        Ok(())
    }
}

fn read_header(reader: &mut ByteReader) -> Result<BtrcHeader, IngestError> {
    let mut h = [0u8; BTRC_HEADER_BYTES];
    let got = reader.fill(&mut h)?;
    if got < BTRC_HEADER_BYTES {
        return Err(IngestError::TruncatedHeader { got });
    }
    parse_btrc_header(&h)
}

impl InstrStream for BtrcPipeStream {
    fn len(&self) -> usize {
        self.header.record_count as usize
    }

    fn next_chunk(&mut self, buf: &mut [Instr]) -> Result<usize, IngestError> {
        let remaining = self.header.record_count - self.rec;
        if remaining == 0 && !self.verified {
            // An empty body has no chunk to carry its verdict.
            self.finish_pass()?;
        }
        if remaining == 0 || buf.is_empty() {
            return Ok(0);
        }
        let n = (buf.len() as u64).min(remaining) as usize;
        self.raw.resize(n * RECORD_BYTES, 0);
        let got = self.reader.fill(&mut self.raw[..n * RECORD_BYTES])?;
        if got < n * RECORD_BYTES {
            return Err(IngestError::Truncated {
                expected_records: self.header.record_count,
                got_records: self.rec + (got / RECORD_BYTES) as u64,
            });
        }
        if !self.verified {
            self.hash = fnv1a64_update(self.hash, &self.raw[..got]);
        }
        decode_record_chunk(&self.raw[..got], &mut buf[..n]).map_err(|(index, error)| {
            IngestError::BadRecord {
                index: self.rec + index,
                error,
            }
        })?;
        self.rec += n as u64;
        if self.rec == self.header.record_count {
            self.finish_pass()?;
        }
        Ok(n)
    }

    fn rewind(&mut self) -> Result<(), IngestError> {
        self.reader = ByteReader::open(&self.path)?;
        let header = read_header(&mut self.reader)?;
        if header != self.header {
            return Err(IngestError::Io {
                path: self.path.clone(),
                error: "trace file changed during replay".to_string(),
            });
        }
        self.rec = 0;
        self.hash = FNV_OFFSET_BASIS;
        Ok(())
    }

    fn fork(&self) -> Result<Box<dyn InstrStream>, IngestError> {
        Ok(Box::new(Self::open(&self.path)?))
    }
}

/// Opens the right streaming backend for `path`: the record cursor
/// over an opened file for plain `.btrc`, pipe decoders for compressed
/// files and ChampSim
/// bodies. Format detection is by content, not extension: bodies
/// starting with the `BTRC` magic are `.btrc`, anything else is
/// ChampSim.
pub fn open_streaming(path: &Path) -> Result<Box<dyn InstrStream>, IngestError> {
    let mut reader = ByteReader::open(path)?;
    let magic = reader.peek(4)?;
    if magic != BTRC_MAGIC {
        return Ok(Box::new(ChampsimStream::from_reader(path, reader)?));
    }
    if compression_tool(path).is_none() {
        drop(reader);
        return Ok(Box::new(MmapStream::new(Arc::new(MmapBtrc::open(path)?))));
    }
    Ok(Box::new(BtrcPipeStream::from_reader(path, reader)?))
}

/// Decodes the whole of `path` in one forward pass, handing `sink`
/// each chunk of instructions in order, and returns the first error
/// either side raises. The file is read, and decompressed, once: there
/// is no counting pass, and only one chunk is held at a time. This is
/// how a file becomes a `.btrc` body (the trace cache's owned bodies,
/// `btrc convert`) and how `btrc info` summarizes one. Format detection
/// is [`open_streaming`]'s, and every malformation is the typed error
/// that backend raises.
pub fn drain_file(
    path: &Path,
    sink: impl FnMut(&[Instr]) -> Result<(), IngestError>,
) -> Result<(), IngestError> {
    let mut reader = ByteReader::open(path)?;
    if reader.peek(4)? == BTRC_MAGIC {
        let mut stream = BtrcPipeStream::from_reader(path, reader)?;
        drain(|buf| stream.next_chunk(buf), sink)
    } else {
        let mut pass = ChampsimPass::new(reader);
        drain(|buf| pass.next_chunk(buf), sink)
    }
}

/// Moves chunks from `next` to `sink` until `next` ends its pass.
fn drain(
    mut next: impl FnMut(&mut [Instr]) -> Result<usize, IngestError>,
    mut sink: impl FnMut(&[Instr]) -> Result<(), IngestError>,
) -> Result<(), IngestError> {
    let mut buf = vec![Instr::default(); STREAM_CHUNK_INSTRS];
    loop {
        let n = next(&mut buf)?;
        if n == 0 {
            return Ok(());
        }
        sink(&buf[..n])?;
    }
}

#[cfg(test)]
mod tests {
    use super::super::{decode_champsim, encode_btrc};
    use super::*;
    use crate::common::TempPath;
    use berti_types::{Ip, VAddr};

    fn drain(s: &mut dyn InstrStream, chunk: usize) -> Vec<Instr> {
        let mut buf = vec![Instr::default(); chunk];
        let mut out = Vec::new();
        loop {
            let n = s.next_chunk(&mut buf).expect("decodes");
            if n == 0 {
                return out;
            }
            out.extend_from_slice(&buf[..n]);
        }
    }

    /// A ChampSim record with the given memory operands (wide ones
    /// exercise the spill path, branches the predictor state).
    fn champsim_record(
        ip: u64,
        branch: Option<bool>,
        src_mem: [u64; 4],
        dst_mem: [u64; 2],
    ) -> Vec<u8> {
        let mut r = vec![0u8; CHAMPSIM_RECORD_BYTES];
        r[0..8].copy_from_slice(&ip.to_le_bytes());
        if let Some(taken) = branch {
            r[8] = 1;
            r[9] = taken as u8;
        }
        for (i, m) in dst_mem.iter().enumerate() {
            r[16 + 8 * i..24 + 8 * i].copy_from_slice(&m.to_le_bytes());
        }
        for (i, m) in src_mem.iter().enumerate() {
            r[32 + 8 * i..40 + 8 * i].copy_from_slice(&m.to_le_bytes());
        }
        r
    }

    fn champsim_body(records: usize) -> Vec<u8> {
        let mut bytes = Vec::new();
        for i in 0..records as u64 {
            let branch = (i % 3 == 0).then_some(i % 6 == 0);
            let wide = i % 7 == 0;
            let src = if wide {
                [0x1000 + i, 0x2000 + i, 0x3000 + i, 0x4000 + i]
            } else {
                [0x1000 + i, 0, 0, 0]
            };
            let dst = if wide {
                [0x8000 + i, 0x9000 + i]
            } else {
                [0, 0]
            };
            bytes.extend_from_slice(&champsim_record(0x400 + 8 * i, branch, src, dst));
        }
        bytes
    }

    #[test]
    fn champsim_stream_matches_one_shot_decode_across_chunk_sizes() {
        let body = champsim_body(200);
        let expect = decode_champsim(&body).expect("decodes");
        let path = TempPath::file("cs.trace", &body);
        for chunk in [1, 2, 3, 7, 64, 1024] {
            let mut s = ChampsimStream::open(&path).expect("opens");
            assert_eq!(s.len(), expect.len(), "counting pass is exact");
            assert_eq!(drain(&mut s, chunk), expect, "chunk={chunk}");
            s.rewind().expect("rewinds");
            assert_eq!(drain(&mut s, chunk), expect, "post-rewind chunk={chunk}");
        }
    }

    #[test]
    fn champsim_stream_truncation_is_typed_at_open() {
        let mut body = champsim_body(5);
        body.truncate(body.len() - 10);
        let path = TempPath::file("cs-short.trace", &body);
        assert_eq!(
            ChampsimStream::open(&path).err(),
            Some(IngestError::Truncated {
                expected_records: 5,
                got_records: 4
            })
        );
    }

    #[test]
    fn gzip_pipe_streams_and_rewinds() {
        let instrs: Vec<Instr> = (0..300)
            .map(|i| Instr::load(Ip::new(i), VAddr::new(0x1000 + 64 * i)))
            .collect();
        let plain = TempPath::file("pipe.btrc", &encode_btrc(&instrs));
        let gz = TempPath::new("pipe.btrc.gz");
        let out = std::fs::File::create(&gz).expect("creates");
        let status = Command::new("gzip")
            .arg("-c")
            .arg(&*plain)
            .stdout(out)
            .status()
            .expect("gzip runs");
        assert!(status.success());
        let mut s = open_streaming(&gz).expect("opens");
        assert_eq!(s.len(), 300);
        assert_eq!(drain(&mut *s, 77), instrs);
        s.rewind().expect("restarts the child");
        assert_eq!(drain(&mut *s, 300), instrs);
        let mut f = s.fork().expect("forks");
        assert_eq!(drain(&mut *f, 8192), instrs);
    }

    #[test]
    fn zstd_pipe_streams_when_the_tool_exists() {
        if Command::new("zstd").arg("--version").output().is_err() {
            eprintln!("zstd not installed; skipping");
            return;
        }
        let body = champsim_body(50);
        let expect = decode_champsim(&body).expect("decodes");
        let plain = TempPath::file("z.trace", &body);
        let zst = TempPath::new("z.trace.zst");
        let status = Command::new("zstd")
            .arg("-qf")
            .arg(&*plain)
            .arg("-o")
            .arg(&*zst)
            .status()
            .expect("zstd runs");
        assert!(status.success());
        let mut s = open_streaming(&zst).expect("opens");
        assert_eq!(drain(&mut *s, 33), expect);
    }

    #[test]
    fn corrupt_archive_is_tool_failed_not_a_short_trace() {
        let path = TempPath::file("bad.gz", b"this is not a gzip archive");
        let e = ChampsimStream::open(&path).unwrap_err();
        assert!(
            matches!(e, IngestError::ToolFailed { tool: "gzip", .. }),
            "got {e:?}"
        );
    }

    #[test]
    fn pipe_btrc_checksum_and_truncation_are_typed() {
        let instrs: Vec<Instr> = (0..20).map(|i| Instr::alu(Ip::new(i))).collect();
        let mut bytes = encode_btrc(&instrs);
        // Flip an ip byte of the last record: still a canonical record,
        // but the body no longer hashes to the header checksum.
        bytes[BTRC_HEADER_BYTES + 19 * RECORD_BYTES] ^= 0x01;
        let path = TempPath::file("sum.raw", &bytes);
        // Not actually compressed: drive BtrcPipeStream directly over
        // the plain reader to exercise its lazy checksum.
        let mut s = BtrcPipeStream::open(&path).expect("header parses");
        let mut buf = vec![Instr::default(); 64];
        assert!(matches!(
            s.next_chunk(&mut buf),
            Err(IngestError::ChecksumMismatch { .. })
        ));

        let good = encode_btrc(&instrs);
        let path = TempPath::file("short.raw", &good[..good.len() - RECORD_BYTES]);
        let mut s = BtrcPipeStream::open(&path).expect("header parses");
        assert_eq!(
            s.next_chunk(&mut buf).err(),
            Some(IngestError::Truncated {
                expected_records: 20,
                got_records: 19
            })
        );
    }

    #[test]
    fn pipe_btrc_trailing_bytes_verdict_is_sticky() {
        let instrs: Vec<Instr> = (0..20).map(|i| Instr::alu(Ip::new(i))).collect();
        let mut bytes = encode_btrc(&instrs);
        bytes.extend_from_slice(&[0xAB; 5]);
        let path = TempPath::file("trailing.raw", &bytes);
        let mut s = BtrcPipeStream::open(&path).expect("header parses");
        let mut buf = vec![Instr::default(); 64];
        let trailing = Some(IngestError::TrailingBytes { extra: 5 });
        assert_eq!(s.next_chunk(&mut buf).err(), trailing);
        // The first probe consumed the stray bytes; asking again must
        // not turn the failed pass into a clean, verified end.
        assert_eq!(s.next_chunk(&mut buf).err(), trailing);
        assert_eq!(s.next_chunk(&mut buf).err(), trailing);
    }
}
