//! Trace-file ingestion: the ChampSim binary front end and the compact
//! pre-decoded `.btrc` native format (ROADMAP items 4 and 5).
//!
//! The seam is deliberately one-way: files are decoded into the same
//! `.btrc` records the synthetic generators produce, so everything above
//! this module — the simulator, the harness, the daemon — is oblivious
//! to where a trace came from. [`workload_from_file`] plugs a file into
//! a [`crate::WorkloadDef`]; format detection is by content (`.btrc`
//! files start with the `BTRC` magic, anything else is ChampSim), and
//! `.xz`/`.gz`/`.zst` compression is handled transparently by piping
//! through the system `xz`/`gzip`/`zstd` tools. Every file is read
//! through one streaming reader ([`open_streaming`], [`drain_file`]).

mod btrc;
mod champsim;
mod mmap;
mod streams;

pub use crate::trace::workload_from_file;
pub use btrc::{
    btrc_header, decode_btrc, decode_records, encode_btrc, encode_records, fnv1a64, fnv1a64_update,
    parse_btrc_header, write_btrc, BtrcHeader, BTRC_HEADER_BYTES, BTRC_MAGIC, BTRC_VERSION,
    FNV_OFFSET_BASIS,
};
pub use champsim::{decode_champsim, CHAMPSIM_RECORD_BYTES};
pub use mmap::{MmapBtrc, MmapStream};
pub(crate) use streams::ByteReader;
pub use streams::{drain_file, open_streaming, BtrcPipeStream, ChampsimStream};

use std::path::{Path, PathBuf};

use berti_types::RecordError;

/// The system decompressor for `path`'s extension, when it names a
/// compressed trace: `.xz`, `.gz`, or `.zst`/`.zstd`.
pub(crate) fn compression_tool(path: &Path) -> Option<&'static str> {
    match path.extension().and_then(|e| e.to_str()) {
        Some("xz") => Some("xz"),
        Some("gz") => Some("gzip"),
        Some("zst") | Some("zstd") => Some("zstd"),
        _ => None,
    }
}

/// Why a trace file failed to ingest. Every failure mode is typed;
/// ingestion never panics on malformed input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// An I/O failure reading or writing `path`.
    Io {
        /// The file being read.
        path: PathBuf,
        /// The underlying error, stringified.
        error: String,
    },
    /// A decompression tool (`xz`/`gzip`/`zstd`) is not installed.
    MissingTool {
        /// The tool that could not be spawned.
        tool: &'static str,
        /// The compressed file that needed it.
        path: PathBuf,
    },
    /// A decompression tool exited non-zero.
    ToolFailed {
        /// The tool that failed.
        tool: &'static str,
        /// The compressed file being read.
        path: PathBuf,
        /// The tool's captured stderr.
        stderr: String,
    },
    /// A `.btrc` header does not start with [`BTRC_MAGIC`].
    BadMagic([u8; 4]),
    /// A `.btrc` header carries an unknown format version.
    UnsupportedVersion(u16),
    /// A `.btrc` header declares a record width other than
    /// [`berti_types::RECORD_BYTES`].
    BadRecordSize(u16),
    /// The file ends before a complete `.btrc` header.
    TruncatedHeader {
        /// Bytes actually present.
        got: usize,
    },
    /// The body is shorter than the header's record count promises.
    Truncated {
        /// Records promised by the header (or, for ChampSim input,
        /// implied by a partial trailing record).
        expected_records: u64,
        /// Whole records actually present.
        got_records: u64,
    },
    /// Bytes remain after the last declared record.
    TrailingBytes {
        /// Extra byte count.
        extra: usize,
    },
    /// The body does not hash to the header checksum.
    ChecksumMismatch {
        /// Header checksum.
        expected: u64,
        /// FNV-1a-64 of the body actually read.
        got: u64,
    },
    /// Record `index` is not canonical.
    BadRecord {
        /// Zero-based record index.
        index: u64,
        /// The record-level failure.
        error: RecordError,
    },
    /// The file decoded to zero instructions (the simulator replays
    /// traces cyclically and cannot cycle an empty one).
    EmptyTrace(PathBuf),
    /// Two workloads in one registry resolved to the same name.
    DuplicateWorkload {
        /// The contested name.
        name: String,
        /// The file whose registration collided.
        path: PathBuf,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io { path, error } => write!(f, "{}: {error}", path.display()),
            IngestError::MissingTool { tool, path } => write!(
                f,
                "cannot decompress {}: `{tool}` is not installed (install it, or decompress the file manually)",
                path.display()
            ),
            IngestError::ToolFailed { tool, path, stderr } => write!(
                f,
                "`{tool}` failed on {}: {}",
                path.display(),
                stderr.trim()
            ),
            IngestError::BadMagic(m) => {
                write!(f, "not a .btrc file (magic {m:02x?}, expected \"BTRC\")")
            }
            IngestError::UnsupportedVersion(v) => write!(f, "unsupported .btrc version {v}"),
            IngestError::BadRecordSize(n) => write!(
                f,
                "unsupported .btrc record size {n} (expected {})",
                berti_types::RECORD_BYTES
            ),
            IngestError::TruncatedHeader { got } => write!(
                f,
                "truncated .btrc header: {got} bytes, need {BTRC_HEADER_BYTES}"
            ),
            IngestError::Truncated {
                expected_records,
                got_records,
            } => write!(
                f,
                "truncated trace body: {got_records} whole records of {expected_records}"
            ),
            IngestError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last record")
            }
            IngestError::ChecksumMismatch { expected, got } => write!(
                f,
                "checksum mismatch: header {expected:#018x}, body hashes to {got:#018x}"
            ),
            IngestError::BadRecord { index, error } => write!(f, "record {index}: {error}"),
            IngestError::EmptyTrace(path) => {
                write!(f, "{}: trace has no instructions", path.display())
            }
            IngestError::DuplicateWorkload { name, path } => write!(
                f,
                "workload name '{name}' already registered (while adding {})",
                path.display()
            ),
        }
    }
}

impl std::error::Error for IngestError {}

impl IngestError {
    /// An [`IngestError::Io`] for a failure reading or writing `path`.
    pub fn io(path: &Path, e: &std::io::Error) -> Self {
        IngestError::Io {
            path: path.to_path_buf(),
            error: e.to_string(),
        }
    }
}
