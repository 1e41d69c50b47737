//! The process-wide decoded-trace cache: same-trace cells decode once.
//!
//! A campaign frequently replays one workload in many cells (every
//! prefetcher × every config sweep point), and berti-serve's worker
//! processes replay the same trace for request after request. Decoding
//! a ChampSim trace or generating a builtin workload per cell is pure
//! waste, so every trace open goes through this cache:
//!
//! - **files** are keyed by `(path, mtime, len)` — an edited or
//!   replaced trace re-decodes, an unchanged one is a hit;
//! - **plain `.btrc` files** cache the validated [`MmapBtrc`] handle
//!   (zero-copy regardless of size — the page cache, not the heap,
//!   holds the bytes) and every cursor shares it. Checksum progress
//!   lives in that handle, not in the cursors, so each body byte is
//!   hashed at most once per process and cells that stop short of a
//!   full pass still add up to one verdict (see [`MmapBtrc`]);
//! - **other traces** (ChampSim, anything compressed) materialize into
//!   a shared `Arc<[Instr]>` when the file is at most the materialize
//!   threshold (64 MiB); larger files are never pinned — each open
//!   streams them in bounded memory instead;
//! - **builtin generators** are keyed by function pointer and generated
//!   once per process.
//!
//! The cache lock is held *across* the decode, deliberately: two
//! threads racing to open the same trace must not decode it twice —
//! that is the decode-once guarantee the harness acceptance test pins
//! via [`decode_count`].

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::SystemTime;

use berti_types::Instr;

use crate::ingest::{
    compression_tool, open_streaming, read_trace_file, IngestError, MmapBtrc, MmapStream,
    BTRC_MAGIC,
};
use crate::stream::{InstrStream, MemStream};

/// Materialize threshold: files up to this many bytes are decoded once
/// and pinned; larger ones stream.
const MATERIALIZE_BYTES: u64 = 64 << 20;

/// What the cache holds for one file.
enum Payload {
    /// Fully decoded, shared by every cursor.
    Instrs(Arc<[Instr]>),
    /// A validated zero-copy mapping, shared by every cursor.
    Btrc(Arc<MmapBtrc>),
}

struct FileEntry {
    mtime: Option<SystemTime>,
    len: u64,
    payload: Payload,
}

#[derive(Default)]
struct CacheInner {
    files: HashMap<PathBuf, FileEntry>,
    gens: HashMap<usize, Arc<[Instr]>>,
    /// Per-path decode count — how many times the file was actually
    /// decoded/mapped (not served from cache). The decode-once
    /// acceptance test reads this.
    file_decodes: HashMap<PathBuf, u64>,
    gen_decodes: u64,
    hits: u64,
}

fn lock() -> MutexGuard<'static, CacheInner> {
    static CACHE: OnceLock<Mutex<CacheInner>> = OnceLock::new();
    CACHE
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Cache effectiveness counters (see [`stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Traces actually decoded/mapped/generated.
    pub decodes: u64,
    /// Opens served from the cache.
    pub hits: u64,
    /// Bytes the cache keeps resident: decoded instruction arrays at
    /// their in-memory size, mmap'd `.btrc` bodies at their mapped
    /// length (held by the page cache, but pinned by the handle).
    pub resident_bytes: u64,
}

/// Process-wide cache counters.
pub fn stats() -> CacheStats {
    let c = lock();
    let instr_bytes = std::mem::size_of::<Instr>() as u64;
    let files: u64 = c
        .files
        .values()
        .map(|e| match &e.payload {
            Payload::Instrs(i) => i.len() as u64 * instr_bytes,
            Payload::Btrc(_) => e.len,
        })
        .sum();
    let gens: u64 = c.gens.values().map(|i| i.len() as u64 * instr_bytes).sum();
    CacheStats {
        decodes: c.file_decodes.values().sum::<u64>() + c.gen_decodes,
        hits: c.hits,
        resident_bytes: files + gens,
    }
}

/// How many times `path` has been decoded (not served from cache) by
/// this process.
pub fn decode_count(path: &Path) -> u64 {
    lock().file_decodes.get(path).copied().unwrap_or(0)
}

/// Drops every cached payload and counter (tests).
pub fn clear() {
    *lock() = CacheInner::default();
}

/// A builtin generator's instruction sequence, generated once per
/// process and shared.
pub fn gen_instrs(f: fn() -> Vec<Instr>) -> Arc<[Instr]> {
    let mut c = lock();
    let key = f as usize;
    if let Some(i) = c.gens.get(&key) {
        let i = Arc::clone(i);
        c.hits += 1;
        return i;
    }
    let instrs: Arc<[Instr]> = f().into();
    c.gen_decodes += 1;
    c.gens.insert(key, Arc::clone(&instrs));
    instrs
}

/// Whether `path` is an uncompressed `.btrc` body (mmap-eligible).
fn is_plain_btrc(path: &Path) -> Result<bool, IngestError> {
    if compression_tool(path).is_some() {
        return Ok(false);
    }
    let mut magic = [0u8; 4];
    let mut f = std::fs::File::open(path).map_err(|e| IngestError::io(path, &e))?;
    let mut got = 0;
    while got < magic.len() {
        match std::io::Read::read(&mut f, &mut magic[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) => return Err(IngestError::io(path, &e)),
        }
    }
    Ok(got == 4 && magic == BTRC_MAGIC)
}

fn stream_for(payload: &Payload) -> Box<dyn InstrStream> {
    match payload {
        Payload::Instrs(i) => Box::new(MemStream::new(Arc::clone(i))),
        Payload::Btrc(b) => Box::new(MmapStream::new(Arc::clone(b))),
    }
}

/// The cache key for `path` right now, plus its length.
fn file_key(path: &Path) -> Result<(Option<SystemTime>, u64), IngestError> {
    let meta = std::fs::metadata(path).map_err(|e| IngestError::io(path, &e))?;
    Ok((meta.modified().ok(), meta.len()))
}

/// Opens a streaming cursor over `path` through the cache. Unchanged
/// files are served from the shared payload; files above the
/// materialize threshold (other than plain `.btrc`, which always maps)
/// stream uncached in bounded memory.
pub fn open_file(path: &Path) -> Result<Box<dyn InstrStream>, IngestError> {
    let (mtime, len) = file_key(path)?;
    let mut c = lock();
    if let Some(e) = c.files.get(path) {
        if e.mtime == mtime && e.len == len {
            let s = stream_for(&e.payload);
            c.hits += 1;
            return Ok(s);
        }
    }
    let payload = if is_plain_btrc(path)? {
        Payload::Btrc(Arc::new(MmapBtrc::open(path)?))
    } else if len <= MATERIALIZE_BYTES {
        Payload::Instrs(read_trace_file(path)?.into())
    } else {
        // Too big to pin decoded: stream it, and count the open as a
        // decode (each one really does pay a decompression/decode pass).
        *c.file_decodes.entry(path.to_path_buf()).or_insert(0) += 1;
        return open_streaming(path);
    };
    *c.file_decodes.entry(path.to_path_buf()).or_insert(0) += 1;
    let s = stream_for(&payload);
    c.files.insert(
        path.to_path_buf(),
        FileEntry {
            mtime,
            len,
            payload,
        },
    );
    Ok(s)
}

/// The fully materialized instruction sequence for `path`, shared when
/// the cache holds it decoded. `.btrc` payloads decode out of the
/// mapping on demand (this is the compatibility path for tools that
/// need the whole sequence, not the replay hot path).
pub fn file_instrs(path: &Path) -> Result<Arc<[Instr]>, IngestError> {
    let (mtime, len) = file_key(path)?;
    let mut c = lock();
    if let Some(e) = c.files.get(path) {
        if e.mtime == mtime && e.len == len {
            let out = match &e.payload {
                Payload::Instrs(i) => Ok(Arc::clone(i)),
                Payload::Btrc(b) => b.materialize(),
            };
            c.hits += 1;
            return out;
        }
    }
    let payload = if is_plain_btrc(path)? {
        Payload::Btrc(Arc::new(MmapBtrc::open(path)?))
    } else if len <= MATERIALIZE_BYTES {
        Payload::Instrs(read_trace_file(path)?.into())
    } else {
        // Materializing an over-threshold trace is the caller's
        // explicit ask (e.g. `btrc convert`); do it without pinning.
        *c.file_decodes.entry(path.to_path_buf()).or_insert(0) += 1;
        return Ok(read_trace_file(path)?.into());
    };
    *c.file_decodes.entry(path.to_path_buf()).or_insert(0) += 1;
    let out = match &payload {
        Payload::Instrs(i) => Ok(Arc::clone(i)),
        Payload::Btrc(b) => b.materialize(),
    };
    c.files.insert(
        path.to_path_buf(),
        FileEntry {
            mtime,
            len,
            payload,
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::write_btrc;
    use berti_types::Ip;

    fn unique_btrc(tag: &str, n: usize) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("berti-cache-{tag}-{}-{n}.btrc", std::process::id()));
        let instrs: Vec<Instr> = (0..n).map(|i| Instr::alu(Ip::new(i as u64))).collect();
        write_btrc(&p, &instrs).expect("writes");
        p
    }

    #[test]
    fn repeated_opens_decode_once() {
        let path = unique_btrc("once", 64);
        assert_eq!(decode_count(&path), 0);
        for _ in 0..4 {
            let mut s = open_file(&path).expect("opens");
            assert_eq!(s.len(), 64);
            let mut buf = [Instr::default(); 64];
            assert_eq!(s.next_chunk(&mut buf).expect("reads"), 64);
        }
        assert_eq!(decode_count(&path), 1, "three of four opens were hits");
        assert_eq!(file_instrs(&path).expect("materializes").len(), 64);
        assert_eq!(decode_count(&path), 1, "materialize reuses the mapping");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn modified_files_re_decode() {
        let path = unique_btrc("mod", 8);
        let _ = open_file(&path).expect("opens");
        let first = decode_count(&path);
        // Rewrite with different content (different length → new key).
        let instrs: Vec<Instr> = (0..9).map(|i| Instr::alu(Ip::new(i))).collect();
        write_btrc(&path, &instrs).expect("rewrites");
        let s = open_file(&path).expect("reopens");
        assert_eq!(s.len(), 9, "serves the new content, not the stale cache");
        assert_eq!(decode_count(&path), first + 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn generators_memoize_by_function_pointer() {
        fn gen() -> Vec<Instr> {
            vec![Instr::alu(Ip::new(7)); 3]
        }
        let a = gen_instrs(gen);
        let b = gen_instrs(gen);
        assert!(Arc::ptr_eq(&a, &b), "one generation, shared");
    }
}
