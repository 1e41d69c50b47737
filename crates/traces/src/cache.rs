//! The process-wide trace cache: same-trace cells open and decode once.
//!
//! A campaign frequently replays one workload in many cells (every
//! prefetcher × every config sweep point), and berti-serve's worker
//! processes replay the same trace for request after request. Decoding
//! a ChampSim trace or generating a builtin workload per cell is pure
//! waste, so every trace open goes through this cache. What it holds is
//! one kind of thing, a shared [`MmapBtrc`] handle over a `.btrc`
//! record body, and every cursor it hands out is the one record cursor,
//! [`MmapStream`]:
//!
//! - **files** are keyed by `(path, mtime, len)` — an edited or
//!   replaced trace re-decodes, an unchanged one is a hit;
//! - **plain `.btrc` files** are mapped (zero-copy regardless of size —
//!   the page cache, not the heap, holds the bytes). Checksum progress
//!   lives in the handle, not in the cursors, so each body byte is
//!   hashed at most once per process and cells that stop short of a
//!   full pass still add up to one verdict (see [`MmapBtrc`]);
//! - **other traces** (ChampSim, anything compressed) up to the
//!   materialize threshold (64 MiB of file) are decoded once, in one
//!   streamed pass ([`drain_file`]), into an owned record body, 40
//!   bytes an instruction; larger files are never pinned — each open
//!   streams them in bounded memory instead;
//! - **builtin generators** are keyed by function pointer and generated
//!   once per process, straight into an owned record body.
//!
//! An owned body was built in this process and never left it, so its
//! handle starts verified: no FNV pass runs over it, at generation or at
//! replay.
//!
//! For files the cache lock is held *across* the decode, deliberately:
//! two threads racing to open the same trace must not decode it twice —
//! that is the decode-once guarantee the harness acceptance test pins
//! via [`decode_count`]. Builtins differ: every campaign's workers
//! start by generating several of them at once, and the Kronecker graph
//! behind a `*-kron` workload takes most of a second, so under the one
//! lock a `--jobs 2` campaign's second worker waited for it even when
//! it wanted a different, cheaper trace. Each generator therefore has a
//! once-cell of its own; the lock is held only to find or insert the
//! cell, two threads asking for one generator still generate it once
//! (the second waits on the cell), and distinct generators run
//! concurrently.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::SystemTime;

use crate::ingest::{
    compression_tool, drain_file, encode_records, open_streaming, ByteReader, IngestError,
    MmapBtrc, MmapStream, BTRC_MAGIC,
};
use crate::stream::InstrStream;

/// Materialize threshold: files up to this many bytes are decoded once
/// and pinned; larger ones stream.
const MATERIALIZE_BYTES: u64 = 64 << 20;

struct FileEntry {
    mtime: Option<SystemTime>,
    len: u64,
    btrc: Arc<MmapBtrc>,
}

/// A builtin generator's record body, generated by whichever thread
/// first asks for it.
type GenCell = Arc<OnceLock<Arc<MmapBtrc>>>;

#[derive(Default)]
struct CacheInner {
    files: HashMap<PathBuf, FileEntry>,
    gens: HashMap<usize, GenCell>,
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
    /// Record-body bytes the cache keeps resident: owned bodies on the
    /// heap, mapped ones in the page cache (pinned by the handle).
    pub resident_bytes: u64,
}

/// Process-wide cache counters.
pub fn stats() -> CacheStats {
    let c = lock();
    let files = c.files.values().map(|e| &e.btrc);
    let gens = c.gens.values().filter_map(|g| g.get());
    CacheStats {
        decodes: c.file_decodes.values().sum::<u64>() + c.gen_decodes,
        hits: c.hits,
        resident_bytes: files.chain(gens).map(|b| b.body().len() as u64).sum(),
    }
}

/// How many times `path` has been decoded (not served from cache) by
/// this process.
pub fn decode_count(path: &Path) -> u64 {
    lock().file_decodes.get(path).copied().unwrap_or(0)
}

/// Drops every cached handle and counter (tests).
pub fn clear() {
    *lock() = CacheInner::default();
}

/// A builtin generator's record body, generated once per process and
/// shared. The cache lock is not held while generating, so distinct
/// generators run concurrently (see the module docs).
pub fn gen_btrc(f: fn() -> Vec<u8>) -> Arc<MmapBtrc> {
    let cell = Arc::clone(lock().gens.entry(f as usize).or_default());
    let mut generated = false;
    let btrc = Arc::clone(cell.get_or_init(|| {
        generated = true;
        Arc::new(MmapBtrc::from_body(f()))
    }));
    let mut c = lock();
    if generated {
        c.gen_decodes += 1;
    } else {
        c.hits += 1;
    }
    btrc
}

/// Whether `path` is an uncompressed `.btrc` body (mmap-eligible).
fn is_plain_btrc(path: &Path) -> Result<bool, IngestError> {
    Ok(compression_tool(path).is_none() && ByteReader::open(path)?.peek(4)? == BTRC_MAGIC)
}

/// The shared handle for `path`: served from the cache while the file
/// is unchanged, otherwise mapped (plain `.btrc`) or decoded into an
/// owned body (anything up to the materialize threshold) and cached.
/// `None` for a larger file that is not plain `.btrc`: the caller
/// decodes it uncached, and the open counts as a decode (each one
/// really does pay a decompression/decode pass).
fn handle(path: &Path) -> Result<Option<Arc<MmapBtrc>>, IngestError> {
    let meta = std::fs::metadata(path).map_err(|e| IngestError::io(path, &e))?;
    let (mtime, len) = (meta.modified().ok(), meta.len());
    let mut c = lock();
    if let Some(e) = c.files.get(path) {
        if e.mtime == mtime && e.len == len {
            let btrc = Arc::clone(&e.btrc);
            c.hits += 1;
            return Ok(Some(btrc));
        }
    }
    let btrc = if is_plain_btrc(path)? {
        Some(Arc::new(MmapBtrc::open(path)?))
    } else if len <= MATERIALIZE_BYTES {
        let mut body = Vec::new();
        drain_file(path, |chunk| {
            body.extend_from_slice(&encode_records(chunk));
            Ok(())
        })?;
        Some(Arc::new(MmapBtrc::from_body(body)))
    } else {
        None
    };
    *c.file_decodes.entry(path.to_path_buf()).or_insert(0) += 1;
    if let Some(btrc) = &btrc {
        c.files.insert(
            path.to_path_buf(),
            FileEntry {
                mtime,
                len,
                btrc: Arc::clone(btrc),
            },
        );
    }
    Ok(btrc)
}

/// Opens a streaming cursor over `path` through the cache. Unchanged
/// files are served from the shared handle; files above the
/// materialize threshold (other than plain `.btrc`, which always maps)
/// stream uncached in bounded memory.
pub fn open_file(path: &Path) -> Result<Box<dyn InstrStream>, IngestError> {
    match handle(path)? {
        Some(btrc) => Ok(Box::new(MmapStream::new(btrc))),
        None => open_streaming(path),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::TempPath;
    use crate::ingest::{decode_records, write_btrc};
    use berti_types::{Instr, Ip, RECORD_BYTES};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier, LazyLock};
    use std::time::Duration;

    fn alus(n: u64) -> Vec<Instr> {
        (0..n).map(|i| Instr::alu(Ip::new(i))).collect()
    }

    fn unique_btrc(n: u64) -> TempPath {
        let p = TempPath::new("cache.btrc");
        write_btrc(&p, &alus(n)).expect("writes");
        p
    }

    #[test]
    fn repeated_opens_decode_once() {
        let path = unique_btrc(64);
        assert_eq!(decode_count(&path), 0);
        for _ in 0..4 {
            let mut s = open_file(&path).expect("opens");
            assert_eq!(s.len(), 64);
            let mut buf = [Instr::default(); 64];
            assert_eq!(s.next_chunk(&mut buf).expect("reads"), 64);
        }
        assert_eq!(decode_count(&path), 1, "three of four opens were hits");
    }

    #[test]
    fn modified_files_re_decode() {
        let path = unique_btrc(8);
        let _ = open_file(&path).expect("opens");
        let first = decode_count(&path);
        // Rewrite with different content (different length → new key).
        write_btrc(&path, &alus(9)).expect("rewrites");
        let s = open_file(&path).expect("reopens");
        assert_eq!(s.len(), 9, "serves the new content, not the stale cache");
        assert_eq!(decode_count(&path), first + 1);
    }

    /// A generated builtin is held as its 40-byte records and never
    /// hashed: the handle is verified from the start.
    #[test]
    fn generated_bodies_are_records_without_a_checksum_pass() {
        const N: u64 = 1000;
        fn thousand() -> Vec<u8> {
            encode_records(&alus(N))
        }
        let before = stats().resident_bytes;
        let btrc = gen_btrc(thousand);
        assert_eq!(btrc.record_count(), N as usize);
        assert_eq!(btrc.body().len(), N as usize * RECORD_BYTES);
        assert_eq!(btrc.hashed_bytes(), btrc.body().len(), "no FNV pass to run");
        // Other tests in this binary may add entries meanwhile, but
        // never remove any.
        assert!(stats().resident_bytes >= before + N * RECORD_BYTES as u64);
        assert_eq!(decode_records(btrc.body()).expect("decodes"), alus(N));
    }

    /// One side of a two-generator rendezvous: a sender into this
    /// side's channel and that channel's receiver.
    type Mailbox = (mpsc::Sender<()>, Mutex<mpsc::Receiver<()>>);

    fn mailbox() -> Mailbox {
        let (tx, rx) = mpsc::channel();
        (tx, Mutex::new(rx))
    }

    static LEFT: LazyLock<Mailbox> = LazyLock::new(mailbox);
    static RIGHT: LazyLock<Mailbox> = LazyLock::new(mailbox);

    /// Tells `other` this generator has started, then waits for the same
    /// word from `other`. The trace's length says whether it came: two
    /// records if so, one after the timeout (which is what a lock held
    /// across generation produces, instead of a hang).
    fn meet(own: &Mailbox, other: &Mailbox) -> Vec<u8> {
        other
            .0
            .send(())
            .expect("the other side's receiver is static");
        let rx = own.1.lock().expect("one receiver per side");
        let met = rx.recv_timeout(Duration::from_secs(10)).is_ok();
        encode_records(&alus(1 + u64::from(met)))
    }

    #[test]
    fn generators_memoize_by_function_pointer() {
        fn gen() -> Vec<u8> {
            encode_records(&[Instr::alu(Ip::new(7)); 3])
        }
        let a = gen_btrc(gen);
        let b = gen_btrc(gen);
        assert!(Arc::ptr_eq(&a, &b), "one generation, shared");

        // Two different generators released together must each see the
        // other start before either returns.
        fn left() -> Vec<u8> {
            meet(&LEFT, &RIGHT)
        }
        fn right() -> Vec<u8> {
            meet(&RIGHT, &LEFT)
        }
        let barrier = Barrier::new(2);
        let met = std::thread::scope(|s| {
            let gens: [fn() -> Vec<u8>; 2] = [left, right];
            let handles = gens.map(|g| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    gen_btrc(g).record_count()
                })
            });
            handles.map(|h| h.join().expect("generator thread"))
        });
        assert_eq!(
            met, [2; 2],
            "distinct generators must run concurrently (1 = waited out the other)"
        );

        // Eight threads asking for one generator: one generation, one
        // shared sequence, seven hits.
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        fn counted() -> Vec<u8> {
            CALLS.fetch_add(1, Ordering::SeqCst);
            encode_records(&[Instr::alu(Ip::new(9)); 2])
        }
        let before = stats();
        let barrier = Barrier::new(8);
        let got: Vec<Arc<MmapBtrc>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        gen_btrc(counted)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("asking thread"))
                .collect()
        });
        assert_eq!(CALLS.load(Ordering::SeqCst), 1, "generated exactly once");
        assert!(
            got.iter().all(|g| Arc::ptr_eq(g, &got[0])),
            "one shared Arc"
        );
        // Other tests in this binary may open traces meanwhile, so the
        // process-wide counters are bounded from below; `CALLS` is exact.
        let after = stats();
        assert!(after.decodes > before.decodes, "the generation is counted");
        assert!(after.hits >= before.hits + 7, "the other seven are hits");
    }
}
