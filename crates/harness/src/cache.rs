//! The local-directory [`ResultStore`] backend.
//!
//! Each completed cell is stored as `<dir>/<key>.json`, where `key` is
//! [`JobSpec::key`] — a stable hash of the spec's canonical JSON. A
//! campaign re-run (or an overlapping campaign, or a daemon sharing the
//! directory) skips any cell whose file exists and still matches its
//! spec, which is what makes campaigns resumable after a crash or
//! Ctrl-C.
//!
//! Writes are publish-or-nothing: every writer streams into its own
//! uniquely named temp file (`.{key}.{pid}-{seq}.tmp`) and atomically
//! `rename`s it into place. Two daemons — or a worker killed
//! mid-write — can therefore never publish a torn entry, and readers
//! racing a writer see either the previous entry or the new one.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use berti_sim::Report;
use serde::{Deserialize, Serialize};

use crate::campaign::JobSpec;
use crate::store::ResultStore;

/// Bump when the cached file layout (or anything that invalidates old
/// results wholesale) changes; mismatched entries are treated as
/// misses.
pub const CACHE_SCHEMA_VERSION: u32 = 1;

/// One cached cell: the spec it answers plus its report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CachedResult {
    /// Layout version ([`CACHE_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The spec this result answers (stored in full so hash collisions
    /// and hand-edited files are detected, not trusted).
    pub spec: JobSpec,
    /// The simulation report.
    pub report: Report,
}

/// Handle on a cache directory: the local-dir [`ResultStore`].
#[derive(Clone, Debug)]
pub struct ResultCache {
    dir: PathBuf,
}

/// Distinguishes concurrent writers within one process; combined with
/// the pid it makes temp-file names unique across sharing processes.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl ResultCache {
    /// Opens (creating if needed) the cache at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<ResultCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ResultCache { dir })
    }

    /// The directory this cache lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Looks up `spec`; returns its report only if a valid entry with a
    /// matching spec exists. Corrupt, stale-schema, or mismatched
    /// entries read as misses. (Convenience forwarder to the
    /// [`ResultStore`] provided method, kept so callers don't need the
    /// trait in scope.)
    pub fn lookup(&self, spec: &JobSpec) -> Option<Report> {
        ResultStore::lookup(self, spec)
    }

    /// Stores a completed cell (see [`ResultStore::store`]).
    pub fn store(&self, spec: &JobSpec, report: &Report) -> std::io::Result<()> {
        ResultStore::store(self, spec, report)
    }

    /// Number of entries currently cached.
    pub fn len(&self) -> usize {
        self.entry_keys().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keys of all entries on disk.
    pub fn entry_keys(&self) -> Vec<String> {
        let mut keys = Vec::new();
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return keys;
        };
        for e in entries.flatten() {
            let name = e.file_name();
            let name = name.to_string_lossy();
            if let Some(key) = name.strip_suffix(".json") {
                if !key.starts_with('.') {
                    keys.push(key.to_string());
                }
            }
        }
        keys.sort();
        keys
    }

    /// Deletes every entry (and stray temp file); returns how many
    /// entries were removed.
    pub fn clear(&self) -> std::io::Result<usize> {
        let mut removed = 0;
        for e in fs::read_dir(&self.dir)?.flatten() {
            let name = e.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".json") || name.ends_with(".tmp") {
                fs::remove_file(e.path())?;
                if name.ends_with(".json") {
                    removed += 1;
                }
            }
        }
        Ok(removed)
    }
}

impl ResultStore for ResultCache {
    fn get(&self, key: &str) -> Option<CachedResult> {
        let text = fs::read_to_string(self.path_for(key)).ok()?;
        serde::json::from_str(&text).ok()
    }

    fn put(&self, key: &str, entry: &CachedResult) -> std::io::Result<()> {
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!(".{key}.{}-{seq}.tmp", std::process::id()));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(serde::json::to_string_pretty(entry).as_bytes())?;
            f.write_all(b"\n")?;
        }
        let published = fs::rename(&tmp, self.path_for(key));
        if published.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        published
    }

    fn list(&self) -> Vec<String> {
        self.entry_keys()
    }

    fn clear(&self) -> std::io::Result<usize> {
        ResultCache::clear(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use berti_sim::{PrefetcherChoice, SimOptions};
    use berti_types::SystemConfig;

    fn spec(workload: &str) -> JobSpec {
        JobSpec {
            workload: workload.to_string(),
            l1: PrefetcherChoice::Berti,
            l2: None,
            opts: SimOptions {
                warmup_instructions: 1_000,
                sim_instructions: 5_000,
                ..SimOptions::default()
            },
            config: SystemConfig::default(),
        }
    }

    fn tiny_report(spec: &JobSpec) -> Report {
        let mut t = berti_traces::workload_by_name(&spec.workload)
            .expect("workload exists")
            .trace();
        berti_sim::simulate_with_engine(
            &spec.config,
            spec.l1.clone(),
            spec.l2,
            &mut t,
            &spec.opts,
            berti_sim::Engine::default(),
        )
    }

    #[test]
    fn store_then_lookup_roundtrips() {
        let dir = std::env::temp_dir().join(format!("berti-cache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).expect("open");
        let s = spec("lbm-like");
        assert!(cache.lookup(&s).is_none(), "cold cache misses");
        let r = tiny_report(&s);
        cache.store(&s, &r).expect("store");
        let hit = cache.lookup(&s).expect("warm cache hits");
        assert_eq!(
            serde::json::to_string(&hit),
            serde::json::to_string(&r),
            "cached report is byte-identical"
        );
        // A different spec must not alias this entry.
        assert!(cache.lookup(&spec("mcf-1554-like")).is_none());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.clear().expect("clear"), 1);
        assert!(cache.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_read_as_misses() {
        let dir = std::env::temp_dir().join(format!("berti-cache-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).expect("open");
        let s = spec("lbm-like");
        fs::write(cache.dir().join(format!("{}.json", s.key())), b"{ not json").expect("write");
        assert!(cache.lookup(&s).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Many writers racing on the same key (as two daemons sharing one
    /// store dir would) never publish a torn entry: every concurrent
    /// read sees a complete, spec-matching report, and no temp files
    /// leak.
    #[test]
    fn concurrent_writers_never_publish_a_torn_entry() {
        let dir =
            std::env::temp_dir().join(format!("berti-cache-concurrent-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).expect("open");
        let s = spec("lbm-like");
        let r = tiny_report(&s);
        let expected = serde::json::to_string(&r);
        // Publish once so readers always have something to find.
        cache.store(&s, &r).expect("initial store");

        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        cache.store(&s, &r).expect("concurrent store");
                    }
                });
            }
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        let hit = cache.lookup(&s).expect("published entry is always whole");
                        assert_eq!(serde::json::to_string(&hit), expected, "no torn reads");
                    }
                });
            }
        });

        assert_eq!(cache.entry_keys(), vec![s.key()], "exactly one entry");
        let stray_tmps = fs::read_dir(cache.dir())
            .expect("read dir")
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .count();
        assert_eq!(stray_tmps, 0, "every temp file was renamed into place");
        let _ = fs::remove_dir_all(&dir);
    }
}
