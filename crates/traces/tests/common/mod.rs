//! Per-test unique temp paths for the workspace's tests: this crate's
//! integration tests declare `mod common;`, and every other test that
//! needs a temp path — unit tests through their crate's `lib.rs`,
//! integration tests of other crates — includes this same file with
//! `#[path]`.

// Each test binary compiles its own copy and uses part of it.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A path under the system temp directory that no other `TempPath` —
/// in this process or in a concurrently running test binary — names:
/// the pid, a process-wide sequence number, then `tag` last, so the
/// tag's extension is what format sniffing sees. Whatever is at the
/// path (file or directory) is removed on drop.
pub struct TempPath(PathBuf);

impl TempPath {
    /// A fresh path; nothing is created there.
    pub fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        Self(std::env::temp_dir().join(format!("berti-{}-{n}-{tag}", std::process::id())))
    }

    /// A fresh, empty directory.
    pub fn dir(tag: &str) -> Self {
        let d = Self::new(tag);
        std::fs::create_dir_all(&d.0).expect("creates a temp dir");
        d
    }

    /// A fresh file holding `bytes`.
    pub fn file(tag: &str, bytes: &[u8]) -> Self {
        let f = Self::new(tag);
        std::fs::write(&f.0, bytes).expect("writes a temp file");
        f
    }
}

impl std::ops::Deref for TempPath {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempPath {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        if self.0.is_dir() {
            let _ = std::fs::remove_dir_all(&self.0);
        } else {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}
