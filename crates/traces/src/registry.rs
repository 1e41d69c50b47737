//! The workload registry: builtin synthetic suites and discovered
//! trace files behind one name-indexed lookup.
//!
//! The harness and daemon resolve `JobSpec.workload` names through a
//! registry instead of the static builtin list, which is what lets a
//! `--trace-dir` campaign and a synthetic campaign share every layer
//! above this one. Names must be unique across builtins *and* files —
//! cache keys are derived from workload names, so silently shadowing
//! `lbm-like` with a file of the same name would alias cached results.

use std::path::{Path, PathBuf};

use crate::ingest::{workload_from_file, IngestError};
use crate::WorkloadDef;

/// Trace-file extensions the discovery scan accepts, before an
/// optional `.xz`/`.gz` compression suffix.
const TRACE_EXTENSIONS: [&str; 4] = ["btrc", "trace", "champsim", "champsimtrace"];

/// A name-indexed collection of workloads: builtins plus any trace
/// files discovered under a `--trace-dir`.
#[derive(Debug, Default)]
pub struct TraceRegistry {
    workloads: Vec<WorkloadDef>,
}

impl TraceRegistry {
    /// A registry of every builtin synthetic workload.
    pub fn builtin() -> Self {
        Self {
            workloads: crate::all_workloads(),
        }
    }

    /// An empty registry (useful for file-only campaigns in tests).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builtins plus everything discovered under `dir`.
    pub fn with_trace_dir(dir: &Path) -> Result<Self, IngestError> {
        let mut reg = Self::builtin();
        reg.discover(dir)?;
        Ok(reg)
    }

    /// Scans `dir` (non-recursively) for trace files and registers
    /// each as a workload. Returns how many were added. Files are
    /// recognised by extension — `.btrc`, `.trace`, `.champsim`,
    /// `.champsimtrace`, each optionally `.xz`/`.gz`-compressed — and
    /// named by their stem with those suffixes stripped
    /// (`mcf_250B.champsimtrace.xz` becomes workload `mcf_250B`).
    /// Registration order is sorted by file name, so discovery is
    /// deterministic across platforms.
    pub fn discover(&mut self, dir: &Path) -> Result<usize, IngestError> {
        let entries = std::fs::read_dir(dir).map_err(|e| IngestError::io(dir, &e))?;
        let mut files: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_file())
            .collect();
        files.sort();
        let mut added = 0;
        for path in files {
            let Some(file_name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(name) = trace_workload_name(file_name) else {
                continue;
            };
            if self.get(&name).is_some() {
                return Err(IngestError::DuplicateWorkload { name, path });
            }
            self.workloads.push(workload_from_file(name, path));
            added += 1;
        }
        Ok(added)
    }

    /// Registers one workload. Errors if the name is taken.
    pub fn register(&mut self, w: WorkloadDef) -> Result<(), IngestError> {
        if self.get(&w.name).is_some() {
            return Err(IngestError::DuplicateWorkload {
                path: w.source_path().map(Path::to_path_buf).unwrap_or_default(),
                name: w.name,
            });
        }
        self.workloads.push(w);
        Ok(())
    }

    /// Looks a workload up by name.
    pub fn get(&self, name: &str) -> Option<&WorkloadDef> {
        self.workloads.iter().find(|w| w.name == name)
    }

    /// Every registered workload, builtins first, then discovered
    /// files in discovery order.
    pub fn workloads(&self) -> &[WorkloadDef] {
        &self.workloads
    }

    /// Only the file-backed workloads (discovery results).
    pub fn trace_workloads(&self) -> impl Iterator<Item = &WorkloadDef> {
        self.workloads.iter().filter(|w| w.source_path().is_some())
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.workloads.iter().map(|w| w.name.as_str()).collect()
    }

    /// Near-miss suggestions for an unknown name ("did you mean"):
    /// registered names within edit distance 3 (or sharing a prefix),
    /// closest first, at most `max`.
    pub fn suggest(&self, unknown: &str, max: usize) -> Vec<String> {
        let mut scored: Vec<(usize, &str)> = self
            .workloads
            .iter()
            .map(|w| w.name.as_str())
            .filter_map(|name| {
                let d = edit_distance(unknown, name);
                let prefix = name.starts_with(unknown) || unknown.starts_with(name);
                (d <= 3 || prefix).then_some((d, name))
            })
            .collect();
        scored.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(b.1)));
        scored
            .into_iter()
            .take(max)
            .map(|(_, n)| n.to_string())
            .collect()
    }
}

/// The workload name for a trace file name, or `None` if the file is
/// not a recognised trace.
fn trace_workload_name(file_name: &str) -> Option<String> {
    let decompressed = file_name
        .strip_suffix(".xz")
        .or_else(|| file_name.strip_suffix(".gz"))
        .unwrap_or(file_name);
    TRACE_EXTENSIONS
        .iter()
        .find_map(|ext| decompressed.strip_suffix(&format!(".{ext}")))
        .filter(|stem| !stem.is_empty())
        .map(str::to_string)
}

/// Plain Levenshtein distance (names are short; O(n·m) is fine).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::TempPath;
    use crate::ingest::{encode_btrc, write_btrc};
    use berti_types::{Instr, Ip, VAddr};

    #[test]
    fn builtin_registry_resolves_known_names() {
        let reg = TraceRegistry::builtin();
        assert!(reg.get("lbm-like").is_some());
        assert!(reg.get("no-such").is_none());
        assert!(reg.names().len() >= 20);
    }

    #[test]
    fn file_name_stripping() {
        assert_eq!(
            trace_workload_name("mcf_250B.champsimtrace.xz").as_deref(),
            Some("mcf_250B")
        );
        assert_eq!(trace_workload_name("a.btrc").as_deref(), Some("a"));
        assert_eq!(trace_workload_name("b.trace.gz").as_deref(), Some("b"));
        assert_eq!(trace_workload_name("notes.txt"), None);
        assert_eq!(trace_workload_name(".btrc"), None, "empty stem rejected");
        assert_eq!(trace_workload_name("x.xz"), None, "compression alone");
    }

    #[test]
    fn discovery_is_sorted_and_typed() {
        let dir = TempPath::dir("discover");
        let instrs = vec![Instr::load(Ip::new(1), VAddr::new(64))];
        write_btrc(&dir.join("zeta.btrc"), &instrs).expect("writes");
        write_btrc(&dir.join("alpha.btrc"), &instrs).expect("writes");
        std::fs::write(dir.join("README.md"), "not a trace").expect("writes");

        let mut reg = TraceRegistry::builtin();
        assert_eq!(reg.discover(&dir).expect("scans"), 2);
        let traces: Vec<_> = reg.trace_workloads().map(|w| w.name.clone()).collect();
        assert_eq!(traces, ["alpha", "zeta"], "sorted by file name");
        let w = reg.get("alpha").expect("registered");
        assert_eq!(w.suite, crate::Suite::Trace);
        assert!(w.source_desc().ends_with("alpha.btrc"));
        assert_eq!(w.try_trace().expect("reads").len(), 1);
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let dir = TempPath::dir("dup");
        let bytes = encode_btrc(&[Instr::alu(Ip::new(1))]);
        std::fs::write(dir.join("lbm-like.btrc"), &bytes).expect("writes");
        let mut reg = TraceRegistry::builtin();
        assert!(matches!(
            reg.discover(&dir),
            Err(IngestError::DuplicateWorkload { name, .. }) if name == "lbm-like"
        ));
    }

    #[test]
    fn suggestions_rank_near_misses() {
        let reg = TraceRegistry::builtin();
        let s = reg.suggest("lbm-lik", 3);
        assert_eq!(s.first().map(String::as_str), Some("lbm-like"));
        assert!(reg.suggest("zzzzzzzz", 3).is_empty());
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", "abd"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }
}
