//! Synthetic workload generators standing in for the paper's SPEC
//! CPU2017, GAP, and CloudSuite SimPoint traces (DESIGN.md
//! substitution #1).
//!
//! Each workload deterministically generates a bounded instruction
//! trace ([`Trace`]) that the simulator replays cyclically — exactly
//! how ChampSim replays SimPoint traces. The generators reproduce the
//! access-pattern *classes* the paper analyses by name:
//!
//! - `spec`: constant and interleaved strides (lbm), per-IP local
//!   deltas with chaotic interleaving (mcf), hundreds of interleaved
//!   strided IPs (CactuBSSN), multi-stream floating-point kernels,
//!   pointer chasing (omnetpp/xalancbmk);
//! - `gap`: the real BFS/PageRank/CC/BC/SSSP/TC kernels executed over
//!   in-memory CSR graphs (Kronecker and uniform-random), emitting the
//!   kernels' true virtual-address streams with load-load dependences;
//! - `cloud`: CloudSuite-like services — low data MPKI, high branch
//!   pressure, mixed regular/irregular accesses.

// `deny`, not `forbid`: the one `#[allow(unsafe_code)]` exception is
// the minimal mmap(2) binding in `ingest::mmap`, which backs zero-copy
// `.btrc` replay. Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cloud;
pub mod gap;
pub mod ingest;
pub mod mix;
pub mod spec;
pub mod stream;

mod builder;
mod registry;
mod trace;

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;

pub use builder::TraceBuilder;
pub use registry::TraceRegistry;
pub use stream::{InstrStream, STREAM_CHUNK_INSTRS};
pub use trace::{Suite, Trace, WorkloadDef};

/// All memory-intensive workloads (SPEC-like + GAP-like), the set most
/// figures average over.
pub fn memory_intensive_suite() -> Vec<WorkloadDef> {
    let mut v = spec::suite();
    v.extend(gap::suite());
    v
}

/// Every workload the repository defines, across all suites.
pub fn all_workloads() -> Vec<WorkloadDef> {
    let mut v = memory_intensive_suite();
    v.extend(cloud::suite());
    v
}

/// Resolves a *builtin* workload by its display name (e.g.
/// `"bfs-kron"`), the form campaign specs store. File-backed
/// workloads resolve through [`TraceRegistry`] instead.
pub fn workload_by_name(name: &str) -> Option<WorkloadDef> {
    all_workloads().into_iter().find(|w| w.name == name)
}
