//! Memory-hierarchy substrate for the Berti reproduction.
//!
//! This crate models the parts of ChampSim the paper's evaluation
//! depends on: set-associative, non-inclusive caches with miss-status
//! holding registers (MSHRs) and prefetch queues (PQs); LRU/FIFO/SRRIP/
//! DRRIP replacement; a DRAM channel with banks, an open-page row-buffer
//! policy, FR-FCFS-style scheduling and a write-drain watermark; L1
//! dTLB + STLB address translation with first-touch page allocation; and
//! the prefetcher interface that both `berti-core` and the baseline
//! prefetchers implement.
//!
//! # Simulation model
//!
//! Components are *timestamped resources*: every operation takes the
//! current [`Cycle`](berti_types::Cycle) and returns the cycle at which
//! its result is available, advancing internal busy-until state (bank
//! timings, bus occupancy, MSHR residency, in-flight lines). This is
//! equivalent to an event-driven simulation with the core as the only
//! event source, and reproduces the variable fill latency Berti's
//! training depends on (Sec. IV-A: fill latencies from 22 to 2098
//! cycles) at a fraction of the cost of a per-cycle tick model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod dram;
mod hierarchy;
mod mshr;
mod prefetch;
mod presence;
mod replacement;
mod set_index;
mod tlb;
mod vmem;

pub use cache::{AccessOutcome, Cache, CacheStats, EvictedLine, HitInfo, SetResidency, MAX_WAYS};
pub use dram::{Dram, DramStats};
pub use hierarchy::{DemandAccess, DemandOutcome, FlowStats, Hierarchy, SharedMemory, TlbStats};
pub use mshr::Mshr;
pub use prefetch::{AccessEvent, FillEvent, NullPrefetcher, PrefetchDecision, Prefetcher};
pub use replacement::ReplacementPolicy;
pub use set_index::SetIndex;
pub use tlb::Tlb;
pub use vmem::PageTable;
