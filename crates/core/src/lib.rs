//! **Berti: an Accurate Local-Delta Data Prefetcher** (MICRO 2022) —
//! the paper's primary contribution, implemented against the
//! [`berti_mem::Prefetcher`] interface.
//!
//! Berti is an L1D prefetcher that, for each instruction pointer,
//! learns the *local deltas* (differences between cache-line addresses
//! of demand accesses by the same IP) that would have produced *timely*
//! prefetches, estimates each delta's *coverage*, and issues prefetch
//! requests only for deltas whose coverage crosses confidence
//! watermarks — filling to the L1D for high-coverage deltas (when the
//! MSHR is not saturated) and to the L2 for medium-coverage ones.
//! [`BertiPage`] (`Berti<PerPage>`) keys the same tables by 4 KiB page
//! instead: the DPC-3 predecessor, for the local-context ablation.
//!
//! The three hardware structures of Sec. III-C are reproduced exactly:
//!
//! - a [`HistoryTable`] (8 sets × 16 ways, FIFO) of recent accesses per
//!   IP, holding a 7-bit IP tag, a 24-bit line address, and a 16-bit
//!   timestamp;
//! - a [`DeltaTable`] (16 entries, fully associative, FIFO) holding a
//!   10-bit IP tag, a 4-bit search counter, and 16 deltas × (13-bit
//!   delta, 4-bit coverage, 2-bit status);
//! - the per-line 12-bit fetch-latency shadow field, which lives in the
//!   host cache ([`berti_mem::Cache`]).
//!
//! # Example
//!
//! ```
//! use berti_core::{Berti, BertiConfig};
//! use berti_mem::Prefetcher;
//!
//! let berti = Berti::new(BertiConfig::default());
//! // Table I: the paper's configuration costs 2.55 KB.
//! let kb = berti.storage_bits() as f64 / 8.0 / 1024.0;
//! assert!((kb - 2.55).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod berti;
mod deltas;
mod history;
mod storage;

pub use berti::{Berti, BertiPage, LocalContext, PerIp, PerPage};
pub use deltas::{DeltaStatus, DeltaTable, LearnedDelta};
pub use history::{HistoryHit, HistoryTable};
pub use storage::{BertiConfig, StorageBreakdown};
