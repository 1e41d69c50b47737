//! Differential-testing oracles for the Berti simulator.
//!
//! The fast structures in `berti-mem` and `berti-core` earn their speed
//! with incremental bookkeeping: an LRU stack folded into per-line
//! ticks, an MSHR that reclaims entries lazily, a history table that
//! caps and aliases its contents the way the hardware would. Each of
//! those optimisations is a place for a bug to hide. This crate keeps a
//! deliberately *slow* twin of each structure — O(n), scan-everything,
//! no shared state — and the test suites drive both models with the
//! same operation stream and compare observable state after every step.
//!
//! The reference models:
//!
//! - [`LruOracle`]: a fully-precise recency-list cache model shadowing
//!   [`berti_mem::Cache`] residency and victim selection under LRU.
//! - [`MshrOracle`]: an append-only allocation log shadowing
//!   [`berti_mem::Mshr`] occupancy, admission, and pending lookups.
//! - [`HistoryOracle`]: a scan-the-whole-log reimplementation of
//!   [`berti_core::HistoryTable`]'s timely-delta search.
//!
//! [`streams`] generates the adversarial access streams the shadow
//! suites replay: strides that straddle page boundaries, IPs that
//! alias in the history table, and bursts sized to saturate the MSHR.
//!
//! The companion integration tests are `tests/shadow.rs`,
//! `tests/golden.rs` and the byte-identity matrix (`tests/matrix/`, its
//! rows run by `soa_layout_golden.rs`, `driver_matrix.rs`,
//! `differential.rs` and `determinism.rs`: every way into the driver
//! and every baseline under both engines, byte for byte). Building them
//! with `--features check-invariants` arms the whole stack's checkers.

#![warn(missing_docs)]

mod history;
mod lru;
mod mshr;
pub mod streams;

pub use history::HistoryOracle;
pub use lru::LruOracle;
pub use mshr::MshrOracle;
