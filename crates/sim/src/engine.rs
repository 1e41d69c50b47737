//! How the simulation loop advances time.
//!
//! The naive loop ticks every component every cycle. The
//! event-scheduled loop exploits the skip-ahead contract — every
//! component exposes the earliest future cycle at which it has work
//! ([`berti_cpu::Core::quiescent_until`],
//! [`berti_mem::Hierarchy::next_event`],
//! [`berti_mem::Dram::next_event`]) — to fast-forward stretches where
//! the core is stalled on an outstanding miss and no queued prefetch
//! is due, performing the same counter bookkeeping in bulk. Both engines
//! give byte-identical reports (`crates/oracle/tests/matrix/`); the
//! event-scheduled one is just faster on stall-heavy workloads.

/// The time-advancement strategy of the simulation loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// Tick every component every cycle. The reference loop: trivially
    /// correct, slow on memory-bound workloads that spend most cycles
    /// stalled.
    Naive,
    /// Event-scheduled: cycle components only when they have work due,
    /// and fast-forward quiescent stretches in one step. Byte-identical
    /// results to [`Engine::Naive`].
    #[default]
    SkipAhead,
}
