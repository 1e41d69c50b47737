//! ChampSim-style simulation driver: wires a [`berti_cpu::Core`] to a
//! [`berti_mem::Hierarchy`] per simulated core over a shared
//! [`berti_mem::SharedMemory`], replays workload traces with a warm-up
//! phase followed by a measurement phase (Sec. IV-A: 50 M warm-up +
//! 200 M measured, scaled down by default for tractable runs), and
//! reports IPC, MPKIs, prefetch accuracy/timeliness, traffic, and
//! dynamic energy.
//!
//! There is one driver (`runner.rs`, DESIGN.md §6): a single-core run
//! is a one-slot multi-core mix, and the five `simulate*` functions
//! are each one call of it — [`simulate`] and [`simulate_multicore`]
//! with the default [`Engine`], the `_with_engine` forms with an
//! explicit one, and [`simulate_instrumented`] with the interval
//! sampler attached to the measurement phase.
//!
//! # Quickstart
//!
//! ```
//! use berti_sim::{simulate, PrefetcherChoice, SimOptions};
//! use berti_traces::spec::StridedLoops;
//! use berti_types::SystemConfig;
//!
//! let opts = SimOptions {
//!     warmup_instructions: 10_000,
//!     sim_instructions: 50_000,
//!     ..SimOptions::default()
//! };
//! let report = simulate(
//!     &SystemConfig::default(),
//!     PrefetcherChoice::Berti,
//!     &mut StridedLoops::default().generator(),
//!     &opts,
//! );
//! assert!(report.ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod choices;
mod engine;
mod report;
mod runner;
mod sampler;

pub use choices::{L2PrefetcherChoice, PrefetcherChoice};
pub use engine::Engine;
pub use report::{geometric_mean, MultiCoreReport, Report, ReportMeta};
pub use runner::{
    simulate, simulate_instrumented, simulate_multicore, simulate_multicore_with_engine,
    simulate_with_engine, SimOptions,
};
pub use sampler::{IntervalSample, Sampling};
