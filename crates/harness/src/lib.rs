//! `berti-harness`: a parallel, resumable experiment-campaign engine.
//!
//! Turns "run the paper's evaluation" into a declarative campaign: a
//! [`Campaign`] names a grid of [`JobSpec`] cells (workload ×
//! prefetcher configuration × [`berti_sim::SimOptions`] × system
//! config); [`run_campaign`] executes the grid on a fixed worker pool
//! and returns every cell's [`Report`](berti_sim::Report).
//!
//! What the engine guarantees:
//!
//! - **Parallelism** — a fixed-size pool of OS threads drains a shared
//!   work queue (`--jobs N`; default = available parallelism).
//! - **One cell lifecycle** — [`run_cell`] is the only code that
//!   prechecks a cell, consults the result store, attempts it,
//!   retries, publishes, and builds its [`JobOutcome`] and `job_*`
//!   events. The worker pool here and the `berti-serve` scheduler both
//!   call it and supply only the *attempt*, so a cell means the same
//!   thing through either front end by construction.
//! - **Isolation, three attempt classes** — every attempt ends as an
//!   [`Attempt`]: a report; a *fatal* typed error (corrupt trace,
//!   unknown workload), failed at once with `attempts: 1`; or a
//!   *retryable* loss (a panic caught by [`Attempt::catching`], or in
//!   the daemon a dead or wedged worker process), retried up to
//!   [`MAX_ATTEMPTS`]. A failing cell never takes its siblings or the
//!   campaign down.
//! - **Resumability** — completed cells persist in a content-addressed
//!   cache (`results/cache/<hash-of-spec>.json`); re-running a
//!   campaign skips everything already answered, so an interrupted
//!   campaign continues where it stopped.
//! - **Determinism** — simulations are seed-deterministic and
//!   [`CampaignResult::aggregated_json`] orders cells by content hash
//!   and excludes wall-clock data, so the same campaign produces
//!   byte-identical aggregates at any worker count, scheduling order,
//!   or cache temperature.
//! - **Observability** — a JSONL event stream (job started / finished
//!   / failed / cache-hit, with wall time and simulation throughput)
//!   plus an optional live stderr progress line.
//!
//! The `campaign` binary exposes the built-in grids
//! ([`registry::builtin_campaigns`]) on the command line; the
//! `berti-bench` figure runner (`--bin fig -- <id>`) declares its grids
//! through the same engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod campaign;
mod cell;
mod events;
mod pool;
mod store;

pub mod registry;

pub use cache::{CachedResult, ResultCache, CACHE_SCHEMA_VERSION};
pub use campaign::{Campaign, CampaignBuilder, JobSpec};
pub use cell::{
    build_registry, check_workload, execute_spec, execute_spec_in, run_cell, Attempt, JobOutcome,
    JobResult, MAX_ATTEMPTS,
};
pub use events::{Event, EventSink, EVENT_SCHEMA_VERSION};
pub use pool::{env_options, run_campaign, run_campaign_with, CampaignResult, RunOptions};
pub use store::ResultStore;
