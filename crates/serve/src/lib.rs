//! `berti-serve`: the campaign-as-a-service experiment daemon.
//!
//! PRs 1–5 made the campaign engine parallel, resumable,
//! content-addressed, and panic-isolated — but it stayed a one-shot
//! CLI: every evaluation re-paid process startup, and nothing could
//! share a cache or watch a run live. This crate turns the engine into
//! a long-running service:
//!
//! - **HTTP front end** ([`server`]) — a hand-rolled, std-only
//!   HTTP/1.1 server over [`std::net::TcpListener`] with a bounded
//!   handler pool (the build environment has no crates.io access, so
//!   no tokio/hyper). `POST /campaigns` submits a campaign spec as
//!   JSON, `GET /campaigns/:id` reports status, `DELETE` cancels,
//!   `GET /metrics` exposes server counters through the
//!   [`berti_stats::Registry`].
//! - **Live + replayable event streaming** ([`state::EventLog`]) —
//!   `GET /campaigns/:id/events` serves the campaign's JSONL event
//!   stream over Server-Sent Events; every event has a monotonically
//!   increasing id, and a late-joining watcher passes
//!   `?offset=N` (or `Last-Event-ID`) to replay from any point, so
//!   catching up and tailing are the same request.
//! - **Process-sharded execution** ([`sched`], [`proto`]) — grid
//!   cells run in a pool of worker *processes*: the daemon re-execs
//!   itself with a hidden `--worker` flag and speaks length-prefixed
//!   JSON over the child's stdin/stdout. A worker crash (SIGKILL, OOM,
//!   abort — not just a catchable panic) loses exactly one attempt of
//!   one cell, which is retried on a fresh worker. Cells run through
//!   `berti-harness`'s one cell lifecycle ([`berti_harness::run_cell`]);
//!   the scheduler only supplies the attempt, so daemon and CLI cells
//!   cannot drift apart.
//! - **Multi-campaign scheduling with deadlines** ([`sched`]) —
//!   campaigns share a global worker budget (FIFO admission,
//!   per-campaign max-share so a huge grid cannot starve a later
//!   quick submission), every worker interaction runs under a
//!   wall-clock deadline (spawn handshake + per-cell timeout,
//!   overridable per campaign), and a monitor thread kills wedged
//!   workers so a hung simulation costs one `worker_timeout` event
//!   and a backoff-retried cell — never a blocked daemon. The
//!   dispatcher publishes its gauges and deadline counters as the
//!   `scheduler` group in `GET /metrics`.
//! - **Pluggable result store** — execution writes through
//!   [`berti_harness::ResultStore`]; the local-dir backend's atomic
//!   publish (unique temp file + rename) lets several daemons and the
//!   one-shot `campaign` CLI share one cache directory safely, and a
//!   campaign submitted to the daemon produces reports byte-identical
//!   to the same spec run by the CLI.
//!
//! The binary is `berti-serve`; see the crate README section for the
//! HTTP API and `DESIGN.md` §8 for the worker protocol.

// `deny` rather than `forbid`: the deadline monitor in [`sched`] binds
// the libc `kill(2)` symbol behind one scoped `#[allow(unsafe_code)]`;
// everything else stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod proto;
pub mod sched;
pub mod server;
pub mod state;
pub mod stats;

#[cfg(test)]
#[path = "../../traces/tests/common/mod.rs"]
mod common;
