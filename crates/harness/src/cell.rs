//! One cell, start to finish: the lifecycle every front end runs.
//!
//! [`run_cell`] is the only place a cell is prechecked, looked up in
//! the result store, attempted, retried, published, and turned into a
//! [`JobResult`] and its `job_*` events. The in-process pool
//! ([`crate::run_campaign`]) and the `berti-serve` scheduler differ
//! only in the *attempt* they plug in — a thread calling
//! [`execute_spec_in`], or a worker process behind a deadline — and
//! every attempt answers with one of three [`Attempt`] classes, so a
//! cell means the same thing (same outcome, same `attempts`, same
//! event sequence) wherever it runs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use berti_sim::Report;
use berti_traces::TraceRegistry;

use crate::campaign::JobSpec;
use crate::events::Event;
use crate::store::ResultStore;

/// Attempts per cell: the initial one plus one retry.
pub const MAX_ATTEMPTS: u32 = 2;

/// Terminal state of one cell.
// A Report is much bigger than a failure record, but there is exactly
// one outcome per cell and almost all of them carry reports — boxing
// would cost an allocation per cell for no measurable saving.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// The cell has a report.
    Done {
        /// The simulation report.
        report: Report,
        /// Whether it came from the result cache.
        cached: bool,
    },
    /// The cell could not produce a report: it was rejected up front,
    /// an attempt failed fatally, or every attempt failed.
    Failed {
        /// The diagnostic of the rejection or of the last attempt.
        error: String,
        /// Attempts made: 1 for cells rejected by the precheck or
        /// failing with an [`Attempt::Fatal`] error such as a corrupt
        /// trace (retrying cannot help), [`MAX_ATTEMPTS`] for cells
        /// whose every attempt was [`Attempt::Retryable`].
        attempts: u32,
    },
}

/// One cell's spec, key, and outcome.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The cell that ran.
    pub spec: JobSpec,
    /// Its cache key.
    pub key: String,
    /// What happened.
    pub outcome: JobOutcome,
}

/// How one attempt at a cell ended.
#[allow(clippy::large_enum_variant)] // as for JobOutcome
#[derive(Clone, Debug)]
pub enum Attempt {
    /// The simulation produced a report.
    Report(Report),
    /// A typed, deterministic failure (unknown workload, corrupt or
    /// unreadable trace): the cell fails now, a retry cannot change
    /// the answer.
    Fatal(String),
    /// The attempt was lost to something that may not recur — a caught
    /// panic, a dead or wedged worker process, a failed worker spawn:
    /// the cell is retried until [`MAX_ATTEMPTS`].
    Retryable(String),
}

impl Attempt {
    /// Runs `run` under [`catch_unwind`] and classifies the result:
    /// `Ok` is a report, a typed `Err` is fatal, a panic is retryable.
    pub fn catching(run: impl FnOnce() -> Result<Report, String>) -> Attempt {
        match catch_unwind(AssertUnwindSafe(run)) {
            Ok(Ok(report)) => Attempt::Report(report),
            Ok(Err(error)) => Attempt::Fatal(error),
            Err(payload) => Attempt::Retryable(panic_message(payload)),
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Runs one cell through its whole lifecycle and returns its result.
///
/// 1. **Precheck** — `SimOptions::validate`, then (when a `registry`
///    is given) the workload name; a registry that failed to build
///    rejects every cell with its diagnostic. A rejected cell emits
///    one `job_failed` and fails with `attempts: 1`.
/// 2. **Store** — a valid entry in `store` answers the cell
///    (`job_cache_hit`, `cached: true`).
/// 3. **Attempts** — `job_started`, then `attempt(n)` for
///    `n = 1..=MAX_ATTEMPTS`. A report is published to `store` and
///    ends the cell (`job_finished`); a fatal failure ends it at once;
///    a retryable one emits `job_failed` with `will_retry` set while
///    attempts remain.
///
/// `emit` receives the lifecycle's events in order; whatever else an
/// attempt wants in the stream (`job_interval`, `worker_crashed`, …)
/// it writes itself.
pub fn run_cell(
    spec: &JobSpec,
    registry: Option<&Result<TraceRegistry, String>>,
    store: Option<&dyn ResultStore>,
    mut emit: impl FnMut(Event),
    mut attempt: impl FnMut(u32) -> Attempt,
) -> JobResult {
    let key = spec.key();
    let workload = spec.workload.clone();
    let label = spec.label();
    let job_failed = |attempt: u32, will_retry: bool, error: &str| Event::JobFailed {
        key: key.clone(),
        workload: workload.clone(),
        label: label.clone(),
        attempt,
        will_retry,
        error: error.to_string(),
    };
    let result = |outcome| JobResult {
        spec: spec.clone(),
        key: key.clone(),
        outcome,
    };

    // Reject invalid grid cells before touching the store or the
    // simulator: a deterministic diagnostic on this one cell, not a
    // panic caught (and pointlessly retried) by an attempt.
    let rejected = spec
        .opts
        .validate(&spec.config)
        .map_err(|e| e.to_string())
        .and_then(|()| match registry {
            None => Ok(()),
            Some(Ok(registry)) => check_workload(registry, &spec.workload),
            Some(Err(e)) => Err(e.clone()),
        });
    if let Err(error) = rejected {
        emit(job_failed(1, false, &error));
        return result(JobOutcome::Failed { error, attempts: 1 });
    }

    if let Some(report) = store.and_then(|s| s.lookup(spec)) {
        emit(Event::JobCacheHit {
            key: key.clone(),
            workload: workload.clone(),
            label: label.clone(),
        });
        return result(JobOutcome::Done {
            report,
            cached: true,
        });
    }

    emit(Event::JobStarted {
        key: key.clone(),
        workload: workload.clone(),
        label: label.clone(),
    });
    let mut attempts = 1;
    loop {
        let started = Instant::now();
        let (error, retryable) = match attempt(attempts) {
            Attempt::Report(report) => {
                if let Some(s) = store {
                    let _ = s.store(spec, &report);
                }
                let wall_ms = started.elapsed().as_millis() as u64;
                let wall_s = (wall_ms as f64 / 1000.0).max(1e-9);
                emit(Event::JobFinished {
                    key: key.clone(),
                    workload: workload.clone(),
                    label: label.clone(),
                    wall_ms,
                    instructions: report.instructions,
                    mips: report.instructions as f64 / 1e6 / wall_s,
                    ipc: report.ipc(),
                });
                return result(JobOutcome::Done {
                    report,
                    cached: false,
                });
            }
            Attempt::Fatal(error) => (error, false),
            Attempt::Retryable(error) => (error, true),
        };
        let will_retry = retryable && attempts < MAX_ATTEMPTS;
        emit(job_failed(attempts, will_retry, &error));
        if !will_retry {
            return result(JobOutcome::Failed { error, attempts });
        }
        attempts += 1;
    }
}

/// Builds the workload registry a campaign resolves against: builtins
/// plus anything discovered under `trace_dir`. `Err` when the trace
/// dir cannot be scanned or a file clashes with a registered name —
/// [`run_cell`] then fails every cell with that diagnostic.
pub fn build_registry(trace_dir: Option<&Path>) -> Result<TraceRegistry, String> {
    match trace_dir {
        None => Ok(TraceRegistry::builtin()),
        Some(dir) => TraceRegistry::with_trace_dir(dir)
            .map_err(|e| format!("trace dir {}: {e}", dir.display())),
    }
}

/// Workload precheck: `Err` with a "did you mean" diagnostic when
/// `name` is not in the registry.
pub fn check_workload(registry: &TraceRegistry, name: &str) -> Result<(), String> {
    if registry.get(name).is_some() {
        return Ok(());
    }
    let near = registry.suggest(name, 3);
    let mut msg = format!("unknown workload `{name}`");
    if near.is_empty() {
        msg.push_str(" (run `campaign list` for all names)");
    } else {
        msg.push_str(&format!(" — did you mean {}?", near.join(", ")));
    }
    Err(msg)
}

/// Executes one cell with the real simulator: resolves the workload
/// against `registry`, runs the simulation (sampled when `interval` is
/// set, forwarding each window as an [`Event::JobInterval`] through
/// `emit`), and returns the report.
///
/// This is the single execution path shared by every attempt — the
/// in-process worker pool and `berti-serve`'s worker processes — so a
/// cell produces byte-identical reports no matter which engine ran it.
/// An unknown workload or an unreadable/corrupt trace file is a typed
/// `Err` ([`Attempt::Fatal`] under [`Attempt::catching`]); only genuine
/// simulator panics need `catch_unwind` (or a process boundary).
pub fn execute_spec_in(
    registry: &TraceRegistry,
    spec: &JobSpec,
    interval: Option<u64>,
    emit: &mut dyn FnMut(Event),
) -> Result<Report, String> {
    let workload = registry
        .get(&spec.workload)
        .ok_or_else(|| format!("unknown workload `{}`", spec.workload))?;
    let mut trace = workload
        .try_trace()
        .map_err(|e| format!("workload `{}`: {e}", spec.workload))?;
    // Computed at the first window: an unsampled cell never pays for
    // hashing its own spec.
    let mut ids = None;
    let mut sink = |s: berti_sim::IntervalSample| {
        let (key, label) = ids.get_or_insert_with(|| (spec.key(), spec.label()));
        emit(Event::JobInterval {
            key: key.clone(),
            workload: spec.workload.clone(),
            label: label.clone(),
            instructions: s.instructions,
            ipc: s.ipc,
            l1d_mpki: s.l1d_mpki,
            l2_mpki: s.l2_mpki,
            llc_mpki: s.llc_mpki,
            l1d_accuracy: s.l1d_accuracy,
        });
    };
    Ok(berti_sim::simulate_instrumented(
        &spec.config,
        spec.l1.clone(),
        spec.l2,
        &mut trace,
        &spec.opts,
        berti_sim::Engine::default(),
        interval.map(|n| berti_sim::Sampling {
            interval: n,
            sink: &mut sink,
        }),
    ))
}

/// One-shot variant of [`execute_spec_in`]: builds the registry for
/// `trace_dir` (builtins only when `None`) and executes the cell.
/// `berti-serve` workers use this — one cell per request; the registry
/// rebuild is cheap, and the decoded-trace cache means repeated cells
/// naming the same trace decode it once per worker process.
pub fn execute_spec(
    spec: &JobSpec,
    trace_dir: Option<&Path>,
    interval: Option<u64>,
    emit: &mut dyn FnMut(Event),
) -> Result<Report, String> {
    execute_spec_in(&build_registry(trace_dir)?, spec, interval, emit)
}
