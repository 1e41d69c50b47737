//! The campaign executor: a fixed worker pool over a shared work
//! queue. Each worker thread runs its cells through the one cell
//! lifecycle ([`run_cell`]) with an in-process attempt: the executor
//! under `catch_unwind`.

use std::io::IsTerminal;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Instant;

use berti_sim::{Report, SimOptions};
use berti_traces::TraceRegistry;
use serde::Value;

use crate::cache::ResultCache;
use crate::campaign::{Campaign, JobSpec};
use crate::cell::{build_registry, execute_spec_in, run_cell, Attempt, JobOutcome, JobResult};
use crate::events::{Event, EventSink};
use crate::store::ResultStore;

/// How a campaign should be executed.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Worker-pool size (`--jobs N`); 0 means "available parallelism".
    pub jobs: usize,
    /// Result-cache directory; `None` disables caching entirely.
    pub cache_dir: Option<PathBuf>,
    /// JSONL event-stream path; `None` disables the stream.
    pub events_path: Option<PathBuf>,
    /// Paint a live progress line on stderr.
    pub progress: bool,
    /// Emit a [`Event::JobInterval`] time-series point every this many
    /// retired instructions of each job's measurement phase; `None`
    /// disables interval sampling. Sampling is observation-only: it
    /// never changes reports (or therefore cache keys/contents).
    pub interval: Option<u64>,
    /// Directory of trace files (`--trace-dir`); discovered traces
    /// join the builtin workloads in the campaign's registry. Note
    /// that cache keys are derived from workload *names*: point
    /// different trace dirs at the same cache only if same-named
    /// files are the same traces.
    pub trace_dir: Option<PathBuf>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            jobs: 0,
            cache_dir: Some(PathBuf::from("results/cache")),
            events_path: None,
            progress: false,
            interval: None,
            trace_dir: None,
        }
    }
}

impl RunOptions {
    /// The effective worker count.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Phase lengths and execution options as the environment sets them:
/// `BERTI_WARMUP` / `BERTI_INSTR` (default 100 000 / 400 000
/// instructions), `BERTI_JOBS` (default 0), `BERTI_CACHE_DIR` (default
/// `results/cache`; `BERTI_NO_CACHE=1` disables the cache),
/// `BERTI_EVENTS` and `BERTI_INTERVAL`; the progress line is on when
/// stderr is a terminal. The one place these variables are read: the
/// figure runner takes both halves, `campaign` and `bertisim` the half
/// their flags do not already set.
pub fn env_options() -> (SimOptions, RunOptions) {
    fn var<T: std::str::FromStr>(key: &str) -> Option<T> {
        std::env::var(key).ok().and_then(|v| v.parse().ok())
    }
    let sim = SimOptions {
        warmup_instructions: var("BERTI_WARMUP").unwrap_or(100_000),
        sim_instructions: var("BERTI_INSTR").unwrap_or(400_000),
        ..SimOptions::default()
    };
    let no_cache = std::env::var("BERTI_NO_CACHE").is_ok_and(|v| v == "1");
    let run = RunOptions {
        jobs: var("BERTI_JOBS").unwrap_or(0),
        cache_dir: (!no_cache)
            .then(|| var("BERTI_CACHE_DIR").unwrap_or_else(|| PathBuf::from("results/cache"))),
        events_path: var("BERTI_EVENTS"),
        progress: std::io::stderr().is_terminal(),
        interval: var("BERTI_INTERVAL"),
        trace_dir: None,
    };
    (sim, run)
}

/// All results of one campaign run, in campaign (declaration) order.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// Campaign name.
    pub name: String,
    /// Per-cell results, ordered as the campaign declared its cells.
    pub jobs: Vec<JobResult>,
    /// End-to-end wall time, milliseconds.
    pub wall_ms: u64,
}

impl CampaignResult {
    /// Cells that produced a report.
    pub fn completed(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| matches!(j.outcome, JobOutcome::Done { .. }))
            .count()
    }

    /// Cells answered from the cache.
    pub fn cache_hits(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| matches!(j.outcome, JobOutcome::Done { cached: true, .. }))
            .count()
    }

    /// Cells that failed both attempts.
    pub fn failed(&self) -> usize {
        self.jobs.len() - self.completed()
    }

    /// The report for a cell, if it completed.
    pub fn report(&self, workload: &str, label: &str) -> Option<&Report> {
        self.jobs.iter().find_map(|j| match &j.outcome {
            JobOutcome::Done { report, .. }
                if j.spec.workload == workload && j.spec.label() == label =>
            {
                Some(report)
            }
            _ => None,
        })
    }

    /// Reports of all completed cells with the given configuration
    /// label, in campaign order.
    pub fn reports_for_label(&self, label: &str) -> Vec<&Report> {
        self.jobs
            .iter()
            .filter(|j| j.spec.label() == label)
            .filter_map(|j| match &j.outcome {
                JobOutcome::Done { report, .. } => Some(report),
                _ => None,
            })
            .collect()
    }

    /// Deterministic aggregated JSON of the whole campaign: cells
    /// sorted by cache key, wall-clock data excluded, so the same
    /// campaign serializes byte-identically regardless of worker
    /// count, scheduling, or cache temperature.
    pub fn aggregated_json(&self) -> String {
        let mut cells: Vec<&JobResult> = self.jobs.iter().collect();
        cells.sort_by(|a, b| a.key.cmp(&b.key));
        let cells: Vec<Value> = cells
            .into_iter()
            .map(|j| {
                let mut o = vec![
                    ("key".to_string(), Value::Str(j.key.clone())),
                    ("spec".to_string(), serde::Serialize::to_value(&j.spec)),
                ];
                match &j.outcome {
                    JobOutcome::Done { report, .. } => {
                        o.push(("report".to_string(), serde::Serialize::to_value(report)));
                    }
                    JobOutcome::Failed { error, attempts } => {
                        o.push(("error".to_string(), Value::Str(error.clone())));
                        o.push(("attempts".to_string(), Value::U64(*attempts as u64)));
                    }
                }
                Value::Object(o)
            })
            .collect();
        let root = Value::Object(vec![
            ("campaign".to_string(), Value::Str(self.name.clone())),
            ("cells".to_string(), Value::Array(cells)),
        ]);
        let mut s = serde::json::to_string_pretty(&root);
        s.push('\n');
        s
    }
}

/// Runs a campaign with the real simulator. The registry (builtins +
/// `opts.trace_dir`) is built once and shared by all workers; cells
/// naming unknown workloads fail pre-dispatch with a "did you mean"
/// diagnostic, and an unreadable trace dir fails every cell with its
/// diagnostic, instead of burning a retry on a panic.
pub fn run_campaign(campaign: &Campaign, opts: &RunOptions) -> CampaignResult {
    let interval = opts.interval;
    let registry = build_registry(opts.trace_dir.as_deref());
    run_campaign_inner(campaign, opts, Some(&registry), |spec, emit| {
        execute_spec_in(registry.as_ref()?, spec, interval, emit)
    })
}

/// Runs a campaign with an arbitrary executor (tests inject failing or
/// instant executors here). No workload precheck on this path:
/// injected executors are free to use workload names the registry has
/// never heard of.
pub fn run_campaign_with<F>(campaign: &Campaign, opts: &RunOptions, exec: F) -> CampaignResult
where
    F: Fn(&JobSpec) -> Report + Sync,
{
    run_campaign_inner(campaign, opts, None, |spec, _emit| Ok(exec(spec)))
}

/// Scheduling: all cells go into a shared queue; `jobs` workers drain
/// it, each running [`run_cell`] with the executor under
/// [`Attempt::catching`] as the attempt. A failing or panicking cell
/// never takes its siblings down.
fn run_campaign_inner<F>(
    campaign: &Campaign,
    opts: &RunOptions,
    registry: Option<&Result<TraceRegistry, String>>,
    exec: F,
) -> CampaignResult
where
    F: Fn(&JobSpec, &mut dyn FnMut(Event)) -> Result<Report, String> + Sync,
{
    let started = Instant::now();
    let cache = opts
        .cache_dir
        .as_ref()
        .and_then(|d| ResultCache::open(d).ok());
    let jobs = opts.effective_jobs();

    let (event_tx, event_rx) = mpsc::channel::<Event>();
    let (work_tx, work_rx) = mpsc::channel::<usize>();
    for i in 0..campaign.cells.len() {
        let _ = work_tx.send(i);
    }
    drop(work_tx);
    let work_rx = Mutex::new(work_rx);

    let slots: Vec<Mutex<Option<JobResult>>> =
        campaign.cells.iter().map(|_| Mutex::new(None)).collect();

    let _ = event_tx.send(Event::CampaignStarted {
        campaign: campaign.name.clone(),
        cells: campaign.cells.len(),
        jobs,
    });

    // The collector outlives the worker scope so the campaign summary
    // (which needs the joined results) flows through the same sink.
    let mut sink = EventSink::new(
        opts.events_path.as_deref(),
        opts.progress,
        campaign.cells.len(),
    );
    let collector = std::thread::spawn(move || {
        while let Ok(e) = event_rx.recv() {
            sink.record(&e);
        }
        sink.finish();
    });

    std::thread::scope(|scope| {
        for _ in 0..jobs.min(campaign.cells.len()).max(1) {
            let event_tx = event_tx.clone();
            let work_rx = &work_rx;
            let slots = &slots;
            let store = cache.as_ref().map(|c| c as &dyn ResultStore);
            let exec = &exec;
            scope.spawn(move || loop {
                let Some(idx) = next_index(work_rx) else {
                    return;
                };
                let spec = &campaign.cells[idx];
                let emit = |e: Event| {
                    let _ = event_tx.send(e);
                };
                let result = run_cell(spec, registry, store, emit, |_| {
                    let mut emit = emit;
                    Attempt::catching(|| exec(spec, &mut emit))
                });
                *slots[idx].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });

    let jobs_out: Vec<JobResult> = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("every queued cell produces a result")
        })
        .collect();

    let wall_ms = started.elapsed().as_millis() as u64;
    let result = CampaignResult {
        name: campaign.name.clone(),
        jobs: jobs_out,
        wall_ms,
    };

    let _ = event_tx.send(Event::CampaignFinished {
        campaign: result.name.clone(),
        completed: result.completed(),
        failed: result.failed(),
        cache_hits: result.cache_hits(),
        wall_ms,
    });
    drop(event_tx);
    let _ = collector.join();
    result
}

fn next_index(work_rx: &Mutex<mpsc::Receiver<usize>>) -> Option<usize> {
    work_rx.lock().expect("work queue poisoned").recv().ok()
}
